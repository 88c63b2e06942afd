"""Implementation home of the Couler unified programming interface
(paper Sec. II.B, Appendix A).

User code imports the public surface from :mod:`repro.couler`; this
package only holds the defining submodules (``api``, ``artifacts``,
``conditions``, ``context``, ``submitter``, ``step_zoo``) and exports
nothing itself.
"""
