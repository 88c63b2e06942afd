"""The Couler API: the one import surface for user code.

::

    from repro import couler

    couler.run_container(image="whalesay:latest", command=["cowsay"],
                         args=["hello"], step_name="A")
    record = couler.run(submitter=couler.ArgoSubmitter())

Stability contract (v2): names in ``__all__`` are not removed or
renamed within a major version; optional parameters of the ``run_*``
step constructors and of the submitters are keyword-only, so new
options never shift call sites; and any submitter conforming to the
:class:`~repro.backends.base.Submitter` protocol plugs into :func:`run`
interchangeably.  The defining modules live under :mod:`repro.core`,
which exports nothing itself.

The surface, by concern:

* **Workflow definition** (paper Sec. II.B) — the ``run_*`` step
  constructors, ``when`` / ``map`` / ``concurrent`` / ``exec_while``
  control flow, explicit ``dag`` / ``set_dependencies``, conditions,
  artifact constructors and the workflow context.
* **Submission** — :class:`ArgoSubmitter` / :class:`LocalSubmitter`
  run on the simulated operator, :class:`AdmissionSubmitter` goes
  through the multi-cluster admission pipeline
  (:func:`default_multicluster` builds its default fleet), and
  :class:`AirflowSubmitter` / :class:`TektonSubmitter` generate
  engine-native definitions.
* **Configuration** — one keyword-only ``config=``\\
  :class:`EngineConfig`, validated at construction, configures the
  admission pipeline and every submitter that builds its own
  environment (one handed an environment reports that environment's
  config): ``journaled=True`` records admission decisions and step
  events into a :class:`Journal` that a fresh replica recovers from by
  pure replay (:class:`ShardedOperatorFleet` drives several);
  ``fairness=`` selects a cross-tenant ordering policy
  (``strict-priority`` / ``weighted-fair`` / ``drf``, or a custom
  :class:`FairnessPolicy` registered by name); the SLO lane
  (:class:`LaneConfig`) is per submission,
  ``AdmissionSubmitter(slo_class=...)``; ``engine="naive"`` selects
  the straight-line reference hot paths the ``engine_fast`` verify
  oracle diffs against.  Adaptive knobs (Eq. 6
  weights, split budget, aging, retry budgets) live in
  :class:`PolicyConfig`, passed as ``EngineConfig(policy=...)`` and
  tuned by :class:`Controller`.
* **Caching** (Algorithm 2) — :class:`CacheManager` attaches automatic
  artifact caching to a run, :class:`ScoreWeights` tunes the Eq. 6
  importance factor, and custom policies subclass :class:`CachePolicy`
  and implement ``decide(decision: CacheDecision)``.
* **Profiling** — :func:`profile_run` (also ``python -m repro
  profile``) measures per-workflow engine cost on a deterministic
  synthetic fleet.
"""

from .backends.base import Submitter, submission_record
from .caching import (
    CacheDecision,
    CacheManager,
    CachePolicy,
    ScoreWeights,
    make_policy,
)
from .core.api import (
    PENDING,
    StepOutput,
    bigger,
    bigger_equal,
    concurrent,
    dag,
    equal,
    exec_while,
    map,  # noqa: A004 - matches the paper's couler.map
    not_equal,
    run,
    run_container,
    run_job,
    run_script,
    set_dependencies,
    smaller,
    smaller_equal,
    when,
    workflow_ir,
)
from .core.artifacts import (
    create_gcs_artifact,
    create_git_artifact,
    create_hdfs_artifact,
    create_oss_artifact,
    create_parameter_artifact,
    create_s3_artifact,
)
from .control import AdaptationLog, AdaptationResult, Controller, PolicyConfig
from .core.conditions import Condition, OutputRef
from .core.context import WorkflowContext, get_context, reset_context, workflow
from .core.submitter import (
    AdmissionSubmitter,
    AirflowSubmitter,
    ArgoSubmitter,
    LocalSubmitter,
    SubmissionResult,
    TektonSubmitter,
    default_environment,
    default_multicluster,
)
from .engine.config import DEFAULT_CONFIG, EngineConfig
from .engine.fairness import (
    SLO_BATCH,
    SLO_SERVING,
    FairnessPolicy,
    LaneConfig,
    make_fairness_policy,
)
from .engine.journal import Journal, JournalRecord
from .engine.replicas import ShardedOperatorFleet
from .profiling import ProfileReport, profile_run

__all__ = [
    # submission contract
    "Submitter",
    "submission_record",
    # submitters
    "AdmissionSubmitter",
    "AirflowSubmitter",
    "ArgoSubmitter",
    "LocalSubmitter",
    "SubmissionResult",
    "TektonSubmitter",
    "default_environment",
    "default_multicluster",
    # step definition
    "PENDING",
    "StepOutput",
    "run_container",
    "run_job",
    "run_script",
    # control flow
    "concurrent",
    "exec_while",
    "map",
    "when",
    # explicit DAG structure
    "dag",
    "set_dependencies",
    # conditions
    "Condition",
    "OutputRef",
    "bigger",
    "bigger_equal",
    "equal",
    "not_equal",
    "smaller",
    "smaller_equal",
    # caching (Algorithm 2)
    "CacheDecision",
    "CacheManager",
    "CachePolicy",
    "ScoreWeights",
    "make_policy",
    # multi-tenant fairness & SLO lanes
    "FairnessPolicy",
    "LaneConfig",
    "SLO_BATCH",
    "SLO_SERVING",
    "make_fairness_policy",
    # unified engine configuration & profiling
    "DEFAULT_CONFIG",
    "EngineConfig",
    "ProfileReport",
    "profile_run",
    # adaptive policy control
    "AdaptationLog",
    "AdaptationResult",
    "Controller",
    "PolicyConfig",
    # journal-backed engine (opt-in via EngineConfig(journaled=True))
    "Journal",
    "JournalRecord",
    "ShardedOperatorFleet",
    # artifacts
    "create_gcs_artifact",
    "create_git_artifact",
    "create_hdfs_artifact",
    "create_oss_artifact",
    "create_parameter_artifact",
    "create_s3_artifact",
    # workflow context & finalization
    "WorkflowContext",
    "get_context",
    "reset_context",
    "run",
    "workflow",
    "workflow_ir",
]
