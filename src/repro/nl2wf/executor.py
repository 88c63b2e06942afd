"""Execute generated Couler code and capture the resulting IR.

Generated (or canonical) programs are plain Python against the
``couler`` unified interface.  Execution happens in a fresh workflow
context with a dedicated namespace; the produced IR is the object the
validator compares against the task's expected IR.  Any exception the
program raises (syntax errors, unknown API names, missing arguments)
propagates as :class:`CodeExecutionError` — a failed sample.
"""

from __future__ import annotations

from ..ir.graph import WorkflowIR


class CodeExecutionError(RuntimeError):
    """Generated code failed to execute (the sample does not pass)."""


def execute_couler_code(code: str, workflow_name: str = "generated") -> WorkflowIR:
    """Run ``code`` against a fresh Couler context and return its IR.

    The namespace exposes exactly what the prompt promises: the
    ``couler`` module.  The caller's own context is restored afterwards
    so evaluation loops cannot leak state between samples.
    """
    from .. import couler

    couler.reset_context(workflow_name)
    namespace = {"couler": couler}
    try:
        exec(compile(code, f"<generated:{workflow_name}>", "exec"), namespace)
        ir = couler.workflow_ir(optimize=False)
    except Exception as exc:  # noqa: BLE001 - any generation bug = failure
        raise CodeExecutionError(f"{type(exc).__name__}: {exc}") from exc
    finally:
        couler.reset_context()
    return ir
