"""Backend interface: compile IR to an engine-native workflow format.

The paper's workflow generator (Sec. II.F) converts the IR DAG into an
executable format per engine — YAML for Argo, Python DAG source for
Airflow, YAML for Tekton.  Each backend also reports its API coverage
relative to Couler's interface, the quantity the paper cites ("over 90%
of the Argo API, approximately 40–50% of the Airflow API").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Protocol, runtime_checkable

from ..ir.graph import WorkflowIR
from ..k8s.objects import manifest_yaml

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.config import EngineConfig


@runtime_checkable
class Submitter(Protocol):
    """The one submission contract every execution frontend honours.

    ``submit(ir)`` takes a finalized :class:`WorkflowIR` and returns a
    *record-shaped* result: either a
    :class:`~repro.engine.status.WorkflowRecord` itself or an object
    exposing one as ``.record`` (service handles, code-generating
    submitter results).  ``couler.run(submitter=...)`` accepts anything
    conforming — the local single-tenant submitter, the Couler service
    facade, the event-driven admission pipeline, or the Airflow/Tekton
    generators — interchangeably.  Use :func:`submission_record` to
    normalize the result back to a record.

    ``config`` is the validated
    :class:`~repro.engine.config.EngineConfig` the frontend was built
    with — the v1 introspection point (``submitter.config.describe()``)
    that replaced the scattered per-feature attributes.  The protocol
    is ``runtime_checkable``, so conformance (including the ``config``
    data member) is what ``couler.run()`` checks before submitting.
    """

    #: The knob bundle this frontend honours.
    config: "EngineConfig"

    def submit(self, ir: WorkflowIR):  # pragma: no cover - protocol stub
        """Run (or hand off) the workflow; return a record-shaped result."""
        ...


def submission_record(result):
    """Extract the :class:`WorkflowRecord` from any Submitter result.

    Returns the result itself when it already is a record, its
    ``.record`` attribute when present (service handles, simulated
    code-generation previews), or ``None`` for generate-only
    submissions that never executed.
    """
    from ..engine.status import WorkflowRecord

    if isinstance(result, WorkflowRecord):
        return result
    return getattr(result, "record", None)


@dataclass(frozen=True)
class BackendInfo:
    """Static facts about a backend."""

    name: str
    output_format: str
    #: Fraction of the engine's native API surface Couler's unified
    #: interface can express through this backend.
    api_coverage: float


class Backend(ABC):
    """Compiles a validated :class:`WorkflowIR` into an engine format."""

    info: BackendInfo

    @abstractmethod
    def compile(self, ir: WorkflowIR) -> object:
        """Return the engine-native representation (dict or source str)."""

    def compile_to_text(self, ir: WorkflowIR) -> str:
        """Render the compiled form as text (YAML or source code)."""
        compiled = self.compile(ir)
        if isinstance(compiled, str):
            return compiled
        return manifest_yaml(compiled)

    def prepare(self, ir: WorkflowIR) -> WorkflowIR:
        """Finalize the IR before compilation (shared by all backends)."""
        ir.finalize_artifacts()
        ir.validate()
        return ir


_REGISTRY: Dict[str, type] = {}


def register_backend(cls: type) -> type:
    """Class decorator adding a backend to the registry."""
    _REGISTRY[cls.info.name] = cls
    return cls


def make_backend(name: str) -> Backend:
    """Instantiate a registered backend by name (argo/airflow/tekton)."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None


def available_backends() -> Dict[str, BackendInfo]:
    return {name: cls.info for name, cls in sorted(_REGISTRY.items())}
