"""Unified engine configuration (``EngineConfig``).

:class:`EngineConfig` is the one place engine and submitter knobs
live — journaling, fairness, preemption, backpressure and the
adaptive :class:`~repro.control.policy.PolicyConfig`.  It is a frozen,
keyword-only dataclass accepted by
:class:`~repro.engine.admission.AdmissionPipeline`, by the submitters
that build their own environment (``config=EngineConfig(...)``) and by
:func:`~repro.core.submitter.default_multicluster`.  It is validated at
construction time with :class:`~repro.engine.spec.SpecError` naming
the offending field; nothing downstream re-checks the values.

``engine`` selects the hot-path implementation: ``"fast"`` (the
default — incremental indexes, coalesced drains, parked placement
candidates) or ``"naive"`` (the straight-line reference paths the
``engine_fast`` verify oracle diffs against).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Optional

from .fairness import FAIRNESS_REGISTRY
from .spec import SpecError

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from ..control.policy import PolicyConfig

#: Valid values for :attr:`EngineConfig.engine`.
ENGINE_MODES = ("fast", "naive")


@dataclass(frozen=True)
class EngineConfig:
    """One validated bundle of engine/submitter knobs.

    Every field defaults to the subsystem's static behaviour, so
    ``EngineConfig()`` configures nothing beyond the paper defaults.
    """

    #: Hot-path implementation: ``"fast"`` or ``"naive"``.
    engine: str = "fast"
    #: Append every step/admission event to a durable journal.
    journaled: bool = False
    #: Cross-tenant ordering policy: a name in
    #: :data:`~repro.engine.fairness.FAIRNESS_REGISTRY` (where custom
    #: policies register), or ``None`` for strict-priority.
    fairness: Optional[str] = None
    #: Fairness weights per tenant (entitlement multipliers).
    tenant_weights: Optional[Dict[str, float]] = None
    #: Checkpoint-evict over-share batch work for blocked serving work.
    preemption: bool = False
    #: Per-workflow eviction budget when ``preemption`` is on.
    max_preemptions: int = 2
    #: Post-restore re-eviction cooldown (virtual seconds).
    preempt_cooldown: float = 60.0
    #: Keep CPU-only filler off GPU clusters (needs a fairness policy).
    protect_gpu: bool = False
    #: Bounded admission queue depth (``None`` = unbounded).
    max_pending: Optional[int] = None
    #: Adaptive policy knobs (:class:`~repro.control.policy.PolicyConfig`);
    #: ``None`` = the static paper defaults, bit-identical to
    #: ``policy=PolicyConfig()``.
    policy: Optional[PolicyConfig] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_MODES:
            raise SpecError(
                f"EngineConfig.engine must be one of {ENGINE_MODES}: {self.engine!r}"
            )
        if not isinstance(self.journaled, bool):
            raise SpecError(
                f"EngineConfig.journaled must be a bool: {self.journaled!r}"
            )
        if self.fairness is not None and not (
            isinstance(self.fairness, str) and self.fairness in FAIRNESS_REGISTRY
        ):
            raise SpecError(
                f"EngineConfig.fairness must be one of {sorted(FAIRNESS_REGISTRY)} "
                f"or None: {self.fairness!r}"
            )
        if self.protect_gpu and self.fairness is None:
            raise SpecError(
                "EngineConfig.protect_gpu requires a fairness policy "
                "(set fairness='weighted-fair' or 'drf' — GPU protection "
                "redirects placement across tenants)"
            )
        if self.tenant_weights is not None:
            for user, weight in self.tenant_weights.items():
                if weight <= 0:
                    raise SpecError(
                        f"EngineConfig.tenant_weights[{user!r}] must be "
                        f"> 0: {weight}"
                    )
        if self.max_pending is not None and self.max_pending < 1:
            raise SpecError(
                f"EngineConfig.max_pending must be >= 1 or None: {self.max_pending}"
            )
        if self.max_preemptions < 0:
            raise SpecError(
                f"EngineConfig.max_preemptions must be >= 0: {self.max_preemptions}"
            )
        if self.preempt_cooldown < 0:
            raise SpecError(
                f"EngineConfig.preempt_cooldown must be >= 0: "
                f"{self.preempt_cooldown}"
            )
        if not self.preemption and (
            self.max_preemptions != 2 or self.preempt_cooldown != 60.0
        ):
            raise SpecError(
                "EngineConfig.preemption is off but max_preemptions / "
                "preempt_cooldown were customised — set preemption=True"
            )
        if self.policy is not None:
            from ..control.policy import PolicyConfig

            if not isinstance(self.policy, PolicyConfig):
                raise SpecError(
                    f"EngineConfig.policy must be a PolicyConfig or None: "
                    f"{self.policy!r}"
                )

    # ------------------------------------------------------------- helpers

    @property
    def fast(self) -> bool:
        """True when the fast hot paths are selected."""
        return self.engine == "fast"

    def describe(self) -> str:
        """Compact one-line summary (non-default fields only)."""
        default = EngineConfig()
        parts = [
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if getattr(self, f.name) != getattr(default, f.name)
        ]
        return f"EngineConfig({', '.join(parts)})" if parts else "EngineConfig()"


#: The all-defaults config.
DEFAULT_CONFIG: EngineConfig = EngineConfig()

__all__ = ["EngineConfig", "DEFAULT_CONFIG", "ENGINE_MODES"]
