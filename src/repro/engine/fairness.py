"""Cross-tenant fairness policies and SLO lanes for admission scheduling.

Priority aging alone is not a fairness story: a stream of high-priority
arrivals can hold a low-priority tenant's work at the back of every
placement pass until its age bonus closes the gap, and the dispatch
benchmark measured exactly that (a ~1957 s starvation gap for the batch
tenant at 500 workflows / 4 tenants).  This module supplies the two
standard multi-tenant fixes from the scheduling literature plus the
admission-time SLO split the paper's Appendix B queue substrate assumes:

* :class:`FairnessPolicy` — a pluggable ordering over the pending queue.
  ``strict-priority`` reproduces the seed behaviour bit-for-bit (aged
  priority, arrival-sequence tie-break); ``weighted-fair`` orders
  tenants by weighted CPU+memory share so whoever has consumed the
  least of their entitlement goes first; ``drf`` orders by weighted
  *dominant* share across cpu/mem/gpu (dominant-resource fairness), so
  a GPU-hungry tenant and a CPU-hungry tenant are compared on the
  resource each actually saturates.
* :class:`LaneConfig` — admission-time SLO classes.  Every submission
  lands in a lane (``serving`` before ``batch``); lanes carry their own
  queue-depth bound and aging rate, and only serving-lane work may
  trigger preemption of over-share batch-lane work.
* :class:`TenantShares` — a live view of each tenant's charged share of
  the fleet, read by the policies and by the preemption victim search.

Fairness policies reorder *scheduling only*: the ``fairness`` verify
oracle asserts that outputs-view fingerprints are identical across all
policies (and with preemption on), because a policy that changed
results would not be a scheduler knob but a correctness bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

from ..k8s.resources import ResourceQuantity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (admission imports us)
    from .admission import AdmissionRecord


class FairnessError(ValueError):
    """Raised for unknown policies, bad weights or malformed lanes."""


# --------------------------------------------------------------- SLO lanes

#: Latency-sensitive lane: placed first in every pass, may preempt.
SLO_SERVING = "serving"
#: Throughput lane: placed after serving, preemptible when over share.
SLO_BATCH = "batch"
#: Back-compat default — submissions that never heard of lanes behave
#: exactly as before (everything in one lane, original ordering).
DEFAULT_SLO_CLASS = SLO_BATCH


@dataclass(frozen=True)
class LaneConfig:
    """Admission-time SLO class configuration.

    ``order`` decides inter-lane placement order within a pass (lower
    first).  ``aging_rate`` / ``max_pending`` override the pipeline
    defaults per lane (None = inherit / unbounded).  ``can_preempt``
    marks a lane whose headroom-blocked work may evict over-share
    ``preemptible``-lane workflows via checkpoint/restart.
    """

    name: str
    order: int = 0
    aging_rate: Optional[float] = None
    max_pending: Optional[int] = None
    can_preempt: bool = False
    preemptible: bool = False

    def __post_init__(self) -> None:
        if self.aging_rate is not None and self.aging_rate < 0:
            raise FairnessError(
                f"lane {self.name}: aging_rate must be >= 0: {self.aging_rate}"
            )
        if self.max_pending is not None and self.max_pending < 1:
            raise FairnessError(
                f"lane {self.name}: max_pending must be >= 1 or None: "
                f"{self.max_pending}"
            )


def default_lanes() -> Dict[str, LaneConfig]:
    """The stock two-lane SLO split: serving first, batch preemptible."""
    return {
        SLO_SERVING: LaneConfig(name=SLO_SERVING, order=0, can_preempt=True),
        SLO_BATCH: LaneConfig(name=SLO_BATCH, order=1, preemptible=True),
    }


# ------------------------------------------------------------ tenant shares


class TenantShares:
    """Live per-tenant resource-share view over the fleet capacity.

    ``usage_fn(user)`` returns the tenant's currently charged
    ``(cpu, memory, gpu)`` amounts (the admission pipeline wires this to
    the queue's quota accounting, so shares always reflect what is
    actually placed right now).  Weights scale entitlement: a tenant
    with weight 2.0 is treated as over-share only at twice the usage of
    a weight-1.0 tenant.  Unknown tenants default to weight 1.0.
    """

    def __init__(
        self,
        capacity: ResourceQuantity,
        usage_fn: Callable[[str], Tuple[float, float, float]],
        weights: Optional[Dict[str, float]] = None,
    ) -> None:
        for user, weight in (weights or {}).items():
            if weight <= 0:
                raise FairnessError(
                    f"tenant {user}: fairness weight must be > 0: {weight}"
                )
        self.capacity = capacity
        self._usage_fn = usage_fn
        self.weights = dict(weights or {})

    def weight(self, user: str) -> float:
        return self.weights.get(user, 1.0)

    def fractions(self, user: str) -> Tuple[float, float, float]:
        """(cpu, memory, gpu) fractions of fleet capacity in use."""
        cpu_used, memory_used, gpu_used = self._usage_fn(user)
        return (
            cpu_used / self.capacity.cpu if self.capacity.cpu else 0.0,
            memory_used / self.capacity.memory if self.capacity.memory else 0.0,
            gpu_used / self.capacity.gpu if self.capacity.gpu else 0.0,
        )

    def normalized_share(self, user: str) -> float:
        """Weighted mean CPU+memory share (the WFQ virtual-time proxy)."""
        cpu_frac, mem_frac, _ = self.fractions(user)
        return (cpu_frac + mem_frac) / 2.0 / self.weight(user)

    def dominant_share(self, user: str) -> float:
        """Weighted dominant share across cpu/mem/gpu (the DRF measure)."""
        return max(self.fractions(user)) / self.weight(user)


# --------------------------------------------------------- fairness policies


class FairnessPolicy:
    """Ordering over pending admissions within one placement pass.

    Subclasses implement :meth:`key`; lower keys place first.  Keys must
    be deterministic (include ``seq`` as the final tie-break) — the
    pipeline's same-seed replay guarantee depends on it.
    """

    #: Registry name; subclasses override.
    name = "?"

    def key(
        self,
        admission: "AdmissionRecord",
        seq: int,
        *,
        now: float,
        aging_rate: float,
        shares: TenantShares,
    ) -> Tuple:
        raise NotImplementedError


class StrictPriorityPolicy(FairnessPolicy):
    """The seed ordering: aged priority, arrival sequence tie-break.

    No cross-tenant correction — the pipeline's default ordering.
    """

    name = "strict-priority"

    def key(self, admission, seq, *, now, aging_rate, shares):
        return (-admission.effective_priority(now, aging_rate), seq)


class WeightedFairPolicy(FairnessPolicy):
    """Weighted-fair queueing by tenant CPU+memory share.

    The tenant currently consuming the smallest weighted share of the
    fleet goes first; aged priority only breaks ties *within* a tenant's
    claim level, so no priority stream can starve an idle tenant.
    """

    name = "weighted-fair"

    def key(self, admission, seq, *, now, aging_rate, shares):
        return (
            shares.normalized_share(admission.user),
            -admission.effective_priority(now, aging_rate),
            seq,
        )


class DRFPolicy(FairnessPolicy):
    """Dominant-resource fairness over cpu/mem/gpu shares.

    Tenants are compared on the weighted share of whichever resource
    each uses most — the multi-resource generalization of max-min
    fairness, so GPU-bound and CPU-bound tenants contend on equal terms.
    """

    name = "drf"

    def key(self, admission, seq, *, now, aging_rate, shares):
        return (
            shares.dominant_share(admission.user),
            -admission.effective_priority(now, aging_rate),
            seq,
        )


FAIRNESS_REGISTRY: Dict[str, type] = {
    policy.name: policy
    for policy in (StrictPriorityPolicy, WeightedFairPolicy, DRFPolicy)
}


def make_fairness_policy(
    policy: Union[str, FairnessPolicy, None],
) -> FairnessPolicy:
    """Resolve a policy name (or pass an instance through).

    ``None`` resolves to the back-compat ``strict-priority`` policy.
    """
    if policy is None:
        return StrictPriorityPolicy()
    if isinstance(policy, FairnessPolicy):
        return policy
    cls = FAIRNESS_REGISTRY.get(policy)
    if cls is None:
        raise FairnessError(
            f"unknown fairness policy {policy!r}; "
            f"choose from {sorted(FAIRNESS_REGISTRY)} or pass a "
            "FairnessPolicy instance"
        )
    return cls()
