"""Multi-cluster workflow queue (paper Appendix B.A).

Ant Group schedules workflows across several clusters with different
shapes (GPU-heavy, storage-distant, CPU-rich).  A workflow is queued
with a business priority and a user quota, then dequeued to the cluster
chosen by a weighted combination of:

(a) workflow priority, (b) cluster free CPU/memory capacity, (c) the
user's remaining CPU/memory quota, and (d) the user's remaining GPU
quota — the four properties the paper lists.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..k8s.cluster import Cluster
from ..k8s.resources import ResourceQuantity
from .spec import ExecutableWorkflow


class QuotaError(RuntimeError):
    """Raised when a submission exceeds the user's configured quota."""


@dataclass
class UserQuota:
    """Per-user resource quota tracked by the queue."""

    user: str
    cpu_limit: float
    memory_limit: int
    gpu_limit: int = 0
    cpu_used: float = 0.0
    memory_used: int = 0
    gpu_used: int = 0

    @staticmethod
    def _fraction(used: float, limit: float) -> float:
        # A zero limit means the user has no grant at all: 0 remaining.
        # (It used to read as 100% remaining — `1.0 - 0.0` — which made
        # placement scoring favour exactly the users who are exhausted.)
        if limit <= 0:
            return 0.0
        return max(0.0, 1.0 - used / limit)

    def remaining_fraction(self) -> Tuple[float, float]:
        """(cpu+mem fraction remaining, gpu fraction remaining)."""
        cpu_frac = self._fraction(self.cpu_used, self.cpu_limit)
        mem_frac = self._fraction(self.memory_used, self.memory_limit)
        gpu_frac = self._fraction(self.gpu_used, self.gpu_limit)
        return (cpu_frac + mem_frac) / 2.0, gpu_frac

    def can_charge(self, demand: ResourceQuantity) -> bool:
        return not (
            self.cpu_used + demand.cpu > self.cpu_limit
            or self.memory_used + demand.memory > self.memory_limit
            or self.gpu_used + demand.gpu > self.gpu_limit
        )

    def charge(self, demand: ResourceQuantity) -> None:
        if not self.can_charge(demand):
            raise QuotaError(f"user {self.user} quota exceeded by {demand}")
        self.cpu_used += demand.cpu
        self.memory_used += demand.memory
        self.gpu_used += demand.gpu

    def release(self, demand: ResourceQuantity) -> None:
        self.cpu_used = max(0.0, self.cpu_used - demand.cpu)
        self.memory_used = max(0, self.memory_used - demand.memory)
        self.gpu_used = max(0, self.gpu_used - demand.gpu)


@dataclass
class DeferredDequeue:
    """Signal that the head workflow cannot run *right now*.

    Returned by :meth:`MultiClusterQueue.dequeue` instead of silently
    dropping an over-quota workflow (the item used to be popped before
    ``charge()`` raised, so it vanished from the heap).  The item is
    handed back to the caller, who re-enqueues it once quota frees up.
    """

    item: "QueuedWorkflow"
    reason: str
    #: What blocked the dequeue: ``"quota"`` (the user's grant cannot
    #: absorb the demand right now) or ``"headroom"`` (no feasible
    #: cluster has admission capacity).  Preemption keys off this — only
    #: headroom blocks can be relieved by evicting running work.
    kind: str = "quota"


@dataclass
class QueuedWorkflow:
    workflow: ExecutableWorkflow
    user: str
    priority: int = 0
    #: Memoized :meth:`peak_demand` — placement passes call it once per
    #: candidate per pass, and steps are immutable after enqueue.
    _peak: Optional[ResourceQuantity] = field(
        default=None, repr=False, compare=False
    )

    def peak_demand(self) -> ResourceQuantity:
        """Upper bound of simultaneous demand: the sum of all steps."""
        if self._peak is None:
            total = ResourceQuantity()
            for step in self.workflow.steps.values():
                total = total + step.requests
            self._peak = total
        return self._peak


@dataclass
class MultiClusterQueue:
    """Priority queue placing workflows on the best-scoring cluster.

    The placement score for (workflow, cluster) combines the paper's
    four factors with configurable weights; higher is better.  GPU
    workflows are only placed on clusters with GPU capacity.
    """

    clusters: List[Cluster]
    quotas: Dict[str, UserQuota] = field(default_factory=dict)
    priority_weight: float = 1.0
    capacity_weight: float = 2.0
    user_quota_weight: float = 1.0
    gpu_quota_weight: float = 1.0
    #: Keep CPU-only work off accelerator clusters whenever some
    #: CPU-only cluster could host it.  GPU nodes are the scarce,
    #: expensive resource (the paper's Ant clusters hold them apart);
    #: without this, placement scoring happily fills GPU clusters with
    #: CPU filler and the next GPU workflow queues behind it.  Off by
    #: default: the legacy score considered every cluster.
    protect_gpu: bool = False
    _heap: List[tuple] = field(default_factory=list)
    _seq: "itertools.count" = field(default_factory=itertools.count)
    #: Demand already placed on each cluster but possibly not yet
    #: running (queued pods).  Scoring counts it against free capacity,
    #: so a burst of placements spreads instead of piling onto whichever
    #: cluster looked freest at the first pop.
    _reserved: Dict[str, ResourceQuantity] = field(default_factory=dict)
    #: Memoized admission headroom per cluster, invalidated whenever
    #: that cluster's reservation changes.  Entries carry the node
    #: count they were computed at so a grown cluster recomputes.
    _headroom_cache: Dict[str, Tuple[int, ResourceQuantity]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Which cluster each placed workflow reserved (for release()).
    _placements: Dict[str, str] = field(default_factory=dict)
    #: Times a release would have driven a reservation negative (a
    #: double-release or lost-placement symptom; clamped, but flagged).
    reservation_underflows: int = 0

    def enqueue(self, item: QueuedWorkflow) -> None:
        # Negative priority: heapq is a min-heap, higher priority first.
        heapq.heappush(self._heap, (-item.priority, next(self._seq), item))

    def __len__(self) -> int:
        return len(self._heap)

    def _quota_for(self, user: str) -> UserQuota:
        """Mutating accessor for the *charge* paths: installs the
        effectively-unbounded default quota so usage is tracked."""
        if user not in self.quotas:
            self.quotas[user] = UserQuota(
                user=user, cpu_limit=1e9, memory_limit=10**18, gpu_limit=10**6
            )
        return self.quotas[user]

    def _quota_view(self, user: str) -> UserQuota:
        """Read-only quota lookup for scoring.

        Scoring must not mutate quota state: installing the unbounded
        default as a side effect of merely *scoring* a user meant a
        later explicit ``quotas[user] = ...`` setup silently replaced an
        object the queue was already accounting against.
        """
        quota = self.quotas.get(user)
        if quota is not None:
            return quota
        return UserQuota(
            user=user, cpu_limit=1e9, memory_limit=10**18, gpu_limit=10**6
        )

    @staticmethod
    def _clamped_fraction(free: float, capacity: float) -> float:
        """Free-capacity fraction, clamped to [0, 1].

        An over-reserved cluster (:meth:`dequeue` places without the
        headroom gate, so operator wait queues absorb overflow) has
        negative free capacity; un-clamped it produced *negative* fractions whose
        magnitude grew with how overcommitted the cluster was, skewing
        the weighted score instead of simply reading "full".
        """
        if not capacity:
            return 0.0
        return min(1.0, max(0.0, free / capacity))

    def _cpu_only_cluster_fits(self, demand: ResourceQuantity) -> bool:
        return any(
            cluster.capacity.gpu == 0 and demand.fits_within(cluster.capacity)
            for cluster in self.clusters
        )

    def _score(self, item: QueuedWorkflow, cluster: Cluster) -> Optional[float]:
        demand = item.peak_demand()
        needs_gpu = demand.gpu > 0
        capacity = cluster.capacity
        if needs_gpu and capacity.gpu == 0:
            return None
        if (
            self.protect_gpu
            and not needs_gpu
            and capacity.gpu > 0
            and self._cpu_only_cluster_fits(demand)
        ):
            return None
        reserved = self._reserved.get(cluster.name, ResourceQuantity())
        free = capacity - cluster.allocated - reserved
        cpu_frac = self._clamped_fraction(free.cpu, capacity.cpu)
        mem_frac = self._clamped_fraction(free.memory, capacity.memory)
        quota = self._quota_view(item.user)
        user_frac, gpu_frac = quota.remaining_fraction()
        return (
            self.priority_weight * item.priority
            + self.capacity_weight * (cpu_frac + mem_frac) / 2.0
            + self.user_quota_weight * user_frac
            + self.gpu_quota_weight * (gpu_frac if needs_gpu else 0.0)
        )

    def _admission_headroom(self, cluster: Cluster) -> ResourceQuantity:
        """Capacity left for new placements at the admission level.

        Deliberately measured against the cluster's *total* capacity
        minus this queue's own reservations — not the operator's live
        step allocations, which rise and fall with every step.  Workflow
        completions are the only events that free this headroom, so an
        admission controller gating on it never misses a wakeup.

        Memoized per cluster between reservation changes: placement
        passes and parked-candidate wake filters read it once per
        candidate, and the reservation only moves on place/release.
        """
        cached = self._headroom_cache.get(cluster.name)
        if cached is not None and cached[0] == len(cluster.nodes):
            return cached[1]
        reserved = self._reserved.get(cluster.name, ResourceQuantity())
        headroom = cluster.capacity - reserved
        self._headroom_cache[cluster.name] = (len(cluster.nodes), headroom)
        return headroom

    def try_place(
        self, item: QueuedWorkflow, require_capacity: bool = True
    ) -> Union[DeferredDequeue, Tuple[QueuedWorkflow, Cluster]]:
        """Quota-charge ``item`` and pick its cluster, without the heap.

        The placement half of :meth:`dequeue`, exposed so an
        event-driven admission pipeline can order candidates itself
        (e.g. with priority aging) and still share this queue's quota
        accounting, reservations and scoring.  Returns a
        :class:`DeferredDequeue` when the user's quota cannot absorb the
        item's peak demand right now, or — with ``require_capacity``,
        the default — when no feasible cluster has admission headroom
        for it.  Raises
        :class:`QuotaError` for permanent infeasibility (a GPU workflow
        with no GPU cluster attached).  On success the quota is charged
        and the chosen cluster's reservation recorded; call
        :meth:`release` when the workflow finishes.
        """
        demand = item.peak_demand()
        quota = self._quota_for(item.user)
        if not quota.can_charge(demand):
            return DeferredDequeue(
                item=item,
                reason=f"user {item.user} quota cannot absorb {demand}",
                kind="quota",
            )
        scored = [
            (score, cluster)
            for cluster in self.clusters
            if (score := self._score(item, cluster)) is not None
        ]
        if not scored:
            raise QuotaError(
                f"workflow {item.workflow.name}: no cluster can host its demand"
            )
        if require_capacity:
            scored = [
                (score, cluster)
                for score, cluster in scored
                if demand.fits_within(self._admission_headroom(cluster))
            ]
            if not scored:
                return DeferredDequeue(
                    item=item,
                    reason=f"no cluster has admission headroom for {demand}",
                    kind="headroom",
                )
        scored.sort(key=lambda pair: (-pair[0], pair[1].name))
        best_cluster = scored[0][1]
        quota.charge(demand)
        current = self._reserved.get(best_cluster.name, ResourceQuantity())
        self._reserved[best_cluster.name] = current + demand
        self._headroom_cache.pop(best_cluster.name, None)
        self._placements[item.workflow.name] = best_cluster.name
        return item, best_cluster

    def dequeue(self) -> Union[None, DeferredDequeue, Tuple[QueuedWorkflow, Cluster]]:
        """Pop the highest-priority workflow and pick its cluster.

        Returns ``None`` when the queue is empty, or a
        :class:`DeferredDequeue` carrying the item when the user's quota
        cannot absorb its peak demand right now — the workflow is handed
        back instead of lost, and the caller re-enqueues it after quota
        frees up.  On success the user's quota is charged for the peak
        demand; call :meth:`release` when the workflow finishes.
        """
        if not self._heap:
            return None
        # Placement decided *before* the pop commits: an over-quota
        # workflow used to be popped first and then lost when charge()
        # raised.
        probe = self._heap[0][2]
        try:
            placed = self.try_place(probe, require_capacity=False)
        except QuotaError:
            # Permanent infeasibility (e.g. a GPU workflow with no GPU
            # cluster attached): surface it, but re-enqueue the item so
            # the queue never swallows a workflow.
            heapq.heappop(self._heap)
            self.enqueue(probe)
            raise
        heapq.heappop(self._heap)
        return placed

    def release(self, item: QueuedWorkflow) -> None:
        """Return the quota charge and reservation when it completes.

        Idempotent: releasing a workflow that holds no placement (double
        release, or one that was deferred and never charged) is a no-op
        — blindly refunding quota here would erase *other* workflows'
        legitimate charges.  A reservation that would go negative is
        clamped and counted in :attr:`reservation_underflows`.
        """
        cluster_name = self._placements.pop(item.workflow.name, None)
        if cluster_name is None:
            return
        demand = item.peak_demand()
        quota = self.quotas.get(item.user)
        if quota is not None:
            # A placement always charged via _quota_for, so the quota
            # exists; guarded anyway so release never installs one.
            quota.release(demand)
        current = self._reserved.get(cluster_name, ResourceQuantity())
        if (
            demand.cpu > current.cpu + 1e-9
            or demand.memory > current.memory
            or demand.gpu > current.gpu
        ):
            # Accounting drift: more released than was ever reserved.
            self.reservation_underflows += 1
        self._reserved[cluster_name] = current - demand  # subtraction clamps at 0
        self._headroom_cache.pop(cluster_name, None)

    def tenant_usage(self, user: str) -> Tuple[float, int, int]:
        """Currently charged ``(cpu, memory, gpu)`` for one tenant.

        The live usage feed for fairness shares: exactly what this
        queue's quota accounting has charged and not yet released.
        """
        quota = self.quotas.get(user)
        if quota is None:
            return (0.0, 0, 0)
        return (quota.cpu_used, quota.memory_used, quota.gpu_used)

    def fleet_capacity(self) -> ResourceQuantity:
        """Total capacity across all attached clusters."""
        total = ResourceQuantity()
        for cluster in self.clusters:
            total = total + cluster.capacity
        return total

    def headroom(self, cluster: Cluster) -> ResourceQuantity:
        """Public admission-headroom view (capacity minus reservations)."""
        return self._admission_headroom(cluster)

    def requeue(self, item: QueuedWorkflow) -> None:
        """Re-place a displaced workflow (its cluster died mid-run).

        Releases the old charge/reservation and puts the workflow back
        in priority order for a fresh placement decision.
        """
        self.release(item)
        self.enqueue(item)

    def balance_report(self) -> Dict[str, float]:
        """CPU-allocation fraction per cluster (load-balance check)."""
        out = {}
        for cluster in self.clusters:
            capacity = cluster.capacity
            out[cluster.name] = (
                cluster.allocated.cpu / capacity.cpu if capacity.cpu else 0.0
            )
        return out
