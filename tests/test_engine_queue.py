"""Unit tests for multi-cluster placement (Appendix B.A).

The queue is placement-only: every case drives ``try_place`` directly.
Waiting-order behaviour (priority, FIFO, aging) is covered by the
admission pipeline tests.
"""

import pytest

from repro.engine.queue import (
    CAPACITY_WEIGHT,
    DeferredDequeue,
    MultiClusterQueue,
    QueuedWorkflow,
    QuotaError,
    UserQuota,
)
from repro.engine.spec import ExecutableStep, ExecutableWorkflow
from repro.k8s.cluster import Cluster
from repro.k8s.resources import ResourceQuantity

GB = 2**30


def _wf(name: str, cpu: float = 4.0, gpu: int = 0) -> ExecutableWorkflow:
    wf = ExecutableWorkflow(name=name)
    wf.add_step(
        ExecutableStep(
            name="s",
            duration_s=10,
            requests=ResourceQuantity(cpu=cpu, memory=GB, gpu=gpu),
        )
    )
    return wf


def _clusters():
    gpu_cluster = Cluster.uniform("gpu", 2, cpu_per_node=16, memory_per_node=64 * GB, gpu_per_node=4)
    cpu_cluster = Cluster.uniform("cpu", 4, cpu_per_node=64, memory_per_node=256 * GB)
    return [gpu_cluster, cpu_cluster]


class TestPlacement:
    def test_gpu_workflow_lands_on_gpu_cluster(self):
        queue = MultiClusterQueue(clusters=_clusters())
        _, cluster = queue.try_place(QueuedWorkflow(_wf("trainer", gpu=2), user="u"))
        assert cluster.name == "gpu"

    def test_cpu_workflow_prefers_freer_cluster(self):
        clusters = _clusters()
        # Pre-load the GPU cluster so its free fraction drops.
        from repro.k8s.cluster import Scheduler
        from repro.k8s.objects import Pod

        Scheduler(clusters[0]).try_schedule(
            Pod("busy", requests=ResourceQuantity(cpu=14, memory=48 * GB))
        )
        queue = MultiClusterQueue(clusters=clusters)
        _, cluster = queue.try_place(QueuedWorkflow(_wf("batch"), user="u"))
        assert cluster.name == "cpu"


    def test_no_headroom_defers_until_release(self):
        clusters = [Cluster.uniform("cpu", 1, cpu_per_node=8, memory_per_node=8 * GB)]
        queue = MultiClusterQueue(clusters=clusters)
        first = QueuedWorkflow(_wf("first", cpu=8.0), user="u")
        second = QueuedWorkflow(_wf("second", cpu=8.0), user="u")
        assert queue.try_place(first)[1] is clusters[0]
        deferred = queue.try_place(second)
        assert isinstance(deferred, DeferredDequeue)
        assert deferred.kind == "headroom"
        assert queue.tenant_usage("u")[0] == pytest.approx(8.0)  # only first
        queue.release(first)
        assert queue.try_place(second)[1] is clusters[0]


class TestQuota:
    def test_quota_charged_and_released(self):
        queue = MultiClusterQueue(clusters=_clusters())
        queue.quotas["alice"] = UserQuota(
            user="alice", cpu_limit=8, memory_limit=4 * GB, gpu_limit=0
        )
        item = QueuedWorkflow(_wf("a", cpu=4.0), user="alice")
        queue.try_place(item)
        assert queue.quotas["alice"].cpu_used == 4.0
        queue.release(item)
        assert queue.quotas["alice"].cpu_used == 0.0

    def test_over_quota_defers_instead_of_dropping(self):
        queue = MultiClusterQueue(clusters=_clusters())
        queue.quotas["bob"] = UserQuota(
            user="bob", cpu_limit=2, memory_limit=GB // 2, gpu_limit=0
        )
        item = QueuedWorkflow(_wf("big", cpu=4.0), user="bob")
        deferred = queue.try_place(item)
        assert isinstance(deferred, DeferredDequeue)
        assert deferred.kind == "quota"
        assert deferred.item is item  # handed back, not lost
        assert queue.quotas["bob"].cpu_used == 0.0  # nothing charged
        # The caller retries once quota frees; the workflow then places.
        queue.quotas["bob"].cpu_limit = 8
        queue.quotas["bob"].memory_limit = 2 * GB
        placed, cluster = queue.try_place(deferred.item)
        assert placed is item
        assert cluster is not None

    def test_infeasible_workflow_raises_but_stays_queued(self):
        cpu_only = [Cluster.uniform("cpu", 2, cpu_per_node=8, memory_per_node=8 * GB)]
        queue = MultiClusterQueue(clusters=cpu_only)
        item = QueuedWorkflow(_wf("needs-gpu", gpu=1), user="u")
        with pytest.raises(QuotaError):
            queue.try_place(item)
        # Nothing was charged or reserved: the caller still holds the
        # workflow and can reject it cleanly.
        assert queue.tenant_usage("u") == (0.0, 0, 0)
        assert queue.headroom(cpu_only[0]) == cpu_only[0].capacity

    def test_remaining_fraction(self):
        quota = UserQuota(user="u", cpu_limit=10, memory_limit=100, gpu_limit=4)
        quota.charge(ResourceQuantity(cpu=5, memory=50, gpu=2))
        cpu_mem, gpu = quota.remaining_fraction()
        assert cpu_mem == pytest.approx(0.5)
        assert gpu == pytest.approx(0.5)


class TestScoringIsReadOnly:
    def test_scoring_does_not_install_default_quota(self):
        """Regression: merely scoring a user used to permanently install
        the unbounded default quota in ``self.quotas``, so a later
        explicit ``quotas[user] = ...`` setup replaced an object the
        queue was already accounting against."""
        queue = MultiClusterQueue(clusters=_clusters())
        item = QueuedWorkflow(_wf("probe"), user="newcomer")
        for cluster in queue.clusters:
            queue._score(item, cluster)
        assert "newcomer" not in queue.quotas

    def test_late_quota_setup_is_honoured_after_scoring(self):
        """The race the bug enabled: score first, configure the quota
        second — the explicit grant must be the one that's enforced."""
        queue = MultiClusterQueue(clusters=_clusters())
        item = QueuedWorkflow(_wf("probe", cpu=4.0), user="late")
        for cluster in queue.clusters:
            queue._score(item, cluster)
        queue.quotas["late"] = UserQuota(
            user="late", cpu_limit=1.0, memory_limit=GB, gpu_limit=0
        )
        placed = queue.try_place(item)
        assert isinstance(placed, DeferredDequeue)
        assert placed.kind == "quota"

    def test_release_never_installs_a_quota(self):
        queue = MultiClusterQueue(clusters=_clusters())
        item = QueuedWorkflow(_wf("ghost"), user="phantom")
        queue.release(item)
        assert "phantom" not in queue.quotas

    def test_placement_still_tracks_usage_via_default_quota(self):
        """The charge path (as opposed to scoring) still installs the
        tracking default so tenant usage is accounted."""
        queue = MultiClusterQueue(clusters=_clusters())
        item = QueuedWorkflow(_wf("worker"), user="tracked")
        result = queue.try_place(item)
        assert not isinstance(result, DeferredDequeue)
        assert queue.tenant_usage("tracked")[0] == pytest.approx(4.0)
        queue.release(item)
        assert queue.tenant_usage("tracked") == (0.0, 0, 0)


class TestScoreClamping:
    def test_fraction_clamped_to_unit_interval(self):
        clamp = MultiClusterQueue._clamped_fraction
        assert clamp(-32.0, 16.0) == 0.0
        assert clamp(8.0, 16.0) == pytest.approx(0.5)
        assert clamp(32.0, 16.0) == 1.0
        assert clamp(4.0, 0.0) == 0.0

    def test_overcommitted_cluster_scores_as_full_not_negative(self):
        """Regression: with reservations beyond capacity, the free
        fraction must clamp to 0 rather than skew the score with an
        unbounded negative term."""
        clusters = _clusters()
        queue = MultiClusterQueue(clusters=clusters)
        cpu_cluster = clusters[1]
        # Reserve far past the cpu cluster's total capacity.
        queue._reserved[cpu_cluster.name] = ResourceQuantity(
            cpu=cpu_cluster.capacity.cpu * 3,
            memory=cpu_cluster.capacity.memory * 3,
        )
        item = QueuedWorkflow(_wf("probe"), user="u", priority=0)
        overcommitted = queue._score(item, cpu_cluster)
        # Same tenant/priority on a genuinely *empty* cluster of the
        # same shape: the overcommitted score is exactly the zero-free
        # floor, i.e. strictly less, and by no more than the capacity
        # weight (bounded, not runaway-negative).
        empty_score = queue._score(item, clusters[0])
        assert overcommitted < empty_score
        assert empty_score - overcommitted <= CAPACITY_WEIGHT + 1e-9

class TestProtectGpu:
    def test_off_by_default(self):
        assert MultiClusterQueue(clusters=_clusters()).protect_gpu is False

    def test_cpu_work_excluded_from_gpu_cluster(self):
        queue = MultiClusterQueue(clusters=_clusters(), protect_gpu=True)
        item = QueuedWorkflow(_wf("filler", cpu=4.0), user="u")
        gpu_cluster, cpu_cluster = queue.clusters
        assert queue._score(item, gpu_cluster) is None
        assert queue._score(item, cpu_cluster) is not None
        _, placed_on = queue.try_place(item)
        assert placed_on.name == "cpu"

    def test_gpu_work_still_lands_on_gpu_cluster(self):
        queue = MultiClusterQueue(clusters=_clusters(), protect_gpu=True)
        _, cluster = queue.try_place(QueuedWorkflow(_wf("trainer", gpu=1), user="u"))
        assert cluster.name == "gpu"

    def test_spillover_when_no_cpu_cluster_fits(self):
        """Protection yields when CPU clusters can never hold the demand:
        a huge CPU-only workflow may still take GPU-cluster capacity."""
        clusters = [
            Cluster.uniform("gpu", 2, cpu_per_node=64, memory_per_node=256 * GB, gpu_per_node=4),
            Cluster.uniform("small-cpu", 1, cpu_per_node=8, memory_per_node=16 * GB),
        ]
        queue = MultiClusterQueue(clusters=clusters, protect_gpu=True)
        _, cluster = queue.try_place(QueuedWorkflow(_wf("wide", cpu=32.0), user="u"))
        assert cluster.name == "gpu"
