"""Multi-cluster dispatch (Appendix B.A end-to-end) through the admission
pipeline: a batch is a set of simultaneous arrivals."""

import pytest

from repro.engine.admission import AdmissionPipeline
from repro.engine.queue import UserQuota
from repro.engine.spec import ExecutableStep, ExecutableWorkflow
from repro.engine.status import WorkflowPhase
from repro.k8s.cluster import Cluster
from repro.k8s.resources import ResourceQuantity

GB = 2**30


def _wf(name: str, cpu: float = 8.0, gpu: int = 0, duration: float = 50.0):
    wf = ExecutableWorkflow(name=name)
    wf.add_step(
        ExecutableStep(
            name="work",
            duration_s=duration,
            requests=ResourceQuantity(cpu=cpu, memory=4 * GB, gpu=gpu),
        )
    )
    return wf


def _clusters():
    return [
        Cluster.uniform("gpu", 2, cpu_per_node=32, memory_per_node=128 * GB, gpu_per_node=4),
        Cluster.uniform("cpu-a", 2, cpu_per_node=32, memory_per_node=128 * GB),
        Cluster.uniform("cpu-b", 2, cpu_per_node=32, memory_per_node=128 * GB),
    ]


def _dispatch(pipeline, batch):
    """Submit ``(workflow, user, priority)`` arrivals at once and drain."""
    placed_before = len(pipeline.placed)
    for workflow, user, priority in batch:
        pipeline.submit(workflow, user=user, priority=priority)
    pipeline.run()
    return pipeline.placed[placed_before:]


class TestDispatch:
    def test_requires_clusters(self):
        with pytest.raises(ValueError):
            AdmissionPipeline(clusters=[])

    def test_all_workflows_complete(self):
        pipeline = AdmissionPipeline(_clusters())
        placed = _dispatch(pipeline, [(_wf(f"wf{i}"), "default", 0) for i in range(6)])
        assert len(placed) == 6
        assert all(a.record.phase == WorkflowPhase.SUCCEEDED for a in placed)

    def test_gpu_workflows_only_on_gpu_cluster(self):
        pipeline = AdmissionPipeline(_clusters())
        placed = _dispatch(
            pipeline,
            [(_wf("trainer", gpu=2), "default", 0), (_wf("batch"), "default", 0)],
        )
        clusters = {a.workflow_name: a.cluster_name for a in placed}
        assert clusters["trainer"] == "gpu"

    def test_load_spreads_across_cpu_clusters(self):
        pipeline = AdmissionPipeline(_clusters())
        placed = _dispatch(
            pipeline, [(_wf(f"wf{i}", cpu=16.0), "default", 0) for i in range(12)]
        )
        placements = {name: 0 for name in pipeline.operators}
        for admission in placed:
            placements[admission.cluster_name] += 1
        # No single cluster hoards the fleet: the weighted placement
        # keeps per-cluster load within a factor of the others.
        assert max(placements.values()) <= 3 * max(1, min(placements.values()))
        assert sum(placements.values()) == 12

    def test_priority_served_first(self):
        pipeline = AdmissionPipeline(_clusters())
        placed = _dispatch(
            pipeline, [(_wf("low"), "default", 1), (_wf("high"), "default", 9)]
        )
        assert placed[0].workflow_name == "high"

    def test_quota_released_after_completion(self):
        quotas = {
            "alice": UserQuota(user="alice", cpu_limit=16, memory_limit=64 * GB)
        }
        pipeline = AdmissionPipeline(_clusters(), quotas=quotas)
        _dispatch(pipeline, [(_wf("first", cpu=8.0), "alice", 0)])
        assert pipeline.queue.quotas["alice"].cpu_used == 0.0
        # Quota is free again, so another submission fits.
        placed = _dispatch(pipeline, [(_wf("second", cpu=8.0), "alice", 0)])
        assert placed[0].record.phase == WorkflowPhase.SUCCEEDED
