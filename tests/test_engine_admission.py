"""Tests for the event-driven admission & scheduling pipeline."""

import pytest

from repro.engine.admission import AdmissionError, AdmissionPipeline
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


def _small_cluster(cpu: float = 8.0):
    return Cluster.uniform("solo", 1, cpu_per_node=cpu, memory_per_node=32 * GB)


class TestArrivals:
    def test_past_arrival_rejected(self):
        pipeline = AdmissionPipeline([_small_cluster()])
        pipeline.submit_at(100.0, _wf("a"))
        pipeline.run()
        assert pipeline.clock.now >= 100.0
        with pytest.raises(AdmissionError):
            pipeline.submit_at(pipeline.clock.now - 1.0, _wf("late"))

    def test_arrival_trace_runs_open_loop(self):
        pipeline = AdmissionPipeline([_small_cluster(cpu=64.0)])
        arrivals = [(float(i) * 10.0, _wf(f"wf{i}", cpu=2.0)) for i in range(5)]
        handles = pipeline.submit_arrivals(arrivals)
        pipeline.run()
        assert [h.arrival_time for h in handles] == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert all(h.record.phase == WorkflowPhase.SUCCEEDED for h in handles)
        # Uncontended fleet: everything places at its own arrival instant.
        assert all(h.queue_latency == 0.0 for h in handles)


class TestIncrementalPlacement:
    def test_completion_triggers_replacement(self):
        """A capacity-deferred workflow starts the moment its blocker ends.

        One 8-cpu cluster, two 8-cpu workflows arriving together: the
        second must wait for the first's completion event — not for a
        retry round or the end of the batch.
        """
        pipeline = AdmissionPipeline([_small_cluster(cpu=8.0)])
        first = pipeline.submit_at(0.0, _wf("first", cpu=8.0, duration=100.0))
        second = pipeline.submit_at(0.0, _wf("second", cpu=8.0, duration=100.0))
        pipeline.run()
        assert first.record.phase == WorkflowPhase.SUCCEEDED
        assert second.record.phase == WorkflowPhase.SUCCEEDED
        assert second.deferrals >= 1
        assert second.place_time == first.finish_time
        assert second.queue_latency == pytest.approx(first.finish_time)

    def test_quota_deferred_replacement_ordering(self):
        """Quota-deferred workflows re-place in priority order on release."""
        quotas = {"alice": UserQuota(user="alice", cpu_limit=8, memory_limit=64 * GB)}
        pipeline = AdmissionPipeline(
            [_small_cluster(cpu=64.0)], quotas=quotas
        )
        running = pipeline.submit_at(0.0, _wf("running", cpu=8.0, duration=60.0), user="alice")
        low = pipeline.submit_at(1.0, _wf("low", cpu=8.0), user="alice", priority=1)
        high = pipeline.submit_at(2.0, _wf("high", cpu=8.0), user="alice", priority=9)
        pipeline.run()
        # Both queued behind alice's 8-cpu grant while "running" held it;
        # on its completion the higher-priority workflow goes first even
        # though it arrived later.
        assert low.deferrals >= 1 and high.deferrals >= 1
        assert running.finish_time == high.place_time
        assert high.place_time < low.place_time
        names = [a.workflow_name for a in pipeline.placed]
        assert names == ["running", "high", "low"]
        assert pipeline.queue.quotas["alice"].cpu_used == 0.0

    def test_starvation_gap_tracks_worst_wait(self):
        pipeline = AdmissionPipeline([_small_cluster(cpu=8.0)])
        pipeline.submit_at(0.0, _wf("a", cpu=8.0, duration=100.0))
        pipeline.submit_at(0.0, _wf("b", cpu=8.0, duration=100.0))
        pipeline.run()
        assert pipeline.starvation_gap() == pytest.approx(100.0)


class TestPriorityAging:
    def _starved_run(self, aging_rate: float) -> float:
        """A low-priority arrival vs a steady high-priority stream.

        Cluster fits exactly one workflow; a fresh priority-5 workflow
        arrives every time the running one finishes, so without aging
        the priority-1 tenant waits out the entire stream.  Aging only
        matters against *later* arrivals — the waiter has accumulated
        age they haven't.  Returns the low workflow's wait.
        """
        pipeline = AdmissionPipeline(
            [_small_cluster(cpu=8.0)], aging_rate=aging_rate
        )
        low = pipeline.submit_at(0.0, _wf("low", cpu=8.0, duration=50.0), priority=1)
        for index in range(10):
            pipeline.submit_at(
                float(index) * 50.0,
                _wf(f"high{index}", cpu=8.0, duration=50.0),
                priority=5,
            )
        pipeline.run()
        assert low.record.phase == WorkflowPhase.SUCCEEDED
        return low.queue_latency

    def test_aging_bounds_starvation(self):
        starved_wait = self._starved_run(aging_rate=0.0)
        aged_wait = self._starved_run(aging_rate=0.1)
        # Without aging the low-priority tenant drains last (10 x 50s
        # of higher-priority work ahead of it); with 0.1 pt/s aging its
        # 50s of queue age outbids the 4-point priority gap at the
        # first completion.
        assert starved_wait == pytest.approx(500.0)
        assert aged_wait == pytest.approx(50.0)

    def test_effective_priority_growth(self):
        pipeline = AdmissionPipeline([_small_cluster()], aging_rate=0.5)
        record = pipeline.submit_at(10.0, _wf("w"))
        assert record.effective_priority(10.0, 0.5) == 0.0
        assert record.effective_priority(30.0, 0.5) == pytest.approx(10.0)


class TestAdmissionControl:
    def test_backpressure_sheds_when_queue_full(self):
        pipeline = AdmissionPipeline([_small_cluster(cpu=8.0)], max_pending=2)
        handles = [
            pipeline.submit_at(0.0, _wf(f"wf{i}", cpu=8.0, duration=1000.0))
            for i in range(5)
        ]
        pipeline.run(until=1.0)
        rejected = [h for h in handles if h.admitted is False]
        # All five arrive in the same instant, before placement fires:
        # two fill the bounded queue, the remaining three are shed.
        assert len(rejected) == 3
        assert all("queue full" in h.reject_reason for h in rejected)
        assert pipeline.metrics.counter("admission_rejected_total").value(
            reason="queue-full"
        ) == 3

    def test_infeasible_gpu_demand_rejected_at_arrival(self):
        pipeline = AdmissionPipeline([_small_cluster()])
        handle = pipeline.submit_at(0.0, _wf("gpu-wf", gpu=2))
        pipeline.run()
        assert handle.admitted is False
        assert "demand" in handle.reject_reason

    def test_oversized_demand_rejected_not_deadlocked(self):
        pipeline = AdmissionPipeline([_small_cluster(cpu=8.0)])
        giant = pipeline.submit_at(0.0, _wf("giant", cpu=100.0))
        normal = pipeline.submit_at(0.0, _wf("normal", cpu=4.0))
        makespan = pipeline.run()
        # The impossible workflow is shed instead of parking the queue.
        assert giant.admitted is False
        assert normal.record.phase == WorkflowPhase.SUCCEEDED
        assert makespan < 10_000

    def test_quota_grant_too_small_rejected(self):
        quotas = {"bob": UserQuota(user="bob", cpu_limit=2, memory_limit=64 * GB)}
        pipeline = AdmissionPipeline([_small_cluster(cpu=64.0)], quotas=quotas)
        handle = pipeline.submit_at(0.0, _wf("big", cpu=8.0), user="bob")
        pipeline.run()
        assert handle.admitted is False
        assert "quota grant" in handle.reject_reason


class TestObservability:
    def test_every_decision_counted(self):
        pipeline = AdmissionPipeline([_small_cluster(cpu=8.0)])
        for i in range(3):
            pipeline.submit_at(0.0, _wf(f"wf{i}", cpu=8.0, duration=10.0))
        pipeline.submit_at(0.0, _wf("gpu-wf", gpu=2))
        pipeline.run()
        events = {
            dict(labels)["event"]: value
            for labels, value in pipeline.metrics.counter(
                "admission_events_total"
            ).series().items()
        }
        assert events["arrival"] == 4
        assert events["admit"] == 3
        assert events["rejection"] == 1
        assert events["placement"] == 3
        assert events["completion"] == 3
        # Serial drain on a one-slot cluster: wf1 and wf2 defer at the
        # first pass, wf2 defers once more before its turn.
        assert events["deferral"] == 3
        assert events["pass"] == 3

    def test_determinism_same_seed(self):
        def fingerprints(seed):
            pipeline = AdmissionPipeline(
                [_small_cluster(cpu=16.0)], seed=seed, aging_rate=0.05
            )
            for i in range(8):
                pipeline.submit_at(float(i) * 5.0, _wf(f"wf{i}", cpu=8.0), priority=i % 3)
            pipeline.run()
            return [
                (a.workflow_name, a.cluster_name, a.place_time, a.finish_time, a.deferrals)
                for a in pipeline.placed
            ]

        assert fingerprints(7) == fingerprints(7)


class TestDispatcherCompat:
    """Batch semantics on the pipeline: a batch is a set of simultaneous
    arrivals, placed in priority order, reproducibly, with records."""

    def _clusters(self):
        return [
            Cluster.uniform("gpu", 2, cpu_per_node=32, memory_per_node=128 * GB, gpu_per_node=4),
            Cluster.uniform("cpu-a", 2, cpu_per_node=32, memory_per_node=128 * GB),
            Cluster.uniform("cpu-b", 2, cpu_per_node=32, memory_per_node=128 * GB),
        ]

    def test_batch_equivalence_priority_order_and_completion(self):
        pipeline = AdmissionPipeline(self._clusters())
        expected = []
        for index in range(9):
            priority = (index * 7) % 5
            pipeline.submit(_wf(f"wf{index}"), priority=priority)
            expected.append((f"wf{index}", priority))
        pipeline.run()
        # Same-instant arrivals place in one pass in strict priority
        # order (ties by arrival order), and every workflow completes.
        expected.sort(key=lambda pair: -pair[1])
        placed = pipeline.placed
        assert [a.workflow_name for a in placed] == [name for name, _ in expected]
        assert all(a.record.phase == WorkflowPhase.SUCCEEDED for a in placed)

    def test_batch_runs_are_reproducible(self):
        def run_once():
            pipeline = AdmissionPipeline(self._clusters(), seed=3)
            for index in range(8):
                pipeline.submit(_wf(f"wf{index}", cpu=16.0), priority=index % 4)
            pipeline.run()
            return [
                (a.workflow_name, a.cluster_name, a.record.finish_time)
                for a in pipeline.placed
            ]

        assert run_once() == run_once()

    def test_admission_records_exposed(self):
        pipeline = AdmissionPipeline(self._clusters())
        pipeline.submit(_wf("only"))
        pipeline.run()
        assert len(pipeline.records) == 1
        assert pipeline.records[0].workflow_name == "only"
        assert pipeline.records[0].queue_latency == 0.0
