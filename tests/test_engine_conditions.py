"""Tests for runtime condition evaluation (when-expressions + results).

The engine draws a step's ``result`` from its declared options and
evaluates downstream ``when`` expressions against it: the untaken branch
is Skipped, exactly as a real workflow engine resolves paper Code 3's
coin flip and Code 5's recursion.
"""


from repro import couler
from repro.core.submitter import ArgoSubmitter, default_environment
from repro.engine.operator import WorkflowOperator, _compare
from repro.engine.simclock import SimClock
from repro.engine.spec import ExecutableStep, ExecutableWorkflow
from repro.engine.status import StepStatus, WorkflowPhase
from repro.ir.nodes import SimHint
from repro.k8s.cluster import Cluster

GB = 2**30


class TestCompare:
    def test_string_equality(self):
        assert _compare("heads", "==", "heads")
        assert not _compare("heads", "==", "tails")
        assert _compare("heads", "!=", "tails")

    def test_numeric_comparisons(self):
        assert _compare("3", ">", "2.5")
        assert _compare("2", "<=", "2")
        assert not _compare("abc", ">", "2")  # non-numeric ordering is false


def _coin_workflow(seed_name: str) -> ExecutableWorkflow:
    wf = ExecutableWorkflow(name=seed_name)
    wf.add_step(
        ExecutableStep(
            name="flip", duration_s=5, result_options=("heads", "tails")
        )
    )
    wf.add_step(
        ExecutableStep(
            name="heads", duration_s=5, dependencies=["flip"],
            when_expr="{{flip.result}} == heads",
        )
    )
    wf.add_step(
        ExecutableStep(
            name="tails", duration_s=5, dependencies=["flip"],
            when_expr="{{flip.result}} == tails",
        )
    )
    return wf


class TestRuntimeBranching:
    def _run(self, seed: int):
        clock = SimClock()
        cluster = Cluster.uniform("c", 2, cpu_per_node=8, memory_per_node=32 * GB)
        operator = WorkflowOperator(clock, cluster, seed=seed)
        record = operator.submit(_coin_workflow(f"coin-{seed}"))
        operator.run_to_completion()
        return record

    def test_exactly_one_branch_runs(self):
        record = self._run(seed=1)
        assert record.phase == WorkflowPhase.SUCCEEDED
        statuses = {record.steps["heads"].status, record.steps["tails"].status}
        assert statuses == {StepStatus.SUCCEEDED, StepStatus.SKIPPED}

    def test_both_outcomes_reachable_across_seeds(self):
        taken = set()
        for seed in range(12):
            record = self._run(seed)
            taken.add(
                "heads"
                if record.steps["heads"].status == StepStatus.SUCCEEDED
                else "tails"
            )
        assert taken == {"heads", "tails"}

    def test_step_without_result_options_satisfies_conditions(self):
        """A completed step with no declared result keeps the old
        all-branches (upper bound) behaviour."""
        wf = ExecutableWorkflow(name="nores")
        wf.add_step(ExecutableStep(name="a", duration_s=1))
        wf.add_step(
            ExecutableStep(
                name="b", duration_s=1, dependencies=["a"],
                when_expr="{{a.result}} == anything",
            )
        )
        operator = default_environment()
        record = operator.submit(wf)
        operator.run_to_completion()
        assert record.steps["b"].status == StepStatus.SUCCEEDED

    def test_skip_cascades_through_chains(self):
        """A condition referencing a Skipped step is false, so unrolled
        exec_while chains stop at the first unmet condition."""
        wf = ExecutableWorkflow(name="cascade")
        wf.add_step(
            ExecutableStep(name="first", duration_s=1, result_options=("stop",))
        )
        wf.add_step(
            ExecutableStep(
                name="second", duration_s=1, dependencies=["first"],
                when_expr="{{first.result}} == go",
                result_options=("go", "stop"),
            )
        )
        wf.add_step(
            ExecutableStep(
                name="third", duration_s=1, dependencies=["second"],
                when_expr="{{second.result}} == go",
            )
        )
        operator = default_environment()
        record = operator.submit(wf)
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert record.steps["second"].status == StepStatus.SKIPPED
        assert record.steps["third"].status == StepStatus.SKIPPED


class TestDslToRuntimeConditions:
    def test_coin_flip_end_to_end_via_manifest(self):
        """Paper Code 3 through the full path: DSL -> Argo -> engine."""
        couler.reset_context("coin-e2e")
        result = couler.run_script(
            image="python:alpine3.6",
            source="print('heads' or 'tails')",
            step_name="flip-coin",
            sim=SimHint(duration_s=5, result_options=("heads", "tails")),
        )
        couler.when(
            couler.equal(result, "heads"),
            lambda: couler.run_container(image="alpine:3.6", step_name="heads"),
        )
        couler.when(
            couler.equal(result, "tails"),
            lambda: couler.run_container(image="alpine:3.6", step_name="tails"),
        )
        record = couler.run(submitter=ArgoSubmitter())
        assert record.phase == WorkflowPhase.SUCCEEDED
        outcomes = {record.steps["heads"].status, record.steps["tails"].status}
        assert outcomes == {StepStatus.SUCCEEDED, StepStatus.SKIPPED}

    def test_exec_while_stops_when_condition_unmet(self):
        """Paper Code 5: iterations beyond the first 'heads' are Skipped."""
        couler.reset_context("loop-e2e")

        def flip():
            return couler.run_script(
                image="alpine3.6",
                source="print('x')",
                step_name="flip-coin",
                sim=SimHint(duration_s=2, result_options=("heads", "tails")),
            )

        couler.exec_while(couler.equal("tails"), flip, max_iterations=6)
        record = couler.run(submitter=ArgoSubmitter())
        assert record.phase == WorkflowPhase.SUCCEEDED
        statuses = [record.steps[name].status for name in sorted(record.steps)]
        ran = [s for s in statuses if s == StepStatus.SUCCEEDED]
        skipped = [s for s in statuses if s == StepStatus.SKIPPED]
        assert len(ran) >= 1
        assert len(ran) + len(skipped) == 6
        # Once an iteration is skipped, all later ones are too.
        first_skip = statuses.index(StepStatus.SKIPPED) if skipped else len(statuses)
        assert all(s == StepStatus.SKIPPED for s in statuses[first_skip:])
