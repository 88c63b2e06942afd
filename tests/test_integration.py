"""End-to-end integration tests across packages.

These pin the full production paths: DSL -> IR -> Argo manifest ->
simulated operator; NL -> generated code -> executed workflow; split ->
staged execution equivalence; caching wired through a real run.
"""


from repro import couler
from repro.caching.manager import CacheManager
from repro.core.submitter import ArgoSubmitter, default_environment
from repro.engine.operator import WorkflowOperator
from repro.engine.simclock import SimClock
from repro.engine.status import WorkflowPhase
from repro.k8s.cluster import Cluster
from repro.llm.simulated import GPT4_PROFILE, SimulatedLLM
from repro.nl2wf.corpus import build_corpus
from repro.nl2wf.pipeline import NLToWorkflow
from repro.parallelism import BudgetModel, StagedSubmitter, WorkflowSplitter
from repro.workloads.scenarios import SCENARIOS

GB = 2**30


class TestDslToEngine:
    def test_ml_pipeline_via_argo_manifest(self):
        couler.reset_context("e2e-ml")
        from repro.core.step_zoo import tensorflow as tf

        models = couler.map(
            lambda bs: tf.train(
                command="python /train_model.py",
                image="wide-deep-model:v1.0",
                input_batch_size=bs,
            ),
            [100, 200, 300],
        )
        couler.map(lambda m: tf.evaluate(m), models)
        record = couler.run(submitter=ArgoSubmitter())
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert len(record.steps) == 6

    def test_backend_path_equals_direct_path(self):
        """IR -> manifest -> operator and IR -> executable must agree on
        makespan for a deterministic workflow."""
        def define(name):
            couler.reset_context(name)
            first = couler.run_container(image="a", step_name="s1")
            couler.run_container(image="b", step_name="s2", input=first)
            return couler.workflow_ir()

        via_manifest = ArgoSubmitter().submit(define("path-a"))
        operator = default_environment()
        direct = operator.submit(define("path-b").to_executable())
        operator.run_to_completion()
        assert via_manifest.makespan == direct.makespan


class TestNlToExecution:
    def test_generated_workflow_runs_on_cluster(self):
        tasks = build_corpus()
        llm = SimulatedLLM(GPT4_PROFILE, seed=11)
        pipeline = NLToWorkflow(llm)
        easy = min(tasks, key=lambda t: llm.begin_task(t.description))
        result = pipeline.convert(easy, user_feedback_rounds=3)
        assert result.passed
        operator = default_environment(num_nodes=8, cpu_per_node=32)
        record = operator.submit(result.ir.to_executable())
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.SUCCEEDED


class TestSplitEquivalence:
    def test_split_execution_covers_all_steps_and_succeeds(self):
        ir = SCENARIOS["multimodal"].build(0)
        plan = WorkflowSplitter(BudgetModel(max_steps=10)).split(ir)
        assert plan.num_parts >= 3
        operator = default_environment(num_nodes=12, cpu_per_node=32)
        result = StagedSubmitter(operator).execute(plan)
        assert result.succeeded
        executed = set()
        for record in result.records:
            executed |= set(record.steps)
        assert executed == set(ir.nodes)


class TestCachingThroughEngine:
    def test_second_iteration_faster_with_cache(self):
        spec = SCENARIOS["image-segmentation"]

        def run(policy):
            clock = SimClock()
            cluster = Cluster.uniform("c", 6, cpu_per_node=24,
                                      memory_per_node=96 * GB, gpu_per_node=2)
            manager = CacheManager(policy=policy, capacity_bytes=30 * GB)
            operator = WorkflowOperator(clock, cluster, cache_manager=manager)
            records = []

            def chain(index):
                def done(record):
                    records.append(record)
                    if index == 0:
                        chain(1)
                operator.submit(spec.build(index).to_executable(), on_complete=done)

            chain(0)
            operator.run_to_completion()
            return records

        cached = run("couler")
        uncached = run("no")
        assert all(r.phase == WorkflowPhase.SUCCEEDED for r in cached + uncached)
        # The rerun (iteration 1) benefits from cached data artifacts.
        assert cached[1].makespan < uncached[1].makespan
