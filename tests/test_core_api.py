"""Tests of the unified programming interface against the paper's listings."""

import pytest

from repro import couler
from repro.ir.nodes import OpKind


def _job(name):
    return couler.run_container(
        image="docker/whalesay:latest", command=["cowsay"], args=[name], step_name=name
    )


class TestImplicitChaining:
    def test_sequential_steps_chain(self):
        couler.reset_context("seq")
        couler.run_container(image="a:v1", step_name="first")
        couler.run_container(image="b:v1", step_name="second")
        ir = couler.workflow_ir(optimize=False)
        assert ("first", "second") in ir.edges

    def test_producer_consumer_dependency(self):
        """Paper Code 2: artifact passing creates the edge."""
        couler.reset_context("prodcons")
        out = couler.create_parameter_artifact(path="/opt/hello.txt", is_global=True)
        producer = couler.run_container(
            image="whalesay", command=["bash", "-c"],
            args=["echo hi > %s" % out.path], output=out, step_name="step1",
        )
        couler.run_container(
            image="whalesay", command=["cowsay"], step_name="step2", input=producer
        )
        ir = couler.workflow_ir(optimize=False)
        assert ir.edges == {("step1", "step2")}

    def test_step_output_in_args_creates_dependency(self):
        couler.reset_context("argdep")
        model = couler.run_container(
            image="train", step_name="train",
            output=couler.create_parameter_artifact(path="/m"),
        )
        couler.run_container(image="eval", step_name="eval", args=[model])
        ir = couler.workflow_ir(optimize=False)
        assert ("train", "eval") in ir.edges
        assert "{{train.result}}" in ir.nodes["eval"].args[0]

    def test_duplicate_names_uniquified(self):
        couler.reset_context("dups")
        a = couler.run_container(image="x", step_name="step")
        b = couler.run_container(image="x", step_name="step")
        assert a.step_name == "step"
        assert b.step_name != "step"


class TestExplicitDag:
    def test_diamond_matches_paper_code_1(self):
        couler.reset_context("diamond")
        couler.dag(
            [
                [lambda: _job("A")],
                [lambda: _job("A"), lambda: _job("B")],
                [lambda: _job("A"), lambda: _job("C")],
                [lambda: _job("B"), lambda: _job("D")],
                [lambda: _job("C"), lambda: _job("D")],
            ]
        )
        ir = couler.workflow_ir(optimize=False)
        assert set(ir.nodes) == {"A", "B", "C", "D"}
        assert ir.edges == {("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")}

    def test_set_dependencies(self):
        couler.reset_context("explicit")

        def build():
            couler.run_container(image="x", step_name="p")
            couler.run_container(image="x", step_name="q")

        couler.set_dependencies(build, [["p", "q"]])
        ir = couler.workflow_ir(optimize=False)
        assert ir.edges == {("p", "q")}

    def test_set_dependencies_rejects_triples(self):
        couler.reset_context("bad")
        with pytest.raises(ValueError):
            couler.set_dependencies(lambda: None, [["a", "b", "c"]])


class TestControlFlow:
    def test_flip_coin_matches_paper_code_3(self):
        couler.reset_context("coin")

        def random_code():
            import random

            print("heads" if random.randint(0, 1) == 0 else "tails")

        result = couler.run_script(
            image="python:alpine3.6", source=random_code, step_name="flip-coin"
        )
        couler.when(
            couler.equal(result, "heads"),
            lambda: couler.run_container(image="alpine:3.6", step_name="heads"),
        )
        couler.when(
            couler.equal(result, "tails"),
            lambda: couler.run_container(image="alpine:3.6", step_name="tails"),
        )
        ir = couler.workflow_ir(optimize=False)
        assert ir.edges == {("flip-coin", "heads"), ("flip-coin", "tails")}
        assert ir.nodes["heads"].when == "{{flip-coin.result}} == heads"
        assert ir.nodes["tails"].when == "{{flip-coin.result}} == tails"
        assert ir.nodes["flip-coin"].op == OpKind.SCRIPT
        assert "random" in ir.nodes["flip-coin"].source

    def test_step_after_branches_depends_on_both(self):
        couler.reset_context("joined")
        result = couler.run_script(image="py", source="print(1)", step_name="flip")
        couler.when(
            couler.equal(result, "heads"),
            lambda: couler.run_container(image="a", step_name="heads"),
        )
        couler.when(
            couler.equal(result, "tails"),
            lambda: couler.run_container(image="a", step_name="tails"),
        )
        couler.run_container(image="a", step_name="join")
        ir = couler.workflow_ir(optimize=False)
        assert ("heads", "join") in ir.edges
        assert ("tails", "join") in ir.edges

    def test_exec_while_unrolls_with_conditions(self):
        """Paper Code 5: recursion bounded by max_iterations."""
        couler.reset_context("loop")

        def flip():
            return couler.run_script(image="alpine3.6", source="print('x')",
                                     step_name="flip-coin")

        couler.exec_while(couler.equal("tails"), flip, max_iterations=3)
        ir = couler.workflow_ir(optimize=False)
        assert len(ir.nodes) == 3
        conditional = [n for n in ir.nodes.values() if n.when]
        assert len(conditional) == 2
        assert all("== tails" in n.when for n in conditional)

    def test_exec_while_requires_step_output(self):
        couler.reset_context("badloop")
        with pytest.raises(TypeError):
            couler.exec_while(couler.equal("x"), lambda: None)

    def test_exec_while_validates_iterations(self):
        with pytest.raises(ValueError):
            couler.exec_while(couler.equal("x"), lambda: None, max_iterations=0)


class TestMapAndConcurrent:
    def test_map_fans_out_in_parallel(self):
        """Paper Code 6: model search over batch sizes."""
        couler.reset_context("fanout")
        couler.run_container(image="prep", step_name="prep")
        outs = couler.map(
            lambda bs: couler.run_container(image="train", step_name=f"train-{bs}"),
            [100, 200, 300],
        )
        couler.run_container(image="report", step_name="report")
        ir = couler.workflow_ir(optimize=False)
        for bs in (100, 200, 300):
            assert ("prep", f"train-{bs}") in ir.edges
            assert (f"train-{bs}", "report") in ir.edges
        # No edges between the mapped instances.
        assert not any(
            (f"train-{a}", f"train-{b}") in ir.edges
            for a in (100, 200, 300)
            for b in (100, 200, 300)
        )
        assert len(outs) == 3

    def test_concurrent_matches_paper_code_7(self):
        couler.reset_context("automl")
        couler.concurrent(
            [
                lambda: couler.run_container(image="xgb", step_name="train-xgboost"),
                lambda: couler.run_container(image="lgbm", step_name="train-lgbm"),
            ]
        )
        ir = couler.workflow_ir(optimize=False)
        assert set(ir.nodes) == {"train-xgboost", "train-lgbm"}
        assert not ir.edges


class TestRunJob:
    def test_distributed_job_resources_aggregate(self):
        couler.reset_context("jobs")
        from repro.k8s.resources import ResourceQuantity

        out = couler.run_job(
            image="tf:v1",
            command="python train.py",
            num_ps=1,
            num_workers=3,
            resources=ResourceQuantity(cpu=2.0, gpu=1),
            step_name="dist",
        )
        node = couler.workflow_ir(optimize=False).nodes[out.step_name]
        assert node.op == OpKind.JOB
        assert node.resources.cpu == 8.0  # (1 ps + 3 workers) x 2 cpu
        assert node.resources.gpu == 3  # workers only
        assert node.job_params == {"kind": "TFJob", "num_ps": 1, "num_workers": 3}

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            couler.run_job(image="x", command="c", num_workers=0)


class TestRunSubmitsAndResets:
    def test_run_returns_succeeded_record_and_resets(self):
        couler.reset_context("runnable")
        couler.run_container(image="a", step_name="only")
        record = couler.run()
        from repro.engine.status import WorkflowPhase

        assert record.phase == WorkflowPhase.SUCCEEDED
        # Context reset: the next IR is empty.
        assert len(couler.workflow_ir(optimize=False).nodes) == 0


class TestExplicitDagValidation:
    def test_set_dependencies_names_unknown_step(self):
        from repro.engine.spec import SpecError

        couler.reset_context("edges")

        def define():
            _job("a")
            _job("b")

        with pytest.raises(SpecError, match="undefined step 'ghost'"):
            couler.set_dependencies(define, [["a", "ghost"]])
        couler.reset_context()

    def test_set_dependencies_valid_edges_still_wire(self):
        couler.reset_context("edges-ok")

        def define():
            _job("a")
            _job("b")

        couler.set_dependencies(define, [["a", "b"]])
        ir = couler.workflow_ir(optimize=False)
        assert ("a", "b") in ir.edges
        couler.reset_context()

    def test_dag_thunk_without_step_raises(self):
        from repro.engine.spec import SpecError

        couler.reset_context("dag-bad")
        with pytest.raises(SpecError, match="defined no step"):
            couler.dag([[lambda: _job("a"), lambda: None]])
        couler.reset_context()


class TestKeywordOnlyContract:
    """Optional run_* parameters are keyword-only in the v1 API."""

    def test_run_container_rejects_positional_options(self):
        couler.reset_context("kwonly")
        with pytest.raises(TypeError):
            couler.run_container("img:v1", ["cmd"])
        couler.reset_context()

    def test_run_script_rejects_positional_options(self):
        couler.reset_context("kwonly2")
        with pytest.raises(TypeError):
            couler.run_script("img:v1", "print(1)", "stepname")
        couler.reset_context()

    def test_run_job_rejects_positional_options(self):
        couler.reset_context("kwonly3")
        with pytest.raises(TypeError):
            couler.run_job("img:v1", ["cmd"], "TFJob")
        couler.reset_context()


class TestSubmitterValidation:
    def test_run_rejects_non_submitter(self):
        couler.reset_context("badsub")
        couler.run_container(image="a", step_name="only")
        with pytest.raises(TypeError, match="Submitter"):
            couler.run(submitter=object())
        couler.reset_context()


class TestFacade:
    def test_couler_facade_exports_everything_it_promises(self):
        from repro import couler as facade

        missing = [name for name in facade.__all__ if not hasattr(facade, name)]
        assert missing == []

    def test_facade_and_core_share_the_dsl(self):
        from repro import couler as facade

        assert facade.run_container is couler.run_container
        assert facade.run is couler.run
        assert facade.dag is couler.dag

    def test_facade_exports_caching_surface(self):
        from repro import caching
        from repro import couler as facade

        for name in (
            "CacheDecision",
            "CacheManager",
            "CachePolicy",
            "ScoreWeights",
            "make_policy",
        ):
            assert name in facade.__all__
            assert getattr(facade, name) is getattr(caching, name)

    def test_cache_manager_is_keyword_only(self):
        from repro import couler as facade

        with pytest.raises(TypeError):
            facade.CacheManager("couler")
