"""Tests for the workflow-building context itself."""

from repro import couler
from repro.core.context import WorkflowContext, get_context, reset_context, workflow


class TestContextLifecycle:
    def test_get_context_creates_on_first_use(self):
        reset_context()
        ctx = get_context()
        assert isinstance(ctx, WorkflowContext)
        assert get_context() is ctx  # same instance until reset

    def test_reset_installs_fresh_context(self):
        first = get_context()
        second = reset_context("named")
        assert second is not first
        assert second.ir.name == "named"
        assert get_context() is second

    def test_workflow_context_manager_scopes_name(self):
        with workflow("scoped-flow") as ctx:
            couler.run_container(image="x", step_name="inside")
            assert ctx.ir.name == "scoped-flow"
        # Definition survives the block so couler.run() can consume it.
        ir = couler.workflow_ir(optimize=False)
        assert ir.name == "scoped-flow"
        assert "inside" in ir.nodes


class TestUniqueNames:
    def test_first_use_keeps_base(self):
        ctx = reset_context()
        assert ctx.unique_name("step") == "step"

    def test_collisions_get_suffixes(self):
        couler.reset_context()
        names = [
            couler.run_container(image="x", step_name="train").step_name
            for _ in range(3)
        ]
        assert names[0] == "train"
        assert len(set(names)) == 3
        assert all(n.startswith("train") for n in names)

    def test_sanitization_of_image_derived_names(self):
        couler.reset_context()
        out = couler.run_container(image="docker.io/org/whalesay:latest")
        assert out.step_name == "whalesay"


class TestThreadIsolation:
    def test_contexts_are_per_thread(self):
        import threading

        reset_context("main-thread")
        seen = {}

        def worker():
            ctx = reset_context("worker-thread")
            seen["worker"] = ctx.ir.name

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["worker"] == "worker-thread"
        assert get_context().ir.name == "main-thread"
