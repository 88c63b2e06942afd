"""Unit tests for the workflow IR graph."""

import pytest

from repro.ir.graph import WorkflowIR
from repro.ir.nodes import ArtifactDecl, IRError, IRNode, OpKind, SimHint


def _node(name: str, duration: float = 10.0, outputs=()) -> IRNode:
    return IRNode(
        name=name,
        op=OpKind.CONTAINER,
        image="img:v1",
        outputs=list(outputs),
        sim=SimHint(duration_s=duration),
    )


def _diamond() -> WorkflowIR:
    ir = WorkflowIR(name="d")
    for name in "abcd":
        ir.add_node(_node(name))
    ir.add_edge("a", "b")
    ir.add_edge("a", "c")
    ir.add_edge("b", "d")
    ir.add_edge("c", "d")
    return ir


class TestStructure:
    def test_duplicate_node_rejected(self):
        ir = WorkflowIR(name="w")
        ir.add_node(_node("a"))
        with pytest.raises(IRError):
            ir.add_node(_node("a"))

    def test_edge_validation(self):
        ir = WorkflowIR(name="w")
        ir.add_node(_node("a"))
        with pytest.raises(IRError):
            ir.add_edge("a", "ghost")
        with pytest.raises(IRError):
            ir.add_edge("a", "a")

    def test_parents_children_roots_leaves(self):
        ir = _diamond()
        assert ir.parents("d") == ["b", "c"]
        assert ir.children("a") == ["b", "c"]
        assert ir.roots() == ["a"]
        assert ir.leaves() == ["d"]
        assert ir.parents_map() == {n: ir.parents(n) for n in "abcd"}
        assert ir.children_map() == {n: ir.children(n) for n in "abcd"}

    def test_topological_order(self):
        order = _diamond().topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_topological_order_takes_smallest_ready_name(self):
        ir = WorkflowIR(name="w")
        for name in ("z", "a", "m", "b"):
            ir.add_node(_node(name))
        ir.add_edge("z", "a")
        ir.add_edge("m", "b")
        assert ir.topological_order() == ["m", "b", "z", "a"]

    def test_cycle_detected(self):
        ir = WorkflowIR(name="w")
        ir.add_node(_node("a"))
        ir.add_node(_node("b"))
        ir.add_edge("a", "b")
        ir.add_edge("b", "a")
        with pytest.raises(IRError):
            ir.topological_order()

    def test_invalid_workflow_name(self):
        with pytest.raises(IRError):
            WorkflowIR(name="bad name!")


class TestArtifacts:
    def test_finalize_assigns_uids(self):
        ir = WorkflowIR(name="w")
        ir.add_node(_node("a", outputs=[ArtifactDecl(name="out")]))
        ir.finalize_artifacts()
        assert ir.nodes["a"].outputs[0].uid == "w/a/out"

    def test_finalize_preserves_existing_uids(self):
        ir = WorkflowIR(name="w")
        ir.add_node(_node("a", outputs=[ArtifactDecl(name="out", uid="custom/uid")]))
        ir.finalize_artifacts()
        assert ir.nodes["a"].outputs[0].uid == "custom/uid"

    def test_duplicate_output_uid_rejected(self):
        ir = WorkflowIR(name="w")
        shared = ArtifactDecl(name="out", uid="same")
        ir.add_node(_node("a", outputs=[shared]))
        ir.add_node(_node("b", outputs=[shared]))
        with pytest.raises(IRError):
            ir.validate()


class TestSubgraph:
    def test_induced_subgraph(self):
        sub = _diamond().subgraph(["a", "b", "d"], name="sub")
        assert set(sub.nodes) == {"a", "b", "d"}
        assert sub.edges == {("a", "b"), ("b", "d")}

    def test_unknown_node_rejected(self):
        with pytest.raises(IRError):
            _diamond().subgraph(["a", "zz"])


class TestMetrics:
    def test_critical_path(self):
        ir = _diamond()
        # a -> (b|c) -> d, each 10s: critical path 30s.
        assert ir.critical_path_seconds() == pytest.approx(30.0)

    def test_max_parallel_width(self):
        assert _diamond().max_parallel_width() == 2

    def test_stats_keys(self):
        stats = _diamond().stats()
        assert stats["nodes"] == 4
        assert stats["edges"] == 4
        assert stats["max_width"] == 2


class TestLowering:
    def test_to_executable_preserves_structure(self):
        ir = _diamond()
        wf = ir.to_executable()
        assert set(wf.steps) == set(ir.nodes)
        assert wf.steps["d"].dependencies == ["b", "c"]

    def test_to_executable_maps_sim_hints(self):
        ir = WorkflowIR(name="w")
        ir.add_node(
            IRNode(
                name="a",
                op=OpKind.CONTAINER,
                image="i",
                sim=SimHint(duration_s=77, failure_rate=0.5, uses_gpu=True),
            )
        )
        step = ir.to_executable().steps["a"]
        assert step.duration_s == 77
        assert step.failure.rate == 0.5
        assert step.uses_gpu
