"""Unit + integration tests for Algorithm 3 (budget, splitter, stitching)."""

import random

import pytest

from repro.backends.argo import ArgoBackend
from repro.core.submitter import default_environment
from repro.ir.graph import WorkflowIR
from repro.ir.nodes import IRNode, OpKind, SimHint
from repro.k8s.apiserver import APIServer, CRDTooLargeError
from repro.k8s.objects import APIObject
from repro.parallelism import (
    BudgetModel,
    SplitError,
    StagedSubmitter,
    WorkflowSplitter,
)
from repro.parallelism.splitter import _dfs_topological_order


def _layered_ir(layers: int = 8, width: int = 12, seed: int = 3) -> WorkflowIR:
    rng = random.Random(seed)
    ir = WorkflowIR(name="layered")
    previous = []
    for layer in range(layers):
        current = []
        for index in range(width):
            name = f"l{layer}n{index}"
            ir.add_node(
                IRNode(name=name, op=OpKind.CONTAINER, image="w:v1",
                       sim=SimHint(duration_s=10))
            )
            for parent in rng.sample(previous, min(2, len(previous))):
                ir.add_edge(parent, name)
            current.append(name)
        previous = current
    return ir


class TestBudgetModel:
    def test_exact_cost_counts_steps_and_pods(self):
        ir = _layered_ir(layers=2, width=3)
        cost = BudgetModel().exact_cost(ir)
        assert cost.steps == 6
        assert cost.pods == 6
        assert cost.yaml_bytes > 0

    def test_job_nodes_count_all_pods(self):
        ir = WorkflowIR(name="j")
        ir.add_node(
            IRNode(
                name="dist",
                op=OpKind.JOB,
                image="tf",
                command=["python"],
                job_params={"num_ps": 2, "num_workers": 5},
            )
        )
        assert BudgetModel().exact_cost(ir).pods == 7

    def test_needs_split_thresholds(self):
        ir = _layered_ir(layers=2, width=3)
        assert not BudgetModel().needs_split(ir)
        assert BudgetModel(max_steps=3).needs_split(ir)
        assert BudgetModel(max_yaml_bytes=100).needs_split(ir)


class TestSplitter:
    def test_within_budget_returns_single_part(self):
        ir = _layered_ir(layers=2, width=3)
        plan = WorkflowSplitter(BudgetModel()).split(ir)
        assert plan.num_parts == 1
        assert plan.parts[0] is ir

    def test_partition_is_exact_and_edges_preserved(self):
        ir = _layered_ir()
        budget = BudgetModel(max_yaml_bytes=20_000, max_steps=25)
        plan = WorkflowSplitter(budget).split(ir)
        assert plan.num_parts > 1
        all_nodes = set()
        kept_edges = set()
        for part in plan.parts:
            all_nodes |= set(part.nodes)
            kept_edges |= part.edges
        assert all_nodes == set(ir.nodes)
        assert kept_edges | plan.cut_edges == ir.edges

    def test_every_part_within_budget(self):
        ir = _layered_ir()
        budget = BudgetModel(max_yaml_bytes=20_000, max_steps=25)
        plan = WorkflowSplitter(budget).split(ir)
        for cost in plan.costs:
            assert budget.within(cost)

    def test_part_graph_is_acyclic(self):
        ir = _layered_ir(layers=10, width=10, seed=11)
        budget = BudgetModel(max_yaml_bytes=15_000, max_steps=15)
        plan = WorkflowSplitter(budget).split(ir)
        order = plan.topological_part_order()
        assert sorted(order) == list(range(plan.num_parts))

    def test_cross_edges_respect_part_order(self):
        ir = _layered_ir()
        plan = WorkflowSplitter(BudgetModel(max_steps=20)).split(ir)
        for src, dst in plan.cross_edges:
            assert src < dst  # chunks cut along a topological order

    def test_greedy_parts_are_maximal_under_binding_byte_budget(self):
        # Bytes bind, steps do not: every part fits, and every part but
        # the last would overflow (by an exact dump) if the next vertex
        # of the DFS order were added to it.
        ir = _layered_ir()
        budget = BudgetModel(max_yaml_bytes=20_000)
        plan = WorkflowSplitter(budget).split(ir)
        assert plan.num_parts > 1
        order = _dfs_topological_order(ir)
        for index, part in enumerate(plan.parts):
            assert plan.costs[index] == budget.exact_cost(part)
            assert budget.within(plan.costs[index])
            assert plan.costs[index].steps < budget.max_steps
            if index == plan.num_parts - 1:
                continue
            following = next(n for n in order if plan.assignment[n] == index + 1)
            grown = ir.subgraph(list(part.nodes) + [following], name=part.name)
            assert budget.exact_cost(grown).yaml_bytes > budget.max_yaml_bytes

    def test_split_compiles_whole_once_and_each_part_once(self, monkeypatch):
        compiled = []
        compile_ir = ArgoBackend.compile

        def counting_compile(backend, ir):
            compiled.append(ir.name)
            return compile_ir(backend, ir)

        def no_subgraph(*args, **kwargs):
            raise AssertionError("split must not build per-node subgraphs")

        monkeypatch.setattr(ArgoBackend, "compile", counting_compile)
        monkeypatch.setattr(WorkflowIR, "subgraph", no_subgraph)
        ir = _layered_ir()
        plan = WorkflowSplitter(BudgetModel(max_yaml_bytes=20_000)).split(ir)
        assert plan.num_parts > 1
        assert compiled == [ir.name] + [part.name for part in plan.parts]

    def test_node_exactly_at_the_byte_limit_splits(self):
        ir = WorkflowIR(name="fat")
        ir.add_node(
            IRNode(name="huge", op=OpKind.CONTAINER, image="x",
                   args=["y" * 5000], sim=SimHint(duration_s=1))
        )
        ir.add_node(IRNode(name="tiny", op=OpKind.CONTAINER, image="x"))
        ir.add_edge("huge", "tiny")
        alone = BudgetModel().exact_cost(ir.subgraph(["huge"], name="fat-part-0"))
        plan = WorkflowSplitter(BudgetModel(max_yaml_bytes=alone.yaml_bytes)).split(ir)
        assert plan.num_parts == 2
        assert plan.costs[0] == alone
        with pytest.raises(SplitError, match="huge"):
            WorkflowSplitter(BudgetModel(max_yaml_bytes=alone.yaml_bytes - 1)).split(ir)

    def test_cut_edge_accounting_is_exact(self):
        ir = _layered_ir()
        budget = BudgetModel(max_yaml_bytes=20_000, max_steps=25)
        plan = WorkflowSplitter(budget).split(ir)
        kept = set()
        for part in plan.parts:
            kept |= part.edges
        # Partition of the edge set: kept and cut are disjoint and
        # together reconstruct the original DAG exactly.
        assert kept & plan.cut_edges == set()
        assert kept | plan.cut_edges == ir.edges
        for parent, child in plan.cut_edges:
            assert plan.assignment[parent] != plan.assignment[child]
        # cross_edges is exactly the part-level image of cut_edges.
        assert plan.cross_edges == {
            (plan.assignment[parent], plan.assignment[child])
            for parent, child in plan.cut_edges
        }
        for parent, child in kept:
            assert plan.assignment[parent] == plan.assignment[child]

    def test_single_oversized_node_rejected(self):
        ir = WorkflowIR(name="fat")
        ir.add_node(
            IRNode(name="huge", op=OpKind.CONTAINER, image="x",
                   args=["y" * 5000], sim=SimHint(duration_s=1))
        )
        ir.add_node(IRNode(name="tiny", op=OpKind.CONTAINER, image="x"))
        ir.add_edge("huge", "tiny")
        with pytest.raises(SplitError):
            WorkflowSplitter(BudgetModel(max_yaml_bytes=2_000)).split(ir)


class TestStagedExecution:
    def test_staged_equals_monolithic_results(self):
        ir = _layered_ir()
        plan = WorkflowSplitter(BudgetModel(max_steps=25)).split(ir)
        operator = default_environment(num_nodes=16, cpu_per_node=32)
        result = StagedSubmitter(operator).execute(plan)
        assert result.succeeded
        executed = set()
        for record in result.records:
            executed |= set(record.steps)
        assert executed == set(ir.nodes)

    def test_unsplit_crd_rejected_but_parts_accepted(self):
        ir = _layered_ir(layers=10, width=14)
        manifest = ArgoBackend().compile(ir)
        api = APIServer(crd_size_limit=30_000)
        with pytest.raises(CRDTooLargeError):
            api.create(APIObject.from_dict(manifest))
        plan = WorkflowSplitter(
            BudgetModel(max_yaml_bytes=30_000, max_steps=60)
        ).split(ir)
        for part in plan.parts:
            api.create(APIObject.from_dict(ArgoBackend().compile(part)))

    def test_failed_part_aborts_dependents(self):
        from repro.engine.retry import FailureInjector
        from repro.engine.operator import WorkflowOperator
        from repro.engine.simclock import SimClock
        from repro.k8s.cluster import Cluster

        ir = WorkflowIR(name="chain")
        ir.add_node(
            IRNode(name="a", op=OpKind.CONTAINER, image="x",
                   sim=SimHint(duration_s=10, failure_rate=1.0))
        )
        ir.add_node(IRNode(name="b", op=OpKind.CONTAINER, image="x"))
        ir.add_edge("a", "b")
        plan = WorkflowSplitter(BudgetModel(max_steps=1)).split(ir)
        assert plan.num_parts == 2
        clock = SimClock()
        cluster = Cluster.uniform("c", 2, cpu_per_node=8, memory_per_node=2**35)
        operator = WorkflowOperator(
            clock, cluster,
            failure_injector=FailureInjector(seed=0, retryable_fraction=0.0),
        )
        result = StagedSubmitter(operator, use_manifests=False).execute(plan)
        assert not result.succeeded
        assert result.records[1] is None or 1 in result.aborted_parts


class TestPartDependencies:
    """``part_dependencies`` against a brute-force scan of the cross
    edges, on split plans of fuzzer and corpus IRs."""

    @staticmethod
    def _plans():
        from repro.verify.generator import generate_ir
        from repro.verify.oracles import corpus_ir

        irs = [generate_ir(seed) for seed in range(12)]
        irs += [corpus_ir(index) for index in range(12)]
        splitter = WorkflowSplitter(BudgetModel(max_steps=2))
        return [splitter.split(ir) for ir in irs]

    def test_matches_brute_force_scan(self):
        wired = 0
        for plan in self._plans():
            for index in range(plan.num_parts):
                expected = sorted(
                    {src for src, dst in plan.cross_edges if dst == index}
                )
                assert plan.part_dependencies(index) == expected
                wired += bool(expected)
        assert wired, "no split plan had a cross-part dependency"

    def test_order_runs_every_dependency_first(self):
        for plan in self._plans():
            position = {
                part: rank for rank, part in enumerate(plan.topological_part_order())
            }
            for index in range(plan.num_parts):
                for dep in plan.part_dependencies(index):
                    assert position[dep] < position[index]

    def test_a_grown_edge_set_is_noticed(self):
        plan = WorkflowSplitter(BudgetModel(max_steps=25)).split(_layered_ir())
        last = plan.num_parts - 1
        before = plan.part_dependencies(last)
        plan.cross_edges.add((last - 1, last))
        assert plan.part_dependencies(last) == sorted(set(before) | {last - 1})
