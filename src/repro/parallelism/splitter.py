"""Big-workflow auto-parallelism: Algorithm 3.

Workflows with hundreds of nodes overflow the Kubernetes CRD size limit
(the API server rejects YAML past ~2 MB), so the optimizer splits the
DAG into multiple sub-workflows, each within budget, scheduled so that
cross-sub-workflow dependencies are honoured.

The algorithm walks the DAG depth-first and greedily packs vertices
into the current candidate sub-workflow until adding one more would
exceed the budget, then flushes the candidate and starts a new one —
exactly the paper's SplitWorkflow.  Packing happens along a *DFS-derived
topological order* (reverse postorder): any edge u -> v places u at or
before v's chunk, so the resulting sub-workflow dependency graph is
always acyclic and the runtime stays O(|V| + |E|).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..ir.graph import WorkflowIR
from .budget import BudgetCost, BudgetModel


class SplitError(RuntimeError):
    """Raised when a workflow cannot be split within the budget."""


@dataclass
class SplitPlan:
    """The output of the splitter: sub-workflows plus their wiring."""

    original_name: str
    parts: List[WorkflowIR] = field(default_factory=list)
    #: Which part each original node landed in.
    assignment: Dict[str, int] = field(default_factory=dict)
    #: Cross-part dependency edges as (from_part, to_part) indices.
    cross_edges: Set[Tuple[int, int]] = field(default_factory=set)
    #: Original edges that now cross parts, as (parent, child) names.
    cut_edges: Set[Tuple[str, str]] = field(default_factory=set)
    costs: List[BudgetCost] = field(default_factory=list)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def part_dependencies(self, index: int) -> List[int]:
        return sorted({src for src, dst in self.cross_edges if dst == index})

    def topological_part_order(self) -> List[int]:
        """Kahn's algorithm over the part graph, always taking the
        smallest ready part index; O((parts + cross edges) log parts)."""
        successors: Dict[int, List[int]] = {i: [] for i in range(self.num_parts)}
        indegree = {i: 0 for i in range(self.num_parts)}
        for src, dst in self.cross_edges:
            successors[src].append(dst)
            indegree[dst] += 1
        ready = [i for i, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            part = heapq.heappop(ready)
            order.append(part)
            for dst in successors[part]:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    heapq.heappush(ready, dst)
        if len(order) != self.num_parts:
            raise SplitError("cyclic dependencies between split parts")
        return order


def _dfs_topological_order(ir: WorkflowIR) -> List[str]:
    """Reverse DFS postorder = a topological order, visiting roots in
    name order for determinism (iterative to handle deep graphs)."""
    children = ir.children_map()
    visited: Set[str] = set()
    postorder: List[str] = []
    for root in ir.roots() or sorted(ir.nodes):
        if root in visited:
            continue
        stack: List[Tuple[str, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                postorder.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for child in reversed(children[node]):
                if child not in visited:
                    stack.append((child, False))
    # Isolated nodes unreachable from roots (cannot happen in a DAG with
    # roots() = indegree-0 set, but keep the invariant explicit).
    for node in sorted(ir.nodes):
        if node not in visited:
            postorder.append(node)
    return list(reversed(postorder))


def _part_name(name: str, index: int) -> str:
    return f"{name}-part-{index}"


class WorkflowSplitter:
    """Algorithm 3 driver."""

    def __init__(self, budget: BudgetModel | None = None) -> None:
        self.budget = budget or BudgetModel()

    def split(self, ir: WorkflowIR) -> SplitPlan:
        """Split ``ir`` into budget-compliant sub-workflows.

        A workflow already within budget returns a single-part plan
        (the algorithm's early return at line 10–12).  Otherwise one
        greedy pass over a DFS topological order packs vertices while
        the exact running cost stays within budget, in O(|V| + |E|).
        """
        ir.finalize_artifacts()
        ir.validate()
        plan = SplitPlan(original_name=ir.name)
        sizes = self.budget.manifest_sizes(ir)
        if self.budget.within(sizes.whole):
            plan.parts = [ir]
            plan.assignment = {name: 0 for name in ir.nodes}
            plan.costs = [sizes.whole]
            return plan

        parents = ir.parents_map()
        order = _dfs_topological_order(ir)
        chunks: List[List[str]] = []
        packed: List[BudgetCost] = []
        candidate: List[str] = []
        cost = sizes.header(_part_name(ir.name, 0))
        for vertex in order:
            internal = [p for p in parents[vertex] if plan.assignment[p] == len(chunks)]
            trial = sizes.add(cost, vertex, internal)
            if candidate and not self.budget.within(trial):
                chunks.append(candidate)
                packed.append(cost)
                candidate = []
                trial = sizes.add(sizes.header(_part_name(ir.name, len(chunks))), vertex, ())
            if not candidate and not self.budget.within(trial):
                raise SplitError(f"node {vertex!r} exceeds the budget even alone: {trial}")
            candidate.append(vertex)
            plan.assignment[vertex] = len(chunks)
            cost = trial
        if candidate:
            chunks.append(candidate)
            packed.append(cost)

        for index, chunk in enumerate(chunks):
            part = WorkflowIR(name=_part_name(ir.name, index), config=dict(ir.config))
            for name in sorted(chunk):
                part.nodes[name] = ir.nodes[name]
            plan.parts.append(part)
        for parent, child in ir.edges:
            src, dst = plan.assignment[parent], plan.assignment[child]
            if src == dst:
                plan.parts[src].edges.add((parent, child))
            else:
                plan.cross_edges.add((src, dst))
                plan.cut_edges.add((parent, child))

        # Production guard: one real dump per final part.
        plan.costs = [self.budget.exact_cost(part) for part in plan.parts]
        for index, (exact, additive) in enumerate(zip(plan.costs, packed)):
            if exact != additive:
                raise SplitError(
                    f"part {index}: additive size {additive} != exact dump {exact}"
                )
        plan.topological_part_order()  # raises on cyclic part graph
        self._check_partition(ir, plan)
        return plan

    @staticmethod
    def _check_partition(ir: WorkflowIR, plan: SplitPlan) -> None:
        part_nodes = [set(p.nodes) for p in plan.parts]
        union: Set[str] = set()
        for nodes in part_nodes:
            overlap = union & nodes
            if overlap:
                raise SplitError(f"nodes assigned to multiple parts: {sorted(overlap)}")
            union |= nodes
        if union != set(ir.nodes):
            missing = set(ir.nodes) - union
            raise SplitError(f"nodes missing from the split: {sorted(missing)}")
        kept = set()
        for part in plan.parts:
            kept |= part.edges
        if kept | plan.cut_edges != ir.edges:
            raise SplitError("split dropped dependency edges")
