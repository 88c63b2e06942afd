"""The workflow Intermediate Representation: a DAG of IR nodes.

The IR is the paper's pivot: frontends lower to it, optimizers rewrite
it (Sec. II.C), and backends compile it to engine formats.  It is
deliberately free of engine-specific concepts — only nodes, dependency
edges, and artifact declarations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..engine.spec import ArtifactSpec, ExecutableStep, ExecutableWorkflow, FailureProfile
from .nodes import IRError, IRNode, validate_name


@dataclass
class WorkflowIR:
    """An engine-agnostic workflow DAG."""

    name: str = "workflow"
    nodes: Dict[str, IRNode] = field(default_factory=dict)
    #: Dependency edges as (parent, child) node-name pairs.
    edges: Set[Tuple[str, str]] = field(default_factory=set)
    #: Free-form engine configuration (paper: G = <J, E, C>).
    config: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_name(self.name)

    # ------------------------------------------------------------- building

    def add_node(self, node: IRNode) -> IRNode:
        if node.name in self.nodes:
            raise IRError(f"duplicate node name: {node.name}")
        self.nodes[node.name] = node
        return node

    def add_edge(self, parent: str, child: str) -> None:
        if parent not in self.nodes:
            raise IRError(f"edge references unknown node {parent!r}")
        if child not in self.nodes:
            raise IRError(f"edge references unknown node {child!r}")
        if parent == child:
            raise IRError(f"self-edge on node {parent!r}")
        self.edges.add((parent, child))

    # -------------------------------------------------------------- queries

    def parents(self, name: str) -> List[str]:
        return sorted(p for p, c in self.edges if c == name)

    def children(self, name: str) -> List[str]:
        return sorted(c for p, c in self.edges if p == name)

    def parents_map(self) -> Dict[str, List[str]]:
        """Every node's sorted parent list, built in one pass over the edges."""
        parents: Dict[str, List[str]] = {name: [] for name in self.nodes}
        for parent, child in self.edges:
            parents.setdefault(child, []).append(parent)
        for names in parents.values():
            names.sort()
        return parents

    def children_map(self) -> Dict[str, List[str]]:
        """Every node's sorted child list, built in one pass over the edges."""
        children: Dict[str, List[str]] = {name: [] for name in self.nodes}
        for parent, child in self.edges:
            children.setdefault(parent, []).append(child)
        for names in children.values():
            names.sort()
        return children

    def roots(self) -> List[str]:
        have_parents = {c for _, c in self.edges}
        return sorted(n for n in self.nodes if n not in have_parents)

    def leaves(self) -> List[str]:
        have_children = {p for p, _ in self.edges}
        return sorted(n for n in self.nodes if n not in have_children)

    def __len__(self) -> int:
        return len(self.nodes)

    def topological_order(self) -> List[str]:
        """Kahn's algorithm, always taking the smallest ready name (so the
        order is deterministic); raises :class:`IRError` on cycles."""
        children: Dict[str, List[str]] = {name: [] for name in self.nodes}
        indegree = {name: 0 for name in self.nodes}
        for parent, child in self.edges:
            children.setdefault(parent, []).append(child)
            indegree[child] += 1
        ready = [n for n, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order: List[str] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for child in children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
        if len(order) != len(self.nodes):
            raise IRError(f"workflow {self.name} contains a cycle")
        return order

    def validate(self) -> None:
        """Full structural validation: references, acyclicity, artifacts."""
        self.topological_order()
        producers: Dict[str, str] = {}
        for node in self.nodes.values():
            for artifact in node.outputs:
                uid = artifact.uid or f"{self.name}/{node.name}/{artifact.name}"
                if uid in producers:
                    raise IRError(
                        f"artifact uid {uid!r} produced by both "
                        f"{producers[uid]} and {node.name}"
                    )
                producers[uid] = node.name

    # --------------------------------------------------------- finalization

    def finalize_artifacts(self) -> None:
        """Assign uids to output artifacts that do not have one yet."""
        for node in self.nodes.values():
            node.outputs = [
                a if a.uid else a.with_uid(f"{self.name}/{node.name}/{a.name}")
                for a in node.outputs
            ]

    def subgraph(self, names: Iterable[str], name: Optional[str] = None) -> "WorkflowIR":
        """Induced subgraph over ``names`` (edges inside the set only)."""
        keep = set(names)
        unknown = keep - set(self.nodes)
        if unknown:
            raise IRError(f"subgraph references unknown nodes: {sorted(unknown)}")
        sub = WorkflowIR(name=name or f"{self.name}-sub", config=dict(self.config))
        for node_name in sorted(keep):
            sub.nodes[node_name] = self.nodes[node_name]
        sub.edges = {(p, c) for p, c in self.edges if p in keep and c in keep}
        return sub

    # ------------------------------------------------------------ lowering

    def to_executable(self) -> ExecutableWorkflow:
        """Direct lowering to the engine model (bypasses backends).

        Production lowering goes IR -> Argo manifest -> operator; this
        shortcut exists for tests and for optimizers that need to cost a
        candidate IR without a round trip.  Both paths must agree — an
        integration test pins that.
        """
        self.finalize_artifacts()
        self.validate()
        workflow = ExecutableWorkflow(name=self.name)
        parents = self.parents_map()
        for node_name in self.topological_order():
            node = self.nodes[node_name]
            workflow.add_step(
                ExecutableStep(
                    name=node.name,
                    duration_s=node.sim.duration_s,
                    requests=node.resources,
                    dependencies=parents[node.name],
                    inputs=[
                        ArtifactSpec(
                            uid=a.uid or f"external/{a.name}",
                            size_bytes=a.size_bytes,
                            kind=a.storage.value,
                        )
                        for a in node.inputs
                    ],
                    outputs=[
                        ArtifactSpec(
                            uid=a.uid or f"{self.name}/{node.name}/{a.name}",
                            size_bytes=a.size_bytes,
                            kind=a.storage.value,
                        )
                        for a in node.outputs
                    ],
                    failure=FailureProfile(
                        rate=node.sim.failure_rate, pattern=node.sim.failure_pattern
                    ),
                    uses_gpu=node.sim.uses_gpu,
                    retry_limit=node.retries,
                    when_expr=node.when,
                    result_options=tuple(node.sim.result_options),
                )
            )
        workflow.validate()
        return workflow

    # ------------------------------------------------------------- metrics

    def stats(self) -> dict:
        """Structural summary used by the optimizer and reports."""
        return {
            "nodes": len(self.nodes),
            "edges": len(self.edges),
            "roots": len(self.roots()),
            "leaves": len(self.leaves()),
            "max_width": self.max_parallel_width(),
            "critical_path_s": self.critical_path_seconds(),
        }

    def max_parallel_width(self) -> int:
        """Largest antichain by level (how many nodes share a depth)."""
        depth: Dict[str, int] = {}
        parents = self.parents_map()
        for node in self.topological_order():
            parent_depths = [depth[p] for p in parents[node]]
            depth[node] = (max(parent_depths) + 1) if parent_depths else 0
        if not depth:
            return 0
        counts: Dict[int, int] = {}
        for d in depth.values():
            counts[d] = counts.get(d, 0) + 1
        return max(counts.values())

    def critical_path_seconds(self) -> float:
        """Longest duration-weighted path (Eq. 1's T with infinite nodes)."""
        finish: Dict[str, float] = {}
        parents = self.parents_map()
        for node_name in self.topological_order():
            node = self.nodes[node_name]
            start = max((finish[p] for p in parents[node_name]), default=0.0)
            finish[node_name] = start + node.sim.duration_s
        return max(finish.values(), default=0.0)
