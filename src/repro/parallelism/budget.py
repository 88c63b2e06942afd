"""Workflow budget model (paper Sec. IV.B).

A workflow's *budget* decides whether it must be split:
``C = alpha + beta + gamma`` where alpha is the serialized CRD (YAML)
size, beta the number of steps, and gamma the number of pods.  The
production default — and this module's — is the YAML size with the
2 MB Kubernetes practical limit, plus a 200-step guard.

Sizing is exact and additive.  An Argo manifest in block YAML is a
header that depends only on the workflow name, plus one template item
and one DAG-task item per node, plus — for a node with parents inside
the workflow — a ``dependencies:`` key line and one ``- parent`` line per
parent.  Every item sits at a fixed indentation, so its bytes do not
depend on which other nodes are present.  :meth:`BudgetModel.manifest_sizes`
reads those terms off one compile and one dump of the whole IR; the
byte size of any induced subgraph is then a sum of terms, which the
splitter keeps as a running total.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..backends.argo import ArgoBackend
from ..ir.graph import WorkflowIR
from ..ir.nodes import IRNode
from ..k8s.objects import crd_yaml_size, manifest_yaml

#: The paper's practical CRD limit.
DEFAULT_MAX_YAML_BYTES = 2 * 1024 * 1024
#: The paper's step-count guard ("beta exceeds 200").
DEFAULT_MAX_STEPS = 200

# Line prefixes of the Argo manifest layout (PyYAML writes sequences
# inside a mapping without extra indentation).  Nothing nested inside an
# item can start a line with its item prefix: nested lines are indented
# further, and node names contain no spaces, so they never fold.
_TEMPLATE_ITEM = re.compile(rb"^  - ", re.MULTILINE)
_TASK_ITEM = re.compile(rb"^      - ", re.MULTILINE)
_DEPENDENCIES_KEY = b"        dependencies:\n"


@dataclass(frozen=True)
class BudgetCost:
    """Exact cost of a workflow (or node subset)."""

    yaml_bytes: int
    steps: int
    pods: int


def _node_pods(node: IRNode) -> int:
    """Pods one step occupies: a distributed job counts its PS and workers."""
    if not node.job_params:
        return 1
    return max(
        1,
        int(node.job_params.get("num_ps", 0)) + int(node.job_params.get("num_workers", 0)),
    )


def _name_line_bytes(name: str) -> int:
    """Bytes of a ``name: <name>`` line, less its indentation."""
    return len(manifest_yaml({"name": name}).encode("utf-8"))


@dataclass(frozen=True)
class ManifestSizes:
    """Exact additive byte terms of one IR's Argo manifest.

    The manifest of an induced subgraph ``S`` named ``name`` is exactly
    ``header(name)``, plus ``node[v]`` for every ``v`` in ``S``, plus,
    for every ``v`` with parents in ``S``, ``DEPENDENCIES_KEY`` and
    ``dependency[p]`` for each such parent ``p``.  ``S`` is non-empty.
    """

    #: Exact cost of the whole IR, from the same dump the terms came from.
    whole: BudgetCost
    #: Header bytes less the ``metadata.name`` line (but its indentation).
    header_rest: int
    #: Template item plus DAG-task item, without its dependency lines.
    node: Dict[str, int]
    #: Bytes of one ``- parent`` dependency line, by parent name.
    dependency: Dict[str, int]
    pods: Dict[str, int]

    DEPENDENCIES_KEY = len(_DEPENDENCIES_KEY)

    def header(self, name: str) -> BudgetCost:
        """Cost of a manifest named ``name`` before any node is added."""
        return BudgetCost(self.header_rest + _name_line_bytes(name), 0, 0)

    def add(self, cost: BudgetCost, name: str, internal_parents: Iterable[str]) -> BudgetCost:
        """``cost`` grown by node ``name`` whose parents already in the
        manifest are ``internal_parents``."""
        size = cost.yaml_bytes + self.node[name]
        deps = sum(self.dependency[parent] for parent in internal_parents)
        if deps:
            size += self.DEPENDENCIES_KEY + deps
        return BudgetCost(size, cost.steps + 1, cost.pods + self.pods[name])


@dataclass
class BudgetModel:
    """Budget thresholds plus exact cost measurement for the splitter."""

    max_yaml_bytes: int = DEFAULT_MAX_YAML_BYTES
    max_steps: int = DEFAULT_MAX_STEPS
    max_pods: Optional[int] = None
    _backend: ArgoBackend = field(default_factory=ArgoBackend, repr=False)

    # ------------------------------------------------------------- measuring

    def exact_cost(self, ir: WorkflowIR) -> BudgetCost:
        """Compile through the Argo backend and measure the real YAML."""
        size = crd_yaml_size(self._backend.compile(ir))
        pods = sum(_node_pods(node) for node in ir.nodes.values())
        return BudgetCost(yaml_bytes=size, steps=len(ir.nodes), pods=pods)

    def manifest_sizes(self, ir: WorkflowIR) -> ManifestSizes:
        """Additive size terms of ``ir`` from one compile and one dump."""
        manifest = self._backend.compile(ir)
        order = [task["name"] for task in manifest["spec"]["templates"][-1]["dag"]["tasks"]]
        data = manifest_yaml(manifest).encode("utf-8")
        templates = [m.start() for m in _TEMPLATE_ITEM.finditer(data)]
        main = templates[-1]
        tasks = [m.start() for m in _TASK_ITEM.finditer(data, main)]
        if len(templates) != len(order) + 1 or len(tasks) != len(order):
            raise ValueError(f"unrecognised manifest layout for {ir.name!r}")
        ends = tasks[1:] + [len(data)]
        header_rest = templates[0] + (tasks[0] if tasks else len(data)) - main
        header_rest -= _name_line_bytes(ir.name)
        node: Dict[str, int] = {}
        dependency: Dict[str, int] = {}
        parents = ir.parents_map()
        for index, name in enumerate(order):
            size = templates[index + 1] - templates[index] + ends[index] - tasks[index]
            if parents[name]:
                # The task item is ``- name``, ``template``, ``dependencies:``,
                # then one line per parent in sorted order.
                lines = data[tasks[index] : ends[index]].split(b"\n")
                if lines[2] + b"\n" != _DEPENDENCIES_KEY:
                    raise ValueError(f"unrecognised task item for {name!r}")
                size -= len(_DEPENDENCIES_KEY)
                for parent, line in zip(parents[name], lines[3:]):
                    dependency[parent] = len(line) + 1
                    size -= len(line) + 1
            node[name] = size
        pods = {name: _node_pods(n) for name, n in ir.nodes.items()}
        whole = BudgetCost(len(data), len(ir.nodes), sum(pods.values()))
        return ManifestSizes(whole, header_rest, node, dependency, pods)

    # -------------------------------------------------------------- deciding

    def within(self, cost: BudgetCost) -> bool:
        if cost.yaml_bytes > self.max_yaml_bytes:
            return False
        if cost.steps > self.max_steps:
            return False
        if self.max_pods is not None and cost.pods > self.max_pods:
            return False
        return True

    def needs_split(self, ir: WorkflowIR) -> bool:
        """Does this workflow exceed the budget as a single CRD?"""
        return not self.within(self.exact_cost(ir))
