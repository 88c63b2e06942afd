"""IR optimization pass framework.

The paper (Sec. II.D): "All optimizations adhere to a predefined
interface, incorporating their specific implementations."  That
interface is :class:`IRPass`; the Couler server composes passes into a
:class:`PassManager` and runs them over the IR before generating the
final workflow.  Passes here are workflow-shape transformations; the
big-workflow splitter (Algorithm 3) lives in ``repro.parallelism``
because it maps one IR to *several* and so has its own driver.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List

from ..k8s.resources import ResourceQuantity
from .graph import WorkflowIR


class IRPass(ABC):
    """One IR-to-IR rewrite with a stable name for reporting."""

    name: str = "abstract"

    @abstractmethod
    def run(self, ir: WorkflowIR) -> WorkflowIR:
        """Return the rewritten IR (may mutate and return the input)."""


class ValidatePass(IRPass):
    """Structural validation; always first and last in the pipeline."""

    name = "validate"

    def run(self, ir: WorkflowIR) -> WorkflowIR:
        ir.validate()
        return ir


class FinalizeArtifactsPass(IRPass):
    """Assign uids to declared output artifacts."""

    name = "finalize-artifacts"

    def run(self, ir: WorkflowIR) -> WorkflowIR:
        ir.finalize_artifacts()
        return ir


class ResourceDefaultsPass(IRPass):
    """Fill in missing resource requests with configured defaults.

    The paper's resource-request optimization fills requests from
    historical profiles; here the "profile" is a static default, which
    is enough to keep every pod schedulable in the simulator.
    """

    name = "resource-defaults"

    def __init__(self, default_cpu: float = 1.0, default_memory: int = 2**30) -> None:
        self.default_cpu = default_cpu
        self.default_memory = default_memory

    def run(self, ir: WorkflowIR) -> WorkflowIR:
        for node in ir.nodes.values():
            if node.resources.is_zero():
                node.resources = ResourceQuantity(
                    cpu=self.default_cpu, memory=self.default_memory
                )
            elif node.resources.memory == 0:
                node.resources = ResourceQuantity(
                    cpu=node.resources.cpu,
                    memory=self.default_memory,
                    gpu=node.resources.gpu,
                )
        return ir


class DeadNodeEliminationPass(IRPass):
    """Drop nodes that neither produce consumed artifacts nor sink edges.

    A node is live if it is a leaf of the DAG, has children, or produces
    an artifact some other node consumes.  Isolated, output-free nodes
    (typically left behind by frontend edits) are removed.
    """

    name = "dead-node-elimination"

    def run(self, ir: WorkflowIR) -> WorkflowIR:
        consumed = {
            a.uid
            for node in ir.nodes.values()
            for a in node.inputs
            if a.uid is not None
        }
        linked = {name for edge in ir.edges for name in edge}
        dead = []
        for name, node in ir.nodes.items():
            isolated = name not in linked
            produces_consumed = any(a.uid in consumed for a in node.outputs if a.uid)
            if isolated and not produces_consumed and len(ir.nodes) > 1 and not node.outputs:
                dead.append(name)
        for name in dead:
            del ir.nodes[name]
        return ir


@dataclass
class PassManager:
    """Runs an ordered pipeline of IR passes, recording what ran."""

    passes: List[IRPass] = field(default_factory=list)
    history: List[str] = field(default_factory=list)

    @classmethod
    def default(cls) -> "PassManager":
        """The standard server-side pipeline."""
        return cls(
            passes=[
                ValidatePass(),
                ResourceDefaultsPass(),
                FinalizeArtifactsPass(),
                DeadNodeEliminationPass(),
                ValidatePass(),
            ]
        )

    def add(self, ir_pass: IRPass) -> "PassManager":
        self.passes.append(ir_pass)
        return self

    def run(self, ir: WorkflowIR) -> WorkflowIR:
        for ir_pass in self.passes:
            ir = ir_pass.run(ir)
            self.history.append(ir_pass.name)
        return ir
