"""Staged execution of a split workflow plan.

After Algorithm 3 splits a big workflow, the parts must run as if they
were still one DAG: a part starts only when every part it depends on
has succeeded.  :class:`StagedSubmitter` wires the parts onto one
operator with completion callbacks; the aggregate behaves like the
original workflow while every individual CRD stays within budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..backends.argo import ArgoBackend
from ..engine.operator import WorkflowOperator
from ..engine.status import WorkflowPhase, WorkflowRecord
from .splitter import SplitPlan


class StagedExecutionError(RuntimeError):
    """Raised when a part fails, aborting downstream parts."""


@dataclass
class StagedResult:
    """Aggregate outcome of a staged split execution."""

    plan: SplitPlan
    records: List[Optional[WorkflowRecord]] = field(default_factory=list)
    submit_time: float = 0.0
    finish_time: float = 0.0
    aborted_parts: List[int] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return self.finish_time - self.submit_time

    @property
    def succeeded(self) -> bool:
        return not self.aborted_parts and all(
            r is not None and r.phase == WorkflowPhase.SUCCEEDED for r in self.records
        )


class StagedSubmitter:
    """Submits split parts in dependency order on one operator."""

    def __init__(self, operator: WorkflowOperator, use_manifests: bool = True) -> None:
        self.operator = operator
        #: Compile each part through the Argo backend before submitting
        #: (exercising the CRD size check); False submits the IR directly.
        self.use_manifests = use_manifests
        self._backend = ArgoBackend()

    def execute(self, plan: SplitPlan) -> StagedResult:
        """Run the whole plan to completion; returns aggregate results."""
        result = StagedResult(plan=plan, records=[None] * plan.num_parts)
        result.submit_time = self.operator.clock.now

        remaining_deps: Dict[int, int] = {i: 0 for i in range(plan.num_parts)}
        dependents: Dict[int, List[int]] = {i: [] for i in range(plan.num_parts)}
        for src, dst in plan.cross_edges:
            dependents[src].append(dst)
            remaining_deps[dst] += 1
        failed = {"flag": False}
        #: Step results accumulated across completed parts.  A ``when``
        #: guard may reference a step that landed in an upstream part;
        #: without forwarding these, such guards would see "never ran"
        #: and silently skip — diverging from monolithic execution.
        known_results: Dict[str, Optional[str]] = {}

        def submit_part(index: int) -> None:
            if failed["flag"]:
                result.aborted_parts.append(index)
                return
            part = plan.parts[index]

            def on_complete(record: WorkflowRecord) -> None:
                result.records[index] = record
                known_results.update(record.results)
                if record.phase != WorkflowPhase.SUCCEEDED:
                    failed["flag"] = True
                    return
                for dependent in sorted(dependents[index]):
                    remaining_deps[dependent] -= 1
                    if remaining_deps[dependent] == 0:
                        submit_part(dependent)

            if self.use_manifests:
                manifest = self._backend.compile(part)
                self.operator.submit_manifest(
                    manifest,
                    on_complete=on_complete,
                    initial_results=dict(known_results),
                )
            else:
                self.operator.submit(
                    part.to_executable(),
                    on_complete=on_complete,
                    initial_results=dict(known_results),
                )

        for index in range(plan.num_parts):
            if remaining_deps[index] == 0:
                submit_part(index)

        self.operator.run_to_completion()
        result.finish_time = self.operator.clock.now
        for index, record in enumerate(result.records):
            if record is None and index not in result.aborted_parts:
                result.aborted_parts.append(index)
        return result
