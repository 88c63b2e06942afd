"""The Couler server: the service facade of the whole system.

Production Couler runs as a gRPC service in front of the optimization
libraries (paper Appendix B).  This module reproduces that role as an
in-process facade:

- accepts IR submissions from any frontend,
- runs the optimization pass pipeline,
- applies Algorithm 3 when the compiled workflow exceeds the budget
  (splitting into a staged plan transparently),
- persists workflow metadata to the :class:`WorkflowDatabase`,
- feeds the :class:`WorkflowMonitor`,
- and implements the paper's manual-retry flow: fetch the failed
  workflow from the database, skip steps whose status is Succeeded /
  Skipped / Cached, delete the failed step state, mark the workflow
  running, and restart it from the failure point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..engine.config import EngineConfig
from ..engine.operator import WorkflowOperator
from ..engine.status import StepStatus, WorkflowPhase, WorkflowRecord
from ..ir.graph import WorkflowIR
from ..ir.passes import PassManager
from ..parallelism.budget import BudgetModel
from ..parallelism.splitter import WorkflowSplitter
from ..parallelism.stitch import StagedSubmitter
from .database import WorkflowDatabase
from .monitor import WorkflowMonitor


class SubmissionError(RuntimeError):
    """Raised for invalid submissions (duplicate names, bad IR)."""


@dataclass
class SubmissionHandle:
    """What the service returns on submit."""

    name: str
    split_parts: int
    record: WorkflowRecord


@dataclass
class CoulerService:
    """The server facade over one simulated environment.

    Conforms to the :class:`~repro.backends.base.Submitter` protocol —
    ``submit(ir)`` returns a :class:`SubmissionHandle` whose ``record``
    attribute is the workflow record, so ``couler.run(submitter=service)``
    works directly.
    """

    operator: WorkflowOperator
    database: WorkflowDatabase = field(default_factory=WorkflowDatabase)
    monitor: WorkflowMonitor = field(default_factory=WorkflowMonitor)
    budget: BudgetModel = field(default_factory=BudgetModel)
    passes: PassManager = field(default_factory=PassManager.default)
    #: Knob bundle (Submitter protocol conformance; the service
    #: executes on the operator it was handed, so only introspection
    #: reads this today).
    config: EngineConfig = field(default_factory=EngineConfig)
    _irs: Dict[str, WorkflowIR] = field(default_factory=dict)
    _records: Dict[str, WorkflowRecord] = field(default_factory=dict)

    # ---------------------------------------------------------- submission

    def submit(
        self, ir: WorkflowIR, owner: str = "unknown", run: bool = True
    ) -> SubmissionHandle:
        """Optimize, (maybe) split, persist and execute a workflow."""
        if ir.name in self._irs:
            raise SubmissionError(f"workflow {ir.name!r} already submitted")
        ir = self.passes.run(ir)
        self._irs[ir.name] = ir

        splitter = WorkflowSplitter(self.budget)
        plan = splitter.split(ir)
        if plan.num_parts == 1:
            record = self.operator.submit(
                ir.to_executable(),
                on_complete=lambda rec: self._on_complete(ir, rec, owner),
            )
        else:
            staged = StagedSubmitter(self.operator, use_manifests=False)
            result = staged.execute(plan)
            record = self._merge_staged_records(ir, result.records)
        self._records[ir.name] = record
        self.database.save_workflow(ir, record, owner=owner)
        if plan.num_parts > 1:
            # execute() ran every part to completion: the merged record
            # is final, so it reaches the database and monitor now.
            self._on_complete(ir, record, owner)
        if run:
            self.operator.run_to_completion()
        return SubmissionHandle(
            name=ir.name, split_parts=plan.num_parts, record=record
        )

    def _merge_staged_records(
        self, ir: WorkflowIR, part_records: List[Optional[WorkflowRecord]]
    ) -> WorkflowRecord:
        """Fold per-part records into one logical workflow record."""
        merged = WorkflowRecord(name=ir.name)
        merged.phase = WorkflowPhase.SUCCEEDED
        starts, finishes = [], []
        for record in part_records:
            if record is None:
                merged.phase = WorkflowPhase.FAILED
                continue
            if record.phase != WorkflowPhase.SUCCEEDED:
                merged.phase = WorkflowPhase.FAILED
            for step in record.steps.values():
                merged.steps[step.name] = step
            if record.submit_time is not None:
                starts.append(record.submit_time)
            if record.finish_time is not None:
                finishes.append(record.finish_time)
        merged.submit_time = min(starts) if starts else None
        merged.finish_time = max(finishes) if finishes else None
        return merged

    def _on_complete(self, ir: WorkflowIR, record: WorkflowRecord, owner: str) -> None:
        self.database.update_status(record)
        self.monitor.observe(record)
        self.monitor.observe_operator(self.operator)

    # ------------------------------------------------------------- queries

    def status(self, name: str) -> WorkflowRecord:
        record = self._records.get(name)
        if record is not None:
            return record
        return self.database.load(name).record

    def list_workflows(self, phase: Optional[WorkflowPhase] = None) -> List[str]:
        return self.database.list_names(phase)

    def health(self) -> dict:
        report = self.monitor.health_report()
        report["database_counts"] = self.database.counts_by_phase()
        return report

    # -------------------------------------------------------- manual retry

    def retry_from_failure(self, name: str, run: bool = True) -> WorkflowRecord:
        """The Appendix B.B flow: restart a failed workflow, skipping
        steps whose status counts as done."""
        stored = self.database.load(name)
        record = self._records.get(name, stored.record)
        if record.phase != WorkflowPhase.FAILED:
            raise SubmissionError(
                f"workflow {name!r} is {record.phase.value}, not Failed"
            )
        ir = self._irs.get(name, stored.ir)
        # "The server then deletes the failed steps and the related CRDs
        # and marks these steps as running" — reset non-done steps.
        for step in record.steps.values():
            if not step.status.counts_as_done():
                step.status = StepStatus.PENDING
                step.last_error = None
                step.finish_time = None
        record.phase = WorkflowPhase.PENDING
        new_record = self.operator.submit(
            ir.to_executable(),
            record=record,
            on_complete=lambda rec: self._on_complete(ir, rec, stored.owner),
        )
        self._records[name] = new_record
        self.database.update_status(new_record)
        if run:
            self.operator.run_to_completion()
        return new_record
