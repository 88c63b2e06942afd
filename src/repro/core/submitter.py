"""Submitters: take an optimized IR and run it on a workflow engine.

``couler.run(submitter=ArgoSubmitter())`` is the paper's submission
idiom (Code 1 lines 20–22).  Every submitter here conforms to the
:class:`~repro.backends.base.Submitter` protocol (``submit(ir)`` →
record-shaped result): :class:`ArgoSubmitter` compiles the IR to an
Argo manifest and drives it through the simulated operator;
:class:`LocalSubmitter` is the convenience wrapper that builds its own
single-tenant environment; :class:`AdmissionSubmitter` routes the IR
through the event-driven multi-cluster admission pipeline; and
:class:`AirflowSubmitter` / :class:`TektonSubmitter` generate
engine-native definitions (optionally preview-executing the IR on the
local engine, since no real Airflow/Tekton deployment exists in this
environment).

Engine knobs ride in one place: a submitter that builds its own
environment takes a keyword-only ``config=``\\
:class:`~repro.engine.config.EngineConfig` bundle (journaling,
fairness, engine mode, adaptive policy).  A submitter handed an
environment (``operator=`` / ``pipeline=``) rejects ``config=`` and
reports that environment's own configuration instead, so its
``config`` always says what actually runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..backends.airflow import AirflowBackend
from ..backends.argo import ArgoBackend
from ..backends.tekton import TektonBackend
from ..engine.admission import AdmissionError, AdmissionPipeline
from ..engine.config import DEFAULT_CONFIG, EngineConfig
from ..engine.journal import Journal
from ..engine.operator import WorkflowOperator
from ..engine.simclock import SimClock
from ..engine.status import WorkflowRecord
from ..ir.graph import WorkflowIR
from ..k8s.apiserver import APIServer
from ..k8s.cluster import Cluster

def default_environment(
    num_nodes: int = 8,
    cpu_per_node: float = 16.0,
    memory_per_node: int = 64 * 2**30,
    gpu_per_node: int = 2,
    cache_manager=None,
    seed: int = 0,
    journal: Optional[Journal] = None,
    fast: bool = True,
) -> WorkflowOperator:
    """A fresh single-tenant simulated environment for one submission."""
    clock = SimClock()
    cluster = Cluster.uniform(
        "local",
        num_nodes,
        cpu_per_node=cpu_per_node,
        memory_per_node=memory_per_node,
        gpu_per_node=gpu_per_node,
    )
    return WorkflowOperator(
        clock,
        cluster,
        cache_manager=cache_manager,
        api_server=APIServer(),
        seed=seed,
        journal=journal,
        fast=fast,
    )


@dataclass
class SubmissionResult:
    """What a code-generating submitter returns."""

    engine: str
    payload: object
    record: Optional[WorkflowRecord] = None


def _check_no_config(environment: str, config: Optional[EngineConfig]) -> None:
    """Reject ``config=`` next to a caller-built environment."""
    if config is not None:
        raise ValueError(
            f"config= was passed together with {environment}=; configure "
            f"the environment you pass in instead"
        )


class ArgoSubmitter:
    """Compile to an Argo manifest and execute on the simulated operator.

    Pass an existing ``operator`` to share a cluster across
    submissions; its ``fast`` flag and journal then set
    ``config.engine`` and ``config.journaled``.  Otherwise a fresh
    default environment is built from ``config``.
    """

    def __init__(
        self,
        operator: Optional[WorkflowOperator] = None,
        run_to_completion: bool = True,
        *,
        config: Optional[EngineConfig] = None,
    ) -> None:
        if operator is None:
            config = config or DEFAULT_CONFIG
            operator = default_environment(
                journal=Journal() if config.journaled else None, fast=config.fast
            )
        else:
            _check_no_config("operator", config)
            config = EngineConfig(
                engine="fast" if operator.fast else "naive",
                journaled=operator.journal is not None,
            )
        #: The configuration the operator actually runs with.
        self.config = config
        self.operator = operator
        #: The durable event journal when journaled mode is on (else None).
        self.journal = self.operator.journal
        self.run_to_completion = run_to_completion
        self.backend = ArgoBackend()
        self.last_manifest: Optional[dict] = None

    def submit(self, ir: WorkflowIR) -> WorkflowRecord:
        manifest = self.backend.compile(ir)
        self.last_manifest = manifest
        record = self.operator.submit_manifest(manifest)
        if self.run_to_completion:
            self.operator.run_to_completion()
        return record


class LocalSubmitter(ArgoSubmitter):
    """Single-tenant convenience submitter (used by ``couler.run()``
    when no submitter is given)."""

    def __init__(
        self,
        seed: int = 0,
        *,
        config: EngineConfig = DEFAULT_CONFIG,
    ) -> None:
        super().__init__(
            operator=default_environment(
                seed=seed,
                journal=Journal() if config.journaled else None,
                fast=config.fast,
            )
        )
        self.config = config


def default_multicluster(
    seed: int = 0,
    *,
    journal: Optional[Journal] = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> AdmissionPipeline:
    """A small heterogeneous fleet for admission-pipeline submissions.

    The pipeline runs with ``config``.  ``journal`` shares an existing
    journal; ``EngineConfig(journaled=True)`` alone gives the pipeline
    a fresh one.
    """
    gb = 2**30
    clusters = [
        Cluster.uniform(
            "gpu", 2, cpu_per_node=16.0, memory_per_node=64 * gb, gpu_per_node=2
        ),
        Cluster.uniform("cpu-a", 4, cpu_per_node=16.0, memory_per_node=64 * gb),
        Cluster.uniform("cpu-b", 4, cpu_per_node=16.0, memory_per_node=64 * gb),
    ]
    return AdmissionPipeline(clusters, seed=seed, journal=journal, config=config)


class AdmissionSubmitter:
    """Submit through the event-driven admission pipeline.

    The service-grade submission path: the workflow *arrives* at the
    pipeline (admission control, bounded queue, aged-priority
    placement) instead of being executed on a private single-tenant
    environment.  Pass an existing ``pipeline`` to share one fleet
    across submissions — quota contention and queueing then behave
    exactly as they would for concurrent tenants; ``config`` is then
    that pipeline's own.  ``user``, ``priority`` and ``slo_class`` (the
    SLO lane, ``None`` = the pipeline's default) apply to every
    submission through this submitter.
    """

    def __init__(
        self,
        pipeline: Optional[AdmissionPipeline] = None,
        user: str = "default",
        priority: int = 0,
        slo_class: Optional[str] = None,
        run_to_completion: bool = True,
        seed: int = 0,
        *,
        config: Optional[EngineConfig] = None,
    ) -> None:
        if pipeline is None:
            pipeline = default_multicluster(seed=seed, config=config or DEFAULT_CONFIG)
        else:
            _check_no_config("pipeline", config)
        if slo_class is not None and slo_class not in pipeline.lanes:
            raise ValueError(
                f"unknown slo_class {slo_class!r}; the pipeline's lanes are "
                f"{sorted(pipeline.lanes)}"
            )
        self.pipeline = pipeline
        #: The configuration the pipeline actually runs with.
        self.config = pipeline.config
        #: Unified decision-log + step-event journal (None when off).
        self.journal = self.pipeline.journal
        self.user = user
        self.priority = priority
        #: SLO lane for every submission through this submitter
        #: (None = the pipeline's default lane).
        self.slo_class = slo_class
        self.run_to_completion = run_to_completion
        self.last_admission = None

    def submit(self, ir: WorkflowIR) -> WorkflowRecord:
        admission = self.pipeline.submit(
            ir.to_executable(),
            user=self.user,
            priority=self.priority,
            slo_class=self.slo_class,
        )
        self.last_admission = admission
        if self.run_to_completion:
            self.pipeline.run()
        if admission.admitted is False:
            raise AdmissionError(
                f"workflow {ir.name!r} rejected at admission: "
                f"{admission.reject_reason}"
            )
        if admission.record is None:
            # Still queued (caller drives the clock): hand back a live
            # pending record that fills in once placement happens.
            return WorkflowRecord(name=ir.name)
        return admission.record


@dataclass
class AirflowSubmitter:
    """Generate an Airflow DAG module from the IR.

    ``simulate=True`` additionally executes the IR on a local simulated
    engine so callers can preview runtime behaviour; the generated
    source is what a real deployment would ship to Airflow.
    """

    simulate: bool = False
    backend: AirflowBackend = field(default_factory=AirflowBackend)
    config: EngineConfig = field(default_factory=EngineConfig)

    def submit(self, ir: WorkflowIR) -> SubmissionResult:
        source = self.backend.compile(ir)
        record = None
        if self.simulate:
            operator = default_environment(fast=self.config.fast)
            record = operator.submit(ir.to_executable())
            operator.run_to_completion()
        return SubmissionResult(engine="airflow", payload=source, record=record)


@dataclass
class TektonSubmitter:
    """Generate Tekton Pipeline/PipelineRun manifests from the IR."""

    simulate: bool = False
    backend: TektonBackend = field(default_factory=TektonBackend)
    config: EngineConfig = field(default_factory=EngineConfig)

    def submit(self, ir: WorkflowIR) -> SubmissionResult:
        manifests = self.backend.compile(ir)
        record = None
        if self.simulate:
            operator = default_environment(fast=self.config.fast)
            record = operator.submit(ir.to_executable())
            operator.run_to_completion()
        return SubmissionResult(engine="tekton", payload=manifests, record=record)
