"""Deterministic synthetic fleets for scale benchmarks and profiling.

The engine-scale benchmark and :func:`repro.profile_run` both need the
same thing: ``N`` small multi-step workflows with mixed tenants,
priorities and SLO lanes, arriving open-loop at a rate the fleet can
absorb (bounded backlog — the point is to measure *steady-state
per-workflow cost*, not to drown the admission queue).  Everything is
derived from ``random.Random(seed)``, so two builds with the same
``(num_workflows, seed)`` are identical object-for-object and the
same-seed determinism digests the benchmark asserts are meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from ..engine.admission import AdmissionPipeline, AdmissionRecord
from ..engine.config import EngineConfig
from ..engine.journal import Journal
from ..engine.spec import ExecutableStep, ExecutableWorkflow
from ..k8s.cluster import Cluster
from ..k8s.resources import ResourceQuantity

#: Tenants in the synthetic fleet, with fairness weights.
FLEET_TENANTS: Dict[str, float] = {"t0": 2.0, "t1": 1.0, "t2": 1.0, "t3": 0.5}

GB = 2**30


@dataclass
class FleetSpec:
    """One reproducible fleet: clusters + timed arrivals."""

    clusters: List[Cluster]
    #: ``(arrival_time, workflow, user, priority, slo_class)`` tuples.
    arrivals: List[Tuple[float, ExecutableWorkflow, str, int, str]]
    seed: int = 0
    tenant_weights: Dict[str, float] = field(
        default_factory=lambda: dict(FLEET_TENANTS)
    )


def build_workflow(name: str, rng: random.Random) -> ExecutableWorkflow:
    """A small chain-with-fanout DAG (2–4 steps, occasional GPU ask)."""
    workflow = ExecutableWorkflow(name=name)
    num_steps = rng.randint(2, 4)
    previous = None
    for index in range(num_steps):
        uses_gpu = index == num_steps - 1 and rng.random() < 0.1
        step = ExecutableStep(
            name=f"s{index}",
            duration_s=2.0 + 6.0 * rng.random(),
            requests=ResourceQuantity(
                cpu=0.5 + rng.random(),
                memory=(1 + rng.randint(0, 2)) * GB,
                gpu=1 if uses_gpu else 0,
            ),
            dependencies=[previous] if previous else [],
        )
        workflow.add_step(step)
        previous = step.name
    workflow.validate()
    return workflow


def build_fleet(num_workflows: int, seed: int = 0) -> FleetSpec:
    """``num_workflows`` arrivals over a fixed-size fleet that keeps up.

    The fleet (6 clusters, 24 nodes) and the arrival rate (one
    workflow per 0.25 virtual seconds) are both constant, so the
    steady-state load — and with it the *expected* per-workflow engine
    cost — is independent of ``num_workflows``: growing the fleet 100×
    grows the virtual horizon 100×, not the instantaneous backlog.
    Any superlinear per-workflow cost the scale benchmark observes is
    therefore an engine hot-path defect, not a scenario artifact.
    """
    rng = random.Random(seed)
    tenants = sorted(FLEET_TENANTS)
    clusters = [
        Cluster.uniform(
            f"c{index}",
            4,
            cpu_per_node=16.0,
            memory_per_node=64 * GB,
            gpu_per_node=2 if index % 4 == 0 else 0,
        )
        for index in range(6)
    ]
    arrivals: List[Tuple[float, ExecutableWorkflow, str, int, str]] = []
    for index in range(num_workflows):
        workflow = build_workflow(f"wf-{index:06d}", rng)
        user = tenants[index % len(tenants)]
        priority = (index * 3) % 7
        slo_class = "serving" if index % 5 == 0 else "batch"
        arrivals.append((index * 0.25, workflow, user, priority, slo_class))
    return FleetSpec(clusters=clusters, arrivals=arrivals, seed=seed)


def build_pipeline(
    spec: FleetSpec,
    config: EngineConfig,
    journal: Journal | None = None,
    cache_manager: object | None = None,
    skip_cached_steps: bool = False,
    metrics: object | None = None,
) -> AdmissionPipeline:
    """An :class:`AdmissionPipeline` over the fleet, knobs from ``config``.

    A config without tenant weights takes the fleet's own
    ``spec.tenant_weights``.  ``cache_manager`` (with
    ``skip_cached_steps``) threads a shared artifact cache through every
    cluster operator — the scenario-corpus runs use it to measure
    cross-workflow reuse under admission.  ``metrics`` shares one
    registry across admission and operators so the adaptive controller
    reads the whole run from one place.
    """
    if not config.tenant_weights:
        config = replace(config, tenant_weights=dict(spec.tenant_weights))
    return AdmissionPipeline(
        spec.clusters,
        seed=spec.seed,
        journal=journal,
        cache_manager=cache_manager,
        skip_cached_steps=skip_cached_steps,
        metrics=metrics,
        config=config,
    )


def submit_fleet(
    pipeline: AdmissionPipeline, spec: FleetSpec
) -> List[AdmissionRecord]:
    """Schedule every arrival; the caller drives ``pipeline.run()``."""
    return [
        pipeline.submit_at(
            at, workflow, user=user, priority=priority, slo_class=slo_class
        )
        for at, workflow, user, priority, slo_class in spec.arrivals
    ]


__all__ = [
    "FLEET_TENANTS",
    "FleetSpec",
    "build_fleet",
    "build_pipeline",
    "build_workflow",
    "submit_fleet",
]
