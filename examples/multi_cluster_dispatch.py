#!/usr/bin/env python
"""Multi-cluster workflow scheduling (paper Appendix B.A).

Ant Group runs several clusters with different shapes — one GPU-heavy,
others CPU-rich — and a workflow queue that places each workflow by a
weighted combination of priority, cluster free capacity, and the user's
CPU/memory/GPU quotas.  This example submits a mixed fleet (GPU
training jobs, CPU batch jobs, a high-priority report) to the admission
pipeline as simultaneous arrivals and shows where everything lands and
that the load stays balanced.

Run:  python examples/multi_cluster_dispatch.py
"""

from repro.engine.admission import AdmissionPipeline
from repro.engine.queue import UserQuota
from repro.engine.spec import ExecutableStep, ExecutableWorkflow
from repro.k8s.cluster import Cluster
from repro.k8s.resources import ResourceQuantity

GB = 2**30


def workflow(name: str, cpu: float, gpu: int = 0, duration: float = 120.0):
    wf = ExecutableWorkflow(name=name)
    wf.add_step(
        ExecutableStep(
            name="work",
            duration_s=duration,
            requests=ResourceQuantity(cpu=cpu, memory=8 * GB, gpu=gpu),
        )
    )
    return wf


def main() -> None:
    clusters = [
        Cluster.uniform("gpu-cluster", 2, cpu_per_node=32,
                        memory_per_node=128 * GB, gpu_per_node=4),
        Cluster.uniform("cpu-east", 3, cpu_per_node=64, memory_per_node=256 * GB),
        Cluster.uniform("cpu-west", 3, cpu_per_node=64, memory_per_node=256 * GB),
    ]
    quotas = {
        "ml-team": UserQuota(user="ml-team", cpu_limit=200,
                             memory_limit=512 * GB, gpu_limit=8),
        "etl-team": UserQuota(user="etl-team", cpu_limit=300,
                              memory_limit=1024 * GB),
    }
    pipeline = AdmissionPipeline(clusters, quotas=quotas)

    for index in range(3):
        pipeline.submit(
            workflow(f"train-{index}", cpu=8, gpu=2, duration=600),
            user="ml-team", priority=5,
        )
    for index in range(9):
        pipeline.submit(
            workflow(f"etl-{index}", cpu=16, duration=300), user="etl-team"
        )
    pipeline.submit(
        workflow("exec-report", cpu=4, duration=60), user="etl-team", priority=9
    )

    pipeline.run()
    placements = {name: 0 for name in pipeline.operators}
    print(f"{'workflow':<14} {'cluster':<12} phase")
    for admission in pipeline.placed:
        placements[admission.cluster_name] += 1
        print(f"{admission.workflow_name:<14} {admission.cluster_name:<12} "
              f"{admission.record.phase.value}")

    print("\nplacements per cluster:", placements)
    print("(the high-priority report was placed first; GPU jobs only on "
          "gpu-cluster; ETL spread across cpu-east/cpu-west)")


if __name__ == "__main__":
    main()
