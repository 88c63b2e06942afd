"""Reproduction of "Couler: Unified Machine Learning Workflow
Optimization in Cloud" (ICDE 2024).

Subpackages
-----------
core
    The unified programming interface (the Couler DSL) and submitters.
ir
    The engine-agnostic workflow intermediate representation + passes.
backends
    Workflow generators: IR -> Argo / Airflow / Tekton formats.
k8s, engine
    The simulated cloud substrate: API server, etcd, cluster, and a
    discrete-event Argo-style workflow operator.
caching
    The automatic artifact-caching optimizer (Algorithm 2) and the
    Dataset-CRD data cache.
parallelism
    Big-workflow auto-parallelism (Algorithm 3).
autotune
    LLM-driven automatic hyperparameter tuning (Algorithm 4).
llm, nl2wf
    The simulated LLM substrate, the Code Lake, and the NL-to-code
    pipeline (Algorithm 1).
sqlflow
    The SQL frontend (SELECT ... TO TRAIN / TO PREDICT).
server
    The Couler server: workflow metadata persistence and the
    restart-from-failure service flow.
gui
    The declarative canvas/model-zoo frontend.
workloads, experiments
    Evaluation workload generators and one driver per paper
    table/figure.
"""

__version__ = "2.0.0"
__paper__ = (
    "Couler: Unified Machine Learning Workflow Optimization in Cloud, "
    "ICDE 2024"
)
