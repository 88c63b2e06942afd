"""A "production day" integration test: everything wired together.

One Couler service over one cached, failure-injected cluster runs a mix
of frontends back to back — GUI canvas, SQLFlow, the DSL, a big split
workflow — with caching, retries, monitoring and persistence all active.
This is the closest the test suite gets to the paper's deployment story.
"""

import pytest

from repro import couler
from repro.caching.manager import CacheManager
from repro.engine.operator import WorkflowOperator
from repro.engine.retry import FailureInjector, RetryPolicy
from repro.engine.simclock import SimClock
from repro.engine.status import WorkflowPhase
from repro.gui import churn_prediction_canvas
from repro.k8s.apiserver import APIServer
from repro.k8s.cluster import Cluster
from repro.parallelism.budget import BudgetModel
from repro.server import CoulerService
from repro.sqlflow import sql_to_ir
from repro.workloads.scenarios import SCENARIOS

GB = 2**30


@pytest.fixture()
def service() -> CoulerService:
    clock = SimClock()
    cluster = Cluster.uniform(
        "prod", 12, cpu_per_node=32, memory_per_node=128 * GB, gpu_per_node=2
    )
    manager = CacheManager(policy="couler", capacity_bytes=30 * GB)
    operator = WorkflowOperator(
        clock,
        cluster,
        cache_manager=manager,
        retry_policy=RetryPolicy(limit=3, backoff_base=5.0),
        failure_injector=FailureInjector(seed=11, retryable_fraction=1.0),
        api_server=APIServer(),
        seed=11,
    )
    return CoulerService(operator=operator, budget=BudgetModel(max_steps=25))


def test_production_day(service):
    # 1. A data scientist ships the churn canvas from the GUI.
    gui_handle = service.submit(churn_prediction_canvas().to_ir(), owner="ds-alice")
    assert gui_handle.record.phase == WorkflowPhase.SUCCEEDED

    # 2. An analyst trains a model through SQLFlow.
    sql_handle = service.submit(
        sql_to_ir(
            "SELECT * FROM iris.train TO TRAIN DNNClassifier "
            "WITH model.n_classes = 3 COLUMN a, b LABEL c INTO m"
        ),
        owner="analyst-bob",
    )
    assert sql_handle.record.phase == WorkflowPhase.SUCCEEDED

    # 3. An engineer defines a pipeline in the DSL.
    couler.reset_context("dsl-pipeline")
    prep = couler.run_container(image="prep:v1", step_name="prep")
    couler.map(
        lambda index: couler.run_container(
            image="train:v1", step_name=f"train-{index}", input=prep
        ),
        range(3),
    )
    dsl_handle = service.submit(couler.workflow_ir(), owner="eng-carol")
    assert dsl_handle.record.phase == WorkflowPhase.SUCCEEDED

    # 4. The multimodal scenario (37 pods) exceeds the 25-step budget and
    #    is split + staged transparently by the service.
    big_handle = service.submit(SCENARIOS["multimodal"].build(0), owner="ml-team")
    assert big_handle.split_parts >= 2
    assert big_handle.record.phase == WorkflowPhase.SUCCEEDED
    assert len(big_handle.record.steps) == 37

    # 5. Bookkeeping: everything persisted, monitored, cache warm.
    assert len(service.list_workflows(WorkflowPhase.SUCCEEDED)) == 4
    health = service.health()
    assert health["database_counts"]["Succeeded"] == 4
    cache_report = service.operator.cache_manager.report()
    assert cache_report["entries"] > 0
    assert cache_report["hits"] > 0
