"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import couler
from repro.engine.operator import WorkflowOperator
from repro.engine.simclock import SimClock
from repro.k8s.cluster import Cluster

GB = 2**30


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/ snapshots instead of comparing",
    )


@pytest.fixture()
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")


@pytest.fixture(autouse=True)
def fresh_couler_context():
    """Every test starts (and ends) with a clean DSL context."""
    couler.reset_context()
    yield
    couler.reset_context()


@pytest.fixture()
def clock() -> SimClock:
    return SimClock()


@pytest.fixture()
def small_cluster() -> Cluster:
    return Cluster.uniform(
        "test", num_nodes=4, cpu_per_node=8.0, memory_per_node=32 * GB, gpu_per_node=1
    )


@pytest.fixture()
def operator(clock, small_cluster) -> WorkflowOperator:
    return WorkflowOperator(clock, small_cluster)
