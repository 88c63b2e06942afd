"""Benchmark-side subclasses that count and time program layers.

Traced passes hand these to the program in place of the stock classes,
through the program's own injection points: a budget model through
``WorkflowSplitter(budget)``, an API server through
``WorkflowOperator(api_server=...)`` and a cache manager through
``AdmissionPipeline(cache_manager=...)``.  Each one calls straight
through to its parent class, so decisions are unchanged; it only adds
counters, and for the cache manager a span around every public call.
Untraced passes use the stock classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caching.manager import CacheManager
from repro.k8s.apiserver import APIServer
from repro.parallelism.budget import BudgetModel


@dataclass
class CountingBudgetModel(BudgetModel):
    """Counts exact YAML sizings (``exact_cost``) and the bytes they emit."""

    exact_cost_calls: int = 0
    yaml_bytes_sized: int = 0

    def exact_cost(self, ir):
        cost = super().exact_cost(ir)
        self.exact_cost_calls += 1
        self.yaml_bytes_sized += cost.yaml_bytes
        return cost


@dataclass
class CountingAPIServer(APIServer):
    """Counts accepted Workflow CRDs and their serialized size."""

    crds: int = 0
    crd_bytes: int = 0
    crd_bytes_max: int = 0

    def create(self, obj):
        created = super().create(obj)
        if obj.kind == "Workflow":
            size = obj.serialized_size()
            self.crds += 1
            self.crd_bytes += size
            self.crd_bytes_max = max(self.crd_bytes_max, size)
        return created


class TimedCacheManager(CacheManager):
    """Opens a ``caching.<method>`` span around each public call."""

    def __init__(self, *, spans, **kwargs) -> None:
        super().__init__(**kwargs)
        self._spans = spans
        self.calls = 0

    def register_workflow(self, workflow):
        self.calls += 1
        with self._spans.span("caching.register_workflow"):
            return super().register_workflow(workflow)

    def fetch(self, artifact, now=0.0):
        self.calls += 1
        with self._spans.span("caching.fetch"):
            return super().fetch(artifact, now)

    def on_artifact_produced(self, artifact, now):
        self.calls += 1
        with self._spans.span("caching.on_artifact_produced"):
            return super().on_artifact_produced(artifact, now)

    def contains(self, uid):
        self.calls += 1
        with self._spans.span("caching.contains"):
            return super().contains(uid)

    def on_step_finished(self, node_key):
        self.calls += 1
        with self._spans.span("caching.on_step_finished"):
            return super().on_step_finished(node_key)
