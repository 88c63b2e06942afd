"""Property-based tests (hypothesis) on core invariants.

Covers: IR acyclicity and topological-order correctness under random
DAG construction; split-plan partition/edge-preservation/budget
invariants; exact additive CRD sizing against a real YAML dump; artifact-store capacity conservation; engine scheduling
never violating dependencies; tokenizer/pricing monotonicity; pass@k
estimator bounds; resource arithmetic laws.
"""

from __future__ import annotations

from dataclasses import replace

import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.backends.argo import ArgoBackend

from repro.caching.artifact_store import ArtifactStore
from repro.caching.policy import CacheDecision, FIFOCachePolicy, LRUCachePolicy
from repro.engine.operator import WorkflowOperator
from repro.engine.simclock import SimClock
from repro.engine.spec import ArtifactSpec, ExecutableStep, ExecutableWorkflow
from repro.engine.status import WorkflowPhase
from repro.ir.graph import WorkflowIR
from repro.ir.nodes import IRNode, OpKind, SimHint
from repro.k8s.cluster import Cluster
from repro.k8s.resources import ResourceQuantity
from repro.llm.tokenizer import count_tokens
from repro.nl2wf.passk import pass_at_k
from repro.parallelism.budget import BudgetModel
from repro.parallelism.splitter import WorkflowSplitter
from repro.verify.generator import generate_ir
from repro.verify.oracles import corpus_ir

GB = 2**30


# --------------------------------------------------------------- strategies

@st.composite
def random_dags(draw, max_nodes: int = 16):
    """A random DAG as (num_nodes, edges) with edges i -> j only for i < j,
    which guarantees acyclicity by construction."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = set()
    for child in range(1, n):
        parents = draw(
            st.lists(st.integers(0, child - 1), max_size=3, unique=True)
        )
        for parent in parents:
            edges.add((parent, child))
    return n, edges


def _build_ir(n: int, edges: set) -> WorkflowIR:
    ir = WorkflowIR(name="prop")
    for index in range(n):
        ir.add_node(
            IRNode(name=f"n{index}", op=OpKind.CONTAINER, image="x",
                   sim=SimHint(duration_s=1.0 + index % 5))
        )
    for parent, child in edges:
        ir.add_edge(f"n{parent}", f"n{child}")
    return ir


# ---------------------------------------------------------------- IR graphs

@given(random_dags())
@settings(max_examples=60)
def test_topological_order_respects_every_edge(dag):
    n, edges = dag
    ir = _build_ir(n, edges)
    order = ir.topological_order()
    assert sorted(order) == sorted(ir.nodes)
    position = {name: i for i, name in enumerate(order)}
    for parent, child in ir.edges:
        assert position[parent] < position[child]


@given(random_dags())
@settings(max_examples=60)
def test_critical_path_bounds_total_duration(dag):
    n, edges = dag
    ir = _build_ir(n, edges)
    critical = ir.critical_path_seconds()
    total = sum(node.sim.duration_s for node in ir.nodes.values())
    longest_single = max(node.sim.duration_s for node in ir.nodes.values())
    assert longest_single <= critical <= total + 1e-9


# ------------------------------------------------------------------ splitter

@given(random_dags(max_nodes=20), st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_split_plan_invariants(dag, max_steps):
    n, edges = dag
    ir = _build_ir(n, edges)
    budget = BudgetModel(max_yaml_bytes=50_000_000, max_steps=max_steps)
    plan = WorkflowSplitter(budget).split(ir)
    # Partition: every node in exactly one part.
    seen = {}
    for index, part in enumerate(plan.parts):
        for name in part.nodes:
            assert name not in seen
            seen[name] = index
    assert set(seen) == set(ir.nodes)
    # Edge preservation: internal + cut edges == original edges.
    internal = set().union(*(part.edges for part in plan.parts)) if plan.parts else set()
    assert internal | plan.cut_edges == ir.edges
    # Budget: every part within the step budget.
    for part in plan.parts:
        assert len(part.nodes) <= max_steps
    # The part dependency graph is acyclic (topological order exists).
    plan.topological_part_order()


# Names YAML must quote, or they would load as ints, floats, booleans,
# nulls or timestamps.
_QUOTED_WORDS = ("true", "null", "off", "No", "2024-01-05")
_LONG_WHEN = "{{tasks.flip.outputs.result}} == heads - 1 " * 4
# Double-quoted and folded: libyaml and PyYAML fold this differently.
_SOURCE = (
    "def flip() -> None:\n    import random\n\n"
    '    res = "heads" if random.randint(0, 1) == 0 else "tails"\n    print(res)\n'
)


def _quoted_name(index: int, style: int) -> str:
    if style == 0 and index < len(_QUOTED_WORDS):
        return _QUOTED_WORDS[index]
    return (f"{index}", f"0{index}", f"{index}.5", f"0x{index:x}", f"1_{index:03d}")[style % 5]


@st.composite
def sized_irs(draw):
    """A fuzzer or corpus IR, decorated with every case the sizing must
    get right: ``when`` clauses, retries, SCRIPT and JOB nodes, strings
    long enough to fold past column 80, and names YAML must quote."""
    if draw(st.booleans()):
        base = generate_ir(draw(st.integers(0, 10_000)))
    else:
        base = corpus_ir(draw(st.integers(0, 31)))
    rename = {}
    nodes = []
    for index, name in enumerate(sorted(base.nodes)):
        node = base.nodes[name]
        style = draw(st.integers(0, 6))
        rename[name] = _quoted_name(index, style) if style < 5 else name
        change = {"name": rename[name]}
        kind = draw(st.sampled_from(["keep", "script", "job", "fold"]))
        if kind == "script":
            change.update(op=OpKind.SCRIPT, source=_SOURCE, command=[], args=[], job_params={})
        elif kind == "job":
            change.update(op=OpKind.JOB, source=None, job_params={"num_ps": 1, "num_workers": 3})
        elif kind == "fold":
            change.update(
                args=["word " * 25],
                sim=replace(node.sim, result_options=("option " * 20, "tails")),
            )
        if draw(st.booleans()):
            change["when"] = _LONG_WHEN
        if draw(st.booleans()):
            change["retries"] = draw(st.integers(0, 5))
        nodes.append(replace(node, **change))
    assume(len(set(rename.values())) == len(rename))
    ir = WorkflowIR(name=draw(st.sampled_from(("prop",) + _QUOTED_WORDS)))
    for node in nodes:
        ir.add_node(node)
    for parent, child in base.edges:
        ir.add_edge(rename[parent], rename[child])
    return ir


@given(sized_irs(), st.data())
@settings(max_examples=60, deadline=None)
def test_additive_size_equals_yaml_dump(ir, data):
    keep = data.draw(st.lists(st.sampled_from(sorted(ir.nodes)), min_size=1, unique=True))
    name = data.draw(st.sampled_from([ir.name, f"{ir.name}-part-12", "123", "2024-01-05"]))
    sizes = BudgetModel().manifest_sizes(ir)
    whole = ArgoBackend().compile(ir)
    assert sizes.whole.yaml_bytes == len(yaml.safe_dump(whole, sort_keys=False).encode())

    parents = ir.parents_map()
    cost = sizes.header(name)
    for node in keep:
        cost = sizes.add(cost, node, [p for p in parents[node] if p in keep])
    sub = ir.subgraph(keep, name)
    manifest = ArgoBackend().compile(sub)
    assert cost.yaml_bytes == len(yaml.safe_dump(manifest, sort_keys=False).encode())
    assert cost == BudgetModel().exact_cost(sub)


# -------------------------------------------------------------- cache store

@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(1, 40)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=60)
def test_store_accounting_conserved(operations):
    """Random admissions through FIFO/LRU never exceed capacity and
    used_bytes always equals the sum of resident entry sizes."""
    store = ArtifactStore(capacity_bytes=100)
    fifo = FIFOCachePolicy()
    for step, (uid_index, size) in enumerate(operations):
        artifact = ArtifactSpec(uid=f"u{uid_index}", size_bytes=size)
        fifo.decide(CacheDecision(artifact, store, None, float(step)))
        assert store.used_bytes <= 100
        assert store.used_bytes == sum(e.size_bytes for e in store.entries())
        assert store.peak_bytes >= store.used_bytes


@given(st.integers(1, 99), st.integers(1, 99))
@settings(max_examples=30)
def test_lru_store_never_loses_bytes(size_a, size_b):
    store = ArtifactStore(capacity_bytes=100)
    policy = LRUCachePolicy()
    for now, (uid, size) in enumerate((("a", size_a), ("b", size_b))):
        artifact = ArtifactSpec(uid=uid, size_bytes=size)
        policy.decide(CacheDecision(artifact, store, None, float(now)))
    assert store.used_bytes <= 100
    expected = {e.uid for e in store.entries()}
    assert "b" in expected  # newest admission always resident


# ------------------------------------------------------------------- engine

@given(random_dags(max_nodes=10))
@settings(max_examples=25, deadline=None)
def test_engine_never_starts_step_before_parents_finish(dag):
    n, edges = dag
    workflow = ExecutableWorkflow(name="prop")
    for index in range(n):
        deps = sorted({f"s{p}" for p, c in edges if c == index})
        workflow.add_step(
            ExecutableStep(
                name=f"s{index}",
                duration_s=1.0 + (index % 3),
                requests=ResourceQuantity(cpu=1.0),
                dependencies=deps,
            )
        )
    clock = SimClock()
    cluster = Cluster.uniform("p", 2, cpu_per_node=4, memory_per_node=16 * GB)
    operator = WorkflowOperator(clock, cluster)
    record = operator.submit(workflow)
    operator.run_to_completion()
    assert record.phase == WorkflowPhase.SUCCEEDED
    for parent, child in edges:
        parent_record = record.steps[f"s{parent}"]
        child_record = record.steps[f"s{child}"]
        assert parent_record.finish_time <= child_record.start_time + 1e-9


# ----------------------------------------------------------------- tokenizer

@given(st.text(max_size=400), st.text(max_size=400))
@settings(max_examples=80)
def test_token_count_subadditive_under_concatenation(a, b):
    joined = count_tokens(a + " " + b)
    assert joined <= count_tokens(a) + count_tokens(b) + 1
    assert count_tokens(a) >= 0


@given(st.text(min_size=1, max_size=200))
@settings(max_examples=80)
def test_token_count_positive_for_nonspace_text(text):
    if text.strip():
        assert count_tokens(text) >= 1


# -------------------------------------------------------------------- passk

@given(st.integers(1, 30), st.data())
@settings(max_examples=80)
def test_pass_at_k_bounds_and_monotonicity(n, data):
    c = data.draw(st.integers(0, n))
    k = data.draw(st.integers(1, n))
    value = pass_at_k(n, c, k)
    assert 0.0 <= value <= 1.0
    if k < n:
        assert value <= pass_at_k(n, c, k + 1) + 1e-12
    if c == 0:
        assert value == 0.0
    if c == n:
        assert value == 1.0


# ---------------------------------------------------------------- resources

@given(
    st.floats(0, 100, allow_nan=False),
    st.integers(0, 2**40),
    st.integers(0, 8),
    st.floats(0, 100, allow_nan=False),
    st.integers(0, 2**40),
    st.integers(0, 8),
)
@settings(max_examples=60)
def test_resource_addition_commutative_and_fits(c1, m1, g1, c2, m2, g2):
    a = ResourceQuantity(cpu=c1, memory=m1, gpu=g1)
    b = ResourceQuantity(cpu=c2, memory=m2, gpu=g2)
    assert a + b == b + a
    assert a.fits_within(a + b)
    assert b.fits_within(a + b)
