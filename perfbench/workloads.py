"""The four seeded workloads: corpus, bigdag, burst and steady.

Each workload turns a seed into inputs and fresh program objects
(:meth:`setup`), drives one pass through the program's public entry
points (:meth:`run`), and checks the pass's outputs against a straight
reference (:meth:`check`).  A pass never reuses a pipeline, cache
manager, splitter, budget model, operator or journal from an earlier
pass, and the harness gives every pass its own seed, so no memo that
outlives a pass can turn a later pass into cache hits.

``run`` times the pass from the first submit to the last completion on
the host clock (:func:`hostspeed.clock`) and returns the outcome:
per-submission client-path times, virtual-time results, the layer
counters the program's ``MetricsRegistry`` and the benchmark-side
probes kept, and a digest of everything the pass decided in virtual
time.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from hostspeed import clock
from probes import CountingAPIServer, CountingBudgetModel, TimedCacheManager
from spans import NULL_SPANS
from repro.caching.manager import CacheManager
from repro.control.policy import PolicyConfig
from repro.engine.config import EngineConfig
from repro.engine.journal import Journal, JournalError
from repro.engine.operator import WorkflowOperator
from repro.engine.simclock import SimClock
from repro.engine.status import WorkflowPhase
from repro.experiments import sql_nl_pipeline
from repro.experiments.ablation_split_budget import build_big_workflow
from repro.k8s.apiserver import APIServer
from repro.k8s.cluster import Cluster
from repro.llm.codelake import expand_code_lake
from repro.obs.metrics import MetricsRegistry
from repro.parallelism.budget import DEFAULT_MAX_STEPS, BudgetModel
from repro.parallelism.splitter import WorkflowSplitter
from repro.parallelism.stitch import StagedSubmitter
from repro.verify.fingerprint import fingerprint_record, fingerprint_staged
from repro.workloads.corpus import (
    CORPUS_TENANTS,
    CorpusSpec,
    ScenarioCorpus,
    _allocate_counts,
    build_corpus,
    build_nl_task,
    clone_ir,
    compile_nl_entry,
    compile_sql_entry,
    submit_chain,
)
from repro.workloads.fleetgen import FleetSpec, build_fleet, build_pipeline

GB = 2**30


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def digest(rows) -> str:
    return hashlib.sha256(repr(sorted(rows, key=repr)).encode()).hexdigest()


@dataclass
class PassResult:
    """What one timed pass measured and produced."""

    #: Host seconds from the first submit to the last completion.
    run_s: float
    #: Host ms on the client path, one entry per user submission.
    submit_ms: List[float]
    #: Workflows submitted to the engine, and how many did not succeed.
    workflows: int
    failed: int
    #: Per-layer counters and virtual-time results (deterministic).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Host seconds of phases outside ``run_s`` (steady: ``recover_s``).
    times: Dict[str, float] = field(default_factory=dict)
    #: Digest of the pass's virtual-time outcome.
    digest: str = ""
    #: Checks made on this pass's outputs that failed.
    failures: List[str] = field(default_factory=list)
    #: Host slowdown the times were divided by (see ``hostspeed``).
    slowdown: float = 1.0

    def at_reference_speed(self, slowdown: float) -> "PassResult":
        """This pass with every host time divided by ``slowdown``."""
        return replace(
            self,
            run_s=self.run_s / slowdown,
            submit_ms=[ms / slowdown for ms in self.submit_ms],
            times={name: s / slowdown for name, s in self.times.items()},
            slowdown=slowdown,
        )


def _engine_counters(registry: MetricsRegistry) -> Dict[str, float]:
    def total(name: str, **labels) -> float:
        metric = registry.get(name)
        if metric is None:
            return 0.0
        return metric.value(**labels) if labels else metric.total()

    placements = total("admission_events_total", event="placement")
    deferrals = total("admission_events_total", event="deferral")
    tried = placements + deferrals
    return {
        "engine.passes": total("admission_events_total", event="pass"),
        "engine.placements": placements,
        "engine.deferrals": deferrals,
        "engine.placement_yield": placements / tried if tried else 0.0,
        "engine.waitq_scan_steps": total("engine_waitq_scan_steps_total"),
        "engine.attempts": total("engine_attempts_total"),
        "engine.retries": total("engine_retries_total"),
        "caching.score_computes": total("cache_score_computes_total"),
        "caching.evictions": total("cache_evictions_total"),
        "caching.insertions": total("cache_insertions_total"),
        "caching.rejected": total("cache_rejected_total"),
    }


def _admission_outcome(records, pipeline) -> Tuple[Dict[str, float], int]:
    """Virtual-time results of an admission run, and its failure count."""
    latencies = [r.queue_latency for r in records if r.queue_latency is not None]
    finishes = [r.finish_time for r in records if r.finish_time is not None]
    first = min((r.arrival_time for r in records), default=0.0)
    failed = sum(
        1
        for r in records
        if r.record is None or r.record.phase != WorkflowPhase.SUCCEEDED
    )
    return (
        {
            "engine.makespan_s": max(finishes, default=first) - first,
            "engine.queue_p50_s": quantile(latencies, 0.50),
            "engine.queue_p95_s": quantile(latencies, 0.95),
            "engine.starvation_gap_s": pipeline.starvation_gap(),
        },
        failed,
    )


def _admission_rows(records) -> List[tuple]:
    return [
        (
            r.workflow_name,
            r.user,
            r.arrival_time,
            r.admitted,
            r.cluster_name,
            r.place_time,
            r.finish_time,
            r.deferrals,
            None if r.record is None else r.record.phase.value,
        )
        for r in records
    ]


class Workload:
    """One seeded workload; subclasses fill in the three phases."""

    name = ""

    def size_for(self, seed: int) -> Optional[int]:
        """Input size for ``seed``, or None for a fixed-size workload.

        The harness calls it before the set-up timer starts, so a search
        for the size is not counted as set-up.
        """
        return None

    def setup(self, seed: int, spans, size: Optional[int]):
        raise NotImplementedError

    def run(self, state) -> PassResult:
        raise NotImplementedError

    def check(self, seed: int, first: PassResult) -> List[str]:
        """Reference checks against the first pass; failures as text."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# corpus: SQLFlow + NL scenario corpus through every layer.
# ---------------------------------------------------------------------------


def corpus_clusters() -> List[Cluster]:
    """The tight two-cluster fleet the corpus bench runs on."""
    return [
        Cluster.uniform(
            "bench-c0", 2, cpu_per_node=8.0, memory_per_node=32 * GB, gpu_per_node=2
        ),
        Cluster.uniform("bench-c1", 2, cpu_per_node=8.0, memory_per_node=32 * GB),
    ]


class Corpus(Workload):
    """Seeded SQL + NL corpus: frontends, split, lowering, admission,
    operator and cache, with each script's statements chained."""

    name = "corpus"

    #: Work units a node over the split budget counts for, against one
    #: per workflow: at HEAD, placing a node costs the splitter about as
    #: much host time as admission, operator and cache spend on three
    #: workflows.
    SPLIT_NODE_WORK = 3

    #: Split budget (steps) and cache size the corpus bench runs with.
    SPLIT_STEPS = 6
    CACHE_GB = 2.0

    def __init__(self, work: int = 500) -> None:
        #: Input size: the corpus grows until its workflows plus
        #: ``SPLIT_NODE_WORK`` per over-budget node reach ``work``, so
        #: every seed hands the stack about the same amount of work.
        self.work = work

    def entry_work(self, entry) -> int:
        over_budget = sum(len(ir) for ir in entry.irs if len(ir) > self.SPLIT_STEPS)
        return len(entry.irs) + self.SPLIT_NODE_WORK * over_budget

    def corpus_work(self, corpus: ScenarioCorpus) -> int:
        return sum(self.entry_work(e) for e in corpus.entries)

    def size_for(self, seed: int) -> int:
        """The smallest corpus size holding ``work`` work units.

        A persona's entries do not depend on the corpus size (growing
        the size appends entries), so one oversized build tells the work
        of every smaller size.
        """
        probe = 256
        while True:
            big = build_corpus(CorpusSpec(seed=seed, size=probe))
            personas = big.spec.personas
            work = {p: [0] for p in personas}
            for entry in big.entries:
                work[entry.persona].append(work[entry.persona][-1] + self.entry_work(entry))
            del big
            for size in range(1, probe + 1):
                counts = _allocate_counts(CorpusSpec(seed=seed, size=size))
                if sum(work[p][counts[p]] for p in personas) >= self.work:
                    return size
            probe *= 2

    def setup(self, seed: int, spans, size: Optional[int]):
        corpus = build_corpus(CorpusSpec(seed=seed, size=size))
        registry = MetricsRegistry()
        cache_kwargs = dict(
            policy="couler", capacity_bytes=int(self.CACHE_GB * GB), metrics=registry
        )
        manager = (
            TimedCacheManager(spans=spans, **cache_kwargs)
            if spans.enabled
            else CacheManager(**cache_kwargs)
        )
        fleet = FleetSpec(
            clusters=corpus_clusters(),
            arrivals=[],
            seed=corpus.spec.seed,
            tenant_weights=dict(CORPUS_TENANTS),
        )
        pipeline = build_pipeline(
            fleet,
            EngineConfig(),
            cache_manager=manager,
            skip_cached_steps=True,
            metrics=registry,
        )
        budget_cls = CountingBudgetModel if spans.enabled else BudgetModel
        return {
            "corpus": corpus,
            "lake": expand_code_lake(corpus.catalog.datasets()),
            "registry": registry,
            "manager": manager,
            "pipeline": pipeline,
            "budget": budget_cls(max_steps=self.SPLIT_STEPS),
            "spans": spans,
        }

    def run(self, state) -> PassResult:
        corpus, lake, pipeline = state["corpus"], state["lake"], state["pipeline"]
        budget, spans = state["budget"], state["spans"]
        splitter = WorkflowSplitter(budget)
        catalog = corpus.catalog
        compiled: Dict[str, list] = {}
        records: list = []
        submit_ms: List[float] = []
        statements = hits = modules = nodes = 0
        splits = parts = cut_edges = 0

        started = clock()
        for entry in corpus.entries:
            entry_started = clock()
            with spans.span("perfbench.submit", entry.name):
                if entry.rerun_of:
                    irs = [
                        clone_ir(ir, f"{entry.name}-s{i}")
                        for i, ir in enumerate(compiled[entry.rerun_of])
                    ]
                elif entry.kind == "sql":
                    with spans.span("sqlflow.compile"):
                        irs = compile_sql_entry(entry.source, entry.name)
                    statements += len(irs)
                else:
                    with spans.span("nl2wf.compile"):
                        task = build_nl_task(
                            catalog.by_name(entry.meta["domain"]),
                            entry.meta["sequence"],
                            entry.name,
                        )
                        ir, entry_hits = compile_nl_entry(task, lake, entry.name)
                    irs = [ir]
                    hits += entry_hits
                    modules += len(task.modules)
                compiled[entry.name] = irs
                executables = []
                for ir in irs:
                    nodes += len(ir)
                    if len(ir) > self.SPLIT_STEPS:
                        with spans.span("parallelism.split"):
                            plan = splitter.split(ir)
                            order = plan.topological_part_order()
                        splits += 1
                        parts += plan.num_parts
                        cut_edges += len(plan.cut_edges)
                        with spans.span("ir.lower"):
                            for index in order:
                                executables.append(plan.parts[index].to_executable())
                    else:
                        with spans.span("ir.lower"):
                            executables.append(ir.to_executable())
                with spans.span("engine.submit"):
                    submit_chain(pipeline, entry, executables, records, chain=True)
            submit_ms.append((clock() - entry_started) * 1e3)
        with spans.span("engine.run", "run"):
            pipeline.run()
        run_s = clock() - started

        virtual, failed = _admission_outcome(records, pipeline)
        done = [r.record for r in records if r.record is not None]
        cache_hits = sum(r.total_cache_hits() for r in done)
        cache_reads = cache_hits + sum(r.total_cache_misses() for r in done)
        counters = {
            **virtual,
            **_engine_counters(state["registry"]),
            "sqlflow.statements": statements,
            "nl2wf.retrieval_hit_ratio": hits / modules if modules else 0.0,
            "ir.nodes": nodes,
            "parallelism.splits": splits,
            "parallelism.parts": parts,
            "parallelism.cut_edges": cut_edges,
            "caching.hit_ratio": cache_hits / cache_reads if cache_reads else 0.0,
        }
        if isinstance(budget, CountingBudgetModel):
            counters["parallelism.exact_cost_calls"] = budget.exact_cost_calls
            counters["parallelism.yaml_bytes_sized"] = budget.yaml_bytes_sized
        if isinstance(state["manager"], TimedCacheManager):
            counters["caching.calls"] = state["manager"].calls

        failures = corpus_ir_mismatch(corpus, compiled)
        return PassResult(
            run_s=run_s,
            submit_ms=submit_ms,
            workflows=len(records),
            failed=failed,
            counters=counters,
            digest=digest(corpus_fingerprint(records)),
            failures=failures,
        )

    def check(self, seed: int, first: PassResult) -> List[str]:
        reference = sql_nl_pipeline.run(
            corpus=build_corpus(CorpusSpec(seed=seed, size=self.size_for(seed))),
            clusters=corpus_clusters(),
            cache_gb=self.CACHE_GB,
            split_max_steps=self.SPLIT_STEPS,
        )
        return digest_mismatch(
            "corpus fingerprint vs sql_nl_pipeline.run",
            first.digest,
            digest(reference.fingerprint),
        )


def corpus_fingerprint(records) -> List[tuple]:
    """The per-workflow fingerprint ``sql_nl_pipeline.run`` reports."""
    return [
        (
            r.workflow_name,
            r.user,
            round(r.arrival_time, 6),
            r.admitted,
            r.cluster_name,
            None if r.finish_time is None else round(r.finish_time, 6),
        )
        for r in records
    ]


def corpus_ir_mismatch(corpus: ScenarioCorpus, compiled: Dict[str, list]) -> List[str]:
    """Do the IRs this pass compiled reproduce the corpus digest?"""
    rebuilt = ScenarioCorpus(
        spec=corpus.spec,
        catalog=corpus.catalog,
        entries=[replace(e, irs=compiled[e.name]) for e in corpus.entries],
    )
    return digest_mismatch("corpus IR digest", rebuilt.digest(), corpus.digest())


def digest_mismatch(what: str, got: str, want: str) -> List[str]:
    return [] if got == want else [f"{what}: {got[:16]} != {want[:16]}"]


# ---------------------------------------------------------------------------
# bigdag: large DAGs split under the paper's budget and staged.
# ---------------------------------------------------------------------------


def bigdag_operator(seed: int, api_server: APIServer,
                    registry: Optional[MetricsRegistry] = None) -> WorkflowOperator:
    cluster = Cluster.uniform("bigdag", 24, cpu_per_node=32.0, memory_per_node=128 * GB)
    return WorkflowOperator(
        SimClock(), cluster, api_server=api_server, seed=seed, metrics=registry
    )


class BigDag(Workload):
    """Wide, deep and mid-sized layered DAGs, each split under the
    default 2 MB / 200-step budget and staged part by part on one
    operator through the API server, one DAG at a time."""

    name = "bigdag"

    #: (shape, layers, width) of each DAG in a pass.
    SHAPES = (("wide", 8, 60), ("deep", 100, 3), ("mid", 11, 20))

    def __init__(
        self,
        shapes: Sequence[Tuple[str, int, int]] = SHAPES,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> None:
        self.shapes = tuple(shapes)
        self.max_steps = max_steps

    def dags(self, seed: int):
        dags = []
        for index, (shape, layers, width) in enumerate(self.shapes):
            ir = build_big_workflow(
                num_layers=layers, width=width, seed=seed * len(self.shapes) + index
            )
            ir.name = f"bigdag-{index}-{shape}"
            dags.append(ir)
        return dags

    def setup(self, seed: int, spans, size: Optional[int]):
        registry = MetricsRegistry()
        api_cls = CountingAPIServer if spans.enabled else APIServer
        budget_cls = CountingBudgetModel if spans.enabled else BudgetModel
        return {
            "dags": self.dags(seed),
            "operator": bigdag_operator(seed, api_cls(), registry),
            "budget": budget_cls(max_steps=self.max_steps),
            "registry": registry,
            "spans": spans,
        }

    def run(self, state) -> PassResult:
        operator, budget, spans = state["operator"], state["budget"], state["spans"]
        splitter = WorkflowSplitter(budget)
        staged = []
        submit_ms: List[float] = []

        started = clock()
        for ir in state["dags"]:
            split_started = clock()
            with spans.span("parallelism.split", ir.name):
                plan = splitter.split(ir)
            submit_ms.append((clock() - split_started) * 1e3)
            with spans.span("parallelism.stage", ir.name):
                result = StagedSubmitter(operator).execute(plan)
            staged.append((ir, plan, result))
        run_s = clock() - started

        failures: List[str] = []
        workflows = failed = 0
        rows = []
        for ir, plan, result in staged:
            failures.extend(part_budget_violations(ir.name, plan, budget))
            workflows += plan.num_parts
            failed += sum(
                1
                for r in result.records
                if r is None or r.phase != WorkflowPhase.SUCCEEDED
            )
            rows.append((ir.name, fingerprint_staged(ir, result).outputs_digest()))
        counters = {
            **_engine_counters(state["registry"]),
            "engine.makespan_s": operator.clock.now,
            "ir.nodes": sum(len(ir) for ir, _, _ in staged),
            "parallelism.splits": sum(1 for _, p, _ in staged if p.num_parts > 1),
            "parallelism.parts": workflows,
            "parallelism.cut_edges": sum(len(p.cut_edges) for _, p, _ in staged),
            "k8s.api_requests": operator.api_server.request_count,
        }
        if isinstance(budget, CountingBudgetModel):
            counters["parallelism.exact_cost_calls"] = budget.exact_cost_calls
            counters["parallelism.yaml_bytes_sized"] = budget.yaml_bytes_sized
        api = operator.api_server
        if isinstance(api, CountingAPIServer):
            counters["k8s.crds"] = api.crds
            counters["k8s.crd_bytes"] = api.crd_bytes
            counters["k8s.crd_bytes_max"] = api.crd_bytes_max
        return PassResult(
            run_s=run_s,
            submit_ms=submit_ms,
            workflows=workflows,
            failed=failed,
            counters=counters,
            digest=digest(rows),
            failures=failures,
        )

    def check(self, seed: int, first: PassResult) -> List[str]:
        """Staged outputs must equal a monolithic run's, DAG by DAG."""
        rows = []
        for ir in self.dags(seed):
            operator = bigdag_operator(seed, APIServer())
            record = operator.submit(ir.to_executable())
            operator.run_to_completion()
            rows.append((ir.name, fingerprint_record(ir, record).outputs_digest()))
        return digest_mismatch(
            "bigdag staged outputs vs monolithic", first.digest, digest(rows)
        )


def part_budget_violations(name: str, plan, budget: BudgetModel) -> List[str]:
    """Every part must clear the CRD size limit and the step guard."""
    return [
        f"{name} part {index}: {cost}"
        for index, cost in enumerate(plan.costs)
        if cost.yaml_bytes > budget.max_yaml_bytes or cost.steps > budget.max_steps
    ]


# ---------------------------------------------------------------------------
# burst and steady: fleetgen workflows straight into admission.
# ---------------------------------------------------------------------------


class _Fleet(Workload):
    """Fleetgen arrivals into one admission pipeline."""

    def __init__(self, workflows: int) -> None:
        self.workflows = workflows

    def fleet(self, seed: int) -> FleetSpec:
        return build_fleet(self.workflows, seed=seed)

    def config(self, engine: str) -> EngineConfig:
        return EngineConfig(engine=engine)

    def pipeline(self, seed: int, engine: str, registry, journal=None):
        spec = self.fleet(seed)
        pipeline = build_pipeline(
            spec, self.config(engine), journal=journal, metrics=registry
        )
        return spec, pipeline

    def submit_and_run(self, spec, pipeline, spans) -> Tuple[list, List[float]]:
        records: list = []
        submit_ms: List[float] = []
        for at, workflow, user, priority, slo_class in spec.arrivals:
            submit_started = clock()
            with spans.span("engine.submit", workflow.name):
                records.append(
                    pipeline.submit_at(
                        at, workflow, user=user, priority=priority, slo_class=slo_class
                    )
                )
            submit_ms.append((clock() - submit_started) * 1e3)
        with spans.span("engine.run", "run"):
            pipeline.run()
        return records, submit_ms

    def reference_digest(self, seed: int) -> str:
        """Digest of the same input run with the naive engine."""
        spec, pipeline = self.pipeline(seed, "naive", MetricsRegistry())
        records, _ = self.submit_and_run(spec, pipeline, NULL_SPANS)
        return digest(_admission_rows(records))

    def check(self, seed: int, first: PassResult) -> List[str]:
        return digest_mismatch(
            f"{self.name} fast vs naive engine", first.digest, self.reference_digest(seed)
        )


class Burst(_Fleet):
    """Every fleetgen arrival at virtual t=0 on the 6-cluster fleet,
    weighted-fair with aging: the admission backlog dominates."""

    name = "burst"

    def __init__(self, workflows: int = 300) -> None:
        super().__init__(workflows)

    def fleet(self, seed: int) -> FleetSpec:
        spec = build_fleet(self.workflows, seed=seed)
        spec.arrivals = [(0.0, *arrival[1:]) for arrival in spec.arrivals]
        return spec

    def config(self, engine: str) -> EngineConfig:
        return EngineConfig(
            engine=engine,
            fairness="weighted-fair",
            policy=PolicyConfig(aging_rate=0.01),
        )

    def setup(self, seed: int, spans, size: Optional[int]):
        registry = MetricsRegistry()
        spec, pipeline = self.pipeline(seed, "fast", registry)
        return {"spec": spec, "pipeline": pipeline, "registry": registry, "spans": spans}

    def run(self, state) -> PassResult:
        started = clock()
        records, submit_ms = self.submit_and_run(
            state["spec"], state["pipeline"], state["spans"]
        )
        run_s = clock() - started
        virtual, failed = _admission_outcome(records, state["pipeline"])
        return PassResult(
            run_s=run_s,
            submit_ms=submit_ms,
            workflows=len(records),
            failed=failed,
            counters={**virtual, **_engine_counters(state["registry"])},
            digest=digest(_admission_rows(records)),
        )


class Steady(_Fleet):
    """Fleetgen at one arrival per 0.25 virtual s, journaled; the
    journal is dumped, then loaded back and every stream replayed."""

    name = "steady"

    def __init__(self, workflows: int = 1500, out_dir: str = ".") -> None:
        super().__init__(workflows)
        self.out_dir = out_dir

    def setup(self, seed: int, spans, size: Optional[int]):
        registry = MetricsRegistry()
        journal = Journal()
        spec, pipeline = self.pipeline(seed, "fast", registry, journal=journal)
        path = os.path.join(self.out_dir, f"journal-{os.getpid()}-{seed}.jsonl")
        return {
            "spec": spec,
            "pipeline": pipeline,
            "registry": registry,
            "journal": journal,
            "path": path,
            "spans": spans,
        }

    def run(self, state) -> PassResult:
        spans, journal, path = state["spans"], state["journal"], state["path"]
        try:
            started = clock()
            records, submit_ms = self.submit_and_run(
                state["spec"], state["pipeline"], spans
            )
            with spans.span("journal.dump", "journal"):
                journal.dump(path)
            dumped = clock()
            run_s = dumped - started
            with spans.span("journal.load", "journal"):
                loaded, load_error = load_journal(path)
            with spans.span("journal.replay", "journal"):
                recovered = (
                    {s: loaded.materialize(s) for s in loaded.streams()}
                    if loaded is not None
                    else {}
                )
            recover_s = clock() - dumped
            size = os.path.getsize(path)
        finally:
            if os.path.exists(path):
                os.remove(path)

        virtual, failed = _admission_outcome(records, state["pipeline"])
        failures = load_error + journal_mismatch(journal, loaded)
        failures += replay_mismatch(records, recovered)
        return PassResult(
            run_s=run_s,
            submit_ms=submit_ms,
            workflows=len(records),
            failed=failed,
            counters={
                **virtual,
                **_engine_counters(state["registry"]),
                "journal.records": len(journal),
                "journal.bytes": size,
            },
            times={"journal.recover_s": recover_s},
            digest=digest(_admission_rows(records)),
            failures=failures,
        )


def load_journal(path: str) -> Tuple[Optional[Journal], List[str]]:
    """``Journal.load``, with a torn or corrupt file reported as a failure."""
    try:
        return Journal.load(path), []
    except (ValueError, KeyError, JournalError) as exc:
        return None, [f"journal load failed: {type(exc).__name__}: {exc}"]


def journal_mismatch(memory: Journal, loaded: Optional[Journal]) -> List[str]:
    """The loaded journal must equal the in-memory one record for record."""
    if loaded is None:
        return []
    want = [r.to_json() for r in memory.records()]
    got = [r.to_json() for r in loaded.records()]
    if got == want:
        return []
    if len(got) != len(want):
        return [f"journal: loaded {len(got)} records, wrote {len(want)}"]
    index = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    return [f"journal: record {index} differs after load"]


def replay_mismatch(records, recovered: Dict[str, object]) -> List[str]:
    """Every replayed stream must end in the live workflow's phase."""
    bad = [
        r.workflow_name
        for r in records
        if r.record is not None
        and (
            recovered.get(r.workflow_name) is None
            or recovered[r.workflow_name].phase != r.record.phase
        )
    ]
    return [f"journal replay: {len(bad)} workflows differ, first {bad[0]}"] if bad else []


WORKLOADS = {"corpus": Corpus, "bigdag": BigDag, "burst": Burst, "steady": Steady}

__all__ = [
    "WORKLOADS",
    "BigDag",
    "Burst",
    "Corpus",
    "PassResult",
    "Steady",
    "Workload",
    "corpus_ir_mismatch",
    "digest_mismatch",
    "journal_mismatch",
    "load_journal",
    "part_budget_violations",
    "quantile",
    "replay_mismatch",
]
