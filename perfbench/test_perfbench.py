"""Self-tests for the benchmark, at tiny sizes.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import hostspeed
from harness import pass_seed, run_workload, set_up, trace_mismatch
from spans import NULL_SPANS, Spans
from workloads import (
    BigDag,
    Burst,
    Corpus,
    PassResult,
    Steady,
    corpus_ir_mismatch,
    journal_mismatch,
    load_journal,
    part_budget_violations,
    replay_mismatch,
)

from repro.engine.journal import Journal
from repro.engine.status import WorkflowPhase
from repro.parallelism.budget import BudgetCost, BudgetModel
from repro.parallelism.splitter import SplitPlan
from repro.workloads.corpus import CorpusSpec, build_corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def tiny(name: str, tmp_path):
    return {
        "corpus": lambda: Corpus(work=60),
        "bigdag": lambda: BigDag(shapes=(("wide", 3, 6), ("deep", 10, 2)), max_steps=8),
        "burst": lambda: Burst(workflows=24),
        "steady": lambda: Steady(workflows=40, out_dir=str(tmp_path)),
    }[name]()


WORKLOAD_NAMES = ("corpus", "bigdag", "burst", "steady")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_its_unit(name, trace, tmp_path, benchmark_json):
    result = run_workload(
        tiny(name, tmp_path), seed=3, seconds=0.0, trace=trace,
        out_dir=str(tmp_path), log=io.StringIO(),
    )
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in benchmark_json[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        for name_, metric in result["metrics"].items():
            assert metric["value"] > 0, name_
    else:
        assert os.path.exists(tmp_path / f"spans-{name}-3.json")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_fresh_passes_repeat_exactly(name, tmp_path):
    """Two passes on the same seed, each from fresh objects, agree on
    every counter and on the outcome digest: no state survives a pass."""
    workload = tiny(name, tmp_path)
    runs = [workload.run(set_up(workload, pass_seed(5, 0), Spans())[0]) for _ in range(2)]
    assert runs[0].counters == runs[1].counters
    assert runs[0].digest == runs[1].digest
    assert not runs[0].failures


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_check_fails_on_altered_fingerprint(name, tmp_path):
    workload = tiny(name, tmp_path)
    first = workload.run(set_up(workload, pass_seed(7, 0), NULL_SPANS)[0])
    assert workload.check(pass_seed(7, 0), first) == []
    altered = replace(first, digest="0" * 64)
    assert workload.check(pass_seed(7, 0), altered)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_trace_check_fails_when_a_probe_changes_decisions(name, tmp_path):
    workload = tiny(name, tmp_path)
    untraced = workload.run(set_up(workload, pass_seed(4, 0), NULL_SPANS)[0])
    traced = workload.run(set_up(workload, pass_seed(4, 0), Spans())[0])
    assert trace_mismatch([untraced], [traced]) == []
    assert trace_mismatch([untraced], [replace(traced, digest="0" * 64)])


def test_corpus_ir_check_fails_on_altered_ir():
    corpus = build_corpus(CorpusSpec(seed=9, size=Corpus(work=60).size_for(9)))
    compiled = {e.name: list(e.irs) for e in corpus.entries}
    assert corpus_ir_mismatch(corpus, compiled) == []
    name = corpus.entries[0].name
    compiled[name] = compiled[name][:-1]
    assert corpus_ir_mismatch(corpus, compiled)


def test_corpus_build_is_the_smallest_holding_the_work():
    workload = Corpus(work=150)
    for seed in (2, 3, 4):
        size = workload.size_for(seed)
        assert workload.corpus_work(build_corpus(CorpusSpec(seed=seed, size=size))) >= 150
        smaller = build_corpus(CorpusSpec(seed=seed, size=size - 1))
        assert workload.corpus_work(smaller) < 150


def test_part_budget_violation_is_reported():
    budget = BudgetModel(max_steps=4)
    plan = SplitPlan(original_name="wf")
    plan.costs = [BudgetCost(yaml_bytes=100, steps=4, pods=4)]
    assert part_budget_violations("wf", plan, budget) == []
    plan.costs.append(BudgetCost(yaml_bytes=100, steps=5, pods=5))
    assert part_budget_violations("wf", plan, budget)
    plan.costs = [BudgetCost(yaml_bytes=budget.max_yaml_bytes + 1, steps=1, pods=1)]
    assert part_budget_violations("wf", plan, budget)


def _journal(tmp_path):
    journal = Journal()
    for index in range(5):
        journal.append(f"wf-{index % 2}", "submitted", float(index), {"n": index})
    path = str(tmp_path / "journal.jsonl")
    journal.dump(path)
    return journal, path


def test_journal_check_passes_on_faithful_dump(tmp_path):
    journal, path = _journal(tmp_path)
    loaded, errors = load_journal(path)
    assert errors == [] and journal_mismatch(journal, loaded) == []


def test_journal_check_fails_on_torn_last_line(tmp_path):
    journal, path = _journal(tmp_path)
    with open(path, "rb+") as handle:
        handle.truncate(os.path.getsize(path) - 7)
    loaded, errors = load_journal(path)
    assert errors and loaded is None


def test_journal_check_fails_on_dropped_line(tmp_path):
    journal, path = _journal(tmp_path)
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines[:-1])
    loaded, errors = load_journal(path)
    assert errors == [] and journal_mismatch(journal, loaded)


def test_journal_check_fails_on_altered_record(tmp_path):
    journal, path = _journal(tmp_path)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace('"n":3', '"n":4'))
    loaded, errors = load_journal(path)
    assert errors == [] and journal_mismatch(journal, loaded)


def test_replay_check_fails_on_altered_phase(tmp_path):
    workload = Steady(workflows=20, out_dir=str(tmp_path))
    state, _ = set_up(workload, 11, NULL_SPANS)
    records, _ = workload.submit_and_run(state["spec"], state["pipeline"], NULL_SPANS)
    recovered = {r.workflow_name: replace(r.record) for r in records}
    assert replay_mismatch(records, recovered) == []
    recovered[records[0].workflow_name].phase = WorkflowPhase.FAILED
    assert replay_mismatch(records, recovered)


def test_span_self_time_subtracts_children():
    spans = Spans()
    with spans.span("engine.run", "run"):
        with spans.span("caching.fetch"):
            pass
    outer, inner = spans.spans
    assert inner.rid == "run" and inner.parent == 0
    self_times = spans.self_seconds()
    assert self_times["caching.fetch"] == pytest.approx(inner.end - inner.start)
    assert self_times["engine.run"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )


def _busy(seconds: float) -> None:
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        pass


def test_probe_time_is_left_out_of_the_clock():
    started_wall, started = time.perf_counter(), hostspeed.clock()
    with hostspeed.SpeedProbe() as probe:
        _busy(0.3)
    wall, net = time.perf_counter() - started_wall, hostspeed.clock() - started
    probed = sum(sum(samples) for samples in probe.samples)
    assert all(probe.samples)
    assert probed > 0
    assert wall - net == pytest.approx(probed, abs=1e-4)
    assert probe.slowdown() > 0


def test_unsampled_block_has_no_slowdown():
    with hostspeed.SpeedProbe() as probe:
        pass
    assert probe.slowdown() == 1.0


def test_pass_times_are_scaled_to_reference_speed():
    measured = PassResult(run_s=3.0, submit_ms=[6.0, 1.5], workflows=1, failed=0,
                          times={"journal.recover_s": 1.5})
    scaled = measured.at_reference_speed(1.5)
    assert scaled.run_s == pytest.approx(2.0)
    assert scaled.submit_ms == pytest.approx([4.0, 1.0])
    assert scaled.times == pytest.approx({"journal.recover_s": 1.0})
    assert scaled.slowdown == 1.5


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "burst", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
