"""Timed passes, the traced run, and the result the benchmark prints.

One invocation runs one workload for a fixed host-time budget.  Pass
``k`` gets the seed ``seed * 1000 + k`` and is set up from scratch
(inputs and program objects), so a pass never sees an input or an
object an earlier pass touched.

Every host time is read from :func:`hostspeed.clock` and divided by the
host slowdown a :class:`hostspeed.SpeedProbe` sampled while it was
measured, so it is the time at the reference host speed.  An untimed
warm-up pass comes first.

* ``trace=0``: every pass is untraced; the end-to-end metrics are
  medians over passes.
* ``trace=1``: each untraced pass is followed by a traced pass on the
  same seed.  Traced passes record spans around each layer call and
  hand counting probes to the program; per-layer times are medians of
  span self time over traced passes, counters come from the first
  traced pass (they repeat exactly for a given pass seed), and the
  tracing overhead is the median over pairs of traced ``run_s`` /
  untraced ``run_s``, minus one.

Correctness checks run after the timed passes, against the first
pass's outputs, and every traced pass must reach its untraced pair's
outcome digest; a failed check makes ``correct`` false and counts in
``failed``.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from hostspeed import SpeedProbe, clock
from spans import NULL_SPANS, Spans, dump_spans
from workloads import WORKLOADS, PassResult, Workload, quantile

#: Fewest passes (untraced) or pass pairs (traced) per invocation.
MIN_PASSES = {False: 3, True: 2}

#: Pass index of the untimed warm-up pass that precedes the timed ones.
WARM_UP = 999

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


def _metric_units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


END_TO_END = _metric_units("end_to_end")
PER_LAYER = _metric_units("per_layer")

#: Span names whose self time is reported under a different metric name.
_SPAN_METRICS = {
    "sqlflow.compile": "sqlflow.compile_ms",
    "nl2wf.compile": "nl2wf.compile_ms",
    "ir.lower": "ir.lower_ms",
    "parallelism.split": "parallelism.split_ms",
    "parallelism.stage": "parallelism.stage_ms",
    "engine.submit": "engine.submit_ms",
    "engine.run": "engine.run_ms",
    "journal.dump": "journal.dump_ms",
    "journal.load": "journal.load_ms",
    "journal.replay": "journal.replay_ms",
}


def pass_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def set_up(workload: Workload, seed: int, spans) -> Tuple[object, float]:
    """Fresh state for one pass, and the seconds its set-up took at the
    reference host speed.

    The workload's input-size search runs before the timer starts.
    """
    size = workload.size_for(seed)
    with SpeedProbe() as probe:
        started = clock()
        state = workload.setup(seed, spans, size)
        seconds = clock() - started
    return state, seconds / probe.slowdown()


def run_pass(workload: Workload, state) -> PassResult:
    """One pass, its host times scaled to the reference host speed."""
    with SpeedProbe() as probe:
        result = workload.run(state)
    return result.at_reference_speed(probe.slowdown())


def trace_mismatch(untraced: List[PassResult], traced: List[PassResult]) -> List[str]:
    """A traced pass must decide exactly what its untraced pair did:
    the probes only count and time, and per-layer counters are read
    from traced passes."""
    return [
        f"pass {index}: traced digest {t.digest[:16]} != untraced {u.digest[:16]}"
        for index, (u, t) in enumerate(zip(untraced, traced))
        if t.digest != u.digest
    ]


def _span_metrics(spans: Spans, slowdown: float) -> Dict[str, float]:
    """Per-layer self time of one traced pass, in ms at the reference
    host speed."""
    out = {name: 0.0 for name in _SPAN_METRICS.values()}
    out["caching.ms"] = 0.0
    out["perfbench.other_ms"] = 0.0
    for name, seconds in spans.self_seconds().items():
        if name in _SPAN_METRICS:
            key = _SPAN_METRICS[name]
        elif name.startswith("caching."):
            key = "caching.ms"
        else:
            key = "perfbench.other_ms"
        out[key] += seconds * 1e3 / slowdown
    return out


def time_shares(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    """Each span metric's share of the traced self time, largest first."""
    totals = {name: sum(p[name] for p in per_pass) for name in per_pass[0]}
    grand = sum(totals.values())
    ranked = sorted(totals.items(), key=lambda item: -item[1])
    return {name: value / grand for name, value in ranked if value > 0}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float = 0.0,
    out_dir: Optional[str] = None,
    log=sys.stderr,
) -> dict:
    """Run ``workload`` for ``seconds`` of passes; return the result object."""
    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    traced_spans: List[Spans] = []
    setups: List[float] = []
    failures: List[str] = []
    # The first pass in a process pays for lazy imports and for growing
    # the heap; it is checked and counted, but not timed.
    state, _ = set_up(workload, pass_seed(seed, WARM_UP), NULL_SPANS)
    warm_up = workload.run(state)
    del state
    gc.collect()
    failures.extend(f"warm-up pass: {f}" for f in warm_up.failures)
    loop_started = time.perf_counter()
    index = 0
    while True:
        # A traced pass reruns the untraced pass's seed on fresh objects,
        # so the pair differs only by the recording.
        for with_spans in (False, True) if trace else (False,):
            spans = Spans() if with_spans else NULL_SPANS
            state, setup_s = set_up(workload, pass_seed(seed, index), spans)
            setups.append(setup_s)
            result = run_pass(workload, state)
            del state
            gc.collect()
            failures.extend(f"pass {index}: {f}" for f in result.failures)
            if with_spans:
                traced.append(result)
                traced_spans.append(spans)
            else:
                untraced.append(result)
        index += 1
        elapsed = time.perf_counter() - loop_started
        if index >= MIN_PASSES[trace] and elapsed + elapsed / index > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures.extend(f"check: {f}" for f in workload.check(pass_seed(seed, 0), untraced[0]))
    failures.extend(f"check: {f}" for f in trace_mismatch(untraced, traced))
    passes = [warm_up] + untraced + traced
    workflows = sum(p.workflows for p in passes)
    failed_workflows = sum(p.failed for p in passes)
    run_s = [p.run_s for p in untraced]
    # Client-path time per pass, summed over its submissions: a single
    # submission can be shorter than the host's fast and slow spells.
    submit_s = statistics.median(sum(p.submit_ms) / 1e3 for p in untraced)

    if trace:
        metrics = {name: _metric(0.0, unit) for name, unit in PER_LAYER.items()}
        for name, value in traced[0].counters.items():
            metrics[name]["value"] = value
        for name in traced[0].times:
            metrics[name]["value"] = statistics.median(p.times[name] for p in untraced)
        per_pass = [
            _span_metrics(spans, t.slowdown) for spans, t in zip(traced_spans, traced)
        ]
        for name in per_pass[0]:
            metrics[name]["value"] = statistics.median(p[name] for p in per_pass)
        traced_run_s = statistics.median(p.run_s for p in traced)
        metrics["perfbench.traced_run_s"]["value"] = traced_run_s
        metrics["perfbench.trace_overhead"]["value"] = statistics.median(
            t.run_s / u.run_s for t, u in zip(traced, untraced)
        ) - 1.0
        metrics["perfbench.first_last_ratio"]["value"] = run_s[-1] / run_s[0]
        # Percentiles over the submissions of every timed pass together, so
        # that no one pass's mix of cheap and costly submissions sets them.
        submitted = [ms for p in untraced for ms in p.submit_ms]
        metrics["perfbench.submit_ms_p50"]["value"] = quantile(submitted, 0.50)
        metrics["perfbench.submit_ms_p95"]["value"] = quantile(submitted, 0.95)
        metrics["perfbench.host_slowdown"]["value"] = statistics.median(
            p.slowdown for p in untraced
        )
        metrics["perfbench.wall_run_s"]["value"] = statistics.median(
            p.run_s * p.slowdown for p in untraced
        )
        shares = time_shares(per_pass)
        if out_dir is not None:
            dump_spans(
                os.path.join(out_dir, f"spans-{workload.name}-{seed}.json"),
                traced_spans,
            )
    else:
        values = {
            "run_s": statistics.median(run_s),
            "submit_s": submit_s,
            "succeeded_frac": (workflows - failed_workflows) / workflows,
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
        shares = {}

    print(
        f"perfbench {workload.name} seed={seed} trace={int(trace)} "
        f"passes={index} run_s={[round(s, 3) for s in run_s]} "
        f"slowdown={[round(p.slowdown, 2) for p in untraced]} "
        f"setup_s={[round(s, 3) for s in setups]} import_s={import_s:.3f}",
        file=log,
    )
    if shares:
        print(
            "perfbench time shares: "
            + " ".join(f"{k}={v:.3f}" for k, v in shares.items()),
            file=log,
        )
    for failure in failures:
        print(f"perfbench FAILED {failure}", file=log)
    return {
        "correct": not failures and failed_workflows == 0,
        "attempted": max(1, workflows),
        "failed": failed_workflows + len(failures),
        "metrics": metrics,
    }


def make_workload(name: str, out_dir: str) -> Workload:
    if name == "steady":
        return WORKLOADS[name](out_dir=out_dir)
    return WORKLOADS[name]()
