"""Benchmark runner for the Prolog→SQL coupling library.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm_reads --seed 1 --seconds 10 --trace 0

One process, one client, closed loop: the runner sends the next
operation only after the previous one returned.  ``--trace 0`` measures
the end-to-end metrics with no timing wrappers installed; ``--trace 1``
installs the outside-in layer tracer (``layertrace.py``) and reports the
per-layer metrics instead.  Either way a seeded sample of the
operations is checked against reference answers that never come from
the SQL path, and a mismatch fails the command (exit status 1).

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The metric glossary is in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The measured phase is cut into blocks of this many seconds.  The
#: reference kernel (``refclock.py``) is sampled at every block boundary,
#: and each block's times are scaled to reference time by the mean of
#: the samples on its two sides.  A ``--trace 1`` run alternates
#: untraced and traced blocks.
BLOCK_SECONDS = 0.25
#: A run stops early once this many operations have failed: the result
#: is a failure either way, and an error storm must not fill memory.
MAX_FAILURES = 100
#: Percentile reported beside the median (needs >= 1000 samples to have
#: ten beyond it).
TAIL = 0.99
#: The gated tail percentile of the end-to-end result.  The p99 of a
#: ``write_churn`` cycle lands on either side of a cluster of rare slow
#: cycles (collector pauses, repair enumeration) depending on the seed,
#: so it is printed but not the gated figure.
GATED_TAIL = 0.95

#: Tracer layers reported as ``<layer>.self_us``.
SELF_TIME_LAYERS = (
    "prolog.parse",
    "prolog.kb_write",
    "coupling.session",
    "coupling.shape",
    "coupling.plan_lookup",
    "coupling.bind",
    "coupling.result_cache",
    "coupling.recursion",
    "metaevaluate",
    "optimize",
    "sql",
    "dbms.execute",
    "dbms.write",
    "dbms.merge",
    "materialize",
    "materialize.intervals",
    "cqa",
    "observe",
)

#: Serving-layer metrics, from ``warm_reads``' serving segment.
SERVING_METRICS = ("serving.worker_us", "serving.transport_us", "serving.publish_us")


def _fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _host() -> dict:
    import sqlite3

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcClock:
    """Time spent in the collector, from ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.counting = False
        self._start = None

    def __call__(self, phase, _info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            if self.counting:
                self.seconds += time.perf_counter() - self._start
            self._start = None


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def run(args) -> int:
    from workloads import CLASSES, WORKLOADS

    work_dir = HERE / "_work"
    work_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    ref = refclock.ReferenceClock()

    tracer = None
    gc_clock = GcClock()
    if args.trace:
        from layertrace import LayerTracer

        # Installed before any session exists: the materialize listener
        # is bound to the knowledge base when the session is built.
        tracer = LayerTracer()
        tracer.install()
        gc.callbacks.append(gc_clock)

    try:
        result, problems = _measure(args, workload, ref, tracer, gc_clock, CLASSES)
    finally:
        if tracer is not None:
            tracer.restore()
            gc.callbacks.remove(gc_clock)
    if tracer is not None and not tracer.originals_restored():
        print("perfbench: tracer left a wrapper behind", file=sys.stderr)
        return 1
    if tracer is not None and workload.serving_segment:
        problems += _serving(workload, work_dir, ref, result)
    ref.close()

    print(f"reference mismatches: {len(problems)}")
    for problem in problems[:10]:
        print("MISMATCH " + problem)
    result["correct"] = not problems
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


def _measure(args, workload, ref, tracer, gc_clock, classes) -> tuple[dict, list]:
    """Set up, run the measured phase and report: ``(result, mismatches)``.

    The set-ups are split between before and after the measured phase,
    so that one slow stretch of a shared host cannot cover all of them;
    the last one before it serves the measured phase.
    """
    setup_times: list = []
    setup_phases: list = []
    after = workload.setup_repeats // 2
    ctx = _set_up(workload, ref, workload.setup_repeats - after, setup_times, setup_phases)
    gc.collect()
    try:
        outcome = _measured_phase(args, workload, ctx, ref, tracer, gc_clock)
    finally:
        ctx.close()
    if after:
        _set_up(workload, ref, after, setup_times, setup_phases).close()

    problems = []
    for sample in outcome["samples"]:
        problems.extend(workload.check(sample))

    latencies = outcome["latencies"]
    all_ops = sorted(outcome["elapsed"])
    attempted = outcome["ops"]
    failed = outcome["failed"]
    peak_rss_mb = outcome["peak_rss_mb"]
    ops_per_s = len(all_ops) / sum(all_ops)
    op_p50 = statistics.median(all_ops)
    op_p95 = _percentile(all_ops, GATED_TAIL)
    kernel = outcome["kernel"]

    # -- human-readable report ----------------------------------------------
    host = _host()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("host " + "  ".join(f"{k}={v}" for k, v in host.items()))
    print(f"reference kernel: median {statistics.median(kernel) * 1e3:.3f} ms, "
          f"range {min(kernel) * 1e3:.3f}-{max(kernel) * 1e3:.3f} ms over "
          f"{len(kernel)} samples; times below are reference times")
    print(f"{'metric':<24}{'value':>14}  {'unit':<7}{'samples':>8}")
    line("setup_s", statistics.median(setup_times), "s", len(setup_times))
    line("ops_per_s", ops_per_s, "ops/s", attempted)
    for klass in classes:
        _class_lines(klass, latencies.get(klass))
    line("op_p50_us", op_p50 * 1e6, "us", len(all_ops))
    line("op_p95_us", op_p95 * 1e6, "us", len(all_ops))
    line("op_p99_us", _percentile(all_ops, TAIL) * 1e6, "us", len(all_ops))
    line("peak_rss_mb", peak_rss_mb, "MB")
    line("error_rate", _ratio(failed, attempted), "ratio", attempted)
    if outcome["errors"]:
        print("errors: " + "; ".join(outcome["errors"][:5]))
    print(f"reference checks: {len(outcome['samples'])} sampled operations")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_us": (op_p50 * 1e6, "us"),
            "op_p95_us": (op_p95 * 1e6, "us"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = _layer_metrics(tracer, gc_clock, outcome, setup_phases)
        spans = HERE / "_work" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        print(f"spans: {tracer.dump(spans)} written to {spans.relative_to(ROOT)}")

    result = {
        "correct": None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    return result, problems


def _set_up(workload, ref, count: int, times: list, phases_list: list):
    """Set the workload up ``count`` times; returns the last context.

    Each set-up and its phases are scaled to reference time by kernel
    samples taken just before and just after it.
    """
    ctx = None
    for _ in range(count):
        if ctx is not None:
            ctx.close()
        # The previous set-up's garbage is collected outside the timing.
        gc.collect()
        phases: dict = {}
        before = ref.sample()
        started = time.perf_counter()
        ctx = workload.setup(phases)
        wall = time.perf_counter() - started
        scale = refclock.factor(before, ref.sample())
        times.append(wall * scale)
        phases_list.append({name: seconds * scale for name, seconds in phases.items()})
    return ctx


def line(name, value, unit, samples="") -> None:
    """One row of the human-readable table."""
    shown = f"{value:14.4f}" if isinstance(value, float) else f"{value:>14}"
    print(f"{name:<24}{shown}  {unit:<7}{samples!s:>8}")


def _class_lines(klass: str, latencies) -> None:
    """``<class>_p50_us`` and ``<class>_p99_us`` rows, with sample counts."""
    if not latencies:
        return
    values = sorted(latencies)
    n = len(values)
    line(f"{klass}_p50_us", statistics.median(values) * 1e6, "us", n)
    line(f"{klass}_p99_us", _percentile(values, TAIL) * 1e6, "us",
         n if n >= 1000 else f"{n}<1000")


def _measured_phase(args, workload, ctx, ref, tracer, gc_clock) -> dict:
    """Run operations for ``--seconds`` (and at least ``count_ops`` of them).

    Operation times are recorded in reference time (see ``BLOCK_SECONDS``).
    """
    operations = workload.operations(ctx)
    check_rng = random.Random(f"{args.seed}:{workload.name}:check")
    to_check = set(check_rng.sample(range(workload.count_ops), workload.check_ops))
    latencies: dict = {}
    elapsed_all: list = []  # reference seconds per operation
    kernel: list = []  # kernel samples at the block boundaries
    block_elapsed: list = []  # this block's wall seconds per operation
    block_timings: list = []  # this block's (class, wall seconds)
    samples = []
    errors: list = []
    counts_before = workload.counters(ctx)
    counts_after = None
    prefix = {"writes": 0, "consistent": 0, "answers": 0}
    mode_ops = [0, 0]
    mode_busy = [0.0, 0.0]
    clock = time.perf_counter
    traced = False

    def close_block():
        kernel.append(ref.sample())
        scale = refclock.factor(kernel[-2], kernel[-1])
        elapsed_all.extend(seconds * scale for seconds in block_elapsed)
        for klass, seconds in block_timings:
            latencies.setdefault(klass, []).append(seconds * scale)
        mode_busy[traced] += sum(block_elapsed) * scale
        block_elapsed.clear()
        block_timings.clear()

    kernel.append(ref.sample())
    index = 0
    started = clock()
    block_end = started + BLOCK_SECONDS
    while True:
        now = clock()
        if now >= block_end:
            close_block()
            if tracer is not None:
                traced = not traced
            now = clock()
            block_end = now + BLOCK_SECONDS
        if now - started >= args.seconds and index >= workload.count_ops:
            break
        if len(errors) >= MAX_FAILURES:
            break
        if tracer is not None:
            tracer.observing = index < workload.count_ops
        op = next(operations)
        timings: list = []
        if traced:
            # Spans and collector time count only inside operations, not
            # in the benchmark's own bookkeeping between them.
            tracer.active = gc_clock.counting = True
            with tracer.operation(index):
                elapsed, result = _attempt(workload, ctx, op, timings, errors)
            tracer.active = gc_clock.counting = False
        else:
            elapsed, result = _attempt(workload, ctx, op, timings, errors)
        block_timings.extend(timings)
        block_elapsed.append(elapsed)
        mode_ops[traced] += 1
        if index < workload.count_ops:
            prefix["writes"] += sum(1 for klass, _t in timings if klass == "write")
            if result is not None:
                for kind, _goal, answers in workload.reads(op, result):
                    prefix["answers"] += len(answers)
                    prefix["consistent"] += kind == "ask_consistent"
                if index in to_check:
                    samples.append(workload.snapshot(ctx, op, result))
            if index == workload.count_ops - 1:
                counts_after = workload.counters(ctx)
                # At a fixed operation count, not at the end of a run of
                # fixed length: the library's caches and the runner's own
                # records grow with the operations finished, and a faster
                # library must not read as a larger one.
                peak_rss_mb = _peak_rss_mb()
        index += 1
    if block_elapsed:
        close_block()
    if tracer is not None:
        tracer.observing = False
    if counts_after is None:
        counts_after = workload.counters(ctx)
        peak_rss_mb = _peak_rss_mb()
    counts = {
        name: counts_after[name] - counts_before[name] for name in counts_before
    }
    return {
        "ops": index,
        "failed": len(errors),
        "errors": errors,
        "latencies": latencies,
        "elapsed": elapsed_all,
        "kernel": kernel,
        "peak_rss_mb": peak_rss_mb,
        "samples": samples,
        "counts": counts,
        "prefix": prefix,
        "count_ops": workload.count_ops,
        "mode_ops": mode_ops,
        "mode_busy": mode_busy,
    }


def _attempt(workload, ctx, op, timings: list, errors: list):
    """Run one operation: ``(seconds, result)``; a failure is recorded."""
    begin = time.perf_counter()
    try:
        result = workload.execute(ctx, op, timings)
    except Exception as error:  # noqa: BLE001 - counted and reported
        errors.append(f"{op[1]}: {type(error).__name__}: {error}")
        result = None
    return time.perf_counter() - begin, result


def _layer_metrics(tracer, gc_clock, outcome, setup_phases) -> dict:
    from layertrace import OPERATION

    mode_ops = outcome["mode_ops"]
    mode_busy = outcome["mode_busy"]
    traced_ops = mode_ops[1]
    self_times = tracer.self_times()
    # Spans are wall time; the run's median kernel sample scales them.
    scale = refclock.REFERENCE_SECONDS / statistics.median(outcome["kernel"])
    per_op = lambda seconds: _ratio(seconds * scale, traced_ops) * 1e6  # noqa: E731
    metrics: dict = {}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_us"] = (per_op(self_times.get(layer, 0.0)), "us")

    counts = outcome["counts"]
    prefix = outcome["prefix"]
    count_ops = outcome["count_ops"]
    metrics["coupling.result_cache.hit_ratio"] = (
        _ratio(counts["result_hits"], counts["result_hits"] + counts["result_misses"]),
        "ratio",
    )
    metrics["coupling.plan_cache.hit_ratio"] = (
        _ratio(counts["plan_hits"], counts["plan_hits"] + counts["plan_misses"]),
        "ratio",
    )
    metrics["coupling.plan_cache.invalidations_per_write"] = (
        _ratio(counts["plan_invalidations"], prefix["writes"]), "ratio"
    )
    metrics["coupling.batch.goals_per_statement"] = (
        _ratio(counts["batched_asks"], counts["batch_executions"]), "ratio"
    )
    # Observed over the same fixed prefix as the counters.
    removed = tracer.observed.get(("optimize", "rows_removed"), [0, 0])
    metrics["optimize.rows_removed_per_compile"] = (_ratio(removed[1], removed[0]), "ratio")
    metrics["dbms.statements_per_op"] = (_ratio(counts["statements"], count_ops), "ratio")
    metrics["dbms.rows_per_answer"] = (
        _ratio(counts["rows_fetched"], prefix["answers"]), "ratio"
    )
    metrics["dbms.commits_per_write"] = (_ratio(counts["commits"], prefix["writes"]), "ratio")
    metrics["materialize.deltas_per_write"] = (
        _ratio(counts["deltas_applied"], prefix["writes"]), "ratio"
    )
    metrics["materialize.refreshes"] = (counts["refreshes"], "count")
    metrics["cqa.fast_path_ratio"] = (
        _ratio(counts["cqa_fast_paths"], prefix["consistent"]), "ratio"
    )
    metrics["cqa.repairs_per_consistent_ask"] = (
        _ratio(counts["repairs_enumerated"], prefix["consistent"]), "ratio"
    )
    metrics["resilience.retries_per_kop"] = (
        _ratio(counts["statement_retries"] + counts["ask_retries"], count_ops) * 1000.0,
        "count",
    )

    # Only warm_reads' serving segment enters the serving layer.
    for name in SERVING_METRICS:
        metrics[name] = (0.0, "us")

    def phase(name):
        return statistics.median(p.get(name, 0.0) for p in setup_phases)

    metrics["setup.load_s"] = (phase("load"), "s")
    metrics["setup.consult_s"] = (phase("consult"), "s")
    metrics["setup.views_s"] = (phase("views"), "s")
    metrics["setup.warm_s"] = (phase("warm") + phase("interval_build"), "s")
    metrics["materialize.interval_build_s"] = (phase("interval_build"), "s")
    metrics["runtime.gc_us"] = (per_op(gc_clock.seconds), "us")

    _count, op_total = tracer.span_totals(OPERATION)
    unattributed = self_times.get(OPERATION, 0.0) + self_times.get("coupling.session", 0.0)
    metrics["trace.attributed_share"] = (_ratio(op_total - unattributed, op_total), "ratio")
    untraced_rate = _ratio(mode_ops[0], mode_busy[0])
    traced_rate = _ratio(mode_ops[1], mode_busy[1])
    metrics["trace.overhead"] = (_ratio(untraced_rate, traced_rate) - 1.0, "ratio")

    _outlier_table(self_times, op_total, setup_phases, outcome["latencies"])
    print("counts over the first %d operations: %s" % (
        count_ops, json.dumps({**counts, **prefix}, sort_keys=True)))
    return metrics


def _serving(workload, work_dir: Path, ref, result: dict) -> list:
    """Run the workload's serving segment; add its metrics to ``result``.

    Returns the segment's reference mismatches.  Its operations count
    as attempted, and its failures as failed.
    """
    from workloads import ServingSegment

    before = ref.sample()
    segment = ServingSegment(workload, str(work_dir)).run()
    scale = refclock.factor(before, ref.sample())
    timings = {
        klass: [seconds * scale for seconds in values]
        for klass, values in segment["timings"].items()
    }
    # Worker span durations of single asks come from the workers' own
    # trace rings; the rest of a round trip is transport (IPC, dispatch).
    durations = [
        record["duration_ms"] * 1000.0 * scale
        for record in segment["traces"]
        if record.get("worker") not in (None, "owner")
        and record.get("kind") == "ask"
        and not record.get("batched")
    ]
    worker_us = _ratio(sum(durations), len(durations))
    rtt_us = _ratio(sum(timings["ask"]), len(timings["ask"])) * 1e6
    metrics = {
        "serving.worker_us": (worker_us, "us"),
        "serving.transport_us": (max(0.0, rtt_us - worker_us), "us"),
        "serving.publish_us": (
            _ratio(sum(timings["write"]), len(timings["write"])) * 1e6, "us"
        ),
    }
    print(f"serving segment: {ServingSegment.WORKERS}-worker tier, "
          f"{ServingSegment.OPS} operations")
    for klass in ("ask", "batch", "write"):
        _class_lines(f"serving.{klass}", timings[klass])
    print("serving counters: " + json.dumps(segment["counters"], sort_keys=True))
    if segment["errors"]:
        print("serving errors: " + "; ".join(segment["errors"][:5]))
    result["attempted"] += ServingSegment.OPS
    result["failed"] += len(segment["errors"])
    for name, (value, unit) in metrics.items():
        result["metrics"][name] = {"value": value, "unit": unit}
    return segment["problems"]


def _outlier_table(self_times: dict, op_total: float, setup_phases,
                   latencies: dict) -> None:
    """Top layers by share of traced operation time, set-up split, slow classes."""
    from layertrace import OPERATION

    print("outliers: self time by layer (share of traced operation time)")
    ranked = sorted(self_times.items(), key=lambda item: item[1], reverse=True)
    for name, seconds in ranked[:8]:
        label = "benchmark (outside every layer)" if name == OPERATION else name
        print(f"  {label:<34}{_ratio(seconds, op_total):8.1%}")
    split = {
        name: statistics.median(p.get(name, 0.0) for p in setup_phases)
        for name in ("load", "consult", "views", "interval_build", "warm")
    }
    total = sum(split.values())
    print("outliers: set-up split (median of %d set-ups)" % len(setup_phases))
    for name, seconds in sorted(split.items(), key=lambda item: item[1], reverse=True):
        print(f"  {name:<34}{seconds:8.3f} s {_ratio(seconds, total):6.1%}")
    print("outliers: latency classes by p99 (whole run)")
    tails = {
        klass: (_percentile(sorted(values), TAIL), len(values))
        for klass, values in latencies.items()
    }
    for klass, (tail, samples) in sorted(tails.items(), key=lambda i: i[1], reverse=True):
        print(f"  {klass + '_p99_us':<34}{tail * 1e6:12.1f} us  n={samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail_setup(f"library sources not found under {ROOT / 'src'}; "
                           "run from a full checkout of the repository")
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail_setup(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        return _fail_setup("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
