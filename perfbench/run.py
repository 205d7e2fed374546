#!/usr/bin/env python3
"""The repository benchmark: three workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_grid --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics.  Both check the program's outputs.  The last line of
standard output is one JSON object; perfbench/README.md defines every
metric.  The exit code is 1 when a check fails and 2 when the program
cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from probe import LAYERS, Probe, import_program, peak_rss_mb
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: every run has a traced and an untraced round, and two rounds to compare
MIN_ROUNDS = 2
LADDER = (50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.95, 99.99)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of ``n`` samples
    beyond it."""
    fits = [p for p in LADDER if n * (100.0 - p) / 100.0 >= 10]
    return fits[-1] if fits else LADDER[0]


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(workload, rounds, import_s) -> tuple[dict, list[str]]:
    latencies = [x for r in rounds for x in r.latencies_s]
    wall = sum(r.wall_s for r in rounds)
    # rounds repeat the same items, so only one round's items count as
    # distinct samples; this also fixes the percentile for a workload
    tail = tail_percentile(workload.items_per_round)
    setup = statistics.median(r.setup_s for r in rounds)
    # the best round, as timeit reports: on a shared machine other
    # tenants only ever slow a round down
    best_rate = max(len(r.latencies_s) / r.wall_s for r in rounds)
    best_p50 = min(statistics.median(r.latencies_s) for r in rounds)
    best_tail = min(percentile(r.latencies_s, tail) for r in rounds)
    metrics = {
        "setup_s": (import_s + setup, "s"),
        "items_per_s": (best_rate, "1/s"),
        "latency_p50_ms": (best_p50 * 1e3, "ms"),
        "latency_tail_ms": (best_tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sp_mean_pct": (workload.sp_mean_pct(rounds[0]), "%"),
    }
    per_round = workload.items_per_round
    notes = [
        f"setup_s = import {import_s:.3f} s + median round set-up "
        f"{setup:.3f} s over {len(rounds)} rounds",
        f"items_per_s = {workload.item}s_per_s of the best of {len(rounds)} "
        f"rounds ({len(latencies)} {workload.item}s in {wall:.3f} s timed; "
        f"pooled {len(latencies) / wall:.6g}/s)",
        f"latency_p50_ms: best round's median over n={per_round} {workload.item}s "
        f"(pooled {statistics.median(latencies) * 1e3:.6g} ms)",
        f"latency_tail_ms: best round's p{tail:g} over n={per_round} "
        f"(pooled {percentile(latencies, tail) * 1e3:.6g} ms)",
    ]
    return metrics, notes


def per_layer(workload, rounds, probe) -> dict:
    traced = [r for r in rounds if r.traced]
    # the first round of a process also warms it up
    plain = [r for r in rounds if not r.traced][1:] or rounds[:1]

    def total(key: str) -> float:
        return sum(r.counts.get(key, 0.0) for r in traced)

    def mean(key: str) -> float:
        return total(key) / len(traced)

    budget = sum(r.cpu_s for r in traced)
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (mean("self." + layer), "s")
        metrics[f"{layer}.share"] = (_ratio(total("self." + layer), budget), "ratio")
    attributed = sum(total("self." + layer) for layer in LAYERS)
    calls = [s for r in traced for s in r.samples.get("cyclic.call_s", [])]
    overhead = [
        r.wall_s - r.counts.get("runner.cell_s", 0.0) / workload.workers
        for r in plain
        if r.counts.get("runner.cells")
    ]
    metrics.update(
        {
            "unattributed_share": (1.0 - _ratio(attributed, budget), "ratio"),
            "trace_overhead": (
                statistics.mean(r.wall_s for r in traced)
                / statistics.mean(r.wall_s for r in plain),
                "ratio",
            ),
            "budget_cpu_s": (budget / len(traced), "s"),
            "traced_wall_s": (statistics.mean(r.wall_s for r in traced), "s"),
            "trace.wrapped_sites": (float(probe.sites), "count"),
            "cyclic.calls": (mean("cyclic.calls"), "count"),
            "cyclic.tail_ms": (
                percentile(calls, tail_percentile(len(calls))) * 1e3 if calls else 0.0,
                "ms",
            ),
            "cyclic.instances_scheduled": (mean("cyclic.instances_scheduled"), "count"),
            "cyclic.memo_hit_ratio": (
                _ratio(total("cyclic.memo_hits"), total("cyclic.calls")),
                "ratio",
            ),
            "fastpath.ops_per_s": (
                _ratio(total("fastpath.ops"), total("self.fastpath")),
                "1/s",
            ),
            "engine.ops_per_s": (
                _ratio(total("engine.ops"), total("self.engine")),
                "1/s",
            ),
            "pipeline.cache_hit_ratio": (
                _ratio(total("pipeline.cache_hits"), total("pipeline.passes")),
                "ratio",
            ),
            "runner.overhead_s": (
                statistics.mean(overhead) if overhead else 0.0,
                "s",
            ),
            "runner.journal_append_s": (mean("runner.journal_append_s"), "s"),
            "runner.journal_records": (mean("runner.journal_records"), "count"),
            "serve.pipeline_runs": (
                statistics.mean(r.facts.get("pipeline_runs", 0) for r in traced),
                "count",
            ),
            "serve.hit_ratio": (
                _ratio(
                    sum(r.facts.get("cache_hit", 0) for r in traced),
                    sum(r.facts.get("requests", 0) for r in traced),
                ),
                "ratio",
            ),
        }
    )
    return metrics


def check(workload, rounds) -> list[str]:
    """Every round's own checks, equal outputs across rounds, the
    cold-start self-check, then the workload's checks on round 0."""
    errors = [f"round {n}: {e}" for n, r in enumerate(rounds) for e in r.errors]
    if len({r.fingerprint for r in rounds}) > 1:
        errors.append("outputs differ across rounds")
    # every round does the same scheduling work, so none inherited an
    # earlier round's memo or artifact cache
    calls = {r.counts.get("cyclic.calls", 0.0) for r in rounds}
    hits = [r.counts.get("cyclic.memo_hits", 0.0) for r in rounds]
    if len(calls) > 1:
        errors.append(f"cyclic.calls differ across rounds: {sorted(calls)}")
    elif max(hits) - min(hits) > workload.memo_race * max(calls):
        errors.append(f"cyclic memo hits differ across rounds: {sorted(set(hits))}")
    return errors or workload.check(rounds[0])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=sorted(WORKLOADS),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import_program()
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: {repro.__file__} is not this checkout's", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started

    probe = Probe()
    probe.install(trace=bool(args.trace))
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        rounds = []
        while len(rounds) < MIN_ROUNDS or sum(r.wall_s for r in rounds) < args.seconds:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            # start every round from a collected heap, and keep only the
            # first round's outputs, so that rounds do not slow each other
            gc.collect()
            rounds.append(workload.run_round(probe, traced))
            if len(rounds) > 1:
                rounds[-1].outputs = None
        errors = check(workload, rounds)
        properties = workload.properties(rounds[0])
        if args.trace:
            metrics, notes = per_layer(workload, rounds, probe), []
        else:
            metrics, notes = end_to_end(workload, rounds, import_s)
    finally:
        probe.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r.latencies_s) for r in rounds)
    failed = sum(r.failed for r in rounds) + len(errors)
    mode = "traced" if args.trace else "untraced"
    print(
        f"{args.workload} seed {args.seed} ({mode}): {len(rounds)} rounds, "
        f"{attempted} {workload.item}s, "
        f"{sum(r.wall_s for r in rounds):.3f} s timed"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  - {note}")
    walls = " ".join(f"{r.wall_s:.3f}{'t' if r.traced else ''}" for r in rounds)
    print(f"  - round walls (s, t = traced): {walls}")
    print(f"  - failed_ratio = {failed}/{attempted} = {_ratio(failed, attempted):.4g}")
    for name, value in properties.items():
        print(f"  input {name}: {value}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
