"""Scheduler fastpath benchmark: optimized vs reference Cyclic-sched.

Each case replays a production-shaped *request stream* — the same
canonical Cyclic subgraphs requested many times, the way the random
sweeps, ``run_table1``'s fluctuation levels, fuzz-corpus replays and
warm campaign re-runs actually hit the scheduler — against both
implementations:

* ``schedule_cyclic_reference`` (the frozen paper transcription)
  schedules every request from scratch;
* the optimized ``schedule_cyclic`` runs the DESIGN.md §13 fastpath
  (rolling window digests + fused processor selection) and serves
  repeats from the cross-sweep memo.

Every optimized result is checked **bit-identical** to the reference
pattern for the same request, with the same detection counters
(instances scheduled, candidates verified, detection cycle,
unrollings), before any timing is reported.  Two
speedups are recorded per case: ``speedup`` (the full stream, memo
on — the number the CI ratchet enforces at >= 20x) and
``algorithmic_speedup`` (unique requests only, memo off — the raw
fastpath with no reuse).

Regenerate the checked-in baseline with::

    PYTHONPATH=src python benchmarks/bench_scheduler_fastpath.py \
        --out BENCH_scheduler.json
"""

from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path

from repro.core.classify import classify
from repro.core.cyclic import _REMAP_CACHE, schedule_cyclic
from repro.core.cyclic_reference import schedule_cyclic_reference
from repro.errors import PatternNotFoundError, SchedulingError
from repro.fuzz.corpus import load_corpus
from repro.graph.algorithms import connected_components
from repro.pipeline.cache import ArtifactCache, set_default_cache
from repro.workloads import (
    cytron86,
    elliptic_filter,
    fig3,
    fig7,
    livermore18,
    random_cyclic_loop,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "tests" / "corpus"


def _cyclic_subset(graph, machine):
    try:
        cyc = classify(graph).cyclic
    except SchedulingError:
        return None
    if not cyc:
        return None
    return graph.subgraph(cyc), machine


def _paper_requests():
    out = []
    for wf in (fig3, fig7, cytron86, livermore18, elliptic_filter):
        w = wf()
        sub = _cyclic_subset(w.graph, w.machine)
        if sub is not None:
            out.append(sub)
    return out


def _random_sweep_requests():
    out = []
    for seed in (2, 4, 9, 11, 13):
        w = random_cyclic_loop(seed)
        for comp in connected_components(w.graph):
            sub = w.graph.subgraph(comp)
            if len(sub) < 2:
                continue
            out.append((sub, w.machine))
    return out


def _corpus_requests():
    out = []
    corpus = load_corpus(CORPUS_DIR)
    for name in sorted(corpus):
        case = corpus[name]
        sub = _cyclic_subset(case.graph, case.machine())
        if sub is None:
            continue
        g, machine = sub
        try:  # keep only cases both implementations can schedule
            schedule_cyclic_reference(g, machine)
        except (PatternNotFoundError, SchedulingError):
            continue
        out.append((g, machine))
    return out


#: case name -> (unique request builder, stream repetitions)
CASES = {
    "paper_examples": (_paper_requests, 48),
    "random_sweep": (_random_sweep_requests, 16),
    "fuzz_replay": (_corpus_requests, 48),
}


def _counters(stats) -> tuple:
    """The detection counters both implementations must agree on."""
    return (
        stats.instances_scheduled,
        stats.candidates_tried,
        stats.detection_cycle,
        stats.unrollings,
    )


def run_case(reps: int, requests) -> dict:
    """Time both implementations over the same stream; verify identity."""
    stream = requests * reps

    t0 = time.perf_counter()
    ref_results = [
        schedule_cyclic_reference(g, machine) for g, machine in stream
    ]
    reference_seconds = time.perf_counter() - t0

    # fresh memo state: a dedicated in-memory cache, empty remap cache
    prev_cache = set_default_cache(ArtifactCache())
    _REMAP_CACHE.clear()
    try:
        t0 = time.perf_counter()
        opt_results = [schedule_cyclic(g, machine) for g, machine in stream]
        optimized_seconds = time.perf_counter() - t0
    finally:
        set_default_cache(prev_cache)
        _REMAP_CACHE.clear()

    identical = all(
        o.pattern == r.pattern and _counters(o.stats) == _counters(r.stats)
        for o, r in zip(opt_results, ref_results)
    )

    # raw fastpath, no reuse: unique requests, memo off
    t0 = time.perf_counter()
    for g, machine in requests:
        schedule_cyclic(g, machine, memo=False)
    algo_opt = time.perf_counter() - t0
    t0 = time.perf_counter()
    for g, machine in requests:
        schedule_cyclic_reference(g, machine)
    algo_ref = time.perf_counter() - t0

    stats = [o.stats for o in opt_results]
    return {
        "requests": len(stream),
        "unique": len(requests),
        "reference_seconds": round(reference_seconds, 6),
        "optimized_seconds": round(optimized_seconds, 6),
        "speedup": round(reference_seconds / optimized_seconds, 2),
        "algorithmic_speedup": round(algo_ref / algo_opt, 2),
        "identical": identical,
        "memo_hits": sum(s.memo_hits for s in stats),
        "instances_scheduled": sum(s.instances_scheduled for s in stats),
        "windows_hashed": sum(s.windows_hashed for s in stats),
        "rows_rolled": sum(s.rows_rolled for s in stats),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None, metavar="PATH")
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit non-zero unless every case reaches this speedup "
        "and every pattern and detection counter is identical to the "
        "reference",
    )
    args = parser.parse_args(argv)

    cases = {}
    for name, (build, reps) in CASES.items():
        requests = build()
        if not requests:
            raise SystemExit(f"case {name!r} produced no requests")
        cases[name] = run_case(reps, requests)
        c = cases[name]
        print(
            f"{name}: {c['requests']} requests ({c['unique']} unique) "
            f"ref {c['reference_seconds']:.3f}s -> opt "
            f"{c['optimized_seconds']:.3f}s = x{c['speedup']:.1f} "
            f"(algorithmic x{c['algorithmic_speedup']:.1f}, "
            f"memo_hits {c['memo_hits']}, identical {c['identical']})"
        )

    speedups = [c["speedup"] for c in cases.values()]
    result = {
        "benchmark": "scheduler_fastpath",
        "cases": cases,
        "min_speedup": min(speedups),
        "geomean_speedup": round(
            math.exp(sum(math.log(s) for s in speedups) / len(speedups)), 2
        ),
        "all_identical": all(c["identical"] for c in cases.values()),
    }
    print(
        f"min x{result['min_speedup']:.1f}, geomean "
        f"x{result['geomean_speedup']:.1f}, all_identical "
        f"{result['all_identical']}"
    )

    if args.out:
        Path(args.out).write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n"
        )
        print(f"(wrote {args.out})")

    if args.require_speedup is not None:
        if not result["all_identical"]:
            print(
                "FAIL: optimized pattern or counters differ from reference"
            )
            return 1
        if result["min_speedup"] < args.require_speedup:
            print(
                f"FAIL: min speedup x{result['min_speedup']:.1f} < "
                f"required x{args.require_speedup:.1f}"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
