"""The benchmark's three workloads.

A workload runs in *rounds*.  Each round starts cold, sets its inputs
up from the seed, runs one timed unit of work, then checks what it can
about its own outputs and keeps a fingerprint of them.  Every round of
a run repeats the same inputs, so all fingerprints must be equal.  The
checks that need the outputs themselves run once, on the first round,
after the last round.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

from probe import Probe, cpu_seconds


def cold_start() -> None:
    """Forget every compilation this process has seen.

    A fresh :class:`ArtifactCache` of the default size replaces the
    process-wide one, and Cyclic-sched's module-level remap and machine
    fingerprint caches are emptied.  Without this, the scheduler's
    cross-sweep memo would serve a round from the previous round.
    """
    from repro.core import cyclic
    from repro.pipeline.cache import ArtifactCache, default_cache, set_default_cache

    set_default_cache(ArtifactCache(maxsize=default_cache().maxsize))
    cyclic._REMAP_CACHE.clear()
    cyclic._MACHINE_FP_CACHE.clear()


def fingerprint(data: Any) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


class Timed:
    """The timed region of a round: wall, CPU of every process, and
    what the probe counted meanwhile (worker shipments included)."""

    def __init__(self, probe: Probe, traced: bool) -> None:
        self.probe, self.traced = probe, traced

    def __enter__(self) -> "Timed":
        self._mark = self.probe.mark()
        self.probe.tracing = self.traced
        self._cpu = cpu_seconds()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start
        self.cpu_s = cpu_seconds() - self._cpu
        self.probe.tracing = False
        self.delta = self.probe.since(self._mark)


@dataclass
class Round:
    """What one round measured and what its checks found."""

    setup_s: float
    wall_s: float
    cpu_s: float
    traced: bool
    latencies_s: list[float]
    failed: int
    counts: dict[str, float]
    samples: dict[str, list[float]]
    fingerprint: str
    errors: list[str] = field(default_factory=list)
    facts: dict[str, float] = field(default_factory=dict)
    outputs: Any = None  #: kept for the first round only

    @classmethod
    def of(cls, setup_s: float, timed: Timed, latencies_s, failed: int, **kw):
        return cls(
            setup_s=setup_s,
            wall_s=timed.wall_s,
            cpu_s=timed.cpu_s,
            traced=timed.traced,
            latencies_s=list(latencies_s),
            failed=failed,
            counts=timed.delta["counts"],
            samples=timed.delta["samples"],
            **kw,
        )


# ----------------------------------------------------------------------
# paper_grid
# ----------------------------------------------------------------------
PAPER_SEEDS = tuple(range(1, 26))
#: seeded loops beyond the paper's 25
EXTRA_LOOPS = 75
#: loops the comm sweep runs on (the first ones: the paper's 1..10)
SWEEP_LOOPS = 10
#: trip count of the dataflow check on every schedule
VERIFY_ITERATIONS = 12

#: Table 1(b) means over the paper's seeds 1..25 as this compiler
#: computes them, mm -> (ours, DOACROSS).  They change only when the
#: schedules or the simulated machine change, never with speed.
PINNED_TABLE1 = {
    1: (50.33403278037219, 19.196070521811055),
    3: (46.12624808415832, 12.842314824804305),
    5: (41.54264669567615, 8.090781350019778),
}


def _sched_cached(cell_result) -> bool:
    sched = cell_result.pipeline.get("passes", {}).get("CyclicSchedPass")
    return bool(sched) and sched["cache_hits"] == sched["runs"]


class PaperGrid:
    """Table 1 and the comm sweep, in-process with ``workers=1``.

    The loops are the paper's seeds 1..25 plus 75 seeded ones, so every
    seed runs the paper's own experiment, including its Cyclic-sched
    tail (seed 13), and the default seed 0 covers seeds 1..100.
    """

    name = "paper_grid"
    item = "cell"
    workers = 1
    memo_race = 0.0

    def __init__(self, seed: int, workdir: str) -> None:
        first = len(PAPER_SEEDS) + 1 + EXTRA_LOOPS * (seed % 2**32)
        self.loops = list(PAPER_SEEDS) + list(range(first, first + EXTRA_LOOPS))
        self.items_per_round = 3 * len(self.loops) + 6 * SWEEP_LOOPS

    def run_round(self, probe: Probe, traced: bool) -> Round:
        from repro.experiments import sweep_cells, table1_cells
        from repro.runner import run_campaign

        start = time.perf_counter()
        cold_start()
        campaigns = (
            table1_cells(self.loops),
            sweep_cells(self.loops[:SWEEP_LOOPS]),
        )
        setup_s = time.perf_counter() - start
        with Timed(probe, traced) as timed:
            results = [
                run_campaign(cells, workers=self.workers) for cells in campaigns
            ]
        cells = [r for campaign in results for r in campaign.results]
        return Round.of(
            setup_s,
            timed,
            [r.seconds for r in cells],
            sum(not r.ok for r in cells),
            fingerprint=fingerprint([(r.cell.cell_id, r.value) for r in cells]),
            errors=[f"{r.cell.cell_id}: {r.error}" for r in cells if not r.ok],
            outputs=cells,
        )

    def check(self, first: Round) -> list[str]:
        """Pinned Table 1 means, and every schedule's dataflow."""
        from repro.codegen.interp import verify_graph_dataflow
        from repro.codegen.partition import partition
        from repro.errors import ValidationError
        from repro.pipeline import CompilationContext, build_pipeline
        from repro.workloads import random_cyclic_loop

        errors = []
        table1 = {
            (r.cell.mapping["seed"], r.cell.mapping["mm"]): r.value
            for r in first.outputs
            if r.cell.kind == "table1"
        }
        for mm, pinned in PINNED_TABLE1.items():
            got = tuple(
                statistics.mean(table1[(s, mm)][key] for s in PAPER_SEEDS)
                for key in ("sp_ours", "sp_doacross")
            )
            if any(abs(a - b) > 1e-9 for a, b in zip(got, pinned)):
                errors.append(f"Table 1 means at mm={mm}: {got} != pinned {pinned}")
        # one schedule per loop: the fluctuation level and the sweep's
        # true_k change only run-time costs, never the compile view
        for seed in self.loops:
            w = random_cyclic_loop(seed, k=3, mm=1, processors=8)
            ctx = CompilationContext.from_graph(w.graph, w.machine)
            build_pipeline().run(ctx)
            try:
                verify_graph_dataflow(
                    w.graph, partition(ctx.scheduled, VERIFY_ITERATIONS)
                )
            except ValidationError as exc:
                errors.append(f"loop {seed}: {exc}")
        return errors

    def properties(self, first: Round) -> dict[str, Any]:
        cells = first.outputs
        return {
            "loops": f"{len(self.loops)} (paper seeds 1..25 + "
            f"{self.loops[len(PAPER_SEEDS)]}..{self.loops[-1]})",
            "cells_per_round": len(cells),
            "sched_cache_share": sum(map(_sched_cached, cells)) / len(cells),
        }

    def sp_mean_pct(self, first: Round) -> float:
        """Mean Sp of our schedules over the paper's Table 1 cells."""
        return statistics.mean(
            r.value["sp_ours"]
            for r in first.outputs
            if r.cell.kind == "table1" and r.cell.mapping["seed"] in PAPER_SEEDS
        )


# ----------------------------------------------------------------------
# fuzz_mix
# ----------------------------------------------------------------------
#: cases per campaign, and per cell: 8 cells, 4 for each worker.  The
#: families' costs differ up to 10x and the sampler adapts to what it
#: finds, so fewer cases would make the cost of a round depend on the seed
FUZZ_CASES = 1024
FUZZ_CHUNK = 128
#: fixed cases per generator family whose schedules sp_mean_pct rates
SP_CASES_PER_FAMILY = 6
SP_ITERATIONS = 50


class FuzzMix:
    """A ``run_fuzz`` campaign over all 8 generator families on 2 worker
    processes, with a fresh journal and disk cache every round."""

    name = "fuzz_mix"
    item = "case"
    workers = 2
    #: both workers read and write one disk tier, so whether a worker
    #: sees an entry its sibling is just writing is a race: memo hits
    #: may differ across rounds by this share of the Cyclic-sched calls
    memo_race = 0.02

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.items_per_round = FUZZ_CASES

    def run_round(self, probe: Probe, traced: bool) -> Round:
        from repro.fuzz.campaign import run_fuzz

        start = time.perf_counter()
        cold_start()
        root = tempfile.mkdtemp(prefix="fuzz-", dir=self.workdir)
        setup_s = time.perf_counter() - start
        try:
            with Timed(probe, traced) as timed:
                report = run_fuzz(
                    FUZZ_CASES,
                    seed=self.seed,
                    chunk=FUZZ_CHUNK,
                    workers=self.workers,
                    cache_dir=os.path.join(root, "cache"),
                    journal_dir=os.path.join(root, "journal"),
                )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        latencies = timed.delta["samples"].get("case_s", [])
        ran = sum(b["cases"] for b in report.patterns.values())
        failed = sum(b["failures"] for b in report.patterns.values())
        errors = []
        if not report.ok:
            errors.append(
                f"{len(report.failures)} oracle failures, "
                f"failed cells {list(report.failed_cells)}"
            )
        if len(latencies) != FUZZ_CASES:
            errors.append(f"timed {len(latencies)} of {FUZZ_CASES} cases")
        return Round.of(
            setup_s,
            timed,
            latencies,
            failed + FUZZ_CASES - ran,
            fingerprint=fingerprint(report.to_dict()),
            errors=errors,
            outputs=report,
        )

    def check(self, first: Round) -> list[str]:
        return []

    def properties(self, first: Round) -> dict[str, Any]:
        report = first.outputs
        cases = {name: b["cases"] for name, b in report.patterns.items()}
        total = sum(cases.values())
        source = cases["multi_statement"] + cases["conditional"]
        return {
            "cases_per_round": total,
            "cells_per_round": report.executed_cells,
            "source_share": source / total,
            "graph_share": (total - source) / total,
            "cases_per_family": cases,
        }

    def sp_mean_pct(self, first: Round) -> float:
        """Mean Sp of our schedules over fixed cases of every family."""
        from repro.fuzz.generators import PATTERN_NAMES, generate_case
        from repro.metrics import percentage_parallelism, sequential_time
        from repro.pipeline import CompilationContext, build_pipeline

        sps = []
        for pattern in PATTERN_NAMES:
            for seed in range(SP_CASES_PER_FAMILY):
                case = generate_case(pattern, seed)
                ctx = CompilationContext.from_graph(case.graph, case.machine())
                build_pipeline(iterations=SP_ITERATIONS, cache=None).run(ctx)
                seq = sequential_time(case.graph, SP_ITERATIONS)
                par = min(ctx.evaluation.makespan(), seq)
                sps.append(percentage_parallelism(seq, par))
        return statistics.mean(sps)


# ----------------------------------------------------------------------
# serve_stream
# ----------------------------------------------------------------------
SERVE_PROGRAMS = 96
SERVE_REQUESTS = 2400
SERVE_CONNECTIONS = 2
SERVE_COMPILE_THREADS = 2
SERVE_ITERATIONS = 100


def _paper_sources() -> tuple[str, ...]:
    from repro.workloads import (
        ADAPTIVE_SOURCE,
        ELLIPTIC_SOURCE,
        FIG7_SOURCE,
        LIVERMORE18_SOURCE,
    )

    return (FIG7_SOURCE, LIVERMORE18_SOURCE, ELLIPTIC_SOURCE, ADAPTIVE_SOURCE)


class ServeStream:
    """An in-process daemon driven by a closed loop of keep-alive
    connections: each caller sends its next request when the reply to
    its previous one has arrived.

    The programs are the paper's four source loops plus seeded
    multi-statement and conditional loops from the fuzz generators.
    Popularity is Zipf-like, so most requests repeat a program.
    """

    name = "serve_stream"
    item = "request"
    workers = 1
    #: two compile threads fill one LRU-bounded cache in an order that
    #: varies, so a memo entry may be evicted before its repeat arrives
    memo_race = 0.02

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.items_per_round = SERVE_REQUESTS

    def _inputs(self) -> tuple[list[tuple[str, int, int]], list[int]]:
        """The programs ``(source, processors, k)`` and the request order."""
        from repro.fuzz.generators import generate_case

        programs = [(source, 4, 2) for source in _paper_sources()]
        seen = set(programs)
        i = 0
        while len(programs) < SERVE_PROGRAMS:
            pattern = ("multi_statement", "conditional")[i % 2]
            case = generate_case(pattern, self.seed * 1_000_003 + i)
            program = (case.source, case.processors, int(case.comm["k"]))
            i += 1
            if program not in seen:
                seen.add(program)
                programs.append(program)
        rng = random.Random(f"perfbench-serve-{self.seed}")
        popular = list(range(SERVE_PROGRAMS))
        rng.shuffle(popular)
        weights = [1.0 / rank for rank in range(1, SERVE_PROGRAMS + 1)]
        order = list(range(SERVE_PROGRAMS)) + rng.choices(
            popular, weights=weights, k=SERVE_REQUESTS - SERVE_PROGRAMS
        )
        rng.shuffle(order)
        return programs, order

    def run_round(self, probe: Probe, traced: bool) -> Round:
        from repro.serve import ServeConfig, start_in_thread

        start = time.perf_counter()
        cold_start()
        programs, order = self._inputs()
        payloads = [
            {
                "source": source,
                "processors": processors,
                "k": k,
                "iterations": SERVE_ITERATIONS,
                "client": "perfbench",
            }
            for source, processors, k in (programs[i] for i in order)
        ]
        handle = start_in_thread(
            ServeConfig(port=0, workers=SERVE_COMPILE_THREADS)
        )
        try:
            replies, timed, ready = asyncio.run(
                self._drive(handle.host, handle.port, payloads, probe, traced)
            )
            counters = handle.server.service.metrics.snapshot()["counters"]
        finally:
            handle.stop()

        failed = sum(status != 200 for _, status, _ in replies)
        results: dict[int, set[str]] = {}
        for i, (_, status, body) in zip(order, replies):
            if status == 200:
                results.setdefault(i, set()).add(
                    json.dumps(body["result"], sort_keys=True)
                )
        errors = []
        if failed:
            errors.append(f"{failed} non-200 responses")
        if any(len(v) != 1 for v in results.values()):
            errors.append("a program got differing results")
        by_program = {i: json.loads(min(v)) for i, v in results.items()}
        keys = {r["key"] for r in by_program.values()}
        if len(keys) != len(programs):
            errors.append(f"{len(keys)} distinct keys for {len(programs)} programs")
        runs = counters.get("serve.pipeline_runs", 0)
        if runs != len(programs):
            errors.append(f"{runs} pipeline runs for {len(programs)} programs")
        return Round.of(
            ready - start,
            timed,
            [latency for latency, _, _ in replies],
            failed,
            fingerprint=fingerprint(sorted(by_program.items())),
            errors=errors,
            facts={
                "requests": counters.get("serve.requests", 0),
                "pipeline_runs": runs,
                "cache_hit": counters.get("serve.cache_hit", 0),
                "coalesced": counters.get("serve.singleflight_wait", 0),
            },
            outputs=(programs, by_program),
        )

    async def _drive(self, host, port, payloads, probe, traced):
        from repro.serve import AsyncConnection

        conns = [AsyncConnection(host, port) for _ in range(SERVE_CONNECTIONS)]
        replies: list[Any] = [None] * len(payloads)
        pending = iter(range(len(payloads)))

        async def caller(conn) -> None:
            for i in pending:
                sent = time.perf_counter()
                status, body = await conn.compile(payloads[i])
                replies[i] = (time.perf_counter() - sent, status, body)

        try:
            for conn in conns:
                await conn.connect()
            ready = time.perf_counter()
            with Timed(probe, traced) as timed:
                await asyncio.gather(*(caller(conn) for conn in conns))
        finally:
            for conn in conns:
                await conn.aclose()
        return replies, timed, ready

    def check(self, first: Round) -> list[str]:
        """Every served makespan equals a batch compile of its source."""
        from repro.machine.comm import UniformComm
        from repro.machine.model import Machine
        from repro.pipeline import CompilationContext, build_pipeline

        errors = []
        programs, by_program = first.outputs
        for i, (source, processors, k) in enumerate(programs):
            ctx = CompilationContext.from_source(
                source, Machine(processors, UniformComm(k)), name="loop"
            )
            build_pipeline(
                source=True, normalize=True, iterations=SERVE_ITERATIONS, cache=None
            ).run(ctx)
            served = by_program[i]["makespan"]
            if ctx.evaluation.makespan() != served:
                errors.append(
                    f"program {i}: served makespan {served}, batch "
                    f"{ctx.evaluation.makespan()}"
                )
        return errors

    def properties(self, first: Round) -> dict[str, Any]:
        requests = first.facts["requests"]
        return {
            "programs": len(first.outputs[0]),
            "requests_per_round": requests,
            "repeat_share": 1 - len(first.outputs[0]) / requests,
            "served_from_cache_share": first.facts["cache_hit"] / requests,
            "coalesced_share": first.facts["coalesced"] / requests,
        }

    def sp_mean_pct(self, first: Round) -> float:
        """Mean Sp the daemon reported for the paper's four source loops."""
        _, by_program = first.outputs
        return statistics.mean(
            by_program[i]["sp"] for i in range(len(_paper_sources()))
        )


WORKLOADS = {w.name: w for w in (PaperGrid, FuzzMix, ServeStream)}
