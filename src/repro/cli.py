"""Command-line experiment driver.

Usage::

    repro-mimd fig1          # classification example
    repro-mimd fig3          # pattern emergence chart
    repro-mimd fig7          # worked example (ours 40% vs DOACROSS 0%)
    repro-mimd fig8          # DOACROSS +/- optimal reordering
    repro-mimd fig9          # Cytron86 example
    repro-mimd fig11         # Livermore Loop 18
    repro-mimd fig12         # elliptic wave filter
    repro-mimd table1        # 25 random loops x mm in {1,3,5}
    repro-mimd sweep         # communication-cost robustness sweep
    repro-mimd codegen       # Fig. 10-style partitioned code for fig7
    repro-mimd stages fig7   # per-pass pipeline timings, cold vs warm
    repro-mimd campaign table1 --workers 4   # sharded parallel campaign
    repro-mimd fuzz --loops 2000 --seed 0 --json out.json  # fuzz campaign
    repro-mimd chaos fig7 --seeds 1,2    # fault-injection matrix + self-heal
    repro-mimd chaos corpus:singleton_self_dep   # chaos on a corpus entry
    repro-mimd chaos kill:campaign       # SIGKILL + journal-resume scenario
    repro-mimd profile table1            # run under the tracer, print profile
    repro-mimd serve --port 8642         # compilation-as-a-service daemon
    repro-mimd all           # everything above

``python -m repro.cli <experiment>`` works identically.

``profile <subcommand>`` runs any experiment (or ``campaign``) under
the hierarchical tracer (:mod:`repro.obs`) and prints the flat text
profile — spans aggregated by category:name with count/total/self time
and p50/p95/p99 — plus the metrics counters.  ``--trace-out FILE``
(available on every subcommand) additionally writes the spans as
Chrome ``trace_event`` JSON; open the file in ``chrome://tracing`` or
https://ui.perfetto.dev.

``campaign`` runs the Table 1 / comm-sweep campaigns through the
fault-tolerant parallel runner (:mod:`repro.runner`): ``--workers N``
fans cells out over a process pool, ``--shard i/n`` executes one
shard of the campaign, ``--cache-dir`` shares scheduler results on
disk across workers and runs, and per-cell observability is written
to ``BENCH_campaign.json``.

``fuzz`` runs the coverage-guided fuzz campaign (:mod:`repro.fuzz`)
over the same runner: ``--loops N`` generated cases are checked
against the differential/invariant oracles, with per-pattern coverage
counts and minimized failure repros in the report.  The ``--json``
payload is bit-identical for a given ``(--loops, --seed)`` regardless
of ``--workers`` or ``--shard`` (pipeline telemetry, which is timing-
dependent, is deliberately excluded there).

``--journal DIR`` (on ``campaign`` and ``fuzz``) write-ahead journals
every completed cell so an interrupted run — SIGKILL included —
resumes where it stopped (``--no-resume`` re-executes instead); the
resumed report is byte-identical to an uninterrupted one.  ``fuzz
--sigstore PATH`` merges each run's behavior signatures into a
persisted cross-run store and reports which are new *ever*;
``--promote-dir DIR`` writes minimized oracle-failing repros not yet
pinned in ``tests/corpus/`` as reviewable corpus entries.

``serve`` starts the asyncio compile daemon (DESIGN.md §11): POST a
loop program to ``/compile`` and get the schedule + speedup back;
identical concurrent requests coalesce onto one compilation and warm
requests are answered straight from the cache.  ``--port 0`` picks an
ephemeral port (printed on stdout).

Every subcommand supports ``--json PATH``: the experiment payload is
written together with aggregated pipeline telemetry (per-pass wall
time, cache hits, warnings) under the ``pipeline_report`` key.

Shutdown is graceful everywhere: SIGTERM/SIGINT during ``serve`` or
``campaign`` drains accepted work where possible and always flushes
the pending ``--json`` / ``--trace-out`` artifacts atomically before
exiting 143/130, so an interrupted run leaves valid (marked
``interrupted``) JSON instead of truncated files.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable

from repro.experiments import (
    run_comm_sweep,
    run_fig1,
    run_fig3,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig11,
    run_fig12,
    run_table1,
)
from repro.pipeline import (
    ArtifactCache,
    CompilationContext,
    aggregate_reports,
    build_pipeline,
    collect_reports,
)
from repro.report import format_measurement, format_table1, pattern_chart
from repro.workloads import fig7 as fig7_workload

__all__ = ["main"]


class _Terminated(BaseException):
    """SIGTERM/SIGINT arrived: unwind to main() for the artifact flush.

    Derives from BaseException so no experiment code accidentally
    swallows it; ``payload`` optionally carries a partial result the
    interrupted subcommand wants included in the flushed ``--json``.
    """

    def __init__(self, signum: int, payload: Any = None) -> None:
        super().__init__(f"terminated by signal {signum}")
        self.signum = signum
        self.payload = payload


def _cmd_fig1(args: argparse.Namespace):
    w, c = run_fig1()
    print(f"{w.name}: classification (paper Fig. 1)")
    print(f"  Flow-in : {', '.join(c.flow_in)}   (paper: A B C D F)")
    print(f"  Cyclic  : {', '.join(c.cyclic)}   (paper: E I K L)")
    print(f"  Flow-out: {', '.join(c.flow_out)}   (paper: G H J)")
    return {
        "workload": w.name,
        "flow_in": list(c.flow_in),
        "cyclic": list(c.cyclic),
        "flow_out": list(c.flow_out),
    }


def _cmd_fig3(args: argparse.Namespace):
    w, s = run_fig3()
    print(f"{w.name}: pattern under unit communication cost (paper Fig. 3)")
    assert s.pattern is not None
    print(pattern_chart(s.pattern))
    return {
        "workload": w.name,
        "pattern_period": s.pattern.period,
        "pattern_iter_shift": s.pattern.iter_shift,
        "rate": s.steady_cycles_per_iteration(),
        "processors": s.total_processors,
    }


def _cmd_fig7(args: argparse.Namespace):
    from repro.report import measurement_to_dict

    m = run_fig7(args.iterations)
    print(format_measurement(m))
    return measurement_to_dict(m)


def _cmd_fig8(args: argparse.Namespace):
    from repro.report import fig8_to_dict

    r = run_fig8(args.iterations)
    print("DOACROSS on the Fig. 7 loop (paper Fig. 8): no gain possible")
    print(f"  natural order  : delay {r.natural.delay}, "
          f"Sp {r.sp_natural:.1f} (paper 0.0)")
    print(f"  optimal reorder: {'-'.join(r.reordered.body_order)}, "
          f"delay {r.reordered.delay}, Sp {r.sp_reordered:.1f} (paper 0.0)")
    return fig8_to_dict(r)


def _cmd_fig9(args: argparse.Namespace):
    from repro.report import measurement_to_dict

    m = run_fig9(2 * args.iterations)
    print(format_measurement(m))
    return measurement_to_dict(m)


def _cmd_fig11(args: argparse.Namespace):
    from repro.report import measurement_to_dict

    m = run_fig11(args.iterations)
    print(format_measurement(m))
    return measurement_to_dict(m)


def _cmd_fig12(args: argparse.Namespace):
    from repro.report import measurement_to_dict

    m = run_fig12(args.iterations)
    print(format_measurement(m))
    return measurement_to_dict(m)


def _cmd_table1(args: argparse.Namespace):
    from repro.report import table1_to_dict

    t = run_table1(iterations=args.iterations // 2)
    print(format_table1(t))
    return table1_to_dict(t)


def _cmd_sweep(args: argparse.Namespace):
    print("Robustness sweep: schedule with k=3, run with worst-case "
          "true cost (paper conclusion: profitable up to ~7x node time)")
    pts = run_comm_sweep()
    for pt in pts:
        print(f"  true k={pt.true_k:3d}: ours {pt.sp_ours:5.1f}   "
              f"doacross {pt.sp_doacross:5.1f}")
    from repro.report import sweep_to_dicts

    return sweep_to_dicts(pts)


def _cmd_codegen(args: argparse.Namespace):
    w = fig7_workload()
    ctx = CompilationContext.from_graph(w.graph, w.machine)
    ctx.artifacts["loop"] = w.loop
    build_pipeline(emit=True).run(ctx)
    print("Partitioned code for the Fig. 7 loop (paper Fig. 7(e)):\n")
    print(ctx.get("code"))
    return {"workload": w.name, "code": ctx.get("code")}


def _cmd_perfect(args: argparse.Namespace):
    from repro.experiments import run_perfect_gap

    print("Steady rates (cycles/iteration): recurrence bound <= "
          "Perfect Pipelining (zero comm) <= ours <= DOACROSS")
    rows = run_perfect_gap()
    for r in rows:
        print(f"  {r.name:12s} bound {r.recurrence_bound:5.1f}  "
              f"perfect {r.perfect_rate:5.1f}  ours {r.ours_rate:5.1f}  "
              f"doacross {r.doacross_rate:5.1f}")
    from repro.report import perfect_gap_to_dicts

    return perfect_gap_to_dicts(rows)


def _stages_context(target: str, args: argparse.Namespace):
    """Resolve a stages target: named workload, or a loop file path."""
    import os

    from repro.workloads import suite

    workloads = suite()
    if target in workloads:
        w = workloads[target]
        ctx = CompilationContext.from_graph(w.graph, w.machine)
        return ctx, False
    if os.path.exists(target):
        from repro.machine import Machine, UniformComm

        with open(target) as fh:
            source = fh.read()
        machine = Machine(args.processors, UniformComm(args.k))
        ctx = CompilationContext.from_source(source, machine, name=target)
        return ctx, True
    raise SystemExit(
        f"stages: unknown workload {target!r} "
        f"(named workloads: {', '.join(sorted(workloads))}; "
        "or pass a loop file path)"
    )


def _cmd_stages(args: argparse.Namespace):
    """Per-pass pipeline instrumentation, demonstrating artifact caching."""
    target = args.file or "fig7"
    cache = ArtifactCache()  # fresh, so 'cold' is genuinely cold

    def run_once():
        ctx, from_source = _stages_context(target, args)
        pm = build_pipeline(
            source=from_source,
            normalize=from_source,
            iterations=args.iterations,
            cache=cache,
        )
        return pm.run(ctx)

    cold = run_once()
    warm = run_once()
    print(f"pipeline stages for {target!r} "
          f"({args.iterations} iterations), cold run:")
    print(cold.format())
    print("\nwarm re-run (same inputs, same cache):")
    print(warm.format())
    print(f"\nwarm run executed {len(warm.executed)} of "
          f"{len(warm.passes)} passes "
          f"({warm.cache_hits} cache hits); "
          f"cold {cold.total_seconds * 1e3:.3f}ms -> "
          f"warm {warm.total_seconds * 1e3:.3f}ms")
    return {
        "workload": target,
        "cold": cold.to_dict(),
        "warm": warm.to_dict(),
    }


def schedule_file(
    path: str,
    *,
    processors: int = 4,
    k: int = 2,
    iterations: int = 100,
    emit: bool = False,
) -> str:
    """Compile a mini-language loop file end to end; returns the report.

    Runs the full front-end pipeline (parse, if-convert, dependence
    analysis, distance normalization when needed), schedules, simulates
    ``iterations`` iterations, verifies the generated program's
    dataflow, and optionally emits the partitioned pseudo-code.
    """
    from repro.codegen import partition, verify_against_sequential
    from repro.machine import Machine, UniformComm
    from repro.metrics import percentage_parallelism, sequential_time
    from repro.pipeline import frontend_passes, PassManager, default_cache

    with open(path) as fh:
        source = fh.read()
    machine = Machine(processors, UniformComm(k))
    ctx = CompilationContext.from_source(source, machine, name=path)
    PassManager(frontend_passes(), cache=default_cache()).run(ctx)
    graph = ctx.graph
    loop = ctx.get("loop")
    lines = [f"{path}: {len(graph)} nodes, "
             f"{graph.total_latency()} cycles/iteration sequential"]

    normalize = graph.max_distance() > 1
    build_pipeline(normalize=normalize, iterations=iterations).run(ctx)
    sched = ctx.scheduled
    if normalize:
        lines.append(sched.describe())
    else:
        from repro.report import compile_report

        lines.append(compile_report(sched, loop, emit_code=emit))
        prog = partition(sched, min(iterations, 24))
        verify_against_sequential(loop, prog)
        lines.append("codegen verified against sequential semantics")

    par = ctx.evaluation.makespan()
    seq = sequential_time(graph, iterations)
    lines.append(
        f"{iterations} iterations: sequential {seq}, parallel {par}, "
        f"Sp {percentage_parallelism(seq, par):.1f}%"
    )
    for d in ctx.warnings():
        lines.append(str(d))
    return "\n".join(lines)


def _cmd_schedule(args: argparse.Namespace):
    text = schedule_file(
        args.file,
        processors=args.processors,
        k=args.k,
        iterations=args.iterations,
        emit=args.emit,
    )
    print(text)
    return {"file": args.file, "report": text}


def _parse_seed_spec(spec: str) -> list[int]:
    """Parse ``"1,2,5-8"`` into ``[1, 2, 5, 6, 7, 8]``."""
    seeds: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def _cmd_campaign(args: argparse.Namespace):
    """Run a campaign through the sharded fault-tolerant runner."""
    from repro.experiments import sweep_cells, table1_cells
    from repro.report import to_json
    from repro.runner import run_campaign
    from repro.workloads import paper_seeds

    target = args.file or "table1"
    if target == "table1":
        seeds = (
            _parse_seed_spec(args.seeds) if args.seeds else paper_seeds()
        )
        cells = table1_cells(seeds, iterations=args.iterations)
    elif target == "sweep":
        seeds = (
            _parse_seed_spec(args.seeds) if args.seeds else paper_seeds()[:10]
        )
        cells = sweep_cells(seeds, iterations=args.iterations)
    else:
        raise SystemExit(
            f"campaign: unknown target {target!r} (use 'table1' or 'sweep')"
        )

    campaign = run_campaign(
        cells,
        workers=args.workers or 1,
        cache_dir=args.cache_dir,
        cell_timeout=args.cell_timeout,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        shard=args.shard,
        journal_dir=args.journal,
        resume=args.resume,
    )
    shard_note = f", shard {args.shard}" if args.shard else ""
    print(
        f"campaign {target!r}: {len(campaign.results)} of "
        f"{len(campaign.cells)} cells executed with "
        f"{campaign.workers} worker(s){shard_note} in "
        f"{campaign.wall_seconds:.2f}s"
    )
    agg = campaign.pipeline_summary()
    print(
        f"  pipeline: {agg['pipelines']} compilations, "
        f"{agg['cache_hits']} pass-level cache hits"
    )
    if campaign.journal is not None:
        print(
            f"  journal: {campaign.journal['records']} journaled "
            f"cell(s), {len(campaign.resumed_cells)} resumed"
        )
    for r in campaign.results:
        status = "ok" if r.ok else f"FAILED ({r.error})"
        print(
            f"  {r.cell.cell_id:<40} {r.seconds * 1e3:8.1f}ms  "
            f"attempt {r.attempts}  pid {r.worker_pid or '-'}  {status}"
        )
    if campaign.failed_cells:
        print(
            f"  PARTIAL RESULT: {len(campaign.failed_cells)} cell(s) "
            "failed after retries: "
            + ", ".join(r.cell.cell_id for r in campaign.failed_cells)
        )
    payload = campaign.to_dict()
    to_json(payload, args.bench)
    print(f"(wrote {args.bench})")
    return payload


def _cmd_fuzz(args: argparse.Namespace):
    """Coverage-guided fuzz campaign (`repro-mimd fuzz --loops N`)."""
    from repro.fuzz import run_fuzz
    from repro.report import to_json

    report = run_fuzz(
        args.loops,
        seed=args.seed,
        chunk=args.chunk,
        workers=args.workers or 1,
        shard=args.shard,
        cache_dir=args.cache_dir,
        cell_timeout=args.cell_timeout,
        retries=args.retries,
        journal_dir=args.journal,
        resume=args.resume,
    )
    print(report.format())
    print(f"wall time: {report.stats()['wall_seconds']}s")
    if report.journal is not None:
        print(
            f"journal: {report.journal['records']} journaled cell(s), "
            f"{report.resumed_cells} resumed"
        )
    if args.sigstore:
        from repro.fuzz.sigstore import SignatureStore

        merge = SignatureStore(args.sigstore).merge(report.signatures)
        print(
            f"sigstore: {len(merge.new)} behavior(s) never seen before, "
            f"{merge.known} already known, {merge.total} total ever"
        )
    if args.promote_dir:
        from repro.fuzz.sigstore import promote_survivors

        promoted = promote_survivors(report, args.promote_dir)
        print(
            f"promoted {len(promoted)} new corpus candidate(s) to "
            f"{args.promote_dir}"
        )
        for path in promoted:
            print(f"  {path}")
    payload = report.to_dict()
    if args.json:
        # Written directly, *without* the pipeline_report telemetry
        # _export would attach: the fuzz payload's contract is
        # bit-identity across reruns/workers/shards, and telemetry is
        # timing-dependent.
        to_json(payload, args.json)
        print(f"(wrote {args.json})")
        args.json = None
    return payload


def _chaos_workload(target: str):
    """Resolve a chaos target: named workload or ``corpus:<entry>``."""
    from repro.workloads import suite

    if target.startswith("corpus:"):
        from repro.fuzz import load_corpus

        name = target[len("corpus:"):]
        corpus = load_corpus()
        if name not in corpus:
            raise SystemExit(
                f"chaos: unknown corpus entry {name!r} "
                f"(entries: {', '.join(sorted(corpus))})"
            )
        return corpus[name].workload()
    workloads = suite()
    if target not in workloads:
        raise SystemExit(
            f"chaos: unknown workload {target!r} "
            f"(named workloads: {', '.join(sorted(workloads))}; "
            "corpus:<entry> for a fuzz corpus case; or kill:campaign "
            "for the SIGKILL-and-resume scenario)"
        )
    return workloads[target]


def _cmd_chaos(args: argparse.Namespace):
    """Fault matrix sweep + cache self-heal check (`repro-mimd chaos`)."""
    from repro.chaos import run_cache_selfheal, run_chaos_matrix
    from repro.report import format_chaos_table

    target = args.file or "fig7"
    if target == "kill:campaign":
        import tempfile

        from repro.chaos import run_kill_resume

        seeds = _parse_seed_spec(args.seeds) if args.seeds else [0]
        with tempfile.TemporaryDirectory(prefix="killresume.") as work:
            payload = run_kill_resume(
                work,
                loops=args.loops,
                seed=seeds[0],
                chunk=args.chunk,
                workers=args.workers or 2,
            )
        print(
            f"kill:campaign: SIGKILLed at {payload['records_at_kill']} of "
            f"{payload['cells']} journaled cell(s) "
            f"(seeded kill point {payload['kill_point']}), resumed "
            f"{payload['resumed_cells']} cell(s), reports identical: "
            f"{payload['reports_identical']} -> "
            + ("SURVIVED" if payload["reports_identical"] else "DIVERGED")
        )
        return payload
    workload = _chaos_workload(target)
    seeds = _parse_seed_spec(args.seeds) if args.seeds else [1, 2]
    payload = run_chaos_matrix(
        workload, seeds, iterations=args.iterations
    )
    print(format_chaos_table(payload))

    heal = run_cache_selfheal(
        seed=seeds[0], cache_dir=args.cache_dir, iterations=args.iterations
    )
    payload["cache_selfheal"] = heal
    print(
        f"cache self-heal: corrupted {heal['corrupted_entries']} of the "
        f"cached entries, re-run had {heal['second_failed_cells']} failed "
        f"cell(s), quarantined {heal['quarantined_files']} file(s), "
        f"results identical: {heal['results_identical']} -> "
        + ("HEALED" if heal["healed"] else "NOT HEALED")
    )
    return payload


def _cmd_serve(args: argparse.Namespace):
    """Run the compile daemon until SIGTERM/SIGINT, then drain + flush."""
    import asyncio
    import signal as _signal

    from repro.serve import ServeConfig, ServeServer

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        workers=args.workers,
    )
    server = ServeServer(config=config)
    caught: dict[str, int] = {}

    async def run() -> None:
        loop = asyncio.get_running_loop()
        stopped = asyncio.Event()

        def on_signal(signum: int) -> None:
            caught.setdefault("signal", signum)
            stopped.set()

        installed: list[int] = []
        for sig in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(sig, on_signal, sig)
                installed.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread / platform without support
        try:
            await server.start()
            caught["port"] = server.port  # resolved (for --port 0)
            print(f"serving on {server.host}:{server.port}", flush=True)
            await stopped.wait()
            inflight = len(server.service._flights)
            print(
                f"shutting down: draining {inflight} in-flight "
                "request(s)",
                flush=True,
            )
            await server.aclose()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)

    asyncio.run(run())
    payload = {
        "host": server.host,
        "port": caught.get("port", config.port),
        "stats": server.service.stats(),
    }
    if "signal" in caught:
        raise _Terminated(caught["signal"], payload=payload)
    return payload


_COMMANDS: dict[str, Callable[[argparse.Namespace], Any]] = {
    "fig1": _cmd_fig1,
    "fig3": _cmd_fig3,
    "fig7": _cmd_fig7,
    "fig8": _cmd_fig8,
    "fig9": _cmd_fig9,
    "fig11": _cmd_fig11,
    "fig12": _cmd_fig12,
    "table1": _cmd_table1,
    "sweep": _cmd_sweep,
    "perfect": _cmd_perfect,
    "codegen": _cmd_codegen,
    "stages": _cmd_stages,
}


def _export(args: argparse.Namespace, payload: Any, reports) -> None:
    """Write ``payload`` + aggregated pipeline telemetry as JSON.

    Dict payloads keep their keys at the top level (stable public
    shape); list payloads are wrapped under ``rows``.
    """
    if not getattr(args, "json", None):
        return
    from repro.report import to_json

    telemetry = aggregate_reports(reports)
    if isinstance(payload, dict):
        obj = {**payload, "pipeline_report": telemetry}
    elif isinstance(payload, list):
        obj = {"rows": payload, "pipeline_report": telemetry}
    else:
        obj = {"pipeline_report": telemetry}
    to_json(obj, args.json)
    print(f"(wrote {args.json})")


def main(argv: list[str] | None = None) -> int:
    """Entry point: dispatch to one experiment, 'all', or 'schedule'."""
    parser = argparse.ArgumentParser(
        prog="repro-mimd",
        description=(
            "Regenerate the tables and figures of Kim & Nicolau (ICPP "
            "1990), 'Parallelizing Non-Vectorizable Loops for MIMD "
            "Machines', or schedule your own loop file."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[
            *_COMMANDS,
            "all",
            "schedule",
            "campaign",
            "fuzz",
            "chaos",
            "profile",
            "serve",
        ],
        help="which artifact to regenerate, 'schedule' for a file, "
        "'stages' for per-pass pipeline timings, 'campaign' for the "
        "sharded parallel runner, 'fuzz' for the coverage-guided fuzz "
        "campaign, 'chaos' for the fault-injection matrix, 'profile' "
        "to trace a subcommand, or 'serve' for the compile daemon",
    )
    parser.add_argument(
        "file",
        nargs="?",
        help="mini-language loop file (for 'schedule'), workload "
        "name / loop file (for 'stages', default fig7), campaign "
        "target 'table1'/'sweep' (for 'campaign', default table1), or "
        "the subcommand to trace (for 'profile', default fig7)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=100,
        help="simulated loop trip count (default 100)",
    )
    parser.add_argument(
        "--processors",
        type=int,
        default=4,
        help="processor budget for 'schedule' (default 4)",
    )
    parser.add_argument(
        "-k",
        type=int,
        default=2,
        help="communication cost estimate for 'schedule' (default 2)",
    )
    parser.add_argument(
        "--emit",
        action="store_true",
        help="also print Fig. 10-style partitioned code ('schedule')",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the experiment's result (with pipeline "
        "telemetry) as JSON to PATH",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="enable hierarchical tracing and write the spans as "
        "Chrome trace_event JSON to PATH (open in chrome://tracing "
        "or ui.perfetto.dev)",
    )
    campaign_opts = parser.add_argument_group("campaign options")
    campaign_opts.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for 'campaign' (default 1: serial) / "
        "compile worker threads for 'serve' (default: pool-sized)",
    )
    campaign_opts.add_argument(
        "--shard",
        metavar="i/n",
        help="execute only shard i of n (0-based) of the campaign",
    )
    campaign_opts.add_argument(
        "--seeds",
        metavar="SPEC",
        help="seed list for 'campaign', e.g. '1,2,5-8' (default: the "
        "paper's seeds)",
    )
    campaign_opts.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="shared on-disk artifact cache for campaign workers",
    )
    campaign_opts.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget (default: unlimited)",
    )
    campaign_opts.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts for failed/crashed/timed-out cells "
        "(default 1)",
    )
    campaign_opts.add_argument(
        "--retry-backoff",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="base of the seeded exponential backoff slept before "
        "each retry wave (default 0.25; 0 retries immediately)",
    )
    campaign_opts.add_argument(
        "--bench",
        metavar="PATH",
        default="BENCH_campaign.json",
        help="where 'campaign' writes per-cell observability "
        "(default BENCH_campaign.json)",
    )
    campaign_opts.add_argument(
        "--journal",
        metavar="DIR",
        help="write-ahead journal directory for 'campaign'/'fuzz': "
        "completed cells are durably journaled and an interrupted "
        "run resumes where it stopped",
    )
    campaign_opts.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="replay journaled cells on restart (default on; "
        "--no-resume re-executes everything, still journaling)",
    )
    fuzz_opts = parser.add_argument_group("fuzz options")
    fuzz_opts.add_argument(
        "--loops",
        type=int,
        default=1000,
        help="generated cases for 'fuzz' (default 1000)",
    )
    fuzz_opts.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign seed for 'fuzz'; same seed => bit-identical "
        "--json report (default 0)",
    )
    fuzz_opts.add_argument(
        "--chunk",
        type=int,
        default=250,
        help="cases per fuzz cell (default 250; also the journal/"
        "resume granularity)",
    )
    fuzz_opts.add_argument(
        "--sigstore",
        metavar="PATH",
        help="persisted cross-run signature store: report which "
        "behaviors are new *ever*, not just new this run",
    )
    fuzz_opts.add_argument(
        "--promote-dir",
        metavar="DIR",
        help="auto-promote minimized oracle-failing repros not "
        "already in tests/corpus/ as reviewable corpus entries",
    )
    serve_opts = parser.add_argument_group("serve options")
    serve_opts.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for 'serve' (default 127.0.0.1)",
    )
    serve_opts.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port for 'serve'; 0 picks an ephemeral port, "
        "printed on stdout (default 8642)",
    )
    serve_opts.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="max distinct in-flight compilations before 'serve' "
        "answers 503 at admission (default 256)",
    )
    args = parser.parse_args(argv)
    from repro.obs import (
        NULL_TRACER,
        MetricsRegistry,
        Tracer,
        registry,
        set_registry,
        text_profile,
        use_tracer,
        write_chrome_trace,
    )

    profiling = args.experiment == "profile"
    if profiling:
        target = args.file or "fig7"
        if target not in _COMMANDS and target not in (
            "campaign",
            "chaos",
            "fuzz",
        ):
            parser.error(
                f"profile: unknown subcommand {target!r} (choose from "
                f"{', '.join([*_COMMANDS, 'campaign', 'chaos', 'fuzz'])})"
            )
        args.experiment = target
        args.file = None  # the traced subcommand picks its own default
    tracing = profiling or bool(args.trace_out)
    tracer = Tracer() if tracing else NULL_TRACER
    prev_registry = set_registry(MetricsRegistry()) if tracing else None

    # Graceful shutdown: SIGTERM/SIGINT unwind to this frame as
    # _Terminated so the --json/--trace-out artifacts below are still
    # flushed (atomically) before exiting 128+signum.  The serve
    # subcommand overrides these with asyncio-native handlers while
    # its loop runs, draining in-flight requests first.
    import signal as _signal
    import threading

    def _on_signal(signum: int, frame) -> None:
        raise _Terminated(signum)

    previous_handlers: list[tuple[int, Any]] = []
    if threading.current_thread() is threading.main_thread():
        for sig in (_signal.SIGTERM, _signal.SIGINT):
            previous_handlers.append((sig, _signal.signal(sig, _on_signal)))

    payload: Any = None
    exit_code = 0
    try:
        with use_tracer(tracer), collect_reports() as reports:
            try:
                with tracer.span(f"repro-mimd {args.experiment}", "cli"):
                    if args.experiment == "schedule":
                        if not args.file:
                            parser.error("'schedule' needs a loop file")
                        payload = _cmd_schedule(args)
                    elif args.experiment == "campaign":
                        payload = _cmd_campaign(args)
                    elif args.experiment == "fuzz":
                        payload = _cmd_fuzz(args)
                    elif args.experiment == "chaos":
                        payload = _cmd_chaos(args)
                    elif args.experiment == "serve":
                        payload = _cmd_serve(args)
                    elif args.experiment == "all":
                        payload = {"experiments": {}}
                        for name, fn in _COMMANDS.items():
                            print(f"\n=== {name} " + "=" * (60 - len(name)))
                            with tracer.span(name, "experiment"):
                                payload["experiments"][name] = fn(args)
                    else:
                        payload = _COMMANDS[args.experiment](args)
            except (_Terminated, KeyboardInterrupt) as exc:
                signum = getattr(exc, "signum", _signal.SIGINT)
                partial = getattr(exc, "payload", None)
                payload = dict(partial) if isinstance(partial, dict) else {}
                payload.update(interrupted=True, signal=int(signum))
                exit_code = 128 + int(signum)
                print(
                    f"interrupted by signal {int(signum)}; "
                    "flushing artifacts",
                    flush=True,
                )
            _export(args, payload, reports)
            if profiling and not exit_code:
                print("\nprofile (spans by category:name, times in ms):")
                print(text_profile(tracer.finished()))
                snap = registry().snapshot()
                if snap["counters"]:
                    print("\ncounters:")
                    for metric, value in snap["counters"].items():
                        print(f"  {metric:<40} {value}")
            if args.trace_out:
                write_chrome_trace(args.trace_out, tracer.finished())
                print(f"(wrote {args.trace_out})")
    finally:
        if prev_registry is not None:
            set_registry(prev_registry)
        for sig, handler in previous_handlers:
            _signal.signal(sig, handler)
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
