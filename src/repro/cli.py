"""Command-line experiment driver: ``repro-mimd <command> [options]``.

``python -m repro.cli <command>`` works identically.  The commands
live in one table, :data:`_COMMANDS`: each row names its handler, its
one-line help and the options it reads, and ``repro-mimd <command>
--help`` lists exactly those.  Options belong to their command and go
after its name; an option the command does not read is a usage error
(exit 2).

``--iterations`` is on every paper-artifact command, because ``all``
forwards it to each of them.  For most it is the simulated trip count;
``fig9`` runs twice that, ``table1`` and ``sweep`` half of it, and
``fig1``, ``fig3``, ``perfect`` and ``codegen`` have no trip count and
ignore it.  Each command's ``--help`` says which.

``profile <command> [options]`` runs any command except ``serve``
under the hierarchical tracer (:mod:`repro.obs`) and prints the flat
text profile plus the metrics counters.  ``--trace-out FILE`` (on
every command) writes the spans as Chrome ``trace_event`` JSON.

Every command takes ``--json PATH``: the command's payload is written
together with aggregated pipeline telemetry (per-pass wall time, cache
hits, warnings) under the ``pipeline_report`` key.  ``fuzz`` is the
one exception: its payload is written bare, because its contract is
bit-identity across reruns, workers and shards, and telemetry is
timing-dependent.

Shutdown is graceful everywhere: SIGTERM/SIGINT during ``serve`` or
``campaign`` drains accepted work where possible and always flushes
the pending ``--json`` / ``--trace-out`` artifacts atomically before
exiting 143/130, so an interrupted run leaves valid (marked
``interrupted``) JSON instead of truncated files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
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


def _cmd_measurement(
    run: Callable[[int], Any], scale: int, args: argparse.Namespace
):
    """Figs. 7, 9, 11 and 12: one ours-vs-DOACROSS measurement."""
    from repro.report import measurement_to_dict

    m = run(scale * args.iterations)
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


def _cmd_table1(args: argparse.Namespace):
    from repro.report import table1_to_dict

    t = run_table1(iterations=args.iterations // 2)
    print(format_table1(t))
    return table1_to_dict(t)


def _cmd_sweep(args: argparse.Namespace):
    print("Robustness sweep: schedule with k=3, run with worst-case "
          "true cost (paper conclusion: profitable up to ~7x node time)")
    pts = run_comm_sweep(iterations=args.iterations // 2)
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
    target = args.target
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


def _cmd_all(args: argparse.Namespace):
    """Every paper artifact in table order, each at ``--iterations``."""
    from repro.obs import current_tracer

    experiments: dict[str, Any] = {}
    for name, cmd in _COMMANDS.items():
        if not cmd.artifact:
            continue
        print(f"\n=== {name} " + "=" * (60 - len(name)))
        argv = [name, "--iterations", str(args.iterations)]
        with current_tracer().span(name, "experiment"):
            experiments[name] = cmd.run(_parser().parse_args(argv))
    return {"experiments": experiments}


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
        args.target,
        processors=args.processors,
        k=args.k,
        iterations=args.iterations,
        emit=args.emit,
    )
    print(text)
    return {"file": args.target, "report": text}


def _seed_list(spec: str) -> list[int]:
    """argparse type for ``--seeds``: ``"1,2,5-7"`` -> ``[1, 2, 5, 6, 7]``."""
    seeds: list[int] = []
    for part in filter(None, (p.strip() for p in spec.split(","))):
        lo, _, hi = part.partition("-")
        try:
            first, last = int(lo), int(hi or lo)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"seed spec must look like '1,2,5-8', got {spec!r}"
            ) from None
        if last < first:
            raise argparse.ArgumentTypeError(
                f"seed range {part!r} is empty (want lo-hi with lo <= hi)"
            )
        seeds.extend(range(first, last + 1))
    return seeds


def _shard_spec(spec: str) -> str:
    """argparse type for ``--shard``: validate ``i/n``, keep the string."""
    from repro.errors import ReproError
    from repro.runner import parse_shard

    try:
        parse_shard(spec)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spec


def _cmd_campaign(args: argparse.Namespace):
    """Run a campaign through the sharded fault-tolerant runner."""
    from repro.experiments import sweep_cells, table1_cells
    from repro.report import to_json
    from repro.runner import run_campaign
    from repro.workloads import paper_seeds

    target = args.target
    if target == "table1":
        cells = table1_cells(
            args.seeds or paper_seeds(), iterations=args.iterations
        )
    else:
        cells = sweep_cells(
            args.seeds or paper_seeds()[:10], iterations=args.iterations
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
    return report.to_dict()


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

    target = args.target
    if target == "kill:campaign":
        import tempfile

        from repro.chaos import run_kill_resume

        seeds = args.seeds or [0]
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
    seeds = args.seeds or [1, 2]
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


#: Every option, defined once: flag -> add_argument keywords.  A command
#: gets the ones its row lists, plus --json and --trace-out.
_OPTIONS: dict[str, dict[str, Any]] = {
    "--processors": dict(type=int, default=4,
                         help="processor budget (default %(default)s)"),
    "-k": dict(type=int, default=2,
               help="communication cost estimate (default %(default)s)"),
    "--emit": dict(action="store_true",
                   help="also print Fig. 10-style partitioned code"),
    "--workers": dict(type=int, help="worker processes (campaign and "
                      "fuzz default 1: serial; chaos kill:campaign 2) or "
                      "compile worker processes (serve; default one per "
                      "CPU)"),
    "--shard": dict(type=_shard_spec, metavar="i/n",
                    help="execute only shard i of n (0-based)"),
    "--seeds": dict(type=_seed_list, metavar="SPEC",
                    help="seed list, e.g. '1,2,5-8' (default: campaign "
                    "the paper's seeds, chaos 1,2, kill:campaign 0)"),
    "--cache-dir": dict(metavar="DIR",
                        help="shared on-disk artifact cache"),
    "--cell-timeout": dict(type=float, metavar="SECONDS",
                           help="per-cell wall-clock budget "
                           "(default: unlimited)"),
    "--retries": dict(type=int, default=1,
                      help="extra attempts for failed/crashed/timed-out "
                      "cells (default %(default)s)"),
    "--retry-backoff": dict(type=float, default=0.25, metavar="SECONDS",
                            help="base of the seeded exponential backoff "
                            "slept before each retry wave (default "
                            "%(default)s; 0 retries immediately)"),
    "--bench": dict(metavar="PATH", default="BENCH_campaign.json",
                    help="where to write per-cell observability "
                    "(default %(default)s)"),
    "--journal": dict(metavar="DIR",
                      help="write-ahead journal directory: an interrupted "
                      "run resumes where it stopped"),
    "--resume": dict(action=argparse.BooleanOptionalAction, default=True,
                     help="replay journaled cells on restart (default "
                     "on; --no-resume re-executes, still journaling)"),
    "--loops": dict(type=int, default=1000,
                    help="generated cases (default %(default)s)"),
    "--seed": dict(type=int, default=0,
                   help="campaign seed; same seed => bit-identical --json "
                   "report (default %(default)s)"),
    "--chunk": dict(type=int, default=250,
                    help="cases per fuzz cell, also the journal/resume "
                    "granularity (default %(default)s)"),
    "--sigstore": dict(metavar="PATH",
                       help="persisted cross-run signature store: report "
                       "which behaviors are new *ever*"),
    "--promote-dir": dict(metavar="DIR",
                          help="write minimized oracle-failing repros not "
                          "yet in tests/corpus/ as corpus entries"),
    "--host": dict(default="127.0.0.1",
                   help="bind address (default %(default)s)"),
    "--port": dict(type=int, default=8642,
                   help="TCP port; 0 picks an ephemeral port, printed on "
                   "stdout (default %(default)s)"),
    "--max-queue": dict(type=int, default=256,
                        help="max distinct in-flight compilations before "
                        "answering 503 (default %(default)s)"),
    "argv": dict(nargs=argparse.REMAINDER, metavar="...",
                 help="the traced command's own options"),
    "--json": dict(metavar="PATH",
                   help="also write the command's result (with pipeline "
                   "telemetry) as JSON to PATH"),
    "--trace-out": dict(metavar="PATH",
                        help="enable tracing and write the spans as "
                        "Chrome trace_event JSON to PATH (open in "
                        "chrome://tracing or ui.perfetto.dev)"),
}

_TRIPS = "simulated loop trip count"
_HALF = "twice the simulated loop trip count: runs N // 2 iterations"
_NO_TRIPS = "ignored, as this command has no trip count; 'all' forwards it"
_RUNNER = ("--workers", "--shard", "--cache-dir", "--cell-timeout",
           "--retries")
_JOURNAL = ("--journal", "--resume")


@dataclass(frozen=True)
class _Command:
    """One row of the command table.

    ``options`` names the :data:`_OPTIONS` the handler reads;
    ``target`` configures its positional argument, if any;
    ``iterations`` is what ``--iterations`` means to it (``None``: not
    accepted).  ``artifact`` rows are what ``all`` runs, and
    ``telemetry=False`` writes ``--json`` without ``pipeline_report``.
    Only ``profile`` has no ``run``: main() re-parses its target.
    """

    run: Callable[[argparse.Namespace], Any] | None
    help: str
    iterations: str | None = None
    options: tuple[str, ...] = ()
    target: dict[str, Any] | None = None
    artifact: bool = False
    telemetry: bool = True


def _figure(run: Callable[[int], Any], scale: int = 1):
    return functools.partial(_cmd_measurement, run, scale)


_COMMANDS: dict[str, _Command] = {
    "fig1": _Command(_cmd_fig1, "Fig. 1 classification example",
                     _NO_TRIPS, artifact=True),
    "fig3": _Command(_cmd_fig3, "Fig. 3 pattern emergence chart",
                     _NO_TRIPS, artifact=True),
    "fig7": _Command(_figure(run_fig7), "Fig. 7 worked example, ours vs "
                     "DOACROSS", _TRIPS, artifact=True),
    "fig8": _Command(_cmd_fig8, "Fig. 8 DOACROSS with and without optimal "
                     "reordering", _TRIPS, artifact=True),
    "fig9": _Command(_figure(run_fig9, 2), "Fig. 9 Cytron86 example",
                     "half the simulated loop trip count: runs 2N "
                     "iterations", artifact=True),
    "fig11": _Command(_figure(run_fig11), "Fig. 11 Livermore Loop 18",
                      _TRIPS, artifact=True),
    "fig12": _Command(_figure(run_fig12), "Fig. 12 elliptic wave filter",
                      _TRIPS, artifact=True),
    "table1": _Command(_cmd_table1, "Table 1: 25 random loops x mm in "
                       "{1,3,5}", _HALF, artifact=True),
    "sweep": _Command(_cmd_sweep, "the conclusion's communication-cost "
                      "robustness sweep", _HALF, artifact=True),
    "perfect": _Command(_cmd_perfect, "recurrence bound <= Perfect "
                        "Pipelining <= ours <= DOACROSS", _NO_TRIPS,
                        artifact=True),
    "codegen": _Command(_cmd_codegen, "Fig. 10-style partitioned code for "
                        "the Fig. 7 loop", _NO_TRIPS, artifact=True),
    "stages": _Command(
        _cmd_stages, "per-pass pipeline timings, cold vs warm cache",
        _TRIPS, ("--processors", "-k"), artifact=True,
        target=dict(nargs="?", default="fig7", metavar="workload",
                    help="named workload or loop file path (default "
                    "fig7); --processors and -k apply to a loop file"),
    ),
    "all": _Command(_cmd_all, "every paper artifact above, in order",
                    "forwarded to every paper artifact"),
    "schedule": _Command(
        _cmd_schedule, "compile, simulate and verify your own loop file",
        _TRIPS, ("--processors", "-k", "--emit"),
        target=dict(metavar="file", help="mini-language loop file"),
    ),
    "campaign": _Command(
        _cmd_campaign, "Table 1 or sweep cells on the sharded parallel "
        "runner", "simulated loop trip count per cell",
        (*_RUNNER, "--seeds", "--retry-backoff", "--bench", *_JOURNAL),
        target=dict(nargs="?", default="table1", choices=("table1", "sweep"),
                    help="which campaign (default table1)"),
    ),
    "fuzz": _Command(
        _cmd_fuzz, "coverage-guided fuzz campaign", None,
        ("--loops", "--seed", "--chunk", *_RUNNER, *_JOURNAL, "--sigstore",
         "--promote-dir"),
        telemetry=False,
    ),
    "chaos": _Command(
        _cmd_chaos, "fault-injection matrix and cache self-heal check",
        "simulated loop trip count per chaos run",
        ("--seeds", "--cache-dir", "--loops", "--chunk", "--workers"),
        target=dict(nargs="?", default="fig7",
                    help="named workload, corpus:<entry>, or kill:campaign "
                    "for the SIGKILL-and-resume scenario, which alone "
                    "reads --loops, --chunk and --workers (default fig7)"),
    ),
    "profile": _Command(
        None, "run a command under the tracer and print its profile",
        options=("argv",),
        target=dict(nargs="?", default="fig7", metavar="command",
                    help="the command to trace (default fig7; not serve)"),
    ),
    "serve": _Command(
        _cmd_serve, "compilation-as-a-service daemon", None,
        ("--host", "--port", "--max-queue", "--workers"),
    ),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``repro-mimd`` parser, one subparser per table row."""
    parser = argparse.ArgumentParser(
        prog="repro-mimd",
        description=(
            "Regenerate the tables and figures of Kim & Nicolau (ICPP "
            "1990), 'Parallelizing Non-Vectorizable Loops for MIMD "
            "Machines', or schedule your own loop file.  Options go "
            "after the command; see 'repro-mimd <command> --help'."
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="command"
    )
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help, description=cmd.help)
        if cmd.target is not None:
            p.add_argument("target", **cmd.target)
        if cmd.iterations is not None:
            p.add_argument(
                "--iterations", type=int, default=100,
                help=f"{cmd.iterations} (default %(default)s)",
            )
        for flag in (*cmd.options, "--json", "--trace-out"):
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def _export(path: str | None, payload: Any, reports) -> None:
    """Write ``payload`` to ``path`` as JSON, plus pipeline telemetry.

    Dict payloads keep their keys at the top level (stable public
    shape); list payloads are wrapped under ``rows``.  ``reports=None``
    writes the payload bare.
    """
    if not path:
        return
    from repro.report import to_json

    obj = payload
    if reports is not None:
        telemetry = aggregate_reports(reports)
        if isinstance(payload, dict):
            obj = {**payload, "pipeline_report": telemetry}
        elif isinstance(payload, list):
            obj = {"rows": payload, "pipeline_report": telemetry}
        else:
            obj = {"pipeline_report": telemetry}
    to_json(obj, path)
    print(f"(wrote {path})")


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse ``argv`` and run the command's table row."""
    parser = _parser()
    args = parser.parse_args(argv)
    profiling = args.command == "profile"
    if profiling:
        if args.target in ("serve", "profile"):
            parser.error(f"profile: cannot trace {args.target!r}")
        inner = [args.target, *args.argv]
        if args.json:
            inner += ["--json", args.json]
        if args.trace_out:
            inner += ["--trace-out", args.trace_out]
        args = parser.parse_args(inner)
    cmd = _COMMANDS[args.command]

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
                with tracer.span(f"repro-mimd {args.command}", "cli"):
                    payload = cmd.run(args)
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
            _export(args.json, payload, reports if cmd.telemetry else None)
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
