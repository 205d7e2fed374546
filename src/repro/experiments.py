"""Experiment drivers regenerating every table and figure of the paper.

Each ``run_*`` function reproduces one artifact (see DESIGN.md §4 for
the experiment index) and returns a small result object carrying both
the measured numbers and the paper-reported ones, so benchmarks, the
CLI and EXPERIMENTS.md all print from one source of truth.

Measurement protocol (paper Section 4): the scheduler plans with the
compile-time communication estimate; the resulting program (assignment
+ per-processor orders) is executed on the simulated multiprocessor
with *run-time* communication costs; ``Sp = (s - p)/s * 100`` against
the sequential time.  Like the paper's compiler, we fall back to the
sequential code whenever a parallel schedule would be slower, so Sp is
never negative.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.baselines.doacross import DoacrossSchedule, schedule_doacross
from repro.baselines.perfect import schedule_perfect
from repro.core.scheduler import schedule_loop
from repro.metrics import percentage_parallelism, sequential_time
from repro.pipeline import (
    ArtifactCache,
    CompilationContext,
    build_pipeline,
    default_cache,
    fingerprint,
)
from repro.pipeline.cache import stable_hash
from repro.pipeline.passes import lowered_program
from repro.sim.fastpath import evaluate
from repro.workloads import (
    cytron86,
    elliptic_filter,
    fig1,
    fig3,
    fig7,
    livermore18,
    paper_seeds,
)
from repro.workloads.base import Workload

__all__ = [
    "Measurement",
    "PerfectGapRow",
    "Table1Row",
    "Table1Result",
    "measure",
    "run_perfect_gap",
    "run_fig1",
    "run_fig3",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig11",
    "run_fig12",
    "run_table1",
    "run_comm_sweep",
    "sweep_cells",
    "table1_cells",
    "DEFAULT_ITERATIONS",
]

DEFAULT_ITERATIONS = 100


@dataclass(frozen=True)
class Measurement:
    """Ours-vs-DOACROSS on one workload.

    When the parallel schedule would have been slower than sequential
    execution, the compiler (like the paper's) falls back to the
    sequential code; ``fell_back`` records that, and ``ours_rate`` /
    ``total_processors`` then describe the code that actually ran —
    the sequential loop (one processor, one body per iteration) — not
    the discarded parallel schedule.
    """

    name: str
    iterations: int
    sequential: int
    ours: int
    doacross: int
    ours_rate: float
    doacross_delay: int
    total_processors: int
    paper: Mapping[str, float] = field(default_factory=dict)
    fell_back: bool = False

    @property
    def sp_ours(self) -> float:
        return percentage_parallelism(self.sequential, self.ours)

    @property
    def sp_doacross(self) -> float:
        return percentage_parallelism(self.sequential, self.doacross)


def _doacross_makespan(
    doa: DoacrossSchedule, iterations: int, cache: ArtifactCache | None
) -> int:
    """DOACROSS's run-time makespan.

    Its program depends on the graph, the processor count, the body
    order and the trip count, never on the run-time costs, so it is
    lowered once per that key in ``cache``.
    """
    g, m = doa.graph, doa.machine
    key = stable_hash(
        "doacross-lowered",
        fingerprint(g),
        str(m.processors),
        *doa.body_order,
        str(iterations),
    )
    lowered = lowered_program(
        cache, key, g, lambda: doa.instances(iterations)
    )
    return evaluate(g, lowered, m.comm, use_runtime=True).makespan()


def measure(
    workload: Workload,
    iterations: int = DEFAULT_ITERATIONS,
    *,
    doacross_processors: int | None = None,
    doacross_reorder: str = "none",
    **schedule_kwargs,
) -> Measurement:
    """Schedule + simulate one workload with both techniques.

    Ours runs through the unified pipeline (schedule + run-time
    evaluation), so repeated measurements of the same workload — Table
    1's fluctuation levels, the comm sweep, every benchmark — hit the
    process-wide artifact cache instead of re-running the scheduler.
    Both programs, ours and DOACROSS's, are lowered once per program
    and trip count in that cache and timed per run-time comm model
    (``schedule_kwargs`` may pass ``cache=``, ``None`` included).
    """
    g, m = workload.graph, workload.machine
    seq = sequential_time(g, iterations)

    ctx = CompilationContext.from_graph(g, m)
    pm = build_pipeline(
        iterations=iterations, use_runtime=True, **schedule_kwargs
    )
    pm.run(ctx)
    ours = ctx.scheduled
    parallel_makespan = ctx.evaluation.makespan()
    fell_back = parallel_makespan > seq
    ours_par = min(parallel_makespan, seq)

    dm = (
        m
        if doacross_processors is None
        else m.with_processors(doacross_processors)
    )
    doa = schedule_doacross(g, dm, reorder=doacross_reorder)
    doa_par = min(_doacross_makespan(doa, iterations, pm.cache), seq)

    return Measurement(
        name=workload.name,
        iterations=iterations,
        sequential=seq,
        ours=ours_par,
        doacross=doa_par,
        ours_rate=(
            float(g.total_latency())
            if fell_back
            else ours.steady_cycles_per_iteration()
        ),
        doacross_delay=doa.delay,
        total_processors=1 if fell_back else ours.total_processors,
        paper=dict(workload.paper),
        fell_back=fell_back,
    )


# ----------------------------------------------------------------------
# Fig. 1 — classification
# ----------------------------------------------------------------------
def run_fig1():
    """Classification of the Fig. 1 example; returns (workload, result)."""
    from repro.pipeline import ClassifyPass, PassManager

    w = fig1()
    ctx = CompilationContext.from_graph(w.graph, w.machine)
    PassManager([ClassifyPass()], cache=default_cache()).run(ctx)
    return w, ctx.classification


# ----------------------------------------------------------------------
# Fig. 3 — pattern emergence under unit communication cost
# ----------------------------------------------------------------------
def run_fig3():
    """Pattern of the Fig. 3 loop; returns (workload, ScheduledLoop)."""
    w = fig3()
    ctx = CompilationContext.from_graph(w.graph, w.machine)
    build_pipeline().run(ctx)
    return w, ctx.scheduled


# ----------------------------------------------------------------------
# Fig. 7 / Fig. 8 — the worked example and its DOACROSS schedules
# ----------------------------------------------------------------------
def run_fig7(iterations: int = DEFAULT_ITERATIONS) -> Measurement:
    """Our scheduler vs DOACROSS on the Fig. 7 loop (paper: 40 vs 0)."""
    w = fig7()
    return measure(w, iterations, doacross_processors=4)


@dataclass(frozen=True)
class Fig8Result:
    """DOACROSS on Fig. 7's loop: natural and optimally reordered."""

    natural: DoacrossSchedule
    reordered: DoacrossSchedule
    sequential: int
    natural_time: int
    reordered_time: int

    @property
    def sp_natural(self) -> float:
        return percentage_parallelism(
            self.sequential, min(self.natural_time, self.sequential)
        )

    @property
    def sp_reordered(self) -> float:
        return percentage_parallelism(
            self.sequential, min(self.reordered_time, self.sequential)
        )


def run_fig8(iterations: int = DEFAULT_ITERATIONS) -> Fig8Result:
    """Fig. 8: DOACROSS gains nothing even with exhaustive reordering."""
    w = fig7()
    m = w.machine.with_processors(4)
    seq = sequential_time(w.graph, iterations)
    natural = schedule_doacross(w.graph, m)
    reordered = schedule_doacross(w.graph, m, reorder="exhaustive")
    cache = default_cache()
    return Fig8Result(
        natural=natural,
        reordered=reordered,
        sequential=seq,
        natural_time=_doacross_makespan(natural, iterations, cache),
        reordered_time=_doacross_makespan(reordered, iterations, cache),
    )


# ----------------------------------------------------------------------
# Fig. 9/10, Fig. 11, Fig. 12 — the three application examples
# ----------------------------------------------------------------------
def run_fig9(iterations: int = 2 * DEFAULT_ITERATIONS) -> Measurement:
    """Cytron86 example (paper: 72.7 vs 31.8)."""
    return measure(cytron86(), iterations, doacross_processors=8)


def run_fig11(iterations: int = DEFAULT_ITERATIONS) -> Measurement:
    """Livermore Loop 18 (paper: 49.4 vs 12.6)."""
    return measure(livermore18(), iterations, doacross_processors=8)


def run_fig12(iterations: int = DEFAULT_ITERATIONS) -> Measurement:
    """Fifth-order elliptic wave filter (paper: 30.9 vs 0)."""
    return measure(elliptic_filter(), iterations, doacross_processors=8)


# ----------------------------------------------------------------------
# Table 1 — 25 random loops under fluctuating communication
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table1Row:
    """One loop's percentage parallelism per fluctuation level."""

    seed: int
    cyclic_nodes: int
    sp: Mapping[int, tuple[float, float]]  # mm -> (ours, doacross)


@dataclass(frozen=True)
class Table1Result:
    rows: Sequence[Table1Row]
    mms: Sequence[int]
    iterations: int
    #: paper Table 1(b): mm -> (ours mean, doacross mean, factor)
    paper_averages: Mapping[int, tuple[float, float, float]] = field(
        default_factory=lambda: {
            1: (47.4046, 16.3135, 2.9),
            3: (39.0674, 13.0623, 3.0),
            5: (30.2776, 9.4823, 3.3),
        }
    )

    def mean_ours(self, mm: int) -> float:
        return statistics.mean(r.sp[mm][0] for r in self.rows)

    def mean_doacross(self, mm: int) -> float:
        return statistics.mean(r.sp[mm][1] for r in self.rows)

    def factor(self, mm: int) -> float:
        """Paper Table 1(b)'s 'factor of speed-up over DOACROSS'."""
        d = self.mean_doacross(mm)
        return self.mean_ours(mm) / d if d else float("inf")

    def wins(self, mm: int) -> int:
        """Loops on which our schedule strictly beats DOACROSS."""
        return sum(1 for r in self.rows if r.sp[mm][0] > r.sp[mm][1])

    def losses(self, mm: int) -> int:
        """Loops on which DOACROSS strictly beats ours (paper: <= 2)."""
        return sum(1 for r in self.rows if r.sp[mm][0] < r.sp[mm][1])


def table1_cells(
    seeds: Sequence[int],
    *,
    mms: Sequence[int] = (1, 3, 5),
    iterations: int = 50,
    k: int = 3,
    processors: int = 8,
    mode: str = "worst",
) -> list:
    """The campaign cells of Table 1, in the canonical (seed, mm) order."""
    from repro.runner import table1_cell

    return [
        table1_cell(
            seed,
            mm,
            iterations=iterations,
            k=k,
            processors=processors,
            mode=mode,
        )
        for seed in seeds
        for mm in mms
    ]


def run_table1(
    seeds: Sequence[int] | None = None,
    *,
    mms: Sequence[int] = (1, 3, 5),
    iterations: int = 50,
    k: int = 3,
    processors: int = 8,
    mode: str = "worst",
    workers: int = 1,
    cache_dir: str | None = None,
) -> Table1Result:
    """Reproduce Table 1(a)/(b).

    For each seed, the random loop's Cyclic subgraph is scheduled once
    per fluctuation level (the schedule itself only depends on the
    estimate ``k``, but each level carries its own run-time cost
    model) and executed on the simulated multiprocessor.

    The (seed, mm) cells run through the campaign runner:
    ``workers=1`` (default) executes them serially in-process exactly
    as before; ``workers=N`` fans out over a process pool with
    bit-identical results.  ``cache_dir`` enables the shared on-disk
    artifact cache tier (see :mod:`repro.runner`).  Any cell failure
    raises :class:`~repro.errors.CampaignError`; use
    :func:`repro.runner.run_campaign` directly for partial results.
    """
    from repro.runner import run_campaign

    seeds = list(seeds) if seeds is not None else paper_seeds()
    cells = table1_cells(
        seeds,
        mms=mms,
        iterations=iterations,
        k=k,
        processors=processors,
        mode=mode,
    )
    campaign = run_campaign(
        cells, workers=workers, cache_dir=cache_dir
    ).raise_on_failure()
    rows: list[Table1Row] = []
    cell_iter = iter(campaign.results)
    for seed in seeds:
        sp: dict[int, tuple[float, float]] = {}
        cyclic_nodes = 0
        for _mm in mms:
            res = next(cell_iter)
            cyclic_nodes = res.value["cyclic_nodes"]
            sp[_mm] = (res.value["sp_ours"], res.value["sp_doacross"])
        rows.append(Table1Row(seed, cyclic_nodes, sp))
    return Table1Result(rows=rows, mms=list(mms), iterations=iterations)


# ----------------------------------------------------------------------
# Perfect Pipelining gap (paper Section 1's framing)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PerfectGapRow:
    """Steady rates: recurrence bound <= Perfect Pipelining <= ours."""

    name: str
    recurrence_bound: float
    perfect_rate: float
    ours_rate: float
    doacross_rate: float


def run_perfect_gap(iterations: int = 0) -> list[PerfectGapRow]:
    """How close each technique gets to the zero-communication ideal.

    The paper positions its scheduler between Perfect Pipelining (the
    zero-communication VLIW idealization, a lower bound on any MIMD
    rate) and DOACROSS.  For each application workload we report the
    recurrence-theoretic bound, Perfect Pipelining's pattern rate, our
    rate under the workload's communication cost, and DOACROSS's
    steady rate.
    """
    from repro.graph.algorithms import critical_recurrence_ratio

    rows = []
    for w in (fig7(), cytron86(), livermore18(), elliptic_filter()):
        ours = schedule_loop(w.graph, w.machine)
        ideal = schedule_perfect(w.graph, w.machine.processors)
        doa = schedule_doacross(w.graph, w.machine.with_processors(8))
        rows.append(
            PerfectGapRow(
                name=w.name,
                recurrence_bound=critical_recurrence_ratio(w.graph),
                perfect_rate=ideal.steady_cycles_per_iteration(),
                ours_rate=ours.steady_cycles_per_iteration(),
                doacross_rate=min(
                    doa.steady_cycles_per_iteration(),
                    float(w.graph.total_latency()),
                ),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Conclusion's robustness claim — communication up to 7x node latency
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CommSweepPoint:
    true_k: int
    sp_ours: float
    sp_doacross: float


def sweep_cells(
    seeds: Sequence[int],
    *,
    estimate_k: int = 3,
    true_ks: Sequence[int] = (3, 5, 7, 9, 11, 14),
    iterations: int = 50,
    processors: int = 8,
) -> list:
    """The comm-sweep campaign cells, in canonical (true_k, seed) order."""
    from repro.runner import sweep_cell

    return [
        sweep_cell(
            seed,
            true_k,
            estimate_k=estimate_k,
            iterations=iterations,
            processors=processors,
        )
        for true_k in true_ks
        for seed in seeds
    ]


def run_comm_sweep(
    seeds: Sequence[int] | None = None,
    *,
    estimate_k: int = 3,
    true_ks: Sequence[int] = (3, 5, 7, 9, 11, 14),
    iterations: int = 50,
    processors: int = 8,
    workers: int = 1,
    cache_dir: str | None = None,
) -> list[CommSweepPoint]:
    """Schedule with ``k = estimate_k``; run with ever-costlier links.

    The conclusion claims the approach stays profitable even when "the
    actual cost of communication is relatively high (7 times the basic
    node execution time)" and the estimate is far off.  ``mm`` is
    chosen so the worst-case run-time cost equals ``true_k``.

    Like :func:`run_table1`, the (true_k, seed) cells run through the
    campaign runner; ``workers``/``cache_dir`` behave identically.
    """
    from repro.runner import run_campaign

    seeds = list(seeds) if seeds is not None else paper_seeds()[:10]
    cells = sweep_cells(
        seeds,
        estimate_k=estimate_k,
        true_ks=true_ks,
        iterations=iterations,
        processors=processors,
    )
    campaign = run_campaign(
        cells, workers=workers, cache_dir=cache_dir
    ).raise_on_failure()
    points: list[CommSweepPoint] = []
    cell_iter = iter(campaign.results)
    for true_k in true_ks:
        ours_sp, doa_sp = [], []
        for _seed in seeds:
            res = next(cell_iter)
            ours_sp.append(res.value["sp_ours"])
            doa_sp.append(res.value["sp_doacross"])
        points.append(
            CommSweepPoint(
                true_k, statistics.mean(ours_sp), statistics.mean(doa_sp)
            )
        )
    return points
