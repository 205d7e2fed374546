"""Run a scheduled loop under faults and recover what can be recovered.

:func:`run_resilient` is the chaos counterpart of plain simulation: it
executes a :class:`~repro.core.scheduler.ScheduledLoop` (or
:class:`~repro.core.scheduler.CombinedLoop`) on the event engine with a
:class:`~repro.chaos.fabric.FaultyFabric`, and turns every structured
failure into a :class:`ChaosRunResult` instead of an exception:

* clean completion -> ``outcome='ok'``;
* fail-stop crash -> **pattern remap recovery**: Theorem 1 makes the
  steady-state pattern well-defined, so the run restarts from the last
  completed pattern boundary with the remaining iterations re-assigned
  onto the surviving processors (``outcome='recovered'``), reporting
  the degraded-mode rate next to the fault-free rate.  If the remap is
  slower than one processor re-executing iterations back-to-back, the
  sequential fallback is used instead — degraded throughput is never
  worse than sequential;
* permanently lost messages / tripped watchdog -> ``outcome='stalled'``
  with the engine's per-head diagnostics and partial trace;
* genuine scheduling deadlock -> ``outcome='deadlocked'`` (a correctly
  generated program cannot do this; it indicates a compiler bug).

The remapped tail is deadlock-free by construction: every remapped
per-processor sequence is a subsequence of one global order (ops sorted
by compile-schedule start time), which is a linear extension of the
dependence DAG — the earliest unexecuted op in that order always has
both its predecessors and its processor's earlier ops already executed,
so progress never stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._types import Op
from repro.chaos.fabric import FaultyFabric
from repro.chaos.faults import FaultPlan
from repro.core.scheduler import CombinedLoop, LoopScheduleLike, ScheduledLoop
from repro.errors import (
    DeadlockError,
    ProcessorFailureError,
    StallError,
)
from repro.sim.engine import simulate
from repro.sim.fastpath import evaluate, lower

__all__ = ["ChaosRunResult", "run_resilient"]

#: Watchdog horizon as a multiple of the fault-free makespan — generous
#: enough for retransmit storms, small enough that a silent stall is
#: caught in bounded simulated time.
DEFAULT_WATCHDOG_FACTOR = 20.0


@dataclass
class ChaosRunResult:
    """Outcome of one fault-injected run (plus recovery, if any)."""

    outcome: str  #: 'ok' | 'recovered' | 'stalled' | 'deadlocked' | 'failed'
    iterations: int
    fault_free_makespan: int
    makespan: int | None = None  #: total, including the recovered tail
    fault_events: list = field(default_factory=list)
    error: str | None = None
    # recovery details (fail-stop path only)
    failed_processors: dict[int, int] = field(default_factory=dict)
    survivors: list[int] = field(default_factory=list)
    restart_boundary: int | None = None  #: first re-executed iteration
    restart_at: int | None = None  #: cycle the recovered tail begins
    degraded_mode: str | None = None  #: 'remap' | 'sequential_fallback'
    degraded_cpi: float | None = None  #: tail cycles per iteration
    sequential_cpi: float | None = None

    @property
    def completed(self) -> bool:
        return self.outcome in ("ok", "recovered")

    @property
    def fault_free_cpi(self) -> float:
        return self.fault_free_makespan / max(1, self.iterations)

    @property
    def effective_cpi(self) -> float | None:
        """Overall cycles per iteration, recovery included."""
        if self.makespan is None:
            return None
        return self.makespan / max(1, self.iterations)

    @property
    def slowdown(self) -> float | None:
        """Makespan relative to the fault-free run (1.0 = no cost)."""
        if self.makespan is None or self.fault_free_makespan == 0:
            return None
        return self.makespan / self.fault_free_makespan

    def fault_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ev in self.fault_events:
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "iterations": self.iterations,
            "makespan": self.makespan,
            "fault_free_makespan": self.fault_free_makespan,
            "effective_cpi": self.effective_cpi,
            "fault_free_cpi": self.fault_free_cpi,
            "slowdown": self.slowdown,
            "fault_counts": self.fault_counts(),
            "fault_events": [ev.to_dict() for ev in self.fault_events],
            "error": self.error,
            "failed_processors": dict(self.failed_processors),
            "survivors": list(self.survivors),
            "restart_boundary": self.restart_boundary,
            "restart_at": self.restart_at,
            "degraded_mode": self.degraded_mode,
            "degraded_cpi": self.degraded_cpi,
            "sequential_cpi": self.sequential_cpi,
        }


def _completed_boundary(
    scheduled: LoopScheduleLike, executed: frozenset, iterations: int
) -> int:
    """Last completed pattern boundary given the set of finished ops.

    ``b`` = the largest prefix of iterations fully executed by *every*
    node; the boundary rounds ``b`` down to a multiple of the pattern's
    iteration shift ``d`` (Theorem 1: the schedule repeats every ``d``
    iterations, so a multiple of ``d`` is a state the steady-state
    pattern can restart from).  DOALL loops and combined component
    schedules restart at ``b`` itself (``d = 1``).
    """
    done_by_node: dict[str, set[int]] = {}
    for op in executed:
        done_by_node.setdefault(op.node, set()).add(op.iteration)
    b = iterations
    for node in scheduled.graph.node_names():
        done = done_by_node.get(node, set())
        i = 0
        while i in done:
            i += 1
        b = min(b, i)
    d = 1
    if isinstance(scheduled, ScheduledLoop) and scheduled.pattern is not None:
        d = scheduled.pattern.iter_shift
    return (b // d) * d


def _remap_tail(
    scheduled: LoopScheduleLike,
    iterations: int,
    boundary: int,
    failed: dict[int, int],
) -> tuple[list[list[Op]], list[int]]:
    """Re-assign iterations ``[boundary, iterations)`` onto survivors.

    Ops keep their original-processor grouping where the processor
    survived; rows of crashed processors are dealt round-robin onto the
    survivors.  Every row is then ordered by compile-schedule start
    time — a linear extension of the dependence DAG (cross-processor
    ``start(dst) >= finish(src) > start(src)``, same-processor rows are
    already in start order), so the merged program cannot deadlock.
    """
    program = scheduled.program(iterations)
    csched = scheduled.compile_schedule(iterations)
    survivors = [j for j in range(len(program)) if j not in failed]
    dest = {j: i for i, j in enumerate(survivors)}
    for rank, j in enumerate(sorted(failed)):
        dest[j] = rank % len(survivors)

    keyed: list[list[tuple[tuple, Op]]] = [[] for _ in survivors]
    for j, row in enumerate(program):
        for pos, op in enumerate(row):
            if op.iteration >= boundary:
                keyed[dest[j]].append(((csched.start(op), j, pos), op))
    rows = [[op for _, op in sorted(row)] for row in keyed]
    return rows, survivors


def run_resilient(
    scheduled: LoopScheduleLike,
    iterations: int,
    plan: FaultPlan,
    *,
    watchdog_factor: float = DEFAULT_WATCHDOG_FACTOR,
) -> ChaosRunResult:
    """Execute ``scheduled`` for ``iterations`` under ``plan``'s faults.

    Deterministic: the same ``(scheduled, iterations, plan)`` triple
    yields the identical fault sequence, trace, and recovery outcome on
    every run.  Never raises for in-model faults — malformed plans or
    programs still raise their structured errors.
    """
    graph, comm = scheduled.graph, scheduled.machine.comm
    program = lower(graph, scheduled.instances(iterations))
    fault_free = evaluate(graph, program, comm, use_runtime=True)
    ff_makespan = fault_free.makespan()
    watchdog = int(watchdog_factor * max(1, ff_makespan))

    fabric = FaultyFabric(plan)
    try:
        trace = simulate(
            graph, program, comm, fabric=fabric, watchdog=watchdog
        )
    except ProcessorFailureError as err:
        return _recover(
            scheduled, iterations, len(program.instances), err,
            ff_makespan, fabric.events,
        )
    except StallError as err:
        return ChaosRunResult(
            outcome="stalled",
            iterations=iterations,
            fault_free_makespan=ff_makespan,
            fault_events=list(fabric.events),
            error=str(err),
        )
    except DeadlockError as err:
        return ChaosRunResult(
            outcome="deadlocked",
            iterations=iterations,
            fault_free_makespan=ff_makespan,
            fault_events=list(fabric.events),
            error=str(err),
        )
    return ChaosRunResult(
        outcome="ok",
        iterations=iterations,
        fault_free_makespan=ff_makespan,
        makespan=trace.makespan,
        fault_events=list(trace.faults),
    )


def _recover(
    scheduled: LoopScheduleLike,
    iterations: int,
    processors: int,
    err: ProcessorFailureError,
    ff_makespan: int,
    events: list,
) -> ChaosRunResult:
    failed = dict(err.failed)
    survivors = [j for j in range(processors) if j not in failed]
    result = ChaosRunResult(
        outcome="failed",
        iterations=iterations,
        fault_free_makespan=ff_makespan,
        fault_events=list(events),
        failed_processors=failed,
        survivors=survivors,
        error=str(err),
    )
    if not survivors or iterations == 0:
        return result

    graph, comm = scheduled.graph, scheduled.machine.comm
    boundary = _completed_boundary(scheduled, err.executed, iterations)
    tail_iters = iterations - boundary
    rows, survivors = _remap_tail(scheduled, iterations, boundary, failed)
    tail = evaluate(graph, rows, comm, use_runtime=True)
    remap_cpi = tail.makespan() / tail_iters

    seq_cpi = float(graph.total_latency())
    if remap_cpi <= seq_cpi:
        mode, tail_makespan, degraded_cpi = "remap", tail.makespan(), remap_cpi
    else:
        # one survivor re-executes the remaining iterations back-to-back
        mode = "sequential_fallback"
        tail_makespan = tail_iters * graph.total_latency()
        degraded_cpi = seq_cpi

    partial = err.trace.schedule.makespan() if err.trace is not None else 0
    restart_at = max([partial, *failed.values()])

    result.outcome = "recovered"
    result.error = None
    result.makespan = restart_at + tail_makespan
    result.restart_boundary = boundary
    result.restart_at = restart_at
    result.degraded_mode = mode
    result.degraded_cpi = degraded_cpi
    result.sequential_cpi = seq_cpi
    return result
