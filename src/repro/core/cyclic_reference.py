"""The unoptimized reference Cyclic-sched (paper Fig. 4), kept verbatim.

This module preserves the straightforward implementation of Algorithm
*Cyclic-sched* exactly as it stood before the scheduler fastpath
(DESIGN.md §13): per-cycle ``configuration_key`` reconstruction over
the full ``p x (k+1)`` window, the O(procs x preds) processor-selection
inner product, no cross-sweep memoization, and unbounded
``occurrences``/``rejected`` detection state.

It exists for one reason: it is the **oracle** the optimized
:func:`repro.core.cyclic.schedule_cyclic` is measured and verified
against.  ``benchmarks/bench_scheduler_fastpath.py`` times both paths
over sweep-shaped workloads and asserts the detected
:class:`~repro.core.patterns.Pattern` objects are bit-identical;
``tests/test_scheduler_fastpath.py`` does the same over the fuzz
generator families and the minimized corpus.  Do not optimize this
module — its value is being obviously equivalent to the paper's prose.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro._types import Op
from repro.core.cyclic import ORDERINGS, CyclicResult, CyclicStats, _check_input
from repro.core.patterns import Pattern, configuration_key
from repro.core.schedule import Placement
from repro.errors import PatternNotFoundError, SchedulingError
from repro.graph.ddg import DependenceGraph
from repro.machine.model import Machine

__all__ = ["schedule_cyclic_reference"]


def _make_key(
    ordering: str, graph: DependenceGraph
) -> Callable[[Op, int], tuple]:
    index = graph.node_index
    if ordering == "asap":
        return lambda op, asap: (asap, op.iteration, index(op.node))
    if ordering == "iteration":
        return lambda op, asap: (op.iteration, index(op.node))
    if ordering == "index":
        return lambda op, asap: (index(op.node), op.iteration)
    raise SchedulingError(
        f"unknown ordering {ordering!r}; choose from {ORDERINGS}"
    )


def schedule_cyclic_reference(
    graph: DependenceGraph,
    machine: Machine,
    *,
    ordering: str = "asap",
    tie_break: str = "idle",
    max_instances: int | None = None,
    max_iteration_lead: int = 8,
) -> CyclicResult:
    """Schedule a Cyclic subgraph; return its repeating pattern.

    Reference implementation — see :func:`repro.core.cyclic.
    schedule_cyclic` for the parameter contract (identical) and the
    module docstring above for why this copy exists.
    """
    _check_input(graph)
    if tie_break not in ("idle", "first"):
        raise SchedulingError(
            f"unknown tie_break {tie_break!r}; choose 'idle' or 'first'"
        )
    prefer_idle = tie_break == "idle"
    comm = machine.comm
    procs = machine.processors
    latency = {n: graph.latency(n) for n in graph.node_names()}
    if max_instances is None:
        # generous default: multi-SCC subsets can take hundreds of
        # iterations to phase-lock before the pattern stabilizes.
        max_instances = 4000 * len(graph) + 20_000

    # configuration window height = k + 1, with k the largest
    # compile-time communication cost actually reachable on this graph.
    k = max((comm.compile_cost(e) for e in graph.edges), default=0)
    height = k + 1

    key_of = _make_key(ordering, graph)

    placed: dict[Op, Placement] = {}
    asap: dict[Op, int] = {}
    data_ready: dict[Op, int] = {}
    pred_count: dict[Op, int] = {}
    proc_end = [0] * procs
    grid: dict[tuple[int, int], tuple[str, int, int]] = {}
    ready: list[tuple[tuple, Op]] = []
    stats = CyclicStats()

    # Bounded iteration lead with pacing (see schedule_cyclic).
    n_nodes = len(graph)
    iter_remaining: dict[int, int] = {}
    iter_end: dict[int, int] = {}
    parked: dict[int, list[Op]] = {}
    min_unfinished = 0

    def push(op: Op) -> None:
        a = 0
        dr = 0
        for pred, edge in graph.instance_predecessors(op):
            a = max(a, asap[pred] + latency[pred.node])
            dr = max(dr, placed[pred].end)
        asap[op] = a
        data_ready[op] = dr
        if op.iteration < min_unfinished + max_iteration_lead:
            heapq.heappush(ready, (key_of(op, a), op))
        else:
            parked.setdefault(op.iteration, []).append(op)

    for name in graph.node_names():
        if all(e.distance >= 1 for e in graph.predecessors(name)):
            push(Op(name, 0))
    if not ready:
        raise SchedulingError(
            f"graph {graph.name!r}: no initially ready instance — the "
            "distance-0 subgraph has no root (is it really a loop body?)"
        )

    occurrences: dict[tuple, list[tuple[int, int]]] = {}
    rejected: set[tuple[int, int, int]] = set()
    next_top = 0

    while True:
        if not ready:  # pragma: no cover - unreachable for Cyclic graphs
            raise SchedulingError("ready queue drained before a pattern")
        _, op = heapq.heappop(ready)
        del data_ready[op]

        # --- processor selection: first minimum of T(v, Pj) ----------
        best_j = 0
        best_t = None
        floor = iter_end.get(op.iteration - max_iteration_lead, 0)
        for j in range(procs):
            t = max(proc_end[j], floor)
            for pred, edge in graph.instance_predecessors(op):
                pp = placed[pred]
                avail = pp.end + (0 if pp.proc == j else comm.compile_cost(edge))
                if avail > t:
                    t = avail
            if (
                best_t is None
                or t < best_t
                or (prefer_idle and t == best_t and proc_end[j] < proc_end[best_j])
            ):
                best_t, best_j = t, j
        lat = latency[op.node]
        placed[op] = Placement(best_t, best_j, op, lat)
        proc_end[best_j] = best_t + lat
        for q in range(lat):
            grid[(best_j, best_t + q)] = (op.node, op.iteration, q)
        stats.instances_scheduled += 1
        stats.unrollings = max(stats.unrollings, op.iteration + 1)

        # --- advance the iteration-lead window ------------------------
        left = iter_remaining.get(op.iteration, n_nodes) - 1
        iter_remaining[op.iteration] = left
        if best_t + lat > iter_end.get(op.iteration, 0):
            iter_end[op.iteration] = best_t + lat
        if left == 0 and op.iteration == min_unfinished:
            while iter_remaining.get(min_unfinished) == 0:
                iter_remaining.pop(min_unfinished)
                floor_time = iter_end.get(min_unfinished, 0)
                iter_end.pop(min_unfinished - max_iteration_lead - 1, None)
                min_unfinished += 1
                release = min_unfinished + max_iteration_lead - 1
                for parked_op in parked.pop(release, ()):
                    if data_ready[parked_op] < floor_time:
                        data_ready[parked_op] = floor_time
                    heapq.heappush(
                        ready, (key_of(parked_op, asap[parked_op]), parked_op)
                    )

        # --- release successors --------------------------------------
        for succ, _edge in graph.instance_successors(op):
            if succ in placed:
                continue
            if succ in pred_count:
                pred_count[succ] -= 1
                if pred_count[succ] == 0:
                    del pred_count[succ]
                    push(succ)
            else:
                cnt = sum(
                    1
                    for pr, _ in graph.instance_predecessors(succ)
                    if pr not in placed
                )
                if cnt == 0:
                    push(succ)
                else:
                    pred_count[succ] = cnt

        # --- pattern detection over the stable prefix ----------------
        while True:
            found = _detect_reference(
                grid,
                placed,
                procs,
                proc_end,
                height,
                occurrences,
                rejected,
                next_top,
                _frontier_reference(proc_end, data_ready),
                stats,
            )
            if not isinstance(found, Pattern):
                next_top = found
                break
            try:
                # a window pair can match spuriously when some op's
                # starts skip both windows (e.g. a long-latency node
                # placed out of time order, or a node whose instances
                # all lag beyond the verified segment); the tiling
                # check exposes that, and the candidate is rejected
                # rather than accepted or fatal.
                found.check_coverage(graph.node_names())
            except SchedulingError:
                rejected.add((found.start, found.period, found.iter_shift))
                continue
            return CyclicResult(found, stats)

        if stats.instances_scheduled > max_instances:
            raise PatternNotFoundError(
                f"no pattern within {max_instances} instances of "
                f"{graph.name!r} (ordering={ordering!r}, p={procs}, "
                f"k={k}); raise max_instances or check the graph"
            )


def _frontier_reference(
    proc_end: list[int], data_ready: dict[Op, int]
) -> int:
    """First cycle that future placements could still touch."""
    dr_min = min(data_ready.values(), default=0)
    return min(max(pe, dr_min) for pe in proc_end)


def _detect_reference(
    grid: dict[tuple[int, int], tuple[str, int, int]],
    placed: dict[Op, Placement],
    procs: int,
    proc_end: list[int],
    height: int,
    occurrences: dict[tuple, list[tuple[int, int]]],
    rejected: set[tuple[int, int, int]],
    next_top: int,
    frontier: int,
    stats: CyclicStats,
) -> Pattern | int:
    """Scan newly stable windows; return a Pattern or the new next_top.

    ``rejected`` holds (start, period, shift) triples whose coverage
    check failed; they are skipped so the scan can move on.
    """
    proc_range = range(procs)
    t = next_top
    while t + height <= frontier:
        keyed = configuration_key(grid, proc_range, t, height)
        if keyed is None:
            t += 1
            continue
        base, key = keyed
        stats.windows_hashed += 1
        prior = occurrences.get(key)
        if prior:
            for t0, base0 in prior:
                period = t - t0
                shift = base - base0
                if shift < 1 or period < 1:
                    continue
                if (t0, period, shift) in rejected:
                    continue
                if t0 + 2 * period > frontier:
                    # cannot verify a full extra period yet; retry when
                    # the frontier has advanced (do not index t yet).
                    return t
                stats.candidates_tried += 1
                if _segment_repeats_reference(
                    grid, proc_range, t0, period, shift, frontier
                ):
                    stats.detection_cycle = t0
                    return _build_pattern_reference(
                        placed, procs, t0, period, shift
                    )
        occ = occurrences.setdefault(key, [])
        if (t, base) not in occ:  # re-scans after a rejected candidate
            occ.append((t, base))
            if len(occ) > 8:
                occ.pop(0)
        t += 1
    return t


def _segment_repeats_reference(
    grid: dict[tuple[int, int], tuple[str, int, int]],
    procs: range,
    t0: int,
    period: int,
    shift: int,
    frontier: int,
) -> bool:
    """Does [t0, t0+period) equal [t0+period, t0+2*period) shifted?"""
    if t0 + 2 * period > frontier:
        return False
    for j in procs:
        for c in range(t0, t0 + period):
            a = grid.get((j, c))
            b = grid.get((j, c + period))
            if a is None and b is None:
                continue
            if a is None or b is None:
                return False
            if (a[0], a[2]) != (b[0], b[2]) or b[1] - a[1] != shift:
                return False
    return True


def _build_pattern_reference(
    placed: dict[Op, Placement], procs: int, t0: int, period: int, shift: int
) -> Pattern:
    prelude = tuple(
        sorted(p for p in placed.values() if p.start < t0)
    )
    kernel = tuple(
        sorted(p for p in placed.values() if t0 <= p.start < t0 + period)
    )
    return Pattern(
        start=t0,
        period=period,
        iter_shift=shift,
        prelude=prelude,
        kernel=kernel,
        processors=procs,
    )
