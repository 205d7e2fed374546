"""Closed-form evaluation of a (assignment, order) parallel program.

Because the machine model is deterministic given per-processor op
orders (DESIGN.md §3 — blocking receives, fully overlapped sends,
in-order execution), execution times satisfy a simple recurrence::

    start(op) = max( end(previous op on op's processor),
                     max over predecessors p of
                         end(p) + [proc(p) != proc(op)] * cost(edge, p) )

:func:`evaluate` solves it in two steps:

1. *Lowering* (:func:`lower`).  The program — rows of instance
   indices ``it * n + v`` as the schedules' ``instances`` emit them,
   or a caller's rows of ops, which only ``lower`` encodes — is
   validated once with a position array (instance -> row-major
   position), numbered row-major, processor by processor, and
   flattened into integer lists: each op's latency, and each op's
   in-program predecessors as ``(position, edge slot)`` pairs.  Slot
   0 means the same processor (no message); slot ``s >= 1`` names the
   graph edge the message travels.  The result, a :class:`LoweredProgram`, refers to no
   communication model, so one lowering serves every model the
   program is timed under — Table 1's fluctuation levels and the comm
   sweep's true costs all time the same lowered program.
2. *Solve.*  Each edge slot is priced once for the given model — or,
   when the cost can depend on the iteration
   (:meth:`~repro.machine.comm.CommModel.runtime_cost_varies`), each
   message is.  A worklist over processors then advances each one
   along its row while the head's predecessors have finished; a
   processor whose head waits on an unfinished op parks on that op and
   is woken when it finishes.  No ``Op``, ``Placement`` or
   ``Schedule.add`` is touched in the loop.

:func:`evaluate` accepts a program or its :class:`LoweredProgram`
(which iterates its rows of instance indices, so it is still a
program); callers that time one program under several models lower it
once and pass the lowering.

The result is a :class:`~repro.core.schedule.Schedule` built from the
solved rows of instance indices
(:meth:`~repro.core.schedule.Schedule.from_rows`): ``makespan()``
returns the maximum the solve found, and ``Op`` and :class:`Placement`
objects are only built when a caller first asks for one (the
engine-agreement oracle, Gantt charts, trace export).  So are the
lowered program's ``rows``, which a deadlock report,
:func:`evaluate_trace`'s messages and per-message pricing read.

The event engine (:func:`repro.sim.engine.simulate`), the partitioner
and the message-passing interpreter (:mod:`repro.codegen`) read the
same predecessor lists; :func:`pred_offsets` gives the per-node
offsets they are built from.

With ``use_runtime=True`` the per-message *run-time* communication
cost is charged (possibly fluctuating) instead of the compile-time
estimate — that is the paper's "simulated multiprocessor".  The
event-driven engine (:mod:`repro.sim.engine`) computes the same times
operationally; the test suite cross-checks the two.

A cyclic waiting chain (op A waits for a message from an op that is
queued behind A's own processor-order successor, etc.) is reported as
:class:`~repro.errors.DeadlockError` — a correctly generated program
can never deadlock, so this doubles as a codegen sanity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, count
from typing import Callable, Iterator, Sequence

from repro._types import Op, decode_rows
from repro.core.schedule import Schedule
from repro.errors import DeadlockError, ScheduleValidationError
from repro.graph.ddg import DependenceGraph, Edge
from repro.machine.comm import CommModel
from repro.sim.engine import ExecutionTrace, Message

__all__ = [
    "LoweredProgram",
    "evaluate",
    "evaluate_trace",
    "lower",
    "pred_offsets",
]


@dataclass(eq=False, slots=True)
class LoweredProgram:
    """A validated program flattened to integer lists, for any comm model.

    ``instances[j]`` is processor ``j``'s row of instance indices
    ``it * n + v`` over the nodes ``names``.  Ops are numbered
    row-major: processor ``j``'s row holds positions ``bounds[j] ..
    bounds[j + 1] - 1``.  ``preds[k]`` lists op ``k``'s in-program
    predecessors as ``(position, slot)`` pairs; slot 0 is a
    same-processor predecessor (no message) and slot ``s >= 1`` a
    message over ``edges[s - 1]``.  A predecessor earlier in the same
    row is left out: program order already waits for it.  One later in
    the same row stays, at slot 0, so the solve sees the deadlock.
    ``rows`` decodes the ops on demand.

    Iterating a lowered program yields its rows of instance indices,
    so it is still a program.  It is shared (between cells, through
    the artifact cache) and only ``sources`` (the ops its edges are
    priced with when their cost cannot vary) is ever set after it is
    built.
    """

    instances: tuple[list[int], ...]
    names: tuple[str, ...]
    bounds: list[int]
    latencies: list[int]
    edges: tuple[Edge, ...]
    preds: list[tuple[tuple[int, int], ...]]
    sources: tuple[Op, ...] | None = None

    def __iter__(self) -> Iterator[list[int]]:
        return iter(self.instances)

    @property
    def rows(self) -> list[list[Op]]:
        return decode_rows(self.instances, self.names)

    def procs(self) -> list[int]:
        """Each position's processor."""
        return [j for j, row in enumerate(self.instances) for _ in row]


def instance_positions(
    rows: Sequence[Sequence[int]], names: Sequence[str]
) -> list[int]:
    """Check a program of instance indices; map each to its position.

    ``position[x]`` is instance ``x``'s row-major position in ``rows``,
    or ``-1`` when ``x`` is absent; the list is as long as the largest
    instance index.  An empty processor set, a negative iteration and a
    duplicated instance raise
    :class:`~repro.errors.ScheduleValidationError` naming the op, the
    first such fault in program order.
    """
    if len(rows) < 1:
        raise ScheduleValidationError(
            "need at least one processor (program has no processor rows)"
        )
    flat = list(chain.from_iterable(rows))
    if not flat or min(flat) >= 0:
        position = [-1] * (max(flat, default=-1) + 1)
        for k, x in enumerate(flat):
            position[x] = k
        if len(position) - position.count(-1) == len(flat):
            return position
    seen: dict[int, int] = {}
    for j, row in enumerate(rows):
        for x in row:
            op = Op(names[x % len(names)], x // len(names))
            if x in seen:
                raise ScheduleValidationError(
                    f"{op} appears twice in the program "
                    f"(on P{seen[x]} and P{j})"
                )
            if x < 0:
                raise ScheduleValidationError(
                    f"negative iteration: {op} on P{j}"
                )
            seen[x] = j
    raise AssertionError("unreachable: the program had a fault")


def pred_offsets(graph: DependenceGraph) -> list[list[tuple[int, Edge]]]:
    """Each node's incoming edges as instance-index offsets.

    Entry ``v`` lists ``(offset, edge)`` for the edges into node ``v``
    (the graph's ``v``-th node), in the graph's predecessor order:
    instance ``x`` of ``v`` depends over ``edge`` on instance ``x +
    offset``, which is a live-in when negative.  For an edge ``u -> v``
    at distance ``d`` the offset is ``u - v - d * n``.
    """
    index, n = graph.node_index, len(graph)
    return [
        [
            (index(e.src) - v - e.distance * n, e)
            for e in graph.predecessors(name)
        ]
        for v, name in enumerate(graph.node_names())
    ]


def lower(
    graph: DependenceGraph,
    program: Sequence[Sequence[Op]] | Sequence[Sequence[int]],
) -> LoweredProgram:
    """Validate ``program`` and flatten it; see :class:`LoweredProgram`.

    ``program`` lists each processor's instance indices, as the
    schedules' ``instances`` methods emit them, or each processor's
    ops, which are encoded here (an unknown node raises
    :class:`~repro.errors.GraphError`).
    """
    names = tuple(graph.node_names())
    n = len(names)
    first = next((row[0] for row in program if row), 0)
    if isinstance(first, int):
        rows = tuple(list(row) for row in program)
    else:
        index = graph.node_index
        rows = tuple(
            [it * n + index(node) for node, it in row] for row in program
        )
    position = instance_positions(rows, names)
    bounds = list(accumulate(map(len, rows), initial=0))
    # every edge gets a slot, listed with its destination's predecessors
    offsets = pred_offsets(graph)
    edges = tuple(e for entry in offsets for _off, e in entry)
    # padded so that every predecessor index is in range: one before
    # iteration 0 (a live-in) or past the program reads -1
    pad = n * (1 + max((e.distance for e in edges), default=0))
    position = [-1] * pad + position + [-1] * n
    slots = count(1)
    node_preds = [
        [(off + pad, next(slots)) for off, _e in entry] for entry in offsets
    ]
    latency = [graph.latency(name) for name in names]
    lats = [latency[x % n] for x in chain.from_iterable(rows)]
    # tuples of ints, which the cyclic collector stops tracking, so the
    # lowered program adds no long-lived objects for it to rescan
    preds: list[tuple[tuple[int, int], ...]] = []
    for row_lo, row_hi, row in zip(bounds, bounds[1:], rows):
        for k, x in enumerate(row, row_lo):
            entry = []
            for off, slot in node_preds[x % n]:
                pi = position[x + off]
                if pi >= row_lo:
                    if pi < k:  # earlier in the row: program order waits
                        continue
                    if pi < row_hi:  # later in the row: a deadlock
                        slot = 0
                elif pi < 0:  # a live-in, or not in the program
                    continue
                entry.append((pi, slot))
            preds.append(tuple(entry))
    return LoweredProgram(rows, names, bounds, lats, edges, preds)


def _price(
    lowered: LoweredProgram, comm: CommModel, use_runtime: bool
) -> tuple[list[tuple[tuple[int, int], ...]], list[int]]:
    """The predecessor lists and slot costs one solve reads.

    A cost that cannot depend on the iteration is taken once per edge.
    One that can gets a slot per message, so the lists are rebuilt.
    """
    edges = lowered.edges
    if not (use_runtime and comm.runtime_cost_varies()):
        if not use_runtime:
            return lowered.preds, [0, *map(comm.compile_cost, edges)]
        if lowered.sources is None:
            first = {e.src: Op(e.src, 0) for e in edges}
            lowered.sources = tuple(first[e.src] for e in edges)
        costs = list(map(comm.runtime_cost, edges, lowered.sources))
        return lowered.preds, [0, *costs]
    ops = list(chain.from_iterable(lowered.rows))
    costs = [0]
    preds = []
    for entry in lowered.preds:
        priced = []
        for pi, slot in entry:
            if slot:
                costs.append(comm.runtime_cost(edges[slot - 1], ops[pi]))
                slot = len(costs) - 1
            priced.append((pi, slot))
        preds.append(tuple(priced))
    return preds, costs


def _messages(
    lowered: LoweredProgram,
    preds: list[tuple[tuple[int, int], ...]],
    costs: list[int],
    ends: list[int],
) -> list[Message]:
    """The messages of a solve: one per priced cross-processor
    predecessor that finished (``ends`` nonzero)."""
    ops = list(chain.from_iterable(lowered.rows))
    proc = lowered.procs()
    return [
        Message(
            ops[pi], ops[k], proc[pi], proc[k], ends[pi],
            ends[pi] + costs[slot],
        )
        for k, entry in enumerate(preds)
        for pi, slot in entry
        if slot and ends[pi]
    ]


def _solve(
    graph: DependenceGraph,
    order: Sequence[Sequence[Op]] | LoweredProgram,
    comm: CommModel,
    use_runtime: bool,
) -> tuple[Schedule, Callable[[], list[Message]]]:
    """The schedule, and a thunk for the messages it implies.

    A message departs when its source op finishes and arrives ``cost``
    cycles later, whether or not the destination ever started, which
    is what the event engine records under its default (fully
    overlapped) channels — so a *partial* (deadlocked) schedule yields
    the same messages too.
    """
    lowered = order
    if not isinstance(lowered, LoweredProgram):
        lowered = lower(graph, order)
    preds, costs = _price(lowered, comm, use_runtime)
    rows, bounds, lats = lowered.instances, lowered.bounds, lowered.latencies
    processors = len(rows)
    n = bounds[-1]

    # -- solve: advance each processor while its head is ready
    starts = [0] * n
    ends = [0] * n  # 0 = not executed yet (every latency is >= 1)
    ptr, stops = bounds[:-1], bounds[1:]
    proc_end = [0] * processors
    waiters: list[list[int] | None] = [None] * n
    ready = list(range(processors))
    while ready:
        j = ready.pop()
        k, stop, t = ptr[j], stops[j], proc_end[j]
        while k < stop:
            start = t
            for pi, slot in preds[k]:
                avail = ends[pi]
                if not avail:
                    break
                avail += costs[slot]
                if avail > start:
                    start = avail
            else:
                starts[k] = start
                t = ends[k] = start + lats[k]
                woken = waiters[k]
                if woken is not None:
                    ready.extend(woken)
                k += 1
                continue
            # head waits on op pi: park until pi finishes
            if waiters[pi] is None:
                waiters[pi] = [j]
            else:
                waiters[pi].append(j)
            break
        ptr[j], proc_end[j] = k, t

    # a deadlocked run keeps the executed prefix of every row
    executed = [b - a for a, b in zip(bounds, ptr)]
    sched = Schedule.from_rows(
        [row[:m] for row, m in zip(rows, executed)],
        [starts[a:b] for a, b in zip(bounds, ptr)],
        [lats[a:b] for a, b in zip(bounds, ptr)],
        names=lowered.names,
        makespan=max(proc_end),
    )

    # a partial, not a closure: the solve loop's lists stay fast locals
    messages = partial(_messages, lowered, preds, costs, ends)
    placed = sum(executed)
    if placed != n:
        rows = zip(lowered.rows, executed)
        stuck = [row[m] for row, m in rows if m < len(row)]
        err = DeadlockError(
            f"program deadlocked with {n - placed} ops "
            f"unexecuted; stuck heads: {stuck[:5]}"
        )
        err.trace = ExecutionTrace(sched, messages())
        raise err
    return sched, messages


def evaluate(
    graph: DependenceGraph,
    order: Sequence[Sequence[Op]],
    comm: CommModel,
    *,
    use_runtime: bool = False,
) -> Schedule:
    """Compute start/finish times for a per-processor op ordering.

    ``order[j]`` is the exact execution order of processor ``j``;
    ``order`` may also be ``lower(graph, program)``, which skips
    validation and lowering.  Dependences whose source instance is
    absent from the program (live-in values, or nodes outside the
    scheduled subset) are satisfied at time 0.
    """
    return _solve(graph, order, comm, use_runtime)[0]


def evaluate_trace(
    graph: DependenceGraph,
    order: Sequence[Sequence[Op]],
    comm: CommModel,
    *,
    use_runtime: bool = False,
) -> ExecutionTrace:
    """:func:`evaluate`, packaged as a full :class:`ExecutionTrace`.

    The schedule comes from the closed-form recurrence; the messages
    are read off the lowered program's cross-processor predecessors
    (deterministic given the comm model), so the result supports the
    same segment/Gantt/export tooling as the event-driven engine — and
    the differential tests can compare the two implementations through
    one lens.
    """
    sched, messages = _solve(graph, order, comm, use_runtime)
    return ExecutionTrace(sched, messages())
