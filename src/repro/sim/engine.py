"""Event-driven simulated multiprocessor.

This is the paper's evaluation vehicle (Section 4): the compile-time
schedule fixes only the *assignment* of ops to processors and each
processor's *execution order*; at run time every processor executes its
next op as soon as its operands are available, with inter-processor
values travelling as messages whose cost may fluctuate
(:class:`~repro.machine.comm.FluctuatingComm`).

Semantics (identical to :mod:`repro.sim.fastpath`, computed
operationally rather than by solving the recurrence):

* a processor is either idle or executing one op;
* an op may start once (a) its processor is idle, (b) every same-
  processor predecessor has finished, and (c) every cross-processor
  predecessor's message has arrived;
* a message for edge ``e`` from instance ``src`` departs when ``src``
  finishes and arrives ``runtime_cost(e, src)`` cycles later; sends are
  free for the sender and links never contend (the paper's "fully
  overlapped communication").

The engine also records a full :class:`ExecutionTrace` (op timings and
every message) for reporting and debugging.

It runs the program as :func:`repro.sim.fastpath.lower` validates and
flattens it, the same lowering the closed-form solve reads: ops are
row-major positions, their predecessors the lowered ``(position,
slot)`` lists, and an ``Op`` is decoded only for a :class:`Message`,
a fault-fabric call or an error message.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

from repro._types import Op
from repro.core.schedule import Schedule
from repro.errors import (
    DeadlockError,
    ProcessorFailureError,
    SimulationError,
    StallError,
)
from repro.graph.ddg import DependenceGraph
from repro.machine.comm import CommModel

__all__ = [
    "ExecutionTrace",
    "Message",
    "Segment",
    "execution_segments",
    "simulate",
]


@dataclass(frozen=True)
class Message:
    """One inter-processor value transfer."""

    src: Op
    dst: Op
    src_proc: int
    dst_proc: int
    sent: int
    arrived: int

    @property
    def cost(self) -> int:
        return self.arrived - self.sent


@dataclass(frozen=True)
class Segment:
    """One contiguous per-processor activity interval.

    ``kind`` is ``'busy'`` (executing ``label``), ``'recv'`` (stalled
    until the last blocking message arrived) or ``'wait'`` (stalled on
    a local predecessor / program order, or drained at the end of the
    run).  Cycle units, ``[start, end)``.
    """

    proc: int
    kind: str
    start: int
    end: int
    label: str = ""

    @property
    def cycles(self) -> int:
        return self.end - self.start


@dataclass
class ExecutionTrace:
    """Everything that happened in one simulated run.

    ``faults`` lists the :class:`~repro.chaos.faults.FaultEvent`\\ s
    that fired during the run — always empty on the reliable machine
    (``fabric=None``).
    """

    schedule: Schedule
    messages: list[Message] = field(default_factory=list)
    faults: list = field(default_factory=list)

    @property
    def makespan(self) -> int:
        return self.schedule.makespan()

    def message_count(self) -> int:
        return len(self.messages)

    def fault_count(self) -> int:
        return len(self.faults)

    def total_comm_cycles(self) -> int:
        return sum(m.cost for m in self.messages)

    def segments(self) -> list[Segment]:
        """Per-processor busy/wait/recv segments of this run."""
        return execution_segments(self)


def execution_segments(trace: ExecutionTrace) -> list[Segment]:
    """Decompose a run into per-processor busy/wait/recv segments.

    Derived purely from the trace's schedule and messages, so the same
    decomposition applies to the event-driven engine and the closed-form
    evaluator (:func:`repro.sim.fastpath.evaluate_trace`) — the
    differential tests compare the two segment-by-segment.  Segments
    tile each used processor's timeline exactly from cycle 0 to the
    makespan.
    """
    sched = trace.schedule
    arrivals: dict[Op, list[int]] = {}
    for m in trace.messages:
        arrivals.setdefault(m.dst, []).append(m.arrived)
    makespan = sched.makespan()
    segments: list[Segment] = []
    for j in sched.used_processors():
        cursor = 0
        for p in sched.ops_on(j):
            if p.start > cursor:
                # The tail of the stall up to the last in-gap message
                # arrival is attributable to communication; whatever
                # remains (message already there, local predecessor or
                # program order pending) is a plain wait.
                blocking = [
                    a for a in arrivals.get(p.op, ()) if cursor < a <= p.start
                ]
                boundary = max(blocking, default=cursor)
                if boundary > cursor:
                    segments.append(
                        Segment(j, "recv", cursor, boundary, str(p.op))
                    )
                if p.start > boundary:
                    segments.append(Segment(j, "wait", boundary, p.start))
            segments.append(Segment(j, "busy", p.start, p.end, str(p.op)))
            cursor = p.end
        if cursor < makespan:
            segments.append(Segment(j, "wait", cursor, makespan))
    return segments


def simulate(
    graph: DependenceGraph,
    order: Sequence[Sequence[Op]],
    comm: CommModel,
    *,
    use_runtime: bool = True,
    link_capacity: int | None = None,
    channel_fifo: bool = False,
    fabric=None,
    watchdog: int | None = None,
) -> ExecutionTrace:
    """Run the program on the simulated multiprocessor.

    ``order[j]`` is processor ``j``'s op sequence; ``order`` may also
    be ``lower(graph, program)``
    (:func:`repro.sim.fastpath.lower`), which validates and flattens
    a program once for every run of it.  Predecessor instances absent
    from the program are treated as loop live-ins, available at time
    0.  Raises :class:`~repro.errors.DeadlockError` when no processor
    can make progress with ops outstanding.

    ``link_capacity`` extends the paper's model: ``None`` (default) is
    the paper's fully-overlapped communication — any number of messages
    in flight per processor pair; an integer ``c`` limits each directed
    processor pair to injecting ``c`` messages per cycle, so bursts
    queue up and contention delays arrivals.  The compile-time
    scheduler knows nothing of contention, which makes this a stress
    test of the paper's robustness story beyond fluctuating latency.

    ``channel_fifo=True`` delivers messages on each directed processor
    pair in sending order (a later message never overtakes an earlier
    one), which is the channel discipline the paper's generated
    SEND/RECEIVE code relies on: its receives are paired with senders
    *statically*, so an overtaking message would be mis-delivered.
    Our default engine matches messages to consumer instances by tag,
    so overtaking is harmless there; the FIFO mode exists to measure
    what the in-order discipline costs under fluctuating latency.

    ``fabric`` (a :class:`~repro.chaos.fabric.CommFabric`) injects
    deterministic faults: per-message delay/loss/duplication verdicts,
    processor stall windows, and fail-stop crashes.  ``None`` (the
    default) is the perfectly reliable machine and takes exactly the
    pre-chaos code path.  With a fabric, receives are idempotent
    (duplicate deliveries of a message are dropped), an op only
    completes if it finishes at or before its processor's crash cycle,
    and the drain check classifies an unfinished run: crashes raise
    :class:`~repro.errors.ProcessorFailureError`, permanently lost
    messages (or a tripped ``watchdog``) raise
    :class:`~repro.errors.StallError`, and anything else keeps raising
    :class:`~repro.errors.DeadlockError`.  All three carry the partial
    trace and per-head diagnostics.

    ``watchdog`` is a cycle horizon: if the event clock passes it the
    run is declared silently stalled instead of spinning on.
    """
    # fastpath imports this module for ExecutionTrace and Message
    from repro.sim.fastpath import LoweredProgram, lower, pred_offsets

    lowered = order
    if not isinstance(lowered, LoweredProgram):
        lowered = lower(graph, order)
    if link_capacity is not None and link_capacity < 1:
        raise SimulationError("link_capacity must be >= 1 (or None)")
    names, edges, lats = lowered.names, lowered.edges, lowered.latencies
    bounds, processors = lowered.bounds, len(lowered.instances)
    flat = [x for row in lowered.instances for x in row]
    proc_of = lowered.procs()
    total, n = len(flat), len(names)

    def op_at(k: int) -> Op:
        return Op(names[flat[k] % n], flat[k] // n)

    # Ops are positions in the lowered program.  An op waits for the
    # messages of its predecessors on other processors, and never
    # starts while a predecessor queued behind it on its own processor
    # (slot 0) is pending.  Of its predecessors earlier on its own
    # processor only the one just before it can still be unfinished
    # when the processor frees up: the lowering leaves them out, so
    # that one is looked up by its offset.
    expected_msgs = [0] * total
    blocked = [False] * total
    consumers: list[list[tuple[int, int]]] = [[] for _ in range(total)]
    for k, entry in enumerate(lowered.preds):
        for pi, slot in entry:
            if slot:
                expected_msgs[k] += 1
                consumers[pi].append((k, slot))
            else:
                blocked[k] = True
    node_offsets = [[off for off, _e in e] for e in pred_offsets(graph)]
    offset_sets = list(map(set, node_offsets))
    after_pred = [False] * total
    for lo, hi in zip(bounds, bounds[1:]):
        for k in range(lo + 1, hi):
            after_pred[k] = flat[k - 1] - flat[k] in offset_sets[flat[k] % n]

    messages: list[Message] = []
    starts = [0] * total
    ptr, stops = bounds[:-1], bounds[1:]
    busy_until = [0] * processors
    finished = [False] * total
    msgs_arrived = [0] * total

    # chaos bookkeeping (untouched when fabric is None)
    crash: dict[int, int] = {}
    halted: dict[int, int] = {}  # proc -> crash cycle it halted at
    delivered: set[tuple[int, int]] = set()  # idempotent receive
    lost: list[tuple[Op, Op]] = []  # permanently lost messages
    wakes_posted: set[tuple[int, int]] = set()
    if fabric is not None:
        for j in range(processors):
            c = fabric.crash_cycle(j)
            if c is not None:
                crash[j] = c

    # event heap: (time, seq, kind, payload); kinds sorted by arrival
    # time only — simultaneous events commute because starting an op
    # depends on a monotone set of satisfied prerequisites.
    events: list[tuple[int, int, str, object]] = []
    seq = 0
    # per directed processor pair: [current injection cycle, used slots]
    link_slots: dict[tuple[int, int], list[int]] = {}
    # per directed processor pair: latest arrival so far (FIFO mode)
    channel_last: dict[tuple[int, int], int] = {}

    def post(time: int, kind: str, payload: object) -> None:
        nonlocal seq
        heapq.heappush(events, (time, seq, kind, payload))
        seq += 1

    def can_start(k: int) -> bool:
        return (
            msgs_arrived[k] == expected_msgs[k]
            and not blocked[k]
            and (not after_pred[k] or finished[k - 1])
        )

    def try_start(j: int, now: int) -> None:
        k = ptr[j]
        if busy_until[j] > now or k >= stops[j] or not can_start(k):
            return
        lat = lats[k]
        if fabric is not None:
            if j in halted:
                return
            c = crash.get(j)
            if c is not None and now + lat > c:
                # fail-stop: the op would finish after the crash cycle,
                # so it (and everything behind it) is lost.
                halted[j] = c
                fabric.note_fail_stop(j, c, op_at(k))
                return
            wake = fabric.stall_until(j, now)
            if wake is not None:
                if (j, wake) not in wakes_posted:
                    wakes_posted.add((j, wake))
                    post(wake, "wake", j)
                return
        starts[k] = now
        busy_until[j] = now + lat
        ptr[j] = k + 1
        post(now + lat, "finish", k)

    for j in range(processors):
        try_start(j, 0)

    executed = 0
    tripped = False
    while events:
        time, _, kind, payload = heapq.heappop(events)
        if watchdog is not None and time > watchdog:
            tripped = True
            break
        if kind == "finish":
            k = payload  # type: ignore[assignment]
            finished[k] = True
            executed += 1
            j = proc_of[k]
            for dst, slot in consumers[k]:
                edge, dj = edges[slot - 1], proc_of[dst]
                cost = (
                    comm.runtime_cost(edge, op_at(k))
                    if use_runtime
                    else comm.compile_cost(edge)
                )
                sent = time
                if link_capacity is not None:
                    # the directed link (j -> dj) injects at most
                    # `link_capacity` messages per cycle: later ones
                    # wait for an injection slot.
                    slots = link_slots.setdefault((j, dj), [0, 0])
                    if slots[0] < time:
                        slots[0], slots[1] = time, 0
                    if slots[1] >= link_capacity:
                        slots[0] += 1
                        slots[1] = 0
                    sent = slots[0]
                    slots[1] += 1
                arrive = sent + cost
                if channel_fifo:
                    arrive = max(arrive, channel_last.get((j, dj), 0))
                    channel_last[(j, dj)] = arrive
                if fabric is None:
                    messages.append(
                        Message(op_at(k), op_at(dst), j, dj, sent, arrive)
                    )
                    post(arrive, "msg", dst)
                else:
                    src_op, dst_op = op_at(k), op_at(dst)
                    mp = fabric.plan_message(
                        edge, src_op, dst_op, j, dj, sent, arrive
                    )
                    if mp.accepted is None:
                        lost.append((src_op, dst_op))
                        continue
                    messages.append(
                        Message(src_op, dst_op, j, dj, sent, mp.accepted)
                    )
                    for at in mp.deliveries:
                        post(at, "msg", (k, dst))
            try_start(j, time)  # processor freed: start its next op
            # a local successor at another point of j's order starts
            # when the pointer reaches it; a local successor at the
            # current head is handled by the try_start above.
        elif kind == "msg":
            if fabric is None:
                dst = payload  # type: ignore[assignment]
                msgs_arrived[dst] += 1
                try_start(proc_of[dst], time)
            else:
                src, dst = payload  # type: ignore[misc]
                if (src, dst) in delivered:
                    # duplicate delivery — idempotent receive drops it
                    fabric.note_dup_dropped(
                        op_at(src), op_at(dst), time, proc_of[dst]
                    )
                else:
                    delivered.add((src, dst))
                    msgs_arrived[dst] += 1
                    try_start(proc_of[dst], time)
        else:  # wake: a stall window ended
            try_start(payload, time)  # type: ignore[arg-type]

    # a run that stops early keeps the started prefix of every row
    sched = Schedule.from_rows(
        [flat[lo:k] for lo, k in zip(bounds, ptr)],
        [starts[lo:k] for lo, k in zip(bounds, ptr)],
        [lats[lo:k] for lo, k in zip(bounds, ptr)],
        names=names,
    )
    trace = ExecutionTrace(sched, messages)
    if fabric is not None:
        trace.faults = list(fabric.events)

    if tripped or executed != total:
        position = {x: k for k, x in enumerate(flat)}
        details = []
        stuck_count = 0
        for j in range(processors):
            k = ptr[j]
            if k >= stops[j]:
                continue
            stuck_count += 1
            x = flat[k]
            # unfinished predecessors on the head's own processor
            missing = []
            for off in node_offsets[x % n]:
                pk = position.get(x + off, -1)
                if pk >= 0 and proc_of[pk] == j and not finished[pk]:
                    missing.append(op_at(pk))
            why = []
            if j in halted:
                why.append(f"processor fail-stopped at cycle {halted[j]}")
            if missing:
                why.append(
                    "waiting on local predecessor(s) "
                    + ", ".join(str(p) for p in missing)
                )
            if msgs_arrived[k] < expected_msgs[k]:
                why.append(
                    f"{msgs_arrived[k]}/{expected_msgs[k]} "
                    "expected message(s) arrived"
                )
            details.append(
                f"P{j} head {op_at(k)}: " + ("; ".join(why) or "ready but "
                "never started (engine bug)")
            )
        shown = "\n  ".join(details[:5])
        more = (
            f"\n  ... and {stuck_count - 5} more stuck processors"
            if stuck_count > 5
            else ""
        )
        unexecuted = total - executed
        if halted:
            err: SimulationError = ProcessorFailureError(
                f"processor failure left {unexecuted} ops unexecuted "
                f"(crashed: {sorted(halted)}):\n  {shown}{more}",
                failed=halted,
                executed=[op_at(k) for k in range(total) if finished[k]],
            )
        elif lost or tripped:
            cause = (
                f"watchdog horizon {watchdog} cycles exceeded"
                if tripped
                else f"{len(lost)} message(s) permanently lost"
            )
            err = StallError(
                f"simulation stalled ({cause}) with {unexecuted} ops "
                f"unexecuted:\n  {shown}{more}"
            )
            err.lost_messages = tuple(lost)
        else:
            err = DeadlockError(
                f"simulation deadlocked with {unexecuted} ops "
                f"unexecuted:\n  {shown}{more}"
            )
        # The partial trace (everything that did execute, every message
        # that did fly) rides on the exception so callers can still
        # export segments / a Chrome trace of the run up to the hang.
        err.trace = trace
        raise err
    return trace
