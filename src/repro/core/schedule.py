"""Schedule data structures and the correctness validator.

A :class:`Schedule` maps operation instances to (processor, start
cycle).  The single :meth:`Schedule.validate` checker enforces the
machine semantics of DESIGN.md §3 and is reused by every test and
benchmark in the repository:

* ops on one processor never overlap and appear in start order;
* every dependence is satisfied:  ``start(dst) >= finish(src)`` on the
  same processor, ``start(dst) >= finish(src) + comm(edge)`` across
  processors;
* (optionally) the schedule is *complete*: it contains every instance
  of every graph node for iterations ``[0, N)``.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, NamedTuple

from repro._types import Op, decode_rows
from repro.errors import ValidationError
from repro.graph.ddg import DependenceGraph
from repro.machine.comm import CommModel

__all__ = ["Placement", "Schedule"]


class Placement(NamedTuple):
    """One scheduled operation instance, ordered by ``(start, proc)``
    first (a slotted record: no attribute dict per placement)."""

    start: int
    proc: int
    op: Op
    latency: int

    @property
    def end(self) -> int:
        return self.start + self.latency

    def shifted(self, cycles: int, iterations: int) -> "Placement":
        """The corresponding placement one or more periods later."""
        return Placement(
            self.start + cycles,
            self.proc,
            self.op.shifted(iterations),
            self.latency,
        )


class Schedule:
    """A complete assignment of op instances to processors and cycles.

    A schedule built by :meth:`from_rows` holds only per-processor rows
    of ops (or of instance indices), start times and latencies; its
    :class:`Placement` objects are built on the first placement-level
    access (``placement``, ``start``, ``ops_on``, ``placements``,
    ``add``, ...).  ``makespan``, ``used_processors`` and ``len`` read
    the rows directly.
    """

    #: ``(rows, starts, latencies)`` of a schedule whose placements are
    #: not built yet, else ``None``.  Class attributes, so a schedule
    #: pickled before rows existed unpickles as a built one.
    _rows: tuple | None = None
    #: node names when the rows hold instance indices, else ``None``
    _names: tuple[str, ...] | None = None
    #: the makespan, when whoever built the rows already knew it
    _makespan: int | None = None

    def __init__(self, processors: int) -> None:
        if processors < 1:
            raise ValidationError("schedule needs >= 1 processor")
        self.processors = processors
        self._by_op: dict[Op, Placement] = {}
        self._by_proc: list[list[Placement]] = [[] for _ in range(processors)]
        self._sorted = True

    @classmethod
    def from_rows(
        cls,
        rows: list[list[Op]],
        starts: list[list[int]],
        latencies: list[list[int]],
        *,
        names: tuple[str, ...] | None = None,
        makespan: int | None = None,
    ) -> "Schedule":
        """A schedule given row by row, one row per processor.

        ``rows[j]`` lists processor ``j``'s ops in start order, and
        ``starts[j]`` / ``latencies[j]`` their start cycles and
        latencies.  With ``names`` the rows hold instance indices
        ``it * len(names) + v`` instead, decoded on first use.  The
        lists are kept, not copied.
        """
        if len(rows) < 1:
            raise ValidationError("schedule needs >= 1 processor")
        sched = cls.__new__(cls)
        sched.processors = len(rows)
        sched._sorted = True
        sched._rows = (rows, starts, latencies)
        sched._names, sched._makespan = names, makespan
        return sched

    def _op_rows(self) -> list[list[Op]]:
        rows, names = self._rows[0], self._names
        return rows if names is None else decode_rows(rows, names)

    def __getattr__(self, name: str):
        # Only reached for attributes that are not set: the placement
        # tables of a schedule built from rows, before their first use.
        if name not in ("_by_op", "_by_proc"):
            raise AttributeError(name)
        rows = self._rows
        if rows is not None:  # else another thread built them meanwhile
            by_op: dict[Op, Placement] = {}
            by_proc: list[list[Placement]] = []
            op_rows = self._op_rows()
            for j, (ops, starts, lats) in enumerate(zip(op_rows, *rows[1:])):
                row = [
                    Placement(start, j, op, lat)
                    for op, start, lat in zip(ops, starts, lats)
                ]
                by_op.update(zip(ops, row))
                by_proc.append(row)
            self._by_op, self._by_proc = by_op, by_proc
            self._rows = None
            self.__dict__.pop("_makespan", None)  # add() may change it
        return self.__dict__[name]

    # ------------------------------------------------------------------
    # construction / access
    # ------------------------------------------------------------------
    def add(self, op: Op, proc: int, start: int, latency: int) -> Placement:
        if op in self._by_op:
            raise ValidationError(f"{op} scheduled twice")
        if not 0 <= proc < self.processors:
            raise ValidationError(f"{op}: processor {proc} out of range")
        if start < 0:
            raise ValidationError(f"{op}: negative start {start}")
        p = Placement(start, proc, op, latency)
        self._by_op[op] = p
        row = self._by_proc[proc]
        if row and p.start < row[-1].start:
            self._sorted = False
        row.append(p)
        return p

    def add_placement(self, p: Placement) -> Placement:
        return self.add(p.op, p.proc, p.start, p.latency)

    def __contains__(self, op: Op) -> bool:
        return op in self._by_op

    def __len__(self) -> int:
        rows = self._rows
        if rows is not None:
            return sum(map(len, rows[0]))
        return len(self._by_op)

    def placement(self, op: Op) -> Placement:
        try:
            return self._by_op[op]
        except KeyError:
            raise ValidationError(f"{op} not in schedule") from None

    def start(self, op: Op) -> int:
        return self.placement(op).start

    def finish(self, op: Op) -> int:
        return self.placement(op).end

    def proc(self, op: Op) -> int:
        return self.placement(op).proc

    def ops_on(self, proc: int) -> list[Placement]:
        """Placements on ``proc`` in start order."""
        self._ensure_sorted()
        return list(self._by_proc[proc])

    def start_rows(self) -> list[list[int]]:
        """Each processor's start cycles, in its row order.

        A schedule built by :meth:`from_rows` returns its own lists,
        building no placement: read them, do not modify them.
        """
        rows = self._rows
        if rows is not None:
            return rows[1]
        self._ensure_sorted()
        return [[p.start for p in row] for row in self._by_proc]

    def placements(self) -> list[Placement]:
        """All placements, ordered by (start, proc)."""
        return sorted(self._by_op.values())

    def ops(self) -> list[Op]:
        return list(self._by_op)

    def makespan(self) -> int:
        """Total cycles: max finish time over all ops (0 if empty)."""
        if self._makespan is not None:
            return self._makespan
        rows = self._rows
        if rows is not None:
            _, starts, lats = rows
            return max(
                (max(map(add, s, l)) for s, l in zip(starts, lats) if s),
                default=0,
            )
        return max((p.end for p in self._by_op.values()), default=0)

    def used_processors(self) -> list[int]:
        rows = self._rows
        if rows is not None:
            return [j for j, ops in enumerate(rows[0]) if ops]
        return [j for j in range(self.processors) if self._by_proc[j]]

    def assignment(self) -> dict[Op, int]:
        """op -> processor map (for the simulator)."""
        return {op: p.proc for op, p in self._by_op.items()}

    def order(self) -> list[list[Op]]:
        """Per-processor op sequences in start order (for the simulator)."""
        if self._rows is not None:
            return [list(ops) for ops in self._op_rows()]
        self._ensure_sorted()
        return [[p.op for p in row] for row in self._by_proc]

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            for row in self._by_proc:
                row.sort()
            self._sorted = True

    # ------------------------------------------------------------------
    # metrics helpers
    # ------------------------------------------------------------------
    def busy_cycles(self, proc: int) -> int:
        return sum(p.latency for p in self._by_proc[proc])

    def utilization(self) -> float:
        """Fraction of (used processors x makespan) spent computing."""
        span = self.makespan()
        used = self.used_processors()
        if span == 0 or not used:
            return 0.0
        busy = sum(self.busy_cycles(j) for j in used)
        return busy / (span * len(used))

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(
        self,
        graph: DependenceGraph,
        comm: CommModel | None = None,
        *,
        iterations: int | None = None,
        node_subset: Iterable[str] | None = None,
    ) -> None:
        """Check all machine-model invariants; raise ValidationError.

        ``comm=None`` skips dependence-timing checks (processor
        exclusivity only).  With ``iterations=N`` the schedule must
        contain exactly the instances of ``node_subset`` (default: all
        graph nodes) for iterations ``[0, N)``.
        """
        self._ensure_sorted()
        for j, row in enumerate(self._by_proc):
            for a, b in zip(row, row[1:]):
                if b.start < a.end:
                    raise ValidationError(
                        f"processor {j}: {a.op} [{a.start},{a.end}) overlaps "
                        f"{b.op} [{b.start},{b.end})"
                    )

        for op, p in self._by_op.items():
            node = graph.node(op.node)
            if p.latency != node.latency:
                raise ValidationError(
                    f"{op}: placed latency {p.latency} != node latency "
                    f"{node.latency}"
                )
            if comm is None:
                continue
            for pred, edge in graph.instance_predecessors(op):
                if pred not in self._by_op:
                    continue  # predecessor outside this schedule window
                pp = self._by_op[pred]
                need = pp.end
                if pp.proc != p.proc:
                    need += comm.compile_cost(edge)
                if p.start < need:
                    raise ValidationError(
                        f"{op} on P{p.proc} starts at {p.start} but needs "
                        f"{pred} (P{pp.proc}, finish {pp.end}"
                        + (
                            f" + comm {comm.compile_cost(edge)}"
                            if pp.proc != p.proc
                            else ""
                        )
                        + f") => earliest {need}"
                    )

        if iterations is not None:
            nodes = (
                list(node_subset)
                if node_subset is not None
                else graph.node_names()
            )
            expect = {Op(n, i) for n in nodes for i in range(iterations)}
            got = set(self._by_op)
            if got != expect:
                missing = sorted(expect - got)[:5]
                extra = sorted(got - expect)[:5]
                raise ValidationError(
                    f"incomplete schedule: missing {missing}, extra {extra}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(ops={len(self._by_op)}, procs={self.processors}, "
            f"makespan={self.makespan()})"
        )
