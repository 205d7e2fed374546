"""Partitioned parallel programs.

A :class:`ParallelProgram` is the concrete artifact the compiler hands
to the machine: one op sequence per processor plus, derived from the
dependence graph, the SEND/RECEIVE set of every op.  It is built from
any scheduled loop (ours, DOACROSS, sequential) and is what the
emitter prints and the interpreter executes.

The program is lowered once (:func:`repro.sim.fastpath.lower`): an
op's RECEIVEs are its lowered cross-processor predecessors, and its
SENDs the same links read from the producer's side.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from repro._types import Op
from repro.core.scheduler import LoopScheduleLike
from repro.errors import CodegenError, GraphError, ScheduleValidationError
from repro.graph.ddg import DependenceGraph
from repro.sim.fastpath import LoweredProgram, lower

__all__ = ["Transfer", "ParallelProgram", "partition"]


@dataclass(frozen=True)
class Transfer:
    """One value transfer ``src (on src_proc) -> dst (on dst_proc)``."""

    src: Op
    dst: Op
    src_proc: int
    dst_proc: int


@dataclass(frozen=True)
class ParallelProgram:
    """Per-processor op sequences plus derived communication sets.

    The program is lowered against ``graph`` when it is built, and
    ``positions`` numbers its ops as the lowering does.  A malformed
    program (an op on two processors, a negative iteration, no
    processor, a node not in ``graph``) raises
    :class:`~repro.errors.CodegenError`.
    """

    graph: DependenceGraph
    order: tuple[tuple[Op, ...], ...]
    iterations: int
    positions: dict[Op, int] = field(init=False, repr=False, compare=False)
    lowered: LoweredProgram = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        positions: dict[Op, int] = {}
        for row in self.order:
            for op in row:
                if op in positions:
                    raise CodegenError(f"{op} assigned to two processors")
                positions[op] = len(positions)
        try:
            lowered = lower(self.graph, self.order)
        except (GraphError, ScheduleValidationError) as exc:
            raise CodegenError(str(exc)) from None
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "lowered", lowered)

    @property
    def processors(self) -> int:
        return len(self.order)

    def assignment(self) -> dict[Op, int]:
        return dict(zip(self.positions, self.lowered.procs()))

    def ops(self) -> list[Op]:
        return list(self.positions)

    @cached_property
    def receivers(self) -> list[list[int]]:
        """The positions each position sends its value to, in the order
        of the producer node's successor edges."""
        graph, lowered = self.graph, self.lowered
        rank = {e: r for v in graph for r, e in enumerate(graph.successors(v))}
        sends: list[list[tuple[int, int]]] = [[] for _ in lowered.preds]
        for k, entry in enumerate(lowered.preds):
            for pi, slot in entry:
                if slot:
                    sends[pi].append((rank[lowered.edges[slot - 1]], k))
        return [[k for _, k in sorted(row)] for row in sends]

    def _transfer(self, src: int, dst: int) -> Transfer:
        bounds = self.lowered.bounds
        i, j = bisect_right(bounds, src) - 1, bisect_right(bounds, dst) - 1
        a, b = self.order[i][src - bounds[i]], self.order[j][dst - bounds[j]]
        return Transfer(a, b, i, j)

    def transfers(self) -> list[Transfer]:
        """All cross-processor value transfers, in (dst, src) order."""
        out = [t for op in self.positions for t in self.receives_of(op)]
        out.sort(key=lambda t: (t.dst, t.src))
        return out

    def receives_of(self, op: Op) -> list[Transfer]:
        k = self.positions[op]
        return [
            self._transfer(pi, k) for pi, slot in self.lowered.preds[k] if slot
        ]

    def sends_of(self, op: Op) -> list[Transfer]:
        k = self.positions[op]
        return [self._transfer(k, dst) for dst in self.receivers[k]]


def partition(
    scheduled: LoopScheduleLike, iterations: int
) -> ParallelProgram:
    """Materialize a scheduled loop into a parallel program."""
    if iterations < 1:
        raise CodegenError("iterations must be >= 1")
    order = tuple(map(tuple, scheduled.program(iterations)))
    return ParallelProgram(scheduled.graph, order, iterations)
