"""DOACROSS baseline (Cytron 1986) — iteration-level pipelining.

DOACROSS partitions the loop *by iteration number*: iteration ``i``
runs, body in a fixed statement order, on processor ``i mod p``.
Loop-carried dependences are honoured by skewing consecutive
iterations; on an asynchronous machine the skew materializes as
synchronization (here: the simulator's blocking receives), and its
compile-time value is the classic *delay*::

    delay = max over loop-carried edges (u -> v, distance m) of
            ceil( (finish_offset(u) + comm - start_offset(v)) / m )

clamped at 0, with offsets taken in the chosen body order.  When
``delay >= body length`` pipelining gains nothing and DOACROSS
degenerates to sequential execution (paper Fig. 8); the experiment
harness applies that fallback by taking the better of the two measured
times, as the paper does.

Only cross-iteration parallelism is exploited — the intra-iteration
parallelism our scheduler also captures is structurally out of reach,
which is the paper's core comparison point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._types import Op, decode_rows
from repro.core.flowio import interleave
from repro.core.scheduler import LoopScheduleLike
from repro.errors import SchedulingError
from repro.graph.algorithms import topological_order
from repro.graph.ddg import DependenceGraph
from repro.machine.model import Machine

__all__ = ["DoacrossSchedule", "schedule_doacross", "doacross_delay"]


def _offsets(
    graph: DependenceGraph, body_order: tuple[str, ...]
) -> dict[str, int]:
    off: dict[str, int] = {}
    t = 0
    for n in body_order:
        off[n] = t
        t += graph.latency(n)
    return off


def doacross_delay(
    graph: DependenceGraph,
    machine: Machine,
    body_order: tuple[str, ...],
) -> int:
    """Compile-time iteration skew for the given body order."""
    off = _offsets(graph, body_order)
    delay = 0
    for e in graph.edges:
        if e.distance == 0:
            continue
        finish_u = off[e.src] + graph.latency(e.src)
        need = finish_u + machine.comm.compile_cost(e) - off[e.dst]
        delay = max(delay, math.ceil(need / e.distance))
    return delay


@dataclass(frozen=True)
class DoacrossSchedule(LoopScheduleLike):
    """A DOACROSS scheduling decision: body order + round-robin."""

    graph: DependenceGraph
    machine: Machine
    body_order: tuple[str, ...]

    @property
    def delay(self) -> int:
        return doacross_delay(self.graph, self.machine, self.body_order)

    @property
    def body_length(self) -> int:
        return self.graph.total_latency()

    @property
    def total_processors(self) -> int:
        return self.machine.processors

    def steady_cycles_per_iteration(self) -> float:
        """Analytic steady rate: skew-bound or processor-bound.

        Consecutive iterations are ``delay`` apart (skew bound), and
        each processor needs ``body_length`` cycles per iteration it
        owns (throughput bound) — the larger governs.
        """
        return float(
            max(self.delay, math.ceil(self.body_length / self.machine.processors))
        )

    def program(self, iterations: int) -> list[list[Op]]:
        """Round-robin per-processor op sequences.

        The same as the base class's; defined here because perfbench
        wraps ``DoacrossSchedule.program`` where the class defines it.
        """
        return decode_rows(self.instances(iterations), self.graph.node_names())

    def instances(
        self, iterations: int, graph: DependenceGraph | None = None
    ) -> list[list[int]]:
        """:meth:`program` as instance indices ``it * n + v``, ``v`` a
        node's index in ``graph`` (default: the loop's graph) and ``n``
        its node count."""
        if iterations < 0:
            raise SchedulingError("iterations must be >= 0")
        graph = self.graph if graph is None else graph
        body = list(map(graph.node_index, self.body_order))
        return interleave(body, len(graph), iterations, self.machine.processors)

    def describe(self) -> str:
        return (
            f"DOACROSS on {self.machine.processors} processors, "
            f"body order {'-'.join(self.body_order)}, delay {self.delay} "
            f"(body {self.body_length} cycles)"
        )


def schedule_doacross(
    graph: DependenceGraph,
    machine: Machine,
    *,
    body_order: list[str] | None = None,
    reorder: str = "none",
) -> DoacrossSchedule:
    """Build a DOACROSS schedule.

    ``reorder`` selects the body statement order:

    * ``'none'`` — the given/canonical topological order;
    * ``'exhaustive'`` — minimum-delay order by branch-and-bound over
      all topological orders (paper Fig. 8(b)'s "optimal reordering,
      obtained by an exhaustive search"); exact but exponential, so
      only allowed for small bodies;
    * ``'heuristic'`` — greedy source-early/sink-late order for larger
      bodies.
    """
    graph.validate()
    if body_order is not None:
        order = tuple(body_order)
        _check_order(graph, order)
    elif reorder == "none":
        order = tuple(topological_order(graph, intra_only=True))
    elif reorder in ("exhaustive", "heuristic"):
        from repro.baselines.reorder import minimize_delay

        order = minimize_delay(graph, machine, method=reorder)
    else:
        raise SchedulingError(f"unknown reorder mode {reorder!r}")
    return DoacrossSchedule(graph, machine, order)


def _check_order(graph: DependenceGraph, order: tuple[str, ...]) -> None:
    if sorted(order) != sorted(graph.node_names()):
        raise SchedulingError("body order must be a permutation of the nodes")
    pos = {n: i for i, n in enumerate(order)}
    for e in graph.edges:
        if e.distance == 0 and pos[e.src] >= pos[e.dst]:
            raise SchedulingError(
                f"body order violates intra-iteration dependence "
                f"{e.src}->{e.dst}"
            )
