"""Scheduling loops whose dependence distances exceed one.

The paper assumes distances have already been reduced to 0/1 by
unwinding (Section 2.1, citing MuSi87).  :func:`schedule_any_loop`
packages that pipeline: it unwinds just enough, schedules the unwound
loop, and exposes the result in the *original* loop's iteration space —
``program(n)`` returns per-processor sequences of original-loop
instances, so simulators, validators and code generators downstream
never need to know unwinding happened.

The instance mapping is exact: original instance ``(v, i)`` is unwound
instance ``(v@r, q)`` with ``i = q * factor + r``
(:class:`repro.graph.unwind.UnwoundLoop`), and a program for original
iteration count ``n`` is derived from the unwound program for
``ceil(n / factor)`` unwound iterations with the overhanging instances
(original iteration >= n) dropped.  The mapping is arithmetic on
instance indices (:meth:`NormalizedSchedule.instances`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._types import Op
from repro.core.scheduler import CombinedLoop, LoopScheduleLike, ScheduledLoop
from repro.errors import SchedulingError
from repro.graph.ddg import DependenceGraph
from repro.graph.unwind import UnwoundLoop
from repro.machine.model import Machine

__all__ = ["NormalizedSchedule", "schedule_any_loop"]


@dataclass(frozen=True)
class NormalizedSchedule(LoopScheduleLike):
    """A schedule of an unwound loop, viewed in original coordinates.

    Its program and compile-time schedule are the original loop's
    instances, timed on the original graph — valid because unwinding
    preserves instance dependences exactly, so the per-processor
    orders are dependence-consistent in either coordinate system.
    """

    graph: DependenceGraph  # the ORIGINAL graph (any distances)
    machine: Machine
    unwound: UnwoundLoop
    inner: ScheduledLoop | CombinedLoop

    @property
    def factor(self) -> int:
        """How many body copies one unwound iteration contains."""
        return self.unwound.factor

    @property
    def total_processors(self) -> int:
        return self.inner.total_processors

    def steady_cycles_per_iteration(self) -> float:
        """Rate per *original* iteration."""
        return self.inner.steady_cycles_per_iteration() / self.factor

    def instances(
        self, iterations: int, graph: DependenceGraph | None = None
    ) -> list[list[int]]:
        """Per-processor rows of original-loop instances, as indices
        ``it * n + v`` over ``graph`` (default: the original graph).

        The inner schedule's rows over the unwound graph are mapped by
        arithmetic: unwound node ``w``, which is node ``v`` at residue
        ``r``, at unwound iteration ``q`` is ``v`` at iteration ``q *
        factor + r``, that is ``q * factor * n + (r * n + v)``.
        """
        graph = self.graph if graph is None else graph
        if iterations < 0:
            raise SchedulingError("iterations must be >= 0")
        unwound, f, n = self.unwound.graph, self.factor, len(graph)
        base = []
        for name in unwound.node_names():
            node, r = self.unwound.to_original(Op(name, 0))
            base.append(r * n + graph.node_index(node))
        nu, step, limit = len(unwound), f * n, iterations * n
        rows = self.inner.instances(math.ceil(iterations / f), unwound)
        mapped = ((x // nu * step + base[x % nu] for x in row) for row in rows)
        return [[y for y in row if y < limit] for row in mapped]

    def describe(self) -> str:
        head = (
            f"distances up to {self.graph.max_distance()} normalized by "
            f"unwinding x{self.factor}"
            if self.factor > 1
            else "distances already normalized"
        )
        return head + "\n" + self.inner.describe()


def schedule_any_loop(
    graph: DependenceGraph,
    machine: Machine,
    **schedule_kwargs,
) -> NormalizedSchedule:
    """Schedule a loop with arbitrary dependence distances.

    Accepts every option of
    :func:`repro.core.scheduler.schedule_loop`; the returned
    :class:`NormalizedSchedule` speaks the original iteration space.

    Thin compatibility wrapper over the unified pipeline
    (:mod:`repro.pipeline`): runs ``NormalizePass`` plus the three
    scheduling passes through the process-wide artifact cache.
    """
    from repro.pipeline import CompilationContext, build_pipeline

    ctx = CompilationContext.from_graph(graph, machine)
    build_pipeline(normalize=True, **schedule_kwargs).run(ctx)
    return ctx.artifacts["scheduled"]
