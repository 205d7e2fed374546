"""Flow-in / Flow-out scheduling (paper Fig. 5 and Section 3).

Flow-in and Flow-out nodes never constrain the loop's steady-state
rate, so the paper schedules them *around* the Cyclic pattern:

* **Flow-in-sched** prepares ``p = ceil(L / H)`` free processors — L
  the Flow-in subset's size in cycles, H the pattern height — and
  assigns iteration ``i``'s Flow-in work to processor ``i mod p``.
  (When the pattern advances ``d > 1`` iterations per period we use the
  rate-matched generalization ``p = ceil(L * d / H)``, which reduces to
  the paper's formula for ``d = 1``.)
* **Flow-out-sched** is "virtually the same".
* The Section 3 *folding* heuristic instead places all non-Cyclic work
  into idle slots of one Cyclic processor when some processor's kernel
  has enough idle capacity (``idle >= (L_fi + L_fo) * d`` cycles per
  period), avoiding extra processors entirely.

Within one iteration, Flow-in (resp. Flow-out) ops execute in the
topological order of their distance-0 subgraph; across iterations in
iteration order.  Both orders are dependence-consistent because
same-subset dependences never point backwards in (iteration,
topological-position).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro._types import Op, decode_rows, tile
from repro.core.classify import Classification
from repro.core.patterns import Pattern
from repro.errors import SchedulingError
from repro.graph.ddg import DependenceGraph

__all__ = ["NonCyclicPlan", "plan_noncyclic", "subset_order", "kernel_idle"]


@dataclass(frozen=True)
class NonCyclicPlan:
    """How the non-Cyclic subsets will be executed.

    ``fold_into`` is the Cyclic processor absorbing all non-Cyclic work
    (Section 3 heuristic) or ``None``, in which case ``flow_in_procs``
    / ``flow_out_procs`` extra processors are interleaved mod-p as in
    Fig. 5.
    """

    flow_in_procs: int
    flow_out_procs: int
    fold_into: int | None

    @property
    def extra_processors(self) -> int:
        return 0 if self.fold_into is not None else (
            self.flow_in_procs + self.flow_out_procs
        )


def subset_latency(graph: DependenceGraph, names: tuple[str, ...]) -> int:
    """Paper's ``L``: the subset's size in execution cycles."""
    return sum(graph.latency(n) for n in names)


def subset_order(graph: DependenceGraph, names: tuple[str, ...]) -> list[str]:
    """Within-iteration execution order for a non-Cyclic subset.

    A topological order of the subset's distance-0 subgraph, breaking
    ties so that *sources* of loop-carried dependences run early and
    their *sinks* run late.  This matters because processors execute
    their op sequence in order: if iteration ``i``'s first op waited on
    a value produced late in iteration ``i-1``, the whole processor
    would stall head-of-line and the mod-p interleaving could no longer
    keep up with the Cyclic pattern.
    """
    if not names:
        return []
    sub = graph.subgraph(names)
    weight = {n: 0 for n in sub.node_names()}
    for e in sub.edges:
        if e.distance >= 1:
            weight[e.src] -= 1  # early
            weight[e.dst] += 1  # late
    remaining = {
        n: sum(1 for e in sub.predecessors(n) if e.distance == 0)
        for n in sub.node_names()
    }
    ready = [n for n in sub.node_names() if remaining[n] == 0]
    order: list[str] = []
    while ready:
        ready.sort(key=lambda n: (weight[n], sub.node_index(n)))
        n = ready.pop(0)
        order.append(n)
        for e in sub.successors(n):
            if e.distance == 0:
                remaining[e.dst] -= 1
                if remaining[e.dst] == 0:
                    ready.append(e.dst)
    if len(order) != len(names):
        raise SchedulingError(
            "intra-iteration cycle inside a non-Cyclic subset"
        )
    return order


def kernel_idle(pattern: Pattern, proc: int) -> int:
    """Idle cycles of ``proc`` inside one pattern period."""
    kernel = zip(pattern.procs[pattern.split :], pattern.lats[pattern.split :])
    return pattern.period - sum(lat for j, lat in kernel if j == proc)


def plan_noncyclic(
    graph: DependenceGraph,
    classification: Classification,
    pattern: Pattern,
    *,
    folding: str = "auto",
) -> NonCyclicPlan:
    """Decide processor allocation for the Flow-in/Flow-out subsets.

    ``folding`` is ``'auto'`` (apply the Section 3 heuristic when some
    Cyclic processor has enough kernel idle capacity), ``'always'``
    (force folding into the most idle processor, even if the pattern
    slows down) or ``'never'`` (always use extra processors, Fig. 5).
    """
    if folding not in ("auto", "always", "never"):
        raise SchedulingError(f"unknown folding mode {folding!r}")
    l_fi = subset_latency(graph, classification.flow_in)
    l_fo = subset_latency(graph, classification.flow_out)
    d = pattern.iter_shift
    h = pattern.period

    fold_into: int | None = None
    if (l_fi or l_fo) and folding != "never":
        used = pattern.used_processors()
        idles = sorted(
            ((kernel_idle(pattern, j), -j) for j in used), reverse=True
        )
        best_idle, neg_j = idles[0]
        if folding == "always" or best_idle >= (l_fi + l_fo) * d:
            fold_into = -neg_j

    if fold_into is not None:
        return NonCyclicPlan(0, 0, fold_into)
    p_fi = math.ceil(l_fi * d / h) if l_fi else 0
    p_fo = math.ceil(l_fo * d / h) if l_fo else 0
    return NonCyclicPlan(p_fi, p_fo, None)


def interleave(
    body: Sequence[int], n: int, iterations: int, procs: int
) -> list[list[int]]:
    """Iteration ``i`` of ``body`` (node indices of an ``n``-node graph,
    in order) on row ``i mod procs``, as instance indices ``i * n + v``.

    Fig. 5's Flow-in/Flow-out processors, DOALL loops and DOACROSS all
    emit their programs this way.
    """
    body = list(body)
    return [
        tile(body, len(range(j, iterations, procs)), procs * n, j * n)
        for j in range(procs)
    ]


def noncyclic_program(
    graph: DependenceGraph,
    names: tuple[str, ...],
    iterations: int,
    procs: int,
) -> list[list[Op]]:
    """Fig. 5's mod-p interleaving: iteration ``i`` on proc ``i mod p``.

    Returns ``procs`` op sequences (relative processor numbering).
    """
    if procs < 1:
        raise SchedulingError("noncyclic_program needs >= 1 processor")
    order = [graph.node_index(name) for name in subset_order(graph, names)]
    rows = interleave(order, len(graph), iterations, procs)
    return decode_rows(rows, graph.node_names())
