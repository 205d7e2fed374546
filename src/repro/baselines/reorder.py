"""Body-statement reordering to minimize the DOACROSS delay.

The paper compares against DOACROSS "even with an optimal reordering
... obtained by an exhaustive search" (Fig. 8(b)) and notes that
optimal reordering is NP-hard in general (Cytron '86, MuSi '87).  We
implement:

* an exact branch-and-bound over all topological orders of the
  intra-iteration subgraph, pruning prefixes whose partial delay
  already meets the incumbent — exact, exponential, guarded by a node
  limit;
* a greedy heuristic (loop-carried *sources* as early as possible,
  loop-carried *sinks* as late as possible) for larger bodies.
"""

from __future__ import annotations

import math

from repro.errors import SchedulingError
from repro.graph.ddg import DependenceGraph
from repro.machine.model import Machine

__all__ = ["minimize_delay", "EXHAUSTIVE_NODE_LIMIT"]

#: Beyond this many nodes, exhaustive search is refused.
EXHAUSTIVE_NODE_LIMIT = 14


def minimize_delay(
    graph: DependenceGraph,
    machine: Machine,
    *,
    method: str = "exhaustive",
) -> tuple[str, ...]:
    """Return a delay-minimizing legal body order."""
    if method == "exhaustive":
        if len(graph) > EXHAUSTIVE_NODE_LIMIT:
            raise SchedulingError(
                f"{len(graph)} nodes exceed the exhaustive-search limit "
                f"({EXHAUSTIVE_NODE_LIMIT}); use method='heuristic'"
            )
        return _exhaustive(graph, machine)
    if method == "heuristic":
        return _heuristic(graph, machine)
    raise SchedulingError(f"unknown reorder method {method!r}")


def _edge_terms(graph: DependenceGraph, machine: Machine):
    """Loop-carried edges as (src, dst, comm, distance) tuples."""
    return [
        (e.src, e.dst, machine.comm.compile_cost(e), e.distance)
        for e in graph.edges
        if e.distance >= 1
    ]


def _exhaustive(
    graph: DependenceGraph, machine: Machine
) -> tuple[str, ...]:
    names = graph.node_names()
    terms = _edge_terms(graph, machine)
    intra_preds = {
        n: [e.src for e in graph.predecessors(n) if e.distance == 0]
        for n in names
    }
    best_order: list[str] | None = None
    best_delay = math.inf

    offsets: dict[str, int] = {}
    order: list[str] = []
    placed: set[str] = set()

    def partial_delay() -> int:
        d = 0
        for src, dst, comm, dist in terms:
            if src in offsets and dst in offsets:
                need = offsets[src] + graph.latency(src) + comm - offsets[dst]
                d = max(d, math.ceil(need / dist))
        return d

    def dfs(time: int) -> None:
        nonlocal best_order, best_delay
        if len(order) == len(names):
            d = partial_delay()
            if d < best_delay:
                best_delay = d
                best_order = list(order)
            return
        if partial_delay() >= best_delay:
            return  # adding nodes can only keep or raise the max
        for n in names:
            if n in placed:
                continue
            if any(p not in placed for p in intra_preds[n]):
                continue
            placed.add(n)
            order.append(n)
            offsets[n] = time
            dfs(time + graph.latency(n))
            del offsets[n]
            order.pop()
            placed.discard(n)

    dfs(0)
    assert best_order is not None  # a topological order always exists
    return tuple(best_order)


def _heuristic(graph: DependenceGraph, machine: Machine) -> tuple[str, ...]:
    """Greedy: among ready nodes pick lcd-sources first, lcd-sinks last.

    Loop-carried *sources* want small start offsets and *sinks* want
    large ones; a node can be both, in which case the net weight
    decides.  Ties fall back to canonical order (deterministic).
    """
    names = graph.node_names()
    src_weight = {n: 0 for n in names}
    sink_weight = {n: 0 for n in names}
    for e in graph.edges:
        if e.distance >= 1:
            src_weight[e.src] += 1
            sink_weight[e.dst] += 1

    remaining = {
        n: sum(1 for e in graph.predecessors(n) if e.distance == 0)
        for n in names
    }
    ready = [n for n in names if remaining[n] == 0]
    order: list[str] = []
    while ready:
        ready.sort(
            key=lambda n: (
                sink_weight[n] - src_weight[n],
                graph.node_index(n),
            )
        )
        n = ready.pop(0)
        order.append(n)
        for e in graph.successors(n):
            if e.distance == 0:
                remaining[e.dst] -= 1
                if remaining[e.dst] == 0:
                    ready.append(e.dst)
    if len(order) != len(names):
        raise SchedulingError("intra-iteration cycle during reordering")
    return tuple(order)
