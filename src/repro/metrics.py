"""Performance metrics.

The paper's headline metric is **percentage parallelism** (credited to
Cytron '84)::

    Sp = (s - p) / s * 100

with ``s`` the sequential and ``p`` the parallel execution time.  (The
paper's text renders the formula as ``(s - p/s) * 100`` — a typesetting
slip: every worked number in the paper, e.g. Fig. 7's 40% from a
5-cycle body running at 3 cycles/iteration, matches ``(s - p) / s``.)

``Sp = 0`` means no gain, ``Sp -> 100`` means perfect parallelization;
negative values (parallel slower than sequential) are possible for a
bad schedule and are reported as-is unless clamped by the caller.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.graph.ddg import DependenceGraph

__all__ = [
    "percentage_parallelism",
    "speedup",
    "sequential_time",
]


def sequential_time(graph: DependenceGraph, iterations: int) -> int:
    """Cycles to run ``iterations`` iterations on one processor.

    One processor executes every node of every iteration back to back
    (dependences permit this in any topological body order, and no
    communication is ever needed), so the time is exactly
    ``iterations * total_latency``.
    """
    if iterations < 0:
        raise ReproError("iterations must be >= 0")
    return iterations * graph.total_latency()


def percentage_parallelism(sequential: float, parallel: float) -> float:
    """Cytron's ``Sp = (s - p)/s * 100``."""
    if sequential <= 0:
        raise ReproError(f"sequential time must be positive: {sequential}")
    return (sequential - parallel) / sequential * 100.0


def speedup(sequential: float, parallel: float) -> float:
    """Plain ratio ``s / p``."""
    if parallel <= 0:
        raise ReproError(f"parallel time must be positive: {parallel}")
    return sequential / parallel
