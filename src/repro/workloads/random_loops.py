"""The paper's random loops (Section 4, Table 1).

Generation protocol, following the paper's stated parameters:

* 40 nodes per loop; execution time of each node drawn uniformly from
  {1, 2, 3};
* exactly 20 *simple dependences* (sd: distance 0) and 20 *loop-carried
  dependences* (lcd: distance 1), duplicates re-drawn;
* "After this was done, we extracted only Cyclic nodes from the
  graph" — the benchmark subject is the Cyclic subgraph, which may be
  disconnected (the scheduler then schedules each component
  independently, per Section 2.1);
* seeds 1..25 give the 25 loops.

**Protocol interpretation** (documented substitution — see DESIGN.md):
the paper does not say how dependence endpoints were drawn.  Drawing
both endpoints uniformly over all 40 nodes produces nearly-empty
Cyclic subsets (a recurrence then needs a backward loop-carried edge
landing exactly on a forward sd-path, which is rare at this sparsity)
and DOACROSS scores 0 on essentially every loop — flatly contradicting
Table 1's spread of DOACROSS values (0..40%).  Real loop bodies have
mostly short-range dependences, so we draw *index-local* links: an sd
spans ``1 + U{0..sd_span-1}`` statements forward, an lcd spans
``U{0..lcd_span}`` statements backward (0 = a self-recurrence).  With
the defaults (``sd_span=6``, ``lcd_span=12``) the 25 Cyclic subgraphs
average a handful of nodes to ~20, DOACROSS lands in the paper's range,
and the paper's aggregate claims reproduce (see EXPERIMENTS.md).

Our random number generator is numpy's PCG64 stream, reproduced bit
for bit in pure Python (:class:`repro.util.pcg64.PCG64`), not whatever
the authors used in 1990, so individual loops differ from theirs; the
reproduced claim is Table 1's aggregate shape.  In the rare event a
seed yields an empty Cyclic subset, additional backward lcds are drawn
(deterministically, from a follow-on stream) until a recurrence exists
— the paper's 25 loops all had one.
"""

from __future__ import annotations

from repro.core.classify import classify
from repro.errors import ReproError
from repro.graph.ddg import DependenceGraph
from repro.machine.comm import FluctuatingComm
from repro.machine.model import Machine
from repro.util.pcg64 import PCG64
from repro.workloads.base import Workload

__all__ = [
    "random_loop",
    "random_cyclic_loop",
    "paper_seeds",
    "table1_machine",
]

_NODES = 40
_SDS = 20
_LCDS = 20
_SD_SPAN = 6
_LCD_SPAN = 12


def paper_seeds() -> list[int]:
    """The paper's 25 seeds (1..25)."""
    return list(range(1, 26))


def random_loop(
    seed: int,
    *,
    nodes: int = _NODES,
    sds: int = _SDS,
    lcds: int = _LCDS,
    max_latency: int = 3,
    sd_span: int = _SD_SPAN,
    lcd_span: int = _LCD_SPAN,
    edge_comm: int | None = None,
) -> DependenceGraph:
    """Generate one random loop graph per the §4 protocol.

    Degenerate shapes are handled here, not by callers: ``nodes=1`` is
    valid (with ``sds=0`` and at most one lcd, which is necessarily the
    self-recurrence ``n0 -> n0``), and impossible edge budgets raise
    :class:`~repro.errors.ReproError` up front instead of looping
    forever.  ``edge_comm`` stamps every generated edge with an
    explicit per-edge communication cost — ``0`` is legal and means
    genuinely free edges, consistently for sds and lcds alike (``None``
    keeps the machine model's default).
    """
    if nodes < 1:
        raise ReproError("need at least 1 node")
    if edge_comm is not None and edge_comm < 0:
        raise ReproError(f"edge_comm must be >= 0, got {edge_comm}")
    if sds > nodes * (nodes - 1) // 2:
        raise ReproError(f"cannot place {sds} distinct sds on {nodes} nodes")
    if lcds > nodes * (min(lcd_span, nodes - 1) + 1):
        raise ReproError(f"cannot place {lcds} distinct lcds on {nodes} nodes")
    rng = PCG64(seed)
    g = DependenceGraph(f"random{seed}")
    for i in range(nodes):
        g.add_node(f"n{i}", rng.integers(1, max_latency + 1))
    names = g.node_names()

    chosen_sd: set[tuple[int, int]] = set()
    while len(chosen_sd) < sds:
        a = rng.integers(0, nodes - 1)
        b = min(a + 1 + rng.integers(0, sd_span), nodes - 1)
        if a != b:
            chosen_sd.add((a, b))
    chosen_lcd: set[tuple[int, int]] = set()
    while len(chosen_lcd) < lcds:
        u = rng.integers(0, nodes)
        v = max(u - rng.integers(0, lcd_span + 1), 0)
        chosen_lcd.add((u, v))
    for a, b in sorted(chosen_sd):
        g.add_edge(names[a], names[b], distance=0, comm=edge_comm)
    for a, b in sorted(chosen_lcd):
        g.add_edge(names[a], names[b], distance=1, comm=edge_comm)
    g.validate()
    return g


def table1_machine(
    seed: int,
    *,
    k: int = 3,
    mm: int = 1,
    mode: str = "worst",
    processors: int = 8,
) -> Machine:
    """The machine of one Table 1 cell: estimate ``k``, fluctuation ``mm``."""
    return Machine(
        processors=processors,
        comm=FluctuatingComm(k=k, mm=mm, mode=mode, seed=seed),
    )


def random_cyclic_loop(
    seed: int,
    *,
    k: int = 3,
    mm: int = 1,
    mode: str = "worst",
    processors: int = 8,
    **kwargs,
) -> Workload:
    """One Table 1 subject: the Cyclic subgraph of a random loop.

    The machine carries the paper's Table 1 parameters: estimated
    communication cost ``k = 3`` and run-time fluctuation ``mm``
    (worst-case by default, matching the paper's protocol).
    """
    g = random_loop(seed, **kwargs)
    rng = PCG64([seed, 0xC4C11C])
    names = g.node_names()
    guard = 0
    while True:
        cyclic = classify(g).cyclic
        if cyclic:
            break
        guard += 1
        if guard > 200:  # pragma: no cover - defensive
            raise ReproError(f"seed {seed}: could not create a recurrence")
        u = rng.integers(0, len(names))
        v = max(u - rng.integers(0, _LCD_SPAN + 1), 0)
        try:
            g.add_edge(names[u], names[v], distance=1)
        except Exception:
            continue
    sub = g.subgraph(cyclic)
    sub.name = f"random{seed}.cyclic"
    return Workload(
        name=sub.name,
        graph=sub,
        machine=table1_machine(
            seed, k=k, mm=mm, mode=mode, processors=processors
        ),
        notes=f"Table 1 subject, seed {seed}: Cyclic subgraph "
        f"({len(cyclic)}/{len(names)} nodes).",
    )
