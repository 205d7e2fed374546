"""Configurations and patterns (paper Section 2.3).

A **configuration** is the contents of a window over the schedule,
``p`` processors wide and ``k + 1`` cycles high (``k`` = the largest
communication cost).  Two configurations are *identical* when one's
node set is a shifted form of the other's (all iteration indices offset
by the same ``d``) and the placements coincide cell-for-cell
(Definitions 1 and 2).

Theorem 1 proves the greedy schedule of the Cyclic subset must
eventually show two identical configurations, and that the schedule
segment between them — the **pattern** — repeats forever after.  The
scheduler therefore (1) hashes each stable window, (2) on a hash
collision with an earlier window verifies that the whole segment
between the two windows repeats, shifted, as the segment that follows
(our implementation verifies one full extra period instead of leaning
on Lemma 6, which makes termination detection sound independently of
any implementation detail of the greedy loop), and (3) additionally
checks the segment covers each node exactly ``d`` times with contiguous
iteration ranges, so the pattern can be *expanded* into a complete
schedule for any iteration count.

A :class:`Pattern` holds its placements as integer columns, the way
the scheduler's instance tables hold them, and expands into rows of
instance indices ``it * n + v`` (:meth:`Pattern.rows`) that the
simulator lowers without building an ``Op``; its :class:`Placement`
tuples are built only when a report, a Gantt chart or codegen reads
``prelude`` or ``kernel``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, groupby
from typing import Mapping, Sequence

from repro._types import Op, tile
from repro.core.schedule import Placement, Schedule
from repro.errors import SchedulingError

__all__ = ["Cell", "configuration_key", "Pattern"]

# One grid cell: (node, iteration, phase-within-op) or None when idle.
Cell = "tuple[str, int, int] | None"


def configuration_key(
    grid: dict[tuple[int, int], tuple[str, int, int]],
    processors: Sequence[int],
    top: int,
    height: int,
) -> tuple | None:
    """Canonical key of the window at cycles ``[top, top+height)``.

    Iteration numbers are normalized by subtracting the window's
    minimum iteration, so two windows that are shifted forms of each
    other (Definition 1) produce equal keys.  Returns ``(base, key)``'s
    key part with the base folded out; ``None`` for an all-idle window
    (no shift distance can be derived from it).
    """
    cells: list[tuple[int, int, str, int, int]] = []
    base: int | None = None
    for j in processors:
        for c in range(top, top + height):
            cell = grid.get((j, c))
            if cell is not None:
                node, it, phase = cell
                if base is None or it < base:
                    base = it
                cells.append((j, c - top, node, it, phase))
    if base is None:
        return None
    key = tuple(
        (j, rc, node, it - base, phase) for j, rc, node, it, phase in cells
    )
    return (base, key)


@dataclass(frozen=True, init=False)
class Pattern:
    """A detected repeating pattern of the Cyclic schedule.

    The placements are kept as columns, one entry per placement: the
    ``split`` prelude placements first, then the kernel's, each part in
    ``(start, proc)`` order.  Nodes are numbered by first placement, so
    a pattern built from :class:`Placement` tuples (the constructor)
    equals one the scheduler fills from its instance tables
    (:meth:`from_columns`).

    Attributes
    ----------
    start:
        Cycle at which the first repetition begins.
    period:
        Height of the pattern in cycles (paper's ``H``).
    iter_shift:
        Iterations advanced per repetition (paper's shifting ``d``).
    processors:
        Processor count of the underlying schedule.
    names:
        Node names; column ``nodes`` holds indices into them.
    starts, procs, nodes, iters, lats:
        Each placement's start cycle, processor, node, iteration and
        latency.
    prelude, kernel:
        :class:`Placement` tuples, built on first access: placements
        before ``start`` (the transient head), and those with start in
        ``[start, start + period)``.
    """

    start: int
    period: int
    iter_shift: int
    processors: int
    names: tuple[str, ...]
    starts: tuple[int, ...]
    procs: tuple[int, ...]
    nodes: tuple[int, ...]
    iters: tuple[int, ...]
    lats: tuple[int, ...]
    split: int

    def __init__(
        self,
        start: int,
        period: int,
        iter_shift: int,
        prelude: Sequence[Placement],
        kernel: Sequence[Placement],
        processors: int,
    ) -> None:
        placed = sorted(prelude) + sorted(kernel)
        index: dict[str, int] = {}
        nodes = [index.setdefault(p.op.node, len(index)) for p in placed]
        self._fill(
            start, period, iter_shift, processors, list(index),
            [p.start for p in placed], [p.proc for p in placed], nodes,
            [p.op.iteration for p in placed], [p.latency for p in placed],
            len(prelude),
        )

    @classmethod
    def from_columns(cls, *columns) -> "Pattern":
        """A pattern given as its fields, in order, the placements
        already in order; ``nodes`` may index distinct ``names`` in any
        order (sequences, not iterators)."""
        self = cls.__new__(cls)
        self._fill(*columns)
        return self

    def _fill(self, *columns) -> None:
        _, period, iter_shift, _, names, starts, *_, split = columns
        if period < 1:
            raise SchedulingError(f"pattern period must be >= 1: {period}")
        if iter_shift < 1:
            raise SchedulingError(
                f"pattern iteration shift must be >= 1: {iter_shift}"
            )
        if len(starts) <= split:
            raise SchedulingError("pattern kernel is empty")
        # renumber the nodes by first placement
        first = dict.fromkeys(columns[7])
        rank = dict(zip(first, range(len(first))))
        names = tuple(map(names.__getitem__, first))
        nodes = tuple(map(rank.__getitem__, columns[7]))
        starts, procs, _, iters, lats = map(tuple, columns[5:10])
        values = (names, starts, procs, nodes, iters, lats, split)
        vars(self).update(zip(self.__dataclass_fields__, (*columns[:4], *values)))

    @cached_property
    def _placements(self) -> tuple[Placement, ...]:
        ops = map(Op, map(self.names.__getitem__, self.nodes), self.iters)
        return tuple(map(Placement, self.starts, self.procs, ops, self.lats))

    @property
    def prelude(self) -> tuple[Placement, ...]:
        return self._placements[: self.split]

    @property
    def kernel(self) -> tuple[Placement, ...]:
        return self._placements[self.split :]

    @property
    def height(self) -> int:
        """Paper's ``H`` — cycles per repetition."""
        return self.period

    def cycles_per_iteration(self) -> float:
        """Steady-state execution rate of the Cyclic subset."""
        return self.period / self.iter_shift

    def used_processors(self) -> list[int]:
        return sorted(set(self.procs))

    def node_names(self) -> list[str]:
        return [self.names[v] for v in dict.fromkeys(self.nodes[self.split :])]

    def kernel_iteration_range(self, node: str) -> tuple[int, int]:
        """Iterations of ``node`` inside the kernel: [lo, hi)."""
        its = sorted(p.op.iteration for p in self.kernel if p.op.node == node)
        if not its:
            raise SchedulingError(f"node {node!r} missing from pattern kernel")
        return its[0], its[-1] + 1

    def check_coverage(
        self, expected_nodes: Sequence[str] | None = None
    ) -> None:
        """Verify prelude + repeated kernel tile all instances exactly once.

        Repetition ``r`` of the kernel executes iterations
        ``S_v + r * iter_shift`` of node ``v``, where ``S_v`` is the
        kernel's iteration set for ``v``.  The repetitions cover every
        iteration of ``v`` exactly once iff ``S_v`` has exactly
        ``iter_shift`` elements forming a complete residue system
        modulo ``iter_shift``, and the prelude supplies exactly the
        "holes" below each kernel element (iterations congruent to it
        but smaller).  ``S_v`` need not be contiguous: per-processor
        placement is append-only but not globally time-monotone per
        node, so a kernel can legitimately contain, say, iterations
        {9, 11..53, 55}.  Raises :class:`SchedulingError` otherwise.

        ``expected_nodes`` is the full node set the kernel must cover.
        Without it a node can escape every check: when all of a node's
        placements lie *beyond* the verified segment (its instances
        lagged in the ready queue while the rest of the graph raced
        ahead), it appears in neither prelude nor kernel, the two
        windows match vacuously, and expansion would silently drop the
        node from the program.
        """
        d, split = self.iter_shift, self.split
        named = [self.names[v] for v in self.nodes]
        kernel_by_node: dict[str, list[int]] = {}
        for node, it in zip(named[split:], self.iters[split:]):
            kernel_by_node.setdefault(node, []).append(it)
        nodes = list(kernel_by_node)
        if expected_nodes is not None:
            missing = sorted(set(expected_nodes) - set(nodes))
            if missing:
                raise SchedulingError(
                    f"kernel is missing node(s) {missing}: the matched "
                    "windows predate these nodes' first placements"
                )
        prelude_by_node: dict[str, list[int]] = {n: [] for n in nodes}
        for node, it in zip(named[:split], self.iters[:split]):
            if node not in prelude_by_node:
                raise SchedulingError(
                    f"prelude node {node!r} never recurs in the kernel"
                )
            prelude_by_node[node].append(it)
        for n in nodes:
            kernel_its = sorted(kernel_by_node[n])
            if len(kernel_its) != d or len({i % d for i in kernel_its}) != d:
                raise SchedulingError(
                    f"kernel iterations of {n!r} are {kernel_its}: not a "
                    f"complete residue system modulo iter_shift={d}"
                )
            holes = sorted(
                i for s in kernel_its for i in range(s % d, s, d)
            )
            if sorted(prelude_by_node[n]) != holes:
                raise SchedulingError(
                    f"prelude iterations of {n!r} are "
                    f"{sorted(prelude_by_node[n])}, expected {holes}"
                )

    def with_nodes(self, mapping: Mapping[str, str]) -> "Pattern":
        """The same pattern with node names translated via ``mapping``.

        Only ``names`` changes: a placement's ``(start, proc)`` is
        unique, so a rename cannot reorder placements.  The scheduler's
        cross-graph memo uses this to store one canonical pattern per
        structural graph and remap it to each caller's node names.
        """
        renamed = Pattern.__new__(Pattern)
        fields = {name: getattr(self, name) for name in self.__dataclass_fields__}
        fields["names"] = tuple(map(mapping.__getitem__, self.names))
        vars(renamed).update(fields)
        return renamed

    def rows(
        self,
        iterations: int,
        index: Sequence[int] | None = None,
        n: int | None = None,
    ) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
        """The expanded schedule for ``[0, N)``, processor by processor.

        Returns ``(instances, starts, latencies)``: entry ``j`` of each
        lists processor ``j``'s placements in start order.  Instance
        ``(v, it)`` is the integer ``it * n + index[v]`` — by default
        ``v``'s position in ``names`` and ``n = len(names)``; a caller
        passes the numbering of the graph it lowers against.  They are
        computed from the pattern by arithmetic, like a modulo
        reservation table: repetition ``r`` of the kernel is shifted
        ``r * period`` cycles and ``r * iter_shift`` iterations, and
        instances at iterations ``>= iterations`` are dropped.  Start
        order follows because the prelude ends before ``start`` and
        each kernel placement starts in ``[start, start + period)``,
        as the scheduler builds them.
        """
        if iterations < 0:
            raise SchedulingError("iterations must be >= 0")
        if index is None:
            index, n = range(len(self.names)), len(self.names)
        iters, nodes, split = self.iters, self.nodes, self.split
        procs, d, period = self.procs, self.iter_shift, self.period
        p = self.processors
        rows: list[list[int]] = [[] for _ in range(p)]
        starts: list[list[int]] = [[] for _ in range(p)]
        lats: list[list[int]] = [[] for _ in range(p)]
        # prelude placements inside the trip count, then the kernel's,
        # grouped by processor (a stable sort keeps each in start order)
        chosen = compress(range(split), map(iterations.__gt__, iters))
        chosen = sorted([*chosen, *range(split, len(iters))], key=procs.__getitem__)
        for j, group in groupby(chosen, procs.__getitem__):
            ks = list(group)
            cut = bisect_left(ks, split)
            xs = [iters[k] * n + index[nodes[k]] for k in ks]
            ss = list(map(self.starts.__getitem__, ks))
            ls = list(map(self.lats.__getitem__, ks))
            rows[j], starts[j], lats[j] = row, row_starts, row_lats = (
                xs[:cut], ss[:cut], ls[:cut]
            )
            if cut == len(ks):
                continue
            kx, ks_, kl = xs[cut:], ss[cut:], ls[cut:]
            kit = list(map(iters.__getitem__, ks[cut:]))
            # repetitions that fit whole, then the ones the trip count cuts
            full = len(range(0, iterations - max(kit), d))
            row += tile(kx, full, d * n)
            row_starts += tile(ks_, full, period)
            row_lats += kl * full
            for r in range(full, len(range(0, iterations - min(kit), d))):
                for x, it, start, lat in zip(kx, kit, ks_, kl):
                    if it + r * d < iterations:
                        row.append(x + r * d * n)
                        row_starts.append(start + r * period)
                        row_lats.append(lat)
        return rows, starts, lats

    def expand(self, iterations: int) -> Schedule:
        """Unroll the pattern into a complete schedule for ``[0, N)``.

        The schedule is built from :meth:`rows`.
        """
        return Schedule.from_rows(*self.rows(iterations), names=self.names)

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"pattern: {self.period} cycles / {self.iter_shift} iteration(s)"
            f" = {self.cycles_per_iteration():.3g} cycles/iter on "
            f"{len(self.used_processors())} processor(s), "
            f"prelude {len(self.prelude)} ops, kernel {len(self.kernel)} ops"
        )
