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
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping, Sequence

from repro._types import Op
from repro.core.schedule import Placement, Schedule
from repro.errors import SchedulingError

__all__ = ["Cell", "configuration_key", "Pattern"]

#: Placement's dataclass order as a sort key, compared in C rather than
#: through the generated Python-level ``__lt__``.
_PLACEMENT_ORDER = attrgetter("start", "proc", "op", "latency")

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


@dataclass(frozen=True)
class Pattern:
    """A detected repeating pattern of the Cyclic schedule.

    Attributes
    ----------
    start:
        Cycle at which the first repetition begins.
    period:
        Height of the pattern in cycles (paper's ``H``).
    iter_shift:
        Iterations advanced per repetition (paper's shifting ``d``).
    prelude:
        Placements before ``start`` (the transient head).
    kernel:
        Placements with start in ``[start, start + period)``.
    processors:
        Processor count of the underlying schedule.
    """

    start: int
    period: int
    iter_shift: int
    prelude: tuple[Placement, ...]
    kernel: tuple[Placement, ...]
    processors: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise SchedulingError(f"pattern period must be >= 1: {self.period}")
        if self.iter_shift < 1:
            raise SchedulingError(
                f"pattern iteration shift must be >= 1: {self.iter_shift}"
            )
        if not self.kernel:
            raise SchedulingError("pattern kernel is empty")

    @property
    def height(self) -> int:
        """Paper's ``H`` — cycles per repetition."""
        return self.period

    def cycles_per_iteration(self) -> float:
        """Steady-state execution rate of the Cyclic subset."""
        return self.period / self.iter_shift

    def used_processors(self) -> list[int]:
        procs = {p.proc for p in self.kernel} | {p.proc for p in self.prelude}
        return sorted(procs)

    def node_names(self) -> list[str]:
        names: list[str] = []
        for p in self.kernel:
            if p.op.node not in names:
                names.append(p.op.node)
        return names

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
        d = self.iter_shift
        nodes = self.node_names()
        if expected_nodes is not None:
            missing = sorted(set(expected_nodes) - set(nodes))
            if missing:
                raise SchedulingError(
                    f"kernel is missing node(s) {missing}: the matched "
                    "windows predate these nodes' first placements"
                )
        prelude_by_node: dict[str, list[int]] = {n: [] for n in nodes}
        for p in self.prelude:
            if p.op.node not in prelude_by_node:
                raise SchedulingError(
                    f"prelude node {p.op.node!r} never recurs in the kernel"
                )
            prelude_by_node[p.op.node].append(p.op.iteration)
        for n in nodes:
            kernel_its = sorted(
                p.op.iteration for p in self.kernel if p.op.node == n
            )
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

        Placements are re-sorted, so the result is exactly the pattern
        the scheduler would have produced for the renamed graph (tuple
        order participates in ``Pattern`` equality, and a rename can
        reorder name-tied placements).  The scheduler's cross-graph
        memo uses this to store one canonical pattern per structural
        graph and remap it to each caller's node names.
        """

        def rename(ps: tuple[Placement, ...]) -> tuple[Placement, ...]:
            return tuple(
                sorted(
                    [
                        Placement(
                            p.start,
                            p.proc,
                            Op(mapping[p.op.node], p.op.iteration),
                            p.latency,
                        )
                        for p in ps
                    ],
                    key=_PLACEMENT_ORDER,
                )
            )

        return Pattern(
            start=self.start,
            period=self.period,
            iter_shift=self.iter_shift,
            prelude=rename(self.prelude),
            kernel=rename(self.kernel),
            processors=self.processors,
        )

    def rows(
        self, iterations: int
    ) -> tuple[list[list[Op]], list[list[int]], list[list[int]]]:
        """The expanded schedule for ``[0, N)``, processor by processor.

        Returns ``(ops, starts, latencies)``: entry ``j`` of each lists
        processor ``j``'s placements in start order.  They are computed
        from the pattern by arithmetic, like a modulo reservation
        table: repetition ``r`` of the kernel is shifted ``r * period``
        cycles and ``r * iter_shift`` iterations, and instances at
        iterations ``>= iterations`` are dropped.  Start order follows
        because the prelude ends before ``start`` and each kernel
        placement starts in ``[start, start + period)``, as the
        scheduler builds them.
        """
        if iterations < 0:
            raise SchedulingError("iterations must be >= 0")
        ops: list[list[Op]] = [[] for _ in range(self.processors)]
        starts: list[list[int]] = [[] for _ in range(self.processors)]
        lats: list[list[int]] = [[] for _ in range(self.processors)]
        for p in sorted(self.prelude, key=_PLACEMENT_ORDER):
            if p.op.iteration < iterations:
                ops[p.proc].append(p.op)
                starts[p.proc].append(p.start)
                lats[p.proc].append(p.latency)
        kernel: dict[int, list[tuple[str, int, int, int]]] = {}
        for p in sorted(self.kernel, key=_PLACEMENT_ORDER):
            kernel.setdefault(p.proc, []).append(
                (p.op.node, p.op.iteration, p.start, p.latency)
            )
        for j, cells in kernel.items():
            row, row_starts, row_lats = ops[j], starts[j], lats[j]
            first = min(it for _, it, _, _ in cells)
            shifts = range(0, iterations - first, self.iter_shift)
            for r, di in enumerate(shifts):
                dt = r * self.period
                for node, it, start, lat in cells:
                    if it + di < iterations:
                        row.append(Op(node, it + di))
                        row_starts.append(start + dt)
                        row_lats.append(lat)
        return ops, starts, lats

    def expand(self, iterations: int) -> Schedule:
        """Unroll the pattern into a complete schedule for ``[0, N)``.

        The schedule is built from :meth:`rows`.
        """
        return Schedule.from_rows(*self.rows(iterations))

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"pattern: {self.period} cycles / {self.iter_shift} iteration(s)"
            f" = {self.cycles_per_iteration():.3g} cycles/iter on "
            f"{len(self.used_processors())} processor(s), "
            f"prelude {len(self.prelude)} ops, kernel {len(self.kernel)} ops"
        )
