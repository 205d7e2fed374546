"""Algorithm *Cyclic-sched* (paper Fig. 4) with pattern detection.

The Cyclic subgraph is unrolled without bound, lazily: each operation
instance ``(node, iteration)`` enters a ready queue once all its
predecessor instances are scheduled, and is then assigned to the
processor on which it can start earliest — ``T(v, Pj) =
max(processor-free time, data-ready time including communication
cost)`` — choosing the *first minimum* over processors, exactly as the
paper specifies.  The ready queue is a priority queue under a
*consistent* ordering (the paper requires any fixed tie-break); the
default orders by zero-communication ASAP level, i.e. the idealized
Perfect Pipelining order the paper starts from.

Termination: after each placement the stable prefix of the schedule is
scanned for two identical *configurations* (windows ``p`` wide and
``k+1`` high, see :mod:`repro.core.patterns`).  A hash collision
proposes a candidate period; the candidate is accepted only after the
entire segment between the two windows is verified to repeat, shifted
by the candidate iteration distance, over one full extra period — a
constructive check that does not rely on Lemma 6.  The accepted
segment becomes the :class:`~repro.core.patterns.Pattern`.

Placement is append-only per processor (a new op never starts before
previously placed ops on the same processor finish), which makes the
"stable prefix" sound: a cycle is final once every processor's next
possible placement lies beyond it.

This module is the *optimized* implementation (DESIGN.md §13).  It
produces **bit-identical** :class:`CyclicResult` patterns to the
straightforward transcription preserved in
:mod:`repro.core.cyclic_reference`.  How much faster it is depends on
what is counted (``benchmarks/bench_scheduler_fastpath.py``, checked
in as ``BENCH_scheduler.json``):

* the scheduler alone, memo off, each unique request once
  (``algorithmic_speedup``): 1.5x to 2.9x (1.51 fuzz_replay, 2.13
  paper_examples, 2.93 random_sweep);
* whole request streams, memo on (``speedup``): 29x to 41x, because
  the cross-sweep memo below answers most requests of those repeated
  streams (329 of 336 on fuzz_replay, 105 of 112 on random_sweep).

Three structural changes make up the memo-off gain:

1. **Incremental configuration detection.**  Instead of rebuilding a
   ``p x (k+1)`` window key from the grid for every stable cycle
   (O(p*k) per cycle, ~25% of reference wall time), each schedule
   *row* (one cycle across all processors) is digested exactly once
   when the frontier passes it.  Rows are canonicalized relative to
   their own minimum iteration and interned to small integers; a
   window key is then ``height`` ``(row-id, row-base-offset)`` pairs.
   Interning makes key equality *structural* — two windows have equal
   rolled keys iff :func:`~repro.core.patterns.configuration_key`
   would return equal keys — so detection order is provably unchanged.
   The same row digests make segment verification O(period) row
   comparisons instead of O(p * period) grid probes.
2. **Fused processor selection.**  The reference recomputes every
   predecessor's availability *per candidate processor* (O(procs *
   preds) graph traversals per instance, ~24% of wall time).  Here a
   single pass at ready time computes per-processor same-processor
   ready times plus the top-two cross-processor availabilities; the
   per-processor probe is then O(1), with the paper's first-minimum
   and ``'idle'`` tie-break semantics reproduced exactly.
3. **Bounded detection state.**  ``occurrences``/``rejected`` entries
   that can no longer pair are evicted once the retained span exceeds
   ``_RETAIN_MIN`` scanned windows, with a starvation valve that grows
   the span instead of evicting while no candidate period has been
   proposed — so memory stays O(window) on long multi-SCC phase-lock
   runs without changing any observed detection.

Cross-sweep memoization (``memo=True``) additionally keys whole
results by a canonical graph hash — node latencies and edges by
*insertion index*, names folded out — plus the machine's compile view
and the scheduler configuration, in the process-wide
:class:`~repro.pipeline.cache.ArtifactCache` chain.  Sweeps that
schedule the same canonical Cyclic subgraph under many names, seeds or
fluctuation levels run the scheduler once; hits are remapped back to
the caller's node names via :meth:`~repro.core.patterns.Pattern.
with_nodes` and are bit-identical to a fresh run.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, fields
from time import perf_counter
from typing import Callable

from repro._types import Op
from repro.core.patterns import Pattern
from repro.core.schedule import Placement
from repro.errors import PatternNotFoundError, SchedulingError
from repro.graph.ddg import DependenceGraph
from repro.machine.model import Machine

__all__ = ["CyclicStats", "CyclicResult", "schedule_cyclic", "ORDERINGS"]

#: Available ready-queue orderings (the paper's "consistent order").
ORDERINGS = ("asap", "iteration", "index")

#: Detection-state retention floor, in scanned windows.  Far beyond any
#: observed detection distance (hundreds of cycles); the starvation
#: valve in :class:`_Detector` doubles it rather than evict while no
#: candidate period has been proposed.
_RETAIN_MIN = 4096

#: Finalized digest of an all-idle row.
_EMPTY_ROW = (-1, None)


@dataclass
class CyclicStats:
    """Diagnostics from one Cyclic-sched run.

    ``windows_hashed`` counts *from-scratch* full-window key builds —
    the reference scheduler performs one per stable cycle; the
    optimized scheduler performs none (it rolls per-row digests,
    counted by ``rows_rolled``).  ``memo_hits`` is 1 when this result
    was served from the cross-sweep memo (its other counters then
    replay the original computing run, mirroring the pipeline cache's
    replay semantics).  ``detect_seconds``/``total_seconds`` give the
    detection share of wall time.
    """

    instances_scheduled: int = 0
    windows_hashed: int = 0
    candidates_tried: int = 0
    detection_cycle: int = 0
    unrollings: int = 0  # paper's M: iterations unrolled before detection
    rows_rolled: int = 0
    occ_evicted: int = 0
    memo_hits: int = 0
    detect_seconds: float = 0.0
    total_seconds: float = 0.0


@dataclass(frozen=True)
class CyclicResult:
    """A detected pattern plus run diagnostics."""

    pattern: Pattern
    stats: CyclicStats


_STATS_FIELDS = tuple(f.name for f in fields(CyclicStats))

#: (memo key, caller's node names) -> remapped Pattern.  The memo key
#: is content-addressed and Patterns are frozen, so reuse is always
#: sound — this only skips re-running ``Pattern.with_nodes`` when the
#: same graph shape is re-requested under the same names (the common
#: sweep/replay shape).  Bounded; cleared wholesale when full.
_REMAP_CACHE: dict[tuple, Pattern] = {}
_REMAP_CACHE_MAX = 1024

#: Machine -> compile fingerprint.  Machines are frozen dataclasses; a
#: process uses a handful of them across thousands of memo lookups.
_MACHINE_FP_CACHE: dict = {}
_MACHINE_FP_CACHE_MAX = 256


def _make_key(
    ordering: str, graph: DependenceGraph
) -> Callable[[Op, int], tuple]:
    index = graph.node_index
    if ordering == "asap":
        return lambda op, asap: (asap, op.iteration, index(op.node))
    if ordering == "iteration":
        return lambda op, asap: (op.iteration, index(op.node))
    if ordering == "index":
        return lambda op, asap: (index(op.node), op.iteration)
    raise SchedulingError(
        f"unknown ordering {ordering!r}; choose from {ORDERINGS}"
    )


class _RollingWindows:
    """Per-row schedule digests, rolled forward as the frontier moves.

    A *row* is one cycle across all processors.  When the frontier
    passes cycle ``c`` the row is final: its cells are sorted by
    processor, normalized by the row's own minimum iteration, and
    interned to a small integer id.  A configuration window is then
    just ``height`` consecutive ``(row_id, row_min)`` pairs, and its
    key normalizes the per-row minima against the first non-idle row's
    minimum (the *anchor*; see :meth:`key_at`).

    Invariant (proved in DESIGN.md §13, enforced by the property
    tests): for any two finalized tops ``t1, t2``, ``key_at(t1) ==
    key_at(t2)`` iff ``configuration_key(grid, procs, t1, height) ==
    configuration_key(grid, procs, t2, height)`` over the grid the
    reference scheduler would have built — so the optimized detector
    visits candidates in exactly the reference order.
    """

    __slots__ = ("height", "pending", "final", "intern", "rows",
                 "next_final", "evicted")

    def __init__(self, height: int) -> None:
        self.height = height
        #: cycle -> [(proc, node, iteration, phase), ...] not yet final
        self.pending: dict[int, list[tuple[int, str, int, int]]] = {}
        #: cycle -> (row_id, row_min_iteration) | _EMPTY_ROW
        self.final: dict[int, tuple[int, int | None]] = {}
        #: relative row tuple -> row id (exact, collision-free)
        self.intern: dict[tuple, int] = {}
        #: row id -> relative row tuple (for materialize())
        self.rows: list[tuple] = []
        self.next_final = 0
        self.evicted = 0

    def roll_to(self, frontier: int, stats: CyclicStats) -> None:
        """Finalize and digest every row below ``frontier``."""
        c = self.next_final
        if c >= frontier:
            return
        pending = self.pending
        final = self.final
        intern = self.intern
        rows = self.rows
        while c < frontier:
            cells = pending.pop(c, None)
            if cells is None:
                final[c] = _EMPTY_ROW
            else:
                if len(cells) == 1:
                    j, node, row_min, phase = cells[0]
                    rel = ((j, node, 0, phase),)
                else:
                    cells.sort()
                    row_min = min(cell[2] for cell in cells)
                    rel = tuple(
                        (j, node, it - row_min, phase)
                        for j, node, it, phase in cells
                    )
                rid = intern.get(rel)
                if rid is None:
                    rid = len(rows)
                    intern[rel] = rid
                    rows.append(rel)
                final[c] = (rid, row_min)
            c += 1
        stats.rows_rolled += c - self.next_final
        self.next_final = c

    def key_at(self, top: int) -> tuple[int, tuple] | None:
        """``(anchor, key)`` of the finalized window at ``top``.

        ``None`` for an all-idle window, mirroring
        :func:`~repro.core.patterns.configuration_key`.  Row bases are
        normalized against the *first* non-idle row's minimum iteration
        (the anchor) rather than the window-wide minimum: both are
        canonical under iteration shift, so two windows have equal keys
        iff their ``configuration_key``s are equal, and the difference
        of their anchors equals the difference of their window minima —
        which is all detection uses the base for (the shift ``d``).
        The anchor needs one pass instead of a min sweep plus a second
        pass.  ``scan`` inlines this exact loop.
        """
        final = self.final
        anchor: int | None = None
        parts = []
        for c in range(top, top + self.height):
            row = final[c]
            rm = row[1]
            if rm is None:
                parts.append(_KEY_IDLE)
            elif anchor is None:
                anchor = rm
                parts.append((row[0], 0))
            else:
                parts.append((row[0], rm - anchor))
        if anchor is None:
            return None
        return anchor, tuple(parts)

    def segment_repeats(self, t0: int, period: int, shift: int) -> bool:
        """Does [t0, t0+period) equal [t0+period, t0+2*period) shifted?

        Row-digest form of the reference's cell-by-cell check: rows
        match iff they intern to the same id and their bases differ by
        exactly ``shift``.  All rows involved are finalized — the
        caller guarantees ``t0 + 2*period <= frontier``.
        """
        final = self.final
        for c in range(t0, t0 + period):
            a = final[c]
            b = final[c + period]
            if a[0] != b[0]:
                return False
            if a[1] is not None and b[1] - a[1] != shift:
                return False
        return True

    def materialize(self, top: int) -> tuple[int, tuple] | None:
        """Rebuild the window in ``configuration_key``'s exact format.

        Test-only: lets the property suite assert the rolled digests
        describe the same window a from-scratch
        :func:`~repro.core.patterns.configuration_key` would.
        """
        final = self.final
        rows = self.rows
        stop = top + self.height
        base: int | None = None
        for c in range(top, stop):
            rm = final[c][1]
            if rm is not None and (base is None or rm < base):
                base = rm
        if base is None:
            return None
        cells = []
        for c in range(top, stop):
            rid, rm = final[c]
            if rm is None:
                continue
            for j, node, drel, phase in rows[rid]:
                cells.append((j, c - top, node, drel + rm - base, phase))
        cells.sort()
        return base, tuple(cells)

    def evict_below(self, low: int) -> None:
        """Drop finalized rows no scan or verification can revisit."""
        stop = min(low, self.next_final)
        final = self.final
        for c in range(self.evicted, stop):
            final.pop(c, None)
        if stop > self.evicted:
            self.evicted = stop


_KEY_IDLE = (-1, 0)


class _Detector:
    """Incremental configuration-match detection with bounded state.

    Replicates the reference ``_detect`` flow exactly — scan order,
    occurrence bookkeeping (8 entries per key, oldest first), rejected
    triples, the cannot-verify-yet early return — over rolled window
    keys, then prunes state the scan has provably moved past:

    * occurrences older than ``retain`` scanned windows are evicted
      (oldest first), each taking its ``rejected`` triples with it;
    * eviction is vetoed (and ``retain`` doubled) while no candidate
      period has been proposed since the oldest entry was recorded —
      evicting then could discard half of the eventual first matching
      pair, which is the only way pruning could change a result;
    * finalized rows below both the scan point and the oldest retained
      occurrence are released from the rolling structure.

    Identity with the reference is therefore guaranteed whenever
    detection needs fewer than ``retain`` live windows — >10x beyond
    anything observed — and on runs that do trip eviction the detector
    still finds a later, equally valid pairing of the same stream.
    """

    __slots__ = ("rolling", "placed", "procs", "height", "stats",
                 "occurrences", "occ_order", "rejected", "rej_by_t0",
                 "next_top", "retain", "last_candidate_t")

    def __init__(
        self,
        rolling: _RollingWindows,
        placed: dict[Op, Placement],
        procs: int,
        height: int,
        stats: CyclicStats,
    ) -> None:
        self.rolling = rolling
        self.placed = placed
        self.procs = procs
        self.height = height
        self.stats = stats
        self.occurrences: dict[tuple, list[tuple[int, int]]] = {}
        self.occ_order: deque[tuple[int, tuple]] = deque()
        self.rejected: set[tuple[int, int, int]] = set()
        self.rej_by_t0: dict[int, list[tuple[int, int, int]]] = {}
        self.next_top = 0
        self.retain = _RETAIN_MIN
        self.last_candidate_t = -1

    def scan(self, frontier: int) -> Pattern | None:
        """Scan newly stable windows; a Pattern, or None (state advanced)."""
        rolling = self.rolling
        final = rolling.final
        occ = self.occurrences
        occ_order = self.occ_order
        rejected = self.rejected
        height = self.height
        stats = self.stats
        t = self.next_top
        while t + height <= frontier:
            # inlined _RollingWindows.key_at (the hottest loop in
            # detection): anchor-normalized window key, one pass.
            anchor = None
            parts = []
            for c in range(t, t + height):
                row = final[c]
                rm = row[1]
                if rm is None:
                    parts.append(_KEY_IDLE)
                elif anchor is None:
                    anchor = rm
                    parts.append((row[0], 0))
                else:
                    parts.append((row[0], rm - anchor))
            if anchor is None:
                t += 1
                continue
            base = anchor
            key = tuple(parts)
            prior = occ.get(key)
            if prior:
                for t0, base0 in prior:
                    period = t - t0
                    shift = base - base0
                    if shift < 1 or period < 1:
                        continue
                    if (t0, period, shift) in rejected:
                        continue
                    if t0 + 2 * period > frontier:
                        # cannot verify a full extra period yet; retry
                        # when the frontier has advanced (do not index
                        # t yet).
                        self.next_top = t
                        return None
                    stats.candidates_tried += 1
                    self.last_candidate_t = t
                    if rolling.segment_repeats(t0, period, shift):
                        stats.detection_cycle = t0
                        return _build_pattern(
                            self.placed, self.procs, t0, period, shift
                        )
            lst = occ.setdefault(key, [])
            if (t, base) not in lst:  # re-scans after a rejected candidate
                lst.append((t, base))
                occ_order.append((t, key))
                if len(lst) > 8:
                    old_t, _old_base = lst.pop(0)
                    self._purge_rejected(old_t)
            t += 1
        self.next_top = t
        return None

    def reject(self, pattern: Pattern) -> None:
        trip = (pattern.start, pattern.period, pattern.iter_shift)
        self.rejected.add(trip)
        self.rej_by_t0.setdefault(pattern.start, []).append(trip)

    def prune(self) -> None:
        """Evict detection state the scan has provably moved past."""
        occ_order = self.occ_order
        occ = self.occurrences
        stats = self.stats
        while len(occ_order) > self.retain:
            t_old, key_old = occ_order[0]
            if self.last_candidate_t <= t_old:
                # starvation valve: no candidate period has been
                # proposed since the oldest entry was recorded, so it
                # may be half of the eventual first matching pair —
                # grow the retained span instead of evicting it.
                self.retain *= 2
                break
            occ_order.popleft()
            lst = occ.get(key_old)
            if lst:
                for i, (tt, _b) in enumerate(lst):
                    if tt == t_old:
                        del lst[i]
                        stats.occ_evicted += 1
                        break
                if not lst:
                    del occ[key_old]
            self._purge_rejected(t_old)
        low = self.next_top
        if occ_order and occ_order[0][0] < low:
            low = occ_order[0][0]
        # batched: eviction only frees memory, so its cadence cannot
        # affect detection — sweep once per 256 newly passed rows.
        if low - self.rolling.evicted >= 256:
            self.rolling.evict_below(low)

    def _purge_rejected(self, t0: int) -> None:
        for trip in self.rej_by_t0.pop(t0, ()):
            self.rejected.discard(trip)


def schedule_cyclic(
    graph: DependenceGraph,
    machine: Machine,
    *,
    ordering: str = "asap",
    tie_break: str = "idle",
    max_instances: int | None = None,
    max_iteration_lead: int = 8,
    memo: bool = True,
) -> CyclicResult:
    """Schedule a Cyclic subgraph; return its repeating pattern.

    ``graph`` must contain only Cyclic nodes (every node has at least
    one predecessor and one successor within the graph) with all
    dependence distances <= 1.  Raises
    :class:`~repro.errors.PatternNotFoundError` if no pattern is
    detected within ``max_instances`` scheduled instances.

    ``tie_break`` resolves equal earliest-start times ``T(v, Pj)``:

    * ``'idle'`` (default) — among minimal-T processors prefer the one
      with the earliest free time, i.e. keep busy processors free for
      work that genuinely needs them.  Under our explicit timing model
      (result visible remotely at ``finish + comm``) the paper's plain
      "first minimum" makes fully serial execution a self-reinforcing
      fixed point on chain-shaped recurrences — each op ties with the
      processor that just produced its operand and never spreads; the
      paper's own coarser accounting charges roughly one cycle less for
      communication, which breaks exactly those ties in favour of
      spreading.  ``'idle'`` restores that behaviour without touching
      the timing model (see the ablation benchmark).
    * ``'first'`` — the paper's literal rule: lowest processor index.

    ``max_iteration_lead`` bounds how many iterations ahead of the
    slowest unfinished iteration an instance may be scheduled.  The
    bound is required for termination when the Cyclic subset contains
    *several* strongly connected components with different recurrence
    rates: a fast source SCC would otherwise race unboundedly ahead of
    its slower consumers and the iteration distance inside any window
    would grow forever, so no two configurations could ever be
    identical.  (The paper's Lemma 3 implicitly assumes the
    single-rate case — its proof appeals to a long path between any
    two iterations, which only exists inside one SCC.)  Throttling the
    fast SCC costs nothing: its earliness was pure slack.  Instances
    beyond the lead are parked and released when the window advances.

    ``memo`` (default on) serves repeat requests for the same
    *canonical* graph — same latencies and edges by node insertion
    index, names ignored — same machine compile view and same
    scheduler configuration from the process-wide artifact cache
    (including the campaign runner's disk tier), remapped to this
    graph's node names.  A memoized result is bit-identical to a fresh
    run; its stats replay the computing run with ``memo_hits=1``.
    """
    if not memo:
        return _schedule_cyclic_uncached(
            graph,
            machine,
            ordering=ordering,
            tie_break=tie_break,
            max_instances=max_instances,
            max_iteration_lead=max_iteration_lead,
        )
    # Late import: repro.pipeline.cache does not import repro.core, so
    # this cannot cycle; schedule_cyclic stays usable without the
    # pipeline machinery being set up first.
    from repro.pipeline.cache import (
        CacheEntry,
        default_cache,
        machine_compile_fingerprint,
        stable_hash,
    )

    names = graph.node_names()
    index = {n: i for i, n in enumerate(names)}
    lat_part = ",".join([str(graph.latency(n)) for n in names])
    canon_edges = sorted(
        (
            index[e.src],
            index[e.dst],
            e.distance,
            -1 if e.comm is None else e.comm,
        )
        for e in graph.edges
    )
    # `kind` is provenance only and node names are folded to indices:
    # two graphs with this key schedule identically modulo renaming.
    edge_part = ";".join(
        [f"{s}>{d}:{dist}:{c}" for s, d, dist, c in canon_edges]
    )
    try:
        machine_fp = _MACHINE_FP_CACHE[machine]
    except KeyError:
        machine_fp = machine_compile_fingerprint(machine)
        if len(_MACHINE_FP_CACHE) >= _MACHINE_FP_CACHE_MAX:
            _MACHINE_FP_CACHE.clear()
        _MACHINE_FP_CACHE[machine] = machine_fp
    except TypeError:  # exotic unhashable comm model
        machine_fp = machine_compile_fingerprint(machine)
    key = stable_hash(
        "cyclic-memo",
        lat_part,
        edge_part,
        machine_fp,
        ordering,
        tie_break,
        str(max_instances),
        str(max_iteration_lead),
    )

    live: list[CyclicResult] = []
    names_t = tuple(names)

    def compute() -> CacheEntry:
        result = _schedule_cyclic_uncached(
            graph,
            machine,
            ordering=ordering,
            tie_break=tie_break,
            max_instances=max_instances,
            max_iteration_lead=max_iteration_lead,
        )
        live.append(result)
        to_canon = {n: str(i) for n, i in index.items()}
        stats = result.stats
        if len(_REMAP_CACHE) >= _REMAP_CACHE_MAX:
            _REMAP_CACHE.clear()
        # the live pattern *is* the canonical pattern remapped to this
        # graph's names: seed the remap cache so same-name hits skip
        # with_nodes entirely.
        _REMAP_CACHE[(key, names_t)] = result.pattern
        return CacheEntry(
            artifacts={"pattern": result.pattern.with_nodes(to_canon)},
            counters={f: getattr(stats, f) for f in _STATS_FIELDS},
            diagnostics=(),
        )

    entry, _fresh = default_cache().get_or_compute(key, compute)
    if live:
        # our compute() ran: hand back the exact live result.
        return live[0]
    counters = {
        k: v for k, v in entry.counters.items() if k in _STATS_FIELDS
    }
    counters["memo_hits"] = 1
    pattern = _REMAP_CACHE.get((key, names_t))
    if pattern is None:
        from_canon = {str(i): n for n, i in index.items()}
        pattern = entry.artifacts["pattern"].with_nodes(from_canon)
        if len(_REMAP_CACHE) >= _REMAP_CACHE_MAX:
            _REMAP_CACHE.clear()
        _REMAP_CACHE[(key, names_t)] = pattern
    return CyclicResult(pattern, CyclicStats(**counters))


def _schedule_cyclic_uncached(
    graph: DependenceGraph,
    machine: Machine,
    *,
    ordering: str,
    tie_break: str,
    max_instances: int | None,
    max_iteration_lead: int,
) -> CyclicResult:
    t_run = perf_counter()
    _check_input(graph)
    if tie_break not in ("idle", "first"):
        raise SchedulingError(
            f"unknown tie_break {tie_break!r}; choose 'idle' or 'first'"
        )
    prefer_idle = tie_break == "idle"
    comm = machine.comm
    procs = machine.processors
    node_names = graph.node_names()
    latency = {n: graph.latency(n) for n in node_names}
    if max_instances is None:
        # generous default: multi-SCC subsets can take hundreds of
        # iterations to phase-lock before the pattern stabilizes.
        max_instances = 4000 * len(graph) + 20_000

    # configuration window height = k + 1, with k the largest
    # compile-time communication cost actually reachable on this graph.
    k = max((comm.compile_cost(e) for e in graph.edges), default=0)
    height = k + 1

    key_of = _make_key(ordering, graph)

    # Static dependence tables: the hot loops below never traverse the
    # graph — predecessor/successor structure and per-edge compile-time
    # communication costs are fixed for the whole run.
    static_preds: dict[str, tuple[tuple[str, int, int], ...]] = {}
    static_succs: dict[str, tuple[tuple[str, int], ...]] = {}
    for n in node_names:
        static_preds[n] = tuple(
            (e.src, e.distance, comm.compile_cost(e))
            for e in graph.predecessors(n)
        )
        static_succs[n] = tuple(
            (e.dst, e.distance) for e in graph.successors(n)
        )

    placed: dict[Op, Placement] = {}
    asap: dict[Op, int] = {}
    data_ready: dict[Op, int] = {}
    #: op -> (own, cross1, cross1_proc, cross2): fused selection inputs,
    #: computed once at ready time (all predecessors are placed then).
    sel: dict[Op, tuple[dict[int, int], int, int, int]] = {}
    pred_count: dict[Op, int] = {}
    proc_end = [0] * procs
    ready: list[tuple[tuple, Op]] = []
    #: lazy min-heap over data_ready — entries are (dr, seq, op), valid
    #: iff data_ready[op] still equals dr (updates push fresh entries).
    dr_heap: list[tuple[int, int, Op]] = []
    dr_seq = 0
    stats = CyclicStats()
    rolling = _RollingWindows(height)
    pending_rows = rolling.pending
    detector = _Detector(rolling, placed, procs, height, stats)
    heappush = heapq.heappush
    heappop = heapq.heappop

    # Bounded iteration lead with pacing (see docstring).  Two rules
    # work together so that configurations can repeat at all:
    #   1. *parking* — an instance more than `max_iteration_lead`
    #      iterations ahead of the slowest unfinished iteration waits
    #      until that iteration completes (bounds iteration skew);
    #   2. *pacing* — every instance of iteration i starts no earlier
    #      than the completion time of iteration i - lead (bounds TIME
    #      skew: without it a fast SCC packs its ops on its own faster
    #      clock — even at the same iteration as its slow consumers —
    #      and the time gap inside any window grows forever).
    # The parking gate guarantees iteration i - lead is complete when
    # an instance of iteration i is scheduled, so the pacing floor is
    # always a finalized number.  Both only delay ops whose earliness
    # was pure slack.
    n_nodes = len(graph)
    iter_remaining: dict[int, int] = {}
    iter_end: dict[int, int] = {}
    parked: dict[int, list[Op]] = {}
    min_unfinished = 0

    def push(op: Op) -> None:
        nonlocal dr_seq
        node, it = op
        a = 0
        dr = 0
        own: dict[int, int] = {}
        cmax: dict[int, int] = {}
        for pn, dist, cc in static_preds[node]:
            pit = it - dist
            if pit < 0:
                continue
            pred = (pn, pit)
            pa = asap[pred] + latency[pn]
            if pa > a:
                a = pa
            pp = placed[pred]
            pe = pp.start + pp.latency
            if pe > dr:
                dr = pe
            pq = pp.proc
            o = own.get(pq)
            if o is None or pe > o:
                own[pq] = pe
            av = pe + cc
            o = cmax.get(pq)
            if o is None or av > o:
                cmax[pq] = av
        asap[op] = a
        data_ready[op] = dr
        # Top-two cross-processor availabilities: for processor j the
        # tightest remote constraint is cross1 unless j itself hosts
        # it, in which case cross2 (per-processor maxima make the
        # argmax processor unique, so ties fall out naturally).
        v1 = 0
        q1 = -1
        v2 = 0
        for q, v in cmax.items():
            if v > v1:
                v2 = v1
                v1 = v
                q1 = q
            elif v > v2:
                v2 = v
        sel[op] = (own, v1, q1, v2)
        dr_seq += 1
        heappush(dr_heap, (dr, dr_seq, op))
        if it < min_unfinished + max_iteration_lead:
            heappush(ready, (key_of(op, a), op))
        else:
            parked.setdefault(it, []).append(op)

    for name in node_names:
        if all(e.distance >= 1 for e in graph.predecessors(name)):
            push(Op(name, 0))
    if not ready:
        raise SchedulingError(
            f"graph {graph.name!r}: no initially ready instance — the "
            "distance-0 subgraph has no root (is it really a loop body?)"
        )

    while True:
        if not ready:  # pragma: no cover - unreachable for Cyclic graphs
            raise SchedulingError("ready queue drained before a pattern")
        _, op = heappop(ready)
        del data_ready[op]
        node, it = op

        # --- processor selection: first minimum of T(v, Pj) ----------
        # One O(1) probe per processor from the fused inputs; same
        # first-minimum + tie-break semantics as the reference's
        # O(preds) inner loop (bench_scheduler_fastpath asserts
        # bit-identical patterns).
        own, v1, q1, v2 = sel.pop(op)
        floor = iter_end.get(it - max_iteration_lead, 0)
        best_j = 0
        best_t = None
        best_pe = 0
        for j in range(procs):
            pe_j = proc_end[j]
            t = pe_j if pe_j > floor else floor
            o = own.get(j)
            if o is not None and o > t:
                t = o
            c = v2 if j == q1 else v1
            if c > t:
                t = c
            if (
                best_t is None
                or t < best_t
                or (prefer_idle and t == best_t and pe_j < best_pe)
            ):
                best_t, best_j, best_pe = t, j, pe_j
        lat = latency[node]
        placed[op] = Placement(best_t, best_j, op, lat)
        end = best_t + lat
        proc_end[best_j] = end
        for q in range(lat):
            row = pending_rows.get(best_t + q)
            if row is None:
                pending_rows[best_t + q] = [(best_j, node, it, q)]
            else:
                row.append((best_j, node, it, q))
        stats.instances_scheduled += 1
        if it >= stats.unrollings:
            stats.unrollings = it + 1

        # --- advance the iteration-lead window ------------------------
        left = iter_remaining.get(it, n_nodes) - 1
        iter_remaining[it] = left
        if end > iter_end.get(it, 0):
            iter_end[it] = end
        if left == 0 and it == min_unfinished:
            while iter_remaining.get(min_unfinished) == 0:
                iter_remaining.pop(min_unfinished)
                floor_time = iter_end.get(min_unfinished, 0)
                iter_end.pop(min_unfinished - max_iteration_lead - 1, None)
                min_unfinished += 1
                release = min_unfinished + max_iteration_lead - 1
                for parked_op in parked.pop(release, ()):
                    if data_ready[parked_op] < floor_time:
                        data_ready[parked_op] = floor_time
                        dr_seq += 1
                        heappush(dr_heap, (floor_time, dr_seq, parked_op))
                    heappush(
                        ready, (key_of(parked_op, asap[parked_op]), parked_op)
                    )

        # --- release successors --------------------------------------
        for sn, dist in static_succs[node]:
            succ = Op(sn, it + dist)
            if succ in placed:
                continue
            cnt = pred_count.get(succ)
            if cnt is not None:
                if cnt == 1:
                    del pred_count[succ]
                    push(succ)
                else:
                    pred_count[succ] = cnt - 1
            else:
                cnt = 0
                for pn, pdist, _cc in static_preds[sn]:
                    pit = it + dist - pdist
                    if pit >= 0 and (pn, pit) not in placed:
                        cnt += 1
                if cnt == 0:
                    push(succ)
                else:
                    pred_count[succ] = cnt

        # --- pattern detection over the stable prefix ----------------
        t_detect = perf_counter()
        # frontier = min over j of max(proc_end[j], dr_min)
        #          = max(min(proc_end), dr_min): on processor j nothing
        # can start before proc_end[j] (append-only), and nothing
        # anywhere before the minimum data-ready time over the ready
        # queue (every unreleased instance transitively waits on some
        # ready instance).  dr_min comes from the lazy heap: stale
        # tops (scheduled or since-bumped ops) are discarded on sight.
        while dr_heap:
            top = dr_heap[0]
            if data_ready.get(top[2]) == top[0]:
                break
            heappop(dr_heap)
        dr_min = dr_heap[0][0] if dr_heap else 0
        frontier = min(proc_end)
        if dr_min > frontier:
            frontier = dr_min
        if rolling.next_final < frontier:
            rolling.roll_to(frontier, stats)
        # nothing to scan (and so no new detector state to prune) until
        # the frontier clears at least one window past next_top.
        if detector.next_top + height <= frontier:
            pattern = None
            while True:
                found = detector.scan(frontier)
                if found is None:
                    break
                try:
                    # a window pair can match spuriously when some op's
                    # starts skip both windows (e.g. a long-latency node
                    # placed out of time order, or a node whose
                    # instances all lag beyond the verified segment);
                    # the tiling check exposes that, and the candidate
                    # is rejected rather than accepted or fatal.
                    found.check_coverage(node_names)
                except SchedulingError:
                    detector.reject(found)
                    continue
                pattern = found
                break
            if pattern is not None:
                now = perf_counter()
                stats.detect_seconds += now - t_detect
                stats.total_seconds = now - t_run
                return CyclicResult(pattern, stats)
            detector.prune()
        stats.detect_seconds += perf_counter() - t_detect

        if stats.instances_scheduled > max_instances:
            raise PatternNotFoundError(
                f"no pattern within {max_instances} instances of "
                f"{graph.name!r} (ordering={ordering!r}, p={procs}, "
                f"k={k}); raise max_instances or check the graph"
            )


def _check_input(graph: DependenceGraph) -> None:
    graph.validate()
    if graph.max_distance() > 1:
        raise SchedulingError(
            f"graph {graph.name!r} has dependence distance "
            f"{graph.max_distance()} > 1; normalize with "
            "repro.graph.unwind.normalize_distances first"
        )
    for n in graph.node_names():
        if not graph.predecessors(n) or not graph.successors(n):
            raise SchedulingError(
                f"node {n!r} has no predecessor or no successor: not a "
                "Cyclic subgraph (classify and extract the Cyclic subset "
                "first)"
            )


def _build_pattern(
    placed: dict[Op, Placement], procs: int, t0: int, period: int, shift: int
) -> Pattern:
    prelude = tuple(
        sorted(p for p in placed.values() if p.start < t0)
    )
    kernel = tuple(
        sorted(p for p in placed.values() if t0 <= p.start < t0 + period)
    )
    return Pattern(
        start=t0,
        period=period,
        iter_shift=shift,
        prelude=prelude,
        kernel=kernel,
        processors=procs,
    )
