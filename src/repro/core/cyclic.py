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
produces **bit-identical** :class:`CyclicResult` patterns, and the same
counters (timings aside), as the straightforward transcription
preserved in :mod:`repro.core.cyclic_reference`.  How much faster it
is depends on what is counted
(``benchmarks/bench_scheduler_fastpath.py``, checked in as
``BENCH_scheduler.json``):

* the scheduler alone, memo off, each unique request once
  (``algorithmic_speedup``): 2.5x to 5.2x (2.53 fuzz_replay, 3.30
  paper_examples, 5.15 random_sweep);
* whole request streams, memo on (``speedup``): 32x to 52x, because
  the cross-sweep memo below answers most requests of those repeated
  streams (329 of 336 on fuzz_replay, 105 of 112 on random_sweep).

Four structural changes make up the memo-off gain:

1. **Incremental configuration detection.**  Instead of rebuilding a
   ``p x (k+1)`` window key from the grid for every stable cycle
   (O(p*k) per cycle, ~25% of reference wall time), each schedule
   *row* (one cycle across all processors) is digested exactly once,
   when a scan first needs it.  Rows are canonicalized relative to
   their own minimum iteration and interned to small integers kept in
   flat per-cycle lists; a window key is then a slice of them.
   Interning makes key equality *structural* — two windows have equal
   rolled keys iff :func:`~repro.core.patterns.configuration_key`
   would return equal keys — so detection order is provably unchanged.
   The same row digests make segment verification three slice
   comparisons instead of O(p * period) grid probes.
2. **Fused processor selection.**  The reference recomputes every
   predecessor's availability *per candidate processor* (O(procs *
   preds) graph traversals per instance, ~24% of wall time).  Here a
   single pass at ready time folds the predecessors into the top-two
   cross-processor availabilities; every processor but one then
   starts at ``max(free time, floor, v1)``, so the earliest is a
   C-level minimum over the free times, with the paper's first-minimum
   and ``'idle'`` tie-break semantics reproduced exactly.
3. **Bounded detection state.**  ``occurrences``/``rejected`` entries
   that can no longer pair are evicted once the retained span exceeds
   ``_RETAIN_MIN`` scanned windows, with a starvation valve that grows
   the span instead of evicting while no candidate period has been
   proposed — so memory stays O(window) on long multi-SCC phase-lock
   runs without changing any observed detection.
4. **Integer instances and the stall gate.**  The subgraph is lowered
   once: node ``v`` is its insertion index, instance ``(v, it)`` the
   integer ``it*n + v``, a dependence a fixed offset between them, and
   placements, ASAP times and predecessor counts are flat lists grown
   one iteration at a time.  A candidate pattern's integer columns
   are filled straight from those lists; no
   :class:`~repro.core.schedule.Placement` is built unless a caller
   asks the pattern for one.  A scan that stops
   at a candidate it cannot verify before the frontier reaches
   ``t0 + 2*period`` is not repeated until then.
   ``candidates_tried`` counts verification attempts as the reference
   makes them, repeats during a stall included — and a stall repeats
   none: a window's candidates are tried oldest first and an older one
   needs a later frontier, so a scan stalls before it verifies any
   candidate at that window.

Cross-sweep memoization (``memo=True``) additionally keys whole
results by a canonical graph hash — node latencies and edges by
*insertion index*, names folded out — plus the machine's compile view
and the scheduler configuration, in the process-wide
:class:`~repro.pipeline.cache.ArtifactCache` chain.  Sweeps that
schedule the same canonical Cyclic subgraph under many names, seeds or
fluctuation levels run the scheduler once; hits are remapped back to
the caller's node names via :meth:`~repro.core.patterns.Pattern.
with_nodes`, which swaps the pattern's name table and nothing else, and
are bit-identical to a fresh run.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass, fields
from itertools import compress, repeat
from operator import add, mul, sub
from time import perf_counter

from repro.core.patterns import Pattern
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

#: A processor-free time later than any schedule reaches.
_NEVER = 1 << 62


@dataclass
class CyclicStats:
    """Diagnostics from one Cyclic-sched run.

    ``windows_hashed`` counts *from-scratch* full-window key builds —
    the reference scheduler performs one per stable cycle; the
    optimized scheduler performs none (it rolls per-row digests,
    counted by ``rows_rolled``).  ``memo_hits`` is 1 when this result
    was served from the cross-sweep memo (its other counters then
    replay the original computing run, mirroring the pipeline cache's
    replay semantics).  ``candidates_tried`` counts verification
    attempts as the reference makes them, repeats during a stall
    included (there are none, see :class:`_Detector`).
    ``detect_seconds``/
    ``total_seconds`` give the detection share of wall time (rolling,
    scanning and verifying; not the per-placement frontier test).
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


class _RollingWindows:
    """Per-row schedule digests, rolled forward as the frontier moves.

    A *row* is one cycle across all processors.  When the frontier
    passes cycle ``c`` the row is final: its cells are sorted by
    processor, normalized by the row's own minimum iteration, and
    interned to a small integer id.  Finalized rows live in three flat
    lists indexed by ``c - evicted``: the row id (``-1`` when idle),
    the row's minimum iteration, and a *code* packing the id with the
    row minimum's step from the previous non-idle row.  A window key is
    then a slice: the leading idle rows, the first non-idle row's id
    (its minimum is the window's *anchor*) and the codes after it.
    The anchor-relative minima are prefix sums of the steps, so both
    carry exactly the same information (see :meth:`key_at`).

    Invariant (proved in DESIGN.md §13, enforced by the property
    tests): for any two finalized tops ``t1, t2``, ``key_at(t1) ==
    key_at(t2)`` iff ``configuration_key(grid, procs, t1, height) ==
    configuration_key(grid, procs, t2, height)`` over the grid the
    reference scheduler would have built — so the optimized detector
    visits candidates in exactly the reference order.
    """

    __slots__ = ("height", "pending", "intern", "rows", "rids", "mins",
                 "codes", "last_min", "next_final", "evicted")

    def __init__(self, height: int) -> None:
        self.height = height
        #: cycle -> [(proc, node, iteration, phase), ...] not yet final;
        #: ``node`` is whatever identifies it (the scheduler's index)
        self.pending: defaultdict[int, list[tuple]] = defaultdict(list)
        #: relative row tuple -> row id (exact, collision-free)
        self.intern: dict[tuple, int] = {}
        #: row id -> relative row tuple (for materialize())
        self.rows: list[tuple] = []
        #: per finalized cycle, from cycle ``evicted`` on: row id or -1,
        #: minimum iteration (0 when idle), and code (-1 when idle)
        self.rids: list[int] = []
        self.mins: list[int] = []
        self.codes: list[int] = []
        self.last_min = 0  # minimum iteration of the last non-idle row
        self.next_final = 0
        self.evicted = 0

    def roll_to(self, frontier: int, stats: CyclicStats) -> None:
        """Finalize and digest every row below ``frontier``."""
        c = self.next_final
        if c >= frontier:
            return
        pending = self.pending
        intern = self.intern
        rows = self.rows
        rids = self.rids
        mins = self.mins
        codes = self.codes
        last = self.last_min
        while c < frontier:
            cells = pending.pop(c, None)
            if cells is None:
                rids.append(-1)
                mins.append(0)
                codes.append(-1)
            else:
                if len(cells) == 1:
                    j, node, row_min, phase = cells[0]
                    rel = ((j, node, 0, phase),)
                else:
                    cells.sort()
                    row_min = min([cell[2] for cell in cells])
                    rel = tuple([
                        (j, node, it - row_min, phase)
                        for j, node, it, phase in cells
                    ])
                rid = intern.get(rel)
                if rid is None:
                    rid = len(rows)
                    intern[rel] = rid
                    rows.append(rel)
                rids.append(rid)
                mins.append(row_min)
                codes.append(rid + (row_min - last) * _CODE_SPAN)
                last = row_min
            c += 1
        stats.rows_rolled += c - self.next_final
        self.next_final = c
        self.last_min = last

    def key_at(self, top: int) -> tuple[int, tuple] | None:
        """``(anchor, key)`` of the finalized window at ``top``.

        ``None`` for an all-idle window, mirroring
        :func:`~repro.core.patterns.configuration_key`.  The anchor is
        the first non-idle row's minimum iteration rather than the
        window-wide minimum: both are canonical under iteration shift,
        so two windows have equal keys iff their ``configuration_key``s
        are equal, and the difference of their anchors equals the
        difference of their window minima — which is all detection uses
        the base for (the shift ``d``).  ``scan`` inlines this.
        """
        i = top - self.evicted
        stop = i + self.height
        rids = self.rids
        f = i
        while rids[f] < 0:
            f += 1
            if f == stop:
                return None
        return self.mins[f], (f - i, rids[f], *self.codes[f + 1:stop])

    def segment_repeats(self, t0: int, period: int, shift: int) -> bool:
        """Does [t0, t0+period) equal [t0+period, t0+2*period) shifted?

        Row-digest form of the reference's cell-by-cell check: rows
        match iff they intern to the same id and their minima differ by
        exactly ``shift``.  With equal ids the idle rows line up, so
        that is the first non-idle pair's minima differing by
        ``shift`` and every later row's code (id and step) agreeing,
        three comparisons of flat slices.  All rows involved are
        finalized — the caller guarantees ``t0 + 2*period <= frontier``.
        """
        a = t0 - self.evicted
        b = a + period
        rids = self.rids
        if rids[a:b] != rids[b:b + period]:
            return False
        f = a
        while rids[f] < 0:
            f += 1
            if f == b:
                return True
        codes = self.codes
        return (
            self.mins[f + period] - self.mins[f] == shift
            and codes[f + 1:b] == codes[f + 1 + period:b + period]
        )

    def materialize(self, top: int) -> tuple[int, tuple] | None:
        """Rebuild the window in ``configuration_key``'s exact format.

        Test-only: lets the property suite assert the rolled digests
        describe the same window a from-scratch
        :func:`~repro.core.patterns.configuration_key` would.
        """
        i = top - self.evicted
        window = [
            (c, rid, rm)
            for c, rid, rm in zip(
                range(self.height),
                self.rids[i:i + self.height],
                self.mins[i:i + self.height],
            )
            if rid >= 0
        ]
        if not window:
            return None
        base = min(rm for _c, _rid, rm in window)
        cells = [
            (j, c, node, drel + rm - base, phase)
            for c, rid, rm in window
            for j, node, drel, phase in self.rows[rid]
        ]
        cells.sort()
        return base, tuple(cells)

    def evict_below(self, low: int) -> None:
        """Drop finalized rows no scan or verification can revisit."""
        drop = min(low, self.next_final) - self.evicted
        if drop > 0:
            del self.rids[:drop]
            del self.mins[:drop]
            del self.codes[:drop]
            self.evicted += drop


#: Row codes pack a row id below the step in minimum iteration.
_CODE_SPAN = 1 << 32


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

    A scan that stops at a candidate it cannot verify yet records the
    frontier ``stall_until`` that candidate needs.  A window's
    candidates are its earlier occurrences, oldest first, and an older
    one needs a later frontier (``t0 + 2*(t - t0)``), so the scan
    stalls before verifying any candidate at that window.  Until the
    frontier gets there a rescan would stop at the same candidate
    having done nothing, so the caller skips it (DESIGN.md §13.5).
    """

    __slots__ = ("rolling", "height", "stats", "occurrences", "occ_order",
                 "rejected", "rej_by_t0", "next_top", "retain",
                 "last_candidate_t", "stall_until")

    def __init__(
        self, rolling: _RollingWindows, height: int, stats: CyclicStats
    ) -> None:
        self.rolling = rolling
        self.height = height
        self.stats = stats
        self.occurrences: dict[tuple, list[tuple[int, int]]] = {}
        self.occ_order: deque[tuple[int, tuple]] = deque()
        self.rejected: set[tuple[int, int, int]] = set()
        self.rej_by_t0: dict[int, list[tuple[int, int, int]]] = {}
        self.next_top = 0
        self.retain = _RETAIN_MIN
        self.last_candidate_t = -1
        self.stall_until = 0

    def scan(self, frontier: int) -> tuple[int, int, int] | None:
        """Scan newly stable windows for a verified ``(start, period,
        shift)``; None when the state has advanced without one."""
        rolling = self.rolling
        rids = rolling.rids
        mins = rolling.mins
        codes = rolling.codes
        off = rolling.evicted
        occ = self.occurrences
        occ_order = self.occ_order
        rejected = self.rejected
        height = self.height
        stats = self.stats
        t = self.next_top
        while t + height <= frontier:
            # inlined _RollingWindows.key_at (the hottest loop in
            # detection)
            i = t - off
            f = i
            stop = i + height
            while rids[f] < 0:
                f += 1
                if f == stop:
                    break
            if f == stop:  # all idle
                t += 1
                continue
            base = mins[f]
            key = (f - i, rids[f], *codes[f + 1:stop])
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
                        self.stall_until = t0 + 2 * period
                        return None
                    stats.candidates_tried += 1
                    self.last_candidate_t = t
                    if rolling.segment_repeats(t0, period, shift):
                        stats.detection_cycle = t0
                        return t0, period, shift
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

    def reject(self, trip: tuple[int, int, int]) -> None:
        self.rejected.add(trip)
        self.rej_by_t0.setdefault(trip[0], []).append(trip)

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
            # an eviction can change the stalled window's candidates:
            # lift the stall so the next placement rescans.
            self.stall_until = 0
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
    n = len(node_names)
    if max_instances is None:
        # generous default: multi-SCC subsets can take hundreds of
        # iterations to phase-lock before the pattern stabilizes.
        max_instances = 4000 * n + 20_000

    # configuration window height = k + 1, with k the largest
    # compile-time communication cost actually reachable on this graph.
    k = max((comm.compile_cost(e) for e in graph.edges), default=0)
    height = k + 1
    if ordering not in ORDERINGS:
        raise SchedulingError(
            f"unknown ordering {ordering!r}; choose from {ORDERINGS}"
        )
    by_asap = ordering == "asap"
    by_index = ordering == "index"
    lead = max_iteration_lead

    # Lowering: node v is its insertion index and instance (v, it) the
    # integer iid = it*n + v, so every per-instance table is a flat list
    # and a dependence is a fixed iid offset (a negative iid is an
    # instance before iteration 0).  The hot loops never touch the graph.
    index = graph.node_index
    lat = [graph.latency(name) for name in node_names]
    #: v -> ((iid offset, compile-time comm cost), ...) per predecessor
    preds = [
        tuple(
            (index(e.src) - v - e.distance * n, comm.compile_cost(e))
            for e in graph.predecessors(name)
        )
        for v, name in enumerate(node_names)
    ]
    #: v -> ((iid offset, node, distance), ...) per successor
    succs = [
        tuple(
            (index(e.dst) - v + e.distance * n, index(e.dst), e.distance)
            for e in graph.successors(name)
        )
        for v, name in enumerate(node_names)
    ]

    # Per-instance tables, grown one iteration (n slots) at a time.
    end = [-1] * n  # finish cycle; -1 while unplaced
    proc = [0] * n
    asap_end = [0] * n  # zero-communication ASAP finish
    #: unplaced predecessors (iteration 0 has only distance-0 ones)
    waiting = [
        sum(e.distance == 0 for e in graph.predecessors(name))
        for name in node_names
    ]
    waiting_row = [len(p) for p in preds]
    unplaced_row = [-1] * n
    zero_row = [0] * n
    proc_end = [0] * procs
    proc_ids = range(procs)
    if any(cc < 0 for ps in preds for _off, cc in ps):
        raise SchedulingError("compile-time communication cost below 0")
    #: heap of (asap | iteration | node, iteration, node, v1, q1, v2):
    #: the first three are the instance's key in the reference's order
    #: and unique, so the selection inputs after them never compare.
    ready: list[tuple[int, int, int, int, int, int]] = []
    #: iid -> data-ready cycle of every ready or parked instance (a
    #: handful at a time)
    data_ready: dict[int, int] = {}
    stats = CyclicStats()
    rolling = _RollingWindows(height)
    pending_rows = rolling.pending
    detector = _Detector(rolling, height, stats)
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
    iter_left = [n]  # unplaced instances per iteration
    iter_end = [0]  # latest finish per iteration
    parked: dict[int, list[tuple[int, int, int, int, int, int]]] = {}
    min_unfinished = 0

    def push(iid: int, it: int, v: int) -> None:
        # All predecessors are placed: fold them, once, into the ASAP
        # key, the data-ready time and the selection inputs — the
        # latest remote availability v1 (on processor q1) and the
        # latest off q1, v2 (per-processor maxima, so a tie for v1
        # makes v2 == v1 and the choice of q1 moot).
        a = dr = v1 = v2 = 0
        q1 = -1
        for off, cc in preds[v]:
            p = iid + off
            if p >= 0:
                x = asap_end[p]
                if x > a:
                    a = x
                x = end[p]
                if x > dr:
                    dr = x
                x += cc
                q = proc[p]
                if q == q1:
                    if x > v1:
                        v1 = x
                elif x > v1:
                    v2 = v1
                    v1 = x
                    q1 = q
                elif x > v2:
                    v2 = x
        asap_end[iid] = a + lat[v]
        data_ready[iid] = dr
        entry = (a if by_asap else v if by_index else it, it, v, v1, q1, v2)
        if it < min_unfinished + lead:
            heappush(ready, entry)
        else:
            parked.setdefault(it, []).append(entry)

    for v in range(n):
        if not waiting[v]:
            push(v, 0, v)
    if not ready:
        raise SchedulingError(
            f"graph {graph.name!r}: no initially ready instance — the "
            "distance-0 subgraph has no root (is it really a loop body?)"
        )

    instances = 0
    iters = 1  # iterations with table slots
    while True:
        if not ready:  # pragma: no cover - unreachable for Cyclic graphs
            raise SchedulingError("ready queue drained before a pattern")
        _, it, v, v1, q1, v2 = heappop(ready)
        iid = it * n + v
        dr = data_ready.pop(iid)
        if it + 1 == iters:  # successors may reach iteration it + 1
            end += unplaced_row
            proc += zero_row
            asap_end += zero_row
            waiting += waiting_row
            iter_left.append(n)
            iter_end.append(0)
            iters += 1

        # --- processor selection: first minimum of T(v, Pj) ----------
        # T(v, Pj) = max(proc_end[j], pacing floor, finish + comm of
        # each predecessor, comm 0 if it ran on j).  Every j != q1 gets
        # max(proc_end[j], floor, v1): a finish on j itself is never
        # later than v1, as compile costs are >= 0.  So the best j != q1
        # is found in C on proc_end, then matched against q1, with the
        # reference's first-minimum and 'idle' tie-break
        # (bench_scheduler_fastpath asserts identity).
        floor = iter_end[it - lead] if it >= lead else 0
        base = v1 if v1 > floor else floor
        if q1 >= 0:
            pe1 = proc_end[q1]
            proc_end[q1] = _NEVER
        m = min(proc_end)
        if m < base and not prefer_idle:
            # first processor free by `base`
            best_j = next(compress(proc_ids, map(base.__ge__, proc_end)))
        else:
            best_j = proc_end.index(m)
        best_t = m if m > base else base
        if q1 >= 0:
            proc_end[q1] = pe1
            t = pe1 if pe1 > floor else floor
            if v2 > t:
                t = v2
            if dr > t:  # a finish on q1 itself may bind (dr bounds it)
                for off, _cc in preds[v]:
                    p = iid + off
                    if p >= 0 and proc[p] == q1 and end[p] > t:
                        t = end[p]
            if t < best_t or t == best_t and (
                pe1 < m or pe1 == m and q1 < best_j
                if prefer_idle
                else q1 < best_j
            ):
                best_t = t
                best_j = q1
        lt = lat[v]
        e = best_t + lt
        end[iid] = e
        proc[iid] = best_j
        proc_end[best_j] = e
        for q in range(lt):
            pending_rows[best_t + q].append((best_j, v, it, q))
        instances += 1

        # --- advance the iteration-lead window ------------------------
        left = iter_left[it] - 1
        iter_left[it] = left
        if e > iter_end[it]:
            iter_end[it] = e
        if left == 0 and it == min_unfinished:
            while iter_left[min_unfinished] == 0:
                floor_time = iter_end[min_unfinished]
                min_unfinished += 1
                for entry in parked.pop(min_unfinished + lead - 1, ()):
                    piid = entry[1] * n + entry[2]
                    if data_ready[piid] < floor_time:
                        data_ready[piid] = floor_time
                    heappush(ready, entry)

        # --- release successors --------------------------------------
        for off, sv, dist in succs[v]:
            s = iid + off
            w = waiting[s] - 1
            waiting[s] = w
            if not w:
                push(s, it + dist, sv)

        # --- pattern detection over the stable prefix ----------------
        # frontier = min over j of max(proc_end[j], dr_min)
        #          = max(min(proc_end), dr_min): on processor j nothing
        # can start before proc_end[j] (append-only), and nothing
        # anywhere before the minimum data-ready time over the ready
        # queue (every unreleased instance transitively waits on some
        # ready instance).  The frontier never decreases.
        frontier = min(proc_end)
        dr_min = min(data_ready.values(), default=0)
        if dr_min > frontier:
            frontier = dr_min
        # nothing to scan (and so no new detector state to prune) until
        # the frontier clears at least one window past next_top.
        if detector.next_top + height <= frontier:
            if frontier < detector.stall_until:
                # a rescan would stop at the same candidate having
                # tried none (see _Detector); only prune()'s starvation
                # valve can act.
                if len(detector.occ_order) > detector.retain:
                    detector.prune()
            else:
                t_detect = perf_counter()
                # rows below the frontier are final, so rolling them
                # only when a scan reads them changes nothing.
                rolling.roll_to(frontier, stats)
                while True:
                    found = detector.scan(frontier)
                    if found is None:
                        break
                    pattern = _build_pattern(
                        node_names, lat, end, proc, procs, *found
                    )
                    try:
                        # a window pair can match spuriously when some
                        # op's starts skip both windows (e.g. a
                        # long-latency node placed out of time order,
                        # or a node whose instances all lag beyond the
                        # verified segment); the tiling check exposes
                        # that, and the candidate is rejected rather
                        # than accepted or fatal.
                        pattern.check_coverage(node_names)
                    except SchedulingError:
                        detector.reject(found)
                        continue
                    now = perf_counter()
                    stats.instances_scheduled = instances
                    stats.unrollings = iters - 1
                    stats.detect_seconds += now - t_detect
                    stats.total_seconds = now - t_run
                    return CyclicResult(pattern, stats)
                detector.prune()
                stats.detect_seconds += perf_counter() - t_detect

        if instances > max_instances:
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
    names: list[str],
    lat: list[int],
    end: list[int],
    proc: list[int],
    procs: int,
    t0: int,
    period: int,
    shift: int,
) -> Pattern:
    """The Pattern at ``(t0, period, shift)`` from the instance tables.

    Its columns are filled straight from the tables, in ``(start,
    proc)`` order — unique per placement, so that is also the order of
    the placements they stand for.
    """
    n = len(names)
    lat_of = lat * (len(end) // n)
    start = list(map(sub, end, lat_of))  # < 0 when unplaced
    stop = t0 + period
    chosen = [i for i, s in enumerate(start) if 0 <= s < stop]
    rank = list(map(add, map(mul, start, repeat(procs)), proc))
    chosen.sort(key=rank.__getitem__)
    split = bisect_left(chosen, t0, key=start.__getitem__)
    iters, nodes = zip(*map(divmod, chosen, repeat(n))) if chosen else ((), ())
    return Pattern.from_columns(
        t0,
        period,
        shift,
        procs,
        names,
        [start[i] for i in chosen],
        [proc[i] for i in chosen],
        nodes,
        iters,
        [lat_of[i] for i in chosen],
        split,
    )
