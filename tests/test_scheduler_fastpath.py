"""Scheduler fastpath (DESIGN.md §13): equivalence, memo, pruning.

The optimized :func:`repro.core.cyclic.schedule_cyclic` must be
indistinguishable from the frozen reference transcription
(:func:`repro.core.cyclic_reference.schedule_cyclic_reference`) —
bit-identical patterns, identical detection statistics — while doing
asymptotically less detection work.  These tests pin that bar:

* the rolling row digests describe exactly the windows a from-scratch
  :func:`~repro.core.patterns.configuration_key` would (property test
  over the fuzz generator families);
* optimized vs reference equivalence over the fuzz families, the
  checked-in corpus, and a 500-loop fuzz smoke; over every ordering,
  tie-break and a short iteration lead on the corpus and Table 1
  loops; and on Table 1 seed 13, the loop with the longest detection;
* cross-sweep memoization: canonical-graph hits across node renames,
  disk-tier sharing, and bit-identity of remapped results;
* bounded detection state: eviction fires under a tiny retention floor
  and the scheduler still emits a valid pattern of the same rate.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.cyclic as cyclic_mod
import repro.core.cyclic_reference as reference_mod
from repro.core.classify import classify
from repro.core.cyclic import (
    ORDERINGS,
    CyclicStats,
    _RollingWindows,
    schedule_cyclic,
)
from repro.core.cyclic_reference import schedule_cyclic_reference
from repro.core.patterns import configuration_key
from repro.errors import PatternNotFoundError, SchedulingError
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generators import PATTERN_NAMES, generate_case
from repro.graph.ddg import DependenceGraph
from repro.machine.comm import UniformComm
from repro.machine.model import Machine
from repro.workloads import random_cyclic_loop
from tests.conftest import fuzz_cases


def _cyclic_subset(case):
    """The schedulable Cyclic subgraph of a fuzz case, or None."""
    g = case.graph
    try:
        cyc = classify(g).cyclic
    except Exception:
        return None, None
    if not cyc:
        return None, None
    return g.subgraph(cyc), case.machine()


def _key_stats(stats: CyclicStats) -> tuple:
    """The stats fields both scheduler paths must agree on exactly."""
    return (
        stats.instances_scheduled,
        stats.candidates_tried,
        stats.detection_cycle,
        stats.unrollings,
    )


def _schedule_both(sub, machine):
    try:
        ref = schedule_cyclic_reference(sub, machine)
    except (PatternNotFoundError, SchedulingError) as exc:
        # the optimized path must fail the same way
        with pytest.raises(type(exc)):
            schedule_cyclic(sub, machine, memo=False)
        return None, None
    opt = schedule_cyclic(sub, machine, memo=False)
    return ref, opt


def _grid_of(pattern, iterations: int):
    """(grid, placements) of the pattern expanded to ``iterations``."""
    sched = pattern.expand(iterations)
    grid: dict[tuple[int, int], tuple[str, int, int]] = {}
    placements = sched.placements()
    for p in placements:
        for q in range(p.latency):
            grid[(p.proc, p.start + q)] = (p.op.node, p.op.iteration, q)
    return grid, placements


# ----------------------------------------------------------------------
# rolling window digests vs configuration_key
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(case=fuzz_cases(), height=st.integers(1, 5))
def test_rolling_key_matches_configuration_key(case, height):
    """Property: on real schedule prefixes, the rolled digests describe
    exactly the window ``configuration_key`` would build, and rolled
    key equality partitions window tops exactly like
    ``configuration_key`` equality (the invariant detection relies on).
    """
    sub, machine = _cyclic_subset(case)
    if sub is None:
        return
    try:
        result = schedule_cyclic(sub, machine, memo=False)
    except (PatternNotFoundError, SchedulingError):
        return
    grid, placements = _grid_of(result.pattern, 12)
    if not placements:
        return
    rolling = _RollingWindows(height)
    for p in placements:
        for q in range(p.latency):
            rolling.pending.setdefault(p.start + q, []).append(
                (p.proc, p.op.node, p.op.iteration, q)
            )
    last = max(p.start + p.latency for p in placements)
    stats = CyclicStats()
    rolling.roll_to(last + 1, stats)
    assert stats.rows_rolled == last + 1

    procs = range(result.pattern.processors)
    tops = range(0, max(1, last + 1 - height))
    recomputed = {}
    for top in tops:
        keyed = configuration_key(grid, procs, top, height)
        recomputed[top] = keyed
        # materialize() rebuilds configuration_key's exact format
        assert rolling.materialize(top) == keyed, top
        rolled = rolling.key_at(top)
        assert (rolled is None) == (keyed is None), top
    # equal rolled keys <=> equal configuration keys, and anchor
    # differences equal window-base differences (the detected shift)
    for t1 in tops:
        if recomputed[t1] is None:
            continue
        a1, k1 = rolling.key_at(t1)
        b1, c1 = recomputed[t1]
        for t2 in tops:
            if t2 <= t1 or recomputed[t2] is None:
                continue
            a2, k2 = rolling.key_at(t2)
            b2, c2 = recomputed[t2]
            assert (k1 == k2) == (c1 == c2), (t1, t2)
            if k1 == k2:
                assert a2 - a1 == b2 - b1, (t1, t2)


# ----------------------------------------------------------------------
# optimized vs reference equivalence
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(case=fuzz_cases())
def test_optimized_matches_reference_on_fuzz_families(case):
    sub, machine = _cyclic_subset(case)
    if sub is None:
        return
    ref, opt = _schedule_both(sub, machine)
    if ref is None:
        return
    assert opt.pattern == ref.pattern
    assert _key_stats(opt.stats) == _key_stats(ref.stats)
    # the fastpath never hashes a window from scratch
    assert opt.stats.windows_hashed == 0
    assert opt.stats.rows_rolled > 0


def test_optimized_matches_reference_on_corpus():
    corpus = load_corpus(Path(__file__).parent / "corpus")
    checked = 0
    for name in sorted(corpus):
        sub, machine = _cyclic_subset(corpus[name])
        if sub is None:
            continue
        ref, opt = _schedule_both(sub, machine)
        if ref is None:
            continue
        checked += 1
        assert opt.pattern == ref.pattern, name
        assert _key_stats(opt.stats) == _key_stats(ref.stats), name
    assert checked >= 3  # the corpus must keep exercising the scheduler


def test_500_loop_fuzz_smoke():
    """ISSUE 9 acceptance: 500 generated loops, bit-identical patterns,
    and detection work far below one full window hash per instance."""
    rounds = 0
    seed = 0
    instances = windows = 0
    while rounds < 500:
        pattern_name = PATTERN_NAMES[seed % len(PATTERN_NAMES)]
        case = generate_case(pattern_name, seed)
        seed += 1
        sub, machine = _cyclic_subset(case)
        if sub is None:
            continue
        rounds += 1
        ref, opt = _schedule_both(sub, machine)
        if ref is None:
            continue
        assert opt.pattern == ref.pattern, (pattern_name, seed - 1)
        instances += opt.stats.instances_scheduled
        windows += opt.stats.windows_hashed
    assert instances > 0
    # windows_hashed << instances_scheduled (it is identically zero)
    assert windows * 10 < instances


# ----------------------------------------------------------------------
# every scheduler configuration, and the Table 1 tail
# ----------------------------------------------------------------------
#: (ordering, tie_break, max_iteration_lead): every heap key the
#: scheduler encodes, with the lead short enough to park often
CONFIGS = [
    (ordering, tie_break, lead)
    for ordering in ORDERINGS
    for tie_break in ("idle", "first")
    for lead in (8, 1, 2)
]

#: Table 1 loops with multi-node Cyclic subgraphs (seed 13 is pinned
#: on its own below)
CONFIG_SEEDS = (2, 4, 9, 11, 12, 18, 20, 25)


def _table1_subgraph(seed: int):
    w = random_cyclic_loop(seed)
    return w.graph.subgraph(classify(w.graph).cyclic), w.machine


@pytest.fixture(scope="module")
def config_subjects():
    corpus = load_corpus(Path(__file__).parent / "corpus")
    subjects = []
    for name in sorted(corpus):
        sub, machine = _cyclic_subset(corpus[name])
        if sub is not None:
            subjects.append((name, sub, machine))
    for seed in CONFIG_SEEDS:
        subjects.append((f"table1-{seed}", *_table1_subgraph(seed)))
    return subjects


@pytest.fixture
def reference_frontiers(monkeypatch):
    """Every stable-prefix frontier the reference computes.

    The optimized scheduler rolls each schedule row once the frontier
    passes it, so its ``rows_rolled`` must equal the frontier at which
    the reference detected the pattern: the last one it computed.
    """
    seen: list[int] = []
    frontier = reference_mod._frontier_reference

    def record(proc_end, data_ready):
        seen.append(frontier(proc_end, data_ready))
        return seen[-1]

    monkeypatch.setattr(reference_mod, "_frontier_reference", record)
    return seen


@pytest.mark.parametrize("ordering,tie_break,lead", CONFIGS)
def test_every_configuration_matches_reference(
    config_subjects, reference_frontiers, ordering, tie_break, lead
):
    kw = dict(ordering=ordering, tie_break=tie_break, max_iteration_lead=lead)
    for name, sub, machine in config_subjects:
        reference_frontiers.clear()
        try:
            ref = schedule_cyclic_reference(sub, machine, **kw)
        except (PatternNotFoundError, SchedulingError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                schedule_cyclic(sub, machine, memo=False, **kw)
            continue
        opt = schedule_cyclic(sub, machine, memo=False, **kw)
        assert opt.pattern == ref.pattern, name
        assert _key_stats(opt.stats) == _key_stats(ref.stats), name
        assert opt.stats.rows_rolled == reference_frontiers[-1], name


@pytest.mark.parametrize("memo", [False, True])
@pytest.mark.parametrize(
    "kw,message",
    [
        (
            {"ordering": "bogus"},
            "unknown ordering 'bogus'; choose from "
            "('asap', 'iteration', 'index')",
        ),
        (
            {"tie_break": "bogus"},
            "unknown tie_break 'bogus'; choose 'idle' or 'first'",
        ),
    ],
)
def test_unknown_configuration_raises(kw, message, memo):
    g = _ring("bad-config", ("a", "b", "c"))
    machine = Machine(3, UniformComm(1))
    with pytest.raises(SchedulingError, match=re.escape(message)):
        schedule_cyclic(g, machine, memo=memo, **kw)
    with pytest.raises(SchedulingError, match=re.escape(message)):
        schedule_cyclic_reference(g, machine, **kw)


def test_negative_compile_cost_is_rejected():
    """Processor selection relies on compile-time costs being >= 0."""

    class Rebate(UniformComm):
        def compile_cost(self, edge):
            return -1

    g = _ring("rebate", ("a", "b", "c"))
    with pytest.raises(SchedulingError, match="communication cost below 0"):
        schedule_cyclic(g, Machine(3, Rebate(1)), memo=False)


def test_table1_seed13_matches_reference(reference_frontiers):
    """The Table 1 loop whose detection stalls longest: period 570 from
    cycle 3008, found after 591 unrollings."""
    sub, machine = _table1_subgraph(13)
    ref = schedule_cyclic_reference(sub, machine)
    opt = schedule_cyclic(sub, machine, memo=False)
    assert opt.pattern == ref.pattern
    assert _key_stats(opt.stats) == _key_stats(ref.stats)
    assert opt.stats.rows_rolled == reference_frontiers[-1]
    p = opt.pattern
    assert (p.period, p.start, p.iter_shift) == (570, 3008, 57)
    # (instances, candidates, detection cycle, unrollings)
    assert _key_stats(opt.stats) == (8844, 92, 3008, 591)
    assert opt.stats.rows_rolled == 5882


def test_table1_seed13_instance_budget():
    sub, machine = _table1_subgraph(13)
    with pytest.raises(PatternNotFoundError):
        schedule_cyclic_reference(sub, machine, max_instances=2000)
    with pytest.raises(PatternNotFoundError):
        schedule_cyclic(sub, machine, memo=False, max_instances=2000)


# ----------------------------------------------------------------------
# cross-sweep memoization
# ----------------------------------------------------------------------
def _ring(name: str, names: tuple[str, ...], k: int = 1) -> DependenceGraph:
    g = DependenceGraph(name)
    for n in names:
        g.add_node(n, 2)
    for a, b in zip(names, names[1:]):
        g.add_edge(a, b)
    g.add_edge(names[-1], names[0], distance=1)
    return g


class TestMemo:
    MACHINE = Machine(3, UniformComm(1))

    def test_second_request_is_a_hit(self):
        g = _ring("m1", ("a", "b", "c"))
        first = schedule_cyclic(g, self.MACHINE)
        again = schedule_cyclic(g, self.MACHINE)
        assert first.stats.memo_hits == 0
        assert again.stats.memo_hits == 1
        assert again.pattern == first.pattern
        # replayed counters describe the computing run
        assert (
            again.stats.instances_scheduled
            == first.stats.instances_scheduled
        )

    def test_hit_across_node_renames(self):
        """The memo key is canonical: names fold to insertion indices."""
        a = _ring("left", ("a", "b", "c"))
        b = _ring("right", ("x", "y", "z"))
        ra = schedule_cyclic(a, self.MACHINE)
        rb = schedule_cyclic(b, self.MACHINE)
        assert ra.stats.memo_hits == 0
        assert rb.stats.memo_hits == 1
        # the remapped hit is bit-identical to a fresh uncached run
        fresh = schedule_cyclic(b, self.MACHINE, memo=False)
        assert rb.pattern == fresh.pattern

    def test_no_hit_across_different_machines(self):
        g = _ring("m2", ("a", "b", "c"))
        schedule_cyclic(g, self.MACHINE)
        other = schedule_cyclic(g, Machine(2, UniformComm(2)))
        assert other.stats.memo_hits == 0

    def test_no_hit_across_scheduler_config(self):
        g = _ring("m3", ("a", "b", "c"))
        schedule_cyclic(g, self.MACHINE)
        other = schedule_cyclic(g, self.MACHINE, ordering="iteration")
        assert other.stats.memo_hits == 0

    def test_memo_off_never_hits(self):
        g = _ring("m4", ("a", "b", "c"))
        schedule_cyclic(g, self.MACHINE)
        r = schedule_cyclic(g, self.MACHINE, memo=False)
        assert r.stats.memo_hits == 0

    def test_hits_survive_via_disk_tier(self, tmp_path):
        """A TieredCache with a disk tier serves memo hits to a fresh
        process-equivalent (an empty memory tier and remap cache)."""
        from repro.pipeline.cache import set_default_cache
        from repro.runner.diskcache import DiskCache, TieredCache

        prev = set_default_cache(
            TieredCache(disk=DiskCache(str(tmp_path / "memo")))
        )
        try:
            g = _ring("disk", ("a", "b", "c"))
            first = schedule_cyclic(g, self.MACHINE)
            assert first.stats.memo_hits == 0
            # fresh memory tier over the same disk tier = new process
            set_default_cache(
                TieredCache(disk=DiskCache(str(tmp_path / "memo")))
            )
            cyclic_mod._REMAP_CACHE.clear()
            again = schedule_cyclic(g, self.MACHINE)
            assert again.stats.memo_hits == 1
            assert again.pattern == first.pattern
        finally:
            set_default_cache(prev)


# ----------------------------------------------------------------------
# bounded detection state
# ----------------------------------------------------------------------
def _phase_lock_graph() -> DependenceGraph:
    """Fast self-recurrence feeding a slow SCC: long phase-lock run."""
    g = DependenceGraph("phase-lock")
    g.add_node("f", 1)
    g.add_edge("f", "f", distance=1)
    for n in ("s1", "s2", "s3", "s4"):
        g.add_node(n, 3)
    g.add_edge("s1", "s2")
    g.add_edge("s2", "s3")
    g.add_edge("s3", "s4")
    g.add_edge("s4", "s1", distance=1)
    g.add_edge("f", "s1")
    return g


class TestBoundedDetectionState:
    def test_detection_state_stays_bounded(self, monkeypatch):
        """With a tiny retention floor, eviction fires and the detector
        still finds a valid pattern of the same steady-state rate."""
        g = _phase_lock_graph()
        machine = Machine(3, UniformComm(1))
        ref = schedule_cyclic_reference(g, machine)
        monkeypatch.setattr(cyclic_mod, "_RETAIN_MIN", 8)
        r = schedule_cyclic(g, machine, memo=False)
        assert r.stats.occ_evicted > 0
        r.pattern.check_coverage(g.node_names())
        # eviction may delay detection, never change the schedule: any
        # verified pattern of the same stream has the same rate
        assert (
            r.pattern.cycles_per_iteration()
            == ref.pattern.cycles_per_iteration()
        )

    def test_default_retention_never_evicts_on_fuzz_families(self):
        """At the default floor the detector is exactly the reference:
        nothing observed is ever evicted (spot check, see also the
        equivalence property above)."""
        for seed in range(10):
            case = generate_case("chain", seed)
            sub, machine = _cyclic_subset(case)
            if sub is None:
                continue
            try:
                r = schedule_cyclic(sub, machine, memo=False)
            except (PatternNotFoundError, SchedulingError):
                continue
            assert r.stats.occ_evicted == 0

    def test_starvation_valve_grows_retention(self, monkeypatch):
        """The valve must veto eviction while no candidate period has
        been proposed — otherwise a tiny floor could starve detection
        forever on slow-repeating streams."""
        g = _phase_lock_graph()
        machine = Machine(3, UniformComm(1))
        monkeypatch.setattr(cyclic_mod, "_RETAIN_MIN", 2)
        # must still terminate with a pattern (not PatternNotFoundError)
        r = schedule_cyclic(g, machine, memo=False)
        r.pattern.check_coverage(g.node_names())


# ----------------------------------------------------------------------
# counters through the pipeline and the profile CLI
# ----------------------------------------------------------------------
def test_pipeline_report_carries_scheduler_counters(fig7_workload):
    from repro.core.scheduler import schedule_loop
    from repro.pipeline.manager import collect_reports
    from repro.pipeline.report import aggregate_reports

    with collect_reports() as reports:
        schedule_loop(fig7_workload.graph, fig7_workload.machine)
        schedule_loop(fig7_workload.graph, fig7_workload.machine)
    per_run = [r.to_dict() for r in reports]
    cyc = [
        p
        for rep in per_run
        for p in rep["passes"]
        if p["pass"] == "CyclicSchedPass"
    ]
    assert cyc, "pipeline did not run CyclicSchedPass"
    for record in cyc:
        for key in ("memo_hits", "rows_rolled", "detect_share"):
            assert key in record["counters"], key
    agg = aggregate_reports(reports)
    sched = agg["scheduler"]
    assert sched["instances_scheduled"] > 0
    assert sched["rows_rolled"] > 0
    assert sched["windows_hashed"] == 0
    # the second schedule_loop reuses the pass cache or the memo; either
    # way the counters replay, so memo_hits is present and >= 0
    assert "memo_hits" in sched


def test_profile_smoke_prints_scheduler_counters(capsys):
    from repro.cli import main

    assert main(["profile", "fig7"]) == 0
    out = capsys.readouterr().out
    assert "scheduler.rows_rolled" in out
    assert "scheduler.instances_scheduled" in out
