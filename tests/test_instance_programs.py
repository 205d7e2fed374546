"""Integer schedules from Cyclic-sched to the makespan.

Patterns are kept as integer columns, schedules emit their programs as
rows of instance indices ``it * n + v``, and ``lower`` flattens them
with a position array.  These tests pin that path:

* the lowering against the ``Op``-keyed one it replaced, frozen below
  as a test-only oracle, over random programs on random graphs (live-
  ins, cross-row messages, empty rows, deadlocks) and over folded and
  normalized programs, with ``evaluate`` and ``evaluate_trace``
  against the one-step reference evaluator.  The event engine shares
  the lowering, so the fuzz campaign's engine-agreement oracle cannot
  check it: this oracle does;
* folded and normalized schedules' instance rows against the
  ``Op``-keyed folding merge and unwound-program mapping they
  replaced, frozen below too;
* the folding's stable sort by priority against the integer
  priority-Kahn merge it replaced, frozen below as well, on the corpus,
  every fuzz family and the serve_stream workload's 96 programs;
* nothing below the report asks the graph for an op's instance
  dependences: the engine, codegen, folding and normalization read
  the lowered program;
* malformed programs raise the same errors with the same messages;
* flat patterns equal (and hash like) the ones built from placements
  the way the frozen reference scheduler builds them;
* patterns, lowered programs and evaluations survive pickling, and
  entries pickled in the earlier layouts are quarantined as misses;
* a warm Table 1 measurement builds no ``Op`` and no ``Placement``.
"""

from __future__ import annotations

import heapq
import math
import pickle
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.schedule as schedule_mod
import repro.sim.fastpath as fastpath_mod
from repro._types import Op, decode_rows
from repro.baselines.doacross import schedule_doacross
from repro.codegen.partition import ParallelProgram
from repro.core.classify import classify
from repro.core.cyclic import schedule_cyclic
from repro.core.cyclic_reference import schedule_cyclic_reference
from repro.core.flowio import subset_order
from repro.core.normalized import NormalizedSchedule, schedule_any_loop
from repro.core.patterns import Pattern
from repro.core.schedule import Placement
from repro.errors import (
    CodegenError,
    DeadlockError,
    GraphError,
    PatternNotFoundError,
    ScheduleValidationError,
    SchedulingError,
)
from repro.core.scheduler import CombinedLoop
from repro.experiments import measure
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generators import PATTERN_NAMES, generate_case
from repro.fuzz.oracles import compile_case
from repro.graph.ddg import DependenceGraph
from repro.machine.comm import UniformComm, ZeroComm
from repro.machine.model import Machine
from repro.pipeline import CompilationContext, build_pipeline, compile_graph
from repro.pipeline.cache import CacheEntry
from repro.runner.diskcache import DiskCache
from repro.sim.engine import ExecutionTrace, simulate
from repro.sim.fastpath import (
    LoweredProgram,
    evaluate,
    evaluate_trace,
    lower,
    pred_offsets,
)
from repro.workloads import fig7, livermore18, random_cyclic_loop
from tests.test_lowering import (
    _comms,
    _placements,
    _ref_evaluate,
    _ref_messages,
    _ref_validate_program,
)
from tests.test_normalized import distance_graph


# ----------------------------------------------------------------------
# the Op-keyed validation and lowering the integer path replaced
# ----------------------------------------------------------------------
def _encode(graph, program):
    """Rows of ops as rows of instance indices ``it * n + v``."""
    index = {name: v for v, name in enumerate(graph)}
    return [[it * len(index) + index[node] for node, it in row]
            for row in program]


def _ref_lower(graph, program):
    """(rows, proc_of, bounds, latencies, edges, preds), keyed by Op."""
    from itertools import accumulate, chain

    proc_of = _ref_validate_program(graph, program)
    rows = [list(row) for row in program]
    bounds = list(accumulate(map(len, rows), initial=0))
    position = {name: {} for name in graph}
    for k, (node, it) in enumerate(chain.from_iterable(rows)):
        position[node][it] = k
    edges, node_preds = [], {}
    for name in graph:
        entry = []
        for e in graph.predecessors(name):
            edges.append(e)
            entry.append((position[e.src], e.distance, len(edges)))
        node_preds[name] = entry
    lats = [graph.latency(node) for node, _ in chain.from_iterable(rows)]
    preds, k = [], 0
    for row_lo, row_hi, row in zip(bounds, bounds[1:], rows):
        for node, it in row:
            entry = []
            for where, distance, slot in node_preds[node]:
                pi = where.get(it - distance)
                if pi is None:
                    continue
                if row_lo <= pi < row_hi:
                    if pi < k:
                        continue
                    slot = 0
                entry.append((pi, slot))
            preds.append(tuple(entry))
            k += 1
    return rows, proc_of, bounds, lats, tuple(edges), preds


# ----------------------------------------------------------------------
# random programs on random graphs
# ----------------------------------------------------------------------
@st.composite
def programs(draw):
    names = [f"N{i}" for i in range(draw(st.integers(1, 4)))]
    graph = DependenceGraph("random")
    for name in names:
        graph.add_node(name, draw(st.integers(1, 3)))
    for u, v, d in draw(
        st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names),
                           st.integers(0, 2)), max_size=7)
    ):
        if (u, v, d) not in {(e.src, e.dst, e.distance) for e in graph.edges}:
            if u != v or d:
                graph.add_edge(u, v, distance=d)
    instances = [Op(n, i) for i in range(draw(st.integers(0, 4))) for n in names]
    chosen = draw(st.permutations(instances))[: draw(st.integers(0, len(instances)))]
    rows = [[] for _ in range(draw(st.integers(1, 3)))]
    for op in chosen:
        rows[draw(st.integers(0, len(rows) - 1))].append(op)
    return graph, rows


def _outcome(run):
    """What a solve gives: its trace, or the deadlock and its partial
    trace.  Messages are compared only when the solve reports them."""
    try:
        trace = run()
        head = trace.makespan
    except DeadlockError as exc:
        trace, head = exc.trace, str(exc)
    return head, _placements(trace.schedule), trace.messages


def _ref_trace(graph, program, comm, use_runtime):
    sched = _ref_evaluate(graph, program, comm, use_runtime=use_runtime)
    proc_of = _ref_validate_program(graph, program)
    messages = _ref_messages(graph, sched, proc_of, comm, use_runtime)
    return ExecutionTrace(sched, messages)


def _check_against_oracle(graph, program):
    rows, _proc_of, *flat = _ref_lower(graph, program)
    for source in (program, _encode(graph, program)):
        got = lower(graph, source)
        assert [got.bounds, got.latencies, got.edges, got.preds] == flat
        assert got.rows == rows
    lowered = lower(graph, program)
    for comm in _comms(len(program)):
        for use_runtime in (False, True):
            kw = {"use_runtime": use_runtime}
            want = _outcome(lambda: _ref_trace(graph, program, comm, **kw))
            for order in (program, lowered):
                got = _outcome(lambda: evaluate_trace(graph, order, comm, **kw))
                assert got == want, (comm, use_runtime)
                got = _outcome(
                    lambda: ExecutionTrace(evaluate(graph, order, comm, **kw))
                )
                if isinstance(want[0], str):  # the deadlock's trace
                    assert got == want, (comm, use_runtime)
                else:
                    assert got[:2] == want[:2], (comm, use_runtime)


@given(programs())
def test_lowering_and_solve_match_the_op_keyed_oracle(subject):
    _check_against_oracle(*subject)


def test_oracle_cases_cover_every_lowering_branch():
    # A[i] reads B[i-1] (A[0] reads a live-in) and B[i] reads A[i]
    # across rows; row P1 is empty
    g = DependenceGraph("branches")
    for name in "AB":
        g.add_node(name, 2)
    g.add_edge("A", "B")
    g.add_edge("B", "A", distance=1)
    fine = [[Op("A", 0), Op("A", 1)], [], [Op("B", 0), Op("B", 1)]]
    _check_against_oracle(g, fine)
    # B[0] waits on A[0], queued behind it on its own row: a deadlock
    stuck = [[Op("B", 0), Op("A", 0), Op("A", 1)], [], [Op("B", 1)]]
    assert lower(g, stuck).preds[0] == ((1, 0),)
    with pytest.raises(DeadlockError):
        evaluate(g, stuck, _comms(0)[1])
    _check_against_oracle(g, stuck)


# ----------------------------------------------------------------------
# the Op-keyed folding merge and normalized program that folded and
# normalized schedules' instance rows replaced
# ----------------------------------------------------------------------
def _ref_folded_program(loop, iterations):
    c = loop.classification
    graph = loop.graph
    rows, starts, _ = loop.pattern.rows(iterations)
    used = loop.cyclic_processors
    cyclic_rows = decode_rows([rows[j] for j in used], loop.pattern.names)
    cyclic_starts = [starts[j] for j in used]
    fold_proc = used.index(loop.plan.fold_into)
    noncyclic = [
        Op(n, i) for i in range(iterations) for n in (*c.flow_in, *c.flow_out)
    ]
    rate = loop.pattern.cycles_per_iteration()
    prio = {}
    proc_of_cyclic = {}
    for j, (row, row_starts) in enumerate(zip(cyclic_rows, cyclic_starts)):
        prio.update(zip(row, map(float, row_starts)))
        proc_of_cyclic.update(dict.fromkeys(row, j))
    all_ops = set(prio) | set(noncyclic)
    fi_set = set(c.flow_in)
    fi_pos = {n: i for i, n in enumerate(subset_order(graph, c.flow_in))}
    fo_pos = {n: i for i, n in enumerate(subset_order(graph, c.flow_out))}
    for op in sorted(
        (o for o in noncyclic if o.node in fi_set),
        key=lambda o: (-o.iteration, -fi_pos[o.node]),
    ):
        deadlines = [
            prio[succ]
            for succ, _e in graph.instance_successors(op)
            if succ in prio
        ]
        prio[op] = min(deadlines) - 0.5 if deadlines else op.iteration * rate
    for op in sorted(
        (o for o in noncyclic if o.node not in fi_set),
        key=lambda o: (o.iteration, fo_pos[o.node]),
    ):
        ready = [
            prio[pred] + graph.latency(pred.node)
            for pred, _e in graph.instance_predecessors(op)
            if pred in prio
        ]
        prio[op] = (max(ready) + 0.5) if ready else op.iteration * rate
    chain_next, chain_blocked = {}, set()
    for row in cyclic_rows:
        for a, b in zip(row, row[1:]):
            chain_next[a] = b
            chain_blocked.add(b)
    remaining, dependents = {}, {}
    for op in all_ops:
        cnt = 0
        for pred, _e in graph.instance_predecessors(op):
            if pred in all_ops:
                cnt += 1
                dependents.setdefault(pred, []).append(op)
        remaining[op] = cnt

    def key(op):
        return (prio[op], op.iteration, graph.node_index(op.node))

    heap = [
        (key(op), op)
        for op in all_ops
        if remaining[op] == 0 and op not in chain_blocked
    ]
    heapq.heapify(heap)
    released_chain = set()
    out = [[] for _ in range(len(cyclic_rows))]
    while heap:
        _, op = heapq.heappop(heap)
        out[proc_of_cyclic.get(op, fold_proc)].append(op)
        nxt = chain_next.get(op)
        if nxt is not None:
            released_chain.add(nxt)
            if remaining[nxt] == 0:
                heapq.heappush(heap, (key(nxt), nxt))
        for dep in dependents.get(op, ()):
            remaining[dep] -= 1
            if remaining[dep] == 0 and (
                dep not in chain_blocked or dep in released_chain
            ):
                heapq.heappush(heap, (key(dep), dep))
    assert sum(map(len, out)) == len(all_ops)
    return out


def _ref_program(scheduled, iterations):
    """``scheduled.program(iterations)`` as it was built from ops."""
    if isinstance(scheduled, NormalizedSchedule):
        inner = _ref_program(
            scheduled.inner, math.ceil(iterations / scheduled.factor)
        )
        to_original = scheduled.unwound.to_original
        mapped = ([to_original(op) for op in row] for row in inner)
        return [[op for op in row if op.iteration < iterations]
                for row in mapped]
    if isinstance(scheduled, CombinedLoop):
        return [row for part in scheduled.parts
                for row in _ref_program(part, iterations)]
    if iterations and scheduled.plan and scheduled.plan.fold_into is not None:
        return _ref_folded_program(scheduled, iterations)
    return scheduled.program(iterations)  # unchanged: decoded rows


def _folding_parts(scheduled):
    inner = getattr(scheduled, "inner", scheduled)
    return [
        part
        for part in getattr(inner, "parts", [inner])
        if part.plan is not None and part.plan.fold_into is not None
    ]


def _folds(scheduled):
    return bool(_folding_parts(scheduled))


def _corpus_schedules():
    corpus = load_corpus(Path(__file__).parent / "corpus")
    for name in sorted(corpus):
        case = corpus[name]
        for folding in ("auto", "always"):
            ctx = compile_graph(
                case.graph, case.machine(), normalize=True, folding=folding,
                cache=None,
            )
            yield f"{name}/{folding}", ctx.scheduled


def _fuzz_shard_folding_schedules(monkeypatch):
    """The folding schedules of the seed-0 fuzz shard's 256 cases.

    The shard picks its cases adaptively from their behaviour
    signatures, which a compile alone determines, so the oracles are
    replaced by that compile.
    """
    import repro.fuzz.campaign as campaign
    from repro.fuzz.generators import behavior_signature
    from repro.fuzz.oracles import CaseOutcome, compile_case

    folding = []

    def compile_only(case):
        scheduled = compile_case(case)
        if _folds(scheduled):
            folding.append((case.case_id, scheduled))
        return CaseOutcome(signature=behavior_signature(case, scheduled))

    monkeypatch.setattr(campaign, "run_oracles", compile_only)
    campaign.run_fuzz_shard(
        {"seed": 0, "start": 0, "count": 256, "minimize": False}
    )
    return folding


def _mixed_graph():
    g = DependenceGraph("mixed")
    for n, lat in (("X", 1), ("Y", 2), ("Z", 1)):
        g.add_node(n, lat)
    g.add_edge("X", "Y")
    g.add_edge("Y", "Z")
    g.add_edge("Z", "X", distance=2)
    g.add_edge("Y", "Y", distance=3)
    return g


def _with_flow(g):
    """``g`` plus a Flow-in node feeding its first node and a Flow-out
    node reading its last, so that there is something to fold."""
    g = g.copy()
    first, last = g.node_names()[0], g.node_names()[-1]
    g.add_node("FI", 2)
    g.add_node("FO", 1)
    g.add_edge("FI", first)
    g.add_edge(last, "FO", distance=1)
    return g


def _normalized_schedules():
    """The workloads of tests/test_normalized.py, folded and not, with
    and without non-Cyclic nodes."""
    graphs = [distance_graph(d, lat) for d in range(1, 6) for lat in (1, 2)]
    graphs.append(_mixed_graph())
    graphs += [_with_flow(g) for g in graphs]
    for g in graphs:
        for machine in (Machine(3, UniformComm(1)), Machine(4, UniformComm(0))):
            for folding in ("auto", "always"):
                s = schedule_any_loop(g, machine, folding=folding)
                yield f"{g.name}/{machine.processors}/{folding}", s


def _assert_rows_match(name, scheduled, iterations):
    want = _ref_program(scheduled, iterations)
    assert scheduled.program(iterations) == want, (name, iterations)
    assert decode_rows(
        scheduled.instances(iterations), scheduled.graph.node_names()
    ) == want, (name, iterations)


def test_corpus_and_normalized_instances_equal_the_op_keyed_programs():
    subjects = [*_corpus_schedules(), *_normalized_schedules()]
    assert sum(_folds(s) for _, s in subjects) >= 20
    for name, scheduled in subjects:
        for iterations in (0, 1, 7, 12):
            _assert_rows_match(name, scheduled, iterations)


def test_fuzz_shard_folded_instances_equal_the_op_keyed_merge(monkeypatch):
    folding = _fuzz_shard_folding_schedules(monkeypatch)
    assert len(folding) >= 30  # 33 of the 256 cases fold
    for case_id, scheduled in folding:
        for iterations in (5, 7, 20):
            _assert_rows_match(case_id, scheduled, iterations)


def test_lowering_oracle_holds_on_folded_and_normalized_programs():
    subjects = [*_corpus_schedules(), *_normalized_schedules()]
    for name, scheduled in subjects[::3]:
        _check_against_oracle(scheduled.graph, scheduled.program(6))


def test_folded_rows_over_a_combined_graph_renumber_each_part():
    # two copies of a folding loop side by side: each part's folded
    # rows are renumbered into the whole graph's node indices
    w = livermore18()
    g = DependenceGraph("twice")
    for suffix in ("", "'"):
        for name in w.graph.node_names():
            g.add_node(name + suffix, w.graph.latency(name))
        for e in w.graph.edges:
            g.add_edge(e.src + suffix, e.dst + suffix, e.distance)
    s = compile_graph(g, w.machine, folding="always", cache=None).scheduled
    assert isinstance(s, CombinedLoop) and all(map(_folds, s.parts))
    _assert_rows_match("twice", s, 5)


# ----------------------------------------------------------------------
# the priority-Kahn merge that the folding's stable sort replaced
# ----------------------------------------------------------------------
def _heap_folded_instances(loop, iterations):
    """``loop``'s folded rows by a priority-Kahn pass over the instance
    dependences plus each Cyclic row's chain, smallest ``(prio, x)``
    first."""
    cyclic_rows, prio, proc_of = loop._fold_priorities(iterations)
    total, n = len(prio), len(loop.graph)
    preds = [[off for off, _e in e] for e in pred_offsets(loop.graph)]
    remaining = [0] * total
    dependents = [[] for _ in range(total)]
    for x in range(total):
        for y in (x + off for off in preds[x % n]):
            if y >= 0:
                remaining[x] += 1
                dependents[y].append(x)
    for row in cyclic_rows:
        for a, b in zip(row, row[1:]):
            remaining[b] += 1
            dependents[a].append(b)
    heap = [(prio[x], x) for x in range(total) if not remaining[x]]
    heapq.heapify(heap)
    out = [[] for _ in cyclic_rows]
    while heap:
        _, x = heapq.heappop(heap)
        out[proc_of[x]].append(x)
        for dep in dependents[x]:
            remaining[dep] -= 1
            if not remaining[dep]:
                heapq.heappush(heap, (prio[dep], dep))
    assert sum(map(len, out)) == total
    return out


def _assert_sort_equals_heap(name, scheduled, iterations=(1, 2, 7, 20)):
    for part in _folding_parts(scheduled):
        for it in iterations:
            assert part._folded_instances(it) == _heap_folded_instances(
                part, it
            ), (name, it)


def test_folded_sort_equals_the_heap_merge_on_corpus_and_normalized():
    subjects = [*_corpus_schedules(), *_normalized_schedules()]
    for name, scheduled in subjects:
        _assert_sort_equals_heap(name, scheduled)


def test_folded_sort_equals_the_heap_merge_on_every_fuzz_family():
    folded = Counter()
    for pattern in PATTERN_NAMES:
        for seed in range(40):
            case = generate_case(pattern, seed)
            always = compile_graph(
                case.graph, case.machine(), folding="always", cache=None
            ).scheduled
            for scheduled in (compile_case(case), always):
                folded[pattern] += bool(_folding_parts(scheduled))
                _assert_sort_equals_heap(case.graph.name, scheduled)
    # the other four families' loops are all Cyclic: nothing to fold
    assert {p for p in PATTERN_NAMES if folded[p] >= 10} == {
        "mesh", "self_dep", "multi_statement", "conditional"
    }, folded


def _serve_stream_schedules():
    """The 96 programs of perfbench's serve_stream workload at seed 0,
    compiled as the daemon compiles a source request."""
    from repro.workloads import (
        ADAPTIVE_SOURCE,
        ELLIPTIC_SOURCE,
        FIG7_SOURCE,
        LIVERMORE18_SOURCE,
    )

    sources = (FIG7_SOURCE, LIVERMORE18_SOURCE, ELLIPTIC_SOURCE,
               ADAPTIVE_SOURCE)
    programs = [(source, 4, 2) for source in sources]
    i = 0
    while len(programs) < 96:
        case = generate_case(("multi_statement", "conditional")[i % 2], i)
        program = (case.source, case.processors, int(case.comm["k"]))
        i += 1
        if program not in programs:
            programs.append(program)
    for source, processors, k in programs:
        ctx = CompilationContext.from_source(
            source, Machine(processors, UniformComm(k))
        )
        build_pipeline(source=True, normalize=True, cache=None).run(ctx)
        yield source, ctx.scheduled


def test_folded_sort_equals_the_heap_merge_on_the_serve_stream_programs():
    folding = [(src, s) for src, s in _serve_stream_schedules()
               if _folding_parts(s)]
    assert len(folding) >= 30  # 42 of the 96 fold
    for source, scheduled in folding:
        _assert_sort_equals_heap(source, scheduled, iterations=(1, 100))


_FOLDING = [
    scheduled
    for _, scheduled in _normalized_schedules()
    if _folding_parts(scheduled)
]


@given(
    subject=st.sampled_from(_FOLDING),
    iterations=st.integers(min_value=0, max_value=80),
)
def test_folded_sort_equals_the_heap_merge_property(subject, iterations):
    _assert_sort_equals_heap("property", subject, iterations=(iterations,))


# ----------------------------------------------------------------------
# one program form: nothing below the report re-derives dependences
# ----------------------------------------------------------------------
_LOWERED_MODULES = (
    "repro.sim.",
    "repro.codegen.partition",
    "repro.codegen.interp",
    "repro.core.scheduler",
    "repro.core.normalized",
)


def test_no_module_below_the_report_derives_instance_dependences(
    monkeypatch,
):
    from repro.chaos import FailStop, FaultPlan, run_resilient
    from repro.fuzz.oracles import run_oracles

    callers = Counter()
    for method in ("instance_predecessors", "instance_successors"):
        real = getattr(DependenceGraph, method)

        def counting(self, op, _real=real):
            frame = sys._getframe(1)
            callers[frame.f_globals["__name__"], frame.f_code.co_name] += 1
            return _real(self, op)

        monkeypatch.setattr(DependenceGraph, method, counting)
    case = next(
        c for c in (generate_case("mesh", seed) for seed in range(100))
        if _folds(compile_case(c))
    )
    assert run_oracles(case).ok
    scheduled = compile_case(case)
    base = evaluate(scheduled.graph, scheduled.program(20), ZeroComm())
    plan = FaultPlan(0, (FailStop(base.used_processors()[0], 10),))
    assert run_resilient(scheduled, 20, plan).outcome == "recovered"
    # the sequential reference is the one caller: it is the oracle
    assert callers[("repro.codegen.interp", "reference_graph_values")] > 0
    offenders = {
        caller: calls
        for caller, calls in callers.items()
        if caller[0].startswith(_LOWERED_MODULES)
        and caller != ("repro.codegen.interp", "reference_graph_values")
    }
    assert offenders == {}


# ----------------------------------------------------------------------
# malformed programs
# ----------------------------------------------------------------------
def _faults(program):
    yield "duplicate", [row + [program[0][0]] if j == len(program) - 1 else row
                        for j, row in enumerate(program)]
    yield "negative", [[op._replace(iteration=-1) if (j, k) == (0, 1) else op
                        for k, op in enumerate(row)]
                       for j, row in enumerate(program)]
    yield "unknown", [[op._replace(node="ghost") if (j, k) == (0, 1) else op
                       for k, op in enumerate(row)]
                      for j, row in enumerate(program)]
    yield "empty", []


@pytest.mark.parametrize("fault", ["duplicate", "negative", "unknown", "empty"])
def test_malformed_programs_raise_todays_errors(fault):
    w = fig7()
    program = dict(_faults(schedule_doacross(w.graph, w.machine).program(4)))[
        fault
    ]
    with pytest.raises((GraphError, ScheduleValidationError)) as want:
        _ref_validate_program(w.graph, program)
    for check in (
        lambda: simulate(w.graph, program, w.machine.comm),
        lambda: lower(w.graph, program),
        lambda: evaluate(w.graph, program, w.machine.comm),
    ):
        with pytest.raises(type(want.value)) as got:
            check()
        assert str(got.value) == str(want.value)
    # a parallel program is lowered when it is built; it reports the
    # same faults as a CodegenError, a duplicate in its own words
    with pytest.raises(CodegenError) as got:
        ParallelProgram(w.graph, tuple(map(tuple, program)), 4)
    if fault == "duplicate":
        assert str(got.value) == f"{program[0][0]} assigned to two processors"
    else:
        assert str(got.value) == str(want.value)


@given(programs(), st.data())
def test_one_fault_anywhere_raises_todays_error(subject, data):
    graph, program = subject
    ops = [op for row in program for op in row]
    if not ops:
        return
    j = data.draw(st.integers(0, len(program) - 1))
    op = data.draw(st.sampled_from(ops))
    program[j].insert(
        data.draw(st.integers(0, len(program[j]))),
        data.draw(st.sampled_from([op, op._replace(iteration=-1 - op.iteration)])),
    )
    with pytest.raises(ScheduleValidationError) as want:
        _ref_validate_program(graph, program)
    with pytest.raises(ScheduleValidationError) as got:
        lower(graph, program)
    assert str(got.value) == str(want.value)


# ----------------------------------------------------------------------
# flat patterns equal reference-built ones
# ----------------------------------------------------------------------
def _subjects():
    corpus = load_corpus(Path(__file__).parent / "corpus")
    for name in sorted(corpus):
        case = corpus[name]
        try:
            cyclic = classify(case.graph).cyclic
        except Exception:
            continue
        if cyclic:
            yield name, case.graph.subgraph(cyclic), case.machine()
    for seed in range(1, 101):
        w = random_cyclic_loop(seed, k=3, mm=1, processors=8)
        ctx = compile_graph(w.graph, w.machine, cache=None)
        for (g, cls), result in zip(
            ctx.get("components"), ctx.get("cyclic_results")
        ):
            if result is not None:
                yield f"table1-{seed}", g.subgraph(cls.cyclic), w.machine


def test_flat_patterns_equal_reference_built_ones():
    compared = 0
    for name, graph, machine in _subjects():
        try:
            ref = schedule_cyclic_reference(graph, machine).pattern
        except (PatternNotFoundError, SchedulingError):
            continue
        flat = schedule_cyclic(graph, machine, memo=False).pattern
        assert flat == ref and hash(flat) == hash(ref), name
        assert (flat.prelude, flat.kernel) == (ref.prelude, ref.kernel), name
        # the memo's canonical copy and its remap back are the same value
        canon = flat.with_nodes({n: str(i) for i, n in enumerate(flat.names)})
        back = canon.with_nodes({str(i): n for i, n in enumerate(flat.names)})
        assert back == ref and hash(back) == hash(ref), name
        compared += 1
    assert compared >= 234


def test_pattern_constructor_sorts_and_numbers_by_first_placement():
    a0, b0 = Op("A", 0), Op("B", 0)
    kernel = (Placement(1, 0, b0, 1), Placement(0, 1, a0, 1))
    p = Pattern(0, 2, 1, (), kernel, 2)
    assert p.names == ("A", "B") and p.nodes == (0, 1)
    assert p.kernel == tuple(sorted(kernel))
    renamed = p.with_nodes({"A": "X", "B": "Y"})
    assert (renamed.starts, renamed.procs) == (p.starts, p.procs)
    assert [q.op.node for q in renamed.kernel] == ["X", "Y"]


# ----------------------------------------------------------------------
# pickling, and the earlier layouts
# ----------------------------------------------------------------------
def _table1_artifacts():
    w = random_cyclic_loop(9, k=3, mm=3, processors=8)
    ctx = compile_graph(
        w.graph, w.machine, iterations=20, use_runtime=True, cache=None
    )
    pattern = next(r for r in ctx.get("cyclic_results") if r).pattern
    lowered = lower(w.graph, ctx.scheduled.instances(20))
    return pattern, lowered, ctx.evaluation


def test_flat_artifacts_pickle_round_trip():
    pattern, lowered, evaluation = _table1_artifacts()
    pattern.kernel  # a built placement cache travels along harmlessly
    got = pickle.loads(pickle.dumps(pattern))
    assert got == pattern and got.prelude == pattern.prelude
    got = pickle.loads(pickle.dumps(lowered))
    assert isinstance(got, LoweredProgram)
    for field in LoweredProgram.__slots__:
        assert getattr(got, field) == getattr(lowered, field), field
    got = pickle.loads(pickle.dumps(evaluation))
    assert got.makespan() == evaluation.makespan()
    assert _placements(got) == _placements(evaluation)
    assert got.order() == evaluation.order()


@dataclass(frozen=True, order=True)
class _OldPlacement:
    start: int
    proc: int
    op: Op
    latency: int


@dataclass(frozen=True, eq=False)
class _OldLoweredProgram:
    rows: tuple
    proc_of: dict
    bounds: list
    latencies: list
    edges: tuple
    preds: list


def test_entries_pickled_in_the_earlier_layouts_are_misses(
    tmp_path, monkeypatch
):
    _pattern, lowered, _evaluation = _table1_artifacts()
    old = {
        "placement": _OldPlacement(0, 0, Op("A", 0), 1),
        "lowered": _OldLoweredProgram(
            tuple(lowered.rows),
            {op: j for j, row in enumerate(lowered.rows) for op in row},
            lowered.bounds,
            lowered.latencies, lowered.edges, lowered.preds,
        ),
    }
    # pickled under the names the classes had, as the earlier code did
    _OldPlacement.__qualname__ = _OldPlacement.__name__ = "Placement"
    _OldPlacement.__module__ = schedule_mod.__name__
    _OldLoweredProgram.__qualname__ = "LoweredProgram"
    _OldLoweredProgram.__name__ = "LoweredProgram"
    _OldLoweredProgram.__module__ = fastpath_mod.__name__
    disk = DiskCache(str(tmp_path))
    with monkeypatch.context() as m:
        m.setattr(schedule_mod, "Placement", _OldPlacement)
        m.setattr(fastpath_mod, "LoweredProgram", _OldLoweredProgram)
        for key, artifact in old.items():
            disk.put(key, CacheEntry({key: artifact}, {}, ()))
    for key in old:
        assert disk.get(key) is None, key
    assert sorted(q.split(".")[0] for q in disk.quarantined()) == sorted(old)


# ----------------------------------------------------------------------
# the construction guard
# ----------------------------------------------------------------------
def test_warm_table1_measurement_builds_no_ops_or_placements(monkeypatch):
    measure(random_cyclic_loop(9, mm=1), 50)
    built = Counter()
    for cls in (Op, Placement):
        real = cls.__new__

        def counting(c, *args, _real=real, **kwargs):
            built[c.__name__] += 1
            return _real(c, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", counting)
    m = measure(random_cyclic_loop(9, mm=3), 50)
    assert m.ours > 0 and m.doacross > 0
    assert built == Counter()
