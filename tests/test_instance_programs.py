"""Integer schedules from Cyclic-sched to the makespan.

Patterns are kept as integer columns, schedules emit their programs as
rows of instance indices ``it * n + v``, and ``lower`` flattens them
with a position array.  These tests pin that path:

* the lowering against the ``Op``-keyed one it replaced, frozen below
  as a test-only oracle, over random programs on random graphs (live-
  ins, cross-row messages, empty rows, deadlocks), with ``evaluate``
  and ``evaluate_trace`` against the one-step reference evaluator;
* malformed programs raise the same errors with the same messages;
* flat patterns equal (and hash like) the ones built from placements
  the way the frozen reference scheduler builds them;
* patterns, lowered programs and evaluations survive pickling, and
  entries pickled in the earlier layouts are quarantined as misses;
* a warm Table 1 measurement builds no ``Op`` and no ``Placement``.
"""

from __future__ import annotations

import pickle
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.schedule as schedule_mod
import repro.sim.fastpath as fastpath_mod
from repro._types import Op
from repro.baselines.doacross import schedule_doacross
from repro.core.classify import classify
from repro.core.cyclic import schedule_cyclic
from repro.core.cyclic_reference import schedule_cyclic_reference
from repro.core.patterns import Pattern
from repro.core.schedule import Placement
from repro.errors import (
    DeadlockError,
    GraphError,
    PatternNotFoundError,
    ScheduleValidationError,
    SchedulingError,
)
from repro.experiments import measure
from repro.fuzz.corpus import load_corpus
from repro.graph.ddg import DependenceGraph
from repro.pipeline import compile_graph
from repro.pipeline.cache import CacheEntry
from repro.runner.diskcache import DiskCache
from repro.sim.engine import ExecutionTrace, encode_program, validate_program
from repro.sim.fastpath import LoweredProgram, evaluate, evaluate_trace, lower
from repro.workloads import fig7, random_cyclic_loop
from tests.test_lowering import _comms, _placements, _ref_evaluate, _ref_messages


# ----------------------------------------------------------------------
# the Op-keyed validation and lowering the integer path replaced
# ----------------------------------------------------------------------
def _ref_validate_program(graph, order):
    if len(order) < 1:
        raise ScheduleValidationError(
            "need at least one processor (program has no processor rows)"
        )
    proc_of = {}
    for j, ops in enumerate(order):
        for op in ops:
            if op in proc_of:
                raise ScheduleValidationError(
                    f"{op} appears twice in the program "
                    f"(on P{proc_of[op]} and P{j})"
                )
            graph.node(op.node)
            if op.iteration < 0:
                raise ScheduleValidationError(
                    f"negative iteration: {op} on P{j}"
                )
            proc_of[op] = j
    return proc_of


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
    rows, proc_of, *flat = _ref_lower(graph, program)
    for source in (program, encode_program(graph, program)):
        got = lower(graph, source)
        assert [got.bounds, got.latencies, got.edges, got.preds] == flat
        assert got.rows == rows and got.proc_of == proc_of
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
        lambda: validate_program(w.graph, program),
        lambda: lower(w.graph, program),
        lambda: evaluate(w.graph, program, w.machine.comm),
    ):
        with pytest.raises(type(want.value)) as got:
            check()
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
            tuple(lowered.rows), lowered.proc_of, lowered.bounds,
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
