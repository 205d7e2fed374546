"""Lower once, price per comm model: the split fastpath and its caching.

``repro.sim.fastpath.lower`` flattens a program without reference to
any communication model; ``evaluate`` prices each edge slot (or each
message, when costs vary per iteration) and solves.  The differential
tests pin the split against a frozen copy of the one-step evaluator it
replaced, which priced edges while lowering.  The isolation tests pin
where the lowered programs (and Table 1's generated loops) are kept:
in the cache the caller chose, and nowhere when it chose none.
"""

from __future__ import annotations

from itertools import accumulate, chain
from pathlib import Path

import pytest

from repro._types import Op
from repro.baselines.doacross import DoacrossSchedule, schedule_doacross
from repro.core.schedule import Schedule
from repro.errors import DeadlockError
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generators import PATTERN_NAMES, generate_case
from repro.graph.ddg import DependenceGraph
from repro.machine.comm import FluctuatingComm, UniformComm, ZeroComm
from repro.pipeline import ArtifactCache, compile_graph, default_cache
from repro.runner import execute_cell
from repro.sim import fastpath
from repro.sim.engine import ExecutionTrace, Message, validate_program
from repro.sim.fastpath import evaluate, evaluate_trace, lower
from repro.workloads import fig7, livermore18, random_cyclic_loop

CORPUS = load_corpus(Path(__file__).parent / "corpus")


# ----------------------------------------------------------------------
# the one-step evaluator the split replaced, frozen as the reference
# ----------------------------------------------------------------------
def _ref_messages(graph, sched, proc_of, comm, use_runtime):
    messages = []
    for op, j in proc_of.items():
        for pred, edge in graph.instance_predecessors(op):
            pj = proc_of.get(pred)
            if pj is None or pj == j or pred not in sched:
                continue
            sent = sched.finish(pred)
            cost = (
                comm.runtime_cost(edge, pred)
                if use_runtime
                else comm.compile_cost(edge)
            )
            messages.append(Message(pred, op, pj, j, sent, sent + cost))
    return messages


def _ref_evaluate(graph, order, comm, *, use_runtime=False):
    proc_of = validate_program(graph, order)
    rows = [list(row) for row in order]
    bounds = list(accumulate(map(len, rows), initial=0))
    n = bounds[-1]
    ops = list(chain.from_iterable(rows))
    position = {name: {} for name in graph}
    for k, (node, it) in enumerate(ops):
        position[node][it] = k
    per_message = use_runtime and comm.runtime_cost_varies()
    node_preds = {}
    for name in graph:
        edges = []
        for e in graph.predecessors(name):
            if per_message:
                cost = None
            elif use_runtime:
                cost = comm.runtime_cost(e, Op(e.src, 0))
            else:
                cost = comm.compile_cost(e)
            edges.append((position[e.src], e.distance, e, cost))
        node_preds[name] = edges
    lats = [graph.latency(node) for node, _ in ops]
    preds = []
    k = 0
    for row_lo, row_hi, row in zip(bounds, bounds[1:], rows):
        for node, it in row:
            entry = []
            for where, distance, edge, cost in node_preds[node]:
                pi = where.get(it - distance)
                if pi is None:
                    continue
                if row_lo <= pi < row_hi:
                    if pi < k:
                        continue
                    cost = 0
                elif cost is None:
                    cost = comm.runtime_cost(edge, ops[pi])
                entry.append((pi, cost))
            preds.append(entry)
            k += 1
    starts, ends = [0] * n, [0] * n
    ptr, stops = bounds[:-1], bounds[1:]
    proc_end = [0] * len(rows)
    waiters = [None] * n
    ready = list(range(len(rows)))
    while ready:
        j = ready.pop()
        k, stop, t = ptr[j], stops[j], proc_end[j]
        while k < stop:
            start = t
            for pi, cost in preds[k]:
                if not ends[pi]:
                    break
                start = max(start, ends[pi] + cost)
            else:
                starts[k] = start
                t = ends[k] = start + lats[k]
                ready.extend(waiters[k] or ())
                k += 1
                continue
            waiters[pi] = (waiters[pi] or []) + [j]
            break
        ptr[j], proc_end[j] = k, t
    executed = [b - a for a, b in zip(bounds, ptr)]
    sched = Schedule.from_rows(
        [row[:m] for row, m in zip(rows, executed)],
        [starts[a:b] for a, b in zip(bounds, ptr)],
        [lats[a:b] for a, b in zip(bounds, ptr)],
    )
    if sum(executed) != n:
        stuck = [row[m] for row, m in zip(rows, executed) if m < len(row)]
        err = DeadlockError(
            f"program deadlocked with {n - sum(executed)} ops "
            f"unexecuted; stuck heads: {stuck[:5]}"
        )
        err.trace = ExecutionTrace(
            sched, _ref_messages(graph, sched, proc_of, comm, use_runtime)
        )
        raise err
    return sched


# ----------------------------------------------------------------------
# differential: one lowering, many comm models
# ----------------------------------------------------------------------
def _placements(sched):
    return [(p.op, p.proc, p.start, p.latency) for p in sched.placements()]


def _comms(seed):
    return [
        ZeroComm(),
        UniformComm(2),
        FluctuatingComm(k=2, mm=4, mode="worst", seed=seed),
        # costs drawn per message: the per-message pricing path
        FluctuatingComm(k=2, mm=4, mode="uniform", seed=seed),
    ]


def _subjects():
    for name, case in sorted(CORPUS.items()):
        yield f"corpus/{name}", case.graph, case.machine()
    for pattern in PATTERN_NAMES:
        for seed in range(3):
            case = generate_case(pattern, seed)
            yield f"{pattern}/{seed}", case.graph, case.machine()
    w = random_cyclic_loop(13, k=3, mm=3, processors=8)
    yield "table1/13", w.graph, w.machine


SUBJECTS = list(_subjects())


@pytest.mark.parametrize(
    "graph,machine", [s[1:] for s in SUBJECTS], ids=[s[0] for s in SUBJECTS]
)
def test_lowered_solve_matches_reference(graph, machine):
    ctx = compile_graph(graph, machine, normalize=True, cache=None)
    programs = [
        ctx.scheduled.program(12),
        schedule_doacross(graph, machine).program(12),
    ]
    for program in programs:
        lowered = lower(graph, program)
        for comm in _comms(len(graph)):
            for use_runtime in (False, True):
                want = _placements(
                    _ref_evaluate(
                        graph, program, comm, use_runtime=use_runtime
                    )
                )
                again = evaluate(graph, lowered, comm, use_runtime=use_runtime)
                fresh = evaluate(graph, program, comm, use_runtime=use_runtime)
                assert _placements(again) == want, (comm, use_runtime)
                assert _placements(fresh) == want, (comm, use_runtime)


def test_lowered_program_is_still_the_program():
    # iterating yields the rows of instance indices, which lower to the
    # same program; the ops are decoded on demand
    w = fig7()
    doa = schedule_doacross(w.graph, w.machine)
    program = doa.program(5)
    lowered = lower(w.graph, program)
    assert [list(row) for row in lowered] == doa.instances(5)
    assert lowered.rows == program
    assert lowered.proc_of == validate_program(w.graph, program)
    again = lower(w.graph, lowered)
    assert (again.bounds, again.preds) == (lowered.bounds, lowered.preds)


def _deadlocked():
    """A program whose processors wait on each other's later ops."""
    g = DependenceGraph("dl")
    for n in "ABCD":
        g.add_node(n, 2)
    g.add_edge("A", "B")
    g.add_edge("C", "D")
    g.add_edge("B", "C", distance=1)
    program = [
        [Op("A", 0), Op("B", 1), Op("C", 0)],
        [Op("D", 0), Op("A", 1), Op("B", 0)],
    ]
    return g, program


@pytest.mark.parametrize("use_runtime", [False, True])
@pytest.mark.parametrize("comm", _comms(7), ids=repr)
def test_deadlock_reports_like_the_reference(comm, use_runtime):
    g, program = _deadlocked()
    with pytest.raises(DeadlockError) as want:
        _ref_evaluate(g, program, comm, use_runtime=use_runtime)
    lowered = lower(g, program)
    for order in (program, lowered):
        with pytest.raises(DeadlockError) as got:
            evaluate(g, order, comm, use_runtime=use_runtime)
        assert str(got.value) == str(want.value)
        assert got.value.trace.messages == want.value.trace.messages
        assert _placements(got.value.trace.schedule) == _placements(
            want.value.trace.schedule
        )


def test_evaluate_trace_takes_a_lowered_program():
    w = fig7()
    program = schedule_doacross(w.graph, w.machine).program(8)
    comm = FluctuatingComm(k=2, mm=3, mode="uniform", seed=1)
    plain = evaluate_trace(w.graph, program, comm, use_runtime=True)
    lowered = evaluate_trace(
        w.graph, lower(w.graph, program), comm, use_runtime=True
    )
    assert lowered.messages == plain.messages
    assert _placements(lowered.schedule) == _placements(plain.schedule)


# ----------------------------------------------------------------------
# cache isolation: where lowered programs and generated loops live
# ----------------------------------------------------------------------
@pytest.fixture
def lowerings(monkeypatch):
    """Count every program lowered (read from the fastpath module)."""
    calls = []
    real = fastpath.lower

    def counting(graph, program):
        calls.append(graph.name)
        return real(graph, program)

    monkeypatch.setattr(fastpath, "lower", counting)
    return calls


def _table1_loop(mm):
    # seed 2's makespan grows with mm, so every level is priced anew
    return random_cyclic_loop(2, k=3, mm=mm, processors=8)


class TestLoweringCache:
    def test_no_cache_lowers_on_every_call(self, lowerings):
        w = _table1_loop(3)
        for _ in range(2):
            compile_graph(
                w.graph, w.machine, iterations=20, use_runtime=True, cache=None
            )
        assert len(lowerings) == 2

    def test_fresh_caches_each_lower(self, lowerings):
        w = _table1_loop(3)
        for _ in range(2):
            compile_graph(
                w.graph,
                w.machine,
                iterations=20,
                use_runtime=True,
                cache=ArtifactCache(),
            )
        assert len(lowerings) == 2

    def test_fluctuation_levels_share_one_lowering(self, lowerings):
        cache = ArtifactCache()
        got = []
        for mm in (1, 3, 5):
            w = _table1_loop(mm)
            ctx = compile_graph(
                w.graph,
                w.machine,
                iterations=20,
                use_runtime=True,
                cache=cache,
            )
            got.append(ctx.evaluation.makespan())
            uncached = compile_graph(
                w.graph,
                w.machine,
                iterations=20,
                use_runtime=True,
                cache=None,
            )
            assert _placements(ctx.evaluation) == _placements(
                uncached.evaluation
            )
        # one lowering into the cache, one per uncached compile
        assert len(lowerings) == 1 + 3
        assert got[0] < got[1] < got[2]

    def test_folding_and_trip_count_key_the_lowered_program(self, lowerings):
        # Livermore 18 folds its non-Cyclic ops under 'auto' but not
        # under 'never': same Cyclic schedule, different programs
        w = livermore18()
        cache = ArtifactCache()
        for folding in ("auto", "never"):
            for iterations in (20, 21):
                options = dict(
                    iterations=iterations, use_runtime=True, folding=folding
                )
                got = compile_graph(w.graph, w.machine, cache=cache, **options)
                want = compile_graph(w.graph, w.machine, cache=None, **options)
                assert _placements(got.evaluation) == _placements(
                    want.evaluation
                ), options
        assert len(lowerings) == 4 + 4

    def test_compile_view_pipeline_stores_no_lowered_program(self, lowerings):
        w = _table1_loop(3)
        cache = ArtifactCache()
        ctx = compile_graph(w.graph, w.machine, iterations=20, cache=cache)
        assert len(cache) == len(ctx.report.passes)
        assert len(lowerings) == 1
        runtime = ArtifactCache()
        ctx = compile_graph(
            w.graph, w.machine, iterations=20, use_runtime=True, cache=runtime
        )
        assert len(runtime) == len(ctx.report.passes) + 1

    def test_one_seeds_table1_cells_generate_and_lower_once(
        self, lowerings, monkeypatch
    ):
        import repro.workloads

        from repro.experiments import table1_cells

        generated = []
        real_loop = repro.workloads.random_cyclic_loop

        def counting_loop(seed, **kw):
            generated.append(seed)
            return real_loop(seed, **kw)

        monkeypatch.setattr(
            repro.workloads, "random_cyclic_loop", counting_loop
        )
        doacross = []
        real_program = DoacrossSchedule.instances

        def counting_program(self, iterations, graph=None):
            doacross.append(iterations)
            return real_program(self, iterations, graph)

        monkeypatch.setattr(DoacrossSchedule, "instances", counting_program)

        cells = table1_cells([4], iterations=30)
        assert len(cells) == 3
        values = [execute_cell(cell) for cell in cells]
        assert generated == [4]
        assert doacross == [30]
        assert len(lowerings) == 2  # ours once, DOACROSS once

        # the same cells with nothing cached give the same answers
        default_cache().clear()
        for cell, value in zip(cells, values):
            default_cache().clear()
            assert execute_cell(cell) == value
