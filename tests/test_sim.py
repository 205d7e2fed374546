"""Simulated multiprocessor: fastpath evaluator and event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import Op
from repro.errors import DeadlockError, SimulationError
from repro.graph.ddg import DependenceGraph
from repro.machine.comm import FluctuatingComm, UniformComm, ZeroComm
from repro.sim.engine import simulate
from repro.sim.fastpath import evaluate

from tests.conftest import chain_graph, loop_graphs


def ab_graph():
    g = DependenceGraph()
    g.add_node("A", 1)
    g.add_node("B", 2)
    g.add_edge("A", "B")
    return g


class TestFastpath:
    def test_same_proc_chain(self):
        g = ab_graph()
        s = evaluate(g, [[Op("A", 0), Op("B", 0)]], UniformComm(2))
        assert s.start(Op("A", 0)) == 0
        assert s.start(Op("B", 0)) == 1
        assert s.makespan() == 3

    def test_cross_proc_adds_comm(self):
        g = ab_graph()
        s = evaluate(g, [[Op("A", 0)], [Op("B", 0)]], UniformComm(2))
        assert s.start(Op("B", 0)) == 3

    def test_runtime_costs(self):
        g = ab_graph()
        comm = FluctuatingComm(k=2, mm=3, mode="worst")
        s = evaluate(
            g, [[Op("A", 0)], [Op("B", 0)]], comm, use_runtime=True
        )
        assert s.start(Op("B", 0)) == 1 + 4  # k + mm - 1

    def test_absent_pred_available_at_zero(self):
        g = ab_graph()
        s = evaluate(g, [[Op("B", 3)]], UniformComm(2))
        assert s.start(Op("B", 3)) == 0

    def test_processor_serialization(self):
        g = DependenceGraph()
        g.add_node("A", 2)
        g.add_node("B", 2)
        s = evaluate(g, [[Op("A", 0), Op("B", 0)]], ZeroComm())
        assert s.start(Op("B", 0)) == 2

    def test_duplicate_op_rejected(self):
        g = ab_graph()
        with pytest.raises(SimulationError, match="twice"):
            evaluate(g, [[Op("A", 0)], [Op("A", 0)]], ZeroComm())

    def test_negative_iteration_rejected(self):
        g = ab_graph()
        with pytest.raises(SimulationError):
            evaluate(g, [[Op("A", -1)]], ZeroComm())

    def test_deadlock_detected(self):
        # B0 before A0 on one processor, but B0 needs A0
        g = ab_graph()
        with pytest.raises(DeadlockError):
            evaluate(g, [[Op("B", 0), Op("A", 0)]], ZeroComm())

    def test_cross_processor_deadlock(self):
        # P0: [B0, C0], P1: [D0(needs C0), A0(feeds B0)] -> cycle
        g = DependenceGraph()
        for n in "ABCD":
            g.add_node(n)
        g.add_edge("A", "B")
        g.add_edge("C", "D")
        with pytest.raises(DeadlockError):
            evaluate(
                g,
                [[Op("B", 0), Op("C", 0)], [Op("D", 0), Op("A", 0)]],
                ZeroComm(),
            )

    def test_empty_program(self):
        g = ab_graph()
        assert evaluate(g, [[], []], ZeroComm()).makespan() == 0

    def test_needs_a_processor(self):
        with pytest.raises(SimulationError):
            evaluate(ab_graph(), [], ZeroComm())


class TestEngine:
    def test_messages_recorded(self):
        g = ab_graph()
        tr = simulate(g, [[Op("A", 0)], [Op("B", 0)]], UniformComm(2))
        assert tr.message_count() == 1
        (msg,) = tr.messages
        assert msg.src == Op("A", 0) and msg.dst == Op("B", 0)
        assert msg.sent == 1 and msg.arrived == 3 and msg.cost == 2

    def test_no_message_same_proc(self):
        g = ab_graph()
        tr = simulate(g, [[Op("A", 0), Op("B", 0)]], UniformComm(2))
        assert tr.message_count() == 0

    def test_deadlock_detected(self):
        g = ab_graph()
        with pytest.raises(DeadlockError):
            simulate(g, [[Op("B", 0), Op("A", 0)]], ZeroComm())

    def test_deadlock_diagnoses_missing_local_predecessor(self):
        # B0 is stuck behind its own unexecuted predecessor A0
        g = ab_graph()
        with pytest.raises(DeadlockError) as exc:
            simulate(g, [[Op("B", 0), Op("A", 0)]], ZeroComm())
        msg = str(exc.value)
        assert "P0 head B[0]" in msg
        assert "local predecessor" in msg and "A[0]" in msg

    def test_deadlock_diagnoses_missing_messages(self):
        # P0: [B0, C0], P1: [D0, A0] — B0 awaits A0's message, D0
        # awaits C0's; both counts must read 0/1 arrived.
        g = DependenceGraph()
        for n in "ABCD":
            g.add_node(n)
        g.add_edge("A", "B")
        g.add_edge("C", "D")
        with pytest.raises(DeadlockError) as exc:
            simulate(
                g,
                [[Op("B", 0), Op("C", 0)], [Op("D", 0), Op("A", 0)]],
                ZeroComm(),
            )
        msg = str(exc.value)
        assert "P0 head B[0]" in msg and "P1 head D[0]" in msg
        assert msg.count("0/1 expected message(s) arrived") == 2

    def test_total_comm_cycles(self):
        g = chain_graph(3)
        order = [[Op(f"a{i}", it) for it in range(3)] for i in range(3)]
        tr = simulate(g, order, UniformComm(2))
        assert tr.total_comm_cycles() == 2 * tr.message_count()


class TestCrossCheck:
    """The two implementations must agree cycle for cycle."""

    def _program_for(self, g, procs, draw_int):
        rows = [[] for _ in range(procs)]
        for i in range(4):
            for n in g.node_names():
                rows[draw_int(n, i) % procs].append(Op(n, i))
        # per-proc order: iteration, then canonical index (legal when
        # intra edges go forward in canonical order, as loop_graphs do)
        for row in rows:
            row.sort(key=lambda op: (op.iteration, g.node_index(op.node)))
        return rows

    @given(loop_graphs(max_nodes=5), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_engine_equals_fastpath(self, g, salt):
        def draw_int(n, i):
            return hash((salt, n, i))

        order = self._program_for(g, 3, draw_int)
        comm = FluctuatingComm(k=2, mm=3, mode="uniform", seed=salt)
        fast = evaluate(g, order, comm, use_runtime=True)
        slow = simulate(g, order, comm, use_runtime=True)
        assert fast.makespan() == slow.schedule.makespan()
        for op in fast.ops():
            assert fast.start(op) == slow.schedule.start(op), op

    @given(loop_graphs(max_nodes=5))
    @settings(max_examples=20)
    def test_compile_costs_agree_too(self, g):
        order = self._program_for(g, 2, lambda n, i: hash((n, i)))
        comm = UniformComm(1)
        fast = evaluate(g, order, comm)
        slow = simulate(g, order, comm, use_runtime=False)
        for op in fast.ops():
            assert fast.start(op) == slow.schedule.start(op)

    def test_engines_agree_on_benchmark_program(self):
        from repro.core.scheduler import schedule_loop
        from repro.workloads import livermore18

        w = livermore18()
        prog = schedule_loop(w.graph, w.machine).program(200)
        fast = evaluate(w.graph, prog, w.machine.comm)
        slow = simulate(w.graph, prog, w.machine.comm, use_runtime=False)
        assert fast.makespan() == slow.schedule.makespan()
        assert len(fast) == len(slow.schedule) == sum(map(len, prog))
        for op in fast.ops():
            assert fast.start(op) == slow.schedule.start(op), op
