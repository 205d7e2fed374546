"""End-to-end property tests over random loop graphs.

These tie the whole system together: for arbitrary generated loops the
scheduler must produce valid, complete, dataflow-correct programs whose
two simulator implementations agree, whose pattern expansion is
self-consistent across iteration counts, and whose measured times obey
the theoretical bounds.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import Op
from repro.baselines.doacross import schedule_doacross
from repro.codegen.interp import verify_graph_dataflow
from repro.codegen.partition import ParallelProgram
from repro.core.classify import classify
from repro.core.scheduler import schedule_loop
from repro.graph.algorithms import critical_recurrence_ratio
from repro.machine.comm import FluctuatingComm, UniformComm
from repro.machine.model import Machine
from repro.metrics import sequential_time
from repro.sim.engine import simulate
from repro.sim.fastpath import evaluate, evaluate_trace

from tests.conftest import connected_cyclic_graphs, fuzz_cases, loop_graphs


class TestSchedulerPipeline:
    @given(loop_graphs(max_nodes=6), st.integers(2, 4))
    @settings(max_examples=30)
    def test_program_complete_and_dataflow_correct(self, g, procs):
        m = Machine(procs, UniformComm(2))
        s = schedule_loop(g, m)
        n = 7
        prog = s.program(n)
        ops = sorted(op for row in prog for op in row)
        assert ops == sorted(g.instances(n))
        verify_graph_dataflow(
            g, ParallelProgram(g, tuple(tuple(r) for r in prog), n)
        )

    @given(loop_graphs(max_nodes=6))
    @settings(max_examples=30)
    def test_engines_agree_on_scheduled_programs(self, g):
        m = Machine(3, FluctuatingComm(k=2, mm=3, mode="uniform", seed=7))
        s = schedule_loop(g, m)
        prog = s.program(6)
        fast = evaluate(g, prog, m.comm, use_runtime=True)
        slow = simulate(g, prog, m.comm, use_runtime=True)
        assert fast.makespan() == slow.schedule.makespan()
        for op in fast.ops():
            assert fast.start(op) == slow.schedule.start(op)

    @given(loop_graphs(max_nodes=6))
    @settings(max_examples=25)
    def test_engines_agree_segment_by_segment(self, g):
        """Both simulators, viewed through the busy/wait/recv segment
        lens of the tracing subsystem, must tell the identical
        per-processor story — not just agree on the makespan."""
        m = Machine(3, FluctuatingComm(k=2, mm=3, mode="uniform", seed=11))
        s = schedule_loop(g, m)
        prog = s.program(6)
        fast = evaluate_trace(g, prog, m.comm, use_runtime=True)
        slow = simulate(g, prog, m.comm, use_runtime=True)
        segments = fast.segments()
        assert segments == slow.segments()

        # segments tile each used processor's timeline exactly
        makespan = fast.schedule.makespan()
        per_proc: dict[int, list] = {}
        for seg in segments:
            per_proc.setdefault(seg.proc, []).append(seg)
        for ordered in per_proc.values():
            assert ordered[0].start == 0
            assert ordered[-1].end == makespan
            for a, b in zip(ordered, ordered[1:]):
                assert a.end == b.start
        busy = sum(s_.cycles for s_ in segments if s_.kind == "busy")
        assert busy == sum(
            g.latency(op.node) for op in fast.schedule.ops()
        )

    @given(connected_cyclic_graphs(max_nodes=5))
    @settings(max_examples=25)
    def test_pattern_expansion_consistent_across_n(self, g):
        """Expanding to N and to N' > N must agree on the overlap."""
        m = Machine(3, UniformComm(2))
        s = schedule_loop(g, m)
        assert s.pattern is not None
        small = s.pattern.expand(5)
        large = s.pattern.expand(11)
        for p in small.placements():
            q = large.placement(p.op)
            assert (q.start, q.proc) == (p.start, p.proc)

    @given(connected_cyclic_graphs(max_nodes=5))
    @settings(max_examples=25)
    def test_makespan_bounds(self, g):
        """recurrence bound * N <= parallel time; and the steady rate
        never exceeds serial-plus-slack."""
        m = Machine(3, UniformComm(1))
        s = schedule_loop(g, m)
        n = 12
        par = s.compile_schedule(n).makespan()
        assert par >= critical_recurrence_ratio(g) * n - g.total_latency()
        assert par >= n  # at least one cycle per iteration

    @given(connected_cyclic_graphs(max_nodes=5), st.integers(0, 3))
    @settings(max_examples=25)
    def test_runtime_at_least_compile_time(self, g, mm_extra):
        """Fluctuation can only delay execution, never speed it up."""
        base = FluctuatingComm(k=2, mm=1)
        fluct = FluctuatingComm(k=2, mm=1 + mm_extra, mode="worst")
        s = schedule_loop(g, Machine(3, base))
        prog = s.program(8)
        t_compile = evaluate(g, prog, base, use_runtime=True).makespan()
        t_runtime = evaluate(g, prog, fluct, use_runtime=True).makespan()
        assert t_runtime >= t_compile


class TestDoacrossProperties:
    @given(loop_graphs(max_nodes=6), st.integers(1, 4))
    @settings(max_examples=30)
    def test_doacross_program_complete_and_valid(self, g, procs):
        m = Machine(procs, UniformComm(1))
        da = schedule_doacross(g, m)
        n = 6
        sched = da.compile_schedule(n)
        sched.validate(g, m.comm, iterations=n)

    @given(loop_graphs(max_nodes=5))
    @settings(max_examples=25)
    def test_doacross_never_beats_recurrence_bound(self, g):
        m = Machine(4, UniformComm(1))
        da = schedule_doacross(g, m)
        n = 10
        par = da.compile_schedule(n).makespan()
        assert par >= critical_recurrence_ratio(g) * n - g.total_latency()

    @given(loop_graphs(max_nodes=5))
    @settings(max_examples=25)
    def test_ours_never_worse_than_doacross_steady(self, g):
        """Our rate is bounded by DOACROSS's: the pattern scheduler can
        always mimic iteration interleaving, and greedy earliest-start
        dominates it on every workload we generate."""
        m = Machine(4, UniformComm(1))
        ours = schedule_loop(g, m)
        da = schedule_doacross(g, m)
        n = 20
        ours_t = ours.compile_schedule(n).makespan()
        doa_t = da.compile_schedule(n).makespan()
        # allow startup slack; steady behaviour is what's claimed
        assert ours_t <= doa_t + 2 * g.total_latency() + 20


class TestClassificationScheduling:
    @given(loop_graphs(max_nodes=7))
    @settings(max_examples=30)
    def test_doall_loops_scale_perfectly(self, g):
        c = classify(g)
        if not c.is_doall:
            return
        m = Machine(4, UniformComm(2))
        s = schedule_loop(g, m)
        n = 8
        par = s.compile_schedule(n).makespan()
        seq = sequential_time(g, n)
        # work bound over the processors actually provisioned
        assert par * s.total_processors >= seq
        if all(e.distance == 0 for e in g.edges):
            # truly independent iterations: round-robin is perfect
            assert (
                par
                <= math.ceil(n / m.processors) * g.total_latency()
            )


class TestFuzzGeneratedCases:
    """The same properties, ranged over the fuzz generator families.

    ``fuzz_cases()`` draws from :mod:`repro.fuzz.generators` — deep
    chains, dense meshes, self-recurrences, disconnected components,
    extreme/zero comm costs, mini-language bodies and 1-node loops —
    so hypothesis explores the exact pattern space the coverage-guided
    campaign does, and a failing example shrinks to a reproducible
    ``(pattern, seed)`` pair."""

    @given(fuzz_cases())
    @settings(max_examples=25)
    def test_programs_complete_for_fuzz_cases(self, case):
        s = schedule_loop(case.graph, case.machine())
        n = 5
        prog = s.program(n)
        ops = sorted(op for row in prog for op in row)
        assert ops == sorted(case.graph.instances(n))

    @given(fuzz_cases())
    @settings(max_examples=25)
    def test_engines_agree_on_fuzz_cases(self, case):
        g = case.graph
        m = Machine(
            case.processors,
            FluctuatingComm(k=2, mm=3, mode="uniform", seed=5),
        )
        s = schedule_loop(g, m)
        prog = s.program(5)
        fast = evaluate(g, prog, m.comm, use_runtime=True)
        slow = simulate(g, prog, m.comm, use_runtime=True)
        assert fast.makespan() == slow.schedule.makespan()
        for op in fast.ops():
            assert fast.start(op) == slow.schedule.start(op)

    @given(fuzz_cases(max_seed=2000))
    @settings(max_examples=15)
    def test_full_oracle_battery_holds(self, case):
        from repro.fuzz.oracles import run_oracles

        outcome = run_oracles(case)
        assert outcome.ok, [
            f"{f.oracle}: {f.message}" for f in outcome.failures
        ]


class TestDeadlockParity:
    """Both simulators agree on which programs deadlock, and on what a
    deadlocked run did before it hung."""

    @staticmethod
    def _outcome(run, g, prog, comm):
        from repro.errors import DeadlockError

        try:
            run(g, prog, comm, use_runtime=True)
        except DeadlockError as exc:
            return exc
        return None

    @given(loop_graphs(max_nodes=6), st.data())
    @settings(max_examples=40)
    def test_swapped_ops_deadlock_alike(self, g, data):
        s = schedule_loop(g, Machine(3, UniformComm(2)))
        prog = [list(row) for row in s.program(6)]
        rows = [j for j, row in enumerate(prog) if len(row) >= 2]
        if not rows:
            return
        j = data.draw(st.sampled_from(rows))
        a, b = data.draw(
            st.lists(
                st.integers(0, len(prog[j]) - 1),
                min_size=2,
                max_size=2,
                unique=True,
            )
        )
        prog[j][a], prog[j][b] = prog[j][b], prog[j][a]
        for comm in (
            UniformComm(2),
            FluctuatingComm(k=2, mm=3, mode="uniform", seed=13),
        ):
            fast = self._outcome(evaluate, g, prog, comm)
            slow = self._outcome(simulate, g, prog, comm)
            assert (fast is None) == (slow is None)
            if fast is None:
                continue
            fast_run, slow_run = fast.trace, slow.trace
            assert (
                fast_run.schedule.placements()
                == slow_run.schedule.placements()
            )

            def by_pair(messages):
                return sorted(messages, key=lambda m: (m.src, m.dst))

            assert by_pair(fast_run.messages) == by_pair(slow_run.messages)

            # the message names the unexecuted count and the first five
            # stuck heads, in processor order
            ran = set(slow_run.schedule.ops())
            stuck = [
                next(op for op in row if op not in ran)
                for row in prog
                if any(op not in ran for op in row)
            ]
            unexecuted = sum(len(row) for row in prog) - len(ran)
            assert str(fast) == (
                f"program deadlocked with {unexecuted} ops unexecuted; "
                f"stuck heads: {stuck[:5]}"
            )


class TestDeadlockTraceExport:
    """A deadlocked run must still yield an exportable partial trace:
    both simulators attach everything that *did* execute (and every
    message that flew) to the DeadlockError."""

    def _deadlocked_program(self):
        from repro.graph.ddg import DependenceGraph

        g = DependenceGraph("dl")
        g.add_node("A", 1)
        g.add_node("B", 1)
        g.add_node("C", 2)
        g.add_edge("A", "B")
        g.add_edge("C", "B")
        # B is queued ahead of its own local predecessor C: deadlock.
        order = [[Op("A", 0)], [Op("B", 0), Op("C", 0)]]
        return g, order

    @pytest.mark.parametrize("engine", [simulate, evaluate_trace])
    def test_partial_trace_exports_cleanly(self, engine):
        from repro.errors import DeadlockError
        from repro.obs import (
            sim_segment_events,
            to_chrome_trace,
            validate_chrome_trace,
        )

        g, order = self._deadlocked_program()
        comm = UniformComm(2)
        with pytest.raises(DeadlockError) as excinfo:
            engine(g, order, comm, use_runtime=True)
        trace = excinfo.value.trace
        assert trace is not None

        # A executed and its (never-consumed) message to B flew
        segments = trace.segments()
        assert any(
            s.kind == "busy" and s.label == "A[0]" for s in segments
        )
        (msg,) = trace.messages
        assert (msg.src, msg.dst) == (Op("A", 0), Op("B", 0))
        assert msg.arrived == msg.sent + 2

        obj = to_chrome_trace([], extra_events=sim_segment_events(segments))
        assert validate_chrome_trace(obj) == []
        assert obj["traceEvents"]  # the partial run is actually visible

    def test_evaluate_deadlock_message(self):
        from repro.errors import DeadlockError
        from repro.graph.ddg import DependenceGraph

        g = DependenceGraph("dl7")
        g.add_node("A", 1)
        g.add_node("B", 1)
        g.add_edge("A", "B")
        # seven processors, each with B queued ahead of its own A
        order = [[Op("B", i), Op("A", i)] for i in range(7)]
        with pytest.raises(DeadlockError) as excinfo:
            evaluate(g, order, UniformComm(2))
        heads = ", ".join(f"Op(node='B', iteration={i})" for i in range(5))
        assert str(excinfo.value) == (
            f"program deadlocked with 14 ops unexecuted; stuck heads: [{heads}]"
        )
