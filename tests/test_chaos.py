"""Deterministic fault injection: plans, fabric, engine semantics,
recovery, and the chaos matrix driver.

The load-bearing property is differential: with an empty plan the whole
chaos stack must be bit-identical to the reliable engine and to the
closed-form fastpath.  Everything else — loss, duplication, stalls,
fail-stop, recovery — is pinned by deterministic replay: the same
(workload, plan) pair must produce the identical fault sequence and
outcome on every run.
"""

import json
import time

import pytest

from repro.chaos import (
    CacheFaults,
    CommFabric,
    DelayJitter,
    FailStop,
    FaultEvent,
    FaultPlan,
    FaultyFabric,
    MessageDuplication,
    MessageLoss,
    ProcessorStall,
    SCENARIOS,
    run_chaos_matrix,
    run_resilient,
    scenario_plan,
)
from repro.core.scheduler import schedule_loop
from repro.errors import (
    DeadlockError,
    FaultInjectionError,
    GraphError,
    ProcessorFailureError,
    ScheduleValidationError,
    SimulationError,
    StallError,
)
from repro.report import format_chaos_table
from repro.sim.engine import simulate
from repro.sim.fastpath import evaluate, lower
from repro.workloads import fig7, livermore18


ITER = 20


def msgs(trace):
    return sorted(
        trace.messages,
        key=lambda m: (m.sent, m.arrived, str(m.src), str(m.dst)),
    )


@pytest.fixture(scope="module")
def scheduled():
    w = fig7()
    return w, schedule_loop(w.graph, w.machine)


def run_plain(w, iterations=ITER, **kw):
    s = schedule_loop(w.graph, w.machine)
    return simulate(w.graph, s.program(iterations), w.machine.comm, **kw)


# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_uniform_is_deterministic_and_in_range(self):
        a = FaultPlan(7)
        b = FaultPlan(7)
        draws = [a.uniform("x", i) for i in range(50)]
        assert draws == [b.uniform("x", i) for i in range(50)]
        assert all(0.0 <= u < 1.0 for u in draws)
        # different seeds and keys decorrelate
        assert FaultPlan(8).uniform("x", 0) != a.uniform("x", 0)
        assert a.uniform("y", 0) != a.uniform("x", 0)

    def test_randint_bounds(self):
        p = FaultPlan(3)
        vals = {p.randint(2, 5, "k", i) for i in range(200)}
        assert vals == {2, 3, 4, 5}
        with pytest.raises(FaultInjectionError, match="range empty"):
            p.randint(5, 2, "k")

    def test_typed_views_and_null(self):
        p = FaultPlan(
            1,
            (
                DelayJitter(),
                MessageLoss(),
                MessageDuplication(),
                ProcessorStall(0, 5, 2),
                FailStop(1, 9),
                CacheFaults(),
            ),
        )
        assert len(p.jitters) == 1
        assert len(p.losses) == 1
        assert len(p.duplications) == 1
        assert len(p.stalls) == 1
        assert len(p.fail_stops) == 1
        assert len(p.cache_faults) == 1
        assert not p.is_null
        assert FaultPlan(1).is_null
        assert "FailStop" in p.describe()
        assert "no faults" in FaultPlan(1).describe()

    def test_crash_cycle_is_earliest(self):
        p = FaultPlan(0, (FailStop(2, 30), FailStop(2, 10), FailStop(3, 5)))
        assert p.crash_cycle(2) == 10
        assert p.crash_cycle(3) == 5
        assert p.crash_cycle(0) is None

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: DelayJitter(prob=1.5),
            lambda: DelayJitter(max_extra=-1),
            lambda: MessageLoss(prob=-0.1),
            lambda: MessageLoss(max_retransmits=-1),
            lambda: MessageLoss(rto=0),
            lambda: MessageDuplication(copies=0),
            lambda: ProcessorStall(-1, 0, 1),
            lambda: ProcessorStall(0, -1, 1),
            lambda: ProcessorStall(0, 0, 0),
            lambda: FailStop(-1, 0),
            lambda: FailStop(0, -1),
            lambda: CacheFaults(prob=2.0),
            lambda: CacheFaults(kinds=()),
            lambda: CacheFaults(kinds=("truncate", "meteor")),
            lambda: FaultPlan(0, ("not a spec",)),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(FaultInjectionError):
            bad()

    def test_event_to_dict(self):
        ev = FaultEvent("msg_lost", 7, 2, "B->A attempt 1/4")
        assert ev.to_dict() == {
            "kind": "msg_lost",
            "time": 7,
            "proc": 2,
            "detail": "B->A attempt 1/4",
        }


# ----------------------------------------------------------------------
class TestFabric:
    def edge(self, w):
        return w.graph.edges[0]

    def test_null_fabric_passes_messages_through(self, scheduled):
        w, _ = scheduled
        f = CommFabric()
        mp = f.plan_message(self.edge(w), None, None, 0, 1, 3, 8)
        assert mp.accepted == 8
        assert mp.deliveries == (8,)
        assert mp.attempts == 1
        assert f.crash_cycle(0) is None
        assert f.stall_until(0, 5) is None
        assert f.events == []

    def test_empty_plan_matches_null_fabric(self, scheduled):
        w, _ = scheduled
        f = FaultyFabric(FaultPlan(5))
        mp = f.plan_message(self.edge(w), "x", "y", 0, 1, 3, 8)
        assert (mp.accepted, mp.deliveries, mp.attempts) == (8, (8,), 1)
        assert f.events == []

    def test_certain_loss_exhausts_retransmits(self, scheduled):
        w, _ = scheduled
        plan = FaultPlan(1, (MessageLoss(prob=1.0, max_retransmits=2, rto=4),))
        f = FaultyFabric(plan)
        mp = f.plan_message(self.edge(w), "x", "y", 0, 1, 10, 13)
        assert mp.accepted is None
        assert mp.deliveries == ()
        assert mp.attempts == 3
        kinds = [e.kind for e in f.events]
        assert kinds.count("msg_lost") == 2
        assert kinds.count("msg_lost_permanent") == 1
        assert kinds.count("msg_retransmit") == 2

    def test_retransmit_arrival_shifts_by_rto(self, scheduled):
        w, _ = scheduled
        # lose exactly the first attempt: find a seed where attempt 0 is
        # lost but attempt 1 survives under prob=0.5
        for seed in range(100):
            plan = FaultPlan(
                seed, (MessageLoss(prob=0.5, max_retransmits=3, rto=4),)
            )
            f = FaultyFabric(plan)
            mp = f.plan_message(self.edge(w), "x", "y", 0, 1, 10, 13)
            if mp.attempts == 2 and mp.accepted is not None:
                assert mp.accepted == 10 + 4 + 3  # sent + rto + cost
                return
        pytest.fail("no seed produced a single retransmit")

    def test_duplication_delivers_copies_later(self, scheduled):
        w, _ = scheduled
        plan = FaultPlan(2, (MessageDuplication(prob=1.0, copies=2),))
        f = FaultyFabric(plan)
        mp = f.plan_message(self.edge(w), "x", "y", 0, 1, 0, 5)
        assert mp.accepted == 5
        assert len(mp.deliveries) == 3
        assert mp.deliveries[0] == 5
        assert all(d > 5 for d in mp.deliveries[1:])
        assert [e.kind for e in f.events] == ["msg_dup"]

    def test_jitter_bounded(self, scheduled):
        w, _ = scheduled
        plan = FaultPlan(3, (DelayJitter(max_extra=3, prob=1.0),))
        f = FaultyFabric(plan)
        for i in range(30):
            mp = f.plan_message(self.edge(w), f"x{i}", "y", 0, 1, 0, 5)
            assert 5 <= mp.accepted <= 8

    def test_stall_windows_chain(self):
        plan = FaultPlan(
            0, (ProcessorStall(1, 10, 5), ProcessorStall(1, 14, 6))
        )
        f = FaultyFabric(plan)
        assert f.stall_until(1, 12) == 20  # 12 -> 15 -> chained to 20
        assert f.stall_until(1, 20) is None
        assert f.stall_until(0, 12) is None
        assert [e.kind for e in f.events] == ["stall", "stall"]
        # windows are only reported once
        f.stall_until(1, 11)
        assert len(f.events) == 2


# ----------------------------------------------------------------------
class TestValidateProgram:
    def test_duplicate_op_named(self, scheduled):
        w, s = scheduled
        prog = [list(r) for r in s.program(4)]
        dup = prog[0][0]
        prog[-1].append(dup)
        with pytest.raises(ScheduleValidationError, match="twice"):
            lower(w.graph, prog)
        with pytest.raises(SimulationError, match=str(dup.node)):
            lower(w.graph, prog)

    def test_negative_iteration_named(self, scheduled):
        w, s = scheduled
        prog = [list(r) for r in s.program(4)]
        bad = prog[0][0]._replace(iteration=-1)
        prog[0][0] = bad
        with pytest.raises(
            ScheduleValidationError, match="negative iteration"
        ):
            lower(w.graph, prog)

    def test_empty_program_rejected(self, scheduled):
        w, _ = scheduled
        with pytest.raises(ScheduleValidationError, match="processor"):
            lower(w.graph, [])

    def test_unknown_node_is_graph_error(self, scheduled):
        w, s = scheduled
        prog = [list(r) for r in s.program(4)]
        prog[0][0] = prog[0][0]._replace(node="ghost")
        with pytest.raises(GraphError):
            lower(w.graph, prog)

    def test_engine_and_fastpath_validate_identically(self, scheduled):
        w, s = scheduled
        prog = [list(r) for r in s.program(4)]
        prog[-1].append(prog[0][0])
        for run in (simulate, evaluate):
            with pytest.raises(ScheduleValidationError):
                run(w.graph, prog, w.machine.comm, use_runtime=True)


# ----------------------------------------------------------------------
class TestEngineDifferential:
    """Empty plan == null fabric == no fabric == fastpath, bit for bit."""

    def test_zero_fault_chaos_is_bit_identical(self, scheduled):
        w, s = scheduled
        prog = s.program(ITER)
        plain = simulate(w.graph, prog, w.machine.comm, use_runtime=True)
        chaos = simulate(
            w.graph,
            prog,
            w.machine.comm,
            use_runtime=True,
            fabric=FaultyFabric(FaultPlan(123)),
        )
        fast = evaluate(w.graph, prog, w.machine.comm, use_runtime=True)
        assert (
            plain.schedule.makespan()
            == chaos.schedule.makespan()
            == fast.makespan()
        )
        for op in fast.ops():
            assert plain.schedule.start(op) == chaos.schedule.start(op)
            assert chaos.schedule.start(op) == fast.start(op)
        assert msgs(plain) == msgs(chaos)
        assert chaos.faults == [] and chaos.fault_count() == 0

    def test_null_fabric_with_link_features(self, scheduled):
        w, s = scheduled
        prog = s.program(ITER)
        for kw in (
            {"link_capacity": 1},
            {"channel_fifo": True},
            {"link_capacity": 2, "channel_fifo": True},
        ):
            plain = simulate(
                w.graph, prog, w.machine.comm, use_runtime=True, **kw
            )
            chaos = simulate(
                w.graph,
                prog,
                w.machine.comm,
                use_runtime=True,
                fabric=CommFabric(),
                **kw,
            )
            assert plain.schedule.makespan() == chaos.schedule.makespan()
            assert msgs(plain) == msgs(chaos)

    def test_empty_fabric_under_3x_no_fabric(self):
        """The seam lives in the engine's hot loop: an empty-plan
        fabric (every chaos branch live, zero faults drawn) costs a
        small constant factor over ``fabric=None``.  Best of 5 runs
        each; the bound catches an accidentally quadratic seam."""
        w = livermore18()
        prog = schedule_loop(w.graph, w.machine).program(200)

        def best_seconds(make_fabric):
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                simulate(
                    w.graph,
                    prog,
                    w.machine.comm,
                    use_runtime=True,
                    fabric=make_fabric(),
                )
                best = min(best, time.perf_counter() - t0)
            return best

        base = best_seconds(lambda: None)
        chaos = best_seconds(lambda: FaultyFabric(FaultPlan(0)))
        assert chaos / base < 3.0, (
            f"empty fabric {chaos / base:.2f}x the no-fabric engine "
            f"({chaos * 1e3:.1f}ms vs {base * 1e3:.1f}ms)"
        )


class TestEngineFaults:
    def test_fail_stop_halts_processor(self, scheduled):
        w, s = scheduled
        prog = s.program(ITER)
        base = evaluate(w.graph, prog, w.machine.comm, use_runtime=True)
        victim = base.used_processors()[0]
        crash = base.makespan() // 2
        fabric = FaultyFabric(FaultPlan(0, (FailStop(victim, crash),)))
        with pytest.raises(ProcessorFailureError) as exc:
            simulate(
                w.graph, prog, w.machine.comm, use_runtime=True, fabric=fabric
            )
        err = exc.value
        assert err.failed == {victim: crash}
        assert err.trace is not None
        assert err.executed  # partial progress before the crash
        # nothing executed on the victim finishes after the crash cycle
        for p in err.trace.schedule.ops_on(victim):
            assert p.end <= crash
        assert "fail-stopped" in str(err)
        assert any(e.kind == "fail_stop" for e in fabric.events)

    def test_certain_loss_stalls_with_partial_trace(self, scheduled):
        w, s = scheduled
        prog = s.program(8)
        fabric = FaultyFabric(
            FaultPlan(0, (MessageLoss(prob=1.0, max_retransmits=1, rto=2),))
        )
        with pytest.raises(StallError) as exc:
            simulate(
                w.graph, prog, w.machine.comm, use_runtime=True, fabric=fabric
            )
        err = exc.value
        assert err.lost_messages
        assert err.trace is not None
        assert "permanently lost" in str(err)

    def test_watchdog_trips_as_stall(self, scheduled):
        w, s = scheduled
        prog = s.program(ITER)
        with pytest.raises(StallError, match="watchdog horizon"):
            simulate(
                w.graph,
                prog,
                w.machine.comm,
                use_runtime=True,
                fabric=FaultyFabric(FaultPlan(0)),
                watchdog=1,
            )

    def test_duplicates_are_dropped_idempotently(self, scheduled):
        w, s = scheduled
        prog = s.program(ITER)
        base = evaluate(w.graph, prog, w.machine.comm, use_runtime=True)
        fabric = FaultyFabric(
            FaultPlan(4, (MessageDuplication(prob=1.0, copies=2),))
        )
        trace = simulate(
            w.graph, prog, w.machine.comm, use_runtime=True, fabric=fabric
        )
        # duplicates arrive later and are dropped: timing is unchanged
        assert trace.schedule.makespan() == base.makespan()
        kinds = {e.kind for e in trace.faults}
        assert "msg_dup" in kinds and "dup_dropped" in kinds

    def test_stall_window_delays_but_completes(self, scheduled):
        w, s = scheduled
        prog = s.program(ITER)
        base = evaluate(w.graph, prog, w.machine.comm, use_runtime=True)
        victim = base.used_processors()[0]
        fabric = FaultyFabric(
            FaultPlan(0, (ProcessorStall(victim, 5, 10),))
        )
        trace = simulate(
            w.graph, prog, w.machine.comm, use_runtime=True, fabric=fabric
        )
        assert trace.schedule.makespan() >= base.makespan()
        assert any(e.kind == "stall" for e in trace.faults)
        # nothing *starts* on the victim inside the window
        for p in trace.schedule.ops_on(victim):
            assert not (5 <= p.start < 15)

    def test_lossy_run_replays_identically(self, scheduled):
        w, s = scheduled
        prog = s.program(12)
        plan = FaultPlan(
            9,
            (
                DelayJitter(max_extra=2, prob=0.5),
                MessageLoss(prob=0.2, max_retransmits=4, rto=3),
                MessageDuplication(prob=0.2, copies=1),
            ),
        )

        def run():
            fabric = FaultyFabric(plan)
            try:
                t = simulate(
                    w.graph,
                    prog,
                    w.machine.comm,
                    use_runtime=True,
                    fabric=fabric,
                )
                return (t.schedule.makespan(), tuple(t.faults))
            except SimulationError as err:
                return (str(err), tuple(fabric.events))

        assert run() == run()


# ----------------------------------------------------------------------
class TestRecovery:
    def test_null_plan_is_ok_with_no_slowdown(self, scheduled):
        _, s = scheduled
        r = run_resilient(s, ITER, FaultPlan(1))
        assert r.outcome == "ok" and r.completed
        assert r.makespan == r.fault_free_makespan
        assert r.slowdown == 1.0
        assert r.fault_events == []

    def test_fail_stop_recovers_on_survivors(self, scheduled):
        w, s = scheduled
        base = evaluate(
            w.graph, s.program(ITER), w.machine.comm, use_runtime=True
        )
        victim = base.used_processors()[0]
        plan = FaultPlan(0, (FailStop(victim, base.makespan() // 2),))
        r = run_resilient(s, ITER, plan)
        assert r.outcome == "recovered" and r.completed
        assert victim in r.failed_processors
        assert victim not in r.survivors
        assert r.survivors
        assert r.degraded_mode in ("remap", "sequential_fallback")
        # degraded throughput is never worse than sequential re-execution
        assert r.degraded_cpi <= r.sequential_cpi
        assert r.makespan > r.fault_free_makespan
        assert r.restart_at >= base.makespan() // 2
        # boundary is a completed pattern boundary
        d = s.pattern.iter_shift if s.pattern is not None else 1
        assert 0 <= r.restart_boundary < ITER
        assert r.restart_boundary % d == 0

    def test_crash_at_cycle_zero_replays_everything(self, scheduled):
        w, s = scheduled
        base = evaluate(
            w.graph, s.program(ITER), w.machine.comm, use_runtime=True
        )
        victim = base.used_processors()[0]
        r = run_resilient(s, ITER, FaultPlan(0, (FailStop(victim, 0),)))
        assert r.outcome == "recovered"
        assert r.restart_boundary == 0
        assert r.degraded_cpi <= r.sequential_cpi

    def test_permanent_loss_reports_stalled(self, scheduled):
        _, s = scheduled
        plan = FaultPlan(0, (MessageLoss(prob=1.0, max_retransmits=0),))
        r = run_resilient(s, ITER, plan)
        assert r.outcome == "stalled" and not r.completed
        assert r.makespan is None and r.error
        assert any(
            e.kind == "msg_lost_permanent" for e in r.fault_events
        )

    def test_result_payload_is_json_ready(self, scheduled):
        w, s = scheduled
        base = evaluate(
            w.graph, s.program(ITER), w.machine.comm, use_runtime=True
        )
        victim = base.used_processors()[0]
        plan = FaultPlan(0, (FailStop(victim, base.makespan() // 2),))
        d = run_resilient(s, ITER, plan).to_dict()
        json.dumps(d)
        assert d["outcome"] == "recovered"
        assert d["fault_counts"].get("fail_stop", 0) >= 1

    def test_recovery_is_deterministic(self, scheduled):
        w, s = scheduled
        base = evaluate(
            w.graph, s.program(ITER), w.machine.comm, use_runtime=True
        )
        victim = base.used_processors()[0]
        plan = FaultPlan(7, (FailStop(victim, base.makespan() // 2),))
        assert (
            run_resilient(s, ITER, plan).to_dict()
            == run_resilient(s, ITER, plan).to_dict()
        )


# ----------------------------------------------------------------------
class TestDriver:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            scenario_plan("gremlins", 1, makespan=100, used_processors=[0])

    def test_victim_rotates_with_seed(self):
        p0 = scenario_plan(
            "failstop", 0, makespan=100, used_processors=[3, 5]
        )
        p1 = scenario_plan(
            "failstop", 1, makespan=100, used_processors=[3, 5]
        )
        assert p0.fail_stops[0].proc == 3
        assert p1.fail_stops[0].proc == 5

    @pytest.fixture(scope="class")
    def matrix(self):
        return run_chaos_matrix(fig7(), [1, 2], iterations=16)

    def test_matrix_shape(self, matrix):
        assert len(matrix["rows"]) == len(SCENARIOS) * 2
        assert set(matrix["summary"]) == set(SCENARIOS)
        for s in matrix["summary"].values():
            assert 0.0 <= s["survival"] <= 1.0
        json.dumps(matrix)

    def test_none_scenario_is_faultless(self, matrix):
        rows = [r for r in matrix["rows"] if r["scenario"] == "none"]
        for r in rows:
            assert r["outcome"] == "ok"
            assert r["slowdown"] == 1.0
            assert r["fault_counts"] == {}

    def test_failstop_rows_complete_degraded(self, matrix):
        rows = [r for r in matrix["rows"] if r["scenario"] == "failstop"]
        for r in rows:
            assert r["outcome"] == "recovered"
            assert r["degraded_cpi"] <= r["sequential_cpi"]

    def test_matrix_is_deterministic(self, matrix):
        again = run_chaos_matrix(fig7(), [1, 2], iterations=16)
        assert again == matrix

    def test_table_renders(self, matrix):
        text = format_chaos_table(matrix)
        for scenario in SCENARIOS:
            assert scenario in text
        assert "survival" in text
        if any(r["outcome"] == "recovered" for r in matrix["rows"]):
            assert "degraded-mode rate" in text
