"""Experiment drivers: the paper's headline numbers must reproduce."""

import pytest

from repro.experiments import (
    measure,
    run_comm_sweep,
    run_fig1,
    run_fig3,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig11,
    run_fig12,
    run_table1,
)
from repro.workloads import fig7


class TestWorkedExamples:
    def test_fig1_classification(self):
        _, c = run_fig1()
        assert c.flow_in == ("A", "B", "C", "D", "F")
        assert c.cyclic == ("E", "I", "K", "L")
        assert c.flow_out == ("G", "H", "J")

    def test_fig3_pattern_shift(self):
        w, s = run_fig3()
        assert s.pattern is not None
        # a pattern repeating with a finite index difference exists
        assert s.pattern.iter_shift >= 1
        # all seven nodes recur in it
        assert set(s.pattern.node_names()) == set("ABCDEFG")

    def test_fig7_exact(self):
        m = run_fig7()
        assert m.sp_ours == pytest.approx(40.0, abs=0.2)
        assert m.sp_doacross == 0.0
        assert m.ours_rate == pytest.approx(3.0)

    def test_fig8_reordering_cannot_help(self):
        r = run_fig8()
        assert r.sp_natural == 0.0
        assert r.sp_reordered == 0.0
        assert r.reordered.delay <= r.natural.delay
        # reordering can shave the delay (7 -> 6) but never below the body
        assert r.reordered.delay >= 5

    def test_fig9_cytron(self):
        m = run_fig9()
        assert m.sp_ours == pytest.approx(72.7, abs=1.0)
        assert m.sp_doacross == pytest.approx(31.8, abs=1.0)

    def test_fig11_livermore(self):
        m = run_fig11()
        assert m.sp_ours == pytest.approx(49.4, abs=3.0)
        assert m.sp_doacross == pytest.approx(12.6, abs=5.0)
        assert m.sp_ours > 2.5 * m.sp_doacross

    def test_fig12_elliptic(self):
        m = run_fig12()
        assert m.sp_ours == pytest.approx(30.9, abs=4.0)
        assert m.sp_doacross == 0.0


class TestTable1:
    @pytest.fixture(scope="class")
    def table(self):
        return run_table1(iterations=40)

    def test_shape(self, table):
        assert len(table.rows) == 25
        assert table.mms == [1, 3, 5]

    def test_ours_beats_doacross_almost_always(self, table):
        # paper: 0 losses at mm=1, 1 at mm=3, 2 at mm=5
        for mm in (1, 3, 5):
            assert table.losses(mm) <= 2

    def test_factor_about_three_and_improving(self, table):
        # paper Table 1(b): factors 2.9 / 3.0 / 3.3, improving with mm
        assert 2.0 <= table.factor(1) <= 4.0
        assert table.factor(5) >= table.factor(1)

    def test_averages_in_paper_ballpark(self, table):
        assert table.mean_ours(1) == pytest.approx(47.4, abs=8)
        assert table.mean_doacross(1) == pytest.approx(16.3, abs=6)

    def test_sp_monotone_in_mm_for_ours(self, table):
        assert (
            table.mean_ours(1)
            >= table.mean_ours(3)
            >= table.mean_ours(5)
        )

    def test_sp_never_negative(self, table):
        for row in table.rows:
            for ours, doa in row.sp.values():
                assert ours >= 0.0 and doa >= 0.0


class TestTable1At50:
    """Table 1(a) per loop and Table 1(b)'s averages and factors at 50
    iterations.  Our random loops differ from the authors' (unknown 1990
    RNG); the reproduced claims are the per-loop dominance, the spread
    and the aggregate shape."""

    #: paper Table 1(b): (ours, DOACROSS, factor) at mm = 1/3/5
    PAPER = {1: (47.4, 16.3, 2.9), 3: (39.1, 13.1, 3.0), 5: (30.3, 9.5, 3.3)}

    @pytest.fixture(scope="class")
    def table(self):
        return run_table1(iterations=50)

    def test_table1a_per_loop(self, table):
        assert len(table.rows) == 25
        # per-loop dominance: DOACROSS wins at most the paper's 1-2 loops
        for mm in (1, 3, 5):
            assert table.losses(mm) <= 2
        # the spread covers both easy and hard loops (paper: 6..68 at mm=1)
        sps = [r.sp[1][0] for r in table.rows]
        assert max(sps) > 60.0

    def test_table1b_averages_and_factor(self, table):
        for mm, (po, pd, pf) in self.PAPER.items():
            # aggregate shape: same ballpark as the paper (our schedules
            # cross processors a little less, so they degrade more gently
            # with mm than the authors' — see EXPERIMENTS.md)
            assert table.mean_ours(mm) == pytest.approx(po, abs=12)
            assert table.mean_doacross(mm) == pytest.approx(pd, abs=7)
            assert table.factor(mm) >= 2.0
        # the robustness headline: the factor does not degrade with mm
        assert table.factor(5) >= table.factor(1)
        # and our averages degrade gracefully with mm
        assert table.mean_ours(1) >= table.mean_ours(3) >= table.mean_ours(5)


class TestCommSweep:
    def test_profitable_at_seven_x(self):
        pts = run_comm_sweep(
            seeds=range(1, 8), true_ks=(3, 7), iterations=30
        )
        by_k = {p.true_k: p for p in pts}
        # conclusion's claim: still clearly profitable at 7x node time
        assert by_k[7].sp_ours > 20.0
        assert by_k[7].sp_ours > 2 * by_k[7].sp_doacross

    def test_conclusion_robustness_sweep(self):
        """Schedule with k = 3, execute with worst-case true cost swept
        up to 14 cycles (node latencies are 1..3)."""
        pts = run_comm_sweep(seeds=range(1, 11), iterations=40)
        by_k = {p.true_k: p for p in pts}
        # profitable at ~7x node execution time
        assert by_k[7].sp_ours > 20.0
        # and still beating DOACROSS by a growing factor
        for k in (3, 7, 14):
            assert by_k[k].sp_ours > 2 * by_k[k].sp_doacross
        # graceful degradation: Sp declines slowly as true cost quadruples
        assert by_k[14].sp_ours > 0.5 * by_k[3].sp_ours


class TestMeasure:
    def test_fallback_never_negative(self):
        m = measure(fig7(), iterations=30)
        assert m.sp_ours >= 0.0 and m.sp_doacross >= 0.0

    def test_paper_numbers_attached(self):
        m = measure(fig7(), iterations=10)
        assert m.paper["sp_ours"] == 40.0


class TestMeasureFallback:
    """`fell_back` must be reported, and rate/processors must describe
    the code that actually ran — not the discarded parallel schedule."""

    def _fallback_workload(self):
        # Schedule with a low estimate (k=1) so the scheduler spreads
        # ops across processors, then fluctuate run-time communication
        # so hard that the parallel program is slower than sequential.
        from repro.machine.comm import FluctuatingComm
        from repro.machine.model import Machine
        from repro.workloads import fig7
        from repro.workloads.base import Workload

        base = fig7()
        return Workload(
            name="fallback-stress",
            graph=base.graph,
            machine=Machine(
                processors=4,
                comm=FluctuatingComm(k=1, mm=40, mode="worst", seed=1),
            ),
        )

    def test_fallback_branch_reports_sequential_execution(self):
        m = measure(self._fallback_workload(), iterations=20)
        assert m.fell_back
        assert m.ours == m.sequential  # the fallback won
        assert m.sp_ours == 0.0
        # the *sequential* code ran: one processor, one body/iteration
        assert m.total_processors == 1
        assert m.ours_rate == pytest.approx(5.0)  # fig7 body latency

    def test_parallel_branch_reports_parallel_schedule(self):
        m = measure(fig7(), iterations=30)
        assert not m.fell_back
        assert m.ours < m.sequential
        assert m.ours_rate == pytest.approx(3.0)
        assert m.total_processors > 1

    def test_fell_back_survives_export(self):
        from repro.report import measurement_to_dict

        d = measurement_to_dict(measure(self._fallback_workload(), 20))
        assert d["fell_back"] is True
        assert d["processors"] == 1
