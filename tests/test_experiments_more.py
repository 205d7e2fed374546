"""Experiment plumbing details not covered by the headline tests."""

import pytest

from repro.experiments import (
    Measurement,
    Table1Result,
    Table1Row,
    measure,
    run_perfect_gap,
)
from repro.workloads import fig7, suite


class TestMeasure:
    def test_doacross_reorder_option(self):
        m = measure(fig7(), iterations=30, doacross_reorder="exhaustive")
        # reordering lowers the delay (7 -> 6) but still no speedup
        assert m.doacross_delay == 6
        assert m.sp_doacross == 0.0

    def test_custom_schedule_kwargs_forwarded(self):
        m = measure(fig7(), iterations=30, tie_break="first")
        assert m.sp_ours == pytest.approx(40.0, abs=0.5)

    def test_measurement_is_frozen(self):
        m = measure(fig7(), iterations=10)
        with pytest.raises(Exception):
            m.ours = 1  # type: ignore[misc]


class TestTable1Result:
    def _mk(self, sp):
        rows = [Table1Row(seed=1, cyclic_nodes=3, sp=sp)]
        return Table1Result(rows=rows, mms=list(sp), iterations=10)

    def test_factor_infinite_when_doacross_zero(self):
        t = self._mk({1: (50.0, 0.0)})
        assert t.factor(1) == float("inf")

    def test_wins_and_losses(self):
        t = self._mk({1: (50.0, 60.0)})
        assert t.losses(1) == 1 and t.wins(1) == 0

    def test_paper_averages_present(self):
        t = self._mk({1: (50.0, 10.0)})
        assert t.paper_averages[1][2] == 2.9


class TestPerfectGap:
    def test_sandwich_rows(self):
        """The §1 framing: recurrence bound <= Perfect Pipelining <= ours
        <= DOACROSS on every application workload."""
        rows = run_perfect_gap()
        names = [r.name for r in rows]
        assert names == ["fig7", "cytron86", "livermore18", "elliptic"]
        for r in rows:
            assert r.recurrence_bound <= r.perfect_rate + 1e-9, r
            assert r.perfect_rate <= r.ours_rate + 1e-9, r
            assert r.ours_rate <= r.doacross_rate + 1e-9, r
            # Perfect Pipelining achieves the recurrence bound exactly on
            # all four paper workloads (their critical recurrences are
            # chains, which greedy ASAP scheduling saturates)
            assert abs(r.perfect_rate - r.recurrence_bound) < 1e-6


class TestSuite:
    def test_all_workloads_enumerate(self):
        s = suite()
        assert set(s) == {
            "fig1",
            "fig3",
            "fig7",
            "cytron86",
            "livermore18",
            "elliptic",
            "adaptive",
        }
        for w in s.values():
            w.graph.validate()

    def test_suite_machines_carry_paper_parameters(self):
        s = suite()
        assert s["fig7"].machine.k == 2
        assert s["fig3"].machine.k == 1
