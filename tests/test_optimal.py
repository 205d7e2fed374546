"""Modulo-scheduling oracle."""

import pytest
from hypothesis import given, settings

from repro.baselines.optimal import (
    OPTIMAL_NODE_LIMIT,
    ModuloSchedule,
    best_modulo_rate,
    optimal_modulo_schedule,
    rate_lower_bound,
)
from repro.core.scheduler import schedule_loop
from repro.errors import SchedulingError
from repro.graph.ddg import DependenceGraph
from repro.machine.comm import UniformComm, ZeroComm
from repro.machine.model import Machine

from tests.conftest import chain_graph, connected_cyclic_graphs


class TestModuloSchedule:
    def test_ring_is_serial_and_certified(self):
        g = chain_graph(3, latency=2)
        m = Machine(2, UniformComm(2))
        s = optimal_modulo_schedule(g, m)
        assert s.period == 6
        assert s.certified_optimal(m)

    def test_self_loop(self):
        g = DependenceGraph()
        g.add_node("A", 3)
        g.add_edge("A", "A", distance=1)
        m = Machine(2, UniformComm(1))
        s = optimal_modulo_schedule(g, m)
        assert s.period == 3 and s.certified_optimal(m)

    def test_parallel_work_splits(self):
        # two independent self-recurrences of latency 2: P = 2 on 2 procs
        g = DependenceGraph()
        for n in ("A", "B"):
            g.add_node(n, 2)
            g.add_edge(n, n, distance=1)
        m = Machine(2, UniformComm(1))
        s = optimal_modulo_schedule(g, m)
        assert s.period == 2
        assert s.processors["A"] != s.processors["B"]

    def test_communication_charged_across_processors(self):
        # A -> B -> A(d1): splitting costs 2 x comm; serial P = 2 wins
        g = DependenceGraph()
        g.add_node("A", 1)
        g.add_node("B", 1)
        g.add_edge("A", "B")
        g.add_edge("B", "A", distance=1)
        m = Machine(2, UniformComm(3))
        s = optimal_modulo_schedule(g, m)
        assert s.period == 2
        assert s.processors["A"] == s.processors["B"]

    def test_fig7_single_initiation_rate(self, fig7_workload):
        m = Machine(2, UniformComm(2))
        s = optimal_modulo_schedule(fig7_workload.graph, m)
        # single-initiation modulo scheduling cannot express the d=2
        # pattern: its best P is 5, worse than the greedy pattern's 3
        assert s.period == 5

    def test_fig7_unrolled_matches_greedy(self, fig7_workload):
        m = Machine(2, UniformComm(2))
        rate = best_modulo_rate(fig7_workload.graph, m, max_unroll=2)
        greedy = schedule_loop(fig7_workload.graph, m)
        assert rate == pytest.approx(3.0)
        assert greedy.steady_cycles_per_iteration() == pytest.approx(rate)
        assert rate_lower_bound(fig7_workload.graph, m) == 2.5

    def test_node_limit(self, livermore_workload):
        with pytest.raises(SchedulingError, match="limit"):
            optimal_modulo_schedule(
                livermore_workload.graph, livermore_workload.machine
            )

    def test_distance_gate(self):
        g = DependenceGraph()
        g.add_node("A")
        g.add_edge("A", "A", distance=2)
        with pytest.raises(SchedulingError, match="normalize"):
            optimal_modulo_schedule(g, Machine(2))

    def test_verify_catches_violations(self):
        g = chain_graph(2)
        m = Machine(1, ZeroComm())
        bad = ModuloSchedule(g, 2, {"a0": 0, "a1": 0}, {"a0": 0, "a1": 0})
        with pytest.raises(SchedulingError, match="overlaps"):
            bad.verify(m)
        bad2 = ModuloSchedule(g, 2, {"a0": 1, "a1": 0}, {"a0": 0, "a1": 0})
        with pytest.raises(SchedulingError, match="violated"):
            bad2.verify(m)


class TestBracket:
    @given(connected_cyclic_graphs(max_nodes=4))
    @settings(max_examples=20)
    def test_modulo_brackets_lower_bound(self, g):
        m = Machine(3, UniformComm(1))
        s = optimal_modulo_schedule(g, m)
        assert s.period >= rate_lower_bound(g, m) - 1e-9
        assert s.period <= g.total_latency()

    @given(connected_cyclic_graphs(max_nodes=4))
    @settings(max_examples=15)
    def test_greedy_vs_modulo_reference(self, g):
        """The greedy pattern rate stays within the modulo bracket's
        sensible range: never better than the certified lower bound."""
        m = Machine(3, UniformComm(1))
        greedy = schedule_loop(g, m)
        assert (
            greedy.steady_cycles_per_iteration()
            >= rate_lower_bound(g, m) - 1e-9
        )
