"""The unified compilation pipeline: caching, validation, equivalence.

Covers the PR-1 acceptance criteria: warm re-compilation of the same
workload executes zero scheduler passes; mis-ordered pipelines fail
with a pointed error; PassManager results are identical to the legacy
``schedule_loop`` / ``schedule_any_loop`` / ``evaluate`` wrappers on
the paper workloads and random loops.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalized import NormalizedSchedule, schedule_any_loop
from repro.core.scheduler import schedule_loop
from repro.errors import PipelineError, SchedulingError
from repro.graph.ddg import DependenceGraph
from repro.machine.comm import FluctuatingComm, UniformComm
from repro.machine.model import Machine
from repro.pipeline import (
    ArtifactCache,
    BuildDDGPass,
    ClassifyPass,
    CompilationContext,
    CyclicSchedPass,
    EvaluatePass,
    FlowIOSchedPass,
    IfConvertPass,
    ParsePass,
    PassManager,
    build_pipeline,
    collect_reports,
    compile_graph,
    compile_source,
    default_cache,
    scheduling_passes,
)
from repro.sim.fastpath import evaluate
from repro.workloads import fig1, fig7, livermore18, random_cyclic_loop, suite

from tests.conftest import loop_graphs

SOURCE = """
FOR I = 1 TO N
  A: A[I] = A[I-1] + E[I-1]
  B: B[I] = A[I]
  C: C[I] = B[I]
  D: D[I] = D[I-1] + C[I-1]
  E: E[I] = D[I]
ENDFOR
"""


def _chain(g: DependenceGraph | None = None) -> DependenceGraph:
    g = DependenceGraph("chain")
    g.add_node("A")
    g.add_node("B")
    g.add_edge("A", "B")
    g.add_edge("B", "A", distance=1)
    return g


class TestCaching:
    def test_warm_run_executes_zero_scheduler_passes(self):
        """Acceptance: warm recompilation is pure cache restoration,
        for every workload of the suite."""
        for name, w in suite().items():
            cache = ArtifactCache()
            args = (w.graph, w.machine)
            cold = compile_graph(*args, iterations=40, cache=cache)
            warm = compile_graph(*args, iterations=40, cache=cache)
            assert len(cold.report.executed) == len(cold.report.passes), name
            assert len(warm.report.executed) == 0, name
            assert warm.report.cache_hits == len(warm.report.passes), name
            # restored artifacts are the real thing, not placeholders
            assert (
                warm.scheduled.program(20) == cold.scheduled.program(20)
            ), name
            assert (
                warm.evaluation.makespan() == cold.evaluation.makespan()
            ), name

    def test_warm_suite_compiles_faster_than_cold(self):
        """Best of 3 wall times per side, so that one descheduled run
        cannot decide it; every warm compile is all cache hits."""

        def compile_suite(cache):
            t0 = time.perf_counter()
            reports = [
                compile_graph(
                    w.graph, w.machine, iterations=60, cache=cache
                ).report
                for w in suite().values()
            ]
            return time.perf_counter() - t0, reports

        cold, warm = [], []
        for _ in range(3):
            # the scheduler's memo lives in the process-wide cache
            default_cache().clear()
            cache = ArtifactCache()
            cold.append(compile_suite(cache)[0])
            seconds, reports = compile_suite(cache)
            warm.append(seconds)
            for report in reports:
                assert report.cache_hits == len(report.passes), report
        assert min(warm) < min(cold), (cold, warm)

    def test_cache_keys_are_content_addressed_not_identity(self):
        """A structurally equal graph built independently still hits."""
        cache = ArtifactCache()
        compile_graph(_chain(), Machine(2), cache=cache)
        ctx = compile_graph(_chain(), Machine(2), cache=cache)
        assert ctx.report.cache_hits == len(ctx.report.passes)

    def test_different_machine_misses(self):
        cache = ArtifactCache()
        compile_graph(_chain(), Machine(2), cache=cache)
        ctx = compile_graph(_chain(), Machine(4), cache=cache)
        assert any(not r.cache_hit for r in ctx.report.passes)

    def test_different_pass_config_misses(self):
        cache = ArtifactCache()
        compile_graph(_chain(), Machine(2), cache=cache)
        ctx = compile_graph(
            _chain(), Machine(2), tie_break="first", cache=cache
        )
        assert not ctx.report.record("CyclicSchedPass").cache_hit

    def test_runtime_fluctuation_shares_scheduling(self):
        """mm only affects run time, so the scheduler result is reused."""
        g = _chain()
        cache = ArtifactCache()
        m1 = Machine(4, FluctuatingComm(k=3, mm=1))
        m5 = Machine(4, FluctuatingComm(k=3, mm=5))
        compile_graph(g, m1, iterations=30, use_runtime=True, cache=cache)
        ctx = compile_graph(
            g, m5, iterations=30, use_runtime=True, cache=cache
        )
        assert ctx.report.record("ClassifyPass").cache_hit
        assert ctx.report.record("CyclicSchedPass").cache_hit
        # the evaluation sees the fluctuation and must re-run
        assert not ctx.report.record("EvaluatePass").cache_hit

    def test_cache_disabled_with_none(self):
        ctx1 = compile_graph(_chain(), Machine(2), cache=None)
        ctx2 = compile_graph(_chain(), Machine(2), cache=None)
        assert ctx1.report.cache_hits == 0
        assert ctx2.report.cache_hits == 0

    def test_lru_eviction_bounds_entries(self):
        cache = ArtifactCache(maxsize=4)
        for procs in range(2, 8):
            compile_graph(_chain(), Machine(procs), cache=cache)
        assert len(cache) <= 4

    def test_diagnostics_replayed_on_cache_hit(self):
        w = fig1()  # folding is skipped on fig1 -> warning diagnostic
        cache = ArtifactCache()
        cold = compile_graph(w.graph, w.machine, cache=cache)
        warm = compile_graph(w.graph, w.machine, cache=cache)
        assert any(
            "folding skipped" in d.message for d in cold.warnings()
        )
        assert [str(d) for d in warm.warnings()] == [
            str(d) for d in cold.warnings()
        ]


class TestOrderingValidation:
    def test_classify_before_build_ddg_raises(self):
        ctx = CompilationContext.from_source(SOURCE, Machine(4))
        pm = PassManager(
            [ParsePass(), IfConvertPass(), ClassifyPass(), BuildDDGPass()],
            cache=None,
        )
        with pytest.raises(PipelineError) as exc:
            pm.run(ctx)
        assert "ClassifyPass" in str(exc.value)
        assert "'graph'" in str(exc.value)
        assert "BuildDDGPass" in str(exc.value)

    def test_scheduling_passes_need_a_graph(self):
        ctx = CompilationContext.from_source(SOURCE, Machine(4))
        with pytest.raises(PipelineError):
            PassManager(scheduling_passes(), cache=None).run(ctx)

    def test_validation_happens_before_any_pass_runs(self):
        ctx = CompilationContext.from_source(SOURCE, Machine(4))
        pm = PassManager([ParsePass(), FlowIOSchedPass()], cache=None)
        with pytest.raises(PipelineError):
            pm.run(ctx)
        assert "loop" not in ctx.artifacts  # ParsePass never executed

    def test_empty_pipeline_rejected(self):
        with pytest.raises(PipelineError):
            PassManager([])

    def test_missing_artifact_get_is_pointed(self):
        ctx = CompilationContext.from_graph(_chain(), Machine(2))
        with pytest.raises(PipelineError) as exc:
            ctx.scheduled
        assert "FlowIOSchedPass" in str(exc.value)

    def test_distance_check_still_raises_scheduling_error(self):
        g = DependenceGraph("far")
        g.add_node("A")
        g.add_edge("A", "A", distance=3)
        with pytest.raises(SchedulingError):
            compile_graph(g, Machine(2))


class TestLegacyEquivalence:
    """PassManager results == the thin wrappers, everywhere."""

    @pytest.mark.parametrize("name", sorted(suite()))
    def test_paper_workloads(self, name):
        w = suite()[name]
        legacy = schedule_loop(w.graph, w.machine)
        ctx = compile_graph(w.graph, w.machine, iterations=40, cache=None)
        s = ctx.scheduled
        assert type(s) is type(legacy)
        assert s.program(40) == legacy.program(40)
        assert (
            s.steady_cycles_per_iteration()
            == legacy.steady_cycles_per_iteration()
        )
        assert s.total_processors == legacy.total_processors
        direct = evaluate(w.graph, legacy.program(40), w.machine.comm)
        assert ctx.evaluation.makespan() == direct.makespan()

    @pytest.mark.parametrize("seed", [1, 7, 13, 19, 25])
    def test_table1_random_loops(self, seed):
        w = random_cyclic_loop(seed, k=3, mm=3)
        legacy = schedule_loop(w.graph, w.machine)
        ctx = compile_graph(w.graph, w.machine, cache=None)
        assert ctx.scheduled.program(30) == legacy.program(30)

    @given(loop_graphs(max_nodes=6), st.integers(2, 6))
    @settings(max_examples=25)
    def test_property_random_graphs(self, g, procs):
        m = Machine(procs, UniformComm(2))
        legacy = schedule_loop(g, m)
        ctx = compile_graph(g, m, cache=None)
        assert ctx.scheduled.program(9) == legacy.program(9)
        # and through the shared default cache (wrapper path) too
        again = schedule_loop(g, m)
        assert again.program(9) == legacy.program(9)

    def test_normalized_equivalence(self):
        g = DependenceGraph("far")
        g.add_node("A", latency=2)
        g.add_node("B")
        g.add_edge("A", "B")
        g.add_edge("B", "A", distance=3)
        m = Machine(4, UniformComm(2))
        legacy = schedule_any_loop(g, m)
        ctx = compile_graph(g, m, normalize=True, cache=None)
        s = ctx.scheduled
        assert isinstance(s, NormalizedSchedule)
        assert s.factor == legacy.factor
        assert s.program(20) == legacy.program(20)

    def test_compile_source_end_to_end(self):
        from repro.lang import build_graph, if_convert, parse_loop

        m = Machine(4, UniformComm(1))
        ctx = compile_source(SOURCE, m, name="fig7", iterations=30)
        legacy = schedule_loop(build_graph(if_convert(parse_loop(SOURCE))), m)
        assert ctx.scheduled.program(30) == legacy.program(30)


class TestDiagnosticsAndReports:
    def test_folding_applied_reported_as_info(self):
        w = livermore18()
        ctx = compile_graph(w.graph, w.machine, cache=None)
        assert any(
            "folded into" in d.message
            for d in ctx.diagnostics
            if d.severity == "info"
        )

    def test_doall_diagnostic(self):
        g = DependenceGraph("doall")
        g.add_node("A")
        g.add_node("B")
        g.add_edge("A", "B")
        ctx = compile_graph(g, Machine(3), cache=None)
        assert any("DOALL" in d.message for d in ctx.diagnostics)
        assert ctx.scheduled.is_doall

    def test_report_counters_and_timings(self):
        w = fig7()
        ctx = compile_graph(w.graph, w.machine, iterations=25, cache=None)
        rep = ctx.report
        assert [r.name for r in rep.passes] == [
            "ClassifyPass",
            "CyclicSchedPass",
            "FlowIOSchedPass",
            "EvaluatePass",
        ]
        assert all(r.seconds >= 0 for r in rep.passes)
        assert rep.record("ClassifyPass").counters["cyclic"] == 5
        assert rep.record("EvaluatePass").counters["iterations"] == 25
        d = rep.to_dict()
        assert len(d["passes"]) == 4
        assert "total_seconds" in d

    def test_collect_reports_sees_wrapper_compilations(self):
        w = fig7()
        with collect_reports() as reports:
            schedule_loop(w.graph, w.machine)
        assert len(reports) == 1
        assert reports[0].passes[-1].name == "FlowIOSchedPass"

    def test_default_cache_serves_wrapper(self):
        """schedule_loop goes through the process-wide cache."""
        g = _chain()
        m = Machine(2)
        schedule_loop(g, m)  # populate
        with collect_reports() as reports:
            schedule_loop(g, m)
        assert reports[0].cache_hits == len(reports[0].passes)
        assert default_cache().hits > 0

    def test_default_cache_isolated_between_tests(self):
        """The autouse conftest fixture wipes the singleton per test:
        a cold run after ``clear()`` reports all misses, no hits and no
        leftover entries from whatever test ran before."""
        cache = default_cache()
        assert len(cache) == 0
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}
        with collect_reports() as reports:
            schedule_loop(_chain(), Machine(2))
        assert reports[0].cache_hits == 0  # genuinely cold
        assert cache.hits == 0
        assert cache.misses > 0

    def test_clear_makes_next_run_cold(self):
        g = _chain()
        m = Machine(2)
        schedule_loop(g, m)
        default_cache().clear()
        with collect_reports() as reports:
            schedule_loop(g, m)
        assert reports[0].cache_hits == 0
        assert default_cache().hits == 0


class TestStagesCLI:
    def test_stages_prints_per_pass_timings(self, capsys):
        from repro.cli import main

        assert main(["stages", "fig7", "--iterations", "30"]) == 0
        out = capsys.readouterr().out
        assert "CyclicSchedPass" in out and "EvaluatePass" in out
        assert "warm run executed 0 of" in out

    def test_stages_unknown_workload_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["stages", "no-such-workload"])

    def test_every_subcommand_supports_json(self, tmp_path, capsys):
        """Satellite: --json works beyond the _export-routed commands."""
        import json

        from repro.cli import main

        for cmd in ("fig1", "fig3", "stages"):
            path = tmp_path / f"{cmd}.json"
            assert main([cmd, "--iterations", "30", "--json", str(path)]) == 0
            data = json.loads(path.read_text())
            assert "pipeline_report" in data
            assert data["pipeline_report"]["pipelines"] >= 1
        capsys.readouterr()

    def test_json_list_payload_wrapped_with_report(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "perfect.json"
        assert main(["perfect", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert isinstance(data["rows"], list)
        assert "pipeline_report" in data
        capsys.readouterr()
