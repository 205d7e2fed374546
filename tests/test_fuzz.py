"""Fuzz harness: generators, oracles, minimizer, campaign.

The load-bearing properties: generation is a pure function of
``(pattern, seed)``, the campaign report is bit-identical however it
is executed, the minimizer converges to a repro that still fails the
same predicate, and a bounded smoke sweep over the real
compile→simulate path finds zero oracle violations.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.fuzz.campaign import (
    DEFAULT_CHUNK,
    FuzzReport,
    case_seed,
    fuzz_cells,
    run_fuzz,
    run_fuzz_shard,
)
from repro.fuzz.generators import (
    PATTERN_NAMES,
    FuzzCase,
    WeightedSampler,
    case_rng,
    generate_case,
)
from repro.fuzz.minimize import minimize_case
from repro.fuzz.oracles import (
    ORACLE_NAMES,
    compile_case,
    failure_predicate,
    run_oracles,
)

SMOKE_LOOPS = 500


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
class TestGenerators:
    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_same_seed_same_case(self, pattern):
        a = generate_case(pattern, 7)
        b = generate_case(pattern, 7)
        assert a.canonical_json() == b.canonical_json()
        assert a.case_id == b.case_id

    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_different_seeds_differ(self, pattern):
        ids = {generate_case(pattern, s).case_id for s in range(6)}
        assert len(ids) > 1

    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_generated_graphs_are_valid(self, pattern):
        for seed in range(4):
            case = generate_case(pattern, seed)
            case.graph.validate()
            assert case.processors >= 1

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ReproError, match="unknown fuzz pattern"):
            generate_case("nope", 0)

    def test_case_rng_is_stable_per_key(self):
        assert case_rng("chain", 3).random() == case_rng("chain", 3).random()
        assert case_rng("chain", 3).random() != case_rng("mesh", 3).random()

    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_dict_round_trip(self, pattern):
        case = generate_case(pattern, 11)
        again = FuzzCase.from_dict(case.to_dict())
        assert again.canonical_json() == case.canonical_json()

    def test_singleton_is_degenerate(self):
        sizes = {len(generate_case("singleton", s).graph) for s in range(8)}
        assert sizes == {1}

    def test_source_patterns_carry_source(self):
        for pattern in ("multi_statement", "conditional"):
            case = generate_case(pattern, 2)
            assert case.source is not None
            assert case.loop() is not None
        assert generate_case("conditional", 2).if_converted


class TestWeightedSampler:
    def test_boost_decay_floor_cap(self):
        s = WeightedSampler(boost=2.0, decay=0.5, floor=0.4, cap=3.0)
        p = s.patterns[0]
        s.observe(p, True)
        assert s.weights[p] == 2.0
        s.observe(p, True)
        assert s.weights[p] == 3.0  # capped
        for _ in range(10):
            s.observe(p, False)
        assert s.weights[p] == 0.4  # floored, never starved

    def test_pick_is_deterministic(self):
        a, b = WeightedSampler(), WeightedSampler()
        ra, rb = case_rng("sampler", 5), case_rng("sampler", 5)
        seq_a = [a.pick(ra) for _ in range(50)]
        seq_b = [b.pick(rb) for _ in range(50)]
        assert seq_a == seq_b
        assert set(seq_a) > {seq_a[0]}  # not a constant stream


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
class TestOracles:
    def test_clean_case_passes_everything(self):
        outcome = run_oracles(generate_case("chain", 0))
        assert outcome.ok and outcome.signature

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ReproError, match="unknown oracle"):
            run_oracles(generate_case("chain", 0), oracles=("nope",))
        with pytest.raises(ReproError, match="unknown oracle"):
            failure_predicate("nope")

    def test_compile_crash_is_reported_not_raised(self):
        case = generate_case("chain", 0)
        broken = replace(case, processors=0)
        outcome = run_oracles(broken)
        assert not outcome.ok
        assert [f.oracle for f in outcome.failures] == ["compile"]
        assert "error=ReproError" in outcome.signature

    def test_compile_failure_predicate_reproduces(self):
        broken = replace(generate_case("chain", 0), processors=0)
        pred = failure_predicate("compile")
        assert pred(broken)
        assert not pred(generate_case("chain", 0))


    def test_recompile_identity_messages_keep_their_text(self, monkeypatch):
        import repro.fuzz.oracles as oracles

        def text(scheduled):
            # the schedule as the oracle has always worded it
            body = ";".join(
                ",".join(f"{op.node}@{op.iteration}" for op in row)
                for row in scheduled.program(5)
            )
            return (
                f"procs={scheduled.total_processors}"
                f"|rate={scheduled.steady_cycles_per_iteration()!r}|{body}"
            )

        case = generate_case("chain", 0)
        mine = compile_case(case)
        other = compile_case(generate_case("chain", 1))
        assert text(mine) != text(other)

        # the campaign's own compile disagrees with the cached ones
        monkeypatch.setattr(oracles, "compile_case", lambda c: other)
        [failure] = run_oracles(
            case, oracles=("recompile_identity",)
        ).failures
        assert failure.message == (
            "uncached compile disagrees with cached compile "
            f"({text(other)[:80]}... vs {text(mine)[:80]}...)"
        )
        monkeypatch.undo()

        # the warm recompile disagrees with the cold one
        real, calls = oracles._canonical_schedule, []

        def warm_is_other(scheduled):
            calls.append(scheduled)
            return real(other if len(calls) == 2 else scheduled)

        monkeypatch.setattr(oracles, "_canonical_schedule", warm_is_other)
        [failure] = run_oracles(
            case, oracles=("recompile_identity",)
        ).failures
        assert failure.message == (
            "warm recompile produced a different schedule "
            f"(cold {text(mine)[:80]}... vs warm {text(other)[:80]}...)"
        )

    def test_engine_agreement_message_keeps_its_text(self, monkeypatch):
        import repro.sim.engine as engine
        from repro.sim.fastpath import evaluate

        real, seen = engine.simulate, {}

        def skewed(graph, program, comm, **kw):
            trace = real(graph, program, comm, **kw)
            # delay the first op of a row that has a second one: the
            # makespan stays, one start disagrees
            rows = trace.schedule.start_rows()
            j = next(j for j, row in enumerate(rows) if len(row) > 1)
            rows[j][0] += 1
            seen.update(args=(graph, program, comm), trace=trace)
            return trace

        monkeypatch.setattr(engine, "simulate", skewed)
        [failure] = run_oracles(
            generate_case("chain", 0), oracles=("engine_agreement",)
        ).failures
        fast = evaluate(*seen["args"], use_runtime=True)
        slow = seen["trace"].schedule
        # the first disagreeing op in the fastpath's op order
        op = next(op for op in fast.ops() if fast.start(op) != slow.start(op))
        assert failure.message == (
            f"start time of {op} disagrees: fastpath "
            f"{fast.start(op)}, engine {slow.start(op)}"
        )


# ----------------------------------------------------------------------
# minimizer
# ----------------------------------------------------------------------
class TestMinimizer:
    def test_converges_to_canonical_self_dep(self):
        case = generate_case("self_dep", 3)

        def has_self_dep(c):
            return any(
                e.src == e.dst and e.distance >= 1 for e in c.graph.edges
            )

        small = minimize_case(case, has_self_dep)
        assert has_self_dep(small)  # still fails the same predicate
        assert len(small.graph) == 1
        assert len(small.graph.edges) == 1
        assert small.graph.node_names() == ["n0"]

    def test_source_cases_shrink_through_the_front_end(self):
        case = generate_case("multi_statement", 1)
        n_chunks = len(
            [ln for ln in case.source.splitlines()[1:-1]]
        )
        assert n_chunks >= 2

        def nonempty(c):
            return len(c.graph) >= 1

        small = minimize_case(case, nonempty)
        # the failure survives without any source, so it gets dropped
        assert small.source is None
        assert len(small.graph) == 1

    def test_passing_case_is_returned_unchanged(self):
        case = generate_case("mesh", 4)
        assert minimize_case(case, lambda c: False) is case

    def test_budget_caps_predicate_calls(self):
        calls = [0]

        def pred(c):
            calls[0] += 1
            return True

        case = generate_case("mesh", 4)
        minimize_case(case, pred, max_checks=5)
        assert calls[0] <= 5

    def test_predicate_exceptions_count_as_not_failing(self):
        case = generate_case("chain", 5)

        def brittle(c):
            if len(c.graph.edges) < len(case.graph.edges):
                raise RuntimeError("boom")
            return True

        small = minimize_case(case, brittle)
        assert small.canonical_json() == case.canonical_json()


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
class TestCampaign:
    def test_cell_fanout_boundaries(self):
        cells = fuzz_cells(10, seed=3, chunk=4)
        spans = [(c.mapping["start"], c.mapping["count"]) for c in cells]
        assert spans == [(0, 4), (4, 4), (8, 2)]
        assert all(c.kind == "fuzz" for c in cells)
        assert all(c.mapping["seed"] == 3 for c in cells)
        assert fuzz_cells(DEFAULT_CHUNK, 0)[0].mapping["count"] == DEFAULT_CHUNK

    def test_cell_fanout_validation(self):
        with pytest.raises(ReproError):
            fuzz_cells(0)
        with pytest.raises(ReproError):
            fuzz_cells(10, chunk=0)

    def test_shard_payload_is_deterministic(self):
        params = {"seed": 0, "start": 0, "count": 12}
        a = run_fuzz_shard(params)
        b = run_fuzz_shard(params)
        a.pop("latency"), b.pop("latency")
        assert a == b
        assert a["oracle_checks"] == 12 * (len(ORACLE_NAMES) - 1)
        assert sum(v["cases"] for v in a["patterns"].values()) == 12

    def test_fuzz_cell_kind_is_registered(self):
        from repro.runner.cells import Cell, execute_cell

        payload = execute_cell(
            Cell.make("fuzz", seed=1, start=0, count=3)
        )
        assert payload["count"] == 3 and payload["signatures"]

    def test_report_invariant_under_workers_and_chunking(self):
        serial = run_fuzz(40, seed=2, chunk=10)
        pooled = run_fuzz(40, seed=2, chunk=10, workers=2)
        assert serial.to_dict() == pooled.to_dict()

    def test_shards_partition_the_campaign(self):
        whole = run_fuzz(40, seed=2, chunk=10)
        half0 = run_fuzz(40, seed=2, chunk=10, shard="0/2")
        half1 = run_fuzz(40, seed=2, chunk=10, shard="1/2")
        assert half0.executed_cells + half1.executed_cells == 4
        merged = set(half0.signatures) | set(half1.signatures)
        assert merged == set(whole.signatures)

    def test_report_payload_shape(self):
        report = run_fuzz(20, seed=5, chunk=20)
        d = report.to_dict()
        assert d["oracles"] == list(ORACLE_NAMES)
        assert set(d["patterns"]) == set(PATTERN_NAMES)
        assert d["coverage"]["behaviors"] == len(d["coverage"]["signatures"])
        json.dumps(d)  # plain data, serializable
        stats = report.stats()
        assert stats["wall_seconds"] >= 0
        assert "latency" not in d and "wall_seconds" not in d
        assert report.format().startswith("fuzz campaign:")

    def test_smoke_sweep_finds_zero_failures(self):
        """ISSUE acceptance: bounded smoke sweep, zero oracle failures,
        every generation pattern exercised."""
        report = run_fuzz(SMOKE_LOOPS, seed=0)
        assert report.ok, report.format()
        assert report.failed_cells == ()
        assert all(
            report.patterns[p]["cases"] > 0 for p in PATTERN_NAMES
        ), report.patterns
        assert len(report.signatures) > 50


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_fuzz_json_is_bit_identical_across_runs(self, tmp_path, capsys):
        from repro.cli import main

        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            rc = main(
                ["fuzz", "--loops", "30", "--seed", "3", "--json", str(out)]
            )
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["failure_count"] == 0
        assert payload["loops"] == 30 and payload["seed"] == 3
        assert "fuzz campaign:" in capsys.readouterr().out
