"""Campaign-level tracing properties.

The contract under test: enabling the tracer changes *nothing* about a
campaign's results, and the merged campaign trace tells the exact story
of what ran — one span per cell attempt, re-parented under the campaign
span, pass spans nested below the cell that compiled them.
"""

from __future__ import annotations

import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    Tracer,
    to_chrome_trace,
    use_tracer,
    validate_chrome_trace,
)
from repro.runner import Cell, run_campaign


@st.composite
def selftest_campaigns(draw):
    """A small random campaign of pass/fail selftest cells + a retry
    budget.  ``echo=index`` keeps every cell id unique."""
    n = draw(st.integers(1, 5))
    actions = draw(
        st.lists(
            st.sampled_from(["ok", "ok", "ok", "fail"]),
            min_size=n,
            max_size=n,
        )
    )
    retries = draw(st.integers(0, 2))
    cells = [
        Cell.make("_selftest", action=a, echo=i)
        for i, a in enumerate(actions)
    ]
    return cells, retries


def _cell_spans(spans):
    return [s for s in spans if s.cat == "cell"]


def _enclosing(span, cat):
    """Walk the parent chain up to the nearest span of category ``cat``."""
    node = span.parent
    while node is not None and node.cat != cat:
        node = node.parent
    return node


class TestCampaignTraceProperties:
    @given(selftest_campaigns())
    @settings(max_examples=20)
    def test_one_span_per_attempt_and_results_unchanged(self, campaign):
        cells, retries = campaign
        tracer = Tracer()
        with use_tracer(tracer):
            traced_run = run_campaign(cells, workers=1, retries=retries)
        baseline = run_campaign(cells, workers=1, retries=retries)

        # enabling tracing must not change a single result byte
        assert json.dumps(traced_run.to_dict()["cells"], sort_keys=True) == (
            json.dumps(baseline.to_dict()["cells"], sort_keys=True)
        )

        spans = tracer.finished()
        by_id: dict[str, list] = {}
        for s in _cell_spans(spans):
            assert s.name == "_selftest"
            by_id.setdefault(s.args["cell_id"], []).append(s)

        # exactly one 'cell' span per attempt of every cell
        assert sum(len(v) for v in by_id.values()) == sum(
            r.attempts for r in traced_run.results
        )
        for r in traced_run.results:
            attempt_spans = by_id[r.cell.cell_id]
            assert len(attempt_spans) == r.attempts
            assert sorted(s.args["attempt"] for s in attempt_spans) == list(
                range(1, r.attempts + 1)
            )
            # the last attempt's outcome matches the merged result
            last = max(attempt_spans, key=lambda s: s.args["attempt"])
            assert last.args["ok"] is r.ok

        # every cell span nests directly under the single campaign span
        campaign_spans = [s for s in spans if s.cat == "campaign"]
        assert len(campaign_spans) == 1
        for s in _cell_spans(spans):
            assert s.parent is campaign_spans[0]
            assert s.ts >= campaign_spans[0].ts
            assert s.end is not None

        # and the whole trace exports cleanly
        assert validate_chrome_trace(to_chrome_trace(spans)) == []


class TestCampaignTraceStructure:
    def test_two_worker_spans_reparented_with_pids(self):
        cells = [
            Cell.make("_selftest", action="ok", echo=i) for i in range(4)
        ]
        tracer = Tracer()
        with use_tracer(tracer):
            res = run_campaign(cells, workers=2)
        assert res.ok
        spans = tracer.finished()
        campaign = next(s for s in spans if s.cat == "campaign")

        cell_spans = {s.args["cell_id"]: s for s in _cell_spans(spans)}
        assert len(cell_spans) == 4
        for r in res.results:
            s = cell_spans[r.cell.cell_id]
            assert s.parent is campaign
            assert s.args["pid"] == r.worker_pid
            assert r.worker_pid != os.getpid()  # genuinely out-of-process
            assert s.ts >= campaign.ts

    def test_crashed_attempt_gets_synthesized_span(self):
        cells = [
            Cell.make("_selftest", action="ok", echo=0),
            Cell.make("_selftest", action="crash"),
        ]
        tracer = Tracer()
        with use_tracer(tracer):
            res = run_campaign(cells, workers=2, retries=0)
        crashed = next(r for r in res.results if not r.ok)
        spans = [
            s
            for s in tracer.finished()
            if s.cat == "cell" and s.args["cell_id"] == crashed.cell.cell_id
        ]
        # the worker died without reporting: the attempt still appears,
        # zero-length and marked failed, so trace and results agree
        assert len(spans) == 1
        assert spans[0].args["ok"] is False
        assert "error" in spans[0].args

    def test_pass_spans_nest_under_their_cell(self):
        from repro.experiments import table1_cells

        cells = table1_cells([1], iterations=20)
        tracer = Tracer()
        with use_tracer(tracer):
            res = run_campaign(cells, workers=1)
        assert res.ok
        spans = tracer.finished()
        pass_spans = [s for s in spans if s.cat == "pass"]
        assert pass_spans, "table1 cells must record pipeline pass spans"
        for s in pass_spans:
            cell = _enclosing(s, "cell")
            assert cell is not None
            assert cell.name == "table1"


class TestCliTraceOut:
    def test_campaign_trace_out_end_to_end(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        trace_path = tmp_path / "t.json"
        rc = main(
            [
                "campaign",
                "table1",
                "--seeds",
                "1",
                "--iterations",
                "20",
                "--workers",
                "2",
                "--trace-out",
                str(trace_path),
                "--bench",
                str(tmp_path / "bench.json"),
            ]
        )
        assert rc == 0

        obj = json.loads(trace_path.read_text())
        assert validate_chrome_trace(obj) == []
        events = obj["traceEvents"]
        cell_events = [e for e in events if e["cat"] == "cell"]
        pass_events = [e for e in events if e["cat"] == "pass"]
        assert len(cell_events) == 3  # seed 1 x mm in {1, 3, 5}
        # every cell compiled through the same 4-pass pipeline
        assert len(pass_events) == 4 * len(cell_events)
        assert len([e for e in events if e["cat"] == "campaign"]) == 1
        assert {e["args"]["ok"] for e in cell_events} == {True}
        # one span per attempt, named by kind; the cell id rides in args
        assert {e["name"] for e in cell_events} == {"table1"}
        assert len({e["args"]["cell_id"] for e in cell_events}) == 3
        assert not [e for e in events if e["cat"] == "cell-kind"]

        # histogram summaries rode into the campaign artifact
        bench = json.loads((tmp_path / "bench.json").read_text())
        hist = bench["stats"]["histograms"]
        assert hist["cell_seconds"]["count"] == 3
        assert "table1" in hist["by_kind"]

    def test_profile_subcommand_prints_profile(self, capsys):
        from repro.cli import main

        assert main(["profile", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "profile (spans by category:name" in out
        assert "cli:repro-mimd fig7" in out
        assert "pipeline.passes_executed" in out

    def test_profile_folds_cells_by_kind(self, capsys):
        from repro.cli import main

        assert main(["profile", "table1", "--iterations", "20"]) == 0
        out = capsys.readouterr().out
        rows = [
            line.split()
            for line in out.splitlines()
            if line.lstrip().startswith("cell:")
        ]
        # 25 seeds x 3 fluctuation levels, one row for all of them
        assert [row[:2] for row in rows] == [["cell:table1", "75"]]
        assert "more span groups" not in out
