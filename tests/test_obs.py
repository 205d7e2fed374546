"""Unit tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Span,
    Tracer,
    atomic_write_text,
    current_tracer,
    percentile,
    replant,
    sim_segment_events,
    summarize,
    text_profile,
    to_chrome_trace,
    traced,
    use_tracer,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.pipeline import ArtifactCache, compile_graph
from repro.sim.engine import Segment
from repro.workloads import suite


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_spans_nest_and_time(self):
        t = Tracer()
        with t.span("outer", "a") as outer:
            with t.span("inner", "b") as inner:
                time.sleep(0.001)
        assert inner.parent is outer
        assert outer.parent is None
        assert inner.ts >= outer.ts
        assert inner.end is not None and outer.end is not None
        assert inner.end <= outer.end
        assert inner.duration > 0

    def test_sibling_spans_share_parent(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("a") as a:
                pass
            with t.span("b") as b:
                pass
        assert a.parent is outer and b.parent is outer
        # finished() reports in start order
        assert [s.name for s in t.finished()] == ["outer", "a", "b"]

    def test_exception_recorded_and_span_closed(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("boom") as s:
                raise ValueError("nope")
        assert s.end is not None
        assert s.args["error"] == "ValueError: nope"

    def test_span_set_attributes(self):
        t = Tracer()
        with t.span("s") as s:
            s.set("cache_hit", True)
        assert s.args == {"cache_hit": True}

    def test_traced_decorator_uses_current_tracer(self):
        t = Tracer()

        @traced("myfn", cat="fn")
        def add(a, b):
            return a + b

        with use_tracer(t):
            assert add(2, 3) == 5
        (s,) = t.finished()
        assert (s.name, s.cat) == ("myfn", "fn")

    def test_use_tracer_restores_previous(self):
        before = current_tracer()
        t = Tracer()
        with use_tracer(t):
            assert current_tracer() is t
        assert current_tracer() is before

    def test_default_tracer_is_null(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled


class TestNullTracer:
    def test_null_span_is_shared_and_allocation_free(self):
        s1 = NULL_TRACER.span("a", "x")
        s2 = NULL_TRACER.span("b", "y")
        assert s1 is s2  # one shared object, no per-call allocation
        before = Span.allocated
        for _ in range(1000):
            with NULL_TRACER.span("hot", "loop") as s:
                s.set("ignored", 1)
        assert Span.allocated == before

    def test_null_payload_is_none(self):
        assert NULL_TRACER.to_payload() is None


class TestTracingOverhead:
    """The instrumentation stays in the hot paths permanently, so its
    cost is bounded here.  Minima over several rounds are compared
    (far steadier than means), and the bounds leave room for noisy
    machines."""

    SPAN_REPS = 10_000

    @staticmethod
    def _compile_suite() -> int:
        """Cold-compile every suite workload; returns spans entered."""
        entered = 0
        for w in suite().values():
            ctx = compile_graph(
                w.graph, w.machine, iterations=40, cache=ArtifactCache()
            )
            entered += len(ctx.report.passes)
        return entered

    @staticmethod
    def _best_seconds(fn, rounds: int) -> float:
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def _null_span_seconds(self) -> float:
        """Best-of-5 cost of one null span enter/exit."""
        tracer = current_tracer()

        def loop():
            for _ in range(self.SPAN_REPS):
                with tracer.span("hot", "bench") as s:
                    s.set("ignored", 1)

        return self._best_seconds(loop, 5) / self.SPAN_REPS

    def test_null_span_under_2us(self):
        assert current_tracer() is NULL_TRACER
        per_span = self._null_span_seconds()
        assert per_span < 2e-6, f"null span {per_span * 1e9:.0f}ns"

    def test_disabled_instrumentation_share_under_3_percent(self):
        """(spans entered x null-span cost) against the compile time
        itself, so the bound scales with machine speed."""
        assert current_tracer() is NULL_TRACER
        per_span = self._null_span_seconds()
        before = Span.allocated
        spans = self._compile_suite()
        compile_s = self._best_seconds(self._compile_suite, 3)
        assert Span.allocated == before, "null tracer allocated spans"
        share = spans * per_span / compile_s
        assert share < 0.03, (
            f"instrumentation {share:.2%} of compile time "
            f"({spans} spans x {per_span * 1e9:.0f}ns / "
            f"{compile_s * 1e3:.1f}ms)"
        )

    def test_enabled_tracer_under_3x_disabled(self):
        disabled = self._best_seconds(self._compile_suite, 3)
        tracer = Tracer()

        def traced_compile():
            with use_tracer(tracer):
                self._compile_suite()

        enabled = self._best_seconds(traced_compile, 3)
        assert tracer.finished(), "enabled tracer recorded nothing"
        ratio = enabled / disabled
        assert ratio < 3.0, f"enabled tracing {ratio:.2f}x disabled"


class TestReplant:
    def _bundle(self, epoch_shift=0.0):
        child = Tracer()
        child.epoch_unix += epoch_shift  # simulate another process clock
        with child.span("cell-1", "cell"):
            with child.span("Pass", "pass"):
                pass
        return child.to_payload()

    def test_replant_preserves_structure_and_args(self):
        parent = Tracer()
        with parent.span("campaign", "campaign") as root:
            roots = replant(
                parent, root, self._bundle(), root_args={"attempt": 2}
            )
        (cell,) = roots
        assert cell.parent is root
        assert cell.args["attempt"] == 2
        spans = {s.name: s for s in parent.finished()}
        assert spans["Pass"].parent is spans["cell-1"]

    def test_replant_clamps_to_parent_start(self):
        parent = Tracer()
        with parent.span("campaign") as root:
            # bundle from a clock far in the "past": without the clamp
            # its spans would start before the campaign span.
            roots = replant(parent, root, self._bundle(epoch_shift=-60.0))
        assert roots[0].ts >= root.ts

    def test_replant_empty_bundle_is_noop(self):
        parent = Tracer()
        with parent.span("campaign") as root:
            assert replant(parent, root, None) == []
            assert replant(parent, root, {"epoch": 0.0, "spans": []}) == []
        assert len(parent.finished()) == 1


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_percentile_nearest_rank(self):
        data = list(range(1, 101))  # 1..100
        assert percentile(data, 50) == 50
        assert percentile(data, 95) == 95
        assert percentile(data, 99) == 99
        assert percentile(data, 100) == 100
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0

    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s["count"] == 4
        assert s["mean"] == 2.5
        assert (s["min"], s["max"]) == (1.0, 4.0)
        assert summarize([]) == {"count": 0}

    def test_counter_gauge(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in [1.0, 2.0, 3.0, 10.0]:
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["mean"] == 4.0
        assert s["max"] == 10.0

    def test_histogram_decimation_keeps_true_count_and_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("big")
        h.keep = 64  # small reservoir to force decimation
        n = 1000
        for i in range(n):
            h.observe(float(i))
        s = h.summary()
        assert s["count"] == n
        assert s["mean"] == pytest.approx(sum(range(n)) / n)
        assert len(h.samples()) <= 64
        # retained samples are a true subset; percentiles stay in range
        assert set(h.samples()) <= set(float(i) for i in range(n))
        assert 0 <= s["p50"] <= n - 1

    def test_registry_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("y") is reg.histogram("y")
        reg.clear()
        assert reg.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestChromeExport:
    def _tracer(self):
        t = Tracer()
        with t.span("outer", "a") as s:
            s.set("k", 1)
            with t.span("inner", "b"):
                pass
        return t

    def test_export_is_valid_and_microseconds(self):
        t = self._tracer()
        obj = to_chrome_trace(t.finished())
        assert validate_chrome_trace(obj) == []
        events = {e["name"]: e for e in obj["traceEvents"]}
        outer, inner = events["outer"], events["inner"]
        assert outer["ph"] == "X"
        assert outer["args"] == {"k": 1}
        # microsecond timestamps, sorted by ts
        assert outer["ts"] <= inner["ts"]
        assert outer["dur"] >= inner["dur"]
        assert obj["displayTimeUnit"] == "ms"

    def test_unfinished_spans_are_skipped(self):
        t = Tracer()
        cm = t.span("open", "x")
        cm.__enter__()  # never exited
        obj = to_chrome_trace(t.spans)
        assert obj["traceEvents"] == []

    def test_write_chrome_trace_roundtrip(self, tmp_path):
        t = self._tracer()
        path = tmp_path / "trace.json"
        written = write_chrome_trace(str(path), t.finished())
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert validate_chrome_trace(loaded) == []

    def test_sim_segment_events(self):
        segs = [
            Segment(0, "busy", 0, 3, "A[0]"),
            Segment(1, "recv", 0, 2, "B[0]"),
            Segment(1, "wait", 2, 4),
        ]
        events = sim_segment_events(segs, us_per_cycle=2.0)
        obj = to_chrome_trace([], extra_events=events)
        assert validate_chrome_trace(obj) == []
        assert events[0]["name"] == "A[0]"
        assert events[0]["dur"] == 6.0  # 3 cycles * 2 us
        assert events[2]["name"] == "wait"
        assert {e["cat"] for e in events} == {
            "sim.busy",
            "sim.recv",
            "sim.wait",
        }

    def test_validate_rejects_malformed(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": 3}) != []
        bad = {"traceEvents": [{"ph": "X", "ts": 0, "pid": 1, "tid": 1}]}
        assert any("name" in p for p in validate_chrome_trace(bad))
        bad_dur = {
            "traceEvents": [
                {"name": "e", "ph": "X", "ts": 0, "pid": 1, "tid": 1,
                 "dur": -1}
            ]
        }
        assert any("dur" in p for p in validate_chrome_trace(bad_dur))


class TestTextProfile:
    def test_profile_aggregates_and_self_time(self):
        t = Tracer()
        with t.span("outer", "a"):
            for _ in range(3):
                with t.span("inner", "b"):
                    time.sleep(0.001)
        out = text_profile(t.finished())
        assert "a:outer" in out and "b:inner" in out
        inner_line = next(ln for ln in out.splitlines() if "b:inner" in ln)
        assert " 3 " in inner_line  # count column

    def test_profile_empty(self):
        assert text_profile([]) == "(no spans recorded)"

    def test_profile_limit(self):
        t = Tracer()
        for i in range(5):
            with t.span(f"s{i}", "c"):
                pass
        out = text_profile(t.finished(), limit=2)
        assert "3 more span groups" in out


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_write_and_overwrite(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(str(path), "one")
        assert path.read_text() == "one"
        atomic_write_text(str(path), "two")
        assert path.read_text() == "two"
        # no temp files left behind on the happy path
        assert os.listdir(tmp_path) == ["out.json"]

    def test_kill_mid_write_never_truncates(self, tmp_path):
        """SIGKILL a process that is writing the same file in a loop:
        the destination must always hold one *complete* payload."""
        path = tmp_path / "artifact.json"
        atomic_write_text(str(path), "BEGIN " + "x" * 100 + " END")
        script = (
            "import sys\n"
            "from repro.obs import atomic_write_text\n"
            "path = sys.argv[1]\n"
            "payload = 'BEGIN ' + 'y' * 2_000_000 + ' END'\n"
            "print('ready', flush=True)\n"
            "while True:\n"
            "    atomic_write_text(path, payload)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(path)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stdout is not None
            assert proc.stdout.readline().strip() == "ready"
            time.sleep(0.05)  # land the kill mid-loop
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        content = path.read_text()
        assert content.startswith("BEGIN ")
        assert content.endswith(" END")

    def test_failed_write_preserves_old_content(self, tmp_path):
        path = tmp_path / "keep.json"
        atomic_write_text(str(path), "original")
        with pytest.raises(TypeError):
            atomic_write_text(str(path), 12345)  # type: ignore[arg-type]
        assert path.read_text() == "original"
        # the aborted temp file was cleaned up
        assert os.listdir(tmp_path) == ["keep.json"]
