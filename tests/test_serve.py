"""CompileService: admission, single flight, caching, chaos requeue.

Transport-free tests — the asyncio service core is driven directly.
The cache-stampede property test pins the counter contract: K
concurrent identical requests produce bit-identical responses, exactly
one ``serve.cache_miss``, K-1 ``serve.singleflight_wait``, and exactly
one pipeline execution.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultPlan, WorkerCrash
from repro.errors import AdmissionError, ServeError
from repro.obs import (
    MetricsRegistry,
    Tracer,
    registry,
    set_registry,
    to_chrome_trace,
    use_tracer,
    validate_chrome_trace,
)
from repro.pipeline import EvaluatePass, default_cache
from repro.serve import CompileService, ServeConfig, parse_request
from repro.serve.protocol import build_context
from repro.workloads.examples import FIG7_SOURCE


def canonical(result):
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
class TestProtocol:
    def test_source_and_workload_are_exclusive(self):
        with pytest.raises(ServeError):
            parse_request({"source": "x", "workload": "fig7"})
        with pytest.raises(ServeError):
            parse_request({})

    def test_rejects_non_object_bodies(self):
        for bad in (None, 3, "text", ["list"]):
            with pytest.raises(ServeError):
                parse_request(bad)

    def test_rejects_bad_parameter_types(self):
        with pytest.raises(ServeError):
            parse_request({"workload": "fig7", "processors": "four"})
        with pytest.raises(ServeError):
            parse_request({"workload": "fig7", "iterations": 0})
        with pytest.raises(ServeError):
            parse_request({"workload": "fig7", "processors": True})
        with pytest.raises(ServeError):
            parse_request({"workload": "fig7", "client": ""})

    def test_unknown_workload_rejected_at_admission(self):
        with pytest.raises(ServeError, match="unknown workload"):
            build_context(parse_request({"workload": "nope"}))

    def test_chain_key_is_request_identity(self):
        """Equal requests share a chain key; different machines don't."""
        a = parse_request({"source": FIG7_SOURCE, "iterations": 60})
        b = parse_request({"source": FIG7_SOURCE, "iterations": 60})
        c = parse_request(
            {"source": FIG7_SOURCE, "iterations": 60, "processors": 8}
        )
        key = lambda r: (lambda cp: cp[1].chain_key(cp[0]))(build_context(r))
        assert key(a) == key(b)
        assert key(a) != key(c)


# ----------------------------------------------------------------------
class TestService:
    def submit(self, service, payload, **kw):
        return run(service.submit(payload, **kw))

    def test_miss_then_hit(self):
        service = CompileService(ServeConfig(workers=2))
        try:
            first = self.submit(
                service, {"source": FIG7_SOURCE, "iterations": 60}
            )
            second = self.submit(
                service, {"source": FIG7_SOURCE, "iterations": 60}
            )
        finally:
            service.close()
        assert first["ok"] and second["ok"]
        assert first["server"]["cache"] == "miss"
        assert second["server"]["cache"] == "hit"
        assert canonical(first["result"]) == canonical(second["result"])
        counters = service.metrics.snapshot()["counters"]
        assert counters["serve.cache_miss"] == 1
        assert counters["serve.cache_hit"] == 1
        assert counters["serve.pipeline_runs"] == 1

    def test_fig7_result_contract(self):
        """The served numbers match the paper's worked example."""
        service = CompileService(ServeConfig(workers=2))
        try:
            resp = self.submit(
                service, {"source": FIG7_SOURCE, "iterations": 60}
            )
        finally:
            service.close()
        result = resp["result"]
        assert result["makespan"] == 180
        assert result["sp"] == 40.0
        assert result["passes"]  # pass names travel with the result
        assert len(result["key"]) == 16

    def test_per_client_instruments(self):
        service = CompileService(ServeConfig(workers=2))
        try:
            self.submit(service, {"workload": "fig1", "client": "alice"})
            self.submit(service, {"workload": "fig1", "client": "alice"})
            self.submit(service, {"workload": "fig3", "client": "bob"})
        finally:
            service.close()
        snap = service.metrics.snapshot()
        assert snap["counters"]["serve.requests{client=alice}"] == 2
        assert snap["counters"]["serve.requests{client=bob}"] == 1
        assert (
            snap["histograms"]["serve.latency_seconds{client=alice}"]["count"]
            == 2
        )
        assert snap["histograms"]["serve.latency_seconds"]["count"] == 3

    def test_progress_events_for_leader_only(self):
        service = CompileService(ServeConfig(workers=2))
        events = []
        try:
            first = run(
                service.submit(
                    {"workload": "fig7", "iterations": 50},
                    progress=events.append,
                )
            )
            warm_events = []
            second = run(
                service.submit(
                    {"workload": "fig7", "iterations": 50},
                    progress=warm_events.append,
                )
            )
        finally:
            service.close()
        assert [e["pass"] for e in events] == first["result"]["passes"]
        assert all(e["attempt"] == 1 for e in events)
        assert first["server"]["passes"] == events
        assert warm_events == []  # nothing executed for the warm hit
        assert second["server"]["cache"] == "hit"

    def test_error_requests_counted_and_raised(self):
        service = CompileService(ServeConfig(workers=2))
        try:
            with pytest.raises(ServeError):
                self.submit(service, {"workload": "missing-workload"})
        finally:
            service.close()
        counters = service.metrics.snapshot()["counters"]
        assert counters["serve.errors"] == 1

    def test_admission_rejects_when_queue_full(self):
        service = CompileService(ServeConfig(workers=2, max_queue=1))
        gate = threading.Event()
        original = service._run_attempt

        def gated(*a, **kw):
            gate.wait(timeout=30)
            return original(*a, **kw)

        service._run_attempt = gated

        async def scenario():
            first = asyncio.ensure_future(
                service.submit({"workload": "fig7", "iterations": 40})
            )
            while not service._flights:
                await asyncio.sleep(0.001)
            # distinct request: must be refused, not queued unbounded
            with pytest.raises(AdmissionError):
                await service.submit({"workload": "fig1", "iterations": 40})
            # identical request: coalesces, never counts against queue
            twin = asyncio.ensure_future(
                service.submit({"workload": "fig7", "iterations": 40})
            )
            counters = service.metrics.snapshot()["counters"]
            while "serve.singleflight_wait" not in counters:
                await asyncio.sleep(0.001)
                counters = service.metrics.snapshot()["counters"]
            gate.set()
            return await first, await twin

        try:
            first, twin = run(scenario())
        finally:
            gate.set()
            service.close()
        assert first["server"]["cache"] == "miss"
        assert twin["server"]["cache"] == "coalesced"
        counters = service.metrics.snapshot()["counters"]
        assert counters["serve.admission_rejects"] == 1


# ----------------------------------------------------------------------
class TestWorkerCrashRequeue:
    def reference(self, payload):
        service = CompileService(ServeConfig(workers=2))
        try:
            return run(service.submit(dict(payload)))
        finally:
            service.close()

    def test_crash_mid_request_requeues_and_stays_bit_identical(self):
        payload = {"workload": "fig7", "iterations": 60}
        fault_free = self.reference(payload)

        plan = FaultPlan(seed=7, specs=(WorkerCrash(prob=1.0, max_crashes=2),))
        service = CompileService(ServeConfig(workers=2, fault_plan=plan))
        events = []
        try:
            resp = run(
                service.submit(dict(payload), progress=events.append)
            )
        finally:
            service.close()

        assert resp["ok"]
        assert resp["server"]["attempts"] == 3  # two crashes, then done
        counters = service.metrics.snapshot()["counters"]
        assert counters["serve.worker_crashes"] == 2
        assert counters["serve.pipeline_runs"] == 1
        # the client never sees the crashes in the result payload
        assert canonical(resp["result"]) == canonical(fault_free["result"])
        # crashed attempts streamed at least their first pass
        assert {e["attempt"] for e in events} == {1, 2, 3}

    def test_crash_decisions_are_deterministic(self):
        plan = FaultPlan(seed=3, specs=(WorkerCrash(prob=0.5, max_crashes=4),))
        decisions = [
            plan.should_crash_worker("somekey", attempt)
            for attempt in range(1, 6)
        ]
        assert decisions == [
            plan.should_crash_worker("somekey", attempt)
            for attempt in range(1, 6)
        ]
        assert plan.should_crash_worker("somekey", 5) is False  # > budget

    def test_crash_budget_exhaustion_surfaces(self):
        plan = FaultPlan(seed=1, specs=(WorkerCrash(prob=1.0, max_crashes=9),))
        service = CompileService(
            ServeConfig(workers=2, fault_plan=plan, max_attempts=2)
        )
        try:
            from repro.chaos import InjectedWorkerCrash

            with pytest.raises(InjectedWorkerCrash):
                run(service.submit({"workload": "fig1"}))
        finally:
            service.close()


# ----------------------------------------------------------------------
class TestCacheStampede:
    """K concurrent identical requests never compile more than once."""

    @settings(max_examples=12, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=10),
        workload=st.sampled_from(["fig1", "fig3", "fig7", "cytron86"]),
    )
    def test_stampede_coalesces_exactly(self, k, workload):
        service = CompileService(ServeConfig(workers=2))
        gate = threading.Event()
        original = service._run_attempt

        def gated(*a, **kw):
            gate.wait(timeout=30)
            return original(*a, **kw)

        service._run_attempt = gated
        payload = {"workload": workload, "iterations": 40}

        async def stampede():
            tasks = [
                asyncio.ensure_future(service.submit(dict(payload)))
                for _ in range(k)
            ]
            # hold the compile until every request has been admitted:
            # one leader in flight, k-1 registered waiters.
            while True:
                counters = service.metrics.snapshot()["counters"]
                admitted = counters.get(
                    "serve.cache_miss", 0
                ) + counters.get("serve.singleflight_wait", 0)
                if admitted >= k:
                    break
                await asyncio.sleep(0.001)
            gate.set()
            return await asyncio.gather(*tasks)

        try:
            responses = run(stampede())
        finally:
            gate.set()
            service.close()

        assert len({canonical(r["result"]) for r in responses}) == 1
        counters = service.metrics.snapshot()["counters"]
        assert counters["serve.cache_miss"] == 1
        assert counters["serve.singleflight_wait"] == k - 1
        assert counters["serve.pipeline_runs"] == 1
        assert counters.get("serve.cache_hit", 0) == 0
        statuses = sorted(r["server"]["cache"] for r in responses)
        assert statuses == ["coalesced"] * (k - 1) + ["miss"]


# ----------------------------------------------------------------------
class TestWorkerProcesses:
    """Compiles run in forked worker processes; what crosses back."""

    def hold_evaluate(self, monkeypatch, release, reached=None, pid=None):
        """Make EvaluatePass wait for the semaphore ``release`` in the
        workers forked from now on; a wait that times out fails the
        compile.  (A semaphore, not an Event: setting an Event waits
        for every sleeper to wake, and a killed one never does.)"""
        original = EvaluatePass.run

        def held(self, ctx, out):
            if pid is not None:
                pid.value = os.getpid()
            if reached is not None:
                reached.set()
            if not release.acquire(timeout=30):
                raise RuntimeError("EvaluatePass was never released")
            return original(self, ctx, out)

        monkeypatch.setattr(EvaluatePass, "run", held)

    def test_workers_must_be_positive(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                ServeConfig(workers=bad)

    def test_default_workers_is_one_per_cpu(self):
        service = CompileService(ServeConfig())
        try:
            assert len(service._pool.executor._processes) == os.cpu_count()
        finally:
            service.close()

    def test_pass_events_arrive_while_the_compile_runs(self, monkeypatch):
        """The first pass's event reaches the loop before EvaluatePass
        (the last pass) may finish: it is what releases it."""
        release = multiprocessing.Semaphore(0)
        self.hold_evaluate(monkeypatch, release)
        service = CompileService(ServeConfig(workers=1))
        events = []

        def progress(event):
            events.append(event)
            if len(events) == 1:
                release.release()

        try:
            resp = run(
                service.submit(
                    {"workload": "fig7", "iterations": 61}, progress=progress
                )
            )
        finally:
            service.close()
        assert resp["ok"]
        assert [e["pass"] for e in events] == resp["result"]["passes"]

    def test_killed_worker_is_replaced_and_request_succeeds(
        self, monkeypatch
    ):
        payload = {"workload": "fig7", "iterations": 62}
        fault_free = TestWorkerCrashRequeue().reference(payload)

        release = multiprocessing.Semaphore(0)
        reached = multiprocessing.Event()
        pid = multiprocessing.Value("i", 0)
        self.hold_evaluate(monkeypatch, release, reached, pid)
        service = CompileService(ServeConfig(workers=2))

        async def scenario():
            task = asyncio.ensure_future(service.submit(dict(payload)))
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, reached.wait, 30)
            os.kill(pid.value, signal.SIGKILL)
            release.release()  # for the attempt's re-run
            return await task

        try:
            resp = run(scenario())
        finally:
            service.close()
        assert resp["ok"]
        assert canonical(resp["result"]) == canonical(fault_free["result"])
        counters = service.metrics.snapshot()["counters"]
        assert counters["serve.worker_crashes"] == 1
        assert counters["serve.pipeline_runs"] == 1

    def test_fork_takes_no_lock_a_parent_thread_holds(self):
        """Workers forked while another thread holds the default cache
        and the metrics registry still compile (traced, so the worker
        records pass metrics)."""
        held, release = threading.Event(), threading.Event()

        def holder():
            with default_cache()._lock, registry()._lock:
                held.set()
                release.wait(timeout=60)

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        assert held.wait(timeout=10)
        service = CompileService(ServeConfig(workers=1))
        previous = set_registry(MetricsRegistry())
        try:
            with use_tracer(Tracer()):
                resp = run(
                    asyncio.wait_for(
                        service.submit({"workload": "fig3", "iterations": 47}),
                        timeout=60,
                    )
                )
        except asyncio.TimeoutError:
            # Unwedge the close below: free the locks, then kill the
            # stuck worker so its replacement forks without them.
            release.set()
            thread.join(timeout=10)
            for proc in list(service._pool.executor._processes.values()):
                proc.kill()
            raise
        finally:
            set_registry(previous)
            release.set()
            service.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert resp["ok"]

    def test_traced_attempt_ships_spans_and_metrics_home(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        service = CompileService(ServeConfig(workers=2))
        previous = set_registry(metrics)
        try:
            with use_tracer(tracer):
                resp = run(
                    service.submit({"workload": "fig7", "iterations": 63})
                )
        finally:
            set_registry(previous)
            service.close()
        spans = tracer.finished()
        (request,) = [s for s in spans if s.cat == "request"]
        passes = [s for s in spans if s.cat == "pass"]
        assert [s.name for s in passes] == resp["result"]["passes"]
        assert all(s.parent is request for s in passes)
        assert request.pid != os.getpid()  # recorded in a worker
        assert request.args["attempt"] == 1
        assert request.args["key"] == resp["result"]["key"]
        assert not validate_chrome_trace(to_chrome_trace(spans))
        snap = metrics.snapshot()
        assert snap["counters"]["pipeline.passes_executed"] == len(passes)
        assert snap["histograms"]["pass.EvaluatePass.seconds"]["count"] == 1
