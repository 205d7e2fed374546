"""The transport-independent core of the serve daemon.

:class:`CompileService` turns the batch pipeline into a long-lived
service: requests are identified by their content-addressed chain key
*at admission* (no work scheduled yet), answered straight from the
cache when warm, coalesced onto one in-flight compilation when an
identical request is already running, and otherwise compiled in a
forked worker process, with per-pass progress relayed back to the
event loop as each pass finishes.

Compiles run in processes, not threads, so a miss never holds the
interpreter lock the event loop needs to answer hits.  The pool forks
once, when the service is built (before the daemon starts any
thread), because a spawned worker would import the whole package
again; each worker then gets process-wide state of its own (see
:func:`_worker_init`).  All workers take attempts from one shared
queue and compile one at a time, so *different* requests that share a
chain prefix share its passes through ordinary cache hits within one
worker process.

Counter contract (pinned by the cache-stampede test): for ``K``
concurrent requests with the same chain key and a cold cache, exactly
one ``serve.cache_miss`` is recorded, the other ``K - 1`` requests
record ``serve.singleflight_wait``, and the pipeline executes exactly
once.  Subsequent requests for the key record ``serve.cache_hit``.

Chaos seam: a :class:`~repro.chaos.faults.WorkerCrash` spec in the
config's fault plan kills the compile attempt mid-request (after its
first pass, deterministically keyed by chain key and attempt number);
a worker process that really dies breaks the pool, which is replaced.
Either way the service counts ``serve.worker_crashes`` and re-queues
the attempt; the client still receives the bit-identical response —
accepted work is never dropped.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import itertools
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable

from repro.chaos.faults import FaultPlan, InjectedWorkerCrash
from repro.errors import AdmissionError
from repro.obs.metrics import MetricsRegistry, labeled, registry, set_registry
from repro.obs.tracer import (
    NULL_TRACER,
    Tracer,
    current_tracer,
    replant,
    set_tracer,
    use_tracer,
)
from repro.pipeline.cache import (
    ArtifactCache,
    CacheEntry,
    default_cache,
    set_default_cache,
)
from repro.pipeline.manager import publish_report

from repro.serve.protocol import (
    PROTOCOL_VERSION,
    CompileRequest,
    build_context,
    parse_request,
    response_cache_key,
    result_payload,
)

__all__ = ["CompileService", "ServeConfig"]

#: entries of the daemon's default response cache (one per distinct
#: response key; pass chains live in each worker's own cache).
RESPONSE_CACHE_SIZE = 4096


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one service instance (and its HTTP front end)."""

    host: str = "127.0.0.1"
    port: int = 8642
    #: max number of *distinct* in-flight compilations; coalesced
    #: waiters ride an existing flight and never count against this.
    max_queue: int = 256
    #: worker-crash requeue budget per request (attempts, not retries).
    max_attempts: int = 5
    #: compile worker processes; ``None`` = one per CPU.
    workers: int | None = None
    #: deterministic fault injection (WorkerCrash specs apply here).
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: (pipe write end, its lock): where this worker reports its attempts.
_EVENTS: Any = None


def _worker_init(
    writer: Any, lock: Any
) -> None:  # pragma: no cover - subprocess
    """Give a new compile worker process-wide state of its own.

    A forked worker inherits every lock as some daemon thread held it
    at fork time, so it must take none of them: it gets a fresh
    default cache (same tiers), metrics registry and no tracer.  It
    ignores SIGINT — a terminal's Ctrl-C reaches the daemon, which
    drains and then shuts the pool down — and dies on SIGTERM.
    """
    global _EVENTS
    _EVENTS = (writer, lock)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    set_default_cache(default_cache().fresh())
    set_registry(MetricsRegistry())
    set_tracer(NULL_TRACER)


def _send(token: int, message: Any) -> None:  # pragma: no cover - subprocess
    writer, lock = _EVENTS
    with lock:
        writer.send((token, message))


def _compile_attempt(
    token: int,
    req: CompileRequest,
    chain: str,
    crash: str | None,
    trace: bool,
) -> dict[str, Any]:  # pragma: no cover - subprocess
    """One compile attempt, in a worker process.

    Reports ``"begun"``, then each finished pass's event, then ``None``
    over the pool's event pipe.  Returns the result section, the
    pipeline report, the injected crash ``crash`` (if any) as data,
    and — with ``trace`` — the attempt's span bundle and the pass
    metrics it recorded.
    """
    _send(token, "begun")
    tracer = Tracer() if trace else NULL_TRACER
    metrics = registry()  # this worker's own, from _worker_init
    metrics.clear()
    outcome: dict[str, Any] = {"result": None, "report": None, "crashed": None}
    try:
        with use_tracer(tracer), tracer.span(req.name, "request"):
            ctx, pm = build_context(req)

            def hook(event: dict[str, Any]) -> None:
                _send(token, event)
                if crash and event["index"] == 0:
                    # Die after the first pass completes: genuinely
                    # mid-request, with partial work already published.
                    raise InjectedWorkerCrash(crash)

            try:
                outcome["report"] = pm.run(ctx, progress=hook)
                outcome["result"] = result_payload(ctx, req, chain)
            except InjectedWorkerCrash:
                outcome["crashed"] = crash
    finally:
        _send(token, None)
    outcome["spans"] = tracer.to_payload()
    outcome["metrics"] = metrics.to_payload()
    return outcome


# ----------------------------------------------------------------------
# daemon side
# ----------------------------------------------------------------------
def _pool_context() -> Any:
    """Fork where it exists: a spawned worker re-imports the package."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class _WorkerPool:
    """One generation of compile worker processes and their event pipe.

    Workers write each attempt's events to one pipe; a drainer thread
    relays them to the attempt's listener as they arrive.  Once a fork
    pool has forked its workers the daemon closes its write end, so
    no later fork inherits it and the drainer reads EOF exactly when
    the last worker has exited.
    """

    def __init__(self, workers: int) -> None:
        ctx = _pool_context()
        reader, self._writer = ctx.Pipe(duplex=False)
        #: token -> (relay, ended): what the drainer calls per event,
        #: and what it sets once the attempt's last event is relayed.
        self._listeners: dict[int, tuple[Callable, threading.Event]] = {}
        #: tokens of the attempts a worker has begun and not finished
        self.begun: set[int] = set()
        self.executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(self._writer, ctx.Lock()),
        )
        # With fork, the first submit forks every worker at once.  The
        # daemon's heap is frozen meanwhile, so the workers' collections
        # skip it instead of touching (and copying) every inherited page.
        gc.freeze()
        try:
            self.executor.submit(os.getpid).result()
        finally:
            gc.unfreeze()
        if ctx.get_start_method() == "fork":
            self._writer.close()
        self._drainer = threading.Thread(
            target=self._drain,
            args=(reader,),
            name="repro-serve-events",
            daemon=True,
        )
        self._drainer.start()

    def _drain(self, reader: Any) -> None:
        with reader:
            while True:
                try:
                    token, message = reader.recv()
                except EOFError:
                    return
                if message == "begun":
                    self.begun.add(token)
                    continue
                listener = self._listeners.get(token)
                if listener is None:
                    continue
                relay, ended = listener
                if message is None:
                    ended.set()
                    continue
                try:
                    relay(message)
                except RuntimeError:
                    pass  # the listener's event loop has closed

    def run(
        self, token: int, relay: Callable[[dict[str, Any]], None], *args: Any
    ) -> dict[str, Any]:
        """Run :func:`_compile_attempt` in a worker; block for its outcome.

        Returns only after every event of the attempt has been relayed.
        Raises :class:`BrokenProcessPool` if a worker died meanwhile.
        """
        ended = threading.Event()
        self._listeners[token] = (relay, ended)
        try:
            future = self.executor.submit(_compile_attempt, token, *args)
            if future.exception() is None:
                ended.wait()
                self.begun.discard(token)
            return future.result()
        finally:
            del self._listeners[token]

    def retire(self) -> None:
        """Join every worker, then the drainer (idempotent)."""
        self.executor.shutdown(wait=True, cancel_futures=True)
        self._writer.close()
        self._drainer.join()


class CompileService:
    """Admission, single flight, caching and retry around the pipeline.

    Owns a pool of compile worker processes, the dispatcher threads
    that wait on them, and a :class:`MetricsRegistry` (metrics
    are always on for a service — they feed the ``/stats`` endpoint
    and the load benchmark, independent of tracing).  The cache
    defaults to a private :class:`ArtifactCache`; hand it a
    :class:`~repro.runner.diskcache.TieredCache` to persist responses
    across daemon restarts.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        cache: ArtifactCache | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.cache = (
            cache
            if cache is not None
            else ArtifactCache(maxsize=RESPONSE_CACHE_SIZE)
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.started_at = time.time()
        self._workers = self.config.workers or os.cpu_count() or 1
        # Fork before this service starts any thread of its own.
        self._pool = _WorkerPool(self._workers)
        self._pool_lock = threading.Lock()
        self._tokens = itertools.count()
        self._dispatchers = ThreadPoolExecutor(
            max_workers=self._workers,
            thread_name_prefix="repro-serve-dispatch",
        )
        #: chain key -> future resolving to the deterministic result.
        self._flights: dict[str, asyncio.Future] = {}
        self._closed = False

    # ------------------------------------------------------------------
    async def submit(
        self,
        request: CompileRequest | Any,
        *,
        progress: Callable[[dict[str, Any]], None] | None = None,
    ) -> dict[str, Any]:
        """Serve one request; returns the full response document.

        ``request`` is a :class:`CompileRequest` or a decoded JSON
        object (validated here).  ``progress`` is invoked on the event
        loop with per-pass events — only when *this* request leads a
        fresh compilation; warm hits and coalesced waiters produce no
        events (nothing executed on their behalf).
        """
        t0 = time.perf_counter()
        req = (
            request
            if isinstance(request, CompileRequest)
            else parse_request(request)
        )
        m = self.metrics
        m.counter("serve.requests").inc()
        m.counter(labeled("serve.requests", client=req.client)).inc()
        try:
            response = await self._dispatch(req, progress)
        except Exception:
            m.counter("serve.errors").inc()
            m.counter(labeled("serve.errors", client=req.client)).inc()
            raise
        finally:
            elapsed = time.perf_counter() - t0
            m.histogram("serve.latency_seconds").observe(elapsed)
            m.histogram(
                labeled("serve.latency_seconds", client=req.client)
            ).observe(elapsed)
        response["server"]["seconds"] = round(
            time.perf_counter() - t0, 6
        )
        return response

    async def _dispatch(
        self,
        req: CompileRequest,
        progress: Callable[[dict[str, Any]], None] | None,
    ) -> dict[str, Any]:
        ctx, pm = build_context(req)
        chain = pm.chain_key(ctx)
        rkey = response_cache_key(chain)
        m = self.metrics

        entry = self.cache.get(rkey)
        if entry is not None:
            m.counter("serve.cache_hit").inc()
            return self._respond(entry.artifacts["response"], "hit", 0)

        flight = self._flights.get(chain)
        if flight is not None:
            m.counter("serve.singleflight_wait").inc()
            result = await asyncio.shield(flight)
            return self._respond(result, "coalesced", 0)

        if len(self._flights) >= self.config.max_queue:
            m.counter("serve.admission_rejects").inc()
            raise AdmissionError(
                f"compile queue full ({self.config.max_queue} in flight); "
                "retry after a backoff"
            )
        m.counter("serve.cache_miss").inc()
        loop = asyncio.get_running_loop()
        flight = loop.create_future()
        self._flights[chain] = flight
        m.gauge("serve.inflight").set(len(self._flights))
        try:
            result, attempts, events = await self._compile(
                req, chain, progress
            )
        except BaseException as exc:
            flight.set_exception(exc)
            flight.exception()  # mark retrieved: waiters re-raise anyway
            raise
        else:
            flight.set_result(result)
        finally:
            self._flights.pop(chain, None)
            m.gauge("serve.inflight").set(len(self._flights))
        self.cache.put(rkey, CacheEntry({"response": result}, {}, ()))
        response = self._respond(result, "miss", attempts)
        response["server"]["passes"] = events
        return response

    async def _compile(
        self,
        req: CompileRequest,
        chain: str,
        progress: Callable[[dict[str, Any]], None] | None,
    ) -> tuple[dict[str, Any], int, list[dict[str, Any]]]:
        """Run the pipeline in a worker process, re-queueing on crashes."""
        loop = asyncio.get_running_loop()
        m = self.metrics
        attempt = 0
        while True:
            attempt += 1
            events: list[dict[str, Any]] = []

            def forward(event: dict[str, Any], attempt=attempt, sink=events):
                event = dict(event, attempt=attempt)
                sink.append(event)
                if progress is not None:
                    progress(event)

            try:
                result = await loop.run_in_executor(
                    self._dispatchers,
                    functools.partial(
                        self._run_attempt, req, chain, attempt, forward, loop
                    ),
                )
                m.counter("serve.pipeline_runs").inc()
                break
            except (InjectedWorkerCrash, BrokenProcessPool):
                m.counter("serve.worker_crashes").inc()
                if attempt >= self.config.max_attempts:
                    # Only reachable when crashes outlast the attempt
                    # budget — surface it rather than loop forever.
                    raise
        return result, attempt, events

    def _run_attempt(
        self,
        req: CompileRequest,
        chain: str,
        attempt: int,
        forward: Callable[[dict[str, Any]], None],
        loop: asyncio.AbstractEventLoop,
    ) -> dict[str, Any]:
        """One compile attempt (dispatcher thread); returns the result.

        The attempt runs in a worker process on a fresh context — a
        crashed attempt's half-built context dies with it.  Passes
        completed before an injected crash stay in that worker's
        cache, so a retry that lands there resumes from them.

        A worker that dies breaks the pool, which is replaced.  As in
        the campaign runner, the crash is charged only to attempts a
        worker had begun (or to all, if none had); an attempt still
        queued is re-run in the new pool, uncharged.
        """
        plan = self.config.fault_plan
        crash = (
            f"injected worker crash: key={chain} attempt={attempt}"
            if plan is not None and plan.should_crash_worker(chain, attempt)
            else None
        )
        tracer = current_tracer()
        relay = functools.partial(loop.call_soon_threadsafe, forward)
        token = next(self._tokens)
        while True:
            pool = self._pool
            try:
                outcome = pool.run(
                    token, relay, req, chain, crash, tracer.enabled
                )
                break
            except BrokenProcessPool:
                self._replace_pool(pool)
                if token in pool.begun or not pool.begun:
                    raise
        if tracer.enabled:
            replant(
                tracer,
                None,
                outcome["spans"],
                root_args={"attempt": attempt, "key": chain},
            )
            registry().merge(outcome["metrics"])
        if outcome["report"] is not None:
            publish_report(outcome["report"])
        if outcome["crashed"]:
            raise InjectedWorkerCrash(outcome["crashed"])
        return outcome["result"]

    def _replace_pool(self, broken: _WorkerPool) -> None:
        """Retire ``broken`` and fork its successor, once however many
        attempts it failed."""
        with self._pool_lock:
            broken.retire()
            if self._pool is broken:
                self._pool = _WorkerPool(self._workers)

    # ------------------------------------------------------------------
    def _respond(
        self, result: dict[str, Any], status: str, attempts: int
    ) -> dict[str, Any]:
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "result": result,
            "server": {"cache": status, "attempts": attempts},
        }

    def stats(self) -> dict[str, Any]:
        """JSON-ready snapshot for the ``/stats`` endpoint."""
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "inflight": len(self._flights),
            "cache": self.cache.stats(),
            "metrics": self.metrics.snapshot(),
        }

    def close(self) -> None:
        """Release the dispatchers and the worker pool (idempotent)."""
        if not self._closed:
            self._closed = True
            self._dispatchers.shutdown(wait=True, cancel_futures=True)
            with self._pool_lock:
                self._pool.retire()
