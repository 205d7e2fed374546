"""Layer probes: wrap the program's public entry points from outside.

The benchmark never edits the program.  It replaces each entry point
listed in :data:`LAYERS` with a wrapper everywhere the entry point is
bound by name: in the defining module, at every ``from X import f``
site and in every class that holds it as a method.

A :class:`Probe` works at two levels:

* Always on: the counts the end-to-end checks need.  These are
  Cyclic-sched calls and memo hits, per-case fuzz latency and per-cell
  runner time.  Campaign worker processes ship their counts home
  inside the runner's own cell payloads.
* ``probe.tracing``: every wrapped call opens a span.  A span charges
  its thread CPU time, minus that of the spans nested in it, to its
  layer; that is the layer's *self time*.  A coroutine is charged step
  by step, so the time it spends suspended is charged to nobody.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import resource
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

#: ``observe(probe, result, args, kwargs, wall_s, span_cpu_s)``; the
#: span time is ``None`` when the call ran untraced.
Observer = Callable[..., None]

#: payload key under which a campaign worker ships its counts home
SHIP_KEY = "perfbench"


def cpu_seconds() -> float:
    """CPU time of this process plus that of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------------
# observers: the work counts of single layers
# ----------------------------------------------------------------------
def _cyclic(probe, result, args, kwargs, wall, spent):
    stats = result.stats
    probe.add("cyclic.calls")
    if stats.memo_hits:
        probe.add("cyclic.memo_hits")
    else:
        probe.add("cyclic.instances_scheduled", stats.instances_scheduled)
    if spent is not None:
        probe.sample("cyclic.call_s", spent)


def _ops(key: str) -> Observer:
    def observe(probe, result, args, kwargs, wall, spent):
        order = args[1] if len(args) > 1 else kwargs["order"]
        probe.add(key, sum(len(row) for row in order))

    return observe


def _pipeline(probe, report, args, kwargs, wall, spent):
    probe.add("pipeline.passes", len(report.passes))
    probe.add("pipeline.cache_hits", report.cache_hits)


def _case(probe, result, args, kwargs, wall, spent):
    probe.sample("case_s", wall)


def _journal(probe, result, args, kwargs, wall, spent):
    probe.add("runner.journal_records")
    probe.add("runner.journal_append_s", wall)


#: layer -> its public entry points (``module:qualname``) and the
#: observer that counts the work each call did.
LAYERS: dict[str, tuple[tuple[str, Observer | None], ...]] = {
    "lang": (
        ("repro.lang.parser:parse_loop", None),
        ("repro.lang.ifconvert:if_convert", None),
        ("repro.lang.dependence:build_graph", None),
    ),
    "unwind": (("repro.graph.unwind:normalize_distances", None),),
    "classify": (("repro.core.classify:classify", None),),
    "cyclic": (("repro.core.cyclic:schedule_cyclic", _cyclic),),
    "flowio": (
        ("repro.core.flowio:plan_noncyclic", None),
        ("repro.core.flowio:noncyclic_program", None),
    ),
    "codegen": (
        ("repro.codegen.emit:emit_subloops", None),
        ("repro.codegen.partition:partition", None),
        ("repro.codegen.interp:verify_graph_dataflow", None),
        ("repro.codegen.interp:verify_against_sequential", None),
    ),
    "fastpath": (("repro.sim.fastpath:evaluate", _ops("fastpath.ops")),),
    "engine": (("repro.sim.engine:simulate", _ops("engine.ops")),),
    "doacross": (
        ("repro.baselines.doacross:schedule_doacross", None),
        ("repro.baselines.doacross:DoacrossSchedule.program", None),
    ),
    # ArtifactCache.get_or_compute is left out: the work it computes
    # belongs to its caller's layer, only the lookups are the cache's
    "pipeline": (
        ("repro.pipeline.manager:PassManager.run", _pipeline),
        ("repro.pipeline.manager:PassManager.chain_keys", None),
        ("repro.pipeline.cache:ArtifactCache.get", None),
        ("repro.pipeline.cache:ArtifactCache.put", None),
        ("repro.runner.diskcache:TieredCache.get", None),
        ("repro.runner.diskcache:TieredCache.put", None),
        ("repro.runner.diskcache:DiskCache.get", None),
        ("repro.runner.diskcache:DiskCache.put", None),
    ),
    "runner": (
        ("repro.runner.core:run_campaign", None),
        ("repro.runner.core:_cell_task", None),
        ("repro.runner.journal:CellJournal.append", _journal),
    ),
    "fuzz": (
        ("repro.fuzz.campaign:run_fuzz", None),
        ("repro.fuzz.campaign:run_fuzz_shard", None),
        ("repro.fuzz.generators:generate_case", None),
        ("repro.fuzz.oracles:run_oracles", _case),
    ),
    "serve": (
        ("repro.serve.server:ServeServer._handle_one", None),
        ("repro.serve.service:CompileService.submit", None),
        ("repro.serve.service:CompileService._run_attempt", None),
    ),
    # the load generator's HTTP client shares the daemon's process
    "client": (("repro.serve.client:AsyncConnection.request", None),),
    # glue that would otherwise count as the runner's self time
    "experiments": (("repro.experiments:measure", None),),
    "workloads": (("repro.workloads.random_loops:random_cyclic_loop", None),),
}

#: entry points wrapped in untraced runs too: the end-to-end checks
#: need their counts.
ALWAYS = frozenset(
    {"repro.core.cyclic:schedule_cyclic", "repro.fuzz.oracles:run_oracles"}
)


def import_program(package: str = "repro") -> None:
    """Import every module of the program, so that every binding exists
    before patching and lazy imports cost nothing inside timed work."""
    pkg = importlib.import_module(package)
    for info in pkgutil.walk_packages(pkg.__path__, package + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _namespaces(package: str = "repro") -> Iterator[Any]:
    """Every module of the program and every class defined in one."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


def _resolve(target: str) -> Any:
    modname, qualname = target.split(":")
    value: Any = importlib.import_module(modname)
    for part in qualname.split("."):
        value = vars(value)[part]
    return value


class _Steps:
    """Await ``coro``, charging each step it runs to ``layer``."""

    __slots__ = ("coro", "layer", "probe")

    def __init__(self, coro, layer: str, probe: "Probe") -> None:
        self.coro, self.layer, self.probe = coro, layer, probe

    def __await__(self):
        coro, probe, layer = self.coro, self.probe, self.layer
        step, arg = coro.send, None
        while True:
            probe.enter(layer)
            try:
                signal = step(arg)
            except StopIteration as stop:
                return stop.value
            finally:
                probe.leave()
            try:
                arg, step = (yield signal), coro.send
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # delivered into the coroutine
                arg, step = exc, coro.throw


class Probe:
    """Counts, samples and layer self times of one benchmark process."""

    def __init__(self) -> None:
        self.tracing = False
        self.sites = 0  #: bindings replaced by wrappers
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def mark(self) -> tuple[dict[str, float], dict[str, int]]:
        with self._lock:
            return dict(self.counts), {k: len(v) for k, v in self.samples.items()}

    def since(self, mark) -> dict[str, dict]:
        """What was counted and sampled after ``mark``."""
        counts, lengths = mark
        with self._lock:
            return {
                "counts": {
                    k: v - counts.get(k, 0.0)
                    for k, v in self.counts.items()
                    if v != counts.get(k, 0.0)
                },
                "samples": {
                    k: v[lengths.get(k, 0):]
                    for k, v in self.samples.items()
                    if len(v) > lengths.get(k, 0)
                },
            }

    def merge(self, delta: dict[str, dict]) -> None:
        with self._lock:
            for k, v in delta["counts"].items():
                self.counts[k] += v
            for k, v in delta["samples"].items():
                self.samples[k].extend(v)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> None:
        self._stack().append([layer, time.thread_time(), 0.0])

    def leave(self) -> float:
        """Close the innermost span; returns its CPU time."""
        stack = self._stack()
        layer, start, nested = stack.pop()
        spent = time.thread_time() - start
        if stack:
            stack[-1][2] += spent
        self.add("self." + layer, spent - nested)
        return spent

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, fn, layer: str, observe: Observer | None, always: bool):
        probe = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            def stepped(*args, **kwargs):
                coro = fn(*args, **kwargs)
                return _Steps(coro, layer, probe) if probe.tracing else coro

            return stepped

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracing = probe.tracing
            if tracing:
                probe.enter(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = probe.leave() if tracing else None
            if observe is not None and (tracing or always):
                wall = time.perf_counter() - start
                observe(probe, result, args, kwargs, wall, spent)
            return result

        return wrapper

    def _ship(self, fn):
        """``_cell_task`` in a worker process: ship its counts home."""
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == probe._pid:
                return fn(*args, **kwargs)
            # the forked copy of the parent's open spans is not ours
            probe._local.stack = []
            mark = probe.mark()
            payload = fn(*args, **kwargs)
            payload[SHIP_KEY] = probe.since(mark)
            return payload

        return wrapper

    def _collect(self, fn):
        """``_result_from_payload`` in the parent: take the counts in."""
        probe = self

        @functools.wraps(fn)
        def wrapper(cell, index, payload, attempts):
            shipped = payload.pop(SHIP_KEY, None)
            if shipped is not None:
                probe.merge(shipped)
            probe.add("runner.cells")
            probe.add("runner.cell_s", payload.get("seconds", 0.0))
            return fn(cell, index, payload, attempts)

        return wrapper

    def _patch(self, target: str, make: Callable[[Any], Any]) -> None:
        """Replace ``target`` with ``make(target)`` wherever it is bound."""
        old = _resolve(target)
        new = make(old)
        sites = [
            (ns, name)
            for ns in _namespaces()
            for name, value in list(vars(ns).items())
            if value is old
        ]
        if not sites:
            raise RuntimeError(f"{target}: no binding to wrap")
        for ns, name in sites:
            setattr(ns, name, new)
            self._patches.append((ns, name, old))
        self.sites += len(sites)

    def install(self, *, trace: bool) -> None:
        """Wrap every layer's entry points (with ``trace``) or only the
        :data:`ALWAYS` ones, plus the runner's payload hand-over."""
        import_program()
        for layer, entries in LAYERS.items():
            for target, observe in entries:
                always = target in ALWAYS
                if trace or always:
                    self._patch(
                        target,
                        functools.partial(
                            self._wrap, layer=layer, observe=observe, always=always
                        ),
                    )
        self._patch("repro.runner.core:_cell_task", self._ship)
        self._patch("repro.runner.core:_result_from_payload", self._collect)

    def uninstall(self) -> None:
        for ns, name, old in reversed(self._patches):
            setattr(ns, name, old)
        self._patches.clear()
