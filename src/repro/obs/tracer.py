"""Hierarchical tracing: nestable spans with a zero-cost disabled path.

A :class:`Span` is one timed interval of work — a pipeline pass, a
campaign cell, a CLI command — with a name, a category, optional
key/value attributes, and a parent, so spans form a forest that mirrors
the call structure.  A :class:`Tracer` records spans (contextmanager or
:func:`traced` decorator); the process-local *current tracer*
(:func:`current_tracer`) is what instrumented code talks to.

The default current tracer is the :class:`NullTracer` singleton, whose
``span()`` returns one shared, pre-built no-op span: the disabled path
performs no allocation and no timestamping, so instrumentation can stay
in hot paths permanently (``tests/test_obs.py::TestTracingOverhead``
bounds its cost).

Cross-process story: a worker records spans against its own clock and
ships them home as a plain-dict *bundle* (:meth:`Tracer.to_payload`);
the parent grafts the bundle into its own trace with :func:`replant`,
re-basing timestamps via the bundles' wall-clock epochs and clamping so
re-parented spans always nest inside the chosen parent span.  Exporters
live in :mod:`repro.obs.export`.

This module depends only on the standard library.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Any, Callable, Mapping

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "current_tracer",
    "replant",
    "set_tracer",
    "traced",
    "use_tracer",
]


class Span:
    """One timed interval.  ``ts``/``end`` are seconds on the owning
    tracer's clock (relative to the tracer's epoch)."""

    __slots__ = ("name", "cat", "ts", "end", "pid", "tid", "parent", "args")

    #: total Span objects ever constructed in this process — the
    #: overhead regression test asserts the null path never bumps it.
    allocated = 0

    def __init__(
        self,
        name: str,
        cat: str,
        ts: float,
        pid: int,
        tid: int,
        parent: "Span | None" = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.ts = ts
        self.end: float | None = None
        self.pid = pid
        self.tid = tid
        self.parent = parent
        self.args: dict[str, Any] = {}
        Span.allocated = Span.allocated + 1

    @property
    def duration(self) -> float:
        return (self.end - self.ts) if self.end is not None else 0.0

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute (shows up under ``args`` in exports)."""
        self.args[key] = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, cat={self.cat!r}, ts={self.ts:.6f}, "
            f"dur={self.duration:.6f})"
        )


class _NullSpan:
    """Shared do-nothing span: the entire disabled-tracing fast path."""

    __slots__ = ()
    name = ""
    cat = ""
    ts = 0.0
    end = 0.0
    duration = 0.0
    args: dict[str, Any] = {}
    parent = None

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op, nothing allocates."""

    enabled = False
    spans: tuple[Span, ...] = ()

    def span(self, name: str, cat: str = "") -> _NullSpan:
        return _NULL_SPAN

    def to_payload(self) -> None:
        return None


NULL_TRACER = NullTracer()


class _ActiveSpan:
    """Context manager pairing a real span with its tracer's stack."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._push(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and "error" not in self.span.args:
            self.span.set("error", f"{type(exc).__name__}: {exc}")
        self.tracer._pop(self.span)


class Tracer:
    """Records a forest of nested spans on one process-local timeline.

    ``epoch_unix`` (wall clock at construction) anchors the relative
    ``perf_counter`` timeline so bundles from different processes can
    be merged onto one timeline by :func:`replant`.
    """

    enabled = True

    def __init__(self) -> None:
        self.epoch_unix = time.time()
        self._epoch_perf = time.perf_counter()
        self.spans: list[Span] = []  # in start order, finished or open
        self._stacks = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._epoch_perf

    def _stack(self) -> list[Span]:
        try:
            return self._stacks.stack
        except AttributeError:
            stack: list[Span] = []
            self._stacks.stack = stack
            return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        span.end = self._now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current_span(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    def span(self, name: str, cat: str = "") -> _ActiveSpan:
        """Start a span nested under the calling thread's current one."""
        s = Span(
            name,
            cat,
            self._now(),
            os.getpid(),
            threading.get_ident(),
            self.current_span(),
        )
        with self._lock:
            self.spans.append(s)
        return _ActiveSpan(self, s)

    def finished(self) -> list[Span]:
        """Spans that have closed, in start order."""
        with self._lock:
            return [s for s in self.spans if s.end is not None]

    # ------------------------------------------------------------------
    # cross-process bundles
    # ------------------------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        """Plain-dict bundle of every finished span, for pickling home.

        ``parent`` is the index of the parent span within the bundle
        (or ``-1`` for bundle roots); timestamps stay relative to this
        tracer's epoch, which rides along as ``epoch``.
        """
        finished = self.finished()
        index = {id(s): i for i, s in enumerate(finished)}
        return {
            "epoch": self.epoch_unix,
            "spans": [
                {
                    "name": s.name,
                    "cat": s.cat,
                    "ts": s.ts,
                    "dur": s.duration,
                    "pid": s.pid,
                    "tid": s.tid,
                    "parent": index.get(id(s.parent), -1),
                    "args": dict(s.args),
                }
                for s in finished
            ],
        }


def replant(
    tracer: Tracer,
    parent: Span | None,
    bundle: Mapping[str, Any] | None,
    *,
    root_args: Mapping[str, Any] | None = None,
) -> list[Span]:
    """Graft a :meth:`Tracer.to_payload` bundle under ``parent``.

    Timestamps are re-based onto ``tracer``'s timeline using the two
    epochs' wall-clock difference, then shifted (never scaled) so no
    bundle span starts before ``parent`` — wall clocks on one machine
    agree to well under a millisecond, but nesting must hold *exactly*
    for the trace to be well-formed.  Bundle roots become children of
    ``parent`` and absorb ``root_args`` (attempt, pid, timeout...).
    Returns the re-parented root spans.
    """
    if not bundle or not bundle.get("spans"):
        return []
    offset = bundle["epoch"] - tracer.epoch_unix
    if parent is not None:
        first = min(s["ts"] for s in bundle["spans"])
        offset = max(offset, parent.ts - first)
    grafted: list[Span] = []
    roots: list[Span] = []
    for rec in bundle["spans"]:
        p = grafted[rec["parent"]] if rec["parent"] >= 0 else parent
        s = Span(
            rec["name"], rec["cat"], rec["ts"] + offset,
            rec["pid"], rec["tid"], p,
        )
        s.end = s.ts + rec["dur"]
        s.args.update(rec["args"])
        if rec["parent"] < 0:
            if root_args:
                s.args.update(root_args)
            roots.append(s)
        grafted.append(s)
    with tracer._lock:
        tracer.spans.extend(grafted)
    return roots


# ----------------------------------------------------------------------
# process-local current tracer
# ----------------------------------------------------------------------
_CURRENT: Tracer | NullTracer = NULL_TRACER


def current_tracer() -> Tracer | NullTracer:
    """The tracer instrumented code records against (NullTracer when
    tracing is disabled — the default)."""
    return _CURRENT


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _CURRENT
    prev = _CURRENT
    _CURRENT = tracer
    return prev


class use_tracer:
    """``with use_tracer(t):`` — install ``t``, restore on exit."""

    def __init__(self, tracer: Tracer | NullTracer) -> None:
        self.tracer = tracer

    def __enter__(self) -> Tracer | NullTracer:
        self._prev = set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc: object) -> None:
        set_tracer(self._prev)


def traced(
    name: str | None = None, cat: str = "fn"
) -> Callable[[Callable], Callable]:
    """Decorator: run the function inside a span on the current tracer."""

    def deco(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            with current_tracer().span(label, cat):
                return fn(*args, **kwargs)

        return wrapper

    return deco
