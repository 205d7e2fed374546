"""Process-local metrics: counters, gauges, histograms with percentiles.

A :class:`MetricsRegistry` is a flat namespace of named instruments:

* :class:`Counter` — monotonically increasing totals (cache hits,
  cells executed);
* :class:`Gauge` — last-written values (queue depth, workers);
* :class:`Histogram` — sample distributions summarized as
  count/mean/min/max and p50/p95/p99 (pass latencies, cell seconds).

Everything is thread-safe and dependency-free.  The process-local
default registry (:func:`registry`) is what instrumented code records
into; hot paths gate recording on the current tracer being enabled, so
the disabled path costs one attribute check.

Percentiles use the nearest-rank method on the retained samples;
histograms keep at most ``keep`` samples (default 4096) by halving the
reservoir on overflow — a recency-weighted subsample whose true count
and mean are tracked exactly.  That is plenty for the sub-second
latency distributions this library measures.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "labeled",
    "percentile",
    "registry",
    "set_registry",
    "summarize",
]


def labeled(name: str, **labels: Any) -> str:
    """Canonical flat name for a labeled instrument.

    The registry's namespace is flat; labels are folded into the name
    Prometheus-style, sorted so the same label set always produces the
    same instrument: ``labeled("serve.requests", client="bench")`` ->
    ``'serve.requests{client=bench}'``.  The serve daemon uses this
    for its per-client request counters and latency histograms.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``samples``."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math
    return ordered[int(rank) - 1]


def summarize(samples: Sequence[float]) -> dict[str, float]:
    """count/mean/min/max/p50/p95/p99 of a sample list (all floats)."""
    n = len(samples)
    if not n:
        return {"count": 0}
    return {
        "count": n,
        "mean": sum(samples) / n,
        "min": min(samples),
        "max": max(samples),
        "p50": percentile(samples, 50),
        "p95": percentile(samples, 95),
        "p99": percentile(samples, 99),
    }


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A last-value-wins instrument."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """A bounded sample reservoir with percentile summaries."""

    __slots__ = ("name", "keep", "count", "total", "_samples", "_lock")

    def __init__(self, name: str, keep: int = 4096) -> None:
        if keep < 2:
            raise ValueError(f"histogram must keep >= 2 samples, got {keep}")
        self.name = name
        self.keep = keep
        self.count = 0
        self.total = 0.0
        self._samples: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            self._samples.append(value)
            if len(self._samples) > self.keep:
                # halve on overflow: bounds memory; older samples thin
                # out geometrically while count/total stay exact.
                self._samples = self._samples[::2]

    def samples(self) -> list[float]:
        with self._lock:
            return list(self._samples)

    def summary(self) -> dict[str, float]:
        with self._lock:
            out = summarize(self._samples)
        out["count"] = self.count  # true observation count, pre-decimation
        if self.count:
            out["mean"] = self.total / self.count
        return out


class MetricsRegistry:
    """Flat, thread-safe namespace of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            try:
                return self._counters[name]
            except KeyError:
                c = self._counters[name] = Counter(name)
                return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            try:
                return self._gauges[name]
            except KeyError:
                g = self._gauges[name] = Gauge(name)
                return g

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            try:
                return self._histograms[name]
            except KeyError:
                h = self._histograms[name] = Histogram(name)
                return h

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dump: counters, gauges, histogram summaries."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(histograms.items())
            },
        }

    def to_payload(self) -> dict[str, Any]:
        """Plain-dict bundle of every instrument, raw histogram samples
        included, for pickling home from a worker process."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in counters.items()},
            "gauges": {n: g.value for n, g in gauges.items()},
            "histograms": {n: h.samples() for n, h in histograms.items()},
        }

    def merge(self, payload: dict[str, Any]) -> None:
        """Record a :meth:`to_payload` bundle into this registry."""
        for name, value in payload["counters"].items():
            self.counter(name).inc(value)
        for name, value in payload["gauges"].items():
            self.gauge(name).set(value)
        for name, samples in payload["histograms"].items():
            histogram = self.histogram(name)
            for value in samples:
                histogram.observe(value)


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-local default registry."""
    return _REGISTRY


def set_registry(reg: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-local registry; returns the previous one."""
    global _REGISTRY
    prev = _REGISTRY
    _REGISTRY = reg
    return prev
