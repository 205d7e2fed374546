"""Pipeline instrumentation: per-pass records, diagnostics, reports.

Every :meth:`repro.pipeline.manager.PassManager.run` produces a
:class:`PipelineReport` — one :class:`PassRecord` per pass (wall time,
cache hit/miss, pass-specific counters) plus the structured
:class:`Diagnostic` messages the passes emitted.  The report is the
single source of truth for the ``repro-mimd stages`` subcommand, the
``--json`` export of every CLI subcommand, and the caching benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.metrics import summarize

#: per-pass latency samples retained in an aggregated summary — enough
#: for stable p50/p95/p99 while keeping ``--json`` exports bounded.
_MAX_SAMPLES = 256

#: CyclicSchedPass counters summed into the aggregate's "scheduler"
#: block (DESIGN.md §13) so campaign/CLI reports expose fastpath
#: behaviour without digging through per-run pass records.
_SCHEDULER_COUNTERS = (
    "instances_scheduled",
    "windows_hashed",
    "memo_hits",
    "rows_rolled",
)


def _pass_histogram(samples: Sequence[float]) -> dict[str, float]:
    """Rounded latency summary of per-run seconds (a pass's or a cell's)."""
    return {
        k: (v if k == "count" else round(v, 6))
        for k, v in summarize(samples).items()
    }

__all__ = [
    "Diagnostic",
    "PassRecord",
    "PipelineReport",
    "aggregate_reports",
    "merge_aggregated",
]


@dataclass(frozen=True)
class Diagnostic:
    """A structured message from one pass.

    ``severity`` is ``'info'`` or ``'warning'``.  Diagnostics replace
    silently-dropped decisions ("folding skipped", "loop is DOALL",
    "graph split into components") with inspectable records; they are
    replayed verbatim on cache hits so a warm compilation reports the
    same story as a cold one.
    """

    severity: str
    origin: str  # pass name
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.origin}: {self.message}"


@dataclass(frozen=True)
class PassRecord:
    """Instrumentation for one pass execution (or cache restoration)."""

    name: str
    seconds: float
    cache_hit: bool
    counters: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "pass": self.name,
            "seconds": round(self.seconds, 6),
            "cache_hit": self.cache_hit,
            "counters": dict(self.counters),
        }


@dataclass(frozen=True)
class PipelineReport:
    """Everything one pipeline run measured."""

    passes: tuple[PassRecord, ...]
    diagnostics: tuple[Diagnostic, ...]

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.passes)

    @property
    def executed(self) -> tuple[PassRecord, ...]:
        """Records of passes that actually ran (cache misses)."""
        return tuple(r for r in self.passes if not r.cache_hit)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.passes if r.cache_hit)

    def record(self, name: str) -> PassRecord:
        """The record for pass ``name`` (raises ``KeyError`` if absent)."""
        for r in self.passes:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_dict(self) -> dict[str, Any]:
        return {
            "total_seconds": round(self.total_seconds, 6),
            "cache_hits": self.cache_hits,
            "passes": [r.to_dict() for r in self.passes],
            "diagnostics": [
                {
                    "severity": d.severity,
                    "origin": d.origin,
                    "message": d.message,
                }
                for d in self.diagnostics
            ],
        }

    def format(self) -> str:
        """Human-readable per-pass timing table."""
        width = max((len(r.name) for r in self.passes), default=4)
        lines = [f"  {'pass':<{width}}  {'time':>10}  cache  counters"]
        for r in self.passes:
            counters = " ".join(f"{k}={v}" for k, v in r.counters.items())
            hit = "hit" if r.cache_hit else "-"
            lines.append(
                f"  {r.name:<{width}}  {r.seconds * 1e3:>8.3f}ms  "
                f"{hit:<5}  {counters}"
            )
        lines.append(
            f"  {'total':<{width}}  {self.total_seconds * 1e3:>8.3f}ms  "
            f"({self.cache_hits}/{len(self.passes)} cached)"
        )
        for d in self.diagnostics:
            lines.append(f"  {d}")
        return "\n".join(lines)


def aggregate_reports(
    reports: Sequence[PipelineReport] | Iterable[PipelineReport],
) -> dict[str, Any]:
    """Summarize many pipeline runs (one CLI command may run hundreds).

    Returns per-pass totals — runs, cache hits, cumulative seconds —
    plus overall totals and the deduplicated warning diagnostics.
    """
    reports = list(reports)
    return _fold(
        len(reports),
        sum(rep.total_seconds for rep in reports),
        sum(rep.cache_hits for rep in reports),
        (
            (r.name, 1, int(r.cache_hit), r.seconds, (round(r.seconds, 6),))
            for rep in reports
            for r in rep.passes
        ),
        (
            (key, r.counters.get(key))
            for rep in reports
            for r in rep.passes
            if r.name == "CyclicSchedPass"
            for key in _SCHEDULER_COUNTERS
        ),
        (str(d) for rep in reports for d in rep.diagnostics
         if d.severity == "warning"),
    )


def merge_aggregated(summaries: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Merge several :func:`aggregate_reports` outputs into one.

    The campaign runner's workers each aggregate their own pipeline
    reports in-process (``PipelineReport`` objects do not cross the
    process boundary) and ship the summary dicts home; this folds them
    into one dict of the same shape, so a sharded campaign reports
    pipeline telemetry identically to a serial run.
    """
    summaries = list(summaries)
    return _fold(
        sum(s.get("pipelines", 0) for s in summaries),
        sum(s.get("total_seconds", 0.0) for s in summaries),
        sum(s.get("cache_hits", 0) for s in summaries),
        (
            (name, p.get("runs", 0), p.get("cache_hits", 0),
             p.get("seconds", 0.0), p.get("samples", ()))
            for s in summaries
            for name, p in s.get("passes", {}).items()
        ),
        (item for s in summaries for item in s.get("scheduler", {}).items()),
        (w for s in summaries for w in s.get("warnings", ())),
    )


def _fold(
    pipelines: int, total_seconds: float, cache_hits: int,
    passes: Iterable[tuple], counters: Iterable[tuple],
    warnings: Iterable[str],
) -> dict[str, Any]:
    """The one accumulation behind both entry points: per-pass
    ``(name, runs, cache_hits, seconds, samples)`` contributions,
    integer scheduler ``counters`` and deduplicated ``warnings``."""
    per_pass: dict[str, dict[str, Any]] = {}
    for name, runs, hits, seconds, samples in passes:
        slot = per_pass.setdefault(
            name, {"runs": 0, "cache_hits": 0, "seconds": 0.0, "samples": []}
        )
        slot["runs"] += runs
        slot["cache_hits"] += hits
        slot["seconds"] += seconds
        room = _MAX_SAMPLES - len(slot["samples"])
        if room > 0:
            slot["samples"].extend(samples[:room])
    for slot in per_pass.values():
        slot["seconds"] = round(slot["seconds"], 6)
        slot["histogram"] = _pass_histogram(slot["samples"])
    scheduler: dict[str, int] = {}
    for key, v in counters:
        if isinstance(v, int):
            scheduler[key] = scheduler.get(key, 0) + v
    return {
        "pipelines": pipelines,
        "total_seconds": round(total_seconds, 6),
        "cache_hits": cache_hits,
        "passes": per_pass,
        "scheduler": scheduler,
        "warnings": list(dict.fromkeys(warnings)),
    }
