"""PassManager: ordered pass execution with caching and instrumentation.

``PassManager.run(ctx)``:

1. validates pass ordering up front (every ``requires`` must be
   provided by an earlier pass or seeded in the context) so
   mis-assembled pipelines fail with a pointed :class:`~repro.errors.
   PipelineError` before any work happens;
2. walks the passes, extending the content-addressed *chain key* (see
   :mod:`repro.pipeline.cache`) pass by pass; a cache hit restores the
   pass's artifacts, counters and diagnostics without executing it;
3. returns a :class:`~repro.pipeline.report.PipelineReport` (also
   stored on ``ctx.report``) with per-pass wall time and cache flags.

Chain keys are only trusted while every artifact a pass consumes was
itself produced under the chain (or seeded from a fingerprintable
input artifact: source, loop, graph).  A pass consuming an untrusted
artifact — e.g. a hand-seeded ``scheduled`` — simply runs uncached, as
does everything after it; correctness never depends on the cache.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.errors import PipelineError
from repro.obs.metrics import registry
from repro.obs.tracer import current_tracer

from repro.pipeline.cache import ArtifactCache, CacheEntry, fingerprint, stable_hash
from repro.pipeline.context import PRODUCERS, CompilationContext
from repro.pipeline.passes import Pass, PassOutput
from repro.pipeline.report import PassRecord, PipelineReport

__all__ = ["PassManager", "collect_reports", "last_report", "publish_report"]

#: Per-pass progress event, delivered to ``run(..., progress=)``:
#: ``{"pass", "index", "total", "cache_hit", "seconds", "key"}``.
ProgressCallback = Callable[[dict[str, Any]], None]

#: Initial artifacts that can seed a cache chain (value-fingerprintable).
_INPUT_KEYS = ("source", "loop", "graph", "original_graph", "unwound")

_COLLECTORS: list[list[PipelineReport]] = []
_LAST_REPORT: list[PipelineReport] = []
# A forked child reports to its own collectors, not to copies of its
# parent's that nobody reads.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_COLLECTORS.clear)


@contextmanager
def collect_reports() -> Iterator[list[PipelineReport]]:
    """Collect every :class:`PipelineReport` produced inside the block.

    Used by the CLI to attach aggregated pipeline telemetry to each
    subcommand's ``--json`` export, however many compilations the
    command triggered.
    """
    sink: list[PipelineReport] = []
    _COLLECTORS.append(sink)
    try:
        yield sink
    finally:
        # remove by identity, not equality: nested collectors routinely
        # hold equal report lists (e.g. the campaign runner's per-cell
        # collector inside the CLI's command-level one), and
        # list.remove() would pop the wrong sink.
        for i, s in enumerate(_COLLECTORS):
            if s is sink:
                del _COLLECTORS[i]
                break


def last_report() -> PipelineReport | None:
    """The most recent report produced by any PassManager, if any."""
    return _LAST_REPORT[-1] if _LAST_REPORT else None


def publish_report(report: PipelineReport) -> None:
    """Make ``report`` the last report and add it to every collector.

    Every :meth:`PassManager.run` publishes its report; the serve
    daemon publishes the reports its worker processes ship home.
    """
    _LAST_REPORT.append(report)
    del _LAST_REPORT[:-1]
    for sink in _COLLECTORS:
        sink.append(report)


class PassManager:
    """Runs a fixed sequence of passes over compilation contexts.

    Parameters
    ----------
    passes:
        The passes, in execution order.
    cache:
        An :class:`~repro.pipeline.cache.ArtifactCache`, or ``None``
        to disable caching entirely.
    """

    def __init__(
        self, passes: Sequence[Pass], *, cache: ArtifactCache | None = None
    ) -> None:
        if not passes:
            raise PipelineError("PassManager needs at least one pass")
        self.passes = list(passes)
        self.cache = cache

    # ------------------------------------------------------------------
    def validate(self, available: set[str]) -> None:
        """Check pass ordering against an initial artifact set."""
        have = set(available)
        for p in self.passes:
            missing = [k for k in p.requires if k not in have]
            if missing:
                hints = sorted(
                    {
                        PRODUCERS[k]
                        for k in missing
                        if k in PRODUCERS
                    }
                )
                hint = (
                    f"; run {', '.join(hints)} earlier in the pipeline "
                    "or seed the context with the artifact"
                    if hints
                    else ""
                )
                raise PipelineError(
                    f"{p.name} requires artifact(s) "
                    f"{', '.join(repr(k) for k in missing)} not produced "
                    f"by any earlier pass{hint}"
                )
            have.update(p.provides)

    # ------------------------------------------------------------------
    def chain_keys(self, ctx: CompilationContext) -> list[str]:
        """Every pass's content-addressed chain key, *without* running.

        Pass fingerprints depend only on the context's inputs (seeded
        artifacts, machine, name) and each pass's configuration, so
        the full chain is known at admission time — the serve daemon
        uses the final element to deduplicate and cache whole requests
        before any work is scheduled.
        """
        seeded = [k for k in _INPUT_KEYS if k in ctx.artifacts]
        chain = stable_hash(
            "seed",
            *[f"{k}={fingerprint(ctx.artifacts[k])}" for k in seeded],
        )
        keys: list[str] = []
        for p in self.passes:
            chain = stable_hash(chain, p.name, p.cache_fingerprint(ctx))
            keys.append(chain)
        return keys

    def chain_key(self, ctx: CompilationContext) -> str:
        """The final chain key — the identity of the whole compilation."""
        return self.chain_keys(ctx)[-1]

    # ------------------------------------------------------------------
    def run(
        self,
        ctx: CompilationContext,
        *,
        progress: ProgressCallback | None = None,
    ) -> PipelineReport:
        """Execute (or cache-restore) every pass; returns the report.

        ``progress`` (optional) is invoked after every pass with a
        plain-dict event — what the serve daemon streams back to
        clients pass by pass.
        """
        self.validate(set(ctx.artifacts))

        keys = self.chain_keys(ctx)
        trusted = {k for k in _INPUT_KEYS if k in ctx.artifacts}
        ctx.cache, ctx.chain = self.cache, {}

        # The null tracer's span() returns a shared no-op object, so the
        # instrumentation below is allocation-free when tracing is off
        # (tests/test_obs.py::TestTracingOverhead pins this).
        tracer = current_tracer()
        records: list[PassRecord] = []
        total = len(self.passes)
        for index, (p, chain) in enumerate(zip(self.passes, keys)):
            chain_ok = all(k in trusted for k in p.requires)
            with tracer.span(p.name, "pass") as span:
                t0 = time.perf_counter()
                if self.cache is not None and chain_ok:
                    # The chain key names the pass output exactly, so a
                    # hit restores it without running the pass.
                    def compute(p=p):
                        out = PassOutput(p.name)
                        p.run(ctx, out)
                        return CacheEntry(
                            dict(out.artifacts),
                            dict(out.counters),
                            tuple(out.diagnostics),
                        )

                    entry, fresh = self.cache.get_or_compute(chain, compute)
                    cached = not fresh
                    ctx.artifacts.update(entry.artifacts)
                    ctx.diagnostics.extend(entry.diagnostics)
                    counters = dict(entry.counters)
                    trusted.update(entry.artifacts)
                else:
                    out = PassOutput(p.name)
                    p.run(ctx, out)
                    cached = False
                    ctx.artifacts.update(out.artifacts)
                    ctx.diagnostics.extend(out.diagnostics)
                    counters = dict(out.counters)
                    if chain_ok:
                        trusted.update(out.artifacts)
                if chain_ok:
                    ctx.chain[p.name] = (p, chain)
                seconds = time.perf_counter() - t0
                records.append(PassRecord(p.name, seconds, cached, counters))
                span.set("cache_hit", cached)
                if tracer.enabled:
                    reg = registry()
                    if cached:
                        reg.counter("pipeline.cache_hits").inc()
                    else:
                        reg.counter("pipeline.passes_executed").inc()
                    reg.histogram(f"pass.{p.name}.seconds").observe(seconds)
            if progress is not None:
                progress(
                    {
                        "pass": p.name,
                        "index": index,
                        "total": total,
                        "cache_hit": cached,
                        "seconds": seconds,
                        "key": chain,
                    }
                )

        report = PipelineReport(
            passes=tuple(records), diagnostics=tuple(ctx.diagnostics)
        )
        ctx.report = report
        publish_report(report)
        return report
