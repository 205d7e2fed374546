"""Sharded, fault-tolerant execution of experiment campaigns.

:func:`run_campaign` fans a list of :class:`~repro.runner.cells.Cell`
out over a ``ProcessPoolExecutor`` and merges the per-cell payloads
back *in cell order*, so the result is deterministic regardless of
worker count, completion order, retries or sharding — the property
``run_table1``/``run_comm_sweep`` rely on to stay bit-identical to
their historical serial implementations.

Failure semantics (per cell):

* an exception inside the cell is caught in the worker and shipped
  home as a failed payload — it never tears down the pool;
* a worker *crash* (``BrokenProcessPool``) or a cell exceeding
  ``cell_timeout`` abandons the current pool — surviving results are
  kept and the hung/crashed workers are killed.  Only a cell a worker
  had begun can have broken the pool: each such cell is re-run alone,
  so the crash or hang is charged to the cell that caused it, and the
  cells that never started are resubmitted to a fresh pool within the
  same attempt;
* every cell gets at most ``1 + retries`` attempts; cells still
  failing land in :attr:`CampaignResult.failed_cells` and the campaign
  returns a *partial* result instead of raising.

Observability: each cell records wall time, worker pid, attempt count
and its aggregated pipeline telemetry (pass runs / cache hits /
seconds, via :func:`repro.pipeline.report.aggregate_reports`); the
campaign merges them with
:func:`repro.pipeline.report.merge_aggregated` and exposes the whole
story through :meth:`CampaignResult.to_dict` — which the CLI writes as
``BENCH_campaign.json``.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import CampaignError, ReproError
from repro.obs.metrics import registry
from repro.obs.tracer import Tracer, current_tracer, replant, use_tracer
from repro.pipeline.cache import default_cache, set_default_cache
from repro.pipeline.report import (
    _pass_histogram,
    aggregate_reports,
    merge_aggregated,
)
from repro.runner.cells import Cell, execute_cell
from repro.runner.diskcache import DiskCache, TieredCache
from repro.runner.journal import CellJournal, campaign_key

__all__ = [
    "CampaignResult",
    "CellResult",
    "backoff_wave",
    "parse_shard",
    "run_campaign",
]


@dataclass(frozen=True)
class CellResult:
    """Outcome of one cell: payload or failure, plus instrumentation.

    ``resumed`` marks a cell replayed from the write-ahead journal
    instead of executed this run: its value/seconds/pid come from the
    journal record, its ``pipeline`` telemetry is empty (the cell ran
    zero pipeline passes this run).
    """

    cell: Cell
    index: int
    ok: bool
    value: Any = None
    error: str | None = None
    seconds: float = 0.0
    attempts: int = 1
    worker_pid: int | None = None
    pipeline: Mapping[str, Any] = field(default_factory=dict)
    resumed: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "cell": self.cell.cell_id,
            "index": self.index,
            "ok": self.ok,
            "value": self.value,
            "error": self.error,
            "seconds": round(self.seconds, 6),
            "attempts": self.attempts,
            "worker_pid": self.worker_pid,
            "cache_hits": self.pipeline.get("cache_hits", 0),
            "pipelines": self.pipeline.get("pipelines", 0),
            "resumed": self.resumed,
        }


@dataclass(frozen=True)
class CampaignResult:
    """Deterministic merge of a campaign's cells (possibly partial)."""

    cells: tuple[Cell, ...]  #: the full campaign, before sharding
    results: tuple[CellResult, ...]  #: executed cells, in cell order
    workers: int
    shard: tuple[int, int] | None
    wall_seconds: float
    cache_dir: str | None
    backoffs: tuple[float, ...] = ()  #: sleep before each retry wave
    capped_backoffs: int = 0  #: retry waves whose delay hit the cap
    journal: Mapping[str, Any] | None = None  #: journal stats, if enabled

    @property
    def ok(self) -> bool:
        return not self.failed_cells

    @property
    def failed_cells(self) -> tuple[CellResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    @property
    def completed(self) -> tuple[CellResult, ...]:
        return tuple(r for r in self.results if r.ok)

    @property
    def resumed_cells(self) -> tuple[CellResult, ...]:
        return tuple(r for r in self.results if r.resumed)

    def value(self, cell: Cell) -> Any:
        """The payload of ``cell``; raises if it failed or was sharded out."""
        for r in self.results:
            if r.cell == cell:
                if not r.ok:
                    raise CampaignError(
                        f"cell {cell.cell_id} failed: {r.error}"
                    )
                return r.value
        raise CampaignError(
            f"cell {cell.cell_id} was not executed (sharded out?)"
        )

    def pipeline_summary(self) -> dict[str, Any]:
        """All cells' pipeline telemetry merged into one aggregate."""
        return merge_aggregated(r.pipeline for r in self.results if r.pipeline)

    def histograms(self) -> dict[str, Any]:
        """Latency distributions over the executed cells.

        ``cell_seconds`` summarizes every successful cell's wall time
        (count/mean/min/max/p50/p95/p99); ``by_kind`` breaks the same
        summary down per cell kind.
        """
        ok = [r for r in self.results if r.ok]
        by_kind: dict[str, list[float]] = {}
        for r in ok:
            by_kind.setdefault(r.cell.kind, []).append(r.seconds)
        return {
            "cell_seconds": _pass_histogram([r.seconds for r in ok]),
            "by_kind": {
                kind: _pass_histogram(samples)
                for kind, samples in sorted(by_kind.items())
            },
        }

    def raise_on_failure(self) -> "CampaignResult":
        if self.failed_cells:
            failed = ", ".join(r.cell.cell_id for r in self.failed_cells)
            first = self.failed_cells[0]
            raise CampaignError(
                f"{len(self.failed_cells)}/{len(self.results)} campaign "
                f"cells failed after {first.attempts} attempt(s): {failed} "
                f"(first error: {first.error})"
            )
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready export: deterministic payloads + run statistics.

        ``cells`` holds only reproducible content (ids, payloads) so
        two runs with different worker counts compare bit-identically;
        timing, pids and cache behaviour live under ``stats``.
        """
        return {
            "cells": [
                {"cell": r.cell.cell_id, "ok": r.ok, "value": r.value}
                for r in self.results
            ],
            "failed_cells": [r.cell.cell_id for r in self.failed_cells],
            "stats": {
                "workers": self.workers,
                "shard": (
                    f"{self.shard[0]}/{self.shard[1]}" if self.shard else None
                ),
                "cache_dir": self.cache_dir,
                "wall_seconds": round(self.wall_seconds, 6),
                "retry_backoffs": [round(b, 6) for b in self.backoffs],
                "capped_backoffs": self.capped_backoffs,
                "executed_cells": len(self.results),
                "campaign_cells": len(self.cells),
                "resumed_cells": len(self.resumed_cells),
                "journal": dict(self.journal) if self.journal else None,
                "per_cell": [r.to_dict() for r in self.results],
                "pipeline_report": self.pipeline_summary(),
                "histograms": self.histograms(),
            },
        }


def backoff_wave(
    base: float,
    attempt: int,
    pending_ids: Sequence[int],
    *,
    cap: float = 8.0,
) -> tuple[float, bool]:
    """Seconds to sleep before retry wave ``attempt``, plus cap status.

    Exponential (``base * 2**(attempt-2)``) with *deterministic* jitter
    in ``[0.5, 1.5) x nominal``, derived by hashing the attempt number
    and the pending cell indices — no clock or RNG state, so two runs
    of the same campaign back off identically, while distinct retry
    waves (different survivors) decorrelate.  Capped at ``cap``; the
    second element reports whether the cap clamped the jittered delay,
    so long chaos soaks can tell exponential backoff from a saturated
    (clamped) one (``stats.capped_backoffs``).
    """
    nominal = base * 2 ** (attempt - 2)
    text = f"{attempt}|{','.join(map(str, pending_ids))}"
    h = hashlib.blake2b(text.encode(), digest_size=8).digest()
    jitter = 0.5 + int.from_bytes(h, "big") / 2**64
    jittered = nominal * jitter
    return min(cap, jittered), jittered > cap


def parse_shard(spec: str) -> tuple[int, int]:
    """Parse ``"i/n"`` (0-based shard index over n shards)."""
    try:
        index_s, total_s = spec.split("/", 1)
        index, total = int(index_s), int(total_s)
    except ValueError:
        raise ReproError(
            f"shard spec must look like 'i/n', got {spec!r}"
        ) from None
    if total < 1 or not 0 <= index < total:
        raise ReproError(
            f"shard index must satisfy 0 <= i < n, got {spec!r}"
        )
    return index, total


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _install_tiered_cache(cache_dir: str | None) -> None:
    if cache_dir:
        set_default_cache(TieredCache(DiskCache(cache_dir)))


# Per-pool flags, one byte per cell index, set when a worker begins a
# cell; lets the parent tell the cells that may have broken a pool from
# the ones that never ran in it.
_STARTED: Any = None


def _worker_init(
    cache_dir: str | None, started: Any = None
) -> None:  # pragma: no cover - subprocess
    global _STARTED
    _STARTED = started
    _install_tiered_cache(cache_dir)


def _pool_task(
    index: int, cell: Cell, trace: bool = False
) -> dict[str, Any]:  # pragma: no cover - subprocess
    if _STARTED is not None:
        _STARTED[index] = 1
    return _cell_task(cell, trace)


def _cell_task(cell: Cell, trace: bool = False) -> dict[str, Any]:
    """Run one cell; always returns a picklable outcome dict.

    Cell-level exceptions are converted to data here so they ride the
    normal result channel — only worker death or a timeout surfaces as
    a future-level failure in the parent.

    With ``trace=True`` the cell runs under a fresh local
    :class:`~repro.obs.tracer.Tracer` whose span bundle (one root span
    for the attempt, named by the cell kind with ``cell_id`` in its
    args, pass spans nested below) ships home in the payload for the
    parent to re-parent into the campaign trace.
    """
    from repro.pipeline.manager import collect_reports

    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    try:
        with collect_reports() as reports:
            if tracer is not None:
                with use_tracer(tracer), tracer.span(cell.kind, "cell") as sp:
                    sp.set("cell_id", cell.cell_id)
                    value = execute_cell(cell)
            else:
                value = execute_cell(cell)
        return {
            "ok": True,
            "value": value,
            "seconds": time.perf_counter() - t0,
            "pid": os.getpid(),
            "pipeline": aggregate_reports(reports),
            "spans": tracer.to_payload() if tracer is not None else None,
        }
    except Exception as exc:
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "seconds": time.perf_counter() - t0,
            "pid": os.getpid(),
            "pipeline": {},
            "spans": tracer.to_payload() if tracer is not None else None,
        }


def _result_from_payload(
    cell: Cell, index: int, payload: Mapping[str, Any], attempts: int
) -> CellResult:
    return CellResult(
        cell=cell,
        index=index,
        ok=bool(payload["ok"]),
        value=payload.get("value"),
        error=payload.get("error"),
        seconds=payload.get("seconds", 0.0),
        attempts=attempts,
        worker_pid=payload.get("pid"),
        pipeline=payload.get("pipeline", {}),
    )


def _resumed_result(
    cell: Cell, index: int, payload: Mapping[str, Any]
) -> CellResult:
    """A journaled completion replayed into the merge.

    Value, wall seconds, pid and attempt count come from the journal
    record (they describe the run that actually executed the cell);
    the pipeline telemetry is empty — this run executed zero passes
    for the cell, which is what ``stats.per_cell[...].pipelines == 0``
    asserts in the resume smoke.
    """
    return CellResult(
        cell=cell,
        index=index,
        ok=True,
        value=payload.get("value"),
        seconds=float(payload.get("seconds", 0.0)),
        attempts=int(payload.get("attempts", 1)),
        worker_pid=payload.get("pid"),
        pipeline={},
        resumed=True,
    )


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def _abandon_pool(ex: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*: kill workers, then reap them.

    Used after a timeout or crash — a hung worker would otherwise keep
    running (and keep interpreter shutdown hostage via the executor's
    atexit join).  Killing is safe: every cell is independent and
    idempotent, and the disk cache tier writes atomically.
    """
    for proc in list(getattr(ex, "_processes", {}).values()):
        try:
            proc.kill()
        except Exception:
            pass
    ex.shutdown(wait=True, cancel_futures=True)


def _pool_round(
    cells: Sequence[Cell],
    indices: Sequence[int],
    workers: int,
    cache_dir: str | None,
    cell_timeout: float | None,
    trace: bool,
    collected: Any,
) -> tuple[dict[int, str], dict[int, str], set[int]]:
    """Run ``indices`` in one fresh pool, passing each payload to
    ``collected(index, payload)`` as it arrives.

    Returns (failed, lost, started): ``failed`` maps the cells charged
    with this attempt (a timeout, a submission error) to the reason;
    ``lost`` maps the cells a broken pool never returned to the reason;
    ``started`` holds the indices a worker had begun.
    """
    started = multiprocessing.RawArray("b", len(cells))
    failed: dict[int, str] = {}
    lost: dict[int, str] = {}
    ex = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_worker_init,
        initargs=(cache_dir, started),
    )
    broken = False
    try:
        futures = {
            i: ex.submit(_pool_task, i, cells[i], trace) for i in indices
        }
        for i, fut in futures.items():
            if broken:
                # Pool already abandoned: salvage whatever finished.
                if fut.done():
                    try:
                        collected(i, fut.result(timeout=0))
                        continue
                    except Exception:
                        pass
                lost.setdefault(i, "worker pool abandoned")
                continue
            try:
                collected(i, fut.result(timeout=cell_timeout))
            except concurrent.futures.TimeoutError:
                failed[i] = f"cell exceeded timeout of {cell_timeout}s"
                broken = True
            except BrokenProcessPool:
                lost[i] = "worker process crashed"
                broken = True
            except Exception as exc:  # submission/pickling trouble
                failed[i] = f"{type(exc).__name__}: {exc}"
            except BaseException:
                # SIGTERM/SIGINT (or another non-cell exception) while
                # waiting: kill the pool on the way out instead of
                # blocking in shutdown(wait=True) on cells nobody will
                # collect — the CLI's graceful-shutdown path needs to
                # flush artifacts and exit promptly.
                broken = True
                raise
    finally:
        if broken:
            _abandon_pool(ex)
        else:
            ex.shutdown(wait=True)
    return failed, lost, {i for i in indices if started[i]}


def _parallel_wave(
    cells: Sequence[Cell],
    indices: Sequence[int],
    workers: int,
    cache_dir: str | None,
    cell_timeout: float | None,
    trace: bool = False,
    on_payload: Any = None,
) -> tuple[dict[int, dict[str, Any]], dict[int, str]]:
    """One attempt at ``indices``. Returns (payloads by index, unfinished).

    ``on_payload(index, payload)`` fires as each result is collected in
    the parent — the write-ahead journal hook, called before the wave
    (let alone the campaign) finishes so a crash mid-wave keeps every
    collected cell.

    A broken pool fails every cell it had not returned, but only a cell
    a worker had begun can have broken it.  Each of those is re-run
    alone, so the crash or hang is charged to the cell that caused it;
    the cells that never started go to a fresh pool, uncharged.
    """
    payloads: dict[int, dict[str, Any]] = {}
    unfinished: dict[int, str] = {}

    def collected(i: int, payload: dict[str, Any]) -> None:
        payloads[i] = payload
        if on_payload is not None:
            on_payload(i, payload)

    todo = list(indices)
    while todo:
        failed, lost, started = _pool_round(
            cells, todo, workers, cache_dir, cell_timeout, trace, collected
        )
        unfinished.update(failed)
        suspects = [i for i in lost if i in started]
        for i in suspects:
            alone_failed, alone_lost, _ = _pool_round(
                cells, [i], 1, cache_dir, cell_timeout, trace, collected
            )
            unfinished.update(alone_failed)
            unfinished.update(alone_lost)
        todo = [i for i in lost if i not in started]
        if todo and not (failed or suspects):
            # The pool broke outside any cell (say, in the worker
            # initializer): charge everyone rather than loop.
            unfinished.update((i, lost[i]) for i in todo)
            break
    return payloads, unfinished


def run_campaign(
    cells: Sequence[Cell],
    *,
    workers: int = 1,
    cache_dir: str | None = None,
    cell_timeout: float | None = None,
    retries: int = 1,
    retry_backoff: float = 0.25,
    shard: tuple[int, int] | str | None = None,
    tracer: Tracer | None = None,
    journal_dir: str | None = None,
    resume: bool = True,
) -> CampaignResult:
    """Execute a campaign; returns a (possibly partial) merged result.

    Parameters
    ----------
    workers:
        ``1`` runs every cell in-process, in order — exactly the
        historical serial behaviour; ``N > 1`` fans out over a process
        pool.
    cache_dir:
        Directory for the shared on-disk artifact cache tier.  With it,
        workers share scheduler results and a warm re-run executes zero
        scheduler passes; without it each process only has its
        in-memory cache.
    cell_timeout:
        Per-cell wall-clock budget in seconds (``None``: no limit).
    retries:
        Extra attempts for cells that failed, crashed or timed out.
    retry_backoff:
        Base seconds of the exponential backoff slept before each
        retry wave (see :func:`backoff_wave`); ``0`` restores the old
        immediate-retry behaviour.  Each wave's actual delay is
        recorded in the campaign span args (``backoff.attemptN``) and
        in ``stats.retry_backoffs``.
    shard:
        ``(i, n)`` or ``"i/n"``: execute only cells whose campaign
        index is congruent to ``i`` mod ``n`` — for spreading one
        campaign across machines/CI jobs.
    tracer:
        Tracing destination; defaults to the process-local current
        tracer (the no-op :class:`~repro.obs.tracer.NullTracer` unless
        tracing was enabled).  With an enabled tracer, every cell
        attempt records a span bundle in its executing process; the
        parent re-parents the bundles under one campaign span with
        attempt/pid/timeout metadata, so ``repro-mimd campaign
        --trace-out`` yields a single coherent Perfetto timeline.
    journal_dir:
        Directory for the write-ahead cell journal (see
        :mod:`repro.runner.journal`).  Every completed cell's payload
        is durably appended before it enters the merge, so a campaign
        killed at any point can be re-run with the same ``journal_dir``
        and only the unfinished cells execute — the merged result
        (and any report derived from the deterministic payloads) is
        byte-identical to an uninterrupted run.
    resume:
        With ``journal_dir``, replay journaled completions instead of
        re-executing them (default).  ``False`` ignores existing
        records but still journals this run's completions.
    """
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise ReproError(f"retries must be >= 0, got {retries}")
    if retry_backoff < 0:
        raise ReproError(
            f"retry_backoff must be >= 0, got {retry_backoff}"
        )
    if isinstance(shard, str):
        shard = parse_shard(shard)

    cells = tuple(cells)
    selected = [
        i
        for i in range(len(cells))
        if shard is None or i % shard[1] == shard[0]
    ]

    if tracer is None:
        tracer = current_tracer()  # NullTracer unless tracing enabled
    trace = tracer.enabled

    t0 = time.perf_counter()
    results: dict[int, CellResult] = {}
    last_error: dict[int, str] = {}
    backoffs: list[float] = []
    capped_backoffs = 0
    attempt = 0
    journal = (
        CellJournal.open(journal_dir, campaign_key(cells), shard=shard)
        if journal_dir is not None
        else None
    )
    journal_info: dict[str, Any] | None = None

    def _journal_payload(i: int, payload: Mapping[str, Any]) -> None:
        """Write-ahead hook: journal a completed cell as it arrives."""
        if journal is None or not payload.get("ok"):
            return
        journal.append(
            cells[i].cell_id,
            {
                "value": payload.get("value"),
                "seconds": round(float(payload.get("seconds", 0.0)), 6),
                "pid": payload.get("pid"),
                "attempts": attempt,
            },
        )

    with tracer.span("campaign", "campaign") as campaign_span:
        campaign_span.set("workers", workers)
        campaign_span.set("cells", len(selected))
        campaign_span.set("cache_dir", cache_dir)
        if journal is not None:
            with tracer.span("recover", "journal") as jspan:
                recovery = journal.recover()
                if resume:
                    for i in selected:
                        payload = recovery.payloads.get(cells[i].cell_id)
                        if payload is not None:
                            results[i] = _resumed_result(
                                cells[i], i, payload
                            )
                resumed_now = len(results)
                jspan.set("path", journal.path)
                jspan.set("records", recovery.records)
                jspan.set("torn_tail", recovery.torn_tail)
                jspan.set("resumed", resumed_now)
            if resumed_now:
                registry().counter("runner.resumed_cells").inc(resumed_now)
            campaign_span.set("journal", journal.path)
            campaign_span.set("journal.resumed", resumed_now)
            journal_info = {
                "path": journal.path,
                "records": recovery.records,
                "torn_tail": recovery.torn_tail,
                "resumed_cells": resumed_now,
            }
        pending = [i for i in selected if i not in results]
        while pending and attempt <= retries:
            attempt += 1
            if attempt > 1 and retry_backoff > 0:
                delay, capped = backoff_wave(
                    retry_backoff, attempt, sorted(pending)
                )
                campaign_span.set(f"backoff.attempt{attempt}", round(delay, 6))
                backoffs.append(delay)
                capped_backoffs += capped
                time.sleep(delay)
            if workers == 1:
                payloads: dict[int, dict[str, Any]] = {}
                unfinished: dict[int, str] = {}
                prev = default_cache()
                _install_tiered_cache(cache_dir)
                try:
                    for i in pending:
                        payloads[i] = _cell_task(cells[i], trace)
                        _journal_payload(i, payloads[i])
                finally:
                    if cache_dir:
                        set_default_cache(prev)
            else:
                payloads, unfinished = _parallel_wave(
                    cells,
                    pending,
                    workers,
                    cache_dir,
                    cell_timeout,
                    trace,
                    on_payload=_journal_payload,
                )
            still: list[int] = []
            for i in pending:
                if i in payloads:
                    res = _result_from_payload(
                        cells[i], i, payloads[i], attempt
                    )
                    if trace:
                        replant(
                            tracer,
                            campaign_span,
                            payloads[i].get("spans"),
                            root_args={
                                "attempt": attempt,
                                "pid": res.worker_pid,
                                "timeout": cell_timeout,
                                "ok": res.ok,
                            },
                        )
                    if res.ok:
                        results[i] = res
                    else:
                        results[i] = res  # kept in case this was the last try
                        last_error[i] = res.error or "cell failed"
                        still.append(i)
                else:
                    last_error[i] = unfinished.get(i, "cell never ran")
                    results[i] = CellResult(
                        cell=cells[i],
                        index=i,
                        ok=False,
                        error=last_error[i],
                        attempts=attempt,
                    )
                    if trace:
                        # The worker never reported (crash/timeout): the
                        # attempt still gets its span, marked and
                        # zero-length, so trace and results agree on the
                        # attempt count.
                        with tracer.span(cells[i].kind, "cell") as sp:
                            sp.set("cell_id", cells[i].cell_id)
                            sp.set("attempt", attempt)
                            sp.set("timeout", cell_timeout)
                            sp.set("ok", False)
                            sp.set("error", last_error[i])
                    still.append(i)
            pending = still

    return CampaignResult(
        cells=cells,
        results=tuple(results[i] for i in sorted(results)),
        workers=workers,
        shard=shard,
        wall_seconds=time.perf_counter() - t0,
        cache_dir=cache_dir,
        backoffs=tuple(backoffs),
        capped_backoffs=capped_backoffs,
        journal=journal_info,
    )
