"""Experiment cells: the unit of work a campaign fans out.

A :class:`Cell` is a small, picklable, value-semantics description of
one experiment configuration — e.g. Table 1's (seed, fluctuation
level) or the comm sweep's (true_k, seed).  Cells carry *parameters*,
never live objects: the worker process rebuilds the workload from the
parameters, which keeps the fan-out cheap to serialize and makes every
cell independently re-runnable (the basis of retry and sharding).

Cell *kinds* map a name to the function that executes it; the
built-in kinds cover the paper's campaign experiments, and
:func:`register_cell_kind` lets tests (or future experiments) add
their own.  Kind functions must return plain picklable data (dicts of
ints/floats/strings) — merge code on the parent side reassembles the
rich result objects deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

from repro.errors import ReproError
from repro.obs.metrics import registry
from repro.obs.tracer import current_tracer

__all__ = [
    "Cell",
    "execute_cell",
    "register_cell_kind",
    "sweep_cell",
    "table1_cell",
]


@dataclass(frozen=True, order=True)
class Cell:
    """One (kind, parameters) experiment configuration."""

    kind: str
    params: tuple[tuple[str, Any], ...]

    @classmethod
    def make(cls, kind: str, **params: Any) -> "Cell":
        return cls(kind, tuple(sorted(params.items())))

    @property
    def mapping(self) -> dict[str, Any]:
        return dict(self.params)

    @property
    def cell_id(self) -> str:
        """Stable human-readable identity, e.g. ``table1/mm=3/seed=7``."""
        parts = "/".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}/{parts}" if parts else self.kind


_CELL_KINDS: dict[str, Callable[[Mapping[str, Any]], Any]] = {}


def register_cell_kind(
    name: str,
) -> Callable[[Callable[[Mapping[str, Any]], Any]], Callable]:
    """Decorator registering an executor for cells of ``kind == name``.

    Registration happens at import time (or test-collection time), so
    worker processes started by fork inherit it; spawn-based workers
    see every kind registered at module import.
    """

    def deco(fn: Callable[[Mapping[str, Any]], Any]) -> Callable:
        _CELL_KINDS[name] = fn
        return fn

    return deco


def execute_cell(cell: Cell) -> Any:
    """Run one cell in the current process; returns its plain payload."""
    try:
        fn = _CELL_KINDS[cell.kind]
    except KeyError:
        raise ReproError(
            f"unknown cell kind {cell.kind!r} "
            f"(known: {', '.join(sorted(_CELL_KINDS))})"
        ) from None
    value = fn(cell.mapping)
    if current_tracer().enabled:
        registry().counter(f"cells.{cell.kind}.executed").inc()
    return value


# ----------------------------------------------------------------------
# built-in kinds
# ----------------------------------------------------------------------
def table1_cell(
    seed: int,
    mm: int,
    *,
    iterations: int,
    k: int = 3,
    processors: int = 8,
    mode: str = "worst",
) -> Cell:
    """One Table 1 cell: seed x fluctuation level."""
    return Cell.make(
        "table1",
        seed=seed,
        mm=mm,
        iterations=iterations,
        k=k,
        processors=processors,
        mode=mode,
    )


def sweep_cell(
    seed: int,
    true_k: int,
    *,
    estimate_k: int = 3,
    iterations: int,
    processors: int = 8,
) -> Cell:
    """One comm-sweep cell: schedule with ``estimate_k``, run at ``true_k``."""
    return Cell.make(
        "sweep",
        seed=seed,
        true_k=true_k,
        estimate_k=estimate_k,
        iterations=iterations,
        processors=processors,
    )


def _measure_payload(m) -> dict[str, Any]:
    return {
        "sp_ours": m.sp_ours,
        "sp_doacross": m.sp_doacross,
        "sequential": m.sequential,
        "ours": m.ours,
        "doacross": m.doacross,
        "fell_back": m.fell_back,
    }


def _random_cyclic_workload(seed: int, **machine: Any):
    """``random_cyclic_loop(seed, **machine)``, generated once per seed.

    The generated Cyclic subgraph depends only on the seed and the
    generator options (the defaults, for these cells), never on the
    machine.  So the loop is kept in the process-wide artifact cache,
    and every other cell of the seed builds only its own machine.
    """
    from repro.pipeline.cache import CacheEntry, default_cache, stable_hash
    from repro.workloads import random_cyclic_loop
    from repro.workloads.random_loops import table1_machine

    entry, _fresh = default_cache().get_or_compute(
        stable_hash("random-cyclic-loop", str(seed)),
        lambda: CacheEntry(
            {"workload": random_cyclic_loop(seed, **machine)}, {}, ()
        ),
    )
    return replace(
        entry.artifacts["workload"], machine=table1_machine(seed, **machine)
    )


@register_cell_kind("table1")
def _run_table1_cell(p: Mapping[str, Any]) -> dict[str, Any]:
    # Imported lazily: experiments.py itself delegates to this package.
    from repro.experiments import measure

    w = _random_cyclic_workload(
        p["seed"],
        k=p["k"],
        mm=p["mm"],
        mode=p["mode"],
        processors=p["processors"],
    )
    out = _measure_payload(measure(w, p["iterations"]))
    out["cyclic_nodes"] = len(w.graph)
    return out


@register_cell_kind("sweep")
def _run_sweep_cell(p: Mapping[str, Any]) -> dict[str, Any]:
    from repro.experiments import measure

    mm = max(1, p["true_k"] - p["estimate_k"] + 1)
    w = _random_cyclic_workload(
        p["seed"],
        k=p["estimate_k"],
        mm=mm,
        mode="worst",
        processors=p["processors"],
    )
    return _measure_payload(measure(w, p["iterations"]))


@register_cell_kind("fuzz")
def _run_fuzz_cell(p: Mapping[str, Any]) -> dict[str, Any]:
    """One contiguous range of fuzz cases (see ``repro.fuzz.campaign``)."""
    from repro.fuzz.campaign import run_fuzz_shard

    return run_fuzz_shard(p)


@register_cell_kind("_selftest")
def _run_selftest_cell(p: Mapping[str, Any]) -> dict[str, Any]:
    """Fault-injection kind used by tests and the CI smoke.

    ``action``: ``ok`` returns its echo; ``fail`` raises; ``crash``
    kills the worker process outright (exercises BrokenProcessPool
    recovery); ``hang`` sleeps past any sane timeout.
    """
    action = p.get("action", "ok")
    if action == "ok":
        return {"echo": p.get("echo")}
    if action == "fail":
        raise RuntimeError(f"selftest cell failed on purpose: {p}")
    if action == "crash":
        import os

        os._exit(13)
    if action == "hang":
        import time

        time.sleep(float(p.get("seconds", 3600)))
        return {"echo": "woke"}
    raise ReproError(f"unknown selftest action {action!r}")
