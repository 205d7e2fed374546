"""Unified compilation pipeline (PassManager + artifact caching).

One place to run, time, cache and diagnose the whole Kim & Nicolau
flow.  Typical use::

    from repro import Machine
    from repro.pipeline import CompilationContext, build_pipeline

    ctx = CompilationContext.from_source(SOURCE, Machine(processors=4))
    pm = build_pipeline(source=True, iterations=100)
    report = pm.run(ctx)

    ctx.scheduled                  # ScheduledLoop / CombinedLoop
    ctx.evaluation.makespan()      # timed program
    print(report.format())         # per-pass wall time + cache hits
    ctx.warnings()                 # structured diagnostics

Repeat compilations of the same (source, machine, options) hit the
process-wide artifact cache and execute zero scheduler passes — the
``repro-mimd stages`` subcommand demonstrates this, and
``tests/test_pipeline.py::TestCaching`` pins it over the workload
suite.

The legacy entry points (:func:`repro.core.scheduler.schedule_loop`,
:func:`repro.core.normalized.schedule_any_loop`) are thin wrappers over
this module, so every consumer shares the cache and instrumentation.
"""

from __future__ import annotations

from repro.machine.model import Machine

from repro.pipeline.cache import (
    ArtifactCache,
    default_cache,
    fingerprint,
    machine_compile_fingerprint,
    machine_runtime_fingerprint,
)
from repro.pipeline.context import CompilationContext
from repro.pipeline.manager import PassManager, collect_reports
from repro.pipeline.passes import (
    BuildDDGPass,
    ClassifyPass,
    CyclicSchedPass,
    EmitPass,
    EvaluatePass,
    FlowIOSchedPass,
    IfConvertPass,
    NormalizePass,
    ParsePass,
    Pass,
    PassOutput,
    STANDARD_PASSES,
)
from repro.pipeline.report import (
    Diagnostic,
    PassRecord,
    PipelineReport,
    aggregate_reports,
    merge_aggregated,
)

__all__ = [
    "ArtifactCache",
    "BuildDDGPass",
    "ClassifyPass",
    "CompilationContext",
    "CyclicSchedPass",
    "Diagnostic",
    "EmitPass",
    "EvaluatePass",
    "FlowIOSchedPass",
    "IfConvertPass",
    "NormalizePass",
    "ParsePass",
    "Pass",
    "PassManager",
    "PassOutput",
    "PassRecord",
    "PipelineReport",
    "STANDARD_PASSES",
    "aggregate_reports",
    "build_pipeline",
    "collect_reports",
    "compile_graph",
    "compile_source",
    "default_cache",
    "fingerprint",
    "frontend_passes",
    "machine_compile_fingerprint",
    "machine_runtime_fingerprint",
    "merge_aggregated",
    "scheduling_passes",
]

#: sentinel: "use the process-wide default cache"
_DEFAULT = object()


def frontend_passes() -> list[Pass]:
    """``source`` -> ``graph``: parse, if-convert, dependence analysis."""
    return [ParsePass(), IfConvertPass(), BuildDDGPass()]


def scheduling_passes(
    *,
    ordering: str = "asap",
    tie_break: str = "idle",
    folding: str = "auto",
    max_instances: int | None = None,
    max_iteration_lead: int = 8,
) -> list[Pass]:
    """``graph`` -> ``scheduled``: the paper's three-stage scheduler."""
    return [
        ClassifyPass(),
        CyclicSchedPass(
            ordering=ordering,
            tie_break=tie_break,
            max_instances=max_instances,
            max_iteration_lead=max_iteration_lead,
        ),
        FlowIOSchedPass(folding=folding),
    ]


def build_pipeline(
    *,
    source: bool = False,
    normalize: bool = False,
    iterations: int | None = None,
    use_runtime: bool = False,
    emit: bool = False,
    cache: ArtifactCache | None | object = _DEFAULT,
    ordering: str = "asap",
    tie_break: str = "idle",
    folding: str = "auto",
    max_instances: int | None = None,
    max_iteration_lead: int = 8,
) -> PassManager:
    """Assemble the standard pipeline.

    Parameters
    ----------
    source:
        Include the front end (context seeded with mini-language text).
    normalize:
        Include :class:`NormalizePass` (arbitrary dependence
        distances; the result is a ``NormalizedSchedule``).
    iterations:
        When given, append :class:`EvaluatePass` for that trip count.
    use_runtime:
        Charge run-time (possibly fluctuating) communication costs in
        the evaluation instead of the compile-time estimate.
    emit:
        Append :class:`EmitPass` (partitioned pseudo-code).
    cache:
        ``ArtifactCache`` to use; defaults to the process-wide cache.
        Pass ``None`` to disable caching.
    """
    passes: list[Pass] = []
    if source:
        passes += frontend_passes()
    if normalize:
        passes.append(NormalizePass())
    passes += scheduling_passes(
        ordering=ordering,
        tie_break=tie_break,
        folding=folding,
        max_instances=max_instances,
        max_iteration_lead=max_iteration_lead,
    )
    if emit:
        passes.append(EmitPass())
    if iterations is not None:
        passes.append(EvaluatePass(iterations=iterations, use_runtime=use_runtime))
    resolved = default_cache() if cache is _DEFAULT else cache
    return PassManager(passes, cache=resolved)


def compile_source(
    source_text: str,
    machine: Machine,
    *,
    name: str = "loop",
    normalize: bool = True,
    **options,
) -> CompilationContext:
    """One-call compilation from mini-language source; returns the
    context (schedule under ``.scheduled``, report under ``.report``)."""
    ctx = CompilationContext.from_source(source_text, machine, name=name)
    build_pipeline(source=True, normalize=normalize, **options).run(ctx)
    return ctx


def compile_graph(
    graph,
    machine: Machine,
    *,
    normalize: bool = False,
    **options,
) -> CompilationContext:
    """One-call compilation from a dependence graph."""
    ctx = CompilationContext.from_graph(graph, machine)
    build_pipeline(normalize=normalize, **options).run(ctx)
    return ctx
