"""The named, composable compilation passes.

Each pass is a deterministic function from upstream artifacts (plus its
own configuration and the context's machine) to new artifacts.  Passes
declare ``requires``/``provides`` so :class:`~repro.pipeline.manager.
PassManager` can validate ordering up front, and implement
``cache_fingerprint`` so their outputs can be cached content-addressed
(see :mod:`repro.pipeline.cache`).

The full Kim & Nicolau flow, in order::

    ParsePass -> IfConvertPass -> BuildDDGPass -> [NormalizePass] ->
    ClassifyPass -> CyclicSchedPass -> FlowIOSchedPass ->
    [EmitPass] [EvaluatePass]

The scheduling trio reuses the library's primitive algorithms
(:func:`repro.core.classify.classify`,
:func:`repro.core.cyclic.schedule_cyclic`,
:func:`repro.core.flowio.plan_noncyclic`) — the passes only add
composition, instrumentation, diagnostics and caching; the legacy
``schedule_loop`` / ``schedule_any_loop`` wrappers delegate here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, TYPE_CHECKING

from repro.errors import SchedulingError
from repro.pipeline.cache import (
    ArtifactCache,
    CacheEntry,
    machine_compile_fingerprint,
    machine_runtime_fingerprint,
    stable_hash,
)
from repro.pipeline.context import CompilationContext
from repro.pipeline.report import Diagnostic

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.ddg import DependenceGraph
    from repro.sim.fastpath import LoweredProgram

__all__ = [
    "Pass",
    "PassOutput",
    "ParsePass",
    "IfConvertPass",
    "BuildDDGPass",
    "NormalizePass",
    "ClassifyPass",
    "CyclicSchedPass",
    "FlowIOSchedPass",
    "EmitPass",
    "EvaluatePass",
    "STANDARD_PASSES",
    "lowered_program",
]


@dataclass
class PassOutput:
    """What one pass execution produced (artifacts + instrumentation)."""

    origin: str
    artifacts: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, Any] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def info(self, message: str) -> None:
        self.diagnostics.append(Diagnostic("info", self.origin, message))

    def warn(self, message: str) -> None:
        self.diagnostics.append(Diagnostic("warning", self.origin, message))


class Pass:
    """Base class: a named transformation of the compilation context."""

    #: artifact keys that must exist before the pass runs
    requires: tuple[str, ...] = ()
    #: artifact keys the pass writes
    provides: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return type(self).__name__

    def cache_fingerprint(self, ctx: CompilationContext) -> str:
        """Everything beyond upstream artifacts the output depends on."""
        return ""

    def run(self, ctx: CompilationContext, out: PassOutput) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# front end
# ----------------------------------------------------------------------
class ParsePass(Pass):
    """``source`` -> ``loop`` (mini-language parser)."""

    requires = ("source",)
    provides = ("loop",)

    def cache_fingerprint(self, ctx: CompilationContext) -> str:
        return f"name={ctx.name}"

    def run(self, ctx: CompilationContext, out: PassOutput) -> None:
        from repro.lang.parser import parse_loop

        loop = parse_loop(ctx.get("source"), name=ctx.name)
        out.artifacts["loop"] = loop
        out.counters["statements"] = len(loop.body)


class IfConvertPass(Pass):
    """``loop`` -> ``loop`` with conditionals converted to selects."""

    requires = ("loop",)
    provides = ("loop",)

    def run(self, ctx: CompilationContext, out: PassOutput) -> None:
        from repro.lang.ifconvert import if_convert

        loop = ctx.get("loop")
        converted = if_convert(loop)
        out.artifacts["loop"] = converted
        out.counters["statements"] = len(converted.body)
        if loop.has_conditionals():
            out.info("conditionals if-converted to SELECT form")


class BuildDDGPass(Pass):
    """``loop`` -> ``graph`` (dependence analysis)."""

    requires = ("loop",)
    provides = ("graph",)

    def run(self, ctx: CompilationContext, out: PassOutput) -> None:
        from repro.lang.dependence import build_graph

        graph = build_graph(ctx.get("loop"))
        out.artifacts["graph"] = graph
        out.counters["nodes"] = len(graph)
        out.counters["edges"] = len(graph.edges)


class NormalizePass(Pass):
    """Unwind ``graph`` until every dependence distance is 0 or 1.

    Keeps the pre-normalization graph as ``original_graph`` and the
    instance mapping as ``unwound`` so ``FlowIOSchedPass`` can express
    the final schedule in the original iteration space
    (:class:`repro.core.normalized.NormalizedSchedule`).
    """

    requires = ("graph",)
    provides = ("graph", "original_graph", "unwound")

    def run(self, ctx: CompilationContext, out: PassOutput) -> None:
        from repro.graph.unwind import normalize_distances

        graph = ctx.get("graph")
        graph.validate()
        unwound = normalize_distances(graph)
        out.artifacts["original_graph"] = graph
        out.artifacts["unwound"] = unwound
        out.artifacts["graph"] = unwound.graph
        out.counters["factor"] = unwound.factor
        out.counters["nodes"] = len(unwound.graph)
        if unwound.factor > 1:
            out.info(
                f"dependence distances up to {graph.max_distance()} "
                f"normalized by unwinding x{unwound.factor}"
            )


# ----------------------------------------------------------------------
# the paper's scheduler, as three passes
# ----------------------------------------------------------------------
class ClassifyPass(Pass):
    """Split the graph into components and Flow-in/Cyclic/Flow-out sets.

    Produces ``classification`` (whole graph) and ``components`` — a
    tuple of ``(component_graph, Classification)`` pairs the two
    scheduling passes iterate over, mirroring the paper's "separate the
    graph into several connected ones" prescription.
    """

    requires = ("graph",)
    provides = ("classification", "components")

    def run(self, ctx: CompilationContext, out: PassOutput) -> None:
        from repro.core.classify import classify
        from repro.graph.algorithms import connected_components

        graph = ctx.get("graph")
        graph.validate()
        if graph.max_distance() > 1:
            raise SchedulingError(
                f"dependence distance {graph.max_distance()} > 1; apply "
                "repro.graph.unwind.normalize_distances first"
            )
        comps = connected_components(graph)
        if len(comps) == 1:
            comp_graphs = [graph]
        else:
            comp_graphs = [graph.subgraph(c) for c in comps]
            out.info(
                f"graph splits into {len(comps)} independent components; "
                "each is scheduled separately (paper Section 2.1)"
            )
        components = tuple((g, classify(g)) for g in comp_graphs)
        classification = (
            components[0][1] if len(components) == 1 else classify(graph)
        )
        out.artifacts["classification"] = classification
        out.artifacts["components"] = components
        out.counters["components"] = len(components)
        out.counters["flow_in"] = len(classification.flow_in)
        out.counters["cyclic"] = len(classification.cyclic)
        out.counters["flow_out"] = len(classification.flow_out)
        for g, cls in components:
            if cls.is_doall:
                out.info(
                    f"component {g.name!r} has an empty Cyclic subset "
                    "(DOALL): iterations are independent"
                )


@dataclass
class CyclicSchedPass(Pass):
    """Greedy pattern scheduling of each component's Cyclic subgraph."""

    ordering: str = "asap"
    tie_break: str = "idle"
    max_instances: int | None = None
    max_iteration_lead: int = 8

    requires = ("components",)
    provides = ("cyclic_results",)

    def cache_fingerprint(self, ctx: CompilationContext) -> str:
        cfg = (
            f"{self.ordering}|{self.tie_break}|{self.max_instances}"
            f"|{self.max_iteration_lead}"
        )
        # The schedule can only observe the compile-time communication
        # estimate; run-time fluctuation never changes it, so Table 1's
        # fluctuation levels share one cached scheduling run per seed.
        return cfg + "|" + machine_compile_fingerprint(ctx.machine)

    def run(self, ctx: CompilationContext, out: PassOutput) -> None:
        from repro.core.cyclic import schedule_cyclic
        from repro.obs.metrics import registry
        from repro.obs.tracer import current_tracer

        results = []
        instances = windows = unrollings = 0
        memo_hits = rows_rolled = 0
        detect_seconds = total_seconds = 0.0
        periods = []
        for g, cls in ctx.get("components"):
            if cls.is_doall:
                results.append(None)
                continue
            result = schedule_cyclic(
                g.subgraph(cls.cyclic),
                ctx.machine,
                ordering=self.ordering,
                tie_break=self.tie_break,
                max_instances=self.max_instances,
                max_iteration_lead=self.max_iteration_lead,
            )
            results.append(result)
            instances += result.stats.instances_scheduled
            windows += result.stats.windows_hashed
            unrollings += result.stats.unrollings
            memo_hits += result.stats.memo_hits
            rows_rolled += result.stats.rows_rolled
            detect_seconds += result.stats.detect_seconds
            total_seconds += result.stats.total_seconds
            periods.append(result.pattern.period)
        detect_share = (
            round(detect_seconds / total_seconds, 4) if total_seconds else 0.0
        )
        out.artifacts["cyclic_results"] = tuple(results)
        out.counters["instances_scheduled"] = instances
        out.counters["windows_hashed"] = windows
        out.counters["unrollings"] = unrollings
        out.counters["memo_hits"] = memo_hits
        out.counters["rows_rolled"] = rows_rolled
        out.counters["detect_share"] = detect_share
        out.counters["pattern_periods"] = tuple(periods)
        if current_tracer().enabled:
            reg = registry()
            reg.counter("scheduler.instances_scheduled").inc(instances)
            reg.counter("scheduler.memo_hits").inc(memo_hits)
            reg.counter("scheduler.rows_rolled").inc(rows_rolled)
            reg.counter("scheduler.windows_hashed").inc(windows)
            reg.gauge("scheduler.detect_share").set(detect_share)


@dataclass
class FlowIOSchedPass(Pass):
    """Place the non-Cyclic subsets and assemble the final schedule.

    Applies the Section 3 folding heuristic (or Fig. 5's mod-p
    interleaving on extra processors) per component, combines multiple
    components into a :class:`~repro.core.scheduler.CombinedLoop`, and
    — when ``NormalizePass`` unwound the loop — wraps the result in a
    :class:`~repro.core.normalized.NormalizedSchedule` speaking the
    original iteration space.
    """

    folding: str = "auto"

    requires = ("graph", "components", "cyclic_results")
    provides = ("scheduled",)

    def cache_fingerprint(self, ctx: CompilationContext) -> str:
        # The assembled ScheduledLoop embeds the full Machine (the
        # DOALL program shape depends on the processor count, and the
        # object is handed back to callers), so key on all of it.
        return self.folding + "|" + machine_runtime_fingerprint(ctx.machine)

    def run(self, ctx: CompilationContext, out: PassOutput) -> None:
        from repro.core.flowio import (
            kernel_idle,
            plan_noncyclic,
            subset_latency,
        )
        from repro.core.normalized import NormalizedSchedule
        from repro.core.scheduler import CombinedLoop, ScheduledLoop

        machine = ctx.machine
        parts = []
        folded = extra = 0
        for (g, cls), result in zip(
            ctx.get("components"), ctx.get("cyclic_results")
        ):
            if result is None:
                parts.append(ScheduledLoop(g, machine, cls, None, None, None))
                continue
            plan = plan_noncyclic(
                g, cls, result.pattern, folding=self.folding
            )
            parts.append(
                ScheduledLoop(
                    g, machine, cls, result.pattern, plan, result.stats
                )
            )
            noncyclic = subset_latency(g, cls.flow_in) + subset_latency(
                g, cls.flow_out
            )
            if not noncyclic:
                continue
            if plan.fold_into is not None:
                folded += 1
                out.info(
                    f"component {g.name!r}: non-Cyclic ops folded into "
                    f"Cyclic processor {plan.fold_into} (Section 3)"
                )
            else:
                extra += plan.extra_processors
                if self.folding == "auto":
                    used = result.pattern.used_processors()
                    best = max(kernel_idle(result.pattern, j) for j in used)
                    need = noncyclic * result.pattern.iter_shift
                    out.warn(
                        f"component {g.name!r}: folding skipped — no idle "
                        f"Cyclic processor (best kernel idle {best} < "
                        f"required {need} cycles); using "
                        f"{plan.extra_processors} extra processor(s)"
                    )
        inner = (
            parts[0]
            if len(parts) == 1
            else CombinedLoop(ctx.get("graph"), machine, tuple(parts))
        )
        if "unwound" in ctx.artifacts:
            scheduled = NormalizedSchedule(
                ctx.get("original_graph"),
                machine,
                ctx.get("unwound"),
                inner,
            )
        else:
            scheduled = inner
        out.artifacts["scheduled"] = scheduled
        out.counters["components_folded"] = folded
        out.counters["extra_processors"] = extra
        out.counters["total_processors"] = scheduled.total_processors
        out.counters["rate"] = round(
            scheduled.steady_cycles_per_iteration(), 6
        )


# ----------------------------------------------------------------------
# back end
# ----------------------------------------------------------------------
class EmitPass(Pass):
    """Emit Fig. 10-style partitioned pseudo-code for the schedule."""

    requires = ("scheduled",)
    provides = ("code",)

    def run(self, ctx: CompilationContext, out: PassOutput) -> None:
        from repro.codegen.emit import emit_subloops
        from repro.core.scheduler import ScheduledLoop
        from repro.errors import ReproError

        scheduled = ctx.get("scheduled")
        loop = ctx.artifacts.get("loop")
        if not isinstance(scheduled, ScheduledLoop):
            out.warn(
                "emission unavailable: partitioned code generation "
                f"supports single-component schedules, got "
                f"{type(scheduled).__name__}"
            )
            out.artifacts["code"] = None
            return
        try:
            code = emit_subloops(scheduled, loop)
        except ReproError as exc:
            out.warn(f"emission unavailable: {exc}")
            out.artifacts["code"] = None
            return
        out.artifacts["code"] = code
        out.counters["lines"] = code.count("\n") + 1


@dataclass
class EvaluatePass(Pass):
    """Expand the schedule to ``iterations`` and time it.

    ``use_runtime=False`` charges the compile-time communication
    estimate (the planner's view); ``use_runtime=True`` charges the
    possibly fluctuating run-time cost — the paper's simulated
    multiprocessor protocol.

    With ``use_runtime=True`` the pass's own chain key names the
    run-time machine, yet the program it times does not depend on the
    run-time costs.  So the lowered program (:func:`repro.sim.fastpath.
    lower`) is kept in the manager's cache under a key without them:
    the ``CyclicSchedPass`` chain key, the folding mode, the processor
    count and the trip count.  Table 1's fluctuation levels and the
    comm sweep's true costs then expand and lower each program once.
    With ``use_runtime=False`` the chain key already omits the
    run-time costs, so the pass output itself is the shared entry.
    """

    iterations: int = 100
    use_runtime: bool = False

    requires = ("scheduled",)
    provides = ("evaluation",)

    def cache_fingerprint(self, ctx: CompilationContext) -> str:
        fp = (
            machine_runtime_fingerprint(ctx.machine)
            if self.use_runtime
            else machine_compile_fingerprint(ctx.machine)
        )
        return f"{self.iterations}|{self.use_runtime}|{fp}"

    def _lowering_key(self, ctx: CompilationContext) -> str | None:
        cyclic = ctx.chain.get("CyclicSchedPass")
        flowio = ctx.chain.get("FlowIOSchedPass")
        if not self.use_runtime or cyclic is None or flowio is None:
            return None
        return stable_hash(
            cyclic[1],
            "lowered",
            flowio[0].folding,
            str(ctx.machine.processors),
            str(self.iterations),
        )

    def run(self, ctx: CompilationContext, out: PassOutput) -> None:
        from repro.sim.fastpath import evaluate

        scheduled = ctx.get("scheduled")
        # NormalizedSchedule.program speaks the original iteration
        # space, so time it against the original graph.
        graph = ctx.artifacts.get("original_graph") or ctx.get("graph")
        lowered = lowered_program(
            ctx.cache,
            self._lowering_key(ctx),
            graph,
            lambda: scheduled.instances(self.iterations, graph),
        )
        schedule = evaluate(
            graph, lowered, ctx.machine.comm, use_runtime=self.use_runtime
        )
        out.artifacts["evaluation"] = schedule
        out.counters["iterations"] = self.iterations
        out.counters["makespan"] = schedule.makespan()
        out.counters["processors"] = len(lowered.instances)
        out.counters["ops"] = lowered.bounds[-1]


def lowered_program(
    cache: ArtifactCache | None,
    key: str | None,
    graph: DependenceGraph,
    program: Callable[[], Sequence[Sequence[int]]],
) -> LoweredProgram:
    """``lower(graph, program())``, kept in ``cache`` under ``key``.

    ``program`` emits instance indices over ``graph`` (a schedule's
    ``instances``).

    Uncached when either is ``None``.  The lowered program is shared
    by every caller that finds it, and none of them mutates it.
    """
    from repro.sim.fastpath import lower

    if cache is None or key is None:
        return lower(graph, program())
    entry, _fresh = cache.get_or_compute(
        key, lambda: CacheEntry({"lowered": lower(graph, program())}, {}, ())
    )
    return entry.artifacts["lowered"]


#: Canonical pass order, used to validate hand-assembled pipelines.
STANDARD_PASSES = (
    "ParsePass",
    "IfConvertPass",
    "BuildDDGPass",
    "NormalizePass",
    "ClassifyPass",
    "CyclicSchedPass",
    "FlowIOSchedPass",
    "EmitPass",
    "EvaluatePass",
)
