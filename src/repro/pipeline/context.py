"""The shared state one compilation threads through its passes.

A :class:`CompilationContext` carries the *inputs* (a machine plus one
of: mini-language source text, a parsed loop AST, or a dependence
graph) and accumulates *artifacts* — the named intermediate products
each pass reads and writes.  The artifact names are the pipeline's
contract:

============== =====================================================
key            value
============== =====================================================
``source``     mini-language source text
``loop``       :class:`repro.lang.ast.Loop` (post if-conversion once
               ``IfConvertPass`` has run)
``graph``      :class:`repro.graph.ddg.DependenceGraph` the scheduler
               sees (the unwound graph after ``NormalizePass``)
``original_graph`` the pre-normalization graph (``NormalizePass``)
``unwound``    :class:`repro.graph.unwind.UnwoundLoop`
``classification`` whole-graph :class:`repro.core.classify.Classification`
``components`` per-component ``(subgraph, Classification)`` tuples
``cyclic_results`` per-component ``CyclicResult | None`` (DOALL)
``scheduled``  ``ScheduledLoop | CombinedLoop | NormalizedSchedule``
``evaluation`` :class:`repro.core.schedule.Schedule` with start times
``code``       emitted partitioned pseudo-code (or ``None``)
============== =====================================================

While a :class:`~repro.pipeline.manager.PassManager` runs, the context
also carries the manager's ``cache`` and the ``chain`` of passes whose
outputs that cache can trust, so a pass can cache intermediate work of
its own there (``EvaluatePass`` keeps its lowered program).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from repro.errors import PipelineError
from repro.machine.model import Machine

from repro.pipeline.report import Diagnostic, PipelineReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.ddg import DependenceGraph
    from repro.lang.ast import Loop
    from repro.pipeline.cache import ArtifactCache
    from repro.pipeline.passes import Pass

__all__ = ["CompilationContext"]

#: Which standard pass provides each artifact — used for error messages.
PRODUCERS = {
    "loop": "ParsePass",
    "graph": "BuildDDGPass",
    "original_graph": "NormalizePass",
    "unwound": "NormalizePass",
    "classification": "ClassifyPass",
    "components": "ClassifyPass",
    "cyclic_results": "CyclicSchedPass",
    "scheduled": "FlowIOSchedPass",
    "evaluation": "EvaluatePass",
    "code": "EmitPass",
}


@dataclass
class CompilationContext:
    """Inputs plus accumulated artifacts of one compilation."""

    machine: Machine
    name: str = "loop"
    artifacts: dict[str, Any] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    report: PipelineReport | None = None
    #: set by PassManager.run: the cache it was given (``None`` when
    #: uncached), and pass name -> (pass, chain key) for every pass run
    #: so far whose output the cache can trust
    cache: "ArtifactCache | None" = field(
        default=None, repr=False, compare=False
    )
    chain: "dict[str, tuple[Pass, str]]" = field(
        default_factory=dict, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_source(
        cls, source: str, machine: Machine, *, name: str = "loop"
    ) -> "CompilationContext":
        """Start from mini-language source (front-end passes needed)."""
        return cls(machine, name, {"source": source})

    @classmethod
    def from_loop(
        cls, loop: "Loop", machine: Machine
    ) -> "CompilationContext":
        """Start from a parsed loop AST."""
        return cls(machine, getattr(loop, "name", "loop"), {"loop": loop})

    @classmethod
    def from_graph(
        cls, graph: "DependenceGraph", machine: Machine
    ) -> "CompilationContext":
        """Start from an already-built dependence graph."""
        return cls(machine, graph.name, {"graph": graph})

    # ------------------------------------------------------------------
    # artifact access
    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        """Fetch an artifact; raise a pointed error when it is missing."""
        try:
            return self.artifacts[key]
        except KeyError:
            producer = PRODUCERS.get(key)
            hint = (
                f"; run {producer} first or seed the context with it"
                if producer
                else ""
            )
            raise PipelineError(
                f"artifact {key!r} is not available{hint}"
            ) from None

    # convenience views of the common results -------------------------
    @property
    def scheduled(self):
        """The scheduling result (``ScheduledLoop``-like)."""
        return self.get("scheduled")

    @property
    def evaluation(self):
        """The evaluated :class:`~repro.core.schedule.Schedule`."""
        return self.get("evaluation")

    @property
    def classification(self):
        return self.get("classification")

    @property
    def graph(self):
        return self.get("graph")

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]
