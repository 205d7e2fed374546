"""The complete loop scheduler (paper Fig. 6).

``schedule_loop`` runs the paper's pipeline:

1. *classification* — split nodes into Flow-in / Cyclic / Flow-out;
2. *Cyclic-sched* — greedy pattern scheduling of the Cyclic subset
   under communication cost (:mod:`repro.core.cyclic`);
3. *Flow-in-sched* / *Flow-out-sched* — mod-p interleaving on extra
   processors, or Section 3's folding into an idle Cyclic processor
   (:mod:`repro.core.flowio`).

The result is a :class:`ScheduledLoop`: a finite description (pattern +
allocation plan) that can be *expanded* into a concrete program — the
per-processor op sequences — for any iteration count, then timed with
compile-cost estimates (:meth:`ScheduledLoop.compile_schedule`) or
executed on the simulated multiprocessor (:mod:`repro.sim`).

Disconnected graphs are handled as the paper prescribes ("simply
separate the graph into several connected ones and apply our scheduling
algorithm to each of them independently"): each weakly connected
component is scheduled on its own processors and the programs run side
by side (:class:`CombinedLoop`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Protocol

from repro._types import Op, decode_rows
from repro.core.classify import Classification
from repro.core.cyclic import CyclicStats
from repro.core.flowio import NonCyclicPlan, interleave, subset_order
from repro.core.patterns import Pattern
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.graph.algorithms import topological_order
from repro.graph.ddg import DependenceGraph
from repro.machine.model import Machine
from repro.sim.engine import encode_program
from repro.sim.fastpath import evaluate

__all__ = ["ScheduledLoop", "CombinedLoop", "schedule_loop", "LoopScheduleLike"]


class LoopScheduleLike(Protocol):
    """Common interface of :class:`ScheduledLoop` and :class:`CombinedLoop`."""

    graph: DependenceGraph
    machine: Machine

    @property
    def total_processors(self) -> int: ...

    def program(self, iterations: int) -> list[list[Op]]: ...

    def instances(
        self, iterations: int, graph: DependenceGraph | None = None
    ) -> list[list[int]]: ...

    def compile_schedule(self, iterations: int) -> Schedule: ...

    def steady_cycles_per_iteration(self) -> float: ...


@dataclass(frozen=True)
class ScheduledLoop:
    """Scheduling result for one connected loop graph.

    ``pattern`` is ``None`` exactly when the loop is DOALL (empty
    Cyclic subset): then whole iterations are interleaved mod-p over
    all available processors, which is optimal for independent
    iterations.
    """

    graph: DependenceGraph
    machine: Machine
    classification: Classification
    pattern: Pattern | None
    plan: NonCyclicPlan | None
    stats: CyclicStats | None

    # ------------------------------------------------------------------
    @property
    def is_doall(self) -> bool:
        return self.pattern is None

    @property
    def cyclic_processors(self) -> list[int]:
        """Pattern's processor ids in the machine's numbering."""
        return [] if self.pattern is None else self.pattern.used_processors()

    @property
    def total_processors(self) -> int:
        if self.pattern is None:
            return self.machine.processors
        assert self.plan is not None
        return len(self.cyclic_processors) + self.plan.extra_processors

    def steady_cycles_per_iteration(self) -> float:
        """Compile-time steady-state rate of the whole loop.

        The Cyclic pattern's rate — non-Cyclic subsets are provisioned
        to keep up (Fig. 5) so they do not change the rate.  For DOALL
        loops: body latency divided over the processors.
        """
        if self.pattern is not None:
            return self.pattern.cycles_per_iteration()
        return self.graph.total_latency() / self.machine.processors

    # ------------------------------------------------------------------
    def program(self, iterations: int) -> list[list[Op]]:
        """Per-processor op sequences for ``iterations`` iterations.

        Processors are numbered compactly: Cyclic processors first (in
        pattern order), then Flow-in, then Flow-out processors; with
        folding, non-Cyclic ops share the chosen Cyclic processor.
        The ops are decoded from :meth:`instances`, except in a folded
        schedule, whose merge orders ops.
        """
        if self._folds(iterations):
            return self._folded_program(iterations)
        return decode_rows(self.instances(iterations), self.graph.node_names())

    def instances(
        self, iterations: int, graph: DependenceGraph | None = None
    ) -> list[list[int]]:
        """:meth:`program` as rows of instance indices ``it * n + v``.

        ``v`` is a node's index in ``graph`` (default: this loop's
        graph) and ``n`` its node count, so the rows lower against it.
        """
        graph = self.graph if graph is None else graph
        if self._folds(iterations):
            return encode_program(graph, self._folded_program(iterations))
        if iterations == 0:
            return [[] for _ in range(max(1, self.total_processors))]
        n, index = len(graph), graph.node_index
        if self.pattern is None:
            body = topological_order(self.graph, intra_only=True)
            procs = self.machine.processors
            return interleave(list(map(index, body)), n, iterations, procs)
        assert self.plan is not None
        pattern = self.pattern
        rows = pattern.rows(iterations, list(map(index, pattern.names)), n)[0]
        rows = [rows[j] for j in self.cyclic_processors]
        c = self.classification
        for names, procs in (
            (c.flow_in, self.plan.flow_in_procs),
            (c.flow_out, self.plan.flow_out_procs),
        ):
            if procs:
                body = map(index, subset_order(self.graph, names))
                rows += interleave(list(body), n, iterations, procs)
        return rows

    def compile_schedule(self, iterations: int) -> Schedule:
        """Concrete start times under compile-time communication costs."""
        return evaluate(
            self.graph, self.instances(iterations), self.machine.comm
        )

    # ------------------------------------------------------------------
    def _folds(self, iterations: int) -> bool:
        """Whether :meth:`program` merges non-Cyclic ops into a Cyclic
        processor (raising for a negative trip count)."""
        if iterations < 0:
            raise SchedulingError("iterations must be >= 0")
        plan = self.plan
        return iterations > 0 and plan is not None and plan.fold_into is not None

    def _folded_program(self, iterations: int) -> list[list[Op]]:
        """Merge non-Cyclic ops into the chosen Cyclic processor.

        A global priority-Kahn pass over the instance DAG plus the
        fixed Cyclic per-processor chains yields per-processor orders
        that are guaranteed deadlock-free (the emission order itself is
        a consistent global history).  Priorities steer non-Cyclic ops
        toward their deadlines but do not affect correctness.

        The Cyclic processors' rows (compact numbering) keep their
        pattern order, and their nominal pattern starts are the
        priorities; row ``fold_proc`` takes the non-Cyclic ops.
        """
        c = self.classification
        graph = self.graph
        assert self.pattern is not None and self.plan is not None
        rows, starts, _ = self.pattern.rows(iterations)
        used = self.cyclic_processors
        cyclic_rows = decode_rows([rows[j] for j in used], self.pattern.names)
        cyclic_starts = [starts[j] for j in used]
        fold_proc = used.index(self.plan.fold_into)

        noncyclic = [
            Op(n, i)
            for i in range(iterations)
            for n in (*c.flow_in, *c.flow_out)
        ]
        # priorities: cyclic ops keep their expanded nominal start;
        # flow-in ops aim just before their earliest consumer; flow-out
        # ops just after their latest producer.
        rate = self.pattern.cycles_per_iteration() if self.pattern else 1.0
        prio: dict[Op, float] = {}
        proc_of_cyclic: dict[Op, int] = {}
        for j, (row, row_starts) in enumerate(zip(cyclic_rows, cyclic_starts)):
            prio.update(zip(row, map(float, row_starts)))
            proc_of_cyclic.update(dict.fromkeys(row, j))
        all_ops = set(prio) | set(noncyclic)
        fi_set = set(c.flow_in)
        fi_pos = {n: i for i, n in enumerate(subset_order(graph, c.flow_in))}
        fo_pos = {n: i for i, n in enumerate(subset_order(graph, c.flow_out))}
        # flow-in: reverse instance-topological sweep so every already-
        # prioritized successor (cyclic or later flow-in) is available.
        for op in sorted(
            (o for o in noncyclic if o.node in fi_set),
            key=lambda o: (-o.iteration, -fi_pos[o.node]),
        ):
            deadlines = [
                prio[succ]
                for succ, _e in graph.instance_successors(op)
                if succ in prio
            ]
            prio[op] = (
                min(deadlines) - 0.5 if deadlines else op.iteration * rate
            )
        # flow-out: forward sweep; every producer already has a priority.
        for op in sorted(
            (o for o in noncyclic if o.node not in fi_set),
            key=lambda o: (o.iteration, fo_pos[o.node]),
        ):
            ready = [
                prio[pred] + graph.latency(pred.node)
                for pred, _e in graph.instance_predecessors(op)
                if pred in prio
            ]
            prio[op] = (max(ready) + 0.5) if ready else op.iteration * rate

        # chain constraints: each cyclic row is a fixed sequence.
        chain_next: dict[Op, Op] = {}
        chain_blocked: set[Op] = set()
        for row in cyclic_rows:
            for a, b in zip(row, row[1:]):
                chain_next[a] = b
                chain_blocked.add(b)

        remaining: dict[Op, int] = {}
        dependents: dict[Op, list[Op]] = {}
        for op in all_ops:
            cnt = 0
            for pred, _e in graph.instance_predecessors(op):
                if pred in all_ops:
                    cnt += 1
                    dependents.setdefault(pred, []).append(op)
            remaining[op] = cnt

        def key(op: Op) -> tuple:
            return (prio[op], op.iteration, graph.node_index(op.node))

        heap: list[tuple[tuple, Op]] = [
            (key(op), op)
            for op in all_ops
            if remaining[op] == 0 and op not in chain_blocked
        ]
        heapq.heapify(heap)
        released_chain: set[Op] = set()

        rows: list[list[Op]] = [[] for _ in range(len(cyclic_rows))]

        emitted = 0
        while heap:
            _, op = heapq.heappop(heap)
            j = proc_of_cyclic.get(op, fold_proc)
            rows[j].append(op)
            emitted += 1
            nxt = chain_next.get(op)
            if nxt is not None:
                released_chain.add(nxt)
                if remaining[nxt] == 0:
                    heapq.heappush(heap, (key(nxt), nxt))
            for dep in dependents.get(op, ()):
                remaining[dep] -= 1
                if remaining[dep] == 0 and (
                    dep not in chain_blocked or dep in released_chain
                ):
                    heapq.heappush(heap, (key(dep), dep))
        if emitted != len(all_ops):
            raise SchedulingError(
                "internal error: folded merge left "
                f"{len(all_ops) - emitted} ops unordered"
            )
        return rows

    def describe(self) -> str:
        """Multi-line human summary of the scheduling decisions."""
        c = self.classification
        lines = [
            f"loop {self.graph.name!r}: {len(self.graph)} nodes "
            f"(flow-in {len(c.flow_in)}, cyclic {len(c.cyclic)}, "
            f"flow-out {len(c.flow_out)})",
        ]
        if self.pattern is None:
            lines.append(
                f"DOALL: iterations interleaved over "
                f"{self.machine.processors} processors"
            )
        else:
            lines.append(self.pattern.describe())
            assert self.plan is not None
            if self.plan.fold_into is not None:
                lines.append(
                    f"non-cyclic nodes folded into processor "
                    f"{self.plan.fold_into}"
                )
            elif self.plan.extra_processors:
                lines.append(
                    f"flow-in on {self.plan.flow_in_procs} extra proc(s), "
                    f"flow-out on {self.plan.flow_out_procs} extra proc(s)"
                )
        lines.append(f"total processors: {self.total_processors}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CombinedLoop:
    """Independent component schedules running side by side."""

    graph: DependenceGraph
    machine: Machine
    parts: tuple[ScheduledLoop, ...]

    @property
    def total_processors(self) -> int:
        return sum(p.total_processors for p in self.parts)

    def steady_cycles_per_iteration(self) -> float:
        """Components run concurrently: the slowest one sets the rate."""
        return max(p.steady_cycles_per_iteration() for p in self.parts)

    def program(self, iterations: int) -> list[list[Op]]:
        rows: list[list[Op]] = []
        for part in self.parts:
            rows.extend(part.program(iterations))
        return rows

    def instances(
        self, iterations: int, graph: DependenceGraph | None = None
    ) -> list[list[int]]:
        """:meth:`program` as instance indices over ``graph``'s nodes
        (default: the whole loop's graph)."""
        graph = self.graph if graph is None else graph
        rows: list[list[int]] = []
        for part in self.parts:
            rows.extend(part.instances(iterations, graph))
        return rows

    def compile_schedule(self, iterations: int) -> Schedule:
        return evaluate(
            self.graph, self.instances(iterations), self.machine.comm
        )

    def describe(self) -> str:
        chunks = [
            f"{len(self.parts)} independent components "
            f"({self.total_processors} processors total):"
        ]
        chunks += [part.describe() for part in self.parts]
        return "\n---\n".join(chunks)


def schedule_loop(
    graph: DependenceGraph,
    machine: Machine,
    *,
    ordering: str = "asap",
    tie_break: str = "idle",
    folding: str = "auto",
    max_instances: int | None = None,
    max_iteration_lead: int = 8,
) -> ScheduledLoop | CombinedLoop:
    """Schedule a loop for a MIMD machine (the paper's full algorithm).

    ``graph`` must have all dependence distances <= 1 (use
    :func:`repro.graph.unwind.normalize_distances` first if not).
    ``ordering`` picks the ready-queue order of Cyclic-sched,
    ``tie_break`` its processor-selection tie rule (see
    :func:`repro.core.cyclic.schedule_cyclic`); ``folding`` controls
    the Section 3 non-Cyclic placement heuristic (``'auto'`` /
    ``'always'`` / ``'never'``).

    This is a thin compatibility wrapper over the unified pipeline
    (:mod:`repro.pipeline`): it runs ``ClassifyPass ->
    CyclicSchedPass -> FlowIOSchedPass`` through the process-wide
    artifact cache, so repeated scheduling of the same (graph,
    machine, options) is a cache hit.  Build a
    :class:`repro.pipeline.PassManager` directly for per-pass timings
    and diagnostics.
    """
    from repro.pipeline import CompilationContext, build_pipeline

    ctx = CompilationContext.from_graph(graph, machine)
    build_pipeline(
        ordering=ordering,
        tie_break=tie_break,
        folding=folding,
        max_instances=max_instances,
        max_iteration_lead=max_iteration_lead,
    ).run(ctx)
    return ctx.artifacts["scheduled"]
