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
from repro.sim.fastpath import evaluate, pred_offsets

__all__ = ["ScheduledLoop", "CombinedLoop", "schedule_loop", "LoopScheduleLike"]


class LoopScheduleLike:
    """Common base of the loop schedules.

    A schedule emits its program as rows of instance indices
    (:meth:`instances`); its ``Op`` program and compile-time timing are
    read off those rows.
    """

    graph: DependenceGraph
    machine: Machine

    @property
    def total_processors(self) -> int:
        raise NotImplementedError

    def steady_cycles_per_iteration(self) -> float:
        raise NotImplementedError

    def instances(
        self, iterations: int, graph: DependenceGraph | None = None
    ) -> list[list[int]]:
        raise NotImplementedError

    def program(self, iterations: int) -> list[list[Op]]:
        """Per-processor op sequences: :meth:`instances`, decoded."""
        names = self.graph.node_names()
        return decode_rows(self.instances(iterations), names)

    def compile_schedule(self, iterations: int) -> Schedule:
        """Concrete start times under compile-time communication costs."""
        rows = self.instances(iterations)
        return evaluate(self.graph, rows, self.machine.comm)


@dataclass(frozen=True)
class ScheduledLoop(LoopScheduleLike):
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
    def instances(
        self, iterations: int, graph: DependenceGraph | None = None
    ) -> list[list[int]]:
        """Per-processor rows of instance indices ``it * n + v``.

        ``v`` is a node's index in ``graph`` (default: this loop's
        graph) and ``n`` its node count, so the rows lower against it.
        Processors are numbered compactly: Cyclic processors first (in
        pattern order), then Flow-in, then Flow-out processors; with
        folding, non-Cyclic ops share the chosen Cyclic processor.
        """
        graph = self.graph if graph is None else graph
        if iterations < 0:
            raise SchedulingError("iterations must be >= 0")
        if iterations == 0:
            return [[] for _ in range(max(1, self.total_processors))]
        n, index = len(graph), graph.node_index
        if self.pattern is None:
            body = topological_order(self.graph, intra_only=True)
            procs = self.machine.processors
            return interleave(list(map(index, body)), n, iterations, procs)
        assert self.plan is not None
        if self.plan.fold_into is not None:
            rows = self._folded_instances(iterations)
            if graph is self.graph:
                return rows
            own = list(map(index, self.graph.node_names()))
            m = len(self.graph)
            return [[x // m * n + own[x % m] for x in row] for row in rows]
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

    # ------------------------------------------------------------------
    def _folded_instances(self, iterations: int) -> list[list[int]]:
        """Merge non-Cyclic ops into the chosen Cyclic processor.

        A global priority-Kahn pass over the instance DAG plus the
        fixed Cyclic per-processor chains yields per-processor orders
        that are guaranteed deadlock-free (the emission order itself is
        a consistent global history).  Priorities steer non-Cyclic ops
        toward their deadlines but do not affect correctness.

        The Cyclic processors' rows (compact numbering) keep their
        pattern order, and their nominal pattern starts are the
        priorities; row ``fold_proc`` takes the non-Cyclic ops.  All
        ``iterations * n`` instances ``x = it * n + v`` of this loop's
        graph take part, and ties in priority go to the smaller ``x``:
        the earlier iteration, then the earlier node.
        """
        c, graph = self.classification, self.graph
        assert self.pattern is not None and self.plan is not None
        n, index = len(graph), graph.node_index
        total = iterations * n
        pattern = self.pattern
        rows, starts, _ = pattern.rows(
            iterations, list(map(index, pattern.names)), n
        )
        used = self.cyclic_processors
        cyclic_rows = [rows[j] for j in used]
        fold_proc = used.index(self.plan.fold_into)

        # priorities: cyclic ops keep their expanded nominal start;
        # flow-in ops aim just before their earliest consumer; flow-out
        # ops just after their latest producer.
        rate = pattern.cycles_per_iteration()
        prio = [0.0] * total
        proc_of = [fold_proc] * total
        for j, row in enumerate(cyclic_rows):
            for x, start in zip(row, starts[used[j]]):
                prio[x], proc_of[x] = float(start), j
        preds = [[off for off, _e in e] for e in pred_offsets(graph)]
        succs: list[list[int]] = [[] for _ in range(n)]
        for v, offs in enumerate(preds):
            for off in offs:
                succs[(v + off) % n].append(-off)
        # flow-in: reverse instance-topological sweep, so every cyclic
        # or flow-in successor already has its priority (flow-out ones
        # get theirs later and are left out)
        flow_out = [index(v) for v in subset_order(graph, c.flow_out)]
        late = [v in flow_out for v in range(n)]
        flow_in = [index(v) for v in subset_order(graph, c.flow_in)]
        for it in reversed(range(iterations)):
            for v in reversed(flow_in):
                x = it * n + v
                deadlines = [
                    prio[y]
                    for y in (x + off for off in succs[v])
                    if y < total and not late[y % n]
                ]
                prio[x] = (
                    min(deadlines) - 0.5 if deadlines else it * rate
                )
        # flow-out: forward sweep; every producer already has a priority.
        lat = [graph.latency(name) for name in graph.node_names()]
        for it in range(iterations):
            for v in flow_out:
                x = it * n + v
                ready = [
                    prio[y] + lat[y % n]
                    for y in (x + off for off in preds[v])
                    if y >= 0
                ]
                prio[x] = (max(ready) + 0.5) if ready else it * rate

        # Kahn over the instance dependences plus each cyclic row's
        # chain, which keeps that row a fixed sequence
        remaining = [0] * total
        dependents: list[list[int]] = [[] for _ in range(total)]
        for x in range(total):
            for y in (x + off for off in preds[x % n]):
                if y >= 0:
                    remaining[x] += 1
                    dependents[y].append(x)
        for row in cyclic_rows:
            for a, b in zip(row, row[1:]):
                remaining[b] += 1
                dependents[a].append(b)
        heap = [(prio[x], x) for x in range(total) if not remaining[x]]
        heapq.heapify(heap)
        out: list[list[int]] = [[] for _ in cyclic_rows]
        while heap:
            _, x = heapq.heappop(heap)
            out[proc_of[x]].append(x)
            for dep in dependents[x]:
                remaining[dep] -= 1
                if not remaining[dep]:
                    heapq.heappush(heap, (prio[dep], dep))
        if sum(map(len, out)) != total:
            raise SchedulingError(
                "internal error: folded merge left "
                f"{total - sum(map(len, out))} ops unordered"
            )
        return out

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
class CombinedLoop(LoopScheduleLike):
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

    def instances(
        self, iterations: int, graph: DependenceGraph | None = None
    ) -> list[list[int]]:
        """The parts' rows, side by side, as instance indices over
        ``graph``'s nodes (default: the whole loop's graph)."""
        graph = self.graph if graph is None else graph
        rows: list[list[int]] = []
        for part in self.parts:
            rows.extend(part.instances(iterations, graph))
        return rows

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
