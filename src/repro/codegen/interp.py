"""Dataflow interpreter for partitioned programs.

Executes a :class:`~repro.codegen.partition.ParallelProgram` with
message-passing semantics — each processor owns a private store;
cross-processor dependences deliver the producer's value into the
consumer's store; a processor executes its sequence in order — and
checks the result against the sequential reference interpreter.

This is the library's end-to-end correctness oracle: if the scheduler
ever assigned or ordered ops so that a consumer runs without its
producer's value (on any processor), the consumer would read a live-in
default instead and the per-instance comparison fails loudly.

Two value domains are supported:

* **mini-language loops** — real arithmetic on the loop's statements,
  compared against :func:`repro.lang.interp.run_loop`;
* **bare dependence graphs** (e.g. the random Table 1 loops) — a
  synthetic injective value semantics ``value(op) = blake2(node,
  iteration, input values)``, which makes any routing error visible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro._types import Op
from repro.codegen.partition import ParallelProgram
from repro.errors import CodegenError, ValidationError
from repro.graph.algorithms import topological_order
from repro.graph.ddg import DependenceGraph
from repro.lang.ast import Assign, Loop, eval_expr
from repro.lang.interp import Store, default_live_in, run_loop

__all__ = [
    "ParallelRun",
    "run_parallel_loop",
    "verify_against_sequential",
    "run_parallel_graph",
    "verify_graph_dataflow",
]


@dataclass
class ParallelRun:
    """Outcome of a message-passing execution."""

    values: dict[tuple[str, int], float]
    messages: int = 0


def _interleaving(program: ParallelProgram) -> list[int]:
    """Positions of the program's ops in a global execution order.

    Any dependence-consistent interleaving yields the same values
    (dataflow determinism); we use the same deadlock-detecting forward
    pass as the simulator, on the program's lowering, so a cyclic-wait
    program is rejected here too.  The solve keeps the lowering's
    row-major positions, so its start rows order them by ``(start,
    processor)`` without building an ``Op``.
    """
    from repro.machine.comm import ZeroComm
    from repro.sim.fastpath import evaluate

    sched = evaluate(program.graph, program.lowered, ZeroComm())
    keys = [(t, j) for j, row in enumerate(sched.start_rows()) for t in row]
    return sorted(range(len(keys)), key=keys.__getitem__)


def run_parallel_loop(
    loop: Loop, program: ParallelProgram, store: Store | None = None
) -> ParallelRun:
    """Execute a partitioned mini-language loop with message passing.

    Values are delivered *per consumer instance*: a message carries the
    producing instance's value and is matched to the consuming instance
    — which is how message-passing hardware implicitly renames storage.
    (Delivering into a shared per-processor location would let a
    pipelined iteration ``i+1`` clobber a scalar before iteration
    ``i``'s consumer reads it — a write-after-read hazard that simply
    does not exist on the wire.)

    Each read therefore resolves to its *sequential reaching
    definition* (the same rule the dependence analysis uses) and takes
    that instance's value when it was legitimately available — computed
    earlier on the same processor, or routed here by a dependence edge
    — and the live-in default otherwise, which makes any missing route
    visible as a value mismatch.
    """
    assigns: dict[str, Assign] = {a.label: a for a in loop.assignments()}
    unknown = [op for op in program.ops() if op.node not in assigns]
    if unknown:
        raise CodegenError(f"program ops not in loop: {unknown[:3]}")
    order = list(loop.labels())
    pos = {label: i for i, label in enumerate(order)}
    # writers[variable] = [(label, offset | None for scalars)]
    writers: dict[str, list[tuple[str, int | None]]] = {}
    for a in assigns.values():
        writers.setdefault(a.target, []).append((a.label, a.target_offset))

    base = store.copy() if store is not None else Store()
    proc_of = program.assignment()
    executed: dict[Op, float] = {}
    # cross-processor deliveries: (consumer, producer) -> value
    delivered: dict[tuple[Op, Op], float] = {}
    run = ParallelRun(values={})

    def reaching_def(
        variable: str, element: int | None, reader: Op
    ) -> Op | None:
        """Most recent sequential write of ``variable`` before ``reader``."""
        best: tuple[int, int] | None = None
        best_op: Op | None = None
        r_key = (reader.iteration, pos[reader.node])
        for label, offset in writers.get(variable, ()):
            if element is None:  # scalar: written every iteration
                j = (
                    reader.iteration
                    if pos[label] < pos[reader.node]
                    else reader.iteration - 1
                )
            else:  # array: the unique iteration writing this element
                j = element - offset  # type: ignore[operator]
            if j < 0 or (j, pos[label]) >= r_key:
                continue
            if best is None or (j, pos[label]) > best:
                best = (j, pos[label])
                best_op = Op(label, j)
        return best_op

    def value_of(producer: Op | None, reader: Op, fallback: float) -> float:
        if producer is None or producer not in executed:
            return fallback
        if proc_of.get(producer) == proc_of[reader]:
            return executed[producer]
        return delivered.get((reader, producer), fallback)

    ops, receivers = program.ops(), program.receivers
    for k in _interleaving(program):
        op = ops[k]
        a = assigns[op.node]

        def read_array(name: str, index: int) -> float:
            fallback = base.read_array(name, index)
            return value_of(reaching_def(name, index, op), op, fallback)

        def read_scalar(name: str) -> float:
            fallback = base.read_scalar(name)
            return value_of(reaching_def(name, None, op), op, fallback)

        value = eval_expr(a.expr, op.iteration, read_array, read_scalar)
        run.values[(op.node, op.iteration)] = value
        executed[op] = value
        for dst in receivers[k]:
            delivered[(ops[dst], op)] = value
            run.messages += 1
    return run


def verify_against_sequential(
    loop: Loop,
    program: ParallelProgram,
    store: Store | None = None,
    *,
    rel_tol: float = 1e-9,
) -> None:
    """Raise :class:`ValidationError` unless the partitioned program
    computes exactly the sequential loop's per-instance values."""
    trace: dict[tuple[str, int], float] = {}
    run_loop(loop, program.iterations, store, trace=trace)
    par = run_parallel_loop(loop, program, store)
    in_program = {(op.node, op.iteration) for op in program.ops()}
    wanted = {key for key in trace if key in in_program}
    missing = wanted - set(par.values)
    if missing:
        raise ValidationError(
            f"parallel program never computed {sorted(missing)[:3]}"
        )
    for key in sorted(wanted):
        seq_v, par_v = trace[key], par.values[key]
        if abs(seq_v - par_v) > rel_tol * max(1.0, abs(seq_v)):
            raise ValidationError(
                f"value mismatch at {key}: sequential {seq_v!r}, "
                f"parallel {par_v!r} — a dependence was not routed"
            )


# ----------------------------------------------------------------------
# bare-graph dataflow verification
# ----------------------------------------------------------------------
def _hash_value(node: str, iteration: int, inputs: list[float]) -> float:
    payload = f"{node}|{iteration}|" + ",".join(f"{v:.17g}" for v in inputs)
    digest = hashlib.blake2b(payload.encode(), digest_size=8).digest()
    return float(int.from_bytes(digest, "big") % (1 << 40))


def run_parallel_graph(
    graph: DependenceGraph, program: ParallelProgram
) -> ParallelRun:
    """Message-passing execution of a bare DDG under hash semantics.

    Every edge routes the producer instance's value; an op's value
    hashes its sorted input values (missing producers contribute a
    live-in default keyed by the *edge*, so a dropped message changes
    the result).  Ops are positions in the program's lowering, so
    ``graph`` is the one the program was built on; an op's inputs are
    its instance predecessors ``x + offset``
    (:func:`~repro.sim.fastpath.pred_offsets`), read from its own
    processor's mailbox, and its sends the program's.
    """
    from repro.sim.fastpath import pred_offsets

    lowered = program.lowered
    flat = [x for row in lowered.instances for x in row]
    proc, receivers = lowered.procs(), program.receivers
    position = {x: k for k, x in enumerate(flat)}
    offsets = pred_offsets(graph)
    names, n = lowered.names, len(lowered.names)
    # per-processor mailbox: (proc, producer position) -> value
    mailbox: dict[tuple[int, int], float] = {}
    run = ParallelRun(values={})
    for k in _interleaving(program):
        j, x = proc[k], flat[k]
        node, it = names[x % n], x // n
        inputs: list[float] = []
        for off, edge in offsets[x % n]:
            y = x + off
            if y < 0:  # a live-in from before the loop
                continue
            got = mailbox.get((j, position.get(y, -1)))
            if got is None:
                got = default_live_in(f"{edge.src}->{edge.dst}", y // n)
            inputs.append(got)
        value = _hash_value(node, it, sorted(inputs))
        run.values[(node, it)] = value
        mailbox[(j, k)] = value
        for dst in receivers[k]:
            mailbox[(proc[dst], k)] = value
            run.messages += 1
    return run


def reference_graph_values(
    graph: DependenceGraph, iterations: int
) -> dict[tuple[str, int], float]:
    """Sequential hash-semantics reference for a bare DDG."""
    order = topological_order(graph, intra_only=True)
    values: dict[tuple[str, int], float] = {}
    for i in range(iterations):
        for node in order:
            op = Op(node, i)
            inputs = []
            for pred, edge in graph.instance_predecessors(op):
                got = values.get((pred.node, pred.iteration))
                if got is None:
                    got = default_live_in(
                        f"{edge.src}->{edge.dst}", pred.iteration
                    )
                inputs.append(got)
            values[(node, i)] = _hash_value(node, i, sorted(inputs))
    return values


def verify_graph_dataflow(
    graph: DependenceGraph, program: ParallelProgram
) -> None:
    """Raise unless the program routes every dependence of the DDG."""
    ref = reference_graph_values(graph, program.iterations)
    par = run_parallel_graph(graph, program)
    for op in program.ops():
        key = (op.node, op.iteration)
        if par.values[key] != ref[key]:
            raise ValidationError(
                f"dataflow mismatch at {key}: a dependence was not routed"
            )
