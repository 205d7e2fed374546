"""Differential and invariant oracles for generated cases.

Every case is compiled once through the standard pipeline and then
checked against four independent notions of "correct":

``steady_rate``
    Pattern found => the simulated steady-state rate matches the
    closed-form prediction ``steady_cycles_per_iteration()`` exactly.
    Measured per component over lcm-aligned iteration windows deep in
    the steady state, so preludes, folding transients and flow-in/out
    processor interleaving cancel out.  DOALL components with
    loop-carried dependences are skipped: the round-robin program is
    only claimed optimal for *independent* iterations and the
    closed-form rate is a lower bound there, not an equality.
``dataflow``
    The partitioned parallel program computes values bit-identical to
    the sequential reference — the real interpreter
    (:func:`~repro.codegen.interp.verify_against_sequential`) for
    mini-language cases, hash semantics
    (:func:`~repro.codegen.interp.verify_graph_dataflow`) for bare
    graphs.  Any unrouted dependence changes a value.
``engine_agreement``
    The closed-form fastpath (:func:`repro.sim.fastpath.evaluate`)
    and the event-driven reference simulator
    (:func:`repro.sim.engine.simulate`) agree start-by-start under
    fluctuating run-time communication costs.  Both run one lowering
    of the program (:func:`repro.sim.fastpath.lower`); the lowering
    itself is checked against an ``Op``-keyed one in the test suite.
``recompile_identity``
    Recompiling the same case through a warm artifact cache yields a
    bit-identical schedule, and every pass is served from the cache.

A failed oracle raises :class:`OracleViolation` internally and is
reported as an :class:`OracleFailure`; unexpected exceptions inside an
oracle are reported under the same oracle name (a crash is a finding
too).  A crash during compilation is reported under the pseudo-oracle
``"compile"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import ReproError
from repro.fuzz.generators import FuzzCase, behavior_signature
from repro.machine.comm import FluctuatingComm

__all__ = [
    "ORACLE_NAMES",
    "CaseOutcome",
    "OracleFailure",
    "OracleViolation",
    "compile_case",
    "failure_predicate",
    "run_oracles",
]

#: ``compile`` is the pseudo-oracle for pipeline crashes; the rest run
#: in this order on the compiled schedule.
ORACLE_NAMES: tuple[str, ...] = (
    "compile",
    "steady_rate",
    "dataflow",
    "engine_agreement",
    "recompile_identity",
)

#: iterations used by the functional (dataflow / engine) oracles —
#: enough to reach the steady kernel at max_iteration_lead=8 shifts
#: while keeping a million-case sweep cheap.
DATAFLOW_ITERATIONS = 6
ENGINE_ITERATIONS = 7

#: steady-rate windows larger than this (lcm of iteration shift and
#: flow-in/out interleaving widths) are skipped rather than simulated.
_WINDOW_CAP = 48


class OracleViolation(ReproError):
    """An invariant the fuzzer checks did not hold."""


@dataclass(frozen=True)
class OracleFailure:
    """One oracle's verdict on one case (serializable)."""

    oracle: str
    message: str
    case_id: str
    pattern: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "oracle": self.oracle,
            "message": self.message,
            "case_id": self.case_id,
            "pattern": self.pattern,
        }


@dataclass(frozen=True)
class CaseOutcome:
    """What one case taught us: a behaviour bucket plus any failures."""

    signature: str
    failures: tuple[OracleFailure, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def compile_case(case: FuzzCase, *, cache=None):
    """Compile a case's graph; returns the ScheduledLoop/CombinedLoop.

    ``cache=None`` (the default) disables artifact caching so a
    million-case sweep does not grow the process-wide cache without
    bound; the ``recompile_identity`` oracle supplies its own cache.
    """
    from repro.pipeline import CompilationContext, build_pipeline

    ctx = CompilationContext.from_graph(case.graph, case.machine())
    build_pipeline(cache=cache).run(ctx)
    return ctx.scheduled


def _parts(scheduled) -> list:
    parts = getattr(scheduled, "parts", None)
    return list(parts) if parts is not None else [scheduled]


# ----------------------------------------------------------------------
# oracle: steady-state rate
# ----------------------------------------------------------------------
def _part_window(part) -> int | None:
    """Iteration window over which the part's makespan is periodic.

    ``None`` means the closed-form rate is not a checkable claim for
    this part and the check is skipped:

    * DOALL components with loop-carried dependences — the round-robin
      program is only claimed optimal for independent iterations;
    * loop-carried dependences between two *non-cyclic* nodes — Fig. 5
      interleaves their iterations mod-p assuming independence, so
      such edges serialize across processors and the rate claim does
      not apply (the dependence is still honoured — the ``dataflow``
      oracle checks that);
    * folded parts — the Section 3 heuristic explicitly trades rate
      for processors, so the prediction is advisory there.
    """
    if part.pattern is None:
        if part.graph.max_distance() > 0:
            return None
        return part.machine.processors
    plan = part.plan
    if plan is not None and plan.fold_into is not None:
        return None
    cls = part.classification
    noncyclic = set(cls.flow_in) | set(cls.flow_out)
    for e in part.graph.edges:
        if e.distance > 0 and e.src in noncyclic and e.dst in noncyclic:
            return None
    m = part.pattern.iter_shift
    if plan is not None:
        if plan.flow_in_procs:
            m = math.lcm(m, plan.flow_in_procs)
        if plan.flow_out_procs:
            m = math.lcm(m, plan.flow_out_procs)
    return m


#: aligned windows averaged by the steady-rate measurement
_RATE_WINDOWS = 4


def _measured_delta(part, comm, n0: int, span: int) -> int:
    from repro.sim.fastpath import evaluate

    def makespan(n: int) -> int:
        return evaluate(part.graph, part.instances(n), comm).makespan()

    return makespan(n0 + span) - makespan(n0)


def _oracle_steady_rate(case: FuzzCase, scheduled) -> None:
    comm = case.machine().comm
    for part in _parts(scheduled):
        m = _part_window(part)
        if m is None or m > _WINDOW_CAP:
            continue
        expected_f = part.steady_cycles_per_iteration() * m
        expected = round(expected_f)
        if abs(expected_f - expected) > 1e-9:  # pragma: no cover
            continue
        # The closed-form rate is the scheduler's *promise*: deep in
        # the steady state, the makespan must not grow faster than
        # predicted over window-aligned spans.  It may grow slower —
        # ASAP replay of the emitted program can compress slack the
        # greedy pattern search left in the kernel (which also makes
        # strict per-window periodicity too strong a requirement).
        n0 = 8 * m + 32
        span = _RATE_WINDOWS * m
        budget = _RATE_WINDOWS * expected
        delta = _measured_delta(part, comm, n0, span)
        if delta > budget:  # transient not drained: look deeper once
            n0 *= 4
            delta = _measured_delta(part, comm, n0, span)
        if delta > budget:
            raise OracleViolation(
                f"component {part.graph.name!r}: closed-form rate "
                f"{part.steady_cycles_per_iteration():.4g} promises "
                f"<=+{budget} cycles over {span} iterations past "
                f"n0={n0}, measured +{delta}"
            )


# ----------------------------------------------------------------------
# oracle: dataflow vs the sequential reference
# ----------------------------------------------------------------------
def _oracle_dataflow(case: FuzzCase, scheduled) -> None:
    from repro.codegen.interp import (
        verify_against_sequential,
        verify_graph_dataflow,
    )
    from repro.codegen.partition import partition
    from repro.errors import ValidationError

    program = partition(scheduled, DATAFLOW_ITERATIONS)
    try:
        if case.source is not None:
            verify_against_sequential(case.loop(), program)
        else:
            verify_graph_dataflow(case.graph, program)
    except ValidationError as exc:
        raise OracleViolation(str(exc)) from exc


# ----------------------------------------------------------------------
# oracle: fastpath vs event-driven reference engine
# ----------------------------------------------------------------------
def _oracle_engine_agreement(case: FuzzCase, scheduled) -> None:
    from repro.sim.engine import simulate
    from repro.sim.fastpath import evaluate, lower

    # Fluctuating run-time costs stress the agreement far harder than
    # the uniform compile-time model the case was scheduled under.
    comm = FluctuatingComm(
        k=max(2, int(case.comm.get("k", 2))),
        mm=3,
        mode="uniform",
        seed=case.seed & 0xFFFF,
    )
    program = lower(case.graph, scheduled.instances(ENGINE_ITERATIONS))
    fast = evaluate(case.graph, program, comm, use_runtime=True)
    slow = simulate(case.graph, program, comm, use_runtime=True)
    if fast.makespan() != slow.schedule.makespan():
        raise OracleViolation(
            f"makespan disagrees: fastpath {fast.makespan()}, "
            f"engine {slow.schedule.makespan()}"
        )
    for op in fast.ops():
        if fast.start(op) != slow.schedule.start(op):
            raise OracleViolation(
                f"start time of {op} disagrees: fastpath "
                f"{fast.start(op)}, engine {slow.schedule.start(op)}"
            )


# ----------------------------------------------------------------------
# oracle: recompile-from-cache bit-identity
# ----------------------------------------------------------------------
def _canonical_schedule(scheduled) -> str:
    rows = scheduled.program(5)
    body = ";".join(
        ",".join(f"{op.node}@{op.iteration}" for op in row) for row in rows
    )
    return (
        f"procs={scheduled.total_processors}"
        f"|rate={scheduled.steady_cycles_per_iteration()!r}|{body}"
    )


def _oracle_recompile_identity(case: FuzzCase, scheduled) -> None:
    from repro.pipeline import (
        ArtifactCache,
        CompilationContext,
        build_pipeline,
    )

    cache = ArtifactCache()
    machine = case.machine()
    cold = CompilationContext.from_graph(case.graph, machine)
    build_pipeline(cache=cache).run(cold)
    warm = CompilationContext.from_graph(case.graph, machine)
    report = build_pipeline(cache=cache).run(warm)
    if report.cache_hits != len(report.passes):
        missed = [r.name for r in report.passes if not r.cache_hit]
        raise OracleViolation(
            f"warm recompile executed passes {missed} instead of "
            "hitting the cache"
        )
    a = _canonical_schedule(cold.scheduled)
    b = _canonical_schedule(warm.scheduled)
    if a != b:
        raise OracleViolation(
            "warm recompile produced a different schedule "
            f"(cold {a[:80]}... vs warm {b[:80]}...)"
        )
    # the fresh compile the campaign already did must agree too
    c = _canonical_schedule(scheduled)
    if c != a:
        raise OracleViolation(
            "uncached compile disagrees with cached compile "
            f"({c[:80]}... vs {a[:80]}...)"
        )


_ORACLES: dict[str, Callable[[FuzzCase, Any], None]] = {
    "steady_rate": _oracle_steady_rate,
    "dataflow": _oracle_dataflow,
    "engine_agreement": _oracle_engine_agreement,
    "recompile_identity": _oracle_recompile_identity,
}


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_oracles(
    case: FuzzCase, *, oracles: Iterable[str] | None = None
) -> CaseOutcome:
    """Compile ``case`` and run the selected oracles (default: all)."""
    selected = tuple(ORACLE_NAMES if oracles is None else oracles)
    unknown = [o for o in selected if o not in ORACLE_NAMES]
    if unknown:
        raise ReproError(f"unknown oracle(s): {', '.join(unknown)}")
    try:
        scheduled = compile_case(case)
    except Exception as exc:  # noqa: BLE001 - crashes are findings
        failure = OracleFailure(
            oracle="compile",
            message=f"{type(exc).__name__}: {exc}",
            case_id=case.case_id,
            pattern=case.pattern,
        )
        return CaseOutcome(
            signature=behavior_signature(
                case, None, error=type(exc).__name__
            ),
            failures=(failure,),
        )
    failures: list[OracleFailure] = []
    for name in selected:
        check = _ORACLES.get(name)
        if check is None:  # "compile" already ran above
            continue
        try:
            check(case, scheduled)
        except OracleViolation as exc:
            failures.append(
                OracleFailure(name, str(exc), case.case_id, case.pattern)
            )
        except Exception as exc:  # noqa: BLE001 - crashes are findings
            failures.append(
                OracleFailure(
                    name,
                    f"unexpected {type(exc).__name__}: {exc}",
                    case.case_id,
                    case.pattern,
                )
            )
    return CaseOutcome(
        signature=behavior_signature(case, scheduled),
        failures=tuple(failures),
    )


def failure_predicate(oracle: str) -> Callable[[FuzzCase], bool]:
    """``case -> bool``: does ``oracle`` still fail on ``case``?

    This is the predicate the minimizer preserves while shrinking: the
    minimized repro must fail the *same* oracle, not merely fail
    something.
    """
    if oracle not in ORACLE_NAMES:
        raise ReproError(f"unknown oracle {oracle!r}")
    selected: tuple[str, ...] = () if oracle == "compile" else (oracle,)

    def fails(case: FuzzCase) -> bool:
        outcome = run_oracles(case, oracles=selected)
        return any(f.oracle == oracle for f in outcome.failures)

    return fails
