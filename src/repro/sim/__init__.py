"""Simulated asynchronous multiprocessor.

Two interchangeable implementations of the machine semantics:

* :func:`repro.sim.fastpath.evaluate` — closed-form forward pass over
  a program lowered once (:func:`repro.sim.fastpath.lower`) and priced
  per comm model;
* :func:`repro.sim.engine.simulate` — event-driven engine with message
  objects and a full :class:`~repro.sim.engine.ExecutionTrace`.

Both run a program as :func:`repro.sim.fastpath.lower` validates and
flattens it — rows of instance indices with integer predecessor lists —
so a caller that runs one program on both lowers it once.  Property
tests assert they agree cycle-for-cycle, and test the lowering itself
against an ``Op``-keyed one.
"""

from repro.sim.engine import (
    ExecutionTrace,
    Message,
    Segment,
    execution_segments,
    simulate,
)
from repro.sim.fastpath import LoweredProgram, evaluate, evaluate_trace, lower
from repro.sim.trace import TraceStats, critical_chain, trace_stats

__all__ = [
    "ExecutionTrace",
    "LoweredProgram",
    "Message",
    "Segment",
    "TraceStats",
    "critical_chain",
    "evaluate",
    "evaluate_trace",
    "execution_segments",
    "lower",
    "simulate",
    "trace_stats",
]
