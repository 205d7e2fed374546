"""Simulated asynchronous multiprocessor.

Two interchangeable implementations of the machine semantics:

* :func:`repro.sim.fastpath.evaluate` — closed-form forward pass over
  a program lowered once (:func:`repro.sim.fastpath.lower`) and priced
  per comm model;
* :func:`repro.sim.engine.simulate` — event-driven engine with message
  objects and a full :class:`~repro.sim.engine.ExecutionTrace`.

Property tests assert they agree cycle-for-cycle.
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
