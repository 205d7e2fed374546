"""Communication-cost models.

The scheduler plans with a *compile-time estimate* of each edge's
communication cost (the paper's ``k``); the simulated multiprocessor
then charges an *actual run-time* cost that may fluctuate, modelling
"unstable asynchronous traffic" (paper Section 4): with varying factor
``mm``, "the run time cost of each communication link varied between
``k`` and ``k + mm - 1``", and Table 1 is produced under the worst case
where *all* communication takes ``k + mm - 1`` cycles.

All models are deterministic: the fluctuating model derives each
message's cost from a keyed hash of (seed, edge, iteration), so the
event-driven simulator and the closed-form evaluator see identical
costs and experiments are exactly reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro._types import Op
from repro.errors import ReproError
from repro.graph.ddg import Edge

__all__ = ["CommModel", "UniformComm", "FluctuatingComm", "ZeroComm"]


class CommModel:
    """Interface: compile-time estimate + run-time cost per message."""

    def compile_cost(self, edge: Edge) -> int:
        """Cost the scheduler should plan with for ``edge``."""
        raise NotImplementedError

    def runtime_cost(self, edge: Edge, src: Op) -> int:
        """Actual cost of the message carrying ``src``'s value on ``edge``."""
        raise NotImplementedError

    def runtime_cost_varies(self) -> bool:
        """Whether two messages on one edge may cost different run times.

        ``False`` lets the simulator charge one ``runtime_cost`` per
        edge instead of one per message.  The default is the safe
        answer; a model that overrides :meth:`runtime_cost` must keep
        this in step.
        """
        return True

    def max_compile_cost(self) -> int:
        """Upper bound ``k`` on compile-time costs (configuration height)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroComm(CommModel):
    """Free communication — the Perfect Pipelining / VLIW idealization."""

    def compile_cost(self, edge: Edge) -> int:
        return 0

    def runtime_cost(self, edge: Edge, src: Op) -> int:
        return 0

    def runtime_cost_varies(self) -> bool:
        return False

    def max_compile_cost(self) -> int:
        return 0


@dataclass(frozen=True)
class UniformComm(CommModel):
    """Fixed cost ``k`` per message; per-edge overrides honoured.

    This is the paper's compile-time model and its ``mm = 1`` (no
    fluctuation) run-time model.
    """

    k: int = 2

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ReproError(f"communication cost must be >= 0, got {self.k}")

    def _base(self, edge: Edge) -> int:
        return edge.comm if edge.comm is not None else self.k

    def compile_cost(self, edge: Edge) -> int:
        return self._base(edge)

    def runtime_cost(self, edge: Edge, src: Op) -> int:
        return self._base(edge)

    def runtime_cost_varies(self) -> bool:
        return False

    def max_compile_cost(self) -> int:
        return self.k


@dataclass(frozen=True)
class FluctuatingComm(CommModel):
    """Estimate ``k``; run-time cost in ``[k, k + mm - 1]``.

    ``mode='worst'`` reproduces Table 1's protocol ("at run time all
    communication takes ``k + mm - 1`` cycles, clearly a worst case
    scenario"); ``mode='uniform'`` draws each message's cost
    deterministically from the hash of (seed, edge, iteration).
    """

    k: int = 3
    mm: int = 1
    mode: str = "worst"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ReproError(f"communication cost must be >= 0, got {self.k}")
        if self.mm < 1:
            raise ReproError(f"varying factor mm must be >= 1, got {self.mm}")
        if self.mode not in ("worst", "uniform"):
            raise ReproError(f"unknown fluctuation mode {self.mode!r}")

    def _base(self, edge: Edge) -> int:
        return edge.comm if edge.comm is not None else self.k

    def compile_cost(self, edge: Edge) -> int:
        return self._base(edge)

    def runtime_cost(self, edge: Edge, src: Op) -> int:
        base = self._base(edge)
        if self.mm == 1:
            return base
        if self.mode == "worst":
            return base + self.mm - 1
        key = f"{self.seed}|{edge.src}|{edge.dst}|{edge.distance}|{src.iteration}"
        h = hashlib.blake2b(key.encode(), digest_size=8).digest()
        return base + int.from_bytes(h, "big") % self.mm

    def runtime_cost_varies(self) -> bool:
        return self.mm > 1 and self.mode == "uniform"

    def max_compile_cost(self) -> int:
        return self.k
