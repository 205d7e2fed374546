"""Shared elementary types.

The whole library talks about *operation instances*: a (node, iteration)
pair naming one dynamic execution of a loop-body statement.  They are
deliberately tiny immutable values so they can key dictionaries in the
scheduler's hot loops.  Below the report — program emission, the
lowering, both simulators and codegen — an instance is the integer
``it * n + v`` instead, ``v`` being the node's index in an ``n``-node
graph; :func:`decode_rows` turns such rows back into ops where a report,
a message or an error names them.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple, Sequence


class Op(NamedTuple):
    """One dynamic instance of a loop-body node.

    Attributes
    ----------
    node:
        Name of the static node in the dependence graph.
    iteration:
        Zero-based iteration index of the original loop.
    """

    node: str
    iteration: int

    def shifted(self, delta: int) -> "Op":
        """Return the same node ``delta`` iterations later."""
        return Op(self.node, self.iteration + delta)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.node}[{self.iteration}]"


def decode_rows(
    rows: Sequence[Sequence[int]], names: Sequence[str]
) -> list[list[Op]]:
    """Rows of instance indices ``it * len(names) + v`` as rows of ops."""
    n = len(names)
    return [
        [Op(names[v], it) for it, v in map(divmod, row, repeat(n))]
        for row in rows
    ]


def tile(cells: list[int], reps: int, step: int, first: int = 0) -> list[int]:
    """``cells`` repeated ``reps`` times, repetition ``r`` shifted by
    ``first + r * step`` (``step >= 1``)."""
    return [c + s for s in range(first, first + reps * step, step) for c in cells]


ProcId = int
Cycle = int
