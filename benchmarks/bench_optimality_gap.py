"""Extension study: how close is the greedy scheduler to optimal?

For small random Cyclic graphs we compare the greedy pattern rate with
the best modulo schedule found with unrolling — the schedule class the
paper's patterns live in.  The greedy scheduler should sit close to
the modulo reference, confirming that its advantage over DOACROSS is
not an artifact of weak baselines.

This is a plain pytest file kept out of the tier-1 suite: the modulo
reference's branch and bound takes about 35 s on seed 2's five-node
component.  Run it by path::

    PYTHONPATH=src python -m pytest benchmarks/bench_optimality_gap.py
"""

import statistics

from repro.baselines.optimal import best_modulo_rate
from repro.core.scheduler import schedule_loop
from repro.graph.algorithms import connected_components
from repro.machine.comm import UniformComm
from repro.machine.model import Machine
from repro.workloads import random_cyclic_loop


def test_random_small_components_gap():
    gaps = []
    for seed in (2, 3, 5, 7, 14, 16, 18, 22):
        w = random_cyclic_loop(seed)
        m = Machine(4, UniformComm(3))
        for comp in connected_components(w.graph):
            if not 2 <= len(comp) <= 5:
                continue
            sub = w.graph.subgraph(comp)
            greedy = schedule_loop(sub, m).steady_cycles_per_iteration()
            reference = best_modulo_rate(sub, m, max_unroll=2)
            gaps.append(greedy / max(reference, 1e-9))
    assert gaps, "no small components sampled"
    # greedy within 1.5x of the modulo reference on average, and the
    # reference is itself only an upper bound on optimal
    assert statistics.mean(gaps) <= 1.5
    assert max(gaps) <= 2.5
