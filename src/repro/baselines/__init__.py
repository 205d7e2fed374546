"""Baseline schedulers: DOACROSS (± reordering), Perfect Pipelining
and the modulo-schedule reference."""

from repro.baselines.doacross import (
    DoacrossSchedule,
    doacross_delay,
    schedule_doacross,
)
from repro.baselines.optimal import (
    ModuloSchedule,
    best_modulo_rate,
    optimal_modulo_schedule,
    rate_lower_bound,
)
from repro.baselines.perfect import schedule_perfect
from repro.baselines.reorder import minimize_delay

__all__ = [
    "DoacrossSchedule",
    "ModuloSchedule",
    "best_modulo_rate",
    "doacross_delay",
    "minimize_delay",
    "optimal_modulo_schedule",
    "rate_lower_bound",
    "schedule_doacross",
    "schedule_perfect",
]
