"""Sharded, fault-tolerant campaign runner for experiment sweeps.

The paper's evaluation is a *campaign* — Table 1 alone is 25 loops x 3
fluctuation levels — and this package turns each such sweep into a
list of independent, picklable :class:`~repro.runner.cells.Cell`
configurations executed by :func:`~repro.runner.core.run_campaign`:
serially (``workers=1``, the historical behaviour), across a process
pool, or as one shard of a multi-machine run (``shard="i/n"``).
Results merge back deterministically in cell order, so
``run_table1(workers=N)`` is bit-identical for every ``N``.

The runner composes with the compilation pipeline's artifact cache:
pass ``cache_dir=...`` and every worker installs a
:class:`~repro.runner.diskcache.TieredCache` (in-memory LRU in front
of a content-addressed on-disk store sharing the pipeline's chained
pass keys), so scheduler work is shared across processes and across
runs.  See DESIGN.md §7 for the full model.
"""

from repro.runner.cells import (
    Cell,
    execute_cell,
    register_cell_kind,
    sweep_cell,
    table1_cell,
)
from repro.runner.core import (
    CampaignResult,
    CellResult,
    backoff_wave,
    parse_shard,
    run_campaign,
)
from repro.runner.journal import CellJournal, campaign_key, journal_filename
from repro.runner.diskcache import DiskCache, TieredCache

__all__ = [
    "CampaignResult",
    "Cell",
    "CellJournal",
    "CellResult",
    "DiskCache",
    "TieredCache",
    "backoff_wave",
    "campaign_key",
    "execute_cell",
    "journal_filename",
    "parse_shard",
    "register_cell_kind",
    "run_campaign",
    "sweep_cell",
    "table1_cell",
]
