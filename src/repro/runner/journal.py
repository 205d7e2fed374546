"""Write-ahead journal of completed campaign cells.

Hour-scale sweeps (the 10^6-loop fuzz campaigns, multi-seed Table 1
grids) must survive process death: a campaign that is SIGKILLed, OOMs
or loses its machine should resume where it stopped, not start over.
:class:`CellJournal` is the persistence layer behind
``run_campaign(..., journal_dir=..., resume=True)``: the parent
appends one checksummed record per *completed* cell (write-ahead of
the in-memory merge), and a resumed campaign replays the journal so
journaled cells re-enter the merge as finished results — flagged
``resumed``, executing zero pipeline passes — leaving the final
report byte-identical to an uninterrupted run (the order-based merge
guarantees the rest).

Format: a :class:`~repro.util.recordlog.RecordLog` owned by the
*campaign key* (a digest of every cell id in the campaign), one
canonical-JSON ``{"cell": ..., "payload": ...}`` frame per completed
cell.  Record checksums are keyed by the campaign key, so a record is
only ever replayed into the exact campaign that wrote it — the
``blake2b over (cell_id, chain_key, payload)`` binding — and pointing
a campaign at another campaign's journal, an older journal version or
any other file is a clean :class:`~repro.errors.ReproError`, never a
silent truncation.

Durability: each record is flushed and fsynced as it is appended; a
crash mid-append leaves at most a *torn tail*.  Recovery keeps every
record before the tear, truncates the rest (counting
``journal.torn_tail``) and re-executes those cells.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.obs.metrics import registry
from repro.util.recordlog import RecordLog

__all__ = [
    "CellJournal",
    "JournalRecovery",
    "campaign_key",
    "journal_filename",
]

#: Journal format version; bumped on any incompatible framing change.
JOURNAL_VERSION = 2

_FORMAT = "campaign journal"


def campaign_key(cells: Iterable[Any]) -> str:
    """Digest identifying a campaign: every cell id, in order.

    Two campaigns share a key exactly when they fan out the same cell
    list — which is the precondition for replaying one's journal into
    the other.  Shard specs deliberately do not participate: every
    shard of one campaign shares the key (each shard keeps its own
    journal *file*, see :func:`journal_filename`).
    """
    h = hashlib.blake2b(digest_size=16)
    for cell in cells:
        h.update(cell.cell_id.encode())
        h.update(b"\n")
    return h.hexdigest()


def journal_filename(shard: tuple[int, int] | None) -> str:
    """Per-shard journal file name inside the journal directory."""
    if shard is None:
        return "cells.journal"
    return f"cells-{shard[0]}-of-{shard[1]}.journal"


@dataclass(frozen=True)
class JournalRecovery:
    """What a journal scan found (and, on recovery, kept)."""

    payloads: dict[str, Mapping[str, Any]] = field(default_factory=dict)
    records: int = 0  #: intact records (payloads dedup: last wins)
    torn_tail: int = 0  #: 1 when the scan stopped at a corrupt/torn record
    truncated_bytes: int = 0  #: bytes dropped by recovery truncation


class CellJournal:
    """Append-only, per-record-checksummed journal of one campaign shard.

    Single-writer by construction: only the campaign *parent* appends
    (workers ship payloads home over the normal result channel), so no
    cross-process locking is needed; concurrent shards write distinct
    files.
    """

    def __init__(self, path: str, campaign: str) -> None:
        self.path = path
        self.campaign = campaign
        self._log = RecordLog(path, _FORMAT, JOURNAL_VERSION, campaign)

    @classmethod
    def open(
        cls,
        journal_dir: str,
        campaign: str,
        shard: tuple[int, int] | None = None,
    ) -> "CellJournal":
        os.makedirs(journal_dir, exist_ok=True)
        return cls(os.path.join(journal_dir, journal_filename(shard)), campaign)

    def scan(self, *, truncate: bool) -> JournalRecovery:
        """Read every intact record; optionally truncate the torn tail.

        ``truncate=True`` is the recovery path; ``truncate=False`` is
        the read-only probe used by progress monitors.  Raises
        :class:`~repro.errors.ReproError` when the file is not this
        campaign's journal at this version.
        """
        scan = self._log.scan(truncate=truncate)
        payloads: dict[str, Mapping[str, Any]] = {}
        for body in scan.records:
            record = json.loads(body)
            payloads[record["cell"]] = record["payload"]
        if scan.torn and truncate:
            registry().counter("journal.torn_tail").inc()
        return JournalRecovery(
            payloads=payloads,
            records=len(scan.records),
            torn_tail=int(scan.torn),
            truncated_bytes=scan.dropped,
        )

    def recover(self) -> JournalRecovery:
        """Scan for resume: keep the intact prefix, drop the torn tail."""
        return self.scan(truncate=True)

    def append(self, cell_id: str, payload: Mapping[str, Any]) -> None:
        """Durably journal one completed cell (flush + fsync).

        Called by the campaign parent *before* the result enters the
        in-memory merge (write-ahead), so a crash after the append can
        only re-deliver the cell, never lose it.  The payload must be
        plain JSON data — which completed cell values already are.
        """
        body = json.dumps(
            {"cell": cell_id, "payload": dict(payload)},
            sort_keys=True,
            separators=(",", ":"),
        )
        self._log.append([body.encode()])
        registry().counter("journal.records").inc()
