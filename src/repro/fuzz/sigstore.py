"""Cross-run persistence for fuzz behavior signatures.

A single fuzz run already dedups behaviors internally — the report's
``coverage.signatures`` set answers "new behavior *this run*".  Long
campaigns want the stronger question: "new behavior *ever*", across
nightly runs, reseeds and concurrent shards.  :class:`SignatureStore`
answers it with a tiny persisted set: a
:class:`~repro.util.recordlog.RecordLog` with one frame per signature,
merged under the log's advisory lock so concurrent shards (or a fuzz
run racing a chaos soak) never lose updates or write duplicates.  A
merge recovers the log (dropping any torn tail a crash left), then
appends only the never-seen signatures in one durable append.

:func:`promote_survivors` closes the fuzz→corpus loop: minimized
oracle-failing repros whose canonical case is not already pinned in
``tests/corpus/`` are written to a promotion directory as version-1
corpus entries with provenance (seed, pattern, oracle, case id), ready
for human review and check-in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.obs.metrics import registry
from repro.util.recordlog import RecordLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fuzz.campaign import FuzzReport

__all__ = ["SignatureStore", "SigstoreMerge", "promote_survivors"]


#: Store format version; version 1 was unframed JSON lines.
SIGSTORE_VERSION = 2

_FORMAT = "signature store"


@dataclass(frozen=True)
class SigstoreMerge:
    """Outcome of merging one run's signatures into the store."""

    new: tuple[str, ...]  #: signatures never seen in any prior run
    known: int  #: incoming signatures the store already held
    total: int  #: store size after the merge


class SignatureStore:
    """Advisory-locked, append-only set of behavior signatures."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = str(path)
        # One store per file, so the format is its own owner.
        self._log = RecordLog(self.path, _FORMAT, SIGSTORE_VERSION, _FORMAT)

    def _read(self, *, truncate: bool) -> set[str]:
        return {b.decode() for b in self._log.scan(truncate=truncate).records}

    def load(self) -> frozenset[str]:
        """Every signature ever recorded (read-only, lock-free)."""
        return frozenset(self._read(truncate=False))

    def merge(self, signatures: Iterable[str]) -> SigstoreMerge:
        """Record ``signatures``; report which were new *ever*."""
        incoming = sorted(set(signatures))
        with self._log.locked():
            known = self._read(truncate=True)
            new = tuple(s for s in incoming if s not in known)
            if new:
                self._log.append(s.encode() for s in new)
        reg = registry()
        if new:
            reg.counter("sigstore.new").inc(len(new))
        known_count = len(incoming) - len(new)
        if known_count:
            reg.counter("sigstore.known").inc(known_count)
        return SigstoreMerge(
            new=new, known=known_count, total=len(known) + len(new)
        )


def promote_survivors(
    report: "FuzzReport",
    promote_dir: str | os.PathLike,
    *,
    corpus_dir: str | os.PathLike | None = None,
) -> list[Path]:
    """Write novel minimized repros as reviewable corpus entries.

    Every oracle failure in ``report`` carries a minimized canonical
    repro; the ones whose case is not already pinned in the checked-in
    corpus (nor already promoted in a prior run) are written under
    ``promote_dir`` as version-1 entries with provenance.  Returns the
    paths written this call, in report order.
    """
    from repro.fuzz.corpus import default_corpus_dir, load_corpus, save_case
    from repro.fuzz.generators import FuzzCase

    root = Path(corpus_dir) if corpus_dir is not None else default_corpus_dir()
    pinned = (
        {case.case_id for case in load_corpus(root).values()}
        if root.is_dir()
        else set()
    )
    target = Path(promote_dir)
    written: list[Path] = []
    promoted: set[str] = set()
    for failure in report.failures:
        case_id = failure["case_id"]
        if case_id in pinned or case_id in promoted:
            continue
        promoted.add(case_id)
        case = FuzzCase.from_dict(failure["case"])
        target.mkdir(parents=True, exist_ok=True)
        written.append(
            save_case(
                case,
                target,
                notes=(
                    f"auto-promoted: {failure['oracle']} oracle failure "
                    f"({failure['message']})"
                ),
                provenance={
                    "seed": report.seed,
                    "pattern": failure["pattern"],
                    "oracle": failure["oracle"],
                    "case_id": case_id,
                },
            )
        )
        registry().counter("sigstore.promotions").inc()
    return written
