"""On-disk artifact cache and the two-tier (memory + disk) composition.

The pipeline's :class:`~repro.pipeline.cache.ArtifactCache` is
per-process; a campaign fanned out over worker processes would re-run
every scheduler pass in every worker.  :class:`DiskCache` persists
:class:`~repro.pipeline.cache.CacheEntry` objects content-addressed by
the *same chained pass keys* the in-memory cache uses (see
``pipeline/cache.py``), so any process that computes — or merely
needs — a pass output finds it under an identical key.

:class:`TieredCache` stacks the in-memory LRU in front of the disk
store: ``get`` consults memory first, then disk (promoting hits into
memory); ``put`` writes through to both.  A campaign worker holding a
``TieredCache`` therefore shares scheduler results with every sibling
worker and with past runs — a warm re-run of ``run_table1`` executes
zero scheduler passes even in a cold-started process.

Durability: the cache is *self-healing*.  Every file is one
:func:`repro.util.recordlog.frame` whose checksum context is the cache
key; ``get`` verifies it before unpickling, so a truncated write, a
flipped bit, or a file copied under the wrong key (stale key) is
detected, **quarantined**
(moved into ``<root>/_quarantine/``, counted in ``corrupt_evictions``)
and reported as a plain miss — a campaign over a trashed cache
directory recomputes and overwrites, it never crashes.  Writes go
through :func:`repro.util.io.atomic_write_bytes` with ``sync=False``
(temp file + ``os.replace``, no fsync), so a worker killed mid-write
can at worst leave a stale temp file, never a half-entry under a
live key: a killed process loses no page-cache writes.  An OS crash
or power cut can, and may leave an entry empty, cut short or holding
an older file's blocks; its checksum fails, so it is quarantined and
recomputed like any other damage, and the next ``put`` heals the
key.  An entry is a recomputable copy of a pass output, so it is not
worth an fsync per write; the cell journal, which kill→resume relies
on, keeps its fsync per record.
"""

from __future__ import annotations

import os
import pickle
import tempfile

from repro.pipeline.cache import ArtifactCache, CacheEntry
from repro.util.io import atomic_write_bytes
from repro.util.recordlog import frame, unframe

__all__ = ["DiskCache", "TieredCache"]

_SUFFIX = ".pkl"
_QUARANTINE = "_quarantine"


class DiskCache:
    """Content-addressed store of cache entries under one directory.

    Keys are the pipeline's chained pass keys (hex digests); each maps
    to one checksummed file.  Safe for concurrent use by many
    processes: writers are atomic, readers verify-then-unpickle and
    quarantine anything that fails, and two processes writing the same
    key write identical content (keys are content addresses).
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.put_errors = 0
        self.corrupt_evictions = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + _SUFFIX)

    def files(self) -> list[str]:
        """Names of the entry files under the root, sorted."""
        try:
            return sorted(
                f for f in os.listdir(self.root) if f.endswith(_SUFFIX)
            )
        except OSError:
            return []

    def __len__(self) -> int:
        return len(self.files())

    # ------------------------------------------------------------------
    def _quarantine(self, key: str, reason: str) -> None:
        """Move a bad file out of the way so it is recomputed, not
        retried; keep it (uniquely renamed) for post-mortems."""
        self.corrupt_evictions += 1
        qdir = os.path.join(self.root, _QUARANTINE)
        try:
            os.makedirs(qdir, exist_ok=True)
            fd, target = tempfile.mkstemp(
                dir=qdir, prefix=f"{key}.{reason}.", suffix=_SUFFIX
            )
            os.close(fd)
            os.replace(self._path(key), target)
        except OSError:
            # Quarantine is best-effort: if the move fails (e.g. the
            # file vanished), the next put overwrites the key anyway.
            pass

    def quarantined(self) -> list[str]:
        """Files currently sitting in the quarantine directory."""
        try:
            return sorted(os.listdir(os.path.join(self.root, _QUARANTINE)))
        except OSError:
            return []

    # ------------------------------------------------------------------
    def get(self, key: str) -> CacheEntry | None:
        try:
            with open(self._path(key), "rb") as fh:
                data = fh.read()
        except OSError:
            self.misses += 1
            return None
        blob = unframe(key, data)
        if blob is None:
            self._quarantine(key, "checksum")
            self.misses += 1
            return None
        try:
            entry = pickle.loads(blob)
        except (
            pickle.PickleError, EOFError, AttributeError, TypeError, ValueError
        ):
            # Checksummed but undeserializable — e.g. written by an
            # incompatible library version (a class whose layout
            # changed).  Same treatment.
            self._quarantine(key, "unpickle")
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        try:
            blob = pickle.dumps(entry)
        except Exception:
            # Unpicklable artifact: skip silently — the in-memory tier
            # still serves this process; other processes recompute.
            self.put_errors += 1
            return
        try:
            atomic_write_bytes(
                self._path(key), frame(key, blob), sync=False
            )
        except OSError:
            self.put_errors += 1

    def clear(self) -> None:
        for f in self.files():
            try:
                os.unlink(os.path.join(self.root, f))
            except OSError:
                pass
        self.hits = 0
        self.misses = 0
        self.put_errors = 0
        self.corrupt_evictions = 0

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "put_errors": self.put_errors,
            "corrupt_evictions": self.corrupt_evictions,
        }


class TieredCache(ArtifactCache):
    """In-memory LRU in front of a shared :class:`DiskCache`.

    Drop-in everywhere an :class:`ArtifactCache` is accepted (it *is*
    one).  The in-memory tier absorbs repeat lookups within a process;
    the disk tier shares results across processes and runs.
    """

    def __init__(self, disk: DiskCache, maxsize: int = 512) -> None:
        super().__init__(maxsize=maxsize)
        self.disk = disk

    def get(self, key: str) -> CacheEntry | None:
        entry = super().get(key)
        if entry is not None:
            return entry
        entry = self.disk.get(key)
        if entry is None:
            return None
        # Promote, and count the lookup as a hit overall: the memory
        # miss already recorded by super().get() is corrected here so
        # stats() reflect what the *caller* observed.
        with self._lock:
            self.misses -= 1
            self.hits += 1
        super().put(key, entry)
        return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        super().put(key, entry)
        self.disk.put(key, entry)

    def stats(self) -> dict[str, int]:
        s = super().stats()
        s["disk"] = self.disk.stats()  # type: ignore[assignment]
        return s

    def fresh(self) -> "TieredCache":
        return TieredCache(DiskCache(self.disk.root), self.maxsize)
