"""Atomic file writes and durable appends.

Historically the atomic helpers lived twice — ``obs/export.py`` (text,
for trace and JSON artifacts) and ``runner/diskcache.py`` (bytes, for
cache entries) imported one of the two copies.  This module is the
single implementation; both layers plus the serve daemon's
response/artifact writes go through it.

:func:`append_bytes` is the durability primitive under
:mod:`repro.util.recordlog`'s append-only logs: a whole-file atomic
rewrite would be O(file) per record, so appends instead flush+fsync
each record and rely on the log's recovery scan to discard a torn
tail left by a crash mid-append.

Only :class:`repro.runner.diskcache.DiskCache` passes ``sync=False``
to :func:`atomic_write_bytes`: its entries are recomputable and
checksummed under their key, so it trades the fsync for a possible
empty or short file after an OS crash, which its reader quarantines
as a miss.  Exports and the append-only logs keep syncing.
"""

from __future__ import annotations

import os
import tempfile

__all__ = ["append_bytes", "atomic_write_bytes", "atomic_write_text"]


def atomic_write_bytes(
    path: str, data: bytes, *, sync: bool = True
) -> None:
    """Write ``data`` to ``path`` atomically (temp file + fsync + rename).

    The temp file lives in the destination directory so ``os.replace``
    stays a same-filesystem atomic rename; readers see either the old
    content or the complete new content, never a prefix, even if the
    writer is killed.  ``sync=False`` skips the fsync, which only an
    OS crash or power cut needs: one before the kernel writes the data
    back may leave the renamed file empty or short.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if sync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """:func:`atomic_write_bytes` for text (UTF-8)."""
    if not isinstance(text, str):
        raise TypeError(f"atomic_write_text needs str, got {type(text)}")
    atomic_write_bytes(path, text.encode("utf-8"))


def append_bytes(path: str, data: bytes) -> None:
    """Append ``data`` to ``path`` durably (flush + fsync).

    Unlike the atomic writers this is *not* torn-proof — a crash
    mid-append can leave a partial record at the end of the file.  It
    is meant for :class:`repro.util.recordlog.RecordLog`, whose scan
    detects and drops such a tail; in exchange an append costs
    O(record) instead of O(file).
    """
    with open(path, "ab") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
