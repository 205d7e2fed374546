"""One durable record format for every on-disk store.

The artifact cache, the write-ahead cell journal and the fuzz
signature store all persist checksummed records; this module is the
only one that knows how a record is laid out and what a reader does
when it is damaged.  One record is a frame::

    magic (4) | body length (4, big-endian) | blake2b-16(context, body) | body

The digest binds the body to a *context* string — a cache key, a
campaign key — so an intact frame read under the wrong context fails
exactly like a damaged one.

A :class:`RecordLog` is an append-only file of frames.  Its first
frame is a header naming the format, version and owner, checksummed
under a fixed context; every later frame is checksummed under the
owner.  A file that is not a log of that format, version and owner
raises :class:`~repro.errors.ReproError` and is never truncated;
damage after a valid header (a torn tail from a crash mid-append, a
flipped bit) only ends the scan.  Refusal is loud, recovery is
silent, and the two cannot be confused.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ReproError
from repro.util.io import append_bytes

try:  # advisory locking is POSIX-only; degrade to lockless elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = ["LogScan", "RecordLog", "frame", "unframe"]

_MAGIC = b"\x89RRL"
_LENGTH = struct.Struct(">I")
_DIGEST_SIZE = 16
_HEADER_SIZE = len(_MAGIC) + _LENGTH.size + _DIGEST_SIZE
_HEADER_CONTEXT = "repro-recordlog-header"


def _digest(context: str, body: bytes) -> bytes:
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(context.encode())
    h.update(b"\x00")
    h.update(body)
    return h.digest()


def frame(context: str, body: bytes) -> bytes:
    """``body`` framed and checksummed under ``context``."""
    return _MAGIC + _LENGTH.pack(len(body)) + _digest(context, body) + body


def _next_frame(
    data: bytes, pos: int, context: str
) -> tuple[bytes, int] | None:
    """(body, end offset) of the frame at ``pos``, or None if it is
    missing, truncated or fails its checksum under ``context``."""
    start = pos + _HEADER_SIZE
    if len(data) < start or data[pos : pos + len(_MAGIC)] != _MAGIC:
        return None
    (length,) = _LENGTH.unpack_from(data, pos + len(_MAGIC))
    body = data[start : start + length]
    digest = data[start - _DIGEST_SIZE : start]
    if len(body) != length or digest != _digest(context, body):
        return None
    return body, start + length


def unframe(context: str, data: bytes) -> bytes | None:
    """The body if ``data`` is exactly one intact frame under
    ``context``, else None."""
    found = _next_frame(data, 0, context)
    if found is None or found[1] != len(data):
        return None
    return found[0]


@dataclass(frozen=True)
class LogScan:
    """What :meth:`RecordLog.scan` found."""

    records: tuple[bytes, ...] = ()  #: intact record bodies, in order
    torn: bool = False  #: True when the scan stopped before end of file
    dropped: int = 0  #: bytes past the intact prefix


class RecordLog:
    """Append-only file of frames owned by one format, version and owner."""

    def __init__(self, path: str, fmt: str, version: int, owner: str) -> None:
        self.path = path
        self.fmt = fmt
        self.version = version
        self.owner = owner

    def _header(self) -> bytes:
        return json.dumps(
            {"format": self.fmt, "owner": self.owner, "version": self.version},
            sort_keys=True,
            separators=(",", ":"),
        ).encode()

    def _refuse(self, why: str) -> ReproError:
        return ReproError(
            f"{self.path}: {why}; this build reads and writes {self.fmt} "
            f"version {self.version}, and refuses to read or truncate "
            "anything else"
        )

    def _check_header(self, body: bytes) -> None:
        header = json.loads(body)
        if header.get("format") != self.fmt:
            raise self._refuse(
                f"not a {self.fmt} (format {header.get('format')!r})"
            )
        if header.get("version") != self.version:
            raise self._refuse(
                f"unsupported {self.fmt} version {header.get('version')!r}"
            )
        if header.get("owner") != self.owner:
            raise ReproError(
                f"{self.path} belongs to a different {self.fmt} (log owner "
                f"{header.get('owner')!r}, expected {self.owner!r}); "
                "refusing to read or truncate it"
            )

    def scan(self, *, truncate: bool) -> LogScan:
        """Every intact record; optionally rewind the file past them.

        Stops at the first frame that is torn or fails its checksum.
        ``truncate=True`` (the recovery path) truncates the file to
        the intact prefix; ``truncate=False`` never writes, so it is
        safe to run against a log another process is appending to.
        """
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return LogScan()
        if not raw.startswith(_MAGIC) and not _MAGIC.startswith(raw):
            raise self._refuse(f"not a {self.fmt} record log")
        records: list[bytes] = []
        pos = 0
        found = _next_frame(raw, 0, _HEADER_CONTEXT)
        if found is not None:
            self._check_header(found[0])
            pos = found[1]
            while (found := _next_frame(raw, pos, self.owner)) is not None:
                records.append(found[0])
                pos = found[1]
        torn = pos < len(raw)
        if torn and truncate:
            os.truncate(self.path, pos)
        return LogScan(tuple(records), torn, len(raw) - pos)

    def append(self, bodies: Iterable[bytes]) -> None:
        """Durably append one frame per body (one flush + fsync),
        preceded by the header when the log is empty."""
        data = b"".join(frame(self.owner, body) for body in bodies)
        try:
            empty = os.path.getsize(self.path) == 0
        except FileNotFoundError:
            empty = True
        if empty:
            data = frame(_HEADER_CONTEXT, self._header()) + data
        append_bytes(self.path, data)

    @contextmanager
    def locked(self) -> Iterator[None]:
        """Hold an exclusive advisory lock on the log file."""
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with open(self.path, "ab") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
