"""Cache I/O fault injection and the cache corruption helper.

Two ways to exercise :class:`~repro.runner.diskcache.DiskCache`'s
self-healing path:

* :class:`ChaosDiskCache` — a drop-in ``DiskCache`` that corrupts its
  *own* writes according to a :class:`~repro.chaos.faults.FaultPlan`'s
  ``CacheFaults`` spec (deterministic per cache key), modelling a
  flaky storage layer under an otherwise healthy campaign;
* :func:`corrupt_cache_dir` — post-hoc vandalism of an existing cache
  directory (the acceptance-criteria scenario: a campaign over a
  deliberately corrupted cache must recompute, quarantine, and finish
  with zero failed cells).

Corruption kinds match the fault model: ``truncate`` (half the file is
gone — a torn write), ``bitflip`` (one flipped bit — media decay),
``stale`` (a *valid-looking* entry whose checksum was computed for a
different key — a file restored to the wrong name).
"""

from __future__ import annotations

import hashlib
import os

from repro.chaos.faults import CacheFaults, FaultEvent, FaultPlan
from repro.runner.diskcache import DiskCache
from repro.util.recordlog import frame

__all__ = ["ChaosDiskCache", "corrupt_blob", "corrupt_cache_dir"]


def _u(seed: int, *key: object) -> float:
    text = "|".join([str(seed), *map(str, key)])
    h = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(h, "big") / 2**64


def corrupt_blob(data: bytes, kind: str, *, salt: str = "") -> bytes:
    """Return ``data`` damaged in the requested way (deterministic)."""
    if kind == "truncate":
        return data[: len(data) // 2]
    if kind == "bitflip":
        if not data:
            return b"\xff"
        pos = int(_u(0, "flip", salt, len(data)) * len(data))
        return data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1 :]
    if kind == "stale":
        # Re-frame the file under a *different* key: structurally
        # valid, semantically someone else's entry.
        return frame(f"stale-{salt}", data)
    raise ValueError(f"unknown corruption kind: {kind!r}")


class ChaosDiskCache(DiskCache):
    """A :class:`DiskCache` whose writes are sabotaged by a fault plan.

    Each ``put`` first lands the genuine entry atomically, then — with
    the ``CacheFaults`` probability, decided deterministically from the
    plan seed and the cache key — overwrites it with a damaged copy.
    ``get`` is inherited unchanged: the whole point is that the normal
    verify-on-read path detects every one of these.
    """

    def __init__(self, root: str, plan: FaultPlan) -> None:
        super().__init__(root)
        self.plan = plan
        self.events: list[FaultEvent] = []

    def put(self, key, entry) -> None:
        super().put(key, entry)
        for i, spec in enumerate(self.plan.of_type(CacheFaults)):
            if self.plan.uniform("cache?", i, key) >= spec.prob:
                continue
            kind = spec.kinds[
                self.plan.randint(0, len(spec.kinds) - 1, "cachekind", i, key)
            ]
            path = self._path(key)
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
                with open(path, "wb") as fh:
                    fh.write(corrupt_blob(data, kind, salt=key))
            except OSError:
                continue
            self.events.append(
                FaultEvent(
                    "cache_corrupt", 0, None, f"{kind} on {key[:12]}..."
                )
            )
            break  # one corruption per entry is plenty


def corrupt_cache_dir(
    root: str,
    *,
    seed: int,
    fraction: float = 0.5,
    kinds: tuple[str, ...] = ("truncate", "bitflip", "stale"),
) -> list[str]:
    """Damage a deterministic ``fraction`` of the entries under ``root``.

    Returns the corrupted file names (sorted).  Selection and damage
    kind are pure functions of ``seed`` and each file name, so tests
    and the chaos driver reproduce the exact same wreckage every time.
    """
    victims: list[str] = []
    if not os.path.isdir(root):
        return victims
    for name in DiskCache(root).files():
        if _u(seed, "pick", name) >= fraction:
            continue
        kind = kinds[int(_u(seed, "kind", name) * len(kinds))]
        path = os.path.join(root, name)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(corrupt_blob(data, kind, salt=name))
        except OSError:
            continue
        victims.append(name)
    return victims
