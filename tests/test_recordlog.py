"""The shared record log: one torn-write property over every store.

Each store built on :mod:`repro.util.recordlog` writes a few records,
then the file is truncated inside its final record or has one bit of
that record flipped.  Exactly the intact prefix must survive: the
append-only logs rewind the file to that prefix, and a damaged cache
file is one miss plus one quarantine.  Files in an older on-disk
format are refused, never truncated.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.fuzz.sigstore import SignatureStore
from repro.pipeline.cache import CacheEntry
from repro.runner.diskcache import DiskCache
from repro.runner.journal import CellJournal
from repro.util.recordlog import frame, unframe


class CacheStore:
    """One cache entry; its file is the whole final record."""

    def write(self, root):
        cache = DiskCache(str(root))
        cache.put("k" * 16, CacheEntry({"x": 1}, {"n": 1}, ()))
        return cache._path("k" * 16), 0

    def check(self, root, path, prefix):
        cache = DiskCache(str(root))
        assert cache.get("k" * 16) is None
        assert cache.corrupt_evictions == 1
        assert len(cache.quarantined()) == 1
        assert not os.path.exists(path)


class JournalStore:
    """Four journaled cells; the fourth is the final record."""

    def write(self, root):
        journal = CellJournal(str(root / "cells.journal"), "c" * 32)
        for i in range(3):
            journal.append(f"cell-{i}", {"value": i})
        size = os.path.getsize(journal.path)
        journal.append("cell-3", {"value": 3})
        return journal.path, size

    def check(self, root, path, prefix):
        dropped = os.path.getsize(path) - len(prefix)
        rec = CellJournal(path, "c" * 32).recover()
        assert rec.records == 3
        assert sorted(rec.payloads) == ["cell-0", "cell-1", "cell-2"]
        assert rec.torn_tail == int(dropped > 0)
        assert rec.truncated_bytes == dropped
        assert open(path, "rb").read() == prefix


class SigstoreStore:
    """Three merges of one signature each; the third is the final record."""

    def write(self, root):
        store = SignatureStore(root / "sig.store")
        store.merge(["a"])
        store.merge(["b"])
        size = os.path.getsize(store.path)
        store.merge(["c"])
        return store.path, size

    def check(self, root, path, prefix):
        store = SignatureStore(path)
        merge = store.merge([])
        assert merge.total == 2
        assert open(path, "rb").read() == prefix
        assert store.load() == {"a", "b"}
        assert store.merge(["c"]).new == ("c",)


STORES = {
    "diskcache": CacheStore(),
    "journal": JournalStore(),
    "sigstore": SigstoreStore(),
}


@pytest.mark.parametrize("store", sorted(STORES))
@given(
    bitflip=st.booleans(),
    where=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=120, deadline=None)
def test_torn_final_record_keeps_intact_prefix(
    tmp_path_factory, store, bitflip, where
):
    """Truncating the final record at any byte, or flipping any bit of
    it, loses that record and nothing else."""
    kind = STORES[store]
    root = tmp_path_factory.mktemp(store)
    path, start = kind.write(root)
    raw = open(path, "rb").read()
    prefix, final = raw[:start], bytearray(raw[start:])
    if bitflip:
        byte, bit = divmod(where % (8 * len(final)), 8)
        final[byte] ^= 1 << bit
        damaged = prefix + bytes(final)
    else:
        damaged = prefix + bytes(final[: where % len(final)])
    with open(path, "wb") as fh:
        fh.write(damaged)
    kind.check(root, path, prefix)


def test_torn_first_append_recovers(tmp_path):
    """A crash inside the very first append (header included) leaves no
    intact record, and the next append must still be readable rather
    than land behind the torn bytes."""
    journal = CellJournal(str(tmp_path / "cells.journal"), "c" * 32)
    journal.append("cell-0", {"value": 0})
    raw = open(journal.path, "rb").read()
    for cut in range(1, len(raw)):
        with open(journal.path, "wb") as fh:
            fh.write(raw[:cut])
        assert journal.recover().records == 0
        journal.append("cell-1", {"value": 1})
        assert list(journal.recover().payloads) == ["cell-1"]


class TestFrame:
    def test_round_trip_and_context_binding(self):
        data = frame("key", b"body")
        assert unframe("key", data) == b"body"
        assert unframe("other", data) is None
        assert unframe("key", data + b"x") is None
        assert unframe("key", data[:-1]) is None


class TestOlderFormatsRefused:
    def test_v1_journal_is_refused_not_truncated(self, tmp_path):
        path = tmp_path / "cells.journal"
        line = json.dumps({"campaign": "c" * 32, "journal": 1})
        path.write_bytes(f"{'0' * 32} {line}\n".encode())
        before = path.read_bytes()
        with pytest.raises(ReproError, match=r"cells\.journal.*version 2"):
            CellJournal(str(path), "c" * 32).recover()
        assert path.read_bytes() == before

    def test_unframed_sigstore_is_refused_not_truncated(self, tmp_path):
        path = tmp_path / "sig.store"
        path.write_bytes(b'"abc"\n"xyz"\n')
        store = SignatureStore(path)
        for read in (store.load, lambda: store.merge(["abc"])):
            with pytest.raises(ReproError, match=r"sig\.store.*version 2"):
                read()
        assert path.read_bytes() == b'"abc"\n"xyz"\n'

    def test_journal_is_not_a_sigstore(self, tmp_path):
        journal = CellJournal(str(tmp_path / "x"), "c" * 32)
        journal.append("cell-0", {"value": 0})
        with pytest.raises(ReproError, match="not a signature store"):
            SignatureStore(journal.path).load()
