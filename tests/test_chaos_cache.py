"""Self-healing artifact store: corruption detection, quarantine, and
campaign-level recovery over a vandalized cache directory."""

import os

import pytest

from repro.chaos import (
    CacheFaults,
    ChaosDiskCache,
    FaultPlan,
    corrupt_cache_dir,
    run_cache_selfheal,
)
from repro.chaos.cache import corrupt_blob
from repro.experiments import table1_cells
from repro.pipeline.cache import CacheEntry
from repro.runner import DiskCache, TieredCache, run_campaign
from repro.runner.journal import CellJournal
from repro.util.recordlog import frame

KEY = "a" * 16


def entry(tag):
    return CacheEntry({"x": tag}, {"n": 1}, ())


def damage(cache, key, kind):
    path = cache._path(key)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(corrupt_blob(data, kind, salt=key))


class TestQuarantine:
    @pytest.mark.parametrize("kind", ["truncate", "bitflip", "stale"])
    def test_each_corruption_kind_is_detected(self, tmp_path, kind):
        c = DiskCache(str(tmp_path))
        c.put(KEY, entry("good"))
        assert c.get(KEY) is not None
        damage(c, KEY, kind)
        assert c.get(KEY) is None, f"{kind} damage served as a hit"
        assert c.corrupt_evictions == 1
        assert len(c.quarantined()) == 1
        # the bad file is out of the way: a re-put fully heals the key
        c.put(KEY, entry("recomputed"))
        assert c.get(KEY).artifacts == {"x": "recomputed"}

    def test_stale_entry_is_internally_consistent_but_rejected(
        self, tmp_path
    ):
        # A 'stale' blob is a *valid* frame for a different key — only
        # the keyed checksum catches it.
        c = DiskCache(str(tmp_path))
        c.put(KEY, entry("mine"))
        damage(c, KEY, "stale")
        other = DiskCache(str(tmp_path))
        assert other.get(KEY) is None
        assert other.corrupt_evictions == 1

    def test_garbage_and_legacy_files_quarantined(self, tmp_path):
        c = DiskCache(str(tmp_path))
        with open(c._path(KEY), "wb") as fh:
            fh.write(b"not a cache entry at all")
        assert c.get(KEY) is None
        assert c.corrupt_evictions == 1
        quarantined = c.quarantined()
        assert len(quarantined) == 1
        assert quarantined[0].startswith(f"{KEY}.checksum.")

    def test_checksummed_but_unpicklable_quarantined(self, tmp_path):
        c = DiskCache(str(tmp_path))
        with open(c._path(KEY), "wb") as fh:
            fh.write(frame(KEY, b"\x80\x04 definitely not pickle"))
        assert c.get(KEY) is None
        assert c.quarantined()[0].startswith(f"{KEY}.unpickle.")

    def test_stats_expose_corrupt_evictions(self, tmp_path):
        c = DiskCache(str(tmp_path))
        c.put(KEY, entry("x"))
        damage(c, KEY, "bitflip")
        c.get(KEY)
        s = c.stats()
        assert s["corrupt_evictions"] == 1
        assert s["misses"] == 1 and s["hits"] == 0
        c.clear()
        assert c.stats()["corrupt_evictions"] == 0

    def test_unknown_corruption_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption kind"):
            corrupt_blob(b"data", "meteor")


class TestUnsyncedWrites:
    """Entries are written without fsync, so an OS crash can leave one
    empty or cut short under its live key; each is a quarantined miss."""

    @pytest.mark.parametrize("cut", ["empty", "mid_body"])
    def test_torn_entry_is_a_quarantined_miss_and_heals(self, tmp_path, cut):
        c = DiskCache(str(tmp_path))
        c.put(KEY, entry("good"))
        path = c._path(KEY)
        with open(path, "rb") as fh:
            data = fh.read()
        head = len(frame(KEY, b""))  # magic, length and digest
        keep = 0 if cut == "empty" else head + (len(data) - head) // 2
        assert cut == "empty" or head < keep < len(data)
        with open(path, "wb") as fh:
            fh.write(data[:keep])
        assert c.get(KEY) is None
        assert c.corrupt_evictions == 1 and c.misses == 1
        assert [q.split(".")[:2] for q in c.quarantined()] == [
            [KEY, "checksum"]
        ]
        c.put(KEY, entry("recomputed"))
        assert c.get(KEY).artifacts == {"x": "recomputed"}

    def test_cache_puts_skip_fsync_journal_appends_keep_it(
        self, tmp_path, monkeypatch
    ):
        synced = []
        real = os.fsync

        def counting(fd):
            synced.append(fd)
            real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        disk = DiskCache(str(tmp_path / "cache"))
        disk.put(KEY, entry("disk"))
        TieredCache(disk).put("b" * 16, entry("tiered"))
        assert synced == []
        assert len(disk) == 2
        journal = CellJournal.open(str(tmp_path / "journal"), "c" * 32)
        for i in range(3):
            journal.append(f"cell{i}", {"value": i})
            assert len(synced) == i + 1
        assert journal.recover().records == 3


class TestChaosDiskCache:
    def test_certain_fault_corrupts_every_write(self, tmp_path):
        plan = FaultPlan(1, (CacheFaults(prob=1.0),))
        c = ChaosDiskCache(str(tmp_path), plan)
        c.put(KEY, entry("doomed"))
        assert len(c.events) == 1
        assert c.events[0].kind == "cache_corrupt"
        # a healthy reader detects the damage and recovers by re-put
        reader = DiskCache(str(tmp_path))
        assert reader.get(KEY) is None
        assert reader.corrupt_evictions == 1

    def test_zero_fault_plan_is_a_plain_cache(self, tmp_path):
        c = ChaosDiskCache(str(tmp_path), FaultPlan(1))
        c.put(KEY, entry("fine"))
        assert c.events == []
        assert DiskCache(str(tmp_path)).get(KEY).artifacts == {"x": "fine"}

    def test_damage_is_deterministic_per_key(self, tmp_path):
        plan = FaultPlan(3, (CacheFaults(prob=0.5),))
        verdicts = {}
        for run in range(2):
            root = str(tmp_path / f"run{run}")
            c = ChaosDiskCache(root, plan)
            for i in range(20):
                c.put(f"key{i:04d}", entry(i))
            verdicts[run] = [e.detail for e in c.events]
        assert verdicts[0] == verdicts[1]
        assert 0 < len(verdicts[0]) < 20  # prob=0.5 hit some, not all


class TestCorruptCacheDir:
    def test_deterministic_victim_selection(self, tmp_path):
        for run in range(2):
            root = str(tmp_path / f"run{run}")
            c = DiskCache(root)
            for i in range(12):
                c.put(f"key{i:04d}", entry(i))
        v0 = corrupt_cache_dir(
            str(tmp_path / "run0"), seed=9, fraction=0.5
        )
        v1 = corrupt_cache_dir(
            str(tmp_path / "run1"), seed=9, fraction=0.5
        )
        assert v0 == v1
        assert 0 < len(v0) < 12

    def test_missing_dir_is_a_noop(self, tmp_path):
        assert corrupt_cache_dir(
            str(tmp_path / "nope"), seed=1, fraction=1.0
        ) == []


class TestCampaignSelfHeal:
    def test_campaign_over_corrupted_cache_recovers(self, tmp_path):
        root = str(tmp_path / "artifacts")
        cells = table1_cells([1], iterations=8)
        first = run_campaign(cells, workers=1, cache_dir=root)
        assert first.ok

        victims = corrupt_cache_dir(root, seed=1, fraction=1.0)
        assert victims, "expected cached entries to vandalize"

        second = run_campaign(cells, workers=1, cache_dir=root)
        assert second.ok, "corrupted cache must never fail a campaign"
        assert [r.value for r in second.results] == [
            r.value for r in first.results
        ]
        disk = DiskCache(root)
        assert disk.quarantined(), "damage should be quarantined"
        # the store healed: a third run is clean hits again
        third = run_campaign(cells, workers=1, cache_dir=root)
        assert third.ok
        for name, slot in third.pipeline_summary()["passes"].items():
            assert slot["cache_hits"] == slot["runs"], name

    def test_selfheal_driver_reports_healed(self, tmp_path):
        report = run_cache_selfheal(
            seed=1, cache_dir=str(tmp_path / "c"), iterations=8
        )
        assert report["healed"] is True
        assert report["second_failed_cells"] == 0
        assert report["results_identical"] is True
        assert report["corrupted_entries"] > 0
        assert report["quarantined_files"] > 0
        assert os.path.isdir(report["cache_dir"])
