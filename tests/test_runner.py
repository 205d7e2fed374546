"""Campaign runner: sharding, fault tolerance, two-tier caching."""

import os
import pickle
import time

import pytest

from repro.errors import CampaignError, ReproError
from repro.experiments import (
    run_comm_sweep,
    run_table1,
    sweep_cells,
    table1_cells,
)
from repro.pipeline import default_cache
from repro.pipeline.cache import CacheEntry
from repro.runner import (
    Cell,
    DiskCache,
    TieredCache,
    backoff_delay,
    execute_cell,
    parse_shard,
    run_campaign,
)

SEEDS = [1, 2, 3, 4]
ITER = 10


def ok_cell(i):
    return Cell.make("_selftest", action="ok", echo=i)


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------
class TestCell:
    def test_params_are_order_insensitive(self):
        assert Cell.make("t", a=1, b=2) == Cell.make("t", b=2, a=1)

    def test_cell_id(self):
        c = Cell.make("table1", seed=7, mm=3)
        assert c.cell_id == "table1/mm=3/seed=7"

    def test_cells_are_picklable(self):
        c = table1_cells([1], iterations=5)[0]
        assert pickle.loads(pickle.dumps(c)) == c

    def test_unknown_kind_raises(self):
        with pytest.raises(ReproError, match="unknown cell kind"):
            execute_cell(Cell.make("no-such-kind"))

    def test_canonical_orders(self):
        t = table1_cells([1, 2], mms=(1, 3), iterations=5)
        assert [c.mapping["seed"] for c in t] == [1, 1, 2, 2]
        s = sweep_cells([1, 2], true_ks=(3, 7), iterations=5)
        assert [c.mapping["true_k"] for c in s] == [3, 3, 7, 7]


# ----------------------------------------------------------------------
# disk + tiered cache
# ----------------------------------------------------------------------
def entry(tag):
    return CacheEntry({"x": tag}, {"n": 1}, ())


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        d = DiskCache(str(tmp_path))
        d.put("abc123", entry("v"))
        got = d.get("abc123")
        assert got is not None and got.artifacts["x"] == "v"
        assert len(d) == 1

    def test_miss(self, tmp_path):
        d = DiskCache(str(tmp_path))
        assert d.get("nothere") is None
        assert d.stats()["misses"] == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        d = DiskCache(str(tmp_path))
        (tmp_path / "bad.pkl").write_bytes(b"not a pickle")
        assert d.get("bad") is None

    def test_unpicklable_put_skipped(self, tmp_path):
        d = DiskCache(str(tmp_path))
        d.put("k", CacheEntry({"f": lambda: 1}, {}, ()))
        assert d.get("k") is None
        assert d.stats()["put_errors"] == 1

    def test_clear(self, tmp_path):
        d = DiskCache(str(tmp_path))
        d.put("k", entry("v"))
        d.clear()
        assert len(d) == 0 and d.get("k") is None

    def test_shared_between_instances(self, tmp_path):
        DiskCache(str(tmp_path)).put("k", entry("v"))
        assert DiskCache(str(tmp_path)).get("k").artifacts["x"] == "v"


class TestDiskCacheSchedules:
    """Evaluation artifacts (``Schedule``) across pickle layouts."""

    def test_schedule_in_placement_layout_still_loads(self, tmp_path):
        # A schedule pickled with only the placement tables, the state
        # every schedule had before schedules could be held as rows.
        from repro._types import Op
        from repro.core.schedule import Placement, Schedule

        placements = [
            Placement(0, 0, Op("A", 0), 1),
            Placement(1, 1, Op("B", 0), 2),
            Placement(3, 0, Op("A", 1), 1),
        ]
        old = Schedule.__new__(Schedule)
        old.__dict__.update(
            processors=2,
            _by_op={p.op: p for p in placements},
            _by_proc=[[placements[0], placements[2]], [placements[1]]],
            _sorted=True,
        )
        d = DiskCache(str(tmp_path))
        d.put("old", CacheEntry({"evaluation": old}, {}, ()))
        got = d.get("old").artifacts["evaluation"]
        assert got.makespan() == 4
        assert got.placement(Op("B", 0)) == placements[1]
        assert got.order() == [[Op("A", 0), Op("A", 1)], [Op("B", 0)]]
        assert len(got) == 3 and got.used_processors() == [0, 1]

    def test_row_schedule_roundtrips(self, tmp_path):
        from repro._types import Op
        from repro.graph.ddg import DependenceGraph
        from repro.machine.comm import UniformComm
        from repro.sim.fastpath import evaluate

        g = DependenceGraph()
        g.add_node("A", 1)
        g.add_node("B", 2)
        g.add_edge("A", "B")
        g.add_edge("B", "A", distance=1)
        order = [[Op("A", i) for i in range(3)], [Op("B", i) for i in range(3)]]
        lazy = evaluate(g, order, UniformComm(2))
        built = evaluate(g, order, UniformComm(2))
        built.placements()  # builds the placement tables
        d = DiskCache(str(tmp_path))
        d.put("lazy", CacheEntry({"evaluation": lazy}, {}, ()))
        got = d.get("lazy").artifacts["evaluation"]
        assert got.makespan() == built.makespan() == 19
        assert got.order() == built.order() == order
        assert got.placements() == built.placements()
        assert got.ops_on(1) == built.ops_on(1)


class TestTieredCache:
    def test_is_an_artifact_cache(self, tmp_path):
        from repro.pipeline import ArtifactCache

        assert isinstance(TieredCache(DiskCache(str(tmp_path))), ArtifactCache)

    def test_put_writes_through(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        t = TieredCache(disk)
        t.put("k", entry("v"))
        assert disk.get("k") is not None

    def test_get_promotes_from_disk(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        disk.put("k", entry("v"))
        t = TieredCache(disk)
        assert t.get("k").artifacts["x"] == "v"  # disk hit, promoted
        assert t.stats()["hits"] == 1 and t.stats()["misses"] == 0
        disk.clear()
        assert t.get("k") is not None  # now served from memory

    def test_cold_miss_counts_once(self, tmp_path):
        t = TieredCache(DiskCache(str(tmp_path)))
        assert t.get("absent") is None
        assert t.stats()["misses"] == 1 and t.stats()["hits"] == 0

    def test_get_or_compute_reads_disk_once(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        t = TieredCache(disk)
        calls = []

        def compute():
            calls.append(1)
            return entry("v")

        got, fresh = t.get_or_compute("k", compute)
        assert fresh and len(calls) == 1
        assert disk.stats()["misses"] == 1  # one miss, one disk read
        assert len(t) == 1 and disk.get("k") == got  # both tiers
        before = disk.stats()
        again, fresh = t.get_or_compute("k", compute)
        assert not fresh and again is got and len(calls) == 1
        assert disk.stats() == before  # served by the memory tier

        def boom():
            raise ValueError("injected")

        with pytest.raises(ValueError, match="injected"):
            t.get_or_compute("bad", boom)
        assert len(t) == 1 and disk.get("bad") is None  # nothing stored


# ----------------------------------------------------------------------
# deterministic merge: serial == parallel, bit for bit
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.fixture(scope="class")
    def serial_table(self):
        return run_table1(seeds=SEEDS, iterations=ITER)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_table1_bit_identical_any_worker_count(
        self, serial_table, workers
    ):
        parallel = run_table1(seeds=SEEDS, iterations=ITER, workers=workers)
        assert list(parallel.rows) == list(serial_table.rows)
        assert list(parallel.mms) == list(serial_table.mms)

    def test_table1_covers_all_mm_levels(self, serial_table):
        assert all(set(r.sp) == {1, 3, 5} for r in serial_table.rows)

    def test_sweep_bit_identical(self):
        kw = dict(seeds=[1, 2], true_ks=(3, 7), iterations=ITER)
        assert run_comm_sweep(**kw) == run_comm_sweep(workers=2, **kw)

    def test_campaign_payload_identical_across_workers(self):
        cells = table1_cells(SEEDS[:2], iterations=ITER)
        a = run_campaign(cells, workers=1).to_dict()["cells"]
        b = run_campaign(cells, workers=2).to_dict()["cells"]
        assert a == b


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("4/4", "-1/4", "1", "a/b", "1/0"):
            with pytest.raises(ReproError):
                parse_shard(bad)

    def test_shards_partition_the_campaign(self):
        cells = [ok_cell(i) for i in range(7)]
        seen = []
        for s in range(3):
            r = run_campaign(cells, shard=(s, 3))
            seen += [c.index for c in r.results]
            assert len(r.cells) == 7  # full campaign still visible
        assert sorted(seen) == list(range(7))

    def test_shard_string_spec(self):
        cells = [ok_cell(i) for i in range(4)]
        r = run_campaign(cells, shard="1/2")
        assert [c.index for c in r.results] == [1, 3]

    def test_sharded_out_cell_value_raises(self):
        cells = [ok_cell(0), ok_cell(1)]
        r = run_campaign(cells, shard=(0, 2))
        assert r.value(cells[0]) == {"echo": 0}
        with pytest.raises(CampaignError, match="not executed"):
            r.value(cells[1])


# ----------------------------------------------------------------------
# fault tolerance
# ----------------------------------------------------------------------
class TestFaultTolerance:
    def test_failing_cell_yields_partial_result(self):
        cells = [ok_cell(0), Cell.make("_selftest", action="fail"), ok_cell(2)]
        r = run_campaign(cells, workers=1, retries=0)
        assert not r.ok
        assert [c.value for c in r.completed] == [{"echo": 0}, {"echo": 2}]
        (failed,) = r.failed_cells
        assert failed.cell == cells[1]
        assert "on purpose" in failed.error

    def test_worker_crash_yields_partial_result(self):
        cells = [
            ok_cell(0),
            Cell.make("_selftest", action="crash"),
            ok_cell(2),
            ok_cell(3),
        ]
        r = run_campaign(cells, workers=2, retries=1)
        assert [c.value for c in r.completed] == [
            {"echo": 0},
            {"echo": 2},
            {"echo": 3},
        ]
        (failed,) = r.failed_cells
        assert failed.cell == cells[1]
        assert "crash" in failed.error
        assert failed.attempts == 2  # bounded retry actually happened

    def test_timeout_fails_fast(self):
        cells = [
            ok_cell(0),
            Cell.make("_selftest", action="hang", seconds=3600),
        ]
        t0 = time.perf_counter()
        r = run_campaign(cells, workers=2, retries=0, cell_timeout=1.0)
        assert time.perf_counter() - t0 < 30
        (failed,) = r.failed_cells
        assert failed.cell == cells[1]
        assert "timeout" in failed.error
        assert r.value(cells[0]) == {"echo": 0}

    def test_retries_bounded(self):
        cells = [Cell.make("_selftest", action="fail")]
        r = run_campaign(cells, workers=1, retries=2)
        assert r.failed_cells[0].attempts == 3

    def test_unknown_kind_is_a_failed_cell_not_a_crash(self):
        r = run_campaign([Cell.make("nope")], workers=1, retries=0)
        assert not r.ok and "unknown cell kind" in r.failed_cells[0].error

    def test_raise_on_failure(self):
        r = run_campaign(
            [Cell.make("_selftest", action="fail")], workers=1, retries=0
        )
        with pytest.raises(CampaignError, match="1/1 campaign cells failed"):
            r.raise_on_failure()

    def test_run_table1_raises_on_failure(self, monkeypatch):
        # sabotage the cell kind so every table1 cell fails
        from repro.runner import cells as cells_mod

        def boom(params):
            raise RuntimeError("boom")

        monkeypatch.setitem(cells_mod._CELL_KINDS, "table1", boom)
        with pytest.raises(CampaignError):
            run_table1(seeds=[1], iterations=5)

    def test_bad_args(self):
        with pytest.raises(ReproError):
            run_campaign([ok_cell(0)], workers=0)
        with pytest.raises(ReproError):
            run_campaign([ok_cell(0)], retries=-1)


# ----------------------------------------------------------------------
# the two-tier cache in anger
# ----------------------------------------------------------------------
class TestCampaignCaching:
    def test_warm_disk_run_executes_zero_scheduler_passes(self, tmp_path):
        cache_dir = str(tmp_path / "artifacts")
        cells = table1_cells([1, 2], iterations=ITER)
        cold = run_campaign(cells, workers=1, cache_dir=cache_dir)
        # Simulate a cold-started process: the in-memory tier is gone,
        # only the on-disk tier survives.
        default_cache().clear()
        warm = run_campaign(cells, workers=1, cache_dir=cache_dir)

        assert [r.value for r in warm.results] == [
            r.value for r in cold.results
        ]
        passes = warm.pipeline_summary()["passes"]
        assert passes, "expected pipeline telemetry"
        for name, slot in passes.items():
            assert slot["cache_hits"] == slot["runs"], (
                f"{name} executed {slot['runs'] - slot['cache_hits']} "
                "times on a warm disk cache"
            )

    def test_workers_share_the_disk_tier(self, tmp_path):
        cache_dir = str(tmp_path / "artifacts")
        cells = table1_cells([1, 2, 3], iterations=ITER)
        run_campaign(cells, workers=2, cache_dir=cache_dir)
        assert len(DiskCache(cache_dir)) > 0
        warm = run_campaign(cells, workers=2, cache_dir=cache_dir)
        passes = warm.pipeline_summary()["passes"]
        for name, slot in passes.items():
            assert slot["cache_hits"] == slot["runs"], name

    def test_campaign_does_not_leak_default_cache(self, tmp_path):
        before = default_cache()
        run_campaign(
            table1_cells([1], iterations=5),
            workers=1,
            cache_dir=str(tmp_path / "c"),
        )
        assert default_cache() is before


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_per_cell_instrumentation(self):
        r = run_campaign(table1_cells([1], iterations=ITER), workers=1)
        for res in r.results:
            assert res.seconds >= 0
            assert res.worker_pid == os.getpid()  # serial: in-process
            assert res.pipeline["pipelines"] >= 1

    def test_to_dict_shape(self):
        r = run_campaign([ok_cell(0)], workers=1)
        d = r.to_dict()
        assert {"cells", "failed_cells", "stats"} <= set(d)
        assert d["stats"]["executed_cells"] == 1
        assert d["stats"]["per_cell"][0]["cell"].startswith("_selftest")
        assert "pipeline_report" in d["stats"]

    def test_json_serializable(self):
        import json

        r = run_campaign(table1_cells([1], iterations=5), workers=1)
        json.dumps(r.to_dict())


# ----------------------------------------------------------------------
# retry backoff
# ----------------------------------------------------------------------
class TestRetryBackoff:
    def test_backoff_delay_is_deterministic(self):
        a = backoff_delay(0.25, 2, [1, 4, 7])
        assert a == backoff_delay(0.25, 2, [1, 4, 7])
        # pending set and attempt number both feed the jitter
        assert a != backoff_delay(0.25, 2, [1, 4, 8])
        assert a != backoff_delay(0.25, 3, [1, 4, 7])

    def test_backoff_grows_exponentially_with_jitter(self):
        for attempt in (2, 3, 4):
            nominal = 0.2 * 2 ** (attempt - 2)
            d = backoff_delay(0.2, attempt, [0])
            assert 0.5 * nominal <= d < 1.5 * nominal

    def test_backoff_capped(self):
        assert backoff_delay(100.0, 6, [0], cap=8.0) == 8.0

    def test_retry_waves_sleep_and_record(self, monkeypatch):
        import repro.runner.core as core

        slept = []
        monkeypatch.setattr(core.time, "sleep", slept.append)
        r = run_campaign(
            [Cell.make("_selftest", action="fail")],
            workers=1,
            retries=2,
            retry_backoff=0.25,
        )
        # two retry waves -> two deterministic sleeps, recorded verbatim
        assert len(slept) == 2
        assert list(r.backoffs) == slept
        assert slept == [
            backoff_delay(0.25, 2, [0]),
            backoff_delay(0.25, 3, [0]),
        ]
        assert r.to_dict()["stats"]["retry_backoffs"] == [
            round(b, 6) for b in slept
        ]

    def test_zero_backoff_never_sleeps(self, monkeypatch):
        import repro.runner.core as core

        def no_sleep(_):
            raise AssertionError("retry_backoff=0 must not sleep")

        monkeypatch.setattr(core.time, "sleep", no_sleep)
        r = run_campaign(
            [Cell.make("_selftest", action="fail")],
            workers=1,
            retries=2,
            retry_backoff=0.0,
        )
        assert r.backoffs == ()

    def test_first_attempt_never_waits(self, monkeypatch):
        import repro.runner.core as core

        slept = []
        monkeypatch.setattr(core.time, "sleep", slept.append)
        r = run_campaign([ok_cell(0)], workers=1, retry_backoff=5.0)
        assert r.ok and slept == []

    def test_negative_backoff_rejected(self):
        with pytest.raises(ReproError, match="retry_backoff"):
            run_campaign([ok_cell(0)], workers=1, retry_backoff=-1.0)
