"""Write-ahead journal: torn-tail recovery and resumable campaigns.

The load-bearing properties: a campaign resumed from a journal replays
journaled cells (zero pipeline passes) and produces a report
byte-identical to an uninterrupted run; a journal from a different
campaign is refused, never truncated; a journal truncated or
bit-flipped at any byte of its final record recovers exactly the
intact prefix (``test_recordlog.py`` holds the same property for
every store built on the record log).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.fuzz.campaign import run_fuzz
from repro.runner.cells import Cell
from repro.runner.core import backoff_wave, run_campaign
from repro.runner.journal import (
    CellJournal,
    campaign_key,
    journal_filename,
)
from repro.util.recordlog import RecordLog


def make_cells(n=5):
    return [Cell.make("_selftest", action="ok", echo=i) for i in range(n)]


def fill_journal(tmp_path, n=5):
    """A journal with ``n`` appended records; returns (journal, cells)."""
    cells = make_cells(n)
    journal = CellJournal.open(str(tmp_path), campaign_key(cells))
    for i, cell in enumerate(cells):
        journal.append(
            cell.cell_id, {"value": i, "seconds": 0.1 * i, "pid": None}
        )
    return journal, cells


# ----------------------------------------------------------------------
# format and round-trip
# ----------------------------------------------------------------------
class TestJournalRoundTrip:
    def test_append_recover_round_trip(self, tmp_path):
        journal, cells = fill_journal(tmp_path, 5)
        rec = journal.recover()
        assert rec.records == 5
        assert rec.torn_tail == 0
        assert rec.payloads[cells[3].cell_id]["value"] == 3

    def test_last_record_wins_per_cell(self, tmp_path):
        cells = make_cells(2)
        journal = CellJournal.open(str(tmp_path), campaign_key(cells))
        journal.append(cells[0].cell_id, {"value": "old"})
        journal.append(cells[0].cell_id, {"value": "new"})
        rec = journal.recover()
        assert rec.payloads[cells[0].cell_id]["value"] == "new"

    def test_missing_file_recovers_empty(self, tmp_path):
        journal = CellJournal.open(str(tmp_path), "deadbeef")
        rec = journal.recover()
        assert rec.records == 0 and rec.torn_tail == 0

    def test_journal_filename_per_shard(self):
        assert journal_filename(None) == "cells.journal"
        assert journal_filename((1, 4)) == "cells-1-of-4.journal"

    def test_campaign_key_depends_on_cells(self):
        a, b = make_cells(3), make_cells(4)
        assert campaign_key(a) != campaign_key(b)
        assert campaign_key(a) == campaign_key(make_cells(3))

    def test_foreign_campaign_is_refused_not_truncated(self, tmp_path):
        journal, _cells = fill_journal(tmp_path, 3)
        size = os.path.getsize(journal.path)
        other = CellJournal(journal.path, "0" * 32)
        with pytest.raises(ReproError, match="different\\s+campaign"):
            other.recover()
        # the mismatch must never destroy the rightful owner's records
        assert os.path.getsize(journal.path) == size
        assert journal.recover().records == 3

    def test_unknown_version_is_refused(self, tmp_path):
        journal, _cells = fill_journal(tmp_path, 1)
        os.unlink(journal.path)
        future = RecordLog(
            journal.path, "campaign journal", 99, journal.campaign
        )
        future.append([b"{}"])
        size = os.path.getsize(journal.path)
        with pytest.raises(ReproError, match="version"):
            journal.recover()
        assert os.path.getsize(journal.path) == size


# ----------------------------------------------------------------------
# torn-tail recovery
# ----------------------------------------------------------------------
def fill_with_final_start(tmp_path):
    """Four journaled cells; returns (journal, cells, final record offset)."""
    journal, cells = fill_journal(tmp_path, 4)
    raw = open(journal.path, "rb").read()
    os.unlink(journal.path)
    journal = CellJournal.open(str(tmp_path), campaign_key(cells))
    for i, cell in enumerate(cells[:3]):
        journal.append(
            cell.cell_id, {"value": i, "seconds": 0.1 * i, "pid": None}
        )
    start = os.path.getsize(journal.path)
    with open(journal.path, "wb") as fh:
        fh.write(raw)
    return journal, cells, start


class TestTornTail:
    @given(cut=st.integers(min_value=0, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_truncation_at_every_final_record_byte(self, tmp_path_factory, cut):
        """Cutting the file anywhere inside the final record loses only
        that record; the intact prefix survives byte-for-byte."""
        tmp_path = tmp_path_factory.mktemp("torn")
        journal, cells, start = fill_with_final_start(tmp_path)
        raw = open(journal.path, "rb").read()
        prefix, final = raw[:start], raw[start:]
        cut_at = len(prefix) + min(cut, len(final) - 1)
        os.truncate(journal.path, cut_at)

        rec = journal.recover()
        assert rec.records == 3
        # cutting exactly at the record boundary leaves a clean (short)
        # journal; any byte into the final record is a torn tail
        torn_bytes = cut_at - len(prefix)
        assert rec.torn_tail == (1 if torn_bytes else 0)
        assert rec.truncated_bytes == torn_bytes
        assert open(journal.path, "rb").read() == prefix
        assert cells[3].cell_id not in rec.payloads

    @given(
        byte=st.integers(min_value=0, max_value=200),
        bit=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitflip_in_final_record(self, tmp_path_factory, byte, bit):
        """Flipping any bit of the final record makes recovery drop
        exactly that record (checksum or framing breaks, prefix kept)."""
        tmp_path = tmp_path_factory.mktemp("flip")
        journal, cells, start = fill_with_final_start(tmp_path)
        raw = open(journal.path, "rb").read()
        prefix, final = raw[:start], bytearray(raw[start:])
        final[min(byte, len(final) - 1)] ^= 1 << bit
        with open(journal.path, "wb") as fh:
            fh.write(prefix + bytes(final))

        rec = journal.recover()
        assert rec.records == 3
        assert rec.torn_tail == 1
        assert open(journal.path, "rb").read() == prefix
        assert cells[3].cell_id not in rec.payloads

    def test_mid_file_corruption_stops_the_scan(self, tmp_path):
        """A corrupt *interior* record ends recovery at that point:
        later (intact) records are re-executed, never half-trusted."""
        cells = make_cells(5)
        journal = CellJournal.open(str(tmp_path), campaign_key(cells))
        ends = []
        for i, cell in enumerate(cells):
            journal.append(cell.cell_id, {"value": i})
            ends.append(os.path.getsize(journal.path))
        raw = bytearray(open(journal.path, "rb").read())
        raw[(ends[0] + ends[1]) // 2] ^= 0xFF  # inside the second record
        with open(journal.path, "wb") as fh:
            fh.write(bytes(raw))

        rec = journal.recover()
        assert rec.records == 1
        assert rec.torn_tail == 1
        assert cells[0].cell_id in rec.payloads
        assert cells[4].cell_id not in rec.payloads
        # after truncation, appends continue from the clean boundary
        journal.append(cells[1].cell_id, {"value": "again"})
        assert journal.recover().records == 2

    def test_readonly_scan_never_truncates(self, tmp_path):
        journal, _cells = fill_journal(tmp_path, 3)
        with open(journal.path, "ab") as fh:
            fh.write(b"torn-partial-record")
        size = os.path.getsize(journal.path)
        probe = journal.scan(truncate=False)
        assert probe.records == 3 and probe.torn_tail == 1
        assert os.path.getsize(journal.path) == size  # untouched
        journal.recover()
        assert os.path.getsize(journal.path) < size  # now rewound

    def test_kill_mid_append_leaves_recoverable_journal(self, tmp_path):
        """SIGKILL a process appending in a tight loop: recovery must
        always yield a clean prefix of complete records."""
        script = (
            "import sys\n"
            "from repro.runner.journal import CellJournal\n"
            "journal = CellJournal(sys.argv[1], 'cafe' * 8)\n"
            "print('ready', flush=True)\n"
            "i = 0\n"
            "while True:\n"
            "    journal.append(f'cell-{i}', {'value': 'x' * 512})\n"
            "    i += 1\n"
        )
        path = tmp_path / "kill.journal"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(path)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stdout is not None
            assert proc.stdout.readline().strip() == "ready"
            time.sleep(0.15)  # land the kill mid-append
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        journal = CellJournal(str(path), "cafe" * 8)
        rec = journal.recover()
        assert rec.records > 0
        # every recovered record is complete and sequentially named
        for i in range(rec.records):
            assert rec.payloads[f"cell-{i}"]["value"] == "x" * 512
        # the recovered file now re-scans clean
        again = journal.scan(truncate=False)
        assert again.torn_tail == 0
        assert again.records == rec.records


# ----------------------------------------------------------------------
# campaign resume
# ----------------------------------------------------------------------
class TestCampaignResume:
    def test_resume_replays_journaled_cells(self, tmp_path):
        cells = make_cells(6)
        first = run_campaign(cells, journal_dir=str(tmp_path))
        assert len(first.resumed_cells) == 0
        assert first.journal is not None and first.journal["records"] == 0

        second = run_campaign(cells, journal_dir=str(tmp_path))
        assert len(second.resumed_cells) == 6
        assert second.journal["records"] == 6
        for r in second.results:
            assert r.resumed and r.ok
            assert r.pipeline == {}  # zero pipeline passes this run
        a, b = first.to_dict(), second.to_dict()
        assert json.dumps(a["cells"], sort_keys=True) == json.dumps(
            b["cells"], sort_keys=True
        )

    def test_partial_journal_runs_only_the_rest(self, tmp_path):
        cells = make_cells(6)
        journal = CellJournal.open(str(tmp_path), campaign_key(cells))
        for cell in cells[:3]:
            journal.append(
                cell.cell_id,
                {"value": {"sentinel": True}, "seconds": 0.0, "pid": 1},
            )
        result = run_campaign(cells, journal_dir=str(tmp_path))
        assert len(result.resumed_cells) == 3
        # replayed cells carry the journal's payload — proof they were
        # short-circuited, not re-executed
        for r in result.results[:3]:
            assert r.resumed and r.value == {"sentinel": True}
        for r in result.results[3:]:
            assert not r.resumed and r.value["echo"] == r.index

    def test_resume_false_reexecutes_but_still_journals(self, tmp_path):
        cells = make_cells(4)
        run_campaign(cells, journal_dir=str(tmp_path))
        result = run_campaign(
            cells, journal_dir=str(tmp_path), resume=False
        )
        assert len(result.resumed_cells) == 0
        assert all(not r.resumed for r in result.results)
        journal = CellJournal.open(str(tmp_path), campaign_key(cells))
        rec = journal.recover()
        # the rerun re-journaled every cell (8 record lines), but
        # last-wins replay still resolves to the 4 unique cells
        assert rec.records == 8
        assert len(rec.payloads) == 4

    def test_failed_cells_are_not_journaled(self, tmp_path):
        cells = [
            Cell.make("_selftest", action="ok", echo=1),
            Cell.make("_selftest", action="fail"),
        ]
        result = run_campaign(cells, journal_dir=str(tmp_path), retries=0)
        assert len(result.failed_cells) == 1
        journal = CellJournal.open(str(tmp_path), campaign_key(cells))
        rec = journal.recover()
        assert rec.records == 1  # only the ok cell
        # resume retries the failure rather than replaying it
        second = run_campaign(cells, journal_dir=str(tmp_path), retries=0)
        assert len(second.resumed_cells) == 1
        assert len(second.failed_cells) == 1

    def test_shards_keep_separate_journal_files(self, tmp_path):
        cells = make_cells(6)
        a = run_campaign(cells, shard="0/2", journal_dir=str(tmp_path))
        b = run_campaign(cells, shard="1/2", journal_dir=str(tmp_path))
        assert a.journal["path"] != b.journal["path"]
        names = sorted(os.listdir(tmp_path))
        assert names == ["cells-0-of-2.journal", "cells-1-of-2.journal"]
        # each shard resumes from its own file
        a2 = run_campaign(cells, shard="0/2", journal_dir=str(tmp_path))
        assert len(a2.resumed_cells) == 3

    def test_parallel_campaign_journals_and_resumes(self, tmp_path):
        cells = make_cells(6)
        first = run_campaign(cells, workers=2, journal_dir=str(tmp_path))
        second = run_campaign(cells, workers=2, journal_dir=str(tmp_path))
        assert len(second.resumed_cells) == 6
        a = json.dumps(first.to_dict()["cells"], sort_keys=True)
        b = json.dumps(second.to_dict()["cells"], sort_keys=True)
        assert a == b

    def test_no_journal_dir_means_no_journal(self):
        result = run_campaign(make_cells(2))
        assert result.journal is None
        assert len(result.resumed_cells) == 0
        assert "journal" in result.to_dict()["stats"]

    def test_fuzz_resume_is_bit_identical(self, tmp_path):
        first = run_fuzz(60, seed=3, chunk=20, journal_dir=str(tmp_path))
        second = run_fuzz(60, seed=3, chunk=20, journal_dir=str(tmp_path))
        assert second.resumed_cells == 3
        assert first.resumed_cells == 0
        a = json.dumps(first.to_dict(), sort_keys=True)
        b = json.dumps(second.to_dict(), sort_keys=True)
        assert a == b
        # resume state lives in stats, never in the deterministic payload
        assert "resumed" not in a


# ----------------------------------------------------------------------
# backoff cap surfacing (satellite)
# ----------------------------------------------------------------------
class TestBackoffCap:
    def test_backoff_wave_flags_saturation(self):
        delay, capped = backoff_wave(0.1, 2, [1, 2], cap=8.0)
        assert not capped and delay < 8.0
        delay, capped = backoff_wave(100.0, 6, [1, 2], cap=8.0)
        assert capped and delay == 8.0

    def test_capped_waves_surface_in_campaign_stats(self, monkeypatch):
        from repro.runner import core

        monkeypatch.setattr(core.time, "sleep", lambda s: None)
        cells = [Cell.make("_selftest", action="fail")]
        result = run_campaign(
            cells, retries=3, retry_backoff=1000.0
        )
        assert result.capped_backoffs >= 1
        assert (
            result.to_dict()["stats"]["capped_backoffs"]
            == result.capped_backoffs
        )
        # every capped wave slept exactly the cap
        assert all(b == 8.0 for b in result.backoffs)

    def test_uncapped_campaign_reports_zero(self, monkeypatch):
        from repro.runner import core

        monkeypatch.setattr(core.time, "sleep", lambda s: None)
        cells = [Cell.make("_selftest", action="fail")]
        result = run_campaign(cells, retries=2, retry_backoff=0.001)
        assert result.capped_backoffs == 0
