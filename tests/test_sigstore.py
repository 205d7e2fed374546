"""Cross-run signature store and corpus auto-promotion.

The load-bearing properties: "new" means new *ever* (across runs and
concurrent shards), the store self-heals from torn appends and never
invents a signature from a damaged one, and promotion only surfaces
repros not already pinned in the corpus.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys

from repro.fuzz.campaign import FuzzReport, run_fuzz
from repro.fuzz.corpus import load_corpus, save_case
from repro.fuzz.generators import generate_case
from repro.fuzz.sigstore import SignatureStore, promote_survivors


def make_report(**overrides):
    """A minimal FuzzReport for promotion tests."""
    defaults = dict(
        loops=10,
        seed=7,
        chunk=10,
        executed_cells=1,
        failed_cells=(),
        oracle_checks=30,
        patterns={},
        signatures=("sig-a", "sig-b"),
        failures=(),
    )
    defaults.update(overrides)
    return FuzzReport(**defaults)


def failure_for(case, oracle="rate"):
    return {
        "oracle": oracle,
        "message": "synthetic",
        "pattern": case.pattern,
        "index": 0,
        "case_id": case.case_id,
        "original_case_id": case.case_id,
        "case": case.to_dict(),
    }


class TestSignatureStore:
    def test_first_merge_is_all_new(self, tmp_path):
        store = SignatureStore(tmp_path / "sig.store")
        merge = store.merge(["b", "a", "a"])
        assert merge.new == ("a", "b")
        assert merge.known == 0 and merge.total == 2

    def test_second_run_reports_only_never_seen(self, tmp_path):
        store = SignatureStore(tmp_path / "sig.store")
        store.merge(["a", "b"])
        merge = store.merge(["b", "c"])
        assert merge.new == ("c",)
        assert merge.known == 1 and merge.total == 3
        assert store.load() == {"a", "b", "c"}

    def test_persists_across_store_instances(self, tmp_path):
        path = tmp_path / "sig.store"
        SignatureStore(path).merge(["x"])
        merge = SignatureStore(path).merge(["x", "y"])
        assert merge.new == ("y",)

    def test_torn_append_self_heals(self, tmp_path):
        store = SignatureStore(tmp_path / "sig.store")
        store.merge(["a", "b"])
        with open(store.path, "ab") as fh:
            fh.write(b'"torn-no-newline')
        assert store.load() == {"a", "b"}
        merge = store.merge(["c"])
        assert merge.new == ("c",) and merge.total == 3
        # the merge rewound the torn tail before appending
        assert store.load() == {"a", "b", "c"}
        assert b"torn-no-newline" not in open(store.path, "rb").read()

    def test_bitflip_never_invents_a_signature(self, tmp_path):
        store = SignatureStore(tmp_path / "sig.store")
        store.merge(["abc", "xyz"])
        raw = bytearray(open(store.path, "rb").read())
        raw[raw.index(b"abc") + 1] ^= 0x01  # "abc" -> "acc"
        with open(store.path, "wb") as fh:
            fh.write(bytes(raw))
        assert store.load() <= {"abc", "xyz"}

    def test_signature_with_exotic_characters(self, tmp_path):
        store = SignatureStore(tmp_path / "sig.store")
        weird = 'sig "quoted" | pipes\tand unicode é'
        store.merge([weird])
        assert store.load() == {weird}
        assert store.merge([weird]).known == 1

    def test_concurrent_merges_lose_nothing(self, tmp_path):
        """N processes merging disjoint signature sets under the
        advisory lock must union cleanly: every signature survives."""
        path = str(tmp_path / "sig.store")
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_merge_worker, args=(path, i))
            for i in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        expected = {f"w{i}-s{j}" for i in range(4) for j in range(20)}
        assert SignatureStore(path).load() == expected


def _merge_worker(path: str, worker: int) -> None:
    store = SignatureStore(path)
    for j in range(20):
        store.merge([f"w{worker}-s{j}"])


class TestPromotion:
    def test_novel_failure_is_promoted_with_provenance(self, tmp_path):
        case = generate_case("chain", 11)
        report = make_report(failures=(failure_for(case),))
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        written = promote_survivors(
            report, tmp_path / "promote", corpus_dir=corpus_dir
        )
        assert len(written) == 1
        entry = json.loads(written[0].read_text())
        assert entry["version"] == 1
        assert entry["provenance"] == {
            "seed": 7,
            "pattern": "chain",
            "oracle": "rate",
            "case_id": case.case_id,
        }
        # the promoted entry round-trips through the corpus loader
        promoted = load_corpus(tmp_path / "promote")
        assert list(promoted.values())[0].case_id == case.case_id

    def test_already_pinned_case_is_not_promoted(self, tmp_path):
        case = generate_case("mesh", 3)
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        save_case(case, corpus_dir, notes="already pinned")
        report = make_report(failures=(failure_for(case),))
        written = promote_survivors(
            report, tmp_path / "promote", corpus_dir=corpus_dir
        )
        assert written == []
        assert not (tmp_path / "promote").exists()

    def test_same_case_two_oracles_promotes_once(self, tmp_path):
        case = generate_case("self_dep", 5)
        report = make_report(
            failures=(
                failure_for(case, oracle="rate"),
                failure_for(case, oracle="differential"),
            )
        )
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        written = promote_survivors(
            report, tmp_path / "promote", corpus_dir=corpus_dir
        )
        assert len(written) == 1

    def test_clean_report_promotes_nothing(self, tmp_path):
        report = run_fuzz(30, seed=3, chunk=10)
        assert not report.failures  # seed 3 is a clean sweep
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        written = promote_survivors(
            report, tmp_path / "promote", corpus_dir=corpus_dir
        )
        assert written == []


class TestSigstoreCli:
    def test_fuzz_reports_new_ever_across_runs(self, tmp_path):
        """Acceptance: the second run against the same sigstore reports
        zero never-before-seen behaviors."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        args = [
            sys.executable, "-m", "repro.cli", "fuzz",
            "--loops", "30", "--seed", "3", "--chunk", "10",
            "--sigstore", "sig.store",
        ]
        first = subprocess.run(
            args, cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert first.returncode == 0, first.stdout + first.stderr
        assert "0 already known" in first.stdout
        second = subprocess.run(
            args, cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert second.returncode == 0, second.stdout + second.stderr
        assert "sigstore: 0 behavior(s) never seen before" in second.stdout
