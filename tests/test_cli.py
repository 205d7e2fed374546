"""CLI driver smoke tests."""

import pytest

from repro.cli import main


@pytest.mark.parametrize(
    "cmd",
    ["fig1", "fig3", "fig7", "fig8", "fig9", "fig11", "fig12", "codegen"],
)
def test_single_experiments(cmd, capsys):
    assert main([cmd, "--iterations", "30"]) == 0
    out = capsys.readouterr().out
    assert out.strip()


def test_fig7_prints_paper_comparison(capsys):
    main(["fig7", "--iterations", "50"])
    out = capsys.readouterr().out
    assert "paper 40.0" in out


def test_table1_small(capsys, monkeypatch):
    import repro.cli as cli
    import repro.experiments as exp

    # shrink the seed set so the smoke test stays fast
    monkeypatch.setattr(
        exp, "paper_seeds", lambda: [1, 2, 3]
    )
    main(["table1", "--iterations", "30"])
    out = capsys.readouterr().out
    assert "Table 1(b)" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_perfect_command(capsys):
    main(["perfect"])
    out = capsys.readouterr().out
    assert "Perfect Pipelining" in out and "fig7" in out


def test_schedule_command(tmp_path, capsys):
    src = tmp_path / "loop.txt"
    src.write_text(
        "FOR I = 1 TO N\n"
        "  A: S[I] = S[I-1] + X[I]\n"
        "  B: T[I] = S[I] * 2\n"
        "ENDFOR\n"
    )
    assert main(["schedule", str(src), "--processors", "2"]) == 0
    out = capsys.readouterr().out
    assert "codegen verified" in out and "Sp" in out


def test_schedule_command_with_unwinding(tmp_path, capsys):
    src = tmp_path / "loop.txt"
    src.write_text("A: S[I] = S[I-3] + X[I]\n")
    assert main(["schedule", str(src)]) == 0
    out = capsys.readouterr().out
    assert "unwinding x3" in out


def test_schedule_command_emit(tmp_path, capsys):
    src = tmp_path / "loop.txt"
    src.write_text("A: S[I] = S[I-1] + X[I]\nB: T[I] = S[I] * 2\n")
    main(["schedule", str(src), "--emit"])
    out = capsys.readouterr().out
    assert "PARBEGIN" in out or "emission unavailable" in out


def test_schedule_requires_file():
    with pytest.raises(SystemExit):
        main(["schedule"])


def test_json_export_flag(tmp_path, capsys):
    import json

    out = tmp_path / "fig7.json"
    main(["fig7", "--iterations", "30", "--json", str(out)])
    data = json.loads(out.read_text())
    assert data["workload"] == "fig7"
    assert abs(data["sp_ours"] - 40.0) < 0.5


class TestCampaignCommand:
    def _run(self, tmp_path, *extra):
        bench = tmp_path / "BENCH_campaign.json"
        argv = [
            "campaign",
            "table1",
            "--seeds",
            "1-2",
            "--iterations",
            "10",
            "--bench",
            str(bench),
            *extra,
        ]
        assert main(argv) == 0
        import json

        return json.loads(bench.read_text())

    def test_serial_campaign_writes_bench_json(self, tmp_path, capsys):
        data = self._run(tmp_path)
        out = capsys.readouterr().out
        assert "6 of 6 cells executed" in out
        assert len(data["cells"]) == 6
        assert data["failed_cells"] == []
        assert data["stats"]["workers"] == 1
        assert "pipeline_report" in data["stats"]

    def test_parallel_bit_identical_to_serial(self, tmp_path, capsys):
        serial = self._run(tmp_path, "--workers", "1")
        parallel = self._run(tmp_path, "--workers", "2")
        assert serial["cells"] == parallel["cells"]

    def test_shard_executes_subset(self, tmp_path, capsys):
        data = self._run(tmp_path, "--shard", "0/2")
        assert len(data["cells"]) == 3
        assert data["stats"]["shard"] == "0/2"
        assert data["stats"]["campaign_cells"] == 6

    def test_sweep_target(self, tmp_path, capsys):
        bench = tmp_path / "b.json"
        assert (
            main(
                [
                    "campaign",
                    "sweep",
                    "--seeds",
                    "1,2",
                    "--iterations",
                    "10",
                    "--bench",
                    str(bench),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "campaign 'sweep'" in out

    def test_campaign_cache_dir(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        self._run(tmp_path, "--cache-dir", str(cache))
        assert any(cache.iterdir())

    def test_unknown_target_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "fig7"])

    def test_campaign_json_flag(self, tmp_path, capsys):
        import json

        out = tmp_path / "c.json"
        self._run(tmp_path, "--json", str(out))
        data = json.loads(out.read_text())
        assert "cells" in data and "pipeline_report" in data


class TestChaosCommand:
    def test_chaos_prints_survival_table(self, tmp_path, capsys):
        argv = [
            "chaos",
            "fig7",
            "--seeds",
            "1",
            "--iterations",
            "12",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "chaos matrix" in out
        assert "survival" in out
        assert "failstop" in out
        assert "cache self-heal" in out
        assert "HEALED" in out

    def test_chaos_json_payload(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "chaos.json"
        argv = [
            "chaos",
            "fig7",
            "--seeds",
            "1",
            "--iterations",
            "12",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--json",
            str(out_file),
        ]
        assert main(argv) == 0
        data = json.loads(out_file.read_text())
        assert data["workload"] == "fig7"
        assert set(data["summary"]) == {
            "none", "jitter", "loss", "dup", "stall", "failstop", "storm",
        }
        assert data["cache_selfheal"]["healed"] is True

    def test_chaos_unknown_workload_rejected(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["chaos", "nope", "--iterations", "8"])


# ----------------------------------------------------------------------
# the command table: per-command options, parse-time validation
# ----------------------------------------------------------------------
from repro.cli import _COMMANDS  # noqa: E402


@pytest.mark.parametrize("cmd", list(_COMMANDS))
def test_every_command_has_help(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert f"usage: repro-mimd {cmd}" in capsys.readouterr().out


def test_help_says_when_iterations_is_ignored(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "--help"])
    assert "ignored" in capsys.readouterr().out


# one option per command that the command does not read
_UNREAD = {
    "fig1": ["--seeds", "1"],
    "fig3": ["--loops", "3"],
    "fig7": ["--port", "1"],
    "fig8": ["--workers", "2"],
    "fig9": ["--emit"],
    "fig11": ["--bench", "b.json"],
    "fig12": ["--shard", "0/2"],
    "table1": ["--cache-dir", "cache"],
    "sweep": ["--retries", "2"],
    "perfect": ["--processors", "2"],
    "codegen": ["-k", "3"],
    "stages": ["fig7", "--emit"],
    "all": ["--loops", "3"],
    "schedule": ["f.txt", "--loops", "3"],
    "campaign": ["table1", "--loops", "3"],
    "fuzz": ["--retry-backoff", "0"],
    "chaos": ["fig7", "--bench", "b.json"],
    "profile": ["--port", "1"],
    "serve": ["--seeds", "1"],
}


def test_unread_option_table_covers_every_command():
    assert set(_UNREAD) == set(_COMMANDS)


@pytest.mark.parametrize("cmd", list(_UNREAD))
def test_option_the_command_does_not_read_exits_2(
    cmd, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([cmd, *_UNREAD[cmd]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seeds", "1-x", "seed spec"),
        ("--seeds", "3-1", "is empty"),
        ("--shard", "1/x", "shard spec must look like 'i/n'"),
    ],
)
def test_malformed_campaign_spec_is_a_usage_error(
    flag, value, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "table1", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: repro-mimd campaign" in err and message in err
    assert not (tmp_path / "BENCH_campaign.json").exists()


def test_sweep_honours_iterations(tmp_path, capsys):
    import json

    from repro.experiments import run_comm_sweep
    from repro.report import sweep_to_dicts

    out = tmp_path / "sweep.json"
    assert main(["sweep", "--iterations", "20", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    expected = sweep_to_dicts(run_comm_sweep(iterations=10))
    assert rows == json.loads(json.dumps(expected))


def test_all_runs_every_paper_artifact(tmp_path, capsys):
    import json

    out = tmp_path / "all.json"
    assert main(["all", "--iterations", "20", "--json", str(out)]) == 0
    experiments = json.loads(out.read_text())["experiments"]
    artifacts = [name for name, cmd in _COMMANDS.items() if cmd.artifact]
    assert sorted(experiments) == sorted(artifacts)
    assert len(experiments) == 12
    assert experiments["fig7"]["workload"] == "fig7"


def test_profile_forwards_the_traced_commands_own_options(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    argv = ["profile", "campaign", "sweep", "--seeds", "1",
            "--iterations", "10"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "campaign 'sweep': 6 of 6 cells executed" in out
    assert "profile (spans by category:name" in out
    assert "cli:repro-mimd campaign" in out


def test_profile_refuses_serve(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "serve"])
    assert exc.value.code == 2
