"""Tests for the ``python -m repro.sim`` command-line interface."""

import json
import os

import pytest

from repro.sim import family_names, scenario_names
from repro.sim.__main__ import main


class TestList:
    def test_lists_every_scenario(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_lists_every_family(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in family_names():
            assert name in out

    def test_show(self, capsys):
        assert main(["show", "apartment"]) == 0
        out = capsys.readouterr().out
        assert "apartment" in out
        assert "doorways" in out

    def test_show_preset_map(self, capsys):
        assert main(["show", "apartment", "--map"]) == 0
        out = capsys.readouterr().out
        assert "+---" in out and "#" in out

    def test_show_family_param_table_and_map(self, capsys):
        assert main(["show", "perfect-maze", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "scenario family" in out
        assert "cell_m" in out and "cols" in out
        assert "instance (seed 2)" in out
        assert "+---" in out  # ASCII floor plan frame

    def test_show_family_respects_params(self, capsys):
        assert (
            main(["show", "perfect-maze", "--param", "cols=5", "--param", "rows=4", "--no-map"])
            == 0
        )
        out = capsys.readouterr().out
        assert "cols=5" in out

    def test_show_family_bad_param_is_an_error(self, capsys):
        assert main(["show", "perfect-maze", "--param", "cols=banana"]) == 2
        assert "is not a number" in capsys.readouterr().err
        assert main(["show", "perfect-maze", "--param", "nope=3"]) == 2
        assert "has no param" in capsys.readouterr().err

    def test_show_unknown_is_an_error(self, capsys):
        assert main(["show", "narnia"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestRun:
    def test_smoke_campaign_persists_json(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        code = main(
            [
                "run",
                "--scenario",
                "paper-room",
                "--runs",
                "2",
                "--flight-time",
                "5",
                "--seed",
                "3",
                "--out",
                out_dir,
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 missions" in out
        files = os.listdir(out_dir)
        assert len(files) == 1
        assert files[0].startswith("campaign-cli-")
        with open(os.path.join(out_dir, files[0])) as fh:
            data = json.load(fh)
        assert data["schema"].startswith("repro.sim.campaign-result/")
        assert len(data["records"]) == 2
        assert data["campaign"]["scenarios"][0]["name"] == "paper-room"

    def test_rerun_same_campaign_overwrites_same_file(self, tmp_path):
        out_dir = str(tmp_path / "results")
        argv = [
            "run",
            "--scenario",
            "paper-room",
            "--flight-time",
            "5",
            "--out",
            out_dir,
            "--quiet",
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        assert len(os.listdir(out_dir)) == 1

    def test_explore_kind(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--scenario",
                    "paper-room",
                    "--kind",
                    "explore",
                    "--flight-time",
                    "5",
                    "--quiet",
                ]
            )
            == 0
        )
        assert "mean coverage" in capsys.readouterr().out

    def test_progress_lines(self, capsys):
        assert (
            main(
                ["run", "--scenario", "paper-room", "--flight-time", "5", "--runs", "2"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out

    def test_unknown_scenario_is_an_error(self, capsys):
        assert main(["run", "--scenario", "narnia"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_family_campaign(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        argv = [
            "run",
            "--family",
            "perfect-maze",
            "--family-seed",
            "1",
            "2",
            "--param",
            "cols=5",
            "--param",
            "rows=4",
            "--flight-time",
            "5",
            "--quiet",
            "--out",
            out_dir,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 missions" in out
        assert "perfect-maze-s1-" in out and "perfect-maze-s2-" in out
        files = os.listdir(out_dir)
        assert len(files) == 1
        with open(os.path.join(out_dir, files[0])) as fh:
            data = json.load(fh)
        assert data["campaign"]["generated"][0]["family"] == "perfect-maze"
        assert data["campaign"]["generated"][0]["params"]["cols"] == 5
        # identical rerun overwrites the same hash-keyed file
        assert main(argv) == 0
        assert len(os.listdir(out_dir)) == 1

    def test_family_and_preset_combine(self, capsys):
        argv = [
            "run",
            "--scenario",
            "paper-room",
            "--family",
            "scatter-field",
            "--param",
            "n_items=8",
            "--flight-time",
            "5",
            "--quiet",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 missions" in out
        assert "paper-room" in out and "scatter-field-s0-" in out

    def test_unknown_family_is_an_error(self, capsys):
        assert main(["run", "--family", "narnia"]) == 2
        assert "unknown scenario family" in capsys.readouterr().err

    def test_emptied_family_seed_axis_errors_instead_of_paper_room(self, capsys):
        # `--family-seed` consuming zero values must not silently fall
        # back to the default preset.
        assert main(["run", "--family", "perfect-maze", "--family-seed"]) == 2
        assert "at least one scenario" in capsys.readouterr().err


class TestFleetOptions:
    ARGS = [
        "run", "--scenario", "paper-room", "--kind", "explore",
        "--policy", "pseudo-random", "wall-following", "--runs", "2",
        "--flight-time", "5", "--seed", "3", "--no-cache", "--quiet",
    ]

    @pytest.mark.parametrize("flag", [["--broker", "queue.db"], ["--record"]])
    def test_fleet_block_rejects_broker_and_record(self, tmp_path, capsys, flag):
        if flag[0] == "--broker":
            flag = ["--broker", str(tmp_path / "queue.db")]
        assert main(self.ARGS + ["--fleet-block", "4", *flag]) == 2
        err = capsys.readouterr().err
        assert f"--fleet-block 4 cannot be combined with {flag[0]}" in err

    def test_fleet_on_pool_mode_line_and_bytes(self, tmp_path, capsys):
        assert main(self.ARGS + ["--out", str(tmp_path / "serial")]) == 0
        capsys.readouterr()
        argv = self.ARGS + [
            "--fleet-block", "4", "--workers", "2", "--out", str(tmp_path / "fleet"),
        ]
        assert main(argv) == 0
        assert "fleet(block=4) on pool(2)" in capsys.readouterr().out
        [serial] = os.listdir(tmp_path / "serial")
        [fleet] = os.listdir(tmp_path / "fleet")
        with open(tmp_path / "serial" / serial, "rb") as a, open(
            tmp_path / "fleet" / fleet, "rb"
        ) as b:
            assert a.read() == b.read()


def _experiments_main(argv):
    from repro.experiments.__main__ import main as experiments_main

    return experiments_main(argv)


class TestCacheCommand:
    """Both CLIs share one `cache` implementation, traces included."""

    @pytest.mark.parametrize("cli", [main, _experiments_main], ids=["sim", "experiments"])
    def test_cache_clear_removes_recorded_traces(self, tmp_path, capsys, cli):
        from repro.obs import TraceStore

        cache_dir = str(tmp_path / "cache")
        argv = [
            "run", "--scenario", "paper-room", "--flight-time", "3",
            "--record", "--quiet", "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        assert TraceStore(cache_dir).stats().traces == 1
        capsys.readouterr()
        assert cli(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "1 results" in out and "traces: 1 recorded flights" in out
        assert cli(["cache", "clear", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "removed 1 cached results and 1 flight traces" in out
        assert TraceStore(cache_dir).stats().traces == 0
        assert cli(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "0 results" in capsys.readouterr().out

    @pytest.mark.parametrize("cli", [main, _experiments_main], ids=["sim", "experiments"])
    def test_cache_evict_needs_a_budget(self, tmp_path, capsys, cli):
        assert cli(["cache", "evict", "--cache-dir", str(tmp_path)]) == 2
        assert "--max-bytes and/or --max-age" in capsys.readouterr().err


class TestExecErrorExit:
    """Execution-layer errors end both CLIs with `error: ...` and exit 2."""

    def test_experiments_rejects_zero_retries(self, capsys):
        assert _experiments_main(["table4", "--retries", "0", "--no-cache"]) == 2
        assert "error: max_attempts must be >= 1" in capsys.readouterr().err

    def test_experiments_closes_the_broker_on_error(self, tmp_path, monkeypatch, capsys):
        import repro.experiments.__main__ as cli
        from repro.errors import ExecError

        closed = []

        class SpyBroker(cli.Broker):
            def close(self):
                closed.append(self.path)
                super().close()

        def boom(*_args):
            raise ExecError("boom")

        monkeypatch.setattr(cli, "Broker", SpyBroker)
        monkeypatch.setitem(cli._EXPERIMENTS, "table3", boom)
        db = str(tmp_path / "queue.db")
        assert cli.main(["table3", "--broker", db, "--no-cache"]) == 2
        assert "error: boom" in capsys.readouterr().err
        assert closed == [db]

    def test_sim_run_rejects_negative_poll(self, tmp_path, capsys):
        argv = [
            "run", "--scenario", "paper-room", "--flight-time", "3", "--quiet",
            "--no-cache", "--broker", str(tmp_path / "queue.db"), "--poll", "-1",
        ]
        assert main(argv) == 2
        assert "error: poll_s must be >= 0" in capsys.readouterr().err
