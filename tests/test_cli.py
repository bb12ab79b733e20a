"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.graphs.generators import karate_like_fixture
from repro.graphs.loaders import save_edge_list


@pytest.fixture
def karate_file(tmp_path):
    path = tmp_path / "karate.txt"
    save_edge_list(karate_like_fixture(), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_stats_args(self):
        args = build_parser().parse_args(["stats", "hep", "--scale", "0.05"])
        assert args.command == "stats"
        assert args.scale == 0.05

    def test_getreal_defaults(self):
        args = build_parser().parse_args(["getreal", "hep"])
        assert args.strategies == "mgic,ddic"
        assert args.model == "ic"
        assert args.groups == 2


class TestStatsCommand:
    def test_dataset(self, capsys):
        assert main(["stats", "hep", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "edges" in out

    def test_edge_list_file(self, karate_file, capsys):
        assert main(["stats", karate_file]) == 0
        out = capsys.readouterr().out
        assert "34" in out

    def test_unknown_target(self):
        with pytest.raises(SystemExit, match="unknown dataset"):
            main(["stats", "not-a-thing"])


class TestSeedsCommand:
    def test_ddic(self, karate_file, capsys):
        assert main(["seeds", karate_file, "--algorithm", "ddic", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "ddic seeds" in out

    def test_unknown_algorithm(self, karate_file):
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main(["seeds", karate_file, "--algorithm", "nope"])


class TestSeedsIncremental:
    def _delta_file(self, tmp_path):
        path = tmp_path / "delta.json"
        path.write_text(json.dumps({"added": [[0, 5], [3, 9]], "removed": [[1, 2]]}))
        return str(path)

    def test_incremental_with_delta(self, karate_file, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        assert main([
            "seeds", karate_file, "--incremental", "--k", "3",
            "--snapshots", "4", "--seed", "7",
            "--delta", self._delta_file(tmp_path),
            "--journal", str(journal),
        ]) == 0
        out = capsys.readouterr().out
        assert "incremental seeds" in out
        assert "repaired seeds" in out
        start = json.loads(journal.read_text().splitlines()[0])
        assert start["event"] == "run_start"
        assert start["incremental"] is True
        assert start["shards"] > 0

    def test_delta_requires_incremental(self, karate_file, tmp_path):
        with pytest.raises(SystemExit, match="--incremental"):
            main([
                "seeds", karate_file, "--k", "3",
                "--delta", self._delta_file(tmp_path),
            ])

    @pytest.mark.parametrize(
        ("k", "message"),
        [("35", "budget k=35 exceeds the graph's 34 nodes"), ("0", "k must be positive")],
    )
    def test_bad_budget_exits_two(self, karate_file, capsys, k, message):
        assert main(["seeds", karate_file, "--incremental", "--k", k]) == 2
        assert message in capsys.readouterr().err

    def test_kill_switch_wins_over_flag(
        self, karate_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_INCREMENTAL", "off")
        assert main([
            "seeds", karate_file, "--incremental", "--k", "3",
            "--snapshots", "4", "--seed", "7",
            "--delta", self._delta_file(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "repaired=False" in out


class TestOverlapCommand:
    def test_runs(self, karate_file, capsys):
        assert (
            main(
                [
                    "overlap",
                    karate_file,
                    "--first",
                    "ddic",
                    "--second",
                    "random",
                    "--k",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Jaccard(ddic, random)" in out


class TestSpreadCommand:
    def test_runs(self, karate_file, capsys):
        code = main(
            [
                "spread",
                karate_file,
                "--algorithm",
                "ddic",
                "--k",
                "3",
                "--rounds",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ddic @k=3" in out
        assert "+/-" in out

    def test_wc_model(self, karate_file, capsys):
        assert (
            main(["spread", karate_file, "--model", "wc", "--k", "2", "--rounds", "5"])
            == 0
        )


class TestCompeteCommand:
    def test_runs(self, karate_file, capsys):
        code = main(
            [
                "compete",
                karate_file,
                "--first",
                "ddic",
                "--second",
                "random",
                "--k",
                "3",
                "--rounds",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "head-to-head" in out
        assert "seed overlap" in out
        assert "ddic" in out and "random" in out


class TestBlockCommand:
    def test_runs(self, karate_file, capsys):
        code = main(
            [
                "block",
                karate_file,
                "--rival",
                "ddic",
                "--rival-k",
                "3",
                "--k",
                "2",
                "--rounds",
                "5",
                "--pool",
                "15",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "blocked" in out
        assert "blockers:" in out


class TestGetRealCommand:
    def test_full_pipeline(self, karate_file, capsys):
        code = main(
            [
                "getreal",
                karate_file,
                "--strategies",
                "ddic,random",
                "--k",
                "3",
                "--rounds",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "equilibrium" in out
        assert "estimated payoffs" in out

    def test_lt_model(self, karate_file, capsys):
        code = main(
            [
                "getreal",
                karate_file,
                "--strategies",
                "sdwc,random",
                "--model",
                "lt",
                "--k",
                "3",
                "--rounds",
                "4",
            ]
        )
        assert code == 0

    def test_needs_two_strategies(self, karate_file):
        with pytest.raises(SystemExit, match="at least two"):
            main(["getreal", karate_file, "--strategies", "ddic"])

    def test_kernel_flag_is_rejected(self, karate_file, capsys):
        # There is no kernel switch: argparse refuses the flag (exit 2).
        with pytest.raises(SystemExit) as excinfo:
            main(["getreal", karate_file, "--strategies", "mgic,ddic", "--kernel", "numpy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --kernel numpy" in capsys.readouterr().err


class TestErrorBoundary:
    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--probability", "1.5"], "probability must be in [0, 1]"),
            (["--k", "0"], "k must be positive"),
            (["--rounds", "0"], "rounds must be positive"),
            (["--k", "100000"], "budget k=100000 exceeds"),
        ],
    )
    def test_bad_input_is_one_line_exit_2(self, karate_file, capsys, flags, message):
        argv = ["getreal", karate_file, "--strategies", "mgic,ddic", "--rounds", "2"]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "unknown algorithm" not in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestObsCommands:
    FIXTURE = os.path.join(
        os.path.dirname(__file__), "fixtures", "run_journal.jsonl"
    )

    def test_obs_trace_renders_span_tree(self, capsys):
        assert main(["obs", "trace", self.FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "getreal.run" in out
        assert "exec.batch" in out
        assert "self" in out  # self-time column present

    def test_obs_trace_max_children_elides(self, capsys):
        assert main(["obs", "trace", self.FIXTURE, "--max-children", "2"]) == 0
        assert "more child span(s)" in capsys.readouterr().out

    def test_obs_export_prom_is_parseable(self, capsys):
        from repro.obs.export import parse_prometheus_text

        assert main(
            ["obs", "export", "--journal", self.FIXTURE, "--format", "prom"]
        ) == 0
        samples = parse_prometheus_text(capsys.readouterr().out)
        assert samples["repro_exec_batches_total"] == 3.0
        assert samples["repro_exec_jobs_completed_total"] == 30.0

    def test_obs_export_json(self, capsys):
        assert main(
            ["obs", "export", "--journal", self.FIXTURE, "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["exec.batches"] == 3

    def test_obs_export_live_registry_default(self, capsys):
        # Without --journal the command exports this process's registry;
        # exercising the parser is enough (contents depend on test order).
        from repro.obs.export import parse_prometheus_text

        assert main(["obs", "export", "--format", "prom"]) == 0
        parse_prometheus_text(capsys.readouterr().out)  # must not raise

    def test_monitor_once_smoke(self, capsys):
        assert main(["monitor", self.FIXTURE, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro run monitor" in out
        assert "get_real" in out
        assert "batches: 3" in out

    def test_monitor_missing_file_renders_empty_dashboard(self, tmp_path, capsys):
        assert main(["monitor", str(tmp_path / "nope.jsonl"), "--once"]) == 0
        assert "(no runs yet)" in capsys.readouterr().out
