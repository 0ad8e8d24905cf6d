"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "llama3-8b-prefill"])
        assert args.workload == "llama3-8b-prefill"
        assert args.chip == "NPU-D"
        assert args.num_chips is None

    def test_simulate_overrides(self):
        args = build_parser().parse_args(
            ["simulate", "dlrm-m", "--chip", "NPU-E", "--num-chips", "16",
             "--batch-size", "2048", "--policy", "ReGate-Full"]
        )
        assert args.chip == "NPU-E"
        assert args.num_chips == 16
        assert args.batch_size == 2048
        assert args.policy == ["ReGate-Full"]


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "llama3-70b-prefill" in output
        assert "dlrm-l-inference" in output

    def test_chips_command(self, capsys):
        assert main(["chips"]) == 0
        output = capsys.readouterr().out
        assert "NPU-A" in output and "NPU-E" in output

    def test_simulate_command(self, capsys):
        code = main(
            ["simulate", "llama3-8b-decode", "--policy", "ReGate-Full", "--utilization"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "ReGate-Full" in output
        assert "NoPG" in output  # always included as the baseline
        assert "Systolic Array" in output

    def test_simulate_unknown_workload_fails_gracefully(self, capsys):
        assert main(["simulate", "resnet50"]) == 2
        assert "error" in capsys.readouterr().err

    def test_simulate_unknown_policy_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "llama3-8b-decode", "--policy", "dvfs"])


class TestSweepCommand:
    #: 2 chips x 3 workloads (x 5 policies by default): the acceptance grid.
    GRID = [
        "sweep",
        "-w", "llama3-8b-prefill",
        "-w", "llama3-8b-decode",
        "-w", "dlrm-s-inference",
        "--chip", "NPU-C",
        "--chip", "NPU-D",
        "--batch-size", "1",
    ]

    def test_sweep_requires_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_sweep_grid_end_to_end(self, capsys):
        assert main(self.GRID) == 0
        output = capsys.readouterr().out
        assert "3 workload(s) x 2 chip(s)" in output
        assert "result rows   : 30" in output  # 6 points x 5 policies
        for policy in ("NoPG", "ReGate-Base", "ReGate-HW", "ReGate-Full", "Ideal"):
            assert policy in output

    def test_sweep_csv_export_and_warm_cache(self, capsys, tmp_path):
        from repro.simulator.engine import NPUSimulator

        cache = str(tmp_path / "cache")
        cold_csv = str(tmp_path / "cold.csv")
        warm_csv = str(tmp_path / "warm.csv")
        # --cache is a second spelling of the one cache-directory option.
        parser = build_parser()
        assert parser.parse_args([*self.GRID, "--cache", cache]).shared_cache == cache
        assert not hasattr(parser.parse_args(self.GRID), "cache")
        assert main([*self.GRID, "--shared-cache", cache, "--csv", cold_csv]) == 0
        capsys.readouterr()
        NPUSimulator.reset_simulate_calls()
        assert main([*self.GRID, "--shared-cache", cache, "--csv", warm_csv]) == 0
        assert " 0 misses " in capsys.readouterr().out
        assert NPUSimulator.simulate_calls == 0
        with open(cold_csv) as cold, open(warm_csv) as warm:
            assert cold.read() == warm.read()

    @pytest.mark.parametrize("option", ["--cache", "--shared-cache"])
    def test_sweep_refuses_a_cache_root_that_is_a_file(self, option, tmp_path):
        """An old single-file JSON cache is refused before any simulation."""
        from repro.simulator.engine import NPUSimulator

        path = tmp_path / "sweep-cache.json"
        path.write_text("{}")
        NPUSimulator.reset_simulate_calls()
        with pytest.raises(SystemExit, match="not a directory") as exit_info:
            main([*self.GRID, option, str(path)])
        assert "\n" not in str(exit_info.value)
        assert NPUSimulator.simulate_calls == 0
        assert path.read_text() == "{}"

    def test_sweep_parallel_matches_serial_csv(self, capsys, tmp_path):
        serial_csv = str(tmp_path / "serial.csv")
        parallel_csv = str(tmp_path / "parallel.csv")
        assert main([*self.GRID, "--csv", serial_csv]) == 0
        assert main([*self.GRID, "--parallel", "2", "--csv", parallel_csv]) == 0
        capsys.readouterr()
        with open(serial_csv) as serial, open(parallel_csv) as parallel:
            assert serial.read() == parallel.read()

    def test_sweep_json_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "sweep.json"
        assert main(["sweep", "-w", "dlrm-s-inference", "--batch-size", "64",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert len(payload["rows"]) == 5
        assert "total_energy_j" in payload["columns"]
