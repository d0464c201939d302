import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy
from click.testing import CliRunner

from phi4torus.cli import main

GRAPHS = Path(__file__).resolve().parent.parent / "examples" / "graphs"

FAST = [
    "--n", "8", "--r", "0.05", "--dt", "0.05", "--horizon", "0.5",
    "--snapshot-stride", "2",
]


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestPlumbing:
    def test_version_and_help(self, runner):
        assert invoke(runner, ["--version"]).exit_code == 0
        res = invoke(runner, ["--help"])
        assert res.exit_code == 0
        for sub in ("simulate", "trees", "renorm-constants", "powercount",
                    "regularity", "comedown", "cumulant", "sample"):
            assert sub in res.output

    def test_unknown_flag_exits_2(self, runner):
        res = runner.invoke(main, ["simulate", "--bogus"])
        assert res.exit_code == 2

    def test_non_numeric_flag_exits_2(self, runner):
        res = runner.invoke(main, ["simulate", "--n", "abc"])
        assert res.exit_code == 2

    def test_bad_json_config_exits_3(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        res = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert res.exit_code == 3

    def test_bad_config_line_exits_3(self, runner, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("r 0.05\n")  # missing '='
        res = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert res.exit_code == 3

    def test_refused_precondition_exits_4(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["trees", *FAST, "--burn-in", "1.0",
             "--output-dir", str(tmp_path)],
        )
        assert res.exit_code == 4

    def test_refused_run_writes_manifest(self, runner, tmp_path):
        res = runner.invoke(main, ["trees", "--n", "8", "--burn-in", "1",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "refused"
        assert "burn_in must cover" in manifest["message"]
        assert manifest["outputs"] == {}

    def test_output_dir_env_var(self, runner, tmp_path):
        out = tmp_path / "via_env"
        res = invoke(
            runner, ["simulate", *FAST, "--no-checkpoints"],
            env={"PHI4_OUTPUT_DIR": str(out)},
        )
        assert res.exit_code == 0
        assert (out / "diagnostics.csv").exists()
        assert (out / "manifest.json").exists()


class TestConfigPrecedence:
    def write_cfg(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 0.07\nn = 8\ndt = 0.05\nhorizon = 0.25\n")
        return cfg

    def test_config_file_overrides_defaults(self, runner, tmp_path):
        cfg = self.write_cfg(tmp_path)
        res = invoke(runner, ["simulate", "--config", str(cfg),
                              "--output-dir", str(tmp_path), "--no-checkpoints"])
        assert res.exit_code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert float(manifest["config"]["r"]) == 0.07
        assert int(manifest["config"]["n"]) == 8

    def test_explicit_flag_beats_config_file(self, runner, tmp_path):
        cfg = self.write_cfg(tmp_path)
        res = invoke(runner, ["simulate", "--config", str(cfg), "--r", "0.02",
                              "--output-dir", str(tmp_path), "--no-checkpoints"])
        assert res.exit_code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert float(manifest["config"]["r"]) == 0.02

    def test_json_config_accepted(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 8, "r": 0.07, "dt": 0.05,
                                   "horizon": 0.25}))
        res = invoke(runner, ["simulate", "--config", str(cfg),
                              "--output-dir", str(tmp_path), "--no-checkpoints"])
        assert res.exit_code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert float(manifest["config"]["r"]) == 0.07

    def test_flag_beats_config_file_when_invoked_in_process(self, runner, tmp_path):
        """Precedence follows the arguments click parsed, not the command
        line of the process that calls the CLI."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 0.05\nn = 8\ndt = 0.05\nhorizon = 0.25\n")
        res = invoke(runner, ["simulate", "--config", str(cfg), "--r", "0.02",
                              "--output-dir", str(tmp_path), "--no-checkpoints"])
        assert res.exit_code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert float(manifest["config"]["r"]) == 0.02
        assert int(manifest["config"]["n"]) == 8


class TestSimulate:
    def test_writes_diagnostics_and_manifest(self, runner, tmp_path):
        res = invoke(runner, ["simulate", *FAST, "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        header, rows = read_csv(tmp_path / "diagnostics.csv")
        assert header == ["t", "L2", "L8", "besov_proxy", "weighted_norm"]
        assert len(rows) >= 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["seed"] == 0
        assert manifest["status"] == "ok"
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == scipy.__version__
        assert manifest["fft_workers"] == 1
        # checkpoints default on: at least one .field output is recorded
        assert any(name.endswith(".field") for name in manifest["outputs"])
        # every recorded checksum matches the file on disk
        for name, digest in manifest["outputs"].items():
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digest

    def test_deterministic_across_runs(self, runner, tmp_path):
        digests = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            res = invoke(runner, ["simulate", *FAST, "--seed", "3",
                                  "--no-checkpoints", "--output-dir", str(d)])
            assert res.exit_code == 0
            manifest = json.loads((d / "manifest.json").read_text())
            digests.append(manifest["outputs"]["diagnostics.csv"])
        assert digests[0] == digests[1]

    def test_streams_differ(self, runner, tmp_path):
        digests = []
        for stream in ("0", "1"):
            d = tmp_path / stream
            res = invoke(runner, ["simulate", *FAST, "--stream", stream,
                                  "--no-checkpoints", "--output-dir", str(d)])
            assert res.exit_code == 0
            manifest = json.loads((d / "manifest.json").read_text())
            digests.append(manifest["outputs"]["diagnostics.csv"])
        assert digests[0] != digests[1]


class TestTrees:
    def test_component_dump(self, runner, tmp_path):
        res = invoke(runner, ["trees", *FAST, "--burn-in", "5.0",
                              "--snapshots", "1", "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        for name in ("X", "W2", "W3", "I2", "I3", "v_ref"):
            assert (tmp_path / f"tree_{name}_0.field").exists()

    def test_divergence_sweep(self, runner, tmp_path):
        res = invoke(runner, ["trees", *FAST, "--burn-in", "5.0",
                              "--sweep", "0.005:0.3:4",
                              "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        header, rows = read_csv(tmp_path / "tree_divergence.csv")
        assert "r" in header and "raw_square_mean" in header
        assert len(rows) == 4

    def test_narrow_sweep_refused(self, runner, tmp_path):
        res = runner.invoke(main, ["trees", *FAST, "--sweep", "0.01,0.02,0.04",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4


class TestRenormConstants:
    def test_table(self, runner, tmp_path):
        res = invoke(runner, ["renorm-constants", "--r", "0.02,0.08",
                              "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        header, rows = read_csv(tmp_path / "renorm_constants.csv")
        assert header == ["r", "a_closed", "a_numeric", "b_closed", "b_numeric"]
        assert len(rows) == 2
        assert float(rows[0][1]) > 0

    def test_bad_sweep_exits_3(self, runner, tmp_path):
        res = runner.invoke(main, ["renorm-constants", "--r", "oops",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 3


class TestPowercount:
    def test_table_reports_gamma_max(self, runner):
        res = invoke(runner, ["powercount", "--file", str(GRAPHS / "g24.fg")])
        assert res.exit_code == 0
        assert "gamma_max = 0" in res.output

    def test_case_b_flagged(self, runner):
        res = invoke(runner, ["powercount",
                              "--file", str(GRAPHS / "b_subamplitude.fg")])
        assert res.exit_code == 0
        assert "gamma_max = unconstrained" in res.output
        assert "case (b) at the boundary" in res.output

    def test_json_output(self, runner, tmp_path):
        res = invoke(runner, ["powercount", "--file", str(GRAPHS / "g22.fg"),
                              "--json", "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        payload = json.loads((tmp_path / "g22_verdicts.json").read_text())
        assert payload["gamma_max"] == "1/2"
        assert payload["admissible"] is True
        assert len(payload["subgraphs"]) >= 1

    def test_bad_graph_exits_3(self, runner, tmp_path):
        bad = tmp_path / "bad.fg"
        bad.write_text("vertex a\nedge L a a\n")
        res = runner.invoke(main, ["powercount", "--file", str(bad)])
        assert res.exit_code == 3

    def test_missing_file_exits_2(self, runner):
        res = runner.invoke(main, ["powercount", "--file", "/nonexistent.fg"])
        assert res.exit_code == 2


class TestRegularity:
    def test_json_report(self, runner, tmp_path):
        res = invoke(runner, ["regularity", "--n", "32", "--r", "0.05",
                              "--dt", "0.05", "--component", "X",
                              "--samples", "16", "--burn-in", "5.0",
                              "--j-min", "1", "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        payload = json.loads((tmp_path / "regularity_X.json").read_text())
        assert payload["component"] == "X"
        assert isinstance(payload["gamma_hat"], float)
        assert len(payload["levels"]) == len(payload["log2_energy"])

    def test_unknown_component_refused(self, runner, tmp_path):
        res = runner.invoke(main, ["regularity", *FAST, "--component", "Zed",
                                   "--burn-in", "5.0",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4


class TestComedown:
    def test_report_files(self, runner, tmp_path):
        res = invoke(runner, ["comedown", "--n", "8", "--r", "0.05",
                              "--dt", "0.01", "--horizon", "0.5",
                              "--sizes", "3,30", "--p", "8",
                              "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        header, rows = read_csv(tmp_path / "comedown.csv")
        assert header == ["t", "Lp_size_3", "Lp_size_30"]
        assert len(rows) >= 2
        summary = json.loads((tmp_path / "comedown.json").read_text())
        assert summary["p"] == 8
        assert "spread_at_0.5" in summary
        assert summary["blow_up"] == [None, None]

    def test_odd_p_refused(self, runner, tmp_path):
        res = runner.invoke(main, ["comedown", *FAST, "--p", "7",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4


class TestCumulantAndSample:
    def test_cumulant_sweep_csv(self, runner, tmp_path):
        res = invoke(runner, ["cumulant", "--n", "8", "--r", "0.05",
                              "--dt", "0.05", "--burn-in", "5.0",
                              "--stride", "0.5", "--count", "200",
                              "--probes", "0.02,0.01",
                              "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        header, rows = read_csv(tmp_path / "cumulant.csv")
        assert header == ["r_probe", "c4", "stderr", "significance",
                          "n_samples"]
        assert len(rows) == 2
        assert int(rows[0][4]) == 200

    def test_sample_outputs(self, runner, tmp_path):
        res = invoke(runner, ["sample", "--n", "8", "--r", "0.05",
                              "--dt", "0.05", "--burn-in", "5.0",
                              "--stride", "0.5", "--count", "6",
                              "--save-fields", "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        header, rows = read_csv(tmp_path / "samples.csv")
        assert header == ["t", "mean", "m2", "m4"]
        assert len(rows) == 6
        report = json.loads((tmp_path / "sample_report.json").read_text())
        assert report["count"] == 6
        assert report["blew_up"] is None
        assert (tmp_path / "sample_0000.field").exists()

    def test_sample_short_burn_in_refused(self, runner, tmp_path):
        res = runner.invoke(main, ["sample", *FAST, "--burn-in", "1.0",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4
