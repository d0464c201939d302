import csv
import dataclasses
import hashlib
import json
import shutil

import numpy as np
import pytest
import scipy
from click.testing import CliRunner

from phi4torus.cli import main
from phi4torus.dynamics import BlowUpError, step_u
from phi4torus.powercount import SubgraphVerdict, gamma_range, parse_graph
from phi4torus.spectral import transform_counts

from oracles import GRAPHS

FAST_GRID = ["--n", "8", "--r", "0.05", "--dt", "0.05"]
FAST = [*FAST_GRID, "--horizon", "0.5", "--snapshot-stride", "2"]
SWEEP_GRID = ["--n", "8", "--dt", "0.05"]  # a sweep sets its own r values


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
            ["trees", *FAST_GRID, "--burn-in", "1.0",
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

    def test_failed_run_writes_manifest(self, runner, tmp_path, monkeypatch):
        def broken(cfg, record):
            raise RuntimeError("integrator broke")

        monkeypatch.setattr("phi4torus.cli.simulate_u", broken)
        res = runner.invoke(main, ["simulate", *FAST, "--output-dir", str(tmp_path)])
        assert isinstance(res.exception, RuntimeError)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["message"] == "RuntimeError: integrator broke"

    @pytest.mark.parametrize("args,message,transforms", [
        (["cumulant", "--burn-in", "1"], "burn-in must cover at least 5", 0),
        (["cumulant", "--stride", "0.01", "--dt", "0.01"], "stride 0.01 below 5*dt", 0),
        (["renorm-constants", "--r", "0.2,0.3"], "r must lie in (0, 0.1), got 0.2", None),
    ], ids=["cumulant-burn-in", "cumulant-stride", "renorm-b-numeric"])
    def test_library_precondition_refused(self, runner, tmp_path, args, message,
                                          transforms):
        """A ValueError the library raises during a run refuses it with the
        library's own text, and no traceback."""
        res = runner.invoke(main, [*args, "--output-dir", str(tmp_path)])
        assert res.exit_code == 4
        assert isinstance(res.exception, SystemExit)
        assert f"Error: {message}" in res.output
        assert "Traceback" not in res.output
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "refused"
        assert message in manifest["message"]
        assert manifest["outputs"] == {}
        if transforms is not None:
            assert manifest["transforms"]["transforms"] == transforms

    def test_blow_up_refused(self, runner, tmp_path, monkeypatch):
        error = BlowUpError(0.25, 3e8, 1e8)

        def blows_up(cfg, record):
            raise error

        monkeypatch.setattr("phi4torus.cli.simulate_u", blows_up)
        res = runner.invoke(main, ["simulate", *FAST, "--output-dir", str(tmp_path)])
        assert res.exit_code == 4
        assert isinstance(res.exception, SystemExit)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "refused"
        assert manifest["message"] == str(error)
        assert manifest["message"].startswith("blow-up at t=0.25")

    def test_simulate_blow_up_keeps_the_checkpoints_written(self, runner, tmp_path,
                                                            monkeypatch):
        """A blow-up after two snapshots refuses the run with its own text;
        their checkpoints stay listed, and diagnostics.csv is deleted."""
        error = BlowUpError(0.15, 3e8, 1e8)
        calls = []

        def blows_up(u, *args, **kwargs):
            calls.append(None)
            if len(calls) > 2:  # snapshots at t = 0 and after two steps
                raise error
            return step_u(u, *args, **kwargs)

        monkeypatch.setattr("phi4torus.dynamics.step_u", blows_up)
        res = runner.invoke(main, ["simulate", *FAST, "--output-dir", str(tmp_path)])
        assert res.exit_code == 4
        assert isinstance(res.exception, SystemExit)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "refused"
        assert manifest["message"] == str(error)
        want = ["u_t0.000000.field", "u_t0.100000.field"]
        assert list(manifest["outputs"]) == want
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(want + ["manifest.json"])
        for name in want:
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert manifest["outputs"][name] == digest

    @pytest.mark.parametrize("sub", ["cumulant", "sample"])
    def test_sampling_blow_up_refused(self, runner, tmp_path, monkeypatch, sub):
        """A blow-up in the Birkhoff chain refuses the run with its own text
        and leaves no partial table; fields written before it stay listed."""
        error = BlowUpError(6.25, 3e8, 1e8)
        calls = []

        def blows_up(u, *args, **kwargs):
            calls.append(None)
            if len(calls) > 125:  # 100 burn-in steps, then two samples
                raise error
            return step_u(u, *args, **kwargs)

        monkeypatch.setattr("phi4torus.observables.step_u", blows_up)
        extra = ["--count", "200"] if sub == "cumulant" else ["--save-fields"]
        res = runner.invoke(main, [sub, *FAST_GRID, "--burn-in", "5.0", "--stride", "0.5",
                                   *extra, "--output-dir", str(tmp_path)])
        assert res.exit_code == 4
        assert isinstance(res.exception, SystemExit)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "refused"
        assert manifest["message"] == str(error)
        want = ["sample_0000.field", "sample_0001.field"] if sub == "sample" else []
        assert list(manifest["outputs"]) == want
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(want + ["manifest.json"])

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


    def test_config_file_option_outside_the_sim_keys_honoured(self, runner, tmp_path):
        cfg = tmp_path / "trees.cfg"
        cfg.write_text("n = 8\nburn-in = 1.0\n")
        res = runner.invoke(main, ["trees", "--config", str(cfg),
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["burn_in"] == 1.0
        assert "burn_in must cover" in manifest["message"]

    def test_unknown_config_key_exits_3(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 8\nhorizn = 0.5\n")
        res = runner.invoke(main, ["comedown", "--config", str(cfg),
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 3
        assert "horizn" in res.output and "comedown" in res.output
        assert not (tmp_path / "manifest.json").exists()

    def test_option_of_another_subcommand_in_config_exits_3(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 8, "horizon": 0.5}))
        res = runner.invoke(main, ["trees", "--config", str(cfg)])
        assert res.exit_code == 3
        assert "horizon" in res.output and "trees" in res.output

    @pytest.mark.parametrize("line", ["counterterm_a = maybe", "n = eight",
                                      "snapshot_stride = 0"])
    def test_config_value_its_type_rejects_exits_3(self, runner, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        res = runner.invoke(main, ["simulate", "--config", str(cfg),
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 3
        assert line.split(" = ")[0] in res.output

    @pytest.mark.parametrize("value", [8.5, 16.25])
    def test_non_integral_number_for_an_integer_option_exits_3(self, runner, tmp_path,
                                                               value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": value}))
        res = runner.invoke(main, ["simulate", "--config", str(cfg),
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 3
        assert f"n = {value!r}: not an integer" in res.output
        assert not (tmp_path / "manifest.json").exists()

    def test_integral_float_for_an_integer_option_is_cast(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 8.0, "dt": 0.05, "horizon": 0.25}))
        res = invoke(runner, ["simulate", "--config", str(cfg), "--no-checkpoints",
                              "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert config["n"] == 8 and isinstance(config["n"], int)

    def test_config_bool_values_cast_by_the_option_type(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 8\ndt = 0.05\nhorizon = 0.25\ncounterterm_a = no\n")
        res = invoke(runner, ["simulate", "--config", str(cfg), "--counterterm-b",
                              "--output-dir", str(tmp_path), "--no-checkpoints"])
        assert res.exit_code == 0
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert config["counterterm_a"] is False and config["counterterm_b"] is True
        assert config["config_file"] == str(cfg)


# Each flag the subcommand's code never read, so it is no longer accepted.
IGNORED_FLAGS = [
    *[(cmd, flag) for cmd in ("trees", "regularity")
      for flag in (["--horizon", "2"], ["--coupling", "2"], ["--no-counterterm-a"],
                   ["--no-counterterm-b"], ["--snapshot-stride", "2"])],
    *[("comedown", flag) for flag in (["--coupling", "2"], ["--no-counterterm-a"],
                                      ["--no-counterterm-b"], ["--snapshot-stride", "2"])],
    *[(cmd, flag) for cmd in ("cumulant", "sample")
      for flag in (["--horizon", "2"], ["--snapshot-stride", "2"])],
]


class TestOptionSets:
    def test_option_count(self):
        assert sum(len(c.params) for c in main.commands.values()) == 86

    @pytest.mark.parametrize("sub,flag", IGNORED_FLAGS,
                             ids=[f"{c}{f[0]}" for c, f in IGNORED_FLAGS])
    def test_ignored_flag_exits_2(self, runner, tmp_path, sub, flag):
        res = runner.invoke(main, [sub, *flag, "--output-dir", str(tmp_path)])
        assert res.exit_code == 2
        assert "No such option" in res.output

    @pytest.mark.parametrize("sub", ["trees", "sample", "cumulant"])
    def test_refused_run_records_every_option(self, runner, tmp_path, sub):
        res = runner.invoke(main, [sub, *FAST_GRID, "--burn-in", "1.0",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "refused"
        assert set(manifest["config"]) == {p.name for p in main.commands[sub].params}
        assert manifest["config"]["burn_in"] == 1.0

    @pytest.mark.parametrize("flag", [["--n", "12"], ["--period", "0"], ["--r", "0"]])
    def test_invalid_grid_or_config_exits_3(self, runner, tmp_path, flag):
        res = runner.invoke(main, ["simulate", *flag, "--output-dir", str(tmp_path)])
        assert res.exit_code == 3
        assert res.exception is None or isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("sub", ["simulate", "trees", "regularity", "comedown",
                                     "cumulant", "sample"])
    def test_dim_is_not_an_option(self, runner, tmp_path, sub):
        """The subcommands run the 3-d model, whose constants a_r and b_r
        they apply, so they take no torus dimension."""
        res = runner.invoke(main, [sub, "--dim", "4", "--output-dir", str(tmp_path)])
        assert res.exit_code == 2
        assert "No such option" in res.output
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("args", [["simulate", "--snapshot-stride", "0"],
                                      ["cumulant", "--streams", "0"],
                                      ["trees", "--snapshots", "0"],
                                      ["trees", "--snapshots", "-1"],
                                      ["sample", "--count", "-3"],
                                      ["cumulant", "--count", "0"]])
    def test_zero_stride_or_streams_exits_2(self, runner, tmp_path, args):
        """The stride, streams, snapshots and count options take only values >= 1."""
        res = runner.invoke(main, [*args, "--output-dir", str(tmp_path)])
        assert res.exit_code == 2
        assert not (tmp_path / "manifest.json").exists()

    def test_too_few_cumulant_samples_refused_before_sampling(self, runner, tmp_path,
                                                             monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("sampled before checking --count")

        monkeypatch.setattr("phi4torus.cli.birkhoff_sample", never)
        res = runner.invoke(main, ["cumulant", "--count", "100",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4
        assert "need at least 200 decorrelated samples, got --count 100" in res.output
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "refused"

    def test_streams_not_dividing_count_exits_3_before_sampling(self, runner, tmp_path,
                                                                monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("sampled before checking --streams")

        monkeypatch.setattr("phi4torus.cli.birkhoff_sample", never)
        res = runner.invoke(main, ["cumulant", "--count", "200", "--streams", "3",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 3
        assert "--streams 3" in res.output

    @pytest.mark.parametrize("args,work", [
        (["trees", "--sweep", "oops"], "tree_divergence_report"),
        (["cumulant", "--probes", "oops"], "birkhoff_sample"),
        (["comedown", "--sizes", "3,abc"], "coming_down_experiment"),
    ], ids=["trees-sweep", "cumulant-probes", "comedown-sizes"])
    def test_malformed_list_exits_3_before_any_work(self, runner, tmp_path, monkeypatch,
                                                     args, work):
        option = args[1]

        def never(*a, **kw):
            raise AssertionError(f"ran {work} before checking {option}")

        monkeypatch.setattr(f"phi4torus.cli.{work}", never)
        res = runner.invoke(main, [*args, "--output-dir", str(tmp_path)])
        assert res.exit_code == 3
        assert f"bad {option} {args[2]!r}" in res.output

    @pytest.mark.parametrize("args,option", [
        (["renorm-constants", "--r", "1e-3:1e-2:0"], "--r"),
        (["comedown", "--n", "8", "--sizes", "3:300:0"], "--sizes"),
        (["cumulant", "--n", "8", "--dt", "0.05", "--probes", "0.1:0.01:0", "--count", "200"],
         "--probes"),
        (["trees", "--sweep", "0.3:0.003:0"], "--sweep"),
    ], ids=["renorm-constants", "comedown", "cumulant", "trees"])
    def test_an_empty_sweep_exits_3_before_any_work(self, runner, tmp_path, args, option):
        before = transform_counts()
        res = runner.invoke(main, [*args, "--output-dir", str(tmp_path)])
        assert res.exit_code == 3
        assert f"bad {option} " in res.output
        assert ": no values" in res.output
        assert transform_counts() == before
        assert not (tmp_path / "manifest.json").exists()


# small configs of the subcommands that evolve fields
STABLE_RUNS = [
    ["simulate", *FAST],
    ["trees", *FAST_GRID, "--burn-in", "5.0", "--snapshots", "2"],
    ["comedown", "--n", "8", "--r", "0.05", "--dt", "0.01", "--horizon", "0.2",
     "--sizes", "3,30", "--p", "8"],
    ["cumulant", *FAST_GRID, "--burn-in", "5.0", "--stride", "0.5", "--count", "200",
     "--probes", "0.04,0.02,0.01"],
    ["sample", *FAST_GRID, "--burn-in", "5.0", "--stride", "0.5", "--count", "6",
     "--save-fields"],
    ["simulate", *FAST, "--no-checkpoints"],
]
STABLE_IDS = ["simulate", "trees", "comedown", "cumulant", "sample", "simulate-no-checkpoints"]


class TestByteStableOutputs:
    """Two same-seed calls in one process write the same bytes to every
    file, manifest.json included: no output carries a time, a process-wide
    high-water mark or any other value of the run rather than of its inputs."""

    @pytest.mark.parametrize("args", STABLE_RUNS, ids=STABLE_IDS)
    def test_same_seed_gives_the_same_bytes(self, runner, tmp_path, args):
        out = tmp_path / "out"
        files = []
        for _ in range(2):
            if out.exists():
                shutil.rmtree(out)
            res = invoke(runner, [*args, "--seed", "5", "--output-dir", str(out)])
            assert res.exit_code == 0
            files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            # the process grows between the calls, as a benchmark's does
            np.ones(8 << 20).sum()
        assert "manifest.json" in files[0]
        assert len(files[0]) > 1
        assert files[0].keys() == files[1].keys()
        for name in files[0]:
            assert files[0][name] == files[1][name], name


class TestTransformPins:
    """The manifest's transform counts of each subcommand at seed 5: they
    depend on the code path alone, not on the machine, so a change that
    moves one shows here exactly."""

    # A transform on the N grid takes three passes, one per axis, and a
    # stacked inverse of several fields three in all (`spectral.evaluate`:
    # 952 of the transforms of `comedown` on the N grid in 600 real passes,
    # and in `cumulant` the three probes of each of 200 samples in 600).
    # Each `trees` snapshot forms its resonant products level by level, on
    # M = 5, 12, 15 and 15 at N = 8, with three truncations per level: 9
    # more truncations and 4 610 fewer points per snapshot than with every
    # level on M = 15 and one truncation per product (1 508, 5 653 and
    # 6 613 506 then).  `comedown` steps the trees only when a later step
    # reads them: the tree step after the last v step is not taken.  At
    # N = 8 that step costs its v_ref drift on M = 15, four pads and two
    # truncations (24 passes, 6 * 5 175 points), and three transforms on
    # the N grid: the values of the stepped I2, e^{3 I2} back to
    # coefficients and the noise increment (9 passes, 3 * 1 152 points).
    # Without it: 9 transforms, 33 passes and 34 506 points fewer than the
    # 2 112, 6 440 and 7 431 264 of a run that takes it.
    @pytest.mark.parametrize("args, transforms, passes, points", [
        (STABLE_RUNS[0], 59, 197, 166_848),
        (STABLE_RUNS[1], 1_526, 5_725, 6_604_286),
        (STABLE_RUNS[2], 2_103, 6_407, 7_396_758),
        (STABLE_RUNS[3], 6_900, 23_700, 28_713_600),
        (STABLE_RUNS[4], 486, 1_778, 2_141_952),
        (STABLE_RUNS[5], 59, 197, 166_848),
        (["regularity", "--n", "32", "--r", "0.05", "--dt", "0.1", "--samples", "16",
          "--j-min", "0"], 504, 1_890, 147_498_624),
        (["trees", "--n", "16", "--dt", "0.1", "--sweep", "0.3,0.1,0.03,0.005"],
         2_192, 8_124, 76_082_336),
    ], ids=[*STABLE_IDS, "regularity", "trees-sweep"])
    def test_transforms(self, runner, tmp_path, args, transforms, passes, points):
        res = invoke(runner, [*args, "--seed", "5", "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["transforms"] == {
            "transforms": transforms, "passes": passes, "points": points,
        }


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
        # numpy.fft has no worker setting: the manifest records none
        assert "fft_workers" not in manifest
        # checkpoints default on: at least one .field output is recorded
        assert any(name.endswith(".field") for name in manifest["outputs"])
        # every recorded checksum matches the file on disk
        for name, digest in manifest["outputs"].items():
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digest

    def test_manifest_records_the_transforms_of_the_run(self, runner, tmp_path):
        before = transform_counts()
        res = invoke(runner, ["simulate", *FAST, "--output-dir", str(tmp_path)])
        after = transform_counts()
        assert res.exit_code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["transforms"] == {k: after[k] - before[k] for k in after}
        assert manifest["transforms"]["transforms"] > 0

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
        res = invoke(runner, ["trees", *FAST_GRID, "--burn-in", "5.0",
                              "--snapshots", "1", "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        for name in ("X", "W2", "W3", "I2", "I3", "v_ref"):
            assert (tmp_path / f"tree_{name}_0.field").exists()

    def test_divergence_sweep(self, runner, tmp_path):
        res = invoke(runner, ["trees", *SWEEP_GRID, "--burn-in", "5.0",
                              "--sweep", "0.005:0.3:4",
                              "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        header, rows = read_csv(tmp_path / "tree_divergence.csv")
        assert "r" in header and "raw_square_mean" in header
        assert len(rows) == 4

    def test_narrow_sweep_refused(self, runner, tmp_path):
        res = runner.invoke(main, ["trees", *SWEEP_GRID, "--sweep", "0.01,0.02,0.04",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4

    @pytest.mark.parametrize("flag", [["--r", "0.05"], ["--stream", "1"],
                                      ["--snapshots", "2"], ["--r", "0.01"]])
    def test_flag_the_sweep_ignores_exits_2(self, runner, tmp_path, flag):
        res = runner.invoke(main, ["trees", *SWEEP_GRID, *flag, "--sweep", "0.005:0.3:4",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 2
        assert f"{flag[0]} does not apply with --sweep" in res.output
        assert not (tmp_path / "manifest.json").exists()

    def test_flag_the_sweep_ignores_in_a_config_file_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stream = 3\n")
        res = runner.invoke(main, ["trees", *SWEEP_GRID, "--config", str(cfg),
                                   "--sweep", "0.005:0.3:4", "--output-dir", str(tmp_path)])
        assert res.exit_code == 2
        assert "--stream does not apply with --sweep" in res.output


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

    @pytest.mark.parametrize("n", ["3", "0"], ids=["not-a-power-of-two", "zero"])
    def test_bad_n_exits_3(self, runner, tmp_path, n):
        res = runner.invoke(main, ["renorm-constants", "--r", "0.02", "--n", n,
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 3
        assert f"bad --n: n must be a power of two >= 2, got {n}" in res.output
        assert not (tmp_path / "renorm_constants.csv").exists()

    def test_b_numeric_range_refused_before_any_quadrature(self, runner, tmp_path,
                                                           monkeypatch):
        monkeypatch.setattr("phi4torus.renorm._quad", lambda *a, **kw: pytest.fail("quadrature"))
        res = runner.invoke(main, ["renorm-constants", "--r", "0.05,0.2",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4
        assert "r must lie in (0, 0.1), got 0.2" in res.output
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "refused"
        assert not (tmp_path / "renorm_constants.csv").exists()

    @pytest.mark.parametrize("sweep", ["0", "0.02,-0.01"], ids=["zero", "negative"])
    def test_non_positive_r_exits_3(self, runner, tmp_path, monkeypatch, sweep):
        monkeypatch.setattr("phi4torus.cli.a_numeric", lambda *a: pytest.fail("ran"))
        res = runner.invoke(main, ["renorm-constants", "--r", sweep,
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 3
        assert f"bad --r {sweep!r}: r must be positive" in res.output
        assert not (tmp_path / "renorm_constants.csv").exists()


class TestPowercount:
    def test_table_reports_gamma_max(self, runner, tmp_path):
        res = invoke(runner, ["powercount", "--file", str(GRAPHS / "g24.fg"),
                              "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        assert "gamma_max = 0" in res.output
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["outputs"] == {}
        assert manifest["transforms"]["transforms"] == 0
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_case_b_flagged(self, runner, tmp_path):
        res = invoke(runner, ["powercount",
                              "--file", str(GRAPHS / "b_subamplitude.fg"),
                              "--output-dir", str(tmp_path)])
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
        for src in ["vertex a\nedge L a a\n",
                    "triple T = (a, a1, a2)\ntriple T = (b, b1, b2)\n"]:
            bad.write_text(src)
            res = runner.invoke(main, ["powercount", "--file", str(bad),
                                       "--output-dir", str(tmp_path)])
            assert res.exit_code == 3, src

    def test_json_subgraphs_are_the_verdict_fields(self, runner, tmp_path):
        """Each --json subgraph record holds its verdict's fields in
        declaration order, a Fraction, an Affine or an Edge as its str."""
        res = invoke(runner, ["powercount", "--file", str(GRAPHS / "g24.fg"),
                              "--json", "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        records = json.loads((tmp_path / "g24_verdicts.json").read_text())["subgraphs"]
        verdicts = gamma_range(parse_graph((GRAPHS / "g24.fg").read_text())).verdicts
        names = [f.name for f in dataclasses.fields(SubgraphVerdict)]

        def rendered(x):
            if isinstance(x, tuple):
                return [rendered(y) for y in x]
            return x if x is None or isinstance(x, (bool, int, str)) else str(x)

        assert len(records) == len(verdicts) == 4
        for record, v in zip(records, verdicts):
            assert list(record) == names
            assert record == {n: rendered(getattr(v, n)) for n in names}
        assert records[-1]["edges"] == ["L l1 z1", "L l2 z2", "G2 z1 z2",
                                        "G2 m1 m2 time0", "Q s1 s2 mark"]
        assert records[-1]["a2"] == "-28 - 2*gamma"

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

    def test_window_skips_the_empty_level(self, runner, tmp_path):
        """Level 0 holds no mode: --j-min 0 fits levels 1 to 4, the last
        level whose annulus lies inside the axis Nyquist ball at N = 32, and
        writes no non-finite number."""
        res = invoke(runner, ["regularity", "--n", "32", "--r", "0.05", "--dt", "0.1",
                              "--samples", "16", "--burn-in", "5.0", "--j-min", "0",
                              "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        text = (tmp_path / "regularity_X.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text)["levels"] == [1, 2, 3, 4]

    def test_too_few_held_levels_refused(self, runner, tmp_path):
        res = runner.invoke(main, ["regularity", "--n", "16", "--r", "0.05", "--dt", "0.05",
                                   "--samples", "16", "--burn-in", "5.0", "--j-min", "0",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4
        assert "only 3 usable levels" in res.output
        assert not (tmp_path / "regularity_X.json").exists()

    @pytest.mark.parametrize("args", [["--n", "8"], ["--samples", "8"]],
                             ids=["coarse-grid", "few-samples"])
    def test_window_checked_before_building_trees(self, runner, tmp_path, args):
        """Too few usable levels (N = 8 holds levels 1 and 2 below
        j_complete) or samples refuse the run before it transforms."""
        res = runner.invoke(main, ["regularity", *args, "--output-dir", str(tmp_path)])
        assert res.exit_code == 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "refused"
        assert manifest["transforms"] == {"transforms": 0, "passes": 0, "points": 0}

    def test_default_j_min_runs(self, runner, tmp_path):
        res = invoke(runner, ["regularity", "--n", "32", "--dt", "0.1", "--samples", "16",
                              "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        assert json.loads((tmp_path / "regularity_X.json").read_text())["levels"] == [1, 2, 3, 4]

    def test_unknown_component_refused(self, runner, tmp_path):
        res = runner.invoke(main, ["regularity", *FAST_GRID, "--component", "Zed",
                                   "--burn-in", "5.0",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4

    @pytest.mark.parametrize("component", ["R1", "v_ref"])
    def test_component_checked_before_building_trees(self, runner, tmp_path,
                                                     monkeypatch, component):
        def never(*args, **kwargs):
            raise AssertionError("built trees before checking --component")

        monkeypatch.setattr("phi4torus.cli.build_enhanced_noise", never)
        res = runner.invoke(main, ["regularity", *FAST_GRID, "--component", component,
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "refused"
        assert component in manifest["message"]


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

    def test_initial_data_past_the_threshold_are_named(self, runner, tmp_path):
        res = invoke(runner, ["comedown", "--n", "8", "--r", "0.05", "--dt", "0.01",
                              "--horizon", "0.2", "--sizes", "3,3e6", "--p", "8",
                              "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        text = (tmp_path / "comedown.json").read_text()
        # the second run has no norm in the fit window, and JSON has no NaN
        assert "NaN" not in text and "NaN" not in res.stdout
        summary = json.loads(text)
        assert summary["fitted_C"][0] > 0 and summary["fitted_C"][1] is None
        assert summary["blow_up"][0] is None
        assert summary["blow_up"][1].startswith(
            "initial data exceed the blow-up threshold: sup|v(0)| = ")
        assert summary["blow_up"][1].endswith("(threshold 1e+06)")
        assert res.stderr.splitlines() == [f"size 3e+06: {summary['blow_up'][1]}"]
        _, rows = read_csv(tmp_path / "comedown.csv")
        assert float(rows[0][2]) > 0
        assert all(row[2] == "nan" for row in rows[1:])
        assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "ok"

    def test_odd_p_refused(self, runner, tmp_path):
        res = runner.invoke(main, ["comedown", *FAST_GRID, "--horizon", "0.5", "--p", "7",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4

    def test_horizon_before_the_fit_window_refused_before_burn_in(self, runner, tmp_path):
        res = runner.invoke(main, ["comedown", "--n", "8", "--horizon", "0.02",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4
        assert "before the fit window" in res.output
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "refused"
        assert manifest["transforms"]["transforms"] == 0
        assert manifest["outputs"] == {}


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

    def test_cumulant_reports_autocorrelation_per_stream(self, runner, tmp_path):
        res = invoke(runner, ["cumulant", "--n", "8", "--r", "0.05",
                              "--dt", "0.05", "--burn-in", "5.0",
                              "--stride", "0.5", "--count", "200", "--streams", "2",
                              "--stream", "4", "--probes", "0.02",
                              "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        report = json.loads((tmp_path / "cumulant_report.json").read_text())
        assert report["stride"] == 0.5
        assert [s["stream"] for s in report["streams"]] == [4, 5]
        for s in report["streams"]:
            assert s["tau_int"] > 0
            assert s["stride_adequate"] == (0.5 >= s["tau_int"])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "cumulant_report.json" in manifest["outputs"]

    @pytest.mark.parametrize("probes", ["0", "0.02,-0.01"], ids=["zero", "negative"])
    def test_non_positive_probe_exits_3(self, runner, tmp_path, monkeypatch, probes):
        monkeypatch.setattr("phi4torus.cli.birkhoff_sample", lambda *a: pytest.fail("sampled"))
        res = runner.invoke(main, ["cumulant", "--probes", probes,
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 3
        assert f"bad --probes {probes!r}: every probe scale must be positive" in res.output
        assert not (tmp_path / "cumulant.csv").exists()

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
        assert "blew_up" not in report  # a blow-up refuses the run
        # each field is written as its sample is taken, the table when the
        # chain ends
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert list(manifest["outputs"]) == [
            *(f"sample_{i:04d}.field" for i in range(6)), "samples.csv", "sample_report.json",
        ]

    def test_sample_short_burn_in_refused(self, runner, tmp_path):
        res = runner.invoke(main, ["sample", *FAST_GRID, "--burn-in", "1.0",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 4
