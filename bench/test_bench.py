"""Tests of the benchmark itself: every output check passes on real output
and fails on a deliberately corrupted copy, and traced runs count the same.

Run from the repository root with `python3 -m pytest bench -q`.  The
workloads are shrunk to small grids so the whole file runs in about a minute.
"""

from __future__ import annotations

import csv
import json
import shutil

import numpy as np
import pytest

import checks
import reference as ref
import run
from tracing import Tracer

SEED = 3
SMALL = {
    "simulate": {**run.WORKLOADS["simulate"],
                 "params": {**run.WORKLOADS["simulate"]["params"],
                            "n": 16, "horizon": 0.3}},
    "trees": {**run.WORKLOADS["trees"],
              "params": {**run.WORKLOADS["trees"]["params"], "n": 16}},
    "comedown": {**run.WORKLOADS["comedown"],
                 "params": {**run.WORKLOADS["comedown"]["params"],
                            "n": 8, "dt": 0.01}},
}


@pytest.fixture(scope="module")
def cli():
    return run.load_program()


@pytest.fixture(scope="module")
def outputs(cli, tmp_path_factory):
    """One small run per workload, made once; tests corrupt copies."""
    dirs = {}
    for name, spec in SMALL.items():
        d = tmp_path_factory.mktemp(name)
        run.run_once(cli, spec, SEED, d)
        dirs[name] = d
    return dirs


def copy_of(outputs, name, tmp_path):
    dst = tmp_path / name
    shutil.copytree(outputs[name], dst)
    return dst


def check(name, d, seed=SEED):
    return checks.check_outputs(name, d, run.check_params(SMALL[name], seed))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_real_outputs_pass(outputs, name):
    assert check(name, outputs[name]) == []


def test_perturbed_r1_fails(outputs, tmp_path):
    d = copy_of(outputs, "trees", tmp_path)
    path = d / "tree_R1_1.field"
    raw = bytearray(path.read_bytes())
    values = np.frombuffer(raw, dtype="<f8", offset=ref.HEADER.size).copy()
    values[123] += 1e-6 * np.abs(values).max()
    raw[ref.HEADER.size:] = values.tobytes()
    path.write_bytes(bytes(raw))
    errors = checks.check_trees(d, run.check_params(SMALL["trees"], SEED))
    assert len(errors) == 1 and "R1" in errors[0]


def test_flipped_checksum_fails(outputs, tmp_path):
    d = copy_of(outputs, "comedown", tmp_path)
    manifest = json.loads((d / "manifest.json").read_text())
    digest = manifest["outputs"]["comedown.csv"]
    manifest["outputs"]["comedown.csv"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    (d / "manifest.json").write_text(json.dumps(manifest))
    errors = check("comedown", d)
    assert len(errors) == 1 and "sha256 of comedown.csv" in errors[0]


def test_wrong_weighted_norm_row_fails(outputs, tmp_path):
    d = copy_of(outputs, "simulate", tmp_path)
    path = d / "diagnostics.csv"
    rows = list(csv.reader(path.open(newline="")))
    rows[-1][-1] = repr(float(rows[-1][-1]) * (1 + 1e-6))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    errors = checks.check_simulate(d, run.check_params(SMALL["simulate"], SEED))
    assert len(errors) == 1 and "weighted_norm" in errors[0]


def test_wrong_seed_fails_reintegration(outputs):
    errors = checks.check_simulate(outputs["simulate"],
                                   run.check_params(SMALL["simulate"], SEED + 1))
    assert len(errors) == 1 and "re-integrated" in errors[0]


@pytest.mark.parametrize("name", ["trees", "comedown"])
def test_traced_counts_repeat(cli, tmp_path, name):
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            wall, _ = run.run_once(cli, SMALL[name], SEED, tmp_path / "out")
        m = run.layer_metrics(tracer, wall, tmp_path / "out")
        counts.append({k: v for k, v in m.items() if run.unit_of(k) != "s"})
    assert counts[0] == counts[1]
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {d["name"] for d in declared} == set(m) - {"trace.wall_s"} | {"trace.overhead_s"}
    assert counts[0]["spectral.fft.calls"] > 0
    assert counts[0]["trees.step.calls"] > 0
