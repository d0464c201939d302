"""Output checks for the benchmark's workloads.

Each check reads what one `phi4` run left in its output directory and
compares it with `reference` computations or with properties the method
must have.  None compares against a stored copy of earlier output.  A check
returns a list of failure messages; an empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

# Relative tolerance for quantities the program and the reference compute
# by the same arithmetic in a different order; observed gaps are below 1e-15.
RTOL = 1e-9
# A snapshot mean of X^2 further than this many standard errors from the
# lattice sum fails; the chance of that on correct output is below 1e-4.
X2_SIGMAS = 4.0


def _close(actual: np.ndarray, expected: np.ndarray, rtol: float = RTOL) -> bool:
    scale = max(1.0, float(np.abs(expected).max()))
    return float(np.abs(actual - expected).max()) <= rtol * scale


def check_manifest(outdir: Path) -> list[str]:
    """Every sha256 in manifest.json matches the bytes on disk, and every
    output file on disk is listed."""
    manifest_path = outdir / "manifest.json"
    if not manifest_path.exists():
        return [f"{outdir}: no manifest.json"]
    outputs = json.loads(manifest_path.read_text())["outputs"]
    errors = []
    for name, digest in outputs.items():
        path = outdir / name
        if not path.exists():
            errors.append(f"manifest lists missing file {name}")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            errors.append(f"sha256 of {name} does not match the manifest")
    unlisted = {p.name for p in outdir.iterdir()} - set(outputs) - {"manifest.json"}
    if unlisted:
        errors.append(f"files missing from the manifest: {sorted(unlisted)}")
    if not outputs:
        errors.append("manifest lists no outputs")
    return errors


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]])


def check_simulate(outdir: Path, p: dict) -> list[str]:
    """Checkpoints, diagnostics.csv and a re-integrated last interval."""
    from phi4torus.noise import NoiseStream

    errors = []
    header, table = _read_csv(outdir / "diagnostics.csv")
    cols = {name: table[:, i] for i, name in enumerate(header)}
    n_snaps = -(-int(round(p["horizon"] / p["dt"])) // p["snapshot_stride"]) + 1
    if len(table) != n_snaps:
        errors.append(f"diagnostics.csv has {len(table)} rows, expected {n_snaps}")
    # weighted_norm is NaN at t = 0 by definition (it needs t > 0).
    finite = np.isfinite(table)
    finite[cols["t"] == 0, header.index("weighted_norm")] = True
    if not finite.all():
        errors.append("diagnostics.csv holds non-finite values")

    paths = sorted(outdir.glob("u_t*.field"), key=lambda q: float(q.stem[3:]))
    times = [float(q.stem[3:]) for q in paths]
    if len(paths) != n_snaps or not np.allclose(times, cols["t"], rtol=0, atol=5e-7):
        return errors + [f"checkpoint times {times} do not match the CSV"]
    period = p["period"]
    fields = [ref.read_field(q)[1] for q in paths]
    if not all(np.isfinite(u).all() for u in fields):
        errors.append("a checkpoint holds non-finite values")
    vol = period**3
    l2 = np.array([math.sqrt((u**2).mean() * vol) for u in fields])
    l8 = np.array([((np.abs(u) ** 8).mean() * vol) ** 0.125 for u in fields])
    if not _close(l2, cols["L2"]):
        errors.append("L2 column does not match the checkpoints")
    if not _close(l8, cols["L8"]):
        errors.append("L8 column does not match the checkpoints")
    proxy = np.array([ref.besov_inf(u, -0.55, period) for u in fields])
    if not _close(proxy, cols["besov_proxy"]):
        errors.append("besov_proxy column does not match the checkpoints")
    wn = ref.weighted_norm(cols["t"], fields, 0.5, 0.25, period)
    if not _close(np.array([wn]), cols["weighted_norm"][-1:]):
        errors.append(f"last weighted_norm {cols['weighted_norm'][-1]!r} != reference {wn!r}")

    # Re-integrate the last checkpoint interval; the step counter of the
    # noise stream is the global step index.
    stride = p["snapshot_stride"]
    n_steps = int(round(p["horizon"] / p["dt"]))
    first = n_steps - ((n_steps - 1) % stride + 1)
    stream = NoiseStream(p["seed"], p["stream"])
    u = fields[-2]
    for k in range(first, n_steps):
        g = stream.normals(u.shape, step=k)
        u = ref.u_step(u, g, period, p["r"], p["dt"], p["coupling"])
    if not _close(u, fields[-1], rtol=1e-8):
        gap = float(np.abs(u - fields[-1]).max())
        errors.append(f"re-integrated last interval misses the checkpoint by {gap:.3g}")
    return errors


TREE_NAMES = ("X", "W2", "W3", "I2", "I3", "R1", "R2", "R3", "R4", "v_ref")


def check_trees(outdir: Path, p: dict) -> list[str]:
    """Wick powers, resonant products and the free-field statistics of X."""
    errors = []
    period, r = p["period"], p["r"]
    a, b = ref.a_r(r), ref.b_r(r)
    x2_means = []
    for i in range(p["snapshots"]):
        try:
            f = {name: ref.read_field(outdir / f"tree_{name}_{i}.field")[1]
                 for name in TREE_NAMES}
        except (OSError, ValueError) as exc:
            errors.append(f"snapshot {i}: {exc}")
            continue
        bad = [name for name, v in f.items() if not np.isfinite(v).all()]
        if bad:
            errors.append(f"snapshot {i}: non-finite {bad}")
            continue
        X, W2, I2, I3 = f["X"], f["W2"], f["I2"], f["I3"]
        expected = {
            "W2": ref.dealiased_product(X, X) - a,
            "W3": ref.dealiased_product(X, X, X) - 3.0 * a * X,
            "R1": ref.resonant(I3, X, period),
            "R2": ref.resonant(I2, W2, period) - b / 3.0,
            "R3": ref.grad_squared(I2, period) - b / 3.0,
            "R4": ref.resonant(I3, W2, period) - b * X,
        }
        for name, want in expected.items():
            if not _close(f[name], want):
                gap = float(np.abs(f[name] - want).max())
                errors.append(f"snapshot {i}: {name} misses the reference by {gap:.3g}")
        x2_means.append(float((X**2).mean()))
    if x2_means:
        mean, sd = ref.free_field_x2(p["n"], period, r)
        se = sd / math.sqrt(len(x2_means))
        z = (float(np.mean(x2_means)) - mean) / se
        if abs(z) > X2_SIGMAS:
            errors.append(f"mean X^2 is {z:+.2f} standard errors from the lattice sum {mean:.6g}")
    return errors


def check_comedown(outdir: Path, p: dict) -> list[str]:
    """The coming-down bound, its fit and the initial scaling."""
    errors = []
    summary = json.loads((outdir / "comedown.json").read_text())
    header, table = _read_csv(outdir / "comedown.csv")
    t, norms = table[:, 0], table[:, 1:]
    sizes = [float(s) for s in p["sizes"].split(",")]
    if norms.shape[1] != len(sizes):
        return [f"comedown.csv has {norms.shape[1]} runs, expected {len(sizes)}"]
    if any(summary["blow_up"]) or not np.isfinite(norms).all():
        errors.append(f"blow-up: {summary['blow_up']}")
    if not summary.get("spread_at_1.0", math.inf) <= 2.0:
        errors.append(f"spread_at_1.0 = {summary.get('spread_at_1.0')} exceeds 2")
    C = np.array(summary["fitted_C"], dtype=float)
    if not (np.isfinite(C).all() and (C > 0).all() and (C < 2).all()):
        errors.append(f"fitted C {C.tolist()} not all in (0, 2)")
    window = t >= 0.05
    envelope = np.maximum(t[window] ** -0.5, 1.0)
    ratio = norms[window] / envelope[:, None]
    if (ratio > C[None, :] * (1 + 1e-12)).any():
        errors.append("C max(t^-1/2, 1) does not dominate the CSV norms")
    if not _close(ratio.max(axis=0), C, rtol=1e-12):
        errors.append("fitted C disagrees with the CSV norms")
    scale = norms[0] / norms[0, 0]
    if not _close(scale, np.array(sizes) / sizes[0], rtol=1e-12):
        errors.append(f"t=0 norms scale as {scale.tolist()}, not as the sizes")
    return errors


CHECKS = {"simulate": check_simulate, "trees": check_trees, "comedown": check_comedown}


def check_outputs(workload: str, outdir: Path, params: dict) -> list[str]:
    return check_manifest(outdir) + CHECKS[workload](outdir, params)
