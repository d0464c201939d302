"""Golden outputs of the end-to-end paths at seed 0, and their check.

    PYTHONPATH=src python tests/data/golden/capture.py           # write golden.npz
    PYTHONPATH=src python tests/data/golden/capture.py --check   # compare; exit 1 on a mismatch

The set (all at seed 0):

- `simulate_u` on Grid(3, 16): the `Diagnostics` row of every snapshot as
  it is taken (the weighted norm left out) and the last field;
- one `TreeEvolver` snapshot on Grid(3, 16) with resonants and v_ref, all
  ten components;
- the `coming_down_experiment` norms and fitted constants on Grid(3, 8);
- one `fourth_cumulant` of 200 Birkhoff samples on Grid(3, 8), from the
  `probe_moments` of each sample as it is taken.

A field matches when it lies within 1e-12 of its golden sup norm, a scalar
(each entry of a scalar array) when it lies within 1e-12 of its golden
magnitude; NaN matches NaN.  A change that regenerates this file says so,
with the reason.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from phi4torus.dynamics import Diagnostics, SimConfig, coming_down_experiment, simulate_u
from phi4torus.noise import NoiseStream
from phi4torus.observables import birkhoff_sample, fourth_cumulant, probe_moments
from phi4torus.spectral import Grid
from phi4torus.trees import TreeEvolver

GOLDEN = Path(__file__).resolve().parent / "golden.npz"
TOLERANCE = 1e-12
# entries whose values are fields; every other entry is an array of scalars
FIELDS = ("simulate.last",) + tuple(
    f"trees.{name}" for name in ("X", "W2", "W3", "I2", "I3", "R1", "R2", "R3", "R4", "v_ref")
)


def compute() -> dict[str, np.ndarray]:
    """Every golden entry, computed by the present program."""
    out = {}
    diagnostics, rows = Diagnostics(), []

    def record(t, u):
        rows.append(diagnostics.row(t, u))
        out["simulate.last"] = u.values

    simulate_u(SimConfig(n=16, r=0.05, dt=0.01, horizon=0.5, snapshot_stride=10), record)
    for key, series in zip(("times", "L2", "L8", "besov_proxy"), zip(*rows)):
        out[f"simulate.{key}"] = np.array(series)

    ev = TreeEvolver(Grid(dim=3, n=16), 0.05, NoiseStream(0), track_vref=True)
    ev.burn_in(1.0, 0.05)
    for name, f in ev.snapshot(with_resonants=True).components().items():
        out[f"trees.{name}"] = f.values

    rows = []
    report = coming_down_experiment(SimConfig(n=8, r=0.05, dt=0.01, horizon=0.2), [3.0, 30.0, 300.0],
                                    lambda t, norms: rows.append(norms))
    out["comedown.norms"] = np.array(rows).T
    out["comedown.fitted_C"] = np.array(report["fitted_C"])

    moments = []
    birkhoff_sample(SimConfig(n=8, r=0.05, dt=0.01, horizon=1.0), burn_in=5.0, stride=0.05,
                    count=200, record=lambda t, u: moments.append(probe_moments(u, [0.01])[0]))
    est = fourth_cumulant(moments, 0.01)
    out["cumulant"] = np.array([est.c4, est.stderr, est.second_moment])
    return out


def compare(got: dict, want: dict) -> list[str]:
    """The mismatches of got against want, one line each."""
    errors = [f"{key}: missing" for key in want if key not in got]
    errors += [f"{key}: not in the golden set" for key in got if key not in want]
    for key in sorted(set(got) & set(want)):
        g, w = np.asarray(got[key], float), np.asarray(want[key], float)
        if g.shape != w.shape:
            errors.append(f"{key}: shape {g.shape}, golden {w.shape}")
            continue
        if not np.array_equal(np.isnan(g), np.isnan(w)):
            errors.append(f"{key}: NaN at other entries")
            continue
        gap = np.abs(np.nan_to_num(g) - np.nan_to_num(w))
        scale = np.max(np.abs(np.nan_to_num(w))) if key in FIELDS else np.abs(np.nan_to_num(w))
        bad = gap > TOLERANCE * scale
        if np.any(bad):
            errors.append(f"{key}: {int(bad.sum())} of {bad.size} entries off, "
                          f"largest gap {gap.max():.3e}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the stored goldens instead of writing them")
    args = parser.parse_args(argv)
    got = compute()
    if not args.check:
        np.savez_compressed(GOLDEN, **got)
        print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes, {len(got)} entries)")
        return 0
    with np.load(GOLDEN) as stored:
        errors = compare(got, dict(stored))
    for line in errors:
        print(line)
    print("goldens match" if not errors else f"{len(errors)} goldens differ")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
