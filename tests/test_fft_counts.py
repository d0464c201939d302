"""Exact transform counts of the hot paths.

The test wraps the `scipy.fft` transforms that the spectral core and the
noise module call, counts the calls by kind and asserts the exact numbers,
including that no complex full-cube fftn/ifftn runs.  The counts depend only
on the code path, not on the machine.  Each comment gives the count of the
earlier full-cube code for comparison.
"""

from collections import Counter

import numpy as np
import pytest
import scipy.fft

from phi4torus.dynamics import SimConfig, step_u
from phi4torus.noise import NoiseStream
from phi4torus.spectral import Field, Grid, cubic, dealiased_product
from phi4torus.trees import TreeEvolver

GRID = Grid(dim=3, n=8)


@pytest.fixture
def counts(monkeypatch):
    calls = Counter()
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        original = getattr(scipy.fft, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    return calls


def cached_field(seed=0):
    """A field whose half-cube is already known, as every field built by
    the library from coefficients is."""
    f = Field(GRID, np.random.default_rng(seed).normal(size=GRID.shape))
    f.half
    return f


def test_cubic(counts):
    f = cached_field()
    counts.clear()
    cubic(f)
    # one pad of the single distinct factor, the product back, the values
    # (earlier: 6 complex transforms on a fresh field)
    assert counts == {"irfftn": 2, "rfftn": 1}


def test_product_of_two_fields(counts):
    a, b = cached_field(1), cached_field(2)
    counts.clear()
    dealiased_product(a, b)
    # earlier: 6 complex transforms
    assert counts == {"irfftn": 3, "rfftn": 1}


def test_step_u_on_previous_output(counts):
    cfg = SimConfig(n=GRID.n, dim=GRID.dim, r=0.05, dt=0.01, horizon=1.0)
    stream = NoiseStream(0)
    u = step_u(cached_field(3), cfg, stream)
    counts.clear()
    step_u(u, cfg, stream)
    # cube 3, Duhamel values 1, noise increment 2 (earlier: 10)
    assert counts == {"irfftn": 4, "rfftn": 2}


def test_tree_step(counts):
    ev = TreeEvolver(GRID, 0.05, NoiseStream(0))
    ev.step(0.05)
    counts.clear()
    ev.step(0.05)
    # W2 3, W3 3, I2 and I3 values 2, v_ref drift 7 and values 1, noise
    # increment 2, X values 1 (earlier: 33 complex transforms)
    assert counts == {"irfftn": 15, "rfftn": 6}


def test_snapshot_shares_wick_powers_with_next_step(counts):
    ev = TreeEvolver(GRID, 0.05, NoiseStream(0))
    ev.step(0.05)
    ev.snapshot(with_resonants=False)
    counts.clear()
    ev.step(0.05)
    # the step reuses W2 and W3 of the snapshot: 21 - 6 transforms
    assert counts == {"irfftn": 11, "rfftn": 4}
