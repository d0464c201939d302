"""Exact transform counts of the hot paths.

The test wraps the `scipy.fft` transforms that the spectral core and the
noise module call, counts the calls by kind and asserts the exact numbers,
including that no complex full-cube fftn/ifftn runs.  The counts depend only
on the code path, not on the machine.  Each comment gives the counts of
earlier versions for comparison: the full-cube code, and the half-cube code
that transformed every field built from coefficients at once.
"""

from collections import Counter

import numpy as np
import pytest
import scipy.fft

from phi4torus.dynamics import SimConfig, step_u
from phi4torus.noise import NoiseStream
from phi4torus.paraproduct import BlockDecomposition, resonant
from phi4torus.spectral import Field, Grid, cubic, dealiased_product, grad_dot
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
    # one pad of the single distinct factor and the product back; the
    # values wait for a reader (earlier: 3 with eager values, 6 complex
    # transforms on a fresh field)
    assert counts == {"irfftn": 1, "rfftn": 1}


def test_product_of_two_fields(counts):
    a, b = cached_field(1), cached_field(2)
    counts.clear()
    dealiased_product(a, b)
    # two pads and the product back (earlier: 4 with eager values, 6
    # complex transforms)
    assert counts == {"irfftn": 2, "rfftn": 1}


def test_step_u_on_previous_output(counts):
    cfg = SimConfig(n=GRID.n, dim=GRID.dim, r=0.05, dt=0.01, horizon=1.0)
    stream = NoiseStream(0)
    u = step_u(cached_field(3), cfg, stream)
    counts.clear()
    step_u(u, cfg, stream)
    # cube 2, noise coefficients 1, the values of the new u for the
    # blow-up check 1 (earlier: 6 with eager values, 10 complex)
    assert counts == {"irfftn": 2, "rfftn": 2}


def test_tree_step(counts):
    ev = TreeEvolver(GRID, 0.05, NoiseStream(0))
    ev.step(0.05)
    counts.clear()
    ev.step(0.05)
    # W2 and W3 from one pad of X 3, v_ref drift 8 (I2 values, pads of I3
    # and W2, their product back, e^{3 I2} coefficients and pad, the pad of
    # the inner factor, the drift back), noise coefficients 1 (earlier: 21
    # with eager values and one pad of X per Wick power, 33 complex)
    assert counts == {"irfftn": 6, "rfftn": 6}


def test_snapshot_shares_wick_powers_with_next_step(counts):
    ev = TreeEvolver(GRID, 0.05, NoiseStream(0))
    ev.step(0.05)
    ev.snapshot(with_resonants=False)
    counts.clear()
    ev.step(0.05)
    # the step reuses W2 and W3 of the snapshot: 12 - 3 transforms
    # (earlier: 15 with eager values)
    assert counts == {"irfftn": 5, "rfftn": 4}


def test_grad_dot(counts):
    a = cached_field(4)
    counts.clear()
    grad_dot(a, a)
    # the three gradients are built from coefficients and never read: one
    # pad each, and one truncation of the sum
    assert counts == {"irfftn": 3, "rfftn": 1}


def test_resonant(counts):
    a, b = cached_field(5), cached_field(6)
    counts.clear()
    resonant(a, b)
    # one pad per block of a and per near-diagonal sum of blocks of b, one
    # truncation of the sum
    levels = BlockDecomposition(GRID).j_max + 2
    assert counts == {"irfftn": 2 * levels, "rfftn": 1}


def test_field_from_coefficients_is_not_transformed_until_read(counts):
    half = cached_field(7).half * 0.5
    counts.clear()
    f = Field.from_half(GRID, half)
    g = 2.0 * (f - f) + f
    -g
    g.half
    assert counts == {}
    g.values
    assert counts == {"irfftn": 1}
