"""Exact transform counts of the hot paths.

The test wraps the one-axis transforms of `numpy.fft` that the spectral
core calls (fft, ifft, rfft, irfft), counts the calls by kind and asserts
the exact numbers.  It also wraps the n-d transforms of `numpy.fft` and
`scipy.fft`, which the core must not call: a call to one shows up as a key
of its own, so every pinned count also pins them at zero.  The counts
depend only on the code path, not on the machine.

On GRID (N = 8) products with a three-factor term run on the 16^3 grid
and the others on M = 15, the smallest alias-free size for two factors,
except the levels of a resonant product, on M = 5, 12, 15 and 15; the pins
on Grid(3, 16) and Grid(3, 32) at the end cover the larger grids.

A pad to a product grid fills the padded half-cube and runs ifft passes
over its nonzero rows, then one irfft over the last axis; a truncation runs
one rfft over the last axis, then the fft passes in reverse.  On these 3-d
grids the pass over axis 0 takes two calls, one per block of nonzero axis-1
rows, so one product grid transform is four calls, on 2N and on M alike.
A transform on the N grid is three calls: an inverse runs an ifft over
axes 0 and 1 and an irfft over the last, a forward an rfft and then the two
ffts, and a stacked inverse of several fields (`evaluate`) the same three.
Each test derives its counts from these numbers (`calls`).
Each comment gives the counts of earlier versions for comparison: one
irfftn or rfftn per 2N transform before pruning, the half-cube code that
transformed every field built from coefficients at once, and the
full-cube code.

Points (`transform_counts()["points"]`) sum, over every pass and transformed
axis, the values its 1-d transforms take in or give out on their longer
side.  On GRID a 2N transform takes 4096 + 2 * 16 * 16 * 9 = 8704 points
unpruned and 4096 + 16 * 16 * 5 + 16 * (5 + 4) * 5 = 6096 pruned; a pruned
transform on M = 15 takes 3375 + 15 * 15 * 5 + 15 * 9 * 5 = 5175; a
transform on the 8^3 grid takes 512 + 2 * 8 * 8 * 5 = 1152.
"""

from collections import Counter

import numpy as np
import pytest
import scipy.fft

from phi4torus.dynamics import SimConfig, assemble_z, step_u, step_v
from phi4torus.noise import NoiseStream
from phi4torus.paraproduct import (
    besov_norm,
    estimate_regularity,
    product_decomposition,
    resonants,
)
from phi4torus.spectral import (
    Field,
    Grid,
    cubic,
    dealiased_product,
    grad_dot,
    half_cube,
    transform_counts,
)
from phi4torus.trees import TreeEvolver

GRID = Grid(dim=3, n=8)
PRUNED_2N = 6096
UNPRUNED_2N = 8704
PRUNED_M = 5175
ON_GRID = 1152


def calls(pads=0, truncations=0, inverses=0, forwards=0) -> dict:
    """The numpy.fft calls of `pads` pruned pads and `truncations` pruned
    truncations between GRID and a product grid, and of `inverses` and
    `forwards` transforms on GRID, with the kinds that no call takes left
    out."""
    out = {"irfft": pads + inverses, "ifft": 3 * pads + 2 * inverses,
           "rfft": truncations + forwards, "fft": 3 * truncations + 2 * forwards}
    return {name: count for name, count in out.items() if count}


ONE_AXIS = ("fft", "ifft", "rfft", "irfft")
N_D = ("fftn", "ifftn", "rfftn", "irfftn")


@pytest.fixture
def counts(monkeypatch):
    """Calls by kind: the one-axis numpy.fft transforms under their names,
    every n-d transform of numpy.fft and scipy.fft as "module.name"."""
    calls = Counter()
    wrapped = [(np.fft, name, name) for name in ONE_AXIS]
    wrapped += [(module, name, f"{module.__name__}.{name}")
                for module in (np.fft, scipy.fft) for name in N_D]
    for module, name, key in wrapped:
        original = getattr(module, name)

        def counted(*args, _key=key, _fn=original, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class Points:
    """The points transformed since the last `clear()`."""

    def clear(self):
        self.start = transform_counts()["points"]

    def __call__(self):
        return transform_counts()["points"] - self.start


@pytest.fixture
def points():
    p = Points()
    p.clear()
    return p


def held_levels(grid):
    """How many levels hold a mode of the grid: -1 and 1 .. j_max."""
    return np.unique(half_cube(grid).levels).size


def cached_field(seed=0):
    """A field whose half-cube is already known, as every field built by
    the library from coefficients is."""
    f = Field(GRID, np.random.default_rng(seed).normal(size=GRID.shape))
    f.half
    return f


def test_cubic(counts, points):
    f = cached_field()
    counts.clear()
    points.clear()
    cubic(f)
    # one pad of the single distinct factor and the product back; the
    # values wait for a reader (earlier: irfftn 1 and rfftn 1 unpruned, 3
    # with eager values, 6 complex transforms on a fresh field)
    assert counts == calls(pads=1, truncations=1)
    assert points() == 2 * PRUNED_2N == 12192
    assert points() < 2 * UNPRUNED_2N


def test_product_of_two_fields(counts):
    a, b = cached_field(1), cached_field(2)
    counts.clear()
    dealiased_product(a, b)
    # two pads and the product back, on M (earlier: irfftn 2 and rfftn 1
    # unpruned, 4 with eager values, 6 complex transforms)
    assert counts == calls(pads=2, truncations=1)


def test_step_u_on_previous_output(counts):
    cfg = SimConfig(n=GRID.n, dim=GRID.dim, r=0.05, dt=0.01, horizon=1.0)
    stream = NoiseStream(0)
    u = step_u(cached_field(3), cfg, stream)
    counts.clear()
    step_u(u, cfg, stream)
    # the cube, a pad and a truncation; on the 8^3 grid, the noise
    # coefficients (a forward transform).  The blow-up check bounds sup|u| by the sum of
    # the coefficients' moduli and reads no values (earlier: one more
    # irfftn for the check; irfftn 2 and rfftn 2 unpruned, 6 with eager
    # values, 10 complex)
    assert counts == calls(pads=1, truncations=1, forwards=1)


def test_tree_step(counts, points):
    ev = TreeEvolver(GRID, 0.05, NoiseStream(0))
    ev.step(0.05)
    counts.clear()
    points.clear()
    ev.step(0.05)
    # W2 and W3 on 2N: one pad of X, two truncations.  v_ref drift on M:
    # pads of I3 and W2, their product back, pads of e^{3 I2} and of the
    # inner factor, the drift back.  That is 5 pads and 4 truncations.  On
    # the 8^3 grid: the values of I2 (an inverse), the coefficients of
    # e^{3 I2} and of the noise (two forwards).  (Earlier: 58 320 points with the drift on
    # 2N; irfftn 6 and rfftn 6 unpruned, 21 with eager values and one pad
    # of X per Wick power, 33 complex.)
    assert counts == calls(pads=5, truncations=4, inverses=1, forwards=2)
    assert points() == 3 * PRUNED_2N + 6 * PRUNED_M + 3 * ON_GRID == 52794
    assert points() < 9 * UNPRUNED_2N + 3 * ON_GRID  # 81792


def test_snapshot_shares_wick_powers_with_next_step(counts):
    ev = TreeEvolver(GRID, 0.05, NoiseStream(0))
    ev.step(0.05)
    ev.snapshot(with_resonants=False)
    counts.clear()
    ev.step(0.05)
    # the step reuses W2 and W3 of the snapshot, one pad and two
    # truncations fewer: 4 pads and 2 truncations (earlier: irfftn 5 and
    # rfftn 4 unpruned, 15 with eager values)
    assert counts == calls(pads=4, truncations=2, inverses=1, forwards=2)


def test_snapshot_resonants_share_blocks(counts):
    ev = TreeEvolver(GRID, 0.05, NoiseStream(0))
    ev.step(0.05)
    ev.wick_powers()
    counts.clear()
    before = transform_counts()
    ev.snapshot(with_resonants=True)
    after = transform_counts()
    # R1 = I3 o X, R2 = I2 o W2 and R4 = I3 o W2 pad the blocks of I3 and
    # I2 and the near-diagonal sums of X and W2 once each, one pad per
    # level that holds a mode, and truncate three products per level, each
    # level on its own grid; R3 = |grad I2|^2 pads three gradients and
    # truncates once.  Level 0 is empty and is never padded, so the levels
    # are -1, 1 .. j_max.  That is 32 logical transforms: 23 when the
    # levels shared one grid and one truncation per product, 27 when level
    # 0 was padded too, and 37 when R1 and R4 each padded the blocks of
    # I3, and R2 and R4 the near sums of W2.
    levels = held_levels(GRID)
    assert levels == 4
    assert counts == calls(pads=4 * levels + 3, truncations=3 * levels + 1)
    assert after["transforms"] - before["transforms"] == 32
    assert after["passes"] - before["passes"] == sum(counts.values())


def test_grad_dot(counts):
    a = cached_field(4)
    counts.clear()
    grad_dot(a, a)
    # the three gradients are built from coefficients and never read: one
    # pad each, and one truncation of the sum (earlier: irfftn 3 and rfftn
    # 1 unpruned)
    assert counts == calls(pads=3, truncations=1)


def test_resonant(counts):
    a, b = cached_field(5), cached_field(6)
    counts.clear()
    resonants((a, b))
    # one pad per block of a and per near-diagonal sum of blocks of b at
    # each level that holds a mode, -1 and 1 .. j_max (level 0 is empty and
    # is never padded), and one truncation per level, each on the level's
    # own grid (earlier: one truncation of the sum of every level on M; one
    # more pad of each for level 0; irfftn 2 * (j_max + 2) and rfftn 1
    # unpruned)
    assert counts == calls(pads=2 * held_levels(GRID), truncations=held_levels(GRID))


@pytest.mark.parametrize("n, held", [(8, 4), (32, 6)])
def test_besov_norm(counts, n, held):
    grid = Grid(dim=3, n=n)
    f = Field(grid, np.random.default_rng(9).normal(size=grid.shape))
    f.half
    counts.clear()
    besov_norm(f, -0.55)
    # one inverse transform per level that holds a mode, -1 and 1 .. j_max;
    # the empty level 0 weighs 0.0 and is never built (earlier: one more
    # transform, of zeros)
    assert held_levels(grid) == held
    assert counts == calls(inverses=held)


def test_estimate_regularity_transforms_nothing(counts):
    # the level energies come from the coefficients by Parseval (earlier:
    # one irfftn per sample and level of the window, 16 * 4 here)
    grid = Grid(dim=3, n=32)
    rng = np.random.default_rng(10)
    samples = [Field.from_half(grid, Field(grid, rng.normal(size=grid.shape)).half)
               for _ in range(16)]
    counts.clear()
    before = transform_counts()
    fit = estimate_regularity(samples, j_min=1)
    after = transform_counts()
    assert fit.levels == [1, 2, 3, 4]
    assert counts == {}
    assert after == before


def test_hot_paths_call_one_axis_transforms_only(counts):
    # a tree step and a snapshot with resonants, the Z assembly, a v step
    # and a u step: every call is a one-axis numpy.fft transform, and no
    # n-d transform of numpy.fft or scipy.fft is called
    cfg = SimConfig(n=GRID.n, dim=GRID.dim, r=0.05, dt=0.01, horizon=1.0)
    ev = TreeEvolver(GRID, cfg.r, NoiseStream(0), track_vref=True)
    ev.step(0.05)
    z = assemble_z(ev.snapshot(with_resonants=True))
    step_v(cached_field(11), z, cfg)
    step_u(cached_field(12), cfg, NoiseStream(1))
    assert set(counts) == set(ONE_AXIS)


def test_field_from_coefficients_is_not_transformed_until_read(counts):
    half = cached_field(7).half * 0.5
    counts.clear()
    f = Field.from_half(GRID, half)
    g = 2.0 * (f - f) + f
    -g
    g.half
    assert counts == {}
    g.values
    assert counts == calls(inverses=1)


def test_mean_of_field_from_coefficients_runs_no_transform(counts):
    f = Field.from_half(GRID, cached_field(8).half * 0.5)
    counts.clear()
    mean = f.mean()
    assert counts == {}
    # relative to the field's sup norm: the mean of a random field is
    # near zero, and summing the values rounds at the scale of the values
    assert abs(mean - f.values.mean()) <= 1e-15 * np.abs(f.values).max()


# A pruned transform between an N grid and M points per axis takes
# m^3 + m * (N + 1) * (N/2 + 1) + m * m * (N/2 + 1) points.  On Grid(3, 16)
# the two-factor products run on M = 25 < 2N = 32: 25 075 points on the
# 25^3 grid and 46 880 on the 32^3 grid; a transform on the 16^3 grid takes
# 4096 + 2 * 16 * 16 * 9 = 8704.  On Grid(3, 32), M = 50 < 2N = 64: 195 550
# points on the 50^3 grid and 367 680 on the 64^3 grid; a transform on the
# 32^3 grid takes 32768 + 2 * 32 * 32 * 17 = 67 584.
GRID_16 = Grid(dim=3, n=16)
M_16, TWO_N_16, ON_GRID_16 = 25_075, 46_880, 8704
GRID_32 = Grid(dim=3, n=32)
M_32, TWO_N_32, ON_GRID_32 = 195_550, 367_680, 67_584


def counted(call) -> dict:
    before = transform_counts()
    call()
    after = transform_counts()
    return {key: after[key] - before[key] for key in after}


def test_tree_step_at_n16():
    ev = TreeEvolver(GRID_16, 0.05, NoiseStream(0))
    ev.step(0.05)
    # as at N = 32 below (on M = 30: 404 892 points)
    assert counted(lambda: ev.step(0.05)) == {
        "transforms": 12, "passes": 45,
        "points": 3 * TWO_N_16 + 6 * M_16 + 3 * ON_GRID_16}
    assert 3 * TWO_N_16 + 6 * M_16 + 3 * ON_GRID_16 == 317_202


def test_assemble_z_at_n16():
    ev = TreeEvolver(GRID_16, 0.05, NoiseStream(0))
    ev.step(0.05)
    trees = ev.snapshot(with_resonants=False)
    # |grad I2|^2 on M: three pads and a truncation, 16 passes; on the 16^3
    # grid the values of X, I3 and v_ref, of I2's three and v_ref's three
    # gradients and of |grad I2|^2 (I2 already has values, and W2 is not
    # read), ten inverses stacked into three passes (earlier: 26 passes,
    # one scipy irfftn each)
    assert counted(lambda: assemble_z(trees)) == {
        "transforms": 14, "passes": 19, "points": 4 * M_16 + 10 * ON_GRID_16}
    assert 4 * M_16 + 10 * ON_GRID_16 == 187_340


def test_tree_step_at_n32():
    ev = TreeEvolver(GRID_32, 0.05, NoiseStream(0))
    ev.step(0.05)
    # W2 and W3 on 2N: one pad and two truncations; the v_ref drift on M:
    # four pads and two truncations; 36 passes.  Three transforms on the
    # 32^3 grid, three passes each (earlier: one scipy call each, 39 passes
    # in all; every product on 2N: 3 511 872 points)
    assert counted(lambda: ev.step(0.05)) == {
        "transforms": 12, "passes": 45,
        "points": 3 * TWO_N_32 + 6 * M_32 + 3 * ON_GRID_32}
    assert 3 * TWO_N_32 + 6 * M_32 + 3 * ON_GRID_32 == 2_479_092


def pruned(m: int, k: int) -> int:
    """The points of a pruned transform between Grid(3, N) and m points per
    axis for the modes |k_a| <= k: m^3 real values, m (2k + 1)(k + 1) in
    the pass over the first axis and m^2 (k + 1) in the pass over the
    second (k = N/2 gives the formula above)."""
    return m**3 + m * (2 * k + 1) * (k + 1) + m * m * (k + 1)


def test_snapshot_with_resonants_at_n32():
    ev = TreeEvolver(GRID_32, 0.05, NoiseStream(0))
    ev.step(0.05)
    ev.wick_powers()
    # six levels hold a mode.  At level k the blocks of I3 and I2 reach
    # K1 = min(2^k, 16) per axis and the near sums of X and W2 reach
    # K2 = min(2^(k+1), 16): two pads of each and three truncations to
    # K3 = min(K1 + K2, 16), on M = 5, 15, 25, 45, 50 and 50.  R3 takes
    # three pads and a truncation on M = 50.  46 transforms, 184 passes
    # (31 transforms, 124 passes and 31 * M_32 = 6 062 050 points with
    # every level on M = 50; every product on 2N: 11 398 080 points)
    levels = [(5, 1, 1, 2), (15, 2, 4, 6), (25, 4, 8, 12), (45, 8, 16, 16),
              (50, 16, 16, 16), (50, 16, 16, 16)]
    points = sum(2 * pruned(m, k1) + 2 * pruned(m, k2) + 3 * pruned(m, k3)
                 for m, k1, k2, k3 in levels) + 4 * M_32
    assert pruned(50, 16) == M_32
    assert counted(lambda: ev.snapshot(with_resonants=True)) == {
        "transforms": 46, "passes": 184, "points": points}
    assert points == 4_731_360


def test_product_decomposition(counts):
    a, b = cached_field(13), cached_field(14)
    counts.clear()
    got = counted(lambda: product_decomposition(a, b))
    # a<b and a>b each form one sum of S_{k-2} x Delta_k y over the levels
    # k = 1 .. j_max that hold a mode: a pad of each distinct band and one
    # truncation, on the grid of the widest term, S_1 x (reach 2) times
    # Delta_3 y (reach 4): M = 12.  Level 0 holds no mode, so S_{-1} and
    # S_0 are one band, padded once: the low-pass bands reach 1 and 2, the
    # blocks 2, 4 and 4.  a o b is formed level by level as in
    # test_resonant, on M = 5, 12, 15 and 15 (earlier: S_0 padded apart
    # from S_{-1}, 26 transforms, 104 passes and 75 691 points; every band
    # of a<b and a>b built as a field and padded whole on M = 15, 14 *
    # PRUNED_M = 72 450 points for the two)
    levels = held_levels(GRID)
    high = levels - 1
    assert counts == calls(pads=2 * (2 * high - 1) + 2 * levels, truncations=2 + levels)
    para = 2 * (pruned(12, 1) + 2 * pruned(12, 2) + 2 * pruned(12, 4) + pruned(12, 4))
    resonant = sum(pruned(m, k1) + pruned(m, k2) + pruned(m, k3)
                   for m, k1, k2, k3 in [(5, 1, 1, 2), (12, 2, 4, 4), (15, 4, 4, 4),
                                         (15, 4, 4, 4)])
    assert got == {"transforms": 4 * high + 3 * levels,
                   "passes": sum(counts.values()), "points": para + resonant}
    assert got == {"transforms": 24, "passes": 96, "points": 71_515}
    assert para == 31_464 and resonant == 40_051 and pruned(12, 1) == 2_088
    assert 14 * PRUNED_M == 72_450
