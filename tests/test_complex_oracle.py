"""The half-cube spectral core against the full-cube complex-FFT references.

Every operation is compared on grids of dimension 1, 2 and 3 at N = 8 and
16.  Agreement is required to 1e-12 relative to the reference's sup norm,
which is rounding level for these sizes; a mistake in the Nyquist handling
shows up at order one, since random fields carry O(1) Nyquist coefficients.
"""

import numpy as np
import pytest

from phi4torus.dynamics import SimConfig, counterterm, step_u
from phi4torus.noise import NoiseStream, ou_noise_field, sample_stationary
from phi4torus.paraproduct import resonants
from phi4torus.renorm import a_closed, b_closed
from phi4torus.spectral import (
    Field,
    Grid,
    apply_multiplier,
    cubic,
    dealiased_product,
    duhamel_step,
    grad_dot,
    gradient,
)
from phi4torus.trees import TreeEvolver

from oracles import (
    full_colored_gaussian,
    full_dealiased_product,
    full_duhamel,
    full_grad_dot,
    full_gradient,
    full_multiplier,
    full_ou_variance,
    full_resonant,
    full_step_u,
    full_tree_run,
    philox_normals,
)

RTOL = 1e-12
GRIDS = [Grid(dim, n) for dim in (1, 2, 3) for n in (8, 16)]
IDS = [f"d{g.dim}n{g.n}" for g in GRIDS]


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= RTOL * scale, (
        f"relative error {np.abs(got - want).max() / scale:.3g}"
    )


def random_fields(grid, count, seed):
    rng = np.random.default_rng(1000 * grid.dim + grid.n + seed)
    return [Field(grid, rng.normal(size=grid.shape)) for _ in range(count)]


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
class TestOperations:
    def test_cubic(self, grid):
        (a,) = random_fields(grid, 1, 0)
        assert_close(cubic(a).values, full_dealiased_product(a.values, a.values, a.values))

    def test_product_of_equal_factors(self, grid):
        (a,) = random_fields(grid, 1, 1)
        assert_close(dealiased_product(a, a).values,
                     full_dealiased_product(a.values, a.values))

    def test_product_of_distinct_factors(self, grid):
        a, b, c = random_fields(grid, 3, 2)
        assert_close(dealiased_product(a, b).values,
                     full_dealiased_product(a.values, b.values))
        assert_close(dealiased_product(a, b, c).values,
                     full_dealiased_product(a.values, b.values, c.values))
        assert_close(dealiased_product(a, b, a).values,
                     full_dealiased_product(a.values, b.values, a.values))

    def test_gradient(self, grid):
        (a,) = random_fields(grid, 1, 3)
        for got, want in zip(gradient(a), full_gradient(a.values, grid.period)):
            assert_close(got.values, want)

    def test_grad_dot(self, grid):
        a, b = random_fields(grid, 2, 4)
        assert_close(grad_dot(a, b).values, full_grad_dot(a.values, b.values, grid.period))

    def test_resonant(self, grid):
        a, b = random_fields(grid, 2, 5)
        assert_close(resonants((a, b))[0].values, full_resonant(a.values, b.values, grid.period))

    def test_duhamel_step(self, grid):
        u, f = random_fields(grid, 2, 6)
        assert_close(duhamel_step(u, f, 0.07).values,
                     full_duhamel(u.values, f.values, 0.07, grid.period))

    def test_apply_multiplier(self, grid):
        (u,) = random_fields(grid, 1, 7)
        for symbol in (lambda lam: np.exp(-0.05 * lam), lambda lam: (1.0 - lam) / lam):
            assert_close(apply_multiplier(u, symbol).values,
                         full_multiplier(u.values, symbol, grid.period))

    def test_half_cube_round_trip(self, grid):
        (u,) = random_fields(grid, 1, 8)
        assert_close(Field.from_half(grid, u.half).values, u.values)
        assert_close(u.half, np.fft.rfftn(u.values) / grid.cell_count)

    def test_noise_contract(self, grid):
        """Pinned (seed, stream, step) draws give the same realizations."""
        r, dt = 0.02, 0.05
        got = sample_stationary(grid, r, NoiseStream(11, stream=3))
        g0 = philox_normals(11, 3, 0, grid.shape)
        assert_close(got.values,
                     full_colored_gaussian(g0, full_ou_variance(grid.n, grid.dim, grid.period, r)))
        g = NoiseStream(11, stream=3).normals(grid.shape, step=5)
        np.testing.assert_array_equal(g, philox_normals(11, 3, 5, grid.shape))
        want = full_colored_gaussian(g, full_ou_variance(grid.n, grid.dim, grid.period, r, dt))
        assert_close(ou_noise_field(grid, dt, r, g).values, want)

    def test_twenty_u_steps(self, grid):
        cfg = SimConfig(n=grid.n, dim=grid.dim, r=0.05, dt=0.01, horizon=0.2, seed=4)
        stream = cfg.noise()
        ct = counterterm(cfg)
        (u,) = random_fields(grid, 1, 9)
        want = u.values
        for step in range(20):
            u = step_u(u, cfg, stream, time=step * cfg.dt)
            want = full_step_u(want, ct, cfg.dt, cfg.r,
                               philox_normals(cfg.seed, cfg.stream, step, grid.shape),
                               grid.period)
        assert_close(u.values, want)

    def test_tree_steps_and_snapshot(self, grid):
        r, dt = 0.05, 0.05
        ev = TreeEvolver(grid, r, NoiseStream(8, stream=1))
        for _ in range(5):
            ev.step(dt)
        snap = ev.snapshot(with_resonants=True)
        want = full_tree_run(grid.n, grid.dim, grid.period, r, a_closed(r), b_closed(r),
                             dt, 5, seed=8, stream=1)
        got = snap.components()
        assert set(got) == set(want)
        for name, field in got.items():
            assert_close(field.values, want[name])
