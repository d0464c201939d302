import math

import numpy as np
import pytest

from phi4torus.noise import (
    NoiseStream,
    ou_amplitude,
    ou_noise_field,
    ou_transition,
    sample_stationary,
)
from phi4torus.spectral import Field, Grid, half_cube, semigroup

from oracles import full_eigenvalues


class TestNoiseStream:
    def test_deterministic_by_seed(self):
        a = NoiseStream(3, stream=1).normals((4, 4))
        b = NoiseStream(3, stream=1).normals((4, 4))
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = NoiseStream(3, stream=1).normals((64,))
        b = NoiseStream(3, stream=2).normals((64,))
        assert not np.allclose(a, b)

    def test_counter_advances(self):
        s = NoiseStream(0)
        a = s.normals((8,))
        b = s.normals((8,))
        assert not np.allclose(a, b)

    def test_explicit_step_is_reproducible(self):
        s = NoiseStream(5)
        s.normals((8,))  # advance
        a = s.normals((8,), step=0)
        b = NoiseStream(5).normals((8,), step=0)
        np.testing.assert_array_equal(a, b)

    def test_child_independent(self):
        s = NoiseStream(5)
        a = s.child(7).normals((64,))
        b = s.child(8).normals((64,))
        assert not np.allclose(a, b)


class TestStationaryLaw:
    def test_mode_variances(self):
        """Spectral variances of the stationary sample match
        e^{-2 r lam} / (lam L^d) within 4 sigma, mode by mode."""
        grid = Grid(dim=2, n=8)
        r = 0.05
        n_samples = 400
        lam = half_cube(grid).eigenvalues
        acc = np.zeros(lam.shape)
        for i in range(n_samples):
            f = sample_stationary(grid, r, NoiseStream(100 + i))
            acc += np.abs(f.half) ** 2
        acc /= n_samples
        want = np.exp(-2.0 * r * lam) / (lam * grid.volume)
        # complex modes: Var(|c|^2)/n ~ want^2/n; real modes twice that
        tol = 4.0 * want * math.sqrt(2.0 / n_samples)
        assert np.all(np.abs(acc - want) < tol + 1e-15)

    def test_field_variance_equals_mode_sum(self):
        grid = Grid(dim=3, n=8)
        r = 0.1
        acc = 0.0
        n_samples = 200
        for i in range(n_samples):
            f = sample_stationary(grid, r, NoiseStream(i))
            acc += (f.values**2).mean()
        acc /= n_samples
        lam = full_eigenvalues(grid.n, grid.dim, grid.period)
        want = (np.exp(-2.0 * r * lam) / lam).sum() / grid.volume
        assert acc == pytest.approx(want, rel=0.05)

    def test_samples_are_real_and_centered(self):
        grid = Grid(dim=2, n=16)
        f = sample_stationary(grid, 0.01, NoiseStream(1))
        assert f.values.dtype == np.float64
        assert abs(f.mean()) < 0.5  # zero-mode fluctuation scale ~ 1/L


class TestOUStep:
    def test_increment_coefficients(self):
        """The cached amplitudes are read-only and equal the written-out
        variances, times N^d under the root, to the bit; dt = inf gives the
        stationary law."""
        grid = Grid(dim=1, n=8)
        dt, r = 0.3, 0.02
        lam = half_cube(grid).eigenvalues
        decay = np.exp(-dt * lam)
        var = np.exp(-2.0 * r * lam) * (1.0 - decay**2) / (lam * grid.volume)
        stationary = np.exp(-2.0 * r * lam) / (lam * grid.volume)
        for got, want in ((ou_amplitude(grid, dt, r), var),
                          (ou_amplitude(grid, math.inf, r), stationary)):
            np.testing.assert_array_equal(got, np.sqrt(want * grid.cell_count))
            assert not got.flags.writeable
        assert ou_amplitude(grid, dt, r) is ou_amplitude(grid, dt, r)

    def test_exact_step_preserves_stationarity(self):
        """One exact OU step applied to a stationary sample keeps the
        stationary one-point variance."""
        grid = Grid(dim=2, n=8)
        r, dt = 0.05, 0.7
        acc0 = acc1 = 0.0
        n_samples = 300
        for i in range(n_samples):
            s = NoiseStream(2000 + i)
            X = sample_stationary(grid, r, s)
            Y = ou_transition(X, ou_noise_field(grid, dt, r, s.normals(grid.shape)), dt)
            acc0 += (X.values**2).mean()
            acc1 += (Y.values**2).mean()
        assert acc1 / n_samples == pytest.approx(acc0 / n_samples, rel=0.1)

    def test_decay_without_noise(self):
        """With the Gaussian increment zeroed the step is the semigroup."""
        grid = Grid(dim=1, n=16)
        r, dt = 0.01, 0.25
        X = sample_stationary(grid, r, NoiseStream(3))
        zero = ou_noise_field(grid, dt, r, np.zeros(grid.shape))
        np.testing.assert_allclose(zero.values, 0.0, atol=1e-15)
        lam = half_cube(grid).eigenvalues
        decayed = Field.from_half(grid, X.half * np.exp(-dt * lam))
        stepped_half = X.half * np.exp(-dt * lam) + zero.half
        np.testing.assert_allclose(
            Field.from_half(grid, stepped_half).values, decayed.values, atol=1e-14
        )

    def test_composition_matches_single_step(self):
        """Two exact half-steps have the same law as one full step: check
        the implied variance algebra decay_h^2 var_h + var_h = var_2h, where
        var = amplitude^2 / N^d."""
        grid = Grid(dim=2, n=8)
        r = 0.03
        d1, d2 = semigroup(grid, 0.4).decay, semigroup(grid, 0.8).decay
        v1, v2 = (ou_amplitude(grid, dt, r) ** 2 / grid.cell_count for dt in (0.4, 0.8))
        np.testing.assert_allclose(d1 * d1, d2, atol=1e-14)
        np.testing.assert_allclose(d1**2 * v1 + v1, v2, atol=1e-16)
