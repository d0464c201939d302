import math

import numpy as np
import pytest
import scipy.fft

from phi4torus.spectral import (
    Field,
    Grid,
    apply_multiplier,
    cubic,
    dealiased_product,
    duhamel_step,
    grad_dot,
    gradient,
    half_cube,
    load_field,
    save_field,
)

from oracles import naive_convolution_product


def plane_wave(grid: Grid, k: tuple, phase: float = 0.0) -> Field:
    xs = grid.coordinates()
    arg = sum(ki * x for ki, x in zip(k, xs)) + phase
    return Field(grid, np.cos(arg))


class TestGrid:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Grid(dim=4, n=8)
        with pytest.raises(ValueError):
            Grid(dim=2, n=12)  # not a power of two
        with pytest.raises(ValueError):
            Grid(dim=2, n=8, period=0.0)

    def test_eigenvalues_are_one_plus_k_squared(self):
        grid = Grid(dim=2, n=8)
        lam = half_cube(grid).eigenvalues
        assert lam[0, 0] == 1.0
        assert lam[1, 0] == 2.0
        assert lam[2, 3] == pytest.approx(1.0 + 4.0 + 9.0)
        assert lam[-1, 1] == pytest.approx(3.0)

    def test_eigenvalues_scale_with_period(self):
        grid = Grid(dim=1, n=8, period=math.pi)
        lam = half_cube(grid).eigenvalues
        # halving the period doubles every frequency
        assert lam[1] == pytest.approx(1.0 + 4.0)

    def test_volume_elements(self):
        grid = Grid(dim=3, n=4, period=2.0)
        assert grid.volume == pytest.approx(8.0)
        assert grid.cell_volume == pytest.approx(0.125)
        assert grid.cell_count == 64


class TestField:
    def test_spectral_roundtrip(self):
        grid = Grid(dim=2, n=16)
        rng = np.random.default_rng(0)
        f = Field(grid, rng.normal(size=grid.shape))
        g = Field.from_half(grid, f.half)
        np.testing.assert_allclose(g.values, f.values, atol=1e-13)

    def test_spectral_convention(self):
        # u = cos(3x) has c_{+3} = c_{-3} = 1/2 under c_k = fft(u)/N; the
        # half-cube keeps k = 0 .. N/2, and c_{-3} = conj(c_{+3})
        grid = Grid(dim=1, n=16)
        f = plane_wave(grid, (3,))
        spec = f.half
        assert spec.shape == (9,)
        assert spec[3] == pytest.approx(0.5)
        assert np.abs(np.delete(spec, 3)).max() < 1e-14

    def test_parseval(self):
        grid = Grid(dim=2, n=8)
        rng = np.random.default_rng(1)
        f = Field(grid, rng.normal(size=grid.shape))
        # the interior half-cube columns stand for themselves and their mirrors
        weight = np.full(grid.n // 2 + 1, 2.0)
        weight[0] = weight[-1] = 1.0
        assert (weight * np.abs(f.half) ** 2).sum() == pytest.approx(
            (f.values**2).mean()
        )

    def test_arithmetic(self):
        grid = Grid(dim=1, n=8)
        a = Field.constant(grid, 2.0)
        b = Field.constant(grid, 3.0)
        assert (a + b).values[0] == 5.0
        assert (a - b).values[0] == -1.0
        assert (a * b).values[0] == 6.0
        assert (2.0 * a).values[0] == 4.0
        assert (1.0 - a).values[0] == -1.0
        assert (-a).values[0] == -2.0

    def test_arithmetic_on_coefficients(self):
        # a field built from coefficients has no values until read; linear
        # operations on it match the same operations on values to rounding
        grid = Grid(dim=2, n=8)
        rng = np.random.default_rng(1)
        va, vb = rng.normal(size=(2,) + grid.shape)
        a = Field.from_half(grid, Field(grid, va).half)
        b = Field(grid, vb)
        cases = [
            (a + b, va + vb), (b - a, vb - va), (-a, -va), (2.5 * a, 2.5 * va),
            (a + 1.5, va + 1.5), (a - 1.5, va - 1.5), (1.0 - a, 1.0 - va),
        ]
        for f, want in cases:
            np.testing.assert_allclose(f.values, want, atol=1e-13)

    def test_values_from_coefficients_on_first_read(self):
        grid = Grid(dim=3, n=8)
        half = Field(grid, np.random.default_rng(2).normal(size=grid.shape)).half
        f = Field.from_half(grid, half)
        values = f.values
        want = scipy.fft.irfftn(half, s=grid.shape, norm="forward")
        assert np.array_equal(values, want)
        assert not values.flags.writeable
        assert f.values is values

    @pytest.mark.parametrize("shape", [(8, 8, 8), (8, 8, 4), (4, 4, 3)])
    def test_coefficient_shape_mismatch_rejected(self, shape):
        with pytest.raises(ValueError, match="half-cube"):
            Field.from_half(Grid(dim=3, n=8), np.zeros(shape, complex))

    def test_grid_mismatch_rejected(self):
        a = Field.zeros(Grid(dim=1, n=8))
        b = Field.zeros(Grid(dim=1, n=16))
        with pytest.raises(ValueError):
            _ = a + b

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Field(Grid(dim=2, n=8), np.zeros((8,)))


def P(lam):
    return lam


def P_inverse(lam):
    return 1.0 / lam


class TestMultipliers:
    def test_p_on_plane_wave(self):
        grid = Grid(dim=3, n=8)
        f = plane_wave(grid, (1, 2, 0))
        g = apply_multiplier(f, P)
        np.testing.assert_allclose(g.values, 6.0 * f.values, atol=1e-12)

    def test_p_inverse_inverts_p(self):
        grid = Grid(dim=2, n=16)
        rng = np.random.default_rng(2)
        f = Field(grid, rng.normal(size=grid.shape))
        g = apply_multiplier(apply_multiplier(f, P), P_inverse)
        np.testing.assert_allclose(g.values, f.values, atol=1e-12)

    def test_heat_on_plane_wave(self):
        grid = Grid(dim=1, n=16)
        f = plane_wave(grid, (2,), phase=0.3)
        g = apply_multiplier(f, lambda lam: np.exp(-0.1 * lam))
        np.testing.assert_allclose(g.values, math.exp(-0.5) * f.values, atol=1e-13)

    def test_laplacian_is_one_minus_p(self):
        grid = Grid(dim=2, n=8)
        f = plane_wave(grid, (1, 1))
        g = apply_multiplier(f, lambda lam: 1.0 - lam)
        np.testing.assert_allclose(g.values, -2.0 * f.values, atol=1e-12)

    def test_nonfinite_symbol_rejected(self):
        grid = Grid(dim=1, n=8)
        def bad(lam):
            return np.where(lam == 2.0, np.inf, lam)

        with pytest.raises(ValueError):
            apply_multiplier(plane_wave(grid, (1,)), bad)


class TestDuhamel:
    def test_exact_for_constant_forcing(self):
        # (d/dt + P) u = f with f time-constant is solved exactly per mode
        grid = Grid(dim=1, n=16)
        u0 = plane_wave(grid, (2,))
        f = plane_wave(grid, (2,), phase=0.7)
        dt = 0.37
        lam = 5.0
        exact = math.exp(-lam * dt) * u0.values + (
            1 - math.exp(-lam * dt)
        ) / lam * f.values
        got = duhamel_step(u0, f, dt)
        np.testing.assert_allclose(got.values, exact, atol=1e-13)

    def test_first_order_convergence_on_nonlinear_ode(self):
        # scalar ODE u' + u = -u^3 via the zero-mode of a constant field
        grid = Grid(dim=1, n=2)

        def integrate(dt):
            u = Field.constant(grid, 1.0)
            t = 0.0
            while t < 1.0 - 1e-12:
                u = duhamel_step(u, Field(grid, -u.values**3), dt)
                t += dt
            return u.values[0]

        # reference by very fine steps
        ref = integrate(1.0 / 8192)
        errs = [abs(integrate(1.0 / m) - ref) for m in (32, 64, 128)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(0.8 < o < 1.3 for o in orders)

    def test_rejects_bad_dt(self):
        grid = Grid(dim=1, n=8)
        with pytest.raises(ValueError):
            duhamel_step(Field.zeros(grid), Field.zeros(grid), 0.0)


def _no_nyquist(grid: Grid, rng) -> Field:
    """Random field with the Nyquist mode removed (its real-projection
    convention is a separate concern from convolution semantics)."""
    f = Field(grid, rng.normal(size=grid.shape))
    spec = f.half.copy()
    spec[grid.n // 2] = 0.0
    return Field.from_half(grid, spec)


class TestDealiasedProducts:
    def test_matches_direct_convolution_pair(self):
        grid = Grid(dim=1, n=16)
        rng = np.random.default_rng(3)
        a = _no_nyquist(grid, rng)
        b = _no_nyquist(grid, rng)
        want = naive_convolution_product(a.values, b.values)
        got = dealiased_product(a, b)
        np.testing.assert_allclose(got.values, want, atol=1e-11)

    def test_matches_direct_convolution_triple(self):
        grid = Grid(dim=1, n=8)
        rng = np.random.default_rng(4)
        a, b, c = (_no_nyquist(grid, rng) for _ in range(3))
        want = naive_convolution_product(a.values, b.values, c.values)
        got = dealiased_product(a, b, c)
        np.testing.assert_allclose(got.values, want, atol=1e-11)

    def test_cubic_is_triple_product(self):
        grid = Grid(dim=2, n=8)
        rng = np.random.default_rng(5)
        f = Field(grid, rng.normal(size=grid.shape))
        np.testing.assert_allclose(
            cubic(f).values, dealiased_product(f, f, f).values, atol=1e-12
        )

    def test_no_aliasing_on_high_mode_square(self):
        # cos(7x)^2 = 1/2 + cos(14x)/2; on n=16 the mode 14 aliases to -2
        # under a naive pointwise square but must be dropped by dealiasing
        grid = Grid(dim=1, n=16)
        f = plane_wave(grid, (7,))
        sq = dealiased_product(f, f)
        spec = sq.half  # c_{-2} = conj(c_2)
        assert spec[0] == pytest.approx(0.5)
        assert abs(spec[2]) < 1e-13

    def test_low_mode_products_exact_pointwise(self):
        # products of well-resolved modes agree with the pointwise product
        grid = Grid(dim=1, n=32)
        a = plane_wave(grid, (2,))
        b = plane_wave(grid, (3,), phase=1.1)
        np.testing.assert_allclose(
            dealiased_product(a, b).values, a.values * b.values, atol=1e-12
        )


class TestGradient:
    def test_gradient_of_plane_wave(self):
        grid = Grid(dim=2, n=16)
        f = plane_wave(grid, (2, 5))  # cos(2x + 5y)
        gx, gy = gradient(f)
        xs = grid.coordinates()
        arg = 2 * xs[0] + 5 * xs[1]
        np.testing.assert_allclose(gx.values, -2 * np.sin(arg), atol=1e-11)
        np.testing.assert_allclose(gy.values, -5 * np.sin(arg), atol=1e-11)

    def test_grad_dot_matches_finite_differences(self):
        grid = Grid(dim=1, n=8192)
        rng = np.random.default_rng(6)
        # smooth random fields from a few low modes
        x = grid.axis_coordinates()
        a = np.zeros_like(x)
        b = np.zeros_like(x)
        for k in range(1, 6):
            a += rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)
            b += rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)
        fa, fb = Field(grid, a), Field(grid, b)
        h = grid.period / grid.n
        # 4th-order centered first derivative
        def d1(v):
            return (
                -np.roll(v, -2) + 8 * np.roll(v, -1) - 8 * np.roll(v, 1) + np.roll(v, 2)
            ) / (12 * h)

        want = d1(a) * d1(b)
        got = grad_dot(fa, fb)
        np.testing.assert_allclose(got.values, want, atol=1e-7)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        grid = Grid(dim=3, n=8, period=4.0)
        rng = np.random.default_rng(7)
        f = Field(grid, rng.normal(size=grid.shape))
        p = tmp_path / "f.field"
        save_field(f, p)
        g = load_field(p)
        assert g.grid == grid
        np.testing.assert_array_equal(g.values, f.values)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.field"
        p.write_bytes(b"NOTAFLD0" + b"\0" * 64)
        with pytest.raises(ValueError, match="not a PHI4FLD1"):
            load_field(p)

    def test_truncated_rejected(self, tmp_path):
        grid = Grid(dim=2, n=8)
        f = Field.zeros(grid)
        p = tmp_path / "f.field"
        save_field(f, p)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_field(p)
