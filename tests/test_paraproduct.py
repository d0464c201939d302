import math
import weakref

import numpy as np
import pytest

from phi4torus.paraproduct import (
    besov_norm,
    block_norms,
    estimate_regularity,
    product_decomposition,
    resonants,
)
from phi4torus.spectral import Field, Grid, dealiased_product, half_cube, lp_norm

from oracles import (
    full_blocks,
    full_eigenvalues,
    full_paraproduct,
    full_resonant,
    full_values,
)


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.normal(size=grid.shape))


def j_max(grid):
    """The largest level that holds a mode of the grid (0 if none does)."""
    return max(int(half_cube(grid).levels.max()), 0)


def all_blocks(f):
    """[Delta_{-1} f, Delta_0 f, ..., Delta_{j_max} f] from the level table,
    the empty Delta_0 f included."""
    levels = half_cube(f.grid).levels
    return [Field.from_half(f.grid, f.half * (levels == j))
            for j in range(-1, j_max(f.grid) + 1)]


class TestBlocks:
    def test_blocks_partition_frequencies(self):
        """The Littlewood-Paley blocks sum back to the field exactly."""
        grid = Grid(dim=2, n=32)
        f = random_field(grid, 0)
        total = Field.zeros(grid)
        for b in all_blocks(f):
            total = total + b
        np.testing.assert_allclose(total.values, f.values, atol=1e-12)

    @pytest.mark.parametrize("period", [2.0 * np.pi, 3.0, 20.0], ids=["2pi", "3", "20"])
    def test_block_supports_are_annuli(self, period):
        """Each block holds exactly the modes of its annulus; with periods
        other than 2 pi the level edges fall off the integer lattice."""
        grid = Grid(dim=2, n=32, period=period)
        f = random_field(grid, 1)
        kmag = np.sqrt(half_cube(grid).k_squared)
        blocks = all_blocks(f)
        assert len(blocks) == j_max(grid) + 2
        assert kmag.max() <= 2.0 ** j_max(grid)
        for j, b in enumerate(blocks, start=-1):
            if j == -1:
                annulus = kmag <= 1.0
            else:
                annulus = (kmag > max(2.0 ** (j - 1), 1.0)) & (kmag <= 2.0**j)
            np.testing.assert_array_equal(b.half[annulus], f.half[annulus])
            assert not b.half[~annulus].any()

    def test_blocks_are_disjoint(self):
        """Every mode of a random field is nonzero, so each must be live in
        exactly one block."""
        grid = Grid(dim=1, n=64)
        f = random_field(grid, 2)
        total = sum((np.abs(b.half) > 1e-12).astype(int) for b in all_blocks(f))
        assert np.all(total == 1)

    def test_j_complete(self):
        """The regularity window ends at j_complete, the last level whose
        annulus lies inside the axis Nyquist ball |k| <= N/2: 2^j <= N/2."""
        for n, j_complete in ((32, 4), (64, 5)):
            grid = Grid(dim=3, n=n)
            samples = [random_field(grid, seed) for seed in range(16)]
            assert estimate_regularity(samples, j_min=1).levels[-1] == j_complete


class TestParaproducts:
    def test_decomposition_identity(self):
        """lo + resonant + hi reproduces the (dealiased) product, 100 pairs."""
        grid = Grid(dim=2, n=16)
        worst = 0.0
        for seed in range(100):
            a = random_field(grid, 2 * seed)
            b = random_field(grid, 2 * seed + 1)
            lo, res, hi = product_decomposition(a, b)
            recon = lo.values + res.values + hi.values
            ref = dealiased_product(a, b).values
            worst = max(worst, float(np.abs(recon - ref).max()))
        assert worst < 1e-10

    @pytest.mark.parametrize("grid", [Grid(dim=3, n=8), Grid(dim=3, n=16),
                                      Grid(dim=2, n=16, period=5.0)],
                             ids=["3d-8", "3d-16", "2d-period-5"])
    def test_resonant_mean_is_the_product_mean(self, grid):
        """The mean of a product pairs each mode k of a with the mode -k of
        b, and k and -k lie in one level, which the resonant sum keeps: a o b
        and a b have the same mean (the divergence sweep reads it so)."""
        a, b = random_field(grid, 31), random_field(grid, 32)
        want = resonants((a, b))[0].mean()
        assert dealiased_product(a, b).mean() == pytest.approx(want, rel=1e-13)

    def test_paraproduct_asymmetry(self):
        grid = Grid(dim=2, n=16)
        a, b = random_field(grid, 4), random_field(grid, 5)
        lo, res, hi = product_decomposition(a, b)
        np.testing.assert_allclose(product_decomposition(b, a)[0].values, hi.values,
                                   atol=1e-12)
        np.testing.assert_allclose(product_decomposition(b, a)[2].values, lo.values,
                                   atol=1e-12)
        np.testing.assert_allclose(resonants((b, a))[0].values, res.values, atol=1e-12)

    def test_resonants_with_shared_factors_match_the_full_cube(self):
        grid = Grid(dim=3, n=8)
        a, b, c = (random_field(grid, seed) for seed in (6, 7, 8))
        pairs = [(a, b), (a, c), (c, c), (b, c)]
        for got, (x, y) in zip(resonants(*pairs), pairs):
            want = full_resonant(x.values, y.values, grid.period)
            assert np.abs(got.values - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("grid", [Grid(dim=3, n=8), Grid(dim=2, n=16)])
    def test_paraproducts_match_the_full_cube(self, grid):
        """a<b and a>b each against the pairwise block sum, which the
        identity a<b + a o b + a>b = ab alone cannot tell apart."""
        a, b = random_field(grid, 9), random_field(grid, 10)
        lo, _, hi = product_decomposition(a, b)
        for got, (x, y) in ((lo, (a, b)), (hi, (b, a))):
            want = full_paraproduct(x.values, y.values, grid.period)
            assert np.abs(got.values - want).max() <= 1e-13 * np.abs(want).max()

    def test_grid_without_paraproduct_levels(self):
        """On Grid(1, 2) every mode has |k| <= 1: the paraproducts vanish
        and the resonant term is the whole product."""
        grid = Grid(dim=1, n=2)
        a, b = random_field(grid, 11), random_field(grid, 12)
        lo, res, hi = product_decomposition(a, b)
        assert not lo.values.any() and not hi.values.any()
        np.testing.assert_allclose(res.values, dealiased_product(a, b).values,
                                   atol=1e-14)

    def test_paraproduct_of_separated_frequencies(self):
        """A single low mode times a single high mode lands entirely in the
        paraproduct term with the low factor first."""
        grid = Grid(dim=1, n=64)
        x = grid.axis_coordinates()
        lo = Field(grid, np.cos(x))           # j = 0
        hi = Field(grid, np.cos(17.0 * x))    # j = 4
        plo, res, phi = product_decomposition(lo, hi)
        np.testing.assert_allclose(plo.values, lo.values * hi.values, atol=1e-12)
        assert np.abs(phi.values).max() < 1e-12
        assert np.abs(res.values).max() < 1e-12


class TestBesovNorm:
    def test_single_block_scaling(self):
        grid = Grid(dim=1, n=64)
        x = grid.axis_coordinates()
        f = Field(grid, np.cos(8.0 * x))  # block j = 3, sup = 1
        assert besov_norm(f, -1.0) == pytest.approx(2.0**-3, rel=1e-12)
        assert besov_norm(f, 2.0) == pytest.approx(2.0**6, rel=1e-12)

    def test_p_two_uses_quadrature(self):
        grid = Grid(dim=1, n=64)
        x = grid.axis_coordinates()
        f = Field(grid, np.cos(8.0 * x))
        # ||cos||_{L^2} = sqrt(pi) on [0, 2pi)
        assert besov_norm(f, 0.0, p=2) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_triangle_inequality(self):
        grid = Grid(dim=2, n=16)
        a, b = random_field(grid, 7), random_field(grid, 8)
        assert besov_norm(a + b, -0.5) <= besov_norm(a, -0.5) + besov_norm(b, -0.5) + 1e-12

    def test_empty_level_weighs_zero(self):
        f = random_field(Grid(dim=3, n=8), 12)
        norms = block_norms(f)
        assert norms[1] == 0.0  # level 0
        assert norms == [lp_norm(b, np.inf) for b in all_blocks(f)]

    def test_rejects_bad_exponents(self):
        grid = Grid(dim=1, n=16)
        with pytest.raises(ValueError):
            besov_norm(Field.zeros(grid), -0.5, p=0.5)


class TestRegularityEstimate:
    def test_white_noise_slope(self):
        """d-dimensional white noise has E|Delta_j u|^2 ~ 2^{jd}, i.e.
        gamma_hat = -d/2."""
        grid = Grid(dim=2, n=64)
        rng = np.random.default_rng(9)
        samples = [
            Field(grid, rng.normal(size=grid.shape)) for _ in range(32)
        ]
        fit = estimate_regularity(samples, j_min=1)
        assert fit.gamma_hat == pytest.approx(-1.0, abs=0.1)

    def test_known_spectral_slope(self):
        """Gaussian fields with variance lam^{-2} per mode in d = 2 have
        E|Delta_j|^2 ~ 2^{jd} 2^{-4j}, i.e. gamma_hat = (4 - d)/2 = 1."""
        grid = Grid(dim=2, n=64)
        lam = full_eigenvalues(grid.n, grid.dim, grid.period)
        kmag = np.maximum(np.sqrt(lam - 1.0), 1.0)
        rng = np.random.default_rng(10)
        samples = []
        for _ in range(32):
            g = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
            samples.append(Field(grid, full_values(g / kmag**2)))
        fit = estimate_regularity(samples, j_min=1)
        assert fit.gamma_hat == pytest.approx(1.0, abs=0.15)

    def test_refuses_too_few_samples(self):
        grid = Grid(dim=1, n=64)
        with pytest.raises(ValueError, match="16 samples"):
            estimate_regularity([Field.zeros(grid)] * 4, j_min=1)

    @pytest.mark.parametrize("j_min", [0, -1])
    def test_fit_runs_over_levels_that_hold_a_mode(self, j_min):
        """Level 0 holds no mode: a window from j_min <= 0 skips it, so
        the fit stays finite and from 0 it is the fit from 1."""
        grid = Grid(dim=2, n=64)
        rng = np.random.default_rng(11)
        samples = [Field(grid, rng.normal(size=grid.shape)) for _ in range(16)]
        fit = estimate_regularity(samples, j_min=j_min)
        from_one = estimate_regularity(samples, j_min=1)
        assert 0 not in fit.levels
        assert fit.levels == list(range(j_min, 0)) + from_one.levels
        assert np.all(np.isfinite(fit.log2_energy)) and math.isfinite(fit.gamma_hat)
        if j_min == 0:
            assert fit == from_one

    @pytest.mark.parametrize("grid", [
        Grid(dim=1, n=64), Grid(dim=2, n=64), Grid(dim=3, n=16),
        Grid(dim=2, n=64, period=20.0),
    ], ids=["1d", "2d", "3d", "2d-period-20"])
    def test_energies_are_the_mean_block_energies(self, grid):
        """The Parseval energies of the fit against the mean squares of the
        full-cube oracle's blocks, over the levels of the window."""
        samples = [random_field(grid, seed) for seed in range(16)]
        fit = estimate_regularity(samples, j_min=-1)
        blocks = [full_blocks(f.values, grid.period) for f in samples]
        want = [math.log2(np.mean([(b[j + 1] ** 2).mean() for b in blocks]))
                for j in fit.levels]
        np.testing.assert_allclose(fit.log2_energy, want, rtol=0, atol=1e-13)

    def test_a_generator_gives_the_bits_of_a_list(self):
        """The estimator reduces each sample as it arrives: a generator gives
        the fit of the same fields as a list, bit for bit, while the
        estimator holds no more than the sample before the one it asks for."""
        grid = Grid(dim=3, n=16)
        refs = []

        def fields():
            for seed in range(17):
                assert all(ref() is None for ref in refs[:-1])
                f = random_field(grid, seed)
                refs.append(weakref.ref(f))
                yield f

        fit = estimate_regularity(fields(), j_min=-1)
        assert len(refs) == 17
        assert fit == estimate_regularity([random_field(grid, s) for s in range(17)], j_min=-1)

    def test_refuses_too_few_levels(self):
        grid = Grid(dim=1, n=16)
        samples = [Field.zeros(grid)] * 16
        with pytest.raises(ValueError, match="levels"):
            estimate_regularity(samples, j_min=2)
