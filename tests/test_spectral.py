import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from phi4torus import spectral
from phi4torus.noise import NoiseStream
from phi4torus.paraproduct import resonants
from phi4torus.spectral import (
    Field,
    Grid,
    Band,
    apply_multiplier,
    _pad_plan,
    _padded_values,
    _five_smooth,
    _product_size,
    _truncated_field,
    cubic,
    dealiased_product,
    dealiased_sums,
    duhamel_step,
    grad_dot,
    gradient,
    half_cube,
    load_field,
    save_field,
    semigroup,
)
from phi4torus.trees import TreeEvolver

from oracles import (
    full_dealiased_product,
    full_grad_dot,
    full_resonant,
    naive_convolution_product,
    padded_half_cube,
    truncated_half_cube,
)


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
        assert (2.0 * a).values[0] == 4.0
        assert (1.0 - a).values[0] == -1.0
        assert (-a).values[0] == -2.0
        # a product of fields is dealiased (dealiased_product), never
        # formed pointwise by *
        for x, y in ((a, b), (a, b.values), (b.values, a)):
            with pytest.raises(TypeError):
                x * y

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


def coefficient_fields(grid: Grid, k: int, seed: int = 0) -> list[Field]:
    """k random fields built from coefficients, whose values are not read."""
    rng = np.random.default_rng(seed)
    return [Field.from_half(grid, Field(grid, rng.normal(size=grid.shape)).half)
            for _ in range(k)]


def counted(call) -> dict:
    before = spectral.transform_counts()
    call()
    after = spectral.transform_counts()
    return {key: after[key] - before[key] for key in after}


NOTHING = {"transforms": 0, "passes": 0, "points": 0}
EVALUATE_GRIDS = [Grid(dim=1, n=16), Grid(dim=2, n=16), Grid(dim=3, n=8)]


@pytest.mark.parametrize("grid", EVALUATE_GRIDS, ids=["1d", "2d", "3d"])
class TestEvaluate:
    def test_values_equal_those_read_one_by_one(self, grid):
        fields = coefficient_fields(grid, 4)
        alone = [Field.from_half(grid, f.half).values for f in fields]
        spectral.evaluate(*fields)
        for f, want in zip(fields, alone):
            assert np.array_equal(f.values, want)
            assert np.array_equal(f.values, scipy.fft.irfftn(f.half, s=grid.shape,
                                                             norm="forward"))
            assert not f.values.flags.writeable

    def test_k_transforms_in_d_passes(self, grid):
        fields = coefficient_fields(grid, 3)
        one = counted(lambda: Field.from_half(grid, fields[0].half).values)
        assert one == {"transforms": 1, "passes": grid.dim,
                       "points": grid.cell_count + (grid.dim - 1) * fields[0].half.size}
        assert counted(lambda: spectral.evaluate(*fields)) == {
            "transforms": 3, "passes": grid.dim, "points": 3 * one["points"]}

    def test_skips_fields_with_values_and_repeats(self, grid):
        a, b, c = coefficient_fields(grid, 3)
        held = b.values
        given = Field(grid, held.copy())
        assert counted(lambda: spectral.evaluate(a, b, a, given, c, c)) == {
            "transforms": 2, "passes": grid.dim, "points": 2 * counted(
                lambda: Field.from_half(grid, a.half).values)["points"]}
        assert b.values is held
        assert counted(lambda: spectral.evaluate(a, b, given, c)) == NOTHING
        assert counted(spectral.evaluate) == NOTHING

    def test_rejects_fields_of_different_grids(self, grid):
        (a,) = coefficient_fields(grid, 1)
        for other in (Grid(grid.dim, 2 * grid.n), Grid(grid.dim, grid.n, period=1.0)):
            (b,) = coefficient_fields(other, 1)
            with pytest.raises(ValueError, match="different grids"):
                counted(lambda: spectral.evaluate(a, b))
        assert counted(lambda: spectral.evaluate(a)) == counted(
            lambda: Field.from_half(grid, a.half).values)


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


class TestSemigroup:
    def test_read_only_and_equal_to_the_formulas(self):
        grid = Grid(dim=3, n=8)
        t = 0.37
        lam = half_cube(grid).eigenvalues
        decay, weight = semigroup(grid, t)
        np.testing.assert_array_equal(decay, np.exp(-t * lam))
        np.testing.assert_array_equal(weight, (1.0 - np.exp(-t * lam)) / lam)
        for arr in (decay, weight):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 0.0
        assert semigroup(grid, t) is semigroup(grid, t)

    def test_duhamel_step_reads_the_cache_bit_for_bit(self):
        grid = Grid(dim=2, n=8)
        rng = np.random.default_rng(4)
        u, f = (Field(grid, rng.normal(size=grid.shape)) for _ in range(2))
        dt = 0.05
        lam = half_cube(grid).eigenvalues
        decay = np.exp(-dt * lam)
        want = decay * u.half + (1.0 - decay) / lam * f.half
        np.testing.assert_array_equal(duhamel_step(u, f, dt).half, want)


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


    def test_sums_share_factors_and_match_single_sums(self):
        # every call below runs on M, so the sums agree bit for bit
        grid = Grid(dim=2, n=8)
        rng = np.random.default_rng(6)
        a, b, c = (Field(grid, rng.normal(size=grid.shape)) for _ in range(3))
        got = dealiased_sums([(a, b), (c,)], [(b, c)], [(a,), (a, a)])
        want = [
            dealiased_sums([(a, b), (c,)])[0],
            dealiased_sums([(b, c)])[0],
            dealiased_sums([(a,), (a, a)])[0],
        ]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.half, w.half)

    def test_a_three_factor_term_moves_the_other_sums_to_2n(self):
        # the three-factor sum runs on 2N in both calls and agrees bit for
        # bit; the two-factor sums, alone on M, agree to rounding
        grid = Grid(dim=2, n=8)
        rng = np.random.default_rng(6)
        a, b, c = (Field(grid, rng.normal(size=grid.shape)) for _ in range(3))
        got = dealiased_sums([(a, b), (c,)], [(b, c, c)], [(a,), (a, a)])
        np.testing.assert_array_equal(got[1].half, dealiased_sums([(b, c, c)])[0].half)
        singles = [dealiased_sums([(a, b), (c,)])[0], dealiased_sums([(a,), (a, a)])[0]]
        for g, w in zip(got[::2], singles):
            assert not np.array_equal(g.half, w.half)
            assert np.abs(g.values - w.values).max() <= 1e-15 * np.abs(w.values).max()

    @pytest.mark.parametrize("call, match", [
        (lambda a: dealiased_sums([(a,)], []), "sum 1 has no terms"),
        (lambda a: dealiased_sums([(a, a)], [(a,), ()]), "term 1 of sum 1 has no factors"),
        (lambda a: dealiased_sums([]), "sum 0 has no terms"),
        (lambda a: dealiased_product(), "term 0 of sum 0 has no factors"),
        (lambda a: dealiased_sums(), "no sums"),
    ])
    def test_empty_sum_or_term_rejected(self, call, match):
        a = Field(Grid(1, 8), np.arange(8.0))
        with pytest.raises(ValueError, match=match):
            call(a)


@pytest.fixture
def grids_taken(monkeypatch):
    """The points per axis M of every product-grid buffer taken, in order."""
    taken = []
    take = spectral._take

    def recorded(plan, view):
        taken.append(plan.shape[0])
        return take(plan, view)

    monkeypatch.setattr(spectral, "_take", recorded)
    return taken


class TestProductGrid:
    """Two-factor products run on the smallest alias-free M, three-factor
    ones on 2N, and each level of a resonant product on the smallest
    alias-free M for its bands."""

    def test_sizes(self):
        # two fields of the grid: reach N/2 each
        sizes = {n: _product_size(n, n, 2) for n in (2, 4, 8, 16, 32, 64)}
        assert sizes == {2: 4, 4: 8, 8: 15, 16: 25, 32: 50, 64: 100}
        assert all(_product_size(n, n, 3) == 2 * n for n in sizes)

    def test_each_level_on_its_own_grid(self, grids_taken):
        # at N = 32 a level k block reaches K1 = min(2^k, 16) per axis and
        # its near sum K2 = min(2^(k+1), 16); the product is kept to
        # K3 = min(K1 + K2, 16), alias-free on M >= K1 + K2 + K3 + 1
        grid = Grid(3, 32)
        rng = np.random.default_rng(32)
        a, b = (Field(grid, rng.normal(size=grid.shape)) for _ in range(2))
        reaches = [(1, 1), (2, 4), (4, 8), (8, 16), (16, 16), (16, 16)]
        want = [_product_size(32, k1 + k2, 2) for k1, k2 in reaches]
        assert want == [5, 15, 25, 45, 50, 50]
        for k1, k2 in reaches:
            k3 = min(k1 + k2, 16)
            assert _product_size(32, k1 + k2, 2) >= k1 + k2 + k3 + 1
        resonants((a, b))
        assert list(dict.fromkeys(grids_taken)) == [5, 15, 25, 45, 50]
        assert grids_taken.count(50) == 2 * grids_taken.count(45)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_two_factor_products_at_m_match_the_2n_oracle(self, n, grids_taken):
        # white noise fills every mode, the Nyquist planes included
        grid = Grid(3, n)
        rng = np.random.default_rng(n)
        a, b = (Field(grid, rng.normal(size=grid.shape)) for _ in range(2))
        m = _product_size(n, n, 2)
        assert m < 2 * n
        cases = [
            (lambda: dealiased_product(a, b), full_dealiased_product(a.values, b.values), {m}),
            (lambda: grad_dot(a, b), full_grad_dot(a.values, b.values, grid.period), {m}),
            # the top levels run on M too, the others on smaller grids
            (lambda: resonants((a, b))[0], full_resonant(a.values, b.values, grid.period),
             None),
        ]
        for call, want, grids in cases:
            grids_taken.clear()
            got = call().values
            if grids is None:
                assert max(grids_taken) == m and min(grids_taken) < m
            else:
                assert set(grids_taken) == grids
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_one_point_fewer_aliases(self):
        # the negative control: at M = 3N/2 = 24 the square of white noise
        # at N = 16 takes aliases, so 25 is the smallest M that works
        grid = Grid(3, 16)
        a = Field(grid, np.random.default_rng(16).normal(size=grid.shape))
        plan = _pad_plan(grid, 24, 8)
        vals = _padded_values(a, plan)
        got = _truncated_field(grid, vals * vals, plan).values
        spectral._give(vals)
        want = full_dealiased_product(a.values, a.values)
        assert np.abs(got - want).max() > 1e-3 * np.abs(want).max()

    def test_a_three_factor_term_puts_the_call_on_2n(self, grids_taken):
        grid = Grid(3, 16)
        rng = np.random.default_rng(2)
        a, b = (Field(grid, rng.normal(size=grid.shape)) for _ in range(2))
        square, _ = dealiased_sums([(a, b)], [(a, a, b)])
        assert set(grids_taken) == {32}
        np.testing.assert_array_equal(square.half,
                                      dealiased_sums([(a, b)], [(b, b, b)])[0].half)


def smallest_product_sizes(n: int) -> list[int]:
    """The smallest 5-smooth M > 3N/2 of each parity below 2N, among them
    the M of two-factor products."""
    sizes = [m for m in range(3 * n // 2 + 1, 2 * n) if _five_smooth(m)]
    return [next(m for m in sizes if m % 2 == parity)
            for parity in (0, 1) if any(m % 2 == parity for m in sizes)]


PRUNED_GRIDS = [Grid(dim, n) for dim in (1, 2, 3) for n in (2, 4, 8, 16, 32)]
# each grid with its 2N product grid and the smaller ones of either parity,
# at reach N/2; then bands of reach K < N/2 on the smallest grids that hold
# them, M = 2K + 1 and 2K + 2, and the lone mode 0 on one point
PRUNED_CASES = [(grid, m, grid.n // 2) for grid in PRUNED_GRIDS
                for m in [2 * grid.n, *smallest_product_sizes(grid.n)]]
PRUNED_CASES += [(grid, 2 * k + extra, k) for grid in PRUNED_GRIDS if grid.n >= 4
                 for k in sorted({1, grid.n // 4}) for extra in (1, 2)]
PRUNED_CASES += [(Grid(3, 8), 1, 0)]


def pruned_id(case) -> str:
    grid, m, k = case
    name = f"d{grid.dim}n{grid.n}" + ("" if m == 2 * grid.n else f"m{m}")
    return name + ("" if k == grid.n // 2 else f"k{k}")


@pytest.mark.parametrize("grid, m, k", PRUNED_CASES, ids=map(pruned_id, PRUNED_CASES))
class TestPrunedTransforms:
    """The pruned M transforms against full M transforms of the padded
    half-cube, built one coefficient at a time, for the modes |k_a| <= K."""

    def test_pad_equals_full_inverse(self, grid, m, k):
        f = Field(grid, np.random.default_rng(grid.n).normal(size=grid.shape))
        full = scipy.fft.irfftn(padded_half_cube(f.half, grid.n, m, reach=k),
                                s=(m,) * grid.dim, norm="forward")
        got = _padded_values(f, _pad_plan(grid, m, k))
        assert got.shape == full.shape
        assert np.abs(got - full).max() == 0.0

    def test_truncation_equals_full_forward(self, grid, m, k):
        rng = np.random.default_rng(grid.n + 1)
        vals = rng.normal(size=(m,) * grid.dim) ** 3
        want = truncated_half_cube(scipy.fft.rfftn(vals, norm="forward"), grid.n, m, reach=k)
        got = _truncated_field(grid, vals, _pad_plan(grid, m, k)).half
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15


def test_a_band_pads_only_its_modes():
    # a Band factor places the modes of its levels straight from the
    # field's coefficients: the same values as padding the band built as a
    # field of its own
    grid = Grid(3, 16)
    f = Field(grid, np.random.default_rng(17).normal(size=grid.shape))
    levels = half_cube(grid).levels
    for lo, hi in [(-1, -1), (1, 2), (2, 4), (3, 5), (4, 4)]:
        band = Field.from_half(grid, np.where((lo <= levels) & (levels <= hi), f.half, 0))
        plan = _pad_plan(grid, 25, spectral._band_reach(grid, lo, hi))
        got = _padded_values(Band(f, lo, hi), plan)
        want = _padded_values(band, plan)
        np.testing.assert_array_equal(got, want)
        spectral._give(got)
        spectral._give(want)
    assert [spectral._band_reach(grid, j, j) for j in (-1, 1, 2, 3, 4)] == [1, 2, 4, 8, 8]


def pool_bytes() -> int:
    return sum(buf.nbytes for buf in spectral._FREE)


class TestWorkspace:
    """The buffers that pads, products and truncations reuse: one list of
    one size per N grid, the largest half-cube taken on it so far, from
    which a take gets any free buffer."""

    def test_results_do_not_alias_the_workspace(self):
        grid = Grid(3, 8)
        rng = np.random.default_rng(3)
        a, b = (Field(grid, rng.normal(size=grid.shape)) for _ in range(2))
        first = [cubic(a), *dealiased_sums([(a, b)], [(b,)], [(a, a, b)]), *resonants((a, b))]
        kept = [(f.half.copy(), f.values.copy()) for f in first]
        # later calls that take, overwrite and hand back the same buffers
        for _ in range(2):
            again = [cubic(b), *dealiased_sums([(b, a)], [(a,)], [(b, b, a)]),
                     *resonants((b, a))]
            dealiased_sums([(a, b), (b,)], [(a, a, a)])
        for f, (half, values) in zip(first, kept):
            np.testing.assert_array_equal(f.half, half)
            np.testing.assert_array_equal(f.values, values)
        pooled = spectral._FREE
        assert pooled
        assert {buf.size for buf in pooled} == {spectral._FREE_SIZE}
        for f in first + again:
            for buf in pooled:
                assert not np.shares_memory(f.half, buf)
                assert not np.shares_memory(f.values, buf)
        # the same call gives the same bits whatever the buffers held before
        np.testing.assert_array_equal(cubic(a).half, first[0].half)
        np.testing.assert_array_equal(resonants((a, b))[0].half, first[-1].half)

    def test_a_products_bits_do_not_depend_on_its_buffer(self):
        # a product, and the copy of a lone factor, formed in a workspace
        # buffer has the bits of the product written into a fresh array
        grid = Grid(3, 16)
        rng = np.random.default_rng(8)
        a, b = (Field(grid, rng.normal(size=grid.shape)) for _ in range(2))
        for got, m, want in [(dealiased_product(a, b), 25, lambda va, vb: va * vb),
                             (dealiased_product(a, a), 25, lambda va, vb: va * va),
                             (dealiased_product(a), 18, lambda va, vb: va.copy())]:
            plan = _pad_plan(grid, m, 8)
            va, vb = _padded_values(a, plan), _padded_values(b, plan)
            np.testing.assert_array_equal(got.half,
                                          _truncated_field(grid, want(va, vb), plan).half)
            spectral._give(va)
            spectral._give(vb)

    def test_another_grid_releases_the_buffers_of_the_last(self):
        rng = np.random.default_rng(5)
        for n in (16, 8):
            grid = Grid(3, n)
            cubic(Field(grid, rng.normal(size=grid.shape)))
        # only 2N half-cubes of the 8^3 grid are left
        assert {buf.size for buf in spectral._FREE} == {16 * 16 * 9}

    def test_a_tree_step_keeps_both_product_grids_of_its_grid(self):
        # the Wick powers run on 2N = 32 and the v_ref drift on M = 25, in
        # the same three 2N buffers, and a step allocates none after its
        # first; another grid drops them
        ev = TreeEvolver(Grid(3, 16), 0.05, NoiseStream(0))
        ev.step(0.05)
        buffers = [id(buf) for buf in spectral._FREE]
        assert [buf.size for buf in spectral._FREE] == [32 * 32 * 17] * 3
        ev.step(0.05)
        assert sorted(id(buf) for buf in spectral._FREE) == sorted(buffers)
        grid = Grid(3, 8)
        cubic(Field(grid, np.ones(grid.shape)))
        assert {buf.size for buf in spectral._FREE} == {16 * 16 * 9}

    def test_a_snapshot_holds_no_more_than_a_tree_step(self):
        # after a warm-up, the resonant products of every level and
        # |grad I2|^2 run inside the buffers of the tree step
        ev = TreeEvolver(Grid(3, 16), 0.05, NoiseStream(0), track_vref=True)
        ev.step(0.05)
        ev.step(0.05)
        after_step = pool_bytes()
        buffers = sorted(id(buf) for buf in spectral._FREE)
        ev.snapshot(with_resonants=True)
        assert pool_bytes() == after_step
        assert sorted(id(buf) for buf in spectral._FREE) == buffers

    def test_growing_grids_keep_only_buffers_of_the_largest(self):
        # after a change of N grid, the levels of a resonant product run on
        # growing grids: each larger half-cube drops the free buffers, and
        # a smaller buffer handed back is not kept
        cubic(Field(Grid(3, 8), np.ones((8,) * 3)))
        grid = Grid(3, 16)
        f = Field(grid, np.random.default_rng(9).normal(size=grid.shape))
        resonants((f, f))
        assert len(spectral._FREE) <= 3
        assert {buf.size for buf in spectral._FREE} == {25 * 25 * 13}

    def test_a_smaller_product_grid_first_leaves_no_buffer_of_its_size(self):
        # grad_dot runs on M = 25, then a tree step on 2N = 32: the M
        # buffers are dropped, and the step's three 2N buffers remain
        cubic(Field(Grid(3, 8), np.ones((8,) * 3)))
        grid = Grid(3, 16)
        rng = np.random.default_rng(10)
        a, b = (Field(grid, rng.normal(size=grid.shape)) for _ in range(2))
        grad_dot(a, b)
        TreeEvolver(grid, 0.05, NoiseStream(0)).step(0.05)
        assert [buf.size for buf in spectral._FREE] == [32 * 32 * 17] * 3

    @staticmethod
    def transient_peak(call) -> int:
        """Bytes that `call` has allocated at its peak beyond what it
        leaves allocated: its scratch, not its results."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = call()  # noqa: F841 (kept alive for the count)
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert now >= start
        return peak - now

    def test_steady_state_allocates_no_2n_array(self):
        """After a warm-up call, the scratch of `cubic` and of a tree step
        stays below one real 2N array: the 2N buffers are reused."""
        grid = Grid(3, 16)
        two_n_array = (2 * grid.n) ** grid.dim * 8
        f = Field(grid, np.random.default_rng(4).normal(size=grid.shape))
        f.half
        cubic(f)
        assert self.transient_peak(lambda: cubic(f)) < two_n_array
        ev = TreeEvolver(grid, 0.05, NoiseStream(0))
        ev.step(0.05)
        assert self.transient_peak(lambda: ev.step(0.05)) < two_n_array


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
