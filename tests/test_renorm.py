import math

import numpy as np
import pytest

from phi4torus.renorm import (
    B_LOG_SLOPE,
    SUNSET_EXACT,
    a_closed,
    a_numeric,
    b_closed,
    b_numeric,
    minimal_n_for,
    mode_sum,
    sunset_constant,
)
from phi4torus.spectral import Grid

from oracles import brute_mode_sum


class TestClosedForms:
    def test_a_closed_formula(self):
        r = 1e-3
        assert a_closed(r) == pytest.approx(
            r**-0.5 / (4.0 * math.sqrt(2.0) * math.pi**1.5), rel=1e-12
        )

    def test_a_closed_scaling(self):
        assert a_closed(1e-4) / a_closed(1e-2) == pytest.approx(10.0, rel=1e-12)

    def test_b_closed_formula(self):
        r = 1e-3
        assert b_closed(r) == pytest.approx(
            abs(math.log(r)) / (32.0 * math.pi**2), rel=1e-12
        )

    def test_rejects_nonpositive_r(self):
        for fn in (a_closed, b_closed, b_numeric):
            with pytest.raises(ValueError):
                fn(0.0)
            with pytest.raises(ValueError):
                fn(-1.0)


class TestModeSum:
    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8), (3, 8)])
    def test_matches_brute_force(self, dim, n):
        grid = Grid(dim=dim, n=n)
        r = 0.05
        want = brute_mode_sum(n, dim, grid.period, r)
        assert mode_sum(grid, r) == pytest.approx(want, rel=1e-10)

    def test_nondefault_period(self):
        grid = Grid(dim=2, n=8, period=4.0)
        r = 0.1
        want = brute_mode_sum(8, 2, 4.0, r)
        assert mode_sum(grid, r) == pytest.approx(want, rel=1e-10)

    def test_converges_to_closed_form(self):
        """On resolved grids mode_sum = a_closed + O(1); the divergent part
        dominates as r -> 0, so the relative gap shrinks."""
        grid = Grid(dim=3, n=64)
        rel_gap = lambda r: abs(mode_sum(grid, r) - a_closed(r)) / a_closed(r)
        assert rel_gap(1e-3) < 0.1
        assert rel_gap(1e-3) < rel_gap(2e-2)

    def test_lattice_constant_is_stable(self):
        """The O(1) part mode_sum - a_closed converges as the grid refines."""
        r = 5e-3
        g32 = mode_sum(Grid(dim=3, n=32), r) - a_closed(r)
        g64 = mode_sum(Grid(dim=3, n=64), r) - a_closed(r)
        assert abs(g64 - g32) < 0.02

    def test_monotone_in_r(self):
        grid = Grid(dim=3, n=16)
        values = [mode_sum(grid, r) for r in (0.01, 0.05, 0.1)]
        assert values[0] > values[1] > values[2]


class TestANumeric:
    def test_equals_mode_sum_when_converged(self):
        grid = Grid(dim=3, n=32)
        r = 0.05
        assert minimal_n_for(r, grid) <= 32
        assert a_numeric(grid, r) == pytest.approx(mode_sum(grid, r), rel=1e-12)

    def test_refuses_unresolved_grid(self):
        grid = Grid(dim=3, n=8)
        with pytest.raises(ValueError):
            a_numeric(grid, 1e-4)

    def test_unconverged_override(self):
        """mode_sum gives the lattice sum on a grid that a_numeric refuses;
        the coarse grid holds fewer of its positive terms."""
        grid = Grid(dim=3, n=8)
        with pytest.raises(ValueError, match="grid too coarse"):
            a_numeric(grid, 1e-4)
        assert 0 < mode_sum(grid, 1e-4) < mode_sum(Grid(dim=3, n=32), 1e-4)

    def test_minimal_n_decreases_with_r(self):
        grid = Grid(dim=3, n=16)
        assert minimal_n_for(0.1, grid) <= minimal_n_for(0.001, grid)

    @pytest.mark.parametrize("r", [0.0, -0.01])
    def test_minimal_n_refuses_non_positive_r(self, r):
        with pytest.raises(ValueError, match="r must be positive"):
            minimal_n_for(r, Grid(dim=3, n=16))


class TestSunset:
    def test_exact_value(self):
        assert SUNSET_EXACT == pytest.approx(2.0 * math.pi / 3.0, rel=1e-15)

    def test_quadrature_matches_exact(self):
        assert sunset_constant() == pytest.approx(SUNSET_EXACT, abs=1e-6)

    def test_b_log_slope(self):
        assert B_LOG_SLOPE == pytest.approx(1.0 / (96.0 * math.pi**2), rel=1e-15)


class TestBNumeric:
    def test_log_divergence_slope(self):
        """b_numeric(r) = B_LOG_SLOPE |log r| + O(1): the slope of the fit
        over two decades matches to 3%."""
        rs = np.geomspace(1e-4, 1e-2, 9)
        bs = np.array([b_numeric(r) for r in rs])
        slope = np.polyfit(np.abs(np.log(rs)), bs, 1)[0]
        assert slope == pytest.approx(B_LOG_SLOPE, rel=0.03)

    def test_diverges_as_r_shrinks(self):
        assert b_numeric(1e-5) > b_numeric(1e-3) > b_numeric(5e-2)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            b_numeric(0.5)

    def test_intercept_is_order_one(self):
        """Subtracting the log part leaves a bounded constant."""
        consts = [
            b_numeric(r) - B_LOG_SLOPE * abs(math.log(r))
            for r in (1e-5, 1e-4, 1e-3)
        ]
        assert max(consts) - min(consts) < 5e-4
