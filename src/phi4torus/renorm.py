"""Universal renormalization constants for the Phi^4_3 dynamics.

Closed forms on the 3-torus with heat regularization at scale r:

    a_r = r^{-1/2} / (4 sqrt(2) pi^{3/2}),
    b_r = |log r| / (32 pi^2),

entering the renormalized equation through the counterterm 3(a_r - b_r) u.
Their numerical counterparts are

  * a_numeric: the exact mode sum (1/L^d) sum_k e^{-2 r lam_k} / lam_k over
    the grid's frequency set, whose r -> 0 divergence has the universal
    r^{-1/2} coefficient above (small-time heat trace asymptotics);

  * b_numeric: the reduced scalar integral

        (4 pi)^{-3} int_0^1 da int_{[a+2r, oo)^2} (a s1 + a s2 + s1 s2)^{-3/2},

    whose |log r| slope is sunset/3 / (32 pi^2) with the exact sunset
    constant int_{[1,oo)^2} (alpha + beta + alpha beta)^{-3/2} = 2 pi / 3,
    so the slope equals 1/(96 pi^2).
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import Grid

__all__ = [
    "a_closed",
    "b_closed",
    "a_numeric",
    "mode_sum",
    "minimal_n_for",
    "sunset_constant",
    "b_numeric",
    "SUNSET_EXACT",
    "B_LOG_SLOPE",
]

SUNSET_EXACT = 2.0 * math.pi / 3.0
B_LOG_SLOPE = 1.0 / (96.0 * math.pi**2)


def a_closed(r: float) -> float:
    """a_r = r^{-1/2} / (4 sqrt(2) pi^{3/2})."""
    if not (r > 0):
        raise ValueError(f"r must be positive, got {r}")
    return r**-0.5 / (4.0 * math.sqrt(2.0) * math.pi**1.5)


def b_closed(r: float) -> float:
    """b_r = |log r| / (32 pi^2)."""
    if not (r > 0):
        raise ValueError(f"r must be positive, got {r}")
    return abs(math.log(r)) / (32.0 * math.pi**2)


def _quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first use: scipy.integrate loads
    scipy.optimize, scipy.linalg and scipy.sparse, which the rest of the
    package does not need."""
    from scipy import integrate

    return integrate.quad(*args, **kwargs)


def mode_sum(grid: Grid, r: float) -> float:
    """(1/L^d) sum_k e^{-2 r lam_k} / lam_k over the grid's frequency cube.

    Evaluated without building the d-dimensional mesh, via
    1/lam = int_0^oo e^{-s lam} ds and the separable theta sum
    theta(t) = sum_k e^{-t k^2} per axis:

        mode_sum = (1/L^d) int_{2r}^oo e^{-t} theta(t)^d dt.
    """
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    ksq = grid.axis_frequencies() ** 2

    def integrand(t):
        theta = np.exp(-t * ksq).sum()
        return math.exp(-t) * theta**grid.dim

    val, _ = _quad(
        integrand, 2.0 * r, np.inf, epsabs=1e-13, epsrel=1e-11, limit=400
    )
    return val / grid.volume


def minimal_n_for(r: float, grid: Grid) -> int:
    """Smallest power-of-two N whose corner mode satisfies
    e^{-2 r lam} <= 1e-12."""
    if not (r > 0):
        raise ValueError(f"r must be positive, got {r}")
    lam_needed = -math.log(1e-12) / (2.0 * r)
    kmax_needed = math.sqrt(max(lam_needed - 1.0, 0.0) / grid.dim)
    n_needed = kmax_needed * grid.period / math.pi
    n = 2
    while n < n_needed:
        n *= 2
    return n


def a_numeric(grid: Grid, r: float) -> float:
    """Exact lattice mode sum for E[X_r(x)^2] on a grid that resolves the
    continuum sum at this r: the corner mode's heat weight must be below
    1e-12, or the minimal sufficient N is reported.  mode_sum gives the sum
    on any grid, e.g. to compare against Monte Carlo statistics on the same
    coarse grid.
    """
    if not (r > 0):
        raise ValueError(f"r must be positive, got {r}")
    kmax = (grid.n / 2) * 2.0 * math.pi / grid.period
    lam_corner = 1.0 + grid.dim * kmax**2
    if math.exp(-2.0 * r * lam_corner) > 1e-12:
        raise ValueError(
            f"grid too coarse for r={r}: need N >= {minimal_n_for(r, grid)} "
            f"for the heat weight to decay below 1e-12 at the cutoff"
        )
    return mode_sum(grid, r)


def sunset_constant() -> float:
    """int_{[1,oo)^2} (alpha + beta + alpha beta)^{-3/2} dalpha dbeta.

    The inner beta-integral is analytic:
        int_1^oo (alpha + beta(1 + alpha))^{-3/2} dbeta
            = 2 / ((1 + alpha) sqrt(1 + 2 alpha)),
    and the remaining alpha-integral is evaluated by adaptive quadrature.
    The exact value is 2 pi / 3.
    """

    def inner(alpha):
        return 2.0 / ((1.0 + alpha) * math.sqrt(1.0 + 2.0 * alpha))

    val, _ = _quad(inner, 1.0, np.inf, epsabs=1e-12, epsrel=1e-10)
    return val


def check_b_numeric_r(r: float) -> None:
    """Raise ValueError unless r lies in (0, 0.1), the range of b_numeric."""
    if not (0 < r < 0.1):
        raise ValueError(f"r must lie in (0, 0.1), got {r}")


def b_numeric(r: float) -> float:
    """(4 pi)^{-3} int_0^1 da int_{[a+2r, oo)^2} (a s1 + a s2 + s1 s2)^{-3/2}.

    The inner s2-integral is analytic,
        int_m^oo (a s1 + s2 (a + s1))^{-3/2} ds2
            = 2 / ((a + s1) sqrt(a s1 + m (a + s1))),
    leaving a 2-d adaptive quadrature over (s1, a).  Asymptotically
    b_numeric(r) = |log r| / (96 pi^2) + O(1) = b_closed(r)/3 + O(1).
    """
    check_b_numeric_r(r)

    def s1_integral(a):
        m = a + 2.0 * r

        def integrand(s1):
            return 2.0 / ((a + s1) * math.sqrt(a * s1 + m * (a + s1)))

        val, _ = _quad(integrand, m, np.inf, epsabs=1e-12, epsrel=1e-9, limit=200)
        return val

    outer, _ = _quad(s1_integral, 0.0, 1.0, epsrel=1e-8, limit=200)
    return outer / (4.0 * math.pi) ** 3
