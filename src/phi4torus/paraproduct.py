"""Littlewood-Paley blocks, paraproducts, Besov norms and regularity fits.

Blocks use sharp Fourier cutoffs on dyadic annuli of physical frequency
magnitude |k|:

    A_{-1} = { |k| <= 1 },      A_j = { max(2^{j-1}, 1) < |k| <= 2^j },  j >= 0,

which partition the grid's frequency set exactly (A_0 is empty), so the
reconstruction sum_j Delta_j f = f and the block orthogonality
Delta_j Delta_k = 0 (j != k) hold to rounding.  The spectral core splits
into blocks: it gives each mode its level and lists the levels that hold a
mode (`HalfCube.levels`, `HalfCube.held`), and every restriction here is a
`spectral.Band` Delta_lo + ... + Delta_hi: a block is the band from j to j,
a near sum the band from j-1 to j+1 and the low-pass S_j the band from -1
to j.  No band is built as a field here except a block whose norm is read
(`block_norms`, one inverse transform per block that holds a mode).
Paraproducts follow the standard frequency sorting

    a < b  = sum_{j < k-1} Delta_j a Delta_k b        (low-high)
    a o b  = sum_{|j-k| <= 1} Delta_j a Delta_k b     (resonant)
    a > b  = sum_{k < j-1} Delta_j a Delta_k b        (high-low)

and a<b + a o b + a>b = a b exactly.  Every block product is a product of
bands, padded straight from its factors' coefficients.  The products of a<b
(and of a>b) form one sum, on the smallest alias-free grid for its widest
term, S_{j_max - 2} a Delta_{j_max} b, no larger than the grid of two
fields, since the low-pass reaches less than N/2.  Those of a o b are
formed one level at a time, each on the smallest alias-free grid for its
bands, and added in coefficient space (`resonants`): a level's factors
reach far less than N/2 below the top levels, and their product grids hold
about half the points of the two-factor grid.  The sums run over the
levels that hold a mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Band, Field, Grid, dealiased_sums, half_cube, lp_norm

__all__ = [
    "resonants",
    "product_decomposition",
    "besov_norm",
    "block_norms",
    "weigh_blocks",
    "estimate_regularity",
    "regularity_window",
    "RegularityFit",
]


def product_decomposition(a: Field, b: Field) -> tuple[Field, Field, Field]:
    """(a<b, a o b, a>b) with dealiased block products, where
        a<b = sum_k (S_{k-2} a) (Delta_k b),   S_j = Delta_{-1} + ... + Delta_j,
    so the cost is O(j_max) products."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    held = half_cube(a.grid).held
    # S_{k-2} ends at the largest held level <= k - 2, so that low-pass
    # bands of the same modes are one factor, padded once
    low = {k: max(j for j in held if j <= k - 2) for k in held if k > 0}

    def para(x, y):  # x < y
        terms = [(Band(x, -1, top), Band(y, k, k)) for k, top in low.items()]
        return dealiased_sums(terms)[0] if terms else Field.zeros(x.grid)

    return para(a, b), resonants((a, b))[0], para(b, a)


def resonants(*pairs) -> list[Field]:
    """[a o b for a, b in pairs], where
    a o b = sum_k Delta_k a (Delta_{k-1} b + Delta_k b + Delta_{k+1} b),
    formed one level k at a time.  The sum runs over the levels that hold
    a mode.  A level's products run on the smallest alias-free grid for
    its bands (`spectral.Band`): 5, 15, 25, 45, 50 and 50 points per axis
    for the six levels at N = 32.  Each is truncated on its own, and the
    levels are added in coefficient space.  At each level every distinct
    block of a left factor and near sum of a right factor is padded once,
    straight from the factor's coefficients, across all the products, and
    its buffer is released after its last use.  A level of the three pairs
    of a tree snapshot holds at most three buffers at once, as many as a
    tree step."""
    if not pairs:
        raise ValueError("no sums to form")
    # each level's dealiased_sums refuses fields of different grids
    grid = pairs[0][0].grid
    totals = [Field.zeros(grid) for _ in pairs]
    for k in half_cube(grid).held:
        level = dealiased_sums(*[[(Band(a, k, k), Band(b, k - 1, k + 1))] for a, b in pairs])
        totals = [total + f for total, f in zip(totals, level)]
    return totals


def block_norms(f: Field, p: float = np.inf) -> list[float]:
    """[||Delta_j f||_{L^p} for j = -1, 0, 1, ..., j_max]: the block norms
    every Besov norm of f with this p weighs, up to the largest level j_max
    that holds a mode (0 if none does).  A level that holds no mode (level 0
    always) gives 0.0 without building its block."""
    held = half_cube(f.grid).held
    return [lp_norm(Band(f, j, j).as_field(), p) if j in held else 0.0
            for j in range(-1, max(held[-1], 0) + 1)]


def weigh_blocks(norms, gamma: float) -> float:
    """sup over j of 2^{j gamma} norms[j + 1], the Besov norm B^gamma_{p,inf}
    from the block norms of block_norms(f, p)."""
    return float(np.max([2.0 ** (j * gamma) * nj for j, nj in enumerate(norms, start=-1)]))


def besov_norm(f: Field, gamma: float, p: float = np.inf) -> float:
    """Besov norm B^gamma_{p,inf}: sup over j of 2^{j gamma} ||Delta_j f||_{L^p}."""
    if not 1 <= p <= np.inf:
        raise ValueError("p must lie in [1, inf]")
    return weigh_blocks(block_norms(f, p), gamma)


@dataclass(frozen=True)
class RegularityFit:
    gamma_hat: float
    stderr: float
    levels: list[int]
    log2_energy: list[float]

    def __str__(self):
        return f"gamma_hat = {self.gamma_hat:+.3f} +/- {self.stderr:.3f} (levels {self.levels})"


def regularity_window(grid: Grid, n_samples: int, j_min: int) -> list[int]:
    """The levels that estimate_regularity fits for n_samples fields on the
    grid: those from j_min to j_complete that hold a mode (level 0 never
    does), excluding the top levels whose annuli are truncated by the
    corners of the frequency cube and therefore contaminated by the grid
    cutoff.  Raises ValueError for fewer than 16 samples or 4 levels, so
    that a caller can refuse before it builds the samples."""
    if n_samples < 16:
        raise ValueError(f"need at least 16 samples, got {n_samples}")
    # j_complete: the largest level whose annulus lies inside the axis
    # Nyquist ball, so that the frequency cube's corners do not truncate it
    j_hi = math.floor(math.log2((grid.n / 2) * 2.0 * np.pi / grid.period))
    levels = [j for j in half_cube(grid).held if j_min <= j <= j_hi]
    if len(levels) < 4:
        raise ValueError(
            f"only {len(levels)} usable levels on this grid; need at least 4"
        )
    return levels


def estimate_regularity(samples, j_min: int) -> RegularityFit:
    """Estimate the Holder-Besov exponent of a stationary random field from
    an iterable of sample fields, read once, each reduced as it arrives.

    Fits the least-squares slope of log2 E[(Delta_j u)(x)^2] against j over
    a mid-frequency window; the expectation combines ensemble and spatial
    averaging (the fields are stationary on the torus).  Reports
    gamma_hat = -slope/2 with the regression standard error.

    By Parseval the spatial mean of (Delta_j u)^2 is the sum of |c_k|^2 over
    the modes of level j, so the energies come from the half-cube
    coefficients and the level table without a transform: a last-axis
    column other than 0 and N/2 stands for itself and its conjugate mirror,
    and weighs twice.  The levels are those of regularity_window.
    """
    # every level's energy summed over the samples as they arrive; the
    # sample floor refuses an empty iterable before the grid is read
    grid, count, total = None, 0, 0.0
    for f in samples:
        grid, count = f.grid, count + 1
        energy = np.abs(f.half) ** 2
        energy[..., 1:-1] *= 2.0  # the columns other than 0 and N/2
        total = total + np.bincount(half_cube(grid).levels.ravel() + 1, energy.ravel())
    levels = regularity_window(grid, count, j_min)
    energies = total[np.array(levels) + 1] / count
    y = np.log2(energies)
    x = np.array(levels, dtype=float)
    # least squares y = slope*x + c with standard error of the slope
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    dof = len(x) - 2
    if dof > 0 and res.size:
        s2 = float(res[0]) / dof
        sxx = float(((x - x.mean()) ** 2).sum())
        stderr_slope = math.sqrt(s2 / sxx)
    else:
        stderr_slope = 0.0
    return RegularityFit(
        gamma_hat=-slope / 2.0,
        stderr=stderr_slope / 2.0,
        levels=levels,
        log2_energy=[float(v) for v in y],
    )
