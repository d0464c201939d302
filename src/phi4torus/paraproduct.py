"""Littlewood-Paley blocks, paraproducts, Besov norms and regularity fits.

Blocks use sharp Fourier cutoffs on dyadic annuli of physical frequency
magnitude |k|:

    A_{-1} = { |k| <= 1 },      A_j = { 2^{j-1} < |k| <= 2^j },  j >= 0,

which partition the grid's frequency set exactly, so the reconstruction
sum_j Delta_j f = f and the block orthogonality Delta_j Delta_k = 0 (j != k)
hold to rounding.  Paraproducts follow the standard frequency sorting

    a < b  = sum_{j < k-1} Delta_j a Delta_k b        (low-high)
    a o b  = sum_{|j-k| <= 1} Delta_j a Delta_k b     (resonant)
    a > b  = sum_{k < j-1} Delta_j a Delta_k b        (high-low)

and a<b + a o b + a>b = a b exactly; all pairwise block products are
dealiased by 2x zero padding, consistently with the plain product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import Field, Grid, dealiased_sum, half_cube, lp_norm

__all__ = [
    "BlockDecomposition",
    "lp_block",
    "block_fields",
    "paraproduct",
    "resonant",
    "product_decomposition",
    "besov_norm",
    "block_norms",
    "weigh_blocks",
    "estimate_regularity",
    "RegularityFit",
]


@dataclass(frozen=True)
class BlockDecomposition:
    """Sharp-cutoff dyadic annuli on a grid's frequency set."""

    grid: Grid

    @property
    def j_max(self) -> int:
        """Largest level with a non-empty annulus on this grid."""
        kmax = math.sqrt(half_cube(self.grid).k_squared.max())
        return max(0, math.ceil(math.log2(kmax))) if kmax > 1 else 0

    @property
    def j_complete(self) -> int:
        """Largest level whose annulus lies inside the axis Nyquist ball and
        is therefore not truncated by the frequency cube's corners."""
        k_nyquist = (self.grid.n / 2) * 2.0 * np.pi / self.grid.period
        return int(math.floor(math.log2(k_nyquist)))


def _annuli(kmag: np.ndarray, j_max: int) -> list[np.ndarray]:
    """Boolean annulus masks indexed [j+1] for j = -1 .. j_max.

    The base block collects |k| <= 1 and each annulus A_j the shell
    2^{j-1} < |k| <= 2^j (clipped below at 1 so the levels partition the
    frequency set exactly).
    """
    out = [kmag <= 1.0]
    for j in range(j_max + 1):
        lo = max(2.0 ** (j - 1), 1.0)
        out.append((kmag > lo) & (kmag <= 2.0**j))
    return out


@functools.cache
def _half_masks(grid: Grid) -> list[np.ndarray]:
    """The annulus masks over the grid's half-cube."""
    kmag = np.sqrt(half_cube(grid).k_squared)
    return _annuli(kmag, BlockDecomposition(grid).j_max)


def lp_block(f: Field, j: int) -> Field:
    """Littlewood-Paley block Delta_j f (sharp annulus restriction)."""
    if j < -1:
        raise ValueError(f"block level must be >= -1, got {j}")
    masks = _half_masks(f.grid)
    if j + 1 >= len(masks):
        return Field.zeros(f.grid)
    return Field.from_half(f.grid, f.half * masks[j + 1])


def block_fields(f: Field) -> list[Field]:
    """All blocks [Delta_{-1} f, Delta_0 f, ...] covering the grid."""
    return [Field.from_half(f.grid, f.half * mask) for mask in _half_masks(f.grid)]


def product_decomposition(a: Field, b: Field) -> tuple[Field, Field, Field]:
    """(a<b, a o b, a>b) with dealiased block products.

    Computed with running low-pass sums so the cost is O(j_max) products:
        a<b = sum_k (S_{k-2} a) (Delta_k b),   S_j = sum_{i<=j} Delta_i.
    """
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    grid = a.grid
    blocks_a = block_fields(a)
    blocks_b = block_fields(b)
    nlev = len(blocks_a)

    lo = Field.zeros(grid)
    los_a = []  # los_a[k] = S_{k-1} a = sum of blocks strictly below level index k
    for ba in blocks_a:
        los_a.append(lo)
        lo = lo + ba
    lo = Field.zeros(grid)
    los_b = []
    for bb in blocks_b:
        los_b.append(lo)
        lo = lo + bb

    if nlev > 2:
        para_ab = dealiased_sum(*((los_a[k - 1], blocks_b[k]) for k in range(2, nlev)))
        para_ba = dealiased_sum(*((blocks_a[k], los_b[k - 1]) for k in range(2, nlev)))
    else:
        para_ab = para_ba = Field.zeros(grid)
    return para_ab, _resonant_sum(blocks_a, blocks_b), para_ba


def _resonant_sum(blocks_a: list[Field], blocks_b: list[Field]) -> Field:
    """sum_k Delta_k a (Delta_{k-1} b + Delta_k b + Delta_{k+1} b)."""
    nlev = len(blocks_a)
    pairs = []
    for k in range(nlev):
        near = blocks_b[k]
        if k > 0:
            near = near + blocks_b[k - 1]
        if k + 1 < nlev:
            near = near + blocks_b[k + 1]
        pairs.append((blocks_a[k], near))
    return dealiased_sum(*pairs)


def paraproduct(a: Field, b: Field) -> Field:
    """Low-high paraproduct a < b."""
    return product_decomposition(a, b)[0]


def resonant(a: Field, b: Field) -> Field:
    """Resonant product a o b."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    return _resonant_sum(block_fields(a), block_fields(b))


def block_norms(f: Field, p: float = np.inf) -> list[float]:
    """[||Delta_j f||_{L^p} for j = -1, 0, 1, ...]: the block norms every
    Besov norm of f with this p weighs."""
    return [lp_norm(bj, p) for bj in block_fields(f)]


def weigh_blocks(norms, gamma: float, q: float = np.inf) -> float:
    """l^q over j of 2^{j gamma} norms[j + 1], the Besov norm B^gamma_{p,q}
    from the block norms of block_norms(f, p)."""
    if not 1 <= q <= np.inf:
        raise ValueError("q must lie in [1, inf]")
    arr = np.array([2.0 ** (j * gamma) * nj for j, nj in enumerate(norms, start=-1)])
    if q == np.inf:
        return float(arr.max())
    return float((arr**q).sum() ** (1.0 / q))


def besov_norm(f: Field, gamma: float, p: float = np.inf, q: float = np.inf) -> float:
    """Besov norm B^gamma_{p,q}: l^q over j of 2^{j gamma} ||Delta_j f||_{L^p}."""
    if not (1 <= p <= np.inf and 1 <= q <= np.inf):
        raise ValueError("p, q must lie in [1, inf]")
    return weigh_blocks(block_norms(f, p), gamma, q)


@dataclass(frozen=True)
class RegularityFit:
    gamma_hat: float
    stderr: float
    levels: list[int]
    log2_energy: list[float]
    slope: float

    def __str__(self):
        return f"gamma_hat = {self.gamma_hat:+.3f} +/- {self.stderr:.3f} (levels {self.levels})"


def estimate_regularity(samples, j_min: int = 2, j_max: int | None = None) -> RegularityFit:
    """Estimate the Holder-Besov exponent of a stationary random field.

    Fits the least-squares slope of log2 E[(Delta_j u)(x)^2] against j over
    a mid-frequency window; the expectation combines ensemble and spatial
    averaging (the fields are stationary on the torus).  Reports
    gamma_hat = -slope/2 with the regression standard error.

    The window defaults to [j_min, j_complete], excluding the top levels
    whose annuli are truncated by the corners of the frequency cube and
    therefore contaminated by the grid cutoff.
    """
    samples = list(samples)
    if len(samples) < 16:
        raise ValueError(f"need at least 16 samples, got {len(samples)}")
    grid = samples[0].grid
    decomp = BlockDecomposition(grid)
    j_hi = decomp.j_complete if j_max is None else min(j_max, decomp.j_max)
    levels = list(range(j_min, j_hi + 1))
    if len(levels) < 4:
        raise ValueError(
            f"only {len(levels)} usable levels on this grid; need at least 4"
        )
    energies = np.zeros(len(levels))
    for f in samples:
        for i, j in enumerate(levels):
            energies[i] += (lp_block(f, j).values ** 2).mean()
    energies /= len(samples)
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
        slope=slope,
    )
