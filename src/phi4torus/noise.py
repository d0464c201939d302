"""Space-time white noise with heat regularization and the exact OU update.

The driving noise is space-time white noise xi regularized in space only,
xi_r = e^{-rP} xi.  The stationary stochastic convolution

    X = Linv_stat(sqrt(2) xi_r),      (d/dt + P) X = sqrt(2) xi_r,

is an Ornstein-Uhlenbeck process per Fourier mode.  With the normalization
that white noise has covariance <f, g>_{L^2(T^d_L)}, the spectral
coefficients c_k of X satisfy exactly

    c_k(t + dt) = e^{-dt lam_k} c_k(t) + sigma_k g_k,
    sigma_k^2   = e^{-2 r lam_k} (1 - e^{-2 dt lam_k}) / (lam_k L^d),

with g_k standard complex Gaussians, Hermitian-paired so the field is real.
The stationary mode variance is e^{-2 r lam_k} / (lam_k L^d) and hence
E[X(x)^2] = (1/L^d) sum_k e^{-2 r lam_k}/lam_k, matching renorm.a_numeric.

Randomness is counter-based: identical (seed, stream, step) triples always
yield identical Gaussian draws, and distinct streams are independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import Field, Grid, half_cube

__all__ = [
    "NoiseStream",
    "ou_exact_step",
    "ou_increment_coefficients",
    "ou_noise_field",
    "ou_transition",
    "sample_stationary",
]


@dataclass
class NoiseStream:
    """Counter-based Gaussian noise source for one trajectory.

    Draws are a pure function of (seed, stream, step): the generator is
    re-keyed from those three integers for every draw, so trajectories are
    reproducible and parallelizable without shared state.
    """

    seed: int
    stream: int = 0
    step: int = field(default=0)

    def normals(self, shape, step: int | None = None) -> np.ndarray:
        """Standard normal array for the given step (defaults to the internal
        counter, which then advances)."""
        if step is None:
            step = self.step
            self.step += 1
        bitgen = np.random.Philox(key=np.uint64(self.seed), counter=[0, 0, np.uint64(self.stream), np.uint64(step)])
        return np.random.Generator(bitgen).standard_normal(shape)

    def child(self, stream: int) -> "NoiseStream":
        return NoiseStream(self.seed, stream)


def _colored_gaussian(grid: Grid, mode_variance: np.ndarray, g: np.ndarray) -> Field:
    """Real Gaussian field whose spectral coefficients c_k have variance
    mode_variance[k] (over the half-cube), built by filtering physical white
    noise.

    The coefficients of iid N(0,1) physical noise are independent complex
    Gaussians (up to the Hermitian pairing) with E|.|^2 = 1/N^d, so scaling
    by sqrt(variance N^d) yields the target spectrum with exact symmetry.
    """
    ghat = Field(grid, g.copy()).half
    return Field.from_half(grid, ghat * np.sqrt(mode_variance * grid.cell_count))


def ou_increment_coefficients(grid: Grid, dt: float, r: float):
    """(decay, noise mode variance) of the exact OU transition over dt, over
    the grid's half-cube."""
    lam = half_cube(grid).eigenvalues
    decay = np.exp(-dt * lam)
    var = np.exp(-2.0 * r * lam) * (1.0 - decay**2) / (lam * grid.volume)
    return decay, var


def ou_noise_field(grid: Grid, dt: float, r: float, g: np.ndarray) -> Field:
    """The stochastic-convolution increment int_0^dt e^{-(dt-s)P} sqrt(2) dxi_r
    built from a given standard-normal array g.

    Sharing g between the OU update of X and a Duhamel step of u drives both
    with the identical noise realization.
    """
    _, var = ou_increment_coefficients(grid, dt, r)
    return _colored_gaussian(grid, var, g)


def ou_transition(X: Field, noise: Field, dt: float) -> Field:
    """e^{-dt P} X + noise: the exact OU update of X given the increment
    field over the step (see ou_noise_field)."""
    decay = np.exp(-dt * half_cube(X.grid).eigenvalues)
    return Field.from_half(X.grid, decay * X.half + noise.half)


def ou_exact_step(X: Field, dt: float, r: float, stream: NoiseStream) -> Field:
    """Exact transition of (d/dt + P) X = sqrt(2) xi_r over a step dt."""
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    grid = X.grid
    noise = ou_noise_field(grid, dt, r, stream.normals(grid.shape))
    return ou_transition(X, noise, dt)


def sample_stationary(grid: Grid, r: float, stream: NoiseStream) -> Field:
    """Draw X from its exact stationary law: mode variance
    e^{-2 r lam_k} / (lam_k L^d)."""
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    lam = half_cube(grid).eigenvalues
    var = np.exp(-2.0 * r * lam) / (lam * grid.volume)
    return _colored_gaussian(grid, var, stream.normals(grid.shape))
