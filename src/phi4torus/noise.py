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
The factors e^{-dt lam} and e^{-2 r lam} come from the spectral core's
cached semigroup, and the amplitudes sigma_k N^{d/2} are cached per
(grid, dt, r); the stationary law is the transition over dt = inf.

Randomness is counter-based: identical (seed, stream, step) triples always
yield identical Gaussian draws, and distinct streams are independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import Field, Grid, half_cube, semigroup

__all__ = [
    "NoiseStream",
    "ou_amplitude",
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


@functools.lru_cache(maxsize=8)
def ou_amplitude(grid: Grid, dt: float, r: float) -> np.ndarray:
    """sqrt(sigma_k^2 N^d) over the half-cube, read-only and cached: the
    amplitude that colors white noise into the OU increment over dt.  At
    dt = inf it is the amplitude of the stationary law."""
    lam = half_cube(grid).eigenvalues
    decay = semigroup(grid, dt).decay
    var = semigroup(grid, 2.0 * r).decay * (1.0 - decay**2) / (lam * grid.volume)
    amplitude = np.sqrt(var * grid.cell_count)
    amplitude.setflags(write=False)
    return amplitude


def ou_noise_field(grid: Grid, dt: float, r: float, g: np.ndarray) -> Field:
    """The stochastic-convolution increment int_0^dt e^{-(dt-s)P} sqrt(2) dxi_r
    built from a standard-normal array g, and at dt = inf a draw of the
    stationary law.  The coefficients of g are independent complex
    Gaussians (up to the Hermitian pairing) with E|.|^2 = 1/N^d, so the
    amplitude gives them the increment's spectrum with exact symmetry.
    Sharing g between the OU update of X and a Duhamel step of u drives both
    with the identical noise realization."""
    ghat = Field(grid, g.copy()).half
    return Field.from_half(grid, ghat * ou_amplitude(grid, dt, r))


def ou_transition(X: Field, noise: Field, dt: float) -> Field:
    """e^{-dt P} X + noise: the exact OU update of X given the increment
    field over the step (see ou_noise_field)."""
    decay = semigroup(X.grid, dt).decay
    return Field.from_half(X.grid, decay * X.half + noise.half)


def sample_stationary(grid: Grid, r: float, stream: NoiseStream) -> Field:
    """Draw X from its exact stationary law: mode variance
    e^{-2 r lam_k} / (lam_k L^d)."""
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    return ou_noise_field(grid, math.inf, r, stream.normals(grid.shape))
