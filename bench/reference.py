"""Reference computations for the benchmark's output checks.

Written in plain numpy from the documented conventions, without importing
any of the program's numerical helpers, so that a fault in the program's
spectral core, paraproducts or integrator cannot hide itself in the check.
The only program object used is the Gaussian input of the u-step, which the
program's counter-based `NoiseStream(seed, stream).normals(shape, step=k)`
fixes as a pure function of (seed, stream, step); it is passed in as an array.

Conventions (3-torus of period L with N points per axis):
  * c_k = fftn(u) / N^3 and u = Re ifftn(c * N^3), frequencies 2 pi k / L with
    k the FFT-ordered signed integers of `fftfreq(N) * N`;
  * lambda_k = 1 + |k|^2 is the symbol of P = 1 - Delta;
  * products are dealiased by zero-padding to 2N per axis and truncating back
    to the signed frequencies of `fftfreq(N) * N`;
  * Littlewood-Paley blocks are sharp annuli: A_{-1} = {|k| <= 1} and
    A_j = {max(2^{j-1}, 1) < |k| <= 2^j} for j = 0 .. ceil(log2 max|k|).
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

FIELD_MAGIC = b"PHI4FLD1"
HEADER = struct.Struct("<8sIId8s")  # magic, dim, N, period, reserved


def read_field(path) -> tuple[float, np.ndarray]:
    """Read a `.field` file: a 32-byte little-endian header (magic
    "PHI4FLD1", uint32 dim, uint32 N, float64 period, 8 reserved zero bytes)
    followed by N^dim float64 values in C order.  Returns (period, values)."""
    raw = Path(path).read_bytes()
    if len(raw) < HEADER.size:
        raise ValueError(f"{path}: shorter than the field header")
    magic, dim, n, period, reserved = HEADER.unpack_from(raw)
    if magic != FIELD_MAGIC or reserved != bytes(8):
        raise ValueError(f"{path}: bad field header")
    if not 1 <= dim <= 3 or n < 2:
        raise ValueError(f"{path}: bad grid dim={dim} N={n}")
    if len(raw) != HEADER.size + 8 * n**dim:
        raise ValueError(f"{path}: {len(raw)} bytes does not fit N={n}, dim={dim}")
    values = np.frombuffer(raw, dtype="<f8", offset=HEADER.size).reshape((n,) * dim)
    return period, values.astype(np.float64)


# -- spectral conventions ---------------------------------------------------


def signed_modes(n: int) -> np.ndarray:
    return (np.fft.fftfreq(n) * n).round().astype(int)


def wavevectors(n: int, period: float) -> list[np.ndarray]:
    k = signed_modes(n) * (2.0 * math.pi / period)
    return list(np.meshgrid(k, k, k, indexing="ij"))


def eigenvalues(n: int, period: float) -> np.ndarray:
    return 1.0 + sum(km**2 for km in wavevectors(n, period))


def to_spectral(u: np.ndarray) -> np.ndarray:
    return np.fft.fftn(u) / u.size


def to_physical(c: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(c * c.size).real


def _padded_index(n: int, m: int):
    idx = signed_modes(n) % m
    return np.ix_(idx, idx, idx)


def padded_physical(u: np.ndarray, m: int) -> np.ndarray:
    """Values of the trigonometric interpolant of u on the finer m^3 grid."""
    n = u.shape[0]
    big = np.zeros((m, m, m), dtype=complex)
    big[_padded_index(n, m)] = to_spectral(u)
    return to_physical(big)


def from_padded_physical(vals: np.ndarray, n: int) -> np.ndarray:
    m = vals.shape[0]
    return to_physical(to_spectral(vals)[_padded_index(n, m)])


def dealiased_product(*factors: np.ndarray) -> np.ndarray:
    """Product of up to three fields, formed on the 2N grid and truncated."""
    n = factors[0].shape[0]
    prod = np.ones((2 * n,) * 3)
    for u in factors:
        prod = prod * padded_physical(u, 2 * n)
    return from_padded_physical(prod, n)


def grad_squared(u: np.ndarray, period: float) -> np.ndarray:
    """|grad u|^2 with spectral derivatives and dealiased squares."""
    c = to_spectral(u)
    total = np.zeros_like(u)
    for km in wavevectors(u.shape[0], period):
        du = to_physical(1j * km * c)
        total = total + dealiased_product(du, du)
    return total


# -- Littlewood-Paley analysis ----------------------------------------------


def annulus_masks(n: int, period: float) -> list[np.ndarray]:
    kmag = np.sqrt(eigenvalues(n, period) - 1.0)
    kmax = kmag.max()
    j_max = max(0, math.ceil(math.log2(kmax))) if kmax > 1 else 0
    masks = [kmag <= 1.0]
    for j in range(j_max + 1):
        masks.append((kmag > max(2.0 ** (j - 1), 1.0)) & (kmag <= 2.0**j))
    return masks


def blocks(u: np.ndarray, period: float) -> list[np.ndarray]:
    """Spectra of Delta_{-1} u, Delta_0 u, ..."""
    c = to_spectral(u)
    return [c * m for m in annulus_masks(u.shape[0], period)]


def resonant(a: np.ndarray, b: np.ndarray, period: float) -> np.ndarray:
    """a o b = sum over |i - j| <= 1 of Delta_i a Delta_j b, every block
    product dealiased on the 2N grid (the sum is formed there, then truncated
    once)."""
    n = a.shape[0]
    m = 2 * n
    idx = _padded_index(n, m)

    def fine(spec):
        big = np.zeros((m, m, m), dtype=complex)
        big[idx] = spec
        return to_physical(big)

    ba = [fine(s) for s in blocks(a, period)]
    bb = [fine(s) for s in blocks(b, period)]
    total = np.zeros((m, m, m))
    for i, block in enumerate(ba):
        near = sum(bb[j] for j in (i - 1, i, i + 1) if 0 <= j < len(bb))
        total += block * near
    return from_padded_physical(total, n)


def besov_inf(u: np.ndarray, gamma: float, period: float) -> float:
    """B^gamma_{inf,inf} norm: max over j >= -1 of 2^{j gamma} sup|Delta_j u|."""
    return max(
        2.0 ** (j * gamma) * float(np.abs(to_physical(s)).max())
        for j, s in enumerate(blocks(u, period), start=-1)
    )


def weighted_norm(times, fields, alpha: float, beta: float, period: float) -> float:
    """max( sup_{t>0} t^alpha ||u(t)||_{B^beta_inf,inf},
            sup_{s<t} ||t^alpha u(t) - s^alpha u(s)||_inf / |t-s|^{beta/2} )."""
    sup_besov = max(t**alpha * besov_inf(u, beta, period)
                    for t, u in zip(times, fields) if t > 0)
    w = [t**alpha * u for t, u in zip(times, fields)]
    sup_holder = max(
        float(np.abs(w[j] - w[i]).max()) / abs(times[j] - times[i]) ** (beta / 2.0)
        for i in range(len(w)) for j in range(i + 1, len(w))
    )
    return max(sup_besov, sup_holder)


# -- renormalization constants and free-field statistics --------------------


def a_r(r: float) -> float:
    """a_r = r^{-1/2} / (4 sqrt(2) pi^{3/2})."""
    return r**-0.5 / (4.0 * math.sqrt(2.0) * math.pi**1.5)


def b_r(r: float) -> float:
    """b_r = |log r| / (32 pi^2)."""
    return abs(math.log(r)) / (32.0 * math.pi**2)


def free_field_x2(n: int, period: float, r: float) -> tuple[float, float]:
    """Mean and standard deviation of the spatial mean of X^2 for the
    stationary free field with mode variances v_k = e^{-2 r lam_k}/(lam_k L^3).

    The spatial mean of X^2 is sum_k |c_k|^2 (Parseval), with mean sum_k v_k.
    Each Hermitian pair contributes 2|c_k|^2, an exponential variable of
    variance 4 v_k^2, and each self-conjugate mode a chi-square of variance
    2 v_k^2; either way the variance is 2 sum_k v_k^2.
    """
    lam = eigenvalues(n, period)
    v = np.exp(-2.0 * r * lam) / (lam * period**3)
    return float(v.sum()), float(math.sqrt(2.0 * (v**2).sum()))


# -- one exponential-Euler step of the u-equation ---------------------------


def u_step(u: np.ndarray, g: np.ndarray, period: float, r: float, dt: float,
           coupling: float = 1.0) -> np.ndarray:
    """One step of (d/dt + P) u = sqrt(2) xi_r - c u^3 + (3 c a_r - 3 c^2 b_r) u
    with the drift frozen at the step's start:

        u' = e^{-dt lam} u + (1 - e^{-dt lam}) / lam * drift + noise,

    where the noise increment has coefficients fftn(g) sqrt(var_k / N^3),
    var_k = e^{-2 r lam_k} (1 - e^{-2 dt lam_k}) / (lam_k L^3)."""
    lam = eigenvalues(u.shape[0], period)
    decay = np.exp(-dt * lam)
    ct = 3.0 * coupling * a_r(r) - 3.0 * coupling**2 * b_r(r)
    drift = -coupling * dealiased_product(u, u, u) + ct * u
    det = to_physical(decay * to_spectral(u) + (1.0 - decay) / lam * to_spectral(drift))
    var = np.exp(-2.0 * r * lam) * (1.0 - decay**2) / (lam * period**3)
    noise = to_physical(np.fft.fftn(g) * np.sqrt(var / u.size))
    return det + noise
