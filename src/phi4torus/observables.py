"""Observables of the invariant measure: Birkhoff sampling along the
dynamics and the fourth-cumulant non-Gaussianity probe.

The fourth cumulant of the smoothed field w = (e^{-r_probe P} u)(x0),

    C4 = E[w^4] - 3 E[w^2]^2,

vanishes identically for Gaussian fields and, for the interacting measure,
grows like r_probe^{-1/2} as the probe scale shrinks.  Translation
invariance of the torus lets every x0 contribute, which cuts the estimator
variance by orders of magnitude; error bars come from a leave-one-out
jackknife over decorrelated samples.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import SimConfig, step_u
from .spectral import Field, apply_multiplier, evaluate

__all__ = [
    "birkhoff_sample",
    "probe_moments",
    "CumulantEstimate",
    "fourth_cumulant",
]


class Mixing(NamedTuple):
    """How fast one sampled trajectory decorrelates."""

    tau_int: float  # integrated autocorrelation time of the spatial mean
    stride_adequate: bool  # the stride is at least tau_int


def _integrated_autocorrelation(series: np.ndarray, dt: float) -> float:
    """Integrated autocorrelation time of a scalar series via the standard
    windowed sum (window grows until the estimate stabilizes)."""
    x = series - series.mean()
    n = len(x)
    if n < 8 or not np.any(x):
        return dt
    acf = np.correlate(x, x, mode="full")[n - 1:] / (np.arange(n, 0, -1))
    acf /= acf[0]
    tau = 0.5
    for k in range(1, n):
        if acf[k] < 0.05:
            break
        tau += acf[k]
        if k > 6 * tau:  # self-consistent window
            break
    return 2.0 * tau * dt


def birkhoff_sample(cfg: SimConfig, burn_in: float, stride: float, count: int,
                    record: Callable[[float, Field], object]) -> Mixing:
    """Sample the invariant measure along one trajectory.

    Evolves the u-dynamics for burn_in time, then passes a sample to
    record(t, u) every stride, as it is taken; no sample is kept.  The
    spatial mean is tracked at every step after the burn-in and its
    integrated autocorrelation time reported, so the stride choice can be
    audited (stride below it is flagged).  A blow-up raises BlowUpError.
    """
    if stride < 5.0 * cfg.dt - 1e-12:
        raise ValueError(f"stride {stride} below 5*dt = {5 * cfg.dt}")
    if burn_in < 5.0:
        raise ValueError(
            "burn-in must cover at least 5 relaxation times of the slowest "
            f"mode (unit time scale); got {burn_in}"
        )
    stream = cfg.noise()
    u = Field.zeros(cfg.grid)
    burn_steps = int(round(burn_in / cfg.dt))
    stride_steps = max(1, int(round(stride / cfg.dt)))
    means = []
    for i in range(burn_steps + count * stride_steps):
        u = step_u(u, cfg, stream, time=i * cfg.dt)
        step = i + 1
        if step > burn_steps:
            means.append(u.mean())
            if (step - burn_steps) % stride_steps == 0:
                record(step * cfg.dt, u)
    if len(means) <= 8:
        return Mixing(float("nan"), True)
    tau = float(_integrated_autocorrelation(np.array(means), cfg.dt))
    return Mixing(tau, bool(stride >= tau))


def probe_moments(u: Field, r_probes) -> np.ndarray:
    """[(m2, m4) for r_probe in r_probes], an array of shape (probes, 2): the
    spatial means of w^2 and w^4 for the smoothed field w = e^{-r_probe P} u
    of each probe, all probes evaluated in one stacked transform."""
    for r_probe in r_probes:
        if not r_probe > 0:
            raise ValueError(f"r_probe must be positive, got {r_probe}")
    ws = [apply_multiplier(u, lambda lam: np.exp(-rp * lam)) for rp in r_probes]
    evaluate(*ws)
    squares = [w.values * w.values for w in ws]
    return np.array([(w2.mean(), (w2 * w2).mean()) for w2 in squares])


@dataclass
class CumulantEstimate:
    r_probe: float
    c4: float
    stderr: float
    second_moment: float
    n_samples: int

    @property
    def significance(self) -> float:
        return abs(self.c4) / self.stderr if self.stderr > 0 else math.inf

    def __str__(self):
        return (
            f"C4(r_probe={self.r_probe:g}) = {self.c4:+.4e} +/- {self.stderr:.2e} "
            f"({self.significance:.1f} sigma, {self.n_samples} samples)"
        )


# the fewest decorrelated samples that `fourth_cumulant` takes
MIN_CUMULANT_SAMPLES = 200


def fourth_cumulant(moments, r_probe: float) -> CumulantEstimate:
    """Jackknife estimate of C4 = E[w^4] - 3 E[w^2]^2 for the smoothed
    pointwise marginal w = (e^{-r_probe P} u)(x0), pooled over all x0 and
    over the samples, from the (m2, m4) of each sample at this probe (one
    row of probe_moments per sample)."""
    m2, m4 = np.asarray(moments, dtype=float).reshape(-1, 2).T
    n = len(m2)
    if n < MIN_CUMULANT_SAMPLES:
        raise ValueError(f"need at least {MIN_CUMULANT_SAMPLES} decorrelated samples, "
                         f"got {n}")
    c4 = m4.mean() - 3.0 * m2.mean() ** 2
    # leave-one-out values in closed form: drop sample i from both sums
    loo = (m4.sum() - m4) / (n - 1) - 3.0 * ((m2.sum() - m2) / (n - 1)) ** 2
    stderr = math.sqrt((n - 1) / n * ((loo - loo.mean()) ** 2).sum())
    return CumulantEstimate(
        r_probe=r_probe,
        c4=float(c4),
        stderr=float(stderr),
        second_moment=float(m2.mean()),
        n_samples=n,
    )
