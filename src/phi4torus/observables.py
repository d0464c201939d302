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
from dataclasses import dataclass, field

import numpy as np

from .dynamics import BlowUpError, SimConfig, step_u
from .spectral import Field, semigroup

__all__ = [
    "SampleSet",
    "birkhoff_sample",
    "CumulantEstimate",
    "fourth_cumulant",
]


@dataclass
class SampleSet:
    """Decorrelated snapshots of the stationary dynamics."""

    cfg: SimConfig
    times: list[float] = field(default_factory=list)
    fields: list[Field] = field(default_factory=list)
    mean_series: list[float] = field(default_factory=list)  # spatial mean, every step
    autocorrelation_time: float = float("nan")
    stride: float = 0.0
    stride_adequate: bool = True
    blew_up: str | None = None

    def __len__(self):
        return len(self.fields)


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


def birkhoff_sample(
    cfg: SimConfig, burn_in: float, stride: float, count: int
) -> SampleSet:
    """Sample the invariant measure along one trajectory.

    Evolves the u-dynamics for burn_in time, then records a snapshot every
    stride; the spatial-mean series is tracked at every step and its
    integrated autocorrelation time reported so the stride choice can be
    audited (stride below it is flagged).  A blow-up returns the partial set
    with the diagnostic attached.
    """
    if stride < 5.0 * cfg.dt - 1e-12:
        raise ValueError(f"stride {stride} below 5*dt = {5 * cfg.dt}")
    if burn_in < 5.0:
        raise ValueError(
            "burn-in must cover at least 5 relaxation times of the slowest "
            f"mode (unit time scale); got {burn_in}"
        )
    stream = cfg.noise()
    grid = cfg.grid
    u = Field.zeros(grid)
    out = SampleSet(cfg=cfg, stride=stride)
    burn_steps = int(round(burn_in / cfg.dt))
    stride_steps = max(1, int(round(stride / cfg.dt)))
    total = burn_steps + count * stride_steps
    try:
        for i in range(total):
            u = step_u(u, cfg, stream, time=i * cfg.dt)
            out.mean_series.append(u.mean())
            step = i + 1
            if step > burn_steps and (step - burn_steps) % stride_steps == 0:
                out.times.append(step * cfg.dt)
                out.fields.append(u)
    except BlowUpError as exc:
        out.blew_up = str(exc)
    tail = np.array(out.mean_series[burn_steps:])
    if len(tail) > 8:
        out.autocorrelation_time = float(_integrated_autocorrelation(tail, cfg.dt))
        out.stride_adequate = bool(stride >= out.autocorrelation_time)
    return out


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


def fourth_cumulant(fields, r_probe: float) -> CumulantEstimate:
    """Jackknife estimate of C4 = E[w^4] - 3 E[w^2]^2 for the smoothed
    pointwise marginal w = (e^{-r_probe P} u)(x0), pooled over all x0 and
    over the sample fields."""
    fields = list(fields)
    n = len(fields)
    if n < MIN_CUMULANT_SAMPLES:
        raise ValueError(f"need at least {MIN_CUMULANT_SAMPLES} decorrelated samples, "
                         f"got {n}")
    if not r_probe > 0:
        raise ValueError(f"r_probe must be positive, got {r_probe}")
    m2 = np.empty(n)
    m4 = np.empty(n)
    for i, f in enumerate(fields):
        w = Field.from_half(f.grid, f.half * semigroup(f.grid, r_probe).decay).values
        w2 = w * w
        m2[i] = w2.mean()
        m4[i] = (w2 * w2).mean()

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
