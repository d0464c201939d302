"""Time integration of the renormalized dynamics and its Cole-Hopf partner.

The u-equation (exponential Euler in its mild form, exact stochastic
convolution for the noise increment):

    (d/dt + P) u = sqrt(2) xi_r - lam u^3 + (3 lam a_r - 3 lam^2 b_r) u,

with lam a non-negative constant.  The change of variables

    v = e^{3 I2} (u - X + I3) - v_ref

turns it (for lam = 1) into a PDE with better-behaved coefficients,

    (d/dt + P) v = -6 grad I2 . grad v - e^{-6 I2} v^3 + Z2 v^2 + Z1 v + Z0,

whose coefficient fields Z2, Z1, Z0 are assembled from the enhanced noise by
direct substitution.  Writing E = e^{3 I2} and vt = v + v_ref = E (u - X + I3),
the substitution gives first

    (d/dt + P) vt = -6 grad I2 . grad vt - E^{-2} vt^3
                    + Zt2 vt^2 + Zt1 vt + Zt0,
    Zt2 = -3 E^{-1} (X - I3),
    Zt1 = 6 X I3 - 3 I3^2 - 3 I2 + 9 |grad I2|^2 - 3 b_r,
    Zt0 = E (3 W2 I3 - 3 X I3^2 + I3^3 - 3 b_r (X - I3)),

in which every occurrence of a_r cancels and the dangerous product
(u - X + I3) W2 is absorbed by the exponential weight.  Shifting by v_ref
(with g_ref = (d/dt + P) v_ref = 3 E (I3 W2 - b_r (X + I3))) yields

    Z2 = Zt2 - 3 E^{-2} v_ref,
    Z1 = Zt1 + 2 Zt2 v_ref - 3 E^{-2} v_ref^2,
    Z0 = Zt0 - g_ref - 6 grad I2 . grad v_ref - E^{-2} v_ref^3
         + Zt2 v_ref^2 + Zt1 v_ref.

The W2 terms of Zt0 and g_ref cancel, so the assembly reads no W2:

    Zt0 - g_ref = E I3 (I3^2 - 3 X I3 + 6 b_r).

Correctness of this assembly is gated on cross-validation against the
u-equation on frozen noise (the terminal gap halves when dt halves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseStream, ou_noise_field, sample_stationary
from .paraproduct import besov_norm, block_norms, weigh_blocks
from .renorm import a_closed, b_closed
from .spectral import (
    Field,
    Grid,
    cubic,
    duhamel_step,
    evaluate,
    grad_dot,
    gradient,
    lp_norm,
)
from .trees import EnhancedNoise, TreeEvolver

__all__ = [
    "SimConfig",
    "Diagnostics",
    "BlowUpError",
    "counterterm",
    "step_u",
    "simulate_u",
    "cole_hopf",
    "ZCoefficients",
    "assemble_z",
    "step_v",
    "coming_down_experiment",
    "comparison_test",
    "ComparisonResult",
    "rough_initial_field",
]


class BlowUpError(RuntimeError):
    """Raised when a step produces non-finite values or exceeds the
    sup-norm threshold; carries a small diagnostic report."""

    def __init__(self, time: float, sup: float, threshold: float):
        self.time = time
        self.sup = sup
        self.threshold = threshold
        super().__init__(
            f"blow-up at t={time:.6g}: sup|u| = {sup:.3g} "
            f"(threshold {threshold:.3g})"
        )


@dataclass
class SimConfig:
    """Configuration of one Langevin trajectory."""

    n: int
    r: float
    dt: float
    horizon: float
    dim: int = 3
    period: float = 2.0 * math.pi
    coupling: float = 1.0
    counterterm_a: bool = True
    counterterm_b: bool = True
    seed: int = 0
    stream: int = 0
    # the field at t = 0, zero when None; rough_initial_field gives a rough one
    initial: Field | None = None
    snapshot_stride: int = 10
    blowup_threshold: float = 1.0e6

    def __post_init__(self):
        if not (self.r > 0):
            raise ValueError(f"r must be positive, got {self.r}")
        if not (self.dt > 0 and self.horizon > 0):
            raise ValueError("dt and horizon must be positive")
        if self.coupling < 0:
            # lam = 0 is admitted: the free dynamics is the Gaussian baseline
            raise ValueError(f"coupling must be non-negative, got {self.coupling}")

    @property
    def grid(self) -> Grid:
        return Grid(dim=self.dim, n=self.n, period=self.period)

    def noise(self) -> NoiseStream:
        return NoiseStream(self.seed, stream=self.stream)


def counterterm(cfg: SimConfig) -> float:
    """The linear counterterm coefficient 3 lam a_r - 3 lam^2 b_r, honoring
    the independent toggles."""
    a = a_closed(cfg.r) if cfg.counterterm_a else 0.0
    b = b_closed(cfg.r) if cfg.counterterm_b else 0.0
    lam = cfg.coupling
    return 3.0 * lam * a - 3.0 * lam**2 * b


def _check_blowup(u: Field, t: float, threshold: float) -> None:
    """Raise BlowUpError when sup|u| is not finite or exceeds threshold.
    sup|u| <= sum_k |c_k| <= 2 sum |c| over the half-cube, so a field whose
    bound passes is not transformed for the check."""
    if 2.0 * float(np.abs(u.half).sum()) <= threshold:
        return
    sup = lp_norm(u, np.inf)
    if not np.isfinite(sup) or sup > threshold:
        raise BlowUpError(t, sup, threshold)


def step_u(
    u: Field,
    cfg: SimConfig,
    stream: NoiseStream,
    noise: Field | None = None,
    time: float = 0.0,
) -> Field:
    """One exponential-Euler step of the renormalized u-equation.

    The drift is frozen at the step's start; the noise enters through the
    exact stochastic-convolution increment.  noise=None draws it from the
    stream; a given increment field (ou_noise_field) shares the realization
    with a co-evolving tree trajectory, and a zero field turns the noise off.
    """
    nonlin = (-cfg.coupling) * cubic(u)
    ct = counterterm(cfg)
    if ct != 0.0:
        nonlin = nonlin + ct * u
    out = duhamel_step(u, nonlin, cfg.dt)
    if noise is None:
        noise = ou_noise_field(u.grid, cfg.dt, cfg.r, stream.normals(u.grid.shape))
    out = out + noise
    _check_blowup(out, time + cfg.dt, cfg.blowup_threshold)
    return out


def rough_initial_field(grid: Grid, size: float, stream: NoiseStream) -> Field:
    """A random field of prescribed C^{-1/2-eps} size: a stationary-law
    sample (which has exactly that roughness) rescaled so its Besov
    B^{-1/2-eps}_{inf,inf} norm equals size."""
    base = sample_stationary(grid, 1e-3, stream)
    norm = besov_norm(base, -0.55)
    return (size / norm) * base


def simulate_u(cfg: SimConfig, record) -> None:
    """Integrate the u-equation over [0, horizon], passing the field at t = 0,
    every snapshot_stride steps and at the last step to record(t, u).  Keeps
    no field."""
    stream = cfg.noise()
    u = Field.zeros(cfg.grid) if cfg.initial is None else cfg.initial
    record(0.0, u)
    n_steps = int(round(cfg.horizon / cfg.dt))
    for i in range(n_steps):
        u = step_u(u, cfg, stream, time=i * cfg.dt)
        if (i + 1) % cfg.snapshot_stride == 0 or i == n_steps - 1:
            record((i + 1) * cfg.dt, u)


# ---------------------------------------------------------------------------
# Cole-Hopf change of variables and the v-equation
# ---------------------------------------------------------------------------


def cole_hopf(u: Field, trees: EnhancedNoise, direction: str = "forward") -> Field:
    """forward: v = e^{3 I2}(u - X + I3) - v_ref; backward inverts exactly."""
    if trees.v_ref is None:
        raise ValueError("trees were built without v_ref; rebuild with track_vref")
    e3 = np.exp(3.0 * trees.I2.values)
    if direction == "forward":
        w = u.values - trees.X.values + trees.I3.values
        return Field(u.grid, e3 * w - trees.v_ref.values)
    if direction == "backward":
        w = (u.values + trees.v_ref.values) / e3
        return Field(u.grid, w + trees.X.values - trees.I3.values)
    raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")


@dataclass
class ZCoefficients:
    """Frozen coefficient fields of the v-equation at one time slice."""

    grad_i2: tuple
    em6: np.ndarray  # e^{-6 I2}
    z2: np.ndarray
    z1: np.ndarray
    z0: np.ndarray
    # (max e^{-6 I2}, max |z2|, max |z1|): the sup norms of the stiffness
    # scale, reduced once per assembly for every substep
    bounds: tuple


def assemble_z(trees: EnhancedNoise) -> ZCoefficients:
    """Assemble (Z2, Z1, Z0) from the enhanced noise per the substitution in
    the module docstring."""
    if trees.v_ref is None:
        raise ValueError("Z-assembly needs v_ref; rebuild trees with track_vref")
    grad_sq = grad_dot(trees.I2, trees.I2)
    grad_i2 = gradient(trees.I2)
    grad_vref = gradient(trees.v_ref)
    evaluate(trees.X, trees.I2, trees.I3, trees.v_ref, grad_sq, *grad_i2, *grad_vref)
    X = trees.X.values
    I2 = trees.I2.values
    I3 = trees.I3.values
    vref = trees.v_ref.values
    b = trees.b
    e3 = np.exp(3.0 * I2)
    em3 = 1.0 / e3
    em6 = em3 * em3

    zt2 = -3.0 * em3 * (X - I3)
    zt1 = 6.0 * X * I3 - 3.0 * I3**2 - 3.0 * I2 + 9.0 * grad_sq.values - 3.0 * b
    transport_vref = sum(
        gi.values * gv.values for gi, gv in zip(grad_i2, grad_vref)
    )

    z2 = zt2 - 3.0 * em6 * vref
    z1 = zt1 + 2.0 * zt2 * vref - 3.0 * em6 * vref**2
    z0 = (
        e3 * I3 * (I3 * I3 - 3.0 * X * I3 + 6.0 * b)  # Zt0 - g_ref
        - 6.0 * transport_vref
        - em6 * (vref * vref * vref)
        + zt2 * vref**2
        + zt1 * vref
    )
    bounds = (float(em6.max()), float(np.abs(z2).max()), float(np.abs(z1).max()))
    return ZCoefficients(grad_i2=grad_i2, em6=em6, z2=z2, z1=z1, z0=z0, bounds=bounds)


def step_v(
    v: Field,
    z: ZCoefficients,
    cfg: SimConfig,
    time: float = 0.0,
    dt: float | None = None,
) -> Field:
    """One exponential-Euler step of the v-equation with the coefficients
    z = assemble_z(trees) of the step's start, which several runs sharing one
    tree slice assemble once; dt overrides cfg.dt for substepping the stiff
    cubic transient."""
    grad_v = gradient(v)
    evaluate(v, *grad_v)
    transport = sum(gi.values * gv.values for gi, gv in zip(z.grad_i2, grad_v))
    vv = v.values
    drift = (
        -6.0 * transport
        - z.em6 * (vv * vv * vv)
        + z.z2 * vv**2
        + z.z1 * vv
        + z.z0
    )
    h = cfg.dt if dt is None else dt
    out = duhamel_step(v, Field(v.grid, drift), h)
    _check_blowup(out, time + h, cfg.blowup_threshold)
    return out


def _stiff_substep(v: Field, z: ZCoefficients, cfg: SimConfig, time: float) -> Field:
    """Advance v by cfg.dt, substepping while the explicit cubic drift is
    stiff (large data relaxes like t^{-1/2}, so the substep count is
    logarithmic in the initial size).  Coefficients stay frozen at the
    step's start."""
    remaining = cfg.dt
    em6_max, z2_max, z1_max = z.bounds
    while remaining > 0:
        sup = lp_norm(v, np.inf)
        scale = 3.0 * em6_max * sup * sup + z2_max * sup + z1_max
        h = min(remaining, 0.5 / scale) if scale > 0.5 / remaining else remaining
        v = step_v(v, z, cfg, time=time, dt=h)
        time += h
        remaining -= h
    return v


# ---------------------------------------------------------------------------
# Coming down from infinity
# ---------------------------------------------------------------------------


def coming_down_experiment(
    cfg: SimConfig,
    initial_norms: list[float],
    record,
    p: int = 8,
) -> dict:
    """Evolve the v-equation from initial data of widely different sizes on
    one shared noise realization and fit the coming-down bound
    ||v(t)||_{L^p} <= C max(t^{-1/2}, 1).

    Passes the L^p norms of every run at t = 0 and after each step to
    record(t, norms), as it takes them, and keeps no table of them.
    Returns a summary: the fitted C for each run over t in [0.05, horizon]
    (NaN for a run with no finite norm there), and the norms and their
    relative spread across runs at the step nearest t = 0.5 and t = 1.  An
    odd or small p, or a horizon whose last step ends before t = 0.05, is
    refused (ValueError) before the burn-in.  A run that blows up stops
    there, and its norms after that read NaN; its `blow_up` entry says
    when, or that its initial data already exceed `cfg.blowup_threshold`,
    in which case it takes no step.  The trees step only when a later step
    reads them.
    """
    if p < 8 or p % 2:
        raise ValueError(f"p must be even and >= 8, got {p}")
    fit_from = 0.05
    n_steps = int(round(cfg.horizon / cfg.dt))
    if n_steps * cfg.dt < fit_from:
        raise ValueError(f"horizon {cfg.horizon:g} ends at t = {n_steps * cfg.dt:g}, "
                         f"before the fit window t >= {fit_from:g}")
    grid = cfg.grid
    stream = cfg.noise()
    ev = TreeEvolver(grid, cfg.r, stream, track_vref=True)
    ev.burn_in(5.0, min(cfg.dt * 10, 0.05))

    base = rough_initial_field(grid, 1.0, stream.child(777))
    base_norm = besov_norm(base, -0.55)
    vs = [(s / base_norm) * base for s in initial_norms]

    fitted_c = np.full(len(vs), np.nan)
    # per reference time, the distance to the nearest step so far and the
    # norms there; the first of equally near steps is kept
    nearest = {t_ref: (math.inf, None) for t_ref in (0.5, 1.0) if t_ref <= cfg.horizon}

    def hand_on(t, norms):
        record(t, norms)
        if t >= fit_from:
            # numpy's power, whose last bit can differ from math's
            envelope = np.maximum(np.asarray(t) ** -0.5, 1.0)
            np.fmax(fitted_c, np.array(norms) / envelope, out=fitted_c)
        for t_ref, (distance, _) in nearest.items():
            if abs(t - t_ref) < distance:
                nearest[t_ref] = (abs(t - t_ref), norms)

    blew_up = [None] * len(vs)
    for j, v in enumerate(vs):
        try:
            _check_blowup(v, 0.0, cfg.blowup_threshold)
        except BlowUpError as exc:
            blew_up[j] = (f"initial data exceed the blow-up threshold: sup|v(0)| = "
                          f"{exc.sup:.3g} (threshold {exc.threshold:.3g})")
    hand_on(0.0, [lp_norm(v, p) for v in vs])
    for i in range(n_steps):
        z = assemble_z(ev.snapshot(with_resonants=False))
        for j, v in enumerate(vs):
            if blew_up[j] is not None:
                continue
            try:
                vs[j] = _stiff_substep(v, z, cfg, time=i * cfg.dt)
            except BlowUpError as exc:
                blew_up[j] = str(exc)
        if i + 1 < n_steps:
            ev.step(cfg.dt)
        evaluate(*(v for v, exc in zip(vs, blew_up) if exc is None))
        hand_on((i + 1) * cfg.dt,
                [lp_norm(v, p) if exc is None else float("nan") for v, exc in zip(vs, blew_up)])

    report = {
        "p": p,
        "initial_norms": list(initial_norms),
        "blow_up": blew_up,
        "fitted_C": [float(c) for c in fitted_c],
    }
    for t_ref, (_, norms) in nearest.items():
        report[f"norms_at_{t_ref}"] = list(norms)
        report[f"spread_at_{t_ref}"] = float(np.nanmax(norms) / np.nanmin(norms))
    return report


# ---------------------------------------------------------------------------
# Comparison test
# ---------------------------------------------------------------------------


@dataclass
class ComparisonResult:
    admissible: bool
    partition: list[float]
    values: list[float]
    bounds: list[float]
    margins: list[float]
    witness: tuple | None = None

    def __bool__(self):
        return self.admissible


def comparison_test(times, values, lam: float, c: float) -> ComparisonResult:
    """Run the comparison-test partition on a sampled function F.

    First verifies the integral hypothesis int_s^t F^lam <= c (F(s) + 1) on
    every sampled pair s < t (trapezoid rule); a violation refuses the test
    and reports the witnessing pair.  Then builds the partition

        t_0 = 0,
        t*_{n+1} = t_n + c 2^lam (1 + F(t_n))^{1-lam},
        t_{n+1}  = argmin of F on (t_n, t*_{n+1}],

    up to the last sample time, and asserts at each point the explicit
    decay bound

        F(t_n) <= 1 + 2^{lam/(lam-1)} (c / (1 - 2^{-(lam-1)}))^{1/(lam-1)}
                      t_{n+1}^{-1/(lam-1)}.
    """
    if not lam > 1:
        raise ValueError(f"lam must exceed 1, got {lam}")
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    t = np.asarray(times, dtype=float)
    F = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != F.shape or len(t) < 2:
        raise ValueError("times and values must be matching 1-d samples")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")

    # hypothesis check on the sampled grid
    cumint = np.concatenate([[0.0], np.cumsum(
        0.5 * (F[1:] ** lam + F[:-1] ** lam) * np.diff(t)
    )])
    for i in range(len(t) - 1):
        allowed = c * (F[i] + 1.0)
        integrals = cumint[i + 1:] - cumint[i]
        bad = np.nonzero(integrals > allowed * (1.0 + 1e-12))[0]
        if bad.size:
            j = i + 1 + bad[0]
            return ComparisonResult(
                admissible=False, partition=[], values=[], bounds=[], margins=[],
                witness=(float(t[i]), float(t[j]), float(integrals[bad[0]]), float(allowed)),
            )

    def f_at(s):
        return float(np.interp(s, t, F))

    k = lam / (lam - 1.0)
    const = 2.0**k * (c / (1.0 - 2.0 ** -(lam - 1.0))) ** (1.0 / (lam - 1.0))
    partition = [0.0]
    vals = [f_at(0.0)]
    bounds: list[float] = []
    margins: list[float] = []
    while True:
        tn = partition[-1]
        fn = vals[-1]
        t_star = tn + c * 2.0**lam * (1.0 + fn) ** (1.0 - lam)
        if t_star > t[-1]:
            break
        window = t[(t > tn) & (t <= t_star)]
        candidates = np.append(window, t_star)
        f_cand = np.array([f_at(s) for s in candidates])
        i_min = int(np.argmin(f_cand))
        t_next = float(candidates[i_min])
        bound = 1.0 + const * t_next ** (-1.0 / (lam - 1.0))
        bounds.append(bound)
        margins.append(bound - fn)
        partition.append(t_next)
        vals.append(float(f_cand[i_min]))
        if len(partition) > 100_000:
            raise RuntimeError("comparison-test partition failed to terminate")
    admissible = all(m >= -1e-9 for m in margins)
    return ComparisonResult(
        admissible=admissible,
        partition=partition,
        values=vals,
        bounds=bounds,
        margins=margins,
    )


# ---------------------------------------------------------------------------
# Diagnostics and the weighted norm
# ---------------------------------------------------------------------------


class Diagnostics:
    """The diagnostics of a trajectory, taken one snapshot at a time in time
    order.  row(t, u) gives (t, ||u||_L2, ||u||_L8, the B^{-0.55}_{inf,inf}
    norm of u, the weighted norm of the snapshots so far), with the Besov
    norms of u weighed from one split into blocks.  The weighted norm of a
    sampled trajectory is

        max( sup_t t^alpha ||v(t)||_{C^beta},
             sup_{s != t} || t^alpha v(t) - s^alpha v(s) ||_{Loo} / |t-s|^{beta/2} ),

    both sups over the snapshots taken, the first over the positive times.
    Of each snapshot t^alpha u.values and its sup m are kept, for the Holder
    quotients of later ones.

    A pair (s, t) is compared only when (m_s + m_t) / (t - s)^{beta/2}
    exceeds the running sup of the quotients: otherwise its quotient cannot
    raise it, also in floating point, since |a - b| <= |a| + |b| and
    rounding is monotone, so the sup is the same to the bit.  `compared`
    counts the pairs compared.  Every snapshot's array is still kept: no
    bound on the snapshots still to come allows dropping one exactly."""

    def __init__(self, alpha: float = 0.5, beta: float = 0.25):
        self.alpha = alpha
        self.beta = beta
        self.times: list[float] = []
        self._weighted: list[np.ndarray] = []
        self._sups: list[float] = []
        self._sup_besov = None
        self._sup_holder = 0.0
        self.compared = 0

    def row(self, t: float, u: Field) -> tuple:
        """Take the snapshot (t, u), after every earlier one, and return its
        row; the weighted norm is NaN while no time is positive."""
        if self.times and t <= self.times[-1]:
            raise ValueError("snapshot times must be strictly increasing")
        sups = block_norms(u)
        if t > 0:
            term = (t**self.alpha) * weigh_blocks(sups, self.beta)
            self._sup_besov = term if self._sup_besov is None else max(self._sup_besov, term)
        w = t**self.alpha * u.values
        m = float(np.abs(w).max())
        for s, ws, ms in zip(self.times, self._weighted, self._sups):
            gap = (t - s) ** (self.beta / 2.0)
            if (m + ms) / gap <= self._sup_holder:
                continue
            self.compared += 1
            diff = float(np.abs(w - ws).max())
            self._sup_holder = max(self._sup_holder, diff / gap)
        self.times.append(t)
        self._weighted.append(w)
        self._sups.append(m)
        norm = float("nan") if self._sup_besov is None else max(self._sup_besov, self._sup_holder)
        return (t, lp_norm(u, 2), lp_norm(u, 8), weigh_blocks(sups, -0.55), norm)

