"""Time integration of the renormalized dynamics and its Cole-Hopf partner.

The u-equation (exponential Euler in its mild form, exact stochastic
convolution for the noise increment):

    (d/dt + P) u = sqrt(2) xi_r - lam u^3 + (3 lam a_r - 3 lam^2 b_r) u,

with lam a positive constant or a positive Field.  The change of variables

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

Correctness of this assembly is gated on cross-validation against the
u-equation on frozen noise (the terminal gap halves when dt halves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .noise import NoiseStream, ou_noise_field
from .paraproduct import besov_norm, block_norms, weigh_blocks
from .renorm import a_closed, b_closed
from .spectral import (
    Field,
    Grid,
    cubic,
    duhamel_step,
    grad_dot,
    gradient,
    lp_norm,
)
from .trees import EnhancedNoise, TreeEvolver

__all__ = [
    "SimConfig",
    "Trajectory",
    "BlowUpError",
    "counterterm_field",
    "step_u",
    "simulate_u",
    "cole_hopf",
    "ZCoefficients",
    "assemble_z",
    "step_v",
    "coming_down_experiment",
    "comparison_test",
    "ComparisonResult",
    "weighted_norm",
    "running_weighted_norm",
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
    coupling: float | Field = 1.0
    counterterm_a: bool = True
    counterterm_b: bool = True
    seed: int = 0
    stream: int = 0
    initial: str | Field | tuple = "zero"
    snapshot_stride: int = 10
    blowup_threshold: float = 1.0e6

    def __post_init__(self):
        if not (self.r > 0):
            raise ValueError(f"r must be positive, got {self.r}")
        if not (self.dt > 0 and self.horizon > 0):
            raise ValueError("dt and horizon must be positive")
        lam = self.coupling
        if isinstance(lam, Field):
            if not np.all(lam.values > 0):
                raise ValueError("coupling field must be strictly positive")
        elif lam < 0:
            # lam = 0 is admitted: the free dynamics is the Gaussian baseline
            raise ValueError(f"coupling must be non-negative, got {lam}")

    @property
    def grid(self) -> Grid:
        return Grid(dim=self.dim, n=self.n, period=self.period)

    def noise(self) -> NoiseStream:
        return NoiseStream(self.seed, stream=self.stream)


@dataclass
class Trajectory:
    times: list[float] = field(default_factory=list)
    snapshots: list[Field] = field(default_factory=list)
    diagnostics: dict[str, list[float]] = field(default_factory=dict)
    # the sup norms of each snapshot's Littlewood-Paley blocks, from which
    # every C^gamma = B^gamma_{inf,inf} norm of it follows
    block_sups: list[list[float]] = field(default_factory=list)

    def record(self, t: float, u: Field, extra: dict | None = None) -> None:
        if self.times and t <= self.times[-1]:
            raise ValueError("snapshot times must be strictly increasing")
        self.times.append(t)
        self.snapshots.append(u)
        sups = block_norms(u)
        self.block_sups.append(sups)
        rows = {
            "L2": lp_norm(u, 2),
            "L8": lp_norm(u, 8),
            "besov_proxy": weigh_blocks(sups, -0.55),
        }
        if extra:
            rows.update(extra)
        for key, val in rows.items():
            self.diagnostics.setdefault(key, []).append(val)


def counterterm_field(cfg: SimConfig):
    """The linear counterterm coefficient 3 lam a_r - 3 lam^2 b_r, honoring
    the independent toggles; a scalar for constant coupling, a Field
    otherwise."""
    a = a_closed(cfg.r) if cfg.counterterm_a else 0.0
    b = b_closed(cfg.r) if cfg.counterterm_b else 0.0
    lam = cfg.coupling
    if isinstance(lam, Field):
        return Field(lam.grid, 3.0 * lam.values * a - 3.0 * lam.values**2 * b)
    return 3.0 * lam * a - 3.0 * lam**2 * b


def _check_blowup(u: Field, t: float, threshold: float) -> None:
    sup = float(np.abs(u.values).max())
    if not np.isfinite(sup) or sup > threshold:
        raise BlowUpError(t, sup, threshold)


def step_u(
    u: Field,
    cfg: SimConfig,
    stream: NoiseStream,
    g: np.ndarray | None = None,
    noise: Field | None = None,
    time: float = 0.0,
) -> Field:
    """One exponential-Euler step of the renormalized u-equation.

    The drift is frozen at the step's start; the noise enters through the
    exact stochastic-convolution increment.  Pass g (a standard-normal
    array) or noise (a precomputed increment field) to share the realization
    with a co-evolving tree trajectory; g=None draws from the stream, and an
    all-zero g turns the noise off.
    """
    lam = cfg.coupling
    cube = cubic(u)
    if isinstance(lam, Field):
        nonlin = Field(u.grid, -lam.values * cube.values)
    else:
        nonlin = (-lam) * cube
    ct = counterterm_field(cfg)
    if isinstance(ct, Field):
        nonlin = nonlin + Field(u.grid, ct.values * u.values)
    elif ct != 0.0:
        nonlin = nonlin + ct * u
    out = duhamel_step(u, nonlin, cfg.dt)
    if noise is None:
        if g is None:
            g = stream.normals(u.grid.shape)
        if np.any(g):
            noise = ou_noise_field(u.grid, cfg.dt, cfg.r, g)
    if noise is not None:
        out = out + noise
    _check_blowup(out, time + cfg.dt, cfg.blowup_threshold)
    return out


def _initial_field(cfg: SimConfig, stream: NoiseStream) -> Field:
    init = cfg.initial
    if isinstance(init, Field):
        return init
    if init == "zero":
        return Field.zeros(cfg.grid)
    if isinstance(init, tuple) and init[0] == "random":
        return rough_initial_field(cfg.grid, float(init[1]), stream)
    raise ValueError(f"unknown initial condition spec: {init!r}")


def rough_initial_field(grid: Grid, size: float, stream: NoiseStream) -> Field:
    """A random field of prescribed C^{-1/2-eps} size: a stationary-law
    sample (which has exactly that roughness) rescaled so its Besov
    B^{-1/2-eps}_{inf,inf} norm equals size."""
    from .noise import sample_stationary

    base = sample_stationary(grid, 1e-3, stream)
    norm = besov_norm(base, -0.55)
    return (size / norm) * base


def simulate_u(cfg: SimConfig, noise_on: bool = True) -> Trajectory:
    """Integrate the u-equation over [0, horizon], recording snapshots and
    diagnostic norms every snapshot_stride steps."""
    stream = cfg.noise()
    u = _initial_field(cfg, stream.child(10_000 + cfg.stream))
    traj = Trajectory()
    traj.record(0.0, u)
    n_steps = int(round(cfg.horizon / cfg.dt))
    zero_g = np.zeros(cfg.grid.shape) if not noise_on else None
    for i in range(n_steps):
        u = step_u(u, cfg, stream, g=zero_g, time=i * cfg.dt)
        if (i + 1) % cfg.snapshot_stride == 0 or i == n_steps - 1:
            traj.record((i + 1) * cfg.dt, u)
    return traj


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


def assemble_z(trees: EnhancedNoise) -> ZCoefficients:
    """Assemble (Z2, Z1, Z0) from the enhanced noise per the substitution in
    the module docstring."""
    if trees.v_ref is None:
        raise ValueError("Z-assembly needs v_ref; rebuild trees with track_vref")
    X = trees.X.values
    W2 = trees.W2.values
    I2 = trees.I2.values
    I3 = trees.I3.values
    vref = trees.v_ref.values
    b = trees.b
    e3 = np.exp(3.0 * I2)
    em3 = 1.0 / e3
    em6 = em3 * em3
    grad_sq = grad_dot(trees.I2, trees.I2).values

    zt2 = -3.0 * em3 * (X - I3)
    zt1 = 6.0 * X * I3 - 3.0 * I3**2 - 3.0 * I2 + 9.0 * grad_sq - 3.0 * b
    zt0 = e3 * (3.0 * W2 * I3 - 3.0 * X * I3**2 + I3**3 - 3.0 * b * (X - I3))
    g_ref = 3.0 * e3 * (I3 * W2 - b * (X + I3))

    grid = trees.X.grid
    grad_i2 = gradient(trees.I2)
    grad_vref = gradient(trees.v_ref)
    transport_vref = sum(
        gi.values * gv.values for gi, gv in zip(grad_i2, grad_vref)
    )

    z2 = zt2 - 3.0 * em6 * vref
    z1 = zt1 + 2.0 * zt2 * vref - 3.0 * em6 * vref**2
    z0 = (
        zt0
        - g_ref
        - 6.0 * transport_vref
        - em6 * vref**3
        + zt2 * vref**2
        + zt1 * vref
    )
    return ZCoefficients(grad_i2=grad_i2, em6=em6, z2=z2, z1=z1, z0=z0)


def step_v(
    v: Field,
    trees: EnhancedNoise | ZCoefficients,
    cfg: SimConfig,
    stream: NoiseStream | None = None,
    time: float = 0.0,
    dt: float | None = None,
) -> Field:
    """One exponential-Euler step of the v-equation with coefficients frozen
    at the step's start.  Accepts a preassembled ZCoefficients to amortize
    the assembly across several runs sharing one tree slice, and an optional
    dt override for substepping the stiff cubic transient."""
    z = trees if isinstance(trees, ZCoefficients) else assemble_z(trees)
    grad_v = gradient(v)
    transport = sum(gi.values * gv.values for gi, gv in zip(z.grad_i2, grad_v))
    vv = v.values
    drift = (
        -6.0 * transport
        - z.em6 * vv**3
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
    while remaining > 0:
        sup = float(np.abs(v.values).max())
        scale = (
            3.0 * float(z.em6.max()) * sup * sup
            + float(np.abs(z.z2).max()) * sup
            + float(np.abs(z.z1).max())
        )
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
    p: int = 8,
    record_times: list[float] | None = None,
) -> dict:
    """Evolve the v-equation from initial data of widely different sizes on
    one shared noise realization and fit the coming-down bound
    ||v(t)||_{L^p} <= C max(t^{-1/2}, 1).

    Returns a report with per-run norm tables, the fitted C for each run
    over t in [0.05, horizon], and the relative spread of ||v(t)||_{L^p}
    across runs at t = 0.5 and t = 1.
    """
    if p < 8 or p % 2:
        raise ValueError(f"p must be even and >= 8, got {p}")
    grid = cfg.grid
    stream = cfg.noise()
    ev = TreeEvolver(grid, cfg.r, stream, track_vref=True)
    ev.burn_in(5.0, min(cfg.dt * 10, 0.05))

    base = rough_initial_field(grid, 1.0, stream.child(777))
    base_norm = besov_norm(base, -0.55)
    vs = [(s / base_norm) * base for s in initial_norms]

    n_steps = int(round(cfg.horizon / cfg.dt))
    times = [0.0]
    norms = [[lp_norm(v, p)] for v in vs]
    blew_up = [None] * len(vs)
    for i in range(n_steps):
        z = assemble_z(ev.snapshot(with_resonants=False))
        for j, v in enumerate(vs):
            if blew_up[j] is not None:
                continue
            try:
                vs[j] = _stiff_substep(v, z, cfg, time=i * cfg.dt)
            except BlowUpError as exc:
                blew_up[j] = exc
        ev.step(cfg.dt)
        t = (i + 1) * cfg.dt
        times.append(t)
        for j, v in enumerate(vs):
            norms[j].append(
                lp_norm(v, p) if blew_up[j] is None else float("nan")
            )

    times_arr = np.array(times)
    report = {
        "p": p,
        "times": times,
        "initial_norms": list(initial_norms),
        "norms": [list(map(float, row)) for row in norms],
        "blow_up": [str(e) if e else None for e in blew_up],
    }
    bound_window = (times_arr >= 0.05)
    envelope = np.maximum(times_arr[bound_window] ** -0.5, 1.0)
    report["fitted_C"] = [
        float(np.nanmax(np.array(row)[bound_window] / envelope))
        if not np.all(np.isnan(np.array(row)[bound_window]))
        else float("nan")
        for row in norms
    ]
    for t_ref in (0.5, 1.0):
        if t_ref <= cfg.horizon:
            idx = int(np.argmin(np.abs(times_arr - t_ref)))
            vals = np.array([row[idx] for row in norms])
            report[f"norms_at_{t_ref}"] = [float(v) for v in vals]
            report[f"spread_at_{t_ref}"] = float(np.nanmax(vals) / np.nanmin(vals))
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


def comparison_test(times, values, lam: float, c: float, T: float | None = None) -> ComparisonResult:
    """Run the comparison-test partition on a sampled function F.

    First verifies the integral hypothesis int_s^t F^lam <= c (F(s) + 1) on
    every sampled pair s < t (trapezoid rule); a violation refuses the test
    and reports the witnessing pair.  Then builds the partition

        t_0 = 0,
        t*_{n+1} = t_n + c 2^lam (1 + F(t_n))^{1-lam},
        t_{n+1}  = argmin of F on (t_n, t*_{n+1}],

    and asserts at each point the explicit decay bound

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
    if T is None:
        T = float(t[-1])

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
        if t_star > T:
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
# Weighted norms
# ---------------------------------------------------------------------------


def weighted_norm(times, fields, alpha: float, beta: float) -> float:
    """The weighted space norm on a sampled trajectory:

        max( sup_t t^alpha ||v(t)||_{C^beta},
             sup_{s != t} || t^alpha v(t) - s^alpha v(s) ||_{Loo} / |t-s|^{beta/2} ).

    Diagnostic only; both sups run over the sampled grid, and the first
    over the positive sample times, of which there must be at least one.
    """
    times = list(times)
    fields = list(fields)
    if len(times) != len(fields) or not times:
        raise ValueError("times and fields must be non-empty and matching")
    if not any(t > 0 for t in times):
        raise ValueError("the weighted norm needs a positive sample time")
    return running_weighted_norm(times, fields, alpha, beta)[-1]


def running_weighted_norm(
    times, fields, alpha: float, beta: float, block_sups=None
) -> list[float]:
    """weighted_norm of every prefix (times[:i+1], fields[:i+1]), in one pass:
    one Besov norm per sample and the Holder quotients of each new sample
    against the earlier ones.  A prefix without a positive time gives NaN.

    block_sups, if given, holds the block sup norms of each field (as
    Trajectory.block_sups does), and the Besov norms are weighed from them
    instead of splitting the fields again."""
    sup_besov = None
    sup_holder = 0.0
    weighted = []
    out = []
    for i, (t, f) in enumerate(zip(times, fields)):
        if t > 0:
            sups = block_norms(f) if block_sups is None else block_sups[i]
            term = (t**alpha) * weigh_blocks(sups, beta)
            sup_besov = term if sup_besov is None else max(sup_besov, term)
        w = t**alpha * f.values
        for s, ws in zip(times, weighted):
            gap = abs(t - s) ** (beta / 2.0)
            diff = float(np.abs(w - ws).max())
            sup_holder = max(sup_holder, diff / gap)
        weighted.append(w)
        out.append(float("nan") if sup_besov is None else max(sup_besov, sup_holder))
    return out
