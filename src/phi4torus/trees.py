"""Construction of the enhanced noise: Wick powers, integrated trees and
renormalized resonant products.

Components at regularization r (Linv denotes the stationary-in-time inverse
of d/dt + P, realized by exact OU stepping for X and exponential-Euler
integration for the integrated trees):

    X  = Linv(sqrt(2) xi_r)
    W2 = X^2 - a_r                     (Wick square)
    W3 = X^3 - 3 a_r X                 (Wick cube)
    I2 = Linv(W2)
    I3 = Linv(W3)
    R1 = I3 o X
    R2 = I2 o W2 - b_r/3
    R3 = |grad I2|^2 - b_r/3
    R4 = I3 o W2 - b_r X

with o the resonant product and a_r, b_r the closed-form constants.  The
reference field

    v_ref = 3 Linv( e^{3 I2} ( I3 W2 - b_r (X + I3) ) )

used by the Cole-Hopf change of variables is integrated alongside.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .noise import NoiseStream, ou_noise_field, ou_transition, sample_stationary
from .paraproduct import besov_norm, resonants
from .renorm import a_closed, b_closed
from .spectral import (
    Field,
    Grid,
    dealiased_product,
    dealiased_sums,
    duhamel_step,
    grad_dot,
)

__all__ = ["EnhancedNoise", "TreeEvolver", "build_enhanced_noise", "tree_divergence_report"]


@dataclass
class EnhancedNoise:
    """One time slice of the enhanced-noise tuple."""

    r: float
    time: float
    X: Field
    W2: Field
    W3: Field
    I2: Field
    I3: Field
    R1: Field | None = None
    R2: Field | None = None
    R3: Field | None = None
    R4: Field | None = None
    v_ref: Field | None = None
    a: float = 0.0
    b: float = 0.0

    @classmethod
    def zero(cls, grid: Grid, r: float) -> "EnhancedNoise":
        """All-zero trees (useful to collapse the v-dynamics onto the
        deterministic u-dynamics)."""
        z = Field.zeros(grid)
        return cls(
            r=r, time=0.0, X=z, W2=z, W3=z, I2=z, I3=z,
            R1=z, R2=z, R3=z, R4=z, v_ref=z, a=0.0, b=0.0,
        )

    def components(self) -> dict[str, Field]:
        """The fields of the slice that are set, in the order declared above."""
        return {name: f for name, f in vars(self).items() if isinstance(f, Field)}


class TreeEvolver:
    """Pathwise evolution of the enhanced noise with exact OU noise input.

    X is seeded from its exact stationary law; the integrated trees I2, I3
    and v_ref are seeded at zero and require a burn-in of a few relaxation
    times (the slowest mode relaxes on the unit time scale) before their
    one-time statistics are stationary.
    """

    def __init__(
        self,
        grid: Grid,
        r: float,
        stream: NoiseStream,
        track_vref: bool = True,
    ):
        if not (r > 0):
            raise ValueError("raw trees require r > 0; probe the limit by r-sweeps")
        self.grid = grid
        self.r = r
        self.stream = stream
        self.track_vref = track_vref
        self.a = a_closed(r)
        self.b = b_closed(r)
        self.time = 0.0
        self.X = sample_stationary(grid, r, stream)
        self.I2 = Field.zeros(grid)
        self.I3 = Field.zeros(grid)
        self.v_ref = Field.zeros(grid) if track_vref else None
        # (X, W2, W3): the Wick powers are built once per X, so that a
        # snapshot and the step after it share them
        self._wick = (None, None, None)

    # -- Wick powers of the current X --------------------------------------
    def wick_powers(self) -> tuple[Field, Field]:
        """(W2, W3) of the current X, from one pad of X."""
        X = self.X
        if self._wick[0] is not X:
            square, cube = dealiased_sums([(X, X)], [(X, X, X)])
            self._wick = (X, square - self.a, cube - 3.0 * self.a * X)
        return self._wick[1:]

    def _vref_drift(self, W2: Field) -> Field:
        e3 = Field(self.grid, np.exp(3.0 * self.I2.values))
        inner = dealiased_product(self.I3, W2) - self.b * (self.X + self.I3)
        return 3.0 * dealiased_product(e3, inner)

    def step(self, dt: float, noise: Field | None = None) -> None:
        """Advance every component by dt: exponential Euler for the
        integrated trees, then the exact OU transition for X.  I2 and I3 step
        with W2 and W3 of the step's start; the v_ref drift then reads I2
        and I3 after their steps, and X and W2 of the step's start.

        noise=None draws the increment from the stream; a given increment
        field over this step (ou_noise_field) shares the realization with a
        co-evolving u-trajectory.
        """
        W2, W3 = self.wick_powers()
        self.I2 = duhamel_step(self.I2, W2, dt)
        self.I3 = duhamel_step(self.I3, W3, dt)
        if self.track_vref:
            self.v_ref = duhamel_step(self.v_ref, self._vref_drift(W2), dt)
        if noise is None:
            noise = ou_noise_field(self.grid, dt, self.r, self.stream.normals(self.grid.shape))
        self.X = ou_transition(self.X, noise, dt)
        self.time += dt

    def clone(self) -> "TreeEvolver":
        """Independent copy of the current state (fields are immutable, so
        sharing them is safe); the copy keeps the same stream object."""
        other = TreeEvolver.__new__(TreeEvolver)
        other.__dict__.update(self.__dict__)
        return other

    def burn_in(self, duration: float, dt: float) -> None:
        steps = int(round(duration / dt))
        for _ in range(steps):
            self.step(dt)

    def snapshot(self, with_resonants: bool = True) -> EnhancedNoise:
        W2, W3 = self.wick_powers()
        snap = EnhancedNoise(
            r=self.r, time=self.time, X=self.X, W2=W2, W3=W3,
            I2=self.I2, I3=self.I3, v_ref=self.v_ref,
            a=self.a, b=self.b,
        )
        if with_resonants:
            # R4 shares the blocks of I3 with R1 and the near sums of W2 with
            # R2; in this order each shared pad serves two neighbouring
            # products and is dropped
            R1, R4, R2 = resonants((self.I3, self.X), (self.I3, W2), (self.I2, W2))
            snap.R1 = R1
            snap.R2 = R2 - self.b / 3.0
            snap.R3 = grad_dot(self.I2, self.I2) - self.b / 3.0
            snap.R4 = R4 - self.b * self.X
        return snap


def build_enhanced_noise(
    stream: NoiseStream,
    grid: Grid,
    r: float,
    burn_in: float = 5.0,
    dt: float = 0.05,
    n_snapshots: int = 1,
    snapshot_stride: float = 1.0,
    with_resonants: bool = True,
    track_vref: bool = False,
) -> Iterator[EnhancedNoise]:
    """Yield an enhanced-noise trajectory one time slice at a time: burn in
    the integrated trees, then n_snapshots slices separated by
    snapshot_stride, each made when it is asked for.  The arguments are
    checked when the function is called, before any slice.  v_ref is
    integrated only with track_vref; it draws no noise, so the other
    components are the same either way."""
    if burn_in < 5.0:
        raise ValueError(
            "burn_in must cover at least 5 relaxation times of the slowest mode"
        )
    ev = TreeEvolver(grid, r, stream, track_vref=track_vref)
    stride_steps = max(1, int(round(snapshot_stride / dt)))

    def slices():
        ev.burn_in(burn_in, dt)
        for i in range(n_snapshots):
            if i > 0:
                for _ in range(stride_steps):
                    ev.step(dt)
            yield ev.snapshot(with_resonants=with_resonants)

    return slices()


def tree_divergence_report(
    grid: Grid,
    r_values,
    seed: int = 0,
    burn_in: float = 5.0,
    dt: float = 0.05,
    n_snapshots: int = 8,
    snapshot_stride: float = 1.0,
) -> list[dict]:
    """Fit the r-dependence of tree statistics across a regularization sweep.

    For each r the report records the spatial/ensemble mean of the raw
    square X^2 (diverging like a_r ~ r^{-1/2}), of the renormalized Wick
    square (bounded), and of the raw resonant product I2 o W2 (diverging
    like b_r/3 ~ |log r|/3 slope); renormalized counterparts stay bounded.

    Only means are read, so the snapshots form no resonant product: the
    mean of X^2 is that of W2 plus a_r, and that of I2 o W2 is that of
    I2 W2, since a mean pairs each mode k with -k, which lies in its level.
    """
    r_values = sorted(r_values, reverse=True)
    if len(r_values) < 4:
        raise ValueError(f"need at least 4 sweep points, got {len(r_values)}")
    span = np.log10(r_values[0]) - np.log10(r_values[-1])
    if span < 1.5:
        raise ValueError(f"sweep must span at least 1.5 decades, got {span:.2f}")
    rows = []
    for i, r in enumerate(r_values):
        snaps = build_enhanced_noise(NoiseStream(seed, stream=i), grid, r, burn_in=burn_in, dt=dt,
                                     n_snapshots=n_snapshots, snapshot_stride=snapshot_stride,
                                     with_resonants=False)
        # three numbers per snapshot, averaged over the snapshots
        stats = [(s.W2.mean(), dealiased_product(s.I2, s.W2).mean(), besov_norm(s.X, -0.6))
                 for s in snaps]
        wick_sq, raw_reso, x_besov = (float(np.mean(col)) for col in zip(*stats))
        a, b = a_closed(r), b_closed(r)
        rows.append({
            "r": r,
            "a_r": a,
            "b_r": b,
            "raw_square_mean": wick_sq + a,
            "wick_square_mean": wick_sq,
            "raw_resonant_mean": raw_reso,
            "renormalized_resonant_mean": raw_reso - b / 3.0,
            "X_besov": x_besov,
        })
    return rows
