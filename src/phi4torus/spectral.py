"""Torus grids, real scalar fields, Fourier multipliers of P = 1 - Delta and
L^p norms.  This is the only module that calls an FFT.

The flat torus T^d_L = (R / L Z)^d is discretized with N points per axis.
Frequencies are the centered integer cube scaled by 2*pi/L, so that with the
default period L = 2*pi the eigenvalues of P = 1 - Delta are
lambda_k = 1 + |k|^2 with integer frequency vectors k.

Fields carry a dual physical/spectral representation.  The spectral
coefficients follow the convention

    u(x) = sum_k c_k exp(i k . x),        c_k = fftn(u) / N^d,

so that real physical values correspond to Hermitian-symmetric coefficients
and Parseval reads  mean(u^2) = sum_k |c_k|^2.

Storage.  A field keeps only the rfftn half-cube c = rfftn(u) / N^d, of
shape (N, ..., N, N/2 + 1); the other half follows from c_{-k} = conj(c_k).
All transforms are real-to-complex (rfftn) or complex-to-real (irfftn).
Physical values are computed on first read: a field built from
coefficients (a product, a Duhamel step, a block, a gradient, a noise
increment) runs its irfftn only when some caller reads its values, and
keeps the result.  Linear operations (+, -, scalar *) work on the
coefficients unless every operand already has values, so a field built
from others is not transformed again.

Transforms are serial: every call uses scipy's default of one worker.  The
fields here are small (16^3 to 64^3), and a thread pool costs more than it
saves.  On a 2-core machine, medians of 5 rounds:

    transform     1 worker    2 workers
    rfftn  16^3   0.064 ms    0.49 ms
    irfftn 16^3   0.062 ms    0.47 ms
    rfftn  64^3   3.0 ms      6.2 ms
    irfftn 64^3   5.3 ms      12.3 ms

At 64^3 the comparison moves with the host's load (in another sample two
workers won on irfftn, 2.9 against 4.7 ms); at 16^3 and 32^3 one worker won
in every sample.  Two workers were about 15% faster only at 128^3, which
no run of the benchmark reaches.

Nyquist convention.  Index N/2 of an axis is the frequency -N/2, which is
also +N/2.  A coefficient whose index has a Nyquist component is treated as
the average of its two images: the signed one, all Nyquist components at
-N/2, and the one with all of its Nyquist components at +N/2 at once (not
axis by axis).  This is what taking the real part of ifftn of the signed
embedding does, and the half-cube code follows it to rounding:
  * padding puts half of such a coefficient at each image;
  * truncation averages the two images, where on the last axis the -N/2
    image lies outside the half-cube and is read as the conjugate of the
    mirrored +N/2 slot;
  * the derivative of a Nyquist mode along its own axis is zero.

Dealiasing.  Products are formed on a 2N grid: each distinct factor is
zero-padded once, the factors are multiplied pointwise, a sum of products
is added up there, and the result is truncated back to N.  Padding stays at
2N rather than the 3/2 rule: with 3N/2 the square aliases into the Nyquist
planes and the cube into the retained modes.  On stationary X at N = 32,
r = 0.01 that moves the square by about 1.6e-5 and the cube by about 5e-4
of their sup norms, where the 2N results agree with the full-cube
definition to rounding.
"""

from __future__ import annotations

import functools
import itertools
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

__all__ = [
    "Grid",
    "Field",
    "apply_multiplier",
    "duhamel_step",
    "cubic",
    "dealiased_product",
    "dealiased_products",
    "dealiased_sum",
    "gradient",
    "grad_dot",
    "lp_norm",
    "save_field",
    "load_field",
]

_FIELD_MAGIC = b"PHI4FLD1"


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of the flat torus T^d_L.

    Parameters
    ----------
    dim : spatial dimension, 1, 2 or 3.
    n : points per axis (a power of two).
    period : physical period L > 0 of every axis (default 2*pi).
    """

    dim: int
    n: int
    period: float = 2.0 * np.pi

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 2, got {self.n}")
        if not (self.period > 0):
            raise ValueError(f"period must be positive, got {self.period}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def cell_count(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return (self.period / self.n) ** self.dim

    @property
    def volume(self) -> float:
        return self.period**self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Physical coordinates along one axis."""
        return np.arange(self.n) * (self.period / self.n)

    def coordinates(self) -> list[np.ndarray]:
        """Meshgrid (ij-indexed) of physical coordinates, one array per axis."""
        x = self.axis_coordinates()
        return list(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def axis_frequencies(self) -> np.ndarray:
        """Physical frequencies 2*pi*k/L along one axis, FFT-ordered."""
        return sfft.fftfreq(self.n, d=1.0 / self.n) * (2.0 * np.pi / self.period)


@dataclass(frozen=True)
class HalfCube:
    """Wavenumber tables of a grid's rfftn half-cube, built once per grid.

    shape : (N, ..., N, N/2 + 1).
    k_squared : |k|^2 over the half-cube.
    eigenvalues : lambda_k = 1 + |k|^2 of P.
    ik : i k_a per axis, shaped to broadcast over the half-cube, with the
        Nyquist wavenumber set to 0 (the derivative of a Nyquist mode along
        its own axis vanishes on a real grid).
    """

    shape: tuple[int, ...]
    k_squared: np.ndarray
    eigenvalues: np.ndarray
    ik: tuple[np.ndarray, ...]


@functools.cache
def half_cube(grid: Grid) -> HalfCube:
    n, dim = grid.n, grid.dim
    axes = [grid.axis_frequencies()] * (dim - 1)
    axes.append(sfft.rfftfreq(n, d=1.0 / n) * (2.0 * np.pi / grid.period))
    shape = (n,) * (dim - 1) + (n // 2 + 1,)
    ksq = np.zeros(shape)
    ik = []
    for a, ka in enumerate(axes):
        axis_shape = [1] * dim
        axis_shape[a] = ka.size
        ksq += ka.reshape(axis_shape) ** 2
        d = 1j * ka
        d[n // 2] = 0.0
        ik.append(d.reshape(axis_shape))
    lam = 1.0 + ksq
    for arr in (*ik, ksq, lam):
        arr.setflags(write=False)
    return HalfCube(shape, ksq, lam, tuple(ik))


def fft_workers() -> int:
    """The number of workers each transform runs with: scipy's default in
    the calling context, 1 unless the caller set another."""
    return sfft.get_workers()


def _mirror(a: np.ndarray, axes) -> np.ndarray:
    """a[-k mod n] along the given axes."""
    for ax in axes:
        a = np.roll(np.flip(a, ax), 1, ax)
    return a


class Field:
    """Real scalar function on a Grid with a cached half-cube spectrum.

    Fields are treated as immutable snapshots: operations return new Field
    instances.  A field holds its physical values, its half-cube
    coefficients c = rfftn(values)/N^d, or both, and computes the missing
    one on first use (read-only thereafter).  A field built from
    coefficients (`from_half`) runs its inverse transform only when its
    values are read.  +, - and multiplication by a scalar work on the values
    when every operand has them and on the coefficients otherwise.
    """

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid {grid.shape}"
            )
        values.setflags(write=False)
        self.grid = grid
        self._values = values
        self._half = None

    @classmethod
    def _of(cls, grid: Grid, values, half) -> "Field":
        """A field from its values, its coefficients or both (one may be
        None), both already validated."""
        f = cls.__new__(cls)
        for arr in (values, half):
            if arr is not None:
                arr.setflags(write=False)
        f.grid, f._values, f._half = grid, values, half
        return f

    @classmethod
    def from_half(cls, grid: Grid, coeffs: np.ndarray) -> "Field":
        """Build a field from half-cube coefficients c = rfftn(u)/N^d, which
        it keeps (read-only) as its spectrum; its values are computed on
        first read."""
        expected = half_cube(grid).shape
        if coeffs.shape != expected:
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match the half-cube "
                f"{expected} of grid {grid.shape}"
            )
        return cls._of(grid, None, coeffs)

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls._of(grid, np.zeros(grid.shape), np.zeros(half_cube(grid).shape, complex))

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "Field":
        half = np.zeros(half_cube(grid).shape, complex)
        half.flat[0] = c
        return cls._of(grid, np.full(grid.shape, float(c)), half)

    @property
    def values(self) -> np.ndarray:
        """Physical values on the grid, irfftn(c) N^d."""
        if self._values is None:
            values = sfft.irfftn(self._half, s=self.grid.shape, norm="forward")
            values.setflags(write=False)
            self._values = values
        return self._values

    @property
    def half(self) -> np.ndarray:
        """Half-cube coefficients c = rfftn(values) / N^d."""
        if self._half is None:
            half = sfft.rfftn(self._values, norm="forward")
            half.setflags(write=False)
            self._half = half
        return self._half

    # -- arithmetic (pure, returns new fields) -----------------------------
    def _check(self, other: "Field"):
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")

    def _linear(self, other, op):
        """self op other for op = np.add or np.subtract, where other is a
        Field, a scalar or an array of values."""
        if isinstance(other, Field):
            self._check(other)
            if self._values is None or other._values is None:
                return Field._of(self.grid, None, op(self.half, other.half))
            half = None
            if self._half is not None and other._half is not None:
                half = op(self._half, other._half)
            return Field._of(self.grid, op(self._values, other._values), half)
        if np.ndim(other) != 0:
            return Field(self.grid, op(self.values, other))
        half = None
        if self._half is not None:
            # a scalar moves only the k = 0 coefficient
            half = self._half.copy()
            half.flat[0] = op(half.flat[0], other)
        values = None if self._values is None else op(self._values, other)
        return Field._of(self.grid, values, half)

    def __add__(self, other):
        return self._linear(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._linear(other, np.subtract)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Field):
            self._check(other)
            return Field(self.grid, self.values * other.values)
        if np.ndim(other) != 0:
            return Field(self.grid, self.values * other)
        return Field._of(
            self.grid,
            None if self._values is None else self._values * other,
            None if self._half is None else self._half * other,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return Field._of(
            self.grid,
            None if self._values is None else -self._values,
            None if self._half is None else -self._half,
        )

    def mean(self) -> float:
        return float(self.values.mean())


def apply_multiplier(f: Field, symbol) -> Field:
    """Apply the Fourier multiplier with weights symbol(lambda_k), where the
    callable maps the eigenvalues lambda_k = 1 + |k|^2 of P (an array) to
    real weights; the result is real-valued on the same grid."""
    w = np.asarray(symbol(half_cube(f.grid).eigenvalues), dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("multiplier takes a non-finite value on the grid")
    return Field.from_half(f.grid, f.half * w)


def duhamel_step(u: Field, nonlinearity: Field, dt: float) -> Field:
    """One exponential-Euler step of (d/dt + P) u = nonlinearity.

    Per Fourier mode:  u' = e^{-dt lam} u + (1 - e^{-dt lam}) / lam * nonlin,
    i.e. the Duhamel integral with the drift frozen at the step's start.
    """
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    if nonlinearity.grid != u.grid:
        raise ValueError("fields live on different grids")
    lam = half_cube(u.grid).eigenvalues
    decay = np.exp(-dt * lam)
    return Field.from_half(
        u.grid, decay * u.half + (1.0 - decay) / lam * nonlinearity.half
    )


@dataclass(frozen=True)
class _PadPlan:
    """Slices that move half-cube coefficients between a grid and its 2N
    refinement.

    Each entry of `blocks` is (src, minus, plus, nyquist) over the leading
    d-1 axes: `src` selects a block of the N half-cube, `minus` and `plus`
    its images in the 2N half-cube with the block's Nyquist components at
    -N/2 and at +N/2 (the same slices when it has none), and `nyquist` says
    whether it has any.  `plus_plane` indexes the +N/2 images of the whole
    plane of last-axis Nyquist coefficients.
    """

    h: int
    shape: tuple[int, ...]  # the 2N grid
    blocks: tuple
    plus_plane: tuple


@functools.cache
def _pad_plan(grid: Grid) -> _PadPlan:
    n, dim = grid.n, grid.dim
    h, m = n // 2, 2 * n
    classes = {
        "low": (slice(0, h), slice(0, h), slice(0, h)),
        "high": (slice(h + 1, n), slice(m - h + 1, m), slice(m - h + 1, m)),
        "nyquist": (slice(h, h + 1), slice(m - h, m - h + 1), slice(h, h + 1)),
    }
    blocks = []
    for combo in itertools.product(classes, repeat=dim - 1):
        src, minus, plus = (tuple(classes[c][i] for c in combo) for i in range(3))
        if all(s.start < s.stop for s in src):
            blocks.append((src, minus, plus, "nyquist" in combo))
    plus_index = np.concatenate([np.arange(h + 1), np.arange(m - h + 1, m)])
    plus_plane = np.ix_(*([plus_index] * (dim - 1))) if dim > 1 else ()
    return _PadPlan(h, (m,) * dim, tuple(blocks), plus_plane)


def _padded_values(f: Field, plan: _PadPlan) -> np.ndarray:
    """Values of f on the 2N grid: its coefficients zero-padded, with each
    Nyquist coefficient split evenly between its two images."""
    h = plan.h
    half = f.half
    out = np.zeros(plan.shape[:-1] + (plan.shape[-1] // 2 + 1,), dtype=complex)
    low = slice(0, h)
    for src, minus, plus, nyquist in plan.blocks:
        block = half[src + (low,)]
        if nyquist:
            block = 0.5 * block
            out[plus + (low,)] = block
        out[minus + (low,)] = block
    out[plan.plus_plane + (h,)] = 0.5 * half[..., h]
    return sfft.irfftn(out, s=plan.shape, norm="forward")


def _truncated_field(grid: Grid, vals: np.ndarray, plan: _PadPlan) -> Field:
    """The field on `grid` whose coefficients are those of the 2N values
    restricted to N, with each Nyquist coefficient the mean of its two
    images."""
    h = plan.h
    big = sfft.rfftn(vals, norm="forward")
    out = np.empty(half_cube(grid).shape, dtype=complex)
    low = slice(0, h)
    for src, minus, plus, nyquist in plan.blocks:
        block = big[minus + (low,)]
        if nyquist:
            block = 0.5 * (block + big[plus + (low,)])
        out[src + (low,)] = block
    plane = big[plan.plus_plane + (h,)]
    out[..., h] = 0.5 * (plane + np.conj(_mirror(plane, range(plane.ndim))))
    return Field.from_half(grid, out)


def _padded_products(products):
    """The 2N-grid values of each product of fields in turn, with their grid
    and pad plan.  Each distinct factor is padded once across all products,
    and its padded values are dropped after their last use."""
    grid = products[0][0].grid
    for factors in products:
        for f in factors:
            if f.grid != grid:
                raise ValueError("fields live on different grids")
    plan = _pad_plan(grid)
    uses = Counter(id(f) for factors in products for f in factors)
    padded = {}

    def pad(f):
        key = id(f)
        vals = padded.get(key)
        if vals is None:
            vals = padded[key] = _padded_values(f, plan)
        uses[key] -= 1
        if not uses[key]:
            del padded[key]
        return vals

    def values():
        for factors in products:
            prod = pad(factors[0])
            for f in factors[1:]:
                prod = prod * pad(f)
            # the caller may write to a product; a lone factor is shared
            yield prod if len(factors) > 1 else prod.copy()

    return grid, plan, values()


def dealiased_products(*products) -> list[Field]:
    """[prod_{f in factors} f for factors in products], each product
    dealiased by 2x zero padding (aliasing-free for up to three factors).
    Each distinct factor is padded once across all the products."""
    grid, plan, values = _padded_products(products)
    return [_truncated_field(grid, vals, plan) for vals in values]


def dealiased_sum(*products) -> Field:
    """sum_i prod_{f in products[i]} f, each product dealiased as in
    dealiased_products.  The products are summed on the 2N grid and
    truncated back once."""
    grid, plan, values = _padded_products(products)
    total = next(values)
    for vals in values:
        total += vals
    return _truncated_field(grid, total, plan)


def dealiased_product(*fields: Field) -> Field:
    """Pointwise product of fields with 2x zero padding; each distinct
    factor is padded once."""
    return dealiased_products(fields)[0]


def cubic(f: Field) -> Field:
    """Pointwise cube f^3 computed with full dealiasing (2x zero padding)."""
    return dealiased_products((f, f, f))[0]


def gradient(f: Field) -> list[Field]:
    """Spectral gradient, one field per axis."""
    half = f.half
    return [Field.from_half(f.grid, ik * half) for ik in half_cube(f.grid).ik]


def grad_dot(a: Field, b: Field) -> Field:
    """grad a . grad b, with the products dealiased."""
    ga = gradient(a)
    gb = ga if b is a else gradient(b)
    return dealiased_sum(*zip(ga, gb))


def lp_norm(f: Field, p: float) -> float:
    """Grid quadrature of the L^p(T^d) norm with cell weight (L/N)^d;
    p = inf gives the max norm."""
    if not 1 <= p <= np.inf:
        raise ValueError(f"p must lie in [1, inf], got {p}")
    if p == np.inf:
        return float(np.abs(f.values).max())
    weight = f.grid.cell_volume
    return float(((np.abs(f.values) ** p).sum() * weight) ** (1.0 / p))


# -- serialization ----------------------------------------------------------
#
# Byte layout (little endian), 32-byte header followed by the flat array:
#   bytes  0-7   magic "PHI4FLD1"
#   bytes  8-11  uint32 d     (dimension)
#   bytes 12-15  uint32 N     (points per axis)
#   bytes 16-23  float64 L    (period)
#   bytes 24-31  reserved (zeros)
#   bytes 32-    N^d float64 values, C order


def save_field(f: Field, path) -> None:
    header = _FIELD_MAGIC + struct.pack("<IId8x", f.grid.dim, f.grid.n, f.grid.period)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_field(path) -> Field:
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) != 32 or header[:8] != _FIELD_MAGIC:
            raise ValueError(f"{path}: not a PHI4FLD1 field file")
        dim, n, period = struct.unpack("<IId8x", header[8:])
        grid = Grid(dim, n, period)
        data = np.frombuffer(fh.read(8 * grid.cell_count), dtype="<f8")
        if data.size != grid.cell_count:
            raise ValueError(f"{path}: truncated field file")
        return Field(grid, data.reshape(grid.shape).copy())
