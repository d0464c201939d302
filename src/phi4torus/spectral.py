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
Every transform maps real values to the half-cube or back, and one private
helper runs and counts them all (`transform_counts`).  Physical values are
computed on first read: a field built from coefficients (a product, a
Duhamel step, a block, a gradient, a noise increment) runs its inverse
transform only when some caller reads its values, and keeps the result.
A sum or difference of two fields works on their coefficients, and a field
with a scalar (+, -, *) on what the field holds, so a field built from
others is not transformed again.

Transforms.  Every transform is a chain of one-axis numpy.fft calls
(`_fft`), one per axis: a real pass over the last axis, between real
values and the half-cube, and a complex pass over each leading axis, in
place.  numpy.fft runs on one thread; the fields here are small (16^3 to
64^3), and a thread pool costs more than it saves.  An N-grid inverse
takes d calls whatever the number of fields it transforms, so a caller
that reads the values of several fields at once hands them to `evaluate`,
which stacks their coefficients and transforms them together.

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

Semigroup cache.  Every linear step solves (d/dt + P) exactly through
e^{-tP}.  `semigroup(grid, t)` builds e^{-t lam} and the Duhamel weight
(1 - e^{-t lam}) / lam once per (grid, t), read-only, as exponential
integrators set up their coefficients once per step size (Cox & Matthews
2002, J. Comput. Phys. 176:430).  The cache keeps the 8 entries used last:
a stiff substep takes a dt of its own, and a `comedown` run at N = 16,
dt = 0.004 makes 1 943 Duhamel steps with 83 distinct dt, 81 used once.

Dealiasing.  Products are formed on a product grid of M points per axis:
each distinct factor is zero-padded once, the factors are multiplied
pointwise, a sum of products is added up there, and the result is truncated
back to N.  A factor's reach K is the largest |k_a| of its modes: N/2 for a
field, less for a `Band` of its low levels.  Factors of reaches K1 and K2
give a product that, kept to the modes |k_a| <= K3, is alias-free on any
M >= K1 + K2 + K3 + 1: a kept mode takes aliases only from M - K3 away,
past the reach of the product.  For two fields of the grid that is the 3/2
rule, M >= 3N/2 + 1 (Orszag 1971, J. Atmos. Sci. 28:1074); band-limited
factors need less (Bahouri, Chemin & Danchin 2011, ch. 2).  A call whose
terms all have at most two factors runs on the smallest 5-smooth
M >= R + min(R, N/2) + 1, odd or even, for R the largest reach of a term,
the sum of its factors' reaches, and keeps each sum to min(R, N/2) of its
own terms (`_product_size`).  Two fields give 15, 25, 50 and 100 at N = 8,
16, 32 and 64, and 2N at N <= 4; the levels of a resonant product give 5,
15, 25, 45, 50 and 50 at N = 32 (`paraproduct.resonants`).  FFTs of
5-smooth sizes are fast, and 98^3 took longer than 100^3.  An odd M has no
Nyquist plane of its own: column N/2 of its half-cube is an ordinary
column, and row N/2 an ordinary row.  A call with a three-factor term runs
on 2N: the cube, and X padded once for both W2 and W3.  Three factors would
need 2N + 1, and on 2N the modes +-3N/2 of a cube fold onto its Nyquist
planes; nothing else aliases.  Two-factor products on M agree with those on
2N to rounding, while at M = 3N/2 the square of 3-d white noise at N = 16
would move by about 3% of its sup norm.

Pruned transforms.  A padded M half-cube is zero outside its first K + 1
columns and, along each leading axis, outside the 2K + 1 rows of the
frequencies -K .. K, for K the reach of the padded factor, so the M
transforms skip the zero rows (FFT pruning: Markel 1971, IEEE Trans. Audio
Electroacoust. 19:305; Frigo & Johnson 2005, Proc. IEEE 93:216).  A pad
fills the M half-cube, runs one complex pass per leading axis, first to
last, each over the nonzero columns and only the nonzero rows of the
leading axes not yet transformed, and ends with one real pass over the
last axis.  A truncation to the reach K runs the real pass over the last
axis, then the same complex passes in reverse, and reads the retained
rows.  Every complex pass runs on a view of the half-cube, in place; in
3-d the pass over the first axis takes two calls, one per block of nonzero
rows of the second axis.  Working in place allocates no more than the full
transforms did, which counts: a fresh 2 MB array that glibc has just
returned to the kernel is faulted in page by page as it is written.  The
results equal the full transforms of the padded half-cube, pads to the bit
and truncations to rounding.  Where the coefficients go is one index table
per grid, M and K (`_pad_plan`): a pad scatters the modes |k_a| <= K into
the M half-cube, a Band's straight from its field's coefficients, and a
truncation gathers them back.  Only K = N/2 holds Nyquist modes.  The
CHANGES.md entries "Pruned 2N transforms" and "One reused 2N workspace"
give the timings and page-fault counts.

Workspace.  The arrays of the product grids therefore live in buffers that
this module keeps and reuses (the preallocated workspace of FFT libraries,
Frigo & Johnson 2005).  A buffer is a flat complex array at least the size
of an M half-cube, viewed as that half-cube or as the real M values (its
M^{d-1} (M//2 + 1) complex slots hold M^d floats, for odd M too), so one
buffer serves a pad's spectrum, then a product or a sum, then a
truncation's spectrum.  The real passes write into a buffer through
numpy.fft's `out=`; products multiply and sums add in place, and a product
goes into the buffer of a factor at that factor's last use, when only the
first multiplication reads it (the same bits).  A buffer goes back after
its last use on one free list, kept in increasing size, and a take gets
the smallest free buffer that holds its half-cube, so the buffers of one
grid serve every smaller one.  A truncation gathers the kept modes into a
fresh N half-cube, so no field holds a buffer.  Only a take that no free
buffer holds allocates one, and it drops the largest free one, so the list
holds at most as many buffers as were in use at once: 2 for `cubic`, 3 for
a tree step and 3 for a snapshot with resonants.  A tree step forms the
Wick powers on 2N and the v_ref drift on M in the same three 2N buffers,
and a snapshot's products, every level of its resonant products included,
run in them too and allocate none: 6.5 MB at N = 32 and 51 MB at N = 64.
The free list holds the buffers of one N grid at a time.  A product on
another N grid drops them, so moving to another grid releases the buffers
of the old one, and a run on one grid allocates none after its first
products.  The free list is module state: threads must not compute
products at once.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import struct
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "evaluate",
    "apply_multiplier",
    "duhamel_step",
    "semigroup",
    "cubic",
    "dealiased_product",
    "dealiased_sums",
    "Band",
    "gradient",
    "grad_dot",
    "lp_norm",
    "save_field",
    "load_field",
    "transform_counts",
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
        k = np.arange(self.n)
        k[self.n // 2:] -= self.n
        return k * (2.0 * np.pi / self.period)


@dataclass(frozen=True)
class HalfCube:
    """Wavenumber tables of a grid's rfftn half-cube, built once per grid.

    shape : (N, ..., N, N/2 + 1).
    k_squared : |k|^2 over the half-cube.
    eigenvalues : lambda_k = 1 + |k|^2 of P.
    ik : i k_a per axis, shaped to broadcast over the half-cube, with the
        Nyquist wavenumber set to 0 (the derivative of a Nyquist mode along
        its own axis vanishes on a real grid).
    levels : the Littlewood-Paley level of each mode: -1 where |k| <= 1 and
        j where max(2^{j-1}, 1) < |k| <= 2^j, so that level 0 holds no mode.
    """

    shape: tuple[int, ...]
    k_squared: np.ndarray
    eigenvalues: np.ndarray
    ik: tuple[np.ndarray, ...]
    levels: np.ndarray


@functools.cache
def half_cube(grid: Grid) -> HalfCube:
    n, dim = grid.n, grid.dim
    axes = [grid.axis_frequencies()] * (dim - 1)
    axes.append(np.arange(n // 2 + 1) * (2.0 * np.pi / grid.period))
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
    # edges[i] = max(2^{i-1}, 1), up to one level past the largest |k|, so
    # that searchsorted puts |k| at the i with edges[i-1] < |k| <= edges[i]
    kmag = np.sqrt(ksq)
    top = math.ceil(math.log2(max(kmag.max(), 1.0))) + 1
    edges = np.maximum(2.0 ** np.arange(-1, top + 1), 1.0)
    levels = np.searchsorted(edges, kmag) - 1
    for arr in (*ik, ksq, lam, levels):
        arr.setflags(write=False)
    return HalfCube(shape, ksq, lam, tuple(ik), levels)


_COUNTS = Counter()


def transform_counts() -> dict[str, int]:
    """What this process has transformed so far.

    transforms : logical transforms: a field's values or coefficients, a pad
        to or a truncation from a product grid.
    passes : the numpy.fft calls they took, each over one axis.  A
        transform on the N grid takes d of them, one per axis, and so does
        a stacked inverse of several fields (`evaluate`).
    points : the values that the 1-d transforms of those passes take in or
        give out, on their longer side, summed over the passes.  A real
        pass transforms its last axis between real values and the
        half-cube, a complex pass one axis of the half-cube.
    """
    return {key: _COUNTS[key] for key in ("transforms", "passes", "points")}


def _fft(name: str, x: np.ndarray, axis: int, out=None, fields: int = 1) -> np.ndarray:
    """The one-axis transform `name` (rfft, irfft, fft or ifft) of x along
    `axis`, scaled by 1/n on the forward side, into `out` when one is given
    (out=x runs a complex pass in place).  This is the one place of the
    package that transforms, and it counts each pass.

    An irfft into `out` takes its length from `out`: the half-cube alone
    leaves it ambiguous, 2 (M // 2) for an odd M; without `out` it is
    2 (m - 1) for m half-cube columns, the even N grid.  Every logical
    transform maps real values to half-cube coefficients or back, and
    exactly one of its passes, the real one, crosses between them, so the
    real passes count the logical transforms: `fields` of them for a pass
    over fields stacked along a first axis.
    """
    n = out.shape[axis] if name == "irfft" and out is not None else None
    y = getattr(np.fft, name)(x, n=n, axis=axis, norm="forward", out=out)
    _COUNTS["passes"] += 1
    # a real pass's longer side is its real one; a complex pass keeps its size
    _COUNTS["points"] += (x if name == "rfft" else y).size
    if name in ("rfft", "irfft"):
        _COUNTS["transforms"] += fields
    return y


class Field:
    """Real scalar function on a Grid with a cached half-cube spectrum.

    Fields are treated as immutable snapshots: operations return new Field
    instances.  A field holds its physical values, its half-cube
    coefficients c = rfftn(values)/N^d, or both, and computes the missing
    one on first use (read-only thereafter).  A field built from
    coefficients (`from_half`) runs its inverse transform only when its
    values are read.  + and - of two fields work on their coefficients;
    + and - of a field and a scalar, and multiplication by a scalar, work
    on what the field holds, values, coefficients or both.  A field times
    a field raises TypeError: products of fields are dealiased
    (`dealiased_product`).  So does any arithmetic of a field with an
    array: wrap the array as a Field.
    """

    # an array operand defers to Field's own operators, so that
    # `array * field` raises TypeError as `field * array` does
    __array_ufunc__ = None

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
            evaluate(self)
        return self._values

    @property
    def half(self) -> np.ndarray:
        """Half-cube coefficients c = rfftn(values) / N^d."""
        if self._half is None:
            half = _fft("rfft", self._values, -1)
            for axis in range(self.grid.dim - 1):
                _fft("fft", half, axis, out=half)
            half.setflags(write=False)
            self._half = half
        return self._half

    # -- arithmetic (pure, returns new fields) -----------------------------
    def _check(self, other: "Field"):
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")

    def _linear(self, other, op):
        """self op other for op = np.add or np.subtract, where other is a
        Field or a scalar."""
        if isinstance(other, Field):
            self._check(other)
            return Field._of(self.grid, None, op(self.half, other.half))
        if np.ndim(other) != 0:
            return NotImplemented
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
        if isinstance(other, Field) or np.ndim(other) != 0:
            return NotImplemented
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
        """The spatial mean: the k = 0 coefficient when the field has
        coefficients, so that reading it runs no transform."""
        if self._half is not None:
            return float(self._half.flat[0].real)
        return float(self._values.mean())


def evaluate(*fields: Field) -> None:
    """Compute the values of those of `fields` that hold only coefficients,
    all at once: their half-cubes are stacked, and one complex pass per
    leading axis and one real pass over the last transform the stack in
    place, d numpy.fft calls for any number of fields.  It counts one
    logical transform per field, and the points of one transform each, as
    reading their values one by one would.  A field that holds values, or
    one given twice, is transformed once at most.  The fields must share
    one grid.  Their values are views of one array, which stays allocated
    while any of them lives."""
    if any(f.grid != fields[0].grid for f in fields):
        raise ValueError("fields live on different grids")
    todo = list(dict.fromkeys(f for f in fields if f._values is None))
    if not todo:
        return
    stack = np.array([f._half for f in todo])
    for axis in range(1, stack.ndim - 1):
        _fft("ifft", stack, axis, out=stack)
    for f, values in zip(todo, _fft("irfft", stack, -1, fields=len(todo))):
        values.setflags(write=False)
        f._values = values


def apply_multiplier(f: Field, symbol) -> Field:
    """Apply the Fourier multiplier with weights symbol(lambda_k), where the
    callable maps the eigenvalues lambda_k = 1 + |k|^2 of P (an array) to
    real weights; the result is real-valued on the same grid."""
    w = np.asarray(symbol(half_cube(f.grid).eigenvalues), dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("multiplier takes a non-finite value on the grid")
    return Field.from_half(f.grid, f.half * w)


class Semigroup(NamedTuple):
    """The heat semigroup of a grid at one time t, over the half-cube."""

    decay: np.ndarray  # e^{-t lam}
    weight: np.ndarray  # (1 - e^{-t lam}) / lam, the Duhamel weight


@functools.lru_cache(maxsize=8)
def semigroup(grid: Grid, t: float) -> Semigroup:
    """e^{-tP} of the grid and its Duhamel weight ("Semigroup cache")."""
    lam = half_cube(grid).eigenvalues
    decay = np.exp(-t * lam)
    weight = (1.0 - decay) / lam
    for arr in (decay, weight):
        arr.setflags(write=False)
    return Semigroup(decay, weight)


def duhamel_step(u: Field, nonlinearity: Field, dt: float) -> Field:
    """One exponential-Euler step of (d/dt + P) u = nonlinearity.

    Per Fourier mode:  u' = e^{-dt lam} u + (1 - e^{-dt lam}) / lam * nonlin,
    i.e. the Duhamel integral with the drift frozen at the step's start.
    """
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    if nonlinearity.grid != u.grid:
        raise ValueError("fields live on different grids")
    decay, weight = semigroup(u.grid, dt)
    return Field.from_half(u.grid, decay * u.half + weight * nonlinearity.half)


def _product_size(n: int, reach: int, factors: int) -> int:
    """Points per axis of the grid on which products of fields of an N grid
    are formed ("Dealiasing"): 2N when a term has three factors; otherwise
    the smallest 5-smooth M >= R + min(R, N/2) + 1, odd or even, for R the
    largest reach of a term, the sum of its factors' reaches (`Band`).  Two
    fields of the grid give R = N and M >= 3N/2 + 1, which is at most 2N
    since N is a power of two."""
    if factors > 2:
        return 2 * n
    m = reach + min(reach, n // 2) + 1
    while not _five_smooth(m):
        m += 1
    return m


def _five_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class Band(NamedTuple):
    """Delta_lo f + ... + Delta_hi f: the modes of `field` whose
    Littlewood-Paley level (`HalfCube.levels`) lies in lo..hi, as a factor
    of `dealiased_sums`.  A pad places these modes straight from the
    field's coefficients, so the band is never built as a field of its
    own, and its reach sizes the product grid."""

    field: Field
    lo: int
    hi: int


@functools.cache
def _band_reach(grid: Grid, lo: int, hi: int) -> int:
    """The largest |k_a| over the axes a and the modes of levels lo..hi:
    the modes of the band lie in the cube |k_a| <= reach."""
    levels = half_cube(grid).levels
    index = np.indices(levels.shape)
    reach = np.minimum(index, grid.n - index).max(axis=0)
    return int(reach[(lo <= levels) & (levels <= hi)].max(initial=0))


def _field(factor) -> Field:
    """The field of a factor of `dealiased_sums`: itself or its Band's."""
    return factor.field if isinstance(factor, Band) else factor


def _reach(factor) -> int:
    """The reach of a factor: N/2 for a field, that of its band for a Band."""
    if isinstance(factor, Band):
        return _band_reach(factor.field.grid, factor.lo, factor.hi)
    return factor.grid.n // 2


class _PadPlan(NamedTuple):
    """Where the modes |k_a| <= K of a grid's half-cube go in the half-cube
    of M points per axis (M >= 2K + 1, odd or even), as flat indices, and
    the passes of the pruned M transforms.  K is the reach of the band
    that a pad places or a truncation keeps; only K = N/2 holds Nyquist
    modes, so only then are they split.

    source : the N modes placed, in flat order: a slice of all of them for
        K = N/2, else their flat indices.
    levels : the Littlewood-Paley level of each source mode.
    image : the M index of each source mode: its image with every Nyquist
        component at -N/2, except on the plane of last-axis Nyquist modes,
        whose only image in the M half-cube has them all at +N/2 (the -N/2
        one is the conjugate of a mirrored slot).
    halved : the images of the modes with a Nyquist component, which get
        half of the coefficient.
    paired, twin : the source modes with a Nyquist component off that
        plane, and their second image, every Nyquist component at +N/2.
    edge, mirror : the source modes on that plane, and the mode -k of each.
    passes : the complex passes of a pruned inverse M transform, in order,
        as (axis, index of the view to transform): one per leading axis,
        first to last, over the columns 0..K and only the rows -K..K of the
        leading axes not yet transformed.  Those rows form two blocks per
        axis, so a pass takes one view per combination of blocks.  A pruned
        forward transform runs the same passes in reverse.
    """

    grid_shape: tuple[int, ...]  # the N grid
    shape: tuple[int, ...]  # the M grid
    half_shape: tuple[int, ...]  # its half-cube
    source: slice | np.ndarray
    levels: np.ndarray
    image: np.ndarray
    halved: np.ndarray
    paired: np.ndarray
    twin: np.ndarray
    edge: np.ndarray
    mirror: np.ndarray
    passes: tuple


@functools.cache
def _pad_plan(grid: Grid, m: int, reach: int) -> _PadPlan:
    n, dim = grid.n, grid.dim
    h = n // 2
    if not 0 <= reach <= h or m < 2 * reach + 1:
        raise ValueError(f"no plan for reach {reach} on {m} points from N = {n}")
    shape = half_cube(grid).shape
    big = (m,) * (dim - 1) + (m // 2 + 1,)  # the M half-cube
    index = np.indices(shape).reshape(dim, -1)
    source = slice(None)
    if reach < h:
        source = np.flatnonzero(np.minimum(index, n - index).max(axis=0) <= reach)
    index = index[:, source]
    lead, col = index[:-1], index[-1]
    # the M rows of frequencies -K .. K, with row N/2 at -N/2 or +N/2
    minus = np.where(lead < h, lead, lead + (m - n))
    plus = np.where(lead <= h, lead, lead + (m - n))
    edge = col == h
    nyquist = (lead == h).any(axis=0) | edge
    image = np.ravel_multi_index((*np.where(edge, plus, minus), col), big)
    paired = nyquist & ~edge
    twin = np.ravel_multi_index((*plus, col), big)[paired]
    # on that plane (K = N/2) the source modes are all the modes, in flat order
    mirror = np.ravel_multi_index((*(-lead % n), col), shape)[edge]
    # rows 0..K and -K..-1; the lone mode 0 (K = 0) has one block
    rows = (slice(0, reach + 1), slice(m - reach, m)) if reach else (slice(0, 1),)
    passes = tuple(
        (axis, (slice(None),) * (axis + 1) + block + (slice(0, reach + 1),))
        for axis in range(dim - 1)
        for block in itertools.product(rows, repeat=dim - 2 - axis)
    )
    levels = half_cube(grid).levels.reshape(-1)[source]
    return _PadPlan(grid.shape, (m,) * dim, big, source, levels, image, image[nyquist],
                    np.flatnonzero(paired), twin, np.flatnonzero(edge), mirror, passes)


# the free buffers of the product grids of the N grid used last, in
# increasing size ("Workspace" in the module docstring), and that N grid's
# shape
_FREE: list[np.ndarray] = []
_FREE_GRID = None


def _take(plan: _PadPlan, view: str) -> np.ndarray:
    """The smallest free buffer that holds an M half-cube, as that
    half-cube ("half") or as the real M values ("real"), its content
    undefined.  Only when no free buffer holds it is one allocated, and
    then the largest free one, too small, is dropped, so that the list
    never holds more buffers than were in use at once.  The buffers of the
    product grids of another N grid are dropped."""
    global _FREE_GRID
    if plan.grid_shape != _FREE_GRID:
        _FREE.clear()
        _FREE_GRID = plan.grid_shape
    size = math.prod(plan.half_shape)
    for i, buf in enumerate(_FREE):
        if buf.size >= size:
            del _FREE[i]
            break
    else:
        if _FREE:
            _FREE.pop()
        buf = np.empty(size, complex)
    if view == "half":
        return buf[:size].reshape(plan.half_shape)
    return buf.view(np.float64)[: math.prod(plan.shape)].reshape(plan.shape)


def _give(a: np.ndarray) -> None:
    """Hand back the buffer that a, a view from `_take`, lies in.  Nothing
    may read a afterwards."""
    bisect.insort(_FREE, a.base, key=operator.attrgetter("size"))


def _padded_values(factor, plan: _PadPlan) -> np.ndarray:
    """Values on the M grid of a field, or of a Band of one: the modes of
    `plan.source` (those of the band, for a Band) zero-padded, with each
    Nyquist coefficient split evenly between its two images.  The complex
    passes of the inverse transform skip the zero rows (`plan.passes`) and
    work in place; the real pass over the last axis ends it.  The values
    lie in an M buffer, which the caller hands back (`_give`)."""
    coeffs = _field(factor).half.reshape(-1)[plan.source]
    if isinstance(factor, Band):
        coeffs = np.where((factor.lo <= plan.levels) & (plan.levels <= factor.hi), coeffs, 0)
    out = _take(plan, "half")
    flat = out.reshape(-1)
    flat.fill(0)
    flat[plan.image] = coeffs
    flat[plan.halved] = 0.5 * flat[plan.halved]
    flat[plan.twin] = flat[plan.image[plan.paired]]
    for axis, index in plan.passes:
        rows = out[index]
        _fft("ifft", rows, axis, out=rows)
    vals = _fft("irfft", out, -1, out=_take(plan, "real"))
    _give(out)
    return vals


def _truncated_field(grid: Grid, vals: np.ndarray, plan: _PadPlan) -> Field:
    """The field on `grid` whose coefficients are those of the M values at
    the modes of `plan.source`, and zero elsewhere, with each Nyquist
    coefficient the mean of its two images.  After the real pass over the
    last axis, the complex passes of `plan.passes` run in reverse and in
    place, computing only the rows that are kept.  The spectrum lies in an
    M buffer, from which the field's coefficients are gathered."""
    big = _fft("rfft", vals, -1, out=_take(plan, "half"))
    for axis, index in reversed(plan.passes):
        rows = big[index]
        _fft("fft", rows, axis, out=rows)
    flat = big.reshape(-1)
    out = flat[plan.image]
    out[plan.paired] = 0.5 * (out[plan.paired] + flat[plan.twin])
    out[plan.edge] = 0.5 * (out[plan.edge] + np.conj(out[plan.mirror]))
    _give(big)
    shape = half_cube(grid).shape
    if isinstance(plan.source, slice):
        return Field.from_half(grid, out.reshape(shape))
    half = np.zeros(shape, complex)
    half.reshape(-1)[plan.source] = out
    return Field.from_half(grid, half)


def dealiased_sums(*sums) -> list[Field]:
    """[sum_i prod_{f in terms[i]} f for terms in sums], each product
    dealiased by zero padding to M points per axis ("Dealiasing"): M = 2N
    when some term has three factors, else the smallest alias-free M for
    the reaches of the terms.  A factor is a field or a Band of one.  Each
    sum is added up on the M grid and truncated back once, to the reach of
    its largest term or N/2, and each distinct factor is padded once across
    all the sums."""
    sums = [list(terms) for terms in sums]
    if not sums:
        raise ValueError("no sums to form")
    for s, terms in enumerate(sums):
        if not terms:
            raise ValueError(f"sum {s} has no terms")
        for i, factors in enumerate(terms):
            if not factors:
                raise ValueError(f"term {i} of sum {s} has no factors")
    # term i of every sum before term i + 1 of any, so that a factor which
    # several sums share at the same place is padded, used and dropped in
    # one round; each sum still adds its terms in order
    order = [(s, i) for i in range(max(map(len, sums)))
             for s, terms in enumerate(sums) if i < len(terms)]
    factors = [x for s, i in order for x in sums[s][i]]
    grid = _field(factors[0]).grid
    if any(_field(x).grid != grid for x in factors):
        raise ValueError("fields live on different grids")
    # the reach of each distinct factor, and of each sum: that of its
    # largest term, a sum of factor reaches
    reach = {x: _reach(x) for x in factors}
    sum_reach = [max(sum(reach[x] for x in t) for t in terms) for terms in sums]
    m = _product_size(grid.n, max(sum_reach), max(len(t) for terms in sums for t in terms))
    # the plans of the pads, and of each sum's truncation to its reach
    pads = {r: _pad_plan(grid, m, r) for r in set(reach.values())}
    plans = [_pad_plan(grid, m, min(r, grid.n // 2)) for r in sum_reach]
    # a factor's M buffer goes back after its last use, or holds the
    # product of that use
    uses = Counter(factors)
    padded, totals, out = {}, {}, [None] * len(sums)
    for s, i in order:
        term = sums[s][i]
        vals = []
        for x in term:
            if x not in padded:
                padded[x] = _padded_values(x, pads[reach[x]])
            vals.append(padded[x])
            uses[x] -= 1
        spent = [x for x in dict.fromkeys(term) if not uses[x]]
        # a spent factor that only the first multiplication reads takes
        # the product into its own buffer: the same bits, one buffer fewer
        into = next((x for x in spent if x not in term[2:]), None)
        prod = _take(plans[s], "real") if into is None else padded.pop(into)
        if len(vals) > 1:
            np.multiply(vals[0], vals[1], out=prod)
        elif prod is not vals[0]:
            np.copyto(prod, vals[0])
        for v in vals[2:]:
            np.multiply(prod, v, out=prod)
        # only now, once the product no longer reads them
        for x in spent:
            if x is not into:
                _give(padded.pop(x))
        if i:
            totals[s] += prod
            _give(prod)
        else:
            totals[s] = prod
        if i + 1 == len(sums[s]):
            total = totals.pop(s)
            out[s] = _truncated_field(grid, total, plans[s])
            _give(total)
    return out


def dealiased_product(*fields: Field) -> Field:
    """Pointwise product of fields, dealiased as in dealiased_sums; each
    distinct factor is padded once."""
    return dealiased_sums([fields])[0]


def cubic(f: Field) -> Field:
    """Pointwise cube f^3, dealiased on the 2N grid."""
    return dealiased_sums([(f, f, f)])[0]


def gradient(f: Field) -> list[Field]:
    """Spectral gradient, one field per axis."""
    half = f.half
    return [Field.from_half(f.grid, ik * half) for ik in half_cube(f.grid).ik]


def grad_dot(a: Field, b: Field) -> Field:
    """grad a . grad b, with the products dealiased."""
    ga = gradient(a)
    gb = ga if b is a else gradient(b)
    return dealiased_sums(zip(ga, gb))[0]


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
