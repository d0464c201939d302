"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms and data
structures than the library (union-find instead of DFS, Tarjan bridges
instead of removal probes, direct lattice sums instead of theta integrals)
so that agreement is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

# the power-counting corpus shared by the test files: .fg graphs derived
# from the trees (each file's header gives its derivation)
GRAPHS = Path(__file__).resolve().parent / "data" / "graphs"


# ---------------------------------------------------------------------------
# Lattice / spectral references
# ---------------------------------------------------------------------------


def brute_mode_sum(n: int, dim: int, period: float, r: float) -> float:
    """Direct lattice sum (1/L^d) sum_k e^{-2 r lam_k} / lam_k over the full
    frequency cube, no factorization tricks."""
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    total = 0.0
    for k in itertools.product(freqs, repeat=dim):
        lam = 1.0 + sum((2.0 * math.pi / period * ki) ** 2 for ki in k)
        total += math.exp(-2.0 * r * lam) / lam
    return total / period**dim


def naive_convolution_product(*signals: np.ndarray) -> np.ndarray:
    """Alias-free product of 1-d periodic signals by direct spectral
    convolution over exact integer frequency sums (no wraparound), keeping
    only the output modes representable on the original grid (O(n^factors))."""
    n = len(signals[0])
    freqs = list(np.fft.fftfreq(n, d=1.0 / n).astype(int))
    index = {k: i for i, k in enumerate(freqs)}
    specs = [np.fft.fft(s) / n for s in signals]
    out = {k: 0.0 + 0.0j for k in freqs}
    for combo in itertools.product(*(range(n) for _ in specs)):
        ktot = sum(freqs[i] for i in combo)
        if ktot in index:
            term = 1.0 + 0.0j
            for spec, i in zip(specs, combo):
                term *= spec[i]
            out[ktot] += term
    fc = np.array([out[k] for k in freqs])
    return np.real(np.fft.ifft(fc * n))


# ---------------------------------------------------------------------------
# Graph-theory references (independent of powercount internals)
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _contract(g, edge_subset):
    """(nodes, multi-edge list) of the subgraph with triples contracted to
    their star name; triples are completed by membership."""
    member_of = {}
    for t in g.triples:
        for m in (t.star, t.leg1, t.leg2):
            member_of[m] = t.name
    nodes = set()
    links = []
    for e in edge_subset:
        a = member_of.get(e.a, e.a)
        b = member_of.get(e.b, e.b)
        nodes.update((a, b))
        links.append((a, b))
    return nodes, links


def _tarjan_bridges(nodes, links):
    """Bridges of a multigraph via low-link numbering (iterative)."""
    adj = {v: [] for v in nodes}
    for idx, (a, b) in enumerate(links):
        adj[a].append((b, idx))
        adj[b].append((a, idx))
    visited, disc, low = set(), {}, {}
    bridges = []
    counter = itertools.count()
    for root in nodes:
        if root in visited:
            continue
        stack = [(root, -1, iter(adj[root]))]
        visited.add(root)
        disc[root] = low[root] = next(counter)
        while stack:
            v, in_edge, it = stack[-1]
            advanced = False
            for w, idx in it:
                if idx == in_edge:
                    continue
                if w not in visited:
                    visited.add(w)
                    disc[w] = low[w] = next(counter)
                    stack.append((w, idx, iter(adj[w])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        bridges.append(in_edge)
        # note: multigraph parallel edges carry distinct indices, so a
        # doubled edge is never a bridge
    return bridges


def reference_relevant_subgraphs(g):
    """All edge subsets (size >= 2, triples completed) that are connected,
    contain a loop, and have no bridge — computed with union-find and
    Tarjan bridges."""
    out = []
    edges = list(g.edges)
    for size in range(2, len(edges) + 1):
        for subset in itertools.combinations(edges, size):
            nodes, links = _contract(g, subset)
            uf = _UnionFind(nodes)
            for a, b in links:
                uf.union(a, b)
            roots = {uf.find(v) for v in nodes}
            if len(roots) != 1:
                continue
            b1 = len(links) - len(nodes) + len(roots)
            if b1 <= 0:
                continue
            if _tarjan_bridges(nodes, links):
                continue
            out.append(frozenset(subset))
    return out


# ---------------------------------------------------------------------------
# Statistics references
# ---------------------------------------------------------------------------


def gaussian_field_1d(rng: np.random.Generator, n: int, variance_per_mode):
    """Real Gaussian field on Z_n with prescribed spectral variance,
    assembled mode by mode (slow, explicit Hermitian symmetry)."""
    coeffs = np.zeros(n, dtype=complex)
    freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    index = {int(k): i for i, k in enumerate(freqs)}
    for k in range(1, n // 2):
        var = variance_per_mode(k)
        z = (rng.normal() + 1j * rng.normal()) * math.sqrt(var / 2.0)
        coeffs[index[k]] = z
        coeffs[index[-k]] = np.conj(z)
    coeffs[index[0]] = rng.normal() * math.sqrt(variance_per_mode(0))
    if n % 2 == 0:
        kn = n // 2
        coeffs[index[-kn]] = rng.normal() * math.sqrt(variance_per_mode(kn))
    return np.real(np.fft.ifft(coeffs * n))


# ---------------------------------------------------------------------------
# Full-cube spectral references
# ---------------------------------------------------------------------------
#
# The package stores rfftn half-cubes and handles the Nyquist planes by an
# explicit split-and-average rule.  These references use the plain
# definitions instead: complex numpy FFTs over the full cube, c = fftn(u)/N^d,
# u = Re ifftn(c N^d), and padding by placing each coefficient at its signed
# index (Nyquist at -N/2) in the padded cube, of 2N points per axis unless a
# function takes another m.  Taking the real part is what fixes the Nyquist
# convention here.


def full_coefficients(u: np.ndarray) -> np.ndarray:
    return np.fft.fftn(u) / u.size


def full_values(c: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(c * c.size).real


def full_wavenumbers(n: int, dim: int, period: float) -> list[np.ndarray]:
    k = np.fft.fftfreq(n, d=1.0 / n) * (2.0 * math.pi / period)
    return list(np.meshgrid(*([k] * dim), indexing="ij"))


def full_eigenvalues(n: int, dim: int, period: float) -> np.ndarray:
    return 1.0 + sum(km**2 for km in full_wavenumbers(n, dim, period))


def _signed_index(n: int, m: int, dim: int):
    idx = np.fft.fftfreq(n, d=1.0 / n).astype(int) % m
    return np.ix_(*([idx] * dim))


def full_dealiased_product(*us: np.ndarray, m: int | None = None) -> np.ndarray:
    """Product with zero padding to m points per axis (2N by default),
    every factor padded on its own."""
    n, dim = us[0].shape[0], us[0].ndim
    m = m or 2 * n
    index = _signed_index(n, m, dim)
    prod = None
    for u in us:
        big = np.zeros((m,) * dim, dtype=complex)
        big[index] = full_coefficients(u)
        vals = full_values(big)
        prod = vals if prod is None else prod * vals
    return full_values(full_coefficients(prod)[index])


def _signed(idx, n):
    """Signed frequencies of half-cube indices, the Nyquist index at -N/2."""
    return tuple(i - n if i >= n // 2 else i for i in idx)


def padded_half_cube(half: np.ndarray, n: int, m: int | None = None) -> np.ndarray:
    """The rfftn half-cube of m points per axis (2N by default) of the N
    half-cube `half` zero-padded, one coefficient at a time: each goes to
    its signed index, and one with a Nyquist component half to its image
    with every Nyquist component at -N/2 and half to the one with every
    Nyquist component at +N/2.  The -N/2 image of a last-axis Nyquist
    coefficient lies in the half of the cube that the half-cube leaves
    out."""
    m, h = m or 2 * n, n // 2
    out = np.zeros((m,) * (half.ndim - 1) + (m // 2 + 1,), dtype=complex)
    for idx in np.ndindex(half.shape):
        minus = tuple(k % m for k in _signed(idx, n))
        if h not in idx:
            out[minus] = half[idx]
            continue
        out[tuple(h if i == h else k for i, k in zip(idx, minus))] = 0.5 * half[idx]
        if idx[-1] != h:
            out[minus] = 0.5 * half[idx]
    return out


def truncated_half_cube(big: np.ndarray, n: int, m: int | None = None) -> np.ndarray:
    """The N half-cube read from the rfftn half-cube `big` of m points per
    axis (2N by default), one coefficient at a time: each from its signed
    index, and one with a Nyquist component as the mean of its images with
    every Nyquist component at -N/2 and at +N/2.  An image outside the
    stored half is the conjugate of its mirror image."""
    m, h = m or 2 * n, n // 2

    def read(k):
        if k[-1] < 0:
            return np.conj(big[tuple(-ki % m for ki in k)])
        return big[tuple(ki % m for ki in k)]

    out = np.empty((n,) * (big.ndim - 1) + (h + 1,), dtype=complex)
    for idx in np.ndindex(out.shape):
        k = _signed(idx, n)
        if h not in idx:
            out[idx] = read(k)
        else:
            plus = tuple(h if i == h else ki for i, ki in zip(idx, k))
            out[idx] = 0.5 * (read(k) + read(plus))
    return out


def full_gradient(u: np.ndarray, period: float) -> list[np.ndarray]:
    c = full_coefficients(u)
    return [full_values(1j * km * c) for km in full_wavenumbers(u.shape[0], u.ndim, period)]


def full_grad_dot(a: np.ndarray, b: np.ndarray, period: float) -> np.ndarray:
    return sum(
        full_dealiased_product(ga, gb)
        for ga, gb in zip(full_gradient(a, period), full_gradient(b, period))
    )


def full_multiplier(u: np.ndarray, symbol, period: float) -> np.ndarray:
    lam = full_eigenvalues(u.shape[0], u.ndim, period)
    return full_values(full_coefficients(u) * symbol(lam))


def full_duhamel(u: np.ndarray, drift: np.ndarray, dt: float, period: float) -> np.ndarray:
    lam = full_eigenvalues(u.shape[0], u.ndim, period)
    decay = np.exp(-dt * lam)
    return full_values(
        decay * full_coefficients(u) + (1.0 - decay) / lam * full_coefficients(drift)
    )


def full_blocks(u: np.ndarray, period: float) -> list[np.ndarray]:
    """Sharp Littlewood-Paley blocks: |k| <= 1, then
    max(2^{j-1}, 1) < |k| <= 2^j for j = 0 .. ceil(log2 max|k|)."""
    kmag = np.sqrt(full_eigenvalues(u.shape[0], u.ndim, period) - 1.0)
    j_max = max(0, math.ceil(math.log2(kmag.max()))) if kmag.max() > 1 else 0
    masks = [kmag <= 1.0] + [
        (kmag > max(2.0 ** (j - 1), 1.0)) & (kmag <= 2.0**j) for j in range(j_max + 1)
    ]
    c = full_coefficients(u)
    return [full_values(c * mask) for mask in masks]


def full_resonant(a: np.ndarray, b: np.ndarray, period: float) -> np.ndarray:
    """sum over levels k of Delta_k a (Delta_{k-1} b + Delta_k b + Delta_{k+1} b)."""
    ba, bb = full_blocks(a, period), full_blocks(b, period)
    out = np.zeros_like(a)
    for k, blk in enumerate(ba):
        near = sum(bb[max(k - 1, 0) : k + 2])
        out = out + full_dealiased_product(blk, near)
    return out


def full_paraproduct(a: np.ndarray, b: np.ndarray, period: float) -> np.ndarray:
    """a < b: the sum over levels j < k - 1 of Delta_j a Delta_k b, one
    dealiased product per pair of blocks."""
    ba, bb = full_blocks(a, period), full_blocks(b, period)
    out = np.zeros_like(a)
    for k, blk in enumerate(bb):
        for low in ba[: max(k - 1, 0)]:
            out = out + full_dealiased_product(low, blk)
    return out


def philox_normals(seed: int, stream: int, step: int, shape) -> np.ndarray:
    """The standard normals of the counter-based noise contract for
    (seed, stream, step)."""
    bitgen = np.random.Philox(key=np.uint64(seed), counter=[0, 0, np.uint64(stream), np.uint64(step)])
    return np.random.Generator(bitgen).standard_normal(shape)


def full_colored_gaussian(g: np.ndarray, variance: np.ndarray) -> np.ndarray:
    """Filter white noise g to the spectral variance `variance`."""
    return full_values(np.fft.fftn(g) * np.sqrt(variance / g.size))


def full_ou_variance(n, dim, period, r, dt=None) -> np.ndarray:
    """Mode variance of the stationary law (dt None) or of the OU increment."""
    lam = full_eigenvalues(n, dim, period)
    var = np.exp(-2.0 * r * lam) / (lam * period**dim)
    if dt is not None:
        var = var * (1.0 - np.exp(-2.0 * dt * lam))
    return var


def full_step_u(u, ct, dt, r, g, period):
    """One exponential-Euler step of (d/dt + P) u = sqrt(2) xi_r - u^3 + ct u
    driven by the standard normals g."""
    drift = -full_dealiased_product(u, u, u) + ct * u
    noise = full_colored_gaussian(g, full_ou_variance(u.shape[0], u.ndim, period, r, dt))
    return full_duhamel(u, drift, dt, period) + noise


def full_tree_run(n, dim, period, r, a, b, dt, steps, seed, stream):
    """The enhanced-noise evolution from a stationary X and zero integrated
    trees, `steps` steps of dt, then every component of the final slice."""
    shape = (n,) * dim
    lam = full_eigenvalues(n, dim, period)
    X = full_colored_gaussian(philox_normals(seed, stream, 0, shape),
                              full_ou_variance(n, dim, period, r))
    I2 = np.zeros(shape)
    I3 = np.zeros(shape)
    vref = np.zeros(shape)
    for step in range(1, steps + 1):
        W2 = full_dealiased_product(X, X) - a
        W3 = full_dealiased_product(X, X, X) - 3.0 * a * X
        I2 = full_duhamel(I2, W2, dt, period)
        I3 = full_duhamel(I3, W3, dt, period)
        inner = full_dealiased_product(I3, W2) - b * (X + I3)
        drift = 3.0 * full_dealiased_product(np.exp(3.0 * I2), inner)
        vref = full_duhamel(vref, drift, dt, period)
        noise = full_colored_gaussian(philox_normals(seed, stream, step, shape),
                                      full_ou_variance(n, dim, period, r, dt))
        X = full_values(np.exp(-dt * lam) * full_coefficients(X)) + noise
    W2 = full_dealiased_product(X, X) - a
    return {
        "X": X, "W2": W2, "W3": full_dealiased_product(X, X, X) - 3.0 * a * X,
        "I2": I2, "I3": I3, "v_ref": vref,
        "R1": full_resonant(I3, X, period),
        "R2": full_resonant(I2, W2, period) - b / 3.0,
        "R3": full_grad_dot(I2, I2, period) - b / 3.0,
        "R4": full_resonant(I3, W2, period) - b * X,
    }
