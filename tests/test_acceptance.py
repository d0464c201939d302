"""End-to-end acceptance suite.

Each test pins one headline property of the toolkit at a fixed, documented
configuration: counterterm asymptotics, the sunset constant and the
logarithmic divergence of b_r, exact power-counting verdicts, Wick
cancellation on the lattice, measured tree regularities, the Cole-Hopf
cross-validation, coming down from infinity, the fourth-cumulant
non-Gaussianity signal, and the paraproduct decomposition.  The
configurations (grid sizes, r-windows, seeds) are calibrated so the
statistical checks sit well inside their tolerance at desk scale.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from phi4torus.dynamics import (
    SimConfig,
    assemble_z,
    cole_hopf,
    coming_down_experiment,
    comparison_test,
    rough_initial_field,
    step_u,
    step_v,
)
from phi4torus.noise import (
    NoiseStream,
    ou_noise_field,
    sample_stationary,
)
from phi4torus.observables import birkhoff_sample, fourth_cumulant, probe_moments
from phi4torus.paraproduct import (
    besov_norm,
    estimate_regularity,
    product_decomposition,
    resonants,
)
from phi4torus.powercount import gamma_range, parse_graph, verdict
from phi4torus.renorm import (
    B_LOG_SLOPE,
    SUNSET_EXACT,
    a_closed,
    a_numeric,
    b_numeric,
    minimal_n_for,
    mode_sum,
    sunset_constant,
)
from phi4torus.spectral import Field, Grid, dealiased_product, half_cube, semigroup
from phi4torus.trees import TreeEvolver, build_enhanced_noise

from oracles import GRAPHS

A_COEFFICIENT = 1.0 / (4.0 * math.sqrt(2.0) * math.pi**1.5)


def load_graph(name):
    return parse_graph((GRAPHS / f"{name}.fg").read_text())


# ---------------------------------------------------------------------------
# 1. counterterm a_r asymptotics
# ---------------------------------------------------------------------------


class TestCountertermA:
    def test_r_inverse_sqrt_coefficient(self):
        """a_numeric over resolved grids fits C r^{-1/2} + c0 with
        C = 1/(4 sqrt(2) pi^{3/2}) within 2%."""
        rs = np.geomspace(1e-4, 1e-2, 9)
        a = np.array([
            a_numeric(Grid(dim=3, n=minimal_n_for(r, Grid(dim=3, n=2))), r)
            for r in rs
        ])
        design = np.stack([rs**-0.5, np.ones_like(rs)], axis=1)
        (coeff, _c0), *_ = np.linalg.lstsq(design, a, rcond=None)
        assert coeff == pytest.approx(A_COEFFICIENT, rel=0.02)

    def test_gap_to_closed_form_bounded(self):
        """a_numeric - a_closed stays O(1) over the sweep: the divergent
        parts cancel, leaving only the finite lattice constant."""
        rs = np.geomspace(1e-4, 1e-2, 9)
        gaps = np.array([
            a_numeric(Grid(dim=3, n=minimal_n_for(r, Grid(dim=3, n=2))), r)
            - a_closed(r)
            for r in rs
        ])
        assert np.all(np.abs(gaps) < 0.1)
        assert gaps.max() - gaps.min() < 0.02  # no residual divergence


# ---------------------------------------------------------------------------
# 2. sunset constant and the logarithmic divergence of b_r
# ---------------------------------------------------------------------------


class TestCountertermB:
    def test_sunset_constant(self):
        assert sunset_constant() == pytest.approx(SUNSET_EXACT, abs=1e-4)
        assert SUNSET_EXACT == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)

    def test_b_numeric_log_slope(self):
        rs = np.geomspace(1e-4, 1e-2, 8)
        b = np.array([b_numeric(r) for r in rs])
        slope, _ = np.polyfit(np.log(1.0 / rs), b, 1)
        assert slope == pytest.approx(B_LOG_SLOPE, rel=0.03)


# ---------------------------------------------------------------------------
# 3. power counting (exact, no tolerance)
# ---------------------------------------------------------------------------


class TestPowerCounting:
    @pytest.mark.parametrize(
        "name,want",
        [
            ("g14", Fraction(0)),
            ("g12", Fraction(0)),
            ("g24", Fraction(0)),
            ("g22", Fraction(1, 2)),
            ("g34", Fraction(0)),
            ("g32", Fraction(0)),
            ("g45", Fraction(-1, 2)),
            ("g43", Fraction(-1, 2)),
            ("g41", Fraction(-1, 2)),
        ],
    )
    def test_gamma_max_per_graph(self, name, want):
        rep = gamma_range(load_graph(name))
        assert rep.admissible
        assert rep.gamma_max == want

    def test_family_maxima(self):
        """Per chaos family the binding constraint is gamma < 0 for the
        first three and gamma < -1/2 for the quintic family."""
        for names in (["g14", "g12"], ["g24", "g22"], ["g34", "g32"]):
            assert min(gamma_range(load_graph(n)).gamma_max for n in names) == 0
        assert min(
            gamma_range(load_graph(n)).gamma_max for n in ("g45", "g43", "g41")
        ) == Fraction(-1, 2)

    @pytest.mark.parametrize("name,want", [
        ("g14", "-28 - 2*gamma"),
        ("g24", "-28 - 2*gamma"),
        ("g34", "-38 - 2*gamma"),
    ])
    def test_full_amplitude_sums_symbolic(self, name, want):
        g = load_graph(name)
        full = verdict(g, g.edges)
        assert str(full.a2) == want

    @pytest.mark.parametrize("name", ["g14", "g24", "g34"])
    def test_shielded_subgraphs_flagged(self, name):
        rep = gamma_range(load_graph(name))
        assert any(v.shielded for v in rep.verdicts)

    def test_b_subamplitude_case_b(self):
        g = load_graph("b_subamplitude")
        full = verdict(g, g.edges)
        assert full.a1 == -11
        assert full.codim_unmarked == 11
        assert full.case_b
        assert full.verdict == "renormalizable"
        rep = gamma_range(g)
        assert rep.admissible and len(rep.case_b_subgraphs) == 1


# ---------------------------------------------------------------------------
# 4. Wick cancellation on the lattice (N = 32)
# ---------------------------------------------------------------------------


class TestWickCancellation:
    GRID = Grid(dim=3, n=32)
    DECADE = (1.25e-3, 1.25e-2)  # one decade where N = 32 resolves r^{-1/2}

    def test_variance_matches_mode_sum(self):
        """E[X^2(x)] from >= 10^3 independent stationary samples agrees
        with the exact lattice mode sum within 3 standard errors."""
        r = 0.022
        assert minimal_n_for(r, self.GRID) == 32  # grid exactly resolves r
        means = np.array([
            (sample_stationary(self.GRID, r, NoiseStream(50_000 + i)).values**2).mean()
            for i in range(1000)
        ])
        se = means.std(ddof=1) / math.sqrt(len(means))
        assert abs(means.mean() - a_numeric(self.GRID, r)) < 3.0 * se

    def test_raw_square_diverges_and_wick_square_bounded(self):
        """Across one decade of r the raw X^2 mean grows like r^{-1/2}
        (ratio sqrt(10) +/- 15%) while the Wick square, renormalized with
        the grid-exact constant, keeps a stable B^{-1}_{2,inf} size."""
        raw, wick = {}, {}
        for r in self.DECADE:
            a_grid = mode_sum(self.GRID, r)
            raws, sizes = [], []
            for i in range(48):
                x = sample_stationary(self.GRID, r, NoiseStream(90_000 + i))
                raws.append((x.values**2).mean())
                w2 = dealiased_product(x, x) - a_grid
                sizes.append(besov_norm(w2, -1.0, p=2))
            raw[r] = float(np.mean(raws))
            wick[r] = float(np.mean(sizes))
        lo, hi = self.DECADE
        raw_ratio = raw[lo] / raw[hi]
        assert math.sqrt(10.0) * 0.85 < raw_ratio < math.sqrt(10.0) * 1.15
        assert 0.7 < wick[lo] / wick[hi] < 1.4


# ---------------------------------------------------------------------------
# 5. measured tree regularities (N = 64, r = 1e-3)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tree_snapshots():
    grid = Grid(dim=3, n=64)
    return list(build_enhanced_noise(
        NoiseStream(12), grid, 1e-3, burn_in=5.0, dt=0.05,
        n_snapshots=16, snapshot_stride=0.5, with_resonants=False,
    ))


class TestTreeRegularities:
    @pytest.mark.parametrize(
        "component,target,tol",
        [("X", -0.5, 0.15), ("W2", -1.0, 0.2), ("I3", 0.5, 0.2)],
    )
    def test_measured_exponent(self, tree_snapshots, component, target, tol):
        fields = [getattr(s, component) for s in tree_snapshots]
        fit = estimate_regularity(fields, j_min=1)
        assert fit.gamma_hat == pytest.approx(target, abs=tol)


# ---------------------------------------------------------------------------
# 6. Cole-Hopf / Z cross-validation on frozen noise (N = 32, T = 0.5)
# ---------------------------------------------------------------------------


class TestColeHopfCrossValidation:
    def test_terminal_gap_halves_with_dt(self):
        """The u-evolution mapped through the exponential transform and the
        direct v-evolution converge to each other at order >= 0.9 in dt."""
        grid = Grid(dim=3, n=32)
        r = 0.1
        ev0 = TreeEvolver(grid, r, NoiseStream(3), track_vref=True)
        ev0.burn_in(3.0, 0.02)
        T, n_f = 0.5, 512
        dt_f = T / n_f
        stream = NoiseStream(3, stream=55)
        fine = [
            ou_noise_field(grid, dt_f, r, stream.normals(grid.shape)).half
            for _ in range(n_f)
        ]
        decay_f = semigroup(grid, dt_f).decay

        def coarse_increments(m):
            # a coarse OU increment is the decay-weighted sum of fine ones
            for i in range(0, n_f, m):
                acc = np.zeros_like(fine[0])
                for j in range(m):
                    acc = decay_f * acc + fine[i + j]
                yield Field.from_half(grid, acc)

        u0 = rough_initial_field(grid, 0.5, NoiseStream(99))
        gaps = []
        for m in (16, 8, 4):
            dt = dt_f * m
            cfg = SimConfig(n=32, r=r, dt=dt, horizon=T, coupling=1.0)
            ev = ev0.clone()
            u = u0
            v = cole_hopf(u0, ev.snapshot(with_resonants=False))
            for inc in coarse_increments(m):
                z = assemble_z(ev.snapshot(with_resonants=False))
                u = step_u(u, cfg, None, noise=inc)
                v = step_v(v, z, cfg)
                ev.step(dt, noise=inc)
            v_from_u = cole_hopf(u, ev.snapshot(with_resonants=False))
            gaps.append(float(np.abs(v_from_u.values - v.values).max()))
        orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
        assert all(order >= 0.9 for order in orders)


# ---------------------------------------------------------------------------
# 7. coming down from infinity + the comparison-test algorithm
# ---------------------------------------------------------------------------


class TestComingDown:
    def test_initial_condition_forgotten(self):
        """Initial sizes spanning 100x land within a factor 2 of each other
        at t = 1, under the universal envelope C max(t^{-1/2}, 1)."""
        cfg = SimConfig(
            n=16, r=0.05, dt=1e-3, horizon=2.0, coupling=1.0, seed=7,
        )
        rows = []
        report = coming_down_experiment(cfg, [3.0, 30.0, 300.0],
                                        lambda t, norms: rows.append((t, norms)), p=8)
        assert report["blow_up"] == [None, None, None]
        assert report["spread_at_1.0"] <= 2.0
        cs = report["fitted_C"]
        assert all(math.isfinite(c) and 0.0 < c < 2.0 for c in cs)
        # the fitted envelope actually dominates the trajectories on [0.05, 2]
        times = np.array([t for t, _ in rows])
        window = times >= 0.05
        envelope = np.maximum(times[window] ** -0.5, 1.0)
        for c, norms in zip(cs, np.array([norms for _, norms in rows]).T):
            assert np.all(np.asarray(norms)[window] <= c * envelope + 1e-9)

    def test_comparison_algorithm_on_analytic_orbit(self):
        """F(t) = (F(0)^{-2} + 2t)^{-1/2} solves F' = -F^3; the comparison
        test must accept it and bracket it with the explicit bound."""
        t = np.concatenate([[0.0], np.geomspace(1e-6, 5.0, 600)])
        F = (10.0**-2 + 2.0 * t) ** -0.5
        res = comparison_test(t, F, lam=3.0, c=1.0)
        assert res.admissible
        assert res.witness is None
        for val, bound in zip(res.values[:-1], res.bounds):
            assert val <= bound + 1e-9


# ---------------------------------------------------------------------------
# 8. non-Gaussianity of the invariant measure (property-based)
# ---------------------------------------------------------------------------


class TestFourthCumulant:
    GRID = Grid(dim=3, n=32)
    R = 5e-3
    PROBES = [0.02, 0.01, 0.005, 0.0025]

    def sample_interacting(self):
        """The probe moments of 200 samples, one (probes, 2) array each."""
        moments = []
        for stream in range(2):
            cfg = SimConfig(
                n=32, r=self.R, dt=0.01, horizon=1.0, coupling=1.0,
                seed=0, stream=stream,
            )
            birkhoff_sample(cfg, burn_in=5.0, stride=0.5, count=100,
                            record=lambda t, u: moments.append(probe_moments(u, self.PROBES)))
        return np.array(moments)

    def test_signal_grows_as_probe_shrinks(self):
        moments = self.sample_interacting()
        c4s = []
        for p, rp in enumerate(self.PROBES):
            est = fourth_cumulant(moments[:, p], rp)
            assert est.significance > 3.0
            c4s.append(abs(est.c4))
        slope, _ = np.polyfit(np.log(self.PROBES), np.log(c4s), 1)
        assert -0.8 < slope < -0.2

    def test_free_field_control_is_null(self):
        """Exact samples of the free invariant measure carry no fourth
        cumulant at any probe scale, hence no scaling trend either."""
        moments = np.array([
            probe_moments(sample_stationary(self.GRID, self.R, NoiseStream(70_000 + i)),
                          self.PROBES)
            for i in range(200)
        ])
        for p, rp in enumerate(self.PROBES):
            est = fourth_cumulant(moments[:, p], rp)
            assert est.significance < 3.0


# ---------------------------------------------------------------------------
# 9. paraproduct decomposition
# ---------------------------------------------------------------------------


class TestParaproduct:
    def test_decomposition_identity_100_pairs(self):
        grid = Grid(dim=3, n=16)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            a = Field(grid, rng.normal(size=grid.shape))
            b = Field(grid, rng.normal(size=grid.shape))
            lo, res, hi = product_decomposition(a, b)
            gap = np.abs(
                (lo + res + hi).values - dealiased_product(a, b).values
            ).max()
            worst = max(worst, float(gap))
        assert worst < 1e-10

    def test_resonant_continuity_constant_stable_under_doubling(self):
        """For gamma1 + gamma2 > 0 the measured constant in
        ||a o b||_{gamma1+gamma2} <= C ||a||_{gamma1} ||b||_{gamma2}
        moves by less than a factor 2 when N doubles."""
        g1 = g2 = 0.75

        def synth(grid, rng):
            # white noise shaped to Besov regularity ~ 3/4 in d = 3
            white = Field(grid, rng.normal(size=grid.shape))
            spec = white.half * half_cube(grid).eigenvalues ** (-(g1 + 1.5) / 2.0)
            return Field.from_half(grid, spec)

        constants = {}
        for n in (32, 64):
            grid = Grid(dim=3, n=n)
            cs = []
            for seed in range(6):
                rng = np.random.default_rng(100 + seed)
                a, b = synth(grid, rng), synth(grid, rng)
                num = besov_norm(resonants((a, b))[0], g1 + g2)
                cs.append(num / (besov_norm(a, g1) * besov_norm(b, g2)))
            constants[n] = float(np.mean(cs))
        ratio = constants[64] / constants[32]
        assert 0.5 < ratio < 2.0
