import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from phi4torus.dynamics import (
    BlowUpError,
    SimConfig,
    assemble_z,
    cole_hopf,
    coming_down_experiment,
    comparison_test,
    counterterm_field,
    rough_initial_field,
    running_weighted_norm,
    simulate_u,
    step_u,
    step_v,
    weighted_norm,
)
from phi4torus.noise import NoiseStream
from phi4torus.paraproduct import besov_norm
from phi4torus.renorm import a_closed, b_closed
from phi4torus.spectral import Field, Grid
from phi4torus.trees import EnhancedNoise, TreeEvolver


def make_cfg(**kw):
    base = dict(n=8, r=0.05, dt=0.01, horizon=0.1, dim=3)
    base.update(kw)
    return SimConfig(**base)


class TestSimConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            make_cfg(r=0.0)
        with pytest.raises(ValueError):
            make_cfg(dt=-0.1)
        with pytest.raises(ValueError):
            make_cfg(coupling=-1.0)

    def test_free_coupling_allowed(self):
        assert make_cfg(coupling=0.0).coupling == 0.0

    def test_field_coupling_must_be_positive(self):
        grid = Grid(dim=3, n=8)
        with pytest.raises(ValueError):
            make_cfg(coupling=Field.zeros(grid))
        ok = make_cfg(coupling=Field.constant(grid, 2.0))
        assert isinstance(ok.coupling, Field)

    def test_grid_property(self):
        cfg = make_cfg(n=16, dim=2, period=4.0)
        assert cfg.grid == Grid(dim=2, n=16, period=4.0)


class TestCounterterm:
    def test_scalar_value(self):
        cfg = make_cfg(coupling=2.0)
        want = 3 * 2.0 * a_closed(cfg.r) - 3 * 4.0 * b_closed(cfg.r)
        assert counterterm_field(cfg) == pytest.approx(want, rel=1e-12)

    def test_toggles(self):
        cfg_a = make_cfg(counterterm_b=False)
        assert counterterm_field(cfg_a) == pytest.approx(3 * a_closed(cfg_a.r))
        cfg_b = make_cfg(counterterm_a=False)
        assert counterterm_field(cfg_b) == pytest.approx(-3 * b_closed(cfg_b.r))
        cfg_none = make_cfg(counterterm_a=False, counterterm_b=False)
        assert counterterm_field(cfg_none) == 0.0

    def test_field_coupling_pointwise(self):
        grid = Grid(dim=3, n=8)
        lam = Field(grid, np.full(grid.shape, 0.5))
        cfg = make_cfg(coupling=lam)
        ct = counterterm_field(cfg)
        want = 3 * 0.5 * a_closed(cfg.r) - 3 * 0.25 * b_closed(cfg.r)
        np.testing.assert_allclose(ct.values, want, rtol=1e-12)


class TestStepU:
    def test_deterministic_ode_oracle(self):
        """With noise off and a constant field, step_u integrates the scalar
        ODE  u' = -u - lam u^3 + ct u; compare against scipy at fine
        tolerance."""
        cfg = SimConfig(n=4, r=0.05, dt=1e-4, horizon=0.5, dim=1, coupling=2.0)
        grid = cfg.grid
        stream = cfg.noise()
        ct = counterterm_field(cfg)
        u = Field.constant(grid, 1.3)
        zero_g = np.zeros(grid.shape)
        steps = int(round(cfg.horizon / cfg.dt))
        for i in range(steps):
            u = step_u(u, cfg, stream, g=zero_g, time=i * cfg.dt)
        rhs = lambda t, y: -y - 2.0 * y**3 + ct * y
        ref = solve_ivp(rhs, (0, cfg.horizon), [1.3], rtol=1e-10, atol=1e-12).y[0, -1]
        assert np.allclose(u.values, ref, rtol=2e-3)
        assert np.ptp(u.values) < 1e-12  # stays spatially constant

    def test_zero_coupling_is_exact_ou(self):
        """lam = 0 with counterterms off reduces to the exact OU step."""
        cfg = make_cfg(coupling=0.0, counterterm_a=False, counterterm_b=False)
        grid = cfg.grid
        g = np.random.default_rng(0).normal(size=grid.shape)
        u0 = Field.zeros(grid)
        u1 = step_u(u0, cfg, cfg.noise(), g=g)
        from phi4torus.noise import ou_noise_field

        want = ou_noise_field(grid, cfg.dt, cfg.r, g)
        np.testing.assert_allclose(u1.values, want.values, atol=1e-13)

    def test_blowup_detected(self):
        cfg = make_cfg(dt=0.5, coupling=1.0, blowup_threshold=1e4)
        u = Field.constant(cfg.grid, 500.0)
        with pytest.raises(BlowUpError) as err:
            step_u(u, cfg, cfg.noise(), g=np.zeros(cfg.grid.shape))
        assert err.value.sup > 1e4

    def test_shared_normals_reproducible(self):
        cfg = make_cfg()
        g = np.random.default_rng(1).normal(size=cfg.grid.shape)
        a = step_u(Field.zeros(cfg.grid), cfg, cfg.noise(), g=g)
        b = step_u(Field.zeros(cfg.grid), cfg, cfg.noise(), g=g)
        np.testing.assert_allclose(a.values, b.values, atol=1e-14)


class TestSimulateU:
    def test_trajectory_structure(self):
        cfg = make_cfg(horizon=0.2, snapshot_stride=5)
        traj = simulate_u(cfg)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.2)
        for key in ("L2", "L8", "besov_proxy"):
            assert len(traj.diagnostics[key]) == len(traj.times)

    def test_block_sups_weigh_to_both_besov_norms(self):
        """The block sup norms kept per snapshot give the same Besov norms as
        splitting the snapshot again, bit for bit."""
        traj = simulate_u(make_cfg(horizon=0.05, snapshot_stride=1))
        assert traj.diagnostics["besov_proxy"] == [
            besov_norm(u, -0.55) for u in traj.snapshots
        ]
        shared = running_weighted_norm(traj.times, traj.snapshots, 0.5, 0.25,
                                       traj.block_sups)
        fresh = running_weighted_norm(traj.times, traj.snapshots, 0.5, 0.25)
        assert np.isnan(shared[0]) and shared[1:] == fresh[1:]

    def test_deterministic_given_seed(self):
        cfg = make_cfg(seed=42, stream=3)
        a = simulate_u(cfg)
        b = simulate_u(cfg)
        np.testing.assert_allclose(
            a.snapshots[-1].values, b.snapshots[-1].values, atol=1e-14
        )

    def test_initial_options(self):
        grid = make_cfg().grid
        f = Field.constant(grid, 0.5)
        traj = simulate_u(make_cfg(initial=f), noise_on=False)
        assert traj.snapshots[0].values[0, 0, 0] == 0.5
        traj2 = simulate_u(make_cfg(initial=("random", 2.0)), noise_on=False)
        assert besov_norm(traj2.snapshots[0], -0.55) == pytest.approx(2.0, rel=1e-9)


class TestRoughInitial:
    def test_norm_is_prescribed(self):
        grid = Grid(dim=3, n=16)
        f = rough_initial_field(grid, 7.0, NoiseStream(5))
        assert besov_norm(f, -0.55) == pytest.approx(7.0, rel=1e-10)


@pytest.fixture(scope="module")
def cole_hopf_trees():
    grid = Grid(dim=3, n=8)
    ev = TreeEvolver(grid, 0.05, NoiseStream(6))
    ev.burn_in(5.0, 0.05)
    return ev.snapshot(with_resonants=False)


class TestColeHopf:
    @pytest.fixture
    def trees(self, cole_hopf_trees):
        return cole_hopf_trees

    def test_roundtrip(self, trees):
        grid = trees.X.grid
        rng = np.random.default_rng(7)
        u = Field(grid, rng.normal(size=grid.shape))
        v = cole_hopf(u, trees, "forward")
        back = cole_hopf(v, trees, "backward")
        np.testing.assert_allclose(back.values, u.values, atol=1e-10)

    def test_forward_formula(self, trees):
        grid = trees.X.grid
        u = Field.zeros(grid)
        v = cole_hopf(u, trees, "forward")
        want = np.exp(3 * trees.I2.values) * (
            -trees.X.values + trees.I3.values
        ) - trees.v_ref.values
        np.testing.assert_allclose(v.values, want, atol=1e-12)

    def test_rejects_bad_direction(self, trees):
        with pytest.raises(ValueError):
            cole_hopf(Field.zeros(trees.X.grid), trees, "sideways")

    def test_requires_vref(self):
        grid = Grid(dim=3, n=8)
        snap = EnhancedNoise.zero(grid, 0.05)
        snap.v_ref = None
        with pytest.raises(ValueError):
            cole_hopf(Field.zeros(grid), snap, "forward")


class TestStepV:
    def test_zero_trees_collapse_to_cubic_flow(self):
        """With all trees zero the v-equation is u' + Pu = -u^3, i.e. the
        noiseless u-dynamics at unit coupling without counterterms."""
        cfg = make_cfg(coupling=1.0, counterterm_a=False, counterterm_b=False)
        grid = cfg.grid
        trees = EnhancedNoise.zero(grid, cfg.r)
        # band-limited data: the pointwise cube of the v-step and the
        # dealiased cube of the u-step then agree exactly
        xs = grid.coordinates()
        v0 = Field(grid, 0.7 * np.cos(xs[0]) + 0.4 * np.sin(xs[1] + xs[2]))
        got = step_v(v0, trees, cfg)
        want = step_u(v0, cfg, cfg.noise(), g=np.zeros(grid.shape))
        np.testing.assert_allclose(got.values, want.values, atol=1e-12)

    def test_preassembled_z_equivalent(self):
        grid = Grid(dim=3, n=8)
        ev = TreeEvolver(grid, 0.05, NoiseStream(9))
        ev.burn_in(5.0, 0.05)
        snap = ev.snapshot(with_resonants=False)
        cfg = make_cfg()
        v = Field(grid, np.random.default_rng(10).normal(size=grid.shape))
        a = step_v(v, snap, cfg)
        b = step_v(v, assemble_z(snap), cfg)
        np.testing.assert_allclose(a.values, b.values, atol=1e-13)

    def test_assemble_z_requires_vref(self):
        grid = Grid(dim=3, n=8)
        snap = EnhancedNoise.zero(grid, 0.05)
        snap.v_ref = None
        with pytest.raises(ValueError):
            assemble_z(snap)


class TestComingDownRefusals:
    def test_p_must_be_even_and_large(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            coming_down_experiment(cfg, [1.0, 10.0], p=4)
        with pytest.raises(ValueError):
            coming_down_experiment(cfg, [1.0, 10.0], p=9)


class TestComparisonTest:
    def test_analytic_cubic_decay(self):
        """F(t) = (u0^{-2} + 2t)^{-1/2} solves u' = -u^3; it satisfies the
        integral hypothesis with lam = 3, c = 1 and the explicit bound."""
        u0 = 50.0
        # geometric spacing keeps the trapezoid check sharp near t = 0,
        # where F^3 is steep
        t = np.concatenate([[0.0], np.geomspace(1e-6, 5.0, 600)])
        F = (u0**-2 + 2.0 * t) ** -0.5
        res = comparison_test(t, F, lam=3.0, c=1.0)
        assert res.admissible
        assert res.witness is None
        assert len(res.partition) > 3
        # every partition value sits under the explicit bound
        for val, bound in zip(res.values[:-1], res.bounds):
            assert val <= bound + 1e-9

    def test_exponential_euler_orbit_admissible(self):
        """The integrator's own decay from large data passes the test."""
        grid = Grid(dim=1, n=2)
        from phi4torus.spectral import duhamel_step

        u = Field.constant(grid, 30.0)
        dt = 1e-4
        times, vals = [0.0], [30.0]
        for i in range(int(3.0 / dt)):
            # substep while stiff
            h = min(dt, 0.2 / max(u.values[0] ** 2, 1.0))
            remaining = dt
            while remaining > 0:
                hh = min(h, remaining)
                u = duhamel_step(u, Field(grid, -u.values**3), hh)
                remaining -= hh
            times.append((i + 1) * dt)
            vals.append(float(u.values[0]))
        res = comparison_test(times, vals, lam=3.0, c=1.0)
        assert res.admissible

    def test_hypothesis_violation_reports_witness(self):
        t = np.linspace(0.0, 10.0, 101)
        F = np.full_like(t, 2.0)  # int F^3 grows linearly, beats c (F+1)
        res = comparison_test(t, F, lam=3.0, c=0.5)
        assert not res.admissible
        assert res.witness is not None
        s, tt, integral, allowed = res.witness
        assert integral > allowed
        assert s < tt

    def test_argument_validation(self):
        t = [0.0, 1.0]
        with pytest.raises(ValueError):
            comparison_test(t, [1.0, 1.0], lam=1.0, c=1.0)
        with pytest.raises(ValueError):
            comparison_test(t, [1.0, 1.0], lam=2.0, c=0.0)
        with pytest.raises(ValueError):
            comparison_test([0.0, 0.0], [1.0, 1.0], lam=2.0, c=1.0)


class TestWeightedNorm:
    def test_single_time_supremum(self):
        grid = Grid(dim=1, n=64)
        x = grid.axis_coordinates()
        f = Field(grid, np.cos(8.0 * x))
        t = 4.0
        got = weighted_norm([t], [f], alpha=0.5, beta=-1.0)
        assert got == pytest.approx(t**0.5 * besov_norm(f, -1.0), rel=1e-12)

    def test_holder_quotient_detected(self):
        grid = Grid(dim=1, n=16)
        a = Field.constant(grid, 1.0)
        b = Field.constant(grid, 5.0)
        times = [1.0, 1.0 + 1e-4]
        got = weighted_norm(times, [a, b], alpha=0.0, beta=0.5)
        # pair quotient 4 / (1e-4)^{0.25} = 40 dominates both sups (= 5)
        assert got == pytest.approx(40.0, rel=1e-9)

    def test_running_norm_equals_every_prefix(self):
        """The one-pass prefix values equal the all-pairs definition applied
        to each prefix, bit for bit."""
        grid = Grid(dim=2, n=8)
        rng = np.random.default_rng(9)
        times = [0.0, 0.1, 0.25, 0.3, 0.7]
        fields = [Field(grid, rng.normal(size=grid.shape)) for _ in times]
        alpha, beta = 0.5, 0.25

        def all_pairs(ts, fs):
            sup_besov = max(t**alpha * besov_norm(f, beta) for t, f in zip(ts, fs) if t > 0)
            sup_holder = 0.0
            for i in range(len(ts)):
                for j in range(i + 1, len(ts)):
                    diff = float(np.abs(ts[j]**alpha * fs[j].values
                                        - ts[i]**alpha * fs[i].values).max())
                    sup_holder = max(sup_holder, diff / abs(ts[j] - ts[i]) ** (beta / 2.0))
            return max(sup_besov, sup_holder)

        got = running_weighted_norm(times, fields, alpha, beta)
        assert np.isnan(got[0])
        assert got[1:] == [all_pairs(times[: i + 1], fields[: i + 1])
                           for i in range(1, len(times))]
        assert weighted_norm(times, fields, alpha, beta) == got[-1]
        with pytest.raises(ValueError):
            weighted_norm([0.0], fields[:1], alpha, beta)
