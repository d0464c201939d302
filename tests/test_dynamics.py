import csv
import math
import weakref

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.integrate import solve_ivp

from phi4torus.cli import main
from phi4torus.dynamics import (
    BlowUpError,
    Diagnostics,
    SimConfig,
    assemble_z,
    cole_hopf,
    coming_down_experiment,
    comparison_test,
    counterterm,
    rough_initial_field,
    simulate_u,
    step_u,
    step_v,
)
from phi4torus.noise import NoiseStream, ou_noise_field
from phi4torus.paraproduct import besov_norm
from phi4torus.renorm import a_closed, b_closed
from phi4torus.spectral import Field, Grid, grad_dot, gradient, semigroup, transform_counts
from phi4torus.trees import EnhancedNoise, TreeEvolver


def weighted_norm(times, fields, alpha, beta):
    """The weighted norm of the snapshots (times, fields): the last column
    of the last row of a fresh Diagnostics."""
    diagnostics = Diagnostics(alpha, beta)
    return [diagnostics.row(t, f) for t, f in zip(times, fields)][-1][4]


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

    def test_grid_property(self):
        cfg = make_cfg(n=16, dim=2, period=4.0)
        assert cfg.grid == Grid(dim=2, n=16, period=4.0)


class TestCounterterm:
    def test_scalar_value(self):
        cfg = make_cfg(coupling=2.0)
        want = 3 * 2.0 * a_closed(cfg.r) - 3 * 4.0 * b_closed(cfg.r)
        assert counterterm(cfg) == pytest.approx(want, rel=1e-12)

    def test_toggles(self):
        cfg_a = make_cfg(counterterm_b=False)
        assert counterterm(cfg_a) == pytest.approx(3 * a_closed(cfg_a.r))
        cfg_b = make_cfg(counterterm_a=False)
        assert counterterm(cfg_b) == pytest.approx(-3 * b_closed(cfg_b.r))
        cfg_none = make_cfg(counterterm_a=False, counterterm_b=False)
        assert counterterm(cfg_none) == 0.0


class TestStepU:
    def test_deterministic_ode_oracle(self):
        """With noise off and a constant field, step_u integrates the scalar
        ODE  u' = -u - lam u^3 + ct u; compare against scipy at fine
        tolerance."""
        cfg = SimConfig(n=4, r=0.05, dt=1e-4, horizon=0.5, dim=1, coupling=2.0)
        grid = cfg.grid
        stream = cfg.noise()
        ct = counterterm(cfg)
        u = Field.constant(grid, 1.3)
        zero = Field.zeros(grid)
        steps = int(round(cfg.horizon / cfg.dt))
        for i in range(steps):
            u = step_u(u, cfg, stream, zero, time=i * cfg.dt)
        rhs = lambda t, y: -y - 2.0 * y**3 + ct * y
        ref = solve_ivp(rhs, (0, cfg.horizon), [1.3], rtol=1e-10, atol=1e-12).y[0, -1]
        assert np.allclose(u.values, ref, rtol=2e-3)
        assert np.ptp(u.values) < 1e-12  # stays spatially constant

    def test_zero_coupling_is_exact_ou(self):
        """lam = 0 with counterterms off reduces to the exact OU step."""
        cfg = make_cfg(coupling=0.0, counterterm_a=False, counterterm_b=False)
        grid = cfg.grid
        stream = cfg.noise()
        u1 = step_u(Field.zeros(grid), cfg, stream)
        # the step drew its noise from the stream at the stream's step 0
        g = cfg.noise().normals(grid.shape, step=0)
        want = ou_noise_field(grid, cfg.dt, cfg.r, g)
        np.testing.assert_allclose(u1.values, want.values, atol=1e-13)
        assert stream.step == 1

    def test_blowup_detected(self):
        cfg = make_cfg(dt=0.5, coupling=1.0, blowup_threshold=1e4)
        u = Field.constant(cfg.grid, 500.0)
        with pytest.raises(BlowUpError) as err:
            step_u(u, cfg, cfg.noise(), Field.zeros(cfg.grid))
        assert err.value.sup > 1e4

    def test_shared_normals_reproducible(self):
        cfg = make_cfg()
        g = np.random.default_rng(1).normal(size=cfg.grid.shape)
        noise = ou_noise_field(cfg.grid, cfg.dt, cfg.r, g)
        a = step_u(Field.zeros(cfg.grid), cfg, cfg.noise(), noise)
        b = step_u(Field.zeros(cfg.grid), cfg, cfg.noise(), noise)
        np.testing.assert_allclose(a.values, b.values, atol=1e-14)


def snapshots(cfg):
    """The (t, u) pairs simulate_u passes to its record callback."""
    taken = []
    simulate_u(cfg, lambda t, u: taken.append((t, u)))
    return taken


class TestSimulateU:
    def test_trajectory_structure(self):
        cfg = make_cfg(horizon=0.2, snapshot_stride=5)
        diagnostics = Diagnostics()
        rows = []
        assert simulate_u(cfg, lambda t, u: rows.append(diagnostics.row(t, u))) is None
        times = [row[0] for row in rows]
        assert times == [0.0, 5 * cfg.dt, 10 * cfg.dt, 15 * cfg.dt, 20 * cfg.dt]
        assert times[-1] == pytest.approx(0.2)
        assert diagnostics.times == times
        assert all(len(row) == 5 for row in rows)
        assert math.isnan(rows[0][4]) and all(np.isfinite(row[4]) for row in rows[1:])

    def test_block_norms_run_once_per_snapshot(self, monkeypatch):
        """A row splits its snapshot into blocks once, and the Besov proxy
        and the weighted norm weighed from those blocks equal the ones of a
        fresh split, bit for bit."""
        import phi4torus.dynamics as dynamics

        calls = []

        def counted(f, *args):
            calls.append(f)
            return block_norms(f, *args)

        block_norms = dynamics.block_norms
        monkeypatch.setattr(dynamics, "block_norms", counted)
        diagnostics = Diagnostics()
        taken, rows = [], []

        def record(t, u):
            taken.append((t, u))
            rows.append(diagnostics.row(t, u))

        simulate_u(make_cfg(horizon=0.05, snapshot_stride=1), record)
        assert len(rows) == 6
        assert [id(f) for f in calls] == [id(u) for _, u in taken]
        assert [row[3] for row in rows] == [besov_norm(u, -0.55) for _, u in taken]
        times = [t for t, _ in taken]
        fields = [u for _, u in taken]
        assert [row[4] for row in rows[1:]] == [
            weighted_norm(times[: i + 1], fields[: i + 1], 0.5, 0.25)
            for i in range(1, len(rows))
        ]

    def test_dropped_snapshot_does_not_outlive_the_next_record(self):
        """simulate_u keeps no snapshot once its record call returns, and
        neither does the diagnostics accumulator."""
        diagnostics = Diagnostics()
        previous = []

        def record(t, u):
            if previous:
                assert previous[-1]() is None
            diagnostics.row(t, u)
            previous.append(weakref.ref(u))

        simulate_u(make_cfg(horizon=0.1, snapshot_stride=2), record)
        assert len(previous) == 6

    def test_deterministic_given_seed(self):
        cfg = make_cfg(seed=42, stream=3)
        a = snapshots(cfg)
        b = snapshots(cfg)
        np.testing.assert_allclose(a[-1][1].values, b[-1][1].values, atol=1e-14)

    def test_initial_options(self):
        grid = make_cfg().grid
        assert not np.any(snapshots(make_cfg())[0][1].values)
        f = Field.constant(grid, 0.5)
        assert snapshots(make_cfg(initial=f))[0][1].values[0, 0, 0] == 0.5
        rough = rough_initial_field(grid, 2.0, NoiseStream(3))
        first = snapshots(make_cfg(initial=rough))[0][1]
        assert besov_norm(first, -0.55) == pytest.approx(2.0, rel=1e-9)


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
        got = step_v(v0, assemble_z(trees), cfg)
        want = step_u(v0, cfg, cfg.noise(), Field.zeros(grid))
        np.testing.assert_allclose(got.values, want.values, atol=1e-12)

    @pytest.mark.parametrize("n", [8, 16])
    def test_z0_equals_the_expanded_formula(self, n):
        """Z0, formed without the W2 terms that cancel, equals the module
        docstring's Zt0 - g_ref - 6 grad I2 . grad v_ref - E^{-2} v_ref^3
        + Zt2 v_ref^2 + Zt1 v_ref written out term by term."""
        ev = TreeEvolver(Grid(dim=3, n=n), 0.05, NoiseStream(11))
        ev.burn_in(5.0, 0.05)
        trees = ev.snapshot(with_resonants=False)
        X, W2, I2, I3, vref = (f.values for f in (trees.X, trees.W2, trees.I2,
                                                  trees.I3, trees.v_ref))
        b = trees.b
        e3 = np.exp(3.0 * I2)
        em6 = 1.0 / (e3 * e3)
        zt2 = -3.0 * (X - I3) / e3
        zt1 = (6.0 * X * I3 - 3.0 * I3**2 - 3.0 * I2
               + 9.0 * grad_dot(trees.I2, trees.I2).values - 3.0 * b)
        zt0 = e3 * (3.0 * W2 * I3 - 3.0 * X * I3**2 + I3**3 - 3.0 * b * (X - I3))
        g_ref = 3.0 * e3 * (I3 * W2 - b * (X + I3))
        transport = sum(gi.values * gv.values
                        for gi, gv in zip(gradient(trees.I2), gradient(trees.v_ref)))
        want = (zt0 - g_ref - 6.0 * transport - em6 * vref**3
                + zt2 * vref**2 + zt1 * vref)
        got = assemble_z(trees).z0
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_assemble_z_requires_vref(self):
        grid = Grid(dim=3, n=8)
        snap = EnhancedNoise.zero(grid, 0.05)
        snap.v_ref = None
        with pytest.raises(ValueError):
            assemble_z(snap)


class TestSemigroupCache:
    def test_stiff_substeps_stay_within_the_bound(self):
        """The substeps of a coming-down run take a dt each, far more than
        the cache holds, and the cache stays at its bound."""
        cfg = SimConfig(n=8, r=0.05, dt=0.01, horizon=0.2, coupling=1.0)
        before = semigroup.cache_info()
        coming_down_experiment(cfg, [3.0, 300.0], lambda t, norms: None)
        after = semigroup.cache_info()
        assert after.misses - before.misses > 2 * after.maxsize
        assert after.currsize <= after.maxsize == 8
        # the run's own dt stays cached between its steps
        assert after.hits - before.hits > after.misses - before.misses


class TestComingDownRefusals:
    def test_p_must_be_even_and_large(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            coming_down_experiment(cfg, [1.0, 10.0], lambda t, norms: None, p=4)
        with pytest.raises(ValueError):
            coming_down_experiment(cfg, [1.0, 10.0], lambda t, norms: None, p=9)

    @pytest.mark.parametrize("horizon", [0.02, 0.044])
    def test_horizon_before_the_fit_window_refused_before_burn_in(self, horizon):
        """The fit window is t >= 0.05; a run whose last step ends before it
        would fit nothing, so it is refused before any transform."""
        cfg = make_cfg(horizon=horizon)
        before = transform_counts()
        with pytest.raises(ValueError, match="before the fit window"):
            coming_down_experiment(cfg, [1.0, 10.0], lambda t, norms: None)
        assert transform_counts() == before

    def test_horizon_reaching_the_fit_window_runs(self):
        times = []
        report = coming_down_experiment(make_cfg(horizon=0.046), [1.0, 10.0],
                                        lambda t, norms: times.append(t))
        assert times[-1] == pytest.approx(0.05)
        assert not any(math.isnan(c) for c in report["fitted_C"])


class TestComingDownRecord:
    def test_each_step_is_handed_on_and_the_trees_step_only_when_read(
            self, monkeypatch, tmp_path):
        """record gets the norms at t = 0 and after each of the n_steps
        steps, in order, and they are the rows of comedown.csv.  After the
        burn-in the trees take n_steps - 1 steps: the last step reads the
        trees of its start, and no later step reads those of its end."""
        tree_steps = []
        step, burn_in = TreeEvolver.step, TreeEvolver.burn_in

        def counted_step(self, dt, noise=None):
            tree_steps.append(dt)
            step(self, dt, noise)

        def burn_in_uncounted(self, duration, dt):
            burn_in(self, duration, dt)
            tree_steps.clear()

        monkeypatch.setattr(TreeEvolver, "step", counted_step)
        monkeypatch.setattr(TreeEvolver, "burn_in", burn_in_uncounted)
        n_steps = 6
        rows = []
        coming_down_experiment(make_cfg(horizon=n_steps * 0.01), [1.0, 10.0],
                               lambda t, norms: rows.append([t, *norms]))
        assert len(rows) == n_steps + 1
        times = [row[0] for row in rows]
        assert times[0] == 0.0
        assert all(s < t for s, t in zip(times, times[1:]))
        assert tree_steps == [0.01] * (n_steps - 1)

        res = CliRunner().invoke(main, ["comedown", "--n", "8", "--r", "0.05", "--dt", "0.01",
                                        "--horizon", "0.06", "--sizes", "1,10",
                                        "--output-dir", str(tmp_path)], catch_exceptions=False)
        assert res.exit_code == 0
        with open(tmp_path / "comedown.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["t", "Lp_size_1", "Lp_size_10"]
        assert table[1:] == [[str(x) for x in row] for row in rows]


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
        """The accumulator's weighted norm after each snapshot equals the
        all-pairs definition applied to each prefix, bit for bit."""
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

        diagnostics = Diagnostics(alpha, beta)
        got = [diagnostics.row(t, f)[4] for t, f in zip(times, fields)]
        assert np.isnan(got[0])
        assert got[1:] == [all_pairs(times[: i + 1], fields[: i + 1])
                           for i in range(1, len(times))]
        assert weighted_norm(times, fields, alpha, beta) == got[-1]
        assert np.isnan(weighted_norm([0.0], fields[:1], alpha, beta))

    def test_a_long_run_compares_fewer_pairs(self):
        """On a u trajectory of S = 51 snapshots the Holder term compares
        fewer than S (S - 1) / 2 pairs, and every row's weighted norm equals
        the one from every pair, bit for bit."""
        cfg = SimConfig(n=8, r=0.05, dt=0.01, horizon=0.5, coupling=1.0, snapshot_stride=1)
        alpha, beta = 0.5, 0.25
        times, weighted, rows = [], [], []
        diagnostics = Diagnostics(alpha, beta)
        sup_besov, sup_holder, want = 0.0, 0.0, []

        def record(t, u):
            nonlocal sup_besov, sup_holder
            rows.append(diagnostics.row(t, u)[4])
            w = t**alpha * u.values
            for s, ws in zip(times, weighted):
                diff = float(np.abs(w - ws).max())
                sup_holder = max(sup_holder, diff / (t - s) ** (beta / 2.0))
            if t > 0:
                sup_besov = max(sup_besov, t**alpha * besov_norm(u, beta))
            times.append(t)
            weighted.append(w)
            want.append(max(sup_besov, sup_holder))

        simulate_u(cfg, record)
        count = len(times)
        assert count == 51
        assert diagnostics.compared < count * (count - 1) // 2
        assert np.isnan(rows[0])
        assert rows[1:] == want[1:]

    @pytest.mark.parametrize("times", [[0.5, 0.5], [0.5, 0.25]], ids=["repeated", "earlier"])
    def test_time_not_after_the_previous_refused(self, times):
        grid = Grid(dim=1, n=8)
        fields = [Field.constant(grid, 1.0), Field.constant(grid, 2.0)]
        diagnostics = Diagnostics()
        diagnostics.row(times[0], fields[0])
        with pytest.raises(ValueError, match="strictly increasing"):
            diagnostics.row(times[1], fields[1])
