import gc
import weakref

import numpy as np
import pytest

from phi4torus.noise import NoiseStream, ou_noise_field
from phi4torus.paraproduct import resonants
from phi4torus.renorm import a_closed, b_closed, mode_sum
from phi4torus.spectral import (
    Field,
    Grid,
    apply_multiplier,
    cubic,
    dealiased_product,
    grad_dot,
    half_cube,
)
from phi4torus.trees import (
    EnhancedNoise,
    TreeEvolver,
    build_enhanced_noise,
    tree_divergence_report,
)

GRID = Grid(dim=3, n=16)
R = 0.02


class TestEvolverBasics:
    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            TreeEvolver(GRID, 0.0, NoiseStream(0))

    def test_seeds_stationary_x_and_zero_trees(self):
        ev = TreeEvolver(GRID, R, NoiseStream(0))
        assert (ev.X.values**2).mean() > 0
        assert np.all(ev.I2.values == 0)
        assert np.all(ev.I3.values == 0)
        assert np.all(ev.v_ref.values == 0)

    def test_wick_constants(self):
        ev = TreeEvolver(GRID, R, NoiseStream(0))
        assert ev.a == a_closed(R)
        assert ev.b == b_closed(R)

    def test_wick_square_is_dealiased_square_minus_a(self):
        ev = TreeEvolver(GRID, R, NoiseStream(1))
        want = dealiased_product(ev.X, ev.X).values - a_closed(R)
        np.testing.assert_allclose(ev.wick_powers()[0].values, want, atol=1e-12)

    def test_wick_cube(self):
        ev = TreeEvolver(GRID, R, NoiseStream(2))
        want = cubic(ev.X).values - 3.0 * a_closed(R) * ev.X.values
        np.testing.assert_allclose(ev.wick_powers()[1].values, want, atol=1e-12)

    def test_clone_then_diverge(self):
        ev = TreeEvolver(GRID, R, NoiseStream(3))
        twin = ev.clone()
        noise = ou_noise_field(GRID, 0.05, R, np.random.default_rng(0).normal(size=GRID.shape))
        ev.step(0.05, noise)
        # the clone still holds the pre-step state
        assert twin.time == 0.0
        twin.step(0.05, noise)
        np.testing.assert_allclose(ev.X.values, twin.X.values, atol=1e-13)
        np.testing.assert_allclose(ev.I2.values, twin.I2.values, atol=1e-13)


class TestDynamicsConsistency:
    def test_step_with_shared_normals_reproducible(self):
        a = TreeEvolver(GRID, R, NoiseStream(4))
        b = TreeEvolver(GRID, R, NoiseStream(4))
        for i in range(3):
            noise = ou_noise_field(GRID, 0.05, R, np.random.default_rng(i).normal(size=GRID.shape))
            a.step(0.05, noise)
            b.step(0.05, noise)
        np.testing.assert_allclose(a.X.values, b.X.values, atol=1e-13)

    def test_noise_field_equivalent_to_normals(self):
        a = TreeEvolver(GRID, R, NoiseStream(5))
        b = a.clone()
        # noise=None draws the stream's next normals, the ones given to b
        g = NoiseStream(5).normals(GRID.shape, step=a.stream.step)
        dt = 0.05
        a.step(dt)
        b.step(dt, noise=ou_noise_field(GRID, dt, R, g))
        np.testing.assert_allclose(a.X.values, b.X.values, atol=1e-13)
        np.testing.assert_allclose(a.v_ref.values, b.v_ref.values, atol=1e-13)

    def test_i2_solves_exponential_euler_recursion(self):
        ev = TreeEvolver(GRID, R, NoiseStream(6))
        W2, _ = ev.wick_powers()
        I2_before = ev.I2
        dt = 0.07
        ev.step(dt)
        lam = half_cube(GRID).eigenvalues
        want = np.exp(-dt * lam) * I2_before.half + (
            1.0 - np.exp(-dt * lam)
        ) / lam * W2.half
        np.testing.assert_allclose(ev.I2.half, want, atol=1e-13)

    def test_x_variance_stationary_under_stepping(self):
        """E[X^2] equals the grid mode sum before and after many steps."""
        want = mode_sum(GRID, R)
        vals = []
        for seed in range(40):
            ev = TreeEvolver(GRID, R, NoiseStream(100 + seed), track_vref=False)
            for _ in range(10):
                ev.step(0.1)
            vals.append((ev.X.values**2).mean())
        got = float(np.mean(vals))
        stderr = float(np.std(vals) / np.sqrt(len(vals)))
        assert abs(got - want) < 4.0 * stderr + 0.01 * want


class TestSnapshots:
    def test_snapshot_components(self):
        ev = TreeEvolver(GRID, R, NoiseStream(7))
        ev.burn_in(5.0, 0.05)
        snap = ev.snapshot()
        comps = snap.components()
        for name in ("X", "W2", "W3", "I2", "I3", "R1", "R2", "R3", "R4", "v_ref"):
            assert name in comps

    def test_resonants_match_definitions(self):
        ev = TreeEvolver(GRID, R, NoiseStream(8))
        ev.burn_in(5.0, 0.05)
        snap = ev.snapshot()
        b = b_closed(R)
        np.testing.assert_allclose(
            snap.R1.values, resonants((ev.I3, ev.X))[0].values, atol=1e-12
        )
        np.testing.assert_allclose(
            snap.R2.values,
            (resonants((ev.I2, snap.W2))[0] - b / 3.0).values,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            snap.R4.values,
            (resonants((ev.I3, snap.W2))[0] - b * ev.X).values,
            atol=1e-12,
        )

    def test_r3_spectral_identity(self):
        """mean |grad I2|^2 = mean I2 (-Delta) I2 by Parseval."""
        ev = TreeEvolver(GRID, R, NoiseStream(9))
        ev.burn_in(5.0, 0.05)
        snap = ev.snapshot()
        raw = snap.R3 + b_closed(R) / 3.0
        minus_lap = apply_multiplier(ev.I2, lambda lam: lam) - ev.I2
        want = dealiased_product(ev.I2, minus_lap).mean()
        # exact up to the Nyquist-shell convention of the real projection
        assert raw.mean() == pytest.approx(want, rel=2e-2)

    def test_r3_uses_grad_dot(self):
        ev = TreeEvolver(GRID, R, NoiseStream(10))
        ev.burn_in(5.0, 0.05)
        snap = ev.snapshot()
        want = grad_dot(ev.I2, ev.I2).values - b_closed(R) / 3.0
        np.testing.assert_allclose(snap.R3.values, want, atol=1e-12)

    def test_zero_trees(self):
        z = EnhancedNoise.zero(GRID, R)
        assert np.all(z.X.values == 0) and z.a == 0.0 and z.b == 0.0


class TestBuildEnhancedNoise:
    def test_vref_draws_no_noise(self):
        """v_ref consumes no draws, so the other components are the same bits
        with and without it."""
        kwargs = dict(burn_in=5.0, dt=0.1, n_snapshots=2, snapshot_stride=0.5,
                      with_resonants=False)
        with_vref = build_enhanced_noise(NoiseStream(13), GRID, R, track_vref=True, **kwargs)
        without = build_enhanced_noise(NoiseStream(13), GRID, R, **kwargs)
        for a, b in zip(with_vref, without, strict=True):
            assert a.v_ref is not None and b.v_ref is None
            for name in ("X", "W2", "W3", "I2", "I3"):
                np.testing.assert_array_equal(getattr(a, name).half, getattr(b, name).half)
                np.testing.assert_array_equal(getattr(a, name).values,
                                              getattr(b, name).values)

    def test_refuses_short_burn_in(self):
        with pytest.raises(ValueError, match="burn_in"):
            build_enhanced_noise(NoiseStream(0), GRID, R, burn_in=1.0)

    def test_refuses_non_positive_r_when_called(self):
        with pytest.raises(ValueError, match="r > 0"):
            build_enhanced_noise(NoiseStream(0), GRID, 0.0)

    def test_trajectory_shape(self):
        snaps = list(build_enhanced_noise(
            NoiseStream(11), GRID, R, burn_in=5.0, dt=0.1,
            n_snapshots=3, snapshot_stride=0.5,
        ))
        assert len(snaps) == 3
        assert [s.time for s in snaps] == pytest.approx([5.0, 5.5, 6.0])
        assert {s.r for s in snaps} == {R}

    def test_a_dropped_snapshot_is_freed_by_the_next(self):
        """The trajectory keeps no slice: one the caller drops, with its
        resonant products, is gone once the next slice is made."""
        snaps = build_enhanced_noise(NoiseStream(14), GRID, R, burn_in=5.0, dt=0.1,
                                     n_snapshots=3, snapshot_stride=0.2)
        refs = []
        for snap in snaps:
            assert all(ref() is None for ref in refs)
            refs = [weakref.ref(snap), weakref.ref(snap.R1), weakref.ref(snap.R4)]
            del snap
            gc.collect()
        assert len(refs) == 3

    def test_wick_square_mean_matches_lattice_constant(self):
        """E[W2] on the grid is the lattice-minus-continuum counterterm gap."""
        snaps = build_enhanced_noise(
            NoiseStream(12), GRID, R, burn_in=5.0, dt=0.05,
            n_snapshots=8, snapshot_stride=0.5, with_resonants=False,
        )
        got = float(np.mean([s.W2.mean() for s in snaps]))
        want = mode_sum(GRID, R) - a_closed(R)
        assert got == pytest.approx(want, abs=0.05)


class TestDivergenceReport:
    def test_refuses_narrow_sweep(self):
        with pytest.raises(ValueError):
            tree_divergence_report(GRID, [0.01, 0.02, 0.04])
        with pytest.raises(ValueError):
            tree_divergence_report(GRID, [0.01, 0.02, 0.03, 0.05])

    def test_raw_square_tracks_divergence(self):
        grid = Grid(dim=3, n=16)
        rows = tree_divergence_report(
            grid, [0.3, 0.1, 0.03, 0.005], n_snapshots=4, snapshot_stride=0.5,
        )
        raw = [row["raw_square_mean"] for row in rows]
        wick = [row["wick_square_mean"] for row in rows]
        # raw square grows as r decreases; the renormalized one grows more
        # slowly (at unresolved r its mean is the lattice counterterm gap)
        assert raw[-1] > 2.0 * raw[0]
        assert max(abs(w) for w in wick) < raw[-1] - raw[0]
        assert rows[0]["r"] == 0.3  # sorted descending
