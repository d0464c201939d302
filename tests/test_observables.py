import gc
import math
import weakref

import numpy as np
import pytest

from phi4torus.dynamics import BlowUpError, SimConfig
from phi4torus.noise import NoiseStream, sample_stationary
from phi4torus.observables import (
    CumulantEstimate,
    birkhoff_sample,
    fourth_cumulant,
    probe_moments,
)
from phi4torus.spectral import Field, Grid, apply_multiplier, lp_norm, transform_counts


def moments_at(fields, r_probe):
    """The (m2, m4) of each field at one probe, as fourth_cumulant takes them."""
    return [probe_moments(f, [r_probe])[0] for f in fields]


class TestLpNorm:
    def test_constant_field(self):
        grid = Grid(dim=3, n=8, period=2.0)
        f = Field.constant(grid, 3.0)
        # ||c||_p = |c| vol^{1/p}
        assert lp_norm(f, 2) == pytest.approx(3.0 * 8.0**0.5, rel=1e-12)
        assert lp_norm(f, 8) == pytest.approx(3.0 * 8.0**0.125, rel=1e-12)
        assert lp_norm(f, np.inf) == 3.0

    def test_cosine_l2(self):
        grid = Grid(dim=1, n=64)
        f = Field(grid, np.cos(grid.axis_coordinates()))
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_rejects_bad_p(self):
        grid = Grid(dim=1, n=8)
        with pytest.raises(ValueError):
            lp_norm(Field.zeros(grid), 0.5)


class TestBirkhoffSample:
    def make_cfg(self, **kw):
        base = dict(n=8, r=0.05, dt=0.05, horizon=1.0, dim=3, coupling=1.0)
        base.update(kw)
        return SimConfig(**base)

    def test_refuses_small_stride(self):
        cfg = self.make_cfg()
        with pytest.raises(ValueError, match="stride"):
            birkhoff_sample(cfg, burn_in=5.0, stride=0.1, count=4, record=None)

    def test_refuses_short_burn_in(self):
        cfg = self.make_cfg()
        with pytest.raises(ValueError, match="burn-in"):
            birkhoff_sample(cfg, burn_in=1.0, stride=0.5, count=4, record=None)

    def test_sample_count_and_times(self):
        cfg = self.make_cfg()
        times = []
        out = birkhoff_sample(cfg, burn_in=5.0, stride=0.5, count=6,
                              record=lambda t, u: times.append(t))
        assert len(times) == 6
        assert times[0] == pytest.approx(5.5)
        diffs = np.diff(times)
        assert np.allclose(diffs, 0.5)
        assert math.isfinite(out.tau_int)
        assert out.stride_adequate == (0.5 >= out.tau_int)

    def test_blow_up_raises(self):
        # a tiny threshold trips on the stationary fluctuations themselves
        cfg = self.make_cfg(blowup_threshold=1e-6)
        with pytest.raises(BlowUpError):
            birkhoff_sample(cfg, burn_in=5.0, stride=0.5, count=4, record=None)

    def test_keeps_no_sample(self):
        """Every sample handed to record is gone once the chain returns,
        when record keeps none of them."""
        refs = []
        birkhoff_sample(self.make_cfg(), burn_in=5.0, stride=0.5, count=4,
                        record=lambda t, u: refs.append(weakref.ref(u)))
        gc.collect()
        assert len(refs) == 4
        assert [ref() for ref in refs] == [None] * 4


class TestFourthCumulant:
    def gaussian_samples(self, n, seed, grid=None, r=0.05):
        grid = grid or Grid(dim=3, n=8)
        return [
            sample_stationary(grid, r, NoiseStream(seed + i)) for i in range(n)
        ]

    def test_refuses_few_samples(self):
        with pytest.raises(ValueError, match="200"):
            fourth_cumulant(moments_at(self.gaussian_samples(20, 0), 0.01), 0.01)

    def test_refuses_bad_probe(self):
        u = self.gaussian_samples(1, 0)[0]
        for r_probes in ([0.0], [0.01, -0.02]):
            with pytest.raises(ValueError, match="r_probe must be positive"):
                probe_moments(u, r_probes)

    def test_gaussian_field_has_zero_cumulant(self):
        est = fourth_cumulant(moments_at(self.gaussian_samples(300, 1000), 0.02), 0.02)
        assert est.significance < 3.0

    def test_unbiased_on_synthetic_gaussians(self):
        """Across repetitions the Gaussian C4 estimate is centered on zero:
        the pull distribution has mean ~ 0 and unit-ish scale."""
        pulls = []
        for rep in range(30):
            ests = fourth_cumulant(
                moments_at(self.gaussian_samples(200, 5000 + 211 * rep), 0.05), 0.05
            )
            pulls.append(ests.c4 / ests.stderr)
        pulls = np.array(pulls)
        assert abs(pulls.mean()) < 3.0 / math.sqrt(len(pulls))
        assert 0.4 < pulls.std() < 2.5

    def test_detects_synthetic_quartic_tail(self):
        """Samples built as X + eps*(X^3 - 3 sigma^2 X) carry a negative or
        positive C4 of known sign; the estimator must flag it."""
        grid = Grid(dim=3, n=8)
        r = 0.05
        fields = []
        for i in range(300):
            x = sample_stationary(grid, r, NoiseStream(9000 + i))
            sigma2 = (x.values**2).mean()
            tilted = x.values - 0.2 * (x.values**3 - 3.0 * sigma2 * x.values)
            fields.append(Field(grid, tilted))
        est = fourth_cumulant(moments_at(fields, 1e-4), 1e-4)  # probe barely smooths
        assert est.significance > 5.0
        assert est.c4 < 0.0

    def test_jackknife_matches_explicit_leave_one_out(self):
        grid = Grid(dim=1, n=8)
        rng = np.random.default_rng(12)
        fields = [Field(grid, rng.normal(size=grid.shape)) for _ in range(200)]
        r_probe = 0.1
        est = fourth_cumulant(moments_at(fields, r_probe), r_probe)
        ws = [apply_multiplier(f, lambda lam: np.exp(-r_probe * lam)).values
              for f in fields]
        m2 = np.array([(w**2).mean() for w in ws])
        m4 = np.array([(w**4).mean() for w in ws])
        n = len(fields)
        loo = np.array([
            np.delete(m4, i).mean() - 3.0 * np.delete(m2, i).mean() ** 2
            for i in range(n)
        ])
        stderr = math.sqrt((n - 1) / n * ((loo - loo.mean()) ** 2).sum())
        assert est.c4 == pytest.approx(m4.mean() - 3.0 * m2.mean() ** 2, rel=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)

    def test_estimate_string(self):
        est = CumulantEstimate(0.01, -1e-3, 2e-4, 0.5, 250)
        s = str(est)
        assert "sigma" in s and "250" in s
        assert est.significance == pytest.approx(5.0)


class TestProbeMoments:
    R_PROBES = [0.08, 0.04, 0.02, 0.01]

    def test_many_probes_equal_one_probe_calls(self):
        """P probes at once give the bits of P one-probe calls, in one
        stacked transform: P transforms in 3 passes instead of 3 P."""
        u = sample_stationary(Grid(dim=3, n=16), 0.01, NoiseStream(3))
        before = transform_counts()
        got = probe_moments(u, self.R_PROBES)
        after = transform_counts()
        assert after["transforms"] - before["transforms"] == len(self.R_PROBES)
        assert after["passes"] - before["passes"] == 3
        want = np.array([probe_moments(u, [rp])[0] for rp in self.R_PROBES])
        assert got.shape == (len(self.R_PROBES), 2)
        np.testing.assert_array_equal(got, want)

    def test_moments_of_the_smoothed_field(self):
        u = sample_stationary(Grid(dim=3, n=8), 0.05, NoiseStream(4))
        w = apply_multiplier(u, lambda lam: np.exp(-0.02 * lam)).values
        m2, m4 = probe_moments(u, [0.02])[0]
        assert m2 == pytest.approx((w**2).mean(), rel=1e-12)
        assert m4 == pytest.approx((w**4).mean(), rel=1e-12)
