import math

import numpy as np
import pytest

from phi4torus.dynamics import SimConfig
from phi4torus.noise import NoiseStream, sample_stationary
from phi4torus.observables import (
    CumulantEstimate,
    SampleSet,
    birkhoff_sample,
    fourth_cumulant,
)
from phi4torus.spectral import Field, Grid, apply_multiplier, lp_norm


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
            birkhoff_sample(cfg, burn_in=5.0, stride=0.1, count=4)

    def test_refuses_short_burn_in(self):
        cfg = self.make_cfg()
        with pytest.raises(ValueError, match="burn-in"):
            birkhoff_sample(cfg, burn_in=1.0, stride=0.5, count=4)

    def test_sample_count_and_times(self):
        cfg = self.make_cfg()
        out = birkhoff_sample(cfg, burn_in=5.0, stride=0.5, count=6)
        assert len(out) == 6
        assert out.times[0] == pytest.approx(5.5)
        diffs = np.diff(out.times)
        assert np.allclose(diffs, 0.5)
        assert out.blew_up is None
        assert math.isfinite(out.autocorrelation_time)

    def test_blow_up_returns_partial_set(self):
        # a tiny threshold trips on the stationary fluctuations themselves
        cfg = self.make_cfg(blowup_threshold=1e-6)
        out = birkhoff_sample(cfg, burn_in=5.0, stride=0.5, count=4)
        assert out.blew_up is not None
        assert len(out) < 4


class TestFourthCumulant:
    def gaussian_samples(self, n, seed, grid=None, r=0.05):
        grid = grid or Grid(dim=3, n=8)
        return [
            sample_stationary(grid, r, NoiseStream(seed + i)) for i in range(n)
        ]

    def test_refuses_few_samples(self):
        with pytest.raises(ValueError, match="200"):
            fourth_cumulant(self.gaussian_samples(20, 0), 0.01)

    def test_refuses_bad_probe(self):
        with pytest.raises(ValueError):
            fourth_cumulant(self.gaussian_samples(200, 0), 0.0)

    def test_gaussian_field_has_zero_cumulant(self):
        est = fourth_cumulant(self.gaussian_samples(300, 1000), 0.02)
        assert est.significance < 3.0

    def test_unbiased_on_synthetic_gaussians(self):
        """Across repetitions the Gaussian C4 estimate is centered on zero:
        the pull distribution has mean ~ 0 and unit-ish scale."""
        pulls = []
        for rep in range(30):
            ests = fourth_cumulant(
                self.gaussian_samples(200, 5000 + 211 * rep), 0.05
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
        est = fourth_cumulant(fields, 1e-4)  # probe barely smooths
        assert est.significance > 5.0
        assert est.c4 < 0.0

    def test_jackknife_matches_explicit_leave_one_out(self):
        grid = Grid(dim=1, n=8)
        rng = np.random.default_rng(12)
        fields = [Field(grid, rng.normal(size=grid.shape)) for _ in range(200)]
        r_probe = 0.1
        est = fourth_cumulant(fields, r_probe)
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


class TestSampleSetContainer:
    def test_len(self):
        cfg = SimConfig(n=8, r=0.05, dt=0.05, horizon=1.0)
        s = SampleSet(cfg=cfg)
        assert len(s) == 0
