import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expi, gamma as gamma_fn
from scipy.stats import kstest, ks_2samp, levy_stable, norm

from stablevar.stable_law import (
    RandomStream,
    StableParams,
    abs_moment,
    sample_stable,
    sin_moment,
)


# alpha != 1: at alpha = 1 only beta = 0 has closed-form moments
ALPHAS = st.floats(0.1, 1.95).filter(lambda a: abs(a - 1.0) > 1e-6)
# sin_moment costs up to ~1 s per call within 0.01 of alpha = 1 with
# beta != 0 (test_skewed_near_alpha_one_vs_mc covers alpha = 0.99)
SIN_ALPHAS = st.floats(0.3, 2.0).filter(lambda a: abs(a - 1.0) > 0.05)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            StableParams(0.0, 1.0)
        with pytest.raises(ValueError):
            StableParams(2.1, 1.0)
        with pytest.raises(ValueError):
            StableParams(1.5, 0.0)
        with pytest.raises(ValueError):
            StableParams(1.5, 1.0, 1.5)

    def test_stream_validation(self):
        with pytest.raises(ValueError):
            RandomStream(1, -1)


class TestSampling:
    def test_gaussian_boundary(self):
        # alpha=2, C=1 is Normal(0, 2)
        x = sample_stable(StableParams(2.0, 1.0), RandomStream(1), size=100_000)
        res = kstest(x, norm(scale=math.sqrt(2.0)).cdf)
        assert res.pvalue > 0.01

    def test_cauchy_quantiles(self):
        # alpha=1, C=1, beta=0 is standard Cauchy: median 0, P(X<=1)=3/4
        n = 400_000
        x = sample_stable(StableParams(1.0, 1.0), RandomStream(2), size=n)
        assert abs(np.median(x)) < 0.01
        p = (x <= 1.0).mean()
        assert abs(p - 0.75) < 3.0 * math.sqrt(0.75 * 0.25 / n)

    def test_symmetry(self):
        x = sample_stable(StableParams(1.3, 2.0), RandomStream(3), size=100_000)
        y = -sample_stable(StableParams(1.3, 2.0), RandomStream(4), size=100_000)
        assert ks_2samp(x, y).pvalue > 0.01

    def test_scaling_exact_away_from_one(self):
        # same stream: draws for (alpha, C, beta) are C times draws for (alpha, 1, beta)
        a, c, b = 1.6, 3.5, 0.4
        x1 = sample_stable(StableParams(a, c, b), RandomStream(5), size=1000)
        x2 = sample_stable(StableParams(a, 1.0, b), RandomStream(5), size=1000)
        np.testing.assert_array_equal(x1, c * x2)

    def test_scaling_alpha_one_distributional(self):
        # at alpha=1 the log-correction makes scaling hold in law only
        c, b = 2.0, 0.6
        x = sample_stable(StableParams(1.0, c, b), RandomStream(6), size=200_000)
        y = sample_stable(StableParams(1.0, 1.0, b), RandomStream(7), size=200_000)
        shifted = c * y - (2.0 / math.pi) * b * c * math.log(c)
        assert ks_2samp(x, shifted).pvalue > 0.01

    @pytest.mark.parametrize("beta", [-0.8, 0.8])
    def test_alpha_one_skewed_matches_scipy(self, monkeypatch, beta):
        # independent reference: scipy's S1 law, whose alpha = 1 exponent
        # carries +i beta (2/pi) log|lam| where ours carries -i beta, so it
        # takes -beta. Level 0.01 on a fixed seed: 1% false-failure chance.
        monkeypatch.setattr(levy_stable, "parameterization", "S1")
        x = sample_stable(StableParams(1.0, 2.0, beta), RandomStream(11), size=2000)
        assert kstest(x, lambda v: levy_stable.cdf(v, 1.0, -beta, scale=2.0)).pvalue > 0.01

    def test_convolution_stability(self):
        # sum of k iid draws / k^{1/alpha} is again one draw (beta=0)
        a, k = 1.4, 4
        x = sample_stable(StableParams(a, 1.0), RandomStream(8), size=4 * 100_000)
        summed = x.reshape(-1, k).sum(axis=1) / k ** (1.0 / a)
        single = sample_stable(StableParams(a, 1.0), RandomStream(9), size=100_000)
        assert ks_2samp(summed, single).pvalue > 0.01

    def test_tail_constant(self):
        # P(|X| > x) x^alpha tends to (2/pi) sin(pi alpha/2) Gamma(alpha) C^alpha
        a, c = 0.75, 6.35
        x = np.abs(sample_stable(StableParams(a, c), RandomStream(10), size=2_000_000))
        target = (2.0 / math.pi) * math.sin(math.pi * a / 2.0) * gamma_fn(a) * c**a
        est = (x > 1000.0).mean() * 1000.0**a
        n_exceed = (x > 1000.0).sum()
        rel_se = 1.0 / math.sqrt(n_exceed)
        assert abs(est - target) < 4.0 * rel_se * target

    def test_stream_reproducibility(self):
        p = StableParams(1.5, 1.0)
        a = sample_stable(p, RandomStream(11, 3), size=100)
        b = sample_stable(p, RandomStream(11, 3), size=100)
        c = sample_stable(p, RandomStream(11, 4), size=100)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestAbsMoment:
    def test_gaussian_mean_abs(self):
        # E|N(0,2)| = 2/sqrt(pi)
        v = abs_moment(StableParams(2.0, 1.0), 1.0)
        assert abs(v - 2.0 / math.sqrt(math.pi)) < 1e-12

    def test_symmetric_closed_form_vs_mc(self):
        p = StableParams(1.5, 1.0)
        v = abs_moment(p, 1.0)
        closed = 2.0 * gamma_fn(1.0) * gamma_fn(1.0 - 1.0 / 1.5) / (gamma_fn(0.5) * math.sqrt(math.pi))
        assert abs(v - closed) < 1e-10
        x = np.abs(sample_stable(p, RandomStream(12), size=2_000_000))
        se = x.std() / math.sqrt(len(x))
        assert abs(v - x.mean()) < 3.0 * se

    def test_skewed_quadrature_vs_mc(self):
        p = StableParams(1.5, 1.0, 0.8)
        v = abs_moment(p, 0.8)
        w = np.abs(sample_stable(p, RandomStream(13), size=2_000_000)) ** 0.8
        se = w.std() / math.sqrt(len(w))
        assert abs(v - w.mean()) < 3.0 * se

    def test_small_p_limit(self):
        assert abs(abs_moment(StableParams(1.2, 3.0), 1e-6) - 1.0) < 1e-3

    def test_rejects_out_of_range(self):
        p = StableParams(1.5, 1.0)
        with pytest.raises(ValueError):
            abs_moment(p, 1.5)
        with pytest.raises(ValueError):
            abs_moment(p, 0.0)

    def test_rejects_alpha_one_skewed(self):
        with pytest.raises(ValueError, match="alpha = 1, beta != 0"):
            abs_moment(StableParams(1.0, 2.0, 0.7), 0.8)

    @settings(max_examples=200, deadline=None)
    @given(ALPHAS, st.floats(-1.0, 1.0), st.floats(0.01, 0.99), st.floats(0.1, 10.0),
           st.floats(0.1, 10.0))
    def test_scale_equivariance(self, alpha, beta, frac, c, lam):
        # E|lam L_1|^p = lam^p E|L_1|^p, and lam L_1 is S_alpha(lam C, beta, 0)
        p = frac * alpha
        base = abs_moment(StableParams(alpha, c, beta), p)
        scaled = abs_moment(StableParams(alpha, lam * c, beta), p)
        assert scaled == pytest.approx(lam**p * base, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(ALPHAS, st.floats(0.0, 1.0), st.floats(0.01, 0.99))
    def test_reflection_invariance(self, alpha, beta, frac):
        # -L_1 is S_alpha(C, -beta, 0) and has the same |L_1|
        p = frac * alpha
        assert abs_moment(StableParams(alpha, 1.3, -beta), p) == pytest.approx(
            abs_moment(StableParams(alpha, 1.3, beta), p), rel=1e-12)


class TestSinMoment:
    def test_bounded(self):
        assert -1.0 <= sin_moment(StableParams(0.9, 2.0), 50) <= 1.0

    def test_cauchy_vs_mc(self):
        p = StableParams(1.0, 1.0)
        v = sin_moment(p, 1000)
        x = np.sin(np.abs(sample_stable(p, RandomStream(14), size=2_000_000)) / 1000.0)
        se = x.std() / math.sqrt(len(x))
        assert abs(v - x.mean()) < 3.0 * se

    def test_vanishes_monotonically(self):
        p = StableParams(1.0, 1.0)
        vals = [abs(sin_moment(p, n)) for n in (100, 10_000, 1_000_000)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sin_moment(StableParams(1.0, 1.0), 0)

    def test_rejects_alpha_one_skewed(self):
        with pytest.raises(ValueError, match="alpha = 1, beta != 0"):
            sin_moment(StableParams(1.0, 2.0, 0.7), 100)

    @pytest.mark.parametrize("c,n", [(1.0, 100), (1.0, 1000), (2.0, 50)])
    def test_cauchy_closed_form(self, c, n):
        # |L_1| of S_1(C, 0, 0) has density (2/pi) C / (C^2 + x^2), so with
        # x = C/n, E sin(|L_1|/n) = (e^{-x} Ei(x) - e^x Ei(-x)) / pi
        x = c / n
        exact = (math.exp(-x) * expi(x) - math.exp(x) * expi(-x)) / math.pi
        assert abs(sin_moment(StableParams(1.0, c), n) - exact) < 1e-9

    def test_skewed_near_alpha_one_vs_mc(self):
        # zeta = beta tan(pi alpha / 2) = 57: the integrand decays slowly here.
        # 3 standard errors on a fixed seed: a 0.3% chance of a false failure
        p = StableParams(0.99, 1.3, 0.9)
        v = sin_moment(p, 1000)
        x = np.sin(np.abs(sample_stable(p, RandomStream(15), size=1_000_000)) ** 0.99 / 1000.0)
        se = x.std() / math.sqrt(len(x))
        assert abs(v - x.mean()) < 3.0 * se

    @settings(max_examples=30, deadline=None)
    @given(SIN_ALPHAS, st.floats(0.0, 1.0), st.integers(1, 10**6))
    def test_reflection_invariance(self, alpha, beta, n):
        # -L_1 is S_alpha(C, -beta, 0) and has the same |L_1|
        assert sin_moment(StableParams(alpha, 1.3, -beta), n) == pytest.approx(
            sin_moment(StableParams(alpha, 1.3, beta), n), abs=1e-12)
