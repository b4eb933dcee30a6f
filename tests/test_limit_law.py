import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import kstest

from stablevar.limit_law import limit_scale, ref_cdf_half_stable, sample_limit
from stablevar.stable_law import RandomStream, StableParams


def c_prime_highprec(alpha, c, p):
    """Independent high-precision evaluation of the scale-transfer formula."""
    mpmath.mp.dps = 40
    a, c, p = mpmath.mpf(alpha), mpmath.mpf(c), mpmath.mpf(p)
    num = mpmath.cos(mpmath.pi * a / (2 * p)) * mpmath.gamma(1 - a / p)
    den = mpmath.cos(mpmath.pi * a / 2) * mpmath.gamma(1 - a)
    return float(c**p * (num / den) ** (p / a))


class TestLimitScale:
    def test_equal_alpha_p_returns_c(self):
        assert limit_scale(StableParams(1.3, 2.0), 1.3).scale_C == 2.0

    def test_reference_value(self):
        ls = limit_scale(StableParams(0.75, 6.35), 1.5)
        assert (ls.alpha, ls.beta) == (0.5, 1.0)
        assert ls.scale_C == pytest.approx(c_prime_highprec(0.75, 6.35, 1.5), rel=1e-10)

    @pytest.mark.parametrize("alpha,p", [(0.6, 0.9), (1.2, 2.5), (1.7, 1.0), (1.9, 3.0)])
    def test_matches_high_precision(self, alpha, p):
        ls = limit_scale(StableParams(alpha, 1.7), p)
        assert ls.scale_C == pytest.approx(c_prime_highprec(alpha, 1.7, p), rel=1e-10)

    def test_continuity_across_alpha_one(self):
        p = 1.4
        lo = limit_scale(StableParams(1.0 - 1e-9, 2.0), p).scale_C
        mid = limit_scale(StableParams(1.0, 2.0), p).scale_C
        hi = limit_scale(StableParams(1.0 + 1e-9, 2.0), p).scale_C
        assert abs(lo - hi) / mid < 1e-6
        assert abs(mid - lo) / mid < 1e-6

    def test_continuity_scan_near_gaussian(self):
        # finite positive values all the way up the alpha in [1.95, 2) scan
        vals = [limit_scale(StableParams(a, 1.0), 1.2).scale_C for a in np.arange(1.95, 2.0, 1e-3)]
        assert all(np.isfinite(vals)) and all(v > 0 for v in vals)
        assert np.all(np.diff(vals) < 0)  # shrinks toward the Gaussian boundary

    def test_sided_limits_at_alpha_equals_p(self):
        # the alpha != p branch is continuous through alpha/p = 1
        p = 1.3
        lo = limit_scale(StableParams(p - 1e-9, 2.0), p).scale_C
        hi = limit_scale(StableParams(p + 1e-9, 2.0), p).scale_C
        assert abs(lo - hi) / lo < 1e-6

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.2, 1.95), st.floats(0.1, 10.0))
    def test_continuity_across_alpha_over_p_one(self, alpha, c):
        # p = alpha (1 -+ 1e-9) puts alpha/p on either side of 1; both go
        # through the regularized formula, not the p == alpha switch
        params = StableParams(alpha, c)
        lo = limit_scale(params, alpha * (1.0 - 1e-9)).scale_C
        hi = limit_scale(params, alpha * (1.0 + 1e-9)).scale_C
        assert hi == pytest.approx(lo, rel=1e-6)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            limit_scale(StableParams(1.5, 1.0), 0.75)


class TestRefCdf:
    def quad_cdf(self, c, x):
        # direct quadrature of the subordinator density, from whichever side converges
        dens = lambda y: math.sqrt(c / (2.0 * math.pi)) * math.exp(-c / (2.0 * y)) * y**-1.5
        if x <= 10.0 * c:
            v, _ = integrate.quad(dens, 0.0, x, limit=400, epsabs=1e-13, epsrel=1e-13)
            return v
        # far tail: substitute t = 1/y so the integrand is regular near zero
        tail = lambda t: math.sqrt(c / (2.0 * math.pi)) * math.exp(-c * t / 2.0) / math.sqrt(t)
        v, _ = integrate.quad(tail, 0.0, 1.0 / x, limit=400, epsabs=1e-13, epsrel=1e-13)
        return 1.0 - v

    def test_support(self):
        assert ref_cdf_half_stable(1.0, 0.0) == 0.0
        assert ref_cdf_half_stable(1.0, -5.0) == 0.0

    def test_normalization(self):
        c = 2.7
        assert ref_cdf_half_stable(c, 1e6 * c) == pytest.approx(self.quad_cdf(c, 1e6 * c), abs=1e-10)
        assert ref_cdf_half_stable(c, 1e6 * c) > 0.999

    def test_median_region_value(self):
        c = 2.7
        assert ref_cdf_half_stable(c, c) == pytest.approx(self.quad_cdf(c, c), abs=1e-10)
        assert ref_cdf_half_stable(c, c) == pytest.approx(0.3173, abs=2e-4)

    def test_quadrature_agreement_log_grid(self):
        c = 1.9
        for x in np.logspace(-2, 4, 100) * c:
            assert abs(ref_cdf_half_stable(c, x) - self.quad_cdf(c, x)) < 1e-10

    def test_monotone_into_unit_interval(self):
        xs = np.logspace(-3, 5, 200)
        f = ref_cdf_half_stable(3.3, xs)
        assert np.all(np.diff(f) >= 0.0)
        assert np.all((f >= 0.0) & (f <= 1.0))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            ref_cdf_half_stable(0.0, 1.0)


class TestSampleLimit:
    def test_subordinator_positivity(self):
        draws = sample_limit(StableParams(0.7, 2.0), 1.0, RandomStream(1), size=100_000)
        assert np.all(draws > 0.0)

    def test_half_stable_matches_ref_cdf(self):
        params, p = StableParams(0.75, 6.35), 1.5
        draws = sample_limit(params, p, RandomStream(2), size=100_000)
        res = kstest(draws, lambda v: ref_cdf_half_stable(limit_scale(params, p).scale_C, v))
        assert res.pvalue > 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_limit(StableParams(1.5, 1.0), 0.75, RandomStream(0))
        with pytest.raises(ValueError):
            sample_limit(StableParams(2.0, 1.0), 1.2, RandomStream(0))
