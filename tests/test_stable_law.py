import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import expi, gamma as gamma_fn, loggamma
from scipy.stats import kstest, ks_2samp, levy_stable, norm

from stablevar import stable_law
from stablevar.stable_law import (
    ALPHA_ONE_TOL,
    RandomStream,
    StableDraws,
    StableParams,
    abs_moment,
    sample_stable,
    sin_moment,
)


# alpha != 1: at alpha = 1 only beta = 0 has closed-form moments
ALPHAS = st.floats(0.1, 1.95).filter(lambda a: abs(a - 1.0) > 1e-6)
# sin_moment's node count grows like 1/|alpha - 1| with beta != 0 (0.2 s
# per call at 0.001 from alpha = 1); TestSinMoment covers alpha = 0.99,
# 0.999 and 1.001
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

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="scale_C must be finite and positive"):
            StableParams(0.75, scale)

    def test_stream_validation(self):
        # the index is the second word of a 64-bit Philox key
        for index in (-1, 2**64):
            with pytest.raises(ValueError, match="stream_index must be in"):
                RandomStream(1, index)
        assert 0.0 <= RandomStream(1, 2**64 - 1).generator().random() < 1.0
        # RandomStream(1.5) would draw RandomStream(1)'s numbers, and
        # (1, 2.7) those of (1, 2)
        for seed, index in ((1.5, 0), (1, 2.7), (np.float64(1.0), 0)):
            with pytest.raises(ValueError, match="must be integers"):
                RandomStream(seed, index)
        assert RandomStream(np.int64(3), np.uint32(2)).generator().random() == \
            RandomStream(3, 2).generator().random()

    # numpy integers, negative seeds and seeds of 2^63 or more (seeds -1 and
    # 2^64 - 1 share a key), and a skip of each residue mod 4 (Philox makes
    # four outputs per counter step)
    @pytest.mark.parametrize("seed", [0, 12, np.int64(-3), np.uint64(2**64 - 5), -1, 2**64 - 1, 2**63,
                                      2**64 + 9])
    @pytest.mark.parametrize("index, skip", [(0, 0), (5, 1), (7, 6), (2**64 - 1, 10003)])
    def test_stream_is_numpy_philox_key(self, seed, index, skip):
        key = np.array([int(seed) % 2**64, index], dtype=np.uint64)
        reference = np.random.Generator(np.random.Philox(key=key))
        reference.random(skip)
        np.testing.assert_array_equal(RandomStream(seed, index).generator(skip).random(9),
                                      reference.random(9))


class TestSampling:
    def test_gaussian_boundary(self):
        # alpha=2, C=1 is Normal(0, 2). Level 0.01 on a fixed seed: 1%
        # false-failure chance.
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


def textbook_cms(params: StableParams, stream: RandomStream, size: int) -> np.ndarray:
    """Chambers-Mallows-Stuck as one expression per case, on size uniforms
    and then size exponentials of one generator: the reference for the
    in-place transform."""
    rng = stream.generator()
    a, c, beta = params.alpha, params.scale_C, params.beta
    v = (rng.uniform(size=size) - 0.5) * math.pi
    w = rng.exponential(size=size)
    if abs(a - 1.0) < ALPHA_ONE_TOL:
        bv = math.pi / 2.0 - beta * v
        x = (2.0 / math.pi) * (bv * np.tan(v) + beta * np.log((math.pi / 2.0) * w * np.cos(v) / bv))
        return c * x - (2.0 / math.pi) * beta * c * math.log(c)
    # beta has no effect at alpha = 2, where tan(pi) rounds to -1.2e-16
    zeta = 0.0 if a == 2.0 else beta * math.tan(math.pi * a / 2.0)
    b = math.atan(zeta) / a
    s = (1.0 + zeta * zeta) ** (1.0 / (2.0 * a))
    x = (s * np.sin(a * (v + b)) / np.cos(v) ** (1.0 / a)
         * (np.cos(v - a * (v + b)) / w) ** ((1.0 - a) / a))
    return c * x


# alpha = 1 and alpha = 2 exactly, and alphas whose draws do not overflow
DRAW_ALPHAS = st.one_of(st.just(1.0), st.just(2.0), st.floats(0.5, 1.99))
DRAW_BETAS = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))


class TestStableDraws:
    # deterministic: derandomized examples and exact comparisons, so no
    # false-failure rate

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(DRAW_ALPHAS, DRAW_BETAS, st.floats(0.1, 10.0), st.integers(0, 3000),
           st.integers(0, 2**32 - 1))
    def test_sample_stable_is_the_textbook_formula(self, alpha, beta, c, size, seed):
        params = StableParams(alpha, c, beta)
        np.testing.assert_array_equal(
            sample_stable(params, RandomStream(seed, 2), size),
            textbook_cms(params, RandomStream(seed, 2), size))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(DRAW_ALPHAS, DRAW_BETAS, st.floats(0.1, 10.0),
           st.lists(st.integers(1, 1500), min_size=1, max_size=6),
           st.integers(0, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_chunks_concatenate_to_sample_stable(self, alpha, beta, c, widths, extra, rows,
                                                 seed):
        # chunk widths of any size, their total (plus 0-3 more steps in a
        # last chunk) of any residue mod 4, the rows filled in two slices
        params = StableParams(alpha, c, beta)
        size = sum(widths) + extra
        streams = [RandomStream(seed, i) for i in range(rows)]
        draws = StableDraws(params, streams, size)
        chunks = []
        for width in widths + [extra]:
            chunk = np.empty((rows, width))
            draws.fill(chunk[:1])
            draws.fill(chunk[1:], lo=1)
            chunks.append(chunk)
        got = np.hstack(chunks)
        for i, stream in enumerate(streams):
            np.testing.assert_array_equal(got[i], sample_stable(params, stream, size))

    def test_gaussian_draws_ignore_beta(self):
        # at alpha = 2 the CMS transform gives N(0, 2 C^2) whatever beta is
        draws = [sample_stable(StableParams(2.0, 1.5, beta), RandomStream(5), 1000)
                 for beta in (-1.0, 0.0, 0.7)]
        np.testing.assert_array_equal(draws[0], draws[1])
        np.testing.assert_array_equal(draws[2], draws[1])

    def test_filling_past_size_raises(self):
        draws = StableDraws(StableParams(1.5, 1.0), [RandomStream(3, i) for i in range(3)], 10)
        draws.fill(np.empty((3, 6)))
        draws.fill(np.empty((1, 4)), lo=2)
        with pytest.raises(ValueError, match="exceed size=10"):
            draws.fill(np.empty((2, 5)), lo=1)
        with pytest.raises(ValueError, match="exceed size=10"):
            draws.fill(np.empty((2, 1)), lo=2)

    def test_shaped_sample(self):
        p = StableParams(1.2, 1.0, 0.3)
        x = sample_stable(p, RandomStream(4), size=(3, 5))
        assert x.shape == (3, 5)
        np.testing.assert_array_equal(x.ravel(), sample_stable(p, RandomStream(4), size=15))


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
        for q in (0.0, math.nan):
            with pytest.raises(ValueError, match="p must be positive"):
                abs_moment(p, q)

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


class TestLogGamma:
    def test_real_axis_matches_scipy(self):
        x = np.linspace(-0.99, 30.0, 6001)
        x = x[x != 0.0]
        ref = loggamma(x + 0j).real
        assert np.max(np.abs(stable_law._loggamma(x).real - ref) / np.maximum(1.0, np.abs(ref))) < 2e-14

    @pytest.mark.parametrize("re", [-0.5, 0.25, 0.5, 0.75, 1.0, 1.5])
    def test_lines_the_package_uses(self, re):
        # sin_moment evaluates log Gamma on Re z = -1/2, 1/2 + alpha/4, 3/2 and
        # 1 - alpha/4; the branch of the imaginary part is free, since callers
        # exponentiate or take the real part, so compare exp of the difference.
        # Im log Gamma is about t log t, and one ulp of it at |t| = 2000 is 1.8e-12
        z = re + 1j * np.linspace(-2000.0, 2000.0, 40_001)
        diff = stable_law._loggamma(z) - loggamma(z)
        assert np.max(np.abs(np.expm1(diff))) < 1e-11
        assert np.max(np.abs(diff.real) / np.maximum(1.0, np.abs(loggamma(z).real))) < 1e-14


def quad_sin_moment(params, n):
    """sin_moment's line integral by QUADPACK with scipy's log-gamma, an
    independent evaluation, up to t = T where the integrand has decayed by
    e^-60 (and cmath.sin and cos do not overflow)."""
    a, c, beta = params.alpha, params.scale_C, params.beta
    zeta = beta * math.tan(math.pi * a / 2.0)

    def integrand(t):
        s = complex(-0.5, t)
        q = -a * s
        log_moment = (
            q * math.log(2.0 * c) + loggamma((1.0 + q) / 2.0) - 0.5 * math.log(math.pi)
            + loggamma(1.0 - q / a) - loggamma(1.0 - q / 2.0)
            + q / (2.0 * a) * math.log1p(zeta * zeta) + cmath.log(cmath.cos(q / a * math.atan(zeta)))
        )
        return cmath.exp(loggamma(s) + cmath.log(cmath.sin(math.pi * s / 2.0)) + s * math.log(n)
                         + log_moment).real

    t_max = 60.0 / (math.pi / 2.0 - abs(math.atan(zeta)))
    val, _ = integrate.quad(integrand, 0.0, t_max, limit=10_000, epsabs=1e-13, epsrel=1e-11)
    return val / math.pi


class TestSinMoment:
    @pytest.mark.parametrize("alpha,c,beta", [
        (1.5, 1.0, 0.0), (1.2, 2.0, 0.5), (0.75, 1.0, -0.3), (1.9, 1.0, 0.9), (0.3, 2.0, 0.0),
    ])
    @pytest.mark.parametrize("n", [1, 64, 10**4])
    def test_trapezoid_matches_quadpack(self, alpha, c, beta, n):
        p = StableParams(alpha, c, beta)
        assert sin_moment(p, n) == pytest.approx(quad_sin_moment(p, n), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.999, 1.001])
    def test_near_alpha_one_stable_under_half_step(self, monkeypatch, alpha):
        # about 1.8e5 nodes at h = 0.08: the rule has converged, so halving
        # the step moves the result only by rounding
        p = StableParams(alpha, 1.0, 0.5)
        v = sin_moment(p, 10**4)
        monkeypatch.setattr(stable_law, "SIN_STEP", stable_law.SIN_STEP / 2.0)
        assert abs(sin_moment(p, 10**4) - v) < 1e-12

    def test_node_cap_raises(self):
        # at alpha = 1 + 1e-5, beta = 0.5 the rule would need 1.8e7 nodes
        with pytest.raises(ValueError, match="SIN_MAX_NODES"):
            sin_moment(StableParams(1.00001, 1.0, 0.5), 100)

    def test_nodes_summed_in_bounded_chunks(self, monkeypatch):
        # a chunk of 1000 nodes gives the one-chunk value up to rounding
        p = StableParams(1.2, 2.0, 0.5)
        v = sin_moment(p, 300)
        monkeypatch.setattr(stable_law, "SIN_CHUNK", 1000)
        assert sin_moment(p, 300) == pytest.approx(v, rel=1e-14)

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
