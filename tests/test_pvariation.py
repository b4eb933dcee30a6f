import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gamma as gamma_fn
from scipy.stats import ks_2samp

from stablevar.path_sim import PathSample, simulate_levy
from stablevar.pvariation import compensated_terminal, compensator, pvariation, terminal_pvariation
from stablevar.stable_law import RandomStream, StableParams, sample_stable


def make_path(values, n=None):
    values = np.asarray(values, dtype=float)
    n = n or len(values) - 1
    return PathSample(n, (len(values) - 1) / n, values)


class TestPVariation:
    def test_constant_path(self):
        vs = pvariation(make_path([3.0, 3.0, 3.0, 3.0]), 1.7)
        np.testing.assert_array_equal(vs.raw, np.zeros(4))

    def test_small_example(self):
        vs = pvariation(make_path([0.0, 2.0, 3.0]), 2.0)
        np.testing.assert_allclose(vs.raw, [0.0, 4.0, 5.0], rtol=1e-14)

    def test_brute_force_oracle_p1(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=501).cumsum()
        vs = pvariation(make_path(values, n=500), 1.0)
        total = 0.0
        for i in range(1, len(values)):
            total += abs(values[i] - values[i - 1])
        assert abs(vs.raw[-1] - total) < 1e-9 * max(1.0, total)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            pvariation(make_path([0.0, 1.0]), 0.0)

    def test_monotone_and_zero_start(self):
        path = simulate_levy(StableParams(1.2, 1.0), 1000, 1.0, RandomStream(1))
        vs = pvariation(path, 0.9)
        assert vs.raw[0] == 0.0
        assert np.all(np.diff(vs.raw) >= 0.0)

    def test_additivity_over_subintervals(self):
        path = simulate_levy(StableParams(1.2, 1.0), 100, 2.0, RandomStream(2))
        half = PathSample(100, 1.0, path.values[:101])
        vs_full = pvariation(path, 1.3)
        vs_half = pvariation(half, 1.3)
        np.testing.assert_allclose(vs_full.raw[:101], vs_half.raw, rtol=1e-12)

    def test_translation_invariance(self):
        path = simulate_levy(StableParams(1.2, 1.0), 500, 1.0, RandomStream(3))
        shifted = PathSample(path.n, path.horizon_T, path.values + 17.5)
        # shifting perturbs the recomputed increments at ulp level only
        np.testing.assert_allclose(
            pvariation(path, 1.1).raw, pvariation(shifted, 1.1).raw, rtol=1e-9, atol=1e-12
        )

    def test_scaling_by_c_pow_p(self):
        c, p = 3.7, 1.4
        path = simulate_levy(StableParams(1.2, 1.0), 500, 1.0, RandomStream(4))
        scaled = PathSample(path.n, path.horizon_T, c * path.values)
        np.testing.assert_allclose(
            pvariation(scaled, p).raw, c**p * pvariation(path, p).raw, rtol=1e-11
        )

    def test_skew_sign_irrelevant_in_law(self):
        # beta=+1 and beta=-1 paths give identically distributed variations
        n, m, p = 500, 1000, 1.2
        pos = StableParams(1.5, 1.0, 1.0)
        neg = StableParams(1.5, 1.0, -1.0)
        va = np.array([
            terminal_pvariation(sample_stable(pos, RandomStream(5, i), size=n), p)
            for i in range(m)
        ])
        vb = np.array([
            terminal_pvariation(sample_stable(neg, RandomStream(6, i), size=n), p)
            for i in range(m)
        ])
        assert ks_2samp(va, vb).pvalue > 0.01


# finite increments with exact zeros common; 1-row and 1-column batches included
batches = st.tuples(st.integers(1, 6), st.integers(1, 40)).flatmap(
    lambda shape: arrays(
        np.float64, shape,
        elements=st.one_of(st.just(0.0), st.floats(-1e6, 1e6, allow_subnormal=False)),
    )
)


class TestTerminalPVariationBatch:
    @settings(max_examples=200, deadline=None)
    @given(batches, st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.3]))
    def test_rows_match_single_calls_bitwise(self, inc, p):
        batch = terminal_pvariation(inc, p)
        assert batch.shape == (inc.shape[0],)
        singles = np.array([terminal_pvariation(row, p) for row in inc])
        np.testing.assert_array_equal(batch, singles)

    def test_one_path_gives_float(self):
        v = terminal_pvariation(np.array([1.0, -2.0, 0.0]), 2.0)
        assert type(v) is float and v == 5.0


class TestCompensator:
    def test_zero_above_alpha(self):
        assert compensator(StableParams(1.5, 1.0), 2.0, 100) == 0.0

    def test_power_branch_closed_form(self):
        # alpha=1.5, p=1: B_n = n^{-2/3} E|L_1| with the symmetric closed form
        params = StableParams(1.5, 1.0)
        e_abs = 2.0 * gamma_fn(1.0 - 1.0 / 1.5) / (gamma_fn(0.5) * math.sqrt(math.pi))
        assert abs(compensator(params, 1.0, 100) - 100 ** (-2.0 / 3.0) * e_abs) < 1e-10

    def test_sin_branch_vs_mc(self):
        params = StableParams(1.0, 1.0)
        b = compensator(params, 1.0, 10_000)
        x = np.sin(np.abs(sample_stable(params, RandomStream(7), size=2_000_000)) / 10_000)
        se = x.std() / math.sqrt(len(x))
        assert abs(b - x.mean()) < 3.0 * se

    def test_rejects_below_half_alpha(self):
        with pytest.raises(ValueError):
            compensator(StableParams(1.5, 1.0), 0.75, 100)


class TestCompensatedTerminal:
    def test_equals_raw_above_alpha(self):
        path = simulate_levy(StableParams(1.5, 1.0), 200, 1.0, RandomStream(8))
        v = compensated_terminal(path, 2.0, StableParams(1.5, 1.0))
        assert v == pytest.approx(pvariation(path, 2.0).raw[-1], rel=1e-12)

    def test_constant_path_below_alpha(self):
        params = StableParams(1.5, 1.0)
        path = make_path(np.zeros(101), n=100)
        v = compensated_terminal(path, 1.0, params)
        assert v == pytest.approx(-100 * compensator(params, 1.0, 100), rel=1e-12)
        assert v < 0.0
