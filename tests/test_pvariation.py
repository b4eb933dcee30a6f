import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gamma as gamma_fn
from scipy.stats import ks_2samp

from stablevar.path_sim import PathSample, simulate_levy
from stablevar.pvariation import (
    abs_powers,
    compensated_terminal,
    compensator,
    exp_scaled,
    log_abs,
    log_pvariation,
    terminal_pvariation,
)
from stablevar.stable_law import RandomStream, StableParams, sample_stable


def make_path(values, n=None):
    values = np.asarray(values, dtype=float)
    n = n or len(values) - 1
    return PathSample(n, (len(values) - 1) / n, values)


class TestPVariation:
    def test_constant_path(self):
        assert terminal_pvariation(make_path([3.0, 3.0, 3.0, 3.0]).increments(), 1.7) == 0.0

    def test_small_example(self):
        v = terminal_pvariation(make_path([0.0, 2.0, 3.0]).increments(), 2.0)
        assert v == pytest.approx(5.0, rel=1e-14)

    def test_brute_force_oracle_p1(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=501).cumsum()
        v = terminal_pvariation(make_path(values, n=500).increments(), 1.0)
        total = 0.0
        for i in range(1, len(values)):
            total += abs(values[i] - values[i - 1])
        assert abs(v - total) < 1e-9 * max(1.0, total)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            terminal_pvariation(make_path([0.0, 1.0]).increments(), 0.0)

    def test_translation_invariance(self):
        path = simulate_levy(StableParams(1.2, 1.0), 500, 1.0, RandomStream(3))
        shifted = PathSample(path.n, path.horizon_T, path.values + 17.5)
        # shifting perturbs the recomputed increments at ulp level only
        assert terminal_pvariation(shifted.increments(), 1.1) == pytest.approx(
            terminal_pvariation(path.increments(), 1.1), rel=1e-9
        )

    def test_scaling_by_c_pow_p(self):
        c, p = 3.7, 1.4
        path = simulate_levy(StableParams(1.2, 1.0), 500, 1.0, RandomStream(4))
        scaled = PathSample(path.n, path.horizon_T, c * path.values)
        assert terminal_pvariation(scaled.increments(), p) == pytest.approx(
            c**p * terminal_pvariation(path.increments(), p), rel=1e-11
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


class TestAbsPowers:
    @pytest.mark.filterwarnings("error")
    def test_zero_gives_zero_and_overflow_inf_without_warning(self):
        x = np.array([0.0, -0.0, 2.0, -3.0, 1e200, -1e-200])
        powers = abs_powers(x, 2.0)
        np.testing.assert_array_equal(powers[[0, 1, 4, 5]], [0.0, 0.0, np.inf, 0.0])
        np.testing.assert_allclose(powers[2:4], [4.0, 9.0], rtol=1e-15)
        np.testing.assert_array_equal(log_abs(x)[:2], [-np.inf, -np.inf])

    @settings(max_examples=100, deadline=None)
    @given(batches, st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.3]))
    def test_one_log_serves_every_power(self, inc, p):
        # exp_scaled into a new array or in place, and log_pvariation, from
        # one log, give abs_powers' and terminal_pvariation's bits, and leave
        # the shared log as it was
        log_x = log_abs(inc)
        kept = log_x.copy()
        np.testing.assert_array_equal(exp_scaled(log_x, p), abs_powers(inc, p))
        np.testing.assert_array_equal(log_x, kept)
        np.testing.assert_array_equal(log_pvariation(log_x, p), terminal_pvariation(inc, p))
        np.testing.assert_array_equal(log_x, kept)
        np.testing.assert_array_equal(exp_scaled(log_x, p, out=log_x), abs_powers(inc, p))


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

    def test_rejects_alpha_one_skewed(self):
        # one grid increment is L_1/n shifted by (2/pi) beta C log(n)/n, so
        # n^{-p} E|L_1|^p is not its moment
        with pytest.raises(ValueError, match="alpha = 1, beta != 0"):
            compensator(StableParams(1.0, 2.0, 0.7), 0.8, 1000)

    def test_benchmark_references(self):
        # perfbench/refs.json holds B_n for the benchmark's compensate
        # regimes, each with the accuracy it was computed to
        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "refs.json")
        with open(path) as fh:
            refs = json.load(fh)["compensate"]
        assert refs
        for key, ref in refs.items():
            v = {k: float(x) for k, x in (item.split("=") for item in key.split(","))}
            b = compensator(StableParams(v["alpha"], v["scale"], v["beta"]), v["p"], int(v["n"]))
            assert abs(b - ref["compensator"]) <= ref["tolerance"], key


class TestCompensatedTerminal:
    def test_equals_raw_above_alpha(self):
        path = simulate_levy(StableParams(1.5, 1.0), 200, 1.0, RandomStream(8))
        v = compensated_terminal(path, 2.0, StableParams(1.5, 1.0))
        assert v == pytest.approx(terminal_pvariation(path.increments(), 2.0), rel=1e-12)

    def test_constant_path_below_alpha(self):
        params = StableParams(1.5, 1.0)
        path = make_path(np.zeros(101), n=100)
        v = compensated_terminal(path, 1.0, params)
        assert v == pytest.approx(-100 * compensator(params, 1.0, 100), rel=1e-12)
        assert v < 0.0
