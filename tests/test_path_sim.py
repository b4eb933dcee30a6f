import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp, kstest, levy_stable, norm

from stablevar import path_sim
from stablevar.cli import DRIFTS
from stablevar.path_sim import (
    PathSample,
    euler,
    levy_increment_draws,
    sde_increments,
    simulate_levy,
)
from stablevar.pvariation import compensator, terminal_pvariation
from stablevar.scenarios import (
    CHUNK_STEPS,
    levy_statistic_sample,
    sde_statistic_pairs,
    two_sample_ks,
)
from stablevar.stable_law import RandomStream, StableParams, sample_stable

P075 = StableParams(0.75, 6.35)
P2 = StableParams(2.0, 1.0)
P15 = StableParams(1.5, 1.0)
P1_SKEWED = StableParams(1.0, 1.0, 0.8)
ZERO, COS = DRIFTS["zero"], DRIFTS["cos"]


def grid_rows(params, n, seed, m, T=1.0):
    """The grid increments of streams 0 .. m - 1 of the Levy path on {k/n}
    over [0, T], one sample_stable row per stream of the grid-increment law
    S_alpha(C n^(-1/alpha), beta, 0)."""
    step = StableParams(params.alpha, params.scale_C * n ** (-1.0 / params.alpha), params.beta)
    return np.array([sample_stable(step, RandomStream(seed, i), int(math.floor(n * T)))
                     for i in range(m)])


class TestSimulateLevy:
    def test_grid_shape(self):
        path = simulate_levy(P075, 4, 1.0, RandomStream(0))
        assert len(path.values) == 5
        assert path.values[0] == 0.0
        assert (path.n, path.horizon_T) == (4, 1.0)

    def test_gaussian_increments(self):
        # Level 0.01 on a fixed seed: 1% false-failure chance
        path = simulate_levy(P2, 100_000, 1.0, RandomStream(1))
        res = kstest(path.increments(), norm(scale=math.sqrt(2.0 / 100_000)).cdf)
        assert res.pvalue > 0.01

    def test_determinism(self):
        a = simulate_levy(P075, 100, 2.0, RandomStream(2, 5))
        b = simulate_levy(P075, 100, 2.0, RandomStream(2, 5))
        np.testing.assert_array_equal(a.values, b.values)

    def test_increment_stationarity(self):
        inc = simulate_levy(P075, 100_000, 1.0, RandomStream(3)).increments()
        half = len(inc) // 2
        assert ks_2samp(inc[:half], inc[half:]).pvalue > 0.01

    def test_pvariation_grows_linearly_in_horizon(self):
        # median across paths of V_{1.5} at T=1..8 should rise roughly linearly
        horizons = np.arange(1, 9)
        med = np.empty(len(horizons))
        stats = np.empty((60, len(horizons)))
        for i in range(60):
            path = simulate_levy(P075, 500, 8.0, RandomStream(4, i))
            inc = path.increments()
            for j, T in enumerate(horizons):
                stats[i, j] = terminal_pvariation(inc[: 500 * T], 1.5)
        med = np.median(stats, axis=0)
        assert np.all(np.isfinite(med))
        assert np.all(np.diff(med) > 0)
        slope, intercept = np.polyfit(horizons, med, 1)
        fit = slope * horizons + intercept
        assert np.max(np.abs(med - fit)) / med[-1] < 0.15


class TestLevyIncrements:
    def test_rows_are_streams(self):
        # levy_increment_draws gives each stream the row one sample_stable
        # call draws from the grid-increment law
        streams = [RandomStream(17, i) for i in range(3)]
        draws = levy_increment_draws(P075, 40, streams, T=1.5)
        inc = np.empty((3, draws.size))
        draws.fill(inc)
        assert inc.shape == (3, 60)
        one = np.empty((1, 60))
        levy_increment_draws(P075, 40, streams[1:2], T=1.5).fill(one)
        np.testing.assert_array_equal(inc[1], one[0])
        np.testing.assert_array_equal(inc, grid_rows(P075, 40, 17, 3, T=1.5))

    def test_alpha_one_skewed_grid_sums_have_law_of_l1(self, monkeypatch):
        # the n grid increments of [0, 1] sum to L_1 ~ S_1(2, 0.7, 0). Reference:
        # scipy's S1 law with beta negated (its alpha = 1 log term has the
        # opposite sign). Level 0.01 on a fixed seed: 1% false-failure chance.
        monkeypatch.setattr(levy_stable, "parameterization", "S1")
        sums = grid_rows(StableParams(1.0, 2.0, 0.7), 500, 19, 2000).sum(axis=1)
        assert kstest(sums, lambda v: levy_stable.cdf(v, 1.0, -0.7, scale=2.0)).pvalue > 0.01

    def test_alpha_one_skewed_statistic_matches_path(self):
        # at alpha = 1, beta != 0 the statistic sample and simulate_levy take
        # the same grid increments of the grid-increment law
        n, p = 100, 1.5
        (stat,) = levy_statistic_sample(P1_SKEWED, n, 1, 4, (p,))
        path = simulate_levy(P1_SKEWED, n, 1.0, RandomStream(4, 0))
        np.testing.assert_allclose(stat[0], terminal_pvariation(path.increments(), p), rtol=1e-12)

    def test_alpha_one_skewed_sde_pairs_levy_side_matches_path(self):
        # the Levy side of the pairs takes the grid increments that
        # simulate_levy sums into its path
        n, p, m = 50, 1.5, 3
        _, v_levy = sde_statistic_pairs(P1_SKEWED, ZERO, p, n, m, seed=6)
        expected = [
            terminal_pvariation(simulate_levy(P1_SKEWED, n, 1.0, RandomStream(6, i)).increments(), p)
            for i in range(m)
        ]
        np.testing.assert_allclose(v_levy, expected, rtol=1e-12)


class TestSimulateSde:
    def test_zero_drift_bitwise_reduction(self):
        # with f = 0 the Euler levels are the Levy path's cumulative sums, so
        # the coarse-grid increments are the same differences
        stream = RandomStream(5)
        sde = sde_increments(P075, ZERO, 100, 1, 5, CHUNK_STEPS, fine=16)[0]
        levy = simulate_levy(P075, 1600, 1.0, stream).values[::16]
        np.testing.assert_array_equal(sde, np.diff(levy))

    def test_rejects_incompatible_grids(self):
        with pytest.raises(ValueError):
            euler(0.0, ZERO, grid_rows(P075, 150, 6, 1), 150, 100)

    def test_bounded_drift_pointwise_bound(self):
        # |f| <= 1 for f = cos implies |X_t - (x0 + L_t)| <= t on the grid,
        # X_t being x0 plus the partial sums of the increments
        stream = RandomStream(7)
        sde = sde_increments(P075, COS, 100, 1, 7, CHUNK_STEPS, fine=8, T=2.0, x0=1.0)[0]
        levy = simulate_levy(P075, 800, 2.0, stream).values[8::8]
        t = np.arange(1, 201) / 100
        assert np.all(np.abs((1.0 + np.cumsum(sde)) - (1.0 + levy)) <= t + 1e-12)

    def test_batch_matches_scalar_path(self):
        # row i is stream i's path, however many streams are drawn with it
        batch = sde_increments(P075, COS, 100, 3, 8, CHUNK_STEPS, fine=4, x0=0.5)
        for i in range(3):
            single = sde_increments(P075, COS, 100, i + 1, 8, CHUNK_STEPS, fine=4, x0=0.5)[i]
            np.testing.assert_allclose(batch[i], single, rtol=1e-12, atol=1e-12)

    def test_refinement_consistency_in_law(self):
        # doubling the fine grid leaves the law of the terminal value
        # X_1 = x0 + sum of the increments unchanged (x0 = 0)
        a = sde_increments(P075, COS, 100, 1000, 9, CHUNK_STEPS, fine=4)
        b = sde_increments(P075, COS, 100, 1000, 10, CHUNK_STEPS, fine=8)
        assert ks_2samp(a.sum(axis=1), b.sum(axis=1)).pvalue > 0.01


class TestSdeIncrements:
    """sde_increments walks blocks of streams and chunks of whole observation
    steps (path_sim.walk_chunks). Deterministic: fixed seeds and exact
    comparisons, so no false-failure rate."""

    SIZES = [  # (m, n, fine multiplier, T, x0)
        (200, 200, 16, 1.0, 0.0), (37, 53, 3, 2.0, 0.5), (5, 10, 2, 1.04, 0.0),
        (200, 1000, 16, 1.0, 0.0), (3, 7, 5, 1.5, 1.0),
    ]

    @pytest.mark.parametrize("params", [P075, P1_SKEWED], ids=["a075", "a1-skewed"])
    @pytest.mark.parametrize("width", [CHUNK_STEPS, 7])
    @pytest.mark.parametrize("m, n, fine, T, x0", SIZES)
    def test_equals_one_euler_call_over_sample_stable_rows(self, params, width, m, n, fine,
                                                           T, x0):
        # at width 7 every chunk but the last is one or few observation steps,
        # and at CHUNK_STEPS = 1000, n = 1000, fine 16 the last of the
        # 62-step chunks holds 8 steps
        expected = euler(x0, COS, grid_rows(params, fine * n, 9, m, T), fine * n, n)
        np.testing.assert_array_equal(
            sde_increments(params, COS, n, m, 9, width, fine=fine, T=T, x0=x0), expected)

    def test_partial_last_block(self, monkeypatch):
        # 13 streams in blocks of 5, 5 and 3, in pool tasks of 2 streams, and
        # 30 observation steps in chunks of 4, the last partial; the result
        # does not depend on the thread count either (test_scenarios.py,
        # TestBlockPartition)
        m, n, fine, T = 13, 20, 3, 1.5
        monkeypatch.setattr(path_sim, "CHUNK_VALUES", 5 * 4 * fine)
        monkeypatch.setattr(path_sim, "TASK_VALUES", 2 * 4 * fine)
        expected = euler(0.2, COS, grid_rows(P075, fine * n, 9, m, T), fine * n, n)
        got = sde_increments(P075, COS, n, m, 9, 4 * fine, fine=fine, T=T, x0=0.2)
        np.testing.assert_array_equal(got, expected)

    def test_peak_does_not_grow_with_the_fine_multiplier(self):
        # the (200, 1000) output is 1.6 MB; the whole fine grid alone would
        # be 16 times that, 25.6 MB
        tracemalloc.start()
        try:
            sde_increments(P075, COS, 1000, 200, 0, CHUNK_STEPS, fine=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_pool_tasks_run_under_the_callers_error_state(self):
        # pool threads do not inherit numpy's error state: the draws of this
        # law overflow on them, and warn (an error under pytest) unless the
        # caller's state reaches them
        huge = StableParams(0.3, 1e308)
        with np.errstate(all="ignore"):
            out = sde_increments(huge, ZERO, 50, 20, 0, CHUNK_STEPS, fine=16)
        assert not np.all(np.isfinite(out))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            path_sim.walk_chunks(huge, 50, 20, 0, CHUNK_STEPS, fine=16)


def reference_levels(x0, drift, dL, n_fine, n_obs):
    """The Euler levels on the observation grid, X_0 = x0 included, written
    as a plain loop that keeps every level."""
    step = n_fine // n_obs
    x = np.full(dL.shape[0], x0)
    levels = [x]
    for k in range(dL.shape[1]):
        f = np.cos(x) if drift is np.cos else np.zeros_like(x)
        x = x + f * (1.0 / n_fine) + dL[:, k]
        if (k + 1) % step == 0:
            levels.append(x)
    return np.stack(levels, axis=1)


class TestEuler:
    # deterministic: derandomized examples, so no false-failure rate
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.sampled_from([ZERO, COS]),
        st.floats(-10.0, 10.0),
        st.integers(0, 4),
        st.integers(1, 12),
        st.integers(1, 4),
        st.floats(0.05, 3.0).filter(lambda T: T != int(T)),
        st.integers(0, 2**32 - 1),
    )
    def test_increments_are_differences_of_levels(self, drift, x0, m, n_obs, step, T, seed):
        # each observed increment subtracts the same two levels as np.diff,
        # so the two agree bit for bit, a trailing partial step included
        n_fine = n_obs * step
        k_max = int(math.floor(n_fine * T))
        dL = np.random.default_rng(seed).standard_cauchy((m, k_max)) / n_fine
        got = euler(x0, drift, dL, n_fine, n_obs)
        assert got.shape == (m, k_max // step)
        np.testing.assert_array_equal(got, np.diff(reference_levels(x0, drift, dL, n_fine, n_obs)))


class TestChunkedPaths:
    # deterministic: fixed seeds and exact comparisons, so no false-failure rate

    @pytest.mark.parametrize("params", [P075, P2, P1_SKEWED], ids=["a075", "a2", "a1-skewed"])
    @pytest.mark.parametrize("widths, step", [
        ((7, 13, 1, 42), 1),  # 63 fine steps: neither a multiple of 4 nor of a chunk
        ((8, 4, 24, 12), 4),  # chunks of whole observation steps
    ])
    def test_resumed_chunks_equal_one_shot(self, params, widths, step):
        # levy_increment_draws continues the sample_stable rows across chunks, and
        # euler continues its paths from the state array it leaves behind,
        # also when it overwrites the chunk with its output
        n_fine, m, T = 32, 5, sum(widths) / 32
        streams = [RandomStream(8, i) for i in range(m)]
        dL_one = grid_rows(params, n_fine, 8, m, T)
        dX_one = euler(0.3, COS, dL_one, n_fine, n_fine // step)
        draws = levy_increment_draws(params, n_fine, streams, T)
        x, x_in_place = np.full(m, 0.3), np.full(m, 0.3)
        dL_parts, dX_parts, in_place_parts = [], [], []
        for width in widths:
            dL = np.empty((m, width))
            draws.fill(dL[:2])
            draws.fill(dL[2:], lo=2)
            dL_parts.append(dL.copy())
            dX_parts.append(euler(x, COS, dL, n_fine, n_fine // step))
            in_place_parts.append(euler(x_in_place, COS, dL, n_fine, n_fine // step, out=dL))
        np.testing.assert_array_equal(np.hstack(dL_parts), dL_one)
        np.testing.assert_array_equal(np.hstack(dX_parts), dX_one)
        if step == 1:
            np.testing.assert_array_equal(np.hstack(in_place_parts), dX_one)
        np.testing.assert_array_equal(x, x_in_place)

    def test_state_is_the_last_level(self):
        # per-row starts, and the state left behind is each row's last level
        dL = np.random.default_rng(4).standard_cauchy((3, 12)) / 12
        starts = [0.0, 1.0, -2.0]
        x = np.array(starts)
        dX = euler(x, COS, dL, 12, 3)
        for i, start in enumerate(starts):
            levels = reference_levels(start, COS, dL[i:i + 1], 12, 3)[0]
            np.testing.assert_array_equal(dX[i], np.diff(levels))
            assert x[i] == levels[-1]

    def test_state_rejects_partial_observation_step(self):
        with pytest.raises(ValueError, match="not a multiple of 4"):
            euler(np.zeros(2), COS, np.zeros((2, 6)), 8, 2)


class TestAddPerturbation:
    """Theorem 3's X = L + Y: levy_statistic_sample adds the increments of a
    deterministic perturbation t -> Y_t to each path's grid increments."""

    def test_zero_identity(self):
        base = levy_statistic_sample(P15, 50, 3, 11, (1.2,))
        out = levy_statistic_sample(P15, 50, 3, 11, (), (1.2,), lambda t: 0.0)
        np.testing.assert_array_equal(out, base)

    def test_linear_shifts_increments(self):
        # Y_t = K t adds K/n to every increment, so at p = 2 the statistic
        # grows by 2 (K/n) L_1 + K^2/n, L_1 the sum of the increments
        K, n, m = 2.5, 50, 3
        (base,) = levy_statistic_sample(P15, n, m, 12, (2.0,))
        (out,) = levy_statistic_sample(P15, n, m, 12, (), (2.0,), lambda t: K * t)
        l1 = grid_rows(P15, n, 12, m).sum(axis=1)
        np.testing.assert_allclose(out - base, 2.0 * K / n * l1 + K**2 / n,
                                   rtol=1e-9, atol=1e-12 * np.max(base))

    def test_lipschitz_perturbation_same_limit_law(self):
        # V_p statistics of L and L + sin(t) agree in law (m=500 blocks)
        params, p, n, m = P15, 1.2, 1000, 500
        (base,) = levy_statistic_sample(params, n, m, 14, (p,))
        (pert,) = levy_statistic_sample(params, n, m, 15, (), (p,), math.sin)
        base -= n * compensator(params, p, n)
        pert -= n * compensator(params, p, n)
        assert two_sample_ks(base, pert) < 1.63 * math.sqrt(2.0 / m)  # level ~0.01


class TestPathSample:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            PathSample(10, 1.0, np.zeros(5))
