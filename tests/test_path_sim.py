import math

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest, levy_stable, norm

from stablevar.path_sim import (
    DriftSpec,
    PathSample,
    levy_increments,
    simulate_levy,
    simulate_sde_batch,
)
from stablevar.pvariation import terminal_pvariation
from stablevar.scenarios import (
    ks_threshold,
    levy_statistic_sample,
    sde_statistic_pairs,
    two_sample_ks,
)
from stablevar.stable_law import RandomStream, StableParams

P075 = StableParams(0.75, 6.35)
P2 = StableParams(2.0, 1.0)
P15 = StableParams(1.5, 1.0)
P1_SKEWED = StableParams(1.0, 1.0, 0.8)


class TestSimulateLevy:
    def test_grid_shape(self):
        path = simulate_levy(P075, 4, 1.0, RandomStream(0))
        assert len(path.values) == 5
        assert path.values[0] == 0.0
        assert (path.n, path.horizon_T) == (4, 1.0)

    def test_gaussian_increments(self):
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
        streams = [RandomStream(17, i) for i in range(3)]
        inc = levy_increments(P075, 40, streams, T=1.5)
        assert inc.shape == (3, 60)
        np.testing.assert_array_equal(inc[1], levy_increments(P075, 40, streams[1:2], T=1.5)[0])

    def test_alpha_one_skewed_grid_sums_have_law_of_l1(self, monkeypatch):
        # the n grid increments of [0, 1] sum to L_1 ~ S_1(2, 0.7, 0). Reference:
        # scipy's S1 law with beta negated (its alpha = 1 log term has the
        # opposite sign). Level 0.01 on a fixed seed: 1% false-failure chance.
        monkeypatch.setattr(levy_stable, "parameterization", "S1")
        streams = [RandomStream(19, i) for i in range(2000)]
        sums = levy_increments(StableParams(1.0, 2.0, 0.7), 500, streams).sum(axis=1)
        assert kstest(sums, lambda v: levy_stable.cdf(v, 1.0, -0.7, scale=2.0)).pvalue > 0.01

    def test_alpha_one_skewed_statistic_matches_path(self):
        # at alpha = 1, beta != 0 the statistic sample and simulate_levy take
        # the same grid increments from levy_increments
        n, p = 100, 1.5
        stat = levy_statistic_sample(P1_SKEWED, p, n, 1, seed=4)
        path = simulate_levy(P1_SKEWED, n, 1.0, RandomStream(4, 0))
        np.testing.assert_allclose(stat[0], terminal_pvariation(path.increments(), p), rtol=1e-12)

    def test_alpha_one_skewed_sde_pairs_levy_side_matches_path(self):
        # the Levy side of the pairs row-sums the fine increments, so it matches
        # simulate_levy on the fine grid observed on the coarse one
        n, p, mult, m = 50, 1.5, 4, 3
        _, v_levy = sde_statistic_pairs(
            P1_SKEWED, DriftSpec("zero"), p, n, m, seed=6, fine_multiplier=mult
        )
        expected = [
            terminal_pvariation(
                np.diff(simulate_levy(P1_SKEWED, n * mult, 1.0, RandomStream(6, i)).values[::mult]), p
            )
            for i in range(m)
        ]
        np.testing.assert_allclose(v_levy, expected, rtol=1e-12)


class TestSimulateSde:
    def test_zero_drift_bitwise_reduction(self):
        stream = RandomStream(5)
        sde = simulate_sde_batch(0.0, DriftSpec("zero"), P075, 1600, 100, 1.0, [stream])[0]
        levy = simulate_levy(P075, 1600, 1.0, stream).values[::16]
        np.testing.assert_array_equal(sde, levy)

    def test_rejects_incompatible_grids(self):
        with pytest.raises(ValueError):
            simulate_sde_batch(0.0, DriftSpec("zero"), P075, 150, 100, 1.0, [RandomStream(6)])

    def test_bounded_drift_pointwise_bound(self):
        # |f| <= 1 for f = cos implies |X - (x0 + L)| <= T on the grid
        stream = RandomStream(7)
        sde = simulate_sde_batch(1.0, DriftSpec("cosine"), P075, 800, 100, 2.0, [stream])[0]
        levy = simulate_levy(P075, 800, 2.0, stream).values[::8]
        assert np.max(np.abs(sde - (1.0 + levy))) <= 2.0 + 1e-12

    def test_batch_matches_scalar_path(self):
        streams = [RandomStream(8, i) for i in range(3)]
        batch = simulate_sde_batch(0.5, DriftSpec("cosine"), P075, 400, 100, 1.0, streams)
        for i, s in enumerate(streams):
            single = simulate_sde_batch(0.5, DriftSpec("cosine"), P075, 400, 100, 1.0, [s])[0]
            np.testing.assert_allclose(batch[i], single, rtol=1e-12, atol=1e-12)

    def test_refinement_consistency_in_law(self):
        # doubling the fine grid leaves the coarse-grid terminal law unchanged
        streams_a = [RandomStream(9, i) for i in range(1000)]
        streams_b = [RandomStream(10, i) for i in range(1000)]
        a = simulate_sde_batch(0.0, DriftSpec("cosine"), P075, 400, 100, 1.0, streams_a)
        b = simulate_sde_batch(0.0, DriftSpec("cosine"), P075, 800, 100, 1.0, streams_b)
        assert ks_2samp(a[:, -1], b[:, -1]).pvalue > 0.01


class TestAddPerturbation:
    """Theorem 3's X = L + Y: levy_statistic_sample adds the increments of a
    deterministic perturbation t -> Y_t to each path's grid increments."""

    def test_zero_identity(self):
        base = levy_statistic_sample(P15, 1.2, 50, 3, seed=11)
        out = levy_statistic_sample(P15, 1.2, 50, 3, seed=11, perturbation=lambda t: 0.0)
        np.testing.assert_array_equal(out, base)

    def test_linear_shifts_increments(self):
        # Y_t = K t adds K/n to every increment, so at p = 2 the statistic
        # grows by 2 (K/n) L_1 + K^2/n, L_1 the sum of the increments
        K, n, m = 2.5, 50, 3
        base = levy_statistic_sample(P15, 2.0, n, m, seed=12)
        out = levy_statistic_sample(P15, 2.0, n, m, seed=12, perturbation=lambda t: K * t)
        l1 = levy_increments(P15, n, [RandomStream(12, i) for i in range(m)]).sum(axis=1)
        np.testing.assert_allclose(out - base, 2.0 * K / n * l1 + K**2 / n,
                                   rtol=1e-9, atol=1e-12 * np.max(base))

    def test_lipschitz_perturbation_same_limit_law(self):
        # V_p statistics of L and L + sin(t) agree in law (m=500 blocks)
        params, p, n, m = P15, 1.2, 1000, 500
        base = levy_statistic_sample(params, p, n, m, seed=14, compensate=True)
        pert = levy_statistic_sample(
            params, p, n, m, seed=15, compensate=True, perturbation=math.sin
        )
        assert two_sample_ks(base, pert) < ks_threshold(m, coeff=1.63)  # level ~0.01


class TestPathSample:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            PathSample(10, 1.0, np.zeros(5))
