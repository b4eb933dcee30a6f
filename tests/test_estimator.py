import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import kstest

from stablevar import estimator
from stablevar.estimator import (
    BlockedSeries,
    EstimationError,
    GridConfig,
    KSSurface,
    block_split,
    block_statistics,
    empirical_cdf,
    estimate,
    ks_distance,
    ks_surface,
)
from stablevar.limit_law import limit_scale, ref_cdf_half_stable
from stablevar.path_sim import simulate_levy
from stablevar.stable_law import RandomStream, StableParams, sample_stable


def levy_series(params, n_total, seed):
    return simulate_levy(params, n_total, 1.0, RandomStream(seed)).values[1:]


class TestBlockSplit:
    def test_block_count_with_remainder(self):
        b = block_split(np.arange(850, dtype=float), 200)
        assert (b.m, b.n) == (4, 200)

    def test_square_series(self):
        b = block_split(np.zeros(282 * 282), 282)
        assert (b.m, b.n) == (282, 282)

    def test_partition_reconstruction(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=600).cumsum()
        b = block_split(s, 100)
        rebuilt = s[0] + np.cumsum(b.increments.ravel())
        np.testing.assert_allclose(rebuilt, s[:600], rtol=1e-12, atol=1e-12)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            block_split(np.zeros(150), 100)

    def test_increments_mode(self):
        inc = np.arange(12, dtype=float)
        b = block_split(inc, 4, mode="increments")
        np.testing.assert_array_equal(b.increments, inc.reshape(3, 4))

    def test_demean(self):
        rng = np.random.default_rng(1)
        b = block_split(rng.normal(size=400), 100, mode="increments", demean=True)
        np.testing.assert_allclose(b.increments.mean(axis=1), 0.0, atol=1e-14)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            block_split(np.zeros(400), 100, mode="windows")


class TestBlockStatistics:
    def test_trivial_block(self):
        b = BlockedSeries(2, 3, np.array([[1.0, -2.0, 0.0], [3.0, 0.0, 0.0]]))
        np.testing.assert_allclose(block_statistics(b, 2.0), [5.0, 9.0])

    def test_half_stable_limit_law(self):
        # per-block p-variations of stable increments approach the reference law
        params, p, n, m = StableParams(0.75, 2.0), 1.5, 1000, 800
        inc = np.concatenate(
            [
                simulate_levy(params, n, 1.0, RandomStream(2, i)).increments()
                for i in range(m)
            ]
        )
        stats = block_statistics(block_split(inc, n, mode="increments"), p)
        cp = limit_scale(params, p).scale_C
        res = kstest(stats, lambda v: ref_cdf_half_stable(cp, v))
        assert res.pvalue > 0.01

    def test_rejects_bad_p(self):
        b = BlockedSeries(1, 2, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            block_statistics(b, -1.0)


class TestEmpiricalCdf:
    def test_small_example(self):
        g = empirical_cdf([1.0, 2.0, 3.0])
        assert g(0.5) == 0.0
        assert g(2.0) == pytest.approx(2.0 / 3.0)
        assert g(3.0) == 1.0
        assert g(np.inf) == 1.0

    def test_duplicates(self):
        g = empirical_cdf([1.0, 1.0, 2.0, 2.0])
        assert g(1.0) == 0.5
        assert g(1.5) == 0.5
        assert g(2.0) == 1.0


class TestKsDistance:
    def test_single_value_at_median(self):
        # one observation at any x gives sup distance max(1-F, F); at the
        # median both are 1/2
        c = 2.0
        # find the median of the reference law: F(x) = 1/2 at c / (2 q^2),
        # q the upper-quartile normal point; cheaper to just bisect
        lo, hi = 1e-6, 1e6
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ref_cdf_half_stable(c, mid) < 0.5:
                lo = mid
            else:
                hi = mid
        assert ks_distance([lo], c) == pytest.approx(0.5, abs=1e-6)

    def test_all_mass_off_support(self):
        assert ks_distance([-3.0, -1.0], 1.0) == pytest.approx(1.0)

    def test_true_law_small_distance(self):
        m = 10_000
        cp = 3.0
        draws = sample_stable(StableParams(0.5, cp, 1.0), RandomStream(3), size=m)
        assert ks_distance(draws, cp) < 1.95 / math.sqrt(m)

    def test_matches_brute_force_sup(self):
        rng = np.random.default_rng(4)
        values = rng.gamma(2.0, 2.0, size=200)
        cp = 1.7
        d = ks_distance(values, cp)
        # brute force: dense grid plus both sides of every jump
        xs = np.sort(values)
        grid = np.concatenate([np.linspace(1e-4, xs[-1] * 3.0, 200_001), xs, xs - 1e-12])
        g = empirical_cdf(values)
        brute = np.max(np.abs(g(grid) - ref_cdf_half_stable(cp, grid)))
        assert abs(d - brute) < 1e-6
        assert d >= brute - 1e-12


class TestKsSurface:
    def make_blocked(self, seed=5, m=50, n=200):
        params = StableParams(0.75, 2.0)
        inc = np.concatenate(
            [simulate_levy(params, n, 1.0, RandomStream(seed, i)).increments() for i in range(m)]
        )
        return block_split(inc, n, mode="increments")

    def test_values_in_unit_interval(self):
        surf = ks_surface(self.make_blocked(), np.arange(1.0, 4.0, 0.5), np.arange(1.0, 2.5, 0.25))
        assert np.all((surf.d_values >= 0.0) & (surf.d_values <= 1.0))

    def test_argmin_attains_minimum(self):
        surf = ks_surface(self.make_blocked(), np.arange(1.0, 4.0, 0.5), np.arange(1.0, 2.5, 0.25))
        assert surf.argmin[2] == pytest.approx(float(np.min(surf.d_values)), abs=0.0)

    def test_block_permutation_invariance(self):
        blocked = self.make_blocked()
        perm = np.random.default_rng(6).permutation(blocked.m)
        shuffled = BlockedSeries(blocked.m, blocked.n, blocked.increments[perm])
        c_grid, p_grid = np.arange(1.0, 4.0, 0.5), np.arange(1.0, 2.5, 0.25)
        a = ks_surface(blocked, c_grid, p_grid)
        b = ks_surface(shuffled, c_grid, p_grid)
        np.testing.assert_array_equal(a.d_values, b.d_values)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            ks_surface(self.make_blocked(), [], [1.0])


def loop_local_minima(c_grid, p_grid, d):
    """Reference scan: cells strictly below every neighbor in their clipped
    3x3 window, in row-major order, then sorted by D."""
    minima = []
    for i in range(d.shape[0]):
        for j in range(d.shape[1]):
            neigh = d[max(0, i - 1): i + 2, max(0, j - 1): j + 2]
            if d[i, j] < np.min(neigh[neigh != d[i, j]], initial=np.inf):
                if np.sum(neigh == d[i, j]) == 1:
                    minima.append((float(c_grid[i]), float(p_grid[j]), float(d[i, j])))
    minima.sort(key=lambda t: t[2])
    return minima


# small integer values make ties and plateaus common; 1xk and kx1 grids included
surfaces = st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.integers(0, 3).map(float))
)


class TestGridConfig:
    @pytest.mark.parametrize("kwargs", [
        {"p_step": 0}, {"c_step": -1}, {"p_step": float("nan")},
        {"p_min": 2, "p_max": 1}, {"c_min": 0}, {"c_min": 5.0, "c_max": 5.0},
    ])
    def test_rejects_bad_window(self, kwargs):
        with pytest.raises(ValueError):
            GridConfig(**kwargs)

    @pytest.mark.parametrize("p_max", [4.0, 3.98])
    def test_rejects_p_grid_reaching_four(self, p_max):
        # alpha = p/2 reaches 2; np.arange overshoots 3.98 to 4.000000000000003
        with pytest.raises(ValueError, match="p window"):
            GridConfig(p_max=p_max)

    def test_p_grid_below_four_builds(self):
        assert GridConfig(p_max=3.95).p_grid()[-1] < 4.0


def nearest_value_on_boundary(surf):
    """Reference boundary flag: the grid indices of the argmin's values."""
    i = int(np.argmin(np.abs(surf.c_grid - surf.argmin[0])))
    j = int(np.argmin(np.abs(surf.p_grid - surf.argmin[1])))
    return i in (0, len(surf.c_grid) - 1) or j in (0, len(surf.p_grid) - 1)


class TestLocalMinima:
    @settings(max_examples=300, deadline=None)
    @given(surfaces)
    def test_matches_loop_scan(self, d):
        c_grid = 1.0 + np.arange(d.shape[0])
        p_grid = 0.5 + 0.25 * np.arange(d.shape[1])
        surf = KSSurface.from_values(c_grid, p_grid, d)
        assert surf.local_minima == loop_local_minima(c_grid, p_grid, d)
        assert surf.tie_count == int(np.sum(d == d.min()))
        assert surf.boundary == nearest_value_on_boundary(surf)

    def test_plateau_is_not_a_minimum(self):
        d = np.array([[1.0, 1.0, 2.0], [2.0, 2.0, 0.0]])
        surf = KSSurface.from_values(np.arange(1.0, 3.0), np.arange(1.0, 4.0), d)
        assert surf.local_minima == [(2.0, 3.0, 0.0)]


class TestEstimate:
    def make_blocked(self, params, seed, m=150, n=200):
        inc = np.concatenate(
            [simulate_levy(params, n, 1.0, RandomStream(seed, i)).increments() for i in range(m)]
        )
        return block_split(inc, n, mode="increments")

    def test_constant_series_rejected(self):
        blocked = BlockedSeries(30, 50, np.zeros((30, 50)))
        with pytest.raises(EstimationError, match="zero"):
            estimate(blocked)

    def test_non_finite_increment_rejected(self):
        blocked = self.make_blocked(StableParams(1.0, 1.0), seed=11, m=40)
        blocked.increments[17, 123] = np.nan
        with pytest.raises(EstimationError, match="NaN or infinite"):
            estimate(blocked)

    def test_m_min_guard(self):
        blocked = self.make_blocked(StableParams(0.75, 2.0), seed=7, m=10)
        with pytest.raises(EstimationError):
            estimate(blocked)

    def test_recovers_alpha_and_scale(self):
        params = StableParams(0.75, 6.35)
        blocked = self.make_blocked(params, seed=8)
        res = estimate(blocked)
        assert 0.6 < res.alpha_star < 0.9
        assert 5.0 < res.c_star < 8.0
        assert res.d_min < 0.15
        assert not res.surface.boundary

    def test_scale_equivariance(self):
        lam = 2.0
        params = StableParams(0.9, 1.5)
        blocked = self.make_blocked(params, seed=9, m=80)
        scaled = BlockedSeries(blocked.m, blocked.n, lam * blocked.increments)
        cfg = GridConfig(c_min=0.5, c_max=8.0, c_step=0.05, p_min=1.2, p_max=2.4,
                         p_step=0.05, refine=False)
        cfg2 = GridConfig(c_min=lam * 0.5, c_max=lam * 8.0, c_step=lam * 0.05,
                          p_min=1.2, p_max=2.4, p_step=0.05, refine=False)
        a = estimate(blocked, cfg)
        b = estimate(scaled, cfg2)
        assert b.p_star == pytest.approx(a.p_star, abs=1e-9)
        assert b.c_star == pytest.approx(lam * a.c_star, rel=1e-6)
        assert b.d_min == pytest.approx(a.d_min, abs=1e-9)

    def test_refine_stays_in_window(self):
        # Gaussian data pull Nelder-Mead past the top of the p window, where
        # alpha = p/2 would exceed 2; vertices outside the window score 1.0
        blocked = block_split(np.random.default_rng(0).normal(size=200 * 200), 200,
                              mode="increments")
        cfg = GridConfig(p_max=3.9)
        res = estimate(blocked, cfg)
        assert cfg.p_min <= res.p_star <= cfg.p_max
        assert cfg.c_min <= res.c_star <= cfg.c_max
        assert res.d_min <= res.surface.argmin[2]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_refine_starts_at_surface_minimum(self, monkeypatch, seed):
        # the default p grid ends at 3.6000000000000023, just above p_max; on
        # Gaussian data the surface minimum lies in that top column, and the
        # Nelder-Mead start vertex must score D_min there, not the 1.0 given
        # to points outside the search grids
        blocked = block_split(np.random.default_rng(seed).normal(size=200 * 200), 200,
                              mode="increments")
        minimize = estimator.optimize.minimize
        starts = []

        def spy(fun, x0, **kwargs):
            starts.append(fun(x0))
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(estimator.optimize, "minimize", spy)
        res = estimate(blocked)
        assert res.surface.argmin[1] == res.surface.p_grid[-1] > GridConfig().p_max
        assert starts == [res.surface.argmin[2]]

    def test_boundary_flag_on_gaussian_input(self):
        # Gaussian data pushes p* to the top of a deliberately short p window
        rng = np.random.default_rng(10)
        blocked = block_split(rng.normal(size=80 * 200), 200, mode="increments")
        cfg = GridConfig(p_min=0.8, p_max=1.6, p_step=0.1, c_min=0.5, c_max=5.0,
                         c_step=0.25, refine=False)
        res = estimate(blocked, cfg)
        assert res.surface.boundary
