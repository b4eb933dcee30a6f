"""The scenario statistics and simulate's paths run their stream blocks on a
thread pool (path_sim.walk_chunks). These tests are deterministic (fixed
seeds, exact comparisons or comparisons within a fixed rounding tolerance),
so they have no false-failure rate; TestScenarioPower states its own."""

import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from stablevar import path_sim, scenarios
from stablevar.limit_law import limit_scale, sample_limit
from stablevar.path_sim import euler
from stablevar.pvariation import compensator, terminal_pvariation
from stablevar.scenarios import (
    ks_threshold,
    levy_statistic_sample,
    run_scenario,
    sde_statistic_pairs,
    two_sample_ks,
)
from stablevar.stable_law import RandomStream, StableParams, sample_stable

P15 = StableParams(1.5, 1.0)
P075 = StableParams(0.75, 6.35)
COS = np.cos
M = 13  # prime, so no block size divides it

CASES = {
    "levy": lambda: levy_statistic_sample(P15, 60, M, 3, (2.0,)),
    "levy-perturbed": lambda: levy_statistic_sample(
        P15, 60, M, 3, (), (1.0,), math.sin) - 60 * compensator(P15, 1.0, 60),
    "levy-compensated": lambda: levy_statistic_sample(
        P15, 60, M, 3, (1.0,)) - 60 * compensator(P15, 1.0, 60),
    "sde": lambda: sde_statistic_pairs(P075, COS, 1.5, 60, M, seed=4),
    "theorem-sample": lambda: np.array(list(fresh_theorem_sample(3, M, 60).values())),
    "simulate": lambda: path_sim.sde_increments(P075, COS, 20, M, 3, fine=3, x0=0.5),
}
N = 60  # every case draws 60 increments per stream


def fresh_theorem_sample(seed, m, n):
    """_theorem_sample drawn anew, not read from its cache."""
    scenarios._theorem_sample.cache_clear()
    return scenarios._theorem_sample(seed, m, n)


@pytest.fixture(autouse=True)
def clear_theorem_sample():
    # a sample cached by an earlier test would hide the draws a test
    # monkeypatches or counts
    scenarios._theorem_sample.cache_clear()
    yield
    scenarios._theorem_sample.cache_clear()


@pytest.fixture
def fast_switching():
    # threads hand over the interpreter lock far more often than by default
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


class TestBlockPartition:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_independent_of_partition_and_workers(self, monkeypatch, fast_switching,
                                                  name, workers):
        expected = CASES[name]()
        # five rows' worth: blocks of 5, 5 and 3 streams, drawn by pool tasks
        # of 2 streams run 1-3 at a time
        monkeypatch.setattr(path_sim, "CHUNK_VALUES", 5 * N)
        monkeypatch.setattr(path_sim, "TASK_VALUES", 2 * N)
        monkeypatch.setattr(path_sim, "_workers", lambda: workers)
        got = CASES[name]()
        for e, g in zip(np.atleast_2d(expected), np.atleast_2d(got)):
            np.testing.assert_array_equal(g, e)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_block_exception_reaches_caller(self, monkeypatch, workers):
        # a sum that raises in a pool task stops the walk, and its exception
        # reaches the caller
        def failing_sum(*args):
            assert threading.current_thread() is not threading.main_thread()
            raise ValueError("a pool task failed")

        monkeypatch.setattr(path_sim, "CHUNK_VALUES", 2 * N)
        monkeypatch.setattr(path_sim, "_workers", lambda: workers)
        monkeypatch.setattr(scenarios, "log_pvariation", failing_sum)
        monkeypatch.setattr(scenarios, "terminal_pvariation", failing_sum)
        with pytest.raises(ValueError, match="a pool task failed"):
            levy_statistic_sample(P15, 60, M, 3, (1.0,))
        with pytest.raises(ValueError, match="a pool task failed"):
            sde_statistic_pairs(P075, COS, 1.5, 60, M, seed=4)


class TestBlockMemory:
    @pytest.mark.parametrize("rows_worth", [1, 4, 7])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("multiple", [1, 4])  # streams of 15 or 60 steps
    def test_threads_together_hold_block_values(self, monkeypatch, rows_worth, workers,
                                                multiple):
        # both statistics walk one chunk buffer that the threads share, of
        # n-step rows here (n < CHUNK_STEPS), so a block's size does not
        # depend on the number of workers
        n = 15 * multiple
        calls = []
        draw = path_sim.StableDraws

        def spy(law, streams, size):
            calls.append((size, [s.stream_index for s in streams]))
            return draw(law, streams, size)

        monkeypatch.setattr(path_sim, "StableDraws", spy)
        monkeypatch.setattr(path_sim, "_workers", lambda: workers)
        # a stream wider than the buffer is a block of its own
        for held in (rows_worth * n, n - 1):
            monkeypatch.setattr(path_sim, "CHUNK_VALUES", held)
            for statistic in (
                lambda: sde_statistic_pairs(P075, COS, 1.5, n, M, seed=4),
                lambda: levy_statistic_sample(P15, n, M, 3, (1.0,)),
            ):
                calls.clear()
                statistic()
                # each stream is drawn exactly once
                assert sorted(i for _, idx in calls for i in idx) == list(range(M))
                for size, idx in calls:
                    assert size == n
                    assert len(idx) <= max(1, held // n)


    def test_blocks_hold_at_most_block_streams(self, monkeypatch):
        # at n = 1 the chunk buffer has room for CHUNK_VALUES = 10^6 streams;
        # a block makes the generators of at most BLOCK_STREAMS of them
        m, cap = 2 * path_sim.BLOCK_STREAMS + 1, path_sim.BLOCK_STREAMS
        blocks = []
        draw = path_sim.StableDraws

        def spy(law, streams, size):
            blocks.append(len(streams))
            return draw(law, streams, size)

        monkeypatch.setattr(path_sim, "StableDraws", spy)
        for statistic in (
            lambda: sde_statistic_pairs(P075, COS, 1.5, 1, m, seed=4),
            lambda: levy_statistic_sample(P15, 1, m, 3, (1.0,)),
            lambda: path_sim.sde_increments(P075, COS, 1, m, 4),
        ):
            blocks.clear()
            statistic()
            assert blocks == [cap, cap, 1]

    def test_walk_takes_the_grid_law_once(self, monkeypatch):
        # a walk of three blocks, with a drift or without, takes the law of
        # its grid increments once, not once per block
        m, laws = 2 * path_sim.BLOCK_STREAMS + 1, []
        grid_law = path_sim._grid_law

        def spy(*args):
            laws.append(args)
            return grid_law(*args)

        monkeypatch.setattr(path_sim, "_grid_law", spy)
        for walk in (lambda: path_sim.walk_chunks(P075, 1, m, 4, drift=COS, fine=2),
                     lambda: path_sim.walk_chunks(P15, 1, m, 3, lambda *args: None)):
            laws.clear()
            walk()
            assert len(laws) == 1


class TestTheoremSample:
    # thm1-sub, thm1-comp and thm3-lipschitz read one sample of the
    # S_1.5(1, 0, 0) streams 0 .. m - 1

    @pytest.mark.parametrize("seed, m, n", [(5, 7, 300), (6, 203, 10_000)])
    def test_rows_equal_the_statistic_samples(self, seed, m, n):
        # the compensated statistics the three scenarios drew each on their own
        sample = scenarios._theorem_sample(seed, m, n)
        assert set(sample) == {"thm1-sub", "thm1-comp", "thm3-lipschitz"}
        np.testing.assert_array_equal(
            sample["thm1-sub"], levy_statistic_sample(P15, n, m, seed, (2.0,))[0])
        np.testing.assert_array_equal(
            sample["thm1-comp"],
            levy_statistic_sample(P15, n, m, seed, (1.0,))[0] - n * compensator(P15, 1.0, n))
        np.testing.assert_array_equal(
            sample["thm3-lipschitz"],
            levy_statistic_sample(P15, n, m, seed, (), (1.5,), math.sin)[0]
            - n * compensator(P15, 1.5, n))

    def test_statistics_follow_the_scenario_definitions(self):
        # each scenario written out on its own: its p, compensation, path
        # and reference sample
        seed, m, n = 4, 101, 300
        limit = lambda p: sample_limit(P15, p, RandomStream(seed, m), size=m)
        (sub,) = levy_statistic_sample(P15, n, m, seed, (2.0,))
        (comp,) = levy_statistic_sample(P15, n, m, seed, (1.0,))
        (lipschitz,) = levy_statistic_sample(P15, n, m, seed, (), (1.5,), math.sin)
        expected = {
            "thm1-sub": two_sample_ks(sub, limit(2.0)),
            "thm1-comp": two_sample_ks(comp - n * compensator(P15, 1.0, n), limit(1.0)),
            "thm3-lipschitz": two_sample_ks(
                lipschitz - n * compensator(P15, 1.5, n), limit(1.5)),
        }
        for name, statistic in expected.items():
            assert run_scenario(name, seed=seed, m=m, n=n).statistic == statistic

    def test_three_scenarios_draw_each_stream_once(self, monkeypatch):
        drawn = []
        draw = path_sim.StableDraws

        def spy(law, streams, size):
            drawn.extend(s.stream_index for s in streams)
            return draw(law, streams, size)

        monkeypatch.setattr(path_sim, "StableDraws", spy)
        for name in ("thm1-sub", "thm1-comp", "thm3-lipschitz"):
            run_scenario(name, seed=3, m=M, n=N)
        # the shared sample's streams 0 .. M - 1, and nothing else
        assert sorted(drawn) == list(range(M))

    def test_rows_are_read_only(self):
        sample = scenarios._theorem_sample(3, M, N)
        for row in sample.values():
            assert row.shape == (M,)
            assert not row.flags.writeable
        with pytest.raises(ValueError):
            sample["thm1-sub"][0] = 0.0
        with pytest.raises(TypeError):
            sample["thm1-sub"] = np.zeros(M)


def ks_level(m, k):
    """P(D >= k/m) for the two-sample KS statistic D of two samples of size m
    under the null, by the Gnedenko-Korolyuk closed form
    2 sum_j (-1)^(j+1) C(2m, m - jk) / C(2m, m), in logs."""
    def log_comb(a, b):
        return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)

    return 2.0 * sum((-1) ** (j + 1) * math.exp(log_comb(2 * m, m - j * k) - log_comb(2 * m, m))
                     for j in range(1, m // k + 1))


class TestKsThreshold:
    def test_closed_form_matches_enumeration(self):
        # under the null every interleaving of the two samples is equally
        # likely, and D depends on the interleaving alone
        m = 6
        counts = Counter()
        for first in itertools.combinations(range(2 * m), m):
            second = sorted(set(range(2 * m)) - set(first))
            counts[round(two_sample_ks(first, second) * m)] += 1
        for k in range(1, m + 1):
            tail = sum(c for d, c in counts.items() if d >= k) / math.comb(2 * m, m)
            assert math.isclose(ks_level(m, k), tail, rel_tol=1e-12)

    @pytest.mark.parametrize("m, level", [(5, 0.0079), (50, 0.0115), (200, 0.0163), (2000, 0.0181)])
    def test_exact_level(self, m, level):
        # a scenario fails when D = k/m is at or above the threshold
        k = math.ceil(m * ks_threshold(m))
        assert (k - 1) / m < ks_threshold(m) <= k / m
        assert round(ks_level(m, k), 4) == level


class TestScenarioPower:
    """A known defect must fail a scenario: thm3-lipschitz (p = alpha)
    against the mirror image of its limit law, beta flipped. At m = 500,
    n = 1000, seeds 1-3, the true law gave D = 0.040-0.062 and the mirrored
    one 0.278-0.300, against a threshold of 0.0961. Under the null each case
    fails its first assertion with probability 0.0164 (TestKsThreshold's
    closed form at m = 500); the seeds are fixed, so the outcome is
    deterministic."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mirrored_limit_law_fails(self, monkeypatch, seed):
        m, n = 500, 1000
        assert run_scenario("thm3-lipschitz", seed=seed, m=m, n=n).passed

        def mirrored(params, p, stream, size):
            law = limit_scale(params, p)
            return sample_stable(dataclasses.replace(law, beta=-law.beta), stream, size)

        monkeypatch.setattr(scenarios, "sample_limit", mirrored)
        assert not run_scenario("thm3-lipschitz", seed=seed, m=m, n=n).passed


class TestBlockPeak:
    @pytest.mark.parametrize("statistic", [
        lambda m, n: sde_statistic_pairs(P075, COS, 1.5, n, m, seed=4),
        lambda m, n: levy_statistic_sample(P15, n, m, 3, (), (1.0,), math.sin),
        lambda m, n: scenarios._theorem_sample(3, m, n),
    ], ids=["sde", "levy-perturbed", "theorem-sample"])
    def test_block_holds_two_arrays_of_its_size(self, monkeypatch, statistic):
        # one block on one thread holds its increments in the chunk buffer
        # and one |x|^p buffer of a task's size at a time, plus per-task CMS
        # scratch; here a task draws one stream. cor-sde's chunk buffer holds
        # CHUNK_STEPS steps per stream (TestSdePeak).
        m, n = 40, 2000
        monkeypatch.setattr(path_sim, "CHUNK_VALUES", m * n)
        monkeypatch.setattr(path_sim, "TASK_VALUES", n)
        monkeypatch.setattr(path_sim, "_workers", lambda: 1)
        tracemalloc.start()
        try:
            statistic(m, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * m * n * 8

    @pytest.mark.parametrize("workers", [1, 3])
    def test_theorem_sample_peak_does_not_grow_with_workers(self, monkeypatch, workers):
        # one chunk buffer that the threads share, and two CMS scratch arrays
        # of a task's size for each of at most three tasks running at once.
        # The bound allows two more per task: they cover the |x|^p buffer,
        # the perturbation's increments dY, the block's generators and the
        # pool's futures.
        m, n = 60, 4000
        monkeypatch.setattr(path_sim, "CHUNK_VALUES", 20 * n)
        monkeypatch.setattr(path_sim, "TASK_VALUES", 2 * n)
        monkeypatch.setattr(path_sim, "_workers", lambda: workers)
        tracemalloc.start()
        try:
            scenarios._theorem_sample(3, m, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk, task = 20 * n * 8, 2 * n * 8
        assert peak < chunk + 3 * 4 * task


class TestSdePeak:
    def test_peak_does_not_grow_with_n(self):
        # cor-sde holds one chunk buffer of CHUNK_STEPS steps per stream and
        # per-task scratch, whatever n is
        m, width = 40, path_sim.CHUNK_STEPS
        peaks = []
        for n in (2 * width, 20 * width):
            tracemalloc.start()
            try:
                sde_statistic_pairs(P075, COS, 1.5, n, m, seed=4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]
        # under a quarter of the m rows of 20 * CHUNK_STEPS increments
        assert peaks[1] < m * 20 * width * 8 / 4


def record_chunks(monkeypatch, m, n):
    """Run sde_statistic_pairs with draws, Euler and sums stubbed out; return
    the pool size and the (rows, steps) of each euler call."""
    pools, chunks = [], []
    pool = path_sim.ThreadPoolExecutor

    class NoDraws:
        def fill(self, out, lo=0):
            pass

    def spy(max_workers):
        pools.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(path_sim, "ThreadPoolExecutor", spy)
    monkeypatch.setattr(path_sim, "StableDraws", lambda law, streams, size: NoDraws())
    monkeypatch.setattr(path_sim, "euler", lambda x, drift, dL, *args, **kwargs: chunks.append(dL.shape))
    monkeypatch.setattr(scenarios, "terminal_pvariation", lambda dL, p: np.zeros(len(dL)))
    sde_statistic_pairs(P075, COS, 1.5, n, m, seed=4)
    (threads,) = pools
    return threads, chunks


class TestBlockFloor:
    # path_sim.euler pays a fixed cost per step and call under the
    # interpreter lock, so cor-sde steps blocks of CHUNK_VALUES // CHUNK_STEPS
    # streams, whatever the number of cores

    @pytest.mark.parametrize("rows_worth", [2, 8, 20])
    @pytest.mark.parametrize("workers", [1, 4, 16, 200])
    def test_blocks_keep_min_rows(self, monkeypatch, rows_worth, workers):
        width = path_sim.CHUNK_STEPS
        m, n = 40, 2 * width + 3
        monkeypatch.setattr(path_sim, "CHUNK_VALUES", rows_worth * width)
        monkeypatch.setattr(path_sim, "_workers", lambda: workers)
        threads, chunks = record_chunks(monkeypatch, m, n)
        assert threads == workers
        rows = [min(rows_worth, m - lo) for lo in range(0, m, rows_worth)]
        # each block walks two full chunks and a partial one
        assert chunks == [(r, steps) for r in rows for steps in (width, width, 3)]

    @pytest.mark.parametrize("workers", [2, 4, 16, 64])
    def test_verify_sizes_on_many_cores(self, monkeypatch, workers):
        # the verify scenarios draw 2000 streams of 10^4 steps: two blocks of
        # 1000 streams, each stepped in 10 chunks of 1000 steps
        monkeypatch.setattr(path_sim, "_workers", lambda: workers)
        threads, chunks = record_chunks(monkeypatch, 2000, 10_000)
        assert threads == workers
        assert chunks == [(1000, 1000)] * 20
        assert 1000 * path_sim.CHUNK_STEPS <= path_sim.CHUNK_VALUES


class TestSdeStreams:
    # stream i's pair is a function of (seed, i) alone

    def test_pair_independent_of_m_threads_and_grouping(self, monkeypatch, fast_switching):
        # three chunks, the last partial, n neither a multiple of 4 nor of
        # CHUNK_STEPS
        n = 2 * path_sim.CHUNK_STEPS + 203
        expected = np.array(sde_statistic_pairs(P075, COS, 1.5, n, M, seed=4))
        for m in (1, 6):
            np.testing.assert_array_equal(
                sde_statistic_pairs(P075, COS, 1.5, n, m, seed=4), expected[:, :m])
        for workers, rows_worth, task_rows in ((1, 13, 64), (3, 5, 2), (2, 1, 1), (4, 4, 3)):
            monkeypatch.setattr(path_sim, "_workers", lambda: workers)
            monkeypatch.setattr(path_sim, "CHUNK_VALUES", rows_worth * path_sim.CHUNK_STEPS)
            monkeypatch.setattr(path_sim, "TASK_VALUES", task_rows * path_sim.CHUNK_STEPS)
            np.testing.assert_array_equal(
                sde_statistic_pairs(P075, COS, 1.5, n, M, seed=4), expected)

    @pytest.mark.parametrize("n", [60, 2 * path_sim.CHUNK_STEPS + 203])
    def test_pair_matches_one_full_row_draw(self, n):
        # the chunk sums add up to the sums over each full row to within
        # rounding: 1e-13 relative bounds the error of adding at most a few
        # dozen non-negative partial sums. At n <= CHUNK_STEPS they are equal.
        v_sde, v_levy = sde_statistic_pairs(P075, COS, 1.5, n, M, seed=4)
        # each row one sample_stable draw of the grid-increment law
        step = dataclasses.replace(P075, scale_C=P075.scale_C * n ** (-1.0 / P075.alpha))
        dL = np.array([sample_stable(step, RandomStream(4, i), n) for i in range(M)])
        dX = np.empty_like(dL)
        euler(np.zeros(M), COS, dL, 1.0 / n, 1, dX)
        np.testing.assert_allclose(v_levy, terminal_pvariation(dL, 1.5), rtol=1e-13, atol=0)
        np.testing.assert_allclose(v_sde, terminal_pvariation(dX, 1.5), rtol=1e-13, atol=0)
        if n <= path_sim.CHUNK_STEPS:
            np.testing.assert_array_equal(v_levy, terminal_pvariation(dL, 1.5))
            np.testing.assert_array_equal(v_sde, terminal_pvariation(dX, 1.5))


class TestLevyRows:
    def test_row_equals_one_full_row_draw(self):
        # a walk without a drift takes each row whole, however many
        # CHUNK_STEPS it spans: one fill and one pairwise sum per row
        n = 2 * path_sim.CHUNK_STEPS + 3
        step = dataclasses.replace(P15, scale_C=n ** (-1.0 / P15.alpha))
        dL = np.array([sample_stable(step, RandomStream(3, i), n) for i in range(M)])
        out = levy_statistic_sample(P15, n, M, 3, (1.0, 2.0))
        for row, p in zip(out, (1.0, 2.0)):
            np.testing.assert_array_equal(row, terminal_pvariation(dL, p))

    def test_one_log_per_task_for_the_unshifted_exponents(self, monkeypatch):
        # each pool task takes log|dL| of its rows once for every p in ps,
        # and not at all without one; the shifted rows take their own
        rows = []
        log_abs = scenarios.log_abs
        monkeypatch.setattr(scenarios, "log_abs", lambda dL: rows.append(len(dL)) or log_abs(dL))
        monkeypatch.setattr(path_sim, "TASK_VALUES", 2 * 60)
        out = levy_statistic_sample(P15, 60, M, 3, (1.0, 2.0), (1.5,), math.sin)
        assert sorted(rows, reverse=True) == [2] * (M // 2) + [1]
        rows.clear()
        np.testing.assert_array_equal(
            levy_statistic_sample(P15, 60, M, 3, (), (1.5,), math.sin)[0], out[2])
        assert rows == []


def no_draws(*args, **kwargs):
    raise AssertionError("a stream was drawn")


class TestRunScenarioSizes:
    @pytest.mark.parametrize("m, n", [(0, 100), (4, 100), (-5, 100), (5, 0)])
    def test_degenerate_sizes_rejected_before_drawing(self, monkeypatch, m, n):
        def no_blocks(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(path_sim, "_map_rows", no_blocks)
        for name in scenarios.SCENARIOS:
            with pytest.raises(ValueError, match="m >= 5"):
                run_scenario(name, m=m, n=n)

    @pytest.mark.parametrize("m, n", [
        (scenarios.MAX_PATHS + 1, 10), (10**12, 10), (5, scenarios.MAX_STEPS + 1), (5, 10**14),
    ])
    def test_oversized_sizes_rejected_before_drawing(self, monkeypatch, m, n):
        monkeypatch.setattr(scenarios, "levy_statistic_sample", no_draws)
        monkeypatch.setattr(scenarios, "sde_statistic_pairs", no_draws)
        for name in scenarios.SCENARIOS:
            with pytest.raises(ValueError, match="at most MAX_PATHS"):
                run_scenario(name, m=m, n=n)

    @pytest.mark.parametrize("m, n", [(2000, 10**4), (203, 20003)])
    def test_bounds_admit_benchmark_and_ci_sizes(self, m, n):
        scenarios.check_sizes(m, n)
        scenarios.check_sizes(scenarios.MAX_PATHS, scenarios.MAX_STEPS)

    def test_smallest_sizes_run(self):
        report = run_scenario("thm1-sub", m=5, n=1)
        assert report.threshold < 1.0


class TestStatisticSizes:
    @pytest.mark.parametrize("n, m, fine, match", [
        (0, 5, 1, "n must be >= 1"), (-2, 5, 1, "n must be >= 1"), (0, -1, 1, "n must be >= 1"),
        (60, -1, 1, "m must be >= 0"), (10, -2, 1, "m must be >= 0"), (5, -3, 1, "m must be >= 0"),
        (10, 3, 0, "fine must be >= 1"), (-5, 3, -1, "n must be >= 1"),
    ])
    def test_bad_sizes_rejected_before_drawing(self, monkeypatch, n, m, fine, match):
        monkeypatch.setattr(path_sim, "StableDraws", no_draws)
        monkeypatch.setattr(path_sim, "_map_rows", no_draws)
        walks = [lambda: path_sim.sde_increments(P075, COS, n, m, 0, fine=fine),
                 lambda: path_sim.walk_chunks(P075, n, m, 0, lambda *args: None, fine=fine)]
        if fine == 1:
            walks += [lambda: levy_statistic_sample(P15, n, m, 3, (), (1.0,), math.sin),
                      lambda: sde_statistic_pairs(P075, COS, 1.5, n, m, seed=4)]
        for walk in walks:
            with pytest.raises(ValueError, match=match):
                walk()

    @pytest.mark.parametrize("p", [math.nan, 0.0, -1.0, math.inf])
    def test_bad_exponents_rejected_before_drawing(self, monkeypatch, p):
        monkeypatch.setattr(path_sim, "StableDraws", no_draws)
        for ps, shifted_ps in [((p,), ()), ((), (p,)), ((1.0, p), (1.5,)), ((1.0,), (p,))]:
            with pytest.raises(ValueError, match="p must be positive and finite"):
                levy_statistic_sample(P15, 60, M, 3, ps, shifted_ps, math.sin)
        with pytest.raises(ValueError, match="p must be positive and finite"):
            sde_statistic_pairs(P075, COS, p, 60, M, seed=4)

    def test_no_streams_give_empty_samples(self):
        out = levy_statistic_sample(P15, 60, 0, 3, (1.0,)) - 60 * compensator(P15, 1.0, 60)
        assert out.shape == (1, 0)
        for v in sde_statistic_pairs(P075, COS, 1.5, 60, 0, seed=4):
            assert v.shape == (0,)
