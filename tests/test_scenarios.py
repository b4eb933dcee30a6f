"""The scenario statistics run their stream blocks on a thread pool. These
tests are deterministic (fixed seeds, exact comparisons), so they have no
false-failure rate."""

import math
import sys

import numpy as np
import pytest

from stablevar import scenarios
from stablevar.path_sim import DriftSpec
from stablevar.scenarios import levy_statistic_sample, run_scenario, sde_statistic_pairs
from stablevar.stable_law import StableParams

P15 = StableParams(1.5, 1.0)
P075 = StableParams(0.75, 6.35)
COS = DriftSpec("cosine")
M = 13  # prime, so no block size divides it

CASES = {
    "levy": lambda: levy_statistic_sample(P15, 2.0, 60, M, seed=3),
    "levy-perturbed": lambda: levy_statistic_sample(
        P15, 1.0, 60, M, seed=3, compensate=True, perturbation=math.sin),
    "levy-offset": lambda: levy_statistic_sample(P15, 1.0, 60, M, seed=3, stream_offset=M),
    "levy-compensated": lambda: levy_statistic_sample(P15, 1.0, 60, M, seed=3, compensate=True),
    "sde": lambda: sde_statistic_pairs(P075, COS, 1.5, 60, M, seed=4),
}
N = 60  # every case draws 60 increments per stream


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
        # five rows' worth: blocks of 5, 2 and 1 streams, run 1-3 at a time
        monkeypatch.setattr(scenarios, "BLOCK_VALUES", 5 * N)
        monkeypatch.setattr(scenarios, "MIN_ROWS", 1)
        monkeypatch.setattr(scenarios, "_workers", lambda: workers)
        got = CASES[name]()
        for e, g in zip(np.atleast_2d(expected), np.atleast_2d(got)):
            np.testing.assert_array_equal(g, e)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_block_exception_reaches_caller(self, monkeypatch, workers):
        monkeypatch.setattr(scenarios, "BLOCK_VALUES", 2 * N)
        monkeypatch.setattr(scenarios, "MIN_ROWS", 1)
        monkeypatch.setattr(scenarios, "_workers", lambda: workers)
        with pytest.raises(ValueError, match="p must be positive"):
            levy_statistic_sample(P15, 0.0, 60, M, seed=3)
        with pytest.raises(ValueError, match="p must be positive"):
            sde_statistic_pairs(P075, COS, -1.0, 60, M, seed=4)


class TestBlockMemory:
    @pytest.mark.parametrize("rows_worth", [1, 4, 7])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("multiple", [1, 4])  # streams of 15 or 60 steps
    def test_threads_together_hold_block_values(self, monkeypatch, rows_worth, workers,
                                                multiple):
        n = 15 * multiple
        calls = []
        draw = scenarios.levy_increments

        def spy(params, n, streams, *args, **kwargs):
            calls.append((n, [s.stream_index for s in streams]))
            return draw(params, n, streams, *args, **kwargs)

        monkeypatch.setattr(scenarios, "levy_increments", spy)
        monkeypatch.setattr(scenarios, "BLOCK_VALUES", rows_worth * n)
        monkeypatch.setattr(scenarios, "MIN_ROWS", 1)
        monkeypatch.setattr(scenarios, "_workers", lambda: workers)
        for statistic in (
            lambda: sde_statistic_pairs(P075, COS, 1.5, n, M, seed=4),
            lambda: levy_statistic_sample(P15, 1.0, n, M, seed=3),
        ):
            calls.clear()
            statistic()
            # each stream is drawn exactly once
            assert sorted(i for _, idx in calls for i in idx) == list(range(M))
            for n_drawn, idx in calls:
                assert n_drawn == n
                if n * workers <= scenarios.BLOCK_VALUES:
                    assert len(idx) * n * workers <= scenarios.BLOCK_VALUES
                else:
                    assert len(idx) == 1


def record_blocks(monkeypatch, m, n):
    """Run _map_blocks with a fill that only records its blocks; return the
    pool size and the block sizes."""
    pools, sizes = [], []
    pool = scenarios.ThreadPoolExecutor

    def spy(max_workers):
        pools.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(scenarios, "ThreadPoolExecutor", spy)
    scenarios._map_blocks(m, n, lambda lo, hi: sizes.append((lo, hi - lo)))
    (threads,) = pools
    return threads, [size for _, size in sorted(sizes)]


class TestBlockFloor:
    # path_sim.euler pays a fixed cost per block and step under the
    # interpreter lock, so many cores must not shrink the blocks without end

    @pytest.mark.parametrize("rows_worth", [2, 8, 20])
    @pytest.mark.parametrize("workers", [1, 4, 16, 200])
    def test_blocks_keep_min_rows(self, monkeypatch, rows_worth, workers):
        n, m = 15, 40
        monkeypatch.setattr(scenarios, "MIN_ROWS", 3)
        monkeypatch.setattr(scenarios, "BLOCK_VALUES", rows_worth * n)
        monkeypatch.setattr(scenarios, "_workers", lambda: workers)
        threads, sizes = record_blocks(monkeypatch, m, n)
        assert 1 <= threads <= workers
        assert sum(sizes) == m
        for size in sizes:
            assert size * n * threads <= scenarios.BLOCK_VALUES
        # every block but the last holds MIN_ROWS streams, unless
        # BLOCK_VALUES holds fewer
        for size in sizes[:-1]:
            assert size >= min(3, rows_worth)

    @pytest.mark.parametrize("workers", [2, 4, 16, 64])
    def test_verify_sizes_on_many_cores(self, monkeypatch, workers):
        # the verify scenarios draw 2000 streams of 10^4 steps
        monkeypatch.setattr(scenarios, "_workers", lambda: workers)
        threads, sizes = record_blocks(monkeypatch, 2000, 10_000)
        assert threads == min(workers, 4)
        assert min(sizes) >= scenarios.MIN_ROWS
        assert max(sizes) * 10_000 * threads <= scenarios.BLOCK_VALUES


class TestRunScenarioSizes:
    @pytest.mark.parametrize("m, n", [(0, 100), (4, 100), (-5, 100), (5, 0)])
    def test_degenerate_sizes_rejected_before_drawing(self, monkeypatch, m, n):
        def no_blocks(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(scenarios, "_map_blocks", no_blocks)
        for name in scenarios.SCENARIOS:
            with pytest.raises(ValueError, match="m >= 5"):
                run_scenario(name, m=m, n=n)

    def test_smallest_sizes_run(self):
        report = run_scenario("thm1-sub", m=5, n=1)
        assert report.threshold < 1.0


class TestStatisticSizes:
    @pytest.mark.parametrize("n, m, match", [
        (0, 5, "n must be >= 1"), (-2, 5, "n must be >= 1"), (0, -1, "n must be >= 1"),
        (60, -1, "m must be >= 0"),
    ])
    def test_bad_sizes_rejected_before_drawing(self, monkeypatch, n, m, match):
        def no_draws(*args, **kwargs):
            raise AssertionError("a stream was drawn")

        monkeypatch.setattr(scenarios, "levy_increments", no_draws)
        monkeypatch.setattr(scenarios, "_map_blocks", no_draws)
        with pytest.raises(ValueError, match=match):
            levy_statistic_sample(P15, 1.0, n, m, seed=3, compensate=True, perturbation=math.sin)
        with pytest.raises(ValueError, match=match):
            sde_statistic_pairs(P075, COS, 1.5, n, m, seed=4)

    def test_no_streams_give_empty_samples(self):
        assert levy_statistic_sample(P15, 1.0, 60, 0, seed=3, compensate=True).shape == (0,)
        for v in sde_statistic_pairs(P075, COS, 1.5, 60, 0, seed=4):
            assert v.shape == (0,)
