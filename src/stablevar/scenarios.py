"""Convergence-test scenarios: simulate batches of paths, form the
(compensated) terminal p-variation sample, and compare it against draws from
the limiting stable law with a two-sample KS test."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from stablevar.limit_law import sample_limit
from stablevar.path_sim import DriftSpec, euler, levy_increments
from stablevar.pvariation import compensator, terminal_pvariation
from stablevar.stable_law import RandomStream, StableParams


def two_sample_ks(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |G_a(x) - G_b(x)|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / len(a)
    cdf_b = np.searchsorted(b, both, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_threshold(m: int, coeff: float = 1.52) -> float:
    """Rejection threshold coeff * sqrt(2/m) for two samples of size m
    (coeff 1.52 corresponds to level ~= 0.02)."""
    return coeff * math.sqrt(2.0 / m)


BLOCK_VALUES = 200 * 10_000
"""Grid increments held at once by the statistic functions (16 MB of
float64), shared by all threads: each block draws
max(1, BLOCK_VALUES // (n * workers)) streams of n steps."""

MIN_ROWS = 50
"""The fewest streams a block holds when the pool could use more threads.
path_sim.euler runs a few numpy calls per step for each block, holding
the interpreter lock, so smaller blocks serialise more of it: per 10^4 steps
a block took 39 ms at 1 row, 62 ms at 50 and 139 ms at 200 (2-vCPU x86-64).
So the pool has at most BLOCK_VALUES // (n * MIN_ROWS) threads, and the
threads together still hold BLOCK_VALUES increments."""


def _workers() -> int:
    """Usable cores: the CPU affinity of this process where the platform
    reports it, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_blocks(m: int, n: int, fill) -> None:
    """Call fill(lo, hi) for consecutive blocks of the m streams of n steps, on
    one thread per usable core, up to the threads that keep MIN_ROWS streams
    in a block. Each fill writes its own disjoint slice of the caller's
    outputs, and every stream is a pure function of its index, so the result
    does not depend on the partition or the thread count. The first
    exception raised in a block reaches the caller; blocks not yet started
    are cancelled."""
    workers = max(1, min(_workers(), BLOCK_VALUES // (n * MIN_ROWS)))
    rows = max(1, BLOCK_VALUES // (n * workers))
    los = range(0, m, rows)
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for _ in pool.map(fill, los, [min(lo + rows, m) for lo in los]):
            pass
    finally:
        pool.shutdown(cancel_futures=True)


def _check_stream_sizes(n: int, m: int) -> None:
    """Raise ValueError unless the statistic functions can draw m >= 0
    streams of n >= 1 steps."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got n={n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got m={m}")


def levy_statistic_sample(
    params: StableParams,
    p: float,
    n: int,
    m: int,
    seed: int,
    compensate: bool = False,
    perturbation=None,
    stream_offset: int = 0,
) -> np.ndarray:
    """m values of V_p^n(L)_1 (optionally compensated by n B_n(alpha, p)),
    one per independent stream; perturbation, if given, is a callable t -> Y_t
    added to each path before taking increments."""
    _check_stream_sizes(n, m)
    dY = None
    if perturbation is not None:
        t = np.arange(n + 1) / n
        dY = np.diff(np.asarray([perturbation(tt) for tt in t], dtype=float))
    out = np.empty(m)

    def fill(lo, hi):
        streams = [RandomStream(seed, stream_offset + i) for i in range(lo, hi)]
        dL = levy_increments(params, n, streams)
        if dY is not None:
            dL += dY
        out[lo:hi] = terminal_pvariation(dL, p)

    _map_blocks(m, n, fill)
    if compensate:
        out -= n * compensator(params, p, n)
    return out


def sde_statistic_pairs(
    params: StableParams, drift: DriftSpec, p: float, n: int, m: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-stream pairs (V_p^n(X)_1, V_p^n(L)_1) where L is the stable Levy
    path on the grid of spacing 1/n and X the Euler solution from X_0 = 0
    with the given drift, driven by the same grid increments."""
    _check_stream_sizes(n, m)
    v_sde = np.empty(m)
    v_levy = np.empty(m)

    def fill(lo, hi):
        dL = levy_increments(params, n, [RandomStream(seed, i) for i in range(lo, hi)])
        v_sde[lo:hi] = terminal_pvariation(euler(0.0, drift, dL, n, n), p)
        v_levy[lo:hi] = terminal_pvariation(dL, p)

    _map_blocks(m, n, fill)
    return v_sde, v_levy


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    statistic: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.statistic < self.threshold


MIN_PATHS = 5
"""The fewest paths a scenario runs: below 5 the KS threshold 1.52 sqrt(2/m)
is at least 1.075, above any KS statistic, so the scenario could not fail."""


def check_sizes(m: int, n: int) -> None:
    """Raise ValueError unless a scenario can run m paths of n steps: at
    least MIN_PATHS paths and at least one step."""
    if m < MIN_PATHS or n < 1:
        raise ValueError(
            f"a scenario needs m >= {MIN_PATHS} paths and n >= 1 steps, got m={m}, n={n}"
        )


def run_scenario(name: str, seed: int = 1, m: int = 2000, n: int = 10000) -> ScenarioReport:
    """Run one named convergence scenario and report the two-sample KS
    statistic against its threshold. An unknown name raises KeyError; sizes
    that check_sizes rejects raise ValueError before any path is drawn."""
    if name not in SCENARIOS:
        raise KeyError(name)
    check_sizes(m, n)
    thr = ks_threshold(m)
    if name == "thm1-sub":
        # p > alpha: no compensation, subordinator limit
        params, p = StableParams(1.5, 1.0, 0.0), 2.0
        stats = levy_statistic_sample(params, p, n, m, seed)
        ref = sample_limit(params, p, RandomStream(seed, m), size=m)
    elif name == "thm1-comp":
        # alpha/2 < p < alpha: compensated statistic
        params, p = StableParams(1.5, 1.0, 0.0), 1.0
        stats = levy_statistic_sample(params, p, n, m, seed, compensate=True)
        ref = sample_limit(params, p, RandomStream(seed, m), size=m)
    elif name == "thm3-lipschitz":
        # Lipschitz perturbation Y_t = sin(t) leaves the limit unchanged
        params, p = StableParams(1.5, 1.0, 0.0), 1.0
        stats = levy_statistic_sample(
            params, p, n, m, seed, compensate=True, perturbation=math.sin
        )
        ref = levy_statistic_sample(
            params, p, n, m, seed, compensate=True, stream_offset=m
        )
    else:
        # cor-sde: cosine-drift SDE vs the pure Levy path from the same streams
        params, p = StableParams(0.75, 6.35, 0.0), 1.5
        stats, ref = sde_statistic_pairs(params, DriftSpec("cosine"), p, n, m, seed)
    return ScenarioReport(name, two_sample_ks(stats, ref), thr)


SCENARIOS = ("thm1-sub", "thm1-comp", "thm3-lipschitz", "cor-sde")
