"""Convergence-test scenarios: simulate batches of paths, form the
(compensated) terminal p-variation sample, and compare it against draws from
the limiting stable law with a two-sample KS test."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from stablevar.limit_law import sample_limit
from stablevar.path_sim import walk_chunks
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


def ks_threshold(m: int) -> float:
    """Rejection threshold 1.52 sqrt(2/m) for two samples of size m. Under the
    null, D >= threshold has exact level 0.0079, 0.0115, 0.0163 and 0.0181 at
    m = 5, 50, 200 and 2000 (Gnedenko-Korolyuk), 0.0197 as m -> infinity."""
    return 1.52 * math.sqrt(2.0 / m)


CHUNK_STEPS = 1000
"""Steps that sde_statistic_pairs, and simulate in whole observation steps,
draw and Euler-step at once for a block of streams. It is fixed, so the row
sums, added chunk by chunk, do not depend on m or the thread count. At
m = 2000, n = 10^4 chunks of 500 or 2000 steps made cor-sde 20-25% and 15%
slower (2-vCPU x86-64)."""


def _check_stream_sizes(n: int, m: int) -> None:
    """Raise ValueError unless the statistic functions can draw m >= 0
    streams of n >= 1 steps."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got n={n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got m={m}")


def levy_statistic_sample(
    params: StableParams,
    n: int,
    m: int,
    seed: int,
    ps: tuple[float, ...],
    shifted_ps: tuple[float, ...] = (),
    perturbation=None,
) -> np.ndarray:
    """Draw streams 0 .. m - 1 of n grid increments dL each, block by block,
    and return one row of m values per exponent: V_p^n(L)_1 = sum |dL|^p for
    each p in ps, then V_p^n(L + Y)_1 = sum |dL + dY|^p for each p in
    shifted_ps, where dY holds the increments of the callable perturbation
    t -> Y_t on the grid. The blocks are walked in one chunk of the full
    width n, so each row is drawn in one fill and summed in one pairwise
    sum. Raises ValueError, before drawing, unless n >= 1 and m >= 0."""
    _check_stream_sizes(n, m)
    if shifted_ps:
        t = np.arange(n + 1) / n
        dY = np.diff(np.asarray([perturbation(tt) for tt in t], dtype=float))
    out = np.empty((len(ps) + len(shifted_ps), m))

    def sums(dL, lo, hi):
        for k, p in enumerate(ps):
            out[k, lo:hi] = terminal_pvariation(dL, p)
        if shifted_ps:
            dL += dY
        for k, p in enumerate(shifted_ps, len(ps)):
            out[k, lo:hi] = terminal_pvariation(dL, p)

    walk_chunks(params, n, m, seed, n, sums)
    return out


_THEOREM_PARAMS = StableParams(1.5, 1.0, 0.0)
_THEOREM_SCENARIOS = {
    # name: (p, whether Y_t = sin(t) is added to the path)
    "thm1-sub": (2.0, False),  # p > alpha: subordinator limit
    "thm1-comp": (1.0, False),  # alpha/2 < p < alpha: compensated statistic
    "thm3-lipschitz": (1.5, True),  # p = alpha: a Lipschitz Y leaves the limit unchanged
}
"""The scenarios that read the shared sample of S_1.5(1, 0, 0) streams and
test it against sample_limit."""


@functools.lru_cache(maxsize=1)
def _theorem_sample(seed: int, m: int, n: int) -> MappingProxyType:
    """A read-only mapping from each scenario in _THEOREM_SCENARIOS to its
    compensated statistic V_p^n - n B_n(alpha, p), a read-only row computed
    from one draw of streams 0 .. m - 1 of n grid increments: sum |dL|^p, or
    sum |dL + dY|^p with dY the increments of Y = sin on the grid. B_n is 0
    for p > alpha, which leaves that row's bits as drawn. The scenarios draw
    the streams once instead of once each, but a process that runs only one
    of them computes every row."""
    plain = [name for name, (_, shifted) in _THEOREM_SCENARIOS.items() if not shifted]
    shifted = [name for name, (_, shifted) in _THEOREM_SCENARIOS.items() if shifted]
    names = plain + shifted
    out = levy_statistic_sample(
        _THEOREM_PARAMS, n, m, seed,
        tuple(_THEOREM_SCENARIOS[name][0] for name in plain),
        tuple(_THEOREM_SCENARIOS[name][0] for name in shifted),
        math.sin,
    )
    for name, row in zip(names, out):
        row -= n * compensator(_THEOREM_PARAMS, _THEOREM_SCENARIOS[name][0], n)
    out.flags.writeable = False
    return MappingProxyType(dict(zip(names, out)))


def sde_statistic_pairs(
    params: StableParams, drift, p: float, n: int, m: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-stream pairs (V_p^n(X)_1, V_p^n(L)_1) where L is the stable Levy
    path on the grid of spacing 1/n and X the Euler solution from X_0 = 0
    with the vectorized drift f(x), driven by the same grid increments.

    walk_chunks walks the streams in chunks of CHUNK_STEPS steps and adds
    each row's sums of |dL|^p and |dX|^p over a chunk to its totals. Over
    n > CHUNK_STEPS steps these sums of chunk sums differ from one pairwise
    sum over the row only in the last bits."""
    _check_stream_sizes(n, m)
    v_sde = np.zeros(m)
    v_levy = np.zeros(m)

    def add_levy_sums(dL, lo, hi):
        v_levy[lo:hi] += terminal_pvariation(dL, p)

    def add_sde_sums(dX, lo, hi):
        v_sde[lo:hi] += terminal_pvariation(dX, p)

    walk_chunks(params, n, m, seed, min(n, CHUNK_STEPS), add_levy_sums, drift, add_sde_sums)
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


MAX_PATHS = 2_000_000
"""The most paths a scenario runs. A run holds O(m) arrays: the statistic
rows or pairs, the reference draws and the KS test's sorted and searched
copies. Beside them it holds one chunk buffer, 8 MB at most, and the
generators of one block of at most path_sim.BLOCK_STREAMS streams, about
0.84 MB. At n = 1, max RSS grew by 110 bytes a path for cor-sde and 125 for
thm1-sub from m = 10^5 to 3 x 10^5 (800 before blocks were capped), so a
run at this bound holds about 0.25 GB."""

MAX_STEPS = 25_000_000
"""The most steps per path, about 1.4 GB here. At n > path_sim.CHUNK_VALUES the
Theorem walk holds one row of n increments, with its CMS and |x|^p scratch,
n values each. The perturbation Y = sin is sampled on the n + 1 grid points
as a Python list (about 32 bytes a point), which then becomes arrays. At
m = 5, peak memory grew by 54 bytes a step from n = 2 x 10^6 to 6 x 10^6."""


def check_sizes(m: int, n: int) -> None:
    """Raise ValueError unless a scenario can run m paths of n steps: from
    MIN_PATHS to MAX_PATHS paths, from 1 to MAX_STEPS steps."""
    if not (MIN_PATHS <= m <= MAX_PATHS and 1 <= n <= MAX_STEPS):
        raise ValueError(
            f"a scenario needs m >= {MIN_PATHS} paths and n >= 1 steps, and at most "
            f"MAX_PATHS = {MAX_PATHS} paths of MAX_STEPS = {MAX_STEPS} steps, got m={m}, n={n}"
        )


def run_scenario(name: str, seed: int = 1, m: int = 2000, n: int = 10000) -> ScenarioReport:
    """Run one named convergence scenario and report the two-sample KS
    statistic against its threshold. An unknown name raises KeyError; sizes
    that check_sizes rejects raise ValueError before any path is drawn."""
    if name not in SCENARIOS:
        raise KeyError(name)
    check_sizes(m, n)
    thr = ks_threshold(m)
    if name in _THEOREM_SCENARIOS:
        # Theorems 1 and 3: the compensated statistic against its limit law
        p, _ = _THEOREM_SCENARIOS[name]
        stats = _theorem_sample(seed, m, n)[name]
        ref = sample_limit(_THEOREM_PARAMS, p, RandomStream(seed, m), size=m)
    else:
        # cor-sde: cosine-drift SDE vs the pure Levy path from the same streams
        params, p = StableParams(0.75, 6.35, 0.0), 1.5
        stats, ref = sde_statistic_pairs(params, np.cos, p, n, m, seed)
    return ScenarioReport(name, two_sample_ks(stats, ref), thr)


SCENARIOS = ("thm1-sub", "thm1-comp", "thm3-lipschitz", "cor-sde")
