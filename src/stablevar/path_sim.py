"""Uniform-grid sample paths of X_t = x + int_0^t f(X_s) ds + L_t: one law
of stable Levy grid increments (_grid_law), one vectorized Euler kernel
(euler), and one walk over blocks of streams and chunks of steps
(walk_chunks) that draws and Euler-steps the paths of sde_increments and
the scenario statistics. The drift f is a vectorized function of the
state, such as np.cos; one that returns 0.0 keeps the pure-Levy reduction
exact."""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from stablevar.stable_law import RandomStream, StableDraws, StableParams, sample_stable


@dataclass(frozen=True)
class PathSample:
    """A path observed on the uniform grid {k/n}, k = 0..floor(n*T)."""

    n: int
    horizon_T: float
    values: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.horizon_T <= 0:
            raise ValueError("horizon_T must be positive")
        expected = int(math.floor(self.n * self.horizon_T)) + 1
        if len(self.values) != expected:
            raise ValueError(
                f"values has length {len(self.values)}, expected {expected}"
            )

    def increments(self) -> np.ndarray:
        return np.diff(self.values)


def _grid_law(params: StableParams, n: int, T: float) -> tuple[StableParams, int]:
    """S_alpha(C n^{-1/alpha}, beta, 0), the exact law of one increment of the
    Levy path on the grid {k/n} for every alpha and beta, and the number of
    increments floor(n*T) over [0, T]. Raises ValueError if the scale
    underflows to 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if T <= 0:
        raise ValueError("T must be positive")
    scale = params.scale_C * n ** (-1.0 / params.alpha)
    if scale == 0.0:
        raise ValueError(
            f"the grid-increment scale C n^(-1/alpha) underflows to 0 at C={params.scale_C!r}, "
            f"n={n}, alpha={params.alpha!r}")
    return replace(params, scale_C=scale), int(math.floor(n * T))


def levy_increment_draws(
    params: StableParams, n: int, streams: list[RandomStream], T: float = 1.0
) -> StableDraws:
    """The grid increments of independent stable Levy paths on {k/n}, k <= n*T,
    in column chunks: StableDraws whose fills of widths adding up to
    floor(n*T) give row i, side by side, sample_stable(grid law, streams[i],
    floor(n*T)) bit for bit, the grid law being _grid_law's."""
    step, k_max = _grid_law(params, n, T)
    return StableDraws(step, streams, k_max)


def euler(
    x0: float | np.ndarray,
    drift: Callable[[np.ndarray], np.ndarray | float],
    dL: np.ndarray,
    n_fine: int,
    n_obs: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Explicit Euler for X_t = x0 + int f(X_s) ds + L_t, f the vectorized
    function drift, one path per row of the fine-grid increments dL (spacing
    1/n_fine). Returns the increments X_{j/n_obs} - X_{(j-1)/n_obs} on the
    observation grid, (m, floor(n_obs*T)) for dL over [0, T], written into
    out when given; out may be dL itself, as each step reads its increments
    before any is overwritten. x0 is a float, the start of every row, or an
    (m,) array of per-row states, left holding each row's last value, so a
    call with it and the next increments, which must span whole observation
    steps, continues the paths bit for bit."""
    if n_obs < 1:
        raise ValueError("n_obs must be >= 1")
    if n_fine % n_obs != 0:
        raise ValueError(f"n_fine={n_fine} is not a multiple of n_obs={n_obs}")
    m, k_max = dL.shape
    h = 1.0 / n_fine
    step = n_fine // n_obs
    if isinstance(x0, np.ndarray) and k_max % step != 0:
        raise ValueError(f"{k_max} fine steps do not continue a path: not a multiple of {step}")
    if out is None:
        out = np.empty((m, k_max // step))
    x = seen = np.full(m, x0, dtype=float)
    for k in range(k_max):
        x = x + drift(x) * h + dL[:, k]
        if (k + 1) % step == 0:
            np.subtract(x, seen, out=out[:, k // step])
            seen = x
    if isinstance(x0, np.ndarray):
        x0[...] = x
    return out


def simulate_levy(params: StableParams, n: int, T: float, stream: RandomStream) -> PathSample:
    """Stable Levy path on the grid {k/n}: the cumulative sums of stream's
    floor(n*T) draws of the grid-increment law (_grid_law)."""
    step, k_max = _grid_law(params, n, T)
    xi = sample_stable(step, stream, k_max)
    values = np.empty(len(xi) + 1)
    values[0] = 0.0
    np.cumsum(xi, out=values[1:])
    return PathSample(n, T, values)


CHUNK_VALUES = 1000 * 1000
"""Fine-grid increments in the one chunk buffer (8 MB) that a walk_chunks
call walks, shared by all threads, whatever their number."""

BLOCK_STREAMS = 1000
"""The most streams in one block of walk_chunks: their Philox generators take
about 0.84 kB each, 0.84 GB for the 10^6 streams CHUNK_VALUES fits at n = 1.
The benchmark's blocks stay as they were: 1000 streams for cor-sde and 100
for the Theorem sample at m = 2000, n = 10^4; all 200 for the AC-1 simulate."""

TASK_VALUES = 64 * 1000
"""Increments that one pool task of walk_chunks draws and hands to the sums:
max(1, TASK_VALUES // width) streams, with its own CMS scratch (512 kB)."""


def _workers() -> int:
    """Usable cores: this process's CPU affinity, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_rows(pool: ThreadPoolExecutor, m: int, rows: int, fill) -> None:
    """Call fill(lo, hi) on the pool, under the caller's numpy error state
    (pool threads do not inherit it), for consecutive runs of up to `rows`
    of m rows. Each fill writes its own disjoint slice of the outputs, and
    every stream is a pure function of its index, so the result does not
    depend on the partition or the thread count. The first exception raised
    in a run reaches the caller; pool.map cancels the runs not started."""
    err = np.geterr()

    def task(lo):
        with np.errstate(**err):
            fill(lo, min(lo + rows, m))

    for _ in pool.map(task, range(0, m, rows)):
        pass


def walk_chunks(params, n, m, seed, width, draw_sums=None, drift=None, euler_sums=None,
                fine=1, T=1.0, x0=0.0, out=None) -> None:
    """Draw streams 0 .. m - 1 of the grid increments dL of spacing 1/(fine n)
    over [0, T] in blocks of up to BLOCK_STREAMS streams and chunks of
    max(1, width // fine) whole observation steps (spacing 1/n) through one
    buffer. Per chunk, pool tasks fill their rows and call draw_sums(rows, lo,
    hi), if given, with the rows of streams lo .. hi - 1. Given a drift, one
    euler call here then steps the block from X_0 = x0, writing the observed
    increments into out, (m, floor(fine n T) // fine), or over the drawn ones
    if out is None; pool tasks then call euler_sums on their rows, if given."""
    n_fine = fine * n
    k_obs = _grid_law(params, n_fine, T)[1] // fine
    steps = max(1, min(k_obs, width // fine))
    rows = max(1, min(m, BLOCK_STREAMS, CHUNK_VALUES // (steps * fine)))
    task_rows = max(1, TASK_VALUES // (steps * fine))
    buf = np.empty(rows * steps * fine)
    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        for lo in range(0, m, rows):
            block = min(rows, m - lo)
            draws = levy_increment_draws(params, n_fine, [RandomStream(seed, lo + i) for i in range(block)], T)
            x = np.full(block, x0, dtype=float)
            for j in range(0, k_obs, steps):
                w = min(steps, k_obs - j)
                chunk = buf[:block * w * fine].reshape(block, -1)
                dX = chunk[:, :w] if out is None else out[lo:lo + block, j:j + w]

                def draw(a, b):
                    draws.fill(chunk[a:b], a)
                    if draw_sums is not None:
                        draw_sums(chunk[a:b], lo + a, lo + b)

                _map_rows(pool, block, task_rows, draw)
                if drift is not None:
                    euler(x, drift, chunk, n_fine, n, out=dX)
                    if euler_sums is not None:
                        _map_rows(pool, block, task_rows,
                                  lambda a, b: euler_sums(dX[a:b], lo + a, lo + b))


def sde_increments(params: StableParams, drift, n: int, m: int, seed: int, width: int,
                   fine: int = 1, T: float = 1.0, x0: float = 0.0) -> np.ndarray:
    """Euler paths from X_0 = x0 of streams 0 .. m - 1 on the fine grid of
    spacing 1/(fine n) over [0, T]: their (m, floor(fine n T) // fine)
    increments on the observation grid of spacing 1/n, row i stream i's
    path, walked in chunks of about width fine steps (walk_chunks)."""
    out = np.empty((m, _grid_law(params, fine * n, T)[1] // fine))
    walk_chunks(params, n, m, seed, width, drift=drift, fine=fine, T=T, x0=x0, out=out)
    return out
