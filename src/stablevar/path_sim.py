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


def _check_stream_sizes(n: int, m: int, fine: int = 1) -> None:
    """Raise ValueError unless n >= 1, m >= 0 and fine >= 1, the sizes of a walk."""
    for name, size, least in (("n", n, 1), ("m", m, 0), ("fine", fine, 1)):
        if size < least:
            raise ValueError(f"{name} must be >= {least}, got {name}={size}")


def euler(x: np.ndarray, drift: Callable[[np.ndarray], np.ndarray | float],
          dL: np.ndarray, h: float, step: int, out: np.ndarray) -> None:
    """Explicit Euler for X_t = X_0 + int f(X_s) ds + L_t, f the vectorized
    function drift, one path per row of the fine-grid increments dL (spacing
    h): advances the (m,) state x in place to each row's last value and
    writes the increment over each run of `step` fine steps into out,
    (m, k // step) for k steps. out may be dL's leading columns, as each
    step reads its increments before any is overwritten. k must be a
    multiple of step, so a call with x and the next increments continues
    the paths bit for bit."""
    k_max = dL.shape[1]
    if k_max % step != 0:
        raise ValueError(f"{k_max} fine steps do not continue a path: not a multiple of {step}")
    seen = x.copy()
    for k in range(k_max):
        x += drift(x) * h
        x += dL[:, k]
        if (k + 1) % step == 0:
            np.subtract(x, seen, out=out[:, k // step])
            seen[...] = x


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
"""The most streams in one block of walk_chunks: a stream's two Philox
generators take about 1.6 kB, 1.6 GB for the 10^6 streams CHUNK_VALUES fits
at n = 1.
At the benchmark's sizes a block holds 1000 streams for cor-sde and 100 for
the Theorem sample (m = 2000, n = 10^4), and all 200 for the AC-1 simulate."""

TASK_VALUES = 64 * 1000
"""Increments that one pool task of walk_chunks draws and hands to the sums:
max(1, TASK_VALUES // s) streams of s fine steps, with CMS scratch (512 kB)."""

CHUNK_STEPS = 1000
"""Fine steps that walk_chunks draws and Euler-steps at once for a block of
streams, in whole observation steps. It is fixed, so the row sums, added
chunk by chunk, do not depend on m or the thread count. At m = 2000,
n = 10^4 chunks of 500 or 2000 steps made cor-sde 20-25% and 15% slower
(2-vCPU x86-64). A walk without a drift takes each row whole, in one fill
and one pairwise sum: the Theorem sample took 1.22 s that way, against
1.46 s in chunks of 1000 steps."""


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


def walk_chunks(params, n, m, seed, draw_sums=None, drift=None, euler_sums=None,
                fine=1, T=1.0, x0=0.0, out=None) -> None:
    """Draw streams 0 .. m - 1 of the grid increments dL of spacing 1/(fine n)
    over [0, T] in blocks of up to BLOCK_STREAMS streams and chunks of whole
    observation steps (spacing 1/n) through one buffer: whole rows without a
    drift, else max(1, CHUNK_STEPS // fine) steps. Per chunk, pool tasks fill
    their rows and call draw_sums(rows, lo, hi), if given, with the rows of
    streams lo .. hi - 1. Given a drift, one euler call here then steps the
    block from X_0 = x0, writing the observed increments into out,
    (m, floor(fine n T) // fine), or over the drawn ones if out is None; pool
    tasks then call euler_sums on their rows, if given. Raises ValueError,
    before drawing, unless n >= 1, m >= 0 and fine >= 1."""
    _check_stream_sizes(n, m, fine)
    law, k_fine = _grid_law(params, fine * n, T)
    k_obs = k_fine // fine
    steps = max(1, k_obs if drift is None else min(k_obs, CHUNK_STEPS // fine))
    rows = max(1, min(m, BLOCK_STREAMS, CHUNK_VALUES // (steps * fine)))
    task_rows = max(1, TASK_VALUES // (steps * fine))
    buf = np.empty(rows * steps * fine)
    h = 1.0 / (fine * n)
    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        for lo in range(0, m, rows):
            block = min(rows, m - lo)
            draws = StableDraws(law, [RandomStream(seed, lo + i) for i in range(block)], k_fine)
            if drift is not None:
                x = np.full(block, x0, dtype=float)
            for j in range(0, k_obs, steps):
                w = min(steps, k_obs - j)
                chunk = buf[:block * w * fine].reshape(block, -1)

                def draw(a, b):
                    draws.fill(chunk[a:b], a)
                    if draw_sums is not None:
                        draw_sums(chunk[a:b], lo + a, lo + b)

                _map_rows(pool, block, task_rows, draw)
                if drift is not None:
                    dX = chunk[:, :w] if out is None else out[lo:lo + block, j:j + w]
                    euler(x, drift, chunk, h, fine, dX)
                    if euler_sums is not None:
                        _map_rows(pool, block, task_rows,
                                  lambda a, b: euler_sums(dX[a:b], lo + a, lo + b))


def sde_increments(params: StableParams, drift, n: int, m: int, seed: int,
                   fine: int = 1, T: float = 1.0, x0: float = 0.0) -> np.ndarray:
    """Euler paths from X_0 = x0 of streams 0 .. m - 1 on the fine grid of
    spacing 1/(fine n) over [0, T]: their (m, floor(fine n T) // fine)
    increments on the observation grid of spacing 1/n, row i stream i's
    path, walked in chunks of about CHUNK_STEPS fine steps (walk_chunks)."""
    _check_stream_sizes(n, m, fine)
    out = np.empty((m, _grid_law(params, fine * n, T)[1] // fine))
    walk_chunks(params, n, m, seed, drift=drift, fine=fine, T=T, x0=x0, out=out)
    return out
