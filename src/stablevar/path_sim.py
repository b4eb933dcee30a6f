"""Uniform-grid sample paths of X_t = x + int_0^t f(X_s) ds + L_t: one law
of stable Levy grid increments (levy_increments, or levy_increment_draws in
column chunks), one vectorized Euler kernel (euler), and the Levy and SDE
paths built on them. The drift f is a vectorized function of the state,
such as np.cos; one that returns 0.0 keeps the pure-Levy reduction exact."""

from __future__ import annotations

import math
from collections.abc import Callable
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


def levy_increments(
    params: StableParams, n: int, streams: list[RandomStream], T: float = 1.0
) -> np.ndarray:
    """Grid increments of independent stable Levy paths on {k/n}, k <= n*T:
    an (len(streams), floor(n*T)) array whose row i holds stream i's i.i.d.
    draws of the grid-increment law (_grid_law)."""
    step, k_max = _grid_law(params, n, T)
    out = np.empty((len(streams), k_max))
    for i, stream in enumerate(streams):
        out[i] = sample_stable(step, stream, size=k_max)
    return out


def levy_increment_draws(
    params: StableParams, n: int, streams: list[RandomStream], T: float = 1.0
) -> StableDraws:
    """levy_increments in column chunks: StableDraws whose fills of widths
    adding up to floor(n*T) give, side by side, levy_increments(params, n,
    streams, T) bit for bit."""
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
    """Explicit Euler for X_t = x0 + int f(X_s) ds + L_t, where f is the
    vectorized function drift, one path per row of the fine-grid increments
    dL (spacing 1/n_fine), vectorized across rows. Returns the increments
    X_{j/n_obs} - X_{(j-1)/n_obs} on the observation grid: an
    (m, floor(n_obs*T)) array when dL holds the increments over [0, T],
    written into out when out is given. out may be dL itself, since each
    step reads its increments before any is overwritten.

    x0 is either a float, the start of every row, or an (m,) float array of
    per-row states that this call leaves holding each row's value after the
    last step of dL. Calling again with that array and the next increments
    continues the paths bit for bit; dL must then span whole observation
    steps."""
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
    """Stable Levy path on the grid {k/n}: cumulative sums of levy_increments."""
    xi = levy_increments(params, n, [stream], T)[0]
    values = np.empty(len(xi) + 1)
    values[0] = 0.0
    np.cumsum(xi, out=values[1:])
    return PathSample(n, T, values)


def simulate_sde_batch(
    x0: float,
    drift: Callable[[np.ndarray], np.ndarray | float],
    params: StableParams,
    n_fine: int,
    n_obs: int,
    T: float,
    streams: list[RandomStream],
) -> np.ndarray:
    """Euler paths for many independent streams at once, on the fine grid of
    spacing 1/n_fine. Returns their (m, floor(n_obs*T)) increments on the
    observation grid of spacing 1/n_obs; row i is stream i's path."""
    return euler(x0, drift, levy_increments(params, n_fine, streams, T), n_fine, n_obs)
