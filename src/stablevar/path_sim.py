"""Uniform-grid sample paths of X_t = x + int_0^t f(s, X_s) ds + L_t: one
generator of stable Levy grid increments (levy_increments), one vectorized
Euler kernel (euler), and the Levy and SDE paths built on them."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from stablevar.stable_law import RandomStream, StableParams, sample_stable


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


@dataclass(frozen=True)
class DriftSpec:
    """Drift f(s, x) of the SDE. kind 'zero' keeps the pure-Levy reduction
    exact; 'cosine' is f(s, x) = cos(x)."""

    kind: str = "zero"

    def __post_init__(self):
        if self.kind not in ("zero", "cosine"):
            raise ValueError(f"unknown drift kind {self.kind!r}")

    def __call__(self, s: float, x):
        if self.kind == "zero":
            return np.zeros_like(np.asarray(x, dtype=float))
        return np.cos(x)


def levy_increments(
    params: StableParams, n: int, streams: list[RandomStream], T: float = 1.0
) -> np.ndarray:
    """Grid increments of independent stable Levy paths on {k/n}, k <= n*T:
    an (len(streams), floor(n*T)) array whose row i holds stream i's i.i.d.
    draws of S_alpha(C n^{-1/alpha}, beta, 0), the exact law of one grid
    increment for every alpha and beta."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if T <= 0:
        raise ValueError("T must be positive")
    k_max = int(math.floor(n * T))
    step = replace(params, scale_C=params.scale_C * n ** (-1.0 / params.alpha))
    out = np.empty((len(streams), k_max))
    for i, stream in enumerate(streams):
        out[i] = sample_stable(step, stream, size=k_max)
    return out


def euler(x0: float, drift: DriftSpec, dL: np.ndarray, n_fine: int, n_obs: int) -> np.ndarray:
    """Explicit Euler for X_t = x0 + int f(s, X_s) ds + L_t, one path per row
    of the fine-grid increments dL (spacing 1/n_fine), vectorized across
    rows. Returns the values on the observation grid of spacing 1/n_obs: an
    (m, floor(n_obs*T)+1) array when dL holds the increments over [0, T]."""
    if n_obs < 1:
        raise ValueError("n_obs must be >= 1")
    if n_fine % n_obs != 0:
        raise ValueError(f"n_fine={n_fine} is not a multiple of n_obs={n_obs}")
    m, k_max = dL.shape
    h = 1.0 / n_fine
    step = n_fine // n_obs
    out = np.empty((m, k_max // step + 1))
    x = np.full(m, float(x0))
    out[:, 0] = x
    for k in range(k_max):
        x = x + drift(k * h, x) * h + dL[:, k]
        if (k + 1) % step == 0:
            out[:, (k + 1) // step] = x
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
    drift: DriftSpec,
    params: StableParams,
    n_fine: int,
    n_obs: int,
    T: float,
    streams: list[RandomStream],
) -> np.ndarray:
    """Euler paths for many independent streams at once. Returns an
    (m, floor(n_obs*T)+1) array of coarse-grid values; row i is stream i's
    path."""
    return euler(x0, drift, levy_increments(params, n_fine, streams, T), n_fine, n_obs)
