"""Uniform-grid sample paths of X_t = x + int_0^t f(s, X_s) ds + L_t: one
generator of stable Levy grid increments (levy_increments), one vectorized
Euler kernel (euler), and the paths and perturbations built on them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

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

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) / self.n

    def increments(self) -> np.ndarray:
        return np.diff(self.values)

    def restrict(self, n_coarse: int) -> "PathSample":
        """Restriction to the coarser grid of spacing 1/n_coarse."""
        if self.n % n_coarse != 0:
            raise ValueError(f"n={self.n} is not a multiple of n_coarse={n_coarse}")
        step = self.n // n_coarse
        k_max = int(math.floor(n_coarse * self.horizon_T))
        idx = np.arange(k_max + 1) * step
        return PathSample(n_coarse, self.horizon_T, self.values[idx])


@dataclass(frozen=True)
class DriftSpec:
    """Drift f(s, x) of the SDE. kind 'zero' keeps the pure-Levy reduction
    exact; 'cosine' is f(s, x) = cos(x); 'custom' wraps any callable."""

    kind: str = "zero"
    func: Optional[Callable[[float, np.ndarray], np.ndarray]] = field(default=None)

    def __post_init__(self):
        if self.kind not in ("zero", "cosine", "custom"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if self.kind == "custom" and self.func is None:
            raise ValueError("custom drift requires a callable")

    def __call__(self, s: float, x):
        if self.kind == "zero":
            return np.zeros_like(np.asarray(x, dtype=float))
        if self.kind == "cosine":
            return np.cos(x)
        return self.func(s, x)


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


def simulate_sde(
    x0: float,
    drift: DriftSpec,
    params: StableParams,
    n_fine: int,
    n_obs: int,
    T: float,
    stream: RandomStream,
) -> PathSample:
    """Euler path for one stream on the fine grid, observed on the grid of
    spacing 1/n_obs.

    With drift 'zero' and x0 = 0 the output is bitwise identical to
    simulate_levy(params, n_fine, T, stream).restrict(n_obs)."""
    dL = levy_increments(params, n_fine, [stream], T)
    return PathSample(n_obs, T, euler(x0, drift, dL, n_fine, n_obs)[0])


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


def add_perturbation(base: PathSample, y) -> PathSample:
    """Pointwise sum X = base + Y on the grid of base. y may be a callable
    t -> Y_t or an array aligned with base.values."""
    if callable(y):
        yv = np.asarray([y(t) for t in base.times], dtype=float)
    else:
        yv = np.asarray(y, dtype=float)
        if yv.shape != base.values.shape:
            raise ValueError("perturbation array does not match the grid")
    return PathSample(base.n, base.horizon_T, base.values + yv)
