"""Model-fit procedure: block the series, compute per-block p-variations,
and minimize the KS-type distance to the half-stable subordinator reference
over (C, p). The estimates are alpha* = p*/2 and C*."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from stablevar.limit_law import limit_scale, ref_cdf_half_stable
from stablevar.pvariation import terminal_pvariation
from stablevar.stable_law import StableParams


class EstimationError(RuntimeError):
    pass


@dataclass(frozen=True)
class BlockedSeries:
    """Adjacent non-overlapping groups of n consecutive points, each treated
    as a path on [0, 1] with grid spacing 1/n. increments has shape (m, n)."""

    m: int
    n: int
    increments: np.ndarray

    def __post_init__(self):
        if self.increments.shape != (self.m, self.n):
            raise ValueError("increments shape does not match (m, n)")


def block_split(series, n: int, mode: str = "levels", demean: bool = False) -> BlockedSeries:
    """Split a series into m = floor(len/n) blocks of n increments; the
    trailing remainder is dropped.

    In 'levels' mode the series is differenced once; the block boundaries use
    the last point of the previous block, so the blocks partition the first
    m*n source points (the very first increment of block 0 is zero by
    convention, there being no point before the series start). In
    'increments' mode the values are grouped as-is. demean subtracts each
    block's mean increment (off by default)."""
    series = np.asarray(series, dtype=float)
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(series) < 2 * n:
        raise ValueError(f"series of length {len(series)} is shorter than 2n={2 * n}")
    if mode == "levels":
        incr = np.diff(series, prepend=series[0])
    elif mode == "increments":
        incr = series
    else:
        raise ValueError(f"unknown mode {mode!r}")
    m = len(incr) // n
    blocks = incr[: m * n].reshape(m, n).copy()
    if demean:
        blocks -= blocks.mean(axis=1, keepdims=True)
    return BlockedSeries(m, n, blocks)


def block_statistics(blocked: BlockedSeries, p: float) -> np.ndarray:
    """Terminal p-variation of each block: V_p^n(X^(i))_1, uncompensated."""
    return terminal_pvariation(blocked.increments, p)


class EmpiricalCDF:
    """Right-continuous step function G(x) = (1/m) #{values <= x}."""

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if len(values) < 1:
            raise ValueError("need at least one value")
        self.sorted = np.sort(values)
        self.m = len(values)

    def __call__(self, x):
        return np.searchsorted(self.sorted, x, side="right") / self.m


def empirical_cdf(values) -> EmpiricalCDF:
    return EmpiricalCDF(values)


def ks_distance(values, c_prime: float) -> float:
    """sup_{x>=0} |G(x) - F_{1/2,c'}(x)| by the exact sorted-sample formula."""
    xs = np.sort(np.asarray(values, dtype=float))
    return float(_ks_sorted(xs, c_prime))


def _ks_sorted(xs_sorted: np.ndarray, c_primes):
    """ks_distance of a sorted sample for each c' in c_primes at once, as one
    (len(c_primes), m) broadcast; a scalar c' gives a 0-d result."""
    m = len(xs_sorted)
    f = ref_cdf_half_stable(np.asarray(c_primes, dtype=float)[..., None], xs_sorted)
    i = np.arange(1, m + 1)
    d_plus = np.max(i / m - f, axis=-1)
    d_minus = np.max(f - (i - 1) / m, axis=-1)
    return np.maximum(np.maximum(d_plus, d_minus), 0.0)


def _c_prime_coupled(c, p: float):
    """Scale transfer C' = C^p k(p), k(p) = C'(1, p), under the coupling
    alpha = p/2 that makes the limit exactly half-stable; c may be an array.
    Scalar pow, as in limit_scale (numpy's array power may differ by an ulp)."""
    c = np.asarray(c, dtype=float)
    if not np.all(c > 0.0):
        raise ValueError("C must be positive")
    k = limit_scale(StableParams(p / 2.0, 1.0, 0.0), p).scale_C
    c_prime = np.array([ci ** float(p) for ci in c.ravel().tolist()]).reshape(c.shape) * k
    return float(c_prime) if c_prime.ndim == 0 else c_prime


def _coupled_distance(blocked: BlockedSeries, c, p: float):
    """D_n(C, p): the KS distance of the block p-variations to the half-stable
    law of scale C' = C^p k(p), for each C in c at once (a scalar c gives a 0-d
    result)."""
    return _ks_sorted(np.sort(block_statistics(blocked, p)), _c_prime_coupled(c, p))


def _strict_local_minima(d: np.ndarray) -> np.ndarray:
    """Mask of the cells strictly below all of their (up to 8) grid neighbors."""
    rows, cols = d.shape
    padded = np.pad(d, 1, constant_values=np.inf)
    mask = np.ones(d.shape, dtype=bool)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            if (di, dj) != (1, 1):
                mask &= d < padded[di: di + rows, dj: dj + cols]
    return mask


@dataclass(frozen=True)
class KSSurface:
    """D_n(C, p) over a grid; d_values[i, j] is the distance at
    (c_grid[i], p_grid[j])."""

    c_grid: np.ndarray
    p_grid: np.ndarray
    d_values: np.ndarray
    argmin: tuple  # (C*, p*, D_min)
    local_minima: list = field(default_factory=list)
    tie_count: int = 1
    boundary: bool = False  # the argmin lies on the edge of the grid

    @classmethod
    def from_values(cls, c_grid, p_grid, d) -> "KSSurface":
        """Locate the minimum of d, its ties, and the secondary local minima
        (cells strictly below all 8 neighbors), sorted by D."""
        bad = np.argwhere(~np.isfinite(d))
        if len(bad) > 0:
            i, j = bad[0]
            raise EstimationError(
                f"non-finite distance at grid point C={c_grid[i]}, p={p_grid[j]}"
            )
        i0, j0 = np.unravel_index(int(np.argmin(d)), d.shape)
        d_min = float(d[i0, j0])
        minima = [
            (float(c_grid[i]), float(p_grid[j]), float(d[i, j]))
            for i, j in np.argwhere(_strict_local_minima(d))
        ]
        minima.sort(key=lambda t: t[2])
        return cls(
            c_grid, p_grid, d,
            argmin=(float(c_grid[i0]), float(p_grid[j0]), d_min),
            local_minima=minima,
            tie_count=int(np.sum(d == d_min)),
            boundary=bool(i0 in (0, d.shape[0] - 1) or j0 in (0, d.shape[1] - 1)),
        )


def ks_surface(blocked: BlockedSeries, c_grid, p_grid) -> KSSurface:
    """Evaluate D_n(C, p) on the full grid, one broadcast over C per p."""
    c_grid = np.asarray(c_grid, dtype=float)
    p_grid = np.asarray(p_grid, dtype=float)
    if len(c_grid) == 0 or len(p_grid) == 0:
        raise ValueError("grids must be non-empty")
    d = np.column_stack([_coupled_distance(blocked, c_grid, p) for p in p_grid])
    return KSSurface.from_values(c_grid, p_grid, d)


M_MIN = 20
"""Fewest blocks estimate accepts: below this the empirical CDF is too coarse
for the KS distance to locate a minimum."""


@dataclass(frozen=True)
class GridConfig:
    """Search grids and refinement settings. The default windows are a
    documented choice, not canonical."""

    p_min: float = 0.8
    p_max: float = 3.6
    p_step: float = 0.05
    c_min: float = 0.5
    c_max: float = 20.0
    c_step: float = 0.25
    refine: bool = True

    def __post_init__(self):
        if not (0 < self.p_min < self.p_max and 0 < self.c_min < self.c_max):
            raise ValueError("infeasible grid bounds")
        if not (self.p_step > 0 and self.c_step > 0):
            raise ValueError("grid steps must be positive")
        # np.arange may overshoot p_max by up to half a step, so check the grid
        top = self.p_grid()[-1]
        if top >= 4.0:
            raise ValueError(
                f"p window [{self.p_min}, {self.p_max}] step {self.p_step} reaches "
                f"p = {top!r}; the coupling alpha = p/2 needs p < 4"
            )

    def p_grid(self) -> np.ndarray:
        return np.arange(self.p_min, self.p_max + self.p_step / 2.0, self.p_step)

    def c_grid(self) -> np.ndarray:
        return np.arange(self.c_min, self.c_max + self.c_step / 2.0, self.c_step)


@dataclass(frozen=True)
class EstimationResult:
    alpha_star: float
    c_star: float
    p_star: float
    d_min: float
    surface: KSSurface
    slice_best_c: np.ndarray  # rows (p, best C, D at best C)


def estimate(blocked: BlockedSeries, config: GridConfig | None = None) -> EstimationResult:
    """Coarse grid search over (C, p) followed by Nelder-Mead refinement from
    the best grid cell. Returns alpha* = p*/2 and C* along with the surface
    and the per-p best-C slice."""
    if config is None:
        config = GridConfig()
    if blocked.m < M_MIN:
        raise EstimationError(
            f"need at least {M_MIN} blocks for a usable empirical CDF, got {blocked.m}"
        )
    if not np.all(np.isfinite(blocked.increments)):
        raise EstimationError("the series holds a NaN or infinite increment")
    if not np.any(blocked.increments):
        raise EstimationError("every block p-variation is zero (constant series)")
    surf = ks_surface(blocked, config.c_grid(), config.p_grid())
    c_star, p_star, d_min = surf.argmin

    # per-p slice minimized over C (the curve plotted against alpha = p/2)
    best_idx = np.argmin(surf.d_values, axis=0)
    slice_best_c = np.column_stack(
        [surf.p_grid, surf.c_grid[best_idx], surf.d_values[best_idx, np.arange(len(surf.p_grid))]]
    )

    if config.refine:
        (c_lo, c_hi), (p_lo, p_hi) = surf.c_grid[[0, -1]], surf.p_grid[[0, -1]]

        def objective(theta):
            # outside the built grids every point scores the largest distance,
            # so no vertex there can beat d_min, and alpha = p/2 stays below 2;
            # the grids' ends, not the window's, since np.arange may overshoot
            c, p = theta
            if not (c_lo <= c <= c_hi and p_lo <= p <= p_hi):
                return 1.0
            return float(_coupled_distance(blocked, c, p))

        res = optimize.minimize(
            objective, x0=[c_star, p_star], method="Nelder-Mead",
            options={"xatol": 1e-4, "fatol": 1e-6, "maxiter": 400},
        )
        if res.fun < d_min:
            c_star, p_star, d_min = float(res.x[0]), float(res.x[1]), float(res.fun)

    return EstimationResult(
        alpha_star=p_star / 2.0,
        c_star=c_star,
        p_star=p_star,
        d_min=d_min,
        surface=surf,
        slice_best_c=slice_best_c,
    )
