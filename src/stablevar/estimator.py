"""Model-fit procedure: block the series, compute per-block p-variations,
and minimize the KS-type distance to the half-stable subordinator reference
over (C, p). The estimates are alpha* = p*/2 and C*."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from stablevar.limit_law import limit_scale, ref_cdf_half_stable
from stablevar.pvariation import terminal_pvariation
from stablevar.stable_law import StableParams


class EstimationError(RuntimeError):
    pass


def block_split(increments, n: int, demean: bool = False) -> np.ndarray:
    """Group increments into m = floor(len/n) blocks of n, returned as an
    (m, n) array; the trailing remainder is dropped. demean subtracts each
    block's mean increment (off by default)."""
    increments = np.asarray(increments, dtype=float)
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(increments) < 2 * n:
        raise ValueError(f"series of length {len(increments)} is shorter than 2n={2 * n}")
    m = len(increments) // n
    blocks = increments[: m * n].reshape(m, n).copy()
    if demean:
        blocks -= blocks.mean(axis=1, keepdims=True)
    return blocks


def ks_distance(values, c_prime):
    """sup_{x>=0} |G(x) - F_{1/2,c'}(x)|, G the empirical CDF of values, by the
    exact formula: a float for a scalar c', else one distance per c' in
    c_prime at once, as one (len(c_prime), m) broadcast."""
    xs = np.sort(np.asarray(values, dtype=float))
    m = len(xs)
    f = ref_cdf_half_stable(np.asarray(c_prime, dtype=float)[..., None], xs)
    i = np.arange(1, m + 1)
    d_plus = np.max(i / m - f, axis=-1)
    d_minus = np.max(f - (i - 1) / m, axis=-1)
    d = np.maximum(np.maximum(d_plus, d_minus), 0.0)
    return float(d) if d.ndim == 0 else d


def _c_prime_coupled(c, p: float):
    """Scale transfer C' = C^p k(p), k(p) = C'(1, p), under the coupling
    alpha = p/2 that makes the limit exactly half-stable; c may be an array.
    Scalar pow, as in limit_scale (numpy's array power may differ by an ulp).
    Raises ValueError, naming C and p, for a C that is not finite and positive
    or a C' that is not (C^p overflows or underflows)."""
    c = np.asarray(c, dtype=float)
    k = limit_scale(StableParams(p / 2.0, 1.0, 0.0), p).scale_C
    powers = []
    for ci in c.ravel().tolist():
        if not 0.0 < ci < math.inf:
            raise ValueError(f"C must be finite and positive, got C={ci!r} at p={float(p)!r}")
        try:
            powers.append(ci ** float(p))
        except OverflowError:
            powers.append(math.inf)
    c_prime = np.array(powers).reshape(c.shape) * k
    bad = ~((0.0 < c_prime) & (c_prime < math.inf))
    if np.any(bad):
        raise ValueError(f"the half-stable scale C^p k(p) = {float(c_prime[bad][0])!r} at "
                         f"C={float(c[bad][0])!r}, p={float(p)!r} is not finite and positive")
    return float(c_prime) if c_prime.ndim == 0 else c_prime


def _coupled_distance(blocks: np.ndarray, c, p: float):
    """D_n(C, p): the KS distance of the uncompensated p-variations
    V_p^n(X^(i))_1 of the rows of the (m, n) blocks to the half-stable law of
    scale C' = C^p k(p), for each C in c at once (a scalar c gives a float)."""
    return ks_distance(terminal_pvariation(blocks, p), _c_prime_coupled(c, p))


def _grid_summary(c_grid, p_grid, d):
    """The fit's summary of the surface d: the grid argmin (C, p, D), the
    number of cells that tie with it, the strict local minima (cells below
    all of their up to 8 neighbors) sorted by D, and whether the argmin lies
    on the edge of the grid."""
    rows, cols = d.shape
    i0, j0 = np.unravel_index(int(np.argmin(d)), d.shape)
    d_min = float(d[i0, j0])
    padded = np.pad(d, 1, constant_values=np.inf)
    strict = np.ones(d.shape, dtype=bool)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            if (di, dj) != (1, 1):
                strict &= d < padded[di: di + rows, dj: dj + cols]
    minima = sorted(((float(c_grid[i]), float(p_grid[j]), float(d[i, j]))
                     for i, j in np.argwhere(strict)), key=lambda t: t[2])
    edge = bool(i0 in (0, rows - 1) or j0 in (0, cols - 1))
    return (float(c_grid[i0]), float(p_grid[j0]), d_min), int(np.sum(d == d_min)), minima, edge


@dataclass(frozen=True)
class KSSurface:
    """D_n(C, p) over a grid; d_values[i, j] is the distance at
    (c_grid[i], p_grid[j])."""

    c_grid: np.ndarray
    p_grid: np.ndarray
    d_values: np.ndarray


def ks_surface(blocks: np.ndarray, c_grid, p_grid) -> KSSurface:
    """Evaluate D_n(C, p) of the (m, n) blocks on the full grid, one
    broadcast over C per p."""
    c_grid = np.asarray(c_grid, dtype=float)
    p_grid = np.asarray(p_grid, dtype=float)
    if len(c_grid) == 0 or len(p_grid) == 0:
        raise ValueError("grids must be non-empty")
    d = np.column_stack([_coupled_distance(blocks, c_grid, p) for p in p_grid])
    bad = np.argwhere(~np.isfinite(d))
    if len(bad) > 0:
        i, j = bad[0]
        raise EstimationError(f"non-finite distance at grid point C={c_grid[i]}, p={p_grid[j]}")
    return KSSurface(c_grid, p_grid, d)


REFINE_XATOL = 1e-4
"""Nelder-Mead's stopping tolerance in C and in p. A refined point this close
to an edge of the search window counts as on the boundary."""


def _nelder_mead(func, x0):
    """Minimize func from x0 by the Nelder-Mead simplex (Nelder & Mead 1965),
    returning (x, f(x)) of the best vertex. This is scipy.optimize.minimize's
    method="Nelder-Mead" with options xatol=REFINE_XATOL, fatol=1e-6 and
    maxiter=400, without bounds or adaptive parameters: the same initial
    simplex (each coordinate of x0 in turn scaled by 1.05, or set to 0.00025
    if zero), the same reflection, expansion, contraction and shrink steps in
    the same order, the same stopping rule (every vertex within xatol of the
    best in each coordinate and within fatol of it in value, or maxiter
    iterations), so that on the same objective both return the same point
    bit for bit. func gets a copy of each vertex."""
    x0 = np.asarray(x0, dtype=float).flatten()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([func(np.copy(v)) for v in sim], dtype=float)
    # sorted twice, as in scipy: an unstable argsort may reorder ties again
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    iterations = 1
    while iterations < 400:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= REFINE_XATOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-6):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = func(np.copy(xr))
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = func(np.copy(xe))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = func(np.copy(xc))
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:
                # inside contraction
                xcc = 0.5 * xbar + 0.5 * sim[-1]
                fxcc = func(np.copy(xcc))
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = func(np.copy(sim[j]))
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


M_MIN = 20
"""Fewest blocks estimate accepts: below this the empirical CDF is too coarse
for the KS distance to locate a minimum."""

MAX_GRID_CELLS = 1_000_000
"""Most (C, p) grid cells a GridConfig accepts, about 220 times the default
57 x 79 = 4,503. Each cell is one KS distance over the m blocks (about 6 us
at m = 200 on a 2-core x86 host), so this bounds the grid search's time
before any array is built."""


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """The points lo, lo + step, ... of np.arange that lie in [lo, hi], where a
    point after lo within rounding (1e-9 steps) of hi is hi itself."""
    g = np.arange(lo, hi + step / 2.0, step)
    g[1:][np.abs(g[1:] - hi) <= 1e-9 * step] = hi
    return g[g <= hi]


@dataclass(frozen=True)
class GridConfig:
    """Search window and refinement settings; the grids lie inside the window.
    The default window is a documented choice, not canonical."""

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
        if not (0 < self.p_step < math.inf and 0 < self.c_step < math.inf):
            raise ValueError("grid steps must be positive and finite")
        if not self.p_max < 4.0:
            raise ValueError(f"p window [{self.p_min}, {self.p_max}] reaches p = 4; "
                             "the coupling alpha = p/2 needs p < 4")
        # span / step + 1 on each axis is at least the points its grid holds
        cells = ((self.p_max - self.p_min) / self.p_step + 1) * (
            (self.c_max - self.c_min) / self.c_step + 1)
        if not cells <= MAX_GRID_CELLS:
            raise ValueError(f"the window's (C, p) grid would hold {cells:.3g} cells, "
                             f"more than MAX_GRID_CELLS = {MAX_GRID_CELLS}")

    def p_grid(self) -> np.ndarray:
        return _grid(self.p_min, self.p_max, self.p_step)

    def c_grid(self) -> np.ndarray:
        return _grid(self.c_min, self.c_max, self.c_step)


@dataclass(frozen=True)
class EstimationResult:
    alpha_star: float
    c_star: float
    p_star: float
    d_min: float
    surface: KSSurface
    slice_best_c: np.ndarray  # rows (p, best C, D at best C)
    grid_argmin: tuple  # (C, p, D) of the best grid cell, where the refine starts
    tie_count: int  # grid cells whose D equals the grid minimum
    local_minima: list  # (C, p, D) of each strict local minimum of the grid, by D
    # the grid argmin lies on the edge of the grid, or the refined point
    # within REFINE_XATOL of an edge of the window
    boundary: bool


def estimate(blocks: np.ndarray, config: GridConfig | None = None) -> EstimationResult:
    """Coarse grid search over (C, p) for the (m, n) array of block
    increments, followed by Nelder-Mead refinement from the best grid cell.
    Returns alpha* = p*/2 and C* along with the surface, the per-p best-C
    slice and the fit's summary: the grid argmin, its ties, the local minima
    and the boundary flag."""
    if config is None:
        config = GridConfig()
    if np.ndim(blocks) != 2:
        raise ValueError(f"blocks must be an (m, n) array, got shape {np.shape(blocks)}")
    if len(blocks) < M_MIN:
        raise EstimationError(
            f"need at least {M_MIN} blocks for a usable empirical CDF, got {len(blocks)}"
        )
    if not np.all(np.isfinite(blocks)):
        raise EstimationError("the series holds a NaN or infinite increment")
    if not np.any(blocks):
        raise EstimationError("every block p-variation is zero (constant series)")
    surf = ks_surface(blocks, config.c_grid(), config.p_grid())
    grid_argmin, tie_count, local_minima, boundary = _grid_summary(
        surf.c_grid, surf.p_grid, surf.d_values)
    c_star, p_star, d_min = grid_argmin

    # per-p slice minimized over C (the curve plotted against alpha = p/2)
    best_idx = np.argmin(surf.d_values, axis=0)
    slice_best_c = np.column_stack(
        [surf.p_grid, surf.c_grid[best_idx], surf.d_values[best_idx, np.arange(len(surf.p_grid))]]
    )

    if config.refine:
        def objective(theta):
            # outside the window every point scores the largest distance, so
            # no vertex there can beat d_min, and alpha = p/2 stays below 2
            c, p = theta
            if not (config.c_min <= c <= config.c_max and config.p_min <= p <= config.p_max):
                return 1.0
            return _coupled_distance(blocks, c, p)

        x, fun = _nelder_mead(objective, [c_star, p_star])
        if fun < d_min:
            c_star, p_star, d_min = float(x[0]), float(x[1]), float(fun)
            # the refine can run onto the window's edge from an interior cell
            edge = min(c_star - config.c_min, config.c_max - c_star,
                       p_star - config.p_min, config.p_max - p_star)
            boundary = boundary or edge <= REFINE_XATOL

    return EstimationResult(
        alpha_star=p_star / 2.0,
        c_star=c_star,
        p_star=p_star,
        d_min=d_min,
        surface=surf,
        slice_best_c=slice_best_c,
        grid_argmin=grid_argmin,
        tie_count=tie_count,
        local_minima=local_minima,
        boundary=boundary,
    )
