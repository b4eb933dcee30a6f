"""Terminal equidistant p-variation V_p^n(X)_1 and its compensated version."""

from __future__ import annotations

import math

import numpy as np

from stablevar.path_sim import PathSample
from stablevar.stable_law import StableParams, abs_moment, sin_moment


def log_abs(increments: np.ndarray) -> np.ndarray:
    """log|x| elementwise, in a new float array; a zero increment gives -inf
    without a warning."""
    x = np.abs(np.asarray(increments, dtype=float))
    with np.errstate(divide="ignore"):
        return np.log(x, out=x)


def exp_scaled(log_x: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """|x|^p = exp(p log|x|) for p > 0 from log_x = log|x|, into out (a new
    array by default; log_x itself may be given): a zero increment's -inf
    gives 0 exactly, and a power beyond the float range is inf, as x**p would
    give, without a warning."""
    x = np.multiply(log_x, p, out=out)
    with np.errstate(over="ignore"):
        return np.exp(x, out=x)


def abs_powers(increments: np.ndarray, p: float) -> np.ndarray:
    """|x|^p elementwise for p > 0, in one buffer: exp_scaled of log_abs."""
    x = log_abs(increments)
    return exp_scaled(x, p, out=x)


def _power_sums(powers: np.ndarray) -> np.ndarray:
    """The p-variation's one sum: the |x|^p terms summed pairwise over the
    last axis, so a p-variation from x or from log|x| has the same bits."""
    return np.sum(powers, axis=-1)


def log_pvariation(log_x: np.ndarray, p: float) -> np.ndarray:
    """terminal_pvariation's sums, to its bits, from log_x = log|x| for p > 0:
    a log taken once serves every p, and is left as it was."""
    return _power_sums(exp_scaled(log_x, p))


def terminal_pvariation(increments: np.ndarray, p: float) -> float | np.ndarray:
    """Terminal value sum |increment_i|^p over the last axis, with pairwise
    summation: a float for one path, one value per row for an (m, n) batch."""
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    total = _power_sums(abs_powers(increments, p))
    return float(total) if total.ndim == 0 else total


def compensator(params: StableParams, p: float, n: int) -> float:
    """The centering sequence B_n(alpha, p):

        n^{-p/alpha} E|L_1|^p        for p in (alpha/2, alpha),
        E sin(n^{-1} |L_1|^alpha)    for p = alpha,
        0                            for p > alpha.

    Only defined for p > alpha/2. The sin form is taken on the exact test
    p == alpha, since E|L_1|^p holds Gamma(1 - p/alpha), which diverges as
    p -> alpha from below. For p <= alpha, alpha = 1, beta != 0 raises
    ValueError: one grid increment is then L_1/n shifted by (2/pi) beta C
    log(n)/n, so this B_n would drift with log n (stable_law.abs_moment)."""
    a = params.alpha
    if p <= a / 2.0:
        raise ValueError(f"compensator requires p > alpha/2, got p={p}, alpha={a}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if p > a:
        return 0.0
    if p == a:
        return sin_moment(params, n)
    return n ** (-p / a) * abs_moment(params, p)


def compensated_terminal(path: PathSample, p: float, params: StableParams) -> float:
    """V_p^n(X)_T - floor(nT) * B_n(alpha, p)."""
    b = compensator(params, p, path.n)
    k_max = int(math.floor(path.n * path.horizon_T))
    return terminal_pvariation(path.increments(), p) - k_max * b
