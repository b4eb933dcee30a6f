"""Terminal equidistant p-variation V_p^n(X)_1 and its compensated version."""

from __future__ import annotations

import numpy as np

from stablevar.path_sim import PathSample
from stablevar.stable_law import StableParams, abs_moment, sin_moment


def log_abs(increments: np.ndarray) -> np.ndarray:
    """log|x| elementwise, in a new float array; a zero increment gives -inf
    without a warning."""
    x = np.abs(np.asarray(increments, dtype=float))
    with np.errstate(divide="ignore"):
        return np.log(x, out=x)


def _check_exponent(p: float) -> None:
    """Raise ValueError unless 0 < p < inf, the exponents of a p-variation."""
    if not 0.0 < p < np.inf:
        raise ValueError(f"p must be positive and finite, got {p}")


def log_pvariation(log_x: np.ndarray, p: float) -> np.ndarray:
    """The p-variation's one kernel and sum: |x|^p = exp(p log|x|) from
    log_x = log|x|, summed pairwise over the last axis. log_x is left as it
    was, so one log serves every p. A zero's -inf gives 0 and an overflow inf,
    as x**p would, without a warning. Raises ValueError unless 0 < p < inf."""
    _check_exponent(p)
    x = np.multiply(log_x, p)
    with np.errstate(over="ignore"):
        return np.sum(np.exp(x, out=x), axis=-1)


def terminal_pvariation(increments: np.ndarray, p: float) -> float | np.ndarray:
    """Terminal value sum |increment_i|^p over the last axis, with pairwise
    summation: a float for one path, one value per row for an (m, n) batch."""
    total = log_pvariation(log_abs(increments), p)
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
    if not p > a / 2.0:
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
    increments = path.increments()
    return terminal_pvariation(increments, p) - len(increments) * b
