"""Terminal equidistant p-variation V_p^n(X)_1 and its compensated version."""

from __future__ import annotations

import math

import numpy as np

from stablevar.path_sim import PathSample
from stablevar.stable_law import StableParams, abs_moment, sin_moment


def abs_powers(increments: np.ndarray, p: float) -> np.ndarray:
    """|x|^p elementwise as exp(p log|x|) for p > 0, in one buffer; a zero
    increment gives exp(-inf) = 0 exactly."""
    x = np.abs(np.asarray(increments, dtype=float))
    with np.errstate(divide="ignore"):
        np.log(x, out=x)
    x *= p
    return np.exp(x, out=x)


def terminal_pvariation(increments: np.ndarray, p: float) -> float | np.ndarray:
    """Terminal value sum |increment_i|^p over the last axis, with pairwise
    summation: a float for one path, one value per row for an (m, n) batch."""
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    total = np.sum(abs_powers(increments, p), axis=-1)
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
