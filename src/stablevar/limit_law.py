"""Limit objects of the p-variation convergence: the limiting stable law
S_{alpha/p}(C', beta', 0) with its scale transfer C' = C'(C, alpha, p), and the
half-stable subordinator reference law."""

from __future__ import annotations

import math

import numpy as np

from stablevar.stable_law import ALPHA_ONE_TOL, RandomStream, StableParams, _horner, sample_stable

# Highest degree first. Fitted by tools/erfc_coefficients.py: the weighted
# error exp(-x^2) |P/Q - exp(x^2) erfc(x)| is below 4.5e-17 on [0, 6].
_ERFC_P = (0.0012779565089398599, 0.017958345901727835, 0.11561683150813193,
           0.43513676224532477, 1.0172322095207107, 1.420118488078511, 1.0)
_ERFC_Q = (0.0022650768932484075, 0.031831568022880376, 0.20604040459473738,
           0.787340968033185, 1.9031843456085693, 2.8929038710101813,
           2.5484976551740335, 1.0)
_ERFC_X_MAX = 6.0


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc(x) for an array of x >= 0, within 3.4e-16 absolute: a rational
    P/Q of min(x, 6) times exp(-x^2) (after Cody 1969, Math. Comp. 23:631,
    in one piece since only absolute accuracy is needed). erfc(0) is exactly
    1 and erfc(+inf) exactly 0; beyond x = 6 the rational is held at its value
    there, an absolute error below erfc(6) = 2.2e-17."""
    x = np.asarray(x, dtype=float)
    y = np.minimum(x, _ERFC_X_MAX)
    num = _horner(y, _ERFC_P)
    num /= _horner(y, _ERFC_Q)
    num *= np.exp(-(x * x))
    return num


def _cos_gamma(z: float) -> float:
    """cos(pi z / 2) * Gamma(1 - z) for z in (0, 2).

    Both factors diverge at z = 1 but the product is finite; the reflection
    formula gives the everywhere-regular form pi / (2 sin(pi z / 2) Gamma(z)).
    """
    if not 0.0 < z < 2.0:
        raise ValueError(f"argument must be in (0, 2), got {z}")
    return math.pi / (2.0 * math.sin(math.pi * z / 2.0) * math.gamma(z))


def limit_scale(params: StableParams, p: float) -> StableParams:
    """The limiting law S_{alpha/p}(C', beta', 0) of the (compensated)
    terminal p-variation, totally skewed to the right, whose scale is

        C' = C^p ( cos(pi alpha / 2p) Gamma(1 - alpha/p)
                   / (cos(pi alpha / 2) Gamma(1 - alpha)) )^{p/alpha}.

    The removable singularities at alpha = 1 and alpha/p = 1 go through the
    regularized composite, so C' is continuous as alpha/p crosses 1, and
    p == alpha gives the value both one-sided limits approach. That value is
    C only at alpha = 1: it is the scale the tail of |L_1|^alpha calls for.

    beta' = 1, except at alpha/p = 1 (within ALPHA_ONE_TOL), where it is -1:
    the statistic's heavy tail is on the right, and in this module's alpha = 1
    form -C|lam|(1 - i beta (2/pi) sgn(lam) log|lam|) the law with beta = 1
    has its heavy tail on the left (it is scipy's beta = -1 in S1)."""
    a, c = params.alpha, params.scale_C
    if not a / 2.0 < p < math.inf:
        raise ValueError(f"limit_scale requires alpha/2 < p < inf, got p={p}, alpha={a}")
    if a >= 2.0:
        raise ValueError("limit_scale is undefined at the Gaussian boundary alpha=2")
    ratio = _cos_gamma(a / p) / _cos_gamma(a)
    beta = -1.0 if abs(a / p - 1.0) < ALPHA_ONE_TOL else 1.0
    return StableParams(a / p, c**p * ratio ** (p / a), beta)


def ref_cdf_half_stable(c_prime, x) -> float | np.ndarray:
    """CDF of the half-stable subordinator S_{1/2}(c', 1, 0), i.e. the Levy
    distribution with scale c': F(x) = erfc(sqrt(c' / (2x))) for x > 0.
    c_prime may be an array that broadcasts against x; scalar c_prime and x
    give a float."""
    c = np.asarray(c_prime, dtype=float)
    if not np.all(c > 0.0):
        raise ValueError("c_prime must be positive")
    xv = np.asarray(x, dtype=float)
    # x -> 0+ overflows c / (2x) to +inf, where erfc is exactly 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.where(xv > 0.0, _erfc(np.sqrt(c / (2.0 * xv))), 0.0)
    return float(out) if out.ndim == 0 else out


def sample_limit(params: StableParams, p: float, stream: RandomStream, size) -> np.ndarray:
    """An ndarray of the given shape drawn from the limiting law
    limit_scale(params, p) of the terminal p-variation of an
    S_alpha(C, beta, 0) Levy process."""
    return sample_stable(limit_scale(params, p), stream, size)
