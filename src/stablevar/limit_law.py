"""Limit objects of the p-variation convergence: the limiting stable law
S_{alpha/p}(C', 1, 0) with its scale transfer C' = C'(C, alpha, p), and the
half-stable subordinator reference law."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, gamma as gamma_fn

from stablevar.stable_law import RandomStream, StableParams, sample_stable


def _cos_gamma(z: float) -> float:
    """cos(pi z / 2) * Gamma(1 - z) for z in (0, 2).

    Both factors diverge at z = 1 but the product is finite; the reflection
    formula gives the everywhere-regular form pi / (2 sin(pi z / 2) Gamma(z)).
    """
    if not 0.0 < z < 2.0:
        raise ValueError(f"argument must be in (0, 2), got {z}")
    return math.pi / (2.0 * math.sin(math.pi * z / 2.0) * gamma_fn(z))


def limit_scale(params: StableParams, p: float) -> StableParams:
    """The limiting law S_{alpha/p}(C', 1, 0) of the (compensated) terminal
    p-variation, whose scale is

        C' = C^p ( cos(pi alpha / 2p) Gamma(1 - alpha/p)
                   / (cos(pi alpha / 2) Gamma(1 - alpha)) )^{p/alpha},

    and C' = C on the exact test p == alpha, the switch pvariation.compensator
    makes. Otherwise the removable singularities at alpha = 1 and alpha/p = 1
    go through the regularized composite, so C' is continuous as alpha/p
    crosses 1; its limit there is C at alpha = 1 but not in general."""
    a, c = params.alpha, params.scale_C
    if p <= a / 2.0:
        raise ValueError(f"limit_scale requires p > alpha/2, got p={p}, alpha={a}")
    if p == a:
        return StableParams(1.0, c, 1.0)
    if a >= 2.0:
        raise ValueError("limit_scale is undefined at the Gaussian boundary alpha=2")
    ratio = _cos_gamma(a / p) / _cos_gamma(a)
    return StableParams(a / p, c**p * ratio ** (p / a), 1.0)


def ref_cdf_half_stable(c_prime, x) -> float | np.ndarray:
    """CDF of the half-stable subordinator S_{1/2}(c', 1, 0), i.e. the Levy
    distribution with scale c': F(x) = erfc(sqrt(c' / (2x))) for x > 0.
    c_prime may be an array that broadcasts against x; scalar c_prime and x
    give a float."""
    c = np.asarray(c_prime, dtype=float)
    if not np.all(c > 0.0):
        raise ValueError("c_prime must be positive")
    xv = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(xv > 0.0, erfc(np.sqrt(c / (2.0 * xv))), 0.0)
    return float(out) if out.ndim == 0 else out


def sample_limit(params: StableParams, p: float, stream: RandomStream, size=None):
    """Draws from the limiting law limit_scale(params, p) of the terminal
    p-variation of an S_alpha(C, beta, 0) Levy process."""
    return sample_stable(limit_scale(params, p), stream, size=size)
