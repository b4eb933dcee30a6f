"""Alpha-stable laws S_alpha(C, beta, 0): parametrization, sampling, moment functionals.

The parametrization is the one with characteristic exponent

    -C^alpha |lam|^alpha (1 - i beta sgn(lam) tan(pi alpha / 2)),   alpha != 1,
    -C |lam| (1 - i beta (2/pi) sgn(lam) log|lam|),                 alpha  = 1,

so alpha = 2 is Gaussian with variance 2 C^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn


ALPHA_ONE_TOL = 1e-12
"""An alpha within this distance of 1 takes the alpha = 1 formulas. It only
absorbs rounding in a computed alpha that is 1 in exact arithmetic (about 4500
ulps of 1.0). It is not a continuity window: for beta != 0 this
parametrization is discontinuous at alpha = 1, where tan(pi alpha / 2)
diverges, and any alpha outside the tolerance keeps the alpha != 1 formulas."""


@dataclass(frozen=True)
class StableParams:
    """Parameters of the stable law S_alpha(C, beta, 0).

    alpha in (0, 2], scale_C > 0, beta in [-1, 1]. beta is ignored at alpha = 2
    (the Gaussian boundary, variance 2 C^2).
    """

    alpha: float
    scale_C: float
    beta: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not self.scale_C > 0.0:
            raise ValueError(f"scale_C must be positive, got {self.scale_C}")
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [-1, 1], got {self.beta}")


@dataclass(frozen=True)
class RandomStream:
    """Immutable token identifying a reproducible random stream.

    Equal (seed, stream_index) pairs replay the same draws; distinct
    stream_index values give statistically independent Philox streams.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.stream_index < 0:
            raise ValueError("stream_index must be non-negative")

    def generator(self) -> np.random.Generator:
        """Fresh counter-based generator positioned at the stream start."""
        key = np.array([self.seed % 2**64, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _cms_standard(alpha: float, beta: float, rng: np.random.Generator, size) -> np.ndarray:
    """Chambers-Mallows-Stuck draws from S_alpha(1, beta, 0) in this module's
    parametrization, alpha = 1 included."""
    v = (rng.uniform(size=size) - 0.5) * math.pi
    w = rng.exponential(size=size)
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        bv = math.pi / 2.0 - beta * v
        return (2.0 / math.pi) * (
            bv * np.tan(v) + beta * np.log((math.pi / 2.0) * w * np.cos(v) / bv)
        )
    zeta = beta * math.tan(math.pi * alpha / 2.0)
    b = math.atan(zeta) / alpha
    s = (1.0 + zeta * zeta) ** (1.0 / (2.0 * alpha))
    x = (
        s
        * np.sin(alpha * (v + b))
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos(v - alpha * (v + b)) / w) ** ((1.0 - alpha) / alpha)
    )
    return x


def sample_stable(params: StableParams, stream: RandomStream, size=None):
    """Draw from S_alpha(C, beta, 0).

    Returns a scalar when size is None, else an ndarray of the given shape.
    The draw sequence is a pure function of (params, stream).
    """
    rng = stream.generator()
    n = 1 if size is None else size
    a, c, beta = params.alpha, params.scale_C, params.beta
    if a == 2.0:
        out = rng.normal(0.0, math.sqrt(2.0) * c, size=n)
    elif abs(a - 1.0) < ALPHA_ONE_TOL:
        # at alpha = 1 scaling is not closed under the log term: C times an
        # S_1(1, beta, 0) draw is S_1(C, beta, 0) shifted by (2/pi) beta C log C
        # (Samorodnitsky & Taqqu 1994, Property 1.2.3)
        out = c * _cms_standard(1.0, beta, rng, n) - (2.0 / math.pi) * beta * c * math.log(c)
    else:
        out = c * _cms_standard(a, beta, rng, n)
    if size is None:
        return float(out[0])
    return out


def _re_cf(params: StableParams, lam):
    """Real part of the characteristic function at lam >= 0."""
    a, c, beta = params.alpha, params.scale_C, params.beta
    if a == 2.0:
        return np.exp(-((c * lam) ** 2))
    u = (c * lam) ** a
    if abs(a - 1.0) < ALPHA_ONE_TOL:
        phase = c * lam * beta * (2.0 / math.pi) * np.log(np.maximum(lam, 1e-300))
    else:
        phase = u * beta * math.tan(math.pi * a / 2.0)
    return np.exp(-u) * np.cos(phase)


def tail_prob(params: StableParams, x: float) -> float:
    """P(|L_1| > x) by characteristic-function inversion (Gil-Pelaez):

        P(|X| > x) = 1 - (2/pi) int_0^inf sin(mu) Re phi(mu/x) dmu / mu,

    after rescaling to unit oscillation frequency. The head [0, pi] is smooth;
    the tail uses QUADPACK's accelerated sine-weighted rule."""
    if x <= 0.0:
        return 1.0

    def head(mu):
        return np.sin(mu) * _re_cf(params, mu / x) / mu

    def envelope(mu):
        return _re_cf(params, mu / x) / mu

    v1, _ = integrate.quad(head, 0.0, math.pi, limit=200, epsabs=1e-12, epsrel=1e-11)
    v2, _ = integrate.quad(
        envelope, math.pi, np.inf, weight="sin", wvar=1.0, limit=800, epsabs=1e-12,
    )
    val = v1 + v2
    return min(1.0, max(0.0, 1.0 - (2.0 / math.pi) * val))


def abs_moment(params: StableParams, p: float) -> float:
    """E|L_1|^p for 0 < p < alpha.

    Symmetric laws use the closed form
    C^p 2^p Gamma((1+p)/2) Gamma(1-p/alpha) / (Gamma(1-p/2) sqrt(pi));
    skewed laws integrate p x^{p-1} P(|L_1|>x) with the inverted tail.
    """
    a, c, beta = params.alpha, params.scale_C, params.beta
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    if p >= a and a < 2.0:
        raise ValueError(f"moment of order {p} is infinite for alpha={a}")
    if a == 2.0:
        # N(0, 2C^2): E|X|^p = sigma^p 2^{p/2} Gamma((p+1)/2) / sqrt(pi)
        sigma = math.sqrt(2.0) * c
        return sigma**p * 2 ** (p / 2.0) * gamma_fn((p + 1.0) / 2.0) / math.sqrt(math.pi)
    if beta == 0.0:
        return (
            c**p
            * 2**p
            * gamma_fn((1.0 + p) / 2.0)
            * gamma_fn(1.0 - p / a)
            / (gamma_fn(1.0 - p / 2.0) * math.sqrt(math.pi))
        )

    def integrand(x):
        return x ** (p - 1.0) * tail_prob(params, x)

    # the tail decays like x^{p-1-alpha}; split at the scale to help quadpack
    val1, _ = integrate.quad(integrand, 0.0, c, limit=200, epsrel=1e-6)
    val2, _ = integrate.quad(integrand, c, np.inf, limit=200, epsrel=1e-6)
    return p * (val1 + val2)


def sin_moment(params: StableParams, n: int) -> float:
    """E sin(|L_1|^alpha / n) to absolute accuracy 1e-6.

    Integration by parts against the survival function of U = |L_1|^alpha
    gives int_0^inf cos(u) P(|L_1| > (nu)^{1/alpha}) du, a damped oscillatory
    integral handled by QUADPACK's cosine-weighted rule."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a = params.alpha

    def survival(u):
        if u <= 0.0:
            return 1.0
        return tail_prob(params, (n * u) ** (1.0 / a))

    val, _ = integrate.quad(
        survival, 0.0, np.inf, weight="cos", wvar=1.0, limit=1000, epsabs=1e-8,
    )
    return val
