"""Alpha-stable laws S_alpha(C, beta, 0): parametrization, sampling, moment functionals.

The parametrization is the one with characteristic exponent

    -C^alpha |lam|^alpha (1 - i beta sgn(lam) tan(pi alpha / 2)),   alpha != 1,
    -C |lam| (1 - i beta (2/pi) sgn(lam) log|lam|),                 alpha  = 1,

so alpha = 2 is Gaussian with variance 2 C^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import loggamma


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


def _log_cos(w: complex) -> complex:
    """log cos w from exponentials: cos is even, and for Im w >= 0
    cos w = e^{-iw} (1 + e^{2iw}) / 2 with |e^{2iw}| <= 1, so nothing
    overflows where cos w would. Callers exponentiate, so any branch will do."""
    if w.imag < 0.0:
        w = -w
    return -1j * w + cmath.log(1.0 + cmath.exp(2j * w)) - math.log(2.0)


def _log_abs_moment(params: StableParams, q: complex) -> complex:
    """log E|L_1|^q for complex q with -1 < Re q < alpha (Samorodnitsky &
    Taqqu 1994, Property 1.2.17) in the duplication form, regular at q = 1:

        q log(2C) + log Gamma((1+q)/2) - (1/2) log pi
        + log Gamma(1 - q/alpha) - log Gamma(1 - q/2)
        + (q / 2 alpha) log(1 + zeta^2) + log cos((q/alpha) arctan zeta),

    zeta = beta tan(pi alpha / 2). At alpha = 2 the last two lines vanish but
    have poles at q = 2, 4, ...; the first line alone is N(0, 2C^2) for every
    Re q > -1. At alpha = 1, beta != 0 zeta is infinite: ValueError."""
    a, c, beta = params.alpha, params.scale_C, params.beta
    if abs(a - 1.0) < ALPHA_ONE_TOL and beta != 0.0:
        raise ValueError(f"no closed-form moments at alpha = 1, beta != 0 (got beta={beta})")
    log_m = q * math.log(2.0 * c) + loggamma((1.0 + q) / 2.0) - 0.5 * math.log(math.pi)
    if a == 2.0:
        return log_m
    zeta = beta * math.tan(math.pi * a / 2.0)
    return (
        log_m + loggamma(1.0 - q / a) - loggamma(1.0 - q / 2.0)
        + q / (2.0 * a) * math.log1p(zeta * zeta) + _log_cos(q / a * math.atan(zeta))
    )


def abs_moment(params: StableParams, p: float) -> float:
    """E|L_1|^p for 0 < p < alpha (every p > 0 at alpha = 2), in closed form.

    Raises ValueError at alpha = 1, beta != 0: no closed form exists there,
    and a compensator built on it would be wrong anyway, since one grid
    increment S_1(C/n, beta, 0) is L_1/n shifted by (2/pi) beta C log(n)/n."""
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    if p >= params.alpha and params.alpha < 2.0:
        raise ValueError(f"moment of order {p} is infinite for alpha={params.alpha}")
    return math.exp(_log_abs_moment(params, p).real)


def sin_moment(params: StableParams, n: int) -> float:
    """E sin(|L_1|^alpha / n) as one Mellin-Barnes integral (Zolotarev 1986,
    ch. 2): sin has Mellin transform Gamma(s) sin(pi s / 2) on -1 < Re s < 1, so

        E sin(|L_1|^alpha / n)
            = (1/pi) int_0^inf Re[Gamma(s) sin(pi s/2) n^s E|L_1|^{-alpha s}] dt

    on s = -1/2 + it, inside the moment's strip for every alpha, where n^s
    shrinks the integrand towards the size of the result. QUADPACK is asked
    for 1e-10 absolute or 1e-9 relative accuracy. The integrand decays like
    exp(-(pi/2 - |arctan zeta|) t), slowly as alpha -> 1 with beta != 0: within
    about 0.002 of alpha = 1 the quadrature may stop with an
    IntegrationWarning. Raises ValueError at alpha = 1, beta != 0, as
    abs_moment does."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a, log_n = params.alpha, math.log(n)

    def integrand(t):
        s = complex(-0.5, t)
        return cmath.exp(
            loggamma(s) + _log_cos(math.pi * (s - 1.0) / 2.0) + s * log_n
            + _log_abs_moment(params, -a * s)
        ).real

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=10_000, epsabs=1e-10, epsrel=1e-9)
    return val / math.pi
