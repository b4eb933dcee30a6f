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


ALPHA_ONE_TOL = 1e-12
"""An alpha within this distance of 1 takes the alpha = 1 formulas. It only
absorbs rounding in a computed alpha that is 1 in exact arithmetic (about 4500
ulps of 1.0). It is not a continuity window: for beta != 0 this
parametrization is discontinuous at alpha = 1, where tan(pi alpha / 2)
diverges, and any alpha outside the tolerance keeps the alpha != 1 formulas."""


@dataclass(frozen=True)
class StableParams:
    """Parameters of the stable law S_alpha(C, beta, 0).

    alpha in (0, 2], 0 < scale_C < inf, beta in [-1, 1]. beta is ignored at
    alpha = 2 (the Gaussian boundary, variance 2 C^2).
    """

    alpha: float
    scale_C: float
    beta: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not 0.0 < self.scale_C < math.inf:
            raise ValueError(f"scale_C must be finite and positive, got {self.scale_C}")
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

    def generator(self, skip: int = 0) -> np.random.Generator:
        """Fresh counter-based generator positioned after the stream's first
        skip 64-bit outputs, as if skip uniform doubles had been drawn."""
        key = np.array([self.seed % 2**64, self.stream_index], dtype=np.uint64)
        bits = np.random.Philox(key=key)
        # Philox makes four outputs per counter step
        bits.advance(skip // 4)
        bits.random_raw(skip % 4)
        return np.random.Generator(bits)


def _cms_standard(alpha: float, beta: float, v: np.ndarray, w: np.ndarray, t: np.ndarray) -> None:
    """Chambers-Mallows-Stuck transform, in place, to S_alpha(1, beta, 0) in
    this module's parametrization for every alpha, 1 and 2 included: v holds
    the uniform angles on (-pi/2, pi/2) and receives the draws, w holds the
    standard exponentials, and w and t (the shape of v) are overwritten. Every
    operation is the elementwise one of the textbook formula, in its order,
    so the draws do not depend on how the caller splits the arrays."""
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        # (2/pi) (bv tan v + beta log((pi/2) w cos v / bv)), bv = pi/2 - beta v
        w *= math.pi / 2.0
        np.cos(v, out=t)
        w *= t
        np.multiply(v, beta, out=t)
        np.subtract(math.pi / 2.0, t, out=t)
        w /= t
        np.log(w, out=w)
        w *= beta
        np.tan(v, out=v)
        v *= t
        v += w
        v *= 2.0 / math.pi
        return
    # s sin(a) / cos(v)^(1/alpha) * (cos(v - a) / w)^((1 - alpha)/alpha),
    # a = alpha (v + b); a is formed twice rather than held in a fourth buffer.
    # At alpha = 2, where tan(pi) rounds to -1.2e-16, zeta is 0 so that beta
    # has no effect: the draw is 2 sin(v) sqrt(w), N(0, 2) as in Box-Muller
    zeta = 0.0 if alpha == 2.0 else beta * math.tan(math.pi * alpha / 2.0)
    b = math.atan(zeta) / alpha
    s = (1.0 + zeta * zeta) ** (1.0 / (2.0 * alpha))
    np.add(v, b, out=t)
    t *= alpha
    np.subtract(v, t, out=t)
    np.cos(t, out=t)
    np.divide(t, w, out=w)
    w **= (1.0 - alpha) / alpha
    np.add(v, b, out=t)
    t *= alpha
    np.sin(t, out=t)
    t *= s
    np.cos(v, out=v)
    v **= 1.0 / alpha
    np.divide(t, v, out=v)
    v *= w


class StableDraws:
    """Successive column chunks of sample_stable(params, stream, size), one
    row per stream: fills of widths k_1, k_2, ... that add up to size give
    row i exactly the draws of sample_stable(params, streams[i], size).

    Each stream has its own generators, so threads may fill disjoint rows at
    the same time. CMS draws take size uniforms, then size exponentials, from
    the stream. A stream whose first fill takes all size draws continues one
    generator from its uniforms to its exponentials, as a one-shot draw
    does; otherwise the exponentials come from a second generator that
    starts where the uniforms end."""

    def __init__(self, params: StableParams, streams: list[RandomStream], size: int):
        self.params = params
        self.size = size
        self._streams = streams
        self._drawn = np.zeros(len(streams), dtype=np.int64)
        self._generators = [s.generator() for s in streams]
        self._exponentials: list[np.random.Generator | None] = [None] * len(streams)

    def fill(self, out: np.ndarray, lo: int = 0) -> None:
        """Write the next out.shape[1] draws of streams lo .. lo + len(out) - 1
        into the rows of out, a C-contiguous 2-D float64 array, using two
        scratch arrays of its size. Raises ValueError if that would take a
        stream past size draws, where its uniforms would run into its
        exponentials."""
        a, c, beta = self.params.alpha, self.params.scale_C, self.params.beta
        rows, k = out.shape
        drawn = self._drawn[lo:lo + rows]
        if len(drawn) != rows or rows and drawn.max() + k > self.size:
            raise ValueError(f"{k} more draws of streams {lo} .. {lo + rows - 1} exceed size={self.size}")
        drawn += k
        w, t = np.empty((2, rows, k))
        for i, v_row, w_row in zip(range(lo, lo + rows), out, w):
            uniform = self._generators[i]
            uniform.random(out=v_row)
            if self._exponentials[i] is None:
                self._exponentials[i] = (
                    uniform if k == self.size else self._streams[i].generator(skip=self.size))
            self._exponentials[i].standard_exponential(out=w_row)
        out -= 0.5
        out *= math.pi
        _cms_standard(a, beta, out, w, t)
        out *= c
        if abs(a - 1.0) < ALPHA_ONE_TOL:
            # at alpha = 1 scaling is not closed under the log term: C times
            # an S_1(1, beta, 0) draw is S_1(C, beta, 0) shifted by
            # (2/pi) beta C log C (Samorodnitsky & Taqqu 1994, Property 1.2.3)
            out -= (2.0 / math.pi) * beta * c * math.log(c)


def sample_stable(params: StableParams, stream: RandomStream, size) -> np.ndarray:
    """Draw an ndarray of the given shape from S_alpha(C, beta, 0).

    The draw sequence is a pure function of (params, stream).
    """
    out = np.empty(size)
    StableDraws(params, [stream], out.size).fill(out.reshape(1, -1))
    return out


def _horner(x: np.ndarray, coeffs) -> np.ndarray:
    """The polynomial with coefficients coeffs, highest degree first (at least
    two), at the array x by Horner's rule: x c_0 + c_1, then times x plus
    c_2, and so on, in place on one new array."""
    acc = x * coeffs[0]
    acc += coeffs[1]
    for coeff in coeffs[2:]:
        acc *= x
        acc += coeff
    return acc


_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0)
"""B_2k / (2k (2k - 1)) for k = 1 .. 8, the coefficients of Stirling's series."""


def _loggamma(z) -> np.ndarray:
    """log Gamma(z), elementwise, for a complex or real array z with Re z > -1
    away from the pole at 0. Ten steps of Gamma(z) = Gamma(z + 10) / (z (z + 1)
    ... (z + 9)) lift the argument to Re w > 9, where the first term that
    Stirling's series (Abramowitz & Stegun 6.1.40) omits after its eighth is
    below 1.1e-17. The branch of the imaginary part is not the principal one
    everywhere: callers exponentiate or take the real part. On s = -1/2 + it
    the error of the imaginary part grows like one ulp of t log t (1.8e-12 at
    |t| = 2000)."""
    z = np.asarray(z, dtype=complex)
    w = z + 10.0
    shift = z.copy()
    for k in range(1, 10):
        shift *= z + k
    series = _horner(1.0 / (w * w), _STIRLING[::-1])
    return (w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi) + series / w - np.log(shift)


def _zeta(params: StableParams) -> float:
    """zeta = beta tan(pi alpha / 2), 0 at alpha = 2. At alpha = 1, beta != 0
    zeta is infinite and there are no closed-form moments: ValueError."""
    a, beta = params.alpha, params.beta
    if abs(a - 1.0) < ALPHA_ONE_TOL and beta != 0.0:
        raise ValueError(f"no closed-form moments at alpha = 1, beta != 0 (got beta={beta})")
    return 0.0 if a == 2.0 else beta * math.tan(math.pi * a / 2.0)


def _log_cos(w: np.ndarray) -> np.ndarray:
    """log cos w, elementwise, from exponentials: cos is even, and for
    Im w >= 0 cos w = e^{-iw} (1 + e^{2iw}) / 2 with |e^{2iw}| <= 1, so
    nothing overflows where cos w would. Callers exponentiate, so any branch
    will do."""
    w = np.where(w.imag < 0.0, -w, w)
    return -1j * w + np.log(1.0 + np.exp(2j * w)) - math.log(2.0)


def _log_abs_moment(params: StableParams, q) -> np.ndarray:
    """log E|L_1|^q, elementwise, for complex q with -1 < Re q < alpha
    (Samorodnitsky & Taqqu 1994, Property 1.2.17) in the duplication form,
    regular at q = 1:

        q log(2C) + log Gamma((1+q)/2) - (1/2) log pi
        + log Gamma(1 - q/alpha) - log Gamma(1 - q/2)
        + (q / 2 alpha) log(1 + zeta^2) + log cos((q/alpha) arctan zeta),

    zeta = beta tan(pi alpha / 2). At alpha = 2 the last two lines vanish but
    have poles at q = 2, 4, ...; the first line alone is N(0, 2C^2) for every
    Re q > -1. At alpha = 1, beta != 0 zeta is infinite: ValueError."""
    a, c = params.alpha, params.scale_C
    zeta = _zeta(params)
    q = np.asarray(q, dtype=complex)
    log_m = q * math.log(2.0 * c) + _loggamma((1.0 + q) / 2.0) - 0.5 * math.log(math.pi)
    if a == 2.0:
        return log_m
    return (
        log_m + _loggamma(1.0 - q / a) - _loggamma(1.0 - q / 2.0)
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
    return math.exp(float(_log_abs_moment(params, p).real))


SIN_STEP = 0.08
"""Node spacing in t of sin_moment's trapezoid rule."""

SIN_MAX_NODES = 2_000_000
"""Most trapezoid nodes sin_moment evaluates, about 2 s of work. The rule
needs 1.8e6 at |alpha - 1| = 1e-4 with beta = 0.5; nearer to alpha = 1, or at
larger |beta|, sin_moment raises ValueError."""

SIN_CHUNK = 65_536
"""Nodes summed per array, which bounds sin_moment's memory."""


def sin_moment(params: StableParams, n: int) -> float:
    """E sin(|L_1|^alpha / n) as one Mellin-Barnes integral (Zolotarev 1986,
    ch. 2): sin has Mellin transform Gamma(s) sin(pi s / 2) on -1 < Re s < 1, so

        E sin(|L_1|^alpha / n)
            = (1/pi) int_0^inf Re[Gamma(s) sin(pi s/2) n^s E|L_1|^{-alpha s}] dt

    on s = -1/2 + it, inside the moment's strip for every alpha, where n^s
    shrinks the integrand towards the size of the result. The integrand g(t)
    is analytic in the strip |Im t| < 1/2 and conj g(t) = g(-t), so the rule
    h (g(0)/2 + g(h) + g(2h) + ...) is half the trapezoid rule on the whole
    line, which converges geometrically, like exp(-pi / h) (Trefethen &
    Weideman 2014, SIAM Review 56:385): at h = SIN_STEP halving h moves the
    result by about 1e-14. The integrand decays like
    exp(-(pi/2 - |arctan zeta|) t), zeta = beta tan(pi alpha / 2), and the
    rule stops at t = 45 / (pi/2 - |arctan zeta|) + 5, where that factor is
    e^-45. The nodes are summed SIN_CHUNK at a time, so memory stays bounded.
    The node count, about 420 at zeta = 0, grows like 1/|alpha - 1| as
    alpha -> 1 with beta != 0; where it would pass SIN_MAX_NODES, ValueError.
    Raises ValueError at alpha = 1, beta != 0, as abs_moment does."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a, log_n = params.alpha, math.log(n)
    t_max = 45.0 / (math.pi / 2.0 - abs(math.atan(_zeta(params)))) + 5.0
    nodes = math.ceil(t_max / SIN_STEP) + 1
    if nodes > SIN_MAX_NODES:
        raise ValueError(
            f"sin_moment needs {nodes} quadrature nodes at alpha={a}, beta={params.beta}, "
            f"more than SIN_MAX_NODES={SIN_MAX_NODES}: alpha is too close to 1")
    total = 0.0
    for lo in range(0, nodes, SIN_CHUNK):
        s = -0.5 + 1j * (SIN_STEP * np.arange(lo, min(lo + SIN_CHUNK, nodes)))
        g = np.exp(
            _loggamma(s) + _log_cos(math.pi * (s - 1.0) / 2.0) + s * log_n
            + _log_abs_moment(params, -a * s)
        ).real
        if lo == 0:
            g[0] *= 0.5
        total += float(g.sum())
    return SIN_STEP * total / math.pi
