"""Special functions behind the coverage formulas.

Provides the complementary error function, its scaled variant, and the
one-parameter Gauss hypergeometric family

    H_b(y) = 2F1(1, b; b+1; -y) = b * int_0^1 t^(b-1) / (1 + y t) dt,

for b in (0, 1) and y >= 0, which is the only hypergeometric shape the
interference integrals need (with b = 1 - delta and b = 1 - delta/2,
delta = 2/alpha).  H_b is evaluated from the power series
F(c; w) = 2F1(1, 1; c; w) = sum_k k!/(c)_k w^k through the Pfaff and
1 - z connection formulas (DLMF 15.8):

    y <= 1:  H_b(y) = F(b+1; y/(1+y)) / (1+y)
    y >  1:  H_b(y) = (b pi/sin(pi b)) y^(-b) - (b/(1-b)) F(2-b; 1/(1+y)) / (1+y)

Either series argument is at most 1/2, so the terms fall geometrically at
least that fast for every y.  Everything is evaluated from series
definitions rather than library calls, so the accuracy claims can be
audited against independent quadrature oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _legendre

_SQRT_PI = math.sqrt(math.pi)

# hyf_series terms at least halve, so the last of 56 is below 2^-56 = 1.4e-17
_SERIES_TERMS = 56

# erfc: Maclaurin series below the switch point, Gauss continued fraction
# (modified Lentz) above it.
_ERFC_SWITCH = 2.0
_CF_MAX_ITER = 400
_CF_EXACT = 1e8


@dataclass(frozen=True)
class HypParams:
    """Shape parameter of the hypergeometric family, delta = 2/alpha in (0, 1)."""

    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")

    @classmethod
    def from_alpha(cls, alpha: float) -> "HypParams":
        if not alpha > 2.0:
            raise ValueError(f"alpha must exceed 2, got {alpha}")
        return cls(delta=2.0 / alpha)


def erfc(x: float) -> float:
    """Complementary error function (2/sqrt(pi)) * int_x^inf exp(-t^2) dt.

    Maclaurin series of erf for |x| < 2, Gauss continued fraction for the
    tail, reflection for negative arguments.  Relative accuracy is a couple
    of orders below 1e-12 on [-6, 6] (checked against the defining integral
    in the tests).
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"erfc requires a finite argument, got {x}")
    if x < 0.0:
        return 2.0 - erfc(-x)
    if x < _ERFC_SWITCH:
        return 1.0 - 2.0 / _SQRT_PI * _erf_series(x)
    return math.exp(-x * x) / (_SQRT_PI * _erfc_cf_denominator(x))


def erfcx(x: float) -> float:
    """Scaled complement exp(x^2) * erfc(x); stays representable for large x."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"erfcx requires a finite argument, got {x}")
    if x < 0.0:
        return 2.0 * math.exp(x * x) - erfcx(-x)
    if x < _ERFC_SWITCH:
        return math.exp(x * x) * (1.0 - 2.0 / _SQRT_PI * _erf_series(x))
    return 1.0 / (_SQRT_PI * _erfc_cf_denominator(x))


def _erf_series(x: float) -> float:
    # int_0^x exp(-t^2) dt = sum_k (-1)^k x^(2k+1) / (k! (2k+1))
    term = x
    total = x
    k = 0
    while True:
        k += 1
        term *= -x * x / k
        contrib = term / (2 * k + 1)
        total += contrib
        if abs(contrib) <= 1e-18 * abs(total):
            return total


def _erfc_cf_denominator(x: float) -> float:
    # erfc(x) = exp(-x^2)/sqrt(pi) * 1/f with the Gauss continued fraction
    # f = x + (1/2)/(x + 1/(x + (3/2)/(x + 2/(x + ...)))), evaluated by
    # modified Lentz.  Converges quickly for x >= 2.  Beyond _CF_EXACT the
    # fraction's relative correction 1/(2 x^2) is below half an ulp, f = x in
    # double precision, and the Lentz ratios may never round to exactly 1.
    if x >= _CF_EXACT:
        return x
    tiny = 1e-300
    f = x
    c = x
    d = 0.0
    for k in range(1, _CF_MAX_ITER):
        coef = 0.5 * k
        d = x + coef * d
        if d == 0.0:
            d = tiny
        c = x + coef / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            return f
    raise RuntimeError(f"erfc continued fraction failed to converge at x={x}")


@lru_cache(maxsize=None)
def _leggauss(n: int):
    """Gauss-Legendre nodes and weights for n in _legendre.RULES."""
    half = np.array([float(tok) for tok in _legendre.RULES[n].split()])
    x, w = half[: n // 2], half[n // 2:]
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


@lru_cache(maxsize=64)
def _series_ratios(c: float) -> tuple[float, ...]:
    return tuple((k + 1.0) / (c + k) for k in range(_SERIES_TERMS))


def hyf_series(w, c: float):
    """F(c; w) = 2F1(1, 1; c; w) = sum_k k!/(c)_k w^k for 0 <= w <= 1/2, c >= 1.

    Term k+1 is term k times w (k+1)/(c+k) <= 1/2 and the sum is at least 1,
    so the sum stops once every entry's last term is at most 1e-17, or after
    _SERIES_TERMS terms, when each is below 1.4e-17.  Every term grows with w
    and rounding is monotone, so the largest argument's term is the last to
    fall that far: the term count comes from replaying the recurrence on
    w.max() alone, and every entry then takes exactly that many terms.
    """
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        return np.ones_like(w)
    w_max = float(w.max())
    # written so that a NaN fails the check
    if not (w.min() >= 0.0 and w_max <= 0.5):
        raise ValueError("series argument must lie in [0, 1/2]")
    ratios = _series_ratios(c)
    t = 1.0
    n = _SERIES_TERMS
    for k, r in enumerate(ratios):
        t = t * w_max * r
        if not t > 1e-17:
            n = k + 1
            break
    total = np.ones_like(w)
    term = np.ones_like(w)
    for r in ratios[:n]:
        np.multiply(term, w, out=term)
        np.multiply(term, r, out=term)
        total += term
    return total


def _hyf(y, b: float):
    scalar = np.isscalar(y) or getattr(y, "ndim", 0) == 0
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("hypergeometric argument must be finite and >= 0")
    out = np.empty_like(arr)
    near = arr <= 1.0
    yn = arr[near]
    out[near] = hyf_series(yn / (1.0 + yn), b + 1.0) / (1.0 + yn)
    far = ~near
    yf = arr[far]
    out[far] = (b * math.pi / math.sin(math.pi * b) * yf**-b
                - b / (1.0 - b) * hyf_series(1.0 / (1.0 + yf), 2.0 - b) / (1.0 + yf))
    return float(out[0]) if scalar else out


def hyf1(x, p: HypParams):
    """First hypergeometric family 2F1(1, 1-delta; 2-delta; -x), x >= 0."""
    return _hyf(x, 1.0 - p.delta)


def hyf2(x, p: HypParams):
    """Second hypergeometric family 2F1(1, 1-delta/2; 2-delta/2; -x), x >= 0."""
    return _hyf(x, 1.0 - 0.5 * p.delta)


def f1(x, alpha: float):
    """First monotone functional: hyf1 itself (strictly decreasing in x)."""
    return hyf1(x, HypParams.from_alpha(alpha))


def f2(x, alpha: float):
    """Second monotone functional hyf1(x)/(alpha-2) - hyf2(x)/(alpha-1)."""
    p = HypParams.from_alpha(alpha)
    return hyf1(x, p) / (alpha - 2.0) - hyf2(x, p) / (alpha - 1.0)


def f3(x, alpha: float):
    """Ratio hyf2(x)/hyf1(x): decreasing from 1 at x = 0, stays in (0, 1]."""
    p = HypParams.from_alpha(alpha)
    return hyf2(x, p) / hyf1(x, p)
