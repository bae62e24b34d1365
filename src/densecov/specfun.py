"""Special functions behind the coverage formulas.

Provides the scaled complementary error function erfcx and the
one-parameter Gauss hypergeometric family

    H_b(y) = 2F1(1, b; b+1; -y) = b * int_0^1 t^(b-1) / (1 + y t) dt,

for b in (0, 1) and y >= 0, which is the only hypergeometric shape the
interference integrals need, with the shapes b1 = 1 - 2/alpha and
b2 = 1 - 1/alpha of hyf_shapes.  H_b is evaluated from the power series
F(c; w) = 2F1(1, 1; c; w) = sum_k k!/(c)_k w^k through the Pfaff and
1 - z connection formulas (DLMF 15.8):

    y <= 1:  H_b(y) = F(b+1; y/(1+y)) / (1+y)
    y >  1:  H_b(y) = (b pi/sin(pi b)) y^(-b) - (b/(1-b)) F(2-b; 1/(1+y)) / (1+y)

Either series argument is at most 1/2, so the terms fall geometrically at
least that fast for every y.  A batch is summed in one whole-array loop,
which stops once the largest argument's term is strictly below 2^-52.  Every
sum is at least 1 and each later term is below 2^-53, half an ulp of 1, so
adding it would round back to the same sum: the stop changes no bit.

erfc itself is the standard library's math.erfc, which is within a few
ulps of the true value (3.6e-16 worst relative error at 4801 points of
[-6, 6] against 40-digit mpmath, where a Maclaurin series of our own
reached 2.0e-13).  erfcx reads it below 2 and uses the Gauss continued
fraction above, where erfc underflows long before erfcx does.  The fraction
is evaluated as its tail beyond the leading x, erfc_cf_tail, which the
coverage identity also reads on its own, by a backward recurrence from a
fixed depth of 64 levels: within 1.7e-16 of 40-digit mpmath on [2, 1e9],
and erfcx within 3.2e-16 there.  The tests audit all three against
independent quadrature and mpmath oracles.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_SQRT_PI = math.sqrt(math.pi)

# hyf_series terms at least halve, so term k is at most 2^-k and the stop
# below 2^-52 comes by term 53; every term after the stop is below 2^-53 and
# leaves the sum, at least 1, unchanged under rounding to nearest
_SERIES_TERMS = 56
_SERIES_STOP = 2.0**-52

# erfcx: exp(x^2) erfc(x) below the switch point, Gauss continued fraction
# above it, evaluated backwards from a fixed depth.
_ERFC_SWITCH = 2.0
_CF_DEPTH = 64


def erfcx(x: float) -> float:
    """Scaled complement exp(x^2) * erfc(x); stays representable for large x.

    Raises OverflowError, naming x, where the result exceeds the float
    range (x below about -26.6)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"erfcx requires a finite argument, got {x}")
    if x >= _ERFC_SWITCH:
        f = x + erfc_cf_tail(x)
        # sqrt(pi) f overflows from about x = 1.0142e308; erfcx is subnormal
        if _SQRT_PI * f < math.inf:
            return 1.0 / (_SQRT_PI * f)
        return (1.0 / _SQRT_PI) / f
    # below about -26.6 the product is inf, or math.exp raises first
    try:
        y = math.exp(x * x) * math.erfc(x)
    except OverflowError:
        y = math.inf
    if y == math.inf:
        raise OverflowError(f"erfcx overflows at x={x:g}")
    return y


def erfc_cf_tail(x: float) -> float:
    """Tail t = f - x of the Gauss continued fraction behind
    erfc(x) = exp(-x^2)/sqrt(pi) * 1/f, for x >= 2, where

        f = x + (1/2)/(x + 1/(x + (3/2)/(x + 2/(x + ...)))),

    so that erfcx(x) = 1/(sqrt(pi) (x + t)).  t = (1/2)/g, with g the
    fraction from its second level on, keeps its full relative accuracy,
    which f - x would lose to cancellation.  g is evaluated backwards from
    level _CF_DEPTH; every level is positive, so no step cancels, and the
    truncation, largest at x = 2, is 4.7e-17 relative there.
    """
    # written so that a NaN fails the check
    if not x >= _ERFC_SWITCH:
        raise ValueError(f"erfc_cf_tail requires x >= {_ERFC_SWITCH:g}, got {x}")
    g = x
    for k in range(_CF_DEPTH, 1, -1):
        g = x + 0.5 * k / g
    return 0.5 / g


@lru_cache(maxsize=64)
def _series_ratios(c: float) -> tuple[float, ...]:
    return tuple((k + 1.0) / (c + k) for k in range(_SERIES_TERMS))


def hyf_series(w, c: float):
    """F(c; w) = 2F1(1, 1; c; w) = sum_k k!/(c)_k w^k for 0 <= w <= 1/2, c >= 1.

    Term k+1 is term k times w (k+1)/(c+k) <= 1/2 and the sum is at least 1,
    so the sum stops once every entry's last term is strictly below 2^-52:
    each later term is then below 2^-53, less than half an ulp of any sum,
    and rounds away.  The stop is strict because a term of exactly 2^-53 is
    a tie, which rounding to even may settle upwards (c = 1, w = 1/2 reaches
    it at the sum 2 - 2^-52, which becomes 2).  Every term grows with w and
    rounding is monotone, so the largest argument's term is the last to fall
    that far: one loop carries that term as the scalar t beside the arrays
    and stops on t alone, so every entry takes the same count of terms.
    """
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        return np.ones_like(w)
    w_max = float(w.max())
    # written so that a NaN fails the check
    if not (w.min() >= 0.0 and w_max <= 0.5):
        raise ValueError("series argument must lie in [0, 1/2]")
    total = np.ones_like(w)
    term = np.ones_like(w)
    t = 1.0
    for r in _series_ratios(c):
        np.multiply(term, w, out=term)
        np.multiply(term, r, out=term)
        total += term
        t = t * w_max * r
        if t < _SERIES_STOP:
            break
    return total


def hyf_shapes(alpha: float) -> tuple[float, float]:
    """Shapes (b1, b2) = (1 - 2/alpha, 1 - 1/alpha) of the two families
    behind c1 and c2, for alpha > 2."""
    if not alpha > 2.0:
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    b2 = 1.0 - 1.0 / alpha
    if b2 == 1.0:
        raise FloatingPointError(f"shape 1 - 1/alpha rounds to 1 at alpha={alpha:g}")
    return 1.0 - 2.0 / alpha, b2


def hyf(y, b: float):
    """H_b(y) = 2F1(1, b; b+1; -y) for finite y >= 0 and 0 < b < 1, scalar
    or array; strictly decreasing in y from H_b(0) = 1."""
    if not 0.0 < b < 1.0:
        raise ValueError(f"hypergeometric shape b must lie in (0, 1), got {b}")
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
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


def f1(x, alpha: float):
    """First monotone functional H_b1(x) (strictly decreasing in x)."""
    return hyf(x, hyf_shapes(alpha)[0])


def f2(x, alpha: float):
    """Second monotone functional H_b1(x)/(alpha-2) - H_b2(x)/(alpha-1)."""
    b1, b2 = hyf_shapes(alpha)
    return hyf(x, b1) / (alpha - 2.0) - hyf(x, b2) / (alpha - 1.0)


def f3(x, alpha: float):
    """Ratio H_b2(x)/H_b1(x): decreasing from 1 at x = 0, stays in (0, 1]."""
    b1, b2 = hyf_shapes(alpha)
    return hyf(x, b2) / hyf(x, b1)
