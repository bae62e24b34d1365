"""Independent oracles the tests freeze expected values against.

The quadrature oracles deliberately evaluate defining integrals through
QUADPACK routes that share nothing with the package's own panel/series
evaluations.  hyf_series_reference is the plain term-by-term series loop,
kept as the exact reference for specfun.hyf_series, g1_printed_form is
the paper's closed form of the g1 coverage as printed, and
g1_tail_identity_mp is the package's g1 tail identity at 50 digits.
"""

import math

import mpmath
import numpy as np
from scipy import integrate


def euler_integral(x, b):
    """b * int_0^1 t^(b-1) / (1 + x t) dt via the algebraic-endpoint-weight rule."""
    val, _ = integrate.quad(lambda t: 1.0 / (1.0 + x * t), 0.0, 1.0,
                            weight="alg", wvar=(b - 1.0, 0.0),
                            epsabs=1e-14, epsrel=1e-12, limit=400)
    return b * val


def erfc_defining_integral(x):
    """(2/sqrt(pi)) * int_x^inf exp(-t^2) dt by adaptive quadrature."""
    val, _ = integrate.quad(lambda t: np.exp(-t * t), x, np.inf,
                            epsabs=1e-300, epsrel=1e-13, limit=300)
    return 2.0 / np.sqrt(np.pi) * val


def serving_distance_expectation(fn, lam, x0=0.0):
    """E[fn(x); x >= x0] under the nearest-point distance PDF
    2 pi lam x e^(-pi lam x^2): the plain tail integral, not renormalized."""
    a = np.pi * lam
    val, _ = integrate.quad(lambda x: 2.0 * a * x * np.exp(-a * x * x) * fn(x),
                            x0, np.inf, epsabs=1e-300, epsrel=1e-11, limit=400)
    return val


def hyf_series_reference(w, c):
    """F(c; w) = 2F1(1, 1; c; w) summed until every entry's term is at most
    1e-17, checked after each term, or after 56 terms."""
    w = np.asarray(w, dtype=float)
    if np.any(~((0.0 <= w) & (w <= 0.5))):
        raise ValueError("series argument must lie in [0, 1/2]")
    total = np.ones_like(w)
    term = np.ones_like(w)
    for k in range(56):
        term = term * w * ((k + 1.0) / (c + k))
        total += term
        if not np.any(term > 1e-17):
            break
    return total


def g1_printed_form(lam, c1, c2, c_hat):
    """The paper's closed form of the (1+d)^-alpha coverage, as printed:

        e^(-pi lam c_hat)/(1+c1) + pi sqrt(lam) (c1+c_hat) / (2 (1+c1)^(3/2))
            * e^(pi lam (c2^2 - 4 c_hat)/(4 (1+c1))) * (erfc(-z) - 2),
        z = sqrt(pi lam) (c1+c_hat) / (2 sqrt(1+c1)).

    The erfc(-z) - 2 factor cancels deep in the tail, so the value drifts
    there (even below zero); it is kept as a check of the transcription, not
    as a reference for the tail."""
    z = math.sqrt(math.pi * lam) * (c1 + c_hat) / (2.0 * math.sqrt(1.0 + c1))
    tail_factor = math.erfc(-z) - 2.0
    raw = math.exp(-math.pi * lam * c_hat) / (1.0 + c1)
    if tail_factor != 0.0:
        # skipping an underflowed factor avoids 0 * inf when the exponential
        # prefactor grows (c2^2 > 4 c_hat at large thresholds)
        prefactor = (math.pi * math.sqrt(lam) * (c1 + c_hat)
                     * math.exp(math.pi * lam * (c2 * c2 - 4.0 * c_hat) / (4.0 * (1.0 + c1)))
                     / (2.0 * (1.0 + c1) ** 1.5))
        raw += prefactor * tail_factor
    return raw


def g1_tail_identity_mp(lam, c, relief):
    """E[exp(-pi lam (1+x)(c (1+x) - relief))] by the tail identity over
    x >= 0 with mpmath's erfc at 50 digits, at the exact values of the
    float inputs.  The exponent pi lam (c - relief) of the leading factor
    is taken as double arithmetic rounds it: that rounding moves the result
    by up to about 3e-16 times the exponent, which the condition of exp
    sets and no evaluation of the identity can remove, so the oracle leaves
    it out and compares the rest."""
    with mpmath.workdps(50):
        exponent = mpmath.mpf(math.pi * lam * (c - relief))
        lam, c, relief = (mpmath.mpf(v) for v in (lam, c, relief))
        m = (c - relief / 2) / mpmath.sqrt(1 + c)
        z = mpmath.sqrt(mpmath.pi * lam) * m
        q = mpmath.pi * mpmath.sqrt(lam) * m * mpmath.exp(z * z) * mpmath.erfc(z)
        return float(mpmath.exp(-exponent) * (1 - q) / (1 + c))
