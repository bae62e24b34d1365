"""Independent oracles the tests freeze expected values against.

The quadrature oracles deliberately evaluate defining integrals through
QUADPACK routes that share nothing with the package's own panel/series
evaluations.  hyf_series_reference is the plain term-by-term series loop,
kept as the exact reference for specfun.hyf_series, exponent_g2_reference
is the g2 coverage exponent by boolean masks on that loop, kept as the
exact reference for analytic._exponent_g2, inline_panel_rule is the
composite v-rule with its density-free terms built from scratch and
expectation_reference integrates on it as analytic's quadrature does (the
two rebuild every cached array on each call), g1_printed_form is
the paper's closed form of the g1 coverage as printed,
g1_tail_identity_mp is the package's g1 tail identity at 50 digits, and
gauss_legendre_mp is mpmath's Gauss-Legendre rule at 40 digits (the same
Newton iteration as the package's, so it checks the rounding of the
double-precision rule).
"""

import math

import mpmath
import numpy as np
from scipy import integrate

from densecov import analytic


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


def exponent_g2_reference(x, lam, alpha, tau):
    """The inverse-polynomial law's coverage exponent as analytic._exponent_g2
    defines it, each series branch gathered by a boolean mask, summed by
    hyf_series_reference and scattered back, whichever branches hold nodes."""
    x = np.asarray(x, dtype=float)
    b = 1.0 - 2.0 / alpha
    k = 2.0 * math.pi * lam * tau / (alpha - 2.0)
    with np.errstate(over="ignore"):
        xa = x**alpha
    u = 1.0 / (1.0 + xa)
    w = (tau + u) / (1.0 + tau)
    x2 = x * x
    out = np.empty_like(x)
    near = w <= 0.5
    out[near] = k / (1.0 + tau) * x2[near] * hyf_series_reference(w[near], b + 1.0)
    far = ~near
    xaf = xa[far]
    grow = np.where(np.isinf(xaf), x2[far], (1.0 + xaf) ** (2.0 / alpha))
    out[far] = k * (b * math.pi / math.sin(math.pi * b) * grow * (tau + u[far]) ** -b
                    - b / (1.0 - b) * x2[far] / (1.0 + tau)
                    * hyf_series_reference(1.0 - w[far], 2.0 - b))
    return out


def inline_panel_rule(v_lo, nodes):
    """The composite v-rule built from scratch on a freshly computed
    Gauss-Legendre rule, as every call once built it: nodes, weights and the
    density-free terms -(v*v) and 2 v."""
    span = analytic._V_MAX - v_lo
    edges = np.concatenate(
        [[v_lo], v_lo + span * 2.0 ** -np.arange(analytic._PANEL_LEVELS, -1, -1.0)])
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    t, w = analytic._leggauss(nodes)
    v = (mids[:, None] + halfs[:, None] * t[None, :]).ravel()
    wts = (halfs[:, None] * w[None, :]).ravel()
    return v, wts, -(v * v), 2.0 * v


def expectation_reference(exponent, lam):
    """expectation_over_serving_distance on a rule rebuilt at every node
    count of every call, with -(v*v) and 2 v formed in each evaluation."""
    sqrt_a = math.sqrt(math.pi * lam)
    nodes, prev = analytic._PANEL_NODES, None
    for _ in range(analytic._MAX_NODE_DOUBLINGS + 1):
        v, wts, _, _ = inline_panel_rule(0.0, nodes)
        with np.errstate(over="ignore"):
            cur = float(wts @ (2.0 * v * np.exp(-(v * v) - exponent(v / sqrt_a))))
        if prev is not None and abs(cur - prev) <= analytic._REL_TOL * max(abs(cur), 1e-300):
            return cur
        nodes, prev = 2 * nodes, cur
    raise analytic.QuadratureError(f"no convergence at lam={lam:g}")


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


def gauss_legendre_mp(n):
    """Gauss-Legendre nodes and weights on [-1, 1], ascending, rounded to
    double from mpmath's rule at 40 digits.  mpmath's degree m has
    3 * 2^(m-1) nodes, so n must be of that form."""
    m = n.bit_length() - 1
    if n != 3 * 2 ** (m - 1):
        raise ValueError(f"mpmath has no {n}-node Gauss-Legendre rule")
    with mpmath.workdps(40):
        rule = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp)
        nodes = sorted(rule.calc_nodes(m, mpmath.mp.prec))
        return (np.array([float(x) for x, _ in nodes]),
                np.array([float(w) for _, w in nodes]))


def gain_distance_form(tag, alpha, d):
    """The gain laws as written in the distance d, at 40 digits at the exact
    values of the float inputs, rounded to double: d^-alpha (upm, d > 0),
    (1+d)^-alpha (g1), 1/(1+d^alpha) (g2) and min(1, d^-alpha) (minb)."""
    with mpmath.workdps(40):
        a, d = mpmath.mpf(alpha), mpmath.mpf(d)
        if tag == "upm":
            g = d ** -a
        elif tag == "g1":
            g = (1 + d) ** -a
        elif tag == "g2":
            g = 1 / (1 + d ** a)
        elif tag == "minb":
            g = 1 if d <= 1 else d ** -a
        else:
            raise ValueError(f"unknown model tag {tag!r}")
        return float(g)
