"""Coverage probability and area spectral efficiency: exact expressions,
closed-form bounds, density scaling envelopes, and the optimal-density
solvers, together with the quadrature engine used for expectations over the
serving distance.

Every coverage expression reduces to E[exp(-E(x))] where x is the distance
to the nearest base station (PDF 2 pi lam x exp(-pi lam x^2)) and E is a
model-dependent nonnegative exponent.  Every coverage with a quadratic
exponent (g1 exact, lower and upper, g2 lower, ASE lower, the scaling
ratio) follows from one Gaussian tail identity over x >= x0,

    E[exp(-pi lam (1+x)(c (1+x) - d)); x >= x0]
        = exp(-pi lam (x0^2 + c (1+x0)^2 - d (1+x0))) (1 - q) / (1+c),
    q = pi sqrt(lam) m erfcx(z),   m = (c - d/2) / sqrt(1+c),
    z = sqrt(pi lam) (m + x0 sqrt(1+c)),

written with the scaled complement erfcx so that both terms share one
exponential prefactor and stay representable at any density.  Only g2's
exact coverage uses quadrature; cp_g1_quadrature keeps an independent
quadrature route for g1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .model import NetworkConfig, PathlossModel, _require_model, derived_constants

# v-space quadrature: with v = sqrt(pi lam) x the weight becomes 2 v exp(-v^2),
# which is negligible beyond _V_MAX regardless of the model (exponents only add
# decay).  Panels refine dyadically towards v = 0 where fractional powers of x
# leave the integrand analytic-except-at-zero.
_V_MAX = 28.0
_PANEL_LEVELS = 26
_PANEL_NODES = 24
_MAX_NODE_DOUBLINGS = 3
# successive node doublings must agree to this relative tolerance
_REL_TOL = 1e-9

# log-spaced points of the coarse scan that brackets the peak of an objective
_SCAN_POINTS = 16
# relative width of log-density at which the golden section stops
_ARGMAX_REL_TOL = 1e-6


class QuadratureError(RuntimeError):
    """Expectation failed to reach the requested tolerance at max order."""


class UnsupportedPathlossError(ValueError):
    """Requested an analytic coverage expression for a simulation-only model."""


class BracketError(RuntimeError):
    """Search bracket does not contain an interior maximum."""


@dataclass(frozen=True)
class CpValue:
    """Coverage probability with its evaluation route and unclamped raw value.

    The raw value is the route's own result, kept so that any rounding
    outside [0, 1] stays visible to tests; value itself is clamped to
    [0, 1] at this boundary only.
    """

    value: float
    method: str
    raw: float


@dataclass(frozen=True)
class AseValue:
    """Area spectral efficiency in bits/(s*Hz*m^2)."""

    value: float


def _cp(raw: float, method: str) -> CpValue:
    return CpValue(value=min(1.0, max(0.0, raw)), method=method, raw=raw)


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------

def _leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] for even n.

    Newton's method on the three-term recurrence of P_n refines the n/2
    positive nodes from Tricomi's cos(pi (k - 1/4)/(n + 1/2)), which lie
    within O(n^-2) of them, so four steps reach double precision; the
    weights are 2/((1 - x^2) P_n'(x)^2), and the rule is mirrored (Hale &
    Townsend, SIAM J. Sci. Comput. 35, 2013).  numpy's leggauss would load
    an eigensolver instead, about 2 MB in every process.
    """
    k = np.arange(n // 2, 0, -1.0)
    x = np.cos(math.pi * (k - 0.25) / (n + 0.5))
    for _ in range(4):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, (2 * j - 1) / j * x * p1 - (j - 1) / j * p0
        # (x^2 - 1) P_n' = n (x P_n - P_{n-1})
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # each half's weights are rescaled to sum to 1, so that the rule
    # integrates 1 exactly, as numpy's leggauss does; unscaled, the 24- and
    # 48-node rules sum 1e-15 short of 2
    w /= w.sum()
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


@lru_cache(maxsize=_MAX_NODE_DOUBLINGS + 1)
def _origin_panel_rule(nodes: int):
    """Nodes v and weights of the composite rule on [0, _V_MAX], with the
    integrand's density-free terms -(v*v) and 2 v, which every density
    shares; all four read-only."""
    edges = np.concatenate([[0.0], _V_MAX * 2.0 ** -np.arange(_PANEL_LEVELS, -1, -1.0)])
    mids, halfs = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    t, w = _leggauss(nodes)
    v = (mids[:, None] + halfs[:, None] * t[None, :]).ravel()
    wts = (halfs[:, None] * w[None, :]).ravel()
    rule = (v, wts, -(v * v), 2.0 * v)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _pi_lambda(lam: float) -> float:
    """pi lam as a Python float; an OverflowError where it leaves the float range."""
    a = math.pi * float(lam)
    if not math.isfinite(a):
        raise OverflowError(f"pi*lambda overflows at lambda={lam:g} BS/m^2")
    return a


def expectation_over_serving_distance(exponent, lam: float) -> float:
    """The quadrature engine: E[exp(-exponent(x))] over the serving
    distance x at one density lam, doubling the nodes per panel until two
    sums agree.

    exponent must accept a distance array and return nonnegative values in
    a new float array of the same shape, which the integrand overwrites.  A
    density that is not positive (NaN included) raises a ValueError, and
    one whose pi lam overflows an OverflowError, before any node is
    computed; a rule that does not converge raises a QuadratureError.
    """
    if not lam > 0.0:
        raise ValueError(f"density must be positive, got lambda={lam:g} BS/m^2")
    sqrt_a = math.sqrt(_pi_lambda(lam))
    prev = 0.0
    # the exponent is nonnegative, so one that overflows to +inf is a zero
    # integrand
    with np.errstate(over="ignore"):
        for level in range(_MAX_NODE_DOUBLINGS + 1):
            v, wts, neg_v2, two_v = _origin_panel_rule(_PANEL_NODES << level)
            y = exponent(v / sqrt_a)
            np.subtract(neg_v2, y, out=y)
            np.exp(y, out=y)
            y *= two_v
            cur = float(wts @ y)
            # freed for the next exponent call to reuse
            del y
            if level and abs(cur - prev) <= _REL_TOL * max(abs(cur), 1e-300):
                return cur
            prev = cur
    raise QuadratureError(
        f"adaptive rule did not reach rel_tol={_REL_TOL:g} at lam={lam:g} "
        f"({_PANEL_NODES << _MAX_NODE_DOUBLINGS} nodes per panel)"
    )


# ---------------------------------------------------------------------------
# model-specific exponents
# ---------------------------------------------------------------------------

# beyond this distance every interferer, farther still, sees 1/(1+d^a) as
# d^-a in double precision (d^-a < 2^-960), so the g2 exponent is the
# unbounded law's c1 pi lam x^2 = c1 v^2.  Short of it no product inside the
# series branches overflows (x^2 <= 2^960, their shape factors below
# alpha/2 < 2^53); past it they can, and x*x itself does from 2^512.  The
# quadrature reaches it only below about 2.6e-287 BS/m^2.
_X_UNBOUNDED = 2.0**480


def _exponent_g2(x, lam: float, alpha: float, tau: float):
    """Exponent of the inverse-polynomial model's coverage integrand.

    Raw form is 2 pi lam tau (1+x^a)/((a-2) x^(a-2)) * H_b(y) with b = 1 - 2/a
    and y = tau + (1+tau) x^(-a).  With u = 1/(1+x^a) and D = 1 + tau (1+x^a),
    y = D/x^a and 1 + y = (x^a + D)/x^a = (1+tau)(1+x^a)/x^a, so the series
    argument of specfun is w = y/(1+y) = (tau + u)/(1+tau), 1/(1+y) = 1 - w,
    and the x^(2-a) factor cancels algebraically in both branches:

        w <= 1/2:  E = K x^2 F(b+1; w) / (1+tau)
        w >  1/2:  E = K [ (b pi/sin(pi b)) (1+x^a) D^(-b)
                           - (b/(1-b)) x^2 F(2-b; 1-w) / (1+tau) ],

    K = 2 pi lam tau/(a-2), F = specfun.hyf_series, and
    (1+x^a) D^(-b) = (1+x^a)^(2/a) (tau + u)^(-b).  Where x^a overflows,
    u = 0 and (1+x^a)^(2/a) = x^2 in double precision, so no alpha
    overflows; past _X_UNBOUNDED the exponent is c1 v^2 instead.  x is a
    1-d array of distances x >= 0, on which the branch choice relies, and
    lam one density.  Each pass writes into an array the call owns; x is
    only read.
    """
    x = np.asarray(x, dtype=float)
    if not x.size:
        return np.empty_like(x)
    if x.max() > _X_UNBOUNDED:
        huge = x > _X_UNBOUNDED
        out = np.empty_like(x)
        out[~huge] = _exponent_g2(x[~huge], lam, alpha, tau)
        v = x[huge] * math.sqrt(math.pi * lam)
        out[huge] = derived_constants(alpha, tau).c1 * (v * v)
        return out
    b = specfun.hyf_shapes(alpha)[0]
    k = 2.0 * math.pi * lam * tau / (alpha - 2.0)

    def near(x2, w, w_max):
        # k/(1+tau) x^2 F(b+1; w), in x2's array
        x2 *= k / (1.0 + tau)
        x2 *= specfun._hyf_series(w, b + 1.0, w_max)
        return x2

    def far(x, grow, tau_u, w, w_min, overflowed):
        # grow holds 1 + x^a and takes the result, tau_u takes (tau + u)^-b,
        # and w takes 1 - w and then x^2
        np.subtract(1.0, w, out=w)
        # 1 - w falls as w grows, and rounding is monotone
        series = specfun._hyf_series(w, 2.0 - b, 1.0 - w_min)
        x2 = np.multiply(x, x, out=w)
        grow **= 2.0 / alpha
        if overflowed:
            np.copyto(grow, x2, where=np.isinf(grow))
        grow *= b * math.pi / math.sin(math.pi * b)
        tau_u **= -b
        grow *= tau_u
        x2 *= b / (1.0 - b)
        x2 /= 1.0 + tau
        x2 *= series
        grow -= x2
        grow *= k
        return grow

    # x^a, then 1 + x^a in the same array; u = 1/(1 + x^a), then tau + u
    with np.errstate(over="ignore"):
        grow = x**alpha
    grow += 1.0
    tau_u = np.divide(1.0, grow)
    # at distances x >= 0, u >= 0 and rounding is monotone, so no w lies
    # below tau/(1+tau) as rounded, and a node where x^a overflowed (u = 0)
    # has exactly that w: above 1/2 every node is far, and only there can a
    # far node have overflowed
    if tau / (1.0 + tau) > 0.5:
        u_min = float(tau_u.min())
        tau_u += tau
        w = np.divide(tau_u, 1.0 + tau)
        # w, like u, is smallest at the smallest u
        return far(x, grow, tau_u, w, (tau + u_min) / (1.0 + tau), not u_min > 0.0)
    tau_u += tau
    w = np.divide(tau_u, 1.0 + tau)
    is_near = w <= 0.5
    n_near = int(np.count_nonzero(is_near))
    if n_near == x.size:
        return near(np.multiply(x, x, out=grow), w, float(w.max()))
    if not n_near:
        return far(x, grow, tau_u, w, float(w.min()), False)
    is_far = ~is_near
    w_far = w[is_far]
    out_far = far(x[is_far], grow[is_far], tau_u[is_far], w_far, float(w_far.min()), False)
    x_near, w_near = x[is_near], w[is_near]
    # the far nodes' values of grow were gathered above, so its array takes
    # the result
    grow[is_near] = near(np.multiply(x_near, x_near, out=x_near), w_near, float(w_near.max()))
    grow[is_far] = out_far
    return grow


# ---------------------------------------------------------------------------
# coverage probability
# ---------------------------------------------------------------------------

def cp_upm(cfg: NetworkConfig) -> CpValue:
    """Coverage under the unbounded law: 1/(1 + c1), independent of density
    and transmit power (c1 is the classical interference factor)."""
    dc = derived_constants(cfg.alpha, cfg.tau)
    return _cp(1.0 / (1.0 + dc.c1), "closed_form")


def cp_g1_quadrature(cfg: NetworkConfig) -> CpValue:
    """The additive-offset coverage by the independent quadrature route:
    direct expectation of exp(-pi lam (1+x)(c1 (1+x) - c2))."""
    dc = derived_constants(cfg.alpha, cfg.tau)
    lam = cfg.lambda_bs
    val = expectation_over_serving_distance(
        lambda x: math.pi * lam * (1.0 + x) * (dc.c1 * (1.0 + x) - dc.c2), lam)
    return _cp(val, "quadrature")


def _quadratic_gain_tail(lam: float, c: float, x0: float = 0.0,
                         relief: float = 0.0) -> tuple[float, float]:
    """E[exp(-pi lam (1+x)(c (1+x) - relief)); x >= x0] by the identity of
    the module docstring, and q, the ratio of its correction term to its
    leading one, which stays finite where the expectation underflows.  With
    0 <= relief <= c, m lies in [c/(2 sqrt(1+c)), c/sqrt(1+c)], below
    sqrt(c), so no step of m or q overflows for any finite c.  z does only
    where pi lam c nears the square of the float range, and there the
    prefactor is 0."""
    a = _pi_lambda(lam)
    root_a, s = math.sqrt(a), math.sqrt(1.0 + c)
    m = (c - 0.5 * relief) / s
    z = root_a * m + x0 * root_a * s
    prefactor = math.exp(-a * (x0 * x0 + c * (1.0 + x0) ** 2 - relief * (1.0 + x0)))
    if z == math.inf:
        # q has reached its limit sqrt(pi lam) m/z
        return 0.0, m / (m + x0 * s)
    if x0 == 0.0 and z >= specfun._ERFC_SWITCH:
        # here q = z/f with f = z + t the erfc continued fraction, so
        # 1 - q = t/(z + t) holds no cancellation as q nears 1
        t = specfun.erfc_cf_tail(z)
        return prefactor * (t / (z + t)) / (1.0 + c), z / (z + t)
    # sqrt(pi lam) m is z's first term, so it times erfcx(z) stays below
    # 1/sqrt(pi) and above q's own size: neither over- nor underflows first
    q = specfun._SQRT_PI * ((root_a * m) * specfun.erfcx(z))
    return prefactor * (1.0 - q) / (1.0 + c), q


def cp_g1_closed(cfg: NetworkConfig) -> CpValue:
    """Exact additive-offset coverage: the tail identity of the module
    docstring at c = c1 with relief c2 over x >= 0.  The paper prints it
    with an erfc(-z) - 2 factor, which cancels in the deep tail; this form
    does not, so raw stays positive at any density."""
    dc = derived_constants(cfg.alpha, cfg.tau)
    return _cp(_quadratic_gain_tail(cfg.lambda_bs, dc.c1, relief=dc.c2)[0], "closed_form")


def _g2_tail_gain(alpha: float, c1: float) -> float:
    """beta = 2^(alpha-2) c1, the gain of the g2 lower bound's quadratic
    exponent; an OverflowError names it where it leaves the float range."""
    e = alpha - 2.0
    try:
        # 2^e alone overflows from e = 1024; a small c1 keeps beta finite longer
        beta = 2.0**e * c1 if e < 1024.0 else math.ldexp(2.0 ** (e % 1.0) * c1, int(e))
    except OverflowError:
        beta = math.inf
    if beta == math.inf:
        raise OverflowError(f"beta = 2^(alpha-2) c1 overflows at alpha={alpha:g}")
    return beta


def cp_g1_lower(cfg: NetworkConfig) -> CpValue:
    """Lower bound: drop the -c2 relief from the exponent (c -> c1)."""
    dc = derived_constants(cfg.alpha, cfg.tau)
    return _cp(_quadratic_gain_tail(cfg.lambda_bs, dc.c1)[0], "closed_form")


def cp_g1_upper(cfg: NetworkConfig) -> CpValue:
    """Upper bound: scale the relief with distance (c -> c_hat)."""
    dc = derived_constants(cfg.alpha, cfg.tau)
    return _cp(_quadratic_gain_tail(cfg.lambda_bs, dc.c_hat)[0], "closed_form")


def cp_g2(cfg: NetworkConfig) -> CpValue:
    """Coverage under the inverse-polynomial bounded law, by quadrature."""
    lam = cfg.lambda_bs
    val = expectation_over_serving_distance(
        lambda x: _exponent_g2(x, lam, cfg.alpha, cfg.tau), lam)
    return _cp(val, "quadrature")


def cp_g2_lower(cfg: NetworkConfig) -> CpValue:
    """Lower bound for the inverse-polynomial law: tail integral over
    x >= 1 of exp(-pi lam beta (1+x)^2), beta = 2^(a-2) c1.

    The restriction is the plain tail integral (no renormalization); being a
    sub-integral of a positive integrand it is a valid lower bound on its own,
    and ase_lower scales it into the throughput envelope.
    """
    beta = _g2_tail_gain(cfg.alpha, derived_constants(cfg.alpha, cfg.tau).c1)
    return _cp(_quadratic_gain_tail(cfg.lambda_bs, beta, 1.0)[0], "closed_form")


def cp_g2_upper(cfg: NetworkConfig) -> CpValue:
    """Upper bound E[exp(-pi lam c_hat (1+x^2)/2^a)] = e^(-pi lam c_hat 2^-a)/(1 + c_hat 2^-a)."""
    dc = derived_constants(cfg.alpha, cfg.tau)
    k = dc.c_hat * 2.0**-cfg.alpha
    raw = math.exp(-math.pi * cfg.lambda_bs * k) / (1.0 + k)
    return _cp(raw, "closed_form")


def coverage_curves(model: PathlossModel) -> tuple:
    """The model's coverage curves (exact, lower, upper), None where it has
    none; looked up at each call, so a wrapper put in this namespace is used
    by cp_for_model.  A model that is not a PathlossModel raises TypeError."""
    if model is PathlossModel.UNBOUNDED:
        return cp_upm, None, None
    if model is PathlossModel.BOUNDED_G1:
        return cp_g1_closed, cp_g1_lower, cp_g1_upper
    if model is PathlossModel.BOUNDED_G2:
        return cp_g2, cp_g2_lower, cp_g2_upper
    _require_model(model)
    return None, None, None


def cp_for_model(cfg: NetworkConfig, model: PathlossModel) -> CpValue:
    """Analytic coverage dispatcher: closed forms except the quadrature of
    g2; the min(1, d^-alpha) law is simulation-only."""
    exact = coverage_curves(model)[0]
    if exact is None:
        raise UnsupportedPathlossError(
            "min(1, d^-alpha) has no analytic coverage expression; use the simulator")
    return exact(cfg)


def coverage_curve(model: PathlossModel, alpha: float, tau: float, lams) -> list[CpValue]:
    """cp_for_model(NetworkConfig(lam, alpha, tau), model) at each density
    of a 1-d sequence, in order; the first density that fails raises."""
    grid = np.asarray(lams, dtype=float)
    if grid.ndim != 1 or not grid.size:
        raise ValueError("lams must be a non-empty 1-d sequence of densities")
    return [cp_for_model(NetworkConfig(lam, alpha, tau), model) for lam in grid.tolist()]


# ---------------------------------------------------------------------------
# area spectral efficiency
# ---------------------------------------------------------------------------

def spectral_efficiency(tau: float) -> float:
    """log2(1 + tau) by log1p, which keeps its digits where 1 + tau rounds."""
    return math.log1p(tau) / math.log(2.0)


def rate_function(cfg: NetworkConfig) -> float:
    """lam e^(-kappa_upper lam), the density scaling of the ASE envelopes."""
    lam = cfg.lambda_bs
    return lam * math.exp(-derived_constants(cfg.alpha, cfg.tau).kappa_upper * lam)


def ase(cfg: NetworkConfig, cp: CpValue) -> AseValue:
    """Throughput density lam * CP * log2(1 + tau)."""
    if not 0.0 <= cp.value <= 1.0:
        raise ValueError(f"coverage must lie in [0, 1], got {cp.value}")
    return AseValue(cfg.lambda_bs * cp.value * spectral_efficiency(cfg.tau))


def ase_upper(cfg: NetworkConfig) -> AseValue:
    """Upper envelope lam log2(1+tau) e^(-kappa_upper lam) / (1 + 2^-a c_hat),
    the ASE of the g2 upper bound; exactly proportional to rate_function."""
    return ase(cfg, cp_g2_upper(cfg))


def ase_lower(cfg: NetworkConfig) -> AseValue:
    """Lower envelope: the ASE of the g2 tail bound cp_g2_lower.

    Underflows to zero once pi lam (1 + 2^a c1) exceeds the float range;
    scaling_envelope_check carries the ratio form that stays finite.
    """
    return ase(cfg, cp_g2_lower(cfg))


# ---------------------------------------------------------------------------
# optimal density
# ---------------------------------------------------------------------------

def optimal_density_closed(alpha: float, tau: float) -> float:
    """Density maximizing the upper envelope: 2^a/(pi c_hat), the stationary
    point of lam e^(-kappa_upper lam)."""
    dc = derived_constants(alpha, tau)
    # after the checks, so that a string stays their error; a float32 alpha
    # would take 2^alpha in float32
    alpha, tau = float(alpha), float(tau)
    try:
        # 2^a alone overflows from a = 1024, where 2^a/(pi c_hat) may not
        lam = (2.0**alpha / (math.pi * dc.c_hat) if alpha < 1024.0
               else math.ldexp(2.0 ** (alpha % 1.0) / (math.pi * dc.c_hat), int(alpha)))
    except OverflowError:
        lam = math.inf
    if lam == math.inf:
        raise OverflowError(f"2^alpha/(pi c_hat) overflows at alpha={alpha:g}, tau={tau:g}")
    return lam


def golden_section_max(fn, lo: float, hi: float, rel_tol: float = _ARGMAX_REL_TOL) -> float:
    """Derivative-free maximizer of a unimodal positive-argument function.

    Works on log-density so rel_tol bounds |lam - lam*|/lam*, down to the
    spacing of floats near log(lam*), where the search stops; rel_tol must
    be positive and finite.  A coarse scan first brackets the peak; a
    maximum sitting on a bracket edge (monotone objective) raises
    BracketError, and so does a constant one.  A NaN, which the search
    would compare as a number, raises a FloatingPointError at the first
    density, of the scan and then the steps, where fn is NaN.
    """
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"bracket must satisfy 0 < lo < hi < inf, got ({lo}, {hi})")

    def checked(lam, val):
        if math.isnan(val):
            raise FloatingPointError(f"objective is NaN at lambda={lam:g} BS/m^2")
        return val

    # the whole scan first, so that a failure of fn comes before a NaN
    grid = np.geomspace(lo, hi, _SCAN_POINTS)
    scan = list(map(checked, grid.tolist(), [fn(g) for g in grid]))
    if min(scan) == max(scan):
        raise BracketError(f"objective is constant on the bracket, {scan[0]:g} at every point")
    imax = int(np.argmax(scan))
    # the scan's best point and its neighbours, clipped to the bracket
    edge_lo = math.log(grid[max(imax - 1, 0)])
    edge_hi = math.log(grid[min(imax + 1, _SCAN_POINTS - 1)])
    u_lo, u_hi = edge_lo, edge_hi

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    u1 = u_hi - invphi * (u_hi - u_lo)
    u2 = u_lo + invphi * (u_hi - u_lo)
    f1 = checked(lam := math.exp(u1), fn(lam))
    f2 = checked(lam := math.exp(u2), fn(lam))
    while (width := u_hi - u_lo) > rel_tol:
        if f1 < f2:
            u_lo, u1, f1 = u1, u2, f2
            u2 = u_lo + invphi * (u_hi - u_lo)
            f2 = checked(lam := math.exp(u2), fn(lam))
        else:
            u_hi, u2, f2 = u2, u1, f1
            u1 = u_hi - invphi * (u_hi - u_lo)
            f1 = checked(lam := math.exp(u1), fn(lam))
        if u_hi - u_lo >= width:
            # rounding no longer shrinks the log-bracket
            break
    # a scan peak on a bracket edge that the search never left is the
    # maximum of a monotone objective, not an interior one
    if imax == 0 and u_lo == edge_lo:
        raise BracketError("objective is decreasing on the bracket; "
                           "maximum at the lower edge")
    if imax == _SCAN_POINTS - 1 and u_hi == edge_hi:
        raise BracketError("objective is increasing on the bracket; "
                           "maximum at the upper edge")
    return math.exp(0.5 * (u_lo + u_hi))


def optimal_density_numeric(cfg_template: NetworkConfig, model: PathlossModel,
                            bracket: tuple[float, float] = (1e-4, 10.0)) -> float:
    """Golden-section argmax of the exact throughput density for a model.

    With the unbounded law the objective is linear in density, so the search
    reports a bracket failure rather than an argmax.  min(1, d^-alpha) has no
    analytic curve, so its first evaluation raises UnsupportedPathlossError.
    """
    alpha, tau, p_bs = cfg_template.alpha, cfg_template.tau, cfg_template.p_bs

    def objective(lam: float) -> float:
        cfg = NetworkConfig(lam, alpha, tau, p_bs)
        return ase(cfg, cp_for_model(cfg, model)).value

    return golden_section_max(objective, *bracket)


# ---------------------------------------------------------------------------
# scaling envelope
# ---------------------------------------------------------------------------

# q of _quadratic_gain_tail lies below its limit beta/(1+2 beta), by about
# 1/(2 z^2) relative, so rounding decides the comparison only where z is
# above 1e7.  There q carries at most 18 u (u = 2^-53): 12 from the
# roundings of the square roots, z and the products, z's share passing
# through erfcx unchanged (its log-derivative is -1 there), so that the
# rounding of sqrt(pi lam), which scales z and the factor before erfcx
# alike, cancels; and 6 from erfcx itself, by its continued fraction.  The
# limit carries 4 u, this factor included.  The check allows over twice
# the sum.
_Q_ROUNDING = 1.0 + 48.0 * 2.0**-53
# the smallest normal float
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class ScalingPoint:
    lambda_bs: float
    lower_ratio: float      # A_L(lam) / (lam e^(-kappa_lower lam)), computed stably
    upper_ratio: float      # A_U(lam) / (lam e^(-kappa_upper lam)), constant by construction
    q2_over_q1: float       # correction-to-leading ratio of the lower envelope
    in_tail: bool
    ok: bool


@dataclass(frozen=True)
class ScalingReport:
    points: tuple[ScalingPoint, ...]
    lambda0: float          # tail threshold (closed-form optimal density)
    m: float                # min tail lower_ratio: A_L >= m lam e^(-kappa_lower lam)
    big_m: float            # exact constant: A_U = big_m lam e^(-kappa_upper lam)
    all_pass: bool


def scaling_envelope_check(alpha: float, tau: float, lambda_grid) -> ScalingReport:
    """Diagnose the density scaling envelope on a grid.

    The upper envelope is exactly proportional to lam e^(-kappa_upper lam);
    the lower one satisfies

        A_L / (lam e^(-kappa_lower lam)) = log2(1+tau)/(1+beta) * (1 - q),
        q = beta pi sqrt(lam) erfcx(z)/sqrt(1+beta),
        z = sqrt(pi lam)(1+2 beta)/sqrt(1+beta),  beta = 2^(a-2) c1,
        kappa_lower = pi (1 + 4 beta),

    the tail identity of the module docstring at c = beta, x0 = 1 with its
    exponential factor cancelled exactly, so the ratio stays finite long
    after the envelope itself underflows.  The correction ratio q rises
    towards beta/(1+2 beta) < 1/2, which keeps the tail constant m positive;
    a point passes when q stays below that limit within rounding.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("lambda_grid must be a non-empty 1-d sequence")
    if not np.all((grid > 0.0) & np.isfinite(grid)):
        raise ValueError("lambda_grid must be positive and finite")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("lambda_grid must be sorted ascending")
    dc = derived_constants(alpha, tau)
    alpha, tau = float(alpha), float(tau)
    lam0 = optimal_density_closed(alpha, tau)
    if grid[-1] < 10.0 * lam0:
        need = (f"needs >= {10.0 * lam0:g}" if 10.0 * lam0 < math.inf
                else f"10 lambda0 = 10 x {lam0:g} lies past the float range")
        raise ValueError(
            f"grid max {grid[-1]:g} does not reach the large-density regime ({need})")
    se = spectral_efficiency(tau)
    beta = _g2_tail_gain(alpha, dc.c1)
    q_max = _Q_ROUNDING * (0.5 / (1.0 + 0.5 / beta))  # beta/(1+2 beta), no overflow
    big_m = se / (1.0 + 2.0**-alpha * dc.c_hat)

    points = []
    for lam in map(float, grid):
        q2q1 = _quadratic_gain_tail(lam, beta, 1.0)[1]
        lower_ratio = se / (1.0 + beta) * (1.0 - q2q1)
        # the upper envelope is proportional to its rate function by
        # construction; recompute the ratio where the rate, the bound and
        # the envelope are normal floats, since a subnormal holds too few
        # digits for the test below
        cfg = NetworkConfig(lam, alpha, tau)
        cp_hi = cp_g2_upper(cfg)
        a_u = ase(cfg, cp_hi).value
        rf = rate_function(cfg)
        upper_ratio = a_u / rf if min(rf, cp_hi.value, a_u) >= _TINY else big_m
        in_tail = lam >= lam0
        ok = lower_ratio > 0.0 and 0.0 < q2q1 <= q_max \
            and abs(upper_ratio - big_m) <= 1e-12 * big_m
        points.append(ScalingPoint(lam, lower_ratio, upper_ratio, q2q1, in_tail, ok))
    # the last point is in the tail: the grid reaches 10 lam0
    m = min(p.lower_ratio for p in points if p.in_tail)
    return ScalingReport(tuple(points), lam0, m, big_m, all(p.ok for p in points))
