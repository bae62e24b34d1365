"""Coverage probability and area spectral efficiency: exact expressions,
closed-form bounds, density scaling envelopes, and the optimal-density
solvers, together with the quadrature engine used for expectations over the
serving distance.

Every coverage expression reduces to E[exp(-E(x))] where x is the distance
to the nearest base station (PDF 2 pi lam x exp(-pi lam x^2)) and E is a
model-dependent nonnegative exponent.  The closed forms in this module all
follow from the Gaussian-type identity

    E[exp(-pi lam c (1+x)^2)]
        = exp(-pi lam c) [ 1/(1+c)
            - pi sqrt(lam) c erfcx(z) / (1+c)^(3/2) ],   z = sqrt(pi lam) c / sqrt(1+c),

written with the scaled complement erfcx so that both terms share one
exponential prefactor and stay representable at any density.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .model import (
    DerivedConstants,
    NetworkConfig,
    PathlossModel,
    derived_constants,
)

# v-space quadrature: with v = sqrt(pi lam) x the weight becomes 2 v exp(-v^2),
# which is negligible beyond _V_MAX regardless of the model (exponents only add
# decay).  Panels refine dyadically towards v = 0 where fractional powers of x
# leave the integrand analytic-except-at-zero.
_V_MAX = 28.0
_PANEL_LEVELS = 26
_PANEL_NODES = 24
_MAX_NODE_DOUBLINGS = 3

# Switch to the large-argument hypergeometric form once its argument exceeds
# this; the two branches agree to ~1e-15 at the seam (tested), far inside the
# 1e-9 agreement the coverage tolerances need.
_Y_CROSSOVER = 1e6

_EQ_CONSISTENCY_TOL = 1e-6


class QuadratureError(RuntimeError):
    """Expectation failed to reach the requested tolerance at max order."""


class ConsistencyError(RuntimeError):
    """Closed form and quadrature disagree beyond the transcription tolerance."""

    def __init__(self, closed_value: float, quadrature_value: float, tol: float):
        self.closed_value = closed_value
        self.quadrature_value = quadrature_value
        self.tol = tol
        super().__init__(
            f"closed form {closed_value!r} vs quadrature {quadrature_value!r} "
            f"differ by {abs(closed_value - quadrature_value):.3e} (> {tol:g}); "
            "quadrature is authoritative"
        )


class UnsupportedPathlossError(ValueError):
    """Requested an analytic coverage expression for a simulation-only model."""


class BracketError(RuntimeError):
    """Search bracket does not contain an interior maximum."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance for serving-distance expectations, met by the composite
    Gauss-Legendre scheme described above: successive node doublings must
    agree to rel_tol."""

    rel_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-7:
            raise ValueError(f"rel_tol must lie in (0, 1e-7], got {self.rel_tol}")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class CpValue:
    """Coverage probability with its evaluation route and unclamped raw value.

    The raw value is kept so cancellation artifacts (tiny negatives deep in
    the tail of the closed forms) stay visible to tests; value itself is
    clamped to [0, 1] at this boundary only.
    """

    value: float
    method: str
    raw: float


@dataclass(frozen=True)
class AseValue:
    """Area spectral efficiency in bits/(s*Hz*m^2) at a given density."""

    value: float
    lambda_bs: float


def _cp(raw: float, method: str) -> CpValue:
    return CpValue(value=min(1.0, max(0.0, raw)), method=method, raw=raw)


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------

def expectation_over_serving_distance(exponent, lam: float,
                                      spec: QuadratureSpec | None = None,
                                      min_distance: float = 0.0) -> float:
    """E[exp(-exponent(x))] over the serving distance x, optionally restricted
    to x >= min_distance (the restricted form is the plain tail integral, not
    renormalized by the tail probability).

    exponent must accept a distance array and return nonnegative values.
    """
    spec = spec or DEFAULT_QUADRATURE
    sqrt_a = math.sqrt(math.pi * lam)
    v_lo = min_distance * sqrt_a
    if v_lo >= _V_MAX:
        return 0.0
    span = _V_MAX - v_lo
    edges = np.concatenate([[v_lo], v_lo + span * 2.0 ** -np.arange(_PANEL_LEVELS, -1, -1.0)])
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])

    def evaluate(nodes: int) -> float:
        t, w = specfun._leggauss(nodes)
        v = (mids[:, None] + halfs[:, None] * t[None, :]).ravel()
        wts = (halfs[:, None] * w[None, :]).ravel()
        x = v / sqrt_a
        log_integrand = -(v * v) - exponent(x)
        return float(wts @ (2.0 * v * np.exp(log_integrand)))

    nodes = _PANEL_NODES
    prev = evaluate(nodes)
    for _ in range(_MAX_NODE_DOUBLINGS):
        nodes *= 2
        cur = evaluate(nodes)
        if abs(cur - prev) <= spec.rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError(
        f"adaptive rule did not reach rel_tol={spec.rel_tol:g} at lam={lam:g} "
        f"({nodes} nodes per panel)"
    )


# ---------------------------------------------------------------------------
# model-specific exponents
# ---------------------------------------------------------------------------

def _exponent_g1(x, lam: float, dc: DerivedConstants):
    x = np.asarray(x, dtype=float)
    return math.pi * lam * (1.0 + x) * (dc.c1 * (1.0 + x) - dc.c2)


def _exponent_g2(x, lam: float, alpha: float, tau: float):
    """Exponent of the inverse-polynomial model's coverage integrand.

    Raw form is 2 pi lam tau (1+x^a)/((a-2) x^(a-2)) * H1(y) with
    y = (1 + tau (1+x^a))/x^a.  As x -> 0, y -> inf and H1(y) ~ C y^(delta-1)
    cancels the x^(2-a) blow-up exactly; past the crossover the cancellation
    is done algebraically with the large-argument form so the limit is
    evaluated stably:

        E = (2 pi lam tau/(a-2)) (1+x^a)
            * [ b pi/sin(pi b) / D^b - b x^2 S(y) / D ],   D = 1 + tau (1+x^a),

    with b = 1 - 2/a and S the alternating tail sum.
    """
    x = np.asarray(x, dtype=float)
    delta = 2.0 / alpha
    b = 1.0 - delta
    p = specfun.HypParams(delta)
    xa = x**alpha
    with np.errstate(divide="ignore"):
        y = (1.0 + tau * (1.0 + xa)) / xa
    out = np.empty_like(x)
    direct = y <= _Y_CROSSOVER
    if np.any(direct):
        xd = x[direct]
        out[direct] = (2.0 * math.pi * lam * tau * (1.0 + xa[direct])
                       / ((alpha - 2.0) * xd ** (alpha - 2.0))
                       * specfun.hyf1(y[direct], p))
    limiting = ~direct
    if np.any(limiting):
        xl = x[limiting]
        xal = xa[limiting]
        den = 1.0 + tau * (1.0 + xal)
        lead = b * math.pi / math.sin(math.pi * b) / den**b
        corr = b * xl * xl / den * specfun.hyf_tail_sum(y[limiting], b)
        out[limiting] = 2.0 * math.pi * lam * tau / (alpha - 2.0) * (1.0 + xal) * (lead - corr)
    return out


def _exponent_g2_lower(x, lam: float, alpha: float, dc: DerivedConstants):
    x = np.asarray(x, dtype=float)
    return math.pi * lam * dc.c1 * 2.0 ** (alpha - 2.0) * (1.0 + x) ** 2


# ---------------------------------------------------------------------------
# coverage probability
# ---------------------------------------------------------------------------

def cp_upm(cfg: NetworkConfig) -> CpValue:
    """Coverage under the unbounded law: 1/(1 + c1), independent of density
    and transmit power (c1 is the classical interference factor)."""
    dc = derived_constants(cfg.alpha, cfg.tau)
    return _cp(1.0 / (1.0 + dc.c1), "closed_form")


def cp_g1_quadrature(cfg: NetworkConfig, spec: QuadratureSpec | None = None) -> CpValue:
    """Ground truth for the additive-offset bounded model: direct expectation
    of exp(-pi lam (1+x)(c1 (1+x) - c2))."""
    dc = derived_constants(cfg.alpha, cfg.tau)
    lam = cfg.lambda_bs
    val = expectation_over_serving_distance(
        lambda x: _exponent_g1(x, lam, dc), lam, spec)
    return _cp(val, "quadrature")


def cp_g1_closed(cfg: NetworkConfig, spec: QuadratureSpec | None = None,
                 verify: bool = True) -> CpValue:
    """Closed form of the additive-offset coverage, evaluated as printed
    (complete-the-square Gaussian identity with an erfc(-z) - 2 factor).

    By default the value is cross-checked against the quadrature route and a
    ConsistencyError raised if they disagree beyond 1e-6; clamping happens
    only after the check.  Deep in the tail the printed form cancels
    catastrophically (raw may go slightly negative); the raw field keeps
    that visible.
    """
    dc = derived_constants(cfg.alpha, cfg.tau)
    lam = cfg.lambda_bs
    c1, c2, c_hat = dc.c1, dc.c2, dc.c_hat
    z = math.sqrt(math.pi * lam) * (c1 + c_hat) / (2.0 * math.sqrt(1.0 + c1))
    tail_factor = specfun.erfc(-z) - 2.0
    raw = math.exp(-math.pi * lam * c_hat) / (1.0 + c1)
    if tail_factor != 0.0:
        # skipping an underflowed factor avoids 0 * inf when the printed
        # exponential prefactor grows (c2^2 > 4 c_hat at large thresholds)
        prefactor = (math.pi * math.sqrt(lam) * (c1 + c_hat)
                     * math.exp(math.pi * lam * (c2 * c2 - 4.0 * c_hat)
                                / (4.0 * (1.0 + c1)))
                     / (2.0 * (1.0 + c1) ** 1.5))
        raw += prefactor * tail_factor
    if verify:
        quad = cp_g1_quadrature(cfg, spec)
        if abs(raw - quad.raw) > _EQ_CONSISTENCY_TOL:
            raise ConsistencyError(raw, quad.raw, _EQ_CONSISTENCY_TOL)
    return _cp(raw, "closed_form")


def _quadratic_gain_expectation(lam: float, c: float) -> float:
    """E[exp(-pi lam c (1+x)^2)] in the erfcx folding of the module docstring."""
    z = math.sqrt(math.pi * lam) * c / math.sqrt(1.0 + c)
    bracket = 1.0 / (1.0 + c) \
        - math.pi * math.sqrt(lam) * c * specfun.erfcx(z) / (1.0 + c) ** 1.5
    return math.exp(-math.pi * lam * c) * bracket


def cp_g1_lower(cfg: NetworkConfig) -> CpValue:
    """Lower bound: drop the -c2 relief from the exponent (c -> c1)."""
    dc = derived_constants(cfg.alpha, cfg.tau)
    return _cp(_quadratic_gain_expectation(cfg.lambda_bs, dc.c1), "closed_form")


def cp_g1_upper(cfg: NetworkConfig) -> CpValue:
    """Upper bound: scale the relief with distance (c -> c_hat)."""
    dc = derived_constants(cfg.alpha, cfg.tau)
    return _cp(_quadratic_gain_expectation(cfg.lambda_bs, dc.c_hat), "closed_form")


def cp_g2(cfg: NetworkConfig, spec: QuadratureSpec | None = None) -> CpValue:
    """Coverage under the inverse-polynomial bounded law, by quadrature."""
    lam = cfg.lambda_bs
    val = expectation_over_serving_distance(
        lambda x: _exponent_g2(x, lam, cfg.alpha, cfg.tau), lam, spec)
    return _cp(val, "quadrature")


def cp_g2_lower(cfg: NetworkConfig, spec: QuadratureSpec | None = None) -> CpValue:
    """Lower bound for the inverse-polynomial law: tail integral over
    x >= 1 of exp(-pi lam c1 2^(a-2) (1+x)^2).

    The restriction is the plain tail integral (no renormalization); that is
    what the matching closed-form throughput bound integrates to, and being a
    sub-integral of a positive integrand it is a valid lower bound on its own.
    """
    dc = derived_constants(cfg.alpha, cfg.tau)
    lam = cfg.lambda_bs
    val = expectation_over_serving_distance(
        lambda x: _exponent_g2_lower(x, lam, cfg.alpha, dc), lam, spec,
        min_distance=1.0)
    return _cp(val, "quadrature")


def cp_g2_upper(cfg: NetworkConfig) -> CpValue:
    """Upper bound E[exp(-pi lam c_hat (1+x^2)/2^a)] = e^(-pi lam c_hat 2^-a)/(1 + c_hat 2^-a)."""
    dc = derived_constants(cfg.alpha, cfg.tau)
    k = dc.c_hat * 2.0**-cfg.alpha
    raw = math.exp(-math.pi * cfg.lambda_bs * k) / (1.0 + k)
    return _cp(raw, "closed_form")


def cp_for_model(cfg: NetworkConfig, model: PathlossModel,
                 spec: QuadratureSpec | None = None) -> CpValue:
    """Analytic coverage dispatcher; quadrature is authoritative for the
    bounded models.  The min(1, d^-alpha) law is simulation-only."""
    if model is PathlossModel.UNBOUNDED:
        return cp_upm(cfg)
    if model is PathlossModel.BOUNDED_G1:
        return cp_g1_quadrature(cfg, spec)
    if model is PathlossModel.BOUNDED_G2:
        return cp_g2(cfg, spec)
    raise UnsupportedPathlossError(
        "min(1, d^-alpha) has no analytic coverage expression; use the simulator"
    )


# ---------------------------------------------------------------------------
# area spectral efficiency
# ---------------------------------------------------------------------------

def ase(cfg: NetworkConfig, cp: CpValue) -> AseValue:
    """Throughput density lam * CP * log2(1 + tau)."""
    if not 0.0 <= cp.value <= 1.0:
        raise ValueError(f"coverage must lie in [0, 1], got {cp.value}")
    return AseValue(cfg.lambda_bs * cp.value * math.log2(1.0 + cfg.tau), cfg.lambda_bs)


def ase_upper(cfg: NetworkConfig) -> AseValue:
    """Upper envelope lam log2(1+tau) e^(-kappa_upper lam) / (1 + 2^-a c_hat);
    exactly proportional to the rate function lam e^(-kappa_upper lam)."""
    dc = derived_constants(cfg.alpha, cfg.tau)
    lam = cfg.lambda_bs
    val = lam * math.log2(1.0 + cfg.tau) * math.exp(-dc.kappa_upper * lam) \
        / (1.0 + 2.0**-cfg.alpha * dc.c_hat)
    return AseValue(val, lam)


def ase_lower(cfg: NetworkConfig) -> AseValue:
    """Lower envelope, the printed two-term bracket with erfc.

    Underflows to zero once pi lam (1 + 2^a c1) exceeds the float range;
    scaling_envelope_check carries the ratio form that stays finite.
    """
    dc = derived_constants(cfg.alpha, cfg.tau)
    lam = cfg.lambda_bs
    beta = 2.0 ** (cfg.alpha - 2.0) * dc.c1
    term1 = math.exp(-math.pi * lam * (1.0 + 2.0**cfg.alpha * dc.c1)) / (1.0 + beta)
    term2 = (beta * math.pi * math.sqrt(lam)
             * math.exp(-math.pi * lam * beta / (1.0 + beta))
             * specfun.erfc(math.sqrt(math.pi * lam) * (1.0 + 2.0 * beta)
                            / math.sqrt(1.0 + beta))
             / (1.0 + beta) ** 1.5)
    val = lam * math.log2(1.0 + cfg.tau) * (term1 - term2)
    return AseValue(max(val, 0.0), lam)


# ---------------------------------------------------------------------------
# optimal density
# ---------------------------------------------------------------------------

def optimal_density_closed(alpha: float, tau: float) -> float:
    """Density maximizing the upper envelope: 2^a/(pi c_hat), the stationary
    point of lam e^(-kappa_upper lam)."""
    dc = derived_constants(alpha, tau)
    return 2.0**alpha / (math.pi * dc.c_hat)


def golden_section_max(fn, lo: float, hi: float, rel_tol: float = 1e-6,
                       scan_points: int = 16) -> float:
    """Derivative-free maximizer of a unimodal positive-argument function.

    Works on log-density so rel_tol bounds |lam - lam*|/lam*.  A coarse scan
    first brackets the peak; a maximum sitting on a bracket edge (monotone
    objective) raises BracketError.
    """
    if not 0.0 < lo < hi:
        raise ValueError(f"bracket must satisfy 0 < lo < hi, got ({lo}, {hi})")
    grid = np.geomspace(lo, hi, scan_points)
    vals = [fn(g) for g in grid]
    imax = int(np.argmax(vals))
    if imax in (0, scan_points - 1):
        # probe just inside the edge before declaring the bracket bad
        if imax == 0:
            probe = grid[0] * (grid[1] / grid[0]) ** 0.1
            if not fn(probe) > vals[0]:
                raise BracketError("objective is decreasing on the bracket; "
                                   "maximum at the lower edge")
            u_lo, u_hi = math.log(grid[0]), math.log(grid[1])
        else:
            probe = grid[-1] / (grid[-1] / grid[-2]) ** 0.1
            if not fn(probe) > vals[-1]:
                raise BracketError("objective is increasing on the bracket; "
                                   "maximum at the upper edge")
            u_lo, u_hi = math.log(grid[-2]), math.log(grid[-1])
    else:
        u_lo, u_hi = math.log(grid[imax - 1]), math.log(grid[imax + 1])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    u1 = u_hi - invphi * (u_hi - u_lo)
    u2 = u_lo + invphi * (u_hi - u_lo)
    f1 = fn(math.exp(u1))
    f2 = fn(math.exp(u2))
    while u_hi - u_lo > rel_tol:
        if f1 < f2:
            u_lo, u1, f1 = u1, u2, f2
            u2 = u_lo + invphi * (u_hi - u_lo)
            f2 = fn(math.exp(u2))
        else:
            u_hi, u2, f2 = u2, u1, f1
            u1 = u_hi - invphi * (u_hi - u_lo)
            f1 = fn(math.exp(u1))
    return math.exp(0.5 * (u_lo + u_hi))


def optimal_density_numeric(cfg_template: NetworkConfig, model: PathlossModel,
                            bracket: tuple[float, float] = (1e-4, 10.0),
                            rel_tol: float = 1e-6,
                            spec: QuadratureSpec | None = None) -> float:
    """Golden-section argmax of the exact throughput density for a model.

    With the unbounded law the objective is linear in density, so the search
    reports a bracket failure rather than an argmax.
    """
    if model is PathlossModel.MIN_BOUNDED:
        raise UnsupportedPathlossError(
            "min(1, d^-alpha) has no analytic throughput curve to maximize"
        )

    def objective(lam: float) -> float:
        cfg = dataclasses.replace(cfg_template, lambda_bs=lam)
        return ase(cfg, cp_for_model(cfg, model, spec)).value

    return golden_section_max(objective, bracket[0], bracket[1], rel_tol)


# ---------------------------------------------------------------------------
# scaling envelope
# ---------------------------------------------------------------------------

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

        A_L / (lam e^(-kappa_lower lam))
            = log2(1+tau)/(1+beta) * (1 - beta pi sqrt(lam) erfcx(z)/sqrt(1+beta)),
        z = sqrt(pi lam)(1+2 beta)/sqrt(1+beta),  beta = 2^(a-2) c1,

    where the exponential factors have been cancelled exactly, so the ratio
    stays finite long after the envelope itself underflows.  The correction
    ratio tends to beta/(1+2 beta) < 1/2, which keeps the tail constant m
    positive.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("lambda_grid must be a non-empty 1-d sequence")
    if np.any(grid <= 0.0):
        raise ValueError("lambda_grid must be positive")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("lambda_grid must be sorted ascending")
    dc = derived_constants(alpha, tau)
    lam0 = optimal_density_closed(alpha, tau)
    if grid[-1] < 10.0 * lam0:
        raise ValueError(
            f"grid max {grid[-1]:g} does not reach the large-density regime "
            f"(needs >= {10.0 * lam0:g})"
        )
    rate = math.log2(1.0 + tau)
    beta = 2.0 ** (alpha - 2.0) * dc.c1
    big_m = rate / (1.0 + 2.0**-alpha * dc.c_hat)

    points = []
    for lam in grid:
        z = math.sqrt(math.pi * lam) * (1.0 + 2.0 * beta) / math.sqrt(1.0 + beta)
        q2q1 = beta * math.pi * math.sqrt(lam) * specfun.erfcx(z) / math.sqrt(1.0 + beta)
        lower_ratio = rate / (1.0 + beta) * (1.0 - q2q1)
        # the upper envelope is proportional to its rate function by
        # construction; recompute the ratio where the rate is representable
        rf = lam * math.exp(-dc.kappa_upper * lam)
        upper_ratio = ase_upper(NetworkConfig(lam, alpha, tau)).value / rf if rf > 0.0 else big_m
        in_tail = lam >= lam0
        ok = lower_ratio > 0.0 and 0.0 < q2q1 < 0.5 \
            and abs(upper_ratio - big_m) <= 1e-12 * big_m
        points.append(ScalingPoint(float(lam), lower_ratio, upper_ratio, q2q1,
                                   in_tail, ok))
    tail_ratios = [p.lower_ratio for p in points if p.in_tail]
    m = min(tail_ratios) if tail_ratios else min(p.lower_ratio for p in points)
    return ScalingReport(tuple(points), lam0, m, big_m, all(p.ok for p in points))
