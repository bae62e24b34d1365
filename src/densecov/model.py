"""Network configuration, pathloss models, and derived interference constants."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import specfun


class PathlossModel(Enum):
    """Distance-to-gain law g(d) applied to every link."""

    UNBOUNDED = "upm"      # d^-alpha, singular at d = 0
    BOUNDED_G1 = "g1"      # (1 + d)^-alpha
    BOUNDED_G2 = "g2"      # 1 / (1 + d^alpha)
    MIN_BOUNDED = "minb"   # min(1, d^-alpha); simulation-only, no analytic coverage

    @classmethod
    def from_tag(cls, tag: str) -> "PathlossModel":
        # the Enum's value lookup raises ValueError on an unknown tag
        return cls(tag)


@dataclass(frozen=True)
class NetworkConfig:
    """Downlink network parameters.

    lambda_bs  base-station density in BS/m^2
    alpha      pathloss exponent (> 2)
    tau        SIR threshold on linear scale
    p_bs       transmit power in mW; it cancels in every SIR ratio and is
               carried only so that invariance is testable rather than
               silently assumed
    """

    lambda_bs: float
    alpha: float
    tau: float
    p_bs: float = 100.0

    def __post_init__(self):
        if not 0.0 < self.lambda_bs < math.inf:
            raise ValueError(f"lambda_bs must be positive and finite, got {self.lambda_bs}")
        if not 2.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must exceed 2 and be finite, got {self.alpha}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not 0.0 < self.p_bs < math.inf:
            raise ValueError(f"p_bs must be positive and finite, got {self.p_bs}")
        # a numpy scalar would warn where float arithmetic overflows to inf;
        # converting after the checks keeps a string a validation error
        for name in ("lambda_bs", "alpha", "tau", "p_bs"):
            object.__setattr__(self, name, float(getattr(self, name)))


def pathloss_gain(model: PathlossModel, alpha: float, d):
    """Channel gain g(d) for one of the supported laws; d in meters, scalar or array.

    The unbounded law rejects d = 0: its singularity there (gain above one,
    received power exceeding transmitted) is exactly the defect the bounded
    models remove.  A distance whose square overflows gets gain 0, and one
    whose square underflows gets the gain at d = 0 (inf under upm).  A model
    that is not a PathlossModel, such as its tag, raises TypeError.
    """
    _require_model(model)
    arr = np.asarray(d, dtype=float)
    if not np.all(arr >= 0.0):  # phrased so that NaN fails too
        raise ValueError("distance must be >= 0")
    if not 2.0 < alpha < math.inf:
        raise ValueError(f"alpha must exceed 2 and be finite, got {alpha}")
    if model is PathlossModel.UNBOUNDED and np.any(arr == 0.0):
        raise ValueError("unbounded pathloss is singular at d = 0")
    with np.errstate(over="ignore"):
        d2 = np.multiply(arr, arr, out=np.empty_like(arr))
    subnormal = None
    if model is PathlossModel.UNBOUNDED and d2.size and d2.min() < sys.float_info.min:
        # from a subnormal d^2, numpy's 1/(d^2)^(a/2) can miss the law's
        # (a + 4) half-ulp bound, by an amount that depends on the SIMD loop
        # numpy runs; libm's d2^(-a/2) stays within it.  A simulated d^2 is
        # subnormal with odds of about pi lambda 2e-308, so the simulator's
        # own _gain calls do without this pass
        subnormal = (0.0 < d2) & (d2 < sys.float_info.min)
        exact = []
        for v in d2[subnormal].tolist():
            try:
                exact.append(math.pow(v, -0.5 * alpha))
            except OverflowError:
                exact.append(math.inf)
    out = _gain(model, alpha, d2, d2)
    if subnormal is not None:
        out[subnormal] = exact
    return float(out) if arr.ndim == 0 else out


def _require_model(model) -> None:
    """Refuse a model that is not a PathlossModel: every law test would pass
    it over to the code without a test of its own, d^-alpha in _gain and
    the min(1, d^-alpha) refusal in analytic.coverage_curves."""
    if not isinstance(model, PathlossModel):
        raise TypeError(f"model must be a PathlossModel, got {model!r}")


def _gain(model: PathlossModel, alpha: float, d2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """g read from the squared distance d2 (m^2), written into out, which may
    be d2 itself; d2 is not validated.  d2 = inf gives 0, and d2 = 0 gives
    the gain at the origin (inf under upm)."""
    with np.errstate(over="ignore", divide="ignore"):
        if model is PathlossModel.BOUNDED_G1:
            # the one law that needs d itself; sqrt(d*d) is d exactly
            # wherever d*d is a normal float
            np.power(np.add(np.sqrt(d2, out=out), 1.0, out=out), -alpha, out=out)
            return out
        # d^a = (d^2)^(a/2), which numpy squares at a = 4
        np.power(d2, 0.5 * alpha, out=out)
        if model is PathlossModel.BOUNDED_G2:
            np.add(out, 1.0, out=out)
        elif model is PathlossModel.MIN_BOUNDED:
            # min(1, d^-a) = 1/max(1, d^a)
            np.maximum(out, 1.0, out=out)
        return np.divide(1.0, out, out=out)


@dataclass(frozen=True)
class DerivedConstants:
    """Interference constants for a given (alpha, tau).

    c1 = 2 tau H_b1(tau)/(alpha - 2) and c2 = 2 tau H_b2(tau)/(alpha - 1)
    with H_b the hypergeometric family at the shapes b1 < b2 of
    specfun.hyf_shapes; c_hat = c1 - c2 > 0 because H_b2 < H_b1 and
    alpha - 1 > alpha - 2.  kappa_upper = pi 2^-alpha c_hat is the decay rate
    of the upper throughput envelope lam * exp(-kappa_upper lam).
    derived_constants raises FloatingPointError where the computed
    constants lose that order, as H_b's error grows with alpha.
    """

    c1: float
    c2: float
    c_hat: float
    kappa_upper: float


def derived_constants(alpha: float, tau: float) -> DerivedConstants:
    if not alpha > 2.0:
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return _derived_constants(float(alpha), float(tau))


# every coverage, bound and envelope call at one (alpha, tau) needs the same
# constants; the result is frozen, so callers may share it
@lru_cache(maxsize=256)
def _derived_constants(alpha: float, tau: float) -> DerivedConstants:
    b1, b2 = specfun.hyf_shapes(alpha)
    c1 = 2.0 * tau * specfun.hyf(tau, b1) / (alpha - 2.0)
    c2 = 2.0 * tau * specfun.hyf(tau, b2) / (alpha - 1.0)
    if not 0.0 < c2 < c1:
        raise FloatingPointError(f"interference constants lose their order 0 < c2 < c1 "
                                 f"at alpha={alpha:g}, tau={tau:g}: c1={c1!r}, c2={c2!r}")
    c_hat = c1 - c2
    return DerivedConstants(c1=c1, c2=c2, c_hat=c_hat,
                            kappa_upper=math.pi * 2.0**-alpha * c_hat)
