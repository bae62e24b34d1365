"""Network configuration, pathloss models, and derived interference constants."""

from __future__ import annotations

import math
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
        for member in cls:
            if member.value == tag:
                return member
        raise ValueError(f"unknown pathloss model tag {tag!r}")


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
    models remove.
    """
    arr = np.asarray(d, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("distance must be >= 0")
    if model is PathlossModel.UNBOUNDED and np.any(arr == 0.0):
        raise ValueError("unbounded pathloss is singular at d = 0")
    out = _gain(model, alpha, arr, np.empty_like(arr))
    scalar = np.isscalar(d) or getattr(d, "ndim", 0) == 0
    return float(out) if scalar else out


def _gain(model: PathlossModel, alpha: float, d: np.ndarray, out: np.ndarray) -> np.ndarray:
    """g(d) written into out, which may be d itself; d is not validated."""
    if model is PathlossModel.UNBOUNDED:
        np.power(d, -alpha, out=out)
    elif model is PathlossModel.BOUNDED_G1:
        np.power(np.add(d, 1.0, out=out), -alpha, out=out)
    elif model is PathlossModel.BOUNDED_G2:
        # d^a = inf far out gives the right gain, 0
        with np.errstate(over="ignore"):
            np.power(d, alpha, out=out)
        np.divide(1.0, np.add(out, 1.0, out=out), out=out)
    elif model is PathlossModel.MIN_BOUNDED:
        # d^-a >= 1 exactly where d <= 1, and d = 0 gives inf
        with np.errstate(divide="ignore", over="ignore"):
            np.power(d, -alpha, out=out)
        np.minimum(out, 1.0, out=out)
    else:  # pragma: no cover
        raise ValueError(f"unhandled model {model}")
    return out


@dataclass(frozen=True)
class DerivedConstants:
    """Interference constants for a given (alpha, tau).

    c1 = 2 tau H_b1(tau)/(alpha - 2) and c2 = 2 tau H_b2(tau)/(alpha - 1)
    with H_b the hypergeometric family at the shapes b1 < b2 of
    specfun.hyf_shapes; c_hat = c1 - c2 > 0 because H_b2 < H_b1 and
    alpha - 1 > alpha - 2.  kappa_upper = pi 2^-alpha c_hat is the decay rate
    of the upper throughput envelope lam * exp(-kappa_upper lam).
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
    c_hat = c1 - c2
    return DerivedConstants(c1=c1, c2=c2, c_hat=c_hat,
                            kappa_upper=math.pi * 2.0**-alpha * c_hat)
