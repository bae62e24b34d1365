"""Monte Carlo simulator: Poisson base-station field on a disk, typical user
at the origin, nearest-station association, unit-mean exponential fading, and
SIR/coverage/throughput estimation.

Points are generated in radial order (squared distances are a unit-rate
Poisson arrival sequence in pi*lam*r^2), drawn in fixed-size blocks of
(gap, angle, fading) triples.  Two consequences the tests rely on:

  * every trial's randomness is a pure function of (seed, trial_index) via a
    counter-based Philox stream, so a trial's outcome does not depend on
    which other trials run or in what order, and
  * enlarging the window extends a realization instead of reshuffling it,
    so truncation effects can be measured on coupled samples rather than
    buried in sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NetworkConfig, PathlossModel, pathloss_gain

_BLOCK = 256
_RESAMPLE_LIMIT = 64

DEFAULT_WINDOW_K = 24.0
MIN_WINDOW_RADIUS = 1.0


class ResampleLimitError(RuntimeError):
    """Window kept coming up empty; lam * pi * R^2 is far below one."""


def window_radius(lambda_bs: float, k: float = DEFAULT_WINDOW_K) -> float:
    """Simulation window R = max(1 m, k/sqrt(pi lam)), holding ~k^2 points.

    The default k keeps the interference lost beyond R well under the Monte
    Carlo standard error at 1e5 trials for the densities and thresholds the
    validation grids use (verified by the window-doubling test).
    """
    if not lambda_bs > 0.0:
        raise ValueError(f"lambda_bs must be positive, got {lambda_bs}")
    return max(MIN_WINDOW_RADIUS, k / math.sqrt(math.pi * lambda_bs))


@dataclass(frozen=True)
class SimParams:
    """Simulation controls: window radius in meters, trial count, base seed."""

    window_radius: float
    trials: int
    seed: int

    def __post_init__(self):
        if not self.window_radius > 0.0:
            raise ValueError(f"window_radius must be positive, got {self.window_radius}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass
class Realization:
    """One sampled network: station positions, the serving (nearest) station,
    and per-station fading gains."""

    bs_points: np.ndarray      # (n, 2) positions in meters
    serving_index: int
    serving_distance: float
    fading: np.ndarray         # (n,) unit-mean exponential gains

    def __post_init__(self):
        if self.bs_points.shape[0] == 0:
            raise ValueError("realization must contain at least one station")
        if self.bs_points.shape[0] != self.fading.shape[0]:
            raise ValueError("fading must have one entry per station")
        if np.any(self.fading <= 0.0):
            raise ValueError("fading gains must be positive")
        d = np.hypot(self.bs_points[:, 0], self.bs_points[:, 1])
        if self.serving_distance > d.min() * (1.0 + 1e-12):
            raise ValueError("serving station is not the nearest one")


def realization_from_points(points, fading) -> Realization:
    """Build a realization from explicit positions, deriving the serving fields."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    fad = np.asarray(fading, dtype=float).reshape(-1)
    d = np.hypot(pts[:, 0], pts[:, 1])
    idx = int(np.argmin(d))
    return Realization(pts, idx, float(d[idx]), fad)


def trial_generator(seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based substream for one trial, keyed by (seed, trial_index)."""
    key = np.array([seed, trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_radial(rng: np.random.Generator, s_max: float):
    """Draw (sorted squared-distance scale, angle, fading) triples blockwise
    until the radial arrival process passes s_max.  The block layout is fixed
    so a larger window replays the same prefix."""
    s_parts, th_parts, h_parts = [], [], []
    carry = 0.0
    while True:
        gaps = rng.standard_exponential(_BLOCK)
        theta = rng.uniform(0.0, 2.0 * math.pi, _BLOCK)
        h = rng.standard_exponential(_BLOCK)
        s = carry + np.cumsum(gaps)
        s_parts.append(s)
        th_parts.append(theta)
        h_parts.append(h)
        carry = s[-1]
        if carry > s_max:
            break
    s = np.concatenate(s_parts)
    n = int(np.searchsorted(s, s_max, side="right"))
    return (s[:n], np.concatenate(th_parts)[:n], np.concatenate(h_parts)[:n])


def _draw_window(cfg: NetworkConfig, params: SimParams, rng: np.random.Generator):
    """(distance, angle, fading) of every station inside the window, nearest
    first.  Empty windows are redrawn from the same stream: the typical user
    always has a serving station under the heavy-load assumption."""
    a = math.pi * cfg.lambda_bs
    s_max = a * params.window_radius**2
    for _ in range(_RESAMPLE_LIMIT):
        s, theta, h = _draw_radial(rng, s_max)
        if s.size:
            return np.sqrt(s / a), theta, h
    raise ResampleLimitError(
        f"no station fell inside the window after {_RESAMPLE_LIMIT} redraws; "
        f"expected count is {s_max:.3g}"
    )


def _signal_interference(model: PathlossModel, alpha: float, d: np.ndarray,
                         fading: np.ndarray, serving: int):
    """Received power of the serving station and the summed power of all
    others.  Transmit power cancels between the two and never enters."""
    received = pathloss_gain(model, alpha, d) * fading
    signal = received[serving]
    return signal, float(received.sum() - signal)


def sample_network(cfg: NetworkConfig, params: SimParams,
                   rng: np.random.Generator) -> Realization:
    """Sample one network realization on the disk of radius window_radius.

    Count is Poisson(lam pi R^2) and positions are uniform on the disk (both
    exact properties of the radial construction).
    """
    r, theta, h = _draw_window(cfg, params, rng)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return Realization(pts, 0, float(r[0]), h)


def sir_sample(realization: Realization, model: PathlossModel, alpha: float) -> float:
    """SIR at the origin for one realization.

    An empty interferer set yields +inf, i.e. covered at any finite threshold.
    """
    d = np.hypot(realization.bs_points[:, 0], realization.bs_points[:, 1])
    signal, interference = _signal_interference(
        model, alpha, d, realization.fading, realization.serving_index)
    if interference <= 0.0:
        return math.inf
    return float(signal) / interference


def _covered_trial(cfg: NetworkConfig, model: PathlossModel, params: SimParams,
                   trial: int) -> bool:
    """Coverage indicator for one trial, drawing exactly the stream that
    sample_network + sir_sample would without building the Realization (the
    SIR needs only distances); a parity test pins the equivalence."""
    d, _theta, h = _draw_window(cfg, params, trial_generator(params.seed, trial))
    signal, interference = _signal_interference(model, cfg.alpha, d, h, 0)
    return interference <= 0.0 or signal > cfg.tau * interference


@dataclass(frozen=True)
class SimEstimate:
    """Estimate with its Bernoulli-based standard error and 95% interval."""

    mean: float
    stderr: float
    ci95: tuple[float, float]
    trials: int


def estimate_cp(cfg: NetworkConfig, model: PathlossModel,
                params: SimParams) -> SimEstimate:
    """Coverage estimate: fraction of trials with SIR above the threshold.

    Trials own their substreams, so the covered count over trials [0, n) is
    the count over [0, m) plus the count over [m, n).
    """
    n = params.trials
    covered = sum(_covered_trial(cfg, model, params, t) for t in range(n))
    mean = covered / n
    stderr = math.sqrt(mean * (1.0 - mean) / n)
    lo = max(0.0, mean - 1.96 * stderr)
    hi = min(1.0, mean + 1.96 * stderr)
    return SimEstimate(mean, stderr, (lo, hi), n)


def estimate_ase(cfg: NetworkConfig, model: PathlossModel,
                 params: SimParams) -> SimEstimate:
    """Throughput-density estimate lam log2(1+tau) * coverage, errors scaled
    by the same factor."""
    cp = estimate_cp(cfg, model, params)
    scale = cfg.lambda_bs * math.log2(1.0 + cfg.tau)
    return SimEstimate(scale * cp.mean, scale * cp.stderr,
                       (scale * cp.ci95[0], scale * cp.ci95[1]), cp.trials)
