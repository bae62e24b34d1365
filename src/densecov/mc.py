"""Monte Carlo simulator: Poisson base-station field on a disk, typical user
at the origin, nearest-station association, unit-mean exponential fading, and
SIR/coverage/throughput estimation.

Trials run in fixed blocks of _BLOCK_TRIALS.  Block b draws from one
counter-based Philox stream keyed by (seed, b) (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11), and trial t is row t % B of
block t // B.  Within a block, stations are generated in radial order:
squared distances are a unit-rate Poisson arrival sequence in pi*lam*r^2,
drawn as (B, C) chunks of exponential gaps and fading gains, one row per
trial.  Consequences the tests rely on:

  * whole blocks are always drawn, so a trial's outcome is a pure function
    of (seed, trial_index) and does not depend on how many trials run;
  * enlarging the window only adds chunks, so realizations stay coupled
    across window sizes and truncation effects can be measured on coupled
    samples rather than buried in sampling noise;
  * the coverage path draws no angles (the SIR depends on distances only)
    and keeps O(B*C) numbers in memory whatever the trial count.  Station
    angles, needed only by the public Realization, come from a separate
    substream of the block key and never shift the coverage draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NetworkConfig, PathlossModel, pathloss_gain

_BLOCK_TRIALS = 64
_CHUNK = 128

DEFAULT_WINDOW_K = 24.0
MIN_WINDOW_RADIUS = 1.0


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
        # an infinite window would never stop drawing stations
        if not 0.0 < self.window_radius < math.inf:
            raise ValueError(f"window_radius must be positive and finite, "
                             f"got {self.window_radius}")
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


def block_generator(seed: int, block: int) -> np.random.Generator:
    """Counter-based stream for one block of trials, keyed by (seed, block)."""
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _radial_chunks(rng: np.random.Generator, s_max: float):
    """Yield a block's stations in radial order as (squared-distance scale,
    fading) arrays with one row per trial: first the (B, 1) serving
    stations, then (B, C) chunks of the rest until every row passes s_max.
    Entries beyond s_max are left for the caller to mask.

    The first arrival is drawn from its law given a non-empty window, the
    exponential truncated at s_max, by inverting its CDF; that is the law of
    redrawing until a station falls inside, without the redraws.  When
    -expm1(-s_max) rounds to 1 (the default window) it is bit-equal to the
    untruncated inverse-CDF draw.  The later arrivals do not depend on the
    first beyond starting from it.
    """
    s = -np.log1p(rng.random(_BLOCK_TRIALS) * math.expm1(-s_max))
    yield s[:, None], rng.standard_exponential((_BLOCK_TRIALS, 1))
    while s.min() <= s_max:
        chunk = s[:, None] + np.cumsum(
            rng.standard_exponential((_BLOCK_TRIALS, _CHUNK)), axis=1)
        yield chunk, rng.standard_exponential((_BLOCK_TRIALS, _CHUNK))
        s = chunk[:, -1]


def _covered_block(cfg: NetworkConfig, model: PathlossModel, params: SimParams,
                   block: int) -> np.ndarray:
    """Coverage indicator of every trial in one block.  Received powers are
    summed chunk by chunk, so the working set is one (B, C) chunk; transmit
    power cancels between signal and interference and never enters."""
    a = math.pi * cfg.lambda_bs
    s_max = a * params.window_radius**2
    chunks = _radial_chunks(block_generator(params.seed, block), s_max)
    s, h = next(chunks)
    signal = pathloss_gain(model, cfg.alpha, np.sqrt(s[:, 0] / a)) * h[:, 0]
    interference = np.zeros(_BLOCK_TRIALS)
    for s, h in chunks:
        received = pathloss_gain(model, cfg.alpha, np.sqrt(s / a)) * h
        received[s > s_max] = 0.0
        interference += received.sum(axis=1)
    # a trial with no interferer is covered at any finite threshold
    return (interference <= 0.0) | (signal > cfg.tau * interference)


def sample_block(cfg: NetworkConfig, params: SimParams, block: int) -> list[Realization]:
    """The realizations of trials [block*B, (block+1)*B), drawn from the same
    stream as the coverage kernel, on the disk of radius window_radius.

    Each count is Poisson(lam pi R^2) conditioned on at least one station,
    and positions are uniform on the disk (exact properties of the radial
    construction).  Angles come from the block key's second substream.
    """
    a = math.pi * cfg.lambda_bs
    s_max = a * params.window_radius**2
    rng = block_generator(params.seed, block)
    # jumped() leaves rng as it is: the angles' substream starts 2^128 draws on
    angle_rng = np.random.Generator(rng.bit_generator.jumped())
    parts = [(s, h, angle_rng.uniform(0.0, 2.0 * math.pi, s.shape))
             for s, h in _radial_chunks(rng, s_max)]
    s, h, theta = (np.concatenate(x, axis=1) for x in zip(*parts))
    r = np.sqrt(s / a)
    # the serving station is always in: its draw may round just past s_max
    counts = 1 + np.count_nonzero(s[:, 1:] <= s_max, axis=1)
    out = []
    for row, n in enumerate(counts):
        pts = np.column_stack([r[row, :n] * np.cos(theta[row, :n]),
                               r[row, :n] * np.sin(theta[row, :n])])
        out.append(Realization(pts, 0, float(r[row, 0]), h[row, :n].copy()))
    return out


def sample_network(cfg: NetworkConfig, params: SimParams, trial: int) -> Realization:
    """The realization of one trial; draws its whole block, so callers that
    walk many trials should use sample_block."""
    return sample_block(cfg, params, trial // _BLOCK_TRIALS)[trial % _BLOCK_TRIALS]


def sir_sample(realization: Realization, model: PathlossModel, alpha: float) -> float:
    """SIR at the origin for one realization.

    An empty interferer set yields +inf, i.e. covered at any finite threshold.
    """
    d = np.hypot(realization.bs_points[:, 0], realization.bs_points[:, 1])
    received = pathloss_gain(model, alpha, d) * realization.fading
    signal = received[realization.serving_index]
    interference = float(received.sum() - signal)
    if interference <= 0.0:
        return math.inf
    return float(signal) / interference


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

    Every block is drawn whole and the last one cut to length, so the
    covered count over trials [0, n) is the count over [0, m) plus the count
    over [m, n).
    """
    n = params.trials
    covered = 0
    for block in range(-(-n // _BLOCK_TRIALS)):
        hits = _covered_block(cfg, model, params, block)
        covered += int(np.count_nonzero(hits[:n - block * _BLOCK_TRIALS]))
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
