"""Monte Carlo simulator: Poisson base-station field on a disk, typical user
at the origin, nearest-station association, unit-mean exponential fading, and
SIR and coverage estimation.

Trials run in fixed blocks of _BLOCK_TRIALS.  Block b draws from one PCG64
stream (O'Neill, "PCG: a family of simple fast space-efficient
statistically good algorithms for random number generation", 2014; numpy's
default generator) keyed by (seed, b) through a SeedSequence spawn key, and
trial t is row t % B of block t // B.  PCG64 draws the exponentials, which
are most of a block's cost, in about 70 % of Philox's time, and the
spawn key keys it by (seed, b) as well as Philox's counter key would.
Within a block, stations are generated in radial order: squared distances
are a unit-rate Poisson arrival sequence in pi*lam*r^2, drawn as (B, C)
chunks of exponential gaps and fading gains, one row per trial.
Consequences the tests rely on:

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

from .model import NetworkConfig, PathlossModel, _gain, pathloss_gain

_BLOCK_TRIALS = 64
_CHUNK = 128

WINDOW_K = 24.0
MIN_WINDOW_RADIUS = 1.0


def window_radius(lambda_bs: float) -> float:
    """Simulation window R = max(1 m, WINDOW_K/sqrt(pi lam)), holding about
    WINDOW_K^2 points.

    WINDOW_K keeps the interference lost beyond R well under the Monte Carlo
    standard error at 1e5 trials for the densities and thresholds the
    validation grids use (verified by the window-doubling test).
    """
    if not lambda_bs > 0.0:
        raise ValueError(f"lambda_bs must be positive, got {lambda_bs}")
    return max(MIN_WINDOW_RADIUS, WINDOW_K / math.sqrt(math.pi * lambda_bs))


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


def block_generator(seed: int, block: int) -> np.random.Generator:
    """PCG64 stream for one block of trials, keyed by (seed, block).

    The key is SeedSequence(seed).spawn(block + 1)[block], built directly.
    The seed's 32-bit words are zero-padded to the pool size before the
    block's words follow, so distinct pairs give distinct streams.  Seeding
    with [seed, block] as one entropy list would not: its words are joined
    and then padded, so (5 + 7 * 2**32, 0) and (5, 7) would share a stream,
    and so would the same pair as a uint64 array.
    """
    key = np.random.SeedSequence(seed, spawn_key=(block,))
    return np.random.Generator(np.random.PCG64(key))


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
        gaps = rng.standard_exponential((_BLOCK_TRIALS, _CHUNK))
        chunk = np.cumsum(gaps, axis=1, out=gaps)
        chunk += s[:, None]
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
    received = np.empty((_BLOCK_TRIALS, _CHUNK))
    for s, h in chunks:
        # interferers lie past the serving station, so their distances are
        # >= 0 by construction and only the serving column above needs the
        # validating path (which rejects d = 0 under the unbounded law)
        np.sqrt(np.divide(s, a, out=received), out=received)
        _gain(model, cfg.alpha, received, received)
        received *= h
        # rows are sorted, so only a chunk whose last column passes the
        # window holds slots to mask
        if s[:, -1].max() > s_max:
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
    # jumped() leaves rng as it is: the angles' substream starts
    # (phi - 1) * 2^128, about 2.1e38, draws on
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


def sir_sample(realization: Realization, model: PathlossModel, alpha: float) -> float:
    """SIR at the origin for one realization.

    An empty interferer set yields +inf, i.e. covered at any finite threshold.
    Raises FloatingPointError when there are interferers but their total
    received power underflows to zero, which would read as covered too.
    """
    d = np.hypot(realization.bs_points[:, 0], realization.bs_points[:, 1])
    received = pathloss_gain(model, alpha, d) * realization.fading
    interferers = np.delete(received, realization.serving_index)
    if interferers.size == 0:
        return math.inf
    interference = float(interferers.sum())
    if interference <= 0.0:
        raise FloatingPointError(f"received power of all {interferers.size} interferers "
                                 f"underflows to zero (alpha={alpha:g})")
    return float(received[realization.serving_index]) / interference


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

    Raises FloatingPointError when the path gain at the window edge is below
    the smallest normal float: a trial whose interferers all underflow to
    zero power would count as covered.
    """
    edge_gain = pathloss_gain(model, cfg.alpha, params.window_radius)
    if edge_gain < np.finfo(float).tiny:
        raise FloatingPointError(f"path gain {edge_gain:g} underflows at the window edge "
                                 f"{params.window_radius:g} m (alpha={cfg.alpha:g})")
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

