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

Within a block, one row per trial, stations are generated ring by ring in
the squared-distance scale s = pi*lam*r^2, where the field is a unit-rate
Poisson process.  The serving (nearest) station comes first, at its
exponential law and always below W; ring 0 = [0, W) starts at it and every
later ring [k W, (k+1) W) is whole.  Each holds a Poisson count of
stations, with mean its length, at independent uniform positions (Haenggi,
"Stochastic Geometry for Wireless Networks", 2012, ch. 2).  A trial costs
one Poisson draw per ring and one uniform and one exponential fading gain
per station: in the default window, of mean 576 stations, eight rings
hold about 579, and the 0.7 % past the window edge are given d^2 = inf.

Each ring's map from uniforms to positions carries the factor 1/(pi lam),
so the stream yields squared distances d^2 in m^2 and the kernel reads
every gain, the serving station's included, from d^2 (model._gain): three
of the four laws depend on d^2 alone, so the kernel divides no station by
pi lam and takes a square root only for (1 + d)^-alpha.  A serving station
drawn at d^2 = 0 gets the gain at the origin, inf under d^-alpha, and its
trial counts as covered; sir_sample, given distances, still refuses d = 0
there.  At alpha = 4 the power (d^2)^2 runs numpy's squaring loop, about a
sixth of the cost of pow(d, -4).

Consequences the tests rely on:

  * whole blocks are always drawn, so a trial's outcome is a pure function
    of (seed, trial_index) and does not depend on how many trials run;
  * whole rings are always drawn, so enlarging the window only adds rings:
    realizations stay coupled across window sizes and truncation effects
    can be measured on coupled samples rather than buried in sampling
    noise;
  * the coverage path keeps O(B*W) numbers in memory whatever the trial
    count.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import NetworkConfig, PathlossModel, _gain, pathloss_gain

_BLOCK_TRIALS = 128
# ring width in the squared-distance scale pi lam d^2: the default window
# s_max = WINDOW_K^2, which rounds an ulp either side of 576 with the
# density, ends 4 units inside the eighth ring [507.5, 580)
_RING = 72.5

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


def stations_drawn(trials: int, lambda_bs: float) -> float:
    """Mean count of stations that estimate_cp draws for trials at density
    lambda_bs in the default window: whole blocks, each trial about
    max(WINDOW_K^2, pi lam MIN_WINDOW_RADIUS^2), the window rule's pi lam R^2
    free of the rounding in R."""
    drawn = -(-trials // _BLOCK_TRIALS) * _BLOCK_TRIALS
    return drawn * max(WINDOW_K**2, math.pi * float(lambda_bs) * MIN_WINDOW_RADIUS**2)


@dataclass(frozen=True)
class SimParams:
    """Simulation controls: window radius in meters, trial count, base seed."""

    window_radius: float
    trials: int
    seed: int

    def __post_init__(self):
        # numpy integers would make every estimate a numpy scalar; a float
        # is refused here rather than deep inside the stream setup
        for name in ("trials", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
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
    """One sampled network as the SIR sees it (it depends on distances
    only): station distances in ascending order, the serving (nearest)
    station first, and per-station fading gains."""

    distances: np.ndarray      # (n,) meters, ascending
    fading: np.ndarray         # (n,) unit-mean exponential gains

    def __post_init__(self):
        if self.distances.shape[0] == 0:
            raise ValueError("realization must contain at least one station")
        if self.distances.shape != self.fading.shape:
            raise ValueError("fading must have one entry per station")
        # phrased so that NaN fails too
        if not np.all(self.fading > 0.0):
            raise ValueError("fading gains must be positive")
        if not np.all(self.distances >= 0.0):
            raise ValueError("distances must be >= 0")
        if not np.all(np.diff(self.distances) >= 0.0):
            raise ValueError("distances must be ascending, the serving station first")


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


def _block_rings(cfg: NetworkConfig, params: SimParams, block: int):
    """One block's ring stream in the window of radius R; an OverflowError
    names lam and R where pi lam R^2 leaves the float range."""
    a = math.pi * cfg.lambda_bs
    # a numpy radius would warn where its square overflows; a float gives inf
    radius = float(params.window_radius)
    d2_max = radius * radius
    if not a * d2_max < math.inf:
        raise OverflowError(f"window pi*lambda*R^2 overflows at lambda={cfg.lambda_bs:g} "
                            f"BS/m^2, R={radius:g} m")
    return _rings(block_generator(params.seed, block), a, d2_max)


def _rings(rng: np.random.Generator, a: float, d2_max: float):
    """Yield a block's stations in the window d^2 <= d2_max as one row per
    trial: first the (B,) serving stations as (squared distance, fading),
    then, for every ring k = [k W, (k+1) W) of the scale s = a d^2
    (a = pi lam) that starts inside the window, (counts, d2, fading): the
    (B,) station counts of each row in the ring and those stations' squared
    distances in m^2 and fadings laid out flat row after row.  Ring 0 starts
    at each row's serving station and every later ring is whole.  Stations
    past the window, all in the last ring, have d2 = inf, an absent station
    of gain 0 under every law.  The consumer may overwrite the arrays.

    Rings, the window edge s_max = a d2_max and the draws live in the scale,
    where the field has unit rate whatever lam; each ring's affine map from
    uniforms to positions takes the factor 1/a, so positions come out in m^2
    and no consumer divides by a.  At a = 1 the positions are the scales.

    The first arrival is drawn from its law given a non-empty window, the
    exponential truncated at s_max, by inverting its CDF; that is the law of
    redrawing until a station falls inside, without the redraws.  When
    -expm1(-s_max) rounds to 1 (the default window) it is bit-equal to the
    untruncated inverse-CDF draw.  A uniform is at most 1 - 2^-53, so the
    arrival is at most 53 ln 2 = 36.7 < W, inside ring 0.  Given it at s0,
    the other stations are a unit-rate Poisson process on (s0, inf), so each
    ring holds a Poisson count, with mean the ring's length past s0, at
    independent uniform positions on that length.  Whole rings are drawn
    whatever s_max, so a ring's draws do not depend on the window.
    """
    s_max = a * d2_max
    if not s_max < math.inf:
        # rings are drawn until one starts past s_max, which would be never
        raise OverflowError(f"window pi*lambda*R^2 = {s_max:g} overflows")
    s0 = -np.log1p(rng.random(_BLOCK_TRIALS) * math.expm1(-s_max))
    yield s0 / a, rng.standard_exponential(_BLOCK_TRIALS)
    k = 0
    while k * _RING < s_max:
        if k == 0:
            # each row's ring 0 starts at its serving station
            width = _RING - s0
            counts = rng.poisson(width)
            d2 = rng.random(int(counts.sum()))
            d2 *= np.repeat(width / a, counts)
            d2 += np.repeat(s0 / a, counts)
        else:
            # every row holds the whole ring; a scalar mean draws the same
            # counts as a constant array, at half the cost
            counts = rng.poisson(_RING, _BLOCK_TRIALS)
            d2 = rng.random(int(counts.sum()))
            d2 *= _RING / a
            d2 += k * _RING / a
        k += 1
        if not k * _RING < s_max:
            # the last ring, the only one that reaches past the window
            d2[d2 > d2_max] = math.inf
        yield counts, d2, rng.standard_exponential(d2.size)


def _row_sums(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each row's run of the flat x, rows laid out by counts; an
    empty row sums to 0."""
    starts = np.cumsum(counts) - counts
    if counts.all():
        return np.add.reduceat(x, starts)
    # reduceat reads an empty run as the next row's first entry, and one at
    # the end as an index past x, so it is given the non-empty rows only
    sums = np.zeros(counts.size)
    full = counts > 0
    if full.any():
        sums[full] = np.add.reduceat(x, starts[full])
    return sums


def _covered_block(cfg: NetworkConfig, model: PathlossModel, params: SimParams,
                   block: int) -> np.ndarray:
    """Coverage indicator of every trial in one block.  Received powers are
    summed ring by ring, so the working set is one ring; transmit power
    cancels between signal and interference and never enters."""
    rings = _block_rings(cfg, params, block)
    d2_0, h0 = next(rings)
    signal = _gain(model, cfg.alpha, d2_0, d2_0)
    signal *= h0
    interference = np.zeros(_BLOCK_TRIALS)
    for counts, d2, h in rings:
        received = _gain(model, cfg.alpha, d2, d2)
        received *= h
        interference += _row_sums(received, counts)
    # a trial with no interferer is covered at any finite threshold
    return (interference <= 0.0) | (signal > cfg.tau * interference)


def sample_block(cfg: NetworkConfig, params: SimParams, block: int) -> list[Realization]:
    """The realizations of trials [block*B, (block+1)*B), drawn from the same
    stream as the coverage kernel, on the disk of radius window_radius.

    Each count is Poisson(lam pi R^2) conditioned on at least one station
    (an exact property of the ring construction).  Each row's stations are
    sorted by distance, their fadings with them.
    """
    rings = _block_rings(cfg, params, block)
    d2_0, h0 = next(rings)
    trial = np.arange(_BLOCK_TRIALS)
    # the serving station is always in (its draw may round just past the
    # edge) and comes first in its row, also on a tie
    rows, d2, h = [trial], [d2_0], [h0]
    for counts, d2_k, h_k in rings:
        inside = d2_k < math.inf
        rows.append(np.repeat(trial, counts)[inside])
        d2.append(d2_k[inside])
        h.append(h_k[inside])
    rows, d2, h = (np.concatenate(x) for x in (rows, d2, h))
    order = np.lexsort((d2, rows))
    r = np.sqrt(d2[order])
    h = h[order]
    cut = np.cumsum(np.bincount(rows, minlength=_BLOCK_TRIALS))[:-1]
    return [Realization(d, f) for d, f in zip(np.split(r, cut), np.split(h, cut))]


def sir_sample(realization: Realization, model: PathlossModel, alpha: float) -> float:
    """SIR at the origin for one realization.

    An empty interferer set yields +inf, i.e. covered at any finite threshold.
    Raises FloatingPointError when there are interferers but their total
    received power underflows to zero, which would read as covered too.
    """
    received = pathloss_gain(model, alpha, realization.distances) * realization.fading
    interferers = received[1:]
    if interferers.size == 0:
        return math.inf
    interference = float(interferers.sum())
    if interference <= 0.0:
        raise FloatingPointError(f"received power of all {interferers.size} interferers "
                                 f"underflows to zero (alpha={alpha:g})")
    return float(received[0]) / interference


@dataclass(frozen=True)
class SimEstimate:
    """Estimate with its Bernoulli-based standard error."""

    mean: float
    stderr: float
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
    return SimEstimate(mean, stderr, n)

