import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from densecov import analytic, mc
from densecov.mc import (
    Realization,
    SimParams,
    block_generator,
    estimate_cp,
    sample_block,
    sir_sample,
    window_radius,
)
from densecov.model import NetworkConfig, PathlossModel

CFG = NetworkConfig(lambda_bs=0.3, alpha=4.0, tau=10.0)
CFG_LAM1 = NetworkConfig(lambda_bs=1.0, alpha=4.0, tau=10.0)
B = mc._BLOCK_TRIALS

# (lam, tau, seed) -> covered counts of upm, g1, g2, minb out of 2000 trials
# in the default window at alpha = 4
PINNED_DEFAULT_WINDOW = {
    (1e-3, 1.0, 0): (1104, 1057, 1104, 1104),
    (1e-3, 1.0, 42): (1058, 1012, 1058, 1058),
    (1e-3, 10.0, 0): (399, 344, 399, 399),
    (1e-3, 10.0, 42): (381, 332, 381, 381),
    (0.3, 1.0, 0): (1104, 443, 588, 660),
    (0.3, 1.0, 42): (1058, 407, 549, 632),
    (0.3, 10.0, 0): (399, 11, 10, 25),
    (0.3, 10.0, 42): (381, 9, 9, 21),
    (2.0, 1.0, 0): (1104, 35, 2, 1),
    (2.0, 1.0, 42): (1058, 40, 2, 2),
    (2.0, 10.0, 0): (399, 0, 0, 0),
    (2.0, 10.0, 42): (381, 0, 0, 0),
}


def params_for(lam, trials, seed=42):
    return SimParams(window_radius=window_radius(lam), trials=trials, seed=seed)


def realizations(cfg, params, start, stop):
    """Realizations of trials [start, stop), drawn block by block."""
    for block in range(start // B, -(-stop // B)):
        for t, r in enumerate(sample_block(cfg, params, block), start=block * B):
            if start <= t < stop:
                yield r


def public_outcomes(cfg, model, params, start, stop):
    """Coverage of trials [start, stop) through sample_block + sir_sample."""
    return [sir_sample(r, model, cfg.alpha) > cfg.tau
            for r in realizations(cfg, params, start, stop)]


class TestParams:
    def test_window_rule(self):
        assert window_radius(0.3) == pytest.approx(24.0 / math.sqrt(math.pi * 0.3))
        # the floor takes over at very high density
        assert window_radius(1e4) == 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(window_radius=0.0, trials=10, seed=1),
        dict(window_radius=1.0, trials=0, seed=1),
        dict(window_radius=1.0, trials=10, seed=-1),
        dict(window_radius=1.0, trials=10, seed=2**64),
        dict(window_radius=math.inf, trials=10, seed=1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimParams(**kwargs)

    def test_counts_are_stored_as_ints(self):
        # the counterpart of NetworkConfig storing its numbers as floats
        params = SimParams(window_radius(0.3), np.int64(500), np.uint64(42))
        assert params == params_for(0.3, 500)
        assert type(params.trials) is int and type(params.seed) is int
        est = estimate_cp(CFG, PathlossModel.BOUNDED_G1, params)
        assert est == estimate_cp(CFG, PathlossModel.BOUNDED_G1, params_for(0.3, 500))
        assert type(est.mean) is float and type(est.trials) is int
        for trials, seed in ((2.5, 1), (10, 1.5), (np.float64(10.0), 1)):
            with pytest.raises(TypeError):
                SimParams(1.0, trials, seed)

    def test_stations_drawn_counts_whole_blocks(self):
        assert mc.stations_drawn(0, 1.0) == 0.0
        # a sparse window holds WINDOW_K^2 stations; one trial draws a block
        assert mc.stations_drawn(1, 1e-3) == B * mc.WINDOW_K**2
        assert mc.stations_drawn(B + 1, 1e-3) == 2 * B * mc.WINDOW_K**2
        # past the 1 m window floor a trial draws about pi lam stations
        assert mc.stations_drawn(B, 1e4) == pytest.approx(B * math.pi * 1e4, rel=1e-15)


class TestBlockStream:
    @pytest.mark.parametrize("seed, block", [(0, 0), (42, 3), (2**64 - 1, 9)])
    def test_is_the_spawned_child_of_the_seed(self, seed, block):
        child = np.random.SeedSequence(seed).spawn(block + 1)[block]
        expected = np.random.Generator(np.random.PCG64(child)).random(8)
        assert np.array_equal(block_generator(seed, block).random(8), expected)

    @pytest.mark.parametrize("key, other", [
        # one entropy list [seed, block] joins these words alike
        ((5 + 7 * 2**32, 0), (5, 7)),
        # the top seed with a block past 32 bits
        ((2**64 - 1, 2**32), (2**32 - 1, 2**32 - 1 + 2**64)),
    ])
    def test_distinct_keys_give_distinct_streams(self, key, other):
        assert not np.array_equal(block_generator(*key).random(8),
                                  block_generator(*other).random(8))


class TestSampleNetwork:
    def test_fixed_seed_reproduces_realization(self):
        params = params_for(0.3, 1, seed=7)
        r1 = sample_block(CFG, params, 0)[0]
        r2 = sample_block(CFG, params, 0)[0]
        assert np.array_equal(r1.distances, r2.distances)
        assert np.array_equal(r1.fading, r2.fading)

    def test_poisson_count_mean(self):
        # window sized so lam * pi * R^2 = 100
        R = math.sqrt(100.0 / math.pi)
        params = SimParams(window_radius=R, trials=1, seed=3)
        counts = [r.distances.size for r in realizations(CFG_LAM1, params, 0, 10_000)]
        mean = float(np.mean(counts))
        assert abs(mean - 100.0) <= 3.0 * math.sqrt(100.0 / 10_000.0)

    def test_serving_distance_squared_is_exponential(self):
        # d0^2 ~ Exp(rate pi lam); compare first moments at modest sample size
        lam = 0.5
        params = params_for(lam, 1, seed=11)
        cfg = NetworkConfig(lam, 4.0, 10.0)
        d2 = np.array([r.distances[0]**2 for r in realizations(cfg, params, 0, 2000)])
        expected = 1.0 / (math.pi * lam)
        assert abs(d2.mean() - expected) <= 4.0 * expected / math.sqrt(2000.0)

    def test_window_extension_keeps_prefix(self):
        # a doubled window replays the same inner stations, so truncation
        # comparisons are coupled rather than independent draws
        p_small = params_for(0.3, 1)
        p_big = SimParams(window_radius=2.0 * p_small.window_radius, trials=1, seed=42)
        r_small = sample_block(CFG, p_small, 5 // B)[5 % B]
        r_big = sample_block(CFG, p_big, 5 // B)[5 % B]
        n = r_small.distances.size
        assert r_big.distances.size > n
        assert np.array_equal(r_big.distances[:n], r_small.distances)
        assert np.array_equal(r_big.fading[:n], r_small.fading)

    def test_sparse_window_always_has_a_serving_station(self):
        # expected count lam pi R^2 = 1e-3: the first arrival comes from its
        # law given a non-empty window, Exp(1) truncated at s_max in pi lam d^2
        lam, s_max, n = 1e-4, 1e-3, 2000
        params = SimParams(window_radius=math.sqrt(s_max / (math.pi * lam)), trials=1, seed=1)
        cfg = NetworkConfig(lam, 4.0, 10.0)
        rs = list(realizations(cfg, params, 0, n))
        assert len(rs) == n and all(r.distances.size >= 1 for r in rs)
        s = math.pi * lam * np.array([r.distances[0]**2 for r in rs])
        expected = 1.0 - s_max / math.expm1(s_max)
        # the law is nearly uniform on [0, s_max], and its deviation is below
        # the uniform's s_max / sqrt(12)
        assert abs(s.mean() - expected) <= 4.0 * s_max / math.sqrt(12.0 * n)

    def test_default_window_first_arrival_is_untruncated_inverse_cdf(self):
        # -expm1(-576) rounds to 1, so the truncated draw is bit-equal to
        # inverting the plain exponential CDF at the same uniforms
        s_max = mc.WINDOW_K**2
        # at pi lam = 1 the yielded squared distances are the scales
        s0, _ = next(mc._rings(block_generator(42, 0), 1.0, s_max))
        u = block_generator(42, 0).random(B)
        assert np.array_equal(s0, -np.log1p(-u))

    def test_realization_invariants_enforced(self):
        for distances, fading in [
                ([], []),
                ([1.0, 0.5], [1.0, 1.0]),         # not ascending: 0.5 would serve
                ([1.0, 2.0], [1.0]),
                ([1.0, 2.0], [1.0, 0.0]),
                ([-1.0, 2.0], [1.0, 1.0]),
                ([1.0, math.nan], [1.0, 1.0])]:
            with pytest.raises(ValueError):
                Realization(np.array(distances), np.array(fading))

    @pytest.mark.parametrize("radius_of", [
        pytest.param(window_radius, id="default-window"),
        pytest.param(lambda lam: math.sqrt(2.0 / (math.pi * lam)), id="two-station-window"),
        # ends 27.5 units into the second ring
        pytest.param(lambda lam: math.sqrt(100.0 / (math.pi * lam)), id="mid-ring-window"),
    ])
    def test_rows_are_the_kernel_distances(self, radius_of):
        # each realization is its row of the square roots of the squared
        # distances the coverage kernel reads its gains from, over the
        # stations within R^2, sorted, the serving station first; the
        # stations past R^2 have d^2 = inf and are dropped
        lam = 0.3
        params = SimParams(window_radius=radius_of(lam), trials=1, seed=42)
        a = math.pi * lam
        d2_max = params.window_radius**2
        rings = mc._rings(block_generator(42, 0), a, d2_max)
        d2_0, h0 = next(rings)
        per_row = [([d2_0[row]], [h0[row]]) for row in range(B)]
        absent = 0
        for counts, d2, h in rings:
            assert np.all((d2 <= d2_max) | (d2 == math.inf))
            absent += int(np.count_nonzero(d2 == math.inf))
            for row, (d2_row, h_row) in enumerate(zip(np.split(d2, np.cumsum(counts)[:-1]),
                                                      np.split(h, np.cumsum(counts)[:-1]))):
                per_row[row][0].extend(d2_row[d2_row <= d2_max])
                per_row[row][1].extend(h_row[d2_row <= d2_max])
        assert absent > 0
        rows = sample_block(NetworkConfig(lam, 4.0, 10.0), params, 0)
        assert len(rows) == B
        for r, (d2_row, h_row) in zip(rows, per_row):
            order = np.argsort(d2_row, kind="stable")
            assert order[0] == 0
            assert np.array_equal(r.distances, np.sqrt(np.array(d2_row)[order]))
            assert np.array_equal(r.fading, np.array(h_row)[order])


class TestRingStream:
    """The law of the ring construction: given the serving station at s0 in
    the scale pi lam d^2, the rest of a window of scale s_max is a unit-rate
    Poisson process on (s0, s_max]."""

    @pytest.mark.parametrize("s_max", [
        pytest.param(70.0, id="inside-first-ring"),
        pytest.param(mc.WINDOW_K**2, id="default-window"),
    ])
    def test_station_counts_are_one_plus_poisson_past_the_serving_station(self, s_max):
        # randomized probability integral transform: given s0, the count n
        # maps to F(n - 2) + V p(n - 1) under Poisson(s_max - s0), which is
        # uniform exactly when n - 1 follows that law
        lam = 1.0
        params = SimParams(window_radius=math.sqrt(s_max / math.pi), trials=1, seed=5)
        rs = list(realizations(NetworkConfig(lam, 4.0, 10.0), params, 0, 40 * B))
        n = np.array([r.distances.size for r in rs]) - 1
        mean = s_max - math.pi * lam * np.array([r.distances[0]**2 for r in rs])
        v = np.random.default_rng(0).random(n.size)
        pit = stats.poisson.cdf(n - 1, mean) + v * stats.poisson.pmf(n, mean)
        assert stats.kstest(pit, "uniform").pvalue > 1e-3

    def test_positions_are_uniform_within_a_ring(self):
        # ring 0 runs from each row's serving station to W, and ring k >= 1
        # is the whole [k W, (k+1) W), the last one cut at the window edge;
        # at pi lam = 1 the yielded squared distances are the scales
        s_max = mc.WINDOW_K**2
        rel = {}
        for block in range(4):
            rings = mc._rings(block_generator(9, block), 1.0, s_max)
            s0, _ = next(rings)
            for k, (counts, s, _) in enumerate(rings):
                inner = np.repeat(s0 if k == 0 else np.full(B, k * mc._RING), counts)
                inside = s <= s_max
                s, inner = s[inside], inner[inside]
                # every row's stations lie in its ring
                assert np.all(inner <= s) and np.all(s < (k + 1) * mc._RING), k
                outer = min((k + 1) * mc._RING, s_max)
                rel.setdefault(k, []).append((s - inner) / (outer - inner))
        assert sorted(rel) == list(range(8))
        for k, u in rel.items():
            assert stats.kstest(np.concatenate(u), "uniform").pvalue > 1e-3, k

    def test_ring_0_is_the_only_partial_ring(self):
        # the largest uniform, 1 - 2^-53, puts every serving station at the
        # largest scale it can reach, 53 ln 2 = 36.7, still inside ring 0
        class TopServingUniforms:
            def __init__(self, rng):
                self.rng, self.served = rng, False

            def random(self, size):
                if self.served:
                    return self.rng.random(size)
                self.served = True
                return np.full(size, 1.0 - 2.0**-53)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        rings = mc._rings(TopServingUniforms(block_generator(4, 0)), 1.0, mc.WINDOW_K**2)
        s0, _ = next(rings)
        assert np.all(s0 == 53.0 * math.log(2.0))
        assert s0[0] < mc._RING
        for k, mean in ((0, mc._RING - s0[0]), (1, mc._RING)):
            counts, s, _ = next(rings)
            assert abs(counts.mean() - mean) <= 4.0 * math.sqrt(mean / B), k
            inner = s0[0] if k == 0 else mc._RING
            assert inner <= s.min() and s.max() < (k + 1) * mc._RING, k

    @pytest.mark.parametrize("s_max", [
        pytest.param(50.0, id="inside-first-ring"),
        pytest.param(100.0, id="mid-ring-window"),
        pytest.param(mc.WINDOW_K**2, id="default-window"),
    ])
    def test_stations_past_the_window_are_absent(self, s_max):
        # past 54 ln 2 = 37.4, -expm1(-s_max) rounds to 1 and the serving
        # draw does not depend on the window, so the window that ends at the
        # last ring's outer edge draws the same stations and marks none
        whole = list(mc._rings(block_generator(3, 0), 1.0,
                               math.ceil(s_max / mc._RING) * mc._RING))
        cut = list(mc._rings(block_generator(3, 0), 1.0, s_max))
        assert len(cut) == len(whole)
        assert all(np.array_equal(x, y) for x, y in zip(cut[0], whole[0]))
        last = len(cut) - 2
        for k, ((counts, s, h), (counts_w, s_w, h_w)) in enumerate(zip(cut[1:], whole[1:])):
            assert np.array_equal(counts, counts_w) and np.array_equal(h, h_w)
            assert np.all(np.isfinite(s_w))
            past = s_w > s_max
            assert past.any() == (k == last), k
            # non-finite scales occur in the last ring only, exactly past s_max
            assert np.array_equal(s[~past], s_w[~past])
            assert np.all(s[past] == math.inf)

    def test_default_window_ends_inside_its_last_ring(self):
        # WINDOW_K^2 rounds either side of 576 with the density: both round
        # into the eighth ring, which ends 4 units further out
        for lam in (1e-3, 0.3, 0.5, 1.0, 2.0, 10.0):
            s_max = math.pi * lam * window_radius(lam)**2
            assert 7 * mc._RING < s_max < 8 * mc._RING - 3.9, lam

    def test_window_that_overflows_is_refused_before_any_draw(self):
        # rings are drawn until one starts past the window, never at inf
        with pytest.raises(OverflowError, match="overflows"):
            next(mc._rings(block_generator(0, 0), 1.0, math.inf))
        huge = NetworkConfig(1e308, 4.0, 10.0)   # pi lam rounds to inf
        params = SimParams(window_radius(1e308), 1, 0)
        with pytest.raises(OverflowError):
            estimate_cp(huge, PathlossModel.BOUNDED_G1, params)
        with pytest.raises(OverflowError):
            sample_block(huge, params, 0)
        with pytest.raises(OverflowError, match=r"lambda=1 BS/m\^2, R=1e\+200 m"):
            sample_block(CFG_LAM1, SimParams(1e200, 1, 0), 0)

    @pytest.mark.parametrize("counts", [
        pytest.param([0, 2, 3], id="leading"),
        pytest.param([2, 0, 0, 3], id="middle"),
        pytest.param([2, 3, 0], id="trailing"),
        pytest.param([0, 0, 0], id="all"),
    ])
    def test_row_sums_with_empty_rows(self, counts):
        counts = np.array(counts)
        x = np.arange(1.0, counts.sum() + 1.0)
        rows = np.split(x, np.cumsum(counts)[:-1])
        assert np.array_equal(mc._row_sums(x, counts), [r.sum() for r in rows])


class TestSirSample:
    def test_single_station_is_covered_at_any_threshold(self):
        r = Realization(np.array([math.sqrt(5.0)]), np.array([0.7]))
        assert sir_sample(r, PathlossModel.BOUNDED_G1, 4.0) == math.inf

    def test_equidistant_equal_fading_gives_unit_sir(self):
        r = Realization(np.array([1.0, 1.0]), np.array([0.9, 0.9]))
        for model in PathlossModel:
            assert sir_sample(r, model, 4.0) == pytest.approx(1.0, rel=1e-14)

    def test_three_station_hand_computation(self):
        r = Realization(np.array([1.0, 2.0, 3.0]), np.array([0.5, 2.0, 1.0]))
        expected = (0.5 * 2.0**-4) / (2.0 * 3.0**-4 + 1.0 * 4.0**-4)
        assert sir_sample(r, PathlossModel.BOUNDED_G1, 4.0) == pytest.approx(
            expected, rel=1e-14)

    def test_interferer_power_underflow_raises(self):
        # at this density every received power underflows, so the interferers
        # would otherwise read as absent and each trial as covered
        lam = 1e-200
        cfg = NetworkConfig(lambda_bs=lam, alpha=4.0, tau=10.0)
        block = sample_block(cfg, params_for(lam, B), 0)
        assert all(r.distances.size > 1 for r in block)
        for r in block:
            with pytest.raises(FloatingPointError):
                sir_sample(r, PathlossModel.BOUNDED_G1, cfg.alpha)

    def test_unbounded_rejects_station_at_origin(self):
        r = Realization(np.array([0.0, math.sqrt(2.0)]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            sir_sample(r, PathlossModel.UNBOUNDED, 4.0)


class TestKernel:
    def test_serving_station_at_the_origin_is_covered(self, monkeypatch):
        # a serving draw at d^2 = 0 has gain inf under d^-alpha
        rings = mc._rings

        def serving_at_origin(*args):
            stream = rings(*args)
            d2_0, h0 = next(stream)
            d2_0[0] = 0.0
            yield d2_0, h0
            yield from stream

        params = params_for(CFG.lambda_bs, B)
        drawn = mc._covered_block(CFG, PathlossModel.UNBOUNDED, params, 0)
        monkeypatch.setattr(mc, "_rings", serving_at_origin)
        hits = mc._covered_block(CFG, PathlossModel.UNBOUNDED, params, 0)
        assert hits[0]
        assert np.array_equal(hits[1:], drawn[1:])


class TestEstimates:
    def test_threshold_to_zero_gives_certain_coverage(self):
        cfg = NetworkConfig(0.3, 4.0, 1e-12)
        est = estimate_cp(cfg, PathlossModel.BOUNDED_G1, params_for(0.3, 500))
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_trial_outcome_depends_only_on_seed_and_trial_index(self):
        # doubling the trial count adds exactly the outcomes of trials
        # [n, 2n); n is not a multiple of the block size, so [n, 2n) starts
        # and ends inside a block
        n = 300
        model = PathlossModel.BOUNDED_G1
        est_n = estimate_cp(CFG, model, params_for(0.3, n))
        est_2n = estimate_cp(CFG, model, params_for(0.3, 2 * n))
        added = sum(public_outcomes(CFG, model, params_for(0.3, 1), n, 2 * n))
        assert round(est_2n.mean * 2 * n) - round(est_n.mean * n) == added

    @pytest.mark.parametrize("n", [1, B - 1, B + 1, 2 * B + 5])
    def test_last_block_is_cut_to_the_requested_trials(self, n):
        model = PathlossModel.BOUNDED_G2
        est = estimate_cp(CFG, model, params_for(0.3, n))
        assert est.trials == n
        assert round(est.mean * n) == sum(public_outcomes(CFG, model, params_for(0.3, 1), 0, n))

    @pytest.mark.parametrize("model, lam, tau", [
        # the density and threshold tested first keep the bare model as id
        pytest.param(model, lam, tau, id=str(model) + (
            "" if (lam, tau) == (0.3, 10.0) else f"-lam{lam:g}-tau{tau:g}"))
        for lam in (0.3, 1e-3) for tau in (10.0, 1.0) for model in PathlossModel])
    def test_fast_path_parity_with_public_sampling(self, model, lam, tau):
        # the coverage kernel skips Realization objects; its
        # per-trial indicator must match the public sample/SIR route draw
        # for draw.  In the default window the positions it masks beyond
        # the edge, 4 units before its last ring's end, carry little power;
        # in a sparse window holding about two stations, where 70 of the
        # first ring's 72.5 units lie outside, they would carry most of it.
        # A window holding about 128 stations ends in the middle of the
        # second ring.
        cfg = NetworkConfig(lam, 4.0, tau)
        for radius in (window_radius(lam), math.sqrt(2.0 / (math.pi * lam)),
                       math.sqrt(128.0 / (math.pi * lam))):
            params = SimParams(window_radius=radius, trials=1, seed=42)
            fast = np.concatenate([mc._covered_block(cfg, model, params, block)
                                   for block in range(-(-300 // B))])[:300]
            assert fast.tolist() == public_outcomes(cfg, model, params, 0, 300)

    def test_matches_analytic_coverage(self):
        # smoke-level cross-checks; the full 1e5-trial grid runs in acceptance
        est = estimate_cp(CFG, PathlossModel.BOUNDED_G1, params_for(0.3, 20_000))
        ref = analytic.cp_g1_quadrature(CFG).value
        se = math.sqrt(ref * (1.0 - ref) / 20_000)
        assert abs(est.mean - ref) <= 3.0 * se

        cfg1 = NetworkConfig(1.0, 4.0, 10.0)
        est1 = estimate_cp(cfg1, PathlossModel.BOUNDED_G1, params_for(1.0, 20_000))
        ref1 = analytic.cp_g1_quadrature(cfg1).value
        se1 = math.sqrt(max(ref1 * (1.0 - ref1), est1.mean * (1 - est1.mean)) / 20_000)
        assert abs(est1.mean - ref1) <= 3.0 * se1

    def test_upm_matches_density_free_coverage(self):
        cfg = NetworkConfig(0.01, 4.0, 10.0)
        est = estimate_cp(cfg, PathlossModel.UNBOUNDED, params_for(0.01, 20_000))
        ref = analytic.cp_upm(cfg).value
        assert abs(est.mean - ref) <= 3.0 * math.sqrt(ref * (1.0 - ref) / 20_000)

    @pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
    def test_g2_matches_analytic_coverage(self, lam):
        cfg = NetworkConfig(lam, 4.0, 10.0)
        est = estimate_cp(cfg, PathlossModel.BOUNDED_G2, params_for(lam, 20_000))
        ref = analytic.cp_g2(cfg).value
        se = math.sqrt(max(ref * (1.0 - ref), est.mean * (1.0 - est.mean)) / 20_000)
        assert abs(est.mean - ref) <= 3.0 * se

    def test_covered_counts_are_pinned(self):
        # covered counts out of 2000 trials at alpha = 4, frozen from the
        # kernel that mapped each squared-distance scale s to d = sqrt(s/(pi
        # lam)) before the gain; reading the gain from d^2 must not move one
        models = ("upm", "g1", "g2", "minb")
        for (lam, tau, seed), counts in PINNED_DEFAULT_WINDOW.items():
            cfg = NetworkConfig(lam, 4.0, tau)
            for tag, expected in zip(models, counts):
                est = estimate_cp(cfg, PathlossModel.from_tag(tag), params_for(lam, 2000, seed))
                assert round(est.mean * 2000) == expected, (tag, lam, tau, seed)
        # past the 1 m window floor, where s_max = 500 pi is not WINDOW_K^2
        for tau, seed, expected in ((1e-2, 42, 117), (1e-3, 42, 1485),
                                    (1e-2, 0, 107), (1e-3, 0, 1454)):
            est = estimate_cp(NetworkConfig(500.0, 4.0, tau), PathlossModel.BOUNDED_G1,
                              params_for(500.0, 2000, seed))
            assert round(est.mean * 2000) == expected, (tau, seed)
        # a window that ends 27.5 units into the second ring
        mid = SimParams(math.sqrt(100.0 / (math.pi * 0.3)), 2000, 42)
        for tag, expected in zip(models, (384, 10, 10, 22)):
            est = estimate_cp(CFG, PathlossModel.from_tag(tag), mid)
            assert round(est.mean * 2000) == expected, tag

    def test_transmit_power_never_enters(self):
        params = params_for(0.3, 1500)
        for model in PathlossModel:
            base = estimate_cp(CFG, model, params)
            for p_bs in (10.0 ** 0.1, 10.0 ** 4.0):
                cfg = dataclasses.replace(CFG, p_bs=p_bs)
                assert estimate_cp(cfg, model, params) == base
