import dataclasses
import math

import numpy as np
import pytest

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
        assert np.array_equal(r1.bs_points, r2.bs_points)
        assert np.array_equal(r1.fading, r2.fading)
        assert r1.serving_index == r2.serving_index == 0

    def test_poisson_count_mean(self):
        # window sized so lam * pi * R^2 = 100
        R = math.sqrt(100.0 / math.pi)
        params = SimParams(window_radius=R, trials=1, seed=3)
        counts = [r.bs_points.shape[0] for r in realizations(CFG_LAM1, params, 0, 10_000)]
        mean = float(np.mean(counts))
        assert abs(mean - 100.0) <= 3.0 * math.sqrt(100.0 / 10_000.0)

    def test_serving_distance_squared_is_exponential(self):
        # d0^2 ~ Exp(rate pi lam); compare first moments at modest sample size
        lam = 0.5
        params = params_for(lam, 1, seed=11)
        cfg = NetworkConfig(lam, 4.0, 10.0)
        d2 = np.array([r.serving_distance**2 for r in realizations(cfg, params, 0, 2000)])
        expected = 1.0 / (math.pi * lam)
        assert abs(d2.mean() - expected) <= 4.0 * expected / math.sqrt(2000.0)

    def test_window_extension_keeps_prefix(self):
        # a doubled window replays the same inner stations, so truncation
        # comparisons are coupled rather than independent draws
        p_small = params_for(0.3, 1)
        p_big = SimParams(window_radius=2.0 * p_small.window_radius, trials=1, seed=42)
        r_small = sample_block(CFG, p_small, 5 // B)[5 % B]
        r_big = sample_block(CFG, p_big, 5 // B)[5 % B]
        n = r_small.bs_points.shape[0]
        assert r_big.bs_points.shape[0] > n
        assert np.array_equal(r_big.bs_points[:n], r_small.bs_points)
        assert np.array_equal(r_big.fading[:n], r_small.fading)

    def test_sparse_window_always_has_a_serving_station(self):
        # expected count lam pi R^2 = 1e-3: the first arrival comes from its
        # law given a non-empty window, Exp(1) truncated at s_max in pi lam d^2
        lam, s_max, n = 1e-4, 1e-3, 2000
        params = SimParams(window_radius=math.sqrt(s_max / (math.pi * lam)), trials=1, seed=1)
        cfg = NetworkConfig(lam, 4.0, 10.0)
        rs = list(realizations(cfg, params, 0, n))
        assert len(rs) == n and all(r.bs_points.shape[0] >= 1 for r in rs)
        s = math.pi * lam * np.array([r.serving_distance**2 for r in rs])
        expected = 1.0 - s_max / math.expm1(s_max)
        # the law is nearly uniform on [0, s_max], and its deviation is below
        # the uniform's s_max / sqrt(12)
        assert abs(s.mean() - expected) <= 4.0 * s_max / math.sqrt(12.0 * n)

    def test_default_window_first_arrival_is_untruncated_inverse_cdf(self):
        # -expm1(-576) rounds to 1, so the truncated draw is bit-equal to
        # inverting the plain exponential CDF at the same uniforms
        s_max = mc.WINDOW_K**2
        s0, _ = next(mc._radial_chunks(block_generator(42, 0), s_max))
        u = block_generator(42, 0).random(B)
        assert np.array_equal(s0[:, 0], -np.log1p(-u))

    def test_realization_invariants_enforced(self):
        with pytest.raises(ValueError):
            Realization(np.empty((0, 2)), 0, 0.0, np.empty(0))
        with pytest.raises(ValueError):
            Realization(np.array([[1.0, 0.0], [0.5, 0.0]]), 0, 1.0,
                        np.array([1.0, 1.0]))  # serving station is not nearest


class TestSirSample:
    def test_single_station_is_covered_at_any_threshold(self):
        r = Realization(np.array([[2.0, 1.0]]), 0, math.sqrt(5.0), np.array([0.7]))
        assert sir_sample(r, PathlossModel.BOUNDED_G1, 4.0) == math.inf

    def test_equidistant_equal_fading_gives_unit_sir(self):
        r = Realization(np.array([[1.0, 0.0], [-1.0, 0.0]]), 0, 1.0, np.array([0.9, 0.9]))
        for model in PathlossModel:
            assert sir_sample(r, model, 4.0) == pytest.approx(1.0, rel=1e-14)

    def test_three_station_hand_computation(self):
        r = Realization(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]]), 0, 1.0,
                        np.array([0.5, 2.0, 1.0]))
        expected = (0.5 * 2.0**-4) / (2.0 * 3.0**-4 + 1.0 * 4.0**-4)
        assert sir_sample(r, PathlossModel.BOUNDED_G1, 4.0) == pytest.approx(
            expected, rel=1e-14)

    def test_interferer_power_underflow_raises(self):
        # at this density every received power underflows, so the interferers
        # would otherwise read as absent and each trial as covered
        lam = 1e-200
        cfg = NetworkConfig(lambda_bs=lam, alpha=4.0, tau=10.0)
        block = sample_block(cfg, params_for(lam, B), 0)
        assert all(r.bs_points.shape[0] > 1 for r in block)
        for r in block:
            with pytest.raises(FloatingPointError):
                sir_sample(r, PathlossModel.BOUNDED_G1, cfg.alpha)

    def test_unbounded_rejects_station_at_origin(self):
        r = Realization(np.array([[0.0, 0.0], [1.0, 1.0]]), 0, 0.0, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            sir_sample(r, PathlossModel.UNBOUNDED, 4.0)


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
        # the coverage kernel skips angles and Realization objects; its
        # per-trial indicator must match the public sample/SIR route draw
        # for draw.  In the default window the slots it masks beyond the
        # edge carry little power; in a sparse window holding about two
        # stations they would carry most of it.
        cfg = NetworkConfig(lam, 4.0, tau)
        for radius in (window_radius(lam), math.sqrt(2.0 / (math.pi * lam))):
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

    def test_transmit_power_never_enters(self):
        params = params_for(0.3, 1500)
        for model in PathlossModel:
            base = estimate_cp(CFG, model, params)
            for p_bs in (10.0 ** 0.1, 10.0 ** 4.0):
                cfg = dataclasses.replace(CFG, p_bs=p_bs)
                assert estimate_cp(cfg, model, params) == base
