import dataclasses
import math

import numpy as np
import pytest

from densecov import analytic, mc
from densecov.mc import (
    Realization,
    ResampleLimitError,
    SimParams,
    estimate_ase,
    estimate_cp,
    realization_from_points,
    sample_network,
    sir_sample,
    trial_generator,
    window_radius,
)
from densecov.model import NetworkConfig, PathlossModel

CFG = NetworkConfig(lambda_bs=0.3, alpha=4.0, tau=10.0)
CFG_LAM1 = NetworkConfig(lambda_bs=1.0, alpha=4.0, tau=10.0)


def params_for(lam, trials, seed=42, k=mc.DEFAULT_WINDOW_K):
    return SimParams(window_radius=window_radius(lam, k), trials=trials, seed=seed)


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
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimParams(**kwargs)


class TestSampleNetwork:
    def test_fixed_seed_reproduces_realization(self):
        params = params_for(0.3, 1)
        r1 = sample_network(CFG, params, trial_generator(7, 0))
        r2 = sample_network(CFG, params, trial_generator(7, 0))
        assert np.array_equal(r1.bs_points, r2.bs_points)
        assert np.array_equal(r1.fading, r2.fading)
        assert r1.serving_index == r2.serving_index == 0

    def test_poisson_count_mean(self):
        # window sized so lam * pi * R^2 = 100
        R = math.sqrt(100.0 / math.pi)
        params = SimParams(window_radius=R, trials=1, seed=3)
        counts = [sample_network(CFG_LAM1, params, trial_generator(3, t)).bs_points.shape[0]
                  for t in range(10_000)]
        mean = float(np.mean(counts))
        assert abs(mean - 100.0) <= 3.0 * math.sqrt(100.0 / 10_000.0)

    def test_serving_distance_squared_is_exponential(self):
        # d0^2 ~ Exp(rate pi lam); compare first moments at modest sample size
        lam = 0.5
        params = params_for(lam, 1)
        cfg = NetworkConfig(lam, 4.0, 10.0)
        d2 = np.array([sample_network(cfg, params, trial_generator(11, t)).serving_distance**2
                       for t in range(2000)])
        expected = 1.0 / (math.pi * lam)
        assert abs(d2.mean() - expected) <= 4.0 * expected / math.sqrt(2000.0)

    def test_window_extension_keeps_prefix(self):
        # a doubled window replays the same inner stations, so truncation
        # comparisons are coupled rather than independent draws
        p_small = params_for(0.3, 1)
        p_big = SimParams(window_radius=2.0 * p_small.window_radius, trials=1, seed=42)
        r_small = sample_network(CFG, p_small, trial_generator(42, 5))
        r_big = sample_network(CFG, p_big, trial_generator(42, 5))
        n = r_small.bs_points.shape[0]
        assert r_big.bs_points.shape[0] > n
        assert np.array_equal(r_big.bs_points[:n], r_small.bs_points)
        assert np.array_equal(r_big.fading[:n], r_small.fading)

    def test_resample_limit_signals_misconfigured_window(self):
        tiny = SimParams(window_radius=0.01, trials=1, seed=1)
        cfg = NetworkConfig(1e-4, 4.0, 10.0)
        with pytest.raises(ResampleLimitError):
            sample_network(cfg, tiny, trial_generator(1, 0))

    def test_realization_invariants_enforced(self):
        with pytest.raises(ValueError):
            Realization(np.empty((0, 2)), 0, 0.0, np.empty(0))
        with pytest.raises(ValueError):
            Realization(np.array([[1.0, 0.0], [0.5, 0.0]]), 0, 1.0,
                        np.array([1.0, 1.0]))  # serving station is not nearest


class TestSirSample:
    def test_single_station_is_covered_at_any_threshold(self):
        r = realization_from_points([(2.0, 1.0)], [0.7])
        assert sir_sample(r, PathlossModel.BOUNDED_G1, 4.0) == math.inf

    def test_equidistant_equal_fading_gives_unit_sir(self):
        r = realization_from_points([(1.0, 0.0), (-1.0, 0.0)], [0.9, 0.9])
        for model in PathlossModel:
            assert sir_sample(r, model, 4.0) == pytest.approx(1.0, rel=1e-14)

    def test_three_station_hand_computation(self):
        r = realization_from_points([(1.0, 0.0), (0.0, 2.0), (3.0, 0.0)],
                                    [0.5, 2.0, 1.0])
        expected = (0.5 * 2.0**-4) / (2.0 * 3.0**-4 + 1.0 * 4.0**-4)
        assert sir_sample(r, PathlossModel.BOUNDED_G1, 4.0) == pytest.approx(
            expected, rel=1e-14)

    def test_unbounded_rejects_station_at_origin(self):
        r = realization_from_points([(0.0, 0.0), (1.0, 1.0)], [1.0, 1.0])
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
        # [n, 2n), each drawn on its own (seed, t) stream
        n = 300
        model = PathlossModel.BOUNDED_G1
        est_n = estimate_cp(CFG, model, params_for(0.3, n))
        est_2n = estimate_cp(CFG, model, params_for(0.3, 2 * n))
        params = params_for(0.3, 1)
        added = sum(
            sir_sample(sample_network(CFG, params, trial_generator(params.seed, t)),
                       model, CFG.alpha) > CFG.tau
            for t in range(n, 2 * n))
        assert round(est_2n.mean * 2 * n) - round(est_n.mean * n) == added

    @pytest.mark.parametrize("model", list(PathlossModel))
    def test_fast_path_parity_with_public_sampling(self, model):
        # estimate_cp skips building Realization objects; its per-trial
        # indicator must match the public sample/SIR route draw for draw
        from densecov.mc import _covered_trial
        params = params_for(0.3, 1)
        for trial in range(300):
            rng = trial_generator(params.seed, trial)
            realization = sample_network(CFG, params, rng)
            slow = sir_sample(realization, model, CFG.alpha) > CFG.tau
            assert _covered_trial(CFG, model, params, trial) == slow

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

    def test_ase_is_scaled_coverage(self):
        params = params_for(0.3, 2000)
        cp = estimate_cp(CFG, PathlossModel.BOUNDED_G2, params)
        ase = estimate_ase(CFG, PathlossModel.BOUNDED_G2, params)
        scale = 0.3 * math.log2(11.0)
        assert ase.mean == scale * cp.mean
        assert ase.stderr == scale * cp.stderr

    def test_zero_coverage_gives_zero_ase(self):
        cfg = NetworkConfig(5.0, 4.0, 10.0)  # coverage ~ 1e-30 at this density
        ase = estimate_ase(cfg, PathlossModel.BOUNDED_G1, params_for(5.0, 300))
        assert ase.mean == 0.0

    def test_transmit_power_never_enters(self):
        params = params_for(0.3, 1500)
        for model in PathlossModel:
            base = estimate_cp(CFG, model, params)
            for p_bs in (10.0 ** 0.1, 10.0 ** 4.0):
                cfg = dataclasses.replace(CFG, p_bs=p_bs)
                assert estimate_cp(cfg, model, params) == base
