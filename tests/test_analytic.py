import dataclasses
import math

import numpy as np
import pytest

from densecov import analytic
from densecov.analytic import (
    BracketError,
    ConsistencyError,
    QuadratureSpec,
    UnsupportedPathlossError,
    ase,
    ase_lower,
    ase_upper,
    cp_for_model,
    cp_g1_closed,
    cp_g1_lower,
    cp_g1_quadrature,
    cp_g1_upper,
    cp_g2,
    cp_g2_lower,
    cp_g2_upper,
    cp_upm,
    expectation_over_serving_distance,
    golden_section_max,
    optimal_density_closed,
    optimal_density_numeric,
    scaling_envelope_check,
)
from densecov.model import NetworkConfig, PathlossModel, derived_constants

from oracles import serving_distance_expectation

A4T10 = dict(alpha=4.0, tau=10.0)

# frozen references computed through an unrelated adaptive-quadrature +
# library-hypergeometric route
CP_G1_REF = {1e-6: 0.19920602501215623, 1e-3: 0.17436316100541618,
             0.3: 0.00526639668057379}
CP_G2_REF = {1e-3: 0.19994073202782445, 0.3: 0.006458172736268806}
CP_UPM_A4_T10 = 0.20004961028054148
LAMBDA_STAR_U_A4_T10 = 2.5331853286242795


def cfg_at(lam, **over):
    base = dict(A4T10)
    base.update(over)
    return NetworkConfig(lambda_bs=lam, **base)


class TestQuadratureEngine:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=1e-6)

    def test_matches_independent_oracle(self):
        lam = 0.07
        exponent = lambda x: 3.0 * x + 0.5 * x * x
        mine = expectation_over_serving_distance(exponent, lam)
        ref = serving_distance_expectation(lambda x: math.exp(-3.0 * x - 0.5 * x * x), lam)
        assert mine == pytest.approx(ref, rel=1e-9)



class TestCpUpm:
    def test_reference_value(self):
        v = cp_upm(cfg_at(0.1))
        assert v.value == pytest.approx(1.0 / (1.0 + 10.0 * math.atan(math.sqrt(10.0))
                                               / math.sqrt(10.0)), abs=1e-12)
        assert v.value == pytest.approx(CP_UPM_A4_T10, abs=1e-6)
        assert round(v.value, 4) == 0.2

    def test_density_invariant(self):
        assert cp_upm(cfg_at(1e-6)).value == cp_upm(cfg_at(1.0)).value

    def test_limit_threshold_to_zero(self):
        assert cp_upm(cfg_at(0.1, tau=1e-12)).value == pytest.approx(1.0, abs=1e-9)


class TestCpG1:
    def test_quadrature_against_frozen_reference(self):
        for lam, ref in CP_G1_REF.items():
            assert cp_g1_quadrature(cfg_at(lam)).value == pytest.approx(ref, rel=1e-8)

    def test_closed_matches_quadrature(self):
        for lam in (1e-5, 1e-2, 0.5, 2.0):
            closed = cp_g1_closed(cfg_at(lam), verify=False)
            quad = cp_g1_quadrature(cfg_at(lam))
            assert abs(closed.raw - quad.raw) <= 1e-6
            assert 0.0 <= closed.value <= 1.0

    def test_verify_mode_runs_the_cross_check(self):
        v = cp_g1_closed(cfg_at(0.5), verify=True)
        assert v.method == "closed_form"

    def test_consistency_error_surfaces_disagreement(self, monkeypatch):
        # force the quadrature route to disagree and confirm the diagnostic
        monkeypatch.setattr(
            analytic, "cp_g1_quadrature",
            lambda cfg, spec=None: analytic.CpValue(0.5, "quadrature", 0.5))
        with pytest.raises(ConsistencyError) as err:
            cp_g1_closed(cfg_at(1e-3), verify=True)
        assert err.value.quadrature_value == 0.5
        assert abs(err.value.closed_value - CP_G1_REF[1e-3]) < 1e-6

    def test_low_density_limit_and_root_lambda_rate(self):
        limit = cp_upm(cfg_at(1.0)).value
        dev10 = limit - cp_g1_closed(cfg_at(1e-10), verify=False).value
        dev8 = limit - cp_g1_closed(cfg_at(1e-8), verify=False).value
        assert abs(dev10) < 1e-4
        # the correction shrinks like sqrt(lambda): two decades -> factor 10
        assert dev10 / dev8 == pytest.approx(0.1, rel=0.05)

    def test_monotone_non_increasing(self):
        vals = [cp_g1_closed(cfg_at(lam), verify=False).value
                for lam in np.geomspace(1e-3, 10.0, 40)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_threshold_to_zero(self):
        assert cp_g1_quadrature(cfg_at(0.3, tau=1e-12)).value == pytest.approx(1.0, abs=1e-9)

    def test_small_density_approaches_upm(self):
        assert cp_g1_quadrature(cfg_at(1e-8)).value == pytest.approx(
            cp_upm(cfg_at(1e-8)).value, abs=1e-4)

    def test_deep_tail_cancellation_is_visible_in_raw(self):
        v = cp_g1_closed(cfg_at(8.0), verify=False)
        assert 0.0 <= v.value <= 1.0
        assert abs(v.raw) < 1e-12  # tiny, possibly negative: clamped only in value


class TestCpG1Bounds:
    def test_low_density_limits(self):
        # limits are approached like sqrt(lambda); check value and rate
        dc = derived_constants(**A4T10)
        for fn, c in ((cp_g1_lower, dc.c1), (cp_g1_upper, dc.c_hat)):
            limit = 1.0 / (1.0 + c)
            dev12 = limit - fn(cfg_at(1e-12)).value
            dev10 = limit - fn(cfg_at(1e-10)).value
            assert abs(dev12) < 1e-5
            assert dev12 / dev10 == pytest.approx(0.1, rel=0.05)

    def test_sandwich(self):
        for lam in (1e-4, 0.3, 1.0):
            lo = cp_g1_lower(cfg_at(lam)).value
            mid = cp_g1_quadrature(cfg_at(lam)).value
            hi = cp_g1_upper(cfg_at(lam)).value
            assert lo <= mid + 1e-9
            assert mid <= hi + 1e-9

    def test_threshold_to_zero(self):
        assert cp_g1_lower(cfg_at(0.3, tau=1e-12)).value == pytest.approx(1.0, abs=1e-9)
        assert cp_g1_upper(cfg_at(0.3, tau=1e-12)).value == pytest.approx(1.0, abs=1e-9)

    def test_closed_bounds_match_direct_integration(self):
        dc = derived_constants(**A4T10)
        for lam, c, fn in ((0.05, dc.c1, cp_g1_lower), (0.05, dc.c_hat, cp_g1_upper)):
            ref = serving_distance_expectation(
                lambda x: math.exp(-math.pi * lam * c * (1.0 + x) ** 2), lam)
            assert fn(cfg_at(lam)).value == pytest.approx(ref, rel=1e-9)


class TestCpG2:
    def test_against_frozen_reference(self):
        for lam, ref in CP_G2_REF.items():
            assert cp_g2(cfg_at(lam)).value == pytest.approx(ref, rel=1e-8)
        assert cp_g2(NetworkConfig(0.1, 3.0, 1.0)).value == pytest.approx(
            0.2592804204555099, rel=1e-8)

    def test_threshold_to_zero(self):
        assert cp_g2(cfg_at(0.3, tau=1e-12)).value == pytest.approx(1.0, abs=1e-9)

    def test_small_density_approaches_upm(self):
        assert cp_g2(cfg_at(1e-8)).value == pytest.approx(cp_upm(cfg_at(1e-8)).value, abs=2e-2)

    def test_upper_bound_closed_form(self):
        dc = derived_constants(**A4T10)
        k = dc.c_hat * 2.0**-4
        assert cp_g2_upper(cfg_at(1e-12)).value == pytest.approx(1.0 / (1.0 + k), rel=1e-9)
        assert cp_g2_upper(cfg_at(0.3, tau=1e-12)).value == pytest.approx(1.0, abs=1e-9)

    def test_upper_bound_holds(self):
        for lam in (1e-3, 0.3, 1.0):
            assert cp_g2(cfg_at(lam)).value <= cp_g2_upper(cfg_at(lam)).value + 1e-9

    def test_lower_bound_is_tail_integral(self):
        lam = 0.05
        dc = derived_constants(**A4T10)
        ref = serving_distance_expectation(
            lambda x: (math.exp(-math.pi * lam * dc.c1 * 4.0 * (1.0 + x) ** 2)
                       if x >= 1.0 else 0.0), lam)
        assert cp_g2_lower(cfg_at(lam)).value == pytest.approx(ref, rel=1e-7)

    def test_lower_bound_below_exact_and_below_g1_lower(self):
        # the restricted tail integral sits under both coverage curves; the
        # cross-model orderings the bound chains end with are observations,
        # checked rather than assumed
        for lam in (1e-3, 0.1, 0.3):
            lo2 = cp_g2_lower(cfg_at(lam)).value
            assert lo2 <= cp_g2(cfg_at(lam)).value + 1e-9
            assert lo2 <= cp_g1_lower(cfg_at(lam)).value + 1e-9
            assert cp_g2_upper(cfg_at(lam)).value >= cp_g1_upper(cfg_at(lam)).value - 1e-9

    def test_dispatcher_rejects_min_bounded(self):
        with pytest.raises(UnsupportedPathlossError):
            cp_for_model(cfg_at(0.1), PathlossModel.MIN_BOUNDED)


class TestLowDensityInvariance:
    @pytest.mark.xfail(
        strict=True,
        reason="the additive-offset bounded model loses ~4% coverage across "
               "this span (its low-density correction scales like "
               "sqrt(density), cross-checked against the independent integral "
               "reference); the 1.01 band only holds below 1e-5 BS/m^2")
    def test_g1_invariant_to_one_percent_up_to_1e4(self):
        lams = np.geomspace(1e-6, 1e-4, 9)
        vals = [cp_g1_quadrature(cfg_at(lam)).value for lam in lams]
        assert max(vals) / min(vals) < 1.01

    def test_g1_actual_invariance_range(self):
        # where the 1% band does hold, and the measured span of the fall-off
        lams = np.geomspace(1e-6, 1e-5, 5)
        vals = [cp_g1_quadrature(cfg_at(lam)).value for lam in lams]
        assert max(vals) / min(vals) < 1.01
        full = [cp_g1_quadrature(cfg_at(lam)).value for lam in (1e-6, 1e-4)]
        assert full[0] / full[1] == pytest.approx(1.0392, abs=2e-3)


class TestAse:
    def test_zero_coverage(self):
        v = ase(cfg_at(1.0), analytic.CpValue(0.0, "closed_form", 0.0))
        assert v.value == 0.0

    def test_unit_spectral_efficiency_point(self):
        cfg = cfg_at(2.0, tau=1.0)
        v = ase(cfg, analytic.CpValue(0.5, "closed_form", 0.5))
        assert v.value == pytest.approx(1.0, abs=1e-15)

    def test_never_exceeds_full_coverage_line(self):
        for lam in (1e-3, 0.3, 2.0):
            cfg = cfg_at(lam)
            v = ase(cfg, cp_g1_quadrature(cfg))
            assert 0.0 <= v.value <= lam * math.log2(11.0) + 1e-15

    def test_rejects_out_of_range_coverage(self):
        with pytest.raises(ValueError):
            ase(cfg_at(1.0), analytic.CpValue(1.5, "closed_form", 1.5))


class TestAseBounds:
    def test_upper_low_density_slope(self):
        dc = derived_constants(**A4T10)
        lam = 1e-12
        expected = math.log2(11.0) / (1.0 + 2.0**-4 * dc.c_hat)
        assert ase_upper(cfg_at(lam)).value / lam == pytest.approx(expected, rel=1e-9)

    def test_upper_is_maximized_at_closed_form_density(self):
        star = optimal_density_closed(**A4T10)
        v_star = ase_upper(cfg_at(star)).value
        assert v_star > ase_upper(cfg_at(star * 1.01)).value
        assert v_star > ase_upper(cfg_at(star * 0.99)).value

    def test_lower_below_upper(self):
        for lam in np.geomspace(1e-5, 2.0, 12):
            assert ase_lower(cfg_at(lam)).value <= ase_upper(cfg_at(lam)).value + 1e-15

    def test_lower_matches_scaled_tail_coverage(self):
        # the printed bracket integrates exactly the restricted tail bound
        for lam in (1e-3, 0.1, 0.3):
            cfg = cfg_at(lam)
            scaled = lam * math.log2(11.0) * cp_g2_lower(cfg).value
            assert ase_lower(cfg).value == pytest.approx(scaled, rel=1e-7)

    def test_lower_underflows_to_zero_deep_in_the_tail(self):
        assert ase_lower(cfg_at(5.0)).value == 0.0


class TestOptimalDensity:
    def test_closed_form_value(self):
        star = optimal_density_closed(**A4T10)
        dc = derived_constants(**A4T10)
        assert star == pytest.approx(LAMBDA_STAR_U_A4_T10, rel=1e-12)
        assert star * math.pi * dc.c_hat == pytest.approx(2.0**4, rel=1e-12)

    def test_inverse_proportionality_in_chat(self):
        # doubling the decay constant halves the maximizer
        dc = derived_constants(**A4T10)
        assert 2.0**4 / (math.pi * 2.0 * dc.c_hat) == pytest.approx(
            optimal_density_closed(**A4T10) / 2.0, rel=1e-12)

    def test_golden_section_recovers_closed_form_on_upper_envelope(self):
        star = optimal_density_closed(**A4T10)
        num = golden_section_max(lambda lam: ase_upper(cfg_at(lam)).value,
                                 1e-4, 10.0, rel_tol=1e-8)
        assert abs(num - star) <= 1e-6 * star

    def test_numeric_argmax_for_exact_curves(self):
        template = cfg_at(1.0)
        for model in (PathlossModel.BOUNDED_G1, PathlossModel.BOUNDED_G2):
            star = optimal_density_numeric(template, model)
            assert 1e-4 < star < 10.0
            # single-peak shape: the curve falls beyond the maximizer
            cfg_hi = cfg_at(3.0 * star)
            cfg_at_star = cfg_at(star)
            assert ase(cfg_hi, cp_for_model(cfg_hi, model)).value \
                < ase(cfg_at_star, cp_for_model(cfg_at_star, model)).value

    def test_monotone_objective_raises(self):
        with pytest.raises(BracketError):
            golden_section_max(lambda lam: lam, 1e-3, 1.0)
        # near-zero threshold: coverage ~ 1 everywhere, ASE ~ linear
        template = cfg_at(1.0, tau=1e-9)
        with pytest.raises(BracketError):
            optimal_density_numeric(template, PathlossModel.BOUNDED_G1,
                                    bracket=(1e-4, 1e-2))

    def test_min_bounded_rejected(self):
        with pytest.raises(UnsupportedPathlossError):
            optimal_density_numeric(cfg_at(1.0), PathlossModel.MIN_BOUNDED)


class TestScalingEnvelope:
    def test_upper_ratio_constant_and_lower_ratio_positive(self):
        lam0 = optimal_density_closed(**A4T10)
        report = scaling_envelope_check(4.0, 10.0, np.geomspace(lam0, 10.0 * lam0, 12))
        assert report.all_pass
        assert report.m > 0.0
        ratios = [p.upper_ratio for p in report.points]
        assert max(ratios) - min(ratios) <= 1e-12 * report.big_m
        for p in report.points:
            assert 0.0 < p.q2_over_q1 < 0.5
            assert p.lower_ratio >= report.m - 1e-15

    def test_single_point_grid(self):
        lam0 = optimal_density_closed(**A4T10)
        report = scaling_envelope_check(4.0, 10.0, [10.0 * lam0])
        assert len(report.points) == 1 and report.all_pass

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            scaling_envelope_check(4.0, 10.0, [2.0, 1.0, 30.0])
        with pytest.raises(ValueError):
            scaling_envelope_check(4.0, 10.0, [1.0])  # never reaches the tail


class TestTransmitPowerInvariance:
    def test_all_outputs_bit_identical(self):
        for p_bs in (10.0 ** 0.1, 100.0, 1e4):
            base = cfg_at(0.3)
            cfg = dataclasses.replace(base, p_bs=p_bs)
            assert cp_upm(cfg).value == cp_upm(base).value
            assert cp_g1_quadrature(cfg).value == cp_g1_quadrature(base).value
            assert cp_g1_closed(cfg, verify=False).value == cp_g1_closed(base, verify=False).value
            assert cp_g2(cfg).value == cp_g2(base).value
            assert ase_upper(cfg).value == ase_upper(base).value
            assert ase_lower(cfg).value == ase_lower(base).value
