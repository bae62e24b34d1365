import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import mpmath
from hypothesis import example, given, settings, strategies as st

from densecov import analytic, specfun
from densecov.analytic import (
    BracketError,
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

from oracles import (expectation_reference, exponent_g2_reference, g1_tail_identity_mp,
                     gauss_legendre_mp, inline_panel_rule, serving_distance_expectation)

A4T10 = dict(alpha=4.0, tau=10.0)

# frozen references computed through an unrelated adaptive-quadrature +
# library-hypergeometric route
CP_G1_REF = {1e-6: 0.19920602501215623, 1e-3: 0.17436316100541618,
             0.3: 0.00526639668057379}
CP_G2_REF = {1e-3: 0.19994073202782445, 0.3: 0.006458172736268806}
CP_UPM_A4_T10 = 0.20004961028054148
LAMBDA_STAR_U_A4_T10 = 2.5331853286242795

# cp_g2 as computed by the former Euler-panel evaluation of the
# hypergeometric function: the three figure cases (alpha, tau) and three
# further exponents, at these densities
CP_G2_FROZEN_LAMBDAS = np.geomspace(1e-6, 10.0, 8).tolist()
CP_G2_FROZEN = {
    (4.0, 10.0): [0.20004961001490487, 0.2000495889424906, 0.2000479990309425,
                  0.19994073202782447, 0.19436159289467736, 0.08338720106076544,
                  3.2734636286231015e-07, 6.291604939148382e-65],
    (3.0, 10.0): [0.08878719178758629, 0.08878655350781797, 0.08876685777657811,
                  0.08819386832695557, 0.07529921972906944, 0.005538941453911226,
                  4.92182358623289e-16, 3.03889721214878e-149],
    (3.0, 1.0): [0.3743498830514226, 0.37434965793457514, 0.3743426199523384,
                 0.37412817043503055, 0.3681692167598921, 0.25928042045551003,
                 0.0017508658030235534, 7.391436489844295e-27],
    (2.5, 10.0): [0.03700866008041856, 0.037003827951797616, 0.03691874264138177,
                  0.03549911524618744, 0.01966707466378761, 1.5677403252397663e-05,
                  7.650372663080625e-38, 0.0],
    (8.0, 10.0): [0.5014712711875147, 0.5014712700443799, 0.5014711557895846,
                  0.5014597884816512, 0.5003779092990975, 0.4304932398495706,
                  0.007333541435576108, 6.277419373681343e-25],
    (30.0, 10.0): [0.847149168881054, 0.8471491683549314, 0.8471491157539931,
                   0.847143866962561, 0.8466301419483483, 0.8050606606686965,
                   0.112363653422567, 2.2203703317719455e-14],
}


# cp_g2_lower (by restricted quadrature) and ase_lower (by the printed erfc
# bracket) as computed before both moved to the erfcx tail identity, on the
# grid of CP_G2_FROZEN: (cp_g2_lower, ase_lower) at each density
G2_LOWER_FROZEN = {
    (2.5, 10.0): (
        [0.02595833965249611, 0.024880606596520964, 0.021467880466690077,
         0.01133642548385837, 0.00013792101747385022, 8.173893528584315e-23,
         8.613211836900603e-205, 0.0],
        [8.980110096117132e-08, 8.607275715088031e-07, 7.426666447159363e-06,
         3.921758876118526e-05, 4.771283287236652e-06, 2.827702572015985e-23,
         2.9796817366594246e-204, 0.0],
    ),
    (3.0, 1.0): (
        [0.22911479766062803, 0.22658924050480483, 0.21849299786026566,
         0.19192374696704573, 0.1063766395741579, 0.001523101405389373,
         3.247148067622864e-21, 1.1185279996686173e-197],
        [2.2911479766062794e-07, 2.2658924050480476e-06, 2.1849299786026563e-05,
         0.00019192374696704563, 0.0010637663957415789, 0.00015231014053893727,
         3.2471480676228753e-21, 1.1185279996687697e-196],
    ),
    (3.0, 10.0): (
        [0.045809860857380695, 0.04441003501488199, 0.03996410589644138,
         0.02616313469493926, 0.001966571106542544, 1.1101035824181141e-13,
         9.843700523178197e-116, 0.0],
        [1.5847608109539777e-07, 1.536334793152722e-06, 1.3825309154871852e-05,
         9.050957540633933e-05, 6.803218266271781e-05, 3.840327432979809e-14,
         3.405360883427922e-115, 0.0],
    ),
    (4.0, 10.0): (
        [0.05812294687466299, 0.05656743124837142, 0.05162153255936175,
         0.03608387380031183, 0.004516096981986442, 4.219458469925684e-11,
         6.686963211494638e-91, 0.0],
        [2.0107236018658492e-07, 1.956911602457075e-06, 1.785811619383707e-05,
         0.00012482969394771672, 0.00015623128692316259, 1.4596928044387727e-11,
         2.31330919665074e-90, 0.0],
    ),
    (8.0, 10.0): (
        [0.015089125766988025, 0.014256092213419808, 0.011629495617258078,
         0.0044354700359750645, 2.6807280015495247e-06, 1.0840331269017387e-37,
         0.0, 0.0],
        [5.21997987759131e-08, 4.931797616131343e-07, 4.023144484714645e-06,
         1.5344205285970437e-05, 9.273795209526789e-08, 3.7501384748541486e-38,
         0.0, 0.0],
    ),
    (30.0, 10.0): (
        [4.863034418737304e-273, 0.0, 0.0,
         0.0, 0.0, 0.0,
         0.0, 0.0],
        [1.6823335030702843e-278, 0.0, 0.0,
         0.0, 0.0, 0.0,
         0.0, 0.0],
    ),
}


def cfg_at(lam, **over):
    base = dict(A4T10)
    base.update(over)
    return NetworkConfig(lambda_bs=lam, **base)


class TestQuadratureEngine:
    def test_matches_independent_oracle(self):
        lam = 0.07
        exponent = lambda x: 3.0 * x + 0.5 * x * x
        mine = expectation_over_serving_distance(exponent, lam)
        ref = serving_distance_expectation(lambda x: math.exp(-3.0 * x - 0.5 * x * x), lam)
        assert mine == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("nodes", [24, 48, 96, 192])
    def test_cached_origin_rule_is_read_only_and_exact(self, nodes):
        rule = analytic._origin_panel_rule(nodes)
        assert analytic._origin_panel_rule(nodes) is rule
        ref = inline_panel_rule(0.0, nodes)
        assert len(rule) == len(ref) == 4
        for arr, ref_arr in zip(rule, ref):
            assert np.array_equal(arr, ref_arr)
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("nodes", [24, 48, 96, 192])
    def test_computed_legendre_rule_matches_mpmath(self, nodes):
        # nodes to within about an ulp of 1; the weights carry the rounding
        # of the recurrence, which grows with the node count
        x, w = analytic._leggauss(nodes)
        ref_x, ref_w = gauss_legendre_mp(nodes)
        assert np.max(np.abs(x - ref_x)) <= 2.3e-16
        assert np.max(np.abs(w / ref_w - 1.0)) <= 1e-12

    def test_quadrature_loads_no_eigensolver(self):
        # leggauss would import numpy.polynomial and run an eigensolver,
        # about 2 MB and 5 ms in every process
        env = dict(os.environ, PYTHONPATH=str(Path(analytic.__file__).resolve().parents[1]))
        code = ("import sys; from densecov import analytic, NetworkConfig; "
                "analytic.cp_g2(NetworkConfig(0.3, 4.0, 10.0)); "
                "[analytic._origin_panel_rule(n) for n in (24, 48, 96, 192)]; "
                "sys.exit('numpy.polynomial' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    @pytest.mark.parametrize("lam", [1.0e308, 1.7e308, math.inf])
    def test_overflowing_density_raises_overflow_error(self, lam):
        with pytest.raises(OverflowError, match="lambda="):
            expectation_over_serving_distance(lambda x: x, lam)


@pytest.mark.parametrize("lam", [1e308, np.float64(1e308)])
@pytest.mark.parametrize("route", [
    cp_g1_closed, cp_g1_lower, cp_g1_upper, cp_g2_lower, ase_lower,
    lambda cfg: scaling_envelope_check(cfg.alpha, cfg.tau, [cfg.lambda_bs]),
], ids=["cp_g1_closed", "cp_g1_lower", "cp_g1_upper", "cp_g2_lower", "ase_lower",
        "scaling_envelope_check"])
def test_closed_forms_raise_overflow_error_where_pi_lambda_overflows(route, lam):
    with pytest.raises(OverflowError, match="pi\\*lambda overflows"):
        route(cfg_at(lam))


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
            closed = cp_g1_closed(cfg_at(lam))
            quad = cp_g1_quadrature(cfg_at(lam))
            assert abs(closed.raw - quad.raw) <= 1e-6
            assert closed.method == "closed_form"
            assert 0.0 <= closed.value <= 1.0

    @pytest.mark.parametrize("alpha", [2.01, 2.5, 3.0, 4.0, 6.0, 10.0, 100.0, 1e4])
    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0, 100.0, 1e3])
    def test_identity_pinned_to_quadrature(self, alpha, tau):
        for lam in np.geomspace(1e-8, 100.0, 8):
            cfg = NetworkConfig(float(lam), alpha, tau)
            closed, quad = cp_g1_closed(cfg).raw, cp_g1_quadrature(cfg).raw
            if quad < sys.float_info.min:  # subnormal or zero: no relative digits left
                assert abs(closed - quad) <= 1e-300, (lam, closed, quad)
            else:
                assert abs(closed - quad) <= 1e-12 * quad, (lam, closed, quad)

    @pytest.mark.parametrize("alpha", [2.01, 2.5, 3.0, 4.0])
    @pytest.mark.parametrize("tau", [0.1, 10.0, 1e3])
    def test_identity_matches_mpmath_erfc(self, alpha, tau):
        # 1 - q nears 1/(2 z^2) as z grows, and forming it from q lost up to
        # 7e-13 relative (5.2e-13 at alpha=2.01, tau=10, lam=0.0702); the
        # tolerance was fixed before the first run
        dc = derived_constants(alpha, tau)
        for lam in np.geomspace(1e-6, 10.0, 60).tolist() + [0.0702]:
            ref = g1_tail_identity_mp(lam, dc.c1, dc.c2)
            if ref < 1e-300:  # a subnormal result keeps too few digits
                continue
            value = cp_g1_closed(NetworkConfig(lam, alpha, tau)).raw
            assert abs(value - ref) <= 1e-14 * ref, (lam, value, ref)

    def test_low_density_limit_and_root_lambda_rate(self):
        limit = cp_upm(cfg_at(1.0)).value
        dev10 = limit - cp_g1_closed(cfg_at(1e-10)).value
        dev8 = limit - cp_g1_closed(cfg_at(1e-8)).value
        assert abs(dev10) < 1e-4
        # the correction shrinks like sqrt(lambda): two decades -> factor 10
        assert dev10 / dev8 == pytest.approx(0.1, rel=0.05)

    def test_monotone_non_increasing(self):
        vals = [cp_g1_closed(cfg_at(lam)).value
                for lam in np.geomspace(1e-3, 10.0, 40)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_threshold_to_zero(self):
        assert cp_g1_quadrature(cfg_at(0.3, tau=1e-12)).value == pytest.approx(1.0, abs=1e-9)

    def test_small_density_approaches_upm(self):
        assert cp_g1_quadrature(cfg_at(1e-8)).value == pytest.approx(
            cp_upm(cfg_at(1e-8)).value, abs=1e-4)

    def test_deep_tail_raw_is_positive_and_matches_quadrature(self):
        # oracles.g1_printed_form cancels here and reads 2.27e-23, 94 times too large
        v = cp_g1_closed(cfg_at(8.0))
        assert v.raw > 0.0 and v.value == v.raw
        assert v.raw == pytest.approx(cp_g1_quadrature(cfg_at(8.0)).raw, rel=1e-12)
        assert v.raw == pytest.approx(2.43e-25, rel=1e-2)

    def test_exponent_that_overflows_is_a_zero_integrand(self):
        # pi lam (1+x)(c1 (1+x) - c2) overflows to +inf at these inputs,
        # which once warned instead of reading as the zero it is
        cfg = NetworkConfig(1.34e299, 6.11, 2.0e28)
        assert cp_g1_quadrature(cfg).raw == 0.0
        assert cp_g1_closed(cfg).raw == 0.0


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

    @pytest.mark.parametrize("case", sorted(CP_G2_FROZEN))
    def test_matches_values_frozen_before_the_series_rewrite(self, case):
        alpha, tau = case
        for lam, ref in zip(CP_G2_FROZEN_LAMBDAS, CP_G2_FROZEN[case]):
            assert abs(cp_g2(NetworkConfig(lam, alpha, tau)).value - ref) <= 1e-12

    @pytest.mark.parametrize("case", sorted(G2_LOWER_FROZEN))
    def test_lower_bounds_match_values_frozen_before_the_closed_form(self, case):
        alpha, tau = case
        for lam, cp_ref, ase_ref in zip(CP_G2_FROZEN_LAMBDAS, *G2_LOWER_FROZEN[case]):
            cfg = NetworkConfig(lam, alpha, tau)
            assert cp_g2_lower(cfg).value == pytest.approx(cp_ref, rel=1e-12, abs=0.0), lam
            assert ase_lower(cfg).value == pytest.approx(ase_ref, rel=1e-12, abs=0.0), lam

    def test_series_and_node_cache_change_no_bit(self, monkeypatch):
        # the frozen grid, thresholds below 1 (nodes on both sides of
        # w = 1/2) and tau = 1 at alpha = 4 and 100, where w rounds to 1/2
        # and x^alpha overflows at the far nodes; tau/(1+tau) as rounded
        # just below 1/2 (tau = 1 - 2^-53), just above it (1 + 2^-52, whose
        # 1 + tau rounds to 2) and 1.000001; x^alpha overflowing at alpha =
        # 100 where every node is far (tau = 10) and where the overflowed
        # nodes are near (tau = 0.1); evaluated by the current code and then
        # by the exponent of boolean masks over the checked-every-term
        # series, integrated on a rule rebuilt on every call
        pairs = sorted(CP_G2_FROZEN) + [
            (4.0, 0.1), (4.0, 0.5), (4.0, 1.0), (100.0, 1.0), (4.0, 1.0 - 2.0**-53),
            (4.0, 1.0 + 2.0**-52), (4.0, 1.000001), (100.0, 10.0), (100.0, 0.1)]
        cases = [(alpha, tau, lam) for alpha, tau in pairs for lam in CP_G2_FROZEN_LAMBDAS]

        def values():
            return [(cp_g2(cfg).raw.hex(), cp_g1_quadrature(cfg).raw.hex())
                    for cfg in (NetworkConfig(lam, alpha, tau) for alpha, tau, lam in cases)]

        current = values()
        monkeypatch.setattr(analytic, "_exponent_g2", exponent_g2_reference)
        monkeypatch.setattr(analytic, "expectation_over_serving_distance",
                            expectation_reference)
        assert current == values()

    @pytest.mark.parametrize("alpha, tau, x", [
        (4.0, 0.1, np.geomspace(5.0, 1e3, 50)),            # near only
        (4.0, 10.0, np.geomspace(1e-6, 1e3, 50)),          # far only
        (4.0, 0.5, np.geomspace(1e-6, 1e3, 50)),           # both
        # w rounds to 1/2 at the three largest; x^4 overflows at the last two
        (4.0, 1.0, np.array([0.5, 2.0, 1e5, 1e80, 1e100])),
        (4.0, 0.1, np.float64(20.0)),                      # a scalar, near
        (4.0, 10.0, np.float64(0.3)),                      # a scalar, far
        # tau/(1+tau) as rounded just below 1/2, and just above it twice:
        # there every node is far without a mask
        (4.0, 1.0 - 2.0**-53, np.geomspace(1e-6, 1e80, 60)),
        (4.0, 1.0 + 2.0**-52, np.geomspace(1e-6, 1e80, 60)),
        (4.0, 1.000001, np.geomspace(1e-6, 1e80, 60)),
        # x^100 overflows from x = 2^10.24 among far nodes only, and x^4
        # from 1e77 among near ones
        (100.0, 10.0, np.array([0.5, 2.0, 1e3, 1e5, 1e80, 1e100])),
        (4.0, 0.1, np.array([0.5, 2.0, 1e5, 1e80, 1e100])),
        (4.0, 10.0, np.array([])),                         # no node
        # scalars where numpy's power of a 0-d value rounds differently
        # from its power of an array
        (3.7, 0.01, np.float64(0.7)),
        (100.0, 0.5, np.float64(0.7)),
    ], ids=["near", "far", "mixed", "overflow", "scalar-near", "scalar-far",
            "below-half", "above-half", "above-half-1e-6", "overflow-far",
            "overflow-near", "empty", "scalar-pow-near", "scalar-pow-far"])
    def test_exponent_takes_each_branch_as_the_masks_do(self, alpha, tau, x):
        got = analytic._exponent_g2(x, 0.3, alpha, tau)
        ref = exponent_g2_reference(x, 0.3, alpha, tau)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("alpha, tau, x", [
        (4.0, 0.1, np.geomspace(5.0, 1e3, 50)),
        (4.0, 10.0, np.geomspace(1e-6, 1e3, 50)),
        (4.0, 1.0, np.geomspace(1e-6, 1e3, 50)),
        (4.0, 0.5, np.geomspace(1e-6, 1e3, 50)),
        (100.0, 10.0, np.array([0.5, 2.0, 1e3, 1e5, 1e80, 1e100])),
        (4.0, 10.0, np.array([1.0, 1e150])),
        (4.0, 0.1, np.float64(0.7)),
    ], ids=["near", "far", "far-by-count", "mixed", "overflow-far", "unbounded", "scalar"])
    def test_exponent_leaves_its_input_untouched(self, alpha, tau, x):
        # the passes work in arrays of the call's own, never in x
        x = np.array(x)
        before = x.tobytes()
        x.flags.writeable = False
        got = analytic._exponent_g2(x, 0.3, alpha, tau)
        assert x.tobytes() == before
        assert got.tobytes() == analytic._exponent_g2(x.copy(), 0.3, alpha, tau).tobytes()

    @pytest.mark.parametrize("alpha, tau, bound", [(4.0, 10.0, 6.0), (4.0, 0.5, 10.0)],
                             ids=["far-only", "mixed"])
    def test_exponent_peak_memory(self, alpha, tau, bound):
        # tracemalloc sees numpy's buffers.  On one 48-node rule (1 296
        # nodes) the in-place passes peak at 5.1 times the input's bytes
        # with every node far (1 + x^a, tau + u, w, and the series' term and
        # sum) and at 8.5 times with 217 near nodes; the bounds leave about
        # 17 % over those.  With a new array for every pass the peaks were
        # 12.2 and 15.0 times
        import tracemalloc
        lam = 0.3
        x = analytic._origin_panel_rule(48)[0] / math.sqrt(math.pi * lam)
        analytic._exponent_g2(x, lam, alpha, tau)
        tracemalloc.start()
        try:
            analytic._exponent_g2(x, lam, alpha, tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * x.nbytes

    @pytest.mark.parametrize("alpha, tau, lams", [
        # tau/(1+tau) is exactly 1/2, so the masks decide: every node far
        (4.0, 1.0, [0.3, 30.0]),
        (100.0, 1.0, [0.3, 30.0]),
        # and with the near nodes of a small density
        (4.0, 1.0, [1e-8, 0.3, 30.0]),
        # every node far by tau, x^100 overflowing in the 1e-8 row, and a
        # row past x = 2^480
        (100.0, 10.0, [1e-320, 1e-8, 0.3, 30.0]),
        (100.0, 0.1, [1e-320, 1e-8, 0.3, 30.0]),
    ], ids=["tau-1-far", "tau-1-far-alpha-100", "tau-1-mixed", "overflow-far",
            "overflow-near"])
    def test_exponent_over_rows_equals_the_masks_row_by_row(self, alpha, tau, lams):
        lams = np.array(lams)
        v = analytic._origin_panel_rule(48)[0]
        x = v / np.sqrt(math.pi * lams)[:, None]
        got = analytic._exponent_g2(x, lams[:, None], alpha, tau)
        for row, lam, values in zip(x, lams.tolist(), got):
            if row.max() > analytic._X_UNBOUNDED:
                continue
            assert values.tobytes() == exponent_g2_reference(row, lam, alpha, tau).tobytes()

    @pytest.mark.parametrize("alpha, tau", [(4.0, 0.1), (4.0, 1.0), (4.0, 10.0), (100.0, 0.1),
                                            (100.0, 10.0)])
    def test_exponent_over_rows_of_densities_is_that_of_each_row(self, alpha, tau):
        # rows past x = 2^480 (1e-320), with near and far nodes (0.3), and
        # of far nodes only (30), each at its own density
        lams = np.array([1e-320, 0.3, 30.0])
        v = analytic._origin_panel_rule(24)[0]
        x = v / np.sqrt(math.pi * lams)[:, None]
        got = analytic._exponent_g2(x, lams[:, None], alpha, tau)
        for row, lam, values in zip(x, lams.tolist(), got):
            assert values.tobytes() == analytic._exponent_g2(row, lam, alpha, tau).tobytes()

    def test_threshold_to_zero(self):
        assert cp_g2(cfg_at(0.3, tau=1e-12)).value == pytest.approx(1.0, abs=1e-9)

    def test_small_density_approaches_upm(self):
        assert cp_g2(cfg_at(1e-8)).value == pytest.approx(cp_upm(cfg_at(1e-8)).value, abs=2e-2)
        # x*x overflows at the far nodes below about 1.4e-306, and the
        # series branches' products from 1.5e-306 at alpha = 4 and 4.6e-306
        # at alpha = 8; g2 reads as upm there
        for lam, alpha, tau in itertools.product(
                (6e-306, 2e-306, 1.3e-306, 1e-308, 1e-320, 5e-324), (4.0, 8.0),
                (0.01, 1.0, 10.0)):
            cfg = NetworkConfig(lam, alpha, tau)
            assert abs(cp_g2(cfg).raw - cp_upm(cfg).raw) <= 1e-12, (lam, alpha, tau)

    def test_upper_bound_closed_form(self):
        dc = derived_constants(**A4T10)
        k = dc.c_hat * 2.0**-4
        assert cp_g2_upper(cfg_at(1e-12)).value == pytest.approx(1.0 / (1.0 + k), rel=1e-9)
        assert cp_g2_upper(cfg_at(0.3, tau=1e-12)).value == pytest.approx(1.0, abs=1e-9)

    def test_upper_bound_holds(self):
        for lam in (1e-3, 0.3, 1.0):
            assert cp_g2(cfg_at(lam)).value <= cp_g2_upper(cfg_at(lam)).value + 1e-9

    def test_lower_bound_is_tail_integral(self):
        for alpha, tau in itertools.product([2.5, 4.0, 8.0, 30.0], [0.1, 10.0, 1000.0]):
            beta = 2.0 ** (alpha - 2.0) * derived_constants(alpha, tau).c1
            for lam in np.geomspace(1e-6, 10.0, 6):
                ref = serving_distance_expectation(
                    lambda x: math.exp(-math.pi * lam * beta * (1.0 + x) ** 2), lam, x0=1.0)
                got = cp_g2_lower(NetworkConfig(lam, alpha, tau)).value
                assert got == pytest.approx(ref, rel=1e-10, abs=0.0), (alpha, tau, lam)

    def test_lower_bound_is_zero_where_beta_is_huge(self):
        # (1+beta)^1.5 overflows for beta above 1e205; the prefactor
        # exp(-4 pi lam beta) has underflowed long before
        for alpha, tau in ((1000.0, 10.0), (1023.9, 1e300)):
            cfg = NetworkConfig(1e-6, alpha, tau)
            assert cp_g2_lower(cfg).value == 0.0 and ase_lower(cfg).value == 0.0
        # here z = sqrt(pi lam)(m + sqrt(1 + beta)) overflows as well
        cfg = NetworkConfig(5.6e307, 1025.0, 1e100)
        assert cp_g2_lower(cfg).value == 0.0 and ase_lower(cfg).value == 0.0

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
        # the dispatcher reads the exact curve of each model's curves, and
        # refuses every model without one
        for model in PathlossModel:
            exact = analytic.coverage_curves(model)[0]
            if exact is None:
                with pytest.raises(UnsupportedPathlossError):
                    cp_for_model(cfg_at(0.1), model)
            else:
                assert cp_for_model(cfg_at(0.1), model) == exact(cfg_at(0.1))


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

    def test_spectral_efficiency_matches_mpmath(self):
        # log2(1 + tau) from 1e-300 to 1e300; written with 1 + tau it loses
        # digits below 1e-8 and reads 0 below 1.1e-16
        with mpmath.workdps(40):
            for tau in np.geomspace(1e-300, 1e300, 601):
                ref = mpmath.log1p(mpmath.mpf(tau)) / mpmath.log(2)
                se = analytic.spectral_efficiency(float(tau))
                assert abs(mpmath.mpf(se) - ref) <= 2 * math.ulp(se), tau
        # within an ulp of math.log2(11) at 10 dB
        assert abs(analytic.spectral_efficiency(10.0) - math.log2(11.0)) <= math.ulp(3.0)

    def test_small_threshold_keeps_its_throughput(self):
        # at -200 dB coverage is 1 at low density and ASE is lam tau/ln 2
        cfg = cfg_at(1e-6, tau=1e-20)
        assert ase(cfg, cp_g2(cfg)).value == pytest.approx(1e-26 / math.log(2.0), rel=1e-9)

    def test_rate_function_is_the_envelope_scaling(self):
        kappa = derived_constants(**A4T10).kappa_upper
        for lam in (1e-3, 0.3, 2.0, 1e300):
            assert analytic.rate_function(cfg_at(lam)) == lam * math.exp(-kappa * lam)


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
        for lam in (1e-3, 0.1, 0.3):
            cfg = cfg_at(lam)
            assert ase_lower(cfg) == ase(cfg, cp_g2_lower(cfg))

    def test_upper_is_the_ase_of_the_g2_upper_bound(self):
        for lam in (1e-3, 0.1, 0.3):
            cfg = cfg_at(lam)
            assert ase_upper(cfg) == ase(cfg, cp_g2_upper(cfg))

    @pytest.mark.parametrize("lam", [5.5e307, np.float64(1e308)])
    def test_envelopes_vanish_where_lam_log2_overflows(self, lam):
        # lam log2(1 + tau) overflows here while the coverage bounds are 0:
        # scaling lam by the coverage first keeps inf * 0 = nan out, and a
        # numpy density is stored as a float, which overflows without a
        # warning.  At 1e308 pi lam overflows and the lower bound raises.
        cfg = NetworkConfig(lam, 4.0, 10.0)
        assert cp_g2_upper(cfg).value == 0.0
        assert ase_upper(cfg).value == 0.0
        if lam == 5.5e307:
            assert ase_lower(cfg).value == 0.0

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
        with pytest.raises(BracketError, match="increasing .* upper edge"):
            golden_section_max(lambda lam: lam, 1e-3, 1.0)
        with pytest.raises(BracketError, match="decreasing .* lower edge"):
            golden_section_max(lambda lam: 1.0 / lam, 1e-3, 1.0)
        # a constant is neither; at 3000 dB every g1 coverage underflows
        for value in (0.0, 2.5):
            with pytest.raises(BracketError, match="constant"):
                golden_section_max(lambda lam: value, 1e-3, 1.0)
        with pytest.raises(BracketError, match="constant"):
            optimal_density_numeric(cfg_at(1.0, tau=1e300), PathlossModel.BOUNDED_G1)
        # at -200 dB coverage is 1 over the bracket, so ASE rises to its edge
        with pytest.raises(BracketError, match="increasing .* upper edge"):
            optimal_density_numeric(cfg_at(1.0, tau=1e-20), PathlossModel.BOUNDED_G2)
        # near-zero threshold: coverage ~ 1 everywhere, ASE ~ linear
        template = cfg_at(1.0, tau=1e-9)
        with pytest.raises(BracketError):
            optimal_density_numeric(template, PathlossModel.BOUNDED_G1,
                                    bracket=(1e-4, 1e-2))

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (math.nan, 1.0),
                                        (1.0, math.inf)])
    def test_bracket_must_be_an_interval_of_positive_densities(self, lo, hi):
        with pytest.raises(ValueError, match="bracket"):
            golden_section_max(lambda lam: lam, lo, hi)
        # refused before any density reaches NetworkConfig's own check
        with pytest.raises(ValueError, match="bracket"):
            optimal_density_numeric(cfg_at(1.0), PathlossModel.BOUNDED_G2, bracket=(lo, hi))

    @pytest.mark.parametrize("at", [0.3 / 15.0, 14.7 / 15.0], ids=["first", "last"])
    def test_peak_inside_an_edge_scan_interval(self, at):
        # the 16-point scan peaks on the bracket edge, yet the maximum is
        # interior: at 0.3 of the first log-interval, or 0.7 of the last
        lo, hi = 1e-3, 1.0
        peak = lo * (hi / lo) ** at
        num = golden_section_max(lambda lam: -math.log(lam / peak) ** 2, lo, hi)
        assert abs(num - peak) <= 1e-6 * peak

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

    @pytest.mark.parametrize("tau", [1e-20, 1e-210, 1e-300])
    def test_small_threshold_passes(self, tau):
        # log2(1 + tau) rounded to 0 at tau = 1e-20, zeroing m and big_m;
        # below 1e-200 the correction q, about 4 tau, underflowed through
        # m erfcx(z)
        lam0 = optimal_density_closed(4.0, tau)
        report = scaling_envelope_check(4.0, tau, np.geomspace(lam0, 10.0 * lam0, 4))
        assert report.all_pass
        assert report.big_m == pytest.approx(tau / math.log(2.0), rel=1e-9)
        assert report.m > 0.0

    def test_single_point_grid(self):
        lam0 = optimal_density_closed(**A4T10)
        report = scaling_envelope_check(4.0, 10.0, [10.0 * lam0])
        assert len(report.points) == 1 and report.all_pass

    @pytest.mark.parametrize("alpha", [30.0, 100.0, 300.0, 700.0, 1000.0])
    def test_steep_pathloss_passes(self, alpha):
        # q rises to beta/(1+2 beta), which is 1/2 in double precision from
        # alpha near 60, and beta = 2^(alpha-2) c1 nears the float range
        lam0 = optimal_density_closed(alpha, 10.0)
        report = scaling_envelope_check(alpha, 10.0, np.geomspace(lam0, 10.0 * lam0, 4))
        assert report.all_pass and report.m > 0.0

    @pytest.mark.parametrize("alpha, tau", [(4.0, 10.0), (2.5, 10.0), (3.0, 1000.0)])
    def test_passes_where_the_envelope_turns_subnormal(self, alpha, tau):
        # kappa_upper lam from 700 to 746: the rate and the envelope lose
        # digits below the smallest normal float, where the upper ratio
        # cannot be recomputed to 1e-12; a float density overflows quietly
        kappa = derived_constants(alpha, tau).kappa_upper
        lam0 = optimal_density_closed(alpha, tau)
        grid = np.concatenate([[lam0], np.linspace(700.0, 746.0, 47) / kappa, [5e307]])
        report = scaling_envelope_check(alpha, tau, grid)
        assert report.all_pass

    def test_erfcx_off_by_1e12_fails_the_check(self, monkeypatch):
        erfcx = specfun.erfcx
        monkeypatch.setattr(analytic.specfun, "erfcx", lambda x: erfcx(x) * (1.0 + 1e-12))
        lam0 = optimal_density_closed(100.0, 10.0)
        report = scaling_envelope_check(100.0, 10.0, np.geomspace(lam0, 10.0 * lam0, 4))
        assert not report.all_pass

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            scaling_envelope_check(4.0, 10.0, [2.0, 1.0, 30.0])
        with pytest.raises(ValueError):
            scaling_envelope_check(4.0, 10.0, [1.0])  # never reaches the tail
        for grid in ([1e-6, 1.0, math.nan], [1e-6, 100.0, math.inf], [], [[1e-6, 100.0]]):
            with pytest.raises(ValueError, match="lambda_grid"):
                scaling_envelope_check(4.0, 10.0, grid)


class TestTransmitPowerInvariance:
    def test_all_outputs_bit_identical(self):
        for p_bs in (10.0 ** 0.1, 100.0, 1e4):
            base = cfg_at(0.3)
            cfg = dataclasses.replace(base, p_bs=p_bs)
            assert cp_upm(cfg).value == cp_upm(base).value
            assert cp_g1_quadrature(cfg).value == cp_g1_quadrature(base).value
            assert cp_g1_closed(cfg).value == cp_g1_closed(base).value
            assert cp_g2(cfg).value == cp_g2(base).value
            assert ase_upper(cfg).value == ase_upper(base).value
            assert ase_lower(cfg).value == ase_lower(base).value


BOUND_SLACK = 1e-9  # the acceptance gate's bound-sandwich slack
CP_ROUTES = {
    "g1": (cp_g1_quadrature, cp_g1_lower, cp_g1_upper),
    "g2": (cp_g2, cp_g2_lower, cp_g2_upper),
}


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(alpha=st.floats(2.0, 10.0, exclude_min=True),
       taus=st.lists(log_uniform(-2.0, 3.0), min_size=2, max_size=2),
       lam=log_uniform(-8.0, 3.0))
@example(alpha=2.0000000000000004, taus=[10.0, 1e3], lam=1.0)  # erfcx near 4e9
@example(alpha=10.0, taus=[1e-2, 1e3], lam=1e3)
def test_coverage_in_unit_interval_monotone_in_tau_and_sandwiched(alpha, taus, lam):
    tau_lo, tau_hi = sorted(taus)
    for model, (exact, lower, upper) in CP_ROUTES.items():
        values = []
        for tau in (tau_lo, tau_hi):
            cfg = NetworkConfig(lam, alpha, tau)
            cp = exact(cfg)
            assert 0.0 <= cp.raw <= 1.0 + BOUND_SLACK, model
            assert lower(cfg).value <= cp.value + BOUND_SLACK, model
            assert cp.value <= upper(cfg).value + BOUND_SLACK, model
            if model == "g2":
                assert ase_lower(cfg).value <= ase(cfg, cp).value * (1 + BOUND_SLACK)
            values.append(cp.value)
        assert values[1] <= values[0] + BOUND_SLACK, model


def per_density(model, alpha, tau, lams):
    """cp_for_model at each density in order, up to the first that raises:
    the values before it, and that failure's type and message (None where
    every density computes)."""
    values = []
    for lam in lams:
        try:
            values.append(cp_for_model(NetworkConfig(lam, alpha, tau), model))
        except Exception as exc:
            return values, (type(exc), str(exc))
    return values, None


def assert_curve_is_per_density(model, alpha, tau, lams):
    expected, failure = per_density(model, alpha, tau, lams)
    if failure:
        with pytest.raises(Exception) as info:
            analytic.coverage_curve(model, alpha, tau, lams)
        assert (type(info.value), str(info.value)) == failure
        return
    got = analytic.coverage_curve(model, alpha, tau, lams)
    assert got == expected
    assert [cp.raw.hex() for cp in got] == [cp.raw.hex() for cp in expected]


CURVE_MODELS = [PathlossModel.UNBOUNDED, PathlossModel.BOUNDED_G1, PathlossModel.BOUNDED_G2]


class TestCoverageCurve:
    # densities over the whole range, and as often over the figures' range
    # and above it, where g2 takes its series branches
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(model=st.sampled_from(CURVE_MODELS),
           alpha=st.floats(2.0, 30.0, exclude_min=True),
           tau_db=st.floats(-10.0, 30.0),
           lams=st.lists(st.one_of(log_uniform(-320.0, 3.0), log_uniform(-6.0, 3.0)),
                         min_size=1, max_size=40).map(sorted),
           chunk=st.sampled_from([1, 3, 4, 23]))
    # a quadrature failure before an overflow, in the second chunk of three
    # and in the one chunk
    @example(model=PathlossModel.BOUNDED_G2, alpha=100.0, tau_db=30.0,
             lams=[0.01, 0.1, 1.0, 6.31, 1e308], chunk=3)
    @example(model=PathlossModel.BOUNDED_G2, alpha=100.0, tau_db=30.0,
             lams=[0.01, 0.1, 1.0, 6.31, 1e308], chunk=23)
    def test_equals_cp_for_model_at_each_density(self, model, alpha, tau_db, lams, chunk):
        # every density keeps the bits of its own call whatever the chunk
        # it shares, and a failing grid raises as its first failing density
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analytic, "_CURVE_CHUNK", chunk)
            assert_curve_is_per_density(model, alpha, 10.0 ** (tau_db / 10.0), lams)

    @pytest.mark.parametrize("model", CURVE_MODELS, ids=lambda m: m.value)
    @pytest.mark.parametrize("alpha, tau, lams", [
        # x past 2^480 at 1e-320 in one chunk with near and mixed nodes
        (4.0, 0.1, [1e-320, 0.3]),
        (4.0, 0.1, [1e-320, 1e-300, 1e-3, 0.3]),
        # rows that converge at 48 nodes beside rows that need 96, and 192
        (30.0, 10.0, [1.0, 10.0, 31.622776601683793, 3.0]),
        (30.0, 1000.0, [0.1, 10.0, 100.0]),
        # grid lengths about the chunk edge
        (4.0, 10.0, np.geomspace(1e-6, 10.0, 3)),
        (4.0, 10.0, np.geomspace(1e-6, 10.0, 4)),
        (4.0, 10.0, np.geomspace(1e-6, 10.0, 5)),
        (3.0, 1.0, np.geomspace(1e-6, 10.0, 8)),
        (3.0, 1.0, np.geomspace(1e-6, 10.0, 9)),
        # an earlier density's quadrature failure before a later one's
        # overflow, in one chunk, and after computed densities
        (100.0, 1000.0, [6.31, 1e308]),
        (100.0, 1000.0, [0.01, 0.1, 6.31, 1e308, 1e-3]),
        # invalid densities raise as NetworkConfig does, in grid order
        (4.0, 10.0, [0.0]),
        (4.0, 10.0, [1e-3, math.nan]),
        (100.0, 1000.0, [6.31, math.nan]),
    ], ids=["tiny-near-mixed", "tiny-chunk", "96-nodes", "192-nodes", "3", "4", "5", "8",
            "9", "quadrature-before-overflow", "failure-after-values", "zero", "nan",
            "quadrature-before-nan"])
    def test_fixed_cases_equal_cp_for_model(self, model, alpha, tau, lams):
        assert_curve_is_per_density(model, alpha, tau, lams)

    @pytest.mark.parametrize("lams", [[], [[1e-3, 0.3]], np.zeros((2, 2))], ids=["empty", "2-d", "2x2"])
    def test_grid_must_be_a_non_empty_1d_sequence(self, lams):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            analytic.coverage_curve(PathlossModel.BOUNDED_G2, 4.0, 10.0, lams)

    def test_min_bounded_refused_as_cp_for_model(self):
        assert_curve_is_per_density(PathlossModel.MIN_BOUNDED, 4.0, 10.0, [1e-3, 0.3])

    @pytest.mark.parametrize("lams, chunk, calls", [
        # 6.30957 is the first to fail, last in its chunk of three; the
        # chunk's two densities before it keep their rows
        (np.geomspace(0.01, 10.0, 16).tolist(), 3, 1),
        (np.geomspace(0.01, 10.0, 16).tolist(), 23, 1),
        # an overflow beside it fails the chunk's call, and every density
        # of the chunk goes alone, in order, until 6.31 raises
        ([0.01, 0.1, 6.31, 1e308], 4, 3),
    ], ids=["scan", "one-chunk", "overflow"])
    def test_failing_density_alone_raises_as_the_loop(self, lams, chunk, calls):
        # alpha 100 at 30 dB: a QuadratureError at the first density
        # around 6.3, as the per-density loop raises it, with no chunk
        # evaluated again
        alpha, tau = 100.0, 1000.0
        expected, failure = per_density(PathlossModel.BOUNDED_G2, alpha, tau, lams)
        assert failure is not None and failure[0] is analytic.QuadratureError
        seen = []

        def counted(cfg):
            seen.append(cfg.lambda_bs)
            return cp_g2(cfg)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analytic, "_CURVE_CHUNK", chunk)
            mp.setattr(analytic, "cp_g2", counted)
            with pytest.raises(analytic.QuadratureError) as info:
                analytic.coverage_curve(PathlossModel.BOUNDED_G2, alpha, tau, lams)
        assert (type(info.value), str(info.value)) == failure
        assert len(seen) == calls
        assert seen[-1] == lams[len(expected)]

    def test_peak_memory_does_not_grow_with_the_grid(self):
        # tracemalloc sees numpy's buffers; a curve of 400 densities, three
        # repeated, peaks as one chunk of those three does, give or take its
        # results, where one unchunked exponent call would hold 133 times
        # the nodes
        import tracemalloc
        chunk = np.geomspace(1e-3, 1.0, 3)

        def peak(lams):
            analytic.coverage_curve(PathlossModel.BOUNDED_G2, 4.0, 10.0, lams)
            tracemalloc.start()
            try:
                analytic.coverage_curve(PathlossModel.BOUNDED_G2, 4.0, 10.0, lams)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(np.resize(chunk, 400)) <= 1.1 * peak(chunk)

    @pytest.mark.parametrize("alpha, tau", [(4.0, 10.0), (3.0, 10.0), (3.0, 1.0)])
    def test_optimal_density_keeps_its_bits(self, alpha, tau):
        # the scan reads the curve; the search is that of golden_section_max
        # over cp_for_model at every density
        template = NetworkConfig(1.0, alpha, tau)

        def objective(lam):
            cfg = NetworkConfig(lam, alpha, tau)
            return ase(cfg, cp_for_model(cfg, PathlossModel.BOUNDED_G2)).value

        expected = golden_section_max(objective, 1e-4, 10.0)
        assert optimal_density_numeric(template, PathlossModel.BOUNDED_G2).hex() == expected.hex()
