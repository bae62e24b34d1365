"""End-to-end acceptance gate.

One test per exit criterion, each printing a PASS line with the measured
margin (run with -s to see them).  Heavy Monte Carlo artifacts are shared
through module-scoped fixtures; total runtime stays within a few minutes.
"""

import dataclasses
import math

import numpy as np
import pytest

from densecov import analytic, mc, specfun
from densecov.analytic import (
    ase,
    ase_lower,
    ase_upper,
    cp_g1_closed,
    cp_g1_lower,
    cp_g1_quadrature,
    cp_g1_upper,
    cp_g2,
    cp_g2_upper,
    cp_upm,
    golden_section_max,
    optimal_density_closed,
    optimal_density_numeric,
    scaling_envelope_check,
)
from densecov.model import NetworkConfig, PathlossModel, derived_constants

from oracles import euler_integral, g1_printed_form

SEED = 42
HEAVY_TRIALS = 100_000
MC_GRID = (1e-3, 0.3, 2.0)


def cfg_at(lam, alpha=4.0, tau=10.0):
    return NetworkConfig(lambda_bs=lam, alpha=alpha, tau=tau)


def score_se(p, n):
    return math.sqrt(p * (1.0 - p) / n)


def mc_params(lam, trials):
    return mc.SimParams(window_radius=mc.window_radius(lam), trials=trials, seed=SEED)


def mc_realizations(cfg, params, start, stop):
    """Public realizations of trials [start, stop), drawn block by block."""
    size = mc._BLOCK_TRIALS
    for block in range(start // size, -(-stop // size)):
        for t, r in enumerate(mc.sample_block(cfg, params, block), start=block * size):
            if start <= t < stop:
                yield r


@pytest.fixture(scope="module")
def cp_grids():
    """cp_g1 (closed/quadrature/bounds) and cp_g2 (+upper) on the 40-point
    log grid over [1e-6, 10] for alpha in {3, 4}, tau in {1, 10}."""
    grids = {}
    lams = np.geomspace(1e-6, 10.0, 40)
    for alpha in (3.0, 4.0):
        for tau in (1.0, 10.0):
            rows = []
            dc = derived_constants(alpha, tau)
            for lam in lams:
                cfg = NetworkConfig(lam, alpha, tau)
                rows.append(dict(
                    lam=lam,
                    closed=cp_g1_closed(cfg).raw,
                    printed=g1_printed_form(lam, dc.c1, dc.c2, dc.c_hat),
                    quad=cp_g1_quadrature(cfg).value,
                    lower=cp_g1_lower(cfg).value,
                    upper=cp_g1_upper(cfg).value,
                    g2=cp_g2(cfg).value,
                    g2_upper=cp_g2_upper(cfg).value,
                ))
            grids[(alpha, tau)] = rows
    return grids


@pytest.fixture(scope="module")
def mc_estimates():
    """1e5-trial coverage estimates at the figure-reproduction grid points."""
    out = {}
    for model in (PathlossModel.BOUNDED_G1, PathlossModel.BOUNDED_G2):
        for lam in MC_GRID:
            out[(model, lam)] = mc.estimate_cp(
                cfg_at(lam), model, mc_params(lam, HEAVY_TRIALS))
    out[(PathlossModel.UNBOUNDED, 0.01)] = mc.estimate_cp(
        cfg_at(0.01), PathlossModel.UNBOUNDED, mc_params(0.01, HEAVY_TRIALS))
    return out


def test_criterion_01_upm_baseline(mc_estimates):
    cfg = cfg_at(0.01)
    expected = 1.0 / (1.0 + 10.0 * math.atan(math.sqrt(10.0)) / math.sqrt(10.0))
    value = cp_upm(cfg).value
    assert abs(value - expected) <= 1e-6
    assert round(value, 4) == 0.2
    est = mc_estimates[(PathlossModel.UNBOUNDED, 0.01)]
    se = max(score_se(expected, est.trials), est.stderr)
    z = (est.mean - expected) / se
    assert abs(z) <= 3.0
    print(f"criterion 1: PASS - unbounded-model coverage {value:.6f} "
          f"(closed form), simulation z = {z:+.2f} at {est.trials} trials")


def test_criterion_02_closed_vs_quadrature(cp_grids):
    worst = {"printed": 0.0, "closed": 0.0}
    for rows in cp_grids.values():
        for row in rows:
            for form in worst:
                worst[form] = max(worst[form], abs(row[form] - row["quad"]))
    for form, gap in worst.items():
        assert gap <= 1e-6, (
            f"{form} closed form diverges from the integral form by {gap:.3e}; "
            "quadrature is the independent route")
    print(f"criterion 2: PASS - max |closed - quadrature| = {worst['closed']:.2e}, "
          f"printed form {worst['printed']:.2e}, over 160 points")


def test_criterion_03_bound_sandwich(cp_grids):
    slack = 1e-9
    for (alpha, tau), rows in cp_grids.items():
        for row in rows:
            assert row["lower"] <= row["quad"] + slack, (alpha, tau, row["lam"])
            assert row["quad"] <= row["upper"] + slack, (alpha, tau, row["lam"])
            assert row["g2"] <= row["g2_upper"] + slack, (alpha, tau, row["lam"])
    print("criterion 3: PASS - coverage bounds sandwich holds at all 160 grid "
          "points (slack 1e-9)")


INVARIANCE_CASES = [
    pytest.param(PathlossModel.UNBOUNDED, id="upm"),
    pytest.param(PathlossModel.BOUNDED_G2, id="g2"),
    pytest.param(
        PathlossModel.BOUNDED_G1, id="g1",
        marks=pytest.mark.xfail(
            strict=True,
            reason="the additive-offset bounded model loses ~14% coverage over "
                   "[1e-6, 1e-3] BS/m^2 (sqrt-density slope of its closed form, "
                   "confirmed by the independent integral oracle and simulation); "
                   "the 1% band holds only below ~1e-5 BS/m^2 for this model")),
]


@pytest.mark.parametrize("model", INVARIANCE_CASES)
def test_criterion_04_low_density_invariance(model):
    lams = np.geomspace(1e-6, 1e-3, 7)
    vals = [analytic.cp_for_model(cfg_at(lam), model).value for lam in lams]
    variation = max(vals) / min(vals) - 1.0
    print(f"criterion 4 (invariance, {model.value}): variation over "
          f"[1e-6, 1e-3] = {variation:.2%}")
    assert variation < 0.01


def test_criterion_04_shape_and_simulation(cp_grids, mc_estimates):
    rows = cp_grids[(4.0, 10.0)]
    mid = [r for r in rows if 0.1 <= r["lam"] <= 1.0]
    assert len(mid) >= 4
    for a, b in zip(mid, mid[1:]):
        assert b["quad"] < a["quad"]
        assert b["g2"] < a["g2"]
    cfg5 = cfg_at(5.0)
    assert cp_g1_quadrature(cfg5).value < 0.01
    assert cp_g2(cfg5).value < 0.01
    zs = {}
    for model, fn in ((PathlossModel.BOUNDED_G1, cp_g1_quadrature),
                      (PathlossModel.BOUNDED_G2, cp_g2)):
        for lam in MC_GRID:
            ref = fn(cfg_at(lam)).value
            est = mc_estimates[(model, lam)]
            se = max(score_se(ref, est.trials), est.stderr)
            z = (est.mean - ref) / se
            zs[(model.value, lam)] = z
            assert abs(z) <= 3.0, (model, lam, z)
    zmax = max(abs(z) for z in zs.values())
    print(f"criterion 4 (shape): PASS - decreasing on [0.1, 1], coverage < 0.01 "
          f"at 5 BS/m^2, simulation confirms 6 points (max |z| = {zmax:.2f})")


@pytest.fixture(scope="module")
def fig2_curves():
    lams = np.geomspace(1e-6, 10.0, 40)
    out = {"lams": lams}
    for key, fn in (("g1", cp_g1_quadrature), ("g2", cp_g2)):
        out[key] = np.array([ase(cfg_at(l), fn(cfg_at(l))).value for l in lams])
    out["upper"] = np.array([ase_upper(cfg_at(l)).value for l in lams])
    out["lower"] = np.array([ase_lower(cfg_at(l)).value for l in lams])
    return out


def _single_peaked(vals, tol=1e-12):
    falling = False
    for a, b in zip(vals, vals[1:]):
        if b < a - tol:
            falling = True
        elif falling and b > a + tol:
            return False
    return True


def test_criterion_05_ase_shape(fig2_curves):
    lams = fig2_curves["lams"]
    for key in ("g1", "g2"):
        assert _single_peaked(fig2_curves[key]), f"{key} throughput curve not unimodal"
    upm_ase = np.array([ase(cfg_at(l), cp_upm(cfg_at(l))).value for l in lams])
    assert np.all(np.diff(upm_ase) > 0.0)
    slopes = upm_ase / lams
    assert np.ptp(slopes) <= 1e-12 * slopes.max()

    star = optimal_density_numeric(cfg_at(1.0), PathlossModel.BOUNDED_G1)
    at_star = ase(cfg_at(star), cp_g1_quadrature(cfg_at(star))).value
    at_10x = ase(cfg_at(10.0 * star), cp_g1_quadrature(cfg_at(10.0 * star))).value
    assert at_10x < 0.2 * at_star

    # envelope ordering, for the additive-offset model and the
    # inverse-polynomial one alike
    for key in ("g1", "g2"):
        assert np.all(fig2_curves["lower"] <= fig2_curves[key] + 1e-15)
    assert np.all(fig2_curves["g1"] <= fig2_curves["upper"] + 1e-15)
    assert np.all(fig2_curves["g2"] <= fig2_curves["upper"] + 1e-15)
    print(f"criterion 5: PASS - unimodal bounded-model ASE, linear unbounded ASE, "
          f"ASE(10 lam*)/ASE(lam*) = {at_10x / at_star:.3f}, envelopes hold")


def test_criterion_06_scaling_envelope(fig2_curves):
    dc = derived_constants(4.0, 10.0)
    lams = fig2_curves["lams"]
    rate = lams * np.exp(-dc.kappa_upper * lams)
    ratios = fig2_curves["upper"] / rate
    assert np.ptp(ratios) <= 1e-13 * ratios.max()

    lam0 = optimal_density_closed(4.0, 10.0)
    report = scaling_envelope_check(4.0, 10.0, np.geomspace(lam0, 10.0 * lam0, 16))
    assert report.all_pass and report.m > 0.0
    for p in report.points:
        assert p.lower_ratio >= report.m - 1e-15
        assert 0.0 < p.q2_over_q1 < 0.5
    # the ratio form ties back to the printed lower envelope where the rate
    # function is still representable
    kappa_lower = math.pi * (1.0 + 2.0**4 * dc.c1)
    lower_rate = lam0 * math.exp(-kappa_lower * lam0)
    reconstructed = report.points[0].lower_ratio * lower_rate
    assert reconstructed == pytest.approx(ase_lower(cfg_at(lam0)).value, rel=1e-9)
    print(f"criterion 6: PASS - upper envelope exactly proportional to its rate "
          f"function; tail constant m = {report.m:.4f} > 0 "
          f"(correction ratio <= {max(p.q2_over_q1 for p in report.points):.4f} < 1/2)")


def test_criterion_07_optimal_density():
    star_closed = optimal_density_closed(4.0, 10.0)
    star_numeric = golden_section_max(
        lambda lam: ase_upper(cfg_at(lam)).value, 1e-4, 10.0, rel_tol=1e-8)
    rel = abs(star_numeric - star_closed) / star_closed
    assert rel <= 1e-6
    star_g1 = optimal_density_numeric(cfg_at(1.0), PathlossModel.BOUNDED_G1)
    assert 1e-4 < star_g1 < 10.0 and math.isfinite(star_g1)
    print(f"criterion 7: PASS - closed-form maximizer {star_closed:.6f} matches "
          f"numeric argmax (rel err {rel:.1e}); exact-curve maximizer "
          f"{star_g1:.4f} interior")


def test_criterion_08_special_functions():
    for x in (0.5, 2.0, 10.0, 50.0):
        closed = math.atan(math.sqrt(x)) / math.sqrt(x)
        assert abs(specfun.hyf(x, 0.5) - closed) <= 1e-10
    worst = 0.0
    for alpha in (3.0, 4.0, 5.0):
        for x in (0.1, 1.0, 10.0, 100.0, 1e4):
            for b in specfun.hyf_shapes(alpha):
                ref = euler_integral(x, b)
                worst = max(worst, abs(specfun.hyf(x, b) - ref) / ref)
    assert worst <= 1e-8
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 199)])
    for alpha in (3.0, 4.0, 5.0):
        b1, b2 = specfun.hyf_shapes(alpha)
        assert np.all(np.diff(specfun.f1(grid, alpha)) < 0.0)
        assert np.all(np.diff(specfun.f2(grid, alpha)) < 0.0)
        pos = grid[1:]
        assert np.all(specfun.hyf(pos, b2) < specfun.hyf(pos, b1))
        ratio = specfun.f3(grid, alpha)
        assert ratio[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(ratio) < 0.0)
    print(f"criterion 8: PASS - closed-form identity to 1e-10, oracle gap "
          f"{worst:.1e} <= 1e-8, monotonicity suite on 200-point grids")


def test_criterion_09_simulator_soundness():
    # serving-distance law: KS distance of d0^2 against its exponential CDF
    lam = 1.0
    params = mc_params(lam, 1)
    cfg = cfg_at(lam)
    d2 = np.sort(np.array([
        r.distances[0]**2 for r in mc_realizations(cfg, params, 0, 10_000)]))
    model_cdf = -np.expm1(-math.pi * lam * d2)
    n = d2.size
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(ecdf_hi - model_cdf)), np.max(np.abs(model_cdf - ecdf_lo)))
    assert ks < 0.02

    # truncation adequacy: doubling the window moves coupled estimates by
    # less than one standard error
    shifts = []
    for model in (PathlossModel.BOUNDED_G1, PathlossModel.BOUNDED_G2):
        for lam_pt in MC_GRID:
            cfg_pt = cfg_at(lam_pt)
            base = mc.estimate_cp(cfg_pt, model, mc_params(lam_pt, 10_000))
            doubled = mc.estimate_cp(cfg_pt, model, dataclasses.replace(
                mc_params(lam_pt, 10_000),
                window_radius=2.0 * mc.window_radius(lam_pt)))
            ref = analytic.cp_for_model(cfg_pt, model).value
            se = max(base.stderr, score_se(ref, base.trials))
            shifts.append(abs(doubled.mean - base.mean) / se)
            assert shifts[-1] < 1.0, (model, lam_pt, shifts[-1])

    # each trial's outcome is a pure function of (seed, trial index):
    # doubling the trial count adds exactly the outcomes of trials [n, 2n),
    # with n inside a block
    n, cfg_pt, model = 400, cfg_at(0.3), PathlossModel.BOUNDED_G1
    covered_n = mc.estimate_cp(cfg_pt, model, mc_params(0.3, n)).mean * n
    covered_2n = mc.estimate_cp(cfg_pt, model, mc_params(0.3, 2 * n)).mean * 2 * n
    added = sum(mc.sir_sample(r, model, cfg_pt.alpha) > cfg_pt.tau
                for r in mc_realizations(cfg_pt, mc_params(0.3, 1), n, 2 * n))
    assert round(covered_2n) - round(covered_n) == added
    print(f"criterion 9: PASS - KS = {ks:.4f} < 0.02, max window-doubling shift "
          f"= {max(shifts):.2f} se, trial outcomes keyed by (seed, block)")


def test_criterion_10_transmit_power_invariance():
    powers_mw = [10.0 ** (db / 10.0) for db in (1.0, 20.0, 40.0)]
    base = cfg_at(0.3)
    configs = [dataclasses.replace(base, p_bs=p) for p in powers_mw]
    analytic_outputs = [
        (cp_upm(c).value, cp_g1_quadrature(c).value, cp_g1_closed(c).value,
         cp_g1_lower(c).value, cp_g1_upper(c).value, cp_g2(c).value,
         cp_g2_upper(c).value, ase_upper(c).value, ase_lower(c).value)
        for c in configs]
    assert analytic_outputs[0] == analytic_outputs[1] == analytic_outputs[2]
    params = mc_params(0.3, 2000)
    mc_outputs = [mc.estimate_cp(c, PathlossModel.BOUNDED_G1, params) for c in configs]
    assert mc_outputs[0] == mc_outputs[1] == mc_outputs[2]
    sample_sirs = []
    for c in configs:
        r = mc.sample_block(c, mc_params(0.3, 1), 0)[0]
        sample_sirs.append(mc.sir_sample(r, PathlossModel.BOUNDED_G1, c.alpha))
    assert sample_sirs[0] == sample_sirs[1] == sample_sirs[2]
    print("criterion 10: PASS - analytic and simulated outputs bit-identical "
          "across transmit powers {1, 20, 40} dBmW")
