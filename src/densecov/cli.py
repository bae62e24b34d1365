"""Command-line front end: density sweeps, optimal-density reports, and
simulator-vs-formula validation.  All output is CSV (stdout or a file).

Exit codes: 0 success, 1 validation disagreement, 2 usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import analytic, mc
from .model import NetworkConfig, PathlossModel

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# thresholds assumed when reproducing the reference coverage curves, which do
# not state theirs; recorded in the CSV header of every sweep
ASSUMED_TAU_DB = (0.0, 10.0)

VALIDATE_MIN_TRIALS = 10_000
MAX_ABS_DB = 3000.0
# a grid is allocated whole and each point costs milliseconds; a trial costs
# tens of microseconds, so the caps bound one run to hours, not forever
MAX_POINTS = 100_000
MAX_TRIALS = 100_000_000
_DEFAULT_VALIDATE_GRID = {
    PathlossModel.UNBOUNDED: (1e-2,),
    PathlossModel.BOUNDED_G1: (1e-3, 0.3),
    PathlossModel.BOUNDED_G2: (1e-3, 0.3),
}


@dataclass
class SweepRow:
    """One CSV record of a density sweep; None fields print as empty cells."""

    lambda_bs: float
    model: str
    cp_analytic: float | None = None
    cp_lower: float | None = None
    cp_upper: float | None = None
    cp_mc_mean: float | None = None
    cp_mc_stderr: float | None = None
    ase_analytic: float | None = None
    ase_upper: float | None = None
    ase_lower: float | None = None
    ase_mc_mean: float | None = None
    rate_function: float | None = None


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return "%.12g" % value


def _write(lines, path: str):
    text = "\n".join(lines) + "\n"
    if path == "stdout":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _common_flags(p: argparse.ArgumentParser, sweep: bool = True,
                  model_choices: tuple = ("upm", "g1", "g2", "minb"),
                  model_default: str = "g1"):
    p.add_argument("--alpha", type=float, default=4.0, help="pathloss exponent (> 2)")
    p.add_argument("--tau-db", type=float, default=10.0, help="SIR threshold in dB")
    p.add_argument("--p-bs", type=float, default=20.0,
                   help="transmit power in dBmW (cancels in every result; kept testable)")
    p.add_argument("--model", default=model_default, choices=list(model_choices))
    if sweep:
        p.add_argument("--lambda-min", type=float, default=1e-6, help="BS/m^2")
        p.add_argument("--lambda-max", type=float, default=10.0, help="BS/m^2")
        p.add_argument("--points", type=int, default=40,
                       help=f"log-spaced density points (1 to {MAX_POINTS:,})")
    p.add_argument("--trials", type=int, default=0,
                   help=f"Monte Carlo trials per point (0: none; at most {MAX_TRIALS:,})")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--window-k", type=float, default=mc.DEFAULT_WINDOW_K,
                   help="window scale: radius k/sqrt(pi lambda), ~k^2 stations")
    p.add_argument("--output", default="stdout", help="CSV destination path or 'stdout'")
    p.add_argument("--rel-tol", type=float, default=1e-9,
                   help="quadrature relative tolerance (<= 1e-7)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densecov",
        description="Downlink coverage and area spectral efficiency versus "
                    "base-station density, under bounded and unbounded pathloss.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cp = sub.add_parser("cp-sweep", help="coverage probability over a density grid")
    _common_flags(p_cp)

    p_ase = sub.add_parser("ase-sweep", help="area spectral efficiency over a density grid")
    _common_flags(p_ase)

    p_opt = sub.add_parser("optimal-density", help="ASE-maximizing density report")
    _common_flags(p_opt)

    p_val = sub.add_parser("validate", help="Monte Carlo vs analytic comparison grid")
    # by default the comparison covers every model with an analytic curve
    _common_flags(p_val, sweep=False,
                  model_choices=("all", "upm", "g1", "g2", "minb"),
                  model_default="all")
    p_val.add_argument("--mc-model", default=None, choices=["upm", "g1", "g2", "minb"],
                       help="simulate a different model than the analytic one")
    p_val.add_argument("--lambda-grid", default=None,
                       help="comma-separated densities; default grid per model")
    p_val.set_defaults(trials=VALIDATE_MIN_TRIALS)
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _check_common(args, sweep: bool = True) -> str | None:
    floats = ("alpha", "tau_db", "p_bs", "window_k", "rel_tol")
    if sweep:
        floats += ("lambda_min", "lambda_max")
    for name in floats:
        if not math.isfinite(getattr(args, name)):
            return f"--{name.replace('_', '-')} must be finite"
    if not args.alpha > 2.0:
        return "--alpha must exceed 2"
    # keeps 10^(dB/10) a positive, finite float
    if abs(args.tau_db) > MAX_ABS_DB:
        return f"--tau-db must lie in [-{MAX_ABS_DB:g}, {MAX_ABS_DB:g}]"
    if abs(args.p_bs) > MAX_ABS_DB:
        return f"--p-bs must lie in [-{MAX_ABS_DB:g}, {MAX_ABS_DB:g}]"
    if sweep:
        if not args.lambda_min > 0.0:
            return "--lambda-min must be positive"
        if args.lambda_max < args.lambda_min:
            return "--lambda-max must be >= --lambda-min"
        if not 1 <= args.points <= MAX_POINTS:
            return f"--points must lie in [1, {MAX_POINTS}]"
    if not 0 <= args.trials <= MAX_TRIALS:
        return f"--trials must lie in [0, {MAX_TRIALS}]"
    if not 0 <= args.seed < 2**64:
        return "--seed must lie in [0, 2^64)"
    if not 0.0 < args.rel_tol <= 1e-7:
        return "--rel-tol must lie in (0, 1e-7]"
    if not args.window_k > 0.0:
        return "--window-k must be positive"
    return None


def _grid(args) -> np.ndarray:
    if args.points == 1:
        return np.array([args.lambda_min])
    return np.geomspace(args.lambda_min, args.lambda_max, args.points)


def _header_lines(args, command: str) -> list[str]:
    assumed = ", ".join("%g" % v for v in ASSUMED_TAU_DB)
    return [
        f"# densecov {command}: alpha={_fmt(args.alpha)} tau_db={_fmt(args.tau_db)} "
        f"p_bs_dbm={_fmt(args.p_bs)} model={args.model} seed={args.seed} "
        f"trials={args.trials} window_k={_fmt(args.window_k)} rel_tol={_fmt(args.rel_tol)}",
        f"# reference curves assume SIR thresholds of {{{assumed}}} dB; "
        f"this run uses tau_db={_fmt(args.tau_db)}",
        ",".join(SWEEP_COLUMNS),
    ]


def _analytic_cp(cfg, model, spec):
    """Coverage, bounds, and envelopes for one grid point; None where the
    model has no analytic expression."""
    if model is PathlossModel.MIN_BOUNDED:
        return None, None, None
    cp = analytic.cp_for_model(cfg, model, spec)
    if model is PathlossModel.BOUNDED_G1:
        return cp, analytic.cp_g1_lower(cfg), analytic.cp_g1_upper(cfg)
    if model is PathlossModel.BOUNDED_G2:
        return cp, analytic.cp_g2_lower(cfg, spec), analytic.cp_g2_upper(cfg)
    return cp, None, None


def _run_sweep(args, with_ase: bool) -> int:
    problem = _check_common(args)
    if problem:
        return _usage_error(problem)
    model = PathlossModel.from_tag(args.model)
    tau = db_to_linear(args.tau_db)
    p_bs = db_to_linear(args.p_bs)
    spec = analytic.QuadratureSpec(rel_tol=args.rel_tol)
    rows = []
    for lam in _grid(args):
        cfg = NetworkConfig(lambda_bs=float(lam), alpha=args.alpha, tau=tau, p_bs=p_bs)
        cp, cp_lo, cp_hi = _analytic_cp(cfg, model, spec)
        row = SweepRow(lambda_bs=float(lam), model=args.model)
        if cp is not None:
            row.cp_analytic = cp.value
            row.cp_lower = None if cp_lo is None else cp_lo.value
            row.cp_upper = None if cp_hi is None else cp_hi.value
        if with_ase:
            if cp is not None:
                row.ase_analytic = analytic.ase(cfg, cp).value
            if model in (PathlossModel.BOUNDED_G1, PathlossModel.BOUNDED_G2):
                row.ase_upper = analytic.ase_upper(cfg).value
                row.ase_lower = analytic.ase_lower(cfg).value
            dc = analytic.derived_constants(cfg.alpha, cfg.tau)
            row.rate_function = lam * math.exp(-dc.kappa_upper * lam)
        if args.trials > 0:
            params = mc.SimParams(
                window_radius=mc.window_radius(float(lam), args.window_k),
                trials=args.trials, seed=args.seed)
            est = mc.estimate_cp(cfg, model, params)
            row.cp_mc_mean = est.mean
            row.cp_mc_stderr = est.stderr
            if with_ase:
                scale = float(lam) * math.log2(1.0 + tau)
                row.ase_mc_mean = scale * est.mean
        rows.append(row)
    lines = _header_lines(args, "ase-sweep" if with_ase else "cp-sweep")
    lines += [",".join(_fmt(getattr(r, c)) for c in SWEEP_COLUMNS) for r in rows]
    _write(lines, args.output)
    return EXIT_OK


def cmd_cp_sweep(args) -> int:
    return _run_sweep(args, with_ase=False)


def cmd_ase_sweep(args) -> int:
    return _run_sweep(args, with_ase=True)


def cmd_optimal_density(args) -> int:
    problem = _check_common(args)
    if problem:
        return _usage_error(problem)
    model = PathlossModel.from_tag(args.model)
    if model is PathlossModel.MIN_BOUNDED:
        return _usage_error("--model minb has no analytic ASE curve to maximize")
    tau = db_to_linear(args.tau_db)
    p_bs = db_to_linear(args.p_bs)
    spec = analytic.QuadratureSpec(rel_tol=args.rel_tol)
    template = NetworkConfig(lambda_bs=1.0, alpha=args.alpha, tau=tau, p_bs=p_bs)
    lam_closed = analytic.optimal_density_closed(args.alpha, tau)
    lam_num = analytic.optimal_density_numeric(
        template, model, bracket=(args.lambda_min, args.lambda_max), spec=spec)
    cfg_num = NetworkConfig(lam_num, args.alpha, tau, p_bs)
    ase_num = analytic.ase(cfg_num, analytic.cp_for_model(cfg_num, model, spec)).value
    cfg_closed = NetworkConfig(lam_closed, args.alpha, tau, p_bs)
    ase_at_closed = analytic.ase(
        cfg_closed, analytic.cp_for_model(cfg_closed, model, spec)).value
    ase_up_at_closed = analytic.ase_upper(cfg_closed).value
    lines = [
        f"# densecov optimal-density: alpha={_fmt(args.alpha)} tau_db={_fmt(args.tau_db)} "
        f"model={args.model} bracket=[{_fmt(args.lambda_min)},{_fmt(args.lambda_max)}]",
        "model,lambda_star_numeric,ase_at_numeric,lambda_star_closed,"
        "ase_at_closed,ase_upper_at_closed,relative_gap",
        ",".join(_fmt(v) for v in (
            args.model, lam_num, ase_num, lam_closed, ase_at_closed,
            ase_up_at_closed, abs(lam_num - lam_closed) / lam_closed)),
    ]
    _write(lines, args.output)
    return EXIT_OK


def cmd_validate(args) -> int:
    problem = _check_common(args, sweep=False)
    if problem:
        return _usage_error(problem)
    if args.trials < VALIDATE_MIN_TRIALS:
        return _usage_error(f"--trials must be >= {VALIDATE_MIN_TRIALS} for validation")
    if args.model == "all":
        analytic_models = [PathlossModel.UNBOUNDED, PathlossModel.BOUNDED_G1,
                           PathlossModel.BOUNDED_G2]
        if args.mc_model is not None:
            return _usage_error("--mc-model needs an explicit --model on the analytic side")
    else:
        analytic_models = [PathlossModel.from_tag(args.model)]
        if analytic_models[0] is PathlossModel.MIN_BOUNDED:
            return _usage_error("--model minb has no analytic coverage to validate against")
    tau = db_to_linear(args.tau_db)
    p_bs = db_to_linear(args.p_bs)
    spec = analytic.QuadratureSpec(rel_tol=args.rel_tol)

    if args.lambda_grid is not None:
        try:
            explicit_lams = tuple(float(tok) for tok in args.lambda_grid.split(","))
        except ValueError:
            return _usage_error("--lambda-grid must be comma-separated numbers")
        if not all(0.0 < l < math.inf for l in explicit_lams):
            return _usage_error("--lambda-grid densities must be positive and finite")
    else:
        explicit_lams = None

    lines = [
        f"# densecov validate: alpha={_fmt(args.alpha)} tau_db={_fmt(args.tau_db)} "
        f"model={args.model} mc_model={args.mc_model or args.model} "
        f"trials={args.trials} seed={args.seed} window_k={_fmt(args.window_k)}",
        "model_analytic,model_mc,lambda_bs,cp_analytic,cp_mc_mean,cp_mc_stderr,"
        "z_score,within_3se",
    ]
    all_ok = True
    for analytic_model in analytic_models:
        mc_model = analytic_model if args.mc_model is None \
            else PathlossModel.from_tag(args.mc_model)
        lams = explicit_lams if explicit_lams is not None \
            else _DEFAULT_VALIDATE_GRID[analytic_model]
        for lam in lams:
            cfg = NetworkConfig(lam, args.alpha, tau, p_bs)
            cp = analytic.cp_for_model(cfg, analytic_model, spec)
            params = mc.SimParams(window_radius=mc.window_radius(lam, args.window_k),
                                  trials=args.trials, seed=args.seed)
            est = mc.estimate_cp(cfg, mc_model, params)
            # score-style error: the analytic value supplies the variance,
            # which stays positive when the empirical count is zero
            se = math.sqrt(max(cp.value * (1.0 - cp.value),
                               est.mean * (1.0 - est.mean)) / args.trials)
            z = (est.mean - cp.value) / se if se > 0.0 else 0.0
            ok = abs(z) <= 3.0
            all_ok = all_ok and ok
            lines.append(",".join(_fmt(v) for v in (
                analytic_model.value, mc_model.value, lam, cp.value, est.mean,
                est.stderr, z, int(ok))))
    _write(lines, args.output)
    return EXIT_OK if all_ok else EXIT_DISAGREEMENT


_COMMANDS = {
    "cp-sweep": cmd_cp_sweep,
    "ase-sweep": cmd_ase_sweep,
    "optimal-density": cmd_optimal_density,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ArithmeticError, RuntimeError) as exc:
        # quadrature, bracket and series failures; nothing has been written,
        # since every command writes its CSV only after the last row
        print(f"error: numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
