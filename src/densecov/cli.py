"""Command-line front end: density sweeps, optimal-density reports, and
simulator-vs-formula validation.  All output is CSV (stdout or a file).

Exit codes: 0 success, 1 validation disagreement, 2 usage error (also a
validation without an informative row), 3 numerical failure.

Each flag variant is declared once, in ``_FLAGS``; a command lists the
flags it takes.  Each refusal has one path.  A flag's own range is its
argparse type (that of ``validate --trials`` starts at the trial count its
z-test needs), and that of ``--model`` is the command's own choices
(``validate`` and ``optimal-density`` offer only the models with an
analytic curve), so a bad value prints argparse's usage and an ``error:``
line naming the token.  A command checks only what relates two flags.
``main`` maps the library's arithmetic and runtime failures to exit 3 on
one ``error:`` line.  Every formula and each model's curves come from
``analytic``.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

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
# a validate row can show a disagreement only where the analytic coverage
# predicts this many covered trials; below it |z| stays small whatever the
# simulator does
VALIDATE_MIN_HITS = 10
MAX_ABS_DB = 3000.0
# a grid is allocated whole and each point costs milliseconds; a trial costs
# tens of microseconds, so the caps bound one run to hours, not forever
MAX_POINTS = 100_000
MAX_TRIALS = 100_000_000
# validate and optimal-density accept only the models with an analytic curve
_ANALYTIC_MODELS = tuple(m.value for m in PathlossModel if analytic.coverage_curves(m)[0])
# per analytic model, densities where validate's trial floor has power
_DEFAULT_VALIDATE_GRID = {
    PathlossModel.UNBOUNDED: (1e-2,),
    PathlossModel.BOUNDED_G1: (1e-3, 0.3),
    PathlossModel.BOUNDED_G2: (1e-3, 0.3),
}


# one CSV record of a density sweep per row; None prints as an empty cell
SWEEP_COLUMNS = ("lambda_bs", "model", "cp_analytic", "cp_lower", "cp_upper",
                 "cp_mc_mean", "cp_mc_stderr", "ase_analytic", "ase_upper",
                 "ase_lower", "ase_mc_mean", "rate_function")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int)):  # ints exactly: a seed reaches 2^64 - 1
        return str(value)
    return "%.12g" % value


def _write(args, settings: dict, notes: list[str], rows: list[dict]):
    """The one CSV writer: a comment line with the run's settings, the note
    lines, a header from the rows' keys and one record per row."""
    first = {"alpha": args.alpha, "tau_db": args.tau_db, "model": args.model, **settings}
    lines = [f"# densecov {args.command}: "
             + " ".join(f"{key}={_fmt(value)}" for key, value in first.items()),
             *notes, ",".join(rows[0])]
    lines += [",".join(map(_fmt, row.values())) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.output == "stdout":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)


def _ranged(convert, ok, rule: str):
    """An argparse type: convert the text and keep the value only where ok
    holds.  Each ok is phrased so that NaN fails it; a refusal names the
    token, since argparse would otherwise name this function."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
    return parse


_alpha = _ranged(float, lambda a: 2.0 < a < math.inf, "a finite number above 2")
# keeps 10^(dB/10) a positive, finite float
_decibels = _ranged(float, lambda db: abs(db) <= MAX_ABS_DB,
                    f"a finite level in [-{MAX_ABS_DB:g}, {MAX_ABS_DB:g}] dB")
_density = _ranged(float, lambda lam: 0.0 < lam < math.inf, "a positive, finite density")
_points = _ranged(int, lambda n: 1 <= n <= MAX_POINTS, f"an integer in [1, {MAX_POINTS}]")
_trials = _ranged(int, lambda n: 0 <= n <= MAX_TRIALS, f"an integer in [0, {MAX_TRIALS}]")
_validate_trials = _ranged(int, lambda n: VALIDATE_MIN_TRIALS <= n <= MAX_TRIALS,
                           f"an integer in [{VALIDATE_MIN_TRIALS}, {MAX_TRIALS}]")
_seed = _ranged(int, lambda n: 0 <= n < 2**64, "an integer in [0, 2^64)")


def _densities(text: str) -> tuple[float, ...]:
    return tuple(_density(tok) for tok in text.split(","))


_MODEL_TAGS = tuple(m.value for m in PathlossModel)
# keyed by option, or by "<option> <variant>" where commands differ
_FLAGS = {
    "--alpha": dict(type=_alpha, default=4.0, help="pathloss exponent (> 2)"),
    "--tau-db": dict(type=_decibels, default=10.0, help="SIR threshold in dB"),
    "--model": dict(default="g1", choices=_MODEL_TAGS),
    "--model analytic": dict(default="g1", choices=_ANALYTIC_MODELS),
    # by default the comparison covers every model with an analytic curve
    "--model all": dict(default="all", choices=("all", *_ANALYTIC_MODELS)),
    "--lambda-min": dict(type=_density, default=1e-6, help="BS/m^2"),
    "--lambda-max": dict(type=_density, default=10.0, help="BS/m^2"),
    "--points": dict(type=_points, default=40,
                     help=f"log-spaced density points (1 to {MAX_POINTS:,})"),
    "--trials": dict(type=_trials, default=0,
                     help=f"Monte Carlo trials per point (0: none; at most {MAX_TRIALS:,})"),
    "--trials validate": dict(type=_validate_trials, default=VALIDATE_MIN_TRIALS,
                              help=f"Monte Carlo trials per density "
                                   f"({VALIDATE_MIN_TRIALS:,} to {MAX_TRIALS:,})"),
    "--seed": dict(type=_seed, default=42),
    "--output": dict(default="stdout", help="CSV destination path or 'stdout'"),
    "--mc-model": dict(choices=_MODEL_TAGS,
                       help="simulate a different model than the analytic one"),
    "--lambda-grid": dict(type=_densities,
                          help="comma-separated densities; default grid per model"),
}
_SWEEP_FLAGS = ("--alpha", "--tau-db", "--model", "--lambda-min", "--lambda-max", "--points",
                "--trials", "--seed", "--output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densecov",
        description="Downlink coverage and area spectral efficiency versus "
                    "base-station density, under bounded and unbounded pathloss.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, what, run, flags in (
            ("cp-sweep", "coverage probability over a density grid", cmd_sweep, _SWEEP_FLAGS),
            ("ase-sweep", "area spectral efficiency over a density grid", cmd_sweep, _SWEEP_FLAGS),
            # analytic only: the search sets its own densities and draws nothing
            ("optimal-density", "ASE-maximizing density report", cmd_optimal_density,
             ("--alpha", "--tau-db", "--model analytic", "--lambda-min", "--lambda-max",
              "--output")),
            ("validate", "Monte Carlo vs analytic comparison grid", cmd_validate,
             ("--alpha", "--tau-db", "--model all", "--output", "--trials validate", "--seed",
              "--mc-model", "--lambda-grid"))):
        p = sub.add_parser(name, help=what)
        # argparse reads a token starting with "-" as a flag unless it matches
        # this pattern; its own, ^-\d+$|^-\d*\.\d+$, misses -1e1 and -5.  No
        # flag here starts with a digit, so every such token is a value
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        for flag in flags:
            p.add_argument(flag.split()[0], **_FLAGS[flag])
        p.set_defaults(run=run)
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _check_mc_work(trials: int, lams) -> str | None:
    """Refuse Monte Carlo work per density above that of MAX_TRIALS trials at
    the default window; at its 1 m floor a trial draws about pi lam stations."""
    cap = MAX_TRIALS * mc.WINDOW_K**2
    for lam in lams:
        stations = mc.stations_drawn(trials, lam)
        if stations > cap:
            return (f"--trials {trials} at {lam:g} BS/m^2 would draw {stations:.3g} "
                    f"stations, above the cap of {cap:.3g}")
    return None


def cmd_sweep(args) -> int:
    with_ase = args.command == "ase-sweep"
    if args.lambda_max < args.lambda_min:
        return _usage_error("--lambda-max must be >= --lambda-min")
    grid = np.geomspace(args.lambda_min, args.lambda_max, args.points)
    if problem := _check_mc_work(args.trials, grid):
        return _usage_error(problem)
    model = PathlossModel.from_tag(args.model)
    exact, lower, upper = analytic.coverage_curves(model)
    tau = db_to_linear(args.tau_db)
    rows = []
    for lam in map(float, grid):
        cfg = NetworkConfig(lambda_bs=lam, alpha=args.alpha, tau=tau)
        row = dict.fromkeys(SWEEP_COLUMNS)
        row.update(lambda_bs=lam, model=args.model)
        if exact:
            cp = exact(cfg)
            row["cp_analytic"] = cp.value
        if lower:
            row["cp_lower"], row["cp_upper"] = lower(cfg).value, upper(cfg).value
        if with_ase:
            if exact:
                row["ase_analytic"] = analytic.ase(cfg, cp).value
            if lower:
                row["ase_upper"] = analytic.ase_upper(cfg).value
                row["ase_lower"] = analytic.ase_lower(cfg).value
            row["rate_function"] = analytic.rate_function(cfg)
        if args.trials > 0:
            params = mc.SimParams(
                window_radius=mc.window_radius(lam),
                trials=args.trials, seed=args.seed)
            est = mc.estimate_cp(cfg, model, params)
            row["cp_mc_mean"] = est.mean
            row["cp_mc_stderr"] = est.stderr
            if with_ase:
                row["ase_mc_mean"] = lam * analytic.spectral_efficiency(tau) * est.mean
        rows.append(row)
    assumed = ", ".join("%g" % v for v in ASSUMED_TAU_DB)
    _write(args, {"seed": args.seed, "trials": args.trials, "window_k": mc.WINDOW_K,
                  "rel_tol": analytic._REL_TOL},
           [f"# reference curves assume SIR thresholds of {{{assumed}}} dB; "
            f"this run uses tau_db={_fmt(args.tau_db)}"], rows)
    return EXIT_OK


def cmd_optimal_density(args) -> int:
    model = PathlossModel.from_tag(args.model)
    # a search needs an interval; sweeps accept a single density
    if not args.lambda_max > args.lambda_min:
        return _usage_error("--lambda-max must exceed --lambda-min for optimal-density")
    tau = db_to_linear(args.tau_db)
    template = NetworkConfig(lambda_bs=1.0, alpha=args.alpha, tau=tau)
    lam_closed = analytic.optimal_density_closed(args.alpha, tau)
    lam_num = analytic.optimal_density_numeric(
        template, model, bracket=(args.lambda_min, args.lambda_max))
    cfg_num = NetworkConfig(lam_num, args.alpha, tau)
    ase_num = analytic.ase(cfg_num, analytic.cp_for_model(cfg_num, model)).value
    cfg_closed = NetworkConfig(lam_closed, args.alpha, tau)
    ase_at_closed = analytic.ase(cfg_closed, analytic.cp_for_model(cfg_closed, model)).value
    ase_up_at_closed = analytic.ase_upper(cfg_closed).value
    row = {"model": args.model, "lambda_star_numeric": lam_num, "ase_at_numeric": ase_num,
           "lambda_star_closed": lam_closed, "ase_at_closed": ase_at_closed,
           "ase_upper_at_closed": ase_up_at_closed,
           "relative_gap": abs(lam_num - lam_closed) / lam_closed}
    _write(args, {"bracket": f"[{_fmt(args.lambda_min)},{_fmt(args.lambda_max)}]"}, [], [row])
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.model == "all" and args.mc_model is not None:
        return _usage_error("--mc-model needs an explicit --model on the analytic side")
    if problem := _check_mc_work(args.trials, args.lambda_grid or ()):
        return _usage_error(problem)
    analytic_models = list(_DEFAULT_VALIDATE_GRID) if args.model == "all" \
        else [PathlossModel.from_tag(args.model)]
    tau = db_to_linear(args.tau_db)
    rows = []
    for analytic_model in analytic_models:
        mc_model = PathlossModel.from_tag(args.mc_model or analytic_model.value)
        for lam in args.lambda_grid or _DEFAULT_VALIDATE_GRID[analytic_model]:
            cfg = NetworkConfig(lam, args.alpha, tau)
            cp = analytic.cp_for_model(cfg, analytic_model)
            params = mc.SimParams(window_radius=mc.window_radius(lam),
                                  trials=args.trials, seed=args.seed)
            est = mc.estimate_cp(cfg, mc_model, params)
            # score-style error: the analytic value supplies the variance,
            # which stays positive when the empirical count is zero
            se = math.sqrt(max(cp.value * (1.0 - cp.value),
                               est.mean * (1.0 - est.mean)) / args.trials)
            z = (est.mean - cp.value) / se if se > 0.0 else 0.0
            hits = args.trials * cp.value
            rows.append({"model_analytic": analytic_model.value, "model_mc": mc_model.value,
                         "lambda_bs": lam, "cp_analytic": cp.value, "cp_mc_mean": est.mean,
                         "cp_mc_stderr": est.stderr, "z_score": z,
                         "within_3se": int(abs(z) <= 3.0), "expected_hits": hits,
                         "informative": int(hits >= VALIDATE_MIN_HITS)})
    weak = [f"{r['model_analytic']}@{_fmt(r['lambda_bs'])}" for r in rows
            if not r["informative"]]
    notes = [f"# note: uninformative rows (expected_hits below {VALIDATE_MIN_HITS}, "
             f"too few to show a disagreement): {' '.join(weak)}"] if weak else []
    _write(args, {"mc_model": args.mc_model or args.model, "trials": args.trials,
                  "seed": args.seed, "window_k": mc.WINDOW_K}, notes, rows)
    if not any(r["informative"] for r in rows):
        # the row with most power
        cp_top, lam_top = max((r["cp_analytic"], r["lambda_bs"]) for r in rows)
        if cp_top > 0.0:
            trials = math.ceil(VALIDATE_MIN_HITS / cp_top)
            need = f"--trials {trials}" + (
                f", above the cap of {MAX_TRIALS:,}" if trials > MAX_TRIALS else "")
        else:
            need = "more trials than any count"
        return _usage_error(
            f"no row is informative: trials x cp_analytic is below {VALIDATE_MIN_HITS} "
            f"on every row; the largest cp_analytic, {cp_top:.3g} at {lam_top:g} BS/m^2, "
            f"needs {need}")
    return EXIT_OK if all(r["within_3se"] for r in rows) else EXIT_DISAGREEMENT


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ArithmeticError, RuntimeError) as exc:
        # overflows, and quadrature and bracket failures (the only
        # RuntimeErrors); nothing has been written, since every command
        # writes its CSV only after the last row
        print(f"error: numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # from _write: a missing directory, a directory, no permission
        return _usage_error(f"cannot write --output {args.output}: {exc.strerror or exc}")
