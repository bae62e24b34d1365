"""The three benchmark workloads, their seeded inputs and their correctness gate.

Each workload object runs one pass over its inputs at a time and returns a
``Pass``: the wall time of the pass and one ``Op`` per operation, each timed
on its own and marked ok or failed by the gate.  Calls into densecov go
through module attributes (``analytic.cp_for_model``, not a name bound at
import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from densecov import analytic, mc
from densecov.model import NetworkConfig, PathlossModel

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

DEFAULT_SEED = 1

# analytic-figures: Fig. 1 / Fig. 2 operating points, (alpha, tau in dB)
FIGURE_CASES = ((4.0, 10.0), (3.0, 10.0), (3.0, 0.0))
FIGURE_MODELS = (PathlossModel.BOUNDED_G1, PathlossModel.BOUNDED_G2)
GRID_POINTS = 40
GRID_RANGE = (1e-6, 10.0)
# scaling_envelope_check needs the grid to reach 10x the closed-form optimum
# (at most 27.6 BS/m^2 for these cases)
SCALING_RANGE = (1e-6, 100.0)

# mc-validate: (model, lambda, tau in dB) at alpha = 4, the shape of
# `densecov validate` and of the acceptance gate's heavy fixture
MC_ALPHA = 4.0
MC_POINTS = tuple(
    [(m, lam, 0.0) for m in ("upm", "g1", "g2", "minb") for lam in (1e-3, 0.3)]
    + [("g1", 1e-3, 10.0)])
MC_TRIALS = 4000
Z_LIMIT = 4.0
SE_TARGET = 1e-3

# cli-sweeps: a small-trial MC call, the opposite shape of mc-validate
CLI_SMALL_POINTS = 4
CLI_SMALL_TRIALS = 200
CLI_TAU_DB = 10.0
CLI_P_BS_DBM = 20.0

# tolerances of the gate
CP_TOL = 1e-6           # same as the closed-vs-quadrature acceptance check
SANDWICH_SLACK = 1e-9   # same slack as the acceptance bound-sandwich check
LAMBDA_STAR_RTOL = 2e-6  # two solver tolerances (golden section rel_tol 1e-6)


@dataclass
class Op:
    """One timed operation: its kind, duration, and whether it passed the gate."""

    kind: str
    seconds: float
    ok: bool
    work: int = 1
    label: str = ""


@dataclass
class Pass:
    wall_s: float
    ops: list[Op] = field(default_factory=list)


def _no_tick() -> None:
    pass


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def jittered_grid(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """Log grid over [lo, hi]; interior points move by up to 0.4 of a step."""
    u = np.linspace(math.log10(lo), math.log10(hi), n)
    if n > 2:
        step = u[1] - u[0]
        u[1:-1] += rng.uniform(-0.4, 0.4, n - 2) * step
    return 10.0 ** u


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# analytic-figures
# ---------------------------------------------------------------------------

def figure_point(model: PathlossModel, cfg: NetworkConfig) -> list[float]:
    """CP, its two bounds, and the three ASE values at one grid point."""
    cp = analytic.cp_for_model(cfg, model)
    if model is PathlossModel.BOUNDED_G1:
        lower, upper = analytic.cp_g1_lower(cfg), analytic.cp_g1_upper(cfg)
    else:
        lower, upper = analytic.cp_g2_lower(cfg), analytic.cp_g2_upper(cfg)
    return [cp.value, lower.value, upper.value, analytic.ase(cfg, cp).value,
            analytic.ase_upper(cfg).value, analytic.ase_lower(cfg).value]


def point_is_sound(v: list[float]) -> bool:
    """Seed-independent gate: CPs in [0, 1] and both bound pairs sandwich."""
    cp, lower, upper, a, a_up, a_lo = v
    return (all(0.0 <= x <= 1.0 for x in (cp, lower, upper))
            and lower <= cp + SANDWICH_SLACK and cp <= upper + SANDWICH_SLACK
            and all(math.isfinite(x) and x >= 0.0 for x in (a, a_up, a_lo))
            and a_lo <= a * (1.0 + SANDWICH_SLACK) and a <= a_up * (1.0 + SANDWICH_SLACK))


def case_key(model: PathlossModel, alpha: float, tau_db: float) -> str:
    return f"{model.value}/alpha={alpha:g}/tau_db={tau_db:g}"


class AnalyticFigures:
    """Fig. 1 and Fig. 2 curves, the optimal-density table and the scaling
    envelope, all from the analytic layers; the simulator does no work."""

    name = "analytic-figures"
    timed_kind = "point"
    # a pass has 120 points, 12 beyond their 90th percentile
    tail_percentile = 90.0
    tail_over_repetitions = False
    trials_per_pass = 0

    def __init__(self, seed: int, grid_points: int = GRID_POINTS,
                 check_reference: bool = True):
        rng = np.random.default_rng([seed, 1])
        self.grid = jittered_grid(rng, grid_points, *GRID_RANGE)
        self.scaling_grid = jittered_grid(rng, grid_points, *SCALING_RANGE)
        self.solves = [(m, a, t) for m in FIGURE_MODELS for a, t in FIGURE_CASES]
        # the reference table holds the default seed's full-size inputs
        self.reference = None
        if check_reference and seed == DEFAULT_SEED and grid_points == GRID_POINTS:
            self.reference = json.loads(REFERENCE_PATH.read_text())

    @staticmethod
    def warm_up():
        figure_point(PathlossModel.BOUNDED_G2, NetworkConfig(0.01, 4.0, 10.0))

    def run_pass(self, collect: bool = False, tick=_no_tick):
        """One pass, calling tick after each operation; with collect, also
        every analytic output, keyed as in reference.json."""
        ops, out = [], {"points": {}, "optima": {}, "scaling": {}}
        start = time.perf_counter()
        # one timed operation is one figure grid point: every curve of both
        # models at one (alpha, tau, lambda)
        for alpha, tau_db in FIGURE_CASES:
            tau = db_to_linear(tau_db)
            keys = [case_key(m, alpha, tau_db) for m in FIGURE_MODELS]
            for key in keys:
                out["points"][key] = []
            for i, lam in enumerate(self.grid):
                cfg = NetworkConfig(float(lam), alpha, tau)
                t0 = time.perf_counter()
                try:
                    values = [figure_point(m, cfg) for m in FIGURE_MODELS]
                except (ArithmeticError, ValueError, RuntimeError):
                    values = None
                dt = time.perf_counter() - t0
                ok = values is not None and all(point_is_sound(v) for v in values)
                for j, key in enumerate(keys):
                    if ok and self.reference:
                        ref = self.reference["points"][key][i][1:]
                        ok = all(_close(x, r, CP_TOL) for x, r in zip(values[j], ref))
                    out["points"][key].append([float(lam)] + (values[j] if values else []))
                ops.append(Op("point", dt, ok, label=f"{alpha:g}/{tau_db:g}/{i}"))
                tick()
        for model, alpha, tau_db in self.solves:
            key = case_key(model, alpha, tau_db)
            template = NetworkConfig(1.0, alpha, db_to_linear(tau_db))
            t0 = time.perf_counter()
            try:
                lam_star = analytic.optimal_density_numeric(template, model)
                cfg = dataclasses.replace(template, lambda_bs=lam_star)
                ase_star = analytic.ase(cfg, analytic.cp_for_model(cfg, model)).value
            except (ArithmeticError, ValueError, RuntimeError):
                lam_star = ase_star = None
            dt = time.perf_counter() - t0
            ok = lam_star is not None and 1e-4 < lam_star < 10.0
            if ok and self.reference:
                ref_lam, ref_ase = self.reference["optima"][key]
                ok = (abs(lam_star - ref_lam) <= LAMBDA_STAR_RTOL * ref_lam
                      and _close(ase_star, ref_ase, CP_TOL))
            ops.append(Op("solve", dt, ok, label=key))
            tick()
            out["optima"][key] = [lam_star, ase_star]
        for alpha, tau_db in FIGURE_CASES:
            key = f"alpha={alpha:g}/tau_db={tau_db:g}"
            t0 = time.perf_counter()
            try:
                rep = analytic.scaling_envelope_check(alpha, db_to_linear(tau_db),
                                                      self.scaling_grid)
                summary = [rep.lambda0, rep.m, rep.big_m]
                ok = rep.all_pass and rep.m > 0.0
            except (ArithmeticError, ValueError, RuntimeError):
                summary, ok = None, False
            dt = time.perf_counter() - t0
            if ok and self.reference:
                ok = all(_close(x, r, CP_TOL)
                         for x, r in zip(summary, self.reference["scaling"][key]))
            ops.append(Op("scaling", dt, ok, label=key))
            tick()
            out["scaling"][key] = summary
        result = Pass(time.perf_counter() - start, ops)
        return (result, out) if collect else result

    def extras(self, times: dict) -> dict:
        solves = {label: s for (kind, label), s in times.items() if kind == "solve"}
        return {"optimize_p50_s": float(np.median(list(solves.values()))),
                "optimize_s_by_case": solves,
                "grid_points_per_pass": len(self.grid) * len(FIGURE_CASES),
                "solves_per_pass": len(self.solves),
                "scaling_checks_per_pass": len(FIGURE_CASES)}


# ---------------------------------------------------------------------------
# mc-validate
# ---------------------------------------------------------------------------

class McValidate:
    """Few points, many trials each: the simulator does nearly all the work."""

    name = "mc-validate"
    timed_kind = "mc_point"
    # the nine points cost about the same, so the tail is taken over every
    # repetition of each: a run has at least 45, 11 beyond the 75th percentile
    tail_percentile = 75.0
    tail_over_repetitions = True

    def __init__(self, seed: int, trials: int = MC_TRIALS):
        self.seed = seed
        self.trials = trials
        self.points = []
        for tag, lam, tau_db in MC_POINTS:
            model = PathlossModel.from_tag(tag)
            cfg = NetworkConfig(lam, MC_ALPHA, db_to_linear(tau_db))
            params = mc.SimParams(window_radius=mc.window_radius(lam), trials=trials,
                                  seed=seed)
            self.points.append((model, cfg, params, self._reference(model, cfg)))
        self.first = [None] * len(self.points)
        self.trials_per_pass = trials * len(self.points)

    @staticmethod
    def _reference(model: PathlossModel, cfg: NetworkConfig):
        """(analytic CP, allowed extra gap) or None where no reference exists.

        min(1, d^-alpha) equals d^-alpha unless a station lies within unit
        distance, which happens with probability 1 - exp(-pi lam); at low
        density that probability widens the unbounded-law reference.
        """
        if model is not PathlossModel.MIN_BOUNDED:
            return analytic.cp_for_model(cfg, model).value, 0.0
        if cfg.lambda_bs <= 1e-3:
            return analytic.cp_upm(cfg).value, -math.expm1(-math.pi * cfg.lambda_bs)
        return None

    @staticmethod
    def warm_up():
        mc.estimate_cp(NetworkConfig(0.3, MC_ALPHA, 1.0), PathlossModel.BOUNDED_G1,
                       mc.SimParams(window_radius=mc.window_radius(0.3), trials=16, seed=0))

    def check(self, i: int, est) -> bool:
        if self.first[i] is None:
            self.first[i] = est
        # trials own their (seed, trial) streams: every pass must repeat exactly
        ok = est == self.first[i] and 0.0 <= est.mean <= 1.0
        ref = self.points[i][3]
        if ok and ref is not None:
            p, widen = ref
            # score-style error as in `densecov validate`
            se = math.sqrt(max(p * (1.0 - p), est.mean * (1.0 - est.mean)) / est.trials)
            ok = abs(est.mean - p) <= Z_LIMIT * se + widen
        return ok

    def run_pass(self, tick=_no_tick) -> Pass:
        ops = []
        start = time.perf_counter()
        for i, (model, cfg, params, _) in enumerate(self.points):
            t0 = time.perf_counter()
            try:
                est = mc.estimate_cp(cfg, model, params)
            except (ArithmeticError, ValueError, RuntimeError):
                est = None
            dt = time.perf_counter() - t0
            ok = est is not None and self.check(i, est)
            ops.append(Op("mc_point", dt, ok, params.trials, label=str(i)))
            tick()
        return Pass(time.perf_counter() - start, ops)

    def extras(self, times: dict) -> dict:
        tts = [times["mc_point", str(i)] * (est.stderr / SE_TARGET) ** 2
               for i, est in enumerate(self.first) if est is not None]
        return {"mc_time_to_se_s": float(np.median(tts)) if tts else None,
                "se_target": SE_TARGET,
                "trials_per_point": self.trials,
                "points_per_pass": len(self.points),
                "estimates": [None if e is None else [e.mean, e.stderr] for e in self.first]}


# ---------------------------------------------------------------------------
# cli-sweeps
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    """The CLI's CSV number format."""
    return "" if value is None else "%.12g" % value


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class CliSweeps:
    """Fresh `densecov` processes, one at a time: import, argparse and CSV
    writing dominate, and the small-trial call uses the simulator in the
    opposite shape from mc-validate."""

    name = "cli-sweeps"
    timed_kind = "cli_call"
    # four calls a pass, each its own command: the tail is the slowest
    tail_percentile = 100.0
    tail_over_repetitions = False
    trials_per_pass = CLI_SMALL_POINTS * CLI_SMALL_TRIALS

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        lo = GRID_RANGE[0] * 10.0 ** rng.uniform(-0.25, 0.25)
        hi = GRID_RANGE[1] * 10.0 ** rng.uniform(-0.25, 0.25)
        self.seed = seed
        self.lam_min, self.lam_max = lo, hi
        self.workdir = workdir
        grid = ["--lambda-min", repr(lo), "--lambda-max", repr(hi)]
        self.calls = [
            ("cp-sweep-g1", ["cp-sweep", "--model", "g1", *grid]),
            ("ase-sweep-g2", ["ase-sweep", "--model", "g2", *grid]),
            ("optimal-density-g2", ["optimal-density", "--model", "g2", *grid]),
            ("cp-sweep-g2-trials", ["cp-sweep", "--model", "g2", *grid,
                                    "--points", str(CLI_SMALL_POINTS),
                                    "--trials", str(CLI_SMALL_TRIALS),
                                    "--seed", str(seed)]),
        ]
        self.expected = {kind: self._expected(kind) for kind, _ in self.calls}
        self.child_script = BENCH_DIR / "clichild.py"
        # a list while a traced pass runs: each CLI child then traces itself
        self.trace_records: list[dict] | None = None
        self.first_error: str | None = None

    # -- in-process library values for the same inputs ---------------------

    def _sweep_expected(self, model: PathlossModel, with_ase: bool, points: int,
                        trials: int) -> list[dict]:
        tau = db_to_linear(CLI_TAU_DB)
        rows = []
        for lam in np.geomspace(self.lam_min, self.lam_max, points):
            lam = float(lam)
            cfg = NetworkConfig(lam, 4.0, tau, db_to_linear(CLI_P_BS_DBM))
            cp = analytic.cp_for_model(cfg, model)
            if model is PathlossModel.BOUNDED_G1:
                lower, upper = analytic.cp_g1_lower(cfg), analytic.cp_g1_upper(cfg)
            else:
                lower, upper = analytic.cp_g2_lower(cfg), analytic.cp_g2_upper(cfg)
            row = {"lambda_bs": lam, "model": model.value, "cp_analytic": cp.value,
                   "cp_lower": lower.value, "cp_upper": upper.value}
            if with_ase:
                kappa = analytic.derived_constants(4.0, tau).kappa_upper
                row.update(ase_analytic=analytic.ase(cfg, cp).value,
                           ase_upper=analytic.ase_upper(cfg).value,
                           ase_lower=analytic.ase_lower(cfg).value,
                           rate_function=lam * math.exp(-kappa * lam))
            if trials:
                params = mc.SimParams(window_radius=mc.window_radius(lam), trials=trials,
                                      seed=self.seed)
                est = mc.estimate_cp(cfg, model, params)
                row.update(cp_mc_mean=est.mean, cp_mc_stderr=est.stderr)
            rows.append(row)
        return rows

    def _expected(self, kind: str) -> list[dict]:
        g1, g2 = PathlossModel.BOUNDED_G1, PathlossModel.BOUNDED_G2
        if kind == "cp-sweep-g1":
            return self._sweep_expected(g1, False, GRID_POINTS, 0)
        if kind == "ase-sweep-g2":
            return self._sweep_expected(g2, True, GRID_POINTS, 0)
        if kind == "cp-sweep-g2-trials":
            return self._sweep_expected(g2, False, CLI_SMALL_POINTS, CLI_SMALL_TRIALS)
        tau = db_to_linear(CLI_TAU_DB)
        p_bs = db_to_linear(CLI_P_BS_DBM)
        template = NetworkConfig(1.0, 4.0, tau, p_bs)
        lam_num = analytic.optimal_density_numeric(
            template, g2, bracket=(self.lam_min, self.lam_max))
        lam_closed = analytic.optimal_density_closed(4.0, tau)
        cfg_num = NetworkConfig(lam_num, 4.0, tau, p_bs)
        cfg_closed = NetworkConfig(lam_closed, 4.0, tau, p_bs)
        return [{
            "model": "g2",
            "lambda_star_numeric": lam_num,
            "ase_at_numeric": analytic.ase(cfg_num, analytic.cp_for_model(cfg_num, g2)).value,
            "lambda_star_closed": lam_closed,
            "ase_at_closed": analytic.ase(cfg_closed,
                                          analytic.cp_for_model(cfg_closed, g2)).value,
            "ase_upper_at_closed": analytic.ase_upper(cfg_closed).value,
            "relative_gap": abs(lam_num - lam_closed) / lam_closed,
        }]

    def csv_matches(self, kind: str, text: str) -> bool:
        header, rows = _csv_rows(text)
        expected = self.expected[kind]
        if len(rows) != len(expected) or not set(expected[0]) <= set(header):
            return False
        for row, exp in zip(rows, expected):
            if len(row) != len(header):
                return False
            cells = dict(zip(header, row))
            if any(cells[col] != (v if isinstance(v, str) else _fmt(v))
                   for col, v in exp.items()):
                return False
            # every column the library leaves empty must be empty in the CSV
            if any(cells[col] for col in header if col not in exp):
                return False
        return True

    # -- the timed calls ----------------------------------------------------

    def _run_call(self, kind: str, argv: list[str]) -> Op:
        out = self.workdir / f"{kind}.csv"
        trace_out = self.workdir / f"{kind}.trace.json"
        cmd = [sys.executable, str(self.child_script), *argv, "--output", str(out)]
        if self.trace_records is not None:
            cmd.insert(2, "--trace-out=" + str(trace_out))
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120)
        dt = time.perf_counter() - t0
        ok = proc.returncode == 0 and out.exists() and self.csv_matches(kind, out.read_text())
        if not ok and self.first_error is None:
            self.first_error = f"{kind}: exit {proc.returncode}: {proc.stderr.decode()[-500:]}"
        if self.trace_records is not None and trace_out.exists():
            self.trace_records.append(json.loads(trace_out.read_text()))
            trace_out.unlink()
        if out.exists():
            out.unlink()
        return Op("cli_call", dt, ok, label=kind)

    @staticmethod
    def warm_up():
        pass   # setup for this workload is the bare import

    def run_pass(self, tick=_no_tick) -> Pass:
        start = time.perf_counter()
        ops = []
        for kind, argv in self.calls:
            ops.append(self._run_call(kind, argv))
            tick()
        return Pass(time.perf_counter() - start, ops)

    def extras(self, times: dict) -> dict:
        return {"cli_call_s_by_command": {label: s for (kind, label), s in times.items()
                                          if kind == "cli_call"},
                "lambda_bracket": [self.lam_min, self.lam_max],
                "first_error": self.first_error}


WORKLOADS = {cls.name: cls for cls in (AnalyticFigures, McValidate, CliSweeps)}
