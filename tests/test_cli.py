import argparse
import ast
import builtins
import contextlib
import csv
import importlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import densecov
from densecov import analytic, cli
from densecov.cli import SWEEP_COLUMNS, main
from densecov.model import PathlossModel


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def parse_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; importing it would also add about
    # 0.3 s to every CLI start
    env = dict(os.environ, PYTHONPATH=str(Path(densecov.__file__).resolve().parents[1]))
    code = "import sys, densecov; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


PUBLIC_NAMES = {
    "NetworkConfig", "PathlossModel", "CpValue", "AseValue", "SimParams", "SimEstimate",
    "QuadratureError", "BracketError", "UnsupportedPathlossError",
    "cp_upm", "cp_g1_closed", "cp_g1_quadrature", "cp_g1_lower", "cp_g1_upper",
    "cp_g2", "cp_g2_lower", "cp_g2_upper", "cp_for_model",
    "ase", "ase_upper", "ase_lower", "optimal_density_closed", "optimal_density_numeric",
    "scaling_envelope_check", "f1", "f2", "f3", "window_radius", "estimate_cp",
}


def test_public_names_resolve_once():
    # the top level is what the quick start, the CLI and the paper's checks
    # use; every other helper lives in its submodule
    assert len(densecov.__all__) == len(set(densecov.__all__))
    assert set(densecov.__all__) == PUBLIC_NAMES
    assert all(hasattr(densecov, name) for name in densecov.__all__)


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    code = blocks[0].split("```")[0]
    exec(compile(code, "README.md", "exec"), {})


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(densecov.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "densecov", "--help"], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0 and "cp-sweep" in run.stdout
    # the entry module runs only under -m, never on import
    code = "import sys, densecov; sys.exit('densecov.__main__' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# command lines that end in exit 3, and what their error line names
NUMERICAL_FAILURES = [
    (["cp-sweep", "--model", "g2", "--alpha", "1000",
      "--lambda-min", "1e-2", "--lambda-max", "1", "--points", "3"], "QuadratureError"),
    (["ase-sweep", "--alpha", "2000", "--points", "4"],
     "beta = 2^(alpha-2) c1 overflows at alpha=2000"),
    (["validate", "--model", "g1", "--lambda-grid", "1e-200"], "underflow"),
    (["optimal-density", "--model", "g2", "--alpha", "1000",
      "--tau-db", "-100", "--lambda-max", "1e300"],
     "2^alpha/(pi c_hat) overflows at alpha=1000"),
    (["cp-sweep", "--model", "g2", "--lambda-min", "1e308",
      "--lambda-max", "1e308", "--points", "1"], "pi*lambda overflows"),
    # the first density's quadrature failure, not the overflow of the
    # second
    (["cp-sweep", "--model", "g2", "--alpha", "100", "--tau-db", "30",
      "--lambda-min", "6.31", "--lambda-max", "1e308", "--points", "2"],
     "(QuadratureError): adaptive rule did not reach rel_tol=1e-09 at lam=6.31 "
     "(192 nodes per panel)\n"),
    # the first row's lower bound fails before the coverage of a later row
    (["cp-sweep", "--model", "g2", "--alpha", "2000", "--lambda-min", "1e-6", "--points", "9"],
     "beta = 2^(alpha-2) c1 overflows at alpha=2000"),
    (["optimal-density", "--lambda-min", "1e-6", "--lambda-max", "1.7e308"], "overflows"),
    # the g2 scan's last density, 1e308
    (["optimal-density", "--model", "g2", "--lambda-max", "1e308"],
     "(OverflowError): pi*lambda overflows at lambda=1e+308 BS/m^2\n"),
    (["optimal-density", "--alpha", "2000"], "2^alpha/(pi c_hat) overflows at alpha=2000"),
    (["cp-sweep", "--alpha", "1e17", "--points", "1"], "1 - 1/alpha rounds to 1"),
    (["cp-sweep", "--lambda-min", "1e308", "--lambda-max", "1e308", "--points", "1"],
     "pi*lambda overflows"),
    (["cp-sweep", "--model", "g1", "--alpha", "1e9", "--points", "2"],
     "interference constants lose their order 0 < c2 < c1 at alpha=1e+09"),
    # coverage is 1 over the bracket at -200 dB, so ASE rises to its edge
    (["optimal-density", "--model", "g2", "--tau-db", "-200"],
     "objective is increasing on the bracket; maximum at the upper edge"),
    # every g1 coverage underflows at 3000 dB: ASE is 0 over the bracket
    (["optimal-density", "--model", "g1", "--tau-db", "3000"],
     "objective is constant on the bracket"),
    # the scan fails at 6.30957
    (["optimal-density", "--model", "g2", "--alpha", "100", "--tau-db", "30",
      "--lambda-min", "0.01", "--lambda-max", "10"],
     "(QuadratureError): adaptive rule did not reach rel_tol=1e-09 at lam=6.30957 "),
    # the same failure at one density
    (["cp-sweep", "--model", "g2", "--alpha", "100", "--tau-db", "30",
      "--lambda-min", "6.31", "--lambda-max", "6.31", "--points", "1"],
     "(QuadratureError): adaptive rule did not reach rel_tol=1e-09 at lam=6.31 "),
]


# command lines that end in exit 0, and the branch of the g2 exponent or
# of its caller that each reaches
SUCCESSES = [
    # the default model and operating point, as CI runs the console script
    ["cp-sweep", "--points", "2"],
    # the far nodes' x*x overflows at 1e-320 BS/m^2
    ["cp-sweep", "--model", "g2", "--lambda-min", "1e-320", "--lambda-max", "1e-320",
     "--points", "1"],
    # near and far nodes, with x^alpha overflowing and w rounding to 1/2
    ["cp-sweep", "--model", "g2", "--alpha", "100", "--tau-db", "0", "--points", "3"],
    # every node far at 10 dB, with x^alpha overflowing
    ["cp-sweep", "--model", "g2", "--alpha", "100", "--points", "3"],
    # near only, both and far only as density grows
    ["cp-sweep", "--model", "g2", "--tau-db", "-10", "--lambda-min", "1e-30",
     "--lambda-max", "1e6", "--points", "3"],
    # nodes past x = 2^480, near-only rows and a far-only row
    ["cp-sweep", "--model", "g2", "--tau-db", "-10", "--lambda-min", "1e-320",
     "--lambda-max", "1e3", "--points", "9"],
    # a scan read from one coverage curve, three densities per exponent call
    ["optimal-density", "--model", "g2", "--alpha", "3", "--tau-db", "0"],
    # a model without analytic curves, simulated
    ["ase-sweep", "--model", "minb", "--points", "2", "--trials", "200"],
]


MODEL_TAGS = ["upm", "g1", "g2", "minb"]
ALPHA = ("--alpha", 4.0, None, "2.0000001", "2")
TAU_DB = ("--tau-db", 10.0, None, "-3e3", "3000.5")
LAMBDA_MIN = ("--lambda-min", 1e-6, None, "5e-324", "0")
LAMBDA_MAX = ("--lambda-max", 10.0, None, "1.7e308", "inf")
SEED = ("--seed", 42, None, "18446744073709551615", "-1")
OUTPUT = ("--output", "stdout", None, "x.csv", None)
# each command's options in order, each as (option, default, choices, a token
# it accepts, a token it refuses); None where it has no choices or takes any
# token
PARSER_PIN = {
    "cp-sweep": [ALPHA, TAU_DB, ("--model", "g1", MODEL_TAGS, "minb", "all"),
                 LAMBDA_MIN, LAMBDA_MAX, ("--points", 40, None, "100000", "100001"),
                 ("--trials", 0, None, "100000000", "-1"), SEED, OUTPUT],
    "optimal-density": [ALPHA, TAU_DB, ("--model", "g1", MODEL_TAGS[:3], "g2", "minb"),
                        LAMBDA_MIN, LAMBDA_MAX, OUTPUT],
    "validate": [ALPHA, TAU_DB, ("--model", "all", ["all", *MODEL_TAGS[:3]], "all", "minb"),
                 OUTPUT, ("--trials", 10_000, None, "10000", "9999"), SEED,
                 ("--mc-model", None, MODEL_TAGS, "minb", "all"),
                 ("--lambda-grid", None, None, "0.1,5e-324", "0.1,0")],
}
PARSER_PIN["ase-sweep"] = PARSER_PIN["cp-sweep"]


def test_parser_options_are_pinned(capsys):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["cp-sweep", "ase-sweep", "optimal-density", "validate"]
    for command, pin in PARSER_PIN.items():
        actions = sub.choices[command]._actions
        assert actions[0].option_strings == ["-h", "--help"]
        got = [(a.option_strings, a.default, type(a.default), a.choices and list(a.choices))
               for a in actions[1:]]
        assert got == [([opt], default, type(default), choices)
                       for opt, default, choices, _, _ in pin], command
        for opt, _, _, accepted, refused in pin:
            parser.parse_args([command, opt, accepted])
            if refused is not None:
                with pytest.raises(SystemExit):
                    parser.parse_args([command, opt, refused])
                assert f"error: argument {opt}: " in capsys.readouterr().err, (command, opt)


class TestFlagValidation:
    @pytest.mark.parametrize("argv", [
        ["cp-sweep", "--points", "0"],
        ["cp-sweep", "--lambda-min", "-1"],
        ["cp-sweep", "--lambda-min", "2", "--lambda-max", "1"],
        ["cp-sweep", "--alpha", "1.5"],
        ["cp-sweep", "--rel-tol", "1e-9"],                     # removed flag
        ["cp-sweep", "--trials", "-5"],
        ["validate", "--trials", "100"],
        ["optimal-density", "--model", "minb"],
        ["validate", "--model", "minb"],
        ["validate", "--lambda-grid", "1,apple"],
        ["cp-sweep", "--alpha", "inf"],
        ["cp-sweep", "--trials", "5", "--seed", "-1"],
        ["cp-sweep", "--trials", "5", "--seed", "18446744073709551616"],
        ["validate", "--lambda-grid", "nan"],
        ["cp-sweep", "--lambda-max", "inf"],
        ["cp-sweep", "--window-k", "24"],                      # removed flag
        ["cp-sweep", "--tau-db", "4000"],
        ["cp-sweep", "--p-bs", "20"],                          # removed flag
        ["cp-sweep", "--points", "100000000000000000000"],
        ["cp-sweep", "--trials", "100000000000000000000"],
        ["optimal-density", "--lambda-min", "0.5", "--lambda-max", "0.5"],
        # at the 1 m window floor a trial draws about pi lam stations
        ["cp-sweep", "--trials", "1", "--lambda-min", "1e300", "--lambda-max", "1e300",
         "--points", "1"],
        ["validate", "--model", "g1", "--lambda-grid", "1e300"],
        # optimal-density is analytic only
        ["optimal-density", "--trials", "7"],
        ["optimal-density", "--model", "g2", "--seed", "3"],
        ["optimal-density", "--points", "2"],
        # an --output that cannot be written
        ["cp-sweep", "--points", "1", "--output", "/nonexistent/densecov/x.csv"],
        ["validate", "--model", "g1", "--lambda-grid", "0.3", "--output", "/"],
        ["validate", "--lambda-grid", ""],
        ["validate", "--lambda-grid", "0.3,"],
        ["cp-sweep", "--tau-db", "nan"],
        ["cp-sweep", "--lambda-min", "nan"],
        ["validate", "--model", "minb", "--lambda-grid", "0.3"],
    ])
    def test_usage_errors_exit_2(self, capsys, argv):
        # argparse refuses a bad flag by printing usage and raising SystemExit
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "error:" in captured.err.splitlines()[-1]

    @pytest.mark.parametrize("argv,token", [
        (["validate", "--lambda-grid", "1,apple"], "'apple'"),
        (["cp-sweep", "--points", "0"], "'0'"),
        (["cp-sweep", "--alpha", "nan"], "'nan'"),
        # validate's and optimal-density's choices hold only the models
        # with an analytic curve
        (["validate", "--model", "minb"], "invalid choice: 'minb'"),
        (["optimal-density", "--model", "minb"], "invalid choice: 'minb'"),
        # validate's trial floor is its --trials range
        (["validate", "--trials", "100"], "'100'"),
        (["validate", "--trials", "100000001"], "'100000001'"),
    ])
    def test_flag_errors_name_the_flag_and_token(self, capsys, argv, token):
        with pytest.raises(SystemExit):
            main(argv)
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"densecov {argv[0]}: error: argument {argv[1]}: {token} ")

    @pytest.mark.parametrize("argv,needle", [
        pytest.param(argv, needle, id=f"argv{i}")
        for i, (argv, needle) in enumerate(NUMERICAL_FAILURES)])
    def test_numerical_failures_exit_3(self, capsys, argv, needle):
        assert main(argv) == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert needle in captured.err

    def test_unwritable_output_is_one_error_line(self, capsys, tmp_path):
        assert main(["cp-sweep", "--points", "1", "--output", str(tmp_path)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write --output {tmp_path}: ")
        assert captured.err.count("\n") == 1

    def test_unknown_model_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["cp-sweep", "--model", "bogus"])
        assert err.value.code == 2


def _raised_class(exc, namespace):
    """The object that a raise statement's class expression names in
    namespace, or None where the expression starts from a local name, as in
    'except X as err: raise err', or is no dotted name at all."""
    if isinstance(exc, ast.Call):
        exc = exc.func
    attrs = []
    while isinstance(exc, ast.Attribute):
        attrs.append(exc.attr)
        exc = exc.value
    if not isinstance(exc, ast.Name) or exc.id not in namespace:
        return None
    obj = namespace[exc.id]
    for attr in reversed(attrs):
        obj = getattr(obj, attr)
    return obj


def test_raised_class_skips_local_names():
    tree = ast.parse("try:\n    pass\nexcept ValueError as err:\n    raise err\n"
                     "raise exc from None\nraise errors[0]\nraise np.linalg.LinAlgError('x')\n"
                     "raise TypeError\n")
    namespace = {**vars(builtins), "np": np}
    assert {node.lineno: _raised_class(node.exc, namespace) for node in ast.walk(tree)
            if isinstance(node, ast.Raise)} == {4: None, 5: None, 6: None,
                                                7: np.linalg.LinAlgError, 8: TypeError}


def test_exit_3_classes_are_the_library_failures():
    # main maps every ArithmeticError and RuntimeError to exit 3, numerical
    # failure; a ZeroDivisionError or NotImplementedError raised in the
    # package would read as a numerical limit, not as the bug it is.  The
    # walk sits with the CLI's tests because exit 3 is main's contract
    allowed = {RuntimeError: {analytic.QuadratureError, analytic.BracketError},
               ArithmeticError: {OverflowError, FloatingPointError}}
    raised = set()
    for path in sorted(Path(densecov.__file__).parent.glob("*.py")):
        namespace = {**vars(builtins),
                     **vars(importlib.import_module(f"densecov.{path.stem}"))}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                cls = _raised_class(node.exc, namespace)
                if cls is None:  # a re-raise of a caught exception
                    continue
                assert isinstance(cls, type) and issubclass(cls, BaseException), (
                    path.name, node.lineno, cls)
                raised.add(cls)
                for family, members in allowed.items():
                    if issubclass(cls, family):
                        assert cls in members, (path.name, node.lineno, cls)
    # the walk sees every member
    assert set().union(*allowed.values()) <= raised


@pytest.mark.parametrize("argv", SUCCESSES)
def test_successes_exit_0(capsys, argv):
    # the suite's filter makes a warning an error
    assert main(argv) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    cells = [c for row in parse_rows(captured.out) for c in row.values()]
    assert cells and "nan" not in cells


# the columns of each command's CSV, in order
CSV_COLUMNS = {
    "cp-sweep": SWEEP_COLUMNS,
    "ase-sweep": SWEEP_COLUMNS,
    "optimal-density": ("model", "lambda_star_numeric", "ase_at_numeric",
                        "lambda_star_closed", "ase_at_closed", "ase_upper_at_closed",
                        "relative_gap"),
    "validate": ("model_analytic", "model_mc", "lambda_bs", "cp_analytic", "cp_mc_mean",
                 "cp_mc_stderr", "z_score", "within_3se", "expected_hits", "informative"),
}


@pytest.mark.parametrize("argv", [
    ["cp-sweep", "--points", "2", "--trials", "100"],
    ["ase-sweep", "--points", "2"],
    ["optimal-density"],
    # the g1 row at 2 BS/m^2 is uninformative, which adds a note
    ["validate", "--model", "g1", "--lambda-grid", "0.001,2"],
])
def test_csv_layout(capsys, argv):
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith(f"# densecov {argv[0]}: alpha=4 tau_db=10 model=")
    if argv[0] == "validate":
        assert lines[1].startswith("# note: ")
    records = [ln.split(",") for ln in lines if not ln.startswith("#")]
    assert tuple(records[0]) == CSV_COLUMNS[argv[0]]
    assert len(records) > 1
    assert all(len(r) == len(records[0]) for r in records)


class TestCpSweep:
    def test_single_point(self, capsys):
        rc, out = run_cli(capsys, "cp-sweep", "--points", "1", "--lambda-min", "0.2")
        assert rc == 0
        rows = parse_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["lambda_bs"]) == pytest.approx(0.2)

    def test_header_schema(self, capsys):
        rc, out = run_cli(capsys, "cp-sweep", "--points", "1")
        header = [ln for ln in out.splitlines() if not ln.startswith("#")][0]
        assert header == ",".join(SWEEP_COLUMNS)
        # the threshold assumption for reproducing the reference curves is
        # recorded as a comment
        assert any("0, 10" in ln for ln in out.splitlines() if ln.startswith("#"))

    def test_upm_column_density_invariant(self, capsys):
        rc, out = run_cli(capsys, "cp-sweep", "--model", "upm", "--points", "6",
                          "--lambda-min", "1e-6", "--lambda-max", "10")
        rows = parse_rows(out)
        assert rc == 0
        assert len({r["cp_analytic"] for r in rows}) == 1
        assert all(r["cp_lower"] == "" and r["cp_upper"] == "" for r in rows)

    def test_g1_defaults_non_increasing_and_well_formed(self, capsys):
        rc, out = run_cli(capsys, "cp-sweep", "--points", "12")
        rows = parse_rows(out)
        assert rc == 0 and len(rows) == 12
        cps = [float(r["cp_analytic"]) for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(cps, cps[1:]))
        assert all(0.0 <= v <= 1.0 for v in cps)
        assert all(r["ase_analytic"] == "" for r in rows)  # CP sweep leaves ASE empty

    def test_min_bounded_has_no_analytic_columns(self, capsys):
        rc, out = run_cli(capsys, "cp-sweep", "--model", "minb", "--points", "2")
        rows = parse_rows(out)
        assert rc == 0
        assert all(r["cp_analytic"] == "" for r in rows)
        # it is the one model without curves: a model has them exactly when
        # validate and optimal-density offer it and validate has its grid
        for model in PathlossModel:
            has_curves = analytic.coverage_curves(model)[0] is not None
            assert has_curves == (model is not PathlossModel.MIN_BOUNDED)
            assert has_curves == (model.value in cli._ANALYTIC_MODELS)
            assert has_curves == (model in cli._DEFAULT_VALIDATE_GRID)

    def test_mc_columns_populated(self, capsys):
        rc, out = run_cli(capsys, "cp-sweep", "--points", "1", "--lambda-min", "0.3",
                          "--trials", "400")
        row = parse_rows(out)[0]
        assert rc == 0
        assert row["cp_mc_mean"] != "" and row["cp_mc_stderr"] != ""

    def test_byte_stable_output(self, capsys, tmp_path):
        # validate's rows carry the expected_hits and informative columns
        for argv in (["cp-sweep", "--points", "5", "--trials", "200", "--lambda-min", "0.05",
                      "--lambda-max", "0.5"],
                     ["validate", "--model", "g1", "--lambda-grid", "0.3,2"]):
            rc1, out1 = run_cli(capsys, *argv)
            rc2, out2 = run_cli(capsys, *argv)
            assert rc1 == rc2 == 0 and out1 == out2
            dest = tmp_path / "sweep.csv"
            assert main(argv + ["--output", str(dest)]) == 0
            assert dest.read_text() == out1

    def test_g2_steep_pathloss_sweeps_without_warnings(self, capsys):
        # x^alpha underflows near the origin; y = inf there is the right limit
        rc, out = run_cli(capsys, "cp-sweep", "--model", "g2", "--alpha", "30")
        assert rc == 0
        assert all(0.0 <= float(r["cp_analytic"]) <= 1.0 for r in parse_rows(out))

    @pytest.mark.parametrize("tau_db", ["-10", "0", "10"])
    def test_g2_very_steep_pathloss_computes(self, capsys, tau_db):
        # x^alpha overflows on the far quadrature nodes at alpha = 100
        rc, out = run_cli(capsys, "cp-sweep", "--model", "g2", "--alpha", "100",
                          "--tau-db", tau_db)
        assert rc == 0
        for r in parse_rows(out):
            cp = float(r["cp_analytic"])
            assert 0.0 <= cp <= 1.0
            assert float(r["cp_lower"]) - 1e-9 <= cp <= float(r["cp_upper"]) + 1e-9

    @pytest.mark.parametrize("argv", [
        ["cp-sweep", "--alpha", "1e4"],
        ["cp-sweep", "--model", "upm", "--alpha", "1e4"],
        ["cp-sweep", "--alpha", "2000", "--points", "4"],
        # 2^(alpha-2) overflows, 2^(alpha-2) c1 does not
        ["ase-sweep", "--alpha", "1030", "--points", "3"],
    ])
    def test_steep_pathloss_needs_no_power_of_two(self, capsys, argv):
        # 2^alpha overflows past alpha = 1024, and the g1 and upm coverage
        # columns never use it
        rc, out = run_cli(capsys, *argv)
        assert rc == 0
        for r in parse_rows(out):
            for col in ("cp_analytic", "cp_lower", "cp_upper"):
                if r[col]:
                    assert 0.0 <= float(r[col]) <= 1.0
            assert math.isfinite(float(r["cp_analytic"]))
            if r["ase_lower"]:
                assert 0.0 <= float(r["ase_lower"]) <= float(r["ase_analytic"])

    @pytest.mark.parametrize("token, same_as", [("-1e1", "-10"), ("-5.", "-5"),
                                                ("-.5", "-0.5")])
    def test_negative_values_in_any_float_spelling(self, capsys, token, same_as):
        # argparse's own pattern reads -1e1 and -5. as flags
        assert run_cli(capsys, "cp-sweep", "--points", "3", "--tau-db", token) \
            == run_cli(capsys, "cp-sweep", "--points", "3", "--tau-db", same_as)


class TestAseSweep:
    def test_unit_threshold_scaling(self, capsys):
        rc, out = run_cli(capsys, "ase-sweep", "--tau-db", "0", "--points", "4",
                          "--lambda-min", "1e-3", "--lambda-max", "0.1")
        rows = parse_rows(out)
        assert rc == 0
        for r in rows:  # log2(1 + 1) = 1, so ASE is exactly lambda * CP
            assert float(r["ase_analytic"]) == pytest.approx(
                float(r["lambda_bs"]) * float(r["cp_analytic"]), rel=1e-12)

    def test_upm_ase_linear_increasing(self, capsys):
        rc, out = run_cli(capsys, "ase-sweep", "--model", "upm", "--points", "8",
                          "--lambda-min", "1e-4", "--lambda-max", "1.0")
        rows = parse_rows(out)
        vals = [float(r["ase_analytic"]) for r in rows]
        lams = [float(r["lambda_bs"]) for r in rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # constant slope up to the 12-significant-digit CSV rounding
        slopes = {v / l for v, l in zip(vals, lams)}
        assert max(slopes) - min(slopes) <= 1e-11 * max(slopes)

    def test_ase_is_scaled_coverage(self, capsys):
        rc, out = run_cli(capsys, "ase-sweep", "--model", "g2", "--points", "3",
                          "--lambda-min", "0.03", "--lambda-max", "0.3", "--trials", "2000")
        rows = parse_rows(out)
        assert rc == 0 and len(rows) == 3
        for r in rows:
            cp_mc = float(r["cp_mc_mean"])
            assert cp_mc > 0.0
            # three values rounded to 12 significant digits
            assert float(r["ase_mc_mean"]) == pytest.approx(
                float(r["lambda_bs"]) * math.log2(11.0) * cp_mc, rel=2e-11)

    def test_small_threshold_keeps_its_throughput(self, capsys):
        # at -200 dB, 1 + tau rounds to 1: log1p keeps ASE = lam tau/ln 2
        rc, out = run_cli(capsys, "ase-sweep", "--model", "g2", "--tau-db", "-200",
                          "--points", "3")
        rows = parse_rows(out)
        assert rc == 0
        assert float(rows[0]["ase_analytic"]) == pytest.approx(1.44269504089e-26, rel=1e-11)
        assert all(float(r[col]) > 0.0 for r in rows
                   for col in ("ase_analytic", "ase_upper", "ase_lower"))

    def test_zero_coverage_gives_zero_ase(self, capsys):
        # coverage is about 1e-30 at this density
        rc, out = run_cli(capsys, "ase-sweep", "--points", "1", "--lambda-min", "5",
                          "--trials", "300")
        row = parse_rows(out)[0]
        assert rc == 0
        assert float(row["cp_mc_mean"]) == 0.0 and float(row["ase_mc_mean"]) == 0.0

    def test_bounded_rows_carry_bounds_and_rate_function(self, capsys):
        rc, out = run_cli(capsys, "ase-sweep", "--points", "5", "--lambda-min", "0.01",
                          "--lambda-max", "1.0")
        rows = parse_rows(out)
        for r in rows:
            assert r["ase_upper"] != "" and r["ase_lower"] != "" and r["rate_function"] != ""
            assert float(r["ase_analytic"]) <= float(r["ase_upper"]) + 1e-12
            assert float(r["ase_analytic"]) >= 0.0
        # every model: the sweep fills the analytic columns exactly where
        # the model has the curve, and the rate function on every row
        for model in PathlossModel:
            exact, lower, upper = analytic.coverage_curves(model)
            rc, out = run_cli(capsys, "ase-sweep", "--model", model.value, "--points", "2")
            assert rc == 0
            for r in parse_rows(out):
                assert (r["cp_analytic"] != "") == (r["ase_analytic"] != "") \
                    == (exact is not None), model
                assert {r[col] != "" for col in ("cp_lower", "cp_upper", "ase_upper",
                                                 "ase_lower")} == {lower is not None}, model
                assert (lower is None) == (upper is None)
                assert r["rate_function"] != ""


class TestOptimalDensity:
    def test_report_values(self, capsys):
        rc, out = run_cli(capsys, "optimal-density")
        assert rc == 0
        row = parse_rows(out)[0]
        from densecov.analytic import optimal_density_closed
        assert float(row["lambda_star_closed"]) == pytest.approx(
            optimal_density_closed(4.0, 10.0), rel=1e-11)
        num = float(row["lambda_star_numeric"])
        assert 1e-4 < num < 10.0
        # the numeric search maximizes the exact curve, so it cannot lose to
        # evaluating that curve at the envelope's maximizer
        assert float(row["ase_at_numeric"]) >= float(row["ase_at_closed"])

    def test_g2_finite_interior(self, capsys):
        rc, out = run_cli(capsys, "optimal-density", "--model", "g2")
        assert rc == 0
        assert 1e-4 < float(parse_rows(out)[0]["lambda_star_numeric"]) < 10.0

    def test_upm_monotone_exits_3(self, capsys):
        assert main(["optimal-density", "--model", "upm"]) == cli.EXIT_NUMERICAL


class TestValidate:
    def test_matched_models_small_grid(self, capsys):
        rc, out = run_cli(capsys, "validate", "--model", "g1",
                          "--lambda-grid", "0.001,0.3", "--trials", "10000")
        assert rc == 0
        rows = parse_rows(out)
        assert len(rows) == 2
        assert all(abs(float(r["z_score"])) <= 3.0 for r in rows)

    def test_default_grid_covers_all_analytic_models_and_passes(self, capsys):
        rc, out = run_cli(capsys, "validate")
        assert rc == 0
        rows = parse_rows(out)
        assert {r["model_analytic"] for r in rows} == {"upm", "g1", "g2"}
        assert all(r["within_3se"] == "1" for r in rows)
        assert all(r["informative"] == "1" for r in rows)
        assert "# note:" not in out

    def test_rows_without_power_are_noted(self, capsys):
        # g1 coverage at 2 BS/m^2 is 2.6e-8: 10 000 trials expect 0.00026 hits
        rc, out = run_cli(capsys, "validate", "--model", "g1", "--lambda-grid", "0.001,2",
                          "--trials", "10000")
        assert rc == 0
        rows = parse_rows(out)
        assert [r["informative"] for r in rows] == ["1", "0"]
        assert float(rows[0]["expected_hits"]) == pytest.approx(
            10_000 * float(rows[0]["cp_analytic"]), rel=1e-11)
        notes = [ln for ln in out.splitlines() if ln.startswith("# note:")]
        assert len(notes) == 1 and notes[0].endswith(": g1@2")

    def test_a_run_without_power_exits_2(self, capsys):
        # past the ASE peak the g1 and g2 curves differ, but the analytic g1
        # coverage (2.6e-5, 2.6e-8, 6.4e-31) expects under one covered trial
        # in 10 000 on every row, so a mismatch cannot show
        rc = main(["validate", "--model", "g1", "--mc-model", "g2",
                   "--lambda-grid", "1,2,10", "--trials", "10000"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        rows = parse_rows(captured.out)
        assert [r["informative"] for r in rows] == ["0", "0", "0"]
        assert "g1@1 g1@2 g1@10" in captured.out
        assert captured.err.count("\n") == 1
        # the message names the least trial count that informs the best row
        needed = int(captured.err.split("--trials ")[1].split()[0])
        cp = float(rows[0]["cp_analytic"])
        assert needed * cp >= 10 > (needed - 1) * cp
        # 2.6e-8 needs 3.9e8 trials, which the trial cap refuses
        assert main(["validate", "--model", "g1", "--lambda-grid", "2"]) == cli.EXIT_USAGE
        assert "above the cap of 100,000,000" in capsys.readouterr().err
        # g1 coverage underflows to 0 at 1000 BS/m^2, which no count informs
        assert main(["validate", "--model", "g1", "--lambda-grid", "1000"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.endswith("needs more trials than any count\n")

    def test_mc_model_override_requires_explicit_model(self, capsys):
        assert main(["validate", "--mc-model", "g2"]) == cli.EXIT_USAGE

    def test_mismatched_models_report_nonzero_z(self, capsys):
        rc, out = run_cli(capsys, "validate", "--model", "g1", "--mc-model", "g2",
                          "--lambda-grid", "1", "--trials", "10000")
        row = parse_rows(out)[0]
        assert float(row["z_score"]) != 0.0

    def test_mismatched_models_disagree_where_the_curves_separate(self, capsys):
        # at the default 10 000 trials
        rc, out = run_cli(capsys, "validate", "--model", "g1", "--mc-model", "g2",
                          "--lambda-grid", "0.1")
        assert rc == cli.EXIT_DISAGREEMENT
        assert abs(float(parse_rows(out)[0]["z_score"])) > 3.0


@st.composite
def analytic_argv(draw):
    """A sweep or optimal-density command line over the ranges the CLI
    accepts: any model of the command's choices, any finite density, any
    finite alpha above 2 (2 + 10^u for u in [-12, 4]) and thresholds within
    +-3000 dB."""
    log_lam = st.floats(-300.0, 308.2)
    lo, hi = sorted(10.0 ** draw(log_lam) for _ in range(2))
    command = draw(st.sampled_from(["cp-sweep", "ase-sweep", "optimal-density"]))
    models = (cli._ANALYTIC_MODELS if command == "optimal-density"
              else ["upm", "g1", "g2", "minb"])
    argv = [command,
            "--model", draw(st.sampled_from(models)),
            "--alpha", repr(2.0 + 10.0 ** draw(st.floats(-12.0, 4.0))),
            "--tau-db", repr(draw(st.floats(-3000.0, 3000.0))),
            "--lambda-min", repr(lo), "--lambda-max", repr(hi)]
    if command != "optimal-density":
        argv += ["--points", str(draw(st.integers(1, 3)))]
    return argv


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(argv=analytic_argv())
@example(argv=["optimal-density", "--lambda-min", "0.5", "--lambda-max", "0.5"])
# lam log2(1 + tau) overflows while the envelopes are 0
@example(argv=["ase-sweep", "--model", "g1", "--tau-db", "3000",
               "--lambda-min", "1e306", "--lambda-max", "1e306", "--points", "1"])
# the golden-section scan evaluates numpy densities
@example(argv=["optimal-density", "--model", "g2", "--alpha", "6", "--tau-db", "1200",
               "--lambda-min", "1e-100", "--lambda-max", "1e200"])
# kappa_upper lam overflows in the rate function
@example(argv=["ase-sweep", "--model", "upm", "--tau-db", "30",
               "--lambda-min", "1e307", "--lambda-max", "1.7e308", "--points", "2"])
# x*x overflows at the far quadrature nodes of g2
@example(argv=["cp-sweep", "--model", "g2", "--lambda-min", "1e-320",
               "--lambda-max", "1e-320", "--points", "1"])
# the g2 lower bound's z = sqrt(pi lam)(m + sqrt(1 + beta)) overflows
@example(argv=["cp-sweep", "--model", "g2", "--alpha", "1025", "--tau-db", "1000",
               "--lambda-min", "5.6e307", "--lambda-max", "5.6e307", "--points", "1"])
def test_every_analytic_command_ends_in_a_defined_exit_code(argv):
    # exit 1 belongs to validate alone; a traceback, a warning or a nan
    # cell is a defect
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NUMERICAL)
    if rc == cli.EXIT_OK:
        assert err.getvalue() == ""
        cells = [c for row in parse_rows(out.getvalue()) for c in row.values()]
        assert "nan" not in cells
    elif rc == cli.EXIT_NUMERICAL:
        assert err.getvalue().count("\n") == 1


class TestDbConversion:
    def test_db_to_linear(self):
        assert cli.db_to_linear(10.0) == pytest.approx(10.0)
        assert cli.db_to_linear(0.0) == 1.0
        assert cli.db_to_linear(20.0) == pytest.approx(100.0)
