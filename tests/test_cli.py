import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import densecov
from densecov import cli
from densecov.cli import SWEEP_COLUMNS, main


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


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(densecov.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "densecov", "--help"], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0 and "cp-sweep" in run.stdout
    # the entry module runs only under -m, never on import
    code = "import sys, densecov; sys.exit('densecov.__main__' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestFlagValidation:
    @pytest.mark.parametrize("argv", [
        ["cp-sweep", "--points", "0"],
        ["cp-sweep", "--lambda-min", "-1"],
        ["cp-sweep", "--lambda-min", "2", "--lambda-max", "1"],
        ["cp-sweep", "--alpha", "1.5"],
        ["cp-sweep", "--rel-tol", "1e-3"],
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
        ["cp-sweep", "--trials", "1", "--window-k", "inf"],
        ["cp-sweep", "--tau-db", "4000"],
        ["cp-sweep", "--p-bs", "-4000"],
        ["cp-sweep", "--points", "100000000000000000000"],
        ["cp-sweep", "--trials", "100000000000000000000"],
    ])
    def test_usage_errors_exit_2(self, capsys, argv):
        assert main(argv) == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["cp-sweep", "--model", "g2", "--alpha", "100"],       # hypergeometric tail sum
        ["cp-sweep", "--lambda-min", "1e299", "--lambda-max", "1e300"],  # erfc fraction
    ])
    def test_numerical_failures_exit_3(self, capsys, argv):
        assert main(argv) == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_unknown_model_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["cp-sweep", "--model", "bogus"])
        assert err.value.code == 2


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

    def test_mc_columns_populated(self, capsys):
        rc, out = run_cli(capsys, "cp-sweep", "--points", "1", "--lambda-min", "0.3",
                          "--trials", "400")
        row = parse_rows(out)[0]
        assert rc == 0
        assert row["cp_mc_mean"] != "" and row["cp_mc_stderr"] != ""

    def test_byte_stable_output(self, capsys, tmp_path):
        argv = ["cp-sweep", "--points", "5", "--trials", "200", "--lambda-min", "0.05",
                "--lambda-max", "0.5"]
        rc1, out1 = run_cli(capsys, *argv)
        rc2, out2 = run_cli(capsys, *argv)
        assert rc1 == rc2 == 0 and out1 == out2
        dest = tmp_path / "sweep.csv"
        assert main(argv + ["--output", str(dest)]) == 0
        assert dest.read_text() == out1

    def test_transmit_power_flag_changes_nothing(self, capsys):
        _, out_a = run_cli(capsys, "cp-sweep", "--points", "4", "--p-bs", "1")
        _, out_b = run_cli(capsys, "cp-sweep", "--points", "4", "--p-bs", "40")
        strip = lambda text: [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert strip(out_a) == strip(out_b)


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

    def test_bounded_rows_carry_bounds_and_rate_function(self, capsys):
        rc, out = run_cli(capsys, "ase-sweep", "--points", "5", "--lambda-min", "0.01",
                          "--lambda-max", "1.0")
        rows = parse_rows(out)
        for r in rows:
            assert r["ase_upper"] != "" and r["ase_lower"] != "" and r["rate_function"] != ""
            assert float(r["ase_analytic"]) <= float(r["ase_upper"]) + 1e-12
            assert float(r["ase_analytic"]) >= 0.0


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

    def test_mc_model_override_requires_explicit_model(self, capsys):
        assert main(["validate", "--mc-model", "g2"]) == cli.EXIT_USAGE

    def test_mismatched_models_report_nonzero_z(self, capsys):
        rc, out = run_cli(capsys, "validate", "--model", "g1", "--mc-model", "g2",
                          "--lambda-grid", "1", "--trials", "10000")
        row = parse_rows(out)[0]
        assert float(row["z_score"]) != 0.0

    def test_mismatched_models_disagree_where_the_curves_separate(self, capsys):
        rc, out = run_cli(capsys, "validate", "--model", "g1", "--mc-model", "g2",
                          "--lambda-grid", "0.1", "--trials", "10000")
        assert rc == cli.EXIT_DISAGREEMENT
        assert abs(float(parse_rows(out)[0]["z_score"])) > 3.0


class TestDbConversion:
    def test_db_to_linear(self):
        assert cli.db_to_linear(10.0) == pytest.approx(10.0)
        assert cli.db_to_linear(0.0) == 1.0
        assert cli.db_to_linear(20.0) == pytest.approx(100.0)
