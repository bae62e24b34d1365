import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bitrecord

ROOT = Path(bitrecord.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def quick():
    return bitrecord.records(quick=True)


def test_quick_record_is_well_formed(quick):
    keys = [key for key, _ in quick]
    assert len(keys) == len(set(keys))
    failures = {}
    for key, value in quick:
        if bitrecord._as_float(value) is None:
            assert re.fullmatch(r"\w+: .+", value), (key, value)
            failures.setdefault(value.split(":")[0], key)
    # the slice reaches each kind of failure the full record holds
    assert {"ValueError", "OverflowError", "QuadratureError", "BracketError"} <= set(failures)
    for part in ("hyf_series(", "hyf(", "erfcx(", "erfc_cf_tail(", "_exponent_g2 ",
                 "cp_g2(", "cp_g1_quadrature(", "optimal_density_numeric("):
        assert any(key.startswith(part) for key in keys), part


def test_quick_record_repeats_itself(quick):
    assert bitrecord.records(quick=True) == quick


def test_compare_of_a_tree_with_itself_finds_no_difference():
    run = subprocess.run([sys.executable, str(ROOT / "tests" / "bitrecord.py"), "--quick",
                          "--tree", str(ROOT), "--compare", str(ROOT)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert re.fullmatch(r"\d+ records, 0 differ \(parent: numpy .+\)\n", run.stdout)


def test_differences_name_each_moved_record_with_its_ulps():
    one_up = math.nextafter(1.0, 2.0).hex()
    parent = {"same": "0x1.0p+0", "moved": "0x1.0p+0", "zero": "0x0.0p+0",
              "failed": "0x1.0p+0", "nan": "nan", "gone": "0x1.0p+0"}
    change = {"same": "0x1.0p+0", "moved": one_up, "zero": "-0x0.0p+0",
              "failed": "ValueError: x", "nan": "0x1.0p+0", "new": "0x1.0p+0"}
    assert bitrecord.differences(parent, change) == [
        "failed: parent 0x1.0p+0 change ValueError: x (not both numbers)",
        "gone: parent 0x1.0p+0 change None (not both numbers)",
        f"moved: parent 0x1.0p+0 change {one_up} (1 ulp)",
        "nan: parent nan change 0x1.0p+0 (not both numbers)",
        "new: parent None change 0x1.0p+0 (not both numbers)",
        "zero: parent 0x0.0p+0 change -0x0.0p+0 (0 ulp)",
    ]


@pytest.mark.parametrize("a, b, dist", [
    (1.0, 1.0, 0), (1.0, math.nextafter(1.0, 2.0), 1), (0.0, -0.0, 0),
    (-5e-324, 5e-324, 2), (math.nextafter(2.0, 0.0), 2.0, 1), (-1.0, -2.0, 2**52),
    (1.7976931348623157e308, math.inf, 1)])
def test_ulp_distance(a, b, dist):
    assert bitrecord.ulp_distance(a, b) == dist
    assert bitrecord.ulp_distance(b, a) == dist
