"""Hex record of densecov's numerical results, and a parent-vs-change compare.

    python tests/bitrecord.py [--quick] [--tree DIR]
    python tests/bitrecord.py [--quick] [--tree DIR] --compare PARENT_TREE

The first form prints one record per line, `key<TAB>value`, computed from
the densecov under DIR/src (by default the tree holding this script).  A
value is a float in hex or, where the call raises, `type: message`.  The
record covers:

- specfun: hyf_series on log-uniform batches that reach 2^-53 with pinned
  maxima, hyf across the seam y = 1, erfcx, and erfc_cf_tail to 1e300;
- analytic._exponent_g2 in each branch: tau < 1 with near and far nodes,
  tau = 1 and 1 +- an ulp, tau > 1, x^alpha overflowing, and x > 2^480;
- cp_g2 and cp_g1_quadrature at densities from 5e-324 to 1e308, the 6.31
  and 6.30957 quadrature failures, and NaN, 0, -0 and inf, which fail;
- optimal_density_numeric for g1 and g2 over brackets across that range.

The second form runs this script on both trees in subprocesses, prints
every record that differs, with both values and their distance in ulps,
and exits 1 if any differs (or is present in one record only).  Both runs
inherit the environment, so NPY_DISABLE_CPU_FEATURES set for the command
compares at that numpy dispatch level; the header line names the groups
that ran.  --quick takes a small slice of every part.

Only numpy and the standard library are used.
"""

from __future__ import annotations

import argparse
import math
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

_DENSITIES = [5e-324, 1e-320, 1e-300, 1e-150, 1e-30, 1e-8, 1e-6, 1e-3, 0.1, 1.0,
              6.30957, 6.31, 10.0, 1e3, 1e30, 1e300, 1e308,
              math.nan, 0.0, -0.0, math.inf]
_QUICK_DENSITIES = [1e-320, 1e-3, 1.0, 6.31, 1e308, math.nan, -0.0]
# (alpha, tau): thresholds below, at and an ulp either side of 1, above it,
# and the alpha = 100, tau = 30 dB pair whose quadrature fails at 6.31
_PAIRS = [(2.5, 0.1), (3.0, 1.0), (4.0, 10.0), (4.0, 1.0 - 2.0**-53),
          (4.0, 1.0 + 2.0**-52), (100.0, 1000.0)]
_QUICK_PAIRS = [(3.0, 1.0), (100.0, 1000.0)]
_BRACKETS = [(1e-4, 10.0), (1e-320, 1e-300), (1e-8, 1e3), (1e300, 1e307)]
_QUICK_BRACKETS = [(1e-4, 10.0), (1e300, 1e307)]


def _failure(err: Exception) -> str:
    """`type: message` on one line."""
    return f"{type(err).__name__}: {err}".replace("\n", "\\n")


def _value(fn, *args):
    """fn(*args) as hex, or the failure as `type: message`."""
    try:
        return float(fn(*args)).hex()
    except Exception as err:  # a failure is a record, whatever its type
        return _failure(err)


def _array(out, key, fn, *args):
    """One record per entry of fn(*args), or one failure record."""
    try:
        vals = np.asarray(fn(*args), dtype=float).ravel().tolist()
    except Exception as err:
        out.append((key, _failure(err)))
        return
    out.extend((f"{key}[{i}]", v.hex()) for i, v in enumerate(vals))


def _specfun(out, quick):
    from densecov import specfun

    rng = np.random.default_rng(20)
    # the series' short-loop cut, written out so that any tree can be recorded
    cut = 2.0**-16
    fixed = [0.0, 2.0**-53, math.nextafter(cut, 0.0), cut, math.nextafter(cut, 1.0)]
    tops = [0.5, 0.2] if quick else [0.5, 0.3, 0.25, 0.2, 0.15, 0.13, 1 / 11, 1e-3]
    cs = [1.5] if quick else [1.0, 1.2, 1.5, 1.9, 2.0]
    for top in tops:
        for c in cs:
            w = 10.0 ** rng.uniform(-17.0, math.log10(top), 8 if quick else 60)
            w = np.concatenate([np.minimum(w, top), fixed, [top]])
            rng.shuffle(w)
            _array(out, f"hyf_series(c={c!r}, top={top!r})", specfun.hyf_series, w, c)
    for w, c in [([0.25, 0.75], 1.5), ([0.25], 0.5), ([math.nan], 1.5)]:
        out.append((f"hyf_series({w!r}, {c!r})", _value(specfun.hyf_series, np.array(w), c)))

    ys = np.concatenate([[0.0, 1.0 - 1e-6, 1.0, 1.0 + 1e-6],
                         np.geomspace(1e-8, 1e8, 9 if quick else 65)])
    for alpha in ([4.0] if quick else [2.5, 3.0, 4.0, 30.0]):
        for b in specfun.hyf_shapes(alpha):
            _array(out, f"hyf(b={b!r})", specfun.hyf, ys, b)

    xs = np.concatenate([np.linspace(-6.0, 2.0, 8 if quick else 80, endpoint=False),
                         np.geomspace(2.0, 1e300, 9 if quick else 121)])
    for x in xs.tolist():
        out.append((f"erfcx({x.hex()})", _value(specfun.erfcx, x)))
        if x >= 2.0:
            out.append((f"erfc_cf_tail({x.hex()})", _value(specfun.erfc_cf_tail, x)))
    for x in (-27.0, math.inf):
        out.append((f"erfcx({x!r})", _value(specfun.erfcx, x)))
    for x in (1.999, math.nan):
        out.append((f"erfc_cf_tail({x!r})", _value(specfun.erfc_cf_tail, x)))


def _exponent(out, quick):
    from densecov import analytic

    def exponent(x, lam, alpha, tau):
        # as the quadrature calls it: an exponent that overflows is +inf
        with np.errstate(over="ignore"):
            return analytic._exponent_g2(x, lam, alpha, tau)

    spread = np.geomspace(1e-6, 1e3, 40 if quick else 200)
    overflow = np.array([0.5, 2.0, 1e3, 1e5, 1e80, 1e100])
    cases = [
        ("tau<1 mixed", 4.0, 0.5, spread),
        ("tau<1 mixed", 2.5, 0.1, spread),
        ("tau=1", 4.0, 1.0, spread),
        ("tau=1", 100.0, 1.0, overflow),
        ("tau=1-ulp", 4.0, 1.0 - 2.0**-53, np.geomspace(1e-6, 1e80, 60)),
        ("tau=1+ulp", 4.0, 1.0 + 2.0**-52, np.geomspace(1e-6, 1e80, 60)),
        ("tau>1", 4.0, 10.0, spread),
        ("x^alpha overflow", 100.0, 10.0, overflow),
        ("x^alpha overflow", 4.0, 0.1, overflow),
        ("x>2^480", 4.0, 10.0, np.array([1.0, 2.0**481, 1e150])),
        ("x>2^480", 4.0, 0.5, np.array([0.3, 2.0**480, 2.0**481, 1e200])),
    ]
    for name, alpha, tau, x in (cases[::3] if quick else cases):
        _array(out, f"_exponent_g2 {name} (alpha={alpha!r}, tau={tau!r}, lam=0.3)",
               exponent, x, 0.3, alpha, tau)
    # the quadrature's own nodes, where the g2 coverage evaluates it
    v = analytic._origin_panel_rule(24 if quick else 48)[0]
    for alpha, tau in ([(3.0, 1.0)] if quick else [(3.0, 1.0), (4.0, 1.0), (2.5, 0.1), (4.0, 10.0)]):
        for lam in ([0.1] if quick else [1e-6, 0.1, 3.0]):
            _array(out, f"_exponent_g2 nodes={v.size} (alpha={alpha!r}, tau={tau!r}, lam={lam!r})",
                   exponent, v / math.sqrt(math.pi * lam), lam, alpha, tau)


def _coverage(out, quick):
    from densecov import NetworkConfig, PathlossModel, analytic

    pairs = _QUICK_PAIRS if quick else _PAIRS
    for alpha, tau in pairs:
        for lam in (_QUICK_DENSITIES if quick else _DENSITIES):
            for route in (analytic.cp_g2, analytic.cp_g1_quadrature):
                out.append((f"{route.__name__}(lam={lam!r}, alpha={alpha!r}, tau={tau!r})",
                            _value(lambda: route(NetworkConfig(lam, alpha, tau)).raw)))
    for alpha, tau in pairs:
        for bracket in (_QUICK_BRACKETS if quick else _BRACKETS):
            for model in (PathlossModel.BOUNDED_G1, PathlossModel.BOUNDED_G2):
                out.append((f"optimal_density_numeric({model.value}, alpha={alpha!r}, "
                            f"tau={tau!r}, bracket={bracket!r})",
                            _value(analytic.optimal_density_numeric,
                                   NetworkConfig(1.0, alpha, tau), model, bracket)))


def _dispatch() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    on = [g for g in __cpu_dispatch__ if __cpu_features__.get(g)]
    return f"numpy {np.__version__}, dispatch {' '.join(on) or 'baseline'}"


def records(quick: bool = False) -> list[tuple[str, str]]:
    """The record of the densecov that imports first on sys.path."""
    out: list[tuple[str, str]] = []
    # a warning is recorded as the call's failure, so that one a change
    # starts or stops giving shows as a differing record
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _specfun(out, quick)
        _exponent(out, quick)
        _coverage(out, quick)
    return out


def ulp_distance(a: float, b: float) -> int:
    """Count of floats from a to b; 0 and -0 are 0 apart."""
    def ordinal(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)
    return abs(ordinal(a) - ordinal(b))


def _as_float(value):
    """The float a record value holds, or None for a failure."""
    try:
        return float.fromhex(value)
    except (TypeError, ValueError):
        return None


def differences(parent: dict, change: dict) -> list[str]:
    """One line per key whose values differ or that one record lacks."""
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        a, b = parent.get(key), change.get(key)
        if a == b:
            continue
        fa, fb = _as_float(a), _as_float(b)
        if fa is None or fb is None or math.isnan(fa) or math.isnan(fb):
            dist = "not both numbers"
        else:
            dist = f"{ulp_distance(fa, fb)} ulp"
        lines.append(f"{key}: parent {a} change {b} ({dist})")
    return lines


def _run_tree(tree: Path, quick: bool) -> tuple[str, dict]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--tree", str(tree)]
    proc = subprocess.run(argv + ["--quick"] * quick, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"record of {tree} failed:\n{proc.stderr}")
    header, *lines = proc.stdout.splitlines()
    return header, dict(line.split("\t", 1) for line in lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=ROOT,
                    help="tree whose src/densecov is recorded (default: this script's)")
    ap.add_argument("--compare", type=Path, metavar="PARENT_TREE",
                    help="compare the record of PARENT_TREE with that of --tree")
    ap.add_argument("--quick", action="store_true", help="a small slice of every part")
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    if args.compare is not None:
        head_p, parent = _run_tree(args.compare.resolve(), args.quick)
        head_c, change = _run_tree(tree, args.quick)
        lines = differences(parent, change)
        print("\n".join(lines + [f"{len(change)} records, {len(lines)} differ "
                                 f"(parent: {head_p}; change: {head_c})"]))
        return 1 if lines else 0
    sys.path.insert(0, str(tree / "src"))
    import densecov
    if Path(densecov.__file__).resolve().parents[1] != tree / "src":
        raise SystemExit(f"densecov imports from {densecov.__file__}, not {tree / 'src'}")
    print(_dispatch())
    for key, value in records(args.quick):
        print(f"{key}\t{value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
