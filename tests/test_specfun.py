import itertools
import math
import re
import sys

import mpmath
import numpy as np
import pytest

from densecov import specfun
from densecov.specfun import erfcx, f1, f2, f3, hyf, hyf_shapes

from oracles import (erfc_cf_tail_reference, erfc_defining_integral, euler_integral,
                     hyf_series_reference)

# frozen from the defining-integral oracle (40-digit evaluation)
ERFC_AT_1 = 0.15729920705028513066


class TestErfc:
    """erfc is the standard library's; these pin the scaled erfcx built on it."""

    def test_at_zero(self):
        assert erfcx(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_reflection_identity(self):
        # erfc(-x) = 2 - erfc(x), scaled by exp(x^2)
        assert erfcx(-0.7) == pytest.approx(2.0 * math.exp(0.49) - erfcx(0.7), rel=1e-15)

    def test_frozen_value_at_one(self):
        assert erfcx(1.0) == pytest.approx(math.e * ERFC_AT_1, rel=1e-12)
        assert erfcx(1.0) == pytest.approx(math.e * erfc_defining_integral(1.0), rel=1e-12)

    @pytest.mark.parametrize("x", np.linspace(-6.0, 6.0, 25).tolist() + [1.999, 2.001])
    def test_oracle_grid(self, x):
        ref = math.exp(x * x) * erfc_defining_integral(x)
        assert abs(erfcx(x) - ref) <= 1e-12 * abs(ref)

    def test_monotone_decreasing_with_range(self):
        xs = np.linspace(-6.0, 6.0, 200)
        vals = np.array([erfcx(x) for x in xs])
        assert np.all(np.diff(vals) < 0.0)
        assert np.all((vals > 0.0) & (vals <= 2.0 * math.exp(36.0)))

    def test_rejects_non_finite(self):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                erfcx(x)

    def test_against_mpmath_to_1e14(self):
        # the tolerance was fixed before the first run
        xs = np.concatenate([np.linspace(-6.0, 6.0, 1201), np.geomspace(6.0, 1e6, 1200)])
        with mpmath.workdps(40):
            for x in xs.tolist():
                ref = mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(x)
                assert abs(erfcx(x) - ref) <= 1e-14 * ref, x

    def test_short_fraction_at_large_arguments(self):
        # modified Lentz run on to 1e8 erred by 2.4e-14 at the first point
        # and never converged at the second
        xs = [94856239.23749843, 94914502.9487306] + np.geomspace(1e4, 1e9, 400).tolist()
        with mpmath.workdps(40):
            for x in xs:
                ref = mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(x)
                assert abs(erfcx(x) - ref) <= 1e-15 * ref, x

    def test_fraction_tail_against_mpmath_to_4e16(self):
        # t = f - x of the fraction, which the g1 coverage reads as 1 - q =
        # t/(x + t); forming it as f - x would lose about 2 x^2 ulps.  The
        # depth of 64 reaches 1.6e-16 here, and a depth of 56 9.6e-16
        xs = np.concatenate([np.linspace(2.0, 6.0, 401), np.geomspace(6.0, 1e9, 800)])
        with mpmath.workdps(40):
            for x in xs.tolist():
                ref = 1 / (mpmath.sqrt(mpmath.pi) * mpmath.exp(mpmath.mpf(x) ** 2)
                           * mpmath.erfc(x)) - x
                assert abs(specfun.erfc_cf_tail(x) - ref) <= 4e-16 * ref, x

    def test_fraction_tail_keeps_the_bits_of_the_plain_loop(self):
        # the numerators 0.5 * k are exact, so taking them from a table moves
        # no bit: 40 002 arguments, dense near the switch and log-spaced to
        # 1e300, hex-equal to the loop that forms each in its step
        xs = np.concatenate([np.linspace(2.0, 6.0, 20001), np.geomspace(6.0, 1e300, 20001)])
        for x in xs.tolist():
            assert specfun.erfc_cf_tail(x).hex() == erfc_cf_tail_reference(x).hex(), x

    @pytest.mark.parametrize("x", [1.999, 0.0, -3.0, math.nan])
    def test_fraction_tail_refuses_arguments_below_the_switch(self, x):
        # the depth is sized for x >= 2
        with pytest.raises(ValueError, match="x >= 2"):
            specfun.erfc_cf_tail(x)

    def test_overflow_is_one_error_naming_x(self):
        # erfcx(x) ~ 2 exp(x^2) leaves the float range between -26.62 and -26.635
        with mpmath.workdps(40):
            ref = mpmath.exp(mpmath.mpf(-26.62) ** 2) * mpmath.erfc(-26.62)
        assert abs(erfcx(-26.62) - ref) <= 1e-12 * ref
        for x in (-26.635, -27.0, -1e3):
            with pytest.raises(OverflowError, match=re.escape(f"x={x:g}")):
                erfcx(x)

    def test_erfcx_matches_definition_and_survives_large_arguments(self):
        for x in [0.0, 0.5, 1.5, 3.0, 8.0]:
            assert erfcx(x) == pytest.approx(math.exp(x * x) * math.erfc(x), rel=1e-12)
        big = erfcx(66.0)  # plain erfc underflows far before this
        assert big == pytest.approx(1.0 / (66.0 * math.sqrt(math.pi)), rel=1e-3)
        # past 1e8 the continued fraction is x itself to double precision
        for x in (1e8, 1557384392.2667587, 3761445932.6244283, 6.49e149):
            assert erfcx(x) == pytest.approx(1.0 / (x * math.sqrt(math.pi)), rel=1e-15)


    @pytest.mark.parametrize("x", [1.0142e308, 1.5e308, sys.float_info.max])
    def test_subnormal_results_at_the_top_of_the_range(self, x):
        # sqrt(pi) x overflows from about 1.0142e308, where erfcx is a
        # subnormal; mpmath's erfc does not reach these arguments, and the
        # asymptotic series (1 - 1/(2 x^2) + ...)/(sqrt(pi) x) drops terms
        # far below half the subnormal spacing, 2^-1075
        with mpmath.workdps(40):
            big = mpmath.mpf(x)
            ref = (1 - 1 / (2 * big**2)) / (mpmath.sqrt(mpmath.pi) * big)
            assert abs(erfcx(x) - ref) <= mpmath.mpf(2) ** -1075, x


class TestHypergeometric:
    # delta = 2/alpha; the two shapes are b1 = 1 - delta and b2 = 1 - delta/2
    @pytest.mark.parametrize("delta", [0.25, 0.5, 0.75])
    def test_value_one_at_zero(self, delta):
        assert hyf(0.0, 1.0 - delta) == pytest.approx(1.0, abs=1e-14)
        assert hyf(0.0, 1.0 - 0.5 * delta) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("x", [0.5, 2.0, 10.0, 50.0])
    def test_closed_form_at_half_delta(self, x):
        # 2F1(1, 1/2; 3/2; -x) = arctan(sqrt(x))/sqrt(x)
        assert abs(hyf(x, 0.5) - math.atan(math.sqrt(x)) / math.sqrt(x)) <= 1e-10

    def test_frozen_euler_oracle_points(self):
        # b = 1/3 at x = 3 and b = 3/4 at x = 10
        assert hyf(3.0, 1.0 / 3.0) == pytest.approx(0.69022942448947834, rel=1e-10)
        assert hyf(10.0, 0.75) == pytest.approx(0.29823965445253438, rel=1e-10)
        assert hyf(3.0, 1.0 / 3.0) == pytest.approx(euler_integral(3.0, 1.0 / 3.0), rel=1e-9)
        assert hyf(10.0, 0.75) == pytest.approx(euler_integral(10.0, 0.75), rel=1e-9)

    @pytest.mark.parametrize("alpha", [3.0, 4.0, 5.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0, 1e4])
    def test_oracle_equivalence_grid(self, alpha, x):
        for b in hyf_shapes(alpha):
            ref = euler_integral(x, b)
            assert abs(hyf(x, b) - ref) <= 1e-8 * abs(ref)

    @pytest.mark.parametrize("alpha", [2.5, 4.0, 6.0])
    def test_extreme_argument_accuracy(self, alpha):
        b1 = hyf_shapes(alpha)[0]
        ref = euler_integral(1e6, b1)
        assert abs(hyf(1e6, b1) - ref) <= 1e-9 * abs(ref)

    def test_series_branches_match_oracle_across_the_seam(self):
        # y <= 1 and y > 1 take different series; both must match the Euler
        # integral at the seam y = 1, at its ends, and far from it
        ys = [0.0, 1.0 - 1e-6, 1.0, 1.0 + 1e-6] + np.geomspace(1e-8, 1e8, 33).tolist()
        for b in [0.2, 1.0 / 3.0, 0.5, 0.75, 0.9, 0.98, 0.995]:
            refs = np.array([euler_integral(y, b) for y in ys])
            vals = hyf(np.array(ys), b)
            assert np.all(np.abs(vals - refs) <= 1e-12 * refs), b

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            hyf(-0.1, 0.5)
        with pytest.raises(ValueError):
            hyf(np.array([1.0, -2.0]), 0.75)
        with pytest.raises(ValueError):
            specfun.hyf_series(np.array([0.25, 0.75]), 1.5)

    def test_params_validation(self):
        for b in (1.2, 1.0, 0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="shape b"):
                hyf(1.0, b)
        for alpha in (2.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                hyf_shapes(alpha)
        # the series' stop rule needs each term ratio w (k+1)/(c+k) to be at
        # most 1/2, which c >= 1 guarantees; c = 0 would divide by zero
        for c, w in itertools.product((0.0, 0.5, 1.0 - 2.0**-53, -1.0, math.nan, -math.inf),
                                      (np.array([0.25]), np.array([]))):
            with pytest.raises(ValueError, match="parameter c must be at least 1, got"):
                specfun.hyf_series(w, c)
        # past about 1.8e16, 1 - 1/alpha is 1 in double precision
        with pytest.raises(FloatingPointError, match="alpha=1e\\+17"):
            hyf_shapes(1e17)

    def test_shapes_keep_the_bits_of_delta(self):
        # b2 = 1 - 1/alpha equals the former 1 - 0.5 * (2/alpha) exactly,
        # since halving and doubling are exact in binary
        for alpha in np.geomspace(2.0 + 1e-12, 1e15, 500).tolist() + [2.5, 3.7, 4.0]:
            assert hyf_shapes(alpha) == (1.0 - 2.0 / alpha, 1.0 - 0.5 * (2.0 / alpha))


class TestSeriesParity:
    """hyf_series takes its term count from the largest argument and, where
    that count passes 18, sums the arguments below 2^-16 in a short loop of
    their own, so that no term is a subnormal float; the sums must equal,
    bit for bit, those of the loop that checks every term."""

    @pytest.mark.parametrize("top", [0.5, 0.1, 1e-3])
    def test_random_arguments_with_a_pinned_maximum(self, top):
        rng = np.random.default_rng(int(1e3 * top))
        for _ in range(100):
            w = rng.uniform(0.0, top, int(rng.integers(1, 300)))
            w[rng.integers(w.size)] = top
            c = float(rng.uniform(1.0, 2.0))
            assert np.array_equal(specfun.hyf_series(w, c), hyf_series_reference(w, c))

    @pytest.mark.parametrize("top", [0.5, 0.25, 1e-3, 0.0])
    def test_private_loop_with_a_supplied_maximum(self, top):
        # the g2 exponent hands the loop its arguments' exact maximum in
        # place of hyf_series' two checking reductions; the loop only reads w
        rng = np.random.default_rng(int(1e4 * top) + 7)
        for _ in range(100):
            w = rng.uniform(0.0, top, int(rng.integers(1, 300)))
            w[rng.integers(w.size)] = top
            w.flags.writeable = False
            c = float(rng.uniform(1.0, 2.0))
            got = specfun._hyf_series(w, c, top)
            assert got.tobytes() == hyf_series_reference(w, c).tobytes()
            assert got.tobytes() == specfun.hyf_series(w, c).tobytes()

    @pytest.mark.parametrize("top", [0.5, 0.3, 0.2, 0.15])
    def test_log_uniform_arguments_reach_the_short_loop(self, top):
        # uniform draws almost never fall below the cut of 2^-16; these
        # spread over 17 decades, shuffled with 0, 2^-53, the floats either
        # side of the cut and the pinned maximum, so that both loops run in
        # any order of their arguments
        rng = np.random.default_rng(int(100 * top) + 16)
        cut = specfun._SHORT_CUT
        fixed = [0.0, 2.0**-53, math.nextafter(cut, 0.0), cut, math.nextafter(cut, 1.0), top]
        for _ in range(100):
            w = 10.0 ** rng.uniform(-17.0, math.log10(top), int(rng.integers(1, 300)))
            w = np.concatenate([np.minimum(w, top), fixed])
            rng.shuffle(w)
            w.flags.writeable = False
            c = float(rng.uniform(1.0, 2.0))
            ref = hyf_series_reference(w, c).tobytes()
            assert specfun.hyf_series(w, c).tobytes() == ref
            assert specfun._hyf_series(w, c, top).tobytes() == ref

    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("top", [0.5, 0.3, 0.25, 0.2, 0.15])
    def test_no_term_is_subnormal(self, top, c):
        # from top = 0.2 on, one loop over both arguments would run 21 terms
        # or more, and take 2^-53 below 2^-1022 by its 20th
        with np.errstate(under="raise"):
            got = specfun.hyf_series(np.array([2.0**-53, top]), c)
        assert got.tobytes() == hyf_series_reference(np.array([2.0**-53, top]), c).tobytes()

    @pytest.mark.parametrize("c", [1.0, 1.2, 1.5, 1.9, 2.0])
    @pytest.mark.parametrize("w", [np.zeros(7), np.array([]), np.array([0.5]),
                                   np.array([0.3]), np.array([1e-300]),
                                   np.float64(0.25)],
                             ids=["zeros", "empty", "half", "one", "tiny", "scalar"])
    def test_edge_arguments(self, w, c):
        got, ref = specfun.hyf_series(w, c), hyf_series_reference(w, c)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("w", [[0.1, -1e-300], [0.5000000000000001], [0.2, math.nan],
                                   [math.nan], [math.inf]])
    def test_out_of_range_raises_as_before(self, w):
        for fn in (specfun.hyf_series, hyf_series_reference):
            with pytest.raises(ValueError, match="series argument"):
                fn(np.array(w), 1.5)


class TestFloat32Parameters:
    """NumPy 2 keeps float32 where a float32 scalar meets a Python float, so
    each public call converts its parameters and computes in double."""

    A32 = np.float32(4.1)

    @pytest.mark.parametrize("fn", [f1, f2, f3])
    def test_functionals_compute_in_double(self, fn):
        got = fn(0.5, self.A32)
        assert type(got) is float
        assert got == fn(0.5, float(self.A32))
        x = np.array([0.0, 0.5, 2.0, 1e4])
        arr = fn(x, self.A32)
        assert arr.dtype == np.float64
        assert arr.tobytes() == fn(x, float(self.A32)).tobytes()

    def test_shapes_are_python_floats(self):
        got = hyf_shapes(self.A32)
        assert all(type(b) is float for b in got)
        assert got == hyf_shapes(float(self.A32))

    def test_hypergeometric_parameters(self):
        b = np.float32(0.3)
        assert hyf(0.5, b) == hyf(0.5, float(b))
        assert type(hyf(0.5, b)) is float
        w = np.array([0.0, 1e-9, 0.25, 0.5])
        c = np.float32(1.3)
        assert specfun.hyf_series(w, c).tobytes() == specfun.hyf_series(w, float(c)).tobytes()


class TestMonotoneFunctionals:
    GRID = np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 199)])

    @pytest.mark.parametrize("alpha", [3.0, 4.0, 5.0])
    def test_f1_f2_strictly_decreasing(self, alpha):
        v1 = f1(self.GRID, alpha)
        v2 = f2(self.GRID, alpha)
        assert np.all(np.diff(v1) < 0.0)
        assert np.all(np.diff(v2) < 0.0)

    @pytest.mark.parametrize("alpha", [3.0, 4.0, 5.0])
    def test_family_ordering_and_bounds(self, alpha):
        b1, b2 = hyf_shapes(alpha)
        x = np.geomspace(1e-3, 100.0, 200)
        h1 = hyf(x, b1)
        h2 = hyf(x, b2)
        assert np.all((0.0 < h2) & (h2 < h1) & (h1 < 1.0))

    @pytest.mark.parametrize("alpha", [3.0, 4.0, 5.0])
    def test_ratio_decreasing_from_one(self, alpha):
        assert f3(0.0, alpha) == pytest.approx(1.0, abs=1e-14)
        vals = f3(self.GRID, alpha)
        assert np.all(np.diff(vals) < 0.0)

    @pytest.mark.parametrize("fn", [f1, f2, f3])
    @pytest.mark.parametrize("seq", [list, tuple])
    def test_sequences_read_as_arrays(self, fn, seq):
        x = [0.1, 1.0, 10.0]
        got = fn(seq(x), 4.0)
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, fn(np.array(x), 4.0))

    def test_f2_at_zero_alpha_four(self):
        # both families equal 1 at x = 0, so the value is 1/2 - 1/3
        assert f2(0.0, 4.0) == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f1(-1.0, 4.0)
        with pytest.raises(ValueError):
            f2(1.0, 2.0)
