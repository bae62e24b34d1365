import math

import numpy as np
import pytest

from densecov import specfun
from densecov.specfun import HypParams, erfc, erfcx, f1, f2, f3, hyf1, hyf2

from oracles import erfc_defining_integral, euler_integral, hyf_series_reference

# frozen from the defining-integral oracle (40-digit evaluation)
ERFC_AT_1 = 0.15729920705028513066


class TestErfc:
    def test_at_zero(self):
        assert erfc(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_reflection_identity(self):
        assert erfc(-0.7) == pytest.approx(2.0 - erfc(0.7), abs=1e-15)

    def test_frozen_value_at_one(self):
        assert erfc(1.0) == pytest.approx(ERFC_AT_1, abs=1e-10)
        assert erfc(1.0) == pytest.approx(erfc_defining_integral(1.0), abs=1e-10)

    @pytest.mark.parametrize("x", np.linspace(-6.0, 6.0, 25).tolist() + [1.999, 2.001])
    def test_oracle_grid(self, x):
        ref = erfc_defining_integral(x)
        assert abs(erfc(x) - ref) <= 1e-12 * abs(ref)

    def test_monotone_decreasing_with_range(self):
        xs = np.linspace(-6.0, 6.0, 200)
        vals = np.array([erfc(x) for x in xs])
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all((vals > 0.0) & (vals <= 2.0))
        # strictly decreasing wherever the complement is resolvable in floats
        # (below x ~ -5.3 the value rounds to exactly 2)
        inner = np.linspace(-5.0, 6.0, 200)
        ivals = np.array([erfc(x) for x in inner])
        assert np.all(np.diff(ivals) < 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            erfc(math.inf)

    def test_erfcx_matches_definition_and_survives_large_arguments(self):
        for x in [0.0, 0.5, 1.5, 3.0, 8.0]:
            assert erfcx(x) == pytest.approx(math.exp(x * x) * erfc(x), rel=1e-12)
        big = erfcx(66.0)  # plain erfc underflows far before this
        assert big == pytest.approx(1.0 / (66.0 * math.sqrt(math.pi)), rel=1e-3)
        # past 1e8 the continued fraction is x itself to double precision
        for x in (1e8, 1557384392.2667587, 3761445932.6244283, 6.49e149):
            assert erfcx(x) == pytest.approx(1.0 / (x * math.sqrt(math.pi)), rel=1e-15)


class TestHypergeometric:
    @pytest.mark.parametrize("delta", [0.25, 0.5, 0.75])
    def test_value_one_at_zero(self, delta):
        p = HypParams(delta)
        assert hyf1(0.0, p) == pytest.approx(1.0, abs=1e-14)
        assert hyf2(0.0, p) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("x", [0.5, 2.0, 10.0, 50.0])
    def test_closed_form_at_half_delta(self, x):
        # 2F1(1, 1/2; 3/2; -x) = arctan(sqrt(x))/sqrt(x)
        assert abs(hyf1(x, HypParams(0.5)) - math.atan(math.sqrt(x)) / math.sqrt(x)) <= 1e-10

    def test_frozen_euler_oracle_points(self):
        # b = 1/3 (delta = 2/3) at x = 3 and b = 3/4 (delta = 1/2) at x = 10
        assert hyf1(3.0, HypParams(2.0 / 3.0)) == pytest.approx(0.69022942448947834, rel=1e-10)
        assert hyf2(10.0, HypParams(0.5)) == pytest.approx(0.29823965445253438, rel=1e-10)
        assert hyf1(3.0, HypParams(2.0 / 3.0)) == pytest.approx(
            euler_integral(3.0, 1.0 / 3.0), rel=1e-9)
        assert hyf2(10.0, HypParams(0.5)) == pytest.approx(
            euler_integral(10.0, 0.75), rel=1e-9)

    @pytest.mark.parametrize("alpha", [3.0, 4.0, 5.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0, 1e4])
    def test_oracle_equivalence_grid(self, alpha, x):
        p = HypParams.from_alpha(alpha)
        for fn, b in ((hyf1, 1.0 - p.delta), (hyf2, 1.0 - 0.5 * p.delta)):
            ref = euler_integral(x, b)
            assert abs(fn(x, p) - ref) <= 1e-8 * abs(ref)

    @pytest.mark.parametrize("alpha", [2.5, 4.0, 6.0])
    def test_extreme_argument_accuracy(self, alpha):
        p = HypParams.from_alpha(alpha)
        ref = euler_integral(1e6, 1.0 - p.delta)
        assert abs(hyf1(1e6, p) - ref) <= 1e-9 * abs(ref)

    def test_series_branches_match_oracle_across_the_seam(self):
        # y <= 1 and y > 1 take different series; both must match the Euler
        # integral at the seam y = 1, at its ends, and far from it
        ys = [0.0, 1.0 - 1e-6, 1.0, 1.0 + 1e-6] + np.geomspace(1e-8, 1e8, 33).tolist()
        for b in [0.2, 1.0 / 3.0, 0.5, 0.75, 0.9, 0.98, 0.995]:
            refs = np.array([euler_integral(y, b) for y in ys])
            fams = [hyf1(np.array(ys), HypParams(1.0 - b))]
            if b > 0.5:
                fams.append(hyf2(np.array(ys), HypParams(2.0 * (1.0 - b))))
            for vals in fams:
                assert np.all(np.abs(vals - refs) <= 1e-12 * refs), b

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            hyf1(-0.1, HypParams(0.5))
        with pytest.raises(ValueError):
            hyf2(np.array([1.0, -2.0]), HypParams(0.5))
        with pytest.raises(ValueError):
            specfun.hyf_series(np.array([0.25, 0.75]), 1.5)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HypParams(1.2)
        with pytest.raises(ValueError):
            HypParams(0.0)
        with pytest.raises(ValueError):
            HypParams.from_alpha(2.0)


class TestSeriesParity:
    """hyf_series takes its term count from the largest argument; the sums
    must equal, bit for bit, those of the loop that checks every term."""

    @pytest.mark.parametrize("top", [0.5, 0.1, 1e-3])
    def test_random_arguments_with_a_pinned_maximum(self, top):
        rng = np.random.default_rng(int(1e3 * top))
        for _ in range(100):
            w = rng.uniform(0.0, top, int(rng.integers(1, 300)))
            w[rng.integers(w.size)] = top
            c = float(rng.uniform(1.0, 2.0))
            assert np.array_equal(specfun.hyf_series(w, c), hyf_series_reference(w, c))

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
        p = HypParams.from_alpha(alpha)
        x = np.geomspace(1e-3, 100.0, 200)
        h1 = hyf1(x, p)
        h2 = hyf2(x, p)
        assert np.all((0.0 < h2) & (h2 < h1) & (h1 < 1.0))

    @pytest.mark.parametrize("alpha", [3.0, 4.0, 5.0])
    def test_ratio_decreasing_from_one(self, alpha):
        assert f3(0.0, alpha) == pytest.approx(1.0, abs=1e-14)
        vals = f3(self.GRID, alpha)
        assert np.all(np.diff(vals) < 0.0)

    def test_f2_at_zero_alpha_four(self):
        # both families equal 1 at x = 0, so the value is 1/2 - 1/3
        assert f2(0.0, 4.0) == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f1(-1.0, 4.0)
        with pytest.raises(ValueError):
            f2(1.0, 2.0)
