import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from densecov import specfun
from densecov.model import (
    NetworkConfig,
    PathlossModel,
    _derived_constants,
    _gain,
    derived_constants,
    pathloss_gain,
)

from oracles import euler_integral, gain_distance_form

# frozen from 40-digit evaluations of the defining hypergeometric identities
C1_A4_T10 = 3.9987600505576614
C2_A4_T10 = 1.9882643630168959
CHAT_A4_T10 = 2.0104956875407655
KAPPA_UPPER_A4_T10 = 0.39475990512825183
KAPPA_LOWER_A4_T10 = 204.14119582639458


class TestPathlossGain:
    def test_bounded_g1_at_zero(self):
        assert pathloss_gain(PathlossModel.BOUNDED_G1, 4.0, 0.0) == pytest.approx(1.0)

    def test_bounded_g2_at_one(self):
        assert pathloss_gain(PathlossModel.BOUNDED_G2, 4.0, 1.0) == pytest.approx(0.5)

    def test_unbounded_amplifies_below_unit_distance(self):
        # gain 16 > 1: received power would exceed transmitted power
        assert pathloss_gain(PathlossModel.UNBOUNDED, 4.0, 0.5) == pytest.approx(16.0)

    def test_unbounded_singular_at_origin(self):
        with pytest.raises(ValueError):
            pathloss_gain(PathlossModel.UNBOUNDED, 4.0, 0.0)

    def test_min_bounded_piecewise(self):
        assert pathloss_gain(PathlossModel.MIN_BOUNDED, 4.0, 0.0) == 1.0
        assert pathloss_gain(PathlossModel.MIN_BOUNDED, 4.0, 0.5) == 1.0
        assert pathloss_gain(PathlossModel.MIN_BOUNDED, 4.0, 2.0) == pytest.approx(2.0**-4)

    @pytest.mark.parametrize("model", list(PathlossModel))
    def test_non_increasing_and_bounded(self, model):
        d = np.geomspace(1e-3, 1e3, 200)
        g = pathloss_gain(model, 4.0, d)
        assert np.all(np.diff(g) <= 0.0)
        if model is not PathlossModel.UNBOUNDED:
            assert np.all(g <= 1.0)

    @pytest.mark.parametrize("model", list(PathlossModel))
    @pytest.mark.parametrize("seq", [list, tuple])
    def test_sequences_read_as_arrays(self, model, seq):
        d = [0.5, 1.0, 2.0]
        g = pathloss_gain(model, 4.0, seq(d))
        assert isinstance(g, np.ndarray)
        assert np.array_equal(g, pathloss_gain(model, 4.0, np.array(d)))

    @pytest.mark.parametrize("model", [PathlossModel.BOUNDED_G1,
                                       PathlossModel.BOUNDED_G2,
                                       PathlossModel.MIN_BOUNDED])
    def test_bounded_models_continuous(self, model):
        # spot-check continuity around the min-bounded kink at d = 1
        for d in (0.3, 1.0, 2.5):
            lo = pathloss_gain(model, 4.0, d * (1.0 - 1e-9))
            hi = pathloss_gain(model, 4.0, d * (1.0 + 1e-9))
            assert abs(hi - lo) < 1e-7

    @pytest.mark.parametrize("d", [0.5, 0.0])
    def test_refuses_a_tag_for_a_model(self, d):
        # the tag "g2" read as no law matched: 16 at d = 0.5 under d^-4, and
        # inf at d = 0, where the unbounded law's own refusal was skipped
        with pytest.raises(TypeError, match="model must be a PathlossModel, got 'g2'"):
            pathloss_gain("g2", 4.0, d)

    def test_from_tag(self):
        assert PathlossModel.from_tag("g2") is PathlossModel.BOUNDED_G2
        with pytest.raises(ValueError):
            PathlossModel.from_tag("bogus")

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(model=st.sampled_from(list(PathlossModel)), u=st.floats(-12.0, 4.0),
           d=st.one_of(st.just(0.0), st.just(math.nan), st.floats(1e-320, 1e308)),
           negative=st.booleans())
    # d^-alpha overflows here: inf, with no warning
    @example(model=PathlossModel.UNBOUNDED, u=math.log10(2.0), d=1e-100, negative=False)
    @example(model=PathlossModel.BOUNDED_G1, u=0.0, d=math.nan, negative=False)
    # alpha = 2 + 10^nan is NaN
    @example(model=PathlossModel.BOUNDED_G2, u=math.nan, d=1.0, negative=False)
    def test_every_distance_has_a_gain_or_a_value_error(self, model, u, d, negative):
        alpha = 2.0 + 10.0 ** u
        d = -d if negative else d
        # phrased so that NaN is refused
        refused = (not d >= 0.0 or not alpha > 2.0
                   or (model is PathlossModel.UNBOUNDED and d == 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in (d, np.array([d])):
                if refused:
                    with pytest.raises(ValueError):
                        pathloss_gain(model, alpha, arg)
                else:
                    g = pathloss_gain(model, alpha, arg)
                    assert np.all((0.0 <= g) & (g <= math.inf)), (g, alpha, d)


def _distances():
    """Log-uniform distances over [1e-320, 1e308] with 0, the band about
    d = 1 where the bounded laws bend, and the narrower band where d^-alpha
    is a normal float at alpha = 1e4."""
    rng = np.random.default_rng(2026)
    return np.concatenate([[0.0, 1.0, 1e-320, 1e308], 10.0 ** rng.uniform(-320.0, 308.0, 600),
                           rng.uniform(0.25, 4.0, 200), np.exp(rng.uniform(-0.1, 0.1, 200))])


def _gain_from_square(model, alpha, d):
    with np.errstate(over="ignore"):
        d2 = d * d
    return _gain(model, alpha, d2, np.empty_like(d2))


def _assert_matches_distance_form(model, alpha, d, gain=_gain_from_square):
    """gain(model, alpha, d), by default _gain(d*d), within (alpha + 4)
    half-ulps of the distance form, wherever both are normal floats."""
    got = gain(model, alpha, d)
    ref = np.array([gain_distance_form(model.value, alpha, x) for x in d])
    tiny = np.finfo(float).tiny
    normal = (tiny <= got) & (got < math.inf) & (tiny <= ref) & (ref < math.inf)
    assert normal.sum() >= 10
    err = np.abs(got[normal] - ref[normal]) / ref[normal]
    worst = int(np.argmax(err))
    assert err[worst] <= (alpha + 4.0) * 2.0**-53, (d[normal][worst], err[worst])


class TestGainFromSquaredDistance:
    """_gain reads every law from d^2; the oracle writes each law in d."""

    @pytest.mark.parametrize("model", list(PathlossModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("alpha", [2.0 + 1e-12, 2.000001, 2.5, 3.0, 4.0, 6.0, 10.0,
                                       100.0, 1e4])
    def test_matches_distance_form_to_alpha_plus_4_half_ulps(self, model, alpha):
        d = _distances()
        if model is PathlossModel.UNBOUNDED:
            # d = 0 is refused; where d*d is subnormal, see the next test
            d = d[d >= math.sqrt(np.finfo(float).tiny)]
        _assert_matches_distance_form(model, alpha, d)

    @pytest.mark.parametrize("alpha", [2.0 + 1e-12, 2.000001])
    def test_upm_from_a_subnormal_square(self, alpha):
        # d^-alpha is normal here only for alpha within about 1e-5 of 2;
        # pathloss_gain, which forms d*d itself, takes it from libm there
        d = np.geomspace(7.5e-155, 1.5e-154, 400)
        _assert_matches_distance_form(PathlossModel.UNBOUNDED, alpha, d, pathloss_gain)

    @pytest.mark.parametrize("alpha", [2.0 + 1e-12, 2.000001, 4.0])
    def test_upm_takes_subnormal_squares_from_libm_beside_normal_ones(self, alpha):
        # in one array, each subnormal d^2 reads libm's d2^(-a/2), inf where
        # that overflows, and each normal d^2 keeps the bits of _gain;
        # numpy's 1/(d^2)^(a/2) differs from libm at about half of the
        # squares of the previous test's band
        tiny = np.finfo(float).tiny
        d = np.sqrt(np.concatenate([[tiny, 1e-300], np.geomspace(7.5e-155, 1.5e-154, 16) ** 2,
                                    [5e-324, 1.0, 1e300]]))
        got = pathloss_gain(PathlossModel.UNBOUNDED, alpha, d)
        d2 = d * d
        is_normal = d2 >= tiny
        assert 0 < is_normal.sum() < d2.size and np.all(d2 > 0.0)
        normal = d2[is_normal]
        assert got[is_normal].tobytes() == _gain(PathlossModel.UNBOUNDED, alpha, normal,
                                                 np.empty_like(normal)).tobytes()
        expected = []
        for v in d2[~is_normal].tolist():
            try:
                expected.append(math.pow(v, -0.5 * alpha))
            except OverflowError:
                expected.append(math.inf)
        assert got[~is_normal].tolist() == expected
        assert math.inf in expected

    @pytest.mark.parametrize("alpha", [2.0 + 1e-12, 2.5, 3.0, 4.0, 6.0, 100.0, 1e4])
    def test_g1_is_the_distance_form_bit_for_bit(self, alpha):
        # sqrt(d*d) == d wherever d*d is normal, so (1 + d)^-alpha comes out
        # exactly as when it was computed from d
        rng = np.random.default_rng(7)
        d = 10.0 ** rng.uniform(-150.0, 150.0, 20_000)
        got = _gain(PathlossModel.BOUNDED_G1, alpha, d * d, np.empty_like(d))
        assert np.array_equal(got, np.power(1.0 + d, -alpha))


class TestNetworkConfig:
    def test_valid(self):
        cfg = NetworkConfig(lambda_bs=0.1, alpha=4.0, tau=10.0)
        assert cfg.p_bs == 100.0

    @pytest.mark.parametrize("kwargs,needle", [
        (dict(lambda_bs=0.0, alpha=4.0, tau=1.0), "lambda_bs"),
        (dict(lambda_bs=1.0, alpha=2.0, tau=1.0), "alpha"),
        (dict(lambda_bs=1.0, alpha=4.0, tau=0.0), "tau"),
        (dict(lambda_bs=1.0, alpha=4.0, tau=1.0, p_bs=-1.0), "p_bs"),
        (dict(lambda_bs=math.inf, alpha=4.0, tau=1.0), "lambda_bs"),
        (dict(lambda_bs=math.nan, alpha=4.0, tau=1.0), "lambda_bs"),
        (dict(lambda_bs=1.0, alpha=math.inf, tau=1.0), "alpha"),
        (dict(lambda_bs=1.0, alpha=math.nan, tau=1.0), "alpha"),
        (dict(lambda_bs=1.0, alpha=4.0, tau=math.inf), "tau"),
        (dict(lambda_bs=1.0, alpha=4.0, tau=math.nan), "tau"),
        (dict(lambda_bs=1.0, alpha=4.0, tau=1.0, p_bs=math.inf), "p_bs"),
        (dict(lambda_bs=1.0, alpha=4.0, tau=1.0, p_bs=math.nan), "p_bs"),
    ])
    def test_rejects_bad_fields(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            NetworkConfig(**kwargs)

    def test_numbers_are_stored_as_floats(self):
        cfg = NetworkConfig(np.float64(1e308), np.int64(4), np.float32(10.0), 100)
        assert cfg == NetworkConfig(1e308, 4.0, 10.0, 100.0)
        assert all(type(getattr(cfg, f.name)) is float for f in dataclasses.fields(cfg))
        # numpy would warn here; a float overflows to inf quietly
        assert cfg.lambda_bs * 10.0 == math.inf

    def test_string_fails_validation(self):
        with pytest.raises(TypeError):
            NetworkConfig("0.1", 4.0, 10.0)

    def test_immutable(self):
        cfg = NetworkConfig(0.1, 4.0, 10.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.tau = 1.0


class TestDerivedConstants:
    def test_frozen_reference_values(self):
        dc = derived_constants(4.0, 10.0)
        # c1 has the closed form 10 * arctan(sqrt(10))/sqrt(10) ~ 3.999
        assert dc.c1 == pytest.approx(10.0 * math.atan(math.sqrt(10.0)) / math.sqrt(10.0),
                                      rel=1e-12)
        assert dc.c1 == pytest.approx(C1_A4_T10, rel=1e-12)
        assert dc.c2 == pytest.approx(C2_A4_T10, rel=1e-12)
        assert dc.c_hat == pytest.approx(CHAT_A4_T10, rel=1e-12)
        assert dc.kappa_upper == pytest.approx(KAPPA_UPPER_A4_T10, rel=1e-12)
        # the lower envelope's rate pi (1 + 2^alpha c1) is not stored
        assert math.pi * (1.0 + 2.0**4 * dc.c1) == pytest.approx(KAPPA_LOWER_A4_T10, rel=1e-12)
        assert specfun.hyf_shapes(4.0) == (0.5, 0.75)

    def test_c2_against_euler_oracle(self):
        dc = derived_constants(4.0, 10.0)
        assert dc.c2 == pytest.approx(20.0 / 3.0 * euler_integral(10.0, 0.75), rel=1e-9)

    def test_vanish_with_threshold(self):
        dc = derived_constants(4.0, 1e-9)
        assert 0.0 < dc.c1 < 1e-8
        assert 0.0 < dc.c2 < 1e-8

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0, 100.0])
    def test_positivity_and_rate_ordering(self, alpha, tau):
        dc = derived_constants(alpha, tau)
        assert dc.c1 > 0.0 and dc.c2 > 0.0 and dc.c_hat > 0.0
        assert dc.kappa_upper < math.pi * (1.0 + 2.0**alpha * dc.c1)

    def test_deterministic(self):
        assert derived_constants(3.7, 5.0) == derived_constants(3.7, 5.0)
        # the cache hands out exactly what a fresh evaluation gives
        assert derived_constants(3.7, 5.0) == _derived_constants.__wrapped__(3.7, 5.0)
        assert derived_constants(4, 10) == _derived_constants.__wrapped__(4.0, 10.0)

    def test_crossed_constants_raise(self):
        # H_b's error grows with alpha, and at alpha = 1e9 both constants
        # come out negative, c2 below c1
        with pytest.raises(FloatingPointError, match=r"alpha=1e\+09, tau=10: c1=.*, c2="):
            derived_constants(1e9, 10.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            derived_constants(2.0, 1.0)
        with pytest.raises(ValueError):
            derived_constants(4.0, 0.0)

