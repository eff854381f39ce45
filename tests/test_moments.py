"""Tests for the moment-sequence generators and operators.

Derived expectations follow the independent oracles: closed-form Rayleigh
moments, quadrature-checked size-bias of the exponential law, and direct
gamma evaluations frozen as constants.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitlaw import (
    BesselParams,
    MomentSequence,
    exp_functional_moments,
    fkp_moments,
    fkp_quarter_closed_form,
    kappa,
    laplace_exponent,
    local_time_moments,
    mean_local_time_at_1,
    mittag_leffler_moments,
    scale,
    scaled_local_time_moments,
    tilt,
    tilted_moments,
    tilted_moments_beta_fraction,
)
from limitlaw import moments
from limitlaw.gammakit import log_gamma

SQRT_PI = math.sqrt(math.pi)

# E(T^s) for T the size-biased unit exponential, frozen from an adaptive
# quadrature of x^{s+1} e^{-x} over [0, 120] divided by the quadrature mean;
# the values agree with (s+1)! as they must.
TILTED_EXPONENTIAL_ORACLE = [
    1.0,
    2.0000000000000004,
    6.000000000000001,
    24.000000000000004,
    120.00000000000004,
    720.0000000000001,
    5040.000000000002,
]


def rayleigh_closed_form(s_max, sigma=1.0):
    """2^{s/2} Gamma(1 + s/2) scaled by sigma^s; the independent oracle for
    the a' = 1/2 limit law."""
    s = np.arange(s_max + 1)
    return sigma**s * 2.0 ** (s / 2.0) * np.array([math.gamma(1.0 + k / 2.0) for k in s])


def unit_scale_time(alpha):
    """t at which kappa equals 1 for p = 0."""
    return 0.5 * (math.gamma(1.0 - alpha) / math.gamma(1.0 + alpha)) ** (1.0 / alpha)


def rel_dev(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.max(np.abs(a - b) / np.maximum(np.abs(a), np.abs(b)))


class TestMomentSequence:
    def test_m0_must_be_one(self):
        with pytest.raises(ValueError):
            MomentSequence(np.array([2.0, 1.0]), "bad")

    @pytest.mark.parametrize("values", [np.array([]), np.ones((2, 2))])
    def test_values_must_be_a_non_empty_vector(self, values):
        with pytest.raises(ValueError, match="^values must be a non-empty 1-d array$"):
            MomentSequence(values, "bad")

    def test_entries_must_be_positive_finite(self):
        with pytest.raises(ValueError):
            MomentSequence(np.array([1.0, -1.0]), "bad")
        with pytest.raises(ValueError):
            MomentSequence(np.array([1.0, math.inf]), "bad")

    def test_immutable(self):
        # the values are a tuple of Python floats, copied from what is given
        seq = fkp_moments(0.5, 4)
        assert type(seq.values) is tuple
        assert {type(v) for v in seq.values} == {float}
        with pytest.raises(TypeError):
            seq.values[1] = 99.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            seq.values = (1.0, 99.0)
        given = np.array([1.0, 2.0])
        seq = MomentSequence(given, "copied")
        given[1] = 3.0
        assert seq.values == (1.0, 2.0)

    def test_log_convexity_of_point_mass(self):
        c = 2.5
        seq = MomentSequence(c ** np.arange(8.0), "point-mass")
        assert seq.is_log_convex()

    def test_log_convexity_rejects_non_moment_sequence(self):
        vals = np.array([1.0, 5.0, 5.0, 5.0])  # m1^2 > m0 m2
        seq = MomentSequence(vals, "not-moments")
        assert not seq.is_log_convex()


class TestBesselParams:
    def test_d_p_derivation(self):
        params = BesselParams.from_d_p(1.0, 0.0, t=2.0)
        assert (params.alpha, params.beta, params.t) == (0.5, 0.5, 2.0)
        assert (params.d, params.p) == (1.0, 0.0)

    # == on positive floats is bitwise equality: neither -0.0 nor NaN can occur
    @given(
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        beta=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        t=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_holds_alpha_and_beta_as_given(self, alpha, beta, t):
        params = BesselParams(alpha, beta, t)
        assert (params.alpha, params.beta, params.t) == (alpha, beta, t)
        assert (params.d, params.p) == (2.0 * (1.0 - alpha), 0.5 - alpha / (2.0 * beta))

    @given(
        d=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
        p=st.floats(max_value=0.5, exclude_max=True, allow_infinity=False),
    )
    def test_from_d_p_is_the_d_p_derivation(self, d, p):
        # one conversion: alpha = 1 - d/2 and beta = alpha / (1 - 2p)
        alpha = 1.0 - d / 2.0
        beta = alpha / (1.0 - 2.0 * p)
        if alpha < 1.0 and beta > 0.0:
            params = BesselParams.from_d_p(d, p)
            assert (params.alpha, params.beta) == (alpha, beta)
        else:  # d below 2^-53 rounds alpha to 1, a vast -p rounds beta to 0
            with pytest.raises(ValueError, match="^(alpha|beta) must"):
                BesselParams.from_d_p(d, p)

    @pytest.mark.parametrize(
        "d, p, message",
        [
            (0.0, 0.0, r"d must lie in \(0, 2\) so that alpha is in \(0, 1\), got 0.0"),
            (2.0, 0.0, r"d must lie in \(0, 2\) so that alpha is in \(0, 1\), got 2.0"),
            (1.0, 0.5, "p must be < 1/2, got 0.5"),
            (math.nan, 0.0, "d must be finite, got nan"),
            (1.0, -math.inf, "p must be finite, got -inf"),
        ],
    )
    def test_invalid_d_p(self, d, p, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BesselParams.from_d_p(d, p)

    def test_invalid_alpha_beta(self):
        with pytest.raises(ValueError):
            BesselParams(1.0, 0.5)
        with pytest.raises(ValueError):
            BesselParams(0.5, 0.0)


class TestFkpMoments:
    def test_first_moment_at_half(self):
        assert fkp_moments(0.5, 1)[1] == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-13)

    def test_second_moment_at_half(self):
        assert fkp_moments(0.5, 2)[2] == pytest.approx(2.0, rel=1e-13)

    def test_zeroth_is_one(self):
        assert fkp_moments(1.7, 3)[0] == 1.0

    def test_rayleigh_oracle(self):
        seq = fkp_moments(0.5, 20)
        assert rel_dev(seq.values, rayleigh_closed_form(20)) <= 1e-11

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fkp_moments(0.0, 5)
        with pytest.raises(ValueError):
            fkp_moments(-1.0, 5)
        with pytest.raises(ValueError):
            fkp_moments(0.5, 0)

    def test_overflow_reports_failing_order(self):
        with pytest.raises(OverflowError, match=r"s=\d+"):
            fkp_moments(0.01, 250)

    @pytest.mark.parametrize("s_max", [3, 6])
    def test_underflow_reports_first_failing_order(self, s_max):
        # log m_2 = -691.1 still gives a positive double; log m_3 = -1036.3 gives 0
        with pytest.raises(FloatingPointError, match=r"at order s=3 \(log value -1036\.3\)$"):
            fkp_moments(1e300, s_max)

    @given(st.floats(min_value=0.1, max_value=2.5))
    @settings(max_examples=50)
    def test_log_convex(self, a_prime):
        assert fkp_moments(a_prime, 20).is_log_convex()

    @pytest.mark.parametrize("a_prime", [0.25, 0.75, 1.5, 2.5, 10.0])
    def test_mpmath_oracle(self, a_prime):
        # differencing ln Gamma(k a') and ln Gamma(k a' + 1/2) one by one
        # erred by up to 4.2e-13 at a' = 10
        mp = pytest.importorskip("mpmath")
        got = fkp_moments(a_prime, 40).values
        with mp.workdps(40):
            a, log_m = mp.mpf(a_prime), mp.mpf(0)
            for s in range(1, 41):
                log_m += mp.log(s) - mp.log(2) / 2 + mp.loggamma(s * a) - mp.loggamma(s * a + 0.5)
                assert abs(got[s] / mp.exp(log_m) - 1) <= 5e-14, s


class TestKappa:
    def test_half_alpha_half_time(self):
        assert kappa(BesselParams(0.5, 0.5, t=0.5)) == pytest.approx(0.5, rel=1e-13)

    def test_half_alpha_unit_time(self):
        kappa_half = kappa(BesselParams(0.5, 0.5, t=1.0))
        assert kappa_half == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-13)

    @pytest.mark.parametrize("alpha,p", [(0.25, 0.0), (0.5, 0.2), (0.75, -1.0)])
    def test_unit_scale_cancellation(self, alpha, p):
        t = 0.5 * (math.gamma(1.0 - alpha) / math.gamma(1.0 + alpha)) ** (1.0 / alpha) * (
            1.0 - 2.0 * p
        )
        params = BesselParams.from_d_p(2.0 * (1.0 - alpha), p, t=t)
        assert kappa(params) == pytest.approx(1.0, rel=1e-13)

    def test_reads_alpha_over_beta(self):
        # 1 - 2p from the derived p is 0.050000000000000044 at (0.1, 2); the
        # formulas read alpha / beta = 0.05 as given
        params = BesselParams(0.1, 2.0)
        assert 1.0 - 2.0 * params.p != 0.05
        assert kappa(params) == math.exp(
            0.1 * math.log(2.0) + log_gamma(1.1) - 0.1 * math.log(0.05) - log_gamma(0.9)
        )
        assert mean_local_time_at_1(params) == math.exp(
            0.1 * math.log(2.0) + 0.9 * math.log(0.05) - log_gamma(0.9)
        )


class TestLocalTimeMoments:
    def test_first_moment_example(self):
        params = BesselParams(0.5, 0.5, t=0.5)
        assert local_time_moments(params, 1)[1] == pytest.approx(1.0 / SQRT_PI, rel=1e-12)

    def test_mittag_leffler_reduction_at_unit_scale(self):
        params = BesselParams(0.5, 0.5, t=unit_scale_time(0.5))
        seq = local_time_moments(params, 2)
        assert seq[2] == pytest.approx(2.0, rel=1e-12)

    def test_zeroth_is_one(self):
        params = BesselParams(0.3, 1.5, t=3.0)
        assert local_time_moments(params, 5)[0] == 1.0

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_mittag_leffler_reduction_full_sequence(self, alpha):
        params = BesselParams(alpha, alpha, t=unit_scale_time(alpha))
        got = local_time_moments(params, 20)
        want = mittag_leffler_moments(alpha, 20)
        assert rel_dev(got.values, want.values) <= 1e-12


class TestScaledLocalTimeMoments:
    def test_first_moment(self):
        params = BesselParams(0.5, 0.5)
        # (1-2p)/Gamma(3/2) with p = 0
        assert scaled_local_time_moments(params, 1)[1] == pytest.approx(
            2.0 / SQRT_PI, rel=1e-12
        )

    def test_second_moment(self):
        params = BesselParams(0.5, 0.5)
        assert scaled_local_time_moments(params, 2)[2] == pytest.approx(2.0, rel=1e-12)

    def test_zeroth_is_one(self):
        params = BesselParams(0.7, 2.0)
        assert scaled_local_time_moments(params, 3)[0] == 1.0

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("beta", [0.25, 1.0, 2.0])
    def test_t_independence(self, alpha, beta):
        direct = scaled_local_time_moments(BesselParams(alpha, beta), 20)
        for t in (0.3, 7.0):
            params = BesselParams(alpha, beta, t=t)
            raw = local_time_moments(params, 20).values
            ratio = raw / kappa(params) ** np.arange(21)
            assert rel_dev(ratio, direct.values) <= 1e-12


class TestTilt:
    def test_exponential_size_bias(self):
        s_max = len(TILTED_EXPONENTIAL_ORACLE)
        exponential = MomentSequence(
            np.array([math.gamma(s + 1.0) for s in range(s_max + 1)]), "exp(1)"
        )
        tilted = tilt(exponential)
        assert rel_dev(tilted.values, TILTED_EXPONENTIAL_ORACLE) <= 1e-9

    def test_point_mass_invariance(self):
        c = 2.5
        seq = MomentSequence(c ** np.arange(7.0), "point-mass")
        assert rel_dev(tilt(seq).values, c ** np.arange(6.0)) <= 1e-15

    def test_unit_point_mass(self):
        seq = MomentSequence(np.ones(6), "unit-mass")
        assert tilt(seq).values == (1.0,) * 5

    def test_drops_one_order(self):
        seq = fkp_moments(0.75, 8)
        assert len(tilt(seq)) == 8

    def test_too_short(self):
        with pytest.raises(ValueError):
            tilt(MomentSequence(np.array([1.0]), "trivial"))


class TestTiltedMoments:
    def test_first_moment(self):
        assert tilted_moments(0.5, 0.5, 1)[1] == pytest.approx(SQRT_PI, rel=1e-13)

    def test_second_moment(self):
        assert tilted_moments(0.5, 0.5, 2)[2] == pytest.approx(4.0, rel=1e-13)

    def test_zeroth_is_one(self):
        assert tilted_moments(0.3, 2.0, 5)[0] == 1.0

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0, 2.0])
    def test_matches_tilt_of_scaled_local_time(self, alpha, beta):
        params = BesselParams(alpha, beta)
        via_tilt = tilt(scaled_local_time_moments(params, 21))
        closed = tilted_moments(alpha, beta, 20)
        assert rel_dev(via_tilt.values, closed.values) <= 1e-12

    @pytest.mark.parametrize("alpha,beta", [(0.2, 1.7), (0.45, 1.3), (0.7, 0.2), (0.9, 0.5)])
    def test_mpmath_oracle(self, alpha, beta):
        mp = pytest.importorskip("mpmath")
        got = tilted_moments(alpha, beta, 30).values
        with mp.workdps(40):
            a, b, log_m = mp.mpf(alpha), mp.mpf(beta), mp.mpf(0)
            for s in range(1, 31):
                log_m += mp.log(s) + mp.loggamma(s * b) - mp.loggamma(a + s * b)
                assert abs(got[s] / mp.exp(log_m) - 1) <= 3e-14, s

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tilted_moments(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            tilted_moments(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            tilted_moments(0.5, 0.0, 5)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match=f"^beta must be finite and positive, got {beta}$"):
            tilted_moments(0.5, beta, 3)


class TestScale:
    def test_identity(self):
        seq = fkp_moments(0.5, 10)
        assert np.all(scale(seq, 1.0).values == seq.values)

    def test_root_two_on_fkp_half(self):
        seq = scale(fkp_moments(0.5, 4), math.sqrt(2.0))
        assert seq[2] == pytest.approx(4.0, rel=1e-12)

    def test_point_mass(self):
        seq = MomentSequence(np.ones(5), "unit-mass")
        assert rel_dev(scale(seq, 3.0).values, 3.0 ** np.arange(5.0)) <= 1e-15

    def test_domain_error(self):
        with pytest.raises(ValueError):
            scale(fkp_moments(0.5, 3), 0.0)

    def test_overflow_reports_order(self):
        seq = fkp_moments(0.5, 20)
        with pytest.raises(OverflowError, match=r"s=\d+"):
            scale(seq, 1e200)


class TestLaplaceExponent:
    def test_quarter_a_prime(self):
        # 4a' = 1, r = 1/2: sqrt(2) Gamma(1)/Gamma(1/2)
        assert laplace_exponent(0.5, 0.25) == pytest.approx(
            math.sqrt(2.0) / SQRT_PI, rel=1e-13
        )

    def test_half_a_prime(self):
        # 4a' r = 1/2: 1/sqrt(pi)
        assert laplace_exponent(0.25, 0.5) == pytest.approx(1.0 / SQRT_PI, rel=1e-13)

    def test_vanishes_at_zero(self):
        assert laplace_exponent(1e-12, 0.5) < 1e-5
        assert laplace_exponent(1e-6, 0.5) < laplace_exponent(1e-3, 0.5)

    def test_half_convention_differs(self):
        assert laplace_exponent(0.5, 1.0, "half") != laplace_exponent(0.5, 1.0, "paper")

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            laplace_exponent(0.0, 0.5)
        with pytest.raises(ValueError):
            laplace_exponent(-1.0, 0.5)
        with pytest.raises(ValueError):
            laplace_exponent(1.0, 0.0)
        with pytest.raises(ValueError):
            laplace_exponent(1.0, 1.0, convention="bogus")


class TestExpFunctionalMoments:
    def test_first_moment(self):
        params = BesselParams(0.5, 0.5, t=1.0)
        expected = kappa(params) * SQRT_PI  # = sqrt(pi/2)
        seq = exp_functional_moments(params, 3)
        assert seq[1] == pytest.approx(expected, rel=1e-12)
        assert seq[1] == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)

    def test_zeroth_is_one(self):
        params = BesselParams(0.3, 1.0, t=1.0)
        assert exp_functional_moments(params, 4)[0] == 1.0

    @pytest.mark.parametrize("a_prime", [0.5, 1.0, 2.5])
    def test_corollary_rescaling_gives_fkp(self, a_prime):
        params = BesselParams(0.5, a_prime, t=1.0)
        seq = exp_functional_moments(params, 20)
        rescaled = scale(seq, 1.0 / (kappa(params) * math.sqrt(2.0)))
        assert rel_dev(rescaled.values, fkp_moments(a_prime, 20).values) <= 1e-11

    def test_requires_unit_time(self):
        with pytest.raises(ValueError):
            exp_functional_moments(BesselParams(0.5, 0.5, t=2.0), 3)


class TestMeanLocalTime:
    def test_closed_form_at_p_zero(self):
        params = BesselParams(0.5, 0.5, t=1.0)
        assert mean_local_time_at_1(params) == pytest.approx(
            math.sqrt(2.0) / SQRT_PI, rel=1e-13
        )

    def test_quarter_p(self):
        params = BesselParams.from_d_p(1.0, 0.25)
        assert mean_local_time_at_1(params) == pytest.approx(1.0 / SQRT_PI, rel=1e-13)

    @pytest.mark.parametrize("alpha,beta", [(0.2, 0.5), (0.5, 0.5), (0.8, 2.0)])
    def test_matches_first_raw_moment(self, alpha, beta):
        params = BesselParams(alpha, beta, t=1.0)
        raw = local_time_moments(params, 1)[1]
        assert abs(mean_local_time_at_1(params) - raw) / raw <= 1e-12

    @pytest.mark.parametrize("alpha,beta", [(0.2, 0.5), (0.5, 1.5)])
    def test_matches_mu1_times_kappa(self, alpha, beta):
        params = BesselParams(alpha, beta, t=1.0)
        mu1 = scaled_local_time_moments(params, 1)[1]
        assert mean_local_time_at_1(params) == pytest.approx(mu1 * kappa(params), rel=1e-12)


class TestGammaTypeClosedForms:
    def test_quarter_zeroth(self):
        assert fkp_quarter_closed_form(3)[0] == 1.0

    def test_quarter_matches_product_form(self):
        got = fkp_quarter_closed_form(20)
        want = fkp_moments(0.25, 20)
        assert rel_dev(got.values, want.values) <= 1e-11

    @pytest.mark.parametrize("alpha,m", [(0.25, 1), (0.5, 1), (0.75, 1), (0.5, 2), (0.9, 3)])
    def test_beta_fraction_matches_general_form(self, alpha, m):
        got = tilted_moments_beta_fraction(alpha, m, 20)
        want = tilted_moments(alpha, alpha / m, 20)
        assert rel_dev(got.values, want.values) <= 1e-11

    def test_beta_fraction_half_two_first_moment(self):
        # Gamma(1/4)/Gamma(3/4), frozen from a 40-digit evaluation
        assert tilted_moments_beta_fraction(0.5, 2, 1)[1] == pytest.approx(
            2.958675119188639, rel=1e-13
        )

    def test_beta_fraction_zeroth(self):
        assert tilted_moments_beta_fraction(0.5, 2, 4)[0] == 1.0

    def test_beta_fraction_domain(self):
        with pytest.raises(ValueError):
            tilted_moments_beta_fraction(0.5, 0, 4)
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\), got 1.0$"):
            tilted_moments_beta_fraction(1.0, 2, 4)

    @pytest.mark.parametrize(
        "m,s_max", [(10**300, 3), (2**26, 2), (2**24 + 1, 4)], ids=["1e300", "2^26", "2^24+1"]
    )
    def test_beta_fraction_refuses_a_table_past_2_26_entries(self, m, s_max):
        # the telescoped form stays an s_max x m table, because it is the
        # independent oracle for tilted_moments; a table past the bound is
        # refused before any array is allocated
        tracemalloc.start()
        try:
            message = rf"^m \* s_max must be at most 2\*\*26, got m={m} and s_max={s_max}$"
            with pytest.raises(ValueError, match=message):
                tilted_moments_beta_fraction(0.5, m, s_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_beta_fraction_allows_a_table_of_2_26_entries(self, monkeypatch):
        # m = s_max = 2**13 passes the bound; stop at the first gamma call,
        # before the table is formed
        class Reached(Exception):
            pass

        def stop(x):
            raise Reached

        monkeypatch.setattr(moments, "log_gamma_array", stop)
        with pytest.raises(Reached):
            tilted_moments_beta_fraction(0.5, 2**13, 2**13)
        with pytest.raises(ValueError, match="^m \\* s_max must be at most 2"):
            tilted_moments_beta_fraction(0.5, 2**13 + 1, 2**13)


class TestMittagLefflerMoments:
    def test_half_alpha_values(self):
        seq = mittag_leffler_moments(0.5, 4)
        assert seq[1] == pytest.approx(2.0 / SQRT_PI, rel=1e-13)
        assert seq[2] == pytest.approx(2.0, rel=1e-13)
        assert seq[4] == pytest.approx(12.0, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            mittag_leffler_moments(1.0, 4)


class TestLogConvexityAcrossGenerators:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("beta", [0.25, 1.0, 2.0])
    def test_local_time_family(self, alpha, beta):
        params = BesselParams(alpha, beta, t=1.0)
        assert local_time_moments(params, 20).is_log_convex()
        assert scaled_local_time_moments(params, 20).is_log_convex()
        assert tilted_moments(alpha, beta, 20).is_log_convex()
        assert exp_functional_moments(params, 20).is_log_convex()
