"""Accuracy and identity tests for the log-gamma/beta kernel, and for the
complex log-gamma kernel that ``mellin`` holds.

Reference values were computed offline with 40-digit arbitrary-precision
arithmetic and frozen here; the absolute error of ln Gamma equals the
relative error of Gamma itself.  ``TestMpmathOracle`` checks the documented
error bounds on thousands of seeded points against mpmath, and skips when
mpmath is not installed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitlaw import gammakit, log_beta, log_gamma, mellin
from limitlaw.gammakit import log_gamma_array, log_gamma_ratio
from limitlaw.mellin import log_gamma_complex

# (x, ln Gamma(x)) frozen from a 40-digit offline evaluation.
LOG_GAMMA_ORACLE = [
    (0.01, 4.599479878042021722514),
    (0.05, 2.968879201051730825355),
    (0.1, 2.25271265173420595987),
    (0.25, 1.288022524698077457371),
    (0.5, 0.5723649429247000870717),
    (1.5, -0.1207822376352452223455),
    (2.5, 0.2846828704729191596325),
    (7.0, 6.57925121201010099506),
    (25.0, 54.78472939811231919009),
    (60.5, 186.5789178333378528681),
    (100.0, 359.134205369575398776),
    (143.7, 568.5981384138910008335),
    (170.0, 701.4372638087370853465),
]

# ln Gamma(2 + 3i) frozen from the same offline evaluation.
LOG_GAMMA_2_3I = complex(-2.092851753092733349564189, 2.302396543466867626153708)


class TestLogGamma:
    def test_gamma_of_one(self):
        assert log_gamma(1.0) == 0.0

    def test_gamma_of_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-15)

    def test_gamma_of_five(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-14)

    @pytest.mark.parametrize("x,expected", LOG_GAMMA_ORACLE)
    def test_oracle_accuracy(self, x, expected):
        # abs error of the log <= 1e-13 <=> Gamma accurate to 1e-13 relative
        assert abs(log_gamma(x) - expected) <= 1e-13

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)

    @given(st.floats(min_value=0.5, max_value=50.0))
    def test_recurrence(self, x):
        assert abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x)) <= 1e-12

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_reflection(self, x):
        lhs = log_gamma(x) + log_gamma(1.0 - x)
        rhs = math.log(math.pi / abs(math.sin(math.pi * x)))
        assert abs(lhs - rhs) <= 1e-11

    @given(st.floats(min_value=0.1, max_value=40.0))
    @settings(max_examples=200)
    def test_duplication(self, x):
        lhs = log_gamma(2.0 * x)
        rhs = (
            (2.0 * x - 1.0) * math.log(2.0)
            - 0.5 * math.log(math.pi)
            + log_gamma(x)
            + log_gamma(x + 0.5)
        )
        assert abs(lhs - rhs) <= 1e-11

    @pytest.mark.parametrize("n", range(1, 20))
    def test_integer_arguments_are_log_factorials(self, n):
        want = math.log(math.factorial(n - 1))
        assert log_gamma(n) == want
        assert log_gamma_array(np.array([float(n)]))[0] == want
        assert log_gamma_complex(complex(n)) == complex(want, 0.0)

    def test_continuity_across_stirling_cutover(self):
        xs = np.linspace(19.5, 20.5, 101)
        vals = np.array([log_gamma(float(x)) for x in xs])
        assert np.all(np.diff(vals) > 0)  # ln Gamma is increasing there
        assert np.max(np.abs(np.diff(vals))) < 0.05


class TestLogGammaArray:
    def test_matches_scalar_kernel(self):
        xs = np.concatenate([np.geomspace(0.01, 19.9, 50), np.linspace(20.0, 170.0, 50)])
        vec = log_gamma_array(xs)
        for x, v in zip(xs, vec):
            assert abs(v - log_gamma(float(x))) <= 2e-13

    @pytest.mark.parametrize("x,expected", LOG_GAMMA_ORACLE)
    def test_oracle_accuracy(self, x, expected):
        assert abs(float(log_gamma_array(np.array([x]))[0]) - expected) <= 1e-13

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_gamma_array(np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            log_gamma_array(np.array([1.0, math.nan]))

    def test_list_in_list_out(self):
        # any sequence of reals in, a list of Python floats out
        assert log_gamma_array([]) == []
        got = log_gamma_array(range(1, 6))
        assert got == [log_gamma(x) for x in range(1, 6)]
        assert {type(v) for v in got} == {float}
        assert log_gamma_array(np.array([0.5, 25.0])) == [log_gamma(0.5), log_gamma(25.0)]


class TestLogGammaRatio:
    def test_matches_difference_below_cutover(self):
        xs = np.geomspace(0.01, 9.9, 40)
        want = np.subtract(log_gamma_array(xs), log_gamma_array(xs + 0.5)).tolist()
        assert log_gamma_ratio(xs, 0.5) == want

    def test_list_in_list_out(self):
        assert log_gamma_ratio([], 0.5) == []
        got = log_gamma_ratio((1.0, 2, 30.5), 1.0)
        assert got == [gammakit._log_gamma_ratio(x, 1.0) for x in (1.0, 2.0, 30.5)]
        assert {type(v) for v in got} == {float}

    def test_mpmath_relative_error(self):
        # the difference of two log_gamma_array results errs by up to
        # 1.5e-13 here, where ln Gamma(x) is large and the ratio is not
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20231021)
        xs = np.exp(rng.uniform(math.log(0.01), math.log(200.0), 2000))
        bs = np.exp(rng.uniform(math.log(0.01), math.log(20.0), 2000))
        got = [float(log_gamma_ratio(np.array([x]), b)[0]) for x, b in zip(xs, bs)]
        with mp.workdps(40):
            for x, b, g in zip(xs.tolist(), bs.tolist(), got):
                want = mp.loggamma(x) - mp.loggamma(mp.mpf(x) + mp.mpf(b))
                assert abs(mp.mpf(g) - want) <= 1e-14 * max(1.0, abs(want)), (x, b)

    @pytest.mark.parametrize("x,b", [([1.0, 0.0], 0.5), ([1.0, math.nan], 0.5),
                                     ([1.0], 0.0), ([1.0], -1.0), ([1.0], math.inf)])
    def test_domain_errors(self, x, b):
        with pytest.raises(ValueError):
            log_gamma_ratio(np.array(x), b)


class TestLogGammaComplex:
    def test_old_names_reach_the_kernel_in_mellin(self):
        import limitlaw
        from limitlaw.gammakit import log_gamma_complex as from_gammakit

        assert from_gammakit is gammakit.log_gamma_complex is log_gamma_complex
        assert limitlaw.log_gamma_complex is log_gamma_complex
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            gammakit.nope  # noqa: B018

    def test_gamma_of_one(self):
        assert log_gamma_complex(1 + 0j) == 0 + 0j

    def test_gamma_of_half(self):
        v = log_gamma_complex(0.5 + 0j)
        assert v.real == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)
        assert v.imag == 0.0

    def test_oracle_2_plus_3i(self):
        v = log_gamma_complex(2 + 3j)
        assert abs(v - LOG_GAMMA_2_3I) <= 1e-13 * abs(LOG_GAMMA_2_3I)

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=-30.0, max_value=30.0),
    )
    def test_conjugate_symmetry(self, re, im):
        s = complex(re, im)
        assert log_gamma_complex(s.conjugate()) == complex(log_gamma_complex(s)).conjugate()

    @pytest.mark.parametrize("c", [0.25, 0.5, 2.0])
    def test_branch_continuity_along_vertical_contour(self, c):
        # walking a vertical line must never produce a 2*pi phase jump
        u = np.linspace(-80.0, 80.0, 8001)
        values = log_gamma_complex(c + 1j * u)
        assert np.max(np.abs(np.diff(values.imag))) < 0.5

    def test_vectorized_matches_scalar(self):
        s = np.array([0.5 + 1j, 2 + 3j, 4 - 2j])
        vec = log_gamma_complex(s)
        for i, si in enumerate(s):
            assert vec[i] == complex(log_gamma_complex(complex(si)))

    def test_bits_depend_on_the_point_alone(self):
        # near (shifted), far, real-axis and mixed-sign points, in every
        # prefix length and one at a time
        rng = np.random.default_rng(7)
        s = np.concatenate([
            np.exp(rng.uniform(-4.0, 4.0, 60)) + 1j * rng.uniform(-40.0, 40.0, 60),
            [3.0 + 0j, 0.5 + 0j, 25.5 + 0j, 9.99 + 0.1j, 0.01 - 9.99j],
        ])
        rng.shuffle(s)
        full = log_gamma_complex(s)
        for n in range(1, 12):
            assert np.array_equal(log_gamma_complex(s[:n]), full[:n])
        assert [log_gamma_complex(z) for z in s.tolist()] == full.tolist()
        assert np.array_equal(log_gamma_complex(s.reshape(5, 13)), full.reshape(5, 13))
        assert np.array_equal(log_gamma_complex(np.conj(s)), np.conj(full))

    def test_real_points_take_the_real_kernel_alone(self, monkeypatch):
        s = np.array([3.0, 0.5, 25.5, 1e-3]) + 0j
        want = [log_gamma_complex(z) for z in s.tolist()]

        def refuse(x, y):
            raise AssertionError("the complex path ran for real points")

        monkeypatch.setattr(mellin, "_log_gamma_complex_vec", refuse)
        assert log_gamma_complex(s).tolist() == want
        assert log_gamma_complex(s.reshape(2, 2)).tolist() == np.reshape(want, (2, 2)).tolist()

    @pytest.mark.parametrize("bad", [0 + 1j, -1 + 0.5j, -3 - 2j])
    def test_left_half_plane_rejected(self, bad):
        with pytest.raises(ValueError):
            log_gamma_complex(bad)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            log_gamma_complex(complex(math.nan, 1.0))


class TestMpmathOracle:
    """Each error is the difference of the double result and the mpmath value,
    taken in mpmath: rounding the reference to a double first adds up to half
    an ulp, 5.7e-14 where ln Gamma(x) > 512, and fails correct results."""

    def test_real_absolute_error(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20231018)
        xs = np.concatenate([
            np.exp(rng.uniform(math.log(0.01), math.log(171.0), 1500)),
            rng.uniform(120.0, 171.0, 1500),  # ln Gamma > 512, one ulp 1.1e-13
            [0.01, 19.999999999999996, 20.0, 170.0, np.nextafter(171.0, 0.0)],
        ])
        array = log_gamma_array(xs)
        with mp.workdps(40):
            for x, vec in zip(xs.tolist(), array):
                want = mp.loggamma(mp.mpf(x))
                assert abs(mp.mpf(log_gamma(x)) - want) < 1e-13, x
                assert abs(mp.mpf(vec) - want) < 1e-13, x

    @staticmethod
    def _errors(mp, s):
        """|log_gamma_complex(s) - ln Gamma(s)| and |ln Gamma(s)| per point."""
        got = log_gamma_complex(s)
        with mp.workdps(30):
            want = [mp.loggamma(mp.mpc(z.real, z.imag)) for z in s.tolist()]
            err = [float(abs(mp.mpc(g.real, g.imag) - w)) for g, w in zip(got.tolist(), want)]
            size = [float(abs(w)) for w in want]
        return np.array(err), np.array(size)

    def test_complex_contour_arguments(self):
        # every Gamma argument a s + b on the default contours of the shipped
        # density specs, |s| <= 80
        mp = pytest.importorskip("mpmath")
        args = []
        for spec in (mellin.spec_from_fkp_quarter(), mellin.spec_from_mittag_leffler(0.5)):
            height = mellin._contour_nodes(spec, 0.5, 0.04, None, 2)[2]
            n = round(height / 0.04)
            u = np.arange(-n, n + 1) * 0.04
            args += [a * (0.5 + 1j * u) + b for a, b, _sign in spec.factors]
        err, size = self._errors(mp, np.unique(np.concatenate(args)))
        assert np.max(err) < 1e-13
        assert np.all(err <= 1e-14 * np.maximum(1.0, size))

    def test_complex_relative_error(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20231019)
        re = np.exp(rng.uniform(math.log(0.01), math.log(50.0), 3000))
        im = np.concatenate([rng.uniform(-150.0, 150.0, 2000), rng.uniform(-1.0, 1.0, 1000)])
        err, size = self._errors(mp, re + 1j * im)
        assert np.all(err <= 1e-14 * np.maximum(1.0, size))


class TestLogBeta:
    def test_one_one(self):
        assert log_beta(1.0, 1.0) == 0.0

    def test_half_half(self):
        assert log_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), abs=1e-14)

    def test_half_three_halves(self):
        # Gamma(1/2) Gamma(3/2) / Gamma(2) = pi/2
        assert log_beta(0.5, 1.5) == pytest.approx(math.log(math.pi / 2.0), abs=1e-14)

    def test_symmetry(self):
        assert log_beta(0.3, 2.7) == log_beta(2.7, 0.3)

    def test_matches_gamma_decomposition(self):
        for a, b in [(0.5, 4.0), (1.25, 1.25), (10.0, 0.1)]:
            direct = log_beta(a, b)
            composed = log_gamma(a) + log_gamma(b) - log_gamma(a + b)
            assert direct == pytest.approx(composed, abs=1e-12)

    def test_mpmath_log_uniform(self):
        # composing three log-gammas loses ~1e-13 absolute where a + b is
        # large and ln B is not; the floor of 1 is where ln B crosses zero
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20231020)
        ab = np.exp(rng.uniform(math.log(0.01), math.log(200.0), (2000, 2)))
        with mp.workdps(40):
            for a, b in ab.tolist():
                want = mp.log(mp.beta(a, b))
                err = abs(mp.mpf(log_beta(a, b)) - want)
                assert err <= 1e-13 * max(1.0, abs(want)), (a, b)

    def test_mpmath_half_line(self):
        # the (1/2, b) calls of moments.laplace_exponent
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for b in np.linspace(0.25, 80.0, 320).tolist():
                want = mp.log(mp.beta(0.5, b))
                assert abs(mp.mpf(log_beta(0.5, b)) - want) <= 1e-13 * abs(want), b

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0), (math.nan, 1.0)])
    def test_domain_errors(self, a, b):
        with pytest.raises(ValueError):
            log_beta(a, b)
