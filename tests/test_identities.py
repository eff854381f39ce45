"""Tests for the comparison engine, the Laplace-exponent adjudication and
the moment-problem diagnostics."""

import math

import numpy as np
import pytest

from limitlaw import (
    ComparisonReport,
    MomentSequence,
    PhiAdjudication,
    adjudicate_phi_convention,
    carleman_partial_sums,
    compare,
    fkp_moments,
    hankel_positive_definite,
    scale,
)


def rayleigh_closed_form(s_max):
    s = np.arange(s_max + 1)
    return 2.0 ** (s / 2.0) * np.array([math.gamma(1.0 + k / 2.0) for k in s])


class TestCompare:
    def test_identical_sequences(self):
        seq = fkp_moments(0.5, 10)
        report = compare(seq, seq, 1e-12)
        assert report.passed
        assert report.max_deviation == 0.0
        assert np.all(report.deviations == 0.0)

    def test_rayleigh_oracle_passes(self):
        seq = fkp_moments(0.5, 20)
        oracle = MomentSequence(rayleigh_closed_form(20), "rayleigh(1)")
        assert compare(seq, oracle, 1e-11).passed

    def test_scaled_perturbation_fails(self):
        seq = fkp_moments(0.5, 20)
        perturbed = scale(seq, 1.01)
        report = compare(seq, perturbed, 1e-12)
        assert not report.passed
        # deviation of c^s scaling grows with s: 1 - 1.01^{-20} ~ 0.18
        assert int(np.argmax(report.deviations)) == 20
        assert 0.15 <= report.max_deviation <= 0.22

    def test_symmetry(self):
        a = fkp_moments(0.5, 8)
        b = fkp_moments(0.75, 8)
        ab = compare(a, b, 1e-3)
        ba = compare(b, a, 1e-3)
        assert np.all(ab.deviations == ba.deviations)
        assert ab.max_deviation == ba.max_deviation

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compare(fkp_moments(0.5, 5), fkp_moments(0.5, 6), 1e-9)

    def test_max_is_max_of_entries(self):
        report = compare(fkp_moments(0.5, 12), fkp_moments(0.55, 12), 1.0)
        assert report.max_deviation == float(np.max(report.deviations))

    def test_invalid_tolerance(self):
        # an infinite tolerance would pass every report
        for tolerance in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^tolerance must be finite and positive, got "):
                compare(fkp_moments(0.5, 3), fkp_moments(0.5, 3), tolerance)

    @pytest.mark.parametrize(
        "deviations, tolerance, expected",
        [([0.0, 0.5], 0.5, (0.5, True)), ([0.0, 0.6], 0.5, (0.6, False)),
         ([1.0, math.inf], 3.0, (math.inf, False)), ([0.25], 3.0, (0.25, True))],
    )
    def test_verdict_derived_from_deviations(self, deviations, tolerance, expected):
        report = ComparisonReport("a", "b", tolerance, deviations)
        assert (report.max_deviation, report.passed) == expected
        assert type(report.passed) is bool

    def test_verdict_cannot_be_passed_in(self):
        with pytest.raises(TypeError):
            ComparisonReport("a", "b", 1.0, [2.0], max_deviation=0.0, passed=True)

    def test_json_round_trip(self):
        import json

        report = compare(fkp_moments(0.5, 5), fkp_moments(0.6, 5), 1e-2)
        decoded = json.loads(json.dumps(report.to_dict()))
        assert decoded["pass"] == report.passed
        assert decoded["max_deviation"] == report.max_deviation


class TestPhiAdjudication:
    def test_emits_exactly_two_reports(self):
        result = adjudicate_phi_convention(0.5, 12)
        assert set(result.reports) == {"paper", "half"}
        assert set(result.slopes) == {"paper", "half"}

    @pytest.mark.parametrize("a_prime", [0.25, 0.5, 1.0, 2.0])
    def test_at_most_one_convention_matches(self, a_prime):
        result = adjudicate_phi_convention(a_prime, 20, tolerance=1e-8)
        assert len(result.matching) <= 1

    def test_deterministic(self):
        first = adjudicate_phi_convention(0.5, 15)
        second = adjudicate_phi_convention(0.5, 15)
        assert first.to_dict() == second.to_dict()

    def test_reports_internally_consistent(self):
        result = adjudicate_phi_convention(1.0, 20)
        for report in result.reports.values():
            assert report.max_deviation == float(np.max(report.deviations))
            assert report.passed == (report.max_deviation <= report.tolerance)

    def test_matching_derived_from_reports(self):
        result = adjudicate_phi_convention(0.5, 20)
        assert result.matching == tuple(c for c, r in result.reports.items() if r.passed)
        assert result.matching == ("half",)
        with pytest.raises(TypeError):
            PhiAdjudication(0.5, 20, 1e-8, result.reports, result.slopes, matching=())

    def test_non_finite_a_prime_is_refused(self):
        with pytest.raises(ValueError, match="^beta must be finite and positive, got inf$"):
            adjudicate_phi_convention(math.inf)

    def test_slope_recorded_for_failing_convention(self):
        result = adjudicate_phi_convention(0.5, 20)
        failing = [c for c in ("paper", "half") if c not in result.matching]
        for convention in failing:
            assert result.slopes[convention] is not None
            assert math.isfinite(result.slopes[convention])


class TestHankel:
    def test_point_mass_singular_at_order_one(self):
        seq = MomentSequence(np.ones(9), "unit-mass")
        diag = hankel_positive_definite(seq, 4)
        assert diag.positive_definite[0]  # H_0 = [1]
        assert not diag.positive_definite[1]
        assert abs(diag.smallest_pivots[1]) <= 1e-12

    @pytest.mark.parametrize("a_prime", [0.25, 0.5])
    def test_fkp_positive_definite_to_order_four(self, a_prime):
        diag = hankel_positive_definite(fkp_moments(a_prime, 8), 4)
        assert diag.all_positive_definite
        assert all(p > 0.0 for p in diag.smallest_pivots)

    def test_rayleigh_oracle_cholesky_agrees(self):
        # independent factorization route for the same matrix
        vals = rayleigh_closed_form(8)
        idx = np.arange(5)
        h = vals[idx[:, None] + idx[None, :]]
        np.linalg.cholesky(h)  # raises if not PD
        seq = MomentSequence(vals, "rayleigh(1)")
        assert hankel_positive_definite(seq, 4).all_positive_definite

    def test_requires_enough_moments(self):
        with pytest.raises(ValueError):
            hankel_positive_definite(fkp_moments(0.5, 6), 4)

    def test_refuses_negative_order(self):
        with pytest.raises(ValueError, match="^max_order must be >= 0, got -1$"):
            hankel_positive_definite(fkp_moments(0.5, 6), -1)

    def test_carleman_attached_when_available(self):
        diag = hankel_positive_definite(fkp_moments(0.5, 8), 4)
        assert diag.carleman is not None
        assert diag.carleman.size == 4


class TestCarleman:
    def test_unit_mass_partial_sums_count_orders(self):
        seq = MomentSequence(np.ones(41), "unit-mass")
        sums = carleman_partial_sums(seq, 20)
        assert sums[-1] == pytest.approx(20.0, abs=1e-12)
        assert np.all(np.diff(sums) > 0)

    def test_factorial_terms_follow_stirling_rate(self):
        # m_s = s!: term_s = ((2s)!)^{-1/(2s)} ~ e/(2s), divergent sum
        vals = np.array([math.gamma(s + 1.0) for s in range(41)])
        seq = MomentSequence(vals, "factorial")
        sums = carleman_partial_sums(seq, 20)
        terms = np.diff(np.concatenate([[0.0], sums]))
        s = np.arange(1, 21)
        assert np.all(np.diff(sums) > 0)
        ratio = terms * (2.0 * s) / math.e
        assert 0.8 <= ratio[-1] <= 1.2
        # no plateau: late terms keep adding visibly
        assert terms[-1] > 0.05

    def test_fkp_half_partial_sums_increasing(self):
        sums = carleman_partial_sums(fkp_moments(0.5, 40), 20)
        assert np.all(np.diff(sums) > 0)
        assert sums[-1] > sums[0]

    def test_requires_even_orders(self):
        with pytest.raises(ValueError):
            carleman_partial_sums(fkp_moments(0.5, 10), 6)

    @pytest.mark.parametrize("s_max", [0, -2])
    def test_refuses_order_below_one(self, s_max):
        with pytest.raises(ValueError, match=rf"^s_max must be >= 1, got {s_max}$"):
            carleman_partial_sums(fkp_moments(0.5, 10), s_max)
