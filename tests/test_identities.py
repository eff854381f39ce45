"""Tests for the comparison engine, the Laplace-exponent adjudication and
the moment-problem diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

from limitlaw import (
    BesselParams,
    ComparisonReport,
    HankelDiagnostics,
    MomentSequence,
    PhiAdjudication,
    adjudicate_phi_convention,
    carleman_partial_sums,
    compare,
    exp_functional_moments,
    fkp_moments,
    hankel_positive_definite,
    identities,
    local_time_moments,
    scale,
    scaled_local_time_moments,
    tilted_moments,
)


def rayleigh_closed_form(s_max):
    s = np.arange(s_max + 1)
    return 2.0 ** (s / 2.0) * np.array([math.gamma(1.0 + k / 2.0) for k in s])


def _hankel_sequences():
    """The four Bessel sequences at each (alpha, beta) of acceptance
    criterion AC-10's grid, fkp at seven a', unit mass, the factorials, three
    lognormal laws, the factorials of 1e-3 Exp(1) and the laws on {1, 2} and
    {1, 2, 3}: 95 sequences, each with moments to order 12.  The lognormal
    m_2j outgrow the first pivot m_0 = 1 a billionfold from order 3, 4 or 5
    on, the scaled factorials' pivots fall below 1e-10 from order 2 on, and
    the two atom laws are singular from orders 2 and 3: only a rule that
    judges each pivot against its own diagonal entry gets all of them
    right."""
    seqs = []
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        for beta in (0.25, 0.5, 1.0, 2.0):
            params = BesselParams(alpha, beta)
            seqs += [
                scaled_local_time_moments(params, 12),
                tilted_moments(alpha, beta, 12),
                local_time_moments(params, 12),
                exp_functional_moments(params, 12),
            ]
    seqs += [fkp_moments(a, 12) for a in (0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 4.0)]
    seqs.append(MomentSequence(np.ones(13), "unit-mass"))
    seqs.append(MomentSequence([math.gamma(s + 1.0) for s in range(13)], "factorial"))
    s = np.arange(13)
    seqs += [MomentSequence(np.exp(sigma**2 * s**2 / 2.0), f"lognormal({sigma})")
             for sigma in (0.7, 1.0, 1.3)]
    seqs.append(MomentSequence([math.gamma(k + 1.0) * 1e-3**k for k in range(13)],
                               "factorial(1e-3)"))
    seqs += [MomentSequence(np.mean([atom**s for atom in atoms], axis=0), label)
             for atoms, label in (((1.0, 2.0), "atoms(1,2)"), ((1.0, 2.0, 3.0), "atoms(1,2,3)"))]
    return seqs


HANKEL_SEQUENCES = _hankel_sequences()


def per_order_hankel(seq, max_order):
    """The oracle: factor each H_j, j <= max_order, on its own, unscaled,
    and judge each pivot against 1e-10 times its own diagonal entry.
    Returns the smallest pivot over diagonal entry and the flag of each
    order."""
    pivots, flags = [], []
    for j in range(max_order + 1):
        idx = np.arange(j + 1)
        h = np.asarray(seq.values)[idx[:, None] + idx[None, :]]
        d = identities._ldl_pivots(h)
        relative = d / np.diag(h)[: d.size]
        pivots.append(float(np.min(relative)))
        flags.append(bool(d.size == j + 1 and np.all(relative > 1e-10)))
    return pivots, flags


class TestCompare:
    def test_identical_sequences(self):
        seq = fkp_moments(0.5, 10)
        report = compare(seq, seq, 1e-12)
        assert report.passed
        assert report.max_deviation == 0.0
        assert report.deviations == (0.0,) * 11

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

    @pytest.mark.parametrize("deviations", [[0.0, math.nan, 1.0], [2.0, 1.0, math.nan]])
    def test_nan_deviation_fails(self, deviations):
        report = ComparisonReport("a", "b", 3.0, deviations)
        assert math.isnan(report.max_deviation)
        assert report.passed is False
        assert type(report.deviations) is tuple

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

    @pytest.mark.parametrize("s_max", [20, 60])
    @pytest.mark.parametrize("a_prime", [0.25, 0.5, 1.0, 2.0])
    def test_closed_form_slope_matches_polyfit(self, a_prime, s_max):
        result = adjudicate_phi_convention(a_prime, s_max)
        for convention, report in result.reports.items():
            devs = np.array(report.deviations)
            nonzero = devs > 0.0
            want = np.polyfit(np.flatnonzero(nonzero), np.log10(devs[nonzero]), 1)[0]
            assert result.slopes[convention] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "deviations, slope",
        [([0.0, 1e-3, 0.0], None), ([1.0, 10.0], 1.0), ([0.0, 1.0, 0.0, 1e-4], -4.0 / 2.0),
         ([1e-1, 1e-2, 1e-3], -1.0)],
    )
    def test_log10_slope_of_exact_lines(self, deviations, slope):
        got = identities._log10_slope(deviations)
        assert got == (None if slope is None else pytest.approx(slope, rel=1e-15))

    def test_slope_recorded_for_failing_convention(self):
        result = adjudicate_phi_convention(0.5, 20)
        failing = [c for c in ("paper", "half") if c not in result.matching]
        for convention in failing:
            assert result.slopes[convention] is not None
            assert math.isfinite(result.slopes[convention])


class TestHankel:
    def test_point_mass_singular_at_order_one(self):
        # H_1 = [[1, 1], [1, 1]] has pivots 1 and 0, where the factorization
        # stops; every larger order holds that 0
        seq = MomentSequence(np.ones(9), "unit-mass")
        diag = hankel_positive_definite(seq, 4)
        assert diag.positive_definite == (True, False, False, False, False)
        assert diag.smallest_pivots == (1.0, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("seq", HANKEL_SEQUENCES, ids=lambda seq: seq.label)
    def test_matches_per_order_factorization(self, seq):
        for max_order in range(7):
            diag = hankel_positive_definite(seq, max_order)
            pivots, flags = per_order_hankel(seq, max_order)
            assert diag.positive_definite == tuple(flags)
            # the scaled factorization and the unscaled ones divided by their
            # diagonal round differently; the gap was at most 2.9e-14
            gap = np.abs(np.subtract(diag.smallest_pivots, pivots))
            assert np.all(gap <= 1e-13)

    def test_factors_once_and_keeps_only_read_fields(self, monkeypatch):
        calls = []

        def counted(h):
            calls.append(h.shape)
            return ldl_pivots(h)

        ldl_pivots = identities._ldl_pivots
        monkeypatch.setattr(identities, "_ldl_pivots", counted)
        diag = hankel_positive_definite(fkp_moments(0.5, 12), 6)
        assert calls == [(7, 7)]
        assert len(diag.smallest_pivots) == len(diag.positive_definite) == 7
        assert [f.name for f in dataclasses.fields(HankelDiagnostics)] == [
            "smallest_pivots", "positive_definite"
        ]

    @pytest.mark.parametrize(
        "values, max_order",
        [([math.gamma(s + 1.0) for s in range(17)], 8),
         (np.exp(np.arange(13) ** 2 / 2.0), 6)],
        ids=["factorial", "lognormal(1)"],
    )
    def test_definiteness_does_not_depend_on_scale(self, values, max_order):
        # the exponential law's pivots are (k!)^2 and lognormal(1)'s run to
        # 9.4e30, but m_2j passes 1e10 from order 7 and 4 on: a threshold of
        # 1e-10 times the largest diagonal entry failed both there
        seq = MomentSequence(values, "scaled")
        diag = hankel_positive_definite(seq, max_order)
        assert diag.all_positive_definite
        assert min(diag.smallest_pivots) > 1e-5
        assert max(seq.values[: 2 * max_order + 1 : 2]) > 1e10

    def test_an_order_fails_with_any_earlier_pivot(self):
        # H_1 has relative pivot 1e-12 and H_2 a last pivot of 0.9: order 2
        # holds order 1's pivot and fails with it
        seq = MomentSequence([1.0, 1.0, 1.0 + 1e-12, 1.0 + 2e-12, 10.0], "near-point-mass")
        diag = hankel_positive_definite(seq, 2)
        assert diag.positive_definite == (True, False, False)
        assert diag.smallest_pivots[2] == diag.smallest_pivots[1] < 1e-10

    def test_atom_laws_fail_from_their_atom_count(self):
        # a law on n points has singular H_j from j = n on
        for atoms in ((1.0,), (1.0, 2.0), (1.0, 2.0, 3.0)):
            seq = MomentSequence(np.mean([a ** np.arange(9) for a in atoms], axis=0), "atoms")
            n = len(atoms)
            assert hankel_positive_definite(seq, 4).positive_definite == (
                (True,) * n + (False,) * (5 - n)
            )

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
