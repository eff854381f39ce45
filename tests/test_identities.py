"""Tests for the comparison engine and the Laplace-exponent adjudication,
and the Hankel positive-definiteness oracle of acceptance criterion AC-10."""

import math

import numpy as np
import pytest

from limitlaw import (
    BesselParams,
    ComparisonReport,
    MomentSequence,
    PhiAdjudication,
    adjudicate_phi_convention,
    compare,
    exp_functional_moments,
    fkp_moments,
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


def _ldl_pivots(h):
    """Diagonal pivots of the unpivoted LDL^T factorization of a symmetric
    matrix; stops after the first non-positive pivot (the remaining ones are
    undefined)."""
    n = h.shape[0]
    low = np.zeros((n, n))
    d = np.zeros(n)
    for k in range(n):
        d[k] = h[k, k] - np.dot(low[k, :k] ** 2, d[:k])
        if d[k] <= 0.0:
            return d[: k + 1]
        low[k + 1 :, k] = (h[k + 1 :, k] - low[k + 1 :, :k] @ (d[:k] * low[k, :k])) / d[k]
    return d


def per_order_hankel(seq, max_order):
    """The oracle of the Hankel matrices H_j = [m_{u+v}]_{u,v<=j}: factor
    each H_j, j <= max_order, on its own, unscaled, and judge each pivot
    against 1e-10 times its own diagonal entry m_2k, so the verdict does not
    depend on the scale of the moments.  Returns the smallest pivot over
    diagonal entry and the flag (positive definite) of each order."""
    pivots, flags = [], []
    for j in range(max_order + 1):
        idx = np.arange(j + 1)
        h = np.asarray(seq.values)[idx[:, None] + idx[None, :]]
        d = _ldl_pivots(h)
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
        assert set(result.to_dict()) == {"a_prime", "s_max", "tolerance", "reports", "matching"}

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
            PhiAdjudication(0.5, 20, 1e-8, result.reports, matching=())

    def test_non_finite_a_prime_is_refused(self):
        with pytest.raises(ValueError, match="^beta must be finite and positive, got inf$"):
            adjudicate_phi_convention(math.inf)


class TestHankel:
    def test_point_mass_singular_at_order_one(self):
        # H_1 = [[1, 1], [1, 1]] has pivots 1 and 0, where the factorization
        # stops; every larger order holds that 0
        seq = MomentSequence(np.ones(9), "unit-mass")
        pivots, flags = per_order_hankel(seq, 4)
        assert flags == [True, False, False, False, False]
        assert pivots == [1.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("seq", HANKEL_SEQUENCES, ids=lambda seq: seq.label)
    def test_matches_lapack_cholesky(self, seq):
        # the Cholesky factor of D^{-1/2} H_j D^{-1/2}, D = diag H_j, has the
        # relative pivots as its squared diagonal; it exists where the oracle
        # finds H_j positive definite, and shows a pivot not above 1e-10, or
        # none, where it does not
        pivots, flags = per_order_hankel(seq, 6)
        values = np.asarray(seq.values)
        for j in range(7):
            idx = np.arange(j + 1)
            h = values[idx[:, None] + idx[None, :]]
            scale = 1.0 / np.sqrt(np.diag(h))
            try:
                low = np.linalg.cholesky(scale[:, None] * h * scale)
            except np.linalg.LinAlgError:
                assert not flags[j]
                continue
            smallest = float(np.min(np.diag(low) ** 2))
            if flags[j]:
                # the two routes round differently; the gap was at most 2.6e-14
                assert abs(smallest - pivots[j]) <= 1e-13
            else:
                assert smallest <= 1e-10

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
        pivots, flags = per_order_hankel(seq, max_order)
        assert all(flags)
        assert min(pivots) > 1e-5
        assert max(seq.values[: 2 * max_order + 1 : 2]) > 1e10

    def test_an_order_fails_with_any_earlier_pivot(self):
        # H_1 has relative pivot 1e-12 and H_2 a last pivot of 0.9: order 2
        # holds order 1's pivot and fails with it
        seq = MomentSequence([1.0, 1.0, 1.0 + 1e-12, 1.0 + 2e-12, 10.0], "near-point-mass")
        pivots, flags = per_order_hankel(seq, 2)
        assert flags == [True, False, False]
        assert pivots[2] == pivots[1] < 1e-10

    def test_atom_laws_fail_from_their_atom_count(self):
        # a law on n points has singular H_j from j = n on
        for atoms in ((1.0,), (1.0, 2.0), (1.0, 2.0, 3.0)):
            seq = MomentSequence(np.mean([a ** np.arange(9) for a in atoms], axis=0), "atoms")
            n = len(atoms)
            assert per_order_hankel(seq, 4)[1] == [True] * n + [False] * (5 - n)

    @pytest.mark.parametrize("a_prime", [0.25, 0.5])
    def test_fkp_positive_definite_to_order_four(self, a_prime):
        pivots, flags = per_order_hankel(fkp_moments(a_prime, 8), 4)
        assert all(flags)
        assert all(p > 0.0 for p in pivots)

    def test_rayleigh_oracle_cholesky_agrees(self):
        # independent factorization route for the same matrix
        vals = rayleigh_closed_form(8)
        idx = np.arange(5)
        h = vals[idx[:, None] + idx[None, :]]
        np.linalg.cholesky(h)  # raises if not PD
        seq = MomentSequence(vals, "rayleigh(1)")
        assert all(per_order_hankel(seq, 4)[1])
