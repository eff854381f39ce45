"""Tests for the seeded samplers, the tree-recursion simulator and the
empirical checks.

Seeds are fixed and were verified once; every assertion below is
deterministic.  Statistical gates are 3 standard errors.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import erf

from limitlaw import (
    SplitKernel,
    enumerate_tree_costs,
    mittag_leffler_moments,
    mittag_leffler_samples,
    positive_stable_samples,
    rayleigh_samples,
    sample_mittag_leffler,
    sample_positive_stable,
    sample_rayleigh,
    scale_free_ratio_check,
    simulate_tree_cost,
    stable_laplace_check,
    summarize,
    tree_cost_samples,
)
from limitlaw.montecarlo import _ExactSum

RAYLEIGH_SEED = 20260810
ML_SEED = 424242
STABLE_SEED = 777
TREE_SEED = 1139

N_MODULE = 200_000  # module-scale sample count; acceptance reruns at 1e6


def rayleigh_closed_form(s_max, sigma=1.0):
    s = np.arange(s_max + 1)
    return sigma**s * 2.0 ** (s / 2.0) * np.array([math.gamma(1.0 + k / 2.0) for k in s])


def z_scores(summary, target):
    return np.abs(summary.moments[1:] - target[1:]) / summary.standard_errors[1:]


class TestDeterminism:
    def test_bit_identical_runs(self):
        a = sample_rayleigh(1.0, 50_000, 3)
        b = sample_rayleigh(1.0, 50_000, 3)
        assert np.array_equal(a.moments, b.moments)
        assert np.array_equal(a.standard_errors, b.standard_errors)
        assert a.to_json() == b.to_json()

    def test_thread_count_does_not_change_results(self):
        one = sample_mittag_leffler(0.5, 150_000, 9, threads=1)
        four = sample_mittag_leffler(0.5, 150_000, 9, threads=4)
        assert np.array_equal(one.moments, four.moments)
        assert np.array_equal(one.standard_errors, four.standard_errors)

    def test_tree_threads_deterministic(self):
        one = simulate_tree_cost(SplitKernel.uniform(), 1.0, 12, 80_000, 5, threads=1)
        three = simulate_tree_cost(SplitKernel.uniform(), 1.0, 12, 80_000, 5, threads=3)
        assert np.array_equal(one.moments, three.moments)

    def test_different_seeds_differ(self):
        a = sample_rayleigh(1.0, 10_000, 1)
        b = sample_rayleigh(1.0, 10_000, 2)
        assert not np.array_equal(a.moments, b.moments)


FINITE = st.floats(allow_nan=False, allow_infinity=False)  # subnormals, +-0.0, +-1.8e308
BLOCK_EDGE_LENGTHS = (1, 65535, 65536, 65537, 3 * 65536 + 1)


def exact_reference(xs):
    """Correctly rounded exact sum from float.as_integer_ratio, or None when
    it overflows a double."""
    unit = 1 << 1074  # every double is an integer multiple of 2**-1074
    total = sum(p * (unit // q) for p, q in map(float.as_integer_ratio, xs))
    try:
        return total / unit
    except OverflowError:
        return None


def assert_matches_fsum(xs):
    x = np.array(xs, dtype=float)
    acc = _ExactSum()
    acc.add(x)
    try:
        got = acc.value()
    except OverflowError:
        got = None
    try:
        expected = math.fsum(x.tolist())
    except OverflowError:
        # fsum also overflows when a partial sum leaves the double range but
        # the exact total does not; the exact sum then still holds
        expected = exact_reference(x.tolist())
    assert (None if got is None else got.hex()) == (
        None if expected is None else expected.hex()
    )


class TestExactSum:
    @given(st.lists(FINITE, min_size=1, max_size=60))
    @example([5e-324])
    @example([-0.0])
    @example([-0.0, -0.0, 0.0])
    @example([5e-324, -5e-324, 2.2250738585072014e-308, -1e-320])
    @example([1e308, 1e308])
    @example([-1e308, -1e308])
    @example([1e308, 1e308, -1e308])
    @example([1.7976931348623157e308, 9.979201547673598e291])
    @example([1.7976931348623157e308, 9.979201547673599e291])
    @example([1.0, 1e100, 1.0, -1e100])
    @settings(max_examples=300)
    def test_matches_fsum(self, xs):
        assert_matches_fsum(xs)

    @given(
        pool=st.lists(FINITE, min_size=1, max_size=6),
        length=st.sampled_from(BLOCK_EDGE_LENGTHS),
        emin=st.integers(-1074, 1023),
        width=st.integers(0, 2100),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_fsum_across_block_edges(self, pool, length, emin, width, seed):
        rng = np.random.default_rng(seed)
        exps = rng.integers(emin, min(emin + width, 1023), endpoint=True, size=length)
        x = np.ldexp(rng.uniform(-1.0, 1.0, length), exps)  # mixed signs
        picked = rng.random(length) < 0.25
        x[picked] = rng.choice(np.array(pool), int(picked.sum()))
        assert_matches_fsum(x)

    @pytest.mark.parametrize("s", [1, 2, 4, 8, 16])
    def test_powers_of_a_sample(self, s):
        x = rayleigh_samples(1.0, 3 * 65536 + 1, RAYLEIGH_SEED) ** s
        assert_matches_fsum(x)
        assert_matches_fsum(x * x)

    def test_split_between_adds_does_not_matter(self):
        x = np.ldexp(np.random.default_rng(3).uniform(-1.0, 1.0, 70_000), 40)
        whole, parts = _ExactSum(), _ExactSum()
        whole.add(x)
        for piece in np.array_split(x, [1, 300, 65_000]):
            parts.add(piece)
        assert whole.value() == parts.value() == math.fsum(x)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_values(self, bad):
        acc = _ExactSum()
        with pytest.raises(OverflowError):
            acc.add(np.array([1.0, bad, 2.0]))


class TestSummarize:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(17)
        x = rng.random(5000) + 0.5
        summary = summarize(x, 4, 17, "reference")
        for s in range(1, 5):
            assert summary.moments[s] == pytest.approx(float(np.mean(x**s)), rel=1e-12)
            se = float(np.std(x**s, ddof=1) / math.sqrt(x.size))
            assert summary.standard_errors[s] == pytest.approx(se, rel=1e-9)

    def test_m0_is_one_and_se_nonnegative(self):
        summary = summarize(np.ones(10), 3, 0, "unit")
        assert summary.moments[0] == 1.0
        assert np.all(summary.standard_errors >= 0.0)
        assert np.all(summary.standard_errors == 0.0)  # constant sample

    def test_single_observation(self):
        summary = summarize(np.array([2.0]), 2, 0, "single")
        assert summary.moments[1] == 2.0
        assert summary.standard_errors[1] == 0.0

    def test_non_finite_summary_names_first_order(self):
        # (1e100**2)**2 overflows, so order 2 has no finite standard error
        with pytest.raises(OverflowError, match="order 2"):
            summarize(np.array([1e100, 2.0]), 4, 0, "huge")

    def test_overflowing_sum_names_its_order(self):
        with pytest.raises(OverflowError, match="order 1"):
            summarize(np.full(3, 1.5e308), 1, 0, "huge")


class TestRayleigh:
    def test_moments_within_three_se(self):
        summary = sample_rayleigh(1.0, N_MODULE, RAYLEIGH_SEED)
        assert np.all(z_scores(summary, rayleigh_closed_form(4)) <= 3.0)

    def test_scaled_moments(self):
        summary = sample_rayleigh(2.0, N_MODULE, RAYLEIGH_SEED)
        assert np.all(z_scores(summary, rayleigh_closed_form(4, sigma=2.0)) <= 3.0)

    def test_all_samples_positive(self):
        x = rayleigh_samples(2.0, 100_000, 11)
        assert np.all(x > 0.0)

    def test_convergence_with_larger_n(self):
        # the 3-se envelope keeps holding while se shrinks ~1/sqrt(2)
        small = sample_rayleigh(1.0, N_MODULE, RAYLEIGH_SEED)
        large = sample_rayleigh(1.0, 2 * N_MODULE, RAYLEIGH_SEED)
        target = rayleigh_closed_form(4)
        assert np.all(z_scores(large, target) <= 3.0)
        assert np.all(large.standard_errors[1:] < small.standard_errors[1:])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sample_rayleigh(0.0, 100, 0)
        with pytest.raises(ValueError):
            sample_rayleigh(1.0, 0, 0)


class TestPositiveStable:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
    def test_laplace_transform_checks(self, alpha):
        report = stable_laplace_check(alpha, (1.0, 2.0), N_MODULE, STABLE_SEED)
        assert report.passed
        assert report.deviations.size == 2

    def test_all_samples_positive(self):
        x = positive_stable_samples(0.5, 100_000, 13)
        assert np.all(x > 0.0)

    def test_half_alpha_matches_inverse_gamma_route(self):
        # S = 1/(4G) with G ~ Gamma(1/2, 1): same Laplace transform target
        x = positive_stable_samples(0.5, N_MODULE, STABLE_SEED)
        emp = float(np.mean(np.exp(-x)))
        assert emp == pytest.approx(math.exp(-1.0), abs=4.0 * np.std(np.exp(-x)) / math.sqrt(x.size))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.3])
    def test_boundary_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            sample_positive_stable(alpha, 100, 0)


class TestMittagLeffler:
    def test_moments_within_three_se(self):
        summary = sample_mittag_leffler(0.5, N_MODULE, ML_SEED)
        target = mittag_leffler_moments(0.5, 4).values
        assert np.all(z_scores(summary, target) <= 3.0)

    def test_kolmogorov_smirnov_against_half_normal(self):
        x = mittag_leffler_samples(0.5, 1_000_000, ML_SEED)
        ks = stats.kstest(x, lambda t: erf(t / 2.0))
        assert ks.statistic < 0.002

    def test_all_samples_positive(self):
        x = mittag_leffler_samples(0.75, 50_000, 23)
        assert np.all(x > 0.0)

    def test_convergence_with_larger_n(self):
        target = mittag_leffler_moments(0.5, 4).values
        large = sample_mittag_leffler(0.5, 2 * N_MODULE, ML_SEED)
        small = sample_mittag_leffler(0.5, N_MODULE, ML_SEED)
        assert np.all(z_scores(large, target) <= 3.0)
        assert np.all(large.standard_errors[1:] < small.standard_errors[1:])


class TestStableConvergence:
    def test_laplace_envelope_tightens_with_n(self):
        small = stable_laplace_check(0.5, (1.0, 2.0), N_MODULE, STABLE_SEED)
        large = stable_laplace_check(0.5, (1.0, 2.0), 2 * N_MODULE, STABLE_SEED)
        assert small.passed and large.passed
        small_se = [v["standard_error"] for k, v in small.params.items() if k.startswith("lambda")]
        large_se = [v["standard_error"] for k, v in large.params.items() if k.startswith("lambda")]
        assert all(b < a for a, b in zip(small_se, large_se))


class TestSplitKernel:
    def test_uniform_probs(self):
        k = SplitKernel.uniform()
        assert np.allclose(k.probs(5), 0.25)
        assert k.covers(10**6)

    def test_table_validation_sum(self):
        with pytest.raises(ValueError, match="sum"):
            SplitKernel.from_table({3: [0.5, 0.6]})

    def test_table_validation_length(self):
        with pytest.raises(ValueError, match="probabilities"):
            SplitKernel.from_table({4: [1.0]})

    def test_table_validation_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SplitKernel.from_table({3: [1.5, -0.5]})

    def test_missing_size_named(self):
        kernel = SplitKernel.from_table({2: [1.0], 4: [0.5, 0.25, 0.25]})
        with pytest.raises(ValueError, match="size 3"):
            tree_cost_samples(kernel, 0.0, 4, 100, 0)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "kernel.csv"
        path.write_text(
            "n,k,probability\n2,1,1.0\n3,1,0.25\n3,2,0.75\n4,1,0.5\n4,2,0.25\n4,3,0.25\n"
        )
        kernel = SplitKernel.from_csv(path)
        assert np.allclose(kernel.probs(3), [0.25, 0.75])
        assert np.allclose(kernel.probs(4), [0.5, 0.25, 0.25])

    def test_csv_rejects_out_of_range_split(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,k,probability\n3,3,1.0\n")
        with pytest.raises(ValueError, match="outside"):
            SplitKernel.from_csv(path)

    @pytest.mark.parametrize("row", ["3,1", "3", "3,1,x"])
    def test_csv_rejects_malformed_row(self, tmp_path, row):
        path = tmp_path / "short.csv"
        path.write_text(f"n,k,probability\n2,1,1.0\n{row}\n")
        with pytest.raises(ValueError, match=f"kernel row 3 '{row}'"):
            SplitKernel.from_csv(path)

    def test_draw_stays_in_support(self):
        kernel = SplitKernel.uniform()
        u = np.linspace(0.0, 1.0 - 1e-16, 1001)
        sizes = np.full(u.size, 7)
        k = kernel.draw(sizes, u)
        assert k.min() >= 1
        assert k.max() <= 6


class TestTreeSimulation:
    def test_single_node_cost_is_one(self):
        y = tree_cost_samples(SplitKernel.uniform(), 3.0, 1, 1000, 0)
        assert np.all(y == 1.0)

    def test_chain_kernel_unit_tolls(self):
        # P(K_n = n-1) = 1 with a = 0 walks n -> n-1 -> ... -> 1: cost n
        n = 6
        table = {m: [0.0] * (m - 2) + [1.0] for m in range(2, n + 1)}
        kernel = SplitKernel.from_table(table)
        y = tree_cost_samples(kernel, 0.0, n, 500, 0)
        assert np.all(y == float(n))

    def test_enumeration_matches_hand_computation(self):
        values, probs = enumerate_tree_costs(SplitKernel.uniform(), 0.0, 4)
        # paths from 4: ->1 (1/3, cost 2), ->2->1 (1/3, cost 3),
        # ->3->1 (1/6, cost 3), ->3->2->1 (1/6, cost 4)
        assert values.tolist() == [2.0, 3.0, 4.0]
        assert probs == pytest.approx([1.0 / 3.0, 0.5, 1.0 / 6.0])

    def test_enumeration_probabilities_sum_to_one(self):
        for a in (0.0, 1.0, 0.5):
            _, probs = enumerate_tree_costs(SplitKernel.uniform(), a, 7)
            assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_simulator_matches_enumeration(self, a):
        values, probs = enumerate_tree_costs(SplitKernel.uniform(), a, 4)
        y = tree_cost_samples(SplitKernel.uniform(), a, 4, N_MODULE, TREE_SEED)
        emp = np.array([(y == v).mean() for v in values])
        tv = 0.5 * float(np.abs(emp - probs).sum()) + 0.5 * max(0.0, 1.0 - emp.sum())
        assert tv < 0.01

    def test_support_is_subset_of_enumeration(self):
        values, _ = enumerate_tree_costs(SplitKernel.uniform(), 1.0, 5)
        y = tree_cost_samples(SplitKernel.uniform(), 1.0, 5, 20_000, 3)
        assert set(np.unique(y)).issubset(set(values.tolist()))

    def test_summary_moments(self):
        summary = simulate_tree_cost(SplitKernel.uniform(), 0.0, 4, 50_000, TREE_SEED)
        values, probs = enumerate_tree_costs(SplitKernel.uniform(), 0.0, 4)
        exact_mean = float(np.dot(values, probs))
        assert abs(summary.moments[1] - exact_mean) <= 3.0 * summary.standard_errors[1]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tree_cost_samples(SplitKernel.uniform(), -1.0, 4, 10, 0)
        with pytest.raises(ValueError):
            tree_cost_samples(SplitKernel.uniform(), 0.0, 4, 0, 0)


class TestScaleFreeRatioCheck:
    def test_rayleigh_against_matching_exponent(self):
        summary = sample_rayleigh(1.0, N_MODULE, RAYLEIGH_SEED)
        report = scale_free_ratio_check(summary, 0.5)
        assert report.passed

    def test_ratio_targets(self):
        summary = sample_rayleigh(1.0, 10_000, 1)
        report = scale_free_ratio_check(summary, 0.5)
        assert report.params["ratio_2"]["target"] == pytest.approx(4.0 / math.pi, rel=1e-12)

    def test_scale_invariance(self):
        # the ratios do not see sigma, so any sigma passes against a' = 1/2
        summary = sample_rayleigh(3.7, N_MODULE, RAYLEIGH_SEED)
        assert scale_free_ratio_check(summary, 0.5).passed

    def test_point_mass_fails(self):
        summary = summarize(np.full(1000, 2.0), 4, 0, "point-mass")
        report = scale_free_ratio_check(summary, 0.5)
        assert not report.passed
        assert math.isinf(report.max_deviation)

    def test_wrong_exponent_fails(self):
        summary = sample_rayleigh(1.0, N_MODULE, RAYLEIGH_SEED)
        assert not scale_free_ratio_check(summary, 2.0).passed

    def test_requires_third_moment(self):
        summary = summarize(np.arange(1.0, 100.0), 2, 0, "short")
        with pytest.raises(ValueError):
            scale_free_ratio_check(summary, 0.5)


class TestSampleSummarySerialization:
    def test_json_shape(self):
        summary = sample_rayleigh(1.0, 1000, 5)
        payload = json.loads(summary.to_json())
        assert payload["sampler"] == "rayleigh"
        assert payload["seed"] == 5
        assert payload["n"] == 1000
        assert len(payload["moments"]) == 5
        assert payload["moments"][0] == 1.0
