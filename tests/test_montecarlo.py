"""Tests for the seeded samplers, the tree-recursion simulator and the
empirical checks.

Seeds are fixed and were verified once; every assertion below is
deterministic.  Statistical gates are 3 standard errors.
"""

import functools
import json
import math
import re
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import erf

from limitlaw import (
    SampleSummary,
    SplitKernel,
    enumerate_tree_costs,
    mittag_leffler_moments,
    mittag_leffler_samples,
    positive_stable_samples,
    rayleigh_samples,
    sample_mittag_leffler,
    sample_rayleigh,
    scale_free_ratio_check,
    simulate_tree_cost,
    stable_laplace_check,
    summarize,
    tree_cost_samples,
)
from limitlaw import montecarlo
from limitlaw.montecarlo import (
    _BINS,
    _CHUNK,
    _SUM_SCALE,
    _binned_sum,
    _bins_total,
    _bucket,
    _chunk_rng,
    _exact_sums,
    _layout,
    _workspace,
)

RAYLEIGH_SEED = 20260810
ML_SEED = 424242
STABLE_SEED = 777
TREE_SEED = 1139

N_MODULE = 200_000  # module-scale sample count; acceptance reruns at 1e6

DATA = Path(__file__).parent / "data"


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
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

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


def binned_total(x):
    """Exact sum of x in units of 1 / _SUM_SCALE, from the bins that
    _binned_sum fills with its _CHUNK blocks."""
    bins, work = np.zeros((2, _BINS)), _workspace()
    for start in range(0, x.size, _CHUNK):
        _binned_sum(bins, x[start : start + _CHUNK], work)
    return _bins_total(bins)


def exact_units(x):
    """x in units of 1 / _SUM_SCALE, from float.as_integer_ratio."""
    p, q = float(x).as_integer_ratio()
    return p * (_SUM_SCALE // q)


def assert_matches_fsum(xs):
    x = np.array(xs, dtype=float)
    try:
        got = binned_total(x) / _SUM_SCALE  # int / int rounds correctly
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
        parts = sum(binned_total(piece) for piece in np.array_split(x, [1, 300, 65_000]))
        assert binned_total(x) == parts
        assert binned_total(x) / _SUM_SCALE == math.fsum(x)

    def test_sums_sharing_work_arrays(self):
        # interleaved blocks of several sizes, as _exact_sums bins them
        rng = np.random.default_rng(5)
        work = _workspace()
        a, b = np.zeros((2, _BINS)), np.zeros((2, _BINS))
        xs = [np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-60, 60, n))
              for n in (65_536, 17, 65_536, 40_000)]
        for x in xs:
            _binned_sum(a, x, work)
            _binned_sum(b, x * x, work)
        whole = np.concatenate(xs)
        assert _bins_total(a) / _SUM_SCALE == math.fsum(whole)
        assert _bins_total(b) / _SUM_SCALE == math.fsum(whole * whole)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_values(self, bad):
        x = np.array([1.0, bad, 2.0])
        bins = np.zeros((2, _BINS))
        _binned_sum(bins, x, _workspace())
        with pytest.raises(OverflowError):
            _bins_total(bins)
        assert _exact_sums(chunks_returning([x, x]), lambda block: iter([block]), 1) == [None]

    @pytest.mark.parametrize(
        "x", [1.7976931348623157e308, -1.7976931348623157e308, -2.225073858507201e-308,
              5e-324, 1.0 - 2.0**-53]
    )
    def test_bins_to_int_at_the_bound(self, x):
        # the bins of 2**26 copies of x: every add is exact, so they are
        # 2**26 times the bins of one copy; all fraction bits set gives the
        # largest hi and lo sums a bin can hold
        bins = np.zeros((2, _BINS))
        _binned_sum(bins, np.array([x]), _workspace())
        bins *= 2.0**26
        assert _bins_total(bins) == 2**26 * exact_units(x)

    def test_bins_hold_the_bound_and_turn_into_ints_past_it(self):
        # 2**26 copies of the largest double fill its bin to just below
        # overflow; the next block makes the worker that bins it turn its
        # bins into an int first.  Chunk 0 is held until the last chunk is
        # drawn, so the other worker bins all the rest
        block = np.full(_CHUNK, 1.7976931348623157e308)
        for blocks in (1024, 1025):
            chunks = one_worker_takes_the_rest([block] * (1 + blocks))
            totals = _exact_sums(chunks, lambda x: iter([x]), 1)
            assert totals == [(1 + blocks) * _CHUNK * exact_units(block[0])]

    def test_square_is_the_second_power(self):
        # _summary's ladder squares order s to get order 2s, whose sum is
        # also order s's square sum; order 2's values, np.square(x), are
        # x**2, so order 2's mean and order 1's error are the plain power's
        rng = np.random.default_rng(11)
        x = rng.integers(0, 2**64, 1 << 16, dtype=np.uint64).view(float)
        x = np.concatenate([x[~np.isnan(x)], [0.0, -0.0, 5e-324, np.inf, -np.inf],
                            mittag_leffler_samples(0.5, 1000, ML_SEED)])
        with np.errstate(over="ignore", under="ignore"):
            assert (x**2).tobytes() == np.square(x).tobytes()


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

    @pytest.mark.parametrize(
        "values, s_max, order",
        [([1e100, 2.0], 4, 2),  # (1e100**2)**2 overflows: order 2 has no finite error
         ([1e100, 3.0], 4, 2),
         ([1e160, 2.0], 2, 1)],  # 1e160**2 is order 1's square and order 2's value
    )
    def test_non_finite_summary_names_first_order(self, values, s_max, order):
        with pytest.raises(OverflowError, match=f"^moment of order {order} "):
            summarize(np.array(values), s_max, 0, "huge")

    def test_overflowing_sum_names_its_order(self):
        with pytest.raises(OverflowError, match="order 1"):
            summarize(np.full(3, 1.5e308), 1, 0, "huge")

    def test_first_failing_order_named_across_blocks(self):
        x = np.ones(3 * _CHUNK)
        x[0] = 1e60  # block 0: the square of x**3 overflows
        x[2 * _CHUNK] = 1e100  # block 2: the square of x**2 overflows
        message = "^moment of order 2 is not finite: a value, its square or a sum overflows$"
        with pytest.raises(OverflowError, match=message):
            summarize(x, 4, 0, "huge")

    def test_overflowing_sum_named_before_higher_order_value(self):
        # order 1's sum overflows only once it is rounded, after every block
        # has been read; order 2's square fails in the first block
        with pytest.raises(OverflowError, match="order 1 "):
            summarize(np.full(3, 1.5e308), 2, 0, "huge")

    def test_underflowing_squares_name_their_order(self):
        # 1e-170**2 underflows to 0, so n sum(x^2) = 0 < (sum x)^2 at order 1
        message = "^moment of order 1 has no standard error: its squares underflow$"
        with pytest.raises(ArithmeticError, match=message):
            summarize(np.full(3, 1e-170), 2, 0, "tiny")

    def test_one_underflowing_square_keeps_the_error(self):
        # the squares that do not underflow carry the spread
        summary = summarize(np.array([1e-170, 1.0, 2.0]), 1, 0, "mixed")
        assert summary.standard_errors[1] == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-15)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("value", [1.0000609882437614, 1.415115707903286])
    def test_squares_rounded_down_are_not_refused(self, value, n):
        # value**2 rounds down by 0.996 and 0.997 of the 2**-53 relative step
        # that rounding allows, so n sum(x^2) < (sum x)^2: the refusal must
        # leave this to an error of +0.0, not take it for an underflow
        assert Fraction(value * value) < Fraction(value) ** 2
        error = summarize(np.full(n, value), 1, 0, "constant").standard_errors[1]
        assert (error, math.copysign(1.0, error)) == (0.0, 1.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError, match="s_max must be >= 1"):
            summarize(np.ones(3), 0, 0, "unit")

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError, match="^values must be non-empty$"):
            summarize(np.array([]), 2, 0, "empty")

    @pytest.mark.parametrize(
        "values, shape", [(np.ones((3, 4)), r"\(3, 4\)"), (np.float64(3.0), r"\(\)")],
        ids=["2-d", "0-d"],
    )
    def test_rejects_values_that_are_not_1d(self, monkeypatch, values, shape):
        # refused before any block is summed; numpy's broadcast error and an
        # IndexError used to name no shape
        monkeypatch.setattr(montecarlo, "_exact_sums", None)
        with pytest.raises(ValueError, match=rf"^values must be 1-D, got shape {shape}$"):
            summarize(values, 2, 0, "a")

    @pytest.mark.parametrize(
        "moments, errors, message",
        [([2.0, 1.0], [0.0, 0.1], "^empirical m_0 must be 1$"),
         ([1.0, 1.0], [0.0, -0.1], "^standard errors must be nonnegative$")],
    )
    def test_summary_refuses_bad_fields(self, moments, errors, message):
        with pytest.raises(ValueError, match=message):
            SampleSummary("bad", 10, 0, moments, errors)


# exact_sum's unit is 2**-EXACT_BITS: a subnormal's frexp digits shift left
EXACT_BITS = 1074 + 53


def exact_sum(v):
    """The exact sum of the float array v, an integer in units of
    2**-EXACT_BITS, from each value's 53 frexp digits summed per exponent."""
    mantissa, exponent = np.frexp(v)
    digits = (mantissa * 2.0**53).astype(np.int64)  # exact: |mantissa| < 1
    return sum(
        sum(digits[exponent == e].tolist()) << (e - 53 + EXACT_BITS)
        for e in np.unique(exponent).tolist()
    )


def exact_standard_error(v):
    """sqrt((n sum(v^2) - (sum v)^2) / (n^2 (n - 1))), the squared error
    rounded once from exact sums of v and of its rounded squares."""
    n = v.size
    if n < 2:
        return 0.0
    s1, s2, unit = exact_sum(v), exact_sum(v * v), 2**EXACT_BITS
    return math.sqrt(max((n * s2 * unit - s1 * s1) / (unit * unit * n * n * (n - 1)), 0.0))


def exact_mean(v):
    """The exact sum of the float array v over its size, rounded once."""
    return float(Fraction(exact_sum(v), 2**EXACT_BITS * v.size))


def ladder_power(values, s):
    """Order s's values on the power ladder, built for this order alone:
    values**s for odd s, the square of order s / 2's values for even s."""
    if s % 2:
        return values**s
    return np.square(ladder_power(values, s // 2))


def reference_summarize(values, s_max):
    """Moments and standard errors one order at a time: the exact mean of
    order s's ladder values and their exact standard error."""
    moments, errors = [1.0], [0.0]
    for s in range(1, s_max + 1):
        v = ladder_power(values, s)
        moments.append(exact_mean(v))
        errors.append(exact_standard_error(v))
    return np.array(moments), np.array(errors)


def one_pass_sample(sampler, n):
    if sampler == "rayleigh":
        return rayleigh_samples(1.0, n, RAYLEIGH_SEED)
    if sampler == "mittag-leffler":
        return mittag_leffler_samples(0.5, n, ML_SEED)
    return tree_cost_samples(SplitKernel.uniform(), 0.5, 20, n, TREE_SEED)


class TestOnePassSummarize:
    @pytest.mark.parametrize("s_max", [1, 4, 8])
    @pytest.mark.parametrize("n", BLOCK_EDGE_LENGTHS[:1] + (2,) + BLOCK_EDGE_LENGTHS[1:])
    @pytest.mark.parametrize("sampler", ["rayleigh", "mittag-leffler", "tree"])
    def test_matches_per_order_reference(self, sampler, n, s_max):
        x = one_pass_sample(sampler, n)
        summary = summarize(x, s_max, 0, sampler)
        moments, errors = reference_summarize(x, s_max)
        assert summary.moments.tobytes() == moments.tobytes()
        assert summary.standard_errors.tobytes() == errors.tobytes()

    @pytest.mark.parametrize("sampler", ["rayleigh", "mittag-leffler"])
    def test_each_mean_is_rounded_once(self, sampler):
        # the exact sum rounded to a double and then divided by n rounds
        # twice, and differs from this by one ulp in some of these means
        x = one_pass_sample(sampler, 1000)
        summary = summarize(x, 4, 0, sampler)
        for s in range(1, 5):
            total = sum(map(Fraction, ladder_power(x, s).tolist()))
            assert summary.moments[s] == float(total / x.size)

    @pytest.mark.parametrize("sampler", ["rayleigh", "mittag-leffler", "tree"])
    def test_odd_orders_and_low_errors_are_the_plain_powers(self, sampler):
        # the ladder takes x**o for odd o and squares only to reach even
        # orders; np.square(x) is x**2 and np.square(x**2) is (x**2)**2, so
        # odd orders, order 2 and the standard errors of orders 1-3 are
        # those of the plain powers x**s, byte for byte.  A one-ulp change in
        # some values seldom moves a sum rounded once, so each value is also
        # summarised on its own, twice: its mean is its power and its error
        # the rounding error of the power's square
        x = one_pass_sample(sampler, 3 * _CHUNK + 1)
        for v in (x, *(np.full(2, a) for a in x[:200])):
            summary = summarize(v, 12, 0, sampler)
            for s in range(1, 13):
                if s % 2 or s == 2:
                    assert summary.moments[s].hex() == exact_mean(v**s).hex()
                if s <= 3:
                    assert summary.standard_errors[s].hex() == exact_standard_error(v**s).hex()

    @pytest.mark.parametrize("s_max", range(1, 13))
    def test_sums_per_block(self, monkeypatch, s_max):
        # each odd order starts a chain o, 2o, 4o, ...; every array on it is
        # summed once, plus one square past its top order: S + ceil(S/2)
        calls = []

        def counted(bins, block, work):
            calls.append(block.size)
            _binned_sum(bins, block, work)

        monkeypatch.setattr(montecarlo, "_binned_sum", counted)
        x = one_pass_sample("rayleigh", 2 * _CHUNK + 1)
        summarize(x, s_max, 0, "rayleigh")
        per_block = s_max + (s_max + 1) // 2
        # the two workers bin the blocks in either order
        assert sorted(calls) == [1] * per_block + [_CHUNK] * per_block * 2

    def test_constant_sample_clamps_its_error_at_zero(self):
        # 0.7**2 rounds down, so n sum(x^2) - (sum x)^2 is below 0 here
        x = np.full(1000, 0.7)
        assert x.size * exact_sum(x * x) * 2**EXACT_BITS < exact_sum(x) ** 2
        assert summarize(x, 1, 0, "constant").standard_errors.tolist() == [0.0, 0.0]

    def test_laplace_check_matches_per_lambda_reference(self):
        n, lambdas = 3 * _CHUNK + 1, (0.5, 1.0, 2.0)
        report = stable_laplace_check(0.5, lambdas, n, STABLE_SEED)
        s = positive_stable_samples(0.5, n, STABLE_SEED)
        for lam, dev in zip(lambdas, report.deviations):
            v = np.exp(-lam * s)
            mean = exact_mean(v)
            assert dev == abs(mean - math.exp(-(lam**0.5))) / exact_standard_error(v)


STREAM_LENGTHS = (1, 65535, 65536, 65537, 3 * 65536 + 5)


def streamed_and_materialised(sampler, n, s_max=4):
    """The summary a sampler's consumer reduces chunk by chunk, and
    ``summarize`` of the same sample drawn as one array."""
    if sampler == "rayleigh":
        return (sample_rayleigh(1.0, n, RAYLEIGH_SEED, s_max),
                summarize(rayleigh_samples(1.0, n, RAYLEIGH_SEED), s_max, RAYLEIGH_SEED,
                          "rayleigh", {"sigma": 1.0}))
    if sampler == "mittag-leffler":
        return (sample_mittag_leffler(0.5, n, ML_SEED, s_max),
                summarize(mittag_leffler_samples(0.5, n, ML_SEED), s_max, ML_SEED,
                          "mittag-leffler", {"alpha": 0.5}))
    kernel, size = {
        "tree-uniform": (SplitKernel.uniform(), 20),
        "tree-sparse-30": (SplitKernel.from_csv(DATA / "kernel-sparse-30.csv"), 30),
    }[sampler]
    params = {"a": 0.5, "n": size, "kernel": kernel.family}
    return (simulate_tree_cost(kernel, 0.5, size, n, TREE_SEED, s_max),
            summarize(tree_cost_samples(kernel, 0.5, size, n, TREE_SEED), s_max, TREE_SEED,
                      "tree", params))


class TestStreamedSummary:
    """The samplers' consumers reduce each chunk as it is drawn; the exact
    sums make that the summary of the whole sample, bit for bit."""

    @pytest.mark.parametrize("n", STREAM_LENGTHS)
    @pytest.mark.parametrize(
        "sampler", ["rayleigh", "mittag-leffler", "tree-uniform", "tree-sparse-30"]
    )
    def test_equals_summary_of_the_sample_array(self, sampler, n):
        streamed, materialised = streamed_and_materialised(sampler, n)
        assert streamed.n == materialised.n == n
        assert streamed.moments.tobytes() == materialised.moments.tobytes()
        assert streamed.standard_errors.tobytes() == materialised.standard_errors.tobytes()
        assert json.dumps(streamed.to_dict()) == json.dumps(materialised.to_dict())

    def test_overflow_names_the_same_order_without_a_warning(self):
        n = 3 * _CHUNK + 5
        message = "^moment of order 2 is not finite: a value, its square or a sum overflows$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=message):
                sample_rayleigh(1e100, n, RAYLEIGH_SEED, 4)
            with pytest.raises(OverflowError, match=message):
                summarize(rayleigh_samples(1e100, n, RAYLEIGH_SEED), 4, RAYLEIGH_SEED, "r")

    def test_chunk_generators_are_one_spawn(self):
        # chunk i's generator, seeded from its spawn key alone, draws the
        # stream of child i of one spawn(k)
        by_index = [_chunk_rng(5, i).random(3).tolist() for i in range(4)]
        spawned = [np.random.default_rng(ss).random(3).tolist()
                   for ss in np.random.SeedSequence(5).spawn(4)]
        assert by_index == spawned

    def test_memory_is_flat_in_n(self):
        def peak(n):
            tracemalloc.start()
            try:
                sample_rayleigh(1.0, n, RAYLEIGH_SEED, 4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2 * _CHUNK)  # first-call allocations that stay for the process
        small, large = peak(1 << 20), peak(1 << 22)
        assert large < 8 << 20
        assert abs(large - small) < 1 << 20


def blocks_of(x):
    return (x[start : start + _CHUNK] for start in range(0, x.size, _CHUNK))


def chunks_returning(blocks, delay=None):
    """One zero-argument chunk callable per block, as ``_run_chunks`` makes
    them; with ``delay``, chunk i sleeps ``delay(i)`` seconds first."""

    def chunk(i, block):
        if delay is not None:
            time.sleep(delay(i))
        return block

    return [functools.partial(chunk, i, block) for i, block in enumerate(blocks)]


def one_worker_takes_the_rest(blocks):
    """Chunks returning ``blocks``; chunk 0 waits until the last chunk is
    drawn, so the worker that claims it draws no other chunk."""
    last_drawn = threading.Event()

    def first():
        assert last_drawn.wait(timeout=120)
        return blocks[0]

    def last():
        last_drawn.set()
        return blocks[-1]

    return [first, *chunks_returning(blocks[1:-1]), last]


def three_terms(x):
    """x, its square and its cube, the last two in one array made per block
    and overwritten in place, as ``_summary``'s ladder does."""
    yield x
    v = np.square(x)
    yield v
    yield np.power(x, 3, out=v)


def sequential_sums(blocks, terms, k):
    """``_exact_sums`` as a plain loop on this thread: each array binned on
    its own into fresh bins, turned into an int at once and added; None for
    a sum over a non-finite value."""
    totals, work = [0] * k, _workspace()
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            for t, values in enumerate(terms(block)):
                bins = np.zeros((2, _BINS))
                _binned_sum(bins, values, work)
                try:
                    totals[t] = None if totals[t] is None else totals[t] + _bins_total(bins)
                except OverflowError:
                    totals[t] = None
    return totals


def wide_sample(seed, n):
    """n doubles of both signs over exponents -340..340."""
    rng = np.random.default_rng(seed)
    return np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-340, 340, n))


class TestPipeline:
    """``_exact_sums`` draws and bins whole chunks on two workers, this
    thread and one helper; its sums are those of the sequential loop."""

    @pytest.mark.parametrize("bin_values", [None, 3 * _CHUNK], ids=["default", "3-chunks"])
    @pytest.mark.parametrize("n", STREAM_LENGTHS)
    def test_equals_the_sequential_reduction(self, monkeypatch, n, bin_values):
        # Binning is slowed past the time a draw takes, so a flush that did
        # not wait for its own worker's binning would find it binning.  Each
        # worker that drew a chunk flushes at the end and, with 3 * _CHUNK
        # values per flush, before a chunk that would take its bins past them
        x = wide_sample(n, n)
        binning, flushes, drawn_by = {}, [], {}

        def slow_draws():
            def draw(i, block):
                time.sleep(0.005)
                drawn_by[i] = threading.get_ident()
                return block

            return [functools.partial(draw, i, b) for i, b in enumerate(blocks_of(x))]

        def slow(bins, block, work):
            binning[id(bins)] = bins
            time.sleep(0.005)
            _binned_sum(bins, block, work)
            del binning[id(bins)]

        def counted(bins):
            assert not any(np.shares_memory(bins, part) for part in list(binning.values())), (
                "the bins were read while a block was binned"
            )
            flushes.append(bins.shape)
            return _bins_total(bins)

        if bin_values is not None:
            monkeypatch.setattr(montecarlo, "_BIN_VALUES", bin_values)
        monkeypatch.setattr(montecarlo, "_binned_sum", slow)
        monkeypatch.setattr(montecarlo, "_bins_total", counted)
        assert _exact_sums(slow_draws(), three_terms, 3) == sequential_sums(
            blocks_of(x), three_terms, 3
        )
        sizes = [block.size for block in blocks_of(x)]
        early = 0
        for worker in set(drawn_by.values()):
            held = 0
            for i in sorted(i for i, ident in drawn_by.items() if ident == worker):
                if held + sizes[i] > (bin_values or montecarlo._BIN_VALUES):
                    early, held = early + 1, 0
                held += sizes[i]
        assert len(flushes) == 3 * (len(set(drawn_by.values())) + early)
        assert early == 0 or bin_values is not None

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_sequential_loop_whichever_worker_takes_a_chunk(self, seed):
        # random sleeps in the chunk callables shuffle which worker draws
        # which chunk; both take some, and the sums do not move
        x = wide_sample(seed, 20 * _CHUNK + 3)
        delays = np.random.default_rng(seed).uniform(0.0, 0.01, 21).tolist()
        drawn_by = set()

        def delay(i):
            drawn_by.add(threading.get_ident())
            return delays[i]

        totals = _exact_sums(chunks_returning(blocks_of(x), delay), three_terms, 3)
        assert totals == sequential_sums(blocks_of(x), three_terms, 3)
        assert len(drawn_by) == 2

    def test_concurrent_callers_under_fast_switching(self, monkeypatch):
        # four callers, each with its own helper, on fewer cores; a switch
        # every microsecond and a flush before every block but each
        # worker's first interleave every claim, and a lost update would
        # move a total
        monkeypatch.setattr(montecarlo, "_BIN_VALUES", _CHUNK)
        x = wide_sample(9, 3 * _CHUNK + 5)
        results = [None] * 4

        def run(i):
            results[i] = _exact_sums(chunks_returning(blocks_of(x)), three_terms, 3)

        before = threading.enumerate()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [sequential_sums(blocks_of(x), three_terms, 3)] * 4
        assert threading.enumerate() == before

    def test_non_finite_sums_match_the_sequential_reduction(self):
        # the cube of 1e200 overflows and the square of 1e300 as well
        x = np.ones(3 * _CHUNK + 5)
        x[_CHUNK + 7], x[-1] = 1e200, 1e300
        totals = _exact_sums(chunks_returning(blocks_of(x)), three_terms, 3)
        assert totals == sequential_sums(blocks_of(x), three_terms, 3)
        assert totals[0] is not None and totals[1:] == [None, None]

    @pytest.mark.parametrize("where", [0, -1], ids=["first-block", "last-block"])
    def test_overflow_names_the_same_order_in_any_block(self, where):
        # zeros add nothing; (1e100**2)**2 overflows, order 2's square sum
        x = np.zeros(3 * _CHUNK + 5)
        x[where] = 1e100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="^moment of order 2 is not finite"):
                summarize(x, 4, 0, "edge")

    @pytest.mark.parametrize(
        "where", [slice(0, 70), slice(-5, None)], ids=["first-block", "last-block"]
    )
    def test_underflow_names_the_same_order_in_any_block(self, where):
        # the squares of 1e-60**3 underflow to 0 while the cubes do not;
        # orders 1 and 2 keep their squares
        x = np.zeros(3 * _CHUNK + 5)
        x[where] = 1e-60
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ArithmeticError, match="^moment of order 3 has no standard error"
            ):
                summarize(x, 4, 0, "edge")


class TestPipelineFailures:
    """Every way out of ``_exact_sums`` joins the helper thread first and
    raises the error of the lowest failing chunk index."""

    def test_draw_error_surfaces_unchanged(self):
        error = ValueError("the third block cannot be drawn")

        def third():
            raise error

        before = threading.enumerate()
        with pytest.raises(ValueError) as caught:
            _exact_sums([*chunks_returning([np.ones(_CHUNK)] * 2), third], three_terms, 3)
        assert caught.value is error
        assert threading.enumerate() == before

    def test_binning_error_surfaces_with_one_block_drawn_past_it(self):
        # block 2 fails in ``terms`` at once; every block before it is
        # binned, and while it fails the other worker holds at most one
        # chunk, which it finishes before it stops claiming
        drawn, binned = [], []

        def terms(x):
            binned.append(x[0])
            if x[0] == 2.0:
                raise RuntimeError("block 3 cannot be binned")
            yield x

        blocks = [np.full(_CHUNK, float(i)) for i in range(10)]
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="^block 3 cannot be binned$"):
            _exact_sums(chunks_returning(blocks, lambda i: drawn.append(i) or 0.0), terms, 1)
        assert sorted(binned)[:3] == [0.0, 1.0, 2.0]
        assert len(binned) == len(drawn) <= 4
        assert threading.enumerate() == before

    def test_binning_error_comes_before_the_draw_error_it_overlapped(self):
        # sequentially, block 1 is binned before block 2 is drawn; here the
        # other worker draws block 2 while block 1 fails
        def second():
            raise ValueError("block 2 cannot be drawn")

        def terms(x):
            raise RuntimeError("block 1 cannot be binned")
            yield x

        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="^block 1 cannot be binned$"):
            _exact_sums([*chunks_returning([np.ones(3)]), second], terms, 1)
        assert threading.enumerate() == before

    def test_slow_failure_of_a_lower_chunk_wins(self):
        # chunk 1 fails after chunk 3 has failed on the other worker; a
        # sequential loop meets chunk 1's error first
        failures = []

        def chunk(i):
            if i in (1, 3):
                time.sleep(0.2 if i == 1 else 0.0)
                failures.append(i)
                raise RuntimeError(f"chunk {i} cannot be drawn")
            return np.ones(5)

        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="^chunk 1 cannot be drawn$"):
            _exact_sums([functools.partial(chunk, i) for i in range(6)], three_terms, 3)
        assert failures == [3, 1]
        assert threading.enumerate() == before

    def test_no_worker_draws_more_than_one_chunk_past_a_failure(self):
        # once chunk 3 fails, its worker draws nothing more and the other
        # finishes the chunk it claimed, at most one, then claims no index
        drawn, failed = [], threading.Event()

        def chunk(i):
            drawn.append((i, threading.get_ident(), failed.is_set()))
            if i == 3:
                failed.set()
                raise RuntimeError("chunk 3 cannot be drawn")
            time.sleep(0.01)
            return np.ones(5)

        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="^chunk 3 cannot be drawn$"):
            _exact_sums([functools.partial(chunk, i) for i in range(40)], three_terms, 3)
        failing = next(ident for i, ident, _ in drawn if i == 3)
        late = [(i, ident) for i, ident, after in drawn if after]
        assert len(late) <= 1
        assert all(i > 3 and ident != failing for i, ident in late)
        assert sorted(i for i, _, _ in drawn)[:4] == [0, 1, 2, 3]
        assert threading.enumerate() == before

    def test_tree_kernel_refusal(self):
        kernel = SplitKernel.from_table({2: [1.0], 4: [0.5, 0.25, 0.25]})
        before = threading.enumerate()
        with pytest.raises(ValueError, match="^split kernel has no distribution for size 3$"):
            simulate_tree_cost(kernel, 0.5, 4, 3 * _CHUNK, TREE_SEED)
        assert threading.enumerate() == before

    def test_tree_draw_refused_while_a_block_is_binned(self, monkeypatch):
        # at n = 2 each chunk takes one split draw: the second is refused
        # while the other worker draws or bins its chunk, which it finishes
        # before it stops claiming
        draw, calls = SplitKernel.draw, []

        def refused_second(self, sizes, u):
            calls.append(sizes.size)
            if len(calls) == 2:
                raise ValueError("split draws need uniforms u in [0, 1)")
            time.sleep(0.01)
            return draw(self, sizes, u)

        monkeypatch.setattr(SplitKernel, "draw", refused_second)
        before = threading.enumerate()
        with pytest.raises(ValueError, match=r"^split draws need uniforms u in \[0, 1\)$"):
            simulate_tree_cost(SplitKernel.uniform(), 0.5, 2, 8 * _CHUNK, TREE_SEED)
        assert calls in ([_CHUNK] * 2, [_CHUNK] * 3)
        assert threading.enumerate() == before


class TestSeed:
    @pytest.mark.parametrize(
        "entry",
        [
            lambda seed: sample_rayleigh(1.0, 10, seed),
            lambda seed: sample_mittag_leffler(0.5, 10, seed),
            lambda seed: simulate_tree_cost(SplitKernel.uniform(), 0.5, 10, 5, seed),
            lambda seed: rayleigh_samples(1.0, 10, seed),
            lambda seed: positive_stable_samples(0.5, 10, seed),
            lambda seed: stable_laplace_check(0.5, [1.0], 10, seed),
        ],
        ids=["sample_rayleigh", "sample_mittag_leffler", "simulate_tree_cost",
             "rayleigh_samples", "positive_stable_samples", "stable_laplace_check"],
    )
    def test_negative_seed_refused_before_any_draw(self, monkeypatch, entry):
        def no_draws(*args, **kwargs):
            raise AssertionError("a chunk was drawn before the seed was checked")

        monkeypatch.setattr(montecarlo, "_chunk_rng", no_draws)
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got -1$"):
            entry(-1)

    def test_zero_and_numpy_integer_seeds_run(self):
        assert sample_rayleigh(1.0, 10, np.int64(7)).to_dict() == sample_rayleigh(
            1.0, 10, 7
        ).to_dict()
        assert sample_rayleigh(1.0, 10, 0).seed == 0


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

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_sigma_is_refused(self, sigma):
        with pytest.raises(ValueError, match="finite and positive"):
            rayleigh_samples(sigma, 10, 0)


class TestPositiveStable:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
    def test_laplace_transform_checks(self, alpha):
        report = stable_laplace_check(alpha, (1.0, 2.0), N_MODULE, STABLE_SEED)
        assert report.passed
        assert len(report.deviations) == 2

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
            positive_stable_samples(alpha, 100, 0)


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

    @pytest.mark.parametrize("alpha, n, seed", [(0.02, 1_000_000, 1), (0.001, 1000, 0)])
    def test_stable_overflow_keeps_l_finite(self, alpha, n, seed):
        s = positive_stable_samples(alpha, n, seed)
        x = mittag_leffler_samples(alpha, n, seed)
        lost = (s == 0.0) | (s == np.inf)
        assert lost.any()
        assert np.all(np.isfinite(x) & (x > 0.0))
        with np.errstate(all="ignore"):
            assert x[~lost].tobytes() == np.power(s[~lost], -alpha).tobytes()
        # log S > log(max double) where S = inf, log S < log(min subnormal) where S = 0
        assert np.all(x[s == np.inf] < math.exp(-alpha * 709.0))
        assert np.all(x[s == 0.0] > math.exp(alpha * 744.0))

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


def reference_table_draw(kernel, sizes, u):
    """Per-size inverse-CDF search: the table draw this must equal bit for bit."""
    out = np.empty(sizes.size, dtype=np.int64)
    for size in np.unique(sizes):
        mask = sizes == size
        idx = np.searchsorted(np.cumsum(kernel.probs(size)), u[mask], side="right")
        out[mask] = 1 + np.minimum(idx, size - 2)
    return out


@st.composite
def split_rows(draw, size):
    """A probability row for k = 1..size-1 with zero entries (CDF ties),
    sometimes scaled to sum to 1 - 1e-13."""
    weight = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0]) | st.floats(0.0, 1.0)
    weights = draw(
        st.lists(weight, min_size=size - 1, max_size=size - 1).filter(lambda w: sum(w) > 0.0)
    )
    scale = draw(st.sampled_from([1.0, 1.0 - 1e-13]))
    return np.array(weights) / math.fsum(weights) * scale


# sparse size sets: a few sizes out of 2..24
TABLES = st.sets(st.integers(2, 24), min_size=1, max_size=5).flatmap(
    lambda sizes: st.fixed_dictionaries({size: split_rows(size) for size in sizes})
)
UNIFORMS = st.sampled_from([0.0, 0.25, 0.5, 1.0 - 2**-53]) | st.floats(0.0, 1.0, exclude_max=True)


def reference_table_build(table):
    """(CDF, guide) of a table's flat layout, built one size at a time in
    ascending order: each row is checked finite, then nonnegative, then
    summing to 1, and its guide is a per-size search of its buckets.  The
    table kernel must build the same arrays bit for bit and refuse the same
    first bad size with the same message."""
    sizes = np.array(sorted(table), dtype=np.int64)
    start, probs = _layout(sizes)
    cdf = np.full(probs.size, np.inf)
    guide = np.empty(probs.size, dtype=np.int64)
    for size, at in zip(sizes.tolist(), start[sizes].tolist()):
        p = probs[at : at + size - 1]
        p[:] = table[size]
        if not np.isfinite(p).all():
            raise ValueError(f"size {size}: probabilities must be finite")
        if np.any(p < 0.0):
            raise ValueError(f"size {size}: probabilities must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError(f"size {size}: probabilities sum to {float(p.sum())!r}, not 1")
        row = np.cumsum(p, out=cdf[at : at + size - 1])
        guide[at : at + size] = at + np.searchsorted(_bucket(row, size - 1), np.arange(size))
    return cdf, guide


def build_outcome(build, table):
    """The raw bytes of the (CDF, guide) that ``build`` makes of ``table``,
    or the message it refuses the table with."""
    try:
        return tuple(array.tobytes() for array in build(table))
    except ValueError as exc:
        return str(exc)


def kernel_build(table):
    kernel = SplitKernel.from_table(table)
    return kernel._cdf, kernel._guide


def linear_table(n_max):
    """P(K_m = k) = k / (m(m-1)/2) for m = 2..n_max: every guide bucket of
    a large size holds about one CDF entry, and the small sizes hold many."""
    return {m: np.arange(1, m) / (m * (m - 1) / 2.0) for m in range(2, n_max + 1)}


# each fault is applied to one size of a table, picked by index
FAULTS = {
    "nan": lambda row: np.where(np.arange(row.size) == row.size // 2, math.nan, row),
    "inf": lambda row: np.where(np.arange(row.size) == 0, math.inf, row),
    "negative": lambda row: np.where(np.arange(row.size) == row.size - 1, -row[-1] - 0.5, row),
    "sum": lambda row: row * 1.5,
}


class TestSplitKernel:
    @pytest.mark.parametrize("u", [-0.5, 1.0, math.nan])
    @pytest.mark.parametrize(
        "kernel",
        [SplitKernel.from_table({2: [1.0], 4: [0.5, 0.25, 0.25]}), SplitKernel.uniform()],
        ids=["table", "uniform"],
    )
    def test_draw_rejects_u_outside_unit_interval(self, kernel, u):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            kernel.draw([4], [u])
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            kernel.draw(np.full(3, 4), np.array([0.0, u, 0.5]))

    def test_uniform_probs(self):
        k = SplitKernel.uniform()
        assert np.allclose(k.probs(5), 0.25)

    @pytest.mark.parametrize(
        "kernel, size, message",
        [(SplitKernel.uniform(), 1, "^split needs size >= 2, got 1$"),
         (SplitKernel.from_table({2: [1.0], 4: [0.5, 0.25, 0.25]}), 3,
          "^split kernel has no distribution for size 3$")],
    )
    def test_probs_refuses_size_without_row(self, kernel, size, message):
        with pytest.raises(ValueError, match=message):
            kernel.probs(size)

    def test_table_validation_sum(self):
        with pytest.raises(ValueError, match="sum"):
            SplitKernel.from_table({3: [0.5, 0.6]})

    def test_table_validation_length(self):
        with pytest.raises(ValueError, match="probabilities"):
            SplitKernel.from_table({4: [1.0]})

    @pytest.mark.parametrize(
        "table, message",
        [({}, "^table kernel needs at least one size$"),
         ({1: [], 2: [1.0]}, "^table rows need size >= 2, got 1$")],
    )
    def test_table_validation_sizes(self, table, message):
        with pytest.raises(ValueError, match=message):
            SplitKernel.from_table(table)

    def test_table_validation_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SplitKernel.from_table({3: [1.5, -0.5]})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_table_validation_non_finite(self, bad):
        # nan fails every comparison, so the sum check alone let it through
        with pytest.raises(ValueError, match="size 3: probabilities must be finite"):
            SplitKernel.from_table({2: [1.0], 3: [bad, bad]})

    def test_equality_compares_tables(self):
        a = SplitKernel.from_table({3: [0.5, 0.5], 2: [1.0]})
        b = SplitKernel.from_table({2: [1.0], 3: [0.5, 0.5]})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != SplitKernel.from_table({2: [1.0], 3: [0.25, 0.75]})
        assert a != SplitKernel.from_table({2: [1.0]})
        assert a != SplitKernel.uniform()
        assert SplitKernel.uniform() == SplitKernel.uniform()

    def test_uniform_identity(self):
        a, b = SplitKernel.uniform(), SplitKernel.uniform()
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a.family == "uniform"
        assert SplitKernel.from_table({2: [1.0]}).family == "table"
        with pytest.raises(AttributeError):
            a.family = "table"

    def test_probs_views_are_read_only(self):
        kernel = SplitKernel.from_table({2: [1.0], 4: [0.5, 0.25, 0.25]})
        view = kernel.probs(4)
        assert not view.flags.writeable and not view.flags.owndata
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 0.0
        assert kernel.probs(4).tolist() == [0.5, 0.25, 0.25]

    @given(table=TABLES, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_csv_layout_matches_from_table(self, tmp_path_factory, table, data):
        # rows in any order, zero entries left out as missing (n, k) pairs
        lines = [
            f"{size},{k},{p!r}\n"
            for size, row in table.items()
            for k, p in enumerate(row.tolist(), 1)
            if p != 0.0
        ]
        path = tmp_path_factory.mktemp("kernel") / "kernel.csv"
        path.write_text("n,k,probability\n" + "".join(data.draw(st.permutations(lines))))
        from_csv, from_table = SplitKernel.from_csv(path), SplitKernel.from_table(table)
        assert from_csv == from_table and hash(from_csv) == hash(from_table)
        for name in ("_start", "_probs", "_cdf", "_guide"):
            assert np.array_equal(getattr(from_csv, name), getattr(from_table, name)), name

    @given(table=TABLES)
    @settings(max_examples=100, deadline=None)
    def test_build_matches_per_size_reference(self, table):
        assert build_outcome(kernel_build, table) == build_outcome(reference_table_build, table)

    def test_large_linear_build_matches_per_size_reference(self):
        table = linear_table(600)
        assert build_outcome(kernel_build, table) == build_outcome(reference_table_build, table)

    @given(
        table=TABLES,
        faults=st.dictionaries(st.integers(0, 4), st.sampled_from(sorted(FAULTS)), max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_first_bad_size_named_as_the_reference_names_it(self, table, faults):
        sizes = sorted(table)
        bad = {sizes[pick % len(sizes)]: FAULTS[fault] for pick, fault in faults.items()}
        table = {size: bad[size](row) if size in bad else row for size, row in table.items()}
        assert build_outcome(kernel_build, table) == build_outcome(reference_table_build, table)

    @pytest.mark.parametrize(
        "table, message",
        [({2: [1.0], 3: [0.5, 0.6], 5: [math.nan] * 4}, "size 3: probabilities sum to 1.1, not 1"),
         ({3: [0.4, 0.6], 4: [math.nan, -1.0, 2.0], 5: [-1.0, 1.0, 0.5, 0.5]},
          "size 4: probabilities must be finite"),
         ({3: [-0.5, 1.5], 4: [math.inf, 0.0, 0.0]}, "size 3: probabilities must be nonnegative"),
         ({3: [0.5, 0.5], 4: [0.2, 0.2, 0.2], 6: [-1.0, 2.0, 0.0, 0.0, 0.0]},
          "size 4: probabilities sum to 0.6000000000000001, not 1")],
        ids=["sum-before-nan", "finite-before-negative", "negative-before-inf", "sum-before-negative"],
    )
    def test_first_bad_size_named(self, table, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SplitKernel.from_table(table)
        assert build_outcome(reference_table_build, table) == message

    def test_missing_size_named(self):
        kernel = SplitKernel.from_table({2: [1.0], 4: [0.5, 0.25, 0.25]})
        with pytest.raises(ValueError, match="size 3"):
            tree_cost_samples(kernel, 0.0, 4, 100, 0)

    def test_size_above_table_named(self):
        # the first gap above the largest size, found without a loop up to n
        kernel = SplitKernel.from_table({2: [1.0], 3: [0.5, 0.5]})
        with pytest.raises(ValueError, match="no distribution for size 4$"):
            tree_cost_samples(kernel, 0.0, 10**15, 10, 0)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "kernel.csv"
        path.write_text(
            "n,k,probability\n2,1,1.0\n3,1,0.25\n3,2,0.75\n4,1,0.5\n4,2,0.25\n4,3,0.25\n"
        )
        kernel = SplitKernel.from_csv(path)
        assert np.allclose(kernel.probs(3), [0.25, 0.75])
        assert np.allclose(kernel.probs(4), [0.5, 0.25, 0.25])

    @pytest.mark.parametrize("header", ["", "# split law\n\nn,k,probability\n"])
    def test_csv_contract(self, tmp_path, header):
        path = tmp_path / "kernel.csv"
        path.write_text(
            header + "2,1,0.7\n2,1,0.2  # a trailing comment\n\n# a comment row\n2,1,0.1\n"
            "3,2,1.0,an extra column\n"
        )
        kernel = SplitKernel.from_csv(path)
        # repeated (n, k) rows add up in file order; a missing pair is 0
        assert kernel.probs(2).tolist() == [0.7 + 0.2 + 0.1]
        assert kernel.probs(2)[0] != 0.1 + 0.2 + 0.7
        assert kernel.probs(3).tolist() == [0.0, 1.0]

    def test_csv_contract_file(self):
        # the file the numpy-only CI job samples from
        kernel = SplitKernel.from_csv(DATA / "kernel-contract.csv")
        assert kernel == SplitKernel.from_table({2: [1.0], 3: [0.5, 0.5], 4: [0.5, 0.0, 0.5]})

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_csv_refuses_compression_suffix_before_reading(self, tmp_path, suffix):
        # numpy would open these names through a decompressor
        plain = tmp_path / f"kernel.csv{suffix}"
        plain.write_text("n,k,probability\n2,1,1.0\n")
        for path in (plain, tmp_path / f"missing{suffix}"):
            message = f"^kernel file '{path}' ends in \\{suffix}, which numpy reads as compressed"
            with pytest.raises(ValueError, match=message):
                SplitKernel.from_csv(path)
        # numpy decompresses by these exact suffixes only
        for name in (f"kernel{suffix.upper()}", suffix, f"kernel{suffix}.csv"):
            other = tmp_path / name
            other.write_text("n,k,probability\n2,1,1.0\n")
            assert SplitKernel.from_csv(other) == SplitKernel.from_table({2: [1.0]})

    def test_csv_rejects_out_of_range_split(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,k,probability\n3,3,1.0\n")
        with pytest.raises(ValueError, match="outside"):
            SplitKernel.from_csv(path)

    # only the first row may be a header, so a stray "3O" or "3.0" is an error
    @pytest.mark.parametrize("row", ["3,1", "3", "3,1,x", "3O,2,0.5", "3.0,1,0.5", "   "])
    def test_csv_rejects_malformed_row(self, tmp_path, row):
        path = tmp_path / "short.csv"
        path.write_text(f"n,k,probability\n2,1,1.0\n{row}\n")
        with pytest.raises(ValueError, match=f"kernel row 3 '{row}'"):
            SplitKernel.from_csv(path)

    def test_csv_field_only_python_parses_is_reraised(self, tmp_path):
        # int() and float() accept "1_0" and numpy does not, so no row is
        # named and numpy's own error is raised again
        path = tmp_path / "underscore.csv"
        path.write_text("n,k,probability\n2,1,1.0\n3,1,0.5\n3,2,1_0\n")
        with pytest.raises(ValueError, match="could not convert string '1_0'") as caught:
            SplitKernel.from_csv(path)
        assert "kernel row" not in str(caught.value)

    def test_table_draw_of_uncovered_size_is_named(self):
        kernel = SplitKernel.from_table({2: [1.0], 4: [0.5, 0.25, 0.25]})
        for size in (3, 5, 1):
            with pytest.raises(ValueError, match=f"no distribution for size {size}$"):
                kernel.draw(np.array([4, size, 2]), np.full(3, 0.5))

    @given(
        table=TABLES,
        picks=st.lists(st.tuples(st.integers(0, 5), UNIFORMS), min_size=1, max_size=40),
    )
    @example(  # CDF ties at zero-probability entries, u = 0, u = 0.5 on a tie
        table={2: [1.0], 5: [0.0, 0.5, 0.0, 0.5]},
        picks=[(0, 0.0), (1, 0.0), (1, 0.5), (1, 0.25), (1, 1.0 - 2**-53)],
    )
    @example(  # a row summing to 1 - 1e-13: u above its last CDF entry clamps to k = n-1
        table={3: [0.5, 0.5 - 1e-13], 40: [1.0 / 39] * 39},
        picks=[(0, 1.0 - 2**-53), (0, 1.0 - 1e-14), (0, 0.5), (1, 1.0 - 2**-53), (1, 0.0)],
    )
    @example(  # u on guide bucket edges that are also CDF entries, u just below a
        # CDF entry just below the edge 0.6, and a row whose first 28 CDF
        # entries share bucket 0, which the binary search walks
        table={5: [0.25] * 4, 6: [0.2, 0.2, 0.2 - 1e-12, 0.2 + 1e-12, 0.2],
               30: [1e-9] * 28 + [1.0 - 28e-9]},
        picks=[(0, 0.25), (0, 0.5), (0, np.nextafter(0.75, 0.0)), (0, 0.75),
               (1, 0.6 - 2e-12), (1, 0.6 - 1e-12), (1, 0.6),
               (2, 0.0), (2, 5e-9), (2, 1e-8), (2, 2.8e-8), (2, 0.5)],
    )
    @example(  # plateau rows, mass on k = 1 and k = n-1 only: all but the last
        # CDF entry share one guide bucket; u around the plateau and its edges
        table={60: [0.25] + [0.0] * 57 + [0.75], 61: [0.5] + [0.0] * 58 + [0.5]},
        picks=[(0, 0.0), (0, np.nextafter(0.25, 0.0)), (0, 0.25), (0, 14 / 59),
               (0, np.nextafter(15 / 59, 0.0)), (0, 15 / 59), (0, 0.75), (0, 1.0 - 2**-53),
               (1, np.nextafter(0.5, 0.0)), (1, 0.5), (1, 0.5 + 2**-53), (1, 1.0 - 2**-53)],
    )
    @settings(max_examples=100, deadline=None)
    def test_table_draw_matches_per_size_search(self, table, picks):
        kernel = SplitKernel.from_table(table)
        sizes = sorted(table)
        size = np.array([sizes[i % len(sizes)] for i, _ in picks], dtype=np.int64)
        u = np.array([v for _, v in picks])
        expected = reference_table_draw(kernel, size, u)
        assert np.array_equal(kernel.draw(size, u), expected)

    def test_draw_stays_in_support(self):
        kernel = SplitKernel.uniform()
        u = np.linspace(0.0, 1.0 - 1e-16, 1001)
        sizes = np.full(u.size, 7)
        k = kernel.draw(sizes, u)
        assert k.min() >= 1
        assert k.max() <= 6


def reference_tree_cost_samples(kernel, a, n, reps, seed):
    """The full-mask recursion loop that the tree sampler must equal bit for
    bit: every step masks all replicates of a chunk, finished or not."""

    def chunk(rng, m):
        sizes = np.full(m, n, dtype=np.int64)
        y = np.zeros(m)
        while True:
            active = sizes >= 2
            if not active.any():
                break
            current = sizes[active]
            y[active] += current.astype(float) ** a
            u = rng.random(current.size)
            sizes[active] = kernel.draw(current, u)
        return y + 1.0

    counts = [1 << 16] * (reps >> 16) + ([reps % (1 << 16)] if reps % (1 << 16) else [])
    streams = np.random.SeedSequence(seed).spawn(len(counts))
    return np.concatenate(
        [chunk(np.random.default_rng(ss), m) for ss, m in zip(streams, counts)]
    )


class TestTreeSimulation:
    @pytest.mark.parametrize("reps", [1, 65535, 65536, 65537])
    @pytest.mark.parametrize("n", [1, 2, 3, 17])
    @pytest.mark.parametrize(
        "kernel_file", [None, "kernel-sparse-30.csv", "kernel-plateau-200.csv"]
    )
    def test_matches_full_mask_reference(self, kernel_file, n, reps):
        kernel = SplitKernel.from_csv(DATA / kernel_file) if kernel_file else SplitKernel.uniform()
        for a in (0.0, 0.5, 1.0, 3.0):
            expected = reference_tree_cost_samples(kernel, a, n, reps, TREE_SEED)
            y = tree_cost_samples(kernel, a, n, reps, TREE_SEED)
            assert y.tobytes() == expected.tobytes()

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
        with pytest.raises(ValueError):
            enumerate_tree_costs(SplitKernel.uniform(), -1.0, 4)


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

    @pytest.mark.parametrize(
        "make, label",
        [(lambda: sample_rayleigh(1.0, 1000, 1), "ratios(rayleigh, n=1000)"),
         (lambda: sample_mittag_leffler(0.5, 1000, 1), "ratios(mittag-leffler, n=1000)"),
         (lambda: simulate_tree_cost(SplitKernel.uniform(), 0.5, 30, 1000, 1),
          "ratios(tree, n=30, reps=1000)")],
        ids=["rayleigh", "mittag-leffler", "tree"],
    )
    def test_label_names_tree_size_and_replicates_apart(self, make, label):
        assert scale_free_ratio_check(make(), 0.5).label_a == label


class TestSampleSummarySerialization:
    def test_json_shape(self):
        summary = sample_rayleigh(1.0, 1000, 5)
        payload = json.loads(json.dumps(summary.to_dict()))
        assert payload["sampler"] == "rayleigh"
        assert payload["seed"] == 5
        assert payload["n"] == 1000
        assert len(payload["moments"]) == 5
        assert payload["moments"][0] == 1.0
