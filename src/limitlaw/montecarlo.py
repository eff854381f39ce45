"""Seeded samplers and estimators that validate the analytic moment
sequences empirically, plus a simulator of the tree-destruction recursion
Y_n = Y_{K_n} + n^a with Y_1 = 1.

Stream-splitting rule
---------------------
Sampling is chunked in fixed blocks of 65536 draws.  Chunk i uses the PCG64
generator seeded from child i of ``numpy.random.SeedSequence(seed)``, made
from its spawn key alone, so any chunk is drawn without the ones before
it.  Within a chunk the draw order is fixed by the algorithm.  Chunk
boundaries depend only on n, and every reduction is an exact sum rounded
once (``_exact_means``, one pass over the sample for all orders, hence
order-independent), so identical (seed, parameters) produce bit-identical
summaries on any thread and in any order.  ``_run_chunks`` gives each
chunk as a callable that draws it: the summaries draw and reduce the
chunks on two threads at once, in memory flat in n, and ``*_samples``
concatenate them in order.

Exact sums
----------
``_binned_sum`` adds each value's hi part (top 27 significant bits, scaled
by 2**-26) and lo part (low 26 bits) into float bins by sign and exponent,
exact for 2**26 values; in ``_exact_sums`` two threads each draw whole
chunks and bin them into their own bins, whose Python ints add up at the
end.  A summary of S orders sums S + ceil(S/2) arrays per block along one
power ladder: odd order o is x**o, even order 2s is the square of order s,
and that square is order s's square sum as well, so only the top order of
each chain o, 2o, 4o, ... <= S is squared once more.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .moments import (
    _require_alpha,
    _require_order,
    _require_order_multiple,
    _require_positive,
    _require_seed,
    _require_toll,
    fkp_moments,
)

if TYPE_CHECKING:  # imported where a report is built: a sample alone never loads identities
    from .identities import ComparisonReport

__all__ = [
    "SampleSummary",
    "SplitKernel",
    "rayleigh_samples",
    "positive_stable_samples",
    "mittag_leffler_samples",
    "tree_cost_samples",
    "sample_rayleigh",
    "sample_mittag_leffler",
    "simulate_tree_cost",
    "enumerate_tree_costs",
    "summarize",
    "scale_free_ratio_check",
    "stable_laplace_check",
]

_CHUNK = 1 << 16
_TINY = np.finfo(float).tiny
# Every double is an integer multiple of 2**-1074 = 1 / _SUM_SCALE.  Exact
# sums bin a double by its top 12 bits, the sign and the 11-bit exponent
# field e: the doubles of bin b are integer multiples of
# 2**_BIN_SHIFT[b] / _SUM_SCALE (e = 0 holds zero and the subnormals, which
# share the unit of e = 1).
_SUM_SCALE = 1 << 1074
_BINS = 1 << 12
_BIN_SHIFT = np.maximum(np.arange(_BINS) % (_BINS // 2), 1) - 1
# keeps the sign, the exponent field and the top 26 of the 52 fraction bits
_HI = np.uint64(2**64 - 2**26)
# A bin's hi parts, scaled by 2**-26, are below 2**27 units of the bin and
# its lo parts below 2**26, so float bins hold the sums of 2**26 values
# exactly, below 2**53 units; unscaled, the hi sums would overflow from
# values of about 2**997 on.
_BIN_VALUES = 1 << 26


def _workspace() -> tuple:
    """Work arrays for ``_binned_sum``, half a chunk long each (fresh ones fault
    in new pages on every block).  One per ``_exact_sums`` worker, they take the
    memory of one whole-chunk workspace and bin as fast; quarters bin slower."""
    return np.empty(_CHUNK // 2, np.intp), np.empty(_CHUNK // 2), np.empty(_CHUNK // 2)


def _binned_sum(bins: np.ndarray, values: np.ndarray, work: tuple) -> None:
    """Add the exact sum of the doubles ``values`` to ``bins``, a (2, _BINS)
    float array of the hi and lo sums of each bin, in blocks as long as the
    ``_workspace()`` arrays ``work``.

    One shift of the raw bits gives each value's bin, and one mask its hi
    part; lo = value - hi, the low 26 fraction bits, is exact.  np.bincount
    adds each part of equal bin in float64, exactly while the bins have
    taken at most _BIN_VALUES values.  A non-finite value leaves its bin
    inf or nan.
    """
    for start in range(0, values.size, work[0].size):
        block = values[start : start + work[0].size]
        index, hi, lo = (a[: block.size] for a in work)
        bits = block.view(np.uint64)
        np.right_shift(bits, 52, out=index.view(np.uint64))
        np.bitwise_and(bits, _HI, out=hi.view(np.uint64))
        np.subtract(block, hi, out=lo)
        hi *= 2.0**-26
        for part, weights in zip(bins, (hi, lo)):
            sums = np.bincount(index, weights)
            part[: sums.size] += sums


def _bins_total(bins: np.ndarray) -> int:
    """The exact sum that ``bins`` hold, in units of 1 / _SUM_SCALE.  Raises
    OverflowError if a value summed into them was not finite."""
    if not np.isfinite(bins).all():
        raise OverflowError("exact sum of non-finite values")
    counts = np.ldexp(bins, 1074 - _BIN_SHIFT)  # integers below 2**53
    used = np.flatnonzero(counts.any(axis=0))
    hi, lo, shifts = *counts[:, used].tolist(), _BIN_SHIFT[used].tolist()
    return sum(((int(h) << 26) + int(l)) << s for h, l, s in zip(hi, lo, shifts))


def _exact_sums(chunks, terms, k: int) -> list:
    """Exact sums, in units of 1 / _SUM_SCALE, of the k arrays that
    ``terms(block)`` yields for the block of at most _CHUNK values that
    each zero-argument callable of ``chunks`` returns; None for a sum over
    a non-finite value.

    Two workers, this thread and one helper thread started per call, claim
    the chunk indices in turn.  Each draws its chunk and bins every array
    before ``terms`` yields the next (``terms`` may then overwrite it) into
    its own bins and ``_workspace()``, made after its first draw; they turn
    into ints before they would pass _BIN_VALUES and at the end.  The sums
    are exact, so they are a sequential loop's, whichever worker takes which
    chunk.  After an error no higher index is claimed, the helper is joined
    and the error of the lowest failing index, which a sequential loop
    meets first, is raised.
    """
    claimed, failed, errors, results = 0, len(chunks), {}, []
    lock = threading.Lock()  # over the claimed count and the lowest failing index

    def flush(totals, bins):  # a total over a non-finite value becomes None
        for t, part in enumerate(bins):
            if totals[t] is not None:
                try:
                    totals[t] += _bins_total(part)
                except OverflowError:
                    totals[t] = None

    def work():
        nonlocal claimed, failed
        totals, held, i, bins = [0] * k, 0, -1, None
        try:
            while True:
                with lock:
                    i, claimed = claimed, claimed + 1
                    if i >= failed:
                        break
                block = chunks[i]()
                if bins is None:  # in the memory that the first draw freed
                    bins, workspace = np.zeros((k, 2, _BINS)), _workspace()
                elif held + block.size > _BIN_VALUES:
                    flush(totals, bins)
                    bins[:], held = 0.0, 0
                held += block.size
                with np.errstate(over="ignore", invalid="ignore"):  # refused at the end
                    for part, values in zip(bins, terms(block), strict=True):
                        _binned_sum(part, values, workspace)
                block = values = None  # free both before the next chunk is drawn
            if bins is not None:
                flush(totals, bins)
        except BaseException as exc:  # raised by the caller once the helper is joined
            with lock:
                errors[i] = exc
                failed = min(failed, i)
        results.append(totals)

    helper = threading.Thread(target=work, name="limitlaw-exact-sums")
    helper.start()
    try:
        work()
    finally:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return [None if None in sums else sum(sums) for sums in zip(*results)]


def _exact_means(chunks, n: int, terms, pairs, names) -> tuple[list[float], list[float]]:
    """Means and standard errors sd/sqrt(n) over the n values that the
    ``chunks`` return, from exact sums (``_exact_sums``) rounded once.

    Mean i is the sum of the arrays that ``terms`` yields at position
    ``pairs[i][0]``, over n; the sum at ``pairs[i][1]``, which must be
    their squares, gives its squared error (n sum(x^2) - (sum x)^2) /
    (n^2 (n - 1)), formed from the exact sums and rounded once.  A sum may
    serve several means, as order 2s's values serve as order s's squares in
    ``_summary``.  This is the small superaccumulator of Neal, "Fast exact
    summation using small and large superaccumulators" (arXiv:1505.05571):
    each mean is the exact sum over n, rounded once, whatever the block
    order.  Raises OverflowError with the first of ``names`` whose value,
    square or sum is not finite, and ArithmeticError with the first whose
    squares sum to less than rounded squares can (they underflowed).
    """
    totals = _exact_sums(chunks, terms, 1 + max(map(max, pairs)))
    means, errors = [], []
    for name, (value, square) in zip(names, pairs):
        try:
            if totals[value] is None or totals[square] is None:
                raise OverflowError  # a value or a square, found in a block
            mean = totals[value] / (_SUM_SCALE * n)  # int / int rounds correctly
            spread = n * totals[square] * _SUM_SCALE - totals[value] ** 2  # exact int
            se_sq = spread / (_SUM_SCALE**2 * n * n * (n - 1)) if n > 1 else 0.0
        except OverflowError:
            raise OverflowError(
                f"{name} is not finite: a value, its square or a sum overflows"
            ) from None
        # Squares rounded to normal doubles keep spread >= -(sum x)^2 / 2**53
        # (Cauchy-Schwarz, each square low by at most 2**-53 of itself): only
        # squares that underflowed fall below it
        if spread << 53 < -totals[value] ** 2:
            raise ArithmeticError(f"{name} has no standard error: its squares underflow")
        means.append(mean)
        errors.append(math.sqrt(max(0.0, se_sq)))  # rounded squares may dip below 0, or to -0.0
    return means, errors


@dataclass(frozen=True)
class SampleSummary:
    """Empirical moments of one seeded run: m_hat[s] for s <= S together with
    standard errors se_s = sd(X^s)/sqrt(n)."""

    sampler: str
    n: int
    seed: int
    moments: np.ndarray
    standard_errors: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("moments", "standard_errors"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.moments[0] != 1.0:
            raise ValueError("empirical m_0 must be 1")
        if np.any(self.standard_errors < 0.0):
            raise ValueError("standard errors must be nonnegative")

    @property
    def max_order(self) -> int:
        return self.moments.size - 1

    @property
    def sizes(self) -> tuple:
        """``(name, value)`` pairs of the sample's sizes, named as the CLI
        flags name them: a tree summary, whose params record the tree size
        n, counts its draws as reps; any other counts them as n.  The JSON,
        the CSV comment and the check label all name sizes from here."""
        if "n" in self.params:
            return (("n", self.params["n"]), ("reps", self.n))
        return (("n", self.n),)

    def to_dict(self) -> dict:
        return {
            "sampler": self.sampler,
            "seed": int(self.seed),
            **{name: int(size) for name, size in self.sizes},
            "params": dict(self.params),
            "moments": [float(m) for m in self.moments],
            "standard_errors": [float(s) for s in self.standard_errors],
        }


def _chunk_rng(seed: int, i: int) -> np.random.Generator:
    """The generator of chunk i: child i of ``SeedSequence(seed)``, the
    spawn key that ``spawn`` gives it, made without its siblings."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def _chunk_sizes(n: int):
    sizes = [_CHUNK] * (n // _CHUNK)
    if n % _CHUNK:
        sizes.append(n % _CHUNK)
    return sizes


def _run_chunks(chunk_fn, seed: int, n: int) -> list:
    """The chunks of an n-draw sample, one zero-argument callable per chunk
    size m: chunk i returns ``chunk_fn(_chunk_rng(seed, i), m)``, drawn
    when it is called, on whichever thread calls it."""

    def draw(i, m):
        with np.errstate(all="ignore"):  # the reducer refuses the inf of an overflow
            return chunk_fn(_chunk_rng(seed, i), m)

    return [functools.partial(draw, i, m) for i, m in enumerate(_chunk_sizes(n))]


def _rayleigh_chunks(sigma: float, n: int, seed: int):
    """The chunks of ``rayleigh_samples``."""
    _require_positive(sigma, "sigma")
    n = _require_order(n, "n")
    seed = _require_seed(seed)

    def chunk(rng, m):
        # sigma * sqrt(-2 log1p(-u)), evaluated in place in the uniforms
        x = rng.random(m)
        np.log1p(np.negative(x, out=x), out=x)
        x *= -2.0
        np.sqrt(x, out=x)
        x *= sigma
        return np.maximum(x, _TINY, out=x)  # keep the open-interval contract at u == 0

    return _run_chunks(chunk, seed, n)


def rayleigh_samples(sigma: float, n: int, seed: int) -> np.ndarray:
    """Rayleigh draws X = sigma * sqrt(-2 ln U) with U uniform on (0, 1)."""
    return np.concatenate([chunk() for chunk in _rayleigh_chunks(sigma, n, seed)])


def _stable_chunks(alpha: float, n: int, seed: int, finish):
    """The chunks of n draws of ``finish(log S)``, applied chunk by chunk
    to one-sided alpha-stable S drawn by Kanter's construction (see
    ``positive_stable_samples``).  The uniforms and the exponentials share
    one scratch array made once per sample and thread; a partial sum gets a
    fresh one, whose memory the chunk's binning then reuses."""
    _require_alpha(alpha)
    n = _require_order(n, "n")
    seed = _require_seed(seed)
    ratio = (1.0 - alpha) / alpha
    local = threading.local()

    def chunk(rng, m):
        if not hasattr(local, "scratch"):
            local.scratch = np.empty(_CHUNK)
        # ratio * (log A(u) - log e), evaluated in place: each operation
        # rounds as in the plain expression, so the draws are the same doubles
        u, part = local.scratch[:m], np.empty(m)
        np.maximum(rng.random(out=u), _TINY, out=u)
        u *= math.pi
        log_a = np.multiply(u, alpha)
        np.log(np.sin(log_a, out=log_a), out=log_a)
        log_a *= alpha
        np.multiply(u, 1.0 - alpha, out=part)
        np.log(np.sin(part, out=part), out=part)
        part *= 1.0 - alpha
        log_a += part
        log_a -= np.log(np.sin(u, out=u), out=u)
        log_a /= 1.0 - alpha
        e = np.maximum(rng.standard_exponential(out=u), _TINY, out=u)
        log_a -= np.log(e, out=e)
        log_a *= ratio
        return finish(log_a)

    return _run_chunks(chunk, seed, n)


def _stable_from_log(log_s: np.ndarray) -> np.ndarray:
    return np.exp(log_s, out=log_s)


def positive_stable_samples(alpha: float, n: int, seed: int) -> np.ndarray:
    """One-sided alpha-stable draws with E exp(-lam S) = exp(-lam^alpha).

    Kanter's trigonometric construction: S = (A(U)/E)^{(1-alpha)/alpha} with
    U uniform on (0, pi), E unit exponential and
    A(u) = (sin(alpha u)^alpha sin((1-alpha) u)^{1-alpha} / sin u)^{1/(1-alpha)}.
    """
    return np.concatenate([chunk() for chunk in _stable_chunks(alpha, n, seed, _stable_from_log)])


def _mittag_leffler_chunks(alpha: float, n: int, seed: int):
    """The chunks of ``mittag_leffler_samples``."""

    def finish(log_s):
        # exp is finite and nonzero where |log S| <= 700, so only the logs
        # outside that range are kept and S overwrites them in place
        far = np.flatnonzero((log_s > 700.0) | (log_s < -700.0))
        log_far = log_s[far]
        s = np.exp(log_s, out=log_s)
        lost = (s[far] == 0.0) | (s[far] == np.inf)
        np.power(s, -alpha, out=s)
        s[far[lost]] = np.exp(-alpha * log_far[lost])
        return s

    return _stable_chunks(alpha, n, seed, finish)


def mittag_leffler_samples(alpha: float, n: int, seed: int) -> np.ndarray:
    """ML(alpha) draws L = S^{-alpha} with S the ``positive_stable_samples``
    draws.

    Where S overflows to inf or underflows to 0, L is exp(-alpha log S)
    from the finite log S; S^{-alpha} would round it to 0 or inf.  Every
    other draw is the double np.power(S, -alpha).
    """
    return np.concatenate([chunk() for chunk in _mittag_leffler_chunks(alpha, n, seed)])


def _summary(chunks, n: int, s_max: int, seed: int, sampler: str, params) -> SampleSummary:
    """``summarize`` over the n values that the ``chunks`` return in blocks
    of at most _CHUNK, each reduced as it is drawn.

    The orders' values come from one power ladder per block: x**o for odd o
    (x itself for o = 1) and np.square of order s for order 2s, squared in
    place in one array made per block, so at most x and that array are
    alive (an array kept for the whole sample would stay resident while the
    next block is drawn, which raised a tree sample's peak RSS by 0.4 MB).
    Each array is summed once and serves as an order's values, as the square
    sum of the order half its size, or both: S + ceil(S/2) sums and
    ceil(S/2) - 1 ``pow`` passes per block.
    """
    n = int(n)
    s_max = _require_order(s_max)
    # one chain per odd order o: o, 2o, 4o, ... up to the first order above
    # s_max, whose values are only the square sum of the order before it
    chains = [[o] for o in range(1, s_max + 1, 2)]
    for chain in chains:
        while chain[-1] <= s_max:
            chain.append(2 * chain[-1])
    at = {order: i for i, order in enumerate(itertools.chain(*chains))}

    def terms(x):
        v = np.empty_like(x)  # the chain's values, each square taken in place
        for odd, *evens in chains:
            base = x if odd == 1 else np.power(x, odd, out=v)
            yield base
            for _ in evens:
                base = np.square(base, out=v)
                yield base

    pairs = [(at[s], at[2 * s]) for s in range(1, s_max + 1)]
    names = [f"moment of order {s}" for s in range(1, s_max + 1)]
    moments, errors = _exact_means(chunks, n, terms, pairs, names)
    return SampleSummary(
        sampler=sampler,
        n=n,
        seed=int(seed),
        moments=[1.0, *moments],
        standard_errors=[0.0, *errors],
        params=dict(params or {}),
    )


def summarize(
    values: np.ndarray, s_max: int, seed: int, sampler: str, params: dict | None = None
) -> SampleSummary:
    """Empirical moments up to order s_max with standard errors.

    The sums of each order's values and of their squares are exact
    (``_exact_means``: float bins by sign and exponent, turned into an
    integer and rounded once), taken in one pass over _CHUNK blocks; naive
    accumulation loses digits in fourth moments at n = 1e6.  Order s's
    values are X**s for odd s and the square of order s/2's for even s
    (``_summary``), so odd orders and order 2 are the plain powers and an
    even order from 4 on can differ from X**s in its last bit.  Raises
    OverflowError naming the first order whose power, squared power or sum
    is not finite, and ArithmeticError naming the first whose squares
    underflow.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {values.shape}")
    if values.size < 1:
        raise ValueError("values must be non-empty")
    chunks = [functools.partial(values.__getitem__, slice(start, start + _CHUNK))
              for start in range(0, values.size, _CHUNK)]
    return _summary(chunks, values.size, s_max, seed, sampler, params)


def sample_rayleigh(sigma: float, n: int, seed: int, s_max: int = 4) -> SampleSummary:
    chunks = _rayleigh_chunks(sigma, n, seed)
    return _summary(chunks, n, s_max, seed, "rayleigh", {"sigma": float(sigma)})


def sample_mittag_leffler(alpha: float, n: int, seed: int, s_max: int = 4) -> SampleSummary:
    chunks = _mittag_leffler_chunks(alpha, n, seed)
    return _summary(chunks, n, s_max, seed, "mittag-leffler", {"alpha": float(alpha)})


# One parsed kernel CSV row.
_KERNEL_ROW = np.dtype([("n", np.int64), ("k", np.int64), ("p", np.float64)])


def _kernel_lines(fh):
    """(line number, text, fields) of each kernel CSV line that holds data,
    split the way ``np.loadtxt`` splits it: ``#`` starts a comment, and a line
    left empty is skipped."""
    for number, line in enumerate(fh, 1):
        text = line.rstrip("\r\n")
        data = text.partition("#")[0]
        if data:
            yield number, text, data.split(",")


def _parses(fields, types) -> bool:
    """Whether the first len(types) fields convert with ``types``; later
    fields are ignored, as ``np.loadtxt`` ignores columns outside ``usecols``."""
    try:
        for i, convert in enumerate(types):
            convert(fields[i])
    except (IndexError, ValueError):
        return False
    return True


def _bucket(x: np.ndarray, m) -> np.ndarray:
    """min(floor(x * m), m - 1) for values x >= 0: for a uniform x, one of m
    equally likely buckets.  It is non-decreasing in x, which is all the
    guide table of a table kernel relies on, so its draws and its table must
    compute it the same way."""
    b = (x * m).astype(np.int64)
    return np.minimum(b, m - 1, out=b)


def _layout(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and zeroed probabilities of the flat layout of the sorted,
    distinct ``sizes``.  The offsets are indexed by size, with -1 for a size
    without a row; their last entry stands for every size above the
    largest, where lookups clip."""
    if not sizes.size:
        raise ValueError("table kernel needs at least one size")
    if sizes[0] < 2:
        raise ValueError(f"table rows need size >= 2, got {sizes[0]}")
    start = np.full(sizes[-1] + 2, -1, dtype=np.int64)
    start[sizes] = np.cumsum(sizes) - sizes
    return start, np.zeros(int(sizes.sum()))


@dataclass(frozen=True)
class SplitKernel:
    """Distribution of the split size K_n on {1..n-1}.

    The uniform kernel, P(K_n = k) = 1/(n-1), covers every size and holds no
    layout.  A table kernel holds its rows (row n gives P(K_n = k) for
    k = 1..n-1) in one flat layout ordered by size: size n owns the n
    entries from offset ``_start[n]`` on, its n - 1 probabilities and a pad,
    which is inf in the CDF.  Three arrays share that layout: the
    probabilities, each row's CDF (``np.cumsum`` of the row) and a guide
    table (Chen and Asau 1974; Devroye, Non-Uniform Random Variate
    Generation, 1986, III.2.4).  Entry b of a size's guide is the flat index
    of its first CDF entry whose ``_bucket`` is b or above.  As the bucket is
    non-decreasing, a draw u in bucket b has every CDF entry before guide[b]
    <= u and every entry from guide[b + 1] on > u, so ``draw`` searches only
    between those bounds and compares u with the same CDF doubles as a
    per-size search.  ``uniform``, ``from_table`` and ``from_csv`` build
    kernels; the constructor validates a finished layout.
    """

    _start: np.ndarray | None = None
    _probs: np.ndarray | None = field(default=None, repr=False)
    _cdf: np.ndarray | None = field(default=None, init=False, repr=False)
    _guide: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self._start is None:
            return
        start, probs = self._start, self._probs
        sizes = np.flatnonzero(start >= 0)
        at = start[sizes]
        pads = at + sizes - 1
        # the first size with a non-finite or negative probability, found over
        # the whole layout; each size up to it is still checked in ascending
        # order, so the first bad size is named whatever its fault
        bad = ~np.isfinite(probs) | (probs < 0.0)
        bad[pads] = False
        first_bad = np.searchsorted(at, np.argmax(bad), side="right") - 1 if bad.any() else -1
        del bad  # freed before the layout-sized arrays below: see the spare buffer
        cdf = np.full(probs.size, np.inf)
        for i, (size, first) in enumerate(zip(sizes.tolist(), at.tolist())):
            p = probs[first : first + size - 1]
            if i == first_bad:
                fault = "nonnegative" if np.isfinite(p).all() else "finite"
                raise ValueError(f"size {size}: probabilities must be {fault}")
            # the pairwise sum, not the last CDF entry, decides which rows pass
            if abs(float(p.sum()) - 1.0) > 1e-12:
                raise ValueError(f"size {size}: probabilities sum to {float(p.sum())!r}, not 1")
            np.cumsum(p, out=cdf[first : first + size - 1])
        # Every size's guide in one pass: each CDF entry of size n, at offset
        # a, gets the key a + _bucket(entry, n - 1), and the pad the key
        # a + n - 1.  The n keys of a size lie in [a, a + n - 1], so the keys
        # below a + b are those of every smaller size, a in all, and the
        # size's own entries in buckets below b: guide[a + b] is the number
        # of keys below a + b, the per-size search counted for all sizes.
        key = np.repeat(sizes - 1, sizes)
        spare = cdf * key
        key -= 1
        # _bucket with the cap taken before truncation, which is the same for
        # entries >= 0 and leaves the inf pads finite for the cast
        np.copyto(key, np.minimum(spare, key, out=spare), casting="unsafe")
        key[pads] = sizes - 1
        # One spare buffer, freed last, holds each entry's row offset and then
        # the count of each key.  Where an array is freed while the build
        # still makes others, glibc keeps a layout's worth of heap resident
        # afterwards: 1.4 MB more on the 600-size linear kernel.
        spare = spare.view(np.int64)
        spare[:] = 0
        spare[at] = np.diff(at, prepend=0)
        key += np.cumsum(spare, out=spare)
        spare[:] = 0
        np.add.at(spare, key, 1)
        guide = np.cumsum(spare, out=key)
        guide -= spare  # the number of keys below each flat index
        start.flags.writeable = probs.flags.writeable = False
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_guide", guide)

    def __eq__(self, other):
        if not isinstance(other, SplitKernel):
            return NotImplemented
        if self._start is None or other._start is None:
            return self._start is other._start
        return np.array_equal(self._start, other._start) and np.array_equal(
            self._probs, other._probs
        )

    def __hash__(self):
        # offsets only: equal probabilities may differ in the sign of a zero
        return hash(None if self._start is None else self._start.tobytes())

    @property
    def family(self) -> str:
        return "uniform" if self._start is None else "table"

    @classmethod
    def uniform(cls) -> "SplitKernel":
        return cls()

    @classmethod
    def from_table(cls, table: dict) -> "SplitKernel":
        """A table kernel from {size: probabilities of k = 1..size-1}."""
        rows = {int(size): np.asarray(p, dtype=float) for size, p in table.items()}
        sizes = np.array(sorted(rows), dtype=np.int64)
        start, probs = _layout(sizes)
        for size, at in zip(sizes.tolist(), start[sizes].tolist()):
            if rows[size].size != size - 1:
                raise ValueError(
                    f"size {size} needs {size - 1} probabilities for k=1..{size - 1}, "
                    f"got {rows[size].size}"
                )
            probs[at : at + size - 1] = rows[size]
        return cls(start, probs)

    @classmethod
    def from_csv(cls, path) -> "SplitKernel":
        """Load a table kernel from CSV rows n,k,probability.

        ``#`` starts a comment and empty lines are skipped.  The first row
        left is a header when its first field is not an integer; every other
        row must parse.  Rows repeating an (n, k) pair add up in file order,
        and missing (n, k) pairs have probability 0.  A name ending in a
        suffix that numpy reads as compressed is refused before any read.
        """
        suffix = os.path.splitext(path)[1]  # as numpy splits it to pick a decompressor
        if suffix in (".gz", ".bz2", ".xz", ".lzma"):
            raise ValueError(
                f"kernel file {os.fspath(path)!r} ends in {suffix}, which numpy reads as "
                "compressed; kernel files are plain-text CSV"
            )
        with open(path) as fh:
            first = next(_kernel_lines(fh), None)
        header = first[0] if first and not _parses(first[2], (int,)) else 0
        try:
            with warnings.catch_warnings():
                # a file without data rows fails below as an empty table
                warnings.simplefilter("ignore", UserWarning)
                # by path, not by handle: numpy reads a path in blocks and a
                # handle line by line, which parses 20% slower
                rows = np.loadtxt(
                    path, dtype=_KERNEL_ROW, delimiter=",", skiprows=header,
                    usecols=(0, 1, 2), ndmin=1,
                )
        except ValueError:
            with open(path) as fh:
                for number, text, fields in _kernel_lines(fh):
                    if number > header and not _parses(fields, (int, int, float)):
                        raise ValueError(
                            f"kernel row {number} {text!r}: expected n,k,probability"
                        ) from None
            raise  # a field Python parses but numpy does not, such as 1_0
        n, k = rows["n"], rows["k"]
        outside = np.flatnonzero((k < 1) | (k > n - 1))
        if outside.size:
            size, split = int(n[outside[0]]), int(k[outside[0]])
            raise ValueError(f"size {size}: split k={split} outside 1..{size - 1}")
        # not np.unique: numpy 2.4's imports numpy.ma (~1 MB) to test for a mask
        start, probs = _layout(np.flatnonzero(np.bincount(n)))
        np.add.at(probs, start[n] + k - 1, rows["p"])
        return cls(start, probs)

    def probs(self, size: int) -> np.ndarray:
        """P(K_size = k) for k = 1..size-1; a read-only view for a table."""
        size = int(size)
        if size < 2:
            raise ValueError(f"split needs size >= 2, got {size}")
        if self._start is None:
            return np.full(size - 1, 1.0 / (size - 1))
        at = int(self._start.take(size, mode="clip"))
        if at < 0:
            raise ValueError(f"split kernel has no distribution for size {size}")
        return self._probs[at : at + size - 1]

    def draw(self, sizes: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Split sizes K for an array of current sizes (all >= 2) and matched
        uniforms; vectorized and deterministic in (sizes, u).

        A table draw is 1 + the number of CDF entries of its size that are
        <= u, capped at size - 1 for rows that sum to just under 1.  It
        starts at the first entry of u's guide bucket and steps once past
        an entry <= u, which finishes every draw whose bucket holds at most
        one CDF entry; only draws left inside a wider bucket are finished by
        binary search.  Raises ValueError unless every u lies in [0, 1).
        """
        sizes = np.asarray(sizes)
        u = np.asarray(u, dtype=float)
        if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
            raise ValueError("split draws need uniforms u in [0, 1)")
        if self._start is None:
            return 1 + _bucket(u, sizes - 1)
        start = self._start.take(sizes, mode="clip")
        if start.size and start.min() < 0:
            size = int(sizes[start < 0][0])
            raise ValueError(f"split kernel has no distribution for size {size}")
        del start  # taken again at the end: an _exact_sums worker's heap keeps its peak
        guide, cdf = self._guide, self._cdf
        at = _bucket(u, sizes - 1)
        at += self._start.take(sizes, mode="clip")
        j = guide.take(at)
        at += 1
        end = guide.take(at)
        del at
        # One step settles every bucket holding at most one CDF entry.  The
        # step cannot pass the bucket: the entry at ``end`` lies in a higher
        # bucket, so it is > u, and the entry past a row is its inf pad.
        step = cdf.take(j) <= u
        j += step
        pending = np.flatnonzero(step & (j < end))
        while pending.size:  # first index in [j, end) whose CDF entry is > u
            low, high = j[pending], end[pending]
            mid = (low + high) >> 1
            below = cdf.take(mid) <= u[pending]
            j[pending] = np.where(below, mid + 1, low)
            end[pending] = np.where(below, high, mid)
            pending = pending[j[pending] < end[pending]]
        j -= self._start.take(sizes, mode="clip")
        np.minimum(j, sizes - 2, out=j)
        j += 1
        return j


def _tree_chunks(kernel: SplitKernel, a: float, n: int, reps: int, seed: int):
    """The chunks of ``tree_cost_samples``."""
    _require_toll(a)
    n = _require_order(n, "n")
    reps = _require_order(reps, "reps")
    seed = _require_seed(seed)
    if kernel._start is not None:
        gaps = np.flatnonzero(kernel._start[2 : n + 1] < 0)
        if gaps.size:
            raise ValueError(f"split kernel has no distribution for size {gaps[0] + 2}")

    def chunk(rng, m):
        y = np.zeros(m)
        live = np.arange(m if n >= 2 else 0)  # ascending replicates of size >= 2
        sizes = np.full(live.size, n, dtype=np.int64)
        while live.size:
            y[live] += sizes.astype(float) ** a
            sizes = kernel.draw(sizes, rng.random(sizes.size))
            keep = np.flatnonzero(sizes >= 2)
            live, sizes = live[keep], sizes[keep]
        y += 1.0
        return y

    return _run_chunks(chunk, seed, reps)


def tree_cost_samples(kernel: SplitKernel, a: float, n: int, reps: int, seed: int) -> np.ndarray:
    """Replicates of the total cost Y_n: starting from size n, repeatedly add
    size^a and split to K < size until size 1, whose toll is 1.

    Each step works on the live replicates only, those still at size >= 2,
    kept compacted in ascending order; they take the chunk's uniforms in
    that order, as a pass over every replicate would hand them out.
    """
    return np.concatenate([chunk() for chunk in _tree_chunks(kernel, a, n, reps, seed)])


def simulate_tree_cost(
    kernel: SplitKernel,
    a: float,
    n: int,
    reps: int,
    seed: int,
    s_max: int = 4,
) -> SampleSummary:
    chunks = _tree_chunks(kernel, a, n, reps, seed)
    return _summary(
        chunks, reps, s_max, seed, "tree", {"a": float(a), "n": int(n), "kernel": kernel.family}
    )


def enumerate_tree_costs(kernel: SplitKernel, a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact distribution of Y_n by dynamic programming over all splitting
    paths; the brute-force check for the simulator at small n."""
    _require_toll(a)
    n = _require_order(n, "n")
    dists: list[dict[float, float]] = [dict() for _ in range(n + 1)]
    dists[1] = {1.0: 1.0}
    for m in range(2, n + 1):
        toll = float(m) ** a
        p_split = kernel.probs(m)
        acc: dict[float, float] = {}
        for k in range(1, m):
            pk = p_split[k - 1]
            if pk == 0.0:
                continue
            for y, p in dists[k].items():
                key = toll + y
                acc[key] = acc.get(key, 0.0) + pk * p
        dists[m] = acc
    values = np.array(sorted(dists[n]))
    probs = np.array([dists[n][v] for v in values])
    return values, probs


def _standard_error_report(label_a: str, label_b: str, rows, params: dict) -> ComparisonReport:
    """Report of |empirical - target| / standard error for each
    (empirical, target, standard error) row, with tolerance 3; a zero
    standard error gives 0 when the two agree and inf otherwise."""
    from .identities import ComparisonReport

    devs = [
        (0.0 if emp == target else math.inf) if se == 0.0 else abs(emp - target) / se
        for emp, target, se in rows
    ]
    return ComparisonReport(label_a, label_b, 3.0, devs, params)


def _ratio_check_inputs(s_max: int, a_prime: float) -> float:
    """The refusals of ``scale_free_ratio_check`` for a summary up to order
    s_max, which return a' as a float; the CLI runs them before any draw."""
    if s_max < 3:
        raise ValueError("summary needs moments up to order 3")
    a_prime = _require_positive(a_prime, "a_prime")
    _require_order_multiple(a_prime, 3, "a_prime")
    return a_prime


def scale_free_ratio_check(summary: SampleSummary, a_prime: float) -> ComparisonReport:
    """Compare the scale-invariant ratios m_2/m_1^2 and m_3/m_1^3 of a sample
    against the limit-law values for exponent a'.

    Deviations are reported in units of the propagated standard error
    (first-order, cross-moment covariances dropped, which only widens the
    error bars); tolerance is 3.
    """
    a_prime = _ratio_check_inputs(summary.max_order, a_prime)
    ref = fkp_moments(a_prime, 3)
    m = summary.moments
    se = summary.standard_errors
    rows = []
    detail = {}
    for order in (2, 3):
        target = ref[order] / ref[1] ** order
        ratio = m[order] / m[1] ** order
        ratio_se = ratio * math.hypot(se[order] / m[order], order * se[1] / m[1])
        rows.append((ratio, target, ratio_se))
        detail[f"ratio_{order}"] = {
            "empirical": ratio,
            "target": target,
            "standard_error": ratio_se,
        }
    return _standard_error_report(
        f"ratios({summary.sampler}, {', '.join(f'{k}={v}' for k, v in summary.sizes)})",
        f"ratios(fkp(a'={a_prime:g}))",
        rows,
        {"a_prime": a_prime, "seed": summary.seed, **detail},
    )


def stable_laplace_check(alpha: float, lambdas, n: int, seed: int) -> ComparisonReport:
    """Check mean exp(-lam S) against exp(-lam^alpha) for each lam, in units
    of the empirical standard error; tolerance is 3."""
    chunks = _stable_chunks(alpha, n, seed, _stable_from_log)
    lambdas = [float(lam) for lam in lambdas]

    def terms(x):
        for lam in lambdas:
            v = np.exp(-lam * x)
            yield v
            yield np.square(v, out=v)

    means, errors = _exact_means(
        chunks,
        int(n),
        terms,
        [(2 * i, 2 * i + 1) for i in range(len(lambdas))],
        [f"exp(-{lam:g} S)" for lam in lambdas],
    )
    targets = [math.exp(-lam**alpha) for lam in lambdas]
    return _standard_error_report(
        f"laplace(stable, alpha={alpha:g}, n={n})",
        "laplace(exact)",
        zip(means, targets, errors),
        {"alpha": float(alpha), "seed": int(seed)},
    )
