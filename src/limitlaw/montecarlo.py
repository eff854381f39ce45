"""Seeded samplers and estimators that validate the analytic moment
sequences empirically, plus a simulator of the tree-destruction recursion
Y_n = Y_{K_n} + n^a with Y_1 = 1.

Stream-splitting rule
---------------------
Sampling is chunked in fixed blocks of 65536 draws.  Chunk i uses the PCG64
generator seeded from ``numpy.random.SeedSequence(seed).spawn(...)[i]``, and
within a chunk the draw order is fixed by the algorithm.  Chunk boundaries
depend only on n, never on the thread count, and every reduction is an exact
sum rounded once (``_ExactSum``, hence order-independent), so identical
(seed, parameters) produce bit-identical summaries at any parallelism.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .identities import ComparisonReport
from .moments import fkp_moments

__all__ = [
    "SampleSummary",
    "SplitKernel",
    "rayleigh_samples",
    "positive_stable_samples",
    "mittag_leffler_samples",
    "tree_cost_samples",
    "sample_rayleigh",
    "sample_positive_stable",
    "sample_mittag_leffler",
    "simulate_tree_cost",
    "enumerate_tree_costs",
    "summarize",
    "scale_free_ratio_check",
    "stable_laplace_check",
]

_CHUNK = 1 << 16
_TINY = np.finfo(float).tiny
# np.frexp exponents of finite doubles lie in -1073..1024, so exponent + 1074
# is a nonnegative bin index, and every double is an integer multiple of
# 2**-(1074 + 53) = 1 / _SUM_SCALE.
_EXP_OFFSET = 1074
_SUM_SCALE = 1 << (_EXP_OFFSET + 53)


def _binned_sum(block: np.ndarray) -> int:
    """Exact sum of at most _CHUNK doubles, in units of 1 / _SUM_SCALE.

    Each value is mant * 2**exp with the 53-bit integer mantissa
    mant * 2**53 split into hi = floor(mant * 2**27) and a 26-bit remainder
    lo.  np.bincount adds the hi and lo parts of equal exponent in float64.
    Those bin totals are exact: a block has at most 2**16 values, so every bin
    stays below 2**43 (in units of 2**-26 for lo), far inside the 53 bits of
    a double.  The nonzero bins then merge into one Python int.
    """
    mant, exp = np.frexp(block)
    mant *= 2.0**27
    hi = np.floor(mant)
    mant -= hi  # lo / 2**26, in [0, 1)
    exp += _EXP_OFFSET
    hi_bins = np.bincount(exp, weights=hi)
    if not math.isfinite(hi_bins.sum()):  # inf and nan poison their bin
        raise OverflowError("exact sum of non-finite values")
    lo_bins = np.bincount(exp, weights=mant) * 2.0**26
    total = 0
    for b in np.flatnonzero(hi_bins).tolist():
        total += int(hi_bins[b]) << (b + 26)
    for b in np.flatnonzero(lo_bins).tolist():
        total += int(lo_bins[b]) << b
    return total


class _ExactSum:
    """Running exact sum of finite doubles, rounded once at the end.

    This is the small superaccumulator of Neal, "Fast exact summation using
    small and large superaccumulators" (arXiv:1505.05571), built from
    np.frexp and np.bincount.  The result is the correctly rounded exact sum,
    the same double that ``math.fsum`` returns, and it does not depend on
    how the values are split between ``add`` calls.  ``value`` raises
    OverflowError when the sum is too large for a double, as fsum does.
    """

    def __init__(self):
        self._total = 0

    def add(self, values: np.ndarray) -> None:
        for start in range(0, values.size, _CHUNK):
            self._total += _binned_sum(values[start : start + _CHUNK])

    def value(self) -> float:
        return self._total / _SUM_SCALE  # int / int rounds correctly


def _mean_and_se(values: np.ndarray, f, name: str) -> tuple[float, float]:
    """Mean of f(values) and its standard error sd/sqrt(n), from exact sums
    of f and f**2 over _CHUNK blocks, so temporaries stay one block long.
    Raises OverflowError naming ``name`` when either sum is not finite."""
    n = values.size
    total, total_sq = _ExactSum(), _ExactSum()
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            for start in range(0, n, _CHUNK):
                v = f(values[start : start + _CHUNK])
                total.add(v)
                total_sq.add(v * v)
        mean = total.value() / n
        mean_sq = total_sq.value() / n
    except OverflowError:
        raise OverflowError(
            f"{name} is not finite: a value, its square or a sum overflows"
        ) from None
    var = max(mean_sq - mean * mean, 0.0)
    return mean, (math.sqrt(var / (n - 1)) if n > 1 else 0.0)


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

    def to_dict(self) -> dict:
        return {
            "sampler": self.sampler,
            "seed": int(self.seed),
            "n": int(self.n),
            "params": dict(self.params),
            "moments": [float(m) for m in self.moments],
            "standard_errors": [float(s) for s in self.standard_errors],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _chunk_generators(seed: int, n_chunks: int):
    root = np.random.SeedSequence(int(seed))
    return [np.random.default_rng(ss) for ss in root.spawn(n_chunks)]


def _chunk_sizes(n: int):
    sizes = [_CHUNK] * (n // _CHUNK)
    if n % _CHUNK:
        sizes.append(n % _CHUNK)
    return sizes


def _run_chunks(chunk_fn, seed: int, n: int, threads: int) -> np.ndarray:
    sizes = _chunk_sizes(n)
    rngs = _chunk_generators(seed, len(sizes))
    jobs = list(zip(rngs, sizes))
    if threads <= 1:
        parts = [chunk_fn(rng, m) for rng, m in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda job: chunk_fn(*job), jobs))
    return np.concatenate(parts)


def _require_count(n: int, name: str = "n") -> int:
    n = int(n)
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n!r}")
    return n


def rayleigh_samples(sigma: float, n: int, seed: int, threads: int = 1) -> np.ndarray:
    """Rayleigh draws X = sigma * sqrt(-2 ln U) with U uniform on (0, 1)."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    n = _require_count(n)

    def chunk(rng, m):
        u = rng.random(m)
        x = sigma * np.sqrt(-2.0 * np.log1p(-u))
        return np.maximum(x, _TINY)  # keep the open-interval contract at u == 0

    return _run_chunks(chunk, seed, n, threads)


def positive_stable_samples(alpha: float, n: int, seed: int, threads: int = 1) -> np.ndarray:
    """One-sided alpha-stable draws with E exp(-lam S) = exp(-lam^alpha).

    Kanter's trigonometric construction: S = (A(U)/E)^{(1-alpha)/alpha} with
    U uniform on (0, pi), E unit exponential and
    A(u) = (sin(alpha u)^alpha sin((1-alpha) u)^{1-alpha} / sin u)^{1/(1-alpha)}.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    n = _require_count(n)
    ratio = (1.0 - alpha) / alpha

    def chunk(rng, m):
        u = np.maximum(rng.random(m), _TINY) * math.pi
        e = np.maximum(rng.standard_exponential(m), _TINY)
        log_a = (
            alpha * np.log(np.sin(alpha * u))
            + (1.0 - alpha) * np.log(np.sin((1.0 - alpha) * u))
            - np.log(np.sin(u))
        ) / (1.0 - alpha)
        return np.exp(ratio * (log_a - np.log(e)))

    return _run_chunks(chunk, seed, n, threads)


def mittag_leffler_samples(alpha: float, n: int, seed: int, threads: int = 1) -> np.ndarray:
    """ML(alpha) draws L = S^{-alpha} with S one-sided alpha-stable."""
    return positive_stable_samples(alpha, n, seed, threads) ** (-alpha)


def summarize(
    values: np.ndarray, s_max: int, seed: int, sampler: str, params: dict | None = None
) -> SampleSummary:
    """Empirical moments up to order s_max with standard errors.

    For each order s the sums of X**s and X**(2s) = (X**s)**2 are exact
    (``_ExactSum``: exponent-binned integer mantissas, rounded once), taken
    block by block over _CHUNK values; naive accumulation loses digits in
    fourth moments at n = 1e6.  Raises OverflowError naming the first order
    whose power, squared power or sum is not finite.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 1:
        raise ValueError("values must be non-empty")
    s_max = int(s_max)
    if s_max < 1:
        raise ValueError(f"s_max must be >= 1, got {s_max!r}")
    moments = np.empty(s_max + 1)
    errors = np.zeros(s_max + 1)
    moments[0] = 1.0
    for s in range(1, s_max + 1):
        moments[s], errors[s] = _mean_and_se(values, lambda x: x**s, f"moment of order {s}")
    return SampleSummary(
        sampler=sampler,
        n=n,
        seed=int(seed),
        moments=moments,
        standard_errors=errors,
        params=dict(params or {}),
    )


def sample_rayleigh(
    sigma: float, n: int, seed: int, s_max: int = 4, threads: int = 1
) -> SampleSummary:
    x = rayleigh_samples(sigma, n, seed, threads)
    return summarize(x, s_max, seed, "rayleigh", {"sigma": float(sigma)})


def sample_positive_stable(
    alpha: float, n: int, seed: int, s_max: int = 4, threads: int = 1
) -> SampleSummary:
    x = positive_stable_samples(alpha, n, seed, threads)
    return summarize(x, s_max, seed, "stable", {"alpha": float(alpha)})


def sample_mittag_leffler(
    alpha: float, n: int, seed: int, s_max: int = 4, threads: int = 1
) -> SampleSummary:
    x = mittag_leffler_samples(alpha, n, seed, threads)
    return summarize(x, s_max, seed, "mittag-leffler", {"alpha": float(alpha)})


@dataclass(frozen=True)
class SplitKernel:
    """Distribution family of the split size K_n on {1..n-1}.

    family "uniform" covers every size; family "table" carries explicit
    probability vectors per size (row n gives P(K_n = k) for k = 1..n-1).
    """

    family: str
    table: dict | None = None

    def __post_init__(self):
        if self.family not in ("uniform", "table"):
            raise ValueError(f"kernel family must be 'uniform' or 'table', got {self.family!r}")
        if self.family == "table":
            if not self.table:
                raise ValueError("table kernel needs at least one size")
            clean = {}
            for size, probs in self.table.items():
                size = int(size)
                if size < 2:
                    raise ValueError(f"table rows need size >= 2, got {size}")
                p = np.array(probs, dtype=float)
                if p.size != size - 1:
                    raise ValueError(
                        f"size {size} needs {size - 1} probabilities for k=1..{size - 1}, "
                        f"got {p.size}"
                    )
                if np.any(p < 0.0):
                    raise ValueError(f"size {size}: probabilities must be nonnegative")
                if abs(float(p.sum()) - 1.0) > 1e-12:
                    raise ValueError(
                        f"size {size}: probabilities sum to {float(p.sum())!r}, not 1"
                    )
                p.flags.writeable = False
                clean[size] = p
            object.__setattr__(self, "table", clean)
        elif self.table is not None:
            raise ValueError("uniform kernel takes no table")

    @classmethod
    def uniform(cls) -> "SplitKernel":
        return cls(family="uniform")

    @classmethod
    def from_table(cls, table: dict) -> "SplitKernel":
        return cls(family="table", table=table)

    @classmethod
    def from_csv(cls, path) -> "SplitKernel":
        """Load a table kernel from CSV rows (n, k, probability); an optional
        header row is skipped.  Missing (n, k) pairs default to probability 0."""
        rows: dict[int, dict[int, float]] = {}
        with open(path, newline="") as fh:
            for line, row in enumerate(csv.reader(fh), 1):
                if not row or row[0].strip().startswith("#"):
                    continue
                try:
                    size = int(row[0])
                except ValueError:
                    continue  # header row
                try:
                    k, prob = int(row[1]), float(row[2])
                except (IndexError, ValueError):
                    raise ValueError(
                        f"kernel row {line} {','.join(row)!r}: expected n,k,probability"
                    ) from None
                if not 1 <= k <= size - 1:
                    raise ValueError(f"size {size}: split k={k} outside 1..{size - 1}")
                entries = rows.setdefault(size, {})
                entries[k] = entries.get(k, 0.0) + prob
        table = {}
        for size, entries in rows.items():
            p = np.zeros(size - 1)
            for k, prob in entries.items():
                p[k - 1] = prob
            table[size] = p
        return cls.from_table(table)

    def covers(self, size: int) -> bool:
        return self.family == "uniform" or int(size) in self.table

    def probs(self, size: int) -> np.ndarray:
        """P(K_size = k) for k = 1..size-1."""
        size = int(size)
        if size < 2:
            raise ValueError(f"split needs size >= 2, got {size}")
        if self.family == "uniform":
            return np.full(size - 1, 1.0 / (size - 1))
        if size not in self.table:
            raise ValueError(f"split kernel has no distribution for size {size}")
        return self.table[size]

    def draw(self, sizes: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Split sizes K for an array of current sizes (all >= 2) and matched
        uniforms; vectorized and deterministic in (sizes, u)."""
        sizes = np.asarray(sizes)
        if self.family == "uniform":
            k = 1 + (u * (sizes - 1)).astype(np.int64)
            return np.minimum(k, sizes - 1)
        out = np.empty(sizes.size, dtype=np.int64)
        for size in np.unique(sizes):
            mask = sizes == size
            cdf = np.cumsum(self.probs(int(size)))
            idx = np.searchsorted(cdf, u[mask], side="right")
            out[mask] = 1 + np.minimum(idx, size - 2)
        return out


def tree_cost_samples(
    kernel: SplitKernel, a: float, n: int, reps: int, seed: int, threads: int = 1
) -> np.ndarray:
    """Replicates of the total cost Y_n: starting from size n, repeatedly add
    size^a and split to K < size until size 1, whose toll is 1."""
    if not (math.isfinite(float(a)) and a >= 0.0):
        raise ValueError(f"toll exponent a must be finite and >= 0, got {a!r}")
    n = _require_count(n, "n")
    reps = _require_count(reps, "reps")
    if kernel.family == "table":
        for size in range(2, n + 1):
            if not kernel.covers(size):
                raise ValueError(f"split kernel has no distribution for size {size}")

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

    return _run_chunks(chunk, seed, reps, threads)


def simulate_tree_cost(
    kernel: SplitKernel,
    a: float,
    n: int,
    reps: int,
    seed: int,
    s_max: int = 4,
    threads: int = 1,
) -> SampleSummary:
    y = tree_cost_samples(kernel, a, n, reps, seed, threads)
    return summarize(
        y, s_max, seed, "tree", {"a": float(a), "n": int(n), "kernel": kernel.family}
    )


def enumerate_tree_costs(kernel: SplitKernel, a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact distribution of Y_n by dynamic programming over all splitting
    paths; the brute-force check for the simulator at small n."""
    if not (math.isfinite(float(a)) and a >= 0.0):
        raise ValueError(f"toll exponent a must be finite and >= 0, got {a!r}")
    n = _require_count(n, "n")
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


def scale_free_ratio_check(summary: SampleSummary, a_prime: float) -> ComparisonReport:
    """Compare the scale-invariant ratios m_2/m_1^2 and m_3/m_1^3 of a sample
    against the limit-law values for exponent a'.

    Deviations are reported in units of the propagated standard error
    (first-order, cross-moment covariances dropped, which only widens the
    error bars); tolerance is 3.
    """
    if summary.max_order < 3:
        raise ValueError("summary needs moments up to order 3")
    ref = fkp_moments(a_prime, 3)
    m = summary.moments
    se = summary.standard_errors
    devs = []
    detail = {}
    for order in (2, 3):
        target = ref[order] / ref[1] ** order
        ratio = m[order] / m[1] ** order
        rel_err = math.hypot(se[order] / m[order], order * se[1] / m[1])
        ratio_se = ratio * rel_err
        if ratio_se == 0.0:
            dev = 0.0 if ratio == target else math.inf
        else:
            dev = abs(ratio - target) / ratio_se
        devs.append(dev)
        detail[f"ratio_{order}"] = {
            "empirical": ratio,
            "target": target,
            "standard_error": ratio_se,
        }
    devs = np.array(devs)
    max_dev = float(np.max(devs))
    return ComparisonReport(
        label_a=f"ratios({summary.sampler}, n={summary.n})",
        label_b=f"ratios(fkp(a'={a_prime:g}))",
        tolerance=3.0,
        deviations=devs,
        max_deviation=max_dev,
        passed=bool(max_dev <= 3.0),
        params={"a_prime": float(a_prime), "seed": summary.seed, **detail},
    )


def stable_laplace_check(
    alpha: float, lambdas, n: int, seed: int, threads: int = 1
) -> ComparisonReport:
    """Check mean exp(-lam S) against exp(-lam^alpha) for each lam, in units
    of the empirical standard error; tolerance is 3."""
    s = positive_stable_samples(alpha, n, seed, threads)
    devs = []
    detail = {}
    for lam in lambdas:
        emp, se = _mean_and_se(s, lambda x: np.exp(-float(lam) * x), f"exp(-{lam:g} S)")
        target = math.exp(-float(lam) ** alpha)
        dev = abs(emp - target) / se if se > 0.0 else (0.0 if emp == target else math.inf)
        devs.append(dev)
        detail[f"lambda_{lam:g}"] = {"empirical": emp, "target": target, "standard_error": se}
    devs = np.array(devs)
    max_dev = float(np.max(devs))
    return ComparisonReport(
        label_a=f"laplace(stable, alpha={alpha:g}, n={n})",
        label_b="laplace(exact)",
        tolerance=3.0,
        deviations=devs,
        max_deviation=max_dev,
        passed=bool(max_dev <= 3.0),
        params={"alpha": float(alpha), "seed": int(seed)},
    )
