"""Cross-checks between moment sequences: elementwise comparison reports,
the Laplace-exponent convention adjudication, and moment-problem diagnostics
(Hankel positive-definiteness, Carleman partial sums).

Comparisons and the adjudication work on tuples of Python floats, so the
``check`` command runs without numpy; the two moment-problem diagnostics
import it when they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .moments import (
    BesselParams,
    MomentSequence,
    _require_order,
    _require_positive,
    exp_functional_moments,
    laplace_exponent,
)

__all__ = [
    "ComparisonReport",
    "HankelDiagnostics",
    "PhiAdjudication",
    "compare",
    "adjudicate_phi_convention",
    "hankel_positive_definite",
    "carleman_partial_sums",
]

# Guard for the relative-deviation denominator, so 0/0 never occurs at m_0.
_DENOM_EPS = 1e-300


def _finite_or_none(value) -> float | None:
    value = float(value)
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class ComparisonReport:
    """Deviations of one sequence from another against a tolerance; the
    largest deviation and the verdict are derived from them once."""

    label_a: str
    label_b: str
    tolerance: float
    deviations: tuple
    max_deviation: float = field(init=False)
    passed: bool = field(init=False)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        devs = tuple(map(float, self.deviations))
        # a NaN deviation makes the largest one NaN, and so a failure
        max_dev = math.nan if any(map(math.isnan, devs)) else max(devs)
        object.__setattr__(self, "deviations", devs)
        object.__setattr__(self, "max_deviation", max_dev)
        object.__setattr__(self, "passed", bool(max_dev <= self.tolerance))

    def to_dict(self) -> dict:
        """JSON-ready fields; a non-finite deviation (zero standard error in a
        Monte Carlo check) becomes None, i.e. JSON null."""
        return {
            "label_a": self.label_a,
            "label_b": self.label_b,
            "tolerance": float(self.tolerance),
            "per_s_deviations": [_finite_or_none(d) for d in self.deviations],
            "max_deviation": _finite_or_none(self.max_deviation),
            "pass": bool(self.passed),
            "params": dict(self.params),
        }


def compare(seq_a: MomentSequence, seq_b: MomentSequence, tolerance: float) -> ComparisonReport:
    """Relative deviation |a-b| / max(|a|, |b|, eps) per order, with a pass
    flag against the tolerance."""
    tolerance = _require_positive(tolerance, "tolerance")
    if len(seq_a) != len(seq_b):
        raise ValueError(f"length mismatch: {len(seq_a)} vs {len(seq_b)}")
    devs = [
        abs(a - b) / max(abs(a), abs(b), _DENOM_EPS) for a, b in zip(seq_a.values, seq_b.values)
    ]
    return ComparisonReport(
        label_a=seq_a.label,
        label_b=seq_b.label,
        tolerance=tolerance,
        deviations=devs,
        params={"a": dict(seq_a.params), "b": dict(seq_b.params)},
    )


def _log10_slope(deviations) -> float | None:
    """Slope of the least-squares line through (s, log10 dev_s) over the
    orders s with a nonzero deviation, in closed form: the sum of
    (s - mean s)(y - mean y) over that of (s - mean s)^2.  None when fewer
    than two orders have a nonzero deviation."""
    points = [(s, math.log10(d)) for s, d in enumerate(deviations) if d > 0.0]
    if len(points) < 2:
        return None
    s_mean = math.fsum(s for s, _ in points) / len(points)
    y_mean = math.fsum(y for _, y in points) / len(points)
    sxy = math.fsum((s - s_mean) * (y - y_mean) for s, y in points)
    sxx = math.fsum((s - s_mean) ** 2 for s, _ in points)
    return sxy / sxx


@dataclass(frozen=True)
class PhiAdjudication:
    """Outcome of running the exponential-functional moment recursion under
    both Laplace-exponent conventions.

    Diagnostic only: ``matching`` lists the conventions whose recursion
    reproduces the tilt-derived moments within the tolerance, derived from
    ``reports``, and the slopes record how the log-deviation trends with
    the order.
    """

    a_prime: float
    s_max: int
    tolerance: float
    reports: dict
    slopes: dict
    matching: tuple = field(init=False)

    def __post_init__(self):
        matching = tuple(c for c, report in self.reports.items() if report.passed)
        object.__setattr__(self, "matching", matching)

    def to_dict(self) -> dict:
        return {
            "a_prime": self.a_prime,
            "s_max": self.s_max,
            "tolerance": self.tolerance,
            "reports": {k: r.to_dict() for k, r in self.reports.items()},
            "log10_deviation_slopes": dict(self.slopes),
            "matching": list(self.matching),
        }


def adjudicate_phi_convention(
    a_prime: float, s_max: int = 20, tolerance: float = 1e-8
) -> PhiAdjudication:
    """Evaluate s! / prod_{k<=s} Phi(k/2) under both the as-stated (4a') and
    the halved (2a') Laplace-exponent conventions and compare each against
    the tilt-derived exponential-functional moments.

    Never asserts a winner; returns both reports so the outcome can be
    recorded.  Deterministic in (a_prime, s_max, tolerance).
    """
    oracle = exp_functional_moments(BesselParams(0.5, a_prime), s_max)

    reports: dict = {}
    slopes: dict = {}
    for convention in ("paper", "half"):
        vals = [1.0]
        for s in range(1, s_max + 1):
            vals.append(vals[-1] * s / laplace_exponent(s / 2.0, a_prime, convention))
        recursion = MomentSequence(
            vals,
            f"laplace-recursion[{convention}](a'={a_prime:g})",
            {"a_prime": a_prime, "convention": convention},
        )
        report = compare(recursion, oracle, tolerance)
        reports[convention] = report
        slopes[convention] = _log10_slope(report.deviations)

    return PhiAdjudication(
        a_prime=float(a_prime),
        s_max=int(s_max),
        tolerance=float(tolerance),
        reports=reports,
        slopes=slopes,
    )


@dataclass(frozen=True)
class HankelDiagnostics:
    """Per-order record of the Hankel matrices H_j = [m_{u+v}]_{u,v<=j} for
    j = 0..max_order: the smallest LDL^T pivot of each, relative to its
    diagonal entry (a pivot of D^{-1/2} H_j D^{-1/2} with D = diag H_j, in
    (0, 1] when H_j is positive definite), and whether H_j is positive
    definite."""

    smallest_pivots: tuple
    positive_definite: tuple

    @property
    def all_positive_definite(self) -> bool:
        return all(self.positive_definite)


def _ldl_pivots(h):
    """Diagonal pivots of the unpivoted LDL^T factorization of a symmetric
    matrix; stops after the first non-positive pivot (the remaining ones are
    undefined)."""
    import numpy as np

    n = h.shape[0]
    low = np.zeros((n, n))
    d = np.zeros(n)
    for k in range(n):
        d[k] = h[k, k] - np.dot(low[k, :k] ** 2, d[:k])
        if d[k] <= 0.0:
            return d[: k + 1]
        low[k + 1 :, k] = (h[k + 1 :, k] - low[k + 1 :, :k] @ (d[:k] * low[k, :k])) / d[k]
    return d


def hankel_positive_definite(seq: MomentSequence, max_order: int) -> HankelDiagnostics:
    """Positive-definiteness of every Hankel matrix H_j, j <= max_order, from
    one LDL^T factorization of D^{-1/2} H_max_order D^{-1/2}, D = diag H.

    Pivot k is judged against its own diagonal entry m_2k, so the verdict
    does not depend on the scale of the moments.  Pivot k reads only rows and
    columns <= k, so the pivots of order j are the first j + 1, and its
    smallest pivot is their running minimum; past a non-positive pivot, where
    the factorization stops, that pivot is held.  H_j fails when its smallest
    relative pivot is not above 1e-10, that is, when some pivot k <= j is
    not above 1e-10 * m_2k; failures are recorded, not raised.  Requires
    moments up to order 2*max_order.
    """
    max_order = int(max_order)
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order!r}")
    if len(seq) < 2 * max_order + 1:
        raise ValueError(
            f"need at least {2 * max_order + 1} moments for Hankel order {max_order}, "
            f"got {len(seq)}"
        )
    import numpy as np

    values = np.asarray(seq.values)
    idx = np.arange(max_order + 1)
    scale = 1.0 / np.sqrt(values[: 2 * max_order + 1 : 2])
    d = _ldl_pivots(scale[:, None] * values[idx[:, None] + idx[None, :]] * scale)
    smallest = np.minimum.accumulate(np.pad(d, (0, max_order + 1 - d.size), mode="edge"))
    return HankelDiagnostics(
        smallest_pivots=tuple(smallest.tolist()),
        positive_definite=tuple((smallest > 1e-10).tolist()),
    )


def carleman_partial_sums(seq: MomentSequence, s_max: int | None = None):
    """Partial sums of m_{2s}^{-1/(2s)} for s = 1..s_max, as a numpy array.

    Divergence of the full series certifies moment determinacy; the output is
    descriptive only (divergence is not finitely decidable).  Nondecreasing
    by construction.
    """
    if s_max is None:
        s_max = seq.max_order // 2
    s_max = _require_order(s_max)
    if 2 * s_max > seq.max_order:
        raise ValueError(
            f"need even moments up to order {2 * s_max}, sequence stops at {seq.max_order}"
        )
    import numpy as np

    s = np.arange(1, s_max + 1)
    terms = np.exp(-np.log(np.asarray(seq.values)[2 * s]) / (2.0 * s))
    return np.cumsum(terms)
