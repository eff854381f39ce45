"""Cross-checks between moment sequences: elementwise comparison reports
and the Laplace-exponent convention adjudication.

Both work on tuples of Python floats, so the ``check`` command runs without
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .moments import (
    BesselParams,
    MomentSequence,
    _require_positive,
    exp_functional_moments,
    laplace_exponent,
)

__all__ = [
    "ComparisonReport",
    "PhiAdjudication",
    "compare",
    "adjudicate_phi_convention",
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


@dataclass(frozen=True)
class PhiAdjudication:
    """Outcome of running the exponential-functional moment recursion under
    both Laplace-exponent conventions.

    Diagnostic only: ``matching`` lists the conventions whose recursion
    reproduces the tilt-derived moments within the tolerance, derived from
    ``reports``.
    """

    a_prime: float
    s_max: int
    tolerance: float
    reports: dict
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
    for convention in ("paper", "half"):
        vals = [1.0]
        for s in range(1, s_max + 1):
            vals.append(vals[-1] * s / laplace_exponent(s / 2.0, a_prime, convention))
        recursion = MomentSequence(
            vals,
            f"laplace-recursion[{convention}](a'={a_prime:g})",
            {"a_prime": a_prime, "convention": convention},
        )
        reports[convention] = compare(recursion, oracle, tolerance)

    return PhiAdjudication(
        a_prime=float(a_prime),
        s_max=int(s_max),
        tolerance=float(tolerance),
        reports=reports,
    )
