"""Closed-form moment sequences of the tree-destruction limit law and of the
local-time / exponential-functional laws it coincides with, together with the
tilt and scale operators that connect them.

All sequences are generated in log space from Python floats and
exponentiated once per entry by ``math.exp``; an entry whose log exceeds the
double-precision range raises OverflowError, and one that underflows to 0
FloatingPointError, naming the failing order.  A sequence's values are a
tuple of floats, and this module loads without numpy.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

from .gammakit import log_beta, log_gamma, log_gamma_array, log_gamma_ratio

__all__ = [
    "MomentSequence",
    "BesselParams",
    "fkp_moments",
    "fkp_quarter_closed_form",
    "kappa",
    "local_time_moments",
    "scaled_local_time_moments",
    "tilt",
    "tilted_moments",
    "tilted_moments_beta_fraction",
    "scale",
    "laplace_exponent",
    "exp_functional_moments",
    "mean_local_time_at_1",
    "mittag_leffler_moments",
]

_LOG_MAX = math.log(sys.float_info.max)

LN2 = math.log(2.0)


@dataclass(frozen=True)
class MomentSequence:
    """Finite prefix m_0..m_S of a positive moment sequence.

    ``values[s]`` is the s-th raw moment; ``values[0]`` is pinned to 1.
    Entries must be finite and strictly positive.  Instances are immutable:
    the values are held as a tuple of floats (``np.asarray(seq.values)``
    gives an array).
    """

    values: tuple
    label: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            vals = tuple(map(float, self.values))
        except TypeError:  # an entry that is no number, such as a row of a 2-d array
            vals = ()
        if not vals:
            raise ValueError("values must be a non-empty 1-d array")
        if vals[0] != 1.0:
            raise ValueError(f"m_0 must equal 1 exactly, got {vals[0]!r}")
        if not all(0.0 < v < math.inf for v in vals):  # NaN fails too
            raise ValueError("all moments must be finite and strictly positive")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "params", dict(self.params))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, s):
        return self.values[s]

    @property
    def max_order(self) -> int:
        return len(self.values) - 1

    def is_log_convex(self, rtol: float = 1e-12) -> bool:
        """Check m_{s-1} * m_{s+1} >= m_s**2 up to a relative slack.

        Holds exactly for moments of any nonnegative random variable
        (Cauchy-Schwarz); the slack absorbs floating-point rounding.
        """
        lg = [math.log(v) for v in self.values]
        slack = math.log1p(-rtol)
        return all(a + c - 2.0 * b >= slack for a, b, c in zip(lg, lg[1:], lg[2:]))

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "params": dict(self.params),
            "values": list(self.values),
        }


@dataclass(frozen=True)
class BesselParams:
    """Parameters of the reinforced Bessel local-time law.

    alpha in (0, 1) and beta > 0 are the exponents the moment formulas
    read, and t > 0 is the time horizon; they are held as given.  The
    dimension d = 2(1 - alpha) in (0, 2) and the reinforcement parameter
    p = 1/2 - alpha/(2 beta) < 1/2 are derived from them.
    """

    alpha: float
    beta: float
    t: float = 1.0

    def __post_init__(self):
        _require_alpha(self.alpha)
        _require_positive(self.beta, "beta")
        _require_positive(self.t, "t")

    @classmethod
    def from_d_p(cls, d: float, p: float, t: float = 1.0) -> "BesselParams":
        """The law at dimension d in (0, 2) and reinforcement p < 1/2,
        converted once to alpha = 1 - d/2 and beta = alpha / (1 - 2p)."""
        for name, v in (("d", d), ("p", p)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if not 0.0 < d < 2.0:
            raise ValueError(f"d must lie in (0, 2) so that alpha is in (0, 1), got {d!r}")
        if not p < 0.5:
            raise ValueError(f"p must be < 1/2, got {p!r}")
        alpha = 1.0 - d / 2.0
        return cls(alpha, alpha / (1.0 - 2.0 * p), t)

    @property
    def d(self) -> float:
        return 2.0 * (1.0 - self.alpha)

    @property
    def p(self) -> float:
        return 0.5 - self.alpha / (2.0 * self.beta)

    def to_dict(self) -> dict:
        return {"d": self.d, "p": self.p, "t": self.t, "alpha": self.alpha, "beta": self.beta}


def _exp_sequence(log_values: list, label: str) -> tuple:
    """``math.exp`` of per-order logs (orders 1..S) prefixed with m_0 = 1;
    raises OverflowError naming the first order that overflows double range,
    and FloatingPointError the first that underflows to 0."""
    for s, log_value in enumerate(log_values, 1):
        if log_value > _LOG_MAX:
            raise OverflowError(
                f"{label}: moment overflows double precision at order s={s} "
                f"(log value {log_value:.1f})"
            )
    out = (1.0, *map(math.exp, log_values))  # math.exp returns 0 on underflow
    if 0.0 in out:
        s_fail = out.index(0.0)
        raise FloatingPointError(
            f"{label}: moment underflows double precision to 0 at order s={s_fail} "
            f"(log value {log_values[s_fail - 1]:.1f})"
        )
    return out


# One checker per input rule of the package; the other modules import them.


def _require_order(value: int, name: str = "s_max") -> int:
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return value


def _require_positive(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 < value < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


def _require_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def _require_toll(a: float) -> None:
    if not 0.0 <= float(a) < math.inf:
        raise ValueError(f"toll exponent a must be finite and >= 0, got {a!r}")


def _require_order_multiple(value: float, s_max: int, name: str) -> None:
    """A sequence up to order s_max takes the gamma ratios at k * value for
    k <= s_max, which must be finite."""
    value = float(value)  # a Python float product never warns
    if not math.isfinite(value * s_max):
        raise ValueError(f"{name} * {s_max} must be finite, got {name}={value!r}")


def fkp_moments(a_prime: float, s_max: int) -> MomentSequence:
    """Moments of the one-sided tree-destruction limit law.

    m_s = s! / 2^{s/2} * prod_{k=1..s} Gamma(k a') / Gamma(k a' + 1/2),
    with m_0 = 1.  Valid for any a' > 0; the tree recursion itself produces
    a' = a + 1/2 >= 1/2.
    """
    a_prime = _require_positive(a_prime, "a_prime")
    s_max = _require_order(s_max)
    _require_order_multiple(a_prime, s_max, "a_prime")
    label = f"fkp(a'={a_prime:g})"
    k = range(1, s_max + 1)
    ratios = itertools.accumulate(log_gamma_ratio([j * a_prime for j in k], 0.5))
    logs = [
        lg - 0.5 * j * LN2 + r
        for j, lg, r in zip(k, log_gamma_array([j + 1.0 for j in k]), ratios)
    ]
    return MomentSequence(_exp_sequence(logs, label), label, {"a_prime": a_prime})


def kappa(params: BesselParams) -> float:
    """Scale factor (2t)^alpha Gamma(1+alpha) / ((1-2p)^alpha Gamma(1-alpha)),
    with 1 - 2p = alpha/beta."""
    a = params.alpha
    return math.exp(
        a * math.log(2.0 * params.t)
        + log_gamma(1.0 + a)
        - a * math.log(a / params.beta)
        - log_gamma(1.0 - a)
    )


def _log_scaled_local_time(params: BesselParams, s_max: int) -> list:
    """log of mu_s = (1-2p)/Gamma(1+alpha) * Gamma(s) * prod_{j<s} Gamma(j b)/Gamma(a+j b)
    for s = 1..s_max, with 1 - 2p = alpha/beta."""
    a, b = params.alpha, params.beta
    head = math.log(a / b) - log_gamma(1.0 + a)
    acc = itertools.accumulate(log_gamma_ratio([j * b for j in range(1, s_max)], a), initial=0.0)
    return [head + lg + c for lg, c in zip(log_gamma_array(range(1, s_max + 1)), acc)]


def local_time_moments(params: BesselParams, s_max: int) -> MomentSequence:
    """Raw local-time moments at time t.

    E(L_t^s) = kappa(p,t)^s * (1-2p)/Gamma(1+alpha) * Gamma(s)
               * prod_{j=1..s-1} Gamma(j beta) / Gamma(alpha + j beta).
    """
    s_max = _require_order(s_max)
    label = f"local-time(alpha={params.alpha:g}, beta={params.beta:g}, t={params.t:g})"
    log_k = math.log(kappa(params))
    logs = [v + s * log_k for s, v in enumerate(_log_scaled_local_time(params, s_max), 1)]
    return MomentSequence(_exp_sequence(logs, label), label, params.to_dict())


def scaled_local_time_moments(params: BesselParams, s_max: int) -> MomentSequence:
    """Moments of the local time divided by kappa(p, t); independent of t.

    The closed form carries no t.  ``check --identity t-independence``
    compares raw moments rescaled at two distinct times; rebuilding this
    sequence from its own logs could only measure rounding.
    """
    s_max = _require_order(s_max)
    label = f"scaled-local-time(alpha={params.alpha:g}, beta={params.beta:g})"
    out = _exp_sequence(_log_scaled_local_time(params, s_max), label)
    return MomentSequence(out, label, {k: v for k, v in params.to_dict().items() if k != "t"})


def tilt(seq: MomentSequence) -> MomentSequence:
    """Size-bias a moment sequence: out[s] = seq[s+1] / seq[1].

    The output is one order shorter than the input.
    """
    if len(seq) < 2:
        raise ValueError("tilt needs at least orders 0 and 1")
    m_1 = seq.values[1]
    out = (1.0, *(v / m_1 for v in seq.values[2:]))
    return MomentSequence(out, f"tilt({seq.label})", seq.params)


def tilted_moments(alpha: float, beta: float, s_max: int) -> MomentSequence:
    """Closed form of the tilted scaled local time.

    E(T^s) = Gamma(s+1) * prod_{j=1..s} Gamma(j beta) / Gamma(alpha + j beta).
    Must equal tilt(scaled_local_time_moments(...)) entrywise.
    """
    _require_alpha(alpha)
    _require_positive(beta, "beta")
    s_max = _require_order(s_max)
    _require_order_multiple(beta, s_max, "beta")
    label = f"tilted(alpha={alpha:g}, beta={beta:g})"
    s = range(1, s_max + 1)
    ratios = itertools.accumulate(log_gamma_ratio([j * beta for j in s], alpha))
    logs = [lg + r for lg, r in zip(log_gamma_array([j + 1.0 for j in s]), ratios)]
    return MomentSequence(_exp_sequence(logs, label), label, {"alpha": alpha, "beta": beta})


def tilted_moments_beta_fraction(alpha: float, m: int, s_max: int) -> MomentSequence:
    """Telescoped tilted moments for beta = alpha/m, m a positive integer.

    E(T^s) = Gamma(s+1) * prod_{j=1..m} Gamma(j alpha/m) / Gamma((s+j) alpha/m).
    Must equal tilted_moments(alpha, alpha/m, s_max) entrywise.  The s_max x m
    table of gamma arguments is refused beyond 2**26 entries, the terms of one
    chirp-z transform, before any allocation.
    """
    _require_alpha(alpha)
    m = _require_order(m, "m")
    s_max = _require_order(s_max)
    if m * s_max > 1 << 26:
        raise ValueError(f"m * s_max must be at most 2**26, got m={m} and s_max={s_max}")
    label = f"tilted-beta-fraction(alpha={alpha:g}, m={m})"
    frac = alpha / m
    j = range(1, m + 1)
    head = math.fsum(log_gamma_array([k * frac for k in j]))
    s = range(1, s_max + 1)
    logs = [
        lg + head - math.fsum(log_gamma_array([(r + k) * frac for k in j]))
        for r, lg in zip(s, log_gamma_array([r + 1.0 for r in s]))
    ]
    return MomentSequence(_exp_sequence(logs, label), label, {"alpha": alpha, "m": m})


def scale(seq: MomentSequence, c: float) -> MomentSequence:
    """Moments of c*X from the moments of X: out[s] = c^s * seq[s]."""
    c = _require_positive(c, "scale factor")
    label = f"scale({seq.label}, {c:g})"
    log_c = math.log(c)
    logs = [math.log(v) + s * log_c for s, v in enumerate(seq.values[1:], 1)]
    return MomentSequence(_exp_sequence(logs, label), label, {**seq.params, "scale": c})


def laplace_exponent(r: float, a_prime: float, convention: str = "paper") -> float:
    """Laplace exponent of the subordinator behind the exponential functional.

    Evaluates 2^{-1/2} (1/m)^{1/2} Gamma(1/2) / ((1/2) B(1/2, m r)) with
    m = 4a' under the "paper" convention and m = 2a' under the "half"
    convention.  The two conventions disagree; identities.adjudicate_phi_convention
    measures which one is consistent with the exponential-functional moments.
    """
    r = _require_positive(r, "r")
    a_prime = _require_positive(a_prime, "a_prime")
    if convention not in ("paper", "half"):
        raise ValueError(f"convention must be 'paper' or 'half', got {convention!r}")
    m = (4.0 if convention == "paper" else 2.0) * a_prime
    return math.exp(
        -0.5 * LN2 - 0.5 * math.log(m) + log_gamma(0.5) - math.log(0.5) - log_beta(0.5, m * r)
    )


def exp_functional_moments(params: BesselParams, s_max: int) -> MomentSequence:
    """Moments of the exponential functional of the subordinator at t = 1.

    Built as the tilt of the raw local-time moments at time 1.  It must
    equal kappa(p,1)^s * tilted_moments entrywise; ``check --identity
    exp-functional`` makes that comparison and exits 1 when it fails.
    """
    if params.t != 1.0:
        raise ValueError(f"exp_functional_moments requires t = 1, got t={params.t!r}")
    s_max = _require_order(s_max)
    out = tilt(local_time_moments(params, s_max + 1))
    label = f"exp-functional(alpha={params.alpha:g}, beta={params.beta:g})"
    return MomentSequence(out.values, label, params.to_dict())


def mean_local_time_at_1(params: BesselParams) -> float:
    """Closed form of the mean local time at t = 1:
    2^alpha (1-2p)^{1-alpha} / Gamma(1-alpha), with 1 - 2p = alpha/beta."""
    a = params.alpha
    return math.exp(a * LN2 + (1.0 - a) * math.log(a / params.beta) - log_gamma(1.0 - a))


def fkp_quarter_closed_form(s_max: int) -> MomentSequence:
    """Telescoped gamma-type form of the a' = 1/4 limit-law moments.

    m_s = 2^{-s/2} Gamma(1/4) Gamma(1/2) Gamma(s+1)
          / (Gamma((s+1)/4) Gamma((s+2)/4)).
    Must equal fkp_moments(0.25, s_max) entrywise.
    """
    s_max = _require_order(s_max)
    label = "fkp-quarter-closed-form"
    head = log_gamma(0.25) + log_gamma(0.5)
    s = range(1, s_max + 1)
    logs = [
        -0.5 * r * LN2 + head + lg - lg1 - lg2
        for r, lg, lg1, lg2 in zip(
            s,
            log_gamma_array([r + 1.0 for r in s]),
            log_gamma_array([(r + 1.0) / 4.0 for r in s]),
            log_gamma_array([(r + 2.0) / 4.0 for r in s]),
        )
    ]
    return MomentSequence(_exp_sequence(logs, label), label, {"a_prime": 0.25})


def mittag_leffler_moments(alpha: float, s_max: int) -> MomentSequence:
    """Mittag-Leffler ML(alpha) moments: Gamma(s+1) / Gamma(s alpha + 1)."""
    _require_alpha(alpha)
    s_max = _require_order(s_max)
    label = f"mittag-leffler(alpha={alpha:g})"
    s = range(1, s_max + 1)
    logs = [
        a - b for a, b in zip(log_gamma_array([r + 1.0 for r in s]),
                              log_gamma_array([r * alpha + 1.0 for r in s]))
    ]
    return MomentSequence(_exp_sequence(logs, label), label, {"alpha": alpha})
