"""Log-space gamma and beta kernel shared by every other module.

Downstream code multiplies chains of up to ~40 gamma ratios; those chains
overflow double precision long before the ratios themselves are large, so all
of them are assembled from the log values returned here and exponentiated
once at the end.  Only ``math`` is needed: a sequence of arguments is mapped
through the scalar kernel, so this module loads without numpy.

The real branch must keep the *absolute* error of ln Gamma(x) below 1e-13
even where ln Gamma(x) ~ 700 (that is what a 1e-13 relative error on
Gamma(x) means).  Below x = 20 it is ln(math.gamma(x)), which erred by at
most 3.7e-15 on [0.01, 20) against mpmath and is exact to rounding at the
integers, where ``math.gamma`` returns the factorial (``math.lgamma`` erred
by up to 9e-15 and is an ulp off at the integers 3 to 11).  A plain double
evaluation is one ulp short for x >~ 120, so arguments from 20 up go through
a Stirling series whose dominant term (x - 1/2) * ln(x) is carried in
double-double arithmetic.  Differences ln Gamma(x) - ln Gamma(x + b), and
with them ln B, cancel that dominant term analytically instead.

The complex kernel ``log_gamma_complex`` is the same Stirling series on numpy
arrays; it lives in ``mellin``, its one caller, and this module's name for
it loads ``mellin`` on first use.
"""

from __future__ import annotations

import math

__all__ = ["log_gamma", "log_gamma_array", "log_gamma_ratio", "log_beta"]

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant

# ln(2) as a head/tail pair; the head carries trailing zero bits so that
# e * _LN2_HI is exact for the small integer exponents frexp produces.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10

# 0.5 * ln(2*pi) as a head/tail pair.
_HALF_LN_2PI_HI = 0.9189385332046727
_HALF_LN_2PI_LO = 7.223936088184323e-17

# B_{2k} / (2k * (2k - 1)) for the asymptotic series; truncation error at
# |s| = 10 is below 1e-16, at x = 20 below 1e-17.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

_STIRLING_CUTOVER = 20.0
# From here up, ln Gamma differences come from differenced series tails.
_RATIO_CUTOVER = 10.0

# Below this, Gamma(x) ~ 1/x overflows a double.
_GAMMA_OVERFLOW = 1e-300


def _log_gamma_real(x: float) -> float:
    """ln Gamma(x) for a finite Python float x > 0, unchecked."""
    if x >= _STIRLING_CUTOVER:
        return _log_gamma_stirling(x)
    if x < _GAMMA_OVERFLOW:
        return math.lgamma(x)
    return math.log(math.gamma(x))


def log_gamma(x: float) -> float:
    """ln Gamma(x) for real x > 0.

    Absolute error stays below 1e-13 on [0.01, 171), i.e. exp(log_gamma(x))
    matches Gamma(x) to 1e-13 relative wherever Gamma(x) is representable.
    Against mpmath, 3000 seeded points (half of them in [120, 171), where one
    ulp of ln Gamma is 1.1e-13) erred by at most 8.3e-14.  Integer x <= 19
    gives ln (x-1)! correctly rounded.

    Raises
    ------
    ValueError
        If x is not a finite positive real.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_gamma requires a finite x > 0, got {x!r}")
    return _log_gamma_real(x)


def _two_sum_vec(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _split_vec(a):
    """Dekker's split a = hi + lo into halves whose pairwise products are exact."""
    hi = (a * _SPLIT) - ((a * _SPLIT) - a)
    return hi, a - hi


def _two_prod_vec(a, b):
    p = a * b
    a_hi, a_lo = _split_vec(a)
    b_hi, b_lo = _split_vec(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _stirling_tail(x):
    """ln Gamma(x) - ((x - 1/2) ln x - x + ln(2 pi)/2) for real x >= 10.

    The tail is <= 8.4e-3 there, so plain Horner evaluation keeps its
    rounding far below the 1e-13 budget.
    """
    inv = 1.0 / x
    inv2 = inv * inv
    series = _STIRLING_COEFFS[-1]
    for c in _STIRLING_COEFFS[-2::-1]:
        series = c + series * inv2
    return series * inv


def _log_gamma_stirling(x: float) -> float:
    """Stirling series for a Python float x >= _STIRLING_CUTOVER."""
    m, e = math.frexp(x)  # x = m * 2**e with m in [0.5, 1)
    lx_hi = e * _LN2_HI  # ln(x) as a head/tail pair, ~1e-17 absolute
    lx_lo = e * _LN2_LO + math.log(m)
    xm = x - 0.5  # exact for x >= 1
    p_hi, p_lo = _two_prod_vec(xm, lx_hi)
    series = _stirling_tail(x)
    # only the three large pieces need exact two_sum accumulation
    total, c1 = _two_sum_vec(p_hi, -x)
    total, c2 = _two_sum_vec(total, _HALF_LN_2PI_HI)
    total, c3 = _two_sum_vec(total, series)
    return total + (((c1 + c2) + (c3 + _HALF_LN_2PI_LO)) + (p_lo + xm * lx_lo))


def log_gamma_array(x) -> list:
    """ln Gamma of each entry of a sequence of positive reals, as a list; the
    scalar ``log_gamma`` applied to each entry, so the bits match it.

    Raises
    ------
    ValueError
        If any entry is non-finite or non-positive.
    """
    return _map_positive(_log_gamma_real, x, "log_gamma_array")


def _map_positive(f, x, name: str) -> list:
    """f applied to each entry of x as a Python float, after checking that
    every entry is finite and positive."""
    values = [float(v) for v in x]
    if not all(0.0 < v < math.inf for v in values):  # NaN fails too
        raise ValueError(f"{name} requires finite entries > 0")
    return [f(v) for v in values]


def _log_gamma_ratio(x: float, b: float) -> float:
    """ln Gamma(x) - ln Gamma(x + b) for finite Python floats x, b > 0,
    unchecked.  From x = 10 up the Stirling series is differenced with its
    large (x - 1/2) ln x terms cancelled analytically, as in R's ``lbeta``,
    so the rounding is relative to the result, not to ln Gamma(x)."""
    if x < _RATIO_CUTOVER:
        return _log_gamma_real(x) - _log_gamma_real(x + b)
    xb = x + b
    return (
        (x - 0.5) * math.log1p(-b / xb) + (_stirling_tail(x) - _stirling_tail(xb))
        - b * math.log(xb) + b
    )


def log_gamma_ratio(x, b: float) -> list:
    """ln Gamma(x) - ln Gamma(x + b) for each entry of a sequence of positive
    reals x and a real b > 0, as a list.

    Differencing two ``log_gamma_array`` results keeps each one's ~1e-13
    absolute rounding where ln Gamma(x) is large; here the error stays below
    1e-14 * max(1, |result|) (checked against mpmath for x in [0.01, 200]
    and b in [0.01, 20]).

    Raises
    ------
    ValueError
        If any entry of x, or b, is non-finite or non-positive.
    """
    b = float(b)
    if not (math.isfinite(b) and b > 0.0):
        raise ValueError(f"log_gamma_ratio requires a finite b > 0, got {b!r}")
    return _map_positive(lambda v: _log_gamma_ratio(v, b), x, "log_gamma_ratio")


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b) for a, b > 0.

    With p <= q, this is ln Gamma(p) plus the ``log_gamma_ratio`` of q and p.
    Composing three log-gammas would carry the ~1e-13 absolute rounding of
    ln Gamma(q) for large q into a result that may be near 1.  Against
    mpmath, the error stays below 1e-13 * max(1, |ln B(a, b)|) for a and b in
    [0.01, 200] (at most 3.6e-15 times that on 3000 log-uniform points).

    Raises
    ------
    ValueError
        If a or b is not a finite positive real.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise ValueError(f"log_beta requires finite a, b > 0, got a={a!r}, b={b!r}")
    p, q = min(a, b), max(a, b)
    return _log_gamma_real(p) + _log_gamma_ratio(q, p)


def __getattr__(name: str):
    # the complex kernel moved to mellin, which loads numpy; the old name
    # still reaches it
    if name == "log_gamma_complex":
        from .mellin import log_gamma_complex

        return log_gamma_complex
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
