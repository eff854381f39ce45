"""Density reconstruction from gamma-type Mellin transforms.

A MellinSpec holds M(s) = C * A^s * prod_i Gamma(a_i s + b_i)^{sign_i} with
M(s+1) = m_s for the target moment sequence.  The density is recovered as

    f(x) = (1/2pi) * integral_{-U}^{U} x^{-(c+iu)} M(c+iu) du

by the trapezoid rule on a vertical contour Re(s) = c.  log M is evaluated
through the complex log-gamma kernel ``log_gamma_complex``, which is
continuous along vertical lines in the right half-plane, so the integrand
never crosses a branch cut.  That kernel is ``gammakit``'s Stirling series in
real float64 array arithmetic, after the recurrence
Gamma(s) = Gamma(s + 10) / (s (s + 1) ... (s + 9)) for |s| < 10.
A MellinSpec is the law alone: ``invert`` takes the quadrature settings c, h
and U, and ``log_grid`` builds every log-uniform grid.

On a log-uniform grid x_j = exp(L + j d) with nodes u_k = k h the quadrature
sum is a chirp-z transform in the product k j, and one Bluestein convolution
(Rabiner, Schafer & Rader 1969) evaluates it at every grid point.  Its FFTs
run at the smallest 2^a 3^b 5^c length that holds the convolution, not the
next power of two.  That is the only quadrature: ``invert`` refuses a grid
that is not log-uniform to within roundoff.  A DensityTable holds the values
and the diagnostics that ``invert`` computed; it reads no moments off the
grid, which past the grid's ends would be an extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gammakit import (
    _HALF_LN_2PI_HI,
    _HALF_LN_2PI_LO,
    _LN2_HI,
    _LN2_LO,
    _STIRLING_COEFFS,
    _log_gamma_real,
    _split_vec,
    _two_prod_vec,
    _two_sum_vec,
)
from .moments import _require_alpha, _require_positive

__all__ = [
    "MellinSpec",
    "DensityTable",
    "MellinInversionError",
    "spec_from_fkp_quarter",
    "spec_from_mittag_leffler",
    "default_grid",
    "log_grid",
    "invert",
]

LN2 = math.log(2.0)

# Contour endpoints must be at least this far below the integrand peak.
_TRUNCATION_RATIO = 1e-12
# Doublings of the truncation height from 20 before the search gives up
# (20 * 2**12 = 81920 is the last height below 1e5).
_HEIGHT_DOUBLINGS = 13

# Quadrature roundoff allowance in units of eps * x^-c * (weighted |M| mass).
# Over 1300 random specs, contours 0.25-2, steps 0.01-0.2 and log grids the
# chirp-z sum and the tests' direct-sum oracle stayed within 13 units of each
# other.  Against the same sum in 25-digit arithmetic the chirp-z sum was
# within 2.5 units and the direct sum within 12.
_ROUNDOFF_UNITS = 32.0

# pi to 64 digits, and the binary precision of reduced phases in turns
_PI_NUM, _PI_DEN = 3141592653589793238462643383279502884197169399375105820974944592, 10**63
_TURN_BITS = 60


# Complex log-gamma arguments with |s| < _SHIFT are moved to s + _SHIFT first.
_SHIFT = 10


def _log_half(v):
    """0.5 * ln(v) for positive float arrays, as a head/tail pair whose head
    carries few bits."""
    m, e = np.frexp(v)
    return (0.5 * _LN2_HI) * e, 0.5 * (e * _LN2_LO + np.log(m))


def _log_gamma_complex_vec(x, y):
    """(Re, Im) of ln Gamma(x + iy) for contiguous float arrays with x > 0.

    Only real elementwise float64 operations are used, so each point's
    bits depend on that point alone, and the result is exactly
    conjugate-symmetric.
    """
    near = x * x + y * y < _SHIFT * _SHIFT
    zx = np.where(near, x + _SHIFT, x)
    sq = zx * zx + y * y
    log_hi, log_lo = _log_half(sq)  # ln|z|
    theta = np.arctan2(y, zx)  # arg z
    xm = zx - 0.5
    # the series in w = 1/z, complex products spelled out in reals
    wr, wi = zx / sq, -y / sq
    w2r, w2i = wr * wr - wi * wi, 2.0 * wr * wi
    sr, si = _STIRLING_COEFFS[-2] + _STIRLING_COEFFS[-1] * w2r, _STIRLING_COEFFS[-1] * w2i
    for c in _STIRLING_COEFFS[-3::-1]:
        sr, si = c + (sr * w2r - si * w2i), sr * w2i + si * w2r
    sr, si = sr * wr - si * wi, sr * wi + si * wr
    # Re: (zx - 1/2) ln|z| - zx + ln(2 pi)/2, summed exactly, then the rest;
    # the head stays apart from the tail until the shift is undone
    p_hi, p_lo = _two_prod_vec(xm, log_hi)
    re, c1 = _two_sum_vec(p_hi, -zx)
    re, c2 = _two_sum_vec(re, _HALF_LN_2PI_HI)
    lo = ((c1 + c2) + (p_lo + xm * log_lo)) + (sr + _HALF_LN_2PI_LO) - y * theta
    # Im: (zx - 1/2) arg z + y (ln|z| - 1) + series; ln|z| - 1 is exact
    im = xm * theta + y * (log_hi - 1.0) + (si + y * log_lo)
    if near.any():
        # ln Gamma(s) = ln Gamma(s + 10) - sum_k ln(s + k), principal logs
        xn, yn = x[near], y[near]
        y2 = yn * yn
        prod = np.ones_like(xn)
        arg = np.zeros_like(xn)
        for k in range(_SHIFT):
            xk = xn + k
            prod = prod * (xk * xk + y2)
            arg = arg + np.arctan2(yn, xk)
        l_hi, l_lo = _log_half(prod)
        re[near] -= l_hi
        lo[near] -= l_lo
        im[near] -= arg
    return re + lo, im


def log_gamma_complex(s):
    """Principal-branch ln Gamma(s) for Re(s) > 0; scalar or ndarray.

    This is the single-valued analytic continuation of ln Gamma from the
    positive axis rather than log(Gamma(s)), so its imaginary part is
    continuous along any contour that stays in the right half-plane; no
    manual phase unwrapping is needed when a quadrature walks a vertical
    line.  Real points go through the real kernel, and an array of real
    points through it alone; elsewhere each point is computed on its own,
    so an array gives the same bits as its entries one at a time, and
    conj(s) gives exactly the conjugate.

    Absolute error is below 1e-14 * max(1, |ln Gamma(s)|) for Re(s) in
    [0.01, 50] and |Im(s)| <= 150 (at most 2.7e-15 times that against
    mpmath), and below 1e-13 on the contour arguments of the shipped density
    specs, |s| <= 80 (at most 5.3e-14).

    Raises
    ------
    ValueError
        If any entry is non-finite or has Re(s) <= 0.
    """
    arr = np.asarray(s, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("log_gamma_complex requires finite input")
    if np.any(arr.real <= 0.0):
        raise ValueError("log_gamma_complex requires Re(s) > 0")
    if arr.ndim == 0 and arr.imag == 0.0:
        return complex(_log_gamma_real(float(arr.real)), 0.0)
    flat = arr.reshape(-1)
    # contiguous copies, so that every ufunc takes the same loop
    x, y = np.ascontiguousarray(flat.real), np.ascontiguousarray(flat.imag)
    axis = y == 0.0
    if axis.all():  # the complex path costs ~100 ufunc calls whatever the size
        re, im = np.array([_log_gamma_real(v) for v in x.tolist()]), np.zeros(x.size)
    else:
        re, im = _log_gamma_complex_vec(x, y)
        re[axis] = [_log_gamma_real(v) for v in x[axis].tolist()]
        im[axis] = 0.0
    out = np.empty(flat.size, dtype=complex)
    out.real, out.imag = re, im
    if arr.ndim == 0:
        return complex(out[0])
    return out.reshape(arr.shape)


class MellinInversionError(RuntimeError):
    """Raised when a reconstruction cannot meet its accuracy contract."""


@dataclass(frozen=True)
class MellinSpec:
    """Gamma-ratio Mellin transform of a law on (0, inf), M(1) = 1.

    ``factors`` is a tuple of (a, b, sign) triples with a > 0 and sign +-1,
    one per Gamma(a s + b) factor; ``pole``, the rightmost numerator pole
    (-inf with none), is derived.  ``invert`` reads a law only through
    ``log_mellin``, ``mellin``, ``label`` and ``pole``.
    """

    log_prefactor: float
    log_base: float
    factors: tuple
    label: str
    pole: float = field(init=False)

    def __post_init__(self):
        factors = tuple((float(a), float(b), int(sg)) for a, b, sg in self.factors)
        if not factors:
            raise ValueError("at least one gamma factor is required")
        for a, b, sg in factors:
            if a <= 0.0:
                raise ValueError(f"gamma factor needs a > 0, got a={a!r}")
            if sg not in (-1, 1):
                raise ValueError(f"gamma factor sign must be +-1, got {sg!r}")
        object.__setattr__(self, "factors", factors)
        poles = (-b / a for a, b, sg in factors if sg == 1)
        object.__setattr__(self, "pole", max(poles, default=-math.inf))
        total_mass = self.mellin(1.0)
        if abs(total_mass - 1.0) > 1e-10:
            raise ValueError(f"M(1) must equal 1 (total mass), got {total_mass!r}")

    def log_mellin(self, s):
        """log M(s) for scalar or array s with Re(a s + b) > 0 for every factor.

        Every factor's log-gamma comes from one stacked kernel call, whose
        points are computed on their own, and the parts are added in factor
        order: the same bits as one call per factor.
        """
        s = np.asarray(s, dtype=complex)
        parts = log_gamma_complex(np.stack([a * s + b for a, b, _ in self.factors]))
        out = self.log_prefactor + self.log_base * s
        for (_, _, sg), part in zip(self.factors, parts):
            out = out + sg * part
        return out

    def mellin(self, s: float) -> float:
        """M(s) at a real point; M(s+1) is the s-th moment of the density."""
        return float(np.exp(self.log_mellin(complex(s))).real)


def spec_from_fkp_quarter() -> MellinSpec:
    """Mellin transform of the a' = 1/4 limit law:
    M(s) = 2^{(1-s)/2} Gamma(1/4) Gamma(1/2) Gamma(s) / (Gamma(s/4) Gamma((s+1)/4)).
    """
    return MellinSpec(
        log_prefactor=0.5 * LN2 + math.lgamma(0.25) + math.lgamma(0.5),
        log_base=-0.5 * LN2,
        factors=((1.0, 0.0, 1), (0.25, 0.0, -1), (0.25, 0.25, -1)),
        label="fkp-quarter",
    )


def spec_from_mittag_leffler(alpha: float) -> MellinSpec:
    """Mellin transform of ML(alpha): M(s) = Gamma(s) / Gamma((s-1) alpha + 1)."""
    _require_alpha(alpha)
    return MellinSpec(
        log_prefactor=0.0,
        log_base=0.0,
        factors=((1.0, 0.0, 1), (alpha, 1.0 - alpha, -1)),
        label=f"mittag-leffler({alpha:g})",
    )


@dataclass(frozen=True)
class DensityTable:
    """Reconstructed density on a positive grid.

    ``density`` is clamped at zero and renormalised to unit grid mass; the
    raw reconstruction and its diagnostics live in ``metadata``
    (raw_density, integral_grid, integral_raw, tail estimates, imaginary
    residue, quadrature settings).
    """

    x: np.ndarray
    density: np.ndarray
    truncation_estimate: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("x", "density", "truncation_estimate"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def label(self) -> str:
        return self.metadata.get("label", "density")

    def to_csv(self) -> tuple:
        """The CSV table as ``(comments, header, columns)``: comment lines of
        ``(key, value)`` pairs, then one column per header field."""
        comments = [[("label", self.label)]] + [
            [(key, self.metadata.get(key, math.nan)) for key in keys]
            for keys in (
                ("integral_grid", "integral_raw"),
                ("lower_tail", "upper_tail"),
                ("contour", "height", "step"),
            )
        ]
        columns = (self.x.tolist(), self.density.tolist(), self.truncation_estimate.tolist())
        return comments, ("x", "f", "truncation_estimate"), columns

    def to_dict(self) -> dict:
        md = {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in self.metadata.items()}
        return {
            "x": self.x.tolist(),
            "f": self.density.tolist(),
            "truncation_estimate": self.truncation_estimate.tolist(),
            "metadata": md,
        }


def _is_log_uniform(x: np.ndarray) -> bool:
    l = np.log(x)
    d = np.diff(l)
    return bool(np.max(np.abs(d - d[0])) <= 1e-9 * abs(d[0]))


def _integrate_log(x: np.ndarray, g: np.ndarray) -> float:
    """integral g(x) dx = integral g(x) x dln(x): composite Simpson on a
    log-uniform grid (trapezoid fallback otherwise, and on a trailing odd
    panel)."""
    l = np.log(x)
    y = g * x
    if x.size < 3 or not _is_log_uniform(x):
        return float(np.sum(np.diff(l) * (y[1:] + y[:-1]) / 2.0))  # numpy's trapezoid
    h = (l[-1] - l[0]) / (x.size - 1)
    n_simpson = x.size if x.size % 2 == 1 else x.size - 1
    w = np.ones(n_simpson)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    total = h / 3.0 * float(np.dot(w, y[:n_simpson]))
    if n_simpson != x.size:
        total += 0.5 * h * (y[-2] + y[-1])
    return float(total)


def log_grid(x_min: float, x_max: float, points: int) -> np.ndarray:
    """Log-uniform grid from x_min to x_max: ``points`` points, at least 9,
    an even count raised by one so that Simpson's rule covers it."""
    points = int(points)
    if points < 9:
        raise ValueError(f"grid needs at least 9 points, got {points!r}")
    if not 0.0 < x_min < x_max < math.inf:
        raise ValueError(f"log grid needs 0 < x_min < x_max < inf, got {x_min=!r}, {x_max=!r}")
    return np.exp(np.linspace(math.log(x_min), math.log(x_max), points | 1))


def default_grid(spec: MellinSpec, points: int = 1201) -> np.ndarray:
    """Log grid from 1e-9 covering all but ~1e-8 of the mass.

    The upper end comes from the Markov bound P(X > x) <= m_10 / x^10 at
    tail mass 1e-9; the lower end 1e-9 keeps the missed mass below
    f(0+) * 1e-9 for the bounded densities shipped here.
    """
    return log_grid(1e-9, (spec.mellin(11.0) / 1e-9) ** 0.1, points)


def _contour_nodes(spec: MellinSpec, c: float, h: float, height: float | None,
                   points: int) -> tuple[np.ndarray, np.ndarray, float]:
    """log M at the contour nodes u_k = k h, their trapezoid weights and the
    height used, for contour c, step h, truncation height ``height`` (None
    chooses it from the decay of |M|) and a grid of ``points`` points.

    Refuses a transform of 2^26 or more terms before any node is evaluated,
    and a contour whose |M| at the ends is not at least 1e-12 below its peak
    (truncation would pollute the reconstruction).
    """
    if height is None:
        # the first of the doubling heights 20 * 2**k <= 1e5 where |M| has
        # fallen to the target, all evaluated in one call with the peak at u = 0
        heights = 20.0 * 2.0 ** np.arange(_HEIGHT_DOUBLINGS)
        lm = spec.log_mellin(c + 1j * np.concatenate(([0.0], heights))).real
        target = lm[0] + math.log(_TRUNCATION_RATIO) - 2.0 * LN2
        low = np.flatnonzero(lm[1:] <= target)
        if low.size == 0:
            raise MellinInversionError(
                f"{spec.label}: |M| does not decay along Re(s)={c:g}; "
                "cannot choose a truncation height U"
            )
        height = float(heights[low[0]])
    n_half = int(math.ceil(height / h))
    if points + 2 * n_half >= 1 << 26:
        raise ValueError(
            f"{points} grid points and {2 * n_half + 1} contour nodes (step {h:g}, "
            f"height {height:g}) exceed the 2**26 terms of one transform; "
            "raise the step or lower the height"
        )
    # log M is conjugate-symmetric to the bit, so only u >= 0 is evaluated
    upper = spec.log_mellin(c + 1j * (np.arange(n_half + 1) * h))
    lm = np.concatenate((np.conj(upper[:0:-1]), upper))
    log_peak = float(np.max(lm.real))
    log_end = float(lm.real[-1])
    if log_end > log_peak + math.log(_TRUNCATION_RATIO):
        raise MellinInversionError(
            f"{spec.label}: integrand magnitude at |u|={n_half * h:g} is "
            f"{math.exp(log_end - log_peak):.2e} of its peak "
            f"(needs <= {_TRUNCATION_RATIO:g}); increase the truncation height U"
        )
    weights = np.full(lm.size, h)
    weights[0] = weights[-1] = 0.5 * h
    return lm, weights, n_half * h


def _reduced_phase(num: int, den: int, m: np.ndarray) -> np.ndarray:
    """(num/den) * m reduced mod 2 pi into [-pi, pi), for an int64 array m.

    A double product would carry an absolute error of |num/den * m| * eps,
    about 1e-12 rad for chirp phases of 1e4 rad.  Here the turns num/den/2pi
    are a binary fraction p / 2^k held in Python integers, and p * m mod 2^k
    is summed in int64 from chunks of p short enough that every chunk product
    is exact.  Only the bits below 2^-60 turns and the final conversion to a
    double round.
    """
    bits = max(int(np.max(np.abs(m))).bit_length(), 1)
    width = 62 - bits  # chunk * m stays below 2^62
    k = _TURN_BITS + bits + 8
    p = ((num * _PI_DEN) << k) // (2 * den * _PI_NUM) % (1 << k)
    total = np.zeros(m.shape, dtype=np.int64)
    for shift in range(0, k, width):
        prod = ((p >> shift) & ((1 << width) - 1)) * m
        drop = k - shift - _TURN_BITS  # prod counts units of 2^(drop - 60) turns
        if drop >= 62:
            continue
        if drop > 0:
            total += prod >> drop
        else:
            total += (prod & ((1 << (k - shift)) - 1)) << -drop
        total &= (1 << _TURN_BITS) - 1
    total -= (total >> (_TURN_BITS - 1)) << _TURN_BITS
    return total * (2.0 * math.pi / 2.0**_TURN_BITS)


def _log_residual(lx: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Origin L = lx[0], step d and the residuals lx_j - (L + j d), rounded
    once.  lx - L is a two-sum, and d splits into hi + lo of 26 and 27 bits
    so that j * hi and j * lo are exact for j < 2^26; on a near-uniform grid
    every remaining subtraction is exact."""
    origin = float(lx[0])
    step = float(lx[-1] - lx[0]) / (lx.size - 1)
    diff, diff_err = _two_sum_vec(lx, -origin)
    hi, lo = _split_vec(step)
    j = np.arange(lx.size, dtype=float)
    return origin, step, ((diff - j * hi) - j * lo) + diff_err


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, for n >= 1: the shortest length whose
    FFT runs in radix-2, 3 and 5 passes alone."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:  # odd runs over 3^b 5^c
        power = odd
        while power < best:
            best = min(best, power << (-(-n // power) - 1).bit_length())
            power *= 3
        odd *= 5
    return best


def _chirp_z_sum(grid: np.ndarray, c: float, h: float, lm: np.ndarray, weights: np.ndarray):
    """The quadrature sum of ``invert`` by one Bluestein convolution.

    With x_j = exp(L + j d + r_j) and u_k = k h for k = -n..n the sum is
    x_j^-c / 2pi * sum_k a_k e^{-i theta k j} (1 - i u_k r_j), where
    a_k = w_k M(c + i u_k) e^{-i u_k L} and theta = h d.  Writing
    k j = (k^2 + j^2 - (j - k)^2) / 2 turns each sum over k into a
    convolution with the chirp e^{i theta m^2 / 2}, whose phases are reduced
    exactly.  The residual r_j enters to first order; the grid is refused
    with ValueError, before any transform, when the second-order term could
    exceed one roundoff unit.  The linear convolution has grid points plus
    nodes minus one terms, and every transform runs at ``_fft_length`` of
    that: 9216 for 1201 points and 8001 nodes, where the next power of two
    is 16384.
    """
    size = grid.size + lm.size - 1
    origin, d, resid = _log_residual(np.log(grid))
    n = (lm.size - 1) // 2
    k = np.arange(-n, n + 1, dtype=np.int64)
    u = k * h
    mass = weights * np.exp(lm.real)
    second_order = 0.5 * float(np.max(resid**2)) * float(np.dot(mass, u * u))
    if second_order > np.finfo(float).eps * float(mass.sum()):
        raise ValueError(
            "grid is not log-uniform to within roundoff; build it with "
            "log_grid(x_min, x_max, points)"
        )
    hn, hd = h.as_integer_ratio()
    ln, ld = origin.as_integer_ratio()
    dn, dd = d.as_integer_ratio()
    a = weights * np.exp(lm - 1j * _reduced_phase(hn * ln, hd * ld, k))
    m = np.arange(grid.size + n, dtype=np.int64)
    chirp = np.exp(1j * _reduced_phase(hn * dn, 2 * hd * dd, m * m))
    fft_size = _fft_length(size)
    kernel = np.fft.fft(chirp[np.abs(np.arange(size) - n)], fft_size)
    spectrum = np.fft.fft(np.stack([a, u * a]) * np.conj(chirp[np.abs(k)]), fft_size)
    spectrum *= kernel
    conv = np.fft.ifft(spectrum)[:, 2 * n : size]
    plain, slope = conv * np.conj(chirp[: grid.size])
    return grid ** (-c) * (plain - 1j * resid * slope) / (2.0 * math.pi)


def _noise_floor(grid: np.ndarray, c: float, lm: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-point quadrature roundoff floor:
    _ROUNDOFF_UNITS * eps * x^-c * (weighted |M| mass) / 2pi."""
    quad_mass = float(np.dot(weights, np.exp(lm.real))) / (2.0 * math.pi)
    return _ROUNDOFF_UNITS * np.finfo(float).eps * grid ** (-c) * quad_mass


def invert(spec: MellinSpec, grid, *, contour: float = 0.5, step: float = 0.04,
           height: float | None = None) -> DensityTable:
    """Reconstruct the density of the law behind ``spec`` on a positive grid.

    The trapezoid rule with step ``step`` runs on the line Re(s) = ``contour``
    up to |Im(s)| = ``height``, or where |M| has decayed when it is None.  Each
    setting must be finite and positive, the law's rightmost pole ``spec.pole``
    must lie left of the contour, and the table's metadata records all three.

    The quadrature nodes along the contour are shared and evaluated once,
    walking the contour monotonically, and one chirp-z convolution sums them
    at every grid point.  The grid must be finite, increasing and log-uniform
    to roundoff, as ``log_grid`` builds it, and x_min ** -contour must be
    finite; each is refused with ValueError before the quadrature, as is a
    transform of 2^26 or more terms.  A sum that overflows raises
    MellinInversionError.  The upper tail is the Markov bound
    m_10 / x_max ** 10 capped at 1, and a capped bound never renormalises.
    """
    contour = _require_positive(contour, "contour")
    step = _require_positive(step, "step")
    if height is not None:
        height = _require_positive(height, "height")
    if spec.pole >= contour:
        raise ValueError(
            f"numerator pole at s={spec.pole:g} is not strictly left of the "
            f"contour Re(s)={contour:g}"
        )
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least 2 points")
    if not np.isfinite(grid).all() or np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly positive and strictly increasing")

    with np.errstate(over="ignore"):
        if np.isinf(grid[:1] ** -contour)[0]:
            raise ValueError(
                f"x ** -contour overflows double precision at x_min={grid[0]:g} with "
                f"contour={contour:g}; raise x_min or lower the contour"
            )

    lm, weights, height = _contour_nodes(spec, contour, step, height, grid.size)

    # A sum or floor that overflows is refused, so numpy need not warn of it.
    # Realness is certifiable at 1e-10 relative only where the density sits
    # at least 1e10 above the roundoff floor (0 only where x^-c underflows);
    # below that both parts are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        f_complex = _chirp_z_sum(grid, contour, step, lm, weights)
        noise_floor = _noise_floor(grid, contour, lm, weights)
        certifiable = (f_complex.real != 0.0) & (np.abs(f_complex.real) >= 1e10 * noise_floor)
    overflow = ~(np.isfinite(f_complex) & np.isfinite(noise_floor))
    if overflow.any():
        raise MellinInversionError(
            f"{spec.label}: the contour sum overflows double precision at "
            f"x={grid[overflow][0]:g}; lower the contour"
        )
    raw = f_complex.real
    imag_abs = np.abs(f_complex.imag)
    imag_ratio = float(np.max(imag_abs[certifiable] / np.abs(raw[certifiable]), initial=0.0))

    if float(np.min(raw)) < -1e-8:
        raise MellinInversionError(
            f"{spec.label}: reconstruction has a negative excursion of "
            f"{float(np.min(raw)):.3e} (below -1e-8); tighten the quadrature"
        )

    # Leftover contour mass beyond the truncation, from the local decay rate.
    decay = (lm.real[-2] - lm.real[-1]) / step
    leftover = math.exp(lm.real[-1]) / max(decay, 1e-30)
    truncation = grid ** (-contour) * leftover / math.pi

    integral_grid = _integrate_log(grid, raw)
    lower_tail = float(grid[0] * max(raw[0], 0.0))
    # The Markov bound P(X > x_max) <= m_10 / x_max ** 10, capped at 1: an
    # x_max ** 10 past DBL_MAX leaves no tail, and one that underflows the cap.
    m_10 = spec.mellin(11.0)
    with np.errstate(over="ignore", under="ignore"):
        x_max_10 = grid[-1] ** 10
    upper_tail = float(m_10 / x_max_10) if m_10 < x_max_10 else 1.0
    integral_raw = float(integral_grid + lower_tail + upper_tail)

    clamped = np.maximum(raw, 0.0)
    # Renormalise only when the grid credibly covers the whole mass (a capped
    # tail bound covers nothing); on a partial grid the pointwise values are
    # the meaningful output.
    renormalized = bool(upper_tail < 1.0 and abs(integral_raw - 1.0) <= 1e-3)
    density = clamped / integral_raw if renormalized else clamped

    metadata = {
        "label": spec.label,
        "raw_density": raw,
        "noise_floor": noise_floor,
        "integral_grid": integral_grid,
        "integral_raw": integral_raw,
        "lower_tail": lower_tail,
        "upper_tail": upper_tail,
        "renormalized": renormalized,
        "contour": contour,
        "height": height,
        "step": step,
        "imag_abs_max": float(np.max(imag_abs)),
        "imag_ratio_max": imag_ratio,
        "realness_points": int(np.count_nonzero(certifiable)),
        "raw_min": float(np.min(raw)),
    }
    return DensityTable(
        x=grid,
        density=density,
        truncation_estimate=truncation,
        metadata=metadata,
    )

