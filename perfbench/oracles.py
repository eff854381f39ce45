"""Output checks for benchmark ops, written without importing limitlaw.

Every target here comes from a closed form built with ``math.lgamma`` or an
exact recursion, so a defect in the package cannot hide by agreeing with
itself.  Each ``check_*`` takes an op's exit code and stdout and returns
``None`` when the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import math

# Sample moments must lie within this many printed standard errors of the
# exact value.  Over 300 seeds the largest |z| seen was 3.6, so a failure at
# 6 points at the program, not at chance.
Z_LIMIT = 6.0

# The CLI's Monte Carlo ratio check rejects beyond this many standard errors.
RATIO_TOLERANCE = 3.0

# Relative tolerance for closed-form moment sequences: lgamma sums over up to
# 40 orders carry ~1e-13 relative error; a wrong formula is off by far more.
MOMENT_RTOL = 1e-9

# The density table is renormalised to unit mass by the program; the
# benchmark's own trapezoid rule on the log grid must agree to this tolerance.
DENSITY_MASS_TOL = 1e-3
DENSITY_MEAN_RTOL = 1e-3

LN2 = math.log(2.0)


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text: str):
    """Parse JSON that must contain no NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _finite_floats(values) -> list[float]:
    out = [float(v) for v in values]
    if not all(math.isfinite(v) for v in out):
        raise ValueError("non-finite number in output")
    return out


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    """Comment lines and data rows (header included) of a CSV output."""
    comments, rows = [], []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif line:
            rows.append(next(csv.reader(io.StringIO(line))))
    return comments, rows


# ---------------------------------------------------------------- closed forms


def rayleigh_moment(sigma: float, s: int) -> float:
    return sigma**s * 2.0 ** (s / 2.0) * math.gamma(1.0 + s / 2.0)


def mittag_leffler_log_moment(alpha: float, s: int) -> float:
    return math.lgamma(s + 1.0) - math.lgamma(s * alpha + 1.0)


def fkp_log_moment(a_prime: float, s: int) -> float:
    acc = sum(math.lgamma(k * a_prime) - math.lgamma(k * a_prime + 0.5) for k in range(1, s + 1))
    return math.lgamma(s + 1.0) - 0.5 * s * LN2 + acc


def tilted_log_moment(alpha: float, beta: float, s: int) -> float:
    acc = sum(math.lgamma(j * beta) - math.lgamma(alpha + j * beta) for j in range(1, s + 1))
    return math.lgamma(s + 1.0) + acc


def log_kappa(alpha: float, beta: float, t: float) -> float:
    """log of (2t)^alpha Gamma(1+alpha) / ((1-2p)^alpha Gamma(1-alpha)), 1-2p = alpha/beta."""
    return (
        alpha * math.log(2.0 * t)
        + math.lgamma(1.0 + alpha)
        - alpha * math.log(alpha / beta)
        - math.lgamma(1.0 - alpha)
    )


def local_time_log_moment(alpha: float, beta: float, t: float, s: int) -> float:
    """log E L_t^s = s log kappa + log((1-2p)/Gamma(1+alpha)) + log Gamma(s)
    + sum_{j<s} (lgamma(j beta) - lgamma(alpha + j beta))."""
    acc = sum(math.lgamma(j * beta) - math.lgamma(alpha + j * beta) for j in range(1, s))
    head = math.log(alpha / beta) - math.lgamma(1.0 + alpha)
    return s * log_kappa(alpha, beta, t) + head + math.lgamma(float(s)) + acc


def exp_functional_log_moment(alpha: float, beta: float, s: int) -> float:
    return s * log_kappa(alpha, beta, 1.0) + tilted_log_moment(alpha, beta, s)


def fkp_quarter_mean() -> float:
    """E X for the a' = 1/4 limit law."""
    return math.exp(fkp_log_moment(0.25, 1))


def tree_exact_moments(kernel: str, a: float, n: int) -> tuple[float, float]:
    """E Y_n and E Y_n^2 for Y_m = m^a + Y_{K_m}, Y_1 = 1, by the exact
    recursion.  ``kernel`` is "uniform" (P(K_m = k) = 1/(m-1)) or "linear"
    (P(K_m = k) = 2k / (m(m-1))); both sums over k < m are kept as running
    totals, so the recursion is O(n)."""
    ey, ey2 = [0.0, 1.0], [0.0, 1.0]
    w1 = w2 = 0.0  # running sums of weight(k) * E Y_k and weight(k) * E Y_k^2
    for m in range(2, n + 1):
        k = m - 1
        weight = 1.0 if kernel == "uniform" else float(k)
        w1 += weight * ey[k]
        w2 += weight * ey2[k]
        norm = float(m - 1) if kernel == "uniform" else m * (m - 1) / 2.0
        toll = float(m) ** a
        mean_child, mean_child2 = w1 / norm, w2 / norm
        ey.append(toll + mean_child)
        ey2.append(toll * toll + 2.0 * toll * mean_child + mean_child2)
    return ey[n], ey2[n]


def linear_kernel_rows(n_max: int):
    """CSV rows (m, k, P(K_m = k)) with P(K_m = k) proportional to k, so the
    split keeps most of the tree and recursions run deep."""
    for m in range(2, n_max + 1):
        norm = m * (m - 1) / 2.0
        for k in range(1, m):
            yield m, k, k / norm


# ---------------------------------------------------------------- op checks


def _z_failures(moments, errors, exact, orders) -> str | None:
    for s in orders:
        target = exact(s)
        se = errors[s]
        if not se > 0.0:
            return f"order {s}: standard error {se!r} is not positive"
        z = (moments[s] - target) / se
        if abs(z) > Z_LIMIT:
            return f"order {s}: moment {moments[s]!r} is {z:.2f} standard errors from {target!r}"
    return None


def _summary(text: str, smax: int):
    payload = strict_json(text)
    summary = payload["summary"]
    moments = _finite_floats(summary["moments"])
    errors = _finite_floats(summary["standard_errors"])
    if len(moments) != smax + 1 or len(errors) != smax + 1 or moments[0] != 1.0:
        raise ValueError("summary does not hold m_0 = 1 and orders 1..smax")
    return payload, moments, errors


def check_rayleigh(rc: int, text: str, sigma: float, smax: int) -> str | None:
    """Moments against the Rayleigh closed form, and the ratio check against
    fkp(a'=1/2) (which is the Rayleigh law) recomputed from the printed
    moments: the exit code must be 1 exactly when that check fails."""
    payload, m, se = _summary(text, smax)
    bad = _z_failures(m, se, lambda s: rayleigh_moment(sigma, s), range(1, smax + 1))
    if bad:
        return bad
    devs = []
    for order in (2, 3):
        target = rayleigh_moment(1.0, order) / rayleigh_moment(1.0, 1) ** order
        ratio = m[order] / m[1] ** order
        ratio_se = ratio * math.hypot(se[order] / m[order], order * se[1] / m[1])
        devs.append(abs(ratio - target) / ratio_se)
    worst = max(devs)
    printed = float(payload["check"]["max_deviation"])
    if not math.isclose(printed, worst, rel_tol=1e-6):
        return f"ratio check prints max_deviation {printed!r}, expected {worst!r}"
    if math.isclose(worst, RATIO_TOLERANCE, rel_tol=1e-9):
        return None  # on the boundary either verdict is right
    expected_rc = 0 if worst <= RATIO_TOLERANCE else 1
    if rc != expected_rc or payload["check"]["pass"] != (expected_rc == 0):
        return f"ratio check deviation {worst:.3f}: expected exit {expected_rc}, got {rc}"
    return None


def check_mittag_leffler_sample(rc: int, text: str, alpha: float, smax: int) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    _, m, se = _summary(text, smax)
    return _z_failures(
        m, se, lambda s: math.exp(mittag_leffler_log_moment(alpha, s)), range(1, smax + 1)
    )


def check_tree(rc: int, text: str, exact: tuple[float, float]) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    _, m, se = _summary(text, 4)
    return _z_failures(m, se, lambda s: exact[s - 1], (1, 2))


def check_density(rc: int, text: str, points: int, mean: float) -> str | None:
    """Non-negative finite density on an increasing grid whose mass and mean,
    by the trapezoid rule in log x, match 1 and the law's exact mean."""
    if rc != 0:
        return f"exit code {rc}"
    _, rows = _csv_rows(text)
    if not rows or rows[0] != ["x", "f", "truncation_estimate"]:
        return "density CSV header missing"
    table = [_finite_floats(row) for row in rows[1:]]
    if len(table) != points:
        return f"{len(table)} grid points, expected {points}"
    xs = [r[0] for r in table]
    fs = [r[1] for r in table]
    if any(f < 0.0 for f in fs) or any(b <= a for a, b in zip(xs, xs[1:])):
        return "negative density or non-increasing grid"
    logs = [math.log(x) for x in xs]
    mass = first = 0.0
    for i in range(1, len(xs)):
        h = 0.5 * (logs[i] - logs[i - 1])
        mass += h * (fs[i] * xs[i] + fs[i - 1] * xs[i - 1])
        first += h * (fs[i] * xs[i] ** 2 + fs[i - 1] * xs[i - 1] ** 2)
    if abs(mass - 1.0) > DENSITY_MASS_TOL:
        return f"density integrates to {mass!r}"
    if abs(first - mean) > DENSITY_MEAN_RTOL * mean:
        return f"density mean {first!r}, expected {mean!r}"
    return None


def check_moments(rc: int, text: str, fmt: str, log_moment, smax: int, manifest: bool) -> str | None:
    """Every printed order 0..smax against the family's closed form."""
    if rc != 0:
        return f"exit code {rc}"
    if fmt == "json":
        payload = strict_json(text)
        values = _finite_floats(payload["values"])
        has_manifest = "manifest" in payload
    else:
        comments, rows = _csv_rows(text)
        if rows[0] != ["s", "value"]:
            return "moments CSV header missing"
        values = _finite_floats(row[1] for row in rows[1:])
        has_manifest = any(c.startswith("# manifest=") for c in comments)
        if has_manifest:
            strict_json(comments[0][len("# manifest="):])
    if has_manifest != manifest:
        return f"manifest present={has_manifest}, requested={manifest}"
    if len(values) != smax + 1 or values[0] != 1.0:
        return f"{len(values)} orders printed, expected {smax + 1} starting at 1"
    for s in range(1, smax + 1):
        target = math.exp(log_moment(s))
        if abs(values[s] - target) > MOMENT_RTOL * target:
            return f"order {s}: {values[s]!r}, expected {target!r}"
    return None


def check_identity(rc: int, text: str, identity: str, fmt: str) -> str | None:
    """Every identity report passes.  phi-adjudicate is a diagnostic that
    compares two conventions; there the "half" convention must pass for
    every a', and exit code 0 is required regardless."""
    if rc != 0:
        return f"exit code {rc}"
    if fmt == "json":
        reports = [strict_json(line) for line in text.splitlines() if line]
        if identity == "phi-adjudicate":
            verdicts = [r["reports"]["half"]["pass"] for r in reports]
        else:
            verdicts = [r["pass"] for r in reports]
    else:
        _, rows = _csv_rows(text)
        header, body = rows[0], rows[1:]
        if identity == "phi-adjudicate":
            conv = header.index("convention")
            body = [row for row in body if row[conv] == "half"]
        # Labels such as "scale(tilted(alpha=0.5, beta=0.5), 0.707107)" are
        # written unquoted, so their commas split them; the numeric columns
        # are read counting from the right end of the row.
        tail = len(header) - header.index("max_deviation")
        for row in body:
            _finite_floats([row[-tail]])
        verdicts = [row[-1] == "True" for row in body]
    if not verdicts:
        return "no identity reports printed"
    if not all(verdicts):
        return f"{verdicts.count(False)} of {len(verdicts)} reports fail"
    return None
