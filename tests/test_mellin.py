"""Tests for the inverse-Mellin density reconstruction.

The Exp(1) and ML(1/2) specs have closed-form densities (e^{-x} and the
half-normal e^{-x^2/4}/sqrt(pi)) which act as end-to-end oracles for the
contour quadrature.  The chirp-z sum is checked against the direct
grid-by-contour sum, which lives here as its oracle, and the fkp-quarter
density against an mpmath contour integral when mpmath is installed.
"""

import bisect
import json
import math
import re
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from limitlaw import mellin
from limitlaw import (
    MellinInversionError,
    MellinSpec,
    default_grid,
    fkp_moments,
    invert,
    log_grid,
    mittag_leffler_moments,
    spec_from_fkp_quarter,
    spec_from_mittag_leffler,
)

SQRT_PI = math.sqrt(math.pi)
# the unit exponential law: M(s) = Gamma(s)
EXP_SPEC = MellinSpec(0.0, 0.0, ((1.0, 0.0, 1),), "exp(1)")


def half_normal_density(x):
    return np.exp(-np.asarray(x) ** 2 / 4.0) / SQRT_PI


class TestSpecs:
    def test_fkp_quarter_total_mass(self):
        assert spec_from_fkp_quarter().mellin(1.0) == pytest.approx(1.0, abs=1e-10)

    def test_fkp_quarter_matches_moments(self):
        spec = spec_from_fkp_quarter()
        ref = fkp_moments(0.25, 2)
        assert spec.mellin(2.0) == pytest.approx(ref[1], rel=1e-12)
        assert spec.mellin(3.0) == pytest.approx(ref[2], rel=1e-12)

    def test_mittag_leffler_total_mass(self):
        assert spec_from_mittag_leffler(0.5).mellin(1.0) == pytest.approx(1.0, abs=1e-10)

    def test_mittag_leffler_half_moments(self):
        spec = spec_from_mittag_leffler(0.5)
        assert spec.mellin(2.0) == pytest.approx(2.0 / SQRT_PI, rel=1e-12)
        assert spec.mellin(3.0) == pytest.approx(2.0, rel=1e-12)

    def test_exponential_moments(self):
        spec = EXP_SPEC
        assert spec.mellin(1.0) == pytest.approx(1.0, abs=1e-12)
        assert spec.mellin(4.0) == pytest.approx(6.0, rel=1e-12)

    def test_moments_helper(self):
        spec = spec_from_mittag_leffler(0.5)
        got = np.array([spec.mellin(s + 1.0) for s in range(1, 6)])
        ref = mittag_leffler_moments(0.5, 5).values[1:]
        assert np.max(np.abs(got - ref) / ref) <= 1e-12

    def test_unnormalized_spec_rejected(self):
        with pytest.raises(ValueError, match="M\\(1\\)"):
            MellinSpec(
                log_prefactor=math.log(2.0),
                log_base=0.0,
                factors=((1.0, 0.0, 1),),
                label="2*exp",
            )

    @pytest.mark.parametrize(
        "factors, message",
        [((), "^at least one gamma factor is required$"),
         (((0.0, 1.0, 1),), "^gamma factor needs a > 0, got a=0.0$"),
         (((1.0, 0.0, 2),), "^gamma factor sign must be \\+-1, got 2$")],
    )
    def test_bad_factors_rejected(self, factors, message):
        with pytest.raises(ValueError, match=message):
            MellinSpec(log_prefactor=0.0, log_base=0.0, factors=factors, label="bad")

    def test_pole_right_of_contour_rejected(self):
        # the Gamma(1/4) law: M(s) = Gamma(s - 3/4) / Gamma(1/4) exists for Re(s) > 3/4
        spec = MellinSpec(
            log_prefactor=-math.lgamma(0.25),
            log_base=0.0,
            factors=((1.0, -0.75, 1),),
            label="shifted",
        )
        grid = np.array([0.5, 1.0, 2.0])
        with pytest.raises(ValueError, match=r"pole at s=0\.75 is not strictly left of the "
                           r"contour Re\(s\)=0\.5"):
            invert(spec, grid)
        with pytest.raises(ValueError, match="pole"):
            invert(spec, grid, contour=0.75)
        assert invert(spec, grid, contour=1.0).metadata["contour"] == 1.0

    @pytest.mark.parametrize(
        "spec, pole",
        [(EXP_SPEC, 0.0), (spec_from_fkp_quarter(), 0.0),
         (spec_from_mittag_leffler(0.3), 0.0),
         # Gamma(2s + 1) Gamma(s - 3/4) / Gamma(s/2 - 2/5): a denominator
         # factor has no pole, though -b/a = 0.8 is the rightmost
         (MellinSpec(log_prefactor=math.lgamma(0.1) - math.lgamma(3.0) - math.lgamma(0.25),
                     log_base=0.0, factors=((2.0, 1.0, 1), (1.0, -0.75, 1), (0.5, -0.4, -1)),
                     label="poles"), 0.75)],
        ids=lambda v: v.label if isinstance(v, MellinSpec) else None,
    )
    def test_pole_is_the_rightmost_numerator_pole(self, spec, pole):
        assert spec.pole == pole

    def test_spec_without_numerator_has_no_pole(self):
        # 1 / Gamma(s) is entire: M(1) = 1 and no contour is refused for a pole
        spec = MellinSpec(log_prefactor=0.0, log_base=0.0, factors=((1.0, 0.0, -1),),
                          label="entire")
        assert spec.pole == -math.inf

    def test_invert_reads_the_law_through_its_interface(self):
        # a law that is not a MellinSpec, with log_mellin, mellin, label and
        # pole alone, gives the spec's table bit for bit
        spec = spec_from_mittag_leffler(0.5)
        law = types.SimpleNamespace(
            log_mellin=spec.log_mellin, mellin=spec.mellin, label=spec.label, pole=spec.pole
        )
        grid = log_grid(0.05, 5.0, 41)
        want, got = invert(spec, grid), invert(law, grid)
        assert got.density.tobytes() == want.density.tobytes()
        assert got.metadata["raw_density"].tobytes() == want.metadata["raw_density"].tobytes()
        law.pole = 0.5
        with pytest.raises(ValueError, match=r"^numerator pole at s=0\.5 is not strictly left"):
            invert(law, grid)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            spec_from_mittag_leffler(1.0)

    @pytest.mark.parametrize(
        "spec",
        [EXP_SPEC, spec_from_fkp_quarter()]
        + [spec_from_mittag_leffler(a) for a in (0.1, 0.5, 0.9)],
        ids=lambda spec: spec.label,
    )
    def test_log_mellin_equals_one_kernel_call_per_factor(self, spec, monkeypatch):
        def per_factor(s):
            s = np.asarray(s, dtype=complex)
            out = spec.log_prefactor + spec.log_base * s
            for a, b, sg in spec.factors:
                out = out + sg * mellin.log_gamma_complex(a * s + b)
            return out

        rng = np.random.default_rng(4)
        points = [
            0.5 + 1j * np.arange(4001) * 0.04,
            0.5 + 1j * np.concatenate(([0.0], 20.0 * 2.0 ** np.arange(13))),
            np.array([1.0, 2.5, 11.0]),
            1.0,
            11.0,
            0.3 - 7j,
            rng.uniform(0.05, 5.0, (3, 4)) + 1j * rng.normal(0.0, 100.0, (3, 4)),
        ]
        calls = []
        kernel = mellin.log_gamma_complex
        monkeypatch.setattr(mellin, "log_gamma_complex", lambda s: calls.append(1) or kernel(s))
        for s in points:
            want = per_factor(s)
            del calls[:]
            got = spec.log_mellin(s)
            assert len(calls) == 1
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestInvert:
    def test_exponential_pointwise(self):
        table = invert(EXP_SPEC, np.array([0.5, 1.0, 2.0]))
        assert np.max(np.abs(table.density - np.exp(-table.x))) <= 1e-8

    def test_mittag_leffler_half_pointwise(self):
        spec = spec_from_mittag_leffler(0.5)
        table = invert(spec, default_grid(spec, 801))
        assert np.max(np.abs(table.density - half_normal_density(table.x))) <= 1e-7

    @pytest.mark.parametrize(
        "make_spec",
        [lambda: EXP_SPEC, spec_from_fkp_quarter, lambda: spec_from_mittag_leffler(0.5)],
        ids=["exp", "fkp-quarter", "mittag-leffler"],
    )
    def test_unit_mass(self, make_spec):
        spec = make_spec()
        table = invert(spec, default_grid(spec, 801))
        assert abs(table.metadata["integral_raw"] - 1.0) <= 1e-6

    def test_realness_on_significant_region(self):
        spec = spec_from_fkp_quarter()
        table = invert(spec, default_grid(spec, 401))
        assert table.metadata["imag_ratio_max"] <= 1e-10

    def test_raw_negativity_bounded(self):
        for spec in (EXP_SPEC, spec_from_fkp_quarter()):
            table = invert(spec, default_grid(spec, 401))
            assert table.metadata["raw_min"] >= -1e-8
            assert np.all(table.density >= 0.0)

    def test_step_refinement_stability(self):
        grid = np.exp(np.linspace(math.log(0.05), math.log(8.0), 101))
        coarse = invert(spec_from_mittag_leffler(0.5), grid)
        fine = invert(spec_from_mittag_leffler(0.5), grid, step=0.02)
        assert np.max(np.abs(coarse.density - fine.density)) <= 1e-8

    @pytest.mark.parametrize(
        "grid, message",
        [([1.0], "^grid must be a 1-d array with at least 2 points$"),
         ([[0.5, 1.0], [1.5, 2.0]], "^grid must be a 1-d array with at least 2 points$"),
         ([0.0, 1.0], "^grid must be strictly positive and strictly increasing$"),
         ([1.0, 0.5], "^grid must be strictly positive and strictly increasing$"),
         # NaN fails every comparison and inf - x > 0, so neither may reach the
         # transform's integer ratios
         ([0.5, math.nan, 2.0], "^grid must be strictly positive and strictly increasing$"),
         ([0.5, 1.0, math.inf], "^grid must be strictly positive and strictly increasing$"),
         ([math.nan, 1.0, 2.0], "^grid must be strictly positive and strictly increasing$")],
    )
    def test_refuses_bad_grid(self, grid, message):
        with pytest.raises(ValueError, match=message):
            invert(EXP_SPEC, grid)

    def test_refuses_insufficient_height(self):
        spec = EXP_SPEC
        with pytest.raises(MellinInversionError, match="increase the truncation height"):
            invert(spec, np.array([0.5, 1.0, 2.0]), height=5.0)

    def test_settings_are_recorded(self):
        grid = np.array([0.5, 1.0, 2.0])
        md = invert(EXP_SPEC, grid, contour=0.75, step=0.05, height=60.0).metadata
        assert (md["contour"], md["step"], md["height"]) == (0.75, 0.05, 60.0)

    @pytest.mark.parametrize("name", ["contour", "step", "height"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -0.5])
    def test_refuses_bad_setting(self, name, value, recwarn):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got "):
            invert(EXP_SPEC, np.array([0.5, 1.0, 2.0]), **{name: value})
        assert len(recwarn) == 0

    def test_refuses_overflow_without_warning(self, recwarn):
        # 1e-160 ** -2 overflows; 1e-150 ** -2 does not, but times the
        # weighted |M| of Exp(1) scaled by 1e30 the roundoff floor does
        with pytest.raises(ValueError, match=r"^x \*\* -contour overflows double precision at "
                           r"x_min=1e-160 with contour=2; raise x_min or lower the contour$"):
            invert(EXP_SPEC, log_grid(1e-160, 1.0, 9), contour=2.0)
        scaled = MellinSpec(-30.0 * math.log(10.0), 30.0 * math.log(10.0), ((1.0, 0.0, 1),),
                            "exp(1e30)")
        with pytest.raises(MellinInversionError, match=r"^exp\(1e30\): the contour sum "
                           r"overflows double precision at x=1e-150; lower the contour$"):
            invert(scaled, log_grid(1e-150, 1.0, 9), contour=2.0)
        assert len(recwarn) == 0

    def test_grid_validation(self):
        spec = EXP_SPEC
        with pytest.raises(ValueError):
            invert(spec, np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            invert(spec, np.array([-1.0, 1.0]))


def _height_by_doubling(spec, c=0.5):
    """The truncation height as the one-call-per-height search chose it."""
    target = spec.log_mellin(complex(c)).real + math.log(1e-12) - 2.0 * math.log(2.0)
    height = 20.0
    while spec.log_mellin(complex(c, height)).real > target:
        height *= 2.0
        if height > 1e5:
            return None
    return height


class TestContourNodes:
    @pytest.mark.parametrize(
        "spec, step",
        [(spec_from_mittag_leffler(a), 0.04) for a in (0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9)]
        + [(spec_from_fkp_quarter(), 0.02), (spec_from_fkp_quarter(), 0.04)],
        ids=lambda v: f"{v:g}" if isinstance(v, float) else v.label,
    )
    def test_batched_height_matches_doubling_loop(self, spec, step):
        height = _height_by_doubling(spec)
        got = mellin._contour_nodes(spec, 0.5, step, None, 2)[2]
        assert got == math.ceil(height / step) * step

    def test_no_decay_is_refused(self):
        flat = MellinSpec(0.0, 0.0, ((1.0, 0.0, 1), (1.0, 0.0, -1)), "flat")
        assert _height_by_doubling(flat) is None
        with pytest.raises(MellinInversionError, match="does not decay"):
            mellin._contour_nodes(flat, 0.5, 0.04, None, 2)

    @pytest.mark.parametrize(
        "spec",
        [EXP_SPEC, spec_from_fkp_quarter(), spec_from_mittag_leffler(0.3)],
        ids=lambda spec: spec.label,
    )
    def test_mirrored_half_equals_full_contour(self, spec):
        lm, _weights, height = mellin._contour_nodes(spec, 0.5, 0.04, None, 2)
        assert np.array_equal(lm, spec.log_mellin(0.5 + 1j * _ordinates(0.04, height)))

    @pytest.mark.parametrize("points, refused", [(2**26 - 2000, True), (2**26 - 2001, False)])
    def test_transform_of_2_26_terms_is_refused(self, points, refused):
        # height 40 at step 0.04 is 2001 nodes
        spec = EXP_SPEC
        if refused:
            with pytest.raises(ValueError, match=r"^67106864 grid points and 2001 contour nodes "):
                mellin._contour_nodes(spec, 0.5, 0.04, 40.0, points)
        else:
            assert mellin._contour_nodes(spec, 0.5, 0.04, 40.0, points)[0].size == 2001

    def test_too_many_terms_is_refused_before_any_node(self):
        # 1.6e11 nodes would take 2.6 TB of log M values alone; the refusal
        # comes before any array of node size is allocated
        grid = log_grid(0.1, 10.0, 41)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                r"^41 grid points and 163840000001 contour nodes \(step 1e-06, height 81920\) "
                r"exceed the 2\*\*26 terms of one transform; raise the step or lower the "
                r"height$"
            )):
                invert(EXP_SPEC, grid, step=1e-6, height=81920.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def grid_moments(table, s_max):
    """Moments 0..s_max of a density table over its grid, relative to its
    grid mass: integral f x^s over integral f, each by ``_integrate_log``."""
    mass = mellin._integrate_log(table.x, table.density)
    return [mellin._integrate_log(table.x, table.density * table.x**s) / mass
            for s in range(s_max + 1)]


class TestRoundTrip:
    def test_exponential_moments(self):
        spec = EXP_SPEC
        table = invert(spec, default_grid(spec, 1201))
        got = grid_moments(table, 5)
        want = np.array([math.gamma(s + 1.0) for s in range(6)])
        assert np.max(np.abs(np.subtract(got, want)) / want) <= 1e-6

    def test_mittag_leffler_moments(self):
        spec = spec_from_mittag_leffler(0.5)
        table = invert(spec, default_grid(spec, 1201))
        got = grid_moments(table, 5)
        want = mittag_leffler_moments(0.5, 5).values
        assert np.max(np.abs(np.subtract(got, want)) / want) <= 1e-6

    def test_fkp_quarter_moments(self):
        spec = spec_from_fkp_quarter()
        table = invert(spec, default_grid(spec, 1201))
        got = grid_moments(table, 5)
        want = fkp_moments(0.25, 5).values
        assert np.max(np.abs(np.subtract(got, want)) / want) <= 1e-4


class TestDensityTable:
    def test_csv_layout(self):
        spec = spec_from_mittag_leffler(0.5)
        table = invert(spec, default_grid(spec, 201))
        comments, header, columns = table.to_csv()
        assert header == ("x", "f", "truncation_estimate")
        arrays = (table.x, table.density, table.truncation_estimate)
        assert len(columns) == len(arrays)
        for column, array in zip(columns, arrays):
            np.testing.assert_array_equal(column, array)
        assert [[key for key, _ in line] for line in comments] == [
            ["label"],
            ["integral_grid", "integral_raw"],
            ["lower_tail", "upper_tail"],
            ["contour", "height", "step"],
        ]
        assert comments[0] == [("label", table.label)]

    def test_json_round_trip(self):
        spec = EXP_SPEC
        table = invert(spec, default_grid(spec, 201))
        decoded = json.loads(json.dumps(table.to_dict()))
        assert decoded["x"] == table.x.tolist()
        assert decoded["metadata"]["label"] == "exp(1)"

    def test_integral_close_to_one(self):
        spec = EXP_SPEC
        table = invert(spec, default_grid(spec, 801))
        assert mellin._integrate_log(table.x, table.density) == pytest.approx(1.0, abs=1e-8)

    def test_even_count_log_grid_ends_with_a_trapezoid_panel(self):
        # Simpson's rule over the first 39 points and the trapezoid rule on
        # the last panel, both in ln x
        x = np.exp(np.linspace(math.log(0.1), math.log(3.0), 40))
        assert mellin._is_log_uniform(x)
        y = [math.exp(-xi) * xi for xi in x.tolist()]
        h = (math.log(3.0) - math.log(0.1)) / 39
        simpson = y[0] + y[38] + sum((4 if i % 2 else 2) * y[i] for i in range(1, 38))
        want = h / 3 * simpson + h / 2 * (y[38] + y[39])
        got = mellin._integrate_log(x, np.exp(-x))
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(math.exp(-0.1) - math.exp(-3.0), abs=1e-4)

    @pytest.mark.parametrize("points", [3, 200])
    def test_irregular_integral_is_numpys_trapezoid(self, points):
        # off a log-uniform grid the integral is the trapezoid rule in ln x,
        # and its sum is the one numpy's trapezoid (trapz in numpy 1.x) makes
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        x = np.sort(np.random.default_rng(points).uniform(0.01, 9.0, points))
        assert not mellin._is_log_uniform(x)
        expected = float(trapezoid(np.exp(-x) * x, np.log(x)))
        assert mellin._integrate_log(x, np.exp(-x)).hex() == expected.hex()


class TestLogGrid:
    @pytest.mark.parametrize("points, size", [(40, 41), (41, 41), (10, 11), (9, 9)])
    def test_odd_count(self, points, size):
        grid = log_grid(1e-6, 20.0, points)
        assert grid.size == size
        assert grid[0] == pytest.approx(1e-6, rel=1e-14)
        assert grid[-1] == pytest.approx(20.0, rel=1e-14)
        assert np.array_equal(grid, np.exp(np.linspace(math.log(1e-6), math.log(20.0), size)))

    @pytest.mark.parametrize(
        "x_min, x_max",
        [(2.0, 2.0), (2.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (1.0, math.inf), (math.nan, 1.0),
         (1.0, math.nan)],
    )
    def test_refuses_bad_ends(self, x_min, x_max, recwarn):
        with pytest.raises(ValueError, match=r"^log grid needs 0 < x_min < x_max < inf"):
            log_grid(x_min, x_max, 41)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("points", [-4, 0, 2, 8])
    def test_refuses_fewer_than_9_points(self, points, recwarn):
        with pytest.raises(ValueError, match=rf"^grid needs at least 9 points, got {points}$"):
            log_grid(1e-6, 20.0, points)
        with pytest.raises(ValueError, match=rf"^grid needs at least 9 points, got {points}$"):
            default_grid(spec_from_fkp_quarter(), points)
        assert len(recwarn) == 0

    def test_default_grid_is_a_log_grid_from_1e_9(self):
        spec = spec_from_fkp_quarter()
        x_max = (spec.mellin(11.0) / 1e-9) ** 0.1
        assert np.array_equal(default_grid(spec, 600), log_grid(1e-9, x_max, 600))


class TestDefaultGrid:
    def test_geometric_and_odd(self):
        spec = EXP_SPEC
        grid = default_grid(spec, 400)
        assert grid.size % 2 == 1
        ratios = grid[1:] / grid[:-1]
        assert np.max(np.abs(ratios - ratios[0])) <= 1e-9 * ratios[0]

    def test_upper_end_from_markov_bound(self):
        spec = EXP_SPEC
        grid = default_grid(spec, 401)
        m10 = spec.mellin(11.0)
        assert grid[-1] == pytest.approx((m10 / 1e-9) ** 0.1, rel=1e-12)


_SPECS = {
    "exp": lambda alpha: EXP_SPEC,
    "fkp-quarter": lambda alpha: spec_from_fkp_quarter(),
    "mittag-leffler": spec_from_mittag_leffler,
}

# Direct sums above this many grid x contour terms run on fewer grid points.
_DIRECT_TERMS = 3_000_000

# Grid points per block of the direct sum: bounds its grid x nodes complex
# temporary to about 8 MB at the 4001 nodes of the default fkp-quarter step.
_GRID_BLOCK = 128

_IRREGULAR = (r"^grid is not log-uniform to within roundoff; build it with "
              r"log_grid\(x_min, x_max, points\)$")


def _ordinates(step, height):
    """The contour ordinates u_k = k h, |u_k| <= height, of _contour_nodes."""
    n = round(height / step)
    return np.arange(-n, n + 1) * step


def _nodes(spec, contour=0.5, step=0.04):
    """Ordinates, log M values and weights at the adaptive height."""
    lm, weights, height = mellin._contour_nodes(spec, contour, step, None, 2)
    return _ordinates(step, height), lm, weights


def _direct_sum(grid, c, u, lm, weights):
    """The quadrature sum of ``invert`` point by point, in blocks of
    _GRID_BLOCK grid points: the oracle for the chirp-z sum."""
    s_line = c + 1j * u
    parts = []
    for i in range(0, grid.size, _GRID_BLOCK):
        integrand = np.exp(-np.outer(np.log(grid[i : i + _GRID_BLOCK]), s_line) + lm)
        parts.append(integrand @ weights / (2.0 * math.pi))
    return np.concatenate(parts)


def _log_grid(log_lo, log_span, points, jitter_seed=None):
    """exp(linspace) as the CLI builds it, or with every log spacing scaled
    by an independent factor in 1 +- 1e-10."""
    if jitter_seed is None:
        return np.exp(np.linspace(log_lo, log_lo + log_span, points))
    rng = np.random.default_rng(jitter_seed)
    spacing = log_span / (points - 1) * (1.0 + 1e-10 * rng.uniform(-1.0, 1.0, points - 1))
    return np.exp(log_lo + np.concatenate([[0.0], np.cumsum(spacing)]))


class TestChirpZ:
    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(_SPECS)),
        alpha=st.floats(0.3, 0.8),
        contour=st.floats(0.25, 2.0),
        step=st.floats(0.01, 0.2),
        points=st.one_of(st.sampled_from([2, 3]), st.integers(2, 2401)),
        log_lo=st.floats(-21.0, 1.0),
        log_span=st.floats(0.05, 25.0),
        jitter_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    @example("fkp-quarter", 0.5, 0.5, 0.2, 2401, -20.7, 24.0, None)  # N > M
    @example("exp", 0.5, 2.0, 0.01, 3, -3.0, 5.0, None)  # M > N
    @example("mittag-leffler", 0.7, 0.5, 0.04, 2, -1.0, 2.0, None)
    @example("fkp-quarter", 0.5, 0.5, 0.04, 601, -20.7, 24.0, 7)
    def test_matches_direct_sum(
        self, name, alpha, contour, step, points, log_lo, log_span, jitter_seed
    ):
        spec = _SPECS[name](alpha)
        u, lm, weights = _nodes(spec, contour, step)
        points = max(2, min(points, _DIRECT_TERMS // u.size))
        grid = _log_grid(log_lo, log_span, points, jitter_seed)
        try:
            fast = mellin._chirp_z_sum(grid, contour, step, lm, weights)
        except ValueError as exc:
            # only a jittered grid may be refused, and invert refuses it too
            assert jitter_seed is not None
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                invert(spec, grid, contour=contour, step=step)
            return
        direct = _direct_sum(grid, contour, u, lm, weights)
        floor = mellin._noise_floor(grid, contour, lm, weights)
        assert np.all(np.abs(fast - direct) <= floor)

    def test_jittered_grid_is_evaluated_where_it_lies(self):
        # The jitter passes the 1e-9 log-uniformity test, but moves points by
        # far more than the roundoff floor allows if the chirp-z transform
        # assumed exact spacing.
        spec = spec_from_fkp_quarter()
        u, lm, weights = _nodes(spec)
        grid = _log_grid(math.log(1e-9), 24.0, 2401, jitter_seed=3)
        assert mellin._is_log_uniform(grid)
        assert np.max(np.abs(mellin._log_residual(np.log(grid))[2])) > 1e-12
        fast = mellin._chirp_z_sum(grid, 0.5, 0.04, lm, weights)
        direct = _direct_sum(grid, 0.5, u, lm, weights)
        assert np.all(np.abs(fast - direct) <= mellin._noise_floor(grid, 0.5, lm, weights))

    def test_fft_length_is_the_smallest_5_smooth_length(self):
        smooth = sorted(
            2**i * 3**j * 5**k for i in range(16) for j in range(10) for k in range(8)
        )
        lengths = [mellin._fft_length(n) for n in range(1, 20_001)]
        assert lengths == [smooth[bisect.bisect_left(smooth, n)] for n in range(1, 20_001)]
        for power in range(40):
            assert mellin._fft_length(2**power) == 2**power

    @pytest.mark.parametrize(
        "name, alpha, step, points",
        [("fkp-quarter", 0.5, 0.02, 1201), ("mittag-leffler", 0.65, 0.02, 601),
         ("mittag-leffler", 0.3, 0.02, 2401), ("exp", 0.5, 0.1, 9)],
    )
    def test_transform_runs_at_the_5_smooth_length(self, name, alpha, step, points, monkeypatch):
        # lengths 9216, 8640, 6480 and 432, where the next power of two is
        # 16384, 16384, 8192 and 512
        spec = _SPECS[name](alpha)
        grid = default_grid(spec, points)
        u, lm, weights = _nodes(spec, step=step)
        length = mellin._fft_length(grid.size + lm.size - 1)
        assert length & (length - 1)
        lengths = []
        for fn in ("fft", "ifft"):
            transform = getattr(np.fft, fn)
            monkeypatch.setattr(
                np.fft, fn,
                lambda x, n=None, transform=transform: lengths.append(n or x.shape[-1])
                or transform(x, n),
            )
        raw = invert(spec, grid, step=step).metadata["raw_density"]
        assert lengths == [length] * 3
        direct = _direct_sum(grid, 0.5, u, lm, weights)
        assert np.all(np.abs(raw - direct.real) <= mellin._noise_floor(grid, 0.5, lm, weights))

    def test_irregular_grid_is_refused(self):
        spec = EXP_SPEC
        _, lm, weights = _nodes(spec)
        grid = np.array([0.5, 1.0, 3.0])
        with pytest.raises(ValueError, match=_IRREGULAR):
            mellin._chirp_z_sum(grid, 0.5, 0.04, lm, weights)
        with pytest.raises(ValueError, match=_IRREGULAR):
            invert(spec, grid)

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(_SPECS)),
        alpha=st.floats(0.3, 0.8),
        log10_ends=st.lists(st.floats(-300.0, 300.0), min_size=2, max_size=2),
        points=st.integers(9, 4001),
        contour=st.floats(0.1, 2.0),
        step=st.floats(0.01, 0.3),
    )
    @example("fkp-quarter", 0.5, [-300.0, 300.0], 4001, 0.1, 0.01)
    @example("mittag-leffler", 0.8, [-9.0, 2.0], 9, 2.0, 0.3)
    def test_log_grid_is_never_refused_as_irregular(
        self, name, alpha, log10_ends, points, contour, step
    ):
        # other refusals (overflow at x_min, a negative excursion) may happen
        x_min, x_max = sorted(10.0**e for e in log10_ends)
        assume(x_min < x_max)
        grid = log_grid(x_min, x_max, points)
        try:
            invert(_SPECS[name](alpha), grid, contour=contour, step=step)
        except (ValueError, MellinInversionError) as exc:
            assert not re.match(_IRREGULAR, str(exc)), exc

    @pytest.mark.parametrize(
        "grid",
        [
            _log_grid(math.log(1e-9), 24.0, 2401),
            np.geomspace(0.01, 8.0, 41),
            _log_grid(-3.0, 6.0, 301, jitter_seed=5),
        ],
        ids=["cli", "geomspace", "jittered"],
    )
    def test_log_residual_is_exact(self, grid):
        lx = np.log(grid)
        origin, step, resid = mellin._log_residual(lx)
        for j in range(0, grid.size, 7):
            exact = Fraction(float(lx[j])) - Fraction(origin) - j * Fraction(step)
            assert abs(Fraction(float(resid[j])) - exact) <= abs(exact) / 2**52

    def test_reduced_phase_matches_exact_reduction(self):
        # (num/den) * m mod 2pi against the same reduction in exact rationals,
        # with pi to 64 digits; a double product is ~1e-12 rad off here.
        pi = Fraction(mellin._PI_NUM, mellin._PI_DEN)
        rng = np.random.default_rng(11)
        for num, den in ((0.04 * 0.0103, 2.0), (-0.02 * 20.7, 1.0), (1.5 * 3.25, 2.0)):
            ratio = Fraction(num) / Fraction(den)
            m = rng.integers(-(10**8), 10**8, 200)
            got = mellin._reduced_phase(ratio.numerator, ratio.denominator, m)
            for mi, phase in zip(m.tolist(), got):
                turns = ratio * mi / (2 * pi)
                want = float((turns - round(turns)) * 2 * pi)
                assert abs(phase - want) <= 1e-15


class TestMpmathOracle:
    def test_fkp_quarter_density(self):
        """Three log-uniform points against (1/pi) int_0^inf Re[x^-s M(s)] du
        at Re(s) = 1/2, integrated by mpmath at 20 digits."""
        mp = pytest.importorskip("mpmath")
        spec = spec_from_fkp_quarter()
        grid = np.array([0.3, math.sqrt(0.75), 2.5])
        table = invert(spec, grid)
        raw = table.metadata["raw_density"]
        bound = table.metadata["noise_floor"] + table.truncation_estimate
        with mp.workdps(20):
            const = 0.5 * mp.log(2) + mp.loggamma(0.25) + mp.loggamma(0.5)

            def log_mellin(s):
                return (const - 0.5 * mp.log(2) * s + mp.loggamma(s)
                        - mp.loggamma(s / 4) - mp.loggamma((s + 1) / 4))

            for x, got, allowed in zip(grid, raw, bound):
                lx = mp.log(mp.mpf(float(x)))

                def integrand(u):
                    s = mp.mpc(0.5, u)
                    return mp.re(mp.exp(log_mellin(s) - s * lx))

                # |M(1/2 + iu)| ~ e^{-pi u / 4}: the tail beyond u = 50 is ~1e-17
                want = mp.quad(integrand, mp.linspace(0, 50, 26)) / mp.pi
                assert abs(got - float(want)) <= allowed

    def test_chirp_z_sum_near_mode(self):
        """Where the fkp-quarter density peaks, the chirp-z sum on the
        2401-point CLI grid is within 4 of the 32 roundoff units of the same
        trapezoid sum in 25-digit arithmetic."""
        mp = pytest.importorskip("mpmath")
        spec = spec_from_fkp_quarter()
        grid = default_grid(spec, 2401)
        u, lm, weights = _nodes(spec)
        fast = mellin._chirp_z_sum(grid, 0.5, 0.04, lm, weights)
        unit = mellin._noise_floor(grid, 0.5, lm, weights) / mellin._ROUNDOFF_UNITS
        n = u.size // 2
        with mp.workdps(25):
            terms = [
                (mp.mpf(float(w)) * mp.exp(mp.mpc(float(l.real), float(l.imag))),
                 mp.mpc(0.5, k * mp.mpf(0.04)))
                for k, l, w in zip(range(-n, n + 1), lm, weights)
            ]
            for j in range(2170, 2200, 3):  # x from 2.7 to 3.6
                lx = mp.log(mp.mpf(float(grid[j])))
                exact = mp.fsum(a * mp.exp(-s * lx) for a, s in terms) / (2 * mp.pi)
                assert abs(complex(exact) - fast[j]) <= 4.0 * unit[j]
