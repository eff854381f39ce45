"""The package surface, its loading and its input rules.

``limitlaw.__all__`` is built from each module's ``__all__``, so these tests
pin the names it exports.  The package loads its modules on first use, so
fresh interpreters check what each entry point loads.  Each input rule is
raised by one checker in ``limitlaw.moments``, so entry points in every
module that take such an input refuse a bad value with that rule's one
wording.
"""

import json
import math
import operator
import re
import subprocess
import sys

import numpy as np
import pytest

import limitlaw
from limitlaw import (
    BesselParams,
    SplitKernel,
    compare,
    enumerate_tree_costs,
    fkp_moments,
    invert,
    laplace_exponent,
    mittag_leffler_moments,
    sample_mittag_leffler,
    sample_rayleigh,
    scale,
    scale_free_ratio_check,
    simulate_tree_cost,
    spec_from_mittag_leffler,
    summarize,
    tilted_moments,
    tilted_moments_beta_fraction,
)

PUBLIC_NAMES = [
    "__version__",
    "log_gamma",
    "log_gamma_complex",
    "log_beta",
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
    "ComparisonReport",
    "PhiAdjudication",
    "compare",
    "adjudicate_phi_convention",
    "MellinSpec",
    "DensityTable",
    "MellinInversionError",
    "spec_from_fkp_quarter",
    "spec_from_mittag_leffler",
    "default_grid",
    "log_grid",
    "invert",
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


class TestSurface:
    def test_all_is_pinned(self):
        assert limitlaw.__all__ == PUBLIC_NAMES
        assert len(PUBLIC_NAMES) == 44

    def test_no_duplicates(self):
        assert len(set(limitlaw.__all__)) == len(limitlaw.__all__)

    def test_every_name_resolves(self):
        for name in limitlaw.__all__:
            assert hasattr(limitlaw, name), name

    @pytest.mark.parametrize(
        "owner, name",
        [("identities", "HankelDiagnostics"), ("identities", "hankel_positive_definite"),
         ("identities", "_ldl_pivots"), ("identities", "carleman_partial_sums"),
         ("mellin", "roundtrip_moments"), ("mellin", "_alive_region"),
         ("mellin", "_tail_moment_estimate"), ("mellin", "spec_from_exponential"),
         ("mellin.DensityTable", "integral")],
    )
    def test_removed_diagnostic_is_gone(self, owner, name):
        # the library-only Hankel, Carleman and round-trip diagnostics
        for place in (operator.attrgetter(owner)(limitlaw), limitlaw):
            with pytest.raises(AttributeError, match=f"has no attribute '{name}'$"):
                getattr(place, name)


def fresh(code, *argv):
    """What ``code`` prints as JSON, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


_LOADED = (
    "import contextlib, io, json, sys\n"
    "import limitlaw.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = limitlaw.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('limitlaw')),\n"
    "                  'numpy' in sys.modules]))\n"
)
_CLI = ["limitlaw", "limitlaw.cli", "limitlaw.gammakit", "limitlaw.moments"]

# each --which family and each --identity, with the flags it cannot run without
_MOMENTS = {
    "fkp": ("--a-prime", "0.5"),
    "local-time": ("--alpha", "0.5", "--beta", "0.7", "--t", "2"),
    "tilted": ("--alpha", "0.5", "--beta", "0.7"),
    "exp-functional": ("--alpha", "0.5", "--beta", "0.7"),
    "mittag-leffler": ("--alpha", "0.5"),
}
_IDENTITIES = ("tilt", "corollary", "mittag-leffler", "exp-functional", "phi-adjudicate",
               "t-independence")


class TestLoading:
    """The package loads no module until a name of it is asked for, and the
    CLI loads only the modules its subcommand runs: numpy only for
    ``density`` and ``sample``."""

    @pytest.mark.parametrize(
        "argv, extra",
        [
            ((), []),
            (("moments", "--which", "fkp", "--a-prime", "0.5", "--smax", "3"), []),
            (("check", "--identity", "corollary", "--a-prime", "0.5"), ["limitlaw.identities"]),
            (("density", "--spec", "fkp-quarter", "--grid-points", "41"), ["limitlaw.mellin"]),
            (("sample", "--sampler", "rayleigh", "--n", "100"), ["limitlaw.montecarlo"]),
            (("sample", "--sampler", "rayleigh", "--n", "100", "--check-against", "fkp:0.5"),
             ["limitlaw.identities", "limitlaw.montecarlo"]),
        ],
        ids=["import", "moments", "check", "density", "sample", "sample-check-against"],
    )
    def test_cli_loads_the_modules_its_subcommand_runs(self, argv, extra):
        code, loaded, numpy_loaded = fresh(_LOADED, *argv)
        assert code in (0, 1)
        assert loaded == sorted(_CLI + extra)
        assert numpy_loaded == (argv[:1] in (("density",), ("sample",)))

    @pytest.mark.parametrize(
        "argv",
        [("moments", "--which", which, *flags, "--smax", "12") for which, flags in _MOMENTS.items()]
        + [("check", "--identity", identity, "--smax", "12") for identity in _IDENTITIES],
        ids=[f"moments-{which}" for which in _MOMENTS] + [f"check-{i}" for i in _IDENTITIES],
    )
    def test_moments_and_check_run_without_numpy(self, argv):
        code, _, numpy_loaded = fresh(_LOADED, *argv)
        assert (code, numpy_loaded) == (0, False)

    def test_identities_run_without_numpy(self):
        # numpy is blocked before the package loads, so an import of it in
        # identities, or in any name of its __all__, fails here
        names = fresh(
            "import json, sys\n"
            "sys.modules['numpy'] = None\n"
            "import limitlaw.identities as ids\n"
            "from limitlaw.moments import fkp_moments\n"
            "report = ids.compare(fkp_moments(0.5, 4), fkp_moments(0.6, 4), 1e-12)\n"
            "result = ids.adjudicate_phi_convention(0.5, 8)\n"
            "assert type(report) is ids.ComparisonReport and not report.passed\n"
            "assert type(result) is ids.PhiAdjudication and result.matching == ('half',)\n"
            "json.dumps([report.to_dict(), result.to_dict()])\n"
            "print(json.dumps(ids.__all__))\n"
        )
        assert sorted(names) == [
            "ComparisonReport", "PhiAdjudication", "adjudicate_phi_convention", "compare"
        ]

    def test_every_family_and_identity_is_covered(self):
        from limitlaw import cli

        assert tuple(_MOMENTS) == cli._names("which")
        assert _IDENTITIES == tuple(cli._IDENTITIES)

    def test_first_name_loads_every_module(self):
        loaded = fresh(
            "import json, sys\n"
            "def loaded(): return sorted(m for m in sys.modules if m.startswith('limitlaw'))\n"
            "import limitlaw\n"
            "before = loaded()\n"
            "limitlaw.invert\n"
            "print(json.dumps([before, loaded()]))"
        )
        assert loaded == [
            ["limitlaw"],
            ["limitlaw", *(f"limitlaw.{m}" for m in
                           ("gammakit", "identities", "mellin", "moments", "montecarlo"))],
        ]

    def test_star_import_binds_all(self):
        names = fresh(
            "import json\n"
            "from limitlaw import *\n"
            "import limitlaw\n"
            "print(json.dumps([sorted(n for n in globals() if n in limitlaw.__all__), "
            "limitlaw.__all__]))"
        )
        assert names == [sorted(PUBLIC_NAMES), PUBLIC_NAMES]

    def test_dir_covers_all(self):
        covered = fresh("import json, limitlaw\n"
                        "print(json.dumps(set(limitlaw.__all__) <= set(dir(limitlaw))))")
        assert covered is True

    def test_module_import_gives_the_re_exports(self):
        same = fresh(
            "import json\n"
            "from limitlaw import mellin\n"
            "import limitlaw\n"
            "print(json.dumps([limitlaw.invert is limitlaw.mellin.invert is mellin.invert, "
            "limitlaw.log_gamma is limitlaw.gammakit.log_gamma]))"
        )
        assert same == [True, True]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'limitlaw' has no attribute 'nope'$"):
            limitlaw.nope  # noqa: B018


_SPEC = spec_from_mittag_leffler(0.5)
_GRID = np.array([0.5, 1.0, 2.0])
_SHORT = summarize(np.arange(1.0, 10.0), 3, 0, "short")

# (entry point taking alpha as its first argument, the remaining arguments)
_ALPHA_ENTRIES = [
    (BesselParams, (1.0,)),
    (tilted_moments, (1.0, 4)),
    (tilted_moments_beta_fraction, (2, 4)),
    (mittag_leffler_moments, (4,)),
    (spec_from_mittag_leffler, ()),
    (sample_mittag_leffler, (10, 0)),
]

# (name in the message, call with the value)
_POSITIVE_ENTRIES = [
    ("beta", lambda v: BesselParams(0.5, v)),
    ("t", lambda v: BesselParams(0.5, 0.5, v)),
    ("beta", lambda v: tilted_moments(0.5, v, 4)),
    ("a_prime", lambda v: fkp_moments(v, 4)),
    ("a_prime", lambda v: laplace_exponent(1.0, v)),
    ("a_prime", lambda v: scale_free_ratio_check(_SHORT, v)),
    ("r", lambda v: laplace_exponent(v, 0.5)),
    ("scale factor", lambda v: scale(fkp_moments(0.5, 4), v)),
    ("sigma", lambda v: sample_rayleigh(v, 10, 0)),
    ("contour", lambda v: invert(_SPEC, _GRID, contour=v)),
    ("step", lambda v: invert(_SPEC, _GRID, step=v)),
    ("height", lambda v: invert(_SPEC, _GRID, height=v)),
    ("tolerance", lambda v: compare(fkp_moments(0.5, 4), fkp_moments(0.6, 4), v)),
]

# (name in the message, largest order, call with the value): k * value must
# stay finite for every order k up to the largest
_ORDER_MULTIPLE_ENTRIES = [
    ("a_prime", 4, lambda v: fkp_moments(v, 4)),
    ("beta", 4, lambda v: tilted_moments(0.5, v, 4)),
    ("beta", 3, lambda v: tilted_moments(0.5, v, 3)),
    ("a_prime", 3, lambda v: scale_free_ratio_check(_SHORT, v)),
]

_TOLL_ENTRIES = [
    lambda a: simulate_tree_cost(SplitKernel.uniform(), a, 4, 10, 0),
    lambda a: enumerate_tree_costs(SplitKernel.uniform(), a, 4),
]

# (name in the message, call with the count)
_COUNT_ENTRIES = [
    ("s_max", lambda k: fkp_moments(0.5, k)),
    ("s_max", lambda k: summarize(np.ones(3), k, 0, "unit")),
    ("m", lambda k: tilted_moments_beta_fraction(0.5, k, 4)),
    ("n", lambda k: sample_rayleigh(1.0, k, 0)),
    ("n", lambda k: sample_mittag_leffler(0.5, k, 0)),
    ("n", lambda k: simulate_tree_cost(SplitKernel.uniform(), 0.0, k, 10, 0)),
    ("reps", lambda k: simulate_tree_cost(SplitKernel.uniform(), 0.0, 4, k, 0)),
]


class TestOneWordingPerRule:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, math.nan])
    @pytest.mark.parametrize("entry, rest", _ALPHA_ENTRIES)
    def test_alpha(self, entry, rest, alpha):
        with pytest.raises(ValueError, match=rf"^alpha must lie in \(0, 1\), got {alpha!r}$"):
            entry(alpha, *rest)

    @pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
    @pytest.mark.parametrize("name, call", _POSITIVE_ENTRIES)
    def test_finite_and_positive(self, name, call, value, recwarn):
        message = f"^{name} must be finite and positive, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            call(value)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("value", [1e308, 6e307, np.float64(1e308)])
    @pytest.mark.parametrize("name, order, call", _ORDER_MULTIPLE_ENTRIES)
    def test_finite_order_multiple(self, name, order, call, value, recwarn):
        got = f"{name}={float(value)!r}"
        message = "^" + re.escape(f"{name} * {order} must be finite, got {got}") + "$"
        with pytest.raises(ValueError, match=message):
            call(value)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("a", [-0.5, math.inf, math.nan])
    @pytest.mark.parametrize("call", _TOLL_ENTRIES)
    def test_toll_exponent(self, call, a):
        message = f"^toll exponent a must be finite and >= 0, got {a!r}$"
        with pytest.raises(ValueError, match=message):
            call(a)

    @pytest.mark.parametrize("name, call", _COUNT_ENTRIES)
    def test_count(self, name, call):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
            call(0)
