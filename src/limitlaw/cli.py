"""Command-line entry point.

Four subcommands cover the toolkit: ``moments`` prints a generated moment
sequence, ``check`` runs the cross-identity comparisons, ``density`` runs the
inverse-Mellin reconstruction, and ``sample`` runs the seeded Monte Carlo
samplers.  Exit codes: 0 success / all checks pass, 1 a check or
reconstruction failed, 2 usage or parameter error.

Every run is a pure function of its flags and seed, so repeated invocations
produce byte-identical output.  ``_write`` alone turns it into text: CSV with
17 significant digits, None as an empty field, minimal quoting and
``# key=value`` comment lines, and strict JSON with shortest round-trip floats
(a non-finite value exits 2).  A non-finite value on a float flag is a usage
error, and so is a law flag that the named law or identity does not read.

Only ``gammakit`` and ``moments`` load with this module, and neither loads
numpy.  ``check`` loads ``identities`` when it runs (``_module``), which
loads no numpy either; ``density`` loads ``mellin`` and ``sample`` loads
``montecarlo``, and with them numpy.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import math
import sys

from . import __version__
from .gammakit import log_gamma
from .moments import (
    BesselParams,
    MomentSequence,
    _require_positive,
    exp_functional_moments,
    fkp_moments,
    kappa,
    local_time_moments,
    mittag_leffler_moments,
    scale,
    scaled_local_time_moments,
    tilt,
    tilted_moments,
)


def _module(name: str):
    """The package's module ``name``, imported on first use.  A caller looks
    each function up on the module when it runs, so it calls a name rebound
    there."""
    return importlib.import_module(f"{__package__}.{name}")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:  # argparse would name this function in its message
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite value, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        return _require_positive(_finite_float(text), "value")
    except ValueError as exc:  # argparse would name this function in its message
        raise argparse.ArgumentTypeError(str(exc)) from None


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(_finite_float(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitlaw",
        description="Moment sequences, identity checks, densities and Monte Carlo "
        "validation for the one-sided tree-destruction limit law.",
    )
    parser.add_argument("--version", action="version", version=f"limitlaw {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, default_format):
        sp.add_argument("--format", choices=("csv", "json"), default=default_format)
        sp.add_argument("--output", default=None, help="write to this path instead of stdout")
        sp.add_argument("--manifest", action="store_true", help="include a replay manifest")
        # kept so that existing command lines still parse; main checks it and
        # the manifest records it, and nothing else reads it
        sp.add_argument("--threads", default="1", help="has no effect (an integer >= 1)")

    p_mom = sub.add_parser("moments", help="print a generated moment sequence")
    p_mom.add_argument("--which", required=True, choices=_names("which"))
    p_mom.add_argument("--a-prime", type=_finite_float, default=None)
    p_mom.add_argument("--alpha", type=_finite_float, default=None)
    p_mom.add_argument("--beta", type=_finite_float, default=None)
    p_mom.add_argument("--d", type=_finite_float, default=None)
    p_mom.add_argument("--p", type=_finite_float, default=None)
    p_mom.add_argument("--t", type=_finite_float, default=None, help="default 1")
    p_mom.add_argument("--smax", type=int, default=20)
    common(p_mom, "csv")
    p_mom.set_defaults(func=cmd_moments)

    p_chk = sub.add_parser("check", help="run identity cross-checks")
    p_chk.add_argument("--identity", required=True, choices=tuple(_IDENTITIES))
    p_chk.add_argument("--alpha", type=_float_list, default=None, help="comma-separated grid")
    p_chk.add_argument("--beta", type=_float_list, default=None, help="comma-separated grid")
    p_chk.add_argument("--a-prime", type=_float_list, default=None, help="comma-separated grid")
    p_chk.add_argument("--smax", type=int, default=20)
    p_chk.add_argument("--tol", type=_positive_float, default=None)
    common(p_chk, "json")
    p_chk.set_defaults(func=cmd_check)

    p_den = sub.add_parser("density", help="inverse-Mellin density reconstruction")
    p_den.add_argument("--spec", required=True, choices=_names("spec"))
    p_den.add_argument("--alpha", type=_finite_float, default=None)
    p_den.add_argument("--grid-min", type=_positive_float, default=None)
    p_den.add_argument("--grid-max", type=_positive_float, default=None)
    p_den.add_argument("--grid-points", type=int, default=1201)
    p_den.add_argument("--contour", type=_positive_float, default=0.5)
    p_den.add_argument("--height", type=_positive_float, default=None)
    p_den.add_argument("--step", type=_positive_float, default=0.04)
    common(p_den, "csv")
    p_den.set_defaults(func=cmd_density)

    p_smp = sub.add_parser("sample", help="seeded Monte Carlo samplers")
    p_smp.add_argument("--sampler", required=True, choices=_names("sampler"))
    p_smp.add_argument("--n", type=int, required=True)
    p_smp.add_argument("--reps", type=int, default=None, help="replicates for the tree sampler")
    p_smp.add_argument("--seed", type=int, default=0)
    p_smp.add_argument("--sigma", type=_finite_float, default=None, help="default 1")
    p_smp.add_argument("--alpha", type=_finite_float, default=None)
    p_smp.add_argument("--toll-exponent", type=_finite_float, default=None, help="default 0")
    p_smp.add_argument("--kernel-file", default=None, help="CSV table kernel (n,k,probability)")
    p_smp.add_argument("--smax", type=int, default=4)
    p_smp.add_argument(
        "--check-against",
        default=None,
        metavar="fkp:A",
        help="compare scale-free moment ratios against fkp moments with a'=A",
    )
    common(p_smp, "json")
    p_smp.set_defaults(func=cmd_sample)

    return parser


def _manifest(args) -> dict:
    skip = {"func", "manifest", "output"}
    resolved = {
        key: (list(value) if isinstance(value, tuple) else value)
        for key, value in sorted(vars(args).items())
        if key not in skip
    }
    return {"tool": "limitlaw", "version": __version__, "arguments": resolved}


def _text(value) -> str:
    """A value as output text: a float to 17 significant digits, None empty."""
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


_QUOTED = frozenset(',"\r\n')


def _cell(value) -> str:
    """``_text(value)`` as a CSV field, quoted with its quotes doubled where it
    holds a comma, a quote, CR or LF."""
    text = _text(value)
    return text if _QUOTED.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def _write(args, table, payload) -> None:
    """Render the output in ``args.format`` and write it to --output or stdout.

    ``table()`` returns ``(comments, header, columns)``, each comment a
    sequence of ``(key, value)`` pairs printed as ``# key=value ...``;
    ``payload()`` returns a JSON object, or a list of objects for JSON lines.
    Only the requested format is built.  The manifest is the first CSV comment,
    the first JSON line, or the ``"manifest"`` key of a single JSON object.
    This is the only CSV writer, and a row costs one ``str.format`` call: a
    column whose values are all Python floats is formatted by the row
    template, any other by ``_cell``, which gives the same text.
    """
    manifest = _manifest(args) if args.manifest else None
    if args.format == "csv":
        comments, header, columns = table()
        if manifest is not None:
            comments = [[("manifest", json.dumps(manifest, allow_nan=False))], *comments]
        floats = [set(map(type, c)) <= {float} for c in columns]
        row = ",".join("{:.17g}" if f else "{}" for f in floats) + "\n"
        cells = [c if f else map(_cell, c) for c, f in zip(columns, floats)]
        text = "".join(
            "# " + " ".join(f"{key}={_text(value)}" for key, value in line) + "\n"
            for line in comments
        )
        text += ",".join(map(_cell, header)) + "\n"
        if cells:  # no columns: a table without rows is its header alone
            text += "".join(map(row.format, *cells))
    else:
        body = payload()
        if isinstance(body, list):
            objects = body if manifest is None else [{"manifest": manifest}, *body]
        else:
            objects = [body if manifest is None else {**body, "manifest": manifest}]
        text = "".join(json.dumps(obj, allow_nan=False) + "\n" for obj in objects)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_bessel(args, t: float) -> BesselParams:
    """The law of the one complete route given: --alpha/--beta, --d/--p or
    --a-prime.  No route, a route half given or two routes are refused."""
    routes = ((args.alpha, args.beta), (args.d, args.p), (args.a_prime,))
    given = [values for values in routes if values.count(None) < len(values)]
    if len(given) != 1 or None in given[0]:
        raise ValueError("give exactly one of --alpha with --beta, --d with --p, or --a-prime")
    if args.d is not None:
        return BesselParams.from_d_p(args.d, args.p, t)
    if args.a_prime is not None:
        return BesselParams(0.5, args.a_prime, t)
    return BesselParams(args.alpha, args.beta, t)


def _tilted(args) -> MomentSequence:
    params = _resolve_bessel(args, 1.0)
    return tilted_moments(params.alpha, params.beta, args.smax)


def _tree_summary(args):
    montecarlo = _module("montecarlo")
    kernel = (montecarlo.SplitKernel.from_csv(args.kernel_file) if args.kernel_file
              else montecarlo.SplitKernel.uniform())
    return montecarlo.simulate_tree_cost(
        kernel, args.toll_exponent, args.n, args.reps, args.seed, args.smax
    )


_ROUTE = ("alpha", "beta", "d", "p", "a_prime")  # the flags _resolve_bessel reads

# The law flags that have a default: each is None when not given, and _build
# fills in the default only for a law that reads the flag.
_DEFAULTS = {"t": 1.0, "sigma": 1.0, "toll_exponent": 0.0, "reps": 10000}

# law -> (the flags it cannot run without, the other law flags it reads,
# {selector: builder(args)}): the moment sequence of --which, the MellinSpec
# of --spec or the sample summary of --sampler.  Each selector offers its laws
# in this order.  A builder looks names up when it runs, here or on the module
# (_module), so it calls a name rebound there.
_LAWS = {
    "fkp": (("a_prime",), (), {"which": lambda a: fkp_moments(a.a_prime, a.smax)}),
    "local-time": (
        (), (*_ROUTE, "t"),
        {"which": lambda a: local_time_moments(_resolve_bessel(a, a.t), a.smax)},
    ),
    "tilted": ((), _ROUTE, {"which": _tilted}),
    "exp-functional": (
        (), (*_ROUTE, "t"),
        {"which": lambda a: exp_functional_moments(_resolve_bessel(a, a.t), a.smax)},
    ),
    "fkp-quarter": ((), (), {"spec": lambda a: _module("mellin").spec_from_fkp_quarter()}),
    "rayleigh": ((), ("sigma",), {
        "sampler": lambda a: _module("montecarlo").sample_rayleigh(a.sigma, a.n, a.seed, a.smax),
    }),
    "mittag-leffler": (("alpha",), (), {
        "which": lambda a: mittag_leffler_moments(a.alpha, a.smax),
        "spec": lambda a: _module("mellin").spec_from_mittag_leffler(a.alpha),
        "sampler": lambda a: _module("montecarlo").sample_mittag_leffler(
            a.alpha, a.n, a.seed, a.smax
        ),
    }),
    "tree": ((), ("reps", "kernel_file", "toll_exponent"), {"sampler": _tree_summary}),
}


def _names(selector: str) -> tuple:
    return tuple(name for name, (*_, builders) in _LAWS.items() if selector in builders)


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


@functools.cache
def _unread(selector: str, name: str) -> tuple:
    """The flags that some law of ``selector`` reads (some identity, for
    ``identity``) and ``name`` does not, in table order."""
    if selector == "identity":
        reads = {key: tuple(grids) for key, (_, grids, _) in _IDENTITIES.items()}
    else:
        reads = {key: (*r, *o) for key, (r, o, builders) in _LAWS.items() if selector in builders}
    return tuple(f for f in dict.fromkeys(itertools.chain(*reads.values())) if f not in reads[name])


def _refuse_unread(args, selector: str) -> None:
    """Refuse a flag given that the law or identity named by
    ``args.<selector>`` does not read."""
    name = getattr(args, selector)
    for flag in _unread(selector, name):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{selector} {name} does not read {_flag(flag)}")


def _build(args, selector: str):
    """What the law named by ``args.<selector>`` builds for that selector,
    after the defaults of the flags it reads are filled in (so the manifest
    records them)."""
    name = getattr(args, selector)
    required, reads, builders = _LAWS[name]
    for flag in required:
        if getattr(args, flag) is None:
            raise ValueError(f"--{selector} {name} requires {_flag(flag)}")
    _refuse_unread(args, selector)
    for flag in reads:
        if getattr(args, flag) is None and flag in _DEFAULTS:
            setattr(args, flag, _DEFAULTS[flag])
    return builders[selector](args)


def cmd_moments(args) -> int:
    seq = _build(args, "which")
    _write(
        args,
        lambda: ([[("label", seq.label)]], ("s", "value"), (range(len(seq)), seq.values)),
        lambda: {**seq.to_dict(), "rows": [[s, v] for s, v in enumerate(seq.values)]},
    )
    return 0


def _tilt_sides(alpha, beta, s_max):
    params = BesselParams(alpha, beta)
    return tilt(scaled_local_time_moments(params, s_max + 1)), tilted_moments(alpha, beta, s_max)


def _corollary_sides(a_prime, s_max):
    return fkp_moments(a_prime, s_max), scale(tilted_moments(0.5, a_prime, s_max), 2.0**-0.5)


def _mittag_leffler_sides(alpha, s_max):
    # the p = 0 local time at the t where its scale factor equals 1
    t = 0.5 * math.exp((log_gamma(1.0 - alpha) - log_gamma(1.0 + alpha)) / alpha)
    params = BesselParams(alpha, alpha, t)
    return local_time_moments(params, s_max), mittag_leffler_moments(alpha, s_max)


def _exp_functional_sides(alpha, beta, s_max):
    params = BesselParams(alpha, beta)
    tilted = scale(tilted_moments(alpha, beta, s_max), kappa(params))
    return exp_functional_moments(params, s_max), tilted


def _t_independence_sides(alpha, beta, s_max):
    def scaled_via(t):
        params = BesselParams(alpha, beta, t)
        k = kappa(params)
        values = [v / k**s for s, v in enumerate(local_time_moments(params, s_max).values)]
        values[0] = 1.0
        label = f"scaled-via-t={t:g}(alpha={alpha:g}, beta={beta:g})"
        return MomentSequence(values, label, {"alpha": alpha, "beta": beta, "t": t})

    return scaled_via(0.3), scaled_via(7.0)


# identity -> (default tolerance, {flag: default grid} outermost first,
# sides(*point, s_max) -> the two sequences compare() holds together).
# phi-adjudicate has no sides: adjudicate_phi_convention reports each point.
_IDENTITIES = {
    "tilt": (1e-12, {"alpha": (0.1, 0.3, 0.5, 0.7, 0.9), "beta": (0.25, 0.5, 1.0, 2.0)},
             _tilt_sides),
    "corollary": (1e-11, {"a_prime": (0.5, 0.75, 1.0, 1.5, 2.5)}, _corollary_sides),
    "mittag-leffler": (1e-12, {"alpha": (0.25, 0.5, 0.75)}, _mittag_leffler_sides),
    "exp-functional": (1e-11, {"alpha": (0.1, 0.3, 0.5, 0.7, 0.9), "beta": (0.25, 0.5, 1.0, 2.0)},
                       _exp_functional_sides),
    "phi-adjudicate": (1e-8, {"a_prime": (0.25, 0.5, 1.0, 2.0)}, None),
    "t-independence": (1e-12, {"alpha": (0.1, 0.3, 0.5, 0.7, 0.9), "beta": (0.25, 0.5, 1.0, 2.0)},
                       _t_independence_sides),
}


def cmd_check(args) -> int:
    identity = args.identity
    tol, grids, sides = _IDENTITIES[identity]
    _refuse_unread(args, "identity")
    identities = _module("identities")
    if args.tol is not None:
        tol = args.tol
    points = itertools.product(
        *(default if getattr(args, flag) is None else getattr(args, flag)
          for flag, default in grids.items())
    )
    if sides is None:  # phi-adjudicate: a diagnostic, never a failure
        results = [identities.adjudicate_phi_convention(*point, args.smax, tol) for point in points]
        header = ("a_prime", "convention", "max_deviation", "pass")
        rows = (
            (r.a_prime, conv, rep.max_deviation, rep.passed)
            for r in results
            for conv, rep in r.reports.items()
        )
        code = 0
    else:
        results = [identities.compare(*sides(*point, args.smax), tol) for point in points]
        header = ("identity", "label_a", "label_b", "max_deviation", "tolerance", "pass")
        rows = (
            (identity, r.label_a, r.label_b, r.max_deviation, r.tolerance, r.passed)
            for r in results
        )
        code = 0 if all(r.passed for r in results) else 1
    _write(args, lambda: ([], header, list(zip(*rows))), lambda: [r.to_dict() for r in results])
    return code


def cmd_density(args) -> int:
    spec = _build(args, "spec")
    if (args.grid_min is None) != (args.grid_max is None):
        raise ValueError("--grid-min and --grid-max must be given together")
    mellin = _module("mellin")
    grid = (mellin.default_grid(spec, args.grid_points) if args.grid_min is None
            else mellin.log_grid(args.grid_min, args.grid_max, args.grid_points))
    try:
        table = mellin.invert(spec, grid, contour=args.contour, step=args.step, height=args.height)
    except mellin.MellinInversionError as exc:  # the reconstruction failed: exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write(args, table.to_csv, table.to_dict)
    return 0


def _parse_check_against(text: str) -> float:
    family, _, value = text.partition(":")
    if family == "fkp":
        try:
            return float(value)
        except ValueError:
            pass
    raise ValueError(f"--check-against expects 'fkp:A', got {text!r}")


def cmd_sample(args) -> int:
    montecarlo = _module("montecarlo")
    a_prime = None
    if args.check_against is not None:  # refused before any draw
        a_prime = montecarlo._ratio_check_inputs(
            args.smax, _parse_check_against(args.check_against)
        )
    summary = _build(args, "sampler")
    check = None if a_prime is None else montecarlo.scale_free_ratio_check(summary, a_prime)

    def table():
        comments = [[("sampler", summary.sampler), *summary.sizes, ("seed", summary.seed)]]
        if check is not None:
            comments.append(
                [("check", check.label_b), ("max_deviation", check.max_deviation),
                 ("pass", check.passed)]
            )
        columns = (range(summary.max_order + 1), summary.moments, summary.standard_errors)
        return comments, ("s", "moment", "standard_error"), columns

    parts = {"summary": summary} if check is None else {"summary": summary, "check": check}
    _write(args, table, lambda: {key: part.to_dict() for key, part in parts.items()})
    return 0 if check is None or check.passed else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building costs ~25x a parse (add_argument formats every action), and no
    # action has a mutable default, so one parser serves every main call.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        return int(exc.code or 0)
    try:
        args.threads = int(args.threads)
    except ValueError:
        args.threads = 0
    if args.threads < 1:
        print("error: --threads must be an integer >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
