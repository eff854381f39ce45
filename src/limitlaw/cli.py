"""Command-line entry point.

Four subcommands cover the toolkit: ``moments`` prints a generated moment
sequence, ``check`` runs the cross-identity comparisons, ``density`` runs the
inverse-Mellin reconstruction, and ``sample`` runs the seeded Monte Carlo
samplers.  Exit codes: 0 success / all checks pass, 1 a check or
reconstruction failed, 2 usage or parameter error.

Every run is a pure function of its flags and seed; CSV uses 17 significant
digits and JSON uses the shortest round-trip float representation, so
repeated invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .gammakit import log_gamma
from .identities import adjudicate_phi_convention, compare
from .mellin import (
    MellinInversionError,
    default_grid,
    invert,
    spec_from_fkp_quarter,
    spec_from_mittag_leffler,
)
from .moments import (
    BesselParams,
    MomentSequence,
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
from .montecarlo import (
    SplitKernel,
    sample_mittag_leffler,
    sample_positive_stable,
    sample_rayleigh,
    scale_free_ratio_check,
    simulate_tree_cost,
)

_TILT_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)
_TILT_BETAS = (0.25, 0.5, 1.0, 2.0)
_COROLLARY_A_PRIMES = (0.5, 0.75, 1.0, 1.5, 2.5)
_ML_ALPHAS = (0.25, 0.5, 0.75)
_PHI_A_PRIMES = (0.25, 0.5, 1.0, 2.0)

_DEFAULT_TOLS = {
    "tilt": 1e-12,
    "corollary": 1e-11,
    "mittag-leffler": 1e-12,
    "exp-functional": 1e-11,
    "phi-adjudicate": 1e-8,
    "t-independence": 1e-12,
}


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive value, got {text!r}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


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
        sp.add_argument(
            "--threads",
            type=int,
            default=None,
            help="internal parallelism (default 1, or LIMITLAW_THREADS)",
        )

    p_mom = sub.add_parser("moments", help="print a generated moment sequence")
    p_mom.add_argument(
        "--which",
        required=True,
        choices=("fkp", "local-time", "tilted", "exp-functional", "mittag-leffler"),
    )
    p_mom.add_argument("--a-prime", type=float, default=None)
    p_mom.add_argument("--alpha", type=float, default=None)
    p_mom.add_argument("--beta", type=float, default=None)
    p_mom.add_argument("--d", type=float, default=None)
    p_mom.add_argument("--p", type=float, default=None)
    p_mom.add_argument("--t", type=float, default=1.0)
    p_mom.add_argument("--smax", type=int, default=20)
    common(p_mom, "csv")
    p_mom.set_defaults(func=cmd_moments)

    p_chk = sub.add_parser("check", help="run identity cross-checks")
    p_chk.add_argument(
        "--identity",
        required=True,
        choices=(
            "tilt",
            "corollary",
            "mittag-leffler",
            "exp-functional",
            "phi-adjudicate",
            "t-independence",
        ),
    )
    p_chk.add_argument("--alpha", type=_float_list, default=None, help="comma-separated grid")
    p_chk.add_argument("--beta", type=_float_list, default=None, help="comma-separated grid")
    p_chk.add_argument("--a-prime", type=_float_list, default=None, help="comma-separated grid")
    p_chk.add_argument("--smax", type=int, default=20)
    p_chk.add_argument("--tol", type=_positive_float, default=None)
    common(p_chk, "json")
    p_chk.set_defaults(func=cmd_check)

    p_den = sub.add_parser("density", help="inverse-Mellin density reconstruction")
    p_den.add_argument("--spec", required=True, choices=("fkp-quarter", "mittag-leffler"))
    p_den.add_argument("--alpha", type=float, default=None)
    p_den.add_argument("--grid-min", type=_positive_float, default=None)
    p_den.add_argument("--grid-max", type=_positive_float, default=None)
    p_den.add_argument("--grid-points", type=int, default=1201)
    p_den.add_argument("--contour", type=_positive_float, default=0.5)
    p_den.add_argument("--height", type=_positive_float, default=None)
    p_den.add_argument("--step", type=_positive_float, default=0.04)
    common(p_den, "csv")
    p_den.set_defaults(func=cmd_density)

    p_smp = sub.add_parser("sample", help="seeded Monte Carlo samplers")
    p_smp.add_argument(
        "--sampler", required=True, choices=("rayleigh", "stable", "mittag-leffler", "tree")
    )
    p_smp.add_argument("--n", type=int, required=True)
    p_smp.add_argument("--reps", type=int, default=None, help="replicates for the tree sampler")
    p_smp.add_argument("--seed", type=int, default=0)
    p_smp.add_argument("--sigma", type=float, default=1.0)
    p_smp.add_argument("--alpha", type=float, default=None)
    p_smp.add_argument("--toll-exponent", type=float, default=0.0)
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


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_bessel(args, t: float) -> BesselParams:
    if args.alpha is not None and args.beta is not None:
        return BesselParams.from_alpha_beta(args.alpha, args.beta, t=t)
    if args.d is not None and args.p is not None:
        return BesselParams(d=args.d, p=args.p, t=t)
    if args.a_prime is not None:
        return BesselParams.from_alpha_beta(0.5, args.a_prime, t=t)
    raise ValueError("provide --alpha/--beta, --d/--p, or --a-prime")


def cmd_moments(args) -> int:
    which = args.which
    if which == "fkp":
        if args.a_prime is None:
            raise ValueError("--which fkp requires --a-prime")
        seq = fkp_moments(args.a_prime, args.smax)
    elif which == "local-time":
        seq = local_time_moments(_resolve_bessel(args, args.t), args.smax)
    elif which == "tilted":
        params = _resolve_bessel(args, 1.0)
        seq = tilted_moments(params.alpha, params.beta, args.smax)
    elif which == "exp-functional":
        seq = exp_functional_moments(_resolve_bessel(args, args.t), args.smax)
    else:  # mittag-leffler
        if args.alpha is None:
            raise ValueError("--which mittag-leffler requires --alpha")
        seq = mittag_leffler_moments(args.alpha, args.smax)

    if args.format == "csv":
        lines = []
        if args.manifest:
            lines.append("# manifest=" + json.dumps(_manifest(args)))
        lines.append(f"# label={seq.label}")
        lines.append("s,value")
        lines.extend(f"{s},{v:.17g}" for s, v in enumerate(seq.values))
        _emit(args, "\n".join(lines) + "\n")
    else:
        payload = seq.to_dict()
        payload["rows"] = [[s, float(v)] for s, v in enumerate(seq.values)]
        if args.manifest:
            payload["manifest"] = _manifest(args)
        _emit(args, json.dumps(payload) + "\n")
    return 0


def _ml_unit_scale_time(alpha: float) -> float:
    """Time at which the local-time scale factor equals 1 for p = 0."""
    return 0.5 * math.exp((log_gamma(1.0 - alpha) - log_gamma(1.0 + alpha)) / alpha)


def _identity_reports(identity, alphas, betas, a_primes, s_max, tol):
    reports = []
    if identity == "tilt":
        for alpha in alphas:
            for beta in betas:
                params = BesselParams.from_alpha_beta(alpha, beta)
                reports.append(
                    compare(
                        tilt(scaled_local_time_moments(params, s_max + 1)),
                        tilted_moments(alpha, beta, s_max),
                        tol,
                    )
                )
    elif identity == "corollary":
        for a_prime in a_primes:
            reports.append(
                compare(
                    fkp_moments(a_prime, s_max),
                    scale(tilted_moments(0.5, a_prime, s_max), 2.0**-0.5),
                    tol,
                )
            )
    elif identity == "mittag-leffler":
        for alpha in alphas:
            params = BesselParams.from_alpha_beta(alpha, alpha, t=_ml_unit_scale_time(alpha))
            reports.append(
                compare(
                    local_time_moments(params, s_max),
                    mittag_leffler_moments(alpha, s_max),
                    tol,
                )
            )
    elif identity == "exp-functional":
        for alpha in alphas:
            for beta in betas:
                params = BesselParams.from_alpha_beta(alpha, beta, t=1.0)
                reports.append(
                    compare(
                        exp_functional_moments(params, s_max),
                        scale(tilted_moments(alpha, beta, s_max), kappa(params)),
                        tol,
                    )
                )
    else:  # t-independence
        for alpha in alphas:
            for beta in betas:
                sides = []
                for t in (0.3, 7.0):
                    params = BesselParams.from_alpha_beta(alpha, beta, t=t)
                    raw = local_time_moments(params, s_max)
                    vals = raw.values / kappa(params) ** np.arange(s_max + 1)
                    vals[0] = 1.0
                    sides.append(
                        MomentSequence(
                            vals,
                            f"scaled-via-t={t:g}(alpha={alpha:g}, beta={beta:g})",
                            {"alpha": alpha, "beta": beta, "t": t},
                        )
                    )
                reports.append(compare(sides[0], sides[1], tol))
    return reports


def cmd_check(args) -> int:
    identity = args.identity
    tol = args.tol if args.tol is not None else _DEFAULT_TOLS[identity]
    alphas = args.alpha if args.alpha is not None else _TILT_ALPHAS
    betas = args.beta if args.beta is not None else _TILT_BETAS
    if identity == "mittag-leffler" and args.alpha is None:
        alphas = _ML_ALPHAS
    if args.a_prime is not None:
        a_primes = args.a_prime
    else:
        a_primes = _PHI_A_PRIMES if identity == "phi-adjudicate" else _COROLLARY_A_PRIMES

    if identity == "phi-adjudicate":
        results = [adjudicate_phi_convention(a, args.smax, tol) for a in a_primes]
        if args.format == "json":
            lines = [json.dumps(r.to_dict()) for r in results]
            if args.manifest:
                lines.insert(0, json.dumps({"manifest": _manifest(args)}))
        else:
            lines = []
            if args.manifest:
                lines.append("# manifest=" + json.dumps(_manifest(args)))
            lines.append("a_prime,convention,max_deviation,log10_slope,pass")
            for r in results:
                for conv, rep in r.reports.items():
                    slope = r.slopes[conv]
                    lines.append(
                        f"{r.a_prime:.17g},{conv},{rep.max_deviation:.17g},"
                        f"{'' if slope is None else format(slope, '.17g')},{rep.passed}"
                    )
        _emit(args, "\n".join(lines) + "\n")
        return 0  # diagnostic only, never a failure

    reports = _identity_reports(identity, alphas, betas, a_primes, args.smax, tol)
    if args.format == "json":
        lines = [json.dumps(r.to_dict()) for r in reports]
        if args.manifest:
            lines.insert(0, json.dumps({"manifest": _manifest(args)}))
    else:
        lines = []
        if args.manifest:
            lines.append("# manifest=" + json.dumps(_manifest(args)))
        lines.append("identity,label_a,label_b,max_deviation,tolerance,pass")
        lines.extend(
            f"{identity},{r.label_a},{r.label_b},{r.max_deviation:.17g},"
            f"{r.tolerance:.17g},{r.passed}"
            for r in reports
        )
    _emit(args, "\n".join(lines) + "\n")
    return 0 if all(r.passed for r in reports) else 1


def cmd_density(args) -> int:
    overrides = {"contour": args.contour, "step": args.step}
    if args.height is not None:
        overrides["height"] = args.height
    if args.spec == "fkp-quarter":
        spec = spec_from_fkp_quarter(**overrides)
    else:
        if args.alpha is None:
            raise ValueError("--spec mittag-leffler requires --alpha")
        spec = spec_from_mittag_leffler(args.alpha, **overrides)

    points = args.grid_points
    if (args.grid_min is None) != (args.grid_max is None):
        raise ValueError("--grid-min and --grid-max must be given together")
    if args.grid_min is not None:
        if args.grid_max <= args.grid_min:
            raise ValueError("--grid-max must exceed --grid-min")
        if points % 2 == 0:
            points += 1
        grid = np.exp(np.linspace(math.log(args.grid_min), math.log(args.grid_max), points))
    else:
        grid = default_grid(spec, points)

    table = invert(spec, grid, threads=args.threads)
    if args.format == "csv":
        text = table.to_csv()
        if args.manifest:
            text = "# manifest=" + json.dumps(_manifest(args)) + "\n" + text
    else:
        payload = table.to_dict()
        if args.manifest:
            payload["manifest"] = _manifest(args)
        text = json.dumps(payload) + "\n"
    _emit(args, text)
    return 0


def _parse_check_against(text: str) -> float:
    family, _, value = text.partition(":")
    if family != "fkp" or not value:
        raise ValueError(f"--check-against expects 'fkp:A', got {text!r}")
    return float(value)


def cmd_sample(args) -> int:
    sampler = args.sampler
    if sampler == "rayleigh":
        summary = sample_rayleigh(args.sigma, args.n, args.seed, args.smax, args.threads)
    elif sampler == "stable":
        if args.alpha is None:
            raise ValueError("--sampler stable requires --alpha")
        summary = sample_positive_stable(args.alpha, args.n, args.seed, args.smax, args.threads)
    elif sampler == "mittag-leffler":
        if args.alpha is None:
            raise ValueError("--sampler mittag-leffler requires --alpha")
        summary = sample_mittag_leffler(args.alpha, args.n, args.seed, args.smax, args.threads)
    else:  # tree
        kernel = (
            SplitKernel.from_csv(args.kernel_file)
            if args.kernel_file
            else SplitKernel.uniform()
        )
        reps = args.reps if args.reps is not None else 10000
        summary = simulate_tree_cost(
            kernel, args.toll_exponent, args.n, reps, args.seed, args.smax, args.threads
        )

    check_report = None
    if args.check_against is not None:
        check_report = scale_free_ratio_check(summary, _parse_check_against(args.check_against))

    if args.format == "json":
        payload = {"summary": summary.to_dict()}
        if check_report is not None:
            payload["check"] = check_report.to_dict()
        if args.manifest:
            payload["manifest"] = _manifest(args)
        _emit(args, json.dumps(payload) + "\n")
    else:
        lines = []
        if args.manifest:
            lines.append("# manifest=" + json.dumps(_manifest(args)))
        lines.append(f"# sampler={summary.sampler} n={summary.n} seed={summary.seed}")
        if check_report is not None:
            lines.append(
                f"# check={check_report.label_b} max_deviation="
                f"{check_report.max_deviation:.17g} pass={check_report.passed}"
            )
        lines.append("s,moment,standard_error")
        lines.extend(
            f"{s},{m:.17g},{se:.17g}"
            for s, (m, se) in enumerate(zip(summary.moments, summary.standard_errors))
        )
        _emit(args, "\n".join(lines) + "\n")

    if check_report is not None and not check_report.passed:
        return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        return int(exc.code or 0)
    if args.threads is None:
        text = os.environ.get("LIMITLAW_THREADS", "1")
        try:
            args.threads = int(text)
        except ValueError:
            print(f"error: LIMITLAW_THREADS must be an integer, got {text!r}", file=sys.stderr)
            return 2
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except MellinInversionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
