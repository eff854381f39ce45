"""End-to-end tests of the command-line interface: flags, output formats,
exit codes, and byte-level reproducibility."""

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mellin import grid_moments

from limitlaw import cli, mellin, moments, montecarlo
from limitlaw.cli import main

# P(K_n = k) proportional to k for n <= 30, with every k divisible by 3 left
# out (missing pairs) and the k = 1 entry split over two rows
SPARSE_KERNEL = str(Path(__file__).parent / "data" / "kernel-sparse-30.csv")
# P(K_n = 1) = 1/4 and P(K_n = n - 1) = 3/4 for n <= 200
PLATEAU_KERNEL = str(Path(__file__).parent / "data" / "kernel-plateau-200.csv")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_showing_warnings(argv):
    """main(argv) with stdout and stderr captured.  Each warning it raises is
    put on stderr as Python prints it by default, which pytest's own warning
    capture would otherwise hide."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    shown = "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught
    )
    return code, out.getvalue(), shown + err.getvalue()


def csv_rows(text):
    lines = [line for line in text.strip().split("\n") if not line.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestMomentsCommand:
    @pytest.mark.parametrize("smax", ["2", "9"])
    def test_overflowing_order_multiple_exits_2_with_one_line(self, smax):
        # k * a' overflows from k = 2 on: refused before numpy can warn
        code, out, err = run_cli_showing_warnings(
            ["moments", "--which", "fkp", "--a-prime", "1e308", "--smax", smax]
        )
        assert (code, out, err) == (
            2, "", f"error: a_prime * {smax} must be finite, got a_prime=1e+308\n"
        )

    def test_underflowing_moment_exits_2_naming_the_order(self):
        # log m_3 = -1036.3 is below the smallest subnormal's log, so m_3 is 0
        code, out, err = run_cli_showing_warnings(
            ["moments", "--which", "fkp", "--a-prime", "1e300", "--smax", "3"]
        )
        assert (code, out, err) == (
            2, "", "error: fkp(a'=1e+300): moment underflows double precision to 0 at order "
            "s=3 (log value -1036.3)\n"
        )

    # (alpha, beta) are computed at and printed as given, with no round trip
    # through (d, p) that turns 0.1 into 0.09999999999999998
    @pytest.mark.parametrize("which", ["tilted", "local-time", "exp-functional"])
    @pytest.mark.parametrize("alpha, beta", [("0.1", "0.25"), ("0.3", "2"), ("0.1", "2")])
    def test_alpha_and_beta_print_as_given(self, capsys, which, alpha, beta):
        code, out, _ = run_cli(
            capsys, "moments", "--which", which, "--alpha", alpha, "--beta", beta,
            "--smax", "3", "--format", "json",
        )
        assert code == 0
        params = json.loads(out)["params"]
        assert (params["alpha"], params["beta"]) == (float(alpha), float(beta))

    def test_fkp_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--which", "fkp", "--a-prime", "0.5", "--smax", "2"
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["s", "value"]
        table = {int(s): float(v) for s, v in rows}
        assert table[1] == pytest.approx(1.2533141373, abs=1e-9)
        assert table[2] == pytest.approx(2.0, rel=1e-12)

    def test_fkp_domain_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--which", "fkp", "--a-prime", "-1")
        assert code == 2
        assert "a_prime" in err

    def test_tilted_first_moment(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "moments", "--which", "tilted", "--alpha", "0.5", "--beta", "0.5", "--smax", "1",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[1][1]) == pytest.approx(1.7724538509, abs=1e-9)

    def test_local_time_via_d_p(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "moments", "--which", "local-time", "--d", "1.0", "--p", "0.0",
            "--t", "0.5", "--smax", "1",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[1][1]) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)

    def test_exp_functional_via_a_prime(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--which", "exp-functional", "--a-prime", "0.5", "--smax", "1"
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[1][1]) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-11)

    def test_missing_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--which", "tilted")
        assert code == 2
        assert "--alpha" in err or "a-prime" in err

    def test_exp_functional_rejects_non_unit_time(self, capsys):
        code, _, err = run_cli(
            capsys, "moments", "--which", "exp-functional", "--a-prime", "0.5", "--t", "2"
        )
        assert code == 2
        assert "t = 1" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "moments", "--which", "mittag-leffler", "--alpha", "0.5",
            "--smax", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][2] == [2, 2.0]

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "moments", "--which", "fkp", "--bogus", "1")
        assert code == 2

    # each family at parameters where numpy's exp and math.exp disagree on
    # some orders; exp-functional prints the tilt of the local-time moments
    @pytest.mark.parametrize(
        "which, flags",
        [
            ("fkp", ("--a-prime", "1.377")),
            ("local-time", ("--alpha", "0.3", "--beta", "1.4", "--t", "0.8")),
            ("tilted", ("--alpha", "0.62", "--beta", "0.9")),
            ("exp-functional", ("--alpha", "0.45", "--beta", "1.7")),
            ("mittag-leffler", ("--alpha", "0.71")),
        ],
        ids=["fkp", "local-time", "tilted", "exp-functional", "mittag-leffler"],
    )
    def test_each_printed_moment_is_math_exp_of_its_log(self, capsys, monkeypatch, which, flags):
        logs = []
        exp_sequence = moments._exp_sequence

        def recorded(values, label):
            logs.append(list(values))
            return exp_sequence(values, label)

        monkeypatch.setattr(moments, "_exp_sequence", recorded)
        code, out, _ = run_cli(capsys, "moments", "--which", which, *flags, "--smax", "40")
        assert code == 0
        printed = [float(value) for _, value in csv_rows(out)[1]]
        (log_values,) = logs
        want = list(map(math.exp, log_values))
        if which == "exp-functional":
            want = [m / want[0] for m in want[1:]]
        assert printed == [1.0, *want]

    def test_17_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "moments", "--which", "fkp", "--a-prime", "0.5", "--smax", "1")
        _, rows = csv_rows(out)
        value_text = rows[1][1]
        assert float(value_text) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-14)
        assert len(value_text.replace(".", "").lstrip("0")) >= 16


# The Bessel laws' parameter routes, each given in full, by flag
_ROUTE_VALUES = {"--alpha": "0.3", "--beta": "0.7", "--d": "1", "--p": "0.2", "--a-prime": "0.7"}
_ROUTES = ({"--alpha", "--beta"}, {"--d", "--p"}, {"--a-prime"})
_ROUTE_SETS = [
    flags for k in range(len(_ROUTE_VALUES) + 1)
    for flags in itertools.combinations(_ROUTE_VALUES, k)
]


class TestBesselRoutes:
    """``--which local-time|tilted|exp-functional`` take exactly one complete
    route of --alpha/--beta, --d/--p or --a-prime; no route, a half-given one
    or two at once exit 2 with one error line, where one used to win."""

    @pytest.mark.parametrize("which", ["local-time", "tilted", "exp-functional"])
    @pytest.mark.parametrize(
        "flags", [f for f in _ROUTE_SETS if set(f) not in _ROUTES], ids=" ".join
    )
    def test_anything_but_one_whole_route_exits_2(self, which, flags):
        argv = ["moments", "--which", which, "--smax", "3"]
        for flag in flags:
            argv += [flag, _ROUTE_VALUES[flag]]
        assert run_cli_showing_warnings(argv) == (
            2, "", "error: give exactly one of --alpha with --beta, --d with --p, or --a-prime\n"
        )

    @pytest.mark.parametrize("which", ["local-time", "tilted", "exp-functional"])
    @pytest.mark.parametrize(
        "flags, alpha, beta",
        [(("--alpha", "--beta"), 0.3, 0.7), (("--d", "--p"), 0.5, 0.5 / 0.6),
         (("--a-prime",), 0.5, 0.7)],
        ids=["alpha-beta", "d-p", "a-prime"],
    )
    def test_one_whole_route_runs(self, capsys, which, flags, alpha, beta):
        argv = ["moments", "--which", which, "--smax", "3", "--format", "json"]
        for flag in flags:
            argv += [flag, _ROUTE_VALUES[flag]]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        params = json.loads(out)["params"]
        assert (params["alpha"], params["beta"]) == (alpha, beta)


# The subcommand of each law selector, and the fewest flags a law runs with
# beyond its required ones: a Bessel route for the Bessel moments, and a
# small size for the rest (the tree's replicates too)
_SUBCOMMANDS = {"which": "moments", "spec": "density", "sampler": "sample"}
_REQUIRED_VALUES = {"a_prime": "0.5", "alpha": "0.5"}
_SIZE_FLAGS = {"which": ("--smax", "3"), "spec": ("--grid-points", "41"),
               "sampler": ("--n", "50")}
_LAW_USES = [
    (name, selector) for name, (*_, builders) in cli._LAWS.items() for selector in builders
]


def _law_argv(name, selector, flags):
    argv = [_SUBCOMMANDS[selector], f"--{selector}", name, *_SIZE_FLAGS[selector]]
    if selector == "which" and not cli._LAWS[name][0]:
        argv += ["--a-prime", "0.5"]  # a Bessel law's route
    if name == "tree":
        argv += ["--reps", "50"]
    for flag in flags:
        argv += [f"--{flag.replace('_', '-')}", _REQUIRED_VALUES[flag]]
    return argv


class TestLawTable:
    def test_selectors_offer_the_laws_in_order(self):
        assert cli._names("which") == (
            "fkp", "local-time", "tilted", "exp-functional", "mittag-leffler"
        )
        assert cli._names("spec") == ("fkp-quarter", "mittag-leffler")
        assert cli._names("sampler") == ("rayleigh", "mittag-leffler", "tree")
        subparsers = cli.build_parser()._subparsers._group_actions[0].choices
        for selector, subcommand in _SUBCOMMANDS.items():
            action = next(a for a in subparsers[subcommand]._actions if a.dest == selector)
            assert tuple(action.choices) == cli._names(selector)

    @pytest.mark.parametrize("name, selector", _LAW_USES, ids=str)
    def test_each_law_runs_with_its_minimal_flags(self, capsys, name, selector):
        required = cli._LAWS[name][0]
        code, out, err = run_cli(capsys, *_law_argv(name, selector, required))
        assert (code, err) == (0, "")
        assert out

    @pytest.mark.parametrize(
        "name, selector, flag",
        [(name, selector, flag) for name, selector in _LAW_USES for flag in cli._LAWS[name][0]],
        ids=str,
    )
    def test_each_required_flag_left_out_exits_2_naming_it(self, name, selector, flag):
        flags = [f for f in cli._LAWS[name][0] if f != flag]
        assert run_cli_showing_warnings(_law_argv(name, selector, flags)) == (
            2, "", f"error: --{selector} {name} requires --{flag.replace('_', '-')}\n"
        )


# The law flags of each subcommand, and the ones each law and each identity
# reads; any other is refused
_BESSEL = ("alpha", "beta", "d", "p", "a_prime")
_LAW_FLAGS = {"which": (*_BESSEL, "t"), "spec": ("alpha",),
              "sampler": ("alpha", "reps", "kernel_file", "sigma", "toll_exponent")}
_LAW_READS = {
    "fkp": ("a_prime",), "local-time": (*_BESSEL, "t"), "tilted": _BESSEL,
    "exp-functional": (*_BESSEL, "t"), "mittag-leffler": ("alpha",), "fkp-quarter": (),
    "rayleigh": ("sigma",), "tree": ("reps", "kernel_file", "toll_exponent"),
}
_IDENTITY_READS = {
    "tilt": ("alpha", "beta"), "corollary": ("a_prime",), "mittag-leffler": ("alpha",),
    "exp-functional": ("alpha", "beta"), "phi-adjudicate": ("a_prime",),
    "t-independence": ("alpha", "beta"),
}
_FLAG_VALUES = {"a_prime": "0.5", "alpha": "0.5", "beta": "0.5", "d": "1", "p": "0", "t": "2",
                "reps": "5", "kernel_file": "nope.csv", "sigma": "2", "toll_exponent": "3"}


class TestUnreadFlags:
    """A law flag that the named law or identity never reads exits 2 with one
    line, before any work, where it used to be ignored."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("moments", "--which", "fkp", "--a-prime", "0.5", "--alpha", "0.3", "--d", "1"),
             "--which fkp does not read --alpha"),
            (("sample", "--sampler", "rayleigh", "--n", "10", "--reps", "7",
              "--kernel-file", "nope.csv"),
             "--sampler rayleigh does not read --reps"),
            # flags with a default, once ignored by the laws that never read them
            (("moments", "--which", "tilted", "--alpha", "0.5", "--beta", "0.5", "--t", "2"),
             "--which tilted does not read --t"),
            (("sample", "--sampler", "rayleigh", "--n", "10", "--toll-exponent", "3"),
             "--sampler rayleigh does not read --toll-exponent"),
            (("sample", "--sampler", "tree", "--n", "10", "--sigma", "2"),
             "--sampler tree does not read --sigma"),
        ],
        ids=["moments-fkp", "sample-rayleigh", "moments-tilted-t", "sample-rayleigh-toll",
             "sample-tree-sigma"],
    )
    def test_found_argvs_exit_2(self, argv, message):
        assert run_cli_showing_warnings(list(argv)) == (2, "", f"error: {message}\n")

    # the law that reads a flag fills in its default, which the manifest
    # records; for any other law the flag stays None
    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (("moments", "--which", "local-time", "--a-prime", "0.5"), "t", 1.0),
            (("moments", "--which", "exp-functional", "--a-prime", "0.5"), "t", 1.0),
            (("moments", "--which", "tilted", "--a-prime", "0.5"), "t", None),
            (("moments", "--which", "local-time", "--a-prime", "0.5", "--t", "2"), "t", 2.0),
            (("sample", "--sampler", "rayleigh", "--n", "10"), "sigma", 1.0),
            (("sample", "--sampler", "rayleigh", "--n", "10"), "toll_exponent", None),
            (("sample", "--sampler", "tree", "--n", "10", "--reps", "5"), "toll_exponent", 0.0),
            (("sample", "--sampler", "tree", "--n", "10", "--reps", "5"), "sigma", None),
            (("sample", "--sampler", "mittag-leffler", "--alpha", "0.5", "--n", "10"), "sigma",
             None),
        ],
        ids=["local-time-t", "exp-functional-t", "tilted-t", "local-time-t-given",
             "rayleigh-sigma", "rayleigh-toll", "tree-toll", "tree-sigma", "mittag-leffler-sigma"],
    )
    def test_default_filled_only_for_the_law_that_reads_it(self, capsys, argv, key, value):
        code, out, err = run_cli(capsys, *argv, "--format", "json", "--manifest")
        assert (code, err) == (0, "")
        assert json.loads(out)["manifest"]["arguments"][key] == value

    @pytest.mark.parametrize(
        "name, selector, flag",
        [(name, selector, flag) for name, selector in _LAW_USES
         for flag in _LAW_FLAGS[selector] if flag not in _LAW_READS[name]],
        ids=str,
    )
    def test_each_unread_law_flag_exits_2(self, name, selector, flag):
        argv = _law_argv(name, selector, cli._LAWS[name][0])
        argv += [f"--{flag.replace('_', '-')}", _FLAG_VALUES[flag]]
        assert run_cli_showing_warnings(argv) == (
            2, "", f"error: --{selector} {name} does not read --{flag.replace('_', '-')}\n"
        )

    @pytest.mark.parametrize(
        "identity, flag",
        [(identity, flag) for identity, reads in _IDENTITY_READS.items()
         for flag in ("alpha", "beta", "a_prime") if flag not in reads],
        ids=str,
    )
    def test_each_unread_grid_flag_exits_2(self, identity, flag):
        argv = ["check", "--identity", identity, f"--{flag.replace('_', '-')}", "0.5"]
        assert run_cli_showing_warnings(argv) == (
            2, "", f"error: --identity {identity} does not read --{flag.replace('_', '-')}\n"
        )


class TestCheckCommand:
    @pytest.mark.parametrize(
        "identity",
        ["tilt", "corollary", "mittag-leffler", "exp-functional", "t-independence"],
    )
    def test_default_grids_pass(self, capsys, identity):
        code, out, _ = run_cli(capsys, "check", "--identity", identity)
        assert code == 0
        reports = [json.loads(line) for line in out.strip().split("\n")]
        assert all(r["pass"] for r in reports)

    def test_single_point_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--identity", "tilt", "--alpha", "0.3", "--beta", "2", "--smax", "20"
        )
        assert code == 0
        reports = [json.loads(line) for line in out.strip().split("\n")]
        assert len(reports) == 1

    def test_impossible_tolerance_exits_1(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "check", "--identity", "corollary", "--a-prime", "0.5", "--tol", "1e-30",
        )
        assert code == 1

    def test_exp_functional_failure_exits_1(self, capsys, monkeypatch):
        # a formula error in the local-time logs, growing with the order s,
        # reaches only the tilted side: the check reports it and exits 1
        original = moments._log_scaled_local_time
        monkeypatch.setattr(
            moments,
            "_log_scaled_local_time",
            lambda params, s_max: original(params, s_max) + 1e-9 * np.arange(2.0, s_max + 2.0),
        )
        code, out, err = run_cli(
            capsys, "check", "--identity", "exp-functional", "--alpha", "0.5", "--beta", "0.5"
        )
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["pass"] is False
        assert report["max_deviation"] > 1e-8

    def test_phi_adjudicate_always_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--identity", "phi-adjudicate")
        assert code == 0
        results = [json.loads(line) for line in out.strip().split("\n")]
        assert len(results) == 4  # default a' grid
        for result in results:
            assert set(result["reports"]) == {"paper", "half"}

    def test_phi_adjudicate_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--identity", "phi-adjudicate", "--format", "csv",
            "--a-prime", "0.5",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["a_prime", "convention", "max_deviation", "pass"]
        assert len(rows) == 2

    def test_bad_tolerance_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--identity", "tilt", "--tol", "-1")
        assert code == 2

    # labels such as "scale(tilted(alpha=0.5, beta=0.5), 0.707107)" contain
    # commas, so they must be quoted for every row to keep the header's width
    @pytest.mark.parametrize(
        "identity",
        ["tilt", "corollary", "mittag-leffler", "exp-functional", "phi-adjudicate",
         "t-independence"],
    )
    def test_csv_rows_match_header_width(self, capsys, identity):
        code, out, _ = run_cli(capsys, "check", "--identity", identity, "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(out.splitlines())
        assert rows
        assert all(len(row) == len(header) for row in rows)


class TestDensityCommand:
    def test_mittag_leffler_half_density_at_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "density", "--spec", "mittag-leffler", "--alpha", "0.5",
            "--grid-min", "0.5", "--grid-max", "2.0", "--grid-points", "9",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["x", "f", "truncation_estimate"]
        table = {float(r[0]): float(r[1]) for r in rows}
        assert table[1.0] == pytest.approx(math.exp(-0.25) / math.sqrt(math.pi), abs=1e-7)

    def test_integral_header_near_one(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--spec", "fkp-quarter")
        assert code == 0
        integral_line = next(l for l in out.split("\n") if "integral_raw=" in l)
        integral = float(integral_line.split("integral_raw=")[1].split()[0])
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_roundtrip_against_moments_command(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--spec", "fkp-quarter", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        table = mellin.DensityTable(
            x=np.array(payload["x"]),
            density=np.array(payload["f"]),
            truncation_estimate=np.array(payload["truncation_estimate"]),
            metadata=payload["metadata"],
        )
        got = grid_moments(table, 5)
        want = moments.fkp_moments(0.25, 5)
        rel = np.max(np.abs(np.subtract(got, want.values)) / want.values)
        assert rel <= 1e-4

    def test_insufficient_height_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "density", "--spec", "mittag-leffler", "--alpha", "0.5", "--height", "5",
        )
        assert code == 1
        assert "increase the truncation height" in err

    def test_missing_alpha_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "density", "--spec", "mittag-leffler")
        assert code == 2

    @pytest.mark.parametrize("grid_max", ["2", "1"])
    def test_grid_max_not_above_grid_min_exits_2(self, capsys, grid_max):
        code, out, err = run_cli(
            capsys,
            "density", "--spec", "mittag-leffler", "--alpha", "0.5",
            "--grid-min", "2", "--grid-max", grid_max,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: log grid needs 0 < x_min < x_max < inf, got x_min=2.0, " \
                      f"x_max={float(grid_max)!r}\n"

    @pytest.mark.parametrize("points", ["-4", "0", "3", "8"])
    @pytest.mark.parametrize("grid", [(), ("--grid-min", "0.5", "--grid-max", "2")])
    def test_fewer_than_9_grid_points_exit_2(self, capsys, grid, points):
        code, out, err = run_cli(
            capsys,
            "density", "--spec", "mittag-leffler", "--alpha", "0.5", *grid,
            "--grid-points", points,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: grid needs at least 9 points, got {points}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_x_min_power_exits_2_with_one_line(self, fmt):
        # 1e-300 ** -2 overflows: refused before the quadrature, where every
        # density came out NaN after five numpy warnings
        code, out, err = run_cli_showing_warnings(
            ["density", "--spec", "fkp-quarter", "--grid-min", "1e-300", "--grid-max", "1e-290",
             "--grid-points", "9", "--contour", "2", "--format", fmt]
        )
        assert (code, out, err) == (
            2, "", "error: x ** -contour overflows double precision at x_min=1e-300 with "
            "contour=2; raise x_min or lower the contour\n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_contour_sum_exits_1_with_one_line(self, fmt):
        # 0.001 ** -100 is finite, but times |M| along Re(s) = 100 it is not
        code, out, err = run_cli_showing_warnings(
            ["density", "--spec", "mittag-leffler", "--alpha", "0.5", "--contour", "100",
             "--grid-min", "1e-3", "--grid-max", "1", "--grid-points", "9", "--format", fmt]
        )
        assert (code, out, err) == (
            1, "", "error: mittag-leffler(0.5): the contour sum overflows double precision "
            "at x=0.001; lower the contour\n"
        )

    def test_far_grid_end_prints_strict_json_without_warning(self):
        # x ** -2 underflows to 0 above x = 1e154, where the density and its
        # roundoff floor are both 0 and realness is not certified (only x = 1
        # is), and 1e280 ** 10 overflows, leaving no upper tail
        code, out, err = run_cli_showing_warnings(
            ["density", "--spec", "fkp-quarter", "--grid-min", "1", "--grid-max", "1e280",
             "--grid-points", "9", "--contour", "2", "--format", "json"]
        )
        assert (code, err) == (0, "")
        metadata = json.loads(out, parse_constant=_reject_constant)["metadata"]
        assert metadata["upper_tail"] == 0.0
        assert metadata["realness_points"] == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_underflowing_tail_power_prints_the_capped_bound(self, fmt):
        # 1e-40 ** 10 underflows to 0, where m_10 / x_max ** 10 was inf; the
        # Markov bound prints capped at 1, and a capped bound is not coverage
        code, out, err = run_cli_showing_warnings(
            ["density", "--spec", "mittag-leffler", "--alpha", "0.5", "--grid-min", "1e-60",
             "--grid-max", "1e-40", "--grid-points", "9", "--contour", "0.1", "--format", fmt]
        )
        assert (code, err) == (0, "")
        if fmt == "json":
            metadata = json.loads(out, parse_constant=_reject_constant)["metadata"]
            assert metadata["upper_tail"] == 1.0
            assert not metadata["renormalized"]
            integral_raw = metadata["integral_raw"]
        else:
            assert "upper_tail=1\n" in out
            integral_raw = float(out.split("integral_raw=")[1].split("\n")[0])
        assert math.isfinite(integral_raw)

    def test_negative_excursion_exits_1(self, capsys):
        # x ** -2 is 1e18 at x_min, so the excursion is contour roundoff and
        # moves with the transform length; re-pinned from -8.656e+00 when the
        # chirp-z length became the smallest 5-smooth one
        code, out, err = run_cli(
            capsys,
            "density", "--spec", "fkp-quarter", "--contour", "2",
            "--grid-min", "1e-9", "--grid-max", "1", "--grid-points", "41",
        )
        assert code == 1
        assert out == ""
        assert err.startswith(
            "error: fkp-quarter: reconstruction has a negative excursion of -1.485e+01 "
        )
        assert err.endswith("(below -1e-8); tighten the quadrature\n")
        assert err.count("\n") == 1


class TestSampleCommand:
    @pytest.mark.parametrize(
        "argv, sizes",
        [(("--sampler", "tree", "--n", "30", "--reps", "2000"), "n=30 reps=2000"),
         (("--sampler", "rayleigh", "--n", "2000"), "n=2000")],
        ids=["tree", "rayleigh"],
    )
    def test_csv_names_tree_size_and_replicates_apart(self, capsys, argv, sizes):
        code, out, _ = run_cli(capsys, "sample", *argv, "--format", "csv")
        assert code == 0
        assert out.startswith(f"# sampler={argv[1]} {sizes} seed=0\n")

    @pytest.mark.parametrize(
        "argv, sizes",
        [(("--sampler", "tree", "--n", "30", "--reps", "2000"), {"n": 30, "reps": 2000}),
         (("--sampler", "rayleigh", "--n", "2000"), {"n": 2000})],
        ids=["tree", "rayleigh"],
    )
    def test_json_names_tree_size_and_replicates_apart(self, capsys, argv, sizes):
        code, out, _ = run_cli(capsys, "sample", *argv)
        assert code == 0
        summary = json.loads(out)["summary"]
        assert {key: summary.get(key) for key in ("n", "reps")} == {"reps": None, **sizes}

    def test_rayleigh_with_ratio_check(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--sampler", "rayleigh", "--sigma", "1", "--n", "200000",
            "--seed", "42", "--check-against", "fkp:0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["check"]["pass"] is True
        assert payload["summary"]["n"] == 200000

    def test_ratio_check_failure_exits_1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--sampler", "rayleigh", "--sigma", "1", "--n", "200000",
            "--seed", "42", "--check-against", "fkp:2.0",
        )
        assert code == 1
        assert json.loads(out)["check"]["pass"] is False

    def test_tree_single_node(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--sampler", "tree", "--n", "1", "--reps", "50", "--seed", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["moments"][1] == 1.0
        assert payload["summary"]["standard_errors"][1] == 0.0

    def test_byte_identical_reruns(self, capsys):
        args = (
            "sample", "--sampler", "mittag-leffler", "--alpha", "0.5",
            "--n", "50000", "--seed", "7",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_stable_sampler_is_rejected(self, capsys):
        # one-sided stable laws have no integer moments, so there is nothing
        # to summarise
        code, out, err = run_cli(
            capsys, "sample", "--sampler", "stable", "--alpha", "0.5", "--n", "100"
        )
        assert code == 2
        assert out == ""
        assert "invalid choice: 'stable'" in err

    def test_bad_check_against_syntax_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "sample", "--sampler", "rayleigh", "--n", "100", "--check-against", "weird",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--check-against", "bogus"), "--check-against expects 'fkp:A', got 'bogus'"),
            (("--check-against", "fkp:x"), "--check-against expects 'fkp:A', got 'fkp:x'"),
            (("--check-against", "fkp:-1"), "a_prime must be finite and positive, got -1.0"),
            (("--check-against", "fkp:inf"), "a_prime must be finite and positive, got inf"),
            (("--check-against", "fkp:1e308"), "a_prime * 3 must be finite, got a_prime=1e+308"),
            (("--check-against", "fkp:0.5", "--smax", "2"), "summary needs moments up to order 3"),
        ],
    )
    @pytest.mark.parametrize("sampler", ["rayleigh", "mittag-leffler", "tree"])
    def test_check_against_refused_before_any_draw(self, capsys, monkeypatch, sampler, flags,
                                                   message):
        def no_draws(*args, **kwargs):
            raise AssertionError("the sample was drawn before --check-against was checked")

        for name in ("sample_rayleigh", "sample_mittag_leffler", "simulate_tree_cost"):
            monkeypatch.setattr(montecarlo, name, no_draws)
        code, out, err = run_cli(
            capsys, "sample", "--sampler", sampler, "--alpha", "0.5", "--n", "100", *flags
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_alpha_outside_unit_interval_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "--sampler", "mittag-leffler", "--alpha", "1.5", "--n", "100"
        )
        assert (code, out, err) == (2, "", "error: alpha must lie in (0, 1), got 1.5\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("--sampler", "rayleigh", "--n", "10", "--seed", "-1"),
            ("--sampler", "mittag-leffler", "--alpha", "0.5", "--n", "10", "--seed", "-1"),
            ("--sampler", "tree", "--n", "10", "--reps", "5", "--seed", "-1"),
        ],
        ids=["rayleigh", "mittag-leffler", "tree"],
    )
    def test_negative_seed_refused_before_any_draw(self, monkeypatch, argv):
        # numpy's own refusal, "expected non-negative integer", named no flag
        def no_draws(*args, **kwargs):
            raise AssertionError("a chunk was drawn before the seed was checked")

        monkeypatch.setattr(montecarlo, "_chunk_rng", no_draws)
        assert run_cli_showing_warnings(["sample", *argv]) == (
            2, "", "error: seed must be an integer >= 0, got -1\n"
        )

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (("--sampler", "mittag-leffler", "--alpha", "0.5", "--n", "200000", "--smax", "8"),
             0),
            (("--sampler", "rayleigh", "--n", "200000", "--seed", "42",
              "--check-against", "fkp:2.0"), 1),
            (("--sampler", "rayleigh", "--sigma", "1e300", "--n", "200000"), 2),
            (("--sampler", "tree", "--n", "2", "--reps", "200000", "--toll-exponent", "400",
              "--smax", "2"), 2),
        ],
        ids=["exit-0", "exit-1", "exit-2", "tree-exit-2"],
    )
    def test_no_thread_outlives_a_sample(self, argv, exit_code):
        # the exact sums bin each block on a helper thread, which every exit
        # joins: 2**400 squared overflows, so the tree sample is refused
        before = threading.enumerate()
        code, _, _ = run_cli_showing_warnings(["sample", *argv])
        assert code == exit_code
        assert threading.enumerate() == before

    def test_kernel_file(self, capsys, tmp_path):
        path = tmp_path / "kernel.csv"
        path.write_text("n,k,probability\n2,1,1.0\n3,2,1.0\n4,3,1.0\n")
        code, out, _ = run_cli(
            capsys,
            "sample", "--sampler", "tree", "--n", "4", "--reps", "200",
            "--seed", "3", "--kernel-file", str(path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["moments"][1] == 4.0  # deterministic chain, a = 0

    def test_short_kernel_row_exits_2(self, capsys, tmp_path):
        path = tmp_path / "kernel.csv"
        path.write_text("n,k,probability\n2,1,1.0\n3,1\n")
        code, out, err = run_cli(
            capsys,
            "sample", "--sampler", "tree", "--n", "3", "--reps", "10",
            "--kernel-file", str(path),
        )
        assert code == 2
        assert out == ""
        assert err == "error: kernel row 3 '3,1': expected n,k,probability\n"

    @pytest.mark.parametrize(
        "text, error",
        [
            ("2,1,nan\n3,1,nan\n3,2,nan\n", "size 2: probabilities must be finite"),
            (
                "n,k,probability\n2,1,1.0\n3O,2,0.5\n3,1,0.5\n3,2,0.5\n",
                "kernel row 3 '3O,2,0.5': expected n,k,probability",
            ),
        ],
        ids=["non-finite", "stray-row"],
    )
    def test_bad_kernel_file_exits_2(self, capsys, tmp_path, text, error):
        path = tmp_path / "kernel.csv"
        path.write_text(text)
        code, out, err = run_cli(
            capsys,
            "sample", "--sampler", "tree", "--n", "3", "--reps", "10",
            "--kernel-file", str(path),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {error}\n"

    def test_unallocatable_kernel_exits_2(self, capsys, tmp_path):
        # A size of 1e17 needs a 711 PiB row, beyond any 64-bit address
        # space, so numpy refuses it without touching memory.
        path = tmp_path / "kernel.csv"
        path.write_text("100000000000000000,1,1.0\n")
        code, out, err = run_cli(
            capsys,
            "sample", "--sampler", "tree", "--n", "3", "--reps", "10",
            "--kernel-file", str(path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: Unable to allocate ")
        assert err.count("\n") == 1

    def test_kernel_field_only_python_parses_exits_2(self, capsys, tmp_path):
        path = tmp_path / "kernel.csv"
        path.write_text("n,k,probability\n2,1,1.0\n3,1,0.5\n3,2,1_0\n")
        code, out, err = run_cli(
            capsys,
            "sample", "--sampler", "tree", "--n", "3", "--reps", "10",
            "--kernel-file", str(path),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: could not convert string '1_0'")
        assert err.count("\n") == 1

    def test_compressed_kernel_name_exits_2_naming_the_suffix(self, capsys, tmp_path):
        path = tmp_path / "kernel.csv.gz"
        path.write_text("n,k,probability\n2,1,1.0\n3,1,0.5\n3,2,0.5\n")
        code, out, err = run_cli(
            capsys,
            "sample", "--sampler", "tree", "--n", "3", "--reps", "10",
            "--kernel-file", str(path),
        )
        assert (code, out) == (2, "")
        assert err == (f"error: kernel file '{path}' ends in .gz, which numpy reads as "
                       "compressed; kernel files are plain-text CSV\n")

    def test_missing_kernel_file_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "sample", "--sampler", "tree", "--n", "4", "--reps", "10",
            "--kernel-file", "/nonexistent/kernel.csv",
        )
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--sampler", "rayleigh", "--n", "1000", "--seed", "1",
            "--format", "csv",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["s", "moment", "standard_error"]
        assert len(rows) == 5

    def test_non_finite_summary_exits_2(self, capsys):
        # sigma = 1e100 draws reach ~1e100, so (X**2)**2 overflows
        code, out, err = run_cli(
            capsys,
            "sample", "--sampler", "rayleigh", "--sigma", "1e100", "--n", "1000", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: moment of order 2 is not finite")

    @pytest.mark.parametrize(
        "sigma, smax, order",
        [("1e20", "12", 8), ("1e40", "8", 4)],
        ids=["order-8", "order-4"],
    )
    def test_overflowing_square_names_its_order(self, sigma, smax, order):
        # X**16 overflows at sigma = 1e20 and X**8 at 1e40: the square sum of
        # order 8, or of order 4, is the first sum that is not finite, read
        # over a block edge; the same line as with x**s for every order
        code, out, err = run_cli_showing_warnings(
            ["sample", "--sampler", "rayleigh", "--sigma", sigma, "--n", "70000", "--smax", smax]
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: moment of order {order} is not finite: a value, its square or a sum "
            "overflows\n"
        )

    def test_underflowing_squares_name_their_order(self):
        # at sigma = 1e-40 the squares of orders 5-8 underflow to 0 while
        # their values do not, so n sum(x^2) falls below (sum x)^2 and no
        # standard error is left; orders 9-12, whose values underflow too,
        # would read an honest 0
        code, out, err = run_cli_showing_warnings(
            ["sample", "--sampler", "rayleigh", "--sigma", "1e-40", "--n", "70000",
             "--smax", "12", "--format", "csv"]
        )
        assert (code, out) == (2, "")
        assert err == "error: moment of order 5 has no standard error: its squares underflow\n"

    def test_tree_manifest_records_the_default_reps(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--sampler", "tree", "--n", "10", "--manifest", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["manifest"]["arguments"]["reps"] == payload["summary"]["reps"] == 10000

    @pytest.mark.parametrize(
        "argv",
        [
            ("--sampler", "rayleigh", "--n", "10", "--sigma", "1e308"),
            ("--sampler", "tree", "--n", "50", "--reps", "100", "--toll-exponent", "400"),
        ],
        ids=["rayleigh", "tree"],
    )
    def test_overflowing_draws_print_one_error_line(self, argv):
        # the draws overflow to inf; numpy must not warn before the error
        code, out, err = run_cli_showing_warnings(["sample", *argv])
        assert (code, out) == (2, "")
        assert err == (
            "error: moment of order 1 is not finite: a value, its square or a sum overflows\n"
        )

    def test_tiny_alpha_mittag_leffler_draws_stay_finite(self):
        # at alpha = 0.001 about half of the stable draws S overflow to inf or
        # underflow to 0; their L = exp(-alpha log S) stays finite and positive
        code, out, err = run_cli_showing_warnings(
            ["sample", "--sampler", "mittag-leffler", "--n", "1000", "--alpha", "0.001"]
        )
        assert (code, err) == (0, "")
        summary = json.loads(out)["summary"]
        exact = moments.mittag_leffler_moments(0.001, 2).values
        for s in (1, 2):
            assert abs(summary["moments"][s] - exact[s]) <= 3.0 * summary["standard_errors"][s]

    def test_zero_standard_error_check_is_strict_json(self, capsys):
        # n = 2 trees all cost 2, so the ratio standard errors are zero and the
        # deviations infinite; JSON carries them as null
        code, out, _ = run_cli(
            capsys,
            "sample", "--sampler", "tree", "--n", "2", "--reps", "50",
            "--check-against", "fkp:0.5", "--format", "json",
        )
        assert code == 1

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        check = json.loads(out, parse_constant=reject)["check"]
        assert check["per_s_deviations"] == [None, None]
        assert check["max_deviation"] is None
        assert check["pass"] is False

    # stdout digests recorded with the earlier math.fsum reductions: summation
    # is exact and correctly rounded, so a flipped last bit fails here.  All
    # were re-pinned when each squared standard error came to be rounded once
    # from the exact sums, and the tree ones when the JSON summary came to
    # name the tree size n and the replicates reps; all but the
    # tree-table-threads pair when each mean came to be rounded once; and
    # rayleigh-csv when even orders came to be squares of their halves
    # (CHANGES.md gives each change)
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("sample", "--sampler", "rayleigh", "--n", "200000", "--seed", "42",
                 "--check-against", "fkp:0.5"),
                "c6776ee0119bd175510312a2a5752a16273ece35dea8d96f48e036a19f11e812",
            ),
            (
                ("sample", "--sampler", "mittag-leffler", "--alpha", "0.5", "--n", "150000",
                 "--seed", "9", "--smax", "8", "--threads", "2"),
                "63a283cce30e1206e3fdb7825a1e12f62d8183608f45b5e7645defff8b894ee0",
            ),
            (
                ("sample", "--sampler", "tree", "--n", "1000", "--reps", "20000", "--seed", "5",
                 "--toll-exponent", "0.5"),
                "3b7658a5516da72bc0670acef22a4cb82e2509ffb41351d81645a3bd05bf50cf",
            ),
            (
                ("sample", "--sampler", "rayleigh", "--n", "65537", "--seed", "11", "--smax", "6",
                 "--format", "csv"),
                "f2acd83ee74dfe72fad6c4b5c729b02041066c65cab83d1f7cda5246962ce9fd",
            ),
            # recorded with the per-size CDF search that table draws replaced
            *(
                (
                    ("sample", "--sampler", "tree", "--n", "30", "--reps", "70000", "--seed", "8",
                     "--toll-exponent", "0.5", "--threads", threads,
                     "--kernel-file", SPARSE_KERNEL),
                    "178486b353007181ef08e91474e4f18a42a8910f5eecc393c71ffdaebc15136c",
                )
                for threads in ("1", "2")
            ),
            # recorded with the guide-table draws' full binary search; each row
            # puts all but one CDF entry in one wide guide bucket
            (
                ("sample", "--sampler", "tree", "--n", "200", "--reps", "70000", "--seed", "8",
                 "--toll-exponent", "0.5", "--kernel-file", PLATEAU_KERNEL),
                "c701038183be79444456642e9e288640bd6bf419d41423ca6e2784f086e800e0",
            ),
        ],
        ids=[
            "rayleigh-check", "mittag-leffler-threads", "tree", "rayleigh-csv",
            "tree-table-threads-1", "tree-table-threads-2", "tree-plateau-table",
        ],
    )
    def test_pinned_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPlumbing:
    # stdout digests recorded before the CLI's output code was unified; all
    # but sample-csv-check were re-pinned when the scipy log-gamma kernel was
    # replaced, and sample-csv-check when each squared standard error and
    # then each mean came to be rounded once; the phi-adjudicate and tilt
    # check digests when moments came to be exponentiated by math.exp and
    # the slopes fitted in closed form, and the phi-adjudicate ones again
    # when the slopes were dropped; and the two fkp manifests when --t came
    # to be recorded as null for a law that does not read it (CHANGES.md
    # gives the size of each change)
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("moments", "--which", "fkp", "--a-prime", "0.5", "--smax", "10"),
                "db8eb91b0fd3aeb7550fc30cf9a8d2647935899d81e24b663fedad1d38a1efc3",
            ),
            (
                ("moments", "--which", "fkp", "--a-prime", "0.5", "--smax", "10", "--manifest"),
                "6885e4d5e0932b43d8f418a85c6f738ee94a68158fa8b2ed408265342bbcc386",
            ),
            (
                ("moments", "--which", "fkp", "--a-prime", "0.5", "--smax", "10",
                 "--format", "json"),
                "fdb03939422786fa657ddcb3e7f30704328953931092ff1f901373180228f741",
            ),
            (
                ("moments", "--which", "fkp", "--a-prime", "0.5", "--smax", "10",
                 "--format", "json", "--manifest"),
                "705a3aac2d47923e988f234d0fe8d4e980494a60c413a61501bb011cc0a8686a",
            ),
            # README's other moments examples, one per --which family
            (
                ("moments", "--which", "local-time", "--d", "1", "--p", "0", "--t", "2",
                 "--smax", "10"),
                "f410ae0b35fa4bc12c1c2203eedcd140b0ee9176e6280e54614a57519d8f491b",
            ),
            (
                ("moments", "--which", "tilted", "--alpha", "0.5", "--beta", "0.5",
                 "--smax", "10"),
                "a7266f6cd0becbcd34a0aff0ec16f9fcca62069e1508fb293ac4809c124f7f61",
            ),
            (
                ("moments", "--which", "exp-functional", "--a-prime", "1.0", "--smax", "10"),
                "8f69aaa2b137a52c56c28ba18443e4edc21e21b0b246378e37ba419891b80e50",
            ),
            (
                ("moments", "--which", "mittag-leffler", "--alpha", "0.5", "--smax", "10"),
                "8dbb8a11efbbbee4db643660dc7b64178d3b1ce655489e84ecbe42b7250a645d",
            ),
            (
                ("check", "--identity", "phi-adjudicate", "--format", "csv"),
                "08cec39c73e937e304535ee587819aff5d63c384db8e07f48dd27624bae7519b",
            ),
            (
                ("check", "--identity", "phi-adjudicate"),
                "4420cde545ee612443dccf41a3d0233820476afaa309c1ef8632076732805250",
            ),
            # this and tilt-csv re-pinned when BesselParams came to hold
            # (alpha, beta) as given, and with tilt-csv-user-grid when the
            # Bessel formulas came to read 1 - 2p as alpha / beta
            (
                ("check", "--identity", "tilt", "--manifest"),
                "3ae1639a16661ea7786448f327ebdcc3ce8815e59b421a4ba963a8adccd0f334",
            ),
            (
                ("density", "--spec", "mittag-leffler", "--alpha", "0.5",
                 "--grid-min", "0.01", "--grid-max", "8", "--grid-points", "41"),
                "b9142637bb3e4d9a8d33bd4418705b6e643435f28a4c7911e7dde4436be9205c",
            ),
            (
                ("density", "--spec", "mittag-leffler", "--alpha", "0.5",
                 "--grid-min", "0.01", "--grid-max", "8", "--grid-points", "41",
                 "--format", "json"),
                "feef55145bf1e0271bf69550fc4db6149dd7c6498bdb105cdd6d55043919af0f",
            ),
            (
                ("sample", "--sampler", "rayleigh", "--n", "200000", "--seed", "42",
                 "--check-against", "fkp:0.5", "--format", "csv"),
                "6b74b83e7ccd07ce02b12baea530009600e0364856301b8997590a415a052c34",
            ),
            # recorded while csv.writer and DensityTable.to_csv were two CSV
            # writers: quoted labels, the manifest comment, a user grid's
            # order and the default density grid
            (
                ("check", "--identity", "tilt", "--format", "csv"),
                "93bb735575b3ff2be1dcd78b8f75352128e8ea25d5296f4c4a230bdb34a4fa52",
            ),
            (
                ("check", "--identity", "corollary", "--format", "csv", "--manifest"),
                "d818627a6be535a0efa22eef8bb30a351926d05fc77654e22ecd31b4d3b1e810",
            ),
            (
                ("check", "--identity", "tilt", "--alpha", "0.3,0.7", "--beta", "2",
                 "--format", "csv"),
                "58b0470e205012441e0b7bc2f5ee0590ed769e52b453c5b185aaa77e0918d7dc",
            ),
            # re-pinned when the chirp-z length became the smallest 5-smooth
            # one: the densities moved at roundoff (CHANGES.md gives the size)
            (
                ("density", "--spec", "fkp-quarter", "--grid-points", "601"),
                "8cae64aad4da6339be75f3f8712ea3bb17b6854902b23145231697eadf4790b2",
            ),
            # recorded while the CLI built its own user grid: an even
            # --grid-points is raised to the next odd count (41 rows here)
            (
                ("density", "--spec", "mittag-leffler", "--alpha", "0.5",
                 "--grid-min", "1e-6", "--grid-max", "20", "--grid-points", "40"),
                "56052c46d971518490d9010cce3049aef209d0152edb0fcd45e8bcefc00f5cb6",
            ),
        ],
        ids=[
            "moments-csv", "moments-csv-manifest", "moments-json", "moments-json-manifest",
            "moments-local-time-d-p", "moments-tilted", "moments-exp-functional",
            "moments-mittag-leffler", "phi-adjudicate-csv", "phi-adjudicate-json", "check-json-manifest",
            "density-csv", "density-json", "sample-csv-check",
            "tilt-csv", "corollary-csv-manifest", "tilt-csv-user-grid", "density-default-grid",
            "density-even-count-grid",
        ],
    )
    def test_pinned_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv",
        [
            ("moments", "--which", "fkp", "--a-prime", "0.5", "--format", "json", "--manifest"),
            ("check", "--identity", "corollary", "--format", "csv", "--manifest"),
            (
                "density", "--spec", "mittag-leffler", "--alpha", "0.5",
                "--grid-min", "0.01", "--grid-max", "8", "--grid-points", "41", "--manifest",
            ),
            ("sample", "--sampler", "rayleigh", "--n", "1000", "--seed", "1",
             "--check-against", "fkp:0.5"),
        ],
        ids=["moments", "check", "density", "sample"],
    )
    def test_output_file_matches_stdout(self, capsys, tmp_path, argv):
        _, out, _ = run_cli(capsys, *argv)
        path = tmp_path / "out"
        code, file_out, _ = run_cli(capsys, *argv, "--output", str(path))
        assert code == 0
        assert file_out == ""
        assert path.read_bytes() == out.encode()
    def test_manifest_in_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "moments", "--which", "fkp", "--a-prime", "1.0", "--format", "json", "--manifest",
        )
        assert code == 0
        manifest = json.loads(out)["manifest"]
        assert manifest["tool"] == "limitlaw"
        assert manifest["arguments"]["a_prime"] == 1.0
        assert "seed" not in manifest["arguments"] or manifest["arguments"]["seed"] is not None

    def test_manifest_in_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--which", "fkp", "--a-prime", "1.0", "--manifest"
        )
        assert code == 0
        assert out.startswith("# manifest=")

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys,
            "moments", "--which", "fkp", "--a-prime", "0.5", "--output", str(path),
        )
        assert code == 0
        assert out == ""
        assert "s,value" in path.read_text()

    _ENV_ARGV = (
        "moments", "--which", "fkp", "--a-prime", "0.5", "--format", "json", "--manifest",
    )

    def _assert_env_var_ignored(self, capsys, monkeypatch, value):
        # LIMITLAW_THREADS is not read: set to anything, the bytes (manifest
        # included) are those of a run without it
        monkeypatch.delenv("LIMITLAW_THREADS", raising=False)
        unset = run_cli(capsys, *self._ENV_ARGV)
        assert unset[0] == 0
        assert json.loads(unset[1])["manifest"]["arguments"]["threads"] == 1
        monkeypatch.setenv("LIMITLAW_THREADS", value)
        assert run_cli(capsys, *self._ENV_ARGV) == unset

    def test_threads_env_var(self, capsys, monkeypatch):
        self._assert_env_var_ignored(capsys, monkeypatch, "3")

    def test_non_integer_threads_env_var_is_ignored(self, capsys, monkeypatch):
        self._assert_env_var_ignored(capsys, monkeypatch, "x")

    def test_threads_flag_overrides_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("LIMITLAW_THREADS", "x")
        code, out, _ = run_cli(capsys, *self._ENV_ARGV, "--threads", "2")
        assert code == 0
        assert json.loads(out)["manifest"]["arguments"]["threads"] == 2

    def test_invalid_threads_exit_2(self, capsys):
        for value in ("0", "-1", "x", "1.5", ""):
            assert run_cli(
                capsys, "moments", "--which", "fkp", "--a-prime", "0.5", "--threads", value
            ) == (2, "", "error: --threads must be an integer >= 1\n")

    def test_threads_flag_changes_only_the_manifest(self, capsys):
        argv = ("sample", "--sampler", "rayleigh", "--n", "70000", "--seed", "3", "--manifest")
        _, one, _ = run_cli(capsys, *argv)
        code, three, _ = run_cli(capsys, *argv, "--threads", "3")
        assert code == 0
        assert one.replace('"threads": 1', '"threads": 3') == three != one

    def test_no_subcommand_exits_2(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert "limitlaw" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("moments", "--which", "fkp", "--a-prime", "0.75", "--smax", "12"),
            ("check", "--identity", "corollary", "--a-prime", "0.5,1.5"),
            ("check", "--identity", "phi-adjudicate", "--a-prime", "0.5"),
            (
                "density", "--spec", "mittag-leffler", "--alpha", "0.5",
                "--grid-min", "0.01", "--grid-max", "8", "--grid-points", "41",
            ),
        ],
        ids=["moments", "check", "phi-adjudicate", "density"],
    )
    def test_byte_identical_output_per_subcommand(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second and first != ""

    def test_runs_as_package_module(self):
        argv = ["moments", "--which", "fkp", "--a-prime", "0.5", "--smax", "3"]
        package = subprocess.run(
            [sys.executable, "-m", "limitlaw", *argv], capture_output=True, check=True
        )
        module = subprocess.run(
            [sys.executable, "-m", "limitlaw.cli", *argv], capture_output=True, check=True
        )
        assert package.stdout == module.stdout != b""

    def test_byte_identical_across_processes(self):
        argv = [
            sys.executable, "-m", "limitlaw.cli",
            "sample", "--sampler", "rayleigh", "--n", "20000", "--seed", "11",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout != b""

    def test_runtime_does_not_import_scipy(self):
        code = (
            "import sys\n"
            "import limitlaw.cli\n"
            "rc = limitlaw.cli.main(['moments', '--which', 'fkp', '--a-prime', '0.5'])\n"
            "assert rc == 0 and 'scipy' not in sys.modules, sorted(sys.modules)\n"
        )
        subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)

    def test_reused_parser_matches_a_fresh_one(self, capsys):
        # main builds its parser once per process; a usage error, --help and
        # a valid run in a row must print what a fresh parser prints
        argvs = [
            ("moments", "--which", "nope"),
            ("--help",),
            ("moments", "--which", "fkp", "--a-prime", "0.5", "--smax", "2"),
            ("check", "--help"),
            ("moments", "--which", "tilted", "--alpha", "0.5", "--beta", "0.5"),
        ]
        fresh = []
        for argv in argvs:
            cli._parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        builds = cli._parser.cache_info().misses
        assert [run_cli(capsys, *argv) for argv in argvs] == fresh
        assert cli._parser.cache_info().misses == builds
        assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 0]

    # a bad float flag is refused by argparse, naming the flag: the moments
    # run once met its nan in the manifest's json.dumps, the sampler once
    # reported an infinite sigma as a non-finite moment, and a grid or
    # positive flag once named its private parser in the message
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("moments", "--which", "fkp", "--a-prime", "0.5", "--alpha", "nan", "--manifest"),
             "argument --alpha: expected a finite value, got 'nan'"),
            (("sample", "--sampler", "rayleigh", "--sigma", "inf", "--n", "10"),
             "argument --sigma: expected a finite value, got 'inf'"),
            (("check", "--identity", "tilt", "--alpha", "0.3,nan"),
             "argument --alpha: expected a finite value, got 'nan'"),
            (("check", "--identity", "tilt", "--alpha", "0.3,x"),
             "argument --alpha: invalid float value: 'x'"),
            (("density", "--spec", "fkp-quarter", "--contour", "x"),
             "argument --contour: invalid float value: 'x'"),
            (("check", "--identity", "tilt", "--tol", "-1"),
             "argument --tol: value must be finite and positive, got -1.0"),
        ],
        ids=["moments-manifest", "sample-sigma", "check-grid", "check-grid-text", "positive-text",
             "positive-negative"],
    )
    def test_bad_float_flag_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {message}\n")


def render_csv(capsys, comments, header, columns, manifest=False):
    args = argparse.Namespace(format="csv", output=None, manifest=manifest)
    cli._write(args, lambda: (comments, header, columns), None)
    return capsys.readouterr().out


def csv_writer_reference(header, rows):
    """The CSV that csv.writer makes, floats to 17 significant digits first.
    Each row is written with a CRLF terminator, under which csv.writer quotes
    a field holding CR as well as LF on every supported Python, and the
    terminator is then replaced by LF.  Every row has two or more fields: a
    lone empty field is where csv.writer writes a quoted empty string."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    lines = []
    for row in [header, *rows]:
        buf.seek(0)
        buf.truncate()
        writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


class TestCsvRenderer:
    CELLS = [
        "a,b", 'say "hi"', "carriage\rreturn", "line\nfeed", "", None, True, False, 7,
        np.float64(0.1), math.inf, -math.inf, math.nan, -0.0, 5e-324, "plain",
    ]

    def test_cells_match_csv_writer(self, capsys):
        header = ("i", "cell, quoted", "tail")
        rows = [(i, cell, "x") for i, cell in enumerate(self.CELLS)]
        out = render_csv(capsys, [], header, list(zip(*rows)))
        assert out == csv_writer_reference(header, rows)

    def test_float_array_column_matches_list_column(self, capsys):
        values = np.array([0.1, 2.0 / 3.0, -0.0, 5e-324, 1e300, math.inf, math.nan])
        header = ("s", "value")
        as_array = render_csv(capsys, [], header, (range(values.size), values))
        as_list = render_csv(capsys, [], header, (range(values.size), values.tolist()))
        assert as_array == as_list
        assert as_array == csv_writer_reference(header, enumerate(values.tolist()))

    @pytest.mark.parametrize("columns", [[], ([], np.array([]))], ids=["none", "empty"])
    def test_table_without_rows_is_its_header(self, capsys, columns):
        assert render_csv(capsys, [], ("a", "b,c"), columns) == 'a,"b,c"\n'

    def test_comment_lines(self, capsys):
        comments = [[("label", "f(a, b)"), ("x", 0.1), ("gap", None)], [("pass", True)]]
        out = render_csv(capsys, comments, ("a", "b"), ([1], [2.5]), manifest=True)
        manifest, *rest = out.split("\n")
        assert manifest.startswith("# manifest={")
        assert rest == ["# label=f(a, b) x=0.10000000000000001 gap=", "# pass=True", "a,b",
                        "1,2.5", ""]


def _reject_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


# Per subcommand: (flag, values a valid run may take, values that break it,
# whether the flag is required).  An empty value list marks a flag without a
# value.  Sizes stay small so that each run is short: n and reps <= 2000,
# grid points <= 41, smax <= 12.
_SMAX = (("1", "3", "8", "12"), ("0", "-1", "x"))
_FRACTION = (("0.05", "0.3", "0.5", "0.95"), ("0", "1", "-0.5", "nan", "x"))
_POSITIVE = (("0.25", "0.5", "1", "2.5"), ("0", "-1", "1e308", "nan", "inf", "x"))
_GRAMMAR = {
    "moments": (
        ("--which", ("fkp", "local-time", "tilted", "exp-functional", "mittag-leffler"),
         ("nope",), True),
        ("--a-prime", *_POSITIVE, False), ("--alpha", *_FRACTION, False),
        ("--beta", *_POSITIVE, False), ("--d", ("1", "2", "3.5"), ("0", "-1", "nan"), False),
        ("--p", ("0", "0.25", "0.5"), ("1", "-1", "x"), False),
        ("--t", ("0.3", "1", "7"), ("0", "-1", "inf"), False),
        ("--smax", *_SMAX, False),
    ),
    "check": (
        ("--identity", ("tilt", "corollary", "mittag-leffler", "exp-functional",
                        "phi-adjudicate", "t-independence"), ("nope",), True),
        ("--alpha", ("0.5", "0.3,0.7"), ("0", "-1,0.5", "nan", "x,"), False),
        ("--beta", ("0.5", "0.25,2"), ("0", "-1", "nan"), False),
        ("--a-prime", ("0.5", "0.5,2.5"), ("0", "-1", "inf"), False),
        ("--smax", *_SMAX, False),
        ("--tol", ("1e-12", "1e-6", "1"), ("0", "-1", "inf", "nan"), False),
    ),
    "density": (
        ("--spec", ("fkp-quarter", "mittag-leffler"), ("exp",), True),
        ("--alpha", *_FRACTION, False),
        ("--grid-min", ("0.01", "0.5"), ("0", "-1", "9"), False),
        ("--grid-max", ("8", "50"), ("0", "0.001"), False),
        ("--grid-points", ("9", "10", "41"), ("2", "0", "-3"), False),
        ("--contour", ("0.25", "0.5", "2"), ("0", "-1", "nan"), False),
        ("--height", ("40", "80"), ("5", "0"), False),
        ("--step", ("0.04", "0.1", "0.8"), ("1.5", "0", "inf"), False),
    ),
    "sample": (
        ("--sampler", ("rayleigh", "mittag-leffler", "tree"), ("stable",), True),
        ("--n", ("1", "2", "30", "2000"), ("0", "-5", "x"), True),
        ("--reps", ("1", "50", "2000"), ("0", "x"), False),
        ("--seed", ("0", "7", "123456789"), ("-1", "x"), False),
        ("--sigma", *_POSITIVE, False), ("--alpha", *_FRACTION, False),
        ("--toll-exponent", ("0", "0.5", "1", "3"), ("50", "-1", "nan"), False),
        ("--kernel-file", (SPARSE_KERNEL,), (str(Path(SPARSE_KERNEL).parent / "none.csv"),),
         False),
        ("--smax", *_SMAX, False),
        ("--check-against", ("fkp:0.5", "fkp:2"), ("fkp:x", "fkp:", "s:1"), False),
    ),
}
_COMMON = (
    ("--format", ("csv", "json"), ("xml",), False),
    ("--manifest", (), (), False),
    ("--threads", ("1", "2"), ("0", "-1", "x"), False),
)


def _reject_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@st.composite
def _command_lines(draw):
    """A command line from the flag grammar, broken in at most one place: a
    flag dropped, or given a value that breaks it.  Returns the argv and the
    LIMITLAW_THREADS value (None for unset)."""
    subcommand = draw(st.sampled_from(sorted(_GRAMMAR)))
    grammar = _GRAMMAR[subcommand] + _COMMON
    chosen = [
        (flag, draw(st.sampled_from(valid)) if valid else None)
        for flag, valid, _bad, required in grammar
        if required or draw(st.booleans())
    ]
    if draw(st.booleans()):
        flag, _valid, bad, _required = draw(st.sampled_from(grammar))
        chosen = [(f, v) for f, v in chosen if f != flag]
        if bad:
            chosen.append((flag, draw(st.sampled_from(bad))))
    argv = [subcommand]
    for flag, value in draw(st.permutations(chosen)):
        argv += [flag] if value is None else [flag, value]
    env = draw(st.sampled_from((None, "1", "3", "0", "x")))
    return argv, env


class TestFuzz:
    @given(_command_lines())
    @settings(max_examples=60, deadline=None)
    def test_exit_contract(self, case):
        """Any command line from the flag grammar exits 0, 1 or 2 without a
        traceback, and every JSON output is strict.  Exit 2 prints nothing to
        stdout, and to stderr either argparse's usage block or one error line."""
        argv, env = case
        environ = {} if env is None else {"LIMITLAW_THREADS": env}
        with mock.patch.dict(os.environ, environ):
            if env is None:
                os.environ.pop("LIMITLAW_THREADS", None)
            code, out, err = run_cli_showing_warnings(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
            one_line = err.startswith("error: ") and err.count("\n") == 1
            assert one_line or err.startswith("usage: "), (argv, err)
        for line in out.splitlines():
            if line.startswith("# manifest="):
                line = line[len("# manifest="):]
            elif not line.startswith("{"):
                continue  # a CSV line
            json.loads(line, parse_constant=_reject_constant)
