"""End-to-end tests of the command-line interface: flags, output formats,
exit codes, and byte-level reproducibility."""

import hashlib
import json
import math
import subprocess
import sys

import pytest

from limitlaw.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [line for line in text.strip().split("\n") if not line.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestMomentsCommand:
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

    def test_17_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "moments", "--which", "fkp", "--a-prime", "0.5", "--smax", "1")
        _, rows = csv_rows(out)
        value_text = rows[1][1]
        assert float(value_text) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-14)
        assert len(value_text.replace(".", "").lstrip("0")) >= 16


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
        assert header == ["a_prime", "convention", "max_deviation", "log10_slope", "pass"]
        assert len(rows) == 2

    def test_bad_tolerance_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--identity", "tilt", "--tol", "-1")
        assert code == 2


class TestDensityCommand:
    def test_mittag_leffler_half_density_at_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "density", "--spec", "mittag-leffler", "--alpha", "0.5",
            "--grid-min", "0.5", "--grid-max", "2.0", "--grid-points", "5",
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
        import numpy as np

        from limitlaw import DensityTable, fkp_moments, roundtrip_moments

        table = DensityTable(
            x=np.array(payload["x"]),
            density=np.array(payload["f"]),
            truncation_estimate=np.array(payload["truncation_estimate"]),
            interpolation=payload["interpolation"],
            metadata=payload["metadata"],
        )
        got = roundtrip_moments(table, 5)
        want = fkp_moments(0.25, 5)
        rel = np.max(np.abs(got.values - want.values) / want.values)
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


class TestSampleCommand:
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

    def test_stable_requires_alpha(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--sampler", "stable", "--n", "100")
        assert code == 2

    def test_bad_check_against_syntax_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "sample", "--sampler", "rayleigh", "--n", "100", "--check-against", "weird",
        )
        assert code == 2

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
        # alpha = 0.1 stable draws reach ~1e60, so (S**3)**2 overflows
        code, out, err = run_cli(
            capsys,
            "sample", "--sampler", "stable", "--alpha", "0.1", "--n", "100000", "--seed", "7",
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: moment of order 3 is not finite")

    # stdout digests recorded with the earlier math.fsum reductions: summation
    # is exact and correctly rounded, so a flipped last bit fails here
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("sample", "--sampler", "rayleigh", "--n", "200000", "--seed", "42",
                 "--check-against", "fkp:0.5"),
                "9f285bfb0195d429c3950951062ab72772ba3502da92b42bdf4495390a94b4f6",
            ),
            (
                ("sample", "--sampler", "mittag-leffler", "--alpha", "0.5", "--n", "150000",
                 "--seed", "9", "--smax", "8", "--threads", "2"),
                "787ae9cf939f852bb8948e56b3ee2a27e9b90dea81df3398c72a99434ef29418",
            ),
            (
                ("sample", "--sampler", "tree", "--n", "1000", "--reps", "20000", "--seed", "5",
                 "--toll-exponent", "0.5"),
                "102a6b8cd6bf86ffb0243612e537d3b0b62d70be5fa14cc333ebb5e55ead5607",
            ),
            (
                ("sample", "--sampler", "rayleigh", "--n", "65537", "--seed", "11", "--smax", "6",
                 "--format", "csv"),
                "b9e162b25c93de994ead86d697e10152959315a386d5980580c6899292015a3f",
            ),
        ],
        ids=["rayleigh-check", "mittag-leffler-threads", "tree", "rayleigh-csv"],
    )
    def test_pinned_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPlumbing:
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

    def test_threads_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("LIMITLAW_THREADS", "3")
        code, out, _ = run_cli(
            capsys,
            "moments", "--which", "fkp", "--a-prime", "0.5", "--format", "json", "--manifest",
        )
        assert code == 0
        assert json.loads(out)["manifest"]["arguments"]["threads"] == 3

    def test_non_integer_threads_env_var_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("LIMITLAW_THREADS", "x")
        code, out, err = run_cli(capsys, "moments", "--which", "fkp", "--a-prime", "0.5")
        assert code == 2
        assert out == ""
        assert err == "error: LIMITLAW_THREADS must be an integer, got 'x'\n"

    def test_threads_flag_overrides_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("LIMITLAW_THREADS", "x")
        code, _, _ = run_cli(
            capsys, "moments", "--which", "fkp", "--a-prime", "0.5", "--threads", "2"
        )
        assert code == 0

    def test_invalid_threads_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "moments", "--which", "fkp", "--a-prime", "0.5", "--threads", "0"
        )
        assert code == 2

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

    def test_byte_identical_across_processes(self):
        argv = [
            sys.executable, "-m", "limitlaw.cli",
            "sample", "--sampler", "rayleigh", "--n", "20000", "--seed", "11",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout != b""
