"""The benchmark's output checks, ``perfbench/oracles.py``, against the CLI.

A benchmark op fails when its oracle cannot read the output or finds it
wrong, so a change to an output format that the oracles read would first
show as failed ops in a benchmark run.  These hand the output of every
``check`` identity, in CSV and in JSON, to the oracle instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

from limitlaw import cli

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def oracles(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    yield importlib.import_module("oracles")
    sys.modules.pop("oracles", None)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("identity", list(cli._IDENTITIES))
def test_check_output_passes_the_benchmark_oracle(oracles, capsys, identity, fmt):
    code = cli.main(["check", "--identity", identity, "--format", fmt])
    assert oracles.check_identity(code, capsys.readouterr().out, identity, fmt) is None


@pytest.mark.parametrize(
    "fmt, passed, failed",
    [("csv", ",True\n", ",False\n"), ("json", '"pass": true', '"pass": false')],
    ids=["csv", "json"],
)
def test_benchmark_oracle_refuses_a_failing_report(oracles, capsys, fmt, passed, failed):
    # the oracle reads the verdicts that the test above relies on
    assert cli.main(["check", "--identity", "corollary", "--format", fmt]) == 0
    out = capsys.readouterr().out
    message = f"1 of {out.count(passed)} reports fail"
    assert oracles.check_identity(0, out.replace(passed, failed, 1), "corollary", fmt) == message
