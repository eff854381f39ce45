"""The benchmark's span tracer, ``perfbench/tracing.py``, against the package.

The tracer rebinds package names from outside (module functions, and
``SplitKernel.draw`` and the classmethod ``SplitKernel.from_csv``), so a
refactor that renames or reshapes one of them would break a traced benchmark
run unseen.  These run a traced table-kernel tree sample, and a moments and a
density run through the CLI's law table, instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

import limitlaw.cli
from limitlaw import mellin, montecarlo

REPO = Path(__file__).resolve().parent.parent
SPARSE_KERNEL = str(REPO / "tests" / "data" / "kernel-sparse-30.csv")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    yield importlib.import_module("tracing")
    sys.modules.pop("tracing", None)


def test_tracer_spans_a_table_kernel_run_and_restores_bindings(tracing, capsys):
    owners = (*tracing._MODULES, montecarlo.SplitKernel, mellin.DensityTable)
    before = [(owner, dict(vars(owner))) for owner in owners]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = limitlaw.cli.main([
            "sample", "--sampler", "tree", "--n", "30", "--reps", "200", "--seed", "3",
            "--toll-exponent", "0.5", "--kernel-file", SPARSE_KERNEL,
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    assert capsys.readouterr().err == ""
    calls, _self_s, counts = tracing.layer_totals(tracer.spans)
    assert calls["montecarlo.SplitKernel.from_csv"] == 1
    assert calls["montecarlo.SplitKernel.draw"] >= 1
    assert calls["montecarlo._run_chunks"] == 1
    assert counts["montecarlo._run_chunks"] == {"draws": 200, "chunks": 1}
    for owner, bindings in before:
        now = vars(owner)
        assert all(now[attr] is value for attr, value in bindings.items()), owner


@pytest.mark.parametrize(
    "argv, name",
    [
        (["moments", "--which", "fkp", "--a-prime", "0.5", "--smax", "4"], "moments.fkp_moments"),
        (["density", "--spec", "mittag-leffler", "--alpha", "0.5", "--grid-points", "41"],
         "mellin.invert"),
    ],
    ids=["moments", "density"],
)
def test_tracer_sees_the_calls_the_law_table_makes(tracing, capsys, argv, name):
    # the CLI's law table looks its functions up when it runs, so the
    # tracer's rebound names are the ones it calls
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = limitlaw.cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert capsys.readouterr().err == ""
    calls, _self_s, _counts = tracing.layer_totals(tracer.spans)
    assert calls[name] == 1
