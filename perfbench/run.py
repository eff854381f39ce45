"""limitlaw benchmark: seeded, closed-loop CLI workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload density-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client process runs one op at a time: each op is a ``limitlaw`` command
line passed to ``limitlaw.cli.main(argv)`` in-process with stdout captured,
then checked by the independent oracles in ``oracles.py`` and by the
determinism gate (same bytes on every repeat of an argv, and between its
``--threads 1`` and ``--threads 2`` variants).  The untimed ``--threads``
twins run once before timing; the timed ops are repeated in passes until
``--seconds`` is spent.  Every time reported is built from each
op's best (lowest) time over the passes, because interference from other
processes on a shared machine only ever adds time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with the wrappers of ``tracing.py`` installed, and
prints the per-layer metrics.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(machine, library versions, op-list digest, per-argv output digests) is
written to ``.bench_build/limitlaw/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import random
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread.  numpy's OpenBLAS pool spin-waits beside the program's own
# --threads workers: on 2 cores it doubled the CPU time of a density op, made
# --threads 2 slower than --threads 1, and made timings follow the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from workloads import WORKLOADS  # noqa: E402

WORKDIR = Path(".bench_build") / "limitlaw"
COLD_STARTS = 7
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150


_BOOT = (
    "import sys; sys.path.insert(0, 'src'); import limitlaw.cli as cli; "
    "sys.exit(cli.main(sys.argv[1:]))"
)
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import {module}; print(repr(time.perf_counter() - t))"
)


class Gate:
    """Checks every op's output and counts failures.

    An op fails on a wrong exit code, unparsable or non-strict output, a
    failed oracle check, or stdout bytes that differ from an earlier run of
    the same argv or of its other ``--threads`` variant.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[tuple, str] = {}
        self._twins: dict[tuple, str] = {}

    def record(self, op, rc: int, text: str, where: str) -> None:
        self.attempted += 1
        try:
            reason = op.check(rc, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"unparsable output ({type(exc).__name__}: {exc})"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if reason is None and self.digests.setdefault(op.argv, digest) != digest:
            reason = "stdout differs from an earlier run of the same argv"
        if reason is None and self._twins.setdefault(op.threads_free, digest) != digest:
            reason = "stdout differs between the --threads 1 and --threads 2 runs"
        if reason is not None:
            self.failures.append(f"{where}: {shlex.join(op.argv)}: {reason}")


def run_op(op):
    """Run one op in-process: (exit code, stdout, wall s, cpu s)."""
    import limitlaw.cli

    out, err = io.StringIO(), io.StringIO()
    cpu0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = limitlaw.cli.main(list(op.argv))
        except Exception as exc:  # a traceback is an op failure, not a crash
            print(f"uncaught {type(exc).__name__}: {exc}")
            rc = -1
    t1, cpu1 = time.perf_counter(), time.process_time()
    return rc, out.getvalue(), t1 - t0, cpu1 - cpu0


def run_passes(ops, gate: Gate, seconds: float, label: str, tracer=None):
    """Repeat the op list until ``seconds`` would be exceeded by one more
    pass (at least once).  Returns, per pass, the wall and CPU seconds of
    every op and the stdout bytes written."""
    walls, cpus, out_bytes = [], [], []
    start = time.perf_counter()
    while not walls or (
        time.perf_counter() - start + statistics.median(map(sum, walls)) <= seconds
    ):
        wall, cpu = [], []
        written = 0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = f"{len(walls)}.{i}"
            rc, text, dt, dc = run_op(op)
            gate.record(op, rc, text, f"{label} pass {len(walls)}")
            wall.append(dt)
            cpu.append(dc)
            written += len(text.encode("utf-8"))
        walls.append(wall)
        cpus.append(cpu)
        out_bytes.append(written)
    return walls, cpus, out_bytes


def best_of(passes) -> list[float]:
    """Each op's lowest time over the passes."""
    return [min(times) for times in zip(*passes)]


def cold_start(op, gate: Gate) -> float:
    """A fresh interpreter imports limitlaw.cli and runs ``op``; wall seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _BOOT, *op.argv],
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    gate.record(op, proc.returncode, proc.stdout.decode("utf-8"), "cold start")
    return elapsed


def import_seconds(module: str) -> float:
    """Median time to import ``module`` in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE.format(module=module)],
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def percentile(values, q: int) -> float:
    """Percentile by linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = q / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


# ------------------------------------------------------------ run record


def _git_commit() -> str | None:
    """HEAD of a git checkout in the current directory, read without git."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _tree_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def op_list_digest(ops) -> str:
    """Digest of every argv and of every generated file an argv names."""
    h = hashlib.sha256()
    files = set()
    for op in ops:
        h.update((shlex.join(op.argv) + ("\n" if op.timed else " # untimed\n")).encode())
        if "--kernel-file" in op.argv:
            files.add(Path(op.argv[op.argv.index("--kernel-file") + 1]))
    for path in sorted(files):
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args, ops) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_list_sha256": op_list_digest(ops),
        "ops_per_pass": sum(op.timed for op in ops),
        "git_commit": _git_commit(),
        "source_sha256": _tree_digest(Path("src").rglob("*.py")),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


# ------------------------------------------------------------ metrics


def per_layer_metrics(spans, passes, ops_per_pass, out_bytes, overhead_s, imports):
    """Per-layer metrics for one pass over the op list (totals divided by the
    number of traced passes; counts repeat exactly from pass to pass)."""
    from tracing import layer_totals, parent_names

    calls, self_s, counts = layer_totals(spans)
    parents = parent_names(spans)

    def n(name):
        return calls.get(name, 0) / passes

    def ms(*names):
        return sum(self_s.get(x, 0.0) for x in names) * 1e3 / passes

    def count(name, key):
        return counts[name][key] / passes if name in counts else 0.0

    def rate(work, seconds):
        return work / seconds if seconds > 0.0 else 0.0

    moment_spans = [x for x in calls if x.startswith("moments.")]
    sequences = sum(count(x, "sequences") for x in moment_spans)
    tree_chunks = sum(
        extra["chunks"]
        for span_id, name, _s, _e, _p, _op, extra in spans
        if name == "montecarlo._run_chunks"
        and parents[span_id] == "montecarlo.tree_cost_samples"
    ) / passes
    draw_calls = n("montecarlo.SplitKernel.draw")
    values = count("montecarlo.summarize", "values")
    evals = count("mellin.invert", "kernel_evals")
    g = "gammakit."
    return {
        "import.limitlaw_s": (imports["limitlaw.cli"], "s"),
        "import.scipy_special_s": (imports["scipy.special"], "s"),
        "cli.main.calls": (n("cli.main"), "count"),
        "cli.main.self_ms": (ms("cli.main"), "ms"),
        "cli.output_bytes": (statistics.median(out_bytes), "bytes"),
        "mellin.invert.calls": (n("mellin.invert"), "count"),
        "mellin.invert.self_ms": (ms("mellin.invert"), "ms"),
        "mellin.grid_points": (count("mellin.invert", "grid_points"), "count"),
        "mellin.contour_nodes": (count("mellin.invert", "contour_nodes"), "count"),
        "mellin.kernel_evals": (evals, "count"),
        "mellin.kernel_evals_per_s": (rate(evals, ms("mellin.invert") / 1e3), "1/s"),
        "mellin.default_grid.self_ms": (ms("mellin.default_grid"), "ms"),
        "mellin.DensityTable.to_csv.self_ms": (ms("mellin.DensityTable.to_csv"), "ms"),
        g + "log_gamma_complex.calls": (n(g + "log_gamma_complex"), "count"),
        g + "log_gamma_complex.points": (count(g + "log_gamma_complex", "points"), "count"),
        g + "log_gamma_complex.self_ms": (ms(g + "log_gamma_complex"), "ms"),
        g + "log_gamma_array.calls": (n(g + "log_gamma_array"), "count"),
        g + "log_gamma_array.points": (count(g + "log_gamma_array", "points"), "count"),
        g + "log_gamma_array.self_ms": (ms(g + "log_gamma_array"), "ms"),
        g + "log_gamma.calls": (n(g + "log_gamma"), "count"),
        g + "log_gamma.self_ms": (ms(g + "log_gamma"), "ms"),
        "moments.sequences": (sequences, "count"),
        "moments.self_ms": (ms(*moment_spans), "ms"),
        "moments.sequences_per_op": (sequences / ops_per_pass, "1/op"),
        "identities.compare.calls": (n("identities.compare"), "count"),
        "identities.compare.self_ms": (ms("identities.compare"), "ms"),
        "identities.adjudicate_phi_convention.self_ms": (
            ms("identities.adjudicate_phi_convention"), "ms"),
        "montecarlo.summarize.calls": (n("montecarlo.summarize"), "count"),
        "montecarlo.summarize.self_ms": (ms("montecarlo.summarize"), "ms"),
        "montecarlo.summarize.values": (values, "count"),
        "montecarlo.summarize.values_per_s": (
            rate(values, ms("montecarlo.summarize") / 1e3), "1/s"),
        "montecarlo.rayleigh_samples.self_ms": (ms("montecarlo.rayleigh_samples"), "ms"),
        "montecarlo.positive_stable_samples.self_ms": (
            ms("montecarlo.positive_stable_samples"), "ms"),
        "montecarlo.draws": (count("montecarlo._run_chunks", "draws"), "count"),
        "montecarlo.chunks": (count("montecarlo._run_chunks", "chunks"), "count"),
        "montecarlo.tree_cost_samples.self_ms": (ms("montecarlo.tree_cost_samples"), "ms"),
        "montecarlo.SplitKernel.draw.calls": (draw_calls, "count"),
        "montecarlo.SplitKernel.draw.self_ms": (ms("montecarlo.SplitKernel.draw"), "ms"),
        "montecarlo.SplitKernel.draw.calls_per_chunk": (
            draw_calls / tree_chunks if tree_chunks else 0.0, "calls/chunk"),
        "montecarlo.SplitKernel.from_csv.self_ms": (ms("montecarlo.SplitKernel.from_csv"), "ms"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def check_declared(metrics: dict, trace: int) -> str | None:
    """The metric names printed must be those BENCHMARK.json declares."""
    path = Path("BENCHMARK.json")
    if not path.is_file():
        return None
    declared = json.loads(path.read_text())["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    printed = {name: unit for name, (_value, unit) in metrics.items()}
    if printed != expected:
        return f"printed metrics {sorted(printed.items())} differ from BENCHMARK.json"
    return None


# ------------------------------------------------------------ entry points


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    WORKDIR.mkdir(parents=True, exist_ok=True)
    results = WORKDIR / "results"
    results.mkdir(exist_ok=True)
    all_ops = workload.build(random.Random(args.seed), WORKDIR)
    record = run_record(args, all_ops)
    ops = [op for op in all_ops if op.timed]
    gate = Gate()

    setup = []
    if not args.trace:
        # Every single-threaded op, timed or twin, once in a fresh interpreter,
        # untimed: feeds the gate and peak_rss_mb, compiles bytecode and warms
        # the file cache.  With two threads the peak depends on how the
        # threads' allocations happen to overlap.  A child's peak counts the
        # pages of this process when it forks, so it is read before this
        # process has run an op.
        for op in all_ops:
            if op.threads == 1:
                cold_start(op, gate)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    # Untimed: the first op warms lazily built state; the twins feed the gate.
    for op in [ops[0]] + [op for op in all_ops if not op.timed]:
        rc, text, _dt, _dc = run_op(op)
        gate.record(op, rc, text, "warm-up")

    if args.trace:
        from tracing import Tracer

        half = args.seconds / 2.0
        plain_walls, _, _ = run_passes(ops, gate, half, "untraced")
        tracer = Tracer()
        tracer.install()
        try:
            walls, _, out_bytes = run_passes(ops, gate, half, "traced", tracer)
        finally:
            tracer.uninstall()
        imports = {m: import_seconds(m) for m in ("limitlaw.cli", "scipy.special")}
        traced_s, plain_s = sum(best_of(walls)), sum(best_of(plain_walls))
        metrics = per_layer_metrics(
            tracer.spans, len(walls), len(ops), out_bytes, traced_s - plain_s, imports
        )
        notes = [
            f"{len(walls)} traced passes (sum of best op times {traced_s:.4g} s) and "
            f"{len(plain_walls)} untraced ({plain_s:.4g} s) of {len(ops)} ops"
        ]
        with open(results / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "op", "counts"), span))) + "\n")
    else:
        # The cold starts behind setup_s are spread over the run, one before
        # each equal share of the passes: on a shared machine the speed a
        # process gets drifts over seconds, and a median of back-to-back cold
        # starts took on whichever speed held at that moment.
        walls, cpus = [], []
        spent = 0.0
        for share in range(1, COLD_STARTS + 1):
            setup.append(cold_start(ops[0], gate))
            t0 = time.perf_counter()
            more_walls, more_cpus, _ = run_passes(
                ops, gate, args.seconds * share / COLD_STARTS - spent, "measured"
            )
            spent += time.perf_counter() - t0
            walls += more_walls
            cpus += more_cpus
        best = best_of(walls)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(best), "s"),
            "cpu_s": (sum(best_of(cpus)), "s"),
            "op_p50_ms": (percentile(best, 50) * 1e3, "ms"),
            "op_p90_ms": (percentile(best, 90) * 1e3, "ms"),
            # The largest peak of the fresh interpreters, each of which ran
            # one single-threaded op: what a CLI user sees, and unlike the peak
            # of this long-lived process, free of heap history.
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        notes = [
            f"{len(walls)} passes of {len(ops)} ops; setup_s is the median of "
            f"{COLD_STARTS} cold starts; peak_rss_mb is the largest peak of a fresh "
            f"interpreter running one single-threaded op",
            f"wall_s and cpu_s sum each op's best time over the passes; op_p50_ms and "
            f"op_p90_ms are percentiles of the {len(best)} per-op best wall times",
        ]

    failed = len(gate.failures)
    record.update(
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        attempted=gate.attempted,
        failed=failed,
        failures=gate.failures,
        output_sha256={shlex.join(argv): d for argv, d in gate.digests.items()},
        pass_walls_s=[sum(times) for times in walls],
        op_best_wall_s=best_of(walls),
        setup_samples_s=setup,
    )
    suffix = f"seed{args.seed}-trace{args.trace}"
    (results / f"{args.workload}-{suffix}.json").write_text(json.dumps(record, indent=1))

    for failure in gate.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# workload {args.workload}: {workload.why}")
    print(f"# op list sha256 {record['op_list_sha256']}, source sha256 "
          f"{record['source_sha256'][:16]}, {record['cpu_model']}, nproc {record['nproc']}, "
          f"python {record['python']}, numpy {record['numpy']}, scipy {record['scipy']}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"ops_attempted {gate.attempted} count")
    print(f"ops_failed {failed} count")
    mismatch = check_declared(metrics, args.trace)
    if mismatch:
        print(f"error: {mismatch}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; the last line merges them
    with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S + 2 * args.seconds + 60,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/limitlaw/cli.py").is_file():
        print("error: run from the root of a limitlaw checkout (src/limitlaw is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    os.environ.pop("LIMITLAW_THREADS", None)  # every op sets --threads itself or uses 1
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
