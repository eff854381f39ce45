"""Seeded op lists for the four benchmark workloads.

An op is one ``limitlaw`` command line and the check its output must pass.
Each workload covers every discrete level of its parameters in a fixed design
(so every seed does the same amount of work) and draws only continuous
parameters and sampler seeds from the workload seed.  An op that takes
``--threads`` is timed at one thread count; its twin at the other runs once
per run, untimed, so that the determinism gate still compares the two while
a run repeats the timed ops often enough for their best times to settle.
The first op of every list is the workload's cheapest op at fixed levels:
``setup_s`` times a cold start on it.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

KERNEL_FILE = "kernel-linear-600.csv"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[int, str], "str | None"]
    timed: bool = True

    @property
    def threads(self) -> int:
        argv = self.argv
        return int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1

    @property
    def threads_free(self) -> tuple[str, ...]:
        """argv without its ``--threads`` flag: ops that share it must print
        the same bytes."""
        argv = list(self.argv)
        if "--threads" in argv:
            i = argv.index("--threads")
            del argv[i : i + 2]
        return tuple(argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, Path], list[Op]]


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _fmt(x: float) -> str:
    return repr(round(x, 6))


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of ``count`` equal slices of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def _with_threads(argv: list[str], check, threads: int) -> list[Op]:
    """The op timed at ``threads`` and its untimed twin at the other count."""
    twin = 3 - threads
    return [
        Op(tuple(argv + ["--threads", str(threads)]), check),
        Op(tuple(argv + ["--threads", str(twin)]), check, timed=False),
    ]


# ------------------------------------------------------------ density-sweep

# Each spec sweeps every grid size, both steps and both thread counts over
# three (grid, step, threads) cells, so that a run repeats every op often
# enough for its best time to settle.  The mittag-leffler contour height
# doubles (and the cost with it) as alpha crosses 0.555, so each of its cells
# draws alpha from a fixed slice on one side of that edge: the seed moves
# alpha but not the work.
_CELLS = {
    "fkp-quarter": ((601, "0.04", 1), (1201, "0.02", 2), (2401, "0.04", 1)),
    "mittag-leffler": ((2401, "0.02", 2), (1201, "0.04", 1), (601, "0.02", 2)),
}
_ML_SLICES = ((0.25, 0.40), (0.40, 0.55), (0.56, 0.75))


def density_sweep(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for points, step, threads in _CELLS["fkp-quarter"]:
        fkp = functools.partial(
            oracles.check_density, points=points, mean=oracles.fkp_quarter_mean()
        )
        ops += _with_threads(
            ["density", "--spec", "fkp-quarter", "--grid-points", str(points), "--step", step],
            fkp,
            threads,
        )
    for (points, step, threads), (lo, hi) in zip(_CELLS["mittag-leffler"], _ML_SLICES):
        alpha = float(_fmt(rng.uniform(lo, hi)))
        ml = functools.partial(
            oracles.check_density,
            points=points,
            mean=math.exp(oracles.mittag_leffler_log_moment(alpha, 1)),
        )
        ops += _with_threads(
            ["density", "--spec", "mittag-leffler", "--alpha", _fmt(alpha),
             "--grid-points", str(points), "--step", step],
            ml,
            threads,
        )
    return _first_then_shuffled(rng, ops)


# ------------------------------------------------------------ mc-moments


def mc_moments(rng: random.Random, workdir: Path) -> list[Op]:
    # Rayleigh is timed at --smax 4 with one thread and mittag-leffler at
    # --smax 8 with two, so every level is covered while a run repeats each
    # ~1 s op often enough for its best time to settle.  The cost of the
    # exact sums depends on the spread of the values, so sigma stays at its
    # default of 1; mittag-leffler costs the same across alpha.
    n = "1000000"
    ops = _with_threads(
        ["sample", "--sampler", "rayleigh", "--n", n, "--seed", _seed(rng),
         "--smax", "4", "--check-against", "fkp:0.5"],
        functools.partial(oracles.check_rayleigh, sigma=1.0, smax=4),
        1,
    )
    alpha = float(_fmt(rng.uniform(0.3, 0.8)))
    ops += _with_threads(
        ["sample", "--sampler", "mittag-leffler", "--n", n, "--alpha", _fmt(alpha),
         "--seed", _seed(rng), "--smax", "8"],
        functools.partial(oracles.check_mittag_leffler_sample, alpha=alpha, smax=8),
        2,
    )
    return _first_then_shuffled(rng, ops)


# ------------------------------------------------------------ tree-split


def write_kernel(workdir: Path, n_max: int = 600) -> Path:
    path = workdir / KERNEL_FILE
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,k,probability\n")
        fh.writelines(f"{m},{k},{p!r}\n" for m, k, p in oracles.linear_kernel_rows(n_max))
    return path


def tree_split(rng: random.Random, workdir: Path) -> list[Op]:
    kernel = write_kernel(workdir)
    reps = "100000"
    ops = []
    for i, (n, a) in enumerate(itertools.product((500, 2000), (0.0, 0.5, 1.0))):
        exact = oracles.tree_exact_moments("uniform", a, n)
        ops += _with_threads(
            ["sample", "--sampler", "tree", "--n", str(n), "--reps", reps,
             "--toll-exponent", _fmt(a), "--seed", _seed(rng)],
            functools.partial(oracles.check_tree, exact=exact),
            1 + i % 2,
        )
    for n, threads in ((300, 1), (600, 2)):
        a = rng.choice((0.0, 0.5, 1.0))
        exact = oracles.tree_exact_moments("linear", a, n)
        ops += _with_threads(
            ["sample", "--sampler", "tree", "--n", str(n), "--reps", reps,
             "--toll-exponent", _fmt(a), "--kernel-file", kernel.as_posix(),
             "--seed", _seed(rng)],
            functools.partial(oracles.check_tree, exact=exact),
            threads,
        )
    return _first_then_shuffled(rng, ops)


# ------------------------------------------------------------ cli-short

_IDENTITIES = (
    "tilt", "corollary", "mittag-leffler", "exp-functional", "phi-adjudicate", "t-independence",
)
# Largest |log moment| the benchmark will ask for; exp(+-700) stays inside
# the double range, beyond which the CLI rightly refuses with exit 2.
_LOG_CEILING = 700.0


def _moment_family(rng: random.Random, which: str, smax: int):
    """(extra argv, closed-form log moment) for one seeded parameter draw
    whose moments, and those the CLI builds on the way, are all finite and
    non-zero up to ``smax`` (local-time and exp-functional build one order
    more for their self-checks)."""
    while True:
        alpha = round(rng.uniform(0.1, 0.9), 6)
        beta = round(rng.uniform(0.25, 2.0), 6)
        ab = ["--alpha", _fmt(alpha), "--beta", _fmt(beta)]
        if which == "fkp":
            a_prime = round(rng.uniform(0.25, 2.0), 6)
            argv, log_m = ["--a-prime", _fmt(a_prime)], functools.partial(
                oracles.fkp_log_moment, a_prime
            )
            guards = [log_m]
        elif which == "local-time":
            t = round(rng.uniform(0.5, 2.0), 6)
            argv = ab + ["--t", _fmt(t)]
            log_m = functools.partial(oracles.local_time_log_moment, alpha, beta, t)
            guards = [log_m]
        elif which == "tilted":
            argv, log_m = ab, functools.partial(oracles.tilted_log_moment, alpha, beta)
            guards = [log_m]
        elif which == "exp-functional":
            argv = ab
            log_m = functools.partial(oracles.exp_functional_log_moment, alpha, beta)
            guards = [
                log_m,
                functools.partial(oracles.local_time_log_moment, alpha, beta, 1.0),
                functools.partial(oracles.tilted_log_moment, alpha, beta),
            ]
        else:
            argv, log_m = ["--alpha", _fmt(alpha)], functools.partial(
                oracles.mittag_leffler_log_moment, alpha
            )
            guards = [log_m]
        logs = [g(s) for g in guards for s in range(1, smax + 2)]
        if max(map(abs, logs)) < _LOG_CEILING:
            return argv, log_m


def cli_short(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for which in ("fkp", "local-time", "tilted", "exp-functional", "mittag-leffler"):
        for i, smax in enumerate(round(x) for x in _stratified(rng, 10, 40, 4)):
            argv, log_m = _moment_family(rng, which, smax)
            fmt = ("csv", "json")[i % 2]
            manifest = i >= 2
            ops.append(
                Op(
                    tuple(["moments", "--which", which, *argv, "--smax", str(smax),
                           "--format", fmt] + (["--manifest"] if manifest else [])),
                    functools.partial(
                        oracles.check_moments, fmt=fmt, log_moment=log_m, smax=smax,
                        manifest=manifest,
                    ),
                )
            )
    for identity, fmt in itertools.product(_IDENTITIES, ("csv", "json")):
        ops.append(
            Op(
                ("check", "--identity", identity, "--format", fmt),
                functools.partial(oracles.check_identity, identity=identity, fmt=fmt),
            )
        )
    first = Op(("moments", "--which", "fkp", "--a-prime", "0.5", "--smax", "20"),
               functools.partial(oracles.check_moments, fmt="csv",
                                 log_moment=functools.partial(oracles.fkp_log_moment, 0.5),
                                 smax=20, manifest=False))
    return _first_then_shuffled(rng, [first] + ops)


def _first_then_shuffled(rng: random.Random, ops: list[Op]) -> list[Op]:
    rest = ops[1:]
    rng.shuffle(rest)
    return [ops[0]] + rest


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "density-sweep",
            "inverse-Mellin quadrature over fkp-quarter and mittag-leffler grids; "
            "mellin and gammakit dominate, montecarlo is never touched",
            density_sweep,
        ),
        Workload(
            "mc-moments",
            "1e6-draw rayleigh and mittag-leffler samples; exact fsum reductions in "
            "summarize dominate, mellin is never touched",
            mc_moments,
        ),
        Workload(
            "tree-split",
            "tree-recursion sampler with uniform and deep table split kernels; many "
            "small SplitKernel draws and a small reduction share",
            tree_split,
        ),
        Workload(
            "cli-short",
            "many 2-18 ms moments and check runs; argparse, rendering, moments, "
            "identities and real gammakit are the work and import dominates set-up",
            cli_short,
        ),
    )
}
