"""Span tracing around limitlaw's public entry points, from outside the package.

``Tracer.install`` rebinds every name a caller looks up (module globals such
as ``limitlaw.cli.invert`` or ``limitlaw.mellin.log_gamma_complex``, and class
attributes such as ``SplitKernel.draw``) to a wrapper that records a span:
name, start, end, parent span, op id and work counts.  Spans stay in memory;
``uninstall`` restores every original binding.  Untraced runs never install.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

import numpy as np

import limitlaw
import limitlaw.cli
from limitlaw import gammakit, identities, mellin, moments, montecarlo

_MODULES = (limitlaw, limitlaw.cli, gammakit, identities, mellin, moments, montecarlo)

# Functions that return a moment sequence: each call makes one sequence.
_SEQUENCE_FUNCTIONS = (
    "fkp_moments",
    "local_time_moments",
    "scaled_local_time_moments",
    "tilt",
    "tilted_moments",
    "scale",
    "exp_functional_moments",
    "mittag_leffler_moments",
)
# scaled_local_time_moments rebuilds its sequence at two more times (t = 0.5
# and t = 2) to check t-independence; those rebuilds are sequences too.
_SELF_CHECK_REBUILDS = {"scaled_local_time_moments": 2}


def _size(args, kwargs, key):
    return {"points": int(np.size(args[0] if args else kwargs[key]))}


def _invert_counts(args, kwargs, table):
    grid = int(np.size(args[1] if len(args) > 1 else kwargs["grid"]))
    md = table.metadata
    nodes = 2 * round(md["height"] / md["step"]) + 1
    return {"grid_points": grid, "contour_nodes": nodes, "kernel_evals": grid * nodes}


def _chunk_counts(args, kwargs, _result):
    n = int(args[2] if len(args) > 2 else kwargs["n"])
    return {"draws": n, "chunks": len(montecarlo._chunk_sizes(n))}


def _function_targets():
    """(span name, function, counts(args, kwargs, result) or None, is_span)."""
    yield "gammakit.log_gamma", gammakit.log_gamma, None, True
    yield "gammakit.log_gamma_array", gammakit.log_gamma_array, (
        lambda a, k, r: _size(a, k, "x")), True
    yield "gammakit.log_gamma_complex", gammakit.log_gamma_complex, (
        lambda a, k, r: _size(a, k, "s")), True
    for name in _SEQUENCE_FUNCTIONS:
        rebuilds = 1 + _SELF_CHECK_REBUILDS.get(name, 0)
        yield f"moments.{name}", getattr(moments, name), (
            lambda a, k, r, n=rebuilds: {"sequences": n}), True
    yield "moments.kappa", moments.kappa, None, True
    yield "moments.laplace_exponent", moments.laplace_exponent, None, True
    yield "identities.compare", identities.compare, None, True
    yield "identities.adjudicate_phi_convention", identities.adjudicate_phi_convention, None, True
    yield "mellin.invert", mellin.invert, _invert_counts, True
    yield "mellin.default_grid", mellin.default_grid, None, True
    yield "montecarlo.summarize", montecarlo.summarize, (
        lambda a, k, r: {"values": int(np.size(a[0] if a else k["values"]))}), True
    yield "montecarlo.rayleigh_samples", montecarlo.rayleigh_samples, None, True
    yield "montecarlo.positive_stable_samples", montecarlo.positive_stable_samples, None, True
    yield "montecarlo.tree_cost_samples", montecarlo.tree_cost_samples, None, True
    # Counts only: a span here would take the draw time out of the sampler's
    # self time.
    yield "montecarlo._run_chunks", montecarlo._run_chunks, _chunk_counts, False


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, counts)
        self.op_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        # A worker thread's first span belongs to whatever the main thread is
        # blocked in (the pool call runs inside it).
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def wrap(self, name, fn, counts=None, is_span=True):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(self._ids)
            if is_span:
                stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if is_span:
                    stack.pop()
            extra = counts(args, kwargs, result) if counts else None
            if not is_span:
                end = start  # a count event, not a span
            self.spans.append((span_id, name, start, end, parent, self.op_id, extra))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, fn, counts, is_span in _function_targets():
            wrapper = self.wrap(name, fn, counts, is_span)
            for module in _MODULES:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, attr, wrapper)
        cls_targets = (
            (mellin.DensityTable, "to_csv", "mellin.DensityTable.to_csv", None),
            (montecarlo.SplitKernel, "draw", "montecarlo.SplitKernel.draw", None),
        )
        for cls, attr, name, counts in cls_targets:
            self._rebind(cls, attr, self.wrap(name, vars(cls)[attr], counts))
        from_csv = vars(montecarlo.SplitKernel)["from_csv"]
        self._rebind(
            montecarlo.SplitKernel,
            "from_csv",
            classmethod(self.wrap("montecarlo.SplitKernel.from_csv", from_csv.__func__)),
        )
        self._rebind(limitlaw.cli, "main", self.wrap("cli.main", limitlaw.cli.main))

    def _rebind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def _covered(intervals) -> float:
    """Length of the union of [start, end] intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_totals(spans) -> tuple[dict, dict, dict]:
    """Per span name: call count, self time in seconds, and summed counts.

    Self time is a span's duration minus the part of it that its child spans
    cover (children of a threaded call may overlap, so their union is used).
    """
    children = defaultdict(list)
    for _id, _name, start, end, parent, _op, _extra in spans:
        if parent is not None and end > start:
            children[parent].append((start, end))
    calls, self_s = defaultdict(int), defaultdict(float)
    counts = defaultdict(lambda: defaultdict(float))
    for span_id, name, start, end, _parent, _op, extra in spans:
        calls[name] += 1
        if end > start:
            inside = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ())]
            self_s[name] += (end - start) - _covered(inside)
        for key, value in (extra or {}).items():
            counts[name][key] += value
    return calls, self_s, counts


def parent_names(spans) -> dict:
    names = {span[0]: span[1] for span in spans}
    return {span[0]: names.get(span[4]) for span in spans}

