"""Instrumentation installed from outside the program.

The modules bind some names at import (``from .scenario import
strategy_masks``), so a wrapper replaces the function in every loaded
corrquant module that holds it, not only where it is defined.

``CallTimer`` is the only instrumentation of the timed run: a plain
timer around the three public quantifier functions.  ``Tracer`` is used
by the traced run: it records a span (name, start, end, parent, thread)
around each function in ``TRACED``, keeps the spans in memory and
summarises them per round.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

from corrquant import cg, conic, experiments, incompat, nonlocality, npa, scenario, steering
from corrquant.errors import SolverFailure

QUANTIFIERS = {
    "incompat": (incompat, "incompatibility_quantifier"),
    "steering": (steering, "steering_quantifier"),
    "nonlocality": (nonlocality, "nonlocality_quantifier"),
}

# span name -> (owner, attribute); module functions and ConicProgram methods
TRACED = {
    **QUANTIFIERS,
    "conic.solve": (conic.ConicProgram, "solve"),
    "conic.build": (conic.ConicProgram, "build"),
    "conic.add_matrix_row_group": (conic.ConicProgram, "add_matrix_row_group"),
    "conic.add_scalar_row": (conic.ConicProgram, "add_scalar_row"),
    "conic.set_objective": (conic.ConicProgram, "set_objective"),
    "scenario.strategy_masks": (scenario, "strategy_masks"),
    "scenario.strategy_assignments": (scenario, "strategy_assignments"),
    "npa.build_npa_block": (npa, "build_npa_block"),
    "cg.strategy_cg_matrix": (cg, "strategy_cg_matrix"),
    "experiments.sweep": (experiments, "sweep"),
}


def replace_everywhere(owner, attr: str, wrapper) -> None:
    """Set ``owner.attr`` and every corrquant module global bound to it."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    for name, module in list(sys.modules.items()):
        if name == "corrquant" or name.startswith("corrquant."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


class CallTimer:
    """Wall time of every public quantifier call, and whether it succeeded."""

    def __init__(self):
        self.calls = []         # (start, end, ok); list.append is atomic

    def install(self) -> None:
        for owner, attr in QUANTIFIERS.values():
            replace_everywhere(owner, attr, self._wrap(getattr(owner, attr)))

    def _wrap(self, fn):
        calls = self.calls

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except SolverFailure:
                calls.append((start, perf_counter(), False))
                raise
            calls.append((start, perf_counter(), True))
            return out
        return timed


def _span_counts(name, out=None, exc=None) -> dict:
    """Counts read where the work happens: iterations and program shape."""
    if name == "conic.solve":
        if exc is not None:
            report = getattr(exc, "report", None) or {}
            return {"iterations": report.get("iterations", 0)}
        return {"iterations": out.iterations}
    if name == "conic.build" and out is not None:
        A = out[0]
        return {"rows": A.shape[0], "cols": A.shape[1], "nnz": A.nnz}
    return {}


class Tracer:
    """Spans around the functions in TRACED, kept in memory."""

    def __init__(self):
        self.spans = []         # dicts; appended when the span ends
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals = {}

    def install(self) -> None:
        for name, (owner, attr) in TRACED.items():
            self._originals[name] = getattr(owner, attr)
            replace_everywhere(owner, attr, self._wrap(name, self._originals[name]))

    def uninstall(self) -> None:
        for name, (owner, attr) in TRACED.items():
            replace_everywhere(owner, attr, self._originals.pop(name))

    def _wrap(self, name, fn):
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except SolverFailure as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append({"id": span_id, "name": name, "start": start,
                              "end": end, "parent": parent,
                              "thread": threading.get_ident(),
                              **_span_counts(name, out, exc)})
        return traced

    def summary(self) -> dict:
        """Per span name: count, total time, self time, summed counts."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            agg = out[s["name"]]
            dur = s["end"] - s["start"]
            agg["count"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child_time[s["id"]]
            for key in ("iterations", "rows", "cols", "nnz"):
                if key in s:
                    agg[key] += s[key]
        return out


def layer_metrics(summary: dict, rounds: int, driver_wall_s: float,
                  overhead_s: float, scale: float) -> dict:
    """Per-round per-layer metrics from a Tracer summary.

    ``driver_wall_s`` is the wall time of the code that issues the
    quantifier calls: experiments.sweep when it ran, else the benchmark's
    own closed loop.  Times in seconds are multiplied by ``scale``, the
    factor to the reference host speed (hostref.py); ``overhead_s`` is
    already scaled.
    """
    def tot(name, key):
        return summary[name][key] if name in summary else 0.0

    def self_s(*names):
        return sum(tot(n, "self_s") for n in names)

    solve_self = self_s("conic.solve")
    iterations = tot("conic.solve", "iterations")
    call_s = sum(tot(n, "total_s") for n in QUANTIFIERS)
    sweep_s = tot("experiments.sweep", "total_s")
    values = {
        "conic.iterations": (iterations, "count"),
        "conic.s_per_iter": (solve_self / iterations if iterations else 0.0, "s"),
        "conic.solve_s": (solve_self, "s"),
        "conic.expand_s": (self_s("conic.add_matrix_row_group", "conic.add_scalar_row",
                                  "conic.set_objective"), "s"),
        "conic.build_s": (tot("conic.build", "total_s"), "s"),
        "scenario.masks_s": (self_s("scenario.strategy_masks",
                                    "scenario.strategy_assignments"), "s"),
        "conic.rows": (tot("conic.build", "rows"), "count"),
        "conic.cols": (tot("conic.build", "cols"), "count"),
        "conic.nnz": (tot("conic.build", "nnz"), "count"),
        "npa.template_s": (self_s("npa.build_npa_block"), "s"),
        "cg.strategies_s": (self_s("cg.strategy_cg_matrix"), "s"),
        "experiments.sweep_s": (sweep_s, "s"),
        "experiments.overlap": (call_s / (sweep_s or driver_wall_s), "ratio"),
    }
    for layer in QUANTIFIERS:
        values[f"{layer}.calls"] = (tot(layer, "count"), "count")
        values[f"{layer}.call_s"] = (tot(layer, "total_s"), "s")
        values[f"{layer}.other_s"] = (self_s(layer), "s")
    # per round; counts stay exact because every round repeats its inputs
    metrics = {}
    for name, (value, unit) in values.items():
        if unit == "count":
            value = int(value) // rounds
        elif name not in ("conic.s_per_iter", "experiments.overlap"):
            value /= rounds
        if unit == "s":
            value *= scale
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics
