"""Spans around every public bec1d function and around scipy's quad.

install() rebinds each public function of every bec1d module in every bec1d
module namespace and in the package namespace, so calls made through
`from .x import f`, through module globals and through `from bec1d import *`
all pass a wrapper. quad is rebound in each module that imported it, and its
integrand is wrapped to count evaluations. Spans stay in memory as lists
[name, layer, start, end, parent, item, note, raised] and are written out
when the run ends; no file of the package changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time

import scipy.integrate

LAYERS = ("cli", "rng", "poisson_geometry", "spectrum", "thermodynamics", "correlations",
          "hierarchical", "order_localization", "quad")
NAME, LAYER, START, END, PARENT, ITEM, NOTE, RAISED = range(8)

#: Bytes per level-table entry: energies, lengths, quantum numbers and
#: interval indices, 8 bytes each.
LEVEL_BYTES = 32
LIMIT_FUNCS = {"density_limit", "pressure_limit", "solve_mu_limit", "critical_density",
               "critical_density_by_parts", "condensate_density", "critical_density_bound"}


def _kernel_method(args, kwargs, result):
    return kwargs.get("method", args[4] if len(args) > 4 else "panels")


#: What a span records besides its times, per function name.
NOTES = {
    "build_level_table": lambda args, kwargs, result: int(result.energies.size),
    "poisson_lengths": lambda args, kwargs, result: int(result.size),
    "kernel_limit": _kernel_method,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None
        self.integrand_evals = 0
        self._saved: list[tuple] = []

    def _open(self, name, layer):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, layer, 0.0, 0.0, parent, self.item, None, False]
        self.spans.append(span)
        self.stack.append(index)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, layer):
        name, note = fn.__name__, NOTES.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                self._close(span)
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def wrap_quad(self, quad):
        tracer = self

        @functools.wraps(quad)
        def traced_quad(func, *args, **kwargs):
            evals = 0

            def counted(x, *extra):
                nonlocal evals
                evals += 1
                return func(x, *extra)

            span = self._open("quad", "quad")
            try:
                return quad(counted, *args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                self._close(span)
                span[NOTE] = evals
                tracer.integrand_evals += evals

        return traced_quad

    def install(self, package):
        """Rebind bec1d's public functions and quad; uninstall() restores them."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith(package.__name__ + ".") and m is not None]
        wrappers = {}
        traced_quad = self.wrap_quad(scipy.integrate.quad)
        for module in modules + [package]:
            for attr, obj in list(vars(module).items()):
                if obj is scipy.integrate.quad:
                    replacement = traced_quad
                elif (inspect.isfunction(obj) and not attr.startswith("_")
                      and obj.__module__.startswith(package.__name__ + ".")):
                    if obj not in wrappers:
                        wrappers[obj] = self.wrap(obj, obj.__module__.rsplit(".", 1)[1])
                    replacement = wrappers[obj]
                else:
                    continue
                self._saved.append((module, attr, obj))
                setattr(module, attr, replacement)

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "name": s[NAME], "layer": s[LAYER], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "item": s[ITEM], "note": s[NOTE], "raised": s[RAISED],
                }) + "\n")


def _outermost(spans, selected):
    """Sum of durations of selected spans that have no selected ancestor."""
    total = 0.0
    for i in selected:
        parent = spans[i][PARENT]
        while parent >= 0 and parent not in selected:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += spans[i][END] - spans[i][START]
    return total


def _busy(spans, pred):
    return _outermost(spans, {i for i, s in enumerate(spans) if pred(s)})


def _slope(points):
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
            children.setdefault(s[PARENT], []).append(i)
    m = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s[LAYER] == layer]
        m[f"{layer}.calls"] = (len(mine), "count")
        m[f"{layer}.busy_s"] = (_outermost(spans, set(mine)), "s")
        m[f"{layer}.self_s"] = (sum(spans[i][END] - spans[i][START] - child_time[i] for i in mine), "s")
        m[f"{layer}.errors"] = (sum(spans[i][RAISED] for i in mine), "count")

    def named(name):
        return lambda s: s[NAME] == name

    # mu solves: time net of the child table build, against that table's size
    solves = []
    for i, s in enumerate(spans):
        if s[NAME] == "solve_mu_finite" and not s[RAISED]:
            builds = [c for c in children.get(i, ()) if spans[c][NAME] == "build_level_table"]
            levels = sum(spans[c][NOTE] or 0 for c in builds)
            net = (s[END] - s[START]) - sum(spans[c][END] - spans[c][START] for c in builds)
            if levels > 0 and net > 0:
                solves.append((levels, net))
    solve_levels = sum(n for n, _ in solves)
    m["thermodynamics.solve_mu_finite.busy_s"] = (_busy(spans, named("solve_mu_finite")), "s")
    m["thermodynamics.solve_mu_finite.ns_per_level"] = (
        1e9 * sum(t for _, t in solves) / solve_levels if solve_levels else 0.0, "ns")
    m["thermodynamics.solve_mu_finite.scaling_exponent"] = (_slope(solves), "1")

    tables = [s for s in spans if s[NAME] == "build_level_table" and not s[RAISED]]
    levels = sum(s[NOTE] for s in tables)
    samplings = [s for s in spans if s[NAME] == "poisson_lengths" and not s[RAISED]]
    m["spectrum.levels_built"] = (levels, "count")
    m["spectrum.table_bytes"] = (LEVEL_BYTES * max((s[NOTE] for s in tables), default=0), "B_computed")
    m["spectrum.ns_per_level"] = (
        1e9 * sum(s[END] - s[START] for s in tables) / levels if levels else 0.0, "ns")
    m["spectrum.tables_per_realization"] = (len(tables) / len(samplings) if samplings else 0.0, "1")
    m["poisson_geometry.intervals_sampled"] = (sum(s[NOTE] for s in samplings), "count")
    m["correlations.kernel_finite.busy_s"] = (_busy(spans, named("kernel_finite")), "s")
    m["order_localization.ground_state_share.busy_s"] = (_busy(spans, named("ground_state_share")), "s")

    quad_calls, evals = m["quad.calls"][0], tracer.integrand_evals
    m["quad.integrand_evals"] = (evals, "count")
    m["quad.evals_per_call"] = (evals / quad_calls if quad_calls else 0.0, "1")
    m["quad.us_per_eval"] = (1e6 * m["quad.busy_s"][0] / evals if evals else 0.0, "us")
    for method in ("panels", "series"):
        m[f"correlations.kernel_limit.{method}_busy_s"] = (
            _busy(spans, lambda s, k=method: s[NAME] == "kernel_limit" and s[NOTE] == k), "s")
    m["correlations.kernel_with_condensate.busy_s"] = (_busy(spans, named("kernel_with_condensate")), "s")
    m["thermodynamics.limit_busy_s"] = (
        _busy(spans, lambda s: s[LAYER] == "thermodynamics" and s[NAME] in LIMIT_FUNCS), "s")
    m["hierarchical.occupation_profile.busy_s"] = (_busy(spans, named("occupation_profile")), "s")
    m["hierarchical.solve_type2_coefficient.busy_s"] = (
        _busy(spans, named("solve_type2_coefficient")), "s")
    return m
