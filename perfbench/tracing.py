"""Span tracing of hstorsion's public functions, installed from outside.

The library carries no instrumentation.  A traced run replaces every public
function and public method of the eight modules with a wrapper that records
one span per call, and rebinds every place that holds the original: the
defining module, each module that imported the name (``from .torsion import
torsion_form`` in ``energy``, ``deform`` and ``cli``), the package
re-exports and module-level dispatch dicts such as ``_LAPLACIANS``.  A
rebinding that was missed would read as a silent zero, so run.py also checks
that every layer the workload must reach recorded at least one call.

Spans stay in memory as ``[name, start, end, parent, op]`` rows (parent is
the index of the enclosing span, -1 at top level; op is the operation id
set by the caller) and are written out once the run ends.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import sys
import time
import weakref
from collections import Counter

PACKAGE = "hstorsion"
MODULES = ("forms", "backends", "metric", "cohomology", "torsion", "energy",
           "deform", "cli")

# per-layer metric prefix -> the spans it sums over
LAYERS = {
    "backends.build_complex": ("backends.build_complex",),
    "metric.HermitianStructure": ("metric.HermitianStructure",),
    "metric.gram": ("metric.HermitianStructure.gram",),
    "metric.chol": ("metric.HermitianStructure.chol",),
    "metric.adjoint_matrix": ("metric.HermitianStructure.adjoint_matrix",),
    "cohomology.laplacian": ("cohomology.laplacian_bc",
                             "cohomology.laplacian_dbar"),
    "cohomology.gram_eig": ("cohomology.gram_eig",),
    "cohomology.cohomology_table": ("cohomology.cohomology_table",),
    "torsion.hs_feasible": ("torsion.hs_feasible",),
    "torsion.torsion_form": ("torsion.torsion_form",),
    "torsion.classify": ("torsion.classify",),
    "energy.gradient_descent": ("energy.gradient_descent",),
    "energy.differential_riesz": ("energy.differential_riesz",),
    "deform.kahler_in_class": ("deform.kahler_in_class",),
    "deform.neumann_dbar_solution": ("deform.neumann_dbar_solution",),
    "forms.wedge": ("forms.wedge",),
    "cli.run": ("cli.run",),
}


def _calls_and_self_time(layer):
    return [(f"{layer}.calls", "count", "lower"), (f"{layer}.s", "s", "lower")]


# (name, unit, better) of every per-layer metric, in output order
LAYER_METRICS = [
    *_calls_and_self_time("backends.build_complex"),
    *_calls_and_self_time("metric.HermitianStructure"),
    *_calls_and_self_time("metric.gram"),
    ("metric.gram.misses", "count", "lower"),
    ("metric.gram.hit_ratio", "ratio", "higher"),
    ("metric.gram.miss_s", "s", "lower"),
    *_calls_and_self_time("metric.chol"),
    *_calls_and_self_time("metric.adjoint_matrix"),
    *_calls_and_self_time("cohomology.laplacian"),
    ("cohomology.laplacian.repeat_frac", "ratio", "lower"),
    *_calls_and_self_time("cohomology.gram_eig"),
    ("cohomology.gram_eig.unseparated", "count", "lower"),
    *_calls_and_self_time("cohomology.cohomology_table"),
    *_calls_and_self_time("torsion.hs_feasible"),
    *_calls_and_self_time("torsion.torsion_form"),
    *_calls_and_self_time("torsion.classify"),
    ("energy.gradient_descent.iters", "count", "lower"),
    ("energy.gradient_descent.trials", "count", "lower"),
    ("energy.gradient_descent.accept_ratio", "ratio", "higher"),
    *_calls_and_self_time("energy.differential_riesz"),
    *_calls_and_self_time("deform.kahler_in_class"),
    *_calls_and_self_time("deform.neumann_dbar_solution"),
    *_calls_and_self_time("forms.wedge"),
    ("cli.run.s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


def _targets():
    """(span name, owner, attribute) of every public function and method of
    the traced modules; a class's own __init__ is traced under the class
    name, generated dataclass initialisers are not."""
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{short}.{attr}", mod, attr))
            elif inspect.isclass(obj):
                for mname, meth in vars(obj).items():
                    if not inspect.isfunction(meth):
                        continue
                    if mname == "__init__" and not dataclasses.is_dataclass(obj):
                        out.append((f"{short}.{attr}", obj, mname))
                    elif not mname.startswith("_"):
                        out.append((f"{short}.{attr}.{mname}", obj, mname))
    return out


class Tracer:
    """Records spans of the wrapped calls and the counters that need the
    call's arguments or result."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._undo = []
        self._wrappers = None
        self._gram_seen = weakref.WeakKeyDictionary()
        self._lap_seen = weakref.WeakKeyDictionary()
        self.gram_miss_spans = []
        self.counts = Counter()

    # -- observers: per-call counters --------------------------------------

    def _observe_gram(self, idx, args, result):
        H, p, q = args[:3]
        seen = self._gram_seen.setdefault(H, set())
        if (p, q) not in seen:
            seen.add((p, q))
            self.gram_miss_spans.append(idx)

    def _observe_laplacian(self, kind):
        def observe(idx, args, result):
            H, p, q = args[:3]
            seen = self._lap_seen.setdefault(H, set())
            if (p, q, kind) in seen:
                self.counts["laplacian_repeats"] += 1
            seen.add((p, q, kind))
        return observe

    def _observe_gram_eig(self, idx, args, result):
        if not result.separation_ok:
            self.counts["unseparated"] += 1

    def _observe_descent(self, idx, args, result):
        pots = [row["potential"] for row in result.history]
        self.counts["descent_iters"] += len(result.history) - 1
        self.counts["descent_accepted"] += sum(
            1 for a, b in zip(pots, pots[1:]) if (a != b).any())

    # -- installation --------------------------------------------------------

    def _wrap(self, name, fn, observe):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
            if observe is not None:
                observe(idx, args, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap every target and rebind every reference to it."""
        if self._wrappers is None:
            observers = {
                "metric.HermitianStructure.gram": self._observe_gram,
                "cohomology.laplacian_bc": self._observe_laplacian("bc"),
                "cohomology.laplacian_dbar": self._observe_laplacian("dbar"),
                "cohomology.gram_eig": self._observe_gram_eig,
                "energy.gradient_descent": self._observe_descent,
            }
            self._wrappers = {}
            for name, owner, attr in _targets():
                fn = vars(owner)[attr]
                self._wrappers[id(fn)] = (fn, self._wrap(name, fn, observers.get(name)),
                                          owner, attr)
        wrappers = self._wrappers

        def swap(container, key, value):
            self._undo.append((container, key, value))
            if isinstance(container, dict):
                container[key] = wrappers[id(value)][1]
            else:
                setattr(container, key, wrappers[id(value)][1])

        def is_target(val):
            return inspect.isfunction(val) and wrappers.get(id(val), (None,))[0] is val

        for fn, _, owner, attr in wrappers.values():
            if inspect.isclass(owner):
                swap(owner, attr, fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if is_target(val):
                    swap(mod, attr, val)
                elif type(val) is dict:
                    for key, item in list(val.items()):
                        if is_target(item):
                            swap(val, key, item)

    def uninstall(self):
        for container, key, value in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per-span self time: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def layer_metrics(self):
        """Values of every per-layer metric over all recorded spans, except
        the trace.* ones, which run.py fills in."""
        selfs = self.self_times()
        calls, secs = Counter(), Counter()
        for (name, *_), s in zip(self.spans, selfs):
            calls[name] += 1
            secs[name] += s
        out = {}
        for layer, names in LAYERS.items():
            out[f"{layer}.calls"] = sum(calls[n] for n in names)
            out[f"{layer}.s"] = sum(secs[n] for n in names)
        gram_calls = out["metric.gram.calls"]
        misses = len(self.gram_miss_spans)
        out["metric.gram.misses"] = misses
        out["metric.gram.hit_ratio"] = 1 - misses / gram_calls if gram_calls else 0.0
        out["metric.gram.miss_s"] = sum(selfs[i] for i in self.gram_miss_spans)
        lap = out["cohomology.laplacian.calls"]
        out["cohomology.laplacian.repeat_frac"] = (
            self.counts["laplacian_repeats"] / lap if lap else 0.0)
        out["cohomology.gram_eig.unseparated"] = self.counts["unseparated"]
        descent = {i for i, rec in enumerate(self.spans)
                   if rec[0] == "energy.gradient_descent"}
        trials = sum(1 for rec in self.spans
                     if rec[0] == "energy.AeppliPoint.moved" and rec[3] in descent)
        out["energy.gradient_descent.iters"] = self.counts["descent_iters"]
        out["energy.gradient_descent.trials"] = trials
        out["energy.gradient_descent.accept_ratio"] = (
            self.counts["descent_accepted"] / trials if trials else 0.0)
        return out

    def dump(self, path):
        """Write the spans as JSON: a name table and one row per span."""
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "columns": ["name", "start", "end", "parent", "op"],
                "names": names,
                "rows": [[index[n], s, e, p, op] for n, s, e, p, op in self.spans],
            }, fh, separators=(",", ":"))
