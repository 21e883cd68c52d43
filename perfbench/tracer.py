"""Span tracing of quiverflow from outside the package, and per-layer metrics.

``install`` wraps the public functions of each quiverflow module (the names
in its ``__all__``) plus the hot kernel methods, and re-binds every module
attribute that refers to a wrapped function, so that names imported with
``from .flow import integrate`` route through the wrapper too.  Each call
records a span (name, start, end, parent span) in flat in-memory arrays;
``Tracer.dump`` writes them, with the run id and a few counters read off
return values, to an ``.npz`` file when the traced process ends.

``layer_metrics`` turns such a file into the named per-layer metrics.  A
span's self time is its duration minus the durations of its direct
children (calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array

import numpy as np

MODULES = ("quiver", "moment", "flow", "critical", "strata", "retract",
           "subvariety", "checks", "archive", "runconfig", "runner")

# csv_float formats one CSV cell; a span per cell would multiply the span
# count a hundredfold and fold the CSV renderers' own time into it.
SKIP = {"archive.csv_float"}

# Methods traced on their class: (module, class, method, span name).
METHODS = (
    ("moment", "VelocityKernel", "velocity_flat", "moment.velocity_flat"),
    ("moment", "VelocityKernel", "f_flat", "moment.f_flat"),
    ("quiver", "Representation", "unflatten", "quiver.unflatten"),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {"flow.integrate.accepted_steps": 0,
                         "flow.integrate.useful": 0,
                         "archive.write_text.bytes": 0,
                         "retract.census_cells": 0}
        self._stack = [-1]

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span named ``name``; ``after(args, kwargs,
        result)`` runs outside the span to update counters."""
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        span_name, span_parent = self.span_name, self.span_parent
        start, end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        np.savez(path,
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 names=np.array(self.names, dtype=str),
                 run_id=np.array(self.run_id, dtype=str),
                 counters=np.array(json.dumps(self.counters), dtype=str))

    # counters read off arguments and return values

    def _after_integrate(self, args, kwargs, trace):
        self.counters["flow.integrate.accepted_steps"] += trace.n_samples - 1
        if trace.status in ("converged", "exited_level"):
            self.counters["flow.integrate.useful"] += 1

    def _after_write_text(self, args, kwargs, result):
        # meta.json holds the run's wall-clock time, so its length varies
        path = args[0] if args else kwargs["path"]
        if os.path.basename(path) != "meta.json":
            text = args[1] if len(args) > 1 else kwargs["text"]
            self.counters["archive.write_text.bytes"] += len(text.encode("utf-8"))

    def _after_census(self, args, kwargs, result):
        self.counters["retract.census_cells"] += int(result[1].size)


def install(tracer):
    """Wrap quiverflow's public functions and kernel methods in spans."""
    after = {"flow.integrate": tracer._after_integrate,
             "archive.write_text": tracer._after_write_text,
             "retract.connectivity_census": tracer._after_census}
    wrapped = {}
    for short in MODULES:
        mod = importlib.import_module(f"quiverflow.{short}")
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            name = f"{short}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and name not in SKIP):
                wrapped[fn] = tracer.wrap(name, fn, after.get(name))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "quiverflow" or mod_name.startswith("quiverflow.")):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
    for short, cls_name, meth, name in METHODS:
        cls = getattr(importlib.import_module(f"quiverflow.{short}"), cls_name)
        raw = inspect.getattr_static(cls, meth)
        if isinstance(raw, staticmethod):
            setattr(cls, meth, staticmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(cls, meth, tracer.wrap(name, raw))
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics from a span file

CALLS = ("moment.velocity_flat", "moment.f_flat", "moment.f_value", "moment.hessian_matrix",
         "moment.grad_f", "quiver.unflatten", "flow.integrate", "flow.tau_level",
         "critical.refine_critical", "retract.connectivity_census",
         "subvariety.project_to_variety", "subvariety.integrate_on_variety",
         "archive.write_text")
SELF_S = ("runconfig.validate_config", "runconfig.build_model", "moment.velocity_flat",
          "moment.f_flat", "moment.f_value", "moment.hessian_fd", "quiver.unflatten",
          "flow.integrate", "critical.negative_slice", "critical.weight_decomposition",
          "strata.broken_line_experiment", "retract.connectivity_census",
          "retract.condition4_probe", "subvariety.project_to_variety",
          "subvariety.integrate_on_variety", "checks.run_checks", "archive.write_text",
          "archive.canonical_json", "archive.trace_jsonable", "archive.census_csv",
          "runner.run_experiment")
TOTAL_S = ("flow.tau_level", "critical.refine_critical", "critical.morse_index_check",
           "subvariety.slice_variety_probe")
# Metrics that must repeat exactly between two traced runs of one seed.
EXACT = tuple(f"{n}.calls" for n in CALLS) + (
    "flow.integrate.accepted_steps", "critical.newton_iters",
    "retract.census_cells", "archive.write_text.bytes")


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{n}.calls", "count") for n in CALLS]
    out += [(f"{n}.self_s", "s") for n in SELF_S]
    out += [(f"{n}.total_s", "s") for n in TOTAL_S]
    out += [("flow.integrate.accepted_steps", "count"), ("critical.newton_iters", "count"),
            ("retract.census_cells", "count"), ("archive.write_text.bytes", "bytes"),
            ("flow.integrate.useful_ratio", "ratio"), ("flow.field_evals_per_step", "ratio"),
            ("retract.cells_per_s", "1/s")]
    return out


def load_spans(path):
    with np.load(path, allow_pickle=False) as z:
        return {"name": z["name"], "parent": z["parent"], "start": z["start"],
                "end": z["end"], "names": [str(s) for s in z["names"]],
                "run_id": str(z["run_id"]), "counters": json.loads(str(z["counters"]))}


def layer_metrics(spans):
    """Per-layer values of one traced process, keyed by metric name."""
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    n_names = len(spans["names"])
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    calls = np.bincount(name, minlength=n_names)
    self_by = np.bincount(name, weights=self_time, minlength=n_names)
    total_by = np.bincount(name, weights=dur, minlength=n_names)
    index = {s: i for i, s in enumerate(spans["names"])}

    def get(arr, layer):
        i = index.get(layer)
        return float(arr[i]) if i is not None else 0.0

    out = {}
    for layer in CALLS:
        out[f"{layer}.calls"] = int(get(calls, layer))
    for layer in SELF_S:
        out[f"{layer}.self_s"] = get(self_by, layer)
    for layer in TOTAL_S:
        out[f"{layer}.total_s"] = get(total_by, layer)
    counters = spans["counters"]
    out["flow.integrate.accepted_steps"] = int(counters["flow.integrate.accepted_steps"])
    out["critical.newton_iters"] = _count_under(spans, index, "moment.hessian_matrix",
                                                "critical.refine_critical")
    out["retract.census_cells"] = int(counters["retract.census_cells"])
    out["archive.write_text.bytes"] = int(counters["archive.write_text.bytes"])
    n_int = out["flow.integrate.calls"]
    steps = out["flow.integrate.accepted_steps"]
    census_s = get(total_by, "retract.connectivity_census")
    out["flow.integrate.useful_ratio"] = counters["flow.integrate.useful"] / n_int if n_int else 0.0
    out["flow.field_evals_per_step"] = out["moment.velocity_flat.calls"] / steps if steps else 0.0
    out["retract.cells_per_s"] = out["retract.census_cells"] / census_s if census_s else 0.0
    return out


def _count_under(spans, index, layer, ancestor):
    """Number of ``layer`` spans with an ``ancestor`` span above them."""
    if layer not in index or ancestor not in index:
        return 0
    name, parent = spans["name"], spans["parent"]
    target = index[ancestor]
    count = 0
    for sid in np.nonzero(name == index[layer])[0]:
        p = parent[sid]
        while p >= 0 and name[p] != target:
            p = parent[p]
        count += p >= 0
    return int(count)
