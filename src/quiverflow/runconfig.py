"""Experiment configuration: schema, validation, and deterministic RNG.

A config is one JSON document.  Complex numbers are [re, im] pairs;
matrices are row-major nested lists of such pairs.  Every randomized
quantity derives from the config's seed through a counter-based generator
keyed by (seed, item index), so batch execution order cannot change any
output.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, QuiverFlowError
from .flow import IntegratorConfig
from .moment import CentralShift, check_tensor_size
from .quiver import CycleWord, Quiver, Relation, Representation

__all__ = [
    "CONFIG_SCHEMA",
    "load_config",
    "validate_config",
    "build_model",
    "rng_for",
    "EXPERIMENTS",
]

EXPERIMENTS = ("flow", "critical", "slice", "strata", "lines", "broken",
               "retract", "variety", "check")

_COMPLEX = {
    "type": "array", "items": {"type": "number"},
    "minItems": 2, "maxItems": 2,
}
_MATRIX = {"type": "array", "items": {"type": "array", "items": _COMPLEX}}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "experiment"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": "quiverflow/1"},
        "experiment": {"enum": list(EXPERIMENTS)},
        "seed": {"type": "integer", "minimum": 0},
        "quiver": {
            "type": "object",
            "required": ["vertices", "edges"],
            "additionalProperties": False,
            "properties": {
                "vertices": {"type": "array", "items": {"type": "string"}, "minItems": 1},
                "edges": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["name", "tail", "head"],
                        "additionalProperties": False,
                        "properties": {
                            "name": {"type": "string"},
                            "tail": {"type": "string"},
                            "head": {"type": "string"},
                        },
                    },
                },
            },
        },
        "dims": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
        "alpha": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
        "relations": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "terms"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "terms": {
                        "type": "array", "minItems": 1,
                        "items": {
                            "type": "object",
                            "required": ["coef", "path"],
                            "additionalProperties": False,
                            "properties": {
                                "coef": _COMPLEX,
                                "path": {"type": "array", "items": {"type": "string"},
                                         "minItems": 1},
                            },
                        },
                    },
                },
            },
        },
        "cycles": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "path"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "path": {"type": "array", "items": {"type": "string"}, "minItems": 1},
                },
            },
        },
        "integrator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rel_tol": {"type": "number", "exclusiveMinimum": 0},
                "abs_tol": {"type": "number", "exclusiveMinimum": 0},
                "max_step": {"type": "number", "exclusiveMinimum": 0},
                "min_step": {"type": "number", "exclusiveMinimum": 0},
                "max_time": {"type": "number", "exclusiveMinimum": 0},
                "grad_stop": {"type": "number", "exclusiveMinimum": 0},
                "stall_window": {"type": "integer", "minimum": 1},
                "max_steps": {"type": "integer", "minimum": 1},
            },
        },
        "points": {
            "type": "object",
            "required": ["mode"],
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["explicit", "random"]},
                "values": {
                    "type": "array",
                    "items": {"type": "object", "additionalProperties": _MATRIX},
                },
                "count": {"type": "integer", "minimum": 0},
                "scale": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "params": {"type": "object"},
    },
}


def load_config(path):
    """Parse and validate a config file; returns the config dict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
                          field="") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", field="") from exc
    validate_config(doc)
    return doc


def validate_config(doc):
    """Schema plus semantic validation; raises ConfigError naming the field."""
    import jsonschema

    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        field = ".".join(str(p) for p in err.absolute_path)
        raise ConfigError(f"config field {field or '<root>'}: {err.message}", field=field)

    exp = doc["experiment"]
    needs_quiver = exp != "retract"
    if needs_quiver:
        for key in ("quiver", "dims", "alpha"):
            if key not in doc:
                raise ConfigError(f"config field {key}: required for experiment {exp!r}",
                                  field=key)
        vertices = doc["quiver"]["vertices"]
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise ConfigError("config field quiver.vertices: duplicate names",
                              field="quiver.vertices")
        edge_names = set()
        for i, e in enumerate(doc["quiver"]["edges"]):
            if e["name"] in edge_names:
                raise ConfigError(f"config field quiver.edges.{i}.name: duplicate edge name",
                                  field=f"quiver.edges.{i}.name")
            edge_names.add(e["name"])
            for side in ("tail", "head"):
                if e[side] not in vset:
                    raise ConfigError(
                        f"config field quiver.edges.{i}.{side}: unknown vertex {e[side]!r}",
                        field=f"quiver.edges.{i}.{side}")
        for v in vertices:
            if v not in doc["dims"]:
                raise ConfigError(f"config field dims.{v}: missing entry", field=f"dims.{v}")
            if v not in doc["alpha"]:
                raise ConfigError(f"config field alpha.{v}: missing entry", field=f"alpha.{v}")
        with _rejected("dims"):
            check_tensor_size(_quiver_of(doc), [doc["dims"][v] for v in vertices])
        for rel_list, kind in ((doc.get("relations", []), "relations"),
                               (doc.get("cycles", []), "cycles")):
            for i, item in enumerate(rel_list):
                paths = [t["path"] for t in item["terms"]] if kind == "relations" else [item["path"]]
                for path in paths:
                    for name in path:
                        if name not in edge_names:
                            raise ConfigError(
                                f"config field {kind}.{i}: unknown edge {name!r}",
                                field=f"{kind}.{i}")
    pts = doc.get("points")
    if pts is not None:
        if pts["mode"] == "explicit" and "values" not in pts:
            raise ConfigError("config field points.values: required in explicit mode",
                              field="points.values")
        if pts["mode"] == "random":
            if "count" not in pts:
                raise ConfigError("config field points.count: required in random mode",
                                  field="points.count")
            if "seed" not in doc:
                raise ConfigError("config field seed: required when points are randomized",
                                  field="seed")

    params = doc.get("params", {})
    edges = [e["name"] for e in doc.get("quiver", {}).get("edges", [])]
    others = [e for e in edges if e != params.get("varying_edge")]
    # each rule is (check, expected, required)
    grid = (lambda g: isinstance(g, list) and len(g) == 2
            and all(type(n) is int and n > 0 for n in g) and g[1] % 2 == 0,
            "[n_rho, n_theta], two positive integers with n_theta even", False)
    positive = (lambda v: _finite(v) and v > 0, "a positive finite number", False)
    finite = (_finite, "a finite number", False)
    count = (lambda v: type(v) is int and v >= 0, "a non-negative integer", False)
    positive_int = (lambda v: type(v) is int and v > 0, "a positive integer", False)
    # experiment -> the params keys its runner reads, with their rules
    table = {
        "flow": {"state_stride": positive_int},
        "critical": {"refine_tol": positive},
        "slice": {"refine_tol": positive, "eps": positive, "seeds": count,
                  "boundedness": (lambda v: type(v) is bool, "a boolean", False)},
        "strata": {},
        "lines": {"z": (_finite, "a finite number", True)},
        "broken": {
            "varying_edge": (lambda v: v in edges, f"one of the edges {edges}", True),
            "fixed": (lambda v: isinstance(v, dict) and all(_pair(v.get(e)) for e in others),
                      f"an [re, im] pair for each of the edges {others}", True),
            "varying_direction": (_pair, "an [re, im] pair of finite numbers", True),
            "scales": (lambda v: isinstance(v, list) and len(v) > 0 and all(map(_finite, v)),
                       "a non-empty list of finite numbers", True),
            "levels": (lambda v: isinstance(v, list) and all(map(_finite, v)),
                       "a list of finite numbers", True),
            "limit_scale": finite},
        "retract": {"eps": positive, "delta": positive, "grid": grid, "refine": grid,
                    "rho_max": positive, "probe_width": positive,
                    "saddle_probe_width": positive},
        "variety": {"refine_tol": positive, "residual_tol": positive, "eps": positive,
                    "seeds": count},
        "check": {"trials": positive_int},
    }
    rules = table[exp]
    for key in params:
        if key not in rules:
            raise ConfigError(f"config field params.{key}: not read by experiment {exp!r}, "
                              f"which reads {sorted(rules) or 'no params'}",
                              field=f"params.{key}")
    for key, (ok, expected, required) in rules.items():
        if key not in params:
            if required:
                raise ConfigError(f"config field params.{key}: required for experiment "
                                  f"{exp!r}", field=f"params.{key}")
        elif not ok(params[key]):
            raise ConfigError(f"config field params.{key}: expected {expected}, "
                              f"got {params[key]!r}", field=f"params.{key}")
    if exp == "broken":
        # the family's blocks are 1x1 scalars
        for v in doc["quiver"]["vertices"]:
            if doc["dims"][v] != 1:
                raise ConfigError(f"config field dims.{v}: expected 1 for experiment "
                                  f"'broken', got {doc['dims'][v]!r}", field=f"dims.{v}")
    if exp in ("flow", "critical", "strata", "lines") and "points" not in doc:
        raise ConfigError(f"config field points: required for experiment {exp!r}",
                          field="points")


def _finite(v):
    return type(v) in (int, float) and math.isfinite(v)


@contextmanager
def _rejected(field):
    """Report a package constructor's rejection of a config value as a
    ConfigError naming its field."""
    try:
        yield
    except (QuiverFlowError, ValueError) as exc:
        raise ConfigError(f"config field {field}: {exc}", field=field) from exc


def _pair(v):
    return isinstance(v, list) and len(v) == 2 and all(map(_finite, v))


def _complex_of(pair):
    return complex(pair[0], pair[1])


def _matrix_of(rows):
    return np.array([[_complex_of(c) for c in row] for row in rows], dtype=complex)


class Model:
    """Config resolved into package objects."""

    def __init__(self, quiver, dims, alpha, relations, cycles, integrator, points, doc):
        self.quiver = quiver
        self.dims = dims
        self.alpha = alpha
        self.relations = relations
        self.cycles = cycles
        self.integrator = integrator
        self.points = points
        self.doc = doc

    @property
    def params(self):
        return self.doc.get("params", {})


def build_model(doc) -> Model:
    """Materialize quiver, shifts, relations, integrator, and points; a value
    that their constructors reject is a ConfigError naming its field."""
    with _rejected("integrator"):
        integrator = IntegratorConfig(**doc.get("integrator", {}))
    if doc["experiment"] == "retract":
        return Model(None, None, None, (), (), integrator, [], doc)
    vertices = doc["quiver"]["vertices"]
    quiver = _quiver_of(doc)
    dims = tuple(int(doc["dims"][v]) for v in vertices)
    for v in vertices:      # one shift at a time, so that the error names its vertex
        with _rejected(f"alpha.{v}"):
            CentralShift((doc["alpha"][v],))
    alpha = CentralShift(tuple(float(doc["alpha"][v]) for v in vertices))
    relations, cycles = [], []
    for i, r in enumerate(doc.get("relations", [])):
        with _rejected(f"relations.{i}"):
            relations.append(Relation(
                quiver, tuple((_complex_of(t["coef"]), tuple(map(quiver.edge_index, t["path"])))
                              for t in r["terms"]), name=r["name"]))
    for i, c in enumerate(doc.get("cycles", [])):
        with _rejected(f"cycles.{i}"):
            cycles.append(CycleWord(quiver, tuple(map(quiver.edge_index, c["path"])),
                                    name=c["name"]))
    points = _points_of(doc, quiver, dims)
    return Model(quiver, dims, alpha, tuple(relations), tuple(cycles), integrator, points, doc)


def _quiver_of(doc) -> Quiver:
    qd = doc["quiver"]
    return Quiver.from_lists(qd["vertices"], [(e["name"], e["tail"], e["head"])
                                              for e in qd["edges"]])


def _points_of(doc, quiver, dims):
    pts = doc.get("points")
    if pts is None:
        return []
    if pts["mode"] == "explicit":
        out = []
        for i, val in enumerate(pts["values"]):
            blocks = []
            for a, name in enumerate(quiver.edges):
                if name not in val:
                    raise ConfigError(
                        f"config field points.values.{i}.{name}: missing edge block",
                        field=f"points.values.{i}.{name}")
                with _rejected(f"points.values.{i}.{name}"):
                    blocks.append(quiver.check_block(a, dims, _matrix_of(val[name])))
            out.append(Representation(quiver, dims, tuple(blocks)))
        return out
    seed = int(doc["seed"])
    scale = float(pts.get("scale", 1.0))
    with _rejected("points.scale"):
        return [Representation.random(quiver, dims, rng_for(seed, i), scale=scale)
                for i in range(int(pts["count"]))]


def rng_for(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, item index)."""
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
