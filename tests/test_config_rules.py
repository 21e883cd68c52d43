"""The config rule table against the validator it replaced.

``CONFIG_SCHEMA`` and ``old_validate_config`` are that validator, kept here
as the oracle: jsonschema over a JSON Schema, then the cross-reference
checks and the hand-written params table.  The corpus is every bundled
config with each entry replaced by one of ``BAD``, deleted, or (for an
object) given an extra key.
"""

import copy
import json
import math
import os
import subprocess
import sys
from collections import Counter

import jsonschema

import quiverflow
from quiverflow.errors import ConfigError, QuiverFlowError
from quiverflow.moment import check_tensor_size
from quiverflow.quiver import Quiver
from quiverflow.runconfig import EXPERIMENTS, validate_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "quiverflow", "configs")

_COMPLEX = {
    "type": "array", "items": {"type": "number"},
    "minItems": 2, "maxItems": 2,
}
_MATRIX = {"type": "array", "items": {"type": "array", "items": _COMPLEX}}
_PATH = {"type": "array", "items": {"type": "string"}, "minItems": 1}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

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
                        "properties": {"name": {"type": "string"}, "tail": {"type": "string"},
                                       "head": {"type": "string"}},
                    },
                },
            },
        },
        "dims": {"type": "object", "additionalProperties": {"type": "integer", "minimum": 0}},
        "alpha": {"type": "object", "additionalProperties": {"type": "number"}},
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
                            "properties": {"coef": _COMPLEX, "path": _PATH},
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
                "properties": {"name": {"type": "string"}, "path": _PATH},
            },
        },
        "integrator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rel_tol": _POSITIVE, "abs_tol": _POSITIVE, "max_step": _POSITIVE,
                "min_step": _POSITIVE, "max_time": _POSITIVE, "grad_stop": _POSITIVE,
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
                "values": {"type": "array",
                           "items": {"type": "object", "additionalProperties": _MATRIX}},
                "count": {"type": "integer", "minimum": 0},
                "scale": _POSITIVE,
            },
        },
        "params": {"type": "object"},
    },
}

_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def _finite(v):
    return type(v) in (int, float) and math.isfinite(v)


def _pair(v):
    return isinstance(v, list) and len(v) == 2 and all(map(_finite, v))


def old_validate_config(doc):
    """The schema, then the cross-references and the params table."""
    errors = sorted(_VALIDATOR.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        field = ".".join(str(p) for p in errors[0].absolute_path)
        raise ConfigError(errors[0].validator, field=field)

    exp = doc["experiment"]
    if exp != "retract":
        for key in ("quiver", "dims", "alpha"):
            if key not in doc:
                raise ConfigError("required", field=key)
        vertices = doc["quiver"]["vertices"]
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise ConfigError("duplicate names", field="quiver.vertices")
        edge_names = set()
        for i, e in enumerate(doc["quiver"]["edges"]):
            if e["name"] in edge_names:
                raise ConfigError("duplicate edge name", field=f"quiver.edges.{i}.name")
            edge_names.add(e["name"])
            for side in ("tail", "head"):
                if e[side] not in vset:
                    raise ConfigError("unknown vertex", field=f"quiver.edges.{i}.{side}")
        for v in vertices:
            if v not in doc["dims"]:
                raise ConfigError("missing entry", field=f"dims.{v}")
            if v not in doc["alpha"]:
                raise ConfigError("missing entry", field=f"alpha.{v}")
        quiver = Quiver.from_lists(vertices, [(e["name"], e["tail"], e["head"])
                                              for e in doc["quiver"]["edges"]])
        try:
            check_tensor_size(quiver, [doc["dims"][v] for v in vertices])
        except (QuiverFlowError, ValueError) as exc:
            raise ConfigError(str(exc), field="dims") from exc
        for rel_list, kind in ((doc.get("relations", []), "relations"),
                               (doc.get("cycles", []), "cycles")):
            for i, item in enumerate(rel_list):
                paths = [t["path"] for t in item["terms"]] if kind == "relations" else [item["path"]]
                for path in paths:
                    for name in path:
                        if name not in edge_names:
                            raise ConfigError("unknown edge", field=f"{kind}.{i}")
    pts = doc.get("points")
    if pts is not None:
        if pts["mode"] == "explicit" and "values" not in pts:
            raise ConfigError("required", field="points.values")
        if pts["mode"] == "random":
            if "count" not in pts:
                raise ConfigError("required", field="points.count")
            if "seed" not in doc:
                raise ConfigError("required", field="seed")

    params = doc.get("params", {})
    edges = [e["name"] for e in doc.get("quiver", {}).get("edges", [])]
    others = [e for e in edges if e != params.get("varying_edge")]
    grid = (lambda g: isinstance(g, list) and len(g) == 2
            and all(type(n) is int and n > 0 for n in g) and g[1] % 2 == 0, False)
    positive = (lambda v: _finite(v) and v > 0, False)
    finite = (_finite, False)
    count = (lambda v: type(v) is int and v >= 0, False)
    positive_int = (lambda v: type(v) is int and v > 0, False)
    table = {
        "flow": {"state_stride": positive_int},
        "critical": {"refine_tol": positive},
        "slice": {"refine_tol": positive, "eps": positive, "seeds": count,
                  "boundedness": (lambda v: type(v) is bool, False)},
        "strata": {},
        "lines": {"z": (_finite, True)},
        "broken": {
            "varying_edge": (lambda v: v in edges, True),
            "fixed": (lambda v: isinstance(v, dict) and all(_pair(v.get(e)) for e in others),
                      True),
            "varying_direction": (_pair, True),
            "scales": (lambda v: isinstance(v, list) and len(v) > 0 and all(map(_finite, v)),
                       True),
            "levels": (lambda v: isinstance(v, list) and all(map(_finite, v)), True),
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
            raise ConfigError("not read", field=f"params.{key}")
    for key, (ok, required) in rules.items():
        if key not in params:
            if required:
                raise ConfigError("required", field=f"params.{key}")
        elif not ok(params[key]):
            raise ConfigError("bad value", field=f"params.{key}")
    if exp == "broken":
        for v in doc["quiver"]["vertices"]:
            if doc["dims"][v] != 1:
                raise ConfigError("expected 1", field=f"dims.{v}")
    if exp in ("flow", "critical", "strata", "lines") and "points" not in doc:
        raise ConfigError("required", field="points")


BAD = [None, True, False, 0, 1, -1, 2.0, -1.0, 0.5, 2 ** 64, -(2 ** 63), float("nan"),
       float("inf"), float("-inf"), "", "x", "flow", [], [0.0], [1, 0], {}, {"x": 1}]


def _entries(node, path=()):
    """The path of every entry below `node`, parents first."""
    if not isinstance(node, (dict, list)):
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,)
        yield from _entries(child, path + (key,))


def _edited(doc, path, edit):
    """A copy of `doc` whose containers along `path` are fresh; `edit` gets the
    last one and the last key."""
    root = node = copy.copy(doc)
    for key in path[:-1]:
        node[key] = node = copy.copy(node[key])
    edit(node, path[-1])
    return root


def mutations(doc):
    """(path of the edited entry, its new value or None, edited document) for
    the whole corpus of `doc`; the value is None for a deleted entry."""
    for path in _entries(doc):
        for bad in BAD:
            yield path, bad, _edited(doc, path, lambda n, k: n.__setitem__(k, copy.deepcopy(bad)))
        yield path, None, _edited(doc, path, lambda n, k: n.__delitem__(k))
    for path in [()] + [p for p in _entries(doc) if isinstance(_at(doc, p), dict)]:
        extra = path + ("zz_extra",)
        yield extra, 1, _edited(doc, extra, lambda n, k: n.__setitem__(k, 1))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _refusal(validate, doc):
    """The ConfigError a validator raises on `doc`, or None when it accepts it."""
    try:
        validate(doc)
    except ConfigError as exc:
        return exc
    return None


def _bundled():
    for name in sorted(os.listdir(CONFIG_DIR)):
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            yield name, json.load(fh)


def test_rule_table_is_never_looser_than_the_schema():
    tally = Counter()
    for name, doc in _bundled():
        assert _refusal(old_validate_config, doc) is None and _refusal(validate_config, doc) is None
        for path, value, bad in mutations(doc):
            field = ".".join(map(str, path))
            old = _refusal(old_validate_config, bad)
            new = _refusal(validate_config, bad)
            where = (name, field, value, old and old.field, new and new.field)
            if old is not None:
                assert new is not None, where
                if new.field != old.field:
                    # a missing or unknown key is named by its own path, not its parent's
                    assert str(old) in ("required", "additionalProperties"), where
                    assert new.field.rpartition(".")[0] == old.field, where
                tally["same field" if new.field == old.field else "own path"] += 1
            elif new is not None:
                # the one tightening: integers are JSON integers and seeds lie below 2**64
                assert new.field == field, where
                assert (isinstance(value, float) and value.is_integer()
                        or path == ("seed",) and value >= 2 ** 64), where
                tally["newly refused"] += 1
            else:
                tally["accepted"] += 1
    assert all(tally[k] for k in ("same field", "own path", "newly refused", "accepted")), tally


def test_validation_does_not_import_jsonschema():
    code = ("import sys; from quiverflow.runconfig import build_model, load_config; "
            f"build_model(load_config({os.path.join(CONFIG_DIR, 'a2_lines.json')!r})); "
            "assert 'jsonschema' not in sys.modules, 'jsonschema imported'")
    src = os.path.dirname(os.path.dirname(quiverflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
