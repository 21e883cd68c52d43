"""Experiment configuration: validation, model building, and deterministic RNG.

A config is one JSON document.  Complex numbers are [re, im] pairs;
matrices are row-major nested lists of such pairs.  `validate_config`
checks the whole document against one rule table and the experiment's
`params` against that experiment's table, with one walker, and then the
cross-references between fields.  Every randomized quantity derives from
the config's seed through a counter-based generator keyed by (seed, item
index), so batch execution order cannot change any output.

At import this module loads only `errors`.  `EXPERIMENTS` maps each
experiment to the package modules its runner calls, and `build_model`
imports them before it builds anything, so that their code is compiled
during set-up and never inside a run; the quiver, moment and flow types
are imported by the functions that build them.  A retract model loads
none of these: it has no quiver, and an integrator only when the config
has an `integrator` section.
"""

from __future__ import annotations

import importlib
import json
import math
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, QuiverFlowError

__all__ = [
    "load_config",
    "validate_config",
    "build_model",
    "rng_for",
    "EXPERIMENTS",
]

# experiment -> the package modules its runner calls, which build_model loads
EXPERIMENTS = {
    "flow": ("flow",),
    "critical": ("flow", "critical", "strata"),
    "slice": ("quiver", "critical", "strata"),
    "strata": ("strata",),
    "lines": ("strata",),
    "broken": ("quiver", "strata"),
    "retract": ("retract",),
    "variety": ("quiver", "critical", "strata", "subvariety"),
    "check": ("checks",),
}


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v):
    return type(v) in (int, float) and math.isfinite(v)


def _pair(v):
    return isinstance(v, list) and len(v) == 2 and all(map(_finite, v))


# A rule is a leaf (check, expected); an object {key: (rule, required)}, in
# which the key "*" stands for every key of an open map; or a list
# [item rule, min length, max length or None].
_NUMBER = (_number, "a number")
_POSITIVE = (lambda v: _number(v) and not v <= 0, "a positive number")
_STRING = (lambda v: isinstance(v, str), "a string")
_COUNT = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
_POSITIVE_INT = (lambda v: type(v) is int and v > 0, "a positive integer")
_COMPLEX = [_NUMBER, 2, 2]
_PATH = [_STRING, 1, None]

_DOC = {
    "schema": ((lambda v: v == "quiverflow/1", "'quiverflow/1'"), True),
    "experiment": ((lambda v: isinstance(v, str) and v in EXPERIMENTS,
                    f"one of {list(EXPERIMENTS)}"), True),
    "seed": ((lambda v: type(v) is int and 0 <= v < 2 ** 64, "an integer in [0, 2**64)"),
             False),
    "quiver": ({"vertices": ([_STRING, 1, None], True),
                "edges": ([{"name": (_STRING, True), "tail": (_STRING, True),
                            "head": (_STRING, True)}, 0, None], True)}, False),
    "dims": ({"*": (_COUNT, False)}, False),
    "alpha": ({"*": (_NUMBER, False)}, False),
    "relations": ([{"name": (_STRING, True),
                    "terms": ([{"coef": (_COMPLEX, True), "path": (_PATH, True)}, 1, None],
                              True)}, 0, None], False),
    "cycles": ([{"name": (_STRING, True), "path": (_PATH, True)}, 0, None], False),
    "integrator": ({**{key: (_POSITIVE, False) for key in ("rel_tol", "abs_tol", "max_step",
                                                            "min_step", "max_time", "grad_stop")},
                    "stall_window": (_POSITIVE_INT, False),
                    "max_steps": (_POSITIVE_INT, False)}, False),
    "points": ({"mode": ((lambda v: v in ("explicit", "random"), "'explicit' or 'random'"),
                         True),
                "values": ([{"*": ([[_COMPLEX, 0, None], 0, None], False)}, 0, None], False),
                "count": (_COUNT, False),
                "scale": (_POSITIVE, False)}, False),
    "params": ((lambda v: isinstance(v, dict), "an object"), False),
}


def _fail(field, message):
    return ConfigError(f"config field {field or '<root>'}: {message}", field=field)


def _check(value, rule, field="", context=""):
    """Raise a ConfigError naming the first entry of `value` that breaks
    `rule`: a wrong type or length first, then unknown keys, then the
    rule's keys in order.  `context` qualifies unknown and missing keys."""
    join = (lambda key: f"{field}.{key}") if field else str
    if isinstance(rule, dict):
        if not isinstance(value, dict):
            raise _fail(field, f"expected an object, got {value!r}")
        for key in value:
            if key not in rule and "*" not in rule:
                raise _fail(join(key), f"unknown key{context}; the keys are "
                                       f"{sorted(rule)}")
        for key, (sub, required) in rule.items():
            if key == "*":
                for k, v in value.items():
                    _check(v, sub, join(k))
            elif key in value:
                _check(value[key], sub, join(key))
            elif required:
                raise _fail(join(key), f"required{context}")
    elif isinstance(rule, list):
        item, lo, hi = rule
        if not (isinstance(value, list) and lo <= len(value)
                and (hi is None or len(value) <= hi)):
            size = f"{lo}" if lo == hi else f"at least {lo}" if hi is None else f"{lo} to {hi}"
            raise _fail(field, f"expected a list of {size} entries, got {value!r}")
        for i, v in enumerate(value):
            _check(v, item, join(i))
    elif not rule[0](value):
        raise _fail(field, f"expected {rule[1]}, got {value!r}")


def load_config(path):
    """Parse and validate a config file; returns the config dict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
                          field="") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}", field="") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", field="") from exc
    validate_config(doc)
    return doc


def validate_config(doc):
    """Check `doc` against the rule table, then the cross-references between
    its fields and the params of its experiment; raises ConfigError naming
    the field.  A missing or unknown key is named by its own path, an
    integer must be a JSON integer, and the seed must lie in [0, 2**64)."""
    _check(doc, _DOC)
    exp = doc["experiment"]
    if exp != "retract":
        for key in ("quiver", "dims", "alpha"):
            if key not in doc:
                raise _fail(key, f"required for experiment {exp!r}")
        vertices = doc["quiver"]["vertices"]
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise _fail("quiver.vertices", "duplicate names")
        edge_names = set()
        for i, e in enumerate(doc["quiver"]["edges"]):
            if e["name"] in edge_names:
                raise _fail(f"quiver.edges.{i}.name", "duplicate edge name")
            edge_names.add(e["name"])
            for side in ("tail", "head"):
                if e[side] not in vset:
                    raise _fail(f"quiver.edges.{i}.{side}", f"unknown vertex {e[side]!r}")
        for v in vertices:
            for key in ("dims", "alpha"):
                if v not in doc[key]:
                    raise _fail(f"{key}.{v}", "missing entry")
        from .moment import check_tensor_size

        with _rejected("dims"):
            check_tensor_size(_quiver_of(doc), [doc["dims"][v] for v in vertices])
        for kind in ("relations", "cycles"):
            names = set()       # each name heads a trace monitor column
            for i, item in enumerate(doc.get(kind, [])):
                if item["name"] in names:
                    raise _fail(f"{kind}.{i}.name", f"duplicate {kind[:-1]} name")
                names.add(item["name"])
                paths = [t["path"] for t in item["terms"]] if kind == "relations" else [item["path"]]
                for name in (name for path in paths for name in path):
                    if name not in edge_names:
                        raise _fail(f"{kind}.{i}", f"unknown edge {name!r}")
    pts = doc.get("points")
    if pts is not None:
        if pts["mode"] == "explicit" and "values" not in pts:
            raise _fail("points.values", "required in explicit mode")
        if pts["mode"] == "random":
            if "count" not in pts:
                raise _fail("points.count", "required in random mode")
            if "seed" not in doc:
                raise _fail("seed", "required when points are randomized")
    _check(doc.get("params", {}), _params_rules(doc), "params", f" for experiment {exp!r}")
    if exp == "broken":
        # the family's blocks are 1x1 scalars
        for v in doc["quiver"]["vertices"]:
            if doc["dims"][v] != 1:
                raise _fail(f"dims.{v}", f"expected 1 for experiment 'broken', "
                                         f"got {doc['dims'][v]!r}")
    if exp in ("flow", "critical", "strata", "lines") and "points" not in doc:
        raise _fail("points", f"required for experiment {exp!r}")


def _params_rules(doc):
    """The params keys that the experiment's runner reads, with their rules."""
    exp, params = doc["experiment"], doc.get("params", {})
    edges = [e["name"] for e in doc.get("quiver", {}).get("edges", [])]
    others = [e for e in edges if e != params.get("varying_edge")]
    grid = (lambda g: isinstance(g, list) and len(g) == 2
            and all(type(n) is int and n > 0 for n in g) and g[1] % 2 == 0,
            "[n_rho, n_theta], two positive integers with n_theta even")
    positive = (lambda v: _finite(v) and v > 0, "a positive finite number")
    finite = (_finite, "a finite number")
    table = {
        "flow": {"state_stride": _POSITIVE_INT},
        "critical": {"refine_tol": positive},
        "slice": {"refine_tol": positive, "eps": positive, "seeds": _COUNT,
                  "boundedness": (lambda v: type(v) is bool, "a boolean")},
        "strata": {},
        "lines": {"z": finite},
        "broken": {
            "varying_edge": (lambda v: v in edges, f"one of the edges {edges}"),
            "fixed": (lambda v: isinstance(v, dict) and all(_pair(v.get(e)) for e in others),
                      f"an [re, im] pair for each of the edges {others}"),
            "varying_direction": (_pair, "an [re, im] pair of finite numbers"),
            "scales": (lambda v: isinstance(v, list) and len(v) > 0 and all(map(_finite, v)),
                       "a non-empty list of finite numbers"),
            "levels": (lambda v: isinstance(v, list) and all(map(_finite, v)),
                       "a list of finite numbers"),
            "limit_scale": finite},
        "retract": {"eps": positive, "delta": positive, "grid": grid, "refine": grid,
                    "rho_max": positive, "probe_width": positive,
                    "saddle_probe_width": positive},
        "variety": {"refine_tol": positive, "residual_tol": positive, "eps": positive,
                    "seeds": _COUNT},
        "check": {"trials": _POSITIVE_INT},
    }
    required = ("z", "varying_edge", "fixed", "varying_direction", "scales", "levels")  # no default
    return {key: (rule, key in required) for key, rule in table[exp].items()}


@contextmanager
def _rejected(field):
    """Report a package constructor's rejection of a config value as a
    ConfigError naming its field."""
    try:
        yield
    except (QuiverFlowError, ValueError) as exc:
        raise _fail(field, str(exc)) from exc


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
    """Load the experiment's modules, then materialize quiver, shifts,
    relations, integrator, and points; a value that their constructors
    reject is a ConfigError naming its field.  A retract model has no
    integrator unless the config has an ``integrator`` section."""
    exp = doc["experiment"]
    for name in EXPERIMENTS[exp]:
        importlib.import_module(f"{__package__}.{name}")
    integrator = None
    if exp != "retract" or "integrator" in doc:
        from .flow import IntegratorConfig

        with _rejected("integrator"):
            integrator = IntegratorConfig(**doc.get("integrator", {}))
    if exp == "retract":
        return Model(None, None, None, (), (), integrator, [], doc)
    from .moment import CentralShift
    from .quiver import CycleWord, Relation

    vertices = doc["quiver"]["vertices"]
    quiver = _quiver_of(doc)
    dims = tuple(doc["dims"][v] for v in vertices)
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


def _quiver_of(doc):
    from .quiver import Quiver

    qd = doc["quiver"]
    return Quiver.from_lists(qd["vertices"], [(e["name"], e["tail"], e["head"])
                                              for e in qd["edges"]])


def _points_of(doc, quiver, dims):
    from .quiver import Representation

    pts = doc.get("points")
    if pts is None:
        return []
    if pts["mode"] == "explicit":
        out = []
        for i, val in enumerate(pts["values"]):
            blocks = []
            for a, name in enumerate(quiver.edges):
                if name not in val:
                    raise _fail(f"points.values.{i}.{name}", "missing edge block")
                with _rejected(f"points.values.{i}.{name}"):
                    blocks.append(quiver.check_block(a, dims, _matrix_of(val[name])))
            out.append(Representation(quiver, dims, tuple(blocks)))
        return out
    scale = float(pts.get("scale", 1.0))
    with _rejected("points.scale"):
        return [Representation.random(quiver, dims, rng_for(doc["seed"], i), scale=scale)
                for i in range(pts["count"])]


def rng_for(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, item index)."""
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
