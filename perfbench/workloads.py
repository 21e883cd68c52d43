"""Benchmark workloads: configs generated from a seed, unit counts and oracles.

This module does not import quiverflow.  It builds complete config
documents (nothing is read from the bundled configs, so a later change to
them cannot move the benchmark's inputs), names the operations each run
attempts, and checks a finished run's archive JSON against closed-form
oracles.  The same seed always gives the same documents.

Seeds vary inputs only inside ranges where the oracles are known to hold.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# The seed a run uses when none is given, and a second seed kept out of
# tuning so that a later speed-up claim can be checked on unseen inputs.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

_INTEGRATOR = {"rel_tol": 1e-10, "abs_tol": 1e-13, "max_time": 300.0}

# Rank-two star quiver (three rank-one arms into a rank-two centre):
# real state dimension 12.
_STAR = {
    "quiver": {"vertices": ["c", "1", "2", "3"],
               "edges": [{"name": "a", "tail": "1", "head": "c"},
                         {"name": "b", "tail": "2", "head": "c"},
                         {"name": "d", "tail": "3", "head": "c"}]},
    "dims": {"c": 2, "1": 1, "2": 1, "3": 1},
    "alpha": {"c": 0.9, "1": -0.7, "2": -0.5, "3": -0.3},
}

# Two decoupled one-edge factors, saddle value 1 each, so the critical
# values are exactly {0, 1, 2}: real state dimension 4.
_H = 1.0 / math.sqrt(2.0)
_PAIR = {
    "quiver": {"vertices": ["1", "2", "3", "4"],
               "edges": [{"name": "a", "tail": "1", "head": "2"},
                         {"name": "b", "tail": "3", "head": "4"}]},
    "dims": {"1": 1, "2": 1, "3": 1, "4": 1},
    "alpha": {"1": -_H, "2": _H, "3": -_H, "4": _H},
}

# One edge 1 -> 2, minima on |x|^2 = 2.
_A2 = {
    "quiver": {"vertices": ["1", "2"], "edges": [{"name": "a", "tail": "1", "head": "2"}]},
    "dims": {"1": 1, "2": 1},
    "alpha": {"1": -1.0, "2": 1.0},
}

# Three vertices in a row with the composed-path relation b . a = 0.
_A3_CHAIN = {
    "quiver": {"vertices": ["1", "2", "3"],
               "edges": [{"name": "a", "tail": "1", "head": "2"},
                         {"name": "b", "tail": "2", "head": "3"}]},
    "dims": {"1": 1, "2": 1, "3": 1},
    "alpha": {"1": -1.0, "2": 0.0, "3": 1.0},
    "relations": [{"name": "ba", "terms": [{"coef": [1.0, 0.0], "path": ["a", "b"]}]}],
}

ENSEMBLE_STAR_POINTS = 6
ENSEMBLE_PAIR_POINTS = 12
BROKEN_SCALES = [0.01 * 2.0 ** (-n) for n in range(16)]
CENSUS_GRID, CENSUS_REFINED = (400, 400), (800, 800)
VARIETY_FIBER_DIM = 4       # fiber and linear dimension of the bundled a3 probe
VARIETY_LINEAR_DIM = 4
VARIETY_SEEDS = 6


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _random_points(quiver, dims, count, rng):
    """Explicit point values: complex Gaussian blocks, scale 1."""
    shapes = {e["name"]: (dims[e["head"]], dims[e["tail"]]) for e in quiver["edges"]}
    points = []
    for _ in range(count):
        point = {}
        for name, (m, n) in shapes.items():
            re = rng.standard_normal((m, n))
            im = rng.standard_normal((m, n))
            point[name] = [[[float(re[i, j]), float(im[i, j])] for j in range(n)]
                           for i in range(m)]
        points.append(point)
    return points


def _critical_doc(scene, points):
    return {"schema": "quiverflow/1", "experiment": "critical", **scene,
            "integrator": dict(_INTEGRATOR), "params": {"refine_tol": 1e-10},
            "points": {"mode": "explicit", "values": points}}


# ---------------------------------------------------------------------------
# config generation


def _ensemble_configs(seed):
    star = _random_points(_STAR["quiver"], _STAR["dims"], ENSEMBLE_STAR_POINTS, _rng(seed, 0))
    pair = _random_points(_PAIR["quiver"], _PAIR["dims"], ENSEMBLE_PAIR_POINTS, _rng(seed, 4))
    return [_critical_doc(_STAR, star), _critical_doc(_PAIR, pair)]


def _broken_configs(seed):
    rng = _rng(seed, 1)
    a = float(rng.uniform(0.3, 0.4))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    return [{
        "schema": "quiverflow/1", "experiment": "broken", **_PAIR,
        "integrator": {**_INTEGRATOR, "max_time": 400.0},
        "params": {"fixed": {"a": [a, 0.0]}, "varying_edge": "b",
                   "varying_direction": [math.cos(phase), math.sin(phase)],
                   "scales": list(BROKEN_SCALES), "levels": [1.5, 0.5],
                   "limit_scale": 0.0},
    }]


def _census_configs(seed):
    rng = _rng(seed, 2)
    return [{
        "schema": "quiverflow/1", "experiment": "retract", "seed": 0,
        "params": {"eps": float(rng.uniform(0.06, 0.14)), "delta": 0.5,
                   "grid": list(CENSUS_GRID), "refine": list(CENSUS_REFINED),
                   "rho_max": 3.0, "probe_width": math.pi / 3.0,
                   "saddle_probe_width": 0.5},
    }]


def _battery_configs(seed):
    rng = _rng(seed, 3)
    check = {"schema": "quiverflow/1", "experiment": "check", **_A2,
             "seed": int(rng.integers(0, 2 ** 31 - 1)),
             "integrator": {**_INTEGRATOR, "max_time": 200.0}, "params": {"trials": 3},
             "points": {"mode": "random", "count": 3, "scale": 1.0}}
    zero = {"a": [[[0.0, 0.0]]], "b": [[[0.0, 0.0]]]}
    variety = {"schema": "quiverflow/1", "experiment": "variety", **_A3_CHAIN,
               "seed": 13, "integrator": {**_INTEGRATOR, "max_time": 200.0},
               "params": {"eps": 0.4, "residual_tol": 1e-10, "seeds": VARIETY_SEEDS},
               "points": {"mode": "explicit", "values": [zero]}}
    return [check, variety]


# ---------------------------------------------------------------------------
# oracles: each returns {operation name: passed}


def _load(archive, name):
    with open(os.path.join(archive, "outputs", name), encoding="utf-8") as fh:
        return json.load(fh)


def _ensemble_oracle(docs, archives):
    verdicts = {}
    for tag, doc, archive in zip(("star", "pair"), docs, archives):
        records = _load(archive, "records.json")["records"]
        for i, rec in enumerate(records):
            ok = (rec["status"] == "converged"
                  and (rec["index_agree"] or rec["index_status"] == "indeterminate"))
            if ok and tag == "pair":
                f_crit = rec["record"]["f_crit"]
                ok = min(abs(f_crit - v) for v in (0.0, 1.0, 2.0)) <= 1e-9
            verdicts[f"{tag}.point{i}"] = bool(ok)
    return verdicts


def _broken_oracle(docs, archives):
    doc = _load(archives[0], "broken.json")
    values = doc["chain_values"]
    verdicts = {"chain_length": len(values) == 3,
                "strictly_decreasing": bool(doc["strictly_decreasing"])}
    for k, want in enumerate((2.0, 1.0, 0.0)):
        verdicts[f"chain_value{k}"] = k < len(values) and abs(values[k] - want) <= 1e-8
    for k, dists in enumerate(doc["successive_distances"]):
        verdicts[f"level{k}.final_distance"] = (
            all(d is not None for d in dists) and dists[-1] < 1e-6)
    for n in range(len(doc["params"])):
        verdicts[f"member{n}.checkpoints"] = all(
            col[n] is not None for col in doc["checkpoints"])
    return verdicts


def _census_oracle(docs, archives):
    doc = _load(archives[0], "retract.json")
    verdicts = {}
    for tag in ("base", "refined"):
        counts = doc["census_counts"][tag]
        verdicts[f"{tag}.low_with_unstable"] = counts["low_with_unstable"] == 2
        verdicts[f"{tag}.high"] = counts["high"] == 1
    slit = doc["condition4"]["slit_quotient"]
    verdicts["slit.condition4_fails"] = (not slit["holds"]) and slit["witness_sample"] is not None
    verdicts["saddle.condition4_holds"] = bool(doc["condition4"]["smooth_saddle"]["holds"])
    return verdicts


def _battery_oracle(docs, archives):
    verdicts = {f"check.{c['name']}": bool(c["passed"])
                for c in _load(archives[0], "checks.json")["checks"]}
    probe = _load(archives[1], "variety.json")["probe"]
    verdicts["variety.fiber_dim"] = probe["fiber_dim"] == VARIETY_FIBER_DIM
    verdicts["variety.linear_dim"] = probe.get("linear_dim") == VARIETY_LINEAR_DIM
    seeds = probe["seeds"]
    for i in range(VARIETY_SEEDS):
        verdicts[f"variety.seed{i}"] = i < len(seeds) and seeds[i].get("error") is None
    return verdicts


# ---------------------------------------------------------------------------


class Workload:
    """One workload: its configs for a seed, its oracle, and what it counts.

    ``units`` is the count behind ``items_per_s``; ``ops`` is the number of
    oracle verdicts one sample gives, so that a crashed sample counts as
    failed in full.
    """

    def __init__(self, name, configs, oracle, units, unit_name, ops, why, roadmap):
        self.name = name
        self.configs = configs
        self.oracle = oracle
        self.units = units
        self.unit_name = unit_name
        self.ops = ops
        self.why = why
        self.roadmap = roadmap


def _combined(name, parts, why, roadmap):
    """A workload that runs the configs of ``parts`` one after another."""
    sizes = [len(p.configs(DEFAULT_SEED)) for p in parts]

    def configs(seed):
        return [doc for p in parts for doc in p.configs(seed)]

    def oracle(docs, archives):
        verdicts, pos = {}, 0
        for p, n in zip(parts, sizes):
            for op, ok in p.oracle(docs[pos:pos + n], archives[pos:pos + n]).items():
                verdicts[f"{p.name}.{op}"] = ok
            pos += n
        return verdicts

    return Workload(name, configs, oracle, sum(p.units for p in parts),
                    ", ".join(p.unit_name for p in parts), sum(p.ops for p in parts),
                    why, roadmap)


ENSEMBLE = Workload(
    "ensemble", _ensemble_configs, _ensemble_oracle,
    ENSEMBLE_STAR_POINTS + ENSEMBLE_PAIR_POINTS, "seed points",
    ENSEMBLE_STAR_POINTS + ENSEMBLE_PAIR_POINTS,
    "many short trajectories with no level events, at state dimensions 12 and 4",
    "items 2-3: flat kernel, batched integrator, matrix-free index check")
BROKEN = Workload(
    "broken", _broken_configs, _broken_oracle,
    len(BROKEN_SCALES), "family members", 7 + len(BROKEN_SCALES),
    "few long trajectories that dwell near a saddle and cross levels",
    "item 4a: one pass, many events; flat traces")
CENSUS = Workload(
    "census", _census_configs, _census_oracle,
    2 * (CENSUS_GRID[0] * CENSUS_GRID[1] + CENSUS_REFINED[0] * CENSUS_REFINED[1]),
    "census grid cells", 6,
    "no flow or moment calls: union-find census and an 18 MB archive",
    "item 4b: vectorized census and archive shrink")
BATTERY = Workload(
    "battery", _battery_configs, _battery_oracle,
    13 + VARIETY_SEEDS, "checks and probe seeds", 13 + 2 + VARIETY_SEEDS,
    "the only experiments reaching checks and subvariety",
    "items 2-3 on the check battery and the variety projection")

# The run budget allows two workloads of 60 s each (shorter runs do not
# average out this host's noise), so the three flow-driven workloads run
# together as ``flows``; each stays runnable on its own.
WORKLOADS = {w.name: w for w in (
    _combined("flows", (ENSEMBLE, BROKEN, BATTERY),
              "every flow-driven layer: short trajectories, a long saddle-dwelling "
              "family with level crossings, the check battery and the variety probe",
              "items 2-4a"),
    CENSUS, ENSEMBLE, BROKEN, BATTERY,
)}
