"""Experiment runners: resolve a config into artifacts under an archive dir.

At import this module loads only the archive writers and renderers.  Each
``_run_*`` imports what it calls from the modules that
``runconfig.EXPERIMENTS`` lists for its experiment, which ``build_model``
has already loaded, so a run compiles no package code and a retract run
never loads the flow code.  The imports sit inside the functions, so they
read each module's attribute at call time, as re-bound by a tracer or a
test patch."""

from __future__ import annotations

import os
import time
import warnings

import numpy as np

from . import __version__
from .archive import (
    checkpoints_csv,
    fiber_jsonable,
    record_jsonable,
    slice_csv,
    trace_csv,
    trace_jsonable,
    write_json,
    write_text,
)

__all__ = ["run_experiment"]


def run_experiment(model, out_dir, threads: int = 1):
    """Execute the model's experiment and write the archive; returns a summary.

    ``threads`` is accepted and ignored: a point list flows as one batch."""
    started = time.time()
    os.makedirs(os.path.join(out_dir, "outputs"), exist_ok=True)
    runner = _RUNNERS[model.doc["experiment"]]
    # the snapshot comes first so that a failed run can still be reproduced
    write_json(os.path.join(out_dir, "config.json"), model.doc)
    summary = runner(model, out_dir)
    write_json(os.path.join(out_dir, "meta.json"), {
        "tool": "quiverflow",
        "version": __version__,
        "wall_clock_s": time.time() - started,
    })
    return summary


def _out(out_dir, name):
    return os.path.join(out_dir, "outputs", name)


def _run_flow(model, out_dir):
    from .flow import integrate_many

    stride = int(model.params.get("state_stride", 1))
    traces = [tr.with_monitors(model.cycles, model.relations)
              for tr in integrate_many(model.points, model.alpha, model.integrator)]
    doc = {"traces": [trace_jsonable(tr, stride) for tr in traces]}
    write_json(_out(out_dir, "traces.json"), doc)
    for i, tr in enumerate(doc["traces"]):
        write_text(_out(out_dir, f"trace_{i:03d}.csv"), trace_csv(tr))
    return {"experiment": "flow", "n_traces": len(traces),
            "statuses": [tr.status for tr in traces]}


def _run_critical(model, out_dir):
    from .critical import morse_index_check, negative_slice, refine_critical, weight_decomposition
    from .flow import integrate_many
    from .strata import LABEL_REFINE_TOL

    tol = float(model.params.get("refine_tol", LABEL_REFINE_TOL))

    def one(tr):
        if tr.status != "converged":
            return {"status": tr.status}
        rec = refine_critical(tr.final, model.alpha, tol=tol, cfg=model.integrator)
        wd = weight_decomposition(rec)
        fib = negative_slice(rec, wd)
        idx = morse_index_check(rec, fib, model.alpha)
        return {
            "status": "converged",
            "record": record_jsonable(rec),
            "slice_dim": fib.dim,
            "hessian_index": idx.hessian_index,
            "hessian_spectrum": idx.eigenvalues,
            "index_agree": idx.agree,
            "index_status": idx.status,
        }

    results = [one(tr) for tr in integrate_many(model.points, model.alpha, model.integrator)]
    write_json(_out(out_dir, "records.json"), {"records": results})
    return {"experiment": "critical", "n_points": len(results),
            "converged": sum(1 for r in results if r["status"] == "converged")}


def _slice_data(model):
    from .critical import negative_slice, refine_critical, weight_decomposition
    from .quiver import Representation
    from .strata import LABEL_REFINE_TOL

    x0 = model.points[0] if model.points else Representation.zero(model.quiver, model.dims)
    rec = refine_critical(x0, model.alpha,
                          tol=float(model.params.get("refine_tol", LABEL_REFINE_TOL)),
                          cfg=model.integrator)
    wd = weight_decomposition(rec)
    fib = negative_slice(rec, wd)
    return rec, wd, fib


def _run_slice(model, out_dir):
    from .critical import morse_index_check, unstable_boundedness_check

    rec, wd, fib = _slice_data(model)
    idx = morse_index_check(rec, fib, model.alpha)
    doc = {
        "record": record_jsonable(rec),
        "weights": wd.edge_weights,
        "offband_mass": wd.offband_mass,
        "fiber": fiber_jsonable(fib),
        "index": {"slice_dim": idx.slice_dim, "hessian_index": idx.hessian_index,
                  "agree": idx.agree, "status": idx.status,
                  "hessian_spectrum": idx.eigenvalues},
    }
    if model.params.get("boundedness", True) and fib.dim > 0:
        doc["boundedness"] = unstable_boundedness_check(
            rec, fib, model.alpha,
            eps=float(model.params.get("eps", 1.0)),
            seeds=int(model.params.get("seeds", 8)),
            cfg=model.integrator)
    write_json(_out(out_dir, "slice.json"), doc)
    write_text(_out(out_dir, "slice.csv"), slice_csv(doc))
    return {"experiment": "slice", "slice_dim": fib.dim,
            "hessian_index": idx.hessian_index, "agree": idx.agree}


def _run_strata(model, out_dir):
    from .strata import stratum_labels

    labels = [{"status": lab.status, "spectra": lab.spectra,
               "f_limit": lab.f_limit if lab.status == "converged" else None}
              for lab in stratum_labels(model.points, model.alpha, model.integrator)]
    write_json(_out(out_dir, "labels.json"), {"labels": labels})
    return {"experiment": "strata", "n_points": len(labels)}


def _run_lines(model, out_dir):
    from .strata import flow_lines

    z = float(model.params["z"])

    def one(fl):
        if isinstance(fl, Exception):
            return {"status": "error", "error": str(fl)}
        return {
            "status": "ok",
            "z": fl.z,
            "backward_status": fl.backward_status,
            "lower": record_jsonable(fl.lower),
            "upper": record_jsonable(fl.upper) if fl.upper else None,
        }

    lines = [one(fl) for fl in flow_lines(model.points, z, model.alpha, model.integrator)]
    write_json(_out(out_dir, "lines.json"), {"lines": lines})
    return {"experiment": "lines", "n_anchors": len(lines)}


def _run_broken(model, out_dir):
    from .quiver import Representation
    from .strata import broken_line_experiment

    p = model.params
    fixed = {k: v for k, v in p["fixed"].items()}
    edge = p["varying_edge"]
    direction = complex(p["varying_direction"][0], p["varying_direction"][1])
    scales = [float(s) for s in p["scales"]]
    levels = [float(r) for r in p["levels"]]
    q, dims = model.quiver, model.dims

    def family(s):
        blocks = []
        for a in range(q.n_edges):
            name = q.edges[a]
            if name == edge:
                blocks.append(np.array([[s * direction]], dtype=complex))
            else:
                c = fixed[name]
                blocks.append(np.array([[complex(c[0], c[1])]], dtype=complex))
        return Representation(q, dims, tuple(blocks))

    rep = broken_line_experiment(family, scales, model.alpha, levels,
                                 model.integrator, limit_param=float(p.get("limit_scale", 0.0)))
    doc = {
        "levels": rep.levels,
        "params": rep.params,
        "chain_values": rep.chain_values,
        "chain": [record_jsonable(r) for r in rep.chain],
        "strictly_decreasing": rep.strictly_decreasing,
        "single_line": rep.single_line,
        "successive_distances": rep.successive_distances,
        "checkpoints": [[None if y is None else y.flatten() for y in col]
                        for col in rep.checkpoints],
        "membership": rep.checkpoint_membership,
        "dwell_fractions": rep.dwell_fractions,
    }
    write_json(_out(out_dir, "broken.json"), doc)
    write_text(_out(out_dir, "checkpoints.csv"), checkpoints_csv(doc))
    return {"experiment": "broken", "chain_values": doc["chain_values"],
            "single_line": rep.single_line}


def _run_retract(model, out_dir):
    from .retract import SaddleScene, SlitScene, condition4_probe, connectivity_census

    p = model.params
    eps = float(p.get("eps", 0.1))
    delta = float(p.get("delta", 0.5))
    grid = p.get("grid", [400, 400])
    refined = p.get("refine", [2 * grid[0], 2 * grid[1]])
    rho_max = float(p.get("rho_max", 3.0))
    slit = SlitScene(eps=eps)
    saddle = SaddleScene(eps=eps, delta=delta)

    counts = {}
    grids = {}
    for tag, (nr, nt) in (("base", grid), ("refined", refined)):
        counts[tag] = {}
        for name, level, with_unstable in (("low_with_unstable", -eps, True),
                                           ("high", eps, False)):
            count, labels, (rho, theta, mask) = connectivity_census(
                slit, level, with_unstable, n_rho=nr, n_theta=nt, rho_max=rho_max)
            counts[tag][name] = count
            # only the base grids are archived, as runs; the refined ones give counts
            if tag == "base":
                grids[name] = {"count": count, "rho": rho, "theta": theta,
                               "label_values": labels.values, "label_lengths": labels.lengths}
            del mask    # the one per-cell array: free it before the next, finer census
        counts[tag]["grid"] = [nr, nt]

    probe_slit = condition4_probe(slit, u_width=float(p.get("probe_width", np.pi / 3)))
    probe_saddle = condition4_probe(saddle, u_width=float(p.get("saddle_probe_width", delta)))

    def pt(x):
        return None if x is None else [x.u, x.v]

    stable = (counts["base"]["low_with_unstable"] == counts["refined"]["low_with_unstable"]
              and counts["base"]["high"] == counts["refined"]["high"])
    if not stable:
        warnings.warn(
            f"census unstable under refinement: {counts['base']} vs {counts['refined']}",
            stacklevel=2)
    doc = {
        "scene": {"eps": eps, "delta": delta},
        "census_counts": counts,
        "census_grids": grids,
        "stable_under_refinement": stable,
        "condition4": {
            "slit_quotient": {"holds": probe_slit["holds"],
                              "witness_sample": pt(probe_slit["witness"]["sample"]) if probe_slit["witness"] else None,
                              "witness_landing": pt(probe_slit["witness"]["landing"]) if probe_slit["witness"] else None},
            "smooth_saddle": {"holds": probe_saddle["holds"],
                              "witness_sample": pt(probe_saddle["witness"]["sample"]) if probe_saddle["witness"] else None},
        },
    }
    # the census CSVs are rendered from retract.json by `export --what census`
    write_json(_out(out_dir, "retract.json"), doc)
    return {"experiment": "retract",
            "counts": counts["base"],
            "condition4_slit": probe_slit["holds"],
            "condition4_saddle": probe_saddle["holds"]}


def _run_variety(model, out_dir):
    from .subvariety import SubvarietySpec, slice_variety_probe

    spec = SubvarietySpec(model.relations,
                          residual_tol=float(model.params.get("residual_tol", 1e-10)))
    rec, wd, fib = _slice_data(model)
    probe = slice_variety_probe(
        rec, fib, spec, model.alpha,
        eps=float(model.params.get("eps", 0.4)),
        cfg=model.integrator,
        n_seeds=int(model.params.get("seeds", 6)))
    doc = {"record": record_jsonable(rec), "fiber_dim": fib.dim, "probe": probe}
    write_json(_out(out_dir, "variety.json"), doc)
    return {"experiment": "variety", "fiber_dim": probe["fiber_dim"],
            "linear_dim": probe["linear_dim"], "flagged": probe["flagged"]}


def _run_check(model, out_dir):
    from .checks import run_checks

    results = run_checks(model, trials=int(model.params.get("trials", 3)))
    write_json(_out(out_dir, "checks.json"), {"checks": results})
    failed = [r["name"] for r in results if not r["passed"]]
    return {"experiment": "check", "n_checks": len(results), "failed": failed}


_RUNNERS = {
    "flow": _run_flow,
    "critical": _run_critical,
    "slice": _run_slice,
    "strata": _run_strata,
    "lines": _run_lines,
    "broken": _run_broken,
    "retract": _run_retract,
    "variety": _run_variety,
    "check": _run_check,
}
