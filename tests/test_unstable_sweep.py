"""One unstable-seed sweep serves the three unstable-set reports.

``critical.unstable_sweep`` seeds unit fiber directions around a critical
record and flows every seed as one ``integrate_many`` batch to the level
f_crit - eps.  Each row must be bitwise the lone run from its seed, the
seeds must be the per-row formula ``x0 + seed_radius * (basis @ dirs[i])``,
and ``unstable_boundedness_check`` and ``slice_variety_probe`` must each
flow their seeds in one batch.  A seed
that starts on the level is its own sample there, and one past the level is
its own one-sample ``past_level`` trace, as a lone run gives it.
"""

import numpy as np
import pytest

from quiverflow.quiver import Quiver, Representation
from quiverflow.moment import CentralShift, f_value
from quiverflow.flow import IntegratorConfig
from quiverflow.critical import (
    fiber_directions,
    negative_slice,
    refine_critical,
    unstable_boundedness_check,
    unstable_sweep,
    weight_decomposition,
)
from quiverflow import critical, flow
from quiverflow.errors import ProjectionFailedError, QuiverFlowError
from quiverflow.presets import A2_ALPHA, a2, a3_chain, scalar_rep
from quiverflow.subvariety import (
    SubvarietySpec,
    _snap_branches,
    project_to_variety,
    slice_variety_probe,
)

from conftest import lone_flow, tau_level

CFG = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=200.0)
A3_ALPHA = CentralShift((-1.0, 0.0, 1.0))


def a2_saddle():
    q, dims = a2()
    rec = refine_critical(scalar_rep(q, dims, [0.0]), A2_ALPHA, tol=1e-10)
    return rec, negative_slice(rec, weight_decomposition(rec)), A2_ALPHA


def a3_origin():
    q, dims, rel = a3_chain()
    rec = refine_critical(Representation.zero(q, dims), A3_ALPHA, tol=1e-10)
    return rec, negative_slice(rec, weight_decomposition(rec)), SubvarietySpec((rel,))


def star_origin():
    q = Quiver.from_lists(["c", "1", "2", "3"],
                          [("a", "1", "c"), ("b", "2", "c"), ("d", "3", "c")])
    alpha = CentralShift((0.9, -0.7, -0.5, -0.3))
    rec = refine_critical(Representation.zero(q, (2, 1, 1, 1)), alpha, tol=1e-10)
    return rec, negative_slice(rec, weight_decomposition(rec)), alpha


def projector(spec):
    def project(seed):
        seed_z, moved = project_to_variety(seed, spec)
        seed_z, snapped = _snap_branches(seed_z, spec)
        return seed_z, {"projection_moved": moved, "snapped_blocks": snapped}
    return project


def assert_same_trace(tr, ref):
    assert tr.status == ref.status
    for name in ("ts", "states", "fs", "gradnorms"):
        assert np.array_equal(getattr(tr, name), getattr(ref, name)), name
    assert np.array_equal(np.asarray(tr.steps), np.asarray(ref.steps))
    assert tr.monitors.keys() == ref.monitors.keys()
    for name in ref.monitors:
        assert np.array_equal(tr.monitors[name], ref.monitors[name]), name


def sweep_cases():
    rec, fib, alpha = a2_saddle()
    yield "a2", rec, fib.basis, alpha, 1.0, 8, (), None
    rec, fib, spec = a3_origin()
    yield "a3", rec, fib.basis, A3_ALPHA, 0.4, 6, spec.relations, projector(spec)
    rec, fib, alpha = star_origin()
    yield "star", rec, fib.basis, alpha, 0.5, 5, (), None


@pytest.mark.parametrize("case", list(sweep_cases()), ids=lambda c: c[0])
def test_rows_equal_lone_runs_from_the_parent_seeds(case):
    _, rec, basis, alpha, eps, n, relations, project = case
    sweep = unstable_sweep(rec, basis, alpha, eps, n, CFG, project=project)
    assert len(sweep) == n
    q, dims = rec.x.quiver, rec.x.dims
    x0_flat = rec.x.flatten()
    dirs = fiber_directions(basis.shape[1], n)
    for i, s in enumerate(sweep):
        # the per-seed loops' own arithmetic, row by row
        vec = basis @ dirs[i]
        expect = Representation.unflatten(q, dims, x0_flat + 1e-4 * vec)
        assert np.array_equal(s["direction"], dirs[i])
        assert np.array_equal(s["seed"].flatten(), expect.flatten())
        if project is None:
            assert s["start"] is s["seed"] and s["notes"] == {}
        else:
            start, notes = project(expect)
            assert np.array_equal(s["start"].flatten(), start.flatten())
            assert s["notes"] == notes
        assert s["error"] is None
        assert s["trace"].status == "exited_level"
        lone = lone_flow(s["start"], alpha, CFG, stop_level=rec.f_crit - eps)
        assert_same_trace(s["trace"].with_monitors(relations=relations),
                          lone.with_monitors(relations=relations))


def test_a_failed_projection_sits_beside_seeds_that_flow():
    rec, fib, alpha = a2_saddle()

    def project(seed):
        if seed.blocks[0][0, 0].imag > 0:
            raise ProjectionFailedError("no projection for this seed")
        return seed, {"kept": True}

    sweep = unstable_sweep(rec, fib.basis, alpha, 1.0, 8, CFG, project=project)
    failed = [s for s in sweep if s["error"] is not None]
    flowed = [s for s in sweep if s["error"] is None]
    assert failed and flowed
    for s in failed:
        assert s["error"] == "no projection for this seed"
        assert s["trace"] is None and s["start"] is None and s["notes"] == {}
    for s in flowed:
        assert s["notes"] == {"kept": True}
        assert_same_trace(s["trace"], lone_flow(s["start"], alpha, CFG, stop_level=1.0))


def test_a_batch_error_is_recorded_on_every_flowed_seed(monkeypatch):
    def broken(*args, **kwargs):
        raise QuiverFlowError("step size underflow in integrate_many")

    monkeypatch.setattr(critical, "integrate_many", broken)
    rec, fib, alpha = a2_saddle()

    def project(seed):
        if seed.blocks[0][0, 0].imag > 0:
            raise ProjectionFailedError("no projection for this seed")
        return seed, {"kept": True}

    sweep = unstable_sweep(rec, fib.basis, alpha, 1.0, 8, CFG, project=project)
    assert all(s["trace"] is None for s in sweep)
    assert {s["error"] for s in sweep} == {"no projection for this seed",
                                           "step size underflow in integrate_many"}
    assert all(s["error"] == "step size underflow in integrate_many"
               for s in sweep if s["start"] is not None)

    # the reports stay well-formed
    rep = unstable_boundedness_check(rec, fib, alpha, eps=1.0, seeds=4, cfg=CFG)
    assert rep["reached"] == [False] * 4 and len(rep["failures"]) == 4
    assert rep["max_distance"] == 0.0 and rep["theta"] is None and not rep["bounded"]
    probe = slice_variety_probe(rec, fib, SubvarietySpec(()), alpha, eps=1.0, cfg=CFG,
                                n_seeds=4)
    assert probe["flagged"] and len(probe["seeds"]) == 4
    for e in probe["seeds"]:
        assert e["error"] == "step size underflow in integrate_many"
        assert e["time"] is None and e["residual_ok"] is None
        assert e["projection_moved"] == 0.0


def count_batches(monkeypatch):
    """Record (rows, stop_level) of every integrate_many call, lone runs included."""
    calls = []

    def counting(inner):
        def wrapped(x0s, alpha, cfg, direction=1, stop_level=None, *args, **kwargs):
            calls.append((len(x0s), stop_level))
            return inner(x0s, alpha, cfg, direction, stop_level, *args, **kwargs)
        return wrapped

    original = flow.integrate_many
    monkeypatch.setattr(flow, "integrate_many", counting(original))
    monkeypatch.setattr(critical, "integrate_many", counting(original), raising=False)
    return calls


def test_each_report_flows_its_seeds_in_one_batch(monkeypatch):
    calls = count_batches(monkeypatch)
    rec, fib, alpha = a2_saddle()

    rep = unstable_boundedness_check(rec, fib, alpha, eps=1.0, seeds=8, cfg=CFG)
    assert all(rep["reached"])
    # one forward batch to the level; the theta fit flows backward without one
    assert [c for c in calls if c[1] is not None] == [(8, rec.f_crit - 1.0)]

    calls.clear()
    rec3, fib3, spec = a3_origin()
    probe = slice_variety_probe(rec3, fib3, spec, A3_ALPHA, eps=0.4, cfg=CFG, n_seeds=6)
    assert all(e["error"] is None for e in probe["seeds"])
    assert calls == [(6, rec3.f_crit - 0.4)]


def star_drops(n):
    rec, fib, alpha = star_origin()
    x0_flat = rec.x.flatten()
    seeds = [Representation.unflatten(rec.x.quiver, rec.x.dims, x0_flat + 1e-4 * (fib.basis @ d))
             for d in fiber_directions(fib.dim, n)]
    return rec, fib, alpha, seeds, [rec.f_crit - f_value(x, alpha) for x in seeds]


def test_seeds_past_the_level_keep_their_own_results():
    # eps is the median of the seeds' own drops of f, so three of the six
    # seeds start past f_crit - eps; per-seed runs reached [T, F, T, F, F, T]
    rec, fib, alpha, seeds, drops = star_drops(6)
    eps = float(np.median(drops))
    level = rec.f_crit - eps
    past = [False, True, False, True, True, False]
    assert [f_value(x, alpha) <= level for x in seeds] == past

    sweep = unstable_sweep(rec, fib.basis, alpha, eps, 6, CFG)
    for s, p in zip(sweep, past):
        assert s["error"] is None
        assert s["trace"].status == ("past_level" if p else "exited_level")
        assert_same_trace(s["trace"], lone_flow(s["start"], alpha, CFG, stop_level=level))

    rep = unstable_boundedness_check(rec, fib, alpha, eps=eps, seeds=6, cfg=CFG)
    assert rep["reached"] == [True, False, True, False, False, True]
    assert rep["failures"] == [{"seed": i, "error": "seed stopped with status past_level"}
                               for i in (1, 3, 4)]

    probe = slice_variety_probe(rec, fib, SubvarietySpec(()), alpha, eps=eps, cfg=CFG,
                                n_seeds=6)
    assert [e["error"] for e in probe["seeds"]] == [
        "flow stopped with status past_level" if p else None for p in past]
    assert [e["residual_ok"] for e in probe["seeds"]] == [None if p else True for p in past]


def test_a_seed_on_the_level_is_its_own_sample():
    rec, fib, alpha, seeds, drops = star_drops(6)
    level = rec.f_crit - drops[0]
    assert abs(f_value(seeds[0], alpha) - level) <= 1e-14 * (1.0 + abs(level))
    # the level map leaves the seed where it is, and so does the sweep: seed 0 is
    # its own one-sample trace on the level, and so is each of the five past it
    t, y = tau_level(seeds[0], alpha, level, CFG)
    assert t == 0.0 and y is seeds[0]
    sweep = unstable_sweep(rec, fib.basis, alpha, drops[0], 6, CFG)
    tr = sweep[0]["trace"]
    assert sweep[0]["error"] is None and tr.status == "exited_level"
    assert tr.n_samples == 1 and tr.ts[0] == 0.0 and tr.steps == ()
    assert np.array_equal(tr.states[0], seeds[0].flatten()) and tr.fs[0] == f_value(seeds[0], alpha)
    for s in sweep[1:]:
        assert s["error"] is None and s["trace"].status == "past_level"
        assert s["trace"].n_samples == 1 and s["trace"].steps == ()
    rep = unstable_boundedness_check(rec, fib, alpha, eps=drops[0], seeds=6, cfg=CFG)
    assert rep["reached"] == [True] + [False] * 5
    assert rep["endpoint_distances"][0] == seeds[0].distance(rec.x)
