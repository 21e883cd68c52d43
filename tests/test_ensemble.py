"""A batch of rows gives, row by row, the traces of lone runs, bit for bit.

``integrate_many`` flows every point of a list as one batch; a lone run
(``conftest.lone_flow``) is its batch of one, which evaluates that row
unbatched.  Both are checked against ``reference_integrate``, the
per-trajectory loop the batch replaced, kept here as the oracle; it
evaluates the monitor columns per sample with ``monitor_callbacks``, the
oracle of the batched columns of ``FlowTrace.with_monitors``.  The rows
below differ in length and in how they stop, so rows leave the batch at
different steps while the others go on, and the loose tolerance makes rows
reject steps beside rows that accept theirs.
"""

import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients as dop
from scipy.integrate._ivp.rk import Dop853DenseOutput

from quiverflow.quiver import Quiver, Representation, cycle_trace, relation_residual
from quiverflow.moment import CentralShift, f_value
from quiverflow.flow import IntegratorConfig, integrate_many
from quiverflow import flow
from quiverflow.errors import LevelNotReachedError, QuiverFlowError
from quiverflow.presets import (
    A2_ALPHA,
    A2_PAIR_ALPHA,
    a2,
    a2_pair,
    a3_chain,
    commutator_relation,
    jordan_cycles,
    jordan_two_loops,
    scalar_rep,
)
from quiverflow.runconfig import build_model, load_config
from quiverflow.runner import run_experiment

from conftest import lone_flow

CFG = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=200.0)
LOOSE = IntegratorConfig(rel_tol=1e-5, abs_tol=1e-8, max_time=200.0, grad_stop=1e-4)
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "src", "quiverflow", "configs")


def star():
    q = Quiver.from_lists(["c", "1", "2", "3"],
                          [("a", "1", "c"), ("b", "2", "c"), ("d", "3", "c")])
    return q, (2, 1, 1, 1), CentralShift((0.9, -0.7, -0.5, -0.3))


MODELS = {"a2": lambda: (*a2(), A2_ALPHA),
          "a2_pair": lambda: (*a2_pair(), A2_PAIR_ALPHA),
          "star": star}


def monitor_callbacks(cycles=(), relations=()):
    """Per-sample callbacks for cycle traces (re/im columns) and relation residuals."""
    mons = []
    for k, w in enumerate(cycles):
        name = w.name or f"c{k}"
        mons.append((f"cyc:{name}:re", lambda x, w=w: cycle_trace(x, w).real))
        mons.append((f"cyc:{name}:im", lambda x, w=w: cycle_trace(x, w).imag))
    for k, r in enumerate(relations):
        name = r.name or f"r{k}"
        mons.append((f"rel:{name}", lambda x, r=r: relation_residual(x, r)))
    return mons


def reference_integrate(x0, alpha, cfg, direction=1, stop_level=None, monitors=(),
                        replay_steps=None):
    """One trajectory, one DOP853 step at a time, on flat 1-D states, with the
    tableau, its dense-output stages and the interpolant read from scipy;
    ``monitors`` are ``monitor_callbacks``, evaluated on every sample."""
    st = flow._Stepper(x0.quiver, x0.dims, alpha, direction)
    dim = st.dim

    def combine(coefs, ks):
        return sum(c * kk for c, kk in zip(coefs, ks))

    def step(y, k, h):
        """y8, the slopes with the FSAL slope last, the error norm and the
        stiffness estimate ||k13 - k12|| / ||y8 - Y12|| over the state columns."""
        ks = [k]
        for i in range(1, dop.N_STAGES):
            y_i = y + h * combine(dop.A[i, :i], ks)
            ks.append(st.field(y_i))
        y8 = y + h * combine(dop.B, ks)
        # scipy's error norm; its 13th error slot, for the FSAL slope, is zero
        e5, e3 = (combine(row, ks) for row in (dop.E5, dop.E3))
        ks.append(st.field(y8))
        if not np.all(np.isfinite(y8)):
            return y8, ks, math.inf, 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = float(np.linalg.norm(ks[12][:dim] - ks[11][:dim])
                        / np.linalg.norm(y8[:dim] - y_i[:dim]))
        rho = rho if math.isfinite(rho) else 0.0
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y8))
        n5, n3 = np.linalg.norm(e5 / scale) ** 2, np.linalg.norm(e3 / scale) ** 2
        if n5 == 0.0 and n3 == 0.0:
            return y8, ks, 0.0, rho
        return y8, ks, float(h * n5 / np.sqrt((n5 + 0.01 * n3) * len(scale))), rho

    def locate(y, y8, ks, f_base, h, level):
        """scipy's dense output of the step from y to y8, and the safeguarded
        Newton iteration in time on f along it: (tau, state) at the crossing."""
        ks = list(ks)
        for s in range(dop.N_STAGES + 1, dop.N_STAGES_EXTENDED):
            ks.append(st.field(y + h * combine(dop.A[s, :s], ks)))
        dy = y8 - y
        rows = [dy, h * ks[0] - dy, 2 * dy - h * (ks[12] + ks[0])]
        dense = Dop853DenseOutput(0.0, h, y, np.array(rows + [h * combine(d, ks) for d in dop.D]))
        tol, lo, hi, g_lo = 1e-9 * (1.0 + abs(level)), 0.0, h, f_base - level
        fdot = -2.0 * direction * ks[0][dim]
        tau = min(max(-g_lo / fdot if fdot != 0.0 else 0.5 * h, 1e-3 * h), h)
        for _ in range(60):
            y_tau = dense(tau)
            g = st.kernel.f_flat(y_tau[:dim]) - level
            if abs(g) <= 0.25 * tol:
                return tau, y_tau
            if (g > 0.0) == (g_lo > 0.0):
                lo = tau
            else:
                hi = tau
            fdot = -2.0 * direction * st.field(y_tau)[dim]
            tau_newton = tau - g / fdot if fdot != 0.0 else None
            tau = tau_newton if tau_newton is not None and lo < tau_newton < hi else 0.5 * (lo + hi)
        raise LevelNotReachedError("event location failed to converge")

    def initial_step(y0, k0):
        scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
        d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
        d1 = float(np.sqrt(np.mean((k0 / scale) ** 2)))
        h0 = min(1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1, cfg.max_step, cfg.max_time)
        d2 = float(np.sqrt(np.mean(((st.field(y0 + h0 * k0) - k0) / scale) ** 2))) / h0
        h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
        return max(cfg.min_step, min(100 * h0, h1, cfg.max_step, cfg.max_time))

    y = np.concatenate([x0.flatten(), [0.0]])
    k = st.field(y)
    blow_bound = flow.BLOWUP_FACTOR * (1.0 + float(np.linalg.norm(y[:dim])))
    samples = [(0.0, y, st.kernel.f_flat(y[:dim]), 2.0 * float(np.linalg.norm(k[:dim])))]
    steps = []

    def finish(status):
        ts, ys, fs, gns = (np.array(col) for col in zip(*samples))
        reps = [Representation.unflatten(x0.quiver, x0.dims, v) for v in ys[:, :dim]]
        mons = {name: np.asarray([fn(x) for x in reps]) for name, fn in monitors}
        mons["energy"] = 2.0 * ys[:, dim]
        return flow.FlowTrace(ts, ys[:, :dim], fs, gns, mons, status, direction, tuple(steps),
                              x0.quiver, x0.dims)

    # the start's own verdict: on the level, then stationary, then past the level
    f0, level = samples[0][2], stop_level
    if level is not None and abs(f0 - level) <= 1e-14 * (1.0 + abs(level)):
        return finish("exited_level")
    if samples[0][3] < 1e-3 * cfg.grad_stop:
        return finish("converged")
    if level is not None and (f0 - level) * direction < 0.0:
        return finish("past_level")
    t, streak = 0.0, 0
    replay = iter(replay_steps) if replay_steps is not None else None
    h = initial_step(y, k) if replay is None else None
    for _ in range(cfg.max_steps):
        if replay is not None:
            h = next(replay, None)
        if cfg.max_time - t < 1e-15 * max(1.0, t):
            return finish("max_time")
        if h is None:
            return finish("replay_exhausted")
        h = min(h, cfg.max_time - t, cfg.max_step)
        if h < 1e-15 * max(1.0, t):
            return finish("step_underflow")
        y_new, ks, err, rho = step(y, k, h)
        if replay is None and not err <= 1.0:
            if not math.isfinite(err):
                if h <= 4.0 * cfg.min_step:
                    return finish("blow_up")
                h = max(cfg.min_step, 0.25 * h)
                continue
            h_new = max(cfg.min_step, h * max(0.2, 0.9 * err ** -0.125))
            if h_new >= h and h <= cfg.min_step:
                if np.linalg.norm(y[:dim]) > 5e-3 * blow_bound:
                    return finish("blow_up")
                raise QuiverFlowError("step size underflow in integrate_many")
            h = h_new
            continue
        if not np.all(np.isfinite(y_new)) or np.linalg.norm(y_new[:dim]) > blow_bound:
            return finish("blow_up")
        f_new = st.kernel.f_flat(y_new[:dim])
        if stop_level is not None and (f_new - stop_level) * direction <= 0.0:
            tau, y_evt = locate(y, y_new, ks, samples[-1][2], h, stop_level)
            t_evt = max(t + tau, math.nextafter(t, math.inf))
            steps.append(t_evt - t)
            samples.append((t_evt, y_evt, st.kernel.f_flat(y_evt[:dim]),
                            2.0 * float(np.linalg.norm(st.field(y_evt)[:dim]))))
            return finish("exited_level")
        k_new = ks[12]
        gradnorm = 2.0 * float(np.linalg.norm(k_new[:dim]))
        steps.append(h)
        samples.append((t + h, y_new, f_new, gradnorm))
        y, k, t = y_new, k_new, t + h
        streak = streak + 1 if gradnorm < cfg.grad_stop else 0
        if streak >= cfg.stall_window:
            return finish("converged")
        if replay is None:
            h = min(cfg.max_step, max(cfg.min_step, h * min(10.0, 0.9 * max(err, 1e-12) ** -0.125)))
            if rho > 0.0:       # the stability cap
                h = min(h, flow.STABILITY_CAP / rho)
    return finish("max_steps")


def assert_same_trace(tr, ref):
    assert tr.status == ref.status
    for name in ("ts", "states", "fs", "gradnorms"):
        assert np.array_equal(getattr(tr, name), getattr(ref, name)), name
    assert np.array_equal(np.asarray(tr.steps), np.asarray(ref.steps))
    assert tr.monitors.keys() == ref.monitors.keys()
    for name in ref.monitors:
        assert np.array_equal(tr.monitors[name], ref.monitors[name]), name


def check_rows(points, alpha, cfg=CFG, seed=0, cycles=(), relations=(), **kw):
    """Each row equals its lone run, and a permuted batch gives the same traces;
    the rows carry the monitor columns of ``cycles`` and ``relations``."""
    def many(xs):
        return [tr.with_monitors(cycles, relations) for tr in integrate_many(xs, alpha, cfg, **kw)]

    batch = many(points)
    mons = monitor_callbacks(cycles, relations)
    assert len(batch) == len(points)
    for x, tr in zip(points, batch):
        assert_same_trace(tr, lone_flow(x, alpha, cfg, **kw).with_monitors(cycles, relations))
        assert_same_trace(tr, reference_integrate(x, alpha, cfg, monitors=mons, **kw))
    perm = np.random.default_rng(seed).permutation(len(points))
    for i, tr in zip(perm, many([points[i] for i in perm])):
        assert_same_trace(tr, batch[i])
    return batch


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("cfg", [CFG, LOOSE], ids=["tight", "loose"])
def test_rows_equal_lone_runs(name, direction, cfg):
    q, dims, alpha = MODELS[name]()
    rng = np.random.default_rng(7)
    points = [Representation.zero(q, dims)]            # stationary start
    points += [Representation.random(q, dims, rng, scale=s) for s in (0.3, 0.8, 1.3)]
    batch = check_rows(points, alpha, cfg, direction=direction)
    assert batch[0].n_samples == 1 and batch[0].status == "converged"
    assert len({tr.n_samples for tr in batch}) >= 3      # rows of mixed lengths


def test_stop_level_row_crosses_beside_a_row_that_converges_first():
    q, dims = a2_pair()
    h = 2.0 ** 0.25                   # |a|^2 = sqrt(2): a factor at its minimum
    rows = [Representation(q, dims, (np.array([[0.3]]), np.array([[0.4j]]))),   # crosses 0.5
            Representation(q, dims, (np.array([[0.6]]), np.zeros((1, 1)))),      # limit f = 1
            Representation(q, dims, (np.array([[h]]), np.array([[h]]))),         # stationary
            Representation(q, dims, (np.array([[1.5j]]), np.array([[0.5]])))]    # crosses 0.5
    batch = check_rows(rows, A2_PAIR_ALPHA, stop_level=0.5)
    assert [tr.status for tr in batch] == ["exited_level", "converged", "converged",
                                           "exited_level"]
    assert batch[1].fs[-1] == pytest.approx(1.0, abs=1e-8)
    assert batch[1].n_samples > batch[0].n_samples


def test_backward_row_blows_up_beside_convergent_rows():
    q, dims = a2()
    rows = [scalar_rep(q, dims, [v]) for v in (0.5, 1.7, 1.0, 0.0)]
    batch = check_rows(rows, A2_ALPHA, direction=-1)
    assert [tr.status for tr in batch] == ["converged", "blow_up", "converged", "converged"]


def test_monitor_columns_and_replayed_rows():
    q, dims = jordan_two_loops(2)
    alpha = CentralShift((0.5,))
    cycles, relations = jordan_cycles(q), [commutator_relation(q)]
    mons = monitor_callbacks(cycles, relations)
    rng = np.random.default_rng(3)
    points = [Representation.random(q, dims, rng, scale=s) for s in (0.5, 1.0, 1.5)]
    batch = check_rows(points, alpha, cycles=cycles, relations=relations)
    assert len(batch[0].monitors) == len(mons) + 1
    assert list(batch[0].monitors) == [name for name, _ in mons] + ["energy"]
    # replayed rows, one of them adaptive, beside each other; their batched
    # monitor columns equal the per-sample callbacks bit for bit
    replays = [list(batch[0].steps), None, list(batch[2].steps)[:7]]
    replayed = [tr.with_monitors(cycles, relations)
                for tr in integrate_many(points, alpha, CFG, replay_steps=replays)]
    for x, steps, tr in zip(points, replays, replayed):
        lone = lone_flow(x, alpha, CFG, replay_steps=steps)
        assert_same_trace(tr, lone.with_monitors(cycles, relations))
        assert_same_trace(tr, reference_integrate(x, alpha, CFG, monitors=mons, replay_steps=steps))
    assert_same_trace(replayed[0], batch[0])
    assert replayed[2].n_samples == 8 and replayed[2].status == "replay_exhausted"


def monitored_models():
    q, dims = jordan_two_loops(3)
    yield "jordan3", q, dims, CentralShift((0.5,)), jordan_cycles(q), [commutator_relation(q)]
    q, dims, rel = a3_chain()
    yield "a3", q, dims, CentralShift((-1.0, 0.2, 0.8)), (), [rel]


@pytest.mark.parametrize("case", list(monitored_models()), ids=lambda c: c[0])
def test_with_monitors_equals_per_sample_callbacks_and_builds_no_representation(
        case, monkeypatch):
    _, q, dims, alpha, cycles, relations = case
    rng = np.random.default_rng(11)
    points = [Representation.random(q, dims, rng, scale=s) for s in (0.4, 1.0, 1.6)]
    traces = integrate_many(points, alpha, CFG)
    built = []
    real_unflatten, real_post_init = Representation.unflatten, Representation.__post_init__

    def counting_unflatten(*args):
        built.append("unflatten")
        return real_unflatten(*args)

    def counting_post_init(self):
        built.append("init")
        real_post_init(self)

    monkeypatch.setattr(Representation, "unflatten", staticmethod(counting_unflatten))
    monkeypatch.setattr(Representation, "__post_init__", counting_post_init)
    monitored = [tr.with_monitors(cycles, relations) for tr in traces]
    assert built == []
    monkeypatch.undo()
    mons = monitor_callbacks(cycles, relations)
    assert sum(tr.n_samples for tr in traces) > 100
    for tr, mon in zip(traces, monitored):
        assert list(mon.monitors) == [name for name, _ in mons] + ["energy"]
        reps = [tr.point(i) for i in range(tr.n_samples)]
        for name, fn in mons:
            assert np.array_equal(mon.monitors[name], [fn(x) for x in reps]), name
        assert mon.monitors["energy"] is tr.monitors["energy"]
        assert mon.states is tr.states and tr.monitors.keys() == {"energy"}


def test_with_monitors_does_not_warn_again():
    q, dims = jordan_two_loops(2)
    states = np.random.default_rng(2).standard_normal((3, q.rep_real_dim(dims)))
    with pytest.warns(UserWarning, match="not monotone"):
        tr = flow.FlowTrace(np.arange(3.0), states, np.array([1.0, 2.0, 0.5]), np.ones(3),
                            {"energy": np.zeros(3)}, "max_time", quiver=q, dims=dims)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = tr.with_monitors(jordan_cycles(q), [commutator_relation(q)])
    assert len(out.monitors) == 8


def test_with_monitors_refuses_two_monitors_on_one_column():
    # before, the later monitor silently overwrote the earlier one's column
    q, dims = jordan_two_loops(2)
    states = np.random.default_rng(2).standard_normal((3, q.rep_real_dim(dims)))
    tr = flow.FlowTrace(np.arange(3.0), states, np.array([2.0, 1.0, 0.5]), np.ones(3),
                        {"energy": np.zeros(3)}, "max_time", quiver=q, dims=dims)
    x, y, xy = jordan_cycles(q)
    comm = commutator_relation(q)
    for cycles, relations, column in [
            ((x, replace(y, name="trx"), xy), (comm,), "cyc:trx"),
            ((x, y, xy), (comm, comm), "rel:comm"),
            ((replace(x, name=""), replace(y, name="c0")), (), "cyc:c0"),
            ((), (replace(comm, name=""), replace(comm, name="r0")), "rel:r0")]:
        with pytest.raises(ValueError, match=f"column '{column}'"):
            tr.with_monitors(cycles, relations)


def test_zero_dimension_and_empty_batches():
    q, _ = a2()
    rows = [Representation.zero(q, (0, 1)), Representation.zero(q, (0, 1))]
    batch = check_rows(rows, A2_ALPHA)
    assert all(tr.status == "converged" and tr.n_samples == 1 for tr in batch)
    assert batch[0].states.shape == (1, 0)
    assert integrate_many([], A2_ALPHA, CFG) == []


def check_mixed_rows(points, directions, alpha, seed=0, **kw):
    """Each row of a batch with per-row directions equals its lone run in its own
    direction, and a permuted batch gives the same traces."""
    replays = kw.pop("replay_steps", None) or [None] * len(points)
    batch = integrate_many(points, alpha, CFG, directions, replay_steps=replays, **kw)
    for x, d, steps, tr in zip(points, directions, replays, batch):
        assert tr.direction == d
        assert_same_trace(tr, lone_flow(x, alpha, CFG, d, replay_steps=steps, **kw))
        assert_same_trace(tr, reference_integrate(x, alpha, CFG, d, replay_steps=steps, **kw))
    perm = np.random.default_rng(seed).permutation(len(points))
    permuted = integrate_many([points[i] for i in perm], alpha, CFG, [directions[i] for i in perm],
                              replay_steps=[replays[i] for i in perm], **kw)
    for i, tr in zip(perm, permuted):
        assert_same_trace(tr, batch[i])
    return batch


@pytest.mark.parametrize("name", ["a2_pair", "star"])
def test_mixed_direction_rows_equal_lone_runs(name):
    q, dims, alpha = MODELS[name]()
    rng = np.random.default_rng(5)
    points = [Representation.random(q, dims, rng, scale=s) for s in (0.3, 0.6, 0.9, 1.2, 1.5, 0.45)]
    fs = [f_value(x, alpha) for x in points]
    level = float(np.median(fs))
    directions = [1 if f > level else -1 for f in fs]
    assert sorted(directions) == [-1] * 3 + [1] * 3
    # forward rows start above the level, backward rows below it
    crossed = check_mixed_rows(points, directions, alpha, stop_level=level)
    assert {(tr.direction, tr.status) for tr in crossed} >= {(1, "exited_level"),
                                                            (-1, "exited_level")}
    # rows leave the batch at different steps
    free = check_mixed_rows(points, directions, alpha)
    assert len({tr.n_samples for tr in free}) == len(points)
    # replayed rows of both directions, cut short or whole, beside adaptive rows
    replays = [list(tr.steps) for tr in free]
    replays[0], replays[1], replays[4] = replays[0][:5], None, None
    replayed = check_mixed_rows(points, directions, alpha, replay_steps=replays)
    assert replayed[0].n_samples == 6 and replayed[0].status == "replay_exhausted"
    assert np.array_equal(replayed[2].states, free[2].states)


@pytest.mark.parametrize("direction", [0, 2, "x", [1, 0], [-1, 2], [1, "x"], [1], [1, -1, 1]])
def test_batch_rejects_a_bad_direction(direction):
    q, dims = a2()
    rows = [scalar_rep(q, dims, [0.5]), scalar_rep(q, dims, [1.2])]
    with pytest.raises(ValueError, match="direction"):
        integrate_many(rows, A2_ALPHA, CFG, direction)


@pytest.mark.parametrize("replays", [[[0.01, 0.01]], [None, None, [0.01]], [], [0.01, None]])
def test_batch_rejects_a_bad_replay_list(replays):
    # one replay for two points was an IndexError, three were accepted
    # silently, and a bare step in place of a sequence was a TypeError
    q, dims = a2()
    rows = [scalar_rep(q, dims, [0.5]), scalar_rep(q, dims, [1.2])]
    with pytest.raises(ValueError, match="replay_steps"):
        integrate_many(rows, A2_ALPHA, CFG, replay_steps=replays)


def test_batch_rejects_mixed_shapes_and_ends_a_start_past_the_level():
    q, dims = a2()
    with pytest.raises(ValueError):
        integrate_many([Representation.zero(q, dims), Representation.zero(q, (0, 1))],
                       A2_ALPHA, CFG)
    # a start past the level ends its own row, and the other rows flow on
    rows = [scalar_rep(q, dims, [0.5]), scalar_rep(q, dims, [1.2])]   # f = 1.53, 0.16
    crossed, past = integrate_many(rows, A2_ALPHA, CFG, stop_level=1.0)
    assert crossed.status == "exited_level"
    assert past.status == "past_level" and past.n_samples == 1 and past.steps == ()
    with pytest.raises(ValueError, match="stop_level"):
        integrate_many(rows, A2_ALPHA, CFG, stop_level=[1.0])


def test_rows_with_their_own_levels_equal_lone_runs():
    # forward and backward rows, each with its own level, that start above it, on it
    # and past it, beside a stationary row whose start is also past its level
    q, dims = a2()
    x = {s: scalar_rep(q, dims, [s]) for s in (0.0, 0.5, 0.8, 1.2)}     # f = 2, 1.53, 0.67, 0.16
    rows = [(x[0.5], 1, 1.0, "exited_level"), (x[1.2], 1, 1.0, "past_level"),
            (x[0.8], 1, f_value(x[0.8], A2_ALPHA), "exited_level"),
            (x[1.2], -1, 1.0, "exited_level"), (x[0.5], -1, 1.0, "past_level"),
            (x[0.5], -1, f_value(x[0.5], A2_ALPHA), "exited_level"),
            (x[0.0], 1, 3.0, "converged")]
    points, directions, levels, statuses = (list(col) for col in zip(*rows))
    batch = integrate_many(points, A2_ALPHA, CFG, directions, levels)
    assert [tr.status for tr in batch] == statuses
    assert [tr.n_samples == 1 for tr in batch] == [False, True, True, False, True, True, True]
    for x0, d, level, tr in zip(points, directions, levels, batch):
        assert_same_trace(tr, lone_flow(x0, A2_ALPHA, CFG, d, level))
        assert_same_trace(tr, reference_integrate(x0, A2_ALPHA, CFG, d, level))
    perm = np.random.default_rng(2).permutation(len(rows))
    permuted = integrate_many([points[i] for i in perm], A2_ALPHA, CFG,
                              [directions[i] for i in perm], [levels[i] for i in perm])
    for i, tr in zip(perm, permuted):
        assert_same_trace(tr, batch[i])


@pytest.mark.parametrize("name", ["jordan2_flow", "a2_strata", "a2_lines"])
def test_threads_argument_does_not_change_bytes(tmp_path, name):
    def tree(root):
        out = {}
        for dirpath, _, files in os.walk(root):
            for fn in files:
                if fn != "meta.json":
                    path = os.path.join(dirpath, fn)
                    with open(path, "rb") as fh:
                        out[os.path.relpath(path, root)] = fh.read()
        return out

    doc = load_config(os.path.join(CONFIGS, f"{name}.json"))
    for threads in (1, 3):
        run_experiment(build_model(doc), str(tmp_path / str(threads)), threads=threads)
    assert tree(tmp_path / "1") == tree(tmp_path / "3")
    assert tree(tmp_path / "1")


def test_check_battery_flows_its_first_point_forward_once(monkeypatch):
    from quiverflow import checks, critical, strata
    from quiverflow.checks import run_checks

    starts = []
    original = flow.integrate_many

    def recording(x0s, alpha, cfg, direction=1, *args, **kwargs):
        starts.extend((x.flatten().tobytes(), direction) for x in x0s)
        return original(x0s, alpha, cfg, direction, *args, **kwargs)

    for module in (flow, checks, critical, strata):
        monkeypatch.setattr(module, "integrate_many", recording, raising=False)
    model = build_model(load_config(os.path.join(CONFIGS, "a2_check.json")))
    results = run_checks(model, trials=int(model.params["trials"]))
    assert all(r["passed"] for r in results)
    assert starts.count((model.points[0].flatten().tobytes(), 1)) == 1


def test_check_battery_with_zero_trials_still_checks_flow_equivariance():
    from quiverflow.checks import run_checks

    model = build_model(load_config(os.path.join(CONFIGS, "a2_check.json")))
    results = {r["name"]: r for r in run_checks(model, trials=0)}
    assert results["trace_monotone"]["detail"] == "max slack excess 0.000e+00"
    for name in ("flow_equivariance", "criticality_and_index", "stratum_label_invariance"):
        assert results[name]["passed"], results[name]


def test_check_battery_reports_a_failed_label_refinement(monkeypatch):
    from quiverflow import strata
    from quiverflow.checks import run_checks
    from quiverflow.errors import RefinementFailedError

    model = build_model(load_config(os.path.join(CONFIGS, "a2_check.json")))
    base = run_checks(model, trials=0)

    def failing(*args, **kwargs):
        raise RefinementFailedError("refinement stalled", best_residual=1.0)

    monkeypatch.setattr(strata, "refine_critical", failing)
    results = run_checks(model, trials=0)
    label = {"name": "stratum_label_invariance", "passed": False,
             "detail": "refinement failed: refinement stalled"}
    # the same checks with the same results, but the label entry
    assert results == [label if r["name"] == label["name"] else r for r in base]


def count_flows(monkeypatch):
    """Count flow batches (``integrate_many`` calls, a lone run's included) and crossing
    stacks (runs of ``flow._integrate_rows`` that replay every row, as
    ``trace_crossings`` makes; an ``integrate_many`` call that replays every row
    counts as one too, and not as a batch)."""
    from quiverflow import checks, critical, strata, subvariety

    calls = {"integrate_many": 0, "crossing_stack": 0}
    many, rows = flow.integrate_many, flow._integrate_rows

    def replayed(replays):
        return replays is not None and all(s is not None for s in replays)

    def counted_many(x0s, alpha, cfg, direction=1, stop_level=None, replay_steps=None):
        if not replayed(replay_steps):
            calls["integrate_many"] += 1
        return many(x0s, alpha, cfg, direction, stop_level, replay_steps)

    def counted_rows(quiver, dims, y0s, alpha, cfg, signs, levels, replays):
        if replayed(replays):
            calls["crossing_stack"] += 1
        return rows(quiver, dims, y0s, alpha, cfg, signs, levels, replays)

    for module in (flow, checks, critical, strata, subvariety):
        if hasattr(module, "integrate_many"):
            monkeypatch.setattr(module, "integrate_many", counted_many)
    monkeypatch.setattr(flow, "_integrate_rows", counted_rows)
    return calls


def test_check_battery_flows_in_two_batches(monkeypatch):
    from quiverflow.checks import run_checks

    calls = count_flows(monkeypatch)
    model = build_model(load_config(os.path.join(CONFIGS, "a2_check.json")))
    results = run_checks(model, trials=int(model.params["trials"]))
    assert all(r["passed"] for r in results)
    # the trace contracts, then the crossing trials with both flows of act(k, x),
    # then the crossings of all the trials
    assert calls == {"integrate_many": 2, "crossing_stack": 1}


def test_broken_family_flows_its_limit_member_in_the_forward_batch(monkeypatch):
    from quiverflow.strata import broken_line_experiment

    calls = count_flows(monkeypatch)
    q, dims = a2()
    rep = broken_line_experiment(lambda s: scalar_rep(q, dims, [0.3 + s]),
                                 [0.1 * 2.0 ** (-n) for n in range(4)], A2_ALPHA,
                                 levels=[1.0], cfg=CFG, limit_param=0.0)
    assert rep.single_line and rep.strictly_decreasing
    # the members forward (the limit member last) with the members backward, then
    # the checkpoints forward with the checkpoints backward, then the crossings at
    # the one level
    assert calls == {"integrate_many": 2, "crossing_stack": 1}


def test_broken_family_finds_the_checkpoints_of_all_levels_in_one_crossing_stack(monkeypatch):
    from quiverflow.strata import broken_line_experiment

    q, dims = a2()
    params, levels = [0.1 * 2.0 ** (-n) for n in range(4)], [1.5, 0.5]
    calls = count_flows(monkeypatch)
    rep = broken_line_experiment(lambda s: scalar_rep(q, dims, [0.3 + s]), params, A2_ALPHA,
                                 levels=levels, cfg=CFG)
    assert calls == {"integrate_many": 2, "crossing_stack": 1}
    monkeypatch.undo()
    # one trace_crossings call per level, as before the levels shared a stack
    fwds = integrate_many([scalar_rep(q, dims, [0.3 + s]) for s in params], A2_ALPHA, CFG)
    for level, col in zip(levels, rep.checkpoints):
        lone = flow.trace_crossings(fwds, [level] * len(fwds), A2_ALPHA)
        assert all(y is not None for y in col)
        assert [y.flatten().tobytes() for y in col] == [y.flatten().tobytes() for y in lone]


def test_flow_lines_flow_both_directions_in_one_batch(monkeypatch):
    from quiverflow.strata import flow_lines

    calls = count_flows(monkeypatch)
    q, dims = a2()
    inner, outer = (scalar_rep(q, dims, [np.sqrt(2.0 + s * np.sqrt(2.0))]) for s in (-1, 1))
    lines = flow_lines([inner, outer], 1.0, A2_ALPHA, CFG)
    assert lines[0].upper.f_crit == pytest.approx(2.0, abs=1e-9)
    assert lines[1].upper is None and lines[1].backward_status == "blow_up"
    assert calls == {"integrate_many": 1, "crossing_stack": 0}
