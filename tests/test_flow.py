from dataclasses import replace

import numpy as np
import pytest

from quiverflow.quiver import GroupElement, Representation, act
from quiverflow.moment import CentralShift, f_value
from quiverflow.flow import IntegratorConfig, energy_identity_defect
from quiverflow.errors import LevelNotReachedError
from quiverflow.presets import (
    commutator_relation,
    jordan_cycles,
    jordan_two_loops,
    scalar_rep,
)

from conftest import a2_f, a2_logistic, lone_flow, tau_level, trace_crossing


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(min_step=1.0, max_step=0.5)
    # a NaN tolerance used to pass and send the integrator into a runaway loop
    for key in ("rel_tol", "abs_tol", "max_time", "grad_stop"):
        with pytest.raises(ValueError):
            IntegratorConfig(**{key: float("nan")})
    # a run without a step used to end at its step cap after one sample
    for max_steps in (0, -5, float("nan")):
        with pytest.raises(ValueError):
            IntegratorConfig(max_steps=max_steps)


def test_critical_start_gives_single_sample(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    tr = lone_flow(scalar_rep(q, dims, [0.0]), alpha, tight_cfg)
    assert tr.status == "converged"
    assert tr.n_samples == 1
    tr2 = lone_flow(scalar_rep(q, dims, [np.sqrt(2.0)]), alpha, tight_cfg)
    assert tr2.status == "converged" and tr2.n_samples == 1


def test_trace_matches_scalar_ode_oracle(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    tr = lone_flow(scalar_rep(q, dims, [1.0]), alpha, tight_cfg)
    assert tr.status == "converged"
    for i in range(tr.n_samples):
        s_num = abs(tr.point(i).blocks[0][0, 0]) ** 2
        assert abs(s_num - a2_logistic(1.0, tr.ts[i])) < 1e-9
    assert abs(abs(tr.final.blocks[0][0, 0]) ** 2 - 2.0) < 1e-6


def test_f_monotone_and_time_increasing(a2_model, tight_cfg, rng):
    q, dims, alpha = a2_model
    for _ in range(5):
        tr = lone_flow(Representation.random(q, dims, rng), alpha, tight_cfg)
        assert np.all(np.diff(tr.ts) > 0)
        assert np.all(np.diff(tr.fs) <= 1e-10 * (1.0 + np.abs(tr.fs[:-1])))


def test_phase_is_conserved_along_flow(a2_model, tight_cfg):
    # velocity is a real multiple of x, so arg(x) is constant
    q, dims, alpha = a2_model
    c0 = 0.4 + 0.9j
    tr = lone_flow(scalar_rep(q, dims, [c0]), alpha, tight_cfg)
    angles = [np.angle(tr.point(i).blocks[0][0, 0]) for i in range(tr.n_samples)]
    assert max(abs(a - np.angle(c0)) for a in angles) < 1e-9


def test_tau_level_contract_and_oracle(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    x0 = scalar_rep(q, dims, [1.0])          # f = 0.5
    t0, y0 = tau_level(x0, alpha, f_value(x0, alpha), tight_cfg)
    assert t0 == 0.0 and y0 is x0
    t, y = tau_level(x0, alpha, 0.25, tight_cfg)
    # closed form: f(t) = 2 / (1 + e^{4t})^2 for s0 = 1
    t_oracle = np.log(2.0 * np.sqrt(2.0) - 1.0) / 4.0
    assert abs(t - t_oracle) < 1e-9
    assert abs(f_value(y, alpha) - 0.25) < 1e-8 * 1.25


def test_tau_level_not_reached_names_limit(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    with pytest.raises(LevelNotReachedError) as exc:
        tau_level(scalar_rep(q, dims, [0.0]), alpha, 1.0, tight_cfg)
    assert exc.value.limit_value == pytest.approx(2.0, abs=1e-9)


def test_level_set_map_identity_composition_and_limit(a2_model, tight_cfg):
    # the flow map between level sets is tau_level's point
    q, dims, alpha = a2_model
    x0 = scalar_rep(q, dims, [1.0])
    _, same = tau_level(x0, alpha, f_value(x0, alpha), tight_cfg)
    assert same.distance(x0) == 0.0

    # semigroup property of the level maps
    _, step1 = tau_level(x0, alpha, 0.3, tight_cfg)
    _, step2 = tau_level(step1, alpha, 0.1, tight_cfg)
    _, direct = tau_level(x0, alpha, 0.1, tight_cfg)
    assert step2.distance(direct) < 1e-7

    # the critical level is not crossed: the error names it, the run ends on the limit point
    with pytest.raises(LevelNotReachedError) as exc:
        tau_level(x0, alpha, 0.0, tight_cfg)
    assert exc.value.limit_value == pytest.approx(0.0, abs=1e-9)
    lim = lone_flow(x0, alpha, tight_cfg, stop_level=0.0).final
    assert abs(abs(lim.blocks[0][0, 0]) ** 2 - 2.0) < 1e-6
    assert abs(np.angle(lim.blocks[0][0, 0])) < 1e-8

    # backward map restores the level
    _, back = tau_level(direct, alpha, 0.3, tight_cfg, direction=-1)
    assert abs(f_value(back, alpha) - 0.3) < 1e-8 * 1.3
    assert back.distance(step1) < 1e-7


def test_level_set_map_reads_the_limit_off_one_run(a2_model, tight_cfg):
    # the map into a critical value ends on the limit point of one stop-level run
    q, dims, alpha = a2_model
    x0 = scalar_rep(q, dims, [1.0])
    plain = lone_flow(x0, alpha, tight_cfg)           # no stop level: the limit trace
    lim = lone_flow(x0, alpha, tight_cfg, stop_level=0.0)
    assert plain.status == lim.status == "converged"
    # with no crossing the stop-level run takes the plain run's steps
    assert np.array_equal(lim.final.flatten(), plain.final.flatten())
    assert lim.ts[-1] == plain.ts[-1]


def test_energy_identity(a2_model, tight_cfg, rng):
    q, dims, alpha = a2_model
    x0 = scalar_rep(q, dims, [0.0])
    single = lone_flow(x0, alpha, tight_cfg)
    assert energy_identity_defect(single) == 0.0

    tr = lone_flow(scalar_rep(q, dims, [1.0]), alpha, tight_cfg)
    assert energy_identity_defect(tr) < 1e-6 * (1.0 + tr.fs[0])
    # closed-form cross-check of the co-integrated dissipation column at every
    # sample: the energy dissipated by time t is f(s0) - f(s(t))
    exact = a2_f(1.0) - a2_f(a2_logistic(1.0, tr.ts))
    assert tr.n_samples > 10
    assert np.max(np.abs(tr.monitors["energy"] - exact)) < 1e-9


def test_conservation_monitors_to_time_cap():
    q, dims = jordan_two_loops(2)
    alpha = CentralShift((0.5,))
    x = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    rep = Representation(q, dims, (x, x @ x))
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=100.0, grad_stop=1e-13)
    tr = lone_flow(rep, alpha, cfg).with_monitors(jordan_cycles(q), (commutator_relation(q),))
    assert tr.ts[-1] >= 100.0 - 1e-9 or tr.status == "converged"
    for name, vals in tr.monitors.items():
        if name.startswith(("cyc:", "rel:")):
            assert np.max(np.abs(vals - vals[0])) < 1e-8, name


def test_flow_equivariance_replay(a2_model, tight_cfg, rng):
    q, dims, alpha = a2_model
    x0 = scalar_rep(q, dims, [0.7 + 0.4j])
    k = GroupElement.random_unitary(q, dims, rng)
    tr = lone_flow(x0, alpha, tight_cfg)
    tr_k = lone_flow(act(k, x0), alpha, tight_cfg, replay_steps=list(tr.steps))
    assert tr_k.n_samples == tr.n_samples
    worst = max(act(k, tr.point(i)).distance(tr_k.point(i)) for i in range(tr.n_samples))
    assert worst < 1e-8


def test_backward_flow_blow_up(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    outer = scalar_rep(q, dims, [2.0])        # |x|^2 = 4 > 2: backward escapes
    tr = lone_flow(outer, alpha, tight_cfg, direction=-1)
    assert tr.status == "blow_up"
    assert np.all(np.isfinite(tr.fs))          # last valid sample retained


def test_condition2_probe_cases(a2_model, tight_cfg):
    # forward to a and backward to b: each direction exits the window [a, b]
    # or converges to a critical value inside it
    q, dims, alpha = a2_model
    # s0 = 2 - sqrt(2) has f = 1; generic point exits both ends
    x = scalar_rep(q, dims, [np.sqrt(2.0 - np.sqrt(2.0))])
    t_a, y_a = tau_level(x, alpha, 0.5, tight_cfg)
    t_b, y_b = tau_level(x, alpha, 1.5, tight_cfg, direction=-1)
    assert t_a > 0.0 and t_b > 0.0
    assert f_value(y_a, alpha) == pytest.approx(0.5, abs=1e-8)
    assert f_value(y_b, alpha) == pytest.approx(1.5, abs=1e-8)

    # near the unstable point the backward flow converges inside (f -> 2 < 3)
    x2 = scalar_rep(q, dims, [1e-6])
    assert tau_level(x2, alpha, 0.5, tight_cfg)[0] > 0.0
    with pytest.raises(LevelNotReachedError) as exc:
        tau_level(x2, alpha, 3.0, tight_cfg, direction=-1)
    assert exc.value.limit_value == pytest.approx(2.0, abs=1e-6)

    # a window [1.5, 3.0] that does not contain f(x) = 1
    with pytest.raises(ValueError):
        tau_level(x, alpha, 1.5, tight_cfg)


def test_monotone_f_for_backward_traces(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    x = scalar_rep(q, dims, [0.5])
    tr = lone_flow(x, alpha, tight_cfg, direction=-1)
    assert tr.status == "converged"            # backward into the unstable point
    assert np.all(np.diff(tr.fs) >= -1e-10 * (1.0 + np.abs(tr.fs[:-1])))
    assert tr.fs[-1] == pytest.approx(2.0, abs=1e-8)


def test_stall_window_requires_sustained_smallness(a2_model):
    # convergence fires only after stall_window consecutive below-threshold
    # steps, so a wider window stops strictly later (lower f) than window 1
    q, dims, alpha = a2_model
    base = dict(rel_tol=1e-10, abs_tol=1e-13, max_time=50.0, grad_stop=1e-6)
    tr1 = lone_flow(scalar_rep(q, dims, [1.0]), alpha,
                    IntegratorConfig(stall_window=1, **base))
    tr5 = lone_flow(scalar_rep(q, dims, [1.0]), alpha,
                    IntegratorConfig(stall_window=5, **base))
    assert tr1.status == tr5.status == "converged"
    assert np.all(tr5.gradnorms[-5:] < 1e-6)
    assert tr5.ts[-1] > tr1.ts[-1]
    assert tr5.fs[-1] < tr1.fs[-1]


def test_exact_critical_start_short_circuits(a2_model):
    q, dims, alpha = a2_model
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=50.0,
                           grad_stop=2e-2, stall_window=5)
    tr = lone_flow(scalar_rep(q, dims, [0.0]), alpha, cfg)
    assert tr.status == "converged" and tr.n_samples == 1


def test_integrator_cross_check_against_library_solver():
    # independent route: the same field handed to scipy's adaptive solver
    # must land on the same state at a fixed horizon
    from scipy.integrate import solve_ivp

    from quiverflow.moment import VelocityKernel

    q, dims = jordan_two_loops(2)
    alpha = CentralShift((0.5,))
    x = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    rep = Representation(q, dims, (x, x @ x))
    horizon = 2.0

    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, max_time=horizon,
                           grad_stop=1e-14)
    tr = lone_flow(rep, alpha, cfg)
    assert tr.status == "max_time" and abs(tr.ts[-1] - horizon) < 1e-12

    kern = VelocityKernel(q, dims, alpha)
    sol = solve_ivp(lambda t, y: kern.velocity_flat(y), (0.0, horizon),
                    rep.flatten(), method="RK45", rtol=1e-11, atol=1e-13)
    assert sol.success
    assert np.linalg.norm(tr.final.flatten() - sol.y[:, -1]) < 1e-8


def test_energy_identity_on_crossing_segments(a2_model, tight_cfg):
    # the level value satisfies ell = f(x0) - (dissipated energy) on the
    # truncated trace ending exactly at the crossing
    q, dims, alpha = a2_model
    x0 = scalar_rep(q, dims, [1.0])
    tr = lone_flow(x0, alpha, tight_cfg, stop_level=0.2)
    assert tr.status == "exited_level"
    assert abs(tr.fs[0] - tr.monitors["energy"][-1] - 0.2) < 1e-8


def test_conftest_oracle_satisfies_its_ode():
    # integrity of the closed-form oracle itself: ds/dt = -2 s (s - 2)
    for s0 in (0.3, 1.0, 3.5):
        for t in (0.0, 0.2, 1.0):
            h = 1e-6
            lhs = (a2_logistic(s0, t + h) - a2_logistic(s0, t - h)) / (2 * h)
            s = a2_logistic(s0, t)
            assert abs(lhs + 2.0 * s * (s - 2.0)) < 1e-6 * (1.0 + abs(lhs))


def test_empty_replay_returns_the_start(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    x0 = scalar_rep(q, dims, [1.0])
    tr = lone_flow(x0, alpha, tight_cfg, replay_steps=[])
    assert tr.status == "replay_exhausted"
    assert tr.n_samples == 1 and tr.steps == ()
    assert tr.final.distance(x0) == 0.0


def _star():
    from quiverflow.quiver import Quiver

    q = Quiver.from_lists(["c", "1", "2", "3"],
                          [("a", "1", "c"), ("b", "2", "c"), ("d", "3", "c")])
    return q, (2, 1, 1, 1), CentralShift((0.9, -0.7, -0.5, -0.3))


def test_trace_crossing_equals_tau_level(a2_model, tight_cfg):
    # oracle: tau_level integrates again with a stop level; reading the
    # crossing off the full trace must give the same state bit for bit
    from quiverflow.presets import A2_PAIR_ALPHA, a2_pair

    rng = np.random.default_rng(20)
    models = [a2_model, (*a2_pair(), A2_PAIR_ALPHA), _star()]
    checked = 0
    for q, dims, alpha in models:
        for _ in range(2):
            x = Representation.random(q, dims, rng, scale=0.8)
            for direction in (1, -1):
                tr = lone_flow(x, alpha, tight_cfg, direction=direction)
                assert tr.n_samples > 2
                for u in (0.3, 0.7):
                    ell = tr.fs[0] + u * (tr.fs[-1] - tr.fs[0])
                    y = trace_crossing(tr, ell, alpha)
                    _, y_ref = tau_level(x, alpha, ell, tight_cfg, direction=direction)
                    assert np.array_equal(y.flatten(), y_ref.flatten()), (q.edges, direction, u)
                    checked += 1
    assert checked == 24


def _crossing_traces(a2_model, tight_cfg):
    """(x, alpha, trace, level) on the traces of the bitwise crossing test."""
    from quiverflow.presets import A2_PAIR_ALPHA, a2_pair

    rng = np.random.default_rng(20)
    for q, dims, alpha in (a2_model, (*a2_pair(), A2_PAIR_ALPHA), _star()):
        for _ in range(2):
            x = Representation.random(q, dims, rng, scale=0.8)
            for direction in (1, -1):
                tr = lone_flow(x, alpha, tight_cfg, direction=direction)
                for u in (0.3, 0.7):
                    yield x, alpha, tr, tr.fs[0] + u * (tr.fs[-1] - tr.fs[0])


def test_trace_crossing_cost(a2_model, tight_cfg, monkeypatch):
    # a crossing rebuilds its bracketing step and then iterates on the dense output:
    # the slope at the stored base state, eleven stages, the FSAL slope and three
    # dense-output stages, then one contraction per Newton iterate (the field and f
    # at the interpolated state); the iterates are counted as interpolant evaluations
    from quiverflow import flow
    from quiverflow.moment import VelocityKernel

    calls, iterates, beta, interpolate = [0], [0], VelocityKernel._beta, flow._interpolate

    def counted(self, y):
        calls[0] += 1
        return beta(self, y)

    def counted_interpolate(*args):
        iterates[0] += 1
        return interpolate(*args)

    monkeypatch.setattr(VelocityKernel, "_beta", counted)
    monkeypatch.setattr(flow, "_interpolate", counted_interpolate)
    seen = []
    for _, alpha, tr, ell in _crossing_traces(a2_model, tight_cfg):
        calls[0] = iterates[0] = 0
        assert trace_crossing(tr, ell, alpha) is not None
        assert calls[0] == 16 + iterates[0], (calls[0], iterates[0])
        seen.append(iterates[0])
    assert len(seen) == 24 and 1 <= min(seen) and max(seen) <= 5, seen


def test_an_accepted_step_costs_twelve_contractions(a2_model, tight_cfg, monkeypatch):
    # the eleven stages and the FSAL slope k13, whose contraction also gives f at the
    # new state; counted as the difference between replays of 4 and of 12 accepted steps
    from quiverflow.moment import VelocityKernel

    q, dims, alpha = a2_model
    x = scalar_rep(q, dims, [0.5])
    steps = list(lone_flow(x, alpha, tight_cfg).steps)
    calls, beta = [0], VelocityKernel._beta

    def counted(self, y):
        calls[0] += 1
        return beta(self, y)

    monkeypatch.setattr(VelocityKernel, "_beta", counted)
    cost = {}
    for m in (4, 12):
        calls[0] = 0
        assert lone_flow(x, alpha, tight_cfg, replay_steps=steps[:m]).n_samples == m + 1
        cost[m] = calls[0]
    assert cost[12] - cost[4] == 12 * 8, cost


def test_trace_crossing_accuracy(a2_model, tight_cfg):
    # oracle: tau_level at tolerances a thousand times tighter
    fine = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-16, max_time=200.0)
    checked = 0
    for x, alpha, tr, ell in _crossing_traces(a2_model, tight_cfg):
        if tr.status != "converged":
            continue
        y = trace_crossing(tr, ell, alpha).flatten()
        _, y_ref = tau_level(x, alpha, ell, fine, direction=tr.direction)
        y_ref = y_ref.flatten()
        assert np.linalg.norm(y - y_ref) <= 1e-8 * np.linalg.norm(y_ref), (tr.direction, ell)
        checked += 1
    assert checked >= 16


def test_trace_crossing_edge_cases(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    x0 = scalar_rep(q, dims, [0.5])              # f = 1.53125, backward limit f = 2
    fwd = lone_flow(x0, alpha, tight_cfg)
    bwd = lone_flow(x0, alpha, tight_cfg, direction=-1)
    assert bwd.status == "converged"
    # a level past the backward limit is never reached
    assert trace_crossing(bwd, 2.5, alpha) is None
    with pytest.raises(LevelNotReachedError):
        tau_level(x0, alpha, 2.5, tight_cfg, direction=-1)
    # a stationary start reaches no other level
    still = lone_flow(scalar_rep(q, dims, [0.0]), alpha, tight_cfg)
    assert trace_crossing(still, 1.0, alpha) is None
    # the start's own level gives the start
    assert trace_crossing(fwd, f_value(x0, alpha), alpha).distance(x0) == 0.0
    # a level on the wrong side is a caller error, as for tau_level
    with pytest.raises(ValueError):
        trace_crossing(fwd, 1.8, alpha)
    with pytest.raises(ValueError):
        trace_crossing(bwd, 0.5, alpha)


def test_batched_crossings_equal_one_row_calls():
    # a stack of forward and backward traces, each with its own level, beside a
    # row whose level is never reached and a row that starts on its level; every
    # entry, in the stack and in a permuted stack, is the one-row call's state
    from quiverflow.flow import integrate_many, trace_crossings

    q, dims, alpha = _star()
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=200.0)
    rng = np.random.default_rng(4)
    p = [Representation.random(q, dims, rng, scale=s) for s in (0.2, 0.35, 0.5, 0.8)]
    points, directions = [p[2], p[0], p[3], p[1], p[1], p[0]], [1, -1, 1, -1, -1, 1]
    traces = integrate_many(points, alpha, cfg, directions)
    assert all(tr.status == "converged" for tr in traces)
    fracs = [0.3, 0.6, 0.8, 0.45]
    levels = [tr.fs[0] + u * (tr.fs[-1] - tr.fs[0]) for tr, u in zip(traces, fracs)]
    levels.append(traces[4].fs[-1] + 1.0)       # past the backward limit: never reached
    levels.append(traces[5].fs[0])              # the start's own level
    stack = trace_crossings(traces, levels, alpha)
    assert [y is None for y in stack] == [False] * 4 + [True, False]
    assert stack[5].distance(p[0]) == 0.0
    singles = [trace_crossing(tr, level, alpha) for tr, level in zip(traces, levels)]
    for i, (y, y1) in enumerate(zip(stack, singles)):
        assert (y is None) == (y1 is None), i
        if y is not None:
            assert np.array_equal(y.flatten(), y1.flatten()), i
    for i, (y, level) in enumerate(zip(stack[:4], levels)):
        assert abs(f_value(y, alpha) - level) < 1e-8 * (1.0 + abs(level)), i
    perm = np.random.default_rng(1).permutation(len(traces))
    permuted = trace_crossings([traces[i] for i in perm], [levels[i] for i in perm], alpha)
    for i, y in zip(perm, permuted):
        assert (y is None) == (stack[i] is None), i
        if y is not None:
            assert np.array_equal(y.flatten(), stack[i].flatten()), i
    assert trace_crossings([], [], alpha) == []
    with pytest.raises(ValueError, match="one level per trace"):
        trace_crossings(traces, levels[:-1], alpha)
    other = integrate_many([Representation.random(q, (1, 1, 1, 1), rng)], alpha, cfg)
    with pytest.raises(ValueError, match="one quiver and one dimension vector"):
        trace_crossings(traces[:1] + other, levels[:2], alpha)


def test_crossings_build_a_representation_only_for_each_state_returned(monkeypatch):
    # the replays start from the stored flat states, so the one Representation per
    # entry is the returned crossing's: none for a level never reached
    from quiverflow.flow import integrate_many, trace_crossings

    q, dims, alpha = _star()
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=200.0)
    rng = np.random.default_rng(4)
    points = [Representation.random(q, dims, rng, scale=s) for s in (0.5, 0.2, 0.8)]
    traces = integrate_many(points, alpha, cfg, [1, -1, 1])
    assert all(tr.status == "converged" for tr in traces)
    levels = [0.5 * (traces[0].fs[0] + traces[0].fs[-1]), traces[1].fs[-1] + 1.0, traces[2].fs[0]]
    calls, unflatten = [0], Representation.unflatten

    def counted(*args):
        calls[0] += 1
        return unflatten(*args)

    monkeypatch.setattr(Representation, "unflatten", staticmethod(counted))
    stack = trace_crossings(traces, levels, alpha)
    assert [y is None for y in stack] == [False, True, False]
    assert calls[0] == 2


def test_the_stability_cap_halves_rejected_steps(monkeypatch):
    # oracle independent of the stiffness estimate: a lone converged run costs the
    # field and f at its start, the initial-step probe and twelve contractions per
    # attempted step, so its rejections are read off the contraction count; the
    # parent controller, without the cap, rejected 220 star and 27 a2_pair steps here
    from quiverflow.moment import VelocityKernel
    from quiverflow.presets import A2_PAIR_ALPHA, a2_pair

    calls, beta = [0], VelocityKernel._beta

    def counted(self, y):
        calls[0] += 1
        return beta(self, y)

    monkeypatch.setattr(VelocityKernel, "_beta", counted)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=300.0)
    for (q, dims, alpha), n, at_most in ((_star(), 6, 110), ((*a2_pair(), A2_PAIR_ALPHA), 12, 13)):
        rng = np.random.default_rng(0)
        rejected = 0
        for _ in range(n):
            x = Representation.random(q, dims, rng)
            calls[0] = 0
            tr = lone_flow(x, alpha, cfg)
            assert tr.status == "converged" and (calls[0] - 2) % 12 == 0, calls[0]
            rejected += (calls[0] - 2) // 12 - (tr.n_samples - 1)
        assert rejected <= at_most, (q.edges, rejected)


def test_integrate_builds_no_representation_per_step(a2_model, tight_cfg, monkeypatch):
    q, dims, alpha = a2_model
    x0 = scalar_rep(q, dims, [1e-4])        # near the unstable origin: a long way down
    unflatten = Representation.unflatten
    calls = []

    def counted(*args):
        calls.append(args)
        return unflatten(*args)

    monkeypatch.setattr(Representation, "unflatten", staticmethod(counted))
    tr = lone_flow(x0, alpha, tight_cfg)
    assert tr.n_samples > 50
    tr.final
    assert len(calls) <= 1


def test_tableau_equals_the_published_dop853_coefficients():
    # the inlined literals, bit for bit against scipy's table (imported here only)
    from scipy.integrate._ivp import dop853_coefficients as dop

    from quiverflow import flow

    n = dop.N_STAGES
    assert len(flow._A) == n
    for i, row in enumerate(flow._A):
        assert row.tobytes() == dop.A[i, :i].tobytes(), i
    assert flow._B.tobytes() == dop.B.tobytes()
    # scipy's error rows carry a 13th slot, for the FSAL slope, which is zero
    for ours, theirs in ((flow._E5, dop.E5), (flow._E3, dop.E3)):
        assert ours.tobytes() == theirs[:n].tobytes() and theirs[n] == 0.0
    # the dense output: scipy's row n is B (the FSAL stage), then the three extra stages
    assert dop.A[n, :n].tobytes() == dop.B.tobytes()
    assert len(flow._A_EXTRA) == dop.N_STAGES_EXTENDED - n - 1
    for i, row in enumerate(flow._A_EXTRA, start=n + 1):
        assert row.tobytes() == dop.A[i, :i].tobytes(), i
    assert flow._D.shape == dop.D.shape and flow._D.tobytes() == dop.D.tobytes()


def test_each_cap_has_its_own_status(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    x0 = scalar_rep(q, dims, [1.0])
    full = lone_flow(x0, alpha, tight_cfg)
    assert full.status == "converged" and full.n_samples > 6

    def run(**kw):
        return lone_flow(x0, alpha, replace(tight_cfg, **{"grad_stop": 1e-14, **kw}))

    # a replay that runs out before the flow stops
    cut = lone_flow(x0, alpha, tight_cfg, replay_steps=full.steps[:5])
    assert cut.status == "replay_exhausted" and cut.n_samples == 6
    # the time cap, reached exactly
    capped = run(max_time=0.25)
    assert capped.status == "max_time" and capped.ts[-1] == 0.25
    # a step too small to advance t: max_step below 1e-15 max(1, t) at t = 0
    tiny = run(min_step=1e-17, max_step=1e-16)
    assert tiny.status == "step_underflow" and tiny.n_samples == 1
    # the step count
    short = run(max_steps=3)
    assert short.status == "max_steps" and short.n_samples == 4
