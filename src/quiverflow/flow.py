"""Time integration of the downward flow, level-crossing solves, monitors.

The integrator is a hand-rolled Dormand-Prince 5(4) embedded pair with PI
step-size control.  The integrated field is ``flow_velocity`` (which equals
-(1/2) grad f, see :mod:`quiverflow.moment`), optionally reversed for
backward trajectories.  Alongside the state we co-integrate the dissipation
``int ||dx/dt||^2 dt``; twice that accumulator is reported as the monitor
column ``energy`` and makes the energy-identity defect measurable at the
integrator's own order instead of being limited by sample quadrature.

Traces store flat real states and build a ``Representation`` only on
demand.  Level crossings f(x(t)) = level are located inside the bracketing
accepted step by a safeguarded Newton iteration in time; f is strictly
monotone along nonconstant trajectories, so the bracket always contains
exactly one root.  Up to a crossing, integration accepts the same steps
with or without a stop level, so ``trace_crossing`` on a recorded trace
gives the same state as ``tau_level``, which integrates again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import LevelNotReachedError, QuiverFlowError
from .moment import VelocityKernel, f_value, flow_velocity
from .quiver import Quiver, Representation, cycle_trace, relation_residual

__all__ = [
    "IntegratorConfig",
    "FlowTrace",
    "LevelSetResult",
    "Condition2Report",
    "integrate",
    "tau_level",
    "trace_crossing",
    "level_set_map",
    "energy_identity_defect",
    "quadrature_dissipation",
    "condition2_probe",
    "monitors_for",
]

# Dormand-Prince 5(4) tableau (FSAL).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

BLOWUP_FACTOR = 1e6


@dataclass(frozen=True)
class IntegratorConfig:
    """Step control and stopping thresholds.

    grad_stop should sit above the integrator's state-error floor
    (roughly rel_tol * ||x|| * ||Hessian||), otherwise convergence can
    never be certified and traces run to the time cap.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = 1e6
    min_step: float = 1e-14
    max_time: float = 1e3
    grad_stop: float = 1e-8
    stall_window: int = 5
    max_steps: int = 200_000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not (0 < self.min_step < self.max_step):
            raise ValueError("need 0 < min_step < max_step")
        if self.max_time <= 0 or self.grad_stop <= 0 or self.stall_window < 1:
            raise ValueError("max_time, grad_stop, stall_window must be positive")

    def with_(self, **kw):
        return replace(self, **kw)


@dataclass(frozen=True)
class FlowTrace:
    """Accepted-step samples of one trajectory.

    ``states`` holds one flat real state per sample, an
    ``(n_samples, dim)`` array in the column order of
    ``quiver.flatten_blocks``; ``point(i)`` and ``final`` build a validated
    ``Representation`` from a row only when asked.  ``monitors`` always
    contains the key ``energy`` (twice the accumulated dissipation);
    registered cycle traces and relation residuals appear under their
    registration names.  ``steps[i]`` is the accepted step from sample i
    to sample i + 1, so a run can be replayed on an identical time grid.
    """

    ts: np.ndarray
    states: np.ndarray
    fs: np.ndarray
    gradnorms: np.ndarray
    monitors: dict
    status: str                 # converged | exited_level | step_limit | blow_up
    direction: int = 1
    steps: tuple = ()
    quiver: Quiver = None
    dims: tuple = None

    def __post_init__(self):
        if np.any(np.diff(self.ts) <= 0):
            raise QuiverFlowError("trace times must be strictly increasing")
        dfs = np.diff(self.fs) * self.direction
        slack = 1e-10 * (1.0 + np.abs(self.fs[:-1]))
        if np.any(dfs > slack):
            warnings.warn("flow trace is not monotone within integrator slack", stacklevel=2)

    @property
    def n_samples(self):
        return len(self.ts)

    def point(self, i) -> Representation:
        return Representation.unflatten(self.quiver, self.dims, self.states[i])

    @property
    def final(self) -> Representation:
        return self.point(-1)


def monitors_for(cycles=(), relations=()):
    """Monitor callbacks for cycle traces (re/im columns) and relation residuals."""
    mons = []
    for k, w in enumerate(cycles):
        name = w.name or f"c{k}"
        mons.append((f"cyc:{name}:re", lambda x, w=w: cycle_trace(x, w).real))
        mons.append((f"cyc:{name}:im", lambda x, w=w: cycle_trace(x, w).imag))
    for k, r in enumerate(relations):
        name = r.name or f"r{k}"
        mons.append((f"rel:{name}", lambda x, r=r: relation_residual(x, r)))
    return mons


class _Stepper:
    """Dormand-Prince 5(4) on the flattened state plus dissipation scalar."""

    def __init__(self, quiver, dims, alpha, direction):
        self.direction = direction
        self.dim = quiver.rep_real_dim(dims)
        self.kernel = VelocityKernel(quiver, dims, alpha)

    def f_of(self, y):
        return self.kernel.f_flat(y[:self.dim])

    def field(self, y):
        v = self.kernel.velocity_flat(y[:self.dim])
        out = np.empty(self.dim + 1)
        out[:self.dim] = self.direction * v
        out[self.dim] = float(v @ v)
        return out

    def stages(self, y, k1, h):
        """The six stage slopes of one step from y; returns (y5, slopes)."""
        ks = [k1]
        for i in range(1, 6):
            yi = y + h * sum(a * k for a, k in zip(_A[i], ks))
            ks.append(self.field(yi))
        return y + h * sum(b * k for b, k in zip(_B, ks)), ks

    def step(self, y, k1, h, cfg):
        """One embedded step; returns (y_new, k_new, err_norm)."""
        y5, ks = self.stages(y, k1, h)
        k7 = self.field(y5)
        ks.append(k7)
        err_vec = h * sum(e * k for e, k in zip(_E, ks))
        if not np.all(np.isfinite(y5)):
            return y5, k7, math.inf
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        return y5, k7, err

    def advance_fixed(self, y, dt, nsub=8):
        """Integrate exactly dt ahead with fixed substeps (no error control).

        Used only inside an accepted step for event location; the substeps
        are shorter than the accepted step, so the local error stays well
        below the step tolerance.
        """
        if dt == 0.0:
            return y.copy()
        h = dt / nsub
        for _ in range(nsub):
            y = self.stages(y, self.field(y), h)[0]
        return y


def _initial_step(stepper, y0, k0, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((k0 / scale) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, cfg.max_step, cfg.max_time)
    y1 = y0 + h0 * k0
    k1 = stepper.field(y1)
    d2 = float(np.sqrt(np.mean(((k1 - k0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return max(cfg.min_step, min(100 * h0, h1, cfg.max_step, cfg.max_time))


def integrate(x0: Representation, alpha, cfg: IntegratorConfig,
              direction: int = 1, stop_level: float = None,
              monitors=(), replay_steps=None) -> FlowTrace:
    """Adaptive integration of the flow from x0.

    direction=+1 follows the downward flow; -1 reverses it (f increases).
    When ``stop_level`` is set, the run ends exactly on the level crossing
    with status ``exited_level``.  ``replay_steps`` disables step control
    and replays a recorded accepted-step sequence, so two group-related
    initial conditions can be compared on an identical time grid.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if any(name == "energy" for name, _ in monitors):
        raise ValueError("monitor name 'energy' is reserved for the dissipation column")
    st = _Stepper(x0.quiver, x0.dims, alpha, direction)
    dim = st.dim

    y = np.concatenate([x0.flatten(), [0.0]])
    k = st.field(y)
    blow_bound = BLOWUP_FACTOR * (1.0 + float(np.linalg.norm(y[:dim])))

    f0, gn0 = st.f_of(y), 2.0 * float(np.linalg.norm(k[:dim]))
    samples = [(0.0, y, f0, gn0)]         # (t, state + dissipation, f, gradnorm)
    steps = []

    def finish(status):
        ts, ys, fs, gns = (np.array(col) for col in zip(*samples))
        states = ys[:, :dim]
        reps = [Representation.unflatten(x0.quiver, x0.dims, s) for s in states] if monitors else ()
        mon_vals = {name: np.asarray([fn(x) for x in reps]) for name, fn in monitors}
        mon_vals["energy"] = 2.0 * ys[:, dim]
        return FlowTrace(
            ts=ts, states=states, fs=fs, gradnorms=gns, monitors=mon_vals, status=status,
            direction=direction, steps=tuple(steps), quiver=x0.quiver, dims=x0.dims,
        )

    # immediate convergence only well inside the threshold (a stationary
    # start); marginal starts must sustain the stall window like everyone
    if gn0 < 1e-3 * cfg.grad_stop:
        return finish("converged")
    if stop_level is not None and (f0 - stop_level) * direction <= 0.0:
        raise LevelNotReachedError(
            "initial point is already past the requested level", limit_value=f0)

    t = 0.0
    err_prev = 1.0
    streak = 0
    replay = iter(replay_steps) if replay_steps is not None else None
    h = _initial_step(st, y, k, cfg) if replay is None else None

    for _ in range(cfg.max_steps):
        if replay is not None:
            # every replayed step is accepted or ends the run
            h = next(replay, None)
            if h is None:
                return finish("step_limit")
        if t >= cfg.max_time:
            return finish("step_limit")
        h = min(h, cfg.max_time - t, cfg.max_step)
        if h < 1e-15 * max(1.0, t):
            return finish("step_limit")
        y_new, k_new, err = st.step(y, k, h, cfg)

        if replay is None and err > 1.0:
            if not math.isfinite(err):
                if h <= 4.0 * cfg.min_step:
                    return finish("blow_up")
                h = max(cfg.min_step, 0.25 * h)
                continue
            h_new = max(cfg.min_step, h * max(0.2, 0.9 * err ** -0.2))
            if h_new >= h and h <= cfg.min_step:
                if np.linalg.norm(y[:dim]) > 5e-3 * blow_bound:
                    # escaping trajectory outran the resolvable step range
                    return finish("blow_up")
                raise QuiverFlowError("step size underflow in integrate")
            h = h_new
            continue

        # accepted
        t_new = t + h
        if not np.all(np.isfinite(y_new)) or np.linalg.norm(y_new[:dim]) > blow_bound:
            return finish("blow_up")

        f_new = st.f_of(y_new)
        if stop_level is not None and (f_new - stop_level) * direction <= 0.0:
            tau, y_evt = _locate_level(st, y, t, h, stop_level)
            gn = 2.0 * float(np.linalg.norm(st.field(y_evt)[:dim]))
            steps.append(tau - t)
            samples.append((tau, y_evt, st.f_of(y_evt), gn))
            return finish("exited_level")

        gradnorm = 2.0 * float(np.linalg.norm(k_new[:dim]))
        steps.append(h)
        samples.append((t_new, y_new, f_new, gradnorm))
        y, k, t = y_new, k_new, t_new

        streak = streak + 1 if gradnorm < cfg.grad_stop else 0
        if streak >= cfg.stall_window:
            return finish("converged")

        if replay is None:
            err = max(err, 1e-12)
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08
            h = min(cfg.max_step, max(cfg.min_step, h * min(5.0, max(0.2, fac))))
            err_prev = err
    return finish("step_limit")


def _locate_level(st, y_base, t_base, h, level):
    """Solve f(x(t)) = level inside the accepted step [t_base, t_base + h].

    Safeguarded Newton in time on the monotone function f along the flow;
    each evaluation re-integrates from the bracket base with fixed
    substeps, so the located state inherits the integrator's accuracy.
    """
    tol = 1e-9 * (1.0 + abs(level))
    f_of = st.f_of
    lo, hi = 0.0, h
    g_lo = f_of(y_base) - level

    # cubic-Hermite initial guess on f(t) using df/dt = -2 dir ||v||^2
    k_lo = st.field(y_base)
    fdot_lo = -2.0 * st.direction * float(k_lo[:st.dim] @ k_lo[:st.dim])
    tau = lo - g_lo / fdot_lo if fdot_lo != 0.0 else 0.5 * h
    tau = min(max(tau, 1e-3 * h), h)

    y_tau = st.advance_fixed(y_base.copy(), tau)
    for _ in range(60):
        g = f_of(y_tau) - level
        if abs(g) <= 0.25 * tol:
            break
        if (g > 0.0) == (g_lo > 0.0):
            lo = tau
        else:
            hi = tau
        k_tau = st.field(y_tau)
        # d f / d tau along the integrated field is -2 * direction * ||v||^2
        fdot = -2.0 * st.direction * float(k_tau[:st.dim] @ k_tau[:st.dim])
        tau_newton = tau - g / fdot if fdot != 0.0 else None
        if tau_newton is not None and lo < tau_newton < hi:
            tau = tau_newton
        else:
            tau = 0.5 * (lo + hi)
        y_tau = st.advance_fixed(y_base.copy(), tau)
    else:
        raise LevelNotReachedError("event location failed to converge", limit_value=None)
    return t_base + tau, y_tau


def tau_level(x: Representation, alpha, ell: float, cfg: IntegratorConfig,
              direction: int = 1):
    """First time t with f(x(t)) = ell, and the state there.

    Raises LevelNotReachedError, carrying the limiting critical value, when
    the flow converges before crossing (the convergence branch of the
    forward/backward dichotomy), or with limit_value None on a time cap.
    """
    f0 = f_value(x, alpha)
    if abs(f0 - ell) <= 1e-14 * (1.0 + abs(ell)):
        return 0.0, x
    if (f0 - ell) * direction < 0.0:
        raise ValueError("level is on the wrong side of f(x) for this flow direction")
    trace = integrate(x, alpha, cfg, direction=direction, stop_level=ell)
    if trace.status == "exited_level":
        return float(trace.ts[-1]), trace.final
    if trace.status == "converged":
        raise LevelNotReachedError(
            f"flow converged at critical value {trace.fs[-1]:.12g} before reaching {ell:.12g}",
            limit_value=float(trace.fs[-1]))
    raise LevelNotReachedError(
        f"flow stopped with status {trace.status} before reaching {ell:.12g}",
        limit_value=None)


def trace_crossing(trace: FlowTrace, level: float, alpha):
    """The state where a recorded trajectory first reaches f = level.

    Solves the first accepted step whose f passes the level, from the
    stored state at its start.  Before that step ``integrate`` accepts the
    same steps with or without ``stop_level``, so the result equals
    ``tau_level``'s state bit for bit.  Returns the start when it lies on
    the level, raises ValueError for a level on the wrong side, and returns
    None where ``tau_level`` raises LevelNotReachedError.
    """
    f0, direction = trace.fs[0], trace.direction
    if abs(f0 - level) <= 1e-14 * (1.0 + abs(level)):
        return trace.point(0)
    if (f0 - level) * direction < 0.0:
        raise ValueError("level is on the wrong side of f(x) for this flow direction")
    passed = np.flatnonzero((trace.fs[1:] - level) * direction <= 0.0)
    if passed.size == 0:
        return None
    j = int(passed[0])
    st = _Stepper(trace.quiver, trace.dims, alpha, direction)
    y_base = np.append(trace.states[j], 0.5 * trace.monitors["energy"][j])
    try:
        _, y = _locate_level(st, y_base, trace.ts[j], trace.steps[j], level)
    except LevelNotReachedError:
        return None
    return Representation.unflatten(trace.quiver, trace.dims, y[:st.dim])


@dataclass(frozen=True)
class LevelSetResult:
    point: Representation
    time: float
    status: str          # "crossed" or "limit"


def level_set_map(x: Representation, alpha, ell2: float, cfg: IntegratorConfig) -> LevelSetResult:
    """Map a point of one level set along the flow to the level ell2.

    Forward when ell2 < f(x), backward when ell2 > f(x).  If ell2 is the
    critical value the flow converges to, the limit point is returned with
    status "limit" instead of a finite crossing.
    """
    f0 = f_value(x, alpha)
    direction = 1 if ell2 <= f0 else -1
    try:
        t, y = tau_level(x, alpha, ell2, cfg, direction=direction)
        # a "crossing" right at a stationary value is really the limit point
        gn = float(np.linalg.norm(flow_velocity(y, alpha).flatten())) * 2.0
        return LevelSetResult(point=y, time=t,
                              status="limit" if gn < cfg.grad_stop else "crossed")
    except LevelNotReachedError as exc:
        if exc.limit_value is not None and abs(exc.limit_value - ell2) <= 1e-6 * (1.0 + abs(ell2)):
            trace = integrate(x, alpha, cfg, direction=direction)
            return LevelSetResult(point=trace.final, time=float(trace.ts[-1]), status="limit")
        raise


def energy_identity_defect(trace: FlowTrace) -> float:
    """|f(start) - f(end) - 2 int ||dx/dt||^2 dt| from the co-integrated
    dissipation column (zero for degenerate single-sample traces)."""
    if trace.n_samples < 2:
        return 0.0
    drop = (trace.fs[0] - trace.fs[-1]) * trace.direction
    return float(abs(drop - trace.monitors["energy"][-1]))


def quadrature_dissipation(trace: FlowTrace, alpha) -> float:
    """2 int ||dx/dt||^2 dt recomputed by Simpson quadrature on the samples.

    Cross-check for the co-integrated dissipation column; uses the stored
    gradnorm values (||dx/dt|| = gradnorm / 2) with midpoints from velocity
    evaluations on linear state interpolants.
    """
    if trace.n_samples < 2:
        return 0.0
    g = (trace.gradnorms / 2.0) ** 2
    kernel = VelocityKernel(trace.quiver, trace.dims, alpha)
    vm = kernel.velocity_flat(0.5 * (trace.states[:-1] + trace.states[1:]))
    gm = np.einsum("ij,ij->i", vm, vm)
    return 2.0 * float(np.sum(np.diff(trace.ts) / 6.0 * (g[:-1] + 4.0 * gm + g[1:])))


@dataclass(frozen=True)
class Condition2Report:
    forward: str                  # exits_below | converges_interior | inconclusive
    backward: str                 # exits_above | converges_interior | inconclusive
    forward_time: float = None
    backward_time: float = None
    forward_limit: float = None
    backward_limit: float = None


def condition2_probe(x: Representation, a: float, b: float, alpha,
                     cfg: IntegratorConfig) -> Condition2Report:
    """Classify both flow directions against the window [a, b].

    The caller asserts a < f(x) < b with a, b non-critical.  Each direction
    either exits through its end of the window or converges to an interior
    critical value; a time cap without classification is reported as
    inconclusive, never silently classified.
    """
    f0 = f_value(x, alpha)
    if not (a < f0 < b):
        raise ValueError("need a < f(x) < b")
    out = {}
    for direction, level, key in ((1, a, "forward"), (-1, b, "backward")):
        trace = integrate(x, alpha, cfg, direction=direction, stop_level=level)
        if trace.status == "exited_level":
            out[key] = ("exits_below" if direction == 1 else "exits_above",
                        float(trace.ts[-1]), None)
        elif trace.status == "converged":
            out[key] = ("converges_interior", float(trace.ts[-1]), float(trace.fs[-1]))
        else:
            out[key] = ("inconclusive", None, None)
    return Condition2Report(
        forward=out["forward"][0], backward=out["backward"][0],
        forward_time=out["forward"][1], backward_time=out["backward"][1],
        forward_limit=out["forward"][2], backward_limit=out["backward"][2],
    )
