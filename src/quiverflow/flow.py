"""Time integration of the downward flow, level-crossing solves, monitors.

The integrator is a hand-rolled DOP853, the 8th-order Dormand-Prince pair,
with scipy's error norm and step-size control (exponent -1/8, factors
clipped to [0.2, 10]).  The integrated field is
``VelocityKernel.velocity_flat`` (which equals -(1/2) grad f, see
:mod:`quiverflow.moment`), optionally reversed for backward trajectories.
Alongside the state we co-integrate the dissipation ``int ||dx/dt||^2 dt``;
twice that accumulator is reported as the monitor column ``energy`` and
makes the energy-identity defect measurable at the integrator's own order
instead of being limited by sample quadrature.

Each step also estimates the spectral radius rho of the field's Jacobian
from two slopes it already has, as the stiffness test of Hairer's DOP853
code does: rho ~ ||k13 - k12|| / ||y8 - Y12||, the FSAL slope at the new
state y8 against the twelfth stage and its argument Y12, which sits at the
same time.  After an accepted step a row's next step is at most
``STABILITY_CAP / rho``, inside the method's stability region; without the
cap the controller grows the step past that boundary where the flow
settles, and rejects and shrinks it over and over.

``integrate_many`` runs a list of points as the rows of one state array,
one batched field call per stage; f at each new state comes from the
contraction of the FSAL stage (the field at the step's end, which is the
next step's first slope), so a step costs twelve contractions.  Each row
keeps its own flow direction, time, step, stall streak and status, and
leaves the batch when it finishes; a lone flow is a batch of one.
A row is bitwise its lone run: each reduction is taken per row as a lone
run takes it (``np.vecdot``, per-state matmuls, row sums, and Python's
``pow`` for step control, where numpy's array powers round otherwise),
the stage slopes are combined in the order of a per-row sum, and a sign
of +-1 multiplies exactly.

Traces store flat real states and build a ``Representation`` only on
demand.  Level crossings f(x(t)) = level are located inside the bracketing
accepted step on DOP853's 7th-order dense output (Hairer, Norsett &
Wanner, Solving ODEs I, II.6): three extra stages build the interpolant
once, and a safeguarded Newton iteration in time then costs one
contraction per iterate, the field and f at the interpolated state.  f is
strictly monotone along nonconstant trajectories, so the bracket always
contains exactly one root.  Crossings are solved as a stack, each row on
its own, so a row's crossing is bitwise the same alone or in a stack.  Up
to a crossing, integration accepts the same steps with or without a stop
level, so ``trace_crossings`` replays a recorded trace's bracketing step
from its flat state, and the integrator alone decides where a row stops.
"""

from __future__ import annotations

import copy
import math
from array import array
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import LevelNotReachedError, QuiverFlowError
from .moment import VelocityKernel
from .quiver import Quiver, Representation, path_product, unflatten_blocks

__all__ = [
    "IntegratorConfig",
    "FlowTrace",
    "integrate_many",
    "trace_crossings",
    "energy_identity_defect",
]

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10), 12 stages and FSAL, as
# float64 literals: B gives the 8th-order step, E5 and E3 its 5th- and 3rd-order
# error estimates.  The stage times C are left out: the field is autonomous.
_A = tuple(np.array(row) for row in (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
))
_B = np.array((0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
               1.8915178993145003, -5.801203960010585, 0.3111643669578199,
               -0.1521609496625161, 0.20136540080403034, 0.04471061572777259))
_E5 = np.array((0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294))
_E3 = np.array((-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
                1.8915178993145003, -5.801203960010585, -0.4226823213237919,
                -0.1521609496625161, 0.20136540080403034, 0.02265179219836082))

# DOP853's dense output: the three extra stages, rows 13-15 of the extended tableau
# (slot 12 holds the FSAL slope), and the 4 x 16 matrix D of the interpolant's upper rows
_A_EXTRA = tuple(np.array(row) for row in (
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
))
_D = np.array((
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
))

BLOWUP_FACTOR = 1e6
# The largest h * rho a row's next step may take, rho the step's stiffness estimate:
# DOP853's stability region meets the negative real axis at -6.39, and the field's
# Jacobian, minus half the Hessian, has a real spectrum.
STABILITY_CAP = 5.0
# f may rise by this much, relative to 1 + |f|, between samples of a monotone trace
MONOTONE_SLACK = 1e-10


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
        # written so that NaN fails each test
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not (0 < self.min_step < self.max_step):
            raise ValueError("need 0 < min_step < max_step")
        if not (self.max_time > 0 and self.grad_stop > 0 and self.stall_window >= 1
                and self.max_steps >= 1):
            raise ValueError("max_time, grad_stop, stall_window, max_steps must be positive")


# the replay of a recorded step, whose trace does not keep the config it ran under: no
# cap ends it, and no row counts as stationary, since 1e-3 * grad_stop is 0.0
_REPLAY = IntegratorConfig(max_step=math.inf, max_time=math.inf, grad_stop=math.ulp(0.0))


@dataclass(frozen=True)
class FlowTrace:
    """Accepted-step samples of one trajectory.

    ``states`` holds one flat real state per sample, an
    ``(n_samples, dim)`` array in the column order of
    ``quiver.flatten_blocks``; ``point(i)`` and ``final`` build a validated
    ``Representation`` from a row only when asked.  ``monitors`` always
    contains the key ``energy`` (twice the accumulated dissipation);
    ``with_monitors`` adds cycle traces and relation residuals computed
    from the stored states.  ``steps[i]`` is the accepted step from sample
    i to sample i + 1, so a run can be replayed on an identical time grid.
    """

    ts: np.ndarray
    states: np.ndarray
    fs: np.ndarray
    gradnorms: np.ndarray
    monitors: dict
    # converged | exited_level | past_level | blow_up | max_time | max_steps |
    # replay_exhausted | step_underflow; README's Conventions say when each is given
    status: str
    direction: int = 1
    steps: tuple = ()
    quiver: Quiver = None
    dims: tuple = None

    def __post_init__(self):
        if np.any(np.diff(self.ts) <= 0):
            raise QuiverFlowError("trace times must be strictly increasing")
        dfs = np.diff(self.fs) * self.direction
        slack = MONOTONE_SLACK * (1.0 + np.abs(self.fs[:-1]))
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

    def with_monitors(self, cycles=(), relations=()):
        """This trace with conserved-quantity columns ahead of ``energy``: the
        trace of each cycle word (``cyc:<name>:re`` and ``:im``), then the
        Frobenius residual of each relation (``rel:<name>``), in registration
        order.  Each column is one batched evaluation on the stored states,
        bitwise equal to ``cycle_trace`` and ``relation_residual`` per sample.
        An unnamed monitor is called ``c<k>`` or ``r<k>`` by its position;
        raises ValueError if two monitors would get the same column."""
        cyc_names = [f"cyc:{w.name or f'c{k}'}" for k, w in enumerate(cycles)]
        rel_names = [f"rel:{r.name or f'r{k}'}" for k, r in enumerate(relations)]
        names = cyc_names + rel_names
        repeated = [n for n in names if names.count(n) > 1]
        if repeated:
            raise ValueError(f"two monitors share the column {repeated[0]!r}")
        shapes = self.quiver.block_shapes(self.dims)
        # C-order blocks, as a Representation stores them, for the same matmul path
        blocks = [np.ascontiguousarray(b) for b in unflatten_blocks(self.states, shapes)]
        cols = {}
        for name, w in zip(cyc_names, cycles):
            tr = np.trace(path_product(blocks, w.path), axis1=-2, axis2=-1)
            cols[f"{name}:re"], cols[f"{name}:im"] = tr.real, tr.imag
        for name, r in zip(rel_names, relations):
            v = r.evaluate(blocks).reshape(self.n_samples, -1)
            # per row, the dot products np.linalg.norm takes
            cols[name] = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
        out = copy.copy(self)       # a copy skips __post_init__, which has warned once already
        object.__setattr__(out, "monitors", {**cols, "energy": self.monitors["energy"]})
        return out


class _Stepper:
    """DOP853 on flattened states (a row or a stack) plus dissipation.

    ``direction`` is +-1, or a column of +-1.0 with one entry per row of a stack.
    """

    def __init__(self, quiver, dims, alpha, direction):
        self.direction = direction
        self.dim = quiver.rep_real_dim(dims)
        self.kernel = VelocityKernel(quiver, dims, alpha)

    def rows(self, sel):
        """This stepper for the rows ``sel`` of its stack alone, with their directions."""
        out = copy.copy(self)
        out.direction = self.direction[sel]
        return out

    def field(self, y, out=None):
        """The integrated field at y with ||v||^2 in the last column, written into
        ``out`` when given."""
        return self._slope(self.kernel.velocity_flat(y[..., :self.dim]), y.shape, out)

    def field_f(self, y, out=None):
        """``field(y, out)`` and f at y, from one contraction."""
        v, f = self.kernel.velocity_f_flat(y[..., :self.dim])
        return self._slope(v, y.shape, out), f

    def _slope(self, v, shape, out):
        out = np.empty(shape) if out is None else out
        out[..., :self.dim] = self.direction * v
        out[..., self.dim] = np.vecdot(v, v)
        return out

    def step(self, y, k1, h, cfg):
        """One embedded step of each row, its step in the column h: y_new, the slot
        buffer ks of shape (16,) + y.shape, f at y_new and the lists of error norms,
        of norms of y_new (inf if not finite) and of stiffness estimates rho (0 where
        y_new or the estimate is not finite).  ks[:12] holds the twelve stage slopes
        and ks[12] the FSAL slope at y_new; ks[13:] is left for the dense output's
        extra stages."""
        ks = np.empty((16,) + y.shape)
        ks[0] = k1
        for i in range(1, 12):
            y12 = y + h * _combine(_A[i], ks)       # the stage's argument, the twelfth's last
            self.field(y12, out=ks[i])
        y8 = y + h * _combine(_B, ks)
        k13, f13 = self.field_f(y8, out=ks[12])
        e5, e3 = _combine(_E5, ks), _combine(_E3, ks)
        ok = np.isfinite(y8).all(axis=1)
        rows = slice(None) if ok.all() else ok
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y[rows]), np.abs(y8[rows]))
        err, size = np.full(len(y), math.inf), np.full(len(y), math.inf)
        err[rows] = _error_norms(e5[rows] / scale, e3[rows] / scale, h[rows, 0])
        size[rows] = _norms(y8[rows, :self.dim])
        rho = np.zeros(len(y))
        d = self.dim
        rho[rows] = _stiffness(k13[rows, :d] - ks[11, rows, :d], y8[rows, :d] - y12[rows, :d])
        return y8, ks, f13, err.tolist(), size.tolist(), rho.tolist()


def _combine(coefs, ks):
    """sum_i coefs[i] * ks[i] over the leading slots of ks: one product with a
    coefficient column, added slot by slot from 0.0 as Python's ``sum`` adds."""
    col = coefs.reshape((-1,) + (1,) * (ks.ndim - 1))
    return np.add.reduce(col * ks[:len(coefs)], axis=0, initial=0.0)


def _rms(a):
    return np.sqrt(np.add.reduce(a ** 2, axis=-1) / a.shape[-1])    # np.mean's sum, divided


def _error_norms(e5, e3, h):
    """Per row, scipy's DOP853 norm of the scaled 5th- and 3rd-order error estimates:
    h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n), and 0 where both vanish."""
    n5, n3 = _norms(e5) ** 2, _norms(e3) ** 2
    den = np.sqrt((n5 + 0.01 * n3) * e5.shape[-1])
    return np.divide(h * n5, den, out=np.zeros_like(den), where=den > 0.0)


def _norms(a):
    return np.sqrt(np.vecdot(a, a))


def _stiffness(dk, dy):
    """Per row ||dk|| / ||dy||, and 0 where that is not finite (dy zero or not finite)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = _norms(dk) / _norms(dy)
    return np.where(np.isfinite(rho), rho, 0.0)


def _initial_steps(stepper, y0, k0, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    d0, d1 = _rms(y0 / scale).tolist(), _rms(k0 / scale).tolist()
    h0 = [min(1e-6 if (a < 1e-5 or b < 1e-5) else 0.01 * a / b, cfg.max_step, cfg.max_time)
          for a, b in zip(d0, d1)]
    k1 = stepper.field(y0 + np.array(h0)[:, None] * k0)
    d2 = (_rms((k1 - k0) / scale) / h0).tolist()
    return [max(cfg.min_step, min(100 * h, max(1e-6, h * 1e-3) if max(b, c) <= 1e-15
                                  else (0.01 / max(b, c)) ** 0.125, cfg.max_step, cfg.max_time))
            for b, c, h in zip(d1, d2, h0)]


def _on_level(f, level):
    """Whether f is on the level, as a start that ends at once as ``exited_level``."""
    return abs(f - level) <= 1e-14 * (1.0 + abs(level))


def integrate_many(x0s, alpha, cfg: IntegratorConfig, direction=1,
                   stop_level=None, replay_steps=None) -> list:
    """The flow's trace from each point in a list on one quiver and dimension
    vector, as one batch.  ``direction`` is +1 (downward) or -1 (f increases),
    and ``stop_level`` a level or None, for every row or one per row; a row
    ends exactly on its level's crossing as ``exited_level``.  ``replay_steps``
    holds a recorded step sequence or None per row: a replayed row takes those
    steps without step control, so group-related starts share one time grid.

    Each row's start is judged on its own, and ends the row at once as a
    one-sample trace: within ``1e-14 (1 + |level|)`` of its level, with
    ``exited_level``; else if stationary, with ``converged``; else if past its
    level (on the side the flow moves to), with ``past_level``."""
    signs = [direction] * len(x0s) if np.ndim(direction) == 0 else list(direction)
    if len(signs) != len(x0s) or any(d not in (1, -1) for d in signs):
        raise ValueError("direction must be +1 or -1, or one of them per point")
    levels = [stop_level] * len(x0s) if np.ndim(stop_level) == 0 else list(stop_level)
    if len(levels) != len(x0s):
        raise ValueError("stop_level must be one level, or one level per point")
    replays = [None] * len(x0s) if replay_steps is None else list(replay_steps)
    if len(replays) != len(x0s) or any(s is not None and np.ndim(s) != 1 for s in replays):
        raise ValueError("replay_steps must hold one step sequence or None per point")
    if not x0s:
        return []
    q, dims = x0s[0].quiver, x0s[0].dims
    if any(x.quiver != q or x.dims != dims for x in x0s):
        raise ValueError("a batch needs one quiver and one dimension vector")
    return _integrate_rows(q, dims, [x.flatten() for x in x0s], alpha, cfg,
                           [int(d) for d in signs], levels, replays)


def _integrate_rows(quiver, dims, y0s, alpha, cfg, signs, levels, replays) -> list:
    """``integrate_many`` from the flat states ``y0s`` (a nonempty list), with
    one int sign, level (or None) and step sequence (or None) per row."""
    n = len(y0s)
    st = _Stepper(quiver, dims, alpha, np.array(signs, dtype=float)[:, None])
    dim, replay = st.dim, [None if s is None else iter(s) for s in replays]

    y = np.column_stack([y0s, np.zeros(n)])
    k, f0 = st.field_f(y)
    f0, gn0 = f0.tolist(), (2.0 * _norms(k[:, :dim])).tolist()
    blow_bound = (BLOWUP_FACTOR * (1.0 + _norms(y[:, :dim]))).tolist()
    # per row, one record per sample: t, y (the state and dissipation), f, |grad f|
    samples, steps, traces = [array("d") for _ in range(n)], [[] for _ in range(n)], [None] * n

    def record(r, t_r, y_r, f_r, gn_r):
        samples[r].append(t_r)
        samples[r].frombytes(y_r.tobytes())
        samples[r].extend((f_r, gn_r))

    def finish(r, status):
        rec = np.frombuffer(samples[r]).reshape(-1, dim + 4)
        traces[r] = FlowTrace(rec[:, 0], rec[:, 1:dim + 1], rec[:, dim + 2], rec[:, dim + 3],
                              {"energy": 2.0 * rec[:, dim + 1]}, status, signs[r],
                              tuple(steps[r]), quiver, dims)

    for r in range(n):
        record(r, 0.0, y[r], f0[r], gn0[r])
        if levels[r] is not None and _on_level(f0[r], levels[r]):
            finish(r, "exited_level")
        # immediate convergence only well inside the threshold (a stationary
        # start); marginal starts must sustain the stall window like everyone
        elif gn0[r] < 1e-3 * cfg.grad_stop:
            finish(r, "converged")
        elif levels[r] is not None and (f0[r] - levels[r]) * signs[r] < 0.0:
            finish(r, "past_level")
    rows = list(range(n))           # the rows in the batch, in order; y, k and st follow them
    t, streak = [0.0] * n, [0] * n
    # a replayed row takes its recorded steps instead, so a batch of replays probes none
    h = _initial_steps(st, y, k, cfg) if any(s is None for s in replays) else [None] * n

    for _ in range(cfg.max_steps):
        for r in [r for r in rows if traces[r] is None]:
            if replay[r] is not None:       # every replayed step is accepted or ends the run
                h[r] = next(replay[r], None)
            floor = 1e-15 * max(1.0, t[r])     # a shorter step is lost in the rounding of t
            if cfg.max_time - t[r] < floor:
                finish(r, "max_time")
            elif h[r] is None:
                finish(r, "replay_exhausted")
            else:
                h[r] = min(h[r], cfg.max_time - t[r], cfg.max_step)
                if h[r] < floor:
                    finish(r, "step_underflow")
        keep = [traces[r] is None for r in rows]
        if not all(keep):
            rows, y, k = [r for r in rows if traces[r] is None], y[keep], k[keep]
            st.direction = st.direction[keep]
        if not rows:
            return traces
        y_new, ks, f_step, err, size, rho = st.step(y, k, np.array([[h[r]] for r in rows]), cfg)
        k_new = ks[12]

        acc = []
        for j, r in enumerate(rows):
            e = err[j]
            if replay[r] is not None or e <= 1.0:
                acc.append(j)
            elif not math.isfinite(e):
                if h[r] <= 4.0 * cfg.min_step:
                    finish(r, "blow_up")
                h[r] = max(cfg.min_step, 0.25 * h[r])
            else:
                h_new = max(cfg.min_step, h[r] * max(0.2, 0.9 * e ** -0.125))
                if h_new >= h[r] and h[r] <= cfg.min_step:
                    if not np.linalg.norm(y[j, :dim]) > 5e-3 * blow_bound[r]:
                        raise QuiverFlowError("step size underflow in integrate_many")
                    finish(r, "blow_up")    # escaping trajectory outran the resolvable step range
                h[r] = h_new
        # accepted rows that stay finite and bounded keep f and |grad f|
        good = [j for j in acc if not size[j] > blow_bound[rows[j]]]
        sel = slice(None) if len(good) == len(rows) else good
        f_new = dict(zip(good, f_step[sel].tolist()))
        gn_new = dict(zip(good, (2.0 * _norms(k_new[sel, :dim])).tolist()))

        stay = [j for j in range(len(rows)) if j not in f_new]
        crossed = []
        for j in acc:
            r = rows[j]
            if j not in f_new:
                finish(r, "blow_up")
            elif levels[r] is not None and (f_new[j] - levels[r]) * signs[r] <= 0.0:
                crossed.append(j)
            else:
                steps[r].append(h[r])
                t[r] += h[r]
                record(r, t[r], y_new[j], f_new[j], gn_new[j])
                streak[r] = streak[r] + 1 if gn_new[j] < cfg.grad_stop else 0
                if streak[r] >= cfg.stall_window:
                    finish(r, "converged")
                elif replay[r] is None:
                    fac = min(10.0, 0.9 * max(err[j], 1e-12) ** -0.125)
                    h[r] = min(cfg.max_step, max(cfg.min_step, h[r] * fac))
                    if rho[j] > 0.0:
                        h[r] = min(h[r], STABILITY_CAP / rho[j])
        if crossed:
            events = _locate_level(st.rows(crossed), y[crossed], y_new[crossed], ks[:, crossed],
                                   [samples[rows[j]][-2] for j in crossed],
                                   [h[rows[j]] for j in crossed], [levels[rows[j]] for j in crossed])
            for j, event in zip(crossed, events):
                if event is None:
                    raise LevelNotReachedError("event location failed to converge",
                                               limit_value=None)
                r, (tau, y_evt, k_evt, f_evt) = rows[j], event
                # a crossing within one float spacing of t (a blow-up at min_step) takes the
                # next float
                t_evt = max(t[r] + tau, math.nextafter(t[r], math.inf))
                steps[r].append(t_evt - t[r])
                record(r, t_evt, y_evt, f_evt, 2.0 * float(np.linalg.norm(k_evt[:dim])))
                finish(r, "exited_level")
        if stay:        # a row without an accepted step stays where it was
            y_new[stay], k_new[stay] = y[stay], k[stay]
        y, k = y_new, k_new
    for r in [r for r in rows if traces[r] is None]:
        finish(r, "max_steps")
    return traces


def _locate_level(st, y, y8, ks, f_base, h, levels):
    """Solve f(x(t)) = level inside each row's accepted step [t, t + h], as one stack.

    Row i of the stack is the step of length ``h[i]`` from ``y[i]`` to
    ``y8[i]``, whose slots 0-12 of ``ks[:, i]`` (the buffer of
    ``_Stepper.step``, the FSAL slope in slot 12) are filled; ``f_base[i]``
    is f at ``y[i]`` and ``levels[i]`` its level.  Three extra stages, one
    contraction each for the whole stack, fill ks[13:] and build DOP853's
    7th-order dense output, in scipy's form: seven rows F and a Horner
    evaluation at the step fraction.  Each row then runs a safeguarded
    Newton iteration in time on the monotone function f along the
    interpolant, which costs one ``field_f`` contraction per iterate: the
    field, whose last column gives df/dt = -2 dir ||v||^2, and f at the
    interpolated state.  A row leaves the stack when it converges, and its
    result does not depend on the other rows.

    Returns, per row, (tau, y, field, f) at the crossing, tau measured from
    the step's start, or None where the iteration did not converge.
    """
    m, dim = len(h), st.dim
    hcol = np.array(h)[:, None]
    for s, a in enumerate(_A_EXTRA, start=13):
        st.field(y + hcol * _combine(a, ks), out=ks[s])
    dy = y8 - y
    dense = np.stack([dy, hcol * ks[0] - dy, 2.0 * dy - hcol * (ks[12] + ks[0])]
                     + [hcol * _combine(d, ks) for d in _D])
    signs = st.direction[:, 0].tolist()
    tols = [1e-9 * (1.0 + abs(level)) for level in levels]
    lo, hi = [0.0] * m, list(h)
    g_lo = [f - level for f, level in zip(f_base, levels)]
    # first guess: the line through f at the base with df/dt = -2 dir ||v||^2 (field[dim])
    tau = []
    for i in range(m):
        fdot_lo = -2.0 * signs[i] * float(ks[0, i, dim])
        guess = -g_lo[i] / fdot_lo if fdot_lo != 0.0 else 0.5 * h[i]
        tau.append(min(max(guess, 1e-3 * h[i]), h[i]))

    out, active = [None] * m, list(range(m))
    for _ in range(60):
        y_tau = _interpolate(dense[:, active], y[active],
                             np.array([[tau[i] / h[i]] for i in active]))
        k_tau, f_tau = st.rows(active).field_f(y_tau)
        still = []
        for j, (i, f_i) in enumerate(zip(active, f_tau.tolist())):
            g = f_i - levels[i]
            if abs(g) <= 0.25 * tols[i]:
                out[i] = (tau[i], y_tau[j], k_tau[j], f_i)
                continue
            still.append(i)
            if (g > 0.0) == (g_lo[i] > 0.0):
                lo[i] = tau[i]
            else:
                hi[i] = tau[i]
            # d f / d tau along the integrated field is -2 * direction * ||v||^2
            fdot = -2.0 * signs[i] * float(k_tau[j, dim])
            tau_newton = tau[i] - g / fdot if fdot != 0.0 else None
            if tau_newton is not None and lo[i] < tau_newton < hi[i]:
                tau[i] = tau_newton
            else:
                tau[i] = 0.5 * (lo[i] + hi[i])
        active = still
        if not active:
            break
    return out


def _interpolate(dense, y, x):
    """The dense output with rows ``dense`` from the states y at the step
    fractions in the column x, by scipy's Horner scheme."""
    out = np.zeros_like(y)
    for i, row in enumerate(dense[::-1]):
        out += row
        out *= x if i % 2 == 0 else 1.0 - x
    return out + y


def trace_crossings(traces, levels, alpha) -> list:
    """The state where each recorded trajectory first reaches its level, as one stack.

    ``levels`` holds one level per trace; the traces share one quiver and
    dimension vector.  Each trace replays, from the stored flat state at its
    start, its first accepted step whose f passes the level, all as rows of one
    ``integrate_many`` run: 16 + m contractions for the stack (the field at the
    bases, eleven stages, the FSAL slope, three dense-output stages and one per
    Newton iterate, m at most).  Up to that step a flow accepts the same steps
    with or without ``stop_level``, so a result is bitwise the final state of
    ``integrate_many`` with that stop level.  A trace whose start is on or past
    its level, or that never reaches it, replays no step: it gives its start,
    raises ValueError (a level on the wrong side) or gives None.
    """
    levels = [float(level) for level in levels]
    if len(levels) != len(traces):
        raise ValueError("trace_crossings needs one level per trace")
    if not traces:
        return []
    q, dims = traces[0].quiver, traces[0].dims
    if any(tr.quiver != q or tr.dims != dims for tr in traces):
        raise ValueError("trace_crossings needs one quiver and one dimension vector")
    spans = []      # per trace: its first replayed sample, its first sample on or past the level
    for tr, level in zip(traces, levels):
        passed = ([0] if _on_level(tr.fs[0], level)
                  else np.flatnonzero((tr.fs - level) * tr.direction <= 0.0))
        p = int(passed[0]) if len(passed) else 0
        spans.append((max(p - 1, 0), p))
    runs = _integrate_rows(q, dims, [tr.states[j] for tr, (j, _) in zip(traces, spans)], alpha,
                           _REPLAY, [tr.direction for tr in traces], levels,
                           [tr.steps[j:p] for tr, (j, p) in zip(traces, spans)])
    if any(run.status == "past_level" for run in runs):
        raise ValueError("level is on the wrong side of f(x) for this flow direction")
    return [run.final if run.status == "exited_level" else None for run in runs]


def energy_identity_defect(trace: FlowTrace) -> float:
    """|f(start) - f(end) - 2 int ||dx/dt||^2 dt| from the co-integrated
    dissipation column (zero for degenerate single-sample traces)."""
    if trace.n_samples < 2:
        return 0.0
    drop = (trace.fs[0] - trace.fs[-1]) * trace.direction
    return float(abs(drop - trace.monitors["energy"][-1]))
