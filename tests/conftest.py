import warnings

import numpy as np
import pytest

from quiverflow.moment import CentralShift, VelocityKernel, f_value
from quiverflow.flow import IntegratorConfig, integrate_many, trace_crossings
from quiverflow.errors import LevelNotReachedError
from quiverflow.archive import csv_float
from quiverflow.presets import A2_PAIR_ALPHA, a2, a2_pair, a3_chain, jordan_one_loop, jordan_two_loops
from quiverflow.quiver import (
    LieAlgebraElement,
    Quiver,
    Representation,
    infinitesimal_action,
    unflatten_blocks,
)


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def star():
    q = Quiver.from_lists(["c", "1", "2", "3"],
                          [("a", "1", "c"), ("b", "2", "c"), ("d", "3", "c")])
    return q, (2, 1, 1, 1), CentralShift((0.9, -0.7, -0.5, -0.3))


def two_loops():
    q, dims = jordan_two_loops(2)
    return q, dims, CentralShift((0.5,))


def a3():
    q, dims, _ = a3_chain()
    return q, dims, CentralShift((-1.0, 0.2, 0.8))


def a2_pair_model():
    return (*a2_pair(), A2_PAIR_ALPHA)


def one_edge():
    return (*a2(), CentralShift((-1.0, 1.0)))


def one_loop():
    return (*jordan_one_loop(1), CentralShift((0.7,)))


def isolated_vertex():
    # vertex 3 has no arrows: its moment block is identically zero
    q = Quiver.from_lists(["1", "2", "3"], [("a", "1", "2")])
    return q, (1, 1, 2), CentralShift((-1.0, 1.0, 0.4))


def zero_dim():
    q, _, alpha = star()
    return q, (2, 1, 0, 1), alpha


# every preset, a vertex without arrows and a zero dimension: the models the
# moment-tensor kernel is checked on against the Hermitian-block route
ORACLE_MODELS = [one_edge, a2_pair_model, a3, star, one_loop, two_loops, isolated_vertex, zero_dim]


def kronecker(d1, d2):
    """Three parallel arrows 1 -> 2 at dims (d1, d2)."""
    def model():
        q = Quiver.from_lists(["1", "2"], [(k, "1", "2") for k in "abc"])
        return q, (d1, d2), CentralShift((-0.6, 0.4))
    model.__name__ = f"kronecker{d1}{d2}"
    return model


# the models the orbit geometry is checked on against ``rho_matrix``
ORBIT_MODELS = ORACLE_MODELS + [kronecker(2, 2), kronecker(2, 3)]


def orbit_states(q, dims, rng):
    """Random states, the zero state and each random state with one edge zeroed."""
    states = [Representation.random(q, dims, rng) for _ in range(3)]
    states.append(Representation.zero(q, dims))
    for a in range(q.n_edges):
        x = states[a % 3]
        states.append(x.replace_blocks(np.zeros_like(b) if e == a else b
                                       for e, b in enumerate(x.blocks)))
    return states


def rho_matrix(x):
    """The infinitesimal action at x as a real matrix (rows in the flat
    representation order, columns in the flat Lie-algebra order), built
    column by column from ``infinitesimal_action``."""
    q, dims = x.quiver, x.dims
    mat = np.zeros((q.rep_real_dim(dims), q.group_real_dim(dims)))
    for k, e in enumerate(np.eye(mat.shape[1])):
        u = LieAlgebraElement(q, dims, unflatten_blocks(e, [(d, d) for d in dims]))
        mat[:, k] = infinitesimal_action(u, x).flatten()
    return mat


def flow_velocity(x, alpha):
    """Downward flow field -rho_x(H - alpha), which equals -(1/2) grad f, as a
    ``Representation``: the oracle the flat velocity kernel is compared against."""
    v = VelocityKernel(x.quiver, x.dims, alpha).velocity_flat(x.flatten())
    return Representation.unflatten(x.quiver, x.dims, v)


def _fd_hessian(fun, y0, h):
    """Central-difference Hessian of a scalar function of a real vector.

    fun takes the stack of every stencil point in one call; each entry is
    the per-entry formula on those values (the same points, the same order
    of operations).
    """
    n = y0.size
    i, j = np.triu_indices(n, 1)
    e = h * np.eye(n)
    ei, ej = e[i], e[j]
    vals = fun(np.concatenate([y0[None], y0 + 2 * e, y0 - 2 * e, y0 + ei + ej,
                               y0 + ei - ej, y0 - ei + ej, y0 - ei - ej]))
    f0, fpp, fmm, pp, pm, mp, mm = np.split(vals, np.cumsum([1, n, n] + [i.size] * 3))
    out = np.diag((fpp - 2.0 * f0 + fmm) / (4.0 * h * h))
    out[i, j] = out[j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
    return out


def hessian_fd(x: Representation, alpha: CentralShift, step: float = 1e-4) -> np.ndarray:
    """Finite-difference Hessian of f in the flattened real coordinates: the
    oracle the exact Hessian ``hessian_matrix`` is compared against.

    Uses central differences of the values of f only (independent of the
    analytic gradient), with one Richardson extrapolation step at 2*step.
    A large extrapolation correction signals cancellation from a too-small
    step and raises a warning rather than failing.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    y0 = x.flatten()
    fun = VelocityKernel(x.quiver, x.dims, alpha).f_flat
    h1 = _fd_hessian(fun, y0, step)
    h2 = _fd_hessian(fun, y0, 2.0 * step)
    out = (4.0 * h1 - h2) / 3.0
    scale = max(np.linalg.norm(h1), 1.0)
    if np.linalg.norm(h1 - h2) > 1e-2 * scale + 1e-6:
        warnings.warn(
            "hessian_fd: step-size sensitivity detected (possible cancellation); "
            "consider a larger step", stacklevel=2)
    return 0.5 * (out + out.T)


def lone_flow(x, alpha, cfg, direction=1, stop_level=None, replay_steps=None):
    """``integrate_many`` on a batch of one point: its trace."""
    replays = None if replay_steps is None else [replay_steps]
    return integrate_many([x], alpha, cfg, direction, stop_level, replays)[0]


def tau_level(x, alpha, ell, cfg, direction=1):
    """First time t with f(x(t)) = ell, and the state there: the crossing
    oracle, which integrates again with ``stop_level`` where the package reads
    crossings off recorded traces.

    Raises LevelNotReachedError, carrying the limiting critical value, when
    the flow converges before crossing, or with limit_value None on a time
    cap.  Forward to a and backward to b, the two calls give the dichotomy
    of the paper's Condition 2: each direction from a < f(x) < b either
    leaves the window [a, b] or converges to a critical value inside it.
    """
    f0 = f_value(x, alpha)
    if abs(f0 - ell) <= 1e-14 * (1.0 + abs(ell)):
        return 0.0, x
    if (f0 - ell) * direction < 0.0:
        raise ValueError("level is on the wrong side of f(x) for this flow direction")
    trace = lone_flow(x, alpha, cfg, direction=direction, stop_level=ell)
    if trace.status == "exited_level":
        return float(trace.ts[-1]), trace.final
    if trace.status == "converged":
        raise LevelNotReachedError(
            f"flow converged at critical value {trace.fs[-1]:.12g} before reaching {ell:.12g}",
            limit_value=float(trace.fs[-1]))
    raise LevelNotReachedError(
        f"flow stopped with status {trace.status} before reaching {ell:.12g}",
        limit_value=None)


def trace_crossing(trace, level, alpha):
    """``trace_crossings`` on a stack of one trace."""
    return trace_crossings([trace], [level], alpha)[0]


@pytest.fixture
def rng():
    return philox(12345)


@pytest.fixture
def a2_model():
    q, dims = a2()
    return q, dims, CentralShift((-1.0, 1.0))


@pytest.fixture
def jordan1_model():
    q, dims = jordan_one_loop(1)
    return q, dims, CentralShift((0.7,))


@pytest.fixture
def jordan2_model():
    q, dims = jordan_two_loops(2)
    return q, dims, CentralShift((0.5,))


@pytest.fixture
def tight_cfg():
    return IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=200.0)


def per_cell_census_csv(census_json):
    """Census CSV oracle: one f-string per grid cell."""
    lines = ["rho,theta,in_set,component_id"]
    theta = [csv_float(t) for t in census_json["theta"]]
    labels = np.asarray(census_json["labels"]).tolist()
    for r, row in zip(map(csv_float, census_json["rho"]), labels):
        lines.extend(f"{r},{t},{'1' if lab >= 0 else '0'},{lab}"
                     for t, lab in zip(theta, row))
    return "\n".join(lines) + "\n"


def index_dtype(mask):
    """The census label dtype: the grid's index dtype."""
    return np.int32 if mask.size < 2 ** 31 else np.int64


def cell_census(mask):
    """Reference labelling by union-find on cells, fast enough for 800^2 grids.

    Radial and angular edges between in-set cells, none from theta = 2 pi
    back to 0, the whole origin row started as one tree; min-label hooking
    with pointer jumping, then the sorted roots number the components.
    Returns the count and the per-cell label grid, -1 outside the set.
    """
    n_theta = mask.shape[1]
    itype = index_dtype(mask)
    radial = np.flatnonzero(mask[:-1] & mask[1:]).astype(itype)
    right = np.zeros_like(mask)
    right[1:, :-1] = mask[1:, :-1] & mask[1:, 1:]
    angular = np.flatnonzero(right).astype(itype)
    u = np.concatenate([radial, angular])
    v = np.concatenate([radial + n_theta, angular + 1])
    parent = np.arange(mask.size, dtype=itype)
    parent[:n_theta] = 0
    while True:
        ru, rv = parent[u], parent[v]
        cross = ru != rv
        if not cross.any():
            break
        u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    roots, inverse = np.unique(parent[mask.ravel()], return_inverse=True)
    labels = np.full(mask.shape, -1, dtype=itype)
    labels[mask] = inverse
    return len(roots), labels


def label_runs(labels):
    """Run-encoding oracle: the runs of equal labels over the row-major cells
    of a per-cell census grid, ``np.repeat(label_values, label_lengths)``
    being the flattened grid."""
    flat = labels.ravel()
    starts = np.flatnonzero(np.concatenate(([flat.size > 0], flat[1:] != flat[:-1])))
    return {"label_values": flat[starts], "label_lengths": np.diff(starts, append=flat.size)}


def decoded_census_grid(grid):
    """A census grid with its label runs decoded into the per-cell ``labels`` matrix."""
    labels = np.repeat(grid["label_values"], grid["label_lengths"])
    return {**grid, "labels": labels.reshape(len(grid["rho"]), len(grid["theta"]))}


def a2_logistic(s0, t):
    """Closed-form |x(t)|^2 for the one-edge quiver with shift (-1, 1).

    Independent oracle: d s / d t = -2 s (s - 2) with s(0) = s0.
    """
    e = np.exp(4.0 * t)
    return 2.0 * s0 * e / (2.0 + s0 * (e - 1.0))


def a2_f(s):
    """f as a function of s = |x|^2 for the shift (-1, 1)."""
    return (s - 2.0) ** 2 / 2.0
