"""f, the flow field and the Hessian have one implementation, ``VelocityKernel``,
closed forms in the moment tensor T.

The Hermitian-block route (``beta_of`` and ``infinitesimal_action``) stays
here as the reference the kernel is checked against on every preset, and
the inner loops of ``refine_critical`` and of the finite-difference Hessian
oracle ``hessian_fd`` (in ``conftest``, which the exact Hessian is held to)
are checked to run on flat vectors rather than on validated
``Representation`` values.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import quiverflow
from quiverflow.quiver import LieAlgebraElement, Quiver, Representation, infinitesimal_action
from quiverflow.moment import CentralShift, beta_of, f_value, hessian_matrix
from quiverflow.critical import refine_critical
from quiverflow.errors import ShapeError
from quiverflow.presets import a2, jordan_two_loops, scalar_rep

from conftest import (ORACLE_MODELS, _fd_hessian, a2_pair_model, flow_velocity, hessian_fd,
                      lone_flow, philox, star, two_loops)


EPS = np.finfo(float).eps


def count_representations(monkeypatch):
    """Patch Representation.__post_init__ to count every validated build."""
    calls = []
    post_init = Representation.__post_init__

    def counting(self):
        calls.append(1)
        post_init(self)

    monkeypatch.setattr(Representation, "__post_init__", counting)
    return calls


@pytest.mark.parametrize("maker", ORACLE_MODELS)
def test_kernel_wrappers_match_hermitian_route(maker):
    q, dims, alpha = maker()
    rng = philox(2718)
    for _ in range(10):
        x = Representation.random(q, dims, rng)
        beta = beta_of(x, alpha)
        ref_f = beta.norm_sq()
        assert abs(f_value(x, alpha) - ref_f) <= 1e-14 * ref_f
        u = LieAlgebraElement(q, dims, beta.blocks)
        ref_v = -infinitesimal_action(u, x).flatten()
        v = flow_velocity(x, alpha).flatten()
        assert np.linalg.norm(v - ref_v) <= 1e-14 * np.linalg.norm(ref_v)


def test_batched_f_rows_equal_lone_calls():
    # states next to a minimum (f down to about 1e-30 where the minimum
    # value is 0) are included alongside random ones
    from quiverflow.moment import VelocityKernel, _moment_form
    from quiverflow.presets import A2_PAIR_ALPHA, a2_pair
    from quiverflow.quiver import unflatten_blocks

    models = [(*a2(), CentralShift((-1.0, 1.0))), (*a2_pair(), A2_PAIR_ALPHA), star(), two_loops()]
    rng = philox(99)
    checked = 0
    for q, dims, alpha in models:
        kernel = VelocityKernel(q, dims, alpha)
        n = q.rep_real_dim(dims)
        spread = rng.standard_normal((2000, n)) * np.exp(rng.uniform(-6.0, 1.5, (2000, 1)))
        # a minimum, from a long flow, moved by 1e-15 to 1e-3
        y_min = integrate_to_limit(q, dims, alpha, rng)
        near = y_min + rng.standard_normal((1000, n)) * 10.0 ** rng.uniform(-15, -3, (1000, 1))
        states = np.vstack([spread, near])
        batch = kernel.f_flat(states)
        assert batch.shape == (len(states),)
        lone = np.array([kernel.f_flat(y) for y in states])
        assert np.array_equal(batch, lone)
        # the lone value is the norm of each shifted moment block, squared
        shift = [a * np.eye(d) for d, a in zip(dims, alpha.alpha)]
        for y, f in zip(states[::10], lone[::10]):
            x = unflatten_blocks(y, q.block_shapes(dims))
            h = _moment_form(q, x, x, [np.zeros((d, d), complex) for d in dims])
            ref = float(sum(np.linalg.norm(m - s) ** 2 for m, s in zip(h, shift)))
            # both routes round H - alpha with an absolute error of order
            # n eps |y|^2, a large relative error in f next to a zero of f
            yy, m = y @ y, q.group_real_dim(dims)
            assert abs(f - ref) <= 1e-14 * ref + 4 * n * EPS * yy * (np.sqrt(m * ref) + m * n * EPS * yy)
        f_min = kernel.f_flat(y_min)
        assert np.min(lone[2000:]) <= f_min * (1.0 + 1e-12) + 1e-20
        assert kernel.f_flat(states[:1]).shape == (1,) and isinstance(kernel.f_flat(states[0]), float)
        checked += len(states)
    assert checked >= 10_000


def test_moment_tensor_size_limit():
    from quiverflow.moment import MAX_TENSOR_ENTRIES, VelocityKernel

    # three arrows at dims (10, 10): T would hold 400 x 600 x 600 entries
    q = Quiver.from_lists(["1", "2"], [(e, "1", "2") for e in "abc"])
    assert 400 * 600 * 600 > MAX_TENSOR_ENTRIES
    with pytest.raises(ShapeError, match=r"dims \(10, 10\).*144000000 entries"):
        VelocityKernel(q, (10, 10), CentralShift((-1.0, 1.0)))


def integrate_to_limit(q, dims, alpha, rng):
    from quiverflow.flow import IntegratorConfig

    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15, max_time=300.0, grad_stop=1e-10)
    tr = lone_flow(Representation.random(q, dims, rng), alpha, cfg)
    assert tr.status == "converged"
    return tr.states[-1]


def test_f_is_exactly_constant_where_the_moment_vanishes():
    # one vertex with two rank-one loops: H = 0 everywhere, so f = alpha^2
    q, dims = jordan_two_loops(1)
    alpha = CentralShift((0.37,))
    rng = philox(31)
    values = {f_value(Representation.random(q, dims, rng, scale=2.0), alpha) for _ in range(20)}
    assert values == {0.37 ** 2}
    x = Representation.random(q, dims, rng)
    assert not np.any(hessian_fd(x, alpha))
    assert not np.any(hessian_matrix(x, alpha))


def test_hessian_fd_builds_no_representation_per_evaluation(monkeypatch):
    q, dims, alpha = star()
    x = Representation.random(q, dims, philox(5))
    calls = count_representations(monkeypatch)
    hessian_fd(x, alpha)
    assert len(calls) <= 2


def test_refine_critical_builds_a_handful_of_representations(monkeypatch):
    q, dims = a2()
    # off the circle of minima |x|^2 = 2 by little enough to skip the flow
    x = scalar_rep(q, dims, [np.sqrt(2.0) + 1e-5 + 2e-6j])
    calls = count_representations(monkeypatch)
    rec = refine_critical(x, CentralShift((-1.0, 1.0)), tol=1e-12)
    assert rec.grad_residual < 1e-12
    assert len(calls) <= 6


def test_fiber_directions_does_not_import_scipy_stats():
    code = ("import sys; from quiverflow.critical import fiber_directions; "
            "d = fiber_directions(4, 8); "
            "assert d.shape == (8, 4); "
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'")
    src = os.path.dirname(os.path.dirname(quiverflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def fd_hessian_loop(fun, y0, h):
    """The per-entry central-difference loop: the oracle of the batched stencil."""
    n = y0.size
    out = np.empty((n, n))
    f0 = fun(y0)
    for i in range(n):
        ei = np.zeros(n); ei[i] = h
        out[i, i] = (fun(y0 + 2 * ei) - 2.0 * f0 + fun(y0 - 2 * ei)) / (4.0 * h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n); ej[j] = h
            out[i, j] = out[j, i] = (fun(y0 + ei + ej) - fun(y0 + ei - ej)
                                     - fun(y0 - ei + ej) + fun(y0 - ei - ej)) / (4.0 * h * h)
    return out


@pytest.mark.parametrize("maker", [star, a2_pair_model, two_loops])
def test_batched_fd_hessian_equals_the_per_entry_loop(maker):
    from quiverflow.moment import VelocityKernel

    q, dims, alpha = maker()
    fun = VelocityKernel(q, dims, alpha).f_flat
    rng = philox(31)
    for _ in range(3):
        y0 = Representation.random(q, dims, rng).flatten()
        for h in (1e-4, 2e-4):
            assert np.array_equal(_fd_hessian(fun, y0, h), fd_hessian_loop(fun, y0, h))


def test_hessian_fd_makes_one_f_call_per_stencil(monkeypatch):
    from quiverflow.moment import VelocityKernel

    calls = []
    f_flat = VelocityKernel.f_flat

    def counting(self, y):
        calls.append(np.shape(y))
        return f_flat(self, y)

    monkeypatch.setattr(VelocityKernel, "f_flat", counting)
    q, dims, alpha = star()
    hessian_fd(Representation.random(q, dims, philox(6)), alpha)
    n = q.rep_real_dim(dims)
    assert calls == [(1 + 2 * n * n, n)] * 2


def test_fiber_directions_match_the_ndtri_route():
    from scipy.special import ndtri           # reference only
    from quiverflow.critical import fiber_directions

    n = 64
    for dim in range(3, 13):
        phi = 2.0
        for _ in range(64):
            phi = (1.0 + phi) ** (1.0 / (dim + 1))
        pts = (0.5 + np.outer(np.arange(1, n + 1), phi ** -np.arange(1, dim + 1))) % 1.0
        z = ndtri(np.clip(pts, 1e-12, 1 - 1e-12))
        ref = z / np.linalg.norm(z, axis=1, keepdims=True)
        assert np.max(np.abs(fiber_directions(dim, n) - ref)) <= 4e-15


def test_battery_and_variety_probe_import_no_scipy(tmp_path):
    configs = os.path.join(os.path.dirname(quiverflow.__file__), "configs")
    code = ("import os, sys\n"
            "from quiverflow.runconfig import build_model, load_config\n"
            "from quiverflow.runner import run_experiment\n"
            "for name in ('a2_check', 'a3_variety'):\n"
            "    model = build_model(load_config(os.path.join(sys.argv[1], name + '.json')))\n"
            "    run_experiment(model, os.path.join(sys.argv[2], name))\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    src = os.path.dirname(os.path.dirname(quiverflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code, configs, str(tmp_path)], check=True, env=env)
    for name in ("a2_check", "a3_variety"):
        assert os.listdir(tmp_path / name / "outputs")
