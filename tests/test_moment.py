import numpy as np
import pytest

from quiverflow.quiver import GroupElement, LieAlgebraElement, Quiver, Representation, act
from quiverflow.moment import (
    CentralShift,
    HermitianCollection,
    VelocityKernel,
    beta_of,
    f_value,
    hessian_matrix,
    moment,
    moment_map_equation_check,
)
from quiverflow.errors import ShapeError
from quiverflow.presets import a2, jordan_one_loop, jordan_two_loops, scalar_rep

from conftest import ORACLE_MODELS, ORBIT_MODELS, a2_f, flow_velocity, hessian_fd, philox


def fd_gradient(x, alpha, h=None):
    """Central differences of f values; the independent gradient oracle."""
    y0 = x.flatten()
    if h is None:
        h = 1e-6 * (1.0 + float(np.linalg.norm(y0)))
    out = np.empty_like(y0)
    for i in range(y0.size):
        e = np.zeros_like(y0); e[i] = h
        fp = f_value(Representation.unflatten(x.quiver, x.dims, y0 + e), alpha)
        fm = f_value(Representation.unflatten(x.quiver, x.dims, y0 - e), alpha)
        out[i] = (fp - fm) / (2.0 * h)
    return out


def test_moment_vanishes_on_rank_one_loop(rng):
    q, dims = jordan_one_loop(1)
    for _ in range(5):
        x = Representation.random(q, dims, rng)
        assert np.linalg.norm(moment(x).blocks[0]) < 1e-15


def test_moment_hand_value_on_one_edge():
    q, dims = a2()
    c = 1.3 - 0.6j
    h = moment(scalar_rep(q, dims, [c]))
    assert abs(h.blocks[0][0, 0] + 0.5 * abs(c) ** 2) < 1e-14
    assert abs(h.blocks[1][0, 0] - 0.5 * abs(c) ** 2) < 1e-14


def test_moment_equivariance(rng):
    q, dims = jordan_two_loops(2)
    x = Representation.random(q, dims, rng)
    h0 = moment(x)
    for _ in range(5):
        k = GroupElement.random_unitary(q, dims, rng)
        h1 = moment(act(k, x))
        conj = k.blocks[0] @ h0.blocks[0] @ k.blocks[0].conj().T
        assert np.linalg.norm(h1.blocks[0] - conj) < 1e-12 * (1.0 + x.norm() ** 2)


def test_f_values_analytic(a2_model, rng):
    q, dims, alpha = a2_model
    assert f_value(scalar_rep(q, dims, [0.0]), alpha) == pytest.approx(2.0, abs=1e-15)
    assert f_value(scalar_rep(q, dims, [np.sqrt(2.0)]), alpha) == pytest.approx(0.0, abs=1e-14)
    for _ in range(10):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        assert f_value(scalar_rep(q, dims, [c]), alpha) == pytest.approx(
            a2_f(abs(c) ** 2), rel=1e-13)
    # zero shift gives the quartic |x|^4 / 2
    alpha0 = CentralShift((0.0, 0.0))
    for _ in range(5):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        assert f_value(scalar_rep(q, dims, [c]), alpha0) == pytest.approx(
            abs(c) ** 4 / 2.0, rel=1e-13)


def test_f_is_invariant_under_unitary_action(rng):
    q, dims = jordan_two_loops(2)
    alpha = CentralShift((0.5,))
    x = Representation.random(q, dims, rng)
    f0 = f_value(x, alpha)
    for _ in range(5):
        k = GroupElement.random_unitary(q, dims, rng)
        assert abs(f_value(act(k, x), alpha) - f0) < 1e-12 * (1.0 + f0)


def test_flow_velocity_analytic(a2_model):
    q, dims, alpha = a2_model
    # velocity is -(|x|^2 - 2) x; at x = 1 this is +1
    v = flow_velocity(scalar_rep(q, dims, [1.0]), alpha)
    assert abs(v.blocks[0][0, 0] - 1.0) < 1e-14
    for c in (0.5 + 0.2j, 2.0, -1.0 + 1.0j):
        v = flow_velocity(scalar_rep(q, dims, [c]), alpha)
        assert abs(v.blocks[0][0, 0] + (abs(c) ** 2 - 2.0) * c) < 1e-13


def test_velocity_vanishes_at_critical_points(a2_model):
    q, dims, alpha = a2_model
    assert flow_velocity(scalar_rep(q, dims, [0.0]), alpha).norm() == 0.0
    assert flow_velocity(scalar_rep(q, dims, [np.sqrt(2.0)]), alpha).norm() < 1e-14


@pytest.mark.parametrize("maker,alpha", [
    (lambda: jordan_one_loop(1), CentralShift((0.7,))),
    (lambda: a2(), CentralShift((-1.0, 1.0))),
    (lambda: jordan_two_loops(2), CentralShift((0.5,))),
])
def test_gradient_matches_finite_differences(maker, alpha):
    q, dims = maker()
    rng = philox(4242)
    for _ in range(25):
        x = Representation.random(q, dims, rng)
        g = -2.0 * flow_velocity(x, alpha).flatten()
        fd = fd_gradient(x, alpha)
        denom = np.linalg.norm(fd)
        err = np.linalg.norm(g - fd) / denom if denom > 0 else np.linalg.norm(g)
        assert err < 1e-6


def test_velocity_kernel_matches_reference(rng):
    q, dims = jordan_two_loops(2)
    alpha = CentralShift((0.5,))
    kern = VelocityKernel(q, dims, alpha)
    for _ in range(5):
        x = Representation.random(q, dims, rng)
        assert np.allclose(kern.velocity_flat(x.flatten()),
                           flow_velocity(x, alpha).flatten(), atol=1e-13)
        assert kern.f_flat(x.flatten()) == pytest.approx(f_value(x, alpha), rel=1e-13)


def test_moment_map_equation(rng):
    q, dims = a2()
    zero = LieAlgebraElement.zero(q, dims)
    x = Representation.random(q, dims, rng)
    tangent = Representation.random(q, dims, rng)
    assert moment_map_equation_check(x, tangent, zero) < 1e-15
    assert moment_map_equation_check(
        x, Representation.zero(q, dims), LieAlgebraElement.random(q, dims, rng)) < 1e-12
    for _ in range(5):
        u = LieAlgebraElement.random(q, dims, rng)
        t2 = Representation.random(q, dims, rng)
        assert moment_map_equation_check(x, t2, u, step=1e-5) < 1e-6


def test_hessian_fd_analytic_values(a2_model):
    q, dims, alpha = a2_model
    # f = (|x|^2 - 2)^2 / 2 expands to 2 - 2|x|^2 + ..., so the matrix of
    # second derivatives at 0 is -4 times the identity (index 2)
    h = hessian_fd(scalar_rep(q, dims, [0.0]), alpha)
    assert np.allclose(h, -4.0 * np.eye(2), atol=1e-8)
    h0 = hessian_fd(scalar_rep(q, dims, [0.0]), CentralShift((0.0, 0.0)))
    assert np.linalg.norm(h0) < 1e-8


def test_hessian_fd_warns_on_tiny_step(a2_model):
    q, dims, alpha = a2_model
    with pytest.warns(UserWarning):
        hessian_fd(scalar_rep(q, dims, [0.77]), alpha, step=2e-9)


@pytest.mark.parametrize("maker", ORBIT_MODELS)
def test_hessian_matrix_matches_fd(rng, maker):
    q, dims, alpha = maker()
    x = Representation.random(q, dims, rng, scale=0.6)
    exact = hessian_matrix(x, alpha)
    fd = hessian_fd(x, alpha, step=1e-4)
    assert np.linalg.norm(exact - fd) < 1e-6 * (1.0 + np.linalg.norm(exact))
    assert np.allclose(exact, exact.T, atol=1e-12)


@pytest.mark.parametrize("value", [GroupElement, LieAlgebraElement, HermitianCollection],
                         ids=lambda cls: cls.__name__)
def test_hermitian_collection_needs_one_square_block_per_vertex(value):
    # the group element, the algebra element and the moment value alike
    q = Quiver.from_lists(["1", "2"], [("a", "1", "2")])
    with pytest.raises(ShapeError, match="blocks for 2 vertices"):
        value(q, (1, 2), (np.eye(1),))
    with pytest.raises(ShapeError, match="blocks for 2 vertices"):
        value(q, (1, 2), (np.eye(1), np.eye(2), np.eye(1)))
    # the total size agrees, the shapes do not
    with pytest.raises(ShapeError, match="block 0 has shape"):
        value(q, (1, 2), (np.eye(2), np.eye(1)))
    with pytest.raises(ShapeError, match="block 1 has shape"):
        value(q, (1, 2), (np.eye(1), np.ones((2, 1))))
    u = value(q, (1, 2), (np.eye(1), np.eye(2)))
    assert tuple(tuple(np.linalg.eigvalsh(b)) for b in u.blocks) == ((1.0,), (1.0, 1.0))


def test_beta_of_is_shifted_moment(a2_model):
    q, dims, alpha = a2_model
    b = beta_of(scalar_rep(q, dims, [0.0]), alpha)
    assert abs(b.blocks[0][0, 0] - 1.0) < 1e-15
    assert abs(b.blocks[1][0, 0] + 1.0) < 1e-15
