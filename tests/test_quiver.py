import numpy as np
import pytest

from quiverflow.quiver import (
    CycleWord,
    GroupElement,
    LieAlgebraElement,
    Quiver,
    Relation,
    Representation,
    act,
    cycle_trace,
    group_exp,
    infinitesimal_action,
    relation_residual,
)
from quiverflow.errors import (
    NonComposablePathError,
    NonInvertibleGroupElementError,
    ShapeError,
)
from quiverflow.moment import ORBIT_RANK_TOL, HermitianCollection, orbit_basis
from quiverflow.presets import a2, commutator_relation, jordan_two_loops, scalar_rep

from conftest import ORBIT_MODELS, orbit_states, philox, rho_matrix, zero_algebra


def test_quiver_construction_and_indexing():
    q = Quiver.from_lists(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    assert q.n_vertices == 2 and q.n_edges == 2
    assert q.tail[q.edge_index("a")] == 0 and q.head[q.edge_index("a")] == 1
    assert q.rep_real_dim((1, 1)) == 4
    assert q.group_real_dim((2, 3)) == 2 * (4 + 9)
    with pytest.raises(ShapeError):
        Quiver.from_lists(["1"], [("a", "1", "zz")])


def test_representation_shape_checks():
    q, dims = a2()
    with pytest.raises(ShapeError):
        Representation(q, dims, (np.zeros((2, 2)),))
    with pytest.raises(ShapeError):
        Representation(q, dims, (np.array([[np.inf]]),))
    x = scalar_rep(q, dims, [1.5])
    assert not x.blocks[0].flags.writeable


def test_flatten_roundtrip(rng):
    q, dims = jordan_two_loops(2)
    x = Representation.random(q, dims, rng)
    y = Representation.unflatten(q, dims, x.flatten())
    assert x.distance(y) == 0.0


def test_act_identity_and_hand_value():
    q, dims = jordan_two_loops(2)
    x = Representation(q, dims, (np.array([[0, 1], [0, 0]], dtype=complex),
                                 np.zeros((2, 2), dtype=complex)))
    e = GroupElement.identity(q, dims)
    assert act(e, x).distance(x) == 0.0
    # diag(2,1) . [[0,1],[0,0]] . diag(1/2,1) = [[0,2],[0,0]]
    g = GroupElement(q, dims, (np.diag([2.0, 1.0]).astype(complex),))
    gx = act(g, x)
    assert np.allclose(gx.blocks[0], [[0, 2], [0, 0]], atol=1e-15)


def test_act_is_group_action(rng):
    q, dims = jordan_two_loops(2)
    x = Representation.random(q, dims, rng)
    for _ in range(5):
        g = GroupElement.random_unitary(q, dims, rng)
        h = GroupElement.random_unitary(q, dims, rng)
        assert act(g, act(h, x)).distance(act(g.compose(h), x)) < 1e-12


def test_singular_group_element_rejected():
    q, dims = a2()
    with pytest.raises(NonInvertibleGroupElementError):
        GroupElement(q, dims, (np.array([[0.0]]), np.array([[1.0]])))


def test_infinitesimal_action_zero_and_scalar(rng):
    q, dims = jordan_two_loops(2)
    x = Representation.random(q, dims, rng)
    zero = zero_algebra(q, dims)
    assert infinitesimal_action(zero, x).norm() == 0.0
    # scalars commute on the rank-one loop
    q1 = Quiver.from_lists(["v"], [("x", "v", "v")])
    x1 = scalar_rep(q1, (1,), [2.3 + 0.4j])
    u1 = LieAlgebraElement(q1, (1,), (np.array([[0.1 + 0.9j]]),))
    assert infinitesimal_action(u1, x1).norm() == 0.0


@pytest.mark.parametrize("apply,make", [(act, GroupElement.identity),
                                        (infinitesimal_action, zero_algebra)],
                         ids=["act", "infinitesimal_action"])
@pytest.mark.parametrize("mismatch", ["dims", "quiver"])
def test_action_rejects_a_value_on_other_dims_or_quiver(apply, make, mismatch):
    q, _ = a2()
    x = Representation.random(q, (2, 1), philox(5))
    if mismatch == "dims":
        value = make(q, (1, 2))
    else:       # the reversed edge: every per-vertex block shape still matches
        value = make(Quiver.from_lists(["1", "2"], [("a", "2", "1")]), (2, 1))
    with pytest.raises(ShapeError):
        apply(value, x)


def test_infinitesimal_action_is_derivative_of_action(rng):
    q, dims = jordan_two_loops(2)
    x = Representation.random(q, dims, rng)
    u = LieAlgebraElement.random(q, dims, rng)
    rho_u = infinitesimal_action(u, x)
    errs = []
    for t in (1e-3, 1e-4, 1e-5):
        fd = act(group_exp(u, t), x).add_scaled(x, -1.0)
        fd = fd.replace_blocks(b / t for b in fd.blocks)
        errs.append(fd.distance(rho_u))
    # one-sided difference: first-order decay in t
    assert errs[1] < 0.2 * errs[0]
    assert errs[2] < 0.2 * errs[1]
    assert errs[0] < 1e-1


def test_rho_rank_cases(rng):
    q, dims = a2()
    assert orbit_basis(Representation.zero(q, dims)).shape[1] == 0
    # one-dimensional hom: image is u2 - u1, complex rank 1 = real rank 2
    assert orbit_basis(scalar_rep(q, dims, [1.0])).shape[1] == 2

    qj, dj = jordan_two_loops(2)
    x = Representation(qj, dj, (np.array([[0.3, 1.1], [0.2, -0.7]], dtype=complex),
                               np.zeros((2, 2), dtype=complex)))
    # oracle: span of sampled orbit displacements; eps small enough that the
    # quadratic terms sit far below the rank cutoff
    rng2 = philox(99)
    eps = 1e-7
    disp = []
    for _ in range(40):
        u = LieAlgebraElement.random(qj, dj, rng2)
        moved = act(group_exp(u, eps), x).add_scaled(x, -1.0)
        disp.append(moved.flatten() / eps)
    s = np.linalg.svd(np.stack(disp, axis=1), compute_uv=False)
    orbit_dim = int(np.sum(s > 1e-4 * s[0]))
    assert orbit_basis(x).shape[1] == orbit_dim == 4

    # against the rho_matrix oracle: the same rank and the same projector,
    # on random, zero and one-edge-zeroed states of every orbit model
    for maker in ORBIT_MODELS:
        q, dims, _ = maker()
        for x in orbit_states(q, dims, philox(7)):
            u, s, _ = np.linalg.svd(rho_matrix(x), full_matrices=False)
            rank = int(np.sum(s > ORBIT_RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
            basis = orbit_basis(x)
            assert basis.shape == (q.rep_real_dim(dims), rank), maker.__name__
            assert np.linalg.norm(basis @ basis.T - u[:, :rank] @ u[:, :rank].T) <= 1e-12


def test_rho_matrix_matches_action(rng):
    q, dims = jordan_two_loops(2)
    x = Representation.random(q, dims, rng)
    mat = rho_matrix(x)
    u = LieAlgebraElement.random(q, dims, rng)
    assert np.allclose(mat @ u.flatten(), infinitesimal_action(u, x).flatten(), atol=1e-12)
    # the orbit basis spans the columns of the oracle matrix
    basis = orbit_basis(x)
    assert np.linalg.norm(mat - basis @ (basis.T @ mat)) <= 1e-12 * np.linalg.norm(mat)


def test_relation_residual_hand_values():
    q, dims = jordan_two_loops(2)
    comm = commutator_relation(q)
    d1 = np.diag([1.0, 2.0]).astype(complex)
    d2 = np.diag([-0.5, 3.0]).astype(complex)
    assert relation_residual(Representation(q, dims, (d1, d2)), comm) < 1e-15
    x = np.array([[0, 1], [0, 0]], dtype=complex)
    y = np.array([[0, 0], [1, 0]], dtype=complex)
    # [x, y] = diag(1, -1), Frobenius norm sqrt(2)
    assert abs(relation_residual(Representation(q, dims, (x, y)), comm) - np.sqrt(2)) < 1e-14
    assert relation_residual(Representation.zero(q, dims), comm) == 0.0


def test_relation_unitary_invariance(rng):
    q, dims = jordan_two_loops(2)
    comm = commutator_relation(q)
    x = Representation.random(q, dims, rng)
    r0 = relation_residual(x, comm)
    for _ in range(5):
        k = GroupElement.random_unitary(q, dims, rng)
        assert abs(relation_residual(act(k, x), comm) - r0) < 1e-12 * (1.0 + r0)


def test_relation_validation():
    q, _ = a2()
    with pytest.raises(NonComposablePathError):
        Relation(q, ((1.0, (0, 0)),))      # a . a does not compose on 1 -> 2


def test_cycle_trace_values_and_invariance(rng):
    q1 = Quiver.from_lists(["v"], [("x", "v", "v")])
    x1 = Representation(q1, (2,), (np.diag([1.0, 3.0]).astype(complex),))
    w1 = CycleWord(q1, (0,))
    assert abs(cycle_trace(x1, w1) - 4.0) < 1e-15

    q2 = Quiver.from_lists(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    x2 = scalar_rep(q2, (1, 1), [2.0, 5.0])
    w2 = CycleWord(q2, (0, 1))
    assert abs(cycle_trace(x2, w2) - 10.0) < 1e-15

    qj, dj = jordan_two_loops(2)
    xj = Representation.random(qj, dj, rng)
    wj = CycleWord(qj, (0, 1))
    t0 = cycle_trace(xj, wj)
    for _ in range(5):
        g_blocks = tuple(b + 0.3 * rng.standard_normal(b.shape) for b in
                         GroupElement.random_unitary(qj, dj, rng).blocks)
        g = GroupElement(qj, dj, g_blocks)       # general invertible
        assert abs(cycle_trace(act(g, xj), wj) - t0) < 1e-10 * (1.0 + abs(t0))

    with pytest.raises(NonComposablePathError):
        CycleWord(q2, (0,))                      # open path is not a cycle


def exp_quiver():
    # vertex dims 3, 2, 1 and 0: every block size, the empty one included
    q = Quiver.from_lists(["a", "b", "c", "z"],
                          [("x", "a", "b"), ("y", "b", "c"), ("w", "c", "z")])
    return q, (3, 2, 1, 0)


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def algebra(q, dims, blocks):
    return LieAlgebraElement(q, dims, tuple(blocks))


def test_group_exp_matches_expm_and_closed_forms():
    from scipy.linalg import eigh, expm          # reference only; the package never imports scipy

    q, dims = exp_quiver()
    rng = philox(21)
    for _ in range(4):
        gen = LieAlgebraElement.random(q, dims, rng)
        herm = HermitianCollection(q, dims, [0.5 * (b + b.conj().T)
                                             for b in LieAlgebraElement.random(q, dims, rng).blocks])
        skew = algebra(q, dims, [0.5 * (b - b.conj().T) for b in gen.blocks])
        for u, t in ((gen, 1.0), (gen, -0.3), (herm, 1.7), (skew, 2.5)):
            g = group_exp(u, t)
            assert g.blocks[3].shape == (0, 0)
            for a, b in zip(u.blocks[:3], g.blocks):
                assert rel(b, expm(t * a)) < 1e-13
        for a, b in zip(herm.blocks[:3], group_exp(herm, 1.7).blocks):
            lam, v = eigh(a)
            assert rel(b, (v * np.exp(1.7 * lam)) @ v.conj().T) < 1e-13
        for b in group_exp(skew, 2.5).blocks[:3]:
            assert np.linalg.norm(b @ b.conj().T - np.eye(len(b))) < 1e-13


def test_group_exp_at_large_norm():
    from scipy.linalg import eigh, expm

    q, dims = exp_quiver()
    rng = philox(22)
    for _ in range(4):
        zs = LieAlgebraElement.random(q, dims, rng).blocks
        unit = [z / np.linalg.norm(z, 2) if z.size else z for z in zs]
        # spectra in a window of width 10 keep the group blocks well conditioned
        gen = algebra(q, dims, [45.0 * np.eye(len(z)) + 5.0 * z for z in unit])
        herm = algebra(q, dims, [45.0 * np.eye(len(z)) + 2.5 * (z + z.conj().T) for z in unit])
        skew = algebra(q, dims, [50.0 * s / np.linalg.norm(s, 2) if s.size else s
                                 for s in (z - z.conj().T for z in zs)])
        for u in (gen, herm, skew):
            assert max(np.linalg.norm(b, 2) for b in u.blocks[:3]) > 40.0
            for a, b in zip(u.blocks[:3], group_exp(u).blocks):
                assert rel(b, expm(a)) < 1e-13
        for a, b in zip(herm.blocks[:3], group_exp(herm).blocks):
            lam, v = eigh(a)
            assert rel(b, (v * np.exp(lam)) @ v.conj().T) < 1e-13


def test_group_exp_of_a_square_zero_block_is_exactly_one_plus_it():
    q, dims = exp_quiver()
    rng = philox(23)
    blocks = [np.zeros((d, d), dtype=complex) for d in dims]
    blocks[0][0, 2] = 30.0 * complex(*rng.standard_normal(2))
    blocks[1][0, 1] = -17.0 * complex(*rng.standard_normal(2))
    g = group_exp(algebra(q, dims, blocks))
    for n, b in zip(blocks, g.blocks):
        assert np.array_equal(b, np.eye(len(n)) + n)


def test_group_exp_is_a_one_parameter_group():
    q, dims = exp_quiver()
    rng = philox(24)
    u = LieAlgebraElement.random(q, dims, rng)
    for s, t in ((0.4, 1.1), (-0.7, 0.25), (2.0, 3.0)):
        lhs = group_exp(u, s).compose(group_exp(u, t))
        for a, b in zip(lhs.blocks[:3], group_exp(u, s + t).blocks):
            assert rel(a, b) < 1e-13
