import numpy as np
import pytest

from quiverflow.quiver import GroupElement, Relation, Representation, act
from quiverflow.moment import CentralShift
from quiverflow.flow import IntegratorConfig
from quiverflow.critical import negative_slice, refine_critical, weight_decomposition
from quiverflow.subvariety import (
    SubvarietySpec,
    _relation_jacobian,
    project_to_variety,
    slice_variety_probe,
)
from quiverflow.errors import ProjectionFailedError
from quiverflow.presets import (
    a3_chain,
    commutator_relation,
    jordan_two_loops,
    scalar_rep,
)

from conftest import lone_flow


@pytest.fixture
def commuting():
    q, dims = jordan_two_loops(2)
    return q, dims, SubvarietySpec((commutator_relation(q),))


def test_on_variety_basic(commuting):
    q, dims, spec = commuting
    d1 = np.diag([1.0, 2.0]).astype(complex)
    d2 = np.diag([3.0, -1.0]).astype(complex)
    assert spec.max_residual(Representation(q, dims, (d1, d2))) < spec.residual_tol
    x = np.array([[0, 1], [0, 0]], dtype=complex)
    y = np.array([[0, 0], [1, 0]], dtype=complex)
    assert not spec.max_residual(Representation(q, dims, (x, y))) < spec.residual_tol
    assert spec.max_residual(Representation.zero(q, dims)) < spec.residual_tol


def test_covariance_check(commuting, rng):
    # a path relation from s to t transforms as r(g . x) = g_t r(x) g_s^{-1}
    q, dims, spec = commuting
    worst = 0.0
    for _ in range(3):
        x = Representation.random(q, dims, rng)
        g = GroupElement.random_unitary(q, dims, rng)
        for r in spec.relations:
            path = r.terms[0][1]
            s, t = q.tail[path[0]], q.head[path[-1]]
            rhs = g.blocks[t] @ r.evaluate(x.blocks) @ np.linalg.inv(g.blocks[s])
            worst = max(worst, float(np.linalg.norm(r.evaluate(act(g, x).blocks) - rhs)))
    assert worst < 1e-9


def test_projection_basic(commuting):
    q, dims, spec = commuting
    x = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    rep = Representation(q, dims, (x, x @ x))
    same, moved = project_to_variety(rep, spec)
    assert moved == 0.0

    pert = Representation(q, dims, (x + 1e-3 * np.array([[0, 0], [1, 0]]), x @ x))
    proj, moved = project_to_variety(pert, spec)
    assert spec.max_residual(proj) < 1e-10
    assert 1e-4 < moved < 1e-2
    # idempotent within roundoff
    _, moved2 = project_to_variety(proj, spec)
    assert moved2 < 1e-12


def test_projection_failure_reports_residual(commuting, rng):
    q, dims, spec = commuting
    far = Representation.random(q, dims, rng, scale=2.0)
    with pytest.raises(ProjectionFailedError) as exc:
        project_to_variety(far, spec, max_iter=1)
    assert exc.value.best_residual is not None and exc.value.best_residual > 0


def test_on_variety_action_invariance(commuting, rng):
    q, dims, spec = commuting
    x = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    rep = Representation(q, dims, (x, x @ x))
    for _ in range(3):
        k = GroupElement.random_unitary(q, dims, rng)
        assert ((spec.max_residual(act(k, rep)) < spec.residual_tol)
                == (spec.max_residual(rep) < spec.residual_tol))


def test_flow_preserves_variety(commuting):
    q, dims, spec = commuting
    alpha = CentralShift((0.5,))
    x = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    rep = Representation(q, dims, (x, x @ x))
    assert spec.max_residual(rep) < 1e-12
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=100.0,
                           grad_stop=1e-13)
    tr = lone_flow(rep, alpha, cfg).with_monitors(relations=spec.relations)
    assert np.max(tr.monitors["rel:comm"]) < 1e-8


def test_probe_empty_spec_reduces_to_unstable_sampling(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    spec = SubvarietySpec(())
    saddle = refine_critical(scalar_rep(q, dims, [0.0]), alpha, tol=1e-10)
    fib = negative_slice(saddle, weight_decomposition(saddle))
    rep = slice_variety_probe(saddle, fib, spec, alpha, eps=1.0, cfg=tight_cfg,
                              n_seeds=4)
    assert rep["linear_dim"] == fib.dim == 2
    assert not rep["flagged"]
    assert all(e["residual_ok"] for e in rep["seeds"])


def test_probe_minimum_dims_zero(commuting, tight_cfg):
    q, dims, spec = commuting
    alpha = CentralShift((0.5,))
    d1 = np.diag([1.0, 2.0]).astype(complex)
    d2 = np.diag([3.0, -1.0]).astype(complex)
    rec = refine_critical(Representation(q, dims, (d1, d2)), alpha, tol=1e-9,
                          cfg=tight_cfg)
    fib = negative_slice(rec, weight_decomposition(rec))
    assert fib.dim == 0
    rep = slice_variety_probe(rec, fib, spec, alpha, eps=0.1, cfg=tight_cfg, n_seeds=8)
    assert rep["linear_dim"] == 0 and not rep["flagged"]


def test_probe_composition_relation_at_singular_point(tight_cfg):
    # the chain quiver with the composed-path relation: the origin is a
    # non-minimal critical point sitting at the singular point of the
    # two-branch variety
    q, dims, rel = a3_chain()
    spec = SubvarietySpec((rel,))
    alpha = CentralShift((-1.0, 0.0, 1.0))
    rec = refine_critical(Representation.zero(q, dims), alpha, tol=1e-10)
    assert rec.f_crit == pytest.approx(2.0, abs=1e-14)
    wd = weight_decomposition(rec)
    fib = negative_slice(rec, wd)
    assert fib.dim == 4                      # ambient unstable directions
    rep = slice_variety_probe(rec, fib, spec, alpha, eps=0.4, cfg=tight_cfg,
                              n_seeds=6)
    # the relation is quadratic, so its linearization at 0 kills nothing
    assert rep["linear_dim"] == 4
    snapped = [e for e in rep["seeds"] if e.get("snapped_blocks")]
    assert snapped, "branch snapping should engage at the singular point"
    for e in snapped:
        assert e["residual_ok"]
        assert e["max_residual"] < 1e-9
    # balanced directions cannot be realized on the variety: flagged, not hidden
    assert rep["flagged"] == any(not e.get("residual_ok") for e in rep["seeds"])


def test_a3_non_minimal_is_above_on_variety_minima(tight_cfg):
    # flowing an on-variety seed below the origin value shows the origin is
    # non-minimal within the variety (minima sit at f = 1.5 on each branch)
    q, dims, rel = a3_chain()
    spec = SubvarietySpec((rel,))
    alpha = CentralShift((-1.0, 0.0, 1.0))
    seed = scalar_rep(q, dims, [0.3, 0.0])
    assert spec.max_residual(seed) < spec.residual_tol
    tr = lone_flow(seed, alpha, tight_cfg)
    assert tr.status == "converged"
    assert tr.fs[-1] == pytest.approx(1.5, abs=1e-8)
    assert spec.max_residual(tr.final) < 1e-10


def test_a3_origin_index_matches_slice(tight_cfg):
    q, dims, rel = a3_chain()
    alpha = CentralShift((-1.0, 0.0, 1.0))
    rec = refine_critical(Representation.zero(q, dims), alpha, tol=1e-10)
    fib = negative_slice(rec, weight_decomposition(rec))
    from quiverflow.critical import morse_index_check

    rep = morse_index_check(rec, fib, alpha)
    assert (rep.slice_dim, rep.hessian_index, rep.agree) == (4, 4, True)


def _relation_cases():
    q3, d3, ba = a3_chain()
    cases = {"a3_ba": (q3, d3, (ba,))}
    for dim in (2, 3):
        qj, dj = jordan_two_loops(dim)
        cases[f"comm{dim}"] = (qj, dj, (commutator_relation(qj),))
    # x x + 0.5i y x y repeats edges within one path and across terms
    qj, dj = jordan_two_loops(2)
    ix, iy = qj.edge_index("x"), qj.edge_index("y")
    rep = Relation(qj, ((1.0, (ix, ix)), (0.5j, (iy, ix, iy))), name="rep")
    cases["repeat"] = (qj, dj, (rep, commutator_relation(qj)))
    return cases


@pytest.mark.parametrize("case", sorted(_relation_cases()))
def test_relation_jacobian_matches_fd(case, rng):
    q, dims, rels = _relation_cases()[case]
    spec = SubvarietySpec(rels)
    x = Representation.random(q, dims, rng)
    y0, h = x.flatten(), 1e-5
    fd = np.empty((spec.residuals(x).size, y0.size))
    for i in range(y0.size):
        e = np.zeros_like(y0)
        e[i] = h
        fd[:, i] = (spec.residuals(Representation.unflatten(q, dims, y0 + e))
                    - spec.residuals(Representation.unflatten(q, dims, y0 - e))) / (2 * h)
    jac = _relation_jacobian(x, spec)
    assert jac.shape == fd.shape
    assert np.linalg.norm(jac - fd) < 1e-7 * (1.0 + np.linalg.norm(fd))


def test_probe_propagates_programming_errors(a2_model, tight_cfg, monkeypatch):
    q, dims, alpha = a2_model
    saddle = refine_critical(scalar_rep(q, dims, [0.0]), alpha, tol=1e-10)
    fib = negative_slice(saddle, weight_decomposition(saddle))

    def broken(*args, **kwargs):
        raise TypeError("bug in the integrator")

    monkeypatch.setattr("quiverflow.critical.integrate_many", broken)
    with pytest.raises(TypeError, match="bug in the integrator"):
        slice_variety_probe(saddle, fib, SubvarietySpec(()), alpha, eps=1.0,
                            cfg=tight_cfg, n_seeds=2)
