import numpy as np
import pytest

from quiverflow.quiver import LieAlgebraElement, Quiver, Representation, infinitesimal_action
from quiverflow.moment import CentralShift, HermitianCollection, VelocityKernel, beta_of, f_value
from quiverflow.flow import FlowTrace, IntegratorConfig
from quiverflow.critical import (
    CriticalRecord,
    criticality_residual,
    fiber_directions,
    lojasiewicz_fit,
    morse_index_check,
    negative_slice,
    refine_critical,
    unstable_boundedness_check,
    weight_decomposition,
)
from quiverflow.errors import InsufficientDataError, RefinementFailedError
from quiverflow.presets import jordan_two_loops, scalar_rep

from conftest import ORBIT_MODELS, hessian_fd, lone_flow, orbit_states, philox, rho_matrix


def test_refine_exact_critical_point(a2_model):
    q, dims, alpha = a2_model
    rec = refine_critical(scalar_rep(q, dims, [0.0]), alpha, tol=1e-10)
    assert rec.grad_residual == 0.0
    assert rec.f_crit == pytest.approx(2.0, abs=1e-14)
    assert rec.beta_spectra == ((1.0,), (-1.0,))


def test_refine_near_minimum(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    x0 = scalar_rep(q, dims, [np.sqrt(2.0 + 1e-4)])
    rec = refine_critical(x0, alpha, tol=1e-10, cfg=tight_cfg)
    assert abs(abs(rec.x.blocks[0][0, 0]) ** 2 - 2.0) < 1e-10
    # at a zero of f the shifted moment vanishes
    assert np.sqrt(rec.beta.norm_sq()) < 1e-9


def test_refine_failure_reports_best_residual(a2_model):
    q, dims, alpha = a2_model
    with pytest.raises(RefinementFailedError) as exc:
        refine_critical(scalar_rep(q, dims, [0.9]), alpha, tol=1e-30, max_newton=1)
    assert exc.value.best_residual is not None


def sign_partition(rec, wd, a=0):
    """Counts of edge a's weights below, within and above the zero band
    1e-7 * (1 + max |eigenvalue of beta|) that weight_decomposition documents."""
    lam_max = max((abs(lam) for spec in rec.beta_spectra for lam in spec), default=0.0)
    tol = 1e-7 * (1.0 + lam_max)
    w = wd.edge_weights[a]
    return int(np.sum(w < -tol)), int(np.sum(np.abs(w) <= tol)), int(np.sum(w > tol))


def test_weight_decomposition_zero_beta(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    rec = refine_critical(scalar_rep(q, dims, [np.sqrt(2.0)]), alpha, tol=1e-10,
                          cfg=tight_cfg)
    wd = weight_decomposition(rec)
    assert wd.negative[0] == ()
    assert sign_partition(rec, wd) == (0, 1, 0)


def test_weight_decomposition_with_an_empty_vertex(a2_model):
    # numpy's eigh of a 0x0 block gives the empty spectrum and frame
    q, _, alpha = a2_model
    rec = refine_critical(Representation.zero(q, (0, 1)), alpha, tol=1e-10)
    wd = weight_decomposition(rec)
    assert [u.shape for u in wd.vertex_frames] == [(0, 0), (1, 1)]
    assert wd.edge_weights[0].shape == (1, 0) and wd.negative == ((),)
    assert wd.offband_mass == 0.0 and negative_slice(rec, wd).dim == 0


def test_weight_decomposition_saddle(a2_model):
    q, dims, alpha = a2_model
    rec = refine_critical(scalar_rep(q, dims, [0.0]), alpha, tol=1e-10)
    wd = weight_decomposition(rec)
    # beta = (1 | -1): the whole hom block has weight -1 - 1 = -2
    assert np.allclose(wd.edge_weights[0], [[-2.0]])
    assert wd.negative[0] == ((0, 0),)
    assert wd.offband_mass < 1e-12


def test_weight_pattern_synthetic_two_loop():
    # spectra (0, 1) on the loop quiver give weight pattern {0, +-1}
    q, dims = jordan_two_loops(2)
    x = Representation(q, dims, (np.diag([0.3, -0.2]).astype(complex),
                                 np.zeros((2, 2), dtype=complex)))
    alpha = CentralShift((0.0,))
    rec = CriticalRecord(
        x=x, f_crit=f_value(x, alpha), beta=beta_of(x, alpha),
        beta_spectra=beta_of(x, alpha).spectra(), grad_residual=0.0)
    # beta of a diagonal pair is zero; build the synthetic spectra case by
    # shifting the record's beta through alpha = -lambda
    alpha2 = CentralShift((-0.5,))
    x2 = Representation(q, dims, (np.diag([0.3, -0.2]).astype(complex),
                                  np.zeros((2, 2), dtype=complex)))
    rec2 = CriticalRecord(
        x=x2, f_crit=f_value(x2, alpha2), beta=beta_of(x2, alpha2),
        beta_spectra=beta_of(x2, alpha2).spectra(), grad_residual=0.0)
    wd = weight_decomposition(rec2)
    for w in wd.edge_weights:
        assert np.allclose(np.sort(w.ravel()), [0.0, 0.0, 0.0, 0.0])
    # genuinely distinct eigenvalues: hand-built Hermitian beta commuting
    # with a diagonal x (so the record's criticality equation holds)
    lam = np.diag([1.0, 0.0]).astype(complex)
    x3 = Representation(q, dims, (np.diag([0.4, 0.7]).astype(complex),
                                  np.zeros((2, 2), dtype=complex)))
    rec3 = CriticalRecord(x=x3, f_crit=0.0,
                          beta=HermitianCollection(q, dims, (lam,)),
                          beta_spectra=((0.0, 1.0),), grad_residual=0.0)
    wd3 = weight_decomposition(rec3)
    for w in wd3.edge_weights:
        assert sorted(np.round(w.ravel(), 12)) == [-1.0, 0.0, 0.0, 1.0]
        assert len(wd3.negative[0]) == 1 and sign_partition(rec3, wd3) == (1, 2, 1)


def action_norm(beta, x):
    """||rho_x(beta)|| from the block formula, the oracle of the residual."""
    u = LieAlgebraElement(x.quiver, x.dims, beta.blocks)
    return infinitesimal_action(u, x).norm()


def test_criticality_residual_matches_action():
    # the record's own beta, H - alpha or any Hermitian collection
    rng = philox(31)
    for maker in ORBIT_MODELS:
        q, dims, alpha = maker()
        for x in orbit_states(q, dims, rng):
            for beta in (beta_of(x, alpha), HermitianCollection(q, dims, [
                    b + b.conj().T for b in LieAlgebraElement.random(q, dims, rng).blocks])):
                ref = action_norm(beta, x)
                assert abs(criticality_residual(x, beta) - ref) <= 1e-13 * ref, maker.__name__
    # a record whose beta is not H - alpha: diag(1, 0) against a diagonal x,
    # moved off commuting by 1e-12 so the residual is small but not zero
    q, dims = jordan_two_loops(2)
    x = Representation(q, dims, (np.diag([0.4, 0.7]).astype(complex),
                                 np.zeros((2, 2), dtype=complex)))
    beta = HermitianCollection(q, dims, (np.array([[1.0, 1e-12], [1e-12, 0.0]], dtype=complex),))
    rec = CriticalRecord(x=x, f_crit=0.0, beta=beta, beta_spectra=beta.spectra(),
                         grad_residual=0.0)
    ref = action_norm(rec.beta, x)
    assert ref > 0.0
    assert abs(criticality_residual(rec.x, rec.beta) - ref) <= 1e-13 * ref


def test_negative_slice_dims(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    saddle = refine_critical(scalar_rep(q, dims, [0.0]), alpha, tol=1e-10)
    wd = weight_decomposition(saddle)
    fib = negative_slice(saddle, wd)
    assert fib.dim == 2
    # orthonormal basis, orthogonal to the orbit image
    gram = fib.basis.T @ fib.basis
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    rho = rho_matrix(saddle.x)
    assert np.linalg.norm(rho.T @ fib.basis) < 1e-10

    minimum = refine_critical(scalar_rep(q, dims, [np.sqrt(2.0)]), alpha,
                              tol=1e-10, cfg=tight_cfg)
    fib_min = negative_slice(minimum, weight_decomposition(minimum))
    assert fib_min.dim == 0


def test_morse_index_agreement(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    saddle = refine_critical(scalar_rep(q, dims, [0.0]), alpha, tol=1e-10)
    fib = negative_slice(saddle, weight_decomposition(saddle))
    rep = morse_index_check(saddle, fib, alpha)
    assert (rep.slice_dim, rep.hessian_index, rep.agree) == (2, 2, True)
    assert rep.status == "ok"

    minimum = refine_critical(scalar_rep(q, dims, [np.sqrt(2.0)]), alpha,
                              tol=1e-10, cfg=tight_cfg)
    fib_min = negative_slice(minimum, weight_decomposition(minimum))
    rep_min = morse_index_check(minimum, fib_min, alpha)
    assert (rep_min.slice_dim, rep_min.hessian_index, rep_min.agree) == (0, 0, True)


def test_morse_index_on_flat_quiver(jordan1_model):
    # one loop at rank one: the moment map vanishes and f is constant, so
    # every point is critical with trivial slice and index
    q, dims, alpha = jordan1_model
    rec = refine_critical(scalar_rep(q, dims, [0.83 - 0.2j]), alpha, tol=1e-10)
    fib = negative_slice(rec, weight_decomposition(rec))
    rep = morse_index_check(rec, fib, alpha)
    assert (rep.slice_dim, rep.hessian_index, rep.agree) == (0, 0, True)


def no_arrows():
    # n = 0: the representation space is a point and the Hessian is 0 x 0
    q = Quiver.from_lists(["1", "2"], [])
    return q, (2, 1), CentralShift((0.3, -0.6))


def band_counts(lam):
    """Eigenvalues below and inside morse_index_check's zero band."""
    band = 1e-6 * (1.0 + np.max(np.abs(lam), initial=0.0))
    return int(np.sum(lam < -band)), int(np.sum(np.abs(lam) < band))


@pytest.mark.parametrize("maker", ORBIT_MODELS + [no_arrows])
def test_morse_index_check_reads_the_exact_hessian(maker, monkeypatch):
    # the index, the zero band and the spectrum match the finite-difference
    # oracle, and the check evaluates f nowhere
    q, dims, alpha = maker()
    calls = []
    f_flat = VelocityKernel.f_flat

    def counting(self, y):
        calls.append(1)
        return f_flat(self, y)

    monkeypatch.setattr(VelocityKernel, "f_flat", counting)
    checked = 0
    for x in orbit_states(q, dims, philox(5)):
        try:
            rec = refine_critical(x, alpha)
        except RefinementFailedError:
            continue                  # a flow that stops short of the critical set
        fiber = negative_slice(rec, weight_decomposition(rec))
        before = len(calls)
        rep = morse_index_check(rec, fiber, alpha)
        assert len(calls) == before
        lam = np.linalg.eigvalsh(hessian_fd(rec.x, alpha))
        assert (rep.hessian_index, band_counts(rep.eigenvalues)[1]) == band_counts(lam)
        tol = 1e-6 * (1.0 + np.max(np.abs(lam), initial=0.0))
        assert np.all(np.abs(rep.eigenvalues - lam) <= tol)
        checked += 1
    assert checked >= 1


def test_criticality_residual_invariant(a2_model, tight_cfg, rng):
    from quiverflow.critical import criticality_residual

    q, dims, alpha = a2_model
    for _ in range(4):
        x0 = Representation.random(q, dims, rng)
        tr = lone_flow(x0, alpha, tight_cfg)
        rec = refine_critical(tr.final, alpha, tol=1e-10, cfg=tight_cfg)
        bound = 1e-9 * (1.0 + rec.x.norm()) * (1.0 + np.sqrt(rec.beta.norm_sq()))
        assert criticality_residual(rec.x, rec.beta) < bound


def test_lojasiewicz_synthetic_exact():
    # manufactured trace with gradnorm = C * gap^(1-theta) exactly
    theta, c = 0.5, 3.7
    gaps = 10.0 ** (-np.linspace(1.5, 9.0, 40))
    f_crit = 0.25
    tr = FlowTrace(
        ts=np.linspace(0.0, 39.0, 40),
        states=(None,) * 40,
        fs=f_crit + gaps,
        gradnorms=c * gaps ** (1.0 - theta),
        monitors={"energy": np.zeros(40)},
        status="converged",
    )
    th, cc, r2 = lojasiewicz_fit(tr, f_crit, tail_fraction=1.1)
    assert abs(th - theta) < 1e-3
    assert abs(cc - c) / c < 1e-3
    assert r2 > 0.999999


def test_lojasiewicz_insufficient_data():
    tr = FlowTrace(ts=np.array([0.0, 1.0]), states=(None, None),
                   fs=np.array([1.0, 0.5]), gradnorms=np.array([1.0, 0.5]),
                   monitors={"energy": np.zeros(2)}, status="converged")
    with pytest.raises(InsufficientDataError):
        lojasiewicz_fit(tr, 0.0)


def test_lojasiewicz_quadratic_minimum(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    tr = lone_flow(scalar_rep(q, dims, [1.0]), alpha, tight_cfg)
    theta, _, r2 = lojasiewicz_fit(tr, 0.0)
    assert abs(theta - 0.5) < 0.05
    assert r2 > 0.999


def test_lojasiewicz_quartic_minimum(a2_model):
    q, dims, _ = a2_model
    alpha0 = CentralShift((0.0, 0.0))
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14, max_time=1e6)
    tr = lone_flow(scalar_rep(q, dims, [1.0]), alpha0, cfg)
    assert tr.status == "converged"
    theta, _, r2 = lojasiewicz_fit(tr, 0.0)
    assert abs(theta - 0.25) < 0.05
    assert r2 > 0.999


def test_fiber_directions_shapes():
    assert fiber_directions(1, 4).tolist() == [[1.0], [-1.0], [1.0], [-1.0]]
    d2 = fiber_directions(2, 8)
    assert np.allclose(np.linalg.norm(d2, axis=1), 1.0)
    d5 = fiber_directions(5, 7)
    assert d5.shape == (7, 5)
    assert np.allclose(np.linalg.norm(d5, axis=1), 1.0)
    assert fiber_directions(3, 0).shape[0] == 0


def test_unstable_boundedness_vacuous(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    minimum = refine_critical(scalar_rep(q, dims, [np.sqrt(2.0)]), alpha,
                              tol=1e-10, cfg=tight_cfg)
    fib = negative_slice(minimum, weight_decomposition(minimum))
    rep = unstable_boundedness_check(minimum, fib, alpha, eps=0.5, seeds=4,
                                     cfg=tight_cfg)
    assert rep["vacuous"] and rep["bounded"]


def test_unstable_boundedness_saddle(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    saddle = refine_critical(scalar_rep(q, dims, [0.0]), alpha, tol=1e-10)
    fib = negative_slice(saddle, weight_decomposition(saddle))
    rep = unstable_boundedness_check(saddle, fib, alpha, eps=1.0, seeds=8,
                                     cfg=tight_cfg)
    assert all(rep["reached"])
    # scalar flow oracle: level f = 1 is the circle |x|^2 = 2 - sqrt(2)
    expect = np.sqrt(2.0 - np.sqrt(2.0))
    assert rep["max_distance"] == pytest.approx(expect, abs=1e-6)
    assert abs(rep["theta"] - 0.5) < 0.05
    # the along-segment constant makes the length bound valid at this eps
    assert rep["bound_segment"] > rep["max_distance"]
    assert rep["bounded"]

    rep16 = unstable_boundedness_check(saddle, fib, alpha, eps=1.0, seeds=16,
                                       cfg=tight_cfg)
    # rotational symmetry: doubling the seeds cannot move the maximum
    assert abs(rep16["max_distance"] - rep["max_distance"]) < 1e-6


def test_velocity_lies_in_orbit_tangent(a2_model, rng):
    # the integrated field is by construction the infinitesimal action of
    # minus the shifted moment value, hence tangent to the complex orbit
    from conftest import flow_velocity
    from quiverflow.quiver import Representation as Rep

    q, dims, alpha = a2_model
    for _ in range(5):
        x = Rep.random(q, dims, rng)
        b = beta_of(x, alpha)
        u = LieAlgebraElement(q, dims, tuple(-c for c in b.blocks))
        assert flow_velocity(x, alpha).distance(infinitesimal_action(u, x)) == 0.0


def test_slice_rank_constant_along_critical_circle(tight_cfg):
    # one connected non-minimal critical set of the decoupled pair is a
    # circle at mid level; the fiber dimension must not jump along it
    from quiverflow.presets import A2_PAIR_ALPHA, a2_pair, scalar_rep

    q, dims = a2_pair()
    r = 2.0 ** 0.25                    # factor minimum has |x|^2 = sqrt(2)
    dims_seen = set()
    for phase in (0.0, 0.7, 2.1, -2.5):
        x = scalar_rep(q, dims, [0.0, r * np.exp(1j * phase)])
        rec = refine_critical(x, A2_PAIR_ALPHA, tol=1e-10, cfg=tight_cfg)
        assert rec.f_crit == pytest.approx(1.0, abs=1e-10)
        fib = negative_slice(rec, weight_decomposition(rec))
        dims_seen.add(fib.dim)
    assert dims_seen == {2}


def test_index_agreement_on_star_quiver_matrix_blocks():
    # rank-two center with three rank-one legs: the shifted-moment spectra
    # at reachable critical points have distinct center eigenvalues, so the
    # eigenframe, weight partition, and orbit projection all do real work
    from quiverflow.quiver import Quiver
    from quiverflow.strata import search_critical_levels

    q = Quiver.from_lists(["c", "1", "2", "3"],
                          [("a", "1", "c"), ("b", "2", "c"), ("d", "3", "c")])
    dims = (2, 1, 1, 1)
    alpha = CentralShift((0.9, -0.7, -0.5, -0.3))
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=300.0)
    rng = philox(3)
    found = search_critical_levels(q, dims, alpha, cfg, rng, n_seeds=4)
    assert len(found["values"]) >= 3
    indices = []
    for rec in found["records"]:
        wd = weight_decomposition(rec)
        fib = negative_slice(rec, wd)
        rep = morse_index_check(rec, fib, alpha)
        assert wd.offband_mass < 1e-9 * (1.0 + rec.x.norm())
        assert rep.agree and rep.status == "ok", (rec.f_crit, rep)
        indices.append(rep.slice_dim)
    assert max(indices) >= 8          # genuinely non-minimal strata reached


def test_positive_weights_are_excluded(a2_model):
    # flipping the shift makes the origin a local minimum: the edge weight
    # turns positive and the slice must come out empty
    q, dims, _ = a2_model
    alpha_flip = CentralShift((1.0, -1.0))
    rec = refine_critical(scalar_rep(q, dims, [0.0]), alpha_flip, tol=1e-10)
    wd = weight_decomposition(rec)
    assert wd.negative[0] == () and sign_partition(rec, wd) == (0, 0, 1)
    fib = negative_slice(rec, wd)
    rep = morse_index_check(rec, fib, alpha_flip)
    assert (rep.slice_dim, rep.hessian_index, rep.agree) == (0, 0, True)


def test_unstable_boundedness_propagates_programming_errors(a2_model, tight_cfg, monkeypatch):
    q, dims, alpha = a2_model
    saddle = refine_critical(scalar_rep(q, dims, [0.0]), alpha, tol=1e-10)
    fib = negative_slice(saddle, weight_decomposition(saddle))

    from quiverflow import critical

    many = critical.integrate_many

    def broken(x0s, alpha, cfg, direction=1, **kwargs):
        if direction == -1:         # the backward flow of the theta fit, not the sweep
            raise TypeError("bug in the integrator")
        return many(x0s, alpha, cfg, direction, **kwargs)

    monkeypatch.setattr(critical, "integrate_many", broken)
    with pytest.raises(TypeError, match="bug in the integrator"):
        unstable_boundedness_check(saddle, fib, alpha, eps=1.0, seeds=2, cfg=tight_cfg)
