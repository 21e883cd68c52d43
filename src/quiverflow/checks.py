"""Invariant battery behind the `check` subcommand.

Each check returns a dict with name, passed, and a short detail string.
The battery exercises the algebraic identities (action axioms, derivative
and moment-map equations, conjugation invariances) and the dynamical
contracts (monotonicity, dissipation identity, conservation, level-crossing
accuracy, flow equivariance, criticality of refined records) on the
config's quiver with its own integrator settings.
"""

from __future__ import annotations

import numpy as np

from .critical import morse_index_check, negative_slice, refine_critical, weight_decomposition
from .errors import QuiverFlowError
from .flow import energy_identity_defect, integrate_many, trace_crossings
from .moment import VelocityKernel, f_value, moment, moment_map_equation_check
from .quiver import (
    GroupElement,
    LieAlgebraElement,
    Representation,
    act,
    cycle_trace,
    group_exp,
    infinitesimal_action,
    relation_residual,
)
from .runconfig import rng_for
from .strata import label_of_trace

__all__ = ["run_checks"]


def _check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def run_checks(model, trials: int = 3) -> list:
    """Run the battery; returns the list of check results."""
    q, dims, alpha, cfg = model.quiver, model.dims, model.alpha, model.integrator
    seed = int(model.doc.get("seed", 0))
    rng = rng_for(seed, 1_000_000)
    out = []

    points = list(model.points) or [Representation.random(q, dims, rng) for _ in range(trials)]
    x = points[0]

    # action axioms
    worst_id = max(act(GroupElement.identity(q, dims), p).distance(p) for p in points)
    worst_comp = 0.0
    for p in points:
        g = GroupElement.random_unitary(q, dims, rng)
        h = GroupElement.random_unitary(q, dims, rng)
        worst_comp = max(worst_comp, act(g, act(h, p)).distance(act(g.compose(h), p)))
    out.append(_check("action_identity", worst_id <= 1e-12, f"max defect {worst_id:.3e}"))
    out.append(_check("action_composition", worst_comp <= 1e-12, f"max defect {worst_comp:.3e}"))

    # infinitesimal action is the derivative of the action
    u = LieAlgebraElement.random(q, dims, rng)
    rho_u = infinitesimal_action(u, x)
    errs = []
    for t in (1e-3, 1e-4, 1e-5):
        fd = act(group_exp(u, t), x).add_scaled(x, -1.0)
        fd = fd.replace_blocks(b / t for b in fd.blocks)
        errs.append(fd.distance(rho_u))
    decay = all(errs[i + 1] < 0.5 * errs[i] for i in range(len(errs) - 1))
    out.append(_check("infinitesimal_action_fd", decay and errs[-1] < 1e-3 * (1 + x.norm()),
                      f"errors {['%.2e' % e for e in errs]}"))

    # cycle traces: conjugation invariance
    if model.cycles:
        worst = 0.0
        longest = max(len(w.path) for w in model.cycles)
        for w in model.cycles:
            g = GroupElement.random_unitary(q, dims, rng)
            worst = max(worst, abs(cycle_trace(act(g, x), w) - cycle_trace(x, w)))
        out.append(_check("cycle_trace_invariance",
                          worst <= 1e-12 * (1 + x.norm() ** longest),
                          f"max drift {worst:.3e}"))

    # relation residual: unitary invariance
    if model.relations:
        worst = 0.0
        for r in model.relations:
            g = GroupElement.random_unitary(q, dims, rng)
            worst = max(worst, abs(relation_residual(act(g, x), r) - relation_residual(x, r)))
        out.append(_check("relation_residual_unitary_invariance", worst <= 1e-10,
                          f"max drift {worst:.3e}"))

    # moment equivariance and f invariance under the compact group
    worst_mu, worst_f = 0.0, 0.0
    for p in points:
        k = GroupElement.random_unitary(q, dims, rng)
        h0, h1 = moment(p), moment(act(k, p))
        for i in range(q.n_vertices):
            conj = k.blocks[i] @ h0.blocks[i] @ k.blocks[i].conj().T
            worst_mu = max(worst_mu, float(np.linalg.norm(h1.blocks[i] - conj)))
        worst_f = max(worst_f, abs(f_value(act(k, p), alpha) - f_value(p, alpha))
                      / (1.0 + abs(f_value(p, alpha))))
    out.append(_check("moment_equivariance", worst_mu <= 1e-12 * (1 + x.norm() ** 2),
                      f"max defect {worst_mu:.3e}"))
    out.append(_check("f_invariance", worst_f <= 1e-12, f"max relative drift {worst_f:.3e}"))

    # gradient consistency against central differences of f
    worst = 0.0
    for _ in range(max(trials * 10, 20)):
        p = Representation.random(q, dims, rng)
        worst = max(worst, _grad_fd_relerr(p, alpha))
    out.append(_check("gradient_consistency", worst < 1e-6, f"max relative error {worst:.3e}"))

    # moment map defining equation
    worst = 0.0
    for _ in range(trials):
        p = Representation.random(q, dims, rng)
        tangent = Representation.random(q, dims, rng)
        uu = LieAlgebraElement.random(q, dims, rng)
        worst = max(worst, moment_map_equation_check(p, tangent, uu))
    out.append(_check("moment_map_equation", worst < 1e-6, f"max defect {worst:.3e}"))

    # trace contracts: monotonicity, dissipation identity, conservation
    worst_mono, worst_energy, worst_cyc, worst_rel = 0.0, 0.0, 0.0, 0.0
    traces = integrate_many(points[:max(trials, 1)], alpha, cfg)
    for tr in (tr.with_monitors(model.cycles, model.relations) for tr in traces[:trials]):
        df = np.diff(tr.fs)
        slack = 1e-10 * (1.0 + np.abs(tr.fs[:-1]))
        worst_mono = max(worst_mono, float(np.max(df - slack, initial=-np.inf)))
        worst_energy = max(worst_energy,
                           energy_identity_defect(tr) / (1.0 + tr.fs[0]))
        for name in tr.monitors:
            drift = float(np.max(np.abs(tr.monitors[name] - tr.monitors[name][0])))
            if name.startswith("cyc:"):
                worst_cyc = max(worst_cyc, drift)
            elif name.startswith("rel:"):
                worst_rel = max(worst_rel, drift)
    out.append(_check("trace_monotone", worst_mono <= 0.0, f"max slack excess {worst_mono:.3e}"))
    out.append(_check("energy_identity", worst_energy < 1e-6,
                      f"max relative defect {worst_energy:.3e}"))
    if model.cycles:
        out.append(_check("cycle_conservation", worst_cyc < 1e-8, f"max drift {worst_cyc:.3e}"))
    if model.relations:
        out.append(_check("relation_conservation", worst_rel < 1e-8,
                          f"max drift {worst_rel:.3e}"))

    # level-crossing trials draw their point and level fraction together, then
    # k; the trials, the replay of x's trace (row 0 above) from act(k, x) and
    # the labelling flow of act(k, x) run as one batch
    draws = [(Representation.random(q, dims, rng), rng.random()) for _ in range(trials * 4)]
    k = GroupElement.random_unitary(q, dims, rng)
    tr, xk = traces[0], act(k, x)
    *trial_traces, tr_k, tr_lab = integrate_many(
        [p for p, _ in draws] + [xk, xk], alpha, cfg,
        replay_steps=[None] * len(draws) + [list(tr.steps), None])
    crossing, ells = [], []
    for tr_i, (_, frac) in zip(trial_traces, draws):
        f0, lim = tr_i.fs[0], tr_i.fs[-1]
        if not f0 - lim < 1e-6:
            crossing.append(tr_i)
            ells.append(lim + (0.2 + 0.6 * frac) * (f0 - lim))
    worst, tried = 0.0, 0
    for y, ell in zip(trace_crossings(crossing, ells, alpha), ells):
        if y is not None:
            tried += 1
            worst = max(worst, abs(f_value(y, alpha) - ell) / (1.0 + abs(ell)))
    out.append(_check("level_crossing_contract", tried > 0 and worst < 1e-8,
                      f"{tried} crossings, max scaled defect {worst:.3e}"))

    # flow equivariance on the replayed step sequence
    n = min(tr.n_samples, tr_k.n_samples)
    worst = max(act(k, x_i).distance(tr_k.point(i)) / (1.0 + x_i.norm())
                for i, x_i in enumerate(map(tr.point, range(n))))
    out.append(_check("flow_equivariance", worst < 1e-8, f"max scaled defect {worst:.3e}"))

    # refined records are critical and slice dim matches the Hessian index
    try:
        rec = refine_critical(tr.final, alpha, tol=1e-9, cfg=cfg)
        wd = weight_decomposition(rec)
        fib = negative_slice(rec, wd)
        rep = morse_index_check(rec, fib, alpha)
        ok = rep.status == "indeterminate" or rep.agree
        out.append(_check("criticality_and_index", ok,
                          f"slice {rep.slice_dim}, hessian {rep.hessian_index}, "
                          f"status {rep.status}"))
    except QuiverFlowError as exc:
        out.append(_check("criticality_and_index", False, f"refinement failed: {exc}"))

    # stratum labels are invariant under the compact group
    lab, lab_k = label_of_trace(tr, alpha, cfg), label_of_trace(tr_lab, alpha, cfg)
    out.append(_check("stratum_label_invariance", lab.matches(lab_k),
                      f"f_limit {lab.f_limit:.6g} vs {lab_k.f_limit:.6g}"))
    return out


def _grad_fd_relerr(x, alpha):
    kernel = VelocityKernel(x.quiver, x.dims, alpha)
    y0 = x.flatten()
    g = -2.0 * kernel.velocity_flat(y0)
    h = 1e-6 * (1.0 + float(np.linalg.norm(y0)))
    e = h * np.eye(y0.size)
    fp, fm = np.split(kernel.f_flat(np.concatenate([y0 + e, y0 - e])), 2)
    fd = (fp - fm) / (2.0 * h)
    denom = float(np.linalg.norm(fd))
    if denom == 0.0:
        return float(np.linalg.norm(g))
    return float(np.linalg.norm(g - fd)) / denom
