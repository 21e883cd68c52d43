"""Restriction of the dynamics to a relation-cut invariant subvariety.

The subvariety is represented only through the residual map of its
relations: the flow preserves it exactly in exact arithmetic (trajectories
stay inside a complex-group orbit and path relations are covariant under
the group action), so projection is needed only to clean up seeds.  The
projection is a damped Gauss-Newton iteration on the stacked residuals
with an analytic Jacobian assembled from path-product derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .critical import CriticalRecord, SliceFiber, unstable_sweep
from .errors import ProjectionFailedError
from .flow import IntegratorConfig
from .moment import CentralShift
from .quiver import Representation, flatten_blocks, relation_residual, unflatten_blocks

__all__ = [
    "SubvarietySpec",
    "project_to_variety",
    "slice_variety_probe",
]


@dataclass(frozen=True)
class SubvarietySpec:
    """A finite relation list with the residual tolerance defining 'on Z'."""

    relations: tuple
    residual_tol: float = 1e-10

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        object.__setattr__(self, "relations", tuple(self.relations))

    def residuals(self, x: Representation) -> np.ndarray:
        """All relation values stacked into one real vector."""
        return flatten_blocks([r.evaluate(x.blocks) for r in self.relations])

    def max_residual(self, x: Representation) -> float:
        return max((relation_residual(x, r) for r in self.relations), default=0.0)


def _relation_derivative(rel, xs, ts):
    """Derivative of a relation at edge blocks xs along ts (batch-aware): per
    path, the sum over positions of suffix @ t_edge @ prefix."""
    out = 0.0
    for coef, path in rel.terms:
        pre = None
        for pos, edge in enumerate(path):
            seg = ts[edge] if pre is None else ts[edge] @ pre
            for e in path[pos + 1:]:
                seg = xs[e] @ seg
            out = out + coef * seg
            pre = xs[edge] if pre is None else xs[edge] @ pre
    return out


def _relation_jacobian(x: Representation, spec: SubvarietySpec) -> np.ndarray:
    """Real Jacobian of the stacked residual vector at x: the derivatives along
    the whole unit basis, stacked on a leading batch axis, in one call."""
    n = x.quiver.rep_real_dim(x.dims)
    ts = unflatten_blocks(np.eye(n), x.quiver.block_shapes(x.dims))
    return flatten_blocks([_relation_derivative(r, x.blocks, ts) for r in spec.relations]).T


def project_to_variety(x: Representation, spec: SubvarietySpec,
                       max_iter: int = 50) -> tuple:
    """Damped Gauss-Newton projection onto the relation zero set.

    Returns (projected representation, distance moved).  Raises
    ProjectionFailedError with the best residual when the iteration leaves
    the convergence basin or stalls.
    """
    q, dims = x.quiver, x.dims
    y = x.flatten()
    cur = x
    res = spec.residuals(cur)
    if spec.max_residual(cur) < spec.residual_tol:
        return cur, 0.0
    for _ in range(max_iter):
        jac = _relation_jacobian(cur, spec)
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        scale = 1.0
        norm0 = float(np.linalg.norm(res))
        for _ in range(30):
            cand = Representation.unflatten(q, dims, cur.flatten() + scale * step)
            res_c = spec.residuals(cand)
            if float(np.linalg.norm(res_c)) < norm0:
                cur, res = cand, res_c
                break
            scale *= 0.5
        else:
            raise ProjectionFailedError(
                f"projection stalled at residual {norm0:.3e}", best_residual=norm0)
        if spec.max_residual(cur) < spec.residual_tol:
            return cur, float(np.linalg.norm(cur.flatten() - y))
    best = float(np.linalg.norm(res))       # each accepted step lowers the residual
    raise ProjectionFailedError(
        f"projection did not converge (best residual {best:.3e})", best_residual=best)


def slice_variety_probe(rec: CriticalRecord, fiber: SliceFiber, spec: SubvarietySpec,
                        alpha: CentralShift, eps: float, cfg: IntegratorConfig,
                        n_seeds: int) -> dict:
    """Compare the linearized in-variety slice with sampled unstable flow.

    Part (i) linearizes each relation at the critical point and counts the
    fiber directions annihilated by all of them (the tangent-cone estimate
    of the fiber cut to the variety).  Part (ii) seeds those directions,
    projects the seeds onto the variety, flows them to the level
    f_crit - eps as one ``unstable_sweep``, reads the relation residuals
    off each trace's states with ``FlowTrace.with_monitors`` and reports
    whether they stay below ten times the membership tolerance.  The two
    dimensions are reported side by side; disagreement is flagged for
    investigation, not asserted away, since the linear count can overshoot
    at singular points of the variety.
    """
    report = {"fiber_dim": int(fiber.dim), "eps": float(eps), "seeds": []}
    if fiber.dim == 0:
        report.update(linear_dim=0, flagged=False)
        return report
    jac = _relation_jacobian(rec.x, spec)
    in_cone = fiber.basis
    if jac.shape[0]:        # keep the fiber's null space of the linearized relations
        _, s, vt = np.linalg.svd(jac @ fiber.basis)
        in_cone = fiber.basis @ vt[int(np.sum(s > 1e-9 * max(s[0], 1.0))):].T
    report["linear_dim"] = int(in_cone.shape[1])

    drift_tol = 10.0 * spec.residual_tol

    def project(seed):
        seed_z, moved = project_to_variety(seed, spec)
        seed_z, snapped = _snap_branches(seed_z, spec)
        return seed_z, {"projection_moved": float(moved), "snapped_blocks": snapped}

    for i, s in enumerate(unstable_sweep(rec, in_cone, alpha, eps, n_seeds, cfg,
                                         project=project)):
        entry = {"seed_index": i, "projection_moved": None, **s["notes"]}
        trace, error = s["trace"], s["error"]
        if trace is not None and trace.status == "exited_level":
            cols = [v for name, v in trace.with_monitors(relations=spec.relations)
                    .monitors.items() if name.startswith("rel:")]
            worst = max((float(np.max(v)) for v in cols), default=0.0)
            entry.update(time=float(trace.ts[-1]), max_residual=worst,
                         endpoint_residual=max((float(v[-1]) for v in cols), default=0.0),
                         residual_ok=worst < drift_tol)
        elif s["start"] is not None:        # projected, but not flowed to the level
            if trace is not None:
                error = f"flow stopped with status {trace.status}"
            entry.update(time=None, max_residual=None, endpoint_residual=None, residual_ok=None)
        entry["error"] = error
        report["seeds"].append(entry)
    report["flagged"] = any(not e.get("residual_ok") for e in report["seeds"])
    return report


def _snap_branches(x: Representation, spec: SubvarietySpec):
    """Zero out blocks below 0.05 times the norm of the largest one, when
    doing so lands exactly on the variety.

    Near a singular point of the variety, least squares cannot reach a
    branch to machine precision; unstable flow then amplifies the off-
    variety residue exponentially.  Snapping the near-zero blocks picks the
    branch the seed was converging to and makes the residual exactly zero
    for monomial-type relations.
    """
    norms = [float(np.linalg.norm(b)) for b in x.blocks]
    big = max(norms) if norms else 0.0
    if big == 0.0:
        return x, []
    candidates = [a for a, nb in enumerate(norms) if nb < 0.05 * big]
    if not candidates:
        return x, []
    blocks = [b.copy() for b in x.blocks]
    for a in candidates:
        blocks[a] = np.zeros_like(blocks[a])
    snapped = Representation(x.quiver, x.dims, tuple(blocks))
    if spec.max_residual(snapped) <= spec.residual_tol:
        return snapped, [int(a) for a in candidates]
    return x, []
