"""Critical points: refinement, weight data, slice fibers, index, decay fits.

At a critical point x the shifted moment value beta = H(x) - alpha
commutes with x in the sense rho_x(beta) = 0, so x is fixed by the
one-parameter motion generated by beta and the representation space splits
into weight spaces: in per-vertex eigenframes of beta the coordinate
(p, q) of an edge block carries the real weight

    w = lambda_head(p) - lambda_tail(q).

The slice fiber at x is the intersection of the span of the strictly
negative-weight coordinate directions with the orthocomplement of the
orbit tangent space im rho_x.  Its dimension reproduces the count of
negative Hessian eigenvalues; ``morse_index_check`` tests that identity on
the exact Hessian (``hessian_matrix``), and it pins down the weight-sign
convention, which a bare symbol chase would leave ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

from .errors import (
    InsufficientDataError,
    ProjectionFailedError,
    QuiverFlowError,
    RefinementFailedError,
)
from .flow import FlowTrace, IntegratorConfig, integrate_many
from .moment import (
    CentralShift,
    HermitianCollection,
    VelocityKernel,
    beta_of,
    hessian_matrix,
    moment_tensor,
    orbit_basis,
)
from .quiver import Representation, flatten_blocks

__all__ = [
    "CriticalRecord",
    "WeightDecomposition",
    "refine_critical",
    "weight_decomposition",
    "negative_slice",
    "MorseIndexReport",
    "morse_index_check",
    "lojasiewicz_fit",
    "unstable_boundedness_check",
    "unstable_sweep",
    "fiber_directions",
]

CRITICALITY_FACTOR = 1e-9      # rho_x(beta) residual bound, relative
SEED_RADIUS = 1e-4             # distance of unstable-sweep seeds from the record
MAX_NEWTON = 60                # Gauss-Newton iterations of refine_critical
TAIL_FRACTION = 0.05           # lojasiewicz_fit's tail: gaps below this share of the first


@dataclass(frozen=True)
class CriticalRecord:
    """A converged critical point together with its beta data."""

    x: Representation
    f_crit: float
    beta: HermitianCollection
    grad_residual: float

    def __post_init__(self):
        resid = criticality_residual(self.x, self.beta)
        bound = CRITICALITY_FACTOR * (1.0 + self.x.norm()) * (1.0 + np.sqrt(self.beta.norm_sq()))
        if resid > bound:
            raise RefinementFailedError(
                f"criticality residual {resid:.3e} exceeds bound {bound:.3e}",
                best_residual=resid)

    @property
    def beta_spectra(self) -> tuple:
        """Per-vertex eigenvalues of beta, ascending (``beta.spectra()``)."""
        return self.beta.spectra()


def criticality_residual(x: Representation, beta: HermitianCollection) -> float:
    """||rho_x(beta)|| = ||2 sum_k beta_k T_k y||, from the record's own beta."""
    ty = moment_tensor(x.quiver, x.dims) @ x.flatten()
    return float(np.linalg.norm(2.0 * flatten_blocks(beta.blocks) @ ty))


def refine_critical(x_approx: Representation, alpha: CentralShift, tol: float = 1e-10,
                    cfg: IntegratorConfig = None) -> CriticalRecord:
    """Polish an approximate critical point until ||grad f|| < tol.

    Strategy: continue the flow while it still makes fast progress, then
    switch to at most ``MAX_NEWTON`` Gauss-Newton steps on grad f in flat
    coordinates, solved with an SVD pseudo-inverse because grad f is
    degenerate along the compact group orbit through x; the least-norm step
    moves transversally to it.
    """
    q, dims = x_approx.quiver, x_approx.dims
    kernel = VelocityKernel(q, dims, alpha)
    y = x_approx.flatten()
    g = -2.0 * kernel.velocity_flat(y)
    gn = float(np.linalg.norm(g))

    if gn >= 1e-3:
        # flow continuation toward the critical set; keep the closest
        # approach, since the flow escapes saddle-type points again
        flow_cfg = replace(cfg or IntegratorConfig(), grad_stop=tol, max_time=50.0)
        trace = integrate_many([x_approx], alpha, flow_cfg)[0]
        y = trace.states[int(np.argmin(trace.gradnorms))]
        g = -2.0 * kernel.velocity_flat(y)
        gn = float(np.linalg.norm(g))

    for _ in range(MAX_NEWTON):
        if gn < tol:
            break
        hess = hessian_matrix(Representation.unflatten(q, dims, y), alpha)
        step = -np.linalg.pinv(hess, rcond=1e-12) @ g
        scale = 1.0
        for _ in range(40):
            y_try = y + scale * step
            g_try = -2.0 * kernel.velocity_flat(y_try)
            gn_try = float(np.linalg.norm(g_try))
            if gn_try < gn:
                y, g, gn = y_try, g_try, gn_try
                break
            scale *= 0.5
        else:
            break
    if gn >= tol:
        raise RefinementFailedError(
            f"refinement stalled at ||grad f|| = {gn:.3e} (tol {tol:.3e})",
            best_residual=gn)
    x = Representation.unflatten(q, dims, y)
    return CriticalRecord(x=x, f_crit=kernel.f_flat(y), beta=beta_of(x, alpha), grad_residual=gn)


@dataclass(frozen=True)
class WeightDecomposition:
    """Per-vertex eigenframes of beta and the induced edge weight matrices."""

    vertex_frames: tuple           # unitary per vertex, columns = eigenvectors
    edge_weights: tuple            # per edge: real matrix lambda_head[p] - lambda_tail[q]
    negative: tuple                # per edge: list of (p, q) with w below the zero band
    offband_mass: float = 0.0      # mass of x outside the zero-weight band


def weight_decomposition(rec: CriticalRecord) -> WeightDecomposition:
    """Eigenframes, weight matrices and negative-weight cells at a critical
    record; weights within 1e-7 * (1 + max |eigenvalue of beta|) of 0 count
    as zero."""
    x = rec.x
    q = x.quiver
    spectral = [np.linalg.eigh(b) for b in rec.beta.blocks]     # empty for an empty block
    eigs, frames = [lam for lam, _ in spectral], [u for _, u in spectral]
    lam_max = max((float(np.max(np.abs(l))) for l in eigs if l.size), default=0.0)
    weight_tol = 1e-7 * (1.0 + lam_max)

    weights, neg = [], []
    offband = 0.0
    for a in range(q.n_edges):
        lh, lt = eigs[q.head[a]], eigs[q.tail[a]]
        w = lh[:, None] - lt[None, :]
        weights.append(w)
        # argwhere lists (p, q) in row-major order
        neg.append(tuple(map(tuple, np.argwhere(w < -weight_tol).tolist())))
        xa_frame = frames[q.head[a]].conj().T @ x.blocks[a] @ frames[q.tail[a]]
        offband += float(np.sum(np.abs(xa_frame[np.abs(w) > weight_tol]) ** 2))
    return WeightDecomposition(
        vertex_frames=tuple(frames), edge_weights=tuple(weights),
        negative=tuple(neg), offband_mass=float(np.sqrt(offband)),
    )


def negative_slice(rec: CriticalRecord, wd: WeightDecomposition) -> np.ndarray:
    """Orthonormal real basis of the fiber of decaying directions orthogonal
    to the orbit at rec.x, shape (rep_real_dim, dim); dim is ``shape[1]``.

    Builds the orthonormal coordinate directions of strictly negative
    weight, projects them against ``orbit_basis`` (im rho_x, spanned by T y
    and i T y), and reads the surviving dimension off the singular values of
    the projected set.  At a critical point the weight grading is compatible
    with im rho_x, so the singular values cluster at 0 and 1 and the 0.5
    threshold is safe.
    """
    x = rec.x
    q, dims = x.quiver, x.dims
    shapes = q.block_shapes(dims)
    cols = []
    for a, pairs in enumerate(wd.negative):
        if not pairs:
            continue
        m, n = shapes[a]
        # unit blocks at the negative frame coordinates, Re then Im per pair
        units = np.eye(m * n)[np.ravel_multi_index(np.transpose(pairs), (m, n))]
        e_frame = np.stack([units, 1j * units], axis=1).reshape(-1, m, n)
        blocks = [np.zeros((len(e_frame),) + sh, dtype=complex) for sh in shapes]
        blocks[a] = wd.vertex_frames[q.head[a]] @ e_frame @ wd.vertex_frames[q.tail[a]].conj().T
        cols.append(flatten_blocks(blocks))
    if not cols:
        return np.zeros((q.rep_real_dim(dims), 0))
    b = np.concatenate(cols).T
    orbit = orbit_basis(x)
    proj = b - orbit @ (orbit.T @ b) if orbit.shape[1] else b
    u, s, _ = np.linalg.svd(proj, full_matrices=False)
    keep = int(np.sum(s > 0.5))
    return u[:, :keep]


@dataclass(frozen=True)
class MorseIndexReport:
    slice_dim: int
    hessian_index: int
    agree: bool
    status: str                  # "ok" or "indeterminate"
    eigenvalues: np.ndarray = field(repr=False, default=None)


def morse_index_check(rec: CriticalRecord, basis: np.ndarray,
                      alpha: CentralShift) -> MorseIndexReport:
    """Compare the slice dimension, the column count of the fiber basis,
    against the index of the exact Hessian.

    The Hessian is ``hessian_matrix`` at rec.x; its eigenvalues, ascending,
    are the report's ``eigenvalues`` and the archive's ``hessian_spectrum``.
    Eigenvalues below -band count as negative, with band
    1e-6 * (1 + max |eig|).  Zero modes inside the band are expected (orbit
    directions at minima) and do not block agreement; a disagreement in the
    presence of in-band eigenvalues is reported as indeterminate rather
    than as a clean verdict, since band calls could flip it either way.
    """
    hess = hessian_matrix(rec.x, alpha)
    lam = np.linalg.eigvalsh(hess) if hess.size else np.zeros(0)
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    band = 1e-6 * (1.0 + scale)
    index = int(np.sum(lam < -band))
    in_band = bool(np.any(np.abs(lam) < band))
    agree = basis.shape[1] == index
    status = "indeterminate" if (not agree and in_band) else "ok"
    return MorseIndexReport(slice_dim=basis.shape[1], hessian_index=index,
                            agree=agree, status=status, eigenvalues=lam)


def lojasiewicz_fit(trace: FlowTrace, f_crit: float):
    """Fit ||grad f|| ~ C |f - f_crit|^(1-theta) on the tail of a trace.

    Returns (theta, C, r_squared).  Uses the samples whose value gap has
    dropped below ``TAIL_FRACTION`` of the initial gap, discards gaps at the
    floating-point floor, and fits the log-log line by least squares to
    at least 10 samples.
    """
    gaps = np.abs(trace.fs - f_crit)
    grads = np.asarray(trace.gradnorms)
    gap0 = gaps[0]
    floor = 1e-13 * (1.0 + abs(f_crit)) + 1e-15 * gap0
    mask = (gaps < TAIL_FRACTION * gap0) & (gaps > floor) & (grads > 0.0)
    if int(np.sum(mask)) < 10:
        raise InsufficientDataError(f"only {int(np.sum(mask))} usable tail samples (need 10)")
    lx = np.log(gaps[mask])
    ly = np.log(grads[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    theta = 1.0 - float(slope)
    return theta, float(np.exp(intercept)), r2


def fiber_directions(dim: int, n: int) -> np.ndarray:
    """n quasi-uniform unit directions in R^dim (deterministic).

    dim 1 alternates signs, dim 2 uses equal angles, higher dimensions map
    the R_d Kronecker sequence (fractional parts of 1/2 + k g, with
    g_j = phi^-j and phi^(dim+1) = phi + 1) through the normal quantile
    and normalize.
    """
    if n <= 0 or dim <= 0:
        return np.zeros((0, max(dim, 0)))
    if dim == 1:
        return np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(n)])
    if dim == 2:
        th = 2.0 * np.pi * np.arange(n) / n
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    pts = (0.5 + np.outer(np.arange(1, n + 1), phi ** -np.arange(1, dim + 1))) % 1.0
    quantile = NormalDist().inv_cdf
    z = np.array([[quantile(p) for p in row] for row in np.clip(pts, 1e-12, 1 - 1e-12).tolist()])
    nrm = np.linalg.norm(z, axis=1, keepdims=True)
    nrm[nrm < 1e-12] = 1.0
    return z / nrm


def unstable_sweep(rec: CriticalRecord, basis: np.ndarray, alpha: CentralShift, eps: float,
                   n: int, cfg: IntegratorConfig, project=None) -> list:
    """Seed n unit directions of a fiber basis at ``SEED_RADIUS`` around rec and
    flow them to the level f_crit - eps as one batch.

    One dict per seed holds its ``direction``, the ``seed``, the ``start``
    and ``notes`` that ``project(seed)`` returns, and its ``trace`` or its
    ``error``; a caller that checks conserved quantities reads them off the
    trace with ``FlowTrace.with_monitors``.  A seed whose projection raises
    ProjectionFailedError gets ``start`` None and is not flowed.  Every
    other start is a row of one ``integrate_many`` call, which ends a start
    on the level or past it at once (``exited_level``, ``past_level``); a
    QuiverFlowError or LinAlgError the call raises is the error of each row.
    """
    x0_flat = rec.x.flatten()
    out = []
    for d in fiber_directions(basis.shape[1], n):
        seed = Representation.unflatten(rec.x.quiver, rec.x.dims, x0_flat + SEED_RADIUS * (basis @ d))
        out.append({"direction": d, "seed": seed, "start": seed, "notes": {},
                    "trace": None, "error": None})
        try:
            if project is not None:
                out[-1]["start"], out[-1]["notes"] = project(seed)
        except ProjectionFailedError as exc:
            out[-1].update(start=None, error=str(exc))
    flowed = [e for e in out if e["start"] is not None]
    try:
        traces, error = integrate_many([e["start"] for e in flowed], alpha, cfg,
                                       stop_level=rec.f_crit - eps), None
    except (QuiverFlowError, np.linalg.LinAlgError) as exc:
        traces, error = [None] * len(flowed), str(exc)
    for e, trace in zip(flowed, traces):
        e.update(trace=trace, error=error)
    return out


def unstable_boundedness_check(rec: CriticalRecord, basis: np.ndarray,
                               alpha: CentralShift, eps: float, seeds: int,
                               cfg: IntegratorConfig) -> dict:
    """Probe compactness of the unstable cone one level below the record.

    Reads the seeds of one ``unstable_sweep`` along the fiber basis to the
    level f_crit - eps and measures the farthest endpoint from the critical
    point.  With an empty fiber or no seeds the sweep is empty and the
    report is ``vacuous`` and bounded, with no fit and no bound.  The
    gradient-inequality bound length <= eps^theta / (C theta) is evaluated
    twice: with the tail-fitted constant, and with the conservative
    constant min ||grad f|| / gap^(1-theta) taken along the sampled
    trajectories (the inequality must hold along the whole segment for the
    length bound to apply, and the tail constant alone need not).
    """
    vacuous = basis.shape[1] == 0 or seeds == 0
    report = {
        "n_seeds": int(seeds), "fiber_dim": int(basis.shape[1]), "eps": float(eps),
        "seed_radius": SEED_RADIUS, "reached": [], "endpoint_distances": [],
        "failures": [], "vacuous": vacuous,
    }
    c_seg = np.inf
    theta = c_tail = None
    for i, s in enumerate(unstable_sweep(rec, basis, alpha, eps, seeds, cfg)):
        trace, error = s["trace"], s["error"]
        if trace is not None and trace.status != "exited_level":
            error = f"seed stopped with status {trace.status}"
        if error is not None:
            report["reached"].append(False)
            report["endpoint_distances"].append(None)
            report["failures"].append({"seed": i, "error": error})
            continue
        report["reached"].append(True)
        report["endpoint_distances"].append(trace.final.distance(rec.x))
        gaps = np.abs(rec.f_crit - trace.fs)
        grads = trace.gradnorms
        if theta is None:
            # backward trace into the record pins the decay exponent
            back = integrate_many([trace.final], alpha, replace(cfg, max_time=200.0), direction=-1)[0]
            if back.status == "converged":
                try:
                    theta, c_tail, _ = lojasiewicz_fit(back, rec.f_crit)
                except InsufficientDataError:
                    theta = None
        if theta is not None:
            ok = (gaps > 1e-12 * (1.0 + eps)) & (grads > 0)
            if np.any(ok):
                c_seg = min(c_seg, float(np.min(grads[ok] / gaps[ok] ** (1.0 - theta))))
    max_dist = max((d for d in report["endpoint_distances"] if d is not None), default=0.0)
    report["max_distance"] = float(max_dist)
    report["theta"] = theta
    report["c_tail"] = c_tail
    report["c_segment"] = None if not np.isfinite(c_seg) else float(c_seg)
    report["bound_tail"] = (eps ** theta / (c_tail * theta)) if theta else None
    report["bound_segment"] = (eps ** theta / (c_seg * theta)) if (theta and np.isfinite(c_seg)) else None
    report["bounded"] = bool(vacuous or (report["bound_segment"] is not None
                                         and max_dist <= report["bound_segment"]))
    return report
