"""Stratum labels, flow lines, and breaking experiments.

A point is labeled by the invariant data of its forward-flow limit: the
per-vertex spectra of beta = H - alpha there (conjugation-invariant, so the
label is constant on compact-group orbits) together with the limiting
value of f.  Flow lines are normalized by an anchor on a fixed level and
classified by refining both directional limits.  The breaking experiment
follows a one-parameter family of seeds whose flow lines degenerate onto a
chain of critical points, recording level checkpoints and their Cauchy
behavior as the family parameter tends to its limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .critical import CriticalRecord, refine_critical
from .errors import QuiverFlowError
from .flow import IntegratorConfig, integrate_many, trace_crossings
from .moment import CentralShift
from .quiver import Representation

__all__ = [
    "StratumLabel",
    "stratum_labels",
    "label_of_trace",
    "FlowLine",
    "flow_lines",
    "BrokenLineReport",
    "broken_line_experiment",
    "search_critical_levels",
]

CLUSTER_TOL = 1e-5      # spectra clustering tolerance for label equality
VALUE_TOL = 1e-6        # critical-value tolerance for label equality
LABEL_REFINE_TOL = 1e-10  # ||grad f|| refinement target of labels and flow lines
CHAIN_REFINE_TOL = 1e-9   # ||grad f|| refinement target of a broken-line chain


@dataclass(frozen=True)
class StratumLabel:
    """Forward-limit invariant: beta spectra per vertex plus the limit value."""

    spectra: tuple
    f_limit: float
    status: str = "converged"      # or "inconclusive"

    def matches(self, other) -> bool:
        if self.status != "converged" or other.status != "converged":
            return False
        if abs(self.f_limit - other.f_limit) >= VALUE_TOL:
            return False
        if len(self.spectra) != len(other.spectra):
            return False
        for s1, s2 in zip(self.spectra, other.spectra):
            if len(s1) != len(s2):
                return False
            if any(abs(a - b) >= CLUSTER_TOL for a, b in zip(s1, s2)):
                return False
        return True


def stratum_labels(points, alpha: CentralShift, cfg: IntegratorConfig) -> list:
    """Label each point by the spectra and value of its forward-flow limit,
    from one batch of forward flows."""
    return [label_of_trace(tr, alpha, cfg) for tr in integrate_many(points, alpha, cfg)]


def label_of_trace(trace, alpha: CentralShift, cfg: IntegratorConfig) -> StratumLabel:
    """The label of a point read off its forward trace, refined to
    ``LABEL_REFINE_TOL``."""
    if trace.status != "converged":
        return StratumLabel(spectra=(), f_limit=float("nan"), status="inconclusive")
    rec = refine_critical(trace.final, alpha, tol=LABEL_REFINE_TOL, cfg=cfg)
    return StratumLabel(spectra=rec.beta_spectra, f_limit=rec.f_crit)


@dataclass(frozen=True)
class FlowLine:
    """The endpoints of the trajectory through an anchor on the level f = z: the
    forward flow converges to ``lower``; the backward flow ends with
    ``backward_status``, at ``upper`` when that is converged."""

    z: float
    lower: CriticalRecord
    upper: CriticalRecord          # None when the backward flow escapes
    backward_status: str


def _both_ways(forward, backward, alpha, cfg):
    """The forward flows of the points ``forward`` and the backward flows of the
    points ``backward``, as two lists from one ``integrate_many`` batch."""
    forward, backward = list(forward), list(backward)
    traces = integrate_many(forward + backward, alpha, cfg,
                            [1] * len(forward) + [-1] * len(backward))
    return traces[:len(forward)], traces[len(forward):]


def flow_lines(anchors, z: float, alpha: CentralShift, cfg: IntegratorConfig) -> list:
    """Classify the trajectory through each anchor with f(anchor) = z, from one
    batch of flows in both directions.  The forward flow must converge (the
    lower endpoint); the backward flow converges to the upper endpoint or
    escapes (upper None: the anchor lies on no unstable set).  An anchor that
    fails gets the QuiverFlowError or ValueError it raised."""
    out = []
    for anchor, fwd, bwd in zip(anchors, *_both_ways(anchors, anchors, alpha, cfg)):
        try:
            fa = float(fwd.fs[0])
            if abs(fa - z) > 1e-8 * (1.0 + abs(z)):
                raise ValueError(f"anchor has f = {fa:.12g}, not the stated level {z:.12g}")
            if fwd.gradnorms[0] < cfg.grad_stop:
                raise ValueError("anchor is a critical point; flow lines need a regular anchor")
            if fwd.status != "converged":
                raise QuiverFlowError(f"forward flow from anchor did not converge ({fwd.status})")
            lower = refine_critical(fwd.final, alpha, tol=LABEL_REFINE_TOL, cfg=cfg)
            upper = (refine_critical(bwd.final, alpha, tol=LABEL_REFINE_TOL, cfg=cfg)
                     if bwd.status == "converged" else None)
            out.append(FlowLine(float(z), lower, upper, bwd.status))
        except (QuiverFlowError, ValueError) as exc:
            out.append(exc)
    return out


@dataclass(frozen=True)
class BrokenLineReport:
    """Checkpoint records for a degenerating family of flow lines.

    The experiment follows one convergent family; it cannot exhibit the
    subsequence extraction of the general compactness statement, only the
    Cauchy behavior of this family's checkpoints.  ``dwell_fractions``
    records, per member and intermediate critical value, the fraction of
    trace time spent inside a narrow band around that value - the visible
    signature of the breaking as the family degenerates.
    """

    chain: tuple                   # CriticalRecord from upper to lower
    levels: tuple                  # checkpoint levels r_k
    params: tuple                  # family parameters, in visiting order
    checkpoints: tuple = field(repr=False)   # [k][n] Representation or None
    successive_distances: tuple = ()         # [k][n] ||y_k(n) - y_k(n+1)||
    chain_values: tuple = ()
    single_line: bool = False
    checkpoint_membership: tuple = ()        # per level: dict with endpoint matches
    dwell_fractions: tuple = ()              # [intermediate][n] time fraction

    @property
    def strictly_decreasing(self):
        vals = self.chain_values
        return all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def broken_line_experiment(seed_family, params, alpha: CentralShift, levels,
                           cfg: IntegratorConfig, limit_param=None) -> BrokenLineReport:
    """Track level checkpoints of a family of flow lines as it degenerates.

    seed_family maps a parameter to a seed representation; params is the
    (finite) sequence approaching the degenerate member, and limit_param,
    when given, is flowed forward after the members to expose the
    intermediate critical point the family breaks through.  Every member is
    flowed backward to the common upper record and forward to its lower
    record, all in one batch; the checkpoints of all members at all levels
    are read off the forward traces as one crossing stack.  If the limiting
    member converges straight to the bottom value, the family does not
    break and a single-line report (empty intermediate chain) is returned.
    """
    levels = tuple(float(r) for r in levels)
    seeds = [seed_family(s) for s in params]
    lim_seeds = [] if limit_param is None else [seed_family(limit_param)]
    forward, backward = _both_ways(seeds + lim_seeds, seeds, alpha, cfg)   # the limit member last
    members = list(zip(params, seeds, backward, forward))
    for s, _, bwd, fwd in members:
        if bwd.status != "converged":
            raise QuiverFlowError(f"backward flow of family member {s!r} did not converge")
        if fwd.status != "converged":
            raise QuiverFlowError(f"forward flow of family member {s!r} did not converge")

    upper = refine_critical(members[0][2].final, alpha, tol=CHAIN_REFINE_TOL, cfg=cfg)
    lower = refine_critical(members[0][3].final, alpha, tol=CHAIN_REFINE_TOL, cfg=cfg)

    n = len(members)
    found = trace_crossings([fwd for *_, fwd in members] * len(levels),
                            [r for r in levels for _ in range(n)], alpha)
    checkpoints = [found[k * n:(k + 1) * n] for k in range(len(levels))]

    successive = [tuple(None if y0 is None or y1 is None else float(y0.distance(y1))
                        for y0, y1 in zip(col, col[1:])) for col in checkpoints]

    # intermediate critical point from the degenerate member
    intermediates = []
    if limit_param is not None:
        lim_trace = forward[-1]
        if lim_trace.status == "converged":
            rec = refine_critical(lim_trace.final, alpha, tol=CHAIN_REFINE_TOL, cfg=cfg)
            if rec.f_crit > lower.f_crit + VALUE_TOL:
                intermediates.append(rec)

    chain = (upper, *intermediates, lower)
    chain_values = tuple(r.f_crit for r in chain)

    # dwell evidence: time fraction each member spends near an intermediate
    # value (band scaled to the chain's spread)
    span = max(chain_values[0] - chain_values[-1], 1e-12)
    band = 0.02 * span
    dwell = []
    for rec in intermediates:
        fracs = []
        for _, _, _, fwd in members:
            dts = np.diff(fwd.ts)
            near = np.abs(fwd.fs[:-1] - rec.f_crit) < band
            total = float(fwd.ts[-1] - fwd.ts[0])
            fracs.append(float(np.sum(dts[near])) / total if total > 0 else 0.0)
        dwell.append(tuple(fracs))

    # membership evidence: final member's checkpoints flow to consecutive
    # chain values (within tolerance) in both directions
    ends = [col[-1] for col in checkpoints if col[-1] is not None]
    flows = iter(zip(*_both_ways(ends, ends, alpha, cfg)))
    membership = []
    for k, r in enumerate(levels):
        y = checkpoints[k][-1]
        entry = {"level": r, "computed": y is not None}
        if y is not None:
            fwd, bwd = next(flows)
            entry["forward_value"] = float(fwd.fs[-1]) if fwd.status == "converged" else None
            entry["backward_value"] = float(bwd.fs[-1]) if bwd.status == "converged" else None
        membership.append(entry)

    return BrokenLineReport(
        chain=chain, levels=levels, params=tuple(params),
        checkpoints=tuple(tuple(col) for col in checkpoints),
        successive_distances=tuple(successive),
        chain_values=chain_values,
        single_line=(len(intermediates) == 0),
        checkpoint_membership=tuple(membership),
        dwell_fractions=tuple(dwell),
    )


def search_critical_levels(quiver, dims, alpha: CentralShift, cfg: IntegratorConfig,
                           rng, n_seeds: int = 12) -> dict:
    """Exploratory scan for distinct critical values reachable from random seeds.

    Flows random starts (and their small perturbations of the origin) and
    clusters the limiting values.  Outputs are labeled exploratory: the
    scan proves nothing about completeness of the level list.
    """
    values, records = [], []
    seeds = [Representation.zero(quiver, dims)]
    # axis seeds supported on a single edge reach strata that random seeds
    # almost surely miss
    for a in range(quiver.n_edges):
        axis = Representation.random(quiver, dims, rng)
        blocks = [np.zeros_like(b) if e != a else b
                  for e, b in enumerate(axis.blocks)]
        seeds.append(axis.replace_blocks(blocks))
    seeds += [Representation.random(quiver, dims, rng) for _ in range(n_seeds)]
    for trace in integrate_many(seeds, alpha, cfg):
        if trace.status != "converged":
            continue
        try:
            rec = refine_critical(trace.final, alpha, tol=1e-9, cfg=cfg)
        except QuiverFlowError:
            continue
        if not any(abs(rec.f_crit - v) < VALUE_TOL for v in values):
            values.append(rec.f_crit)
            records.append(rec)
    order = np.argsort(values)
    return {
        "exploratory": True,
        "values": [float(values[i]) for i in order],
        "records": [records[i] for i in order],
    }
