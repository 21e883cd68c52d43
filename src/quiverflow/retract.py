"""Closed-form two-dimensional scenes for the level-set retraction machinery.

Two scenes share one critical value c = 0:

* ``SaddleScene`` - the plane with f(x, y) = (y^2 - x^2) / 2 and downward
  flow (x, y) -> (e^t x, e^-t y).  Everything (crossing times, the gauge
  sigma, the region Y, the collapse map R) has a closed form, so the
  retraction identities can be checked to roundoff.

* ``SlitScene`` - the quotient of [0, inf) x [0, 2 pi) that glues all
  points with rho = 0 to one point.  The map to the plane
  (rho, theta) -> (rho cos theta, rho sin theta) is a bijection but not a
  homeomorphism: angles do not wrap across 2 pi, except through the glued
  origin.  The same saddle flow on this space violates the neighborhood
  funneling property at the origin and flips the sublevel-set component
  count, which is exactly what the census and probe below measure.  All
  slit topology is handled combinatorially on the (rho, theta) grid; the
  plane embedding is never used for adjacency.  The census joins row
  stretches and returns its labels as runs, never as a per-cell grid.

Saddle scene constructions
--------------------------
On the bottom level f = -eps (two hyperbola branches x = +-sqrt(y^2+2eps))
the shrinking open family is the tube E_s = { |y| < delta (1 - s) } with
the linear retraction r((branch, y), u) = (branch, y (1 - u)).  The gauge
sigma(p) = max(0, 1 - |y_bottom(p)| / delta) is constant along flow lines
(y_bottom uses the conserved product x y), g = f - 2 eps sigma, and
Y = g^{-1}([c - 3 eps, c - eps]).  The collapse map combines the crossing
time with the tube retraction:

    base(p)   = flow of p to the bottom level
    y(p, s)   = r(base(p), min(s, s_final(p)))
    R(p, s)   = flow of y(p, s) back up to the level f_s(p)

with s_final, f_final, f_s the standard interpolation data; R(-, 0) is the
identity on Y and R(-, 1) lands in the bottom level united with the
unstable set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import LevelNotReachedError, UndefinedDomainError

__all__ = [
    "SaddleScene",
    "SlitScene",
    "ScenePoint",
    "CensusRuns",
    "connectivity_census",
    "condition4_probe",
]

# Condition-4 probe: samples on one circle of this radius around the critical point
PROBE_SAMPLES = 64
PROBE_RADIUS = 1e-4

# Cells per block of the census mask's f evaluation: bounds its scratch beside the mask
_BLOCK_CELLS = 1 << 16


class CensusRuns(NamedTuple):
    """Census labels as runs over the row-major grid cells:
    ``np.repeat(values, lengths)`` is the flattened label grid, and size is
    its cell count."""

    values: np.ndarray
    lengths: np.ndarray
    size: int


@dataclass(frozen=True)
class ScenePoint:
    """Coordinates in a scene chart: (x, y) for the saddle, (rho, theta) for
    the slit quotient (rho = 0 is canonicalized to theta = 0)."""

    u: float
    v: float


class SaddleScene:
    """Smooth saddle with closed-form flow; critical value c = 0."""

    def __init__(self, eps=0.1, delta=0.5):
        if eps <= 0 or delta <= 0:
            raise ValueError("eps and delta must be positive")
        self.eps = float(eps)
        self.delta = float(delta)
        self.c = 0.0

    # -- flow ---------------------------------------------------------------

    def f(self, p: ScenePoint) -> float:
        return 0.5 * (p.v ** 2 - p.u ** 2)

    def flow(self, p: ScenePoint, t: float) -> ScenePoint:
        return ScenePoint(math.exp(t) * p.u, math.exp(-t) * p.v)

    def tau(self, p: ScenePoint, level: float) -> float:
        """Crossing time of f(flow(p, t)) = level; exact quadratic solve in
        e^{2t}."""
        x, y = p.u, p.v
        if x == 0.0 and y == 0.0:
            raise LevelNotReachedError("critical point never crosses other levels",
                                       limit_value=0.0)
        if x == 0.0:
            if level <= 0.0:
                raise LevelNotReachedError("stable-axis point only reaches positive levels",
                                           limit_value=0.0)
            return 0.5 * math.log(y * y / (2.0 * level))
        if y == 0.0 and level >= 0.0:
            raise LevelNotReachedError("unstable-axis point only reaches negative levels",
                                       limit_value=0.0)
        m2 = (x * y) ** 2
        u = (-level + math.sqrt(level * level + m2)) / (x * x)
        return 0.5 * math.log(u)

    # -- gauge and region ---------------------------------------------------

    def bottom_y(self, p: ScenePoint) -> float:
        """y-coordinate of the flow-through point on the level f = -eps.

        Uses the conserved product x y; defined off the stable axis and at
        the critical point (where it is 0 by convention).
        """
        if p.u == 0.0 and p.v == 0.0:
            return 0.0
        if p.u == 0.0:
            raise UndefinedDomainError("stable-set point above the bottom level has no gauge")
        m = p.u * p.v
        y2 = -self.eps + math.sqrt(self.eps ** 2 + m * m)
        return math.copysign(math.sqrt(max(y2, 0.0)), p.v) if p.v != 0.0 else 0.0

    def _check_band(self, p: ScenePoint):
        fp = self.f(p)
        if fp < -self.eps - 1e-12 or fp > self.eps + 1e-12:
            raise UndefinedDomainError(
                f"point with f = {fp:.6g} outside the band [-eps, eps]")

    def sigma(self, p: ScenePoint) -> float:
        self._check_band(p)
        yb = abs(self.bottom_y(p))
        return max(0.0, 1.0 - yb / self.delta)

    def g(self, p: ScenePoint) -> float:
        return self.f(p) - 2.0 * self.eps * self.sigma(p)

    def in_Y(self, p: ScenePoint) -> bool:
        fp = self.f(p)
        if fp < -self.eps - 1e-12 or fp > 1e-12:
            return False
        gp = self.g(p)
        return self.c - 3.0 * self.eps - 1e-12 <= gp <= self.c - self.eps + 1e-12

    # -- tube retraction data -----------------------------------------------

    def in_E(self, p_bottom: ScenePoint, s: float) -> bool:
        """Membership of a bottom-level point in the open tube E_s (s < 1)."""
        return abs(p_bottom.v) < self.delta * (1.0 - s)

    def in_E_closure(self, p_bottom: ScenePoint, s: float) -> bool:
        return abs(p_bottom.v) <= self.delta * (1.0 - s)

    def tube_retract(self, p_bottom: ScenePoint, u: float) -> ScenePoint:
        """Linear shrink along the branch: y -> y (1 - u), staying on the level."""
        y = p_bottom.v * (1.0 - u)
        x = math.copysign(math.sqrt(y * y + 2.0 * self.eps), p_bottom.u)
        return ScenePoint(x, y)

    # -- collapse map -------------------------------------------------------

    def s_final(self, p: ScenePoint) -> float:
        fp, sig = self.f(p), self.sigma(p)
        gap = 2.0 * self.eps * (1.0 - sig)
        rise = fp - (self.c - self.eps)
        if rise >= gap:
            return 1.0
        if gap == 0.0:
            return 1.0
        # rise < gap; at rise == 0 this is the 0/0-free corner value 0
        return rise / gap

    def f_final(self, p: ScenePoint) -> float:
        fp, sig = self.f(p), self.sigma(p)
        gap = 2.0 * self.eps * (1.0 - sig)
        if fp - (self.c - self.eps) >= gap:
            return fp - gap
        return self.c - self.eps

    def f_s(self, p: ScenePoint, s: float) -> float:
        fp = self.f(p)
        if s <= 0.0:
            return fp
        sf = self.s_final(p)
        ff = self.f_final(p)
        if s >= sf:
            return ff
        lam = s / sf
        return lam * ff + (1.0 - lam) * fp

    def retract_R(self, p: ScenePoint, s: float) -> ScenePoint:
        """Composite collapse map on Y (identity at s = 0)."""
        if not (0.0 <= s <= 1.0):
            raise ValueError("s must lie in [0, 1]")
        if p.u == 0.0 and p.v == 0.0:
            return p
        base = self.flow(p, self.tau(p, self.c - self.eps))
        y_ps = self.tube_retract(base, min(s, self.s_final(p)))
        target = self.f_s(p, s)
        return self.flow(y_ps, self.tau(y_ps, target))

    # -- probes ---------------------------------------------------------------

    def on_stable_set(self, p: ScenePoint) -> bool:
        return p.u == 0.0

    def circle_point(self, radius: float, angle: float) -> ScenePoint:
        """The point (radius cos angle, radius sin angle)."""
        return ScenePoint(radius * math.cos(angle), radius * math.sin(angle))

    def in_U(self, p: ScenePoint, width: float) -> bool:
        """Membership of a bottom-level point in the tube |y| < width."""
        return abs(p.v) < width


class SlitScene:
    """Glued-origin quotient of the half-open polar strip; c = 0."""

    def __init__(self, eps=0.1):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)
        self.c = 0.0

    @staticmethod
    def canonical(rho, theta) -> ScenePoint:
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        if rho == 0.0:
            return ScenePoint(0.0, 0.0)
        return ScenePoint(rho, theta % (2.0 * math.pi))

    def f(self, p: ScenePoint) -> float:
        rho, theta = p.u, p.v
        return -0.5 * rho * rho * math.cos(2.0 * theta)

    def flow(self, p: ScenePoint, t: float) -> ScenePoint:
        rho, theta = p.u, p.v
        x = math.exp(t) * rho * math.cos(theta)
        y = math.exp(-t) * rho * math.sin(theta)
        r = math.hypot(x, y)
        if r == 0.0:
            return ScenePoint(0.0, 0.0)
        return ScenePoint(r, math.atan2(y, x) % (2.0 * math.pi))

    def tau(self, p: ScenePoint, level: float) -> float:
        x = p.u * math.cos(p.v)
        y = p.u * math.sin(p.v)
        return SaddleScene(eps=self.eps).tau(ScenePoint(x, y), level)

    def on_stable_set(self, p: ScenePoint) -> bool:
        return p.u == 0.0 or abs(math.cos(p.v)) == 0.0

    def theta_distance_to_unstable(self, theta: float) -> float:
        """Arc distance to {0, pi} without wrapping across 2 pi <-> 0."""
        return min(abs(theta - 0.0), abs(theta - math.pi))

    def circle_point(self, radius: float, angle: float) -> ScenePoint:
        """The canonical point at (rho, theta) = (radius, angle)."""
        return SlitScene.canonical(radius, angle)

    def in_U(self, p: ScenePoint, width: float) -> bool:
        """Membership in the non-wrapping arcs of half-width width around {0, pi}."""
        return self.theta_distance_to_unstable(p.v) < width


def _slit_grid_masks(scene: SlitScene, sublevel: float, include_unstable: bool,
                     n_rho: int, n_theta: int, rho_max: float):
    """Membership mask over the (rho, theta) grid; row 0 is the glued origin.

    f is evaluated in blocks of rows into the bool mask, so the only grid
    held is the mask itself.
    """
    if n_theta % 2 != 0:
        raise ValueError("n_theta must be even so that theta = pi is a grid column")
    rho = np.linspace(0.0, rho_max, n_rho)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    # the meshgrid's operation order, -0.5 * rho * rho * cos(2 theta): f is bitwise the same
    column = -0.5 * rho * rho
    row = np.cos(2.0 * theta)
    mask = np.empty((n_rho, n_theta), dtype=bool)
    step = max(1, _BLOCK_CELLS // max(n_theta, 1))
    for i in range(0, n_rho, step):
        np.less_equal(column[i:i + step, None] * row, sublevel, out=mask[i:i + step])
    if include_unstable:
        mask[:, 0] = True
        mask[:, n_theta // 2] = True
        mask[0, :] = True          # the critical point itself belongs to the set
    return rho, theta, mask


def connectivity_census(scene: SlitScene, sublevel: float, include_unstable: bool,
                        n_rho: int = 400, n_theta: int = 400, rho_max: float = 3.0):
    """Connected components of a sampled sublevel set on the slit quotient.

    Adjacency is purely combinatorial: radial and angular grid neighbors,
    never wrapping theta across 2 pi <-> 0, and all rho = 0 nodes identified
    to one point.  Returns (component_count, labels, grid): labels is a
    ``CensusRuns`` of maximal runs of equal labels, -1 outside the set and
    components numbered in row-major order of their first in-set cell.  The
    label values have the grid's index dtype: int32 below 2**31 cells,
    int64 above.  grid is (rho, theta, mask).  The census runs at one
    resolution; comparing it with a refined grid is the caller's policy.
    """
    rho, theta, mask = _slit_grid_masks(scene, sublevel, include_unstable,
                                        n_rho, n_theta, rho_max)
    count, labels = _census_runs(mask)
    return count, labels, (rho, theta, mask)


def _census_runs(mask: np.ndarray):
    """Label the components of the grid mask with glued origin row, slit preserved.

    Union-find on row stretches (He, Chao & Suzuki, IEEE TIP 2008): maximal
    runs of in-set cells in a row, never wrapping from theta = 2 pi to 0
    (the slit).  Stretches are numbered in row-major order, those of row 0,
    the glued origin, start as one tree, and each stretch of columns in-set
    in two adjacent rows joins their stretches.  Min-label hooking with
    pointer jumping leaves each component's smallest stretch, holding its
    first in-set cell, as root, so sorted roots number components in
    row-major order of that cell.  The labels are built as runs straight
    from the stretches; two bool grids are the only per-cell scratch.
    """
    itype = np.int32 if mask.size < 2 ** 31 else np.int64
    n_theta = mask.shape[1]
    cut = np.empty_like(mask)
    cut[:, :1] = mask[:, :1]
    np.greater(mask[:, 1:], mask[:, :-1], out=cut[:, 1:])
    starts = np.flatnonzero(cut)
    cut[:, -1:] = mask[:, -1:]
    np.greater(mask[:, :-1], mask[:, 1:], out=cut[:, :-1])
    ends = np.flatnonzero(cut) + 1
    # one edge per stretch of columns in-set in both rows: the rest repeat it
    both = mask[:-1] & mask[1:]
    cut[:-1, :1] = both[:, :1]
    np.greater(both[:, 1:], both[:, :-1], out=cut[:-1, 1:])
    del both
    edge = np.flatnonzero(cut[:-1])
    del cut
    u = (np.searchsorted(starts, edge, "right") - 1).astype(itype)
    v = (np.searchsorted(starts, edge + n_theta, "right") - 1).astype(itype)
    parent = np.arange(starts.size, dtype=itype)
    parent[:np.searchsorted(starts, n_theta)] = 0      # the origin row is one point
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
    roots, inverse = np.unique(parent, return_inverse=True)
    # a -1 gap before each stretch, then the stretch; empty gaps go, equal neighbours merge
    values = np.full(2 * starts.size + 1, -1, dtype=itype)
    values[1::2] = inverse
    lengths = np.diff(np.stack([starts, ends], axis=1).ravel(), prepend=0, append=mask.size)
    keep = lengths > 0
    values, lengths = values[keep], lengths[keep]
    first = np.flatnonzero(np.diff(values, prepend=values[:1] - 1))
    return len(roots), CensusRuns(values[first], np.add.reduceat(lengths, first), mask.size)


def condition4_probe(scene, u_width: float) -> dict:
    """Test whether small neighborhoods of the critical point funnel into a
    given bottom-level neighborhood of the unstable points.

    For the saddle, U is the tube |y| < u_width on the bottom level; for
    the slit quotient, U is the union of non-wrapping arcs of half-width
    u_width around theta in {0, pi} (so the sector theta in (3 pi / 2,
    2 pi) is outside U for u_width < pi / 2).  ``PROBE_SAMPLES`` samples
    on the circle of ``PROBE_RADIUS`` are spread over directions off the
    stable set and flowed to the bottom level; holds is True when they all
    land in U, and the last violating sample is returned as witness
    otherwise.  Each scene supplies its own ``circle_point`` and ``in_U``.
    """
    level = -scene.eps
    if math.isinf(u_width):
        return {"holds": True, "witness": None, "vacuous": True}
    witness = None
    for k in range(PROBE_SAMPLES):
        p = scene.circle_point(PROBE_RADIUS, 2.0 * math.pi * (k + 0.5) / PROBE_SAMPLES)
        if scene.on_stable_set(p):
            continue
        q = scene.flow(p, scene.tau(p, level))
        if not scene.in_U(q, u_width):
            witness = {"sample": p, "landing": q}
    return {"holds": witness is None, "witness": witness, "vacuous": False}
