"""Quivers, representation points, and the group / Lie-algebra actions.

Conventions used throughout the package
---------------------------------------
A quiver is a finite directed multigraph with vertex list ``I`` and edge
list ``E``; loops and parallel edges are allowed.  A representation with
dimension vector ``v`` assigns to each edge ``a`` a complex matrix block of
shape ``v[head(a)] x v[tail(a)]``, i.e. the block maps the tail space into
the head space.

The group ``prod_i GL(v_i, C)`` acts by

    (g . x)_a = g_head(a) @ x_a @ inv(g_tail(a))

and its Lie algebra acts infinitesimally by

    rho_x(u)_a = u_head(a) @ x_a - x_a @ u_tail(a).

Real coordinates
----------------
All modules flatten complex block collections to real vectors in one fixed
order: blocks in list order (edge order for representations, vertex order
for Lie-algebra elements), each block column-major, all real parts of a
block followed by all imaginary parts.  The Euclidean inner product of the
flattened vectors then equals ``Re sum_a tr(A_a^dagger B_a)``, which is the
real inner product every formula in this package is written against.

``flatten_blocks`` and ``unflatten_blocks`` are the only place that defines
this order.  They accept leading batch axes, as do the raw block formulas,
so ``moment.moment_tensor`` and the relation Jacobian in ``subvariety``
are each built by one call on the stacked unit basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonComposablePathError,
    NonInvertibleGroupElementError,
    ShapeError,
)

__all__ = [
    "Quiver",
    "Representation",
    "GroupElement",
    "LieAlgebraElement",
    "Relation",
    "CycleWord",
    "act",
    "infinitesimal_action",
    "group_exp",
    "relation_residual",
    "cycle_trace",
]

# Condition-number bound above which a group block counts as singular.
DEFAULT_COND_BOUND = 1e12


def _freeze(arr):
    """Return a read-only complex ndarray copy; all value types store these."""
    out = np.array(arr, dtype=complex, order="C")
    if not np.all(np.isfinite(out)):
        raise ShapeError("block contains non-finite entries")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Quiver:
    """Directed multigraph with dense, stable vertex and edge indices."""

    vertices: tuple
    edges: tuple          # edge names, same length as head/tail
    head: tuple           # edge index -> vertex index
    tail: tuple

    def __post_init__(self):
        n, m = len(self.vertices), len(self.edges)
        if len(self.head) != m or len(self.tail) != m:
            raise ShapeError("head/tail must assign a vertex to every edge")
        for a in range(m):
            if not (0 <= self.head[a] < n and 0 <= self.tail[a] < n):
                raise ShapeError(f"edge {self.edges[a]!r} references an unknown vertex")

    @staticmethod
    def from_lists(vertices, edge_specs):
        """Build from vertex names and (name, tail_name, head_name) triples."""
        vertices = tuple(str(v) for v in vertices)
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ShapeError("duplicate vertex names")
        names, heads, tails = [], [], []
        for name, t, h in edge_specs:
            if t not in index or h not in index:
                raise ShapeError(f"edge {name!r} references an unknown vertex")
            names.append(str(name))
            tails.append(index[t])
            heads.append(index[h])
        return Quiver(vertices, tuple(names), tuple(heads), tuple(tails))

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    def edge_index(self, name):
        return self.edges.index(name)

    def block_shape(self, a, dims):
        return (dims[self.head[a]], dims[self.tail[a]])

    def block_shapes(self, dims):
        return [self.block_shape(a, dims) for a in range(self.n_edges)]

    def rep_real_dim(self, dims):
        """Total real dimension 2 * sum_a v_head(a) * v_tail(a)."""
        return 2 * sum(dims[self.head[a]] * dims[self.tail[a]] for a in range(self.n_edges))

    def group_real_dim(self, dims):
        return 2 * sum(d * d for d in dims)

    def check_dims(self, dims):
        dims = tuple(int(d) for d in dims)
        if len(dims) != self.n_vertices:
            raise ShapeError("dimension vector length does not match vertex count")
        if any(d < 0 for d in dims):
            raise ShapeError("dimension vector entries must be nonnegative")
        return dims

    def check_block(self, a, dims, block):
        """The read-only complex block of edge a; raises ShapeError unless it
        is finite with shape v[head(a)] x v[tail(a)]."""
        b = _freeze(block)
        if b.shape != self.block_shape(a, dims):
            raise ShapeError(f"block for edge {self.edges[a]!r} has shape {b.shape}, "
                             f"expected {self.block_shape(a, dims)}")
        return b

    def check_vertex_blocks(self, dims, blocks, what):
        """The read-only complex blocks of a per-vertex value named ``what``; raises
        ShapeError unless there is exactly one finite d_i x d_i block per vertex."""
        out = tuple(map(_freeze, blocks))
        if len(out) != len(dims):
            raise ShapeError(f"{what}: {len(out)} blocks for {len(dims)} vertices")
        for i, (b, d) in enumerate(zip(out, dims)):
            if b.shape != (d, d):
                raise ShapeError(f"{what} block {i} has shape {b.shape}, expected {(d, d)}")
        return out


@dataclass(frozen=True)
class Representation:
    """A point of the representation space: one complex block per edge."""

    quiver: Quiver
    dims: tuple
    blocks: tuple = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", self.quiver.check_dims(self.dims))
        blocks = tuple(self.blocks)
        if len(blocks) != self.quiver.n_edges:
            raise ShapeError("one block per edge required")
        object.__setattr__(self, "blocks", tuple(self.quiver.check_block(a, self.dims, b)
                                                 for a, b in enumerate(blocks)))

    @staticmethod
    def zero(quiver, dims):
        dims = quiver.check_dims(dims)
        return Representation(
            quiver, dims,
            tuple(np.zeros(quiver.block_shape(a, dims), dtype=complex)
                  for a in range(quiver.n_edges)),
        )

    @staticmethod
    def random(quiver, dims, rng, scale=1.0):
        dims = quiver.check_dims(dims)
        blocks = []
        for a in range(quiver.n_edges):
            shape = quiver.block_shape(a, dims)
            blocks.append(scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
        return Representation(quiver, dims, tuple(blocks))

    def flatten(self):
        return flatten_blocks(self.blocks)

    @staticmethod
    def unflatten(quiver, dims, vec):
        dims = quiver.check_dims(dims)
        return Representation(quiver, dims, unflatten_blocks(vec, quiver.block_shapes(dims)))

    def replace_blocks(self, blocks):
        return Representation(self.quiver, self.dims, tuple(blocks))

    def norm(self):
        return float(np.linalg.norm(self.flatten()))

    def add_scaled(self, other, scale):
        """self + scale * other, blockwise (used for tangent steps)."""
        return self.replace_blocks(b + scale * o for b, o in zip(self.blocks, other.blocks))

    def distance(self, other):
        return float(np.linalg.norm(self.flatten() - other.flatten()))


def flatten_blocks(blocks):
    """Flatten blocks (*batch, m, n) to reals (*batch, N): list order, column-major, Re then Im."""
    parts = []
    for b in blocks:
        v = b.swapaxes(-1, -2).reshape(b.shape[:-2] + (b.shape[-2] * b.shape[-1],))
        parts += (v.real, v.imag)
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts, axis=-1)


def unflatten_blocks(vec, shapes):
    """Inverse of ``flatten_blocks``; leading axes of ``vec`` become batch axes."""
    vec = np.asarray(vec, dtype=float)
    batch = vec.shape[:-1]
    blocks, pos = [], 0
    for (m, n) in shapes:
        k = m * n
        z = vec[..., pos:pos + k] + 1j * vec[..., pos + k:pos + 2 * k]
        blocks.append(z.reshape(batch + (n, m)).swapaxes(-1, -2))
        pos += 2 * k
    if pos != vec.shape[-1]:
        raise ShapeError("flattened vector length does not match block shapes")
    return tuple(blocks)


@dataclass(frozen=True)
class GroupElement:
    """One invertible complex matrix per vertex (condition number <= ``DEFAULT_COND_BOUND``)."""

    quiver: Quiver
    dims: tuple
    blocks: tuple = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", self.quiver.check_dims(self.dims))
        blocks = self.quiver.check_vertex_blocks(self.dims, self.blocks, "group element")
        for i, b in enumerate(blocks):
            if b.size:
                c = np.linalg.cond(b)
                if not np.isfinite(c) or c > DEFAULT_COND_BOUND:
                    raise NonInvertibleGroupElementError(
                        f"group block at vertex {self.quiver.vertices[i]!r} has condition "
                        f"number {c:.3e} above bound {DEFAULT_COND_BOUND:.3e}"
                    )
        object.__setattr__(self, "blocks", blocks)

    @staticmethod
    def identity(quiver, dims):
        dims = quiver.check_dims(dims)
        return GroupElement(quiver, dims, tuple(np.eye(d, dtype=complex) for d in dims))

    @staticmethod
    def random_unitary(quiver, dims, rng):
        """Haar-ish unitary per vertex via QR of a complex Gaussian."""
        dims = quiver.check_dims(dims)
        blocks = []
        for d in dims:
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, r = np.linalg.qr(z)
            q = q @ np.diag(np.diag(r) / np.abs(np.diag(r))) if d > 0 else q
            blocks.append(q)
        return GroupElement(quiver, dims, tuple(blocks))

    def compose(self, other):
        """Pointwise product self * other."""
        return GroupElement(self.quiver, self.dims,
                            tuple(a @ b for a, b in zip(self.blocks, other.blocks)))


@dataclass(frozen=True)
class LieAlgebraElement:
    """One complex matrix per vertex.  Hermitian values, such as moment-map values,
    are ``moment.HermitianCollection``s, which the actions below take as well."""

    quiver: Quiver
    dims: tuple
    blocks: tuple = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", self.quiver.check_dims(self.dims))
        object.__setattr__(self, "blocks", self.quiver.check_vertex_blocks(
            self.dims, self.blocks, "algebra element"))

    @staticmethod
    def random(quiver, dims, rng):
        dims = quiver.check_dims(dims)
        return LieAlgebraElement(quiver, dims, tuple(
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims))

    def flatten(self):
        return flatten_blocks(self.blocks)


def _validate_path(quiver, path):
    """Check composability of a path (edges applied first-to-last); return
    (source_vertex, target_vertex)."""
    if len(path) == 0:
        raise NonComposablePathError("empty path")
    for a in path:
        if not (0 <= a < quiver.n_edges):
            raise NonComposablePathError(f"unknown edge index {a}")
    for prev, nxt in zip(path, path[1:]):
        if quiver.tail[nxt] != quiver.head[prev]:
            raise NonComposablePathError(
                f"edge {quiver.edges[nxt]!r} does not compose with {quiver.edges[prev]!r}"
            )
    return quiver.tail[path[0]], quiver.head[path[-1]]


@dataclass(frozen=True)
class Relation:
    """Linear combination of composable paths sharing one source and target.

    ``terms`` is a tuple of (coefficient, path) with path a tuple of edge
    indices applied first-to-last (so the matrix of a path [a, b] is
    x_b @ x_a).
    """

    quiver: Quiver
    terms: tuple
    name: str = ""

    def __post_init__(self):
        if not self.terms:
            raise NonComposablePathError("relation needs at least one term")
        terms = tuple((complex(c), tuple(int(a) for a in p)) for c, p in self.terms)
        if not np.all(np.isfinite([c for c, _ in terms])):
            raise ShapeError("relation coefficients must be finite")
        endpoints = {_validate_path(self.quiver, p) for _, p in terms}
        if len(endpoints) != 1:
            raise NonComposablePathError("all paths in a relation must share source and target")
        object.__setattr__(self, "terms", terms)

    def evaluate(self, blocks):
        """Matrix value sum_k coef_k * (path product) at edge blocks, which may
        carry leading batch axes."""
        return sum(coef * path_product(blocks, path) for coef, path in self.terms)


@dataclass(frozen=True)
class CycleWord:
    """A closed composable path; its trace is a conserved flow monitor."""

    quiver: Quiver
    path: tuple
    name: str = ""

    def __post_init__(self):
        path = tuple(int(a) for a in self.path)
        s, t = _validate_path(self.quiver, path)
        if s != t:
            raise NonComposablePathError("cycle word must be closed (source = target)")
        object.__setattr__(self, "path", path)


# ---------------------------------------------------------------------------
# operations


def _check_acts_on(u, x: Representation, what):
    """Raise ShapeError unless the per-vertex value u has x's quiver and dims."""
    if u.quiver != x.quiver:
        raise ShapeError(f"{what} and representation live on different quivers")
    if tuple(u.dims) != x.dims:
        raise ShapeError(f"{what} has dims {tuple(u.dims)}, the representation {x.dims}")


def act(g: GroupElement, x: Representation) -> Representation:
    """Group action: block a maps to g_head(a) x_a inv(g_tail(a))."""
    _check_acts_on(g, x, "group element")
    inv = [np.linalg.inv(b) if b.size else b for b in g.blocks]
    q = x.quiver
    blocks = [g.blocks[q.head[a]] @ x.blocks[a] @ inv[q.tail[a]] for a in range(q.n_edges)]
    return x.replace_blocks(blocks)


def infinitesimal_action(u, x: Representation) -> Representation:
    """Derivative of the action at the identity: u_head x_a - x_a u_tail, for u a
    ``LieAlgebraElement`` or a ``moment.HermitianCollection``."""
    _check_acts_on(u, x, "algebra element")
    q = x.quiver
    return x.replace_blocks(u.blocks[h] @ xa - xa @ u.blocks[t]
                            for xa, h, t in zip(x.blocks, q.head, q.tail))


def _expm(a):
    """exp(a) by scaling and squaring: a / 2^s has 1-norm below 1, where the
    degree-18 Taylor series (Horner form) is exact to rounding; then s squarings.
    If a @ a == 0 exactly, every product stays exact and the result is I + a."""
    s = max(0, math.frexp(float(np.max(np.sum(np.abs(a), axis=0))))[1])
    m, eye = a / 2.0 ** s, np.eye(len(a), dtype=a.dtype)
    out = eye
    for k in range(18, 0, -1):
        out = eye + (m @ out) / k
    for _ in range(s):
        out = out @ out
    return out


def group_exp(u, t=1.0) -> GroupElement:
    """Matrix exponential exp(t u), one block per vertex, for u a
    ``LieAlgebraElement`` or a ``moment.HermitianCollection``."""
    blocks = [_expm(t * b) if b.size else b.copy() for b in u.blocks]
    return GroupElement(u.quiver, u.dims, tuple(blocks))


def path_product(blocks, path):
    """Matrix of a path (edges applied first to last, so [a, b] gives x_b @ x_a)
    on edge blocks, which may carry leading batch axes."""
    m = blocks[path[0]]
    for a in path[1:]:
        m = blocks[a] @ m
    return m


def relation_residual(x: Representation, r: Relation) -> float:
    """Frobenius norm of the relation evaluated at x."""
    return float(np.linalg.norm(r.evaluate(x.blocks)))


def cycle_trace(x: Representation, w: CycleWord) -> complex:
    """Trace of the block product along a closed path; conserved by the flow
    and invariant under the group action (conjugation)."""
    return complex(np.trace(path_product(x.blocks, w.path)))
