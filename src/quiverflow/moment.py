"""Moment map, central shift, the energy f, its gradient, and Hessians.

Sign and storage conventions
----------------------------
The moment-map value at a representation x is stored as one Hermitian
matrix per vertex,

    H_i(x) = 1/2 ( sum_{head(a)=i} x_a x_a^dagger - sum_{tail(a)=i} x_a^dagger x_a ),

i.e. the dual compact Lie algebra is identified with Hermitian block
collections.  Storing the Hermitian representative keeps every formula
real-symmetric; the anti-Hermitian element of the compact algebra that it
represents is i*H.

With a central shift alpha (a real scalar per vertex) the energy is

    f(x) = sum_i || H_i(x) - alpha_i * Id ||_F^2 ,

whose gradient with respect to the real inner product Re<.,.> is

    grad f(x) = 2 rho_x(H - alpha).

The integrated vector field is

    velocity(x) = -rho_x(H - alpha) = -(1/2) grad f(x),

so along a trajectory df/dt = -2 ||dx/dt||^2.  This field is the natural
one-parameter complex-group motion dg/dt g^{-1} = -(H - alpha); all
statements invariant under constant time reparameterization are unaffected
by the 1/2.  The overall sign is pinned by the finite-difference gradient
consistency test in the suite.

On flat real states the moment map is a quadratic form, y^T T_k y per real
coordinate of H (``moment_tensor``).  ``VelocityKernel`` is the one
implementation of f, the flow field and the Hessian, as closed forms in T;
``f_value``, ``hessian_matrix`` and the inner loops call it; its exact
Hessian is the one ``refine_critical`` and ``morse_index_check`` use (the
archive's ``hessian_spectrum``), and the tests hold it to a
finite-difference oracle.  The same contraction T y spans the orbit
tangent: for Hermitian A, rho_x(A) = 2 sum_k A_k T_k y, so im rho_x is
span{T_k y} plus i times it (``orbit_basis``; ``critical`` reads its
criticality residual and slice off it).  ``beta_of`` gives Hermitian
blocks to records and checks; ``moment_map_equation_check`` checks the
moment map's defining equation by a finite difference of values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ShapeError
from .quiver import (
    LieAlgebraElement,
    Quiver,
    Representation,
    flatten_blocks,
    infinitesimal_action,
    unflatten_blocks,
)

__all__ = [
    "HermitianCollection",
    "CentralShift",
    "moment",
    "beta_of",
    "f_value",
    "mu_pairing",
    "moment_map_equation_check",
    "hessian_matrix",
]


@dataclass(frozen=True)
class HermitianCollection:
    """One Hermitian matrix per vertex, with the Frobenius inner product."""

    quiver: Quiver
    dims: tuple
    blocks: tuple = field(repr=False)

    def __post_init__(self):
        blocks = []
        for i, b in enumerate(self.quiver.check_vertex_blocks(
                self.dims, self.blocks, "Hermitian collection")):
            defect = np.linalg.norm(b - b.conj().T)
            if defect > 1e-12 * (1.0 + np.linalg.norm(b)):
                raise ShapeError(f"block {i} is not Hermitian (defect {defect:.3e})")
            b = 0.5 * (b + b.conj().T)        # kill roundoff skew
            b.setflags(write=False)
            blocks.append(b)
        object.__setattr__(self, "blocks", tuple(blocks))

    def sub_scalars(self, scalars):
        """Subtract a real scalar multiple of the identity per vertex."""
        return HermitianCollection(
            self.quiver, self.dims,
            tuple(b - s * np.eye(b.shape[0]) for b, s in zip(self.blocks, scalars)),
        )

    def norm_sq(self):
        return float(sum(np.linalg.norm(b) ** 2 for b in self.blocks))

    def spectra(self):
        """Ascending real eigenvalues per vertex."""
        return tuple(tuple(np.linalg.eigvalsh(b)) if b.size else ()
                     for b in self.blocks)


@dataclass(frozen=True)
class CentralShift:
    """Real scalar per vertex (a central element of the compact algebra dual)."""

    alpha: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.alpha)
        if not all(np.isfinite(vals)):
            raise ShapeError("central shift entries must be finite")
        object.__setattr__(self, "alpha", vals)

    @staticmethod
    def zero(n):
        return CentralShift((0.0,) * n)


def _adjoint(a):
    return a.conj().swapaxes(-1, -2)


def _moment_form(quiver, xs, ys, start):
    """start_i + 1/2 (sum_{head(a)=i} x_a y_a^dagger - sum_{tail(a)=i} x_a^dagger y_a).

    H(x) is form(x, x) from zero; the form is real-bilinear, which
    ``moment_tensor`` polarises.  Edge blocks may carry leading batch axes.
    """
    out = list(start)
    for xa, ya, h, t in zip(xs, ys, quiver.head, quiver.tail):
        out[h] = out[h] + 0.5 * (xa @ _adjoint(ya))
        out[t] = out[t] - 0.5 * (_adjoint(xa) @ ya)
    return out


def moment(x: Representation) -> HermitianCollection:
    """Hermitian moment-map value per vertex (see module docstring)."""
    blocks = _moment_form(x.quiver, x.blocks, x.blocks,
                          [np.zeros((d, d), dtype=complex) for d in x.dims])
    return HermitianCollection(x.quiver, x.dims, tuple(blocks))


def beta_of(x: Representation, alpha: CentralShift) -> HermitianCollection:
    """Shifted moment value H(x) - alpha, the residual that drives the flow."""
    return moment(x).sub_scalars(alpha.alpha)


# moment tensor entries (32 MB): above every preset and bundled config
MAX_TENSOR_ENTRIES = 1 << 22


def check_tensor_size(quiver, dims):
    """Raise ShapeError when the moment tensor of (quiver, dims) has more than
    ``MAX_TENSOR_ENTRIES`` entries."""
    n, m = quiver.rep_real_dim(dims), quiver.group_real_dim(dims)
    if m * n * n > MAX_TENSOR_ENTRIES:
        raise ShapeError(f"dims {tuple(dims)} need a moment tensor of {m} x {n} x {n} = "
                         f"{m * n * n} entries, above the limit of {MAX_TENSOR_ENTRIES}")


@lru_cache(maxsize=16)
def moment_tensor(quiver, dims):
    """Read-only symmetric T, shape (m, n, n), with flatten_blocks(H)[k] = y^T T_k y
    for the flat state y; ``_moment_form`` polarised on the unit basis."""
    check_tensor_size(quiver, dims)
    n = quiver.rep_real_dim(dims)
    e = unflatten_blocks(np.eye(n), quiver.block_shapes(dims))
    form = _moment_form(quiver, [b[:, None] for b in e], [b[None] for b in e],
                        [np.zeros((n, n, d, d), dtype=complex) for d in dims])
    t = flatten_blocks(form)
    t = np.ascontiguousarray((0.5 * (t + t.swapaxes(0, 1))).transpose(2, 0, 1))
    t.setflags(write=False)
    return t


# Singular values of [T y, J T y] below this fraction of the largest count as zero.
ORBIT_RANK_TOL = 1e-9


def orbit_basis(x: Representation) -> np.ndarray:
    """Orthonormal real basis of im rho_x = span{T_k y} + J span{T_k y}: the left
    singular vectors of [T y, J T y] whose singular values exceed
    ``ORBIT_RANK_TOL`` times the largest.

    J, multiplication by i, is a signed permutation of the flat layout: it
    sends each block's (Re, Im) halves to (-Im, Re).
    """
    ty = (moment_tensor(x.quiver, x.dims) @ x.flatten()).T
    jty, pos = np.empty_like(ty), 0
    for m, n in x.quiver.block_shapes(x.dims):
        k = m * n
        jty[pos:pos + k], jty[pos + k:pos + 2 * k] = -ty[pos + k:pos + 2 * k], ty[pos:pos + k]
        pos += 2 * k
    u, s, _ = np.linalg.svd(np.concatenate([ty, jty], axis=1), full_matrices=False)
    return u[:, :int(np.sum(s > ORBIT_RANK_TOL * np.max(s, initial=0.0)))]


class VelocityKernel:
    """f, the flow field and the Hessian on flat real vectors (batch axes leading).

    beta = y^T T y - a (a the flat shift), f = sum_k beta_k^2, velocity
    -2 sum_k beta_k T_k y, Hessian 4 sum_k (2 (T_k y)(T_k y)^T + beta_k T_k).
    Each state is contracted on its own (a matmul whose slices are one
    state), so a row's bits are a lone call's.
    """

    def __init__(self, quiver, dims, alpha: CentralShift):
        dims = tuple(dims)
        self.tensor = moment_tensor(quiver, dims)
        m, n, _ = self.tensor.shape
        self._t2 = self.tensor.reshape(m * n, n)
        self._shift = flatten_blocks([a * np.eye(d) for d, a in zip(dims, alpha.alpha)])

    def _beta(self, y):
        y = np.asarray(y, dtype=float)
        ty = (self._t2 @ y[..., :, None]).reshape(y.shape[:-1] + self.tensor.shape[:2])
        return np.vecdot(ty, y[..., None, :]) - self._shift, ty

    def velocity_flat(self, y):
        """Velocity field -rho_x(H - alpha) at the flat state y (batch-aware), flattened."""
        return _velocity(*self._beta(y))

    def f_flat(self, y):
        """Energy f at the flat state y: a float, or an array for a stack of states.

        Where T vanishes (H = 0, e.g. a lone loop) beta is exactly -a, so f
        is exactly constant.  The squares are added by ``np.add.reduce`` per
        row, not by a BLAS dot, whose fused multiply-adds would move f by an
        ulp where beta is exact, as at the origin.
        """
        return _energy(self._beta(y)[0], y)

    def velocity_f_flat(self, y):
        """``velocity_flat(y)`` and ``f_flat(y)`` from one contraction, bitwise."""
        beta, ty = self._beta(y)
        return _velocity(beta, ty), _energy(beta, y)

    def hessian(self, y):
        """Hessian of f at the flat state y, a symmetric (n, n) matrix."""
        beta, ty = self._beta(y)
        m, n, _ = self.tensor.shape
        out = 4.0 * (2.0 * (ty.T @ ty) + (beta @ self.tensor.reshape(m, n * n)).reshape(n, n))
        return 0.5 * (out + out.T)


def _velocity(beta, ty):
    return -2.0 * (beta[..., None, :] @ ty)[..., 0, :]


def _energy(beta, y):
    f = np.add.reduce(beta * beta, axis=-1)
    return float(f) if np.ndim(y) == 1 else f


def f_value(x: Representation, alpha: CentralShift) -> float:
    """Energy f(x) = sum_i ||H_i(x) - alpha_i Id||_F^2 >= 0."""
    return VelocityKernel(x.quiver, x.dims, alpha).f_flat(x.flatten())


def _hermitian_part(u: LieAlgebraElement):
    return [0.5 * (b + b.conj().T) for b in u.blocks]


def mu_pairing(x: Representation, u: LieAlgebraElement) -> float:
    """Pairing of the moment value with a compact-algebra direction.

    The direction i*A (A Hermitian) pairs with the stored H as
    -sum_i tr(H_i A_i); a general u contributes through its Hermitian part.
    """
    h = moment(x)
    a_blocks = _hermitian_part(u)
    return -float(np.real(sum(np.trace(hb @ ab) for hb, ab in zip(h.blocks, a_blocks))))


def moment_map_equation_check(x: Representation, tangent: Representation,
                              u: LieAlgebraElement, step: float = 1e-5) -> float:
    """Defect of the defining equation d(mu.u)_x[X] = omega(rho_x(u), X).

    The left side is a central finite difference of the pairing along the
    tangent X; the right side uses omega = Im<.,.> for the direction i*A,
    which evaluates to -Re<rho_x(A), X>.  Returns the absolute defect.
    """
    a = HermitianCollection(x.quiver, x.dims, tuple(_hermitian_part(u)))
    xp = x.add_scaled(tangent, step)
    xm = x.add_scaled(tangent, -step)
    lhs = (mu_pairing(xp, a) - mu_pairing(xm, a)) / (2.0 * step)
    rho_a = infinitesimal_action(a, x)
    rhs = -float(np.dot(rho_a.flatten(), tangent.flatten()))
    return abs(lhs - rhs)


def hessian_matrix(x: Representation, alpha: CentralShift) -> np.ndarray:
    """Analytic Hessian of f (the Jacobian of grad f), as a real matrix.

    Used as the Gauss-Newton Jacobian in critical-point refinement and by
    the Morse check; the tests hold it to a finite-difference oracle.
    """
    return VelocityKernel(x.quiver, x.dims, alpha).hessian(x.flatten())
