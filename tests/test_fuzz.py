"""Random-topology sweep: the core identities must hold on any quiver."""

import numpy as np

from quiverflow.quiver import GroupElement, Quiver, Representation, act
from quiverflow.moment import CentralShift, f_value, hessian_matrix
from quiverflow.flow import IntegratorConfig, energy_identity_defect
from quiverflow.errors import QuiverFlowError

from conftest import flow_velocity, hessian_fd, lone_flow, philox, tau_level


def random_quiver(rng):
    nv = int(rng.integers(1, 4))
    ne = int(rng.integers(1, 4))
    vertices = [str(i) for i in range(nv)]
    edges = [(f"e{k}", vertices[int(rng.integers(0, nv))],
              vertices[int(rng.integers(0, nv))]) for k in range(ne)]
    q = Quiver.from_lists(vertices, edges)
    dims = tuple(int(rng.integers(1, 3)) for _ in range(nv))
    alpha = CentralShift(tuple(float(a) for a in rng.uniform(-1.0, 1.0, nv)))
    return q, dims, alpha


def fd_grad(x, alpha, h):
    y0 = x.flatten()
    out = np.empty_like(y0)
    for i in range(y0.size):
        e = np.zeros_like(y0); e[i] = h
        out[i] = (f_value(Representation.unflatten(x.quiver, x.dims, y0 + e), alpha)
                  - f_value(Representation.unflatten(x.quiver, x.dims, y0 - e), alpha)) / (2 * h)
    return out


def test_identities_on_random_topologies():
    rng = philox(606)
    cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, max_time=150.0)
    for trial in range(8):
        q, dims, alpha = random_quiver(rng)
        x = Representation.random(q, dims, rng)
        if x.flatten().size == 0:
            continue

        g = -2.0 * flow_velocity(x, alpha).flatten()
        fd = fd_grad(x, alpha, 1e-6 * (1.0 + x.norm()))
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(g - fd) / denom < 1e-5, (trial, q)

        exact = hessian_matrix(x, alpha)
        defect = np.linalg.norm(exact - hessian_fd(x, alpha))
        assert defect < 1e-6 * (1.0 + np.linalg.norm(exact)), (trial, q)

        k = GroupElement.random_unitary(q, dims, rng)
        assert abs(f_value(act(k, x), alpha) - f_value(x, alpha)) < 1e-10 * (1 + f_value(x, alpha))

        tr = lone_flow(x, alpha, cfg)
        assert tr.status in ("converged", "max_time")
        assert np.all(np.diff(tr.fs) <= 1e-9 * (1.0 + np.abs(tr.fs[:-1])))
        assert energy_identity_defect(tr) < 1e-6 * (1.0 + tr.fs[0])

        f0, f_end = tr.fs[0], tr.fs[-1]
        if f0 - f_end > 1e-3:
            ell = f_end + 0.5 * (f0 - f_end)
            try:
                _, y = tau_level(x, alpha, ell, cfg)
                assert abs(f_value(y, alpha) - ell) < 1e-8 * (1.0 + abs(ell))
            except QuiverFlowError:
                pass                    # a level inside a gap can be skipped
