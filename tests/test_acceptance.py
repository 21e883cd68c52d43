"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every tolerance here is fixed by the package contract; the
runtime budgets are asserted too.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

from quiverflow.quiver import GroupElement, Representation, act
from quiverflow.moment import CentralShift, f_value, moment
from quiverflow.flow import IntegratorConfig, energy_identity_defect
from quiverflow.critical import (
    lojasiewicz_fit,
    morse_index_check,
    negative_slice,
    refine_critical,
    weight_decomposition,
)
from quiverflow.strata import broken_line_experiment, stratum_labels
from quiverflow.presets import (
    A2_ALPHA,
    A2_PAIR_ALPHA,
    a2,
    a2_pair,
    commutator_relation,
    jordan_cycles,
    jordan_one_loop,
    jordan_two_loops,
    scalar_rep,
)
from quiverflow.retract import SaddleScene, SlitScene, condition4_probe, connectivity_census

from conftest import flow_velocity, lone_flow, philox, tau_level

CONFIG_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                          "src", "quiverflow", "configs"))


class Budget:
    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.time() - self.t0
        if exc_type is None:
            print(f"ACCEPTANCE {self.name}: PASS ({self.elapsed:.1f}s / "
                  f"budget {self.seconds:.0f}s)")
            assert self.elapsed < self.seconds, f"{self.name} exceeded its runtime budget"


def fd_gradient(x, alpha, h):
    y0 = x.flatten()
    out = np.empty_like(y0)
    for i in range(y0.size):
        e = np.zeros_like(y0); e[i] = h
        fp = f_value(Representation.unflatten(x.quiver, x.dims, y0 + e), alpha)
        fm = f_value(Representation.unflatten(x.quiver, x.dims, y0 - e), alpha)
        out[i] = (fp - fm) / (2.0 * h)
    return out


def test_01_gradient_consistency():
    with Budget("1 gradient consistency", 10):
        cases = [
            (jordan_one_loop(1), CentralShift((0.7,))),
            (a2(), A2_ALPHA),
            (jordan_two_loops(2), CentralShift((0.5,))),
        ]
        for (q, dims), alpha in cases:
            rng = philox(101)
            for _ in range(100):
                x = Representation.random(q, dims, rng)
                g = -2.0 * flow_velocity(x, alpha).flatten()
                fd = fd_gradient(x, alpha, h=1e-6 * (1.0 + x.norm()))
                denom = np.linalg.norm(fd)
                err = (np.linalg.norm(g - fd) / denom) if denom > 0 \
                    else np.linalg.norm(g)
                assert err < 1e-6


def test_02_energy_identity():
    with Budget("2 energy identity", 60):
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=200.0)
        rng = philox(202)
        q2, d2 = a2()
        qj, dj = jordan_two_loops(2)
        runs = [(q2, d2, A2_ALPHA)] * 30 + [(qj, dj, CentralShift((0.5,)))] * 20
        for q, dims, alpha in runs:
            x0 = Representation.random(q, dims, rng)
            tr = lone_flow(x0, alpha, cfg)
            assert energy_identity_defect(tr) < 1e-6 * (1.0 + tr.fs[0])


def test_03_index_equals_slice_dimension():
    with Budget("3 index = slice dimension", 5):
        q, dims = a2()
        saddle = refine_critical(scalar_rep(q, dims, [0.0]), A2_ALPHA, tol=1e-10)
        fib = negative_slice(saddle, weight_decomposition(saddle))
        rep = morse_index_check(saddle, fib, A2_ALPHA)
        assert (rep.slice_dim, rep.hessian_index, rep.agree) == (2, 2, True)

        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=200.0)
        rng = philox(303)
        minima = 0
        for _ in range(4):
            tr = lone_flow(Representation.random(q, dims, rng), A2_ALPHA, cfg)
            rec = refine_critical(tr.final, A2_ALPHA, tol=1e-10, cfg=cfg)
            if rec.f_crit < 1e-8:
                minima += 1
                fib_m = negative_slice(rec, weight_decomposition(rec))
                rep_m = morse_index_check(rec, fib_m, A2_ALPHA)
                assert (rep_m.slice_dim, rep_m.hessian_index, rep_m.agree) == (0, 0, True)
        assert minima >= 3


def test_04_conservation():
    with Budget("4 conservation", 60):
        q, dims = jordan_two_loops(2)
        alpha = CentralShift((0.5,))
        rel = commutator_relation(q)
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=100.0,
                               grad_stop=1e-13)
        x = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
        starts = [Representation(q, dims, (x, x @ x)),
                  Representation(q, dims, (x, 0.5 * x @ x - 0.3 * x))]
        for rep in starts:
            tr = lone_flow(rep, alpha, cfg).with_monitors(jordan_cycles(q), (rel,))
            for name, vals in tr.monitors.items():
                if name.startswith("cyc:") or name.startswith("rel:"):
                    assert np.max(np.abs(vals - vals[0])) < 1e-8, name


def test_05_equivariance():
    with Budget("5 equivariance", 30):
        q, dims = jordan_two_loops(2)
        alpha = CentralShift((0.5,))
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=200.0)
        rng = philox(505)
        for _ in range(3):
            x = Representation.random(q, dims, rng)
            k = GroupElement.random_unitary(q, dims, rng)
            # moment map equivariance
            h0, h1 = moment(x), moment(act(k, x))
            conj = k.blocks[0] @ h0.blocks[0] @ k.blocks[0].conj().T
            assert np.linalg.norm(h1.blocks[0] - conj) < 1e-8
            # f invariance
            assert abs(f_value(act(k, x), alpha) - f_value(x, alpha)) < 1e-8
            # trace equivariance on a shared time grid
            tr = lone_flow(x, alpha, cfg)
            tr_k = lone_flow(act(k, x), alpha, cfg, replay_steps=list(tr.steps))
            n = min(tr.n_samples, tr_k.n_samples)
            assert max(act(k, tr.point(i)).distance(tr_k.point(i)) for i in range(n)) < 1e-8
            # stratum labels
            lab, lab_k = stratum_labels([x, act(k, x)], alpha, cfg)
            assert lab.matches(lab_k)


def test_06_lojasiewicz_exponents():
    with Budget("6 decay exponents", 30):
        q, dims = a2()
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=200.0)
        tr = lone_flow(scalar_rep(q, dims, [1.0]), A2_ALPHA, cfg)
        theta, _, _ = lojasiewicz_fit(tr, 0.0)
        assert abs(theta - 0.50) < 0.05

        cfg_q = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14, max_time=1e6)
        tr_q = lone_flow(scalar_rep(q, dims, [1.0]), CentralShift((0.0, 0.0)), cfg_q)
        theta_q, _, _ = lojasiewicz_fit(tr_q, 0.0)
        assert abs(theta_q - 0.25) < 0.05


def test_07_level_crossing_contract():
    with Budget("7 level-crossing contract", 30):
        q, dims = a2()
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=200.0)
        rng = philox(707)
        done = 0
        while done < 100:
            x = Representation.random(q, dims, rng)
            f0 = f_value(x, A2_ALPHA)
            if f0 < 1e-3:
                continue
            ell = (0.05 + 0.9 * rng.random()) * f0
            _, y = tau_level(x, A2_ALPHA, ell, cfg)
            assert abs(f_value(y, A2_ALPHA) - ell) < 1e-8 * (1.0 + abs(ell))
            done += 1


def test_08_slit_quotient_reproduction():
    with Budget("8 slit-quotient scene", 30):
        slit = SlitScene(eps=0.1)
        low4, _, _ = connectivity_census(slit, -0.1, True, n_rho=400, n_theta=400)
        high4, _, _ = connectivity_census(slit, 0.1, False, n_rho=400, n_theta=400)
        low8, _, _ = connectivity_census(slit, -0.1, True, n_rho=800, n_theta=800)
        high8, _, _ = connectivity_census(slit, 0.1, False, n_rho=800, n_theta=800)
        assert (low4, high4) == (2, 1)
        assert (low8, high8) == (2, 1)

        probe_slit = condition4_probe(slit, u_width=math.pi / 3.0)
        assert not probe_slit["holds"] and probe_slit["witness"] is not None
        probe_saddle = condition4_probe(SaddleScene(eps=0.1, delta=0.5), u_width=0.5)
        assert probe_saddle["holds"]


def test_09_retract_suite():
    from quiverflow.retract import ScenePoint

    with Budget("9 retraction suite", 30):
        sc = SaddleScene(eps=0.1, delta=0.5)
        rng = philox(909)

        # trichotomy on 10^4 sampled (p, s) pairs on the bottom level
        for _ in range(10_000):
            y = 1.4 * (rng.random() - 0.5)
            s = 0.01 + 0.98 * rng.random()
            branch = 1.0 if rng.random() < 0.5 else -1.0
            p = ScenePoint(branch * math.sqrt(y * y + 0.2), y)
            sig = sc.sigma(p)
            if sig > s:
                assert sc.in_E(p, s)
            elif sig < s - 1e-13:
                assert not sc.in_E_closure(p, s)
            else:
                assert sc.in_E_closure(p, s) and not sc.in_E(p, s)

        # collapse-map identities on sampled funnel points
        pts = []
        while len(pts) < 500:
            p = ScenePoint(2.4 * rng.random() - 1.2, 2.4 * rng.random() - 1.2)
            if -0.1 <= sc.f(p) <= 0.0 and p.u != 0.0 and sc.in_Y(p):
                pts.append(p)
        for p in pts:
            r0 = sc.retract_R(p, 0.0)
            assert math.hypot(r0.u - p.u, r0.v - p.v) < 1e-12
            r1 = sc.retract_R(p, 1.0)
            assert abs(sc.f(r1) - sc.f_final(p)) < 1e-10
            assert abs(sc.f(r1) + 0.1) < 1e-8 or abs(r1.v) < 1e-8


def test_10_broken_line_experiment():
    with Budget("10 broken flow lines", 60):
        q, dims = a2_pair()
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_time=400.0)
        family = lambda s: scalar_rep(q, dims, [0.35, s])
        scales = [0.01 * 2.0 ** (-n) for n in range(16)]
        rep = broken_line_experiment(family, scales, A2_PAIR_ALPHA,
                                     levels=[1.5, 0.5], cfg=cfg, limit_param=0.0)
        assert len(rep.chain) == 3
        assert rep.strictly_decreasing
        for ds in rep.successive_distances:
            assert all(d is not None for d in ds)
            assert all(ds[i + 1] <= ds[i] + 1e-8 for i in range(len(ds) - 1))
            assert ds[-1] < 1e-6


def test_11_determinism_of_bundled_configs(tmp_path):
    with Budget("11 archive determinism", 120):
        configs = [
            ("check", "a2_check.json"),
            ("check", "star_check.json"),
            ("flow", "jordan2_flow.json"),
            ("critical", "a2_critical.json"),
            ("slice", "a2_slice.json"),
            ("strata", "a2_strata.json"),
            ("lines", "a2_lines.json"),
            ("broken", "product_broken.json"),
            ("retract", "slit_retract.json"),
            ("variety", "a3_variety.json"),
        ]
        for sub, name in configs:
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{name}-{tag}"
                res = subprocess.run(
                    [sys.executable, "-m", "quiverflow.cli", sub,
                     "--config", os.path.join(CONFIG_DIR, name),
                     "--out", str(out)],
                    capture_output=True, text=True)
                assert res.returncode == 0, (name, res.stderr)
                outs.append(out)
            tree = {}
            for root in outs:
                snapshot = {}
                for dirpath, _, files in os.walk(root):
                    for fn in files:
                        if fn == "meta.json":        # volatile wall-clock metadata
                            continue
                        path = os.path.join(dirpath, fn)
                        rel = os.path.relpath(path, root)
                        with open(path, "rb") as fh:
                            snapshot[rel] = fh.read()
                tree[root] = snapshot
            assert tree[outs[0]] == tree[outs[1]], f"{name} differs between runs"
