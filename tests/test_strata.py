from dataclasses import replace

import numpy as np
import pytest

from quiverflow.quiver import GroupElement, Representation, act
from quiverflow.critical import (
    negative_slice,
    refine_critical,
    unstable_sweep,
    weight_decomposition,
)
from quiverflow.strata import (
    broken_line_experiment,
    flow_lines,
    search_critical_levels,
    stratum_labels,
)
from quiverflow.presets import A2_PAIR_ALPHA, a2_pair, scalar_rep

from conftest import lone_flow, philox


def test_stratum_label_minimum(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    lab = stratum_labels([scalar_rep(q, dims, [np.sqrt(2.0)])], alpha, tight_cfg)[0]
    assert lab.status == "converged"
    assert lab.f_limit == pytest.approx(0.0, abs=1e-9)
    assert all(abs(v) < 1e-9 for s in lab.spectra for v in s)


def test_stratum_label_perturbed_origin_falls_to_minimum(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    lab = stratum_labels([scalar_rep(q, dims, [1e-3])], alpha, tight_cfg)[0]
    assert lab.f_limit == pytest.approx(0.0, abs=1e-9)


def test_stratum_label_exact_origin(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    lab = stratum_labels([scalar_rep(q, dims, [0.0])], alpha, tight_cfg)[0]
    assert lab.f_limit == pytest.approx(2.0, abs=1e-12)
    assert lab.spectra[0] == pytest.approx((1.0,), abs=1e-12)
    assert lab.spectra[1] == pytest.approx((-1.0,), abs=1e-12)


def test_stratum_labels_are_action_invariant(tight_cfg):
    q, dims = a2_pair()
    rng = philox(31)
    x0 = Representation.random(q, dims, rng, scale=0.8)
    lab = stratum_labels([x0], A2_PAIR_ALPHA, tight_cfg)[0]
    for _ in range(3):
        k = GroupElement.random_unitary(q, dims, rng)
        lab_k = stratum_labels([act(k, x0)], A2_PAIR_ALPHA, tight_cfg)[0]
        assert lab.matches(lab_k)
    assert lab == stratum_labels([x0], A2_PAIR_ALPHA, tight_cfg)[0]


def test_sample_unstable_level(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    saddle = refine_critical(scalar_rep(q, dims, [0.0]), alpha, tol=1e-10)
    fib = negative_slice(saddle, weight_decomposition(saddle))
    assert unstable_sweep(saddle, fib.basis, alpha, eps=2.0, n=0, cfg=tight_cfg) == []

    samples = unstable_sweep(saddle, fib.basis, alpha, eps=2.0, n=8, cfg=tight_cfg)
    assert len(samples) == 8
    for s in samples:
        assert s["error"] is None
        c = s["trace"].final.blocks[0][0, 0]
        assert abs(abs(c) ** 2 - 2.0) < 1e-6           # the level-0 circle
    # seed phases are preserved: the endpoint angle equals the seed angle
    for k, s in enumerate(samples):
        seed_c = s["seed"].blocks[0][0, 0]
        end_c = s["trace"].final.blocks[0][0, 0]
        d = np.angle(end_c) - np.angle(seed_c)
        assert min(abs(d), abs(abs(d) - 2 * np.pi)) < 1e-8


def test_unstable_membership_by_backward_flow(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    saddle = refine_critical(scalar_rep(q, dims, [0.0]), alpha, tol=1e-10)
    fib = negative_slice(saddle, weight_decomposition(saddle))
    samples = unstable_sweep(saddle, fib.basis, alpha, eps=1.0, n=4, cfg=tight_cfg)

    for s in samples:
        back = lone_flow(s["trace"].final, alpha, tight_cfg, direction=-1)
        assert back.status == "converged"
        assert back.final.distance(saddle.x) < 1e-4 * (1.0 + saddle.x.norm())


def test_flow_line_classification(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    inner = scalar_rep(q, dims, [np.sqrt(2.0 - np.sqrt(2.0))])
    fl = flow_lines([inner], 1.0, alpha, tight_cfg)[0]
    assert fl.upper is not None
    assert fl.upper.f_crit == pytest.approx(2.0, abs=1e-9)
    assert fl.lower.f_crit == pytest.approx(0.0, abs=1e-9)
    # phase preservation identifies the specific minimum point
    assert abs(np.angle(fl.lower.x.blocks[0][0, 0])) < 1e-8

    outer = scalar_rep(q, dims, [np.sqrt(2.0 + np.sqrt(2.0))])
    fl2 = flow_lines([outer], 1.0, alpha, tight_cfg)[0]
    assert fl2.upper is None
    assert fl2.backward_status == "blow_up"
    assert fl2.lower.f_crit == pytest.approx(0.0, abs=1e-9)

    # a failed anchor gets its error in place of a line
    assert isinstance(flow_lines([scalar_rep(q, dims, [0.0])], 2.0, alpha, tight_cfg)[0],
                      ValueError)
    assert isinstance(flow_lines([inner], 0.5, alpha, tight_cfg)[0], ValueError)  # wrong level


def test_broken_two_level_family_is_single_line(a2_model, tight_cfg):
    q, dims, alpha = a2_model
    family = lambda s: scalar_rep(q, dims, [0.3 + s])
    rep = broken_line_experiment(family, [0.1 * 2.0 ** (-n) for n in range(6)],
                                 alpha, levels=[1.0], cfg=tight_cfg,
                                 limit_param=0.0)
    assert rep.single_line
    assert len(rep.chain) == 2
    assert rep.strictly_decreasing


def test_broken_three_level_chain(tight_cfg):
    q, dims = a2_pair()
    cfg = replace(tight_cfg, max_time=400.0)
    family = lambda s: scalar_rep(q, dims, [0.35, s])
    scales = [0.01 * 2.0 ** (-n) for n in range(16)]
    rep = broken_line_experiment(family, scales, A2_PAIR_ALPHA,
                                 levels=[1.5, 0.5], cfg=cfg, limit_param=0.0)
    assert not rep.single_line
    assert len(rep.chain) == 3
    assert rep.strictly_decreasing
    assert rep.chain_values[0] == pytest.approx(2.0, abs=1e-9)
    assert rep.chain_values[1] == pytest.approx(1.0, abs=1e-9)
    assert rep.chain_values[2] == pytest.approx(0.0, abs=1e-9)
    for ds in rep.successive_distances:
        assert all(d is not None for d in ds)
        # monotone to the floor, converged below 1e-6 by the final member
        assert all(ds[i + 1] <= ds[i] + 1e-8 for i in range(len(ds) - 1))
        assert ds[-1] < 1e-6
    # the final member's checkpoints connect consecutive chain values
    m0, m1 = rep.checkpoint_membership
    assert m0["backward_value"] == pytest.approx(2.0, abs=1e-6)
    assert m0["forward_value"] == pytest.approx(0.0, abs=1e-6)
    assert m1["forward_value"] == pytest.approx(0.0, abs=1e-6)
    # lower semicontinuity: limiting lower values never undershoot the bottom
    assert m0["forward_value"] >= -1e-6 and m1["forward_value"] >= -1e-6


def test_search_critical_levels_exploratory(tight_cfg):
    q, dims = a2_pair()
    rng = philox(8)
    found = search_critical_levels(q, dims, A2_PAIR_ALPHA, tight_cfg, rng, n_seeds=6)
    assert found["exploratory"]
    # random seeds always reach the bottom; the origin seed sits at the top
    vals = found["values"]
    assert any(abs(v) < 1e-6 for v in vals)
    assert any(abs(v - 2.0) < 1e-6 for v in vals)


def test_broken_dwell_fractions_grow(tight_cfg):
    q, dims = a2_pair()
    cfg = replace(tight_cfg, max_time=400.0)
    family = lambda s: scalar_rep(q, dims, [0.35, s])
    rep = broken_line_experiment(family, [0.01 * 2.0 ** (-n) for n in range(6)],
                                 A2_PAIR_ALPHA, levels=[1.5, 0.5], cfg=cfg,
                                 limit_param=0.0)
    assert len(rep.dwell_fractions) == 1
    fr = rep.dwell_fractions[0]
    # time share near the intermediate value grows as the family degenerates
    assert all(fr[i + 1] > fr[i] for i in range(len(fr) - 1))
