import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from quiverflow.errors import LevelNotReachedError, UndefinedDomainError
from quiverflow.retract import (
    PROBE_SAMPLES,
    SaddleScene,
    ScenePoint,
    SlitScene,
    _census_runs,
    _slit_grid_masks,
    condition4_probe,
    connectivity_census,
)

from conftest import cell_census, index_dtype, label_runs, philox

EPS, DELTA = 0.1, 0.5


@pytest.fixture
def saddle():
    return SaddleScene(eps=EPS, delta=DELTA)


@pytest.fixture
def slit():
    return SlitScene(eps=EPS)


def bottom_point(scene, y, branch=+1):
    """Point of the bottom level with the given transverse coordinate."""
    return ScenePoint(branch * math.sqrt(y * y + 2.0 * scene.eps), y)


def sample_Y(scene, n, rng):
    """Rejection-sample the funnel region of the saddle scene."""
    out = []
    while len(out) < n:
        p = ScenePoint(2.4 * rng.random() - 1.2, 2.4 * rng.random() - 1.2)
        if -scene.eps <= scene.f(p) <= 0.0 and p.u != 0.0 and scene.in_Y(p):
            out.append(p)
    return out


def test_flow_and_tau_closed_forms(saddle):
    p = ScenePoint(0.3, 0.8)
    t = saddle.tau(p, -EPS)
    q = saddle.flow(p, t)
    assert abs(saddle.f(q) + EPS) < 1e-14
    assert abs(q.u * q.v - p.u * p.v) < 1e-14          # conserved product
    assert saddle.tau(p, saddle.f(p)) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(LevelNotReachedError):
        saddle.tau(ScenePoint(0.0, 0.5), -EPS)          # stable axis
    with pytest.raises(LevelNotReachedError):
        saddle.tau(ScenePoint(0.5, 0.0), EPS)           # unstable axis upward
    with pytest.raises(LevelNotReachedError):
        saddle.tau(ScenePoint(0.0, 0.0), -EPS)


def test_sigma_values(saddle):
    r = math.sqrt(2.0 * EPS)
    assert saddle.sigma(ScenePoint(r, 0.0)) == pytest.approx(1.0)
    assert saddle.sigma(ScenePoint(-r, 0.0)) == pytest.approx(1.0)
    assert saddle.sigma(bottom_point(saddle, DELTA)) == pytest.approx(0.0, abs=1e-12)
    assert saddle.sigma(bottom_point(saddle, 0.8)) == 0.0
    assert saddle.sigma(bottom_point(saddle, DELTA / 2)) == pytest.approx(0.5)
    assert saddle.sigma(ScenePoint(0.0, 0.0)) == 1.0
    with pytest.raises(UndefinedDomainError):
        saddle.sigma(ScenePoint(0.0, 0.3))       # stable set, above c - eps
    with pytest.raises(UndefinedDomainError):
        saddle.sigma(ScenePoint(2.0, 0.0))       # below the band


def test_sigma_constant_on_flow_lines(saddle, rng):
    for _ in range(200):
        p = ScenePoint(1.6 * rng.random() - 0.8, 1.6 * rng.random() - 0.8)
        if not (-EPS <= saddle.f(p) <= EPS) or p.u == 0.0:
            continue
        s0 = saddle.sigma(p)
        for t in (-0.1, 0.07):
            q = saddle.flow(p, t)
            if -EPS <= saddle.f(q) <= EPS:
                assert abs(saddle.sigma(q) - s0) < 1e-10


def test_sigma_trichotomy(saddle, rng):
    # for s in (0,1): sigma > s iff inside the open tube, = s on its rim,
    # < s iff outside the closed tube
    for _ in range(500):
        y = 1.4 * (rng.random() - 0.5)
        s = rng.random() * 0.98 + 0.01
        p = bottom_point(saddle, y, branch=+1 if rng.random() < 0.5 else -1)
        sig = saddle.sigma(p)
        inside = saddle.in_E(p, s)
        closure = saddle.in_E_closure(p, s)
        if sig > s:
            assert inside
        if sig == pytest.approx(s, abs=1e-13) and not inside and closure:
            pass                                        # rim case
        if sig < s - 1e-13:
            assert not closure
        if inside:
            assert sig > s
        if not closure:
            assert sig < s


def test_g_and_Y_values(saddle):
    c = 0.0
    p0 = ScenePoint(0.0, 0.0)
    g0, in_y0 = saddle.g(p0), saddle.in_Y(p0)
    assert g0 == pytest.approx(c - 2.0 * EPS)
    assert in_y0
    p_out = bottom_point(saddle, 0.9)
    g1, in_y1 = saddle.g(p_out), saddle.in_Y(p_out)
    assert g1 == pytest.approx(c - EPS)
    assert in_y1                                         # boundary of Y
    # far from the unstable set on the critical level: sigma = 0, g = c
    p_far = ScenePoint(3.0, 3.0)
    g2, in_y2 = saddle.g(p_far), saddle.in_Y(p_far)
    assert g2 == pytest.approx(c, abs=1e-12)
    assert not in_y2


def test_g_has_no_stationary_points_in_upper_band(saddle, rng):
    # min ||velocity|| over sampled g^{-1}([c-eps, c]) stays away from zero
    speeds = []
    for _ in range(4000):
        p = ScenePoint(3.0 * (rng.random() - 0.5), 3.0 * (rng.random() - 0.5))
        if not (-EPS <= saddle.f(p) <= 0.0) or p.u == 0.0:
            continue
        g = saddle.g(p)
        if -EPS <= g <= 0.0:
            speeds.append(math.hypot(p.u, p.v))        # the speed of the field (x, -y)
    assert len(speeds) > 50
    assert min(speeds) > 0.05


def test_retract_identity_at_s0_and_on_targets(saddle, rng):
    pts = sample_Y(saddle, 60, rng)
    for p in pts:
        r0 = saddle.retract_R(p, 0.0)
        assert math.hypot(r0.u - p.u, r0.v - p.v) < 1e-12
    # critical point and unstable bottom points are fixed for every s
    for p in (ScenePoint(0.0, 0.0), ScenePoint(math.sqrt(2 * EPS), 0.0),
              ScenePoint(-math.sqrt(2 * EPS), 0.0)):
        for s in (0.0, 0.37, 1.0):
            r = saddle.retract_R(p, s)
            assert math.hypot(r.u - p.u, r.v - p.v) < 1e-12


def test_retract_final_level_and_target(saddle, rng):
    pts = sample_Y(saddle, 200, rng)
    for p in pts:
        r1 = saddle.retract_R(p, 1.0)
        assert abs(saddle.f(r1) - saddle.f_final(p)) < 1e-10
        on_bottom = abs(saddle.f(r1) + EPS) < 1e-8
        on_unstable = abs(r1.v) < 1e-8
        assert on_bottom or on_unstable


def test_retract_bottom_level_fixed(saddle):
    # sigma < 1 on the bottom level gives s_final = 0: the map fixes it
    p = bottom_point(saddle, DELTA / 2)
    for s in (0.0, 0.5, 1.0):
        r = saddle.retract_R(p, s)
        assert math.hypot(r.u - p.u, r.v - p.v) < 1e-13


def test_retract_continuity_modulus(saddle):
    # empirical modulus on refining grids stays bounded
    def max_local_ratio(n):
        ys = np.linspace(-0.4, 0.4, n)
        # the level f = -0.9 eps, slightly above the bottom of the band
        xs = [math.sqrt(y * y + 1.8 * EPS) for y in ys]
        pts = [ScenePoint(x, y) for x, y in zip(xs, ys)]
        pts = [p for p in pts if saddle.in_Y(p)]
        imgs = [saddle.retract_R(p, 0.7) for p in pts]
        ratios = []
        for a, b, ia, ib in zip(pts, pts[1:], imgs, imgs[1:]):
            d0 = math.hypot(a.u - b.u, a.v - b.v)
            d1 = math.hypot(ia.u - ib.u, ia.v - ib.v)
            ratios.append(d1 / d0)
        return max(ratios)
    m1, m2 = max_local_ratio(200), max_local_ratio(400)
    assert m2 < 10.0 * max(m1, 1.0)


def test_slit_flow_preserves_fourth_quadrant(slit):
    p = SlitScene.canonical(0.7, 1.75 * math.pi)
    for t in (-0.5, 0.3, 1.0):
        q = slit.flow(p, t)
        assert 1.5 * math.pi < q.v < 2.0 * math.pi


def test_census_full_space_and_sublevels(slit):
    count_full, _, _ = connectivity_census(slit, sublevel=1e9, include_unstable=False,
                                           n_rho=80, n_theta=80)
    assert count_full == 1
    low, _, _ = connectivity_census(slit, sublevel=-EPS, include_unstable=True,
                                    n_rho=400, n_theta=400)
    assert low == 2
    high, _, _ = connectivity_census(slit, sublevel=EPS, include_unstable=False,
                                     n_rho=400, n_theta=400)
    assert high == 1


def bfs_components(mask, glue_origin):
    """Reference labelling by breadth-first search from cells in row-major order.

    Cells join their four grid neighbours, never wrapping around; with
    glue_origin every in-set cell of row 0 also joins every other one.
    """
    n_rho, n_theta = mask.shape
    inside = mask.tolist()
    labels = [[-1] * n_theta for _ in range(n_rho)]
    origin = [(0, j) for j in range(n_theta) if inside[0][j]] if glue_origin else []
    count = 0
    for i in range(n_rho):
        for j in range(n_theta):
            if not inside[i][j] or labels[i][j] >= 0:
                continue
            labels[i][j] = count
            queue = deque([(i, j)])
            while queue:
                a, b = queue.popleft()
                nbrs = [(a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)]
                for c, d in (nbrs + origin if a == 0 else nbrs):
                    if (0 <= c < n_rho and 0 <= d < n_theta and inside[c][d]
                            and labels[c][d] < 0):
                        labels[c][d] = count
                        queue.append((c, d))
            count += 1
    return count, np.array(labels, dtype=index_dtype(mask)).reshape(mask.shape)


def meshgrid_masks(sublevel, include_unstable, n_rho, n_theta, rho_max):
    """Reference mask from full (rho, theta) meshgrids."""
    rho = np.linspace(0.0, rho_max, n_rho)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rr, tt = np.meshgrid(rho, theta, indexing="ij")
    mask = -0.5 * rr * rr * np.cos(2.0 * tt) <= sublevel
    if include_unstable:
        mask[:, 0] = True
        mask[:, n_theta // 2] = True
        mask[0, :] = True
    return rho, theta, mask


@pytest.mark.parametrize("n_rho, n_theta", [(1, 2), (7, 10), (40, 40), (401, 400)])
@pytest.mark.parametrize("sublevel", [-EPS, EPS])
@pytest.mark.parametrize("include_unstable", [True, False])
def test_slit_grid_masks_match_meshgrid_oracle(slit, n_rho, n_theta, sublevel,
                                               include_unstable):
    got = _slit_grid_masks(slit, sublevel, include_unstable, n_rho, n_theta, 3.0)
    ref = meshgrid_masks(sublevel, include_unstable, n_rho, n_theta, 3.0)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def decoded_labels(mask):
    """The census count and its label runs decoded into a per-cell grid."""
    count, runs = _census_runs(mask)
    return count, np.repeat(runs.values, runs.lengths).reshape(mask.shape)


def test_census_count_matches_breadth_first_oracle(slit):
    # the glued origin joins the two columns; the slit keeps them apart
    assert _census_runs(np.array([[1, 0, 0, 1], [1, 0, 0, 1]], dtype=bool))[0] == 1
    assert _census_runs(np.array([[0, 0, 0, 0], [1, 0, 0, 1]], dtype=bool))[0] == 2
    rng = philox(2024)
    masks = [np.zeros((5, 6), dtype=bool), np.ones((5, 6), dtype=bool),
             np.ones((1, 7), dtype=bool), np.ones((7, 1), dtype=bool)]
    for k in range(200):
        n_rho, n_theta = rng.integers(1, 13, size=2)
        shape = ((1, n_theta), (n_rho, 1), (n_rho, n_theta))[min(k % 10, 2)]
        masks.append(rng.random(shape) < rng.random())
    for sublevel, include_unstable in ((-EPS, True), (EPS, False)):
        masks.append(connectivity_census(slit, sublevel, include_unstable)[2][2])
    for mask in masks:
        count, labels = decoded_labels(mask)
        ref_count, ref_labels = bfs_components(mask, glue_origin=True)
        assert count == ref_count
        assert labels.dtype == ref_labels.dtype
        assert np.array_equal(labels, ref_labels)


def assert_census_matches_cells(mask):
    count, labels = decoded_labels(mask)
    ref_count, ref_labels = cell_census(mask)
    assert count == ref_count
    assert labels.dtype == ref_labels.dtype
    assert np.array_equal(labels, ref_labels)
    return count


@pytest.mark.parametrize("n", [400, 800])
@pytest.mark.parametrize("eps", [0.06, 0.1, 0.14])
def test_census_count_matches_cell_oracle_on_slit_masks(n, eps):
    scene = SlitScene(eps=eps)
    low = _slit_grid_masks(scene, -eps, True, n, n, 3.0)[2]
    high = _slit_grid_masks(scene, eps, False, n, n, 3.0)[2]
    assert assert_census_matches_cells(low) == 2
    assert assert_census_matches_cells(high) == 1


def serpentine(n_rho, n_theta, by_columns):
    """One snake of in-set cells that doubles back at every turn; row 0 stays
    empty, so the glued origin cannot shortcut it."""
    mask = np.zeros((n_rho, n_theta), dtype=bool)
    if by_columns:
        mask[1:, ::2] = True
        mask[1, 1::4] = True
        mask[-1, 3::4] = True
    else:
        mask[1::2] = True
        mask[2::4, -1] = True
        mask[4::4, 0] = True
    return mask


def adversarial_masks():
    rng = philox(16)
    comb = np.zeros((30, 41), dtype=bool)
    comb[:, ::4] = True                 # teeth joined only through the glued row
    gaps = rng.random((25, 33)) < 0.55
    gaps[0] = np.arange(33) % 5 < 2     # non-contiguous in-set cells in row 0
    both_sides = np.zeros((20, 24), dtype=bool)
    both_sides[1:, 0] = both_sides[1:, -1] = True   # the two edges of the slit
    bridged = both_sides.copy()
    bridged[7] = True                   # a full row joins them across the slit
    return [serpentine(41, 37, False), serpentine(41, 37, True), serpentine(200, 3, True),
            comb, gaps, both_sides, bridged,
            np.ones((17, 23), dtype=bool), np.zeros((17, 23), dtype=bool),
            np.ones((1, 40), dtype=bool), np.ones((40, 1), dtype=bool),
            rng.random((1, 40)) < 0.5, rng.random((40, 1)) < 0.5]


def test_census_count_matches_cell_oracle_on_adversarial_masks():
    counts = [assert_census_matches_cells(mask) for mask in adversarial_masks()]
    # three snakes, the comb; then the slit's two edges, bridged, all, none, 1 x n, n x 1
    assert counts[:4] == [1, 1, 1, 1]
    assert counts[5:11] == [2, 1, 1, 0, 1, 1]


def census_peak_bytes(mask):
    """Peak traced allocation of one run census of the mask."""
    tracemalloc.start()
    try:
        _census_runs(mask)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sublevel, include_unstable", [(-EPS, True), (EPS, False)])
def test_census_count_peak_memory_per_cell(slit, sublevel, include_unstable):
    # the cell-level union-find peaked at 33.2 and 57.7 bytes per cell here,
    # int64 labels beside the run ids at 18.8 and 21.6
    mask = _slit_grid_masks(slit, sublevel, include_unstable, 800, 800, 3.0)[2]
    assert census_peak_bytes(mask) <= 8 * mask.size


@pytest.mark.parametrize("sublevel, include_unstable", [(-EPS, True), (EPS, False)])
def test_census_runs_hold_no_per_cell_index(slit, sublevel, include_unstable):
    # an int32 label grid beside the run ids peaked at 6.0 bytes per cell here,
    # and one int32 index per cell alone is 4
    mask = _slit_grid_masks(slit, sublevel, include_unstable, 800, 800, 3.0)[2]
    assert census_peak_bytes(mask) <= 3 * mask.size


@pytest.mark.parametrize("sublevel, include_unstable", [(-EPS, True), (EPS, False)])
def test_slit_grid_masks_peak_memory_per_cell(slit, sublevel, include_unstable):
    # a full float64 f grid beside the mask peaked at 9.0 bytes per cell here
    n_rho = n_theta = 800
    tracemalloc.start()
    try:
        _slit_grid_masks(slit, sublevel, include_unstable, n_rho, n_theta, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n_rho * n_theta


@pytest.mark.parametrize("mask, count, labels", [
    (np.zeros((0, 4), dtype=bool), 0, np.zeros((0, 4), dtype=int)),
    (np.zeros((3, 0), dtype=bool), 0, np.zeros((3, 0), dtype=int)),
    (np.ones((1, 1), dtype=bool), 1, [[0]]),
    (np.ones((1, 2), dtype=bool), 1, [[0, 0]]),
    (np.zeros((3, 4), dtype=bool), 0, np.full((3, 4), -1)),
], ids=["0x4", "3x0", "1x1-in", "1x2-in", "3x4-out"])
def test_census_count_on_degenerate_grids(mask, count, labels):
    got_count, got_labels = decoded_labels(mask)
    assert got_count == count
    assert got_labels.dtype == index_dtype(mask)
    assert np.array_equal(got_labels, labels)
    if mask.shape[0]:       # the breadth-first oracle reads row 0
        assert bfs_components(mask, glue_origin=True)[0] == count


def grid(*rows):
    """A mask drawn row by row, '#' in the set."""
    return np.array([[c == "#" for c in row] for row in rows])


@pytest.mark.parametrize("mask, values, lengths", [
    # a stretch to the last column and one from column 0 of the next row, one component
    (grid("....", "..##", "###."), [-1, 0, -1], [6, 5, 1]),
    # the same layout with the slit between two components
    (grid("....", "...#", "#..."), [-1, 0, 1, -1], [7, 1, 1, 3]),
    # three stretches of the glued origin row: one component, -1 gaps between them
    (grid("##.#..##", "........"), [0, -1, 0, -1, 0, -1], [2, 1, 1, 2, 2, 8]),
    (np.zeros((0, 4), dtype=bool), [], []),
    (np.zeros((3, 0), dtype=bool), [], []),
    (np.ones((3, 5), dtype=bool), [0], [15]),
    (np.zeros((3, 5), dtype=bool), [-1], [15]),
], ids=["merge-across-rows", "no-merge-across-slit", "origin-row-gaps", "0x4", "3x0",
        "all-in", "all-out"])
def test_census_runs_are_the_maximal_runs_of_the_oracle_grid(mask, values, lengths):
    runs = _census_runs(mask)[1]
    want = label_runs(cell_census(mask)[1])
    assert runs.values.dtype == want["label_values"].dtype
    assert np.array_equal(runs.values, want["label_values"])
    assert runs.lengths.dtype == want["label_lengths"].dtype
    assert np.array_equal(runs.lengths, want["label_lengths"])
    assert runs.values.tolist() == values and runs.lengths.tolist() == lengths
    assert np.all(runs.lengths > 0) and np.all(np.diff(runs.values) != 0)
    assert runs.lengths.sum() == mask.size == runs.size


@pytest.mark.parametrize("n_rho, n_theta", [(400, 400), (8, 16), (1, 2)])
def test_census_labels_size_is_the_cell_count(slit, n_rho, n_theta):
    # the benchmark's tracer counts census cells as ``result[1].size``
    labels = connectivity_census(slit, EPS, False, n_rho=n_rho, n_theta=n_theta)[1]
    assert labels.size == n_rho * n_theta


def test_saddle_sublevel_components_match_across_the_level(saddle):
    # plane-topology census: on the smooth scene, sublevel f <= -eps union
    # the unstable axis has the same component count as sublevel f <= +eps
    # (both 1); the slit quotient breaks exactly this equality (2 vs 1)
    n = 401
    xs = np.linspace(-3.0, 3.0, n)
    ys = np.linspace(-3.0, 3.0, n)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    f = 0.5 * (yy ** 2 - xx ** 2)
    low = (f <= -EPS) | (np.abs(yy) < 1e-12)
    high = f <= EPS

    assert bfs_components(low, glue_origin=False)[0] == 1
    assert bfs_components(high, glue_origin=False)[0] == 1


def test_condition4_saddle_holds(saddle):
    rep = condition4_probe(saddle, u_width=DELTA)
    assert rep["holds"] and rep["witness"] is None


def test_condition4_slit_fails_with_witness(slit):
    rep = condition4_probe(slit, u_width=math.pi / 3.0)
    assert not rep["holds"]
    w = rep["witness"]
    assert w is not None
    assert 1.5 * math.pi < w["sample"].v < 2.0 * math.pi
    # the landing point is far from both unstable rays in the slit metric
    assert slit.theta_distance_to_unstable(w["landing"].v) >= math.pi / 3.0


@pytest.mark.parametrize("scene, u_width", [
    (SaddleScene(eps=EPS, delta=DELTA), DELTA),
    (SlitScene(eps=EPS), math.pi / 3.0),
], ids=["saddle", "slit"])
def test_condition4_probe_flows_one_circle_of_samples(monkeypatch, scene, u_width):
    calls = []
    flow = type(scene).flow

    def counted(self, p, t):
        calls.append(p)
        return flow(self, p, t)

    monkeypatch.setattr(type(scene), "flow", counted)
    condition4_probe(scene, u_width=u_width)
    assert 0 < len(calls) <= PROBE_SAMPLES


def test_condition4_vacuous_full_level(slit):
    rep = condition4_probe(slit, u_width=math.inf)
    assert rep["holds"] and rep["vacuous"]


def test_conclusions_stable_under_halved_parameters():
    for eps, delta in ((0.05, 0.25), (0.1, 0.25), (0.05, 0.5)):
        sc = SaddleScene(eps=eps, delta=delta)
        rng = philox(5)
        pts = sample_Y(sc, 40, rng)
        for p in pts:
            r1 = sc.retract_R(p, 1.0)
            assert abs(sc.f(r1) - sc.f_final(p)) < 1e-10
        sl = SlitScene(eps=eps)
        low, _, _ = connectivity_census(sl, -eps, True, n_rho=400, n_theta=400)
        high, _, _ = connectivity_census(sl, eps, False, n_rho=400, n_theta=400)
        assert (low, high) == (2, 1)


def test_retract_continuous_across_unstable_seam(saddle):
    # points straddling the unstable axis at the same level must map to
    # nearby images for every s: the collapse map has no seam jump
    level = -0.9 * EPS
    for s in (0.0, 0.3, 0.7, 1.0):
        imgs = []
        for y in (1e-6, -1e-6):
            p = ScenePoint(math.sqrt(y * y - 2.0 * level), y)
            imgs.append(saddle.retract_R(p, s))
        d = math.hypot(imgs[0].u - imgs[1].u, imgs[0].v - imgs[1].v)
        assert d < 1e-4


def test_retract_continuous_toward_critical_point(saddle):
    # shrinking points of Y just off the stable axis: images under R stay
    # within a shrinking neighborhood of the critical point for small s
    prev = None
    for r in (1e-2, 1e-3, 1e-4):
        p = ScenePoint(r, 0.5 * r)          # f < 0, near the origin, in Y
        assert saddle.in_Y(p)
        img = saddle.retract_R(p, 0.5)
        dist = math.hypot(img.u, img.v)
        if prev is not None:
            assert dist < prev + 1e-12
        prev = dist
