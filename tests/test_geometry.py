import io
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from gwfract.symbolic import (CapabilityError, FiniteTree, InvalidInputError, StarTree, Word,
                              WeightedAlphabet, compress_along_pi_rho)
from gwfract.branching import Binomial, labeled_seed, sample_gw
from gwfract import extraction, geometry
from gwfract.geometry import (
    Hyperplane,
    MeasuredCloud,
    OSCBall,
    OSCBox,
    PointCloud,
    SimilarityIFS,
    SimilarityMap,
    ahlfors_ratio_check,
    box_dimension,
    cloud_from_csv,
    cloud_to_csv,
    cloud_to_pgm,
    diffuseness_constant,
    empirical_diffuse_check,
    ifs_from_json,
    ifs_to_json,
    moran_exponent,
    percolation_ifs,
    render,
    render_words,
    sierpinski_ifs,
    width,
    word_map,
)


def square_cloud(eps=0.0):
    return PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                [1.0, 1.0]]), eps)


def test_moran_percolation_is_log_of_mean():
    ifs = percolation_ifs(3, 2)
    delta = moran_exponent(Binomial(9, 0.6), ifs.weights)
    assert delta == pytest.approx(math.log(5.4) / math.log(3), abs=1e-9)


def test_moran_rejects_subcritical():
    ifs = percolation_ifs(3, 2)
    with pytest.raises(InvalidInputError):
        moran_exponent(Binomial(9, 0.1), ifs.weights)


def test_grid_ifs_shape():
    ifs = percolation_ifs(3, 2)
    assert ifs.alphabet_size == 9
    assert ifs.d == 2
    assert all(abs(m.ratio - 1 / 3.0) < 1e-12 for m in ifs.maps)
    assert ifs.osc is not None
    assert set(ifs.weights.ratios) == {1 / 3.0}


def test_sierpinski_shape():
    ifs = sierpinski_ifs()
    assert ifs.alphabet_size == 3
    assert all(abs(m.ratio - 0.5) < 1e-12 for m in ifs.maps)


def test_open_set_check_rejects_escapes_and_overlaps():
    eye, box = np.eye(2), OSCBox(np.zeros(2), np.ones(2))
    with pytest.raises(InvalidInputError, match="image 1 escapes the witness box"):
        SimilarityIFS(2, [SimilarityMap(0.5, eye, [0.0, 0.0]),
                          SimilarityMap(0.5, eye, [0.6, 0.0])], osc=box)
    with pytest.raises(InvalidInputError, match="images 1 and 2 overlap"):
        SimilarityIFS(2, [SimilarityMap(0.5, eye, [0.0, 0.0]),
                          SimilarityMap(0.5, eye, [0.5, 0.0]),
                          SimilarityMap(0.5, eye, [0.5, 0.25])], osc=box)
    ball = OSCBall(np.zeros(2), 1.0)
    with pytest.raises(InvalidInputError, match="image ball escapes"):
        SimilarityIFS(2, [SimilarityMap(0.5, eye, [0.6, 0.0])], osc=ball)
    with pytest.raises(InvalidInputError, match="image balls 0 and 1 overlap"):
        SimilarityIFS(2, [SimilarityMap(0.5, eye, [-0.3, 0.0]),
                          SimilarityMap(0.5, eye, [0.3, 0.0])], osc=ball)
    # touching images pass: boundaries may meet
    SimilarityIFS(2, [SimilarityMap(0.5, eye, [-0.5, 0.0]),
                      SimilarityMap(0.5, eye, [0.5, 0.0])], osc=ball)
    percolation_ifs(2, 3)


def _per_axis_disjoint(c1, c2, o1, o2, d, tol=1e-12):
    """The separating-axis test one axis at a time: the reference."""
    axes = [o1[:, j] for j in range(d)] + [o2[:, j] for j in range(d)]
    if d == 3:
        for i in range(3):
            for j in range(3):
                c = np.cross(o1[:, i], o2[:, j])
                n = np.linalg.norm(c)
                if n > 1e-12:
                    axes.append(c / n)
    for u in axes:
        a, b = c1 @ u, c2 @ u
        if a.max() <= b.min() + tol or b.max() <= a.min() + tol:
            return True
    return False


def _random_frame(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))  # a reflection half the time (det = +-1)


def test_vectorized_box_test_matches_per_axis_reference():
    rng = np.random.default_rng(17)
    verdicts, passed = {2: set(), 3: set()}, 0
    for trial in range(120):
        d = 2 + trial % 2
        box = OSCBox(np.zeros(d), np.ones(d))
        frames = [_random_frame(rng, d) for _ in range(2)]
        maps = []
        for _ in range(4):
            # a frame shared with another map now and then: equal frames
            # give degenerate cross products in 3-d
            o = frames[rng.integers(2)] if rng.random() < 0.5 else _random_frame(rng, d)
            r = rng.uniform(0.15, 0.45)
            ext = r * (box.corners() @ o.T)
            t = rng.uniform(-ext.min(axis=0), 1.0 - ext.max(axis=0))
            maps.append(SimilarityMap(r, o, t))
        imgs = [m.apply(box.corners()) for m in maps]
        want = None
        for i in range(4):
            for j in range(i + 1, 4):
                disjoint = _per_axis_disjoint(imgs[i], imgs[j], maps[i].ortho,
                                              maps[j].ortho, d)
                axes = geometry._parallelotope_axes(maps[i].ortho, maps[j].ortho, d)
                assert geometry._convex_disjoint(imgs[i], imgs[j], axes) == disjoint
                verdicts[d].add(disjoint)
                if want is None and not disjoint:
                    want = "images %d and %d overlap" % (i, j)
        try:
            SimilarityIFS(d, maps, osc=box)
            got = None
        except InvalidInputError as err:
            got = str(err)
        assert got == want, trial
        passed += got is None
    assert verdicts == {2: {True, False}, 3: {True, False}} and 0 < passed < 120, passed


def test_width_square_half_thickness():
    res = width(square_cloud())
    assert res.w == pytest.approx(0.5, abs=1e-6)
    assert isinstance(res.witness, Hyperplane)


def test_width_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    res = width(PointCloud(pts, 0.0))
    assert res.w == pytest.approx(math.sqrt(3) / 4, abs=1e-6)


def test_width_collinear_is_zero():
    pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [0.25, 0.25]])
    assert width(PointCloud(pts, 0.0)).w == pytest.approx(0.0, abs=1e-12)


def test_width_single_point_and_pair():
    assert width(PointCloud(np.array([[0.3, 0.4]]), 0.0)).w == 0.0
    assert width(PointCloud(np.array([[0.0, 0.0], [1.0, 2.0]]), 0.0)).w == \
        pytest.approx(0.0, abs=1e-12)


def test_width_threshold_decides_as_the_full_width():
    # in d = 3 the grid's Lipschitz lower bound settles thick clouds; every
    # answer agrees with comparing the refined width, in every dimension
    rng = np.random.default_rng(8)
    clouds = [render(percolation_ifs(2, 3), depth=3).points, render(rotation_ifs_3d(), depth=5).points,
              rng.random((4, 3)), rng.random((300, 4)), rng.random((50, 2))]
    for flat in (1e-3, 1e-6, 1e-12):
        clouds.append(rng.random((400, 3)) * [1.0, 1.0, flat])
    for pts in clouds:
        w = width(PointCloud(pts, 0.0)).w
        for level in (0.0, 0.5 * w, 0.99 * w, w, 2.0 * w + 1e-9):
            assert geometry._width_exceeds(PointCloud(pts, 0.0), level) == (w > level)
    grid = geometry._direction_grid(3, 2000)
    assert grid is geometry._direction_grid(3, 2000) and not grid.flags.writeable


def test_width_floor_is_projected_once_per_cloud(monkeypatch):
    # two certificates on one 3-d base cloud: the degeneracy check projects
    # the hull on the 2,000-direction grid for the first one only
    ifs = percolation_ifs(2, 3)
    F = render(ifs, depth=4)
    table = geometry._MapTable(ifs.maps, F, 200)
    grids = []
    grid = geometry._direction_grid
    monkeypatch.setattr(geometry, "_direction_grid",
                        lambda d, n: grids.append((d, n)) or grid(d, n))
    first = diffuseness_constant([0, 1, 2], F, 200, table=table)
    assert grids == [(3, 2000)] and "_width_floor" in vars(F) and "width" not in vars(F)
    second = diffuseness_constant([0, 1, 2], F, 200, table=table)
    diffuseness_constant([3, 5, 6, 7], F, 200, table=table)
    assert grids == [(3, 2000)]
    assert (first.c_low, first.raw_min, first.tol) == (second.c_low, second.raw_min, second.tol)


def test_diffuseness_grid_one_step():
    ifs = percolation_ifs(3, 2)
    # square corners carry the exact directional extremes of the attractor
    res = diffuseness_constant(ifs.maps, square_cloud(), directions=2000)
    # axis-aligned slab through the middle row of cells is the pinch
    assert res.raw_min == pytest.approx(1 / 6.0, abs=1e-9)
    assert 0.15 <= res.c_low <= res.raw_min + 1e-12
    assert abs(abs(res.witness.normal[0]) - 1.0) < 1e-3 or \
        abs(abs(res.witness.normal[1]) - 1.0) < 1e-3


def _per_map_certificate(maps, F, directions, need=None):
    """Reference certificate in d = 2 or 3 whose every step evaluates one map
    at a time: (c_low, raw_min, tol, normal, offset), or None for a base cloud
    below resolution.  With `need` the planar refinement stops where the
    certificate's does (README, "Certificates")."""
    if F.width.w <= max(F.eps, 1e-12):
        return None
    d = F.points.shape[1]
    imgs = [m.apply(F.hull) for m in maps]
    infl = [F.eps * m.ratio for m in maps]
    center = np.mean([m.apply(F.points.mean(axis=0)) for m in maps], axis=0)
    lip = max(float(np.linalg.norm(img - center, axis=1).max()) for img in imgs)
    if d == 2:
        angles = np.linspace(0.0, math.pi, directions, endpoint=False)
        grid = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        grid = geometry._fibonacci_sphere(directions)
    L, H = np.full(directions, -np.inf), np.full(directions, np.inf)
    for img, e in zip(imgs, infl):
        proj = img @ grid.T
        np.maximum(L, proj.min(axis=0) - e, out=L)
        np.minimum(H, proj.max(axis=0) + e, out=H)
    cvals = np.maximum(0.0, 0.5 * (L - H))
    k = int(np.argmin(cvals))
    raw_min, u_best = float(cvals[k]), grid[k]
    tol = lip * geometry._coverage_halfangle(d, directions)

    def c_of(u):
        L, H = -np.inf, np.inf
        for img, e in zip(imgs, infl):
            pr = img @ u
            L = max(L, float(pr.min()) - e)
            H = min(H, float(pr.max()) + e)
        return max(0.0, 0.5 * (L - H)), 0.5 * (L + H)

    def f(th):
        return c_of(np.array([math.cos(th), math.sin(th)]))[0]

    if d == 2 and (need is None or max(0.0, raw_min - tol) >= need):
        th0, span = math.atan2(u_best[1], u_best[0]), math.pi / directions
        margin = 1e-9 * max(1.0, lip, max(float(np.abs(img).max()) for img in imgs))
        for a, b, x1, f1, x2, f2 in geometry._golden_steps(f, th0 - span, th0 + span, 50):
            if need is not None and \
                    min(raw_min, max(f1, f2) - lip * (b - a)) - tol > need + margin:
                th, v = (x1, f1) if f1 <= f2 else (x2, f2)
                break
        else:
            th = 0.5 * (a + b)
            v = f(th)
        if v < raw_min:
            raw_min, u_best = v, np.array([math.cos(th), math.sin(th)])
    return max(0.0, raw_min - tol), raw_min, tol, u_best, c_of(u_best)[1]


def _assert_is_reference(res, want):
    c_low, raw_min, tol, normal, offset = want
    assert (res.c_low, res.raw_min, res.tol, res.witness.offset) == \
        (c_low, raw_min, tol, offset)
    assert np.array_equal(res.witness.normal, normal)


def test_certificate_matches_per_map_reference():
    # seeded random planar families over base clouds of 1 to 79 points, so
    # hull sizes differ from family to family; eps > 0 inflates every image
    rng = np.random.default_rng(16)
    positive = 0
    for trial in range(24):
        F = PointCloud(rng.uniform(size=(1 if trial == 0 else int(rng.integers(3, 80)), 2)),
                       float(rng.uniform(1e-4, 0.02)))
        maps = []
        for _ in range(int(rng.integers(2, 10))):
            th = rng.uniform(0.0, 2.0 * math.pi)
            flip = np.diag([1.0, rng.choice([-1.0, 1.0])])
            rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
            maps.append(SimilarityMap(rng.uniform(0.1, 0.45), rot @ flip, rng.uniform(size=2)))
        directions = int(rng.integers(50, 400))
        res = diffuseness_constant(maps, F, directions=directions)
        want = _per_map_certificate(maps, F, directions)
        if want is None:  # the one-point base cloud
            assert trial == 0 and len(F.hull) == 1
            assert (res.c_low, res.raw_min, res.tol) == (0.0, 0.0, 0.0)
            continue
        _assert_is_reference(res, want)
        positive += want[1] > 0.0
    assert positive >= 5


@pytest.mark.parametrize("ifs", [percolation_ifs(3, 2), sierpinski_ifs(), percolation_ifs(2, 2),
                                 percolation_ifs(2, 3)], ids=["grid3", "gasket", "grid2", "grid222"])
def test_section_table_certificates_match_the_per_map_reference(monkeypatch, ifs):
    # every family of a letter-mask predicate reads the rows of one table of
    # its base maps; each certificate, with and without `need`, is the
    # per-map reference's bit for bit, and the count and budget do not move
    seen = []
    real = extraction.diffuseness_constant
    monkeypatch.setattr(extraction, "diffuseness_constant",
                        lambda *a, **kw: seen.append(real(*a, **kw)) or seen[-1])
    n, c = ifs.alphabet_size, 0.05
    sd = extraction.SectionDiffuse(c, ifs, k=2)
    table = sd._table
    rng = np.random.default_rng(34)
    masks = [m for m in rng.permutation(np.arange(3, 1 << n)).tolist() if m & (m - 1)][:10]
    passed = 0
    for i, mask in enumerate(masks, 1):
        rows = [j for j in range(n) if mask >> j & 1]
        maps = [ifs.maps[j] for j in rows]
        full = diffuseness_constant(rows, sd.F, directions=sd.DIRECTIONS, table=table)
        _assert_is_reference(full, _per_map_certificate(maps, sd.F, sd.DIRECTIONS))
        passed += sd._mask_certified(mask)
        _assert_is_reference(seen[-1], _per_map_certificate(maps, sd.F, sd.DIRECTIONS, need=c))
        assert (seen[-1].c_low >= c) == (full.c_low >= c)
        sd._mask_certified(mask)  # settled once: no second call
        assert sd.cert_count == len(seen) == i
    # the 3x3 grid's families straddle c; the others' cells touch, so all read 0
    assert passed == (6 if n == 9 else 0)
    sd = extraction.SectionDiffuse(c, ifs, F_cloud=sd.F, k=2)
    sd.CERT_BUDGET = 3
    for mask in masks[:3] + masks[:1]:
        sd._mask_certified(mask)
    with pytest.raises(CapabilityError):
        sd._mask_certified(masks[3])
    assert sd.cert_count == 4


def test_certificate_rejects_an_empty_family():
    F = square_cloud()
    with pytest.raises(InvalidInputError):
        diffuseness_constant([], F, directions=100)
    table = geometry._MapTable(percolation_ifs(3, 2).maps, F, 100)
    with pytest.raises(InvalidInputError):
        diffuseness_constant(np.arange(0), F, directions=100, table=table)


def test_render_full_grid():
    ifs = percolation_ifs(3, 2)
    cloud = render(ifs, depth=2)
    assert len(cloud.points) == 81
    assert cloud.eps > 0
    assert cloud.d == 2


def rotation_ifs_3d():
    def rot(th):
        return np.array([[math.cos(th), -math.sin(th), 0.0],
                         [math.sin(th), math.cos(th), 0.0], [0.0, 0.0, 1.0]])
    return SimilarityIFS(3, [SimilarityMap(0.4, rot(0.7), [0.0, 0.0, 0.0]),
                             SimilarityMap(0.3, rot(-0.7), [0.5, 0.1, 0.2]),
                             SimilarityMap(0.35, np.eye(3), [0.1, 0.6, 0.3])])


@pytest.mark.parametrize("ifs, depth", [(percolation_ifs(3, 2), 4), (sierpinski_ifs(), 7),
                                        (percolation_ifs(2, 3), 3), (rotation_ifs_3d(), 6)])
def test_render_depth_equals_render_of_full_tree(ifs, depth):
    direct = render(ifs, depth=depth)
    via_tree = render(ifs, tree=FiniteTree.full(ifs.alphabet_size, depth))
    assert np.array_equal(direct.points, via_tree.points)
    assert direct.eps == via_tree.eps


def _unequal_planar_ifs():
    return SimilarityIFS(2, [SimilarityMap(0.5, np.eye(2), [0.0, 0.0]),
                             SimilarityMap(1 / 3.0, [[0.0, -1.0], [1.0, 0.0]], [0.9, 0.0]),
                             SimilarityMap(0.25, np.eye(2), [0.0, 0.7])])


@pytest.mark.parametrize("ifs", [percolation_ifs(3, 2), _unequal_planar_ifs(), rotation_ifs_3d()])
def test_render_chunks_change_nothing(monkeypatch, ifs):
    # rows are composed a chunk at a time; every point comes out bit for bit
    # as from one chunk, whether chunks cut through words of one length or,
    # on unequal ratios, through a star's leaves of mixed lengths
    trees = [FiniteTree.full(ifs.alphabet_size, 4)]
    if ifs.alphabet_size == 3:
        tree = sample_gw(Binomial(3, 0.9), 10, seed=1).tree
        trees.append(compress_along_pi_rho(tree, ifs.weights, 0.2))
        assert len({len(w) for w in trees[-1].level(trees[-1].depth)}) >= 2
    whole = [render(ifs, tree=t) for t in trees]
    for rows in (1, 7, 64):
        monkeypatch.setattr(geometry, "_RENDER_ROWS", rows)
        for one, t in zip(whole, trees):
            chunked = render(ifs, tree=t)
            assert np.array_equal(one.points, chunked.points) and one.eps == chunked.eps


def _sampled_render_cases():
    """(ifs, tree, depth) triples: sampled trees on the grids in d = 1, 2, 3,
    the gasket and a rotating 3-D system, some rendered above their depth,
    and star trees of an unequal-ratio system with leaves of mixed lengths."""
    cases = []
    for ifs, p, depth in [(percolation_ifs(3, 1), 0.8, 4), (percolation_ifs(3, 2), 0.4, 3),
                          (percolation_ifs(2, 3), 0.4, 3), (sierpinski_ifs(), 0.8, 4),
                          (rotation_ifs_3d(), 0.9, 4)]:
        for seed in range(20):
            tree = sample_gw(Binomial(ifs.alphabet_size, p), depth, seed=seed).tree
            cases.append((ifs, tree, depth - seed % 3 if seed % 4 == 0 else None))
    unequal = _unequal_planar_ifs()
    for seed in range(20):
        tree = sample_gw(Binomial(3, 0.85), 6, seed=seed).tree
        cases.append((unequal, compress_along_pi_rho(tree, unequal.weights, 0.2), None))
    return cases


@pytest.mark.parametrize("rows", [1, 7, 4096])
def test_tree_render_matches_whole_word_composition(monkeypatch, rows):
    # the top-down pass composes each node's map from its parent's; every
    # point and eps is bit for bit that of composing each leaf word whole
    monkeypatch.setattr(geometry, "_RENDER_ROWS", rows)
    cases = _sampled_render_cases()
    rendered = 0
    for ifs, tree, depth in cases:
        level = tree.depth if depth is None else min(depth, tree.depth)
        got = render(ifs, tree=tree, depth=depth)
        want = render_words(ifs, tree.level(level))
        assert np.array_equal(got.points, want.points) and got.eps == want.eps
        rendered += len(got) > 0
    assert rendered >= 100
    stars = [t for _, t, _ in cases if isinstance(t, StarTree)]
    assert any(len({len(w) for w in t.level(t.depth)}) >= 3 for t in stars)
    for ifs, depth in [(percolation_ifs(3, 1), 5), (percolation_ifs(3, 2), 3),
                       (percolation_ifs(2, 3), 2), (sierpinski_ifs(), 6), (rotation_ifs_3d(), 4)]:
        got = render(ifs, depth=depth)
        want = render_words(ifs, FiniteTree.full(ifs.alphabet_size, depth).level(depth))
        assert np.array_equal(got.points, want.points) and got.eps == want.eps


def test_render_depth_zero_and_negative():
    cloud = render(sierpinski_ifs(), depth=0)
    assert np.array_equal(cloud.points, sierpinski_ifs().centroid()[None, :])
    assert np.array_equal(render_words(sierpinski_ifs(), [Word()]).points, cloud.points)
    root = FiniteTree(3, 0, [])
    assert np.array_equal(render(sierpinski_ifs(), tree=root).points, cloud.points)
    with pytest.raises(InvalidInputError):
        render(sierpinski_ifs(), depth=-1)
    with pytest.raises(InvalidInputError):
        render(sierpinski_ifs(), tree=root, depth=-1)


def test_render_words_mixed_lengths_match_word_maps():
    # unequal ratios: the leaf level of a section-compressed star has words
    # of several lengths
    ifs = _unequal_planar_ifs()
    tree = sample_gw(Binomial(3, 0.9), 10, seed=1).tree
    star = compress_along_pi_rho(tree, ifs.weights, 0.2)
    words = star.level(star.depth)
    assert len({len(w) for w in words}) >= 3
    base = np.array([0.3, 0.2])
    cloud = render_words(ifs, words, base_point=base)
    ref = np.array([word_map(ifs, w).apply(base) for w in words])
    assert np.allclose(cloud.points, ref, rtol=0.0, atol=1e-12)
    r_max = max(ifs.weights.weight(w) for w in words)
    assert cloud.eps == pytest.approx(ifs.diameter_bound() * r_max, rel=1e-12)
    assert np.array_equal(render(ifs, tree=star, base_point=base).points, cloud.points)


def test_render_sampled_tree_and_extinct():
    ifs = percolation_ifs(3, 2)
    tree = sample_gw(Binomial(9, 0.6), 3, seed=1).tree
    cloud = render(ifs, tree=tree)
    assert len(cloud.points) == len(tree.level(3))
    # the letter arrays render exactly as the words of the deepest level do
    via_words = render_words(ifs, tree.level(3))
    assert np.array_equal(cloud.points, via_words.points)
    assert cloud.eps == via_words.eps
    dead = FiniteTree(9, 1, [])
    assert len(render(ifs, tree=dead, depth=1).points) == 0


def test_box_dimension_grid_exact_counts():
    ifs = percolation_ifs(3, 2)
    cloud = render(ifs, depth=3)
    dim, table = box_dimension(cloud, scales=[1.0, 1 / 3.0, 1 / 9.0, 1 / 27.0],
                               anchor="origin")
    assert [c for _, c in table] == [1, 9, 81, 729]
    assert dim == pytest.approx(2.0, abs=1e-9)


def test_box_dimension_sierpinski_window():
    cloud = render(sierpinski_ifs(), depth=9)
    dim, table = box_dimension(cloud)
    assert len(table) >= 3
    assert abs(dim - math.log(3) / math.log(2)) < 0.12


def test_box_counts_match_unique_rows():
    rng = np.random.default_rng(5)
    # a 3-d cloud with many points per cell and cells at negative offsets
    pts = np.round(rng.normal(size=(3000, 3)), 1)
    _, table = box_dimension(PointCloud(pts, 0.0), scales=[2.0, 0.7, 0.3, 0.1, 0.05])
    lo = pts.min(axis=0)
    for delta, count in table:
        assert count == len(np.unique(np.floor((pts - lo) / delta).astype(np.int64), axis=0))


def test_box_dimension_needs_scales():
    with pytest.raises(InvalidInputError):
        box_dimension(square_cloud(), scales=[1.0, 0.5])
    for count in (2, 0, -1):
        with pytest.raises(InvalidInputError, match="scale_count"):
            box_dimension(square_cloud(), scale_count=count)
    # cell indices past 2^62 would wrap in the int64 key
    with pytest.raises(InvalidInputError, match="2\\^62"):
        box_dimension(render(percolation_ifs(3, 2), depth=3), scales=[1e-300, 1e-301, 1e-302])


@pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf])
def test_point_cloud_rejects_bad_eps(eps):
    with pytest.raises(InvalidInputError, match="eps must be finite and non-negative"):
        PointCloud(np.zeros((3, 2)), eps)


def _lexsort_counts(pts, lo, scales):
    """The column-sort box counter the packed key replaced, kept as a reference."""
    counts = []
    for delta in scales:
        cells = np.floor((pts - lo) / delta).astype(np.int64)
        cells = cells[np.lexsort(cells.T)]
        counts.append(1 + int(np.count_nonzero((cells[1:] != cells[:-1]).any(axis=1))))
    return counts


def test_packed_box_counts_match_the_column_sort():
    rng = np.random.default_rng(35)
    clouds = [render(percolation_ifs(3, 2), depth=4).points,
              render(rotation_ifs_3d(), depth=4).points]
    for d in (1, 2, 3):
        pts = rng.normal(size=(2000, d)) * [1.0, 10.0, 0.01][:d]  # negative coordinates too
        clouds.append(np.concatenate([pts, pts[:500], np.round(pts[500:900], 1)]))  # duplicates
    scales = [3.0, 0.5, 0.1, 1 / 27.0, 1e-3, 1e-5]
    for pts in clouds:
        for anchor in ("min", "origin"):
            lo = pts.min(axis=0) if anchor == "min" else np.zeros(pts.shape[1])
            _, table = box_dimension(PointCloud(pts, 0.0), scales=scales, anchor=anchor)
            assert [c for _, c in table] == _lexsort_counts(pts, lo, scales)


@pytest.mark.parametrize("anchor", ["min", "origin"])
def test_packed_box_counts_stay_exact_past_int64(anchor):
    # cells of 1e-7 on a cube of side 2: the spans' product is about 8e21,
    # so a key folded without ranks would wrap; the count is still exact
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(3000, 3))
    pts = np.concatenate([pts, pts[:700]])
    lo = pts.min(axis=0) if anchor == "min" else np.zeros(3)
    scales = [1.0, 1e-3, 1e-7]
    spans = np.ptp(np.floor((pts - lo) / scales[-1]).astype(np.int64), axis=0) + 1
    assert math.prod(int(s) for s in spans) >= 2 ** 63
    _, table = box_dimension(PointCloud(pts, 0.0), scales=scales, anchor=anchor)
    assert [c for _, c in table] == _lexsort_counts(pts, lo, scales)
    assert table[-1][1] == 3000
    # three unit cells whose keys, folded without ranks, would be 0, 2^64 and
    # 2^40 - 1: the first two would wrap onto one key
    pts = np.array([[0.0, 0.0], [2.0 ** 24, 0.0], [0.0, 2.0 ** 40 - 1]])
    _, table = box_dimension(PointCloud(pts, 0.0), scales=[4.0, 2.0, 1.0], anchor=anchor)
    assert [c for _, c in table] == [3, 3, 3]


@pytest.fixture(scope="module")
def grid6():
    return render(percolation_ifs(3, 2), depth=6)


def test_empirical_diffuse_check_grid_passes(grid6):
    res = empirical_diffuse_check(grid6, beta=0.01, sample_count=90, seed=0)
    assert res["pass"]
    assert res["tested"] >= 90
    assert res["worst_ratio"] > 0.01


def test_packing_floor_is_below_the_width():
    cloud = render(percolation_ifs(3, 2), depth=5)
    pts = cloud.points
    tree = cKDTree(pts)
    spacing = float(tree.query(pts, k=2)[0][:, 1].min())
    rng = np.random.default_rng(3)
    positive = 0
    for _ in range(150):
        xi = 10.0 ** rng.uniform(-2.5, -0.5)
        ball = pts[tree.query_ball_point(pts[rng.integers(len(pts))], xi)]
        floor = geometry._packing_width_bound(len(ball), spacing, xi)
        positive += floor > 0
        assert floor <= width(ball).w
    assert positive > 100


def test_ball_index_spacing_is_the_least_pair_distance():
    # the spacing comes off a nearest-neighbour query alone, pruned at the
    # first point's nearest-neighbour distance, or off the two-neighbour
    # distances when `_flat_ball_search` has built them first; both equal
    # the unbounded query's least distance bit for bit
    rng = np.random.default_rng(4)
    pairs = rng.random((40, 2))
    lattice = np.stack(np.meshgrid(np.arange(12.0), np.arange(9.0)), axis=-1).reshape(-1, 2)
    clouds = [rng.random((300, 2)), np.vstack([pairs, pairs[:3] + 1e-9]),
              np.vstack([pairs, pairs[5:6]]), np.vstack([pairs[:1], pairs]),
              render(percolation_ifs(3, 2), depth=3).points, lattice * 0.1, lattice[::-1]]
    for pts in clouds:
        gaps = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
        brute = gaps[np.triu_indices(len(pts), 1)].min()
        unbounded = float(cKDTree(pts).query(pts, k=2)[0][:, 1].min())
        alone, ranked = geometry._BallIndex(pts), geometry._BallIndex(pts)
        assert ranked.near.shape == (len(pts), 2)
        assert alone.spacing == ranked.spacing == unbounded
        assert unbounded == pytest.approx(brute, rel=1e-9, abs=1e-15)
        assert "near" not in vars(alone)
    assert geometry._BallIndex(rng.random((30, 3))).spacing == 0.0


def test_subset_floor_is_below_the_width(grid6):
    # a lattice cloud and a random-walk cloud with no lattice structure; the
    # subset floor (strided points) and the ball floor (the ball's own points)
    rng = np.random.default_rng(5)
    walk = np.cumsum(rng.normal(size=(30_000, 2)), axis=0)
    for cloud in (grid6, PointCloud(walk / np.ptp(walk), 0.0)):
        balls = geometry._BallWidths(cloud, 0.01, 0.0)
        pts, diam = cloud.points, cloud.diameter()
        raised = positive = 0
        for _ in range(40):
            x, xi = pts[rng.integers(len(pts))], diam * 2.0 ** -rng.uniform(2, 6)
            idx = balls.tree.query_ball_point(x, xi)
            w = width(pts[idx]).w / xi
            floor = balls._floor(x, xi, len(idx), math.inf)
            assert floor <= w
            raised += floor > geometry._packing_width_bound(len(idx), balls.spacing, xi) / xi
            ball_floor = balls._ball_floor(pts[idx], xi)
            assert ball_floor <= w
            positive += ball_floor > 0
        assert raised >= 10
        assert positive >= 30


def _support_floor_clouds(rng):
    """Planar point sets on which the support floor must stay under the width."""
    for _ in range(150):  # lattice points, some rotated
        k = int(rng.integers(2, 12))
        grid = np.argwhere(rng.random((k, k)) < rng.uniform(0.2, 1.0)) / k
        if len(grid):
            a = rng.choice([0.0, rng.uniform(0, math.pi)])
            yield grid @ np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])
    for _ in range(150):  # random walks
        yield np.cumsum(rng.normal(size=(int(rng.integers(3, 300)), 2)), axis=0)
    for _ in range(150):  # near-collinear, 1e-9 thick, rotated
        n = int(rng.integers(3, 100))
        a = rng.uniform(0, 2 * math.pi)
        along, across = rng.uniform(-1, 1, n), 1e-9 * rng.uniform(-1, 1, n)
        u, v = np.array([math.cos(a), math.sin(a)]), np.array([-math.sin(a), math.cos(a)])
        yield along[:, None] * u + across[:, None] * v + rng.normal(size=2)
    for _ in range(150):  # duplicate points
        base = rng.random((int(rng.integers(1, 8)), 2))
        yield base[rng.integers(0, len(base), size=int(rng.integers(2, 40)))]


def test_support_floor_is_below_the_width():
    rng = np.random.default_rng(11)
    positive = 0
    for pts in _support_floor_clouds(rng):
        floor = geometry._support_floor(pts)
        w = width(pts).w
        # `_BallWidths` counts a floor f as f - 1e-12 * max(1, f)
        assert floor - 1e-12 * max(1.0, floor) <= w, (floor, w)
        positive += floor > 0
    assert positive >= 300


def test_support_floor_of_at_most_two_distinct_support_points_is_zero():
    rng = np.random.default_rng(12)
    pair = rng.random((2, 2))
    line = np.column_stack([rng.random(20), np.full(20, 0.3)])
    for pts in (pair[:1], pair, pair[[0, 1, 1, 0, 1]], np.repeat(pair[:1], 5, axis=0), line,
                line[:, ::-1]):
        assert geometry._support_floor(pts) == 0.0
    # a triangle's floor is its exact half-width: area over the longest side
    tri = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])
    assert geometry._support_floor(tri) == pytest.approx(6.0 / math.sqrt(18.0), rel=1e-15)


def test_tiny_hull_takes_the_svd_width_and_a_zero_support_floor():
    # every hull edge is shorter than 1e-15, so no edge normal is trusted
    tiny = np.array([[0.0, 0.0], [0.0, 1e-16], [1e-16, 0.0]])
    assert geometry._support_floor(tiny) == 0.0
    assert 0.0 <= width(tiny).w <= 1e-16


def _no_floor(self, *args):
    return -math.inf


def _plain(res):
    """Check result with the witness hyperplane as numbers, `cleared` dropped."""
    out = {k: v for k, v in res.items() if k != "cleared"}
    wit = dict(out["witness"])
    hp = wit.pop("hyperplane")
    wit["hyperplane"] = (hp.normal.tolist(), hp.offset)
    out["witness"] = wit
    return out


def test_packing_floor_only_saves_work(grid6, monkeypatch):
    with_floor = empirical_diffuse_check(grid6, beta=0.01, sample_count=90, seed=0)
    monkeypatch.setattr(geometry._BallWidths, "_floor", _no_floor)
    monkeypatch.setattr(geometry._BallWidths, "_ball_floor", _no_floor)
    without = empirical_diffuse_check(grid6, beta=0.01, sample_count=90, seed=0)
    assert with_floor["cleared"] > 0 and without["cleared"] == 0
    assert _plain(with_floor) == _plain(without)


def _batched_and_per_ball(monkeypatch, runs):
    """`runs()` as it is, and again with every ball counted by its own query
    whatever count the caller passes, as before the counts were batched; and,
    for each call of the first that came with a count, whether the ball's own
    query gives the same."""
    call, given = geometry._BallWidths.__call__, []

    def spy(self, x, xi, n=None):
        if n is not None:
            given.append(n == self.tree.query_ball_point(x, xi, return_length=True))
        return call(self, x, xi, n)

    monkeypatch.setattr(geometry._BallWidths, "__call__", spy)
    batched = runs()
    monkeypatch.setattr(geometry._BallWidths, "__call__", lambda self, x, xi, n=None:
                        call(self, x, xi))
    return batched, runs(), given


def test_batched_ball_counts_change_nothing(grid6, monkeypatch):
    def runs():
        return [empirical_diffuse_check(grid6, beta=b, sample_count=90, seed=0)
                for b in (0.01, 0.9)] + [geometry._flat_ball_search(grid6, 0.01, 800, seed=1)]

    batched, per_ball, given = _batched_and_per_ball(monkeypatch, runs)
    for a, b in zip(batched[:2], per_ball[:2]):
        assert a["cleared"] == b["cleared"] and _plain(a) == _plain(b)
        assert a["witness"]["hyperplane"].offset == b["witness"]["hyperplane"].offset
    assert batched[2] == per_ball[2]
    assert sum(r["cleared"] for r in batched) > 0
    # every ball of the profiles and of the search's random phase came
    # counted, and counted right
    assert all(given) and len(given) >= sum(r["tested"] for r in batched[:2]) + 500


def test_batched_ball_counts_change_nothing_on_the_pinned_run(monkeypatch):
    # the raw sample and the control of the pinned non-diffuseness run, each
    # searched as the experiment does it and profiled (the control, of depth
    # 5, on the two scales its resolution allows)
    ifs = percolation_ifs(3, 2)
    tree = sample_gw(Binomial(9, 0.6), 6, seed=labeled_seed(42, "sample")).tree
    runs = [(render(ifs, tree=tree), labeled_seed(42, "search"), 3),
            (render(ifs, depth=5), labeled_seed(42, "control"), 2)]

    def checks():
        return [(geometry._flat_ball_search(cloud, 0.01, 1000, sd),
                 empirical_diffuse_check(cloud, 0.01, scales, 900, seed=sd))
                for cloud, sd, scales in runs]

    batched, per_ball, given = _batched_and_per_ball(monkeypatch, checks)
    for (search, profile), (ref_search, ref_profile) in zip(batched, per_ball):
        assert search == ref_search
        assert profile["cleared"] == ref_profile["cleared"] > 0
        assert _plain(profile) == _plain(ref_profile)
        assert profile["witness"]["hyperplane"].offset == \
            ref_profile["witness"]["hyperplane"].offset
    assert all(given) and len(given) >= 2 * 900


def test_flat_ball_search_one_dimensional_pairs():
    # every ball of radius >= 0.11 holds a pair 0.1 apart: width 0.05, not 0
    pts = np.array([[0.0], [0.1], [1.0], [1.1], [2.0], [2.1]])
    res = geometry._flat_ball_search(PointCloud(pts, 1e-6), beta=0.01, budget=200,
                                     seed=0, xi_floor=0.11)
    assert res["found"] is None
    assert res["best"]["ratio"] > 0
    assert res["best"]["width"] == pytest.approx(0.05, rel=1e-12)


def test_width_planar_matches_all_edge_normals():
    # brute force over the normal of every pair of points; the circle's hull
    # spans several projection chunks
    rng = np.random.default_rng(7)
    clouds = [rng.normal(size=(int(rng.integers(3, 40)), 2)) * rng.uniform(0.01, 3.0, size=2)
              for _ in range(40)]
    t = np.linspace(0.0, 2.0 * math.pi, 1200, endpoint=False)
    clouds.append(np.column_stack([np.cos(t), 0.5 * np.sin(t)]))
    for pts in clouds:
        if len(pts) > 200:
            i, j = np.arange(len(pts)), (np.arange(len(pts)) + 1) % len(pts)
        else:
            i, j = np.triu_indices(len(pts), 1)
        e = pts[j] - pts[i]
        u = np.column_stack([-e[:, 1], e[:, 0]]) / np.linalg.norm(e, axis=1)[:, None]
        proj = pts @ u.T
        brute = 0.5 * (proj.max(axis=0) - proj.min(axis=0)).min()
        res = width(pts)
        assert res.w == pytest.approx(brute, rel=1e-12, abs=1e-15)
        assert geometry._slab(pts, res.witness.normal)[0] == res.w


def test_empirical_diffuse_check_flat_cloud_fails():
    t = np.linspace(0.0, 1.0, 400)
    pts = np.stack([t, 0.5 + 1e-9 * t], axis=1)
    res = empirical_diffuse_check(PointCloud(pts, 1e-6), beta=0.05,
                                  sample_count=60, seed=0)
    assert not res["pass"]
    assert res["witness"]["ratio"] <= 0.05


def test_empirical_diffuse_check_scale_floor():
    cloud = render(percolation_ifs(3, 2), depth=3)
    with pytest.raises(InvalidInputError):
        empirical_diffuse_check(cloud, beta=0.01, scale_count=5)


def uniform_measured(depth=4):
    ifs = percolation_ifs(3, 2)
    cloud = render(ifs, depth=depth)
    n = len(cloud.points)
    half = ifs.diameter_bound() / 2.0
    radii = np.full(n, (1 / 3.0) ** depth * half)
    return MeasuredCloud(cloud.points, np.full(n, 1.0 / n), radii)


class _EveryPoint:
    """KD-tree stand-in whose every query returns the whole cloud, for one
    centre or for each of a batch of centres."""

    def __init__(self, pts):
        self.n = len(pts)

    def query_ball_point(self, x, r, return_sorted=None, return_length=False):
        if np.ndim(x) == 1:
            return self.n if return_length else list(range(self.n))
        return np.full(len(x), self.n) if return_length else [list(range(self.n)) for _ in x]


def test_ahlfors_reach_filter_matches_full_scan(monkeypatch):
    # cells of unequal radii, so a reach short of r + max(radii) drops some
    rng = np.random.default_rng(11)
    n = 3000
    mc = MeasuredCloud(rng.random((n, 2)), rng.random(n), rng.uniform(0.0, 0.03, n))
    got = ahlfors_ratio_check(mc, 1.5, sample_count=300, seed=4)
    monkeypatch.setattr(geometry, "_cKDTree", _EveryPoint)
    want = ahlfors_ratio_check(mc, 1.5, sample_count=300, seed=4)
    assert got == want
    assert any(0.0 < s["inner"] < s["outer"] for s in got.samples)


def _per_ball_samples(mc, res, seed):
    """The samples of `res` recomputed one ball at a time: each ball's
    KD-tree candidates sorted, measured and masked on their own."""
    pts, masses, radii = mc.points, mc.masses, mc.cell_radii
    if abs(masses.sum() - 1.0) > 1e-6:
        masses = masses / masses.sum()
    cell = float(radii.max())
    rs = list(dict.fromkeys(s["r"] for s in res.samples))
    per = len(res.samples) // len(rs)
    rng = np.random.Generator(np.random.Philox(key=seed))
    tree = cKDTree(pts)
    samples = []
    for rad in rs:
        for i in rng.choice(len(pts), size=per, p=masses):
            near = np.sort(np.array(tree.query_ball_point(pts[i], (rad + cell) * (1.0 + 1e-9)),
                                    dtype=np.intp))
            dist = np.linalg.norm(pts[near] - pts[i], axis=1)
            m, r = masses[near], radii[near]
            samples.append({"r": rad, "inner": float(m[dist + r <= rad].sum()),
                            "outer": float(m[dist <= rad + r].sum())})
    return samples


@pytest.mark.parametrize("cap", [5, 1000, geometry._BALL_CANDIDATES])
def test_ahlfors_batches_match_the_per_ball_loop(monkeypatch, cap):
    # these balls hold 75 to 793 candidates: a cap of 5 puts each in a batch
    # of its own, 1000 takes a few at a time, the default a whole radius
    monkeypatch.setattr(geometry, "_BALL_CANDIDATES", cap)
    rng = np.random.default_rng(3)
    clouds = [MeasuredCloud(rng.random((2000, 2)), rng.random(2000), rng.uniform(0.0, 0.02, 2000)),
              MeasuredCloud(rng.random((1500, 3)), rng.random(1500), rng.uniform(0.0, 0.04, 1500)),
              uniform_measured(depth=3)]
    for mc in clouds:
        res = ahlfors_ratio_check(mc, 1.7, sample_count=120, seed=9)
        assert res.samples == _per_ball_samples(mc, res, 9)
        inner = [s["inner"] / s["r"] ** 1.7 for s in res.samples]
        outer = [s["outer"] / s["r"] ** 1.7 for s in res.samples]
        assert (res.c1_hat, res.c2_hat) == (min(inner), max(outer))


def test_ahlfors_uniform_grid_tight():
    mc = uniform_measured()
    res = ahlfors_ratio_check(mc, 2.0, sample_count=400, seed=0)
    assert 0 < res.c1_hat < res.c2_hat
    assert res.spread < 20.0
    again = ahlfors_ratio_check(mc, 2.0, sample_count=400, seed=0)
    assert res.spread == again.spread  # deterministic per seed


def test_ahlfors_wrong_exponent_spreads():
    mc = uniform_measured()
    good = ahlfors_ratio_check(mc, 2.0, sample_count=400, seed=0)
    bad = ahlfors_ratio_check(mc, 2.3, sample_count=400, seed=0)
    assert bad.spread > good.spread


def test_cloud_csv_roundtrip():
    cloud = square_cloud(eps=0.25)
    text = cloud_to_csv(cloud)
    back = cloud_from_csv(text, eps=0.25)
    assert np.allclose(back.points, cloud.points)
    assert back.eps == 0.25


def test_csv_text_matches_the_per_row_writer():
    def per_row(rows):
        return "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist())

    rng = np.random.default_rng(4)
    special = [0.0, -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, 1.0, -1e300]
    for cols in (1, 2, 3, 4):
        for rows in (0, 1, 7, 300):
            m = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-320, 300, size=(rows, cols))
            mask = rng.random((rows, cols)) < 0.3
            m[mask] = rng.choice(special, size=int(mask.sum()))
            assert geometry._csv_text(m) == per_row(m)


def test_csv_writers_keep_repr_digits():
    from gwfract.cli import measured_from_csv, measured_to_csv

    mc = uniform_measured(depth=2)
    text = cloud_to_csv(PointCloud(mc.points, 0.0))
    assert text == "".join(",".join(repr(float(x)) for x in p) + "\n" for p in mc.points)
    assert np.array_equal(cloud_from_csv(text).points, mc.points)
    text = measured_to_csv(mc)
    assert text.splitlines()[0] == ",".join(
        repr(float(x)) for x in (*mc.points[0], mc.masses[0], mc.cell_radii[0]))
    back = measured_from_csv(text)
    for got, want in ((back.points, mc.points), (back.masses, mc.masses),
                      (back.cell_radii, mc.cell_radii)):
        assert np.array_equal(got, want)
    assert measured_to_csv(back) == text


def _reference_csv_rows(text, what):
    """The line-by-line CSV parser the byte-level one replaced, kept as a
    reference (it read nan and inf as numbers)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    widths = {ln.count(",") for ln in lines}
    if len(widths) > 1:
        raise InvalidInputError("%s CSV rows must all have the same number of columns" % what)
    try:
        flat = np.array(",".join(lines).split(",") if lines else [], dtype=float)
    except ValueError:
        raise InvalidInputError("%s CSV holds a value that is not a number" % what)
    return flat.reshape(len(lines), -1) if lines else flat.reshape(0, 2)


def _parsed_alike(text):
    """Both parsers' outcome on `text`: the array, bit for bit, or the message."""
    out = []
    for parse in (geometry._csv_rows, _reference_csv_rows):
        try:
            rows = parse(text, "cloud")
            out.append((rows.shape, rows.tobytes()))
        except InvalidInputError as err:
            out.append(str(err))
    return out[0] == out[1], out[0]


def test_csv_rows_match_the_line_parser():
    rng = np.random.default_rng(11)
    cells = ["0", "-0", "0.0", "-0.0", "5e-324", "-4.9e-324", "2.2250738585072014e-308",
             "1e-310", "1E5", "-3.5e+10", "1.7976931348623157e308", ".5", "5.", " 2.5 ",
             "\t-7", "12345678901234567890", "0.1", "1_0"]
    bad = ["x", "", "0x1", "--1", "1e", "nan?", "1.5.2"]
    seen = set()
    for trial in range(400):
        cols, n = int(rng.integers(1, 5)), int(rng.integers(0, 12))
        rows = [[str(rng.choice(cells)) if rng.random() < 0.4 else repr(float(rng.normal()))
                 for _ in range(cols)] for _ in range(n)]
        kind = trial % 4
        if kind == 1 and n:  # a ragged row
            row = rows[int(rng.integers(n))]
            if rng.random() < 0.5:
                row.append("1.0")
            else:
                row.pop()
        if kind == 2 and n:  # a cell that is not a number
            rows[int(rng.integers(n))][int(rng.integers(cols))] = str(rng.choice(bad))
        lines = [",".join(r) for r in rows]
        for _ in range(int(rng.integers(0, 3))):
            lines.insert(int(rng.integers(0, len(lines) + 1)), str(rng.choice(["", "  ", "\t"])))
        end = "\n" if rng.random() < 0.7 else ""
        text = ("\r\n" if trial % 3 == 0 else "\n").join(lines) + end
        same, outcome = _parsed_alike(text)
        assert same, text
        seen.add(outcome if isinstance(outcome, str) else "array")
    assert seen == {"array", "cloud CSV rows must all have the same number of columns",
                    "cloud CSV holds a value that is not a number"}
    # and on everything the writers produce
    mc = uniform_measured(depth=2)
    for m in (render(percolation_ifs(3, 2), depth=4).points,
              np.column_stack((mc.points, mc.masses, mc.cell_radii)), np.zeros((0, 2))):
        assert _parsed_alike(geometry._csv_text(m)) == (True, (m.shape, m.tobytes()))


@pytest.mark.parametrize("value", ["nan", "-nan", "inf", "-inf", "Infinity", "1e400"])
def test_csv_rows_reject_non_finite_values(value):
    with pytest.raises(InvalidInputError, match="not finite"):
        geometry._csv_rows("0.5,0.25\n0.1,%s\n" % value, "cloud")


def test_cloud_pgm_header():
    blob = cloud_to_pgm(square_cloud(), pixels=64)
    assert blob.startswith(b"P5")
    assert b"64 64" in blob[:20]


def test_ifs_json_roundtrip():
    # box and ball open sets, planar angles and 3-d rotation matrices
    ball = SimilarityIFS(2, [SimilarityMap(0.3, np.eye(2), t)
                             for t in ([0.5, 0.0], [0.0, 0.5], [-0.5, 0.0])],
                         osc=OSCBall([0.0, 0.0], 1.0))
    for ifs in (percolation_ifs(3, 2), sierpinski_ifs(), rotation_ifs_3d(), ball):
        back = ifs_from_json(ifs_to_json(ifs))
        assert back.alphabet_size == ifs.alphabet_size
        assert back.d == ifs.d
        assert type(back.osc) is type(ifs.osc)
        x = np.array([[0.3, 0.7, 0.2][:ifs.d]])
        for m1, m2 in zip(ifs.maps, back.maps):
            assert np.allclose(m1.apply(x), m2.apply(x))
    assert ifs_to_json(ifs_from_json(ifs_to_json(ball)))["osc"] == {
        "kind": "ball", "center": [0.0, 0.0], "radius": 1.0}


def test_render_words_base_point():
    ifs = percolation_ifs(3, 2)
    words = [Word((0,)), Word((8,))]
    c1 = render_words(ifs, words)
    c2 = render_words(ifs, words, base_point=np.array([0.0, 0.0]))
    assert c1.points.shape == (2, 2)
    assert not np.allclose(c1.points, c2.points)


def test_similarity_map_validation():
    with pytest.raises(InvalidInputError):
        SimilarityMap(1.5, np.eye(2), np.zeros(2))  # expanding
    with pytest.raises(InvalidInputError):
        SimilarityMap(0.5, np.eye(2) + 0.2, np.zeros(2))  # not orthogonal
    m = SimilarityMap(0.5, np.eye(2), np.array([0.25, 0.0]))
    assert m.ratio == pytest.approx(0.5)
    assert np.allclose(m.apply([[1.0, 1.0]]), [[0.75, 0.5]])


def test_ifs_requires_contractions_and_dim():
    with pytest.raises(InvalidInputError):
        SimilarityIFS(2, [])


def brute_certificate(maps, cloud, directions):
    """Reference certificate that projects every image of every cloud point."""
    pts = cloud.points
    d = pts.shape[1]
    imgs = [m.apply(pts) for m in maps]
    infl = np.array([cloud.eps * m.ratio for m in maps])
    allpts = np.vstack(imgs)
    lip = float(np.linalg.norm(allpts - allpts.mean(axis=0), axis=1).max())
    if d == 2:
        angles = np.linspace(0.0, math.pi, directions, endpoint=False)
        grid = np.column_stack([np.cos(angles), np.sin(angles)])
    elif d == 3:
        grid = geometry._fibonacci_sphere(directions)
    else:
        raw = np.random.Generator(np.random.Philox(key=directions)).normal(size=(directions, d))
        grid = raw / np.linalg.norm(raw, axis=1, keepdims=True)

    def c_of(u):
        L = max(float((img @ u).min()) - e for img, e in zip(imgs, infl))
        H = min(float((img @ u).max()) + e for img, e in zip(imgs, infl))
        return max(0.0, 0.5 * (L - H))

    cvals = [c_of(u) for u in grid]
    k = int(np.argmin(cvals))
    raw_min = cvals[k]
    if d == 2:
        th0 = math.atan2(grid[k][1], grid[k][0])
        span = math.pi / directions
        _, v, _ = geometry._golden_min(
            lambda th: c_of(np.array([math.cos(th), math.sin(th)])),
            th0 - span, th0 + span, iters=50)
        raw_min = min(raw_min, v)
    tol = lip * geometry._coverage_halfangle(d, directions)
    return max(0.0, raw_min - tol), raw_min, tol


def random_family(rng, d, n):
    maps = []
    for _ in range(n):
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        maps.append(SimilarityMap(rng.uniform(0.1, 0.45), q * np.sign(np.diag(r)),
                                  rng.uniform(0.0, 1.0, d)))
    return maps


def assert_matches_brute(maps, cloud, directions):
    res = diffuseness_constant(maps, cloud, directions=directions)
    c_low, raw_min, tol = brute_certificate(maps, cloud, directions)
    assert res.raw_min == pytest.approx(raw_min, rel=1e-12, abs=1e-300)
    assert res.c_low == pytest.approx(c_low, rel=1e-12, abs=1e-15)
    assert res.tol == pytest.approx(tol, rel=1e-12)
    return res


@pytest.mark.parametrize("d", [2, 3])
def test_hull_certificate_matches_all_points(d):
    rng = np.random.default_rng(d)
    positive = 0
    for _ in range(8):
        cloud = PointCloud(rng.uniform(0.0, 1.0, size=(300, d)), 1e-3)
        res = assert_matches_brute(random_family(rng, d, int(rng.integers(4, 9))),
                                   cloud, directions=150)
        positive += res.raw_min > 0
    assert positive >= 4  # the comparison is not all zeros


def test_hull_certificate_duplicate_and_collinear_points():
    # square grid: edge midpoints are collinear with corners, corners repeat
    g = np.linspace(0.0, 1.0, 5)
    pts = np.array([[x, y] for x in g for y in g] + [[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 2)
    cloud = PointCloud(pts, 0.0)
    assert len(cloud.hull) == 4
    assert_matches_brute(percolation_ifs(3, 2).maps, cloud, directions=400)
    rng = np.random.default_rng(7)
    assert_matches_brute(random_family(rng, 2, 4), cloud, directions=400)


def test_hull_certificate_degenerate_clouds_fall_back():
    line = PointCloud(np.array([[t, 2.0 * t] for t in np.linspace(0.0, 1.0, 9)]), 0.0)
    assert len(line.hull) == len(line)  # Qhull refuses; the whole cloud stands in
    res = diffuseness_constant(percolation_ifs(3, 2).maps, line, directions=100)
    assert res.c_low == 0.0 and "degenerate" in res.note


def test_hull_certificate_one_dimensional_cloud():
    pts = np.array([[0.4], [0.0], [1.0], [0.7], [1.0]])
    cloud = PointCloud(pts, 0.01)
    assert sorted(cloud.hull[:, 0]) == [0.0, 1.0]
    maps = [SimilarityMap(1 / 3.0, np.eye(1), [t]) for t in (0.0, 2 / 3.0)]
    res = assert_matches_brute(maps, cloud, directions=100)
    assert res.c_low > 0


def test_hull_certificate_single_map():
    res = diffuseness_constant(percolation_ifs(3, 2).maps[:1], square_cloud(), directions=100)
    assert res.c_low == 0.0 and res.raw_min == 0.0
    assert "single map" in res.note


def test_certificates_share_the_cloud_width(monkeypatch):
    calls = []
    real = geometry.width
    monkeypatch.setattr(geometry, "width", lambda *a, **k: calls.append(1) or real(*a, **k))
    cloud = render(percolation_ifs(3, 2), depth=3)
    maps = percolation_ifs(3, 2).maps
    first = diffuseness_constant(maps[:5], cloud, directions=100)
    again = diffuseness_constant(maps[:5], cloud, directions=100)
    assert len(calls) == 1
    assert (first.c_low, first.raw_min) == (again.c_low, again.raw_min)


def brute_width(pts, directions=2000):
    """Reference width for d >= 3 that projects every point, not the hull."""
    n, d = pts.shape
    u0, _ = geometry._flat_direction(pts)
    grid = geometry._fibonacci_sphere(directions) if d == 3 else None
    if grid is None:
        raw = np.random.Generator(np.random.Philox(key=directions)).normal(
            size=(max(directions, 100), d))
        grid = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    grid = np.vstack([grid, u0.reshape(1, -1)])
    proj = pts @ grid.T
    widths = 0.5 * (proj.max(axis=0) - proj.min(axis=0))
    best = None
    for k in np.argsort(widths)[:5]:
        u = grid[k].copy()
        for _ in range(3):
            for tvec in np.linalg.svd(u.reshape(1, -1), full_matrices=True)[2][1:]:
                def f(theta, u=u, tvec=tvec):
                    v = math.cos(theta) * u + math.sin(theta) * tvec
                    return geometry._slab(pts, v / np.linalg.norm(v))[0]

                th, _, _ = geometry._golden_min(f, -0.05, 0.05, iters=40)
                u = math.cos(th) * u + math.sin(th) * tvec
                u /= np.linalg.norm(u)
        w, b = geometry._slab(pts, u)
        if best is None or w < best[0]:
            best = (w, u, b)
    return best


def test_width_3d_hull_matches_all_points():
    rng = np.random.default_rng(11)
    clouds = [render(percolation_ifs(2, 3), depth=4).points]
    clouds += [rng.normal(size=(300, 3)) * [1.0, 2.0, 0.3] for _ in range(6)]
    clouds += [rng.uniform(size=(200, 4))]
    for pts in clouds:
        res = width(pts)
        w, u, b = brute_width(pts)
        assert res.w == pytest.approx(w, rel=1e-12, abs=1e-15)
        assert np.allclose(res.witness.normal, u, rtol=0.0, atol=1e-12)
        assert res.witness.offset == pytest.approx(b, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("b, d, want", [
    # 81 maps: the block family of the gallery grid
    (3, 2, ("0.3829218945656951", "0.38569488734602714", "0.0027729927803320405",
            "[1.0, 0.0]", "0.49999999999999994")),
    # 64 maps in 3-d: no refinement, the grid phase alone
    (2, 3, ("0.0996918632292123", "0.21904098918825524", "0.11934912595904294",
            "[0.9983385737246263, 0.0037205125290762295, 0.057499999999999996]",
            "0.5297795431268513")),
])
def test_block_family_certificates_are_pinned(monkeypatch, b, d, want):
    ifs = percolation_ifs(b, d=d)
    n = ifs.alphabet_size
    fam = [word_map(ifs, (u, v)) for u in range(n) for v in range(n)]
    res = diffuseness_constant(fam, extraction._attractor_cloud(ifs), directions=400)
    assert (repr(res.c_low), repr(res.raw_min), repr(res.tol),
            repr(res.witness.normal.tolist()), repr(res.witness.offset)) == want
    monkeypatch.setattr(extraction, "_BLOCK_CONSTANT", {})
    assert repr(extraction._block_family_constant(b, d)) == want[0]


def test_certificate_grid_chunks_change_nothing(monkeypatch):
    # a budget of a few elements splits the grid phase into runs of maps and
    # of directions; every projection stays within it, the result is the same
    ifs = percolation_ifs(3, 2)
    fam = [word_map(ifs, (u, v)) for u in range(9) for v in range(9)][::4]
    F = extraction._attractor_cloud(ifs)
    whole = diffuseness_constant(fam, F, directions=150)
    sizes = []
    real = np.minimum.reduceat

    def spy(proj, *args, **kwargs):
        if proj.ndim == 2:  # the grid phase's; the refinement projects one direction
            sizes.append(proj.size)
        return real(proj, *args, **kwargs)

    monkeypatch.setattr(geometry, "_PROJ_BUDGET", 3 * len(F.hull))
    monkeypatch.setattr(np.minimum, "reduceat", spy, raising=False)
    chunked = diffuseness_constant(fam, F, directions=150)
    assert (chunked.c_low, chunked.raw_min, chunked.tol, chunked.witness.offset) == \
        (whole.c_low, whole.raw_min, whole.tol, whole.witness.offset)
    assert np.array_equal(chunked.witness.normal, whole.witness.normal)
    assert len(sizes) > 150 // 3 and max(sizes) <= 3 * len(F.hull)


def test_width_3d_memory_is_bounded(monkeypatch):
    monkeypatch.setattr(extraction, "_BLOCK_CONSTANT", {})
    tracemalloc.start()
    try:
        c = extraction._block_family_constant(2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c > 0
    assert peak < 8 * 2 ** 20  # projecting all 4096 points on 2001 directions took 66 MB


def test_block_certificate_memory_is_bounded(monkeypatch):
    monkeypatch.setattr(extraction, "_BLOCK_CONSTANT", {})
    tracemalloc.start()
    try:
        c = extraction._block_family_constant(3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c > 0
    assert peak < 64 * 2 ** 20
