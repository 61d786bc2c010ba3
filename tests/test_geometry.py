import io
import math
import tracemalloc

import numpy as np
import pytest

from gwfract.symbolic import FiniteTree, InvalidInputError, Word, WeightedAlphabet
from gwfract.branching import Binomial, sample_gw
from gwfract import extraction, geometry
from gwfract.geometry import (
    Hyperplane,
    MeasuredCloud,
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
    grid_cell_coords,
    grid_letter,
    ifs_from_json,
    ifs_to_json,
    moran_exponent,
    percolation_ifs,
    render,
    render_words,
    sierpinski_ifs,
    width,
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


def test_grid_letter_coords_roundtrip():
    for letter in range(9):
        coords = grid_cell_coords(letter, 3, 2)
        assert grid_letter(coords, 3) == letter


def test_sierpinski_shape():
    ifs = sierpinski_ifs()
    assert ifs.alphabet_size == 3
    assert all(abs(m.ratio - 0.5) < 1e-12 for m in ifs.maps)


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


def test_diffuseness_grid_one_step():
    ifs = percolation_ifs(3, 2)
    # square corners carry the exact directional extremes of the attractor
    res = diffuseness_constant(ifs.maps, square_cloud(), directions=2000)
    # axis-aligned slab through the middle row of cells is the pinch
    assert res.raw_min == pytest.approx(1 / 6.0, abs=1e-9)
    assert 0.15 <= res.c_low <= res.raw_min + 1e-12
    assert abs(abs(res.witness.normal[0]) - 1.0) < 1e-3 or \
        abs(abs(res.witness.normal[1]) - 1.0) < 1e-3


def test_render_full_grid():
    ifs = percolation_ifs(3, 2)
    cloud = render(ifs, depth=2)
    assert len(cloud.points) == 81
    assert cloud.eps > 0
    assert cloud.d == 2


def test_render_sampled_tree_and_extinct():
    ifs = percolation_ifs(3, 2)
    tree = sample_gw(Binomial(9, 0.6), 3, seed=1).tree
    cloud = render(ifs, tree=tree)
    assert len(cloud.points) == len(tree.level(3))
    dead = FiniteTree(9, 1, {Word(): ()})
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


def test_box_dimension_needs_scales():
    with pytest.raises(InvalidInputError):
        box_dimension(square_cloud(), scales=[1.0, 0.5])


def test_empirical_diffuse_check_grid_passes():
    cloud = render(percolation_ifs(3, 2), depth=6)
    res = empirical_diffuse_check(cloud, beta=0.01, sample_count=90, seed=0)
    assert res["pass"]
    assert res["tested"] >= 90
    assert res["worst_ratio"] is None or res["worst_ratio"] > 0.01


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


def test_cloud_pgm_header():
    blob = cloud_to_pgm(square_cloud(), pixels=64)
    assert blob.startswith(b"P5")
    assert b"64 64" in blob[:20]


def test_ifs_json_roundtrip():
    for ifs in (percolation_ifs(3, 2), sierpinski_ifs()):
        back = ifs_from_json(ifs_to_json(ifs))
        assert back.alphabet_size == ifs.alphabet_size
        assert back.d == ifs.d
        x = np.array([[0.3, 0.7]])
        for m1, m2 in zip(ifs.maps, back.maps):
            assert np.allclose(m1.apply(x), m2.apply(x))


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
