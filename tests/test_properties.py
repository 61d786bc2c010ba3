"""Law-level checks: exact cover, grading, closure, width, seeds.

This file is self-contained and cheap enough to run standalone.
"""

import functools
import math

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from gwfract.symbolic import (FiniteTree, Word, WeightedAlphabet, _section_depth,
                              compress_along_pi_rho, rho_index, section_pi_rho,
                              validate_section)
from gwfract.branching import Binomial, sample_gw
from gwfract.fixpoint import ary_collection, generator_collection
from gwfract.geometry import (PointCloud, SimilarityIFS, SimilarityMap, diffuseness_constant,
                              percolation_ifs, sierpinski_ifs, width, word_map)
from gwfract.extraction import SubtreePredicate, _attractor_cloud, find_subtree


# ---------------------------------------------------------------------------
# sections partition the boundary exactly

ratio_lists = st.lists(st.floats(0.3, 0.45), min_size=2, max_size=3)


@settings(max_examples=60, deadline=None)
@given(ratio_lists, st.floats(0.4, 0.95))
def test_section_exact_cover(ratios, frac):
    weights = WeightedAlphabet(ratios)
    rho = weights.r_min * frac
    section = section_pi_rho(weights, rho)
    assert validate_section(len(ratios), section)
    assert _section_depth(weights, rho) == max(map(len, section))


@settings(max_examples=40, deadline=None)
@given(ratio_lists, st.floats(0.4, 0.95), st.integers(1, 3))
def test_section_exact_cover_deeper_levels(ratios, frac, power):
    weights = WeightedAlphabet(ratios)
    rho = weights.r_min * frac
    section = section_pi_rho(weights, rho ** power)
    assert validate_section(len(ratios), section)
    assert _section_depth(weights, rho ** power) == max(map(len, section))
    # every word weight sits in the half-open window (rho^p * r_min, rho^p]
    for w in section:
        r_w = weights.weight(w)
        assert r_w <= rho ** power * (1 + 1e-12)
        assert r_w > rho ** power * weights.r_min * (1 - 1e-12)


# ---------------------------------------------------------------------------
# grading law: children of a graded word live in the shifted section

def test_next_element_equivalence_1000_tuples():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 1000:
        n_letters = int(rng.integers(2, 4))
        ratios = rng.uniform(0.3, 0.45, size=n_letters)
        weights = WeightedAlphabet(ratios)
        rho = weights.r_min * float(rng.uniform(0.4, 0.95))
        # graded words only: the index is undefined between rho and r_min
        pick = rng.random()
        if pick < 0.15:
            i = Word()
        else:
            power = 1 if pick < 0.7 else 2
            base = section_pi_rho(weights, rho ** power)
            i = base[int(rng.integers(0, len(base)))]
        m = int(rng.integers(1, 3))
        n, a = rho_index(weights, rho, i)

        full = section_pi_rho(weights, rho ** (n + m))
        stripped = {Word(w[len(i):]) for w in full
                    if tuple(w[: len(i)]) == tuple(i)}
        shifted = section_pi_rho(weights, rho ** m / a, extended=True)
        assert stripped == set(shifted), (ratios, rho, i, m)
        checked += 1
    assert checked == 1000


# ---------------------------------------------------------------------------
# monotone collections are upward closed

gen_families = st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=3),
                        min_size=1, max_size=3)
subsets = st.sets(st.integers(0, 7), max_size=8)


@settings(max_examples=80, deadline=None)
@given(gen_families, subsets, subsets)
def test_generator_closure_laws(gens, S, T):
    coll = generator_collection([frozenset(g) for g in gens])
    member = coll.closure_member(frozenset(S))
    assert member == any(g <= S for g in gens)
    if member:
        assert coll.closure_member(frozenset(S | T))  # upward closure


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), subsets, subsets)
def test_ary_closure_laws(a, S, T):
    coll = ary_collection(a)
    assert coll.closure_member(frozenset(S)) == (len(S) >= a)
    if coll.closure_member(frozenset(S)) and S <= T:
        assert coll.closure_member(frozenset(T))


# ---------------------------------------------------------------------------
# width is an isometry invariant and scales linearly

point_lists = st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                       min_size=3, max_size=10)


@settings(max_examples=80, deadline=None)
@given(point_lists, st.floats(0, 2 * math.pi), st.floats(-5, 5), st.floats(-5, 5))
def test_width_isometry_invariance(pts, angle, tx, ty):
    arr = np.array(pts, dtype=float)
    R = np.array([[math.cos(angle), -math.sin(angle)],
                  [math.sin(angle), math.cos(angle)]])
    moved = arr @ R.T + np.array([tx, ty])
    w0 = width(PointCloud(arr, 0.0)).w
    w1 = width(PointCloud(moved, 0.0)).w
    assert abs(w0 - w1) <= 1e-8 * max(1.0, w0)


@settings(max_examples=60, deadline=None)
@given(point_lists, st.floats(0.1, 3.0))
# a hull whose edges are all shorter than 1e-15 leaves no edge normal
@example(pts=[(0.0, 0.0), (0.0, 2.225073858507203e-309), (2.225073858507e-311, 0.0)], lam=1.0)
def test_width_scaling(pts, lam):
    arr = np.array(pts, dtype=float)
    w0 = width(PointCloud(arr, 0.0)).w
    w1 = width(PointCloud(lam * arr, 0.0)).w
    assert abs(w1 - lam * w0) <= 1e-8 * max(1.0, lam * w0)


# ---------------------------------------------------------------------------
# a certificate asked only for the side of c lands on the full one's side


def _rotated_ifs():
    """Four maps of ratio 0.4 in the corners of the unit square, each turned
    by its own angle."""
    maps = []
    for i, t in enumerate(((0.0, 0.0), (0.6, 0.0), (0.0, 0.6), (0.6, 0.6))):
        th = 0.3 + 0.7 * i
        maps.append(SimilarityMap(0.4, [[math.cos(th), -math.sin(th)],
                                        [math.sin(th), math.cos(th)]], t))
    return SimilarityIFS(2, maps)


@functools.lru_cache(maxsize=None)
def _decision_system(name):
    """(one-letter maps, two-letter maps, attractor cloud) of a planar system."""
    ifs = {"grid": lambda: percolation_ifs(3, 2), "gasket": sierpinski_ifs,
           "rotated": _rotated_ifs}[name]()
    n = ifs.alphabet_size
    return (ifs.maps, [word_map(ifs, (u, v)) for u in range(n) for v in range(n)],
            _attractor_cloud(ifs))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["grid", "gasket", "rotated"]), st.booleans(),
       st.sets(st.integers(0, 80), min_size=2, max_size=20),
       st.sampled_from([60, 200, 400]),
       st.sampled_from(["full", "below", "above", "grid", "random"]), st.floats(0.0, 0.4))
def test_decision_certificate_lands_on_the_full_side(name, two_step, picks, directions,
                                                      which, x):
    one, two, F = _decision_system(name)
    pool = two if two_step else one
    family = [pool[i] for i in sorted({i % len(pool) for i in picks})]
    if len(family) < 2:
        family = pool[:2]
    full = diffuseness_constant(family, F, directions=directions)
    # with an unreachable need the call stops after the direction grid
    grid = diffuseness_constant(family, F, directions=directions, need=math.inf)
    c = {"full": full.c_low, "below": np.nextafter(full.c_low, -math.inf),
         "above": np.nextafter(full.c_low, math.inf), "grid": grid.c_low, "random": x}[which]
    got = diffuseness_constant(family, F, directions=directions, need=c)
    assert (got.c_low >= c) == (full.c_low >= c)
    # every answer is a certified bound: at most the grid phase's, with its correction
    assert full.c_low <= grid.c_low and got.c_low <= grid.c_low
    assert got.tol == full.tol == grid.tol
    assert got.c_low == max(0.0, got.raw_min - got.tol)


# ---------------------------------------------------------------------------
# finite trees agree with a plain set of tuples


@st.composite
def word_sets(draw):
    # words shorter than the depth are dead branches
    n = draw(st.integers(1, 12))
    depth = draw(st.integers(0, 4))
    word = st.lists(st.integers(0, n - 1), max_size=depth).map(tuple)
    # probes may run one letter past the alphabet and one level past the depth
    probe = st.lists(st.integers(-1, n), max_size=depth + 1).map(tuple)
    return n, depth, draw(st.lists(word, max_size=30)), draw(st.lists(probe, max_size=10))


@settings(max_examples=150, deadline=None)
@given(word_sets())
def test_tree_views_match_set_of_tuples(case):
    n, depth, words, probes = case
    nodes = {w[:i] for w in words for i in range(len(w) + 1)} | {()}
    kids = {v: frozenset(w[-1] for w in nodes if w and w[:-1] == v) for v in nodes}
    tree = FiniteTree(n, depth, words)
    assert len(tree) == len(nodes)
    assert tree.level_sizes() == [sum(len(w) == h for w in nodes) for h in range(depth + 1)]
    for h in range(depth + 1):
        assert tree.level(h) == sorted(w for w in nodes if len(w) == h)
    assert tree.children == kids
    assert all(w in tree.level(len(w)) for w in nodes)
    assert [w in tree.level(len(w)) for w in probes] == [w in nodes for w in probes]
    text = "".join("-".join(map(str, w)) + "\n" for w in sorted(nodes))
    assert tree.to_text() == text
    back = FiniteTree.from_text(text, n, depth)
    assert back == tree
    assert back.to_text() == text
    assert FiniteTree(n, depth, nodes) == tree


@settings(max_examples=150, deadline=None)
@given(word_sets())
def test_witness_is_a_lex_ordered_subtree(case):
    # the witness's level arrays reach the tree without a sort or a check, so
    # rebuilding it from its leaves, which sorts and checks each level, must
    # change nothing
    n, depth, words, _ = case
    tree = FiniteTree(n, depth, words)
    lines = set(tree.to_text().splitlines())
    for a in (1, 2, 3):
        for m in range(depth + 1):
            sub = find_subtree(tree, SubtreePredicate(a), m)
            if sub is None:
                continue
            assert FiniteTree(sub.alphabet_size, m, sub.level(m)) == sub
            assert set(sub.to_text().splitlines()) <= lines
            assert all(len(cs) == a for w, cs in sub.children.items() if len(w) < m)


@settings(max_examples=40, deadline=None)
@given(ratio_lists, st.floats(0.4, 0.95), st.integers(1, 2), st.floats(0.6, 1.0),
       st.integers(0, 2 ** 16), st.integers(1, 3))
def test_star_parents_text_and_witness_arity(ratios, frac, levels, p, seed, a):
    weights = WeightedAlphabet(ratios)
    rho = weights.r_min * frac
    depth = _section_depth(weights, rho ** levels)
    tree = sample_gw(Binomial(len(ratios), p), depth, seed=seed).tree
    star = compress_along_pi_rho(tree, weights, rho, n_levels=levels)
    words = [star.level(h) for h in range(levels + 1)]
    # a node's parent is a proper prefix one graded section up
    for h in range(1, levels + 1):
        for w, i in zip(words[h], star._parents[h].tolist()):
            u = words[h - 1][i]
            assert len(u) < len(w) and w[:len(u)] == u
            assert rho_index(weights, rho, w)[0] == rho_index(weights, rho, u)[0] + 1 == h
    assert star.to_text() == "".join(w.text + "\n" for w in sorted(sum(words, [])))
    # height h holds every realized word of the graded section rho^h
    for h in range(1, levels + 1):
        assert set(words[h]) == {w for w in section_pi_rho(weights, rho ** h)
                                 if w in tree.level(len(w))}
    for m in range(levels + 1):
        sub = find_subtree(star, SubtreePredicate(a), m)
        if sub is not None:
            assert all(len(sub.children[w]) == a for h in range(m) for w in sub.level(h))


@settings(max_examples=40, deadline=None)
@given(ratio_lists, st.floats(0.4, 0.95), st.integers(1, 2), st.floats(0.6, 1.0),
       st.integers(0, 2 ** 16))
def test_star_family_split_follows_the_weight_rule(ratios, frac, levels, p, seed):
    # a child's family prefix is the shortest prefix u of its suffix with
    # weight(u) <= rho / (a * r_min), where a = weight(parent) / rho^h
    assume(min(ratios) < max(ratios))
    weights = WeightedAlphabet(ratios)
    rho = weights.r_min * frac
    depth = _section_depth(weights, rho ** levels)
    tree = sample_gw(Binomial(len(ratios), p), depth, seed=seed).tree
    star = compress_along_pi_rho(tree, weights, rho, n_levels=levels)
    for h in range(levels):
        ups = star.level(h)
        for i, lab in zip(star._parents[h + 1].tolist(), star._letters[h + 1].tolist()):
            v = star.suffixes[lab]
            theta = rho / (weights.weight(ups[i]) / rho ** h * weights.r_min)
            want = next((n for n in range(len(v) + 1) if weights.weight(v[:n]) <= theta),
                        len(v))
            assert star.splits[lab] == want


# ---------------------------------------------------------------------------
# seeded runs are functions of the seed

def test_sampling_deterministic_per_seed():
    a = sample_gw(Binomial(9, 0.6), 4, seed=123).tree
    b = sample_gw(Binomial(9, 0.6), 4, seed=123).tree
    assert a.children == b.children
    c = sample_gw(Binomial(9, 0.6), 4, seed=124).tree
    assert a.children != c.children

