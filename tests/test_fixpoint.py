import math

import pytest

from gwfract.symbolic import CapabilityError, InvalidInputError, Word, WeightedAlphabet
from gwfract.branching import Binomial, PerLetterBernoulli
from gwfract.fixpoint import (
    GFunction,
    MonotoneCollection,
    appendix_b_gap,
    ary_collection,
    closure_member,
    collection_from_json,
    g_k_a_curve,
    generator_collection,
    smallest_fixed_point,
    smallest_fixed_point_bisect,
    star_sup_g,
)


def test_ary_collection_membership():
    coll = ary_collection(2)
    assert coll.closure_member(frozenset({0, 1}))
    assert coll.closure_member(frozenset({3, 5, 7}))
    assert not coll.closure_member(frozenset({4}))
    assert not coll.closure_member(frozenset())


def test_generator_collection_upward_closure():
    coll = generator_collection([{0, 1}, {2}])
    assert coll.closure_member({0, 1, 5})
    assert coll.closure_member({2})
    assert not coll.closure_member({0})
    assert closure_member(coll, {1, 2})


def test_monotonicity_sampler_clean_for_upsets():
    coll = ary_collection(3)
    assert coll.monotonicity_violations(6, samples=300, seed=1) == []


def test_collection_json_roundtrip():
    coll = collection_from_json({"kind": "ary", "a": 2})
    assert coll.closure_member({1, 2})
    gen = collection_from_json({"kind": "generators", "sets": [[0], [1, 2]]})
    assert gen.closure_member({0, 7})
    with pytest.raises(InvalidInputError):
        collection_from_json({"kind": "nope"})


def test_pair_collection_closed_form_iterates():
    # three potential children kept w.p. 0.9; needing two of them to persist
    gf = GFunction(Binomial(3, 0.9), ary_collection(2))
    assert gf.strategy == "closed_form"
    v0, _ = gf.eval(0.0)
    assert v0 == pytest.approx(0.028, abs=1e-12)  # 0.1^3 + 3*0.9*0.1^2
    sol = smallest_fixed_point(gf)
    assert sol["converged"]
    assert sol["iterates"][0] == pytest.approx(0.028, abs=1e-12)
    assert sol["s0"] == pytest.approx(2.0 / 27.0, abs=1e-8)
    assert sol["tau"] == pytest.approx(25.0 / 27.0, abs=1e-8)


def test_iterations_count_every_step_past_the_iterate_cap():
    # near the first-order transition at p = 8/9 the iteration crawls through
    # a saddle-node bottleneck; the step count must not stop at the kept 1000
    gf = GFunction(Binomial(3, 8.0 / 9.0 - 1e-11), ary_collection(2))
    sol = smallest_fixed_point(gf, max_iter=1500)
    assert sol["iterations"] == 1500
    assert not sol["converged"]
    assert len(sol["iterates"]) == 1000


def test_bisect_agrees_with_iteration():
    gf = GFunction(Binomial(3, 0.9), ary_collection(2))
    s_iter = smallest_fixed_point(gf)["s0"]
    s_bis = smallest_fixed_point_bisect(gf)
    assert s_bis == pytest.approx(s_iter, abs=1e-9)


def test_enum_matches_closed_form():
    off = Binomial(9, 0.6)
    a = GFunction(off, ary_collection(2), strategy="closed_form")
    b = GFunction(off, ary_collection(2), strategy="enum")
    for s in (0.0, 0.25, 0.5, 0.9):
        assert b.eval(s)[0] == pytest.approx(a.eval(s)[0], abs=1e-12)


def test_mc_covers_exact():
    off = Binomial(9, 0.6)
    exact = GFunction(off, ary_collection(2), strategy="closed_form")
    mc = GFunction(off, ary_collection(2), strategy="mc",
                   sample_size=60_000, seed=3)
    for s in (0.1, 0.5):
        v, ci = mc.eval(s)
        half = (ci[1] - ci[0]) / 2.0
        assert abs(v - exact.eval(s)[0]) <= 2 * max(half, 1e-6)


def test_trivial_collection_shortcut():
    coll = MonotoneCollection(member=lambda S: True, kind="custom")
    gf = GFunction(Binomial(3, 0.5), coll, strategy="trivial")
    sol = smallest_fixed_point(gf)
    assert sol["tau"] == 1.0 and sol["s0"] == 0.0


def test_gk_curve_frozen_values():
    off = Binomial(9, 0.6)
    frozen = [0.196003234, 0.008184789926883722, 0.000544166038225461,
              0.00027227900678967527, 0.00026337342072377365,
              0.00026308928182231666]
    for k, want in enumerate(frozen, start=1):
        got = g_k_a_curve(off, k, 2 ** k, 0.5)
        assert got["method"] == "exact"
        assert not got["flagged"]
        assert got["value"] == pytest.approx(want, rel=1e-9)
    # decreasing toward the extinction probability of the thinned tree
    assert all(a >= b for a, b in zip(frozen, frozen[1:]))


def test_gk_curve_supercritical_target_climbs():
    off = Binomial(9, 0.6)
    got = g_k_a_curve(off, 6, 6 ** 6, 0.5)
    assert got["value"] > 0.95


def test_gk_curve_degenerate_edges():
    off = Binomial(9, 0.6)
    assert g_k_a_curve(off, 3, 0, 0.5)["value"] == 0.0
    assert g_k_a_curve(off, 2, 9 ** 2 + 1, 0.0)["value"] == 1.0
    with pytest.raises(InvalidInputError):
        g_k_a_curve(off, 0, 1, 0.5)
    with pytest.raises(InvalidInputError):
        g_k_a_curve(off, 1, 1, 1.0)


def test_gk_curve_mc_flagged_path():
    off = PerLetterBernoulli((0.9,) * 5)
    got = g_k_a_curve(off, 8, 5000, 0.2, trials=20_000, seed=1)
    assert got["method"] == "mc"
    assert got["flagged"]
    assert 0.0 <= got["ci"][0] <= got["value"] <= got["ci"][1] <= 1.0


def test_star_sup_single_factor_matches_level_two_curve():
    # rho an exact ratio power collapses the grading to a single factor a=1
    wa = WeightedAlphabet((1 / 3.0,) * 3)
    off = Binomial(3, 0.9)
    res = star_sup_g(wa, 1 / 9.0, off, ary_collection(2), s=0.0,
                     height_cap=3, trials=30_000, seed=2)
    assert len(res["per_a"]) == 1
    assert res["per_a"][0]["a"] == pytest.approx(1.0)
    exact = g_k_a_curve(off, 2, 2, 0.0)["value"]
    se = max(res["per_a"][0]["se"], 1e-6)
    assert abs(res["sup"] - exact) <= 4 * se


def test_star_sup_factor_set_unequal_weights():
    wa = WeightedAlphabet((0.5, 0.25))
    off = Binomial(2, 0.9)
    res = star_sup_g(wa, 0.2, off, ary_collection(2), s=0.1,
                     height_cap=2, trials=2_000, seed=0)
    factors = [e["a"] for e in res["per_a"]]
    assert all(wa.r_min < a <= 1.0 + 1e-12 for a in factors)
    for want in (1.0, 0.625, 0.3125):
        assert any(abs(a - want) < 1e-9 for a in factors)
    assert res["sup"] == max(e["g"] for e in res["per_a"])


def test_appendix_gap_closed_form():
    res = appendix_b_gap(0.9, 0.01, trials=50_000, seed=0)
    alpha = res["alpha"]
    assert alpha == pytest.approx(25.0 / 27.0, abs=1e-8)
    assert res["q"] == pytest.approx(2.0 / 27.0, abs=1e-8)
    assert res["g_of_q"] == pytest.approx(1.0 - (alpha + 0.01) * alpha ** 2,
                                          abs=1e-12)
    assert res["gap"] > 0.1
    assert abs(res["mc_g_of_q"] - res["g_of_q"]) <= 3 * res["mc_g_se"]


def test_appendix_gap_rejects_bad_eps():
    with pytest.raises(InvalidInputError):
        appendix_b_gap(0.9, 0.5)


def test_gfunction_rejects_nonmonotone_grid():
    bad = MonotoneCollection(member=lambda S: len(S) == 1, kind="custom")
    gf = GFunction(Binomial(3, 0.9), bad, strategy="enum")
    with pytest.raises(InvalidInputError):
        smallest_fixed_point(gf)
