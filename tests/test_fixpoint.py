import itertools
import math

import numpy as np
import pytest

from gwfract.symbolic import InvalidInputError
from gwfract.branching import Binomial, ExplicitTable, PerLetterBernoulli, labeled_seed
from gwfract.fixpoint import (
    GFunction,
    _member_thresholds,
    _poly_mul_trunc,
    appendix_b_gap,
    ary_collection,
    collection_from_json,
    g_k_a_curve,
    generator_collection,
    smallest_fixed_point,
    smallest_fixed_point_bisect,
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
    assert coll.closure_member({1, 2})


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


def _counting(gf):
    """Record every point at which gf is evaluated."""
    calls = []
    real = gf.eval
    gf.eval = lambda s: calls.append(s) or real(s)
    return calls


def _assert_checked(gf, sol, tol):
    lo, hi = sol["interval"]
    assert sol["converged"] and hi - lo <= tol
    assert sol["s0"] == hi
    assert gf.eval(hi)[0] <= hi
    assert lo == hi or gf.eval(lo)[0] > lo


def _pair_tau(p):
    """tau for Binomial(3, p) and ary(2): larger root of 2p^3 t^2 - 3p^2 t + 1, or 0."""
    disc = 9.0 * p ** 4 - 8.0 * p ** 3
    return 0.0 if disc < 0.0 else (3.0 * p * p + math.sqrt(disc)) / (4.0 * p ** 3)


def test_near_critical_solve_certifies_tau_zero():
    # just below the first-order transition at p = 8/9 the Kleene iteration
    # crawls through a saddle-node bottleneck; the solve must pass the
    # minimum of g - id, find no crossing below 1, and report tau = 0
    gf = GFunction(Binomial(3, 8.0 / 9.0 - 1e-11), ary_collection(2))
    calls = _counting(gf)
    sol = smallest_fixed_point(gf)
    assert sol["tau"] == 0.0
    assert sol["converged"]
    assert sol["interval"][0] <= 1.0 <= sol["interval"][1]
    # `iterations` counts every evaluation past the 21-point monotonicity grid
    assert sol["iterations"] == len(calls) - 21
    assert len(calls) < 300
    _assert_checked(gf, sol, 1e-10)


@pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-9, 1e-11])
def test_just_above_critical_finds_the_narrow_dip(delta):
    # above p = 8/9, g dips under the diagonal on a window about 1.8 sqrt(delta)
    # wide near s = 0.156, far narrower than a scan cell
    p = 8.0 / 9.0 + delta
    gf = GFunction(Binomial(3, p), ary_collection(2))
    sol = smallest_fixed_point(gf)
    assert sol["tau"] == pytest.approx(_pair_tau(p), abs=1e-8)
    assert sol["iterations"] < 100
    _assert_checked(gf, sol, 1e-10)
    assert 1.0 - smallest_fixed_point_bisect(gf) == pytest.approx(_pair_tau(p), abs=1e-8)


def test_critical_point_keeps_both_candidates():
    # at p = 8/9 g touches the diagonal at s = 5/32 to within rounding: the
    # solve cannot tell tau = 27/32 from tau = 0 and must not claim either
    sol = smallest_fixed_point(GFunction(Binomial(3, 8.0 / 9.0), ary_collection(2)))
    lo, hi = sol["interval"]
    assert not sol["converged"]
    assert lo <= 5.0 / 32.0 and hi == 1.0


def test_converged_results_carry_checked_interval():
    rng = np.random.default_rng(5)
    cases = [GFunction(Binomial(3, p), ary_collection(2)) for p in (0.85, 0.9, 0.95)]
    for _ in range(6):
        n = int(rng.integers(3, 9))
        gens = [tuple(rng.choice(n, size=int(rng.integers(1, 3)), replace=False))
                for _ in range(int(rng.integers(1, 5)))]
        cases.append(GFunction(PerLetterBernoulli(rng.uniform(0.3, 1.0, n)),
                               generator_collection(gens), strategy="enum"))
    for gf in cases:
        for tol in (1e-10, 1e-13):
            sol = smallest_fixed_point(gf, tol=tol)
            _assert_checked(gf, sol, tol)
            its = sol["iterates"]
            assert all(b >= a for a, b in zip(its, its[1:]))
            assert its[-1] <= sol["s0"]
            # no point of a fine grid below lo lies on or under the diagonal
            xs = np.linspace(0.0, sol["interval"][0], 400, endpoint=False)
            assert all(gf.eval(float(x))[0] > x for x in xs)


def test_eval_budget_leaves_an_open_interval():
    gf = GFunction(Binomial(3, 0.9), ary_collection(2))
    sol = smallest_fixed_point(gf, max_iter=3)
    assert sol["iterations"] == 3
    assert not sol["converged"]
    lo, hi = sol["interval"]
    assert lo < 2.0 / 27.0 < hi


def test_solver_rejects_bad_tolerance_and_scan():
    gf = GFunction(Binomial(3, 0.9), ary_collection(2))
    with pytest.raises(InvalidInputError):
        smallest_fixed_point(gf, tol=0.0)
    with pytest.raises(InvalidInputError):
        smallest_fixed_point_bisect(gf, scan_steps=0)


def test_mc_ci_covers_enumeration_over_seeds():
    law = Binomial(9, 0.6)
    coll = generator_collection([(i, (i + 1) % 9) for i in range(9)])
    exact = smallest_fixed_point(GFunction(law, coll, strategy="enum"))["s0"]
    assert exact == pytest.approx(0.113292, abs=1e-6)
    # the earlier 3-sigma stopping rule centred `ci` on a low iterate and
    # missed s0 at seeds 31, 32 and 49
    for seed in (*range(10), 31, 32, 49):
        sol = smallest_fixed_point(GFunction(law, coll, strategy="mc",
                                             sample_size=400_000, seed=seed))
        lo, hi = sol["ci"]
        assert lo <= exact <= hi, (seed, sol["ci"])
        assert lo <= sol["s0"] <= hi


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


def test_closed_form_tails_outside_the_binomial_support():
    # a table row shorter than a - 1, and a target above the alphabet size
    table = ExplicitTable(3, [((0,), 0.5), ((0, 1, 2), 0.5)])
    gf = GFunction(table, ary_collection(3))
    got = [gf.eval(s)[0] for s in (0.0, 0.3, 0.7)]
    assert got == [0.5, 0.8285, 0.9864999999999999]
    assert GFunction(Binomial(2, 0.7), ary_collection(4)).eval(0.3)[0] == 1.0


def _brute_g(table, closure_member, s):
    """g(s) of a table law by summing over every kept subset of every row."""
    total = 0.0
    for sub, pr in table.rows:
        for r in range(len(sub) + 1):
            for kept in itertools.combinations(sorted(sub), r):
                if not closure_member(frozenset(kept)):
                    total += pr * (1.0 - s) ** r * s ** (len(sub) - r)
    return total


def test_enum_g_of_a_table_law_matches_brute_force():
    table = ExplicitTable(4, [([0, 1, 2, 3], 0.4), ([0, 2], 0.2), ([1], 0.1), ([], 0.05),
                              ([1, 2, 3], 0.25)])
    assert GFunction(table, ary_collection(2)).eval(0.3)[0] == pytest.approx(0.33948, abs=1e-12)
    # a cardinality collection takes the binomial tail per row, generators
    # the per-row tables of non-member kept subsets
    for coll in (ary_collection(2), generator_collection([(0, 1), (2,)]),
                 generator_collection([(0, 2, 3), (1, 3), (9,)])):
        gf = GFunction(table, coll)
        assert gf.strategy == "enum"
        for s in (0.0, 0.3, 0.55, 1.0):
            assert gf.eval(s)[0] == pytest.approx(_brute_g(table, coll.closure_member, s),
                                                  abs=1e-12)


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
    # the empty generator puts every child set in the closure, so g = 0
    gf = GFunction(Binomial(3, 0.5), generator_collection([()]), strategy="mc")
    assert gf.strategy == "trivial"
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


def test_long_polynomial_products_match_fftconvolve():
    from scipy.signal import fftconvolve

    rng = np.random.default_rng(5)
    for la, lb in ((1, 1500), (700, 400), (1025, 1025), (2000, 3)):
        a, b = rng.random(la), rng.random(lb) ** 8
        want = np.clip(fftconvolve(a, b), 0.0, None)
        assert np.array_equal(_poly_mul_trunc(a, b, la + lb), want)
        assert np.array_equal(_poly_mul_trunc(a, b, 900), want[:900])


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


def test_gk_curve_mc_above_the_int32_scale():
    # a_k above 10^9: the level-12 point agrees with the level-11 point at the
    # same a_k / m^k, and so does a level-26 point whose populations pass the
    # int64 step limit and are carried at the mean growth
    off = Binomial(9, 0.7)
    m = off.mean()
    a12 = 2_178_799_151
    k11 = g_k_a_curve(off, 11, round(a12 / m), 0.0, trials=20_000)
    k12 = g_k_a_curve(off, 12, a12, 0.0, trials=20_000)
    k26 = g_k_a_curve(off, 26, round(a12 * m ** 14), 0.0, trials=20_000)
    assert k12["method"] == k26["method"] == "mc"
    assert "a_k <= 4096" in k12["flag_reason"]
    assert k11["value"] > 0.02
    assert k12["value"] == pytest.approx(k11["value"], abs=0.01)
    assert k26["value"] == pytest.approx(k11["value"], abs=0.01)
    # level 400 holds about 10^320 individuals, beyond the float range of a_k
    assert g_k_a_curve(off, 400, 10 ** 350, 0.0, trials=200)["value"] == 1.0
    assert g_k_a_curve(off, 400, 10 ** 300, 0.0, trials=200)["value"] == 0.0


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


def test_appendix_gap_rejects_zero_trials():
    # the Monte-Carlo standard error divides by the trial count
    with pytest.raises(InvalidInputError):
        appendix_b_gap(0.9, 0.01, trials=0)


def test_gfunction_rejects_nonmonotone_grid():
    # collections are upward closed by construction, so only a duck-typed g
    # can dip; the solve must refuse it rather than enclose a wrong s0
    class Dipping:
        def eval(self, s):
            return 1.0 - 4.0 * s * (1.0 - s), None

    with pytest.raises(InvalidInputError, match="nondecreasing"):
        smallest_fixed_point(Dipping())


def test_member_thresholds_match_rowwise_membership():
    rng = np.random.default_rng(11)
    R, N = 400, 6
    W = rng.random((R, N)) < 0.7
    U = np.round(rng.random((R, N)), 2)  # coarse values, so rows share ties
    pairs = generator_collection([(0, 2), (1, 3, 4), (5,)])
    cases = [
        pairs,
        generator_collection([(0, 1), ()]),
        generator_collection([(0, 9), (2, 3)]),
        generator_collection([(7,), (6, 1)]),
        ary_collection(0),
        ary_collection(3),
        ary_collection(N + 1),
    ]
    for s in [0.0, 1.0, 0.5, *U[W][:8].tolist()]:
        kept = W & (U >= s)
        for coll in cases:
            want = [not coll.closure_member(np.flatnonzero(row).tolist()) for row in kept]
            got = _member_thresholds(coll, W, U) < s
            assert got.tolist() == want, (coll.generators, coll.card_a, s)


def test_mc_solve_draws_exactly_sample_size():
    gf = GFunction(Binomial(3, 0.9), ary_collection(2), strategy="mc", sample_size=5000)
    sol = smallest_fixed_point(gf)
    assert len(gf._thresholds) == 5000
    assert sol["converged"] and sol["ci"][0] <= 2.0 / 27.0 <= sol["ci"][1]
    with pytest.raises(InvalidInputError):  # an empty block leaves g undefined
        GFunction(Binomial(3, 0.9), ary_collection(2), strategy="mc", sample_size=0)


def test_mc_blockwise_draw_matches_one_whole_draw():
    off = Binomial(9, 0.6)
    gens = [(i, (i + 1) % 9) for i in range(9)]
    n = 170_001  # not a multiple of the row block
    gf = GFunction(off, generator_collection(gens), strategy="mc", sample_size=n, seed=6)
    rng = np.random.Generator(np.random.Philox(key=labeled_seed(6, "gfn-mc")))
    keys = rng.integers(0, 1 << 63, size=n, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    W = off.sample_matrix(keys)
    U = rng.random((n, 9))
    for s in (0.05, 0.113, 0.4, *U[W][:20].tolist()):  # sampled values: ties
        S = W & (U >= s)
        hit = np.zeros(n, dtype=bool)
        for g in gens:
            hit |= S[:, list(g)].all(axis=1)
        assert gf.eval(s)[0] == float((~hit).mean())


def test_per_letter_enumeration_matches_doubling_reference():
    rng = np.random.default_rng(2)
    probs = rng.uniform(0.2, 0.95, 11)
    coll = generator_collection([(0, 3), (2, 5, 7), (1, 10), (4, 6), (8, 9)])
    gf = GFunction(PerLetterBernoulli(probs), coll, strategy="enum")
    member = np.array([coll.closure_member([i for i in range(11) if m >> i & 1])
                       for m in range(1 << 11)])
    for s in (0.0, 0.2, 0.5, 0.73, 1.0):
        w = np.array([1.0])
        for p in probs:
            q = p * (1.0 - s)
            w = np.concatenate([w * (1.0 - q), w * q])
        assert gf.eval(s)[0] == float(w[~member].sum())


def test_per_letter_size_pmf_and_cardinality_g_match_subset_sums():
    probs = (0.3, 0.9, 0.55, 0.7, 0.15)
    off = PerLetterBernoulli(probs)
    subsets = [[i for i in range(5) if m >> i & 1] for m in range(1 << 5)]

    def mass(S, q):
        return math.prod(q[i] if i in S else 1.0 - q[i] for i in range(5))
    pmf = np.zeros(6)
    for S in subsets:
        pmf[len(S)] += mass(S, probs)
    assert off.size_pmf() == pytest.approx(pmf, abs=1e-15)
    for a in (1, 3, 5):
        gf = GFunction(off, ary_collection(a), strategy="enum")
        for s in (0.0, 0.25, 0.6, 1.0):
            q = [p * (1.0 - s) for p in probs]
            want = sum(mass(S, q) for S in subsets if len(S) < a)
            assert gf.eval(s)[0] == pytest.approx(want, abs=1e-15), (a, s)
