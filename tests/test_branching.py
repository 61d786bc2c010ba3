import tracemalloc

import numpy as np
import pytest

from gwfract.symbolic import InvalidInputError, ResourceLimitError, Word
from gwfract.branching import (
    Binomial,
    ExplicitTable,
    LazyGW,
    PerLetterBernoulli,
    binom_cdf,
    binom_pmf,
    child_key,
    extinction_prob,
    labeled_seed,
    mc_extinction_frequency,
    _mix64_inplace,
    mix64,
    norm_ppf,
    offspring_from_json,
    pgf,
    sample_gw,
)


def test_binomial_basics():
    off = Binomial(9, 0.6)
    assert off.alphabet_size == 9
    assert off.mean() == pytest.approx(5.4)
    assert pgf(off, 1.0) == pytest.approx(1.0)
    assert pgf(off, 0.0) == pytest.approx(0.4 ** 9)
    pmf = off.size_pmf()
    assert len(pmf) == 10
    assert sum(pmf) == pytest.approx(1.0)


def test_binomial_helpers_match_scipy_stats():
    from scipy.stats import binom, norm

    rng = np.random.default_rng(0)
    ps = [0.0, 1.0, 0.5, 0.6 * (1.0 - 0.3)] + list(rng.random(12))
    for n in (0, 1, 2, 3, 9, 25):
        ks = np.arange(-2, n + 3)
        for p in ps:
            # bit-identical, k < 0 and k > n included (the ufuncs give nan there)
            assert np.array_equal(binom_pmf(ks, n, p), binom.pmf(ks, n, p))
            for k in ks:
                assert binom_cdf(int(k), n, p) == binom.cdf(k, n, p)
    assert binom_cdf(-1, 3, 0.4) == 0.0 and binom_cdf(4, 3, 0.4) == 1.0
    for q in (0.5, 0.975, 0.995, 1e-9):
        assert norm_ppf(q) == norm.ppf(q)


def test_extinction_golden_case():
    # Bin(3, 1/2): q solves q = ((1+q)/2)^3; smallest root is sqrt(5)-2
    q = extinction_prob(Binomial(3, 0.5))
    assert q == pytest.approx(0.23606797749979, abs=1e-11)


def test_extinction_nine_ary():
    q = extinction_prob(Binomial(9, 0.6))
    assert q == pytest.approx(2.630764838635632e-4, abs=1e-12)


def test_extinction_near_criticality():
    # the pgf meets the diagonal at q = ((1 - p) / p)^2 with slope 1 - 4e-6:
    # a stop on |q_next - q| < tol would end about 5e-7 short of it
    p = 0.5 + 1e-6
    assert extinction_prob(Binomial(2, p)) == pytest.approx(((1 - p) / p) ** 2, abs=1e-9)


def test_extinction_trivial_regimes():
    assert extinction_prob(Binomial(3, 0.2)) == 1.0  # subcritical
    assert extinction_prob(Binomial(5, 1.0)) == 0.0  # deterministic full
    assert extinction_prob(Binomial(1, 1.0)) == 0.0  # one child always


def test_sample_gw_frozen_shape():
    s = sample_gw(Binomial(3, 0.7), 6, seed=42)
    assert s.tree.level_sizes() == [1, 3, 5, 10, 21, 42, 86]
    assert s.extinct_at is None


def test_sample_gw_deterministic():
    a = sample_gw(Binomial(9, 0.6), 4, seed=11)
    b = sample_gw(Binomial(9, 0.6), 4, seed=11)
    assert a.tree == b.tree
    c = sample_gw(Binomial(9, 0.6), 4, seed=12)
    assert c.tree != a.tree


def test_sample_gw_budget():
    with pytest.raises(ResourceLimitError):
        sample_gw(Binomial(9, 0.9), 8, seed=0, node_budget=100)


def test_walk_charges_each_level_before_allocating_it():
    # the budget trips at relative depth 11, as it always has, but before that
    # level's keys and draw exist: about 218-229 MB traced when they were
    # allocated first, about 60 MB now
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as ei:
            sample_gw(Binomial(4, 0.95), 14, 0, node_budget=1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ei.value.partial == 11 and "relative depth 11" in str(ei.value)
    assert peak <= 109e6


def test_lazy_matches_eager():
    off = Binomial(3, 0.7)
    eager = sample_gw(off, 5, seed=42).tree
    lazy = LazyGW(off, seed=42)
    for depth in range(3):
        for w in eager.level(depth):
            kids = {w.child(a) for a in lazy.children(w)}
            truth = {v for v in eager.level(depth + 1) if v[:depth] == tuple(w)}
            assert kids == truth


def test_lazy_level_words_and_codes_agree():
    off = Binomial(3, 0.7)
    lazy = LazyGW(off, seed=42)
    words = lazy.expand(Word(), 4).level(4)
    codes = lazy.level_codes(Word(), 4)
    enc = [sum(a * 3 ** (3 - i) for i, a in enumerate(w)) for w in words]
    assert sorted(enc) == sorted(int(x) for x in codes)
    # and both agree with the eager realization of the same seed
    assert sorted(words) == sorted(sample_gw(off, 4, seed=42).tree.level(4))


def test_sampler_matches_float_formula():
    # the integer threshold ceil(p * 2^53) keeps exactly the letters that the
    # float test (u >> 11) * 2^-53 < p keeps
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 2 ** 63, size=20_000, dtype=np.uint64) * np.uint64(2)
    keys += rng.integers(0, 2, size=len(keys), dtype=np.uint64)
    laws = [Binomial(6, p) for p in (1e-9, 0.3, 0.9, 1.0)]
    laws.append(PerLetterBernoulli((1e-9, 0.3, 0.5, 0.9, 1.0, 2.0 ** -53)))
    for law in laws:
        offs = np.arange(1, law.alphabet_size + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        u = _mix64_inplace(keys[:, None] + offs) >> np.uint64(11)
        expected = u * 2.0 ** -53 < law.letter_probs()
        assert np.array_equal(law.sample_matrix(keys), expected), law.to_json()
    assert law.sample_matrix(keys)[:, 4].all()  # p = 1 keeps every letter


def test_mix64_inplace_mixes_c_ordered_arrays_and_rejects_the_rest():
    # a reshape of any other array copies, and the copy would be the one mixed
    k = np.random.default_rng(1).integers(0, 2 ** 63, size=72, dtype=np.uint64)
    salts = np.arange(1, 4, dtype=np.uint64) * np.uint64(0xD1B54A32D192ED03)
    strided = np.stack([k, k, k], axis=1)[:, [0, 1, 2]] ^ salts[[0, 1, 2]]
    assert not strided.flags.c_contiguous
    for bad in (strided, k[::2].copy()[::2], k.astype(np.int64), k.reshape(8, 9).T):
        with pytest.raises(ValueError):
            _mix64_inplace(bad)
    x = np.ascontiguousarray(strided)
    want = [[mix64(int(v)) for v in row] for row in x.tolist()]
    assert _mix64_inplace(x).tolist() == want
    assert _mix64_inplace(k[:0].reshape(0, 3)).shape == (0, 3)


def test_sampler_matches_python_int_reference():
    # letter i of the row of key x is kept when (mix64(x + (i+1) * gamma) >> 11)
    # < ceil(p * 2^53), in Python ints
    gamma = 0x9E3779B97F4A7C15
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 2 ** 63, size=400, dtype=np.uint64) * np.uint64(2)
    keys += rng.integers(0, 2, size=len(keys), dtype=np.uint64)
    keys[:3] = [0, 2 ** 64 - 1, 2 ** 64 - gamma]  # the offset sum wraps around
    laws = [Binomial(5, p) for p in (1.0, 2.0 ** -53, 0.5, 0.9)]
    laws.append(PerLetterBernoulli((1.0, 2.0 ** -53, 0.5, 0.9, 0.3, 1e-300)))
    for law in laws:
        limits = [int(np.ceil(p * 2.0 ** 53)) for p in law.letter_probs().tolist()]
        want = [[(mix64(key + (i + 1) * gamma) >> 11) < limit
                 for i, limit in enumerate(limits)] for key in keys.tolist()]
        got = law.sample_matrix(keys)
        assert got.dtype == bool and got.tolist() == want, law.to_json()
        for p, kept in zip(law.letter_probs().tolist(), got.T):
            assert kept.all() if p == 1.0 else kept.sum() <= 1 if p < 1e-15 else 0 < kept.sum() < 400
        # key + gamma wraps to 0, which mixes to 0: letter 0 is kept at any p
        assert got[2, 0]
    # keys whose mixed word sits on either side of the bound, found by
    # inverting mix64: (limit << 11) - 1 is kept, (limit << 11) is not
    for p in (0.5, 0.9, 2.0 ** -53):
        limit = int(np.ceil(p * 2.0 ** 53))
        for word, kept in (((limit << 11) - 1, True), (limit << 11, False)):
            key = (_unmix64(word) - gamma) % 2 ** 64
            assert mix64(key + gamma) == word
            assert Binomial(1, p).sample_matrix(np.array([key], dtype=np.uint64))[0, 0] == kept
    assert int(Binomial(1, 1.0)._draw[1][0]) == 2 ** 64 - 1


def _unmix64(y):
    """The inverse of mix64 on Python ints."""
    def unshift(y, s):  # inverse of x ^ (x >> s)
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x
    y = unshift(y, 31) * pow(0x94D049BB133111EB, -1, 2 ** 64) % 2 ** 64
    y = unshift(y, 27) * pow(0xBF58476D1CE4E5B9, -1, 2 ** 64) % 2 ** 64
    return unshift(y, 30)


def test_walk_steps_match_child_key():
    off = Binomial(4, 0.7)
    lazy = LazyGW(off, seed=21)
    roots = [Word(), Word((1,)), Word((3, 2))]
    keys = [lazy.key(w) for w in roots]
    words = list(roots)  # the words of the level a step samples
    steps = list(lazy._walk(keys, 4))
    assert len(steps) == 4 and lazy.nodes_sampled == 0
    for rows, letters, level in steps:
        assert level.tolist() == [lazy.key(w) for w in words]
        counts = np.bincount(rows, minlength=len(level))
        assert counts.tolist() == [int(r.sum()) for r in off.sample_matrix(level)]
        # grouped by parent, letters ascending within one
        assert np.all((np.diff(rows) > 0) | ((np.diff(rows) == 0) & (np.diff(letters) > 0)))
        kids = [words[r].child(a) for r, a in zip(rows.tolist(), letters.tolist())]
        for r, a, kid in zip(rows.tolist(), letters.tolist(), kids):
            assert a in lazy.children(words[r])
            assert child_key(int(level[r]), a) == lazy.key(kid)
        assert lazy._child_keys(level, rows, letters).tolist() == [lazy.key(w) for w in kids]
        words = kids
    assert len(words) > 0


def test_multi_root_walk_matches_single_roots():
    off = Binomial(4, 0.8)
    lazy = LazyGW(off, seed=9)
    roots = [Word((a,)) for a in sorted(lazy.children(Word()))] + [Word((0, 0, 0, 0))]
    keys = np.array([lazy.key(w) for w in roots], dtype=np.uint64)
    before = lazy.nodes_sampled
    codes, leaf_keys, bounds, nodes = lazy._level(keys, 3)
    assert lazy.nodes_sampled == before  # _level leaves the counter to its caller
    for i, w in enumerate(roots):
        alone = LazyGW(off, seed=9)
        got = codes[bounds[i]:bounds[i + 1]]
        assert np.array_equal(got, alone.level_codes(w, 3))
        assert nodes[i] == alone.nodes_sampled
        for code, key in zip(got.tolist(), leaf_keys[bounds[i]:bounds[i + 1]].tolist()):
            tail = [code // 4 ** (2 - j) % 4 for j in range(3)]
            assert key == alone.key(w + tuple(tail))
    assert np.all(np.diff(codes[bounds[0]:bounds[1]]) > 0)  # ascending, no sort


def test_lazy_order_independent():
    off = Binomial(4, 0.6)
    a = LazyGW(off, seed=5)
    b = LazyGW(off, seed=5)
    wa = a.expand(Word(), 3).level(3)
    _ = b.children(Word())
    wb = b.expand(Word(), 3).level(3)
    assert wa == wb


def test_mc_extinction_matches_exact():
    off = Binomial(3, 0.5)
    q = extinction_prob(off)
    mc = mc_extinction_frequency(off, depth=30, trials=40_000, seed=7)
    assert abs(mc["frequency"] - q) <= 4 * mc["se"]


def test_labeled_seed_separates_streams():
    seeds = {labeled_seed(0, lab) for lab in ("a", "b", "c", "a:b")}
    assert len(seeds) == 4
    assert labeled_seed(0, "a") == labeled_seed(0, "a")
    assert labeled_seed(0, "a") != labeled_seed(1, "a")


def test_offspring_json_roundtrip():
    for off in (Binomial(4, 0.3),
                PerLetterBernoulli((0.9, 0.5, 0.1)),
                ExplicitTable(2, [((0,), 0.5), ((0, 1), 0.5)])):
        back = offspring_from_json(off.to_json())
        assert back.alphabet_size == off.alphabet_size
        assert back.mean() == pytest.approx(off.mean())
        for s in (0.0, 0.3, 1.0):
            assert back.pgf(s) == pytest.approx(off.pgf(s))


def test_explicit_table_validates():
    with pytest.raises(InvalidInputError):
        ExplicitTable(2, [((0,), 0.6), ((1,), 0.6)])  # probs exceed 1
    with pytest.raises(InvalidInputError):
        ExplicitTable(2, [((5,), 1.0)])  # letter out of range


_TABLE = ExplicitTable(4, [([0, 1, 2, 3], 0.4), ([0, 2], 0.2), ([1], 0.1), ([], 0.05),
                           ([1, 2, 3], 0.25)])


def test_explicit_table_laws_and_sampling():
    assert _TABLE.letter_probs().tolist() == pytest.approx([0.6, 0.75, 0.85, 0.65], abs=1e-15)
    assert _TABLE.size_pmf().tolist() == pytest.approx([0.05, 0.1, 0.2, 0.25, 0.4], abs=1e-15)
    assert _TABLE.mean() == pytest.approx(_TABLE.letter_probs().sum())
    keys = np.random.default_rng(0).integers(0, 2 ** 63, size=200_000, dtype=np.uint64)
    rows = _TABLE.sample_matrix(keys)
    assert rows.shape == (200_000, 4)
    # every row is one of the table's subsets, drawn at the letters' rates
    assert {tuple(np.flatnonzero(r)) for r in np.unique(rows, axis=0)} \
        == {tuple(sorted(sub)) for sub, _ in _TABLE.rows}
    assert np.abs(rows.mean(axis=0) - _TABLE.letter_probs()).max() < 0.002


def test_mc_extinction_of_a_table_law_matches_exact():
    q = extinction_prob(_TABLE)
    assert q == pytest.approx(0.0563, abs=1e-4)
    mc = mc_extinction_frequency(_TABLE, depth=40, trials=40_000, seed=3)
    assert abs(mc["frequency"] - q) <= 3 * mc["se"]
