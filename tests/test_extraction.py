import hashlib
import math

import numpy as np
import pytest

from gwfract.symbolic import (CapabilityError, FiniteTree, InvalidInputError,
                              ResourceLimitError, StarTree, WeightedAlphabet,
                              Word, compress_along_pi_rho, section_pi_rho)
from gwfract.branching import Binomial, LazyGW, _child_salts, _mix64_inplace, sample_gw
from gwfract import geometry
from gwfract.cli import measured_to_csv
from gwfract.fixpoint import GFunction, _member_thresholds, ary_collection, generator_collection
from gwfract.geometry import (SimilarityIFS, SimilarityMap, cloud_to_csv, percolation_ifs,
                              render, render_words, sierpinski_ifs, word_map)
from gwfract.extraction import (
    _LayeredScan,
    _attractor_cloud,
    _scan_candidates,
    DiffuseBlock,
    NotFoundError,
    SectionDiffuse,
    SectionLaw,
    SubtreePredicate,
    diffuse_block_collection,
    find_subtree,
    general_pipeline,
    natural_measure,
    percolation_pipeline,
    predicted_presence,
    section_reduction,
)


def test_ary_member_and_witness():
    # the base predicate's core is empty: a floor of a is the a-ary predicate
    pred = SubtreePredicate(3)
    assert not pred.member(np.array([0, 5]))
    assert pred.member(np.array([0, 5, 7]))
    w = pred.witness_subset(np.array([2, 4, 7, 9]))
    assert w.tolist() == [2, 4, 7]  # smallest labels win
    assert pred.witness_subset(np.array([1])) is None
    assert pred.min_arity() == 3
    assert SubtreePredicate(2).member(np.array([3, 4]))
    assert SubtreePredicate().member(np.array([], dtype=np.int64))


def test_ary_rejects_bad_arity():
    with pytest.raises(InvalidInputError):
        SubtreePredicate(-1)


def test_diffuse_block_member():
    pred = DiffuseBlock(2, 3, 2)
    assert pred.block == 16
    full = np.arange(32, 48)  # all extensions of prefix 2
    assert pred.member(full)
    assert np.array_equal(pred.witness_core(np.concatenate([[3], full, [99]])), full)
    assert not pred.member(full[full != 40])
    assert pred.witness_subset(full[full != 40]) is None
    assert pred.min_arity() == 16
    # a block of 256 letters on a tree's uint8 letter arrays
    sub = find_subtree(FiniteTree.full(256, 1), DiffuseBlock(2, 2, 4), 1)
    assert sub.level_sizes() == [1, 256]


def test_diffuse_block_needs_two_levels():
    with pytest.raises(InvalidInputError):
        DiffuseBlock(2, 1, 2)


def test_floored_core_pads_witness():
    # the core first, then the lex-smallest other labels up to the floor
    pred = DiffuseBlock(2, 2, 2, floor=20)
    labels = np.arange(3, 40)
    assert pred.member(labels)
    w = pred.witness_subset(labels)
    assert w.tolist() == list(range(3, 7)) + list(range(16, 32))
    assert pred.member(w) and DiffuseBlock(2, 2, 2).member(w)
    assert pred.min_arity() == 20
    assert DiffuseBlock(2, 2, 2, floor=3).min_arity() == 16
    assert not pred.member(np.arange(16, 35))  # a block, but below the floor
    assert pred.witness_subset(np.arange(16, 35)) is None
    assert not pred.member(np.arange(17, 40))  # enough labels, but no block


def test_floored_section_certifies_below_its_floor():
    # the core is tested before the floor, so a set below the floor still
    # certifies its families: the star pipeline's `certs` counts them
    sd = SectionDiffuse(0.05, percolation_ifs(3, 2), k=2, floor=20)
    labels = np.arange(9, 18)  # one full family, below the floor
    assert not sd.member(labels)
    assert sd.cert_count == 1
    assert not sd.member(labels) and sd.cert_count == 1  # cached per family
    assert not sd.member(np.arange(27, 30))
    assert sd.cert_count == 2


def test_diffuse_block_collection_matches_predicate():
    # one generator per prefix; several for k > 2
    for b, k, d in ((2, 2, 2), (2, 3, 1), (2, 4, 1), (3, 3, 1)):
        coll = diffuse_block_collection(b, k, d)
        pred = DiffuseBlock(b, k, d)
        N = pred.alphabet
        assert len(coll.generators) == N // pred.block
        for S in (np.arange(N), np.arange(N - 1), np.array([1, 2]),
                  np.arange(N - pred.block, N)):
            assert coll.closure_member(S.tolist()) == pred.member(S)
        rng = np.random.default_rng(b * 100 + k * 10 + d)
        # keep rates near 1 so that full blocks turn up
        W = rng.random((300, N)) < rng.uniform(0.6, 1.0, (300, 1))
        U = np.round(rng.random((300, N)), 2)
        for row in W:
            S = np.flatnonzero(row)
            assert coll.closure_member(S.tolist()) == pred.member(S)
        for s in (0.0, 0.3, 0.5, *U[W][:5].tolist()):
            want = [not pred.member(np.flatnonzero(row)) for row in W & (U >= s)]
            assert (_member_thresholds(coll, W, U) < s).tolist() == want, (b, k, d, s)


def test_find_subtree_full_tree():
    tree = FiniteTree.full(3, 2)
    sub = find_subtree(tree, SubtreePredicate(2), 2)
    assert [len(sub.level(m)) for m in range(3)] == [1, 2, 4]
    for v, cs in sub.children.items():
        if len(v) < 2:
            assert len(cs) == 2


def test_find_subtree_absent():
    tree = FiniteTree(3, 1, [Word((1,))])
    assert find_subtree(tree, SubtreePredicate(2), 1) is None


def test_find_subtree_depth_guard_and_trivial():
    tree = FiniteTree.full(2, 1)
    with pytest.raises(InvalidInputError):
        find_subtree(tree, SubtreePredicate(1), 3)
    sub = find_subtree(tree, SubtreePredicate(2), 0)
    assert sub.depth == 0


def test_find_subtree_star_dp():
    star = compress_along_pi_rho(FiniteTree.full(2, 4),
                                 WeightedAlphabet((0.5, 0.5)), 0.25)
    sub = find_subtree(star, SubtreePredicate(3), 2)
    assert isinstance(sub, StarTree)
    assert [len(sub.level(m)) for m in range(3)] == [1, 3, 9]


def _block_tree(lazy, v, m, k):
    """The k-block-compressed tree of depth m below the word v, from packed codes."""
    block = lazy.offspring.alphabet_size ** k
    return FiniteTree(block, m, [
        tuple(code // block ** (m - 1 - j) % block for j in range(m))
        for code in lazy.level_codes(v, m * k).tolist()])


def _scan_matches_eager(lazy, k, pred):
    """(tested, witnesses) of the root with two levels to go and its first 20
    block children, each checked against the eager DP on the sampled tree."""
    scan = _LayeredScan(lazy, pred)
    root = lazy.key(Word())
    codes, keys = scan._alive(1, root)
    vertices = [(1, root, 2)] + [(v, key, 1) for v, key in scan._kids(1, codes[:20], keys)]
    witnesses = 0
    for v, key, m in vertices:
        eager = find_subtree(_block_tree(lazy, scan.word(v), m, k), pred, m)
        assert scan.test(v, key, m) == (eager is not None), (lazy.seed, v)
        if eager is not None:
            assert scan.witness_tree(v, m) == eager
            witnesses += 1
    return len(vertices), witnesses


def test_layered_scan_matches_eager_dp():
    tested = witnesses = 0
    for b, d, p, c, k in ((2, 2, 0.95, 3, 3), (2, 2, 0.9, 3, 3),
                          (2, 2, 0.97, 2, 4)):
        A = c ** k
        pred = DiffuseBlock(b, k, d=d, floor=A)
        for seed in range(6):
            t, w = _scan_matches_eager(LazyGW(Binomial(b ** d, p), seed), k, pred)
            tested, witnesses = tested + t, witnesses + w
    assert tested == 378 and 0 < witnesses < tested
    # section predicates: c is the certified constant, A the count floor
    tested = witnesses = 0
    for b, d, p, c, k, A in ((3, 2, 0.6, 0.05, 2, 30), (4, 1, 0.7, 0.05, 3, 12),
                             (3, 1, 0.9, 0.05, 3, 9)):
        pred = SectionDiffuse(c, percolation_ifs(b, d), k=k, floor=A)
        for seed in range(6):
            t, w = _scan_matches_eager(LazyGW(Binomial(b ** d, p), seed), k, pred)
            tested, witnesses = tested + t, witnesses + w
    assert tested == 337 and 0 < witnesses < tested


def test_layered_scan_takes_one_block_or_packed_section_predicate():
    lazy = LazyGW(Binomial(4, 0.9), 0)
    star = SectionDiffuse(0.05, percolation_ifs(2, 2))
    # no core, a star section, and a block over a 9-letter grid on a 4-letter law
    for pred in (SubtreePredicate(4), star, DiffuseBlock(3, 2, d=2)):
        with pytest.raises(CapabilityError):
            _LayeredScan(lazy, pred)
    # letter masks are int64 bit sets
    wide = SectionDiffuse(0.05, percolation_ifs(8, 2), k=2)
    with pytest.raises(CapabilityError):
        wide.member([0, 1])


def _full_leaf_walk(lazy, keys, k, pred, A):
    """Per-root (ok, nodes, codes) of the full k-level walk: the reference."""
    codes, _, bounds, nodes = lazy._level(keys, k)
    leaves = [codes[b:e] for b, e in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    ok = [bool(len(c) >= A and pred.member(c)) for c in leaves]
    return ok, nodes.tolist(), leaves


def _block_walk_cases():
    """(b, d, k, p, A) over the grids, block lengths and laws, with the arity
    floor at the block size and above it."""
    for b, d in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3)):
        N = b ** d
        for k in (2, 3, 4):
            if N ** k > 10 ** 5:
                continue  # (3, 3, 4): 531,441 codes per root at p = 1
            floors = sorted({N * N, N * N + 1, (N * N + N ** k + 1) // 2})
            for p in (0.6, 0.9, 1.0):
                for A in floors:
                    if A <= N ** k:
                        yield b, d, k, p, A


def _section_preds():
    """(b, d, k, predicate) over the grids, block lengths and certificate
    levels; one predicate serves every law and floor, so its families are
    certified once."""
    for b, d in ((3, 1), (2, 2), (3, 2), (4, 1)):
        ifs = percolation_ifs(b, d)
        F = render(ifs, depth=3)
        for k in (2, 3, 4):
            for c in (0.05, 0.2):
                yield b, d, k, SectionDiffuse(c, ifs, F_cloud=F, k=k)


def test_block_leaf_walk_matches_full_walk():
    # membership, the nodes counted and the witness built from the walk's
    # labels must be the full walk's, with the floor at the block size and above
    rng = np.random.default_rng(11)
    cases = died = passed = failed = 0
    witnesses = {False: 0, True: 0}  # by whether the floor exceeds the block size
    counted_floor = set()  # cases where the floor above the block size decides
    for b, d, k, p, A in _block_walk_cases():
        N = b ** d
        pred = DiffuseBlock(b, k, d=d, floor=A)
        lazy = LazyGW(Binomial(N, p), 0)
        scan = _LayeredScan(lazy, pred)
        assert scan.block is not None
        for size in {1, max(1, min(40, 20_000 // N ** k))}:
            keys = rng.integers(0, 2 ** 63, size=size, dtype=np.uint64)
            judge, nodes = scan._block_walk(keys)
            got = [judge(i) for i in range(size)]
            ok = np.array([good for _, good in got], dtype=bool)
            want_ok, want_nodes, leaves = _full_leaf_walk(lazy, keys, k, pred, A)
            assert (ok.tolist(), nodes.tolist()) == (want_ok, want_nodes), \
                (b, d, k, p, A, size)
            for i, ((labels, good), codes) in enumerate(zip(got, leaves)):
                if good:  # the leaf's witness, from the labels the walk found
                    v = scan.step + i  # a node id
                    scan._record_leaf(v, labels, good)
                    assert np.array_equal(scan.witness_tree(v, 1)._letters[1],
                                          pred.witness_subset(codes)), (b, d, k, p, A, size)
                    witnesses[A > N * N] += 1
            if A > N * N:
                block_only = _full_leaf_walk(lazy, keys, k, DiffuseBlock(b, k, d=d), 0)[0]
                if block_only != want_ok:
                    counted_floor.add((b, d, k, p))
            bounds = lazy._level(keys, k - 1)[2]
            died += int((np.diff(bounds) == 0).sum())
            passed += int(ok.sum())
            failed += int((~ok).sum())
            cases += 1
        assert lazy.nodes_sampled == 0  # the caller counts the nodes it takes
    assert cases == 225 and died > 0 and passed > 0 and failed > 0, \
        (cases, died, passed, failed)
    assert len(counted_floor) >= 5, counted_floor
    assert min(witnesses.values()) > 0, witnesses
    # section leaves: rows are read until a leaf holds its floor and the
    # families below them until one is certified; membership, the nodes
    # counted and the witness built from the codes read must be the full walk's
    rng = np.random.default_rng(13)
    cases = died = passed = failed = stopped = late = 0
    for b, d, k, sd in _section_preds():
        N = b ** d
        for p in (0.5, 0.8, 1.0):
            for A in sorted({N, (N + N ** k) // 2, N ** k}):
                sd.floor = A  # one predicate, so its certificates stay cached
                pred = sd
                lazy = LazyGW(Binomial(N, p), 0)
                scan = _LayeredScan(lazy, pred)
                assert scan.block is None and scan.section is sd
                for size in {1, max(1, min(256, 4000 // N ** k))}:
                    keys = rng.integers(0, 2 ** 63, size=size, dtype=np.uint64)
                    judge, nodes = scan._section_walk(keys)
                    got = [judge(i) for i in range(size)]
                    want_ok, want_nodes, leaves = _full_leaf_walk(lazy, keys, k, pred, A)
                    where = (b, d, k, p, sd.c, A, size)
                    assert ([ok for _, ok in got], nodes.tolist()) == (want_ok, want_nodes), where
                    for (labels, ok), codes in zip(got, leaves):
                        if ok:
                            assert np.array_equal(pred.witness_subset(labels),
                                                  pred.witness_subset(codes)), where
                            stopped += len(labels) < len(codes)
                            # its first certified family lies past the lex-first A codes
                            late += max(sd.witness_core(codes)) > codes[A - 1]
                    died += int((np.diff(lazy._level(keys, k - 1)[2]) == 0).sum())
                    passed += sum(want_ok)
                    failed += size - sum(want_ok)
                    cases += 1
                assert lazy.nodes_sampled == 0  # the caller counts the nodes it takes
    assert cases == 414 and min(died, passed, failed, stopped, late) > 0, \
        (cases, died, passed, failed, stopped, late)


def test_block_leaf_walk_trips_the_budget_as_the_full_walk_does():
    for b, d, k, p in ((2, 2, 3, 0.9), (3, 2, 4, 0.99), (2, 1, 2, 0.6)):
        N = b ** d
        section = SectionDiffuse(0.05, percolation_ifs(b, d), k=k, floor=N * N)
        keys = np.random.default_rng(5).integers(0, 2 ** 63, size=7, dtype=np.uint64)
        # nodes of the whole chunk at each level 0..k-1, and 100 counted before
        sizes = [len(LazyGW(Binomial(N, p), 0)._level(keys, j)[0]) for j in range(k)]
        spent = 100
        budgets = sorted({spent + total + step for total in np.cumsum(sizes).tolist()
                          for step in (-1, 0, 1)})
        for pred in (DiffuseBlock(b, k, d=d, floor=N * N), section):
            partials = set()
            for budget in budgets:
                outcome = []
                for full in (True, False):
                    lazy = LazyGW(Binomial(N, p), 0, node_budget=budget)
                    lazy.nodes_sampled = spent
                    scan = _LayeredScan(lazy, pred)
                    walk = scan._block_walk if pred is not section else scan._section_walk
                    try:
                        lazy._level(keys, k) if full else walk(keys)
                        outcome.append(None)
                    except ResourceLimitError as err:
                        outcome.append((str(err), err.partial))
                assert outcome[0] == outcome[1], (b, d, k, p, budget, type(pred))
                partials.add(None if outcome[0] is None else outcome[0][1])
            # every level trips the guard at some budget, and the largest passes
            assert partials == set(range(k)) | {None}, partials


@pytest.mark.parametrize("b, d, p, c, k, depth, seed, digest", [
    (2, 2, 0.9, 2, 4, 12, 0, "6fda43cad724476f"),
    (3, 2, 0.99, 3, 4, 8, 1, "7ffe168443208b12"),
    (2, 2, 0.97, 3, 3, 6, 4, "1a6cf3c1db5b63af"),  # a floor above the block size
])
def test_block_witness_tree_samples_nothing(monkeypatch, b, d, p, c, k, depth, seed, digest):
    # a good block leaf keeps its witness from its one leaf walk (a full
    # block's first label, or a copy), so the final tree samples no node
    A = round(c ** k)
    lazy = LazyGW(Binomial(b ** d, p), seed)
    scan = _LayeredScan(lazy, DiffuseBlock(b, k, d=d, floor=A))
    v, m, _ = _scan_candidates(scan, depth // k, 256)

    def walk(*args):
        raise AssertionError("witness_tree sampled a node")
    monkeypatch.setattr(LazyGW, "_walk", walk)
    tree = scan.witness_tree(v, m)
    assert hashlib.sha256(tree.to_text().encode()).hexdigest().startswith(digest)


def test_scan_keys_only_the_root(monkeypatch):
    # a node's stream key comes with it from its parent's walk, so the scan
    # derives a key from a word at most once, for the root
    calls = []
    key = LazyGW.key
    monkeypatch.setattr(LazyGW, "key", lambda self, word: calls.append(word) or key(self, word))
    es = percolation_pipeline(2, 2, 0.9, 2, 4, depth=12, seed=0)
    assert es.stats["candidates_tested"] == 50
    assert len(calls) <= 1 and all(w == () for w in calls), calls


def test_gallery_block_scan_walks_no_more_leaves(monkeypatch):
    walked = []
    block_walk = _LayeredScan._block_walk
    monkeypatch.setattr(_LayeredScan, "_block_walk",
                        lambda self, keys: walked.append(len(keys)) or block_walk(self, keys))
    es = percolation_pipeline(3, 2, 0.99, 3, 4, depth=12, seed=0)
    assert (es.stats["child_tests"], es.stats["nodes_sampled"]) == (54797, 43645046)
    assert sum(walked) <= 60_795, sum(walked)


def _random_label_sets(rng, alphabet, group, count):
    """Label sets from sparse to dense, some holding whole prefix groups."""
    for _ in range(count):
        keep = rng.random(alphabet) < rng.choice((0.3, 0.6, 0.9))
        for g in rng.choice(alphabet // group, size=rng.integers(0, 3)):
            keep[g * group:(g + 1) * group] = True
        yield np.flatnonzero(keep)


@pytest.mark.parametrize("kind", ["block", "section"])
def test_witness_exists_exactly_for_members(kind):
    # the lazy scan builds most witnesses only for the final tree, which is
    # sound because a member always has one
    rng = np.random.default_rng(3)
    if kind == "block":
        pred = DiffuseBlock(2, 3, d=2, floor=27)
        alphabet, group = 64, 16
    else:
        ifs = percolation_ifs(3, 2)
        pred = SectionDiffuse(0.05, ifs, k=2, floor=9)
        alphabet, group = 81, 9
    outcomes = set()
    for i, labels in enumerate(_random_label_sets(rng, alphabet, group, 150)):
        labels = labels.astype((np.int64, np.uint8, np.uint16)[i % 3])
        member = pred.member(labels)
        wit = pred.witness_subset(labels)
        assert (wit is not None) == member
        if wit is not None:
            # a fresh ascending array of input labels, which pins no larger one
            assert isinstance(wit, np.ndarray) and wit.dtype == labels.dtype
            assert wit.base is None
            assert (wit[1:] > wit[:-1]).all()
            assert np.isin(wit, labels).all()
            assert len(wit) >= pred.min_arity()
            assert pred.member(wit)
        outcomes.add(member)
    assert outcomes == {True, False}


def _witness_oracle(pred, labels):
    """The padded witness as first written: mask the core in with `np.isin`,
    add the smallest other labels, then judge the result with `member`."""
    core, need = pred.witness_core(labels), pred.min_arity()
    if core is None or len(labels) < need:
        return None
    keep = np.isin(labels, core, assume_unique=True)
    keep[np.flatnonzero(~keep)[:max(0, need - len(core))]] = True
    witness = labels[keep]
    return witness if pred.member(witness) else None


@pytest.mark.parametrize("kind, floor", [
    ("ary", 3), ("ary", 10), ("block", 20), ("block", 40), ("section", 12), ("section", 27)])
def test_witness_subset_matches_the_reference(kind, floor):
    # the one-pass trim keeps the reference's witness and certifies the same
    # families in the same order, so `certs` and the budget trip read the same
    rng = np.random.default_rng(floor)
    F = _attractor_cloud(percolation_ifs(3, 2))
    make, alphabet, group = {
        "ary": (lambda: SubtreePredicate(floor), 40, 8),
        "block": (lambda: DiffuseBlock(2, 3, d=2, floor=floor), 64, 16),
        "section": (lambda: SectionDiffuse(0.05, percolation_ifs(3, 2), F_cloud=F, k=2,
                                           floor=floor), 81, 9)}[kind]
    pred, ref = make(), make()
    sides = set()
    for labels in _random_label_sets(rng, alphabet, group, 200):
        count, ref_count = getattr(pred, "cert_count", 0), getattr(ref, "cert_count", 0)
        wit, want = pred.witness_subset(labels), _witness_oracle(ref, labels)
        assert (wit is None) == (want is None)
        assert wit is None or np.array_equal(wit, want)
        assert getattr(pred, "cert_count", 0) - count == getattr(ref, "cert_count", 0) - ref_count
        core = pred.witness_core(labels)  # certified above: cached
        if wit is not None and len(core):
            sides.add((wit[0] < core[0], wit[-1] > core[-1]))
    # padding ahead of the core only, and on both sides
    assert kind == "ary" or {(True, False), (True, True)} <= sides, sides


def test_witness_padding_cut_inside_a_family_certifies_it():
    # family 0 holds letters 0-2, a row, and fails; family 1 is the whole grid.
    # A floor of 10 pads the core with label 0 alone, cutting family 0 to
    # letter 0, and that one-map family is certified, as `member` would
    sd = SectionDiffuse(0.05, percolation_ifs(3, 2), k=2, floor=10)
    labels = np.concatenate([[0, 1, 2], np.arange(9, 18)])
    assert sd.witness_core(labels).tolist() == list(range(9, 18))
    assert sd.cert_count == 2
    assert sd.witness_subset(labels).tolist() == [0] + list(range(9, 18))
    assert sd.cert_count == 3 and sd._ok == {0b111: False, 0b111111111: True, 0b1: False}


def test_section_leaf_hands_its_certified_row_to_the_witness():
    # a good section leaf's judge trims its witness around the first row it
    # certified; the scan must store the witness `witness_subset` finds in all
    # the leaf's codes, with the same certificates, leaf by leaf.  The rows
    # read are a lex prefix holding the floor and the core, which is all the
    # witness reads, and a leaf below its floor certifies nothing
    ifs = percolation_ifs(3, 2)
    F = _attractor_cloud(ifs)
    sd, ref = (SectionDiffuse(0.1, ifs, F_cloud=F, k=2, floor=12) for _ in range(2))
    lazy = LazyGW(Binomial(9, 0.6), 0)
    scan = _LayeredScan(lazy, sd)
    keys = np.random.default_rng(4).integers(0, 2 ** 63, size=40, dtype=np.uint64)
    judge, _ = scan._section_walk(keys)
    codes, _, bounds, _ = lazy._level(keys, 2)
    good = cut = 0
    for i in range(len(keys)):
        labels = codes[bounds[i]:bounds[i + 1]]
        count, ref_count, seen = sd.cert_count, ref.cert_count, set(ref._ok)
        assert scan._record_leaf(i, *judge(i)) == (len(labels) >= ref.floor
                                                    and ref.member(labels))
        want = ref.witness_subset(labels) if len(labels) >= ref.floor else None
        assert (scan.witness.get(i) is None) == (want is None), i
        assert want is None or np.array_equal(scan.witness[i], want), i
        assert sd.cert_count - count == ref.cert_count - ref_count, i
        if want is not None:
            good += 1
            core = ref.witness_core(labels)
            pad, s = ref.floor - len(core), int(np.searchsorted(labels, core[0]))
            if 0 < pad < s and labels[pad - 1] // 9 == labels[pad] // 9:
                # the padding cuts the failing family ahead of the core short,
                # and that part of it is certified here for the first time
                part = sum(1 << int(x) % 9 for x in labels[:pad] if x // 9 == labels[pad] // 9)
                cut += ref._ok.get(part) is False and part not in seen
    assert good > 0 and cut > 0, (good, cut)


def _pinned(es):
    stats = {k: v for k, v in es.stats.items() if k != "predicted"}
    return (es.root_word.text,
            hashlib.sha256(es.tree_text().encode()).hexdigest(), stats)


def test_block_scan_pinned_outputs():
    root, sha, stats = _pinned(percolation_pipeline(2, 2, 0.9, 2, 4, depth=12, seed=0))
    assert root == "0-3-1-0"
    assert sha == "6fda43cad724476fb62322ac046f5d02e1fb2f2aefffd18c454a52a948cb1011"
    assert stats["candidates_tested"] == 50
    assert stats["by_level"] == {"0": 1, "1": 49}
    assert (stats["child_tests"], stats["capped_nodes"], stats["nodes_sampled"]) \
        == (12817, 0, 822124)

    root, sha, stats = _pinned(percolation_pipeline(3, 2, 0.99, 3, 4, depth=8, seed=1))
    assert root == ""
    assert sha == "7ffe168443208b121e6c03a16784797aabe27a77ef94533426dbd16e4c43a751"
    assert (stats["child_tests"], stats["nodes_sampled"]) == (159, 127251)

    # sampler-bound: 22k nodes below each leaf, most of them on level k - 1
    root, sha, stats = _pinned(percolation_pipeline(2, 3, 0.9, 2, 6, depth=12, seed=1))
    assert root == "0-0-0-0-0-0"
    assert sha == "e1c02c26491f46e52fc8a9141ef814b15edbf515f8016901abf97e66d39eb422"
    assert (stats["child_tests"], stats["capped_nodes"], stats["nodes_sampled"]) \
        == (256, 1, 5752699)


def test_block_scan_pinned_not_found():
    with pytest.raises(NotFoundError) as ei:
        percolation_pipeline(2, 2, 0.9, 2, 4, depth=12, seed=0, scan_budget=4)
    stats = ei.value.stats
    assert stats["candidates_tested"] == 4
    assert (stats["child_tests"], stats["nodes_sampled"]) == (12817, 822124)
    assert stats["exhausted"] is False


def test_scan_exhausted_only_when_nothing_was_dropped():
    # seed 0 has 12 vertices below the root and no witness anywhere
    for budget, exhausted in ((10 ** 6, True), (13, True), (12, False)):
        with pytest.raises(NotFoundError) as ei:
            percolation_pipeline(2, 2, 0.6, 2, 4, depth=8, seed=0, scan_budget=budget)
        stats = ei.value.stats
        assert stats["candidates_tested"] == min(budget, 13)
        assert stats["exhausted"] is exhausted, budget


def test_section_scan_pinned_outputs():
    es = general_pipeline(percolation_ifs(3, 2), Binomial(9, 0.7), rho=3.0 ** -4,
                          alpha=1, c=0.05, seed=20, n_levels=2)
    stats = _pinned(es)[2]
    assert (stats["certs"], stats["child_tests"], stats["nodes_sampled"]) \
        == (88, 81, 23550)
    # 136 children are tested for an 81-ary witness, so some passing children
    # stay out of the tree; building their witnesses certifies 7 more families
    root, sha, stats = _pinned(general_pipeline(
        percolation_ifs(3, 2), Binomial(9, 0.6), rho=3.0 ** -4, alpha=1, c=0.14,
        seed=2, n_levels=2))
    assert root == ""
    assert sha == "ff95ddec5839e922c9ba843c9a2d1d7326781eec10fe37641b95e85b2bdf3df1"
    assert (stats["certs"], stats["child_tests"], stats["nodes_sampled"]) \
        == (427, 136, 25398)


def test_natural_measure_mass_law():
    tree = FiniteTree.full(3, 2)
    sub = find_subtree(tree, SubtreePredicate(2), 2)
    masses = natural_measure(sub, 0.5, 1.0)
    assert masses[Word()] == 1.0
    level1 = [masses[w] for w in sub.level(1)]
    assert level1 == [0.5, 0.5]
    assert sum(masses[w] for w in sub.level(2)) == pytest.approx(1.0)


def test_natural_measure_rejects_ragged_tree():
    tree = FiniteTree(3, 1, [Word((0,))])
    with pytest.raises(InvalidInputError):
        natural_measure(tree, 0.5, 1.0)  # A=2 but root has one child
    with pytest.raises(InvalidInputError):
        natural_measure(tree, 0.5, 1.5)  # A not an integer


def test_predicted_presence_fields():
    res = predicted_presence(Binomial(4, 0.95), 3, 27, 1, mode="block")
    for key in ("tau", "g_iterate", "flagged", "mode", "k", "arity", "levels"):
        assert key in res
    assert 0.0 <= res["tau"] <= 1.0
    weak = predicted_presence(Binomial(4, 0.55), 3, 27, 1, mode="block")
    assert weak["tau"] < res["tau"]


def test_percolation_pipeline_frozen():
    es = percolation_pipeline(2, 2, 0.95, 3, 3, seed=0)
    assert es.root_word.text == "0-0-1"
    assert es.arity == 27
    assert es.levels() == 1
    assert es.beta == pytest.approx(0.010524339857755478, rel=1e-9)
    assert es.stats["block_constant"] == pytest.approx(0.23813862658978446,
                                                       rel=1e-12)
    leaves = es.leaf_words()
    assert len(leaves) == 27
    assert all(len(w) == 6 for w in leaves)
    assert len(set(leaves)) == 27
    # the witness children really contain a full two-level block
    pred = DiffuseBlock(2, 3, 2)
    root_children = es.subtree.children[Word()]
    assert len(root_children) == 27
    assert pred.member(np.array(sorted(root_children)))


def test_percolation_pipeline_determinism():
    a = percolation_pipeline(2, 2, 0.95, 3, 3, seed=0)
    b = percolation_pipeline(2, 2, 0.95, 3, 3, seed=0)
    assert a.to_json() == b.to_json()


def test_percolation_pipeline_not_found_stats():
    with pytest.raises(NotFoundError) as ei:
        percolation_pipeline(2, 2, 0.60, 2, 4, seed=0, scan_budget=8)
    stats = ei.value.stats
    assert stats["candidates_tested"] <= 8
    assert "predicted" in stats
    assert stats["predicted"]["tau"] < 0.5


def test_general_pipeline_grid_frozen():
    ifs = percolation_ifs(3, 2)
    alpha = math.log(100) / math.log(81)
    es = general_pipeline(ifs, Binomial(9, 0.95), rho=3.0 ** -4, alpha=alpha,
                         c=0.05, seed=11)
    assert es.root_word.text == ""
    assert es.arity == 100
    assert es.levels() == 2
    assert len(es.leaf_words()) == 10_000
    assert es.beta == pytest.approx(7.274761123318391e-05, rel=1e-9)
    assert es.stats["predicted"]["tau"] > 0.999
    masses = es.measure()
    assert masses[Word()] == 1.0
    mc = es.measured_cloud()
    assert len(mc.points) == 10_000
    assert mc.masses.sum() == pytest.approx(1.0)


def test_general_pipeline_sierpinski_reduced():
    es = general_pipeline(sierpinski_ifs(), Binomial(3, 0.95), rho=1.0 / 64,
                         alpha=7.0 / 6, c=0.05, seed=3)
    assert es.arity == 128
    assert es.levels() == 2
    assert len(es.leaf_words()) == 16_384
    assert es.params["reduced_level"] == 2
    assert es.beta == pytest.approx(9.765625e-05, rel=1e-9)
    # the scan over the section law's draws, pinned before the draw went level-wise
    assert {k: es.stats[k] for k in ("child_tests", "nodes_sampled", "certs")} \
        == {"child_tests": 128, "nodes_sampled": 9683, "certs": 20}
    assert es.stats["base_family_constant"] == 0.17063968993356887
    assert hashlib.sha256(es.tree_text().encode()).hexdigest() \
        == "38b95ab3fccf2badfc37ef52df2bdeeeded32603146de76c246f8802e01b139b"


def test_general_pipeline_rejects_non_integral_arity():
    ifs = percolation_ifs(3, 2)
    with pytest.raises(InvalidInputError):
        general_pipeline(ifs, Binomial(9, 0.95), rho=3.0 ** -4, alpha=1.05,
                        c=0.05, seed=0)


def test_general_pipeline_rejects_levels_below_one():
    # the scan tests a vertex for m >= 1 levels; n_levels = 0 or -1 used to
    # return a root-only subset reporting that many levels
    ifs = percolation_ifs(3, 2)
    for n_levels in (0, -1):
        with pytest.raises(InvalidInputError):
            general_pipeline(ifs, Binomial(9, 0.9), rho=3.0 ** -4, alpha=1.0,
                             c=0.05, n_levels=n_levels)


def test_section_reduction_composes_maps():
    base = sierpinski_ifs()
    reduced, law = section_reduction(base, Binomial(3, 0.9), 2)
    assert reduced.alphabet_size == 9
    words = law.words
    assert all(len(w) == 2 for w in words)
    x = np.array([[0.2, 0.6]])
    for m, w in zip(reduced.maps, words):
        assert np.allclose(m.apply(x), word_map(base, w).apply(x))
    assert law.mean() == pytest.approx(2.7 ** 2)
    assert law.alphabet_size == 9


def _per_word_draw(law, keys):
    """The section draw as first written: walk every prefix of the words in
    (length, lex) order, one base draw per parent and one mixed key per prefix."""
    order = sorted({Word(w[:i]) for w in law.words for i in range(1, len(w) + 1)},
                   key=lambda w: (len(w), w))
    alive = {Word(): np.ones(len(keys), dtype=bool)}
    node_keys = {Word(): np.asarray(keys, dtype=np.uint64)}
    salts = _child_salts(law.base.alphabet_size)
    keep = {}
    for w in order:
        par = w.parent
        if par not in keep:
            keep[par] = law.base.sample_matrix(node_keys[par])
        alive[w] = alive[par] & keep[par][:, w[-1]]
        node_keys[w] = _mix64_inplace(node_keys[par] ^ salts[w[-1]])
    return np.column_stack([alive[w] for w in law.words])


def test_section_law_draw_matches_the_per_word_draw():
    # one base draw per prefix level gives every row bit for bit, as a row is
    # a pure function of its stream key; words of unequal length included
    ifs = _unequal_ratio_ifs()
    words = section_pi_rho(ifs.weights, ifs.weights.r_min ** 2)
    assert sorted({len(w) for w in words}) == [2, 3]
    laws = [section_reduction(sierpinski_ifs(), Binomial(3, 0.95), 2)[1],
            section_reduction(sierpinski_ifs(), Binomial(3, 0.6), 3)[1],
            SectionLaw(Binomial(4, 0.8), words)]
    rng = np.random.default_rng(8)
    for law in laws:
        for count in (0, 1, 72, 4000):
            keys = rng.integers(0, 2 ** 64 - 1, size=count, dtype=np.uint64)
            got, want = law.sample_matrix(keys), _per_word_draw(law, keys)
            assert got.shape == want.shape == (count, len(law.words))
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert np.array_equal(got, want), (len(law.words), count)
        assert 0 < want.mean() < 1
    # the plan places each word below a parent: the empty word has none
    for bad in ([], [Word(), Word((0,))]):
        with pytest.raises(InvalidInputError):
            SectionLaw(Binomial(3, 0.9), bad)


def test_section_law_declines_closed_forms():
    _, law = section_reduction(sierpinski_ifs(), Binomial(3, 0.9), 2)
    with pytest.raises(CapabilityError):
        law.pgf(0.5)
    # nor does g enumerate over it, for a cardinality collection as for generators
    for coll in (ary_collection(2), generator_collection([(0, 4)])):
        gf = GFunction(law, coll)
        assert gf.strategy == "enum"
        with pytest.raises(CapabilityError):
            gf.eval(0.5)
    doc = law.to_json()
    assert doc["kind"] == "section_law"
    assert len(doc["section"]) == 9


def test_leaf_words_render_inside_unit_square():
    es = percolation_pipeline(2, 2, 0.95, 3, 3, seed=0)
    cloud = es.cloud()
    assert cloud.points.min() >= -1e-9
    assert cloud.points.max() <= 1.0 + 1e-9
    # the leaf count is read from the tree, the measured cloud renders once
    assert es.to_json()["leaf_count"] == len(es.leaf_words()) == 27
    assert np.array_equal(es.measured_cloud().points, cloud.points)


def _unequal_ratio_ifs():
    I = np.eye(2)
    return SimilarityIFS(2, [SimilarityMap(0.45, I, (0, 0)),
                             SimilarityMap(0.4, I, (0.6, 0)),
                             SimilarityMap(0.4, I, (0, 0.6)),
                             SimilarityMap(0.45, I, (0.55, 0.55))])


def test_general_pipeline_star_frozen():
    es = general_pipeline(_unequal_ratio_ifs(), Binomial(4, 0.95), rho=1 / 16,
                          alpha=1.5, c=0.02, seed=0)
    assert es.pipeline == "general-star"
    assert es.root_word.text == "0-3-0-2"
    assert es.levels() == 1
    assert len(es.leaf_words()) == es.to_json()["leaf_count"] == 64
    assert es.params["depth"] == 7
    assert es.stats == {"candidates_tested": 50, "certs": 10, "star_nodes": 7297}
    digest = hashlib.sha256(es.tree_text().encode()).hexdigest()
    assert digest.startswith("8b5079593b75defe")
    # two star levels: the families below the root's children are split one
    # graded section down
    es = general_pipeline(_unequal_ratio_ifs(), Binomial(4, 0.95), rho=1 / 32,
                          alpha=1.2, c=0.02, seed=0)
    assert es.pipeline == "general-star"
    assert es.root_word.text == ""
    assert es.levels() == 2
    assert len(es.leaf_words()) == es.to_json()["leaf_count"] == 4096
    assert es.params["depth"] == 9
    assert es.stats == {"candidates_tested": 1, "certs": 16, "star_nodes": 75303}
    digest = hashlib.sha256(es.tree_text().encode()).hexdigest()
    assert digest.startswith("84ccbff06dc76d1d")


def test_general_pipeline_star_budget_counts_tested_vertices():
    with pytest.raises(NotFoundError) as ei:
        general_pipeline(_unequal_ratio_ifs(), Binomial(4, 0.95), rho=1 / 16,
                         alpha=1.5, c=0.02, seed=0, scan_budget=10)
    assert ei.value.stats["candidates_tested"] == 10


_ARTIFACT_CASES = {
    # name: (pipeline call, sha256 of cloud, measured, measure CSV, leaf words)
    "block-27": (
        lambda: percolation_pipeline(2, 2, 0.95, 3, 3, seed=0),
        ("6a589c2f4a5e538923d70c4a698bdebee28bbcd8bd69f1aaeab722d92d3ec4ad",
         "d55fdac3a88fa9b4177fe4e84dec0c192ecd40ce8afebf4f98c98936decba1d0",
         "4578f7a3e54902a7de911299aa7a32a7e82cc438da4eb8454f207d4ba608a9cb",
         "a1d96864c196acfdca958d239870b9b84c6447618986cb95c46c0718b4abc72e")),
    "block-4096": (
        lambda: percolation_pipeline(2, 2, 0.99, 2, 4, depth=12, seed=1),
        ("0342e2e4430d7f63063483b70ef56e7432efa43d286bbee24575e08595ad80d7",
         "ec25680e42dbe802bc9ae943d24129f3b43f2165fd48a65899fa9a2e1ccd7358",
         "835a6cafbe3bd5c752929a8b43964dc92694bb2e944fcc6917b2568459475538",
         "36b8d379a6969c401a47618481792d6c915924f972bd7f4f42c2761a03d5c1b8")),
    "section-grid": (
        lambda: general_pipeline(percolation_ifs(3, 2), Binomial(9, 0.7), rho=3 ** -4,
                                 alpha=1, c=0.05, seed=20, n_levels=2),
        ("b1b196ad88cdfa4e88036454308c18fda3d6b7d3d4c75a2766c71ff161bb04e3",
         "4f9aaaceaf69d64c22737d05c51e41d1038fe86e7ab4b9729607ceb0a65820e1",
         "00abed6828e30ec9788aaf92fb398085eb77e4bedea6c06606ba3f1ea47b1e45",
         "9b5f77d45ff460023603b6653bd75d28d59a6c2c4f66779ed5ab0a7a365ce8d6")),
    "star": (
        lambda: general_pipeline(_unequal_ratio_ifs(), Binomial(4, 0.95), rho=1 / 16,
                                 alpha=1.5, c=0.02, seed=0),
        ("ac17ec4e06c4303e8f32834919453f119889695df70d18e34d21681253097d01",
         "831feecd72c1aaad400c9e7aed12846378bae9d3d733ce8ca38b81b63e4dc395",
         "f3eb6eeab0507bfe3718db16c6a4ae2d661eed12a18de46750b09e50a70f7811",
         "328d27442d877a8bd4b40c5cb86baa00d4fef8228e1097bf81dc8d7fbad041d4")),
    "star-2": (
        lambda: general_pipeline(_unequal_ratio_ifs(), Binomial(4, 0.95), rho=1 / 32,
                                 alpha=1.2, c=0.02, seed=0),
        ("f25aee1002fb833f4fe4978e237e1e98f9afe4f48d40ff56e92366691b21eb57",
         "978e6a00a6694cf96ad56b77aafd2a9f1255931edb9a5cd4450696e76f66704c",
         "d391b3f9172392e99ef04762d67c52581b06c821abc0a3edea9ac7592a84a098",
         "0c43bfc49f9231525c47ca3290d67c33a5fd3c786b1d5f132183086919651c92")),
}


@pytest.mark.parametrize("name", sorted(_ARTIFACT_CASES))
def test_extraction_artifacts_are_pinned(name):
    build, digests = _ARTIFACT_CASES[name]
    es = build()
    blobs = (cloud_to_csv(es.cloud()), measured_to_csv(es.measured_cloud()),
             es.measure_csv(), "\n".join(w.text for w in es.leaf_words()))
    got = tuple(hashlib.sha256(b.encode()).hexdigest() for b in blobs)
    assert got == digests


@pytest.mark.parametrize("name", sorted(_ARTIFACT_CASES))
def test_subset_cells_match_whole_word_composition(monkeypatch, name):
    # one top-down pass (root word once, block codes and star suffixes letter
    # by letter) gives each leaf's point and cell radius bit for bit as
    # composing its whole word does
    es = _ARTIFACT_CASES[name][0]()
    want = geometry._render_letters(es.ifs, *es._leaves(), None)
    radii = np.array([es.ifs.weights.weight(w) for w in es.leaf_words()]) \
        * (es.ifs.diameter_bound() / 2.0)
    for rows in (13, 4096):  # 13 cuts sibling families between chunks
        monkeypatch.setattr(geometry, "_RENDER_ROWS", rows)
        cloud, mc = es.cloud(), es.measured_cloud()
        assert np.array_equal(cloud.points, want.points) and cloud.eps == want.eps
        assert np.array_equal(mc.points, want.points)
        assert np.array_equal(mc.cell_radii, radii)
