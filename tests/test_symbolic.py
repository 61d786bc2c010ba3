import hashlib
import math

import numpy as np
import pytest

from gwfract.branching import Binomial, PerLetterBernoulli, sample_gw

from gwfract.symbolic import (
    FiniteTree,
    InvalidInputError,
    ResourceLimitError,
    StarTree,
    Word,
    WeightedAlphabet,
    block_letters,
    compress_along_pi_rho,
    rho_index,
    section_pi_rho,
    validate_section,
)


def test_word_roundtrip_and_order():
    w = Word((2, 0, 1))
    assert w.text == "2-0-1"
    assert FiniteTree.from_text(w.text + "\n").level(3) == [w]
    assert w.parent == Word((2, 0))
    assert Word() < Word((0,)) < Word((0, 1)) < Word((1,))


def test_word_empty_parent_raises():
    with pytest.raises(InvalidInputError):
        Word().parent


def test_weighted_alphabet_products():
    wa = WeightedAlphabet((0.5, 0.25))
    assert wa.weight(Word((0, 1, 1))) == pytest.approx(0.5 * 0.25 * 0.25)
    assert wa.r_min == 0.25 and wa.r_max == 0.5
    with pytest.raises(InvalidInputError):
        WeightedAlphabet((1.0,))
    with pytest.raises(InvalidInputError):
        WeightedAlphabet(())


def test_section_equal_ratios_is_a_full_level():
    wa = WeightedAlphabet((1 / 3.0,) * 9)
    words = section_pi_rho(wa, 0.1)
    # (1/3)^3 <= 0.1 < (1/3)^2, so the section is the whole third level
    assert len(words) == 9 ** 3
    assert all(len(w) == 3 for w in words)
    assert validate_section(9, words)


def test_section_unequal_ratios_explicit():
    wa = WeightedAlphabet((0.5, 0.25))
    got = set(section_pi_rho(wa, 0.2))
    assert got == {Word((0, 0, 0)), Word((0, 0, 1)), Word((0, 1)),
                   Word((1, 0)), Word((1, 1))}
    assert validate_section(2, got)
    for w in got:
        assert wa.weight(w) <= 0.2 * (1 + 1e-12)
        assert wa.weight(w) > 0.2 * wa.r_min * (1 - 1e-12)


def test_section_rejects_rho_at_or_above_r_min():
    wa = WeightedAlphabet((0.5, 0.25))
    with pytest.raises(InvalidInputError):
        section_pi_rho(wa, 0.5)
    # the extended switch lifts the restriction for derived thresholds
    sec = section_pi_rho(wa, 0.5, extended=True)
    assert validate_section(2, sec)


def test_section_budget():
    wa = WeightedAlphabet((0.9, 0.9))
    with pytest.raises(ResourceLimitError):
        section_pi_rho(wa, 1e-9, node_budget=500)


def test_validate_section_rejects_non_antichain_and_gaps():
    assert not validate_section(2, [Word((0,)), Word((0, 1)), Word((1,))])
    assert not validate_section(2, [Word((0,))])
    assert validate_section(2, [Word((0,)), Word((1, 0)), Word((1, 1))])


def test_rho_index_equal_ratios():
    wa = WeightedAlphabet((1 / 3.0,) * 3)
    # a tie within comparison tolerance grades a length-5 word into level 5
    n, a = rho_index(wa, (1 / 3.0) * (1 - 1e-13), Word((0, 1, 2, 0, 1)))
    assert n == 5
    assert a == pytest.approx(1.0, rel=1e-9)
    assert rho_index(wa, 0.2, Word()) == (0, 1.0)


def test_rho_index_leftover_range():
    wa = WeightedAlphabet((0.5, 0.25))
    rho = 0.2
    for w in section_pi_rho(wa, rho):
        n, a = rho_index(wa, rho, w)
        assert n == 1
        assert wa.r_min < a <= 1.0 + 1e-12


def test_full_tree_levels():
    t = FiniteTree.full(3, 2)
    assert t.level_sizes() == [1, 3, 9]
    assert len(t.level(2)) == 9
    assert t.extinct_level() is None


def test_tree_text_roundtrip():
    t = FiniteTree(
        2, 3, [Word((0, 0, 0)), Word((0, 1, 1)), Word((1, 0, 0))])
    back = FiniteTree.from_text(t.to_text())
    assert back == t


@pytest.mark.parametrize("n, p, depth, seed, sizes, sha", [
    (9, 0.7, 6, 2, [1, 5, 30, 187, 1183, 7476, 47032],
     "9885d4daa46771e55b49ea0a0efb2fab1c3b3a008aaec6b5f8eca1bb274a0e4c"),
    # letters 10 and 11: the preorder is numeric, so 10 follows 9
    (12, 0.3, 4, 4, [1, 7, 23, 83, 301],
     "53d224306c05573ae3d781edaad0162e0a28bbb2a74896830ae9b6f0e6ead992"),
])
def test_sampled_tree_text_is_pinned(n, p, depth, seed, sizes, sha):
    tree = sample_gw(Binomial(n, p), depth, seed).tree
    assert tree.level_sizes() == sizes
    assert len(tree) == sum(sizes)
    text = tree.to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == sha
    back = FiniteTree.from_text(text)
    assert back == tree
    assert back.to_text() == text


def test_extinct_sample_keeps_its_depth():
    tree = sample_gw(Binomial(9, 0.15), 5, 25).tree
    assert tree.level_sizes() == [1, 2, 2, 1, 0, 0]
    assert tree.extinct_level() == 4
    assert tree.level(5) == [] and len(tree) == 6
    assert all(not tree.children[w] for w in tree.level(3))
    assert FiniteTree.from_text(tree.to_text(), 9, 5) == tree
    assert FiniteTree.from_text(tree.to_text()) != tree  # depth read from the text is 3


def test_tree_text_orders_letters_numerically():
    t = FiniteTree(12, 2, [(10,), (9, 11), (9, 2), (1, 10)])
    assert t.to_text() == "\n".join(["", "1", "1-10", "9", "9-2", "9-11", "10"]) + "\n"
    assert t.level(2) == [Word((1, 10)), Word((9, 2)), Word((9, 11))]
    assert t.children[Word((9,))] == frozenset({2, 11})
    assert "children" not in vars(t)  # built on each use, not kept on the tree


@pytest.mark.parametrize("text", ["\n0\n0-x\n", "\n0\n0--1\n", "\n0\n0-1.5\n", "\n-1\n"])
def test_tree_text_rejects_bad_letters(text):
    with pytest.raises(InvalidInputError):
        FiniteTree.from_text(text)


def _reference_from_text(text):
    """The line-by-line tree-text parser the byte-level one replaced, kept as
    a reference: Python's int() reads each letter."""
    from gwfract.symbolic import _pad, _tree_levels
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    words = [ln for ln in lines if ln.strip()]
    lengths = np.array([ln.count("-") + 1 if ln.strip() else 0 for ln in lines], dtype=np.int64)
    flat = np.array("-".join(words).split("-") if words else [], dtype=np.int64)
    alphabet_size = int(flat.max(initial=-1)) + 1 or 1
    depth = int(lengths.max(initial=0))
    return FiniteTree._of(alphabet_size, depth, *_tree_levels(
        alphabet_size, depth, _pad(flat, lengths), lengths))


def _random_trees():
    yield from (sample_gw(Binomial(n, p), depth, seed).tree
                for n, p, depth, seed in [(9, 0.7, 4, 2), (12, 0.3, 4, 4), (2, 0.9, 7, 1),
                                          (9, 0.15, 5, 25)])
    rng = np.random.default_rng(35)
    for alphabet in (3, 11, 1000, 10 ** 17):
        words = [tuple(int(a) for a in rng.integers(0, alphabet, size=rng.integers(1, 5)))
                 for _ in range(40)]
        yield FiniteTree(alphabet, 4, words)
    yield FiniteTree(1, 0, [])


def test_tree_text_matches_the_line_parser():
    rng = np.random.default_rng(7)
    for tree in _random_trees():
        lines = tree.to_text().split("\n")[:-1]
        assert FiniteTree.from_text(tree.to_text()) == _reference_from_text(tree.to_text())
        leaves = {w for w, kids in tree.children.items() if not kids}
        for trial in range(6):
            # omit prefixes (internal nodes, which the leaves imply), shuffle,
            # then add blank lines, spaces at line ends, leading zeros and CRLF
            keep = [ln for ln in lines if not ln or rng.random() < 0.5 or
                    Word(int(a) for a in ln.split("-")) in leaves]
            keep = [keep[i] for i in rng.permutation(len(keep))]
            for _ in range(trial):
                keep.insert(int(rng.integers(0, len(keep) + 1)), str(rng.choice(["", " ", "\t"])))
            if trial >= 3:
                keep = [" %s\t" % ln if rng.random() < 0.3 else ln for ln in keep]
                keep = ["0" + ln if ln[:1].isdigit() and rng.random() < 0.3 else ln for ln in keep]
            text = ("\r\n" if trial % 2 else "\n").join(keep) + ("\n" if trial % 3 else "")
            assert FiniteTree.from_text(text) == _reference_from_text(text)
            assert FiniteTree.from_text(text, tree.alphabet_size, tree.depth) == tree


@pytest.mark.parametrize("line", ["+1", "0 - 1", "0- 1", "1_0", "\u0661", "0-\u00a02",
                                  "1234567890123456789"])
def test_tree_text_rejects_what_int_let_through(line):
    # the grammar is ASCII digits joined by '-': signs, spaces inside a line,
    # underscores, non-ASCII digits and spaces, and letters of over 18 digits
    # are out, though the line parser's int() read them
    text = "\n%s\n" % line
    assert len(_reference_from_text(text)) >= 2
    with pytest.raises(InvalidInputError):
        FiniteTree.from_text(text)
    with pytest.raises(InvalidInputError):
        FiniteTree.from_text(text.replace("\n", "\r\n"))


def test_level_arrays_are_narrow_and_wide_letters_round_trip():
    # parent index 2999 times the alphabet 2^20 is above 2^31: the builder's
    # keys must not be formed in int32
    a = 2 ** 20
    words = [Word((i, 5)) for i in range(3000)]
    tree = FiniteTree(a, 2, words)
    assert tree._letters[2].dtype == np.int32 and tree._parents[2].dtype == np.uint16
    assert 2999 * a > 2 ** 31
    level = tree.level(2)
    assert level == words
    assert Word((2999, 4)) not in level and Word((2998, 6)) not in level
    # letters at and above 2^31 keep int64 and round-trip exactly
    big = 2 ** 33
    top = (2 ** 31, 2 ** 31 + 1, big - 1)
    tree = FiniteTree(big, 2, [Word((x, y)) for x in top for y in top[1:]])
    assert tree._letters[1].dtype == np.int64 and tree._parents[1].dtype == np.uint8
    assert FiniteTree.from_text(tree.to_text(), big, 2) == tree
    assert "%d-%d" % (2 ** 31, big - 1) in tree.to_text().splitlines()
    assert tree.children[Word((big - 1,))] == frozenset(top[1:])
    assert tree.children[Word()] == frozenset(top)
    level = tree.level(2)
    assert Word((2 ** 31 + 1, big - 1)) in level and Word((big - 1, 2 ** 31)) not in level


def test_tree_closes_words_under_prefixes_and_checks_them():
    tree = FiniteTree(3, 3, [(2, 1), (0,), (2, 1, 0)])
    assert [tree.level(h) for h in range(4)] == [
        [Word()], [Word((0,)), Word((2,))], [Word((2, 1))], [Word((2, 1, 0))]]
    assert FiniteTree(3, 2, []).level_sizes() == [1, 0, 0]
    # a letter past the alphabet, a word past the depth, a negative depth
    for alphabet_size, depth, words in ((2, 1, [(3,)]), (3, 1, [(0, 1)]), (3, -1, [])):
        with pytest.raises(InvalidInputError):
            FiniteTree(alphabet_size, depth, words)


def test_block_encode_decode_roundtrip():
    for base, k in ((2, 3), (9, 2), (4, 4)):
        codes = np.arange(min(base ** k, 64))
        rows = block_letters(codes, base, k)
        assert rows.shape == (len(codes), k) and rows.dtype == np.int64
        for idx in codes.tolist():
            block = block_letters(idx, base, k).tolist()
            assert len(block) == k
            assert sum(a * base ** (k - 1 - i) for i, a in enumerate(block)) == idx
            assert rows[idx].tolist() == block


def test_compress_along_pi_rho_equal_weights_takes_every_second_level():
    t = FiniteTree.full(2, 4)
    wa = WeightedAlphabet((0.5, 0.5))
    star = compress_along_pi_rho(t, wa, 0.25)
    assert isinstance(star, StarTree)
    assert star.depth == 2
    for h in (1, 2):
        assert set(star.level(h)) == set(t.level(2 * h))


def test_compress_along_pi_rho_heights_agree_with_rho_index():
    wa = WeightedAlphabet((0.5, 0.25))
    rho = 0.2
    t = FiniteTree.full(2, 6)
    star = compress_along_pi_rho(t, wa, rho)
    for h in range(1, star.depth + 1):
        for w in star.level(h):
            assert rho_index(wa, rho, w)[0] == h


def test_compress_along_pi_rho_needs_depth():
    t = FiniteTree.full(2, 2)
    wa = WeightedAlphabet((0.5, 0.25))
    with pytest.raises(InvalidInputError):
        compress_along_pi_rho(t, wa, 0.2, n_levels=5)


def test_star_tree_membership_and_equality():
    t = FiniteTree.full(2, 4)
    wa = WeightedAlphabet((0.5, 0.5))
    star = compress_along_pi_rho(t, wa, 0.25)
    nodes = [w for h in range(star.depth + 1) for w in star.level(h)]
    assert all(w in nodes for w in (Word(), Word((0, 1)), Word((1, 0, 1, 1))))
    assert not any(w in nodes for w in (Word((0,)), Word((0, 1, 0)), Word((0, 1, 1, 0, 0))))
    assert star == compress_along_pi_rho(t, wa, 0.25)
    assert star != compress_along_pi_rho(t, wa, 0.25, n_levels=1)
    # the same layout is another tree with other family splits or as a FiniteTree
    resplit = StarTree(star.suffixes, star.depth, star._letters, star._parents,
                       [n + 1 for n in star.splits])
    assert star != resplit and star != FiniteTree.full(4, 2)


def test_section_sorted_words_are_sorted():
    wa = WeightedAlphabet((0.6, 0.3, 0.45))
    words = section_pi_rho(wa, 0.25)
    assert isinstance(words, tuple)
    assert list(words) == sorted(set(words))


def test_star_table_keys_are_reranked_before_they_overflow():
    # 63 base levels of suffix letters fold into one int64 key only when the
    # key is ranked densely on the way, here 6 times
    weights = WeightedAlphabet((0.95, 0.05))
    tree = sample_gw(PerLetterBernoulli((1.0, 0.05)), 63, 0).tree
    star = compress_along_pi_rho(tree, weights, 0.04, n_levels=1)
    zeros = lambda n: "-".join(["0"] * n)
    assert [(v.text, n) for v, n in zip(star.suffixes, star.splits)] == [
        (zeros(63), 5), (zeros(56) + "-1", 5), (zeros(46) + "-1", 5),
        (zeros(26) + "-1", 5), (zeros(16) + "-1", 5)]
    assert star.level(1) == sorted(w for w in section_pi_rho(weights, 0.04)
                                   if w in tree.level(len(w)))
