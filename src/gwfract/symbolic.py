"""Words, finite trees, sections, and compression along the graded sections.

Everything here is purely combinatorial; all types are immutable after
construction.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

# relative tolerance for weight-vs-threshold comparisons at section boundaries
REL_TOL = 1e-12

DEFAULT_NODE_BUDGET = 10_000_000


class InvalidInputError(ValueError):
    """A precondition on operation inputs was violated."""


class ResourceLimitError(RuntimeError):
    """A configured node/size budget was exceeded; carries partial progress."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class CapabilityError(RuntimeError):
    """The requested evaluation strategy is infeasible for these inputs."""


class DegenerateSampleError(RuntimeError):
    """Conditioning by rejection produced no usable samples."""


def weight_leq(a, b):
    # a <= b up to relative tolerance; ties count as <=
    return a <= b * (1.0 + REL_TOL)


class Word(tuple):
    """Finite word over letter indices 0..alphabet_size-1, ordered lexicographically."""

    __slots__ = ()

    def child(self, letter):
        return Word(tuple.__add__(self, (letter,)))

    @property
    def parent(self):
        if not self:
            raise InvalidInputError("the empty word has no parent")
        return Word(self[:-1])

    @property
    def text(self):
        return "-".join(str(a) for a in self)

    def __repr__(self):
        return "Word(%s)" % (self.text or "empty")


class WeightedAlphabet:
    """Per-letter weights r_i in (0,1); products of weights grade words by size."""

    def __init__(self, ratios):
        ratios = tuple(float(r) for r in ratios)
        if not ratios:
            raise InvalidInputError("alphabet must be nonempty")
        for r in ratios:
            if not (0.0 < r < 1.0):
                raise InvalidInputError("weights must lie strictly between 0 and 1, got %r" % (r,))
        self.ratios = ratios
        self.alphabet_size = len(ratios)
        self.r_min = min(ratios)
        self.r_max = max(ratios)

    def weight(self, word):
        w = 1.0
        for a in word:
            w *= self.ratios[a]
        return w

    def __eq__(self, other):
        return isinstance(other, WeightedAlphabet) and self.ratios == other.ratios

    def __hash__(self):
        return hash(self.ratios)

    def __repr__(self):
        return "WeightedAlphabet(%r)" % (self.ratios,)


def validate_section(alphabet_size, candidate):
    """True iff the word set is an antichain whose cylinders cover everything."""
    words = set(Word(w) for w in candidate)
    if not words:
        return False
    for w in words:
        for a in w:
            if not (0 <= a < alphabet_size):
                raise InvalidInputError("letter %r out of range for alphabet size %d" % (a, alphabet_size))
    # antichain: no word is a proper prefix of another
    for w in words:
        for i in range(len(w)):
            if Word(w[:i]) in words:
                return False

    # exact cover, decided recursively: a node is covered iff it is in the set
    # or all of its children are covered
    max_len = max(len(w) for w in words)

    def covered(node):
        if node in words:
            return True
        if len(node) >= max_len:
            return False
        return all(covered(node.child(a)) for a in range(alphabet_size))

    return covered(Word())


def section_pi_rho(weights, rho, extended=False, node_budget=DEFAULT_NODE_BUDGET):
    """Sorted tuple of the words whose weight first drops to <= rho, ties included.

    With extended=True the threshold may lie anywhere in (0,1); the default
    insists on rho < r_min, which makes the graded family {rho^n} disjoint.
    """
    rho = float(rho)
    if not (0.0 < rho < 1.0):
        raise InvalidInputError("rho must lie in (0,1), got %r" % (rho,))
    if not extended and not rho < weights.r_min:
        raise InvalidInputError("rho must be below r_min=%g (pass extended=True to lift)" % weights.r_min)

    out = []
    visited = 0
    stack = [(Word(), 1.0)]
    while stack:
        word, w = stack.pop()
        visited += 1
        if visited > node_budget:
            raise ResourceLimitError(
                "section enumeration exceeded node budget %d" % node_budget,
                partial=len(out),
            )
        if word and weight_leq(w, rho):
            out.append(word)
            continue
        for a in range(weights.alphabet_size):
            stack.append((word.child(a), w * weights.ratios[a]))
    return tuple(sorted(out))


def _section_depth(weights, t):
    """Length of the longest word in the section at threshold t.

    That word is the all-r_max one: the least L >= 1 with r_max^L <= t, the
    power taken by the same left-to-right product as `section_pi_rho`.
    """
    length, w = 1, weights.r_max
    while not weight_leq(w, t):
        length += 1
        w *= weights.r_max
    return length


def rho_index(weights, rho, word):
    """Index n of the graded section containing the word, and the leftover factor.

    Returns (n, a) with a = weight(word) / rho**n in (r_min, 1]; the empty
    word gets (0, 1).
    """
    rho = float(rho)
    if not (0.0 < rho < weights.r_min):
        raise InvalidInputError("rho must lie in (0, r_min)")
    word = Word(word)
    if not word:
        return 0, 1.0
    r_w = weights.weight(word)
    r_par = weights.weight(word.parent)
    # membership in level n: r_w <= rho^n < r_par
    n_max = int(math.floor(math.log(r_w) / math.log(rho))) + 2
    for n in range(n_max + 1):
        t = rho ** n
        if weight_leq(r_w, t) and not weight_leq(r_par, t):
            return n, r_w / t
    raise InvalidInputError("word %r does not lie in any graded section for rho=%g" % (word, rho))


def _word_rows(words):
    """Padded (n, longest) int64 letter matrix of a word list, and the word lengths."""
    words = list(words)
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    flat = np.fromiter((a for w in words for a in w), dtype=np.int64, count=int(lengths.sum()))
    return _pad(flat, lengths), lengths


def _pad(flat, lengths):
    # rows of the given lengths filled from `flat` end to end; the tail of a row is 0
    rows = np.zeros((len(lengths), int(lengths.max(initial=0))), dtype=np.int64)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = flat
    return rows


def _tree_levels(alphabet_size, depth, rows, lengths):
    """Per-level letters and parent indices of the prefix closure of letter rows.

    The one tree builder.  Row i spells a word of lengths[i] letters.  Level j
    keys each row long enough by (rank of its prefix at level j-1) * alphabet +
    letter; the ranks are below the node count, so no key overflows, and one
    sort per level puts the level in lexicographic order.
    """
    if depth < 0:
        raise InvalidInputError("depth must be >= 0")
    if len(lengths) and lengths.max() > depth:
        raise InvalidInputError("word longer than the declared depth %d" % depth)
    live = rows[np.arange(rows.shape[1]) < lengths[:, None]]
    if live.size and not (0 <= live.min() and live.max() < alphabet_size):
        raise InvalidInputError("letter out of range for alphabet size %d" % alphabet_size)
    letters, parents = [None], [None]
    rank = np.zeros(len(rows), dtype=np.int64)
    for j in range(1, depth + 1):
        keep = lengths >= j
        rows, lengths, rank = rows[keep], lengths[keep], rank[keep]
        keys, rank = np.unique(rank * alphabet_size + (rows[:, j - 1] if len(rows) else 0),
                               return_inverse=True)
        letters.append(keys % alphabet_size)
        parents.append(keys // alphabet_size)
    return letters, parents


class FiniteTree:
    """Prefix-closed set of words to a declared depth, stored level by level.

    `FiniteTree(alphabet_size, depth, words)` closes any word set under
    prefixes.  Level n = 1..depth holds the last letter of each of its words
    and the index of each word's parent in level n-1, in lexicographic order,
    so the parent indices ascend.  The root, always present, is level 0.
    `level` spells a level's words and `children` builds its dict from the
    arrays on each use, and neither is kept (a 6,561-leaf tree's dict takes
    1.4 MB, its arrays 20 KB); a caller that looks up many nodes binds the
    dict once.
    """

    def __init__(self, alphabet_size, depth, words):
        self.alphabet_size = int(alphabet_size)
        self.depth = int(depth)
        self._set(*_tree_levels(self.alphabet_size, self.depth, *_word_rows(words)))

    def _set(self, letters, parents):
        # each level in the narrowest of uint8, uint16, int32 and int64 that
        # holds it, letters below the alphabet and parents below the size of
        # the level above; readers widen before arithmetic
        def narrow(a, bound):
            return np.asarray(a, dtype=next(t for t in (np.uint8, np.uint16, np.int32, np.int64)
                                            if bound <= np.iinfo(t).max + 1))
        sizes = [1] + [len(a) for a in letters[1:]]
        self._letters = [None] + [narrow(a, self.alphabet_size) for a in letters[1:]]
        self._parents = [None] + [narrow(p, n) for p, n in zip(parents[1:], sizes)]

    @staticmethod
    def _of(alphabet_size, depth, letters, parents):
        """Tree over ready level arrays, narrowed by `_set` (index 0, the root, is unused).

        Always a plain `FiniteTree`: a `StarTree` also needs its suffix table.
        """
        tree = FiniteTree.__new__(FiniteTree)
        tree.alphabet_size = int(alphabet_size)
        tree.depth = int(depth)
        tree._set(letters, parents)
        return tree

    def _sub(self, depth, letters, parents):
        """Tree of the same kind and alphabet over the given level arrays."""
        return FiniteTree._of(self.alphabet_size, depth, letters, parents)

    @classmethod
    def full(cls, alphabet_size, depth):
        n = int(alphabet_size)
        letters = [None] + [np.tile(np.arange(n), n ** (h - 1)) for h in range(1, depth + 1)]
        parents = [None] + [np.repeat(np.arange(n ** (h - 1)), n) for h in range(1, depth + 1)]
        return cls._of(n, depth, letters, parents)

    def _rows(self, n):
        """(size, n) letter matrix of level n, row i spelling the i-th word, in
        the level's letter dtype."""
        size = len(self._letters[n]) if n else 1
        rows = np.empty((size, n), dtype=self._letters[n].dtype if n else np.int64)
        idx = np.arange(size)
        for j in range(n, 0, -1):
            rows[:, j - 1] = self._letters[j][idx]
            idx = self._parents[j][idx]
        return rows

    def level(self, n):
        """Sorted words at height n."""
        if not 0 <= n <= self.depth:
            return []
        rows, lengths = self._level_rows(n)
        return [Word(r[:k]) for r, k in zip(rows.tolist(), lengths.tolist())]

    def _level_rows(self, n):
        """Padded base-letter rows of level n's words, and the word lengths."""
        rows = self._rows(n)
        return rows, np.full(len(rows), n)

    def _spell(self, letters):
        """Base-letter rows and lengths of node letters: each letter is itself."""
        return letters[:, None], np.ones(len(letters), dtype=np.int64)

    @property
    def children(self):
        """Child letter set of every node; all leaves share one empty frozenset."""
        leaf = frozenset()
        out = {}
        for n in range(self.depth):
            words = self.level(n)
            kids = self._letters[n + 1].tolist()
            # parents ascend, so node i's children end where parent i + 1's begin
            ends = np.searchsorted(self._parents[n + 1], np.arange(1, len(words) + 1)).tolist()
            b = 0
            for w, e in zip(words, ends):
                out[w] = frozenset(kids[b:e]) if e > b else leaf
                b = e
        out.update(dict.fromkeys(self.level(self.depth), leaf))
        return out

    def __len__(self):
        return sum(self.level_sizes())

    def level_sizes(self):
        return [1] + [len(p) for p in self._parents[1:]]

    def extinct_level(self):
        """First empty level, or None if alive at the final depth."""
        sizes = self.level_sizes()
        return sizes.index(0) if 0 in sizes else None

    def __eq__(self, other):
        return (
            isinstance(other, FiniteTree)
            and self.alphabet_size == other.alphabet_size
            and self.depth == other.depth
            and all(np.array_equal(a, b) for a, b in zip(self._letters[1:], other._letters[1:]))
            and all(np.array_equal(a, b) for a, b in zip(self._parents[1:], other._parents[1:]))
        )

    def to_text(self):
        """One word per line as hyphen-separated letters, in lexicographic (pre)order.

        Letters are decimal and ordered as numbers, so 10 follows 9.
        """
        width = max(self.depth, 1)
        pads, lines, prev = [np.full((1, width), -1)], [""], [""]
        suffix = self._label_texts()
        for n in range(1, self.depth + 1):
            rows = self._rows(n)
            pads.append(np.pad(rows.astype(np.int64), ((0, 0), (0, width - n)),
                               constant_values=-1))
            sep = "-" if n > 1 else ""
            prev = [prev[p] + sep + suffix[a] for p, a in
                    zip(self._parents[n].tolist(), self._letters[n].tolist())]
            lines.extend(prev)
        order = np.lexsort(np.concatenate(pads).T[::-1])
        return "\n".join([lines[i] for i in order.tolist()]) + "\n"

    def _label_texts(self):
        # the letters in use only: a block alphabet can be far larger than the tree
        used = np.unique(np.concatenate([np.zeros(0, dtype=np.int64)] + self._letters[1:]))
        return {a: "%d" % a for a in used.tolist()}

    @classmethod
    def from_text(cls, text, alphabet_size=None, depth=None):
        """Parse tree text (README, "File formats"): any line order, prefixes may be left out."""
        flat, lengths = _text_letters(text)
        if alphabet_size is None:
            alphabet_size = int(flat.max(initial=-1)) + 1 or 1
        if depth is None:
            depth = int(lengths.max(initial=0))
        return cls._of(alphabet_size, depth, *_tree_levels(
            int(alphabet_size), int(depth), _pad(flat, lengths), lengths))


def _text_letters(text):
    """Letters of tree text in line order, and the letter count of each word
    line, tokenised on the text's bytes at once (README, "File formats")."""
    b = np.frombuffer(("\n%s\n" % text).encode("ascii", "replace"), np.uint8)
    space = ((b - np.uint8(11)) < 3) | (b == 9) | (b == 32)
    inner = False
    if space.any():
        # after the drop, a space run lay between bytes i and i + 1 where the count rose
        gap = np.diff(np.cumsum(space)[~space]) > 0
        b = b[~space]
        inner = (gap & (b[:-1] != 10) & (b[1:] != 10)).any()
    digit, dash = (b - np.uint8(48)) < 10, b == 45
    # the first and last bytes are newlines, so every digit run starts and stops
    starts = np.flatnonzero(digit[1:] > digit[:-1]) + 1
    size = np.flatnonzero(digit[:-1] > digit[1:]) - starts + 1
    if inner or size.max(initial=0) > 18 or not (digit | dash | (b == 10)).all() \
            or (dash[1:-1] & ~(digit[:-2] & digit[2:])).any():
        raise InvalidInputError("tree text lines must be decimal letters joined by '-'")
    letters = b[starts] - np.int64(48)
    for k in range(1, int(size.max(initial=0))):
        more = np.flatnonzero(size > k)
        letters[more] = letters[more] * 10 + b[starts[more] + k] - 48
    return letters, np.diff(np.flatnonzero(b[starts - 1] == 10), append=len(starts))


def block_letters(codes, base, k):
    """Letters of big-endian block codes, leading letter first.

    n codes give the (n, k) letter matrix, row i spelling codes[i]; codes
    of any shape s give shape s + (k,).  The letters keep the codes' integer
    dtype, widened only where it cannot hold the largest code base^k - 1.
    """
    codes = np.asarray(codes)
    dtype = np.promote_types(codes.dtype, np.min_scalar_type(base ** k - 1))
    powers = (base ** np.arange(k - 1, -1, -1, dtype=np.int64)).astype(dtype)
    return codes.astype(dtype, copy=False)[..., None] // powers % dtype.type(base)


class StarTree(FiniteTree):
    """Tree of variable-length words graded by a height function up to `depth`.

    A `FiniteTree` whose letters index a table sorted by suffix: entry i is
    the nonempty word `suffixes[i]` and the length `splits[i]` of its family
    prefix (`compress_along_pi_rho`).  A word may repeat with different
    splits.  A node's word is its parent's word followed by the suffix its
    letter names.  Sibling suffixes are never prefixes of one another, so
    suffix order is word order and the lexicographic layout holds as it is.
    `level(h)` spells root-relative words; `children` maps them to entry ids.
    """

    def __init__(self, suffixes, depth, letters, parents, splits):
        self.suffixes = tuple(Word(v) for v in suffixes)
        self.splits = tuple(int(n) for n in splits)
        self.alphabet_size = len(self.suffixes)
        self.depth = int(depth)
        self._set(letters, parents)

    def _sub(self, depth, letters, parents):
        return StarTree(self.suffixes, depth, letters, parents, self.splits)

    @cached_property
    def _table(self):
        """Padded base-letter rows of the suffixes, and their lengths."""
        return _word_rows(self.suffixes)

    def _level_rows(self, n):
        ids = self._rows(n)
        table, sizes = self._table
        live = np.arange(table.shape[1]) < sizes[:, None]
        lengths = sizes[ids].sum(axis=1)
        # each row's suffixes, their live letters end to end
        return _pad(table[ids][live[ids]], lengths), lengths

    def _spell(self, ids):
        """Base-letter rows and lengths of node letters: the suffixes they name."""
        table, sizes = self._table
        return table[ids], sizes[ids]

    def __eq__(self, other):
        return (isinstance(other, StarTree) and self.suffixes == other.suffixes
                and self.splits == other.splits and super().__eq__(other))

    def _label_texts(self):
        return [v.text for v in self.suffixes]


def compress_along_pi_rho(tree, weights, rho, n_levels=None):
    """Intersect the tree with the graded sections and grade nodes by section index.

    One top-down pass over the level arrays; the README's "Star compression"
    note gives its rules for sections, star parents and family prefixes.
    """
    if weights.alphabet_size != tree.alphabet_size:
        raise InvalidInputError("weights/tree alphabet mismatch")
    rho = float(rho)
    if not (0.0 < rho < weights.r_min):
        raise InvalidInputError("rho must lie in (0, r_min)")

    max_usable = 0
    while _section_depth(weights, rho ** (max_usable + 1)) <= tree.depth:
        max_usable += 1
    if n_levels is None:
        n_levels = max_usable
    if n_levels < 1 or n_levels > max_usable:
        raise InvalidInputError(
            "requested %r section levels but at most %d fit within depth %d"
            % (n_levels, max_usable, tree.depth)
        )
    ratios = np.append(weights.ratios, 1.0)  # the -1 padding letter weighs 1
    powers = np.array([rho ** n for n in range(n_levels + 1)])
    # per walked node of a level: its index there, weight, sections reached,
    # and its nearest star node (itself included): id, tree depth and
    # a = weight / rho**height.  The root is star node 0, found nodes are
    # numbered from 1 as found, and no node in the last section is walked below
    node, w, a = np.zeros(1, dtype=np.intp), np.ones(1), np.ones(1)
    count, up, top = np.zeros((3, 1), dtype=np.int64)
    found, size, sizes = [], 1, tree.level_sizes()
    for j in range(1, tree.depth + 1):
        slot = np.full(sizes[j - 1], -1)
        slot[node[count < n_levels]] = np.flatnonzero(count < n_levels)
        par = slot[tree._parents[j]]
        node = np.flatnonzero(par >= 0)
        par = par[node]
        w = w[par] * ratios[tree._letters[j][node]]
        above, count = count[par], (w[:, None] <= powers[1:] * (1.0 + REL_TOL)).sum(axis=1)
        up, top, a = up[par], top[par], a[par]
        new = np.flatnonzero(count > above)
        # suffix letters, read back up the tree, padded with -1 past the end
        lengths, idx = j - top[new], node[new]
        rows = np.full((len(new), tree.depth), -1, dtype=np.min_scalar_type(-tree.alphabet_size))
        for i in range(int(lengths.max(initial=0))):
            live = lengths > i
            rows[live, lengths[live] - 1 - i] = tree._letters[j - i][idx[live]]
            idx = tree._parents[j - i][idx]
        found.append((up[new], count[new], lengths, rho / (a[new] * weights.r_min), rows))
        up[new], top[new], a[new] = size + np.arange(len(new)), j, w[new] / powers[count[new]]
        size += len(new)

    ups, heights, lengths, theta, rows = map(np.concatenate, zip(*found))
    # the walk's arrays are not held through the table's sort
    del found, slot, par, node, w, a, count, up, top, above, new, idx
    rows = rows[:, :int(lengths.max(initial=0))]
    # the split: the least i whose first i letters weigh at most theta, their
    # product taken left to right one column at a time (padding included)
    splits = np.where(theta >= 1.0, 0, lengths)
    open_, weight = theta < 1.0, np.ones(len(rows))
    for i, letters in enumerate(rows.T, 1):
        weight *= ratios[letters]
        fits = open_ & (weight <= theta)
        splits[fits], open_ = i, open_ & ~fits
    # the table: distinct (suffix, split) rows in word order.  Each row folds
    # into one int64 key, a digit per letter + 1 (so the padding sorts first),
    # and the key is ranked densely wherever the next digit would overflow it
    key = np.zeros(len(rows), dtype=np.int64)
    base = max(weights.alphabet_size, rows.shape[1] + 1) + 1  # above every digit
    for digits in [*rows.T, splits]:
        if key.max(initial=0) >= np.iinfo(np.int64).max // base:
            key = np.unique(key, return_inverse=True)[1]
        key = key * base + digits + 1
    _, first, ids = np.unique(key, return_index=True, return_inverse=True)
    suffixes = [Word(r[:n]) for r, n in zip(rows[first].tolist(), lengths[first].tolist())]
    # each height in word order: by parent position, then by suffix
    pos = np.zeros(size, dtype=np.int64)
    letters, parents = [None], [None]
    for h in range(1, n_levels + 1):
        sel = np.flatnonzero(heights == h)
        sel = sel[np.lexsort((ids[sel], pos[ups[sel]]))]
        pos[sel + 1] = np.arange(len(sel))
        letters.append(ids[sel])
        parents.append(pos[ups[sel]])
    return StarTree(suffixes, n_levels, letters, parents, splits[first])
