"""Words, finite trees, sections, and compression along the graded sections.

Everything here is purely combinatorial; all types are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

import math
from itertools import product

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

    def __new__(cls, letters=()):
        return super().__new__(cls, letters)

    def cat(self, other):
        return Word(tuple.__add__(self, tuple(other)))

    def child(self, letter):
        return Word(tuple.__add__(self, (letter,)))

    @property
    def parent(self):
        if not self:
            raise InvalidInputError("the empty word has no parent")
        return Word(self[:-1])

    def is_prefix_of(self, other):
        return len(self) <= len(other) and tuple(other[: len(self)]) == tuple(self)

    def suffix_after(self, prefix):
        if not Word(prefix).is_prefix_of(self):
            raise InvalidInputError("not a prefix")
        return Word(self[len(prefix):])

    @property
    def text(self):
        return "-".join(str(a) for a in self)

    @classmethod
    def parse(cls, s):
        s = s.strip()
        if not s:
            return cls()
        return cls(int(part) for part in s.split("-"))

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


class Section:
    """Finite antichain of words whose cylinders exactly cover the infinite words."""

    def __init__(self, alphabet_size, words, validate=True):
        self.alphabet_size = int(alphabet_size)
        self.words = frozenset(Word(w) for w in words)
        if validate and not validate_section(self.alphabet_size, self.words):
            raise InvalidInputError("word set is not a section (antichain + exact cover required)")

    def sorted_words(self):
        return sorted(self.words)

    def max_depth(self):
        return max(len(w) for w in self.words)

    def __len__(self):
        return len(self.words)

    def __iter__(self):
        return iter(sorted(self.words))

    def __contains__(self, word):
        return Word(word) in self.words

    def __eq__(self, other):
        return (
            isinstance(other, Section)
            and self.alphabet_size == other.alphabet_size
            and self.words == other.words
        )

    def __hash__(self):
        return hash((self.alphabet_size, self.words))


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
    """Words whose weight first drops to <= rho; ties go into the section.

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
    return Section(weights.alphabet_size, out, validate=False)


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


class FiniteTree:
    """Prefix-closed set of words sampled to a depth, stored as child-set maps."""

    def __init__(self, alphabet_size, depth, children, validate=True):
        self.alphabet_size = int(alphabet_size)
        self.depth = int(depth)
        self.children = {Word(w): frozenset(cs) for w, cs in children.items()}
        if validate:
            self._validate()
        self._levels = None

    def _validate(self):
        if self.depth < 0:
            raise InvalidInputError("depth must be >= 0")
        if Word() not in self.children:
            raise InvalidInputError("root must be present")
        for w, cs in self.children.items():
            if len(w) > self.depth:
                raise InvalidInputError("node %r deeper than declared depth" % (w,))
            for a in tuple(w) + tuple(cs):
                if not (0 <= a < self.alphabet_size):
                    raise InvalidInputError("letter out of range at node %r" % (w,))
            if len(w) == self.depth and cs:
                raise InvalidInputError("nodes at the final depth cannot have children")
            for a in cs:
                if w.child(a) not in self.children:
                    raise InvalidInputError("child %r missing from node map" % (w.child(a),))
            if w:
                par = w.parent
                if par not in self.children or w[-1] not in self.children[par]:
                    raise InvalidInputError("node %r not linked from its parent" % (w,))

    @classmethod
    def from_words(cls, alphabet_size, depth, words, validate=True):
        """Build a tree from any word set by closing under prefixes."""
        nodes = {Word()}
        for w in words:
            w = Word(w)
            for i in range(len(w) + 1):
                nodes.add(Word(w[:i]))
        children = {}
        for w in nodes:
            children[w] = frozenset(a for a in range(alphabet_size) if w.child(a) in nodes)
        return cls(alphabet_size, depth, children, validate=validate)

    @classmethod
    def full(cls, alphabet_size, depth):
        children = {}
        all_letters = frozenset(range(alphabet_size))
        for n in range(depth + 1):
            cs = all_letters if n < depth else frozenset()
            for w in product(range(alphabet_size), repeat=n):
                children[Word(w)] = cs
        return cls(alphabet_size, depth, children, validate=False)

    def nodes(self):
        return self.children.keys()

    def __contains__(self, word):
        return Word(word) in self.children

    def __len__(self):
        return len(self.children)

    def level(self, n):
        """Sorted words at length n."""
        if self._levels is None:
            levels = {}
            for w in self.children:
                levels.setdefault(len(w), []).append(w)
            self._levels = {n: sorted(ws) for n, ws in levels.items()}
        return self._levels.get(n, [])

    def level_sizes(self):
        return [len(self.level(n)) for n in range(self.depth + 1)]

    def extinct_level(self):
        """First empty level, or None if alive at the final depth."""
        for n in range(self.depth + 1):
            if not self.level(n):
                return n
        return None

    def __eq__(self, other):
        return (
            isinstance(other, FiniteTree)
            and self.alphabet_size == other.alphabet_size
            and self.depth == other.depth
            and self.children == other.children
        )

    def to_text(self):
        """One word per line as hyphen-separated letters, sorted lexicographically."""
        return "\n".join(w.text for w in sorted(self.children)) + "\n"

    @classmethod
    def from_text(cls, text, alphabet_size=None, depth=None):
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines = lines[:-1]
        words = [Word.parse(line) for line in lines]
        if alphabet_size is None:
            alphabet_size = max((max(w) + 1 for w in words if w), default=1)
        if depth is None:
            depth = max((len(w) for w in words), default=0)
        return cls.from_words(alphabet_size, depth, words)


def block_decode(idx, base, k):
    """The k letters of a big-endian block index."""
    out = []
    for _ in range(k):
        out.append(idx % base)
        idx //= base
    return tuple(reversed(out))


class StarTree:
    """Tree of variable-length words graded by a height function.

    Callers guarantee that each non-root node has exactly one ancestor at the
    previous height (its longest prefix there); children are stored as word
    suffixes relative to their parent.
    """

    def __init__(self, nodes_by_height):
        self.height = {}
        self.levels = []
        for h, words in enumerate(nodes_by_height):
            level = sorted(Word(w) for w in words)
            self.levels.append(level)
            for w in level:
                self.height[w] = h
        self.nodes = frozenset(self.height)
        link = {w: set() for w in self.nodes}
        for h in range(1, len(self.levels)):
            prev = set(self.levels[h - 1])
            for w in self.levels[h]:
                par = None
                for i in range(len(w) - 1, -1, -1):
                    cand = Word(w[:i])
                    if cand in prev:
                        par = cand
                        break
                link[par].add(w.suffix_after(par))
        self.children = {w: frozenset(vs) for w, vs in link.items()}

    def level(self, h):
        return self.levels[h] if 0 <= h < len(self.levels) else []

    def max_height(self):
        return len(self.levels) - 1

    def __contains__(self, word):
        return Word(word) in self.nodes

    def __len__(self):
        return len(self.nodes)

    def __eq__(self, other):
        return isinstance(other, StarTree) and self.height == other.height

    def to_text(self):
        return "\n".join(w.text for w in sorted(self.nodes)) + "\n"


def compress_along_pi_rho(tree, weights, rho, n_levels=None):
    """Intersect the tree with the graded sections and grade nodes by section index."""
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
    levels = [[Word()]]
    for n in range(1, n_levels + 1):
        sec = section_pi_rho(weights, rho ** n)
        levels.append([w for w in sec.sorted_words() if w in tree])
    return StarTree(levels)
