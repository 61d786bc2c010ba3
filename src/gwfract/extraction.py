"""Certified-subtree search and the pipelines that build diffuse, regular subsets.

A predicate declares which child sets are acceptable.  A child set is an
ascending integer array of labels: the letters of a `FiniteTree`, which on a
`StarTree` index its table of (suffix, family-prefix length) entries.  A
witness is a subset in the same form, or None.  One bottom-up presence DP
(`_presence`) runs on the level arrays of either kind; `find_subtree` runs it
and extracts a greedily trimmed witness; one builder (`_witness`) joins the
chosen arrays breadth first into per-level labels and parent indices, for
it, for the star pipeline and for the lazy scan.  The two pipelines wrap
this with sampling, a breadth-first vertex scan, measure construction and
geometric certificates.  Deep instances never materialize the whole
sample: the scan expands one compressed block at a time and stops testing
children of a node as soon as the predicate is satisfied, which agrees
with the eager DP because membership is monotone and children are visited
in lex order
(`tests/test_extraction.py::test_layered_scan_matches_eager_dp` checks this;
`_LayeredScan` tells how the leaves are walked)."""

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .symbolic import (
    Word,
    FiniteTree,
    section_pi_rho,
    _section_depth,
    compress_along_pi_rho,
    block_letters,
    InvalidInputError,
    CapabilityError,
)
from .branching import Binomial, LazyGW, sample_gw, pgf, _child_salts, _mix64_inplace
from .fixpoint import g_k_a_curve, generator_collection
from .geometry import (
    PointCloud,
    MeasuredCloud,
    SimilarityIFS,
    diffuseness_constant,
    moran_exponent,
    percolation_ifs,
    render,
    word_map,
    _MapTable,
    _compose,
    _render_levels,
    _tree_level,
    _width_exceeds,
)


class NotFoundError(RuntimeError):
    """No witness at this depth/seed; carries the scan statistics."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = dict(stats or {})


def _runs(keys):
    """Start and length of each run of equal values in `keys`."""
    cut = np.ones(len(keys), dtype=bool)
    cut[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(cut)
    return starts, np.diff(np.append(starts, len(keys)))


# ---------------------------------------------------------------------------
# predicates


class SubtreePredicate:
    """A monotone collection of acceptable child sets: those holding a core,
    with at least `floor` labels.

    `member` and `witness_subset` take an ascending integer array of labels;
    a witness is an ascending array of some of them, or None.  A structural
    predicate (a full block, a certified family) finds its core with
    `witness_core`, a slice of the labels, or None when there is none; this
    class has an empty core, so `SubtreePredicate(a)` accepts the child sets
    of at least a labels.  A core predicate's `_running()` returns
    `push(label, check)`, which adds one label to a growing set and, when
    `check` is true, says whether that set holds a core, doing the
    certification work `witness_core` would do on it.
    """

    def __init__(self, floor=0):
        self.floor = int(floor)
        if self.floor < 0:
            raise InvalidInputError("floor must be >= 0")

    def witness_core(self, labels):
        return labels[:0]

    def member(self, labels):
        # the core first: a section core certifies families, which count in `certs`
        return self.witness_core(labels) is not None and len(labels) >= self.floor

    def witness_subset(self, labels, at=None):
        """Minimal certifying child set (None when labels are not a member):
        the core, padded with the lex-smallest other labels up to `min_arity()`
        (a member by construction; README, "Witness trimming"); `at`, if given,
        is the slice of labels that a caller has found the core in."""
        core, need = self.witness_core(labels) if at is None else labels[at], self.min_arity()
        if core is None or len(labels) < need:
            return None
        s = int(np.searchsorted(labels, core[0])) if len(core) else 0
        pad = max(0, need - len(core))
        if pad >= s:  # every label ahead of the core: a prefix, copied to its size
            return labels[:len(core) + pad].copy()
        self.witness_core(labels[:pad])  # certifies a family the padding cuts, as `member` would
        return np.concatenate((labels[:pad], core))

    def min_arity(self):
        """Cardinality floor a trimmed witness must keep."""
        return self.floor


class DiffuseBlock(SubtreePredicate):
    """Child sets containing a full two-level block below a common prefix.

    Labels are packed base-b^d words of length k (leading letter most
    significant); the block below prefix a is all base_n^2 extensions of a.
    In an ascending array a block is a run of `block` labels with one prefix.
    """

    def __init__(self, b, k, d=2, floor=0):
        super().__init__(floor)
        self.b = int(b)
        self.k = int(k)
        self.d = int(d)
        if self.b < 2 or self.d < 1:
            raise InvalidInputError("need b >= 2 and d >= 1")
        if self.k < 2:
            raise InvalidInputError("block predicate needs k >= 2")
        self.base_n = self.b ** self.d
        self.block = self.base_n ** 2
        self.alphabet = self.base_n ** self.k

    def _running(self):
        counts = {}
        full = False

        def push(label, check):
            nonlocal full
            prefix = label // self.block
            counts[prefix] = counts.get(prefix, 0) + 1
            full = full or counts[prefix] == self.block
            return check and full
        return push

    def witness_core(self, labels):
        # an int64 divisor: the block size need not fit narrow labels' dtype
        starts, lengths = _runs(labels // np.int64(self.block))
        full = starts[lengths == self.block]
        return labels[full[0]:full[0] + self.block] if len(full) else None

    def min_arity(self):
        return max(self.block, self.floor)


class SectionDiffuse(SubtreePredicate):
    """Child sets with a certified-diffuse one-step family below some prefix.

    With the block length k (packed labels of a uniform-ratio compression by
    k base levels) the split prefix is the first k-1 base letters, and a
    family is the letter mask of one prefix.  Without k the labels index the
    table of `star`, read once here: an entry's family prefix is the one
    realized in the section one r_min-step above the child section, as the
    existence argument prescribes, and its family is the rest of its suffix.
    Either way a family is a run of labels with one prefix, the runs come in
    ascending prefix order, and they are certified only up to the first that
    passes, which is the witness's core.  Certification is one-sided: a
    family whose certified constant falls below c counts as a non-member.
    """

    # families certified per predicate before the scan gives up
    CERT_BUDGET = 4096
    # directions of each family's certificate
    DIRECTIONS = 200

    def __init__(self, c, ifs, F_cloud=None, k=None, star=None, floor=0):
        super().__init__(floor)
        self.c = float(c)
        if self.c <= 0:
            raise InvalidInputError("c must be positive")
        self.ifs = ifs
        self.k = None if k is None else int(k)
        self.cert_count = 0
        self.base_n = ifs.alphabet_size
        self.F = F_cloud if F_cloud is not None else _attractor_cloud(ifs)
        self._ok = {}
        if star is not None:  # an entry's family key: the first entry with its prefix
            first, table = {}, list(zip(star.suffixes, star.splits))
            self._families = np.array([first.setdefault(v[:n], i)
                                       for i, (v, n) in enumerate(table)])
            self._rests = [v[n:] for v, n in table]
        else:  # a letter mask's family: rows of the base maps' table
            self._table = _MapTable(ifs.maps, self.F, self.DIRECTIONS)

    # -- certification ------------------------------------------------------

    def _certified(self, key, family, table=None):
        """Whether the family keyed `key` is certified; `family()` gives its
        maps, or their rows of `table`, built and certified once per key."""
        ok = self._ok.get(key)
        if ok is None:
            self.cert_count += 1
            if self.cert_count > self.CERT_BUDGET:
                raise CapabilityError(
                    "diffuseness certification budget exhausted after %d families"
                    % self.CERT_BUDGET
                )
            res = diffuseness_constant(family(), self.F, directions=self.DIRECTIONS,
                                       need=self.c, table=table)
            ok = self._ok[key] = res.c_low >= self.c
        return ok

    def _mask_certified(self, mask):
        return self._certified(mask, lambda: [j for j in range(self.base_n) if mask >> j & 1],
                               self._table)

    def _rests_certified(self, labels):
        # one family's rests, in word order since the table is sorted
        key = tuple(self._rests[i] for i in labels.tolist())
        return self._certified(key, lambda: [word_map(self.ifs, v) for v in key])

    @property
    def _bits(self):
        """Each base letter's bit in a family's letter mask."""
        if self.base_n > 60:
            raise CapabilityError("mask grouping supports at most 60 base letters")
        return np.int64(1) << np.arange(self.base_n, dtype=np.int64)

    def _running(self):
        masks = {}

        def push(label, check):
            prefix, letter = divmod(label, self.base_n)
            masks[prefix] = masks.get(prefix, 0) | 1 << letter
            return check and any(self._mask_certified(masks[p]) for p in sorted(masks))
        return push

    # -- predicate API ------------------------------------------------------

    def witness_core(self, labels):
        if self.k is None:
            starts, lengths = _runs(self._families[labels])
            ok = map(self._rests_certified, np.split(labels, starts[1:]))
        else:
            prefixes, letters = np.divmod(labels, self.base_n)
            starts, lengths = _runs(prefixes)
            masks = np.bitwise_or.reduceat(self._bits[letters], starts) if len(labels) else starts
            ok = map(self._mask_certified, masks.tolist())
        for s, n, good in zip(starts.tolist(), lengths.tolist(), ok):
            if good:
                return labels[s:s + n]
        return None


def diffuse_block_collection(b, k, d=2):
    """The block predicate as a generator collection, for fixed-point runs:
    one full block per (k-2)-letter prefix."""
    pred = DiffuseBlock(b, k, d=d)
    return generator_collection(
        range(p * pred.block, (p + 1) * pred.block)
        for p in range(pred.alphabet // pred.block))


def _attractor_cloud(ifs, target=2000):
    """The attractor rendered at the least depth with `target` points, capped
    at 50,000 points."""
    if target < 1:
        raise InvalidInputError("the attractor cloud needs target >= 1 points")
    n = ifs.alphabet_size
    depth = max(1, math.ceil(math.log(target) / math.log(n)))
    while depth > 1 and n ** depth > 50_000:
        depth -= 1
    return render(ifs, depth=depth)


# ---------------------------------------------------------------------------
# eager DP


def find_subtree(tree, pred, n):
    """Bottom-up presence DP; returns the trimmed witness subtree or None.

    Child labels are the tree's integer letters: base or block letters on a
    `FiniteTree`, suffix ids on a `StarTree`.  The witness has the tree's
    kind and alphabet (on a star, the same suffix table).
    """
    n = int(n)
    if n < 0:
        raise InvalidInputError("length must be >= 0")
    if tree.depth < n:
        raise InvalidInputError("tree height %d is below the requested length %d"
                                % (tree.depth, n))
    good, witness = _presence(tree, pred, n)
    if not good[0][0]:
        return None
    return tree._sub(n, *witness(0, 0))


def _presence(tree, pred, n):
    """Presence DP over the level arrays, and the witness builder over it.

    good[h] marks the height-h nodes with an (n-h)-level witness below them;
    a node's good child labels are one segment of the good height-(h+1)
    letters, cut by the ascending parent indices.  `witness(h, i)` gives the
    level arrays (`_witness`) of the trimmed witness below node i of height h.
    """
    sizes = tree.level_sizes()
    good = [None] * n + [np.ones(sizes[n], dtype=bool)]
    below = [None] * n
    for h in range(n - 1, -1, -1):
        kids = np.flatnonzero(good[h + 1])
        codes = tree._letters[h + 1][kids]
        ends = np.searchsorted(tree._parents[h + 1][kids], np.arange(sizes[h] + 1)).tolist()
        # each node's good children: their indices and their labels
        below[h] = [(kids[b:e], codes[b:e]) for b, e in zip(ends, ends[1:])]
        good[h] = np.array([pred.member(labels) for _, labels in below[h]], dtype=bool)

    def chosen(vs, m):
        return [pred.witness_subset(below[h][i][1]) for h, i in vs]

    def step(v, labels):
        kids, codes = below[v[0]][v[1]]
        return [(v[0] + 1, j) for j in kids[np.searchsorted(codes, labels)].tolist()]

    return good, lambda h, i: _witness((h, i), n - h, chosen, step)


def _witness(root, n, chosen, step):
    """Walk the chosen child sets breadth first, n levels down from `root`.

    `chosen(vs, m)` lists the ascending label arrays kept at the nodes vs of
    one level, with m levels to go, and `step(v, labels)` lists the nodes of
    v's children with those labels: integer node ids on the lazy scan,
    (height, index) pairs in the presence DP.  Returns the per-level label
    arrays and parent indices (into the level above) of the witness, each
    level one concatenation of its nodes' arrays; level 0, the root, holds
    None.  Every level is thus in lexicographic order with ascending parents,
    as `FiniteTree` stores it.  Leaves get no node.
    """
    labels, parents = [None], [None]
    nodes = [root]
    for m in range(n, 0, -1):
        got = chosen(nodes, m)
        if any(g is None for g in got):
            raise RuntimeError("witness extraction failed on a member set")
        labels.append(np.concatenate(got))
        parents.append(np.repeat(np.arange(len(got)), [len(g) for g in got]))
        if m > 1:
            nodes = [kid for v, g in zip(nodes, got) for kid in step(v, g)]
    return labels, parents


# ---------------------------------------------------------------------------
# natural measure


def _integer(value, name):
    """`value` as an int; InvalidInputError unless it is a positive integer."""
    A = int(round(value))
    if A < 1 or abs(value - A) > 1e-9 * max(1.0, value):
        raise InvalidInputError("%s = %r is not an integer" % (name, value))
    return A


def natural_measure(subtree, rho, alpha):
    """Mass rho^(h*alpha) per height-h node of an exactly rho^(-alpha)-ary tree."""
    rho = float(rho)
    if not (0.0 < rho < 1.0):
        raise InvalidInputError("rho must lie in (0,1)")
    A = _integer(rho ** -float(alpha), "rho^-alpha")

    sizes = subtree.level_sizes()
    for h in range(subtree.depth):
        counts = np.bincount(subtree._parents[h + 1], minlength=sizes[h])
        bad = np.flatnonzero(counts != A)
        if len(bad):
            raise InvalidInputError("node %r has %d children, expected %d"
                                    % (subtree.level(h)[bad[0]], counts[bad[0]], A))
    return {w: float(A) ** (-h) for h in range(subtree.depth + 1) for w in subtree.level(h)}


# ---------------------------------------------------------------------------
# extracted subset


@dataclass(eq=False)
class ExtractedSubset:
    """A trimmed witness subtree with its measure, cloud and certificates."""

    root_word: Word
    subtree: object
    arity: int
    alpha: float
    beta: float
    rho: float
    pipeline: str
    seed: int
    ifs: SimilarityIFS
    c: float = None
    k: int = None
    params: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def levels(self):
        return self.subtree.depth

    def measure(self):
        return natural_measure(self.subtree, self.rho, self.alpha)

    def _leaves(self):
        """(rows, lengths) of the deepest level's absolute base-alphabet words:
        the root prefix, then the leaf's base letters (block codes of k
        letters each are decoded), each row padded with 0 past its length.
        The rows keep the level arrays' narrow letter dtype."""
        tail, lengths = self.subtree._level_rows(self.subtree.depth)
        if self.k is not None:
            tail = block_letters(tail, self.ifs.alphabet_size, self.k).reshape(len(tail), -1)
            lengths = lengths * self.k
        m = len(self.root_word)
        rows = np.empty((len(tail), m + tail.shape[1]), dtype=tail.dtype)
        rows[:, :m] = self.root_word
        rows[:, m:] = tail
        return rows, lengths + m

    def leaf_words(self):
        """Absolute base-alphabet words of the deepest witness level, spelled
        from 4,096 rows at a time so that no nested list of every row is held."""
        rows, lengths = self._leaves()
        return [Word(r[:n]) for i in range(0, len(rows), 4096)
                for r, n in zip(rows[i:i + 4096].tolist(), lengths[i:i + 4096].tolist())]

    def _cells(self):
        """Points and cell ratios of the deepest level's leaves, in one
        top-down pass (`geometry._render_levels`): the root word's map is
        composed once, and each block code steps through its k base letters.
        Each point and ratio is bit for bit `_render_letters` of the leaf's
        row of `_leaves`."""
        sub, n, k = self.subtree, self.ifs.alphabet_size, self.k
        spell = None if k is None else \
            (lambda codes: (block_letters(codes, n, k), np.full(len(codes), k)))
        root = np.array(self.root_word, dtype=np.int64).reshape(1, -1)
        start = _compose(self.ifs, root, np.array([len(self.root_word)]))
        return _render_levels(self.ifs, sub.depth, sub.level_sizes()[sub.depth],
                              _tree_level(sub, spell), start, None)

    def cloud(self):
        pts, r = self._cells()
        return PointCloud(pts, self.ifs.diameter_bound() * r.max())

    def measured_cloud(self):
        # the cell ratio is the map's, multiplied left to right as
        # `WeightedAlphabet.weight` does
        pts, r = self._cells()
        masses = np.full(len(pts), 1.0 / len(pts))
        return MeasuredCloud(pts, masses, r * (self.ifs.diameter_bound() / 2.0))

    def to_json(self):
        return {
            "pipeline": self.pipeline,
            "root_word": self.root_word.text,
            "arity": int(self.arity),
            "alpha": float(self.alpha),
            "beta": float(self.beta),
            "rho": float(self.rho),
            "c": None if self.c is None else float(self.c),
            "k": None if self.k is None else int(self.k),
            "levels": int(self.levels()),
            "leaf_count": self.subtree.level_sizes()[self.subtree.depth],
            "seed": int(self.seed),
            "params": dict(self.params),
            "stats": dict(self.stats),
        }

    def tree_text(self):
        return self.subtree.to_text()

    def measure_csv(self):
        rows = ["word,mass"]
        for w, mass in sorted(self.measure().items()):
            rows.append("%s,%r" % (w.text, mass))
        return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# predicted presence (reported next to scan outcomes)


def _no_full_g(offspring, k, s, p_full, j):
    """P(no fully surviving j-level structure below a level-(k-j) vertex): a
    two-level block for j = 2, a one-step family for j = 1."""
    N = offspring.alphabet_size
    if k < j:
        raise InvalidInputError("a %d-level structure needs k >= %d" % (j, j))
    t = 1.0 - p_full ** sum(N ** i for i in range(j)) * (1.0 - s) ** N ** j
    for _ in range(k - j):
        t = pgf(offspring, t)
    return min(1.0, max(0.0, t))


def predicted_presence(offspring, k, arity, n_levels, mode="block"):
    """Lower bound on the per-vertex presence probability of the witness.

    Uses the union bound no-structure + too-few-survivors; both terms are in
    closed form (the cardinality term is exact for binomial offspring), so the
    resulting tau is a conservative prediction of the scan's hit rate.
    """
    j = 2 if mode == "block" else 1
    p_full = float(offspring.size_pmf()[-1])
    flagged = False
    t = 0.0
    for _ in range(int(n_levels)):
        s = min(t, 1.0 - 1e-12)
        gs = _no_full_g(offspring, k, s, p_full, j)
        gc = g_k_a_curve(offspring, k, arity, s)
        flagged = flagged or bool(gc.get("flagged"))
        t = min(1.0, gs + gc["value"])
    return {"tau": 1.0 - t, "g_iterate": t, "flagged": flagged,
            "mode": mode, "k": int(k), "arity": int(arity),
            "levels": int(n_levels)}


# ---------------------------------------------------------------------------
# layered lazy scan (uniform-ratio pipelines)


# expected nodes sampled by one chunk of leaf tests (see `_LayeredScan`): a
# leaf walks levels 0..k-2 in full, and the chunk holds as many leaves as
# fill this many nodes at the law's mean, and at least k - 1
_CHUNK_NODES = 4096


def _lex_batches(owner, done, width):
    """Rows to read, a doubling batch per round: each leaf's rows in lex
    order (`owner`, ascending, is each row's leaf) until the caller sets
    done[leaf] between rounds or the leaf's rows run out.  The first round
    takes `width` rows of each leaf, the next 2 * width, and so on."""
    rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
    lo = 0
    while True:
        open_ = (rank >= lo) & ~done[owner]
        if not open_.any():
            return
        yield np.flatnonzero(open_ & (rank < lo + width))
        lo, width = lo + width, 2 * width


class _LayeredScan:
    """Greedy DP over k-block-compressed levels of one lazy realization.

    Children are tested in lex order and the scan of a node stops at the first
    member-true prefix of its good children, which reproduces the eager DP's
    witness exactly; alive-set prechecks reject nodes whose full child set
    already fails (membership is monotone).  The stop is found online: each
    good child is pushed into the predicate's running state, which answers
    for the prefix without judging the whole prefix again.

    The predicate is one `DiffuseBlock` or one packed `SectionDiffuse` over
    the law's alphabet: its block length k is the base levels of one scan
    level, and a witness keeps `pred.min_arity()` children, its count floor
    or a block's size.  Children with one level to go (leaves) are walked a
    chunk at a time: as many leaves as fill `_CHUNK_NODES` expected prefix
    nodes, and at least k - 1, so that a chunk's k - 1 level steps cost at
    most about one step's numpy calls per leaf.  Levels 0..k-2 are
    walked once (`_prefix_walk`); the level-(k-1) child rows are then read in
    lex order, a doubling batch per round, until each leaf is decided
    (`_lex_batches`), their stream keys mixed for the rows read only; a
    stream key's row is a pure function of the key, so these are the rows
    the full walk draws.  Results are still taken one by one, in order, so
    `child_tests`, `capped_nodes` and `nodes_sampled` read as the sequential
    scan's: a leaf's nodes (levels 0..k-1, as the full walk counts them)
    count when its result is taken, and leaves walked past the stop are
    dropped.  Only the `node_budget` guard sees the whole chunk, so it can
    trip at most one chunk earlier.

    A node is an integer id: the root is 1 and child code c of node v is
    v * N**k + c, so the id's base-N digits after its leading 1 spell its
    word (`word`).  Its stream key comes with it from its parent's `_alive`.

    `_block_walk` and `_section_walk` read a leaf's rows and trim a good
    leaf's witness when its result is taken (a section witness's
    certificates count in `certs`), so `witness_tree` samples nothing.
    """

    def __init__(self, lazy, pred):
        self.lazy = lazy
        self.pred = pred
        self.arity = pred.min_arity()
        # children tested per node before the scan gives the node up
        self.cap = max(4 * pred.floor, 256)
        self.base_n = lazy.offspring.alphabet_size
        if not (isinstance(pred, (DiffuseBlock, SectionDiffuse)) and pred.k is not None
                and pred.base_n == self.base_n):
            raise CapabilityError("the layered scan takes one block or packed section "
                                  "predicate over the law's %d letters" % self.base_n)
        self.k = pred.k
        self.step = self.base_n ** self.k
        self.block = pred if isinstance(pred, DiffuseBlock) else None
        self.section = None if self.block else pred
        # a function, not a bound method: one kept on self would be a reference
        # cycle, holding the scan's caches past its last use
        self._leaf_walk = _LayeredScan._block_walk if self.block else _LayeredScan._section_walk
        mean = lazy.offspring.mean()
        self.chunk = max(self.k - 1,
                         int(_CHUNK_NODES / sum(mean ** j for j in range(self.k - 1))))
        if self.block:
            # a node has all base_n children with probability p_full: read
            # as many block columns per sample call as a candidate passes
            # with probability at least 1/2, and first twice the candidates
            # a leaf needs on average to find a full block (the floor on
            # p_full^base_n only keeps the count finite where it underflows)
            p_full = float(lazy.offspring.size_pmf()[-1])
            self.cols = max(1, sum(p_full ** g >= 0.5 for g in range(1, self.base_n + 1)))
            self.first = math.ceil(2 / max(p_full ** self.base_n, 2.0 ** -60))
        self.alive = {}
        self.good = {}
        self.witness = {}
        self.child_tests = 0
        self.capped_nodes = 0

    def _kids(self, v, codes, keys):
        """(id, stream key) of v's children with level-k codes `codes`, made as
        taken, 256 at a time (a node can have 10^5 codes; the scan often stops early)."""
        for lo in range(0, len(codes), 256):
            yield from zip((v * self.step + c for c in codes[lo:lo + 256].tolist()),
                           keys[lo:lo + 256].tolist())

    def word(self, v):
        """The base-alphabet word of node v: its base-N digits after the leading 1."""
        letters = []
        while v > 1:
            v, a = divmod(v, self.base_n)
            letters.append(a)
        return Word(letters[::-1])

    def _alive(self, v, key):
        """Level-k codes of v (stream key `key`) with their keys; walked once, counted."""
        got = self.alive.get(v)
        if got is None:
            codes, keys, _, nodes = self.lazy._level([key], self.k)
            self.lazy.nodes_sampled += int(nodes[0])
            got = self.alive[v] = (codes, keys)
        return got

    def _prefix_walk(self, keys):
        """Levels 0..k-2 below the leaves with stream keys `keys`, walked once.

        Returns (nodes, levels, owner): nodes[i] counts levels 0..k-1 below
        leaf i, as `LazyGW._level` does, and the guard is charged for them;
        levels holds each step of `LazyGW._walk` as (roots, rows, letters,
        keys), roots being each walked node's leaf; owner is the leaf of each
        level-(k-1) node, in lex order.  Level k-1's stream keys are not
        mixed: `_row_keys` mixes them for the rows a leaf reads.
        """
        lazy = self.lazy
        roots = np.arange(len(keys))
        nodes = np.zeros(len(keys), dtype=np.int64)
        levels = []
        for rows, letters, level_keys in lazy._walk(keys, self.k - 1):
            nodes += np.bincount(roots, minlength=len(keys))
            levels.append((roots, rows, letters, level_keys))
            roots = roots[rows]
        # level k-1, empty when the walk died out before it
        nodes += np.bincount(roots, minlength=len(keys))
        lazy._charge(lazy.nodes_sampled + int(nodes.sum()), self.k - 1)
        return nodes, levels, roots

    def _row_keys(self, levels, sel):
        """Stream keys of the level-(k-1) nodes `sel` of a prefix walk."""
        _, rows, letters, level_keys = levels[-1]
        return self.lazy._child_keys(level_keys, rows[sel], letters[sel])

    def _codes(self, levels, sel):
        """Codes, relative to their leaf, of the nodes `sel` on the level that
        the walk steps `levels` reach (level k-1 for a whole prefix walk)."""
        codes, scale = np.zeros(len(sel), dtype=np.int64), 1
        for _, rows, letters, _ in reversed(levels):
            codes += letters[sel] * scale
            sel, scale = rows[sel], scale * self.base_n
        return codes

    def _block_walk(self, keys):
        """(judge, nodes) of the leaves with stream keys `keys` on the block
        predicate: judge(i) is leaf i's (witness, ok), the witness None for a
        bad leaf; nodes as `_prefix_walk` counts them.

        A leaf holds a full block exactly when some level-(k-2) node has all
        base_n children and each of those has all base_n children, so only
        such candidates' rows are read, `cols` columns per sample call, and a
        candidate is dropped at its first group with an incomplete row.  The
        candidates' children have every letter, so their keys come straight
        from the candidates' keys.  A leaf is done after its first batch with
        a pass, its candidates in lex order, so that pass is its lex-first
        full block: the witness at a floor of the block size, kept as its
        first label.  A larger floor needs the level-k rows, read only for
        the leaves with a full block, and a good leaf's codes are trimmed.
        """
        lazy, n, size = self.lazy, self.base_n, self.block.block
        nodes, levels, owner = self._prefix_walk(keys)
        ok = np.zeros(len(keys), dtype=bool)
        first = np.zeros(len(keys), dtype=np.int64)
        if len(owner):
            roots, rows, _, level_keys = levels[-1]
            cands = np.flatnonzero(np.bincount(rows, minlength=len(roots)) == n)
            cand_keys, cand_roots = level_keys[cands], roots[cands]
            for sel in _lex_batches(cand_roots, ok, min(self.first, len(cands))):
                for j in range(0, n, self.cols):
                    salts = lazy._salts[j:j + self.cols]
                    full = lazy.offspring.sample_matrix(
                        _mix64_inplace(cand_keys[sel, None] ^ salts).reshape(-1))
                    sel = sel[full.reshape(len(sel), -1).all(axis=1)]
                    if len(sel) == 0:
                        break
                leaves, at = np.unique(cand_roots[sel], return_index=True)
                ok[leaves] = True
                first[leaves] = self._codes(levels[:-1], cands[sel[at]]) * size
        witness = first.tolist().__getitem__
        if self.arity > size and ok.any():
            held = np.flatnonzero(ok[owner])
            full = lazy.offspring.sample_matrix(self._row_keys(levels, held))
            ok &= np.bincount(owner[held], weights=full.sum(axis=1),
                              minlength=len(keys)) >= self.arity
            ends = np.searchsorted(owner[held], np.arange(len(keys) + 1))

            def witness(i):  # trimmed for a leaf whose result is taken
                rows = slice(ends[i], ends[i + 1])
                labels = (self._codes(levels, held[rows])[:, None] * n + np.arange(n))[full[rows]]
                return self.block.witness_subset(labels)
        good = ok.tolist()
        return (lambda i: (witness(i), True) if good[i] else (None, False)), nodes

    def _section_walk(self, keys):
        """(judge, nodes) of the leaves with stream keys `keys` on the section
        predicate: judge(i) is leaf i's (witness, ok); nodes as `_prefix_walk`.
        A row is one family.  Rows are read until a leaf holds its floor; its
        families are certified in prefix order when its result is taken, its
        other rows read only if none passes, and its witness trimmed from the
        codes read, around the first that passes."""
        lazy, n, sd = self.lazy, self.base_n, self.section
        nodes, levels, owner = self._prefix_walk(keys)
        codes = self._codes(levels, np.arange(len(owner)))
        ends = np.searchsorted(owner, np.arange(len(keys) + 1))
        masks = np.full(len(owner), -1)  # a row's letter mask once it is read
        held = np.zeros(len(keys))
        full = np.zeros(len(keys), dtype=bool)

        def read(sel):
            rows = lazy.offspring.sample_matrix(self._row_keys(levels, sel))
            masks[sel] = rows @ sd._bits
            return rows.sum(axis=1)

        # the first round reads about 256 rows, so that one sample call serves many
        for sel in _lex_batches(owner, full, max(1, 256 // len(keys))):
            held += np.bincount(owner[sel], weights=read(sel), minlength=len(keys))
            full |= held >= self.arity

        def certified(lo, hi):  # the first of rows lo:hi with a certified family
            return next((lo + j for j, m in enumerate(masks[lo:hi].tolist())
                         if m and sd._mask_certified(m)), None)

        def judge(i):
            b, e = ends[i], ends[i + 1]
            m = b + np.count_nonzero(masks[b:e] >= 0)
            r = certified(b, m) if full[i] else None
            if full[i] and r is None and m < e:
                read(np.arange(m, e))
                r, m = certified(m, e), e
            if r is None:
                return None, False
            below = (masks[b:m, None] >> np.arange(n)) & 1 == 1
            at = slice(np.count_nonzero(below[:r - b]), np.count_nonzero(below[:r - b + 1]))
            return sd.witness_subset((codes[b:m, None] * n + np.arange(n))[below], at), True
        return judge, nodes

    def _leaves(self, keys):
        """(witness, ok) of each leaf with a stream key in `keys`, in order, a
        chunk per walk; a leaf's nodes count when its result is taken."""
        for lo in range(0, len(keys), self.chunk):
            judge, nodes = self._leaf_walk(self, keys[lo:lo + self.chunk])
            for i, count in enumerate(nodes.tolist()):
                self.lazy.nodes_sampled += count
                yield judge(i)

    def _record_leaf(self, v, witness, ok):
        """Cache leaf v's result and, if good, its witness as its judge gave it."""
        self.good[v] = ok
        if ok:
            self.witness[v] = witness
        return ok

    def _children(self, v, m, codes, keys):
        """Test results of v's children in lex order, each computed when taken."""
        kids = self._kids(v, codes, keys)
        if m > 2:
            return (self.test(u, key, m - 1) for u, key in kids)
        # v's children are queued only after v is tested, so none is cached yet
        return (self._record_leaf(u, witness, ok)
                for (u, _), (witness, ok) in zip(kids, self._leaves(keys)))

    def test(self, v, key, m):
        """Whether node v, with stream key `key`, has a witness m levels deep."""
        cached = self.good.get(v)
        if cached is not None:
            return cached
        if m == 1:
            return self._record_leaf(v, *next(self._leaves([key])))
        ok = self.good[v] = self._greedy(v, key, m)
        return ok

    def _greedy(self, v, key, m):
        """Whether v has a witness m levels deep; stores v's chosen children."""
        codes, keys = self._alive(v, key)
        n = len(codes)
        if n < self.arity or not self.pred.member(codes):
            return False
        results = self._children(v, m, codes, keys)
        push = self.pred._running()
        found = []
        for idx in range(n):
            if len(found) + (n - idx) < self.arity:
                break
            if idx >= self.cap:
                self.capped_nodes += 1
                break
            self.child_tests += 1
            if next(results):
                lab = int(codes[idx])
                found.append(lab)
                if push(lab, len(found) >= self.arity):
                    self.witness[v] = self.pred.witness_subset(
                        np.array(found, dtype=codes.dtype))
                    return True
        return False

    def witness_tree(self, v, n):
        def chosen(vs, m):
            wits = [self.witness.get(u) for u in vs]
            if m == 1 and self.block:  # a block's first label stands for the block
                wits = [np.arange(x, x + self.block.block) if isinstance(x, int) else x
                        for x in wits]
            return wits

        labels, parents = _witness(v, n, chosen, lambda u, labs: [
            u * self.step + c for c in labs.tolist()])
        return FiniteTree._of(self.step, n, labels, parents)

    def scan_stats(self):
        stats = {"child_tests": int(self.child_tests),
                 "capped_nodes": int(self.capped_nodes),
                 "nodes_sampled": int(self.lazy.nodes_sampled)}
        if self.section is not None:
            stats["certs"] = int(self.section.cert_count)
        return stats


def _scan_candidates(layered, n_total, scan_budget):
    """Breadth-first vertex scan; first hit wins; deterministic in the seed.

    Only as many vertices are queued as the budget can still pop.
    """
    q = deque([(1, layered.lazy.key(Word()), 0)])
    tested = 0
    dropped = False
    by_level = {}
    while q and tested < scan_budget:
        v, key, lvl = q.popleft()
        m = n_total - lvl
        tested += 1
        by_level[lvl] = by_level.get(lvl, 0) + 1
        if layered.test(v, key, m):
            stats = {"candidates_tested": tested,
                     "by_level": {str(a): b for a, b in sorted(by_level.items())}}
            return v, m, stats
        if lvl + 1 <= n_total - 1 and v in layered.alive:
            codes, keys = layered.alive[v]
            room = scan_budget - tested - len(q)
            dropped = dropped or len(codes) > room
            q.extend((u, k, lvl + 1) for u, k in layered._kids(v, codes[:room], keys[:room]))
    stats = {"candidates_tested": tested,
             "by_level": {str(a): b for a, b in sorted(by_level.items())},
             "scan_budget": int(scan_budget), "exhausted": not q and not dropped}
    stats.update(layered.scan_stats())
    raise NotFoundError(
        "no witness found among %d candidates at this depth/seed" % tested, stats
    )


def _levels(depth, n_levels, k, step):
    """Witness levels of k base steps each: depth // k for a depth that is a
    positive multiple of k (`step` names k), else n_levels, 2 by default."""
    if depth is None:
        return 2 if n_levels is None else int(n_levels)
    depth = int(depth)
    if depth < k or depth % k != 0:
        raise InvalidInputError("depth must be a positive multiple of " + step)
    if n_levels is not None and int(n_levels) != depth // k:
        raise InvalidInputError("depth and n_levels disagree")
    return depth // k


def _scan_extract(offspring, pred, n_total, seed, scan_budget, node_budget, predicted,
                  params):
    """Scan one lazy realization breadth first for a witness of n_total levels
    of `pred.k` base steps, its child sets members of `pred`, and build the
    first one found.

    Returns the witness root's word, its tree and the scan stats with
    `predicted`.  On a miss the NotFoundError's stats get `predicted` and
    `params` with the seed.
    """
    lazy = LazyGW(offspring, seed, node_budget=node_budget)
    layered = _LayeredScan(lazy, pred)
    try:
        v, n, scan = _scan_candidates(layered, n_total, scan_budget)
    except NotFoundError as err:
        err.stats.update(predicted=predicted, params=dict(params, seed=int(seed)))
        raise
    subtree = layered.witness_tree(v, n)
    scan.update(layered.scan_stats(), predicted=predicted)
    return layered.word(v), subtree, scan


# ---------------------------------------------------------------------------
# percolation pipeline


_BLOCK_CONSTANT = {}


def _block_family_constant(b, d):
    """Certified diffuseness of the full two-level cell family, cached per grid."""
    key = (int(b), int(d))
    if key not in _BLOCK_CONSTANT:
        ifs = percolation_ifs(b, d=d)
        n = ifs.alphabet_size
        fam = [word_map(ifs, (u, v)) for u in range(n) for v in range(n)]
        _BLOCK_CONSTANT[key] = diffuseness_constant(fam, _attractor_cloud(ifs), directions=400).c_low
    return _BLOCK_CONSTANT[key]


def percolation_pipeline(b, d, p, c, k, depth=None, seed=0, scan_budget=256,
                         node_budget=200_000_000):
    """Extract a c^k-ary block-certified subtree from grid percolation.

    Scans compressed vertices breadth-first for a witness of the available
    length under each vertex; reports predicted presence probabilities next to
    the scan outcome on failure.
    """
    b, d, k, p, c = int(b), int(d), int(k), float(p), float(c)
    if b < 2 or d < 1:
        raise InvalidInputError("need b >= 2 and d >= 1")
    if not (0.0 < p <= 1.0):
        raise InvalidInputError("p must lie in (0,1]")
    N = b ** d
    mean = p * N
    if mean <= 1.0:
        raise InvalidInputError("subcritical process: p*b^d = %g <= 1" % mean)
    if k < 2:
        raise InvalidInputError("k must be >= 2")
    if not (1.0 < c < mean):
        raise InvalidInputError("c must lie in (1, p*b^d)")
    A = _integer(c ** k, "c^k")
    if A < N * N:
        raise InvalidInputError(
            "c^k = %d is below the block size b^(2d) = %d; increase k" % (A, N * N)
        )
    if A > N ** k:
        raise InvalidInputError("arity %d exceeds the compressed alphabet" % A)
    n_total = _levels(depth, None, k, "k")
    if scan_budget < 1 or node_budget < 1:
        raise InvalidInputError("scan_budget and node_budget must be >= 1")

    offspring = Binomial(N, p)
    params = {"b": b, "d": d, "p": p, "c": c, "k": k, "depth": n_total * k}
    v, subtree, scan = _scan_extract(
        offspring, DiffuseBlock(b, k, d=d, floor=A), n_total, seed, scan_budget, node_budget,
        predicted_presence(offspring, k, A, n_total, mode="block"), params)
    ifs = percolation_ifs(b, d=d)
    c_blk = _block_family_constant(b, d)
    beta = c_blk * b ** (-k) / ifs.diameter_bound()
    scan["block_constant"] = float(c_blk)
    return ExtractedSubset(
        root_word=v,
        subtree=subtree,
        arity=A,
        alpha=math.log(c) / math.log(b),
        beta=float(beta),
        rho=float(b) ** (-k),
        pipeline="percolation",
        seed=int(seed),
        ifs=ifs,
        c=None,
        k=k,
        params=params,
        stats=scan,
    )


# ---------------------------------------------------------------------------
# section reduction (general pipeline preprocessing)


class SectionLaw:
    """Offspring law of the section survivors of a base process.

    Used when the one-step family cannot be certified at the requested c but a
    deeper section can: the base system is replaced by the section IFS with
    this law, which has the same fractal limit in distribution.
    """

    kind = "section_law"

    def __init__(self, offspring, words):
        self.base = offspring
        self.words = tuple(words)
        if not self.words or not all(self.words):
            raise InvalidInputError("a section needs one or more nonempty words")
        probs = np.asarray(offspring.letter_probs(), dtype=float)
        self._letter_probs = np.array([probs[list(w)].prod() for w in self.words])
        # the draw's plan: level by level, a base row per prefix with children;
        # with the draws side by side, prefix p's child p + (a,) is column
        # col[p] + a, and _steps[j] places level j + 1's parents in draw j
        n, self._salts = offspring.alphabet_size, _child_salts(offspring.alphabet_size)
        inner = [sorted({w[:j] for w in self.words if len(w) > j})
                 for j in range(max(map(len, self.words)))]
        col = {p: n * i for i, p in enumerate(p for ps in inner for p in ps)}
        self._steps = [np.array([col[q[:-1]] + q[-1] - col[inner[j - 1][0]] for q in inner[j]])
                       for j in range(1, len(inner))]
        self._cols = np.array([col[w[:-1]] + w[-1] for w in self.words])

    @property
    def alphabet_size(self):
        return len(self.words)

    def mean(self):
        return float(self._letter_probs.sum())

    def letter_probs(self):
        return self._letter_probs.copy()

    def sample_matrix(self, keys):
        """Bool matrix (len(keys) x section size): which section words survive
        below roots with these stream keys: one base draw per prefix level, a
        prefix alive where its parent is and the parent's row keeps its letter.
        `np.take` keeps the key matrices C-ordered, as the mixing kernel needs."""
        keys = np.asarray(keys, dtype=np.uint64)
        n, drawn = self.base.alphabet_size, [self.base.sample_matrix(keys)]
        keys = keys[:, None]
        for cols in self._steps:
            keys = _mix64_inplace(np.take(keys, cols // n, axis=1) ^ self._salts[cols % n])
            kept = self.base.sample_matrix(keys.reshape(-1)).reshape(len(keys), n * len(cols))
            drawn.append(kept & np.repeat(np.take(drawn[-1], cols, axis=1), n, axis=1))
        return np.take(np.concatenate(drawn, axis=1), self._cols, axis=1)

    def pgf(self, s):
        raise CapabilityError("section law has no closed-form pgf; sample instead")

    def size_pmf(self):
        raise CapabilityError("section law has no closed-form size pmf")

    def to_json(self):
        return {"kind": self.kind, "base": self.base.to_json(),
                "section": [w.text for w in self.words]}


def section_reduction(ifs, offspring, level):
    """Replace the IFS by its level-`level` section system with matching law."""
    level = int(level)
    if level < 2:
        raise InvalidInputError("reduction level must be >= 2")
    words = section_pi_rho(ifs.weights, ifs.weights.r_min ** level)
    maps = [word_map(ifs, w) for w in words]
    reduced = SimilarityIFS(ifs.d, maps, osc=ifs.osc, validate=False)
    return reduced, SectionLaw(offspring, words)


# ---------------------------------------------------------------------------
# general pipeline


def general_pipeline(ifs, offspring, rho, alpha, c, depth=None, seed=0,
                     n_levels=None, scan_budget=256, node_budget=200_000_000):
    """Extract a rho^(-alpha)-ary section-diffuse subtree from a sampled fractal.

    Uniform-ratio systems with rho an exact ratio power run the lazy layered
    scan; otherwise the sample is compressed along the graded sections and the
    DP runs eagerly on the star tree.  A system whose one-step family cannot
    be certified at c is replaced by a certified section system
    (`section_reduction`), whose witness is sized by n_levels alone.
    """
    return _general(ifs, offspring, float(rho), float(alpha), float(c), depth, seed,
                    n_levels, scan_budget, node_budget)


def _general(ifs, offspring, rho, alpha, c, depth, seed, n_levels, scan_budget,
             node_budget, base_F=None):
    """`general_pipeline`; base_F, when given, is the rendered attractor of
    the system that `ifs` reduces, and no further reduction is tried."""
    if offspring.alphabet_size != ifs.alphabet_size:
        raise InvalidInputError("offspring alphabet and IFS disagree")
    weights = ifs.weights
    if offspring.mean() <= 1.0:
        raise InvalidInputError("subcritical process: mean offspring <= 1")
    if n_levels is not None and int(n_levels) < 1:
        raise InvalidInputError("n_levels must be >= 1")
    if scan_budget < 1 or node_budget < 1:
        raise InvalidInputError("scan_budget and node_budget must be >= 1")
    delta = moran_exponent(offspring, weights)
    if not (0.0 < alpha < delta):
        raise InvalidInputError(
            "alpha must lie in (0, delta); got alpha=%g, delta=%g" % (alpha, delta)
        )
    if not (0.0 < rho < weights.r_min):
        raise InvalidInputError("rho must lie in (0, r_min)")
    A = _integer(rho ** (-alpha), "rho^-alpha")
    n0 = math.ceil(2.0 * math.log(weights.r_min) / math.log(weights.r_max) - 1e-9)
    floor = ifs.alphabet_size ** n0
    if A < floor:
        raise InvalidInputError(
            "rho^-alpha = %d is below the section bound |alphabet|^%d = %d"
            % (A, n0, floor)
        )

    F = base_F if base_F is not None else _attractor_cloud(ifs)
    if not _width_exceeds(F, 1e-8 * max(1.0, F.diameter())):
        raise InvalidInputError(
            "attractor render is planar (width %.3g); no diffuse subset exists"
            % F.width.w
        )

    base_cert = diffuseness_constant(ifs.maps, F, directions=400)
    if base_cert.c_low < c:
        if base_F is not None:
            raise InvalidInputError(
                "cannot certify c=%g even after section reduction (got %.3g)"
                % (c, base_cert.c_low)
            )
        sub = PointCloud(F.points[:: max(1, len(F.points) // 1200)], F.eps)
        for level in (2, 3):
            reduced_ifs, law = section_reduction(ifs, offspring, level)
            res = diffuseness_constant(reduced_ifs.maps, sub,
                                       directions=SectionDiffuse.DIRECTIONS, need=c)
            if res.c_low >= c:
                if rho >= reduced_ifs.weights.r_min:
                    raise InvalidInputError(
                        "rho too large for the level-%d section system" % level
                    )
                if depth is not None:
                    raise InvalidInputError(
                        "a section-reduced system is sized by n_levels (--levels), "
                        "not by depth")
                es = _general(reduced_ifs, law, rho, alpha, c, None, seed, n_levels,
                              scan_budget, node_budget, base_F=F)
                es.params["reduced_level"] = level
                return es
        raise InvalidInputError(
            "cannot certify the requested diffuseness c=%g (one-step family "
            "certified only %.3g)" % (c, base_cert.c_low)
        )

    ratios = np.asarray(weights.ratios, dtype=float)
    params = {"rho": rho, "alpha": alpha, "c": c, "seed": int(seed),
              "delta": float(delta)}
    # the lazy scan needs equal ratios r and rho = r^k
    r = float(ratios[0])
    k = int(round(math.log(rho) / math.log(r)))
    if float(ratios.max() - ratios.min()) > 1e-12 or abs(r ** k - rho) > 1e-9 * rho:
        return _general_star(ifs, offspring, rho, alpha, c, A, depth, seed,
                             n_levels, scan_budget, node_budget, F, params)

    n_total = _levels(depth, n_levels, k, "the section step %d" % k)
    if A > ifs.alphabet_size ** k:
        raise InvalidInputError("arity %d exceeds the section size" % A)
    sd = SectionDiffuse(c, ifs, F_cloud=F, k=k, floor=A)
    predicted = None
    try:
        if sd._mask_certified((1 << ifs.alphabet_size) - 1):
            predicted = predicted_presence(offspring, k, A, n_total, mode="family")
    except CapabilityError:
        pass
    params.update(k=k, depth=n_total * k)
    v, subtree, scan = _scan_extract(offspring, sd, n_total, seed, scan_budget, node_budget,
                                     predicted, params)
    beta = rho * c * weights.r_min / ifs.diameter_bound()
    scan["base_family_constant"] = float(base_cert.c_low)
    return ExtractedSubset(
        root_word=v,
        subtree=subtree,
        arity=A,
        alpha=alpha,
        beta=float(beta),
        rho=rho,
        pipeline="general",
        seed=int(seed),
        ifs=ifs,
        c=c,
        k=k,
        params=params,
        stats=scan,
    )


def _general_star(ifs, offspring, rho, alpha, c, A, depth, seed, n_levels,
                  scan_budget, node_budget, F, params):
    weights = ifs.weights
    n_total = 2 if n_levels is None else int(n_levels)
    if depth is None:
        depth = _section_depth(weights, rho ** n_total)
    depth = int(depth)

    sample = sample_gw(offspring, depth, seed, node_budget=node_budget)
    star = compress_along_pi_rho(sample.tree, weights, rho, n_levels=n_total)
    sd = SectionDiffuse(c, ifs, F_cloud=F, star=star, floor=A)
    good, witness = _presence(star, sd, n_total)

    candidates = list(islice(((h, i) for h in range(n_total) for i in range(len(good[h]))),
                             scan_budget))
    hit = next((v for v in candidates if good[v[0]][v[1]]), None)
    tested = candidates.index(hit) + 1 if hit else len(candidates)

    stats = {"candidates_tested": tested, "certs": int(sd.cert_count),
             "star_nodes": len(star)}
    if hit is None:
        stats["params"] = dict(params, depth=depth)
        raise NotFoundError(
            "no star witness found among %d candidates at this depth/seed" % tested,
            stats,
        )

    h, i = hit
    beta = rho * c * weights.r_min / ifs.diameter_bound()
    return ExtractedSubset(
        root_word=star.level(h)[i],
        subtree=star._sub(n_total - h, *witness(h, i)),
        arity=A,
        alpha=alpha,
        beta=float(beta),
        rho=rho,
        pipeline="general-star",
        seed=int(seed),
        ifs=ifs,
        c=c,
        k=None,
        params=dict(params, depth=depth),
        stats=stats,
    )
