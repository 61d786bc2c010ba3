"""Certified-subtree search and the pipelines that build diffuse, regular subsets.

A predicate declares which child sets are acceptable; `find_subtree` runs the
bottom-up presence DP and extracts a greedily trimmed witness.  The two
pipelines wrap this with sampling, a breadth-first vertex scan, measure
construction and geometric certificates.  Deep instances never materialize the
whole sample: the scan expands one compressed block at a time and stops testing
children of a node as soon as the predicate is satisfied, which agrees with the
eager DP because membership is monotone and children are visited in lex order.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .symbolic import (
    Word,
    FiniteTree,
    StarTree,
    section_pi_rho,
    compress_along_pi_rho,
    block_decode,
    InvalidInputError,
    CapabilityError,
)
from .branching import LazyGW, sample_gw, pgf
from .fixpoint import g_k_a_curve, _section_survival_given
from .geometry import (
    PointCloud,
    MeasuredCloud,
    SimilarityIFS,
    diffuseness_constant,
    moran_exponent,
    percolation_ifs,
    render,
    render_words,
    word_map,
)


class NotFoundError(RuntimeError):
    """No witness at this depth/seed; carries the scan statistics."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = dict(stats or {})


@dataclass
class PredicateContext:
    """Node position handed to predicates that need it (star splitting)."""

    node: Word = Word()
    height: int = 0


def _as_int_array(labels):
    if isinstance(labels, np.ndarray):
        return labels.astype(np.int64, copy=False)
    return np.array(sorted(int(x) for x in labels), dtype=np.int64)


def _word_labels(labels):
    """True when the labels are word suffixes rather than packed letters."""
    for x in labels:
        return isinstance(x, tuple)
    return False


# ---------------------------------------------------------------------------
# predicates


class SubtreePredicate:
    kind = "predicate"

    def member(self, labels, ctx=None):
        raise NotImplementedError

    def witness_subset(self, labels, ctx=None):
        """Minimal certifying child set (None when labels are not a member)."""
        raise NotImplementedError

    def min_arity(self):
        """Cardinality floor a trimmed witness must keep."""
        return 0

    def describe(self):
        return self.kind


class Ary(SubtreePredicate):
    """Upward closure of the child sets of size exactly a."""

    kind = "ary"

    def __init__(self, a):
        self.a = int(a)
        if self.a < 1:
            raise InvalidInputError("a must be >= 1")

    def member(self, labels, ctx=None):
        return len(labels) >= self.a

    def witness_subset(self, labels, ctx=None):
        if len(labels) < self.a:
            return None
        return frozenset(int(x) if not isinstance(x, tuple) else Word(x)
                         for x in sorted(labels)[: self.a])

    def min_arity(self):
        return self.a

    def describe(self):
        return "%s(%d)" % (self.kind, self.a)


class CardinalityAtLeast(Ary):
    kind = "cardinality"


class DiffuseBlock(SubtreePredicate):
    """Child sets containing a full two-level block below a common prefix.

    Labels are packed base-b^d words of length k (leading letter most
    significant); the block below prefix a is all base_n^2 extensions of a.
    """

    kind = "diffuse_block"

    def __init__(self, b, k, d=2):
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

    def _prefix_counts(self, labels):
        arr = _as_int_array(labels)
        return np.unique(arr // self.block, return_counts=True), arr

    def member(self, labels, ctx=None):
        if len(labels) < self.block:
            return False
        (_, counts), _ = self._prefix_counts(labels)
        return bool((counts == self.block).any())

    def witness_core(self, labels, ctx=None):
        (prefixes, counts), arr = self._prefix_counts(labels)
        full = prefixes[counts == self.block]
        if len(full) == 0:
            return None
        p = int(full[0])
        return frozenset(int(x) for x in arr[arr // self.block == p])

    def witness_subset(self, labels, ctx=None):
        return self.witness_core(labels, ctx)

    def min_arity(self):
        return self.block

    def describe(self):
        return "%s(b=%d,k=%d,d=%d)" % (self.kind, self.b, self.k, self.d)


class SectionDiffuse(SubtreePredicate):
    """Child sets with a certified-diffuse one-step family below some prefix.

    For packed labels (uniform-ratio compression by k base levels) the split
    prefix is the first k-1 base letters.  For word labels the prefix is the
    one realized in the section one r_min-step above the child section, as the
    existence argument prescribes.  Certification is one-sided: a family whose
    certified constant falls below c counts as a non-member.
    """

    kind = "section_diffuse"

    def __init__(self, rho, c, ifs, F_cloud=None, k=None, directions=200,
                 cert_budget=4096):
        self.rho = float(rho)
        self.c = float(c)
        if self.c <= 0:
            raise InvalidInputError("c must be positive")
        self.ifs = ifs
        self.k = None if k is None else int(k)
        self.directions = int(directions)
        self.cert_budget = int(cert_budget)
        self.cert_count = 0
        self.base_n = ifs.alphabet_size
        self.F = F_cloud if F_cloud is not None else _attractor_cloud(ifs)
        self._mask_ok = {}
        self._word_ok = {}

    # -- certification ------------------------------------------------------

    def _certify(self, maps):
        self.cert_count += 1
        if self.cert_count > self.cert_budget:
            raise CapabilityError(
                "diffuseness certification budget exhausted after %d families"
                % self.cert_budget
            )
        res = diffuseness_constant(maps, self.F, directions=self.directions)
        return res.c_low >= self.c

    def _mask_certified(self, mask):
        ok = self._mask_ok.get(mask)
        if ok is None:
            letters = [j for j in range(self.base_n) if mask >> j & 1]
            ok = self._certify([self.ifs.maps[j] for j in letters])
            self._mask_ok[mask] = ok
        return ok

    def _suffixes_certified(self, suffixes):
        key = frozenset(suffixes)
        ok = self._word_ok.get(key)
        if ok is None:
            ok = self._certify([word_map(self.ifs, v) for v in sorted(key)])
            self._word_ok[key] = ok
        return ok

    # -- packed labels ------------------------------------------------------

    def _groups(self, arr):
        if self.k is None:
            raise InvalidInputError("packed labels need the block length k")
        if self.base_n > 60:
            raise CapabilityError("mask grouping supports at most 60 base letters")
        if self.k == 1:
            prefixes = np.zeros(len(arr), dtype=np.int64)
        else:
            prefixes = arr // self.base_n
        letters = arr % self.base_n if self.k > 1 else arr
        upre, inv = np.unique(prefixes, return_inverse=True)
        masks = np.zeros(len(upre), dtype=np.int64)
        np.bitwise_or.at(masks, inv, np.int64(1) << letters.astype(np.int64))
        return upre, inv, masks

    # -- word labels --------------------------------------------------------

    def _split(self, w, a):
        """Prefix in the section one r_min-step up, and the remaining suffix."""
        weights = self.ifs.weights
        theta = self.rho / (a * weights.r_min)
        for i in range(len(w) + 1):
            if weights.weight(Word(w[:i])) <= theta:
                return Word(w[:i]), Word(w[i:])
        return Word(w), Word()

    def _word_groups(self, labels, ctx):
        a = 1.0
        if ctx is not None and ctx.height > 0:
            a = self.ifs.weights.weight(ctx.node) / self.rho ** ctx.height
        groups = {}
        for w in labels:
            w = Word(w)
            i, v = self._split(w, a)
            groups.setdefault(i, []).append((v, w))
        return groups

    # -- predicate API ------------------------------------------------------

    def member(self, labels, ctx=None):
        if len(labels) == 0:
            return False
        if _word_labels(labels):
            for i, pairs in self._word_groups(labels, ctx).items():
                if self._suffixes_certified([v for v, _ in pairs]):
                    return True
            return False
        arr = _as_int_array(labels)
        _, _, masks = self._groups(arr)
        return any(self._mask_certified(int(m)) for m in np.unique(masks))

    def witness_core(self, labels, ctx=None):
        if len(labels) == 0:
            return None
        if _word_labels(labels):
            groups = self._word_groups(labels, ctx)
            for i in sorted(groups):
                pairs = groups[i]
                if self._suffixes_certified([v for v, _ in pairs]):
                    return frozenset(w for _, w in pairs)
            return None
        arr = _as_int_array(labels)
        upre, inv, masks = self._groups(arr)
        for gi in range(len(upre)):
            if self._mask_certified(int(masks[gi])):
                return frozenset(int(x) for x in arr[inv == gi])
        return None

    def witness_subset(self, labels, ctx=None):
        return self.witness_core(labels, ctx)

    def describe(self):
        return "%s(rho=%g,c=%g)" % (self.kind, self.rho, self.c)


class Intersection(SubtreePredicate):
    """All parts must accept; the witness keeps the structural cores first and
    pads with the lex-smallest remaining children up to the cardinality floor."""

    kind = "intersection"

    def __init__(self, parts):
        self.parts = list(parts)
        if not self.parts:
            raise InvalidInputError("intersection needs at least one part")

    def member(self, labels, ctx=None):
        return all(p.member(labels, ctx) for p in self.parts)

    def min_arity(self):
        return max(p.min_arity() for p in self.parts)

    def witness_subset(self, labels, ctx=None):
        if not self.member(labels, ctx):
            return None
        core = set()
        for p in self.parts:
            take = getattr(p, "witness_core", None)
            if take is not None:
                got = take(labels, ctx)
                if got is None:
                    return None
                core |= got
        target = max(self.min_arity(), len(core))
        chosen = set(core)
        for x in sorted(labels):
            if len(chosen) >= target:
                break
            x = Word(x) if isinstance(x, tuple) else int(x)
            chosen.add(x)
        if len(chosen) < target:
            return None
        out = frozenset(chosen)
        if not self.member(out, ctx):
            return None
        return out

    def describe(self):
        return " & ".join(p.describe() for p in self.parts)


def diffuse_block_collection(b, k, d=2):
    """Monotone collection view of the block predicate, for fixed-point runs."""
    from .fixpoint import MonotoneCollection

    pred = DiffuseBlock(b, k, d=d)
    return MonotoneCollection(member=lambda S: pred.member(S),
                              kind="diffuse_block")


def _attractor_cloud(ifs, target=2000, node_cap=50_000):
    n = ifs.alphabet_size
    depth = max(1, math.ceil(math.log(target) / math.log(n)))
    while depth > 1 and n ** depth > node_cap:
        depth -= 1
    return render(ifs, depth=depth)


# ---------------------------------------------------------------------------
# eager DP


def find_subtree(tree, pred, n):
    """Bottom-up presence DP; returns the trimmed witness subtree or None."""
    n = int(n)
    if n < 0:
        raise InvalidInputError("length must be >= 0")
    if isinstance(tree, StarTree):
        return _find_star(tree, pred, n)
    if tree.depth < n:
        raise InvalidInputError("tree depth %d is below the requested length %d"
                                % (tree.depth, n))
    if n == 0:
        return FiniteTree(tree.alphabet_size, 0, {Word(): frozenset()}, validate=False)

    goods_by_m = {0: {w: None for w in tree.level(n)}}
    for m in range(1, n + 1):
        prev = goods_by_m[m - 1]
        cur = {}
        for v in tree.level(n - m):
            S = frozenset(j for j in tree.children[v] if v.child(j) in prev)
            if pred.member(S, PredicateContext(node=v, height=n - m)):
                cur[v] = S
        goods_by_m[m] = cur
    root = Word()
    if root not in goods_by_m[n]:
        return None

    children = {}

    def build(v, m):
        if m == 0:
            children[v] = frozenset()
            return
        S = goods_by_m[m][v]
        chosen = pred.witness_subset(S, PredicateContext(node=v, height=n - m))
        if chosen is None:
            raise RuntimeError("witness extraction failed on a member set")
        children[v] = frozenset(int(j) for j in chosen)
        for j in sorted(chosen):
            build(v.child(int(j)), m - 1)

    build(root, n)
    return FiniteTree(tree.alphabet_size, n, children, validate=False)


def _star_goods(star, pred, n):
    """DP tables good_m over the star; labels are child suffix words."""
    goods_by_m = {0: {w: None for w in star.level(n)}}
    for m in range(1, n + 1):
        prev = goods_by_m[m - 1]
        cur = {}
        for v in star.level(n - m):
            S = frozenset(s for s in star.children.get(v, ()) if v.cat(s) in prev)
            if pred.member(S, PredicateContext(node=v, height=n - m)):
                cur[v] = S
        goods_by_m[m] = cur
    return goods_by_m


def _star_witness(star, pred, goods_by_m, root, n, root_height=0):
    """Witness star below `root`, with words relative to it.

    `root_height` is the absolute star height of `root`; predicates that
    depend on the grading see absolute heights.
    """
    levels = [[Word()]]

    def build(v, m, rel):
        if m == 0:
            return
        ctx = PredicateContext(node=v, height=root_height + n - m)
        chosen = pred.witness_subset(goods_by_m[m][v], ctx)
        if chosen is None:
            raise RuntimeError("witness extraction failed on a member set")
        while len(levels) <= n - m + 1:
            levels.append([])
        for s in sorted(chosen):
            s = Word(s)
            levels[n - m + 1].append(rel.cat(s))
            build(v.cat(s), m - 1, rel.cat(s))

    build(root, n, Word())
    return StarTree(levels, validate=False)


def _find_star(star, pred, n):
    if star.max_height() < n:
        raise InvalidInputError("star height %d is below the requested length %d"
                                % (star.max_height(), n))
    if n == 0:
        return StarTree([[Word()]], validate=False)
    goods_by_m = _star_goods(star, pred, n)
    root = Word()
    if root not in goods_by_m[n]:
        return None
    return _star_witness(star, pred, goods_by_m, root, n)


# ---------------------------------------------------------------------------
# natural measure


def natural_measure(subtree, rho, alpha):
    """Mass rho^(h*alpha) per height-h node of an exactly rho^(-alpha)-ary tree."""
    rho = float(rho)
    alpha = float(alpha)
    if not (0.0 < rho < 1.0):
        raise InvalidInputError("rho must lie in (0,1)")
    A_f = rho ** (-alpha)
    A = int(round(A_f))
    if A < 1 or abs(A_f - A) > 1e-9 * max(1.0, A_f):
        raise InvalidInputError("rho^-alpha = %r is not an integer" % A_f)

    masses = {}
    if isinstance(subtree, StarTree):
        top = subtree.max_height()
        for h in range(top + 1):
            for w in subtree.level(h):
                cs = subtree.children.get(w, frozenset())
                if h < top and len(cs) != A:
                    raise InvalidInputError(
                        "node %r has %d children, expected %d" % (w, len(cs), A)
                    )
                masses[w] = float(A) ** (-h)
        return masses
    for w, cs in subtree.children.items():
        if len(w) < subtree.depth and len(cs) != A:
            raise InvalidInputError(
                "node %r has %d children, expected %d" % (w, len(cs), A)
            )
        masses[w] = float(A) ** (-len(w))
    return masses


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
        if isinstance(self.subtree, StarTree):
            return self.subtree.max_height()
        return self.subtree.depth

    def measure(self):
        return natural_measure(self.subtree, self.rho, self.alpha)

    def leaf_words(self):
        """Absolute base-alphabet words of the deepest witness level."""
        if isinstance(self.subtree, StarTree):
            top = self.subtree.max_height()
            return [self.root_word.cat(w) for w in self.subtree.level(top)]
        base_n = self.ifs.alphabet_size
        out = []
        for w in self.subtree.level(self.subtree.depth):
            letters = []
            for lab in w:
                letters.extend(block_decode(int(lab), base_n, self.k))
            out.append(self.root_word.cat(Word(letters)))
        return out

    def cloud(self):
        return render_words(self.ifs, self.leaf_words(),
                            meta={"pipeline": self.pipeline,
                                  "root": self.root_word.text})

    def measured_cloud(self):
        words = self.leaf_words()
        cloud = self.cloud()
        masses = np.full(len(words), 1.0 / len(words))
        half = self.ifs.diameter_bound() / 2.0
        radii = np.array([self.ifs.weights.weight(w) * half for w in words])
        return MeasuredCloud(cloud.points, masses, radii)

    def certificates(self):
        return {"arity": self.arity, "alpha": self.alpha, "beta": self.beta,
                "c": self.c, "rho": self.rho}

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
            "leaf_count": len(self.leaf_words()),
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


def _no_block_g(offspring, k, s, p_full):
    """P(no fully surviving two-level block among the level-k descendants)."""
    N = offspring.alphabet_size
    if k < 2:
        raise InvalidInputError("two-level block needs k >= 2")
    beta = p_full ** (1 + N) * (1.0 - s) ** (N * N)
    t = 1.0 - beta
    for _ in range(k - 2):
        t = pgf(offspring, t)
    return min(1.0, max(0.0, t))


def _no_family_g(offspring, k, s, p_full):
    """P(no fully surviving one-step family below a level-(k-1) vertex)."""
    N = offspring.alphabet_size
    beta = p_full * (1.0 - s) ** N
    t = 1.0 - beta
    for _ in range(k - 1):
        t = pgf(offspring, t)
    return min(1.0, max(0.0, t))


def predicted_presence(offspring, k, arity, n_levels, mode="block"):
    """Lower bound on the per-vertex presence probability of the witness.

    Uses the union bound no-structure + too-few-survivors; both terms are in
    closed form (the cardinality term is exact for binomial offspring), so the
    resulting tau is a conservative prediction of the scan's hit rate.
    """
    stage = _no_block_g if mode == "block" else _no_family_g
    p_full = float(offspring.size_pmf()[-1])
    flagged = False
    t = 0.0
    for _ in range(int(n_levels)):
        s = min(t, 1.0 - 1e-12)
        gs = stage(offspring, k, s, p_full)
        gc = g_k_a_curve(offspring, k, arity, s)
        flagged = flagged or bool(gc.get("flagged"))
        t = min(1.0, gs + gc["value"])
    return {"tau": 1.0 - t, "g_iterate": t, "flagged": flagged,
            "mode": mode, "k": int(k), "arity": int(arity),
            "levels": int(n_levels)}


# ---------------------------------------------------------------------------
# layered lazy scan (uniform-ratio pipelines)


class _LayeredScan:
    """Greedy DP over k-block-compressed levels of one lazy realization.

    Children are tested in lex order and the scan of a node stops at the first
    member-true prefix of its good children, which reproduces the eager DP's
    witness exactly; alive-set prechecks reject nodes whose full child set
    already fails (membership is monotone).
    """

    def __init__(self, lazy, k, pred, arity, per_node_cap):
        self.lazy = lazy
        self.k = int(k)
        self.pred = pred
        self.arity = int(arity)
        self.per_node_cap = int(per_node_cap)
        self.base_n = lazy.offspring.alphabet_size
        self.alive = {}
        self.good = {}
        self.witness = {}
        self.child_tests = 0
        self.capped_nodes = 0

    def _letters(self, w):
        return np.sort(self.lazy.level_codes(w, self.k))

    def _block_word(self, lab):
        return Word(block_decode(int(lab), self.base_n, self.k))

    def _ctx(self, w):
        return PredicateContext(node=w, height=len(w) // self.k)

    def test(self, w, m):
        key = (w, m)
        cached = self.good.get(key)
        if cached is not None:
            return cached
        if m == 0:
            self.good[key] = True
            return True
        ctx = self._ctx(w)
        if m == 1:
            letters = self._letters(w)
            ok = len(letters) >= self.arity and self.pred.member(letters, ctx)
            if ok:
                wit = self.pred.witness_subset(letters, ctx)
                ok = wit is not None
                if ok:
                    self.witness[key] = wit
            self.good[key] = ok
            return ok

        letters = self.alive.get(w)
        if letters is None:
            letters = self._letters(w)
            self.alive[w] = letters
        ok = False
        if len(letters) >= self.arity and self.pred.member(letters, ctx):
            found = []
            for idx in range(len(letters)):
                if len(found) + (len(letters) - idx) < self.arity:
                    break
                if idx >= self.per_node_cap:
                    self.capped_nodes += 1
                    break
                lab = int(letters[idx])
                self.child_tests += 1
                if self.test(w.cat(self._block_word(lab)), m - 1):
                    found.append(lab)
                    if len(found) >= self.arity and self.pred.member(
                        np.array(found, dtype=np.int64), ctx
                    ):
                        ok = True
                        break
            if ok:
                wit = self.pred.witness_subset(np.array(found, dtype=np.int64), ctx)
                ok = wit is not None
                if ok:
                    self.witness[key] = wit
        self.good[key] = ok
        return ok

    def witness_tree(self, v, n):
        children = {}

        def build(rel, absw, m):
            if m == 0:
                children[rel] = frozenset()
                return
            labs = self.witness[(absw, m)]
            children[rel] = frozenset(int(x) for x in labs)
            for lab in sorted(labs):
                build(rel.child(int(lab)), absw.cat(self._block_word(lab)), m - 1)

        build(Word(), v, n)
        return FiniteTree(self.base_n ** self.k, n, children, validate=False)

    def scan_stats(self):
        return {"child_tests": int(self.child_tests),
                "capped_nodes": int(self.capped_nodes),
                "nodes_sampled": int(self.lazy.nodes_sampled)}


def _scan_candidates(layered, n_total, scan_budget):
    """Breadth-first vertex scan; first hit wins; deterministic in the seed."""
    q = deque([(Word(), 0)])
    tested = 0
    by_level = {}
    while q and tested < scan_budget:
        w, lvl = q.popleft()
        m = n_total - lvl
        tested += 1
        by_level[lvl] = by_level.get(lvl, 0) + 1
        if layered.test(w, m):
            stats = {"candidates_tested": tested,
                     "by_level": {str(a): b for a, b in sorted(by_level.items())}}
            return w, m, stats
        if lvl + 1 <= n_total - 1:
            for lab in layered.alive.get(w, ()):
                q.append((w.cat(layered._block_word(int(lab))), lvl + 1))
    stats = {"candidates_tested": tested,
             "by_level": {str(a): b for a, b in sorted(by_level.items())},
             "scan_budget": int(scan_budget), "exhausted": not q}
    stats.update(layered.scan_stats())
    raise NotFoundError(
        "no witness found among %d candidates at this depth/seed" % tested, stats
    )


# ---------------------------------------------------------------------------
# percolation pipeline


_BLOCK_CONSTANT = {}


def _block_family_constant(b, d):
    """Certified diffuseness of the full two-level cell family, cached per grid."""
    key = (int(b), int(d))
    got = _BLOCK_CONSTANT.get(key)
    if got is None:
        ifs = percolation_ifs(b, d=d)
        F = _attractor_cloud(ifs)
        n = ifs.alphabet_size
        fam = [word_map(ifs, (u, v)) for u in range(n) for v in range(n)]
        res = diffuseness_constant(fam, F, directions=400)
        got = res.c_low
        _BLOCK_CONSTANT[key] = got
    return got


def percolation_pipeline(b, d, p, c, k, depth=None, seed=0, scan_budget=256,
                         node_budget=200_000_000, per_node_cap=None):
    """Extract a c^k-ary block-certified subtree from grid percolation.

    Scans compressed vertices breadth-first for a witness of the available
    length under each vertex; reports predicted presence probabilities next to
    the scan outcome on failure.
    """
    from .branching import Binomial

    b = int(b)
    d = int(d)
    k = int(k)
    p = float(p)
    c = float(c)
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
    A_f = c ** k
    A = int(round(A_f))
    if abs(A_f - A) > 1e-9 * max(1.0, A_f):
        raise InvalidInputError("c^k = %r is not an integer" % A_f)
    if A < N * N:
        raise InvalidInputError(
            "c^k = %d is below the block size b^(2d) = %d; increase k" % (A, N * N)
        )
    if A > N ** k:
        raise InvalidInputError("arity %d exceeds the compressed alphabet" % A)
    if depth is None:
        depth = 2 * k
    depth = int(depth)
    if depth < k or depth % k != 0:
        raise InvalidInputError("depth must be a positive multiple of k")
    n_total = depth // k

    offspring = Binomial(N, p)
    ifs = percolation_ifs(b, d=d)
    pred = Intersection([DiffuseBlock(b, k, d=d), CardinalityAtLeast(A)])
    if per_node_cap is None:
        per_node_cap = max(4 * A, 256)
    lazy = LazyGW(offspring, seed, node_budget=node_budget)
    layered = _LayeredScan(lazy, k, pred, A, per_node_cap)
    predicted = predicted_presence(offspring, k, A, n_total, mode="block")

    try:
        v, n, scan = _scan_candidates(layered, n_total, scan_budget)
    except NotFoundError as err:
        err.stats["predicted"] = predicted
        err.stats["params"] = {"b": b, "d": d, "p": p, "c": c, "k": k,
                               "depth": depth, "seed": int(seed)}
        raise

    subtree = layered.witness_tree(v, n)
    c_blk = _block_family_constant(b, d)
    beta = c_blk * b ** (-k) / ifs.diameter_bound()
    scan.update(layered.scan_stats())
    scan["predicted"] = predicted
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
        params={"b": b, "d": d, "p": p, "c": c, "k": k, "depth": depth},
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

    def __init__(self, offspring, weights, section):
        self.base = offspring
        self.weights = weights
        self.section = section
        self.words = section.sorted_words()
        if not self.words:
            raise InvalidInputError("empty section")
        probs = np.asarray(offspring.letter_probs(), dtype=float)
        self._letter_probs = np.array(
            [float(np.prod([probs[a] for a in w])) for w in self.words]
        )

    @property
    def alphabet_size(self):
        return len(self.words)

    def mean(self):
        return float(self._letter_probs.sum())

    def letter_probs(self):
        return self._letter_probs.copy()

    def sample_matrix(self, keys):
        return _section_survival_given(self.base, self.section, keys)

    def pgf(self, s):
        raise CapabilityError("section law has no closed-form pgf; sample instead")

    def size_pmf(self):
        raise CapabilityError("section law has no closed-form size pmf")

    def thinned(self, s):
        raise CapabilityError("thin the base process before taking sections")

    def to_json(self):
        return {"kind": self.kind, "base": self.base.to_json(),
                "section": [w.text for w in self.words]}


def section_reduction(ifs, offspring, level):
    """Replace the IFS by its level-`level` section system with matching law."""
    level = int(level)
    if level < 2:
        raise InvalidInputError("reduction level must be >= 2")
    section = section_pi_rho(ifs.weights, ifs.weights.r_min ** level)
    maps = [word_map(ifs, w) for w in section.sorted_words()]
    reduced = SimilarityIFS(ifs.d, maps, osc=ifs.osc, validate=False)
    return reduced, SectionLaw(offspring, ifs.weights, section)


# ---------------------------------------------------------------------------
# general pipeline


def general_pipeline(ifs, offspring, rho, alpha, c, depth=None, seed=0,
                     n_levels=None, scan_budget=256, node_budget=200_000_000,
                     directions=200, per_node_cap=None, F_cloud=None,
                     _reduced=False):
    """Extract a rho^(-alpha)-ary section-diffuse subtree from a sampled fractal.

    Uniform-ratio systems with rho an exact ratio power run the lazy layered
    scan; otherwise the sample is compressed along the graded sections and the
    DP runs eagerly on the star tree.
    """
    rho = float(rho)
    alpha = float(alpha)
    c = float(c)
    if offspring.alphabet_size != ifs.alphabet_size:
        raise InvalidInputError("offspring alphabet and IFS disagree")
    weights = ifs.weights
    if offspring.mean() <= 1.0:
        raise InvalidInputError("subcritical process: mean offspring <= 1")
    delta = moran_exponent(offspring, weights)
    if not (0.0 < alpha < delta):
        raise InvalidInputError(
            "alpha must lie in (0, delta); got alpha=%g, delta=%g" % (alpha, delta)
        )
    if not (0.0 < rho < weights.r_min):
        raise InvalidInputError("rho must lie in (0, r_min)")
    A_f = rho ** (-alpha)
    A = int(round(A_f))
    if abs(A_f - A) > 1e-9 * max(1.0, A_f):
        raise InvalidInputError("rho^-alpha = %r is not an integer" % A_f)
    n0 = math.ceil(2.0 * math.log(weights.r_min) / math.log(weights.r_max) - 1e-9)
    floor = ifs.alphabet_size ** n0
    if A < floor:
        raise InvalidInputError(
            "rho^-alpha = %d is below the section bound |alphabet|^%d = %d"
            % (A, n0, floor)
        )

    F = F_cloud if F_cloud is not None else _attractor_cloud(ifs)
    wres = F.width
    if wres.w <= 1e-8 * max(1.0, F.diameter()):
        raise InvalidInputError(
            "attractor render is planar (width %.3g); no diffuse subset exists"
            % wres.w
        )

    base_cert = diffuseness_constant(ifs.maps, F, directions=max(directions, 400))
    if base_cert.c_low < c:
        if _reduced:
            raise InvalidInputError(
                "cannot certify c=%g even after section reduction (got %.3g)"
                % (c, base_cert.c_low)
            )
        for level in (2, 3):
            sec = section_pi_rho(weights, weights.r_min ** level)
            sub = F.points[:: max(1, len(F.points) // 1200)]
            fam = [word_map(ifs, w) for w in sec.sorted_words()]
            res = diffuseness_constant(fam, PointCloud(sub, F.eps),
                                       directions=directions)
            if res.c_low >= c:
                reduced_ifs, law = section_reduction(ifs, offspring, level)
                if rho >= reduced_ifs.weights.r_min:
                    raise InvalidInputError(
                        "rho too large for the level-%d section system" % level
                    )
                es = general_pipeline(
                    reduced_ifs, law, rho, alpha, c, depth=None, seed=seed,
                    n_levels=n_levels, scan_budget=scan_budget,
                    node_budget=node_budget, directions=directions,
                    per_node_cap=per_node_cap, F_cloud=F, _reduced=True,
                )
                es.params["reduced_level"] = level
                return es
        raise InvalidInputError(
            "cannot certify the requested diffuseness c=%g (one-step family "
            "certified only %.3g)" % (c, base_cert.c_low)
        )

    ratios = np.asarray(weights.ratios, dtype=float)
    uniform = float(ratios.max() - ratios.min()) <= 1e-12
    params = {"rho": rho, "alpha": alpha, "c": c, "seed": int(seed),
              "delta": float(delta)}

    if uniform:
        r = float(ratios[0])
        k_f = math.log(rho) / math.log(r)
        k = int(round(k_f))
        if abs(r ** k - rho) <= 1e-9 * rho:
            return _general_uniform(ifs, offspring, rho, alpha, c, A, k, depth,
                                    seed, n_levels, scan_budget, node_budget,
                                    directions, per_node_cap, F, base_cert,
                                    params)

    return _general_star(ifs, offspring, rho, alpha, c, A, depth, seed,
                         n_levels, scan_budget, node_budget, directions, F,
                         params)


def _general_uniform(ifs, offspring, rho, alpha, c, A, k, depth, seed,
                     n_levels, scan_budget, node_budget, directions,
                     per_node_cap, F, base_cert, params):
    if depth is None:
        n_total = 2 if n_levels is None else int(n_levels)
        depth = n_total * k
    else:
        depth = int(depth)
        if depth < k or depth % k != 0:
            raise InvalidInputError(
                "depth must be a positive multiple of the section step %d" % k
            )
        n_total = depth // k
        if n_levels is not None and int(n_levels) != n_total:
            raise InvalidInputError("depth and n_levels disagree")
    if A > ifs.alphabet_size ** k:
        raise InvalidInputError("arity %d exceeds the section size" % A)

    sd = SectionDiffuse(rho, c, ifs, F_cloud=F, k=k, directions=directions)
    pred = Intersection([sd, CardinalityAtLeast(A)])
    if per_node_cap is None:
        per_node_cap = max(4 * A, 256)
    lazy = LazyGW(offspring, seed, node_budget=node_budget)
    layered = _LayeredScan(lazy, k, pred, A, per_node_cap)

    predicted = None
    try:
        full_mask = (1 << ifs.alphabet_size) - 1
        if sd._mask_certified(full_mask):
            predicted = predicted_presence(offspring, k, A, n_total, mode="family")
    except CapabilityError:
        predicted = None

    try:
        v, n, scan = _scan_candidates(layered, n_total, scan_budget)
    except NotFoundError as err:
        err.stats["predicted"] = predicted
        err.stats["params"] = dict(params, k=k, depth=depth)
        err.stats["certs"] = int(sd.cert_count)
        raise

    subtree = layered.witness_tree(v, n)
    beta = rho * c * ifs.weights.r_min / ifs.diameter_bound()
    scan.update(layered.scan_stats())
    scan["predicted"] = predicted
    scan["certs"] = int(sd.cert_count)
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
        params=dict(params, k=k, depth=depth),
        stats=scan,
    )


def _general_star(ifs, offspring, rho, alpha, c, A, depth, seed, n_levels,
                  scan_budget, node_budget, directions, F, params):
    weights = ifs.weights
    n_total = 2 if n_levels is None else int(n_levels)
    if depth is None:
        depth = section_pi_rho(weights, rho ** n_total).max_depth()
    depth = int(depth)

    sample = sample_gw(offspring, depth, seed, node_budget=node_budget)
    star = compress_along_pi_rho(sample.tree, weights, rho, n_levels=n_total)
    sd = SectionDiffuse(rho, c, ifs, F_cloud=F, k=None, directions=directions)
    pred = Intersection([sd, CardinalityAtLeast(A)])
    goods_by_m = _star_goods(star, pred, n_total)

    hit = None
    tested = 0
    for lvl in range(n_total):
        m = n_total - lvl
        for v in star.level(lvl):
            tested += 1
            if tested > scan_budget:
                break
            if v in goods_by_m[m]:
                hit = (v, m)
                break
        if hit is not None or tested > scan_budget:
            break

    stats = {"candidates_tested": tested, "certs": int(sd.cert_count),
             "star_nodes": len(star)}
    if hit is None:
        stats["params"] = dict(params, depth=depth)
        raise NotFoundError(
            "no star witness found among %d candidates at this depth/seed" % tested,
            stats,
        )

    v, m = hit
    witness = _star_witness(star, pred, goods_by_m, v, m,
                            root_height=n_total - m)
    beta = rho * c * weights.r_min / ifs.diameter_bound()
    return ExtractedSubset(
        root_word=v,
        subtree=witness,
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
