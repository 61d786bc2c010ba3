"""Offspring laws, Galton-Watson sampling, and extinction diagnostics.

Randomness is counter-based: every tree node owns a 64-bit stream key derived
from (seed, path), so regeneration is bit-identical and independent of
traversal order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .symbolic import (
    DEFAULT_NODE_BUDGET,
    FiniteTree,
    InvalidInputError,
    ResourceLimitError,
    Word,
)

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_CHILD_SALT = 0xD1B54A32D192ED03


def mix64(x):
    """SplitMix64 finalizer on a python int."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
# elements mixed per pass: 256 KB, which stays in cache through all five steps
_MIX_BLOCK = 1 << 15


def _mix64_inplace(x):
    """SplitMix64 finalizer applied to the C-contiguous uint64 array `x` in
    place, one cache-sized block at a time; returns x."""
    if x.dtype != np.uint64 or not x.flags.c_contiguous:  # a reshape would mix a copy
        raise ValueError("mixing needs a C-contiguous uint64 array")
    flat = x.reshape(-1)
    tmp = np.empty(min(len(flat), _MIX_BLOCK), dtype=np.uint64)
    for lo in range(0, len(flat), _MIX_BLOCK):
        b = flat[lo:lo + _MIX_BLOCK]
        t = tmp[:len(b)]
        np.right_shift(b, _S30, out=t)
        b ^= t
        b *= _M1
        np.right_shift(b, _S27, out=t)
        b ^= t
        b *= _M2
        np.right_shift(b, _S31, out=t)
        b ^= t
    return x


def _unit(u):
    # top 53 bits -> [0,1)
    return (u >> np.uint64(11)) * (2.0 ** -53)


def root_key(seed):
    return mix64(int(seed) & MASK64)


def child_key(parent_key, letter):
    return mix64(parent_key ^ (((letter + 1) * _CHILD_SALT) & MASK64))


def _child_salts(n):
    """child_key's salt of each letter 0..n-1, (letter + 1) * _CHILD_SALT mod 2^64."""
    return np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_CHILD_SALT)


def labeled_seed(seed, label):
    """Derive an independent 64-bit sub-seed from a master seed and a label."""
    h = hashlib.blake2b(("%s:%d" % (label, int(seed))).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


# ---------------------------------------------------------------------------
# binomial and normal distribution functions
#
# The Boost ufuncs that scipy.stats.binom calls, imported without
# scipy.stats: that module is most of `import gwfract`'s start-up time.
# binom_cdf and binom_pmf add what rv_discrete does around them, so values
# are bit-identical to binom.cdf and binom.pmf.  norm_ppf is norm.ppf's own
# kernel.
try:
    from scipy.special._ufuncs import _binom_cdf, _binom_pmf
except ImportError:  # older scipy: same Boost code, behind scipy.stats
    from scipy.stats import binom as _binom

    _binom_cdf, _binom_pmf = _binom.cdf, _binom.pmf
from scipy.special import ndtri as norm_ppf


def binom_cdf(k, n, p):
    """P(Binomial(n, p) <= k) for an integer k; the ufunc is nan outside [0, n]."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    return min(max(float(_binom_cdf(k, n, p)), 0.0), 1.0)


def binom_pmf(k, n, p):
    """P(Binomial(n, p) = k), elementwise over integer k."""
    k = np.asarray(k)
    return np.where((k >= 0) & (k <= n), np.clip(_binom_pmf(k, n, p), 0.0, 1.0), 0.0)


# ---------------------------------------------------------------------------
# offspring laws


class _IndependentLetters:
    """Laws that keep letter i independently with probability letter_probs()[i]."""

    @cached_property
    def _draw(self):
        # per-letter stream offsets and integer keep bounds, fixed for the law:
        # with u the top 53 bits of the mixed word x, u * 2^-53 < p exactly
        # when u < ceil(p * 2^53), as p * 2^53 is exact, that is when
        # x <= (ceil(p * 2^53) << 11) - 1 (p = 1 gives 2^64 - 1, which fits)
        probs = self.letter_probs().tolist()
        offs = np.arange(1, len(probs) + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        return offs, np.array([(math.ceil(p * 2.0 ** 53) << 11) - 1 for p in probs],
                              dtype=np.uint64)

    def sample_matrix(self, keys):
        offs, bounds = self._draw
        return _mix64_inplace(keys[:, None] + offs) <= bounds


class Binomial(_IndependentLetters):
    """Each letter of the alphabet kept independently with probability p."""

    kind = "binomial"

    def __init__(self, n, p):
        n = int(n)
        p = float(p)
        if n < 1:
            raise InvalidInputError("alphabet size must be >= 1")
        if not (0.0 < p <= 1.0):
            raise InvalidInputError("p must lie in (0,1]; every letter needs positive probability")
        self.n = n
        self.p = p

    @property
    def alphabet_size(self):
        return self.n

    def mean(self):
        return self.n * self.p

    def letter_probs(self):
        return np.full(self.n, self.p)

    def pgf(self, s):
        return (1.0 - self.p + self.p * s) ** self.n

    def size_pmf(self):
        return binom_pmf(np.arange(self.n + 1), self.n, self.p)

    def to_json(self):
        return {"kind": "binomial", "n": self.n, "p": self.p}


class PerLetterBernoulli(_IndependentLetters):
    """Letter i kept independently with its own probability p_i."""

    kind = "bernoulli"

    def __init__(self, probs):
        probs = tuple(float(p) for p in probs)
        if not probs:
            raise InvalidInputError("need at least one letter")
        for p in probs:
            if not (0.0 < p <= 1.0):
                raise InvalidInputError("every letter needs probability in (0,1]")
        self.probs = probs

    @property
    def alphabet_size(self):
        return len(self.probs)

    def mean(self):
        return float(sum(self.probs))

    def letter_probs(self):
        return np.array(self.probs)

    def pgf(self, s):
        out = 1.0
        for p in self.probs:
            out *= 1.0 - p + p * s
        return out

    def size_pmf(self):
        pmf = np.array([1.0])
        for p in self.probs:
            pmf = np.convolve(pmf, [1.0 - p, p])
        return pmf

    def to_json(self):
        return {"kind": "bernoulli", "p": list(self.probs)}


class ExplicitTable:
    """Explicit law over subsets of the alphabet, given as (subset, prob) rows."""

    kind = "table"
    MAX_ALPHABET = 20

    def __init__(self, alphabet_size, rows):
        alphabet_size = int(alphabet_size)
        if alphabet_size > self.MAX_ALPHABET:
            raise InvalidInputError(
                "table laws limited to alphabets of size <= %d" % self.MAX_ALPHABET
            )
        self.n = alphabet_size
        self.rows = tuple((frozenset(int(a) for a in sub), float(pr)) for sub, pr in rows)
        total = sum(pr for _, pr in self.rows)
        if abs(total - 1.0) > 1e-12:
            raise InvalidInputError("row probabilities must sum to 1, got %.17g" % total)
        for sub, pr in self.rows:
            if pr < 0:
                raise InvalidInputError("negative probability")
            for a in sub:
                if not (0 <= a < alphabet_size):
                    raise InvalidInputError("subset letter out of range")
        marg = [0.0] * alphabet_size
        for sub, pr in self.rows:
            for a in sub:
                marg[a] += pr
        if any(m <= 0.0 for m in marg):
            raise InvalidInputError("every letter needs positive probability of appearing")
        self._cum = np.cumsum([pr for _, pr in self.rows])
        self._masks = np.zeros((len(self.rows), alphabet_size), dtype=bool)
        for r, (sub, _) in enumerate(self.rows):
            for a in sub:
                self._masks[r, a] = True

    @property
    def alphabet_size(self):
        return self.n

    def mean(self):
        return float(sum(pr * len(sub) for sub, pr in self.rows))

    def letter_probs(self):
        out = np.zeros(self.n)
        for sub, pr in self.rows:
            for a in sub:
                out[a] += pr
        return out

    def pgf(self, s):
        return float(sum(pr * s ** len(sub) for sub, pr in self.rows))

    def size_pmf(self):
        pmf = np.zeros(self.n + 1)
        for sub, pr in self.rows:
            pmf[len(sub)] += pr
        return pmf

    def sample_matrix(self, keys):
        u = _unit(_mix64_inplace(keys + np.uint64(_GAMMA)))
        idx = np.minimum(np.searchsorted(self._cum, u, side="right"), len(self.rows) - 1)
        return self._masks[idx]

    def to_json(self):
        return {
            "kind": "table",
            "n": self.n,
            "rows": [{"subset": sorted(sub), "prob": pr} for sub, pr in self.rows],
        }


def offspring_from_json(doc):
    """Parse an offspring law from a JSON document or dict."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    kind = doc.get("kind")
    if kind == "binomial":
        return Binomial(doc["n"], doc["p"])
    if kind == "bernoulli":
        return PerLetterBernoulli(doc["p"])
    if kind == "table":
        rows = [(r["subset"], r["prob"]) for r in doc["rows"]]
        n = doc.get("n")
        if n is None:
            n = max((max(r["subset"]) + 1 for r in doc["rows"] if r["subset"]), default=1)
        return ExplicitTable(n, rows)
    raise InvalidInputError("unknown offspring kind %r" % (kind,))


# ---------------------------------------------------------------------------
# sampling


@dataclass
class GWSample:
    tree: FiniteTree
    extinct_at: int | None


class LazyGW:
    """On-demand Galton-Watson realization; a pure function of (params, seed).

    A node's child set is a function of its stream key (seed and word), so
    exploring the same node twice, in any order, yields identical results.
    """

    def __init__(self, offspring, seed, node_budget=DEFAULT_NODE_BUDGET):
        self.offspring = offspring
        self.seed = int(seed)
        self.node_budget = node_budget
        self._salts = _child_salts(offspring.alphabet_size)
        self._children = {}
        self.nodes_sampled = 0

    def key(self, word):
        """Stream key of the node `word`: the root's, then one `child_key` per letter."""
        k = root_key(self.seed)
        for a in word:
            k = child_key(k, a)
        return k

    def _walk(self, keys, rel_depth):
        """Vectorized breadth-first walk below the roots with stream keys `keys`.

        Each step samples one level and yields (rows, letters, keys): keys
        are the stream keys of the level's nodes, in order; rows and letters
        have one entry per child, grouped by parent and ascending within
        one, and give the index of its parent in the level and its letter.
        A child's stream key is `_child_keys(keys, rows, letters)`; the walk
        mixes them only to take its next step, so a caller mixes the last
        level's keys, or only the ones it reads.  The walk counts its nodes
        against `node_budget` on top of `nodes_sampled`; callers add the
        nodes they use to that counter.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        n = self.offspring.alphabet_size
        walked, count = self.nodes_sampled, len(keys)
        for lvl in range(rel_depth):
            if count == 0:
                return
            walked += count
            self._charge(walked, lvl)  # before the level's keys and draw are allocated
            if lvl:
                keys = self._child_keys(keys, rows, letters)
            rows, letters = np.divmod(np.flatnonzero(self.offspring.sample_matrix(keys)), n)
            count = len(rows)
            yield rows, letters, keys

    def _child_keys(self, keys, rows, letters):
        """Stream keys of the children `letters` of the nodes with stream
        keys keys[rows]: `child_key`, vectorized."""
        return _mix64_inplace(keys[rows] ^ self._salts[letters])

    def _charge(self, walked, lvl):
        """The `node_budget` guard, before a walk's level `lvl` is drawn: `walked`
        is `nodes_sampled` plus the walk's nodes through level `lvl`."""
        if walked > self.node_budget:
            raise ResourceLimitError(
                "lazy sampling exceeded node budget at relative depth %d" % lvl,
                partial=lvl,
            )

    def _level(self, keys, rel_depth):
        """The nodes `rel_depth` levels below each root with stream key in `keys`.

        Returns (codes, keys, bounds, nodes).  Root i's nodes are codes[b:e]
        and keys[b:e] with b, e = bounds[i], bounds[i+1]: their packed codes
        relative to the root, ascending (big-endian base-alphabet integers,
        first letter most significant, so `symbolic.block_letters` recovers
        the letters), and their stream keys.  nodes[i] counts the nodes
        sampled below root i to reach them; `nodes_sampled` is left as it is.
        """
        n = self.offspring.alphabet_size
        keys = np.asarray(keys, dtype=np.uint64)
        codes = np.zeros(len(keys), dtype=np.int64)
        bounds = np.arange(len(keys) + 1)
        nodes = np.zeros(len(keys), dtype=np.int64)
        level_keys = None
        for rows, letters, level_keys in self._walk(keys, rel_depth):
            nodes += np.diff(bounds)
            codes = codes[rows] * n + letters
            # the children of root i's nodes sit at bounds[i]:bounds[i+1] of the new level
            bounds = np.searchsorted(rows, bounds)
        if level_keys is not None:
            keys = self._child_keys(level_keys, rows, letters)
        return codes, keys, bounds, nodes

    def children(self, word):
        word = Word(word)
        cs = self._children.get(word)
        if cs is None:
            _, letters, _ = next(self._walk([self.key(word)], 1))
            self.nodes_sampled += 1
            cs = frozenset(letters.tolist())
            self._children[word] = cs
        return cs

    def expand(self, word, rel_depth):
        """Materialize the subtree below `word` to a relative depth (vectorized).

        The walk yields each level in lexicographic order, which is the order
        `FiniteTree` stores; levels past an extinction stay empty.
        """
        empty = np.zeros(0, dtype=np.int64)
        letters, parents = [None] + [empty] * rel_depth, [None] + [empty] * rel_depth
        walk = self._walk([self.key(word)], rel_depth)
        for n, (rows, kids, level) in enumerate(walk, 1):
            self.nodes_sampled += len(level)
            letters[n] = kids
            parents[n] = rows
        return FiniteTree._of(self.offspring.alphabet_size, rel_depth, letters, parents)

    def level_codes(self, word, rel_depth):
        """Packed codes, ascending, of the relative words alive at depth `rel_depth`.

        The one-root case of `_level`.
        """
        codes, _, _, nodes = self._level([self.key(word)], rel_depth)
        self.nodes_sampled += int(nodes[0])
        return codes


def sample_gw(offspring, depth, seed, node_budget=DEFAULT_NODE_BUDGET):
    """Sample a Galton-Watson tree to the given depth, deterministically in seed."""
    depth = int(depth)
    if depth < 1:
        raise InvalidInputError("depth must be >= 1")
    lazy = LazyGW(offspring, seed, node_budget=node_budget)
    tree = lazy.expand(Word(), depth)
    return GWSample(tree, tree.extinct_level())


# ---------------------------------------------------------------------------
# extinction and diagnostics


def pgf(offspring, s):
    return offspring.pgf(float(s))


def extinction_prob(offspring):
    """Smallest fixed point of the offspring pgf, enclosed as `smallest_fixed_point`
    does, to within 1e-12."""
    pmf = offspring.size_pmf()
    if len(pmf) > 1 and abs(pmf[1] - 1.0) < 1e-15:
        return 0.0  # one child always: the line never dies
    if offspring.mean() <= 1.0:
        return 1.0
    from .fixpoint import _GRID, _enclose  # fixpoint imports this module
    return _enclose(offspring.pgf, [offspring.pgf(s) for s in _GRID], 1e-12, 10_000_000, 1024)[1]


def _population_step(offspring, z, rng):
    """One generation of total population counts, vectorized over trials."""
    if isinstance(offspring, Binomial):
        return rng.binomial(z * offspring.n, offspring.p)
    if isinstance(offspring, PerLetterBernoulli):
        out = np.zeros_like(z)
        for p in offspring.probs:
            out += rng.binomial(z, p)
        return out
    if isinstance(offspring, ExplicitTable):
        out = np.zeros_like(z)
        remaining = z.copy()
        cum = 1.0
        for (sub, pr) in offspring.rows[:-1]:
            take = rng.binomial(remaining, min(1.0, pr / cum))
            out += take * len(sub)
            remaining -= take
            cum -= pr
        out += remaining * len(offspring.rows[-1][0])
        return out
    raise InvalidInputError("unsupported offspring type for population simulation")


def mc_extinction_frequency(offspring, depth, trials, seed):
    """Monte-Carlo frequency of dying out by `depth`, via exact population counts.

    Populations above `cap` = 10^8 individuals are frozen as survivors; the
    neglected extinction mass is below q^cap, far under any tolerance in use.
    """
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    if depth < 0:
        raise InvalidInputError("depth must be >= 0")
    cap = 100_000_000
    rng = np.random.Generator(np.random.Philox(key=labeled_seed(seed, "mcext")))
    z = np.ones(trials, dtype=np.int64)
    for _ in range(depth):
        active = (z > 0) & (z < cap)
        if not active.any():
            break
        znew = _population_step(offspring, z[active], rng)
        z[active] = np.minimum(znew, cap)
    freq = float(np.mean(z == 0))
    se = math.sqrt(max(freq * (1.0 - freq), 1e-300) / trials)
    return {"frequency": freq, "se": se, "trials": trials, "depth": depth}
