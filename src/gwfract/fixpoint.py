"""Monotone collections of child sets, the no-good-subtree generating function
g(s) = P(thinned child set outside the closed collection), and smallest-fixed-point
solvers built on it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom as _binom
from scipy.stats import norm as _norm

from .branching import (
    Binomial,
    ExplicitTable,
    PerLetterBernoulli,
    _GAMMA,
    _child_keys_vec,
    labeled_seed,
    mix64_vec,
)
from .symbolic import (
    CapabilityError,
    InvalidInputError,
    Word,
    section_pi_rho,
)


class MonotoneCollection:
    """Upward-closed family of label sets, given by generators or an oracle.

    `generators` generate the closure by taking supersets; alternatively
    `member` is an oracle for the closure itself (declared monotone by the
    caller, spot-checkable with `monotonicity_violations`).
    """

    def __init__(self, generators=None, member=None, kind="custom", card_a=None,
                 declared_monotone=True):
        if generators is None and member is None and card_a is None:
            raise InvalidInputError("need generators, an oracle, or a cardinality bound")
        self.kind = kind
        self.card_a = card_a
        self.member = member
        self.declared_monotone = bool(declared_monotone)
        if generators is not None:
            gens = []
            seen = set()
            for g in generators:
                fs = frozenset(int(x) for x in g)
                if fs not in seen:
                    seen.add(fs)
                    gens.append(fs)
            self.generators = tuple(gens)
        else:
            self.generators = None

    @property
    def trivial_all(self):
        """True when the empty set already belongs to the closure."""
        if self.card_a is not None:
            return self.card_a <= 0
        if self.generators is not None:
            return any(len(g) == 0 for g in self.generators)
        return bool(self.member(frozenset()))

    def closure_member(self, S):
        S = frozenset(int(x) for x in S)
        if self.card_a is not None:
            return len(S) >= self.card_a
        if self.generators is not None:
            return any(g <= S for g in self.generators)
        return bool(self.member(S))

    def monotonicity_violations(self, alphabet_size, samples=200, seed=0):
        """Sampled check that membership survives adding elements."""
        rng = np.random.Generator(np.random.Philox(key=labeled_seed(seed, "monochk")))
        bad = []
        for _ in range(samples):
            small = frozenset(np.nonzero(rng.random(alphabet_size) < 0.5)[0].tolist())
            extra = frozenset(np.nonzero(rng.random(alphabet_size) < 0.5)[0].tolist())
            big = small | extra
            if self.closure_member(small) and not self.closure_member(big):
                bad.append((small, big))
        return bad


def ary_collection(a):
    """Collection generated by all child sets of size exactly a."""
    a = int(a)
    if a < 0:
        raise InvalidInputError("arity must be >= 0")
    return MonotoneCollection(kind="ary", card_a=a)


def generator_collection(sets):
    return MonotoneCollection(generators=sets, kind="generators")


def collection_from_json(doc):
    import json

    if isinstance(doc, str):
        doc = json.loads(doc)
    kind = doc.get("kind")
    if kind == "ary":
        return ary_collection(doc["a"])
    if kind == "generators":
        return generator_collection(doc["sets"])
    if kind == "diffuse_block":
        from .extraction import diffuse_block_collection

        return diffuse_block_collection(doc["b"], doc["k"], d=doc.get("d", 2))
    raise InvalidInputError("unknown collection kind %r" % (kind,))


def closure_member(collection, S):
    return collection.closure_member(S)


def _nonmember_rows(collection, S):
    """Row-wise indicator of NOT belonging to the closure; S is a bool matrix."""
    R, N = S.shape
    if collection.trivial_all:
        return np.zeros(R, dtype=bool)
    if collection.card_a is not None:
        return S.sum(axis=1) < collection.card_a
    if collection.generators is not None:
        hit = np.zeros(R, dtype=bool)
        for g in collection.generators:
            idx = sorted(g)
            if idx and idx[-1] >= N:
                continue  # generator mentions labels outside this alphabet
            hit |= S[:, idx].all(axis=1) if idx else True
        return ~hit
    out = np.empty(R, dtype=bool)
    for r in range(R):
        out[r] = not collection.closure_member(frozenset(np.nonzero(S[r])[0].tolist()))
    return out


class GFunction:
    """Evaluator for g(s) = P(thinned offspring set outside the closed collection).

    strategy: "auto" | "closed_form" | "enum" | "mc". Closed form needs binomial
    offspring and a cardinality collection; enumeration needs alphabet size <= 20;
    Monte Carlo always applies and reports a confidence interval.
    """

    ENUM_MAX = 20

    def __init__(self, offspring, collection, strategy="auto", sample_size=100_000,
                 ci_level=0.99, seed=0):
        self.offspring = offspring
        self.collection = collection
        self.N = offspring.alphabet_size
        self.sample_size = int(sample_size)
        self.ci_level = float(ci_level)
        self.seed = int(seed)
        self._W = None
        self._U = None
        self._member_arr = None
        self._table_poly = None
        self.strategy = self._resolve(strategy)

    def _resolve(self, strategy):
        if self.collection.trivial_all:
            return "trivial"
        can_closed = isinstance(self.offspring, Binomial) and self.collection.card_a is not None
        if strategy == "auto":
            if can_closed:
                return "closed_form"
            if self.N <= self.ENUM_MAX:
                return "enum"
            if self.collection.card_a is not None or self.collection.generators is not None:
                return "mc"
            return "mc"
        if strategy == "closed_form":
            if not can_closed:
                raise CapabilityError(
                    "closed form needs binomial offspring and a cardinality collection"
                )
            return strategy
        if strategy == "enum":
            if self.N > self.ENUM_MAX:
                raise CapabilityError(
                    "enumeration needs alphabet size <= %d, got %d" % (self.ENUM_MAX, self.N)
                )
            return strategy
        if strategy == "mc":
            return strategy
        raise InvalidInputError("unknown strategy %r" % (strategy,))

    # -- enumeration tables -------------------------------------------------

    def _member_array(self):
        """Closure membership over all 2^N subsets, encoded as bitmask ids."""
        if self._member_arr is not None:
            return self._member_arr
        ids = np.arange(1 << self.N, dtype=np.uint32)
        if self.collection.generators is not None:
            member = np.zeros(len(ids), dtype=bool)
            for g in self.collection.generators:
                if g and max(g) >= self.N:
                    continue
                gm = np.uint32(sum(1 << x for x in g))
                member |= (ids & gm) == gm
        else:
            member = np.empty(len(ids), dtype=bool)
            for m in range(len(ids)):
                member[m] = self.collection.closure_member(
                    frozenset(i for i in range(self.N) if (m >> i) & 1)
                )
        self._member_arr = member
        return member

    def _table_polys(self):
        """Per-row counts of non-member kept-subsets, grouped by size."""
        if self._table_poly is not None:
            return self._table_poly
        member = self._member_array()
        ids = np.arange(1 << self.N, dtype=np.uint32)
        pops = np.bitwise_count(ids)
        polys = []
        for sub, pr in self.offspring.rows:
            rowmask = np.uint32(sum(1 << x for x in sub))
            inside = (ids & ~rowmask) == 0
            sel = inside & ~member
            counts = np.bincount(pops[sel].astype(int), minlength=len(sub) + 1)
            polys.append((len(sub), pr, counts[: len(sub) + 1].astype(float)))
        self._table_poly = polys
        return polys

    # -- monte carlo storage ------------------------------------------------

    def ensure_samples(self, n):
        """Draw (or re-draw) the shared sample block of at least n trials."""
        n = int(n)
        if self._W is not None and self._W.shape[0] >= n:
            return
        self.sample_size = max(self.sample_size, n)
        rng = np.random.Generator(np.random.Philox(key=labeled_seed(self.seed, "gfn-mc")))
        keys = rng.integers(0, 1 << 63, size=self.sample_size, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
        self._W = self.offspring.sample_matrix(keys)
        self._U = rng.random((self.sample_size, self.N))

    # -- evaluation ---------------------------------------------------------

    def eval(self, s):
        """Returns (value, ci); ci is None for exact strategies."""
        s = float(s)
        if not (0.0 <= s <= 1.0):
            raise InvalidInputError("s must lie in [0,1]")
        if self.strategy == "trivial":
            return 0.0, None
        if self.strategy == "closed_form":
            a = self.collection.card_a
            q = self.offspring.p * (1.0 - s)
            return float(_binom.cdf(a - 1, self.offspring.n, q)), None
        if self.strategy == "enum":
            return self._eval_enum(s), None
        return self._eval_mc(s)

    def _eval_enum(self, s):
        off = self.offspring
        a = self.collection.card_a
        if a is not None:
            if isinstance(off, Binomial):
                return float(_binom.cdf(a - 1, off.n, off.p * (1.0 - s)))
            if isinstance(off, PerLetterBernoulli):
                pmf = np.array([1.0])
                for p in off.probs:
                    q = p * (1.0 - s)
                    pmf = np.convolve(pmf, [1.0 - q, q])
                return float(pmf[:a].sum())
            if isinstance(off, ExplicitTable):
                tot = 0.0
                for sub, pr in off.rows:
                    tot += pr * float(_binom.cdf(a - 1, len(sub), 1.0 - s))
                return tot
        member = self._member_array()
        if isinstance(off, Binomial):
            pops = np.bitwise_count(np.arange(1 << self.N, dtype=np.uint32))
            na = np.bincount(pops[~member].astype(int), minlength=self.N + 1)
            q = off.p * (1.0 - s)
            per_set = np.array(
                [q ** j * (1.0 - q) ** (self.N - j) for j in range(self.N + 1)]
            )
            return float((na[: self.N + 1] * per_set).sum())
        if isinstance(off, PerLetterBernoulli):
            w = np.array([1.0])
            for p in off.probs:
                q = p * (1.0 - s)
                w = np.concatenate([w * (1.0 - q), w * q])
            return float(w[~member].sum())
        if isinstance(off, ExplicitTable):
            tot = 0.0
            for n_r, pr, counts in self._table_polys():
                keep = 1.0 - s
                js = np.arange(n_r + 1)
                tot += pr * float((counts * keep ** js * s ** (n_r - js)).sum())
            return tot
        raise CapabilityError("enumeration not available for this offspring type")

    def _eval_mc(self, s):
        self.ensure_samples(self.sample_size)
        S = self._W & (self._U >= s)
        bad = _nonmember_rows(self.collection, S)
        v = float(bad.mean())
        R = len(bad)
        z = _norm.ppf(0.5 + self.ci_level / 2.0)
        half = z * math.sqrt(max(v * (1.0 - v), 1e-300) / R)
        return v, (max(0.0, v - half), min(1.0, v + half))

    def sigma(self, s):
        if self.strategy != "mc":
            return 0.0
        v, ci = self.eval(s)
        z = _norm.ppf(0.5 + self.ci_level / 2.0)
        return (ci[1] - ci[0]) / (2.0 * z)


class FunctionG:
    """Adapter presenting a plain exact callable as a g-evaluator."""

    strategy = "function"

    def __init__(self, fn):
        self.fn = fn

    def eval(self, s):
        return float(self.fn(float(s))), None


def g_eval(gf, s):
    return gf.eval(s)


def _validate_monotone_grid(gf):
    vals = []
    for s in np.linspace(0.0, 1.0, 21):
        v, _ = gf.eval(float(s))
        vals.append(v)
    for lo, hi in zip(vals, vals[1:]):
        if hi < lo - 1e-12:
            raise InvalidInputError(
                "g is not nondecreasing on the validation grid (%.6g -> %.6g)" % (lo, hi)
            )
    return vals


def smallest_fixed_point(gf, tol=1e-10, max_iter=100_000):
    """Iterate q <- g(q) from 0; returns s0, tau = 1 - s0, and diagnostics.

    Monte-Carlo evaluators share one sample block across iterates, so the
    empirical g is a genuine nondecreasing step function and the loop
    terminates; the reported interval then reflects sampling error.
    """
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    if getattr(gf, "strategy", None) == "trivial":
        return {"s0": 0.0, "tau": 1.0, "iterations": 0, "iterates": [],
                "converged": True, "method": "trivial", "ci": None}
    is_mc = getattr(gf, "strategy", None) == "mc"
    if is_mc:
        gf.ensure_samples(100_000)  # noise floor control for the iteration
    grid = _validate_monotone_grid(gf)
    if grid[-1] < 1.0 - 1e-9 and not is_mc:
        raise InvalidInputError("g(1) = %.12g, expected 1" % grid[-1])

    q = 0.0
    iterates = []
    steps = 0
    converged = False
    sigma = 0.0
    for steps in range(1, max_iter + 1):
        v, ci = gf.eval(q)
        if ci is not None:
            z = _norm.ppf(0.5 + gf.ci_level / 2.0)
            sigma = (ci[1] - ci[0]) / (2.0 * z)
        if len(iterates) < 1000:
            iterates.append(v)
        delta = abs(v - q)
        q = v
        if delta < max(tol, 3.0 * sigma):
            converged = True
            break
    out = {
        "s0": q,
        "tau": 1.0 - q,
        "iterations": steps,
        "iterates": iterates,
        "converged": converged,
        "method": getattr(gf, "strategy", "function"),
        "ci": None,
    }
    if is_mc:
        # delta method: noise in g is amplified by 1/(1-slope) at the fixed point
        h = max(0.01, 5.0 * sigma)
        lo_v = gf.eval(max(0.0, q - h))[0]
        hi_v = gf.eval(min(1.0, q + h))[0]
        slope = (hi_v - lo_v) / (min(1.0, q + h) - max(0.0, q - h))
        amp = 1.0 / (1.0 - min(slope, 0.95))
        out["slope"] = slope
        out["ci"] = (max(0.0, q - 3.0 * sigma * amp), min(1.0, q + 3.0 * sigma * amp))
    if not converged:
        # bracket: the iterate is a lower bound; scan up for a point with g <= s
        cell = _first_crossing_cell(gf, q, 1.0, 1024)
        out["interval"] = (q, cell[1] if cell else 1.0)
    return out


def _first_crossing_cell(gf, lo, hi, steps):
    """First subinterval of [lo,hi] where g(s) - s changes sign to <= 0.

    Below the smallest fixed point g(s) > s strictly, so the first such cell
    contains it; later crossings (g can recross the diagonal) are ignored.
    """
    grid = np.linspace(lo, hi, steps + 1)
    prev = grid[0]
    for x in grid[1:]:
        if gf.eval(float(x))[0] <= x:
            return float(prev), float(x)
        prev = x
    return None


def smallest_fixed_point_bisect(gf, tol=1e-12, scan_steps=1024):
    """Cross-check: locate the first diagonal crossing of g by scan + bisection."""
    if gf.eval(0.0)[0] <= 0.0:
        return 0.0
    cell = _first_crossing_cell(gf, 0.0, 1.0, scan_steps)
    if cell is None:
        return 1.0
    lo, hi = cell
    for _ in range(10_000):
        mid = 0.5 * (lo + hi)
        if gf.eval(mid)[0] <= mid:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return hi


# ---------------------------------------------------------------------------
# level-count curve


def _poly_mul_trunc(a, b, L):
    if len(a) + len(b) - 1 <= 1024:
        out = np.convolve(a, b)
    else:
        from scipy.signal import fftconvolve

        out = np.clip(fftconvolve(a, b), 0.0, None)
    return out[:L]


def _binomial_of_poly(h, n, p, L):
    """(1 - p + p*h(t))^n truncated to L coefficients."""
    base = p * np.asarray(h, dtype=float)[:L].copy()
    if len(base) == 0:
        base = np.zeros(1)
    base[0] += 1.0 - p
    result = np.ones(1)
    power = base
    e = n
    while e:
        if e & 1:
            result = _poly_mul_trunc(result, power, L)
        e >>= 1
        if e:
            power = _poly_mul_trunc(power, power, L)
    return result


def g_k_a_curve(offspring, k, a_k, s, trials=100_000, seed=0):
    """P(count of thinning survivors at level k is below a_k).

    Exact for binomial offspring with k <= 6 via truncated pgf composition
    (truncation below a_k is lossless for the tail being summed); otherwise a
    flagged Monte-Carlo estimate from population counts.
    """
    k = int(k)
    a_k = int(a_k)
    s = float(s)
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if not (0.0 <= s < 1.0):
        raise InvalidInputError("s must lie in [0,1)")
    if a_k <= 0:
        return {"value": 0.0, "method": "exact", "flagged": False, "k": k, "a_k": a_k, "s": s}
    N = offspring.alphabet_size
    if N ** k < a_k:
        return {"value": 1.0, "method": "exact", "flagged": False, "k": k, "a_k": a_k, "s": s}

    # cost of the truncated composition is governed by a_k, not N^k
    if isinstance(offspring, Binomial) and (k <= 6 or a_k <= 4096):
        p = offspring.p
        q = p * (1.0 - s)
        L = min(a_k, N ** k + 1)
        h = np.array([_binom.pmf(j, N, q) for j in range(min(N, L - 1) + 1)])
        for _ in range(k - 1):
            h = _binomial_of_poly(h, N, p, L)
        value = float(h[:a_k].sum())
        return {"value": min(value, 1.0), "method": "exact", "flagged": False,
                "k": k, "a_k": a_k, "s": s}

    # flagged fallback: exact-law population counts, then binomial thinning
    from .branching import _population_step

    rng = np.random.Generator(np.random.Philox(key=labeled_seed(seed, "gka")))
    cap = 1_000_000_000
    z = np.ones(int(trials), dtype=np.int64)
    capped = np.zeros(int(trials), dtype=bool)
    for _ in range(k):
        active = (z > 0) & ~capped
        if active.any():
            z[active] = _population_step(offspring, z[active], rng)
            newly = z > cap
            capped |= newly
            z[newly] = cap
    survivors = np.zeros(int(trials), dtype=np.int64)
    alive = z > 0
    if alive.any():
        survivors[alive] = rng.binomial(z[alive], 1.0 - s)
    below = (survivors < a_k) & ~capped  # capped populations cannot thin below a_k
    v = float(below.mean())
    se = math.sqrt(max(v * (1.0 - v), 1e-300) / trials)
    return {"value": v, "se": se, "ci": (max(0.0, v - 3 * se), min(1.0, v + 3 * se)),
            "method": "mc", "flagged": True,
            "flag_reason": "exact path needs binomial offspring and k <= 6",
            "k": k, "a_k": a_k, "s": s}


# ---------------------------------------------------------------------------
# section-compressed sup


def _section_survival_given(offspring, section, root_keys):
    """Bool matrix (len(root_keys) x section size): which section words survive."""
    trials = len(root_keys)
    words = sorted(section.sorted_words(), key=lambda w: (len(w), w))
    closure = set()
    for w in words:
        for i in range(len(w) + 1):
            closure.add(Word(w[:i]))
    order = sorted(closure, key=lambda w: (len(w), w))
    alive = {Word(): np.ones(trials, dtype=bool)}
    keys = {Word(): np.asarray(root_keys, dtype=np.uint64)}
    keep_cache = {}
    for w in order:
        if len(w) == 0:
            continue
        par = w.parent
        if par not in keep_cache:
            keep_cache[par] = offspring.sample_matrix(keys[par])
        alive[w] = alive[par] & keep_cache[par][:, w[-1]]
        keys[w] = _child_keys_vec(keys[par], np.full(trials, w[-1], dtype=np.uint64))
    cols = [alive[w] for w in section.sorted_words()]
    return np.column_stack(cols) if cols else np.zeros((trials, 0), dtype=bool)


def _section_survival(offspring, section, trials, seed):
    """Bool matrix (trials x section size): which section words are reached."""
    base = np.uint64(labeled_seed(seed, "starsec"))
    offs = np.arange(1, trials + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    return _section_survival_given(offspring, section, mix64_vec(base + offs))


def _star_g_for_a(weights, rho, offspring, predicate_family, s, a, trials, seed):
    """Monte-Carlo g for one realized scale factor a."""
    section = section_pi_rho(weights, rho / a, extended=True)
    coll = predicate_family(a, section) if callable(predicate_family) else predicate_family
    label = "star:%.9f" % round(a, 9)
    sub = labeled_seed(seed, label)
    S = _section_survival(offspring, section, trials, sub)
    rng = np.random.Generator(np.random.Philox(key=labeled_seed(sub, "thin")))
    kept = S & (rng.random(S.shape) >= s)
    bad = _nonmember_rows(coll, kept)
    v = float(bad.mean())
    se = math.sqrt(max(v * (1.0 - v), 1e-300) / trials)
    return v, se, section


def star_sup_g(weights, rho, offspring, predicate_family, s, height_cap=4,
               trials=10_000, seed=0):
    """Max of g over the distinct scale factors realized up to height_cap.

    Nodes of the section-compressed tree carry a factor a = weight / rho^height
    in (r_min, 1]; the child law below a node depends on the node only through
    a, so distinct factors are enumerated breadth-first with witnesses and g is
    evaluated once per factor.
    """
    rho = float(rho)
    if not (0.0 < rho < weights.r_min):
        raise InvalidInputError("rho must lie in (0, r_min)")
    if not (0.0 <= s <= 1.0):
        raise InvalidInputError("s must lie in [0,1]")
    if offspring.alphabet_size != len(weights.ratios):
        raise InvalidInputError("offspring alphabet and weights disagree")

    seen = []  # (a, witness word, height)

    def _find(a):
        for j, (a0, _, _) in enumerate(seen):
            if abs(a - a0) <= 1e-9 * max(a, a0):
                return j
        return -1

    seen.append((1.0, Word(), 0))
    frontier = [(1.0, Word())]
    for h in range(1, int(height_cap) + 1):
        nxt = []
        for a, wit in frontier:
            sec = section_pi_rho(weights, rho / a, extended=True)
            for j in sec.sorted_words():
                a2 = a * weights.weight(j) / rho
                if _find(a2) < 0:
                    seen.append((a2, wit.cat(j), h))
                    nxt.append((a2, wit.cat(j)))
        frontier = nxt

    per_a = []
    best = None
    for a, wit, h in seen:
        v, se, section = _star_g_for_a(
            weights, rho, offspring, predicate_family, s, a, trials, seed
        )
        entry = {"a": a, "g": v, "se": se, "height": h,
                 "witness_word": wit, "section_size": len(section.sorted_words())}
        per_a.append(entry)
        if best is None or v > best["g"]:
            best = entry
    per_a.sort(key=lambda e: e["a"])
    return {"sup": best["g"], "witness": best, "per_a": per_a,
            "height_cap": int(height_cap), "trials": int(trials)}


# ---------------------------------------------------------------------------
# two-child gap fixture


def appendix_b_gap(p, eps, trials=100_000, seed=0):
    """Root law with a rare second child: its no-pair probability after
    thinning at q sits strictly above q, so the smallest fixed point
    overshoots the true failure probability.  Returns the exact pair
    (q, g(q)) and Monte-Carlo confirmations.
    """
    p = float(p)
    eps = float(eps)
    base = Binomial(3, p)
    gf = GFunction(base, ary_collection(2), strategy="closed_form")
    sol = smallest_fixed_point(gf, tol=1e-13)
    alpha = sol["tau"]
    if alpha <= 1e-9:
        raise InvalidInputError("pair subtrees have probability 0 at p=%.3g; increase p" % p)
    if not (0.0 <= eps <= 1.0 - alpha):
        raise InvalidInputError("eps must lie in [0, 1-alpha] = [0, %.6g]" % (1.0 - alpha))
    q = 1.0 - alpha
    g_of_q = 1.0 - ((alpha + eps) * alpha ** 2)
    gap = g_of_q - q  # = alpha*(1 - (alpha+eps)*alpha) > 0
    assert gap > 0.0

    # direct draw of the thinned root child set: keep probability is 1-q = alpha
    rng = np.random.Generator(np.random.Philox(key=labeled_seed(seed, "gapfix")))
    two = rng.random(trials) < alpha + eps
    kept1 = rng.random(trials) < alpha
    kept2 = (rng.random(trials) < alpha) & two
    survivors = kept1.astype(np.int64) + kept2.astype(np.int64)
    g_est = float((survivors < 2).mean())
    g_se = math.sqrt(max(g_est * (1.0 - g_est), 1e-300) / trials)

    mc_gf = GFunction(base, ary_collection(2), strategy="mc",
                      sample_size=max(trials, 100_000), seed=labeled_seed(seed, "gapq"))
    mc_sol = smallest_fixed_point(mc_gf, tol=1e-6)

    return {
        "p": p, "eps": eps, "alpha": alpha,
        "q": q, "g_of_q": g_of_q, "gap": gap,
        "mc_g_of_q": g_est, "mc_g_se": g_se,
        "mc_q": mc_sol["s0"], "mc_q_ci": mc_sol["ci"],
        "trials": int(trials),
    }
