"""Monotone collections of child sets, the no-good-subtree generating function
g(s) = P(thinned child set outside the closed collection), and the
smallest-fixed-point solver built on it.
"""

from __future__ import annotations

import math

import numpy as np

from .branching import (
    Binomial,
    ExplicitTable,
    PerLetterBernoulli,
    binom_cdf,
    binom_pmf,
    labeled_seed,
    norm_ppf,
)
from .symbolic import CapabilityError, InvalidInputError


class MonotoneCollection:
    """Upward-closed family of label sets: every set of at least `card_a`
    labels, or every superset of one of `generators`.  Both forms are upward
    closed by construction.
    """

    def __init__(self, generators=None, card_a=None):
        if generators is None and card_a is None:
            raise InvalidInputError("need generators or a cardinality bound")
        self.card_a = card_a
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
        return any(len(g) == 0 for g in self.generators)

    def closure_member(self, S):
        S = frozenset(int(x) for x in S)
        if self.card_a is not None:
            return len(S) >= self.card_a
        return any(g <= S for g in self.generators)


def ary_collection(a):
    """Collection generated by all child sets of size exactly a."""
    a = int(a)
    if a < 0:
        raise InvalidInputError("arity must be >= 0")
    return MonotoneCollection(card_a=a)


def generator_collection(sets):
    return MonotoneCollection(generators=sets)


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


def _member_thresholds(collection, W, U):
    """Per row, the largest s at which the kept set {i : W[i] and U[i] >= s}
    lies in the closure: +inf when the empty set does, -1 when not even all of
    W does.  The closure is upward closed, so a row misses it at s exactly
    when its threshold is below s: the a-th largest kept U for `card_a`, else
    the best generator's smallest U."""
    R, N = W.shape
    if collection.trivial_all:
        return np.full(R, np.inf)
    V = np.where(W, U, -1.0)
    a = collection.card_a
    if a is not None:
        return np.partition(V, N - a, axis=1)[:, N - a] if a <= N else np.full(R, -1.0)
    t = np.full(R, -1.0)
    for g in collection.generators:
        if max(g) < N:  # else it mentions labels outside this alphabet
            np.maximum(t, V[:, sorted(g)].min(axis=1), out=t)
    return t


class GFunction:
    """Evaluator for g(s) = P(thinned offspring set outside the closed collection).

    strategy: "auto" | "closed_form" | "enum" | "mc"; a collection holding the
    empty set resolves to "trivial" (g = 0) whatever is asked.  Closed form
    needs binomial offspring and a cardinality collection; enumeration needs
    alphabet size <= 20 and tabulates the subsets outside the closure; Monte
    Carlo always applies and reports a confidence interval.  Its block of
    `sample_size` samples is drawn on first use and kept as one sorted
    membership threshold per sample (`_member_thresholds`), so each g(s) is a
    binary search.
    """

    ENUM_MAX = 20
    MC_BLOCK = 1 << 12  # rows drawn and reduced at a time
    CI_LEVEL = 0.99  # two-sided level of the Monte-Carlo confidence interval

    def __init__(self, offspring, collection, strategy="auto", sample_size=100_000, seed=0):
        self.offspring = offspring
        self.collection = collection
        self.N = offspring.alphabet_size
        self.sample_size = int(sample_size)
        if self.sample_size < 1:
            raise InvalidInputError("sample_size must be at least 1")
        self.seed = int(seed)
        self._thresholds = None
        self._nonmember = None  # with `_na`, set by _nonmembers
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

    def _nonmembers(self):
        """Ascending ids of the nonmembers (bitmask sets), each one's index less
        its top letter, and the counts below 2^0..2^N; caches `_na`, the counts
        by size.  Those below 2^(i+1) are those below 2^i, then those plus letter
        i holding no generator whose top letter is i: no 2^N-long table."""
        if self._nonmember is not None:
            return self._nonmember
        ids, parent, ends = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.intp), [1]
        for i in range(self.N):
            up = ids + (1 << i)
            keep = np.ones(len(up), dtype=bool)
            for g in self.collection.generators:
                if max(g) == i:
                    gm = sum(1 << x for x in g)
                    keep &= (up & gm) != gm
            rows = np.flatnonzero(keep)
            ids, parent = np.concatenate([ids, up[rows]]), np.concatenate([parent, rows])
            ends.append(len(ids))
        self._nonmember = ids, parent, ends
        self._na = np.bincount(np.bitwise_count(ids), minlength=self.N + 1)
        return self._nonmember

    def _table_polys(self):
        """Per-row counts of non-member kept-subsets, grouped by size."""
        if self._table_poly is not None:
            return self._table_poly
        ids = self._nonmembers()[0]
        pops = np.bitwise_count(ids)
        polys = []
        for sub, pr in self.offspring.rows:
            inside = (ids & ~sum(1 << x for x in sub)) == 0
            counts = np.bincount(pops[inside], minlength=len(sub) + 1)
            polys.append((len(sub), pr, counts[: len(sub) + 1].astype(float)))
        self._table_poly = polys
        return polys

    # -- monte carlo storage ------------------------------------------------

    def _draw_thresholds(self):
        """The sorted thresholds of `sample_size` samples.  Child sets W and
        thinning uniforms U are drawn in row blocks of MC_BLOCK (the same
        stream as one draw) and reduced block by block into one array, sorted
        in place: only the keys and the thresholds are ever held whole."""
        rng = np.random.Generator(np.random.Philox(key=labeled_seed(self.seed, "gfn-mc")))
        keys = rng.integers(0, 1 << 63, size=self.sample_size, dtype=np.uint64)
        keys *= np.uint64(2)
        keys += np.uint64(1)
        t = np.empty(self.sample_size)
        for lo in range(0, self.sample_size, self.MC_BLOCK):
            kb = keys[lo:lo + self.MC_BLOCK]
            t[lo:lo + len(kb)] = _member_thresholds(
                self.collection, self.offspring.sample_matrix(kb), rng.random((len(kb), self.N)))
        t.sort()
        return t

    # -- evaluation ---------------------------------------------------------

    def eval(self, s):
        """Returns (value, ci); ci is None for exact strategies."""
        s = float(s)
        if not (0.0 <= s <= 1.0):
            raise InvalidInputError("s must lie in [0,1]")
        if self.strategy == "trivial":
            return 0.0, None
        if self.strategy in ("closed_form", "enum"):
            return self._eval_enum(s), None
        return self._eval_mc(s)

    def _eval_enum(self, s):
        off = self.offspring
        a = self.collection.card_a
        if a is not None:
            if isinstance(off, Binomial):
                return binom_cdf(a - 1, off.n, off.p * (1.0 - s))
            if isinstance(off, PerLetterBernoulli):
                pmf = np.array([1.0])
                for p in off.probs:
                    q = p * (1.0 - s)
                    pmf = np.convolve(pmf, [1.0 - q, q])
                return float(pmf[:a].sum())
            if isinstance(off, ExplicitTable):
                tot = 0.0
                for sub, pr in off.rows:
                    tot += pr * binom_cdf(a - 1, len(sub), 1.0 - s)
                return tot
        if isinstance(off, Binomial):
            self._nonmembers()  # caches _na
            q = off.p * (1.0 - s)
            per_set = np.array(
                [q ** j * (1.0 - q) ** (self.N - j) for j in range(self.N + 1)]
            )
            return float((self._na * per_set).sum())
        if isinstance(off, PerLetterBernoulli):
            _, parent, ends = self._nonmembers()
            w = np.empty(len(parent))
            w[0] = 1.0
            for p, lo, hi in zip(off.probs, ends, ends[1:]):  # doubling, over nonmembers only
                q = p * (1.0 - s)
                np.multiply(w[parent[lo:hi]], q, out=w[lo:hi])
                w[:lo] *= 1.0 - q
            return float(w.sum())
        if isinstance(off, ExplicitTable):
            tot = 0.0
            for n_r, pr, counts in self._table_polys():
                keep = 1.0 - s
                js = np.arange(n_r + 1)
                tot += pr * float((counts * keep ** js * s ** (n_r - js)).sum())
            return tot
        raise CapabilityError("enumeration not available for this offspring type")

    def _eval_mc(self, s):
        if self._thresholds is None:
            self._thresholds = self._draw_thresholds()
        R = len(self._thresholds)
        v = int(np.searchsorted(self._thresholds, s)) / R
        z = norm_ppf(0.5 + self.CI_LEVEL / 2.0)
        half = z * math.sqrt(max(v * (1.0 - v), 1e-300) / R)
        return v, (max(0.0, v - half), min(1.0, v + half))


_GRID = np.linspace(0.0, 1.0, 21)  # monotonicity check, and the first checked hi
_STALL = 0.9  # Kleene steps shrinking by a factor in [_STALL, 1] crawl: g nears the diagonal
_PHI = 0.5 * (1.0 + math.sqrt(5.0))
_FLAT = 1e-8  # a bracket of a minimum of g - id this narrow is flat to rounding


class _Spent(Exception):
    """The evaluation budget of one enclosure is used up."""


def _downhill(f, l, fl, m, fm, b, fb):
    """First zero of f = g - id ahead of m (l < m, f(l) > f(m) > 0): golden-ratio
    steps until f falls to <= 0 or turns up, then golden-section search (Brent
    1973, ch. 5) until a probe falls to <= 0 or the lines through the bracket
    allow no drop to 0.  Returns a cell (a, fa, x, fx) with f(a) > 0 >= f(x), or
    x = a past the minimum, and then m if the bracket closed to _FLAT undecided
    (else None).  Sound where f is convex on the stretch, as near a bottleneck.
    """
    start, step = m, _PHI * (m - l)
    while True:
        u = min(m + step, b)
        fu = fb if u == b else f(u)
        if fu <= 0.0:
            return m, fm, u, fu, None
        if fu >= fm:
            break
        l, fl, m, fm, step = m, fm, u, fu, step * _PHI
    end, fend = u, fu
    while u - l >= _FLAT:
        if fm > max((fl - fm) * (u - m) / (m - l), (fu - fm) * (m - l) / (u - m)):
            return end, fend, end, fend, None
        t = m + (u - m) / _PHI ** 2 if u - m > m - l else m - (m - l) / _PHI ** 2
        ft = f(t)
        if ft <= 0.0:
            return (m, fm, t, ft, None) if t > m else (l, fl, t, ft, None)
        pts = sorted([(l, fl), (m, fm), (t, ft), (u, fu)])
        i = 1 if pts[1][1] <= pts[2][1] else 2
        (l, fl), (m, fm), (u, fu) = pts[i - 1:i + 2]
    return end, fend, end, fend, start


def _enclose(g, grid, tol, max_evals, scan_steps):
    """(lo, hi, iterates, evals), lo <= s0 <= hi, for the smallest fixed point
    s0 of a nondecreasing g: [0, 1] -> [0, 1] with values `grid` on _GRID;
    g(hi) <= hi and g(lo) > lo (or lo = hi) have been evaluated.
    Kleene steps walk up from 0 (no fixed point lies in [x, g(x))) until a step
    is _STALL to 1 times the one before, or their tail is under a scan cell
    (1 - x) / scan_steps; `_downhill` then finds the cell holding s0, which
    Illinois false position narrows, or a point past a minimum to walk on from.
    """
    evals = 0

    def f(s):
        nonlocal evals
        if evals == max_evals:
            raise _Spent
        evals += 1
        return g(s) - s

    k = next((i for i, v in enumerate(grid) if v <= _GRID[i]), len(_GRID) - 1)
    a, fa, b, fb = 0.0, grid[0], float(_GRID[k]), min(grid[k] - _GRID[k], 0.0)
    iterates = [grid[0]]
    lo = None  # the walk point below a minimum too flat to resolve
    try:
        while True:
            x = min(a + fa, b)
            fx = fb if x == b else f(x)
            if fx <= 0.0:  # a Kleene step that g fixes ends at s0
                a, b, fb = (x if x == a + fa else a), x, fx
                break
            iterates.append(x + fx)
            if fx <= fa and (fx >= _STALL * fa or fx * fx <= (fa - fx) * (1 - x) / scan_steps):
                a, fa, x, fx, flat = _downhill(f, a, fa, x, fx, b, fb)
                lo = flat if lo is None else lo
                if fx <= 0.0:
                    b, fb = x, fx
                    break
            a, fa = x, fx
        side = 0
        while b - a > tol:
            x = min(max((a * fb - b * fa) / (fb - fa), a + 0.25 * tol), b - 0.25 * tol)
            if not a < x < b:  # tol is below the float spacing here
                break
            fx = f(x)
            if fx > 0.0:
                fb *= 0.5 if side > 0 else 1.0
                a, fa, side = x, fx, 1
            else:
                fa *= 0.5 if side < 0 else 1.0
                b, fb, side = x, fx, -1
    except _Spent:
        pass
    return float(a if lo is None else lo), float(b), iterates, evals


def _solve(gf, tol, max_evals, scan_steps):
    """The solve behind both public names.  s0 is monotone in g, so for a
    Monte-Carlo g the enclosures under its two confidence bands give `ci`."""
    if tol <= 0 or scan_steps < 1:
        raise InvalidInputError("tol must be positive and scan_steps at least 1")
    strategy = getattr(gf, "strategy", "function")
    grid = [gf.eval(float(s)) for s in _GRID]
    vals = [v for v, _ in grid]
    for u, v in zip(vals, vals[1:]):
        if v < u - 1e-12:
            raise InvalidInputError(
                "g is not nondecreasing on the validation grid (%.6g -> %.6g)" % (u, v))
    if vals[-1] < 1.0 - 1e-9 and strategy not in ("mc", "trivial"):
        raise InvalidInputError("g(1) = %.12g, expected 1" % vals[-1])

    lo, hi, iterates, evals = _enclose(lambda s: gf.eval(s)[0], vals, tol, max_evals, scan_steps)
    ci = None
    if strategy == "mc":
        bands = [_enclose(lambda s, i=i: gf.eval(s)[1][i], [c[i] for _, c in grid],
                          tol, max_evals, scan_steps) for i in (0, 1)]
        ci = (bands[0][0], bands[1][1])
        evals += bands[0][3] + bands[1][3]
    return {"s0": hi, "tau": 1.0 - hi, "iterations": evals, "iterates": iterates,
            "converged": hi - lo <= tol, "method": strategy, "ci": ci, "interval": (lo, hi)}


def smallest_fixed_point(gf, tol=1e-10, max_iter=100_000):
    """Smallest fixed point s0 of g, tau = 1 - s0, an `interval` [lo, hi] with
    g(lo) > lo (or lo = hi) and g(hi) <= hi checked, `converged` (hi - lo <=
    tol; False where g touches the diagonal to rounding), `iterates` g(0),
    g(g(0)), ... (each <= s0) and `iterations`, the evaluations of g past the
    21-point grid, at most `max_iter` per enclosure.  A Monte-Carlo g shares
    one sample block, and `ci` bounds s0 under its sampling band.
    """
    return _solve(gf, tol, max_iter, 1024)


def smallest_fixed_point_bisect(gf, scan_steps=1024):
    """s0 alone, from the same solve to 1e-12, scan cells (1 - x) / scan_steps."""
    return _solve(gf, 1e-12, 100_000, scan_steps)["s0"]


# ---------------------------------------------------------------------------
# level-count curve


def _poly_mul_trunc(a, b, L):
    n = len(a) + len(b) - 1
    if n <= 1024 or min(len(a), len(b)) == 1:
        out = np.convolve(a, b)
    else:
        # scipy.signal.fftconvolve's steps for 1-D real input, bit for bit;
        # scipy.signal itself imports scipy.stats
        from scipy import fft

        size = fft.next_fast_len(n, True)
        spectrum = fft.rfftn(a, [size], axes=[0]) * fft.rfftn(b, [size], axes=[0])
        out = np.clip(fft.irfftn(spectrum, [size], axes=[0])[:n], 0.0, None)
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

    Exact for binomial offspring with k <= 6 or a_k <= 4096 via truncated pgf
    composition (truncation below a_k is lossless for the tail being summed);
    otherwise a flagged Monte-Carlo estimate from population counts.
    """
    k = int(k)
    a_k = int(a_k)
    s = float(s)
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if not (0.0 <= s < 1.0):
        raise InvalidInputError("s must lie in [0,1)")
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
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
        h = binom_pmf(np.arange(min(N, L - 1) + 1), N, q)
        for _ in range(k - 1):
            h = _binomial_of_poly(h, N, p, L)
        value = float(h[:a_k].sum())
        return {"value": min(value, 1.0), "method": "exact", "flagged": False,
                "k": k, "a_k": a_k, "s": s}

    # flagged fallback: exact-law population counts, then binomial thinning.
    # A population above `cap` stops growing, since its next step could
    # overflow int64; it is carried to level k at the mean growth instead,
    # from which it deviates by a relative error of order cap^(-1/2) < 1e-9.
    from .branching import _population_step

    rng = np.random.Generator(np.random.Philox(key=labeled_seed(seed, "gka")))
    cap = (2 ** 63 - 1) // N
    z = np.ones(int(trials), dtype=np.int64)
    skipped = np.zeros(int(trials), dtype=np.int64)  # generations a population skipped
    for _ in range(k):
        skipped[z > cap] += 1
        active = (z > 0) & (z <= cap)
        if active.any():
            z[active] = _population_step(offspring, z[active], rng)
    capped = skipped > 0
    survivors = np.zeros(int(trials), dtype=np.int64)
    alive = (z > 0) & ~capped
    if alive.any():
        survivors[alive] = rng.binomial(z[alive], 1.0 - s)
    below = survivors < a_k
    if capped.any():
        # in logarithms, as a_k and the carried means may exceed the float range
        below[capped] = (np.log(z[capped]) + skipped[capped] * math.log(offspring.mean())
                         + math.log1p(-s) < math.log(a_k))
    v = float(below.mean())
    se = math.sqrt(max(v * (1.0 - v), 1e-300) / trials)
    return {"value": v, "se": se, "ci": (max(0.0, v - 3 * se), min(1.0, v + 3 * se)),
            "method": "mc", "flagged": True,
            "flag_reason": "exact path needs binomial offspring and k <= 6 or a_k <= 4096",
            "k": k, "a_k": a_k, "s": s}


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
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
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
