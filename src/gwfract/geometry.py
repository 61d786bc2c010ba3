"""Similarity IFSs, rendering of tree boundaries, and the geometric checks:
width, diffuseness certificates, box dimension, Ahlfors ratios, minisets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial import cKDTree as _cKDTree

from .symbolic import (
    CapabilityError,
    FiniteTree,
    InvalidInputError,
    StarTree,
    WeightedAlphabet,
    Word,
)

_ORTHO_TOL = 1e-10


class SimilarityMap:
    """x -> ratio * O x + t with O orthogonal."""

    def __init__(self, ratio, ortho, trans):
        ratio = float(ratio)
        ortho = np.array(ortho, dtype=float)
        trans = np.array(trans, dtype=float).reshape(-1)
        d = trans.shape[0]
        if ortho.shape != (d, d):
            raise InvalidInputError("orthogonal part shape %s does not match dimension %d"
                                    % (ortho.shape, d))
        if not (0.0 < ratio <= 1.0):
            raise InvalidInputError("ratio must lie in (0,1]")
        err = np.abs(ortho.T @ ortho - np.eye(d)).max()
        if err > _ORTHO_TOL:
            raise InvalidInputError("matrix is not orthogonal (defect %.3g)" % err)
        self.ratio = ratio
        self.ortho = ortho
        self.trans = trans
        self.d = d

    @classmethod
    def identity(cls, d):
        return cls(1.0, np.eye(d), np.zeros(d))

    @property
    def matrix(self):
        return self.ratio * self.ortho

    def apply(self, pts):
        pts = np.asarray(pts, dtype=float)
        return pts @ self.matrix.T + self.trans

    def compose(self, other):
        """self after other: x -> self(other(x))."""
        return SimilarityMap(
            self.ratio * other.ratio,
            self.ortho @ other.ortho,
            self.matrix @ other.trans + self.trans,
        )

    def fixed_point(self):
        return np.linalg.solve(np.eye(self.d) - self.matrix, self.trans)


@dataclass
class OSCBox:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if not (self.hi > self.lo).all():
            raise InvalidInputError("box must have positive extent")

    def corners(self):
        d = len(self.lo)
        out = np.empty((1 << d, d))
        for m in range(1 << d):
            for j in range(d):
                out[m, j] = self.hi[j] if (m >> j) & 1 else self.lo[j]
        return out


@dataclass
class OSCBall:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.radius = float(self.radius)
        if self.radius <= 0:
            raise InvalidInputError("ball radius must be positive")


def _parallelotope_axes(o1, o2, d):
    axes = [o1[:, j] for j in range(d)] + [o2[:, j] for j in range(d)]
    if d == 3:
        for i in range(3):
            for j in range(3):
                c = np.cross(o1[:, i], o2[:, j])
                n = np.linalg.norm(c)
                if n > 1e-12:
                    axes.append(c / n)
    return axes


def _convex_disjoint(c1, c2, axes, tol=1e-12):
    # separating axis test; touching boundaries count as disjoint interiors
    for u in axes:
        a = c1 @ u
        b = c2 @ u
        if a.max() <= b.min() + tol or b.max() <= a.min() + tol:
            return True
    return False


class SimilarityIFS:
    """Finite list of contracting similarities with an optional open-set witness."""

    def __init__(self, d, maps, osc=None, validate=True):
        self.d = int(d)
        self.maps = list(maps)
        for m in self.maps:
            if m.d != self.d:
                raise InvalidInputError("map dimension mismatch")
            if m.ratio >= 1.0:
                raise InvalidInputError("all maps must be strict contractions")
        if not self.maps:
            raise InvalidInputError("need at least one map")
        self.weights = WeightedAlphabet([m.ratio for m in self.maps])
        self.osc = osc
        if osc is not None and validate:
            self._check_osc()

    @property
    def alphabet_size(self):
        return len(self.maps)

    def _check_osc(self):
        u = self.osc
        if isinstance(u, OSCBall):
            c, R = u.center, u.radius
            imgs = [(m.apply(c), m.ratio * R) for m in self.maps]
            for ci, ri in imgs:
                if np.linalg.norm(ci - c) + ri > R + 1e-12:
                    raise InvalidInputError("image ball escapes the witness ball")
            for i in range(len(imgs)):
                for j in range(i + 1, len(imgs)):
                    ci, ri = imgs[i]
                    cj, rj = imgs[j]
                    if np.linalg.norm(ci - cj) < ri + rj - 1e-12:
                        raise InvalidInputError("image balls %d and %d overlap" % (i, j))
            return
        if isinstance(u, OSCBox):
            corners = u.corners()
            imgs = [m.apply(corners) for m in self.maps]
            for k, ic in enumerate(imgs):
                if (ic < u.lo - 1e-12).any() or (ic > u.hi + 1e-12).any():
                    raise InvalidInputError("image %d escapes the witness box" % k)
            for i in range(len(imgs)):
                for j in range(i + 1, len(imgs)):
                    axes = _parallelotope_axes(self.maps[i].ortho, self.maps[j].ortho, self.d)
                    if not _convex_disjoint(imgs[i], imgs[j], axes):
                        raise InvalidInputError("images %d and %d overlap" % (i, j))
            return
        raise InvalidInputError("unsupported open-set witness %r" % (u,))

    def centroid(self):
        """Fixed point of the average map; a canonical base point inside K."""
        A = sum(m.matrix for m in self.maps) / len(self.maps)
        t = sum(m.trans for m in self.maps) / len(self.maps)
        return np.linalg.solve(np.eye(self.d) - A, t)

    def bounding_ball(self):
        """(center, radius) of a ball that provably contains the attractor."""
        x0 = self.maps[0].fixed_point()
        shifts = [m.matrix @ x0 + m.trans - x0 for m in self.maps]
        top = max(np.linalg.norm(s) for s in shifts)
        R = top / (1.0 - self.weights.r_max)
        return x0, R

    def diameter_bound(self):
        return 2.0 * self.bounding_ball()[1]


@dataclass
class PointCloud:
    points: np.ndarray
    eps: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim == 1:
            self.points = self.points.reshape(-1, 1) if self.points.size else self.points.reshape(0, 2)
        self.eps = float(self.eps)

    def __len__(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]

    @cached_property
    def hull(self):
        """Convex-hull vertices of the cloud, computed on first use."""
        return _hull_vertices(self.points)

    @cached_property
    def width(self):
        """`width(self)` at its default directions, computed on first use."""
        return width(self)

    def diameter(self):
        """Exact diameter via hull vertices (pairwise scan on the hull)."""
        if len(self.points) < 2:
            return 0.0
        hv = self.hull
        best = 0.0
        for i in range(len(hv)):
            dist = np.linalg.norm(hv[i + 1:] - hv[i], axis=1)
            if dist.size:
                best = max(best, float(dist.max()))
        return best


class Hyperplane:
    """Affine hyperplane {x : u . x = b} with unit normal u."""

    def __init__(self, normal, offset):
        normal = np.asarray(normal, dtype=float).reshape(-1)
        n = np.linalg.norm(normal)
        if n < 1e-12:
            raise InvalidInputError("hyperplane normal must be nonzero")
        if abs(n - 1.0) > 1e-12:
            offset = float(offset) / n
            normal = normal / n
        self.normal = normal
        self.offset = float(offset)

    def distance(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.abs(pts @ self.normal - self.offset)

    def __repr__(self):
        return "Hyperplane(u=%s, b=%.6g)" % (np.round(self.normal, 6).tolist(), self.offset)


# ---------------------------------------------------------------------------
# word transforms / rendering


def word_map(ifs, word):
    """Composition of the maps along a word, left letter applied first."""
    m = SimilarityMap.identity(ifs.d)
    for a in word:
        if not (0 <= a < ifs.alphabet_size):
            raise InvalidInputError("letter %d out of range" % a)
        m = m.compose(ifs.maps[a])
    return m


def word_transforms(ifs, words):
    """Batched (ratio, linear, offset) for many words, sharing prefix work.

    Returns (r, S, t) arrays aligned with the input order; S is the full
    linear part (ratio folded in).
    """
    words = [Word(w) for w in words]
    index = {Word(): 0}
    parents = [0]
    letters = [0]
    for w in words:
        for i in range(1, len(w) + 1):
            pre = Word(w[:i])
            if pre not in index:
                index[pre] = len(parents)
                parents.append(index[Word(w[:i - 1])])
                letters.append(w[i - 1])
    n = len(parents)
    d = ifs.d
    S = np.empty((n, d, d))
    t = np.empty((n, d))
    S[0] = np.eye(d)
    t[0] = 0.0
    order = sorted(index.items(), key=lambda kv: (len(kv[0]), kv[1]))
    by_level = {}
    for w, i in order:
        by_level.setdefault(len(w), []).append(i)
    mats = [m.matrix for m in ifs.maps]
    trs = [m.trans for m in ifs.maps]
    for lvl in sorted(by_level):
        if lvl == 0:
            continue
        ids = np.array(by_level[lvl])
        lets = np.array([letters[i] for i in ids])
        pars = np.array([parents[i] for i in ids])
        for a in np.unique(lets):
            sel = lets == a
            pi = pars[sel]
            S[ids[sel]] = S[pi] @ mats[a]
            t[ids[sel]] = np.einsum("nij,j->ni", S[pi], trs[a]) + t[pi]
    out_ids = np.array([index[w] for w in words], dtype=int)
    r = np.array([np.prod([ifs.maps[a].ratio for a in w]) if len(w) else 1.0 for w in words])
    return r, S[out_ids], t[out_ids]


def render_words(ifs, words, base_point=None, meta=None):
    """One representative point per word: the image of a fixed base point."""
    if base_point is None:
        base_point = ifs.centroid()
    base_point = np.asarray(base_point, dtype=float)
    words = list(words)
    if not words:
        return PointCloud(np.zeros((0, ifs.d)), 0.0, meta=dict(meta or {}, empty=True))
    r, S, t = word_transforms(ifs, words)
    pts = np.einsum("nij,j->ni", S, base_point) + t
    eps = ifs.diameter_bound() * float(np.max(r))
    return PointCloud(pts, eps, meta=dict(meta or {}))


def render(ifs, tree=None, depth=None, base_point=None):
    """Point cloud of the deepest surviving level (or the full tree of a depth)."""
    if tree is None:
        if depth is None:
            raise InvalidInputError("need a tree or an explicit depth")
        depth = int(depth)
        if ifs.alphabet_size ** depth > 10_000_000:
            raise InvalidInputError("full render too large at this depth")
        tree = FiniteTree.full(ifs.alphabet_size, depth)
    if isinstance(tree, StarTree):
        h = tree.max_height()
        words = tree.level(h)
        return render_words(ifs, words, base_point, meta={"height": h})
    if depth is None:
        depth = tree.depth
    words = tree.level(min(depth, tree.depth))
    if not words:
        return PointCloud(np.zeros((0, ifs.d)), 0.0, meta={"extinct": True})
    return render_words(ifs, words, base_point, meta={"depth": depth})


# ---------------------------------------------------------------------------
# dimension solvers


def moran_exponent(offspring, weights, tol=1e-12):
    """Exponent where the expected weighted sum of kept ratios equals 1."""
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    probs = offspring.letter_probs()
    ratios = np.asarray(weights.ratios, dtype=float)
    if len(probs) != len(ratios):
        raise InvalidInputError("offspring alphabet and weights disagree")

    def psi(delta):
        return float((probs * ratios ** delta).sum())

    if psi(0.0) <= 1.0:
        raise InvalidInputError("subcritical family: expected offspring %.6g <= 1" % psi(0.0))
    lo, hi = 0.0, 1.0
    while psi(hi) > 1.0:
        hi *= 2.0
        if hi > 1e6:
            raise InvalidInputError("no finite exponent below 1e6")
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        v = psi(mid)
        if abs(v - 1.0) <= tol:
            return mid
        if v > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def box_dimension(cloud, scale_count=12, scales=None, anchor="min"):
    """Least-squares slope of log N(delta) against log(1/delta).

    The default window is [4*eps, diam/4]; passing `scales` overrides it
    (useful when the cloud is self-similar only at known scales).  With
    anchor="origin" boxes are counted on the absolute grid, which keeps
    grid-aligned constructions exact.
    """
    pts = cloud.points
    if len(pts) < 2:
        raise InvalidInputError("need at least two points")
    if anchor == "origin":
        lo = np.zeros(pts.shape[1])
    elif anchor == "min":
        lo = pts.min(axis=0)
    else:
        raise InvalidInputError("anchor must be 'min' or 'origin'")
    if scales is None:
        diam = cloud.diameter()
        eps = max(cloud.eps, diam * 1e-9)
        top = diam / 4.0
        bottom = 4.0 * eps
        if bottom >= top:
            raise InvalidInputError("resolution too coarse: 4*eps=%.3g >= diam/4=%.3g" % (bottom, top))
        scales = np.geomspace(top, bottom, int(scale_count))
    else:
        scales = np.asarray(sorted((float(s) for s in scales), reverse=True))
        if len(scales) == 0 or scales[-1] <= 0:
            raise InvalidInputError("scales must be positive")
    counts = []
    for delta in scales:
        cells = np.floor((pts - lo) / delta).astype(np.int64)
        counts.append(len(np.unique(cells, axis=0)))
    if len(scales) < 3:
        raise InvalidInputError("fewer than 3 usable scales")
    slope = np.polyfit(np.log(1.0 / scales), np.log(counts), 1)[0]
    return float(slope), list(zip(scales.tolist(), counts))


# ---------------------------------------------------------------------------
# width and diffuseness


@dataclass
class WidthResult:
    w: float
    witness: Hyperplane
    tol: float

    def __iter__(self):
        yield self.w
        yield self.witness


def _hull_vertices(pts):
    """Points on the convex hull; every linear functional attains its extremes there.

    d=1 keeps the two endpoints.  Where Qhull fails (too few, collinear or
    coplanar points) the whole cloud is returned, which is never wrong.
    """
    if pts.shape[1] == 1 and len(pts):
        return pts[[int(np.argmin(pts[:, 0])), int(np.argmax(pts[:, 0]))]]
    try:
        return pts[ConvexHull(pts).vertices]
    except Exception:
        return pts


def _flat_direction(pts):
    """Normal of the best-fit hyperplane through the points (least spread)."""
    c = pts.mean(axis=0)
    # full matrices only when rows < dim, else the d x d Vt is already complete
    _, _, vt = np.linalg.svd(pts - c, full_matrices=pts.shape[0] < pts.shape[1])
    return vt[-1], c


def _fibonacci_sphere(n):
    i = np.arange(n) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _slab(pts, u):
    proj = pts @ u
    lo, hi = float(proj.min()), float(proj.max())
    return 0.5 * (hi - lo), 0.5 * (hi + lo)


def _golden_min(f, a, b, iters=60):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - g * (b - a)
    x2 = a + g * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x), b - a


def width(cloud, directions=2000):
    """Smallest half-thickness of a slab containing the cloud, with witness.

    d=2 is exact (the optimal normal is perpendicular to a hull edge);
    d>=3 uses a quasi-uniform direction grid with local refinement.
    """
    pts = np.atleast_2d(np.asarray(cloud.points if isinstance(cloud, PointCloud) else cloud,
                                   dtype=float))
    n, d = pts.shape
    if n == 0:
        raise InvalidInputError("width of an empty cloud")
    if n == 1:
        u = np.zeros(d)
        u[0] = 1.0
        return WidthResult(0.0, Hyperplane(u, float(pts[0, 0])), 0.0)
    u0, c0 = _flat_direction(pts)
    w0, b0 = _slab(pts, u0)
    if w0 <= 1e-14 * max(1.0, np.abs(pts).max()):
        return WidthResult(w0, Hyperplane(u0, b0), 0.0)

    if d == 2:
        hv = _hull_vertices(pts)
        best = (w0, u0, b0)
        m = len(hv)
        for i in range(m):
            e = hv[(i + 1) % m] - hv[i]
            nrm = np.linalg.norm(e)
            if nrm < 1e-15:
                continue
            u = np.array([-e[1], e[0]]) / nrm
            w, b = _slab(hv, u)
            if w < best[0]:
                best = (w, u, b)
        w, u, b = best
        # re-measure on the full cloud (hull width equals cloud width)
        w, b = _slab(pts, u)
        return WidthResult(w, Hyperplane(u, b), 1e-12 * max(1.0, w))

    if d == 3:
        grid = _fibonacci_sphere(int(directions))
    else:
        rng = np.random.Generator(np.random.Philox(key=directions))
        raw = rng.normal(size=(max(int(directions), 100), d))
        grid = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    grid = np.vstack([grid, u0.reshape(1, -1)])
    proj = pts @ grid.T
    widths = 0.5 * (proj.max(axis=0) - proj.min(axis=0))
    order = np.argsort(widths)
    best_w, best_u = np.inf, None
    step = 0.0
    for k in order[:5]:
        u = grid[k].copy()
        # local spherical refinement: golden-section along two tangent arcs
        for _ in range(3):
            basis = np.linalg.svd(u.reshape(1, -1), full_matrices=True)[2][1:]
            for tvec in basis:
                def f(theta, u=u, tvec=tvec):
                    v = math.cos(theta) * u + math.sin(theta) * tvec
                    return _slab(pts, v / np.linalg.norm(v))[0]

                th, _, bracket = _golden_min(f, -0.05, 0.05, iters=40)
                u = math.cos(th) * u + math.sin(th) * tvec
                u /= np.linalg.norm(u)
                step = bracket
        w, b = _slab(pts, u)
        if w < best_w:
            best_w, best_u, best_b = w, u, b
    scale = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).max())
    return WidthResult(best_w, Hyperplane(best_u, best_b), step * scale)


@dataclass
class DiffuseResult:
    c_low: float
    witness: Hyperplane | None
    raw_min: float
    tol: float
    note: str = ""

    def __iter__(self):
        yield self.c_low
        yield self.witness


def _coverage_halfangle(d, directions):
    if d == 2:
        return math.pi / (2.0 * directions)
    # Fibonacci sphere covering radius, padded
    return 2.8 / math.sqrt(directions)


def diffuseness_constant(maps, F_cloud, tol=1e-9, directions=2000):
    """Certified lower bound on min over hyperplanes of the farthest-image distance.

    For each direction the optimal offset has closed form (the images project
    to intervals; the objective is the half-gap between the largest lower and
    smallest upper endpoint after eps-inflation).  The certificate subtracts a
    Lipschitz correction covering directions between grid points.  A linear
    functional attains its extremes on hull vertices, so only the images of
    the base cloud's hull vertices are projected, one map at a time.
    """
    pts = F_cloud.points
    if len(pts) == 0:
        raise InvalidInputError("empty base cloud")
    d = pts.shape[1]
    if len(maps) == 1:
        u = np.zeros(d)
        u[0] = 1.0
        p0 = maps[0].apply(pts[:1])[0]
        return DiffuseResult(0.0, Hyperplane(u, float(p0[0])), 0.0, 0.0,
                             note="single map: every hyperplane through its image defeats it")
    base_w = F_cloud.width
    if base_w.w <= max(F_cloud.eps, 1e-12):
        return DiffuseResult(0.0, base_w.witness, 0.0, 0.0,
                             note="degenerate base cloud: width %.3g is below resolution" % base_w.w)

    imgs = [m.apply(F_cloud.hull) for m in maps]
    infl = [F_cloud.eps * m.ratio for m in maps]
    # mean of all image points = mean over maps of the image of the cloud mean
    mean = pts.mean(axis=0)
    center = np.mean([m.apply(mean) for m in maps], axis=0)
    lip = max(float(np.linalg.norm(img - center, axis=1).max()) for img in imgs)

    if d == 2:
        angles = np.linspace(0.0, math.pi, int(directions), endpoint=False)
        grid = np.column_stack([np.cos(angles), np.sin(angles)])
    elif d == 3:
        grid = _fibonacci_sphere(int(directions))
    else:
        rng = np.random.Generator(np.random.Philox(key=directions))
        raw = rng.normal(size=(int(directions), d))
        grid = raw / np.linalg.norm(raw, axis=1, keepdims=True)

    L = np.full(len(grid), -np.inf)
    H = np.full(len(grid), np.inf)
    for img, e in zip(imgs, infl):
        proj = img @ grid.T
        np.maximum(L, proj.min(axis=0) - e, out=L)
        np.minimum(H, proj.max(axis=0) + e, out=H)
    cvals = np.maximum(0.0, 0.5 * (L - H))
    k = int(np.argmin(cvals))
    raw_min = float(cvals[k])
    u_best = grid[k]

    def c_of(u):
        L, H = -np.inf, np.inf
        for img, e in zip(imgs, infl):
            pr = img @ u
            L = max(L, float(pr.min()) - e)
            H = min(H, float(pr.max()) + e)
        return max(0.0, 0.5 * (L - H)), 0.5 * (L + H)

    if d == 2:
        th0 = math.atan2(u_best[1], u_best[0])
        span = math.pi / directions

        def f(th):
            return c_of(np.array([math.cos(th), math.sin(th)]))[0]

        th, v, _ = _golden_min(f, th0 - span, th0 + span, iters=50)
        if v < raw_min:
            raw_min = v
            u_best = np.array([math.cos(th), math.sin(th)])
    half = _coverage_halfangle(d, int(directions))
    c_low = max(0.0, raw_min - lip * half)
    _, b = c_of(u_best)
    return DiffuseResult(c_low, Hyperplane(u_best, b), raw_min, lip * half)


def _packing_width_bound(n, min_dist, xi):
    """Lower bound on the width of n points with pairwise spacing >= min_dist
    inside a radius-xi ball: disjoint half-spacing discs must fit in the slab."""
    if n < 2 or min_dist <= 0:
        return 0.0
    area = n * math.pi * min_dist * min_dist / 4.0
    t = (area / (2.0 * xi + min_dist) - min_dist) / 2.0
    return max(0.0, 2.0 * t)


def empirical_diffuse_check(cloud, beta, scale_count=3, sample_count=200, seed=0):
    """Sampled local test: inside balls of the scale ladder the cloud must
    escape every slab of half-thickness beta * radius.

    Balls whose point count already forces a width above both beta and the
    running worst ratio (by disc packing at the cloud's minimum spacing) skip
    the exact width computation; the reported worst ratio is unaffected.
    """
    if beta <= 0:
        raise InvalidInputError("beta must be positive")
    pts = cloud.points
    if len(pts) == 0:
        raise InvalidInputError("empty cloud")
    diam = cloud.diameter()
    scale_count = int(scale_count)
    xis = [diam / 4.0 * 0.5 ** j for j in range(scale_count)]
    if xis[-1] < 10.0 * cloud.eps:
        raise InvalidInputError(
            "smallest scale %.3g is under 10*eps=%.3g; render deeper" % (xis[-1], 10 * cloud.eps)
        )
    per_scale = max(1, -(-int(sample_count) // scale_count))
    rng = np.random.Generator(np.random.Philox(key=seed))
    tree = _cKDTree(pts)
    min_dist = 0.0
    if len(pts) >= 2 and pts.shape[1] == 2:  # packing bound is planar-only
        dd, _ = tree.query(pts, k=2)
        min_dist = float(dd[:, 1].min())
    worst = None
    tested = 0
    skipped = 0
    cleared = 0
    for xi in xis:
        centers = pts[rng.integers(0, len(pts), size=per_scale)]
        hits = tree.query_ball_point(centers, xi)
        for x, idx in zip(centers, hits):
            if len(idx) == 0:
                skipped += 1
                continue
            tested += 1
            floor_ratio = (_packing_width_bound(len(idx), min_dist, xi) - cloud.eps) / xi
            if floor_ratio > beta and (worst is None or floor_ratio > worst["ratio"]):
                cleared += 1
                continue
            sub = pts[idx]
            res = width(PointCloud(sub, cloud.eps))
            ratio = (res.w - cloud.eps) / xi
            if worst is None or ratio < worst["ratio"]:
                worst = {"ratio": ratio, "center": x.tolist(), "xi": xi,
                         "width": res.w, "hyperplane": res.witness, "points_in_ball": int(len(idx))}
    passed = tested > 0 and (worst is None or worst["ratio"] > beta)
    return {"pass": bool(passed), "beta": float(beta),
            "worst_ratio": None if worst is None else worst["ratio"],
            "witness": worst, "tested": tested, "skipped": skipped,
            "cleared": cleared, "scales": xis, "eps": cloud.eps}


def osc_overlap_count(ifs, rho, sample_count=100, seed=0, centers=None,
                      base_depth=None):
    """Max number of section-word images an rho-ball can meet, over sampled centers."""
    from .symbolic import section_pi_rho

    if ifs.osc is None:
        raise CapabilityError("needs an open-set witness on the IFS")
    rho = float(rho)
    section = section_pi_rho(ifs.weights, rho, extended=True)
    words = section.sorted_words()
    r, S, t = word_transforms(ifs, words)
    c0, R0 = ifs.bounding_ball()
    centers_img = np.einsum("nij,j->ni", S, c0) + t

    # coarse base cloud reused inside every candidate image
    if base_depth is None:
        base_depth = 1
        while ifs.alphabet_size ** (base_depth + 1) <= 2000:
            base_depth += 1
    base = render(ifs, depth=base_depth)
    if centers is None:
        probe_cloud = render(ifs, depth=base_depth)
        rng = np.random.Generator(np.random.Philox(key=seed))
        idx = rng.integers(0, len(probe_cloud), size=int(sample_count))
        centers = probe_cloud.points[idx]
    centers = np.atleast_2d(np.asarray(centers, dtype=float))

    counts = []
    for x in centers:
        rough = np.linalg.norm(centers_img - x, axis=1) <= rho + r * R0 + 1e-12
        cand = np.nonzero(rough)[0]
        cnt = 0
        for i in cand:
            img = base.points @ S[i].T + t[i]
            dil = r[i] * base.eps
            if (np.linalg.norm(img - x, axis=1) <= rho + dil + 1e-12).any():
                cnt += 1
        counts.append(cnt)
    return {"max_count": int(max(counts)), "counts": counts, "rho": rho,
            "section_size": len(words), "centers": centers}


# ---------------------------------------------------------------------------
# measures on extracted subtrees


@dataclass
class MeasuredCloud:
    """Deepest-level cells of a measured subtree: one point, mass, and radius per cell."""

    points: np.ndarray
    masses: np.ndarray
    cell_radii: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        self.cell_radii = np.asarray(self.cell_radii, dtype=float)
        if not (len(self.points) == len(self.masses) == len(self.cell_radii)):
            raise InvalidInputError("points, masses, radii must align")
        if len(self.points) == 0:
            raise InvalidInputError("empty measured cloud")


@dataclass
class AhlforsResult:
    c1_hat: float
    c2_hat: float
    spread: float
    samples: list

    def __iter__(self):
        yield self.c1_hat
        yield self.c2_hat


def ahlfors_ratio_check(measured, alpha, sample_count=1000, seed=0, r_count=6,
                        r_range=None):
    """Min/max of ball-mass over r^alpha across sampled centers and radii.

    Outer mass counts cells meeting the ball, inner mass counts cells inside;
    the max ratio uses outer, the min uses inner, so the spread is honest.
    """
    pts, masses, radii = measured.points, measured.masses, measured.cell_radii
    total = masses.sum()
    if abs(total - 1.0) > 1e-6:
        masses = masses / total
    cloud = PointCloud(pts, float(radii.max()))
    diam = cloud.diameter()
    if r_range is None:
        r_hi = diam / 4.0
        r_lo = max(8.0 * float(radii.max()), diam * 1e-4)
        if r_lo >= r_hi:
            r_lo = r_hi  # shallow cloud: only the top scale clears the cells
    else:
        r_lo, r_hi = r_range
    rs = np.geomspace(r_hi, r_lo, int(r_count))
    rng = np.random.Generator(np.random.Philox(key=seed))
    per = max(1, -(-int(sample_count) // len(rs)))
    c1, c2 = np.inf, 0.0
    samples = []
    for rad in rs:
        idx = rng.choice(len(pts), size=per, p=masses)
        for i in idx:
            x = pts[i]
            dist = np.linalg.norm(pts - x, axis=1)
            outer = float(masses[dist <= rad + radii].sum())
            inner = float(masses[dist + radii <= rad].sum())
            denom = rad ** alpha
            c1 = min(c1, inner / denom)
            c2 = max(c2, outer / denom)
            samples.append({"r": float(rad), "inner": inner, "outer": outer})
    spread = c2 / c1 if c1 > 0 else math.inf
    return AhlforsResult(float(c1), float(c2), float(spread), samples)


def miniset(cloud, center, radius):
    """Rescale the part of the cloud inside a ball to the unit ball."""
    center = np.asarray(center, dtype=float)
    radius = float(radius)
    if radius <= 0:
        raise InvalidInputError("radius must be positive")
    pts = cloud.points
    if len(pts) == 0:
        raise InvalidInputError("empty cloud")
    near = np.linalg.norm(pts - center, axis=1).min()
    if near > cloud.eps + 1e-12:
        raise InvalidInputError("center is %.3g away from the cloud (eps %.3g)" % (near, cloud.eps))
    sel = np.linalg.norm(pts - center, axis=1) <= radius
    if not sel.any():
        raise InvalidInputError("ball contains no cloud points")
    return PointCloud((pts[sel] - center) / radius, cloud.eps / radius,
                      meta={"center": center.tolist(), "radius": radius})


# ---------------------------------------------------------------------------
# canonical families and I/O


def grid_cell_coords(letter, b, d):
    """Decode a letter index into d base-b digits, first coordinate most significant."""
    out = []
    for j in range(d - 1, -1, -1):
        out.append((letter // b ** j) % b)
    return tuple(out)


def grid_letter(coords, b):
    out = 0
    for c in coords:
        out = out * b + int(c)
    return out


def percolation_ifs(b, d=2):
    """b-adic grid subdivision of the unit cube."""
    b = int(b)
    d = int(d)
    if b < 2 or d < 1:
        raise InvalidInputError("need b >= 2 and d >= 1")
    maps = []
    for letter in range(b ** d):
        coords = np.array(grid_cell_coords(letter, b, d), dtype=float)
        maps.append(SimilarityMap(1.0 / b, np.eye(d), coords / b))
    return SimilarityIFS(d, maps, osc=OSCBox(np.zeros(d), np.ones(d)))


def sierpinski_ifs():
    """Three half-scale corner maps of the unit square (right-triangle gasket)."""
    m = [SimilarityMap(0.5, np.eye(2), t) for t in
         (np.zeros(2), np.array([0.5, 0.0]), np.array([0.0, 0.5]))]
    return SimilarityIFS(2, m, osc=OSCBox(np.zeros(2), np.ones(2)))


def ifs_from_json(doc):
    import json

    if isinstance(doc, str):
        doc = json.loads(doc)
    d = int(doc["d"])
    maps = []
    for m in doc["maps"]:
        if d == 2 and "angle" in m:
            th = float(m["angle"])
            O = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        elif "rotation" in m:
            O = np.array(m["rotation"], dtype=float).reshape(d, d)
        else:
            O = np.eye(d)
        maps.append(SimilarityMap(m["r"], O, m["t"]))
    osc = None
    u = doc.get("osc")
    if u:
        if u.get("kind") == "box":
            osc = OSCBox(u["lo"], u["hi"])
        elif u.get("kind") == "ball":
            osc = OSCBall(u["center"], u["radius"])
        else:
            raise InvalidInputError("unknown osc kind %r" % (u.get("kind"),))
    return SimilarityIFS(d, maps, osc=osc)


def ifs_to_json(ifs):
    maps = []
    for m in ifs.maps:
        entry = {"r": m.ratio, "t": m.trans.tolist()}
        if ifs.d == 2:
            if np.linalg.det(m.ortho) < 0:
                raise CapabilityError("planar reflections have no angle form; use d=3 style")
            entry["angle"] = math.atan2(m.ortho[1, 0], m.ortho[0, 0])
        else:
            entry["rotation"] = m.ortho.reshape(-1).tolist()
        maps.append(entry)
    out = {"d": ifs.d, "maps": maps}
    if isinstance(ifs.osc, OSCBox):
        out["osc"] = {"kind": "box", "lo": ifs.osc.lo.tolist(), "hi": ifs.osc.hi.tolist()}
    elif isinstance(ifs.osc, OSCBall):
        out["osc"] = {"kind": "ball", "center": ifs.osc.center.tolist(),
                      "radius": ifs.osc.radius}
    return out


def cloud_to_csv(cloud):
    lines = []
    for p in cloud.points:
        lines.append(",".join(repr(float(x)) for x in p))
    return "\n".join(lines) + ("\n" if lines else "")


def cloud_from_csv(text, eps=0.0):
    pts = []
    for line in text.strip().splitlines():
        if line.strip():
            pts.append([float(x) for x in line.split(",")])
    return PointCloud(np.array(pts) if pts else np.zeros((0, 2)), eps)


def cloud_to_pgm(cloud, pixels=512, lo=None, hi=None):
    """Binary PGM raster; a pixel is white iff some point falls inside it."""
    pts = cloud.points
    if lo is None:
        lo = (0.0, 0.0)
    if hi is None:
        hi = (1.0, 1.0)
    lo = np.asarray(lo, dtype=float)[:2]
    hi = np.asarray(hi, dtype=float)[:2]
    w = h = int(pixels)
    raster = np.zeros((h, w), dtype=np.uint8)
    if len(pts):
        xy = pts[:, :2]
        ij = np.floor((xy - lo) / (hi - lo) * [w, h]).astype(np.int64)
        ij = np.clip(ij, 0, [w - 1, h - 1])
        raster[h - 1 - ij[:, 1], ij[:, 0]] = 255
    header = ("P5\n%d %d\n255\n" % (w, h)).encode()
    return header + raster.tobytes()
