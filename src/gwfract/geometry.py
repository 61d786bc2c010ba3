"""Similarity IFSs, rendering of tree boundaries, and the geometric checks:
width, diffuseness certificates, box dimension, Ahlfors ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import compress

import numpy as np

from .symbolic import (
    CapabilityError,
    InvalidInputError,
    WeightedAlphabet,
    _word_rows,
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
    """Separating-axis candidates of two parallelotopes with edge frames o1
    and o2, as the columns of one matrix: both frames' columns and, in 3-d,
    the unit cross products of their edges (degenerate ones dropped)."""
    axes = [o1, o2]
    if d == 3:
        c = np.cross(o1.T[:, None], o2.T[None]).reshape(-1, 3)
        n = np.linalg.norm(c, axis=1)
        axes.append((c[n > 1e-12] / n[n > 1e-12, None]).T)
    return np.hstack(axes)


def _convex_disjoint(c1, c2, axes):
    """Separating-axis test of the hulls of the corner sets c1 and c2 on
    the columns of `axes`, all projected at once; touching boundaries count
    as disjoint interiors."""
    a, b = c1 @ axes, c2 @ axes
    return bool(((a.max(axis=0) <= b.min(axis=0) + 1e-12)
                 | (b.max(axis=0) <= a.min(axis=0) + 1e-12)).any())


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

    @cached_property
    def _stacked(self):
        """Per-map ratios, linear parts (ratio folded in) and shifts as arrays."""
        return (np.array([m.ratio for m in self.maps]), np.array([m.matrix for m in self.maps]),
                np.array([m.trans for m in self.maps]))

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
            frames = [m.ortho.tobytes() for m in self.maps]
            axes = {}  # per pair of edge frames, most often one for the whole system
            for i in range(len(imgs)):
                for j in range(i + 1, len(imgs)):
                    pair = frames[i], frames[j]
                    if pair not in axes:
                        axes[pair] = _parallelotope_axes(
                            self.maps[i].ortho, self.maps[j].ortho, self.d)
                    if not _convex_disjoint(imgs[i], imgs[j], axes[pair]):
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
        """`width(self)`, computed on first use."""
        return width(self)

    @cached_property
    def _width_floor(self):
        """A lower bound on the width in d = 3, taken once per cloud (README,
        "Certificates"); -inf elsewhere."""
        if self.d != 3 or len(self) <= 3:
            return -math.inf
        hv = self.hull
        proj = hv @ _direction_grid(3, 2000).T
        lip = float(np.linalg.norm(hv - hv.mean(axis=0), axis=1).max())
        return 0.5 * float((proj.max(axis=0) - proj.min(axis=0)).min()) \
            - lip * _coverage_halfangle(3, 2000)

    @cached_property
    def _mean(self):
        """Mean of the points, computed on first use: every certificate on
        this cloud reads it."""
        return self.points.mean(axis=0)

    @cached_property
    def _ball_index(self):
        """`_BallIndex(self.points)`, built on first use."""
        return _BallIndex(self.points)

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


def _step(ifs, maps, a):
    """(r, S, t) of the maps `maps` each followed by the map of its letter in
    `a`: t = S trans + t, S = S M, r = r ratio."""
    ratios, mats, trans = ifs._stacked
    r, S, t = maps
    return r * ratios[a], S @ mats[a], np.einsum("nij,nj->ni", S, trans[a]) + t


def _check_letters(ifs, letters):
    if letters.size and not (0 <= letters.min() and letters.max() < ifs.alphabet_size):
        raise InvalidInputError("letter out of range for %d maps" % ifs.alphabet_size)


def _compose(ifs, letters, lengths):
    """(r, S, t) of the map along each row of an (n, L) letter array.

    Row i composes its first lengths[i] letters, left letter applied first
    (`_step`); S is the linear part with the ratio folded in.
    """
    _check_letters(ifs, letters)
    n, L = letters.shape
    d = ifs.d
    maps = np.ones(n), np.broadcast_to(np.eye(d), (n, d, d)).copy(), np.zeros((n, d))
    live = lengths.min(initial=L)
    for j in range(L):
        a = letters[:, j]
        if j < live:  # every row: the products replace the arrays, no copies back
            maps = _step(ifs, maps, a)
            continue
        rows = np.flatnonzero(lengths > j)
        for whole, part in zip(maps, _step(ifs, [m[rows] for m in maps], a[rows])):
            whole[rows] = part
    return maps


# nodes composed at a time: the (rows, d, d) products stay small, and each
# point's arithmetic is the same whatever the chunk
_RENDER_ROWS = 1 << 12


def _descend(ifs, start, p, rows, lengths):
    """(r, S, t) of nodes whose parents' maps are rows p of `start`, each
    stepped through the base letters its own letter spells (row i of `rows`,
    lengths[i] letters), one letter at a time by `_step`.

    Adjacent nodes that share a parent and a spelled prefix share its map,
    which is composed once: siblings come in letter order, so on a block or
    star level each distinct prefix of a sibling family takes one step.
    """
    _check_letters(ifs, rows)
    maps = start
    n, L = rows.shape
    full = lengths.min(initial=L) == L
    g = p.astype(np.intp)  # row i's map is row g[i] of maps
    out = None
    for q in range(L + 1):
        if full and q == L and len(maps[0]) == n:  # one map per row
            return maps
        end = np.flatnonzero(lengths == q)
        if len(end):
            if out is None:
                out = [np.empty((n,) + m.shape[1:]) for m in maps]
            for o, m in zip(out, maps):
                o[end] = m[g[end]]
        if q == L:
            return tuple(out)
        live = slice(None) if full else np.flatnonzero(lengths > q)
        a, h = rows[live, q], g[live]
        new = np.empty(len(h), dtype=bool)
        new[:1] = True
        np.not_equal(h[1:], h[:-1], out=new[1:])
        new[1:] |= a[1:] != a[:-1]
        first = h[new]
        maps = _step(ifs, [m[first] for m in maps], a[new])
        g[live] = np.cumsum(new) - 1


def _render_levels(ifs, depth, size, level, start, base_point):
    """Points (images of the base point) and map ratios of the `size` nodes
    at `depth`, in one top-down pass over the levels.

    A node's map is its parent's, stepped through the base letters that its
    own letter spells (`_descend`), so each row is bit for bit `_compose` of
    the node's whole word.  `level(j, lo, hi)` gives nodes lo..hi-1 of level
    j as (parent indices, base-letter rows, lengths); `start` is the root's
    map, one row.  Parents ascend, so a run of `_RENDER_ROWS` nodes has one
    run of ancestors on every level, and the runs are composed in turn.
    """
    base_point = ifs.centroid() if base_point is None else np.asarray(base_point, dtype=float)
    pts, ratios = np.empty((size, ifs.d)), np.empty(size)
    for lo in range(0, size, _RENDER_ROWS):
        a, b = lo, min(size, lo + _RENDER_ROWS)
        steps = []
        for j in range(depth, 0, -1):
            parents, rows, lengths = level(j, a, b)
            a, b = int(parents[0]), int(parents[-1]) + 1
            steps.append((parents.astype(np.intp) - a, rows, lengths))
        r, S, t = start
        for p, rows, lengths in reversed(steps):
            r, S, t = _descend(ifs, (r, S, t), p, rows, lengths)
        pts[lo:lo + len(r)] = np.einsum("nij,j->ni", S, base_point) + t
        ratios[lo:lo + len(r)] = r
    return pts, ratios


def _tree_level(tree, spell=None):
    """`level` of `_render_levels` over a tree's level arrays, each letter
    spelled by `spell` (by default the tree's own `_spell`)."""
    spell = spell or tree._spell
    return lambda j, lo, hi: (tree._parents[j][lo:hi], *spell(tree._letters[j][lo:hi]))


def _render_letters(ifs, letters, lengths, base_point):
    """Cloud of the words in the rows of a letter array, each row composed
    whole by `_compose`: the reference for the tree renders."""
    if base_point is None:
        base_point = ifs.centroid()
    base_point = np.asarray(base_point, dtype=float)
    pts = np.empty((len(letters), ifs.d))
    r_max = 0.0
    for i in range(0, len(letters), _RENDER_ROWS):
        r, S, t = _compose(ifs, letters[i:i + _RENDER_ROWS], lengths[i:i + _RENDER_ROWS])
        pts[i:i + _RENDER_ROWS] = np.einsum("nij,j->ni", S, base_point) + t
        r_max = max(r_max, float(r.max()))
    return PointCloud(pts, ifs.diameter_bound() * r_max)


def render_words(ifs, words, base_point=None):
    """One representative point per word: the image of a fixed base point."""
    letters, lengths = _word_rows(words)
    if not len(lengths):
        return PointCloud(np.zeros((0, ifs.d)), 0.0)
    return _render_letters(ifs, letters, lengths, base_point)


def render(ifs, tree=None, depth=None, base_point=None):
    """Point cloud of the deepest surviving level (or the full tree of a depth).

    The maps are composed top-down once per tree node (`_render_levels`), not
    once per leaf and letter; every point is as `render_words` gives it on
    the level's words.
    """
    if depth is not None:
        depth = int(depth)
        if depth < 0:
            raise InvalidInputError("depth must be >= 0")
    if tree is None:
        if depth is None:
            raise InvalidInputError("need a tree or an explicit depth")
        n = ifs.alphabet_size
        size = n ** depth
        if size > 10_000_000:
            raise InvalidInputError("full render too large at this depth")

        def level(j, lo, hi):  # node i of a full level: parent i // n, letter i % n
            idx = np.arange(lo, hi)
            return idx // n, (idx % n)[:, None], np.ones(hi - lo, dtype=np.int64)
    else:
        depth = tree.depth if depth is None else min(depth, tree.depth)
        size = tree.level_sizes()[depth]
        if not size:
            return PointCloud(np.zeros((0, ifs.d)), 0.0)
        level = _tree_level(tree)
    root = np.ones(1), np.eye(ifs.d)[None], np.zeros((1, ifs.d))
    pts, r = _render_levels(ifs, depth, size, level, root, base_point)
    return PointCloud(pts, ifs.diameter_bound() * r.max())


# ---------------------------------------------------------------------------
# dimension solvers


def moran_exponent(offspring, weights):
    """Exponent where the expected weighted sum of kept ratios equals 1, to
    within 1e-12 in that sum."""
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
        if abs(v - 1.0) <= 1e-12:
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
    counts = [_box_count(pts, lo, delta) for delta in scales]
    if len(scales) < 3:
        raise InvalidInputError("fewer than 3 usable scales")
    slope = np.polyfit(np.log(1.0 / scales), np.log(counts), 1)[0]
    return float(slope), list(zip(scales.tolist(), counts))


def _box_count(pts, lo, delta):
    """Number of the grid's delta-boxes, anchored at lo, that hold points:
    the distinct values of one int64 key per point (README, "Box counts")."""
    key, span = 0, 1
    for x, x0 in zip(pts.T, lo):
        col = np.floor((x - x0) / delta).astype(np.int64)
        col -= col.min()
        width = int(col.max()) + 1
        if span * width >= 1 << 63:
            key, col = (np.unique(a, return_inverse=True)[1] for a in (key, col))
            span, width = int(key.max()) + 1, int(col.max()) + 1
        key, span = key * width + col, span * width
    key = np.sort(key)
    return 1 + int(np.count_nonzero(key[1:] != key[:-1]))


# ---------------------------------------------------------------------------
# width and diffuseness


@dataclass
class WidthResult:
    w: float
    witness: Hyperplane
    tol: float


def _hull_vertices(pts):
    """Points on the convex hull; every linear functional attains its extremes there.

    d=1 keeps the two endpoints; in d=2 the vertices run counter-clockwise.
    Where Qhull fails (too few, collinear or coplanar points) the cloud array
    itself is returned, which is never wrong.
    """
    if pts.shape[1] == 1 and len(pts):
        return pts[[int(np.argmin(pts[:, 0])), int(np.argmax(pts[:, 0]))]]
    from scipy.spatial import ConvexHull
    try:
        return pts[ConvexHull(pts).vertices]
    except Exception:
        return pts


def _cKDTree(pts):
    """KD-tree of the points; like Qhull, scipy.spatial is loaded on first use."""
    from scipy.spatial import cKDTree

    return cKDTree(pts)


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


@cache
def _direction_grid(d, directions):
    """Unit directions of the width and certificate grids, built once per
    (d, directions) and read-only: in the plane `directions` angles evenly
    spaced over [0, pi), in d = 3 a Fibonacci sphere, above that normal
    vectors drawn with Philox key `directions`, scaled to unit length."""
    if d == 2:
        angles = np.linspace(0.0, math.pi, directions, endpoint=False)
        grid = np.column_stack([np.cos(angles), np.sin(angles)])
    elif d == 3:
        grid = _fibonacci_sphere(directions)
    else:
        raw = np.random.Generator(np.random.Philox(key=directions)).normal(size=(directions, d))
        grid = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    grid.flags.writeable = False
    return grid


def _slab(pts, u):
    proj = pts @ u
    lo, hi = float(proj.min()), float(proj.max())
    return 0.5 * (hi - lo), 0.5 * (hi + lo)


def _golden_steps(f, a, b, iters):
    """Golden-section search for a minimum of f on [a, b]: yields the bracket
    and its two probes, (a, b, x1, f1, x2, f2), before the first of `iters`
    steps and after each.  Brackets nest, so every later probe, and the
    midpoint of the last bracket, lies in the one yielded."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - g * (b - a)
    x2 = a + g * (b - a)
    f1, f2 = f(x1), f(x2)
    yield a, b, x1, f1, x2, f2
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = f(x2)
        yield a, b, x1, f1, x2, f2


def _golden_min(f, a, b, iters=60):
    for a, b, *_ in _golden_steps(f, a, b, iters):
        pass
    x = 0.5 * (a + b)
    return x, f(x), b - a


def _edge_normal_width(hv):
    """Unit normal of the thinnest slab around a convex polygon given by its
    vertices in order: the normal of one of its edges (Houle and Toussaint,
    "Computing the width of a set", IEEE PAMI 1988).  Edges are projected in
    chunks of 512, so memory stays linear in the vertex count.  None when
    every edge is shorter than 1e-15, which leaves no normal to trust."""
    chunk = 512
    e = np.concatenate((hv[1:], hv[:1])) - hv
    nrm = np.sqrt(e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1])
    keep = nrm >= 1e-15
    if not keep.any():
        return None
    u = e[keep][:, ::-1] / nrm[keep, None]
    u[:, 0] = -u[:, 0]
    if len(u) <= chunk:
        proj = hv @ u.T
        return u[int(np.argmin(proj.max(axis=0) - proj.min(axis=0)))]
    spans = np.concatenate([np.ptp(hv @ u[i:i + chunk].T, axis=0)
                            for i in range(0, len(u), chunk)])
    return u[int(np.argmin(spans))]


def width(cloud):
    """Smallest half-thickness of a slab containing the cloud, with witness.

    At most d points lie in a hyperplane: width exactly 0.  d=2 is exact (the
    optimal normal is perpendicular to a hull edge); d>=3 uses a quasi-uniform
    grid of 2000 directions (d>=4: Philox key 2000) with local refinement.
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
    # every slab width is attained on the hull; the final measurement stays
    # on the full cloud
    if d == 2 and n > d:
        hv = cloud.hull if isinstance(cloud, PointCloud) else _hull_vertices(pts)
        # Qhull built the hull: its vertices run counter-clockwise
        u = _edge_normal_width(hv) if hv is not pts else None
        if u is not None:
            w, b = _slab(pts, u)
            return WidthResult(w, Hyperplane(u, b), 1e-12 * max(1.0, w))
    u0, _ = _flat_direction(pts)
    w0, b0 = _slab(pts, u0)
    # the SVD plane is exact for at most d points and for the collinear
    # planar clouds that Qhull rejects; on a hull with no edge of 1e-15 it is
    # off by less than the hull's size
    if n <= d or d == 2 or w0 <= 1e-14 * max(1.0, np.abs(pts).max()):
        return WidthResult(0.0 if n <= d else w0, Hyperplane(u0, b0), 0.0)

    hv = cloud.hull if isinstance(cloud, PointCloud) else _hull_vertices(pts)
    grid = np.vstack([_direction_grid(d, 2000), u0.reshape(1, -1)])
    proj = hv @ grid.T
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
                    return _slab(hv, v / np.linalg.norm(v))[0]

                th, _, bracket = _golden_min(f, -0.05, 0.05, iters=40)
                u = math.cos(th) * u + math.sin(th) * tvec
                u /= np.linalg.norm(u)
                step = bracket
        w, b = _slab(pts, u)
        if w < best_w:
            best_w, best_u, best_b = w, u, b
    scale = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).max())
    return WidthResult(best_w, Hyperplane(best_u, best_b), step * scale)


def _width_exceeds(cloud, level):
    """Whether `cloud.width.w > level`: the cloud's `_width_floor` settles it
    where it exceeds `level`, else `cloud.width` decides."""
    return cloud._width_floor > level or cloud.width.w > level


@dataclass
class DiffuseResult:
    c_low: float
    witness: Hyperplane | None
    raw_min: float
    tol: float
    note: str = ""


def _coverage_halfangle(d, directions):
    if d == 2:
        return math.pi / (2.0 * directions)
    # Fibonacci sphere covering radius, padded
    return 2.8 / math.sqrt(directions)


# most elements one projection of a `_MapTable`'s direction grid holds
_PROJ_BUDGET = 1 << 18


class _MapTable:
    """`diffuseness_constant`'s rows, one per map, on one base cloud and grid:
    the map's images of the cloud's hull vertices (`images`, maps x hull x d;
    a linear functional attains its extremes on them) and of the cloud mean
    (`means`), its eps-inflation (`infl`), and the least and greatest
    projection of its inflated image on each direction (`lo`, `hi`, maps x
    directions), projected at most `_PROJ_BUDGET` elements at a time."""

    def __init__(self, maps, F_cloud, directions):
        hull = F_cloud.hull
        (h, d), m = hull.shape, len(maps)
        self.maps, self.grid = maps, _direction_grid(d, directions)
        # columns j*d..(j+1)*d-1 hold map j's linear part and shift
        mats = np.hstack([mp.matrix.T for mp in maps])
        shifts = np.concatenate([mp.trans for mp in maps])
        stack = (hull @ mats + shifts).reshape(h, m, d).swapaxes(0, 1).reshape(m * h, d)
        self.images = stack.reshape(m, h, d)
        self.means = (F_cloud._mean @ mats + shifts).reshape(m, d)
        self.infl = F_cloud.eps * np.array([mp.ratio for mp in maps])
        self.lo, self.hi = np.empty((2, m, len(self.grid)))
        run = max(1, _PROJ_BUDGET // h)
        for j in range(0, m, run):
            block, e = stack[j * h:(j + run) * h], self.infl[j:j + run, None]
            seg, cols = np.arange(0, len(block), h), max(1, _PROJ_BUDGET // len(block))
            for i in range(0, len(self.grid), cols):
                proj = block @ self.grid[i:i + cols].T
                self.lo[j:j + run, i:i + cols] = np.minimum.reduceat(proj, seg) - e
                self.hi[j:j + run, i:i + cols] = np.maximum.reduceat(proj, seg) + e


def diffuseness_constant(maps, F_cloud, directions=2000, *, need=None, table=None):
    """Certified lower bound on min over hyperplanes of the farthest-image distance.

    For each direction the optimal offset has closed form: the images project
    to intervals, and the objective is the half-gap between the largest lower
    and smallest upper endpoint after eps-inflation.  A Lipschitz correction
    covers the directions between grid points.  The grid values are read off
    a `_MapTable`: `table`, built on `F_cloud` and `directions` for some base
    maps whose row indices `maps` then lists, or else one built for `maps`.
    With `need` the call stops once the side of `need` that the full c_low
    lies on is settled (README, "Certificates").
    """
    pts, directions = F_cloud.points, int(directions)
    if len(maps) == 0 or len(pts) == 0 or directions < 1:
        raise InvalidInputError("need a nonempty family, a nonempty base cloud and directions >= 1")
    d = pts.shape[1]
    if len(maps) == 1:
        p0 = (maps[0] if table is None else table.maps[maps[0]]).apply(pts[:1])[0]
        return DiffuseResult(0.0, Hyperplane(np.eye(d)[0], float(p0[0])), 0.0, 0.0,
                             note="single map: every hyperplane through its image defeats it")
    if not _width_exceeds(F_cloud, max(F_cloud.eps, 1e-12)):
        base_w = F_cloud.width
        return DiffuseResult(0.0, base_w.witness, 0.0, 0.0,
                             note="degenerate base cloud: width %.3g is below resolution" % base_w.w)

    rows = maps
    if table is None:
        table, rows = _MapTable(maps, F_cloud, directions), slice(None)
    # the image of the family's j-th map starts at stack[starts[j]]
    stack = table.images[rows].reshape(-1, d)
    starts = np.arange(0, len(stack), table.images.shape[1])
    infl = table.infl[rows]
    # mean of all image points = mean over maps of the image of the cloud mean
    center = table.means[rows].mean(axis=0)
    lip = float(np.linalg.norm(stack - center, axis=1).max())

    cvals = np.maximum(0.0, 0.5 * (table.lo[rows].max(axis=0) - table.hi[rows].min(axis=0)))
    k = int(np.argmin(cvals))
    raw_min, u_best = float(cvals[k]), table.grid[k]
    tol = lip * _coverage_halfangle(d, directions)

    def c_of(u):
        pr = stack @ u
        L = float((np.minimum.reduceat(pr, starts) - infl).max())
        H = float((np.maximum.reduceat(pr, starts) + infl).min())
        return max(0.0, 0.5 * (L - H)), 0.5 * (L + H)

    if d == 2 and (need is None or max(0.0, raw_min - tol) >= need):
        th0 = math.atan2(u_best[1], u_best[0])
        span = math.pi / directions
        margin = 1e-9 * max(1.0, lip, float(np.abs(stack).max()))

        def f(th):
            return c_of(np.array([math.cos(th), math.sin(th)]))[0]

        for a, b, x1, f1, x2, f2 in _golden_steps(f, th0 - span, th0 + span, 50):
            if need is not None and \
                    min(raw_min, max(f1, f2) - lip * (b - a)) - tol > need + margin:
                th, v = (x1, f1) if f1 <= f2 else (x2, f2)
                break
        else:
            th = 0.5 * (a + b)
            v = f(th)
        if v < raw_min:
            raw_min = v
            u_best = np.array([math.cos(th), math.sin(th)])
    _, offset = c_of(u_best)
    return DiffuseResult(max(0.0, raw_min - tol), Hyperplane(u_best, offset), raw_min, tol)


_SUBSET_FROM = 1024   # least ball size that gets a subset floor
_SUBSET_SIZE = 256    # about how many points the subset holds
# 16 unit directions in counter-clockwise order; row k + 8 is minus row k
_SUPPORT_DIRS = np.array([[math.cos(t), math.sin(t)] for t in np.arange(8) * (math.pi / 8)])
_SUPPORT_DIRS = np.concatenate((_SUPPORT_DIRS, -_SUPPORT_DIRS))
_SUPPORT_PREV = np.roll(np.arange(16), 1)


def _packing_width_bound(n, spacing, xi):
    """Lower bound on the half-thickness of any slab holding n planar points
    that lie in a ball of radius xi, pairwise at least `spacing` apart
    (README, "Ball-wise checks")."""
    if n < 2 or spacing <= 0:
        return 0.0
    area = n * math.pi * spacing * spacing / 4.0
    return max(0.0, (area / (2.0 * xi + spacing) - spacing) / 2.0)


def _support_floor(pts):
    """Lower bound on the half-thickness of any slab holding the planar points:
    the exact half-width of the polygon on their support points in the 16
    `_SUPPORT_DIRS` (README, "Ball-wise checks"); fewer than 3 support
    points, or no edge of 1e-15 between them, give 0."""
    i = (_SUPPORT_DIRS @ pts.T).argmax(axis=1)
    hv = pts[i[i != i[_SUPPORT_PREV]]]
    u = _edge_normal_width(hv) if len(hv) >= 3 else None
    return 0.0 if u is None else _slab(hv, u)[0]


class _BallIndex:
    """What `_BallWidths` needs of a cloud, whatever its beta: the KD-tree
    and, for planar clouds, KD-trees of strided copies (`strided`, entry
    k - 1 holding every 2^k-th point, down to `_SUBSET_SIZE` points), built
    at once; the spacing and the neighbour distances `near`, on first use."""

    def __init__(self, pts):
        self.pts = pts
        self.tree = _cKDTree(pts)
        self.planar = pts.shape[1] == 2 and len(pts) >= 2
        self.strided = []
        while self.planar and len(pts) >> len(self.strided) + 1 >= _SUBSET_SIZE:
            self.strided.append(_cKDTree(pts[::2 << len(self.strided)]))

    @cached_property
    def near(self):
        """Each point's distances to its two nearest other points (inf where
        there are fewer); only `_flat_ball_search` ranks by them."""
        return self.tree.query(self.pts, k=[2, 3])[0]

    @cached_property
    def spacing(self):
        """The least distance between two points of a planar cloud, else 0:
        read off `near` once that is built, else off one bounded query
        (README, "Ball-wise checks")."""
        if not self.planar:
            return 0.0
        if "near" in self.__dict__:
            return float(self.near[:, 0].min())
        d0 = self.tree.query(self.pts[0], k=2)[0][1]
        least = float(self.tree.query(self.pts, k=2, distance_upper_bound=np.nextafter(d0, np.inf))
                      [0][:, 1].min())
        return least if least < np.inf else float(self.tree.query(self.pts, k=2)[0][:, 1].min())


class _BallWidths:
    """Slab widths of one cloud inside balls B(x, xi), one ball per call.

    The cloud's `_ball_index`, built once per cloud, supplies the KD-tree,
    the strided copies and the spacing.  A call returns (points in the ball,
    ratio, WidthResult) with ratio = (w - slack) / xi, or ratio and
    WidthResult None for a ball that its packing, subset or ball floor
    clears (`cleared` counts them).  A caller that has counted the ball's
    points passes the count as `n`.  README, "Ball-wise checks", gives the
    floors and why no cleared ball can change a result.
    """

    def __init__(self, cloud, beta, slack):
        self.pts = cloud.points
        self.beta = float(beta)
        self.slack = float(slack)
        index = cloud._ball_index
        self.tree, self.spacing, self.strided = index.tree, index.spacing, index.strided
        self.least = {}
        self.most = {}
        self.cleared = 0

    def _ratio(self, f, xi):
        return (f - 1e-12 * max(1.0, f) - self.slack) / xi

    def _floor(self, x, xi, n, bar):
        """Lower bound on the ratio of the n-point ball B(x, xi): the packing
        floor, or where that does not exceed `bar`, the larger of it and the
        subset floor."""
        floor = (_packing_width_bound(n, self.spacing, xi) - self.slack) / xi
        if floor > bar or n <= _SUBSET_FROM or not self.strided:
            return floor
        level = self.strided[(n // _SUBSET_SIZE).bit_length() - 2]
        idx = level.query_ball_point(x, xi * (1.0 - 1e-9))
        if not idx:
            return floor
        return max(floor, self._ratio(_support_floor(level.data.take(idx, axis=0)), xi))

    def _ball_floor(self, ball, xi):
        """Lower bound on the ratio of the ball B(x, xi) holding the points
        `ball`: their support floor."""
        return self._ratio(_support_floor(ball), xi) if ball.shape[1] == 2 else -math.inf

    def __call__(self, x, xi, n=None):
        bar = max(self.beta, self.least.get(xi, math.inf))
        if bar < math.inf:
            if n is None:
                n = int(self.tree.query_ball_point(x, xi, return_length=True))
            if self._floor(x, xi, n, bar) > bar:
                self.cleared += 1
                return n, None, None
        ball = self.pts.take(self.tree.query_ball_point(x, xi), axis=0)
        if bar < self.most.get(xi, -math.inf) and self._ball_floor(ball, xi) > bar:
            self.cleared += 1
            return len(ball), None, None
        res = width(ball)
        ratio = (res.w - self.slack) / xi
        if ratio < self.least.get(xi, math.inf):
            self.least[xi] = ratio
        if ratio > self.most.get(xi, -math.inf):
            self.most[xi] = ratio
        return len(ball), ratio, res


def empirical_diffuse_check(cloud, beta, scale_count=3, sample_count=200, seed=0):
    """Sampled local test: inside balls of the scale ladder the cloud must
    escape every slab of half-thickness beta * radius.

    The ratio of a ball is (w - eps) / radius.  The worst ratio and its
    witness are those of measuring every ball; `cleared` counts the balls
    `_BallWidths` skips by its floors.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise InvalidInputError("beta must be positive and finite")
    if not (math.isfinite(cloud.eps) and cloud.eps >= 0):
        raise InvalidInputError("eps must be finite and non-negative")
    pts = cloud.points
    if len(pts) == 0:
        raise InvalidInputError("empty cloud")
    diam = cloud.diameter()
    scale_count = int(scale_count)
    sample_count = int(sample_count)
    if scale_count < 1 or diam <= 0:
        raise InvalidInputError("need scale_count >= 1 and a cloud of positive diameter")
    if sample_count < 1:
        raise InvalidInputError("need at least one ball (sample_count >= 1)")
    xis = [diam / 4.0 * 0.5 ** j for j in range(scale_count)]
    if xis[-1] < 10.0 * cloud.eps:
        raise InvalidInputError(
            "smallest scale %.3g is under 10*eps=%.3g; render deeper" % (xis[-1], 10 * cloud.eps)
        )
    per_scale = -(-sample_count // scale_count)
    rng = np.random.Generator(np.random.Philox(key=seed))
    balls = _BallWidths(cloud, beta, cloud.eps)
    worst = None
    for xi in xis:
        centers = pts[rng.integers(0, len(pts), size=per_scale)]
        sizes = balls.tree.query_ball_point(centers, xi, return_length=True).tolist()
        for x, n in zip(centers, sizes):
            n_in, ratio, res = balls(x, xi, n)
            if ratio is not None and (worst is None or ratio < worst["ratio"]):
                worst = {"ratio": ratio, "center": x.tolist(), "xi": xi,
                         "width": res.w, "hyperplane": res.witness, "points_in_ball": n_in}
    return {"pass": bool(worst["ratio"] > beta), "beta": float(beta),
            "worst_ratio": worst["ratio"], "witness": worst,
            "tested": per_scale * scale_count, "cleared": balls.cleared,
            "scales": xis, "eps": cloud.eps}


def _flat_ball_search(cloud, beta, budget, seed, xi_floor=None):
    """Seeded hunt for one flat ball: random centers plus the most isolated
    points, over a dyadic scale ladder down to the sample's own resolution.

    A ball holding at most d points has width exactly zero, so isolated or
    near-isolated local configurations are the natural witnesses; candidates
    are ranked by their second-neighbour distance so those configurations are
    reached within the budget (30% of it, at most one per point).  Every
    examined ball counts against the budget, the `cleared` ones too.
    """
    pts = cloud.points
    n = len(pts)
    if n == 0:
        raise InvalidInputError("empty cloud")
    # second-neighbour distance, the first where there is no second; taken
    # before `_BallWidths` reads the spacing, which then comes off it
    near = cloud._ball_index.near
    d2 = np.where(np.isfinite(near[:, 1]), near[:, 1], near[:, 0])
    balls = _BallWidths(cloud, beta, 0.0)
    diam = cloud.diameter()
    if xi_floor is None:
        xi_floor = 1.25 * cloud.eps
    xi_floor = max(float(xi_floor), 1e-12)
    scales = []
    xi = diam / 4.0
    while xi > xi_floor * (1 + 1e-9) and len(scales) < 40:
        scales.append(xi)
        xi /= 2.0
    scales.append(xi_floor)

    rng = np.random.Generator(np.random.Philox(key=seed))
    budget = int(budget)
    best = None
    found = None
    examined = 0
    counts = dict.fromkeys(scales, 0)

    def examine(x, xi, n_in=None):
        nonlocal best, found, examined
        examined += 1
        counts[xi] += 1
        n_in, ratio, res = balls(x, xi, n_in)
        if ratio is None:
            return
        rec = {"ratio": float(ratio), "width": float(res.w), "xi": float(xi),
               "center": [float(v) for v in x], "points_in_ball": n_in}
        if best is None or ratio < best["ratio"]:
            best = rec
        if found is None and ratio <= beta:
            found = rec

    n_random = budget - min(n, max(1, int(budget * 0.3)))
    per_scale = max(1, n_random // len(scales))
    for xi in scales:
        centers = pts[rng.integers(0, n, size=per_scale)][:max(0, budget - examined)]
        sizes = balls.tree.query_ball_point(centers, xi, return_length=True).tolist()
        for x, n_in in zip(centers, sizes):
            examine(x, xi, n_in)

    # targeted pass: each isolated candidate at the largest ladder scale
    # below its second-neighbour distance
    order = np.argsort(-d2, kind="stable")
    for i in order:
        if examined >= budget or found is not None:
            break
        fitting = [xi for xi in scales if xi < d2[i]]
        examine(pts[i], fitting[0] if fitting else scales[-1])

    per_scale_rows = [[xi, counts[xi], balls.least.get(xi)] for xi in scales]
    return {"found": found, "best": best, "examined": examined,
            "cleared": balls.cleared, "scales": scales, "per_scale": per_scale_rows,
            "budget": budget, "xi_floor": xi_floor}


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


# most candidate points `ahlfors_ratio_check` measures in one batch of balls
_BALL_CANDIDATES = 1 << 14


def _capped_runs(sizes, cap):
    """Consecutive runs [lo, hi) of `sizes`, each summing to at most `cap`
    unless it holds a single item."""
    lo, total = 0, 0
    for i, n in enumerate(sizes.tolist()):
        if total + n > cap and i > lo:
            yield lo, i
            lo, total = i, 0
        total += n
    yield lo, len(sizes)


def ahlfors_ratio_check(measured, alpha, sample_count=1000, seed=0, r_count=6,
                        r_range=None):
    """Min/max of ball-mass over r^alpha across sampled centers and radii.

    Outer mass counts cells meeting the ball, inner mass counts cells inside;
    the max ratio uses outer, the min uses inner, so the spread is honest.
    A cell can meet B(x, r) only when its point lies within r + max(radii)
    of x, so each ball filters the KD-tree's candidates within that reach,
    in ascending index order: the masses summed are the same sequence, and
    the sums the same, as over the whole cloud.  The balls of one radius are
    queried, measured and masked in batches of at most `_BALL_CANDIDATES`
    candidates (a larger ball alone); each ball's two sums stay separate.
    """
    sample_count, r_count = int(sample_count), int(r_count)
    if sample_count < 1 or r_count < 1:
        raise InvalidInputError("sample_count and r_count must be >= 1")
    if not (math.isfinite(alpha) and alpha > 0):
        raise InvalidInputError("alpha must be positive and finite")
    pts, masses, radii = measured.points, measured.masses, measured.cell_radii
    total = masses.sum()
    if abs(total - 1.0) > 1e-6:
        masses = masses / total
    cell = float(radii.max())
    cloud = PointCloud(pts, cell)
    diam = cloud.diameter()
    if r_range is None:
        r_hi = diam / 4.0
        r_lo = max(8.0 * cell, diam * 1e-4)
        if r_lo >= r_hi:
            r_lo = r_hi  # shallow cloud: only the top scale clears the cells
    else:
        r_lo, r_hi = r_range
    rs = np.geomspace(r_hi, r_lo, r_count)
    rng = np.random.Generator(np.random.Philox(key=seed))
    per = -(-sample_count // len(rs))
    tree = _cKDTree(pts)
    c1, c2 = np.inf, 0.0
    samples = []
    for rad in rs:
        idx = rng.choice(len(pts), size=per, p=masses)
        reach = (rad + cell) * (1.0 + 1e-9)
        denom = rad ** alpha
        sizes = np.asarray(tree.query_ball_point(pts[idx], reach, return_length=True))
        for lo, hi in _capped_runs(sizes, _BALL_CANDIDATES):
            x = pts[idx[lo:hi]]
            near = [np.array(got, dtype=np.intp)
                    for got in tree.query_ball_point(x, reach, return_sorted=False)]
            for got in near:
                got.sort()
            cut = np.cumsum([0] + [len(got) for got in near]).tolist()
            near = near[0] if len(near) == 1 else np.concatenate(near)
            dist = pts[near]  # offsets from each ball's centre, then their lengths
            for b in range(hi - lo):
                dist[cut[b]:cut[b + 1]] -= x[b]
            dist = np.linalg.norm(dist, axis=1)
            m, r = masses[near], radii[near]
            meets, inside = dist <= rad + r, dist + r <= rad
            for s, e in zip(cut, cut[1:]):  # one ball's cells are near[s:e]
                outer = float(m[s:e][meets[s:e]].sum())
                inner = float(m[s:e][inside[s:e]].sum())
                c1 = min(c1, inner / denom)
                c2 = max(c2, outer / denom)
                samples.append({"r": float(rad), "inner": inner, "outer": outer})
    spread = c2 / c1 if c1 > 0 else math.inf
    return AhlforsResult(float(c1), float(c2), float(spread), samples)


# ---------------------------------------------------------------------------
# canonical families and I/O


def grid_cell_coords(letter, b, d):
    """Decode a letter index into d base-b digits, first coordinate most significant."""
    out = []
    for j in range(d - 1, -1, -1):
        out.append((letter // b ** j) % b)
    return tuple(out)


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


def _csv_text(rows):
    """Headerless CSV of a float matrix, each value written by `repr`; the
    values are formatted a column at a time and joined once."""
    cols = [map(repr, col) for col in rows.T.tolist()]
    return "\n".join([*map(",".join, zip(*cols)), ""])


def _csv_rows(text, what):
    """Float matrix of a headerless CSV (README, "File formats"): each row's
    commas are counted on the text's bytes, and the cells outside blank rows
    come from one split and one float conversion."""
    raw = text.encode("ascii", "replace").rstrip()
    b = np.frombuffer(raw, np.uint8)
    ends = np.concatenate(([-1], np.flatnonzero(b == 10), [len(b)]))
    commas = np.diff(np.flatnonzero(b == 44).searchsorted(ends))
    space = ((b - np.uint8(11)) < 3) | (b == 9) | (b == 32)
    filled = np.diff(np.flatnonzero(space).searchsorted(ends)) < np.diff(ends) - 1
    widths = commas[filled]
    if widths.size and (widths != widths[0]).any():
        raise InvalidInputError("%s CSV rows must all have the same number of columns" % what)
    cells = raw.replace(b"\n", b",").split(b",")
    if not filled.all():
        cells = list(compress(cells, np.repeat(filled, commas + 1).tolist()))
    try:
        flat = np.array(cells, dtype=float)
    except ValueError:
        raise InvalidInputError("%s CSV holds a value that is not a number" % what)
    if not np.isfinite(flat).all():
        raise InvalidInputError("%s CSV holds a value that is not finite" % what)
    return flat.reshape(len(widths), -1) if widths.size else flat.reshape(0, 2)


def cloud_to_csv(cloud):
    return _csv_text(cloud.points)


def cloud_from_csv(text, eps=0.0):
    return PointCloud(_csv_rows(text, "cloud"), eps)


def cloud_to_pgm(cloud, pixels=512):
    """Binary PGM raster of the unit square's first two coordinates; a pixel
    is white iff some point falls inside it."""
    pts = cloud.points
    w = h = int(pixels)
    if w < 1:
        raise InvalidInputError("pixels must be >= 1")
    raster = np.zeros((h, w), dtype=np.uint8)
    if len(pts):
        xy = pts[:, :2]
        ij = np.floor(xy * [w, h]).astype(np.int64)
        ij = np.clip(ij, 0, [w - 1, h - 1])
        raster[h - 1 - ij[:, 1], ij[:, 0]] = 255
    header = ("P5\n%d %d\n255\n" % (w, h)).encode()
    return header + raster.tobytes()
