"""TIN construction, linear surface interpolation, DSM rasterization with
a kill-distance filter, polygon clipping, and vertical accuracy checks.

The triangulation runs in array rounds over the xy-projection (GPU-DT,
Rong et al. 2008; gDel2D, Qi, Cao & Tan 2012), inside an enclosing
super-triangle, in int32 triangle vertex and neighbour arrays of 2n + 1
rows: each round inserts one pending point into every triangle that
holds some, then Lawson passes flip illegal edges until none is left.
Every orientation and in-circle test, the tie rule and the clip rings'
self-intersection check included, is one array predicate, :func:`_signs`:
a float filter over numpy blocks, exact integers where it cannot decide
(Shewchuk 1997); pixel-grid clouds are almost entirely cocircular, so
naive float predicates would corrupt the topology. Exact in-circle ties
are broken by a symbolic perturbation of the vertices' lifts, so the
triangle array, each row starting at its lowest vertex, is the unique
Delaunay triangulation of the perturbed vertices, a function of the
deduplicated vertex array alone. The tests hold it bit for bit to a
scalar Bowyer-Watson oracle that has its own scalar predicates. Being
unique, it can be read locally: for point queries, :func:`build_tin`
triangulates only boxes around the query points and keeps the triangles
whose circumdisk the box certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .errors import (
    CollinearInput,
    EmptyGcpSet,
    InvalidPolygon,
    OpenRing,
    SelfIntersection,
    TooFewPoints,
)
from .geometry import GridGeometry, Point2
from .georectify import Gcp
from .stereo import PointCloud

NODATA = -9999.0
DEFAULT_KILL_DISTANCE = 1.0

_BARY_EPS = 1e-12
_ORIENT_FILTER = 1e-15
_INCIRCLE_FILTER = 3e-15
_SUPER_MARGIN = 1e6
_BLOCK = 1 << 14  # predicate lanes per numpy block
_CLAIM_PAIRS = 1 << 16  # candidate (triangle, cell) pairs per DSM claim block
_UNCLAIMED = np.iinfo(np.int64).max
_NEAR_SPACINGS = 8.0  # first side of a query's window, in mean point spacings
_NEAR_BUDGET = 0.25  # what all windows may cost, as a share of the vertices
_WINDOW_COST = 1024  # a window's fixed cost, in vertices of a whole-set build


# --- exact-fallback predicates ----------------------------------------------
#
# Each predicate's determinant is written once, for floats, float arrays and
# Python ints alike. The float value decides when it clears its error bound;
# otherwise the same expression runs on exact integers.

def _orient_terms(ax, ay, bx, by, cx, cy):
    """Doubled signed area of (a, b, c) and the sum of its two products'
    magnitudes."""
    t1 = (bx - ax) * (cy - ay)
    t2 = (by - ay) * (cx - ax)
    return t1 - t2, abs(t1) + abs(t2)


def _incircle_terms(ax, ay, bx, by, cx, cy, dx, dy):
    """In-circle determinant of d against (a, b, c) and its permanent."""
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = (
        adx * (bdy * clift - cdy * blift)
        - ady * (bdx * clift - cdx * blift)
        + alift * (bdx * cdy - cdx * bdy)
    )
    permanent = (
        abs(adx) * (abs(bdy * clift) + abs(cdy * blift))
        + abs(ady) * (abs(bdx * clift) + abs(cdx * blift))
        + abs(alift) * (abs(bdx * cdy) + abs(cdx * bdy))
    )
    return det, permanent


def _exact_sign(terms, *coords) -> int:
    """Sign of ``terms``' determinant in exact integer arithmetic: every
    coordinate times the largest of their power-of-two denominators. The
    determinant is homogeneous, so the common scale keeps its sign."""
    ratios = [float(v).as_integer_ratio() for v in coords]
    den = max(d for _, d in ratios)
    det, _ = terms(*(num * (den // d) for num, d in ratios))
    return (det > 0) - (det < 0)


def _signs(terms, eps, xs, ys, *idx) -> np.ndarray:
    """int8 signs of ``terms`` over vertex index arrays, one per corner:
    +1, -1 or 0 as (a, b, c) turns CCW, CW or not at all, or as d lies
    inside, outside or on the circle through CCW (a, b, c). The float
    filter runs on numpy blocks of at most ``_BLOCK`` lanes, and only the
    lanes it leaves undecided take the exact path."""
    out = np.empty(len(idx[0]), np.int8)
    for start in range(0, out.size, _BLOCK):
        coords = []
        for v in idx:
            v = v[start:start + _BLOCK]
            coords += (xs[v], ys[v])
        # An overflow leaves the lane undecided, as in Python floats.
        with np.errstate(over="ignore", invalid="ignore"):
            det, magnitude = terms(*coords)
            bound = eps * magnitude
        sign = (det > bound).astype(np.int8) - (det < -bound)
        for lane in np.flatnonzero(sign == 0).tolist():
            sign[lane] = _exact_sign(terms, *(c[lane] for c in coords))
        out[start:start + sign.size] = sign
    return out


def _incircle_tie(xs, ys, a, b, c, d) -> np.ndarray:
    """int8 in-circle signs of index arrays (a, b, c, d) whose exact test
    ties, by simulation of simplicity (Edelsbrunner & Mücke 1990): vertex
    i's lift x^2 + y^2 is raised by eps^(i+1), eps -> 0, so in each lane
    the lowest index decides, by the orientation of the other three,
    signed (+, -, +, -) by its position. Four distinct cocircular points
    have no three collinear, so no answer is 0."""
    quad = np.column_stack([a, b, c, d])
    pos = quad.argmin(axis=1)
    rest = quad[np.arange(4) != pos[:, None]].reshape(-1, 3).T
    sign = _signs(_orient_terms, _ORIENT_FILTER, xs, ys, *rest)
    return np.where(pos % 2 == 1, -sign, sign)


# --- types -------------------------------------------------------------------

@dataclass(frozen=True)
class Tin:
    """Triangulated surface, all arrays read-only: vertices (n, 3) float64
    x, y, z and triangles (m, 3) int64 vertex indices, oriented
    counterclockwise in the xy-plane.

    ``queries`` is None for a whole-set TIN. A TIN that ``build_tin``
    made for point queries (``near``) holds a certified subset of the
    whole-set rows and keeps those query points, (k, 2) xy: the point
    samplers answer only them, and :func:`rasterize_tin` refuses it."""

    vertices: np.ndarray
    triangles: np.ndarray
    queries: Optional[np.ndarray] = None

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        v.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        if self.queries is not None:
            q = np.array(self.queries, dtype=np.float64).reshape(-1, 2)
            q.flags.writeable = False
            object.__setattr__(self, "queries", q)

    def max_edge_lengths(self) -> np.ndarray:
        """Longest xy edge per triangle, one edge at a time so that no
        temporary holds more than m values."""
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        a, b, c = self.triangles.T
        return np.maximum.reduce(
            [np.hypot(x[i] - x[j], y[i] - y[j]) for i, j in ((a, b), (b, c), (c, a))]
        )


@dataclass(frozen=True)
class DsmGrid:
    """Raster of elevations; NODATA cells hold -9999."""

    geometry: GridGeometry
    values: np.ndarray
    nodata: ClassVar[float] = NODATA

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.geometry.n_rows, self.geometry.n_cols):
            raise ValueError("value array does not match grid geometry")
        data = v[v != self.nodata]
        if data.size and not np.all(np.isfinite(data)):
            raise ValueError("non-sentinel values must be finite")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ClipPolygon:
    """One outer ring (counterclockwise) plus optional holes (clockwise);
    rings are closed (first vertex repeated last)."""

    rings: tuple[tuple[Point2, ...], ...]

    def __post_init__(self):
        if not self.rings:
            raise InvalidPolygon("polygon needs at least an outer ring")
        normalized = []
        for ri, ring in enumerate(self.rings):
            pts = tuple(Point2(float(p[0]), float(p[1])) for p in ring)
            if len(pts) < 4:
                raise InvalidPolygon(f"ring {ri} has fewer than 3 distinct vertices")
            if not all(np.isfinite(p.x) and np.isfinite(p.y) for p in pts):
                raise InvalidPolygon(f"ring {ri} has non-finite vertices")
            if pts[0] != pts[-1]:
                raise OpenRing(
                    f"ring {ri} starts at {tuple(pts[0])} but ends at {tuple(pts[-1])}"
                )
            if _ring_self_intersects(pts):
                raise SelfIntersection(f"ring {ri} self-intersects")
            area = _signed_area(pts)
            if area == 0:
                raise InvalidPolygon(f"ring {ri} has zero area")
            want_ccw = ri == 0
            if (area > 0) != want_ccw:
                pts = tuple(reversed(pts))
            normalized.append(pts)
        object.__setattr__(self, "rings", tuple(normalized))

    @property
    def outer(self) -> tuple[Point2, ...]:
        return self.rings[0]

    @property
    def holes(self) -> tuple[tuple[Point2, ...], ...]:
        return self.rings[1:]


@dataclass(frozen=True)
class VerticalCheckReport:
    """Per-GCP surface-minus-survey elevation differences. GCPs outside
    the surface hull are listed with None and excluded from the stats."""

    per_gcp: tuple[tuple[str, Optional[float], Optional[float]], ...]
    mean_dz: Optional[float]
    rmse_dz: Optional[float]
    max_abs_dz: Optional[float]
    n_outside: int


def _signed_area(ring: tuple[Point2, ...]) -> float:
    s = 0.0
    for (x0, y0), (x1, y1) in zip(ring[:-1], ring[1:]):
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def _segments_intersect(xs, ys, p1, p2, p3, p4) -> np.ndarray:
    """Whether closed segments (p1, p2) and (p3, p4), vertex index arrays,
    share a point: each straddles the other's line, or all four points are
    collinear and the segments' bounding boxes meet."""
    d1, d2, d3, d4 = _signs(
        _orient_terms, _ORIENT_FILTER, xs, ys, np.concatenate([p3, p3, p1, p1]),
        np.concatenate([p4, p4, p2, p2]), np.concatenate([p1, p2, p3, p4]),
    ).reshape(4, -1)
    boxes = True
    for c in (xs, ys):
        boxes &= np.maximum(np.minimum(c[p1], c[p2]), np.minimum(c[p3], c[p4])) <= (
            np.minimum(np.maximum(c[p1], c[p2]), np.maximum(c[p3], c[p4]))
        )
    return (d1 != d2) & (d3 != d4) | ((d1 | d2 | d3 | d4) == 0) & boxes


def _ring_self_intersects(ring: tuple[Point2, ...]) -> bool:
    """Whether two non-adjacent edges of a closed ring share a point. Edge
    i runs from vertex i to i + 1. A sweep over the edges in order of
    their least x pairs each edge with the later ones whose x-ranges meet
    its own, and :func:`_segments_intersect` tests the non-adjacent pairs
    in blocks of about ``_BLOCK``, so memory stays O(m)."""
    xs, ys = np.array(ring, dtype=np.float64).T
    m = len(ring) - 1
    lo, hi = np.minimum(xs[:-1], xs[1:]), np.maximum(xs[:-1], xs[1:])
    order = np.argsort(lo, kind="stable")
    # Sorted edges p + 1 .. end[p] - 1 start before sorted edge p ends.
    later = np.searchsorted(lo[order], hi[order], side="right") - np.arange(m) - 1
    bounds = _block_bounds(later, _BLOCK)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        p, k = _expand(later[start:stop])
        p += start
        i, j = order[p], order[p + 1 + k]
        # Edge m - 1 ends where edge 0 starts.
        keep = (np.abs(i - j) != 1) & (np.abs(i - j) != m - 1)
        i, j = i[keep], j[keep]
        if _segments_intersect(xs, ys, i, i + 1, j, j + 1).any():
            return True
    return False


def _block_bounds(counts: np.ndarray, size: int) -> list[int]:
    """Cuts of ``counts``' positions into runs of about ``size`` summed
    counts each (a run holds at least one position), from 0 to len."""
    cuts = np.searchsorted(np.cumsum(counts), np.arange(size, counts.sum(), size), side="right")
    return np.unique(np.concatenate([[0], cuts, [len(counts)]])).tolist()


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner index and rank within the owner of each of sum(counts) slots."""
    owner = np.repeat(np.arange(counts.size), counts)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, rank


# --- triangulation ------------------------------------------------------------

def _dedupe_xy(xyz: np.ndarray) -> np.ndarray:
    """Merge points of exactly equal xy into one vertex, keeping the
    first-seen xy and the highest z (of equal z, 0.0 and -0.0, the first
    seen); survivors stay in input order. Exact predicates triangulate
    distinct points however close, so only exact duplicates, which
    cannot be inserted, need merging.

    One stable lexsort by (x, y, -z) puts each group of equal xy
    together, its highest z first and ties in input order."""
    x, y, z = xyz.T
    order = np.lexsort((-z, y, x))
    new = np.ones(order.size, bool)
    new[1:] = (np.diff(x[order]) != 0) | (np.diff(y[order]) != 0)
    start = np.flatnonzero(new)
    first = np.minimum.reduceat(order, start)
    # Ordering the groups before the gather makes no (n, 3) temporary:
    # freeing one raised glibc's mmap threshold, and with it `dsm`'s
    # peak RSS on the C9 fixture by about 7 MB.
    keep = np.argsort(first)
    first, top = first[keep], order[start[keep]]
    return np.column_stack([x[first], y[first], z[top]])


def _next(h: np.ndarray) -> np.ndarray:
    """The half-edge after h in its triangle."""
    return h + np.where(h % 3 == 2, -2, 1)


def _prev(h: np.ndarray) -> np.ndarray:
    """The half-edge before h in its triangle."""
    return h + np.where(h % 3 == 0, 2, -1)


class _Triangulator:
    """Delaunay triangulation of xy coordinates in array rounds, after
    GPU-DT (Rong, Tan, Cao & Stephanus 2008) and gDel2D (Qi, Cao &
    Tan 2012).

    Triangle t has counterclockwise vertices ``tv[t]``. Half-edge
    ``3t + k`` is its edge ``(tv[t, k], tv[t, (k + 1) % 3])``, and
    ``tn[t, k]`` is the half-edge of the same edge in the neighbouring
    triangle, or -1 on the super-triangle's hull. Every pending point
    knows a triangle that contains it, boundary included. Each round,
    every triangle that holds pending points inserts the one of median
    rank in (x, y) order, so near its middle: a 1-3 split, or a 2-4
    split of it and its neighbour when the point lies on an edge, both
    triangles claimed by the lowest point index. Lawson passes then flip
    every illegal edge that is the lowest illegal edge of both its
    triangles, until no edge is illegal. Each insert adds two rows, so n
    points fill 2n + 1 (int32 half-edge ids hold up to about 357 million
    points). The result is the unique Delaunay triangulation of the
    points perturbed as in :func:`_incircle_tie`, which no insertion
    order changes.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        span = max(
            float(np.max(xs) - np.min(xs)),
            float(np.max(ys) - np.min(ys)),
            1.0,
        )
        cx = float((np.max(xs) + np.min(xs)) / 2.0)
        cy = float((np.max(ys) + np.min(ys)) / 2.0)
        m = span * _SUPER_MARGIN
        n = len(xs)
        self.xs = np.append(xs, [cx - 2.0 * m, cx + 2.0 * m, cx])
        self.ys = np.append(ys, [cy - m, cy - m, cy + 2.0 * m])
        rows = 2 * n + 1
        self.tv = np.zeros((rows, 3), np.int32)
        self.tv[0] = n, n + 1, n + 2
        self.tn = np.full((rows, 3), -1, np.int32)
        self.rows = 1
        self.pending = np.lexsort((ys, xs))  # kept in (x, y) order
        self.loc = np.zeros(n, np.int32)
        # Scratch: identity, all -1 and all False between steps.
        self.moved = np.arange(3 * rows, dtype=np.int32)
        self.slot = np.full(rows, -1, np.int32)
        self.dirty = np.zeros(rows, bool)

    def _orient(self, i, j, k) -> np.ndarray:
        return _signs(_orient_terms, _ORIENT_FILTER, self.xs, self.ys, i, j, k)

    def _illegal(self, a, b, c, d) -> np.ndarray:
        """Whether d is inside the circumcircle of CCW (a, b, c), ties
        broken by :func:`_incircle_tie`."""
        xs, ys = self.xs, self.ys
        side = _signs(_incircle_terms, _INCIRCLE_FILTER, xs, ys, a, b, c, d)
        tie = np.flatnonzero(side == 0)
        side[tie] = _incircle_tie(xs, ys, a[tie], b[tie], c[tie], d[tie])
        return side > 0

    def _relink(self, old: np.ndarray, new: np.ndarray):
        """Move the edges at half-edges ``old`` to ``new`` and link both
        sides, also where the neighbour's edge moves in the same step."""
        tn, moved = self.tn.reshape(-1), self.moved
        mate = tn[old]
        moved[old] = new
        mate = np.where(mate >= 0, moved[mate], -1)
        moved[old] = old
        tn[new] = mate
        linked = mate >= 0
        tn[mate[linked]] = new[linked]

    def _pending_in(self, tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pending points that triangles ``tris`` hold, and for each
        the position of its triangle in ``tris``."""
        self.slot[tris] = np.arange(tris.size)
        at = self.slot[self.loc[self.pending]]
        self.slot[tris] = -1
        held = at >= 0
        return self.pending[held], at[held]

    def _insert_round(self) -> np.ndarray:
        """Insert the pending point of median rank into every
        triangle that holds any, unless a lower point claimed the triangle
        for a 2-4 split; returns the rows written."""
        tv, tn = self.tv, self.tn
        flat_tv = tv.reshape(-1)
        # A stable sort by triangle keeps each triangle's points in
        # (x, y) order.
        held = self.loc[self.pending]
        by_tri = np.argsort(held, kind="stable")
        first = np.flatnonzero(np.diff(held[by_tri], prepend=-1))
        count = np.diff(np.append(first, held.size))
        pick = by_tri[first + count // 2]
        p, t = self.pending[pick], held[pick].astype(np.int64)
        v = tv[t]
        o = self._orient(v.ravel(), v[:, [1, 2, 0]].ravel(), np.repeat(p, 3))
        zero = o.reshape(-1, 3) == 0
        # On edge h of t, p also splits the triangle u across it. On two
        # edges it is a vertex of t; a hull edge has nothing across.
        on_edge = zero.any(axis=1)
        h = 3 * t + zero.argmax(axis=1)
        m = tn.reshape(-1)[h].astype(np.int64)
        u = np.where(on_edge, m // 3, t)
        ok = (zero.sum(axis=1) <= 1) & ~(on_edge & (m < 0))
        claim = np.full(self.rows, _UNCLAIMED, np.int64)
        np.minimum.at(claim, np.append(t[ok], u[ok]), np.append(p[ok], p[ok]))
        win = ok & (claim[t] == p) & (claim[u] == p)
        if not win.any():
            raise CollinearInput("no point could be inserted; duplicate or collinear input")
        p, t, u, h, m, e = (a[win] for a in (p, t, u, h, m, on_edge))
        r0 = self.rows + 2 * np.arange(p.size)
        r1 = r0 + 1
        self.rows += 2 * p.size
        # Each fan's boundary half-edges, counterclockwise around its new
        # point, and its rows: row s becomes (boundary edge s, point).
        he3 = 3 * t[~e, None] + np.arange(3)
        he4 = np.column_stack([_next(h), _prev(h), _next(m), _prev(m)])[e]
        c3 = np.column_stack([t, r0, r1])[~e]
        c4 = np.column_stack([t, r0, u, r1])[e]
        w3, w4 = flat_tv[he3], flat_tv[he4]
        edge = np.append(he3, he4)
        rows = np.append(c3, c4)
        after = np.append(np.roll(c3, -1, axis=1), np.roll(c4, -1, axis=1))
        before = np.append(np.roll(c3, 1, axis=1), np.roll(c4, 1, axis=1))
        hub = np.append(np.repeat(p[~e], 3), np.repeat(p[e], 4))
        j = flat_tv[_next(edge)]
        self._relink(edge, 3 * rows)
        tv[rows] = np.column_stack([np.append(w3, w4), j, hub])
        tn[rows, 1] = 3 * after + 2
        tn[rows, 2] = 3 * before + 1
        self.loc[p] = -1
        self.pending = self.pending[self.loc[self.pending] >= 0]
        # A pending point of a split triangle goes to the child between
        # the spokes s and s + 1 that it lies between. Each half of a 2-4
        # fan is a fan of two children, its third never taken.
        lost = np.full(len(c4), -1)
        q, k = self._pending_in(np.concatenate([c3[:, 0], c4[:, 0], c4[:, 2]]))
        hub = np.concatenate([p[~e], p[e], p[e]])[k]
        w = np.concatenate([w3, w4[:, :3], w4[:, [2, 3, 0]]])[k]
        o0, o1, o2 = (self._orient(hub, w[:, s], q) for s in range(3))
        sector = np.where((o0 >= 0) & (o1 <= 0), 0, np.where((o1 >= 0) & (o2 <= 0), 1, 2))
        children = np.concatenate([
            c3, np.column_stack([c4[:, :2], lost]), np.column_stack([c4[:, 2:], lost])
        ])
        self.loc[q] = children[k, sector]
        return rows

    def _flip(self, h: np.ndarray, m: np.ndarray):
        """Flip the edges at half-edges h (triangles t = (a, b, c)) and m
        (triangles u = (b, a, d)) to triangles (c, a, d) and (d, b, c)."""
        tv, tn = self.tv, self.tn
        flat_tv = tv.reshape(-1)
        t, u = h // 3, m // 3
        a, b, c, d = flat_tv[h], flat_tv[_next(h)], flat_tv[_prev(h)], flat_tv[_prev(m)]
        self._relink(
            np.concatenate([_prev(h), _next(m), _prev(m), _next(h)]),
            np.concatenate([3 * t, 3 * t + 1, 3 * u, 3 * u + 1]),
        )
        tv[t] = np.column_stack([c, a, d])
        tv[u] = np.column_stack([d, b, c])
        tn[t, 2] = 3 * u + 2
        tn[u, 2] = 3 * t + 2
        # (c, a, d) lies left of the new diagonal d -> c.
        q, k = self._pending_in(np.append(t, u))
        k %= t.size
        left = self._orient(d[k], c[k], q) >= 0
        self.loc[q] = np.where(left, t[k], u[k])

    def _legalize(self, rows: np.ndarray):
        """Lawson passes from the edges of ``rows`` until none is illegal.
        Each pass tests every edge of a dirty triangle once and flips the
        illegal edges that are the lowest illegal edge of both their
        triangles; the triangles of every illegal edge stay dirty."""
        flat_tv, flat_tn, dirty = self.tv.reshape(-1), self.tn.reshape(-1), self.dirty
        none = np.iinfo(np.int64).max
        best = np.full(self.rows, none, np.int64)
        while True:
            dirty[rows] = True
            h = (3 * rows[:, None] + np.arange(3)).ravel()
            m = flat_tn[h].astype(np.int64)
            # An edge between two dirty triangles is tested from its
            # lower half-edge.
            test = (m >= 0) & (~dirty[m // 3] | (h < m))
            dirty[rows] = False
            h, m = h[test], m[test]
            bad = self._illegal(flat_tv[h], flat_tv[_next(h)], flat_tv[_prev(h)], flat_tv[_prev(m)])
            if not bad.any():
                return
            h, m = h[bad], m[bad]
            t, u = h // 3, m // 3
            edge = np.minimum(h, m)
            np.minimum.at(best, t, edge)
            np.minimum.at(best, u, edge)
            flip = (best[t] == edge) & (best[u] == edge)
            best[t] = best[u] = none
            self._flip(h[flip], m[flip])
            rows = np.unique(np.append(t, u))

    def run(self) -> np.ndarray:
        """Insert every point; returns the (2n + 1, 3) vertex array,
        super-triangle rows included."""
        while self.pending.size:
            self._legalize(self._insert_round())
        if self.rows != len(self.tv):
            raise CollinearInput("triangulation is incomplete; duplicate or collinear input")
        return self.tv


def _real_triangles(tv: np.ndarray, n_real: int) -> np.ndarray:
    """Rows of ``tv`` with no super-triangle vertex, each rotated so that
    its lowest vertex index comes first, in lexicographic order."""
    tri = np.asarray(tv, dtype=np.int64).reshape(-1, 3)
    tri = tri[tri.max(axis=1) < n_real]
    shift = np.argmin(tri, axis=1)[:, None]
    tri = np.take_along_axis(tri, (np.arange(3) + shift) % 3, axis=1)
    return tri[np.lexsort(tri.T[::-1])]


def _all_collinear(xs: np.ndarray, ys: np.ndarray) -> bool:
    """Whether every point lies on the line through points 0 and 1 (so
    also whether there are fewer than three)."""
    k = np.arange(2, len(xs))
    return not _signs(_orient_terms, _ORIENT_FILTER, xs, ys, np.zeros_like(k), np.ones_like(k), k).any()


def _triangulate(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Canonical rows of the Delaunay triangulation of points that are not
    all collinear."""
    return _real_triangles(_Triangulator(xs, ys).run(), len(xs))


def _circumdisks(xs, ys, tri):
    """Float centre (x, y) and reach of each row's closed circumdisk: the
    exact disk lies within ``reach`` of the centre.

    The float circumcentre, taken relative to the first vertex, is off by
    at most a few ulps of R (1 + L^2 / |d|) (R the circumradius, L the
    longer edge from that vertex, d = 2 (b - a) x (c - a)), and the
    radius is the float distance to the farthest vertex. The reach adds
    2^-32 of that scale plus the centre's magnitude, far more than the
    rounding, and also covers the rounding of a comparison with a box
    edge. A row whose float area is 0 reaches NaN or infinity."""
    ax, ay = xs[tri[:, 0]], ys[tri[:, 0]]
    bx, by = xs[tri[:, 1]] - ax, ys[tri[:, 1]] - ay
    cx, cy = xs[tri[:, 2]] - ax, ys[tri[:, 2]] - ay
    b2, c2 = bx * bx + by * by, cx * cx + cy * cy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = 2.0 * (bx * cy - by * cx)
        ux = (cy * b2 - by * c2) / d
        uy = (bx * c2 - cx * b2) / d
        r = np.sqrt(np.maximum.reduce([
            ux * ux + uy * uy, (ux - bx) ** 2 + (uy - by) ** 2, (ux - cx) ** 2 + (uy - cy) ** 2,
        ]))
        ux, uy = ux + ax, uy + ay
        reach = r + 2.0 ** -32 * (r * (1.0 + np.maximum(b2, c2) / np.abs(d)) + np.abs(ux) + np.abs(uy))
    return ux, uy, reach


def _box_meets(x_lo, x_hi, y_lo, y_hi, x, y, rho) -> np.ndarray:
    """Whether each box [x_lo, x_hi] x [y_lo, y_hi] meets the query box of
    half-width ``rho`` around (x, y)."""
    return (x_lo <= x + rho) & (x_hi >= x - rho) & (y_lo <= y + rho) & (y_hi >= y - rho)


def _hull_meets(wx, wy, tri, x, y, rho) -> bool:
    """Whether an edge on the hull of a window TIN (rows ``tri`` of
    window-local indices) has a bounding box meeting the query box. Edge
    k of a row runs from corner k to corner k + 1; a hull edge has no
    reverse among the rows."""
    tail, head = tri.ravel(), np.roll(tri, -1, axis=1).ravel()
    hull = ~np.isin(head * len(wx) + tail, tail * len(wx) + head)
    ex, ey = wx[np.stack([tail[hull], head[hull]])], wy[np.stack([tail[hull], head[hull]])]
    return bool(_box_meets(ex.min(axis=0), ex.max(axis=0), ey.min(axis=0), ey.max(axis=0), x, y, rho).any())


def _settled(wx, wy, tri, certified, x, y, rho) -> bool:
    """Whether a window TIN whose hull keeps out of the query box (see
    :func:`_hull_meets`) has, among its certified rows, every row of the
    whole-set TIN that meets that box: the point lies in one of the rows
    whose bounding box meets the query box, and every such row is
    certified. The query box then lies inside certified rows, which are
    whole-set rows, and any whole-set row meeting it overlaps one of
    them, so is one."""
    tx, ty = wx[tri], wy[tri]
    near = _box_meets(tx.min(axis=1), tx.max(axis=1), ty.min(axis=1), ty.max(axis=1), x, y, rho)
    if not near.any() or not certified[near].all():
        return False
    # The point as vertex len(wx), against each near row's three edges.
    v = tri[near]
    side = _signs(
        _orient_terms, _ORIENT_FILTER, np.append(wx, x), np.append(wy, y),
        v.ravel(), np.roll(v, -1, axis=1).ravel(), np.full(v.size, len(wx)),
    ).reshape(-1, 3)
    return bool((side >= 0).all(axis=1).any())


def _near_rows(xs: np.ndarray, ys: np.ndarray, qx: np.ndarray, qy: np.ndarray):
    """Certified rows of the Delaunay TIN of (xs, ys) around the query
    points, a lexsorted subset of the whole-set rows, or None where the
    whole set is needed or cheaper.

    A query's box has half-width an eighth of a mean point spacing, far
    beyond the reach of the barycentric test outside a triangle (1e-12
    of its size, and rounding), so every row that could claim the query
    meets it. A query whose box misses the vertex bounding box needs no
    rows. Otherwise the query triangulates the vertices in its window, a
    box of ``_NEAR_SPACINGS`` mean spacings a side around it at first,
    indices kept ascending so that the tie rule, the row rotation and the
    row order match the whole set's. A row whose closed circumdisk lies
    inside the window is a whole-set row: no vertex outside the window
    can be inside or on its circle, and the Delaunay triangulation is
    unique (after Isenburg, Liu, Shewchuk & Snoeyink 2006). Until no
    hull edge of the window TIN meets the query box and the query is
    :func:`_settled`, its window doubles.

    The answer is None, so the caller triangulates the whole set, when
    the windows would cost more than ``_NEAR_BUDGET`` of the vertices,
    each counted as its vertices plus ``_WINDOW_COST``; then the windows
    cost at most about that share of a whole-set build. It is also None
    at once when a window that reaches past the vertex bounding box
    still has a hull edge in the query box: the query is taken to lie on
    the cloud's own hull, which no window gets rid of. Queries nearest
    the bounding box's boundary go first, so such a query spends no
    other query's windows."""
    lo_x, hi_x, lo_y, hi_y = xs.min(), xs.max(), ys.min(), ys.max()
    spacing = float(np.sqrt((hi_x - lo_x) * (hi_y - lo_y) / len(xs)))
    rho = spacing / 8.0
    on = _box_meets(lo_x, hi_x, lo_y, hi_y, qx, qy, rho)
    qx, qy = qx[on], qy[on]
    budget = _NEAR_BUDGET * len(xs)
    if qx.size * _WINDOW_COST > budget:
        return None
    rows = [np.empty((0, 3), np.int64)]
    first = np.argsort(np.minimum.reduce([qx - lo_x, hi_x - qx, qy - lo_y, hi_y - qy]), kind="stable")
    for x, y in zip(qx[first].tolist(), qy[first].tolist()):
        h = _NEAR_SPACINGS * spacing / 2.0
        while True:
            x0, y0, x1, y1 = x - h, y - h, x + h, y + h
            idx = np.flatnonzero((xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1))
            budget -= idx.size + _WINDOW_COST
            if budget < 0:
                return None
            wx, wy = xs[idx], ys[idx]
            if not _all_collinear(wx, wy):
                tri = _triangulate(wx, wy)
                ux, uy, reach = _circumdisks(wx, wy, tri)
                certified = (ux - reach > x0) & (ux + reach < x1) & (uy - reach > y0) & (uy + reach < y1)
                rows.append(idx[tri[certified]])
                if not _hull_meets(wx, wy, tri, x, y, rho):
                    if _settled(wx, wy, tri, certified, x, y, rho):
                        break
                elif x0 <= lo_x or x1 >= hi_x or y0 <= lo_y or y1 >= hi_y:
                    return None
            h *= 2.0
    return np.unique(np.concatenate(rows), axis=0)


def build_tin(cloud: PointCloud, near=None) -> Tin:
    """Delaunay TIN over the cloud's xy projection.

    Points of exactly equal xy collapse to one vertex keeping the highest
    z. The triangle array is the Delaunay triangulation of the
    deduplicated vertices' xy as ``Tin.vertices`` stores them: exact
    in-circle ties are broken by a perturbation rule on the vertex
    indices, not by the insertion order, each row starts at its lowest
    vertex index, and the rows are sorted. Raises TooFewPoints
    / CollinearInput when no triangulation exists, or when the points are
    so nearly collinear that every triangle touches the super-triangle.

    ``near``, an (m, 2) array of xy query points, asks for a TIN for
    those point queries only (``Tin.queries``): it holds every vertex but
    only a certified subset of the whole-set rows, in the same order,
    which includes every row that :func:`vertical_check` could claim at
    a query point, so it reads the same z. Queries outside the vertex
    bounding box need no rows; when a query needs the whole set, or the
    windows would cost more than about a quarter of it, the whole set is
    triangulated. A query point that is not finite raises ValueError.
    """
    xyz = _dedupe_xy(cloud.xyz)
    n = xyz.shape[0]
    if n < 3:
        raise TooFewPoints(f"need at least 3 distinct points, got {n}")

    xs, ys = xyz[:, 0], xyz[:, 1]
    # All collinear -> no triangulation; triangulating would fail slowly.
    if _all_collinear(xs, ys):
        raise CollinearInput("all points are collinear in the xy-plane")

    q = triangles = None
    if near is not None:
        q = np.asarray(near, dtype=np.float64).reshape(-1, 2)
        if not np.isfinite(q).all():
            raise ValueError("query points must be finite")
        triangles = _near_rows(xs, ys, q[:, 0], q[:, 1])
    if triangles is None:
        triangles = _triangulate(xs, ys)
        if not len(triangles):
            raise CollinearInput("the points are nearly collinear: no triangle avoids the super-triangle")
    return Tin(vertices=xyz, triangles=triangles, queries=q)


# --- interpolation and rasterization ------------------------------------------

def _interpolate(
    tin: Tin, claim: np.ndarray, z: np.ndarray, qid: np.ndarray,
    x: np.ndarray, y: np.ndarray, tids: np.ndarray,
):
    """Barycentric point location and linear interpolation, shared by
    every surface sampler, over candidate pairs (query qid[k] at
    (x[k], y[k]), triangle tids[k]).

    Lowers ``claim[q]`` (``_UNCLAIMED`` where no triangle holds query q
    yet) to the lowest-index candidate triangle containing q and sets
    ``z[q]`` to the interpolated z there, so the candidates may come in
    several calls.
    """
    xs, ys, zs = tin.vertices.T
    tri = tin.triangles
    # Column by column, so no temporary holds three entries per pair.
    ax, bx, cx = (xs[tri[tids, k]] for k in range(3))
    ay, by, cy = (ys[tri[tids, k]] for k in range(3))
    area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    ok = area != 0
    area = np.where(ok, area, 1.0)
    w0 = ((bx - x) * (cy - y) - (by - y) * (cx - x)) / area
    w1 = ((cx - x) * (ay - y) - (cy - y) * (ax - x)) / area
    w2 = 1.0 - w0 - w1
    inside = ok & (w0 >= -_BARY_EPS) & (w1 >= -_BARY_EPS) & (w2 >= -_BARY_EPS)
    qid, tids = qid[inside], tids[inside]
    w0, w1, w2 = w0[inside], w1[inside], w2[inside]

    np.minimum.at(claim, qid, tids)
    hit = tids == claim[qid]
    za, zb, zc = zs[tri[tids[hit]]].T
    z[qid[hit]] = w0[hit] * za + w1[hit] * zb + w2[hit] * zc


def _interpolate_points(
    tin: Tin, px: np.ndarray, py: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_interpolate` at arbitrary points: the lowest-index
    triangle containing each point (-1 where none does) and the z there
    (NaN where none does). Candidates are the triangles whose xy bounding
    box, grown by 1e-9, holds the point; a sweep over the x-sorted points
    finds them without a point x triangle matrix. A TIN built for point
    queries answers only those points; any other raises ValueError."""
    if tin.queries is not None and not set(zip(px.tolist(), py.tolist())) <= set(
        map(tuple, tin.queries.tolist())
    ):
        raise ValueError("a TIN built for point queries answers only those points")
    xs, ys, _ = tin.vertices.T
    tri = tin.triangles
    order = np.argsort(px, kind="stable")
    sorted_x = px[order]
    lo = np.searchsorted(sorted_x, xs[tri].min(axis=1) - 1e-9, side="left")
    hi = np.searchsorted(sorted_x, xs[tri].max(axis=1) + 1e-9, side="right")
    tids, rank = _expand(hi - lo)
    qid = order[lo[tids] + rank]
    y = py[qid]
    ty = ys[tri[tids]]
    near = (ty.min(axis=1) - 1e-9 <= y) & (y <= ty.max(axis=1) + 1e-9)
    qid, tids = qid[near], tids[near]
    claim = np.full(px.size, _UNCLAIMED, np.int64)
    z = np.full(px.size, np.nan)
    _interpolate(tin, claim, z, qid, px[qid], py[qid], tids)
    claim[claim == _UNCLAIMED] = -1
    return claim, z


def _claim_grid(tin: Tin, geom: GridGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Lowest-index containing triangle per cell center (-1 where none)
    and the interpolated z there (NaN where none).

    The claim is independent of the kill distance so that filtering only
    ever substitutes NODATA, never changes a retained value. Candidate
    (triangle, cell) pairs come from the triangle bounding boxes, taken
    for consecutive triangles in blocks of about ``_CLAIM_PAIRS`` pairs,
    so the per-pair working set does not grow with the TIN.
    """
    xs, ys, _ = tin.vertices.T
    tri = tin.triangles
    cell = geom.cell_size
    tx = xs[tri]  # (T, 3)
    ty = ys[tri]

    # Cell index ranges covering each triangle bbox (y decreases by row),
    # padded by half a cell so boundary-tolerance hits are never missed.
    c0 = np.ceil((tx.min(axis=1) - geom.origin_x) / cell - 0.5 - 1e-12).astype(np.int64)
    c1 = np.floor((tx.max(axis=1) - geom.origin_x) / cell + 0.5 + 1e-12).astype(np.int64)
    r0 = np.ceil((geom.origin_y - ty.max(axis=1)) / cell - 0.5 - 1e-12).astype(np.int64)
    r1 = np.floor((geom.origin_y - ty.min(axis=1)) / cell + 0.5 + 1e-12).astype(np.int64)
    np.clip(c0, 0, geom.n_cols - 1, out=c0)
    np.clip(c1, -1, geom.n_cols - 1, out=c1)
    np.clip(r0, 0, geom.n_rows - 1, out=r0)
    np.clip(r1, -1, geom.n_rows - 1, out=r1)
    n_c = np.maximum(c1 - c0 + 1, 0)
    n_r = np.maximum(r1 - r0 + 1, 0)

    n_pairs = n_c * n_r
    bounds = _block_bounds(n_pairs, _CLAIM_PAIRS)
    claim = np.full(geom.n_rows * geom.n_cols, _UNCLAIMED, np.int64)
    z = np.full(claim.size, np.nan)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # Each triangle's block of cells, row-major. Rebinding cols drops
        # the rank array, keeping the per-pair working set small.
        tids, cols = _expand(n_pairs[lo:hi])
        tids += lo
        rows, cols = np.divmod(cols, n_c[tids])
        rows += r0[tids]
        cols += c0[tids]
        _interpolate(
            tin, claim, z, rows * geom.n_cols + cols,
            geom.origin_x + cols * cell, geom.origin_y - rows * cell, tids,
        )
    claim[claim == _UNCLAIMED] = -1
    shape = (geom.n_rows, geom.n_cols)
    return claim.reshape(shape), z.reshape(shape)


def rasterize_tin(
    tin: Tin, geom: GridGeometry, kill: float = DEFAULT_KILL_DISTANCE
) -> DsmGrid:
    """Sample the TIN at cell centers. Cells whose containing triangle has
    an xy edge longer than the kill distance become NODATA, suppressing
    interpolation bridges across data gaps. A TIN built for point
    queries holds only some rows and raises ValueError."""
    if tin.queries is not None:
        raise ValueError("a TIN built for point queries cannot be rasterized")
    if not kill > 0:
        raise ValueError("kill distance must be positive")
    claim, values = _claim_grid(tin, geom)
    # The trailing True is what claim -1 (outside the hull) indexes.
    dead = np.append(tin.max_edge_lengths() > kill, True)
    values[dead[claim]] = NODATA
    return DsmGrid(geometry=geom, values=values)


def _points_in_rings(
    poly: ClipPolygon, px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """Even-odd (crossing parity) containment over every ring, so holes
    cancel the outer ring."""
    inside = np.zeros(px.shape, dtype=bool)
    for ring in poly.rings:
        for (x0, y0), (x1, y1) in zip(ring[:-1], ring[1:]):
            if y0 == y1:
                continue
            crosses = ((y0 > py) != (y1 > py)) & (
                px < (x1 - x0) * (py - y0) / (y1 - y0) + x0
            )
            inside ^= crosses
    return inside


def clip_dsm(d: DsmGrid, poly: ClipPolygon) -> DsmGrid:
    """NODATA every cell whose center falls outside the polygon (outer
    ring minus holes); retained cells are unchanged bit-exactly."""
    xs, ys = d.geometry.cell_centers()
    gx, gy = np.meshgrid(xs, ys)
    inside = _points_in_rings(poly, gx, gy)
    values = np.where(inside, d.values, NODATA)
    return DsmGrid(geometry=d.geometry, values=values)


def vertical_check(tin: Tin, gcps: list[Gcp]) -> VerticalCheckReport:
    """Surface-minus-GCP elevation differences at each GCP's xy."""
    if not gcps:
        raise EmptyGcpSet("no GCPs supplied")
    claim, zs = _interpolate_points(
        tin,
        np.array([float(g.world.x) for g in gcps]),
        np.array([float(g.world.y) for g in gcps]),
    )
    per_gcp = []
    dzs = []
    for g, tid, z in zip(gcps, claim, zs):
        if tid < 0:
            per_gcp.append((g.id, None, None))
        else:
            dz = float(z) - g.world.z
            per_gcp.append((g.id, float(z), dz))
            dzs.append(dz)
    if dzs:
        arr = np.array(dzs)
        mean_dz = float(arr.mean())
        rmse_dz = float(np.sqrt((arr ** 2).mean()))
        max_abs_dz = float(np.abs(arr).max())
    else:
        mean_dz = rmse_dz = max_abs_dz = None
    return VerticalCheckReport(
        per_gcp=tuple(per_gcp),
        mean_dz=mean_dz,
        rmse_dz=rmse_dz,
        max_abs_dz=max_abs_dz,
        n_outside=len(gcps) - len(dzs),
    )
