"""TIN construction, linear surface interpolation, DSM rasterization with
a kill-distance filter, polygon clipping, and vertical accuracy checks.

The TIN is the Delaunay triangulation of the xy-projection, built in
array rounds (:class:`_Triangulator`) on a mesh that one ghost vertex at
infinity closes. Every orientation and in-circle test, the tie rule
and the clip rings' geometric checks included, is one array
predicate, :func:`_signs`: a float filter over numpy blocks (Shewchuk
1997), then exact integers, on numpy object arrays, for every lane it
leaves undecided; pixel-grid clouds are almost entirely cocircular, so
naive float predicates would corrupt the topology. Exact in-circle ties
are broken by a symbolic perturbation of the vertices' lifts, so the
triangle array, each row starting at its lowest vertex, is the unique
Delaunay triangulation of the perturbed vertices, a function of the
deduplicated vertex array alone. The tests hold it bit for bit to a
scalar Bowyer-Watson oracle that has its own scalar predicates. Being
unique, it can be handed on, as :func:`build_tin`'s ``reuse``: one
pipeline run triangulates once. The TIN keeps each edge's half-edge
mate, as the triangulator does, so one visibility walk, :func:`_walk`,
serves both the triangulator's inserts and the locator, :func:`_locate`,
that takes every surface sample, DSM cell centre or GCP.
"""

from __future__ import annotations

import functools
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
_BLOCK = 1 << 14  # predicate lanes, or located points, per numpy block
_ROUND_POINTS = 1 << 16  # new points per insert round, which bounds its arrays
_UNCLAIMED = np.iinfo(np.int64).max


# --- exact-fallback predicates ----------------------------------------------
#
# Each predicate's determinant is written once, for floats, float arrays and
# arrays of Python ints alike. The float value decides when it clears its
# error bound; otherwise the same expression runs on exact integers, a
# block's undecided lanes all in one object-array call.

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


def _exact_signs(terms, *coords) -> np.ndarray:
    """int8 signs of ``terms``' determinant over coordinate lanes, in
    exact integers: each coordinate is an int64 mantissa times a power of
    two (``np.frexp``), and each lane's mantissas, as Python ints in
    object arrays, are shifted to the lane's least exponent. The
    determinant is homogeneous, so the common scale keeps its sign.
    Raises ValueError on a non-finite coordinate, which has no integer."""
    if not all(np.isfinite(c).all() for c in coords):
        raise ValueError("a surface coordinate is not finite")
    parts = [np.frexp(c) for c in coords]
    least = np.minimum.reduce([e for _, e in parts]).astype(np.int64)
    ints = [np.ldexp(m, 53).astype(np.int64).astype(object) << (e - least).astype(object) for m, e in parts]
    det, _ = terms(*ints)
    return np.greater(det, 0).view(np.int8) - np.less(det, 0).view(np.int8)


def _signs(terms, eps, xs, ys, *idx) -> np.ndarray:
    """int8 signs of ``terms`` over vertex index arrays, one per corner:
    +1, -1 or 0 as (a, b, c) turns CCW, CW or not at all, or as d lies
    inside, outside or on the circle through CCW (a, b, c). The float
    filter runs on numpy blocks of at most ``_BLOCK`` lanes, each index
    block cast to intp once for its x and y gathers (gathers with int32
    indices are slower). The lanes it leaves undecided, orientations
    and in-circles alike, go to :func:`_exact_signs` in one call per
    block."""
    out = np.empty(len(idx[0]), np.int8)
    for start in range(0, out.size, _BLOCK):
        coords = []
        for v in idx:
            v = v[start:start + _BLOCK].astype(np.intp, copy=False)
            coords += (xs[v], ys[v])
        # An overflow leaves the lane undecided, as in Python floats.
        with np.errstate(over="ignore", invalid="ignore"):
            det, magnitude = terms(*coords)
            bound = eps * magnitude
        sign = (det > bound).view(np.int8) - (det < -bound).view(np.int8)
        lanes = np.flatnonzero(sign == 0)
        if lanes.size:
            sign[lanes] = _exact_signs(terms, *(c[lanes] for c in coords))
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
    x, y, z; triangles (m, 3) int64 vertex indices, counterclockwise in
    the xy-plane. Half-edge ``3r + k`` is the edge of row r from corner k
    to k + 1 (mod 3), and int32 ``neighbours[r, k]`` is its mate, the
    half-edge ``3r' + k'`` of the same edge in the row r' across, running
    the other way, -1 across a hull edge. int32 ``vertex_rows[v]`` is a
    row with corner v, for a hull vertex the one whose edge from v is a
    hull edge, so that turning counterclockwise from it sweeps v's fan.
    From :func:`build_tin`, the only producer, the triangles are the
    whole Delaunay triangulation out to the exact convex hull, a function
    of the vertices alone, and never none."""

    vertices: np.ndarray
    triangles: np.ndarray
    neighbours: np.ndarray
    vertex_rows: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        nb = np.asarray(self.neighbours, np.int32)
        rows = np.asarray(self.vertex_rows, np.int32)
        if nb.shape != t.shape or rows.shape != (len(v),):
            raise ValueError("neighbours and vertex rows must match the triangles and vertices")
        for name, a in (("vertices", v), ("triangles", t), ("neighbours", nb), ("vertex_rows", rows)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)


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
    """An outer ring plus optional holes, each closed (first vertex
    repeated last) and in the orientation it was given: the clip is
    even-odd, so orientation never decides containment."""

    rings: tuple[tuple[Point2, ...], ...]

    def __post_init__(self):
        if not self.rings:
            raise InvalidPolygon("polygon needs at least an outer ring")
        rings = tuple(tuple(Point2(float(p[0]), float(p[1])) for p in ring) for ring in self.rings)
        for ri, pts in enumerate(rings):
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
            if _ring_flat(pts):
                raise InvalidPolygon(f"ring {ri} has zero area")
        object.__setattr__(self, "rings", rings)


@dataclass(frozen=True)
class VerticalCheckReport:
    """Per-GCP surface-minus-survey elevation differences. GCPs outside
    the surface hull are listed with None and excluded from the stats."""

    per_gcp: tuple[tuple[str, Optional[float], Optional[float]], ...]
    mean_dz: Optional[float]
    rmse_dz: Optional[float]
    max_abs_dz: Optional[float]
    n_outside: int


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


def _ring_flat(ring: tuple[Point2, ...]) -> bool:
    """Whether :func:`_signs` puts every vertex on the line through vertex
    0 and the first vertex that differs from it (vertex 0 if none does):
    for a ring that does not self-intersect, whether its area is zero."""
    xs, ys = np.array(ring, dtype=np.float64).T
    a = np.zeros(len(xs), np.intp)
    b = a + np.argmax((xs != xs[0]) | (ys != ys[0]))
    return not _signs(_orient_terms, _ORIENT_FILTER, xs, ys, a, b, np.arange(len(xs))).any()


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

    One stable sort on the complex key x + iy, which orders by x, then
    y, with 0.0 equal to -0.0, puts each group of equal xy together in
    input order: its first point is the first seen, and the first point
    holding the group's highest z is the one whose z it keeps."""
    x, y, z = xyz.T
    key = np.empty(len(xyz), np.complex128)
    key.real, key.imag = x, y
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    z_sorted = z[order]
    high = np.maximum.reduceat(z_sorted, start)
    # Positions holding their group's highest z, ascending: the first at
    # or after a group's start is in that group.
    at = np.flatnonzero(z_sorted == np.repeat(high, np.diff(np.append(start, len(z)))))
    top = at[np.searchsorted(at, start)]
    # Gathering each column in input order makes no (n, 3) temporary:
    # freeing one raised glibc's mmap threshold, and with it `dsm`'s
    # peak RSS on the C9 fixture by about 7 MB.
    first = order[start]
    keep = np.zeros(len(z), bool)
    keep[first] = True
    best = np.empty(len(z))
    best[first] = z_sorted[top]
    return np.column_stack([x[keep], y[keep], best[keep]])


# The step from half-edge 3t + k to the one after (before) it in its
# triangle, by k. ``h - h // 3 * 3`` is k: numpy divides by a scalar
# through libdivide, and ``h % 3`` takes several times as long.
_NEXT_STEP = np.array([1, 1, -2])
_PREV_STEP = np.array([2, -1, -1])
_AFTER_EDGE = np.array([[1, 2, 0], [2, 0, 1]])  # edges k + 1 and k + 2, column k


def _next(h: np.ndarray) -> np.ndarray:
    """The half-edge after h in its triangle."""
    return h + _NEXT_STEP[h - h // 3 * 3]


def _prev(h: np.ndarray) -> np.ndarray:
    """The half-edge before h in its triangle."""
    return h + _PREV_STEP[h - h // 3 * 3]


def _hilbert_order(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices in the order of a Hilbert curve over a 65536 x 65536 grid
    on the points' bounding square, ties in index order."""
    lo_x, lo_y = xs.min(), ys.min()
    span = max(float(xs.max() - lo_x), float(ys.max() - lo_y)) or 1.0
    x = np.minimum(((xs - lo_x) / span * 65535.0).astype(np.int64), 65535)
    y = np.minimum(((ys - lo_y) / span * 65535.0).astype(np.int64), 65535)
    d = np.zeros(len(xs), np.int64)
    for level in range(15, -1, -1):
        rx, ry = x >> level & 1, y >> level & 1
        d += (3 * rx ^ ry) << 2 * level
        # Turn the quadrant so that the curve enters it at its origin:
        # where ry is 0, mirror (65535 - v is v ^ 65535 on [0, 65535])
        # if rx is 1, then swap x and y (an XOR swap).
        flip = -(rx & (ry ^ 1)) & 65535
        swap = (x ^ y) & (ry - 1)
        x ^= flip ^ swap
        y ^= flip ^ swap
    return np.argsort(d, kind="stable")


def _walk(
    orient, tv: np.ndarray, tn: np.ndarray, p: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Visibility walks of points p over counterclockwise rows ``tv``
    with half-edge mates ``tn`` (-1 where none), from rows t: each
    crosses the first edge that has its point strictly on the right
    (``orient`` of the edge's ends and the point < 0) and a mate, until
    none has. Returns the rows reached and, (3, len(p)), which of their
    edges each point lies on.

    Over a Delaunay triangulation a walk needs no step cap (Devillers,
    Pion & Teillaud 2002): crossing a locally Delaunay edge never raises
    the point's power to the circumcircle, and the triangles sharing one
    circumcircle form a forest, in which a walk never turns back; edges
    with no mate only stop some walks sooner. A walk that entered across
    edge e has its point strictly left of e and tests only e + 1 and
    e + 2. The edge arrays are (edges, lanes), so each edge's lanes are
    contiguous: the other way round, broadcasts and reductions run along
    rows of 2 or 3, several times slower."""
    flat_tv, flat_tn = tv.reshape(-1), tn.reshape(-1)
    t = t.astype(np.int64)
    on = np.zeros((3, p.size), bool)
    lane = np.arange(p.size)
    k = np.broadcast_to(np.arange(3)[:, None], (3, p.size))
    while lane.size:
        h = 3 * t[lane] + k
        o = orient(flat_tv[h].ravel(), flat_tv[_next(h)].ravel(), np.tile(p[lane], len(k))).reshape(k.shape)
        mate = flat_tn[h]
        # The first edge with the point on its right and a row across.
        right = (o < 0) & (mate >= 0)
        go, first = right[0], np.zeros(lane.size, np.intp)
        for j in range(1, len(k)):
            first += ~go
            go = go | right[j]
        stop, go = np.flatnonzero(~go), np.flatnonzero(go)
        on[k[:, stop], lane[stop]] = o[:, stop] == 0
        across = mate[first[go], go].astype(np.int64)
        lane = lane[go]
        t[lane] = across // 3
        k = _AFTER_EDGE[:, across - 3 * t[lane]]
    return t, on


class _Triangulator:
    """Delaunay triangulation of xy coordinates in array rounds, after
    GPU-DT (Rong, Tan, Cao & Stephanus 2008) and gDel2D (Qi, Cao &
    Tan 2012), in the rounds of a biased randomized insertion order
    (BRIO; Amenta, Choi & Rote 2003), drawn along a Hilbert curve
    instead of at random.

    Triangle t has counterclockwise vertices ``tv[t]``. Half-edge
    ``3t + k`` is its edge ``(tv[t, k], tv[t, (k + 1) % 3])``, and
    ``tn[t, k]`` is the half-edge of the same edge in the neighbouring
    triangle, as ``Tin.neighbours`` keeps them. A ghost vertex g = n
    (Shewchuk's *Triangle*, 1996; CGAL) closes the mesh with a triangle
    (b, a, g) across each hull edge (a, b). Edge (v, g) is the ray from v away from O, the first
    triangle's float centroid in row n of ``xs`` and ``ys``: the ghosts
    are disjoint wedges about O, walked and split like any triangle.
    ``vt[v]`` is a fan row written with corner v; later flips may take v
    out of it, as a walk may start from any row. For a waiting point it
    is the row its last walk reached.

    Level k of the curve is the positions whose lowest set bit is 2^k.
    The levels come in from the highest k down, position 0 first, each
    in one round, or in rounds of ``_ROUND_POINTS`` consecutive positions
    when it holds more: that bounds a round's arrays (at 1920 x 1080 the
    whole last level, a million points, in one round raised the build's
    peak RSS by a third). Each point of level k walks from ``vt[h]``, h
    the nearer of its curve neighbours i - 2^k and i + 2^k, which an
    earlier round brought in; a waiting point walks on from where it
    stopped. The mesh is closed, so a walk (:func:`_walk`) ends in a
    triangle holding its point, boundary included. It needs a Delaunay
    triangulation, so walks run only between legalized rounds.

    Every triangle reached inserts its walker of median curve rank: a
    1-3 split, or a 2-4 split of it and its neighbour when the point lies
    on an edge, both triangles claimed by the lowest point index. The
    other walkers wait for the next round. Lawson passes then flip every
    illegal edge that is the lowest illegal edge of both its triangles,
    until no edge is illegal. The first pass tests only the new rows'
    edge 0, the old edge facing the new point. The spokes of a fresh fan
    are already locally Delaunay: the point lies strictly inside the
    circumcircle of the triangle it splits, so the vertex across a spoke
    stays outside the circle through it, and on a split edge the halves
    of a Delaunay edge stay Delaunay. The first triangle and its ghosts
    take four rows and each later insert two, so n points fill 2n - 2
    (int32 half-edge ids hold up to about 357 million points). ``moved``,
    the identity map of half-edges that ``_relink`` moves edges through,
    is as large as ``tv``; ``dirty`` adds a flag per row, and every
    ``_insert_round`` (``claim``) and ``_legalize`` (``best``) call
    allocates an int64 per filled row. Beyond the rows, working memory is
    the vertex map, the curve ranks and the schedule, O(n), and one
    round's walkers and fans, the new points plus those still waiting.
    The result is the unique Delaunay triangulation of the points
    perturbed as in :func:`_incircle_tie`, which no insertion order changes.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, first: np.ndarray):
        n = self.ghost = len(xs)
        self.xs = np.append(xs, xs[first].sum() / 3.0)
        self.ys = np.append(ys, ys[first].sum() / 3.0)
        edges = (first, np.roll(first, -1), np.full(3, n))
        if (_signs(_orient_terms, _ORIENT_FILTER, self.xs, self.ys, *edges) <= 0).any():
            raise CollinearInput("the points are nearly collinear: the first triangle misses its centroid")
        rows = 2 * n - 2
        # Row 0 is the first triangle (a, b, c), row 1 + k the ghost across its edge k.
        a, b, c = first
        self.tv = np.zeros((rows, 3), np.int32)
        self.tv[:4] = [[a, b, c], [b, a, n], [c, b, n], [a, c, n]]
        self.tn = np.zeros((rows, 3), np.int32)
        self.tn[:4] = [[3, 6, 9], [0, 11, 7], [1, 5, 10], [2, 8, 4]]
        self.vt = np.zeros(n + 1, np.int32)
        self.rows = 4
        order = _hilbert_order(xs, ys)
        self.rank = np.empty(n, np.int64)
        self.rank[order] = np.arange(n)
        self.rounds = self._schedule(order[np.isin(order, first, invert=True)])
        self.waiting = np.empty(0, np.int64)
        # Scratch: identity and all False between steps.
        self.moved = np.arange(3 * rows, dtype=np.int32)
        self.dirty = np.zeros(rows, bool)

    def _schedule(self, order: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each round's points and the vertices whose rows their walks
        start from, the last round first. Position 0 starts from its own
        entry, row 0, the first triangle."""
        xs, ys, n = self.xs, self.ys, order.size
        rounds = [(order[:1].copy(),) * 2]
        step = 1 << (n - 1).bit_length() - 1 if n > 1 else 0
        while step:
            i = np.arange(step, n, 2 * step)
            p, lo = order[i], order[i - step]
            hi = order[np.where(i + step < n, i + step, i - step)]
            d_lo = (xs[lo] - xs[p]) ** 2 + (ys[lo] - ys[p]) ** 2
            d_hi = (xs[hi] - xs[p]) ** 2 + (ys[hi] - ys[p]) ** 2
            start = np.where(d_hi < d_lo, hi, lo)
            for s in range(0, p.size, _ROUND_POINTS):
                rounds.append((p[s:s + _ROUND_POINTS], start[s:s + _ROUND_POINTS]))
            step >>= 1
        return rounds[::-1]

    def _orient(self, i, j, k) -> np.ndarray:
        """Orientations, negated at O where a corner is g, the largest index."""
        sign = _signs(_orient_terms, _ORIENT_FILTER, self.xs, self.ys, i, j, k)
        return np.where(np.maximum(np.maximum(i, j), k) == self.ghost, -sign, sign)

    def _illegal(self, a, b, c, d) -> np.ndarray:
        """Whether edge (a, b) of CCW (a, b, c), d across it, is illegal:
        d inside the circumcircle, ties broken by :func:`_incircle_tie`;
        a hull edge (apex g) never; an edge to g when its real end is a
        reflex hull vertex, of hull edges c -> b -> d or d -> a -> c."""
        xs, ys, g = self.xs, self.ys, self.ghost
        side = _signs(_incircle_terms, _INCIRCLE_FILTER, xs, ys, a, b, c, d)
        ghost = np.flatnonzero(np.maximum(np.maximum(a, b), np.maximum(c, d)) == g)
        a_g, b_g, c_g, d_g = a[ghost], b[ghost], c[ghost], d[ghost]
        turn = self._orient(d_g, np.where(a_g == g, b_g, a_g), c_g)
        side[ghost] = np.where((a_g == g) & (turn > 0) | (b_g == g) & (turn < 0), 1, -1)
        tie = np.flatnonzero(side == 0)
        side[tie] = _incircle_tie(xs, ys, a[tie], b[tie], c[tie], d[tie])
        return side > 0

    def _relink(self, old: np.ndarray, new: np.ndarray):
        """Move the edges at half-edges ``old`` to ``new`` and link both
        sides, also where the neighbour's edge moves in the same step."""
        tn, moved = self.tn.reshape(-1), self.moved
        mate = tn[old]
        moved[old] = new
        mate = moved[mate]
        moved[old] = old
        tn[new] = mate
        tn[mate] = new

    def _insert_round(self) -> np.ndarray:
        """Walk the next round's points and the waiting ones, and insert
        into every triangle reached its walker of median curve rank,
        unless a lower point claimed the triangle for a 2-4 split; the
        others wait. Returns the rows written."""
        tv, tn, vt = self.tv, self.tn, self.vt
        flat_tv = tv.reshape(-1)
        new, start = self.rounds.pop() if self.rounds else (self.waiting[:0],) * 2
        walkers = np.append(self.waiting, new)
        reached, on = _walk(self._orient, tv, tn, walkers, vt[np.append(self.waiting, start)])
        # Sorting by triangle, then curve rank, groups each triangle's
        # walkers in curve order.
        by_tri = np.argsort(reached * self.rank.size + self.rank[walkers])
        held = reached[by_tri]
        first = np.flatnonzero(np.diff(held, prepend=-1))
        count = np.diff(np.append(first, held.size))
        pick = by_tri[first + count // 2]
        p, t, zero = walkers[pick], reached[pick], on[:, pick]
        # On edge h of t, p also splits the triangle u across it. A point
        # lies on one edge at most, and the lowest point always inserts.
        z0, z1, z2 = zero
        on_edge = z0 | z1 | z2
        h = 3 * t + z1 + 2 * z2
        m = tn.reshape(-1)[h].astype(np.int64)
        u = np.where(on_edge, m // 3, t)
        claim = np.full(self.rows, _UNCLAIMED, np.int64)
        np.minimum.at(claim, np.append(t, u), np.append(p, p))
        win = (claim[t] == p) & (claim[u] == p)
        wait = np.ones(walkers.size, bool)
        wait[pick[win]] = False
        self.waiting = walkers[wait]
        vt[self.waiting] = reached[wait]
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
        edge = np.append(he3, he4)
        rows = np.append(c3, c4)
        after = np.append(np.roll(c3, -1, axis=1), np.roll(c4, -1, axis=1))
        before = np.append(np.roll(c3, 1, axis=1), np.roll(c4, 1, axis=1))
        hub = np.append(np.repeat(p[~e], 3), np.repeat(p[e], 4))
        tail, head = flat_tv[edge], flat_tv[_next(edge)]
        self._relink(edge, 3 * rows)
        tv[rows] = fans = np.column_stack([tail, head, hub])
        tn[rows, 1] = 3 * after + 2
        tn[rows, 2] = 3 * before + 1
        vt[fans] = rows[:, None]
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

    def _legalize(self, rows: np.ndarray):
        """Lawson passes from the new rows ``rows`` until no edge is
        illegal. The first pass tests each row's edge 0, later passes
        every edge of a dirty triangle, each edge once; a pass flips the
        illegal edges that are the lowest illegal edge of both their
        triangles, and the triangles of every illegal edge stay dirty."""
        flat_tv, flat_tn, dirty = self.tv.reshape(-1), self.tn.reshape(-1), self.dirty
        none = np.iinfo(np.int64).max
        best = np.full(self.rows, none, np.int64)
        h = 3 * rows
        while True:
            dirty[rows] = True
            m = flat_tn[h].astype(np.int64)
            # An edge between two dirty triangles is tested from its
            # lower half-edge. Here and below, selections are index arrays:
            # compressing int64 arrays by a mask takes several times as
            # long as np.flatnonzero and a gather.
            test = np.flatnonzero(~dirty[m // 3] | (h < m))
            dirty[rows] = False
            h, m = h[test], m[test]
            bad = np.flatnonzero(
                self._illegal(flat_tv[h], flat_tv[_next(h)], flat_tv[_prev(h)], flat_tv[_prev(m)])
            )
            if not bad.size:
                return
            h, m = h[bad], m[bad]
            t, u = h // 3, m // 3
            edge = np.minimum(h, m)
            np.minimum.at(best, t, edge)
            np.minimum.at(best, u, edge)
            flip = np.flatnonzero((best[t] == edge) & (best[u] == edge))
            best[t] = best[u] = none
            self._flip(h[flip], m[flip])
            # A sort, not np.unique: numpy 2's unique hashes integer
            # arrays first, about 15x slower on a pass's 20k rows.
            rows = np.sort(np.append(t, u))
            rows = rows[np.flatnonzero(np.append(True, rows[1:] != rows[:-1]))]
            # Each row's three edges in turn, written a column at a time:
            # broadcasting (rows, 1) against (3,) runs rows of 3, several
            # times slower.
            h = np.empty((rows.size, 3), np.int64)
            np.multiply(rows, 3, out=h[:, 0])
            np.add(h[:, 0], 1, out=h[:, 1])
            np.add(h[:, 0], 2, out=h[:, 2])
            h = h.ravel()

    def run(self) -> tuple[np.ndarray, np.ndarray]:
        """Insert every point; returns the (2n - 2, 3) vertex and
        neighbour half-edge arrays, ghost rows included."""
        while self.rows < len(self.tv):
            self._legalize(self._insert_round())
        return self.tv, self.tn


def _real_triangles(tv: np.ndarray, tn: np.ndarray, n_real: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``tv`` with no ghost vertex, each rotated so that its
    lowest vertex index comes first, in lexicographic order, and their
    ``Tin.neighbours``: at edge k, the exported half-edge of the ``tn``
    mate of the half-edge that became edge k, -1 where that mate is in a
    ghost row. A row's vertices are distinct, so its rotation that starts
    at the lowest one has the least head a n + b of the three. The rows
    are counterclockwise triangles of one triangulation, so each directed
    edge (a, b) lies in one row only: the heads are unique, and sorting
    by head alone puts the rows in lexicographic order."""
    keep = np.flatnonzero(np.maximum(np.maximum(tv[:, 0], tv[:, 1]), tv[:, 2]) < n_real)
    a, b, c = (tv[keep, k].astype(np.int64) for k in range(3))
    # The half-edge that becomes edge 0 starts at the lowest vertex.
    edge = 3 * keep + ((b < a) & (b < c)) + 2 * ((c < a) & (c < b))
    edge = edge[np.argsort(np.minimum(np.minimum(a * n_real + b, b * n_real + c), c * n_real + a))]
    del keep, a, b, c
    # Each half-edge's exported id, -1 in ghost rows.
    exported = np.full(tv.size, -1, np.int32)
    triangles = np.empty((edge.size, 3), np.int64)
    mates = np.empty((edge.size, 3), np.int32)
    for k in range(3):
        exported[edge] = np.arange(k, 3 * edge.size, 3)
        triangles[:, k] = tv.reshape(-1)[edge]
        mates[:, k] = tn.reshape(-1)[edge]
        edge = _next(edge)
    return triangles, exported[mates]


def _first_triangle(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The first triangle, counterclockwise: the leftmost and rightmost
    points and the point exactly off their line of largest float area, so
    that its centroid is mid-cloud and outer points spread over wedges."""
    lo, hi = int(np.argmin(xs)), int(np.argmax(xs))
    k = np.arange(len(xs))
    side = _signs(_orient_terms, _ORIENT_FILTER, xs, ys, np.full_like(k, lo), np.full_like(k, hi), k)
    area, _ = _orient_terms(xs[lo], ys[lo], xs[hi], ys[hi], xs, ys)
    c = int(np.argmax(np.where(side != 0, np.abs(area), -1.0)))
    if not side[c]:
        raise CollinearInput("all points are collinear in the xy-plane")
    return np.array([lo, hi, c] if side[c] > 0 else [hi, lo, c])


def build_tin(cloud: PointCloud, reuse: Optional[Tin] = None) -> Tin:
    """Delaunay TIN over the cloud's xy projection.

    Points of exactly equal xy collapse to one vertex keeping the highest
    z. The triangle array is the Delaunay triangulation of the
    deduplicated vertices' xy as ``Tin.vertices`` stores them: exact
    in-circle ties are broken by a perturbation rule on the vertex
    indices, not by the insertion order, each row starts at its lowest
    vertex index, and the rows are sorted, out to the exact convex hull.
    Raises TooFewPoints / CollinearInput when no triangulation exists, or
    when the points are so nearly collinear that the first triangle's
    float centroid is not strictly inside it.

    The triangle array is a function of the deduplicated vertices alone,
    so ``reuse``, a TIN built earlier, is returned as it is when its
    vertices equal them byte for byte (0.0 and -0.0 differ); otherwise
    the cloud is triangulated.
    """
    xyz = _dedupe_xy(cloud.xyz)
    if reuse is not None and reuse.vertices.tobytes() == xyz.tobytes():
        return reuse
    n = xyz.shape[0]
    if n < 3:
        raise TooFewPoints(f"need at least 3 distinct points, got {n}")

    xs, ys = xyz[:, 0], xyz[:, 1]
    triangles, neighbours = _real_triangles(*_Triangulator(xs, ys, _first_triangle(xs, ys)).run(), n)
    # Any row with corner v; for a hull vertex, the one whose edge from v is a hull edge.
    vertex_rows = np.empty(n, np.int32)
    vertex_rows[triangles] = np.arange(len(triangles))[:, None]
    row, k = np.nonzero(neighbours < 0)
    vertex_rows[triangles[row, k]] = row
    return Tin(xyz, triangles, neighbours, vertex_rows)


# --- point location, interpolation and rasterization -------------------------

def _interpolate(
    tin: Tin, claim: np.ndarray, z: np.ndarray, qid: np.ndarray,
    x: np.ndarray, y: np.ndarray, tids: np.ndarray,
):
    """Barycentric point location and linear interpolation over candidate
    pairs (query qid[k] at (x[k], y[k]), triangle tids[k]): lowers
    ``claim[q]`` (``_UNCLAIMED`` where no triangle holds query q yet) to
    the lowest-index candidate triangle containing q and sets ``z[q]`` to
    the interpolated z there, so the candidates may come in several calls."""
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


def _start_rows(tin: Tin, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """A row near each query point, those after the n vertices in ``xs``
    and ``ys``: the vertex row of a vertex in the smallest bucket around
    the point that holds one, in a pyramid of grids over the vertices'
    bounding box, the finest of 1 to 4 vertices per bucket and each one
    above of 2 x 2 buckets. Points beyond the box take its border ones."""
    n = len(tin.vertices)
    side = 1 << (n.bit_length() - 1 >> 1)
    i, j = (
        np.clip((c - c[:n].min()) * (side / (float(np.ptp(c[:n])) or 1.0)), 0, side - 1).astype(np.int64)
        for c in (xs, ys)
    )
    owner = np.full((side, side), -1, np.int64)
    owner[j[:n], i[:n]] = np.arange(n)
    i, j = i[n:], j[n:]
    start = owner[j, i]
    while (start < 0).any():
        side >>= 1
        owner = owner.reshape(side, 2, side, 2).max(axis=(1, 3))
        i, j = i >> 1, j >> 1
        start = np.where(start < 0, owner[j, i], start)
    return tin.vertex_rows[start]


def _locate(tin: Tin, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lowest-index triangle holding each point (x, y) within
    ``_BARY_EPS`` (-1 where none does) and the z there (NaN where none
    does), for every surface sampler. ``_BLOCK`` points at a time walk
    (:func:`_walk`) from rows near them, and :func:`_interpolate` claims
    among the three vertex fans of the rows reached, a step of each fan
    at a time: from corner v's half-edge in its vertex row, the mate of
    the half-edge before it, which starts at v in the next row
    counterclockwise, until back at the first or at the hull.

    A walk ends in a row that holds its point or, outside the hull, in
    one whose only edges with the point on their right are hull edges:
    the point lies beyond them, in the wedge that the row's other edges
    bound. Triangles meet in a vertex or an edge, so every one holding
    the point exactly is in the fans. One holding it only within
    ``_BARY_EPS`` comes within about 1e-12 of its height of the row
    reached, and triangles with no common vertex lie as far apart as a
    vertex of one from an edge of the other: at least d^2 / L on
    coordinates quantized to a step d, as a LAS cloud's are, L the
    longest edge, far above 1e-12 L while L < 10^6 d. So the claim
    depends only on which triangles hold the point, not on where its
    walk started. The tests hold the claim to a scalar scan on exact
    lattices, on vertices, on edges and 2^-40 outside the hull, from the
    bucket starts and from the first and last rows. A fan that has not
    closed after as many turns as there are rows never will (corrupt
    mates), and raises ValueError.
    """
    tri, nb = tin.triangles, tin.neighbours.reshape(-1)
    claim = np.full(x.size, _UNCLAIMED, np.int64)
    z = np.full(x.size, np.nan)
    n = len(tin.vertices)
    xs, ys = np.append(tin.vertices[:, 0], x), np.append(tin.vertices[:, 1], y)
    orient = functools.partial(_signs, _orient_terms, _ORIENT_FILTER, xs, ys)
    start = _start_rows(tin, xs, ys)
    for lo in range(0, x.size, _BLOCK):
        q = np.arange(lo, min(lo + _BLOCK, x.size))
        v = tri[_walk(orient, tri, nb, q + n, start[q])[0]].ravel()
        q = np.repeat(q, 3)
        r = tin.vertex_rows[v].astype(np.int64)
        first = h = 3 * r + (tri[r, 1] == v) + 2 * (tri[r, 2] == v)
        for _ in range(len(tri) + 1):  # a fan holds each row once at most
            if not h.size:
                break
            _interpolate(tin, claim, z, q, x[q], y[q], h // 3)
            h = nb[_prev(h)].astype(np.int64)
            go = np.flatnonzero((h >= 0) & (h != first))
            q, first, h = q[go], first[go], h[go]
        else:
            raise ValueError("the TIN's neighbours do not close its vertex fans")
    claim[claim == _UNCLAIMED] = -1
    return claim, z


def rasterize_tin(tin: Tin, geom: GridGeometry, kill: float = DEFAULT_KILL_DISTANCE) -> DsmGrid:
    """Sample the TIN at cell centers, located by :func:`_locate`. Cells
    whose triangle has an xy edge longer than the kill distance become
    NODATA, suppressing interpolation bridges across data gaps; the claim
    does not depend on it, so filtering never changes a retained value."""
    if not kill > 0:
        raise ValueError("kill distance must be positive")
    gx, gy = np.meshgrid(*geom.cell_centers())
    claim, values = _locate(tin, gx.ravel(), gy.ravel())
    hit = np.flatnonzero(claim >= 0)
    a, b, c = tin.triangles[claim[hit]].T
    x, y = tin.vertices[:, 0], tin.vertices[:, 1]
    longest = np.maximum.reduce([np.hypot(x[i] - x[j], y[i] - y[j]) for i, j in ((a, b), (b, c), (c, a))])
    values[claim < 0] = NODATA
    values[hit[longest > kill]] = NODATA
    return DsmGrid(geometry=geom, values=values.reshape(geom.n_rows, geom.n_cols))


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
    """Surface-minus-GCP elevation differences at each GCP's xy, located by :func:`_locate`."""
    if not gcps:
        raise EmptyGcpSet("no GCPs supplied")
    x, y, survey = np.array([g.world for g in gcps]).T
    claim, zs = _locate(tin, x, y)
    dz = zs - survey
    per_gcp = tuple(
        (g.id, float(z), float(d)) if t >= 0 else (g.id, None, None)
        for g, t, z, d in zip(gcps, claim, zs, dz)
    )
    arr = dz[claim >= 0]
    stats = [None] * 3
    if arr.size:
        stats = [float(arr.mean()), float(np.sqrt((arr ** 2).mean())), float(np.abs(arr).max())]
    return VerticalCheckReport(per_gcp, *stats, n_outside=len(gcps) - arr.size)
