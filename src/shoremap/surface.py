"""TIN construction, linear surface interpolation, DSM rasterization with
a kill-distance filter, polygon clipping, and vertical accuracy checks.

The triangulation runs in array rounds over the xy-projection (GPU-DT,
Rong et al. 2008; gDel2D, Qi, Cao & Tan 2012), inside an enclosing
super-triangle, in int32 triangle vertex and neighbour arrays of 2n + 1
rows. The points come in along a Hilbert curve in BRIO rounds (Amenta,
Choi & Rote 2003); each point is located once, by a visibility walk
from a triangle close to its curve neighbour, every triangle reached
inserts one of its walkers, and Lawson passes then flip illegal edges
until none is left. Every orientation and in-circle test, the tie rule
and the clip rings' self-intersection check included, is one array
predicate, :func:`_signs`: a float filter over numpy blocks, exact
integers where it cannot decide (Shewchuk 1997); pixel-grid clouds are
almost entirely cocircular, so naive float predicates would corrupt the
topology. Exact in-circle ties are broken by a symbolic perturbation of
the vertices' lifts, so the triangle array, each row starting at its
lowest vertex, is the unique Delaunay triangulation of the perturbed
vertices, a function of the deduplicated vertex array alone. The tests
hold it bit for bit to a scalar Bowyer-Watson oracle that has its own
scalar predicates. Being unique, it can be handed on: :func:`build_tin`
returns a TIN given to it as ``reuse`` when its vertices are the cloud's
deduplicated vertices bit for bit, so one pipeline run triangulates
once for its DSM and its vertical check.
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
_ROUND_POINTS = 1 << 16  # new points per insert round, which bounds its arrays
_CLAIM_PAIRS = 1 << 16  # candidate (triangle, cell) pairs per DSM claim block
_UNCLAIMED = np.iinfo(np.int64).max


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
    counterclockwise in the xy-plane. From :func:`build_tin`, the
    triangles are the whole Delaunay triangulation of the vertices, a
    function of the vertex array alone."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        v.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

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


def _hilbert_order(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices in the order of a Hilbert curve over a 65536 x 65536 grid
    on the points' bounding square, ties in index order."""
    lo_x, lo_y = xs.min(), ys.min()
    span = max(float(xs.max() - lo_x), float(ys.max() - lo_y)) or 1.0
    x = np.minimum(((xs - lo_x) / span * 65535.0).astype(np.int64), 65535)
    y = np.minimum(((ys - lo_y) / span * 65535.0).astype(np.int64), 65535)
    d = np.zeros(len(xs), np.int64)
    s = 1 << 15
    while s:
        rx, ry = (x & s) > 0, (y & s) > 0
        d += s * s * ((3 * rx) ^ ry)
        # Turn the quadrant so that the curve enters it at its origin.
        flip = rx & ~ry
        x, y = np.where(flip, 65535 - x, x), np.where(flip, 65535 - y, y)
        x, y = np.where(ry, x, y), np.where(ry, y, x)
        s >>= 1
    return np.argsort(d, kind="stable")


class _Triangulator:
    """Delaunay triangulation of xy coordinates in array rounds, after
    GPU-DT (Rong, Tan, Cao & Stephanus 2008) and gDel2D (Qi, Cao &
    Tan 2012), in the rounds of a biased randomized insertion order
    (BRIO; Amenta, Choi & Rote 2003), drawn along a Hilbert curve
    instead of at random.

    Triangle t has counterclockwise vertices ``tv[t]``. Half-edge
    ``3t + k`` is its edge ``(tv[t, k], tv[t, (k + 1) % 3])``, and
    ``tn[t, k]`` is the half-edge of the same edge in the neighbouring
    triangle, or -1 on the super-triangle's hull. ``vt[v]`` is a row
    holding vertex v, written wherever rows are written; for a point
    waiting to be inserted, it is the row its last walk reached.

    Level k of the curve is the positions whose lowest set bit is 2^k.
    The levels come in from the highest k down, position 0 first, each
    in one round, or in rounds of ``_ROUND_POINTS`` consecutive positions
    when it holds more: that bounds a round's arrays (at 1920 x 1080 the
    whole last level, a million points, in one round raised the build's
    peak RSS by a third). Each point of level k walks from ``vt[h]``, h
    the nearer of its curve neighbours i - 2^k and i + 2^k, which an
    earlier round brought in; a waiting point walks on from where it
    stopped. A visibility walk crosses the first edge that has the point
    strictly on its right, until none has, so it ends in a triangle
    holding the point, boundary included. On a Delaunay triangulation it
    needs no step cap (Devillers, Pion & Teillaud 2002): crossing a
    locally Delaunay edge never raises the point's power to the
    circumcircle, and the triangles sharing one circumcircle form a
    forest, in which a walk never turns back. Walks therefore run only
    between legalized rounds.

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
    of a Delaunay edge stay Delaunay. Each insert adds two rows, so n
    points fill 2n + 1 (int32 half-edge ids hold up to about 357 million
    points). ``moved``, the identity map of half-edges that ``_relink``
    moves edges through, is as large as ``tv``; ``dirty`` adds a flag per
    row, and every ``_insert_round`` (``claim``) and ``_legalize``
    (``best``) call allocates an int64 per filled row. Beyond the rows,
    working memory is the vertex map, the curve ranks and the schedule,
    O(n), and one round's walkers and fans, the new points plus those
    still waiting. The result is the
    unique Delaunay triangulation of the points perturbed as in
    :func:`_incircle_tie`, which no insertion order changes.
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
        self.vt = np.zeros(n + 3, np.int32)
        self.rows = 1
        order = _hilbert_order(xs, ys)
        self.rank = np.empty(n, np.int64)
        self.rank[order] = np.arange(n)
        self.rounds = self._schedule(order)
        self.waiting = np.empty(0, np.int64)
        # Scratch: identity and all False between steps.
        self.moved = np.arange(3 * rows, dtype=np.int32)
        self.dirty = np.zeros(rows, bool)

    def _schedule(self, order: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each round's points and the vertices whose rows their walks
        start from, the last round first. Position 0 starts from its own
        entry, row 0."""
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

    def _walk(self, p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Visibility walks of points p from rows t: the rows reached and,
        (len(p), 3), which of their edges each point lies on. A walk that
        entered across edge e has its point strictly left of e and tests
        only e + 1 and e + 2."""
        flat_tv, flat_tn = self.tv.reshape(-1), self.tn.reshape(-1)
        t = t.astype(np.int64)
        on = np.zeros((p.size, 3), bool)
        lane = np.arange(p.size)
        k = np.broadcast_to(np.arange(3), (p.size, 3))
        while lane.size:
            h = 3 * t[lane, None] + k
            o = self._orient(
                flat_tv[h].ravel(), flat_tv[_next(h)].ravel(), np.repeat(p[lane], k.shape[1])
            ).reshape(k.shape)
            right = o < 0
            go = right.any(axis=1)
            on[lane[~go, None], k[~go]] = o[~go] == 0
            across = flat_tn[h[go, right[go].argmax(axis=1)]].astype(np.int64)
            lane = lane[go]
            t[lane] = across // 3
            k = (across[:, None] + [1, 2]) % 3
        return t, on

    def _insert_round(self) -> np.ndarray:
        """Walk the next round's points and the waiting ones, and insert
        into every triangle reached its walker of median curve rank,
        unless a lower point claimed the triangle for a 2-4 split; the
        others wait. Returns the rows written."""
        tv, tn, vt = self.tv, self.tn, self.vt
        flat_tv = tv.reshape(-1)
        new, start = self.rounds.pop() if self.rounds else (self.waiting[:0],) * 2
        walkers = np.append(self.waiting, new)
        reached, on = self._walk(walkers, vt[np.append(self.waiting, start)])
        # Sorting by triangle, then curve rank, groups each triangle's
        # walkers in curve order.
        by_tri = np.argsort(reached * self.rank.size + self.rank[walkers])
        held = reached[by_tri]
        first = np.flatnonzero(np.diff(held, prepend=-1))
        count = np.diff(np.append(first, held.size))
        pick = by_tri[first + count // 2]
        p, t, zero = walkers[pick], reached[pick], on[pick]
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
        tv[rows] = np.column_stack([tail, head, hub])
        tn[rows, 1] = 3 * after + 2
        tn[rows, 2] = 3 * before + 1
        vt[tv[rows]] = rows[:, None]
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
        self.vt[tv[t]] = t[:, None]
        self.vt[tv[u]] = u[:, None]

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
            # A sort, not np.unique: numpy 2's unique hashes integer
            # arrays first, about 15x slower on a pass's 20k rows.
            rows = np.sort(np.append(t, u))
            rows = rows[np.diff(rows, prepend=-1) != 0]
            h = (3 * rows[:, None] + np.arange(3)).ravel()

    def run(self) -> np.ndarray:
        """Insert every point; returns the (2n + 1, 3) vertex array,
        super-triangle rows included."""
        while self.rounds or self.waiting.size:
            self._legalize(self._insert_round())
        if self.rows != len(self.tv):
            raise CollinearInput("triangulation is incomplete; duplicate or collinear input")
        return self.tv


def _real_triangles(tv: np.ndarray, n_real: int) -> np.ndarray:
    """Rows of ``tv`` with no super-triangle vertex, each rotated so that
    its lowest vertex index comes first, in lexicographic order."""
    tri = np.asarray(tv, dtype=np.int64).reshape(-1, 3)
    a, b, c = tri.T
    tri = tri[np.maximum(np.maximum(a, b), c) < n_real]
    # argmin of each row, a column at a time (first index on ties).
    a, b, c = tri.T
    shift = np.where(b < a, np.where(c < b, 2, 1), np.where(c < a, 2, 0))[:, None]
    tri = np.take_along_axis(tri, (np.arange(3) + shift) % 3, axis=1)
    return tri[np.lexsort(tri.T[::-1])]


def _all_collinear(xs: np.ndarray, ys: np.ndarray) -> bool:
    """Whether every point lies on the line through points 0 and 1 (so
    also whether there are fewer than three)."""
    k = np.arange(2, len(xs))
    return not _signs(_orient_terms, _ORIENT_FILTER, xs, ys, np.zeros_like(k), np.ones_like(k), k).any()


def build_tin(cloud: PointCloud, reuse: Optional[Tin] = None) -> Tin:
    """Delaunay TIN over the cloud's xy projection.

    Points of exactly equal xy collapse to one vertex keeping the highest
    z. The triangle array is the Delaunay triangulation of the
    deduplicated vertices' xy as ``Tin.vertices`` stores them: exact
    in-circle ties are broken by a perturbation rule on the vertex
    indices, not by the insertion order, each row starts at its lowest
    vertex index, and the rows are sorted. Raises TooFewPoints
    / CollinearInput when no triangulation exists, or when the points are
    so nearly collinear that every triangle touches the super-triangle.

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
    # All collinear -> no triangulation; triangulating would fail slowly.
    if _all_collinear(xs, ys):
        raise CollinearInput("all points are collinear in the xy-plane")
    triangles = _real_triangles(_Triangulator(xs, ys).run(), n)
    if not len(triangles):
        raise CollinearInput("the points are nearly collinear: no triangle avoids the super-triangle")
    return Tin(vertices=xyz, triangles=triangles)


# --- interpolation and rasterization ------------------------------------------

def _corner_bounds(v: np.ndarray, tri: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row minimum and maximum of ``v`` over the three corners of
    ``tri``'s rows, a column at a time (a length-3 reduction per row is
    many times slower)."""
    a, b, c = (v[tri[:, k]] for k in range(3))
    return np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)


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
    finds them without a point x triangle matrix."""
    xs, ys, _ = tin.vertices.T
    tri = tin.triangles
    order = np.argsort(px, kind="stable")
    sorted_x = px[order]
    tx_min, tx_max = _corner_bounds(xs, tri)
    lo = np.searchsorted(sorted_x, tx_min - 1e-9, side="left")
    hi = np.searchsorted(sorted_x, tx_max + 1e-9, side="right")
    tids, rank = _expand(hi - lo)
    qid = order[lo[tids] + rank]
    y = py[qid]
    ty_min, ty_max = _corner_bounds(ys, tri[tids])
    overlap = (ty_min - 1e-9 <= y) & (y <= ty_max + 1e-9)
    qid, tids = qid[overlap], tids[overlap]
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
    tx_min, tx_max = _corner_bounds(xs, tri)
    ty_min, ty_max = _corner_bounds(ys, tri)

    # Cell index ranges covering each triangle bbox (y decreases by row),
    # padded by half a cell so boundary-tolerance hits are never missed.
    c0 = np.ceil((tx_min - geom.origin_x) / cell - 0.5 - 1e-12).astype(np.int64)
    c1 = np.floor((tx_max - geom.origin_x) / cell + 0.5 + 1e-12).astype(np.int64)
    r0 = np.ceil((geom.origin_y - ty_max) / cell - 0.5 - 1e-12).astype(np.int64)
    r1 = np.floor((geom.origin_y - ty_min) / cell + 0.5 + 1e-12).astype(np.int64)
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
    interpolation bridges across data gaps."""
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
