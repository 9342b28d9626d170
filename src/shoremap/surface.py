"""TIN construction, linear surface interpolation, DSM rasterization with
a kill-distance filter, polygon clipping, and vertical accuracy checks.

The triangulation is incremental Bowyer-Watson over the xy-projection,
bootstrapped from an enclosing super-triangle and kept in flat triangle
vertex and neighbour arrays (Sloan 1987). Orientation and in-circle
predicates use a floating-point filter with an exact rational fallback;
point clouds derived from pixel grids are almost entirely cocircular, so
naive float predicates would corrupt the topology. Exact in-circle ties
are broken by a symbolic perturbation of the vertices' lifts, so the
triangle array is a function of the deduplicated vertex array alone:
the insertion order affects only speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

_DEDUP_EPS = 1e-9
_BARY_EPS = 1e-12
_ORIENT_FILTER = 1e-15
_INCIRCLE_FILTER = 3e-15
_SUPER_MARGIN = 1e6


# --- exact-fallback predicates ----------------------------------------------

def _orient2d(ax, ay, bx, by, cx, cy) -> int:
    """Sign of the doubled signed area of (a, b, c): +1 CCW, -1 CW, 0
    collinear. Exact."""
    t1 = (bx - ax) * (cy - ay)
    t2 = (by - ay) * (cx - ax)
    det = t1 - t2
    bound = _ORIENT_FILTER * (abs(t1) + abs(t2))
    if det > bound:
        return 1
    if det < -bound:
        return -1
    fa_x, fa_y = Fraction(ax), Fraction(ay)
    det_exact = (Fraction(bx) - fa_x) * (Fraction(cy) - fa_y) - (
        Fraction(by) - fa_y
    ) * (Fraction(cx) - fa_x)
    return (det_exact > 0) - (det_exact < 0)


def _incircle(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    """+1 when d is strictly inside the circumcircle of CCW triangle
    (a, b, c), -1 outside, 0 on the circle. Exact."""
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
    bound = _INCIRCLE_FILTER * permanent
    if det > bound:
        return 1
    if det < -bound:
        return -1
    fa = (Fraction(ax) - Fraction(dx), Fraction(ay) - Fraction(dy))
    fb = (Fraction(bx) - Fraction(dx), Fraction(by) - Fraction(dy))
    fc = (Fraction(cx) - Fraction(dx), Fraction(cy) - Fraction(dy))
    la = fa[0] * fa[0] + fa[1] * fa[1]
    lb = fb[0] * fb[0] + fb[1] * fb[1]
    lc = fc[0] * fc[0] + fc[1] * fc[1]
    det_exact = (
        fa[0] * (fb[1] * lc - fc[1] * lb)
        - fa[1] * (fb[0] * lc - fc[0] * lb)
        + la * (fb[0] * fc[1] - fc[0] * fb[1])
    )
    return (det_exact > 0) - (det_exact < 0)


def _incircle_tie(xs, ys, a, b, c, d) -> int:
    """:func:`_incircle` of vertices (a, b, c, d) where it returns 0,
    decided by simulation of simplicity (Edelsbrunner & Mücke 1990): each
    vertex i's lift x^2 + y^2 is raised by eps^(i+1), eps -> 0, so the
    lowest index decides, by the orientation of the other three, signed
    (+, -, +, -) by its position. Four distinct cocircular points have no
    three collinear, so the answer is never 0."""
    quad = (a, b, c, d)
    pos = quad.index(min(quad))
    i, j, k = quad[:pos] + quad[pos + 1:]
    sign = _orient2d(xs[i], ys[i], xs[j], ys[j], xs[k], ys[k])
    return -sign if pos % 2 else sign


# --- types -------------------------------------------------------------------

@dataclass(frozen=True)
class Tin:
    """Triangulated surface, both arrays read-only: vertices (n, 3) float64
    x, y, z and triangles (m, 3) int64 vertex indices, oriented
    counterclockwise in the xy-plane."""

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
        """Longest xy edge per triangle."""
        xy = self.vertices[self.triangles, :2]  # (m, 3 corners, 2)
        edges = xy - np.roll(xy, -1, axis=1)  # corner k to corner k + 1
        return np.hypot(edges[..., 0], edges[..., 1]).max(axis=1)


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


def _segments_intersect(p1, p2, p3, p4) -> bool:
    """True when closed segments p1p2 and p3p4 share a point."""
    d1 = _orient2d(p3[0], p3[1], p4[0], p4[1], p1[0], p1[1])
    d2 = _orient2d(p3[0], p3[1], p4[0], p4[1], p2[0], p2[1])
    d3 = _orient2d(p1[0], p1[1], p2[0], p2[1], p3[0], p3[1])
    d4 = _orient2d(p1[0], p1[1], p2[0], p2[1], p4[0], p4[1])
    if d1 != d2 and d3 != d4:
        return True

    def on_segment(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    if d1 == 0 and on_segment(p3, p4, p1):
        return True
    if d2 == 0 and on_segment(p3, p4, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, p3):
        return True
    if d4 == 0 and on_segment(p1, p2, p4):
        return True
    return False


def _ring_self_intersects(ring: tuple[Point2, ...]) -> bool:
    segs = list(zip(ring[:-1], ring[1:]))
    m = len(segs)
    for i in range(m):
        for j in range(i + 1, m):
            adjacent = j == i + 1 or (i == 0 and j == m - 1)
            if adjacent:
                continue
            if _segments_intersect(*segs[i], *segs[j]):
                return True
    return False


# --- triangulation ------------------------------------------------------------

def _dedupe_xy(xyz: np.ndarray) -> np.ndarray:
    """Collapse points within 1e-9 xy distance, keeping first-seen xy and
    the highest z; survivors stay in input order.

    Sweeping in (x, y) order, a point joins the first earlier survivor
    within 1e-9 of it, else survives itself. Only points with another
    point within 1e-9 in x and 2e-9 in y (a margin for the rounded
    squared distance) can merge, so only those go through the sweep: a
    chain of x-sorted points 1e-9 apart holds every such pair, and
    sorting each chain by y brings the pair together.
    """
    n = xyz.shape[0]
    x, y = xyz[:, 0], xyz[:, 1]
    order = np.lexsort((y, x))
    chain = np.zeros(n, dtype=np.int64)
    chain[order[1:]] = np.cumsum(np.diff(x[order]) > _DEDUP_EPS)
    by_y = np.lexsort((y, chain))
    near = (np.diff(chain[by_y]) == 0) & (np.diff(y[by_y]) <= 2 * _DEDUP_EPS)
    crowded = np.union1d(by_y[:-1][near], by_y[1:][near])
    rep_of = np.arange(n)
    window: list[int] = []
    for idx in order[np.isin(order, crowded)].tolist():
        px, py = x[idx], y[idx]
        window = [w for w in window if px - x[w] <= _DEDUP_EPS]
        for w in window:
            if (px - x[w]) ** 2 + (py - y[w]) ** 2 <= _DEDUP_EPS ** 2:
                rep_of[idx] = w
                break
        else:
            window.append(idx)
    # Survivors in the input order of their clusters' first members.
    reps, first = np.unique(rep_of, return_index=True)
    keep = reps[np.argsort(first, kind="stable")]
    # Highest z per cluster; of equal z (0.0 and -0.0) the first seen.
    z = xyz[:, 2].copy()
    best: dict[int, float] = {}
    for idx in crowded.tolist():
        rep = int(rep_of[idx])
        if rep not in best or xyz[idx, 2] > best[rep]:
            best[rep] = xyz[idx, 2]
    z[list(best)] = list(best.values())
    return np.column_stack([x[keep], y[keep], z[keep]])


def _morton_order(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Deterministic spatial insertion order (Morton / Z-curve).

    Inserting spatially sorted points keeps Bowyer-Watson cavities and
    walk lengths O(1) amortized; feeding long collinear runs (pixel-grid
    clouds) in raw scan order degenerates to quadratic fan churn.
    """
    span_x = float(xs.max() - xs.min()) or 1.0
    span_y = float(ys.max() - ys.min()) or 1.0
    qx = np.minimum(((xs - xs.min()) / span_x * 65535.0).astype(np.uint64), 65535)
    qy = np.minimum(((ys - ys.min()) / span_y * 65535.0).astype(np.uint64), 65535)

    def spread(v: np.ndarray) -> np.ndarray:
        v = (v | (v << 8)) & np.uint64(0x00FF00FF)
        v = (v | (v << 4)) & np.uint64(0x0F0F0F0F)
        v = (v | (v << 2)) & np.uint64(0x33333333)
        v = (v | (v << 1)) & np.uint64(0x55555555)
        return v

    key = spread(qx) | (spread(qy) << np.uint64(1))
    return np.argsort(key, kind="stable")


class _Triangulator:
    """Bowyer-Watson incremental Delaunay over centered xy coordinates,
    stored in flat arrays after Sloan (1987).

    Triangle t has counterclockwise vertices ``tv[3t:3t+3]``; ``tn[3t+k]``
    is the triangle across its edge ``(tv[3t+k], tv[3t+(k+1)%3])``, or -1
    on the super-triangle's hull. Every slot holds a live triangle: a
    cavity of k triangles is a disk with no interior vertex, so its
    boundary has k + 2 edges, and the fan that replaces it refills the k
    slots and appends two. After n inserts there are 2n + 1 slots.
    Ties are broken by :func:`_incircle_tie`, so the triangulation is the
    unique Delaunay triangulation of the perturbed points whatever the
    insertion order; :meth:`real_triangles` fixes each row's rotation.
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
        n = self.n_real = len(xs)
        self.xs = xs.tolist() + [cx - 2.0 * m, cx + 2.0 * m, cx]
        self.ys = ys.tolist() + [cy - m, cy - m, cy + 2.0 * m]
        self.tv = [n, n + 1, n + 2]
        self.tn = [-1, -1, -1]
        self.last = 0

    def _locate(self, px: float, py: float) -> int:
        """Visibility walk to the triangle containing (px, py); it ends in
        any Delaunay triangulation (Devillers, Pion & Teillaud 2002)."""
        xs, ys, tv, tn = self.xs, self.ys, self.tv, self.tn
        t = self.last
        while True:
            base = 3 * t
            for k in range(3):
                nb = tn[base + k]
                i, j = tv[base + k], tv[base + (k + 1) % 3]
                if nb >= 0 and _orient2d(xs[i], ys[i], xs[j], ys[j], px, py) < 0:
                    t = nb
                    break
            else:
                return t

    def insert(self, p: int):
        xs, ys, tv, tn = self.xs, self.ys, self.tv, self.tn
        px, py = xs[p], ys[p]
        seed = self._locate(px, py)
        # Flood the strict in-circle cavity; its boundary edges, (i, j)
        # as stored in the cavity triangle, face the triangle outside.
        cavity = {seed}
        stack = [seed]
        boundary = []
        while stack:
            t = stack.pop()
            base = 3 * t
            for k in range(3):
                nb = tn[base + k]
                if nb in cavity:
                    continue
                if nb >= 0:
                    a, b, c = tv[3 * nb:3 * nb + 3]
                    inside = _incircle(
                        xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], px, py
                    ) or _incircle_tie(xs, ys, a, b, c, p)
                    if inside > 0:
                        cavity.add(nb)
                        stack.append(nb)
                        continue
                boundary.append((tv[base + k], tv[base + (k + 1) % 3], nb))
        if len(boundary) != len(cavity) + 2 or any(
            _orient2d(xs[i], ys[i], xs[j], ys[j], px, py) <= 0
            for i, j, _ in boundary
        ):
            raise CollinearInput(
                "degenerate cavity boundary; duplicate or collinear input"
            )
        # Fan the boundary to p: triangle (i, j, p) takes over edge (i, j)
        # from the outer neighbour, and its edges (j, p) and (p, i) face
        # the fan triangles starting at j and ending at i.
        slots = list(cavity)
        starting_at = {}
        for i, j, nb in boundary:
            if slots:
                t = slots.pop()
                tv[3 * t:3 * t + 3] = i, j, p
                tn[3 * t] = nb
            else:
                t = len(tv) // 3
                tv += (i, j, p)
                tn += (nb, -1, -1)
            if nb >= 0:
                nbase = 3 * nb
                tn[nbase + tv[nbase:nbase + 3].index(j)] = t
            starting_at[i] = t
        for t in starting_at.values():
            u = starting_at[tv[3 * t + 1]]
            tn[3 * t + 1] = u
            tn[3 * u + 2] = t
        self.last = t

    def real_triangles(self, rank: np.ndarray) -> np.ndarray:
        """Rows with no super-triangle vertex, each rotated so that its
        vertex of highest ``rank`` comes last, in lexicographic order."""
        tri = np.array(self.tv, dtype=np.int64).reshape(-1, 3)
        tri = tri[tri.max(axis=1) < self.n_real]
        shift = np.argmax(rank[tri], axis=1)[:, None] + 1
        tri = np.take_along_axis(tri, (np.arange(3) + shift) % 3, axis=1)
        return tri[np.lexsort(tri.T[::-1])]


def build_tin(cloud: PointCloud) -> Tin:
    """Delaunay TIN over the cloud's xy projection.

    Points within 1e-9 xy distance collapse to one vertex keeping the
    highest z. The triangle array is a function of the deduplicated
    vertex array: exact in-circle ties are broken by a perturbation rule
    on the vertex indices, not by the insertion order, and each row has
    its vertex latest in Morton order last. Raises TooFewPoints /
    CollinearInput when no triangulation exists.
    """
    xyz = _dedupe_xy(cloud.xyz)
    if xyz.shape[0] < 3:
        raise TooFewPoints(f"need at least 3 distinct points, got {xyz.shape[0]}")

    cx = float(xyz[:, 0].mean())
    cy = float(xyz[:, 1].mean())
    xs = xyz[:, 0] - cx
    ys = xyz[:, 1] - cy

    # All collinear -> no triangulation.
    collinear = True
    for k in range(2, xyz.shape[0]):
        if _orient2d(xs[0], ys[0], xs[1], ys[1], xs[k], ys[k]) != 0:
            collinear = False
            break
    if collinear:
        raise CollinearInput("all points are collinear in the xy-plane")

    tri = _Triangulator(xs, ys)
    order = _morton_order(xs, ys)
    for idx in order:
        tri.insert(int(idx))

    return Tin(vertices=xyz, triangles=tri.real_triangles(np.argsort(order)))


# --- interpolation and rasterization ------------------------------------------

def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner index and rank within the owner of each of sum(counts) slots."""
    owner = np.repeat(np.arange(counts.size), counts)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, rank


def _interpolate(
    tin: Tin, n: int, qid: np.ndarray, x: np.ndarray, y: np.ndarray,
    tids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric point location and linear interpolation, shared by
    every surface sampler: n query points, candidate pairs (query qid[k]
    at (x[k], y[k]), triangle tids[k]).

    Returns the lowest-index candidate triangle containing each query
    point (-1 where none does) and the interpolated z there (NaN where
    none does).
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

    unclaimed = np.iinfo(np.int64).max
    claim = np.full(n, unclaimed, np.int64)
    np.minimum.at(claim, qid, tids)
    hit = tids == claim[qid]
    za, zb, zc = zs[tri[tids[hit]]].T
    z = np.full(n, np.nan)
    z[qid[hit]] = w0[hit] * za + w1[hit] * zb + w2[hit] * zc
    claim[claim == unclaimed] = -1
    return claim, z


def _interpolate_points(
    tin: Tin, px: np.ndarray, py: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_interpolate` at arbitrary points. Candidates are the
    triangles whose xy bounding box, grown by 1e-9, holds the point; a
    sweep over the x-sorted points finds them without a point x triangle
    matrix."""
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
    return _interpolate(tin, px.size, qid, px[qid], py[qid], tids)


def _claim_grid(tin: Tin, geom: GridGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Lowest-index containing triangle per cell center (-1 where none)
    and the interpolated z there (NaN where none).

    The claim is independent of the kill distance so that filtering only
    ever substitutes NODATA, never changes a retained value. Candidate
    (triangle, cell) pairs come from the triangle bounding boxes.
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

    # Each triangle's block of cells, row-major. Rebinding cols drops the
    # rank array, keeping the per-pair working set small.
    tids, cols = _expand(n_c * n_r)
    rows, cols = np.divmod(cols, n_c[tids])
    rows += r0[tids]
    cols += c0[tids]
    claim, z = _interpolate(
        tin, geom.n_rows * geom.n_cols, rows * geom.n_cols + cols,
        geom.origin_x + cols * cell, geom.origin_y - rows * cell, tids,
    )
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
