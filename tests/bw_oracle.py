"""The scalar Bowyer-Watson triangulator that ``surface._Triangulator``
replaced, kept as the oracle its triangle arrays are tested against.

It inserts one point at a time: a visibility walk finds the triangle
that contains the point, the cavity of triangles whose circumcircle
holds it (ties broken by :func:`incircle_tie`) is flooded, and a fan
from the point refills it (Bowyer 1981, Watson 1981), in flat triangle
vertex and neighbour lists after Sloan (1987). Its predicates and tie
rule are scalar restatements of ``surface._signs`` and
``surface._incircle_tie``, sharing only the determinants and their
filter bounds: its exact fallback, :func:`_exact_sign`, is its own. It
shares the dedupe and the row canonicalization with ``build_tin``, and
nothing of its triangulator.
The mesh is closed by ghost triangles, one per hull edge, on a vertex
at infinity (Shewchuk 1996): a ghost joins the cavity when the point is
strictly outside its hull edge or on the open edge. Inserting one point
at a time, it needs no centre for its ghosts, unlike ``build_tin``'s
concurrent rounds. It inserts in Morton order, its own: the visibility
walk starts from the last triangle made, so it needs spatially close
consecutive points (on the 320x240 beach cloud a walk in (x, y) order
took about nine times as long).

It also keeps the bounding-box DSM claim that ``surface._locate``
replaced, as the reference that ``rasterize_tin`` is held to on the
largest cloud.

    PYTHONPATH=src python tests/bw_oracle.py  # array TIN == oracle, 320x240 and 640x480 beach; DSM == claim
"""

from __future__ import annotations

import sys
import time

import numpy as np

from shoremap.errors import CollinearInput
from shoremap.stereo import PointCloud
from shoremap.geometry import GridGeometry
from shoremap.surface import (
    _INCIRCLE_FILTER,
    _ORIENT_FILTER,
    _UNCLAIMED,
    NODATA,
    Tin,
    _block_bounds,
    _dedupe_xy,
    _expand,
    _incircle_terms,
    _interpolate,
    _orient_terms,
    _real_triangles,
    build_tin,
    rasterize_tin,
)


def _exact_sign(terms, *coords) -> int:
    """Sign of ``terms``' determinant in exact integer arithmetic: every
    coordinate times the largest of their power-of-two denominators. The
    determinant is homogeneous, so the common scale keeps its sign."""
    ratios = [float(v).as_integer_ratio() for v in coords]
    den = max(d for _, d in ratios)
    det, _ = terms(*(num * (den // d) for num, d in ratios))
    return (det > 0) - (det < 0)


def _filtered_sign(terms, eps, *coords) -> int:
    det, magnitude = terms(*coords)
    bound = eps * magnitude
    if det > bound:
        return 1
    if det < -bound:
        return -1
    return _exact_sign(terms, *coords)


def orient2d(ax, ay, bx, by, cx, cy) -> int:
    """Sign of the doubled signed area of (a, b, c): +1 CCW, -1 CW, 0
    collinear. Exact."""
    return _filtered_sign(_orient_terms, _ORIENT_FILTER, ax, ay, bx, by, cx, cy)


def incircle(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    """+1 when d is strictly inside the circumcircle of CCW triangle
    (a, b, c), -1 outside, 0 on the circle. Exact."""
    return _filtered_sign(
        _incircle_terms, _INCIRCLE_FILTER, ax, ay, bx, by, cx, cy, dx, dy
    )


def incircle_tie(xs, ys, a, b, c, d) -> int:
    """The answer for vertices (a, b, c, d) where :func:`incircle` returns
    0: the lowest index decides, by the orientation of the other three,
    signed (+, -, +, -) by its position (simulation of simplicity)."""
    quad = (a, b, c, d)
    pos = quad.index(min(quad))
    i, j, k = quad[:pos] + quad[pos + 1:]
    sign = orient2d(xs[i], ys[i], xs[j], ys[j], xs[k], ys[k])
    return -sign if pos % 2 else sign


class BowyerWatson:
    """Bowyer-Watson incremental Delaunay over xy coordinates.

    Triangle t has counterclockwise vertices ``tv[3t:3t+3]``; ``tn[3t+k]``
    is the triangle across its edge ``(tv[3t+k], tv[3t+(k+1)%3])``. The
    ghost vertex ``g = n`` has no coordinates: ghost triangle (b, a, g)
    lies across hull edge (a, b). A cavity of k triangles is a disk with
    no interior vertex, so its boundary has k + 2 edges, and the fan that
    replaces it refills the k slots and appends two. The first triangle
    is the first three points of ``order`` that are not collinear; the
    points it skips go in right after it.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, order: list[int]):
        self.xs, self.ys = xs.tolist(), ys.tolist()
        g = self.ghost = len(xs)
        a, b = order[:2]
        k = next(k for k in range(2, len(order)) if self._orient(a, b, order[k]))
        c = order[k]
        if self._orient(a, b, c) < 0:
            a, b = b, a
        self.order = order[2:k] + order[k + 1:]
        self.tv = [a, b, c, b, a, g, c, b, g, a, c, g]
        self.tn = [1, 2, 3, 0, 3, 2, 0, 1, 3, 0, 2, 1]
        self.last = 0

    def _orient(self, i: int, j: int, k: int) -> int:
        xs, ys = self.xs, self.ys
        return orient2d(xs[i], ys[i], xs[j], ys[j], xs[k], ys[k])

    def _conflict(self, t: int, p: int) -> bool:
        """Whether p lies inside triangle t's circumcircle (tie rule
        included) or, for a ghost, strictly outside its hull edge or on
        the open edge."""
        xs, ys = self.xs, self.ys
        tri = self.tv[3 * t:3 * t + 3]
        if self.ghost in tri:
            k = tri.index(self.ghost)
            b, a = tri[(k + 1) % 3], tri[(k + 2) % 3]
            side = self._orient(a, b, p)
            return side < 0 or side == 0 and all(
                min(v[a], v[b]) <= v[p] <= max(v[a], v[b]) for v in (xs, ys)
            )
        a, b, c = tri
        side = incircle(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], xs[p], ys[p])
        return (side or incircle_tie(xs, ys, a, b, c, p)) > 0

    def _locate(self, p: int) -> int:
        """Visibility walk over the real triangles to the one containing
        p, or to the ghost across the first hull edge that has p strictly
        on its right; it ends in any Delaunay triangulation (Devillers,
        Pion & Teillaud 2002)."""
        tv, tn = self.tv, self.tn
        t = self.last
        while True:
            base = 3 * t
            for k in range(3):
                if self._orient(tv[base + k], tv[base + (k + 1) % 3], p) < 0:
                    t = tn[base + k]
                    if self.ghost in tv[3 * t:3 * t + 3]:
                        return t
                    break
            else:
                return t

    def insert(self, p: int):
        tv, tn, g = self.tv, self.tn, self.ghost
        seed = self._locate(p)
        # Flood the cavity of triangles in conflict with p; its boundary
        # edges, (i, j) as stored in the cavity triangle, face the
        # triangle outside.
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
                if self._conflict(nb, p):
                    cavity.add(nb)
                    stack.append(nb)
                    continue
                boundary.append((tv[base + k], tv[base + (k + 1) % 3], nb))
        if len(boundary) != len(cavity) + 2 or any(
            g not in (i, j) and self._orient(i, j, p) <= 0 for i, j, _ in boundary
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
            nbase = 3 * nb
            tn[nbase + tv[nbase:nbase + 3].index(j)] = t
            starting_at[i] = t
            if g not in (i, j):
                self.last = t
        for t in starting_at.values():
            u = starting_at[tv[3 * t + 1]]
            tn[3 * t + 1] = u
            tn[3 * u + 2] = t


def morton_order(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices in the order of a Morton (Z-)curve over a 65536 x 65536
    grid on the points' bounding box, ties in index order."""
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


def oracle_triangles(xyz: np.ndarray, order=None) -> np.ndarray:
    """build_tin's triangle array, computed by Bowyer-Watson over the
    deduplicated xy as they are, inserting the points in ``order``
    (Morton order by default)."""
    xyz = _dedupe_xy(xyz)
    xs, ys = xyz[:, 0], xyz[:, 1]
    tri = BowyerWatson(xs, ys, (morton_order(xs, ys) if order is None else order).tolist())
    for idx in tri.order:
        tri.insert(idx)
    tv = np.array(tri.tv).reshape(-1, 3)
    across = np.array(tri.tn).reshape(-1, 3)
    # The mate of edge (a, b) is the half-edge of the row across that starts at b.
    mates = 3 * across + (tv[across] == np.roll(tv, -1, axis=1)[:, :, None]).argmax(axis=2)
    return _real_triangles(tv, mates, len(xs))[0]


# --- the DSM claim that the point locator replaced ---------------------------

_CLAIM_PAIRS = 1 << 16  # candidate (triangle, cell) pairs per DSM claim block


def _corner_bounds(v: np.ndarray, tri: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row minimum and maximum of ``v`` over the three corners of
    ``tri``'s rows, a column at a time (a length-3 reduction per row is
    many times slower)."""
    a, b, c = (v[tri[:, k]] for k in range(3))
    return np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)


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


def claim_grid_dsm(tin: Tin, geom: GridGeometry, kill: float) -> np.ndarray:
    """``rasterize_tin``'s values as the bounding-box claim gave them:
    NODATA outside the hull and where the claimed triangle has an xy
    edge longer than ``kill``."""
    claim, values = _claim_grid(tin, geom)
    x, y = tin.vertices[:, 0], tin.vertices[:, 1]
    a, b, c = tin.triangles.T
    longest = np.maximum.reduce(
        [np.hypot(x[i] - x[j], y[i] - y[j]) for i, j in ((a, b), (b, c), (c, a))]
    )
    # The trailing True is what claim -1 (outside the hull) indexes.
    dead = np.append(longest > kill, True)
    values[dead[claim]] = NODATA
    return values


def beach_cloud(seed: int, width: int, height: int) -> np.ndarray:
    """The ray-cast surface points under every pixel of a BeachScene's
    left camera."""
    from synth import BeachScene

    scene = BeachScene(seed=seed, width=width, height=height)
    _, _, x, y = scene.render(scene.t_left)
    return np.column_stack([x.ravel(), y.ravel(), scene.z_surf(x, y).ravel()])


def main() -> int:
    """The 320x240 beach cloud, then the same cloud moved by (+500,000,
    +5,200,000) m, as UTM coordinates would put it, so that the
    predicates see large raw coordinates. (A BeachScene's seed redraws
    only its texture, not its geometry.) Then the 640x480 beach cloud
    rounded to 0.1 mm, as LAS stores it: at that scale the walks' start
    rows matter most, and its pixel-grid points tie often. On that
    cloud's TIN, rasterize_tin at 3 cm cells, about five point spacings,
    and a 1 cm kill distance must also give the bounding-box claim's DSM
    bit for bit."""
    failed = 0
    beach = beach_cloud(0, 320, 240)
    clouds = [
        ("beach", beach),
        ("beach + UTM offset", beach + [500_000.0, 5_200_000.0, 0.0]),
        ("beach 640x480 at 0.1 mm", np.round(beach_cloud(0, 640, 480), 4)),
    ]
    for label, xyz in clouds:
        t0 = time.perf_counter()
        tin = build_tin(PointCloud(xyz=xyz))
        t1 = time.perf_counter()
        want = oracle_triangles(xyz)
        t2 = time.perf_counter()
        same = np.array_equal(tin.triangles, want)
        failed += not same
        print(
            f"{label}: {len(want)} triangles, array {t1 - t0:.2f} s, "
            f"oracle {t2 - t1:.2f} s, {'identical' if same else 'DIFFERENT'}",
            flush=True,
        )
    x0, y0 = tin.vertices[:, :2].min(axis=0)
    x1, y1 = tin.vertices[:, :2].max(axis=0)
    geom = GridGeometry(
        origin_x=x0 - 0.05, origin_y=y1 + 0.05, cell_size=0.03,
        n_cols=int((x1 - x0) / 0.03) + 5, n_rows=int((y1 - y0) / 0.03) + 5,
    )
    t0 = time.perf_counter()
    values = rasterize_tin(tin, geom, kill=0.01).values
    t1 = time.perf_counter()
    want = claim_grid_dsm(tin, geom, 0.01)
    t2 = time.perf_counter()
    same = values.tobytes() == want.tobytes()
    failed += not same
    print(
        f"DSM on the last cloud: {values.size} cells, {int((want != NODATA).sum())} with data, "
        f"locator {t1 - t0:.2f} s, bounding-box claim {t2 - t1:.2f} s, "
        f"{'identical' if same else 'DIFFERENT'}",
        flush=True,
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
