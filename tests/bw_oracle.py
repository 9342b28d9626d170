"""The scalar Bowyer-Watson triangulator that ``surface._Triangulator``
replaced, kept as the oracle its triangle arrays are tested against.

It inserts one point at a time: a visibility walk finds the triangle
that contains the point, the cavity of triangles whose circumcircle
holds it (ties broken by :func:`incircle_tie`) is flooded, and a fan
from the point refills it (Bowyer 1981, Watson 1981), in flat triangle
vertex and neighbour lists after Sloan (1987). Its predicates and tie
rule are scalar restatements of ``surface._signs`` and
``surface._incircle_tie``, sharing only the determinants, their filter
bounds and the exact integer path. It shares the dedupe, the
super-triangle margin and the row canonicalization with ``build_tin``,
and nothing of its triangulator. It inserts in Morton order, its own:
the visibility walk starts from the last triangle made, so it needs
spatially close consecutive points (on the 320x240 beach cloud a walk
in (x, y) order took about nine times as long).

Run as a script, it also holds ``build_tin``'s ``near`` TINs to the
whole-set TIN: ``vertical_check`` must report the same at every query.

    PYTHONPATH=src python tests/bw_oracle.py  # array TIN == oracle, 320x240 beach
"""

from __future__ import annotations

import sys
import time

import numpy as np

from shoremap.errors import CollinearInput
from shoremap.geometry import Point3
from shoremap.georectify import Gcp
from shoremap.stereo import PointCloud
from shoremap.surface import (
    _INCIRCLE_FILTER,
    _ORIENT_FILTER,
    _SUPER_MARGIN,
    _dedupe_xy,
    _exact_sign,
    _incircle_terms,
    _orient_terms,
    _real_triangles,
    build_tin,
    vertical_check,
)


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
    is the triangle across its edge ``(tv[3t+k], tv[3t+(k+1)%3])``, or -1
    on the super-triangle's hull. A cavity of k triangles is a disk with
    no interior vertex, so its boundary has k + 2 edges, and the fan that
    replaces it refills the k slots and appends two.
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
                if nb >= 0 and orient2d(xs[i], ys[i], xs[j], ys[j], px, py) < 0:
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
                    inside = incircle(
                        xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], px, py
                    ) or incircle_tie(xs, ys, a, b, c, p)
                    if inside > 0:
                        cavity.add(nb)
                        stack.append(nb)
                        continue
                boundary.append((tv[base + k], tv[base + (k + 1) % 3], nb))
        if len(boundary) != len(cavity) + 2 or any(
            orient2d(xs[i], ys[i], xs[j], ys[j], px, py) <= 0
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
    tri = BowyerWatson(xs, ys)
    for idx in (morton_order(xs, ys) if order is None else order).tolist():
        tri.insert(idx)
    return _real_triangles(np.array(tri.tv), len(xs))


def beach_cloud(seed: int, width: int, height: int) -> np.ndarray:
    """The ray-cast surface points under every pixel of a BeachScene's
    left camera."""
    from synth import BeachScene

    scene = BeachScene(seed=seed, width=width, height=height)
    _, _, x, y = scene.render(scene.t_left)
    return np.column_stack([x.ravel(), y.ravel(), scene.z_surf(x, y).ravel()])


def near_queries(tin, rng, n: int = 500) -> np.ndarray:
    """n seeded query points, a quarter of each kind: random points in the
    vertex bounding box, vertices, edge midpoints, and points within two
    mean spacings either side of the bounding box's boundary."""
    v = tin.vertices[:, :2]
    lo, hi = v.min(axis=0), v.max(axis=0)
    spacing = np.sqrt(np.prod(hi - lo) / len(v))
    k = n // 4
    rows = tin.triangles[rng.integers(0, len(tin.triangles), k)]
    corner = rng.integers(0, 3, k)
    mid = (v[rows[np.arange(k), corner]] + v[rows[np.arange(k), (corner + 1) % 3]]) / 2
    around = lo + rng.random((k, 2)) * (hi - lo)
    side = rng.integers(0, 4, k)  # left, right, bottom, top
    axis, end = side // 2, side % 2
    around[np.arange(k), axis] = np.where(end, hi[axis], lo[axis]) + (rng.random(k) * 4 - 2) * spacing
    return np.concatenate([
        lo + rng.random((n - 3 * k, 2)) * (hi - lo), v[rng.integers(0, len(v), k)], mid, around,
    ])


def near_differences(cloud: PointCloud, tin, rng, group: int = 10) -> tuple[int, int, int]:
    """How many groups of ``group`` queries get a different vertical check
    from a near TIN than from the whole-set ``tin``, how many near TINs
    were a strict subset of it, and how many groups there were."""
    q = near_queries(tin, rng)
    gcps = [Gcp(str(i), Point3(x, y, 0.0)) for i, (x, y) in enumerate(q.tolist())]
    differ = subsets = 0
    for s in range(0, len(q), group):
        near = build_tin(cloud, near=q[s:s + group])
        subsets += len(near.triangles) < len(tin.triangles)
        differ += vertical_check(near, gcps[s:s + group]) != vertical_check(tin, gcps[s:s + group])
    return differ, subsets, len(range(0, len(q), group))


def main() -> int:
    """The 320x240 beach cloud, then the same cloud moved by (+500,000,
    +5,200,000) m, as UTM coordinates would put it, so that the
    predicates see large raw coordinates. (A BeachScene's seed redraws
    only its texture, not its geometry.)"""
    failed = 0
    beach = beach_cloud(0, 320, 240)
    clouds = {"beach": beach, "beach + UTM offset": beach + [500_000.0, 5_200_000.0, 0.0]}
    for rng_seed, (label, xyz) in zip((0, 7), clouds.items()):
        cloud = PointCloud(xyz=xyz)
        t0 = time.perf_counter()
        tin = build_tin(cloud)
        t1 = time.perf_counter()
        want = oracle_triangles(xyz)
        t2 = time.perf_counter()
        same = np.array_equal(tin.triangles, want)
        differ, subsets, groups = near_differences(cloud, tin, np.random.default_rng(rng_seed))
        t3 = time.perf_counter()
        failed += not same or differ > 0
        print(
            f"{label}: {len(want)} triangles, array {t1 - t0:.2f} s, "
            f"oracle {t2 - t1:.2f} s, {'identical' if same else 'DIFFERENT'}; "
            f"near TINs ({subsets} of {groups} subsets) {t3 - t2:.2f} s, "
            f"{'same vertical check' if not differ else f'{differ} groups DIFFERENT'}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
