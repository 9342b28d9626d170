"""TIN, DSM rasterization, clipping, and vertical check tests."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from shoremap import surface
from shoremap.errors import (
    CollinearInput,
    EmptyGcpSet,
    GridTooLarge,
    InvalidPolygon,
    TooFewPoints,
)
from shoremap.geometry import GridGeometry, Point2, Point3
from shoremap.georectify import Gcp
from shoremap.stereo import PointCloud
from shoremap.surface import (
    NODATA,
    ClipPolygon,
    Tin,
    build_tin,
    clip_dsm,
    rasterize_tin,
    vertical_check,
)
from shoremap.surface import (
    _INCIRCLE_FILTER,
    _ORIENT_FILTER,
    _Triangulator,
    _claim_grid,
    _dedupe_xy,
    _exact_sign,
    _incircle_terms,
    _incircle_tie,
    _orient_terms,
    _ring_self_intersects,
    _segments_intersect,
    _signs,
)

from bw_oracle import (
    beach_cloud,
    incircle,
    incircle_tie,
    morton_order,
    oracle_triangles,
    orient2d,
)


def _cloud(xyz):
    return PointCloud(xyz=np.asarray(xyz, dtype=float))


def _circumcircle_violation(tin: Tin) -> float:
    """Largest (radius - nearest-other-vertex-distance); negative means
    every circumcircle is empty. Direct oracle, independent of the
    incremental construction."""
    xs, ys, _ = tin.vertices.T
    worst = -np.inf
    for a, b, c in tin.triangles:
        ax, ay, bx, by, cx, cy = xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]
        d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        ux = (
            (ax * ax + ay * ay) * (by - cy)
            + (bx * bx + by * by) * (cy - ay)
            + (cx * cx + cy * cy) * (ay - by)
        ) / d
        uy = (
            (ax * ax + ay * ay) * (cx - bx)
            + (bx * bx + by * by) * (ax - cx)
            + (cx * cx + cy * cy) * (bx - ax)
        ) / d
        r = np.hypot(ax - ux, ay - uy)
        dist = np.hypot(xs - ux, ys - uy)
        dist[[a, b, c]] = np.inf
        worst = max(worst, r - dist.min())
    return worst


def _hull_edge_count(tin: Tin) -> int:
    from collections import Counter

    count = Counter()
    for a, b, c in tin.triangles:
        for e in ((a, b), (b, c), (c, a)):
            count[(min(e), max(e))] += 1
    return sum(1 for v in count.values() if v == 1)


class TestBuildTin:
    def test_unit_square_two_triangles(self):
        tin = build_tin(_cloud([[0, 0, 1], [1, 0, 2], [1, 1, 3], [0, 1, 4]]))
        assert len(tin.triangles) == 2
        assert _circumcircle_violation(tin) <= 1e-9
        # Both triangles counterclockwise.
        xs, ys, _ = tin.vertices.T
        for a, b, c in tin.triangles:
            area = (xs[b] - xs[a]) * (ys[c] - ys[a]) - (ys[b] - ys[a]) * (xs[c] - xs[a])
            assert area > 0

    def test_three_points_one_triangle(self):
        tin = build_tin(_cloud([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
        assert len(tin.triangles) == 1

    def test_random_cloud_delaunay_and_euler(self):
        rng = np.random.default_rng(123)
        pts = np.column_stack([rng.random((1000, 2)) * 10, rng.random(1000)])
        tin = build_tin(_cloud(pts))
        assert _circumcircle_violation(tin) <= 1e-9
        n = len(tin.vertices)
        hull = _hull_edge_count(tin)
        assert len(tin.triangles) == 2 * n - hull - 2

    def test_regular_grid_cocircular(self):
        gx, gy = np.meshgrid(np.arange(20) * 0.1, np.arange(15) * 0.1)
        pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(300)])
        tin = build_tin(_cloud(pts))
        assert len(tin.triangles) == 2 * 19 * 14
        assert _circumcircle_violation(tin) <= 1e-9

    def test_collinear_input(self):
        with pytest.raises(CollinearInput):
            build_tin(_cloud([[i, 2.0 * i, 0] for i in range(10)]))

    def test_nearly_collinear_input(self):
        """Three points 1e-4 m off a 10 km line are not exactly collinear,
        but their circumcircle holds the finite super-triangle's corners,
        so every triangle touches one: an error, not an empty TIN."""
        with pytest.raises(CollinearInput, match="nearly collinear"):
            build_tin(_cloud([[0, 0, 0], [5000, 1e-4, 0], [10000, 0, 0]]))

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            build_tin(_cloud([[0, 0, 0], [1, 1, 1]]))

    def test_near_query_must_be_finite(self):
        """A NaN query point is rejected, not silently read as outside
        the TIN: every box comparison with it is false."""
        cloud = _cloud([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError):
            build_tin(cloud, near=[[0.2, 0.2], [np.nan, 0.5]])

    def test_duplicates_keep_higher_z(self):
        """Only exactly equal xy merge: the duplicate keeps the higher z,
        and a point 1e-10 away is a vertex of its own."""
        tin = build_tin(
            _cloud(
                [
                    [0, 0, 1.0],
                    [0, 0, 5.0],       # same xy, higher z wins
                    [1, 0, 2.0],
                    [0, 1, 3.0],
                    [1e-10, 1e-10, 4.0],  # distinct, however close
                ]
            )
        )
        np.testing.assert_array_equal(
            tin.vertices, [[0, 0, 5.0], [1, 0, 2.0], [0, 1, 3.0], [1e-10, 1e-10, 4.0]]
        )
        assert len(tin.triangles) == 3


def _lattice_cloud():
    gx, gy = np.meshgrid(np.arange(20) * 0.1, np.arange(15) * 0.1)
    return np.column_stack([gx.ravel(), gy.ravel(), np.zeros(300)])


def _jittered_lattice_cloud():
    rng = np.random.default_rng(7)
    pts = _lattice_cloud()
    pts[:, :2] += rng.normal(0.0, 1e-3, (300, 2))
    pts[:, 2] = rng.random(300)
    return pts


def _random_cloud():
    rng = np.random.default_rng(123)
    return np.column_stack([rng.random((1000, 2)) * 10, rng.random(1000)])


def _beach_cloud():
    """The ray-cast surface points under every pixel of the left camera."""
    return beach_cloud(0, 64, 48)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# (cloud, vertices, triangles, sha256 of the triangle array, sha256 of
# the x, y and z vertex arrays). The triangles are those of the
# dict-adjacency triangulator that the array-backed one replaced, each
# row rotated to start at its lowest index and the rows sorted.
PINNED_TINS = {
    "lattice": (
        _lattice_cloud, 300, 532,
        "fdd80a5979c0b8f3fdf010d5b577ea40b9cb2cd78e77673197f0732f537e3d57",
        "4717d17bbc4e6f8dc53591485a3ac9094be9f51bbd6fabc6b49133ada2eabcf9",
    ),
    "jittered": (
        _jittered_lattice_cloud, 300, 581,
        "6bf5742a82c1d1e0c9af79348505e8a2edb68e46d5a04585884b3886cfd770c5",
        "4168c6684222dda4f8bd5dee8a9ac8604fe528c8a42e52ce9de9323a35aa092f",
    ),
    "random": (
        _random_cloud, 1000, 1981,
        "f968c68eb608fa131f7d2d21b298b735bddf625aa6b56b32546e5d2ab02f5edd",
        "f2ac0ba4ca3f3e50c9b03778c8d877cda3e69e67c1b2898336637cdfcd150a50",
    ),
    "beach": (
        _beach_cloud, 3072, 5922,
        "1512c8d3086d20d0d5f65c964b550e2832b2de1bafc0f2f6df3e71ee20699c90",
        "6865b102998b332543b777211a5ef7a3373cb819c41f169dbf5b6a790f0a1818",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TINS))
def test_tin_pinned_bit_for_bit(name):
    make, n_vertices, n_triangles, tri_digest, vertex_digest = PINNED_TINS[name]
    tin = build_tin(_cloud(make()))
    assert (len(tin.vertices), len(tin.triangles)) == (n_vertices, n_triangles)
    assert hashlib.sha256(tin.triangles.tobytes()).hexdigest() == tri_digest
    assert _digest(*tin.vertices.T) == vertex_digest


@pytest.mark.parametrize("name", sorted(PINNED_TINS))
def test_tin_independent_of_insertion_order(name):
    """Driving the Bowyer-Watson oracle in Morton, reversed Morton, (x, y)
    and two seeded random orders gives the pinned triangle array every
    time: exact in-circle ties are broken by the vertex indices, not by
    the order."""
    xyz = PINNED_TINS[name][0]()
    xs, ys = _dedupe_xy(xyz)[:, :2].T
    morton = morton_order(xs, ys)
    orders = {"morton": morton, "reversed": morton[::-1], "(x, y)": np.lexsort((ys, xs))}
    for seed in (0, 1):
        orders[f"random {seed}"] = np.random.default_rng(seed).permutation(len(morton))
    for label, order in orders.items():
        triangles = oracle_triangles(xyz, order)
        digest = hashlib.sha256(triangles.tobytes()).hexdigest()
        assert digest == PINNED_TINS[name][3], label


def test_incircle_tie_picks_one_diagonal():
    """Four cocircular points, a counterclockwise square (a, b, c, d),
    under all 24 labelings at once: the rule never answers 0, it answers
    alike for the two triangles of one diagonal and oppositely for the
    other diagonal's, so exactly one diagonal wins. It is also unchanged
    by a rotation of the triangle, which a TIN row may take. Labeling L
    puts its vertices at indices 4L..4L+3, and the scalar restatement of
    the rule in the oracle agrees lane for lane."""
    corners = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    labels = 4 * np.arange(24)[:, None] + list(itertools.permutations(range(4)))
    xs, ys = np.empty(96), np.empty(96)
    xs[labels], ys[labels] = corners[:, 0], corners[:, 1]
    a, b, c, d = labels.T
    assert not _signs(_incircle_terms, _INCIRCLE_FILTER, xs, ys, a, b, c, d).any()
    tie = _incircle_tie(xs, ys, a, b, c, d)
    assert tie.dtype == np.int8
    assert (tie != 0).all()
    np.testing.assert_array_equal(_incircle_tie(xs, ys, c, d, a, b), tie)
    np.testing.assert_array_equal(_incircle_tie(xs, ys, b, c, d, a), -tie)
    np.testing.assert_array_equal(_incircle_tie(xs, ys, b, c, a, d), tie)
    scalar = [incircle_tie(xs, ys, *quad) for quad in labels.tolist()]
    assert tie.tolist() == scalar


def _assert_certified(tin: Tin):
    """Why a TIN is right, checked with the oracle's exact scalar
    predicates on the vertices' xy as the TIN stores them. Where an
    in-circle test ties, the tie rule must keep the edge too, so the TIN
    is the unique Delaunay triangulation of the perturbed points. Rows
    start at their lowest index, in sorted order, and every vertex is
    in a row."""
    xs, ys = tin.vertices[:, 0].tolist(), tin.vertices[:, 1].tolist()
    rows = [tuple(r) for r in tin.triangles.tolist()]
    assert all(r < s for r, s in zip(rows, rows[1:]))
    assert all(a < b and a < c for a, b, c in rows)
    assert len({v for r in rows for v in r}) == len(xs)
    faces: dict[tuple[int, int], list] = {}  # edge -> [(triangle, opposite)]
    for a, b, c in rows:
        assert orient2d(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]) == 1
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            faces.setdefault((min(i, j), max(i, j)), []).append(((a, b, c), k))
    assert max(len(f) for f in faces.values()) <= 2
    for f in faces.values():
        if len(f) == 2:
            for ((a, b, c), _), (_, k) in (f, f[::-1]):
                side = incircle(
                    xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], xs[k], ys[k]
                )
                assert side <= 0
                if side == 0:
                    assert incircle_tie(xs, ys, a, b, c, k) < 0
    n_hull = sum(len(f) == 1 for f in faces.values())
    assert len(rows) == 2 * len(xs) - 2 - n_hull


@pytest.mark.parametrize("name", sorted(PINNED_TINS))
def test_tin_certificate(name):
    _assert_certified(build_tin(_cloud(PINNED_TINS[name][0]())))


def _close_pairs_cloud(kind: str) -> np.ndarray:
    """A random unit-scale cloud with points far closer together than its
    spacing: a 4x4 lattice 1e-10 apart at the origin ("1e-10"); at x
    about 5e5, points one ulp from others in x, in y or in both
    ("ulp"); a pair 1e-20 apart near x = 0, which subtracting the mean
    x of about 0.5 would round into one point ("1e-20")."""
    rng = np.random.default_rng(3)
    base = rng.random((60, 2)) * 2.0 - 1.0
    if kind == "1e-10":
        gx, gy = np.meshgrid(np.arange(4) * 1e-10, np.arange(4) * 1e-10)
        close = np.column_stack([gx.ravel(), gy.ravel()])
    elif kind == "ulp":
        base[:, 0] += 5e5
        up = np.nextafter(base[:10], np.inf)
        close = np.vstack([
            np.column_stack([up[:, 0], base[:10, 1]]),
            np.column_stack([base[:10, 0], up[:, 1]]),
            up,
        ])
    else:
        base[:, 0] = rng.random(60)
        close = np.array([[0.0, 0.3], [1e-20, 0.3]])
    xy = np.vstack([base, close])
    return np.column_stack([xy, rng.random(len(xy))])


@pytest.mark.parametrize("kind", ["1e-10", "ulp", "1e-20"])
def test_close_points_stay_vertices(kind):
    """Distinct points however close are vertices of their own: the TIN
    keeps every point, equals the Bowyer-Watson oracle's and passes the
    certificate."""
    xyz = _close_pairs_cloud(kind)
    tin = build_tin(_cloud(xyz))
    assert tin.vertices.tobytes() == xyz.tobytes()
    np.testing.assert_array_equal(tin.triangles, oracle_triangles(xyz))
    _assert_certified(tin)


def _rotated_lattice_cloud():
    """An integer lattice turned by 30 degrees: rows and columns stay
    nearly collinear and nearly cocircular after rounding."""
    gx, gy = np.meshgrid(np.arange(20.0), np.arange(15.0))
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    x, y = gx.ravel(), gy.ravel()
    return np.column_stack([c * x - s * y, s * x + c * y, x * y])


def _collinear_head_cloud():
    """200 exactly collinear points (dyadic steps on y = x / 2 + 1) ahead
    of a random cloud around them."""
    rng = np.random.default_rng(5)
    t = np.arange(200) * 0.0625
    line = np.column_stack([t, 0.5 * t + 1.0, np.zeros(200)])
    rest = np.column_stack([rng.random((300, 2)) * [12.5, 8.0], rng.random(300)])
    return np.vstack([line, rest])


def _quantized_cloud():
    """A random cloud on LAS's 1e-4 m grid, 200 cells a side, with exact
    duplicates: many points are exactly collinear or cocircular."""
    rng = np.random.default_rng(11)
    xy = np.rint(rng.random((1500, 2)) * 200) * 1e-4
    xy = np.vstack([xy, xy[rng.integers(0, 1500, 300)]])
    return np.column_stack([xy, rng.random(len(xy))])


MATCH_CLOUDS = {name: entry[0] for name, entry in PINNED_TINS.items()}
MATCH_CLOUDS.update({
    "rotated lattice": _rotated_lattice_cloud,
    "collinear head": _collinear_head_cloud,
    "quantized": _quantized_cloud,
    "beach 160x120": lambda: beach_cloud(0, 160, 120),
})


@pytest.mark.parametrize("name", sorted(MATCH_CLOUDS))
def test_tin_matches_bowyer_watson(name, monkeypatch):
    """build_tin's rounds-and-flips triangulator gives the scalar
    Bowyer-Watson oracle's triangle array bit for bit. A round that
    writes r rows for i inserts made r - 3i edge (2-4) splits; the
    lattice must make them."""
    edge_splits = []
    insert_round = _Triangulator._insert_round

    def counting(self):
        before = self.rows
        rows = insert_round(self)
        edge_splits.append(rows.size - 3 * (self.rows - before) // 2)
        return rows

    monkeypatch.setattr(_Triangulator, "_insert_round", counting)
    xyz = MATCH_CLOUDS[name]()
    got = build_tin(_cloud(xyz)).triangles
    np.testing.assert_array_equal(got, oracle_triangles(xyz))
    if name == "lattice":
        assert sum(edge_splits) > 100


NEAR_CLOUDS = {name: entry[0] for name, entry in PINNED_TINS.items()}
NEAR_CLOUDS["beach 160x120"] = lambda: beach_cloud(0, 160, 120)


def _claims(tin: Tin, q: np.ndarray):
    """The row that claims each query point (-1s where none does) and the
    z there, as vertical_check reads them."""
    claim, z = surface._interpolate_points(tin, q[:, 0], q[:, 1])
    return np.append(tin.triangles, [[-1, -1, -1]], axis=0)[claim], z


def _edges(tin: Tin) -> tuple[np.ndarray, np.ndarray]:
    """Every row's directed edges, (3m, 2), and whether each lies on the
    hull (no row has its reverse)."""
    edges = np.stack([tin.triangles, np.roll(tin.triangles, -1, axis=1)], axis=2).reshape(-1, 2)
    keys = {tuple(e) for e in edges.tolist()}
    return edges, np.array([(j, i) not in keys for i, j in edges.tolist()])


def _pushed(tin: Tin, edges: np.ndarray, shifts) -> np.ndarray:
    """Edge midpoints moved by each shift along the edge's right-hand
    normal (out of the hull for a hull edge)."""
    a, b = tin.vertices[edges[:, 0], :2], tin.vertices[edges[:, 1], :2]
    normal = (b - a)[:, ::-1] * [1.0, -1.0] / np.hypot(*(b - a).T)[:, None]
    return ((a + b) / 2 + np.asarray(shifts, dtype=float)[:, None, None] * normal).reshape(-1, 2)


def _near_queries(tin: Tin, rng) -> np.ndarray:
    """Query points of every kind a near TIN must answer as the whole-set
    TIN does: random points in the vertex bounding box, vertices, edge
    midpoints (exactly on the edge on the lattice), hull edge midpoints
    moved a hair and an eighth of a spacing either way, kept inside the
    bounding box, the leftmost vertex moved a hair out of it, and
    points a tenth of a spacing and ten spacings off its corners."""
    v = tin.vertices[:, :2]
    lo, hi = v.min(axis=0), v.max(axis=0)
    spacing = np.sqrt(np.prod(hi - lo) / len(v))
    edges, hull = _edges(tin)
    near_hull = _pushed(tin, edges[hull], np.array([1e-12, -1e-12, 0.125, -0.125]) * spacing)
    near_hull = near_hull[((near_hull >= lo) & (near_hull <= hi)).all(axis=1)]
    hair = v[np.argmin(v[:, 0])] - [1e-13 * spacing, 0.0]
    corner = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    off = np.where(corner < 0, lo, hi) + corner * spacing * np.array([[0.1], [10.0]])[:, None]
    return np.concatenate([
        lo + rng.random((4, 2)) * (hi - lo),
        v[rng.integers(0, len(v), 4)],
        np.mean(v[edges[rng.integers(0, len(edges), 4)]], axis=1),
        near_hull[rng.integers(0, len(near_hull), 2)],
        hair[None],
        off.reshape(-1, 2)[rng.integers(0, 8, 2)],
    ])


def _assert_near_matches(cloud: PointCloud, full: Tin, q: np.ndarray) -> Tin:
    tin = build_tin(cloud, near=q)
    assert tin.vertices.tobytes() == full.vertices.tobytes()
    rows = tin.triangles
    assert (np.lexsort(rows.T[::-1]) == np.arange(len(rows))).all()
    assert len(np.unique(rows, axis=0)) == len(rows)
    whole = {tuple(r) for r in full.triangles.tolist()}
    assert all(tuple(r) in whole for r in rows.tolist())
    (want_rows, want_z), (got_rows, got_z) = _claims(full, q), _claims(tin, q)
    np.testing.assert_array_equal(got_rows, want_rows)
    assert got_z.tobytes() == want_z.tobytes()
    return tin


@pytest.mark.parametrize("name", sorted(NEAR_CLOUDS))
def test_near_tin_matches_full(name, monkeypatch):
    """A TIN built for point queries answers each query with the row and
    the z of the whole-set TIN, bit for bit, and its rows are a lexsorted
    subset of the whole set's. Each query has its own build, so that one
    query that needs the whole set does not hide the others.

    Then a band 8 mean spacings wide is cut out of the cloud across x.
    A point in it, 2 spacings from one rim, needs a wider window: on the
    160x120 beach cloud the first window holds only that rim's side, and
    a wider one settles it. So do points on and beside the edges of the
    band's rims, where a window that does not reach across the band has
    a hull edge that the whole-set TIN does not.

    A window's fixed charge is one vertex here, so that the small
    clouds, where the real charge is more than the budget, still take
    the window path; test_near_budget keeps the real charge."""
    monkeypatch.setattr(surface, "_WINDOW_COST", 1)
    rng = np.random.default_rng(19)
    xyz = NEAR_CLOUDS[name]()
    cloud = _cloud(xyz)
    full = build_tin(cloud)
    q = _near_queries(full, rng)
    n_near = sum(
        len(_assert_near_matches(cloud, full, q[k:k + 1]).triangles) < len(full.triangles)
        for k in range(len(q))
    )
    assert n_near >= len(q) // 2

    lo, hi = xyz[:, :2].min(axis=0), xyz[:, :2].max(axis=0)
    spacing = np.sqrt(np.prod(hi - lo) / len(xyz))
    centre = xyz[np.argmin(np.hypot(*(xyz[:, :2] - (lo + hi) / 2).T)), :2]
    holed = _cloud(xyz[np.abs(xyz[:, 0] - centre[0]) >= 4.0 * spacing])
    holed_full = build_tin(holed)
    # Rim edges: those of rows that span the band, near its middle.
    edges, _ = _edges(holed_full)
    span = np.repeat(holed_full.max_edge_lengths() > 3.0 * spacing, 3)
    mid = holed_full.vertices[edges, :2].mean(axis=1)
    rim = edges[span & (np.abs(mid[:, 1] - centre[1]) < 0.25 * (hi[1] - lo[1]))]
    rim = rim[rng.permutation(len(rim))[:4]]
    assert len(rim) == 4
    rim_q = _pushed(holed_full, rim, np.array([0.0, 0.25, -0.25]) * spacing)

    windows = _counted_windows(monkeypatch)
    tin = _assert_near_matches(holed, holed_full, centre[None] - [2.0 * spacing, 0.0])
    if name == "beach 160x120":
        assert len(windows) >= 2
        assert len(tin.triangles) < len(holed_full.triangles)
    n_near = sum(
        len(_assert_near_matches(holed, holed_full, rim_q[k:k + 1]).triangles)
        < len(holed_full.triangles)
        for k in range(len(rim_q))
    )
    if name == "beach 160x120":
        assert n_near == len(rim_q)


def _counted_windows(monkeypatch) -> list:
    """Vertex count of every triangulation from now on, in call order."""
    windows = []
    triangulate = surface._triangulate

    def counting(xs, ys):
        windows.append(len(xs))
        return triangulate(xs, ys)

    monkeypatch.setattr(surface, "_triangulate", counting)
    return windows


def test_near_budget(monkeypatch):
    """On the 160x120 beach cloud, with the real window charge: three
    interior queries take windows only; five cannot each get a window
    within the budget and go straight to the whole set; a query on a hull
    edge along the bounding box takes one window, then the whole set. No
    run spends more than the budget on windows, and each answers as the
    whole-set TIN does. Listed after interior queries, the hull query
    still goes first, so they spend nothing. A query in a wide data gap
    doubles its window until the budget runs out, then takes the whole
    set."""
    xyz = beach_cloud(0, 160, 120)
    cloud = _cloud(xyz)
    full = build_tin(cloud)
    n = len(full.vertices)
    v = full.vertices[:, :2]
    lo, hi = v.min(axis=0), v.max(axis=0)
    spacing = np.sqrt(np.prod(hi - lo) / n)
    inner = v[((v > lo + 20 * spacing) & (v < hi - 20 * spacing)).all(axis=1)]
    interior = inner[np.random.default_rng(5).integers(0, len(inner), 5)] + 0.3 * spacing
    left = v[np.argmin(v[:, 0])]
    windows = _counted_windows(monkeypatch)
    for q, local in (
        (interior[:3], True), (interior, False), (left[None], False),
        (np.vstack([interior[:2], left]), False),
    ):
        windows.clear()
        tin = _assert_near_matches(cloud, full, q)
        local_cost = sum(w + surface._WINDOW_COST for w in windows if w < n)
        assert local_cost <= surface._NEAR_BUDGET * n
        assert (len(tin.triangles) < len(full.triangles)) is local
        assert (n in windows) is not local
        if q is interior:
            assert windows == [n]
        elif not local:
            # The hull query goes first and stops at its first window.
            assert windows[0] < n and windows[1:] == [n]

    # A query in the middle of a band 40 spacings wide, cut out across x,
    # doubles its window until the budget runs out.
    centre = (lo + hi) / 2
    holed = _cloud(xyz[np.abs(xyz[:, 0] - centre[0]) >= 20.0 * spacing])
    holed_full = build_tin(holed)
    m = len(holed_full.vertices)
    windows.clear()
    _assert_near_matches(holed, holed_full, centre[None])
    assert windows[-1] == m
    assert sum(w + surface._WINDOW_COST for w in windows[:-1]) <= surface._NEAR_BUDGET * m


def test_near_tin_answers_only_its_queries():
    """A TIN built for point queries keeps them: the vertical check at
    those points works, at any other point raises, and rasterizing it
    raises, so its missing rows never read as NODATA."""
    xyz = beach_cloud(0, 64, 48)
    full = build_tin(_cloud(xyz))
    assert full.queries is None
    q = full.vertices[full.triangles[[100, 900]], :2].mean(axis=1)
    tin = build_tin(_cloud(xyz), near=q)
    np.testing.assert_array_equal(tin.queries, q)
    gcps = [Gcp(str(i), Point3(x, y, 0.0)) for i, (x, y) in enumerate(q.tolist())]
    assert vertical_check(tin, gcps[::-1]).n_outside == 0
    with pytest.raises(ValueError):
        vertical_check(tin, gcps + [Gcp("other", Point3(q[0, 0] + 1.0, q[0, 1], 0.0))])
    geom = GridGeometry(float(xyz[:, 0].min()), float(xyz[:, 1].max()), 0.5, 10, 10)
    with pytest.raises(ValueError):
        rasterize_tin(tin, geom)


def _fraction_sign(det) -> int:
    return (det > 0) - (det < 0)


def _orient_fraction(ax, ay, bx, by, cx, cy) -> int:
    """The rational formula the integer exact path replaced."""
    fa_x, fa_y = Fraction(ax), Fraction(ay)
    return _fraction_sign((Fraction(bx) - fa_x) * (Fraction(cy) - fa_y) - (
        Fraction(by) - fa_y
    ) * (Fraction(cx) - fa_x))


def _incircle_fraction(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    fa = (Fraction(ax) - Fraction(dx), Fraction(ay) - Fraction(dy))
    fb = (Fraction(bx) - Fraction(dx), Fraction(by) - Fraction(dy))
    fc = (Fraction(cx) - Fraction(dx), Fraction(cy) - Fraction(dy))
    la = fa[0] * fa[0] + fa[1] * fa[1]
    lb = fb[0] * fb[0] + fb[1] * fb[1]
    lc = fc[0] * fc[0] + fc[1] * fc[1]
    return _fraction_sign(
        fa[0] * (fb[1] * lc - fc[1] * lb)
        - fa[1] * (fb[0] * lc - fc[0] * lb)
        + la * (fb[0] * fc[1] - fc[0] * fb[1])
    )


def _predicate_cases(k: int) -> np.ndarray:
    """Rows of k points (x0, y0, x1, y1, ...): random at scales 1e-30 to
    1e30, exactly collinear (k = 3) or cocircular (k = 4) dyadic points
    and their one- and two-ulp nudges, subnormals, coordinates near
    1e300 whose products overflow, and signed zeros."""
    rng = np.random.default_rng(k)
    cases = [rng.normal(size=(300, 2 * k)) * 10.0 ** rng.integers(-30, 31, (300, 1))]
    if k == 3:  # a, a + d, a + 3d with dyadic a and d
        a = rng.integers(-64, 64, (200, 2)) / 8.0
        d = rng.integers(-64, 64, (200, 2)) / 16.0
        exact = np.hstack([a, a + d, a + 3 * d])
    else:  # on the circle of radius 5: twelve integer points
        ring = np.array([(3, 4), (4, 3), (5, 0), (4, -3), (3, -4), (0, -5),
                         (-3, -4), (-4, -3), (-5, 0), (-4, 3), (-3, 4), (0, 5)])
        pick = np.array([rng.choice(12, 4, replace=False) for _ in range(200)])
        scale = 2.0 ** rng.integers(-20, 21, (200, 1))
        center = np.tile(rng.integers(-64, 64, (200, 2)) / 4.0, 4)
        exact = ring[pick].reshape(200, 8) * scale + center
    cases.append(exact)
    for ulps in (1, 2):
        nudged = exact.copy()
        col = rng.integers(0, 2 * k, len(nudged))
        rows = np.arange(len(nudged))
        step = rng.choice([-np.inf, np.inf], len(nudged))
        for _ in range(ulps):
            nudged[rows, col] = np.nextafter(nudged[rows, col], step)
        cases.append(nudged)
    cases.append(rng.integers(-40, 41, (200, 2 * k)) * 5e-324)
    cases.append(rng.uniform(-1.7, 1.7, (200, 2 * k)) * 1e300)
    cases.append(rng.choice([0.0, -0.0, 1.0, -1.0], (200, 2 * k)))
    return np.vstack(cases)


@pytest.mark.parametrize("k", [3, 4])
def test_exact_predicates_match_fractions(k, monkeypatch):
    """The exact path (integers at one power-of-two scale) gives the signs
    of the rational formulas it replaced; so do the oracle's filtered
    scalar predicates, and the block-wise array predicates over several
    blocks."""
    terms, eps, scalar, fraction = {
        3: (_orient_terms, _ORIENT_FILTER, orient2d, _orient_fraction),
        4: (_incircle_terms, _INCIRCLE_FILTER, incircle, _incircle_fraction),
    }[k]
    cases = _predicate_cases(k)
    want = [fraction(*row) for row in cases.tolist()]
    assert {-1, 0, 1} <= set(want)
    assert [_exact_sign(terms, *row) for row in cases.tolist()] == want
    assert [scalar(*row) for row in cases.tolist()] == want
    monkeypatch.setattr(surface, "_BLOCK", 7)
    corners = [np.arange(len(cases)) * k + j for j in range(k)]
    got = _signs(terms, eps, cases[:, 0::2].ravel(), cases[:, 1::2].ravel(), *corners)
    assert got.tolist() == want


@pytest.mark.parametrize("name", ["lattice", "beach"])
def test_claim_blocks_match_one_block(name, monkeypatch):
    """The DSM claim taken a few candidate pairs at a time equals the
    claim over all pairs at once, cell for cell and bit for bit."""
    tin = build_tin(_cloud(PINNED_TINS[name][0]()))
    (x0, y0), (x1, y1) = tin.vertices[:, :2].min(axis=0), tin.vertices[:, :2].max(axis=0)
    cell = (x1 - x0) / 37.0
    geom = GridGeometry(
        origin_x=x0 - cell, origin_y=y1 + cell, cell_size=cell,
        n_cols=40, n_rows=int((y1 - y0) / cell) + 3,
    )
    monkeypatch.setattr(surface, "_CLAIM_PAIRS", 1 << 40)
    claim_one, z_one = _claim_grid(tin, geom)
    monkeypatch.setattr(surface, "_CLAIM_PAIRS", 5)
    claim, z = _claim_grid(tin, geom)
    assert (claim_one >= 0).sum() > 0.5 * claim_one.size
    np.testing.assert_array_equal(claim, claim_one)
    assert z.tobytes() == z_one.tobytes()


def _dedupe_loop(xyz: np.ndarray) -> np.ndarray:
    """Reference: one point at a time into a dict keyed by exact xy (so
    0.0 and -0.0 are one key), keeping the first-seen xy and the highest
    z, of equal z the first seen, in first-seen order."""
    kept: dict[tuple[float, float], list[float]] = {}
    for x, y, z in xyz.tolist():
        if (x, y) not in kept:
            kept[(x, y)] = [x, y, z]
        elif z > kept[(x, y)][2]:
            kept[(x, y)][2] = z
    return np.array(list(kept.values()), dtype=np.float64)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("quantized", [False, True])
def test_dedupe_matches_loop(seed, quantized):
    """Survivors, their order, xy and z equal the loop's bit for bit, on
    clouds with exact duplicates, signed-zero ties in z and in x, and
    near-duplicates 3e-10 to 2e-9 apart and chains of points 1e-9 apart
    in x, which all survive as vertices of their own."""
    rng = np.random.default_rng(seed)
    pts = rng.random((400, 3))
    if quantized:  # LAS-style coordinates: many exact ties in x
        pts[:, :2] = np.round(pts[:, :2] * 20) / 20
    src = rng.integers(0, 400, 200)
    dup = pts[src].copy()
    kind = rng.integers(0, 4, 200)
    step = rng.choice([-1.0, 1.0], (200, 2)) * rng.choice(
        [0.0, 3e-10, 7e-10, 1e-9, 1.2e-9, 2e-9], (200, 2)
    )
    dup[kind == 1, :2] += step[kind == 1]
    dup[kind == 2, 0] += np.arange(1, (kind == 2).sum() + 1) * 1e-9
    dup[kind == 3, 2] = rng.choice([0.0, -0.0], (kind == 3).sum())
    pts[src[kind == 3], 2] = rng.choice([0.0, -0.0], (kind == 3).sum())
    pts[src[kind == 3], 0] = 0.0
    dup[kind == 3, 0] = -0.0
    dup[:, 2] = np.where(kind == 0, rng.random(200), dup[:, 2])
    xyz = np.concatenate([pts, dup])[rng.permutation(600)]
    got, want = _dedupe_xy(xyz), _dedupe_loop(xyz)
    assert got.shape == want.shape
    assert got.shape[0] < xyz.shape[0]
    assert got.tobytes() == want.tobytes()
    close = (kind == 1) & (step != 0).any(axis=1) | (kind == 2)
    assert {tuple(p) for p in dup[close, :2].tolist()} <= {tuple(p) for p in got[:, :2].tolist()}


def _reference_z(tin: Tin, x: float, y: float):
    """Scalar-loop oracle: z in the lowest-index triangle whose barycentric
    weights are all >= -1e-12, None when there is none."""
    xs, ys, zs = tin.vertices.T
    for a, b, c in tin.triangles:
        ax, ay, bx, by, cx, cy = xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]
        area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if area == 0:
            continue
        w0 = ((bx - x) * (cy - y) - (by - y) * (cx - x)) / area
        w1 = ((cx - x) * (ay - y) - (cy - y) * (ax - x)) / area
        w2 = 1.0 - w0 - w1
        if min(w0, w1, w2) >= -1e-12:
            return float(w0 * zs[a] + w1 * zs[b] + w2 * zs[c])
    return None


class TestInterpolate:
    def test_constant_field(self):
        rng = np.random.default_rng(1)
        pts = np.column_stack([rng.random((50, 2)) * 4, np.full(50, 5.0)])
        tin = build_tin(_cloud(pts))
        qs = rng.uniform(1.0, 3.0, (50, 2))
        rep = vertical_check(tin, [Gcp(id=f"q{i}", world=Point3(x, y, 0.0))
                                   for i, (x, y) in enumerate(qs)])
        for _, z, _ in rep.per_gcp:
            if z is not None:
                assert z == pytest.approx(5.0, abs=1e-9)

    def test_planar_field_reproduced(self):
        rng = np.random.default_rng(2)
        xy = rng.random((80, 2)) * 6
        z = 2 * xy[:, 0] + 3 * xy[:, 1] + 1
        tin = build_tin(_cloud(np.column_stack([xy, z])))
        qs = rng.uniform(1.5, 4.5, (100, 2))
        rep = vertical_check(tin, [Gcp(id=f"q{i}", world=Point3(x, y, 0.0))
                                   for i, (x, y) in enumerate(qs)])
        for (x, y), (_, got, _) in zip(qs, rep.per_gcp):
            if got is not None:
                assert got == pytest.approx(2 * x + 3 * y + 1, abs=1e-9)

    def test_outside_hull(self):
        tin = build_tin(_cloud([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
        rep = vertical_check(tin, [Gcp(id="q", world=Point3(5.0, 5.0, 0.0))])
        assert rep.per_gcp == (("q", None, None),)


class TestRasterize:
    def test_planar_cloud_constant_dsm(self):
        gx, gy = np.meshgrid(np.arange(30) * 0.1, np.arange(30) * 0.1)
        pts = np.column_stack([gx.ravel(), gy.ravel(), np.full(900, 5.0)])
        tin = build_tin(_cloud(pts))
        geom = GridGeometry(
            origin_x=0.0, origin_y=2.9, cell_size=0.1, n_cols=30, n_rows=30
        )
        dsm = rasterize_tin(tin, geom, kill=np.inf)
        data = dsm.values[dsm.values != NODATA]
        assert data.size == 900
        np.testing.assert_allclose(data, 5.0, atol=1e-9)

    def test_kill_distance_masks_gap(self):
        rng = np.random.default_rng(3)
        a = np.column_stack([rng.random((120, 2)) * 2, np.zeros(120)])
        b = a.copy()
        b[:, 0] += 12.0  # second cluster 10 m away
        tin = build_tin(_cloud(np.vstack([a, b])))
        geom = GridGeometry(
            origin_x=0.0, origin_y=2.0, cell_size=0.25, n_cols=57, n_rows=9
        )
        dsm = rasterize_tin(tin, geom, kill=1.0)
        xs = geom.origin_x + np.arange(geom.n_cols) * geom.cell_size
        gap = (xs > 2.5) & (xs < 11.5)
        assert (dsm.values[:, gap] == NODATA).all()
        assert (dsm.values != NODATA).any()

    def test_cells_outside_hull_nodata(self):
        tin = build_tin(_cloud([[0, 0, 1], [1, 0, 1], [0, 1, 1]]))
        geom = GridGeometry(
            origin_x=-2.0, origin_y=3.0, cell_size=0.5, n_cols=10, n_rows=10
        )
        dsm = rasterize_tin(tin, geom, kill=np.inf)
        assert dsm.values[0, 0] == NODATA

    def test_kill_only_substitutes_nodata(self):
        rng = np.random.default_rng(4)
        pts = np.column_stack([rng.random((200, 2)) * 5, rng.random(200)])
        tin = build_tin(_cloud(pts))
        geom = GridGeometry(
            origin_x=0.0, origin_y=5.0, cell_size=0.2, n_cols=26, n_rows=26
        )
        full = rasterize_tin(tin, geom, kill=np.inf)
        killed = rasterize_tin(tin, geom, kill=0.4)
        changed = full.values != killed.values
        assert (killed.values[changed] == NODATA).all()

    def test_grid_too_large(self):
        # The cell cap is enforced once, by the grid itself.
        with pytest.raises(GridTooLarge):
            GridGeometry(
                origin_x=0.0, origin_y=1.0, cell_size=0.001, n_cols=20_000,
                n_rows=20_000,
            )

    @pytest.mark.parametrize("lattice", [False, True])
    def test_point_interpolation_matches_raster(self, lattice):
        """vertical_check with one GCP per cell center and the scalar
        oracle reproduce rasterize_tin bit for bit, and are None exactly on
        the NODATA cells. The lattice puts cell centers on vertices and
        shared edges, where the lowest-index tie-break decides."""
        rng = np.random.default_rng(7)
        if lattice:
            gx, gy = np.meshgrid(np.arange(12) * 0.4, np.arange(12) * 0.4)
            xy = np.column_stack([gx.ravel(), gy.ravel()])
        else:
            xy = rng.random((150, 2)) * 4.4
        pts = np.column_stack([xy, rng.random(xy.shape[0])])
        tin = build_tin(_cloud(pts))
        geom = GridGeometry(
            origin_x=-0.4, origin_y=4.8, cell_size=0.2, n_cols=26, n_rows=26
        )
        dsm = rasterize_tin(tin, geom, kill=np.inf)
        gx, gy = np.meshgrid(*geom.cell_centers())
        assert (dsm.values == NODATA).any() and (dsm.values != NODATA).any()
        centers = np.column_stack([gx.ravel(), gy.ravel()])
        rep = vertical_check(tin, [Gcp(id=f"c{i}", world=Point3(x, y, 0.0))
                                   for i, (x, y) in enumerate(centers)])
        for (x, y), (_, z, _), cell in zip(centers, rep.per_gcp, dsm.values.ravel()):
            assert z == _reference_z(tin, x, y)
            if cell == NODATA:
                assert z is None
            else:
                assert z is not None
                assert np.float64(z).tobytes() == cell.tobytes()

    def test_empty_tin_is_all_nodata(self):
        tin = Tin(vertices=[[0, 0, 1], [1, 0, 1], [2, 0, 1]], triangles=np.empty((0, 3)))
        geom = GridGeometry(origin_x=0, origin_y=1, cell_size=0.5, n_cols=5, n_rows=3)
        assert (rasterize_tin(tin, geom).values == NODATA).all()
        rep = vertical_check(tin, [Gcp(id="g", world=Point3(1.0, 0.0, 1.0))])
        assert rep.per_gcp == (("g", None, None),)

    def test_kill_must_be_positive(self):
        tin = build_tin(_cloud([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
        geom = GridGeometry(origin_x=0, origin_y=1, cell_size=0.5, n_cols=3, n_rows=3)
        with pytest.raises(ValueError):
            rasterize_tin(tin, geom, kill=0.0)


def _square_ring(x0, y0, x1, y1):
    return (
        Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1), Point2(x0, y0)
    )


def _ring_self_intersects_loop(ring) -> bool:
    """Reference: every pair of non-adjacent edges, one scalar test at a
    time, as the ring check was before it ran on arrays."""

    def on_segment(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    segs = list(zip(ring[:-1], ring[1:]))
    m = len(segs)
    for i in range(m):
        for j in range(i + 1, m):
            if j == i + 1 or (i == 0 and j == m - 1):
                continue
            (p1, p2), (p3, p4) = segs[i], segs[j]
            d1, d2 = orient2d(*p3, *p4, *p1), orient2d(*p3, *p4, *p2)
            d3, d4 = orient2d(*p1, *p2, *p3), orient2d(*p1, *p2, *p4)
            if (
                (d1 != d2 and d3 != d4)
                or (d1 == 0 and on_segment(p3, p4, p1))
                or (d2 == 0 and on_segment(p3, p4, p2))
                or (d3 == 0 and on_segment(p1, p2, p3))
                or (d4 == 0 and on_segment(p1, p2, p4))
            ):
                return True
    return False


class TestClip:
    def _dsm(self, n=8):
        geom = GridGeometry(
            origin_x=0.25, origin_y=n * 0.5 - 0.25, cell_size=0.5,
            n_cols=n, n_rows=n,
        )
        values = np.arange(n * n, dtype=float).reshape(n, n)
        from shoremap.surface import DsmGrid

        return DsmGrid(geometry=geom, values=values)

    def test_covering_polygon_unchanged(self):
        dsm = self._dsm()
        poly = ClipPolygon(rings=(_square_ring(-1, -1, 10, 10),))
        out = clip_dsm(dsm, poly)
        assert np.array_equal(out.values, dsm.values)

    def test_unit_square_keeps_center_cells(self):
        # 2x2 grid of cells (cell 1.0) with centers at 0.5 and 1.5; the
        # unit-square polygon contains only the (0.5, 0.5) center.
        from shoremap.surface import DsmGrid

        geom = GridGeometry(
            origin_x=0.5, origin_y=1.5, cell_size=1.0, n_cols=2, n_rows=2
        )
        dsm = DsmGrid(geometry=geom, values=np.arange(4, dtype=float).reshape(2, 2))
        poly = ClipPolygon(rings=(_square_ring(0, 0, 1, 1),))
        out = clip_dsm(dsm, poly)
        assert out.values[1, 0] == dsm.values[1, 0]
        assert out.values[0, 0] == NODATA
        assert out.values[0, 1] == NODATA
        assert out.values[1, 1] == NODATA

    def test_hole_cells_nodata(self):
        dsm = self._dsm()
        poly = ClipPolygon(
            rings=(
                _square_ring(0, 0, 4, 4),
                _square_ring(1, 1, 2, 2),
            )
        )
        out = clip_dsm(dsm, poly)
        xs, ys = dsm.geometry.cell_centers()
        gx, gy = np.meshgrid(xs, ys)
        in_hole = (gx > 1) & (gx < 2) & (gy > 1) & (gy < 2)
        assert (out.values[in_hole] == NODATA).all()
        in_ring = (gx > 2) & (gx < 4) & (gy > 2) & (gy < 4)
        assert (out.values[in_ring] != NODATA).all()

    def test_idempotent(self):
        dsm = self._dsm()
        poly = ClipPolygon(rings=(_square_ring(0.6, 0.6, 3.1, 2.6),))
        once = clip_dsm(dsm, poly)
        twice = clip_dsm(once, poly)
        assert np.array_equal(once.values, twice.values)

    def test_nodata_is_a_class_constant(self):
        from shoremap.surface import DsmGrid

        dsm = self._dsm()
        assert dsm.nodata == DsmGrid.nodata == NODATA
        with pytest.raises(TypeError):
            DsmGrid(geometry=dsm.geometry, values=dsm.values, nodata=0.0)

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (((0, 0), (2, 0)), ((1, 0), (3, 0)), True),  # overlapping
            (((0, 0), (1, 1)), ((1, 1), (3, 3)), True),  # touching end to end
            (((0, 0), (1, 0)), ((2, 0), (3, 0)), False),  # disjoint, one line
            (((0, 2), (0, 1)), ((0, 4), (0, 3)), False),  # disjoint, vertical
        ],
    )
    def test_collinear_segments(self, a, b, expected):
        """Collinear segments share a point only where their extents meet,
        whichever way round either segment or the pair is given: all eight
        orderings in one index-array call."""
        xs, ys = np.array(a + b, dtype=float).T  # a is vertices 0, 1; b is 2, 3
        orders = [
            (*e, *f)
            for p, q in (((0, 1), (2, 3)), ((2, 3), (0, 1)))
            for e in (p, p[::-1])
            for f in (q, q[::-1])
        ]
        got = _segments_intersect(xs, ys, *np.array(orders).T)
        assert got.tolist() == [expected] * 8

    @pytest.mark.parametrize("seed", range(4))
    def test_ring_check_matches_pairwise_loop(self, seed):
        """The array ring check answers as the pairwise scalar loop it
        replaced, on random closed rings of 3 to 12 vertices on a 5 x 5
        integer grid, so collinear overlaps, shared vertices and touches
        are common. Half the rings go round their centroid by angle, and
        mostly do not self-intersect; some are scaled by 0.1 or shifted
        by 5e5 m, where the float filter no longer decides every test."""
        rng = np.random.default_rng(seed)
        answers = []
        for case in range(250):
            xy = rng.integers(0, 5, (rng.integers(3, 13), 2)).astype(float)
            if case % 2:
                d = xy - xy.mean(axis=0)
                xy = xy[np.argsort(np.arctan2(d[:, 1], d[:, 0]), kind="stable")]
            xy = xy * [1.0, 0.1, 1.0][case % 3] + [0.0, 0.0, 5e5][case // 3 % 3]
            ring = tuple(Point2(x, y) for x, y in xy.tolist())
            ring += ring[:1]
            want = _ring_self_intersects_loop(ring)
            assert _ring_self_intersects(ring) is want, ring
            answers.append(want)
        assert 50 < sum(answers) < 200

    @pytest.mark.parametrize("swap, expected", [(False, False), (True, True)])
    def test_ring_check_long_ring(self, swap, expected):
        """A 4,000-vertex convex ring is simple; swapping two neighbouring
        vertices makes the edges either side of them cross. The sweep
        pairs only edges whose x-ranges meet, so this takes milliseconds."""
        t = np.linspace(0.0, 2.0 * np.pi, 4000, endpoint=False)
        xy = np.column_stack([100.0 * np.cos(t), 100.0 * np.sin(t)])
        if swap:
            xy[[1000, 1001]] = xy[[1001, 1000]]
        ring = tuple(Point2(x, y) for x, y in xy.tolist())
        assert _ring_self_intersects(ring + ring[:1]) is expected

    def test_invalid_polygon(self):
        with pytest.raises(InvalidPolygon):
            ClipPolygon(rings=((Point2(0, 0), Point2(1, 0), Point2(1, 1)),))
        bow_tie = (
            Point2(0, 0), Point2(2, 2), Point2(2, 0), Point2(0, 2), Point2(0, 0)
        )
        with pytest.raises(InvalidPolygon):
            ClipPolygon(rings=(bow_tie,))


class TestVerticalCheck:
    def _plane_tin(self, z=2.0):
        gx, gy = np.meshgrid(np.arange(10) * 0.5, np.arange(10) * 0.5)
        pts = np.column_stack(
            [gx.ravel(), gy.ravel(), np.full(100, z)]
        )
        return build_tin(_cloud(pts))

    def test_matching_plane_zero_dz(self):
        tin = self._plane_tin(2.0)
        rep = vertical_check(tin, [Gcp(id="a", world=Point3(1.1, 1.3, 2.0))])
        assert rep.per_gcp[0][2] == pytest.approx(0.0, abs=1e-12)
        assert rep.mean_dz == pytest.approx(0.0, abs=1e-12)

    def test_constructed_offset(self):
        tin = self._plane_tin(2.0)
        rep = vertical_check(tin, [Gcp(id="a", world=Point3(2.0, 2.0, 1.6244))])
        assert rep.per_gcp[0][2] == pytest.approx(0.3756, abs=1e-12)
        assert rep.max_abs_dz == pytest.approx(0.3756, abs=1e-12)

    def test_outside_excluded_from_stats(self):
        tin = self._plane_tin(2.0)
        rep = vertical_check(
            tin,
            [
                Gcp(id="in", world=Point3(1.0, 1.0, 1.5)),
                Gcp(id="out", world=Point3(50.0, 50.0, 0.0)),
            ],
        )
        assert rep.n_outside == 1
        assert rep.per_gcp[1][1] is None
        assert rep.mean_dz == pytest.approx(0.5, abs=1e-9)

    def test_vertical_shift_reported_exactly(self):
        rng = np.random.default_rng(6)
        xy = rng.random((60, 2)) * 5
        z = 0.4 * xy[:, 0] - 0.2 * xy[:, 1] + 1.0
        gcps = [
            Gcp(id=f"g{i}", world=Point3(xy[i, 0], xy[i, 1], z[i]))
            for i in range(0, 60, 7)
        ]
        delta = 0.3756
        tin_base = build_tin(_cloud(np.column_stack([xy, z])))
        tin_shift = build_tin(_cloud(np.column_stack([xy, z + delta])))
        base = vertical_check(tin_base, gcps)
        shifted = vertical_check(tin_shift, gcps)
        assert shifted.mean_dz - base.mean_dz == pytest.approx(delta, abs=1e-9)

    def test_empty_gcps(self):
        tin = self._plane_tin()
        with pytest.raises(EmptyGcpSet):
            vertical_check(tin, [])
