"""TIN, DSM rasterization, clipping, and vertical check tests."""

import functools
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
    _dedupe_xy,
    _exact_signs,
    _first_triangle,
    _hilbert_order,
    _incircle_terms,
    _incircle_tie,
    _locate,
    _next,
    _orient_terms,
    _prev,
    _real_triangles,
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
        so they are one valid triangle, however large its circumcircle."""
        tin = build_tin(_cloud([[0, 0, 0], [5000, 1e-4, 0], [10000, 0, 0]]))
        np.testing.assert_array_equal(tin.triangles, [[0, 2, 1]])

    def test_first_triangle_too_thin_for_its_centroid(self):
        """A triangle one subnormal high has its float centroid on its
        base: no ghost centre lies strictly inside it, an error."""
        with pytest.raises(CollinearInput, match="nearly collinear"):
            build_tin(_cloud([[0, 0, 0], [1, 0, 0], [2, 5e-324, 0]]))

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            build_tin(_cloud([[0, 0, 0], [1, 1, 1]]))

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
# row rotated to start at its lowest index and the rows sorted, plus,
# on the beach cloud, the 85 hull triangles whose circumcircles reached
# the corners of its finite super-triangle.
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
        _beach_cloud, 3072, 6007,
        "8db8635a505a7ff8f5d2e080fd6a67f9bfeda163096239da8f93aa1b91e2b9dd",
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


def _pinned_grid(tin: Tin, divisions: int, margin: int) -> GridGeometry:
    """A grid of ``divisions`` cells across the vertices' x-range whose
    upper-left centre sits ``margin`` cells out from their bounding box's
    upper-left corner; two cells more each way reach outside the hull.
    On the lattice, 19 divisions and no margin put 200 of the 300
    centres exactly on vertices."""
    (x0, y0), (x1, y1) = tin.vertices[:, :2].min(axis=0), tin.vertices[:, :2].max(axis=0)
    cell = (x1 - x0) / divisions
    return GridGeometry(
        origin_x=x0 - margin * cell, origin_y=y1 + margin * cell, cell_size=cell,
        n_cols=divisions + 2 * margin + 2, n_rows=int((y1 - y0) / cell) + 2 * margin + 2,
    )


# Per cloud and grid (divisions, margin): cells holding data, the sha256
# of rasterize_tin's values at a kill distance of a twelfth of the
# cloud's x-range, and the sha256 of vertical_check's z at every cell
# centre (NaN outside the hull). That kill distance clears 10 cells on
# the jittered lattice and 28 and 84 on the random cloud; the lattice's
# triangles are all shorter, and no beach cell centre falls in its long
# hull triangles.
PINNED_DSMS = {
    ("beach", 19, 0): (
        270, "9eae0d24af3fe1e4c82f522e389459728c38a9be74f20ba4de6bc205b411dace",
        "67fcc302a7a3a1541ad577fbd7a5014e4f6be5dfa9cd8c25a266e4f9cce5e376",
    ),
    ("beach", 37, 2): (
        1008, "661e3d7bc6e2bfd97ee49795c6638b3418fb216ae8c874d95c397da21407f3c2",
        "78f8e12078b8729d99f706a11a9f060ea0928844d80ea9fe40903b09258b7baf",
    ),
    ("jittered", 19, 0): (
        241, "511f4b449e6655b98003e657eb2cfb540d42de2e3cb3f7e4a85539dbe4ab9ec3",
        "9a2c904e058e06cdf9f248cccc63d9b1aa613523013e8f4a4eb41154a3b89980",
    ),
    ("jittered", 37, 2): (
        972, "100be56c8afcf374ea469e63516b0ece3d7c7942d861fc8e0fa272034ec3b664",
        "33baec15d00220b8023fce816f06f94c8cff44186e73f52cbd16c7d082c3da97",
    ),
    ("lattice", 19, 0): (
        300, "407d3e587603b0883862ee7e5502ccc91598902afce29714b41fc3c0f83c9b80",
        "8dfa2d22b430ecd60a151aaca6d153c661084d600ff1860823f9dd963aa61437",
    ),
    ("lattice", 37, 2): (
        1064, "47e01b0d8aa17699092959a937b8a1675cfc87a2c6783c1c6c1a1ed2b3071ade",
        "b6374458b1de487cd39f9edd55842c7ee730b1949664f0db560e9a177bc3d30a",
    ),
    ("random", 19, 0): (
        307, "981b60bb8f0505f42e6a1e847443c2349ee269ef3134b294691054e05bcd90cd",
        "57346f28816516380ec1b94304ea2d24ec037fbe3e3845587bc584a47433ef37",
    ),
    ("random", 37, 2): (
        1233, "6d4d481140aafef4c73dfdbce2d761c370b780e3b1c7922268c91fcca7209176",
        "d0904014551ebcd669782c79b61976a48d52f049fcd7062430856e28c4bab2a4",
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED_DSMS))
def test_dsm_pinned_bit_for_bit(key):
    name, divisions, margin = key
    n_data, dsm_digest, z_digest = PINNED_DSMS[key]
    tin = build_tin(_cloud(PINNED_TINS[name][0]()))
    geom = _pinned_grid(tin, divisions, margin)
    kill = float(np.ptp(tin.vertices[:, 0])) / 12.0
    values = rasterize_tin(tin, geom, kill=kill).values
    gx, gy = np.meshgrid(*geom.cell_centers())
    rep = vertical_check(tin, [Gcp(id=str(i), world=Point3(x, y, 0.0))
                               for i, (x, y) in enumerate(zip(gx.ravel(), gy.ravel()))])
    z = np.array([np.nan if z is None else z for _, z, _ in rep.per_gcp])
    assert (int((values != NODATA).sum()), _digest(values), _digest(z)) == (
        n_data, dsm_digest, z_digest
    )


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


def _two_clusters_cloud():
    """Two random clusters of 1,500 points in unit squares (mean spacing
    about 0.026), with a gap of about 77 spacings between them: the
    curve neighbours that start the walks of the first rounds straddle
    it."""
    rng = np.random.default_rng(3)
    xy = rng.random((3000, 2))
    xy[1500:] += [3.0, 1.0]
    return np.column_stack([xy, rng.random(3000)])


def _cluster_in_a_triangle_cloud():
    """A 50-point coarse cloud and 2,000 points in the middle half of its
    largest triangle: one triangle holds many walkers, and all but one of
    them wait, round after round."""
    rng = np.random.default_rng(4)
    coarse = rng.random((50, 3)) * [100.0, 100.0, 1.0]
    corners = coarse[oracle_triangles(coarse), :2]
    (ax, ay), (bx, by), (cx, cy) = corners.transpose(1, 2, 0)
    big = corners[np.argmax(np.abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)))]
    w = rng.dirichlet(np.ones(3), 2000)
    xy = big.mean(axis=0) + 0.5 * (w @ big - big.mean(axis=0))
    return np.vstack([coarse, np.column_stack([xy, rng.random(2000)])])


def _integer_lattice_cloud():
    """A 60 x 50 integer lattice: every square is cocircular, and points
    land on edges, so rounds make edge splits and in-circle ties."""
    gx, gy = np.meshgrid(np.arange(60.0), np.arange(50.0))
    return np.column_stack([gx.ravel(), gy.ravel(), (gx * gy).ravel()])


MATCH_CLOUDS = {name: entry[0] for name, entry in PINNED_TINS.items()}
MATCH_CLOUDS.update({
    "rotated lattice": _rotated_lattice_cloud,
    "collinear head": _collinear_head_cloud,
    "quantized": _quantized_cloud,
    "beach 160x120": lambda: beach_cloud(0, 160, 120),
    "two clusters": _two_clusters_cloud,
    "cluster in a triangle": _cluster_in_a_triangle_cloud,
    "integer lattice 60x50": _integer_lattice_cloud,
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


def _exact_hull_size(xy: np.ndarray) -> int:
    """Vertices of the convex hull of distinct points, collinear boundary
    points kept: Andrew's monotone chain, its turns in exact rationals."""
    points = sorted(map(tuple, xy.tolist()))

    def chain(points):
        out = []
        for p in points:
            while len(out) > 1 and _orient_fraction(*out[-2], *out[-1], *p) < 0:
                out.pop()
            out.append(p)
        return out

    return len(chain(points)) + len(chain(points[::-1])) - 2


@pytest.mark.parametrize("name", sorted(PINNED_TINS) + ["rotated lattice", "beach 160x120"])
def test_triangle_count_is_the_exact_hulls(name):
    """A triangulation of n points whose hull has h vertices has 2n - 2 - h
    triangles: the TIN covers the exact convex hull, collinear boundary
    points included. Every half-edge has a twin, none the -1 of an open
    boundary."""
    xs, ys = _dedupe_xy(MATCH_CLOUDS[name]())[:, :2].T
    tri = _Triangulator(xs, ys, _first_triangle(xs, ys))
    triangles, _ = _real_triangles(*tri.run(), len(xs))
    assert (tri.tn >= 0).all()
    assert len(triangles) == 2 * len(xs) - 2 - _exact_hull_size(np.column_stack([xs, ys]))


@pytest.mark.parametrize("name", ["lattice", "integer lattice 60x50", "quantized", "beach 160x120"])
def test_fresh_fans_have_legal_spokes(name):
    """What the first Lawson pass of a round relies on, when it tests
    only edge 0 of each new row: after every insert round, edges 1 and 2
    of every new row, the spokes of its fan, are legal already."""
    xs, ys = _dedupe_xy(MATCH_CLOUDS[name]())[:, :2].T
    tri = _Triangulator(xs, ys, _first_triangle(xs, ys))
    flat_tv, flat_tn = tri.tv.reshape(-1), tri.tn.reshape(-1)
    spokes = 0
    while tri.rounds or tri.waiting.size:
        rows = tri._insert_round()
        h = (3 * rows[:, None] + [1, 2]).ravel()
        m = flat_tn[h]
        assert (m >= 0).all()
        assert not tri._illegal(flat_tv[h], flat_tv[_next(h)], flat_tv[_prev(h)], flat_tv[_prev(m)]).any()
        spokes += h.size
        tri._legalize(rows)
    # Every insert after the first triangle wrote at least three rows.
    assert spokes >= 6 * (len(xs) - 3)


def test_levels_cut_into_rounds_give_the_same_tin(monkeypatch):
    """A curve level of more than ``_ROUND_POINTS`` points comes in over
    several rounds, here of at most 100 points, and the TIN is still the
    oracle's."""
    monkeypatch.setattr(surface, "_ROUND_POINTS", 100)
    for name in ("integer lattice 60x50", "cluster in a triangle"):
        xyz = MATCH_CLOUDS[name]()
        xs, ys = _dedupe_xy(xyz)[:, :2].T
        rounds = _Triangulator(xs, ys, _first_triangle(xs, ys)).rounds
        assert len(rounds) > 2 * len(xs).bit_length()
        assert max(len(p) for p, _ in rounds) == 100
        np.testing.assert_array_equal(build_tin(_cloud(xyz)).triangles, oracle_triangles(xyz))


REUSE_CLOUDS = {name: entry[0] for name, entry in PINNED_TINS.items()}
REUSE_CLOUDS["beach 160x120"] = lambda: beach_cloud(0, 160, 120)


def _tin_bytes(tin: Tin) -> tuple[bytes, bytes]:
    return tin.vertices.tobytes(), tin.triangles.tobytes()


@pytest.mark.parametrize("name", sorted(REUSE_CLOUDS))
def test_reuse_returns_the_tin_of_the_same_vertices(name):
    """build_tin returns a TIN given as ``reuse`` as it is when the
    cloud's deduplicated vertices are its vertices bit for bit, and
    otherwise triangulates: a copy of the cloud with one coordinate moved
    by one ulp gets a new TIN, equal to a direct build's."""
    xyz = REUSE_CLOUDS[name]()
    tin = build_tin(_cloud(xyz))
    assert build_tin(_cloud(xyz.copy()), reuse=tin) is tin
    moved = xyz.copy()
    moved[len(xyz) // 2, 0] = np.nextafter(moved[len(xyz) // 2, 0], np.inf)
    got = build_tin(_cloud(moved), reuse=tin)
    assert got is not tin
    assert _tin_bytes(got) == _tin_bytes(build_tin(_cloud(moved)))


def test_reuse_tells_signed_zeros_apart():
    """A z of -0.0 where the reused TIN has 0.0 compares equal as a
    number but not as bytes: the cloud gets a new TIN, equal to a direct
    build's, holding its own -0.0."""
    xyz = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0, 3.0]])
    tin = build_tin(_cloud(xyz))
    signed = xyz.copy()
    signed[0, 2] = -0.0
    got = build_tin(_cloud(signed), reuse=tin)
    assert got is not tin
    np.testing.assert_array_equal(got.vertices, tin.vertices)
    assert np.signbit(got.vertices[0, 2])
    assert _tin_bytes(got) == _tin_bytes(build_tin(_cloud(signed)))


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


def _orient_cases() -> np.ndarray:
    """Rows (ax, ay, bx, by, cx, cy): signed zeros, subnormals, points at
    scales 2^-500 and 2^500, near-collinear points on 0.1 mm quanta
    (exactly collinear, then one coordinate moved by a quantum or by one
    ulp), the same at UTM-sized offsets, random points, and products
    that round to the same float64."""
    rng = np.random.default_rng(26)
    cases = [
        rng.choice([0.0, -0.0, 1.0, -1.0], (500, 6)),
        rng.integers(-40, 41, (500, 6)) * 5e-324,
        rng.integers(-40, 41, (500, 6)) * 2.0 ** -1060,
        rng.normal(size=(500, 6)),
    ]
    for scale in (2.0 ** -500, 2.0 ** 500, 2.0 ** -440, 2.0 ** 440):
        a = rng.integers(-64, 64, (500, 2)) / 8.0
        d = rng.integers(-64, 64, (500, 2)) / 16.0
        cases.append(np.hstack([a, a + d, a + 3 * d]) * scale)
    for offset in ((0.0, 0.0), (500_000.0, 5_200_000.0)):
        a = rng.integers(0, 100_000, (3000, 2))
        d = rng.integers(-500, 501, (3000, 2))
        k = rng.integers(-4, 5, (3000, 1))
        quanta = np.hstack([a, a + d, a + k * d]).astype(np.float64)
        nudge = rng.integers(0, 6, 3000)
        quanta[np.arange(1000, 2000), nudge[1000:2000]] += rng.choice([-1.0, 1.0], 1000)
        xyz = np.round(quanta * 1e-4, 4) + np.tile(offset, 3)
        rows = np.arange(2000, 3000)
        xyz[rows, nudge[2000:]] = np.nextafter(xyz[rows, nudge[2000:]], rng.choice([-np.inf, np.inf], 1000))
        cases.append(xyz)
    # a = 0, b = (d1, d3), c = (d4, d2): the sign of d1 d2 - d3 d4, where
    # the float products tie. d3 = fl(d1 d2) and d4 = 1 leave the sign
    # to d1 d2's rounding error (and its negation, rows swapped); d3 = d2
    # and d4 = d1 tie exactly.
    d1, d2 = 1.0 + rng.random((2, 500))
    zero = np.zeros(500)
    one = np.ones(500)
    cases.append(np.column_stack([zero, zero, d1, d1 * d2, one, d2]))
    cases.append(np.column_stack([zero, zero, d1 * d2, d1, d2, one]))
    cases.append(np.column_stack([zero, zero, d1, d2, d1, d2]) * 2.0 ** rng.integers(-60, 61, (500, 1)))
    return np.vstack(cases)


def _exact_cases(k: int) -> np.ndarray:
    """The predicate cases of k points, with the orientation cases for
    k = 3."""
    cases = _predicate_cases(k)
    return np.vstack([cases, _orient_cases()]) if k == 3 else cases


@functools.cache
def _fraction_signs(k: int) -> tuple[int, ...]:
    fraction = {3: _orient_fraction, 4: _incircle_fraction}[k]
    return tuple(fraction(*row) for row in _exact_cases(k).tolist())


_PREDICATES = {
    3: (_orient_terms, _ORIENT_FILTER, orient2d),
    4: (_incircle_terms, _INCIRCLE_FILTER, incircle),
}


@pytest.mark.parametrize("k", [3, 4])
def test_exact_predicates_match_fractions(k):
    """The exact path (integers at one power-of-two scale), over all
    lanes at once, gives the signs of the rational formulas it replaced;
    so do the oracle's filtered scalar predicates."""
    terms, _, scalar = _PREDICATES[k]
    cases = _exact_cases(k)
    want = list(_fraction_signs(k))
    assert {-1, 0, 1} <= set(want)
    assert _exact_signs(terms, *cases.T).tolist() == want
    assert [scalar(*row) for row in cases.tolist()] == want


@pytest.mark.parametrize("k", [3, 4])
def test_signs_send_undecided_lanes_to_one_exact_call(k, monkeypatch):
    """``_signs`` hands ``_exact_signs`` exactly the lanes its float
    filter leaves undecided, in one call per block that has any and none
    for a block that has none, and its block-wise signs are the rational
    formulas'."""
    terms, eps, _ = _PREDICATES[k]
    cases = _exact_cases(k)
    calls = []

    def counted(terms, *coords):
        calls.append(np.column_stack(coords))
        return _exact_signs(terms, *coords)

    monkeypatch.setattr(surface, "_BLOCK", 7)
    monkeypatch.setattr(surface, "_exact_signs", counted)
    corners = [np.arange(len(cases)) * k + j for j in range(k)]
    got = _signs(terms, eps, cases[:, 0::2].ravel(), cases[:, 1::2].ravel(), *corners)
    assert got.tolist() == list(_fraction_signs(k))
    with np.errstate(over="ignore", invalid="ignore"):
        det, magnitude = terms(*cases.T)
        undecided = ~(np.abs(det) > eps * magnitude)
    blocks = [cases[s:s + 7][undecided[s:s + 7]] for s in range(0, len(cases), 7)]
    want = [block for block in blocks if len(block)]
    assert 0 < len(want) < len(blocks)
    assert len(calls) == len(want)
    for lanes, block in zip(calls, want):
        np.testing.assert_array_equal(lanes, block)


@pytest.mark.parametrize("k, value", [(3, np.inf), (4, np.nan)])
def test_signs_reject_non_finite_coordinates(k, value):
    """A lane with a non-finite coordinate is never decided by the float
    filter, and the exact stage, which has no integer for it, raises."""
    terms, eps, _ = _PREDICATES[k]
    xs, ys = np.array([[0.0, 1.0, 0.0, value], [0.0, 0.0, 1.0, 1.0]])
    corners = [np.array([j]) for j in range(4 - k, 4)]
    with pytest.raises(ValueError, match="not finite"):
        _signs(terms, eps, xs, ys, *corners)


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


def test_dedupe_groups_with_equal_z_match_loop():
    """Large groups (3,000 points on the 16 xy keys of {±0.0, 1.0, -1.0,
    0.5}, so 0.0 and -0.0 are one key in x and in y) and small ones
    (1,500 points in 500 groups, some x negated), whose z tie at the
    group's top in any position and sign: survivors, their order, xy
    and z equal the loop's bit for bit."""
    rng = np.random.default_rng(11)
    xy = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], (3000, 2))
    z = rng.choice([0.0, -0.0, 2.0, 2.0, -3.0], 3000)
    xyz = np.column_stack([xy, z])
    got, want = _dedupe_xy(xyz), _dedupe_loop(xyz)
    assert len(want) == 16
    assert got.tobytes() == want.tobytes()
    groups = rng.integers(0, 500, 1500)
    xyz = np.column_stack([groups * 0.25, -groups * 0.5, rng.choice([-0.0, 0.0, 1.0], 1500)])
    xyz[rng.random(1500) < 0.3, 0] *= -1.0
    got, want = _dedupe_xy(xyz), _dedupe_loop(xyz)
    assert got.tobytes() == want.tobytes()


def _next_mod(h):
    """The ``% 3`` form that ``_next`` replaced."""
    return h + np.where(h % 3 == 2, -2, 1)


def _prev_mod(h):
    """The ``% 3`` form that ``_prev`` replaced."""
    return h + np.where(h % 3 == 0, 2, -1)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_next_prev_match_mod_form(dtype):
    """On every residue, -1 included, and on half-edge ids just below
    2^31, the limit of int32 ids: the same values and dtype as the
    ``% 3`` forms."""
    top = 3 * (2 * 357_913_940 + 1)
    h = np.concatenate([np.arange(-1, 29), np.arange(top - 30, top)]).astype(dtype)
    for new, old in ((_next, _next_mod), (_prev, _prev_mod)):
        got, want = new(h), old(h)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(new(h.reshape(-1, 2)), want.reshape(-1, 2))


def _real_triangles_lexsort(tv, n_real):
    """The take_along_axis and three-key lexsort form that
    ``_real_triangles`` replaced."""
    tri = np.asarray(tv, dtype=np.int64).reshape(-1, 3)
    a, b, c = tri.T
    tri = tri[np.maximum(np.maximum(a, b), c) < n_real]
    a, b, c = tri.T
    shift = np.where(b < a, np.where(c < b, 2, 1), np.where(c < a, 2, 0))[:, None]
    tri = np.take_along_axis(tri, (np.arange(3) + shift) % 3, axis=1)
    return tri[np.lexsort(tri.T[::-1])]


@pytest.mark.parametrize("n_real", [3, 1000, (1 << 21) - 1, 1 << 21, 300_000_000])
def test_real_triangles_match_lexsort_form(n_real):
    """The rows of a triangulation of a small cloud, ghost rows included,
    its vertex ids spread over [0, n_real) by a strictly increasing map
    and the ghost sent to n_real, each row in a random rotation and the
    rows shuffled, their neighbour half-edges moved with them: the same
    int64 array as the old form, from int32 rows as the triangulator
    holds them, below 2^21 vertices and from there on, and neighbours
    that hold each half-edge's mate, the same edge reversed, -1 where a
    ghost row did. Rows drawn at
    random would repeat directed edges, which no triangulation does and
    the one-key sort relies on."""
    rng = np.random.default_rng(n_real % 1000)
    xs, ys = rng.random((2, min(n_real, 600)))
    tv, tn = _Triangulator(xs, ys, _first_triangle(xs, ys)).run()
    ids = np.append(np.sort(rng.choice(n_real, len(xs), replace=False)), n_real)
    shift = rng.integers(0, 3, (len(tv), 1))
    turn = (np.arange(3) + shift) % 3
    rows = np.take_along_axis(ids[tv], turn, axis=1)
    mates = np.take_along_axis(tn.astype(np.int64), turn, axis=1)
    order = rng.permutation(len(rows))
    place = np.argsort(order)
    mates = 3 * place[mates // 3] + (mates % 3 - shift[mates // 3, 0]) % 3
    rows, mates = rows[order].astype(np.int32), mates[order].astype(np.int32)
    want = _real_triangles_lexsort(rows, n_real)
    got, neighbours = _real_triangles(rows, mates, n_real)
    assert len(rows) > len(want) > 0
    assert got.dtype == np.int64 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)
    assert neighbours.dtype == np.int32 and neighbours.shape == got.shape
    inner = np.flatnonzero(neighbours.ravel() >= 0)
    mate = neighbours.ravel()[inner]
    tail, head = got.ravel(), np.roll(got, -1, axis=1).ravel()
    assert (tail[mate] == head[inner]).all() and (head[mate] == tail[inner]).all()
    assert neighbours.size - inner.size == len(rows) - len(want)


@pytest.mark.parametrize("name", ["lattice", "random", "collinear head", "quantized"])
def test_vertex_rows_start_whole_fans(name):
    """From each vertex's row, turning counterclockwise across the edge
    that ends at the vertex visits every row with that corner once, and
    ends back at the start or, for a hull vertex, at the hull: its row
    is the one whose edge from it is a hull edge."""
    tin = build_tin(_cloud(MATCH_CLOUDS[name]()))
    tri, nb = tin.triangles.tolist(), tin.neighbours.tolist()
    fans = [[] for _ in tin.vertices]
    for r, row in enumerate(tri):
        for v in row:
            fans[v].append(r)
    for v, start in enumerate(tin.vertex_rows.tolist()):
        seen, r = [], start
        while r >= 0 and r not in seen:
            seen.append(r)
            r = nb[r][(tri[r].index(v) + 2) % 3] // 3
        assert sorted(seen) == fans[v] and r in (-1, start)
    with pytest.raises(ValueError):
        Tin(tin.vertices, tin.triangles, tin.neighbours[:-1], tin.vertex_rows)
    with pytest.raises(ValueError):
        Tin(tin.vertices, tin.triangles, tin.neighbours, tin.vertex_rows[:-1])


@pytest.mark.parametrize("name", sorted(MATCH_CLOUDS))
def test_neighbours_pair_inner_half_edges(name):
    """``Tin.neighbours`` is an involution on the inner half-edges: the
    mate of a mate is the half-edge itself, and it runs the same edge the
    other way. The -1 entries are the hull edges, one per exact hull
    vertex, collinear boundary points included."""
    tin = build_tin(_cloud(MATCH_CLOUDS[name]()))
    nb = tin.neighbours.ravel().astype(np.int64)
    inner = np.flatnonzero(nb >= 0)
    assert (nb[nb[inner]] == inner).all()
    tail, head = tin.triangles.ravel(), np.roll(tin.triangles, -1, axis=1).ravel()
    assert (tail[nb[inner]] == head[inner]).all() and (head[nb[inner]] == tail[inner]).all()
    assert nb.size - inner.size == _exact_hull_size(tin.vertices[:, :2])


@pytest.mark.parametrize("name", sorted(MATCH_CLOUDS))
def test_tin_directed_edges_are_unique(name):
    """What ``_real_triangles``' one-key sort relies on: in the
    triangulator's rows, ghosts included, each directed edge lies in one
    row only."""
    xs, ys = _dedupe_xy(MATCH_CLOUDS[name]())[:, :2].T
    tv = _Triangulator(xs, ys, _first_triangle(xs, ys)).run()[0].astype(np.int64)
    key = (tv * (len(xs) + 1) + np.roll(tv, -1, axis=1)).ravel()
    assert np.unique(key).size == key.size == 3 * (2 * len(xs) - 2)


def _hilbert_order_where(xs, ys):
    """The ``np.where`` form that ``_hilbert_order`` replaced."""
    lo_x, lo_y = xs.min(), ys.min()
    span = max(float(xs.max() - lo_x), float(ys.max() - lo_y)) or 1.0
    x = np.minimum(((xs - lo_x) / span * 65535.0).astype(np.int64), 65535)
    y = np.minimum(((ys - lo_y) / span * 65535.0).astype(np.int64), 65535)
    d = np.zeros(len(xs), np.int64)
    s = 1 << 15
    while s:
        rx, ry = (x & s) > 0, (y & s) > 0
        d += s * s * ((3 * rx) ^ ry)
        flip = rx & ~ry
        x, y = np.where(flip, 65535 - x, x), np.where(flip, 65535 - y, y)
        x, y = np.where(ry, x, y), np.where(ry, y, x)
        s >>= 1
    return np.argsort(d, kind="stable")


@pytest.mark.parametrize("kind", ["random", "grid", "corners", "line", "beach"])
def test_hilbert_order_matches_where_form(kind):
    """The XOR flips and swaps order the points as the ``np.where`` form
    did: random points, a grid with repeated cells, the bounding
    square's corners and edges (cells 0 and 65535), all points on one
    vertical line, and the beach cloud."""
    rng = np.random.default_rng(7)
    if kind == "random":
        xy = rng.random((20000, 2)) * [3.0, 1.0]
    elif kind == "grid":
        xy = rng.integers(0, 40, (20000, 2)) / 39.0
    elif kind == "corners":
        xy = rng.choice([0.0, 1.0, 0.5, 1.0 - 2 ** -52], (5000, 2))
    elif kind == "line":
        xy = np.column_stack([np.full(3000, 2.0), rng.random(3000)])
    else:
        xy = _beach_cloud()[:, :2]
    xs, ys = np.ascontiguousarray(xy.T)
    np.testing.assert_array_equal(_hilbert_order(xs, ys), _hilbert_order_where(xs, ys))


def _reference_z(tin: Tin, x: float, y: float):
    """Scalar-loop oracle: the lowest-index triangle whose barycentric
    weights are all >= -1e-12 and z there, (-1, None) when there is none."""
    xs, ys, zs = tin.vertices.T
    for t, (a, b, c) in enumerate(tin.triangles):
        ax, ay, bx, by, cx, cy = xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]
        area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if area == 0:
            continue
        w0 = ((bx - x) * (cy - y) - (by - y) * (cx - x)) / area
        w1 = ((cx - x) * (ay - y) - (cy - y) * (ax - x)) / area
        w2 = 1.0 - w0 - w1
        if min(w0, w1, w2) >= -1e-12:
            return t, float(w0 * zs[a] + w1 * zs[b] + w2 * zs[c])
    return -1, None


def _dyadic_lattice_cloud():
    """8 x 6 points 2 apart from (64, 32), random z: every coordinate, a
    1-cell grid's centres on it and those centres moved by 2^-40 are
    exact in float64. A centre 2^-40 outside a hull edge has a weight of
    about -4.5e-13 in the hull triangle, so it is claimed."""
    gx, gy = np.meshgrid(64.0 + 2 * np.arange(8), 32.0 + 2 * np.arange(6))
    return np.column_stack([gx.ravel(), gy.ravel(), np.random.default_rng(11).random(48)])


def _locator_queries(name: str, tin: Tin) -> tuple[np.ndarray, np.ndarray]:
    """On the dyadic lattice, the centres of a 1-cell grid one cell out
    past the hull, which fall on vertices, on interior and hull edges and
    one cell outside, as they are, moved 2^-40 left and up, and moved
    2^-40 right and down. On a random cloud, random points over the
    cloud and past its hull, every vertex and every edge's midpoint."""
    if name == "dyadic lattice":
        gx, gy = np.meshgrid(63.0 + np.arange(17), 43.0 - np.arange(13))
        shift = np.repeat([0.0, -(2.0 ** -40), 2.0 ** -40], gx.size)
        return np.tile(gx.ravel(), 3) + shift, np.tile(gy.ravel(), 3) - shift
    rng = np.random.default_rng(int(name[-1]))
    x, y = tin.vertices[:, 0], tin.vertices[:, 1]
    a, b = tin.triangles.ravel(), np.roll(tin.triangles, -1, axis=1).ravel()
    qx, qy = rng.uniform(-0.5, 4.5, (2, 300))
    return np.concatenate([qx, x, (x[a] + x[b]) / 2]), np.concatenate([qy, y, (y[a] + y[b]) / 2])


def _locator_tin(name: str) -> Tin:
    """The dyadic lattice's TIN, or that of 150 random points over
    [0, 4)^2 seeded by the name's last digit."""
    if name == "dyadic lattice":
        return build_tin(_cloud(_dyadic_lattice_cloud()))
    rng = np.random.default_rng(int(name[-1]))
    return build_tin(_cloud(np.column_stack([rng.random((150, 2)) * 4, rng.random(150)])))


@pytest.mark.parametrize("name", ["dyadic lattice", "random 0", "random 1"])
def test_locator_matches_scalar_scan(name):
    """The point locator's claim and z equal the scalar scan's bit for
    bit, at points exactly on vertices and edges, where the lowest-index
    rule within 1e-12 picks among several triangles, and just outside
    the hull, where a walk stops at a hull edge. rasterize_tin gives the
    same z on the lattice's grids."""
    tin = _locator_tin(name)
    qx, qy = _locator_queries(name, tin)
    claim, z = _locate(tin, qx, qy)
    want = [_reference_z(tin, x, y) for x, y in zip(qx.tolist(), qy.tolist())]
    assert claim.tolist() == [t for t, _ in want]
    assert z.tobytes() == np.array([np.nan if w is None else w for _, w in want]).tobytes()
    vertices = set(map(tuple, tin.vertices[:, :2].tolist()))
    exact = np.array([p in vertices for p in zip(qx.tolist(), qy.tolist())])
    assert exact.sum() == len(tin.vertices)
    assert (claim >= 0).sum() > len(qx) // 2 and (claim < 0).any()
    if name == "dyadic lattice":
        # Each shift puts the centres of two hull sides, 15 and 11 of
        # them, one corner shared, 2^-40 outside, where they are claimed.
        outside = (qx < 64) | (qx > 78) | (qy < 32) | (qy > 42)
        assert (claim[outside] >= 0).sum() == 2 * (15 + 11 - 1)
        for i, shift in enumerate([0.0, -(2.0 ** -40), 2.0 ** -40]):
            geom = GridGeometry(origin_x=63.0 + shift, origin_y=43.0 - shift, cell_size=1.0, n_cols=17, n_rows=13)
            values = rasterize_tin(tin, geom, kill=np.inf).values.ravel()
            part = z[i * 221:(i + 1) * 221]
            assert values.tobytes() == np.where(np.isnan(part), NODATA, part).tobytes()


@pytest.mark.parametrize("name", ["dyadic lattice", "random 0", "random 1"])
def test_locator_claims_do_not_depend_on_the_start(name, monkeypatch):
    """Walks that all start from the first row, or all from the last,
    end in other rows than the bucket starts reach, but the claims and z
    bytes are the same: they depend only on which triangles hold each
    point, on vertices, on edges and 2^-40 outside the hull alike."""
    tin = _locator_tin(name)
    qx, qy = _locator_queries(name, tin)
    want = _locate(tin, qx, qy)
    for row in (0, len(tin.triangles) - 1):
        monkeypatch.setattr(
            surface, "_start_rows", lambda tin, xs, ys: np.full(len(xs) - len(tin.vertices), row, np.int32)
        )
        claim, z = _locate(tin, qx, qy)
        assert claim.tolist() == want[0].tolist(), row
        assert z.tobytes() == want[1].tobytes(), row


def test_locator_raises_on_fans_that_never_close():
    """A Tin whose mates all point at corner 0 of the row across sends
    the locator's fan turns round a cycle that never meets their first
    half-edge; rasterize_tin raises instead of turning forever."""
    rng = np.random.default_rng(0)
    tin = build_tin(_cloud(rng.random((200, 3))))
    nb = tin.neighbours
    bad = Tin(tin.vertices, tin.triangles, np.where(nb >= 0, nb // 3 * 3, -1), tin.vertex_rows)
    geom = GridGeometry(origin_x=0.0, origin_y=1.0, cell_size=0.1, n_cols=10, n_rows=10)
    with pytest.raises(ValueError, match="do not close"):
        rasterize_tin(bad, geom)


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
        the NODATA cells. On the 0.4 lattice, float rounding leaves only 10
        of the 676 centres exactly on a vertex; test_locator_matches_scalar_scan
        holds the tie rule on a lattice whose centres fall on vertices and
        edges exactly."""
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
            assert z == _reference_z(tin, x, y)[1]
            if cell == NODATA:
                assert z is None
            else:
                assert z is not None
                assert np.float64(z).tobytes() == cell.tobytes()

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
