"""Georectification tests: GCP homography fit, RMSE metric, cubic
resampling, inverse warping."""

import tracemalloc
import warnings

import numpy as np
import pytest

from shoremap import georectify
from shoremap.camera import CameraIntrinsics, _distort_xy
from shoremap.errors import (
    DegenerateConfiguration,
    DegenerateProjection,
    EmptyGcpSet,
    InsufficientGcps,
)
from shoremap.geometry import (
    GridGeometry,
    Homography,
    Point2,
    Point3,
    apply_homography_many,
)
from shoremap.georectify import (
    Gcp,
    RmseReport,
    bicubic_sample_many,
    fit_ground_homography,
    rmse_xy,
    warp_to_grid,
)
from shoremap.stereo import RgbaImage

H_TRUE = Homography(
    np.array([[1.2, 0.1, 5.0], [0.05, 0.9, -3.0], [1e-4, -2e-4, 1.0]])
)
SEVEN_PX = [
    (100, 100), (1800, 120), (200, 950), (1700, 900),
    (960, 540), (500, 700), (1500, 300),
]


def _gcps_through(h, px_list, z=0.0):
    world = apply_homography_many(h, np.array(px_list, dtype=np.float64))
    return [
        Gcp(id=f"g{i}", world=Point3(wx, wy, z), image=Point2(u, v))
        for i, ((u, v), (wx, wy)) in enumerate(zip(px_list, world))
    ]


def _opaque(rng, h, w):
    px = rng.integers(0, 256, (h, w, 4), dtype=np.uint8)
    px[:, :, 3] = 255
    return RgbaImage(px)


class TestFitGroundHomography:
    def test_exact_square_to_square(self):
        gcps = [
            Gcp(id="a", world=Point3(10.0, 20.0, 0), image=Point2(0, 0)),
            Gcp(id="b", world=Point3(12.0, 20.0, 0), image=Point2(100, 0)),
            Gcp(id="c", world=Point3(12.0, 22.0, 0), image=Point2(100, 100)),
            Gcp(id="d", world=Point3(10.0, 22.0, 0), image=Point2(0, 100)),
        ]
        h = fit_ground_homography(gcps)
        mapped = apply_homography_many(h, np.array([g.image for g in gcps]))
        world = np.array([(g.world.x, g.world.y) for g in gcps])
        assert np.abs(mapped - world).max() < 1e-9

    def test_seven_point_projective_recovery(self):
        h = fit_ground_homography(_gcps_through(H_TRUE, SEVEN_PX))
        rel = np.abs(h.h - H_TRUE.h).max() / np.abs(H_TRUE.h).max()
        assert rel < 1e-8

    def test_insufficient_gcps(self):
        gcps = _gcps_through(H_TRUE, SEVEN_PX[:3])
        with pytest.raises(InsufficientGcps):
            fit_ground_homography(gcps)

    def test_gcps_without_observations_ignored(self):
        gcps = _gcps_through(H_TRUE, SEVEN_PX[:3])
        gcps.append(Gcp(id="blind", world=Point3(0, 0, 0)))
        with pytest.raises(InsufficientGcps):
            fit_ground_homography(gcps)

    def test_collinear_degenerate(self):
        gcps = [
            Gcp(id=f"g{i}", world=Point3(float(i), 2.0 * i, 0),
                image=Point2(float(i), float(i)))
            for i in range(5)
        ]
        with pytest.raises(DegenerateConfiguration):
            fit_ground_homography(gcps)

    def test_world_translation_equivariance(self):
        gcps = _gcps_through(H_TRUE, SEVEN_PX)
        tx, ty = 123.456, -78.9
        shifted = [
            Gcp(id=g.id, world=Point3(g.world.x + tx, g.world.y + ty, 0),
                image=g.image)
            for g in gcps
        ]
        h0 = fit_ground_homography(gcps)
        h1 = fit_ground_homography(shifted)
        px = np.array(SEVEN_PX, dtype=np.float64)
        d = apply_homography_many(h1, px) - apply_homography_many(h0, px)
        assert np.abs(d[:, 0] - tx).max() < 1e-9
        assert np.abs(d[:, 1] - ty).max() < 1e-9


class TestRmse:
    def test_exact_fit_zero(self):
        gcps = _gcps_through(H_TRUE, SEVEN_PX[:4])
        h = fit_ground_homography(gcps)
        rep = rmse_xy(h, gcps)
        assert rep.rmse_x < 1e-9
        assert rep.rmse_y < 1e-9

    def test_hand_computed_value(self):
        # dx residuals {0.03, 0.04} m: rmse_x = sqrt(0.0025/2) = 0.03535...
        gcps = [
            Gcp(id="a", world=Point3(-0.03, 0.0, 0), image=Point2(0, 0)),
            Gcp(id="b", world=Point3(1 - 0.04, 1.0, 0), image=Point2(1, 1)),
        ]
        rep = rmse_xy(Homography(np.eye(3)), gcps)
        assert rep.rmse_x == pytest.approx(0.035355339059327376, abs=1e-12)
        assert rep.rmse_y == pytest.approx(0.0, abs=1e-12)

    def test_rooted_identity_relation(self):
        rng = np.random.default_rng(2)
        gcps = []
        world = apply_homography_many(H_TRUE, np.array(SEVEN_PX, dtype=np.float64))
        for i, ((u, v), (wx, wy)) in enumerate(zip(SEVEN_PX, world)):
            gcps.append(
                Gcp(id=f"g{i}",
                    world=Point3(wx + rng.normal(0, 0.05), wy + rng.normal(0, 0.05), 0),
                    image=Point2(u, v))
            )
        rep = rmse_xy(H_TRUE, gcps)
        dx = np.array([r[1] for r in rep.per_point_residuals])
        assert rep.rmse_x**2 * len(dx) == pytest.approx((dx**2).sum(), rel=1e-9)

    def test_empty_set(self):
        with pytest.raises(EmptyGcpSet):
            rmse_xy(Homography(np.eye(3)), [Gcp(id="x", world=Point3(0, 0, 0))])

    def test_survey_noise_band(self):
        # sigma = 3 cm world noise on 7 GCPs; the rooted per-axis RMSE must
        # land in [1.5, 4.5] cm on average over 100 trials.
        rng = np.random.default_rng(0)
        vals_x, vals_y = [], []
        clean = _gcps_through(H_TRUE, SEVEN_PX)
        for _ in range(100):
            noisy = [
                Gcp(id=g.id,
                    world=Point3(g.world.x + rng.normal(0, 0.03),
                                 g.world.y + rng.normal(0, 0.03), 0),
                    image=g.image)
                for g in clean
            ]
            h = fit_ground_homography(noisy)
            rep = rmse_xy(h, noisy)
            vals_x.append(rep.rmse_x)
            vals_y.append(rep.rmse_y)
        assert 0.015 <= np.mean(vals_x) <= 0.045
        assert 0.015 <= np.mean(vals_y) <= 0.045

    def test_residuals_grow_with_distance(self):
        # Noise proportional to distance from the camera: residual
        # magnitudes must rank-correlate positively with distance.
        rng = np.random.default_rng(5)
        cam_xy = np.array([0.0, 0.0])
        h = Homography(np.array([[0.01, 0, 0], [0, 0.01, 0], [0, 0, 1.0]]))
        world = apply_homography_many(h, np.array(SEVEN_PX, dtype=np.float64))
        corr = []
        for _ in range(20):
            gcps = []
            dists = []
            for i, ((u, v), (wx, wy)) in enumerate(zip(SEVEN_PX, world)):
                dist = np.hypot(wx - cam_xy[0], wy - cam_xy[1])
                sigma = 0.002 * dist
                gcps.append(
                    Gcp(id=f"g{i}",
                        world=Point3(wx + rng.normal(0, sigma),
                                     wy + rng.normal(0, sigma), 0),
                        image=Point2(u, v))
                )
                dists.append(dist)
            rep = rmse_xy(h, gcps)
            mags = [np.hypot(dx, dy) for _, dx, dy in rep.per_point_residuals]
            rank_d = np.argsort(np.argsort(dists))
            rank_m = np.argsort(np.argsort(mags))
            corr.append(np.corrcoef(rank_d, rank_m)[0, 1])
        assert np.mean(corr) > 0


def _oracle_apply_homography(h, p):
    """The scalar projective division as written before the library kept
    only apply_homography_many."""
    m = h.h
    w = m[2, 0] * p.x + m[2, 1] * p.y + m[2, 2]
    if abs(w) <= 1e-12:
        raise DegenerateProjection(f"point {p} maps to infinity (w={w:g})")
    x = (m[0, 0] * p.x + m[0, 1] * p.y + m[0, 2]) / w
    y = (m[1, 0] * p.x + m[1, 1] * p.y + m[1, 2]) / w
    return Point2(x, y)


def _oracle_rmse_xy(h, gcps):
    """rmse_xy as written before it made one array call: a Python loop of
    scalar homography applications."""
    obs = [g for g in gcps if g.image is not None]
    if not obs:
        raise EmptyGcpSet("no GCPs with image observations")
    residuals = []
    for g in obs:
        mapped = _oracle_apply_homography(h, g.image)
        residuals.append((g.id, mapped.x - g.world.x, mapped.y - g.world.y))
    dx = np.array([r[1] for r in residuals])
    dy = np.array([r[2] for r in residuals])
    n = len(residuals)
    return RmseReport(
        rmse_x=float(np.sqrt((dx * dx).sum() / n)),
        rmse_y=float(np.sqrt((dy * dy).sum() / n)),
        per_point_residuals=tuple(residuals),
    )


def _outcome(fn, *args):
    """(error type, None) or (None, the float64 bytes of the result)."""
    try:
        result = fn(*args)
    except Exception as exc:  # the error type is part of the comparison
        return type(exc), None
    if isinstance(result, RmseReport):
        values = [result.rmse_x, result.rmse_y]
        for _, dx, dy in result.per_point_residuals:
            values += [dx, dy]
        ids = [gid for gid, _, _ in result.per_point_residuals]
        return None, (np.array(values, dtype=np.float64).tobytes(), ids)
    return None, np.array(result, dtype=np.float64).tobytes()


def _random_homography(rng):
    while True:
        m = rng.normal(0.0, 1.0, (3, 3))
        m[2, :2] *= rng.choice([1e-3, 1.0])
        if abs(np.linalg.det(m)) > 1e-3 and abs(m[2, 2]) > 1e-3 and abs(m[2, 1]) > 1e-3:
            return Homography(m)


def _point_on_horizon(rng, h):
    """A point whose projective denominator is (within rounding) zero."""
    m = h.h
    x = rng.uniform(-50, 50)
    return Point2(x, -(m[2, 0] * x + m[2, 2]) / m[2, 1])


class TestProjectiveDivisionOracle:
    """apply_homography_many and rmse_xy against their scalar forms, bit
    for bit, at and near the line at infinity: a row the oracle rejects
    comes back NaN, and rmse_xy raises the oracle's error type."""

    def test_apply_homography_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        raised = 0
        for _ in range(400):
            h = _random_homography(rng)
            kind = rng.integers(3)
            if kind == 0:
                p = Point2(*rng.uniform(-100, 100, 2))
            else:
                p = _point_on_horizon(rng, h)
                if kind == 2:  # just off the line: huge but finite images
                    p = Point2(p.x, p.y + 1e-9)
            error, expected = _outcome(_oracle_apply_homography, h, p)
            got = apply_homography_many(h, np.array([p]))[0]
            if error is DegenerateProjection:
                assert np.isnan(got).all()
                raised += 1
            else:
                assert got.tobytes() == expected
        assert 50 < raised < 350

    def test_rmse_xy_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        raised = 0
        for trial in range(200):
            h = _random_homography(rng)
            n = int(rng.integers(1, 9))
            gcps = [
                Gcp(id=f"g{k}", world=Point3(*rng.uniform(-500, 500, 3)),
                    image=Point2(*rng.uniform(0, 2000, 2)))
                for k in range(n)
            ]
            gcps.append(Gcp(id="unobserved", world=Point3(0.0, 0.0, 0.0)))
            if trial % 3 == 0:
                at = int(rng.integers(n))
                gcps[at] = Gcp(id=gcps[at].id, world=gcps[at].world,
                               image=_point_on_horizon(rng, h))
            expected = _outcome(_oracle_rmse_xy, h, gcps)
            assert _outcome(rmse_xy, h, gcps) == expected
            raised += expected[0] is DegenerateProjection
        assert raised > 30


def _bicubic_float64_reference(img, x, y):
    """The sampler as it was with a float64 copy of the whole image."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    h, w = img.height, img.width
    finite = np.isfinite(x) & np.isfinite(y)
    x0 = np.floor(np.where(finite, x, 0.0)).astype(np.int64)
    y0 = np.floor(np.where(finite, y, 0.0)).astype(np.int64)
    inside = finite & (x0 - 1 >= 0) & (x0 + 2 <= w - 1) & (y0 - 1 >= 0) & (y0 + 2 <= h - 1)
    xs = np.where(inside, x0, 1)
    ys = np.where(inside, y0, 1)
    wx = georectify._cubic_weights(np.where(inside, x, 1.0) - xs)
    wy = georectify._cubic_weights(np.where(inside, y, 1.0) - ys)
    px = img.pixels.astype(np.float64)
    acc = np.zeros((x.shape[0], 4))
    for j in range(4):
        row = np.zeros((x.shape[0], 4))
        for i in range(4):
            row += wx[:, i, None] * px[ys + j - 1, xs + i - 1]
        acc += wy[:, j, None] * row
    out = np.clip(np.rint(acc), 0, 255).astype(np.uint8)
    out[~inside] = 0
    return out, inside


def _cubic_weights_two_branch(t):
    """The Keys kernel as it was: both branches on every tap, one picked
    by np.where."""
    a = georectify.CUBIC_A
    ad = np.abs(np.stack([1.0 + t, t, 1.0 - t, 2.0 - t], axis=-1))
    w_near = (a + 2.0) * ad**3 - (a + 3.0) * ad**2 + 1.0
    w_far = a * ad**3 - 5.0 * a * ad**2 + 8.0 * a * ad - 4.0 * a
    return np.where(ad <= 1.0, w_near, w_far)


class TestCubicWeights:
    def test_equal_to_two_branch_form_bit_for_bit(self):
        # 0 puts tap 0 at distance exactly 1; 1 - 2^-53 rounds tap 0's
        # distance to 2 and tap 3's to 1.
        edges = np.array([0.0, 5e-324, 0.5, 1.0 - 2.0**-53])
        t = np.concatenate([edges, np.random.default_rng(13).random(10000)])
        got = georectify._cubic_weights(t)
        want = _cubic_weights_two_branch(t)
        assert got.shape == (t.size, 4)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# Positions on and next to every edge of the 4x4 support of an image
# 13 wide and 11 high (floor(x) in [1, 10], floor(y) in [1, 8]), with
# signed zeros, non-finite values and values past the int64 range.
_ODD_W, _ODD_H = 13, 11
_EDGE_POSITIONS = {
    "x": [1.0, np.nextafter(1.0, 0.0), _ODD_W - 3.0, _ODD_W - 3.5,
          np.nextafter(_ODD_W - 2.0, 0.0), _ODD_W - 2.0, 6.25],
    "y": [1.0, np.nextafter(1.0, 0.0), _ODD_H - 3.0, _ODD_H - 3.5,
          np.nextafter(_ODD_H - 2.0, 0.0), _ODD_H - 2.0, 4.75],
    "special": [0.0, -0.0, np.nan, np.inf, -np.inf],
    "huge": [2.0**63, 1e19, 1e300, -2.0**63, -1e19, -1e300],
}


class TestBicubic:
    def test_support_edges_match_float64_reference(self):
        img = RgbaImage(np.random.default_rng(14).integers(
            0, 256, (_ODD_H, _ODD_W, 4), dtype=np.uint8))
        xv = _EDGE_POSITIONS["x"] + _EDGE_POSITIONS["special"]
        yv = _EDGE_POSITIONS["y"] + _EDGE_POSITIONS["special"]
        xs, ys = (a.ravel() for a in np.meshgrid(xv, yv))
        out, inside = bicubic_sample_many(img, xs, ys)
        ref_out, ref_inside = _bicubic_float64_reference(img, xs, ys)
        assert inside.sum() == 25  # 5 inside values on each axis
        assert np.array_equal(inside, ref_inside)
        assert np.array_equal(out, ref_out)

    def test_positions_past_int64_are_nodata(self):
        img = _opaque(np.random.default_rng(15), _ODD_H, _ODD_W)
        huge = np.array(_EDGE_POSITIONS["huge"])
        xs = np.concatenate([huge, np.full(huge.size, 5.5), [5.5]])
        ys = np.concatenate([np.full(huge.size, 4.5), huge, [4.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, inside = bicubic_sample_many(img, xs, ys)
        assert np.array_equal(inside, np.arange(xs.size) == xs.size - 1)
        assert (out[:-1] == 0).all()
        ref_out, _ = _bicubic_float64_reference(img, xs[-1:], ys[-1:])
        assert np.array_equal(out[-1:], ref_out)

    def test_uint8_gather_matches_float64_reference(self):
        rng = np.random.default_rng(11)
        img = _opaque(rng, 29, 37)
        xs = rng.uniform(-3.0, 40.0, 5000)
        ys = rng.uniform(-3.0, 32.0, 5000)
        xs[::97] = np.nan
        out, inside = bicubic_sample_many(img, xs, ys)
        ref_out, ref_inside = _bicubic_float64_reference(img, xs, ys)
        assert inside.any() and not inside.all()
        assert np.array_equal(inside, ref_inside)
        assert np.array_equal(out, ref_out)

    def test_integer_coordinates_exact(self):
        rng = np.random.default_rng(3)
        img = _opaque(rng, 10, 12)
        pts = np.array([(5, 4), (1, 1), (9, 7)])
        out, inside = bicubic_sample_many(img, pts[:, 0], pts[:, 1])
        assert inside.all()
        assert np.array_equal(out, img.pixels[pts[:, 1], pts[:, 0]])

    def test_constant_image_constant_everywhere(self):
        px = np.full((9, 9, 4), 200, dtype=np.uint8)
        img = RgbaImage(px)
        rng = np.random.default_rng(4)
        xs = rng.uniform(1.0, 6.9, 50)
        ys = rng.uniform(1.0, 5.9, 50)
        out, inside = bicubic_sample_many(img, xs, ys)
        assert inside.all()
        assert (out == 200).all()

    def test_linear_ramp_reproduced_at_half_pixels(self):
        h, w = 8, 8
        px = np.zeros((h, w, 4))
        for y in range(h):
            for x in range(w):
                px[y, x] = (10 * x, 10 * y, 5 * x + 5 * y, 255)
        img = RgbaImage(px.astype(np.uint8))
        out, inside = bicubic_sample_many(
            img, np.array([3.5, 2.5]), np.array([2.5, 4.5])
        )
        assert inside.all()
        assert tuple(out[0]) == (35, 25, 30, 255)
        assert tuple(out[1]) == (25, 45, 35, 255)

    def test_out_of_support_is_nodata(self):
        img = _opaque(np.random.default_rng(5), 10, 12)
        out, inside = bicubic_sample_many(
            img, np.array([0.5, 10.0, -3.0]), np.array([5.0, 5.0, 2.0])
        )
        assert not inside.any()
        assert (out == 0).all()


class TestWarp:
    def test_identity_reproduces_source_on_valid_overlap(self):
        rng = np.random.default_rng(6)
        img = _opaque(rng, 10, 12)
        geom = GridGeometry(
            origin_x=0.0, origin_y=9.0, cell_size=1.0, n_cols=12, n_rows=10
        )
        warped = warp_to_grid(img, Homography(np.eye(3)), geom)
        # Output row r samples source row 9 - r (north-up grid), giving a
        # vertically flipped copy; valid support is the 4x4-interior.
        flip = img.pixels[::-1]
        valid = warped.pixels[:, :, 3] == 255
        expected = np.zeros((10, 12), dtype=bool)
        expected[2:9, 1:10] = True
        assert np.array_equal(valid, expected)
        assert np.array_equal(warped.pixels[valid], flip[valid])

    def test_identity_row_aligned_overlap(self):
        rng = np.random.default_rng(7)
        img = _opaque(rng, 10, 12)
        geom = GridGeometry(
            origin_x=0.0, origin_y=5.0, cell_size=1.0, n_cols=12, n_rows=1
        )
        warped = warp_to_grid(img, Homography(np.eye(3)), geom)
        assert np.array_equal(warped.pixels[0, 1:10], img.pixels[5, 1:10])

    def test_translation_shifted_copy_with_vacated_strip(self):
        rng = np.random.default_rng(8)
        img = _opaque(rng, 10, 12)
        h = Homography(np.array([[1.0, 0, 5.0], [0, 1.0, 7.0], [0, 0, 1.0]]))
        aligned = GridGeometry(
            origin_x=5.0, origin_y=16.0, cell_size=1.0, n_cols=12, n_rows=10
        )
        w_aligned = warp_to_grid(img, h, aligned)
        flip = img.pixels[::-1]
        valid = w_aligned.pixels[:, :, 3] == 255
        assert np.array_equal(w_aligned.pixels[valid], flip[valid])
        # Grid 3 columns further west: the extra strip has no source data.
        west = GridGeometry(
            origin_x=2.0, origin_y=16.0, cell_size=1.0, n_cols=12, n_rows=10
        )
        w_west = warp_to_grid(img, h, west)
        assert (w_west.pixels[:, :4, 3] == 0).all()
        assert np.array_equal(w_west.pixels[2:9, 4:12], w_aligned.pixels[2:9, 1:9])

    def test_cells_mapped_past_int64_are_nodata(self):
        # The inverse map sends world (x, y) to pixel (1e19 x, 5 + 1e-19 y):
        # every cell lands on pixel row 5, past the int64 range in x.
        img = _opaque(np.random.default_rng(16), 10, 12)
        geom = GridGeometry(
            origin_x=1.0, origin_y=7.0, cell_size=1.0, n_cols=5, n_rows=5
        )
        h = Homography(np.array([[1e-19, 0, 0], [0, 1e19, -5e19], [0, 0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warped = warp_to_grid(img, h, geom)
        assert (warped.pixels == 0).all()

    def test_grid_outside_footprint_all_nodata(self):
        img = _opaque(np.random.default_rng(9), 10, 12)
        geom = GridGeometry(
            origin_x=500.0, origin_y=500.0, cell_size=1.0, n_cols=6, n_rows=6
        )
        warped = warp_to_grid(img, Homography(np.eye(3)), geom)
        assert (warped.pixels == 0).all()


# A barrel lens on a 160x120 sensor, and a mildly projective map from its
# undistorted pixels to world metres (about 1 cm per pixel).
BARREL = CameraIntrinsics(
    fx=150.0, fy=150.0, cx=79.5, cy=59.5, k1=-0.2,
    image_width=160, image_height=120,
)
H_PHOTO = Homography(
    np.array([[0.01, 0.001, 0.0], [0.0005, -0.01, 1.5], [0.0, 2e-4, 1.0]])
)


def _texture(x, y):
    """Smooth analytic RGB texture on the world plane, wavelengths of
    about 20-35 cells at 1 cm."""
    r = 128.0 + 90.0 * np.sin(2 * np.pi * x / 0.23) * np.cos(2 * np.pi * y / 0.31)
    g = 128.0 + 90.0 * np.cos(2 * np.pi * (x + y) / 0.29)
    b = 128.0 + 90.0 * np.sin(2 * np.pi * (x - 0.5 * y) / 0.35)
    return np.stack([r, g, b], axis=-1)


def _render_distorted_photo(lens, h):
    """Raw photo of the texture: each raw pixel is undistorted by plain
    fixed-point iteration (radial k1 only), mapped to the world through h,
    and shaded there."""
    vs, us = np.mgrid[0:lens.image_height, 0:lens.image_width].astype(np.float64)
    xd = (us - lens.cx) / lens.fx
    yd = (vs - lens.cy) / lens.fy
    x, y = xd.copy(), yd.copy()
    for _ in range(100):
        radial = 1.0 + lens.k1 * (x * x + y * y)
        x, y = xd / radial, yd / radial
    uv = np.column_stack([(lens.fx * x + lens.cx).ravel(), (lens.fy * y + lens.cy).ravel()])
    world = apply_homography_many(h, uv)
    rgb = np.rint(_texture(world[:, 0], world[:, 1])).astype(np.uint8)
    px = np.full((lens.image_height, lens.image_width, 4), 255, dtype=np.uint8)
    px[:, :, :3] = rgb.reshape(lens.image_height, lens.image_width, 3)
    return RgbaImage(px)


def _undistort_image_two_step(img, intr):
    """The former first resample: the whole photo onto an undistorted
    pixel grid (undistorted pixel -> distorted source -> cubic sample)."""
    h, w = img.height, img.width
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    xn = (us - intr.cx) / intr.fx
    yn = (vs - intr.cy) / intr.fy
    xd, yd = _distort_xy(intr, xn, yn)
    src_u = intr.fx * xd + intr.cx
    src_v = intr.fy * yd + intr.cy
    out_of_model = (xn * xn + yn * yn) > 4.0
    src_u[out_of_model] = np.nan
    src_v[out_of_model] = np.nan
    samples, _ = bicubic_sample_many(img, src_u.ravel(), src_v.ravel())
    return RgbaImage(samples.reshape(h, w, 4))


def _photo_grid(lens, h, cell):
    corners = np.array([[0.0, 0.0], [lens.image_width - 1.0, 0.0],
                        [0.0, lens.image_height - 1.0],
                        [lens.image_width - 1.0, lens.image_height - 1.0]])
    world = apply_homography_many(h, corners)
    x0, y1 = world[:, 0].min(), world[:, 1].max()
    n_cols = int(np.ceil((world[:, 0].max() - x0) / cell)) + 1
    n_rows = int(np.ceil((y1 - world[:, 1].min()) / cell)) + 1
    return GridGeometry(origin_x=x0, origin_y=y1, cell_size=cell,
                        n_cols=n_cols, n_rows=n_rows)


class TestWarpThroughLens:
    @pytest.mark.parametrize("cell", [0.01, 0.013])
    def test_single_resample_beats_two_step(self, cell):
        photo = _render_distorted_photo(BARREL, H_PHOTO)
        geom = _photo_grid(BARREL, H_PHOTO, cell)
        single = warp_to_grid(photo, H_PHOTO, geom, lens=BARREL).pixels
        two_step = warp_to_grid(
            _undistort_image_two_step(photo, BARREL), H_PHOTO, geom
        ).pixels
        gx, gy = np.meshgrid(*geom.cell_centers())
        truth = _texture(gx, gy)
        both = (single[:, :, 3] == 255) & (two_step[:, :, 3] == 255)
        assert both.sum() > 10000
        mae_single = np.abs(single[both][:, :3] - truth[both]).mean()
        mae_two = np.abs(two_step[both][:, :3] - truth[both]).mean()
        assert mae_single <= mae_two
        # The raw photo of a barrel lens reaches past the undistorted frame.
        assert (single[:, :, 3] == 255).sum() > (two_step[:, :, 3] == 255).sum()

    def test_cells_outside_modeled_disk_are_nodata(self):
        # 1 px per unit around the principal point: cells 300 px away are
        # at r^2 = 4 + 2.25 in normalized units, outside the model.
        lens = CameraIntrinsics(fx=100.0, fy=100.0, cx=400.0, cy=400.0,
                                k1=-0.01, image_width=800, image_height=800)
        photo = _opaque(np.random.default_rng(12), 800, 800)
        geom = GridGeometry(origin_x=50.0, origin_y=400.0, cell_size=50.0,
                            n_cols=15, n_rows=1)
        warped = warp_to_grid(photo, Homography(np.eye(3)), geom, lens=lens)
        xs, _ = geom.cell_centers()
        r2 = ((xs - lens.cx) / lens.fx) ** 2
        assert np.array_equal(warped.pixels[0, :, 3] == 255, r2 <= 4.0)

    @pytest.mark.parametrize("lens", [None, BARREL], ids=["no-lens", "lens"])
    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_blocks_give_the_same_bands(self, monkeypatch, lens, block_rows):
        photo = _render_distorted_photo(BARREL, H_PHOTO)
        geom = _photo_grid(BARREL, H_PHOTO, 0.016)
        assert geom.n_rows % 7 and geom.n_cols * geom.n_rows <= georectify._WARP_CELLS
        whole = warp_to_grid(photo, H_PHOTO, geom, lens=lens).pixels
        monkeypatch.setattr(georectify, "_WARP_CELLS", block_rows * geom.n_cols)
        blocked = warp_to_grid(photo, H_PHOTO, geom, lens=lens).pixels
        assert np.array_equal(blocked, whole)

    def test_sampler_sees_every_cell_once(self, monkeypatch):
        photo = _render_distorted_photo(BARREL, H_PHOTO)
        geom = _photo_grid(BARREL, H_PHOTO, 0.004)
        assert geom.n_rows * geom.n_cols > 2 * georectify._WARP_CELLS
        whole = warp_to_grid(photo, H_PHOTO, geom, lens=BARREL).pixels
        sizes = []

        def counting(img, x, y):
            sizes.append(len(x))
            return bicubic_sample_many(img, x, y)

        monkeypatch.setattr(georectify, "bicubic_sample_many", counting)
        blocked = warp_to_grid(photo, H_PHOTO, geom, lens=BARREL).pixels
        step = georectify._WARP_CELLS // geom.n_cols
        assert len(sizes) == -(-geom.n_rows // step)
        assert sum(sizes) == geom.n_rows * geom.n_cols
        assert np.array_equal(blocked, whole)

    def test_memory_beyond_output_independent_of_grid_height(self):
        photo = _render_distorted_photo(BARREL, H_PHOTO)
        n_cols = 256
        rows = 2 * georectify._WARP_CELLS // n_cols

        def peak_beyond_output(n_rows):
            # Every height spans the same world rows, inside the photo.
            geom = GridGeometry(origin_x=0.1, origin_y=1.2, cell_size=1.0 / n_rows,
                                n_cols=n_cols, n_rows=n_rows)
            tracemalloc.start()
            try:
                warp_to_grid(photo, H_PHOTO, geom, lens=BARREL)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - n_rows * n_cols * 4

        base = peak_beyond_output(rows)
        tall = peak_beyond_output(4 * rows)
        assert tall <= 1.25 * base
