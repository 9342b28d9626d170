"""Camera model tests: distortion, projection, stereo depth."""

import numpy as np
import pytest

from shoremap.camera import (
    CameraIntrinsics,
    StereoRig,
    _distort_xy,
    disparity_to_depth,
    distort_pixels,
    normalized_to_pixels,
    pixels_depth_to_points,
    pixels_to_normalized,
    project_many,
    undistort_arrays,
)
from shoremap.errors import BehindCamera, NonPositiveDisparity, OutOfModelRange

FACTORY = CameraIntrinsics(
    fx=1060.70, fy=1060.70, cx=950.42, cy=572.89,
    image_width=1920, image_height=1080,
)
RECAL = CameraIntrinsics(
    fx=1060.70, fy=1060.70, cx=950.42, cy=572.89,
    k1=0.0046, k2=-0.0715, k3=0.1904, p1=-0.0003, p2=-0.0019,
    image_width=1920, image_height=1080,
)


class TestDistort:
    def test_zero_coefficients_identity(self):
        x_d, y_d = _distort_xy(FACTORY, np.array([0.3]), np.array([-0.2]))
        assert (x_d[0], y_d[0]) == (0.3, -0.2)

    def test_on_axis_fixed_point(self):
        x_d, y_d = _distort_xy(RECAL, np.array([0.0]), np.array([0.0]))
        assert (x_d[0], y_d[0]) == (0.0, 0.0)

    def test_polynomial_value(self):
        # Frozen from evaluating the model by hand at (0.5, 0):
        # r2 = 0.25; radial = 1 + 0.0046/4 - 0.0715/16 + 0.1904/64
        # x_d = 0.5*radial + p2*(r2 + 2*0.25) = 0.498403125
        # y_d = p1*r2 = -7.5e-05
        x_d, y_d = _distort_xy(RECAL, np.array([0.5]), np.array([0.0]))
        assert x_d[0] == pytest.approx(0.498403125, abs=1e-15)
        assert y_d[0] == pytest.approx(-7.5e-5, abs=1e-18)

    def test_out_of_model_range(self):
        # Normalized (2.5, 1.0): r^2 = 7.25, outside the modeled disk.
        u, v = normalized_to_pixels(RECAL, np.array([2.5]), np.array([1.0]))
        u_d, v_d = distort_pixels(RECAL, u, v)
        assert np.isnan(u_d[0]) and np.isnan(v_d[0])
        with pytest.raises(OutOfModelRange):
            project_many(RECAL, np.array([[2.5, 1.0, 1.0]]))


class TestUndistort:
    def test_zero_coefficients_identity(self):
        x, y, ok = undistort_arrays(FACTORY, np.array([0.7]), np.array([-0.4]))
        assert ok[0] and (x[0], y[0]) == (0.7, -0.4)

    def test_origin_fixed_point(self):
        x, y, ok = undistort_arrays(RECAL, np.array([0.0]), np.array([0.0]))
        assert ok[0] and (x[0], y[0]) == (0.0, 0.0)

    def test_round_trip_grid(self):
        xs = np.linspace(-0.9, 0.9, 32)
        gx, gy = np.meshgrid(xs, xs)
        keep = gx * gx + gy * gy <= 1.0
        worst = 0.0
        for x, y in zip(gx[keep].ravel(), gy[keep].ravel()):
            x_d, y_d = _distort_xy(RECAL, np.array([x]), np.array([y]))
            u, w, ok = undistort_arrays(RECAL, x_d, y_d)
            assert ok[0]
            worst = max(worst, abs(u[0] - x), abs(w[0] - y))
        assert worst < 1e-8

    def test_non_convergence_on_pathological_model(self):
        # Strong negative radial term plus large tangential coupling: the
        # iteration has no attracting fixed point reachable from the seed.
        bad = CameraIntrinsics(
            fx=1000, fy=1000, cx=500, cy=400, k1=-2.5, p1=0.4, p2=-0.3,
            image_width=1000, image_height=800,
        )
        _, _, ok = undistort_arrays(bad, np.array([0.3]), np.array([0.21]))
        assert not ok[0]

    def test_vectorized_matches_scalar_bitwise(self):
        # Convergence freezing makes results independent of batching.
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.5, 0.5, (50, 2))
        xs, ys, ok = undistort_arrays(RECAL, pts[:, 0], pts[:, 1])
        assert ok.all()
        for i in range(50):
            x, y, _ = undistort_arrays(RECAL, pts[i:i + 1, 0], pts[i:i + 1, 1])
            assert (x[0], y[0]) == (xs[i], ys[i])


class TestProject:
    def test_principal_ray(self):
        u, v = project_many(FACTORY, np.array([[0.0, 0.0, 5.0]]))[0]
        assert (u, v) == (950.42, 572.89)

    def test_unit_offset(self):
        u, v = project_many(FACTORY, np.array([[1.0, 0.0, 2.0]]))[0]
        assert u == pytest.approx(950.42 + 530.35, abs=1e-9)
        assert v == pytest.approx(572.89, abs=1e-12)

    def test_behind_camera(self):
        with pytest.raises(BehindCamera):
            project_many(FACTORY, np.array([[0.0, 0.0, 0.0]]))
        with pytest.raises(BehindCamera):
            project_many(FACTORY, np.array([[0.0, 0.0, -1.0]]))

    def test_zero_distortion_equals_linear_pinhole(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x, y = rng.uniform(-1, 1, 2)
            z = rng.uniform(0.5, 10)
            u, v = project_many(FACTORY, np.array([[x * z, y * z, z]]))[0]
            assert abs(u - (FACTORY.fx * x + FACTORY.cx)) < 1e-12 * max(1, abs(u))
            assert abs(v - (FACTORY.fy * y + FACTORY.cy)) < 1e-12 * max(1, abs(v))

    def test_project_many_matches_scalar(self):
        rng = np.random.default_rng(4)
        pts = np.column_stack(
            [rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 20), rng.uniform(1, 5, 20)]
        )
        px = project_many(RECAL, pts)
        for i in range(20):
            assert np.array_equal(project_many(RECAL, pts[i:i + 1])[0], px[i])


class TestStereoDepth:
    def test_metric_depth(self):
        rig = StereoRig(intrinsics=FACTORY, baseline=0.12)
        assert disparity_to_depth(rig, 127.284) == pytest.approx(1.0, abs=1e-9)
        assert disparity_to_depth(rig, 10.0) == pytest.approx(12.7284, abs=1e-9)

    def test_non_positive_disparity(self):
        rig = StereoRig(intrinsics=FACTORY, baseline=0.12)
        with pytest.raises(NonPositiveDisparity):
            disparity_to_depth(rig, 0.0)
        with pytest.raises(NonPositiveDisparity):
            disparity_to_depth(rig, -2.0)
        # One bad value rejects the whole array.
        for bad in (0.0, -0.5, -np.inf):
            with pytest.raises(NonPositiveDisparity):
                disparity_to_depth(rig, np.array([3.0, bad, 12.0]))

    def test_strictly_decreasing_in_disparity(self):
        rig = StereoRig(intrinsics=FACTORY, baseline=0.12)
        zs = disparity_to_depth(rig, np.linspace(0.5, 200, 400))
        assert (np.diff(zs) < 0).all()

    def test_array_matches_per_element(self):
        rig = StereoRig(intrinsics=FACTORY, baseline=0.12)
        ds = np.array([0.37, 1.0, 7.25, 64.0, 127.284, 190.5])
        zs = disparity_to_depth(rig, ds)
        assert zs.shape == ds.shape
        for d, z in zip(ds, zs):
            assert z == disparity_to_depth(rig, d)
            assert z == FACTORY.fx * 0.12 / d

    def test_baseline_validation(self):
        with pytest.raises(ValueError):
            StereoRig(intrinsics=FACTORY, baseline=0.0)


class TestBackProjection:
    def test_principal_ray(self):
        pts = pixels_depth_to_points(
            FACTORY, np.array([950.42]), np.array([572.89]), np.array([5.0])
        )
        assert pts.shape == (1, 3) and pts[0].tolist() == [0.0, 0.0, 5.0]

    def test_unit_normalized_offset(self):
        pts = pixels_depth_to_points(
            FACTORY, np.array([950.42 + 1060.70]), np.array([572.89]), np.array([2.0])
        )
        x, y, z = pts[0]
        assert x == pytest.approx(2.0, abs=1e-9)
        assert y == pytest.approx(0.0, abs=1e-12)
        assert z == 2.0

    def test_pinhole_bit_for_bit(self):
        """Back-projection is the pinhole ray scaled by depth, to the bit,
        whatever distortion terms the intrinsics carry."""
        rng = np.random.default_rng(4)
        u, v = rng.uniform(0, 1920, 1000), rng.uniform(0, 1080, 1000)
        z = rng.uniform(0.5, 15, 1000)
        for i in (FACTORY, RECAL):
            expected = np.column_stack(
                [(u - i.cx) / i.fx * z, (v - i.cy) / i.fy * z, z]
            )
            assert np.array_equal(pixels_depth_to_points(i, u, v, z), expected)

    def test_round_trip_with_project(self):
        """Raw pixels of a lens with distortion, undistorted to rays and
        placed at a depth, project back onto themselves."""
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(500):
            u = rng.uniform(200, 1700)
            v = rng.uniform(100, 1000)
            z = rng.uniform(0.5, 15)
            x, y, ok = undistort_arrays(
                RECAL, *pixels_to_normalized(RECAL, np.array([u]), np.array([v]))
            )
            assert ok[0]
            q = project_many(RECAL, np.column_stack([x * z, y * z, [z]]))[0]
            worst = max(worst, abs(q[0] - u), abs(q[1] - v))
        assert worst < 1e-6

    def test_vectorized(self):
        pts = pixels_depth_to_points(
            FACTORY, np.array([950.42]), np.array([572.89]), np.array([3.0])
        )
        np.testing.assert_allclose(pts[0], [0.0, 0.0, 3.0], atol=1e-12)


class TestIntrinsicsValidation:
    def test_principal_point_bounds(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=100, fy=100, cx=2000, cy=500,
                             image_width=1920, image_height=1080)

    def test_positive_focal(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=0, fy=100, cx=10, cy=10,
                             image_width=100, image_height=100)
