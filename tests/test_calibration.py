"""Checkerboard calibration tests against synthetic ground truth."""

import hashlib

import numpy as np
import pytest

from shoremap.calibration import (
    BoardSpec,
    CalibrationView,
    _ReprojectionProblem,
    axis_angle_to_rotation,
    board_object_points,
    calibrate,
    decompose_extrinsics,
    estimate_view_homography,
    refine,
    rotation_to_axis_angle,
    zhang_init,
)
from shoremap.camera import CameraIntrinsics, LensParams, project_many
from shoremap.errors import (
    BehindCamera,
    DegenerateConfiguration,
    InsufficientViews,
    OutOfModelRange,
    UnstableSolution,
)
from shoremap.formats import write_calibration
from shoremap.geometry import Homography, Point2

from synth import FACTORY_INTRINSICS, RECALIBRATED_INTRINSICS, make_calibration_views

BOARD = BoardSpec(cols=9, rows=6, square_size=0.025)


class TestBoardObjectPoints:
    def test_small_board_grid(self):
        b = BoardSpec(cols=3, rows=3, square_size=0.025)
        pts = board_object_points(b)
        assert len(pts) == 9
        assert pts[0] == (0.0, 0.0, 0.0)
        assert pts[-1] == (0.05, 0.05, 0.0)

    def test_planar(self):
        assert all(p.z == 0.0 for p in board_object_points(BOARD))

    def test_count(self):
        assert len(board_object_points(BOARD)) == 54


class TestViewHomography:
    def test_recovers_known_homography(self):
        h_true = Homography(
            np.array([[900.0, 40.0, 300.0], [-30.0, 950.0, 400.0], [0.02, -0.04, 1.0]])
        )
        obj = board_object_points(BOARD)
        img = []
        for p in obj:
            w = h_true.h @ np.array([p.x, p.y, 1.0])
            img.append(Point2(w[0] / w[2], w[1] / w[2]))
        h = estimate_view_homography(obj, CalibrationView(image_points=tuple(img)))
        rel = np.abs(h.h - h_true.h).max() / np.abs(h_true.h).max()
        assert rel < 1e-8

    def test_exact_square_correspondence(self):
        b = BoardSpec(cols=3, rows=3, square_size=1.0)
        obj = board_object_points(b)
        img = tuple(Point2(10 * p.x + 5, 10 * p.y + 7) for p in obj)
        h = estimate_view_homography(obj, CalibrationView(image_points=img))
        expected = np.array([[10.0, 0, 5], [0, 10.0, 7], [0, 0, 1.0]])
        np.testing.assert_allclose(h.h, expected, atol=1e-9)

    def test_collinear_points_degenerate(self):
        obj = board_object_points(BOARD)
        img = tuple(Point2(float(i), 2.0 * i + 1) for i in range(len(obj)))
        with pytest.raises(DegenerateConfiguration):
            estimate_view_homography(obj, CalibrationView(image_points=img))


def _view_homographies(views):
    obj = board_object_points(BOARD)
    return [estimate_view_homography(obj, v) for v in views]


class TestZhangInit:
    def test_noise_free_recovery(self):
        rng = np.random.default_rng(12)
        views, _ = make_calibration_views(FACTORY_INTRINSICS, BOARD, 10, 0.0, rng)
        seed = zhang_init(_view_homographies(views), (1920, 1080))
        for name in ("fx", "fy", "cx", "cy"):
            truth = getattr(FACTORY_INTRINSICS, name)
            assert abs(getattr(seed, name) - truth) / truth < 1e-3
        assert seed.k1 == seed.k2 == seed.k3 == seed.p1 == seed.p2 == 0.0

    def test_insufficient_views(self):
        rng = np.random.default_rng(13)
        views, _ = make_calibration_views(FACTORY_INTRINSICS, BOARD, 2, 0.0, rng)
        with pytest.raises(InsufficientViews):
            zhang_init(_view_homographies(views), (1920, 1080))

    def test_fronto_parallel_degenerate(self):
        # No tilt variation: every view a pure fronto-parallel placement.
        obj = np.array([(p.x, p.y, p.z) for p in board_object_points(BOARD)])
        views = []
        for depth, sx, sy in ((0.5, -0.05, 0.0), (0.7, 0.04, 0.02), (0.9, 0.0, -0.03)):
            cam = obj + np.array([sx, sy, depth])
            px = project_many(FACTORY_INTRINSICS, cam)
            views.append(CalibrationView(image_points=tuple(Point2(*p) for p in px)))
        try:
            seed = zhang_init(_view_homographies(views), (1920, 1080))
        except UnstableSolution:
            return
        # If extraction numerically survives, it must be badly wrong.
        rel = abs(seed.fx - FACTORY_INTRINSICS.fx) / FACTORY_INTRINSICS.fx
        assert rel > 0.10


class TestDecomposeExtrinsics:
    def test_recovers_generating_pose(self):
        rng = np.random.default_rng(14)
        views, poses = make_calibration_views(FACTORY_INTRINSICS, BOARD, 5, 0.0, rng)
        hs = _view_homographies(views)
        for h, (r_true, t_true) in zip(hs, poses):
            r, t = decompose_extrinsics(h, FACTORY_INTRINSICS)
            np.testing.assert_allclose(r, r_true, atol=1e-6)
            np.testing.assert_allclose(t, t_true, atol=1e-6)

    def test_fronto_parallel_identity_pose(self):
        obj = np.array([(p.x, p.y, p.z) for p in board_object_points(BOARD)])
        cam = obj + np.array([-0.1, -0.06, 1.0])
        px = project_many(FACTORY_INTRINSICS, cam)
        view = CalibrationView(image_points=tuple(Point2(*p) for p in px))
        h = estimate_view_homography(board_object_points(BOARD), view)
        r, t = decompose_extrinsics(h, FACTORY_INTRINSICS)
        np.testing.assert_allclose(r, np.eye(3), atol=1e-6)
        assert t[2] == pytest.approx(1.0, abs=1e-6)

    def test_positive_depth_enforced(self):
        rng = np.random.default_rng(15)
        views, _ = make_calibration_views(FACTORY_INTRINSICS, BOARD, 3, 0.0, rng)
        for h in _view_homographies(views):
            # Sign-flipped homography must decompose to the same t_z > 0 pose.
            r, t = decompose_extrinsics(Homography(-h.h), FACTORY_INTRINSICS)
            assert t[2] > 0


class TestRefine:
    def test_noise_free_full_chain(self):
        rng = np.random.default_rng(16)
        views, _ = make_calibration_views(RECALIBRATED_INTRINSICS, BOARD, 20, 0.0, rng)
        result = calibrate(BOARD, views, (1920, 1080))
        assert result.mean_reprojection_error < 1e-6
        for name in ("fx", "fy", "cx", "cy"):
            truth = getattr(RECALIBRATED_INTRINSICS, name)
            rec = getattr(result.intrinsics, name)
            assert abs(rec - truth) / abs(truth) < 1e-6
        for name in ("k1", "k2", "k3", "p1", "p2"):
            truth = getattr(RECALIBRATED_INTRINSICS, name)
            rec = getattr(result.intrinsics, name)
            assert abs(rec - truth) < 1e-6 * max(1.0, abs(truth))

    def test_truth_seed_is_fixed_point(self):
        rng = np.random.default_rng(17)
        views, poses = make_calibration_views(
            RECALIBRATED_INTRINSICS, BOARD, 8, 0.0, rng
        )
        result = refine(BOARD, views, RECALIBRATED_INTRINSICS, poses)
        for name in ("fx", "fy", "cx", "cy", "k1", "k2", "k3", "p1", "p2"):
            truth = getattr(RECALIBRATED_INTRINSICS, name)
            rec = getattr(result.intrinsics, name)
            assert abs(rec - truth) < 1e-9 * max(1.0, abs(truth))

    def test_cost_never_above_seed(self):
        rng = np.random.default_rng(18)
        views, poses = make_calibration_views(
            RECALIBRATED_INTRINSICS, BOARD, 10, 0.3, rng
        )
        obj = np.array([(p.x, p.y, p.z) for p in board_object_points(BOARD)])
        observed = np.stack([v.as_array() for v in views])
        problem = _ReprojectionProblem(obj, observed)

        def cost_of(intr, pose_list):
            params = np.concatenate(
                [
                    np.array([intr.fx, intr.fy, intr.cx, intr.cy,
                              intr.k1, intr.k2, intr.k3, intr.p1, intr.p2])
                ]
                + [
                    np.concatenate([rotation_to_axis_angle(r), t])
                    for r, t in pose_list
                ]
            )
            r = problem.residuals(params)
            return float(r @ r)

        seed_cost = cost_of(RECALIBRATED_INTRINSICS, poses)
        result = refine(BOARD, views, RECALIBRATED_INTRINSICS, poses)
        final_cost = cost_of(result.intrinsics, list(result.per_view_poses))
        assert final_cost <= seed_cost + 1e-12

    def test_noisy_recovery_band(self):
        rng = np.random.default_rng(0)
        views, _ = make_calibration_views(
            RECALIBRATED_INTRINSICS, BOARD, 20, 0.2, rng
        )
        result = calibrate(BOARD, views, (1920, 1080))
        assert 0.12 <= result.mean_reprojection_error <= 0.30
        assert abs(result.intrinsics.fx - 1060.70) / 1060.70 < 0.005
        assert abs(result.intrinsics.cx - 950.42) < 2.0
        assert abs(result.intrinsics.cy - 572.89) < 2.0

    def test_view_permutation_only_reorders_per_view_errors(self):
        rng = np.random.default_rng(19)
        views, _ = make_calibration_views(
            RECALIBRATED_INTRINSICS, BOARD, 8, 0.2, rng
        )
        a = calibrate(BOARD, views, (1920, 1080))
        perm = [3, 0, 7, 1, 5, 2, 6, 4]
        b = calibrate(BOARD, [views[i] for i in perm], (1920, 1080))
        assert a.mean_reprojection_error == pytest.approx(
            b.mean_reprojection_error, rel=1e-6
        )
        for i, j in enumerate(perm):
            assert a.per_view_errors[j] == pytest.approx(b.per_view_errors[i], rel=1e-5)

    def test_jacobian_step_halving_consistency(self):
        rng = np.random.default_rng(20)
        views, poses = make_calibration_views(
            RECALIBRATED_INTRINSICS, BOARD, 4, 0.0, rng
        )
        obj = np.array([(p.x, p.y, p.z) for p in board_object_points(BOARD)])
        observed = np.stack([v.as_array() for v in views])
        problem = _ReprojectionProblem(obj, observed)
        params = np.concatenate(
            [
                np.array([1065.0, 1055.0, 948.0, 575.0,
                          0.004, -0.07, 0.19, -0.0002, -0.002])
            ]
            + [np.concatenate([rotation_to_axis_angle(r), t]) for r, t in poses]
        )
        # Perturb so we test a generic point, not the optimum.
        params = params * (1.0 + rng.uniform(-1e-3, 1e-3, params.size))
        j1 = problem.jacobian(params, step_scale=1.0)
        j2 = problem.jacobian(params, step_scale=0.5)
        scale = np.abs(j1).max()
        assert np.allclose(j1, j2, rtol=1e-5, atol=1e-5 * scale)


    def test_calibration_file_is_pinned(self):
        # sha256 of the calibration file written from this fixture,
        # recorded before the LM's projection moved into camera.project_many
        # (numpy 2.4.6, OpenBLAS, x86_64). The LM solves through LAPACK,
        # so another LAPACK build may round differently.
        rng = np.random.default_rng(11)
        views, _ = make_calibration_views(RECALIBRATED_INTRINSICS, BOARD, 6, 0.3, rng)
        text = write_calibration(calibrate(BOARD, views, (1920, 1080)).intrinsics, 0.12)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8b92bad51d5397717ce7d6661af1076ce52bb573d9cdd358b5de4d50b74ac64b"
        )


def _oracle_project_view(obj, intr_vec, pose):
    """The LM's projection as written before it called camera.project_many."""
    fx, fy, cx, cy, k1, k2, k3, p1, p2 = intr_vec
    r = axis_angle_to_rotation(pose[:3])
    cam = obj @ r.T + pose[3:]
    z = cam[:, 2]
    if np.any(z <= 1e-9):
        raise BehindCamera("trial pose places corners behind the camera")
    x = cam[:, 0] / z
    y = cam[:, 1] / z
    r2 = x * x + y * y
    if np.any(r2 > 4.0):
        raise OutOfModelRange("trial pose leaves the modeled disk")
    radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    x_d = x * radial + 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
    y_d = y * radial + p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
    proj = np.empty((obj.shape[0], 2))
    proj[:, 0] = fx * x_d + cx
    proj[:, 1] = fy * y_d + cy
    return proj


class TestProjectViewOracle:
    def test_matches_old_projection_bit_for_bit(self):
        # Wild trial vectors included: negative focal lengths and a
        # principal point off the image, which CameraIntrinsics rejects,
        # must still project (or fail with a domain error) as before.
        rng = np.random.default_rng(21)
        obj = np.array([(p.x, p.y, p.z) for p in board_object_points(BOARD)])
        observed = rng.uniform(0, 1000, (1, BOARD.corner_count, 2))
        problem = _ReprojectionProblem(obj, observed)
        outcomes = {None: 0, BehindCamera: 0, OutOfModelRange: 0}
        for _ in range(600):
            intr = np.concatenate([
                rng.uniform(-500, 3000, 2), rng.uniform(-1000, 3000, 2),
                rng.uniform(-1, 1, 3), rng.uniform(-0.1, 0.1, 2),
            ])
            pose = np.concatenate([
                rng.uniform(-1.5, 1.5, 3), rng.uniform(-0.6, 0.6, 2),
                rng.uniform(-0.3, 1.0, 1),
            ])
            try:
                expected = _oracle_project_view(obj, intr, pose)
                error = None
            except (BehindCamera, OutOfModelRange) as exc:
                error = type(exc)
            outcomes[error] += 1
            residual = problem.residuals(np.concatenate([intr, pose]))
            if error is None:
                got = problem._project_view(LensParams(*intr), pose)
                assert got.tobytes() == expected.tobytes()
                assert residual.tobytes() == (observed[0] - expected).ravel().tobytes()
            else:
                with pytest.raises(error):
                    problem._project_view(LensParams(*intr), pose)
                assert residual is None
        assert min(outcomes.values()) > 50, outcomes


_FD_STEP = 6.0554544523933395e-06


def _oracle_residuals(obj, observed, params):
    """Residuals as written before the views were stacked: one
    projection per view."""
    out = np.empty(observed.shape)
    try:
        for v in range(observed.shape[0]):
            pose = params[9 + 6 * v: 15 + 6 * v]
            out[v] = observed[v] - _oracle_project_view(obj, params[:9], pose)
    except (BehindCamera, OutOfModelRange):
        return None
    return out.ravel()


def _oracle_jacobian(obj, observed, params, step_scale=1.0):
    """The LM's central-difference Jacobian as written before the views
    were stacked: one column at a time, one view at a time."""
    n_views, n_points = observed.shape[:2]
    jac = np.zeros((n_views * n_points * 2, params.size))
    block = n_points * 2

    def step_of(x):
        return _FD_STEP * step_scale * max(abs(x), 1.0)

    for j in range(9):
        h = step_of(params[j])
        pp = params.copy(); pp[j] += h
        pm = params.copy(); pm[j] -= h
        rp = _oracle_residuals(obj, observed, pp)
        rm = _oracle_residuals(obj, observed, pm)
        if rp is None or rm is None:
            r0 = _oracle_residuals(obj, observed, params)
            if rp is not None:
                jac[:, j] = (rp - r0) / h
            elif rm is not None:
                jac[:, j] = (r0 - rm) / h
            continue
        jac[:, j] = (rp - rm) / (2.0 * h)

    for v in range(n_views):
        base = 9 + 6 * v
        row0 = v * block
        pose = params[base: base + 6]
        for j in range(6):
            h = step_of(pose[j])
            pp = pose.copy(); pp[j] += h
            pm = pose.copy(); pm[j] -= h
            try:
                proj_p = _oracle_project_view(obj, params[:9], pp)
                proj_m = _oracle_project_view(obj, params[:9], pm)
            except (BehindCamera, OutOfModelRange):
                continue
            jac[row0: row0 + block, base + j] = (
                (proj_m - proj_p) / (2.0 * h)
            ).ravel()
    return jac


class TestJacobianOracle:
    def _problem(self, seed):
        rng = np.random.default_rng(seed)
        views, poses = make_calibration_views(
            RECALIBRATED_INTRINSICS, BOARD, 5, 0.2, rng
        )
        obj = np.array([(p.x, p.y, p.z) for p in board_object_points(BOARD)])
        observed = np.stack([v.as_array() for v in views])
        params = np.concatenate(
            [np.array([1065.0, 1055.0, 948.0, 575.0,
                       0.004, -0.07, 0.19, -0.0002, -0.002])]
            + [np.concatenate([rotation_to_axis_angle(r), t]) for r, t in poses]
        )
        params = params * (1.0 + rng.uniform(-1e-3, 1e-3, params.size))
        return obj, observed, params

    @pytest.mark.parametrize("seed", [22, 23])
    @pytest.mark.parametrize("step_scale", [1.0, 0.5])
    def test_generic_parameters_bit_for_bit(self, seed, step_scale):
        obj, observed, params = self._problem(seed)
        problem = _ReprojectionProblem(obj, observed)
        expected = _oracle_jacobian(obj, observed, params, step_scale)
        assert not np.all(expected == 0, axis=0).any()
        got = problem.jacobian(params, step_scale)
        assert got.tobytes() == expected.tobytes()
        residual = problem.residuals(params)
        assert residual.tobytes() == _oracle_residuals(obj, observed, params).tobytes()

    def test_domain_edge_columns_stay_zero(self):
        # Slide view 2 along x until its outermost corner sits on the
        # r^2 = 4 rim: its +x translation step leaves the modeled disk.
        obj, observed, params = self._problem(24)
        tx = 9 + 6 * 2 + 3

        def inside(x):
            trial = params.copy()
            trial[tx] = x
            return _oracle_residuals(obj, observed, trial) is not None

        lo, hi = params[tx], params[tx] + 2.0
        assert inside(lo) and not inside(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if inside(mid) else (lo, mid)
        params[tx] = lo
        problem = _ReprojectionProblem(obj, observed)
        expected = _oracle_jacobian(obj, observed, params)
        dead = np.flatnonzero(np.all(expected == 0, axis=0))
        assert tx in dead
        assert all(9 + 6 * 2 <= c < 9 + 6 * 3 for c in dead)
        got = problem.jacobian(params)
        assert got.tobytes() == expected.tobytes()
        residual = problem.residuals(params)
        assert residual.tobytes() == _oracle_residuals(obj, observed, params).tobytes()


class TestAxisAngle:
    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            aa = rng.uniform(-1, 1, 3) * rng.uniform(0, 3.0)
            r = axis_angle_to_rotation(aa)
            back = axis_angle_to_rotation(rotation_to_axis_angle(r))
            np.testing.assert_allclose(back, r, atol=1e-9)

    def test_near_pi(self):
        aa = np.array([0.0, 0.0, np.pi - 1e-9])
        r = axis_angle_to_rotation(aa)
        back = axis_angle_to_rotation(rotation_to_axis_angle(r))
        np.testing.assert_allclose(back, r, atol=1e-6)
