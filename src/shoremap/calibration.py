"""Planar-checkerboard intrinsic calibration.

Per-view homographies (normalized DLT) seed a closed-form estimate of the
intrinsic matrix from the image of the absolute conic, per-view poses are
decomposed from the homographies, and a Levenberg-Marquardt refinement
over intrinsics, distortion, and poses minimizes total squared
reprojection error.

The refinement evaluates all views at once. The camera-frame corners of
every view are built once per evaluation and projected in one stacked
call; the central-difference Jacobian reuses them for its 18 intrinsic
steps, and steps each of the 6 pose coordinates of every view by + and -
in one more call per coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dlt import estimate_homography
from .camera import (
    INTRINSIC_FIELDS,
    CameraIntrinsics,
    LensParams,
    in_model_domain,
    project_many,
)
from .errors import (
    BehindCamera,
    DegenerateConfiguration,
    DivergedRefinement,
    InsufficientViews,
    OutOfModelRange,
    SingularIntrinsics,
    UnstableSolution,
)
from .geometry import Homography, Point2, Point3

LM_LAMBDA0 = 1e-3
LM_MAX_ITER = 200
LM_COST_TOL = 1e-12
LM_GRAD_TOL = 1e-10
LM_MAX_REJECTIONS = 10

_FD_STEP = 6.0554544523933395e-06  # cbrt(double eps)
_N_INTR = len(INTRINSIC_FIELDS)


@dataclass(frozen=True)
class BoardSpec:
    """Checkerboard interior-corner layout: cols x rows corners, square
    edge length in meters."""

    cols: int
    rows: int
    square_size: float

    def __post_init__(self):
        if self.cols < 3 or self.rows < 3:
            raise ValueError("board must have at least 3x3 interior corners")
        if not self.square_size > 0:
            raise ValueError("square size must be positive")

    @property
    def corner_count(self) -> int:
        return self.cols * self.rows


@dataclass(frozen=True)
class CalibrationView:
    """Detected corner pixel coordinates for one photo, row-major over the
    board (same order as :func:`board_object_points`)."""

    image_points: tuple[Point2, ...]

    def __post_init__(self):
        pts = tuple(Point2(float(p[0]), float(p[1])) for p in self.image_points)
        if not all(np.isfinite(p.x) and np.isfinite(p.y) for p in pts):
            raise ValueError("corner coordinates must be finite")
        object.__setattr__(self, "image_points", pts)

    def as_array(self) -> np.ndarray:
        return np.array(self.image_points, dtype=np.float64)


@dataclass(frozen=True)
class CalibrationResult:
    intrinsics: CameraIntrinsics
    per_view_poses: tuple[tuple[np.ndarray, np.ndarray], ...]
    mean_reprojection_error: float
    per_view_errors: tuple[float, ...]


def board_object_points(b: BoardSpec) -> list[Point3]:
    """Board-frame corner coordinates, row-major, on the z = 0 plane."""
    return [
        Point3(j * b.square_size, i * b.square_size, 0.0)
        for i in range(b.rows)
        for j in range(b.cols)
    ]


def estimate_view_homography(
    obj_points: list[Point3], view: CalibrationView
) -> Homography:
    """Homography taking board-plane (x, y) to image pixels for one view."""
    obj = np.array([(p.x, p.y) for p in obj_points], dtype=np.float64)
    img = view.as_array()
    if obj.shape[0] != img.shape[0]:
        raise ValueError(
            f"view has {img.shape[0]} corners, board defines {obj.shape[0]}"
        )
    return estimate_homography(obj, img)


def zhang_init(
    homographies: list[Homography], image_size: tuple[int, int]
) -> CameraIntrinsics:
    """Closed-form intrinsics from per-view homographies.

    Builds the two linear constraints per view on the image of the
    absolute conic, with skew constrained to zero, and extracts focal
    lengths and principal point. Distortion starts at zero.
    """
    if len(homographies) < 3:
        raise InsufficientViews(f"need at least 3 views, got {len(homographies)}")
    h = np.stack([hom.h for hom in homographies])  # (V, 3, 3)

    def v_row(i: int, j: int) -> np.ndarray:
        # Each view's constraint vector for B with the B12 entry dropped
        # (zero skew): components multiply [B11, B22, B13, B23, B33].
        return np.stack([
            h[:, 0, i] * h[:, 0, j],
            h[:, 1, i] * h[:, 1, j],
            h[:, 2, i] * h[:, 0, j] + h[:, 0, i] * h[:, 2, j],
            h[:, 2, i] * h[:, 1, j] + h[:, 1, i] * h[:, 2, j],
            h[:, 2, i] * h[:, 2, j],
        ], axis=1)

    # Two rows per view, in view order: v01, then v00 - v11.
    a = np.stack([v_row(0, 1), v_row(0, 0) - v_row(1, 1)], axis=1).reshape(-1, 5)

    _, _, vt = np.linalg.svd(a)
    b = vt[-1]
    if b[0] < 0:
        b = -b
    b11, b22, b13, b23, b33 = b
    if b11 <= 0 or b22 <= 0:
        raise UnstableSolution("conic image is not positive definite")
    cx = -b13 / b11
    cy = -b23 / b22
    lam = b33 - (b13 * b13 / b11 + b23 * b23 / b22)
    fx2 = lam / b11
    fy2 = lam / b22
    if fx2 <= 0 or fy2 <= 0:
        raise UnstableSolution(
            f"extracted squared focal lengths non-positive ({fx2:g}, {fy2:g})"
        )
    width, height = image_size
    try:
        return CameraIntrinsics(
            fx=float(np.sqrt(fx2)), fy=float(np.sqrt(fy2)), cx=float(cx), cy=float(cy),
            image_width=width, image_height=height,
        )
    except ValueError as exc:
        raise UnstableSolution(f"extracted intrinsics invalid: {exc}") from exc


def decompose_extrinsics(
    h: Homography, i: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Board pose (R, t) from a board-to-image homography and intrinsics.

    The sign is fixed so the board sits in front of the camera (t_z > 0)
    and the rotation is re-orthonormalized by SVD projection.
    """
    k = i.k_matrix
    det = np.linalg.det(k)
    if abs(det) < 1e-12:
        raise SingularIntrinsics("intrinsic matrix is singular")
    a = np.linalg.inv(k) @ h.h
    norm1 = np.linalg.norm(a[:, 0])
    if norm1 < 1e-15:
        raise DegenerateConfiguration("homography first column vanishes under K^-1")
    lam = 1.0 / norm1
    if lam * a[2, 2] < 0:
        lam = -lam
    r1 = lam * a[:, 0]
    r2 = lam * a[:, 1]
    r3 = np.cross(r1, r2)
    t = lam * a[:, 2]
    r0 = np.column_stack([r1, r2, r3])
    u, _, vt = np.linalg.svd(r0)
    r = u @ np.diag([1.0, 1.0, np.linalg.det(u @ vt)]) @ vt
    return r, t


def rotation_to_axis_angle(r: np.ndarray) -> np.ndarray:
    """Axis-angle vector (axis * angle) for a rotation matrix."""
    cos_theta = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    if theta < 1e-12:
        return np.zeros(3)
    if np.pi - theta < 1e-6:
        # Near pi the skew part vanishes; recover the axis from R + I.
        m = (r + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diag(m), 0.0))
        # Fix signs from the off-diagonal products.
        k = int(np.argmax(axis))
        for idx in range(3):
            if idx != k and m[k, idx] < 0:
                axis[idx] = -axis[idx]
        axis /= np.linalg.norm(axis)
        return axis * theta
    axis = (
        np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
        / (2.0 * np.sin(theta))
    )
    return axis * theta


def axis_angle_to_rotation(aa: np.ndarray) -> np.ndarray:
    """Rotation matrix for an axis-angle vector (Rodrigues)."""
    theta = np.linalg.norm(aa)
    if theta < 1e-12:
        k = np.array(
            [[0.0, -aa[2], aa[1]], [aa[2], 0.0, -aa[0]], [-aa[1], aa[0], 0.0]]
        )
        return np.eye(3) + k  # first-order map near identity
    axis = aa / theta
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


class _ReprojectionProblem:
    """Residuals and finite-difference Jacobian for the refinement.

    Parameter vector: the 9 intrinsics in INTRINSIC_FIELDS order, then 6
    per view (axis-angle, translation). Residuals are the per-corner pixel
    differences, observed minus projected, flattened view-major.

    Each evaluation projects stacked arrays: the camera-frame corners of
    all views, or of all perturbed views, go through one `project_many`
    call. Every step is elementwise on the same operands as a per-view
    projection, so the bits are the same.
    """

    def __init__(self, obj_points: np.ndarray, observed: np.ndarray):
        self.obj = obj_points            # (N, 3)
        self.observed = observed         # (V, N, 2)
        self.n_views = observed.shape[0]
        self.n_points = obj_points.shape[0]

    def _rotated_board(self, rvecs: np.ndarray) -> np.ndarray:
        """(..., N, 3) board corners rotated by each of the (..., 3)
        axis-angle vectors: one Rodrigues and one 2-D product per vector."""
        turned = [self.obj @ axis_angle_to_rotation(a).T for a in rvecs.reshape(-1, 3)]
        return np.stack(turned).reshape(rvecs.shape[:-1] + self.obj.shape)

    def residuals(self, params: np.ndarray) -> np.ndarray:
        """Full residual vector, or None if a trial point leaves the model
        domain (treated by LM as a rejected step)."""
        poses = params[_N_INTR:].reshape(self.n_views, 6)
        cam = self._rotated_board(poses[:, :3]) + poses[:, None, 3:]
        try:
            proj = project_many(LensParams(*params[:_N_INTR]), cam.reshape(-1, 3))
        except (BehindCamera, OutOfModelRange):
            return None
        return (self.observed - proj.reshape(self.observed.shape)).ravel()

    def jacobian(self, params: np.ndarray) -> np.ndarray:
        """Central-difference Jacobian at parameters whose residual exists,
        exploiting the block structure: intrinsic columns touch every
        residual, pose columns only their own view's block.

        The model's domain depends only on the camera-frame points, which
        the intrinsics do not move, so every intrinsic step stays inside
        it. Each pose coordinate is stepped in every view at once, and a
        view whose + or - step leaves the domain keeps a zero column.
        """
        n_views, n_points = self.n_views, self.n_points
        block = n_points * 2
        jac = np.zeros((n_views * block, params.size))
        steps = _FD_STEP * np.maximum(np.abs(params), 1.0)
        poses = params[_N_INTR:].reshape(n_views, 6)
        rotated = self._rotated_board(poses[:, :3])
        cam = (rotated + poses[:, None, 3:]).reshape(-1, 3)
        observed = self.observed.ravel()

        for j in range(_N_INTR):
            h = steps[j]
            lp = params[:_N_INTR].copy(); lp[j] += h
            lm = params[:_N_INTR].copy(); lm[j] -= h
            rp = observed - project_many(LensParams(*lp), cam).ravel()
            rm = observed - project_many(LensParams(*lm), cam).ravel()
            jac[:, j] = (rp - rm) / (2.0 * h)

        # Pose coordinate j of every view, + then -. Translation steps
        # move the view's rotated board; only rotation steps turn it again.
        lens = LensParams(*params[:_N_INTR])
        views = np.arange(n_views)
        blocks = jac.reshape(n_views, block, -1)
        for j in range(6):
            h = steps[_N_INTR + j::6]
            pert = np.stack([poses, poses], axis=1)  # (V, 2, 6)
            pert[:, 0, j] += h
            pert[:, 1, j] -= h
            board = self._rotated_board(pert[..., :3]) if j < 3 else rotated[:, None]
            cam = board + pert[..., None, 3:]
            ok = in_model_domain(cam).all(axis=(1, 2))
            proj = project_many(lens, cam[ok].reshape(-1, 3)).reshape(-1, 2, block)
            # d(residual)/dp = -d(projection)/dp
            col = np.zeros((n_views, block))
            col[ok] = (proj[:, 1] - proj[:, 0]) / (2.0 * h[ok])[:, None]
            blocks[views, :, _N_INTR + 6 * views + j] = col
        return jac


def _levenberg_marquardt(problem: _ReprojectionProblem, params0: np.ndarray):
    """Minimize the squared residuals from params0 (Moré 1978); returns the
    last accepted parameters and their residual vector. A singular solve or
    a trial outside the model domain is a rejected trial."""
    params = params0.copy()
    residual = problem.residuals(params)
    if residual is None:
        raise DegenerateConfiguration("seed poses leave the camera model domain")
    cost = float(residual @ residual)
    lam = LM_LAMBDA0

    for _ in range(LM_MAX_ITER):
        jac = problem.jacobian(params)
        grad = jac.T @ residual
        if np.max(np.abs(grad)) < LM_GRAD_TOL:
            break
        jtj = jac.T @ jac
        diag = np.maximum(np.diag(jtj), 1e-12)
        rejections, last_trial_cost = 0, np.inf
        while True:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                trial_residual = None
            else:
                trial = params + delta
                trial_residual = problem.residuals(trial)
            trial_cost = np.inf
            if trial_residual is not None:
                trial_cost = float(trial_residual @ trial_residual)
            if trial_cost <= cost:
                break
            rejections = rejections + 1 if trial_cost >= last_trial_cost else 1
            last_trial_cost = trial_cost
            if rejections >= LM_MAX_REJECTIONS:
                raise DivergedRefinement(
                    f"cost non-decreasing through {LM_MAX_REJECTIONS} "
                    f"consecutive damping escalations (cost {cost:g})"
                )
            lam *= 10.0
        lam = max(lam / 10.0, 1e-15)
        params, residual = trial, trial_residual
        prev_cost, cost = cost, trial_cost
        if prev_cost > 0 and abs(prev_cost - cost) / prev_cost < LM_COST_TOL:
            break
        if cost == 0.0:
            break
    return params, residual


def refine(
    b: BoardSpec,
    views: list[CalibrationView],
    seed_intrinsics: CameraIntrinsics,
    seed_poses: list[tuple[np.ndarray, np.ndarray]],
) -> CalibrationResult:
    """Jointly refine intrinsics, distortion, and per-view poses by LM.

    Never reports a cost above the seed's: steps are only accepted when
    they reduce total squared reprojection error.
    """
    if len(views) != len(seed_poses):
        raise ValueError("one seed pose required per view")
    obj = np.array([(p.x, p.y, p.z) for p in board_object_points(b)])
    observed = np.stack([v.as_array() for v in views])
    if observed.shape[1] != b.corner_count:
        raise ValueError("view corner count does not match board")
    image_size = (seed_intrinsics.image_width, seed_intrinsics.image_height)

    params0 = np.concatenate(
        [np.array([getattr(seed_intrinsics, name) for name in INTRINSIC_FIELDS])]
        + [
            np.concatenate([rotation_to_axis_angle(r), np.asarray(t, dtype=float)])
            for r, t in seed_poses
        ]
    )

    problem = _ReprojectionProblem(obj, observed)
    params, residual = _levenberg_marquardt(problem, params0)

    try:
        intrinsics = CameraIntrinsics(
            **{name: float(x) for name, x in zip(INTRINSIC_FIELDS, params)},
            image_width=image_size[0], image_height=image_size[1],
        )
    except ValueError as exc:
        raise UnstableSolution(f"refined intrinsics invalid: {exc}") from exc
    poses = []
    residual = residual.reshape(observed.shape)
    per_view_errors = []
    for v in range(len(views)):
        pose = params[_N_INTR + 6 * v: _N_INTR + 6 + 6 * v]
        poses.append((axis_angle_to_rotation(pose[:3]), pose[3:].copy()))
        per_view_errors.append(float(np.linalg.norm(residual[v], axis=1).mean()))
    mean_error = float(np.linalg.norm(residual.reshape(-1, 2), axis=1).mean())
    return CalibrationResult(
        intrinsics=intrinsics,
        per_view_poses=tuple(poses),
        mean_reprojection_error=mean_error,
        per_view_errors=tuple(per_view_errors),
    )


def calibrate(
    b: BoardSpec, views: list[CalibrationView], image_size: tuple[int, int]
) -> CalibrationResult:
    """Full calibration chain: per-view homographies, closed-form seed,
    pose decomposition, LM refinement."""
    obj_points = board_object_points(b)
    homographies = [estimate_view_homography(obj_points, v) for v in views]
    seed = zhang_init(homographies, image_size)
    poses = [decompose_extrinsics(h, seed) for h in homographies]
    return refine(b, views, seed, poses)
