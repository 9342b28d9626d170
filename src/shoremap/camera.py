"""Pinhole camera with polynomial radial/tangential lens distortion, plus
stereo depth conversion for a rectified pair with known baseline.

The one owner of the lens model (field order, pixel <-> normalized maps,
distortion, domain limits, projection, undistortion) for calibration, GCP
undistortion and the rectification warp; stereo back-projection is pinhole.
Distortion convention (applied to normalized image-plane coordinates):

    x_d = x*(1 + k1*r^2 + k2*r^4 + k3*r^6) + 2*p1*x*y + p2*(r^2 + 2*x^2)
    y_d = y*(1 + k1*r^2 + k2*r^4 + k3*r^6) + p1*(r^2 + 2*y^2) + 2*p2*x*y

with r^2 = x^2 + y^2. The polynomial is only trusted on the r^2 <= 4
disk. Projection raises OutOfModelRange outside it rather than return a
silently diverged value; distort_pixels returns NaN there, which the
rectification warp turns into NODATA cells.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import BehindCamera, NonPositiveDisparity, OutOfModelRange

R2_MAX = 4.0
MIN_DEPTH = 1e-9
UNDISTORT_TOL = 1e-10
UNDISTORT_MAX_ITER = 50

# Order of the intrinsics in the calibration parameter vector and file.
INTRINSIC_FIELDS = ("fx", "fy", "cx", "cy", "k1", "k2", "k3", "p1", "p2")
# The lens kernels read the fields by name, so they also take these
# unvalidated values: a wild LM trial step must fail as a domain error.
LensParams = namedtuple("LensParams", INTRINSIC_FIELDS)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Focal lengths, principal point (pixels), distortion coefficients
    (unitless, normalized coordinates), and sensor size."""

    fx: float
    fy: float
    cx: float
    cy: float
    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0
    p1: float = 0.0
    p2: float = 0.0
    image_width: int = 1920
    image_height: int = 1080

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image dimensions must be positive")
        if not (0 <= self.cx < self.image_width and 0 <= self.cy < self.image_height):
            raise ValueError("principal point must lie inside the image")
        for name in INTRINSIC_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def k_matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


@dataclass(frozen=True)
class StereoRig:
    """Rectified stereo pair sharing one set of intrinsics, pinhole for `depth`."""

    intrinsics: CameraIntrinsics
    baseline: float

    def __post_init__(self):
        if not (math.isfinite(self.baseline) and self.baseline > 0):
            raise ValueError("baseline must be positive")


def pixels_to_normalized(i: CameraIntrinsics, u, v):
    """Pixel coordinates to normalized image-plane coordinates."""
    return (u - i.cx) / i.fx, (v - i.cy) / i.fy


def normalized_to_pixels(i: CameraIntrinsics, x, y):
    """Normalized image-plane coordinates to pixel coordinates."""
    return i.fx * x + i.cx, i.fy * y + i.cy


def _distort_xy(i: CameraIntrinsics, x, y):
    """Distortion polynomial on arrays or scalars, no domain check."""
    r2 = x * x + y * y
    radial = 1.0 + r2 * (i.k1 + r2 * (i.k2 + r2 * i.k3))
    x_d = x * radial + 2.0 * i.p1 * x * y + i.p2 * (r2 + 2.0 * x * x)
    y_d = y * radial + i.p1 * (r2 + 2.0 * y * y) + 2.0 * i.p2 * x * y
    return x_d, y_d


def distort_pixels(i: CameraIntrinsics, u: np.ndarray, v: np.ndarray):
    """Map undistorted pixel arrays to raw-photo pixels. Points outside
    the modeled disk (r^2 > R2_MAX) come back as NaN instead of raising."""
    x, y = pixels_to_normalized(i, u, v)
    u_d, v_d = normalized_to_pixels(i, *_distort_xy(i, x, y))
    outside = x * x + y * y > R2_MAX
    return np.where(outside, np.nan, u_d), np.where(outside, np.nan, v_d)


def undistort_arrays(i: CameraIntrinsics, x_d: np.ndarray, y_d: np.ndarray):
    """Vectorized inverse of the distortion model by damped fixed-point
    iteration.

    Returns (x, y, converged) where converged is a boolean mask. Seeds at
    the distorted coordinates and iterates toward
    x <- (x_d - tangential_x) / radial. Near the rim of the modeled disk
    the bare map oscillates (its multiplier goes below -1 sooner than the
    radial polynomial grows), so elements whose residual stops contracting
    get their step damped by halves. Converged means the undamped residual
    dropped below 1e-10 within 50 iterations.
    """
    x = np.array(x_d, dtype=np.float64)
    y = np.array(y_d, dtype=np.float64)
    x_d = np.asarray(x_d, dtype=np.float64)
    y_d = np.asarray(y_d, dtype=np.float64)
    done = np.zeros(x.shape, dtype=bool)
    alpha = np.ones(x.shape)
    prev_rx = np.zeros(x.shape)
    prev_ry = np.zeros(x.shape)
    for iteration in range(UNDISTORT_MAX_ITER):
        r2 = x * x + y * y
        radial = 1.0 + r2 * (i.k1 + r2 * (i.k2 + r2 * i.k3))
        tan_x = 2.0 * i.p1 * x * y + i.p2 * (r2 + 2.0 * x * x)
        tan_y = i.p1 * (r2 + 2.0 * y * y) + 2.0 * i.p2 * x * y
        with np.errstate(divide="ignore", invalid="ignore"):
            res_x = (x_d - tan_x) / radial - x
            res_y = (y_d - tan_y) / radial - y
        bad = (np.abs(radial) < 1e-12) | ~np.isfinite(res_x) | ~np.isfinite(res_y)
        res_x = np.where(bad, 0.0, res_x)
        res_y = np.where(bad, 0.0, res_y)
        res = np.hypot(res_x, res_y)
        # Freeze elements at first convergence so the result of solving a
        # whole grid matches per-point calls bit for bit.
        done |= (res < UNDISTORT_TOL) & ~bad
        if done.all():
            break
        if iteration > 0:
            # Secant estimate of the fixed-point multiplier: near the rim
            # of the modeled disk it drops toward -1 and the bare map
            # oscillates, so step with the alpha that cancels it.
            denom = prev_rx * prev_rx + prev_ry * prev_ry
            safe = denom > 0
            m_prev = np.where(
                safe,
                (res_x * prev_rx + res_y * prev_ry) / np.where(safe, denom, 1.0),
                0.0,
            )
            g_est = (m_prev - (1.0 - alpha)) / alpha
            with np.errstate(divide="ignore", invalid="ignore"):
                alpha_new = 1.0 / (1.0 - g_est)
            alpha_new = np.where(np.isfinite(alpha_new), alpha_new, 0.1)
            alpha = np.clip(alpha_new, 0.1, 1.0)
        step = np.where(done, 0.0, alpha)
        x = x + step * res_x
        y = y + step * res_y
        prev_rx, prev_ry = res_x, res_y
    return x, y, done


def _normalize(pts: np.ndarray):
    """Camera-frame points (..., 3) to normalized coordinates (x_n, y_n),
    with the two ways a point leaves the model's domain: `behind`
    (z <= MIN_DEPTH) and `outside` (r^2 > R2_MAX). A point behind the
    camera is divided by 1 instead of its depth, so no division by a bad
    depth happens; its x_n, y_n and `outside` mean nothing."""
    z = pts[..., 2]
    behind = z <= MIN_DEPTH
    z = np.where(behind, 1.0, z)
    x_n = pts[..., 0] / z
    y_n = pts[..., 1] / z
    return x_n, y_n, behind, x_n * x_n + y_n * y_n > R2_MAX


def in_model_domain(pts: np.ndarray) -> np.ndarray:
    """Mask over (..., 3) camera-frame points: True where
    :func:`project_many` would project the point rather than raise."""
    _, _, behind, outside = _normalize(np.asarray(pts, dtype=np.float64))
    return ~(behind | outside)


def project_many(i: CameraIntrinsics, pts: np.ndarray) -> np.ndarray:
    """Project an (n, 3) array of camera-frame points to (n, 2) pixels.

    Raises BehindCamera when a point is not in front of the camera
    (z <= MIN_DEPTH) and OutOfModelRange when one falls outside the
    modeled disk.
    """
    x_n, y_n, behind, outside = _normalize(np.asarray(pts, dtype=np.float64))
    if behind.any():
        raise BehindCamera("a point is not in front of the camera")
    if outside.any():
        raise OutOfModelRange("a point falls outside the modeled disk")
    return np.column_stack(normalized_to_pixels(i, *_distort_xy(i, x_n, y_n)))


def disparity_to_depth(r: StereoRig, d) -> np.ndarray:
    """Depth along the optical axis from disparities, Z = fx * B / d.

    Raises NonPositiveDisparity when any disparity is zero or negative.
    """
    d = np.asarray(d, dtype=np.float64)
    if (d <= 0).any():
        raise NonPositiveDisparity(
            f"{np.count_nonzero(d <= 0)} of {d.size} disparities are not positive"
        )
    return r.intrinsics.fx * r.baseline / d


def pixels_depth_to_points(
    i: CameraIntrinsics, u: np.ndarray, v: np.ndarray, z: np.ndarray
):
    """Pinhole back-projection of pixels at depths z to (n, 3) points."""
    u, v, z = (np.asarray(a, dtype=np.float64) for a in (u, v, z))
    x_n, y_n = pixels_to_normalized(i, u, v)
    return np.stack([x_n * z, y_n * z, z], axis=-1)
