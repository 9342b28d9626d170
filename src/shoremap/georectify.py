"""Projective georectification: fit an image-to-world plane map from
ground control points, inverse-map each cell of a world-aligned grid
(through the lens model, if given) into the photo and resample it there
once with cubic convolution, and report per-axis RMSEs.

The RMSE here is the rooted form sqrt(sum(d^2)/n). The two-axis metric is
computed against the GCP world coordinates from the fitted map's forward
predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._dlt import estimate_homography
from .camera import CameraIntrinsics, distort_pixels
from .errors import DegenerateProjection, EmptyGcpSet, InsufficientGcps
from .geometry import (
    GridGeometry,
    Homography,
    Point2,
    Point3,
    apply_homography_many,
    invert_homography,
)
from .stereo import RgbaImage

DEFAULT_RECTIFY_CELL_SIZE = 0.05

# Keys cubic-convolution parameter; the common geospatial resampling choice.
CUBIC_A = -0.5

# Grid cells per warp block: its temporaries, about 330 bytes a cell,
# stay near 20 MB whatever the grid size.
_WARP_CELLS = 2**16


@dataclass(frozen=True)
class Gcp:
    """Surveyed ground control point, optionally observed in the photo."""

    id: str
    world: Point3
    image: Optional[Point2] = None

    def __post_init__(self):
        w = Point3(*map(float, self.world))
        if not all(np.isfinite(c) for c in w):
            raise ValueError(f"gcp {self.id}: world coordinates must be finite")
        object.__setattr__(self, "world", w)
        if self.image is not None:
            im = Point2(*map(float, self.image))
            if not all(np.isfinite(c) for c in im):
                raise ValueError(f"gcp {self.id}: image coordinates must be finite")
            object.__setattr__(self, "image", im)


@dataclass(frozen=True)
class RectifiedRaster:
    """World-aligned RGBA raster; alpha 0 marks cells outside the source
    image's footprint."""

    geometry: GridGeometry
    bands: np.ndarray  # (n_rows, n_cols, 4) uint8

    def __post_init__(self):
        b = np.asarray(self.bands, dtype=np.uint8)
        if b.shape != (self.geometry.n_rows, self.geometry.n_cols, 4):
            raise ValueError("band array does not match grid geometry")
        b = np.ascontiguousarray(b)
        b.flags.writeable = False
        object.__setattr__(self, "bands", b)


@dataclass(frozen=True)
class RmseReport:
    rmse_x: float
    rmse_y: float
    per_point_residuals: tuple[tuple[str, float, float], ...]

    @property
    def n(self) -> int:
        return len(self.per_point_residuals)


def _observed_gcps(gcps: list[Gcp]) -> list[Gcp]:
    return [g for g in gcps if g.image is not None]


def fit_ground_homography(gcps: list[Gcp]) -> Homography:
    """Least-squares projective map from image pixels to world planimetric
    coordinates, over every GCP carrying an image observation."""
    obs = _observed_gcps(gcps)
    if len(obs) < 4:
        raise InsufficientGcps(
            f"need at least 4 GCPs with image observations, got {len(obs)}"
        )
    src = np.array([(g.image.x, g.image.y) for g in obs])
    dst = np.array([(g.world.x, g.world.y) for g in obs])
    return estimate_homography(src, dst)


def rmse_xy(h: Homography, gcps: list[Gcp]) -> RmseReport:
    """Per-axis rooted RMSE of mapped image observations against surveyed
    world coordinates."""
    obs = _observed_gcps(gcps)
    if not obs:
        raise EmptyGcpSet("no GCPs with image observations")
    mapped = apply_homography_many(h, np.array([g.image for g in obs]))
    at_infinity = np.isnan(mapped[:, 0])
    if at_infinity.any():
        bad = obs[int(np.argmax(at_infinity))]
        raise DegenerateProjection(f"gcp {bad.id}: point {bad.image} maps to infinity")
    d = mapped - np.array([(g.world.x, g.world.y) for g in obs])
    dx, dy = d[:, 0], d[:, 1]
    n = len(obs)
    return RmseReport(
        rmse_x=float(np.sqrt((dx * dx).sum() / n)),
        rmse_y=float(np.sqrt((dy * dy).sum() / n)),
        per_point_residuals=tuple(
            (g.id, float(ex), float(ey)) for g, ex, ey in zip(obs, dx, dy)
        ),
    )


def _cubic_weights(t: np.ndarray) -> np.ndarray:
    """Keys kernel weights for the 4 taps at offsets -1-f, -f, 1-f, 2-f."""
    a = CUBIC_A
    # t: fractional parts in [0, 1), shape (n,). Tap distances:
    d = np.stack([1.0 + t, t, 1.0 - t, 2.0 - t], axis=-1)
    ad = np.abs(d)
    w_near = (a + 2.0) * ad**3 - (a + 3.0) * ad**2 + 1.0
    w_far = a * ad**3 - 5.0 * a * ad**2 + 8.0 * a * ad - 4.0 * a
    return np.where(ad <= 1.0, w_near, w_far)


def bicubic_sample_many(img: RgbaImage, x: np.ndarray, y: np.ndarray):
    """Cubic-convolution sampling at fractional pixel positions.

    Returns (samples (n, 4) uint8, inside (n,) bool). Positions whose 4x4
    support is not fully inside the image are flagged outside (NODATA).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    h, w = img.height, img.width
    finite = np.isfinite(x) & np.isfinite(y)
    x0 = np.floor(np.where(finite, x, 0.0)).astype(np.int64)
    y0 = np.floor(np.where(finite, y, 0.0)).astype(np.int64)
    inside = finite & (x0 - 1 >= 0) & (x0 + 2 <= w - 1) & (y0 - 1 >= 0) & (y0 + 2 <= h - 1)
    xs = np.where(inside, x0, 1)
    ys = np.where(inside, y0, 1)
    fx = np.where(inside, x, 1.0) - xs
    fy = np.where(inside, y, 1.0) - ys
    wx = _cubic_weights(fx)  # (n, 4)
    wy = _cubic_weights(fy)
    # Taps are gathered as uint8; the weighted sums promote them to float64.
    px = img.pixels
    acc = np.zeros((x.shape[0], 4))
    for j in range(4):
        row = np.zeros((x.shape[0], 4))
        for i in range(4):
            row += wx[:, i, None] * px[ys + j - 1, xs + i - 1]
        acc += wy[:, j, None] * row
    out = np.clip(np.rint(acc), 0, 255).astype(np.uint8)
    out[~inside] = 0
    return out, inside


def bicubic_sample(img: RgbaImage, x: float, y: float):
    """Sample one position; returns an (r, g, b, a) tuple or None when the
    4x4 support leaves the image (NODATA)."""
    out, inside = bicubic_sample_many(img, np.array([x]), np.array([y]))
    if not inside[0]:
        return None
    return tuple(int(v) for v in out[0])


def warp_to_grid(img: RgbaImage, h: Homography, geom: GridGeometry,
                 lens: Optional[CameraIntrinsics] = None) -> RectifiedRaster:
    """Inverse-map each grid cell center through h^-1 to an (undistorted)
    pixel and, given a lens, through its distortion model to a raw-photo
    pixel; sample the photo there once. Cells outside the source footprint
    or the modeled disk (r^2 > R2_MAX) get alpha 0. Rows go in blocks of
    about _WARP_CELLS cells, so memory beyond the output stays bounded.
    """
    xs, ys = geom.cell_centers()
    h_inv = invert_homography(h)
    bands = np.empty((geom.n_rows, geom.n_cols, 4), dtype=np.uint8)
    step = max(1, _WARP_CELLS // geom.n_cols)
    for r0 in range(0, geom.n_rows, step):
        gx, gy = np.meshgrid(xs, ys[r0:r0 + step])
        uv = apply_homography_many(h_inv, np.column_stack([gx.ravel(), gy.ravel()]))
        u, v = uv[:, 0], uv[:, 1]
        if lens is not None:
            u, v = distort_pixels(lens, u, v)
        samples, _ = bicubic_sample_many(img, u, v)
        bands[r0:r0 + step] = samples.reshape(-1, geom.n_cols, 4)
    return RectifiedRaster(geometry=geom, bands=bands)
