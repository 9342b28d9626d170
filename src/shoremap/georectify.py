"""Projective georectification: fit an image-to-world plane map from
ground control points, inverse-map each cell of a world-aligned grid
(through the lens model, if given) into the photo and resample it there
once with cubic convolution, and report per-axis RMSEs. The rectified
photo is an RgbaImage laid out on the grid, one pixel per cell, with
alpha 0 at NODATA cells.

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

# Keys cubic-convolution parameter; the common geospatial resampling choice.
CUBIC_A = -0.5

# Grid cells per warp block. Its temporaries peak at about 275 bytes a
# cell (tracemalloc, 725-column grid), about 4.4 MB whatever the grid
# size; the sampler's three (4, n) float64 sums, 96 bytes a cell, stay
# in a 2 MB per-core L2 cache.
_WARP_CELLS = 2**14


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
    """Keys kernel weights for the 4 taps at offsets -1-f, -f, 1-f, 2-f,
    for fractional parts t in [0, 1), shape (n,); returns (n, 4), a view
    of a contiguous (4, n) array.

    Taps 1 and 2 lie within distance 1 and take the near branch, taps 0
    and 3 at distance 1 or more take the far one. At distance exactly 1
    both branches give +0.0, so this is the two-branch kernel bit for bit.
    """
    a = CUBIC_A
    ad = np.stack([t, 1.0 - t])
    w_near = (a + 2.0) * ad**3 - (a + 3.0) * ad**2 + 1.0
    ad = np.stack([1.0 + t, 2.0 - t])
    w_far = a * ad**3 - 5.0 * a * ad**2 + 8.0 * a * ad - 4.0 * a
    return np.stack([w_far[0], w_near[0], w_near[1], w_far[1]]).T


def bicubic_sample_many(img: RgbaImage, x: np.ndarray, y: np.ndarray):
    """Cubic-convolution sampling at fractional pixel positions.

    Returns (samples (n, 4) uint8, inside (n,) bool). Positions whose 4x4
    support is not fully inside the image (NaN, infinite and huge ones
    included) are flagged outside and come back 0 (NODATA).

    Each tap reads the whole RGBA pixel as one uint32 and the weighted
    sums run channel-major, (4, n), in float64:
    row_j = wx0*p0 + wx1*p1 + wx2*p2 + wx3*p3, then sum_j wy_j*row_j,
    rounded half to even and clipped to [0, 255].
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    h, w = img.height, img.width
    # floor(x) in [1, w - 3] is 1 <= x < w - 2; comparing the floats
    # leaves NaN, infinite and huge positions outside with no int64 cast.
    inside = (x >= 1.0) & (x < w - 2) & (y >= 1.0) & (y < h - 2)
    out = np.zeros((x.shape[0], 4), dtype=np.uint8)
    xi, yi = x[inside], y[inside]
    x0, y0 = np.floor(xi), np.floor(yi)
    wx = _cubic_weights(xi - x0).T  # (4, m), contiguous rows
    wy = _cubic_weights(yi - y0).T
    base = (y0.astype(np.int64) - 1) * w + (x0.astype(np.int64) - 1)
    px = img.pixels.reshape(-1).view(np.uint32)
    m = base.shape[0]
    acc, row, prod = np.empty((4, m)), np.empty((4, m)), np.empty((4, m))
    # Each sum starts from its first product: 0 + p is p up to the sign
    # of a zero, which the uint8 conversion drops.
    for j in range(4):
        for i in range(4):
            tap = px.take(base + (j * w + i)).view(np.uint8).reshape(m, 4).T
            np.multiply(wx[i], tap, out=row if i == 0 else prod)
            if i:
                row += prod
        np.multiply(wy[j], row, out=acc if j == 0 else prod)
        if j:
            acc += prod
    out[inside] = np.clip(np.rint(acc, out=acc), 0, 255, out=acc).T
    return out, inside


def warp_to_grid(img: RgbaImage, h: Homography, geom: GridGeometry,
                 lens: Optional[CameraIntrinsics] = None) -> RgbaImage:
    """The rectified image, whose row r and column c are grid cell (r, c).
    Each cell center is inverse-mapped through h^-1 to an (undistorted)
    pixel and, given a lens, through its distortion model to a raw-photo
    pixel; the photo is sampled there once. Cells outside the source
    footprint or the modeled disk (r^2 > R2_MAX) are NODATA, alpha 0. Rows
    go in blocks of about _WARP_CELLS cells, so memory beyond the output
    stays bounded.
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
    return RgbaImage(bands)
