"""Projective georectification: fit an image-to-world plane map from
ground control points, inverse-warp the photo onto a world-aligned grid
with cubic-convolution resampling, and report per-axis RMSEs.

The RMSE here is the rooted form sqrt(sum(d^2)/n). The two-axis metric is
computed against the GCP world coordinates from the fitted map's forward
predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._dlt import estimate_homography
from .errors import EmptyGcpSet, InsufficientGcps
from .geometry import (
    GridGeometry,
    Homography,
    Point2,
    Point3,
    apply_homography,
    apply_homography_many,
    invert_homography,
)
from .stereo import RgbaImage

DEFAULT_RECTIFY_CELL_SIZE = 0.05

# Keys cubic-convolution parameter; the common geospatial resampling choice.
CUBIC_A = -0.5


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
    residuals = []
    for g in obs:
        mapped = apply_homography(h, g.image)
        residuals.append((g.id, mapped.x - g.world.x, mapped.y - g.world.y))
    dx = np.array([r[1] for r in residuals])
    dy = np.array([r[2] for r in residuals])
    n = len(residuals)
    return RmseReport(
        rmse_x=float(np.sqrt((dx * dx).sum() / n)),
        rmse_y=float(np.sqrt((dy * dy).sum() / n)),
        per_point_residuals=tuple(residuals),
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


def bicubic_sample(img: RgbaImage, x: float, y: float):
    """Sample one position; returns an (r, g, b, a) tuple or None when the
    4x4 support leaves the image (NODATA)."""
    out, inside = bicubic_sample_many(img, np.array([x]), np.array([y]))
    if not inside[0]:
        return None
    return tuple(int(v) for v in out[0])


def warp_to_grid(
    img: RgbaImage, h: Homography, geom: GridGeometry
) -> RectifiedRaster:
    """Inverse-map each grid cell center through h^-1 into the source
    photo and resample. h maps image pixels to world coordinates; cells
    outside the source footprint get alpha 0.
    """
    xs, ys = geom.cell_centers()
    gx, gy = np.meshgrid(xs, ys)
    uv = apply_homography_many(
        invert_homography(h), np.column_stack([gx.ravel(), gy.ravel()])
    )
    samples, _ = bicubic_sample_many(img, uv[:, 0], uv[:, 1])
    return RectifiedRaster(
        geometry=geom, bands=samples.reshape(geom.n_rows, geom.n_cols, 4)
    )
