"""Shared geometric primitives: planar/spatial points, homographies,
similarity transforms, and raster grid placement.

All types are immutable values and all operations are pure, so everything
here is safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateProjection, GridTooLarge, SingularMatrix

PROJECTIVE_EPS = 1e-12
DETERMINANT_EPS = 1e-12

# Default cap on raster size (cells); guards accidental huge allocations.
DEFAULT_CELL_CAP = 100_000_000


class Point2(NamedTuple):
    """Planar point, pixels or meters depending on context."""

    x: float
    y: float


class Point3(NamedTuple):
    """Spatial point in meters (world or camera frame per context)."""

    x: float
    y: float
    z: float


def _as_matrix(h, shape) -> np.ndarray:
    m = np.asarray(h, dtype=np.float64)
    if m.shape != shape:
        raise ValueError(f"expected shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class Homography:
    """3x3 projective plane-to-plane map, row-major.

    Normalized so h[2,2] = 1 whenever that entry is usably nonzero;
    stored as given otherwise.
    """

    h: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.h, (3, 3))
        if np.linalg.det(m) == 0.0:
            raise SingularMatrix("homography determinant is zero")
        if abs(m[2, 2]) > PROJECTIVE_EPS:
            m = m / m[2, 2]
        m.flags.writeable = False
        object.__setattr__(self, "h", m)

    @staticmethod
    def identity() -> "Homography":
        return Homography(np.eye(3))

    @staticmethod
    def translation(tx: float, ty: float) -> "Homography":
        m = np.eye(3)
        m[0, 2] = tx
        m[1, 2] = ty
        return Homography(m)


@dataclass(frozen=True)
class SimilarityTransform:
    """Scaled rigid motion p -> scale * R @ p + translation."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive and finite")
        r = _as_matrix(self.rotation, (3, 3))
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(t)):
            raise ValueError("translation must be finite")
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-9:
            raise ValueError("rotation must be orthonormal within 1e-9")
        if np.linalg.det(r) < 0:
            raise ValueError("rotation must be proper (det +1)")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "SimilarityTransform":
        return SimilarityTransform(1.0, np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class GridGeometry:
    """Placement of a regular raster in world coordinates.

    ``(origin_x, origin_y)`` is the center of the upper-left (north-west)
    cell; row ``r``, column ``c`` has center
    ``(origin_x + c * cell_size, origin_y - r * cell_size)``.
    Rows therefore run north to south, matching the ESRI ASCII and world
    file conventions used by the exporters.
    """

    origin_x: float
    origin_y: float
    cell_size: float
    n_cols: int
    n_rows: int
    cell_cap: int = field(default=DEFAULT_CELL_CAP, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.cell_size) and self.cell_size > 0):
            raise ValueError("cell_size must be positive")
        if self.n_cols <= 0 or self.n_rows <= 0:
            raise ValueError("grid dimensions must be positive")
        if not (np.isfinite(self.origin_x) and np.isfinite(self.origin_y)):
            raise ValueError("grid origin must be finite")
        if self.n_cols * self.n_rows > self.cell_cap:
            raise GridTooLarge(
                f"grid of {self.n_cols}x{self.n_rows} cells exceeds cap {self.cell_cap}"
            )

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """World x of every column and world y of every row."""
        xs = self.origin_x + np.arange(self.n_cols) * self.cell_size
        ys = self.origin_y - np.arange(self.n_rows) * self.cell_size
        return xs, ys


def apply_homography(h: Homography, p: Point2) -> Point2:
    """Map a point through a homography: a one-row
    :func:`apply_homography_many`.

    Raises DegenerateProjection when the point lands on the line at
    infinity (projective denominator within 1e-12 of zero).
    """
    x, y = apply_homography_many(h, np.array([[p.x, p.y]]))[0]
    if np.isnan(x):
        raise DegenerateProjection(f"point {p} maps to infinity")
    return Point2(float(x), float(y))


def apply_homography_many(h: Homography, xy: np.ndarray) -> np.ndarray:
    """Map an (n, 2) array of points through a homography.

    Rows whose projective denominator is within 1e-12 of zero come back
    as NaN instead of raising, so callers can mask them.
    """
    xy = np.asarray(xy, dtype=np.float64)
    m = h.h
    w = m[2, 0] * xy[:, 0] + m[2, 1] * xy[:, 1] + m[2, 2]
    out = np.empty_like(xy)
    bad = np.abs(w) <= PROJECTIVE_EPS
    w_safe = np.where(bad, 1.0, w)
    out[:, 0] = (m[0, 0] * xy[:, 0] + m[0, 1] * xy[:, 1] + m[0, 2]) / w_safe
    out[:, 1] = (m[1, 0] * xy[:, 0] + m[1, 1] * xy[:, 1] + m[1, 2]) / w_safe
    out[bad] = np.nan
    return out


def invert_homography(h: Homography) -> Homography:
    """Inverse map; raises SingularMatrix for numerically singular input."""
    if abs(np.linalg.det(h.h)) <= DETERMINANT_EPS:
        raise SingularMatrix("homography determinant below 1e-12")
    return Homography(np.linalg.inv(h.h))


def apply_similarity_many(t: SimilarityTransform, pts: np.ndarray) -> np.ndarray:
    """Vectorized similarity application over an (n, 3) array."""
    pts = np.asarray(pts, dtype=np.float64)
    return t.scale * (pts @ t.rotation.T) + t.translation


def invert_similarity(t: SimilarityTransform) -> SimilarityTransform:
    inv_scale = 1.0 / t.scale
    rot = t.rotation.T.copy()
    return SimilarityTransform(inv_scale, rot, -inv_scale * (rot @ t.translation))


def compose_similarity(
    outer: SimilarityTransform, inner: SimilarityTransform
) -> SimilarityTransform:
    """Transform applying ``inner`` first, then ``outer``."""
    scale = outer.scale * inner.scale
    rot = outer.rotation @ inner.rotation
    trans = outer.scale * (outer.rotation @ inner.translation) + outer.translation
    return SimilarityTransform(scale, rot, trans)


def rotation_about_z(angle_rad: float) -> np.ndarray:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
