"""Control-point alignment of a point cloud into world coordinates via
closed-form least-squares similarity estimation (SVD of the demeaned
cross-covariance, determinant-corrected so only proper rotations are
returned).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollinearPoints, InsufficientPairs
from .geometry import SimilarityTransform, apply_similarity_many
from .stereo import PointCloud


def _first_duplicate(rows: np.ndarray):
    """The first pair i < j of equal rows (0.0 equal to -0.0), least i
    first, then least j, or None. A stable sort puts equal rows together
    in index order, so each run's first two rows are its least pair."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    same = (ordered[1:] == ordered[:-1]).all(axis=1)
    # Run starts: a row equal to the next one but not to the previous.
    starts = np.flatnonzero(same & ~np.append(False, same[:-1]))
    if not starts.size:
        return None
    k = starts[np.argmin(order[starts])]
    return int(order[k]), int(order[k + 1])


@dataclass(frozen=True)
class PointPairSet:
    """Explicit source-target correspondences (picked cloud point to
    surveyed world point)."""

    ids: tuple[str, ...]
    source: np.ndarray  # (n, 3)
    target: np.ndarray  # (n, 3)

    def __post_init__(self):
        src = np.asarray(self.source, dtype=np.float64).reshape(-1, 3)
        tgt = np.asarray(self.target, dtype=np.float64).reshape(-1, 3)
        if src.shape != tgt.shape or len(self.ids) != src.shape[0]:
            raise ValueError("ids, source, and target lengths must agree")
        if not (np.all(np.isfinite(src)) and np.all(np.isfinite(tgt))):
            raise ValueError("pair coordinates must be finite")
        duplicate = _first_duplicate(src)
        if duplicate is not None:
            i, j = duplicate
            raise ValueError(
                f"duplicated source point for ids {self.ids[i]!r}, {self.ids[j]!r}"
            )
        src.flags.writeable = False
        tgt.flags.writeable = False
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "target", tgt)

    def __len__(self) -> int:
        return self.source.shape[0]


@dataclass(frozen=True)
class RegistrationReport:
    transform: SimilarityTransform
    rms: float
    per_pair_residuals: tuple[tuple[str, float], ...]
    with_scale: bool


def estimate_alignment(pairs: PointPairSet, with_scale: bool = False) -> RegistrationReport:
    """Least-squares similarity (or rigid, the default) taking source
    points onto targets; minimizes sum ||s R src + t - dst||^2.

    Raises InsufficientPairs below 3 pairs and CollinearPoints when the
    demeaned source rank is below 2 (rotation under-determined).
    """
    n = len(pairs)
    if n < 3:
        raise InsufficientPairs(f"need at least 3 pairs, got {n}")
    src = pairs.source
    tgt = pairs.target
    mu_s = src.mean(axis=0)
    mu_t = tgt.mean(axis=0)
    src_c = src - mu_s
    tgt_c = tgt - mu_t

    sv = np.linalg.svd(src_c, compute_uv=False)
    if sv[0] <= 0 or sv[1] / sv[0] < 1e-9:
        raise CollinearPoints("source points are collinear or coincident")

    cov = (tgt_c.T @ src_c) / n
    u, d, vt = np.linalg.svd(cov)
    s_fix = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s_fix[2, 2] = -1.0
    rot = u @ s_fix @ vt

    if with_scale:
        var_s = (src_c ** 2).sum() / n
        scale = float((d * np.diag(s_fix)).sum() / var_s)
        if scale <= 0:
            raise CollinearPoints("degenerate configuration: non-positive scale")
    else:
        scale = 1.0
    trans = mu_t - scale * (rot @ mu_s)

    transform = SimilarityTransform(scale, rot, trans)
    mapped = apply_similarity_many(transform, src)
    res = np.linalg.norm(mapped - tgt, axis=1)
    rms = float(np.sqrt((res ** 2).mean()))
    return RegistrationReport(
        transform=transform,
        rms=rms,
        per_pair_residuals=tuple(
            (pairs.ids[i], float(res[i])) for i in range(n)
        ),
        with_scale=with_scale,
    )


def apply_alignment(cloud: PointCloud, t: SimilarityTransform) -> PointCloud:
    """Map every cloud point through the transform; colors unchanged."""
    return PointCloud(
        xyz=apply_similarity_many(t, cloud.xyz), colors=cloud.colors
    )
