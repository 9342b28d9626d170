"""Dense stereo matching and colorized point-cloud assembly.

Matching is census transform + Hamming-cost winner-take-all with box
aggregation, a uniqueness test, left-right consistency (1 px tolerance),
and parabolic subpixel refinement. Pixels without a discriminative,
consistent match are INVALID (NaN in the disparity array).

The cost volume is stored disparity-major, one contiguous (rows, width)
plane per disparity, and only the left eye's is computed. The right eye's
cost of pixel x at disparity d compares the same two pixels as the left
eye's cost of pixel x + d, so the right eye's plane i is the left eye's
plane i read d_min + i columns further right, and _BIG_COST past the
right edge; a second volume would recompute the same window sums.

The kernels are word-parallel: the census is written one byte plane at a
time, the Hamming cost is a SWAR byte popcount on 64-bit words, and each
eye's winner is one running minimum of uint32 keys cost << 16 | index.

The census window alone fixes where costs exist: pixels within half a
window of the border have no census pattern, so the costs at disparity d
fill rows [2 * half, h - 2 * half) and columns [2 * half + d, w - 2 * half),
a rectangle computed from the window and the shift, not from a mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .camera import INTRINSIC_FIELDS, StereoRig, disparity_to_depth, pixels_depth_to_points
from .errors import DimensionMismatch, EmptyRange, InputError, SizeMismatch, WindowTooLarge

_ALLOWED_WINDOWS = (3, 5, 7, 9)
# Largest real aggregated cost: 80 census bits x 81 window cells = 6480.
_BIG_COST = np.uint16(0xFFFF)
# Cost cells (strip rows x width x disparities) per strip: about 50 rows
# of a 640-wide image with 65 disparities, 4 MB of uint16.
_STRIP_CELLS = 1 << 21
_MAX_DISPARITIES = 1 << 16  # the winner keys hold the index in 16 bits
_M1, _M2, _M4 = (np.uint64(m * 0x0101010101010101) for m in (0x55, 0x33, 0x0F))

DEFAULT_WINDOW = 5
DEFAULT_Z_MAX = 20.0


@dataclass(frozen=True)
class GrayImage:
    """Single-channel image, intensities in [0, 1], row-major."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=np.float64)
        if p.ndim != 2 or p.size == 0:
            raise ValueError("gray image must be a non-empty 2-d array")
        if not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0:
            raise ValueError("gray intensities must be finite and within [0, 1]")
        p.flags.writeable = False
        object.__setattr__(self, "pixels", p)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class RgbaImage:
    """8-bit RGBA image, row-major, shape (height, width, 4)."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels)
        if p.ndim != 3 or p.shape[2] != 4 or p.size == 0:
            raise ValueError("rgba image must be a non-empty (h, w, 4) array")
        if p.dtype != np.uint8:
            if np.any(p < 0) or np.any(p > 255):
                raise ValueError("rgba samples must be within [0, 255]")
            p = p.astype(np.uint8)
        p = np.ascontiguousarray(p)
        p.flags.writeable = False
        object.__setattr__(self, "pixels", p)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def to_gray(self) -> GrayImage:
        p = self.pixels  # mean(axis=2) / 255 bit for bit: exact sums
        gray = np.add(p[:, :, 0], p[:, :, 1], dtype=np.float64)
        gray += p[:, :, 2]
        gray /= 3.0
        gray /= 255.0
        return GrayImage(gray)


@dataclass(frozen=True)
class DisparityMap:
    """Subpixel disparities in pixels; NaN marks INVALID."""

    values: np.ndarray
    min_disparity: float
    max_disparity: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("disparity map must be 2-d")
        # Reduced in place over the finite values: no copy of them.
        finite = np.isfinite(v)
        lo = np.minimum.reduce(v, axis=None, where=finite, initial=np.inf)
        hi = np.maximum.reduce(v, axis=None, where=finite, initial=-np.inf)
        if lo < self.min_disparity or hi > self.max_disparity:
            raise ValueError("valid disparities outside the declared range")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.values)


@dataclass(frozen=True)
class PointCloud:
    """3-d points with RGBA colors. xyz is (n, 3) float64 meters, colors
    is (n, 4) uint8."""

    xyz: np.ndarray
    colors: np.ndarray = field(default=None)

    def __post_init__(self):
        xyz = np.asarray(self.xyz, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(xyz)):
            raise ValueError("point coordinates must be finite")
        if self.colors is None:
            colors = np.full((xyz.shape[0], 4), 255, dtype=np.uint8)
        else:
            colors = np.asarray(self.colors, dtype=np.uint8).reshape(-1, 4)
        if colors.shape[0] != xyz.shape[0]:
            raise ValueError("one color per point required")
        xyz = np.ascontiguousarray(xyz)
        colors = np.ascontiguousarray(colors)
        xyz.flags.writeable = False
        colors.flags.writeable = False
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "colors", colors)

    def __len__(self) -> int:
        return self.xyz.shape[0]


def census_transform(img: GrayImage, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Packed census bit patterns: (h, w, n_bytes) uint8, little-endian
    bit order; bit b corresponds to the b-th window neighbor in row-major
    order (center excluded) and is set when that neighbor is darker than
    the center. Border pixels (half-window margin) have no pattern; their
    bits stay zero and the matcher never reads them."""
    if window not in _ALLOWED_WINDOWS:
        raise WindowTooLarge(f"window must be one of {_ALLOWED_WINDOWS}, got {window}")
    h, w = img.height, img.width
    if h <= window or w <= window:
        raise WindowTooLarge(f"image {w}x{h} too small for window {window}")
    half = window // 2
    n_bytes = (window * window - 1 + 7) // 8
    planes = np.zeros((n_bytes, h, w), dtype=np.uint8)
    px = img.pixels
    center = px[half: h - half, half: w - half]
    cmp = np.empty(center.shape, dtype=bool)
    shifted = np.empty(center.shape, dtype=np.uint8)
    bit = 0
    for dy in range(-half, half + 1):
        for dx in range(-half, half + 1):
            if dy == 0 and dx == 0:
                continue
            neighbor = px[half + dy: h - half + dy, half + dx: w - half + dx]
            np.less(neighbor, center, out=cmp)
            np.left_shift(cmp.view(np.uint8), np.uint8(bit % 8), out=shifted)
            inner = planes[bit // 8, half: h - half, half: w - half]
            np.bitwise_or(inner, shifted, out=inner)
            bit += 1
    return planes.transpose(1, 2, 0)  # written plane-major


def _cost_volume(
    ref: np.ndarray, other: np.ndarray, window: int, y0: int, y1: int,
    d_min: int, d_max: int,
) -> np.ndarray:
    """Aggregated matching cost (n_d, h, w) uint16 of the left eye from two
    plane-major census arrays (n_bytes, h, w); cost[i, y, x] compares the
    reference pixel x with the other image's pixel x - (d_min + i).

    This is the only cost volume the matcher builds: the right eye's cost
    of pixel x at disparity d_min + i compares the pair that
    cost[i, y, x + d_min + i] compares (see _winner_take_all).

    The census window fixes where patterns exist: rows [y0, y1) (the
    caller's share of census_transform's [half, h - half)) and columns
    [half, w - half) in both images. So for shift d the pairs with a
    pattern on both sides fill rows [y0, y1) and reference columns
    [half + d, w - half), and a cell's window holds only such pairs exactly
    when the cell lies in that rectangle shrunk by half on every side.
    Those cells get the window sum of the Hamming costs; every other cell
    _BIG_COST. The Hamming cost is the SWAR popcount of the XOR bytes,
    summed over the byte planes in uint16."""
    n_bytes, h, w = ref.shape
    half = window // 2
    volume = np.full((d_max - d_min + 1, h, w), _BIG_COST, dtype=np.uint16)
    if y1 - y0 < window:
        return volume
    for i, d in enumerate(range(d_min, d_max + 1)):
        x0, x1 = half + d, w - half
        if x1 - x0 < window:
            continue
        n = n_bytes * (y1 - y0) * (x1 - x0)
        words = np.empty(-(-n // 8), dtype=np.uint64)  # padded to whole words
        xor = words.view(np.uint8)[:n].reshape(n_bytes, y1 - y0, x1 - x0)
        np.bitwise_xor(ref[:, y0:y1, x0:x1], other[:, y0:y1, x0 - d: x1 - d], out=xor)
        _byte_popcounts(words)
        raw = np.add.reduce(xor, axis=0, dtype=np.uint16)
        assert raw.dtype == np.uint16
        volume[i, y0 + half: y1 - half, x0 + half: x1 - half] = _window_sums(raw, window)
    return volume


def _byte_popcounts(words: np.ndarray) -> None:
    """Each byte of the uint64 words becomes its count of set bits, in
    place (SWAR: bit pairs, then nibbles, then bytes). Masks and shift
    counts are uint64, so nothing promotes under NumPy 1.x rules."""
    spare = np.empty_like(words)
    np.right_shift(words, np.uint64(1), out=spare)
    np.bitwise_and(spare, _M1, out=spare)
    np.subtract(words, spare, out=words)
    np.right_shift(words, np.uint64(2), out=spare)
    np.bitwise_and(spare, _M2, out=spare)
    np.bitwise_and(words, _M2, out=words)
    np.add(words, spare, out=words)
    np.right_shift(words, np.uint64(4), out=spare)
    np.add(words, spare, out=words)
    np.bitwise_and(words, _M4, out=words)


def _window_sums(raw: np.ndarray, k: int) -> np.ndarray:
    """Sum over every full k x k window of raw, first down the rows, then
    along them, as k - 1 shifted adds per axis. The largest cost, 6480,
    fits the uint16 accumulator."""
    n_y, n_x = raw.shape[0] - k + 1, raw.shape[1] - k + 1
    col = raw[:n_y].copy()
    for j in range(1, k):
        col += raw[j: j + n_y]
    agg = col[:, :n_x].copy()
    for j in range(1, k):
        agg += col[:, j: j + n_x]
    return agg


def _winner_take_all(
    volume: np.ndarray, d_min: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest-cost disparity index (first on ties, as argmin) and its cost
    per pixel for the left eye, then the right eye's index alone (its
    consistency check needs no cost), from one pass over the planes of
    the left eye's volume.

    Each eye keeps one running minimum of uint32 keys cost << 16 | i: the
    least key holds the least cost and, among equal costs, the first index,
    so at most 2^16 planes. Keys start at _BIG_COST << 16 | 0, which only a
    real cost beats.

    The right eye's plane i is the left eye's plane i read d_min + i
    columns further right, since both compare the same two pixels, and
    _BIG_COST past the right edge, which never beats the running minimum."""
    n_d, s, w = volume.shape
    run_l = np.full((s, w), int(_BIG_COST) << 16, dtype=np.uint32)
    run_r = run_l.copy()
    key = np.empty((s, w), dtype=np.uint32)
    for i in range(n_d):
        np.left_shift(volume[i], np.uint32(16), out=key, dtype=np.uint32)
        np.bitwise_or(key, np.uint32(i), out=key)
        np.minimum(run_l, key, out=run_l)
        c = d_min + i
        if c < w:
            np.minimum(run_r[:, : w - c], key[:, c:], out=run_r[:, : w - c])
    assert run_l.dtype == run_r.dtype == np.uint32
    low, shift = np.uint32(0xFFFF), np.uint32(16)
    return (run_l & low).astype(np.intp), (run_l >> shift).astype(np.uint16), (run_r & low).astype(np.intp)


def match_disparity(
    left: GrayImage,
    right: GrayImage,
    d_range: tuple[int, int],
    window: int = DEFAULT_WINDOW,
) -> DisparityMap:
    """Dense disparity of the left image against the right.

    A pixel survives only if its best cost is strictly better than every
    cost more than 1 px away (uniqueness) and the right image's own best
    match points back within 1 px (left-right consistency). Survivors get
    parabolic subpixel refinement when the winning disparity is interior
    to the search range.

    Memory is bounded by design: every step after the census is local to
    one image row within a half window, so the image is matched in
    horizontal strips of about _STRIP_CELLS cost cells (at least one row).
    Beyond the census bits and the output, which grow with height x width,
    the working set is one uint16 cost volume of disparities x (strip rows
    + window - 1) x width, from which both eyes' costs are read, and a few
    strip-sized planes, whatever the image height. The result does not
    depend on the strip height. At most 2^16 disparities: the winner keys
    hold the disparity index in 16 bits (_winner_take_all).
    """
    if left.pixels.shape != right.pixels.shape:
        raise SizeMismatch(
            f"left {left.pixels.shape} vs right {right.pixels.shape}"
        )
    d_min, d_max = int(d_range[0]), int(d_range[1])
    if not (0 <= d_min < d_max < left.width):
        raise EmptyRange(f"invalid disparity range [{d_min}, {d_max}]")
    if d_max - d_min + 1 > _MAX_DISPARITIES:
        raise EmptyRange(f"more than {_MAX_DISPARITIES} disparities in [{d_min}, {d_max}]")

    # Plane-major (n_bytes, h, w) views: the census is written that way.
    census_l = census_transform(left, window).transpose(2, 0, 1)
    census_r = census_transform(right, window).transpose(2, 0, 1)

    h, w = left.pixels.shape
    rows = max(1, _STRIP_CELLS // (w * (d_max - d_min + 1)))
    disp = np.empty((h, w), dtype=np.float64)
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        disp[r0:r1] = _match_strip(census_l, census_r, window, r0, r1, d_min, d_max)
    del census_l, census_r
    return DisparityMap(values=disp, min_disparity=d_min, max_disparity=d_max)


def _match_strip(
    census_l: np.ndarray,
    census_r: np.ndarray,
    window: int,
    r0: int,
    r1: int,
    d_min: int,
    d_max: int,
) -> np.ndarray:
    """Disparities of rows [r0, r1), NaN where INVALID.

    The cost volume is built from the census rows within a half window of
    the strip, clipped to the image. That halo holds every image row of a
    kept row's window, and its rows with a pattern are the image's rows
    [half, h - half) within it, so _cost_volume gives the kept rows the
    whole image's costs. It is built once, for the left eye: the right
    eye's costs compare the same pixel pairs, shifted by the disparity, so
    _winner_take_all reads both eyes' winners from the same planes."""
    h = census_l.shape[1]
    half = window // 2
    a, b = max(r0 - half, 0), min(r1 + half, h)
    y0, y1 = max(half, a) - a, min(h - half, b) - a
    vol_l = _cost_volume(
        census_l[:, a:b], census_r[:, a:b], window, y0, y1, d_min, d_max
    )[:, r0 - a: r1 - a]
    best_l, cost_l, best_r = _winner_take_all(vol_l, d_min)

    n_d = d_max - d_min + 1
    valid = cost_l < _BIG_COST

    # Costs one step either side of the winner, for the subpixel step;
    # read before the uniqueness test overwrites them.
    c0 = cost_l.astype(np.int64)
    cm = np.take_along_axis(
        vol_l, np.maximum(best_l - 1, 0)[None], axis=0
    )[0].astype(np.int64)
    cp = np.take_along_axis(
        vol_l, np.minimum(best_l + 1, n_d - 1)[None], axis=0
    )[0].astype(np.int64)

    # Uniqueness: the winner must strictly beat every candidate more than
    # 1 px away; flat cost curves (e.g. textureless input) fail here. The
    # candidates within 1 px are masked in place; with none left, the
    # minimum is _BIG_COST, which a valid winner beats.
    for step in (-1, 0, 1):
        near = np.clip(best_l + step, 0, n_d - 1)[None]
        np.put_along_axis(vol_l, near, _BIG_COST, axis=0)
    valid &= cost_l < vol_l.min(axis=0)

    # Left-right consistency, 1 px tolerance on integer winners. A valid
    # winner's cell lies in _cost_volume's rectangle, so its match x - d
    # is at least 2 * half, and the right eye's best cost there is at most
    # the winner's own, below _BIG_COST.
    disp_int = best_l + d_min
    x_r = np.maximum(np.arange(best_l.shape[1])[None, :] - disp_int, 0)
    ys = np.arange(best_l.shape[0])[:, None]
    valid &= np.abs(best_r[ys, x_r] + d_min - disp_int) <= 1

    # Parabolic subpixel refinement on the aggregated cost, for winners
    # inside the search range; only cells with denom > 0 are divided, and
    # the step of at most 0.5 px keeps the result in [d_min, d_max].
    denom = cm - 2 * c0 + cp
    ok = valid & (best_l > 0) & (best_l < n_d - 1) & (denom > 0)
    ok &= (cm < _BIG_COST) & (cp < _BIG_COST)
    disp = disp_int.astype(np.float64)
    disp[ok] += np.clip((cm - cp)[ok] / (2.0 * denom[ok]), -0.5, 0.5)
    disp[~valid] = np.nan
    return disp


def require_pinhole(rig: StereoRig) -> None:
    """Raise InputError naming the rig's non-zero lens distortion terms."""
    if terms := [n for n in INTRINSIC_FIELDS[4:] if getattr(rig.intrinsics, n)]:
        raise InputError("depth needs a rectified pair's pinhole calibration; "
                         f"{', '.join(terms)} not 0")


def require_z_max(z_max: float) -> None:
    """Raise InputError unless z_max > 0 (inf keeps every depth; NaN fails)."""
    if not z_max > 0:
        raise InputError(f"z_max must be > 0, got {z_max:g}")


def cloud_from_disparity(
    d: DisparityMap,
    rig: StereoRig,
    color: RgbaImage,
    z_max: float = DEFAULT_Z_MAX,
) -> PointCloud:
    """Back-project valid disparities along pinhole rays into a colorized
    camera-frame cloud; a rig with lens distortion, or a z_max that is
    not > 0, raises InputError.

    Colors are taken bit-exactly from the reference (left) image at the
    originating pixel; points deeper than z_max are dropped.
    """
    require_pinhole(rig)
    require_z_max(z_max)
    intr = rig.intrinsics
    if (d.width, d.height) != (intr.image_width, intr.image_height):
        raise DimensionMismatch(
            f"disparity {d.width}x{d.height} vs intrinsics "
            f"{intr.image_width}x{intr.image_height}"
        )
    if (color.width, color.height) != (d.width, d.height):
        raise DimensionMismatch(
            f"color {color.width}x{color.height} vs disparity {d.width}x{d.height}"
        )
    mask = d.valid_mask() & (d.values > 0)
    vs, us = np.nonzero(mask)
    z = disparity_to_depth(rig, d.values[vs, us])
    keep = z <= z_max
    us, vs, z = us[keep], vs[keep], z[keep]
    pts = pixels_depth_to_points(intr, us, vs, z)
    return PointCloud(xyz=pts, colors=color.pixels[vs, us])
