"""LAS 1.2 point format 2 reader/writer (binary, little-endian).

Format 2 is the oldest LAS revision carrying RGB, which maximizes interop
with las-based tooling. The format has no alpha channel; the writer notes
the drop in the header's system-identifier text field.

The writer stores every axis at a 0.1 mm quantum (SCALE) from a per-axis
offset of floor(min), so any cloud spanning up to 2^31 x 0.1 mm (about
214 km) per axis fits wherever it lies, survey coordinates included. The
reader honours whatever scale and offset a file declares.
"""

from __future__ import annotations

import struct
from collections import namedtuple

import numpy as np

from ..errors import (
    BadSignature,
    CoordinateOverflow,
    MalformedHeader,
    TruncatedFile,
    UnsupportedVersionOrFormat,
)
from ..stereo import PointCloud

# The LAS 1.2 public header block, its fields in order.
_HEADER = struct.Struct("<4sHH16sBB32s32sHHHIIBHI5I3d3d6d")
_Header = namedtuple(
    "_Header",
    "signature file_source_id global_encoding guid major minor system_id"
    " software creation_day creation_year header_size offset_to_points n_vlrs"
    " point_format record_length n_points n_by_return1 n_by_return2"
    " n_by_return3 n_by_return4 n_by_return5 scale_x scale_y scale_z"
    " offset_x offset_y offset_z max_x min_x max_y min_y max_z min_z",
)
HEADER_SIZE = _HEADER.size
POINT_RECORD_LENGTH = 26
POINT_FORMAT = 2
SIGNATURE = b"LASF"

# The writer's quantum on every axis (0.1 mm).
SCALE = 0.0001

_SYSTEM_ID = b"RGBA source; alpha dropped"
_SOFTWARE = b"shoremap 0.1.0"

# 1 return, first of 1, no flags.
_RETURN_BYTE = 0b00001001

# One point format 2 record, packed little-endian (struct "<3iHBBbBH3H").
_POINT_DTYPE = np.dtype([
    ("xyz", "<i4", (3,)),
    ("intensity", "<u2"),
    ("return_byte", "u1"),
    ("classification", "u1"),
    ("scan_angle_rank", "i1"),
    ("user_data", "u1"),
    ("point_source_id", "<u2"),
    ("rgb", "<u2", (3,)),
])


def _per_column(reduce, a: np.ndarray) -> np.ndarray:
    """``reduce`` (np.min or np.max) of each column of an (n, 3) array, a
    column at a time: along axis 0 numpy takes several times as long.
    Zeros when n is 0."""
    return np.array([reduce(a[:, k]) for k in range(3)]) if len(a) else np.zeros(3)


def write_las(cloud: PointCloud) -> bytes:
    """Serialize a point cloud to LAS 1.2 / point format 2 bytes.

    Each axis is stored as round((v - floor(min)) / SCALE) in 32-bit ints,
    with floor(min) as the header's offset (0 for an empty cloud); raises
    CoordinateOverflow when an axis spans more than 2^31 quanta. 8-bit
    colors are widened to 16 bits (x257); alpha is dropped.
    """
    xyz = cloud.xyz
    n = xyz.shape[0]
    # A zero minimum's sign depends on the reduction order; + 0.0 makes
    # a zero offset +0.0.
    offset = np.floor(_per_column(np.min, xyz)) + 0.0
    quantized = np.rint((xyz - offset) / SCALE)
    q_min, q_max = _per_column(np.min, quantized), _per_column(np.max, quantized)
    over = np.flatnonzero(q_max >= 2 ** 31)
    if over.size:
        raise CoordinateOverflow(
            f"axis {over[0]} spans more than the 32-bit quantized range "
            f"at scale {SCALE:g}"
        )
    mins = q_min * SCALE + offset
    maxs = q_max * SCALE + offset

    # GUID zero; creation day and year 0, for determinism.
    header = _HEADER.pack(
        SIGNATURE, 0, 0, b"", 1, 2, _SYSTEM_ID, _SOFTWARE, 0, 0,
        HEADER_SIZE, HEADER_SIZE, 0, POINT_FORMAT, POINT_RECORD_LENGTH,
        n, n, 0, 0, 0, 0, SCALE, SCALE, SCALE, *offset,
        maxs[0], mins[0], maxs[1], mins[1], maxs[2], mins[2],
    )

    records = np.zeros(n, dtype=_POINT_DTYPE)
    records["xyz"] = quantized
    records["return_byte"] = _RETURN_BYTE
    records["rgb"] = cloud.colors[:, :3].astype(np.uint16) * np.uint16(257)
    return header + records.tobytes()


def read_las(data: bytes) -> PointCloud:
    """Parse LAS 1.2 / point format 2 bytes back into a point cloud.

    16-bit colors reduce to 8 bits by divide-by-257 rounding; alpha is
    restored as 255.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise MalformedHeader("expected a byte buffer")
    data = bytes(data)
    if len(data) < 4:
        raise TruncatedFile(f"{len(data)} bytes is too short for a LAS header")
    if data[0:4] != SIGNATURE:
        raise BadSignature(f"signature {data[0:4]!r} is not {SIGNATURE!r}")
    if len(data) < HEADER_SIZE:
        raise TruncatedFile(
            f"{len(data)} bytes is shorter than the {HEADER_SIZE}-byte header"
        )
    h = _Header._make(_HEADER.unpack_from(data))
    if (h.major, h.minor) != (1, 2):
        raise UnsupportedVersionOrFormat(
            f"LAS {h.major}.{h.minor} unsupported (need 1.2)"
        )
    if h.point_format != POINT_FORMAT or h.record_length != POINT_RECORD_LENGTH:
        raise UnsupportedVersionOrFormat(
            f"point format {h.point_format} / record length {h.record_length} "
            f"unsupported (need {POINT_FORMAT}/{POINT_RECORD_LENGTH})"
        )
    if h.offset_to_points < HEADER_SIZE:
        raise MalformedHeader(
            f"point data offset {h.offset_to_points} overlaps the header"
        )
    n = h.n_points
    if len(data) < h.offset_to_points + n * POINT_RECORD_LENGTH:
        have = max(0, (len(data) - h.offset_to_points) // POINT_RECORD_LENGTH)
        raise TruncatedFile(f"header promises {n} point records, found {have}")

    records = np.frombuffer(
        data, dtype=_POINT_DTYPE, count=n, offset=h.offset_to_points
    )
    scale = np.array([h.scale_x, h.scale_y, h.scale_z])
    offset = np.array([h.offset_x, h.offset_y, h.offset_z])
    xyz = records["xyz"].astype(np.float64) * scale + offset
    # round(c / 257) in integers: 257 is odd, so no 16-bit c is a tie.
    # uint32 first, so that + 128 cannot wrap under pre-NumPy 2 casting.
    rgba = np.full((n, 4), 255, dtype=np.uint8)
    rgba[:, :3] = (records["rgb"].astype(np.uint32) + 128) // 257
    try:
        return PointCloud(xyz=xyz, colors=rgba)
    except ValueError as exc:
        raise MalformedHeader(f"decoded coordinates invalid: {exc}") from exc
