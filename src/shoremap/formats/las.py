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

import numpy as np

from ..errors import (
    BadSignature,
    CoordinateOverflow,
    MalformedHeader,
    TruncatedFile,
    UnsupportedVersionOrFormat,
)
from ..stereo import PointCloud

HEADER_SIZE = 227
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

    header = bytearray(HEADER_SIZE)
    header[0:4] = SIGNATURE
    struct.pack_into("<H", header, 4, 0)          # file source id
    struct.pack_into("<H", header, 6, 0)          # global encoding
    # GUID left zero.
    header[24] = 1                                # version major
    header[25] = 2                                # version minor
    header[26:26 + len(_SYSTEM_ID)] = _SYSTEM_ID
    header[58:58 + len(_SOFTWARE)] = _SOFTWARE
    struct.pack_into("<H", header, 90, 0)         # creation day (fixed: determinism)
    struct.pack_into("<H", header, 92, 0)         # creation year
    struct.pack_into("<H", header, 94, HEADER_SIZE)
    struct.pack_into("<I", header, 96, HEADER_SIZE)  # offset to point data
    struct.pack_into("<I", header, 100, 0)        # number of VLRs
    header[104] = POINT_FORMAT
    struct.pack_into("<H", header, 105, POINT_RECORD_LENGTH)
    struct.pack_into("<I", header, 107, n)
    struct.pack_into("<5I", header, 111, n, 0, 0, 0, 0)
    struct.pack_into("<3d", header, 131, SCALE, SCALE, SCALE)
    struct.pack_into("<3d", header, 155, *offset)
    struct.pack_into(
        "<6d", header, 179,
        maxs[0], mins[0], maxs[1], mins[1], maxs[2], mins[2],
    )

    records = np.zeros(n, dtype=_POINT_DTYPE)
    records["xyz"] = quantized
    records["return_byte"] = _RETURN_BYTE
    records["rgb"] = cloud.colors[:, :3].astype(np.uint16) * np.uint16(257)
    return bytes(header) + records.tobytes()


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
    major, minor = data[24], data[25]
    if (major, minor) != (1, 2):
        raise UnsupportedVersionOrFormat(f"LAS {major}.{minor} unsupported (need 1.2)")
    point_format = data[104]
    record_length = struct.unpack_from("<H", data, 105)[0]
    if point_format != POINT_FORMAT or record_length != POINT_RECORD_LENGTH:
        raise UnsupportedVersionOrFormat(
            f"point format {point_format} / record length {record_length} "
            f"unsupported (need {POINT_FORMAT}/{POINT_RECORD_LENGTH})"
        )
    offset_to_points = struct.unpack_from("<I", data, 96)[0]
    if offset_to_points < HEADER_SIZE:
        raise MalformedHeader(
            f"point data offset {offset_to_points} overlaps the header"
        )
    n = struct.unpack_from("<I", data, 107)[0]
    scale = struct.unpack_from("<3d", data, 131)
    offset = struct.unpack_from("<3d", data, 155)

    needed = offset_to_points + n * POINT_RECORD_LENGTH
    if len(data) < needed:
        have = max(0, (len(data) - offset_to_points) // POINT_RECORD_LENGTH)
        raise TruncatedFile(f"header promises {n} point records, found {have}")

    if n == 0:
        return PointCloud(xyz=np.zeros((0, 3)), colors=np.zeros((0, 4), np.uint8))

    records = np.frombuffer(
        data, dtype=_POINT_DTYPE, count=n, offset=offset_to_points
    )
    xyz = records["xyz"].astype(np.float64) * np.array(scale) + np.array(offset)
    colors16 = records["rgb"].astype(np.float64)
    colors8 = np.clip(np.rint(colors16 / 257.0), 0, 255).astype(np.uint8)
    rgba = np.concatenate(
        [colors8, np.full((n, 1), 255, dtype=np.uint8)], axis=1
    )
    try:
        return PointCloud(xyz=xyz, colors=rgba)
    except ValueError as exc:
        raise MalformedHeader(f"decoded coordinates invalid: {exc}") from exc
