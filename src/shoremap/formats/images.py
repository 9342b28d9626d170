"""Binary PGM (P5) and PPM (P6) image reader/writers, 8-bit, maxval 255.

One grammar reads the header: the magic, width, height and maxval, then
exactly one whitespace byte. Fields are separated by whitespace or by `#`
comments through the next newline. A header that does not match raises
MalformedHeader, and short sample data raises TruncatedFile. PPM carries
RGB only; alpha is dropped on write and restored as 255 on read.
"""

from __future__ import annotations

import re

import numpy as np

from ..errors import MalformedHeader, TruncatedFile
from ..stereo import GrayImage, RgbaImage

# `\s` is the bytes.isspace set. Fields need a separator between them, so
# that `\d+` cannot split one number into two; the width may follow the magic.
_HEADER = re.compile(
    rb"P[56](?:\s|#[^\n]*\n)*(\d+)"
    rb"(?:\s|#[^\n]*\n)+(\d+)"
    rb"(?:\s|#[^\n]*\n)+(\d+)\s"
)


def write_pgm(img: GrayImage) -> bytes:
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    data = np.rint(img.pixels * 255.0).astype(np.uint8)
    return header + data.tobytes()


def write_ppm(img: RgbaImage) -> bytes:
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + np.ascontiguousarray(img.pixels[:, :, :3]).tobytes()


def _read_netpbm(data: bytes, magic: bytes, channels: int) -> np.ndarray:
    """The (height, width, channels) uint8 samples of a binary Netpbm file."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise MalformedHeader("expected a byte buffer")
    data = bytes(data)
    if data[:2] != magic:
        raise MalformedHeader(f"magic number is not {magic.decode()!r}")
    m = _HEADER.match(data)
    if m is None:
        raise MalformedHeader(f"expected a '{magic.decode()} width height maxval' header")
    try:
        width, height, maxval = map(int, m.groups())
    except ValueError as exc:  # more digits than int() converts
        raise MalformedHeader("header field has too many digits") from exc
    if width <= 0 or height <= 0:
        raise MalformedHeader(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise MalformedHeader(f"maxval must be 255, got {maxval}")
    need, found = width * height * channels, len(data) - m.end()
    if found < need:  # need may have more digits than str() converts
        raise TruncatedFile(f"need {width}x{height}x{channels} sample bytes, found {found}")
    samples = np.frombuffer(data, dtype=np.uint8, count=need, offset=m.end())
    return samples.reshape(height, width, channels)


def read_pgm(data: bytes) -> GrayImage:
    gray = _read_netpbm(data, b"P5", 1)[:, :, 0]
    return GrayImage(gray.astype(np.float64) / 255.0)


def read_ppm(data: bytes) -> RgbaImage:
    rgb = _read_netpbm(data, b"P6", 3)
    alpha = np.full(rgb.shape[:2] + (1,), 255, dtype=np.uint8)
    return RgbaImage(np.concatenate([rgb, alpha], axis=2))
