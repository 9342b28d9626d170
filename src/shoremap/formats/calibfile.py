"""Line-based `key = value` calibration file.

Required keys: the intrinsics in ``camera.INTRINSIC_FIELDS`` order (fx,
fy, cx, cy, k1, k2, k3, p1, p2), then width, height, baseline_m.
Unknown, missing, or duplicate keys are rejected. Floats are emitted via
repr (shortest round-trip), so read(write(x)) is exact.
"""

from __future__ import annotations

from ..camera import INTRINSIC_FIELDS, CameraIntrinsics, StereoRig
from ..errors import MalformedHeader
from ._text import _decode, parse_key_values

ALL_KEYS = INTRINSIC_FIELDS + ("width", "height", "baseline_m")


def write_calibration(i: CameraIntrinsics, baseline_m: float) -> str:
    values = {name: float(getattr(i, name)) for name in INTRINSIC_FIELDS}
    values.update(
        width=int(i.image_width), height=int(i.image_height),
        baseline_m=float(baseline_m),
    )
    return "\n".join(f"{k} = {values[k]!r}" for k in ALL_KEYS) + "\n"


def read_calibration(text) -> StereoRig:
    """Parse a calibration file into a stereo rig (shared intrinsics plus
    baseline)."""
    raw = parse_key_values(_decode(text, MalformedHeader))
    unknown = [k for k in raw if k not in ALL_KEYS]
    if unknown:
        raise MalformedHeader(f"unknown key {unknown[0]!r}")
    missing = [k for k in ALL_KEYS if k not in raw]
    if missing:
        raise MalformedHeader(f"missing keys: {', '.join(missing)}")
    seen: dict[str, float] = {}
    for key, value in raw.items():
        try:
            seen[key] = int(value) if key in ("width", "height") else float(value)
        except ValueError as exc:
            raise MalformedHeader(f"bad value {value!r} for {key}") from exc
    try:
        intrinsics = CameraIntrinsics(
            **{name: seen[name] for name in INTRINSIC_FIELDS},
            image_width=seen["width"], image_height=seen["height"],
        )
        return StereoRig(intrinsics=intrinsics, baseline=seen["baseline_m"])
    except ValueError as exc:
        raise MalformedHeader(str(exc)) from exc
