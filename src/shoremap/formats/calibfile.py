"""Line-based `key = value` calibration file.

Required keys: fx, fy, cx, cy, k1, k2, k3, p1, p2, width, height,
baseline_m. Unknown, missing, or duplicate keys are rejected. Floats are
emitted via repr (shortest round-trip), so read(write(x)) is exact.
"""

from __future__ import annotations

from ..camera import CameraIntrinsics, StereoRig
from ..errors import MalformedHeader
from ._text import _decode

_FLOAT_KEYS = ("fx", "fy", "cx", "cy", "k1", "k2", "k3", "p1", "p2", "baseline_m")
_INT_KEYS = ("width", "height")
ALL_KEYS = ("fx", "fy", "cx", "cy", "k1", "k2", "k3", "p1", "p2",
            "width", "height", "baseline_m")


def write_calibration(i: CameraIntrinsics, baseline_m: float) -> str:
    values = {
        "fx": float(i.fx), "fy": float(i.fy),
        "cx": float(i.cx), "cy": float(i.cy),
        "k1": float(i.k1), "k2": float(i.k2), "k3": float(i.k3),
        "p1": float(i.p1), "p2": float(i.p2),
        "width": int(i.image_width), "height": int(i.image_height),
        "baseline_m": float(baseline_m),
    }
    return "\n".join(f"{k} = {values[k]!r}" for k in ALL_KEYS) + "\n"


def read_calibration(text) -> StereoRig:
    """Parse a calibration file into a stereo rig (shared intrinsics plus
    baseline)."""
    text = _decode(text, MalformedHeader)
    seen: dict[str, float] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedHeader(f"line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in ALL_KEYS:
            raise MalformedHeader(f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise MalformedHeader(f"line {line_no}: duplicate key {key!r}")
        try:
            seen[key] = int(value) if key in _INT_KEYS else float(value)
        except ValueError as exc:
            raise MalformedHeader(
                f"line {line_no}: bad value {value!r} for {key}"
            ) from exc
    missing = [k for k in ALL_KEYS if k not in seen]
    if missing:
        raise MalformedHeader(f"missing keys: {', '.join(missing)}")
    try:
        intrinsics = CameraIntrinsics(
            fx=seen["fx"], fy=seen["fy"], cx=seen["cx"], cy=seen["cy"],
            k1=seen["k1"], k2=seen["k2"], k3=seen["k3"],
            p1=seen["p1"], p2=seen["p2"],
            image_width=int(seen["width"]), image_height=int(seen["height"]),
        )
        return StereoRig(intrinsics=intrinsics, baseline=seen["baseline_m"])
    except ValueError as exc:
        raise MalformedHeader(str(exc)) from exc
