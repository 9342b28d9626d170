"""CSV readers/writers: ground control points, registration point pairs,
and calibration corner files. All ASCII, comma-separated, one header line.
"""

from __future__ import annotations

import numpy as np

from ..errors import DuplicateId, MalformedHeader, MalformedRow
from ..geometry import Point2, Point3
from ..georectify import Gcp
from ..registration import PointPairSet
from ._text import _decode


def _csv_rows(text, what: str, *headers: list[str]):
    """Yield the (line number, stripped cells) of each data row of an
    ASCII CSV whose header is one of headers, matched case-blind. Blank
    lines are skipped. A row whose column count differs from its header's
    raises MalformedRow when it is reached, and so does a file with no
    data rows once the rows are exhausted."""
    text = _decode(text, MalformedHeader)
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MalformedHeader(f"empty {what} file")
    header = [c.strip().lower() for c in lines[0].split(",")]
    if header not in headers:
        raise MalformedHeader(
            f"header must be {' or '.join(','.join(h) for h in headers)}, "
            f"got {lines[0]!r}"
        )
    for line_no, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise MalformedRow(
                f"line {line_no}: expected {len(header)} columns, got {len(cells)}"
            )
        yield line_no, cells
    if len(lines) == 1:
        raise MalformedRow(f"{what} file has no data rows")


def _parse_float(token: str, line_no: int) -> float:
    try:
        v = float(token)
    except ValueError as exc:
        raise MalformedRow(f"line {line_no}: non-numeric field {token!r}") from exc
    if not np.isfinite(v):
        raise MalformedRow(f"line {line_no}: non-finite field {token!r}")
    return v


GCP_HEADER_BASE = ["id", "easting", "northing", "elevation"]
GCP_HEADER_FULL = GCP_HEADER_BASE + ["px", "py"]


def parse_gcp_csv(text) -> tuple[Gcp, ...]:
    """Parse GCPs. Header is `id,easting,northing,elevation` optionally
    followed by `,px,py`; image columns may be left empty per row."""
    gcps = []
    seen = set()
    for line_no, cells in _csv_rows(text, "GCP", GCP_HEADER_FULL, GCP_HEADER_BASE):
        gid = cells[0]
        if not gid:
            raise MalformedRow(f"line {line_no}: empty id")
        if gid in seen:
            raise DuplicateId(f"GCP id {gid!r} appears more than once")
        seen.add(gid)
        world = Point3(
            _parse_float(cells[1], line_no),
            _parse_float(cells[2], line_no),
            _parse_float(cells[3], line_no),
        )
        image = None
        if len(cells) == 6 and (cells[4] or cells[5]):
            if not (cells[4] and cells[5]):
                raise MalformedRow(
                    f"line {line_no}: px and py must both be present or both empty"
                )
            image = Point2(
                _parse_float(cells[4], line_no), _parse_float(cells[5], line_no)
            )
        try:
            gcps.append(Gcp(id=gid, world=world, image=image))
        except ValueError as exc:
            raise MalformedRow(f"line {line_no}: {exc}") from exc
    return tuple(gcps)


def write_gcp_csv(gcps: list[Gcp]) -> str:
    lines = [",".join(GCP_HEADER_FULL)]
    for g in gcps:
        img = (
            f"{float(g.image.x)!r},{float(g.image.y)!r}"
            if g.image is not None
            else ","
        )
        lines.append(
            f"{g.id},{float(g.world.x)!r},{float(g.world.y)!r},"
            f"{float(g.world.z)!r},{img}"
        )
    return "\n".join(lines) + "\n"


PAIR_HEADER = ["id", "sx", "sy", "sz", "tx", "ty", "tz"]


def parse_pair_csv(text) -> PointPairSet:
    """Parse explicit source-to-target 3-d correspondences."""
    ids, source, target = [], [], []
    seen = set()
    for line_no, cells in _csv_rows(text, "pair", PAIR_HEADER):
        pid = cells[0]
        if not pid:
            raise MalformedRow(f"line {line_no}: empty id")
        if pid in seen:
            raise DuplicateId(f"pair id {pid!r} appears more than once")
        seen.add(pid)
        ids.append(pid)
        vals = [_parse_float(c, line_no) for c in cells[1:]]
        source.append(vals[0:3])
        target.append(vals[3:6])
    try:
        return PointPairSet(
            ids=tuple(ids), source=np.array(source), target=np.array(target)
        )
    except ValueError as exc:
        raise MalformedRow(str(exc)) from exc


def write_pair_csv(pairs: PointPairSet) -> str:
    lines = [",".join(PAIR_HEADER)]
    for i, pid in enumerate(pairs.ids):
        s = [float(v) for v in pairs.source[i]]
        t = [float(v) for v in pairs.target[i]]
        lines.append(
            f"{pid},{s[0]!r},{s[1]!r},{s[2]!r},{t[0]!r},{t[1]!r},{t[2]!r}"
        )
    return "\n".join(lines) + "\n"


CORNER_HEADER = ["view_index", "corner_index", "px", "py"]


def parse_corner_csv(text) -> list[list[Point2]]:
    """Parse calibration corner observations.

    Views must be dense-complete: view indices 0..V-1 all present, and
    every view carries the same corner indices 0..N-1 exactly once.
    Returns one corner list per view, ordered by corner index.
    """
    rows: dict[int, dict[int, Point2]] = {}
    for line_no, cells in _csv_rows(text, "corner", CORNER_HEADER):
        try:
            view_idx = int(cells[0])
            corner_idx = int(cells[1])
        except ValueError as exc:
            raise MalformedRow(f"line {line_no}: indices must be integers") from exc
        if view_idx < 0 or corner_idx < 0:
            raise MalformedRow(f"line {line_no}: indices must be non-negative")
        p = Point2(_parse_float(cells[2], line_no), _parse_float(cells[3], line_no))
        view = rows.setdefault(view_idx, {})
        if corner_idx in view:
            raise DuplicateId(
                f"corner {corner_idx} of view {view_idx} appears more than once"
            )
        view[corner_idx] = p
    n_views = max(rows) + 1
    if set(rows) != set(range(n_views)):
        raise MalformedRow("view indices must be dense (0..V-1)")
    n_corners = len(rows[0])
    views = []
    for v in range(n_views):
        view = rows[v]
        if set(view) != set(range(n_corners)):
            raise MalformedRow(
                f"view {v} corners are not dense-complete (expected 0..{n_corners - 1})"
            )
        views.append([view[c] for c in range(n_corners)])
    return views


def write_corner_csv(views: list[list[Point2]]) -> str:
    lines = [",".join(CORNER_HEADER)]
    for v, corners in enumerate(views):
        for c, p in enumerate(corners):
            lines.append(f"{v},{c},{float(p[0])!r},{float(p[1])!r}")
    return "\n".join(lines) + "\n"
