"""WKT POLYGON parsing and serialization for DSM clip boundaries.

Only the POLYGON geometry is supported; ring orientation is normalized
(outer counterclockwise, holes clockwise) on parse.
"""

from __future__ import annotations

import re

from ..errors import WktSyntaxError
from ..geometry import Point2
from ..surface import ClipPolygon
from ._text import _decode


def parse_wkt_polygon(text) -> ClipPolygon:
    """Parse `POLYGON ((x y, ...), (hole ...))` text. Syntax errors raise
    WktSyntaxError; ClipPolygon validates the rings themselves
    (InvalidPolygon, OpenRing, SelfIntersection)."""
    s = _decode(text, WktSyntaxError).strip()
    m = re.match(r"(?is)^POLYGON\s*\((.*)\)$", s)
    if not m:
        raise WktSyntaxError("expected POLYGON (( ... )) text")
    body = m.group(1).strip()
    rings_text = []
    depth = 0
    start = None
    for i, ch in enumerate(body):
        if ch == "(":
            if depth == 0:
                start = i + 1
            depth += 1
            if depth > 1:
                raise WktSyntaxError("nested parentheses inside a ring")
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise WktSyntaxError("unbalanced parentheses")
            if depth == 0:
                rings_text.append(body[start:i])
        elif depth == 0 and ch not in ", \t\r\n":
            raise WktSyntaxError(f"unexpected character {ch!r} between rings")
    if depth != 0:
        raise WktSyntaxError("unbalanced parentheses")
    if not rings_text:
        raise WktSyntaxError("polygon has no rings")

    rings = []
    for ring_text in rings_text:
        coords = []
        for pair in ring_text.split(","):
            parts = pair.split()
            if len(parts) != 2:
                raise WktSyntaxError(f"coordinate {pair.strip()!r} is not 'x y'")
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise WktSyntaxError(f"non-numeric coordinate in {pair!r}") from exc
            coords.append(Point2(x, y))
        rings.append(tuple(coords))
    return ClipPolygon(rings=tuple(rings))


def polygon_to_wkt(poly: ClipPolygon) -> str:
    rings = []
    for ring in poly.rings:
        rings.append(
            "(" + ", ".join(f"{p.x!r} {p.y!r}" for p in ring) + ")"
        )
    return "POLYGON (" + ", ".join(rings) + ")"
