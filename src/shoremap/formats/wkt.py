"""WKT POLYGON parsing for DSM clip boundaries.

Only the POLYGON geometry is supported. Rings keep the orientation they
are given: WKT does not fix one, and the even-odd clip never reads it.
"""

from __future__ import annotations

import re

from ..errors import WktSyntaxError
from ..geometry import Point2
from ..surface import ClipPolygon
from ._text import _decode

# Unnested parenthesised rings, with only commas and whitespace around
# them: an unambiguous grammar, so it matches in linear time.
_RING_LIST = re.compile(r"[, \t\r\n]*(?:\([^()]*\)[, \t\r\n]*)+")


def parse_wkt_polygon(text) -> ClipPolygon:
    """Parse `POLYGON ((x y, ...), (hole ...))` text. Syntax errors raise
    WktSyntaxError; ClipPolygon validates the rings themselves
    (InvalidPolygon, OpenRing, SelfIntersection)."""
    s = _decode(text, WktSyntaxError).strip()
    m = re.match(r"(?is)^POLYGON\s*\((.*)\)$", s)
    if not (m and _RING_LIST.fullmatch(m.group(1).strip())):
        raise WktSyntaxError("expected POLYGON ((x y, ...), ...) text")
    rings = []
    for ring_text in re.findall(r"\(([^()]*)\)", m.group(1)):
        coords = []
        for pair in ring_text.split(","):
            parts = pair.split()
            if len(parts) != 2:
                raise WktSyntaxError(f"coordinate {pair.strip()!r} is not 'x y'")
            try:
                coords.append(Point2(float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise WktSyntaxError(f"non-numeric coordinate in {pair!r}") from exc
        rings.append(tuple(coords))
    return ClipPolygon(rings=tuple(rings))
