"""ESRI ASCII grid reader/writer and world file writer.

ASC uses the cell-center (xllcenter/yllcenter) convention, matching
GridGeometry's center-of-cell origin, and emits the north row first
(storage row 0). Values carry 3 decimals; NODATA is -9999.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatch, MalformedHeader
from ..geometry import GridGeometry
from ..surface import NODATA, DsmGrid
from ._text import _decode

_HEADER_KEYS = ("ncols", "nrows", "xllcenter", "yllcenter", "cellsize", "nodata_value")


def write_asc(d: DsmGrid) -> str:
    """Serialize a DSM to ESRI ASCII grid text."""
    g = d.geometry
    yll = g.origin_y - (g.n_rows - 1) * g.cell_size
    lines = [
        f"ncols {g.n_cols}",
        f"nrows {g.n_rows}",
        f"xllcenter {float(g.origin_x)!r}",
        f"yllcenter {float(yll)!r}",
        f"cellsize {float(g.cell_size)!r}",
        "nodata_value -9999",
    ]
    # One % operation per row: "%.3f" writes what f"{v:.3f}" writes, and a
    # NODATA cell's place in the row's format holds the literal -9999.
    cell = np.array(["%.3f", "-9999"])
    for row in d.values:
        nodata = row == NODATA
        fmt = " ".join(cell[nodata.astype(np.intp)].tolist())
        lines.append(fmt % tuple(row[~nodata].tolist()))
    return "\n".join(lines) + "\n"


def read_asc(text) -> DsmGrid:
    """Parse ESRI ASCII grid text into a DSM."""
    text = _decode(text, MalformedHeader)
    tokens_by_line = [ln.split() for ln in text.splitlines()]
    tokens_by_line = [t for t in tokens_by_line if t]
    if len(tokens_by_line) < 6:
        raise MalformedHeader("fewer than 6 header lines")
    header = {}
    for i, key in enumerate(_HEADER_KEYS):
        parts = tokens_by_line[i]
        if len(parts) != 2 or parts[0].lower() != key:
            raise MalformedHeader(
                f"header line {i + 1} must be '{key} <value>', got {' '.join(parts)!r}"
            )
        try:
            header[key] = float(parts[1])
        except ValueError as exc:
            raise MalformedHeader(f"bad numeric value for {key}: {parts[1]!r}") from exc

    try:
        n_cols = int(header["ncols"])
        n_rows = int(header["nrows"])
        if n_cols != header["ncols"] or n_rows != header["nrows"]:
            raise ValueError
    except (ValueError, OverflowError) as exc:
        raise MalformedHeader("ncols/nrows must be integers") from exc
    if n_cols <= 0 or n_rows <= 0:
        raise MalformedHeader("grid dimensions must be positive")
    if header["nodata_value"] != NODATA:
        raise MalformedHeader(
            f"nodata_value must be -9999, got {header['nodata_value']:g}"
        )

    flat = [tok for parts in tokens_by_line[6:] for tok in parts]
    if len(flat) != n_cols * n_rows:
        raise DimensionMismatch(
            f"expected {n_cols * n_rows} values, found {len(flat)}"
        )
    try:
        values = np.array([float(t) for t in flat]).reshape(n_rows, n_cols)
    except ValueError as exc:
        raise MalformedHeader(f"non-numeric grid value: {exc}") from exc
    if not np.all(np.isfinite(values) | (values == NODATA)):
        raise MalformedHeader("grid values must be finite or the NODATA sentinel")

    try:
        geometry = GridGeometry(
            origin_x=header["xllcenter"],
            origin_y=header["yllcenter"] + (n_rows - 1) * header["cellsize"],
            cell_size=header["cellsize"],
            n_cols=n_cols,
            n_rows=n_rows,
        )
        return DsmGrid(geometry=geometry, values=values)
    except ValueError as exc:
        raise MalformedHeader(str(exc)) from exc


def write_world_file(geom: GridGeometry) -> str:
    """Six-line world file: x scale, two zero rotation terms, negative y
    scale, then the upper-left cell center."""
    return "\n".join(
        [
            repr(float(geom.cell_size)),
            "0.0",
            "0.0",
            repr(-float(geom.cell_size)),
            repr(float(geom.origin_x)),
            repr(float(geom.origin_y)),
        ]
    ) + "\n"
