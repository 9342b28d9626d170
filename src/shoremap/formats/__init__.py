"""Readers and writers for every interchange format the pipeline touches:
LAS 1.2 PF2, ESRI ASCII grid, world files, PGM/PPM, GCP/pair/corner CSVs,
WKT polygons, and the calibration key-value file.

All readers accept bytes (or text where sensible) and either return a
value or raise a typed error from :mod:`shoremap.errors`; they never leak
bare exceptions on malformed input.
"""

from .calibfile import read_calibration, write_calibration
from .images import read_pgm, read_ppm, write_pgm, write_ppm
from .las import read_las, write_las
from .raster import (
    read_asc,
    read_world_file,
    write_asc,
    write_world_file,
)
from .tables import (
    parse_corner_csv,
    parse_gcp_csv,
    parse_pair_csv,
    write_corner_csv,
    write_gcp_csv,
    write_pair_csv,
)
from .wkt import parse_wkt_polygon

__all__ = [
    "read_calibration", "write_calibration",
    "read_pgm", "read_ppm", "write_pgm", "write_ppm",
    "read_las", "write_las",
    "read_asc", "write_asc", "read_world_file", "write_world_file",
    "parse_gcp_csv", "write_gcp_csv",
    "parse_pair_csv", "write_pair_csv",
    "parse_corner_csv", "write_corner_csv",
    "parse_wkt_polygon",
]
