"""Exception hierarchy for the toolkit.

Two families matter to callers: :class:`InputError` covers malformed or
insufficient input (CLI exit code 2), :class:`SolverError` covers numerical
and geometric failures discovered during computation (CLI exit code 3).
"""


class ShoremapError(Exception):
    """Base class for all toolkit errors."""


class InputError(ShoremapError):
    """Invalid, malformed, or insufficient input data."""


class SolverError(ShoremapError):
    """Numerical or geometric failure during computation."""


# --- geometry ---------------------------------------------------------------

class DegenerateProjection(SolverError):
    """Point maps to the line at infinity under a homography."""


class SingularMatrix(SolverError):
    """Matrix is singular or numerically too close to singular to invert."""


# --- camera model -----------------------------------------------------------

class OutOfModelRange(SolverError):
    """Normalized point lies outside the calibrated distortion domain."""


class BehindCamera(SolverError):
    """Point has non-positive depth and cannot be projected."""


class NonPositiveDisparity(SolverError):
    """Disparity must be positive to convert to depth."""


# --- calibration ------------------------------------------------------------

class DegenerateConfiguration(SolverError):
    """Point configuration does not determine a homography."""


class InsufficientViews(InputError):
    """Too few calibration views for closed-form initialization."""


class UnstableSolution(SolverError):
    """Closed-form intrinsics extraction produced a non-physical solution."""


class SingularIntrinsics(SolverError):
    """Intrinsic matrix is not invertible."""


class DivergedRefinement(SolverError):
    """Nonlinear refinement diverged despite repeated damping increases."""


# --- stereo -----------------------------------------------------------------

class WindowTooLarge(InputError):
    """Census window unsupported or larger than the image."""


class SizeMismatch(InputError):
    """Stereo image pair dimensions disagree."""


class EmptyRange(InputError):
    """Disparity search range is empty."""


class DimensionMismatch(InputError):
    """Raster or map dimensions disagree with their counterpart."""


# --- georectification -------------------------------------------------------

class InsufficientGcps(InputError):
    """Too few ground control points with image observations."""


class EmptyGcpSet(InputError):
    """No ground control points supplied."""


# --- registration -----------------------------------------------------------

class InsufficientPairs(InputError):
    """Too few point pairs for alignment estimation."""


class CollinearPoints(SolverError):
    """Source points are collinear; rotation is under-determined."""


# --- surface ----------------------------------------------------------------

class TooFewPoints(InputError):
    """Fewer than three points; no triangulation exists."""


class CollinearInput(SolverError):
    """All points collinear in the xy-plane; no triangulation exists."""


class GridTooLarge(InputError, ValueError):
    """Requested raster exceeds the cell cap; also a ValueError,
    like the grid's other validation failures."""


class InvalidPolygon(InputError):
    """Clip polygon ring is open, self-intersecting or degenerate."""


class OpenRing(InvalidPolygon):
    """Polygon ring is not closed."""


class SelfIntersection(InvalidPolygon):
    """Polygon ring intersects itself."""


# --- formats ----------------------------------------------------------------

class CoordinateOverflow(InputError):
    """Coordinate does not fit the LAS 32-bit quantized representation."""


class BadSignature(InputError):
    """LAS file signature is not 'LASF'."""


class UnsupportedVersionOrFormat(InputError):
    """LAS version or point format outside what this toolkit reads."""


class TruncatedFile(InputError):
    """File ends before the data its header promises."""


class MalformedHeader(InputError):
    """Header or key-value content of a text/binary format is malformed."""


class DuplicateId(InputError):
    """Identifier appears more than once where uniqueness is required."""


class MalformedRow(InputError):
    """CSV row has the wrong shape or non-numeric fields."""


class WktSyntaxError(InputError):
    """WKT polygon text cannot be parsed."""
