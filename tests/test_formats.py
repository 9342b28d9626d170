"""Format round-trip, error, and fuzz-robustness tests."""

import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoremap.camera import CameraIntrinsics
from shoremap.errors import (
    BadSignature,
    CoordinateOverflow,
    DimensionMismatch,
    DuplicateId,
    InvalidPolygon,
    MalformedHeader,
    MalformedRow,
    OpenRing,
    SelfIntersection,
    ShoremapError,
    TruncatedFile,
    UnsupportedVersionOrFormat,
    WktSyntaxError,
)
from shoremap.formats import las as las_module
from shoremap.formats import (
    parse_corner_csv,
    parse_gcp_csv,
    parse_pair_csv,
    parse_wkt_polygon,
    read_asc,
    read_calibration,
    read_las,
    read_pgm,
    read_ppm,
    write_asc,
    write_calibration,
    write_corner_csv,
    write_gcp_csv,
    write_las,
    write_pair_csv,
    write_pgm,
    write_ppm,
    write_world_file,
)
from shoremap.geometry import GridGeometry, Point2
from shoremap.registration import PointPairSet
from shoremap.stereo import GrayImage, PointCloud, RgbaImage
from shoremap.surface import DsmGrid


def _random_cloud(rng, n=1000, span=100.0):
    xyz = (rng.random((n, 3)) - 0.5) * span
    colors = rng.integers(0, 256, (n, 4), dtype=np.uint8)
    return PointCloud(xyz=xyz, colors=colors)


class TestLas:
    def test_empty_cloud_header_only(self):
        data = write_las(PointCloud(xyz=np.zeros((0, 3))))
        assert len(data) == 227
        assert struct.unpack_from("<I", data, 107)[0] == 0
        assert read_las(data).xyz.shape == (0, 3)

    def test_quantization(self):
        cloud = PointCloud(xyz=np.array([[1.234, 5.678, 9.012], [1.5, 5.0, 10.0]]))
        data = write_las(cloud)
        assert struct.unpack_from("<3d", data, 131) == (0.0001,) * 3
        assert struct.unpack_from("<3d", data, 155) == (1.0, 5.0, 9.0)
        assert struct.unpack_from("<3i", data, 227) == (2340, 6780, 120)
        assert struct.unpack_from("<3i", data, 227 + 26) == (5000, 0, 10000)

    def test_round_trip_within_quantum(self):
        rng = np.random.default_rng(1)
        cloud = _random_cloud(rng, 10000)
        back = read_las(write_las(cloud))
        assert np.abs(back.xyz - cloud.xyz).max() <= 0.00005 + 1e-12
        assert np.array_equal(back.colors[:, :3], cloud.colors[:, :3])
        assert (back.colors[:, 3] == 255).all()

    def test_bounds_contain_points(self):
        rng = np.random.default_rng(2)
        cloud = _random_cloud(rng, 500)
        data = write_las(cloud)
        max_x, min_x, max_y, min_y, max_z, min_z = struct.unpack_from("<6d", data, 179)
        back = read_las(data)
        for axis, (lo, hi) in enumerate(((min_x, max_x), (min_y, max_y), (min_z, max_z))):
            assert back.xyz[:, axis].min() == lo
            assert back.xyz[:, axis].max() == hi

    def test_coordinate_overflow(self):
        """An axis holds spans up to 2^31 - 1 quanta of 0.1 mm; one
        more quantum overflows."""
        data = write_las(_extreme_cloud())
        q = np.frombuffer(data, dtype=las_module._POINT_DTYPE, offset=227)["xyz"]
        assert (q.min(axis=0) == 0).all()
        assert (q.max(axis=0) == 2 ** 31 - 1).all()
        span = 2 ** 31 * las_module.SCALE
        cloud = PointCloud(xyz=np.array([[7.0, 0.0, 0.0], [7.0, span, 0.0]]))
        with pytest.raises(CoordinateOverflow, match="axis 1"):
            write_las(cloud)

    def test_survey_coordinates_round_trip(self):
        """A cloud at UTM-sized eastings and northings fits the 32-bit
        range through its floor offsets."""
        rng = np.random.default_rng(4)
        xyz = rng.random((1000, 3)) * [300.0, 200.0, 15.0]
        xyz += [500000.25, 5200000.75, -3.5]
        cloud = PointCloud(xyz=xyz)
        data = write_las(cloud)
        assert struct.unpack_from("<3d", data, 131) == (0.0001,) * 3
        assert struct.unpack_from("<3d", data, 155) == tuple(
            np.floor(xyz.min(axis=0))
        )
        back = read_las(data)
        assert np.abs(back.xyz - cloud.xyz).max() <= 0.00005 + 1e-9

    def test_bad_signature(self):
        data = bytearray(write_las(PointCloud(xyz=np.zeros((0, 3)))))
        data[0:4] = b"XXXX"
        with pytest.raises(BadSignature):
            read_las(bytes(data))

    def test_unsupported_version(self):
        data = bytearray(write_las(PointCloud(xyz=np.zeros((0, 3)))))
        data[25] = 4
        with pytest.raises(UnsupportedVersionOrFormat):
            read_las(bytes(data))

    @pytest.mark.parametrize("field, at, value, error", [
        ("<B", 104, 3, UnsupportedVersionOrFormat),  # point format
        ("<H", 105, 28, UnsupportedVersionOrFormat),  # point record length
        ("<I", 96, 226, MalformedHeader),  # point data offset inside the header
        ("<d", 131, float("inf"), MalformedHeader),  # x scale: decodes to inf
    ])
    def test_header_fields_checked(self, field, at, value, error):
        data = bytearray(write_las(_random_cloud(np.random.default_rng(5), 3)))
        struct.pack_into(field, data, at, value)
        with pytest.raises(error):
            read_las(bytes(data))

    def test_truncated_records(self):
        rng = np.random.default_rng(3)
        cloud = _random_cloud(rng, 100)
        data = write_las(cloud)
        with pytest.raises(TruncatedFile):
            read_las(data[:-26])

    def test_point_data_after_a_record_reads_the_same_cloud(self):
        """Point data at a declared offset past the header, after one
        54-byte variable-length record, reads as the same cloud."""
        data = write_las(_random_cloud(np.random.default_rng(6), 50))
        gapped = bytearray(data[:227] + bytes(range(54)) + data[227:])
        struct.pack_into("<I", gapped, 96, 227 + 54)  # offset to point data
        struct.pack_into("<I", gapped, 100, 1)  # number of VLRs
        plain, back = read_las(data), read_las(bytes(gapped))
        np.testing.assert_array_equal(back.xyz, plain.xyz)
        np.testing.assert_array_equal(back.colors, plain.colors)

    def test_foreign_scale_and_offset_are_honoured_exactly(self):
        """A scale and offset other than the writer's decode each stored
        integer q to q * scale + offset, as Python floats compute it."""
        q = [[0, 0, 0], [1, -1, 7], [123456789, -2 ** 31, 2 ** 31 - 1], [-5, 40000, 3]]
        scale, offset = (0.001, 0.001, 0.01), (500000.0, 5200000.0, -10.0)
        records = np.zeros(len(q), dtype=las_module._POINT_DTYPE)
        records["xyz"] = q
        data = _las_with_records(records)
        struct.pack_into("<3d", data, 131, *scale)
        struct.pack_into("<3d", data, 155, *offset)
        assert read_las(bytes(data)).xyz.tolist() == [
            [v * s + o for v, s, o in zip(row, scale, offset)] for row in q
        ]

    def test_every_16_bit_colour_rounds_to_the_nearest_8_bit(self):
        c = np.arange(65538) % 65536
        records = np.zeros(len(c) // 3, dtype=las_module._POINT_DTYPE)
        records["rgb"] = c.reshape(-1, 3)
        colors = read_las(bytes(_las_with_records(records))).colors
        assert colors[:, :3].ravel().tolist() == [round(v / 257) for v in c.tolist()]
        assert (colors[:, 3] == 255).all()

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=0, max_value=50), seed=st.integers(0, 2**16))
    def test_round_trip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        cloud = _random_cloud(rng, n, span=10.0)
        back = read_las(write_las(cloud))
        assert len(back) == n
        if n:
            assert np.abs(back.xyz - cloud.xyz).max() <= 0.00005 + 1e-12
            assert np.array_equal(back.colors[:, :3], cloud.colors[:, :3])


def _las_with_records(records: np.ndarray) -> bytearray:
    """write_las's header for len(records) points, then the records."""
    data = bytearray(write_las(PointCloud(xyz=np.zeros((len(records), 3)))))
    data[las_module.HEADER_SIZE:] = records.tobytes()
    return data


def _write_las_loop(cloud: PointCloud) -> bytes:
    """Reference: the per-point struct.pack_into writer that write_las's
    structured-dtype body replaced, at SCALE on every axis from
    per-axis floor offsets."""
    s = (las_module.SCALE,) * 3
    xyz = cloud.xyz
    n = xyz.shape[0]
    o = tuple(
        float(np.floor(xyz[:, axis].min())) if n else 0.0 for axis in range(3)
    )
    quantized = np.empty((n, 3), dtype=np.int64)
    for axis in range(3):
        q = np.rint((xyz[:, axis] - o[axis]) / s[axis])
        if q.size and (np.abs(q) >= 2 ** 31).any():
            raise CoordinateOverflow("overflow")
        quantized[:, axis] = q.astype(np.int64)

    if n:
        dequant = quantized * np.array(s) + np.array(o)
        mins = dequant.min(axis=0)
        maxs = dequant.max(axis=0)
    else:
        mins = maxs = np.zeros(3)

    header = bytearray(las_module.HEADER_SIZE)
    header[0:4] = las_module.SIGNATURE
    struct.pack_into("<H", header, 4, 0)
    struct.pack_into("<H", header, 6, 0)
    header[24] = 1
    header[25] = 2
    header[26:26 + len(las_module._SYSTEM_ID)] = las_module._SYSTEM_ID
    header[58:58 + len(las_module._SOFTWARE)] = las_module._SOFTWARE
    struct.pack_into("<H", header, 90, 0)
    struct.pack_into("<H", header, 92, 0)
    struct.pack_into("<H", header, 94, las_module.HEADER_SIZE)
    struct.pack_into("<I", header, 96, las_module.HEADER_SIZE)
    struct.pack_into("<I", header, 100, 0)
    header[104] = las_module.POINT_FORMAT
    struct.pack_into("<H", header, 105, las_module.POINT_RECORD_LENGTH)
    struct.pack_into("<I", header, 107, n)
    struct.pack_into("<5I", header, 111, n, 0, 0, 0, 0)
    struct.pack_into("<3d", header, 131, *s)
    struct.pack_into("<3d", header, 155, *o)
    struct.pack_into(
        "<6d", header, 179,
        maxs[0], mins[0], maxs[1], mins[1], maxs[2], mins[2],
    )

    body = bytearray(n * las_module.POINT_RECORD_LENGTH)
    colors16 = cloud.colors[:, :3].astype(np.uint16) * 257
    for i in range(n):
        struct.pack_into(
            "<3iHBBbBH3H",
            body,
            i * las_module.POINT_RECORD_LENGTH,
            int(quantized[i, 0]),
            int(quantized[i, 1]),
            int(quantized[i, 2]),
            0,
            0b00001001,
            0,
            0,
            0,
            0,
            int(colors16[i, 0]),
            int(colors16[i, 1]),
            int(colors16[i, 2]),
        )
    return bytes(header) + bytes(body)


def _extreme_cloud():
    """Quantized values 0 and 2**31 - 1 on every axis at survey-sized
    offsets, colors 0 and 255."""
    span = (2 ** 31 - 1) * las_module.SCALE
    lo = np.array([500000.0, 5200000.0, -12.0])
    xyz = lo + np.array([[span, 0.0, 0.0], [0.0, span, span], [0.5 * span, 0.0, 0.0]])
    colors = np.array(
        [[0, 0, 0, 0], [255, 255, 255, 255], [0, 255, 0, 128]], dtype=np.uint8
    )
    return PointCloud(xyz=xyz, colors=colors)


def _survey_cloud():
    """777 random points moved to E 500,000 m, N 5,200,000 m."""
    cloud = _random_cloud(np.random.default_rng(2), 777)
    return PointCloud(
        xyz=cloud.xyz + [500000.3, 5200000.7, -1.5], colors=cloud.colors
    )


def _mixed_span_cloud():
    """Spans of 10 km, 1 cm and 150 km on the three axes, minima on
    both sides of zero."""
    rng = np.random.default_rng(3)
    xyz = rng.random((5000, 3)) * [1e4, 0.01, 1.5e5] + [-2500.5, 3.25, -7.0]
    return PointCloud(xyz=xyz, colors=rng.integers(0, 256, (5000, 4), dtype=np.uint8))


@pytest.mark.parametrize(
    "make",
    [
        lambda: PointCloud(xyz=np.zeros((0, 3))),
        lambda: _random_cloud(np.random.default_rng(0), 1),
        lambda: _random_cloud(np.random.default_rng(1), 1000),
        _survey_cloud,
        _mixed_span_cloud,
        _extreme_cloud,
    ],
    ids=["empty", "one", "random", "offset", "mixed_scale", "extremes"],
)
def test_write_las_matches_loop(make):
    cloud = make()
    assert write_las(cloud) == _write_las_loop(cloud)


def _las_bounds_axis0(cloud: PointCloud) -> bytes:
    """Header bytes 155-226, the offsets and the bounds, as write_las
    took them before it reduced a column at a time: along axis 0 of the
    (n, 3) arrays."""
    xyz = cloud.xyz
    offset = np.floor(xyz.min(axis=0))
    quantized = np.rint((xyz - offset) / las_module.SCALE)
    mins = quantized.min(axis=0) * las_module.SCALE + offset
    maxs = quantized.max(axis=0) * las_module.SCALE + offset
    return struct.pack("<3d", *offset) + struct.pack(
        "<6d", maxs[0], mins[0], maxs[1], mins[1], maxs[2], mins[2]
    )


def _integer_cloud():
    """Integer coordinates, so that each axis's minimum is its own floor,
    on both sides of zero."""
    rng = np.random.default_rng(4)
    return PointCloud(xyz=rng.integers(-50, 50, (3000, 3)).astype(np.float64) + [0.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "make",
    [
        lambda: _random_cloud(np.random.default_rng(0), 1),
        lambda: _random_cloud(np.random.default_rng(1), 1000),
        lambda: _random_cloud(np.random.default_rng(5), 100_000, 3.0),
        _survey_cloud,
        _mixed_span_cloud,
        _extreme_cloud,
        _integer_cloud,
    ],
    ids=["one", "random", "stereo_sized", "offset", "mixed_scale", "extremes", "integers"],
)
def test_write_las_bounds_match_axis0_form(make):
    """The column-wise minima and maxima give the header bytes of the
    axis-0 reductions they replaced."""
    cloud = make()
    assert write_las(cloud)[155:las_module.HEADER_SIZE] == _las_bounds_axis0(cloud)


@pytest.mark.parametrize(
    "column", [[-0.0, 0.0, 1.0], [0.0, -0.0, 2.0], [-0.0, -0.0, 0.5], [0.0] * 40 + [-0.0] + [3.0] * 40]
)
def test_write_las_zero_minimum_offset_is_positive_zero(column):
    """An axis whose minimum is 0.0 or -0.0, in any order: its offset is
    +0.0 (the sign of a zero minimum depends on the reduction order),
    and the points read back."""
    col = np.array(column)
    xyz = np.column_stack([col, col[::-1], -col])
    data = write_las(PointCloud(xyz=xyz))
    offset = struct.unpack_from("<3d", data, 155)
    assert [np.signbit(o) for o in offset] == [False, False, offset[2] < 0]
    assert struct.unpack_from("<6d", data, 179)[1] == 0.0
    np.testing.assert_array_equal(read_las(data).xyz, xyz)


def _write_asc_loop(d: DsmGrid) -> str:
    """Reference: write_asc as it was, one f-string per cell."""
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
    for row in d.values:
        lines.append(" ".join("-9999" if v == -9999.0 else f"{v:.3f}" for v in row))
    return "\n".join(lines) + "\n"


def _asc_random():
    rng = np.random.default_rng(12)
    values = rng.normal(0.0, 50.0, (7, 13))
    values[rng.random(values.shape) < 0.3] = -9999.0
    return values


def _asc_edges():
    """Signed zeros, -0.0005, the rounding-edge halves (none exact in
    binary) and 1e15, beside NODATA cells."""
    row = [0.0, -0.0, -0.0005, 0.0005, 0.0015, 2.0005, -2.0005, 1e15, -1e15]
    return np.array([row, row[::-1], [-9999.0] * 4 + row[4:]])


def _asc_whole_rows():
    """An all-NODATA row between two all-data rows."""
    values = np.arange(24.0).reshape(3, 8) / 7.0 - 1.5
    values[1] = -9999.0
    return values


@pytest.mark.parametrize(
    "make",
    [_asc_random, _asc_edges, _asc_whole_rows,
     lambda: np.array([[-9999.0], [0.0015], [-9999.0]])],
    ids=["random", "edges", "whole_rows", "one_column"],
)
def test_write_asc_matches_loop(make):
    values = make()
    n_rows, n_cols = values.shape
    geom = GridGeometry(
        origin_x=500000.25, origin_y=5200000.5, cell_size=0.25,
        n_cols=n_cols, n_rows=n_rows,
    )
    grid = DsmGrid(geometry=geom, values=values)
    assert write_asc(grid) == _write_asc_loop(grid)


class TestAsc:
    def test_single_cell_format(self):
        geom = GridGeometry(origin_x=0.0, origin_y=0.0, cell_size=1.0, n_cols=1, n_rows=1)
        text = write_asc(DsmGrid(geometry=geom, values=np.array([[5.0]])))
        lines = text.splitlines()
        assert lines[:6] == [
            "ncols 1", "nrows 1", "xllcenter 0.0", "yllcenter 0.0",
            "cellsize 1.0", "nodata_value -9999",
        ]
        assert lines[6] == "5.000"

    def test_round_trip_quantization(self):
        rng = np.random.default_rng(4)
        geom = GridGeometry(
            origin_x=5.0, origin_y=9.0, cell_size=0.5, n_cols=11, n_rows=9
        )
        values = rng.random((9, 11)) * 100 - 50
        values[3, 4] = -9999.0
        back = read_asc(write_asc(DsmGrid(geometry=geom, values=values)))
        mask = values != -9999.0
        assert np.abs(back.values[mask] - values[mask]).max() <= 5e-4
        assert back.values[3, 4] == -9999.0
        assert back.geometry == geom

    def test_nodata_token(self):
        geom = GridGeometry(origin_x=0.0, origin_y=0.0, cell_size=1.0, n_cols=1, n_rows=1)
        text = write_asc(DsmGrid(geometry=geom, values=np.array([[-9999.0]])))
        assert text.splitlines()[6] == "-9999"

    def test_malformed_header(self):
        with pytest.raises(MalformedHeader):
            read_asc("ncols 2\nnrows 2\n")
        with pytest.raises(MalformedHeader):
            read_asc("ncols x\nnrows 1\nxllcenter 0\nyllcenter 0\ncellsize 1\nnodata_value -9999\n1")

    @pytest.mark.parametrize("lines, match", [
        ({0: "ncols 2.5"}, "integers"),
        ({1: "nrows 0"}, "positive"),
        ({5: "nodata_value -1"}, "nodata_value must be -9999"),
        ({6: "1 nan"}, "finite or the NODATA sentinel"),
        ({4: "cellsize 0"}, "cell_size must be positive"),
        ({2: "xllcenter 1e308", 4: "cellsize 1e308"}, "cell centres must be finite"),
    ])
    def test_header_checks(self, lines, match):
        text = ["ncols 2", "nrows 1", "xllcenter 0", "yllcenter 0", "cellsize 1",
                "nodata_value -9999", "1 2"]
        for i, line in lines.items():
            text[i] = line
        with pytest.raises(MalformedHeader, match=match):
            read_asc("\n".join(text))

    def test_token_count_mismatch(self):
        text = (
            "ncols 2\nnrows 2\nxllcenter 0\nyllcenter 0\ncellsize 1\n"
            "nodata_value -9999\n1 2 3\n"
        )
        with pytest.raises(DimensionMismatch):
            read_asc(text)


class TestWorldFile:
    def test_content(self):
        geom = GridGeometry(
            origin_x=680000.0, origin_y=3075000.0, cell_size=0.05,
            n_cols=10, n_rows=10,
        )
        lines = write_world_file(geom).splitlines()
        assert [float(v) for v in lines] == [
            0.05, 0.0, 0.0, -0.05, 680000.0, 3075000.0,
        ]


class TestNetpbm:
    def test_pgm_round_trip_bit_exact(self):
        rng = np.random.default_rng(5)
        img = GrayImage(rng.integers(0, 256, (7, 9)).astype(float) / 255.0)
        back = read_pgm(write_pgm(img))
        assert np.array_equal(back.pixels, img.pixels)

    def test_ppm_round_trip_rgb_bit_exact(self):
        rng = np.random.default_rng(6)
        px = rng.integers(0, 256, (7, 9, 4), dtype=np.uint8)
        img = RgbaImage(px)
        back = read_ppm(write_ppm(img))
        assert np.array_equal(back.pixels[:, :, :3], px[:, :, :3])
        assert (back.pixels[:, :, 3] == 255).all()

    def test_comments_in_header(self):
        img = read_pgm(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
        assert img.pixels.shape == (2, 2)

    def test_bad_magic(self):
        with pytest.raises(MalformedHeader):
            read_pgm(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(MalformedHeader):
            read_ppm(b"P5\n1 1\n255\n\x00")

    def test_bad_maxval(self):
        with pytest.raises(MalformedHeader):
            read_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_truncated(self):
        with pytest.raises(TruncatedFile):
            read_pgm(b"P5\n4 4\n255\n\x00\x01")

    # (reader, magic, channels) for both formats, and samples whose first
    # bytes are whitespace, which the header must not consume.
    FORMATS = [(read_pgm, b"P5", 1), (read_ppm, b"P6", 3)]
    SAMPLES = bytes(range(10, 28))

    @pytest.mark.parametrize("reader, magic, channels", FORMATS)
    @pytest.mark.parametrize("header, first", [
        (b"#w\n3\n#h\n2\n#maxval\n255\n", b""),
        (b"\n# 9 9 255\n3 # 8\n# 7\n2#\n255\n", b""),
        (b"\r3\x0b2\x0c255\r", b""),
        (b"3 2 255\n", b""),
        (b"\n3 2 255\n", b"\n"),
        (b" 3 2 255\r", b"\n"),
    ], ids=["comment-before-each-field", "comments-with-digits", "cr-vt-ff",
            "digits-after-magic", "second-newline-is-a-sample",
            "lf-after-cr-is-a-sample"])
    def test_accepted_headers_give_the_canonical_pixels(
        self, reader, magic, channels, header, first
    ):
        """Every separator the grammar accepts reads the samples that follow
        the canonical header; one whitespace byte ends the header, so a
        second one (`first`) is the first sample."""
        body = (first + self.SAMPLES)[:3 * 2 * channels]
        assert np.array_equal(reader(magic + header + body).pixels,
                              reader(magic + b"\n3 2\n255\n" + body).pixels)

    @pytest.mark.parametrize("reader, magic, channels", FORMATS)
    @pytest.mark.parametrize("end", [b"x", b"#c\n"])
    def test_non_whitespace_after_maxval_is_malformed(self, reader, magic, channels, end):
        with pytest.raises(MalformedHeader):
            reader(magic + b" 1 1 255" + end + self.SAMPLES[:channels])

    @pytest.mark.parametrize("reader, magic, channels", FORMATS)
    def test_header_cut_at_every_byte_is_malformed(self, reader, magic, channels):
        """A header that ends early, in a field, a separator or an
        unterminated comment, is malformed, not a short sample block."""
        header = magic + b" #c\n3\t# 2 255\n2\n255\n"
        for cut in range(len(header)):
            with pytest.raises(MalformedHeader):
                reader(header[:cut])

    @pytest.mark.parametrize("reader, magic, channels", FORMATS)
    @pytest.mark.parametrize("field", ["width", "maxval"])
    def test_field_too_long_for_int_is_malformed(self, reader, magic, channels, field):
        """A field of 4,301 digits is more than int() converts by default."""
        long = b"1" * 4301
        header = magic + (b" %s 1 255\n" % long if field == "width" else b" 1 1 %s\n" % long)
        with pytest.raises(MalformedHeader):
            reader(header + self.SAMPLES[:channels])

    @pytest.mark.parametrize("reader, magic, channels", FORMATS)
    def test_image_too_large_for_its_data_is_truncated(self, reader, magic, channels):
        """The sample count of a 4,300-digit width has more digits than
        str() converts; the error still names the short data."""
        with pytest.raises(TruncatedFile):
            reader(magic + b" %s 9 255\n" % (b"9" * 4300) + self.SAMPLES)


class TestGcpCsv:
    def test_full_row(self):
        gcps = parse_gcp_csv(
            "id,easting,northing,elevation,px,py\n"
            "g1,680000.10,3075000.20,1.50,812.3,455.7\n"
        )
        assert gcps[0].world == (680000.10, 3075000.20, 1.50)
        assert gcps[0].image == (812.3, 455.7)

    def test_row_without_observation(self):
        gcps = parse_gcp_csv(
            "id,easting,northing,elevation,px,py\ng1,1,2,3,,\n"
        )
        assert gcps[0].image is None

    def test_four_column_header(self):
        gcps = parse_gcp_csv("id,easting,northing,elevation\ng1,1,2,3\n")
        assert gcps[0].image is None

    def test_duplicate_id(self):
        text = "id,easting,northing,elevation,px,py\ng1,1,2,3,,\ng1,4,5,6,,\n"
        with pytest.raises(DuplicateId):
            parse_gcp_csv(text)

    def test_malformed_rows(self):
        with pytest.raises(MalformedRow):
            parse_gcp_csv("id,easting,northing,elevation,px,py\ng1,1,2\n")
        with pytest.raises(MalformedRow):
            parse_gcp_csv("id,easting,northing,elevation,px,py\ng1,a,2,3,,\n")
        with pytest.raises(MalformedRow):
            parse_gcp_csv("id,easting,northing,elevation,px,py\ng1,nan,2,3,,\n")
        with pytest.raises(MalformedRow, match="^GCP file has no data rows$"):
            parse_gcp_csv("id,easting,northing,elevation,px,py\n\n")

    def test_round_trip(self):
        text = (
            "id,easting,northing,elevation,px,py\n"
            "g1,680000.1,3075000.2,1.5,812.3,455.7\ng2,1.0,2.0,3.0,,\n"
        )
        gcps = parse_gcp_csv(text)
        assert parse_gcp_csv(write_gcp_csv(gcps)) == gcps


class TestPairCsv:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        pairs = PointPairSet(
            ids=("a", "b", "c"),
            source=rng.random((3, 3)),
            target=rng.random((3, 3)),
        )
        back = parse_pair_csv(write_pair_csv(pairs))
        assert back.ids == pairs.ids
        np.testing.assert_array_equal(back.source, pairs.source)
        np.testing.assert_array_equal(back.target, pairs.target)

    def test_utm_scale_sources_accepted(self):
        # Sources a and b lie 3.6 m apart at projected-world scale.
        text = (
            "id,sx,sy,sz,tx,ty,tz\n"
            "a,500000,4000000,12,500001,4000001,13\n"
            "b,500002,4000003,12,500003,4000004,13\n"
            "c,500040,4000010,11,500041,4000011,12\n"
        )
        pairs = parse_pair_csv(text)
        assert pairs.ids == ("a", "b", "c")
        np.testing.assert_array_equal(pairs.source[1], [500002.0, 4000003.0, 12.0])

    def test_duplicate_id(self):
        text = "id,sx,sy,sz,tx,ty,tz\np,0,0,0,1,1,1\np,1,0,0,2,1,1\n"
        with pytest.raises(DuplicateId):
            parse_pair_csv(text)

    def test_bad_header(self):
        with pytest.raises(MalformedHeader):
            parse_pair_csv("id,x,y,z\n")


class TestCornerCsv:
    def test_round_trip(self):
        views = [
            [Point2(1.0, 2.0), Point2(3.0, 4.0)],
            [Point2(5.0, 6.0), Point2(7.0, 8.0)],
        ]
        assert parse_corner_csv(write_corner_csv(views)) == views

    def test_dense_complete_enforced(self):
        # Missing corner 1 of view 0.
        text = "view_index,corner_index,px,py\n0,0,1,2\n1,0,3,4\n1,1,5,6\n"
        with pytest.raises(MalformedRow):
            parse_corner_csv(text)
        # Missing view 1 of 0..2.
        text = "view_index,corner_index,px,py\n0,0,1,2\n2,0,3,4\n"
        with pytest.raises(MalformedRow):
            parse_corner_csv(text)

    def test_duplicate_corner(self):
        text = "view_index,corner_index,px,py\n0,0,1,2\n0,0,3,4\n"
        with pytest.raises(DuplicateId):
            parse_corner_csv(text)


class TestWkt:
    def test_simple_polygon(self):
        poly = parse_wkt_polygon("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
        assert len(poly.rings) == 1

    def test_hole_between_whitespace(self):
        poly = parse_wkt_polygon(
            "POLYGON(\n (0 0, 4 0, 4 4, 0 4, 0 0) ,\t(1 1, 2 1, 2 2, 1 1) )"
        )
        assert [len(r) for r in poly.rings] == [5, 4]

    def test_open_ring(self):
        with pytest.raises(OpenRing):
            parse_wkt_polygon("POLYGON ((0 0, 4 0, 4 4, 0 4))")

    def test_self_intersection(self):
        with pytest.raises(SelfIntersection):
            parse_wkt_polygon("POLYGON ((0 0, 2 2, 2 0, 0 2, 0 0))")

    @pytest.mark.parametrize("text", [
        "POLYGON ((0 0, 1 0, 0 0))",
        "POLYGON ((0 0, 4 0, inf 4, 0 0))",
    ])
    def test_invalid_ring(self, text):
        # ClipPolygon is the one validator of rings; the parser checks syntax.
        with pytest.raises(InvalidPolygon):
            parse_wkt_polygon(text)

    def test_syntax_errors(self):
        for text in ("LINESTRING (0 0, 1 1)", "POLYGON 0 0", "POLYGON (())",
                     "POLYGON ((0 0, 1 0, 1 1, 0 0 0))",
                     # OGC WKT: exactly one comma between rings, none around.
                     "POLYGON (, (0 0, 4 0, 4 4, 0 0),,)",
                     "POLYGON ((0 0, 4 0, 4 4, 0 0)(1 1, 2 1, 2 2, 1 1))",
                     "POLYGON ((0 0, 4 0, 4 4, 0 0),)"):
            with pytest.raises(WktSyntaxError):
                parse_wkt_polygon(text)


class TestCalibrationFile:
    INTR = CameraIntrinsics(
        fx=1060.7, fy=1060.7, cx=950.42, cy=572.89,
        k1=0.0046, k2=-0.0715, k3=0.1904, p1=-0.0003, p2=-0.0019,
        image_width=1920, image_height=1080,
    )

    def test_exact_round_trip(self):
        rig = read_calibration(write_calibration(self.INTR, 0.12))
        assert rig.intrinsics == self.INTR
        assert rig.baseline == 0.12

    def test_comments_and_blank_lines_skipped(self):
        text = write_calibration(self.INTR, 0.12).replace("\n", "\n\n  # note\n", 3)
        assert read_calibration("# camera\n\n" + text + "#\n") == read_calibration(
            write_calibration(self.INTR, 0.12)
        )

    def test_unknown_key_rejected(self):
        text = write_calibration(self.INTR, 0.12) + "skew = 0.0\n"
        with pytest.raises(MalformedHeader):
            read_calibration(text)

    def test_missing_key_rejected(self):
        lines = write_calibration(self.INTR, 0.12).splitlines()
        with pytest.raises(MalformedHeader):
            read_calibration("\n".join(lines[:-1]))

    def test_duplicate_key_rejected(self):
        text = write_calibration(self.INTR, 0.12)
        with pytest.raises(MalformedHeader):
            read_calibration(text + "fx = 5.0\n")


PARSERS = [
    read_las,
    read_asc,
    read_pgm,
    read_ppm,
    parse_gcp_csv,
    parse_pair_csv,
    parse_corner_csv,
    parse_wkt_polygon,
    read_calibration,
]


def _seed_corpus():
    rng = np.random.default_rng(8)
    cloud = _random_cloud(rng, 20, span=10.0)
    geom = GridGeometry(origin_x=0.0, origin_y=4.0, cell_size=1.0, n_cols=5, n_rows=5)
    intr = CameraIntrinsics(fx=100, fy=100, cx=50, cy=50,
                            image_width=100, image_height=100)
    return [
        write_las(cloud),
        write_asc(DsmGrid(geometry=geom, values=rng.random((5, 5)))).encode(),
        write_pgm(GrayImage(rng.random((6, 6)))),
        write_ppm(RgbaImage(rng.integers(0, 256, (6, 6, 4), dtype=np.uint8))),
        b"id,easting,northing,elevation,px,py\ng1,1,2,3,4,5\n",
        b"id,sx,sy,sz,tx,ty,tz\np1,0,0,0,1,1,1\n",
        b"view_index,corner_index,px,py\n0,0,1,2\n0,1,3,4\n",
        b"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
        write_calibration(intr, 0.12).encode(),
    ]


class TestFuzz:
    def test_parsers_only_raise_typed_errors(self):
        """10,000 adversarial inputs across every parser: each call must
        return a value or raise a ShoremapError subclass, quickly."""
        rng = np.random.default_rng(2024)
        corpus = _seed_corpus()
        iterations = 10_000
        for i in range(iterations):
            parser = PARSERS[i % len(PARSERS)]
            mode = i // len(PARSERS) % 5
            if mode == 0:
                data = rng.integers(0, 256, rng.integers(0, 300), dtype=np.uint8
                                    ).tobytes()
            elif mode == 1:
                base = bytearray(corpus[i % len(corpus)])
                n_flips = rng.integers(1, 8, endpoint=True)
                for _ in range(n_flips):
                    if not base:
                        break
                    base[rng.integers(0, len(base))] = rng.integers(0, 256)
                data = bytes(base)
            elif mode == 2:
                base = corpus[i % len(corpus)]
                data = base[: rng.integers(0, len(base) + 1)]
            elif mode == 3:
                a = corpus[rng.integers(0, len(corpus))]
                b = corpus[rng.integers(0, len(corpus))]
                data = a[: len(a) // 2] + b[len(b) // 2:]
            else:
                printable = rng.integers(32, 127, rng.integers(0, 200),
                                         dtype=np.uint8).tobytes()
                data = printable
            start = time.perf_counter()
            try:
                parser(data)
            except ShoremapError:
                pass
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, (
                f"{parser.__name__} took {elapsed:.2f}s on fuzz input {i}"
            )
