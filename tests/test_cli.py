"""CLI contract tests: exit codes, artifacts, report fragments."""

import dataclasses
import json
import struct
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from shoremap import cli, errors, pipeline, surface
from shoremap.calibration import BoardSpec
from shoremap.camera import CameraIntrinsics, distort_pixels
from shoremap.cli import main
from shoremap.errors import InputError, SolverError
from shoremap.formats import (
    parse_gcp_csv,
    read_asc,
    read_las,
    read_ppm,
    write_calibration,
    write_corner_csv,
    write_gcp_csv,
    write_las,
    write_pair_csv,
    write_pgm,
    write_ppm,
)
from shoremap.formats.las import HEADER_SIZE
from shoremap.geometry import Point2, Point3
from shoremap.georectify import Gcp
from shoremap.registration import PointPairSet
from shoremap.stereo import GrayImage, PointCloud, RgbaImage, match_disparity
from shoremap.surface import NODATA, build_tin, vertical_check

from synth import FACTORY_INTRINSICS, BeachScene, make_calibration_views

BOARD = BoardSpec(cols=9, rows=6, square_size=0.025)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    scene = BeachScene(seed=3, width=160, height=120)
    root = tmp_path_factory.mktemp("scene")
    paths = scene.write_fixture(root)
    return scene, paths


def _run_report_schema():
    schema = resources.files("shoremap").joinpath("schemas/run_report.schema.json")
    return json.loads(schema.read_text())


def _write_corner_fixture(path, n_views=5, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    views, _ = make_calibration_views(FACTORY_INTRINSICS, BOARD, n_views, noise, rng)
    path.write_text(write_corner_csv([list(v.image_points) for v in views]))


class TestCalibrate:
    def test_happy_path(self, tmp_path, capsys):
        corners = tmp_path / "corners.csv"
        _write_corner_fixture(corners, n_views=5)
        out = tmp_path / "calib.txt"
        code = main([
            "calibrate", "--corners", str(corners),
            "--board-cols", "9", "--board-rows", "6", "--square-size", "0.025",
            "--image-width", "1920", "--image-height", "1080",
            "--baseline", "0.12", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        fragment = json.loads(capsys.readouterr().out)
        assert fragment["calibration"]["mean_reprojection_error"]["value"] < 1e-6
        assert fragment["calibration"]["mean_reprojection_error"]["unit"] == "px"

    def test_stereo_pair_per_eye_and_pooled(self, tmp_path, capsys):
        left = tmp_path / "left_corners.csv"
        right = tmp_path / "right_corners.csv"
        _write_corner_fixture(left, n_views=4, seed=1)
        _write_corner_fixture(right, n_views=4, seed=2)
        out = tmp_path / "calib.txt"
        code = main([
            "calibrate", "--corners", str(left), str(right),
            "--board-cols", "9", "--board-rows", "6", "--square-size", "0.025",
            "--image-width", "1920", "--image-height", "1080",
            "--out", str(out),
        ])
        assert code == 0
        fragment = json.loads(capsys.readouterr().out)["calibration"]
        assert len(fragment["eyes"]) == 2
        assert fragment["pooled_mean_reprojection_error"]["value"] < 1e-6
        assert (tmp_path / "calib.left_corners.txt").exists()
        assert (tmp_path / "calib.right_corners.txt").exists()

    def test_two_views_exit_2(self, tmp_path, capsys):
        corners = tmp_path / "corners.csv"
        _write_corner_fixture(corners, n_views=2)
        code = main([
            "calibrate", "--corners", str(corners),
            "--board-cols", "9", "--board-rows", "6", "--square-size", "0.025",
            "--image-width", "1920", "--image-height", "1080",
            "--out", str(tmp_path / "c.txt"),
        ])
        assert code == 2
        assert "3 views" in capsys.readouterr().err

    def test_wrong_corner_count_exit_2(self, tmp_path):
        corners = tmp_path / "corners.csv"
        _write_corner_fixture(corners, n_views=4)
        code = main([
            "calibrate", "--corners", str(corners),
            "--board-cols", "7", "--board-rows", "5", "--square-size", "0.025",
            "--image-width", "1920", "--image-height", "1080",
            "--out", str(tmp_path / "c.txt"),
        ])
        assert code == 2

    def _no_calibrate(self, monkeypatch):
        def no_calibrate(*args, **kwargs):
            raise AssertionError("calibrate called before every corner file was checked")

        monkeypatch.setattr(pipeline, "calibrate", no_calibrate)

    def _calibrate_args(self, corners, out):
        return [
            "calibrate", "--corners", *map(str, corners),
            "--board-cols", "9", "--board-rows", "6", "--square-size", "0.025",
            "--image-width", "1920", "--image-height", "1080",
            "--out", str(out),
        ]

    def test_colliding_corner_stems_exit_2(self, tmp_path, monkeypatch, capsys):
        # a/left.csv and b/left.csv would both write calib.left.txt.
        corners = [tmp_path / "a" / "left.csv", tmp_path / "b" / "left.csv"]
        for k, path in enumerate(corners):
            path.parent.mkdir()
            _write_corner_fixture(path, n_views=4, seed=k)
        self._no_calibrate(monkeypatch)
        out_dir = tmp_path / "out"
        code = main(self._calibrate_args(corners, out_dir / "calib.txt"))
        assert code == 2
        assert "would both write" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_malformed_second_file_fails_before_calibrating(
        self, tmp_path, monkeypatch, capsys
    ):
        left = tmp_path / "left.csv"
        right = tmp_path / "right.csv"
        _write_corner_fixture(left, n_views=4)
        right.write_text("view_index,corner_index,px,py\n0,0,12.5\n")
        self._no_calibrate(monkeypatch)
        out_dir = tmp_path / "out"
        code = main(self._calibrate_args([left, right], out_dir / "calib.txt"))
        assert code == 2
        assert "expected 4 columns" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--image-width", "0", "image size must be positive, got 0x1080"),
        ("--image-height", "-1080", "image size must be positive, got 1920x-1080"),
        ("--baseline", "-0.12", "baseline must be positive, got -0.12"),
        ("--baseline", "nan", "baseline must be positive, got nan"),
        ("--baseline", "0", "baseline must be positive, got 0"),
    ])
    def test_bad_size_or_baseline_exit_2_before_reading_corners(
        self, tmp_path, monkeypatch, capsys, flag, value, message
    ):
        def not_reached(*args, **kwargs):
            raise AssertionError("a corner file was read")

        monkeypatch.setattr(pipeline, "_read_views", not_reached)
        out_dir = tmp_path / "out"
        args = self._calibrate_args([tmp_path / "absent.csv"], out_dir / "calib.txt")
        assert main(args + [flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()


class TestRectify:
    def _exact_fixture(self, tmp_path):
        rng = np.random.default_rng(1)
        px = rng.integers(0, 256, (40, 50, 4), dtype=np.uint8)
        px[:, :, 3] = 255
        image = tmp_path / "photo.ppm"
        image.write_bytes(write_ppm(RgbaImage(px)))
        # Image pixel (u, v) sits at world (10 + 0.1 u, 30 - 0.1 v).
        gcps = [
            Gcp(id=f"g{i}", world=Point3(10 + 0.1 * u, 30 - 0.1 * v, 0.0),
                image=Point2(u, v))
            for i, (u, v) in enumerate([(5, 5), (45, 5), (45, 35), (5, 35), (25, 20)])
        ]
        gcp_path = tmp_path / "gcps.csv"
        gcp_path.write_text(write_gcp_csv(gcps))
        return image, gcp_path

    def test_exact_fit(self, tmp_path, capsys):
        image, gcps = self._exact_fixture(tmp_path)
        code = main([
            "rectify", "--image", str(image), "--gcps", str(gcps),
            "--cell-size", "0.1", "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 0
        fragment = json.loads(capsys.readouterr().out)["georectification"]
        assert fragment["rmse_x"]["value"] < 1e-9
        assert fragment["rmse_y"]["value"] < 1e-9
        assert (tmp_path / "out" / "rectified.ppm").exists()
        assert (tmp_path / "out" / "rectified.wld").exists()

    def test_report_file_equals_stdout(self, tmp_path, capsys):
        image, gcps = self._exact_fixture(tmp_path)
        report = tmp_path / "sub" / "fragment.json"
        assert main([
            "rectify", "--image", str(image), "--gcps", str(gcps),
            "--cell-size", "0.1", "--out-dir", str(tmp_path / "out"),
            "--report", str(report),
        ]) == 0
        assert report.read_text() == capsys.readouterr().out

    # A barrel lens for the 50x40 fixture photo.
    LENS = CameraIntrinsics(fx=60.0, fy=60.0, cx=24.5, cy=19.5, k1=-0.1,
                            image_width=50, image_height=40)

    def _calibration(self, tmp_path, lens):
        path = tmp_path / "calib.txt"
        path.write_text(write_calibration(lens, 0.12))
        return path

    def test_calibrated_exact_fit(self, tmp_path, capsys):
        image, _ = self._exact_fixture(tmp_path)
        lens = self.LENS
        # Observations are the distorted positions of undistorted pixels
        # (u, v), which sit at world (10 + 0.1 u, 30 - 0.1 v).
        px = np.array([(5, 5), (45, 5), (45, 35), (5, 35), (25, 20), (12, 28)], dtype=float)
        raw_u, raw_v = distort_pixels(lens, px[:, 0], px[:, 1])
        gcps = [
            Gcp(id=f"g{i}", world=Point3(10 + 0.1 * u, 30 - 0.1 * v, 0.0),
                image=Point2(ru, rv))
            for i, ((u, v), ru, rv) in enumerate(zip(px, raw_u, raw_v))
        ]
        gcp_path = tmp_path / "distorted.csv"
        gcp_path.write_text(write_gcp_csv(gcps))
        code = main([
            "rectify", "--image", str(image), "--gcps", str(gcp_path),
            "--calibration", str(self._calibration(tmp_path, lens)),
            "--cell-size", "0.1", "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 0
        fragment = json.loads(capsys.readouterr().out)["georectification"]
        assert fragment["undistorted_observations"] is True
        assert fragment["rmse_x"]["value"] < 1e-8
        assert fragment["rmse_y"]["value"] < 1e-8
        assert (tmp_path / "out" / "rectified.ppm").exists()

    def test_calibration_size_mismatch_exit_2(self, tmp_path, capsys):
        image, gcps = self._exact_fixture(tmp_path)
        code = main([
            "rectify", "--image", str(image), "--gcps", str(gcps),
            "--calibration", str(self._calibration(tmp_path, FACTORY_INTRINSICS)),
            "--cell-size", "0.1", "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "image 50x40 does not match calibration 1920x1080" in capsys.readouterr().err
        assert not (tmp_path / "out" / "rectified.ppm").exists()

    def test_unconvergent_observation_names_first_gcp(self, tmp_path, capsys):
        image, _ = self._exact_fixture(tmp_path)
        # Normalized x of 1000 is far outside the lens model; the fixed
        # point iteration does not settle there.
        far = self.LENS.cx + 1000.0 * self.LENS.fx
        gcps = [
            Gcp(id=f"g{i}", world=Point3(float(i), float(i % 2), 0.0),
                image=Point2(far if i in (2, 4) else 5.0 * i, 5.0 * (i % 2)))
            for i in range(6)
        ]
        path = tmp_path / "far.csv"
        path.write_text(write_gcp_csv(gcps))
        code = main([
            "rectify", "--image", str(image), "--gcps", str(path),
            "--calibration", str(self._calibration(tmp_path, self.LENS)),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "gcp g2: undistortion did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("calibrated", [False, True], ids=["plain", "calibrated"])
    @pytest.mark.parametrize("case", ["three-gcps", "tiny-cell-size"])
    def test_rejected_before_the_photo_is_read(self, tmp_path, monkeypatch, capsys,
                                               calibrated, case):
        image, gcps = self._exact_fixture(tmp_path)
        args = ["rectify", "--image", str(image), "--out-dir", str(tmp_path / "out")]
        if case == "three-gcps":
            three = [
                Gcp(id=f"g{i}", world=Point3(float(i), float(i), 0.0),
                    image=Point2(float(i * 10), float(i * 5)))
                for i in range(3)
            ]
            gcps = tmp_path / "three.csv"
            gcps.write_text(write_gcp_csv(three))
            expected = "need at least 4 GCPs"
        else:
            args += ["--cell-size", "1e-4"]
            expected = "exceeds cap"
        args += ["--gcps", str(gcps)]
        if calibrated:
            args += ["--calibration", str(self._calibration(tmp_path, self.LENS))]
        calls = []
        for name in ("read_ppm", "warp_to_grid"):
            original = getattr(pipeline, name)
            monkeypatch.setattr(
                pipeline, name,
                lambda *a, _n=name, _f=original, **k: calls.append(_n) or _f(*a, **k),
            )
        assert main(args) == 2
        assert expected in capsys.readouterr().err
        assert calls == []

    def test_three_gcps_exit_2(self, tmp_path):
        image, _ = self._exact_fixture(tmp_path)
        gcps = [
            Gcp(id=f"g{i}", world=Point3(float(i), float(i), 0.0),
                image=Point2(float(i * 10), float(i * 5)))
            for i in range(3)
        ]
        path = tmp_path / "three.csv"
        path.write_text(write_gcp_csv(gcps))
        assert main([
            "rectify", "--image", str(image), "--gcps", str(path),
            "--out-dir", str(tmp_path / "out"),
        ]) == 2

    def test_collinear_gcps_exit_3(self, tmp_path):
        image, _ = self._exact_fixture(tmp_path)
        gcps = [
            Gcp(id=f"g{i}", world=Point3(float(i), 2.0 * i, 0.0),
                image=Point2(float(i * 10), float(i * 10)))
            for i in range(5)
        ]
        path = tmp_path / "collinear.csv"
        path.write_text(write_gcp_csv(gcps))
        assert main([
            "rectify", "--image", str(image), "--gcps", str(path),
            "--out-dir", str(tmp_path / "out"),
        ]) == 3

    def test_missing_image_exit_2(self, tmp_path, capsys):
        _, gcps = self._exact_fixture(tmp_path)
        code = main([
            "rectify", "--image", str(tmp_path / "nope.ppm"), "--gcps", str(gcps),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "nope.ppm" in capsys.readouterr().err


class TestDepthRegisterDsmCheck:
    def test_depth_stage(self, scene_dir, tmp_path, capsys):
        _, paths = scene_dir
        code = main([
            "depth", "--left", str(paths["left"]), "--right", str(paths["right"]),
            "--calibration", str(paths["calibration"]),
            "--d-min", "15", "--d-max", "32", "--z-max", "2.2",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        fragment = json.loads(capsys.readouterr().out)["depth"]
        assert fragment["points"] > 1000
        assert (tmp_path / "cloud.las").exists()

    def _depth(self, paths, left, right, out_dir, *flags):
        return main([
            "depth", "--left", str(left), "--right", str(right),
            "--calibration", str(paths["calibration"]),
            "--d-min", "15", "--d-max", "32", "--z-max", "2.2",
            "--out-dir", str(out_dir), *flags,
        ])

    def test_depth_pgm_inputs_equal_gray_ppm(self, scene_dir, tmp_path, capsys):
        """PGM (P5) inputs give the cloud.las of PPM inputs whose three
        channels all equal the PGM's samples."""
        _, paths = scene_dir
        for eye in ("left", "right"):
            v = read_ppm(paths[eye].read_bytes()).pixels[:, :, 0]
            rgba = np.stack([v, v, v, np.full_like(v, 255)], axis=2)
            (tmp_path / f"{eye}.ppm").write_bytes(write_ppm(RgbaImage(rgba)))
            (tmp_path / f"{eye}.pgm").write_bytes(write_pgm(GrayImage(v / 255.0)))
        for ext in ("ppm", "pgm"):
            assert self._depth(
                paths, tmp_path / f"left.{ext}", tmp_path / f"right.{ext}",
                tmp_path / ext,
            ) == 0
            assert json.loads(capsys.readouterr().out)["depth"]["points"] > 1000
        ppm_cloud = (tmp_path / "ppm" / "cloud.las").read_bytes()
        assert (tmp_path / "pgm" / "cloud.las").read_bytes() == ppm_cloud

    def test_depth_writes_disparity_grid(self, scene_dir, tmp_path, capsys):
        """--write-disparity writes disparity.asc: it reads back as the
        matcher's disparities to the grid's 3 decimals, north row first,
        with NODATA at exactly the invalid pixels."""
        _, paths = scene_dir
        assert self._depth(
            paths, paths["left"], paths["right"], tmp_path, "--write-disparity"
        ) == 0
        fragment = json.loads(capsys.readouterr().out)["depth"]
        grid = read_asc((tmp_path / "disparity.asc").read_bytes())
        left, right = (
            read_ppm(paths[eye].read_bytes()).to_gray() for eye in ("left", "right")
        )
        disp = match_disparity(left, right, (15, 32), 5).values
        valid = np.isfinite(disp)
        assert valid.sum() == fragment["valid_disparities"] > 0
        assert (~valid).any()
        assert grid.values.shape == disp.shape
        assert np.array_equal(grid.values == NODATA, ~valid)
        assert np.abs(grid.values[valid] - disp[valid]).max() <= 0.0005 + 1e-9

    def test_register_dsm_check_chain(self, scene_dir, tmp_path, capsys):
        scene, paths = scene_dir
        assert main([
            "depth", "--left", str(paths["left"]), "--right", str(paths["right"]),
            "--calibration", str(paths["calibration"]),
            "--d-min", "15", "--d-max", "32", "--z-max", "2.2",
            "--out-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "register", "--cloud", str(tmp_path / "cloud.las"),
            "--pairs", str(paths["pairs"]), "--out-dir", str(tmp_path),
        ]) == 0
        reg = json.loads(capsys.readouterr().out)["registration"]
        assert reg["rms"]["value"] < 0.2
        assert main([
            "dsm", "--cloud", str(tmp_path / "registered.las"),
            "--cell-size", "0.04", "--kill", "0.1",
            "--clip", str(paths["clip"]), "--out-dir", str(tmp_path),
        ]) == 0
        dsm = json.loads(capsys.readouterr().out)["dsm"]
        assert dsm["data_cells"] > 0
        assert main([
            "check", "--cloud", str(tmp_path / "registered.las"),
            "--gcps", str(paths["gcps"]),
        ]) == 0
        chk = json.loads(capsys.readouterr().out)["vertical_check"]
        assert chk["rmse_dz"]["value"] < 0.2

    def test_dsm_bad_kill_exit_2(self, scene_dir, tmp_path):
        rng = np.random.default_rng(2)
        cloud = PointCloud(xyz=rng.random((50, 3)))
        las = tmp_path / "c.las"
        las.write_bytes(write_las(cloud))
        assert main([
            "dsm", "--cloud", str(las), "--kill", "0",
            "--out-dir", str(tmp_path),
        ]) == 2

    def test_dsm_overflowing_grid_exit_2(self, tmp_path, capsys):
        """Cell centres 1e308 apart overflow to inf: the grid is rejected
        with exit 2 before the cloud is read, and without a warning."""
        las = tmp_path / "c.las"
        las.write_bytes(write_las(PointCloud(xyz=np.random.default_rng(2).random((50, 3)))))
        assert main([
            "dsm", "--cloud", str(las), "--cell-size", "1e308",
            "--grid", "1e308", "0", "3", "3", "--out-dir", str(tmp_path),
        ]) == 2
        assert "grid cell centres must be finite" in capsys.readouterr().err
        assert not (tmp_path / "dsm.asc").exists()

    def test_dsm_nearly_collinear_all_nodata(self, tmp_path, capsys):
        """Points 1e-4 m off a 10 km line are one valid triangle, whose
        5 km edges exceed the kill distance: a 101 x 1 DSM of NODATA."""
        las = tmp_path / "nc.las"
        xyz = np.array([[0, 0, 0], [5000, 1e-4, 0], [10000, 0, 0]], dtype=float)
        las.write_bytes(write_las(PointCloud(xyz=xyz)))
        assert main([
            "dsm", "--cloud", str(las), "--cell-size", "100",
            "--out-dir", str(tmp_path),
        ]) == 0
        dsm = json.loads(capsys.readouterr().out)["dsm"]
        assert (dsm["triangles"], dsm["cells"], dsm["data_cells"]) == (1, 101, 0)
        grid = read_asc((tmp_path / "dsm.asc").read_bytes())
        assert grid.values.shape == (1, 101)
        assert (grid.values == NODATA).all()

    @pytest.mark.parametrize("ring", ["0 0, 1 0, 0 0", "0 0, 4 0, inf 4, 0 0"])
    def test_dsm_invalid_clip_exit_2(self, tmp_path, ring):
        rng = np.random.default_rng(2)
        las = tmp_path / "c.las"
        las.write_bytes(write_las(PointCloud(xyz=rng.random((50, 3)))))
        clip = tmp_path / "clip.wkt"
        clip.write_text(f"POLYGON (({ring}))")
        assert main([
            "dsm", "--cloud", str(las), "--clip", str(clip),
            "--out-dir", str(tmp_path),
        ]) == 2
        assert not (tmp_path / "dsm.asc").exists()

    def test_depth_distorted_calibration_exit_2(
        self, scene_dir, tmp_path, monkeypatch, capsys
    ):
        """Back-projection is pinhole: a calibration with lens distortion
        exits 2, naming its terms, before either image is read."""
        scene, paths = scene_dir
        calib = _distorted_calibration(scene, tmp_path, monkeypatch)
        assert main([
            "depth", "--left", str(paths["left"]), "--right", str(paths["right"]),
            "--calibration", str(calib), "--out-dir", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err
        assert "depth needs a rectified pair's pinhole calibration; k1, p2 not 0" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("z_max", ["nan", "0", "-1"])
    def test_depth_z_max_not_positive_exit_2(
        self, scene_dir, tmp_path, monkeypatch, capsys, z_max
    ):
        """A z_max that keeps no depth exits 2 before either image is read."""
        _, paths = scene_dir

        def not_reached(*args, **kwargs):
            raise AssertionError("depth read an image")

        monkeypatch.setattr(pipeline, "_load_image_any", not_reached)
        assert main([
            "depth", "--left", str(paths["left"]), "--right", str(paths["right"]),
            "--calibration", str(paths["calibration"]), "--z-max", z_max,
            "--out-dir", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err
        assert err == f"error: z_max must be > 0, got {float(z_max):g}\n"
        assert not (tmp_path / "out").exists()

    def test_register_missing_cloud_exit_2(self, scene_dir, tmp_path, capsys):
        _, paths = scene_dir
        code = main([
            "register", "--cloud", str(tmp_path / "absent.las"),
            "--pairs", str(paths["pairs"]), "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert "absent.las" in capsys.readouterr().err


def _distorted_calibration(scene, tmp_path, monkeypatch):
    """Write the scene's calibration with k1 and p2 set, and make any image
    read or stereo match fail the test."""

    def not_reached(*args, **kwargs):
        raise AssertionError("depth read or matched images of a distorted lens")

    monkeypatch.setattr(pipeline, "_load_image_any", not_reached)
    monkeypatch.setattr(pipeline, "match_disparity", not_reached)
    intr = dataclasses.replace(scene.intrinsics, k1=-0.01, p2=0.001)
    path = tmp_path / "distorted.txt"
    path.write_text(write_calibration(intr, scene.baseline))
    return path


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """`shoremap run` on the 64x48 beach fixture: its inputs and out dir."""
    root = tmp_path_factory.mktemp("small")
    paths = BeachScene(seed=0, width=64, height=48).write_fixture(root / "in")
    out = root / "out"
    assert main([
        "run", "--config", str(paths["config"]), "--out-dir", str(out),
        "--report", str(out / "report.json"),
    ]) == 0
    return paths, out


def _check_values(fragment: dict) -> tuple:
    """A vertical_check metrics fragment as VerticalCheckReport fields."""
    per_gcp = tuple(
        (g["id"], g["surface_z"]["value"], g["dz"]["value"]) if not g["outside"]
        else (g["id"], None, None)
        for g in fragment["per_gcp"]
    )
    stats = tuple(
        fragment[k] and fragment[k]["value"] for k in ("mean_dz", "rmse_dz", "max_abs_dz")
    )
    return (per_gcp, *stats, fragment["n_outside"])


class TestCheck:
    def test_metrics_equal_whole_set_tin(self, small_run, capsys):
        """`check` reports what a vertical check on the whole cloud's TIN
        gives: in `run`, on the TIN of the dsm stage, and alone, on the
        whole-set TIN it builds itself."""
        paths, out = small_run
        gcps = list(parse_gcp_csv(paths["gcps"].read_text()))
        cloud = read_las((out / "registered.las").read_bytes())
        want = vertical_check(build_tin(cloud), gcps)
        want = (want.per_gcp, want.mean_dz, want.rmse_dz, want.max_abs_dz, want.n_outside)
        assert want[-1] < len(gcps)
        report = json.loads((out / "report.json").read_text())
        assert _check_values(report["stages"]["vertical_check"]) == want
        assert main([
            "check", "--cloud", str(out / "registered.las"), "--gcps", str(paths["gcps"]),
        ]) == 0
        assert _check_values(json.loads(capsys.readouterr().out)["vertical_check"]) == want

    def test_gcps_outside_the_cloud_are_reported_outside(
        self, small_run, tmp_path, monkeypatch, capsys
    ):
        """GCPs all 1 km east of the cloud are all reported outside. A
        standalone check triangulates the whole cloud once, whatever its
        GCPs."""
        paths, out = small_run
        gcps = parse_gcp_csv(paths["gcps"].read_text())
        far = [Gcp(g.id, Point3(g.world.x + 1000.0, g.world.y, g.world.z)) for g in gcps]
        far_path = tmp_path / "far.csv"
        far_path.write_text(write_gcp_csv(far))
        cloud = out / "registered.las"
        n_vertices = len(build_tin(read_las(cloud.read_bytes())).vertices)
        built = _count_triangulations(monkeypatch)
        assert main(["check", "--cloud", str(cloud), "--gcps", str(far_path)]) == 0
        fragment = json.loads(capsys.readouterr().out)["vertical_check"]
        assert fragment["n_outside"] == len(far)
        assert all(g["outside"] for g in fragment["per_gcp"])
        assert built == [n_vertices]
        assert main(["check", "--cloud", str(cloud), "--gcps", str(paths["gcps"])]) == 0
        assert built == [n_vertices] * 2


def _count_triangulations(monkeypatch) -> list:
    """The vertex count of every triangulator built from now on."""
    built = []

    class Counting(surface._Triangulator):
        def __init__(self, *args):
            built.append(len(args[0]))
            super().__init__(*args)

    monkeypatch.setattr(surface, "_Triangulator", Counting)
    return built


class TestRun:
    def test_missing_input_fails_before_stages(self, scene_dir, tmp_path, capsys):
        _, paths = scene_dir
        config = paths["config"].read_text().replace(
            str(paths["gcps"]), str(tmp_path / "missing.csv")
        )
        conf = tmp_path / "bad.conf"
        conf.write_text(config)
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(conf), "--out-dir", str(out_dir)])
        assert code == 2
        assert not (out_dir / "cloud.las").exists()
        report = json.loads((out_dir / "run_report.json").read_text())
        jsonschema.validate(report, _run_report_schema())
        assert report["failed_stage"] == "preflight"
        assert report["error"].startswith("InputError: ")
        assert "missing.csv" in report["error"]
        assert report["stages_completed"] == []
        assert report["stages"] == {}

    @pytest.mark.parametrize(
        "bad_line, reason",
        [
            ("dsm.kill 2.0", "expected 'key = value'"),
            ("dsm.kill =", "empty key or value"),
            ("dsm.kill = 0.1", "duplicate key"),
        ],
    )
    def test_malformed_config_exit_2(
        self, scene_dir, tmp_path, capsys, bad_line, reason
    ):
        _, paths = scene_dir
        conf = tmp_path / "bad.conf"
        conf.write_text(paths["config"].read_text() + bad_line + "\n")
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(conf), "--out-dir", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: config {conf}: line ")
        assert reason in err[0]
        report = json.loads((out_dir / "run_report.json").read_text())
        jsonschema.validate(report, _run_report_schema())
        assert report["failed_stage"] == "preflight"
        assert report["error"] == "MalformedHeader: " + err[0].removeprefix("error: ")
        assert report["config"] == {}
        assert report["stages_completed"] == []

    def test_config_comments_and_blank_lines_skipped(self, scene_dir, tmp_path):
        _, paths = scene_dir
        text = paths["config"].read_text()
        conf = tmp_path / "commented.conf"
        conf.write_text("# beach survey\n\n" + text.replace("\n", "\n\n  # note\n", 3) + "#\n")
        assert pipeline.load_config(conf) == pipeline.load_config(paths["config"])

    @pytest.mark.parametrize("case", ["missing-config", "set-without-equals"])
    def test_unread_config_writes_report(self, scene_dir, tmp_path, case):
        _, paths = scene_dir
        out_dir = tmp_path / "out"
        if case == "missing-config":
            argv = ["run", "--config", str(tmp_path / "absent.conf")]
            expected = ("InputError: input file not found", {})
        else:
            argv = ["run", "--config", str(paths["config"]),
                    "--set", "dsm.kill=0.5", "--set", "foo"]
            config = pipeline.load_config(paths["config"])
            expected = ("InputError: --set needs KEY=VALUE", {**config, "dsm.kill": "0.5"})
        assert main([*argv, "--out-dir", str(out_dir)]) == 2
        report = json.loads((out_dir / "run_report.json").read_text())
        jsonschema.validate(report, _run_report_schema())
        assert report["failed_stage"] == "preflight"
        assert report["error"].startswith(expected[0])
        assert report["config"] == expected[1]
        assert report["stages_completed"] == []

    @pytest.mark.parametrize(
        "key, value",
        [
            ("depth.d_min", "one"),
            ("depth.d_max", "6.5"),
            ("depth.window", "abc"),
            ("depth.z_max", "far"),
            ("depth.write_disparity", "maybe"),
            ("register.with_scale", "2"),
            ("dsm.cell_size", "abc"),
            ("dsm.kill", "1m"),
            ("rectify.cell_size", "abc"),
            ("rectify.margin", "10%"),
        ],
    )
    def test_bad_typed_key_fails_before_stages(
        self, scene_dir, tmp_path, monkeypatch, key, value
    ):
        _, paths = scene_dir

        def no_match(*args, **kwargs):
            raise AssertionError("matcher called before the config was parsed")

        monkeypatch.setattr(pipeline, "match_disparity", no_match)
        out_dir = tmp_path / "out"
        code = main([
            "run", "--config", str(paths["config"]), "--out-dir", str(out_dir),
            "--set", f"{key}={value}",
        ])
        assert code == 2
        report = json.loads((out_dir / "run_report.json").read_text())
        jsonschema.validate(report, _run_report_schema())
        assert report["failed_stage"] == "preflight"
        assert report["error"].startswith(f"InputError: config key {key!r}: bad ")
        assert report["stages_completed"] == []

    def _preflight_error(self, tmp_path, monkeypatch, config_text, *overrides):
        """Run the chain on config_text with --set overrides, expect exit 2
        from the preflight before any stage ran, and return the error."""

        def no_match(*args, **kwargs):
            raise AssertionError("matcher called before the preflight passed")

        monkeypatch.setattr(pipeline, "match_disparity", no_match)
        conf = tmp_path / "run.conf"
        conf.write_text(config_text)
        out_dir = tmp_path / "out"
        argv = ["run", "--config", str(conf), "--out-dir", str(out_dir)]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 2
        report = json.loads((out_dir / "run_report.json").read_text())
        jsonschema.validate(report, _run_report_schema())
        assert report["failed_stage"] == "preflight"
        assert report["stages_completed"] == []
        assert report["stages"] == {}
        return report["error"]

    def test_unknown_key_fails_before_stages(self, scene_dir, tmp_path, monkeypatch):
        _, paths = scene_dir
        error = self._preflight_error(
            tmp_path, monkeypatch, paths["config"].read_text(), "dsm.kil=0.5"
        )
        assert error.startswith("InputError: ")
        assert "'dsm.kil'" in error

    @pytest.mark.parametrize(
        "key",
        [
            "depth.left", "depth.right", "depth.calibration", "register.pairs",
            "check.gcps", "rectify.image", "rectify.gcps",
        ],
    )
    def test_missing_required_key_fails_before_stages(
        self, scene_dir, tmp_path, monkeypatch, key
    ):
        _, paths = scene_dir
        lines = paths["config"].read_text().splitlines()
        kept = [line for line in lines if not line.startswith(f"{key} =")]
        assert len(kept) == len(lines) - 1
        error = self._preflight_error(tmp_path, monkeypatch, "\n".join(kept) + "\n")
        assert error == f"InputError: config key {key!r} is required"

    @pytest.mark.parametrize("key", ["dsm.clip", "rectify.calibration"])
    def test_missing_optional_input_fails_before_stages(
        self, scene_dir, tmp_path, monkeypatch, key
    ):
        _, paths = scene_dir
        absent = tmp_path / "absent.txt"
        error = self._preflight_error(
            tmp_path, monkeypatch, paths["config"].read_text(), f"{key}={absent}"
        )
        assert error == f"InputError: config key {key!r}: file not found: {absent}"

    # Per text input: content its reader rejects, and the error type.
    MALFORMED = {
        "calibration": ("fx = 300.0\n", "MalformedHeader"),
        "pairs": ("id,sx,sy,sz,tx,ty,tz\np1,0,0,0\n", "MalformedRow"),
        "clip": ("POLYGON ((0 0, 4 0, 4 4", "WktSyntaxError"),
        "gcps": ("id,easting,northing,elevation,px,py\n", "MalformedRow"),
    }

    @pytest.mark.parametrize("fault", ["malformed", "non-ascii"])
    @pytest.mark.parametrize(
        "key",
        [
            "depth.calibration", "register.pairs", "dsm.clip", "check.gcps",
            "rectify.gcps", "rectify.calibration",
        ],
    )
    def test_bad_text_input_fails_before_stages(
        self, scene_dir, tmp_path, monkeypatch, key, fault
    ):
        _, paths = scene_dir
        name = key.split(".")[1]
        text, error_type = self.MALFORMED[name]
        bad = tmp_path / f"bad.{name}"
        if fault == "malformed":
            bad.write_text(text)
        else:
            # A valid file with one Latin-1 byte: not ASCII, and not UTF-8.
            data = paths[name].read_bytes()
            bad.write_bytes(data[:1] + b"\xb9" + data[1:])
            error_type = "WktSyntaxError" if name == "clip" else "MalformedHeader"
        error = self._preflight_error(
            tmp_path, monkeypatch, paths["config"].read_text(), f"{key}={bad}"
        )
        assert error.startswith(f"{error_type}: config key {key!r}: ")
        if fault == "non-ascii":
            assert "not ASCII text" in error

    def test_each_text_file_parsed_once(self, tmp_path, monkeypatch):
        """The C9 config names one gcps.csv for both check and rectify: the
        preflight reads and parses it once and hands both stages the same
        frozen object."""
        paths = BeachScene(seed=0, width=320, height=240).write_fixture(tmp_path)
        calls = []
        parse = pipeline.parse_gcp_csv

        def counted(data):
            calls.append(data)
            return parse(data)

        monkeypatch.setattr(pipeline, "parse_gcp_csv", counted)
        config = pipeline.load_config(paths["config"])
        assert config["check.gcps"] == config["rectify.gcps"]
        kwargs = pipeline._preflight(config)
        assert len(calls) == 1
        assert kwargs["check"]["gcps"] is kwargs["rectify"]["gcps"]
        assert isinstance(kwargs["check"]["gcps"], tuple)

    def test_collinear_pairs_fail_register_after_depth(
        self, scene_dir, tmp_path, capsys
    ):
        _, paths = scene_dir
        bad_pairs = PointPairSet(
            ids=("a", "b", "c", "d"),
            source=np.array([[0.0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]]),
            target=np.array([[0.0, 0, 1], [1, 1, 2], [2, 2, 3], [3, 3, 4]]),
        )
        pair_path = tmp_path / "collinear.csv"
        pair_path.write_text(write_pair_csv(bad_pairs))
        conf = tmp_path / "bad.conf"
        conf.write_text(
            paths["config"].read_text().replace(str(paths["pairs"]), str(pair_path))
        )
        out_dir = tmp_path / "out"
        report_path = out_dir / "report.json"
        code = main([
            "run", "--config", str(conf), "--out-dir", str(out_dir),
            "--report", str(report_path),
        ])
        assert code == 3
        report = json.loads(report_path.read_text())
        assert report["failed_stage"] == "register"
        assert report["stages_completed"] == ["depth"]
        assert (out_dir / "cloud.las").exists()

    def test_distorted_calibration_fails_depth(self, scene_dir, tmp_path, monkeypatch):
        scene, paths = scene_dir
        calib = _distorted_calibration(scene, tmp_path, monkeypatch)
        out_dir = tmp_path / "out"
        assert main([
            "run", "--config", str(paths["config"]), "--out-dir", str(out_dir),
            "--set", f"depth.calibration={calib}",
        ]) == 2
        report = json.loads((out_dir / "run_report.json").read_text())
        jsonschema.validate(report, _run_report_schema())
        assert report["failed_stage"] == "depth"
        assert report["error"] == (
            "InputError: depth needs a rectified pair's pinhole calibration; k1, p2 not 0"
        )
        assert report["stages_completed"] == []
        assert not (out_dir / "cloud.las").exists()

    def test_set_overrides(self, scene_dir, tmp_path, capsys):
        _, paths = scene_dir
        out_dir = tmp_path / "out"
        code = main([
            "run", "--config", str(paths["config"]),
            "--out-dir", str(out_dir),
            "--set", "dsm.cell_size=0.05",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stages"]["dsm"]["cell_size"]["value"] == 0.05
        assert report["config"]["dsm.cell_size"] == "0.05"

    @pytest.mark.parametrize(
        "error, code",
        [(InputError, 2), (SolverError, 3), (OSError, 2), (ValueError, 2), (MemoryError, 3)],
    )
    @pytest.mark.parametrize("stage", pipeline.RUN_STAGES)
    def test_stage_failure_writes_report(
        self, scene_dir, tmp_path, monkeypatch, capsys, stage, error, code
    ):
        _, paths = scene_dir
        out_dir = tmp_path / "out"
        done = out_dir / "done"
        fakes = {
            "depth": lambda **kw: (done, {}),
            "register": lambda **kw: (done, {}),
            "dsm": lambda **kw: (done, {}),
            "check": lambda **kw: {},
            "rectify": lambda **kw: (done, {}),
        }

        def fail(**kw):
            raise error("injected")

        for name, fake in fakes.items():
            monkeypatch.setattr(pipeline, f"stage_{name}", fail if name == stage else fake)
        report_path = out_dir / "report.json"
        assert main([
            "run", "--config", str(paths["config"]), "--out-dir", str(out_dir),
            "--report", str(report_path),
        ]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("out of memory" in err) == (error is MemoryError)
        report = json.loads(report_path.read_text())
        stages = list(pipeline.RUN_STAGES)
        assert report["failed_stage"] == stage
        assert report["error"] == f"{error.__name__}: injected"
        assert report["stages_completed"] == stages[: stages.index(stage)]
        assert stage in report["timing"]["stage_seconds"]

    def test_depth_keeping_no_point_fails_dsm(self, tmp_path, capsys):
        paths = BeachScene(seed=0, width=64, height=48).write_fixture(tmp_path / "in")
        out_dir = tmp_path / "out"
        code = main([
            "run", "--config", str(paths["config"]), "--out-dir", str(out_dir),
            "--set", "depth.z_max=0.001",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: need at least 3 points, got 0\n"
        report = json.loads((out_dir / "run_report.json").read_text())
        assert report["stages"]["depth"]["points"] == 0
        assert report["failed_stage"] == "dsm"
        assert report["error"] == "TooFewPoints: need at least 3 points, got 0"
        assert report["stages_completed"] == ["depth", "register"]
        # An empty cloud is a bare header with a zero offset.
        for name in ("cloud.las", "registered.las"):
            data = (out_dir / name).read_bytes()
            assert len(data) == HEADER_SIZE
            assert struct.unpack_from("<3d", data, 155) == (0.0, 0.0, 0.0)
            assert len(read_las(data)) == 0

    def test_z_max_nan_fails_depth_before_reading_images(
        self, tmp_path, monkeypatch, capsys
    ):
        paths = BeachScene(seed=0, width=64, height=48).write_fixture(tmp_path / "in")

        def not_reached(*args, **kwargs):
            raise AssertionError("run read an image with a NaN z_max")

        monkeypatch.setattr(pipeline, "_load_image_any", not_reached)
        out_dir = tmp_path / "out"
        code = main([
            "run", "--config", str(paths["config"]), "--out-dir", str(out_dir),
            "--set", "depth.z_max=nan",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: z_max must be > 0, got nan\n"
        report = json.loads((out_dir / "run_report.json").read_text())
        assert report["failed_stage"] == "depth"
        assert report["stages_completed"] == []
        assert not (out_dir / "cloud.las").exists()

    def test_one_triangulation_per_run(self, tmp_path, monkeypatch):
        """`run` triangulates once: the vertical check reuses the TIN that
        the dsm stage built over the same registered cloud."""
        paths = BeachScene(seed=0, width=64, height=48).write_fixture(tmp_path / "in")
        built = _count_triangulations(monkeypatch)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(paths["config"]), "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "run_report.json").read_text())
        assert report["stages_completed"] == list(pipeline.RUN_STAGES)
        assert len(built) == 1

    def test_tiny_cell_fails_dsm_before_triangulating(self, tmp_path, monkeypatch):
        paths = BeachScene(seed=0, width=64, height=48).write_fixture(tmp_path / "in")

        def no_tin(cloud):
            raise AssertionError("build_tin called before the grid was validated")

        monkeypatch.setattr(pipeline, "build_tin", no_tin)
        out_dir = tmp_path / "out"
        code = main([
            "run", "--config", str(paths["config"]), "--out-dir", str(out_dir),
            "--set", "dsm.cell_size=0.00001",
        ])
        assert code == 2
        report = json.loads((out_dir / "run_report.json").read_text())
        assert report["failed_stage"] == "dsm"
        assert report["error"].startswith("GridTooLarge: ")
        assert report["stages_completed"] == ["depth", "register"]

    @pytest.mark.parametrize("setting, stage", [
        ("dsm.cell_size=0", "dsm"),
        ("rectify.cell_size=0", "rectify"),
        ("rectify.margin=inf", "rectify"),
    ])
    def test_bad_grid_setting_exit_2(self, tmp_path, monkeypatch, setting, stage):
        paths = BeachScene(seed=0, width=64, height=48).write_fixture(tmp_path / "in")
        if stage == "dsm":
            def no_tin(cloud):
                raise AssertionError("build_tin called before the grid was validated")

            monkeypatch.setattr(pipeline, "build_tin", no_tin)
        out_dir = tmp_path / "out"
        code = main([
            "run", "--config", str(paths["config"]), "--out-dir", str(out_dir),
            "--set", setting,
        ])
        assert code == 2
        report = json.loads((out_dir / "run_report.json").read_text())
        assert report["failed_stage"] == stage
        assert report["error"].startswith("InputError: ")

    @pytest.mark.parametrize("setting, stage", [
        ("dsm.cell_size=1e-320", "dsm"),
        ("rectify.margin=1e308", "rectify"),
    ])
    def test_overflowing_grid_setting_exit_2(
        self, tmp_path, monkeypatch, setting, stage
    ):
        # Finite settings whose row or column count overflows to infinity.
        paths = BeachScene(seed=0, width=64, height=48).write_fixture(tmp_path / "in")
        if stage == "dsm":
            def no_tin(cloud):
                raise AssertionError("build_tin called before the grid was validated")

            monkeypatch.setattr(pipeline, "build_tin", no_tin)
        out_dir = tmp_path / "out"
        code = main([
            "run", "--config", str(paths["config"]), "--out-dir", str(out_dir),
            "--set", setting,
        ])
        assert code == 2
        report = json.loads((out_dir / "run_report.json").read_text())
        assert report["failed_stage"] == stage
        assert report["error"].startswith("GridTooLarge: ")


@pytest.mark.parametrize(
    "command, flag, others",
    [
        ("depth", "--calibration", ["--left", "l.ppm", "--right", "r.ppm"]),
        ("register", "--pairs", ["--cloud", "c.las"]),
        ("dsm", "--clip", ["--cloud", "c.las"]),
        ("check", "--gcps", ["--cloud", "c.las"]),
        ("rectify", "--gcps", ["--image", "p.ppm", "--calibration", "calibration"]),
        ("rectify", "--calibration", ["--image", "p.ppm", "--gcps", "gcps"]),
    ],
)
def test_stage_command_names_bad_text_input(
    scene_dir, tmp_path, capsys, command, flag, others
):
    """A text input that its reader rejects fails the stage command with
    exit 2 and an error naming the flag and the file; the error keeps the
    reader's type. Images and clouds are never read, so they may be
    absent; the other text input is the fixture's valid file."""
    _, paths = scene_dir
    name = flag[2:]
    text, error_type = TestRun.MALFORMED[name]
    bad = tmp_path / f"bad.{name}"
    bad.write_text(text)
    argv = [command, *(str(paths.get(a, a)) for a in others), flag, str(bad)]
    if "out_dir" in pipeline.PARAMETERS[command]:
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} {bad}: ")
    with pytest.raises(getattr(errors, error_type)) as excinfo:
        cli._dispatch(cli.build_parser().parse_args(argv))
    assert type(excinfo.value).__name__ == error_type


class TestEnvironment:
    def test_out_dir_env_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SHOREMAP_OUT_DIR", str(tmp_path / "envout"))
        from shoremap.cli import build_parser

        args = build_parser().parse_args(["dsm", "--cloud", "x.las"])
        assert args.out_dir == str(tmp_path / "envout")


@pytest.mark.parametrize("value", ["-1e3", "-1.5E3", "-2e-1"])
@pytest.mark.parametrize("command", [
    ["dsm", "--cloud", "c.las"],
    ["rectify", "--image", "i.ppm", "--gcps", "g.csv"],
])
def test_grid_takes_negative_exponent_origins(command, value):
    """A negative origin in exponent form is a --grid value, not an option."""
    args = cli.build_parser().parse_args([*command, "--grid", value, value, "3", "3"])
    assert args.grid == [value, value, "3", "3"]


def test_dsm_negative_exponent_grid_runs(tmp_path):
    las = tmp_path / "nc.las"
    xyz = np.array([[0, 0, 0], [5000, 1e-4, 0], [10000, 0, 0]], dtype=float)
    las.write_bytes(write_las(PointCloud(xyz=xyz)))
    assert main([
        "dsm", "--cloud", str(las), "--cell-size", "100",
        "--grid", "-1e3", "0", "3", "3", "--out-dir", str(tmp_path),
    ]) == 0
    assert read_asc((tmp_path / "dsm.asc").read_bytes()).values.shape == (3, 3)


# Every flag of the five stage commands, with $SHOREMAP_OUT_DIR unset:
# option string -> (dest, default, type, nargs, required, action class).
_IN = (None, None, None, True, "_StoreAction")
_OPTIONAL_IN = (None, None, None, False, "_StoreAction")
_FLAG = (False, None, 0, False, "_StoreTrueAction")
_GRID = ("grid", None, None, 4, False, "_StoreAction")
_OUT_DIR = ("out_dir", ".", None, None, False, "_StoreAction")
_REPORT = ("report", None, None, None, False, "_StoreAction")
STAGE_FLAGS = {
    "depth": {
        "--left": ("left", *_IN),
        "--right": ("right", *_IN),
        "--calibration": ("calibration", *_IN),
        "--d-min": ("d_min", 1, int, None, False, "_StoreAction"),
        "--d-max": ("d_max", 64, int, None, False, "_StoreAction"),
        "--window": ("window", 5, int, None, False, "_StoreAction"),
        "--z-max": ("z_max", 20.0, float, None, False, "_StoreAction"),
        "--write-disparity": ("write_disparity", *_FLAG),
        "--out-dir": _OUT_DIR,
        "--report": _REPORT,
    },
    "register": {
        "--cloud": ("cloud", *_IN),
        "--pairs": ("pairs", *_IN),
        "--with-scale": ("with_scale", *_FLAG),
        "--out-dir": _OUT_DIR,
        "--report": _REPORT,
    },
    "dsm": {
        "--cloud": ("cloud", *_IN),
        "--cell-size": ("cell_size", 0.1, float, None, False, "_StoreAction"),
        "--kill": ("kill", 1.0, float, None, False, "_StoreAction"),
        "--clip": ("clip", *_OPTIONAL_IN),
        "--grid": _GRID,
        "--out-dir": _OUT_DIR,
        "--report": _REPORT,
    },
    "check": {
        "--cloud": ("cloud", *_IN),
        "--gcps": ("gcps", *_IN),
        "--report": _REPORT,
    },
    "rectify": {
        "--image": ("image", *_IN),
        "--gcps": ("gcps", *_IN),
        "--calibration": ("calibration", *_OPTIONAL_IN),
        "--cell-size": ("cell_size", 0.05, float, None, False, "_StoreAction"),
        "--margin": ("margin", 0.1, float, None, False, "_StoreAction"),
        "--grid": _GRID,
        "--out-dir": _OUT_DIR,
        "--report": _REPORT,
    },
}

# Every `run` config key, and the error a bad value of it gives in the
# preflight: a missing file for an input, "x" for a setting.
RUN_CONFIG_KEYS = {
    "depth.left": "file not found",
    "depth.right": "file not found",
    "depth.calibration": "file not found",
    "depth.d_min": "bad integer 'x'",
    "depth.d_max": "bad integer 'x'",
    "depth.window": "bad integer 'x'",
    "depth.z_max": "bad number 'x'",
    "depth.write_disparity": "bad boolean 'x'",
    "register.pairs": "file not found",
    "register.with_scale": "bad boolean 'x'",
    "dsm.cell_size": "bad number 'x'",
    "dsm.kill": "bad number 'x'",
    "dsm.clip": "file not found",
    "check.gcps": "file not found",
    "rectify.image": "file not found",
    "rectify.gcps": "file not found",
    "rectify.calibration": "file not found",
    "rectify.cell_size": "bad number 'x'",
    "rectify.margin": "bad number 'x'",
}


def test_parser_defaults_equal_stage_defaults(tmp_path, monkeypatch):
    """The stage commands' flags and the `run` config keys, pinned; every
    option a stage also defaults takes the stage's default."""
    import argparse
    import inspect

    from shoremap.cli import build_parser

    monkeypatch.delenv("SHOREMAP_OUT_DIR", raising=False)
    subparsers = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    for command, flags in STAGE_FLAGS.items():
        actions = [
            a for a in subparsers.choices[command]._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        got = {
            tuple(a.option_strings): (
                a.dest, a.default, a.type, a.nargs, a.required, type(a).__name__
            )
            for a in actions
        }
        assert got == {(flag,): spec for flag, spec in flags.items()}, command
        params = inspect.signature(getattr(pipeline, f"stage_{command}")).parameters
        for dest, default, *_ in flags.values():
            if dest in params and params[dest].default is not params[dest].empty:
                assert default == params[dest].default, (command, dest)

    present = tmp_path / "present.txt"
    present.write_text("")
    base = {
        key: str(present) for key in (
            "depth.left", "depth.right", "depth.calibration", "register.pairs",
            "check.gcps", "rectify.image", "rectify.gcps",
        )
    }
    for key, error in RUN_CONFIG_KEYS.items():
        bad = str(tmp_path / "absent.txt") if error == "file not found" else "x"
        with pytest.raises(InputError, match=f"^config key '{key}': {error}"):
            pipeline.run_pipeline(
                {**base, key: bad}, tmp_path / "out", tmp_path / "out" / "report.json"
            )


# The text-input files of the stage command test, by file name, and how
# the test prints a parsed input back as its file's text.
STAGE_TEXT_FILES = {
    "k": write_calibration(FACTORY_INTRINSICS, 0.12),
    "p": write_pair_csv(PointPairSet(
        ids=("a", "b", "c"),
        source=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.5]]),
        target=np.array([[5.0, 5.0, 1.0], [6.0, 5.0, 1.0], [5.0, 6.0, 1.5]]),
    )),
    "w": "POLYGON ((0.0 0.0, 4.0 0.0, 4.0 4.0, 0.0 4.0, 0.0 0.0))",
    "g": write_gcp_csv([
        Gcp(id="g1", world=Point3(1.0, 2.0, 3.0), image=Point2(4.0, 5.0)),
        Gcp(id="g2", world=Point3(6.0, 7.0, 8.0)),
    ]),
}
PRINT_TEXT_INPUT = {
    "calibration": lambda rig: write_calibration(rig.intrinsics, rig.baseline),
    "pairs": write_pair_csv,
    "clip": lambda poly: "POLYGON (" + ", ".join(
        "(" + ", ".join(f"{x!r} {y!r}" for x, y in ring) + ")" for ring in poly.rings
    ) + ")",
    "gcps": write_gcp_csv,
}


@pytest.mark.parametrize(
    "command, argv, expected, report_key",
    [
        (
            "depth",
            ["--left", "l", "--right", "r", "--calibration", "k", "--d-min", "2",
             "--d-max", "9", "--window", "3", "--z-max", "4.5", "--write-disparity",
             "--out-dir", "o"],
            {"left_path": "l", "right_path": "r", "calibration": "k",
             "d_min": 2, "d_max": 9, "window": 3, "z_max": 4.5,
             "write_disparity": True, "out_dir": "o"},
            "depth",
        ),
        (
            "register",
            ["--cloud", "c", "--pairs", "p", "--with-scale", "--out-dir", "o"],
            {"cloud_path": "c", "pairs": "p", "with_scale": True, "out_dir": "o"},
            "registration",
        ),
        (
            "dsm",
            ["--cloud", "c", "--cell-size", "0.5", "--kill", "2", "--clip", "w",
             "--grid", "1", "2", "3", "4", "--out-dir", "o"],
            {"cloud_path": "c", "cell_size": 0.5, "kill": 2.0, "clip": "w",
             "grid": (1.0, 2.0, 0.5, 3, 4), "out_dir": "o"},
            "dsm",
        ),
        (
            "check",
            ["--cloud", "c", "--gcps", "g"],
            {"cloud_path": "c", "gcps": "g"},
            "vertical_check",
        ),
        (
            "rectify",
            ["--image", "i", "--gcps", "g", "--calibration", "k", "--cell-size",
             "0.25", "--margin", "0.3", "--grid", "5", "6", "7", "8", "--out-dir", "o"],
            {"image_path": "i", "gcps": "g", "calibration": "k",
             "cell_size": 0.25, "margin": 0.3, "grid": (5.0, 6.0, 0.25, 7, 8),
             "out_dir": "o"},
            "georectification",
        ),
    ],
)
def test_stage_command_passes_every_flag(
    tmp_path, monkeypatch, capsys, command, argv, expected, report_key
):
    """Each stage command hands every flag to its stage: a text input
    parsed from its file, an image or cloud and --out-dir as a Path, and
    --grid as a grid of --cell-size. It emits the stage's metrics under
    its report key."""
    monkeypatch.chdir(tmp_path)
    for name, text in STAGE_TEXT_FILES.items():
        Path(name).write_text(text)
    seen = {}

    def fake(**kwargs):
        seen.update(kwargs)
        return {"n": 1} if command == "check" else (Path("artifact"), {"n": 1})

    monkeypatch.setattr(pipeline, f"stage_{command}", fake)
    assert main([command, *argv]) == 0
    assert json.loads(capsys.readouterr().out) == {report_key: {"n": 1}}
    if "grid" in seen:
        g = seen["grid"]
        seen["grid"] = (g.origin_x, g.origin_y, g.cell_size, g.n_cols, g.n_rows)
    for name, value in seen.items():
        if name.endswith("_path") or name == "out_dir":
            assert isinstance(value, Path), name
            seen[name] = str(value)
        elif name in PRINT_TEXT_INPUT:
            seen[name] = PRINT_TEXT_INPUT[name](value)
            expected = {**expected, name: STAGE_TEXT_FILES[expected[name]]}
    assert seen == expected


def test_unknown_global_flag_exit_2(tmp_path, capsys):
    """The parser has no --verbose: argparse rejects it with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["--verbose", "dsm", "--cloud", str(tmp_path / "c.las")])
    assert exc.value.code == 2
    assert "--verbose" in capsys.readouterr().err
