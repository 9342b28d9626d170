"""CLI contract tests: exit codes, artifacts, report fragments."""

import json
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from shoremap import pipeline
from shoremap.calibration import BoardSpec
from shoremap.camera import CameraIntrinsics, distort_pixels
from shoremap.cli import main
from shoremap.errors import InputError, SolverError
from shoremap.formats import (
    write_calibration,
    write_corner_csv,
    write_gcp_csv,
    write_las,
    write_pair_csv,
    write_ppm,
)
from shoremap.geometry import Point2, Point3
from shoremap.georectify import Gcp
from shoremap.registration import PointPairSet
from shoremap.stereo import PointCloud, RgbaImage

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

    def test_register_missing_cloud_exit_2(self, scene_dir, tmp_path, capsys):
        _, paths = scene_dir
        code = main([
            "register", "--cloud", str(tmp_path / "absent.las"),
            "--pairs", str(paths["pairs"]), "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert "absent.las" in capsys.readouterr().err


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
        assert not out_dir.exists()

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


class TestEnvironment:
    def test_out_dir_env_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SHOREMAP_OUT_DIR", str(tmp_path / "envout"))
        from shoremap.cli import build_parser

        args = build_parser().parse_args(["dsm", "--cloud", "x.las"])
        assert args.out_dir == str(tmp_path / "envout")


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


@pytest.mark.parametrize(
    "command, argv, expected, report_key",
    [
        (
            "depth",
            ["--left", "l", "--right", "r", "--calibration", "c", "--d-min", "2",
             "--d-max", "9", "--window", "3", "--z-max", "4.5", "--write-disparity",
             "--out-dir", "o"],
            {"left_path": "l", "right_path": "r", "calibration_path": "c",
             "d_min": 2, "d_max": 9, "window": 3, "z_max": 4.5,
             "write_disparity": True, "out_dir": "o"},
            "depth",
        ),
        (
            "register",
            ["--cloud", "c", "--pairs", "p", "--with-scale", "--out-dir", "o"],
            {"cloud_path": "c", "pairs_path": "p", "with_scale": True, "out_dir": "o"},
            "registration",
        ),
        (
            "dsm",
            ["--cloud", "c", "--cell-size", "0.5", "--kill", "2", "--clip", "w",
             "--grid", "1", "2", "3", "4", "--out-dir", "o"],
            {"cloud_path": "c", "cell_size": 0.5, "kill": 2.0, "clip_path": "w",
             "grid": (1.0, 2.0, 0.5, 3, 4), "out_dir": "o"},
            "dsm",
        ),
        (
            "check",
            ["--cloud", "c", "--gcps", "g"],
            {"cloud_path": "c", "gcps_path": "g"},
            "vertical_check",
        ),
        (
            "rectify",
            ["--image", "i", "--gcps", "g", "--calibration", "k", "--cell-size",
             "0.25", "--margin", "0.3", "--grid", "5", "6", "7", "8", "--out-dir", "o"],
            {"image_path": "i", "gcps_path": "g", "calibration_path": "k",
             "cell_size": 0.25, "margin": 0.3, "grid": (5.0, 6.0, 0.25, 7, 8),
             "out_dir": "o"},
            "georectification",
        ),
    ],
)
def test_stage_command_passes_every_flag(
    monkeypatch, capsys, command, argv, expected, report_key
):
    """Each stage command hands every flag to its stage, paths as Path and
    --grid as a grid of --cell-size, and emits the stage's metrics under
    its report key."""
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
    assert seen == expected
