"""Acceptance criteria, one test per criterion.

Each test prints a `[PASS] criterion N` line on success (run pytest with
-s or check the captured output); failures surface as normal pytest
assertions. Tolerances are fixed here, not tuned at runtime.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from shoremap.calibration import BoardSpec, axis_angle_to_rotation, calibrate
from shoremap.camera import CameraIntrinsics, StereoRig, disparity_to_depth
from shoremap.cli import main
from shoremap.errors import ShoremapError
from shoremap.formats import read_asc, write_asc, write_las
from shoremap.geometry import (
    GridGeometry,
    Homography,
    Point2,
    Point3,
    SimilarityTransform,
    apply_homography_many,
    apply_similarity_many,
)
from shoremap.georectify import (
    Gcp,
    bicubic_sample_many,
    fit_ground_homography,
    rmse_xy,
    warp_to_grid,
)
from shoremap.registration import PointPairSet, estimate_alignment
from shoremap.stereo import GrayImage, PointCloud, RgbaImage, match_disparity
from shoremap.surface import DsmGrid, NODATA, build_tin, rasterize_tin, vertical_check

from synth import (
    BASELINE_M,
    FACTORY_INTRINSICS,
    RECALIBRATED_INTRINSICS,
    BeachScene,
    make_calibration_views,
)
from test_formats import PARSERS, _seed_corpus
from test_surface import _circumcircle_violation

BOARD = BoardSpec(cols=9, rows=6, square_size=0.025)


def _report(criterion: str):
    print(f"[PASS] {criterion}")


def test_c1_calibration_recovery_with_noise():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    views, _ = make_calibration_views(RECALIBRATED_INTRINSICS, BOARD, 20, 0.2, rng)
    result = calibrate(BOARD, views, (1920, 1080))
    elapsed = time.perf_counter() - start
    assert abs(result.intrinsics.fx - 1060.70) / 1060.70 < 0.005
    assert abs(result.intrinsics.fy - 1060.70) / 1060.70 < 0.005
    assert abs(result.intrinsics.cx - 950.42) < 2.0
    assert abs(result.intrinsics.cy - 572.89) < 2.0
    # Band established by a 25-seed Monte-Carlo of this generator
    # (observed mean reprojection error spanned 0.235..0.247 px).
    assert 0.12 <= result.mean_reprojection_error <= 0.30
    assert elapsed < 10.0
    _report(
        "criterion 1: noisy calibration recovery "
        f"(reproj {result.mean_reprojection_error:.3f} px, {elapsed:.1f} s)"
    )


def test_c2_calibration_exactness_noise_free():
    rng = np.random.default_rng(1)
    views, _ = make_calibration_views(RECALIBRATED_INTRINSICS, BOARD, 20, 0.0, rng)
    result = calibrate(BOARD, views, (1920, 1080))
    assert result.mean_reprojection_error < 1e-6
    for name in ("fx", "fy", "cx", "cy", "k1", "k2", "k3", "p1", "p2"):
        truth = getattr(RECALIBRATED_INTRINSICS, name)
        rec = getattr(result.intrinsics, name)
        assert abs(rec - truth) <= 1e-6 * max(1.0, abs(truth))
    _report(
        "criterion 2: noise-free calibration exactness "
        f"(reproj {result.mean_reprojection_error:.2e} px)"
    )


def test_c3_georectification_fit_and_noise_band():
    h_true = Homography(
        np.array([[1.2, 0.1, 5.0], [0.05, 0.9, -3.0], [1e-4, -2e-4, 1.0]])
    )
    px = [(100, 100), (1800, 120), (200, 950), (1700, 900), (960, 540),
          (500, 700), (1500, 300)]
    world = apply_homography_many(h_true, np.array(px, dtype=np.float64))
    clean = [
        Gcp(id=f"g{i}", world=Point3(wx, wy, 0.0), image=Point2(u, v))
        for i, ((u, v), (wx, wy)) in enumerate(zip(px, world))
    ]
    fitted = fit_ground_homography(clean)
    assert np.abs(fitted.h - h_true.h).max() / np.abs(h_true.h).max() < 1e-8

    exact4 = clean[:4]
    rep4 = rmse_xy(fit_ground_homography(exact4), exact4)
    assert rep4.rmse_x < 1e-9 and rep4.rmse_y < 1e-9

    rng = np.random.default_rng(2)
    rx, ry = [], []
    for _ in range(100):
        noisy = [
            Gcp(id=g.id,
                world=Point3(g.world.x + rng.normal(0, 0.03),
                             g.world.y + rng.normal(0, 0.03), 0.0),
                image=g.image)
            for g in clean
        ]
        rep = rmse_xy(fit_ground_homography(noisy), noisy)
        rx.append(rep.rmse_x)
        ry.append(rep.rmse_y)
    assert 0.015 <= np.mean(rx) <= 0.045
    assert 0.015 <= np.mean(ry) <= 0.045
    _report(
        "criterion 3: homography fit + survey-noise RMSE band "
        f"(mean rmse_x {np.mean(rx)*100:.2f} cm, rmse_y {np.mean(ry)*100:.2f} cm)"
    )


def test_c4_warp_identity_and_bicubic_exactness():
    rng = np.random.default_rng(3)
    px = rng.integers(0, 256, (12, 16, 4), dtype=np.uint8)
    px[:, :, 3] = 255
    img = RgbaImage(px)
    geom = GridGeometry(origin_x=0.0, origin_y=11.0, cell_size=1.0,
                        n_cols=16, n_rows=12)
    warped = warp_to_grid(img, Homography(np.eye(3)), geom)
    # North-up grid rows sample source rows in reverse; on the cells with
    # full bicubic support the source pixels come back bit-exactly.
    flip = img.pixels[::-1]
    valid = warped.pixels[:, :, 3] == 255
    expected = np.zeros((12, 16), dtype=bool)
    expected[2:11, 1:14] = True  # cells whose 4x4 source support is inside
    assert np.array_equal(valid, expected)
    assert np.array_equal(warped.pixels[valid], flip[valid])
    assert (warped.pixels[~valid] == 0).all()

    pts = np.array([(5, 4), (1, 1), (13, 8)])
    out, inside = bicubic_sample_many(img, pts[:, 0], pts[:, 1])
    assert inside.all()
    assert np.array_equal(out, img.pixels[pts[:, 1], pts[:, 0]])
    _report("criterion 4: identity warp + integer bicubic bit-exactness")


def test_c5_registration_recovery_and_rms_oracle():
    rng = np.random.default_rng(4)
    src = rng.random((8, 3)) * 5
    truth = SimilarityTransform(
        1.0, axis_angle_to_rotation(np.array([0.0, 0.0, np.deg2rad(18.0)])),
        np.array([0.27, -0.15, 0.08]),
    )
    tgt = apply_similarity_many(truth, src)
    rep = estimate_alignment(
        PointPairSet(ids=tuple(f"p{i}" for i in range(8)), source=src, target=tgt)
    )
    np.testing.assert_allclose(rep.transform.rotation, truth.rotation, atol=1e-9)
    np.testing.assert_allclose(rep.transform.translation, truth.translation,
                               atol=1e-9)
    assert rep.rms < 1e-9

    fixture_src = np.array(
        [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    )
    fixture_tgt = fixture_src.copy()
    fixture_tgt[0] += (0.1, 0.0, 0.0)
    rep2 = estimate_alignment(
        PointPairSet(ids=tuple("abcde"), source=fixture_src, target=fixture_tgt)
    )
    t = rep2.transform
    mapped = t.scale * (fixture_src @ t.rotation.T) + t.translation
    oracle = float(np.sqrt((np.linalg.norm(mapped - fixture_tgt, axis=1) ** 2).mean()))
    assert abs(rep2.rms - oracle) < 1e-12
    assert abs(rep2.rms - 0.03674276132967988) < 1e-12
    _report(f"criterion 5: registration recovery + rms oracle ({rep2.rms:.6f} m)")


def test_c6_stereo_shift_and_depth_conversion():
    rng = np.random.default_rng(5)
    base = rng.random((80, 127))
    left = GrayImage(base[:, :120])
    right = GrayImage(base[:, 7:127])
    d = match_disparity(left, right, (1, 20), window=5)
    v = d.valid_mask()
    frac = (np.abs(d.values[v] - 7.0) <= 0.5).mean()
    assert frac >= 0.95

    rig = StereoRig(intrinsics=FACTORY_INTRINSICS, baseline=BASELINE_M)
    z = disparity_to_depth(rig, 127.284)
    assert abs(z - 1.0) < 1e-9
    _report(
        f"criterion 6: stereo shift oracle ({frac*100:.1f}% within 0.5 px) "
        f"+ metric depth ({z:.12f} m)"
    )


def test_c7_surface_properties():
    rng = np.random.default_rng(6)
    pts = np.column_stack([rng.random((1000, 2)) * 10, rng.random(1000)])
    tin = build_tin(PointCloud(xyz=pts))
    assert _circumcircle_violation(tin) <= 1e-9

    gx, gy = np.meshgrid(np.arange(25) * 0.2, np.arange(25) * 0.2)
    plane = PointCloud(
        xyz=np.column_stack([gx.ravel(), gy.ravel(), np.full(625, 5.0)])
    )
    tin_plane = build_tin(plane)
    geom = GridGeometry(origin_x=0.0, origin_y=4.8, cell_size=0.2,
                        n_cols=25, n_rows=25)
    dsm = rasterize_tin(tin_plane, geom, kill=np.inf)
    data = dsm.values[dsm.values != NODATA]
    np.testing.assert_allclose(data, 5.0, atol=1e-9)

    a = np.column_stack([rng.random((150, 2)) * 2, np.zeros(150)])
    b = a + np.array([12.0, 0.0, 0.0])
    tin_gap = build_tin(PointCloud(xyz=np.vstack([a, b])))
    gap_geom = GridGeometry(origin_x=0.0, origin_y=2.0, cell_size=0.25,
                            n_cols=57, n_rows=9)
    gap_dsm = rasterize_tin(tin_gap, gap_geom, kill=1.0)
    xs = gap_geom.origin_x + np.arange(gap_geom.n_cols) * gap_geom.cell_size
    in_gap = (xs > 2.5) & (xs < 11.5)
    assert (gap_dsm.values[:, in_gap] == NODATA).all()

    xy = rng.random((60, 2)) * 5
    z = 0.3 * xy[:, 0] + 0.1 * xy[:, 1] + 1.0
    delta = 0.3756
    gcps = [Gcp(id=f"g{i}", world=Point3(xy[i, 0], xy[i, 1], z[i]))
            for i in range(0, 60, 6)]
    base = vertical_check(build_tin(PointCloud(xyz=np.column_stack([xy, z]))), gcps)
    lifted = vertical_check(
        build_tin(PointCloud(xyz=np.column_stack([xy, z + delta]))), gcps
    )
    assert lifted.mean_dz - base.mean_dz == pytest.approx(delta, abs=1e-9)
    _report("criterion 7: Delaunay property, planar DSM, kill gap, vertical shift")


def test_c8_format_round_trips_and_fuzz():
    rng = np.random.default_rng(7)
    xyz = (rng.random((5000, 3)) - 0.5) * 200
    colors = rng.integers(0, 256, (5000, 4), dtype=np.uint8)
    cloud = PointCloud(xyz=xyz, colors=colors)
    from shoremap.formats import read_las

    back = read_las(write_las(cloud))
    assert np.abs(back.xyz - cloud.xyz).max() <= 0.00005 + 1e-12
    assert np.array_equal(back.colors[:, :3], colors[:, :3])

    geom = GridGeometry(origin_x=3.0, origin_y=8.0, cell_size=0.5,
                        n_cols=12, n_rows=10)
    values = rng.random((10, 12)) * 40 - 20
    asc_back = read_asc(write_asc(DsmGrid(geometry=geom, values=values)))
    assert np.abs(asc_back.values - values).max() <= 5e-4

    corpus = _seed_corpus()
    fuzz_rng = np.random.default_rng(2025)
    for i in range(10_000):
        parser = PARSERS[i % len(PARSERS)]
        mode = i % 4
        if mode == 0:
            data = fuzz_rng.integers(
                0, 256, fuzz_rng.integers(0, 250), dtype=np.uint8
            ).tobytes()
        elif mode == 1:
            base = bytearray(corpus[i % len(corpus)])
            for _ in range(fuzz_rng.integers(1, 6, endpoint=True)):
                if base:
                    base[fuzz_rng.integers(0, len(base))] = fuzz_rng.integers(0, 256)
            data = bytes(base)
        elif mode == 2:
            base = corpus[i % len(corpus)]
            data = base[: fuzz_rng.integers(0, len(base) + 1)]
        else:
            data = fuzz_rng.integers(32, 127, fuzz_rng.integers(0, 150),
                                     dtype=np.uint8).tobytes()
        start = time.perf_counter()
        try:
            parser(data)
        except ShoremapError:
            pass
        assert time.perf_counter() - start < 1.0
    _report("criterion 8: LAS/ASC round trips + 10,000-input parser fuzz")


def test_c9_end_to_end_beach_scene(tmp_path):
    scene = BeachScene(seed=0, width=320, height=240)
    paths = scene.write_fixture(tmp_path / "fixture")
    out_dir = tmp_path / "out"
    report_path = out_dir / "report.json"

    code = main([
        "run", "--config", str(paths["config"]),
        "--out-dir", str(out_dir), "--report", str(report_path),
    ])
    assert code == 0

    dsm = read_asc((out_dir / "dsm.asc").read_text())
    g = dsm.geometry
    xs = g.origin_x + np.arange(g.n_cols) * g.cell_size
    ys = g.origin_y - np.arange(g.n_rows) * g.cell_size
    gx, gy = np.meshgrid(xs, ys)
    truth = scene.z_surf(gx, gy)
    mask = dsm.values != NODATA
    assert mask.sum() > 1000
    rmse = float(np.sqrt(((dsm.values[mask] - truth[mask]) ** 2).mean()))
    assert rmse <= 2.0 * scene.sigma_world

    artifacts = ["cloud.las", "registered.las", "dsm.asc",
                 "rectified.ppm", "rectified.wld"]
    hashes1 = {
        f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in artifacts
    }
    report1 = json.loads(report_path.read_text())
    report1.pop("timing")

    code2 = main([
        "run", "--config", str(paths["config"]),
        "--out-dir", str(out_dir), "--report", str(report_path),
    ])
    assert code2 == 0
    hashes2 = {
        f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in artifacts
    }
    report2 = json.loads(report_path.read_text())
    report2.pop("timing")
    assert hashes1 == hashes2
    assert report1 == report2

    import jsonschema
    from importlib import resources

    schema = json.loads(
        resources.files("shoremap")
        .joinpath("schemas/run_report.schema.json")
        .read_text()
    )
    full_report = json.loads(report_path.read_text())
    jsonschema.validate(full_report, schema)
    assert full_report["stages_completed"] == [
        "depth", "register", "dsm", "check", "rectify"
    ]
    _report(
        "criterion 9: end-to-end beach scene "
        f"(DSM-vs-truth rmse {rmse*100:.1f} cm <= {2*scene.sigma_world*100:.0f} cm, "
        "byte-identical re-run)"
    )
