"""Pipeline stages behind the CLI: each stage reads its inputs, runs one
module, writes its artifacts, and contributes a metrics fragment to the
run report.

All metrics in the report are unit-tagged objects {"value": ..., "unit":
...}. Wall-clock data lives exclusively under the report's "timing" key
so that reports from identical runs are byte-identical outside it.
"""

from __future__ import annotations

import json
import logging
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import BoardSpec, CalibrationView, calibrate
# _distort_xy and bicubic_sample_many stay imported for perfbench/spans.py.
from .camera import CameraIntrinsics, StereoRig, undistort_arrays, _distort_xy
from .errors import InputError, MalformedHeader, TooFewPoints
from .geometry import GridGeometry, Homography, Point2
from .georectify import (
    DEFAULT_RECTIFY_CELL_SIZE,
    Gcp,
    bicubic_sample_many,
    fit_ground_homography,
    rmse_xy,
    warp_to_grid,
)
from .registration import apply_alignment, estimate_alignment
from .stereo import (
    DEFAULT_WINDOW,
    DEFAULT_Z_MAX,
    DisparityMap,
    GrayImage,
    RgbaImage,
    cloud_from_disparity,
    match_disparity,
)
from .surface import (
    DEFAULT_DSM_CELL_SIZE,
    DEFAULT_KILL_DISTANCE,
    DsmGrid,
    build_tin,
    clip_dsm,
    rasterize_tin,
    vertical_check,
)
from .formats import (
    parse_corner_csv,
    parse_gcp_csv,
    parse_pair_csv,
    parse_wkt_polygon,
    read_calibration,
    read_las,
    read_pgm,
    read_ppm,
    write_asc,
    write_calibration,
    write_las,
    write_pgm,
    write_ppm,
    write_world_file,
)

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
RUN_STAGES = ("depth", "register", "dsm", "check", "rectify")

DEFAULT_D_MIN = 1
DEFAULT_D_MAX = 64
DEFAULT_RECTIFY_MARGIN = 0.1


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _las_bytes(cloud) -> bytes:
    """LAS serialization with a 0.1 mm quantum and a per-axis integer
    offset, so world-scale coordinates fit the 32-bit range."""
    if len(cloud):
        offset = tuple(float(np.floor(cloud.xyz[:, a].min())) for a in range(3))
    else:
        offset = (0.0, 0.0, 0.0)
    return write_las(cloud, scale=0.0001, offset=offset)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse line-based `key = value` configuration with stage prefixes."""
    config: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedHeader(f"config line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise MalformedHeader(f"config line {line_no}: empty key or value")
        if key in config:
            raise MalformedHeader(f"config line {line_no}: duplicate key {key!r}")
        config[key] = value
    return config


def load_config(path: Path) -> dict[str, str]:
    return parse_config_text(_read_text(path))


def _read_text(path: Path) -> str:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"input file not found: {path}")
    return path.read_text()


def _read_bytes(path: Path) -> bytes:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"input file not found: {path}")
    return path.read_bytes()


def _check_image_size(name: str, img: RgbaImage, intr: CameraIntrinsics) -> None:
    if (img.width, img.height) != (intr.image_width, intr.image_height):
        raise InputError(
            f"{name} {img.width}x{img.height} does not match "
            f"calibration {intr.image_width}x{intr.image_height}"
        )


def _load_image_any(path: Path) -> RgbaImage:
    """Load a PPM (P6) or PGM (P5) as RGBA by magic-number sniffing."""
    data = _read_bytes(path)
    if data[:2] == b"P5":
        gray = read_pgm(data)
        v = np.rint(gray.pixels * 255.0).astype(np.uint8)
        rgba = np.stack([v, v, v, np.full_like(v, 255)], axis=2)
        return RgbaImage(rgba)
    return read_ppm(data)


# --- stages --------------------------------------------------------------------

def _calibrate_one(board: BoardSpec, corners_path: Path,
                   image_size: tuple[int, int]):
    views_raw = parse_corner_csv(_read_text(corners_path))
    if len(views_raw) < 3:
        raise InputError(
            f"{corners_path}: at least 3 views required, got {len(views_raw)}"
        )
    for v, corners in enumerate(views_raw):
        if len(corners) != board.corner_count:
            raise InputError(
                f"{corners_path}: view {v} has {len(corners)} corners, board "
                f"expects {board.corner_count}"
            )
    views = [CalibrationView(image_points=tuple(c)) for c in views_raw]
    return calibrate(board, views, image_size), len(views)


def stage_calibrate(
    board: BoardSpec,
    corners_paths: list[Path],
    image_size: tuple[int, int],
    baseline_m: float,
    out_path: Path,
) -> dict:
    """Calibrate each eye's corner file independently and write one
    calibration file per eye.

    With a single corner file the calibration lands at out_path; with
    several (a stereo pair calibrated as two monocular runs), each output
    gets the corner file's stem as a suffix. The report carries per-eye
    errors plus the corner-weighted pooled mean.
    """
    if not corners_paths:
        raise InputError("at least one corner file is required")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    eyes = []
    total_err = 0.0
    total_corners = 0
    for corners_path in corners_paths:
        result, n_views = _calibrate_one(board, Path(corners_path), image_size)
        if len(corners_paths) == 1:
            target = out_path
        else:
            stem = Path(corners_path).stem
            target = out_path.with_name(f"{out_path.stem}.{stem}{out_path.suffix}")
        target.write_text(write_calibration(result.intrinsics, baseline_m))
        n_corners = n_views * board.corner_count
        total_err += result.mean_reprojection_error * n_corners
        total_corners += n_corners
        eyes.append(
            {
                "corners_file": str(corners_path),
                "mean_reprojection_error": metric(
                    result.mean_reprojection_error, "px"
                ),
                "per_view_reprojection_error": [
                    metric(e, "px") for e in result.per_view_errors
                ],
                "n_views": n_views,
                "calibration_file": str(target),
            }
        )
    fragment = {
        "eyes": eyes,
        "pooled_mean_reprojection_error": metric(total_err / total_corners, "px"),
    }
    if len(eyes) == 1:
        fragment["mean_reprojection_error"] = eyes[0]["mean_reprojection_error"]
        fragment["calibration_file"] = eyes[0]["calibration_file"]
    return fragment


def stage_depth(
    left_path: Path,
    right_path: Path,
    calibration_path: Path,
    out_dir: Path,
    d_min: int = DEFAULT_D_MIN,
    d_max: int = DEFAULT_D_MAX,
    window: int = DEFAULT_WINDOW,
    z_max: float = DEFAULT_Z_MAX,
    write_disparity: bool = False,
) -> tuple[Path, dict]:
    """Match a stereo pair, build the colorized cloud, write cloud.las."""
    rig = read_calibration(_read_text(calibration_path))
    left_rgba = _load_image_any(left_path)
    right_rgba = _load_image_any(right_path)
    _check_image_size("left image", left_rgba, rig.intrinsics)
    disp = match_disparity(
        left_rgba.to_gray(), right_rgba.to_gray(), (d_min, d_max), window
    )
    cloud = cloud_from_disparity(disp, rig, left_rgba, z_max=z_max)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cloud_path = out_dir / "cloud.las"
    cloud_path.write_bytes(_las_bytes(cloud))
    if write_disparity:
        dgrid = DsmGrid(
            geometry=GridGeometry(
                origin_x=0.0, origin_y=float(disp.height - 1), cell_size=1.0,
                n_cols=disp.width, n_rows=disp.height,
            ),
            values=np.where(disp.valid_mask(), disp.values, -9999.0),
        )
        (out_dir / "disparity.asc").write_text(write_asc(dgrid))
    n_valid = int(disp.valid_mask().sum())
    metrics = {
        "valid_disparities": n_valid,
        "valid_fraction": metric(
            n_valid / float(disp.width * disp.height), "ratio"
        ),
        "points": len(cloud),
        "cloud_file": str(cloud_path),
    }
    return cloud_path, metrics


def stage_register(
    cloud_path: Path,
    pairs_path: Path,
    out_dir: Path,
    with_scale: bool = False,
) -> tuple[Path, dict]:
    """Estimate the similarity from control pairs, transform the cloud."""
    cloud = read_las(_read_bytes(cloud_path))
    pairs = parse_pair_csv(_read_text(pairs_path))
    report = estimate_alignment(pairs, with_scale=with_scale)
    registered = apply_alignment(cloud, report.transform)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "registered.las"
    out_path.write_bytes(_las_bytes(registered))
    metrics = {
        "rms": metric(report.rms, "m"),
        "per_pair_residuals": [
            {"id": pid, "residual": metric(res, "m")}
            for pid, res in report.per_pair_residuals
        ],
        "with_scale": report.with_scale,
        "scale": report.transform.scale,
        "registered_file": str(out_path),
    }
    return out_path, metrics


def _bbox_grid(
    xs: np.ndarray, ys: np.ndarray, cell_size: float, margin: float
) -> GridGeometry:
    """Grid over the points' bounding box, grown on each side by margin
    times the span (at least one cell). With margin 0 the box is exact."""
    span_x = max(float(xs.max() - xs.min()), cell_size)
    span_y = max(float(ys.max() - ys.min()), cell_size)
    min_x = float(xs.min()) - margin * span_x
    max_x = float(xs.max()) + margin * span_x
    min_y = float(ys.min()) - margin * span_y
    max_y = float(ys.max()) + margin * span_y
    n_cols = int(np.floor((max_x - min_x) / cell_size)) + 1
    n_rows = int(np.floor((max_y - min_y) / cell_size)) + 1
    return GridGeometry(
        origin_x=min_x, origin_y=max_y, cell_size=cell_size,
        n_cols=n_cols, n_rows=n_rows,
    )


def stage_dsm(
    cloud_path: Path,
    out_dir: Path,
    cell_size: float = DEFAULT_DSM_CELL_SIZE,
    kill: float = DEFAULT_KILL_DISTANCE,
    clip_path: Path | None = None,
    grid: GridGeometry | None = None,
) -> tuple[Path, dict]:
    """Triangulate the cloud, rasterize, optionally clip, write dsm.asc.

    The grid and the clip polygon are validated before the triangulation,
    so bad settings fail before the expensive step."""
    if not kill > 0:
        raise InputError(f"kill distance must be positive, got {kill:g}")
    cloud = read_las(_read_bytes(cloud_path))
    if len(cloud) < 3:
        raise TooFewPoints(f"need at least 3 points, got {len(cloud)}")
    geometry = grid if grid is not None else _bbox_grid(
        cloud.xyz[:, 0], cloud.xyz[:, 1], cell_size, 0.0
    )
    poly = parse_wkt_polygon(_read_text(clip_path)) if clip_path is not None else None
    tin = build_tin(cloud)
    dsm = rasterize_tin(tin, geometry, kill=kill)
    if poly is not None:
        dsm = clip_dsm(dsm, poly)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "dsm.asc"
    out_path.write_text(write_asc(dsm))
    n_data = int((dsm.values != dsm.nodata).sum())
    metrics = {
        "cells": dsm.values.size,
        "data_cells": n_data,
        "cell_size": metric(geometry.cell_size, "m"),
        "kill_distance": metric(kill, "m"),
        "triangles": len(tin.triangles),
        "dsm_file": str(out_path),
    }
    return out_path, metrics


def stage_check(cloud_path: Path, gcps_path: Path) -> dict:
    """Vertical accuracy of the cloud surface against surveyed GCPs."""
    cloud = read_las(_read_bytes(cloud_path))
    gcps = parse_gcp_csv(_read_text(gcps_path))
    tin = build_tin(cloud)
    report = vertical_check(tin, gcps)
    per_gcp = []
    for gid, surface_z, dz in report.per_gcp:
        if surface_z is None:
            per_gcp.append({"id": gid, "outside": True})
        else:
            per_gcp.append(
                {
                    "id": gid,
                    "outside": False,
                    "surface_z": metric(surface_z, "m"),
                    "dz": metric(dz, "m"),
                }
            )
    metrics = {
        "per_gcp": per_gcp,
        "n_outside": report.n_outside,
    }
    for name, value in (
        ("mean_dz", report.mean_dz),
        ("rmse_dz", report.rmse_dz),
        ("max_abs_dz", report.max_abs_dz),
    ):
        metrics[name] = metric(value, "m") if value is not None else None
    return metrics


def _undistort_gcp_observations(
    gcps: list[Gcp], intr: CameraIntrinsics
) -> list[Gcp]:
    observed = [k for k, g in enumerate(gcps) if g.image is not None]
    xu, yu, ok = undistort_arrays(
        intr,
        np.array([(gcps[k].image.x - intr.cx) / intr.fx for k in observed]),
        np.array([(gcps[k].image.y - intr.cy) / intr.fy for k in observed]),
    )
    if not ok.all():
        bad = gcps[observed[int(np.argmin(ok))]]
        raise InputError(f"gcp {bad.id}: undistortion did not converge")
    out = list(gcps)
    for k, u, v in zip(observed, intr.fx * xu + intr.cx, intr.fy * yu + intr.cy):
        out[k] = Gcp(id=gcps[k].id, world=gcps[k].world, image=Point2(float(u), float(v)))
    return out


def stage_rectify(
    image_path: Path,
    gcps_path: Path,
    out_dir: Path,
    calibration_path: Path | None = None,
    cell_size: float = DEFAULT_RECTIFY_CELL_SIZE,
    margin: float = DEFAULT_RECTIFY_MARGIN,
    grid: GridGeometry | None = None,
) -> tuple[Path, dict]:
    """Fit the image-to-world homography from GCPs, warp the photo, write
    rectified.ppm + rectified.wld, and report the per-axis RMSEs. The photo
    is read last, so bad GCPs, calibration or grid size fail before it."""
    gcps = parse_gcp_csv(_read_text(gcps_path))
    lens = None
    if calibration_path is not None:
        lens = read_calibration(_read_text(calibration_path)).intrinsics
        gcps = _undistort_gcp_observations(gcps, lens)
    h = fit_ground_homography(gcps)
    report = rmse_xy(h, gcps)
    observed = [g for g in gcps if g.image is not None]
    geometry = grid if grid is not None else _bbox_grid(
        np.array([g.world.x for g in observed]),
        np.array([g.world.y for g in observed]),
        cell_size, margin,
    )
    img = _load_image_any(image_path)
    if lens is not None:
        _check_image_size("image", img, lens)
    raster = warp_to_grid(img, h, geometry, lens=lens)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ppm_path = out_dir / "rectified.ppm"
    wld_path = out_dir / "rectified.wld"
    ppm_path.write_bytes(write_ppm(RgbaImage(raster.bands)))
    wld_path.write_text(write_world_file(geometry))
    metrics = {
        "rmse_x": metric(report.rmse_x, "m"),
        "rmse_y": metric(report.rmse_y, "m"),
        "rmse_metric": "RMSE (rooted)",
        "per_gcp_residuals": [
            {"id": gid, "dx": metric(dx, "m"), "dy": metric(dy, "m")}
            for gid, dx, dy in report.per_point_residuals
        ],
        "n_gcps": report.n,
        "undistorted_observations": lens is not None,
        "rectified_image": str(ppm_path),
        "world_file": str(wld_path),
    }
    return ppm_path, metrics


# --- full pipeline --------------------------------------------------------------

def _require(config: dict[str, str], key: str) -> str:
    if key not in config:
        raise InputError(f"config key {key!r} is required")
    return config[key]


def _get_float(config: dict[str, str], key: str, default: float) -> float:
    if key not in config:
        return default
    try:
        return float(config[key])
    except ValueError as exc:
        raise InputError(f"config key {key!r}: bad number {config[key]!r}") from exc


def _get_int(config: dict[str, str], key: str, default: int) -> int:
    if key not in config:
        return default
    try:
        return int(config[key])
    except ValueError as exc:
        raise InputError(f"config key {key!r}: bad integer {config[key]!r}") from exc


def _get_bool(config: dict[str, str], key: str, default: bool) -> bool:
    if key not in config:
        return default
    value = config[key].lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise InputError(f"config key {key!r}: bad boolean {config[key]!r}")


_RUN_INPUT_KEYS = (
    "depth.left", "depth.right", "depth.calibration",
    "register.pairs", "check.gcps", "rectify.image", "rectify.gcps",
)
_RUN_OPTIONAL_INPUT_KEYS = ("dsm.clip", "rectify.calibration")


def _preflight(config: dict[str, str]) -> dict[str, dict]:
    """Check that every referenced input exists and parse every typed key,
    before any stage runs. Returns each stage's parsed keyword arguments."""
    for key in _RUN_INPUT_KEYS:
        path = Path(_require(config, key))
        if not path.is_file():
            raise InputError(f"config key {key!r}: file not found: {path}")
    for key in _RUN_OPTIONAL_INPUT_KEYS:
        if key in config and not Path(config[key]).is_file():
            raise InputError(f"config key {key!r}: file not found: {config[key]}")
    return {
        "depth": {
            "d_min": _get_int(config, "depth.d_min", DEFAULT_D_MIN),
            "d_max": _get_int(config, "depth.d_max", DEFAULT_D_MAX),
            "window": _get_int(config, "depth.window", DEFAULT_WINDOW),
            "z_max": _get_float(config, "depth.z_max", DEFAULT_Z_MAX),
            "write_disparity": _get_bool(config, "depth.write_disparity", False),
        },
        "register": {
            "with_scale": _get_bool(config, "register.with_scale", False),
        },
        "dsm": {
            "cell_size": _get_float(config, "dsm.cell_size", DEFAULT_DSM_CELL_SIZE),
            "kill": _get_float(config, "dsm.kill", DEFAULT_KILL_DISTANCE),
        },
        "rectify": {
            "cell_size": _get_float(
                config, "rectify.cell_size", DEFAULT_RECTIFY_CELL_SIZE
            ),
            "margin": _get_float(config, "rectify.margin", DEFAULT_RECTIFY_MARGIN),
        },
    }


def run_pipeline(config: dict[str, str], out_dir: Path, report_path: Path) -> dict:
    """Execute depth -> register -> dsm -> check -> rectify, writing the
    consolidated report (and partial results when a stage fails).

    A preflight first checks every input file and parses every typed key;
    its failure is reported as failed_stage "preflight" before any stage
    runs. Raises the failing step's error after writing the report;
    completed stages' artifacts stay on disk.
    """
    out_dir = Path(out_dir)
    started = datetime.now(timezone.utc)
    report = {
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "config": dict(sorted(config.items())),
        "stages": {},
        "stages_completed": [],
        "failed_stage": None,
        "error": None,
        "timing": {
            "started_utc": started.strftime("%Y-%m-%dT%H:%M:%SZ"),
            "finished_utc": None,
            "stage_seconds": {},
        },
    }

    def finish() -> None:
        report["timing"]["finished_utc"] = datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        )
        write_report(report, report_path)

    def fail(name: str, exc: Exception) -> None:
        report["failed_stage"] = name
        report["error"] = f"{type(exc).__name__}: {exc}"
        finish()

    try:
        settings = _preflight(config)
    except Exception as exc:
        fail("preflight", exc)
        raise

    state: dict[str, Path] = {}

    def run_stage(name: str, fn) -> None:
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as exc:
            report["timing"]["stage_seconds"][name] = time.perf_counter() - t0
            fail(name, exc)
            raise
        report["timing"]["stage_seconds"][name] = time.perf_counter() - t0
        report["stages_completed"].append(name)

    def do_depth():
        cloud_path, metrics = stage_depth(
            left_path=Path(config["depth.left"]),
            right_path=Path(config["depth.right"]),
            calibration_path=Path(config["depth.calibration"]),
            out_dir=out_dir,
            **settings["depth"],
        )
        report["stages"]["depth"] = metrics
        state["cloud"] = cloud_path

    def do_register():
        registered, metrics = stage_register(
            cloud_path=state["cloud"],
            pairs_path=Path(config["register.pairs"]),
            out_dir=out_dir,
            **settings["register"],
        )
        report["stages"]["registration"] = metrics
        state["registered"] = registered

    def do_dsm():
        _, metrics = stage_dsm(
            cloud_path=state["registered"],
            out_dir=out_dir,
            clip_path=Path(config["dsm.clip"]) if "dsm.clip" in config else None,
            **settings["dsm"],
        )
        report["stages"]["dsm"] = metrics

    def do_check():
        report["stages"]["vertical_check"] = stage_check(
            cloud_path=state["registered"],
            gcps_path=Path(config["check.gcps"]),
        )

    def do_rectify():
        _, metrics = stage_rectify(
            image_path=Path(config["rectify.image"]),
            gcps_path=Path(config["rectify.gcps"]),
            out_dir=out_dir,
            calibration_path=(
                Path(config["rectify.calibration"])
                if "rectify.calibration" in config
                else None
            ),
            **settings["rectify"],
        )
        report["stages"]["georectification"] = metrics

    run_stage("depth", do_depth)
    run_stage("register", do_register)
    run_stage("dsm", do_dsm)
    run_stage("check", do_check)
    run_stage("rectify", do_rectify)
    finish()
    return report


def write_report(report: dict, path: Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
