"""Pipeline stages behind the CLI: each stage takes its text inputs parsed
(by read_inputs, before it runs), reads its image or cloud, runs one
module, writes its artifacts, and contributes a metrics fragment to the
run report.

All metrics in the report are unit-tagged objects {"value": ..., "unit":
...}. Wall-clock data lives exclusively under the report's "timing" key
so that reports from identical runs are byte-identical outside it.
"""

from __future__ import annotations

import inspect
import json
import time
from collections.abc import Sequence
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import BoardSpec, CalibrationView, calibrate
from .camera import CameraIntrinsics, StereoRig, normalized_to_pixels, pixels_to_normalized
# _distort_xy, bicubic_sample_many and write_pgm stay imported for
# perfbench/spans.py, which patches these names here.
from .camera import _distort_xy, undistort_arrays
from .errors import GridTooLarge, InputError, MalformedHeader, TooFewPoints
from .geometry import CELL_CAP, GridGeometry, Point2
from .georectify import (
    Gcp,
    bicubic_sample_many,
    fit_ground_homography,
    rmse_xy,
    warp_to_grid,
)
from .registration import PointPairSet, apply_alignment, estimate_alignment
from .stereo import (
    DEFAULT_WINDOW,
    DEFAULT_Z_MAX,
    RgbaImage,
    cloud_from_disparity,
    match_disparity,
    require_match_settings,
    require_pinhole,
    require_z_max,
)
from .surface import (
    DEFAULT_KILL_DISTANCE,
    NODATA,
    ClipPolygon,
    DsmGrid,
    Tin,
    build_tin,
    clip_dsm,
    rasterize_tin,
    vertical_check,
)
from .formats._text import parse_key_values
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

SCHEMA_VERSION = 1


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# The run configuration: `key = value` lines with stage-prefixed keys.
parse_config_text = parse_key_values


def load_config(path: Path) -> dict[str, str]:
    try:
        return parse_config_text(_read_bytes(path).decode())
    except (MalformedHeader, UnicodeDecodeError) as exc:
        raise MalformedHeader(f"config {path}: {exc}") from exc


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

def _read_views(board: BoardSpec, corners_path: Path) -> list[CalibrationView]:
    views_raw = parse_corner_csv(_read_bytes(corners_path))
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
    return [CalibrationView(image_points=tuple(c)) for c in views_raw]


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
    gets the corner file's stem as a suffix, and corner files whose
    outputs would collide are rejected. Every corner file is parsed and
    checked before the first calibration runs, and the image size and
    baseline before the first corner file is read. The report carries
    per-eye errors plus the corner-weighted pooled mean.
    """
    if not corners_paths:
        raise InputError("at least one corner file is required")
    if min(image_size) <= 0:
        raise InputError("image size must be positive, got {}x{}".format(*image_size))
    if not (np.isfinite(baseline_m) and baseline_m > 0):
        raise InputError(f"baseline must be positive, got {baseline_m:g}")
    out_path = Path(out_path)
    if len(corners_paths) == 1:
        targets = [out_path]
    else:
        targets = [
            out_path.with_name(f"{out_path.stem}.{Path(c).stem}{out_path.suffix}")
            for c in corners_paths
        ]
    clash = [t for k, t in enumerate(targets) if t in targets[:k]]
    if clash:
        raise InputError(f"two corner files would both write {clash[0]}")
    all_views = [_read_views(board, Path(c)) for c in corners_paths]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    eyes = []
    total_err = 0.0
    total_corners = 0
    for corners_path, target, views in zip(corners_paths, targets, all_views):
        result = calibrate(board, views, image_size)
        target.write_text(write_calibration(result.intrinsics, baseline_m))
        n_views = len(views)
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
    calibration: StereoRig,
    out_dir: Path,
    d_min: int = 1,
    d_max: int = 64,
    window: int = DEFAULT_WINDOW,
    z_max: float = DEFAULT_Z_MAX,
    write_disparity: bool = False,
) -> tuple[Path, dict]:
    """Refuse lens distortion, a z_max not > 0 and bad matcher settings,
    then match the pair and write its pinhole cloud.las."""
    require_pinhole(calibration)
    require_z_max(z_max)
    require_match_settings((d_min, d_max), window, calibration.intrinsics.image_width)
    left_rgba = _load_image_any(left_path)
    right_rgba = _load_image_any(right_path)
    _check_image_size("left image", left_rgba, calibration.intrinsics)
    disp = match_disparity(
        left_rgba.to_gray(), right_rgba.to_gray(), (d_min, d_max), window
    )
    cloud = cloud_from_disparity(disp, calibration, left_rgba, z_max=z_max)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cloud_path = out_dir / "cloud.las"
    cloud_path.write_bytes(write_las(cloud))
    if write_disparity:
        dgrid = DsmGrid(
            geometry=GridGeometry(
                origin_x=0.0, origin_y=float(disp.height - 1), cell_size=1.0,
                n_cols=disp.width, n_rows=disp.height,
            ),
            values=np.where(disp.valid_mask(), disp.values, NODATA),
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
    pairs: PointPairSet,
    out_dir: Path,
    with_scale: bool = False,
) -> tuple[Path, dict]:
    """Estimate the similarity from control pairs, transform the cloud."""
    cloud = read_las(_read_bytes(cloud_path))
    report = estimate_alignment(pairs, with_scale=with_scale)
    registered = apply_alignment(cloud, report.transform)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "registered.las"
    out_path.write_bytes(write_las(registered))
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


# The value-only rule of each stage setting that has one, by name: its
# stage checks it before reading anything, and run before the first stage.
_SETTING_RULES = {
    "kill": (lambda v: v > 0, "kill distance must be positive"),
    "cell_size": (lambda v: 0 < v < np.inf, "cell size must be positive and finite"),
    "margin": (lambda v: 0 <= v < np.inf, "grid margin must be finite and not negative"),
}


def require_settings(**settings: float) -> None:
    """Raise InputError for the first setting that breaks its rule."""
    for name, value in settings.items():
        ok, rule = _SETTING_RULES[name]
        if not ok(value):
            raise InputError(f"{rule}, got {value:g}")


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
    n_cols = float(np.floor((max_x - min_x) / cell_size)) + 1
    n_rows = float(np.floor((max_y - min_y) / cell_size)) + 1
    # An extreme but finite setting can make the counts infinite, so
    # check them as floats before they become integers.
    if not n_cols * n_rows <= CELL_CAP:
        raise GridTooLarge(
            f"grid of {n_cols:.0f}x{n_rows:.0f} cells exceeds cap {CELL_CAP}"
        )
    return GridGeometry(
        origin_x=min_x, origin_y=max_y, cell_size=cell_size,
        n_cols=int(n_cols), n_rows=int(n_rows),
    )


def stage_dsm(
    cloud_path: Path,
    out_dir: Path,
    cell_size: float = 0.10,
    kill: float = DEFAULT_KILL_DISTANCE,
    clip: ClipPolygon | None = None,
    grid: GridGeometry | None = None,
) -> tuple[Tin, dict]:
    """Triangulate the cloud, rasterize, optionally clip, write dsm.asc.
    Returns the TIN, which the vertical check of a run reuses.

    The settings are checked before the cloud is read, and the grid
    before the triangulation, so bad settings fail before the expensive
    step."""
    require_settings(kill=kill, cell_size=cell_size)
    cloud = read_las(_read_bytes(cloud_path))
    if len(cloud) < 3:
        raise TooFewPoints(f"need at least 3 points, got {len(cloud)}")
    geometry = grid if grid is not None else _bbox_grid(
        cloud.xyz[:, 0], cloud.xyz[:, 1], cell_size, 0.0
    )
    tin = build_tin(cloud)
    dsm = rasterize_tin(tin, geometry, kill=kill)
    if clip is not None:
        dsm = clip_dsm(dsm, clip)
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
    return tin, metrics


def stage_check(cloud_path: Path, gcps: Sequence[Gcp], tin: Tin | None = None) -> dict:
    """Vertical accuracy of the cloud surface against surveyed GCPs.

    ``tin``, the TIN a run's dsm stage built, is used as it is when its
    vertices are this cloud's (see :func:`build_tin`'s ``reuse``);
    otherwise, as in a standalone check, the whole cloud is triangulated."""
    cloud = read_las(_read_bytes(cloud_path))
    tin = build_tin(cloud, reuse=tin)
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
    observed: list[Gcp], intr: CameraIntrinsics
) -> list[Gcp]:
    u, v = np.array([g.image for g in observed]).reshape(-1, 2).T
    xu, yu, ok = undistort_arrays(intr, *pixels_to_normalized(intr, u, v))
    if not ok.all():
        bad = observed[int(np.argmin(ok))]
        raise InputError(f"gcp {bad.id}: undistortion did not converge")
    return [
        Gcp(id=g.id, world=g.world, image=Point2(float(u), float(v)))
        for g, u, v in zip(observed, *normalized_to_pixels(intr, xu, yu))
    ]


def stage_rectify(
    image_path: Path,
    gcps: Sequence[Gcp],
    out_dir: Path,
    calibration: StereoRig | None = None,
    cell_size: float = 0.05,
    margin: float = 0.1,
    grid: GridGeometry | None = None,
) -> tuple[Path, dict]:
    """Fit the image-to-world homography from GCPs, warp the photo, write
    rectified.ppm + rectified.wld, and report the per-axis RMSEs. The photo
    is read last, so bad settings, too few GCPs or a grid too large fail
    before it."""
    require_settings(cell_size=cell_size, margin=margin)
    observed = [g for g in gcps if g.image is not None]
    lens = calibration.intrinsics if calibration is not None else None
    if lens is not None:
        observed = _undistort_gcp_observations(observed, lens)
    h = fit_ground_homography(observed)
    report = rmse_xy(h, observed)
    geometry = grid if grid is not None else _bbox_grid(
        np.array([g.world.x for g in observed]),
        np.array([g.world.y for g in observed]),
        cell_size, margin,
    )
    img = _load_image_any(image_path)
    if lens is not None:
        _check_image_size("image", img, lens)
    rectified = warp_to_grid(img, h, geometry, lens=lens)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ppm_path = out_dir / "rectified.ppm"
    wld_path = out_dir / "rectified.wld"
    ppm_path.write_bytes(write_ppm(rectified))
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

# The report key of each `run` stage's metrics, in chain order.
REPORT_KEYS = {
    "depth": "depth",
    "register": "registration",
    "dsm": "dsm",
    "check": "vertical_check",
    "rectify": "georectification",
}
RUN_STAGES = tuple(REPORT_KEYS)

# The setting types, by the name their parse errors give.
_KINDS = {bool: "boolean", int: "integer", float: "number"}

# The format reader of each text input, by input name. A stage takes the
# parsed object as its `<name>` parameter; read_inputs looks the reader up
# in this module at call time, so that a replaced reader is the one called.
READERS = {
    "calibration": "read_calibration",
    "pairs": "parse_pair_csv",
    "gcps": "parse_gcp_csv",
    "clip": "parse_wkt_polygon",
}

# What each stage takes, read once from the stage function's own signature
# (tests and the tracer later replace the module attributes with callables
# that have none): PARAMETERS lists its parameter names; SETTINGS maps each
# keyword parameter whose default is of a setting type to that default;
# INPUTS maps each input file, a `<name>_path` parameter or a parameter
# named in READERS, by <name>, to whether it is required.
_SIGNATURES = {
    name: inspect.signature(globals()[f"stage_{name}"]).parameters.values()
    for name in RUN_STAGES
}
PARAMETERS = {name: tuple(p.name for p in ps) for name, ps in _SIGNATURES.items()}
SETTINGS = {
    name: {p.name: p.default for p in ps if type(p.default) in _KINDS}
    for name, ps in _SIGNATURES.items()
}
INPUTS = {
    name: {
        p.name.removesuffix("_path"): p.default is p.empty
        for p in ps if p.name.endswith("_path") or p.name in READERS
    }
    for name, ps in _SIGNATURES.items()
}
# The `run` config keys: `<stage>.<name>` for every input and setting,
# except the `cloud` input, which the chain supplies.
_CHAINED_INPUT = "cloud"
_CONFIG_KEYS = frozenset(
    f"{stage}.{name}"
    for stage in RUN_STAGES
    for name in (*INPUTS[stage], *SETTINGS[stage])
    if name != _CHAINED_INPUT
)

_BOOLEANS = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}


def call_stage(name: str, **kwargs) -> tuple[object, dict]:
    """Call stage_<name> as this module holds it at call time, so that a
    replaced stage is the one called. Returns (what the chain passes on,
    metrics): an artifact path, the dsm stage's TIN, or None for a stage
    that returns its metrics alone."""
    result = globals()[f"stage_{name}"](**kwargs)
    return result if isinstance(result, tuple) else (None, result)


def _parse_setting(key: str, text: str, default):
    """Parse a config value as the type of the stage default it replaces."""
    kind = type(default)
    try:
        return _BOOLEANS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError) as exc:
        raise InputError(f"config key {key!r}: bad {_KINDS[kind]} {text!r}") from exc


def read_inputs(
    files: dict[str, Path], labels: dict[str, str], parsed: dict
) -> dict:
    """Stage keyword arguments for input files by input name: a text input
    read as bytes and parsed by its reader in READERS, any other input as
    its `<name>_path`. A text input's read or parse error (a typed
    InputError, also on non-ASCII content) keeps its type and is prefixed
    with labels[name]. parsed holds the result of each (reader, path)
    already read, so a file named twice is read and parsed once and every
    stage gets the same object."""
    kwargs = {}
    for name, path in files.items():
        if name not in READERS:
            kwargs[f"{name}_path"] = path
            continue
        key = (READERS[name], path)
        if key not in parsed:
            try:
                parsed[key] = globals()[READERS[name]](_read_bytes(path))
            except InputError as exc:
                raise type(exc)(f"{labels[name]}: {exc}") from exc
        kwargs[name] = parsed[key]
    return kwargs


def _preflight(config: dict[str, str]) -> dict[str, dict]:
    """Check the config cheapest first: reject unknown keys, parse every
    setting, check that every input file exists, then read each distinct
    text input once. Returns each stage's keyword arguments."""
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        raise InputError(
            f"config key {unknown[0]!r} is not an input or setting of any stage"
        )
    kwargs = {stage: {} for stage in RUN_STAGES}
    for stage in RUN_STAGES:
        for name, default in SETTINGS[stage].items():
            key = f"{stage}.{name}"
            if key in config:
                kwargs[stage][name] = _parse_setting(key, config[key], default)
    files = {}
    for stage in RUN_STAGES:
        for name, required in INPUTS[stage].items():
            key = f"{stage}.{name}"
            if name == _CHAINED_INPUT or (key not in config and not required):
                continue
            if key not in config:
                raise InputError(f"config key {key!r} is required")
            path = Path(config[key])
            if not path.is_file():
                raise InputError(f"config key {key!r}: file not found: {path}")
            files[key] = (stage, name, path)
    parsed = {}
    for key, (stage, name, path) in files.items():
        label = {name: f"config key {key!r}"}
        kwargs[stage].update(read_inputs({name: path}, label, parsed))
    return kwargs


def run_pipeline(
    config: dict[str, str] | Path, out_dir: Path, report_path: Path,
    overrides: Sequence[str] = (),
) -> dict:
    """Execute depth -> register -> dsm -> check -> rectify, writing the
    consolidated report (and partial results when a stage fails). The
    dsm stage's TIN goes to check, so a run triangulates once, and is
    dropped before rectify.

    config is the run configuration or its file; `KEY=VALUE` overrides
    apply on top, in order. A preflight reads them and then checks them
    as _preflight does; its failure is reported as failed_stage
    "preflight", with the config as far as it was read. A setting that
    breaks its rule in require_settings then fails its own stage, before
    any stage runs. Raises the failing step's error after writing the
    report; completed stages' artifacts stay on disk.
    """
    out_dir = Path(out_dir)
    started = datetime.now(timezone.utc)
    report = {
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "config": {},
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
        config = load_config(config) if isinstance(config, Path) else dict(config)
        report["config"] = config
        for key, equals, value in (o.partition("=") for o in overrides):
            if not equals:
                raise InputError(f"--set needs KEY=VALUE, got {key!r}")
            config[key.strip()] = value.strip()
        kwargs = _preflight(config)
    except Exception as exc:
        fail("preflight", exc)
        raise
    for name in RUN_STAGES:
        try:
            require_settings(**{k: v for k, v in kwargs[name].items() if k in _SETTING_RULES})
        except InputError as exc:
            fail(name, exc)
            raise

    def run_stage(name: str, **chained):
        t0 = time.perf_counter()
        try:
            passed_on, metrics = call_stage(name, **kwargs[name], **chained)
        except Exception as exc:
            report["timing"]["stage_seconds"][name] = time.perf_counter() - t0
            fail(name, exc)
            raise
        report["timing"]["stage_seconds"][name] = time.perf_counter() - t0
        report["stages"][REPORT_KEYS[name]] = metrics
        report["stages_completed"].append(name)
        return passed_on

    cloud = run_stage("depth", out_dir=out_dir)
    registered = run_stage("register", cloud_path=cloud, out_dir=out_dir)
    tin = run_stage("dsm", cloud_path=registered, out_dir=out_dir)
    run_stage("check", cloud_path=registered, tin=tin)
    del tin
    run_stage("rectify", out_dir=out_dir)
    finish()
    return report


def report_text(report: dict) -> str:
    """The one serialization of every JSON report and fragment: sorted keys
    and a fixed layout, so identical runs give identical bytes."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: dict, path: Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report_text(report))
