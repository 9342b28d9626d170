"""Command-line interface.

Subcommands mirror the processing stages: calibrate, rectify, depth,
register, dsm, check, and run (the full chain with a consolidated JSON
report). Exit codes: 0 success, 2 input/validation error, 3 numerical or
solver error, or out of memory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__, pipeline
from .calibration import BoardSpec
from .errors import InputError, ShoremapError
from .geometry import GridGeometry
from .georectify import DEFAULT_RECTIFY_CELL_SIZE
from .pipeline import DEFAULT_D_MAX, DEFAULT_D_MIN, DEFAULT_RECTIFY_MARGIN
from .stereo import DEFAULT_WINDOW, DEFAULT_Z_MAX
from .surface import DEFAULT_DSM_CELL_SIZE, DEFAULT_KILL_DISTANCE

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _default_out_dir() -> str:
    return os.environ.get("SHOREMAP_OUT_DIR", ".")


def _add_out_dir(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out-dir",
        default=_default_out_dir(),
        help="output directory (default: $SHOREMAP_OUT_DIR or '.')",
    )


def _add_report(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report", help="write the metrics fragment to this JSON file")


def _grid_from_args(args) -> GridGeometry | None:
    if args.grid is None:
        return None
    ox, oy, n_cols, n_rows = args.grid
    return GridGeometry(
        origin_x=float(ox),
        origin_y=float(oy),
        cell_size=args.cell_size,
        n_cols=int(n_cols),
        n_rows=int(n_rows),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shoremap",
        description="Stereo close-range photogrammetry pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="checkerboard intrinsic calibration")
    p.add_argument(
        "--corners", required=True, nargs="+",
        help="corner CSV file(s); two files calibrate a stereo pair as "
             "independent monocular runs",
    )
    p.add_argument("--board-cols", type=int, required=True)
    p.add_argument("--board-rows", type=int, required=True)
    p.add_argument("--square-size", type=float, required=True, help="meters")
    p.add_argument("--image-width", type=int, required=True)
    p.add_argument("--image-height", type=int, required=True)
    p.add_argument("--baseline", type=float, default=0.12, help="meters")
    p.add_argument("--out", required=True, help="calibration file to write")
    _add_report(p)

    p = sub.add_parser("depth", help="stereo matching and point cloud")
    p.add_argument("--left", required=True, help="left (reference) image, PPM/PGM")
    p.add_argument("--right", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--d-min", type=int, default=DEFAULT_D_MIN)
    p.add_argument("--d-max", type=int, default=DEFAULT_D_MAX)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--z-max", type=float, default=DEFAULT_Z_MAX, help="meters")
    p.add_argument("--write-disparity", action="store_true")
    _add_out_dir(p)
    _add_report(p)

    p = sub.add_parser("register", help="align a cloud to control pairs")
    p.add_argument("--cloud", required=True, help="LAS input")
    p.add_argument("--pairs", required=True, help="pair CSV")
    p.add_argument("--with-scale", action="store_true")
    _add_out_dir(p)
    _add_report(p)

    p = sub.add_parser("dsm", help="TIN rasterization to an ASC grid")
    p.add_argument("--cloud", required=True, help="LAS input")
    p.add_argument(
        "--cell-size", type=float, default=DEFAULT_DSM_CELL_SIZE, help="meters"
    )
    p.add_argument("--kill", type=float, default=DEFAULT_KILL_DISTANCE, help="meters")
    p.add_argument("--clip", help="WKT polygon file")
    p.add_argument(
        "--grid", nargs=4, metavar=("OX", "OY", "NCOLS", "NROWS"),
        help="explicit grid: origin x/y (upper-left center) and dimensions",
    )
    _add_out_dir(p)
    _add_report(p)

    p = sub.add_parser("check", help="vertical accuracy against GCPs")
    p.add_argument("--cloud", required=True, help="LAS input")
    p.add_argument("--gcps", required=True, help="GCP CSV")
    _add_report(p)

    p = sub.add_parser("rectify", help="projective georectification")
    p.add_argument("--image", required=True, help="photo to rectify, PPM/PGM")
    p.add_argument("--gcps", required=True, help="GCP CSV with px,py observations")
    p.add_argument("--calibration", help="lens model to sample the raw photo through")
    p.add_argument(
        "--cell-size", type=float, default=DEFAULT_RECTIFY_CELL_SIZE, help="meters"
    )
    p.add_argument(
        "--margin", type=float, default=DEFAULT_RECTIFY_MARGIN,
        help="bbox margin fraction",
    )
    p.add_argument(
        "--grid", nargs=4, metavar=("OX", "OY", "NCOLS", "NROWS"),
        help="explicit grid: origin x/y (upper-left center) and dimensions",
    )
    _add_out_dir(p)
    _add_report(p)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config value (repeatable)",
    )
    _add_out_dir(p)
    _add_report(p)

    return parser


def _emit(fragment: dict, report_path: str | None) -> None:
    text = json.dumps(fragment, indent=2, sort_keys=True) + "\n"
    if report_path:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        Path(report_path).write_text(text)
    sys.stdout.write(text)


def _dispatch(args) -> int:
    if args.command == "calibrate":
        board = BoardSpec(
            cols=args.board_cols, rows=args.board_rows, square_size=args.square_size
        )
        fragment = pipeline.stage_calibrate(
            board=board,
            corners_paths=[Path(p) for p in args.corners],
            image_size=(args.image_width, args.image_height),
            baseline_m=args.baseline,
            out_path=Path(args.out),
        )
        _emit({"calibration": fragment}, args.report)
        return EXIT_OK

    if args.command == "depth":
        _, fragment = pipeline.stage_depth(
            left_path=Path(args.left),
            right_path=Path(args.right),
            calibration_path=Path(args.calibration),
            out_dir=Path(args.out_dir),
            d_min=args.d_min,
            d_max=args.d_max,
            window=args.window,
            z_max=args.z_max,
            write_disparity=args.write_disparity,
        )
        _emit({"depth": fragment}, args.report)
        return EXIT_OK

    if args.command == "register":
        _, fragment = pipeline.stage_register(
            cloud_path=Path(args.cloud),
            pairs_path=Path(args.pairs),
            out_dir=Path(args.out_dir),
            with_scale=args.with_scale,
        )
        _emit({"registration": fragment}, args.report)
        return EXIT_OK

    if args.command == "dsm":
        _, fragment = pipeline.stage_dsm(
            cloud_path=Path(args.cloud),
            out_dir=Path(args.out_dir),
            cell_size=args.cell_size,
            kill=args.kill,
            clip_path=Path(args.clip) if args.clip else None,
            grid=_grid_from_args(args),
        )
        _emit({"dsm": fragment}, args.report)
        return EXIT_OK

    if args.command == "check":
        fragment = pipeline.stage_check(
            cloud_path=Path(args.cloud), gcps_path=Path(args.gcps)
        )
        _emit({"vertical_check": fragment}, args.report)
        return EXIT_OK

    if args.command == "rectify":
        _, fragment = pipeline.stage_rectify(
            image_path=Path(args.image),
            gcps_path=Path(args.gcps),
            out_dir=Path(args.out_dir),
            calibration_path=Path(args.calibration) if args.calibration else None,
            cell_size=args.cell_size,
            margin=args.margin,
            grid=_grid_from_args(args),
        )
        _emit({"georectification": fragment}, args.report)
        return EXIT_OK

    if args.command == "run":
        config = pipeline.load_config(Path(args.config))
        for override in args.set:
            if "=" not in override:
                raise InputError(f"--set needs KEY=VALUE, got {override!r}")
            key, _, value = override.partition("=")
            config[key.strip()] = value.strip()
        out_dir = Path(args.out_dir)
        report_path = (
            Path(args.report) if args.report else out_dir / "run_report.json"
        )
        report = pipeline.run_pipeline(config, out_dir, report_path)
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _dispatch(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except ShoremapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SOLVER
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
