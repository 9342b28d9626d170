"""Command-line interface.

Subcommands mirror the processing stages: calibrate, rectify, depth,
register, dsm, check, and run (the full chain with a consolidated JSON
report). Exit codes: 0 success, 2 input/validation error, 3 numerical or
solver error, or out of memory.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from . import __version__, pipeline
from .calibration import BoardSpec
from .errors import InputError, ShoremapError
from .geometry import GridGeometry

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _add_out_dir(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out-dir",
        default=os.environ.get("SHOREMAP_OUT_DIR", "."),
        help="output directory (default: $SHOREMAP_OUT_DIR or '.')",
    )


def _add_report(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report", help="write the metrics fragment to this JSON file")


# Subcommand help of the `run` stages; their flags come from the stage
# signatures (pipeline.INPUTS and pipeline.SETTINGS): `--<name>` with
# underscores as dashes.
_STAGE_HELP = {
    "depth": "stereo matching and point cloud",
    "register": "align a cloud to control pairs",
    "dsm": "TIN rasterization to an ASC grid",
    "check": "vertical accuracy against GCPs",
    "rectify": "projective georectification",
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


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

    for name in pipeline.RUN_STAGES:
        p = sub.add_parser(name, help=_STAGE_HELP[name])
        for inp, required in pipeline.INPUTS[name].items():
            p.add_argument(_flag(inp), required=required, help="input file")
        for setting, default in pipeline.SETTINGS[name].items():
            if type(default) is bool:
                p.add_argument(_flag(setting), action="store_true")
            else:
                p.add_argument(
                    _flag(setting), type=type(default), default=default,
                    help="default: %(default)s",
                )
        if "grid" in pipeline.PARAMETERS[name]:
            # argparse's own pattern has no exponent: `--grid -1e3 ...` is a value.
            p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
            p.add_argument(
                "--grid", nargs=4, metavar=("OX", "OY", "NCOLS", "NROWS"),
                help="explicit grid: origin x/y (upper-left center) and dimensions",
            )
        if "out_dir" in pipeline.PARAMETERS[name]:
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
    if report_path:
        pipeline.write_report(fragment, Path(report_path))
    sys.stdout.write(pipeline.report_text(fragment))


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

    if args.command in pipeline.RUN_STAGES:
        name = args.command
        kwargs = {s: getattr(args, s) for s in pipeline.SETTINGS[name]}
        files = {
            inp: Path(getattr(args, inp))
            for inp in pipeline.INPUTS[name] if getattr(args, inp) is not None
        }
        labels = {inp: f"{_flag(inp)} {path}" for inp, path in files.items()}
        kwargs.update(pipeline.read_inputs(files, labels, {}))
        if "grid" in pipeline.PARAMETERS[name]:
            kwargs["grid"] = _grid_from_args(args)
        if "out_dir" in pipeline.PARAMETERS[name]:
            kwargs["out_dir"] = Path(args.out_dir)
        _, fragment = pipeline.call_stage(name, **kwargs)
        _emit({pipeline.REPORT_KEYS[name]: fragment}, args.report)
        return EXIT_OK

    if args.command == "run":
        out_dir = Path(args.out_dir)
        report_path = Path(args.report) if args.report else out_dir / "run_report.json"
        report = pipeline.run_pipeline(Path(args.config), out_dir, report_path, args.set)
        sys.stdout.write(pipeline.report_text(report))
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (InputError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except ShoremapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SOLVER
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
