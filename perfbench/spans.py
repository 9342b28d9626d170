"""Span tracer for one shoremap CLI process, and the per-layer metrics
derived from its spans.

The tracer wraps the public functions of each shoremap module at the
points where the CLI and the pipeline call them (module attributes, so
calls made through a module's globals are seen too). Every wrapped call
records a span: name, start, end and the index of its parent span.
Spans stay in memory and are written once, when the process ends.
Counters record the work each layer did, taken from the arguments and
results of the wrapped calls. Wrappers pass arguments and results
through unchanged.

Nothing here runs at import time: `install` patches the modules, and the
traced child entry point (`traced_cli.py`) is the only caller.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict


class Tracer:
    """In-memory spans and counters for one process (single-threaded)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
        )
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order (top was {popped})")

    def add(self, name: str, value: float) -> None:
        self.counters[name] += value

    def set(self, name: str, value: float) -> None:
        self.counters[name] = value

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def _wrap(tracer: Tracer, fn, span: str | None, record=None, malloc_peak=None):
    """Wrap fn: open a span (unless span is None), call, close, then let
    record(tracer, args, kwargs, result) add counters. With malloc_peak,
    tracemalloc runs only for the duration of the call and its peak in MB
    goes to that counter (maximum over calls)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(span) if span is not None else None
        if malloc_peak is not None:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            if malloc_peak is not None:
                peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
                tracer.set(malloc_peak, max(tracer.counters.get(malloc_peak, 0.0), peak_mb))
            if idx is not None:
                tracer.close(idx)
        if record is not None:
            record(tracer, args, kwargs, result)
        return result

    return wrapper


def _patch(tracer, module, attr, span, record=None, malloc_peak=None):
    setattr(module, attr, _wrap(tracer, getattr(module, attr), span, record, malloc_peak))


# --- recorders: counters taken from arguments and results ----------------------

def _rec_match(tracer, args, kwargs, disp):
    left = args[0] if args else kwargs["left"]
    h, w = left.pixels.shape
    n_d = disp.max_disparity - disp.min_disparity + 1
    tracer.add("stereo.cost_cells", h * w * n_d)
    tracer.add("stereo._valid", int(disp.valid_mask().sum()))
    tracer.add("stereo._pixels", h * w)


def _rec_volume(tracer, args, kwargs, volume):
    tracer.add("stereo.volume_mb_computed", volume.nbytes / 1e6)


def _rec_cloud(tracer, args, kwargs, cloud):
    tracer.add("stereo.points", len(cloud))


def _rec_tin(tracer, args, kwargs, tin):
    cloud = args[0] if args else kwargs["cloud"]
    tracer.add("surface._points_in", len(cloud))
    tracer.add("surface._vertices_total", len(tin.vertices))
    tracer.set("surface.tin_vertices", len(tin.vertices))
    tracer.set("surface.triangles", len(tin.triangles))


def _rec_dsm(tracer, args, kwargs, dsm):
    tracer.set("surface.dsm_cells", dsm.values.size)
    tracer.set("surface._dsm_data", int((dsm.values != dsm.nodata).sum()))


def _rec_las_write(tracer, args, kwargs, data):
    tracer.add("formats.las_bytes", len(data))


def _rec_sample(tracer, args, kwargs, result):
    _, inside = result
    tracer.add("georectify.samples", inside.size)
    tracer.add("georectify._inside", int(inside.sum()))


def _counter(name):
    def record(tracer, args, kwargs, result):
        tracer.add(name, 1)
    return record


def install(tracer: Tracer) -> None:
    """Wrap every traced call site. Call once, before shoremap.cli.main."""
    from shoremap import calibration, cli, georectify, pipeline, stereo

    for stage in ("calibrate", "depth", "register", "dsm", "check", "rectify"):
        _patch(tracer, pipeline, f"stage_{stage}", f"cli.stage_{stage}")

    _patch(tracer, pipeline, "match_disparity", "stereo.match", _rec_match,
           malloc_peak="stereo.match_peak_mb")
    _patch(tracer, stereo, "census_transform", "stereo.census")
    _patch(tracer, stereo, "_cost_volume", None, _rec_volume)
    _patch(tracer, pipeline, "cloud_from_disparity", "stereo.cloud", _rec_cloud)
    _patch(tracer, stereo, "pixels_depth_to_points", "camera.backproject")

    _patch(tracer, pipeline, "build_tin", "surface.build_tin", _rec_tin)
    _patch(tracer, pipeline, "rasterize_tin", "surface.rasterize", _rec_dsm)
    _patch(tracer, pipeline, "clip_dsm", "surface.clip", _rec_dsm)
    _patch(tracer, pipeline, "vertical_check", "surface.vertical_check")

    _patch(tracer, pipeline, "read_las", "formats.las_read")
    _patch(tracer, pipeline, "write_las", "formats.las_write", _rec_las_write)
    for attr in ("read_ppm", "read_pgm"):
        _patch(tracer, pipeline, attr, "formats.image_read")
    for attr in ("write_ppm", "write_pgm"):
        _patch(tracer, pipeline, attr, "formats.image_write")
    _patch(tracer, pipeline, "write_asc", "formats.asc_write")
    for attr in ("parse_config_text", "parse_corner_csv", "parse_gcp_csv",
                 "parse_pair_csv", "parse_wkt_polygon", "read_calibration"):
        _patch(tracer, pipeline, attr, "formats.text_parse")

    _patch(tracer, pipeline, "fit_ground_homography", "georectify.fit")
    _patch(tracer, pipeline, "warp_to_grid", "georectify.warp")
    # bicubic_sample_many has two callers: the photo undistortion in
    # pipeline and warp_to_grid inside georectify.
    _patch(tracer, pipeline, "bicubic_sample_many", "georectify.sample", _rec_sample)
    _patch(tracer, georectify, "bicubic_sample_many", "georectify.sample", _rec_sample)

    _patch(tracer, pipeline, "_distort_xy", "camera.distort")
    _patch(tracer, pipeline, "undistort_arrays", "camera.undistort")

    _patch(tracer, calibration, "estimate_view_homography", "calibration.homography")
    _patch(tracer, calibration, "zhang_init", "calibration.seed")
    _patch(tracer, calibration, "decompose_extrinsics", "calibration.seed")
    _patch(tracer, calibration, "refine", "calibration.refine")
    problem = calibration._ReprojectionProblem
    _patch(tracer, problem, "jacobian", None, _counter("calibration.lm_iterations"))
    _patch(tracer, problem, "residuals", None, _counter("calibration.residual_evals"))

    _patch(tracer, pipeline, "estimate_alignment", "registration.estimate")
    _patch(tracer, pipeline, "apply_alignment", "registration.apply")

    _patch(tracer, cli, "main", "cli.main")


# --- aggregation ---------------------------------------------------------------

STAGES = ("calibrate", "depth", "register", "dsm", "check", "rectify")

# Per-layer metric name -> unit. Time metrics (unit "s") are the summed
# inclusive durations of the spans of that name, except stereo.match_s,
# which is self time (census is its child span).
LAYER_METRICS = {
    "surface.build_tin_s": "s",
    "surface.build_tin_calls": "count",
    "surface.tin_vertices": "count",
    "surface.dedupe_ratio": "ratio",
    "surface.us_per_vertex": "us",
    "surface.triangles": "count",
    "surface.rasterize_s": "s",
    "surface.dsm_cells": "count",
    "surface.dsm_data_ratio": "ratio",
    "surface.clip_s": "s",
    "surface.vertical_check_s": "s",
    "stereo.census_s": "s",
    "stereo.match_s": "s",
    "stereo.cloud_s": "s",
    "stereo.cost_cells": "count",
    "stereo.volume_mb_computed": "MB",
    "stereo.match_peak_mb": "MB",
    "stereo.valid_ratio": "ratio",
    "stereo.points": "count",
    "formats.las_read_s": "s",
    "formats.las_read_calls": "count",
    "formats.las_write_s": "s",
    "formats.las_bytes": "bytes",
    "formats.image_read_s": "s",
    "formats.image_write_s": "s",
    "formats.asc_write_s": "s",
    "formats.text_parse_s": "s",
    "georectify.fit_s": "s",
    "georectify.sample_s": "s",
    "georectify.samples": "count",
    "georectify.inside_ratio": "ratio",
    "georectify.warp_s": "s",
    "camera.distort_s": "s",
    "camera.undistort_s": "s",
    "camera.backproject_s": "s",
    "calibration.homography_s": "s",
    "calibration.seed_s": "s",
    "calibration.refine_s": "s",
    "calibration.lm_iterations": "count",
    "calibration.residual_evals": "count",
    "registration.estimate_s": "s",
    "registration.apply_s": "s",
    **{f"cli.stage_{s}_s": "s" for s in STAGES},
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}

# Counts that are a pure function of the inputs: the fingerprint a run
# with a recorded seed is compared against.
FINGERPRINT = (
    "stereo.points", "surface.tin_vertices", "surface.triangles",
    "surface.dsm_cells", "georectify.samples", "calibration.lm_iterations",
)


def durations(spans: list[dict]) -> tuple[dict, dict, dict]:
    """Summed inclusive time, summed self time and call count per span name.

    Self time is a span's duration minus the durations of its children.
    Spans of one process never overlap except by nesting.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    total, self_t, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for i, s in enumerate(spans):
        d = s["end"] - s["start"]
        total[s["name"]] += d
        self_t[s["name"]] += d - child[i]
        calls[s["name"]] += 1
    return total, self_t, calls


def layer_metrics(dumps: list[dict], op_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one operation, from the dumps of the traced
    processes it ran (one per CLI invocation) and its wall time as the
    parent measured it. Layers the operation never entered read 0."""
    total, self_t, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    counters: dict[str, float] = defaultdict(float)
    for dump in dumps:
        t, st, c = durations(dump["spans"])
        for k in t:
            total[k] += t[k]
            self_t[k] += st[k]
            calls[k] += c[k]
        for k, v in dump["counters"].items():
            counters[k] += v
    m = {name: 0.0 for name in LAYER_METRICS}
    for name in LAYER_METRICS:
        if name.endswith("_s"):
            m[name] = total.get(name[:-2], 0.0)
        elif name in counters:
            m[name] = counters[name]
    m["stereo.match_s"] = self_t.get("stereo.match", 0.0)
    m["surface.build_tin_calls"] = calls.get("surface.build_tin", 0)
    m["formats.las_read_calls"] = calls.get("formats.las_read", 0)
    if counters.get("surface._points_in"):
        m["surface.dedupe_ratio"] = counters["surface._vertices_total"] / counters["surface._points_in"]
    if counters.get("surface._vertices_total"):
        m["surface.us_per_vertex"] = 1e6 * total["surface.build_tin"] / counters["surface._vertices_total"]
    if m["surface.dsm_cells"]:
        m["surface.dsm_data_ratio"] = counters["surface._dsm_data"] / m["surface.dsm_cells"]
    if counters.get("stereo._pixels"):
        m["stereo.valid_ratio"] = counters["stereo._valid"] / counters["stereo._pixels"]
    if m["georectify.samples"]:
        m["georectify.inside_ratio"] = counters["georectify._inside"] / m["georectify.samples"]
    m["cli.overhead_s"] = op_wall_s - sum(total.get(f"cli.stage_{s}", 0.0) for s in STAGES)
    for name, unit in LAYER_METRICS.items():
        if unit in ("count", "bytes"):
            m[name] = int(m[name])
    return m


def unaccounted_s(dumps: list[dict], op_wall_s: float) -> float:
    """Operation wall time not covered by any span's self time: process
    start-up before the first span, and exit after the last one."""
    covered = 0.0
    for dump in dumps:
        _, self_t, _ = durations(dump["spans"])
        covered += sum(self_t.values())
    return op_wall_s - covered
