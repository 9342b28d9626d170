"""Self-checks of the benchmark's tracer and of BENCHMARK.json.

Run with ``python -m pytest perfbench``. The traced run uses a small
beach fixture so the whole file takes a few seconds.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import pytest  # noqa: E402

import run  # noqa: E402
from spans import FINGERPRINT, LAYER_METRICS, durations, layer_metrics  # noqa: E402
from synth import BeachScene  # noqa: E402
from workloads import BeachRun, Inputs, WORKLOADS  # noqa: E402


def test_self_time_is_duration_minus_children():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "b", "start": 5.0, "end": 6.0, "parent": 0},
    ]
    total, self_t, calls = durations(spans)
    assert total == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert self_t == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert sum(self_t.values()) == total["a"]


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(FINGERPRINT) <= set(LAYER_METRICS)


@pytest.fixture(scope="module")
def small_beach(tmp_path_factory):
    """One untraced and one traced `shoremap run` of a 64x48 beach scene,
    both writing to the same directory so their reports are comparable."""
    root = tmp_path_factory.mktemp("beach")
    inputs = Inputs(files=BeachScene(seed=0, width=64, height=48).write_fixture(root / "in"))
    env = run.child_env(run.thread_cap())
    out = root / "out"
    ops = {}
    for traced in (False, True):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        spans_path = root / "spans.json" if traced else None
        args = BeachRun().commands(inputs, out)[0]
        proc = run.run_cli(args, out, env, root / "cli.log", spans_path)
        assert proc.code == 0, proc.log
        op = run.Op(traced=traced, wall_s=proc.wall_s)
        if traced:
            op.dumps = [json.loads(spans_path.read_text())]
            op.layers = layer_metrics(op.dumps, op.wall_s)
            op.error = run.check_tracer(op, out)
        report = json.loads((out / "report.json").read_text())
        ops[traced] = (op, BeachRun().artifacts(out), report["timing"]["stage_seconds"])
    return ops


def test_traced_stages_agree_with_report_timing(small_beach):
    op, _, stage_seconds = small_beach[True]
    assert set(stage_seconds) == {"depth", "register", "dsm", "check", "rectify"}
    for stage, seconds in stage_seconds.items():
        assert op.layers[f"cli.stage_{stage}_s"] == pytest.approx(seconds, rel=0.01, abs=0.01)
    # check_tracer also requires the spans' self times to cover the wall
    # time, up to interpreter start and exit.
    assert op.error is None
    assert op.layers["surface.build_tin_calls"] == 2
    assert op.layers["formats.las_read_calls"] == 3


def test_tracing_leaves_outputs_unchanged(small_beach):
    assert small_beach[False][1] == small_beach[True][1]
