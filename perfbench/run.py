"""The shoremap benchmark.

    python3 perfbench/run.py --workload beach_run --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, summary only

Drives the ``shoremap`` CLI as a user does: one operation at a time,
closed loop, one client. Every CLI invocation runs in its own child
process, so its peak resident set is its own. Inputs are generated from
``--seed`` before timing starts; the same seed gives the same files.

With ``--trace 0`` the run measures end-to-end metrics (no tracing).
With ``--trace 1`` it alternates untraced and traced operations: the
traced child wraps shoremap's module functions (see ``spans.py``), the
per-layer metrics come from its spans, and the traced-minus-untraced
wall time is the tracing overhead.

Each operation's outputs are checked (exit code, artifacts identical
across the operations of a run and across runs of the same seed, report
schema, accuracy bands); an operation failing any check is counted in
``failed``. Human-readable lines go first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. A full record, with the environment, goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import FINGERPRINT, LAYER_METRICS, layer_metrics, unaccounted_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SCHEMA = ROOT / "src" / "shoremap" / "schemas" / "run_report.schema.json"
FINGERPRINTS = HERE / "fingerprint.json"

SETUP_REPEATS = 7
# A run must end within 180 s: start no operation expected to end after
# RUN_BUDGET_S, and kill any CLI call still running at RUN_DEADLINE_S.
RUN_BUDGET_S = 150.0
RUN_DEADLINE_S = 165.0
# Spans may miss the child's interpreter start and exit; more than this
# unaccounted wall time means the tracer lost time it should have seen.
UNACCOUNTED_MAX_S = 0.5
UNACCOUNTED_MAX_SHARE = 0.05

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
ACCURACY_UNITS = {
    "dsm_rmse_m": "m", "check_rmse_dz_m": "m", "rectify_rmse_m": "m",
    "valid_fraction": "ratio", "disparity_mae_px": "px", "calib_reproj_px": "px",
}


def fail_usage(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def thread_cap() -> int:
    return len(os.sched_getaffinity(0))


def child_env(cap: int) -> dict[str, str]:
    """Environment of every shoremap child: sources from src/, and BLAS /
    OpenMP pools capped at the cores this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(cap)
    env.pop("SHOREMAP_OUT_DIR", None)
    return env


def source_hash() -> str:
    """Digest of the program's sources: artifacts are compared across runs
    only between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(cap: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_omp_thread_cap": cap,
        "machine": platform.machine(),
        "system": platform.system(),
    }


# --- child processes -------------------------------------------------------------

@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    log: str


def run_cli(args: list[str], cwd: Path, env: dict, log_path: Path,
            spans_path: Path | None, timeout_s: float = RUN_DEADLINE_S) -> Proc:
    """Run one shoremap CLI invocation to completion (or kill it after
    timeout_s) and measure it."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "shoremap.cli", *args]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), "--", *args]
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = log_path.read_text(errors="replace")[-400:]
    return Proc(code=proc.returncode, wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                cpu_s=usage.ru_utime + usage.ru_stime, log=tail)


@dataclass
class Op:
    traced: bool
    wall_s: float = 0.0
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    error: str | None = None
    dumps: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def check_tracer(op: Op, out: Path) -> str | None:
    """The traced stage spans agree with the report's own stage timing,
    and the spans' self times account for the operation's wall time."""
    report_path = out / "report.json"
    if report_path.is_file():
        timing = json.loads(report_path.read_text()).get("timing", {})
        for stage, seconds in timing.get("stage_seconds", {}).items():
            traced = op.layers[f"cli.stage_{stage}_s"]
            if abs(traced - seconds) > 0.01 + 0.01 * seconds:
                return (f"tracer: stage {stage} span {traced:.4f} s vs report "
                        f"{seconds:.4f} s")
    gap = unaccounted_s(op.dumps, op.wall_s)
    allowed = UNACCOUNTED_MAX_S + UNACCOUNTED_MAX_SHARE * op.wall_s
    if not -0.005 <= gap <= allowed:
        return f"tracer: {gap:.3f} s of {op.wall_s:.3f} s not covered by spans"
    return None


# --- one run -----------------------------------------------------------------

class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.cap = thread_cap()
        self.env = child_env(self.cap)
        self.dir = STATE / "work" / workload.name
        self.schema = json.loads(SCHEMA.read_text())
        self.digests: dict | None = None
        self.digest_file = STATE / "digests" / f"{workload.name}-seed{seed}-src{source_hash()}.json"
        self.ops: list[Op] = []
        self.setup_s: list[float] = []
        self.t_created = time.perf_counter()

    def setup(self):
        """Generate the inputs SETUP_REPEATS times into the same place;
        every repeat must write the same bytes."""
        shutil.rmtree(self.dir, ignore_errors=True)
        digest = None
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.dir / "inputs", ignore_errors=True)
            t0 = time.perf_counter()
            inputs = self.w.generate(self.seed, self.dir / "inputs")
            self.setup_s.append(time.perf_counter() - t0)
            d = inputs.digest()
            if digest is not None and d != digest:
                raise RuntimeError("input generation is not deterministic")
            digest = d
        self.inputs = inputs

    def run_op(self, traced: bool) -> Op:
        from workloads import CheckFailed

        op = Op(traced=traced)
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        logs = self.dir / "logs"
        logs.mkdir(exist_ok=True)
        for k, args in enumerate(self.w.commands(self.inputs, out)):
            spans = logs / f"spans{k}.json" if traced else None
            remaining = self.t_created + RUN_DEADLINE_S - time.perf_counter()
            p = run_cli(args, out, self.env, logs / f"cli{k}.log", spans, remaining)
            op.wall_s += p.wall_s
            op.cpu_s += p.cpu_s
            op.rss_mb = max(op.rss_mb, p.rss_mb)
            if p.code != 0:
                op.error = f"`shoremap {args[0]}` exited {p.code}: {p.log.strip()[-200:]}"
                return op
            if traced:
                op.dumps.append(json.loads(spans.read_text()))
        try:
            op.accuracy = self.w.check(self.inputs, out, self.schema)
            digests = self.w.artifacts(out)
        except CheckFailed as exc:
            op.error = str(exc)
            return op
        if self.digests is None:
            self.digests = digests
            if self.digest_file.is_file():
                earlier = json.loads(self.digest_file.read_text())
                if earlier != digests:
                    op.error = "artifacts differ from an earlier run of this seed"
                    return op
            else:
                self.digest_file.parent.mkdir(parents=True, exist_ok=True)
                self.digest_file.write_text(json.dumps(digests, indent=1, sort_keys=True))
        elif digests != self.digests:
            changed = sorted(k for k in digests if digests[k] != self.digests.get(k))
            op.error = f"artifacts differ between operations of one run: {changed}"
            return op
        if traced:
            op.layers = layer_metrics(op.dumps, op.wall_s)
            op.error = check_tracer(op, out)
            op.layers["_unaccounted_s"] = unaccounted_s(op.dumps, op.wall_s)
        return op

    def loop(self):
        """Closed loop: start the next operation only after the previous
        one ended, and only if it is expected to end within --seconds."""
        t_start = time.perf_counter()
        i = 0
        while True:
            t0 = time.perf_counter()
            if self.trace:
                order = (False, True) if i % 2 == 0 else (True, False)
                self.ops.extend(self.run_op(t) for t in order)
            else:
                self.ops.append(self.run_op(False))
            i += 1
            now = time.perf_counter()
            last = now - t0
            if now - t_start + last > self.seconds:
                break
            if now - self.t_created + 1.5 * last > RUN_BUDGET_S:
                break

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def median(xs):
    """Median, or 0 when no operation succeeded (the result then says
    correct: false, and JSON has no NaN)."""
    return statistics.median(xs) if xs else 0.0


def tail_percentile(n: int) -> float | None:
    """Highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 95, 99):
        if n * (1 - p / 100) >= 10:
            best = p
    return best


def summarize(run: Run) -> tuple[dict, dict]:
    """(last-line result, full record) of a finished run."""
    good = [op for op in run.ops if op.error is None]
    plain = [op for op in good if not op.traced]
    traced = [op for op in good if op.traced]
    failed = len(run.ops) - len(good)
    metrics = {}
    if run.trace:
        for name, unit in LAYER_METRICS.items():
            metrics[name] = {"value": median([op.layers[name] for op in traced]), "unit": unit}
        metrics["trace.overhead_s"]["value"] = (
            median([op.wall_s for op in traced]) - median([op.wall_s for op in plain])
        )
    else:
        values = {
            "wall_s": median([op.wall_s for op in plain]),
            "peak_rss_mb": median([op.rss_mb for op in plain]),
            "setup_s": median(run.setup_s),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = failed == 0 and bool(good)
    result = {"correct": correct, "attempted": len(run.ops), "failed": failed,
              "metrics": metrics}

    walls = sorted(op.wall_s for op in plain)
    accuracy = {}
    for name in ACCURACY_UNITS:
        values = [op.accuracy[name] for op in good if name in op.accuracy]
        if values:
            accuracy[name] = values[0]
    record = {
        "workload": run.w.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "environment": environment(run.cap),
        "setup_s": run.setup_s,
        "ops": [
            {"traced": op.traced, "wall_s": op.wall_s, "cpu_s": op.cpu_s,
             "rss_mb": op.rss_mb, "error": op.error, "accuracy": op.accuracy,
             "layers": op.layers}
            for op in run.ops
        ],
        "wall_s_samples": walls,
        "tail_percentile": tail_percentile(len(walls)),
        "error_rate": failed / len(run.ops),
        "accuracy": accuracy,
        "result": result,
    }
    if traced:
        record["fingerprint"] = {k: metrics[k]["value"] for k in FINGERPRINT}
    return result, record


def compare_fingerprint(record: dict) -> list[str]:
    """Differences between this run and the recorded fingerprint of its
    seed, if one is recorded. Counts and accuracy are pure functions of
    the inputs, so any difference is flagged."""
    if not FINGERPRINTS.is_file():
        return []
    recorded = json.loads(FINGERPRINTS.read_text()).get(record["workload"], {}).get(str(record["seed"]))
    if not recorded:
        return []
    diffs = []
    for section in ("fingerprint", "accuracy"):
        for key, want in recorded.get(section, {}).items():
            got = record.get(section, {}).get(key)
            if got is not None and got != want:
                diffs.append(f"{key}: recorded {want!r}, measured {got!r}")
    return diffs


def record_fingerprint(record: dict) -> None:
    data = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    data.setdefault(record["workload"], {})[str(record["seed"])] = {
        "fingerprint": record["fingerprint"], "accuracy": record["accuracy"],
    }
    FINGERPRINTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def print_summary(record: dict, flags: list[str]) -> None:
    r = record["result"]
    env = record["environment"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"ops={r['attempted']} failed={r['failed']}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for op in record["ops"]:
        if op["error"]:
            print(f"  FAILED op: {op['error']}")
    n = len(record["wall_s_samples"])
    for name, m in r["metrics"].items():
        extra = ""
        if name == "wall_s":
            p = record["tail_percentile"]
            tail = "n/a (fewer than 20 samples)"
            if p is not None:
                s = record["wall_s_samples"]
                tail = f"p{p}={s[min(len(s) - 1, int(len(s) * p / 100))]:.4f} s"
            extra = f"  (median of {n} ops; tail {tail})"
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'error_rate':28s} {record['error_rate']:.6g} ratio")
    for name, value in record["accuracy"].items():
        print(f"  {name:28s} {value:.6g} {ACCURACY_UNITS[name]}")
    for line in flags:
        print(f"  FINGERPRINT MISMATCH {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprint", action="store_true",
                        help="store this traced run's counts and accuracy as its seed's fingerprint")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shoremap" / "cli.py").is_file() or not (ROOT / "tests" / "synth.py").is_file():
        fail_usage(f"no shoremap sources (src/shoremap, tests/synth.py) under {ROOT}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        fail_usage(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.record_fingerprint and not args.trace:
        fail_usage("--record-fingerprint needs --trace 1")

    results = {}
    for name in names:
        run = Run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        try:
            run.setup()
            run.loop()
        finally:
            run.cleanup()
        result, record = summarize(run)
        flags = compare_fingerprint(record)
        record["fingerprint_mismatch"] = flags
        if args.record_fingerprint:
            record_fingerprint(record)
        out = STATE / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n")
        print_summary(record, flags)
        results[name] = result

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
