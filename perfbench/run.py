#!/usr/bin/env python3
"""Benchmark of the ctcsim command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

Each repeat runs ``ctcsim.cli.main(argv)`` in a fresh interpreter
(``worker.py``) on the checkout's ``src/``; repeats are run one after another
until ``--seconds`` is used up, with a per-workload minimum count.

``--trace 0`` reports the end-to-end metrics of untraced repeats. The host's
speed drifts, so short slices of a fixed kernel (``calibrate.py``) run inside
each untraced repeat's process, every quarter second of ``main``; their time
is taken out of the repeat's wall time, which is then scaled by their mean.
``--trace 1``
alternates untraced and traced repeats, reports the per-layer metrics of the
traced ones and the tracing overhead (median traced ``wall_s`` minus median
untraced ``wall_s``). Every repeat's output files are checked (see
``workloads.py``); a repeat fails on a nonzero exit code, an exception or a
failed check. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The host is shared and not pinned: no CPU affinity, governor or cgroup
setting is touched. Single repeats swing by up to ~30% here, so every timing
is a median, the time metrics are scaled to a reference host speed, and the
load average is printed at start and end.
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
import time
from importlib import metadata
from pathlib import Path

from calibrate import REFERENCE_S
from workloads import DEFAULT_SEED, WORKLOADS, CheckError, sha256_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

# The whole invocation must end within 180 s; stop starting repeats well before.
HARD_LIMIT_S = 165.0
SETUP_PROBES = 3
MIN_PLAIN = 3
MIN_TRACED = 2

END_TO_END_UNITS = {"wall_norm_s": "s", "node_epochs_per_norm_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Printed and kept in the report beside the end-to-end metrics, not gated:
# the unscaled figures and each repeat's mean kernel slice time.
RAW_UNITS = {"wall_s": "s", "node_epochs_per_s": "1/s", "kernel_s": "s"}
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "sim.load_config_s": "s",
    "sim.run_s": "s",
    "sim.run_calls": "count",
    "sim.run_self_s": "s",
    "sim.step_s": "s",
    "sim.step_us_p50": "us",
    "sim.step_us_p99": "us",
    "sim.run_ns_per_node_epoch": "ns",
    "sim.node_epochs": "count",
    "sim.binomial_draws": "computed_count",
    "sim.classify_s": "s",
    "sim.classify_qualifying_frac": "ratio",
    "experiments.run_case_s": "s",
    "experiments.run_case_self_s": "s",
    "experiments.runs": "count",
    "experiments.derive_case_v_s": "s",
    "utilization.utilization_node_s": "s",
    "report.emit_csv_s": "s",
    "report.figure_series_s": "s",
    "report.emit_figure_csv_s": "s",
    "report.emit_trace_csv_s": "s",
    "report.bytes_written": "B",
    "report.emit_mb_per_s": "MB/s",
    "trace.overhead_s": "s",
}
# Counts that must repeat exactly between runs of the same code and seed.
EXACT_COUNTS = (
    "sim.run_calls",
    "sim.node_epochs",
    "sim.binomial_draws",
    "experiments.runs",
    "report.bytes_written",
    "sim.classify_qualifying_frac",
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")), "unknown")
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _read("/proc/loadavg").strip(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "noise": (
            "shared host, no pinning or governor/cgroup change; single repeats swing up to ~30%; "
            "medians of wall times scaled by kernel slices run inside each repeat"
        ),
    }


class Bench:
    def __init__(self, workload, seed: int, seconds: int, work_dir: Path, env: dict):
        self.workload = workload
        self.env = env
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.started = time.perf_counter()
        self.config_path = work_dir / "config.json"
        if workload.sim_config is not None:
            self.config_path.write_text(json.dumps(workload.config_for(seed)), encoding="utf-8")
        self.hashes: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.durations: list[float] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spawn(self, mode: str, out_dir: Path) -> dict:
        result_path = self.work_dir / "result.json"
        result_path.unlink(missing_ok=True)
        spec = {
            "src": str(SRC),
            "argv": self.workload.argv(self.seed, out_dir, self.config_path),
            "mode": mode,
            "result_path": str(result_path),
            "spans_path": str(WORK / f"spans-{self.workload.name}.csv"),
        }
        budget = HARD_LIMIT_S - self.elapsed()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(budget, 1.0),
        )
        if proc.returncode != 0 or not result_path.exists():
            return {"ok": False, "error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        return json.loads(result_path.read_text(encoding="utf-8"))

    def setup_probe(self) -> dict:
        return self.spawn("setup", self.work_dir / "out")

    def repeat(self, mode: str) -> dict | None:
        """One checked repeat; returns the worker's result, or None if it failed."""
        out_dir = self.work_dir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        start = time.perf_counter()
        self.attempted += 1
        try:
            result = self.spawn(mode, out_dir)
        except subprocess.TimeoutExpired:
            result = {"ok": False, "error": "timed out"}
        if result.get("ok"):
            try:
                if self.hashes is None:
                    self.hashes = self.workload.check(self.seed, out_dir)
                elif sha256_files(out_dir) != self.hashes:
                    raise CheckError("output differs from the first repeat of this run")
            except (CheckError, OSError, ValueError) as exc:
                result = {**result, "ok": False, "error": f"output check: {exc}"}
        shutil.rmtree(out_dir, ignore_errors=True)
        self.durations.append(time.perf_counter() - start)
        if not result.get("ok"):
            self.failed += 1
            self.failures.append(f"{mode} repeat {self.attempted}: {result.get('error') or result.get('exit_code')}")
            return None
        return result

    def next_fits(self, done: int, minimum: int) -> bool:
        estimate = statistics.median(self.durations) if self.durations else 0.0
        if self.elapsed() + estimate > HARD_LIMIT_S:
            return False
        return done < minimum or self.elapsed() + estimate <= self.seconds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure_plain(bench: Bench) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_PROBES):
        probe = bench.setup_probe()
        if probe.get("ok"):
            setups.append(probe["setup_s"])
    samples: dict[str, list[float]] = {name: [] for name in (*END_TO_END_UNITS, *RAW_UNITS)}
    node_epochs = bench.workload.node_epochs
    done = 0
    while bench.next_fits(done, MIN_PLAIN):
        result = bench.repeat("plain")
        done += 1
        if result is None:
            continue
        wall_norm = result["wall_s"] * REFERENCE_S / result["kernel_s"]
        samples["kernel_s"].append(result["kernel_s"])
        setups.append(result["setup_s"])
        samples["wall_norm_s"].append(wall_norm)
        samples["node_epochs_per_norm_s"].append(node_epochs / wall_norm)
        samples["wall_s"].append(result["wall_s"])
        samples["node_epochs_per_s"].append(node_epochs / result["wall_s"])
        samples["peak_rss_mb"].append(result["peak_rss_mb"])
    samples["setup_s"] = setups
    return {name: statistics.median(values) for name, values in samples.items() if values}, samples


def measure_traced(bench: Bench) -> tuple[dict, dict]:
    plain_walls: list[float] = []
    layers: list[dict] = []
    unwrapped: set[str] = set()
    done = 0
    while bench.next_fits(done, 2 * MIN_TRACED):
        mode = "plain" if done % 2 == 0 else "traced"
        result = bench.repeat(mode)
        done += 1
        if result is None:
            continue
        if mode == "plain":
            plain_walls.append(result["wall_s"])
        else:
            layers.append({**result["layers"], "trace.wall_s": result["wall_s"]})
            unwrapped.update(result["unwrapped"])
    if not layers or not plain_walls:
        return {}, {}
    for name in EXACT_COUNTS:
        if len({entry[name] for entry in layers}) > 1:
            bench.failures.append(f"count {name} differs between traced repeats: {[e[name] for e in layers]}")
    samples = {name: [entry[name] for entry in layers] for name in layers[0]}
    samples["untraced.wall_s"] = plain_walls
    metrics = {name: statistics.median(samples[name]) for name in LAYER_UNITS if name in samples}
    metrics.update({name: samples[name][0] for name in EXACT_COUNTS})
    metrics["trace.overhead_s"] = statistics.median(samples["trace.wall_s"]) - statistics.median(plain_walls)
    if unwrapped:
        print(f"not wrapped (absent in this version): {', '.join(sorted(unwrapped))}")
    _check_counts_across_runs(bench, metrics)
    return metrics, samples


def _check_counts_across_runs(bench: Bench, metrics: dict) -> None:
    """Counts recorded by an earlier traced run of the same source and seed must match."""
    counts = {name: metrics[name] for name in EXACT_COUNTS}
    src_digest = bench.env["src_sha256"][:16]
    path = WORK / f"counts-{bench.workload.name}-seed{bench.seed}-{src_digest}.json"
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        if previous != counts:
            bench.failures.append(f"counts differ from an earlier run: {previous} != {counts}")
    else:
        path.write_text(json.dumps(counts), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed; the default one is checked by hash")
    parser.add_argument("--seconds", type=int, default=30, help="measurement time per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "ctcsim" / "cli.py").is_file():
        print(f"error: no ctcsim source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work_dir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    try:
        bench = Bench(workload, args.seed, args.seconds, work_dir, environment())
        if args.trace:
            metrics, samples = measure_traced(bench)
            units = LAYER_UNITS
        else:
            metrics, samples = measure_plain(bench)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env = {**bench.env, "loadavg_end": _read("/proc/loadavg").strip()}

    if not set(units) <= set(metrics):
        for failure in bench.failures:
            print(f"FAIL {failure}", file=sys.stderr)
        print("error: no successful repeat to measure", file=sys.stderr)
        return 1

    failed = bench.failed
    fail_frac = failed / bench.attempted
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "attempted": bench.attempted,
        "fail_frac": fail_frac,
        "failures": bench.failures,
        "output_sha256": bench.hashes,
        "samples": samples,
    }
    report_path = WORK / f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")

    for key, value in env.items():
        print(f"env {key}: {value}")
    print(f"workload {workload.name} seed {args.seed}: {workload.node_epochs} node-epochs per repeat")
    for name, digest in (bench.hashes or {}).items():
        print(f"sha256 {digest}  {name}")
    shown = {**units, **RAW_UNITS} if not args.trace else units
    for name in shown:
        values = samples.get(name, [])
        if values:
            q1, _, q3 = quartiles(values)
            spread = f"median of n={len(values)}, q1 {q1:.6g} q3 {q3:.6g}"
        else:
            spread = "derived"
        print(f"{name:34s} {metrics[name]:>16.6g} {shown[name]:14s} {spread}")
    print(f"{'fail_frac':34s} {fail_frac:>16.6g} {'ratio':14s} {failed} of {bench.attempted} repeats")
    for failure in bench.failures:
        print(f"FAIL {failure}")
    print(f"report: {report_path.relative_to(ROOT)}")
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
