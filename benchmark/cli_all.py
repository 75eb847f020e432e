"""The cli_all workload: each task is one cold ``isoflow all`` child process.

The bundled gaussian_slab.cfg and quadratic_slab.cfg alternate; each child
is started through cli_shim.py and writes into a fresh directory under
.bench_out/tmp.  Outputs are checked against the paper's closed forms, not
against CSV bytes.  Runs in the benchmark's parent process, which never
imports isoflow and times the calibration loop between children.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import common

CONFIGS = ("gaussian_slab", "quadratic_slab")
COMMANDS = ("profile", "transport", "stability", "jacobi", "spectrum", "optimize")
SHIM = os.path.join(common.BENCH_DIR, "cli_shim.py")
# every child is killed once the whole run has lasted this long
RUN_DEADLINE_S = 170.0


class CliAll:
    cycle = len(CONFIGS)
    nominal_cycle_s = 5.4

    def __init__(self, plant: bool):
        # planted wrong expectation for the smoke test: a 1% longer chord
        self.chord_reference = common.GAUSSIAN_CHORD * (1.01 if plant else 1.0)
        self.tmp_root = os.path.join(common.OUT, "tmp")
        os.makedirs(self.tmp_root, exist_ok=True)
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.cal = common.calibrate()

    def spawn(self, k: int, trace: bool = False, spans: str | None = None) -> dict:
        """Run task k (config k mod 2) in a fresh child; return its record."""
        config = CONFIGS[k % len(CONFIGS)]
        cfg = os.path.join(common.SRC, "isoflow", "configs", f"{config}.cfg")
        work = tempfile.mkdtemp(prefix=f"{config}-", dir=self.tmp_root)
        report_path = os.path.join(work, "report.json")
        out_dir = os.path.join(work, "out")
        cmd = [sys.executable, SHIM, "--report", report_path]
        if trace:
            cmd.append("--trace")
        if spans:
            cmd += ["--spans", spans]
        cmd += ["--", "all", "--config", cfg, "--out", out_dir]
        try:
            spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
            begin = time.perf_counter()
            try:
                proc = subprocess.run(cmd, env=common.child_env(), capture_output=True, text=True,
                                      timeout=max(self.deadline - begin, 1.0))
                code, stderr = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                code, stderr = None, "killed at the run deadline"
            latency = time.perf_counter() - begin
            report = {}
            if os.path.isfile(report_path):
                with open(report_path, encoding="utf-8") as handle:
                    report = json.load(handle)
            failures, cmd_times = self.check(config, code, out_dir, report)
            if code != 0 and stderr:
                failures.append(stderr.strip().splitlines()[-1])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        cal_before, self.cal = self.cal, common.calibrate()
        # the child's own calibration loops, timed after import and after
        # main, sample the machine's speed inside the interval as well
        inside = report.get("calibration_s", [cal_before, self.cal])
        cost = report.get("calibration_cost_s", [0.0, 0.0])
        latency -= sum(cost)
        setup = report.get("entry_monotonic", math.nan) - spawned - cost[0]
        return {
            "config": config,
            "latency": latency,
            "latency_s": common.scaled(latency, 0.5 * (cal_before + inside[0]), 0.5 * (inside[1] + self.cal)),
            "setup": common.scaled(setup, cal_before, inside[0]),
            "calibration_s": [cal_before] + inside + [self.cal],
            "report": report,
            "failures": failures,
            "cmd_times": cmd_times,
        }

    def check(self, config: str, code: int | None, out_dir: str, report: dict) -> tuple[list[str], dict]:
        fails = []
        if code != 0:
            fails.append(f"exit code {code}")
        if not report:
            fails.append("no shim report")
        try:
            with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as handle:
                summary = json.load(handle)
        except (OSError, ValueError) as exc:
            return fails + [f"summary.json unreadable: {exc}"], {}
        verdicts = {v["command"]: v for v in summary.get("verdicts", [])}
        if set(verdicts) != set(COMMANDS):
            fails.append(f"verdicts for {sorted(verdicts)}")
        bad = [name for name, v in verdicts.items() if v.get("status") != "verified"]
        if bad or summary.get("status") != "verified":
            fails.append(f"not verified: {bad or summary.get('status')}")
        if config == "quadratic_slab":
            witness = verdicts.get("stability", {}).get("metrics", {}).get("witness_index_value")
            ref = common.QUADRATIC_WITNESS
            if witness is None or not abs(witness - ref) <= 1e-4 * abs(ref):
                fails.append(f"stability witness {witness} vs -2 sqrt(2 pi) = {ref:.9f}")
        else:
            length = verdicts.get("optimize", {}).get("metrics", {}).get("final_length")
            ref = self.chord_reference
            if length is None or not abs(length - ref) <= 5e-3 * ref:
                fails.append(f"optimize final_length {length} vs sqrt(2 pi) erf(sqrt(1/2)) = {ref:.9f}")
        cmd_times = {name: float(v.get("wall_time_s", 0.0)) for name, v in verdicts.items()}
        return fails, cmd_times


def run(seconds: float, trace: bool, quick: bool, plant: bool) -> dict:
    workload = CliAll(plant)
    warm = workload.spawn(0)
    n_tasks = 2 if quick else common.planned_tasks(seconds, workload.cycle, workload.nominal_cycle_s)
    stats = {"attempted": 0, "failed": 0, "failures": []}
    result = {"warmup_failures": warm["failures"],
              "labels": [CONFIGS[k % workload.cycle] for k in range(n_tasks)]}
    if trace:
        # each config untraced and traced back to back, alternating the order
        spans_dir = os.path.join(common.OUT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        plain, traced = [], []
        for k in range(n_tasks):
            spans = os.path.join(spans_dir, f"cli_all-{CONFIGS[k]}.npz") if k < workload.cycle else None
            for is_traced in ((False, True) if k % 2 == 0 else (True, False)):
                if is_traced:
                    traced.append(workload.spawn(k, trace=True, spans=spans))
                else:
                    plain.append(workload.spawn(k))
        records = plain + traced
        result["layer"] = _layers(plain, traced)
    else:
        records = [workload.spawn(k) for k in range(n_tasks)]
        result["wall_latencies"] = [r["latency"] for r in records]
        result["latencies"] = [r["latency_s"] for r in records]
    for rec in records:
        stats["attempted"] += 1
        if rec["failures"]:
            stats["failed"] += 1
            if len(stats["failures"]) < 20:
                stats["failures"].append(f"{rec['config']}: {'; '.join(rec['failures'])}")
    setups = [r["setup"] for r in [warm] + records if math.isfinite(r["setup"])]
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(setups) if setups else math.nan
    result["peak_rss_mb"] = max(r["report"].get("peak_rss_mb", 0.0) for r in [warm] + records)
    result.update(stats)
    return result


def _layers(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: counts and times from the traced children, the
    cli.* metrics from the untraced ones, overhead from both."""
    import tracer

    parts = []
    for rec in traced:
        part = dict(rec["report"].get("layer", {}))
        if part:
            part["_task_s"] = rec["latency"]
            parts.append(part)
    if not parts:
        raise SystemExit("benchmark: traced cli children reported no spans")
    layer = tracer.derive(tracer.sum_counts(parts))
    layer["cli.import_s"] = statistics.median(r["report"].get("import_s", math.nan) for r in plain)
    for c in COMMANDS:
        layer[f"cli.cmd.{c}_s"] = sum(r["cmd_times"].get(c, 0.0) for r in plain)
    plain_s = sum(r["latency"] for r in plain)
    traced_s = sum(r["latency"] for r in traced)
    layer["trace.tasks"] = float(len(traced))
    layer["trace.overhead_frac"] = traced_s / plain_s - 1.0
    layer["trace.task_s"] = traced_s / len(traced)
    layer["plain.task_s"] = plain_s / len(plain)
    return layer
