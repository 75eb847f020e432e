"""isoflow benchmark: one seeded, closed-loop workload per invocation.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --smoke

Run from the root of a checkout that holds ``src/isoflow``.  Workloads:

  cli_all          cold ``python -m isoflow all`` children, bundled configs
  transport_sweep  full transport/profile/spectrum verification per density

One client, one task at a time, no think time; BLAS/OpenMP pools pinned
to one thread.  With --trace 0 the last stdout line carries the end-to-end
metrics, with --trace 1 the per-layer ones (see BENCHMARK.json).  A full
record with per-task latencies, failures and the environment stamp goes to
.bench_out/results/.  --smoke runs every workload briefly, checks that
each named metric is emitted with its unit and that a planted wrong
expectation is caught.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

common.pin_threads()

WORKLOADS = ("cli_all", "transport_sweep")
# per-layer metrics each workload must move off zero in a traced run
EXERCISED = {
    "cli_all": ("cli.", "weights.cum_build.", "weights.quantile.", "weights.mass.",
                "weights.integrate.", "weights.omega_points", "profiles.", "transport.build.",
                "transport.pushforward.", "geometry.shoot.", "geometry.index_form.", "spectrum.",
                "optimize."),
    "transport_sweep": ("cli.import_s", "weights.", "profiles.", "transport.", "geometry.length.",
                        "spectrum."),
}
END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)
# fresh worker processes per in-process run; the median of their set-up
# times is setup_s, and the last one goes on to measure
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0


def run_inproc(args) -> dict:
    """Spawn the set-up samples and the measuring worker, collect its result."""
    script = os.path.join(common.BENCH_DIR, "inproc.py")
    samples = 1 if args.quick else SETUP_SAMPLES
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setups, result = [], None
    cal_before = common.calibrate()
    for i in range(samples):
        last = i == samples - 1
        cmd = [sys.executable, script, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += [] if last else ["--setup-only"]
        cmd += ["--quick"] if args.quick else []
        cmd += ["--plant"] if args.plant else []
        begin = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=common.child_env())
        watchdog = threading.Timer(max(deadline - begin, 1.0), proc.kill)
        watchdog.start()
        try:
            ready = None
            for line in proc.stdout:
                if line.startswith("READY "):
                    ready = time.perf_counter() - begin
                elif line.startswith("CAL ") and ready is not None:
                    cal_after = json.loads(line[len("CAL "):])
                    setups.append({"wall_s": ready, "s": common.scaled(ready, cal_before, cal_after)})
                    cal_before = cal_after
                elif line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or len(setups) != i + 1:
            raise SystemExit(f"benchmark: {args.workload} worker exited with {proc.returncode}")
    if result is None:
        raise SystemExit(f"benchmark: {args.workload} worker printed no result")
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(s["s"] for s in setups)
    return result


def end_to_end(result: dict) -> dict[str, float]:
    lat = common.latency_metrics(result["latencies"])
    return {
        "setup_s": result["setup_s"],
        "tasks_per_s": lat["tasks_per_s"],
        "task_p50_s": lat["task_p50_s"],
        "task_tail_s": lat["task_tail_s"],
        "ok_frac": 1.0 - result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> dict[str, float]:
    import tracer

    layer = dict(result["layer"])
    layer.setdefault("cli.import_s", result.get("import_s", 0.0))
    for name, _ in tracer.LAYER_METRICS:
        layer.setdefault(name, 0.0)
    return {name: layer[name] for name, _ in tracer.LAYER_METRICS}


def run_once(args) -> int:
    common.require_source()
    os.makedirs(os.path.join(common.OUT, "results"), exist_ok=True)
    if args.workload == "cli_all":
        import cli_all

        result = cli_all.run(args.seconds, bool(args.trace), args.quick, args.plant)
    else:
        result = run_inproc(args)
    if args.trace:
        import tracer

        values, units = per_layer(result), dict(tracer.LAYER_METRICS)
    else:
        values, units = end_to_end(result), dict(END_TO_END)
        result["tail"] = common.latency_metrics(result["latencies"])
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise SystemExit(f"benchmark: non-finite metrics {bad}")
    correct = result["failed"] == 0 and not result["warmup_failures"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "plant": args.plant, "environment": common.environment(),
        "closed_loop": {"clients": 1, "think_time_s": 0.0}, "metrics": values, "result": result,
    }
    path = os.path.join(common.OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for failure in result["warmup_failures"] + result["failures"]:
        print(f"FAILED {failure}")
    print(f"details: {os.path.relpath(path, common.ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# smoke mode


def _last_json(cmd: list[str]) -> tuple[int, dict | None]:
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return proc.returncode, None


def smoke() -> int:
    """Every workload briefly: metric names and units, and a planted failure."""
    common.require_source()
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    base = [sys.executable, os.path.abspath(__file__), "--seed", "7", "--seconds", "1", "--quick"]
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            code, out = _last_json(base + ["--workload", workload, "--trace", str(trace)])
            got = {k: v.get("unit") for k, v in (out or {}).get("metrics", {}).items()}
            if code != 0 or out is None:
                problem = f"exit {code}, no result line"
            elif got != want[trace]:
                problem = f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want[trace]))}"
            elif not (out["correct"] and out["failed"] == 0):
                problem = f"failed {out['failed']} of {out['attempted']}"
            elif trace and (idle := [k for k, v in out["metrics"].items()
                                     if k.startswith(EXERCISED[workload]) and not v["value"]]):
                problem = f"exercised layers read 0: {idle}"
            else:
                problem = ""
            if problem:
                problems.append(f"{label}: {problem}")
            print(f"smoke {label}: {problem or 'ok'}", flush=True)
        code, out = _last_json(base + ["--workload", workload, "--trace", "0", "--plant"])
        caught = (code == 0 and out is not None and out["failed"] > 0 and not out["correct"]
                  and out["metrics"]["ok_frac"]["value"] < 1.0)
        if not caught:
            problems.append(f"{workload}: planted wrong expectation not caught")
        print(f"smoke {workload} planted failure caught: {caught}", flush=True)
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    return 1 if problems else 0


def main() -> int:
    common.pin_cpu()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short self-test of the benchmark")
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--plant", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
