"""Child process of the cli_all workload: ``isoflow.cli.main`` behind a stopwatch.

    python benchmark/cli_shim.py --report PATH [--trace] [--spans PATH] -- <isoflow args>

Times ``import isoflow`` and the calibration loop, optionally installs the
tracer's wrappers, records the CLOCK_MONOTONIC instant at which ``main`` is
entered, runs it, times the calibration loop again and writes a JSON report
(exit code, times, peak RSS, per-layer counts) to --report.
Exits with the CLI's own exit code.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402  (standard library only)

common.pin_threads()
common.require_source()

_t_import = time.perf_counter()
import isoflow.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t_import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    # the calibration loop, timed inside the child as well as around it;
    # its cost is reported so the parent can take it out of the latency
    begin = time.perf_counter()
    cal = [common.calibrate()]
    cal_cost = [time.perf_counter() - begin]
    trc = None
    if args.trace:
        import tracer

        trc = tracer.Tracer()
        trc.install()
        trc.current_task = 0
    entry = time.clock_gettime(time.CLOCK_MONOTONIC)
    begin = time.perf_counter()
    try:
        code = sys.modules["isoflow.cli"].main(cli_args)
    finally:
        main_s = time.perf_counter() - begin
        if trc is not None:
            trc.uninstall()
    begin = time.perf_counter()
    cal.append(common.calibrate())
    cal_cost.append(time.perf_counter() - begin)
    report = {
        "exit_code": code,
        "import_s": IMPORT_S,
        "entry_monotonic": entry,
        "main_s": main_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration_s": cal,
        "calibration_cost_s": cal_cost,
    }
    if trc is not None:
        # the parent supplies the task time (the child's whole lifetime)
        report["layer"] = tracer.layer_counts(trc.names, trc.arrays(), trc.counters, 0.0)
        if args.spans:
            trc.dump(args.spans)
    tmp = f"{args.report}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    os.replace(tmp, args.report)
    return code


if __name__ == "__main__":
    sys.exit(main())
