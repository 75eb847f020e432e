"""Shared pieces of the benchmark (standard library only at import time).

Closed forms from the paper used as expectations, latency summaries, the
calibration loop, the environment stamp and the thread and CPU pinning
applied to every process.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import math
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# every BLAS/OpenMP pool is held to one thread: the benchmark runs one task
# at a time, so the numbers measure isoflow and not the scheduler
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# every run has at least this many tasks, so the tail percentile below exists
MIN_TASKS = 11
TAIL_BEYOND = 10

C = 0.5

# The host's speed swings by up to +-40% within minutes (a calibration loop
# timed every few seconds on the 2-core sandbox), far more than any bound a
# benchmark could keep.  Every task is therefore timed twice over: by the
# wall clock, and by a fixed calibration loop run just before and after it
# on the same CPU.  Reported times are wall-clock seconds scaled to the
# speed at which one calibration loop takes CAL_REF_S ("reference seconds");
# the raw wall-clock figures stay in the run record.
CAL_REF_S = 2.5e-3
CAL_REPEATS = 3


def planned_tasks(seconds: float, cycle: int, nominal_cycle_s: float) -> int:
    """Length of a run's task list: the first tasks of the workload's cyclic
    sequence that take about `seconds` at the nominal cost of one cycle
    (measured when the benchmark was defined), and at least MIN_TASKS.

    The list depends only on --seconds and the workload, never on how fast
    the program is, so two commits run identical work for a given seed.
    """
    return max(MIN_TASKS, round(seconds * cycle / nominal_cycle_s))


def _calibration_loop() -> float:
    """Fixed scalar work shaped like isoflow's inner loops (bisection on a
    panel Gauss-Legendre integral through tiny numpy calls); it never
    touches isoflow, so no change to the program moves its time."""
    import numpy as np

    glx, glw = np.polynomial.legendre.leggauss(12)
    breaks = np.linspace(-4.0, 4.0, 301)
    total = 0.0
    for q in np.linspace(0.05, 0.95, 12):
        a, b = -4.0, 4.0
        for _ in range(20):
            t = 0.5 * (a + b)
            j = int(np.searchsorted(breaks, t, side="right") - 1)
            mid, half = 0.5 * (breaks[j] + t), 0.5 * (t - breaks[j])
            value = float(half * np.dot(glw, np.exp(-0.5 * (mid + half * glx) ** 2)))
            if value + 0.01 * j > 3.0 * q:
                b = t
            else:
                a = t
        total += t
    return total


def calibrate() -> float:
    """Median time of CAL_REPEATS calibration loops, in seconds."""
    times = []
    for _ in range(CAL_REPEATS):
        begin = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - begin)
    return statistics.median(times)


def pin_cpu() -> int:
    """Hold this process, and every child it starts, to one CPU, so the
    calibration loop and the tasks run on the same core."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pin_threads() -> None:
    """Apply the pinning to this process; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def require_source() -> None:
    """Exit non-zero unless the checkout holds the isoflow sources."""
    if not os.path.isfile(os.path.join(SRC, "isoflow", "__init__.py")):
        print(f"benchmark: no isoflow sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# closed forms


def gaussian_slab_mass(kappa: float, a0: float, b0: float, c: float, a: float, b: float) -> float:
    """int_a^b exp(-kappa t^2 + a0 t + b0 - c t^2) dt by completing the square."""
    k = c + kappa
    mu = a0 / (2.0 * k)
    amp = math.exp(b0 + a0 * a0 / (4.0 * k)) * math.sqrt(math.pi / k) / 2.0
    return amp * (math.erf(math.sqrt(k) * (b - mu)) - math.erf(math.sqrt(k) * (a - mu)))


# stationary chord at half the weighted area: the vertical line x = 0, whose
# weighted length is the slab mass M (perpendicular profile value at V/2)
GAUSSIAN_CHORD = math.sqrt(2.0 * math.pi) * math.erf(math.sqrt(0.5))
# index form of u = x on the line t = 0 for omega = -t^2, c = 1/2:
# omega''(0) sqrt(pi/c) / (2c) = -2 sqrt(2 pi)
QUADRATIC_WITNESS = -2.0 * math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# latency summaries


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum (percentile 100) when there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - TAIL_BEYOND
    if k < 1:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / n


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """Wall-clock seconds in reference seconds, from the calibration loop
    timed just before and just after the measured interval."""
    return seconds * CAL_REF_S / (0.5 * (cal_before + cal_after))


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    value, pct = tail(latencies)
    busy = sum(latencies)
    return {
        "tasks_per_s": len(latencies) / busy,
        "task_p50_s": statistics.median(latencies),
        "task_tail_s": value,
        "tail_percentile": pct,
        "samples": len(latencies),
    }


# ---------------------------------------------------------------------------
# environment stamp


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, only when the checkout itself is the work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _source_digest() -> str:
    """sha256 over src/isoflow's Python files, the identity when git is absent."""
    digest = hashlib.sha256()
    base = os.path.join(SRC, "isoflow")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".cfg")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def environment() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "src_digest": _source_digest(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
