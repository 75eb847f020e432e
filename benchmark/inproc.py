"""Worker process for the in-process workload transport_sweep.

    python benchmark/inproc.py --seed N --seconds S --trace 0|1
                               [--setup-only] [--quick] [--plant]

Run from the checkout root.  The worker imports isoflow, generates its
inputs from the seed, runs one untimed warm-up task and prints
``READY {...}``; the parent times setup from spawn to that line.  It then
times the calibration loop and prints ``CAL <seconds>``; with --setup-only
it exits there.  Otherwise it runs the task list in a closed loop (one task
at a time, no think time), timing the calibration loop after every task,
and prints ``RESULT {...}``.
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
import isoflow as iso  # noqa: E402

IMPORT_S = time.perf_counter() - _t_import

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402
from scipy.interpolate import CubicSpline  # noqa: E402
from scipy.special import gamma, gammainc  # noqa: E402

import tracer  # noqa: E402

C = common.C
INF = math.inf
WARMUP_SEED = 20260816

# build_transport reports quantiles clipped at 1e-14 through warnings.warn;
# they are expected on unbounded slabs and would only flood stderr
warnings.filterwarnings("ignore", message=".*quantile cutoff were clipped")


@dataclass(frozen=True)
class WeightSpec:
    """omega(t) = -kappa t^2 + a0 t, or m log t when log_power."""

    label: str
    kappa: float = 0.0
    a0: float = 0.0
    m: float | None = None

    def weight(self):
        if self.m is not None:
            return iso.LogPowerWeight(self.m)
        if self.label == "zero":
            return iso.ZeroWeight()
        if self.kappa == 0.0:
            return iso.AffineWeight(self.a0, 0.0)
        return iso.QuadraticWeight(self.kappa, self.a0, 0.0)

    def omega(self, t: np.ndarray) -> np.ndarray:
        if self.m is not None:
            with np.errstate(divide="ignore"):
                return self.m * np.log(t)
        return -self.kappa * t * t + self.a0 * t

    def mass(self, a: float, b: float) -> float:
        """Closed-form slab mass int_a^b e^{omega - c t^2} dt."""
        if self.m is None:
            return common.gaussian_slab_mass(self.kappa, self.a0, 0.0, C, a, b)
        # a = 0: substitute u = c t^2, a regularized lower incomplete gamma
        s = (self.m + 1.0) / 2.0
        upper = 1.0 if math.isinf(b) else float(gammainc(s, C * b * b))
        return 0.5 * C ** (-s) * float(gamma(s)) * upper


ZERO = WeightSpec("zero")
AFFINE = WeightSpec("affine", a0=1.0)
QUADRATIC = WeightSpec("quadratic", kappa=1.0)
LOG_POWER = WeightSpec("log_power", m=2.0)

SLABS = ((0.0, 1.0), (-1.0, 1.0), (0.0, INF), (-INF, INF))
# the acceptance sweep: every weight on every slab where it is defined
SWEEP = tuple(
    (spec, slab)
    for spec, slabs in ((ZERO, SLABS), (AFFINE, SLABS), (QUADRATIC, SLABS),
                        (LOG_POWER, ((0.0, 1.0), (0.0, INF))))
    for slab in slabs
)


@dataclass
class Task:
    label: str
    payload: dict


# ---------------------------------------------------------------------------
# transport_sweep


class TransportSweep:
    """One task is one density's full verification at c = 1/2."""

    N_CURVES = 8
    N_INTERVALS = 50
    VERTICAL_X = 3
    nominal_cycle_s = 10.5

    def __init__(self, seed: int, plant: bool):
        self.rng = np.random.default_rng(seed)
        self.densities = [iso.Density(spec.weight(), C, 2, slab) for spec, slab in SWEEP]
        self.cycle = len(SWEEP)
        self.lambda_floor = 2.0 * C * (1.0 - 5e-3)
        # planted wrong expectation for the smoke test: a 1% heavier slab
        self.mass_scale = 1.01 if plant else 1.0

    def task(self, k: int, rng=None) -> Task:
        rng = self.rng if rng is None else rng
        i = k % self.cycle
        spec, slab = SWEEP[i]
        a, b = slab
        lo = a if math.isfinite(a) else -2.0
        hi = b if math.isfinite(b) else 2.0
        curves = [self._graph_curve(rng, lo, hi) for _ in range(self.N_CURVES)]
        span_lo = a if math.isfinite(a) else -4.0
        span_hi = b if math.isfinite(b) else 4.0
        intervals = np.sort(rng.uniform(span_lo, span_hi, size=(self.N_INTERVALS, 2)), axis=1)
        verticals = rng.uniform(-1.0, 1.0, self.VERTICAL_X) if math.isfinite(a) and math.isfinite(b) else ()
        return Task(f"{spec.label} x ({a}, {b})", {
            "index": i, "curves": curves, "intervals": intervals, "verticals": tuple(verticals),
        })

    def warmup(self) -> Task:
        return self.task(0, np.random.default_rng(WARMUP_SEED))

    @staticmethod
    def _graph_curve(rng, lo: float, hi: float, n_nodes: int = 301) -> np.ndarray:
        """Random graph x = g(t) through 6 knots, resampled at uniform arclength."""
        pad = 0.025 * (hi - lo)
        knots_t = np.linspace(lo + pad, hi - pad, 6)
        spline = CubicSpline(knots_t, rng.uniform(-1.5, 1.5, 6))
        dense_t = np.linspace(knots_t[0], knots_t[-1], 2000)
        pts = np.stack([spline(dense_t), dense_t], axis=-1)
        s = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))])
        su = np.linspace(0.0, s[-1], n_nodes)
        return np.stack([np.interp(su, s, pts[:, 0]), np.interp(su, s, pts[:, 1])], axis=-1)

    def run(self, task: Task) -> dict:
        p = task.payload
        d = self.densities[p["index"]]
        par = iso.build_profile(d, "parallel", grid_size=257)
        perp = iso.build_profile(d, "perpendicular", grid_size=257)
        comparison = iso.compare_profiles(par, perp, tie_tol=1e-8)
        ode = iso.check_profile_ode(perp, C, tol=1e-8)
        tmap = iso.build_transport(d)
        contraction = iso.check_contraction(tmap, tol=1e-6)
        push = iso.pushforward_check(tmap, intervals=p["intervals"])
        slacks = [iso.transported_perimeter_bound(tmap, iso.polyline_curve(d, pts)).slack
                  for pts in p["curves"]]
        vertical = [iso.transported_perimeter_bound(tmap, iso.vertical_segment(d, x0, n=401)).slack
                    for x0 in p["verticals"]]
        cert = iso.poincare_certify(d, n_cells=2000)
        return {"comparison": comparison.verdict, "ode": ode.verdict, "tmap": tmap,
                "certified": contraction.certified,
                "push": push.max_residual, "slacks": slacks, "vertical": vertical,
                "lambda": cert.lambda_value}

    def check(self, task: Task, out: dict) -> list[str]:
        spec, slab = SWEEP[task.payload["index"]]
        tmap = out["tmap"]
        fails = []
        max_drho = float(np.max(tmap.drho))
        if not (max_drho <= 1.0 + 1e-6 and out["certified"]):
            fails.append(f"max rho' {max_drho:.9f} > 1 + 1e-6 or contraction not certified")
        # change of variables: alpha e^{-cs^2} = beta e^{omega(rho) - c rho^2} rho'
        lhs = tmap.alpha * np.exp(-C * tmap.s ** 2)
        rhs = tmap.beta * np.exp(spec.omega(tmap.rho) - C * tmap.rho ** 2) * tmap.drho
        identity = float(np.max(np.abs(lhs - rhs))) / tmap.alpha
        if not identity <= 1e-8:
            fails.append(f"identity residual {identity:.3e} > 1e-8 alpha")
        # alpha and beta are the reciprocal masses of source and target
        alpha_err = abs(tmap.alpha * math.sqrt(math.pi / C) - 1.0)
        beta_err = abs(tmap.beta * spec.mass(*slab) * self.mass_scale - 1.0)
        if not (alpha_err <= 1e-12 and beta_err <= 1e-8):
            fails.append(f"normalizers off closed form: alpha {alpha_err:.2e}, beta {beta_err:.2e}")
        if not out["push"] <= 1e-8:
            fails.append(f"pushforward residual {out['push']:.3e} > 1e-8")
        if not min(out["slacks"]) >= -1e-6:
            fails.append(f"perimeter slack {min(out['slacks']):.3e} < -1e-6")
        if out["vertical"] and not max(abs(s) for s in out["vertical"]) <= 1e-6:
            fails.append("vertical-line slack exceeds 1e-6")
        if out["ode"] != "equality":
            fails.append(f"perpendicular ODE verdict {out['ode']!r}")
        if out["comparison"] not in ("strict", "ge_with_ties"):
            fails.append(f"profile comparison {out['comparison']!r}")
        if not out["lambda"] >= self.lambda_floor:
            fails.append(f"Poincare gap {out['lambda']:.6f} < {self.lambda_floor:.6f}")
        return fails


# ---------------------------------------------------------------------------
# loop


def timed(workload, task: Task, stats: dict) -> float:
    """Run one task; return its latency and tally failures in stats."""
    begin = time.perf_counter()
    failures: list[str]
    try:
        out = workload.run(task)
        latency = time.perf_counter() - begin
        failures = workload.check(task, out)
    except Exception as exc:  # a raising task is a failed task, the run goes on
        latency = time.perf_counter() - begin
        failures = [f"raised {type(exc).__name__}: {exc}"]
    stats["attempted"] += 1
    if failures:
        stats["failed"] += 1
        if len(stats["failures"]) < 20:
            stats["failures"].append(f"{task.label}: {'; '.join(failures)}")
    return latency


def traced_layers(workload, tasks: list[Task], stats: dict, spans_path: str) -> dict:
    """Run each task untraced and traced, back to back; per-layer metrics of
    the traced runs.

    Counts repeat exactly for a given seed and --seconds.  The order of the
    two runs alternates from task to task, so a drift in machine speed
    slower than one task cancels out of the overhead.
    """
    trc = tracer.Tracer()
    plain = spent = 0.0
    for i, task in enumerate(tasks):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                plain += timed(workload, task, stats)
                continue
            trc.install()
            trc.current_task = i
            try:
                spent += timed(workload, task, stats)
            finally:
                trc.current_task = -1
                trc.uninstall()
    trc.dump(spans_path)
    layer = tracer.derive(tracer.layer_counts(trc.names, trc.arrays(), trc.counters, spent))
    layer["trace.tasks"] = float(len(tasks))
    layer["trace.overhead_frac"] = spent / plain - 1.0
    layer["trace.task_s"] = spent / len(tasks)
    layer["plain.task_s"] = plain / len(tasks)
    return layer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--plant", action="store_true")
    args = parser.parse_args()

    workload = TransportSweep(args.seed, args.plant)
    n_tasks = 2 if args.quick else common.planned_tasks(
        args.seconds, workload.cycle, workload.nominal_cycle_s)
    tasks = [workload.task(k) for k in range(n_tasks)]
    warm_stats = {"attempted": 0, "failed": 0, "failures": []}
    timed(workload, workload.warmup(), warm_stats)
    print("READY " + json.dumps({"import_s": IMPORT_S}), flush=True)
    # after READY, so the parent's set-up clock has stopped
    cal = [common.calibrate()]
    print("CAL " + json.dumps(cal[0]), flush=True)
    if args.setup_only:
        return 0

    stats = {"attempted": 0, "failed": 0, "failures": []}
    result: dict = {"import_s": IMPORT_S, "warmup_failures": warm_stats["failures"],
                    "labels": [t.label for t in tasks]}
    if args.trace:
        os.makedirs(os.path.join(common.OUT, "spans"), exist_ok=True)
        spans_path = os.path.join(common.OUT, "spans", "transport_sweep.npz")
        result["layer"] = traced_layers(workload, tasks, stats, spans_path)
        result["spans_file"] = os.path.relpath(spans_path, common.ROOT)
    else:
        wall = []
        for task in tasks:
            wall.append(timed(workload, task, stats))
            cal.append(common.calibrate())
        result["wall_latencies"] = wall
        result["calibration_s"] = cal
        result["latencies"] = [common.scaled(w, cal[i], cal[i + 1]) for i, w in enumerate(wall)]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(stats)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
