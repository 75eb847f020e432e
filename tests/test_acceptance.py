"""Acceptance gate: eleven numbered verification criteria, pinned tolerances.

Every test prints exactly one `[criterion NN] PASS|FAIL <label>` line with
the measured quantity, then asserts the pinned tolerance (and, where one
applies, the runtime budget).  The criteria exercise the weight sweep

    {Zero, Affine(1,0), Quadratic(1,0,0), LogPower(2)}
  x {(0,1), (-1,1), (0,inf), R}            (where the weight is defined)

at c = 1/2, plus dedicated Gaussian calibration and optimizer benchmarks.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.interpolate import CubicSpline

from isoflow import (
    AffineWeight,
    ChordSpline,
    Density,
    LogPowerWeight,
    PiecewiseLinearWeight,
    QuadraticWeight,
    ZeroWeight,
    build_profile,
    build_spectral_problem,
    build_transport,
    check_contraction,
    check_profile_ode,
    cmc_shoot,
    compare_profiles,
    index_form,
    jacobi_residual,
    log_density_gradient,
    minimize,
    parallel_halfspace_stability,
    poincare_certify,
    polyline_curve,
    pushforward_check,
    shape_gradient,
    spectral_gap_1d,
    stationarity_report,
    total_weighted_volume,
    transported_perimeter_bound,
    vertical_segment,
)
from isoflow.geometry import _trapezoid_weights

INF = math.inf
C = 0.5
GRID = 257

SLABS = ((0.0, 1.0), (-1.0, 1.0), (0.0, INF), (-INF, INF))

# (label, weight, affine?, slabs on which the weight is defined)
WEIGHTS = (
    ("zero", ZeroWeight(), True, SLABS),
    ("affine", AffineWeight(1.0, 0.0), True, SLABS),
    ("quadratic", QuadraticWeight(1.0, 0.0, 0.0), False, SLABS),
    ("log_power", LogPowerWeight(2.0), False, ((0.0, 1.0), (0.0, INF))),
)

SWEEP = tuple(
    (f"{label} x ({slab[0]}, {slab[1]})", Density(weight, C, 2, slab), affine, slab)
    for label, weight, affine, slabs in WEIGHTS
    for slab in slabs
)

_PROFILES: dict[tuple[str, str], object] = {}
_TRANSPORTS: dict[str, object] = {}


def profile_for(name: str, density: Density, family: str):
    key = (name, family)
    if key not in _PROFILES:
        _PROFILES[key] = build_profile(density, family, grid_size=GRID)
    return _PROFILES[key]


def transport_for(name: str, density: Density):
    if name not in _TRANSPORTS:
        _TRANSPORTS[name] = build_transport(density)
    return _TRANSPORTS[name]


def report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {label}: {detail}")


def interior_defect(profile, c: float) -> float:
    """max |F''F + 2c| restricted to the interior 90% volume range."""
    lo, hi = 0.05 * profile.v_total, 0.95 * profile.v_total
    mask = (profile.v >= lo) & (profile.v <= hi)
    defect = profile.ddF[mask] * profile.F[mask] + 2.0 * c
    return float(np.max(np.abs(defect)))


def random_concave_piecewise_linear(rng, lo=-1.0, hi=1.0, n_knots=6):
    knots = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, n_knots - 2)]))
    slopes = np.sort(rng.uniform(-2.0, 2.0, n_knots - 1))[::-1]
    values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])
    return PiecewiseLinearWeight(tuple(knots), tuple(values))


def test_criterion_01_perpendicular_profile_ode():
    begin = time.perf_counter()
    worst = 0.0
    for name, density, _, _ in SWEEP:
        profile = profile_for(name, density, "perpendicular")
        verdict = check_profile_ode(profile, C, tol=1e-8)
        assert verdict.verdict == "equality", name
        worst = max(worst, interior_defect(profile, C))
    elapsed = time.perf_counter() - begin
    ok = worst <= 1e-6 * 2.0 * C and elapsed < 10.0
    report(1, "perpendicular profile solves F''F = -2c", ok,
           f"max interior defect {worst:.3e} (tol {1e-6 * 2 * C:.1e}), {elapsed:.1f}s")
    assert worst <= 1e-6 * 2.0 * C
    assert elapsed < 10.0


def test_criterion_02_parallel_profile_inequality():
    worst = -INF
    for name, density, affine, _ in SWEEP:
        profile = profile_for(name, density, "parallel")
        verdict = check_profile_ode(profile, C, tol=1e-8)
        worst = max(worst, verdict.max_defect)
        assert verdict.max_defect <= 1e-6, name
        if affine:
            # equality: |F''F + 2c| <= 1e-8 at every grid volume
            assert verdict.verdict == "equality", name
        else:
            # inequality: F''F + 2c <= 1e-8 everywhere and < -1e-8 somewhere
            assert verdict.verdict == "inequality", name
    ok = worst <= 1e-6
    report(2, "parallel profile obeys F''F + 2c <= 0, equality iff affine", ok,
           f"max defect {worst:.3e} (tol 1e-06)")
    assert ok


def test_criterion_03_profile_comparison():
    min_margin = INF
    for name, density, affine, slab in SWEEP:
        par = profile_for(name, density, "parallel")
        perp = profile_for(name, density, "perpendicular")
        cmp = compare_profiles(par, perp, tie_tol=1e-8)
        assert cmp.verdict in ("strict", "ge_with_ties"), name
        min_margin = min(min_margin, cmp.min_margin)
        proper = math.isfinite(slab[0]) and math.isfinite(slab[1])
        if not affine and proper:
            assert cmp.verdict == "strict", name
    # affine weights on the whole space: parallel and perpendicular agree
    sup_gap = 0.0
    for name, density, affine, slab in SWEEP:
        if not affine or math.isfinite(slab[0]) or math.isfinite(slab[1]):
            continue
        perp = profile_for(name, density, "perpendicular")
        par = profile_for(name, density, "parallel")
        # the first loop compared these two, so they share one volume grid
        sup_gap = max(sup_gap, float(np.max(np.abs(par.F - perp.F))))
    ok = min_margin >= -1e-8 and sup_gap <= 1e-8
    report(3, "F >= G - 1e-8, strict off-affine, affine whole-space F == G", ok,
           f"min margin {min_margin:.3e}, affine parallel-perpendicular gap {sup_gap:.3e}")
    assert min_margin >= -1e-8
    assert sup_gap <= 1e-8


def test_criterion_04_gaussian_spectral_calibration():
    begin = time.perf_counter()
    worst = 0.0
    for c in (0.25, 0.5, 1.0, 2.0):
        density = Density(ZeroWeight(), c, 2, (-INF, INF))
        problem = build_spectral_problem(density, n_cells=2000)
        gap, _ = spectral_gap_1d(problem)
        worst = max(worst, abs(gap - 2.0 * c) / (2.0 * c))
    elapsed = time.perf_counter() - begin
    ok = worst <= 5e-3 and elapsed < 20.0
    report(4, "Gaussian line spectral gap equals 2c", ok,
           f"max relative error {worst:.3e} (tol 5.0e-03), {elapsed:.1f}s")
    assert worst <= 5e-3
    assert elapsed < 20.0


def test_criterion_05_poincare_certification():
    rng = np.random.default_rng(20260816)
    failures = []
    worst = INF
    bound = 2.0 * C * (1.0 - 5e-3)
    for i in range(10):
        weight = random_concave_piecewise_linear(rng)
        density = Density(weight, C, 2, (-1.0, 1.0))
        cert = poincare_certify(density, n_cells=2000)
        worst = min(worst, cert.lambda_value / (2.0 * C))
        if not cert.lambda_value >= bound:
            failures.append(f"piecewise[{i}]")
    for name, density, _, _ in SWEEP:
        cert = poincare_certify(density, n_cells=2000)
        worst = min(worst, cert.lambda_value / (2.0 * C))
        if not cert.lambda_value >= bound:
            failures.append(name)
    ok = not failures
    report(5, "Poincare constant certified >= 2c(1 - 5e-3)", ok,
           f"min lambda/2c {worst:.6f} over 10 random piecewise + sweep")
    assert ok, failures


def test_criterion_06_transport_contraction():
    worst_drho = -INF
    worst_identity = 0.0
    worst_push = 0.0
    identity_gap = 0.0
    for name, density, affine, slab in SWEEP:
        tmap = transport_for(name, density)
        contraction = check_contraction(tmap, tol=1e-6)
        assert contraction.certified, name
        worst_drho = max(worst_drho, contraction.max_derivative)
        lhs = tmap.alpha * np.exp(-C * tmap.s**2)
        rhs = tmap.beta * np.exp(
            density.weight.value(tmap.rho) - C * tmap.rho**2
        ) * tmap.drho
        worst_identity = max(worst_identity, float(np.max(np.abs(lhs - rhs))) / tmap.alpha)
        push = pushforward_check(tmap)
        worst_push = max(worst_push, push.max_residual)
        if affine and not (math.isfinite(slab[0]) or math.isfinite(slab[1])):
            identity_gap = max(identity_gap, float(np.max(np.abs(tmap.drho - 1.0))))
    ok = (
        worst_drho <= 1.0 + 1e-6
        and worst_identity <= 1e-8
        and worst_push <= 1e-13
        and identity_gap <= 1e-8
    )
    report(6, "monotone transport is a contraction with exact pushforward", ok,
           f"max rho' {worst_drho:.9f}, identity residual {worst_identity:.2e}, "
           f"pushforward {worst_push:.2e}, affine |rho'-1| {identity_gap:.2e}")
    assert worst_drho <= 1.0 + 1e-6
    assert worst_identity <= 1e-8
    assert worst_push <= 1e-13
    assert identity_gap <= 1e-8


def _random_graph_curve(density: Density, rng, n_nodes: int = 301):
    a, b = density.slab
    lo = a if math.isfinite(a) else -2.0
    hi = b if math.isfinite(b) else 2.0
    pad = 0.025 * (hi - lo)
    knots_t = np.linspace(lo + pad, hi - pad, 6)
    knots_x = rng.uniform(-1.5, 1.5, 6)
    sp = CubicSpline(knots_t, knots_x)
    dense_t = np.linspace(knots_t[0], knots_t[-1], 2000)
    pts = np.stack([sp(dense_t), dense_t], axis=-1)
    seg = np.hypot(*np.diff(pts, axis=0).T)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    su = np.linspace(0.0, s[-1], n_nodes)
    pts = np.stack([np.interp(su, s, pts[:, 0]), np.interp(su, s, pts[:, 1])], axis=-1)
    return polyline_curve(density, pts)


def test_criterion_07_pushforward_perimeter_bound():
    begin = time.perf_counter()
    rng = np.random.default_rng(75)
    worst_slack = INF
    for name, density, _, _ in SWEEP:
        tmap = transport_for(name, density)
        for _ in range(100):
            curve = _random_graph_curve(density, rng)
            worst_slack = min(worst_slack, transported_perimeter_bound(tmap, curve).slack)
    worst_equality = 0.0
    for name, density, _, slab in SWEEP:
        if not (math.isfinite(slab[0]) and math.isfinite(slab[1])):
            continue
        tmap = transport_for(name, density)
        for x0 in (-0.4, 0.0, 0.8):
            line = vertical_segment(density, x0, n=401)
            worst_equality = max(
                worst_equality, abs(transported_perimeter_bound(tmap, line).slack)
            )
    elapsed = time.perf_counter() - begin
    ok = worst_slack >= -1e-6 and worst_equality <= 1e-6 and elapsed < 30.0
    report(7, "transported perimeter bound holds, tight on vertical lines", ok,
           f"min slack {worst_slack:.3e}, vertical |slack| {worst_equality:.3e}, {elapsed:.1f}s")
    assert worst_slack >= -1e-6
    assert worst_equality <= 1e-6
    assert elapsed < 30.0


def test_criterion_08_stability_dichotomy():
    density = Density(QuadraticWeight(1.0, 0.0, 0.0), C, 2, (-1.0, 1.0))
    verdict = parallel_halfspace_stability(density, 0.0)
    # Gaussian-moment oracle: I_f(x) on the t = t0 line collapses to
    # omega''(t0) e^{omega(t0) - c t0^2} sqrt(pi/c) / (2c), negative here
    t0 = 0.0
    omega2 = -2.0
    oracle = omega2 * math.exp(0.0 - C * t0 * t0) * math.sqrt(math.pi / C) / (2.0 * C)
    rel = abs(verdict.witness_value - oracle) / abs(oracle)
    # on a vertical line k = 0 and Ric_f(N,N) = 2c, so min I_f(u,u)/||u||^2
    # over mean-zero u is lambda_1 - 2c of the slab factor; a second
    # discretization (index_form at the pencil eigenvector on a vertical
    # segment) must give the same quotient
    minima = {}
    cross = 0.0
    for label, weight, slab in (
        ("zero", ZeroWeight(), (-1.0, 1.0)),
        ("concave", QuadraticWeight(1.0, 0.0, 0.0), (-1.0, 1.0)),
        ("convex", QuadraticWeight(-0.4, 0.0, 0.0), (-5.0, 5.0)),
    ):
        line_density = Density(weight, C, 2, slab)
        cert = poincare_certify(line_density, n_cells=2000)
        minima[label] = cert.lambda_value - 2.0 * C
        line = vertical_segment(line_density, 0.0, n=2001)
        w = np.interp(line.points[:, 1], cert.problem.nodes, cert.eigenvector)
        mass, _ = _trapezoid_weights(line_density, line)
        w -= float(np.sum(w * mass)) / float(np.sum(mass))
        quotient = index_form(line_density, line, w) / float(np.sum(w * w * mass))
        cross = max(cross, abs(quotient - minima[label]) / abs(minima[label]))
    index_min = minima["concave"]
    ok = (
        verdict.verdict == "unstable"
        and oracle < 0.0
        and rel <= 1e-4
        and index_min >= -1e-6
        and cross <= 1e-5
        and minima["convex"] < 0.0
    )
    report(8, "parallel half-space unstable, perpendicular lines stable", ok,
           f"witness {verdict.witness_value:.6f} vs oracle {oracle:.6f} "
           f"(rel {rel:.2e}), vertical index min {index_min:.6f} "
           f"(convex weight {minima['convex']:.6f}), index_form cross-check {cross:.2e}")
    assert verdict.verdict == "unstable"
    assert rel <= 1e-4
    assert index_min >= -1e-6
    assert cross <= 1e-5
    assert minima["convex"] < 0.0


def test_criterion_09_jacobi_eigen_identity():
    density = Density(ZeroWeight(), C, 2, (-INF, INF))
    worst_ratio = INF
    details = []
    for target, start, angle in ((0.0, (1.0, 0.0), 1.0), (-1.0, (0.5, 0.0), math.pi / 2)):
        errors = []
        for h in (4e-3, 2e-3, 1e-3):
            curve = cmc_shoot(density, target, start, angle=angle, step=h, max_length=2.0)
            errors.append(jacobi_residual(density, curve))
        ratios = [errors[i - 1] / errors[i] for i in (1, 2)]
        worst_ratio = min(worst_ratio, min(ratios))
        details.append(f"H_f={target}: {ratios[0]:.2f}, {ratios[1]:.2f}")
    ok = worst_ratio >= 3.5
    report(9, "translational Jacobi identity converges at order h^2", ok,
           f"halving ratios {'; '.join(details)} (floor 3.5)")
    assert worst_ratio >= 3.5


def test_criterion_10_optimizer_benchmark():
    begin = time.perf_counter()
    density = Density(ZeroWeight(), C, 2, (-1.0, 1.0))
    v_total = total_weighted_volume(density)
    target = 0.5 * v_total
    benchmark = math.sqrt(2.0 * math.pi) * math.erf(math.sqrt(0.5))
    rng = np.random.default_rng(10)
    worst_gap = 0.0
    worst_drift = 0.0
    most_iterations = 0
    for _ in range(10):
        m = 12
        ends = rng.uniform(-0.6, 0.6, 2)
        control_x = np.linspace(ends[0], ends[1], m)
        control_x[1:-1] += rng.normal(0.0, 0.15, m - 2)
        chord = ChordSpline(density, control_x)
        final, trace = minimize(chord, target)
        assert trace.status == "converged"
        assert trace.final.stationary
        assert np.all(np.diff(trace.lengths) <= 0.0)
        most_iterations = max(most_iterations, len(trace.iterations))
        worst_gap = max(worst_gap, abs(trace.final.length - benchmark) / benchmark)
        worst_drift = max(worst_drift, float(trace.area_errors[-1]))
    elapsed = time.perf_counter() - begin
    ok = (worst_gap <= 5e-3 and worst_drift <= 1e-8 * v_total and most_iterations <= 20
          and elapsed < 10.0)
    report(10, "optimizer reaches the perpendicular benchmark from random chords", ok,
           f"max relative gap {worst_gap:.2e}, max area drift {worst_drift:.2e}, "
           f"at most {most_iterations} iterations, {elapsed:.1f}s")
    assert worst_gap <= 5e-3
    assert worst_drift <= 1e-8 * v_total
    assert most_iterations <= 20
    assert elapsed < 10.0


def test_criterion_11_differential_self_consistency():
    rng = np.random.default_rng(11)
    h = 1e-6
    worst_psi = 0.0
    for name, density, _, slab in SWEEP:
        lo = slab[0] if math.isfinite(slab[0]) else -2.0
        hi = slab[1] if math.isfinite(slab[1]) else 2.0
        pts = np.stack(
            [rng.uniform(-2.0, 2.0, 40), rng.uniform(lo + 0.05, hi - 0.05, 40)], axis=-1
        )
        grad = log_density_gradient(density, pts)
        for axis in (0, 1):
            e = np.zeros(2)
            e[axis] = h
            fd = (density.psi(*(pts + e).T) - density.psi(*(pts - e).T)) / (2.0 * h)
            scale = np.maximum(np.abs(grad[:, axis]), 1.0)
            worst_psi = max(worst_psi, float(np.max(np.abs(fd - grad[:, axis]) / scale)))
    density = Density(ZeroWeight(), C, 2, (-1.0, 1.0))
    chord = ChordSpline(density, 0.2 * rng.standard_normal(8))
    dp, dv = shape_gradient(chord)
    from isoflow import enclosed_area, weighted_length

    worst_shape = 0.0
    step = 1e-5
    for j in range(8):
        plus = np.array(chord.control_x)
        minus = np.array(chord.control_x)
        plus[j] += step
        minus[j] -= step
        up = ChordSpline(density, plus)
        down = ChordSpline(density, minus)
        fd_p = (weighted_length(up) - weighted_length(down)) / (2.0 * step)
        fd_v = (enclosed_area(up) - enclosed_area(down)) / (2.0 * step)
        scale_p = max(abs(dp[j]), 1e-2)
        scale_v = max(abs(dv[j]), 1e-2)
        worst_shape = max(
            worst_shape, abs(fd_p - dp[j]) / scale_p, abs(fd_v - dv[j]) / scale_v
        )
    ok = worst_psi <= 1e-4 and worst_shape <= 1e-4
    report(11, "gradients agree with finite differences", ok,
           f"grad psi {worst_psi:.2e}, shape gradient {worst_shape:.2e} (tol 1.0e-04)")
    assert worst_psi <= 1e-4
    assert worst_shape <= 1e-4
