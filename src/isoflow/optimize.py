"""Constrained chord optimization: weighted length at fixed weighted area.

A chord is a cubic spline graph x(t) crossing the slab from the bottom
wall t = a to the top wall t = b, its height the fixed ramp
t = a + (b − a)θ in the spline parameter; the region E is everything to
its left inside Ω.  The first variation of weighted length,

    δP_f = −∫ H_f ⟨W, N⟩ da_f + [f ⟨T, W⟩] at the wall endpoints,

makes stationary chords those of constant f-mean curvature meeting the
walls orthogonally.  Length and area are explicit in the node values x
and x′ of the horizontal controls, so their exact Hessians are a few
products of the spline operators with node diagonals.  At a vertical
chord the Lagrangian Hessian restricted to area-preserving variations
is the index form I_f on the spline space, positive by the
Bakry-Émery bound λ₁ ≥ 2c; the optimizer takes modified Newton-KKT
steps on it.  The area constraint is restored after every trial step
by a horizontal translation, which moves weighted area monotonically.
The expected minimizer is a vertical chord: its weighted length is the
perpendicular profile value at the target area.
"""

from __future__ import annotations

import collections
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, GeometryError
from .geometry import DiscreteCurve
from .profiles import _perpendicular_lines
from .weights import Density, _Frozen, _gauss_legendre, _read_only, gaussian_cdf
from .weights import gaussian_factor, log_density_gradient
from .weights import total_weighted_volume

__all__ = [
    "ChordSpline",
    "OptimizeTrace",
    "StationarityReport",
    "chord_curve",
    "enclosed_area",
    "make_straight_chord",
    "minimize",
    "shape_gradient",
    "stationarity_report",
    "vertical_chord_length",
    "weighted_length",
]

_QUAD_SUBPANELS = 12
_QUAD_ORDER = 16

# descent: projected-gradient norm that stops it and iteration budget; line
# search: Armijo sufficient-decrease slope, backtracking factor and budget;
# Newton step: smallest |eigenvalue| kept, relative to the largest
_GRADIENT_TOLERANCE = 1e-6
_MAX_ITERATIONS = 400
_ARMIJO_SLOPE = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 40
_EIGEN_FLOOR = 1e-8


def _not_a_knot(m: int) -> np.ndarray:
    """Power-form coefficients (c0, c1, c2, c3), shape (4, m − 1, m), of the
    not-a-knot cubic spline basis on m uniform knots of [0, 1]: from knot i,
    B_j = c3 + c2·h + c1·h² + c0·h³ in the offset h.  The knot slopes s of
    every B_j come from one dense solve: s_{i−1} + 4s_i + s_{i+1} =
    3(δ_{i−1} + δ_i) inside, δ the interval slopes, and at each end the row
    that makes the third derivative continuous across the second knot."""
    h, eye = 1.0 / (m - 1), np.eye(m)
    delta = np.diff(eye, axis=0) / h
    system = 4.0 * eye + np.eye(m, k=1) + np.eye(m, k=-1)
    system[0, :2] = system[-1, :-3:-1] = 1.0, 2.0
    rhs = np.empty((m, m))
    rhs[1:-1] = 3.0 * (delta[:-1] + delta[1:])
    rhs[0], rhs[-1] = 0.5 * (5.0 * delta[0] + delta[1]), 0.5 * (delta[-2] + 5.0 * delta[-1])
    s = np.linalg.solve(system, rhs)
    cubic = (s[:-1] + s[1:] - 2.0 * delta) / h
    return np.stack((cubic / h, (delta - s[:-1]) / h - cubic, s[:-1], eye[:-1]))


def _evaluate_spline(coefficients: np.ndarray, theta, nu: int) -> np.ndarray:
    """Values (nu = 0) or nu-th θ-derivatives at θ of the spline with the
    power-form coefficients of _not_a_knot, shaped θ.shape + the
    coefficients' trailing axes."""
    theta = np.asarray(theta, dtype=float)
    knots = np.linspace(0.0, 1.0, coefficients.shape[1] + 1)
    i = np.clip(np.searchsorted(knots, theta, side="right") - 1, 0, knots.size - 2)
    c0, c1, c2, c3 = coefficients.take(i, axis=1)
    h = (theta - knots[i]).reshape(theta.shape + (1,) * (c0.ndim - theta.ndim))
    if nu == 0:
        return c3 + c2 * h + c1 * (h * h) + c0 * (h * h * h)
    if nu == 1:
        return c2 + c1 * h * 2.0 + c0 * (h * h) * 3.0
    return c1 * 2.0 + c0 * h * 6.0


class _SplineOperator(NamedTuple):
    """Quadrature nodes and weights and the spline basis B_j at the nodes of m knots."""

    theta: np.ndarray  # quadrature nodes
    weights: np.ndarray  # quadrature weights
    value: np.ndarray  # (nodes, m): B_j(θ_i)
    d1: np.ndarray  # B_j′(θ_i)
    d2: np.ndarray  # B_j″(θ_i)
    ends: np.ndarray  # (2, m): B_j′ at θ = 0 and θ = 1
    coefficients: np.ndarray  # (4, m − 1, m): the basis in power form, from _not_a_knot


@functools.lru_cache(maxsize=None)
def _operator(m: int) -> _SplineOperator:
    """Spline operators at Gauss-Legendre nodes aligned with the m knots.

    The not-a-knot spline through (knot_j, y_j) is linear in y, so one
    basis (_not_a_knot) gives every B_j; a chord's values and
    θ-derivatives are then matrix products with its controls.  Knot
    alignment matters because spline curvature has derivative kinks at
    the knots; the high panel count matters because the arclength factor
    (1 + x'²)^{±3/2} has complex branch points that approach the real
    axis wherever the curve turns steeply.  Built once per m, read-only.
    """
    x, w = _gauss_legendre(_QUAD_ORDER)
    edges = np.linspace(0.0, 1.0, (m - 1) * _QUAD_SUBPANELS + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    theta = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    coefficients = _not_a_knot(m)
    fields = [_evaluate_spline(coefficients, theta, nu) for nu in (0, 1, 2)]
    ends = _evaluate_spline(coefficients, [0.0, 1.0], 1)
    return _SplineOperator(*map(_read_only, (theta, weights, *fields, ends, coefficients)))


class ChordSpline(_Frozen):
    """Cubic-spline graph chord x(t) across one density's slab, bottom wall to top.

    density: the density the chord lives in; it spans density.cut = (a, b).
    control_x: abscissas at uniform parameter knots in [0, 1], kept as a
    read-only copy.  The height is the linear ramp t = a + (b − a)θ, so
    t′ = b − a, t″ = 0 and only the abscissas move.
    fields: the read-only node fields of _evaluate_fields, computed once here.
    The enclosed region E is the part of the slab left of the curve.
    """

    def __init__(self, density: Density, control_x):
        vars(self).update(density=density, control_x=_read_only(np.array(control_x, dtype=float, ndmin=1)))
        self.__post_init__()
        vars(self).update(fields=_evaluate_fields(self))

    def __post_init__(self):
        """The controls' checks, the validation step of __init__."""
        cx = self.control_x
        if cx.size < 4 or cx.size > 64:
            raise GeometryError("chord needs between 4 and 64 control points")
        if not np.all(np.isfinite(cx)):
            raise GeometryError("control abscissas must be finite")

    @property
    def n_controls(self) -> int:
        return self.control_x.size

    def translated(self, tau: float) -> "ChordSpline":
        return ChordSpline(self.density, self.control_x + tau)


def make_straight_chord(
    density: Density, x_bottom: float = 0.0, x_top: float | None = None, n_controls: int = 12
) -> ChordSpline:
    """Straight graph chord between (x_bottom, a) and (x_top, b); vertical default.

    Infinite slab sides are replaced by the weighted tail cutoff, beyond
    which the discarded mass is negligible at working tolerances.
    """
    x_top = x_bottom if x_top is None else x_top
    if not (math.isfinite(x_bottom) and math.isfinite(x_top)):  # before the ramp, where inf * 0 warns
        raise GeometryError("control abscissas must be finite")
    knots = np.linspace(0.0, 1.0, n_controls)
    return ChordSpline(density, x_bottom + (x_top - x_bottom) * knots)


def vertical_chord_length(density: Density, fraction: float) -> float:
    """Weighted length of the vertical chord left of which lies `fraction`
    of the mass: the perpendicular profile value V_tot·√(c/π)·e^{−cs²},
    s the Gaussian quantile of the fraction."""
    p, lower = min(fraction, 1.0 - fraction), fraction <= 0.5
    return float(_perpendicular_lines(density.c, total_weighted_volume(density), p, lower)[1])


# one chord's fields at the quadrature nodes: weights qw, x and its
# θ-derivatives, the ramp t and its constant slope dt = b − a, speed |γ′|,
# f = e^ψ, the area kernel with V_f(E) = Σ kernel·Φ_c(x), and that area itself
_Fields = collections.namedtuple("_Fields", "qw x t dx dt d2x speed f kernel area")


def _evaluate_fields(chord: ChordSpline) -> _Fields:
    """Spline geometry, density values and enclosed area at the quadrature
    nodes, read-only.  The area kernel is qw·e^{ω(t)−ct²}·t′·√(π/c): the
    horizontal antiderivative G(x,t) = e^{ω(t)−ct²} ∫_{−∞}^x e^{−cξ²}dξ
    turns the weighted area into the line integral ∫ G t′ dθ along the
    chord, and only x enters Φ_c, so a translation leaves the kernel fixed."""
    density, op = chord.density, _operator(chord.n_controls)
    x, dx, d2x = (_read_only(basis @ chord.control_x) for basis in (op.value, op.d1, op.d2))
    (a, b), c = density.cut, density.c
    t, dt = _read_only(a + (b - a) * op.theta), b - a
    kernel = _read_only(op.weights * density.slab_factor(t) * dt * gaussian_factor(c))
    f = _read_only(np.exp(density.psi(x, t)))
    area = float(np.sum(kernel * gaussian_cdf(c, x)))
    return _Fields(op.weights, x, t, dx, dt, d2x, _read_only(np.hypot(dx, dt)), f, kernel, area)


def _f_mean_curvature(chord: ChordSpline) -> np.ndarray:
    """H_f = k − ⟨∇ψ, N⟩, k = −t′x″/|γ′|³, N = (−t′, x′)/|γ′| at the nodes."""
    _, x, t, dx, dt, d2x, speed, *_ = chord.fields
    grad_x, grad_t = log_density_gradient(chord.density, np.stack((x, t), axis=-1)).T
    return -dt * d2x / speed**3 - (grad_x * (-dt / speed) + grad_t * (dx / speed))


def weighted_length(chord: ChordSpline) -> float:
    """P_f(chord) = ∫ f dℓ by knot-aligned composite Gauss-Legendre."""
    fields = chord.fields
    return float(np.sum(fields.qw * fields.f * fields.speed))


def enclosed_area(chord: ChordSpline) -> float:
    """V_f(E) for E left of the chord, by the flux form of the area."""
    return chord.fields.area


def shape_gradient(chord: ChordSpline) -> tuple[np.ndarray, np.ndarray]:
    """(dP/dx_j, dV/dx_j) from the first variation.

    Moving control j horizontally deforms the chord by W = B_j e_x, so

        dP/dx_j = ∫ H_f B_j f t′ dθ + wall terms f T_x B_j at θ = 0, 1
        dV/dx_j = ∫ B_j f t′ dθ

    with H_f = k − ⟨∇ψ, N⟩ evaluated analytically from the spline.
    """
    fields = chord.fields
    qw, dt, f = fields.qw, fields.dt, fields.f
    hf = _f_mean_curvature(chord)
    op = _operator(chord.n_controls)
    dp_x = op.value.T @ (qw * hf * f * dt)
    dv_x = op.value.T @ (qw * f * dt)
    # wall sliding terms: the endpoint controls move the contact point
    # along the wall, contributing f ⟨T, e_x⟩ with outward sign
    f_ends = np.exp(chord.density.psi(chord.control_x[[0, -1]], np.array(chord.density.cut)))
    slopes = op.ends @ chord.control_x  # x′(0), x′(1)
    tang_x = slopes / np.hypot(slopes, dt)
    dp_x[0] -= f_ends[0] * tang_x[0]
    dp_x[-1] += f_ends[1] * tang_x[1]
    return dp_x, dv_x


def _second_variation(chord: ChordSpline) -> tuple[np.ndarray, np.ndarray]:
    """Exact Hessians (H_L, H_V) of weighted length and enclosed area in
    the horizontal controls.

    With x = B c and x′ = B′ c at the nodes, L = Σ qw·f·|γ′| and
    V = Σ kernel·Φ_c(x), so with f_x = −2cx·f and f_xx = (4c²x² − 2c)·f

        H_L = Bᵀ[qw f_xx |γ′|]B + Bᵀ[qw f_x x′/|γ′|]B′ + B′ᵀ[qw f_x x′/|γ′|]B
              + B′ᵀ[qw f t′²/|γ′|³]B′
        H_V = Bᵀ[kernel·φ′(x)]B,   kernel·φ′(x) = −2cx·qw f t′,

    [·] the diagonal of node values and φ = Φ_c′.
    """
    fields = chord.fields
    x, dx, dt, speed = fields.x, fields.dx, fields.dt, fields.speed
    c = chord.density.c
    op = _operator(chord.n_controls)
    mass = fields.qw * fields.f
    mass_x = -2.0 * c * x * mass  # qw·f_x
    cross = op.value.T @ ((mass_x * dx / speed)[:, None] * op.d1)
    h_length = (op.value.T @ (((4.0 * c * c * x * x - 2.0 * c) * mass * speed)[:, None] * op.value)
                + cross + cross.T
                + op.d1.T @ ((mass * dt * dt / speed**3)[:, None] * op.d1))
    h_area = op.value.T @ ((mass_x * dt)[:, None] * op.value)
    return h_length, h_area


class StationarityReport(NamedTuple):
    """First-order optimality diagnostics of a chord.

    A stationary chord has constant f-mean curvature along its length
    (spread ≤ 1e−3 relative) and meets the walls orthogonally (tangent
    within 0.5° of vertical).  Only an end on a finite slab wall is held
    to the angle: on an infinite side the chord ends at the tail cutoff,
    which is not part of ∂Ω.  Both end angles are recorded.
    """

    stationary: bool
    hf_spread: float
    angle_bottom_deg: float
    angle_top_deg: float
    length: float


def stationarity_report(chord: ChordSpline) -> StationarityReport:
    hf = _f_mean_curvature(chord)
    spread = float(np.max(hf) - np.min(hf))
    (a, b), slab = chord.density.cut, chord.density.slab
    slopes = _operator(chord.n_controls).ends @ chord.control_x
    angles = [math.degrees(math.atan2(abs(slope), b - a)) for slope in slopes]
    at_wall = [end == wall for end, wall in zip((a, b), slab)]
    orthogonal = all(angle <= 0.5 for angle, wall in zip(angles, at_wall) if wall)
    stationary = spread <= 1e-3 * (1.0 + abs(float(np.mean(hf)))) and orthogonal
    return StationarityReport(stationary, spread, *angles, weighted_length(chord))


def _restore_area(chord: ChordSpline, target: float) -> ChordSpline:
    """Translate horizontally until the enclosed area matches the target.

    A doubling search brackets a sign change of the area error in the
    offset τ; Newton steps with the exact derivative, bisecting whenever
    a step leaves the bracket, then resolve the root to 1e-14·L; the
    bracket reaches at most 1e3·L, with L = max(1, 1/√(2c)) the Gaussian
    length unit.  The area kernel is frozen across the search, so each
    probe is one Gaussian CDF per node and only the root becomes a new
    chord; the chord's own area is the first probe, and a chord within
    1e-12·target and 1e-15·(1 + target) of the target is kept as it is.
    """
    fields = chord.fields
    kernel, x, c = fields.kernel, fields.x, chord.density.c
    unit = max(1.0, 1.0 / math.sqrt(2.0 * c))

    def offset_error(tau: float) -> float:
        return float(np.sum(kernel * gaussian_cdf(c, x + tau))) - target

    err0 = fields.area - target
    if abs(err0) <= 1e-15 * (1.0 + target) and abs(err0) <= 1e-12 * target:
        return chord
    step = 0.25 if err0 < 0.0 else -0.25
    while np.sign(offset_error(step)) == np.sign(err0):
        step *= 2.0
        if abs(step) > 1e3 * unit:
            too = "large" if step > 0.0 else "small"
            raise DomainError(f"area restoration bracket failed (target too {too})")
    inner = step / 2.0 if abs(step) > 0.25 else 0.0
    lo, hi = min(inner, step), max(inner, step)  # error <= 0 at lo, >= 0 at hi
    tau = inner
    for _ in range(100):
        err = offset_error(tau)
        lo, hi = (tau, hi) if err < 0.0 else (lo, tau)
        # d/dτ Σ kernel·Φ_c(x + τ) = Σ kernel·√(c/π)·e^{−c(x+τ)²}
        slope = float(np.sum(kernel * np.exp(-c * (x + tau) ** 2))) * math.sqrt(c / math.pi)
        newton = tau - err / slope if slope > 0.0 else math.nan
        nxt = newton if lo <= newton <= hi else 0.5 * (lo + hi)
        if abs(nxt - tau) <= 1e-14 * unit or hi - lo <= 1e-14 * unit:
            return chord.translated(float(nxt))
        tau = nxt
    raise DomainError("area restoration did not converge")


class OptimizeTrace(NamedTuple):
    """Per-iteration history of the constrained descent."""

    iterations: np.ndarray
    lengths: np.ndarray
    area_errors: np.ndarray
    gradient_norms: np.ndarray
    status: str
    final: StationarityReport


def _unpack(chord: ChordSpline, control_x: np.ndarray) -> ChordSpline:
    """The trial chord with new horizontal controls; one call per
    line-search trial, which benchmark/tracer.py counts."""
    return ChordSpline(chord.density, control_x)


def _multiplier(gradient: np.ndarray, area_gradient: np.ndarray) -> tuple[float, float]:
    """Least-squares multiplier μ of the area constraint and the norm of the
    projected gradient ∇L − μ∇V, the stationarity measure of the descent."""
    bad = np.flatnonzero(~np.isfinite(gradient))
    if bad.size:  # f is infinite at a wall end, as for a log-power m < 0 at t = 0
        raise DomainError(f"shape gradient is not finite: dP/dx_{bad[0]} = {float(gradient[bad[0]])!r}")
    gv_norm2 = float(np.dot(area_gradient, area_gradient))
    if gv_norm2 <= 0.0:
        raise DomainError("area gradient vanished; constraint not controllable")
    mu = float(np.dot(gradient, area_gradient)) / gv_norm2
    return mu, float(np.linalg.norm(gradient - mu * area_gradient))


def _newton_step(hessian: np.ndarray, gradient: np.ndarray, area_gradient: np.ndarray) -> np.ndarray:
    """Modified Newton-KKT step on the area-tangent space.

    Z spans the complement of ∇V (QR of ∇V); the reduced Hessian ZᵀHZ has
    its eigenvalues replaced by max(|λ|, 1e-8·|λ_max|), so the step
    −Z(ZᵀHZ)⁻¹Zᵀ∇L is a descent direction that leaves the area unchanged
    to first order (Nocedal & Wright, Numerical Optimization, §3.4, ch. 18).
    """
    q, _ = np.linalg.qr(area_gradient[:, None], mode="complete")
    tangent = q[:, 1:]
    lam, vectors = np.linalg.eigh(tangent.T @ hessian @ tangent)
    lam = np.maximum(np.abs(lam), _EIGEN_FLOOR * float(np.max(np.abs(lam))))
    basis = tangent @ vectors
    return -basis @ ((basis.T @ gradient) / lam)


def minimize(chord: ChordSpline, target_area: float) -> tuple[ChordSpline, OptimizeTrace]:
    """Modified Newton-KKT descent on the horizontal controls at fixed weighted area.

    Each step solves the KKT system of H_L − μH_V, the exact Lagrangian
    Hessian with μ the least-squares multiplier, on the area-tangent
    space.  Every trial step is capped at a displacement of 0.15·(b − a)
    and followed by a horizontal-translation area restoration, so the
    constraint holds exactly along the accepted trace; Armijo backtracking
    starts from the full step.  The run terminates on a small projected
    gradient (norm below _GRADIENT_TOLERANCE), the iteration cap
    (_MAX_ITERATIONS), or a failed line search (stalled).
    """
    if not target_area > 0.0:
        raise ConfigError("target area must be positive")
    chord = _restore_area(chord, target_area)
    a, b = chord.density.cut
    rows = []
    status = "max_iterations"
    for it in range(_MAX_ITERATIONS):
        gradient, area_gradient = shape_gradient(chord)
        mu, gnorm = _multiplier(gradient, area_gradient)
        length = weighted_length(chord)
        area_err = abs(enclosed_area(chord) - target_area)
        rows.append((it, length, area_err, gnorm))
        if gnorm < _GRADIENT_TOLERANCE:
            status = "converged"
            break
        h_length, h_area = _second_variation(chord)
        step = _newton_step(h_length - mu * h_area, gradient, area_gradient)
        slope = float(np.dot(gradient, step))
        # per-step displacement cap: keeps the spline from folding
        alpha = min(1.0, 0.15 * (b - a) / max(float(np.max(np.abs(step))), 1e-30))
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            try:
                trial = _unpack(chord, chord.control_x + alpha * step)
                trial = _restore_area(trial, target_area)
            except (GeometryError, DomainError):
                alpha *= _BACKTRACK
                continue
            if weighted_length(trial) <= length + _ARMIJO_SLOPE * alpha * slope:
                chord = trial
                accepted = True
                break
            alpha *= _BACKTRACK
        if not accepted:
            status = "stalled"
            break
    arr = np.array(rows, dtype=float).reshape(-1, 4)
    final = stationarity_report(chord)
    return chord, OptimizeTrace(arr[:, 0].astype(int), *arr[:, 1:].T, status, final)


def chord_curve(chord: ChordSpline) -> DiscreteCurve:
    """Resample a spline chord as a 401-node discrete curve with analytic fields.

    Nodes sit at uniform arclength, so the spacing contract of
    DiscreteCurve holds for arbitrarily bent chords.  Normals are the
    left normal N = (−t′, x′)/|γ′| and the curvature is the exact
    spline curvature k = −t′x″/|γ′|³, both evaluated from the spline
    derivatives rather than node differences.
    """
    coefficients = _operator(chord.n_controls).coefficients @ chord.control_x
    (a, b), slab = chord.density.cut, chord.density.slab  # the height ramp t = a + (b − a)θ
    theta_dense = np.linspace(0.0, 1.0, 4097)
    speed_dense = np.hypot(_evaluate_spline(coefficients, theta_dense, 1), b - a)
    s_dense = np.concatenate(
        ([0.0], np.cumsum(0.5 * (speed_dense[1:] + speed_dense[:-1]) * np.diff(theta_dense)))
    )
    theta = np.interp(np.linspace(0.0, s_dense[-1], 401), s_dense, theta_dense)
    theta[0], theta[-1] = 0.0, 1.0
    x, dx, d2x = (_evaluate_spline(coefficients, theta, nu) for nu in (0, 1, 2))
    speed = np.hypot(dx, b - a)
    points = np.stack((x, np.clip(a + (b - a) * theta, *slab)), axis=-1)
    normals = np.stack((-(b - a) / speed, dx / speed), axis=-1)
    curvature = -(b - a) * d2x / speed**3
    return DiscreteCurve(points=points, normals=normals, curvature=curvature)
