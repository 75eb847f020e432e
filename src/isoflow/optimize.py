"""Constrained chord optimization: weighted length at fixed weighted area.

A chord is a cubic spline graph x(t) crossing the slab from the bottom
wall t = a to the top wall t = b; the region E is everything to its left
inside Ω.  The first variation of weighted length,

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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, GeometryError
from .geometry import CubicSpline, DiscreteCurve, _require_planar, _trapezoid_weights
from .weights import Density, _csv_table, _float_arrays, _gauss_legendre, gaussian_cdf
from .weights import gaussian_factor, gaussian_quantile, log_density
from .weights import tail_interval, total_weighted_volume

__all__ = [
    "ChordSpline",
    "OptimizeTrace",
    "OptimizerConfig",
    "StationarityReport",
    "chord_curve",
    "enclosed_area",
    "make_straight_chord",
    "minimize",
    "shape_gradient",
    "stationarity_report",
    "trace_csv",
    "vertical_chord_length",
    "weighted_length",
]

_QUAD_SUBPANELS = 12
_QUAD_ORDER = 16

# line search: Armijo sufficient-decrease slope, backtracking factor and
# budget; Newton step: smallest |eigenvalue| kept, relative to the largest
_ARMIJO_SLOPE = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 40
_EIGEN_FLOOR = 1e-8


@dataclass(frozen=True)
class _SplineOperator:
    """Quadrature nodes and weights and the spline basis B_j at the nodes of m knots."""

    theta: np.ndarray  # quadrature nodes
    weights: np.ndarray  # quadrature weights
    value: np.ndarray  # (nodes, m): B_j(θ_i)
    d1: np.ndarray  # B_j′(θ_i)
    d2: np.ndarray  # B_j″(θ_i)
    ends: np.ndarray  # (2, m): B_j′ at θ = 0 and θ = 1


_OPERATORS: dict[int, _SplineOperator] = {}


def _operator(m: int) -> _SplineOperator:
    """Spline operators at Gauss-Legendre nodes aligned with the m knots.

    The not-a-knot spline through (knot_j, y_j) is linear in y, so one
    spline through the identity matrix gives every B_j; a chord's values
    and θ-derivatives are then matrix products with its controls.  Knot
    alignment matters because spline curvature has derivative kinks at
    the knots; the high panel count matters because the arclength factor
    (1 + x'²)^{±3/2} has complex branch points that approach the real
    axis wherever the curve turns steeply.  Built once per m, read-only.
    """
    if m not in _OPERATORS:
        x, w = _gauss_legendre(_QUAD_ORDER)
        edges = np.linspace(0.0, 1.0, (m - 1) * _QUAD_SUBPANELS + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        theta = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        basis = CubicSpline(np.linspace(0.0, 1.0, m), np.eye(m))
        weights = (half[:, None] * w[None, :]).ravel()
        _OPERATORS[m] = _SplineOperator(*map(_read_only, (
            theta, weights, basis(theta), basis(theta, 1), basis(theta, 2), basis([0.0, 1.0], 1))))
    return _OPERATORS[m]


@dataclass(frozen=True)
class ChordSpline:
    """Cubic-spline chord from the bottom wall to the top wall.

    control_x, control_t: control values at uniform parameter knots in
    [0, 1].  The vertical profile is the linear ramp from t(0) = a to
    t(1) = b and only the horizontal controls move, so the curve is a
    graph over t.  The enclosed region E is the part of the slab left of
    the curve.
    """

    control_x: np.ndarray
    control_t: np.ndarray
    span: tuple[float, float]

    def __post_init__(self):
        cx, ct = _float_arrays(self, np.atleast_1d, "control_x", "control_t")
        object.__setattr__(self, "span", (float(self.span[0]), float(self.span[1])))
        a, b = self.span
        m = cx.size
        if m < 4 or m > 64:
            raise GeometryError("chord needs between 4 and 64 control points")
        if ct.shape != cx.shape:
            raise GeometryError("control arrays must have equal length")
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise DomainError("chord span must be a bounded interval")
        if not np.all(np.isfinite(cx)):
            raise GeometryError("control abscissas must be finite")
        if abs(ct[0] - a) > 1e-12 * (1.0 + abs(a)) or abs(ct[-1] - b) > 1e-12 * (1.0 + abs(b)):
            raise GeometryError("chord endpoints must sit on the walls")
        ramp = a + (b - a) * self.knots
        if np.max(np.abs(ct - ramp)) > 1e-12 * (1.0 + abs(b - a)):
            raise GeometryError("graph chords must keep the linear vertical ramp")

    @property
    def n_controls(self) -> int:
        return self.control_x.size

    @property
    def knots(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.control_x.size)

    @functools.cached_property
    def controls(self) -> np.ndarray:
        """(m, 2) array of the (x, t) control values, read-only."""
        return _read_only(np.column_stack([self.control_x, self.control_t]))

    @functools.cached_property
    def _fields(self) -> dict:
        """Quadrature-node fields per density, filled by _chord_fields."""
        return {}

    @functools.cached_property
    def _vertical_cache(self) -> dict:
        """Node fields that depend on control_t alone, per density; a chord
        made by _moved shares its parent's."""
        return {}

    @functools.cached_property
    def _spline(self) -> CubicSpline:
        return CubicSpline(self.knots, self.controls)

    def position(self, theta, nu: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(x, t) at arbitrary parameters θ, or their nu-th θ-derivatives."""
        xt = self._spline(np.asarray(theta, dtype=float), nu)
        return xt[..., 0], xt[..., 1]

    def translated(self, tau: float) -> "ChordSpline":
        return _moved(self, self.control_x + tau)


def _moved(chord: ChordSpline, control_x: np.ndarray) -> ChordSpline:
    """The chord with new horizontal controls.  It keeps control_t, so it
    shares the vertical node fields: every chord of a descent, and every
    translate of a chord, evaluates them once."""
    moved = ChordSpline(control_x, chord.control_t, chord.span)
    moved.__dict__["_vertical_cache"] = chord._vertical_cache
    return moved


def make_straight_chord(
    density: Density, x_bottom: float = 0.0, x_top: float | None = None, n_controls: int = 12
) -> ChordSpline:
    """Straight graph chord between (x_bottom, a) and (x_top, b); vertical default.

    Infinite slab sides are replaced by the weighted tail cutoff, beyond
    which the discarded mass is negligible at working tolerances.
    """
    lo, hi = tail_interval(density)
    x_top = x_bottom if x_top is None else x_top
    knots = np.linspace(0.0, 1.0, n_controls)
    return ChordSpline(x_bottom + (x_top - x_bottom) * knots, lo + (hi - lo) * knots, (lo, hi))


def vertical_chord_length(density: Density, fraction: float) -> float:
    """Weighted length of the vertical chord left of which lies `fraction`
    of the mass: the perpendicular profile value V_tot·√(c/π)·e^{−cs²},
    s the Gaussian quantile of the fraction."""
    s = float(gaussian_quantile(density.c, fraction, 1.0 - fraction))
    v_total = total_weighted_volume(density)
    return v_total / gaussian_factor(1, density.c) * math.exp(-density.c * s * s)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# one chord's fields at the quadrature nodes under one density: weights qw,
# (x, t) and their θ-derivatives, speed |γ′|, f = e^ψ, the area kernel with
# V_f(E) = Σ kernel·Φ_c(x), and that area itself
_Fields = collections.namedtuple("_Fields", "qw x t dx dt d2x d2t speed f kernel area")


def _chord_fields(density: Density, chord: ChordSpline) -> _Fields:
    """Spline geometry, density values and enclosed area at the quadrature
    nodes, computed once per chord and density and kept read-only on the chord."""
    if density not in chord._fields:
        chord._fields[density] = _evaluate_fields(density, chord)
    return chord._fields[density]


def _vertical_fields(density: Density, qw: np.ndarray, t: np.ndarray, dt: np.ndarray) -> tuple:
    """(ω(t), t², area kernel) at the nodes, the kernel being the node
    weights qw·e^{ω(t)−ct²}·t′·√(π/c) with V_f = Σ kernel · Φ_c(x).

    The horizontal antiderivative G(x,t) = e^{ω(t)−ct²} ∫_{−∞}^x e^{−cξ²}dξ
    turns the weighted area into the line integral ∫ G t′ dθ along the
    chord; only x enters Φ_c, so a translation leaves the kernel fixed."""
    omega = density.weight.value(t)
    kernel = qw * np.exp(omega - density.c * t * t) * dt * math.sqrt(math.pi / density.c)
    return tuple(map(_read_only, (omega, t * t, kernel)))


def _evaluate_fields(density: Density, chord: ChordSpline) -> _Fields:
    _require_planar(density)
    op = _operator(chord.n_controls)
    pts, d1, d2 = (_read_only(b @ chord.controls) for b in (op.value, op.d1, op.d2))
    (x, t), (dx, dt), (d2x, d2t) = pts.T, d1.T, d2.T  # read-only views
    speed = np.hypot(dx, dt)
    if np.any(speed <= 1e-12):
        raise GeometryError("chord parametrization degenerates (zero speed)")
    vertical = chord._vertical_cache
    if density not in vertical:
        vertical[density] = _vertical_fields(density, op.weights, t, dt)
    omega, tt, kernel = vertical[density]
    # e^ψ with |p|² summed as log_density sums it
    f = np.exp(omega - density.c * (x * x + tt))
    area = float(np.sum(kernel * gaussian_cdf(density.c, x)))
    return _Fields(op.weights, x, t, dx, dt, d2x, d2t, _read_only(speed), _read_only(f), kernel, area)


def _f_mean_curvature(density: Density, chord: ChordSpline) -> np.ndarray:
    """H_f = k − ⟨∇ψ, N⟩, k = (x′t″ − t′x″)/|γ′|³, N = (−t′, x′)/|γ′| at the
    nodes, with ∇ψ = (−2c·x, ω′(t) − 2c·t) as log_density_gradient forms it."""
    _, x, t, dx, dt, d2x, d2t, speed, *_ = _chord_fields(density, chord)
    k = (dx * d2t - dt * d2x) / speed**3
    vertical, key = chord._vertical_cache, (density, "gradient")
    if key not in vertical:
        vertical[key] = _read_only(-2.0 * density.c * t + density.weight.deriv(t))
    grad_t = vertical[key]
    return k - (-2.0 * density.c * x * (-dt / speed) + grad_t * (dx / speed))


def weighted_length(density: Density, chord: ChordSpline) -> float:
    """P_f(chord) = ∫ f dℓ by knot-aligned composite Gauss-Legendre."""
    fields = _chord_fields(density, chord)
    return float(np.sum(fields.qw * fields.f * fields.speed))


def enclosed_area(density: Density, chord: ChordSpline) -> float:
    """V_f(E) for E left of the chord, by the flux form of the area."""
    return _chord_fields(density, chord).area


def shape_gradient(density: Density, chord: ChordSpline) -> tuple[np.ndarray, np.ndarray]:
    """(dP/dx_j, dV/dx_j) from the first variation.

    Moving control j horizontally deforms the chord by W = B_j e_x, so

        dP/dx_j = ∫ H_f B_j f t′ dθ + wall terms f T_x B_j at θ = 0, 1
        dV/dx_j = ∫ B_j f t′ dθ

    with H_f = k − ⟨∇ψ, N⟩ evaluated analytically from the spline.
    """
    fields = _chord_fields(density, chord)
    qw, dt, f = fields.qw, fields.dt, fields.f
    hf = _f_mean_curvature(density, chord)
    op = _operator(chord.n_controls)
    dp_x = op.value.T @ (qw * hf * f * dt)
    dv_x = op.value.T @ (qw * f * dt)
    # wall sliding terms: the endpoint controls move the contact point
    # along the wall, contributing f ⟨T, e_x⟩ with outward sign
    f_ends = np.exp(log_density(density, chord.controls[[0, -1]]))
    tang = op.ends @ chord.controls  # γ′(0), γ′(1)
    tang /= np.hypot(tang[:, 0], tang[:, 1])[:, None]
    dp_x[0] += -f_ends[0] * tang[0, 0]
    dp_x[-1] += f_ends[1] * tang[1, 0]
    return dp_x, dv_x


def _second_variation(density: Density, chord: ChordSpline) -> tuple[np.ndarray, np.ndarray]:
    """Exact Hessians (H_L, H_V) of weighted length and enclosed area in
    the horizontal controls.

    With x = B c and x′ = B′ c at the nodes, L = Σ qw·f·|γ′| and
    V = Σ kernel·Φ_c(x), so with f_x = −2cx·f and f_xx = (4c²x² − 2c)·f

        H_L = Bᵀ[qw f_xx |γ′|]B + Bᵀ[qw f_x x′/|γ′|]B′ + B′ᵀ[qw f_x x′/|γ′|]B
              + B′ᵀ[qw f t′²/|γ′|³]B′
        H_V = Bᵀ[kernel·φ′(x)]B,   kernel·φ′(x) = −2cx·qw f t′,

    [·] the diagonal of node values and φ = Φ_c′.
    """
    fields = _chord_fields(density, chord)
    x, dx, dt, speed = fields.x, fields.dx, fields.dt, fields.speed
    c = density.c
    op = _operator(chord.n_controls)
    mass = fields.qw * fields.f
    mass_x = -2.0 * c * x * mass  # qw·f_x
    cross = op.value.T @ ((mass_x * dx / speed)[:, None] * op.d1)
    h_length = (op.value.T @ (((4.0 * c * c * x * x - 2.0 * c) * mass * speed)[:, None] * op.value)
                + cross + cross.T
                + op.d1.T @ ((mass * dt * dt / speed**3)[:, None] * op.d1))
    h_area = op.value.T @ ((mass_x * dt)[:, None] * op.value)
    return h_length, h_area


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the fixed-area Newton-KKT length descent."""

    target_area: float
    max_iterations: int = 400
    gradient_tolerance: float = 1e-6

    def __post_init__(self):
        if not self.target_area > 0.0:
            raise ConfigError("target area must be positive")
        if not self.gradient_tolerance > 0.0:
            raise ConfigError("gradient tolerance must be positive")
        if self.max_iterations < 1:
            raise ConfigError("iteration budget must be positive")


@dataclass(frozen=True)
class StationarityReport:
    """First-order optimality diagnostics of a chord.

    A stationary chord has constant f-mean curvature along its length
    (spread ≤ 1e−3 relative) and meets the walls orthogonally (tangent
    within 0.5° of vertical).  Only an end on a finite slab wall is held
    to the angle: on an infinite side the chord ends at the tail cutoff,
    which is not part of ∂Ω.  Both end angles are recorded.
    """

    stationary: bool
    hf_mean: float
    hf_spread: float
    angle_bottom_deg: float
    angle_top_deg: float
    length: float


def stationarity_report(density: Density, chord: ChordSpline) -> StationarityReport:
    hf = _f_mean_curvature(density, chord)
    spread = float(np.max(hf) - np.min(hf))
    mean = float(np.mean(hf))
    tangents = _operator(chord.n_controls).ends @ chord.controls
    angles = [math.degrees(abs(math.atan2(abs(tx), abs(tt)))) for tx, tt in tangents]
    at_wall = [end == wall for end, wall in zip(chord.span, density.slab)]
    orthogonal = all(angle <= 0.5 for angle, wall in zip(angles, at_wall) if wall)
    stationary = spread <= 1e-3 * (1.0 + abs(mean)) and orthogonal
    return StationarityReport(stationary, mean, spread, *angles, weighted_length(density, chord))


def _restore_area(density: Density, chord: ChordSpline, target: float) -> ChordSpline:
    """Translate horizontally until the enclosed area matches the target.

    A doubling search brackets a sign change of the area error in the
    offset τ; Newton steps with the exact derivative, bisecting whenever
    a step leaves the bracket, then resolve the root to 1e-14.  The area
    kernel is frozen across the search, so each probe is one Gaussian
    CDF per node and only the root becomes a new chord; the chord's own
    area is the first probe.
    """
    fields = _chord_fields(density, chord)
    kernel, x, c = fields.kernel, fields.x, density.c

    def offset_error(tau: float) -> float:
        return float(np.sum(kernel * gaussian_cdf(c, x + tau))) - target

    err0 = fields.area - target
    if abs(err0) <= 1e-15 * (1.0 + target):
        return chord
    step = 0.25 if err0 < 0.0 else -0.25
    while np.sign(offset_error(step)) == np.sign(err0):
        step *= 2.0
        if abs(step) > 1e3:
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
        if abs(nxt - tau) <= 1e-14 or hi - lo <= 1e-14:
            return chord.translated(float(nxt))
        tau = nxt
    raise DomainError("area restoration did not converge")


@dataclass(frozen=True)
class OptimizeTrace:
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
    return _moved(chord, control_x)


def _multiplier(gradient: np.ndarray, area_gradient: np.ndarray) -> tuple[float, float]:
    """Least-squares multiplier μ of the area constraint and the norm of the
    projected gradient ∇L − μ∇V, the stationarity measure of the descent."""
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


def minimize(
    density: Density, config: OptimizerConfig, chord: ChordSpline
) -> tuple[ChordSpline, OptimizeTrace]:
    """Modified Newton-KKT descent on the horizontal controls at fixed weighted area.

    Each step solves the KKT system of H_L − μH_V, the exact Lagrangian
    Hessian with μ the least-squares multiplier, on the area-tangent
    space.  Every trial step is capped at a displacement of 0.15·(b − a)
    and followed by a horizontal-translation area restoration, so the
    constraint holds exactly along the accepted trace; Armijo backtracking
    starts from the full step.  The run terminates on a small projected
    gradient, the iteration cap, or a failed line search (stalled).
    """
    chord = _restore_area(density, chord, config.target_area)
    a, b = chord.span
    rows = []
    status = "max_iterations"
    for it in range(config.max_iterations):
        gradient, area_gradient = shape_gradient(density, chord)
        mu, gnorm = _multiplier(gradient, area_gradient)
        length = weighted_length(density, chord)
        area_err = abs(enclosed_area(density, chord) - config.target_area)
        rows.append((it, length, area_err, gnorm))
        if gnorm < config.gradient_tolerance:
            status = "converged"
            break
        h_length, h_area = _second_variation(density, chord)
        step = _newton_step(h_length - mu * h_area, gradient, area_gradient)
        slope = float(np.dot(gradient, step))
        # per-step displacement cap: keeps the spline from folding
        alpha = min(1.0, 0.15 * (b - a) / max(float(np.max(np.abs(step))), 1e-30))
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            try:
                trial = _unpack(chord, chord.control_x + alpha * step)
                trial = _restore_area(density, trial, config.target_area)
            except (GeometryError, DomainError):
                alpha *= _BACKTRACK
                continue
            if weighted_length(density, trial) <= length + _ARMIJO_SLOPE * alpha * slope:
                chord = trial
                accepted = True
                break
            alpha *= _BACKTRACK
        if not accepted:
            status = "stalled"
            break
    arr = np.array(rows, dtype=float).reshape(-1, 4)
    final = stationarity_report(density, chord)
    return chord, OptimizeTrace(arr[:, 0].astype(int), *arr[:, 1:].T, status, final)


def trace_csv(trace: OptimizeTrace) -> str:
    """Serialize to CSV with header iter,length,area_err,grad_norm."""
    t = trace
    return _csv_table("iter,length,area_err,grad_norm", t.iterations, t.lengths, t.area_errors,
                      t.gradient_norms)


def chord_curve(density: Density, chord: ChordSpline) -> DiscreteCurve:
    """Resample a spline chord as a 401-node discrete curve with analytic fields.

    Nodes sit at uniform arclength, so the spacing contract of
    DiscreteCurve holds for arbitrarily bent chords.  Normals are the
    left normal N = (−t′, x′)/|γ′| and the curvature is the exact
    spline curvature k = (x′t″ − t′x″)/|γ′|³, both evaluated from the
    spline derivatives rather than node differences.
    """
    theta_dense = np.linspace(0.0, 1.0, 4097)
    speed_dense = np.hypot(*chord.position(theta_dense, 1))
    s_dense = np.concatenate(
        ([0.0], np.cumsum(0.5 * (speed_dense[1:] + speed_dense[:-1]) * np.diff(theta_dense)))
    )
    theta = np.interp(np.linspace(0.0, s_dense[-1], 401), s_dense, theta_dense)
    theta[0], theta[-1] = 0.0, 1.0
    x, t = chord.position(theta)
    dx, dt = chord.position(theta, 1)
    d2x, d2t = chord.position(theta, 2)
    speed = np.hypot(dx, dt)
    a, b = density.slab
    points = np.stack((x, np.clip(t, a, b)), axis=-1)
    normals = np.stack((-dt / speed, dx / speed), axis=-1)
    curvature = (dx * d2t - dt * d2x) / speed**3
    return DiscreteCurve(
        points=points,
        normals=normals,
        curvature=curvature,
        weights=_trapezoid_weights(density, points, closed=False),
        boundary_start=True,
        boundary_end=True,
    )
