"""Constrained chord optimization: weighted length at fixed weighted area.

A chord is a cubic spline crossing the slab from the bottom wall t = a
to the top wall t = b; the region E is everything to its left inside Ω.
The optimizer performs projected gradient descent on the spline control
points, using the first-variation formula for weighted length,

    δP_f = −∫ H_f ⟨W, N⟩ da_f + [f ⟨T, W⟩] at the wall endpoints,

so stationary chords have constant f-mean curvature and meet the walls
orthogonally.  The area constraint is restored after every trial step
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
# budget, and the first iteration's step before Barzilai-Borwein scaling
_ARMIJO_SLOPE = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 40
_INITIAL_STEP = 0.5


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


def _segments_intersect(p: np.ndarray) -> bool:
    """Any non-adjacent pair of polyline segments crossing?  Vectorized."""
    a = p[:-1]
    d = np.diff(p, axis=0)
    n = d.shape[0]
    if n < 3:
        return False
    cross = lambda u, v: u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    denom = cross(d[:, None, :], d[None, :, :])
    rel = a[None, :, :] - a[:, None, :]
    s = cross(rel, d[None, :, :])
    t = cross(rel, d[:, None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        s = s / denom
        t = t / denom
    hit = (s > 1e-12) & (s < 1.0 - 1e-12) & (t > 1e-12) & (t < 1.0 - 1e-12)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    hit &= j > i + 1
    return bool(np.any(hit))


@dataclass(frozen=True)
class ChordSpline:
    """Cubic-spline chord from the bottom wall to the top wall.

    control_x, control_t: control values at uniform parameter knots in
    [0, 1].  The endpoints are pinned to the walls: t(0) = a, t(1) = b.
    In graph mode the vertical profile is frozen to the linear ramp and
    only horizontal controls move, so the curve stays a graph over t.
    The enclosed region E is the part of the slab left of the curve.
    """

    control_x: np.ndarray
    control_t: np.ndarray
    span: tuple[float, float]
    graph: bool = True

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
        if self.graph:
            ramp = a + (b - a) * self.knots
            if np.max(np.abs(ct - ramp)) > 1e-12 * (1.0 + abs(b - a)):
                raise GeometryError("graph chords must keep the linear vertical ramp")
        else:
            if np.any(ct < a - 1e-12) or np.any(ct > b + 1e-12):
                raise GeometryError("vertical controls must stay inside the slab")
            pts = np.stack(self.position(np.linspace(0.0, 1.0, 200)), axis=-1)
            if _segments_intersect(pts):
                raise GeometryError("chord must be simple (no self-intersections)")

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
    shares the vertical node fields: every chord of a graph descent, and
    every translate of a chord, evaluates them once."""
    moved = ChordSpline(control_x, chord.control_t, chord.span, chord.graph)
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
    """V_f(E) for E left of the chord, by the flux form of the area,
    exact for any simple chord whether or not it is a graph."""
    return _chord_fields(density, chord).area


def shape_gradient(density: Density, chord: ChordSpline):
    """(dP/dx_j, dV/dx_j[, dP/dt_j, dV/dt_j]) from the first variation.

    Moving control j horizontally deforms the chord by W = B_j e_x, so

        dP/dx_j = ∫ H_f B_j f t′ dθ + wall terms f T_x B_j at θ = 0, 1
        dV/dx_j = ∫ B_j f t′ dθ

    with H_f = k − ⟨∇ψ, N⟩ evaluated analytically from the spline.  In
    parametric mode the vertical analogue (W = B_j e_t, interior j) is
    returned as well; graph chords return zero vertical gradients.
    """
    fields = _chord_fields(density, chord)
    qw, dx, dt, f = fields.qw, fields.dx, fields.dt, fields.f
    hf = _f_mean_curvature(density, chord)
    basis = _operator(chord.n_controls).value.T
    dp_x = basis @ (qw * hf * f * dt)
    dv_x = basis @ (qw * f * dt)
    # wall sliding terms: the endpoint controls move the contact point
    # along the wall, contributing f ⟨T, e_x⟩ with outward sign
    f_ends = np.exp(log_density(density, chord.controls[[0, -1]]))
    tang = _operator(chord.n_controls).ends @ chord.controls  # γ′(0), γ′(1)
    tang /= np.hypot(tang[:, 0], tang[:, 1])[:, None]
    dp_x[0] += -f_ends[0] * tang[0, 0]
    dp_x[-1] += f_ends[1] * tang[1, 0]
    dp_t, dv_t = np.zeros_like(dp_x), np.zeros_like(dv_x)
    if not chord.graph:  # interior vertical controls; the end ones stay on the walls
        dp_t[1:-1] = basis[1:-1] @ (-qw * hf * f * dx)
        dv_t[1:-1] = basis[1:-1] @ (-qw * f * dx)
    return dp_x, dv_x, dp_t, dv_t


@dataclass(frozen=True)
class OptimizerConfig:
    """Projected-gradient settings for the fixed-area length descent."""

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


def _smoothed(
    density: Density,
    config: "OptimizerConfig",
    trial: ChordSpline,
    base_length: float,
    alpha: float,
    gnorm: float,
) -> ChordSpline:
    """Arclength-resample an accepted parametric step when that keeps
    at least half the Armijo decrease; otherwise keep the raw step."""
    try:
        smooth = _restore_area(density, _resample(trial), config.target_area)
    except (GeometryError, DomainError):
        return trial
    slack = 0.5 * _ARMIJO_SLOPE * alpha * gnorm * gnorm
    if weighted_length(density, smooth) <= base_length - slack:
        return smooth
    return trial


def _resample(chord: ChordSpline) -> ChordSpline:
    """Redistribute the knots uniformly by arclength.

    Control points of a free parametric spline drift tangentially under
    gradient descent, which clusters knots and kinks the curve; pulling
    the same geometric curve back onto arclength-uniform knots removes
    the drift without (to interpolation accuracy) changing the shape.
    """
    theta = np.linspace(0.0, 1.0, 800)
    x, t = chord.position(theta)
    seg = np.hypot(np.diff(x), np.diff(t))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] <= 0.0:
        raise GeometryError("cannot resample a degenerate chord")
    targets = np.linspace(0.0, s[-1], chord.n_controls)
    theta_new = np.interp(targets, s, theta)
    x_new, t_new = chord.position(theta_new)
    a, b = chord.span
    t_new = np.clip(t_new, a, b)
    t_new[0], t_new[-1] = a, b
    return ChordSpline(x_new, t_new, chord.span, graph=False)


@dataclass(frozen=True)
class OptimizeTrace:
    """Per-iteration history of the constrained descent."""

    iterations: np.ndarray
    lengths: np.ndarray
    area_errors: np.ndarray
    gradient_norms: np.ndarray
    status: str
    final: StationarityReport


def _pack(chord: ChordSpline) -> np.ndarray:
    if chord.graph:
        return chord.control_x.copy()
    return np.concatenate([chord.control_x, chord.control_t[1:-1]])


def _unpack(chord: ChordSpline, params: np.ndarray) -> ChordSpline:
    """Inverse of _pack; the vertical controls are clipped to the slab (box feasibility)."""
    m = chord.n_controls
    if chord.graph:
        return _moved(chord, params.copy())
    ct = chord.control_t.copy()
    ct[1:-1] = np.clip(params[m:], *chord.span)
    return ChordSpline(params[:m].copy(), ct, chord.span, graph=False)


def _projected_direction(chord: ChordSpline, grads) -> tuple[np.ndarray, float]:
    """Area-tangential descent direction and its stationarity norm.

    The length gradient is projected off the area gradient, then
    components that would push a wall-pinned vertical control out of
    the slab are masked (active box constraints satisfy the first-order
    conditions, so they do not count toward the gradient norm).
    """
    dp_x, dv_x, dp_t, dv_t = grads
    if chord.graph:
        gp, gv = dp_x, dv_x
    else:
        gp = np.concatenate([dp_x, dp_t[1:-1]])
        gv = np.concatenate([dv_x, dv_t[1:-1]])
    gv_norm2 = float(np.dot(gv, gv))
    if gv_norm2 <= 0.0:
        raise DomainError("area gradient vanished; constraint not controllable")
    direction = -(gp - (float(np.dot(gp, gv)) / gv_norm2) * gv)
    if not chord.graph:
        a, b = chord.span
        ti = chord.control_t[1:-1]
        d_t = direction[chord.n_controls:]
        tol = 1e-12 * (1.0 + abs(b - a))
        d_t[(ti <= a + tol) & (d_t < 0.0)] = 0.0
        d_t[(ti >= b - tol) & (d_t > 0.0)] = 0.0
    return direction, float(np.linalg.norm(direction))


def minimize(
    density: Density, config: OptimizerConfig, chord: ChordSpline
) -> tuple[ChordSpline, OptimizeTrace]:
    """Projected-gradient descent on control points at fixed weighted area.

    Every trial step is followed by a horizontal-translation area
    restoration, so the constraint holds exactly along the accepted
    trace.  Steps are Barzilai-Borwein scaled with Armijo backtracking;
    the run terminates on a small projected gradient, the iteration cap,
    or a failed line search (stalled).
    """
    chord = _restore_area(density, chord, config.target_area)
    rows = []
    status = "max_iterations"
    prev_params = None
    prev_grad = None
    for it in range(config.max_iterations):
        direction, gnorm = _projected_direction(chord, shape_gradient(density, chord))
        length = weighted_length(density, chord)
        area_err = abs(enclosed_area(density, chord) - config.target_area)
        rows.append((it, length, area_err, gnorm))
        if gnorm < config.gradient_tolerance:
            status = "converged"
            break
        params = _pack(chord)
        if prev_params is not None:
            s = params - prev_params
            y = -direction - prev_grad
            sy = float(np.dot(s, y))
            step = float(np.dot(s, s)) / sy if sy > 1e-30 else _INITIAL_STEP
            step = min(max(step, 1e-6), 10.0)
        else:
            step = _INITIAL_STEP / max(gnorm, 1.0)
        # per-step displacement cap: keeps the spline from folding
        a, b = chord.span
        max_move = 0.15 * (b - a) / max(float(np.max(np.abs(direction))), 1e-30)
        step = min(step, max_move)
        prev_params, prev_grad = params, -direction
        accepted = False
        alpha = step
        for _ in range(_MAX_BACKTRACKS):
            try:
                trial = _unpack(chord, params + alpha * direction)
                trial = _restore_area(density, trial, config.target_area)
            except (GeometryError, DomainError):
                alpha *= _BACKTRACK
                continue
            if weighted_length(density, trial) <= length - _ARMIJO_SLOPE * alpha * gnorm * gnorm:
                if not chord.graph:
                    trial = _smoothed(density, config, trial, length, alpha, gnorm)
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
