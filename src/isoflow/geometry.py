"""Discrete curve geometry in the weighted plane.

Curves live in the closure of Ω = ℝ×(a,b) ⊂ ℝ² carrying the density
f = e^ψ with ψ(p) = ω(t) − c|p|².  This module provides the f-mean
curvature H_f = k − ⟨∇ψ, N⟩, a shooting integrator for curves of
constant H_f, the translational Jacobi identity L_f⟨η,N⟩ = 2c⟨η,N⟩,
and the second-variation form

    I_f(u,v) = ∫ u′v′ − (Ric_f(N,N) + k²) u v  da_f

whose sign on mean-zero test functions decides weighted stability.
Slab walls are totally geodesic hyperplanes, so the second fundamental
form terms on ∂Σ vanish identically here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DomainError, GeometryError
from .weights import (
    Density,
    _float_arrays,
    _Frozen,
    _gauss_legendre,
    _gaussian_tail_cutoff,
    bakry_emery_curvature,
    log_density_gradient,
)

__all__ = [
    "DiscreteCurve",
    "StabilityVerdict",
    "cmc_shoot",
    "curve_weighted_length",
    "f_mean_curvature",
    "horizontal_segment",
    "index_form",
    "jacobi_residual",
    "parallel_halfspace_stability",
    "polyline_curve",
    "straight_segment",
    "vertical_segment",
]

_BOUNDARY_TOL = 1e-9
_PARALLEL_LINE_NODES = 4001
_QUARTER_TURN = np.array([-1.0, 1.0])
# the 12-point Gauss-Legendre rule per segment: nodes as fractions of the segment, weights
_SEGMENT_LAM, _SEGMENT_GL = 0.5 * (_gauss_legendre(12)[0] + 1.0), _gauss_legendre(12)[1]


def _rot90(v: np.ndarray) -> np.ndarray:
    """Counterclockwise quarter turn, (x, t) ↦ (−t, x), in one product."""
    return v[..., ::-1] * _QUARTER_TURN


def _segment_lengths(points: np.ndarray, closed: bool) -> np.ndarray:
    d = points[1:] - points[:-1]
    ell = np.hypot(d[:, 0], d[:, 1])
    if closed:
        gap = points[0] - points[-1]
        ell = np.append(ell, math.hypot(gap[0], gap[1]))
    return ell


class DiscreteCurve(_Frozen):
    """Polyline with unit normals and curvature; geometry only, no density.

    points:    (m, 2) ordered nodes (x_i, t_i).
    normals:   (m, 2) unit normals, consistently oriented toward the
               enclosed side E.
    curvature: (m,) signed curvature k_i with respect to the stored
               normal (k = dθ/ds when N is the left normal).
    closed:    the last node connects back to the first.

    Whether an end sits on a slab wall is a fact of the slab, not of the
    curve: jacobi_residual reads it from the density.
    """

    def __init__(self, points, normals, curvature, closed: bool = False):
        pts, nrm = _float_arrays(self, np.atleast_2d, points=points, normals=normals)
        (cur,) = _float_arrays(self, np.atleast_1d, curvature=curvature)
        vars(self).update(closed=closed)
        m = pts.shape[0]
        if m < 3:
            raise GeometryError("curve needs at least 3 nodes")
        if pts.shape != (m, 2) or nrm.shape != (m, 2):
            raise GeometryError("points and normals must have shape (m, 2)")
        if cur.shape != (m,):
            raise GeometryError("curvature must have shape (m,)")
        if not (np.isfinite(pts).all() and np.isfinite(nrm).all()):
            raise GeometryError("curve data must be finite")
        norms = np.hypot(nrm[:, 0], nrm[:, 1])
        if np.abs(norms - 1.0).max() > 1e-9:
            raise GeometryError("normals must be unit vectors")
        ell = _segment_lengths(pts, closed)
        shortest, longest = ell.min(), ell.max()
        if shortest <= 0.0:
            raise GeometryError("consecutive nodes must be distinct")
        nominal = float(ell.mean())
        if longest > 2.2 * nominal or shortest < nominal / 2.2:
            raise GeometryError("arclength spacing drifts beyond [h/2.2, 2.2h]")
        # normals orthogonal to the discrete tangent up to O(h²): |chord·N| <= 0.05 |chord|
        chord = pts[2:] - pts[:-2]
        skew = np.abs(chord[:, 0] * nrm[1:-1, 0] + chord[:, 1] * nrm[1:-1, 1])
        if (skew > 0.05 * np.hypot(chord[:, 0], chord[:, 1])).any():
            raise GeometryError("normals are not orthogonal to the curve")

    @property
    def n_nodes(self) -> int:
        return self.points.shape[0]

    def arclength(self) -> np.ndarray:
        """Cumulative chord length at the nodes, starting at 0."""
        ell = _segment_lengths(self.points, closed=False)
        return np.concatenate(([0.0], np.cumsum(ell)))


def _unit_tangents(points: np.ndarray, closed: bool) -> np.ndarray:
    """Centered differences, one-sided over chord length at open ends (_end_slopes), normalized."""
    d = np.empty_like(points)
    d[1:-1] = points[2:] - points[:-2]
    if closed:
        d[0], d[-1] = points[1] - points[-1], points[0] - points[-2]
    else:  # in Python floats: a few scalars, where numpy's per-call cost dominates
        x, y = points[[0, 1, 2, -3, -2, -1]].T.tolist()
        h = [math.hypot(x[i + 1] - x[i], y[i + 1] - y[i]) for i in (0, 1, 3, 4)]
        d[0], d[-1] = zip(_end_slopes(x, h), _end_slopes(y, h))
    return d / np.hypot(d[:, 0], d[:, 1])[:, None]


def _end_slopes(f, ds) -> tuple:
    """np.gradient's edge_order=2 end values over unequal steps ds, read from the ends of f and ds."""
    h1, h2, g1, g2 = ds[0], ds[1], ds[-2], ds[-1]
    return (-(2.0 * h1 + h2) / (h1 * (h1 + h2)) * f[0] + (h1 + h2) / (h1 * h2) * f[1]
            - h1 / (h2 * (h1 + h2)) * f[2],
            g2 / (g1 * (g1 + g2)) * f[-3] - (g2 + g1) / (g1 * g2) * f[-2]
            + (2.0 * g2 + g1) / (g2 * (g1 + g2)) * f[-1])


def _trapezoid_weights(density: Density, curve: DiscreteCurve) -> tuple[np.ndarray, np.ndarray]:
    """The trapezoidal da_f measure of the curve under density: node masses,
    f at each node times half its adjacent segment lengths, and segment
    conductances ½(f_i + f_{i+1})/ℓ_i, the closing segment of a closed
    curve included."""
    f = np.exp(density.psi(*curve.points.T))
    ell = _segment_lengths(curve.points, curve.closed)
    half, f_next = 0.5 * ell, np.roll(f, -1)[: ell.size]
    mass = half + np.roll(half, 1) if curve.closed else np.append(half, 0.0) + np.insert(half, 0, 0.0)
    return mass * f, 0.5 * (f[: ell.size] + f_next) / ell


def _slope(theta: np.ndarray, s: np.ndarray) -> np.ndarray:
    """np.gradient(theta, s, edge_order=2) by its own operations for unequal steps:
    second-order differences inside and one-sided at the ends, on equal steps too."""
    ds = s[1:] - s[:-1]
    h1, h2 = ds[:-1], ds[1:]
    k = np.empty(theta.shape)
    k[1:-1] = (-h2 / (h1 * (h1 + h2)) * theta[:-2] + (h2 - h1) / (h1 * h2) * theta[1:-1]
               + h1 / (h2 * (h1 + h2)) * theta[2:])
    k[0], k[-1] = _end_slopes(theta, ds)
    return k


def _check_in_slab(density: Density, points: np.ndarray) -> None:
    a, b = density.slab
    lowest, highest = points[:, 1].min(), points[:, 1].max()
    # a non-finite height lies in no slab, but would pass the scaled test below
    if not (math.isfinite(lowest) and math.isfinite(highest)):
        raise DomainError("curve exits the slab")
    if not np.isfinite(points[:, 0]).all():  # refused before the callers' arithmetic warns
        raise GeometryError("curve data must be finite")
    scale = 1.0 + max(abs(lowest), abs(highest))
    if lowest < a - _BOUNDARY_TOL * scale or highest > b + _BOUNDARY_TOL * scale:
        raise DomainError("curve exits the slab")


def straight_segment(density: Density, p0, p1, n: int = 201) -> DiscreteCurve:
    """Uniformly sampled straight segment with the left normal of travel,
    N = rot90(T): the enclosed side lies to the left of the direction of travel."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if n < 3:
        raise GeometryError("need at least 3 nodes")
    # the ends bound every node to rounding, and are checked before inf - inf can warn
    _check_in_slab(density, np.stack((p0, p1)))
    lam = np.linspace(0.0, 1.0, n)
    points = p0 + lam[:, None] * (p1 - p0)
    chord = p1 - p0
    length = math.hypot(chord[0], chord[1])
    if length <= 0.0:
        raise GeometryError("segment endpoints coincide")
    tangent = chord / length
    normal = _rot90(tangent)
    return DiscreteCurve(points=points, normals=np.broadcast_to(normal, (n, 2)), curvature=np.zeros(n))


def vertical_segment(density: Density, x0: float, n: int = 201) -> DiscreteCurve:
    """Vertical chord x = x0 crossing the full slab, N = (−1, 0)."""
    a, b = density.slab
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("vertical chord needs a bounded slab")
    return straight_segment(density, (x0, a), (x0, b), n=n)


def horizontal_segment(density: Density, t0: float, n: int = 2001) -> DiscreteCurve:
    """Horizontal line t = t0 truncated where e^{−cx²} is negligible, N = (0, 1)."""
    a, b = density.slab
    if not (a <= t0 <= b):
        raise DomainError("horizontal line must sit inside the slab")
    half_width = _gaussian_tail_cutoff(density.c, 0.0, 0.0, 1e-18)
    return straight_segment(density, (-half_width, t0), (half_width, t0), n=n)


def polyline_curve(density: Density, points, closed: bool = False) -> DiscreteCurve:
    """General curve from ordered nodes; normals and curvature by differences.

    Tangents use centered differences, normals are rot90(T), and k = dθ/ds
    from the unwrapped tangent angle, one-sided at the ends of an open
    curve; every stencil is second order, so both carry O(h²) error, and on
    a closed curve the seam nodes take the centered stencils across the
    closing segment.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 3:
        raise GeometryError("curve needs at least 3 nodes")
    _check_in_slab(density, points)
    ell = _segment_lengths(points, closed)
    if ell.min() <= 0.0:  # before the tangents, where 0/0 warns
        raise GeometryError("consecutive nodes must be distinct")
    tangents = _unit_tangents(points, closed)
    normals = _rot90(tangents)
    theta = np.arctan2(tangents[:, 1], tangents[:, 0])
    s = np.concatenate(([0.0], np.cumsum(ell[: points.shape[0] - 1])))
    if closed:  # continue θ and s one node across the closing segment
        theta = np.concatenate((theta[-1:], theta, theta[:1]))
        s = np.concatenate(([-ell[-1]], s, [s[-1] + ell[-1]]))
    if (np.abs(theta[1:] - theta[:-1]) < math.pi).all():
        theta[1:] += 0.0  # np.unwrap's bits, signed zeros included, when nothing wraps
    else:
        theta = np.unwrap(theta)
    k = _slope(theta, s)[1:-1] if closed else _slope(theta, s)
    return DiscreteCurve(points=points, normals=normals, curvature=k, closed=closed)


def f_mean_curvature(density: Density, curve: DiscreteCurve) -> np.ndarray:
    """H_f = k − ⟨∇ψ, N⟩ at every node."""
    grad = log_density_gradient(density, curve.points)
    return curve.curvature - np.sum(grad * curve.normals, axis=-1)


def _polyline_weighted_length(density: Density, pts: np.ndarray) -> float:
    """∫ f dℓ along the polyline through pts, 12-point Gauss-Legendre per segment."""
    p0 = pts[:-1]
    seg = pts[1:] - p0
    ell = np.hypot(seg[:, 0], seg[:, 1])
    # the (12, m - 1) nodes per axis, each built in place along the segments
    px, pt = _SEGMENT_LAM[:, None] * seg[:, 0], _SEGMENT_LAM[:, None] * seg[:, 1]
    px += p0[:, 0]
    pt += p0[:, 1]
    f = density.psi(px, pt)
    np.exp(f, out=f)
    # each segment's rule as the matrix-vector product of the (m - 1, 12) layout
    return float((0.5 * ell * (f.T.copy() @ _SEGMENT_GL)).sum())


def curve_weighted_length(density: Density, curve: DiscreteCurve) -> float:
    """P_f of the polyline: per-segment Gauss-Legendre quadrature of f.

    Exact for the polyline itself up to the quadrature order, so straight
    chords incur no discretization error beyond the GL remainder.
    """
    pts = curve.points
    if curve.closed:
        pts = np.vstack([pts, pts[:1]])
    return _polyline_weighted_length(density, pts)


# ---------------------------------------------------------------------------
# constant f-mean-curvature shooting


def _rk4_step(deriv, c2: float, target: float, state: tuple, h: float, domain: tuple) -> tuple:
    """One classical RK4 step of the state (x, t, θ) in Python floats, with
    θ′ = target + ⟨∇ψ, N(θ)⟩ = target + c2·x·sin θ + (ω′(t) − c2·t)·cos θ,
    c2 = 2c and deriv = ω′ called once per stage on the scalar t, clamped
    to the weight's domain when that is bounded, so a step crossing a wall
    where the domain ends can still be shortened onto it.  The four stages
    are written out."""
    lo, hi = domain
    slope = deriv if lo == -math.inf and hi == math.inf else lambda s: deriv(min(max(s, lo), hi))
    x, t, a = state
    half = 0.5 * h
    cos1, sin1 = math.cos(a), math.sin(a)
    k1 = target + (c2 * x * sin1 + (slope(t) - c2 * t) * cos1)
    x2, t2, a2 = x + half * cos1, t + half * sin1, a + half * k1
    cos2, sin2 = math.cos(a2), math.sin(a2)
    k2 = target + (c2 * x2 * sin2 + (slope(t2) - c2 * t2) * cos2)
    x3, t3, a3 = x + half * cos2, t + half * sin2, a + half * k2
    cos3, sin3 = math.cos(a3), math.sin(a3)
    k3 = target + (c2 * x3 * sin3 + (slope(t3) - c2 * t3) * cos3)
    x4, t4, a4 = x + h * cos3, t + h * sin3, a + h * k3
    cos4, sin4 = math.cos(a4), math.sin(a4)
    k4 = target + (c2 * x4 * sin4 + (slope(t4) - c2 * t4) * cos4)
    sixth = h / 6.0
    return (x + sixth * (cos1 + 2.0 * cos2 + 2.0 * cos3 + cos4),
            t + sixth * (sin1 + 2.0 * sin2 + 2.0 * sin3 + sin4),
            a + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def cmc_shoot(
    density: Density,
    target: float,
    start,
    angle: float,
    step: float = 1e-3,
    max_length: float = 2.0,
) -> DiscreteCurve:
    """Integrate the curve with prescribed H_f from a point and direction.

    The tangent angle obeys θ′ = k(p, θ) = target + ⟨∇ψ(p), N(θ)⟩ with
    N(θ) = (−sin θ, cos θ), integrated by classical RK4 at fixed
    arclength step.  The march stops at max_length or on reaching a slab
    wall, in which case the final step is shortened by bisection so that
    the last node's height is the wall's, exactly.
    """
    a, b = density.slab
    x0, t0 = float(start[0]), float(start[1])
    if not (a < t0 < b):
        raise DomainError("shooting must start strictly inside the slab")
    if not (math.isfinite(step) and math.isfinite(max_length) and 0.0 < step < max_length):
        raise DomainError("need finite 0 < step < max_length")
    n_steps = int(round(max_length / step))
    if not 2 <= n_steps <= 5_000_000:  # one step lays 2 nodes, and a curve needs 3
        raise DomainError(f"max_length {max_length!r} must span 2 to 5e6 steps of {step!r}")

    deriv, c2, target = density.weight.deriv, 2.0 * density.c, float(target)
    domain = density.weight.domain
    states = [(x0, t0, float(angle))]
    for _ in range(n_steps):
        nxt = _rk4_step(deriv, c2, target, states[-1], step, domain)
        if a < nxt[1] < b:
            states.append(nxt)
            continue
        # shorten the final step to land on the wall; if the landing
        # fraction is below 1/2, restart it from the previous node so the
        # last segment stays within the [h/2.2, 2.2h] spacing contract
        wall = a if nxt[1] <= a else b

        def landing(base: tuple, lo: float, hi: float) -> float:
            """Step fraction in [lo, hi] from base that lands on the wall, by bisection."""
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:  # adjacent floats: no probe moves the bracket
                    break
                tm = _rk4_step(deriv, c2, target, base, mid * step, domain)[1]
                if (tm - wall) * (base[1] - wall) > 0.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        base = states[-1]
        frac = landing(base, 0.0, 1.0)
        if frac < 0.5 and len(states) >= 2:
            states.pop()
            base = states[-1]
            frac = landing(base, 1.0, 2.0)
        landed = _rk4_step(deriv, c2, target, base, frac * step, domain)
        states.append((landed[0], wall, landed[2]))
        break

    if len(states) < 3:
        raise GeometryError("curve left the slab before 3 nodes were laid down")
    arr = np.array(states)
    points, theta = arr[:, :2], arr[:, 2]
    normals = np.stack((-np.sin(theta), np.cos(theta)), axis=-1)
    grad = log_density_gradient(density, points)
    k = target + np.sum(grad * normals, axis=-1)
    return DiscreteCurve(points=points, normals=normals, curvature=k)


# ---------------------------------------------------------------------------
# Jacobi identity and index forms


def _cubic_slope(s: np.ndarray, u: np.ndarray, at: int) -> float:
    """u′ at s[at] from the cubic through four nodes (s_i, u_i), by Newton's
    divided differences; third order on any spacing."""
    first = np.diff(u) / np.diff(s)
    second = np.diff(first) / (s[2:] - s[:-2])
    third = (second[1] - second[0]) / (s[3] - s[0])
    r0, r1, r2 = s[at] - s[:3]
    return float(first[0] + second[0] * (r0 + r1) + third * (r1 * r2 + r0 * r2 + r0 * r1))


def _frenet_derivatives(density: Density, curve: DiscreteCurve, s: np.ndarray, node: int,
                        window: slice) -> tuple:
    """(h′, h″, ⟨∇ψ, T⟩) for h = N_x at one node from N′ = −kT: h′ = −kT_x
    and h″ = −k′T_x − k²h, T the unit tangent of travel (a quarter turn of
    the stored normal) and k′ the slope of the cubic through the four nodes
    of window."""
    normal, k = curve.normals[node], float(curve.curvature[node])
    tangent = np.array([normal[1], -normal[0]])
    if np.dot(tangent, curve.points[node + 1] - curve.points[node - 1]) < 0.0:
        tangent = -tangent
    dk = _cubic_slope(s[window], curve.curvature[window], node - window.start)
    t_x, h = float(tangent[0]), float(normal[0])
    psi_t = float(log_density_gradient(density, curve.points[node]) @ tangent)
    return -k * t_x, -dk * t_x - k * k * h, psi_t


def jacobi_residual(density: Density, curve: DiscreteCurve) -> float:
    """Max interior residual of L_f h = 2c h for h = ⟨e_x, N⟩ = N_x.

    Horizontal translations preserve the weight up to the Gaussian
    factor, which makes h an eigenfunction of the Jacobi operator
    L_f = Δ_{Σ,f} + Ric_f(N,N) + k² with eigenvalue 2c on curves of
    constant f-mean curvature.  Derivatives of h use second-order
    differences in arclength, so the residual decays like O(h²).  Next
    to an end on a wall, where shooting shortens the last segment, those
    differences and the centered tangent are only O(h) on the uneven
    spacing; there the derivatives come from the Frenet relation instead
    (_frenet_derivatives), third order in the spacing.  An end is on a
    wall when its height equals a finite slab end exactly, the height
    cmc_shoot lands on.  In the plane ±e_x give the same |residual|.
    """
    hf = f_mean_curvature(density, curve)
    spread = float(np.max(hf) - np.min(hf))
    if spread > 1e-6 * (1.0 + float(np.max(np.abs(hf)))):
        raise ConsistencyError(
            f"curve does not have constant f-mean curvature (spread {spread:.3e})"
        )
    s = curve.arclength()
    h = curve.normals[:, 0]
    # second-order stencils on a possibly nonuniform grid
    s0, s1, s2 = s[:-2], s[1:-1], s[2:]
    h0, h1, h2 = h[:-2], h[1:-1], h[2:]
    dl, dr = s1 - s0, s2 - s1
    dh = (h2 - h1) / dr * (dl / (dl + dr)) + (h1 - h0) / dl * (dr / (dl + dr))
    d2h = 2.0 * ((h2 - h1) / dr - (h1 - h0) / dl) / (dl + dr)
    tangents = _unit_tangents(curve.points, curve.closed)
    psi_t = np.sum(log_density_gradient(density, curve.points) * tangents, axis=-1)[1:-1]
    n = curve.n_nodes
    for end, node, window in ((0, 1, slice(0, 4)), (n - 1, n - 2, slice(n - 4, n))):
        if curve.points[end, 1] in density.slab and n >= 4:
            dh[node - 1], d2h[node - 1], psi_t[node - 1] = _frenet_derivatives(
                density, curve, s, node, window)
    ric = bakry_emery_curvature(density, curve.points[1:-1], curve.normals[1:-1])
    k = curve.curvature[1:-1]
    residual = d2h + psi_t * dh + (ric + k * k) * h1 - 2.0 * density.c * h1
    return float(np.max(np.abs(residual)))


def index_form(density: Density, curve: DiscreteCurve, u) -> float:
    """I_f(u,u) = ∫ u′² − (Ric_f(N,N) + k²) u²  da_f.

    The measure da_f is density's (_trapezoid_weights): the Dirichlet part
    is Σ (Δu)²/ℓ · ½(f_i + f_{i+1}) over the segments, and the potential
    part is trapezoidal in the node masses.  Only constants annul the
    Dirichlet part, as with the spectral pencil's conductances; centered
    differences would nearly annul an alternating u.  Slab walls are
    totally geodesic, so the boundary contribution is identically zero.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (curve.n_nodes,):
        raise GeometryError("test functions must be sampled at the curve nodes")
    mass, conductance = _trapezoid_weights(density, curve)
    du = np.diff(u, append=u[:1]) if curve.closed else np.diff(u)
    ric = bakry_emery_curvature(density, curve.points, curve.normals)
    return float(np.sum(du * du * conductance) - np.sum((ric + curve.curvature**2) * u * u * mass))


class StabilityVerdict(NamedTuple):
    """Stability of a boundary-parallel half-space at height t0."""

    verdict: str
    weight_second_derivative: float
    witness_value: float


def parallel_halfspace_stability(density: Density, t0: float) -> StabilityVerdict:
    """Classify {t < t0} by the sign of ω″(t0), with an index-form witness.

    The half-space is weighted stable iff ω″(t0) ≥ 0.  The witness is
    I_f(u,u) for the coordinate function u = x on the horizontal line
    t = t0 of _PARALLEL_LINE_NODES nodes, whose exact value is
    ω″(t0) e^{ω(t0)−c t0²} √(π/c) / (2c): the Gaussian Poincaré part of
    the form vanishes identically on coordinate functions, leaving the pure
    ω″ moment.
    """
    a, b = density.slab
    if not (a < t0 < b):
        raise DomainError("parallel boundary must sit strictly inside the slab")
    d2 = float(np.asarray(density.weight.deriv2(t0)))
    line = horizontal_segment(density, t0, n=_PARALLEL_LINE_NODES)
    witness = index_form(density, line, line.points[:, 0])
    return StabilityVerdict(
        verdict="stable" if d2 >= 0.0 else "unstable",
        weight_second_derivative=d2,
        witness_value=witness,
    )
