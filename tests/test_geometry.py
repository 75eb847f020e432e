"""Curve geometry: f-mean curvature, shooting, Jacobi identity, index forms."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import CubicSpline
from scipy.special import erf

from isoflow import (
    AffineWeight,
    ConsistencyError,
    Density,
    DomainError,
    GeometryError,
    PiecewiseLinearWeight,
    QuadraticWeight,
    SmoothnessError,
    ZeroWeight,
)
import isoflow.geometry as geometry
from isoflow.geometry import (
    DiscreteCurve,
    cmc_shoot,
    curve_csv,
    curve_weighted_length,
    f_mean_curvature,
    horizontal_segment,
    index_form,
    jacobi_residual,
    parallel_halfspace_stability,
    polyline_curve,
    straight_segment,
    vertical_segment,
)
from isoflow.geometry import _tangential_gradient_log_density, _trapezoid_weights
from isoflow.weights import (
    LogPowerWeight,
    _gauss_legendre,
    bakry_emery_curvature,
    log_density,
    log_density_gradient,
)

INF = math.inf

GAUSS_PLANE = Density(ZeroWeight(), 0.5, 2, (-INF, INF))
UNIT_SLAB = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
QUAD_SLAB = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-1.0, 1.0))


def gaussian_mass(c: float, lo: float, hi: float) -> float:
    r = math.sqrt(c)
    return math.sqrt(math.pi / c) / 2.0 * (erf(r * hi) - erf(r * lo))


def unit_circle(density, n=628, radius=1.0, center=(0.0, 0.0)):
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = np.stack(
        [center[0] + radius * np.cos(th), center[1] + radius * np.sin(th)], axis=-1
    )
    return polyline_curve(density, pts, closed=True)


def q_form(density, curve, u):
    """Oracle for index_form: Q_f(u,u) = −∫ u L_f(u) da_f − Σ_{∂Σ} u (∂u/∂ν) f.

    L_f(u) = u″ + ⟨∇ψ, T⟩ u′ + (Ric_f(N,N) + k²) u along the curve; ν is
    the outward conormal and the boundary measure is f at the endpoint.
    Integrating by parts, it equals I_f(u,u) up to O(h²) for smooth u.
    u′ and u″ come from scipy's cubic spline in arclength (periodic on a
    closed curve) and da_f from the trapezoid rule, so the oracle shares
    no code with index_form.  Returns (value, boundary term).
    """
    m, s = curve.n_nodes, curve.arclength()
    if curve.closed:
        gap = curve.points[0] - curve.points[-1]
        s = np.append(s, s[-1] + math.hypot(gap[0], gap[1]))
        spline = CubicSpline(s, np.append(u, u[0]), bc_type="periodic")
    else:
        spline = CubicSpline(s, u)
    half = 0.5 * np.diff(s)
    w = half + np.roll(half, 1) if curve.closed else np.append(half, 0.0) + np.insert(half, 0, 0.0)
    w = w * np.exp(log_density(density, curve.points))
    du, d2u = spline(s[:m], 1), spline(s[:m], 2)
    psi_t = _tangential_gradient_log_density(density, curve)
    ric = bakry_emery_curvature(density, curve.points, curve.normals)
    lf_u = d2u + psi_t * du + (ric + curve.curvature**2) * u
    boundary = 0.0
    if not curve.closed:
        f_ends = np.exp(log_density(density, curve.points[[0, -1]]))
        boundary = -(u[0] * (-du[0]) * f_ends[0] + u[-1] * du[-1] * f_ends[1])
    return -float(np.sum(u * lf_u * w)) + boundary, boundary


def _shoot_rhs(density, target, state):
    """Oracle for cmc_shoot's right-hand side: (cos θ, sin θ, target + ⟨∇ψ, N(θ)⟩)
    assembled from numpy arrays and log_density_gradient."""
    x, t, theta = state
    normal = np.array([-math.sin(theta), math.cos(theta)])
    grad = log_density_gradient(density, np.array([x, t]))
    return np.array([math.cos(theta), math.sin(theta), target + float(np.dot(grad, normal))])


def _array_rk4_step(density, target, state, h):
    k1 = _shoot_rhs(density, target, state)
    k2 = _shoot_rhs(density, target, state + 0.5 * h * k1)
    k3 = _shoot_rhs(density, target, state + 0.5 * h * k2)
    k4 = _shoot_rhs(density, target, state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def on_wall(density, curve) -> tuple[bool, bool]:
    """Whether each end's height equals a finite slab end exactly, the rule
    jacobi_residual applies."""
    return curve.points[0, 1] in density.slab, curve.points[-1, 1] in density.slab


def reference_march(advance, slab, start, angle, step, max_length):
    """cmc_shoot's march with a full 80-probe wall-landing bisection.

    advance(state, h) is one RK4 step of the state (x, t, θ).  Returns the
    (n, 3) states, whether the last node landed on a wall and whether the
    landing restarted from the previous node (landing fraction below 1/2).
    """
    a, b = slab
    states = [np.array([start[0], start[1], angle], dtype=float)]
    for _ in range(int(round(max_length / step))):
        nxt = np.array(advance(states[-1], step))
        if a < nxt[1] < b:
            states.append(nxt)
            continue
        wall = a if nxt[1] <= a else b

        def landing(base, lo, hi):
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if (advance(base, mid * step)[1] - wall) * (base[1] - wall) > 0.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        frac = landing(states[-1], 0.0, 1.0)
        restarted = frac < 0.5 and len(states) >= 2
        if restarted:
            states.pop()
            frac = landing(states[-1], 1.0, 2.0)
        landed = np.array(advance(states[-1], frac * step))
        landed[1] = wall
        return np.array(states + [landed]), True, restarted
    return np.array(states), False, False


class TestDiscreteCurve:
    def test_validation_rejects_bad_normals(self):
        pts = np.stack([np.linspace(0, 1, 11), np.full(11, 0.5)], axis=-1)
        with pytest.raises(GeometryError):
            DiscreteCurve(
                points=pts,
                normals=np.tile([0.0, 2.0], (11, 1)),
                curvature=np.zeros(11),
            )

    def test_validation_rejects_skewed_normals(self):
        pts = np.stack([np.linspace(0, 1, 11), np.full(11, 0.5)], axis=-1)
        with pytest.raises(GeometryError):
            DiscreteCurve(
                points=pts,
                normals=np.tile([1.0, 0.0], (11, 1)),
                curvature=np.zeros(11),
            )

    def test_validation_rejects_uneven_spacing(self):
        t = np.concatenate([np.linspace(0.0, 0.5, 6), [0.95]])
        pts = np.stack([np.zeros(7), t], axis=-1)
        with pytest.raises(GeometryError):
            DiscreteCurve(
                points=pts,
                normals=np.tile([-1.0, 0.0], (7, 1)),
                curvature=np.zeros(7),
            )

    @pytest.mark.parametrize("tilt, rejected", [(0.0499, False), (0.0501, True)])
    def test_skew_limit_is_five_hundredths_of_the_chord(self, tilt, rejected):
        """|chord·N| against 0.05 |chord|, on chords of length 0.2 that are
        not normalized first."""
        pts = np.stack([np.linspace(0, 1, 11), np.full(11, 0.5)], axis=-1)
        normals = np.tile([tilt, math.sqrt(1.0 - tilt * tilt)], (11, 1))
        if rejected:
            with pytest.raises(GeometryError, match="orthogonal"):
                DiscreteCurve(points=pts, normals=normals, curvature=np.zeros(11))
        else:
            DiscreteCurve(points=pts, normals=normals, curvature=np.zeros(11))

    @pytest.mark.parametrize("overshoot, rejected", [(0.9e-9, False), (1.1e-9, True)])
    def test_slab_exit_tolerance_scales_with_the_highest_node(self, overshoot, rejected):
        """A node may pass a wall by 1e-9 (1 + max |t|), here about 2e-9."""
        t = np.linspace(-1.0, 1.0 + 2.0 * overshoot, 21)
        pts = np.stack([0.1 * t, t], axis=-1)
        if rejected:
            with pytest.raises(DomainError, match="exits the slab"):
                polyline_curve(QUAD_SLAB, pts)
        else:
            assert polyline_curve(QUAD_SLAB, pts).n_nodes == 21

    @pytest.mark.parametrize("height", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("slab", [QUAD_SLAB, GAUSS_PLANE], ids=["slab", "plane"])
    def test_a_nonfinite_height_exits_the_slab(self, height, slab):
        """Refused before any arithmetic: no warning, and the slab's error."""
        pts = np.stack([np.linspace(0.0, 1.0, 5), np.linspace(-0.5, 0.5, 5)], axis=-1)
        pts[2, 1] = height
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="exits the slab"):
                polyline_curve(slab, pts)

    @pytest.mark.parametrize("abscissa", [math.inf, -math.inf])
    @pytest.mark.parametrize("slab", [QUAD_SLAB, GAUSS_PLANE], ids=["slab", "plane"])
    def test_a_nonfinite_abscissa_is_not_curve_data(self, abscissa, slab):
        pts = np.stack([np.linspace(0.0, 1.0, 5), np.linspace(-0.5, 0.5, 5)], axis=-1)
        pts[2, 0] = abscissa
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="curve data must be finite"):
                polyline_curve(slab, pts)

    @pytest.mark.parametrize("node", [0, 2, 3])
    @pytest.mark.parametrize("closed", [False, True])
    def test_a_repeated_node_is_named(self, node, closed):
        """A zero-length first, interior or last segment."""
        pts = np.stack([np.linspace(0.0, 1.0, 5), np.linspace(-0.5, 0.5, 5)], axis=-1)
        pts[node + 1] = pts[node]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="consecutive nodes must be distinct"):
                polyline_curve(QUAD_SLAB, pts, closed=closed)

    @pytest.mark.parametrize("end, error, message", [
        ((1.0, INF), DomainError, "exits the slab"),
        ((1.0, -INF), DomainError, "exits the slab"),
        ((INF, 0.5), GeometryError, "curve data must be finite"),
    ])
    def test_a_nonfinite_segment_end_is_refused_before_interpolation(self, end, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                straight_segment(QUAD_SLAB, (0.0, 0.0), end)
            with pytest.raises(error, match=message):
                straight_segment(QUAD_SLAB, end, (0.0, 0.0))

    @pytest.mark.parametrize("x0", [INF, -INF])
    def test_a_vertical_chord_at_infinity_is_refused_without_warning(self, x0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="curve data must be finite"):
                vertical_segment(UNIT_SLAB, x0)

    def test_weighted_area_matches_line_integral(self):
        vl = vertical_segment(UNIT_SLAB, 0.7, n=801)
        oracle = math.exp(-0.5 * 0.49) * gaussian_mass(0.5, 0.0, 1.0)
        assert_allclose(_trapezoid_weights(UNIT_SLAB, vl)[0].sum(), oracle, rtol=1e-6)

    def test_arclength_and_tangents(self):
        seg = straight_segment(GAUSS_PLANE, (0.0, 0.0), (3.0, 4.0), n=11)
        assert_allclose(seg.arclength()[-1], 5.0, rtol=1e-14)
        assert_allclose(seg.tangents(), np.tile([0.6, 0.8], (11, 1)), atol=1e-14)


class TestFMeanCurvature:
    def test_vertical_line(self):
        """x = 1 with N = (−1, 0): H_f = 2c⟨p, N⟩ = −1 at every node."""
        vl = vertical_segment(UNIT_SLAB, 1.0, n=101)
        assert_allclose(f_mean_curvature(UNIT_SLAB, vl), -1.0, rtol=1e-14)

    def test_horizontal_line_constant(self):
        """t = t0 with N = (0, 1): H_f = −ω′(t0) + 2c t0, constant."""
        hl = horizontal_segment(QUAD_SLAB, 0.5, n=501)
        hf = f_mean_curvature(QUAD_SLAB, hl)
        expected = -(-2.0 * 0.5) + 2.0 * 0.5 * 0.5
        assert_allclose(hf, expected, rtol=1e-13)

    def test_line_through_origin_is_minimal(self):
        line = straight_segment(GAUSS_PLANE, (-1.0, -0.7), (1.0, 0.7), n=201)
        assert np.max(np.abs(f_mean_curvature(GAUSS_PLANE, line))) <= 1e-13

    def test_diagonal_line_spread_under_quadratic_weight(self):
        """Tilted lines have nonconstant H_f unless the weight is affine."""
        line = straight_segment(QUAD_SLAB, (-0.7, -0.7), (0.7, 0.7), n=301)
        hf = f_mean_curvature(QUAD_SLAB, line)
        assert float(np.max(hf) - np.min(hf)) > 0.01

    def test_smoothness_error_at_kink(self):
        w = PiecewiseLinearWeight((-1.0, 0.0, 1.0), (0.0, 0.5, 0.5))
        d = Density(w, 0.5, 2, (-1.0, 1.0))
        vl = vertical_segment(d, 0.5, n=101)
        with pytest.raises(SmoothnessError):
            f_mean_curvature(d, vl)


class TestCmcShoot:
    def test_minimal_line_through_origin_stays_straight(self):
        curve = cmc_shoot(GAUSS_PLANE, 0.0, (0.0, 0.0), angle=0.3, step=1e-3, max_length=1.0)
        dev = curve.points[:, 1] * math.cos(0.3) - curve.points[:, 0] * math.sin(0.3)
        assert np.max(np.abs(dev)) <= 1e-10

    def test_vertical_line_reproduced(self):
        """H_f = −1 shot vertically from (1, 0) is the line x = 1."""
        curve = cmc_shoot(GAUSS_PLANE, -1.0, (1.0, 0.0), angle=math.pi / 2, step=1e-3, max_length=1.0)
        assert np.max(np.abs(curve.points[:, 0] - 1.0)) <= 1e-10
        assert np.max(np.abs(f_mean_curvature(GAUSS_PLANE, curve) + 1.0)) <= 1e-8

    def test_affine_weight_keeps_tilted_lines(self):
        d = Density(AffineWeight(1.0, 0.0), 0.5, 2, (-INF, INF))
        p0 = np.array([0.3, -0.2])
        angle = 0.9
        tangent = np.array([math.cos(angle), math.sin(angle)])
        normal = np.array([-tangent[1], tangent[0]])
        target = -(1.0 * normal[1]) + 2.0 * 0.5 * float(np.dot(p0, normal))
        curve = cmc_shoot(d, target, p0, angle=angle, step=1e-3, max_length=1.5)
        dev = (curve.points - p0) @ normal
        assert np.max(np.abs(dev)) <= 1e-9

    def test_wall_landing_truncates_and_flags(self):
        """The landing node's height is the wall's exactly, the rule
        jacobi_residual reads an end on a wall by; the start is inside."""
        curve = cmc_shoot(UNIT_SLAB, 0.0, (0.5, 0.5), angle=math.pi / 3, step=1e-3, max_length=5.0)
        assert on_wall(UNIT_SLAB, curve) == (False, True)
        assert curve.points[-1, 1] in (0.0, 1.0)
        assert curve.arclength()[-1] < 5.0

    def test_start_outside_slab_rejected(self):
        with pytest.raises(DomainError):
            cmc_shoot(UNIT_SLAB, 0.0, (0.0, 1.5), angle=0.0, step=1e-3, max_length=1.0)

    def test_a_shot_under_two_steps_is_refused(self):
        """max_length 0.0041 rounds to one step of 0.004, which lays 2 nodes:
        the shot was blamed on the slab, although it never reached a wall."""
        with pytest.raises(DomainError, match=r"max_length 0\.0041 must span 2 to 5e6 steps of 0\.004"):
            cmc_shoot(Density(ZeroWeight(), 0.5, 2, (-1.0, 1.0)), 0.0, (1.0, 0.0), 1.0, step=0.004,
                      max_length=0.0041)

    @pytest.mark.parametrize("step, max_length", [(1e-3, INF), (1e-3, math.nan), (math.nan, 1.0)])
    def test_non_finite_step_or_length_rejected(self, step, max_length):
        with pytest.raises(DomainError, match="finite"):
            cmc_shoot(UNIT_SLAB, 0.0, (0.5, 0.5), angle=0.0, step=step, max_length=max_length)


class TestFloatShooting:
    """cmc_shoot's float RK4 against the array-based oracle, and its early-stopping
    wall-landing bisection against the full 80-probe one."""

    PIECEWISE = PiecewiseLinearWeight((-1.0, 0.0, 1.0), (0.0, 0.5, 0.0))

    @pytest.mark.parametrize(
        "weight, slab, target, start, angle, wall",
        [
            (ZeroWeight(), (-INF, INF), 0.0, (1.0, 0.0), 1.0, False),
            (ZeroWeight(), (0.0, 1.0), 0.0, (0.5, 0.5), math.pi / 3, True),
            (AffineWeight(0.7, 0.0), (-INF, INF), 0.2, (0.3, 0.1), 0.4, False),
            (AffineWeight(0.7, 0.0), (-1.0, 1.0), 0.0, (0.0, 0.2), -1.2, True),
            (QuadraticWeight(1.0, 0.3, 0.0), (-1.0, 1.0), -1.0, (0.5, 0.0), 1.3, False),
            (QuadraticWeight(1.0, 0.3, 0.0), (-1.0, 1.0), 0.0, (0.2, 0.5), math.pi / 2, True),
            (LogPowerWeight(2.0), (0.0, INF), 0.0, (0.2, 1.0), -1.0, False),
            (PIECEWISE, (-0.5, 0.5), 0.3, (0.3, 0.1), 2.5, True),  # crosses the knot t = 0
            (PIECEWISE, (-1.0, 1.0), -0.5, (0.1, -0.3), 0.2, False),
        ],
        ids=["zero", "zero-wall", "affine", "affine-wall", "quadratic", "quadratic-wall",
             "log_power", "piecewise-wall", "piecewise"],
    )
    def test_matches_the_array_oracle(self, weight, slab, target, start, angle, wall):
        density = Density(weight, 0.5, 2, slab)
        curve = cmc_shoot(density, target, start, angle, step=2e-3, max_length=2.0)
        ref, landed, _ = reference_march(
            lambda s, h: _array_rk4_step(density, target, s, h), slab, start, angle, 2e-3, 2.0
        )
        assert on_wall(density, curve)[1] == landed == wall
        assert curve.points.shape == ref[:, :2].shape
        # relative error with a unit floor, since coordinates cross zero
        assert np.max(np.abs(curve.points - ref[:, :2]) / np.maximum(np.abs(ref[:, :2]), 1.0)) <= 1e-13
        normals = np.stack((-np.sin(ref[:, 2]), np.cos(ref[:, 2])), axis=-1)
        assert np.max(np.abs(curve.normals - normals)) <= 1e-13

    @pytest.mark.parametrize(
        "step, angle, wall, restarted",
        [(2e-3, math.pi / 3, 1.0, False), (1e-3, -1.0, 0.0, False),
         (1e-3, math.pi / 3, 1.0, True), (1e-3, -math.pi / 3, 0.0, True)],
        ids=["top", "bottom", "top-restart", "bottom-restart"],
    )
    def test_landing_equals_80_probe_bisection_bit_for_bit(self, monkeypatch, step, angle, wall,
                                                          restarted):
        calls = []
        real = geometry._rk4_step

        def counting(*args):
            calls.append(1)
            return real(*args)

        def advance(state, h):
            return real(ZeroWeight().deriv, 1.0, 0.0, tuple(map(float, state)), h, ZeroWeight().domain)

        monkeypatch.setattr(geometry, "_rk4_step", counting)
        curve = cmc_shoot(UNIT_SLAB, 0.0, (0.5, 0.5), angle, step=step, max_length=5.0)
        ref, landed, took_restart = reference_march(advance, (0.0, 1.0), (0.5, 0.5), angle, step, 5.0)
        assert landed and took_restart == restarted
        assert curve.points[-1, 1] == wall
        assert np.array_equal(curve.points, ref[:, :2])
        assert np.array_equal(curve.normals, np.stack((-np.sin(ref[:, 2]), np.cos(ref[:, 2])), -1))
        # the bracket reaches adjacent floats in about 53 probes, not 80
        marched = len(ref) - 1 + restarted
        landings = 1 + restarted
        assert len(calls) - marched - landings <= 60 * landings

    def test_log_power_stage_below_zero_raises_domain_error(self):
        density = Density(LogPowerWeight(2.0), 0.5, 2, (0.0, INF))
        with pytest.raises(DomainError):
            cmc_shoot(density, 0.0, (0.0, 0.01), -math.pi / 2, step=0.05, max_length=1.0)

    def test_lands_on_a_wall_where_the_weight_domain_ends(self):
        # the crossing step's RK4 stages probe omega' past the knot span,
        # where it is read at the span's end, so the shot lands on t = 1
        density = Density(self.PIECEWISE, 0.5, 2, (-1.0, 1.0))
        curve = cmc_shoot(density, 0.0, (0.3, 0.1), 1.2, step=2e-3, max_length=2.0)
        assert curve.points[-1, 1] == 1.0

    def test_piecewise_knot_raises_smoothness_error(self):
        density = Density(self.PIECEWISE, 0.5, 2, (-1.0, 1.0))
        with pytest.raises(SmoothnessError):
            cmc_shoot(density, 0.0, (0.3, 0.0), 1.0, step=1e-3, max_length=1.0)


class TestJacobiResidual:
    def test_vertical_line_exact(self):
        d = Density(QuadraticWeight(1.0, 0.4, 0.0), 0.5, 2, (-1.0, 1.0))
        vl = vertical_segment(d, 0.3, n=201)
        assert jacobi_residual(d, vl) <= 1e-12

    def test_straight_line_affine_weight_exact(self):
        d = Density(AffineWeight(0.7, 0.0), 0.5, 2, (-INF, INF))
        line = straight_segment(d, (-1.0, -0.5), (1.0, 0.5), n=201)
        assert jacobi_residual(d, line) <= 1e-10

    def test_shrinker_circle_is_discretely_exact(self):
        """H_f = 0 launched from (1,0) at 90° closes the unit circle.

        On a chord-uniform circle the 3-point Laplacian reproduces the
        sinusoidal normal component exactly, so the residual sits at
        roundoff instead of O(h²).
        """
        curve = cmc_shoot(GAUSS_PLANE, 0.0, (1.0, 0.0), angle=math.pi / 2, step=2e-3, max_length=2.0)
        assert jacobi_residual(GAUSS_PLANE, curve) <= 1e-8

    @pytest.mark.parametrize(
        "target,start,angle",
        [(0.0, (1.0, 0.0), 1.0), (-1.0, (0.5, 0.0), math.pi / 2)],
    )
    def test_second_order_convergence(self, target, start, angle):
        errs = []
        for h in (4e-3, 2e-3):
            curve = cmc_shoot(GAUSS_PLANE, target, start, angle=angle, step=h, max_length=2.0)
            errs.append(jacobi_residual(GAUSS_PLANE, curve))
        assert errs[0] / errs[1] >= 3.5

    @pytest.mark.parametrize(
        "weight, slab, target, start, angle",
        [
            (ZeroWeight(), (-1.0, 1.0), 0.0, (1.0, 0.0), 1.0),
            (QuadraticWeight(1.0, 0.3, 0.0), (-1.0, 1.0), 0.0, (0.2, 0.0), 1.0),
            (ZeroWeight(), (0.0, 1.0), 0.0, (0.5, 0.5), math.pi / 3),
            (LogPowerWeight(2.0), (0.0, 2.0), 0.0, (1.0, 1.0), 1.0),
            (AffineWeight(0.7, 0.0), (-1.0, 1.0), 0.3, (1.0, 0.0), 1.2),
        ],
        ids=["zero", "quadratic", "zero-unit-slab", "log_power", "affine"],
    )
    def test_second_order_convergence_with_wall_landing(self, weight, slab, target, start, angle):
        # the shortened last segment changes length with h; the node before it
        # must not spoil the O(h^2) decay of the maximum residual
        density = Density(weight, 0.5, 2, slab)
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            curve = cmc_shoot(density, target, start, angle=angle, step=h, max_length=8.0)
            assert on_wall(density, curve) == (False, True)
            errs.append(jacobi_residual(density, curve))
        assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5

    def test_nonconstant_curvature_rejected(self):
        line = straight_segment(QUAD_SLAB, (-0.7, -0.7), (0.7, 0.7), n=301)
        with pytest.raises(ConsistencyError):
            jacobi_residual(QUAD_SLAB, line)


class TestIndexForm:
    def test_zero_function(self):
        vl = vertical_segment(UNIT_SLAB, 0.5, n=101)
        assert index_form(UNIT_SLAB, vl, np.zeros(101)) == 0.0

    def test_coordinate_function_witness(self):
        """Horizontal line, ω = −t², c = 1/2, u = x: I_f = ω″(0)·√(2π)/(2c)·(1/(2c))…

        The Gaussian Poincaré part cancels exactly for coordinate
        functions, leaving ω″(0) ∫ x² e^{−x²/2} dx = −2·√(2π).
        """
        hl = horizontal_segment(QUAD_SLAB, 0.0, n=4001)
        rep = index_form(QUAD_SLAB, hl, hl.points[:, 0])
        assert_allclose(rep, -2.0 * math.sqrt(2.0 * math.pi), rtol=1e-12)

    def test_gaussian_coordinate_equality(self):
        hl = horizontal_segment(UNIT_SLAB, 0.5, n=4001)
        u = hl.points[:, 0]
        assert abs(index_form(UNIT_SLAB, hl, u)) <= 1e-6

    def test_vertical_line_stability_sweep(self):
        vl = vertical_segment(UNIT_SLAB, 0.3, n=301)
        rng = np.random.default_rng(5)
        mass, _ = _trapezoid_weights(UNIT_SLAB, vl)
        total = np.sum(mass)
        for _ in range(200):
            u = rng.standard_normal(vl.n_nodes)
            u -= np.sum(u * mass) / total
            assert index_form(UNIT_SLAB, vl, u) >= -1e-6

    def test_sample_shape_enforced(self):
        vl = vertical_segment(UNIT_SLAB, 0.5, n=101)
        with pytest.raises(GeometryError):
            index_form(UNIT_SLAB, vl, np.zeros(7))

    def test_measure_comes_from_the_evaluating_density(self):
        """At u = t² − 0.3, a curve built under the zero weight read 1.7745
        under the quadratic weight, and 1.0381 built under it."""
        quad = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-1.0, 1.0))
        zero = Density(ZeroWeight(), 0.5, 2, (-1.0, 1.0))
        t = np.linspace(-1.0, 1.0, 201)
        for u in (t * t - 0.3, np.sin(3.0 * t), np.ones(201)):
            built_under_zero = index_form(quad, vertical_segment(zero, 0.3, n=201), u)
            assert built_under_zero == index_form(quad, vertical_segment(quad, 0.3, n=201), u)

    @pytest.mark.parametrize("weight", [ZeroWeight(), QuadraticWeight(1.0, 0.0, 0.0)],
                             ids=["zero", "quadratic"])
    def test_alternating_function_does_not_undercut_the_gap(self, weight):
        """On a vertical line k = 0 and Ric_f(N,N) = 2c, so the Rayleigh
        quotient of a mean-zero u is at least λ₁ − 2c of the slab factor.
        Centered differences nearly annihilate (−1)^i and read 1.98 and 1.49
        against 2.000 and 3.256."""
        from isoflow.spectrum import poincare_certify

        density = Density(weight, 0.5, 2, (-1.0, 1.0))
        line = vertical_segment(density, 0.3, n=201)
        i = np.arange(201)
        u = (-1.0) ** i * np.sin(np.pi * i / 200) ** 2
        mass, _ = _trapezoid_weights(density, line)
        u -= np.sum(u * mass) / np.sum(mass)
        gap = poincare_certify(density).lambda_value - 2.0 * density.c
        assert index_form(density, line, u) / np.sum(u * u * mass) >= gap - 1e-6


class TestQForm:
    """The integrated-by-parts second variation as an oracle for index_form."""

    def test_matches_index_form_on_compact_support(self):
        line = straight_segment(GAUSS_PLANE, (-2.0, -1.0), (2.0, 1.0), n=4001)
        z = line.arclength() / line.arclength()[-1]
        u = np.where(
            (z > 0.2) & (z < 0.8),
            np.sin(np.pi * np.clip((z - 0.2) / 0.6, 0.0, 1.0)) ** 4,
            0.0,
        )
        q, boundary = q_form(GAUSS_PLANE, line, u)
        i = index_form(GAUSS_PLANE, line, u)
        assert abs(q - i) <= 1e-4 * (1.0 + abs(i))
        assert abs(boundary) <= 1e-10

    def test_constant_on_closed_curve(self):
        """Q(1,1) = −∫(Ric_f + k²) da_f = −(2c + 1)·A_f on the unit circle."""
        circ = unit_circle(GAUSS_PLANE, n=1600)
        q, boundary = q_form(GAUSS_PLANE, circ, np.ones(circ.n_nodes))
        oracle = -2.0 * 2.0 * math.pi * math.exp(-0.5)
        assert_allclose(q, oracle, rtol=1e-4)
        assert boundary == 0.0


class TestParallelHalfspaceStability:
    def test_gaussian_stable(self):
        rep = parallel_halfspace_stability(UNIT_SLAB, 0.5)
        assert rep.verdict == "stable"
        assert abs(rep.witness_value) <= 1e-6

    def test_affine_stable(self):
        d = Density(AffineWeight(1.0, 0.2), 0.5, 2, (0.0, 2.0))
        assert parallel_halfspace_stability(d, 1.0).verdict == "stable"

    def test_quadratic_unstable_with_witness(self):
        rep = parallel_halfspace_stability(QUAD_SLAB, 0.0)
        assert rep.verdict == "unstable"
        assert_allclose(rep.witness_value, -2.0 * math.sqrt(2.0 * math.pi), rtol=1e-8)

    def test_witness_tracks_height_and_weight_value(self):
        """At height t0 the witness is ω″(t0) e^{ω(t0)−c t0²} √(π/c)/(2c)."""
        d = Density(QuadraticWeight(1.0, 0.3, 0.2), 0.5, 2, (-1.0, 1.0))
        t0 = 0.4
        rep = parallel_halfspace_stability(d, t0)
        amp = math.exp((-t0 * t0 + 0.3 * t0 + 0.2) - 0.5 * t0 * t0)
        oracle = -2.0 * amp * math.sqrt(2.0 * math.pi)
        assert_allclose(rep.witness_value, oracle, rtol=1e-8)

    def test_kinked_weight_rejected(self):
        w = PiecewiseLinearWeight((-1.0, 0.0, 1.0), (0.0, 0.5, 0.5))
        d = Density(w, 0.5, 2, (-1.0, 1.0))
        with pytest.raises(SmoothnessError):
            parallel_halfspace_stability(d, 0.0)

    def test_height_outside_slab_rejected(self):
        with pytest.raises(DomainError):
            parallel_halfspace_stability(UNIT_SLAB, 1.0)


def graph_curve(rng, lo: float, hi: float, n_nodes: int = 301) -> np.ndarray:
    """Random graph x = g(t) through 6 knots, resampled at uniform arclength."""
    pad = 0.025 * (hi - lo)
    knots_t = np.linspace(lo + pad, hi - pad, 6)
    spline = CubicSpline(knots_t, rng.uniform(-1.5, 1.5, 6))
    dense_t = np.linspace(knots_t[0], knots_t[-1], 2000)
    pts = np.stack([spline(dense_t), dense_t], axis=-1)
    s = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))])
    su = np.linspace(0.0, s[-1], n_nodes)
    return np.stack([np.interp(su, s, pts[:, 0]), np.interp(su, s, pts[:, 1])], axis=-1)


def stacked_weighted_length(density, pts: np.ndarray) -> float:
    """Oracle for _polyline_weighted_length: the (m - 1, 12, 2) quadrature
    nodes sent through log_density, as the per-axis code replaced."""
    x, w = _gauss_legendre(12)
    lam = 0.5 * (x + 1.0)
    p0 = pts[:-1]
    seg = pts[1:] - p0
    ell = np.hypot(seg[:, 0], seg[:, 1])
    nodes = p0[:, None, :] + lam[None, :, None] * seg[:, None, :]
    f = np.exp(log_density(density, nodes))
    return float(np.sum(0.5 * ell * (f @ w)))


class TestCurveWeightedLength:
    @pytest.mark.parametrize("weight, slab", [
        (ZeroWeight(), (-1.0, 1.0)),
        (AffineWeight(1.0, 0.2), (0.0, INF)),
        (QuadraticWeight(1.0, 0.3, 0.1), (-INF, INF)),
        (LogPowerWeight(2.0), (0.0, 1.0)),
        (PiecewiseLinearWeight((-1.0, -0.2, 0.5, 1.0), (0.0, 0.4, 0.1, -0.5)), (-1.0, 1.0)),
    ])
    def test_per_axis_nodes_match_the_stacked_oracle_bit_for_bit(self, weight, slab):
        rng = np.random.default_rng(1501)
        lo, hi = (s if math.isfinite(s) else 2.0 * math.copysign(1.0, s) for s in slab)
        for c in (0.25, 0.5, 2.0):
            d = Density(weight, c, 2, slab)
            for _ in range(4):
                pts = graph_curve(rng, lo, hi)
                got = geometry._polyline_weighted_length(d, pts)
                assert got == stacked_weighted_length(d, pts)
                closed = np.vstack([pts, pts[:1]])
                assert geometry._polyline_weighted_length(d, closed) == stacked_weighted_length(d, closed)

    def test_nodes_are_left_unwritten(self):
        pts = graph_curve(np.random.default_rng(2404), -1.0, 1.0)
        before = pts.copy()
        geometry._polyline_weighted_length(QUAD_SLAB, pts)
        assert pts.tobytes() == before.tobytes()

    def test_vertical_chord_oracle(self):
        vl = vertical_segment(UNIT_SLAB, 0.4, n=51)
        oracle = math.exp(-0.5 * 0.16) * gaussian_mass(0.5, 0.0, 1.0)
        assert_allclose(curve_weighted_length(UNIT_SLAB, vl), oracle, rtol=1e-12)

    def test_circle_oracle(self):
        circ = unit_circle(GAUSS_PLANE, n=3000, radius=0.8)
        oracle = 2.0 * math.pi * 0.8 * math.exp(-0.5 * 0.64)
        assert_allclose(curve_weighted_length(GAUSS_PLANE, circ), oracle, rtol=1e-6)


class TestCurveCsv:
    def test_header_and_roundtrip(self):
        vl = vertical_segment(UNIT_SLAB, 0.5, n=5)
        text = curve_csv(vl)
        lines = text.strip().split("\n")
        assert lines[0] == "x,t,Nx,Nt,k"
        assert len(lines) == 6
        row = [float(x) for x in lines[2].split(",")]
        assert row[0] == 0.5 and row[2] == -1.0


def _graph_points(rng, lo: float, hi: float, n_nodes: int = 301) -> np.ndarray:
    """A random graph x = g(t) through 6 knots, resampled at uniform arclength."""
    pad = 0.025 * (hi - lo)
    knots_t = np.linspace(lo + pad, hi - pad, 6)
    sp = CubicSpline(knots_t, rng.uniform(-1.5, 1.5, 6))
    dense_t = np.linspace(knots_t[0], knots_t[-1], 2000)
    pts = np.stack([sp(dense_t), dense_t], axis=-1)
    s = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))])
    su = np.linspace(0.0, s[-1], n_nodes)
    return np.stack([np.interp(su, s, pts[:, 0]), np.interp(su, s, pts[:, 1])], axis=-1)


def _reference_curvature(points, closed):
    """polyline_curve's curvature by np.unwrap and np.gradient with
    second-order ends; a closed curve is unwrapped and differenced
    periodically, one node past each end of the seam."""
    tangents = geometry._unit_tangents(points, closed)
    theta = np.arctan2(tangents[:, 1], tangents[:, 0])
    d = np.diff(points, axis=0)
    open_ell = np.hypot(d[:, 0], d[:, 1])
    s = np.concatenate(([0.0], np.cumsum(open_ell)))
    if not closed:
        return np.gradient(np.unwrap(theta), s, edge_order=2)
    gap = math.hypot(*(points[0] - points[-1]))
    theta = np.unwrap(np.concatenate((theta[-1:], theta, theta[:1])))
    return np.gradient(theta, np.concatenate(([-gap], s, [s[-1] + gap])), edge_order=2)[1:-1]


class TestPolylineCurveBits:
    """polyline_curve skips np.unwrap when no angle step reaches pi and
    takes np.gradient's formula directly; every bit stays."""

    def _assert_bits(self, density, points, closed=False):
        curve = polyline_curve(density, points, closed=closed)
        k = _reference_curvature(np.asarray(points, dtype=float), closed)
        assert curve.curvature.tobytes() == k.tobytes()

    @pytest.mark.parametrize("slab", [(0.0, 1.0), (-1.0, 1.0), (0.0, INF), (-INF, INF)])
    def test_random_graphs(self, slab):
        density = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, slab)
        a, b = slab
        lo, hi = (a if math.isfinite(a) else -2.0), (b if math.isfinite(b) else 2.0)
        rng = np.random.default_rng(1811)
        for _ in range(8):
            self._assert_bits(density, _graph_points(rng, lo, hi))

    def test_closed_circle_wraps_past_pi(self):
        th = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
        points = np.stack([0.3 + 0.5 * np.cos(th), 0.5 * np.sin(th)], axis=-1)
        tangents = geometry._unit_tangents(points, True)
        assert np.abs(np.diff(np.arctan2(tangents[:, 1], tangents[:, 0]))).max() > np.pi
        self._assert_bits(QUAD_SLAB, points, closed=True)

    def test_closed_seam_is_second_order(self):
        """One-sided differences at the seam nodes read 0.0122 on this
        ellipse against an interior maximum of 0.00052.  The seam sits at
        φ = 0.5, where dk/ds is far from zero."""
        phi = np.linspace(0.5, 0.5 + 2.0 * np.pi, 200001)
        dense = np.stack([np.cos(phi), 0.6 * np.sin(phi)], axis=-1)
        s = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(dense, axis=0).T))])
        phi = np.interp(np.linspace(0.0, s[-1], 800, endpoint=False), s, phi)
        curve = polyline_curve(GAUSS_PLANE, np.stack([np.cos(phi), 0.6 * np.sin(phi)], axis=-1),
                               closed=True)
        exact = 0.6 / (np.sin(phi) ** 2 + 0.36 * np.cos(phi) ** 2) ** 1.5
        err = np.abs(curve.curvature - exact)
        assert max(err[0], err[-1]) <= 2.0 * err[1:-1].max()

    def test_open_spiral(self):
        # theta at equal steps of 0.1 theta + 0.025 theta^2, about equal arclength
        th = (np.sqrt(0.01 + 0.1 * np.linspace(0.0, 2.5, 400)) - 0.1) / 0.05
        r = 0.1 + 0.05 * th
        self._assert_bits(GAUSS_PLANE, np.stack([r * np.cos(th), r * np.sin(th)], axis=-1))

    def test_equal_steps_take_the_uniform_formula(self):
        # steps of exactly 0.15625 in three directions (3-4-5 triangles), so
        # np.gradient sees equal arclength steps and takes its uniform formula
        steps = np.array([[0.15625, 0.0], [0.125, 0.09375], [0.09375, 0.125], [0.125, -0.09375]])
        points = np.cumsum(np.vstack([[0.0, 0.0], steps[[0, 1, 2, 1, 0, 3, 0, 0, 1]]]), axis=0)
        assert np.all(np.hypot(*np.diff(points, axis=0).T) == 0.15625)
        self._assert_bits(GAUSS_PLANE, points)


class TestOpenEndsAreSecondOrder:
    def test_half_circle_through_the_wall(self):
        """A unit half-circle on the zero weight meets the wall t = 0 at both
        ends.  One-sided first differences read curvature 0.5 and 0.75 at the
        first two nodes (and the last two) at every resolution; second-order
        ends read 0.99992 and 0.99998 at 200 segments, and the largest error
        falls fourfold per doubling."""
        density = Density(ZeroWeight(), 0.5, 2, (0.0, INF))
        errors = []
        for n in (200, 400, 800):
            th = np.linspace(0.0, np.pi, n + 1)
            k = polyline_curve(density, np.stack([np.cos(th), np.sin(th)], axis=-1)).curvature
            errors.append(np.abs(k - 1.0).max())
            if n == 200:
                assert_allclose(k[:2], [0.99992, 0.99998], atol=5e-6)
                assert_allclose(k[-2:], [0.99998, 0.99992], atol=5e-6)
        assert errors[0] < 1e-4
        assert 3.9 < errors[0] / errors[1] < 4.1 and 3.9 < errors[1] / errors[2] < 4.1

    def test_half_circle_index_quotient_converges_at_second_order(self):
        """u = <e_x, N> minus its da_f-mean gives Q(u,u)/int u^2 = -2c exactly
        on the half-circle; with first-order ends it read -0.98377, -0.99188
        and -0.99594 at 200, 400 and 800 segments, an O(h) error."""
        density = Density(ZeroWeight(), 0.5, 2, (0.0, INF))
        errors = []
        for n in (200, 400, 800):
            th = np.linspace(0.0, np.pi, n + 1)
            curve = polyline_curve(density, np.stack([np.cos(th), np.sin(th)], axis=-1))
            mass, _ = _trapezoid_weights(density, curve)
            u = curve.normals[:, 0] - np.sum(mass * curve.normals[:, 0]) / np.sum(mass)
            errors.append(abs(index_form(density, curve, u) / np.sum(mass * u * u) + 1.0))
        assert errors[0] < 2e-5
        assert errors[0] / errors[1] > 3.5 and errors[1] / errors[2] > 3.5

    def test_a_hairpin_or_uneven_end_keeps_a_unit_tangent(self):
        """The end slope over chord length cannot vanish on distinct nodes,
        where the index stencil 4 p1 - 3 p0 - p2 does for p2 = 4 p1 - 3 p0."""
        for points in ([[0.0, 0.0], [0.0, 0.1], [0.0, 0.4]], [[0.0, 0.0], [0.0, 0.3], [0.0, 0.1]]):
            tangents = geometry._unit_tangents(np.array(points), False)
            assert_allclose(np.hypot(tangents[:, 0], tangents[:, 1]), 1.0, rtol=1e-15)


class TestCurveOwnsItsArrays:
    def test_a_callers_array_cannot_move_the_curve(self):
        """The curve kept the caller's points: shifting them moved its
        weighted length from 1.3382 to 3.3e-6 under unchanged weights."""
        th = np.linspace(-0.8, 0.8, 51)
        pts = np.stack([1.2 * np.cos(th) - 1.0, 1.2 * np.sin(th)], axis=-1)
        curve = polyline_curve(QUAD_SLAB, pts)
        length, points = curve_weighted_length(QUAD_SLAB, curve), curve.points.copy()
        pts[:, 0] += 5.0
        assert np.array_equal(curve.points, points)
        assert curve_weighted_length(QUAD_SLAB, curve) == length
        for name in ("points", "normals", "curvature"):
            with pytest.raises(ValueError):
                getattr(curve, name)[0] = 0.0
