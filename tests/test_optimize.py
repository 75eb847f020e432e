"""Tests for the fixed-area chord length optimizer.

Oracles: vertical chords have closed-form weighted length and enclosed
area; straight tilted chords are checked against adaptive 2-D
quadrature values frozen below; the analytic shape gradient is checked
against central finite differences; full descents are checked against
the perpendicular profile value at the target area.
"""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import isoflow.optimize as opt
from isoflow.errors import ConfigError, DomainError, GeometryError
from isoflow.optimize import (
    ChordSpline,
    OptimizerConfig,
    enclosed_area,
    make_straight_chord,
    minimize,
    shape_gradient,
    stationarity_report,
    trace_csv,
    vertical_chord_length,
    weighted_length,
)
from isoflow.weights import (
    Density,
    LogPowerWeight,
    QuadraticWeight,
    ZeroWeight,
    gaussian_cdf,
    gaussian_quantile,
    total_weighted_volume,
)

# ∫_0^1 e^{-t²/2} dt
UNIT_SLAB_MASS = 0.8556243918921488
# ∫_{-1}^{1} e^{-t²/2} dt, the vertical-chord length on the symmetric slab
SYM_SLAB_MASS = 1.7112487837842976
# ∫_{-1}^{1} e^{-t² - t²/2} dt for the concave quadratic weight
QUAD_SLAB_MASS = 1.3267018916806694
# adaptive 2-D quadrature of e^{-(x²+t²)/2} left of the line x = -0.3 + 0.8 t
TILTED_AREA = 1.1287066991402743
# ∫_0^∞ t² e^{-t²/2} dt = sqrt(pi/2)
LOG_POWER_MASS = 1.2533141373155003


def unit_slab() -> Density:
    return Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))


def symmetric_slab() -> Density:
    return Density(ZeroWeight(), 0.5, 2, (-1.0, 1.0))


def bent_chord(seed: int = 7, scale: float = 0.2, m: int = 10) -> ChordSpline:
    rng = np.random.default_rng(seed)
    return ChordSpline(
        scale * rng.standard_normal(m), np.linspace(0.0, 1.0, m), (0.0, 1.0)
    )


class TestChordSpline:
    def test_vertical_chord_builds(self):
        ch = make_straight_chord(unit_slab(), 0.3)
        assert ch.graph
        assert ch.span == (0.0, 1.0)
        x, t = ch.position([0.0, 0.5, 1.0])
        assert np.allclose(x, 0.3)
        assert np.allclose(t, [0.0, 0.5, 1.0])

    def test_endpoints_must_sit_on_walls(self):
        with pytest.raises(GeometryError, match="walls"):
            ChordSpline(
                np.zeros(6), np.linspace(0.1, 1.0, 6), (0.0, 1.0), graph=False
            )

    def test_graph_mode_requires_linear_ramp(self):
        ct = np.linspace(0.0, 1.0, 6)
        ct[2] += 0.05
        with pytest.raises(GeometryError, match="ramp"):
            ChordSpline(np.zeros(6), ct, (0.0, 1.0), graph=True)

    def test_vertical_controls_must_stay_inside(self):
        ct = np.linspace(0.0, 1.0, 6)
        ct[2] = 1.4
        with pytest.raises(GeometryError, match="inside"):
            ChordSpline(np.zeros(6), ct, (0.0, 1.0), graph=False)

    def test_self_intersection_rejected(self):
        # the curve sweeps right, loops back left across its own path
        with pytest.raises(GeometryError, match="simple"):
            ChordSpline(
                np.array([0.0, 2.0, 2.0, -2.0, -2.0, 0.0]),
                np.array([0.0, 0.3, 0.7, 0.7, 0.3, 1.0]),
                (0.0, 1.0),
                graph=False,
            )

    def test_infinite_span_rejected(self):
        with pytest.raises(DomainError, match="bounded"):
            ChordSpline(np.zeros(6), np.linspace(0.0, 1.0, 6), (0.0, math.inf))

    def test_nonfinite_controls_rejected(self):
        cx = np.zeros(6)
        cx[3] = math.nan
        with pytest.raises(GeometryError, match="finite"):
            ChordSpline(cx, np.linspace(0.0, 1.0, 6), (0.0, 1.0))

    def test_too_few_controls_rejected(self):
        with pytest.raises(GeometryError, match="control"):
            ChordSpline(np.zeros(3), np.linspace(0.0, 1.0, 3), (0.0, 1.0))

    def test_translation_shifts_abscissas(self):
        ch = bent_chord()
        shifted = ch.translated(0.7)
        assert np.allclose(shifted.control_x, ch.control_x + 0.7)
        assert np.array_equal(shifted.control_t, ch.control_t)

    def test_infinite_slab_truncated_by_tail_rule(self):
        density = Density(QuadraticWeight(2.0, 0.0, 0.0), 0.5, 2, (0.0, math.inf))
        ch = make_straight_chord(density, 0.0)
        assert ch.span[0] == 0.0
        assert 3.0 < ch.span[1] < 20.0


class TestWeightedLength:
    @pytest.mark.parametrize("s", [0.0, 0.7, -1.3])
    def test_vertical_chord_closed_form(self, s):
        got = weighted_length(unit_slab(), make_straight_chord(unit_slab(), s))
        want = math.exp(-0.5 * s * s) * UNIT_SLAB_MASS
        assert got == pytest.approx(want, rel=1e-12)

    def test_symmetric_slab_vertical(self):
        got = weighted_length(symmetric_slab(), make_straight_chord(symmetric_slab(), 0.0))
        assert got == pytest.approx(SYM_SLAB_MASS, rel=1e-12)

    def test_half_space_log_power_weight(self):
        density = Density(LogPowerWeight(2), 0.5, 2, (0.0, math.inf))
        got = weighted_length(density, make_straight_chord(density, 0.0))
        assert got == pytest.approx(LOG_POWER_MASS, rel=1e-9)

    def test_tilted_chord_matches_parametric_quadrature(self):
        density = unit_slab()
        ch = make_straight_chord(density, -0.3, 0.5)
        from scipy.integrate import quad

        speed = math.hypot(0.8, 1.0)
        want = quad(
            lambda t: math.exp(-0.5 * ((-0.3 + 0.8 * t) ** 2 + t * t)) * speed,
            0.0,
            1.0,
            epsabs=1e-14,
            epsrel=1e-13,
        )[0]
        assert weighted_length(density, ch) == pytest.approx(want, rel=1e-11)

    def test_vanishing_slab_height_limit(self):
        density = Density(ZeroWeight(), 0.5, 2, (0.0, 1e-6))
        got = weighted_length(density, make_straight_chord(density, 0.0, n_controls=4))
        assert 0.0 < got < 2e-6

    def test_parametrization_mode_is_irrelevant(self):
        density = unit_slab()
        graph = make_straight_chord(density, -0.2, 0.4)
        free = ChordSpline(
            graph.control_x, graph.control_t, graph.span, graph=False
        )
        assert weighted_length(density, free) == pytest.approx(
            weighted_length(density, graph), rel=1e-13
        )

    @pytest.mark.parametrize("fraction", [0.5, 0.3, 0.07])
    def test_vertical_chord_length_closed_form(self, fraction):
        # against the quadrature of the vertical chord at the same area
        density = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-1.0, 1.0))
        v_tot = total_weighted_volume(density)
        s = float(gaussian_quantile(0.5, fraction, 1.0 - fraction))
        chord = make_straight_chord(density, s)
        assert enclosed_area(density, chord) == pytest.approx(fraction * v_tot, rel=1e-12)
        want = weighted_length(density, chord)
        assert vertical_chord_length(density, fraction) == pytest.approx(want, rel=1e-12)
        if fraction == 0.5:
            assert want == pytest.approx(QUAD_SLAB_MASS, rel=1e-14)


class TestEnclosedArea:
    def test_median_vertical_chord_halves_the_mass(self):
        density = unit_slab()
        v_tot = total_weighted_volume(density)
        got = enclosed_area(density, make_straight_chord(density, 0.0))
        assert got == pytest.approx(v_tot / 2.0, rel=1e-13)

    def test_far_left_and_far_right_limits(self):
        density = unit_slab()
        v_tot = total_weighted_volume(density)
        assert abs(enclosed_area(density, make_straight_chord(density, -8.0))) < 1e-12
        assert enclosed_area(density, make_straight_chord(density, 8.0)) == pytest.approx(
            v_tot, rel=1e-12
        )

    def test_tilted_chord_against_2d_quadrature(self):
        got = enclosed_area(unit_slab(), make_straight_chord(unit_slab(), -0.3, 0.5))
        assert got == pytest.approx(TILTED_AREA, rel=1e-8)

    def test_bent_chord_against_2d_quadrature(self):
        from scipy.integrate import dblquad

        ch = bent_chord()
        want = dblquad(
            lambda x, t: math.exp(-0.5 * (x * x + t * t)),
            0.0,
            1.0,
            lambda t: -12.0,
            lambda t: float(ch.position(t)[0]),
        )[0]
        assert enclosed_area(unit_slab(), ch) == pytest.approx(want, rel=1e-8)

    def test_translation_derivative_matches_gradient_sum(self):
        # moving every control together is a rigid horizontal translation,
        # so the area gradient entries must sum to the translation rate
        density = unit_slab()
        ch = bent_chord(seed=11)
        _, dv_x, _, _ = shape_gradient(density, ch)
        h = 1e-6
        fd = (
            enclosed_area(density, ch.translated(h))
            - enclosed_area(density, ch.translated(-h))
        ) / (2.0 * h)
        assert float(np.sum(dv_x)) == pytest.approx(fd, rel=1e-8)

    def test_monotone_in_translation(self):
        density = unit_slab()
        ch = bent_chord(seed=2)
        areas = [enclosed_area(density, ch.translated(tau)) for tau in (-1.0, 0.0, 1.0)]
        assert areas[0] < areas[1] < areas[2]


class TestShapeGradient:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_graph_gradients_match_finite_differences(self, seed):
        density = unit_slab()
        rng = np.random.default_rng(seed)
        m = 10
        cx = 0.3 * rng.standard_normal(m)
        ct = np.linspace(0.0, 1.0, m)
        ch = ChordSpline(cx, ct, (0.0, 1.0))
        dp_x, dv_x, _, _ = shape_gradient(density, ch)
        h = 1e-5
        for j in range(m):
            cxp = cx.copy()
            cxm = cx.copy()
            cxp[j] += h
            cxm[j] -= h
            chp = ChordSpline(cxp, ct, (0.0, 1.0))
            chm = ChordSpline(cxm, ct, (0.0, 1.0))
            fd_p = (weighted_length(density, chp) - weighted_length(density, chm)) / (2 * h)
            fd_v = (enclosed_area(density, chp) - enclosed_area(density, chm)) / (2 * h)
            assert dp_x[j] == pytest.approx(fd_p, rel=1e-4, abs=1e-9)
            assert dv_x[j] == pytest.approx(fd_v, rel=1e-4, abs=1e-9)

    def test_parametric_vertical_gradients_match_finite_differences(self):
        density = unit_slab()
        rng = np.random.default_rng(7)
        m = 10
        cx = 0.2 * rng.standard_normal(m)
        ct = np.linspace(0.0, 1.0, m)
        ct[1:-1] += 0.03 * rng.standard_normal(m - 2)
        ch = ChordSpline(cx, ct, (0.0, 1.0), graph=False)
        _, _, dp_t, dv_t = shape_gradient(density, ch)
        assert dp_t[0] == dp_t[-1] == 0.0
        h = 1e-5
        for j in range(1, m - 1):
            ctp = ct.copy()
            ctm = ct.copy()
            ctp[j] += h
            ctm[j] -= h
            chp = ChordSpline(cx, ctp, (0.0, 1.0), graph=False)
            chm = ChordSpline(cx, ctm, (0.0, 1.0), graph=False)
            fd_p = (weighted_length(density, chp) - weighted_length(density, chm)) / (2 * h)
            fd_v = (enclosed_area(density, chp) - enclosed_area(density, chm)) / (2 * h)
            assert dp_t[j] == pytest.approx(fd_p, rel=1e-4, abs=1e-9)
            assert dv_t[j] == pytest.approx(fd_v, rel=1e-4, abs=1e-9)

    def test_wall_sliding_term_at_endpoints(self):
        # the endpoint controls carry an extra conormal term; finite
        # differences see it automatically, so agreement there validates it
        density = symmetric_slab()
        ch = make_straight_chord(density, -0.4, 0.6)
        dp_x, _, _, _ = shape_gradient(density, ch)
        h = 1e-5
        for j in (0, ch.n_controls - 1):
            cxp = ch.control_x.copy()
            cxm = ch.control_x.copy()
            cxp[j] += h
            cxm[j] -= h
            fd = (
                weighted_length(density, ChordSpline(cxp, ch.control_t, ch.span))
                - weighted_length(density, ChordSpline(cxm, ch.control_t, ch.span))
            ) / (2 * h)
            assert dp_x[j] == pytest.approx(fd, rel=1e-4)

    def test_graph_mode_reports_no_vertical_gradients(self):
        _, _, dp_t, dv_t = shape_gradient(unit_slab(), bent_chord())
        assert not np.any(dp_t)
        assert not np.any(dv_t)


class TestSplineOperators:
    @pytest.mark.parametrize("m", [4, 12, 64])
    @pytest.mark.parametrize("graph", [True, False])
    def test_fields_match_direct_spline(self, m, graph):
        # the cached operators are one spline through the identity matrix;
        # per-chord splines through the controls are the independent oracle.
        # Errors are scaled by the summed term size 1 + Σ_j |B_ij y_j|, not
        # by 1 + |value|: t″ of a graph chord is exactly 0 yet at m = 64 a
        # sum of ±1e4 terms, so both evaluations round at the 1e-11 level.
        rng = np.random.default_rng(m)
        density = symmetric_slab()
        ct = np.linspace(-1.0, 1.0, m)
        if not graph:
            ct[1:-1] += rng.uniform(-0.4, 0.4, m - 2) * (2.0 / (m - 1))
        ch = ChordSpline(0.3 * rng.standard_normal(m), ct, (-1.0, 1.0), graph=graph)
        _, x, t, dx, dt, d2x, d2t, *_ = opt._chord_fields(density, ch)
        op = opt._operator(m)
        ends = op.ends @ ch.controls
        for got, controls, nu, basis, theta in [
            (x, ch.control_x, 0, op.value, op.theta), (t, ch.control_t, 0, op.value, op.theta),
            (dx, ch.control_x, 1, op.d1, op.theta), (dt, ch.control_t, 1, op.d1, op.theta),
            (d2x, ch.control_x, 2, op.d2, op.theta), (d2t, ch.control_t, 2, op.d2, op.theta),
            (ends[:, 0], ch.control_x, 1, op.ends, [0.0, 1.0]),
            (ends[:, 1], ch.control_t, 1, op.ends, [0.0, 1.0]),
        ]:
            want = CubicSpline(ch.knots, controls)(theta, nu)
            scale = 1.0 + np.abs(basis) @ np.abs(controls)
            assert np.max(np.abs(got - want) / scale) <= 1e-13

    def test_minimize_builds_one_spline(self, monkeypatch):
        """A graph-chord descent evaluates every chord through the operators."""
        builds = []
        real = opt.CubicSpline

        def counting(*args, **kwargs):
            builds.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(opt, "CubicSpline", counting)
        monkeypatch.setattr(opt, "_OPERATORS", {}, raising=False)
        density = symmetric_slab()
        target = 0.5 * total_weighted_volume(density)
        _, trace = minimize(density, OptimizerConfig(target_area=target),
                            make_straight_chord(density, -0.3, 0.4))
        assert trace.status == "converged"
        assert len(builds) == 1


class TestFieldsComputedOnce:
    """Node fields are computed once per chord and density, stored read-only."""

    def test_minimize_computes_each_chords_fields_once(self, monkeypatch):
        computed = []
        real = opt._evaluate_fields

        def counting(density, chord):
            computed.append(chord)  # keeps every chord alive, so ids stay distinct
            return real(density, chord)

        monkeypatch.setattr(opt, "_evaluate_fields", counting)
        density = symmetric_slab()
        target = 0.5 * total_weighted_volume(density)
        _, trace = minimize(density, OptimizerConfig(target_area=target),
                            make_straight_chord(density, -0.3, 0.4))
        assert trace.status == "converged"
        assert len({id(chord) for chord in computed}) == len(computed)
        # about two chords per iteration: the trial step and its area restoration
        assert len(computed) <= 3 * len(trace.iterations)

    def test_cached_arrays_are_read_only(self):
        chord = bent_chord()
        fields = opt._chord_fields(unit_slab(), chord)
        assert opt._chord_fields(unit_slab(), chord) is fields
        assert isinstance(fields.area, float)
        for array in (*fields[:-1], chord.controls):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_each_density_gets_its_own_fields(self):
        flat, tilted = symmetric_slab(), Density(QuadraticWeight(1.0, 0.5), 0.5, 2, (-1.0, 1.0))
        chord = make_straight_chord(flat, 0.2)
        fresh = lambda: make_straight_chord(flat, 0.2)  # noqa: E731
        for density in (flat, tilted, flat):  # one chord, alternating densities
            assert weighted_length(density, chord) == weighted_length(density, fresh())
            assert enclosed_area(density, chord) == enclosed_area(density, fresh())
        flat_length = SYM_SLAB_MASS * math.exp(-0.02)  # e^{-c x^2} at x = 0.2
        assert weighted_length(flat, chord) == pytest.approx(flat_length, rel=1e-12)
        assert weighted_length(tilted, chord) < 0.9 * flat_length


class TestOptimizerConfig:
    def test_rejects_nonpositive_area(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(target_area=0.0)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, math.nan])
    def test_rejects_gradient_tolerance_not_positive(self, tolerance):
        """A descent that can never meet its tolerance would spend every iteration."""
        with pytest.raises(ConfigError):
            OptimizerConfig(target_area=1.0, gradient_tolerance=tolerance)

    def test_rejects_empty_budget(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(target_area=1.0, max_iterations=0)


class TestRestoreArea:
    """The Newton root polish, which point-symmetric starts never reach."""

    @staticmethod
    def chords(density):
        rng = np.random.default_rng(5)
        m = 10
        ct = np.linspace(-1.0, 1.0, m)
        yield make_straight_chord(density, -0.4, 0.1, n_controls=m)
        yield ChordSpline(0.15 * rng.standard_normal(m) + 0.3, ct, (-1.0, 1.0))
        ct[1:-1] += 0.03 * rng.standard_normal(m - 2)
        yield ChordSpline(0.15 * rng.standard_normal(m) - 0.2, ct, (-1.0, 1.0), graph=False)

    @pytest.mark.parametrize("fraction", [0.2, 0.5, 0.83])
    @pytest.mark.parametrize("weight", [ZeroWeight(), QuadraticWeight(1.0, 0.4, 0.0)])
    def test_restored_area_and_offset_match_brent(self, weight, fraction):
        from scipy.optimize import brentq

        density = Density(weight, 0.5, 2, (-1.0, 1.0))
        target = fraction * total_weighted_volume(density)
        for chord in self.chords(density):
            err0 = enclosed_area(density, chord) - target
            assert abs(err0) > 1e-3  # starts off target, so the polish runs
            restored = opt._restore_area(density, chord, target)
            assert abs(enclosed_area(density, restored) - target) <= 1e-14 * (1.0 + target)
            tau = float(np.mean(restored.control_x - chord.control_x))
            want = brentq(lambda s: enclosed_area(density, chord.translated(s)) - target,
                          -5.0, 5.0, xtol=1e-15)
            assert tau == pytest.approx(want, abs=1e-12)


def reference_area_terms(density, chord):
    """(kernel, x) with V_f(E) = Σ kernel·Φ_c(x), written out from the spline
    operators: kernel = qw·e^{ω(t)−ct²}·t′·√(π/c) at the quadrature nodes."""
    op = opt._operator(chord.n_controls)
    pts, d1 = op.value @ chord.controls, op.d1 @ chord.controls
    t, c = pts[:, 1], density.c
    kernel = op.weights * np.exp(density.weight.value(t) - c * t * t) * d1[:, 1] * math.sqrt(math.pi / c)
    return kernel, pts[:, 0]


def reference_area(density, chord):
    kernel, x = reference_area_terms(density, chord)
    return float(np.sum(kernel * gaussian_cdf(density.c, x)))


def reference_restore(density, chord, target):
    """The area restoration with every probe, the first included, evaluated
    as Σ kernel·Φ_c(x + τ) − target.  Returns the chord and the number of
    Newton steps taken."""
    kernel, x = reference_area_terms(density, chord)
    c = density.c

    def offset_error(tau):
        return float(np.sum(kernel * gaussian_cdf(c, x + tau))) - target

    err0 = offset_error(0.0)
    if abs(err0) <= 1e-15 * (1.0 + target):
        return chord, 0
    step = 0.25 if err0 < 0.0 else -0.25
    while np.sign(offset_error(step)) == np.sign(err0):
        step *= 2.0
    inner = step / 2.0 if abs(step) > 0.25 else 0.0
    lo, hi = min(inner, step), max(inner, step)
    tau = inner
    for steps in range(1, 101):
        err = offset_error(tau)
        lo, hi = (tau, hi) if err < 0.0 else (lo, tau)
        slope = float(np.sum(kernel * np.exp(-c * (x + tau) ** 2))) * math.sqrt(c / math.pi)
        newton = tau - err / slope if slope > 0.0 else math.nan
        nxt = newton if lo <= newton <= hi else 0.5 * (lo + hi)
        if abs(nxt - tau) <= 1e-14 or hi - lo <= 1e-14:
            return chord.translated(float(nxt)), steps
        tau = nxt
    raise AssertionError("reference restoration did not converge")


class TestRestorationIterates:
    """Off-centre descents, whose restorations take Newton steps: each
    restored chord and its area equal, bit for bit, reference_restore and
    reference_area."""

    @pytest.mark.parametrize("graph, iterations", [(True, 400), (False, 12)], ids=["graph", "parametric"])
    def test_restorations_match_the_written_out_area(self, monkeypatch, graph, iterations):
        density = Density(QuadraticWeight(1.0, 0.4, 0.0), 0.5, 2, (-1.0, 1.0))
        target = 0.3 * total_weighted_volume(density)
        start = make_straight_chord(density, -0.3, 0.1)
        start = ChordSpline(start.control_x, start.control_t, start.span, graph=graph)
        newton_steps = []
        real = opt._restore_area

        def checked(density, chord, target):
            restored = real(density, chord, target)
            want, steps = reference_restore(density, chord, target)
            assert np.array_equal(restored.control_x, want.control_x)
            assert np.array_equal(restored.control_t, want.control_t)
            assert enclosed_area(density, restored) == reference_area(density, restored)
            newton_steps.append(steps)
            return restored

        monkeypatch.setattr(opt, "_restore_area", checked)
        _, trace = minimize(density, OptimizerConfig(target, max_iterations=iterations), start)
        assert trace.status == ("converged" if graph else "max_iterations")
        # the start and every trial step leave the target area
        assert newton_steps and all(steps > 0 for steps in newton_steps)
        assert np.max(trace.area_errors) <= 1e-14 * (1.0 + target)


class TestMinimize:
    def test_tilted_chord_descends_to_vertical(self):
        density = symmetric_slab()
        v_tot = total_weighted_volume(density)
        shift = math.tan(math.radians(30.0))
        init = make_straight_chord(density, -shift, shift)
        final, trace = minimize(density, OptimizerConfig(target_area=v_tot / 2.0), init)
        assert trace.status == "converged"
        assert trace.final.length == pytest.approx(SYM_SLAB_MASS, rel=5e-3)
        assert trace.final.stationary
        assert max(trace.final.angle_bottom_deg, trace.final.angle_top_deg) < 1.0
        assert np.max(np.abs(final.control_x)) < 1e-4

    def test_vertical_chord_is_immediately_stationary(self):
        density = symmetric_slab()
        v_tot = total_weighted_volume(density)
        _, trace = minimize(
            density,
            OptimizerConfig(target_area=v_tot / 2.0),
            make_straight_chord(density, 0.0),
        )
        assert trace.status == "converged"
        assert len(trace.iterations) == 1
        assert trace.gradient_norms[0] < 1e-8

    def test_descent_is_monotone_and_area_is_held(self):
        density = symmetric_slab()
        v_tot = total_weighted_volume(density)
        init = make_straight_chord(density, -0.8, 0.5)
        _, trace = minimize(density, OptimizerConfig(target_area=0.4 * v_tot), init)
        assert np.all(np.diff(trace.lengths) <= 1e-12)
        assert np.max(trace.area_errors) <= 1e-8 * v_tot

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_initializations_reach_the_profile_value(self, seed):
        density = symmetric_slab()
        v_tot = total_weighted_volume(density)
        rng = np.random.default_rng(seed)
        init = ChordSpline(
            0.6 * rng.standard_normal(12), np.linspace(-1.0, 1.0, 12), (-1.0, 1.0)
        )
        _, trace = minimize(density, OptimizerConfig(target_area=v_tot / 2.0), init)
        assert trace.status == "converged"
        assert trace.final.length == pytest.approx(SYM_SLAB_MASS, rel=5e-3)

    def test_parametric_escape_beats_the_horizontal_candidate(self):
        # concave quadratic weight: the flat candidate at mid-height is
        # unstable, so a chord hugging it must escape and do better
        density = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-1.0, 1.0))
        v_tot = total_weighted_volume(density)
        flat_candidate_length = math.sqrt(2.0 * math.pi)
        m, span = 12, 2.0
        ct = np.concatenate(
            [[-1.0, -0.15, -0.05], np.linspace(-0.02, 0.02, m - 6), [0.05, 0.15, 1.0]]
        )
        cx = np.concatenate(
            [[-span, -span, -span], np.linspace(-span, span, m - 6), [span, span, span]]
        )
        init = ChordSpline(cx, ct, (-1.0, 1.0), graph=False)
        start_length = weighted_length(density, init)
        assert start_length > 0.9 * flat_candidate_length
        _, trace = minimize(
            density, OptimizerConfig(target_area=v_tot / 2.0, max_iterations=800), init
        )
        assert trace.final.length < flat_candidate_length
        assert trace.final.length == pytest.approx(QUAD_SLAB_MASS, rel=1e-2)
        assert np.all(np.diff(trace.lengths) <= 1e-12)

    def test_off_median_target_matches_profile(self):
        # target area away from the median: compare against the
        # perpendicular profile F(v) = e^{-c s*^2} * slab mass with
        # s* the matching Gaussian quantile
        from scipy.special import erfcinv

        density = symmetric_slab()
        v_tot = total_weighted_volume(density)
        frac = 0.3
        s_star = -erfcinv(2.0 * frac) / math.sqrt(0.5)
        want = math.exp(-0.5 * s_star * s_star) * SYM_SLAB_MASS
        init = make_straight_chord(density, -1.2, 0.1)
        _, trace = minimize(density, OptimizerConfig(target_area=frac * v_tot), init)
        assert trace.status == "converged"
        assert trace.final.length == pytest.approx(want, rel=5e-3)


class TestStationarityReport:
    def test_vertical_chord_is_stationary(self):
        density = symmetric_slab()
        rep = stationarity_report(density, make_straight_chord(density, 0.6))
        assert rep.stationary
        assert rep.hf_spread < 1e-10
        assert rep.hf_mean == pytest.approx(-0.6, rel=1e-12)  # H_f = -2 c x
        assert rep.angle_bottom_deg < 1e-9
        assert rep.angle_top_deg < 1e-9

    def test_tilted_straight_chord_fails_orthogonality(self):
        # constant H_f along a straight line through the Gaussian, but
        # the wall angles are off, so it is not stationary
        density = symmetric_slab()
        rep = stationarity_report(density, make_straight_chord(density, -0.5, 0.5))
        assert rep.hf_spread < 1e-10
        assert not rep.stationary
        assert rep.angle_bottom_deg > 10.0

    def test_angles_only_bind_at_finite_walls(self):
        # the same tilted straight chord on R ends at tail cutoffs, which are
        # not walls: both angles are recorded, neither fails the check
        density = Density(ZeroWeight(), 0.5, 2, (-math.inf, math.inf))
        rep = stationarity_report(density, make_straight_chord(density, -0.5, 0.5))
        assert rep.hf_spread < 1e-10
        assert rep.angle_bottom_deg > 1.0 and rep.angle_top_deg > 1.0
        assert rep.stationary
        # one finite wall: only the end on it is held to 0.5 degrees
        half = Density(ZeroWeight(), 0.5, 2, (-1.0, math.inf))
        assert not stationarity_report(half, make_straight_chord(half, -0.5, 0.5)).stationary

    def test_bent_chord_has_varying_curvature(self):
        density = unit_slab()
        rep = stationarity_report(density, bent_chord())
        assert rep.hf_spread > 1e-2
        assert not rep.stationary


class TestTraceCsv:
    def test_round_trip(self):
        density = symmetric_slab()
        v_tot = total_weighted_volume(density)
        _, trace = minimize(
            density,
            OptimizerConfig(target_area=v_tot / 2.0),
            make_straight_chord(density, -0.3, 0.3),
        )
        text = trace_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "iter,length,area_err,grad_norm"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == len(trace.iterations)
        assert float(rows[-1][1]) == trace.lengths[-1]
        assert int(rows[0][0]) == 0
