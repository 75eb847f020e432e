"""Tests for the fixed-area chord length optimizer.

Oracles: vertical chords have closed-form weighted length and enclosed
area; straight tilted chords are checked against adaptive 2-D
quadrature values frozen below; the analytic shape gradient and the
exact Hessians are checked against central finite differences; full
descents are checked against the perpendicular profile value at the
target area.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import isoflow.optimize as opt
from isoflow.errors import ConfigError, DomainError, GeometryError
from isoflow.optimize import (
    ChordSpline,
    enclosed_area,
    make_straight_chord,
    minimize,
    shape_gradient,
    stationarity_report,
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


def bent_chord(seed: int = 7, scale: float = 0.2, m: int = 10, density=None) -> ChordSpline:
    rng = np.random.default_rng(seed)
    return ChordSpline(density or unit_slab(), scale * rng.standard_normal(m))


class TestChordSpline:
    def test_vertical_chord_builds(self):
        ch = make_straight_chord(unit_slab(), 0.3)
        assert ch.density.cut == (0.0, 1.0)
        points = opt.chord_curve(ch).points
        assert np.allclose(points[:, 0], 0.3)
        assert np.allclose(points[[0, 200, 400], 1], [0.0, 0.5, 1.0])

    def test_nonfinite_controls_rejected(self):
        cx = np.zeros(6)
        cx[3] = math.nan
        with pytest.raises(GeometryError, match="finite"):
            ChordSpline(unit_slab(), cx)

    @pytest.mark.parametrize("ends", [(12.0, math.inf), (math.inf, None), (0.0, -math.inf), (math.nan, 0.0)])
    def test_nonfinite_straight_chord_refused_without_a_warning(self, ends):
        """(12, inf) printed "RuntimeWarning: invalid value encountered in
        multiply" from the ramp's arithmetic before this same error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="control abscissas must be finite"):
                make_straight_chord(unit_slab(), *ends)

    def test_too_few_controls_rejected(self):
        with pytest.raises(GeometryError, match="control"):
            ChordSpline(unit_slab(), np.zeros(3))

    def test_chord_owns_its_abscissas(self):
        # the chord holds its fields, so a caller's later write to the
        # array it passed in must change neither the controls nor the length
        cx = np.zeros(6)
        ch = ChordSpline(symmetric_slab(), cx)
        before = weighted_length(ch)
        cx += 1.0
        assert np.all(ch.control_x == 0.0)
        assert weighted_length(ch) == before
        assert weighted_length(ChordSpline(ch.density, ch.control_x)) == before
        assert not ch.control_x.flags.writeable
        with pytest.raises(ValueError):
            ch.control_x[0] = 1.0

    def test_translation_shifts_abscissas(self):
        ch = bent_chord()
        shifted = ch.translated(0.7)
        assert np.allclose(shifted.control_x, ch.control_x + 0.7)
        assert shifted.density is ch.density

    def test_infinite_slab_truncated_by_tail_rule(self):
        density = Density(QuadraticWeight(2.0, 0.0, 0.0), 0.5, 2, (0.0, math.inf))
        ch = make_straight_chord(density, 0.0)
        assert ch.density.cut[0] == 0.0
        assert 3.0 < ch.density.cut[1] < 20.0


class TestWeightedLength:
    @pytest.mark.parametrize("s", [0.0, 0.7, -1.3])
    def test_vertical_chord_closed_form(self, s):
        got = weighted_length(make_straight_chord(unit_slab(), s))
        want = math.exp(-0.5 * s * s) * UNIT_SLAB_MASS
        assert got == pytest.approx(want, rel=1e-12)

    def test_symmetric_slab_vertical(self):
        got = weighted_length(make_straight_chord(symmetric_slab(), 0.0))
        assert got == pytest.approx(SYM_SLAB_MASS, rel=1e-12)

    def test_half_space_log_power_weight(self):
        density = Density(LogPowerWeight(2), 0.5, 2, (0.0, math.inf))
        got = weighted_length(make_straight_chord(density, 0.0))
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
        assert weighted_length(ch) == pytest.approx(want, rel=1e-11)

    def test_vanishing_slab_height_limit(self):
        density = Density(ZeroWeight(), 0.5, 2, (0.0, 1e-6))
        got = weighted_length(make_straight_chord(density, 0.0, n_controls=4))
        assert 0.0 < got < 2e-6

    @pytest.mark.parametrize("fraction", [0.5, 0.3, 0.07])
    def test_vertical_chord_length_closed_form(self, fraction):
        # against the quadrature of the vertical chord at the same area
        density = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-1.0, 1.0))
        v_tot = total_weighted_volume(density)
        s = float(gaussian_quantile(0.5, fraction, 1.0 - fraction))
        chord = make_straight_chord(density, s)
        assert enclosed_area(chord) == pytest.approx(fraction * v_tot, rel=1e-12)
        want = weighted_length(chord)
        assert vertical_chord_length(density, fraction) == pytest.approx(want, rel=1e-12)
        if fraction == 0.5:
            assert want == pytest.approx(QUAD_SLAB_MASS, rel=1e-14)


class TestEnclosedArea:
    def test_median_vertical_chord_halves_the_mass(self):
        density = unit_slab()
        v_tot = total_weighted_volume(density)
        got = enclosed_area(make_straight_chord(density, 0.0))
        assert got == pytest.approx(v_tot / 2.0, rel=1e-13)

    def test_far_left_and_far_right_limits(self):
        density = unit_slab()
        v_tot = total_weighted_volume(density)
        assert abs(enclosed_area(make_straight_chord(density, -8.0))) < 1e-12
        assert enclosed_area(make_straight_chord(density, 8.0)) == pytest.approx(
            v_tot, rel=1e-12
        )

    def test_tilted_chord_against_2d_quadrature(self):
        got = enclosed_area(make_straight_chord(unit_slab(), -0.3, 0.5))
        assert got == pytest.approx(TILTED_AREA, rel=1e-8)

    def test_bent_chord_against_2d_quadrature(self):
        from scipy.integrate import dblquad

        ch = bent_chord()
        coefficients = opt._operator(ch.n_controls).coefficients @ ch.control_x
        want = dblquad(
            lambda x, t: math.exp(-0.5 * (x * x + t * t)),
            0.0,
            1.0,
            lambda t: -12.0,
            lambda t: float(opt._evaluate_spline(coefficients, t, 0)),  # θ = t on the cut (0, 1)
        )[0]
        assert enclosed_area(ch) == pytest.approx(want, rel=1e-8)

    def test_translation_derivative_matches_gradient_sum(self):
        # moving every control together is a rigid horizontal translation,
        # so the area gradient entries must sum to the translation rate
        ch = bent_chord(seed=11)
        _, dv_x = shape_gradient(ch)
        h = 1e-6
        fd = (
            enclosed_area(ch.translated(h))
            - enclosed_area(ch.translated(-h))
        ) / (2.0 * h)
        assert float(np.sum(dv_x)) == pytest.approx(fd, rel=1e-8)

    @pytest.mark.xfail(strict=True, reason="ROADMAP items 18 and 26: the area kernel misses the mass "
                       "at a singular wall")
    def test_kernel_holds_the_mass_at_a_singular_wall(self):
        """The kernel sums to the chord's enclosed area as its offset goes to
        +inf, the slab's whole mass.  On log_power m, c = 1/2 on (0, 1) the
        slab factor t^m is unbounded at the wall t = 0, and the plain
        Gauss-Legendre nodes miss mass: 16.773 against 24.538 at m = -0.9,
        4.5627 against 4.5742 at m = -0.5."""
        density = Density(LogPowerWeight(-0.9), 0.5, 2, (0.0, 1.0))
        got = float(np.sum(make_straight_chord(density).fields.kernel))
        assert got == pytest.approx(total_weighted_volume(density), rel=1e-6)

    def test_monotone_in_translation(self):
        ch = bent_chord(seed=2)
        areas = [enclosed_area(ch.translated(tau)) for tau in (-1.0, 0.0, 1.0)]
        assert areas[0] < areas[1] < areas[2]


class TestShapeGradient:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_graph_gradients_match_finite_differences(self, seed):
        density = unit_slab()
        rng = np.random.default_rng(seed)
        m = 10
        cx = 0.3 * rng.standard_normal(m)
        ch = ChordSpline(density, cx)
        dp_x, dv_x = shape_gradient(ch)
        h = 1e-5
        for j in range(m):
            cxp = cx.copy()
            cxm = cx.copy()
            cxp[j] += h
            cxm[j] -= h
            chp = ChordSpline(density, cxp)
            chm = ChordSpline(density, cxm)
            fd_p = (weighted_length(chp) - weighted_length(chm)) / (2 * h)
            fd_v = (enclosed_area(chp) - enclosed_area(chm)) / (2 * h)
            assert dp_x[j] == pytest.approx(fd_p, rel=1e-4, abs=1e-9)
            assert dv_x[j] == pytest.approx(fd_v, rel=1e-4, abs=1e-9)

    def test_wall_sliding_term_at_endpoints(self):
        # the endpoint controls carry an extra conormal term; finite
        # differences see it automatically, so agreement there validates it
        density = symmetric_slab()
        ch = make_straight_chord(density, -0.4, 0.6)
        dp_x, _ = shape_gradient(ch)
        h = 1e-5
        for j in (0, ch.n_controls - 1):
            cxp = ch.control_x.copy()
            cxm = ch.control_x.copy()
            cxp[j] += h
            cxm[j] -= h
            fd = (
                weighted_length(ChordSpline(density, cxp))
                - weighted_length(ChordSpline(density, cxm))
            ) / (2 * h)
            assert dp_x[j] == pytest.approx(fd, rel=1e-4)


HESSIAN_DENSITIES = [
    Density(ZeroWeight(), 0.5, 2, (-1.0, 1.0)),
    Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-1.0, 1.0)),
    Density(LogPowerWeight(2), 0.5, 2, (0.0, math.inf)),
]


class TestSecondVariation:
    """The exact Hessians that the Newton-KKT step is built from."""

    @pytest.mark.parametrize("density", HESSIAN_DENSITIES, ids=["gaussian", "quadratic", "log_power_half"])
    def test_hessians_match_second_differences(self, density):
        chord = bent_chord(seed=3, scale=0.3, density=density)
        h_length, h_area = opt._second_variation(chord)
        m, h = chord.n_controls, 1e-4
        assert np.allclose(h_length, h_length.T, rtol=0.0, atol=1e-14 * np.max(np.abs(h_length)))
        for measure, hessian in ((weighted_length, h_length), (enclosed_area, h_area)):
            def value(*moves):
                control_x = chord.control_x.copy()
                for j, sign in moves:
                    control_x[j] += sign * h
                return measure(ChordSpline(density, control_x))

            fd = np.array([[(value((i, 1), (j, 1)) - value((i, 1), (j, -1))
                             - value((i, -1), (j, 1)) + value((i, -1), (j, -1))) / (4.0 * h * h)
                            for j in range(m)] for i in range(m)])
            assert np.max(np.abs(fd - hessian)) <= 1e-5 * np.max(np.abs(hessian))

    @pytest.mark.parametrize("density", HESSIAN_DENSITIES, ids=["gaussian", "quadratic", "log_power_half"])
    def test_direct_gradient_matches_the_first_variation(self, density):
        # L = Σ qw·f·|γ′| differentiated node by node, against the integrated-by-
        # parts form ∫ H_f B_j f t′ dθ plus the wall terms
        chord = bent_chord(seed=5, scale=0.3, density=density)
        fields = chord.fields
        op = opt._operator(chord.n_controls)
        mass = fields.qw * fields.f
        direct = (op.value.T @ (-2.0 * density.c * fields.x * mass * fields.speed)
                  + op.d1.T @ (mass * fields.dx / fields.speed))
        dp_x, _ = shape_gradient(chord)
        assert np.max(np.abs(direct - dp_x)) <= 1e-12 * np.max(np.abs(dp_x))

    @pytest.mark.parametrize("shift", [0.0, 0.6])
    @pytest.mark.parametrize("density", [
        Density(ZeroWeight(), 0.5, 2, (-1.0, 1.0)),
        Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-1.0, 1.0)),
        Density(QuadraticWeight(1.0, 0.3, 0.0), 2.0, 2, (-0.5, 1.5)),
    ], ids=["gaussian", "quadratic", "tilted_c2"])
    def test_vertical_chord_hessian_is_the_positive_index_form(self, density, shift):
        # at x = s the tangent-space Lagrangian Hessian is the index form
        # I_f(u,u) = ∫ u_t² f dt − 2c ∫ u² f dt on the spline space; Bakry-Emery
        # makes it positive, and its least Ritz value on area-preserving
        # variations is the slab factor's gap λ₁ − 2c
        from scipy.linalg import eigh

        from isoflow.spectrum import poincare_certify

        chord = make_straight_chord(density, shift)
        gradient, area_gradient = shape_gradient(chord)
        mu, gnorm = opt._multiplier(gradient, area_gradient)
        assert mu == pytest.approx(-2.0 * density.c * shift, abs=1e-12)
        assert gnorm < 1e-12
        h_length, h_area = opt._second_variation(chord)
        tangent = np.linalg.qr(area_gradient[:, None], mode="complete")[0][:, 1:]
        reduced = tangent.T @ (h_length - mu * h_area) @ tangent
        fields = chord.fields
        op = opt._operator(chord.n_controls)
        mass = fields.qw * fields.f
        stiffness = op.d1.T @ ((mass / fields.dt)[:, None] * op.d1)
        gram = op.value.T @ ((mass * fields.dt)[:, None] * op.value)
        index = tangent.T @ (stiffness - 2.0 * density.c * gram) @ tangent
        assert np.max(np.abs(reduced - index)) <= 1e-12 * np.max(np.abs(reduced))
        assert np.min(np.linalg.eigvalsh(reduced)) > 0.0
        ritz = eigh(index, tangent.T @ gram @ tangent, eigvals_only=True)[0]
        gap = poincare_certify(density).lambda_value - 2.0 * density.c
        assert gap > 0.0
        assert ritz == pytest.approx(gap, rel=1e-4)

    def test_newton_step_is_a_tangent_descent_direction(self):
        # modified Newton: |λ| replaces an indefinite reduced Hessian's
        # eigenvalues, so the step still descends, and it keeps the area to
        # first order; with a positive definite Hessian it is the KKT solution
        rng = np.random.default_rng(4)
        m = 8
        gradient, area_gradient = rng.standard_normal(m), rng.uniform(0.5, 1.0, m)
        root = rng.standard_normal((m, m))
        positive, indefinite = root @ root.T + np.eye(m), root + root.T
        assert np.min(np.linalg.eigvalsh(indefinite)) < 0.0 < np.max(np.linalg.eigvalsh(indefinite))
        for hessian in (positive, indefinite):
            step = opt._newton_step(hessian, gradient, area_gradient)
            assert abs(float(np.dot(step, area_gradient))) <= 1e-12 * np.linalg.norm(step)
            assert float(np.dot(step, gradient)) < 0.0
        kkt = np.block([[positive, area_gradient[:, None]], [area_gradient[None, :], np.zeros((1, 1))]])
        want = np.linalg.solve(kkt, np.concatenate([-gradient, [0.0]]))[:m]
        assert np.allclose(opt._newton_step(positive, gradient, area_gradient), want, rtol=1e-10, atol=1e-12)


class TestSplineOperators:
    @pytest.mark.parametrize("m", [4, 12, 64])
    @pytest.mark.parametrize("translated", [True, False])
    def test_fields_match_direct_spline(self, m, translated):
        # the cached operators are one spline through the identity matrix;
        # per-chord splines through the controls and through the ramp
        # heights are the independent oracle.  Errors are scaled by the
        # summed term size 1 + Σ_j |B_ij y_j|, not by 1 + |value|: at m = 64
        # a node value is a sum of ±1e4 terms, so both evaluations round at
        # the 1e-11 level.  A translate's area kernel must equal the one
        # written out from its own nodes.
        rng = np.random.default_rng(m)
        density = symmetric_slab()
        ch = ChordSpline(density, 0.3 * rng.standard_normal(m))
        if translated:
            ch = ch.translated(0.37)
        _, x, t, dx, dt, d2x, _, _, kernel, _ = ch.fields
        assert np.array_equal(kernel, reference_area_terms(ch)[0])
        op = opt._operator(m)
        ramp = np.linspace(-1.0, 1.0, m)
        for got, controls, nu, basis, theta in [
            (x, ch.control_x, 0, op.value, op.theta), (t, ramp, 0, op.value, op.theta),
            (dx, ch.control_x, 1, op.d1, op.theta), (dt, ramp, 1, op.d1, op.theta),
            (d2x, ch.control_x, 2, op.d2, op.theta),
            (op.ends @ ch.control_x, ch.control_x, 1, op.ends, [0.0, 1.0]),
        ]:
            want = CubicSpline(np.linspace(0.0, 1.0, m), controls)(theta, nu)
            scale = 1.0 + np.abs(basis) @ np.abs(controls)
            assert np.max(np.abs(got - want) / scale) <= 1e-13

    @pytest.mark.parametrize("m", [4, 12, 64])
    @pytest.mark.parametrize("density", HESSIAN_DENSITIES[1:], ids=["quadratic", "log_power_half"])
    def test_fields_match_the_two_column_product(self, density, m):
        # oracle: the chord as the (x, t) spline through its abscissas and its
        # ramp heights, each field a product of the operators with both control
        # columns.  A product rounds at ε times its summed term size
        # 1 + Σ_j |B_ij y_j|; a field formed from products is held to those
        # errors carried through its first-order sensitivities.
        rng = np.random.default_rng(m)
        a, b = density.cut
        chord = ChordSpline(density, 0.3 * rng.standard_normal(m))
        op = opt._operator(m)
        controls = np.column_stack([chord.control_x, a + (b - a) * np.linspace(0.0, 1.0, m)])
        bases = (op.value, op.d1, op.d2, op.ends)
        (x, t), (dx, dt), (d2x, d2t), ends = ((basis @ controls).T for basis in bases)
        (sx, st), (sdx, sdt), (sd2x, sd2t), s_ends = ((1.0 + np.abs(basis) @ np.abs(controls)).T
                                                      for basis in bases)
        c, omega = density.c, density.weight.value(t)
        f = np.exp(omega - c * (x * x + t * t))
        kernel = op.weights * np.exp(omega - c * t * t) * dt * math.sqrt(math.pi / c)
        log_t = np.abs(density.weight.deriv(t) - 2.0 * c * t)  # |∂ log f/∂t|
        kernel_scale = np.abs(kernel) * (1.0 + log_t * st + sdt / dt)
        got = chord.fields
        for new, old, scale in [
            (got.x, x, sx), (got.t, t, st), (got.dx, dx, sdx), (got.dt, dt, sdt), (got.d2x, d2x, sd2x),
            (0.0, d2t, sd2t), (got.speed, np.hypot(dx, dt), sdx + sdt),
            (got.f, f, f * (1.0 + 2.0 * c * np.abs(x) * sx + log_t * st)),
            (got.kernel, kernel, kernel_scale),
            (got.area, np.sum(kernel * gaussian_cdf(c, x)), np.sum(kernel_scale + np.abs(kernel) * sx)),
            (op.ends @ chord.control_x, ends[0], s_ends[0]), (b - a, ends[1], s_ends[1]),
        ]:
            assert np.max(np.abs(new - old) / scale) <= 1e-13

    def test_minimize_builds_one_spline(self, monkeypatch):
        """A graph-chord descent and the resampling of its result solve for
        the basis once; another control count solves once more."""
        builds = []
        real = opt._not_a_knot

        def counting(m):
            builds.append(m)
            return real(m)

        monkeypatch.setattr(opt, "_not_a_knot", counting)
        opt._operator.cache_clear()
        density = symmetric_slab()
        target = 0.5 * total_weighted_volume(density)
        chord, trace = minimize(make_straight_chord(density, -0.3, 0.4), target)
        assert trace.status == "converged"
        opt.chord_curve(chord)
        assert builds == [12]
        other = make_straight_chord(density, -0.3, 0.4, n_controls=6)
        opt.chord_curve(other)
        weighted_length(other)
        assert builds == [12, 6]


class TestNotAKnotBasis:
    """The one spline basis of the chords on m uniform knots: B_j, B_j′ and
    B_j″ at the quadrature nodes and at probes, and B_j′ at the ends.  A
    combination Σ_j B_j y_j rounds at ε times its summed term size
    1 + Σ_j |B_j y_j|, which bounds every error below at 1e-13."""

    @staticmethod
    def bases(m: int):
        """(θ, ν, the (θ, m) matrix of B_j^(ν)): B, B′, B″ over the
        quadrature nodes, the knots and uniform probes, and B′ at θ = 0, 1."""
        op = opt._operator(m)
        probes = np.concatenate([np.linspace(0.0, 1.0, m), np.linspace(0.0, 1.0, 301)])
        theta = np.concatenate([op.theta, probes])
        for nu, field in enumerate((op.value, op.d1, op.d2)):
            yield theta, nu, np.vstack([field, opt._evaluate_spline(op.coefficients, probes, nu)])
        yield np.array([0.0, 1.0]), 1, op.ends

    @pytest.mark.parametrize("m", [4, 12, 64])
    @pytest.mark.parametrize("power", [(1.0,), (0.0, 1.0), (0.3, -1.7, 2.9, -4.1)],
                             ids=["one", "theta", "cubic"])
    def test_reproduces_cubics(self, m, power):
        """Σ_j B_j ≡ 1 and Σ_j B_j θ_j ≡ θ, with their derivatives, and any cubic."""
        p = np.polynomial.Polynomial(power)
        y = p(np.linspace(0.0, 1.0, m))
        for theta, nu, basis in self.bases(m):
            scale = 1.0 + np.abs(basis) @ np.abs(y)
            assert np.max(np.abs(basis @ y - p.deriv(nu)(theta)) / scale) <= 1e-13, nu

    @pytest.mark.parametrize("m", [4, 12, 64])
    def test_matches_scipy_within_rounding(self, m):
        reference = CubicSpline(np.linspace(0.0, 1.0, m), np.eye(m))
        for theta, nu, basis in self.bases(m):
            scale = 1.0 + np.abs(basis).sum(axis=1, keepdims=True)
            assert np.max(np.abs(basis - reference(theta, nu)) / scale) <= 1e-13, nu


class TestFieldsComputedOnce:
    """Node fields are computed once, when the chord is built, and stored read-only."""

    def test_minimize_computes_each_chords_fields_once(self, monkeypatch):
        computed = []
        real = opt._evaluate_fields

        def counting(chord):
            computed.append(chord)  # keeps every chord alive, so ids stay distinct
            return real(chord)

        monkeypatch.setattr(opt, "_evaluate_fields", counting)
        density = symmetric_slab()
        target = 0.5 * total_weighted_volume(density)
        _, trace = minimize(make_straight_chord(density, -0.3, 0.4), target)
        assert trace.status == "converged"
        assert len({id(chord) for chord in computed}) == len(computed)
        # about two chords per iteration: the trial step and its area restoration
        assert len(computed) <= 3 * len(trace.iterations)

    def test_cached_arrays_are_read_only(self):
        chord = bent_chord()
        fields = chord.fields
        with pytest.raises(AttributeError):
            chord.fields = None
        assert isinstance(fields.dt, float) and isinstance(fields.area, float)
        for array in (fields.qw, fields.x, fields.t, fields.dx, fields.d2x, fields.speed, fields.f,
                      fields.kernel):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_a_chord_reads_its_own_density(self):
        flat, tilted = symmetric_slab(), Density(QuadraticWeight(1.0, 0.5), 0.5, 2, (-1.0, 1.0))
        chord = make_straight_chord(flat, 0.2)
        for _ in range(2):  # a re-used chord reads what a fresh one reads
            assert weighted_length(chord) == weighted_length(make_straight_chord(flat, 0.2))
            assert enclosed_area(chord) == enclosed_area(make_straight_chord(flat, 0.2))
        flat_length = SYM_SLAB_MASS * math.exp(-0.02)  # e^{-c x^2} at x = 0.2
        assert weighted_length(chord) == pytest.approx(flat_length, rel=1e-12)
        assert weighted_length(make_straight_chord(tilted, 0.2)) < 0.9 * flat_length


class TestMinimizeArguments:
    @staticmethod
    def descend(target_area: float):
        density = symmetric_slab()
        return minimize(make_straight_chord(density, 0.0), target_area)

    @pytest.mark.parametrize("area", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_area(self, area):
        with pytest.raises(ConfigError, match="target area must be positive"):
            self.descend(target_area=area)


class TestRestoreArea:
    """The Newton root polish, which point-symmetric starts never reach."""

    @staticmethod
    def chords(density):
        rng = np.random.default_rng(5)
        m = 10
        yield make_straight_chord(density, -0.4, 0.1, n_controls=m)
        yield ChordSpline(density, 0.15 * rng.standard_normal(m) + 0.3)
        yield ChordSpline(density, 0.4 * rng.standard_normal(m) - 0.2)

    @pytest.mark.parametrize("fraction", [0.2, 0.5, 0.83])
    @pytest.mark.parametrize("weight", [ZeroWeight(), QuadraticWeight(1.0, 0.4, 0.0)])
    def test_restored_area_and_offset_match_brent(self, weight, fraction):
        from scipy.optimize import brentq

        density = Density(weight, 0.5, 2, (-1.0, 1.0))
        target = fraction * total_weighted_volume(density)
        for chord in self.chords(density):
            err0 = enclosed_area(chord) - target
            assert abs(err0) > 1e-3  # starts off target, so the polish runs
            restored = opt._restore_area(chord, target)
            assert abs(enclosed_area(restored) - target) <= 1e-14 * (1.0 + target)
            tau = float(np.mean(restored.control_x - chord.control_x))
            want = brentq(lambda s: enclosed_area(chord.translated(s)) - target,
                          -5.0, 5.0, xtol=1e-15)
            assert tau == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("fraction", [0.5, 0.9])
    def test_a_wide_gaussian_measures_in_its_own_length_unit(self, fraction):
        """At c = 1e-6 the Gaussian length unit 1/√(2c) is 707.  The area
        error, rounded at 1e-16 of a target near 1772 and with slope 2 in the
        offset τ, resolves τ to about 1e-13, so a stop of 1e-14 never held
        ("did not converge"); at 0.9 the root τ ≈ 906 lay past a bracket
        reach of 1e3 ("target too large").  Both scale with the unit now,
        and the descent meets the vertical chord."""
        density = Density(ZeroWeight(), 1e-6, 2, (-1.0, 1.0))
        _, trace = minimize(make_straight_chord(density, -0.3, 0.3),
                            fraction * total_weighted_volume(density))
        assert trace.status == "converged"
        assert trace.final.length == pytest.approx(vertical_chord_length(density, fraction), rel=1e-12)


    @pytest.mark.xfail(strict=True, raises=DomainError, reason="ROADMAP item 19: the root loop runs "
                       "near the subnormal range and misses its absolute stop")
    def test_a_tiny_target_converges(self):
        """A target of 1e-300 on gaussian_slab ends in "area restoration did
        not converge"; 1e-30 converges."""
        density = symmetric_slab()
        chord, trace = minimize(make_straight_chord(density, -0.3, 0.3), 1e-300)
        assert trace.status == "converged"
        assert abs(enclosed_area(chord) - 1e-300) <= 1e-12 * 1e-300


def reference_area_terms(chord):
    """(kernel, x) with V_f(E) = Σ kernel·Φ_c(x), written out from the spline
    operators and the ramp t = a + (b − a)θ: kernel = qw·e^{ω(t)−ct²}·t′·√(π/c)
    at the quadrature nodes."""
    op = opt._operator(chord.n_controls)
    density = chord.density
    (a, b), c = density.cut, density.c
    t = a + (b - a) * op.theta
    kernel = op.weights * np.exp(density.weight.value(t) - c * t * t) * (b - a) * math.sqrt(math.pi / c)
    return kernel, op.value @ chord.control_x


def reference_area(chord):
    kernel, x = reference_area_terms(chord)
    return float(np.sum(kernel * gaussian_cdf(chord.density.c, x)))


def reference_restore(chord, target):
    """The area restoration with every probe, the first included, evaluated
    as Σ kernel·Φ_c(x + τ) − target.  Returns the chord and the number of
    Newton steps taken."""
    kernel, x = reference_area_terms(chord)
    c = chord.density.c

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

    def test_restorations_match_the_written_out_area(self, monkeypatch):
        density = Density(QuadraticWeight(1.0, 0.4, 0.0), 0.5, 2, (-1.0, 1.0))
        target = 0.3 * total_weighted_volume(density)
        start = make_straight_chord(density, -0.3, 0.1)
        newton_steps = []
        real = opt._restore_area

        def checked(chord, target):
            restored = real(chord, target)
            want, steps = reference_restore(chord, target)
            assert np.array_equal(restored.control_x, want.control_x)
            assert restored.density is want.density is density
            assert enclosed_area(restored) == reference_area(restored)
            newton_steps.append(steps)
            return restored

        monkeypatch.setattr(opt, "_restore_area", checked)
        _, trace = minimize(start, target)
        assert trace.status == "converged"
        # the start and every trial step leave the target area
        assert newton_steps and all(steps > 0 for steps in newton_steps)
        assert np.max(trace.area_errors) <= 1e-14 * (1.0 + target)


class TestMinimize:
    def test_tilted_chord_descends_to_vertical(self):
        density = symmetric_slab()
        v_tot = total_weighted_volume(density)
        shift = math.tan(math.radians(30.0))
        init = make_straight_chord(density, -shift, shift)
        final, trace = minimize(init, v_tot / 2.0)
        assert trace.status == "converged"
        assert trace.final.length == pytest.approx(SYM_SLAB_MASS, rel=5e-3)
        assert trace.final.stationary
        assert max(trace.final.angle_bottom_deg, trace.final.angle_top_deg) < 1.0
        assert np.max(np.abs(final.control_x)) < 1e-4

    def test_vertical_chord_is_immediately_stationary(self):
        density = symmetric_slab()
        v_tot = total_weighted_volume(density)
        _, trace = minimize(make_straight_chord(density, 0.0), v_tot / 2.0)
        assert trace.status == "converged"
        assert len(trace.iterations) == 1
        assert trace.gradient_norms[0] < 1e-8

    def test_descent_is_monotone_and_area_is_held(self):
        density = symmetric_slab()
        v_tot = total_weighted_volume(density)
        init = make_straight_chord(density, -0.8, 0.5)
        _, trace = minimize(init, 0.4 * v_tot)
        assert np.all(np.diff(trace.lengths) <= 1e-12)
        assert np.max(trace.area_errors) <= 1e-8 * v_tot

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_initializations_reach_the_profile_value(self, seed):
        density = symmetric_slab()
        v_tot = total_weighted_volume(density)
        rng = np.random.default_rng(seed)
        init = ChordSpline(density, 0.6 * rng.standard_normal(12))
        _, trace = minimize(init, v_tot / 2.0)
        assert trace.status == "converged"
        assert trace.final.stationary
        assert len(trace.iterations) <= 20
        assert trace.final.length == pytest.approx(SYM_SLAB_MASS, rel=5e-3)

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
        _, trace = minimize(init, frac * v_tot)
        assert trace.status == "converged"
        assert trace.final.length == pytest.approx(want, rel=5e-3)

    def test_the_descent_backtracks_past_a_trial_that_raises(self, monkeypatch):
        """A trial whose area restoration raises is backtracked, not fatal:
        the second restoration, the first trial's, raises DomainError."""
        restore, calls = opt._restore_area, []

        def failing_first_trial(chord, target):
            calls.append(chord)
            if len(calls) == 2:
                raise DomainError("planted restoration failure")
            return restore(chord, target)

        monkeypatch.setattr(opt, "_restore_area", failing_first_trial)
        density = symmetric_slab()
        _, trace = minimize(make_straight_chord(density, -0.3, 0.3), 0.5 * total_weighted_volume(density))
        assert len(calls) > 2  # the planted raise happened, and the descent went on
        benchmark = vertical_chord_length(density, 0.5)
        assert trace.status == "converged"
        assert abs(trace.final.length - benchmark) <= 5e-3 * benchmark


class TestStationarityReport:
    def test_vertical_chord_is_stationary(self):
        density = symmetric_slab()
        chord = make_straight_chord(density, 0.6)
        rep = stationarity_report(chord)
        assert rep.stationary
        assert rep.hf_spread < 1e-10
        # H_f = -2 c x0 at every node
        np.testing.assert_allclose(opt._f_mean_curvature(chord), -2 * density.c * 0.6, rtol=1e-12)
        assert rep.angle_bottom_deg < 1e-9
        assert rep.angle_top_deg < 1e-9

    def test_tilted_straight_chord_fails_orthogonality(self):
        # constant H_f along a straight line through the Gaussian, but
        # the wall angles are off, so it is not stationary
        density = symmetric_slab()
        rep = stationarity_report(make_straight_chord(density, -0.5, 0.5))
        assert rep.hf_spread < 1e-10
        assert not rep.stationary
        assert rep.angle_bottom_deg > 10.0

    def test_angles_only_bind_at_finite_walls(self):
        # the same tilted straight chord on R ends at tail cutoffs, which are
        # not walls: both angles are recorded, neither fails the check
        density = Density(ZeroWeight(), 0.5, 2, (-math.inf, math.inf))
        rep = stationarity_report(make_straight_chord(density, -0.5, 0.5))
        assert rep.hf_spread < 1e-10
        assert rep.angle_bottom_deg > 1.0 and rep.angle_top_deg > 1.0
        assert rep.stationary
        # one finite wall: only the end on it is held to 0.5 degrees
        half = Density(ZeroWeight(), 0.5, 2, (-1.0, math.inf))
        assert not stationarity_report(make_straight_chord(half, -0.5, 0.5)).stationary

    def test_bent_chord_has_varying_curvature(self):
        rep = stationarity_report(bent_chord())
        assert rep.hf_spread > 1e-2
        assert not rep.stationary


class TestChordCurve:
    @pytest.mark.parametrize("weight, slab, flags", [
        (ZeroWeight(), (-1.0, 1.0), (True, True)),
        (LogPowerWeight(2.0), (0.0, math.inf), (True, False)),
        (ZeroWeight(), (-math.inf, math.inf), (False, False)),
    ])
    def test_only_ends_on_a_finite_wall_are_flagged(self, weight, slab, flags):
        """An end on a finite wall sits at the wall's height exactly, the
        rule jacobi_residual applies; an end at the tail cutoff of an
        infinite side is not part of the boundary."""
        density = Density(weight, 0.5, 2, slab)
        curve = opt.chord_curve(make_straight_chord(density, -0.3, 0.3))
        assert (curve.points[0, 1] in density.slab, curve.points[-1, 1] in density.slab) == flags
