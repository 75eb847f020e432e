"""Weight variants, pointwise density data, and the slab-mass engine."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import erf

from scipy.integrate import quad

import isoflow
from isoflow import (
    AffineWeight,
    ConsistencyError,
    CumulativeDensity1D,
    Density,
    DomainError,
    LogPowerWeight,
    PiecewiseLinearWeight,
    QuadraticWeight,
    SmoothnessError,
    Weight1D,
    ZeroWeight,
    bakry_emery_curvature,
    build_profile,
    build_transport,
    check_concavity,
    gaussian_factor,
    load_config,
    log_density_gradient,
    make_straight_chord,
    total_weighted_volume,
    vertical_segment,
)
from isoflow import weights
from isoflow.spectrum import build_spectral_problem, poincare_certify
from isoflow.weights import (
    _TAIL_MASS,
    _TAIL_PAD,
    _erfc,
    _gauss_legendre,
    _node_sum,
    gaussian_cdf,
    gaussian_quantile,
)

INF = math.inf


def gaussian_mass(c: float, lo: float, hi: float) -> float:
    """Closed-form oracle int_lo^hi e^{-c t^2} dt via the error function."""
    s = math.sqrt(c)
    return math.sqrt(math.pi / c) / 2.0 * (erf(s * hi) - erf(s * lo))


def slab_mass(density) -> float:
    """int e^{omega - c t^2} over the slab by the engine under test: V_f over
    the Gaussian factor of the lateral coordinate."""
    return total_weighted_volume(density) / gaussian_factor(density.c)


def quadpack_mass(density, lo=None, hi=None) -> float:
    """Independent oracle: int_lo^hi e^{omega - c t^2} dt by QUADPACK,
    over the slab by default."""
    a, b = density.slab
    w, c = density.weight, density.c
    return quad(lambda t: math.exp(float(w.value(t)) - c * t * t), a if lo is None else lo,
                b if hi is None else hi, epsabs=0.0, epsrel=1e-13, limit=500)[0]


class TestLogDensity:
    def test_zero_weight_origin(self):
        d = Density(ZeroWeight(), 1.0, 2, (-INF, INF))
        assert d.psi(0.0, 0.0) == 0.0

    def test_affine_substitution(self):
        d = Density(AffineWeight(3.0, 0.0), 1.0, 2, (-INF, INF))
        assert_allclose(d.psi(1.0, 2.0), 3.0 * 2.0 - 5.0)

    def test_log_power_substitution(self):
        d = Density(LogPowerWeight(2.0), 0.5, 2, (0.0, INF))
        assert_allclose(d.psi(0.0, 1.0), -0.5)

    def test_vectorized_points(self):
        d = Density(QuadraticWeight(1.0, 0.5, -0.25), 0.75, 2, (-INF, INF))
        pts = np.array([[0.1, 0.2], [-1.0, 0.5], [2.0, -3.0]])
        vals = d.psi(pts[:, 0], pts[:, 1])
        for p, v in zip(pts, vals):
            t = p[1]
            expected = -t * t + 0.5 * t - 0.25 - 0.75 * (p @ p)
            assert_allclose(v, expected, rtol=1e-14)


    def test_equals_the_reduction_bit_for_bit(self):
        d = Density(QuadraticWeight(1.0, 0.3, 0.1), 0.7, 2, (-INF, INF))
        pts = 3.0 * np.random.default_rng(2).standard_normal((40, 12, 2))
        want = d.weight.value(pts[..., -1]) - d.c * np.sum(pts * pts, axis=-1)
        assert np.array_equal(d.psi(pts[..., 0], pts[..., 1]), want)


class TestFloatDerivative:
    """deriv of a Python float is a float with the bits of the array path,
    and raises where the array path raises.  nan gives nan: the piecewise
    weight gave its last segment's slope, -1.8 for PIECEWISE, on both paths."""

    PIECEWISE = PiecewiseLinearWeight((-1.0, -0.2, 0.5, 1.0), (0.0, 0.4, 0.3, -0.6))

    @pytest.mark.parametrize(
        "weight, points",
        [
            (ZeroWeight(), (-3.7, -0.0, 0.0, 1e-300, 2.5, math.nan)),
            (AffineWeight(0.7, -0.2), (-3.7, 0.0, 2.5, math.nan)),
            (AffineWeight(2, 1), (0.3,)),  # integer coefficients
            (QuadraticWeight(1.3, 0.4, 0.1), (-3.7, -0.0, 0.1, 2.5, 1e300, INF, math.nan)),
            (LogPowerWeight(2.5), (1e-300, 0.1, 1.0, 7.3, INF, math.nan)),
            (LogPowerWeight(-0.5), (0.3, 2.0)),
            (PIECEWISE, (-1.0, -0.7, -0.2 + 1e-16, 0.1, 0.5 - 1e-16, 0.9, 1.0, math.nan)),
        ],
        ids=["zero", "affine", "affine-int", "quadratic", "log_power", "log_power-neg", "piecewise"],
    )
    def test_float_matches_the_array_path(self, weight, points):
        for t in points:
            got = weight.deriv(t)
            want = weight.deriv(np.array([t]))[0]
            assert type(got) is float
            assert math.isnan(got) == math.isnan(t), (t, got)
            assert np.array_equal(np.array([got]).view(np.uint64), np.array([want]).view(np.uint64)) or (
                math.isnan(got) and math.isnan(want))

    @pytest.mark.parametrize(
        "weight, t, error",
        [
            (LogPowerWeight(2.0), 0.0, DomainError),
            (LogPowerWeight(2.0), -0.0, DomainError),
            (LogPowerWeight(2.0), -1e-300, DomainError),
            (LogPowerWeight(2.0), -INF, DomainError),
            (PIECEWISE, -1.0 - 2.0**-52, DomainError),
            (PIECEWISE, 1.0 + 2.0**-52, DomainError),
            (PIECEWISE, INF, DomainError),
            (PIECEWISE, -0.2, SmoothnessError),
            (PIECEWISE, 0.5, SmoothnessError),
        ],
    )
    def test_float_raises_as_the_array_path(self, weight, t, error):
        with pytest.raises(error):
            weight.deriv(np.array([t]))
        with pytest.raises(error):
            weight.deriv(t)


class TestLogDensityGradient:
    def test_affine_cancellation(self):
        d = Density(AffineWeight(1.0, 0.0), 0.5, 2, (-INF, INF))
        assert_allclose(log_density_gradient(d, [0.0, 1.0]), [0.0, 0.0])

    def test_gaussian_case(self):
        d = Density(ZeroWeight(), 1.0, 2, (-INF, INF))
        assert_allclose(log_density_gradient(d, [1.0, 1.0]), [-2.0, -2.0])

    def test_quadratic_substitution(self):
        d = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-INF, INF))
        assert_allclose(log_density_gradient(d, [0.0, 1.0]), [0.0, -3.0])

    def test_piecewise_linear_at_knot_rejected(self):
        w = PiecewiseLinearWeight((-1.0, 0.0, 1.0), (0.0, 1.0, 1.5))
        d = Density(w, 0.5, 2, (-1.0, 1.0))
        with pytest.raises(SmoothnessError):
            log_density_gradient(d, [0.3, 0.0])
        # off knots the one-sided slope applies
        g = log_density_gradient(d, [0.0, 0.5])
        assert_allclose(g, [0.0, 0.5 - 0.5])

    def test_finite_difference_consistency_order_h2(self):
        """Central differences of psi converge to grad at second order.

        Needs a weight with nonvanishing third derivative, otherwise the
        central-difference error sits at roundoff from the start.
        """
        d = Density(LogPowerWeight(1.7), 0.8, 2, (0.0, INF))
        p = np.array([0.4, 0.8])
        grad = log_density_gradient(d, p)
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            fd = np.zeros(2)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd[i] = (d.psi(*(p + e)) - d.psi(*(p - e))) / (2 * h)
            errs.append(np.max(np.abs(fd - grad)))
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5


class TestBakryEmeryCurvature:
    def test_gaussian_unit_direction(self):
        d = Density(ZeroWeight(), 0.7, 2, (-INF, INF))
        w = np.array([0.6, 0.8])
        assert_allclose(bakry_emery_curvature(d, [0.0, 0.0], w), 2 * 0.7)

    def test_quadratic_vertical_direction(self):
        d = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-INF, INF))
        assert_allclose(bakry_emery_curvature(d, [0.0, 0.0], [0.0, 1.0]), 3.0)

    def test_affine_horizontal_direction(self):
        d = Density(AffineWeight(5.0, 1.0), 1.0, 2, (-INF, INF))
        assert_allclose(bakry_emery_curvature(d, [0.3, 0.2], [1.0, 0.0]), 2.0)

    @settings(deadline=None, max_examples=60)
    @given(
        kappa=st.floats(0.0, 5.0),
        a0=st.floats(-3.0, 3.0),
        c=st.floats(0.05, 4.0),
        t=st.floats(-5.0, 5.0),
        wx=st.floats(-1.0, 1.0),
        wt=st.floats(-1.0, 1.0),
    )
    def test_concave_weights_meet_curvature_bound(self, kappa, a0, c, t, wx, wt):
        """Concavity forces the curvature form >= 2c on unit directions."""
        norm = math.hypot(wx, wt)
        if norm < 1e-3:
            return
        d = Density(QuadraticWeight(kappa, a0, 0.0), c, 2, (-INF, INF))
        assert check_concavity(d.weight).concave
        w = np.array([wx, wt]) / norm
        val = bakry_emery_curvature(d, [0.0, t], w)
        assert val >= 2.0 * c - 1e-12

    def test_log_power_curvature_bound_on_grid(self):
        c = 0.5
        d = Density(LogPowerWeight(2.5), c, 2, (0.0, INF))
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = rng.uniform(0.01, 10.0)
            w = rng.normal(size=2)
            w /= np.linalg.norm(w)
            assert bakry_emery_curvature(d, [0.0, t], w) >= 2 * c - 1e-12


class TestCheckConcavity:
    def test_piecewise_monotone_slopes_certificate(self):
        # slopes 2, 1, 1, 0
        w = PiecewiseLinearWeight((0.0, 1.0, 2.0, 3.0, 4.0), (0.0, 2.0, 3.0, 4.0, 4.0))
        assert check_concavity(w).concave

    def test_piecewise_increasing_slope_violation(self):
        # slopes 1, 2: concavity fails across knot 1
        w = PiecewiseLinearWeight((0.0, 1.0, 2.0), (0.0, 1.0, 3.0))
        report = check_concavity(w)
        assert not report.concave
        assert "knot 1" in report.detail

    def test_convex_quadratic_violation(self):
        assert not check_concavity(QuadraticWeight(-1.0, 0.0, 0.0)).concave

    def test_negative_log_power_violation(self):
        assert not check_concavity(LogPowerWeight(-0.5)).concave


class TestKappaZero:
    """Zero and affine weights are the quadratics with kappa = 0."""

    @pytest.mark.parametrize("weight, a0, b0", [(ZeroWeight(), 0.0, 0.0), (AffineWeight(0.7, -0.2), 0.7, -0.2)],
                             ids=["zero", "affine"])
    def test_zero_and_affine_are_kappa_zero_quadratics(self, weight, a0, b0):
        assert isinstance(weight, QuadraticWeight)
        assert (weight.kappa, weight.a0, weight.b0) == (0.0, a0, b0)
        assert check_concavity(weight).concave

    @pytest.mark.parametrize("a0, b0", [(0.0, 0.0), (0.7, 0.3), (-0.7, 1.5)])
    def test_the_second_derivative_at_kappa_zero_is_plus_zero(self, a0, b0):
        """omega'' = 0.0 - 2 kappa: +0.0 at kappa = 0, where -2 kappa gives
        -0.0 and would write a signed zero into stability.json."""
        t = np.array([-3.7, -0.0, 0.0, 2.5])
        d2 = QuadraticWeight(0.0, a0, b0).deriv2(t)
        assert np.array_equal(d2.view(np.uint64), np.zeros(t.shape).view(np.uint64))
        assert np.array_equal(QuadraticWeight(1.3, a0, b0).deriv2(t), np.full(t.shape, -2.6))


class NanLeftOfZero(Weight1D):
    """A weight that is nan left of zero and 0 right of it."""

    def value(self, t):
        return np.where(t < 0.0, np.nan, 0.0)


def weight_id(value) -> str:
    """A test id for a weight (its class and parameters) or another parameter."""
    if not isinstance(value, Weight1D):
        return repr(value)
    return f"{type(value).__name__}{tuple(v for k, v in vars(value).items() if k != 'domain')}"


# one weight of each family with an infinite side, log-power on both sides of m = 0
TAIL_WEIGHTS = [
    ZeroWeight(),
    *(AffineWeight(a0, b0) for a0, b0 in [(0.7, 0.0), (1.0, 0.0), (2.0, 0.0), (-1.0, 0.3), (-2.0, 0.0)]),
    QuadraticWeight(1.0), QuadraticWeight(0.5, 0.2, 0.0), QuadraticWeight(-0.2, 0.3, 0.1),
    *(LogPowerWeight(m) for m in (-0.9, -0.5, 0.5, 2.0, 20.0)),
]


class TestIntegrateWeighted:
    """Slab masses from total_weighted_volume, against closed forms and QUADPACK."""

    def test_gaussian_whole_line(self):
        d = Density(ZeroWeight(), 0.5, 2, (-INF, INF))
        assert_allclose(slab_mass(d), math.sqrt(2 * math.pi), rtol=1e-10)

    def test_gaussian_unit_interval_erf_oracle(self):
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        assert_allclose(slab_mass(d), gaussian_mass(0.5, 0.0, 1.0), rtol=1e-10)
        assert_allclose(slab_mass(d), 0.8556243, rtol=1e-6)

    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0])
    def test_gaussian_moments_closed_form(self, c):
        # t^k e^{-c t^2} over the Gaussian's tail interval, by a 600-panel
        # 12-point Gauss-Legendre rule of the test's own
        d = Density(ZeroWeight(), c, 2, (-INF, INF))
        lo, hi = d.cut
        x, w = np.polynomial.legendre.leggauss(12)
        breaks = np.linspace(lo, hi, 601)
        half = 0.5 * np.diff(breaks)[:, None]
        t = 0.5 * (breaks[1:] + breaks[:-1])[:, None] + half * x
        gauss = half * w * np.exp(-c * t * t)
        base = math.sqrt(math.pi / c)
        assert_allclose(np.sum(t * t * gauss), base / (2 * c), rtol=1e-8)
        assert_allclose(np.sum(t**4 * gauss), 3 * base / (4 * c * c), rtol=1e-8)

    def test_shifted_gaussian_complete_square(self):
        a0, c = 1.7, 0.6
        d = Density(AffineWeight(a0, 0.0), c, 2, (-INF, INF))
        oracle = math.sqrt(math.pi / c) * math.exp(a0 * a0 / (4 * c))
        assert_allclose(slab_mass(d), oracle, rtol=1e-8)

    def test_log_power_half_line(self):
        # int_0^inf t^2 e^{-t^2/2} dt = sqrt(2 pi) / 2
        d = Density(LogPowerWeight(2.0), 0.5, 2, (0.0, INF))
        assert_allclose(slab_mass(d), math.sqrt(2 * math.pi) / 2, rtol=1e-9)

    def test_fractional_log_power_gamma_oracle(self):
        # int_0^inf t^m e^{-c t^2} dt = Gamma((m+1)/2) / (2 c^((m+1)/2))
        m, c = 0.5, 0.8
        d = Density(LogPowerWeight(m), c, 2, (0.0, INF))
        oracle = math.gamma((m + 1) / 2) / (2 * c ** ((m + 1) / 2))
        assert_allclose(slab_mass(d), oracle, rtol=1e-9)

    @pytest.mark.parametrize("m", [-0.99, -0.8, -0.5, 0.5, 2.0])
    @pytest.mark.parametrize("b", [1.0, INF])
    def test_singular_log_power_gamma_closed_form(self, m, b):
        # int_0^b t^m e^{-c t^2} dt = gamma((m+1)/2, c b^2) / (2 c^((m+1)/2)),
        # the lower incomplete gamma function; the engine integrates the
        # endpoint power t^m exactly
        from scipy.special import gamma, gammainc

        c, a = 0.5, (m + 1.0) / 2.0
        exact = gamma(a) * (gammainc(a, c * b * b) if b < INF else 1.0) / (2.0 * c**a)
        d = Density(LogPowerWeight(m), c, 2, (0.0, b))
        assert_allclose(slab_mass(d), exact, rtol=1e-12)
        assert_allclose(CumulativeDensity1D(d).total, exact, rtol=1e-12)

    def test_sweep_agrees_with_quadpack(self):
        # two independent quadratures of the 14 acceptance-sweep masses
        sweep = [
            (w, slab)
            for w in (ZeroWeight(), AffineWeight(1.0, 0.0), QuadraticWeight(1.0))
            for slab in ((0.0, 1.0), (-1.0, 1.0), (0.0, INF), (-INF, INF))
        ] + [(LogPowerWeight(2.0), (0.0, 1.0)), (LogPowerWeight(2.0), (0.0, INF))]
        for weight, slab in sweep:
            d = Density(weight, 0.5, 2, slab)
            assert_allclose(slab_mass(d), quadpack_mass(d), rtol=1e-12, err_msg=str((weight, slab)))

    def test_tail_soundness(self):
        """Widening each infinite side's cut by 6/sqrt(c) moves the total by
        at most 1e-14 of it: the truncated tails are negligible."""
        for weight, slab in [
            (ZeroWeight(), (-INF, INF)),
            (AffineWeight(2.0, 0.0), (-INF, INF)),
            (QuadraticWeight(0.5, 1.0, 0.0), (0.0, INF)),
            (LogPowerWeight(2.0), (0.0, INF)),
        ]:
            d = Density(weight, 0.5, 2, slab)
            tight = CumulativeDensity1D(d).total
            lo, hi = d.cut
            pad = 6.0 / math.sqrt(d.c)
            lo_w = lo - pad if math.isinf(slab[0]) else lo
            hi_w = hi + pad if math.isinf(slab[1]) else hi
            # the engine on the finite slab of the widened cut integrates all of it
            wide = CumulativeDensity1D(Density(weight, d.c, 2, (lo_w, hi_w))).total
            assert abs(wide - tight) <= 1e-14 * tight, (weight, slab, wide, tight)

    @pytest.mark.parametrize("c", [0.25, 0.5, 2.0])
    @pytest.mark.parametrize("weight", TAIL_WEIGHTS, ids=weight_id)
    def test_each_unpadded_cut_leaves_at_most_the_tail_mass(self, weight, c):
        """Beyond each infinite side's cut at pad 0 (the spectral pencil's)
        the slab factor carries at most _TAIL_MASS, by mpmath closed forms:
            int_T^inf e^{b0 + a0 t - c_eff t^2} dt
                = e^{b0 + a0^2/(4 c_eff)} sqrt(pi/c_eff)/2 erfc(sqrt(c_eff) (T - a0/(2 c_eff))),
        reflected on the left, for zero, affine and quadratic weights
        (c_eff = c + kappa), and
            int_T^inf t^m e^{-c t^2} dt = Gamma((m+1)/2, c T^2) / (2 c^((m+1)/2))
        for log-power, on (0, inf) and (3, inf).  Before one tail rule the
        affine left tail was 7 to 286 times the level, and a log-power
        m < 0 tail, whose tangent is no bound, 2.2 to 11.5 times."""
        import mpmath as mp

        mp.mp.dps = 30
        if isinstance(weight, LogPowerWeight):
            m, z = weight.m, (weight.m + 1.0) / 2.0
            for a in (0.0, 3.0):
                cut = Density(weight, c, 2, (a, INF))._cut(0.0)[1]
                tail = mp.gammainc(z, c * mp.mpf(cut) ** 2, mp.inf) / (2 * mp.mpf(c) ** z)
                assert tail <= _TAIL_MASS * (1.0 + 1e-9), (a, float(tail / _TAIL_MASS))
            return
        kappa, a0, b0 = weight.kappa, weight.a0, weight.b0  # zero and affine weights are quadratics
        c_eff = c + kappa
        d = Density(weight, c, 2, (-INF, INF))
        mu = mp.mpf(a0) / (2 * c_eff)
        scale = mp.e ** (b0 + mp.mpf(a0) ** 2 / (4 * c_eff)) * mp.sqrt(mp.pi / c_eff) / 2
        for right in (True, False):
            cut = d._cut(0.0)[right]
            tail = scale * mp.erfc(mp.sqrt(c_eff) * ((cut - mu) if right else (mu - cut)))
            assert tail <= _TAIL_MASS * (1.0 + 1e-9), (right, float(tail / _TAIL_MASS))

    @pytest.mark.parametrize("a", [5.0, 6.0, 7.0])
    def test_far_one_sided_quadratic_slabs_match_the_closed_form(self, a):
        """kappa = 1, c = 1/2 on (a, inf) and (-inf, -a): the exact square
        cut the slab short of its mass, off by 6.2e-10 on (5, inf) and 1.1e-2
        on (6, inf), and refused (7, inf), before its cut was kept beyond a
        point inside the slab like every other weight's."""
        c_eff = 1.5
        exact = math.sqrt(math.pi / c_eff) / 2.0 * math.erfc(math.sqrt(c_eff) * a)
        for slab in ((a, INF), (-INF, -a)):
            total = CumulativeDensity1D(Density(QuadraticWeight(1.0), 0.5, 2, slab)).total
            assert abs(total / exact - 1.0) <= 1e-13, (slab, total / exact - 1.0)

    def test_a_far_finite_end_does_not_move_the_other_cut(self):
        """Zero weight, c = 1/2: the left cut of (-inf, 20) is the left cut of
        R, -10.88, not -20 as when the guard was taken about |ref|."""
        lo, hi = Density(ZeroWeight(), 0.5, 2, (-INF, 20.0)).cut
        assert hi == 20.0
        assert lo == Density(ZeroWeight(), 0.5, 2, (-INF, INF)).cut[0]
        assert lo == pytest.approx(-10.883, abs=1e-3)

    @pytest.mark.parametrize("weight, slab", [
        (AffineWeight(30.0), (-INF, 20.0)), (AffineWeight(-30.0), (-20.0, INF)),
        (QuadraticWeight(1.0, 16.0), (-INF, 3.0)), (QuadraticWeight(1.0, 60.0, -600.0), (-INF, 15.0)),
        (LogPowerWeight(-0.5), (20.0, INF)),
    ], ids=weight_id)
    def test_every_cut_lies_inside_the_slab(self, weight, slab):
        """Each cut lies past a point max(1, 1/sqrt(c_eff)) inside the slab's
        finite end, so neither the engine's interval nor the pencil's, at pad
        1 or stretched 1.25 times, can be empty or cross that end.  The
        quadratic on (-inf, 15) has its left cut at 13.2: 1.25 times it, the
        old stretch about 0, lies past 15 ("empty computational interval")."""
        d = Density(weight, 0.5, 2, slab)
        a, b = slab
        lo, hi = d.cut
        assert a <= lo < hi <= b
        for pad in (1.0, 1.25):
            nodes = build_spectral_problem(d, n_cells=64, pad=pad).nodes
            assert a < nodes[0] and nodes[-1] < b


class TestNormalizers:
    """alpha and beta of the monotone transport: reciprocal masses of
    e^{-c s^2} on R and of e^{omega - c t^2} on the slab."""

    def test_gaussian_half(self):
        d = Density(ZeroWeight(), 0.5, 2, (-INF, INF))
        tmap = build_transport(d)
        alpha, beta = tmap.alpha, tmap.beta
        assert_allclose(alpha, 1 / math.sqrt(2 * math.pi), rtol=1e-12)
        assert_allclose(beta, alpha, rtol=1e-10)

    def test_gaussian_unit(self):
        d = Density(ZeroWeight(), 1.0, 2, (-INF, INF))
        tmap = build_transport(d)
        alpha, beta = tmap.alpha, tmap.beta
        assert_allclose(alpha, 1 / math.sqrt(math.pi), rtol=1e-12)
        assert_allclose(alpha, 0.5641896, rtol=1e-6)
        assert_allclose(beta, alpha, rtol=1e-10)

    def test_affine_complete_square(self):
        d = Density(AffineWeight(1.0, 0.0), 0.5, 2, (-INF, INF))
        beta = build_transport(d).beta
        oracle = 1.0 / (math.sqrt(2 * math.pi) * math.exp(0.5))
        assert_allclose(beta, oracle, rtol=1e-9)
        assert_allclose(beta, 0.2419707, rtol=1e-6)


class TestGaussianFactor:
    def test_one_dimensional(self):
        assert_allclose(gaussian_factor(0.5), math.sqrt(2 * math.pi), rtol=1e-14)


class TestDensityValidation:
    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            Density(ZeroWeight(), 0.0, 2, (0.0, 1.0))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_non_planar_density_rejected(self, dim):
        """The model is planar: another dimension is refused when the
        density is built, not by the first curve check that reads it."""
        with pytest.raises(ValueError, match="planar"):
            Density(QuadraticWeight(1.0, 0.3, 0.0), 0.5, dim, (-1.0, 1.0))

    def test_rejects_reversed_slab(self):
        with pytest.raises(ValueError):
            Density(ZeroWeight(), 1.0, 2, (1.0, 0.0))

    def test_log_power_needs_nonnegative_left_edge(self):
        with pytest.raises(ValueError):
            Density(LogPowerWeight(2.0), 1.0, 2, (-1.0, 1.0))

    def test_slab_inside_weight_domain(self):
        w = PiecewiseLinearWeight((-1.0, 1.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            Density(w, 1.0, 2, (-2.0, 1.0))

    def test_piecewise_second_derivative_rejected(self):
        w = PiecewiseLinearWeight((-1.0, 0.0, 1.0), (0.0, 1.0, 1.5))
        d = Density(w, 0.5, 2, (-1.0, 1.0))
        with pytest.raises(SmoothnessError):
            bakry_emery_curvature(d, [0.0, 0.5], [0.0, 1.0])

    def test_log_power_outside_domain(self):
        d = Density(LogPowerWeight(2.0), 0.5, 2, (0.0, INF))
        with pytest.raises(DomainError):
            d.psi(0.0, -1.0)

    @pytest.mark.parametrize("m", [-1.0, -1.5, -3.0])
    def test_non_integrable_log_power_rejected(self, m):
        # t^m is not integrable at 0 for m <= -1; away from 0 it is
        for slab in [(0.0, 1.0), (0.0, INF)]:
            with pytest.raises(DomainError, match="not integrable"):
                Density(LogPowerWeight(m), 0.5, 2, slab)
        d = Density(LogPowerWeight(m), 0.5, 2, (0.5, 2.0))
        assert CumulativeDensity1D(d).total == pytest.approx(quadpack_mass(d), rel=1e-10)

    def test_barely_integrable_log_power_accepted(self):
        d = Density(LogPowerWeight(-0.99), 0.5, 2, (0.0, 1.0))
        # QUADPACK's algebraic-endpoint rule (QAWS) takes the factor t^m exactly
        want = quad(lambda t: math.exp(-0.5 * t * t), 0.0, 1.0, weight="alg", wvar=(-0.99, 0.0),
                    epsabs=0.0, epsrel=1e-13)[0]
        assert want > 0.0
        assert_allclose(slab_mass(d), want, rtol=1e-12)

    @pytest.mark.parametrize("slab", [(-INF, INF), (0.0, INF), (-INF, 0.0)])
    def test_quadratic_needs_c_plus_kappa_positive_on_infinite_slabs(self, slab):
        for kappa in (-0.5, -0.8):
            with pytest.raises(DomainError, match="c \\+ kappa"):
                Density(QuadraticWeight(kappa, 0.3, 0.0), 0.5, 2, slab)
        # a bounded slab keeps any kappa integrable
        d = Density(QuadraticWeight(-0.8, 0.3, 0.0), 0.5, 2, (-1.0, 1.0))
        assert quadpack_mass(d) > 0.0

    def test_a_slab_beyond_the_gaussian_cutoff_integrates(self):
        """The whole slab lies beyond the exact square's Gaussian cutoff.  It
        was refused as "slab mass below the tail tolerance"; its cut now lies
        inside it, and its mass matches the closed form
            e^{b0 + a0^2/(4 c_eff)} sqrt(pi/c_eff)/2 erfc(sqrt(c_eff) (a0/(2 c_eff) - b))."""
        import mpmath as mp

        mp.mp.dps = 30
        kappa, a0, b0, c, b = 1.5498, 2.5101, -0.3587, 3.928, -3.2026
        d = Density(QuadraticWeight(kappa, a0, b0), c, 2, (-INF, b))
        c_eff = mp.mpf(c) + kappa
        exact = (mp.e ** (b0 + mp.mpf(a0) ** 2 / (4 * c_eff)) * mp.sqrt(mp.pi / c_eff) / 2
                 * mp.erfc(mp.sqrt(c_eff) * (a0 / (2 * c_eff) - b)))
        assert abs(total_weighted_volume(d) / gaussian_factor(c) / float(exact) - 1.0) <= 1e-13

    @pytest.mark.parametrize("weight, slab", [
        (ZeroWeight(), (40.0, INF)), (QuadraticWeight(1.0), (-INF, -30.0)),
        (QuadraticWeight(0.0, 0.0, -800.0), (-1.0, 1.0)), (AffineWeight(0.0, 800.0), (-1.0, 1.0)),
        (AffineWeight(0.0, 709.0), (-1.0, 1.0)), (NanLeftOfZero(), (-1.0, 1.0)),
    ], ids=weight_id)
    def test_a_slab_whose_mass_underflows_is_refused(self, weight, slab):
        """A Density whose weighted volume sqrt(pi/c) * mass is not a positive
        finite float is refused when it is built, with no overflow warning:
        e^{omega - c t^2} underflows to 0 all over the slab, overflows (b0 =
        800), leaves a finite mass whose volume overflows (b0 = 709) or is
        nan.  The transport map divided by the zero total, the quadratic
        slab was refused only by the deleted tail-tolerance check, and a
        Density was refused only when its engine was first read, which let
        a nan mass and an overflowing volume through."""
        with pytest.raises(DomainError, match=r"slab mass (0\.0|inf|1\.40637\d*e\+308|nan): .* under- or overflows"):
            Density(weight, 0.5, 2, slab)

    @pytest.mark.parametrize("weight, c", [(ZeroWeight(), 1.0), (QuadraticWeight(1.5), 0.5)], ids=weight_id)
    def test_a_slab_too_wide_for_the_engine_is_refused(self, weight, c):
        """A finite slab is refused when its 600 panels are each wider than 4
        Gaussian widths 1/sqrt(2 c_eff), c_eff = c + kappa for kappa > 0:
        the engine's relative error grows from 3.9e-13 there to 3.6e-2 at 47
        widths.  At 2.8 widths the engine is exact to rounding."""
        c_eff = c + getattr(weight, "kappa", 0.0)
        limit = 300.0 * 4.0 / math.sqrt(2.0 * c_eff)  # half the widest slab
        with pytest.raises(DomainError, match="too wide.*infinite"):
            Density(weight, c, 2, (-limit * 1.01, limit * 1.01))
        with pytest.raises(DomainError, match="too wide"):
            Density(weight, c, 2, (-1e4, 1e4))
        d = Density(weight, c, 2, (-0.7 * limit, 0.7 * limit))
        exact = math.sqrt(math.pi / c_eff) * math.erf(math.sqrt(c_eff) * 0.7 * limit)
        assert abs(slab_mass(d) / exact - 1.0) <= 1e-15


    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["right_infinite", "left_infinite"])
    def test_a_half_infinite_slab_is_judged_on_its_cut(self, sign):
        """The panel rule reads the interval the engine integrates: zero
        weight, c = 1/2 on (-1e4, inf) is cut to (-1e4, 10.88), 16.7 Gaussian
        widths a panel, and its total was off by -9.67e-3.  (-1e3, inf) and
        (-2e3, inf), 1.7 and 3.4 widths, load and integrate to sqrt(2 pi)."""
        def slab(far):
            return tuple(sorted((sign * far, sign * INF)))

        with pytest.raises(DomainError, match=r"cut to .* too wide"):
            Density(ZeroWeight(), 0.5, 2, slab(-1e4))
        for far in (-1e3, -2e3):
            d = Density(ZeroWeight(), 0.5, 2, slab(far))
            assert abs(slab_mass(d) / math.sqrt(2.0 * math.pi) - 1.0) <= 1e-14

    @pytest.mark.parametrize("weight, slab", [(LogPowerWeight(200.0), (0.0, INF)), (AffineWeight(40.0), (-INF, INF))],
                             ids=weight_id)
    def test_a_cut_past_the_float_range_is_refused_by_its_tail_bound(self, weight, slab):
        """The tail bound's amplitude e^{log_k} overflows (log_k = 800 for the
        affine weight, about 9,869 for the log-power one), so the cut is
        infinite: the refusal names the bound, not the engine's panel width."""
        with pytest.raises(DomainError, match=r"cut to .*\binf\).*tail bound overflows") as refused:
            Density(weight, 0.5, 2, slab)
        assert "too wide" not in str(refused.value)

    @pytest.mark.parametrize("slab", [(1e17, INF), (1e300, INF), (-INF, -1e17)])
    def test_a_cut_that_rounds_onto_the_finite_end_is_refused(self, slab):
        """The cut lies a few Gaussian widths past the finite end, a step that
        rounds away there: (1e17, inf) was cut to the empty (1e17, 1e17), and
        on (1e300, inf) the engine's build raised an overflow RuntimeWarning."""
        with pytest.raises(DomainError, match=r"is cut to \((-?1e\+\d+), \1\): .*rounds onto the finite end"):
            Density(ZeroWeight(), 0.5, 2, slab)


# one instance's parameters per weight kind, on a domain holding the slab (0.25, 1)
WEIGHT_PARAMS = [
    (ZeroWeight, ()),
    (AffineWeight, (0.7, 0.1)),
    (QuadraticWeight, (0.5, 0.2, 0.1)),
    (LogPowerWeight, (2.0,)),
    (PiecewiseLinearWeight, ((-1.0, 0.0, 1.0), (0.0, 1.0, 0.5))),
]
RECORD_SLAB = (0.25, 1.0)
WEIGHT_IDS = [cls.__name__ for cls, _ in WEIGHT_PARAMS]
RECORDS = WEIGHT_IDS + ["Density", "TransportMap", "DiscreteCurve", "Profile", "SpectralProblem",
                        "ChordSpline", "RunConfig"]


@pytest.fixture(scope="module")
def records() -> dict:
    """One instance of each of the package's twelve immutable records."""
    d = Density(QuadraticWeight(0.5, 0.2), 0.5, 2, RECORD_SLAB)
    built = {cls.__name__: cls(*params) for cls, params in WEIGHT_PARAMS}
    built.update(
        Density=d,
        TransportMap=build_transport(d),
        DiscreteCurve=vertical_segment(d, 0.2, n=11),
        Profile=build_profile(d, "parallel", grid_size=9),
        SpectralProblem=build_spectral_problem(d, n_cells=16),
        ChordSpline=make_straight_chord(d),
        RunConfig=load_config(str(Path(isoflow.__file__).parent / "configs" / "gaussian_slab.cfg")),
    )
    assert all(type(record).__name__ == name for name, record in built.items())
    return built


class TestRecordContract:
    """Weights and densities compare and hash by identity, and no record
    can be changed once built."""

    @pytest.mark.parametrize("cls, params", WEIGHT_PARAMS, ids=WEIGHT_IDS)
    def test_records_compare_and_hash_by_identity(self, cls, params):
        w1, w2 = cls(*params), cls(*params)
        assert w1 == w1 and w1 != w2 and hash(w1) == object.__hash__(w1)
        d1, d2 = Density(w1, 0.5, 2, RECORD_SLAB), Density(w1, 0.5, 2, RECORD_SLAB)
        assert d1 == d1 and d1 != d2 and hash(d1) == object.__hash__(d1)
        assert d2 not in {d1: "first"}

    def test_piecewise_lists_equal_tuples(self):
        from_lists = PiecewiseLinearWeight([-1, 0, 1], [0, 1, 0.5])
        assert from_lists.knots == (-1.0, 0.0, 1.0) and from_lists.values == (0.0, 1.0, 0.5)

    @pytest.mark.parametrize("name", RECORDS)
    def test_fields_cannot_be_set_or_deleted(self, records, name):
        record = records[name]
        fields = list(vars(record))  # ZeroWeight has none
        for attribute in (*fields, "added"):
            with pytest.raises(AttributeError):
                setattr(record, attribute, 0.0)
            with pytest.raises(AttributeError):
                delattr(record, attribute)
        assert list(vars(record)) == fields

    def test_array_fields_are_read_only(self, records):
        """Every array a record holds, a chord's node fields among them, is
        read-only.  Profile's were writable, and its A and F were one array,
        so a write to F[0] also changed A[0]."""
        arrays = {f"{name}.{field}": value for name, record in records.items()
                  for field, value in vars(record).items() if isinstance(value, np.ndarray)}
        arrays |= {f"ChordSpline.fields.{field}": value
                   for field, value in records["ChordSpline"].fields._asdict().items()
                   if isinstance(value, np.ndarray)}
        holders = {name.split(".")[0] for name in arrays}
        assert {"Profile", "DiscreteCurve", "SpectralProblem", "TransportMap", "ChordSpline"} <= holders
        assert [name for name, array in arrays.items() if array.flags.writeable] == []
        profile = records["Profile"]
        assert not np.shares_memory(profile.A, profile.F)


class TestCumulativeDensity:
    def test_total_matches_adaptive_quadrature(self):
        for weight, slab in [
            (ZeroWeight(), (0.0, 1.0)),
            (AffineWeight(1.0, 0.0), (-INF, INF)),
            (QuadraticWeight(1.0, 0.0, 0.0), (-1.0, 1.0)),
            (LogPowerWeight(2.0), (0.0, INF)),
        ]:
            d = Density(weight, 0.5, 2, slab)
            cum = CumulativeDensity1D(d)
            assert_allclose(cum.total, quadpack_mass(d), rtol=1e-12)

    def test_partial_masses_against_erf(self):
        d = Density(ZeroWeight(), 0.5, 2, (-INF, INF))
        cum = CumulativeDensity1D(d)
        ts = (-3.0, -0.5, 0.0, 0.7, 2.0)
        for t in ts:
            assert_allclose(
                cum.mass_below(t),
                gaussian_mass(0.5, cum.breaks[0], t),
                rtol=1e-12,
                atol=1e-15,
            )
        # a batched query gives the scalar ones' bits
        batch = cum.mass_below(np.array([ts, ts[::-1]]))
        assert batch.shape == (2, len(ts))
        assert batch[0].tobytes() == np.array([cum.mass_below(t) for t in ts]).tobytes()
        assert_allclose(batch[1] + cum.mass_above(np.array(ts[::-1])), cum.total, rtol=1e-15)

    def test_quantile_roundtrip_and_tails(self):
        d = Density(AffineWeight(1.0, 0.0), 0.5, 2, (-INF, INF))
        cum = CumulativeDensity1D(d)
        for q in (1e-12, 1e-6, 0.25, 0.5, 0.75, 1 - 1e-6):
            t = cum.quantile(min(q, 1.0 - q), q <= 0.5)
            assert isinstance(t, float)
            assert_allclose(cum.mass_below(t) / cum.total, q, rtol=1e-9, atol=1e-15)
        # the shifted Gaussian has its median at the drift mean
        assert_allclose(cum.quantile(0.5, True), 1.0, atol=1e-12)
        # batched round trip on the 14 sweep densities and a singular
        # log-power one, both tails; the log-power lower tail lies in the
        # Gauss-Jacobi first panel (for m = -0.8, at t ~ 1e-60).  Each side is
        # checked on the mass it accumulates, to the quadrature's relative
        # accuracy plus the mass of two ulps of t (roots are resolved to
        # about one ulp).
        tails = np.logspace(-12.0, math.log10(0.5), 40)
        q = np.concatenate([tails, 1.0 - tails[-2::-1]])
        p, lower = np.concatenate([tails, tails[-2::-1]]), q <= 0.5
        slabs = ((0.0, 1.0), (-1.0, 1.0), (0.0, INF), (-INF, INF))
        sweep = [
            (w, slab) for w in (ZeroWeight(), AffineWeight(1.0, 0.0), QuadraticWeight(1.0))
            for slab in slabs
        ] + [(LogPowerWeight(m), (0.0, b)) for m, b in ((2.0, 1.0), (2.0, INF), (-0.8, INF))]
        for weight, slab in sweep:
            d = Density(weight, 0.5, 2, slab)
            cum = CumulativeDensity1D(d)
            t = cum.quantile(p, lower)
            assert t.shape == q.shape and np.all(np.diff(t) > 0.0)
            ulp_mass = np.exp(weight.value(t) - 0.5 * t * t) * np.spacing(np.abs(t))
            got = np.where(lower, cum.mass_below(t), cum.mass_above(t))
            want = p * cum.total
            assert np.all(np.abs(got - want) <= 1e-12 * want + 2.0 * ulp_mass), slab

    def test_lost_bracket_raises(self):
        """Cumulative sums that bracket no target raise ConsistencyError.  A
        Density refuses a nan integrand when it is built, so the engine of a
        good density is given an integrand made nan left of zero and the
        sums and total that integrand leaves."""
        d = Density(ZeroWeight(), 0.5, 2, (-1.0, 1.0))
        cum, left = d.cumulative, d.cumulative.breaks < 0.0
        cum._fn = lambda t: np.where(t < 0.0, np.nan, d.slab_factor(t))
        cum._cum_left = np.where(np.arange(left.size) > 0, np.nan, 0.0)
        cum._cum_right = np.where(left, np.nan, cum._cum_right)
        cum.total = math.nan
        with pytest.raises(ConsistencyError):
            cum.quantile(np.array([0.25, 0.25]), np.array([True, False]))

    def test_a_tail_mass_outside_0_1_raises(self):
        """A nan, negative or above-one tail mass is refused, as it is by
        gaussian_quantile, on either side and inside a batch."""
        cum = CumulativeDensity1D(Density(QuadraticWeight(1.0), 0.5, 2, (-1.0, 1.0)))
        for p, lower in ((math.nan, True), (-0.1, False), (1.5, True),
                         (np.array([0.3, math.nan]), np.array([True, False]))):
            with pytest.raises(DomainError, match=r"\[0, 1\]"):
                cum.quantile(p, lower)

    @pytest.mark.parametrize("p, lower", [
        (0.3, 0.7), (0.7, 0.3), (np.array([0.2, 0.3]), np.array([1, 0])),
        (np.array([0.2, 0.3]), np.array([True])), (np.array([0.2, 0.3]), True), (0.2, [True]),
    ], ids=["float", "float-swapped", "int-array", "bool-of-another-shape", "scalar-bool", "list-of-one"])
    def test_a_side_that_is_not_a_boolean_of_p_s_shape_raises(self, p, lower):
        """Either quantile read any lower as truthy, so a call left in the
        two-array form answered another question: gaussian_quantile(0.5,
        0.3, 0.7) returned -0.5244, the lower quantile of 0.3, and
        quantile(0.7, 0.3) solved for mass 0.7 below.  A bool and a list of
        bools of p's shape still pass, as their arrays do."""
        cum = Density(QuadraticWeight(1.0), 0.5, 2, (-1.0, 1.0)).cumulative
        for quantile in (lambda p, lower: gaussian_quantile(0.5, p, lower), cum.quantile):
            with pytest.raises(DomainError, match="sides must be booleans of the probabilities' shape"):
                quantile(p, lower)
            assert quantile(0.3, True) == quantile(np.array(0.3), np.array(True))
            assert quantile([0.2, 0.3], [True, False]).tolist() == quantile(
                np.array([0.2, 0.3]), np.array([True, False])).tolist()


def two_pass_sides(cum, t):
    """Oracle for CumulativeDensity1D.tail_sides: both CDF sides in full, as
    the transport pull-back computed them first."""
    return cum.mass_below(t) / cum.total, cum.mass_above(t) / cum.total


def two_array_sides(cum, t):
    """The two-array route that tail_sides replaced, written out as its
    reference: (q, q_up) = (mass_below(t), mass_above(t)) / total where the
    normal quantile reads them (q where q <= 1/2, q_up elsewhere), both
    sides from one batch of partial masses, the lower side up to the median
    panel and the upper side from it on.  Unread entries are 1.0."""
    t, j, shape = cum._locate(t)
    total, left, right, breaks = cum.total, cum._cum_left, cum._cum_right, cum.breaks
    low, up = j <= cum._median_panel, j >= cum._median_panel
    j_low, j_up = j[low], j[up]
    mass = cum._partial(np.concatenate((breaks[j_low], t[up])), np.concatenate((t[low], breaks[j_up + 1])))
    q, q_up = np.ones(t.size), np.ones(t.size)
    q[low] = (left[j_low] + mass[: j_low.size]) / total
    q_up[up] = (right[j_up + 1] + mass[j_low.size :]) / total
    late = (q > 0.5) & ~up  # q rounded past 1/2 below the median panel
    if late.any():
        q_up[late] = (right[j[late] + 1] + cum._partial(t[late], breaks[j[late] + 1])) / total
    q_up[q <= 0.5] = 1.0
    return (float(q[0]), float(q_up[0])) if shape == () else (q.reshape(shape), q_up.reshape(shape))


def two_array_quantile(c, q, q_upper):
    """The two-array gaussian_quantile(c, q, q_upper) that the (p, lower)
    route replaced, written out as its reference: the complement q_upper =
    1 - q is passed separately, and the side is worked out again from
    q <= 1/2.  Probabilities are not validated."""
    q, q_upper = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(q_upper, dtype=float))
    shape, q, q_upper = q.shape, q.ravel(), q_upper.ravel()
    lower = q <= 0.5
    d = np.where(lower, q - 0.5, 0.5 - q_upper)
    x = np.empty(d.shape)
    central = np.abs(d) <= 0.425
    dc = d[central]
    x[central] = dc * weights._as241(0, 0.180625 - dc * dc)
    tail = ~central
    with np.errstate(divide="ignore"):
        r = np.sqrt(-np.log(np.where(lower, q, q_upper)[tail]))
    v = np.full(r.shape, np.inf)
    near, far = r <= 5.0, np.isfinite(r) & (r > 5.0)
    v[near], v[far] = weights._as241(1, r[near] - 1.6), weights._as241(2, r[far] - 5.0)
    x[tail] = np.where(lower[tail], -v, v)
    return x.reshape(shape) / math.sqrt(2.0 * c)


# the 14 acceptance-sweep densities; log-power 2 on (0, inf) has a
# Gauss-Jacobi first panel
SIDE_DENSITIES = [
    (w, slab) for w in (ZeroWeight(), AffineWeight(1.0, 0.0), QuadraticWeight(1.0))
    for slab in ((0.0, 1.0), (-1.0, 1.0), (0.0, INF), (-INF, INF))
] + [(LogPowerWeight(2.0), (0.0, 1.0)), (LogPowerWeight(2.0), (0.0, INF))]


class TestOneDensityFormula:
    """The engine, the spectral pencil and the parallel profile each read
    the density's formula from Density.slab_factor, bit for bit."""

    @pytest.mark.parametrize("weight, slab", SIDE_DENSITIES)
    def test_every_reader_takes_the_density_formula(self, weight, slab):
        for c in (0.5, 2.0):
            d = Density(weight, c, 2, slab)
            cum = d.cumulative
            assert cum._at_breaks.tobytes() == d.slab_factor(cum.breaks).tobytes()
            pencil = build_spectral_problem(d, n_cells=200)
            lo, hi = d._cut(0.0)
            want = d.slab_factor(pencil.nodes) * ((hi - lo) / 200)
            assert pencil.masses.tobytes() == want.tobytes()
            profile = build_profile(d, "parallel", grid_size=33)
            want = gaussian_factor(c) * d.slab_factor(profile.s)
            assert profile.A.tobytes() == want.tobytes()


def uncached_cutoff(density, right: bool, pad: float) -> float:
    """The tail rule computed whole on every call, as it was before each
    side's unpadded cutoff was cached on its Density."""
    w, c, sign = density.weight, density.c, 1.0 if right else -1.0
    quadratic = isinstance(w, QuadraticWeight)
    c_eff = c + w.kappa if quadratic else c
    root = math.sqrt(c_eff)
    end = density.slab[0 if right else 1]
    u_ref = (sign * end if math.isfinite(end) else 0.0) + max(1.0, 1.0 / root)
    if quadratic:
        slope, amp = sign * w.a0, w.b0
    else:
        ref = sign * u_ref
        slope = 0.0 if isinstance(w, LogPowerWeight) and w.m < 0.0 else sign * float(w.deriv(ref))
        amp = float(w.value(ref)) - slope * u_ref
    cut = weights._gaussian_tail_cutoff(c_eff, slope, amp, _TAIL_MASS) + pad / root
    return sign * max(cut, u_ref + 1.0 / root)


# the sweeps' weights with an infinite slab side, both affine signs and a
# convex log-power, on such slabs (pairs outside a weight's domain are skipped)
CUT_WEIGHTS = [ZeroWeight(), AffineWeight(0.7, 0.0), AffineWeight(-0.7, 0.0), QuadraticWeight(0.5, 0.2, 0.0),
               QuadraticWeight(1.0), LogPowerWeight(2.0), LogPowerWeight(-0.5)]
CUT_SLABS = [(0.0, INF), (-INF, 0.0), (-INF, INF), (3.0, INF), (-INF, -3.0)]


class TestOneTailCutPerSide:
    """Each infinite side's unpadded cutoff is computed once per Density; the
    engine's padded cut and every spectral pencil derive from it, bit for
    bit as when each call computed the whole rule."""

    def test_derived_cuts_equal_the_whole_rule(self):
        checked = 0
        for weight in CUT_WEIGHTS:
            for slab in CUT_SLABS:
                if slab[0] < weight.domain[0] or slab[1] > weight.domain[1]:
                    continue
                for c in (0.25, 0.5, 2.0):
                    d = Density(weight, c, 2, slab)
                    sides = [right for right, end in ((False, slab[0]), (True, slab[1])) if math.isinf(end)]
                    for right in sides:
                        for pad in (0.0, _TAIL_PAD):
                            want = uncached_cutoff(d, right, pad)
                            assert d._cut(pad)[right] == want, (weight, slab, c, right, pad)
                            checked += 1
                    lo, hi = (uncached_cutoff(d, False, _TAIL_PAD) if math.isinf(slab[0]) else slab[0],
                              uncached_cutoff(d, True, _TAIL_PAD) if math.isinf(slab[1]) else slab[1])
                    assert d.cut == (lo, hi)
                    lo, hi = (uncached_cutoff(d, False, 0.0) if math.isinf(slab[0]) else slab[0],
                              uncached_cutoff(d, True, 0.0) if math.isinf(slab[1]) else slab[1])
                    anchor = slab[0] if math.isfinite(slab[0]) else slab[1] if math.isfinite(slab[1]) else 0.0
                    lo, hi = anchor + 1.0 * (lo - anchor), anchor + 1.0 * (hi - anchor)  # the pencil at pad 1
                    delta = (hi - lo) / 16
                    nodes = lo + (np.arange(16) + 0.5) * delta
                    assert build_spectral_problem(d, n_cells=16).nodes.tobytes() == nodes.tobytes()
        assert checked == 204

    def test_repeated_certificates_cut_each_side_once(self, monkeypatch):
        """Two densities on R, three certificates each (two pencils apiece):
        the tail cutoff is computed once per side per Density."""
        calls = []
        cutoff = weights._gaussian_tail_cutoff
        monkeypatch.setattr(weights, "_gaussian_tail_cutoff", lambda *args: calls.append(args) or cutoff(*args))
        for _ in range(2):
            d = Density(AffineWeight(0.7, 0.0), 0.5, 2, (-INF, INF))
            for _ in range(3):
                poincare_certify(d, n_cells=64)
        assert len(calls) == 4
        assert [args[1] for args in calls[:2]] == [-0.7, 0.7]  # the left side, then the right

    def test_two_densities_cut_their_tails_alike(self):
        """A Density keeps its sides' cutoffs and its cut as fields of its
        instance dict, set when it is built."""
        d1, d2 = (Density(AffineWeight(0.7, 0.0), 0.5, 2, (-INF, INF)) for _ in range(2))
        assert "_reach" in vars(d2) and "cut" in vars(d2)
        assert d2.cut == d1.cut and d2._reach == d1._reach


class TestNodeSum:
    """Every Gauss rule is a running sum in node order: one axis-0 reduction,
    which numpy runs row after row, and a loop for a single column, which
    numpy would sum pairwise.  A numpy that reorders axis-0 reductions fails
    here."""

    def test_equals_the_sequential_running_sum(self):
        rng = np.random.default_rng(643)
        w = _gauss_legendre(12)[1]
        for columns in (*range(1, 41), 301, 2001, 8193):
            f = rng.uniform(-1.0, 1.0, (12, columns)) * 10.0 ** rng.uniform(-8.0, 8.0, (12, columns))
            want = f[0] * w[0]
            for k in range(1, 12):
                want = want + f[k] * w[k]
            assert _node_sum(f.copy(), w).tobytes() == want.tobytes(), columns


def floats_below(x: float, n: int) -> np.ndarray:
    """The n floats just below x, nearest first."""
    below = [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -INF))
    return np.array(below[1:])


def probe_heights(cum, rng) -> np.ndarray:
    """Heights in every panel, across the median panel and just below it, in
    the first panel and in the clamped tails, in random order.  For the zero
    weight on (-1, 1) at c = 1/2 the median sits on a break."""
    breaks = cum.breaks
    every_panel = breaks[:-1] + rng.uniform(0.0, 1.0, breaks.size - 1) * np.diff(breaks)
    median = cum.quantile(0.5, True)
    j = int(np.searchsorted(breaks, median, side="right")) - 1
    median_panel = np.concatenate([np.linspace(breaks[j], breaks[j + 1], 61), [median],
                                   np.nextafter(median, [-INF, INF]), floats_below(breaks[j], 64)])
    first_panel = breaks[0] + (breaks[1] - breaks[0]) * np.logspace(-12.0, 0.0, 25)
    tails = [-INF, breaks[0] - 1.0, breaks[0], breaks[-1], breaks[-1] + 1.0, INF]
    return rng.permutation(np.concatenate([every_panel, median_panel, first_panel, tails]))


class TestTailSides:
    """The pull-back's one-sided tail masses, bit for bit against both full
    sides and against the two-array route they replaced."""

    @pytest.mark.parametrize("weight, slab", SIDE_DENSITIES)
    def test_read_side_matches_both_full_passes(self, weight, slab):
        rng = np.random.default_rng(1502)
        for c in (0.5, 2.0):
            cum = CumulativeDensity1D(Density(weight, c, 2, slab))
            heights = probe_heights(cum, rng)
            # whole batches, and chunks that give each call other rows
            cuts = np.cumsum(rng.integers(1, 40, heights.size))
            for t in [heights, heights.reshape(-1, 1), *np.split(heights, cuts[cuts < heights.size])]:
                p, lower = cum.tail_sides(t)
                old_q, old_up = two_pass_sides(cum, t)
                assert p.shape == t.shape and lower.shape == t.shape and lower.dtype == bool
                read = old_q <= 0.5
                assert np.array_equal(lower, read)
                assert p.tobytes() == np.where(read, old_q, old_up).tobytes()
                q, q_up = two_array_sides(cum, t)
                assert np.array_equal(lower, q <= 0.5)
                assert p.tobytes() == np.where(lower, q, q_up).tobytes()
                # an unread side of the full passes may pass 1 by an ulp
                old_s = two_array_quantile(c, np.minimum(old_q, 1.0), np.minimum(old_up, 1.0))
                assert gaussian_quantile(c, p, lower).tobytes() == old_s.tobytes()
                assert gaussian_quantile(c, p, lower).tobytes() == two_array_quantile(c, q, q_up).tobytes()

    @pytest.mark.parametrize("weight, slab", SIDE_DENSITIES)
    def test_scalars_match_the_two_array_route(self, weight, slab):
        """Scalar heights at the walls, at +-inf, across the median panel and
        at 20 random heights give a float and a bool, bit for bit as the
        two-array route, and so does their normal quantile."""
        rng = np.random.default_rng(1503)
        for c in (0.5, 2.0):
            cum = CumulativeDensity1D(Density(weight, c, 2, slab))
            breaks, median = cum.breaks, cum.quantile(0.5, True)
            j = int(np.searchsorted(breaks, median, side="right")) - 1
            special = [-INF, breaks[0], breaks[j], *np.nextafter(median, [-INF, INF]), median,
                       breaks[j + 1], breaks[-1], INF]
            for t in [*special, *probe_heights(cum, rng)[:20]]:
                p, lower = cum.tail_sides(float(t))
                assert isinstance(p, float) and isinstance(lower, bool)
                q, q_up = two_array_sides(cum, float(t))
                assert (lower, p) == ((True, q) if q <= 0.5 else (False, q_up))
                got, want = gaussian_quantile(c, p, lower), two_array_quantile(c, q, q_up)
                assert got.tobytes() == want.tobytes()

    def test_lower_side_past_half_in_the_panel_below_a_median_break(self):
        """Here the median sits on break 300 and the lower side of each of
        the 64 floats below it rounds past 1/2, so those rows read their
        upper side although their panel ends on the median."""
        cum = CumulativeDensity1D(Density(ZeroWeight(), 4.256626920547794, 2, (-3.0, 3.0)))
        assert cum._cum_left[300] / cum.total == 0.5
        t = floats_below(cum.breaks[300], 64)
        p, lower = cum.tail_sides(t)
        old_q, old_up = two_pass_sides(cum, t)
        assert np.all(old_q > 0.5)
        assert not lower.any() and p.tobytes() == old_up.tobytes()
        q, q_up = two_array_sides(cum, t)
        assert q.tobytes() == old_q.tobytes() and q_up.tobytes() == old_up.tobytes()

    def test_scalar_heights_give_floats(self):
        cum = CumulativeDensity1D(Density(LogPowerWeight(2.0), 0.5, 2, (0.0, INF)))
        for t in (0.0, 1e-3, float(cum.quantile(0.5, True)), 3.0, INF):
            p, lower = cum.tail_sides(t)
            assert isinstance(p, float) and isinstance(lower, bool)
            old_q, old_up = two_pass_sides(cum, t)
            assert (p, lower) == ((old_q, True) if old_q <= 0.5 else (old_up, False))
            q, q_up = two_array_sides(cum, t)
            assert p == (q if lower else q_up)
            assert gaussian_quantile(0.5, p, lower) == two_array_quantile(0.5, q, q_up)

    def test_nan_height_raises_and_infinities_clamp(self):
        """nan was clipped into the last panel: mass_below(nan) read 1.32595
        of a total 1.32670, mass_above(nan) 0.0 and mass(0, nan) 0.6626."""
        cum = CumulativeDensity1D(Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-1.0, 1.0)))
        queries = (cum.mass_below, cum.mass_above, cum.tail_sides, lambda t: cum.mass(0.0, t))
        for query in queries:
            for t in (math.nan, np.array([0.0, math.nan])):
                with pytest.raises(DomainError, match="nan"):
                    query(t)
        assert cum.mass_below(-INF) == 0.0 and cum.mass_above(INF) == 0.0
        assert cum.mass_below(INF) == cum.mass_below(1.0)
        assert cum.tail_sides(-INF) == (0.0, True) and cum.tail_sides(INF) == (0.0, False)
        assert two_array_sides(cum, -INF)[0] == 0.0 and two_array_sides(cum, INF)[1] == 0.0
        assert gaussian_quantile(0.5, *cum.tail_sides(np.array([-INF, INF]))).tolist() == [-INF, INF]


def five_forms(query, x, rng) -> list[np.ndarray]:
    """query's per-entry results over the entries x[i] as (len(x), outputs)
    arrays: scalar calls, the whole batch, the batch reversed, an (n, 1)
    column and random chunks.  query returns a tuple of arrays (or floats)."""
    n = len(x)
    cuts = np.cumsum(rng.integers(1, 40, n))

    def flat(values):
        return np.stack([np.ravel(v) for v in values], axis=1)

    return [
        np.array([query(xi) for xi in x]),
        flat(query(x)),
        flat(query(x[::-1]))[::-1],
        flat(query(x.reshape(n, 1, *x.shape[1:]))),
        np.concatenate([flat(query(chunk)) for chunk in np.split(x, cuts[cuts < n])]),
    ]


class TestBatchIndependence:
    """A height gets the same mass, tail side and quantile, bit for bit,
    whether it is queried alone or in any batch.  A matrix-vector product
    rounded a row by its place in the call: for the zero weight on R at
    c = 1/2, 8 of 301 uniform heights' masses below and 7 of 301 uniform
    levels' quantiles differed between scalar and batched queries."""

    @pytest.mark.parametrize("weight, slab", SIDE_DENSITIES)
    def test_scalar_batch_reversed_column_and_chunks_agree(self, weight, slab):
        rng = np.random.default_rng(2020)
        for c in (0.5, 2.0):
            cum = CumulativeDensity1D(Density(weight, c, 2, slab))
            heights = probe_heights(cum, rng)[:200]
            tails = np.concatenate([rng.uniform(0.0, 0.5, 70), np.logspace(-14.0, -1.0, 30)])
            # (p, lower) pairs, lower stored as 1.0 or 0.0: each tail mass on both sides
            levels = rng.permutation(np.concatenate([np.stack([tails, np.ones(100)], axis=1),
                                                     np.stack([tails, np.zeros(100)], axis=1)]))
            queries = (
                (lambda t: (cum.mass_below(t),), heights),
                (lambda t: (cum.mass_above(t),), heights),
                (cum.tail_sides, heights),
                (lambda x: (cum.quantile(x[..., 0], x[..., 1] == 1.0),), levels),
            )
            for query, x in queries:
                scalar, *batched = five_forms(query, x, rng)
                for got in batched:
                    assert got.tobytes() == scalar.tobytes()


class TestArgumentsStayUnwritten:
    """The engine evaluates each batch in place, in arrays it owns."""

    @pytest.mark.parametrize("weight, slab", SIDE_DENSITIES)
    def test_no_query_writes_to_its_arguments(self, weight, slab):
        cum = CumulativeDensity1D(Density(weight, 0.5, 2, slab))
        rng = np.random.default_rng(2403)
        t = probe_heights(cum, rng)
        inside = np.clip(t, cum.breaks[0], cum.breaks[-1])
        edge = cum.breaks[np.minimum(np.searchsorted(cum.breaks, inside, side="right") - 1, cum.breaks.size - 2)]
        q = rng.uniform(0.0, 1.0, 300)
        queries = [
            (cum._partial, edge, inside),
            (cum._partial, inside, edge),
            (cum.mass_below, t),
            (cum.mass_above, t.reshape(-1, 1)),
            (cum.tail_sides, t),
            (cum.quantile, q, q <= 0.5),
            (cum.quantile, np.minimum(q, 1.0 - q), q <= 0.5),
        ]
        for query, *args in queries:
            before = [arg.copy() for arg in args]
            query(*args)
            assert all(arg.tobytes() == old.tobytes() for arg, old in zip(args, before))

    @pytest.mark.parametrize("weight", [
        ZeroWeight(), AffineWeight(1.0, 0.2), QuadraticWeight(1.0, 0.3, 0.1), LogPowerWeight(2.0),
        LogPowerWeight(0.0), PiecewiseLinearWeight((0.0, 0.5, 1.0), (0.0, 0.4, 0.1)),
    ])
    def test_value_is_a_fresh_writable_array(self, weight):
        """The engine overwrites what value returns."""
        t = np.linspace(0.05, 0.95, 24)
        for arg in (t, t.reshape(12, 2), t.reshape(2, 12).T, t[::2]):
            out = weight.value(arg)
            assert isinstance(out, np.ndarray) and out.shape == arg.shape
            assert out.flags.writeable and not np.shares_memory(out, arg)


class TestQuantileWork:
    """Quantiles start from each panel's mass law; the stop rule is unchanged."""

    @pytest.mark.parametrize("weight, slab", SIDE_DENSITIES)
    def test_residual_changes_sign_within_two_ulps(self, weight, slab, monkeypatch):
        """At build_transport's levels and the parallel profile's 257
        Chebyshev levels, the residual on the solved side (mass below t where
        lower, mass above t otherwise) changes sign within 2 ulps of every
        returned t, the worst the solver gave before its starts changed."""
        d = Density(weight, 0.5, 2, slab)
        cum = d.cumulative
        calls, quantile = [], cum.quantile

        def recording(p, lower):
            t = quantile(p, lower)
            calls.append((np.asarray(p, dtype=float), np.asarray(lower), t))
            return t

        monkeypatch.setattr(cum, "quantile", recording)
        build_transport(d)
        build_profile(d, "parallel", grid_size=257)
        assert [t.size for _, _, t in calls] == [2001, 257]
        for p, lower, t in calls:
            target = p * cum.total

            def residual(x):
                return np.where(lower, cum.mass_below(x) - target, target - cum.mass_above(x))

            lo, hi, bracketed = t, t, np.zeros(t.size, dtype=bool)
            for _ in range(3):
                bracketed |= (residual(lo) <= 0.0) & (residual(hi) >= 0.0)
                lo, hi = np.nextafter(lo, -INF), np.nextafter(hi, INF)
            assert bracketed.all(), t[~bracketed]

    def test_transport_quantiles_take_few_passes(self, monkeypatch):
        """Integrand rows per pass, counted on _partial: from a linear start
        quadratic (-1, 1) took 5,356 rows for its 2,001 levels, and log-power 2
        on (0, inf) 19 passes, its first panel's mass growing like t^3."""
        passes = {}
        for name, weight, slab in (("quadratic", QuadraticWeight(1.0), (-1.0, 1.0)),
                                   ("log_power", LogPowerWeight(2.0), (0.0, INF))):
            d = Density(weight, 0.5, 2, slab)
            cum, rows = d.cumulative, passes.setdefault(name, [])
            partial = cum._partial
            monkeypatch.setattr(cum, "_partial", lambda a, b, rows=rows, partial=partial:
                                (rows.append(a.size), partial(a, b))[1])
            build_transport(d)
        assert passes["quadratic"][0] == 2001 and sum(passes["quadratic"]) <= 2 * 2001
        assert passes["log_power"][0] == 2001 and len(passes["log_power"]) <= 4

    def test_no_legendre_integrand_on_jacobi_rows(self, monkeypatch):
        """A log-power first panel integrates by Gauss-Jacobi alone: 12
        Gauss-Legendre points per row in that panel were evaluated and then
        overwritten."""
        cum = CumulativeDensity1D(Density(LogPowerWeight(2.0), 0.5, 2, (0.0, INF)))
        points, fn = [], cum._fn
        monkeypatch.setattr(cum, "_fn", lambda t: (points.append(np.size(t)), fn(t))[1])
        h = cum.breaks[1]
        first, later = h * np.linspace(0.05, 0.95, 10), h * np.linspace(1.5, 39.5, 7)
        t = np.concatenate([first, later])
        for query in (cum.mass_below, cum.mass_above, lambda t: cum.tail_sides(t)[0]):
            points.clear()
            got = query(t)
            assert sum(points) == 12 * later.size
            assert np.all(got[:10] > 0.0)


class TestErfc:
    """The numpy erfc under gaussian_cdf, against mpmath and scipy."""

    def test_within_eight_ulp_of_mpmath(self):
        import mpmath as mp

        rng = np.random.default_rng(7)
        x = np.concatenate([np.linspace(-6.0, 26.5, 1301), rng.uniform(-1.0, 1.0, 300),
                            rng.uniform(0.45, 0.6, 200)])
        got = _erfc(x)
        for xi, gi in zip(x.tolist(), got.tolist()):
            exact = mp.erfc(mp.mpf(xi))
            ulps = abs(mp.mpf(gi) - exact) / math.ulp(float(exact))
            assert ulps <= 8.0, (xi, float(ulps))

    def test_against_scipy(self):
        from scipy.special import erfc

        # scipy rounds x^2 inside e^{-x^2}: about 500 ulp off at x = 26
        x = np.linspace(-6.0, 26.5, 20001)
        assert_allclose(_erfc(x), erfc(x), rtol=2e-13, atol=0.0)
        near = np.linspace(-5.0, 5.0, 20001)
        assert_allclose(_erfc(near), erfc(near), rtol=4e-15, atol=0.0)

    def test_special_values_and_shapes(self):
        got = _erfc(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 30.0, -30.0]))
        assert got[0] == 0.0 and got[1] == 2.0 and math.isnan(got[2])
        assert got[3] == 1.0 and got[4] == 1.0 and got[5] == 0.0 and got[6] == 2.0
        assert np.ndim(_erfc(0.7)) == 0
        assert _erfc(np.zeros((3, 2))).shape == (3, 2)


class TestGaussianQuantile:
    @pytest.mark.parametrize("c", [0.25, 0.5, 2.0])
    def test_round_trip_in_both_tails(self, c):
        """Phi(s) = q to 2e-15 (1 + 2c s^2) relative, down to q = 1e-300."""
        q = 10.0 ** -np.linspace(0.31, 300.0, 600)
        lower = gaussian_quantile(c, q, np.full(q.shape, True))
        upper = gaussian_quantile(c, q, np.full(q.shape, False))
        assert np.array_equal(upper, -lower)
        bound = 2e-15 * q * (1.0 + 2.0 * c * lower**2)
        assert np.all(np.abs(gaussian_cdf(c, lower) - q) <= bound)
        assert np.all(np.abs(gaussian_cdf(c, -upper) - q) <= bound)

    def test_against_scipy(self):
        from scipy.special import erfcinv

        rng = np.random.default_rng(11)
        q = np.concatenate([rng.uniform(0.0, 1.0, 5000), 10.0 ** -rng.uniform(0.0, 300.0, 2000)])
        want = -erfcinv(2.0 * q) / math.sqrt(0.5)
        assert_allclose(gaussian_quantile(0.5, np.minimum(q, 1.0 - q), q <= 0.5), want, rtol=2e-15, atol=1e-16)
        # a tail mass past 1/2 is read on its own side: (0.95, lower) read 1.64417 for 1.64485,
        # AS241's tail branch taking 0.95 for the smaller tail; 1 - q costs up to 5e-13 relative here
        big = rng.uniform(0.5, 1.0 - 1e-4, 2000)
        for lower, sign in ((True, 1.0), (False, -1.0)):
            got = gaussian_quantile(0.5, big, np.full(big.shape, lower))
            assert_allclose(got, sign * -erfcinv(2.0 * big) / math.sqrt(0.5), rtol=1e-11, atol=1e-16)

    @pytest.mark.parametrize("p, lower", [
        (math.nan, True), (math.nan, False), (1.5, False), (-1e-300, True),
        ([0.2, 1.0000000000000002], [True, False]),
    ])
    def test_nan_or_out_of_range_probability_raises(self, p, lower):
        """The two-array route read (nan, nan) as +inf, and (1.5, -0.5) as
        +inf with a RuntimeWarning."""
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            gaussian_quantile(0.5, p, lower)

    def test_endpoints_and_scalars(self):
        s = gaussian_quantile(0.5, [0.0, 0.0, 0.5, 0.5], [True, False, True, False])
        assert s[0] == -INF and s[1] == INF and s[2] == 0.0 and s[3] == 0.0
        assert float(gaussian_quantile(0.5, 0.025, False)) == pytest.approx(1.959963984540054)
        assert gaussian_quantile(0.5, 0.025, True) == -gaussian_quantile(0.5, 0.025, False)


class TestGaussLegendreCache:
    def test_rule_is_built_once_and_read_only(self):
        x, w = _gauss_legendre(12)
        assert _gauss_legendre(12)[0] is x
        assert not x.flags.writeable and not w.flags.writeable
        assert_allclose(np.sum(w), 2.0, rtol=1e-15)
        assert_allclose(x @ (x * w), 2.0 / 3.0, rtol=1e-14)

    @pytest.mark.parametrize("order", [12, 16])
    def test_tabulated_rule_is_leggauss_bit_for_bit(self, order):
        x, w = _gauss_legendre(order)
        want_x, want_w = np.polynomial.legendre.leggauss(order)
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
        assert not x.flags.writeable and not w.flags.writeable
        again = _gauss_legendre(order)
        assert again[0] is x and again[1] is w

    def test_untabulated_order_raises(self):
        with pytest.raises(KeyError):
            _gauss_legendre(13)
