"""Profile construction, governing ODE, and family comparison."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import erf

from isoflow import (
    AffineWeight,
    ConsistencyError,
    Density,
    DomainError,
    LogPowerWeight,
    PiecewiseLinearWeight,
    QuadraticWeight,
    SmoothnessError,
    ZeroWeight,
)
from isoflow.profiles import (
    build_profile,
    check_profile_ode,
    compare_profiles,
)
from isoflow.weights import gaussian_cdf, gaussian_factor

INF = math.inf


def gaussian_mass(c: float, lo: float, hi: float) -> float:
    s = math.sqrt(c)
    return math.sqrt(math.pi / c) / 2.0 * (erf(s * hi) - erf(s * lo))


def profile_at(profile, v: float) -> float:
    return float(PchipInterpolator(profile.v, profile.F)(v))


def slab_factor_mass(density, lo: float, hi: float) -> float:
    """int_lo^hi e^{omega - c t^2} dt by QUADPACK, independent of the package's engine."""
    w, c = density.weight, density.c
    return quad(lambda t: math.exp(float(w.value(t)) - c * t * t), lo, hi,
                epsabs=0.0, epsrel=1e-13, limit=500)[0]


def volume_area_parallel(density, s: float) -> tuple[float, float]:
    """Oracle: (V, A) of the half-space {t < s}, by adaptive quadrature."""
    a, b = density.slab
    if not a <= s <= b:
        raise DomainError("parallel level must lie in the closed slab")
    gf = gaussian_factor(density.c)
    V = gf * slab_factor_mass(density, a, s)
    return V, gf * math.exp(float(density.weight.value(s)) - density.c * s * s)


def volume_area_perpendicular(density, s: float) -> tuple[float, float]:
    """Oracle: (V, A) of the half-plane {x < s}, by quadrature and the Gaussian CDF."""
    M = slab_factor_mass(density, *density.slab)
    V = M * math.sqrt(math.pi / density.c) * float(gaussian_cdf(density.c, s))
    return V, M * math.exp(-density.c * s * s)


class TestVolumeAreaParallel:
    def test_gaussian_area_whole_line(self):
        d = Density(ZeroWeight(), 0.5, 2, (-INF, INF))
        _, A = volume_area_parallel(d, 0.0)
        assert_allclose(A, math.sqrt(2 * math.pi), rtol=1e-12)

    def test_total_volume_unit_slab(self):
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        V, _ = volume_area_parallel(d, 1.0)
        oracle = math.sqrt(2 * math.pi) * gaussian_mass(0.5, 0.0, 1.0)
        assert_allclose(V, oracle, rtol=1e-10)
        assert_allclose(V, 2.1447323, rtol=1e-6)

    def test_volume_vanishes_at_bottom(self):
        d = Density(QuadraticWeight(1.0, 0.2, 0.0), 0.5, 2, (-1.0, 1.0))
        V, _ = volume_area_parallel(d, -1.0)
        assert abs(V) < 1e-13

    def test_level_outside_slab_rejected(self):
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        with pytest.raises(DomainError):
            volume_area_parallel(d, 2.0)


class TestVolumeAreaPerpendicular:
    def test_area_at_origin_unit_slab(self):
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        _, A = volume_area_perpendicular(d, 0.0)
        assert_allclose(A, gaussian_mass(0.5, 0.0, 1.0), rtol=1e-10)
        assert_allclose(A, 0.8556243, rtol=1e-6)

    def test_exhaustion_and_symmetry(self):
        d = Density(QuadraticWeight(1.0, 0.0, 0.3), 0.5, 2, (-2.0, 1.5))
        v_total, _ = volume_area_parallel(d, 1.5)
        V_far, _ = volume_area_perpendicular(d, 12.0)
        assert_allclose(V_far, v_total, rtol=1e-10)
        V_half, _ = volume_area_perpendicular(d, 0.0)
        assert_allclose(V_half, v_total / 2.0, rtol=1e-12)


class TestBuildProfile:
    def test_root_accuracy_and_monotonicity(self):
        d = Density(QuadraticWeight(1.0, 0.5, 0.0), 0.5, 2, (0.0, 1.0))
        for family in ("parallel", "perpendicular"):
            p = build_profile(d, family)
            assert np.max(np.abs(p.V - p.v)) <= 1e-10 * p.v_total
            assert np.all(np.diff(p.V) > 0)
            assert np.all(p.F > 0)

    def test_perpendicular_identity_everywhere(self):
        d = Density(LogPowerWeight(2.0), 0.5, 2, (0.0, INF))
        p = build_profile(d, "perpendicular")
        assert np.max(np.abs(p.ddF * p.F + 2 * 0.5)) <= 1e-8

    def test_parallel_quadratic_closed_form_defect(self):
        d = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-1.0, 1.0))
        p = build_profile(d, "parallel")
        assert_allclose(p.ddF * p.F, -2.0 - 2 * 0.5, rtol=1e-12)

    def test_midvolume_values_unit_slab(self):
        """F and G at half volume, against an error-function root oracle.

        s* solves int_0^{s*} e^{-t^2/2} dt = V_tot / (2 sqrt(2 pi)), giving
        s* = 0.4417705 and F = sqrt(2 pi) e^{-s*^2/2} = 2.2735851; the
        perpendicular value at half volume is the slab mass itself.
        """
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        fp = build_profile(d, "parallel")
        gp = build_profile(d, "perpendicular")
        assert_allclose(profile_at(fp, fp.v_total / 2), 2.2735851, rtol=1e-6)
        assert_allclose(profile_at(gp, gp.v_total / 2), 0.8556244, rtol=1e-6)
        assert_allclose(
            profile_at(gp, gp.v_total / 2), gaussian_mass(0.5, 0.0, 1.0), rtol=1e-8
        )

    def test_first_derivative_closed_forms(self):
        d = Density(QuadraticWeight(0.7, 0.3, 0.1), 0.5, 2, (-1.0, 2.0))
        p = build_profile(d, "parallel")
        w = d.weight
        assert_allclose(p.dF, np.asarray(w.deriv(p.s)) - 2 * d.c * p.s, rtol=1e-13)
        q = build_profile(d, "perpendicular")
        assert_allclose(q.dF, -2 * d.c * q.s, rtol=1e-13)

    def test_volume_derivative_is_area(self):
        """Central difference of V(s) reproduces A(s) to 1e-6 relative."""
        d = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-1.0, 1.0))
        h = 1e-4
        for s in (-0.6, -0.1, 0.3, 0.8):
            Vp, _ = volume_area_parallel(d, s + h)
            Vm, _ = volume_area_parallel(d, s - h)
            _, A = volume_area_parallel(d, s)
            assert_allclose((Vp - Vm) / (2 * h), A, rtol=1e-6)
        for s in (-1.0, 0.2, 1.4):
            Vp, _ = volume_area_perpendicular(d, s + h)
            Vm, _ = volume_area_perpendicular(d, s - h)
            _, A = volume_area_perpendicular(d, s)
            assert_allclose((Vp - Vm) / (2 * h), A, rtol=1e-6)

    def test_piecewise_linear_parallel_rejected_perpendicular_allowed(self):
        w = PiecewiseLinearWeight((-1.0, 0.0, 1.0), (0.0, 0.5, 0.5))
        d = Density(w, 0.5, 2, (-1.0, 1.0))
        with pytest.raises(SmoothnessError):
            build_profile(d, "parallel")
        p = build_profile(d, "perpendicular")
        assert np.max(np.abs(p.ddF * p.F + 1.0)) <= 1e-8

    def test_perpendicular_reflection_symmetry(self):
        """A is even in s, so F(v) = F(V_tot - v) on the symmetric grid."""
        d = Density(QuadraticWeight(1.0, 0.7, 0.3), 0.5, 2, (-2.0, 1.0))
        p = build_profile(d, "perpendicular")
        assert_allclose(p.F, p.F[::-1], rtol=1e-9)
        assert_allclose(p.v + p.v[::-1], p.v_total, rtol=1e-12)


    def test_parallel_reflection_mirrors(self):
        """t -> -t maps omega = a0 t on (a, b) to -a0 t on (-b, -a): the level
        cutting volume v becomes minus the level cutting V_tot - v."""
        for a0, slab in ((0.7, (-1.0, 2.0)), (1.0, (0.0, INF)), (-0.4, (-INF, INF))):
            p = build_profile(Density(AffineWeight(a0), 0.5, 2, slab), "parallel")
            mirror = Density(AffineWeight(-a0), 0.5, 2, (-slab[1], -slab[0]))
            q = build_profile(mirror, "parallel")
            assert_allclose(q.s, -p.s[::-1], rtol=0.0, atol=1e-12)
            assert_allclose(q.F, p.F[::-1], rtol=1e-12)


class TestCheckProfileOde:
    def test_perpendicular_equality(self):
        d = Density(QuadraticWeight(2.0, -0.3, 0.0), 0.5, 2, (-1.0, 3.0))
        p = build_profile(d, "perpendicular")
        assert check_profile_ode(p, d.c).verdict == "equality"
        assert np.max(np.abs(p.ddF + 2.0 * d.c / p.F)) <= 1e-8

    def test_parallel_quadratic_strict_margin(self):
        d = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-1.0, 1.0))
        p = build_profile(d, "parallel")
        report = check_profile_ode(p, d.c)
        assert report.verdict == "inequality"
        # margin of the rescaled inequality is exactly -omega'' = 2
        assert_allclose(-report.max_defect, 2.0, rtol=1e-10)
        assert_allclose(-(p.ddF * p.F + 2.0 * d.c), 2.0, rtol=1e-10)

    def test_parallel_affine_equality(self):
        d = Density(AffineWeight(1.0, 0.0), 0.5, 2, (0.0, 2.0))
        p = build_profile(d, "parallel")
        assert check_profile_ode(p, d.c).verdict == "equality"
        assert np.max(np.abs(p.ddF + 2.0 * d.c / p.F)) <= 1e-8


class TestCompareProfiles:
    def test_unit_slab_strict(self):
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        cmp = compare_profiles(build_profile(d, "parallel"), build_profile(d, "perpendicular"))
        assert cmp.verdict == "strict"
        assert cmp.min_margin > 0

    def test_identical_profiles_tie_everywhere(self):
        d = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-1.0, 1.0))
        p = build_profile(d, "perpendicular")
        cmp = compare_profiles(p, p)
        assert cmp.verdict == "ge_with_ties"
        assert cmp.n_ties == len(p.v)

    def test_affine_whole_space_families_agree(self):
        d = Density(AffineWeight(1.0, 0.0), 0.5, 2, (-INF, INF))
        par, perp = build_profile(d, "parallel"), build_profile(d, "perpendicular")
        assert compare_profiles(par, perp).verdict != "violation"
        assert np.max(np.abs(par.F - perp.F)) <= 1e-8

    def test_mismatched_totals_rejected(self):
        d1 = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        d2 = Density(ZeroWeight(), 0.5, 2, (0.0, 2.0))
        with pytest.raises(ConsistencyError):
            compare_profiles(build_profile(d1, "parallel"), build_profile(d2, "parallel"))

    def test_different_grids_rejected(self):
        """Profiles on different volume grids are refused, like mismatched
        totals, rather than compared through an interpolant."""
        d = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-1.0, 1.0))
        fp = build_profile(d, "parallel", grid_size=65)
        gp = build_profile(d, "perpendicular", grid_size=49)
        with pytest.raises(ConsistencyError, match="grids"):
            compare_profiles(fp, gp)

    @settings(deadline=None, max_examples=12)
    @given(
        kappa=st.floats(0.0, 3.0),
        a0=st.floats(-1.5, 1.5),
        width=st.floats(0.5, 3.0),
        center=st.floats(-1.0, 1.0),
    )
    def test_parallel_dominates_perpendicular_property(self, kappa, a0, width, center):
        """F >= G - 1e-8 for concave weights on proper slabs."""
        d = Density(
            QuadraticWeight(kappa, a0, 0.0),
            0.5,
            2,
            (center - width / 2, center + width / 2),
        )
        cmp = compare_profiles(
            build_profile(d, "parallel", grid_size=33),
            build_profile(d, "perpendicular", grid_size=33),
        )
        assert cmp.verdict != "violation"
        assert cmp.min_margin >= -1e-8


# the 60-run sweep's grid (tests/test_sweep.py): five weights x four slabs x three c
SWEEP_WEIGHTS = (ZeroWeight(), AffineWeight(0.7, 0.0), QuadraticWeight(0.5, 0.2, 0.0), LogPowerWeight(2.0),
                 PiecewiseLinearWeight((-50.0, 0.0, 50.0), (-10.0, 0.0, -20.0)))
SWEEP_SLABS = ((-1.0, 1.0), (0.0, INF), (-INF, 0.0), (-INF, INF))


def test_the_profile_ratio_is_the_transport_slope_read_in_volume():
    """F(v)/G(v) = 1/rho'(s) at theta = v/V_tot = Phi_c(s): with T the slab
    mass and g the slab factor, F = sqrt(pi/c) g(Q(theta)), G = T e^{-cs^2},
    and the change of variables gives rho'(s) = alpha e^{-cs^2} / (beta
    g(rho(s))) with rho(s) = Q(theta), the parallel height.  So the profile
    comparison F >= G and transport's rho' <= 1 are one inequality.  Checked
    at the run's 257 profile nodes on every density of the sweep grid that
    loads and has a parallel profile: 39, the piecewise linear weight's
    three having no omega''."""
    checked = 0
    for weight in SWEEP_WEIGHTS:
        for slab in SWEEP_SLABS:
            if slab[0] < weight.domain[0] or slab[1] > weight.domain[1]:
                continue
            for c in (0.25, 0.5, 2.0):
                d = Density(weight, c, 2, slab)
                if isinstance(weight, PiecewiseLinearWeight):
                    with pytest.raises(SmoothnessError):
                        build_profile(d, "parallel", grid_size=257)
                    continue
                par = build_profile(d, "parallel", grid_size=257)
                perp = build_profile(d, "perpendicular", grid_size=257)
                alpha, beta = 1.0 / gaussian_factor(c), 1.0 / d.cumulative.total
                drho = alpha * np.exp(-c * perp.s * perp.s) / (beta * d.slab_factor(par.s))
                assert np.max(np.abs(par.F / perp.F * drho - 1.0)) <= 1e-15, (weight, slab, c)
                checked += 1
    assert checked == 39
