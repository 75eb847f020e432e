"""Monotone rearrangement: construction, contraction, mass and perimeter."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.interpolate import CubicSpline

from isoflow import (
    AffineWeight,
    CumulativeDensity1D,
    Density,
    DomainError,
    LogPowerWeight,
    QuadraticWeight,
    ZeroWeight,
)
from isoflow.geometry import (
    DiscreteCurve,
    _polyline_weighted_length,
    curve_weighted_length,
    polyline_curve,
    straight_segment,
    vertical_segment,
)
import isoflow.transport as transport
from isoflow.profiles import build_profile, compare_profiles
from isoflow.cli import _PUSHFORWARD_TOLERANCE
from isoflow.spectrum import poincare_certify
from isoflow.transport import (
    TransportMap,
    build_transport,
    check_contraction,
    pushforward_check,
    transported_perimeter_bound,
)
from isoflow.weights import gaussian_cdf, gaussian_factor, gaussian_quantile
from test_weights import SIDE_DENSITIES

INF = math.inf

GAUSS_LINE = Density(ZeroWeight(), 0.5, 2, (-INF, INF))


def resample_by_arclength(points: np.ndarray, n: int) -> np.ndarray:
    seg = np.hypot(*np.diff(points, axis=0).T)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    su = np.linspace(0.0, s[-1], n)
    return np.stack(
        [np.interp(su, s, points[:, 0]), np.interp(su, s, points[:, 1])], axis=-1
    )


class TestBuildTransport:
    def test_identity_for_pure_gaussian(self):
        m = build_transport(GAUSS_LINE)
        assert np.max(np.abs(m.rho - m.s)) <= 1e-12
        assert np.max(np.abs(m.drho - 1.0)) <= 1e-12

    def test_affine_weight_is_unit_translation(self):
        """ω = t completes the square to a Gaussian shifted by a0/(2c) = 1."""
        d = Density(AffineWeight(1.0, 0.0), 0.5, 2, (-INF, INF))
        m = build_transport(d)
        assert np.max(np.abs(m.rho - (m.s + 1.0))) <= 1e-10
        assert np.max(np.abs(m.drho - 1.0)) <= 1e-8

    def test_quadratic_weight_is_pure_scaling(self):
        """ω = −t² sharpens c to c + κ, so ρ′ ≡ √(c/(c+κ)) = 1/√3."""
        d = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-INF, INF))
        m = build_transport(d)
        assert_allclose(m.drho, 1.0 / math.sqrt(3.0), rtol=1e-12)

    def test_monotone_and_identity_residual(self):
        d = Density(LogPowerWeight(2.0), 0.5, 2, (0.0, INF))
        m = build_transport(d)
        assert np.all(np.diff(m.rho) >= 0.0)
        w = d.weight
        lhs = m.alpha * np.exp(-0.5 * m.s**2)
        rhs = m.beta * np.exp(w.value(m.rho) - 0.5 * m.rho**2) * m.drho
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * m.alpha

    def test_reflection_mirrors_map(self):
        """t -> -t (a0 -> -a0, (a, b) -> (-b, -a)) gives rho_-(s) = -rho(-s)."""
        for a0, slab in ((0.7, (-1.0, 2.0)), (1.0, (0.0, INF)), (-0.4, (-INF, INF))):
            m = build_transport(Density(AffineWeight(a0), 0.5, 2, slab))
            mirror = build_transport(Density(AffineWeight(-a0), 0.5, 2, (-slab[1], -slab[0])))
            assert_allclose(m.s, -m.s[::-1], rtol=0.0, atol=1e-14)
            assert_allclose(mirror.rho, -m.rho[::-1], rtol=0.0, atol=1e-12)

    def test_the_map_owns_its_arrays(self):
        """No caller can write to them: s is the per-c cached grid, rho and drho the map's own."""
        m = build_transport(GAUSS_LINE)
        assert np.max(np.abs(m.rho - m.s)) <= 1e-12
        for name in ("s", "rho", "drho"):
            with pytest.raises(ValueError):
                getattr(m, name)[0] = 0.0


class TestCheckContraction:
    def test_identity_map_max_exactly_one(self):
        rep = check_contraction(build_transport(GAUSS_LINE))
        assert rep.certified
        assert_allclose(rep.max_derivative, 1.0, rtol=1e-12)

    def test_quadratic_scaling_value(self):
        d = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-INF, INF))
        rep = check_contraction(build_transport(d))
        assert rep.certified
        assert_allclose(rep.max_derivative, 1.0 / math.sqrt(3.0), rtol=1e-12)

    def test_log_power_certified(self):
        d = Density(LogPowerWeight(2.0), 0.5, 2, (0.0, INF))
        rep = check_contraction(build_transport(d))
        assert rep.certified
        assert rep.max_derivative <= 1.0 + 1e-6

    def test_nonconcave_diagnostic_violation(self):
        """κ < 0 flattens c to c + κ < c, stretching by 1/√(1+κ/c) > 1."""
        d = Density(QuadraticWeight(-0.3, 0.0, 0.0), 0.5, 2, (-INF, INF))
        rep = check_contraction(build_transport(d))
        assert not rep.certified
        assert_allclose(rep.max_derivative, 1.0 / math.sqrt(0.4), rtol=1e-10)

    @settings(deadline=None, max_examples=10)
    @given(
        kappa=st.floats(0.0, 4.0),
        a0=st.floats(-1.0, 1.0),
        c=st.floats(0.25, 2.0),
    )
    def test_concave_weights_always_contract(self, kappa, a0, c):
        d = Density(QuadraticWeight(kappa, a0, 0.0), c, 2, (-INF, INF))
        rep = check_contraction(build_transport(d))
        assert rep.certified


class TestPushforwardCheck:
    def test_full_interval_total_mass(self):
        d = Density(LogPowerWeight(1.0), 0.5, 2, (0.0, INF))
        m = build_transport(d)
        rep = pushforward_check(m, intervals=[[0.0, INF]])
        assert rep.max_residual <= 1e-14

    def test_median_preserved_for_symmetric_data(self):
        d = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-INF, INF))
        m = build_transport(d)
        mid = float(m.rho[m.s.size // 2])
        assert abs(mid) <= 1e-12
        rep = pushforward_check(m, intervals=[[-INF if False else -8.0, 0.0]])
        assert rep.max_residual <= 1e-10

    def test_the_map_s_own_nodes_small_residual(self):
        d = Density(LogPowerWeight(1.0), 0.5, 2, (0.0, INF))
        m = build_transport(d)
        rep = pushforward_check(m)
        assert rep.max_residual <= 1e-13
        assert rep.max_location in m.s

    def test_reversed_interval_rejected(self):
        m = build_transport(GAUSS_LINE)
        with pytest.raises(DomainError):
            pushforward_check(m, intervals=[[1.0, -1.0]])

    def test_no_interval_raises(self):
        """Over no interval the check read max_residual 0.0, a pass that
        could not fail."""
        m = build_transport(Density(QuadraticWeight(1.0, 0.3, 0.0), 0.5, 2, (-1.0, 1.0)))
        for empty in (np.empty((0, 2)), []):
            with pytest.raises(DomainError, match="at least one interval"):
                pushforward_check(m, intervals=empty)

    @pytest.mark.parametrize("weight, slab", [
        (LogPowerWeight(2.0), (0.0, INF)),
        (AffineWeight(0.7, 0.0), (-INF, INF)),
        (QuadraticWeight(0.5, 0.2, 0.0), (-INF, 0.0)),
        (QuadraticWeight(1.0, 0.0, 0.0), (-1.0, 1.0)),
    ])
    def test_a_scaled_engine_quantile_fails(self, weight, slab, monkeypatch):
        """An engine quantile 1e-9 too large moves rho by 1e-9 relative.
        The contraction still certifies and the 50 random intervals read
        at most 1.3e-15; the node residual reads at least 4e-10 where the map
        stays in the slab, and infinity on (-1, 1), where it leaves it.
        Explicit intervals never read rho, so they cannot see the fault."""
        quantile = CumulativeDensity1D.quantile
        monkeypatch.setattr(CumulativeDensity1D, "quantile",
                            lambda self, *args: quantile(self, *args) * (1.0 + 1e-9))
        m = build_transport(Density(weight, 0.5, 2, slab))
        assert check_contraction(m).certified
        rep = pushforward_check(m)
        assert rep.max_residual > 4e-10
        assert rep.max_location in m.s
        a, b = slab
        assert math.isinf(rep.max_residual) == bool(np.any((m.rho < a) | (m.rho > b)))
        given = np.array([[max(a, -1.0), min(b, 1.0)], [max(a, -0.5), min(b, 0.5)]])
        assert pushforward_check(m, intervals=given).max_residual <= 1e-13

    @pytest.mark.parametrize("weight, slab", SIDE_DENSITIES)
    def test_the_check_does_not_read_the_cached_source_cdf(self, weight, slab, monkeypatch):
        """The map reads the source CDF from _source_grid; the check computes
        Phi(s) itself.  With the cached lower side q scaled by 1 + 1e-10 the
        map moves and the node residual exceeds the run's tolerance (about
        5e-11 against 1e-16 clean).  A check that read Phi(s) from the same
        cache would move with the map: 10 of these 14 cases then read below it."""
        d = Density(weight, 0.5, 2, slab)
        assert pushforward_check(TransportMap(d)).max_residual <= _PUSHFORWARD_TOLERANCE
        source_grid = transport._source_grid

        def scaled_source(c):
            line, s, p, lower, factor = source_grid(c)
            return line, s, np.where(lower, p * (1.0 + 1e-10), p), lower, factor

        monkeypatch.setattr(transport, "_source_grid", scaled_source)
        assert pushforward_check(TransportMap(d)).max_residual > _PUSHFORWARD_TOLERANCE

    def test_a_node_outside_the_slab_fails(self, monkeypatch):
        """The last node alone is moved 1e-12 past the wall b = 1."""
        quantile = CumulativeDensity1D.quantile

        def past_the_wall(self, *args):
            t = quantile(self, *args)
            t[-1] = 1.0 + 1e-12
            return t

        monkeypatch.setattr(CumulativeDensity1D, "quantile", past_the_wall)
        m = build_transport(Density(QuadraticWeight(1.0, 0.3, 0.0), 0.5, 2, (-1.0, 1.0)))
        rep = pushforward_check(m)
        assert rep.max_residual == INF
        assert rep.max_location == m.s[-1]


class TestPerimeterBound:
    @pytest.mark.parametrize("weight", [LogPowerWeight(2.0), ZeroWeight()])
    def test_a_curve_below_the_slab_is_refused_before_it_is_integrated(self, weight):
        """A curve that dips below t = 0 on (0, 1) exits the slab.  The bound
        integrated it first, so on the log-power slab the weight refused it
        as "log-power weight is defined on (0, inf)" instead."""
        d = Density(weight, 0.5, 2, (0.0, 1.0))
        t = np.linspace(-0.1, 0.9, 101)
        curve = DiscreteCurve(np.stack([np.zeros_like(t), t], axis=-1), np.tile([-1.0, 0.0], (101, 1)),
                              np.zeros(101))
        with pytest.raises(DomainError, match="curve exits the slab"):
            transported_perimeter_bound(build_transport(d), curve)

    def test_vertical_chord_is_equality(self):
        d = Density(QuadraticWeight(1.0, 0.3, 0.0), 0.5, 2, (-1.0, 1.0))
        m = build_transport(d)
        vl = vertical_segment(d, 0.4, n=201)
        rep = transported_perimeter_bound(m, vl)
        assert abs(rep.slack) <= 1e-8
        assert rep.weighted_perimeter > 0.0

    def test_horizontal_segment_strict_slack(self):
        d = Density(QuadraticWeight(1.0, 0.3, 0.0), 0.5, 2, (-1.0, 1.0))
        m = build_transport(d)
        hz = straight_segment(d, (-1.0, 0.2), (1.0, 0.2), n=401)
        assert transported_perimeter_bound(m, hz).slack > 1e-3

    def test_identity_map_zero_slack_any_curve(self):
        m = build_transport(GAUSS_LINE)
        th = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
        pts = np.stack([0.3 + 0.5 * np.cos(th), 0.5 * np.sin(th)], axis=-1)
        circ = polyline_curve(GAUSS_LINE, pts, closed=True)
        assert abs(transported_perimeter_bound(m, circ).slack) <= 1e-12

    def test_randomized_spline_curves_nonnegative_slack(self):
        d = Density(QuadraticWeight(1.0, 0.3, 0.0), 0.5, 2, (-1.0, 1.0))
        m = build_transport(d)
        rng = np.random.default_rng(11)
        worst = INF
        for _ in range(20):
            knots_x = rng.uniform(-1.5, 1.5, 5)
            knots_t = np.linspace(-0.95, 0.95, 5)
            sp = CubicSpline(knots_t, knots_x)
            dense_t = np.linspace(-0.95, 0.95, 4000)
            pts = resample_by_arclength(np.stack([sp(dense_t), dense_t], axis=-1), 400)
            curve = polyline_curve(d, pts)
            worst = min(worst, transported_perimeter_bound(m, curve).slack)
        assert worst >= -1e-6

    def test_engine_built_once_per_map(self, monkeypatch):
        """build_transport's CumulativeDensity1D serves every later check."""
        builds = []
        init = CumulativeDensity1D.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CumulativeDensity1D, "__init__", counting_init)
        d = Density(QuadraticWeight(1.0, 0.3, 0.0), 0.5, 2, (-1.0, 1.0))
        m = build_transport(d)
        pushforward_check(m)
        for x0 in np.linspace(-1.0, 1.0, 8):
            transported_perimeter_bound(m, vertical_segment(d, x0, n=51))
        assert len(builds) == 1

    @pytest.mark.parametrize("weight, slab", [
        (QuadraticWeight(1.0, 0.3, 0.0), (-1.0, 1.0)),
        (AffineWeight(1.0, 0.0), (-INF, INF)),
        (LogPowerWeight(2.0), (0.0, INF)),
    ])
    def test_one_cdf_side_per_node(self, weight, slab, monkeypatch):
        """At most 12 integrand points per node, plus 12 per node in the
        median panel, in one integrand call, and no scalar gaussian_quantile
        call: the two full passes evaluated up to 24 per node, and the
        lower and upper sides took a call each."""
        d = Density(weight, 0.5, 2, slab)
        m = build_transport(d)
        cum = d.cumulative
        points, scalar_calls = [], []
        fn, quantile = cum._fn, transport.gaussian_quantile

        def counting_fn(t):
            points.append(np.size(t))
            return fn(t)

        def watched_quantile(c, p, lower):
            if np.ndim(p) == 0:
                scalar_calls.append(p)
            return quantile(c, p, lower)

        monkeypatch.setattr(cum, "_fn", counting_fn)
        monkeypatch.setattr(transport, "gaussian_quantile", watched_quantile)
        a, b = slab
        lo, hi = max(a, -2.0), min(b, 2.0)
        knots_t = np.linspace(lo + 0.025 * (hi - lo), hi - 0.025 * (hi - lo), 6)
        sp = CubicSpline(knots_t, np.random.default_rng(1503).uniform(-1.5, 1.5, 6))
        dense_t = np.linspace(knots_t[0], knots_t[-1], 2000)
        curves = [polyline_curve(d, resample_by_arclength(np.stack([sp(dense_t), dense_t], axis=-1), 301))]
        if math.isfinite(a) and math.isfinite(b):
            curves.append(vertical_segment(d, 0.3, n=401))
        breaks = cum.breaks
        j = int(np.searchsorted(breaks, cum.quantile(0.5, True), side="right")) - 1
        for curve in curves:
            points.clear()
            transported_perimeter_bound(m, curve)
            t = np.clip(curve.points[:, 1], breaks[0], breaks[-1])
            in_median_panel = np.count_nonzero((breaks[j] <= t) & (t < breaks[j + 1]))
            assert 0 < sum(points) <= 12 * curve.n_nodes + 12 * in_median_panel
            assert len(points) == 1
        assert scalar_calls == []

    @pytest.mark.parametrize("c", [0.25, 0.5, 2.0])
    def test_span_constants_are_the_scalar_quantiles(self, c):
        clip = float(gaussian_quantile(c, 1e-14, False))
        assert transport._Z_CLIP / math.sqrt(2.0 * c) == clip
        grid = float(gaussian_quantile(c, 1e-13, False))
        assert transport._Z_GRID / math.sqrt(2.0 * c) == grid
        s = build_transport(Density(QuadraticWeight(1.0, 0.3, 0.0), c, 2, (-1.0, 1.0))).s
        assert s[0] == -grid and s[-1] == grid

    def test_curve_outside_slab_rejected(self):
        d = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-1.0, 1.0))
        m = build_transport(d)
        wide = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-2.0, 2.0))
        bad = vertical_segment(wide, 0.0, n=101)
        with pytest.raises(DomainError):
            transported_perimeter_bound(m, bad)


class TestSourceSidePerC:
    """The map's source line, its grid, its source tail sides and source
    factor are computed once per c and shared, read-only, by every map with
    that c."""

    def test_the_cached_source_arrays_are_read_only(self):
        line, grid, p, lower, factor = transport._source_grid(0.5)
        assert transport._source_grid(0.5)[1] is grid
        tmap = build_transport(GAUSS_LINE)
        assert tmap.source is line and tmap.s is grid
        assert grid.shape == p.shape == lower.shape == factor.shape == (2001,)
        for array in (grid, p, lower, factor):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("weight, slab", SIDE_DENSITIES)
    def test_the_cached_source_gives_the_reference_map(self, weight, slab):
        """Bit for bit, the map equals one built from a fresh source line,
        grid and CDF sides, each side computed in full and read where it is
        at most 1/2, with no cache, and a rebuild after the cache is cleared
        gives the same map."""
        for c in (0.25, 2.0):
            d = Density(weight, c, 2, slab)
            span = float(gaussian_quantile(c, 1e-13, False))
            s = np.linspace(-span, span, 2001)
            line = Density(ZeroWeight(), c, 2, (-INF, INF))
            alpha, beta = 1.0 / gaussian_factor(c), 1.0 / d.cumulative.total
            q, q_up = gaussian_cdf(c, s), gaussian_cdf(c, -s)
            rho = np.maximum.accumulate(d.cumulative.quantile(np.where(q <= 0.5, q, q_up), q <= 0.5))
            drho = alpha * line.slab_factor(s) / (beta * d.slab_factor(rho))
            want = build_transport(d)
            transport._source_grid.cache_clear()
            again = build_transport(d)
            for got in (want, again):
                assert (got.s.tobytes(), got.rho.tobytes(), got.drho.tobytes()) == (s.tobytes(), rho.tobytes(), drho.tobytes())
                assert (got.alpha, got.beta) == (alpha, beta)

    def test_no_source_quantile_needs_a_clip(self):
        """The grid spans source quantiles 1e-13 to 1 - 1e-13 at every c, so
        its smaller CDF side stays above 1e-14, where a clip would act."""
        for c in np.logspace(-4.0, 4.0, 33):
            _, s, p, lower, _ = transport._source_grid(float(c))
            assert p.min() > 1e-14 and p.max() <= 0.5 and np.array_equal(lower, s <= 0.0)


@pytest.fixture
def engine_builds(monkeypatch):
    """Record the density of every CumulativeDensity1D construction, from a
    cold transport source grid, so the record does not depend on test order."""
    transport._source_grid.cache_clear()
    builds = []
    init = CumulativeDensity1D.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(CumulativeDensity1D, "__init__", counting_init)
    return builds


class TestOneEnginePerDensity:
    def test_a_full_density_check_builds_one_engine(self, engine_builds):
        """A Density builds its engine when it is built; both profiles, the
        transport map and its checks read it, and a cold source grid builds
        the source line's.  Nothing else builds one."""
        d = Density(QuadraticWeight(1.0, 0.3, 0.0), 0.5, 2, (-1.0, 1.0))
        assert engine_builds == [d]
        compare_profiles(build_profile(d, "parallel", grid_size=33), build_profile(d, "perpendicular", grid_size=33))
        m = build_transport(d)
        pushforward_check(m)
        transported_perimeter_bound(m, vertical_segment(d, 0.2, n=51))
        pts = np.stack([0.1 * np.sin(np.linspace(-0.9, 0.9, 60)), np.linspace(-0.9, 0.9, 60)], axis=-1)
        transported_perimeter_bound(m, polyline_curve(d, pts))
        build_transport(d)  # a second map on the same density reuses the engine, and the source line's
        assert engine_builds == [d, m.source]

    def test_a_density_holds_its_engine_once_built(self, engine_builds):
        """The engine is a field written in Density.__init__, not a lazy
        property: it is in vars() before any read, and cannot be replaced."""
        d1 = Density(LogPowerWeight(2.0), 0.5, 2, (0.0, INF))
        d2 = Density(LogPowerWeight(2.0), 0.5, 2, (0.0, INF))
        assert "cumulative" in vars(d1) and "cumulative" in vars(d2)
        assert engine_builds == [d1, d2]
        assert d1.cumulative is d1.cumulative and d1.cumulative is not d2.cumulative
        with pytest.raises(AttributeError):
            d1.cumulative = d2.cumulative
        assert len(engine_builds) == 2


def parent_slack(tmap, curve) -> float:
    """Oracle for transported_perimeter_bound: the pull-back clipped to the
    slab first, stacked, and closed by vstack, as the bound did before it
    wrote one preallocated polyline."""
    density = tmap.target
    p_f = curve_weighted_length(density, curve)
    a, b = density.slab
    clip_span = transport._Z_CLIP / math.sqrt(2.0 * tmap.source.c)
    sigma = np.clip(transport._inverse_map(tmap, np.clip(curve.points[:, 1], a, b)), -clip_span, clip_span)
    pulled = np.stack([curve.points[:, 0], sigma], axis=-1)
    if curve.closed:
        pulled = np.vstack([pulled, pulled[:1]])
    return p_f - (tmap.alpha / tmap.beta) * _polyline_weighted_length(tmap.source, pulled)


def sweep_curves(density, rng) -> list:
    """Three random graph curves, a straight line from wall to wall that
    passes each finite wall within _check_in_slab's tolerance, and a
    closed curve."""
    a, b = density.slab
    lo, hi = max(a, -2.0), min(b, 2.0)
    curves = []
    for _ in range(3):
        knots_t = np.linspace(lo + 0.025 * (hi - lo), hi - 0.025 * (hi - lo), 6)
        sp = CubicSpline(knots_t, rng.uniform(-1.5, 1.5, 6))
        dense_t = np.linspace(knots_t[0], knots_t[-1], 2000)
        curves.append(polyline_curve(density, resample_by_arclength(np.stack([sp(dense_t), dense_t], axis=-1), 301)))
    margin = 5e-10 * (1.0 + max(abs(lo), abs(hi)))
    t = np.linspace(lo - margin if math.isfinite(a) else lo, hi + margin if math.isfinite(b) else hi, 101)
    curves.append(polyline_curve(density, np.stack([0.3 * t, t], axis=-1)))
    th = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
    mid, r = 0.5 * (lo + hi), 0.4 * (hi - lo)
    curves.append(polyline_curve(density, np.stack([r * np.cos(th), mid + r * np.sin(th)], axis=-1), closed=True))
    return curves


class TestOneCallPerBatch:
    """The pushforward's batched calls on explicit intervals and on the
    map's nodes, and the bound's pull-back, against reference copies of
    the formulas they replaced, bit for bit over the 14 sweep densities at
    c = 1/2 and 2."""

    @pytest.mark.parametrize("weight, slab", SIDE_DENSITIES)
    def test_pushforward_residuals(self, weight, slab):
        rng = np.random.default_rng(2405)
        a, b = slab
        for c in (0.5, 2.0):
            d = Density(weight, c, 2, slab)
            m, cum = build_transport(d), d.cumulative
            given = np.sort(rng.uniform(max(a, -4.0), min(b, 4.0), (50, 2)), axis=1)
            given[0] = slab
            rep = pushforward_check(m, intervals=given)
            d1, d2 = given[:, 0], given[:, 1]
            mu2 = cum.mass(np.maximum(d1, a), np.minimum(d2, b)) / cum.total
            s = transport._inverse_map(m, given)
            want = np.abs(mu2 - (gaussian_cdf(c, s[:, 1]) - gaussian_cdf(c, s[:, 0])))
            assert rep == (want.max(), d1[np.argmax(want)])
            # the map's nodes, each side of F read from its own tail
            q, q_up = cum.mass_below(m.rho) / cum.total, cum.mass_above(m.rho) / cum.total
            want = np.where(q <= 0.5, np.abs(q - gaussian_cdf(c, m.s)), np.abs(q_up - gaussian_cdf(c, -m.s)))
            assert pushforward_check(m) == (want.max(), m.s[np.argmax(want)])

    @pytest.mark.parametrize("weight, slab", SIDE_DENSITIES)
    def test_perimeter_bound_slack(self, weight, slab):
        rng = np.random.default_rng(2406)
        for c in (0.5, 2.0):
            d = Density(weight, c, 2, slab)
            m = build_transport(d)
            for curve in sweep_curves(d, rng):
                assert transported_perimeter_bound(m, curve).slack == parent_slack(m, curve)


def bound_path_digest() -> str:
    """sha256 over every output of the perimeter-bound path on the 14 sweep
    densities at c = 1/2: both profiles, rho and rho', both pushforward
    residuals, each curve's points, normals and curvature with its P_f,
    bound and slack (sweep_curves, then three vertical lines on a bounded
    slab), and the spectral gap with its eigenvector."""
    rng = np.random.default_rng(2406)
    digest = hashlib.sha256()

    def put(*values):
        for value in values:
            value = np.ascontiguousarray(value, dtype=float)
            digest.update(repr(value.shape).encode())
            digest.update(value.tobytes())

    for weight, slab in SIDE_DENSITIES:
        d = Density(weight, 0.5, 2, slab)
        a, b = slab
        for family in ("parallel", "perpendicular"):
            prof = build_profile(d, family, grid_size=257)
            put(prof.s, prof.V, prof.A, prof.v, prof.F, prof.dF, prof.ddF, prof.v_total)
        m = build_transport(d)
        put(m.s, m.rho, m.drho, m.alpha, m.beta)
        intervals = np.sort(rng.uniform(max(a, -4.0), min(b, 4.0), (50, 2)), axis=1)
        put(*pushforward_check(m, intervals=intervals), *pushforward_check(m))
        curves = sweep_curves(d, rng)
        if math.isfinite(a) and math.isfinite(b):
            curves += [vertical_segment(d, x0, n=401) for x0 in rng.uniform(-1.0, 1.0, 3)]
        for curve in curves:
            put(curve.points, curve.normals, curve.curvature, *transported_perimeter_bound(m, curve))
        cert = poincare_certify(d, n_cells=2000)
        put(cert.lambda_value, cert.truncation_shift, cert.eigenvector)
    return digest.hexdigest()


@pytest.mark.skipif(np.__version__ != "2.4.6", reason="recorded with numpy 2.4.6: the gap passes "
                    "through BLAS products, and the Gaussian CDF through libm's erfc")
def test_bound_path_digest():
    """No CLI golden reads the perimeter bound, polyline_curve or the
    interval pushforward, and their oracles above call the same kernels, so
    this digest pins their bits."""
    assert bound_path_digest() == "63bdacae6135cf90296382848bceebad4241ee00cf4bcf40beda96fb82e50e13"
