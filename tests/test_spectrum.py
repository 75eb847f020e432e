"""Weighted interval eigenproblem: calibration, certification, quotients."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal

from isoflow import (
    AffineWeight,
    ConsistencyError,
    Density,
    DomainError,
    LogPowerWeight,
    PiecewiseLinearWeight,
    QuadraticWeight,
    ZeroWeight,
    check_concavity,
)
import isoflow.spectrum as spectrum
from isoflow.spectrum import (
    SpectralProblem,
    build_spectral_problem,
    poincare_certify,
    spectral_gap_1d,
    spectrum_csv,
)

INF = math.inf

# frozen on first verified run: Neumann gap of e^{-t^2/2} dt on (0,1),
# cell-centered scheme at N=2000 (Richardson limit 10.4402028932)
SLAB_GAP_N2000 = 10.440200557405529


def rayleigh_quotient(problem, u) -> float:
    """Oracle: D(u)/‖u‖²_μ after projecting u onto the mean-zero subspace,
    an upper bound on the gap for every u."""
    u = np.asarray(u, dtype=float)
    if u.shape != problem.nodes.shape:
        raise DomainError("test function must be sampled at the cell centers")
    w = problem.masses
    u = u - float(np.sum(u * w)) / float(np.sum(w))
    denom = float(np.sum(u * u * w))
    if denom <= 1e-28 * float(np.sum(w)):
        raise DomainError("test function is zero after mean-zero projection")
    du = np.diff(u)
    return float(np.sum(problem.conductances * du * du)) / denom


def random_concave_piecewise_linear(rng, lo=-1.0, hi=1.0, n_knots=6):
    knots = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, n_knots - 2)]))
    slopes = np.sort(rng.uniform(-2.0, 2.0, n_knots - 1))[::-1]
    values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])
    return PiecewiseLinearWeight(tuple(knots), tuple(values))


class TestBuildSpectralProblem:
    def test_positivity_invariants(self):
        d = Density(LogPowerWeight(2.0), 0.5, 2, (0.0, INF))
        p = build_spectral_problem(d, n_cells=500)
        assert np.all(p.masses > 0.0)
        assert np.all(p.conductances > 0.0)
        assert np.all(np.diff(p.nodes) > 0.0)
        # the first cell starts at the wall t = 0, the last ends at a finite cut
        assert_allclose(p.nodes[0], 0.5 * (p.nodes[1] - p.nodes[0]), rtol=1e-9)
        assert math.isfinite(p.nodes[-1])

    def test_bounded_slab_not_truncated(self):
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        p = build_spectral_problem(d, n_cells=100)
        assert_allclose(p.nodes[[0, -1]], [0.005, 0.995], rtol=1e-12)

    def test_minimum_size(self):
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        for n_cells in (8, 0):  # 0 is rejected before the cell width is divided out
            with pytest.raises(DomainError, match="16 cells"):
                build_spectral_problem(d, n_cells=n_cells)


class TestSpectralGap:
    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0])
    def test_gaussian_calibration(self, c):
        """Whole-line Gaussian gap equals 2c (within 0.5% at N=2000)."""
        d = Density(ZeroWeight(), c, 2, (-INF, INF))
        lam, _ = spectral_gap_1d(build_spectral_problem(d, n_cells=2000))
        assert abs(lam - 2.0 * c) <= 5e-3 * 2.0 * c

    def test_quadratic_weight_shifts_gap(self):
        """ω = −t² makes the measure Gaussian with c′ = 3/2, gap 2c′ = 3."""
        d = Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-INF, INF))
        lam, _ = spectral_gap_1d(build_spectral_problem(d, n_cells=2000))
        assert abs(lam - 3.0) <= 5e-3 * 3.0

    def test_half_line_gaussian_gap(self):
        """Neumann gap on (0,∞) doubles to 4c (even Hermite extension)."""
        d = Density(ZeroWeight(), 0.5, 2, (0.0, INF))
        lam, _ = spectral_gap_1d(build_spectral_problem(d, n_cells=2000))
        assert_allclose(lam, 2.0, rtol=1e-6)

    def test_unit_slab_regression_value(self):
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        lam, _ = spectral_gap_1d(build_spectral_problem(d, n_cells=2000))
        assert lam >= 1.0
        assert_allclose(lam, SLAB_GAP_N2000, rtol=1e-6)

    def test_monotone_refinement(self):
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        lams = [
            spectral_gap_1d(build_spectral_problem(d, n_cells=n))[0]
            for n in (500, 1000, 2000)
        ]
        gaps = np.abs(np.diff(lams))
        assert gaps[1] < gaps[0]
        assert gaps[0] / gaps[1] >= 3.5

    def test_eigenvector_normalization(self):
        d = Density(QuadraticWeight(1.0, 0.3, 0.0), 0.5, 2, (-1.0, 2.0))
        p = build_spectral_problem(d, n_cells=800)
        lam, u = spectral_gap_1d(p)
        assert abs(np.sum(u * p.masses)) <= 1e-10
        assert_allclose(np.sum(u * u * p.masses), 1.0, rtol=1e-10)
        assert lam > 0.0


def reference_gap(problem):
    """Gap and increasing mean-zero eigenvector of the symmetrized pencil, by LAPACK."""
    w, g = problem.masses, problem.conductances
    diag_k = np.zeros_like(w)
    diag_k[:-1] += g
    diag_k[1:] += g
    inv_sqrt = 1.0 / np.sqrt(w)
    vals, vecs = eigh_tridiagonal(
        diag_k * inv_sqrt**2, -g * inv_sqrt[:-1] * inv_sqrt[1:], select="i", select_range=(0, 1)
    )
    u = vecs[:, 1] * inv_sqrt
    u -= np.sum(u * w) / np.sum(w)
    u /= math.sqrt(np.sum(u * u * w))
    return vals[1], (u if u[-1] >= u[0] else -u)


# the acceptance sweep: four weights on (0,1), (-1,1), (0,inf), R, log-power
# only where it is defined, at c = 1/2
SWEEP = [
    Density(weight, 0.5, 2, slab)
    for weight in (ZeroWeight(), AffineWeight(1.0, 0.0), QuadraticWeight(1.0, 0.0, 0.0),
                   LogPowerWeight(2.0))
    for slab in ((0.0, 1.0), (-1.0, 1.0), (0.0, INF), (-INF, INF))
    if not (isinstance(weight, LogPowerWeight) and slab[0] < 0.0)
]
PIECEWISE = PiecewiseLinearWeight((-1.0, -0.2, 0.5, 1.0), (0.0, 0.6, 0.4, -0.5))


class TestLanczosGap:
    """spectral_gap_1d (Lanczos on the Green's operator) against LAPACK."""

    @pytest.mark.parametrize(
        "density",
        SWEEP
        + [
            Density(LogPowerWeight(-0.5), 0.5, 2, (0.0, 2.0)),
            Density(PIECEWISE, 0.5, 2, (-1.0, 1.0)),
        ],
        ids=lambda d: f"{type(d.weight).__name__}{d.slab}",
    )
    def test_matches_eigh_tridiagonal(self, density):
        problem = build_spectral_problem(density, n_cells=2000)
        lam, u = spectral_gap_1d(problem)
        want, ref = reference_gap(problem)
        assert type(lam) is float
        assert_allclose(lam, want, rtol=1e-9)
        if all(map(math.isfinite, density.slab)):  # LAPACK loses the cells in the truncated tails
            assert np.max(np.abs(u - ref)) <= 1e-9

    def test_small_pencil_is_exhausted_exactly(self):
        problem = build_spectral_problem(Density(ZeroWeight(), 0.5, 2, (0.0, 1.0)), n_cells=16)
        assert_allclose(spectral_gap_1d(problem)[0], reference_gap(problem)[0], rtol=1e-13)

    def test_unconverged_run_raises_with_diagnostics(self, monkeypatch):
        problem = build_spectral_problem(Density(LogPowerWeight(2.0), 0.5, 2, (0.0, INF)))
        monkeypatch.setattr(spectrum, "_LANCZOS_STEPS", 2)
        with pytest.raises(ConsistencyError, match="did not converge.*mass range"):
            spectral_gap_1d(problem)

    def test_non_finite_pencil_raises(self):
        p = build_spectral_problem(Density(ZeroWeight(), 0.5, 2, (0.0, 1.0)), n_cells=64)
        masses = p.masses.copy()
        masses[10] = np.nan
        broken = SpectralProblem(p.nodes, masses, p.conductances)
        with pytest.raises(ConsistencyError, match="did not converge"):
            spectral_gap_1d(broken)


class TestRayleighQuotient:
    def test_coordinate_function_on_gaussian(self):
        """u = t is the first Hermite eigenfunction: quotient exactly 2c."""
        d = Density(ZeroWeight(), 0.5, 2, (-INF, INF))
        p = build_spectral_problem(d, n_cells=2000)
        assert_allclose(rayleigh_quotient(p, p.nodes.copy()), 1.0, rtol=1e-9)

    def test_eigenvector_reproduces_eigenvalue(self):
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        p = build_spectral_problem(d, n_cells=1000)
        lam, u = spectral_gap_1d(p)
        assert_allclose(rayleigh_quotient(p, u), lam, rtol=1e-10)

    def test_variational_bound(self):
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        p = build_spectral_problem(d, n_cells=1000)
        lam, _ = spectral_gap_1d(p)
        step = np.tanh(8.0 * (p.nodes - 0.5))
        assert rayleigh_quotient(p, step) >= lam - 1e-12

    def test_second_eigenvector_orders_above_gap(self):
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        p = build_spectral_problem(d, n_cells=200)
        w, g = p.masses, p.conductances
        diag_k = np.zeros_like(w)
        diag_k[:-1] += g
        diag_k[1:] += g
        inv_sqrt = 1.0 / np.sqrt(w)
        vals, vecs = eigh_tridiagonal(
            diag_k * inv_sqrt**2, -g * inv_sqrt[:-1] * inv_sqrt[1:],
            select="i", select_range=(0, 2),
        )
        lam1, _ = spectral_gap_1d(p)
        u2 = vecs[:, 2] * inv_sqrt
        assert_allclose(rayleigh_quotient(p, u2), vals[2], rtol=1e-9)
        assert vals[2] >= lam1

    def test_constant_input_degenerate(self):
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        p = build_spectral_problem(d, n_cells=100)
        with pytest.raises(DomainError):
            rayleigh_quotient(p, np.ones(p.n_cells))

    def test_shape_enforced(self):
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        p = build_spectral_problem(d, n_cells=100)
        with pytest.raises(DomainError):
            rayleigh_quotient(p, np.ones(7))


class TestPoincareCertify:
    def test_gaussian_whole_line(self):
        d = Density(ZeroWeight(), 0.5, 2, (-INF, INF))
        cert = poincare_certify(d)
        assert_allclose(cert.lambda_value, 1.0, rtol=1e-6)
        assert cert.truncation_shift <= 1e-8

    def test_smooth_sweep_certified(self):
        cases = [
            Density(AffineWeight(1.0, 0.0), 0.5, 2, (0.0, 1.0)),
            Density(QuadraticWeight(1.0, 0.0, 0.0), 0.5, 2, (-1.0, 1.0)),
            Density(LogPowerWeight(2.0), 0.5, 2, (0.0, INF)),
        ]
        for d in cases:
            cert = poincare_certify(d)
            # the spectrum stage's bound: lambda - 2c >= -1e-6 min(1, 2c)
            assert cert.lambda_value - 2.0 * d.c >= -1e-6, f"{d.weight} failed certification"
            assert check_concavity(d.weight).concave

    def test_randomized_concave_piecewise_linear(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            w = random_concave_piecewise_linear(rng)
            d = Density(w, 0.5, 2, (-1.0, 1.0))
            cert = poincare_certify(d)
            assert cert.lambda_value - 2.0 * d.c >= -1e-6
            assert cert.truncation_shift == 0.0

    def test_a_mirrored_slab_has_the_same_gap(self):
        """ω = 30t on (−∞, 20) puts the mass at the pencil's right end.  The
        Green's solve pinned u at the left end and lost the gap to
        cancellation there: 0.0740, against 32.586 on the mirror image
        ω = −30t on (−20, ∞).  Pinned at the median cell both read 32.586."""
        left = poincare_certify(Density(AffineWeight(30.0, 0.0), 0.5, 2, (-INF, 20.0)))
        right = poincare_certify(Density(AffineWeight(-30.0, 0.0), 0.5, 2, (-20.0, INF)))
        assert abs(left.lambda_value / right.lambda_value - 1.0) <= 1e-12
        assert right.lambda_value > 30.0

    def test_nonconcave_diagnostic_violation(self):
        """κ = −0.4 flattens the measure to c′ = 0.1: gap 0.2 < 2c."""
        d = Density(QuadraticWeight(-0.4, 0.0, 0.0), 0.5, 2, (-INF, INF))
        cert = poincare_certify(d)
        assert not check_concavity(d.weight).concave
        assert_allclose(cert.lambda_value, 0.2, rtol=1e-6)


class TestSpectrumCsv:
    def test_header_and_roundtrip(self):
        d = Density(ZeroWeight(), 0.5, 2, (0.0, 1.0))
        p = build_spectral_problem(d, n_cells=16)
        _, u = spectral_gap_1d(p)
        text = spectrum_csv(p, u)
        lines = text.strip().split("\n")
        assert lines[0] == "t,w,u1"
        assert len(lines) == 17
        row = [float(x) for x in lines[1].split(",")]
        assert_allclose(row[0], p.nodes[0], rtol=0, atol=0)


# the acceptance sweep at c = 1/2: every weight on every slab where it is defined
SWEEP = tuple(
    Density(weight, 0.5, 2, slab)
    for weight, slabs in (
        (ZeroWeight(), ((0.0, 1.0), (-1.0, 1.0), (0.0, INF), (-INF, INF))),
        (AffineWeight(1.0, 0.0), ((0.0, 1.0), (-1.0, 1.0), (0.0, INF), (-INF, INF))),
        (QuadraticWeight(1.0, 0.0, 0.0), ((0.0, 1.0), (-1.0, 1.0), (0.0, INF), (-INF, INF))),
        (LogPowerWeight(2.0), ((0.0, 1.0), (0.0, INF))),
    )
    for slab in slabs
)


class TestLanczosWork:
    def test_step_counts_on_the_sweep_pencils(self, monkeypatch):
        """One Ritz solve per Lanczos step, on the 21 pencils poincare_certify
        builds for the sweep (infinite slabs at pad 1 and 1.25)."""
        steps, eigh = [], np.linalg.eigh

        def counting_eigh(a):
            steps[-1] += 1
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        for density in SWEEP:
            infinite = not all(math.isfinite(v) for v in density.slab)
            for pad in (1.0, 1.25) if infinite else (1.0,):
                steps.append(0)
                spectral_gap_1d(build_spectral_problem(density, n_cells=2000, pad=pad))
        assert steps == [9, 7, 13, 13, 5, 3, 9, 9, 12, 12, 5, 3, 9, 8, 13, 13, 5, 3, 10, 12, 12]

    def test_the_problem_owns_its_arrays(self):
        p = build_spectral_problem(SWEEP[0], n_cells=64)
        nodes = p.nodes.copy()
        masses = np.array(p.masses)
        q = SpectralProblem(nodes, masses, p.conductances)
        nodes[0], masses[0] = -9.0, -1.0
        assert q.nodes[0] == p.nodes[0] and q.masses[0] == p.masses[0]
        for name in ("nodes", "masses", "conductances"):
            with pytest.raises(ValueError):
                getattr(q, name)[0] = 1.0
