"""Weighted Sturm-Liouville spectral gap on intervals.

The measure is e^{ω(t)−ct²} dt on the slab factor of a vertical
hyperplane.  The spectral gap

    λ = inf { ∫ u′² dμ / ∫ u² dμ  :  ∫ u dμ = 0 }

is the sharp Poincaré constant of the factor; under concave ω the
Bakry-Émery criterion forces λ ≥ 2c, with equality for the pure
Gaussian on the whole line.  Discretization is a cell-centered finite
volume scheme: cell masses lump the measure, face conductances carry
the Dirichlet energy, and the natural (no-flux) boundary condition is
automatic.  The constant vector spans the kernel, so the gap is the
second-smallest eigenvalue of the tridiagonal pencil K u = λ M u.

That eigenvalue is found with numpy alone, by Lanczos on the pencil's
Neumann Green's operator: on a weighted path graph K u = M v is solved
by two cumulative sums (face fluxes, then their increments), and the
largest eigenvalue of that operator on mean-zero functions is 1/λ, well
separated from 1/λ₂ < 1/λ, so a handful of Krylov steps resolve it.
Full reorthogonalization is two BLAS matrix-vector products per pass
(Parlett 1980) and M inner products are dot products; BLAS summation
order moves λ (≤ 7e-16 relative on the sweep), never the step count.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DomainError
from .weights import Density, _float_arrays, _Frozen

__all__ = [
    "PoincareCertificate",
    "SpectralProblem",
    "build_spectral_problem",
    "poincare_certify",
    "spectral_gap_1d",
]

# Lanczos stops once the gap Ritz pair's residual is _LANCZOS_TOL of its
# Ritz value (eigenvector error about that over the relative spectral gap)
_LANCZOS_TOL = 1e-13
_LANCZOS_STEPS = 60


class SpectralProblem(_Frozen):
    """Discrete weighted eigenproblem on an interval, natural BC.

    nodes:        cell centers t_i, strictly increasing.
    masses:       w_i = e^{ω(t_i)−c t_i²} Δ, all positive.
    conductances: face values g_j = e^{ω−ct²}(face_j)/Δ between cells
                  j and j+1, carrying the Dirichlet form
                  D(u) = Σ g_j (u_{j+1} − u_j)².
    """

    def __init__(self, nodes, masses, conductances):
        t, w, g = _float_arrays(self, np.atleast_1d, nodes=nodes, masses=masses, conductances=conductances)
        if t.size < 16:
            raise DomainError("spectral problem needs at least 16 cells")
        if w.shape != t.shape or g.shape != (t.size - 1,):
            raise ConsistencyError("inconsistent spectral problem arrays")
        if np.any(t[1:] - t[:-1] <= 0.0):
            raise ConsistencyError("nodes must be strictly increasing")
        if np.any(w <= 0.0) or np.any(g <= 0.0):
            raise ConsistencyError("measure weights and conductances must be positive")

    @property
    def n_cells(self) -> int:
        return self.nodes.size


def build_spectral_problem(
    density: Density, n_cells: int = 2000, pad: float = 1.0
) -> SpectralProblem:
    """Assemble the cell-centered problem on the (truncated) slab factor.

    Infinite slab sides are cut by the engine's tail rule unpadded,
    Density._cut(0.0), each beyond a point inside the slab; pad stretches
    the cut interval away from the slab's finite end (from 0 on R), for
    truncation sensitivity.  Cell centers never touch the interval
    endpoints, so weights that vanish there (log-power at 0) still produce
    strictly positive masses.
    """
    (a, b), (lo, hi) = density.slab, density._cut(0.0)
    anchor = a if math.isfinite(a) else b if math.isfinite(b) else 0.0
    lo, hi = anchor + pad * (lo - anchor), anchor + pad * (hi - anchor)
    if n_cells < 16:
        raise DomainError("spectral problem needs at least 16 cells")
    delta = (hi - lo) / n_cells
    # the cell centers, then the faces, through one evaluation of e^{ω − ct²}
    t = lo + np.concatenate((np.arange(n_cells) + 0.5, np.arange(1, n_cells))) * delta
    f = density.slab_factor(t)
    return SpectralProblem(
        nodes=t[:n_cells],
        masses=f[:n_cells] * delta,
        conductances=f[n_cells:] / delta,
    )


def spectral_gap_1d(problem: SpectralProblem) -> tuple[float, np.ndarray]:
    """Smallest nonzero eigenvalue of K u = λ M u with its eigenvector.

    Lanczos, in the M inner product and with full reorthogonalization, on
    the Green's operator v ↦ u with K u = M v over mean-zero functions,
    started from the linear function (which overlaps the monotone gap
    eigenvector).  Its largest Ritz value is 1/λ.  The face fluxes
    g_i (u_{i+1} − u_i) = −Σ_{j≤i} w_j v_j are summed from whichever end
    carries less mass, and u outward from the median cell, where it is
    pinned to 0, so tails do not cancel.  The returned eigenvector
    is mean-zero, mass-normalized and increasing; a run that does not
    converge raises ConsistencyError with the pencil's conditioning.
    """
    w, g, t = problem.masses, problem.conductances, problem.nodes
    total = float(np.sum(w))
    # faces up to the median carry the flux summed from the left, the rest
    # from the right: a prefix, as cumsum(w) increases
    median = int(np.count_nonzero(np.cumsum(w)[:-1] <= 0.5 * total))

    def green(v: np.ndarray) -> np.ndarray:
        f = w * v
        flux = np.concatenate((-f[:median].cumsum(), f[:median:-1].cumsum()[::-1]))
        d = flux / g
        u = np.concatenate((-d[:median][::-1].cumsum()[::-1], [0.0], d[median:].cumsum()))
        return u - float(u @ w) / total

    q = t - float(t @ w) / total
    # the Lanczos vectors by row, and the tridiagonal matrix of the recurrence
    basis, tri = np.empty((_LANCZOS_STEPS + 1, t.size)), np.zeros((_LANCZOS_STEPS + 1,) * 2)
    basis[0] = q / math.sqrt(float(q @ (w * q)))
    for k in range(_LANCZOS_STEPS):
        z = green(basis[k])
        q = basis[: k + 1]
        for _ in range(2):  # twice is enough for orthogonality
            coef = q @ (w * z)
            z -= coef @ q
            tri[k, k] += float(coef[-1])
        b = math.sqrt(float(z @ (w * z)))
        ritz, vectors = np.linalg.eigh(tri[: k + 1, : k + 1])
        theta, s = float(ritz[-1]), vectors[:, -1]
        residual = b * abs(float(s[-1])) / theta if theta > 0.0 else math.nan
        if not residual > _LANCZOS_TOL:  # converged, or broken down on nan
            break
        tri[k, k + 1] = tri[k + 1, k] = b
        basis[k + 1] = z / b
    if not residual <= _LANCZOS_TOL:
        raise ConsistencyError(
            f"Lanczos gap solve did not converge (relative residual {residual:.3e} "
            f"after {k + 1} steps; mass range [{w.min():.3e}, {w.max():.3e}], "
            f"conductance range [{g.min():.3e}, {g.max():.3e}])"
        )
    u = s @ q
    u = u - float(u @ w) / total
    u = u / math.sqrt(float(u @ (w * u)))
    return 1.0 / theta, (u if u[-1] >= u[0] else -u)


class PoincareCertificate(NamedTuple):
    """The slab factor's spectral gap, the one number the Bakry-Émery
    bound λ ≥ 2c is about; the verdict on it, and the concavity check that
    says whether it must hold, are the spectrum stage's.

    lambda_value:     computed gap of the 1-D slab factor.
    truncation_shift: |λ(pad 1.25) − λ| for infinite slabs, the truncated
                      interval stretched 1.25 times (build_spectral_problem);
                      0.0 for bounded ones.
    problem:          the pad-1.0 pencil the gap was computed from.
    eigenvector:      its mean-zero, mass-normalized gap eigenvector.
    """

    lambda_value: float
    truncation_shift: float
    problem: SpectralProblem
    eigenvector: np.ndarray


def poincare_certify(density: Density, n_cells: int = 2000) -> PoincareCertificate:
    """The slab-factor gap of the density, with the evidence a verdict on
    λ ≥ 2c reads.

    Runs for any weight; concavity guarantees the bound, and the gap of a
    non-concave diagnostic weight is reported as computed.  Infinite
    slabs are recomputed on the truncated interval stretched 1.25 times
    and the eigenvalue shift is reported.
    """
    problem = build_spectral_problem(density, n_cells=n_cells)
    lam, eigenvector = spectral_gap_1d(problem)
    a, b = density.slab
    if math.isinf(a) or math.isinf(b):
        wide = build_spectral_problem(density, n_cells=n_cells, pad=1.25)
        lam_wide, _ = spectral_gap_1d(wide)
        shift = abs(lam_wide - lam)
    else:
        shift = 0.0
    return PoincareCertificate(
        lambda_value=lam,
        truncation_shift=shift,
        problem=problem,
        eigenvector=eigenvector,
    )
