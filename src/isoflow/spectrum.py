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
second-smallest eigenvalue of the symmetrized tridiagonal pencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConsistencyError, DomainError
from .weights import Density, _one_sided_cutoff, check_concavity

__all__ = [
    "PoincareCertificate",
    "SpectralProblem",
    "build_spectral_problem",
    "poincare_certify",
    "rayleigh_quotient",
    "spectral_gap_1d",
    "spectrum_csv",
]

# truncation mass level e^{-32}: for the pure Gaussian this places the
# cut exactly at |t| = 8 / sqrt(2c), eight standard deviations out
TRUNCATION_EPS = math.exp(-32.0)


@dataclass(frozen=True)
class SpectralProblem:
    """Discrete weighted eigenproblem on an interval, natural BC.

    nodes:        cell centers t_i, strictly increasing.
    masses:       w_i = e^{ω(t_i)−c t_i²} Δ, all positive.
    conductances: face values g_j = e^{ω−ct²}(face_j)/Δ between cells
                  j and j+1, carrying the Dirichlet form
                  D(u) = Σ g_j (u_{j+1} − u_j)².
    interval:     the (possibly truncated) computational interval.
    """

    density: Density
    interval: tuple[float, float]
    nodes: np.ndarray
    masses: np.ndarray
    conductances: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        w = np.atleast_1d(np.asarray(self.masses, dtype=float))
        g = np.atleast_1d(np.asarray(self.conductances, dtype=float))
        object.__setattr__(self, "nodes", t)
        object.__setattr__(self, "masses", w)
        object.__setattr__(self, "conductances", g)
        if t.size < 16:
            raise DomainError("spectral problem needs at least 16 cells")
        if w.shape != t.shape or g.shape != (t.size - 1,):
            raise ConsistencyError("inconsistent spectral problem arrays")
        if np.any(np.diff(t) <= 0.0):
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

    Infinite slab sides are cut where the dominating-Gaussian tail mass
    drops below e^{−32}; pad stretches the cut (used for truncation
    sensitivity checks).  Cell centers never touch the interval
    endpoints, so weights that vanish there (log-power at 0) still
    produce strictly positive masses.
    """
    a, b = density.slab
    lo = a if math.isfinite(a) else pad * _one_sided_cutoff(density, False, TRUNCATION_EPS, 0.0)
    hi = b if math.isfinite(b) else pad * _one_sided_cutoff(density, True, TRUNCATION_EPS, 0.0)
    if not lo < hi:
        raise DomainError("empty computational interval")
    delta = (hi - lo) / n_cells
    centers = lo + (np.arange(n_cells) + 0.5) * delta
    faces = lo + np.arange(1, n_cells) * delta
    w_fn = density.weight
    c = density.c
    masses = np.exp(w_fn.value(centers) - c * centers * centers) * delta
    conductances = np.exp(w_fn.value(faces) - c * faces * faces) / delta
    return SpectralProblem(
        density=density,
        interval=(float(lo), float(hi)),
        nodes=centers,
        masses=masses,
        conductances=conductances,
    )


def _dirichlet_energy(problem: SpectralProblem, u: np.ndarray) -> float:
    du = np.diff(u)
    return float(np.sum(problem.conductances * du * du))


def spectral_gap_1d(problem: SpectralProblem) -> tuple[float, np.ndarray]:
    """Smallest nonzero eigenvalue of K u = λ M u with its eigenvector.

    The symmetrized pencil B = M^{−1/2} K M^{−1/2} is tridiagonal; the
    constant function spans the kernel, so the gap is eigenvalue index 1.
    The returned eigenvector is mass-normalized and projected to the
    discrete mean-zero subspace.
    """
    w = problem.masses
    g = problem.conductances
    diag_k = np.zeros_like(w)
    diag_k[:-1] += g
    diag_k[1:] += g
    inv_sqrt = 1.0 / np.sqrt(w)
    d = diag_k * inv_sqrt * inv_sqrt
    e = -g * inv_sqrt[:-1] * inv_sqrt[1:]
    try:
        vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 1))
    except Exception as exc:  # propagate with conditioning diagnostics
        raise ConsistencyError(
            "tridiagonal eigensolver failed "
            f"(mass range [{w.min():.3e}, {w.max():.3e}], "
            f"conductance range [{g.min():.3e}, {g.max():.3e}]): {exc}"
        ) from exc
    lam = float(vals[1])
    u = vecs[:, 1] * inv_sqrt
    u = u - float(np.sum(u * w)) / float(np.sum(w))
    u = u / math.sqrt(float(np.sum(u * u * w)))
    return lam, u


def rayleigh_quotient(problem: SpectralProblem, u) -> float:
    """D(u)/‖u‖²_μ after projecting u onto the mean-zero subspace."""
    u = np.asarray(u, dtype=float)
    if u.shape != problem.nodes.shape:
        raise DomainError("test function must be sampled at the cell centers")
    w = problem.masses
    u = u - float(np.sum(u * w)) / float(np.sum(w))
    denom = float(np.sum(u * u * w))
    if denom <= 1e-28 * float(np.sum(w)):
        raise DomainError("test function is zero after mean-zero projection")
    return _dirichlet_energy(problem, u) / denom


@dataclass(frozen=True)
class PoincareCertificate:
    """Verdict on the spectral bound λ ≥ 2c for a vertical hyperplane.

    lambda_value:     computed gap of the 1-D slab factor.
    hyperplane_gap:   min(2c, lambda_value), the gap of the full product
                      (each Gaussian factor contributes exactly 2c).
    bound:            the certified threshold 2c (1 − 5e−3).
    truncation_shift: |λ(1.25 × cutoff) − λ| for infinite slabs, 0.0 for
                      bounded ones.
    concave:          whether the weight passed the concavity check (the
                      bound is only guaranteed in that case).
    problem:          the pad-1.0 pencil the gap was computed from.
    eigenvector:      its mean-zero, mass-normalized gap eigenvector.
    """

    certified: bool
    lambda_value: float
    hyperplane_gap: float
    bound: float
    truncation_shift: float
    concave: bool
    n_cells: int
    problem: SpectralProblem
    eigenvector: np.ndarray


def poincare_certify(density: Density, n_cells: int = 2000) -> PoincareCertificate:
    """Certify λ ≥ 2c (1 − 5e−3) for the slab factor of the density.

    Runs for any weight; concavity guarantees the bound, and the verdict
    on a non-concave diagnostic weight simply reports the computed gap.
    Infinite slabs are recomputed at 1.25 times the truncation cutoff
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
    bound = 2.0 * density.c * (1.0 - 5e-3)
    return PoincareCertificate(
        certified=lam >= bound,
        lambda_value=lam,
        hyperplane_gap=min(2.0 * density.c, lam),
        bound=bound,
        truncation_shift=shift,
        concave=check_concavity(density.weight).concave,
        n_cells=problem.n_cells,
        problem=problem,
        eigenvector=eigenvector,
    )


def spectrum_csv(problem: SpectralProblem, u1) -> str:
    """Serialize to CSV with header t,w,u1 (shortest round-trip floats)."""
    u1 = np.asarray(u1, dtype=float)
    if u1.shape != problem.nodes.shape:
        raise DomainError("eigenvector must be sampled at the cell centers")
    lines = ["t,w,u1"]
    for t, w, u in zip(problem.nodes, problem.masses, u1):
        lines.append(f"{float(t)!r},{float(w)!r},{float(u)!r}")
    return "\n".join(lines) + "\n"
