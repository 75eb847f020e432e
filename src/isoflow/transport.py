"""Monotone transport from the Gaussian onto the perturbed measure.

The vertical marginals μ₁ = α e^{−cs²} ds on ℝ and μ₂ = β e^{ω(s)−cs²} ds
on the slab (a,b) are both probability measures; the nondecreasing
rearrangement ρ = CDF₂⁻¹ ∘ CDF₁ pushes μ₁ forward onto μ₂ and satisfies
the change-of-variables identity

    α e^{−c s²} = β e^{ω(ρ(s)) − c ρ(s)²} ρ′(s).

For concave ω the target is at least as log-concave as the source, so ρ
is a contraction: ρ′ ≤ 1 everywhere.  The product map T(z,s) = (z, ρ(s))
then pulls weighted perimeter back to Gaussian perimeter with ratio at
least β/α, the mechanism behind the perpendicular comparison bound.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DomainError
from .geometry import DiscreteCurve, _check_in_slab, _polyline_weighted_length, curve_weighted_length
from .weights import (
    Density,
    ZeroWeight,
    _csv_table,
    _float_arrays,
    _Frozen,
    check_concavity,
    gaussian_cdf,
    gaussian_factor,
    gaussian_quantile,
)

__all__ = [
    "ContractionReport",
    "PerimeterBoundReport",
    "PushforwardReport",
    "TransportMap",
    "build_transport",
    "check_contraction",
    "pushforward_check",
    "transport_csv",
    "transported_perimeter_bound",
]

QUANTILE_CLIP = 1e-14
# gaussian_quantile(1/2, 1 - p, p), the standard normal quantile by AS241, at
# p = QUANTILE_CLIP and at the default grid's 1e-13; over sqrt(2c) for any c
_Z_CLIP, _Z_GRID = 7.650628092935268, 7.3487961028006765


class TransportMap(_Frozen):
    """Sampled monotone rearrangement with its closed-form derivative.

    s:     strictly increasing sample grid in the source line.
    rho:   ρ(s_i) ∈ [a, b], nondecreasing.
    drho:  ρ′(s_i) ≥ 0 from the change-of-variables identity, not from
           differencing.
    alpha, beta: reciprocal masses of source and target.
    n_clipped: grid points whose source quantile fell outside
           [1e−14, 1−1e−14] and were evaluated at the clipped quantile.
    """

    def __init__(self, source: Density, target: Density, s, rho, drho, alpha: float, beta: float,
                 n_clipped: int = 0):
        s, rho, drho = _float_arrays(self, np.atleast_1d, s=s, rho=rho, drho=drho)
        vars(self).update(source=source, target=target, alpha=alpha, beta=beta, n_clipped=n_clipped)
        if s.ndim != 1 or s.shape != rho.shape or s.shape != drho.shape or s.size < 2:
            raise ConsistencyError("transport arrays must be 1-D of equal length >= 2")
        if np.any(np.diff(s) <= 0.0):
            raise ConsistencyError("sample grid must be strictly increasing")
        if np.any(np.diff(rho) < 0.0):
            raise ConsistencyError("transport values must be nondecreasing")
        if np.any(drho < 0.0):
            raise ConsistencyError("transport derivative must be nonnegative")
        a, b = self.target.slab
        if np.any(rho < a) or np.any(rho > b):
            raise ConsistencyError("transport values must stay inside the target slab")
        lhs = self.alpha * self.source.slab_factor(s)
        rhs = self.beta * self.target.slab_factor(rho) * drho
        residual = float(np.max(np.abs(lhs - rhs)))
        if residual > 1e-8 * self.alpha:
            raise ConsistencyError(
                f"derivative identity residual {residual:.3e} exceeds 1e-8 alpha"
            )

    @property
    def n_nodes(self) -> int:
        return self.s.size


def build_transport(
    density: Density,
    s_grid=None,
    grid_size: int = 2001,
    require_concave: bool = True,
) -> TransportMap:
    """Construct ρ = CDF₂⁻¹ ∘ CDF₁ on a sample grid of the source line.

    CDF₁ is the closed-form Gaussian error function; the target quantiles
    come from one batched quantile call on the density's own engine,
    resolved to about one ulp.  ρ′ comes
    from the change-of-variables identity, never from differences.
    Source quantiles outside [1e−14, 1−1e−14] are clipped and counted in
    n_clipped (diagnostic tails, irrelevant at downstream tolerances).
    """
    c = density.c
    if require_concave:
        report = check_concavity(density.weight)
        if not report.concave:
            raise ConsistencyError(
                f"transport source requires a concave weight: {report.detail}"
            )
    if s_grid is None:
        span = _Z_GRID / math.sqrt(2.0 * c)
        s = np.linspace(-span, span, grid_size)
    else:
        s = np.sort(np.asarray(s_grid, dtype=float))
    cum = density.cumulative
    alpha = 1.0 / gaussian_factor(c)
    beta = 1.0 / cum.total
    q, q_up = gaussian_cdf(c, np.stack((s, -s)))  # the CDF and, bit for bit, gaussian_ccdf(c, s)
    clipped = (q < QUANTILE_CLIP) | (q_up < QUANTILE_CLIP)
    n_clipped = int(np.count_nonzero(clipped))
    if n_clipped:
        q = np.clip(q, QUANTILE_CLIP, 1.0 - QUANTILE_CLIP)
        q_up = np.clip(q_up, QUANTILE_CLIP, 1.0 - QUANTILE_CLIP)
    rho = np.maximum.accumulate(cum.quantile(q, q_up))
    source = Density(ZeroWeight(), c, 2, (-math.inf, math.inf))
    drho = alpha * source.slab_factor(s) / (beta * density.slab_factor(rho))
    return TransportMap(
        source=source,
        target=density,
        s=s,
        rho=rho,
        drho=drho,
        alpha=alpha,
        beta=beta,
        n_clipped=n_clipped,
    )


class ContractionReport(NamedTuple):
    """Node-wise certificate of the 1-Lipschitz property ρ′ ≤ 1."""

    certified: bool
    max_derivative: float
    max_location: float
    tolerance: float


def check_contraction(tmap: TransportMap, tol: float = 1e-6) -> ContractionReport:
    """Certificate iff max ρ′ ≤ 1 + tol over the sample grid."""
    i = int(np.argmax(tmap.drho))
    worst = float(tmap.drho[i])
    return ContractionReport(
        certified=worst <= 1.0 + tol,
        max_derivative=worst,
        max_location=float(tmap.s[i]),
        tolerance=tol,
    )


class PushforwardReport(NamedTuple):
    """Mass-preservation residuals |μ₂(D) − μ₁(ρ⁻¹(D))| over intervals."""

    max_residual: float
    intervals: np.ndarray
    residuals: np.ndarray


def _inverse_map(tmap: TransportMap, d) -> np.ndarray:
    """ρ⁻¹(d) through the CDF relation, accurate in both tails; ∓∞ off (a, b)."""
    return gaussian_quantile(tmap.source.c, *tmap.target.cumulative.cdf_sides(d))


def pushforward_check(
    tmap: TransportMap,
    intervals=None,
    n_intervals: int = 50,
    seed: int = 0,
) -> PushforwardReport:
    """Verify μ₂(D) = μ₁(ρ⁻¹(D)) on sampled intervals D ⊆ (a, b).

    The left side integrates the target density directly; the right side
    maps the endpoints back through the CDF relation and evaluates the
    closed-form Gaussian mass, so the two routes share no quadrature.
    Sampled mass levels are random.Random(seed).uniform draws, built on the
    random() sequence Python keeps per seed; a negative seed is rejected,
    as Random would take |seed|.
    """
    if seed < 0:
        raise ValueError(f"pushforward seed must be non-negative, got {seed}")
    cum = tmap.target.cumulative
    a, b = tmap.target.slab
    if intervals is None:
        draw = random.Random(seed).uniform
        levels = np.array([draw(1e-3, 1.0 - 1e-3) for _ in range(2 * n_intervals)]).reshape(-1, 2)
        levels.sort(axis=1)
        intervals = cum.quantile(levels)
    else:
        intervals = np.atleast_2d(np.asarray(intervals, dtype=float))
    if not intervals.size:  # a residual over no interval checks nothing
        raise DomainError("pushforward check needs at least one interval")
    d1, d2 = intervals[:, 0], intervals[:, 1]
    if not np.all(d1 <= d2):
        raise DomainError("interval endpoints must satisfy d1 <= d2")
    below = cum.mass_below(np.stack((np.maximum(d1, a), np.minimum(d2, b))))
    mu1 = gaussian_cdf(tmap.source.c, _inverse_map(tmap, intervals))
    residuals = np.abs((below[1] - below[0]) / cum.total - (mu1[:, 1] - mu1[:, 0]))
    return PushforwardReport(
        max_residual=float(residuals.max()),
        intervals=intervals,
        residuals=residuals,
    )


class PerimeterBoundReport(NamedTuple):
    """Weighted perimeter against the transported Gaussian lower bound."""

    weighted_perimeter: float
    gaussian_bound: float
    slack: float


def transported_perimeter_bound(tmap: TransportMap, curve: DiscreteCurve) -> PerimeterBoundReport:
    """P_f(curve) against (α/β) P_γ of the node-wise pullback.

    The product map T(z,s) = (z, ρ(s)) has surface Jacobian between ρ′
    and 1, so with ρ′ ≤ 1 the weighted perimeter of a curve dominates
    α/β times the Gaussian perimeter of its preimage.  Nodes are pulled
    back in one batch through the CDF relation and the target's
    engine (wall nodes land at the clipped quantile) and joined into a
    polyline.
    """
    density, points, n = tmap.target, curve.points, curve.n_nodes
    p_f = curve_weighted_length(density, curve)
    _check_in_slab(density, points)
    clip_span = _Z_CLIP / math.sqrt(2.0 * tmap.source.c)
    pulled = np.empty((n + curve.closed, 2))  # a closed curve repeats its first node
    pulled[:n, 0] = points[:, 0]
    np.clip(_inverse_map(tmap, points[:, 1]), -clip_span, clip_span, out=pulled[:n, 1])
    pulled[n:] = pulled[:1]
    p_gauss = _polyline_weighted_length(tmap.source, pulled)
    bound = (tmap.alpha / tmap.beta) * p_gauss
    return PerimeterBoundReport(
        weighted_perimeter=p_f,
        gaussian_bound=bound,
        slack=p_f - bound,
    )


def transport_csv(tmap: TransportMap) -> str:
    """Serialize to CSV with header s,rho,drho (shortest round-trip floats)."""
    return _csv_table("s,rho,drho", tmap.s, tmap.rho, tmap.drho)
