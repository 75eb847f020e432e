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

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .geometry import DiscreteCurve, _check_in_slab, _segment_nodes, _segment_sum, curve_weighted_length
from .weights import (
    Density,
    ZeroWeight,
    _Frozen,
    _read_only,
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
    "transported_perimeter_bound",
]

# gaussian_quantile(1/2, p, False), the standard normal quantile by AS241, at
# the perimeter bound's clip p = 1e-14 and at the grid's 1e-13; over sqrt(2c) for any c
_Z_CLIP, _Z_GRID = 7.650628092935268, 7.3487961028006765


@functools.lru_cache(maxsize=8)
def _source_grid(c: float) -> tuple[Density, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The source e^{−cs²} on ℝ (a Density builds its cut and engine when it
    is built), the map's 2001-point grid s, its tail sides Φ_c(−|s|) and
    s ≤ 0 (near 1e−13 at the ends for any c, so none is clipped), and the
    source factor e^{−cs²}; read-only, computed once per c."""
    line = Density(ZeroWeight(), c, 2, (-math.inf, math.inf))
    span = _Z_GRID / math.sqrt(2.0 * c)
    s = np.linspace(-span, span, 2001)
    p = gaussian_cdf(c, -np.abs(s))
    return line, _read_only(s), _read_only(p), _read_only(s <= 0.0), _read_only(line.slab_factor(s))


class TransportMap(_Frozen):
    """Monotone rearrangement ρ = CDF₂⁻¹ ∘ CDF₁ of the Gaussian onto target,
    sampled on 2001 points of the source line spanning source quantiles
    1e−13 to 1 − 1e−13.

    Every array is read-only; everything is derived from target:
    source: the Gaussian line e^{−cs²} on ℝ, with the target's c, and
    s:     the grid, both cached per c and shared by every map with that c.
    alpha, beta: reciprocal masses of source and target.
    rho:   ρ(s_i) ∈ [a, b]: CDF₁ in closed form (cached per c with the grid),
           then one batched quantile call on the target's engine, resolved
           to about one ulp and made nondecreasing by a running maximum.
    drho:  ρ′(s_i) from the change-of-variables identity, never from
           differences.
    """

    def __init__(self, target: Density):
        c, cum = target.c, target.cumulative
        alpha = 1.0 / gaussian_factor(c)
        beta = 1.0 / cum.total
        line, s, p, lower, factor = _source_grid(c)
        rho = np.maximum.accumulate(cum.quantile(p, lower))
        drho = alpha * factor / (beta * target.slab_factor(rho))
        vars(self).update(s=s, source=line, target=target, rho=_read_only(rho), drho=_read_only(drho),
                          alpha=alpha, beta=beta)


def build_transport(density: Density) -> TransportMap:
    """TransportMap(density), for any weight: ρ′ ≤ 1 is claimed only for a
    concave one.  The benchmark calls this name; its tracer times it as
    transport.build."""
    return TransportMap(density)


class ContractionReport(NamedTuple):
    """Node-wise certificate of the 1-Lipschitz property ρ′ ≤ 1."""

    certified: bool
    max_derivative: float
    max_location: float


def check_contraction(tmap: TransportMap, tol: float = 1e-6) -> ContractionReport:
    """Certificate iff max ρ′ ≤ 1 + tol over the sample grid."""
    i = int(np.argmax(tmap.drho))
    worst = float(tmap.drho[i])
    return ContractionReport(
        certified=worst <= 1.0 + tol,
        max_derivative=worst,
        max_location=float(tmap.s[i]),
    )


class PushforwardReport(NamedTuple):
    """The largest mass residual, at a node s_i or an interval's lower end d1."""

    max_residual: float
    max_location: float


def _inverse_map(tmap: TransportMap, d) -> np.ndarray:
    """ρ⁻¹(d) through the CDF relation, accurate in both tails; ∓∞ off (a, b)."""
    return gaussian_quantile(tmap.source.c, *tmap.target.cumulative.tail_sides(d))


def pushforward_check(tmap: TransportMap, intervals=None) -> PushforwardReport:
    """Verify that ρ pushes μ₁ forward onto μ₂, by default at the map's own
    nodes: ρ sends (−∞, s_i] to (a, ρ_i], so r_i = |F(ρ_i) − Φ(s_i)|, each
    CDF read on its tail side, and r_i = ∞ at a node outside [a, b].
    Explicit intervals D = (d1, d2) compare the target's mass μ₂(D) with
    μ₁(ρ⁻¹(D)), the ends pulled back through the CDF relation: that route
    never reads ρ, so it checks the engine against Φ⁻¹, not the map."""
    cum, (a, b) = tmap.target.cumulative, tmap.target.slab
    if intervals is None:
        s = locations = tmap.s
        inside = (tmap.rho >= a) & (tmap.rho <= b)
        p, lower = cum.tail_sides(np.where(inside, tmap.rho, a))
        phi = gaussian_cdf(tmap.source.c, np.where(lower, s, -s))
        residuals = np.where(inside, np.abs(p - phi), math.inf)
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
        locations = d1
    i = int(np.argmax(residuals))
    return PushforwardReport(max_residual=float(residuals[i]), max_location=float(locations[i]))


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
    density, points, c = tmap.target, curve.points, tmap.source.c
    _check_in_slab(density, points)
    p_f = curve_weighted_length(density, curve)
    clip_span = _Z_CLIP / math.sqrt(2.0 * c)
    sigma = _inverse_map(tmap, points[:, 1])
    np.minimum(np.maximum(sigma, -clip_span, out=sigma), clip_span, out=sigma)  # np.clip's bits
    x = points[:, 0]
    if curve.closed:  # a closed curve repeats its first node
        x, sigma = np.append(x, x[0]), np.append(sigma, sigma[0])
    # e^{-c (x^2 + s^2)} at the segments' nodes: the source's psi is 0.0 - c y,
    # the same bits as (-c) y wherever y != 0, and e^{+-0} = 1
    ell, px, pt = _segment_nodes(x, sigma)
    px *= px
    pt *= pt
    px += pt
    px *= -c
    p_gauss = _segment_sum(ell, np.exp(px, out=px))
    bound = (tmap.alpha / tmap.beta) * p_gauss
    return PerimeterBoundReport(
        weighted_perimeter=p_f,
        gaussian_bound=bound,
        slack=p_f - bound,
    )
