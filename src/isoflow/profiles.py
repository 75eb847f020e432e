"""Half-space families and their isoperimetric profiles.

For f = e^{omega(t) - c|p|^2} on the planar slab Omega = R x (a, b),
half-plane boundaries come in two families: parallel (boundary {t = s})
and perpendicular ({x = s}).  With V(s), A(s) the weighted volume and
boundary length, the profile is F(v) = A(V^{-1}(v)).  Product reductions:

  parallel:       V(s) = (pi/c)^{1/2} int_a^s e^{omega - c t^2} dt
                  A(s) = (pi/c)^{1/2} e^{omega(s) - c s^2}
  perpendicular:  V(s) = M int_{-inf}^s e^{-c u^2} du
                  A(s) = M e^{-c s^2},
                  M = int_a^b e^{omega - c t^2} dt.

In R^n x (a, b) both half-spaces are these half-planes times R^(n-1),
whose Gaussian factor (pi/c)^((n-1)/2) scales V and A alike.

Since A' = (omega'(s) - 2cs) A along the parallel family and A' = -2cs A
along the perpendicular one, the profiles satisfy

  F'' F + 2c = omega''(s)   (parallel),
  G'' G + 2c = 0            (perpendicular),

so concave omega gives F'' <= -2c/F with equality exactly for affine omega.

Every grid is solved in one batch: parallel levels are quantiles of the
density's own weights.CumulativeDensity1D engine (resolved to about one
ulp of s), and perpendicular offsets are the closed-form Gaussian quantile.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DomainError, SmoothnessError
from .weights import (
    Density,
    PiecewiseLinearWeight,
    _float_arrays,
    _Frozen,
    gaussian_cdf,
    gaussian_factor,
    gaussian_quantile,
    total_weighted_volume,
)

__all__ = [
    "Profile",
    "ProfileOdeReport",
    "ComparisonVerdict",
    "build_profile",
    "check_profile_ode",
    "compare_profiles",
]

GRID_EPS = 1e-3  # relative volume margin kept clear of the degenerate endpoints


def _perpendicular_lines(c: float, v_total: float, q):
    """The offsets s of the vertical lines {x = s} with a fraction q of the
    mass on their left, and their weighted lengths V_tot·√(c/π)·e^{−cs²}:
    the lateral coordinate is a pure Gaussian."""
    s = gaussian_quantile(c, q, 1.0 - q)
    return s, v_total / gaussian_factor(c) * np.exp(-c * s * s)


class Profile(_Frozen):
    """Sampled profile F(v) = A(V^{-1}(v)) of a half-space family, in read-only copies."""

    def __init__(self, s: np.ndarray, V: np.ndarray, A: np.ndarray, v: np.ndarray,
                 F: np.ndarray, dF: np.ndarray, ddF: np.ndarray, v_total: float):
        _float_arrays(self, np.atleast_1d, s=s, V=V, A=A, v=v, F=F, dF=dF, ddF=ddF)
        vars(self).update(v_total=v_total)
        if np.any(np.diff(self.V) <= 0.0):
            raise ConsistencyError("profile volumes must be strictly increasing")
        if np.any(self.F <= 0.0):
            raise ConsistencyError("profile values must be positive on the open range")


def _chebyshev_grid(lo: float, hi: float, size: int) -> np.ndarray:
    k = np.arange(size, dtype=float)
    x = np.cos(math.pi * (size - 1 - k) / (size - 1))  # ascending in [-1, 1]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x


def build_profile(
    density: Density,
    family: str,
    grid_size: int = 65,
) -> Profile:
    """Profile of the parallel or perpendicular family on a Chebyshev volume grid.

    Volumes span [eps V_tot, (1 - eps) V_tot] with eps = 1e-3.  Parallel
    levels are quantiles of CumulativeDensity1D, resolved to about one ulp;
    perpendicular offsets are the closed-form Gaussian quantile of
    q = v / V_tot.  F' and F'' are recorded from the closed forms, so the
    parallel family needs a C-inf weight.
    """
    if family not in ("parallel", "perpendicular"):
        raise DomainError(f"unknown family {family!r}")
    if grid_size < 3:
        raise DomainError("need at least 3 grid volumes")
    c, w = density.c, density.weight
    if family == "parallel" and isinstance(w, PiecewiseLinearWeight):
        raise SmoothnessError("parallel profiles record omega' and omega''; need a C-inf weight")
    v_total = total_weighted_volume(density)
    v_grid = _chebyshev_grid(GRID_EPS * v_total, (1.0 - GRID_EPS) * v_total, grid_size)

    if family == "parallel":
        gf, cum = gaussian_factor(c), density.cumulative
        s_grid = cum.quantile(v_grid / v_total)
        V_grid = gf * cum.mass_below(s_grid)
        A_grid = gf * density.slab_factor(s_grid)
        dF = np.asarray(w.deriv(s_grid), dtype=float) - 2.0 * c * s_grid
        ddF = (np.asarray(w.deriv2(s_grid), dtype=float) - 2.0 * c) / A_grid
    else:
        s_grid, A_grid = _perpendicular_lines(c, v_total, v_grid / v_total)
        V_grid = v_total * gaussian_cdf(c, s_grid)
        dF = -2.0 * c * s_grid
        ddF = np.full_like(s_grid, -2.0 * c) / A_grid

    return Profile(
        s=s_grid,
        V=V_grid,
        A=A_grid,
        v=v_grid,
        F=A_grid,
        dF=dF,
        ddF=ddF,
        v_total=v_total,
    )


class ProfileOdeReport(NamedTuple):
    """The defect F''F + 2c over the profile grid, the rescaled residual
    of F'' + 2c/F, whose closed form is omega''(s) for parallel families
    and 0 for perpendicular ones."""

    verdict: str  # 'equality' | 'inequality' | 'violation'
    max_defect: float
    counterexamples: tuple[float, ...]


def check_profile_ode(profile: Profile, c: float, tol: float = 1e-8) -> ProfileOdeReport:
    defect = profile.ddF * profile.F + 2.0 * c
    bad = profile.v[defect > tol]
    if bad.size:
        verdict = "violation"
    elif np.max(np.abs(defect)) <= tol:
        verdict = "equality"
    else:
        verdict = "inequality"
    return ProfileOdeReport(
        verdict=verdict,
        max_defect=float(np.max(defect)),
        counterexamples=tuple(float(v) for v in bad[:16]),
    )


class ComparisonVerdict(NamedTuple):
    """F vs G on a common volume grid; ties within tie_tol * max(F, G)."""

    verdict: str  # 'strict' | 'ge_with_ties' | 'violation'
    min_margin: float
    n_ties: int
    violations: tuple[float, ...]


def compare_profiles(f_profile: Profile, g_profile: Profile, tie_tol: float = 1e-8) -> ComparisonVerdict:
    """Pointwise comparison of two profiles of the same density on their
    common volume grid; different totals or grids raise ConsistencyError."""
    vf, vg = f_profile.v_total, g_profile.v_total
    if abs(vf - vg) > 1e-8 * max(vf, vg):
        raise ConsistencyError(
            f"total volumes differ ({vf!r} vs {vg!r}); profiles are incompatible"
        )
    same_grid = f_profile.v.shape == g_profile.v.shape and np.allclose(
        f_profile.v, g_profile.v, rtol=1e-12, atol=0.0
    )
    if not same_grid:
        raise ConsistencyError("profiles are sampled on different volume grids")
    common, F, G = f_profile.v, f_profile.F, g_profile.F

    tie_band = tie_tol * np.maximum(F, G)
    margin = F - G
    n_ties = int(np.count_nonzero(np.abs(margin) <= tie_band))
    violations = common[margin < -tie_band]
    if violations.size:
        verdict = "violation"
    elif n_ties:
        verdict = "ge_with_ties"
    else:
        verdict = "strict"
    return ComparisonVerdict(
        verdict=verdict,
        min_margin=float(np.min(margin)),
        n_ties=n_ties,
        violations=tuple(float(v) for v in violations[:32]),
    )
