"""Half-space families and their isoperimetric profiles.

For f = e^{omega(t) - c|p|^2} on Omega = R^n x (a, b), half-space boundaries
come in families: parallel (boundary {t = s}) and perpendicular ({z_i = s}).
With V(s), A(s) the weighted volume and boundary area, the profile is
F(v) = A(V^{-1}(v)).  Product reductions:

  parallel:       V(s) = (pi/c)^{n/2} int_a^s e^{omega - c t^2} dt
                  A(s) = (pi/c)^{n/2} e^{omega(s) - c s^2}
  perpendicular:  V(s) = (pi/c)^{(n-1)/2} M int_{-inf}^s e^{-c u^2} du
                  A(s) = (pi/c)^{(n-1)/2} M e^{-c s^2},
                  M = int_a^b e^{omega - c t^2} dt.

Since A' = (omega'(s) - 2cs) A along the parallel family and A' = -2cs A
along the perpendicular one, the profiles satisfy

  F'' F + 2c = omega''(s)   (parallel),
  G'' G + 2c = 0            (perpendicular),

so concave omega gives F'' <= -2c/F with equality exactly for affine omega.
Tilted families on the whole space reduce to a 1-D integral with a mixed
argument omega(nu_t s + g u), g = sqrt(1 - nu_t^2), handled by
Gauss-Hermite quadrature.

Every grid is solved in one batch: parallel and tilted levels are
quantiles of weights.CumulativeDensity1D (resolved to about one ulp of s;
the parallel family reads the density's own engine), and perpendicular
offsets are the closed-form Gaussian quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DomainError, SmoothnessError
from .weights import (
    CumulativeDensity1D,
    Density,
    PiecewiseLinearWeight,
    _TAIL_MASS,
    _TAIL_PAD,
    _csv_table,
    _tangent_cutoff,
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
    "tilted_profile_wholespace",
    "profile_csv",
]

GRID_EPS = 1e-3  # relative volume margin kept clear of the degenerate endpoints


@dataclass(frozen=True)
class Profile:
    """Sampled profile F(v) = A(V^{-1}(v)) of a half-space family."""

    family: str
    s: np.ndarray
    V: np.ndarray
    A: np.ndarray
    v: np.ndarray
    F: np.ndarray
    dF: np.ndarray
    ddF: np.ndarray
    v_total: float

    def __post_init__(self):
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
    c, n = density.c, density.n
    w = density.weight

    if family == "parallel":
        if isinstance(w, PiecewiseLinearWeight):
            raise SmoothnessError(
                "parallel profiles record omega' and omega''; need a C-inf weight"
            )
        gf = gaussian_factor(n, c)
        cum = density.cumulative
        v_total = gf * cum.total
        v_grid = _chebyshev_grid(GRID_EPS * v_total, (1.0 - GRID_EPS) * v_total, grid_size)
        s_grid = cum.quantile(v_grid / v_total)
        V_grid = gf * cum.mass_below(s_grid)
        A_grid = gf * np.exp(w.value(s_grid) - c * s_grid * s_grid)
        dF = np.asarray(w.deriv(s_grid), dtype=float) - 2.0 * c * s_grid
        ddF = (np.asarray(w.deriv2(s_grid), dtype=float) - 2.0 * c) / A_grid
    else:
        if n < 1:
            raise DomainError("perpendicular family needs n >= 1")
        # the lateral coordinate is a pure Gaussian: V(s) = v_total CDF(s)
        v_total = total_weighted_volume(density)
        amp = v_total / math.sqrt(math.pi / c)
        v_grid = _chebyshev_grid(GRID_EPS * v_total, (1.0 - GRID_EPS) * v_total, grid_size)
        q = v_grid / v_total
        s_grid = gaussian_quantile(c, q, 1.0 - q)
        V_grid = v_total * gaussian_cdf(c, s_grid)
        A_grid = amp * np.exp(-c * s_grid * s_grid)
        dF = -2.0 * c * s_grid
        ddF = np.full_like(s_grid, -2.0 * c) / A_grid

    return Profile(
        family=family,
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
    """Residuals of F'' + 2c/F over the profile grid.

    defect is the rescaled residual F''F + 2c, whose closed form is
    omega''(s) for parallel families and 0 for perpendicular ones.
    """

    verdict: str  # 'equality' | 'inequality' | 'violation'
    max_abs_residual: float
    max_defect: float
    min_defect: float
    counterexamples: tuple[float, ...]


def check_profile_ode(profile: Profile, c: float, tol: float = 1e-8) -> ProfileOdeReport:
    residual = profile.ddF + 2.0 * c / profile.F
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
        max_abs_residual=float(np.max(np.abs(residual))),
        max_defect=float(np.max(defect)),
        min_defect=float(np.min(defect)),
        counterexamples=tuple(float(v) for v in bad[:16]),
    )


class ComparisonVerdict(NamedTuple):
    """F vs G on a common volume grid; ties within tie_tol * max(F, G)."""

    verdict: str  # 'strict' | 'ge_with_ties' | 'violation'
    min_margin: float
    ties: tuple[float, ...]
    violations: tuple[float, ...]
    grid: np.ndarray
    f_values: np.ndarray
    g_values: np.ndarray


def _hermite(profile: Profile, x: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolant of F through the profile's own (v, F, dF) at x,
    dF being the exact dF/dv."""
    v = profile.v
    i = np.clip(np.searchsorted(v, x, side="right") - 1, 0, v.size - 2)
    h = v[i + 1] - v[i]
    z = (x - v[i]) / h
    z2, z3 = z * z, z * z * z
    return ((2.0 * z3 - 3.0 * z2 + 1.0) * profile.F[i] + (z3 - 2.0 * z2 + z) * h * profile.dF[i]
            + (3.0 * z2 - 2.0 * z3) * profile.F[i + 1] + (z3 - z2) * h * profile.dF[i + 1])


def compare_profiles(f_profile: Profile, g_profile: Profile, tie_tol: float = 1e-8) -> ComparisonVerdict:
    """Pointwise comparison of two profiles of the same density.

    Profiles sampled on different grids are compared on a Chebyshev grid
    of their common volume range, each through the cubic Hermite
    interpolant of its own values and exact slopes.
    """
    vf, vg = f_profile.v_total, g_profile.v_total
    if abs(vf - vg) > 1e-8 * max(vf, vg):
        raise ConsistencyError(
            f"total volumes differ ({vf!r} vs {vg!r}); profiles are incompatible"
        )
    same_grid = f_profile.v.shape == g_profile.v.shape and np.allclose(
        f_profile.v, g_profile.v, rtol=1e-12, atol=0.0
    )
    if same_grid:
        common = f_profile.v
        F = f_profile.F
        G = g_profile.F
    else:
        lo = max(f_profile.v[0], g_profile.v[0])
        hi = min(f_profile.v[-1], g_profile.v[-1])
        common = _chebyshev_grid(lo, hi, max(len(f_profile.v), len(g_profile.v)))
        F, G = _hermite(f_profile, common), _hermite(g_profile, common)

    tie_band = tie_tol * np.maximum(F, G)
    margin = F - G
    ties = common[np.abs(margin) <= tie_band]
    violations = common[margin < -tie_band]
    if violations.size:
        verdict = "violation"
    elif ties.size:
        verdict = "ge_with_ties"
    else:
        verdict = "strict"
    return ComparisonVerdict(
        verdict=verdict,
        min_margin=float(np.min(margin)),
        ties=tuple(float(v) for v in ties[:32]),
        violations=tuple(float(v) for v in violations[:32]),
        grid=common,
        f_values=np.asarray(F, dtype=float),
        g_values=np.asarray(G, dtype=float),
    )


def tilted_profile_wholespace(
    density: Density,
    normal,
    grid_size: int = 65,
) -> Profile:
    """Profile of the half-space family {<p, nu> < s} on the whole space.

    Reduction: with nu_t the vertical component of nu and g = sqrt(1-nu_t^2),

        A(s) = (pi/c)^{(n-1)/2} e^{-c s^2} I(nu_t s),
        I(tau) = int e^{omega(tau + g u) - c u^2} du,

    where I is evaluated by Gauss-Hermite quadrature (the weight must be
    C-inf; the integrand is analytic for the closed-form variants).  V is
    accumulated by panel Gauss-Legendre in s.  F' and F'' come from
    log-derivatives of A: F'' F + 2c = nu_t^2 (log I)''(nu_t s) <= 0 by
    log-concavity, matching the parallel/perpendicular closed forms at
    nu_t = 1 / nu_t = 0.
    """
    if not (math.isinf(density.slab[0]) and math.isinf(density.slab[1])):
        raise DomainError("tilted families are defined on the whole space only")
    w = density.weight
    if isinstance(w, PiecewiseLinearWeight):
        raise SmoothnessError("tilted profiles need a C-inf weight")
    nu = np.asarray(normal, dtype=float)
    if nu.shape != (density.dim,):
        raise DomainError("normal must have dim components")
    nrm = float(np.linalg.norm(nu))
    if abs(nrm - 1.0) > 1e-9:
        raise DomainError("normal must be a unit vector")
    nu = nu / nrm
    if density.n < 1 and abs(nu[-1]) < 1.0:
        raise DomainError("n = 0 admits only the vertical family")
    c, n = density.c, density.n
    nu_t = float(nu[-1])
    g = math.sqrt(max(0.0, 1.0 - nu_t * nu_t))

    hx, hw = np.polynomial.hermite.hermgauss(150)
    shift = g * hx / math.sqrt(c)  # GH nodes mapped to the u variable

    def log_I(tau: np.ndarray) -> np.ndarray:
        args = np.asarray(tau, dtype=float)[..., None] + shift
        vals = np.exp(w.value(args))
        return np.log(vals @ hw) - 0.5 * math.log(c)

    def dlog_I(tau):
        args = np.asarray(tau, dtype=float)[..., None] + shift
        phi = np.exp(w.value(args))
        d1 = np.asarray(w.deriv(args), dtype=float)
        d2 = np.asarray(w.deriv2(args), dtype=float)
        m0 = phi @ hw
        m1 = (d1 * phi) @ hw
        m2 = ((d2 + d1 * d1) * phi) @ hw
        return m1 / m0, m2 / m0 - (m1 / m0) ** 2

    gf = gaussian_factor(n - 1, c) if n >= 1 else 1.0

    def area_vec(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return gf * np.exp(-c * s * s + log_I(nu_t * s))

    # truncation: log(gf I(nu_t s)) is concave in s, so the slab's tail rule applies
    def cutoff(right: bool) -> float:
        ref = max(1.0, 1.0 / math.sqrt(c)) * (1.0 if right else -1.0)
        value = float(log_I(np.asarray(ref * nu_t))) + math.log(max(gf, 1e-300))
        slope = nu_t * float(dlog_I(ref * nu_t)[0])
        return _tangent_cutoff(c, value, slope, ref, right, _TAIL_MASS, _TAIL_PAD)

    lo, hi = cutoff(False), cutoff(True)

    cum = CumulativeDensity1D((area_vec, lo, hi), n_panels=1200)
    v_total = cum.total
    v_grid = _chebyshev_grid(GRID_EPS * v_total, (1.0 - GRID_EPS) * v_total, grid_size)
    s_grid = cum.quantile(v_grid / v_total)
    A_grid = area_vec(s_grid)
    V_grid = cum.mass_below(s_grid)
    l1, l2 = dlog_I(nu_t * s_grid)
    dF = -2.0 * c * s_grid + nu_t * l1
    ddF = (-2.0 * c + nu_t * nu_t * l2) / A_grid

    return Profile(
        family="tilted",
        s=s_grid,
        V=V_grid,
        A=A_grid,
        v=v_grid,
        F=A_grid,
        dF=dF,
        ddF=ddF,
        v_total=v_total,
    )


def profile_csv(profile: Profile) -> str:
    """CSV serialization, shortest round-trip decimals."""
    p = profile
    return _csv_table("s,V,A,v,F,dF,ddF", p.s, p.V, p.A, p.v, p.F, p.dF, p.ddF)
