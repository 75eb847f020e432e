"""c-scaling invariance of profiles, transport and the spectral gap.

The dilation p -> L p maps the density e^{omega(t) - c|p|^2} on
R x (a, b) to e^{omega(t/L) - (c/L^2)|p|^2} on R x (La, Lb).  Half-spaces
map to half-spaces, so offsets scale by L, planar volumes by L^2 and
perimeters by L; the monotone transport conjugates to
rho_L(L s) = L rho(s); and the slab-factor Rayleigh quotient scales by
1/L^2.
"""

from __future__ import annotations

import math

import pytest
from numpy.testing import assert_allclose

from isoflow import (
    Density,
    QuadraticWeight,
    ZeroWeight,
    build_profile,
    build_spectral_problem,
    build_transport,
    spectral_gap_1d,
)

INF = math.inf
L = 0.7
C = 0.5
KAPPA, A0 = 1.0, 0.3

CASES = [
    (name, slab)
    for name in ("zero", "quadratic")
    for slab in ((-1.0, 1.0), (-INF, INF), (0.0, INF))
]


def pair(name, slab):
    """The density and its image under p -> L p."""
    if name == "zero":
        weight, scaled = ZeroWeight(), ZeroWeight()
    else:
        weight = QuadraticWeight(KAPPA, A0, 0.0)
        scaled = QuadraticWeight(KAPPA / L**2, A0 / L, 0.0)
    return (
        Density(weight, C, 2, slab),
        Density(scaled, C / L**2, 2, (L * slab[0], L * slab[1])),
    )


@pytest.mark.parametrize("name, slab", CASES)
@pytest.mark.parametrize("family", ("parallel", "perpendicular"))
def test_profiles_scale(name, slab, family):
    d, scaled = pair(name, slab)
    p = build_profile(d, family, grid_size=129)
    q = build_profile(scaled, family, grid_size=129)
    assert_allclose(q.s, L * p.s, rtol=1e-12, atol=1e-12)
    assert_allclose(q.V, L**2 * p.V, rtol=1e-12)
    assert_allclose(q.A, L * p.A, rtol=1e-12)


@pytest.mark.parametrize("name, slab", CASES)
def test_transport_scales(name, slab):
    d, scaled = pair(name, slab)
    m, n = build_transport(d), build_transport(scaled)
    assert_allclose(n.s, L * m.s, rtol=0.0, atol=1e-13)
    assert_allclose(n.rho, L * m.rho, rtol=0.0, atol=1e-13)
    assert_allclose(n.drho, m.drho, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("name, slab", CASES)
def test_spectral_gap_scales(name, slab):
    d, scaled = pair(name, slab)
    lam, _ = spectral_gap_1d(build_spectral_problem(d, n_cells=2000))
    lam_scaled, _ = spectral_gap_1d(build_spectral_problem(scaled, n_cells=2000))
    assert lam_scaled == pytest.approx(lam / L**2, rel=1e-8)
