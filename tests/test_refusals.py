"""Library refusals: each bad argument raises its own exception type and message.

One row per refusal that the other test modules do not reach.  Every row
builds its input in place, so a refusal that moves, changes its type or
rewords its message fails its own row.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from isoflow import (
    ConfigError,
    ConsistencyError,
    Density,
    DiscreteCurve,
    DomainError,
    GeometryError,
    LogPowerWeight,
    PiecewiseLinearWeight,
    Profile,
    QuadraticWeight,
    RunConfig,
    SpectralProblem,
    ZeroWeight,
    bakry_emery_curvature,
    build_profile,
    check_concavity,
    cmc_shoot,
    gaussian_factor,
    horizontal_segment,
    log_density_gradient,
    make_straight_chord,
    minimize,
    polyline_curve,
    straight_segment,
    total_weighted_volume,
    vertical_segment,
)
from isoflow.weights import gaussian_cdf, gaussian_quantile

INF = math.inf
SLAB = Density(ZeroWeight(), 0.5, 2, (-1.0, 1.0))
PLANE = Density(ZeroWeight(), 0.5, 2, (-INF, INF))
UP = np.tile([0.0, 1.0], (3, 1))  # three unit normals
GRID = np.linspace(1.0, 2.0, 16)


def profile(V=(1.0, 2.0, 3.0), F=(1.0, 1.0, 1.0)) -> Profile:
    """A three-volume profile with volumes V and values F; the rest is filler."""
    V, F = np.asarray(V), np.asarray(F)
    return Profile(np.zeros(3), V, np.ones(3), V, F, np.zeros(3), np.zeros(3), 4.0)


REFUSALS = {
    # weights and densities
    "quadratic nan": (lambda: QuadraticWeight(math.nan), ValueError, "quadratic coefficients must be finite"),
    "log-power inf": (lambda: LogPowerWeight(INF), ValueError, "log-power exponent must be finite"),
    "piecewise one knot": (lambda: PiecewiseLinearWeight([0.0], [1.0]), ValueError,
                           "need matching knots/values with at least 2 knots"),
    "piecewise inf knot": (lambda: PiecewiseLinearWeight([0.0, INF], [1.0, 0.0]), ValueError,
                           "knots and values must be finite"),
    "log-power deriv2 at 0": (lambda: LogPowerWeight(2.0).deriv2(np.array([0.0, 1.0])), DomainError,
                              "log-power derivative needs t > 0"),
    "gaussian factor c = 0": (lambda: gaussian_factor(0.0), ValueError, "need c > 0"),
    "gaussian factor c = inf": (lambda: gaussian_factor(INF), ValueError, "need c > 0"),
    "gaussian cdf c = 0": (lambda: gaussian_cdf(0.0, GRID), ValueError, "need c > 0"),
    "gaussian cdf c = inf": (lambda: gaussian_cdf(INF, GRID), ValueError, "need c > 0"),
    "gaussian cdf c = nan": (lambda: gaussian_cdf(math.nan, GRID), ValueError, "need c > 0"),
    "gaussian cdf c = -1": (lambda: gaussian_cdf(-1.0, GRID), ValueError, "need c > 0"),
    "gaussian quantile c = 0": (lambda: gaussian_quantile(0.0, 0.3, True), ValueError, "need c > 0"),
    "gaussian quantile c = inf": (lambda: gaussian_quantile(INF, 0.3, True), ValueError, "need c > 0"),
    "gradient in 3-d": (lambda: log_density_gradient(SLAB, [0.0, 0.0, 0.0]), DomainError,
                        "points must have 2 coordinates"),
    "curvature in 3-d": (lambda: bakry_emery_curvature(SLAB, [0.0, 0.0, 0.0], [1.0, 0.0]), DomainError,
                         "points and directions must have 2 coordinates"),
    "concavity of a stranger": (lambda: check_concavity(object()), TypeError, "unknown weight variant object"),
    "run config without sections": (lambda: RunConfig({}), ConfigError, "section [density] is incomplete"),
    # curves
    "segment of 2 nodes": (lambda: straight_segment(SLAB, (0.0, 0.0), (0.0, 0.5), n=2), GeometryError,
                           "need at least 3 nodes"),
    "segment of one point": (lambda: straight_segment(SLAB, (0.0, 0.5), (0.0, 0.5)), GeometryError,
                             "segment endpoints coincide"),
    "vertical on the plane": (lambda: vertical_segment(PLANE, 0.0), DomainError,
                              "vertical chord needs a bounded slab"),
    "horizontal above the slab": (lambda: horizontal_segment(SLAB, 1.5), DomainError,
                                  "horizontal line must sit inside the slab"),
    "polyline of 2 nodes": (lambda: polyline_curve(SLAB, [[0.0, 0.0], [0.0, 0.5]]), GeometryError,
                            "curve needs at least 3 nodes"),
    "shot out in one step": (lambda: cmc_shoot(SLAB, 0.0, (0.0, 0.99), math.pi / 2, step=0.1, max_length=1.0),
                             GeometryError, "curve left the slab before 3 nodes were laid down"),
    "curve of 2 nodes": (lambda: DiscreteCurve(np.zeros((2, 2)), UP[:2], np.zeros(2)), GeometryError,
                         "curve needs at least 3 nodes"),
    "curve in 3-d": (lambda: DiscreteCurve(np.zeros((3, 3)), UP, np.zeros(3)), GeometryError,
                     "points and normals must have shape (m, 2)"),
    "curvature per edge": (lambda: DiscreteCurve([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]], UP, np.zeros(2)),
                           GeometryError, "curvature must have shape (m,)"),
    "curve through nan": (lambda: DiscreteCurve([[0.0, 0.0], [0.0, math.nan], [0.0, 2.0]], UP, np.zeros(3)),
                          GeometryError, "curve data must be finite"),
    "curve with a repeated node": (lambda: DiscreteCurve([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]], UP, np.zeros(3)),
                                   GeometryError, "consecutive nodes must be distinct"),
    # profiles
    "unknown family": (lambda: build_profile(SLAB, "diagonal"), DomainError, "unknown family 'diagonal'"),
    "profile of 2 volumes": (lambda: build_profile(SLAB, "parallel", grid_size=2), DomainError,
                             "need at least 3 grid volumes"),
    "profile volumes repeat": (lambda: profile(V=(1.0, 2.0, 2.0)), ConsistencyError,
                               "profile volumes must be strictly increasing"),
    "profile value zero": (lambda: profile(F=(1.0, 0.0, 1.0)), ConsistencyError,
                           "profile values must be positive on the open range"),
    # the descent
    "area above the total mass": (
        lambda: minimize(make_straight_chord(SLAB), 1.5 * total_weighted_volume(SLAB)),
        DomainError, "area restoration bracket failed (target too large)"),
    # spectral problems
    "15 cells": (lambda: SpectralProblem(GRID[:15], np.ones(15), np.ones(14)), DomainError,
                 "spectral problem needs at least 16 cells"),
    "one conductance per cell": (lambda: SpectralProblem(GRID, np.ones(16), np.ones(16)), ConsistencyError,
                                 "inconsistent spectral problem arrays"),
    "nodes descend": (lambda: SpectralProblem(GRID[::-1], np.ones(16), np.ones(15)), ConsistencyError,
                      "nodes must be strictly increasing"),
    "a massless cell": (lambda: SpectralProblem(GRID, np.append(np.ones(15), 0.0), np.ones(15)),
                        ConsistencyError, "measure weights and conductances must be positive"),
}


@pytest.mark.parametrize("build, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        build()
    assert type(refused.value) is error
