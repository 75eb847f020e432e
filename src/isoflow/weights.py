"""Weight models and the slab-mass engine for perturbed Gaussian densities.

The ambient space is the planar slab Omega = R x (a, b) with points
p = (x, t), carrying the density f = e^psi with

    psi(p) = omega(t) - c |p|^2,   c > 0,

where omega is a (usually concave) function of t alone.  The model is
planar because every set the checks compare is a half-space or a chord
cylinder, a planar set times R^(n-1): on such a set the lateral Gaussian
factor (pi/c)^((n-1)/2) multiplies V and P alike.  This module owns

  * the weight variants omega (quadratic, log-power, piecewise linear)
    with their derivative and concavity structure; zero and affine are
    the quadratic's kappa = 0 cases, subclasses that only name them,
  * the Density bundle (weight, Gaussian parameter c, slab), the one home
    of the density's formula: psi = omega(t) - c (x^2 + t^2) and the slab
    factor e^{omega(t) - c t^2}, both computed in the new array
    Weight1D.value returns (Density is the one caller that overwrites it);
    the gradient of psi at points, the Bakry-Emery curvature
    -omega''(t) <e_t, w>^2 + 2c |w|^2, and gaussian_factor(c) = sqrt(pi/c),
  * the package's one 1-D measure engine, CumulativeDensity1D: a panelized
    Gauss-Legendre cumulative integral of a Density's slab factor with
    batched masses and quantiles, each quantile resolved to about one ulp
    of t.  Every Gauss rule is summed in node order, so a height gets the
    same mass, tail side and quantile alone or in any batch, and merging
    two batches into one call is exact.
    A Density builds its engine in its __init__, as its field cumulative;
    the parallel profile, the slab mass, the transport map and its checks
    all read that one engine.  An infinite slab side is truncated soundly
    by one tail rule, Density._cut, shared with the spectral pencil: beyond
    a cut inside the slab a Gaussian-type dominating bound (the exact
    square of a quadratic weight, else a tangent or constant) has mass
    below 1e-15.
    A slab too wide for the engine's panels, or whose weighted volume under-
    or overflows, is refused when its Density is built,
  * the closed-form normalized Gaussian CDF and its quantile from either
    tail, on the standard library's erfc and Wichura's AS241 normal quantile,
    whose three rational branches run as one Horner pass, each element with
    its own branch's coefficients.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DomainError, SmoothnessError

__all__ = [
    "Weight1D",
    "ZeroWeight",
    "AffineWeight",
    "QuadraticWeight",
    "LogPowerWeight",
    "PiecewiseLinearWeight",
    "ConcavityReport",
    "check_concavity",
    "Density",
    "gaussian_factor",
    "gaussian_cdf",
    "gaussian_quantile",
    "log_density_gradient",
    "bakry_emery_curvature",
    "total_weighted_volume",
    "CumulativeDensity1D",
]


class _Frozen:
    """An immutable record.  Its __init__, and only its __init__, writes the
    fields through self.__dict__; assigning or deleting an attribute raises
    AttributeError.  It compares and hashes by identity."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# weight variants


class Weight1D:
    """Base interface for the 1-D perturbation omega.

    deriv maps a Python float to a float, by the same IEEE operations and
    with the same errors as on an array, so the scalar CMC shooting calls
    it on floats.
    """

    domain: tuple[float, float] = (-math.inf, math.inf)

    def value(self, t):
        """omega at the float array t, as a new array that shares no memory
        with t: the caller may overwrite it."""
        raise NotImplementedError

    def deriv(self, t):
        raise NotImplementedError

    def deriv2(self, t):
        raise NotImplementedError


class QuadraticWeight(Weight1D, _Frozen):
    """omega(t) = -kappa t^2 + a0 t + b0, concave iff kappa >= 0."""

    def __init__(self, kappa: float, a0: float = 0.0, b0: float = 0.0):
        if not all(math.isfinite(v) for v in (kappa, a0, b0)):
            raise ValueError("quadratic coefficients must be finite")
        vars(self).update(kappa=kappa, a0=a0, b0=b0)

    def value(self, t):
        """-kappa t t + a0 t + b0 in that order, built in place.  At kappa = +0.0
        the square term is -0.0 on every finite t and -0.0 + y = y, so it is
        left out: the same bits, and +-inf instead of nan at t = +-inf."""
        t = np.asarray(t, dtype=float)
        out = self.a0 * t
        if self.kappa != 0.0 or math.copysign(1.0, self.kappa) < 0.0:
            square = -self.kappa * t
            square *= t
            out += square
        out += self.b0
        return out

    def deriv(self, t):
        if not isinstance(t, float):
            t = np.asarray(t, dtype=float)
        return -2.0 * self.kappa * t + self.a0

    def deriv2(self, t):
        # 0.0 - 2 kappa, not -2 kappa: +0.0 at kappa = 0, the same bits at any other kappa
        return np.full_like(np.asarray(t, dtype=float), 0.0 - 2.0 * self.kappa)


class ZeroWeight(QuadraticWeight):
    """omega = 0, the unperturbed Gaussian: the quadratic with kappa = a0 = b0 = 0."""

    def __init__(self):
        super().__init__(0.0)


class AffineWeight(QuadraticWeight):
    """omega(t) = a0 t + b0: the quadratic with kappa = 0."""

    def __init__(self, a0: float, b0: float = 0.0):
        super().__init__(0.0, a0, b0)


class LogPowerWeight(Weight1D, _Frozen):
    """omega(t) = m log t on (0, inf), concave iff m >= 0."""

    domain = (0.0, math.inf)

    def __init__(self, m: float):
        if not math.isfinite(m):
            raise ValueError("log-power exponent must be finite")
        vars(self)["m"] = m

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise DomainError("log-power weight is defined on (0, inf)")
        if self.m == 0.0:
            return np.zeros_like(t)
        with np.errstate(divide="ignore"):
            return self.m * np.log(t)

    def deriv(self, t):
        if isinstance(t, float):
            if t <= 0.0:
                raise DomainError("log-power derivative needs t > 0")
            return self.m / t
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise DomainError("log-power derivative needs t > 0")
        return self.m / t

    def deriv2(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise DomainError("log-power derivative needs t > 0")
        return -self.m / (t * t)


class PiecewiseLinearWeight(Weight1D, _Frozen):
    """Piecewise linear omega through (knots[i], values[i]); class C0 only.

    The derivative is the segment slope away from knots; probing it at a
    knot raises SmoothnessError, as does any request for omega''.
    """

    def __init__(self, knots, values):
        knots = tuple(float(k) for k in knots)
        values = tuple(float(v) for v in values)
        if len(knots) != len(values) or len(knots) < 2:
            raise ValueError("need matching knots/values with at least 2 knots")
        if not all(math.isfinite(v) for v in knots + values):
            raise ValueError("knots and values must be finite")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise ValueError("knots must be strictly increasing")
        vars(self).update(knots=knots, values=values, domain=(knots[0], knots[-1]))

    def _check_domain(self, t):
        if np.any(t < self.knots[0]) or np.any(t > self.knots[-1]):
            raise DomainError("piecewise linear weight probed outside its knot span")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        self._check_domain(t)
        return np.interp(t, self.knots, self.values)

    def slopes(self) -> np.ndarray:
        k = np.asarray(self.knots)
        v = np.asarray(self.values)
        return np.diff(v) / np.diff(k)

    def deriv(self, t):
        scalar, t = isinstance(t, float), np.asarray(t, dtype=float)
        self._check_domain(t)
        interior = np.asarray(self.knots[1:-1])
        if interior.size and np.any(np.isin(t, interior)):
            raise SmoothnessError("piecewise linear weight is not differentiable at a knot")
        idx = np.clip(np.searchsorted(self.knots, t, side="right") - 1, 0, len(self.knots) - 2)
        slope = np.where(np.isnan(t), np.nan, self.slopes()[idx])  # searchsorted puts nan last
        return float(slope) if scalar else slope

    def deriv2(self, t):
        raise SmoothnessError("piecewise linear weight has no second derivative")


class ConcavityReport(NamedTuple):
    concave: bool
    detail: str


def check_concavity(weight: Weight1D) -> ConcavityReport:
    """Exact concavity check per variant.

    Quadratic, zero and affine among them: kappa >= 0.  Log-power: m >= 0.
    Piecewise linear: chord slopes nonincreasing (the report names the
    first offending knot).
    """
    if isinstance(weight, QuadraticWeight):
        if weight.kappa >= 0.0:
            return ConcavityReport(True, f"kappa={weight.kappa!r} >= 0")
        return ConcavityReport(False, f"kappa={weight.kappa!r} < 0")
    if isinstance(weight, LogPowerWeight):
        if weight.m >= 0.0:
            return ConcavityReport(True, f"m={weight.m!r} >= 0")
        return ConcavityReport(False, f"m={weight.m!r} < 0")
    if isinstance(weight, PiecewiseLinearWeight):
        slopes = weight.slopes()
        bad = np.nonzero(np.diff(slopes) > 0.0)[0]
        if bad.size:
            i = int(bad[0]) + 1
            return ConcavityReport(
                False, f"slope increases across interior knot {i} (t={weight.knots[i]!r})"
            )
        return ConcavityReport(True, "chord slopes are nonincreasing")
    raise TypeError(f"unknown weight variant {type(weight).__name__}")


# ---------------------------------------------------------------------------
# density bundle


class Density(_Frozen):
    """f = e^{omega(t) - c |p|^2} on the planar slab R x (a, b), built whole.
    The third argument, the dimension, must be 2 and is not stored; it stays
    only because benchmark/inproc.py passes it."""

    def __init__(self, weight: Weight1D, c: float, dim: int, slab: tuple[float, float]):
        if dim != 2:
            raise ValueError(f"the model is planar: dim must be 2, got {dim!r}")
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError("need c > 0")
        a, b = (float(slab[0]), float(slab[1]))
        if not a < b:
            raise ValueError("slab endpoints must satisfy a < b")
        lo, hi = weight.domain
        if a < lo or b > hi:
            raise ValueError("slab must lie inside the weight domain")
        # integrability: t^m near 0 needs m > -1, an infinite side c + kappa > 0
        if isinstance(weight, LogPowerWeight) and a == 0.0 and weight.m <= -1.0:
            raise DomainError("density is not integrable: log-power m <= -1 at t = 0")
        quadratic = isinstance(weight, QuadraticWeight)
        finite = math.isfinite(a) and math.isfinite(b)
        if quadratic and not finite and c + weight.kappa <= 0.0:
            raise DomainError("density is not integrable: c + kappa <= 0")
        vars(self).update(weight=weight, c=c, slab=(a, b))
        # _tail_reach of each side, None for a finite one: the engine's cut and every pencil's derive from it
        vars(self)["_reach"] = tuple(_tail_reach(self, right) if math.isinf(end) else None
                                     for right, end in zip((False, True), (a, b)))
        vars(self)["cut"] = lo, hi = self._cut(_TAIL_PAD)  # the interval the engine integrates
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError(f"slab ({a!r}, {b!r}) is cut to ({lo!r}, {hi!r}): the amplitude of its "
                              "dominating-Gaussian tail bound overflows, or the cut rounds onto the finite end")
        # the engine's relative error grows with h / sigma, sigma = 1/sqrt(2 c_eff): 3.9e-13 at 4
        c_eff = c + max(weight.kappa, 0.0) if quadratic else c
        if (hi - lo) / _N_PANELS > 4.0 / math.sqrt(2.0 * c_eff):
            cut, cure = ("", "; make a far side infinite") if finite else (f", cut to ({lo!r}, {hi!r}),", "")
            raise DomainError(f"slab ({a!r}, {b!r}){cut} is too wide for the engine: each of its "
                              f"{_N_PANELS} panels would span over 4 Gaussian widths{cure}")
        vars(self)["cumulative"] = CumulativeDensity1D(self)  # the slab factor's one 1-D measure engine

    def _cut(self, pad: float) -> tuple[float, float]:
        """The slab with each infinite side cut where the tail beyond carries
        weighted mass below _TAIL_MASS by the dominating-Gaussian bound
        (_reach), padded by pad / sqrt(c_eff).  Each cut lies past a point
        inside the slab (__init__ refuses a cut that rounds onto the slab's
        finite end), so the interval is never empty.  The engine pads by
        _TAIL_PAD, the spectral pencil by nothing."""
        return tuple(end if reach is None else sign * max(reach[0] + pad / reach[2], reach[1] + 1.0 / reach[2])
                     for end, reach, sign in zip(self.slab, self._reach, (-1.0, 1.0)))

    def slab_factor(self, t: np.ndarray) -> np.ndarray:
        """e^{omega(t) - c t^2} at the float array t, computed in the array
        weight.value returns."""
        f, square = self.weight.value(t), self.c * t
        square *= t
        f -= square
        return np.exp(f, out=f)

    def psi(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """psi = omega(t) - c (x x + t t) at the points (x, t) of two float
        arrays of one shape, computed in the array weight.value returns."""
        f, square = self.weight.value(t), x * x
        square += t * t
        square *= self.c
        f -= square
        return f


def _gaussian_c(c: float) -> float:
    """c, the Gaussian helpers' parameter; any c but a finite number > 0 raises ValueError."""
    if not 0.0 < c < math.inf:
        raise ValueError("need c > 0")
    return c


def gaussian_factor(c: float) -> float:
    """sqrt(pi/c), the mass of e^{-c x^2} over R."""
    return math.sqrt(math.pi / _gaussian_c(c))


def _horner(coefficients, x: np.ndarray) -> np.ndarray:
    """Polynomial with the given coefficients (highest power first) at x, or one per column."""
    out = coefficients[0] * x
    out += coefficients[1]
    for c in coefficients[2:]:
        out *= x
        out += c
    return out


def _erfc(x) -> np.ndarray:
    """math.erfc applied to each element of a float array, in its shape (0-d for a
    scalar): inf gives 0 and 2, nan gives nan."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erfc, memoryview(x.ravel())), float, x.size).reshape(x.shape)[()]


def gaussian_cdf(c: float, s):
    """CDF of the normalized Gaussian sqrt(c/pi) e^{-c s^2}, exact in the lower tail."""
    return 0.5 * _erfc(-math.sqrt(_gaussian_c(c)) * np.asarray(s, dtype=float))


# Wichura's AS241 (PPND16, Appl. Statist. 37, 1988), as in the standard library's
# statistics.NormalDist: numerator then denominator, highest power first, one column
# each for the central branch and the two tail branches, so that indexing the last
# axis by each element's branch gives one Horner pass its coefficients
_AS241 = np.reshape((
    (2509.0809287301227, 33430.57558358813, 67265.7709270087, 45921.95393154987,
     13731.69376550946, 1971.5909503065513, 133.14166789178438, 3.3871328727963665,
     5226.495278852854, 28729.085735721943, 39307.89580009271, 21213.794301586597,
     5394.196021424751, 687.1870074920579, 42.31333070160091, 1.0),
    (0.0007745450142783414, 0.022723844989269184, 0.2417807251774506, 1.2704582524523684,
     3.6478483247632045, 5.769497221460691, 4.630337846156546, 1.4234371107496835,
     1.0507500716444169e-09, 0.0005475938084995345, 0.015198666563616457, 0.14810397642748008,
     0.6897673349851, 1.6763848301838038, 2.053191626637759, 1.0),
    (2.0103343992922881e-07, 2.7115555687434876e-05, 0.0012426609473880784, 0.026532189526576124,
     0.29656057182850487, 1.7848265399172913, 5.463784911164114, 6.657904643501103,
     2.0442631033899397e-15, 1.421511758316446e-07, 1.8463183175100548e-05, 0.0007868691311456133,
     0.014875361290850615, 0.1369298809227358, 0.599832206555888, 1.0),
), (3, 2, 8)).transpose(2, 1, 0)  # (power, numerator | denominator, branch)


def _tail_masses(p, lower, name: str) -> tuple[tuple, np.ndarray, np.ndarray]:
    """p's shape, then p and lower flattened; a lower that is not a boolean of
    p's shape, or a p that is nan or outside [0, 1], raises DomainError."""
    shape, lower = np.shape(p), np.asarray(lower)
    if lower.dtype != bool or lower.shape != shape:
        raise DomainError(f"{name} sides must be booleans of the probabilities' shape {shape}, got {lower!r}")
    p = np.asarray(p, dtype=float).ravel()
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise DomainError(f"{name} probabilities must lie in [0, 1]")
    return shape, p, lower.ravel()


def gaussian_quantile(c: float, p, lower):
    """s whose tail below (where lower) or above it has the Gaussian mass p;
    p = 0 gives -inf or +inf.  Passed the smaller tail's mass, deep
    quantiles keep full relative accuracy on either side.  The standard
    normal quantile is AS241 (about 1e-16 relative) in one Horner pass:
    each element reads its own branch's argument and coefficients (central,
    tail r <= 5 or far tail), and Horner's steps are elementwise, so it gets
    the bits of its branch evaluated alone.  lower is a boolean of p's
    shape; another lower, or a p that is nan or outside [0, 1], raises
    DomainError, and a c that is not a finite number > 0 ValueError.
    """
    _gaussian_c(c)
    shape, p, lower = _tail_masses(p, lower, "gaussian quantile")
    d = np.where(lower, p - 0.5, 0.5 - p)
    central = np.abs(d) <= 0.425
    argument, branch = 0.180625 - d * d, np.zeros(d.shape, dtype=np.intp)
    tail = not np.logical_and.reduce(central)
    if tail:
        with np.errstate(divide="ignore"):
            r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))  # the smaller tail, when p is past 1/2
        near = r <= 5.0
        branch = np.where(central, branch, np.where(near, 1, 2))
        argument = np.where(central, argument, r - np.where(near, 1.6, 5.0))
    # numerators then denominators end to end, so the pass runs in 1-D
    with np.errstate(invalid="ignore"):  # a zero tail reads r = inf, then inf / inf
        terms = _horner(_AS241[:, :, branch].reshape(8, 2 * d.size), np.concatenate((argument, argument)))
        ratio = terms[: d.size] / terms[d.size :]
    x = d * ratio
    if tail:
        v = np.where(r == np.inf, np.inf, ratio)  # r = inf at a zero tail probability
        x = np.where(central, x, np.where(d < 0.0, -v, v))
    return x.reshape(shape) / math.sqrt(2.0 * c)


def log_density_gradient(density: Density, p) -> np.ndarray:
    """grad psi = omega'(t) e_t - 2c p."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 2:
        raise DomainError("points must have 2 coordinates")
    g = -2.0 * density.c * p
    g[..., -1] += density.weight.deriv(p[..., -1])
    return g


def bakry_emery_curvature(density: Density, p, w) -> np.ndarray:
    """Curvature form -omega''(t) <e_t, w>^2 + 2c |w|^2 at p in direction w.

    For concave omega and unit w this is bounded below by 2c.
    """
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    if p.shape[-1] != 2 or w.shape[-1] != 2:
        raise DomainError("points and directions must have 2 coordinates")
    d2 = density.weight.deriv2(p[..., -1])
    wt = w[..., -1]
    return -d2 * wt * wt + 2.0 * density.c * np.sum(w * w, axis=-1)


# ---------------------------------------------------------------------------
# sound truncation of infinite slab sides


# a truncated tail carries weighted mass below _TAIL_MASS by the dominating-
# Gaussian bound; Density.cut pads it by _TAIL_PAD / sqrt(c_eff)
_TAIL_MASS = 1e-15
_TAIL_PAD = 2.0


def _gaussian_tail_cutoff(c_eff: float, drift: float, log_amp: float, eps: float) -> float:
    """Smallest T with int_T^inf e^{log_amp + drift*t - c_eff*t^2} dt <= eps.

    Closed form by completing the square; c_eff must be positive.
    """
    mu = drift / (2.0 * c_eff)
    # mass of the dominating Gaussian beyond T:
    #   K sqrt(pi/c_eff)/2 * erfc(sqrt(c_eff) (T - mu)),  K = e^{log_amp + drift^2/(4 c_eff)}
    log_k = log_amp + drift * drift / (4.0 * c_eff)
    y = 2.0 * eps / gaussian_factor(c_eff) * math.exp(-log_k)
    if y >= 2.0:
        return mu
    # x = erfcinv(y), the standard normal upper quantile of y/2 over sqrt(2), read on its smaller tail
    x = float(gaussian_quantile(1.0, min(0.5 * y, 1.0 - 0.5 * y), y > 1.0))
    return mu + x / math.sqrt(c_eff)


def _tail_reach(density: Density, right: bool) -> tuple[float, float, float]:
    """(X, u_ref, sqrt(c_eff)) of a slab side, X the unpadded tail cutoff.
    In u = t (right side) or u = -t (left side) the log slab factor is
    bounded past a reference point u_ref by amp + slope u - c_eff u^2:
    exactly, by (c + kappa, a0, b0), for a quadratic weight; by the tangent
    at u_ref for any other concave weight; and by omega(u_ref), slope 0,
    for a log-power m < 0, which is convex and decreasing.  u_ref lies
    max(1, 1/sqrt(c_eff)) inside the slab's other end (or 0), and the cut
    at least 1/sqrt(c_eff) beyond u_ref, so it never reaches that end.
    """
    w, c, sign = density.weight, density.c, 1.0 if right else -1.0
    quadratic = isinstance(w, QuadraticWeight)
    c_eff = c + w.kappa if quadratic else c  # Density guarantees c + kappa > 0
    root = math.sqrt(c_eff)
    end = density.slab[0 if right else 1]
    u_ref = (sign * end if math.isfinite(end) else 0.0) + max(1.0, 1.0 / root)
    if quadratic:
        slope, amp = sign * w.a0, w.b0
    else:
        ref = sign * u_ref
        slope = 0.0 if isinstance(w, LogPowerWeight) and w.m < 0.0 else sign * float(w.deriv(ref))
        amp = float(w.value(ref)) - slope * u_ref
    return _gaussian_tail_cutoff(c_eff, slope, amp, _TAIL_MASS), u_ref, root


# the positive nodes, then their weights, of np.polynomial.legendre.leggauss (symmetric rules)
_GL_HALVES = {
    12: (0.1252334085114689, 0.3678314989981802, 0.5873179542866175, 0.7699026741943047,
         0.9041172563704748, 0.9815606342467192, 0.2491470458134027, 0.2334925365383546,
         0.20316742672306573, 0.16007832854334642, 0.10693932599531907, 0.04717533638651141),
    16: (0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
         0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
         0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
         0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176),
}


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only np.polynomial.legendre.leggauss(order) for a tabulated order (else KeyError)."""
    nodes, weights = np.reshape(_GL_HALVES[order], (2, -1))
    x, w = np.concatenate((-nodes[::-1], nodes)), np.concatenate((weights[::-1], weights))
    return _read_only(x), _read_only(w)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=64)
def _jacobi_rule(order: int, m: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for (1 + x)^m on [-1, 1] by Golub-Welsch, exact to
    rounding as m -> -1 (scipy.special.roots_jacobi(23, 0, -0.99) misses
    the first moment by 2.5e-11 relative)."""
    k = np.arange(1.0, order)
    s = 2.0 * k + m
    diag = np.concatenate(([m / (m + 2.0)], m * m / (s * (s + 2.0))))
    off = 2.0 * k * (k + m) / s / np.sqrt((s + 1.0) * (s - 1.0))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 ** (m + 1.0) / (m + 1.0) * v[0] ** 2


def _node_sum(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k w_k f[k] over the nodes of a nodes-major (order, rows) array, a running sum
    in node order, so no row's bits depend on the others: numpy reduces axis 0 row
    after row, but sums a single column pairwise, so that one gets the loop."""
    f *= w[:, None]
    if f.shape[1] != 1:
        return np.add.reduce(f, axis=0)
    for k in range(1, len(w)):
        f[0] += f[k]
    return f[0]


# ---------------------------------------------------------------------------
# panelized cumulative integral


# Gauss-Legendre (and Gauss-Jacobi) points per panel, and panels per engine
_GL_ORDER = 12
_N_PANELS = 600

# bisection alone closes any bracket narrower than 2^26 to adjacent floats,
# subnormals included, within this many steps
_QUANTILE_MAX_STEPS = 1100


def _float_arrays(record: _Frozen, atleast, **fields) -> list[np.ndarray]:
    """Store read-only float copies of the given arrays as the record's
    fields, at least 1-D or 2-D by ``atleast``, and return them: the record
    owns its arrays, and a caller's later writes cannot reach them."""
    arrays = [_read_only(atleast(np.array(value, dtype=float))) for value in fields.values()]
    vars(record).update(zip(fields, arrays))
    return arrays


def _shaped(values: np.ndarray, shape: tuple):
    """Flat per-point results back in the caller's shape; a float or bool for a scalar."""
    return values[0].item() if shape == () else values.reshape(shape)


class CumulativeDensity1D:
    """t -> int_lo^t e^{omega(u) - c u^2} du, the density's slab factor
    (Density.slab_factor) over its slab cut to the sound tail interval.

    Panelwise Gauss-Legendre; at a log-power endpoint 0 the first panel,
    and partial masses inside it, use the Gauss-Jacobi rule exact for t^m.
    Partial masses accumulate from the left for the lower tail and from
    the right for the upper tail, so quantiles stay accurate in both
    tails.  Every query takes a scalar (and returns a float) or an array
    of any shape.  A volume sqrt(pi/c) * total past a float raises DomainError.
    """

    def __init__(self, density: Density):
        w, self._c, self._fn = density.weight, density.c, density.slab_factor
        lo, hi = density.cut
        self._m = m = w.m if isinstance(w, LogPowerWeight) and w.m != 0.0 and lo == 0.0 else None
        self.breaks = breaks = np.linspace(lo, hi, _N_PANELS + 1)
        self._glx, self._glw = x, gw = _gauss_legendre(_GL_ORDER)
        mid, half = 0.5 * (breaks[1:] + breaks[:-1]), 0.5 * (breaks[1:] - breaks[:-1])
        self._power = None if m is None else m + 1.0  # the first panel's mass grows like t^power
        with np.errstate(over="ignore"):  # refused below, by the volume it leaves
            panel = np.sum(self._fn(mid[:, None] + half[:, None] * x) * (half[:, None] * gw), axis=1)
            if m is not None:
                panel[0] = self._from_zero(breaks[1:2])[0]
            self._at_breaks = self._fn(breaks)  # the quantile start's Hermite slopes
            self._cum_left = np.concatenate(([0.0], np.cumsum(panel)))
            self._cum_right = np.concatenate((np.cumsum(panel[::-1])[::-1], [0.0]))
        self.total = float(self._cum_left[-1])
        volume = gaussian_factor(self._c) * self.total  # V_f: the profile grid, the optimizer's target, G(v)
        if not 0.0 < volume < math.inf:
            raise DomainError(f"slab mass {self.total!r}: e^(omega - c t^2) or its weighted volume "
                              f"sqrt(pi/c) * mass = {volume!r} under- or overflows on the slab")
        # the median panel, the last whose lower side starts at most half way
        self._median_panel = int(np.count_nonzero(self._cum_left / self.total <= 0.5)) - 1

    def _partial(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """GL integrals over [a_i, b_i], each inside one panel; 0 where b_i <= a_i.
        Rows in a log-power first panel integrate by Gauss-Jacobi alone.  Each
        rule is summed in node order, so a row's bits do not depend on the batch."""
        out, live = np.zeros(a.shape), b > a
        if self._power is not None:
            first = live & (b <= self.breaks[1])
            if np.logical_or.reduce(first):
                out[first] = self._from_zero(b[first]) - self._from_zero(a[first])
                live &= ~first
        every = np.logical_and.reduce(live)
        a, b = (a, b) if every else (a[live], b[live])
        half = 0.5 * (b - a)
        t = self._glx[:, None] * half  # the (order, rows) Gauss nodes, built in place
        t += 0.5 * (a + b)
        mass = half * _node_sum(self._fn(t), self._glw)
        if every:
            return mass
        out[live] = mass
        return out

    def _from_zero(self, b: np.ndarray) -> np.ndarray:
        """int_0^{b_i} u^m e^{-c u^2} du, the slab factor of a log-power first
        panel, by Gauss-Jacobi, exact for the power u^m."""
        (x, w), half = _jacobi_rule(_GL_ORDER, self._m), 0.5 * b
        u = (1.0 + x)[:, None] * half
        return half ** self._power * _node_sum(np.exp(-self._c * u * u), w)

    def _locate(self, t):
        """Flattened t clamped to the breaks, its panel index, and its shape;
        nan raises DomainError (+-inf clamps to an edge)."""
        shape, breaks = np.shape(t), self.breaks
        t = np.asarray(t, dtype=float).ravel()
        if np.logical_or.reduce(np.isnan(t)):
            raise DomainError("mass abscissa is nan")
        t = np.maximum(t, breaks[0])
        np.minimum(t, breaks[-1], out=t)
        j = breaks.searchsorted(t, side="right")
        j -= 1
        np.minimum(j, breaks.size - 2, out=j)
        return t, j, shape

    def mass_below(self, t):
        """int from the left edge to t, accumulated left-to-right."""
        t, j, shape = self._locate(t)
        return _shaped(self._cum_left[j] + self._partial(self.breaks[j], t), shape)

    def mass_above(self, t):
        """int from t to the right edge, accumulated right-to-left."""
        t, j, shape = self._locate(t)
        return _shaped(self._cum_right[j + 1] + self._partial(t, self.breaks[j + 1]), shape)

    def mass(self, a, b):
        return self.mass_below(b) - self.mass_below(a)

    def _tail(self, t: np.ndarray, j: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """The mass below t (where lower) or above it, for t in panel j."""
        a, b = self.breaks[j], self.breaks[j + 1]
        base = np.where(lower, self._cum_left[j], self._cum_right[j + 1])
        return base + self._partial(np.where(lower, a, t), np.where(lower, t, b))

    def tail_sides(self, t):
        """(p, lower): the fraction p of the total mass in the tail below t
        (where lower) or above it, bit for bit mass_below or mass_above over
        total, one side per height: the lower side up to the median panel,
        the upper side past it and wherever the lower mass reads past 1/2."""
        t, j, shape = self._locate(t)
        lower = j <= self._median_panel
        both = np.nonzero(j == self._median_panel)[0]  # a median-panel height's upper side rides in the one batch
        k = np.concatenate((np.arange(t.size), both))
        mass = self._tail(t[k], j[k], np.concatenate((lower, np.zeros(both.size, dtype=bool)))) / self.total
        p, past = mass[: t.size], mass[both] > 0.5
        p[both[past]], lower[both[past]] = mass[t.size :][past], False
        late = lower & (p > 0.5)  # the lower mass rounded past 1/2 below the median panel
        if np.logical_or.reduce(late):
            lower[late] = False
            p[late] = self._tail(t[late], j[late], lower[late]) / self.total
        return _shaped(p, shape), _shaped(lower, shape)

    def quantile(self, p, lower):
        """t whose tail below (where lower) or above it carries the fraction p
        of the total mass; lower is a boolean of p's shape, p = 0 gives the
        left or right edge, and another lower, or a p that is nan or outside
        [0, 1], raises DomainError.  Each target is bracketed inside its
        panel by the cumulative sums on its side, started from the panel's
        mass law, then polished by batched Newton steps, bisecting whenever a
        step leaves the bracket, until a zero residual, a step of at most one
        ulp or a bracket closed to adjacent floats: the root is resolved to
        about one ulp of t.  Raises ConsistencyError if the cumulative sums
        do not bracket a target (a non-positive or non-finite integrand).
        """
        shape, p, lower = _tail_masses(p, lower, "quantile")
        t = np.where(lower, self.breaks[0], self.breaks[-1])
        live = np.nonzero(p > 0.0)[0]
        if live.size:
            t[live] = self._solve(p[live], lower[live])
        return _shaped(t, shape)

    def _solve(self, p: np.ndarray, lower: np.ndarray) -> np.ndarray:
        # the lower tail is solved on the mass below t, the upper tail on
        # the mass above t; r(t) below is increasing in t either way
        target = p * self.total
        j_left = np.searchsorted(self._cum_left, target, side="right") - 1
        j_right = np.searchsorted(-self._cum_right, -target, side="right") - 1
        j = np.clip(np.where(lower, j_left, j_right), 0, self.breaks.size - 2)
        # mass on the solved side up to panel j, and through it
        base = np.where(lower, self._cum_left[j], self._cum_right[j + 1])
        through = np.where(lower, self._cum_left[j + 1], self._cum_right[j])
        if not np.all((base <= target) & (target <= through)):
            raise ConsistencyError(
                "quantile lost its bracket (non-positive or non-finite density?)"
            )
        edge_a, edge_b = self.breaks[j], self.breaks[j + 1]
        # r(t) = offset + sign * (GL mass between t and the panel's base edge)
        offset = np.where(lower, base - target, target - base)
        sign = np.where(lower, 1.0, -1.0)
        width = edge_b - edge_a
        depth = self._start(j, lower, target - base, through - base, width)
        t = np.where(lower, edge_a + width * depth, edge_b - width * depth)
        edge = np.where(lower, edge_a, edge_b)  # the solved side's edge
        # the bracket, and the rows still iterating: whole arrays until a row
        # is done, then only the rows left, by their places k in the output
        a, b, out, k = edge_a, edge_b, np.empty(t.size), np.arange(t.size)
        for _ in range(_QUANTILE_MAX_STEPS):
            f = offset + sign * self._partial(np.where(lower, edge, t), np.where(lower, t, edge))
            a = np.where(f < 0.0, t, a)
            b = np.where(f > 0.0, t, b)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = f / self._fn(t)
            newton = t - step
            done = (f == 0.0) | (np.abs(step) <= np.spacing(np.abs(t))) | (
                b <= np.nextafter(a, np.inf)
            )
            if np.logical_or.reduce(done):
                out[k[done]] = t[done]
                keep = ~done
                k, newton, a, b, edge, offset, sign, lower = (
                    x[keep] for x in (k, newton, a, b, edge, offset, sign, lower)
                )
                if not k.size:
                    return out
            t = np.where((a < newton) & (newton < b), newton, 0.5 * (a + b))
        out[k] = t
        return out

    def _start(self, j: np.ndarray, lower: np.ndarray, y: np.ndarray, mass: np.ndarray,
               width: np.ndarray) -> np.ndarray:
        """First iterate for the mass y of panel j (of total ``mass`` over
        ``width``) from the solved side, as a fraction of the width from that
        side: three Newton steps from the linear start on the panel's cubic
        Hermite mass law (its mass and the integrand at its breaks), the
        t^(m+1) law in a log-power first panel, and the linear start where
        neither lands inside."""
        frac, scale = y / mass, width / mass
        g_a, g_b = self._at_breaks[j], self._at_breaks[j + 1]
        # the law's slopes at the solved side and at the far side, in units of
        # the panel's width and mass: frac = ((c3 u + c2) u + d0) u
        d0, d1 = scale * np.where(lower, g_a, g_b), scale * np.where(lower, g_b, g_a)
        c3, c2 = d0 + d1 - 2.0, 3.0 - 2.0 * d0 - d1
        u, c3_slope, c2_slope = frac, 3.0 * c3, 2.0 * c2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(3):
                u = u - (((c3 * u + c2) * u + d0) * u - frac) / ((c3_slope * u + c2_slope) * u + d0)
            if self._power is not None:
                below = np.where(lower, frac, 1.0 - frac) ** (1.0 / self._power)
                u = np.where(j == 0, np.where(lower, below, 1.0 - below), u)
        return np.where((u >= 0.0) & (u <= 1.0), u, frac)


def total_weighted_volume(density: Density) -> float:
    """V_f(Omega) = (pi/c)^{1/2} * integral of e^{omega - c t^2} over the slab."""
    return gaussian_factor(density.c) * density.cumulative.total
