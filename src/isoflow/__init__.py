"""Isoperimetric structure of log-concave perturbations of Gaussian densities.

Numerical companions to the half-space isoperimetric problem for densities
e^{omega(t) - c |p|^2} on the planar slab R x (a, b): profile construction
and ODE verification, parallel-vs-perpendicular comparison, 1-D monotone
transport with contraction certificates, stability and index-form
diagnostics, spectral-gap certification, and a weighted-length chord
optimizer.  Why the model is planar: see isoflow.weights.
"""

from .cli import *
from .errors import *
from .geometry import *
from .optimize import *
from .profiles import *
from .spectrum import *
from .transport import *
from .weights import *

# each module's __all__ is its public API and the package's is their union, as
# in asyncio; every star import above also binds its submodule's name here
__all__ = (cli.__all__ + errors.__all__ + geometry.__all__ + optimize.__all__ + profiles.__all__
           + spectrum.__all__ + transport.__all__ + weights.__all__)

__version__ = "0.1.0"
