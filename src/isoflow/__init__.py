"""Isoperimetric structure of log-concave perturbations of Gaussian densities.

Numerical companions to the half-space isoperimetric problem for densities
e^{omega(t) - c |p|^2} on the planar slab R x (a, b): profile construction
and ODE verification, parallel-vs-perpendicular comparison, 1-D monotone
transport with contraction certificates, stability and index-form
diagnostics, spectral-gap certification, and a weighted-length chord
optimizer.  Why the model is planar: see isoflow.weights.
"""

from .cli import RunConfig, load_config, main, resolved_config_text
from .errors import (
    ConfigError,
    ConsistencyError,
    DomainError,
    GeometryError,
    IsoflowError,
    SmoothnessError,
)
from .geometry import (
    DiscreteCurve,
    StabilityVerdict,
    cmc_shoot,
    curve_csv,
    curve_weighted_length,
    f_mean_curvature,
    horizontal_segment,
    index_form,
    jacobi_residual,
    parallel_halfspace_stability,
    polyline_curve,
    straight_segment,
    vertical_segment,
)
from .optimize import (
    ChordSpline,
    OptimizeTrace,
    OptimizerConfig,
    StationarityReport,
    chord_curve,
    enclosed_area,
    make_straight_chord,
    minimize,
    shape_gradient,
    stationarity_report,
    trace_csv,
    vertical_chord_length,
    weighted_length,
)
from .profiles import (
    ComparisonVerdict,
    Profile,
    ProfileOdeReport,
    build_profile,
    check_profile_ode,
    compare_profiles,
    profile_csv,
)
from .spectrum import (
    PoincareCertificate,
    SpectralProblem,
    build_spectral_problem,
    poincare_certify,
    spectral_gap_1d,
    spectrum_csv,
)
from .transport import (
    ContractionReport,
    PerimeterBoundReport,
    PushforwardReport,
    TransportMap,
    build_transport,
    check_contraction,
    pushforward_check,
    transport_csv,
    transported_perimeter_bound,
)
from .weights import (
    AffineWeight,
    ConcavityReport,
    CumulativeDensity1D,
    Density,
    LogPowerWeight,
    PiecewiseLinearWeight,
    QuadraticWeight,
    Weight1D,
    ZeroWeight,
    bakry_emery_curvature,
    check_concavity,
    gaussian_factor,
    log_density,
    log_density_gradient,
    tail_interval,
    total_weighted_volume,
)

__version__ = "0.1.0"
