"""Numerical verification of a Landau-Hadamard type derivative inequality
for curves on the unit 2-sphere (and its Euclidean analogue).

The bound controls the sup norm of a curve's velocity by the sup norm of
its covariant acceleration through an auxiliary convex function: when
U composed with the curve stays bounded, its gradient along the curve is
bounded and nonvanishing, and its Hessian quadratic form is uniformly
positive (constant lambda), then

    sup |x'|^2  <=  (C^2 / lambda) * sup |grad U o x| * sup |D_t x'|

with C the positive root of z^3 - 3z - 1 = 0 (= 2 cos(pi/9) ~ 1.87939).
On the sphere the natural U is half the squared chordal distance to the
center of the smallest enclosing cap of the curve.
"""

from .auxfun import (
    AuxFunction,
    ChordalHalfSquare,
    EuclideanQuadratic,
    IntrinsicHalfSquare,
    LambdaEstimate,
    aux_value,
    hessian_quadratic,
    hessian_quadratic_fd,
    lambda_min,
    riemannian_gradient,
)
from .chebyshev import CapCenter, chebyshev_center, chebyshev_grid_oracle, icosphere
from .curves import (
    Curve,
    CurveEvaluation,
    EuclideanAnalytic,
    GreatCircle,
    Latitude,
    LinearPhase,
    QuadraticPhase,
    RotatingFrame,
    SampledCurve,
    SinusoidalPhase,
    SphericalCompound,
    SupEstimate,
    TimeWindow,
    default_window,
    load_sampled,
    read_curve_csv,
    sup_norm,
)
from .errors import (
    HypothesisViolationError,
    IngestionError,
    InvalidCurveError,
    InvalidInputError,
    ManifoldLandauError,
    NumericFailureError,
    OffManifoldError,
    OutOfDomainError,
    SingularityError,
    SpecValidationError,
    TangencyError,
)
from .geometry import (
    Manifold,
    SurfacePoint,
    TangentVector,
    covariant_accel,
    covariant_accel_ode,
    geodesic,
    project_tangent,
)
from .inequality import (
    BoundReport,
    ClassicalReport,
    LandauConstant,
    ProbeResult,
    ProofDiagnostics,
    classical_landau_check,
    counterexample_curve,
    counterexample_report,
    landau_constant,
    manifold_bound_report,
    proof_diagnostics,
    sharpness_probe,
    sphere_bound_report,
)

__version__ = "0.5.0"
