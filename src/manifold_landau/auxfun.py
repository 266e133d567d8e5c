"""Auxiliary convex functions and their convexity constant along a curve.

Each auxiliary function exposes a value, a Riemannian gradient and the
Hessian quadratic form, the batch versions over rows of points, and the
closed-form minimum of the quadratic form over unit tangents. lambda is
the window minimum of that closed form, read off the curve's jet table
in the same fused scan as the report's sups. The quadratic form is also
defined mechanically as the second derivative of the function along a
geodesic, discretized by a symmetric second difference (step 1e-4) with
one Richardson step; hessian_quadratic requires the closed form and the
discretization to agree.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curves import JetTable, Quantity, SupEstimate, TimeWindow, scan_extremum
from .errors import NumericFailureError, SingularityError
from .geometry import Manifold, SurfacePoint, TangentVector, as_vector, project_tangent, tangent_frame
# perfbench's tracer test looks golden_max up here; the import goes with ROADMAP item 1
from .golden import golden_max  # noqa: F401

HESSIAN_FD_STEP = 1e-4
HESSIAN_AGREEMENT_TOL = 1e-6
ANTIPODE_GUARD = 1e-8


class AuxFunction:
    """Interface: scalar value, Riemannian gradient and Hessian quadratic
    form, with value_batch, gradient_batch, gradient_norm_batch and
    unit_hessian_min_batch (the minimum of the form over unit tangents)
    over rows of points."""

    kind: str
    manifold: Manifold

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian_closed_form(self, x: np.ndarray, y: np.ndarray) -> float:
        raise NotImplementedError

    def unit_hessian_argmin(self, x: np.ndarray) -> np.ndarray:
        """A unit vector at x along which the quadratic form takes its
        unit-tangent minimum; any one does where the form is isotropic."""
        if self.manifold.is_sphere:
            return tangent_frame(x)[0]
        return np.eye(self.manifold.dim)[0]


@dataclass(frozen=True)
class ChordalHalfSquare(AuxFunction):
    """U(x) = |x - e|^2 / 2 on the sphere.

    Gradient <e,x> x - e, gradient norm squared 1 - <e,x>^2, and the
    quadratic form on a tangent y is <e,x> |y|^2, so the unit-direction
    minimum at x is simply <e,x>.
    """

    e: SurfacePoint
    kind: str = "chordal_half_square"

    @property
    def manifold(self):
        return Manifold.sphere2()

    def value(self, x):
        d = as_vector(x, dim=3) - self.e.coords
        return 0.5 * float(np.dot(d, d))

    def value_batch(self, X):
        return 1.0 - X @ self.e.coords

    def gradient(self, x):
        x = as_vector(x, dim=3)
        return float(np.dot(self.e.coords, x)) * x - self.e.coords

    def gradient_batch(self, X):
        s = X @ self.e.coords
        return s[:, None] * X - self.e.coords

    def gradient_norm_batch(self, X):
        s = X @ self.e.coords
        return np.sqrt(np.maximum(0.0, 1.0 - s * s))

    def hessian_closed_form(self, x, y):
        return float(np.dot(self.e.coords, x)) * float(np.dot(y, y))

    def unit_hessian_min_batch(self, X):
        return X @ self.e.coords


@dataclass(frozen=True)
class IntrinsicHalfSquare(AuxFunction):
    """U(x) = d(e,x)^2 / 2, half the squared geodesic distance to e.

    The gradient projects the ambient chain-rule gradient. The Hessian
    has eigenvalue 1 along the geodesic to e and d cot d across it
    (Hessian of the distance function in constant curvature 1), so the
    unit-direction minimum at x is d cot d. Points within 1e-8 of the
    antipode are rejected, where the distance is not smooth.
    """

    e: SurfacePoint
    kind: str = "intrinsic_half_square"

    @property
    def manifold(self):
        return Manifold.sphere2()

    def _cosine(self, x):
        s = float(np.dot(self.e.coords, as_vector(x, dim=3)))
        if s <= -1.0 + ANTIPODE_GUARD:
            raise SingularityError("intrinsic auxiliary function is singular at the antipode")
        return min(s, 1.0)

    def _cosines(self, X):
        s = X @ self.e.coords
        if np.any(s <= -1.0 + ANTIPODE_GUARD):
            raise SingularityError("curve passes too close to the antipode of e")
        return s

    def value(self, x):
        return 0.5 * math.acos(self._cosine(x)) ** 2

    def value_batch(self, X):
        return 0.5 * np.arccos(np.minimum(self._cosines(X), 1.0)) ** 2

    def gradient(self, x):
        x = as_vector(x, dim=3)
        s = self._cosine(x)
        theta = math.acos(s)
        ambient = self.e.coords - s * x  # tangential part of e
        norm = math.sqrt(max(0.0, 1.0 - s * s))
        if norm < 1e-15:
            return np.zeros(3)  # at e itself the gradient vanishes
        return (-theta / norm) * ambient

    def gradient_batch(self, X):
        s = np.minimum(self._cosines(X), 1.0)
        norm = np.sqrt(np.maximum(0.0, 1.0 - s * s))
        at_e = norm < 1e-15
        scale = -np.arccos(s) / np.where(at_e, 1.0, norm)
        G = scale[:, None] * (self.e.coords - s[:, None] * X)
        G[at_e] = 0.0  # at e itself the gradient vanishes
        return G

    def gradient_norm_batch(self, X):
        return np.arccos(np.clip(self._cosines(X), -1.0, 1.0))

    def hessian_closed_form(self, x, y):
        k = float(self.unit_hessian_min_batch(x[None, :])[0])
        toward = self.e.coords - float(np.dot(self.e.coords, x)) * x  # along the geodesic to e
        n = float(np.linalg.norm(toward))
        a = float(np.dot(y, toward)) / n if n > 0.0 else 0.0
        return a * a + k * (float(np.dot(y, y)) - a * a)

    def unit_hessian_min_batch(self, X):
        # arctan2 keeps d accurate near 0, where arccos of the cosine loses half the digits
        d = np.arctan2(np.linalg.norm(np.cross(X, self.e.coords), axis=1), self._cosines(X))
        small = d < 1e-6
        safe = np.where(small, 1.0, d)
        return np.where(small, 1.0 - d * d / 3.0, safe / np.tan(safe))

    def unit_hessian_argmin(self, x):
        across = np.cross(x, self.e.coords)  # normal to the geodesic to e
        n = float(np.linalg.norm(across))
        return across / n if n > 0.0 else super().unit_hessian_argmin(x)


@dataclass(frozen=True)
class EuclideanQuadratic(AuxFunction):
    """U(x) = |x - c|^2 / 2 on R^d; gradient x - c, quadratic form |y|^2."""

    center: np.ndarray
    kind: str = "euclidean_quadratic"

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    @property
    def manifold(self):
        return Manifold.euclidean(len(self.center))

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return 0.5 * float(np.dot(d, d))

    def value_batch(self, X):
        D = X - self.center
        return 0.5 * np.einsum("ni,ni->n", D, D)

    def gradient(self, x):
        return np.asarray(x, dtype=float) - self.center

    def gradient_batch(self, X):
        return X - self.center

    def gradient_norm_batch(self, X):
        return np.linalg.norm(X - self.center, axis=1)

    def hessian_closed_form(self, x, y):
        y = np.asarray(y, dtype=float)
        return float(np.dot(y, y))

    def unit_hessian_min_batch(self, X):
        return np.ones(len(X))


@dataclass(frozen=True)
class LambdaEstimate:
    """Infimum over the window of the smallest Hessian eigenvalue on unit
    tangents."""

    value: float
    argmin_t: float
    argmin_direction: object  # TangentVector on the sphere, ndarray on R^d
    method: str  # "closed_form"


def aux_value(U: AuxFunction, x) -> float:
    return U.value(_point_coords(U, x))


def riemannian_gradient(U: AuxFunction, x):
    """Gradient of U at x, tangent to the manifold at x."""
    coords = _point_coords(U, x)
    g = U.gradient(coords)
    if U.manifold.is_sphere:
        return project_tangent(_as_surface_point(x), g)
    return g


def hessian_quadratic(U: AuxFunction, x, y) -> float:
    """Quadratic form <Hess U(x) y, y>.

    The closed form, checked against the second derivative of U along
    the geodesic with initial velocity y (the discretization) within
    1e-6 relative plus the discretization's own roundoff.
    """
    coords = _point_coords(U, x)
    yvec = _direction_coords(U, x, y)
    numeric = hessian_quadratic_fd(U, coords, yvec)
    closed = U.hessian_closed_form(coords, yvec)
    # each value of U is off by up to eps |U(x)|, which the Richardson
    # combination of second differences at h and h/2 amplifies by
    # (4 * 16 + 4) / 3 < 23 over h^2
    roundoff = 23.0 * np.finfo(float).eps * abs(U.value(coords)) / HESSIAN_FD_STEP ** 2
    if abs(closed - numeric) > HESSIAN_AGREEMENT_TOL * max(1.0, abs(closed)) + roundoff:
        raise NumericFailureError(
            f"Hessian closed form {closed!r} and second difference {numeric!r} disagree")
    return closed


def hessian_quadratic_fd(U: AuxFunction, x: np.ndarray, y: np.ndarray) -> float:
    """Symmetric second difference of U along the geodesic through x with
    velocity y, at steps HESSIAN_FD_STEP and half of it, combined by one
    Richardson step."""
    man = U.manifold

    def second_diff(step):
        up = U.value(man.geodesic_array(x, y, step))
        dn = U.value(man.geodesic_array(x, y, -step))
        return (up - 2.0 * U.value(x) + dn) / (step * step)

    return (4.0 * second_diff(HESSIAN_FD_STEP / 2.0) - second_diff(HESSIAN_FD_STEP)) / 3.0


def closed_form_lambda(U: AuxFunction, curve, est: SupEstimate) -> LambdaEstimate:
    """LambdaEstimate from a min scan of the "aux_unit_hessian_min" quantity,
    with a unit tangent attaining the minimum at the scan's argmin."""
    x = curve.evaluate(est.argmax_t).x
    direction = U.unit_hessian_argmin(x)
    if U.manifold.is_sphere:
        direction = project_tangent(SurfacePoint(x), direction)
    return LambdaEstimate(value=est.value, argmin_t=est.argmax_t,
                          argmin_direction=direction, method="closed_form")


def lambda_min(U: AuxFunction, curve, window: TimeWindow,
               jets: JetTable | None = None) -> LambdaEstimate:
    """Worst (smallest) Hessian quadratic-form value on unit tangents
    along the curve: a refined min scan of the closed-form minimum."""
    spec = Quantity("aux_unit_hessian_min", aux=U, mode="min")
    est, = scan_extremum(curve, window, [spec], jets=jets)
    return closed_form_lambda(U, curve, est)


def _point_coords(U, x):
    if isinstance(x, SurfacePoint):
        return x.coords
    if U.manifold.is_sphere:
        return SurfacePoint(x).coords
    return as_vector(x)


def _as_surface_point(x):
    return x if isinstance(x, SurfacePoint) else SurfacePoint(x)


def _direction_coords(U, x, y):
    if isinstance(y, TangentVector):
        return y.vec
    return as_vector(y)
