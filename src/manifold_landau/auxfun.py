"""Auxiliary convex functions and their convexity constant along a curve.

Each auxiliary function exposes a value, a Riemannian gradient and the
Hessian quadratic form. The quadratic form is defined mechanically as
the second derivative of the function along a geodesic, discretized by
a symmetric second difference (step 1e-4) with one Richardson step;
where a closed form exists the two are required to agree.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curves import JetTable, Quantity, SupEstimate, TimeWindow, curve_jets, scan_extremum
from .errors import InvalidInputError, NumericFailureError, SingularityError
from .geometry import Manifold, SurfacePoint, TangentVector, as_vector, project_tangent, tangent_frame
from .golden import golden_max

HESSIAN_FD_STEP = 1e-4
HESSIAN_AGREEMENT_TOL = 1e-6
ANTIPODE_GUARD = 1e-8
DIRECTION_SCAN = 64


class AuxFunction:
    """Interface: scalar value, Riemannian gradient, Hessian quadratic form."""

    kind: str
    manifold: Manifold
    # True when the minimum of the quadratic form over unit tangents has a
    # closed form (then unit_hessian_min_batch must be implemented)
    closed_unit_min: bool = False

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.value(x) for x in X])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.gradient(x) for x in X])

    def gradient_norm_batch(self, X: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self.gradient_batch(X), axis=1)

    def hessian_closed_form(self, x: np.ndarray, y: np.ndarray):
        """Closed-form quadratic form value, or None when none is claimed."""
        return None

    def unit_hessian_min_batch(self, X: np.ndarray):
        """Direction-independent minimum of the quadratic form on unit
        tangents, when available in closed form."""
        raise NotImplementedError


@dataclass(frozen=True)
class ChordalHalfSquare(AuxFunction):
    """U(x) = |x - e|^2 / 2 on the sphere.

    Gradient <e,x> x - e, gradient norm squared 1 - <e,x>^2, and the
    quadratic form on a tangent y is <e,x> |y|^2, so the unit-direction
    minimum at x is simply <e,x>.
    """

    e: SurfacePoint
    kind: str = "chordal_half_square"
    closed_unit_min = True

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
    """U(x) = arccos(<e,x>)^2 / 2, half the squared geodesic distance to e.

    The gradient comes from projecting the ambient chain-rule gradient;
    no closed-form Hessian is claimed, the quadratic form is numeric
    only. Points within 1e-8 of the antipode are rejected, where the
    arccos derivative blows up.
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

    def value(self, x):
        return 0.5 * math.acos(self._cosine(x)) ** 2

    def value_batch(self, X):
        s = X @ self.e.coords
        if np.any(s <= -1.0 + ANTIPODE_GUARD):
            raise SingularityError("curve passes too close to the antipode of e")
        return 0.5 * np.arccos(np.minimum(s, 1.0)) ** 2

    def gradient(self, x):
        x = as_vector(x, dim=3)
        s = self._cosine(x)
        theta = math.acos(s)
        ambient = self.e.coords - s * x  # tangential part of e
        norm = math.sqrt(max(0.0, 1.0 - s * s))
        if norm < 1e-15:
            return np.zeros(3)  # at e itself the gradient vanishes
        return (-theta / norm) * ambient

    def gradient_norm_batch(self, X):
        s = X @ self.e.coords
        if np.any(s <= -1.0 + ANTIPODE_GUARD):
            raise SingularityError("curve passes too close to the antipode of e")
        return np.arccos(np.clip(s, -1.0, 1.0))


@dataclass(frozen=True)
class EuclideanQuadratic(AuxFunction):
    """U(x) = |x - c|^2 / 2 on R^d; gradient x - c, quadratic form |y|^2."""

    center: np.ndarray
    kind: str = "euclidean_quadratic"
    closed_unit_min = True

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
    method: str  # "closed_form" | "directional_scan"


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

    Computed as the second derivative of U along the geodesic with
    initial velocity y. Where a closed form exists it is returned and
    checked against the discretization within 1e-6.
    """
    coords = _point_coords(U, x)
    yvec = _direction_coords(U, x, y)
    numeric = hessian_quadratic_fd(U, coords, yvec)
    closed = U.hessian_closed_form(coords, yvec)
    if closed is None:
        return numeric
    scale = max(1.0, abs(closed))
    if abs(closed - numeric) > HESSIAN_AGREEMENT_TOL * scale:
        raise NumericFailureError(
            f"Hessian closed form {closed!r} and second difference {numeric!r} disagree")
    return closed


def hessian_quadratic_fd(U: AuxFunction, x: np.ndarray, y: np.ndarray,
                         h: float = HESSIAN_FD_STEP, richardson: bool = True) -> float:
    """Symmetric second difference of U along the geodesic through x with
    velocity y, optionally improved by one Richardson step."""
    man = U.manifold

    def second_diff(step):
        up = U.value(man.geodesic_array(x, y, step))
        dn = U.value(man.geodesic_array(x, y, -step))
        return (up - 2.0 * U.value(x) + dn) / (step * step)

    d_h = second_diff(h)
    if not richardson:
        return d_h
    d_h2 = second_diff(h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0


def closed_form_lambda(U: AuxFunction, curve, est: SupEstimate) -> LambdaEstimate:
    """LambdaEstimate from a min scan of the "aux_unit_hessian_min" quantity;
    the form is direction-independent, so any unit tangent attains it."""
    x = curve.evaluate(est.argmax_t).x
    if U.manifold.is_sphere:
        direction = project_tangent(SurfacePoint(x), tangent_frame(x)[0])
    else:
        direction = np.eye(U.manifold.dim)[0]
    return LambdaEstimate(value=est.value, argmin_t=est.argmax_t,
                          argmin_direction=direction, method="closed_form")


def lambda_min(U: AuxFunction, curve, window: TimeWindow,
               jets: JetTable | None = None) -> LambdaEstimate:
    """Worst (smallest) Hessian quadratic-form value on unit tangents
    along the curve.

    Direction-independent forms (chordal, Euclidean quadratic) reduce to
    a refined scan of the closed-form minimum; otherwise 64 unit tangent
    directions are scanned per sample and the worst is golden-refined
    over the direction angle.
    """
    if U.closed_unit_min:
        spec = Quantity("aux_unit_hessian_min", aux=U, mode="min")
        est, = scan_extremum(curve, window, [spec], jets=jets)
        return closed_form_lambda(U, curve, est)

    if not U.manifold.is_sphere:
        raise InvalidInputError("directional scan is only implemented on the sphere")

    ts, X, _, _ = curve_jets(curve, window) if jets is None else jets
    angles = np.linspace(0.0, math.pi, DIRECTION_SCAN, endpoint=False)
    per_sample = np.array([_directional_values(U, x, *tangent_frame(x), angles).min() for x in X])
    i_star = int(np.argmin(per_sample))  # the first minimum: ties go to the smallest t
    t_star, x_star = float(ts[i_star]), X[i_star]
    u, v = tangent_frame(x_star)

    def over_angle(angle):
        return -float(_directional_values(U, x_star, u, v, np.array([angle]))[0])

    j0 = float(angles[int(np.argmin(_directional_values(U, x_star, u, v, angles)))])
    width = math.pi / DIRECTION_SCAN
    a_star, neg_val = golden_max(over_angle, j0 - width, j0 + width, tol=1e-10)
    value = min(float(per_sample.min()), -neg_val)
    xi = math.cos(a_star) * u + math.sin(a_star) * v
    direction = project_tangent(SurfacePoint(x_star), xi)
    return LambdaEstimate(value=value, argmin_t=t_star,
                          argmin_direction=direction, method="directional_scan")


def _directional_values(U, x, u, v, angles, h=HESSIAN_FD_STEP):
    """Richardson-improved second differences along unit directions
    cos(a) u + sin(a) v, vectorized over the angles."""
    dirs = np.outer(np.cos(angles), u) + np.outer(np.sin(angles), v)
    u0 = U.value(x)

    def second_diff(step):
        up = U.value_batch(np.cos(step) * x + np.sin(step) * dirs)
        dn = U.value_batch(np.cos(step) * x - np.sin(step) * dirs)
        return (up - 2.0 * u0 + dn) / (step * step)

    return (4.0 * second_diff(h / 2.0) - second_diff(h)) / 3.0


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
