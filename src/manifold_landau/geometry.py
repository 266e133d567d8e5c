"""Embedded-manifold primitives: the unit 2-sphere and Euclidean R^d.

Points and vectors are plain float64 numpy arrays in embedding
coordinates; SurfacePoint and TangentVector wrap them with their
invariants (unit norm, tangency) enforced at construction. All
operations are pure and the wrapped arrays are never mutated.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, OffManifoldError, TangencyError, InvalidCurveError

UNIT_NORM_TOL = 1e-9       # accepted as-is
UNIT_NORM_REPAIR_TOL = 1e-6  # renormalized with a flag; beyond this, rejected
TANGENCY_TOL = 1e-9
CURVE_TANGENCY_TOL = 1e-6  # looser precondition for curve jets


def as_vector(coords, dim=None) -> np.ndarray:
    """Validate a finite coordinate sequence and return it as float64."""
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1:
        raise InvalidInputError(f"expected a flat coordinate sequence, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise InvalidInputError(f"expected {dim} coordinates, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("coordinates must be finite (no NaN/Inf)")
    return v


@dataclass(frozen=True)
class SurfacePoint:
    """A point on the unit 2-sphere.

    Inputs within 1e-9 of unit norm are taken as-is; within 1e-6 they
    are renormalized and flagged; anything farther is rejected. This
    separates float drift from genuinely off-manifold data.
    """

    coords: np.ndarray
    renormalized: bool = field(default=False, compare=False)

    def __post_init__(self):
        v = as_vector(self.coords, dim=3)
        with np.errstate(over="ignore"):  # a norm past the float range reads inf
            norm = float(np.linalg.norm(v))
        err = abs(norm - 1.0)
        if err > UNIT_NORM_REPAIR_TOL:
            raise OffManifoldError(f"point norm {norm!r} deviates from 1 by {err:.3e}")
        if err > UNIT_NORM_TOL:
            object.__setattr__(self, "coords", v / norm)
            object.__setattr__(self, "renormalized", True)
        else:
            object.__setattr__(self, "coords", v)


@dataclass(frozen=True)
class TangentVector:
    """A vector attached to a sphere point, tangent within 1e-9.

    Build tangent vectors with project_tangent; direct construction
    rejects anything with a radial component above the tolerance.
    """

    base: SurfacePoint
    vec: np.ndarray

    def __post_init__(self):
        v = as_vector(self.vec, dim=3)
        radial = float(np.dot(v, self.base.coords))
        if abs(radial) > TANGENCY_TOL:
            raise TangencyError(f"radial component {radial:.3e} exceeds tangency tolerance")
        object.__setattr__(self, "vec", v)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


@dataclass(frozen=True)
class Manifold:
    """Either the unit 2-sphere or Euclidean R^d; the only two cases the
    computable content needs, so no plugin machinery."""

    kind: str  # "sphere2" | "euclidean"
    dim: int   # ambient dimension

    @staticmethod
    def sphere2() -> "Manifold":
        return Manifold("sphere2", 3)

    @staticmethod
    def euclidean(d: int) -> "Manifold":
        if d < 1:
            raise InvalidInputError("Euclidean dimension must be >= 1")
        return Manifold("euclidean", int(d))

    @property
    def is_sphere(self) -> bool:
        return self.kind == "sphere2"

    # Array-level operations used by the curve machinery. On the sphere
    # they defer to the module functions below; on R^d the covariant
    # derivative is the plain second derivative and geodesics are lines.

    def covariant_accel_array(self, X, Xdd) -> np.ndarray:
        """Covariant acceleration of jet rows (or one jet): on the sphere
        the tangential projection of the ambient second derivative."""
        if self.is_sphere:
            return Xdd - np.einsum("...i,...i->...", Xdd, X)[..., None] * X
        return np.asarray(Xdd, dtype=float)

    def covariant_accel_norm(self, ts, X, Xd, Xdd) -> np.ndarray:
        """|D_t x'| at each jet row: a scan quantity (curves.Quantity)."""
        return np.linalg.norm(self.covariant_accel_array(X, Xdd), axis=1)

    def geodesic_array(self, x0, y, t: float) -> np.ndarray:
        if self.is_sphere:
            return _sphere_geodesic(np.asarray(x0, float), np.asarray(y, float), t)
        return np.asarray(x0, float) + t * np.asarray(y, float)


def project_tangent(x: SurfacePoint, v) -> TangentVector:
    """Orthogonal projection of an ambient vector onto the tangent plane
    at x: v minus its radial component."""
    w = as_vector(v, dim=3)
    p = x.coords
    w = w - np.dot(w, p) * p
    w = w - np.dot(w, p) * p  # second pass kills the rounding residue
    return TangentVector(x, w)


def covariant_accel(x: SurfacePoint, xdot, xddot) -> TangentVector:
    """Intrinsic acceleration of a sphere curve from its ambient jet.

    Returns the tangential projection of xddot, which for a genuine
    sphere curve equals xddot + <xdot,xdot> x. xdot must be tangent at
    x within 1e-6 or the jet is rejected as inconsistent.
    """
    vd = as_vector(xdot, dim=3)
    vdd = as_vector(xddot, dim=3)
    radial = float(np.dot(vd, x.coords))
    if abs(radial) > CURVE_TANGENCY_TOL:
        raise InvalidCurveError(
            f"velocity has radial component {radial:.3e}; not a sphere-curve jet")
    return project_tangent(x, vdd)


def covariant_accel_ode(x: SurfacePoint, xdot, xddot) -> np.ndarray:
    """Cross-check form xddot + |xdot|^2 x.

    Coincides with the projection form exactly when (x, xdot, xddot) is
    the jet of an actual sphere curve; the gap between the two forms
    measures jet consistency.
    """
    vd = as_vector(xdot, dim=3)
    vdd = as_vector(xddot, dim=3)
    return vdd + float(np.dot(vd, vd)) * x.coords


def _sphere_geodesic(x0: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    speed = float(np.linalg.norm(y))
    if speed == 0.0:
        return x0.copy()
    s = speed * t
    return np.cos(s) * x0 + np.sin(s) * (y / speed)


def geodesic(x0: SurfacePoint, y: TangentVector, t: float) -> SurfacePoint:
    """Great circle through x0 with initial velocity y, at parameter t:
    cos(|y| t) x0 + sin(|y| t) y/|y|. Zero velocity stays at x0."""
    if y.base is not x0 and not np.array_equal(y.base.coords, x0.coords):
        raise TangencyError("direction vector is anchored at a different point")
    return SurfacePoint(_sphere_geodesic(x0.coords, y.vec, float(t)))


def tangent_frame(x: np.ndarray):
    """Deterministic orthonormal basis (u, v) of the tangent plane at x."""
    x = np.asarray(x, dtype=float)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(x)))] = 1.0
    u = axis - np.dot(axis, x) * x
    u /= np.linalg.norm(u)
    v = np.cross(x, u)
    return u, v


def skew(k: np.ndarray) -> np.ndarray:
    """Cross-product matrix of k."""
    return np.array([
        [0.0, -k[2], k[1]],
        [k[2], 0.0, -k[0]],
        [-k[1], k[0], 0.0],
    ])
