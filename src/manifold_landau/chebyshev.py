"""Smallest enclosing spherical cap via maximin inner product.

Minimizing the sup of chordal distances from a unit vector to a point
cloud on the sphere is equivalent (chordal identity |x-p|^2 = 2 - 2<x,p>)
to maximizing f(x) = min_i <x, p_i>. When the cloud lies in an open
hemisphere, minimax duality gives max f = min_{q in conv P} |q|, attained
at e = q*/|q*|, and one NNLS solve of the least-distance problem finds q*
exactly (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23;
Wolfe's 1976 nearest-point algorithm is the same method seen from the
dual side). An exhaustive icosphere scan with one chart refinement serves
as the independent oracle.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import nnls
from scipy.spatial import ConvexHull

from .errors import InvalidInputError, OffManifoldError
from .geometry import SurfacePoint, skew
from .golden import golden_max

LDP_RHS = np.array([0.0, 0.0, 0.0, 1.0])  # f of the least-distance NNLS system
CERTIFICATE_GAP = 1e-12                   # duality gap below which `converged` holds
ICOSAHEDRON_EDGE_ARC = math.atan(2.0)     # ~63.435 deg between adjacent vertices
ORACLE_BLOCK = 256                        # icosphere vertices per block of the oracle scan


@dataclass(frozen=True)
class CapCenter:
    """Center of the smallest spherical cap enclosing a point cloud."""

    e: SurfacePoint
    minimax_chordal_radius: float
    min_inner_product: float
    iterations: int
    converged: bool
    warning: str | None = None


def _cloud_array(points) -> np.ndarray:
    if not isinstance(points, np.ndarray):
        points = [p.coords if isinstance(p, SurfacePoint) else p for p in points]
    if len(points) == 0:
        raise InvalidInputError("need at least one point")
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] != 3:
        raise InvalidInputError("points must be 3-vectors")
    if not np.all(np.isfinite(P)):
        raise InvalidInputError("points must be finite")
    norms = np.linalg.norm(P, axis=1)
    off = np.abs(norms - 1.0)
    if np.any(off > 1e-6):
        raise OffManifoldError(f"point {int(np.argmax(off))} is off the sphere by {off.max():.3e}")
    return P / norms[:, None]


def _objective(P: np.ndarray, x: np.ndarray) -> float:
    return float(np.min(P @ x))


def icosahedron_vertices() -> np.ndarray:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = []
    for s1 in (-1.0, 1.0):
        for s2 in (-1.0, 1.0):
            raw.append((0.0, s1, s2 * phi))
            raw.append((s1, s2 * phi, 0.0))
            raw.append((s2 * phi, 0.0, s1))
    V = np.array(raw)
    return V / np.linalg.norm(V, axis=1)[:, None]


@lru_cache(maxsize=8)
def icosphere(level: int) -> np.ndarray:
    """Vertices of the icosahedron subdivided `level` times and projected
    to the sphere; 10 * 4**level + 2 vertices."""
    if level < 0:
        raise InvalidInputError("subdivision level must be >= 0")
    verts = [tuple(v) for v in icosahedron_vertices()]
    faces = [tuple(f) for f in ConvexHull(np.array(verts)).simplices]
    for _ in range(level):
        index = {v: i for i, v in enumerate(verts)}
        midpoint_cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint_cache:
                m = np.asarray(verts[i]) + np.asarray(verts[j])
                m /= np.linalg.norm(m)
                m = tuple(m)
                index[m] = len(verts)
                verts.append(m)
                midpoint_cache[key] = index[m]
            return midpoint_cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    V = np.asarray(verts, dtype=float)
    V.setflags(write=False)
    return V


def chebyshev_center(points) -> CapCenter:
    """Cap center of a cloud of unit vectors.

    Solves the least-distance problem min |x| s.t. <p_i, x> >= 1 with
    one NNLS call: u = argmin_{u >= 0} |E u - f| for E = [P^T; 1^T] and
    f = (0, 0, 0, 1), residual r = E u - f. When r[3] < 0 the cloud lies
    in an open hemisphere and e = normalize(-r[:3] / r[3]); the returned
    objective min_i <e, p_i> > 0 witnesses it.

    `converged` is a certificate: the weak-duality gap
    |P^T u / sum(u)| - min_i <e, p_i> is at most 1e-12. The gap bounds
    how far the returned objective can be below the optimum on every
    cloud. `iterations` is the number of points with positive NNLS
    weight (the support of the nearest point of the hull), always >= 1.

    When no open hemisphere contains the cloud, the center is the least
    right-singular vector of P, signed for the larger objective (+ on
    ties), with a warning, so downstream hypothesis checks can report the
    failure instead of erroring. That center is exact (objective 0) for
    clouds on a great circle.
    """
    P = _cloud_array(points)
    E = np.vstack([P.T, np.ones(len(P))])
    u, _ = nnls(E, LDP_RHS)
    r = E @ u - LDP_RHS
    norm = float(np.linalg.norm(r[:3]))  # r[:3] = P^T u
    e, f = None, -math.inf
    if r[3] < 0.0 and norm > 0.0:
        e = r[:3] / norm  # = normalize(-r[:3] / r[3])
        f = _objective(P, e)
    warning = None
    if not f > 0.0:
        warning = "cloud is not contained in an open hemisphere; minimizer may be non-unique"
        v = np.linalg.eigh(P.T @ P)[1][:, 0]
        e = v if _objective(P, v) >= _objective(P, -v) else -v
        f = _objective(P, e)
    gap = norm / float(u.sum()) - f
    return CapCenter(
        e=SurfacePoint(e),
        minimax_chordal_radius=math.sqrt(max(0.0, 2.0 - 2.0 * f)),
        min_inner_product=f,
        iterations=int(np.count_nonzero(u > 0.0)),
        converged=bool(gap <= CERTIFICATE_GAP),
        warning=warning,
    )


def chebyshev_grid_oracle(points, subdivisions: int = 5) -> CapCenter:
    """Exhaustive maximin over an icosphere grid, then one golden refine
    per spherical-chart coordinate around the best vertex. Test oracle:
    slower and cruder than the solver, but with guaranteed coverage. The
    vertex scan runs in blocks of ORACLE_BLOCK vertices, so memory stays
    small on dense clouds."""
    P = _cloud_array(points)
    V = icosphere(subdivisions)
    f_all = np.concatenate([(V[i:i + ORACLE_BLOCK] @ P.T).min(axis=1)
                            for i in range(0, len(V), ORACLE_BLOCK)])
    b = V[int(np.argmax(f_all))]

    # chart centered at b, rotated to the equator so both coordinates are
    # well conditioned near the center
    R = _rotation_to_ex(b)
    delta = 1.2 * ICOSAHEDRON_EDGE_ARC / (2 ** subdivisions)

    def chart(phi, psi):
        local = np.array([math.cos(psi) * math.cos(phi),
                          math.cos(psi) * math.sin(phi),
                          math.sin(psi)])
        return R.T @ local

    phi_star, _ = golden_max(lambda p: _objective(P, chart(p, 0.0)),
                             -delta, delta, tol=1e-12, maxiter=70)
    psi_star, f_star = golden_max(lambda q: _objective(P, chart(phi_star, q)),
                                  -delta, delta, tol=1e-12, maxiter=70)
    e = chart(phi_star, psi_star)
    e /= np.linalg.norm(e)
    f_star = _objective(P, e)
    warning = None
    if f_star <= 0.0:
        warning = "cloud is not contained in an open hemisphere; minimizer may be non-unique"
    return CapCenter(
        e=SurfacePoint(e),
        minimax_chordal_radius=math.sqrt(max(0.0, 2.0 - 2.0 * f_star)),
        min_inner_product=f_star,
        iterations=len(V),
        converged=True,
        warning=warning,
    )


def _rotation_to_ex(b: np.ndarray) -> np.ndarray:
    """Orthogonal matrix mapping b to (1, 0, 0)."""
    ex = np.array([1.0, 0.0, 0.0])
    c = float(np.dot(b, ex))
    if c > 1.0 - 1e-12:
        return np.eye(3)
    if c < -1.0 + 1e-12:
        return np.diag([-1.0, -1.0, 1.0])
    axis = np.cross(b, ex)
    axis /= np.linalg.norm(axis)
    K = skew(axis)
    s = math.sqrt(max(0.0, 1.0 - c * c))
    return np.eye(3) + s * K + (1.0 - c) * (K @ K)
