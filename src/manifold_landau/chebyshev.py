"""Smallest enclosing spherical cap via maximin inner product.

Minimizing the sup of chordal distances from a unit vector to a point
cloud on the sphere is equivalent (chordal identity |x-p|^2 = 2 - 2<x,p>)
to maximizing f(x) = min_i <x, p_i>. When the cloud lies in an open
hemisphere, minimax duality gives max f = min_{q in conv P} |q|, attained
at e = q*/|q*|, and one NNLS solve of the least-distance problem finds q*
exactly (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23;
Wolfe's 1976 nearest-point algorithm is the same method seen from the
dual side). The NNLS is the textbook Lawson-Hanson active-set loop in
numpy: the passive set never holds more than 4 columns, so each step is a
tiny least-squares solve plus one pass over the cloud. An exhaustive
icosphere scan with one chart refinement serves as the independent
oracle.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, OffManifoldError
from .geometry import SurfacePoint, skew
from .golden import golden_max

LDP_RHS = np.array([0.0, 0.0, 0.0, 1.0])  # f of the least-distance NNLS system
RCOND = 100 * np.finfo(float).eps        # rank cut-off of the NNLS passive columns
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


# The 20 faces of icosahedron_vertices() in the order and orientation that
# scipy.spatial.ConvexHull lists them; the order fixes the icosphere's vertex
# order and so the oracle's tie-breaking.
ICOSAHEDRON_FACES = (
    (0, 1, 2), (6, 4, 2), (6, 0, 5), (6, 0, 2), (7, 3, 1), (7, 0, 5), (7, 0, 1),
    (8, 4, 2), (8, 1, 2), (8, 3, 1), (8, 9, 3), (8, 9, 4), (10, 9, 4), (10, 6, 4),
    (10, 6, 5), (11, 7, 5), (11, 9, 3), (11, 7, 3), (11, 10, 9), (11, 10, 5),
)


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
    faces = ICOSAHEDRON_FACES
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


def _nnls(E: np.ndarray, f: np.ndarray) -> np.ndarray:
    """argmin_{u >= 0} |E u - f| by the Lawson-Hanson active-set method
    (Lawson & Hanson 1974, ch. 23), with one step of iterative refinement
    on the final passive set. The outer loop is capped at 3n steps, as
    scipy's nnls is; a capped solve returns its last feasible iterate.

    The entering tolerance is the roundoff of w = E^T (f - E u): the
    residual involves only the passive columns, at most m of them, so the
    tolerance does not grow with n. A column that would make the passive
    set rank-deficient, or enter with a non-positive weight, ends the
    solve: the iterate is then optimal to roundoff."""
    m, n = E.shape
    tol = m * float((np.ones(m) @ np.abs(E)).max()) * np.finfo(float).eps
    u = np.zeros(n)
    idx = np.zeros(0, dtype=np.intp)  # the passive set
    w = E.T @ f
    for _ in range(3 * n):
        w[idx] = -math.inf
        j = int(np.argmax(w))
        if not w[j] > tol:
            break
        idx = np.append(idx, j)
        z, _, rank, _ = np.linalg.lstsq(E[:, idx], f, rcond=RCOND)
        if rank < len(idx) or z[-1] <= 0.0:
            idx = idx[:-1]
            break
        while z.min() <= 0.0:  # step back to the boundary, drop the zeros
            x, bad = u[idx], z <= 0.0
            ratio = np.where(bad, x / np.where(bad, x - z, 1.0), math.inf)
            k = int(np.argmin(ratio))
            x += ratio[k] * (z - x)
            x[k] = 0.0
            u[idx] = np.maximum(x, 0.0)
            idx = idx[x > 0.0]
            z = np.linalg.lstsq(E[:, idx], f, rcond=None)[0]
        u[idx] = z
        w = E.T @ (f - E[:, idx] @ z)
    A = E[:, idx]
    u[idx] += np.linalg.lstsq(A, f - A @ u[idx], rcond=None)[0]
    return np.maximum(u, 0.0)


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
    u = _nnls(E, LDP_RHS)
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
