import math

import numpy as np
import pytest
from scipy.optimize import nnls
from scipy.spatial import ConvexHull

from helpers import hemisphere_cloud, random_rotation, random_tangent_direction, random_unit
from manifold_landau import chebyshev
from manifold_landau.chebyshev import (
    ICOSAHEDRON_FACES,
    chebyshev_center,
    chebyshev_grid_oracle,
    icosahedron_vertices,
    icosphere,
)
from manifold_landau.curves import (
    Latitude,
    LinearPhase,
    RotatingFrame,
    SinusoidalPhase,
    SphericalCompound,
    curve_jets,
    default_window,
)
from manifold_landau.errors import InvalidInputError, OffManifoldError
from manifold_landau.inequality import build_curve, counterexample_curve, counterexample_window

POLE = np.array([0.0, 0.0, 1.0])


def latitude_cloud(colatitude=math.pi / 4, n=64):
    ts = np.linspace(0.0, 2 * math.pi, n + 1)[:-1]
    return Latitude(colatitude, LinearPhase(1.0)).batch(ts)[0]


def probe_cloud():
    """Probe-size (513-sample) compound cloud; a multi-start supergradient
    ascent with local polish stops 8.6e-4 below the oracle on it."""
    curve = build_curve("compound", [2.0, 0.82784003017734, -0.8984067531155135,
                                     0.957024744261115, 1.0, 5.989166948806688,
                                     -0.807415493495736, 0.5989748968359402, 2.0])
    return curve.batch(default_window(curve, samples=513).grid())[0]


def dense_cloud():
    """The aperiodic compound of the benchmark's dense_sampled workload at
    seed 507 on its default 40001-sample window; the same ascent stops
    8.3e-5 below the oracle on it."""
    frames = (([-0.9878906133008191, -0.14823255589246476, 0.04581752422074615],
               0.3020570919353123, 1.642427659735629),
              ([0.7533547420559392, 0.6240745285835165, -0.20733454944868882],
               0.4093146493485891, 1.9060056814592645),
              ([0.15048616903882167, 0.7138229974494349, 0.6839668422082485],
               0.43034478489616473, 1.7218403060933174))
    curve = SphericalCompound(tuple(RotatingFrame(axis, SinusoidalPhase(amp, omega))
                                    for axis, amp, omega in frames), [0.0, 0.0, 1.0])
    return curve.batch(default_window(curve).grid())[0]


def angular(a, b):
    return math.acos(float(np.clip(np.dot(a, b), -1.0, 1.0)))


class TestSolver:
    def test_single_point(self):
        cap = chebyshev_center(np.array([[0.0, 0.0, 1.0]]))
        np.testing.assert_allclose(cap.e.coords, POLE, atol=1e-12)
        assert cap.minimax_chordal_radius == pytest.approx(0.0, abs=1e-9)

    def test_latitude_circle(self):
        cap = chebyshev_center(latitude_cloud())
        assert angular(cap.e.coords, POLE) <= 1e-4
        assert abs(cap.min_inner_product - math.cos(math.pi / 4)) <= 1e-6

    def test_two_points(self):
        cap = chebyshev_center(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        np.testing.assert_allclose(cap.e.coords, [math.sqrt(2) / 2, math.sqrt(2) / 2, 0],
                                   atol=1e-12)
        assert cap.min_inner_product == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(InvalidInputError):
            chebyshev_center([])

    def test_off_manifold_point(self):
        with pytest.raises(OffManifoldError):
            chebyshev_center(np.array([[1.1, 0, 0]]))

    def test_degenerate_antipodal_cloud(self):
        cap = chebyshev_center(np.array([[0, 0, 1.0], [0, 0, -1.0]]))
        assert cap.min_inner_product <= 0.0
        assert cap.warning is not None

    def test_radius_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pts, _ = hemisphere_cloud(rng)
            cap = chebyshev_center(pts)
            chordal_sup = np.sqrt(((cap.e.coords - pts) ** 2).sum(axis=1)).max()
            assert abs(chordal_sup - math.sqrt(2 - 2 * cap.min_inner_product)) <= 1e-12
            assert -1.0 <= cap.min_inner_product <= 1.0

    def test_membership_vs_mean_start(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts, _ = hemisphere_cloud(rng)
            mean = pts.sum(axis=0)
            mean /= np.linalg.norm(mean)
            cap = chebyshev_center(pts)
            assert cap.min_inner_product >= float((pts @ mean).min()) - 1e-12

    def test_rotation_equivariance_objective(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            pts, _ = hemisphere_cloud(rng)
            R = random_rotation(rng)
            f1 = chebyshev_center(pts).min_inner_product
            f2 = chebyshev_center(pts @ R.T).min_inner_product
            assert abs(f1 - f2) <= 1e-9

    def test_accepts_surface_points(self):
        from manifold_landau.geometry import SurfacePoint
        cap = chebyshev_center([SurfacePoint([0, 0, 1.0]), SurfacePoint([0, 1.0, 0])])
        assert cap.min_inner_product == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def _unit_rows(P):
    return P / np.linalg.norm(P, axis=1)[:, None]


def _cap_cloud(rng, n, c, half_angle):
    d = rng.normal(size=(n, 3))
    d = _unit_rows(d - np.outer(d @ c, c))
    ang = half_angle * np.sqrt(rng.uniform(size=n))
    return np.cos(ang)[:, None] * c + np.sin(ang)[:, None] * d


def scipy_corpus(seed=2024, count=1000):
    """Seeded clouds of 1 to 4097 points: caps up to 1.1 times a
    hemisphere, great circles lifted off their plane by 1e-15, half
    circles (the hull's edge passes through the origin), clouds squeezed
    to 1e-3 of a hemisphere's edge, and uniform clouds."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(np.exp(rng.uniform(0.0, math.log(4097.0))))
        c = random_unit(rng)
        a = random_unit(rng)
        a = a - np.dot(a, c) * c
        a /= np.linalg.norm(a)
        b = np.cross(c, a)
        kind = ("cap", "lifted_circle", "half_circle", "edge", "uniform")[i % 5]
        if kind == "cap":
            P = _cap_cloud(rng, n, c, rng.uniform(0.01, 1.1 * math.pi / 2))
        elif kind == "lifted_circle":
            th = rng.uniform(0.0, 2 * math.pi, n)
            lift = rng.normal(scale=1e-15, size=n)
            P = _unit_rows(np.cos(th)[:, None] * a + np.sin(th)[:, None] * b + lift[:, None] * c)
        elif kind == "half_circle":
            th = np.concatenate([[0.0, math.pi], rng.uniform(0.0, math.pi, n)])[:max(n, 2)]
            P = np.cos(th)[:, None] * a + np.sin(th)[:, None] * b
        elif kind == "edge":
            P = rng.normal(size=(n, 3))
            P[:, 2] = np.abs(P[:, 2]) * 1e-3
            P = _unit_rows(P) @ np.column_stack([a, b, c]).T
        else:
            P = _unit_rows(rng.normal(size=(n, 3)))
        yield kind, P


def duality_gap(E, u):
    """|P^T u| / sum(u) - min_i <e, p_i> for E = [P^T; 1^T] and
    e = normalize(P^T u): the optimal objective lies in
    [objective, objective + gap]."""
    q = E[:3] @ u
    return float(np.linalg.norm(q) / u.sum() - (q / np.linalg.norm(q) @ E[:3]).min())


def scipy_reference(P, monkeypatch):
    """chebyshev_center with scipy's NNLS in place of the numpy loop, the
    system it solved and scipy's weights."""
    solves = []

    def scipy_nnls(E, f):
        solves.append((E, nnls(E, f)[0]))
        return solves[-1][1]

    with monkeypatch.context() as m:
        m.setattr(chebyshev, "_nnls", scipy_nnls)
        ref = chebyshev_center(P)
    return ref, *solves[0]


TETRAHEDRON = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                        [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / math.sqrt(3.0)


SPECIAL_CLOUDS = {
    "probe": probe_cloud,
    "dense": dense_cloud,
    "tetrahedron": lambda: TETRAHEDRON,
    "great_circle": lambda: curve_jets(counterexample_curve(), counterexample_window()).X,
    "point": lambda: np.array([[0.0, 0.0, 1.0]]),
    "antipodal_pair": lambda: np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
}


class TestAgainstScipyNnls:
    """The numpy Lawson-Hanson loop against scipy.optimize.nnls, which
    stays installed as the reference."""

    def assert_same(self, P, monkeypatch, edge=False):
        """Same warning, support and fallback center as scipy's; the
        certificate wherever scipy's holds, and the same objective to
        1e-12 where both hold. On clouds squeezed to a hemisphere's edge
        (`edge`) the objective is conditioned at about eps / objective,
        1e-11 at an objective of 1e-5, so either certificate may miss
        1e-12 by roundoff."""
        cap = chebyshev_center(P)
        ref, E, ref_u = scipy_reference(P, monkeypatch)
        assert cap.warning == ref.warning
        # scipy keeps weights of about 1e-16 on clouds whose hull has an
        # edge through the origin; the support leaves out weights below
        # 1e-14 of the largest
        assert cap.iterations == np.count_nonzero(ref_u > 1e-14 * ref_u.max())
        assert cap.converged or not ref.converged or edge
        if cap.warning is not None:
            np.testing.assert_array_equal(cap.e.coords, ref.e.coords)
            assert cap.converged == ref.converged
        elif cap.converged and ref.converged:
            assert abs(cap.min_inner_product - ref.min_inner_product) <= 1e-12
        else:
            # each objective is within its own duality gap of the optimum, up
            # to the objective's roundoff: e comes from a q of norm about the
            # objective, summed from unit vectors
            gap = duality_gap(E, chebyshev._nnls(E, chebyshev.LDP_RHS))
            ref_gap = duality_gap(E, ref_u)
            slack = 4 * np.finfo(float).eps / min(cap.min_inner_product, ref.min_inner_product)
            assert cap.min_inner_product <= ref.min_inner_product + ref_gap + slack
            assert ref.min_inner_product <= cap.min_inner_product + gap + slack
        return cap

    def test_corpus(self, monkeypatch):
        """Every feasible cloud converges, except those squeezed to 1e-3 of
        a hemisphere's edge: there neither solve certifies its gap, since
        the optimum's conditioning is about eps / objective."""
        feasible = 0
        for kind, P in scipy_corpus():
            cap = self.assert_same(P, monkeypatch, edge=kind == "edge")
            if cap.warning is None:
                feasible += 1
                assert cap.converged or kind == "edge"
        assert 200 <= feasible <= 800  # both outcomes are well represented

    @pytest.mark.parametrize("name", list(SPECIAL_CLOUDS))
    def test_special_clouds(self, name, monkeypatch):
        cap = self.assert_same(SPECIAL_CLOUDS[name](), monkeypatch)
        assert (cap.warning is None) == (name in ("probe", "dense", "point"))

    def test_dense_cloud_at_a_hemisphere_edge_stays_feasible(self, monkeypatch):
        """A tolerance that grows with the number of points (scipy's
        documented max(m, n) ||E||_1 eps) stops this 40001-point solve
        with w = 1.8e-11 left and reports no open hemisphere."""
        rng = np.random.default_rng(1)
        P = rng.normal(size=(40001, 3))
        P[:, 2] = np.abs(P[:, 2]) * 1e-3
        P = _unit_rows(P)
        cap = self.assert_same(P, monkeypatch, edge=True)
        assert cap.warning is None
        assert cap.min_inner_product >= float(P[:, 2].min())  # the pole's objective

    def test_near_antipodal_pairs_certify_as_often_as_scipy(self, monkeypatch):
        """Two points d short of antipodal have the objective sin(d / 2),
        conditioned at about eps / objective, so the 1e-12 certificate is
        often out of reach for d < 1e-2. With its final refinement step the
        numpy solve certifies at least as many pairs as scipy's."""
        rng = np.random.default_rng(0)
        missed = ref_missed = 0
        for _ in range(300):
            a = random_unit(rng)
            b = random_tangent_direction(rng, a)
            d = 10.0 ** rng.uniform(-6.0, -2.0)
            P = np.array([a, -math.cos(d) * a + math.sin(d) * b])
            cap = self.assert_same(P, monkeypatch, edge=True)
            missed += not cap.converged
            ref_missed += not scipy_reference(P, monkeypatch)[0].converged
        assert missed <= ref_missed

    def test_general_nnls_matches_scipy(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m, n = int(rng.integers(2, 7)), int(rng.integers(1, 40))
            E, f = rng.normal(size=(m, n)), rng.normal(size=m)
            u = chebyshev._nnls(E, f)
            assert u.min() >= 0.0
            assert abs(np.linalg.norm(E @ u - f) - nnls(E, f)[1]) <= 1e-12


class TestOracle:
    def test_latitude_cloud_level5(self):
        cap = chebyshev_grid_oracle(latitude_cloud(), 5)
        assert angular(cap.e.coords, POLE) <= 2e-2

    def test_single_point_refines_to_it(self):
        p = random_unit(np.random.default_rng(3))
        cap = chebyshev_grid_oracle(np.array([p]), 3)
        assert angular(cap.e.coords, p) <= 1e-5

    def test_random_cap_cloud_solver_matches_or_beats(self):
        rng = np.random.default_rng(40)
        pts = []
        while len(pts) < 20:
            p = random_unit(rng)
            if p[2] > 0.5:
                pts.append(p)
        pts = np.asarray(pts)
        sol = chebyshev_center(pts)
        ora = chebyshev_grid_oracle(pts, 5)
        assert ora.min_inner_product <= sol.min_inner_product + 1e-6

    def test_solver_vs_oracle_mini_corpus(self):
        rng = np.random.default_rng(77)
        clouds = [(hemisphere_cloud(rng)[0], 4) for _ in range(30)]
        clouds += [(probe_cloud(), 5), (dense_cloud(), 5)]
        for pts, level in clouds:
            sol = chebyshev_center(pts)
            ora = chebyshev_grid_oracle(pts, level)
            assert sol.min_inner_product >= ora.min_inner_product - 1e-6
            assert sol.converged


class TestIcosphere:
    def test_vertex_counts(self):
        for level in range(5):
            assert len(icosphere(level)) == 10 * 4 ** level + 2

    def test_unit_norm_and_distinct(self):
        V = icosphere(2)
        assert np.abs(np.linalg.norm(V, axis=1) - 1.0).max() <= 1e-12
        d = V @ V.T
        np.fill_diagonal(d, 0.0)
        assert d.max() < 1.0 - 1e-12  # no duplicated vertices

    def test_icosahedron(self):
        V = icosahedron_vertices()
        assert V.shape == (12, 3)
        # every vertex has exactly 5 nearest neighbours at the edge distance
        gram = V @ V.T
        edge_cos = 1.0 / math.sqrt(5.0)
        for i in range(12):
            close = np.isclose(gram[i], edge_cos, atol=1e-12).sum()
            assert close == 5

    def test_negative_level_rejected(self):
        with pytest.raises(InvalidInputError):
            icosphere(-1)

    def test_faces_are_the_edge_adjacent_triples(self):
        adjacent = np.isclose(icosahedron_vertices() @ icosahedron_vertices().T,
                              1.0 / math.sqrt(5.0), atol=1e-12)
        triples = {frozenset((i, j, k)) for i in range(12) for j in range(i) for k in range(j)
                   if adjacent[i, j] and adjacent[j, k] and adjacent[i, k]}
        assert len(ICOSAHEDRON_FACES) == 20
        assert {frozenset(f) for f in ICOSAHEDRON_FACES} == triples

    def test_faces_and_level_5_match_the_convex_hull(self, monkeypatch):
        """The table keeps ConvexHull's face order and orientation, so the
        level-5 vertex order, and with it the oracle's tie-breaking, is
        bit-identical to an icosphere built from the hull."""
        hull = [tuple(f) for f in ConvexHull(icosahedron_vertices()).simplices]
        assert list(ICOSAHEDRON_FACES) == [tuple(map(int, f)) for f in hull]
        V = icosphere(5)
        monkeypatch.setattr(chebyshev, "ICOSAHEDRON_FACES", hull)
        ref = icosphere.__wrapped__(5)  # past the cache
        assert V.shape == ref.shape and V.tobytes() == ref.tobytes()
