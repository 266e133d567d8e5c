import math

import numpy as np
import pytest

from helpers import hemisphere_cloud, random_rotation, random_unit
from manifold_landau.chebyshev import (
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
    default_window,
)
from manifold_landau.errors import InvalidInputError, OffManifoldError
from manifold_landau.inequality import build_curve

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
