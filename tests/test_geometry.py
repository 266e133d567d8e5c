import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd6_first, fd6_second, random_tangent_direction, random_unit
from manifold_landau.errors import (
    InvalidCurveError,
    InvalidInputError,
    OffManifoldError,
    TangencyError,
)
from manifold_landau.geometry import (
    Manifold,
    SurfacePoint,
    TangentVector,
    covariant_accel,
    covariant_accel_ode,
    geodesic,
    project_tangent,
    tangent_frame,
)

SQ2 = math.sqrt(2.0) / 2.0


class TestSurfacePoint:
    def test_accepts_unit(self):
        p = SurfacePoint([0.0, 0.0, 1.0])
        assert not p.renormalized

    def test_renormalizes_small_drift(self):
        p = SurfacePoint([0.0, 0.0, 1.0 + 1e-7])
        assert p.renormalized
        assert abs(np.linalg.norm(p.coords) - 1.0) < 1e-15

    def test_rejects_large_drift(self):
        with pytest.raises(OffManifoldError):
            SurfacePoint([0.0, 0.0, 1.01])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            SurfacePoint([np.nan, 0.0, 1.0])

    def test_rejects_overflowing_norm_without_warning(self):
        # a numpy RuntimeWarning fails the test (pyproject filterwarnings)
        with pytest.raises(OffManifoldError, match="norm inf"):
            SurfacePoint([1e200, 0.0, 0.0])


class TestProjectTangent:
    def test_already_tangent(self):
        out = project_tangent(SurfacePoint([0, 0, 1.0]), [1.0, 0, 0])
        np.testing.assert_allclose(out.vec, [1, 0, 0], atol=1e-15)

    def test_purely_radial(self):
        out = project_tangent(SurfacePoint([0, 0, 1.0]), [0, 0, 5.0])
        np.testing.assert_allclose(out.vec, [0, 0, 0], atol=1e-15)

    def test_linearity(self):
        out = project_tangent(SurfacePoint([0, 0, 1.0]), [1.0, 0, 1.0])
        np.testing.assert_allclose(out.vec, [1, 0, 0], atol=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            project_tangent(SurfacePoint([0, 0, 1.0]), [np.inf, 0, 0])

    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
           st.integers(0, 999))
    @settings(max_examples=200, deadline=None)
    def test_result_tangent_and_idempotent(self, v, seed):
        x = random_unit(np.random.default_rng(seed))
        p = SurfacePoint(x)
        out = project_tangent(p, v)
        assert abs(np.dot(out.vec, x)) <= 1e-9
        again = project_tangent(p, out.vec)
        np.testing.assert_allclose(again.vec, out.vec, atol=1e-12)


class TestCovariantAccel:
    def test_great_circle_is_geodesic(self):
        out = covariant_accel(SurfacePoint([1.0, 0, 0]), [0, 1.0, 0], [-1.0, 0, 0])
        assert np.linalg.norm(out.vec) < 1e-15

    def test_latitude_circle_norm(self):
        # colatitude pi/4, unit angular speed, t = 0
        th = math.pi / 4
        x = np.array([math.sin(th), 0.0, math.cos(th)])
        xdot = np.array([0.0, math.sin(th), 0.0])
        xddot = np.array([-math.sin(th), 0.0, 0.0])
        out = covariant_accel(SurfacePoint(x), xdot, xddot)
        assert abs(np.linalg.norm(out.vec) - math.sin(th) * math.cos(th)) < 1e-12
        assert abs(np.linalg.norm(out.vec) - 0.5) < 1e-12
        # derivative oracle: differentiate the parametrization numerically
        def pos(t):
            return np.array([math.sin(th) * math.cos(t),
                             math.sin(th) * math.sin(t),
                             math.cos(th)])
        fd_out = covariant_accel(SurfacePoint(pos(0.0)), fd6_first(pos, 0.0),
                                 fd6_second(pos, 0.0))
        np.testing.assert_allclose(fd_out.vec, out.vec, atol=1e-8)

    def test_quadratic_phase_norm(self):
        # great circle with phase t^2/2: covariant acceleration norm is |theta''| = 1
        a = np.array([1.0, 0, 0])
        b = np.array([0, 1.0, 0])
        for t in (0.0, 0.8, 2.3):
            th, d1, d2 = t * t / 2, t, 1.0
            x = math.cos(th) * a + math.sin(th) * b
            w = -math.sin(th) * a + math.cos(th) * b
            out = covariant_accel(SurfacePoint(x), d1 * w, d2 * w - d1 * d1 * x)
            assert abs(np.linalg.norm(out.vec) - 1.0) < 1e-12

    def test_tangency_violation_raises(self):
        with pytest.raises(InvalidCurveError):
            covariant_accel(SurfacePoint([0, 0, 1.0]), [0, 1.0, 0.1], [0, 0, 0])

    def test_result_tangent_and_matches_ode_form(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            # genuine curve jet: random great circle with random phase jet
            a = random_unit(rng)
            b = random_tangent_direction(rng, a)
            th, d1, d2 = rng.normal(), rng.normal(), rng.normal()
            x = math.cos(th) * a + math.sin(th) * b
            w = -math.sin(th) * a + math.cos(th) * b
            xdot = d1 * w
            xddot = d2 * w - d1 * d1 * x
            p = SurfacePoint(x)
            out = covariant_accel(p, xdot, xddot)
            assert abs(np.dot(out.vec, x)) <= 1e-9
            np.testing.assert_allclose(out.vec, covariant_accel_ode(p, xdot, xddot),
                                       atol=1e-9)


class TestGeodesic:
    def test_quarter_circle(self):
        x0 = SurfacePoint([1.0, 0, 0])
        y = TangentVector(x0, [0, 1.0, 0])
        np.testing.assert_allclose(geodesic(x0, y, math.pi / 2).coords, [0, 1, 0],
                                   atol=1e-15)

    def test_zero_velocity(self):
        x0 = SurfacePoint([1.0, 0, 0])
        y = TangentVector(x0, [0, 0, 0])
        np.testing.assert_allclose(geodesic(x0, y, 7.3).coords, [1, 0, 0], atol=0)

    def test_speed_two_reparametrization(self):
        x0 = SurfacePoint([1.0, 0, 0])
        y = TangentVector(x0, [0, 2.0, 0])
        np.testing.assert_allclose(geodesic(x0, y, math.pi / 4).coords, [0, 1, 0],
                                   atol=1e-15)

    def test_initial_conditions_fd(self):
        rng = np.random.default_rng(11)
        x = random_unit(rng)
        x0 = SurfacePoint(x)
        y = TangentVector(x0, 1.3 * random_tangent_direction(rng, x))
        np.testing.assert_allclose(geodesic(x0, y, 0.0).coords, x, atol=0)
        vel = fd6_first(lambda t: geodesic(x0, y, t).coords, 0.0, h=1e-3)
        np.testing.assert_allclose(vel, y.vec, atol=1e-10)

    def test_unit_norm_far_out(self):
        rng = np.random.default_rng(2)
        x = random_unit(rng)
        x0 = SurfacePoint(x)
        y = TangentVector(x0, 2.0 * random_tangent_direction(rng, x))
        for t in np.linspace(-50.0, 50.0, 23):  # |t| |y| <= 100
            g = geodesic(x0, y, float(t))
            assert abs(np.linalg.norm(g.coords) - 1.0) <= 1e-12

    def test_zero_covariant_acceleration_fd6(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = random_unit(rng)
            x0 = SurfacePoint(x)
            speed = rng.uniform(0.2, 2.0)
            y = TangentVector(x0, speed * random_tangent_direction(rng, x))
            t = float(rng.uniform(-2, 2))

            def pos(s):
                return geodesic(x0, y, s).coords

            xdot = fd6_first(pos, t, h=1e-3)
            xddot = fd6_second(pos, t, h=1e-3)
            out = covariant_accel(SurfacePoint(pos(t)), xdot, xddot)
            assert np.linalg.norm(out.vec) <= 1e-6


class TestTangentVector:
    def test_rejects_radial_component(self):
        with pytest.raises(TangencyError):
            TangentVector(SurfacePoint([0, 0, 1.0]), [0, 0, 1e-6])

    def test_norm(self):
        y = TangentVector(SurfacePoint([0, 0, 1.0]), [3.0, 4.0, 0])
        assert y.norm == 5.0


class TestEuclideanBranch:
    def test_covariant_accel_is_second_derivative(self):
        man = Manifold.euclidean(2)
        out = man.covariant_accel_array(np.array([[1.0, 2.0], [0.5, 0.0]]),
                                        np.array([[3.0, -1.0], [0.0, 4.0]]))
        np.testing.assert_array_equal(out, [[3.0, -1.0], [0.0, 4.0]])

    def test_geodesic_is_straight_line(self):
        man = Manifold.euclidean(2)
        out = man.geodesic_array(np.array([1.0, 0.0]), np.array([0.0, 2.0]), 1.5)
        np.testing.assert_allclose(out, [1.0, 3.0])

    def test_dimension_validated(self):
        with pytest.raises(InvalidInputError):
            Manifold.euclidean(0)


def test_tangent_frame_orthonormal():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = random_unit(rng)
        u, v = tangent_frame(x)
        for w in (u, v):
            assert abs(np.linalg.norm(w) - 1.0) < 1e-12
            assert abs(np.dot(w, x)) < 1e-12
        assert abs(np.dot(u, v)) < 1e-12
