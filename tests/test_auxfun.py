import math

import numpy as np
import pytest

from helpers import random_tangent_direction, random_unit, second_difference
from manifold_landau.auxfun import (
    ChordalHalfSquare,
    EuclideanQuadratic,
    IntrinsicHalfSquare,
    aux_value,
    hessian_quadratic,
    hessian_quadratic_fd,
    lambda_min,
    riemannian_gradient,
)
from manifold_landau.curves import GreatCircle, Latitude, LinearPhase, TimeWindow
from manifold_landau.errors import InvalidInputError, NumericFailureError, SingularityError
from manifold_landau.geometry import SurfacePoint, TangentVector, geodesic, project_tangent

SQ2 = math.sqrt(2.0) / 2.0
POLE = SurfacePoint([0.0, 0.0, 1.0])


def _intrinsic_form(x, w):
    """<Hess U w, w> for U = d(e, x)^2 / 2 with e the pole: eigenvalue 1 on
    the radial direction toward e and d cot d on the normal x cross e."""
    d = math.acos(np.clip(np.dot(POLE.coords, x), -1.0, 1.0))
    radial = POLE.coords - np.dot(POLE.coords, x) * x
    normal = np.cross(x, POLE.coords)
    a = np.dot(w, radial) / np.linalg.norm(radial)
    b = np.dot(w, normal) / np.linalg.norm(normal)
    return float(a * a + d / math.tan(d) * b * b)


def _fd_direction_oracle(U, X, directions=64, h=1e-4):
    """min over rows x of the smallest eigenvalue of the tangent Hessian,
    fitted by least squares to Richardson second differences of U along
    64 unit tangent directions cos(a) u + sin(a) v at x."""
    angles = np.linspace(0.0, math.pi, directions, endpoint=False)
    axis = np.eye(3)[np.argmin(np.abs(X), axis=1)]  # the least aligned coordinate axis
    u = axis - np.einsum("ni,ni->n", axis, X)[:, None] * X
    u /= np.linalg.norm(u, axis=1)[:, None]
    v = np.cross(X, u)
    dirs = (np.cos(angles)[None, :, None] * u[:, None, :]
            + np.sin(angles)[None, :, None] * v[:, None, :])  # (rows, angles, 3)

    def second_diff(step):
        on = np.broadcast_to(X[:, None, :], dirs.shape)
        up = U.value_batch((math.cos(step) * on + math.sin(step) * dirs).reshape(-1, 3))
        dn = U.value_batch((math.cos(step) * on - math.sin(step) * dirs).reshape(-1, 3))
        mid = np.repeat(U.value_batch(X), directions)
        return ((up - 2.0 * mid + dn) / (step * step)).reshape(len(X), directions)

    q = (4.0 * second_diff(h / 2.0) - second_diff(h)) / 3.0
    # q(a) = A cos^2 a + 2 B cos a sin a + C sin^2 a
    design = np.column_stack([np.cos(angles) ** 2, 2.0 * np.cos(angles) * np.sin(angles),
                              np.sin(angles) ** 2])
    A, B, C = np.linalg.lstsq(design, q.T, rcond=None)[0]
    return float((0.5 * (A + C) - np.sqrt(0.25 * (A - C) ** 2 + B * B)).min())


class TestValues:
    def test_chordal_at_center(self):
        assert aux_value(ChordalHalfSquare(POLE), POLE) == 0.0

    def test_chordal_at_equator(self):
        assert aux_value(ChordalHalfSquare(POLE), SurfacePoint([1.0, 0, 0])) == \
            pytest.approx(1.0, abs=1e-15)

    def test_intrinsic_at_equator(self):
        assert aux_value(IntrinsicHalfSquare(POLE), SurfacePoint([1.0, 0, 0])) == \
            pytest.approx(math.pi ** 2 / 8, abs=1e-15)

    def test_euclidean(self):
        U = EuclideanQuadratic(np.array([1.0, 0.0]))
        assert U.value(np.array([3.0, 0.0])) == pytest.approx(2.0)


class TestGradient:
    def test_critical_point(self):
        g = riemannian_gradient(ChordalHalfSquare(POLE), POLE)
        assert np.linalg.norm(g.vec) == 0.0

    def test_equator_value(self):
        g = riemannian_gradient(ChordalHalfSquare(POLE), SurfacePoint([1.0, 0, 0]))
        np.testing.assert_allclose(g.vec, [0, 0, -1.0], atol=1e-15)
        assert abs(np.linalg.norm(g.vec) - 1.0) < 1e-15

    def test_mid_latitude_value(self):
        g = riemannian_gradient(ChordalHalfSquare(POLE), SurfacePoint([SQ2, 0, SQ2]))
        np.testing.assert_allclose(g.vec, [0.5, 0, -0.5], atol=1e-15)
        assert abs(np.linalg.norm(g.vec) - SQ2) < 1e-15

    def test_norm_identity_random(self):
        rng = np.random.default_rng(21)
        U = ChordalHalfSquare(POLE)
        for _ in range(300):
            x = random_unit(rng)
            g = riemannian_gradient(U, SurfacePoint(x))
            lhs = float(np.dot(g.vec, g.vec))
            rhs = 1.0 - float(np.dot(POLE.coords, x)) ** 2
            assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("make_aux", [
        lambda e: ChordalHalfSquare(e),
        lambda e: IntrinsicHalfSquare(e),
    ])
    def test_fd_agreement_along_geodesics(self, make_aux):
        rng = np.random.default_rng(33)
        U = make_aux(POLE)
        h = 1e-5
        for _ in range(100):
            x = random_unit(rng)
            if np.dot(x, POLE.coords) < -0.9:  # stay away from the antipode
                continue
            p = SurfacePoint(x)
            w = random_tangent_direction(rng, p.coords)
            y = project_tangent(p, w)
            up = aux_value(U, geodesic(p, y, h))
            dn = aux_value(U, geodesic(p, y, -h))
            fd = (up - dn) / (2 * h)
            assert abs(fd - np.dot(riemannian_gradient(U, p).vec, y.vec)) <= 1e-6

    def test_intrinsic_gradient_norm_is_distance(self):
        rng = np.random.default_rng(8)
        U = IntrinsicHalfSquare(POLE)
        for _ in range(50):
            x = random_unit(rng)
            if np.dot(x, POLE.coords) < -0.9:
                continue
            g = riemannian_gradient(U, SurfacePoint(x))
            dist = math.acos(np.clip(np.dot(x, POLE.coords), -1, 1))
            assert abs(np.linalg.norm(g.vec) - dist) <= 1e-12

    def test_intrinsic_gradient_batch_matches_scalar(self):
        rng = np.random.default_rng(17)
        U = IntrinsicHalfSquare(POLE)
        X = np.vstack([[random_unit(rng) for _ in range(1000)], POLE.coords])
        G = U.gradient_batch(X)
        np.testing.assert_allclose(G, [U.gradient(x) for x in X], rtol=0.0, atol=1e-15)
        assert np.array_equal(G[-1], np.zeros(3)) and not np.signbit(G[-1]).any()

    def test_intrinsic_antipode_singularity(self):
        with pytest.raises(SingularityError):
            riemannian_gradient(IntrinsicHalfSquare(POLE), SurfacePoint([0, 0, -1.0]))

    def test_gradient_is_tangent(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = random_unit(rng)
            g = riemannian_gradient(ChordalHalfSquare(POLE), SurfacePoint(x))
            assert abs(np.dot(g.vec, x)) <= 1e-9


class TestHessianQuadratic:
    def test_at_center_unit_direction(self):
        y = TangentVector(POLE, [1.0, 0, 0])
        assert hessian_quadratic(ChordalHalfSquare(POLE), POLE, y) == \
            pytest.approx(1.0, abs=1e-12)

    def test_mid_latitude(self):
        x = SurfacePoint([SQ2, 0, SQ2])
        y = project_tangent(x, [0, 1.0, 0])
        assert hessian_quadratic(ChordalHalfSquare(POLE), x, y) == \
            pytest.approx(SQ2, abs=1e-12)

    def test_equator_scaled_direction(self):
        x = SurfacePoint([1.0, 0, 0])
        y = TangentVector(x, [0, 2.0, 0])
        assert hessian_quadratic(ChordalHalfSquare(POLE), x, y) == \
            pytest.approx(0.0, abs=1e-12)

    def test_closed_form_vs_second_difference_corpus(self):
        def chordal_form(x, w):
            return float(np.dot(POLE.coords, x)) * float(np.dot(w, w))

        # (U, its form, lowest <e, x> sampled, error relative to max(1, |form|))
        cases = ((ChordalHalfSquare(POLE), chordal_form, -1.0, False),
                 # hessian_quadratic's own tolerance, away from the antipode
                 (IntrinsicHalfSquare(POLE), _intrinsic_form, -0.5, True))
        for U, closed_form, lowest, relative in cases:
            rng = np.random.default_rng(55)
            worst = 0.0
            checked = 0
            for _ in range(1000):
                x = random_unit(rng)
                w = rng.uniform(0.3, 2.0) * random_tangent_direction(rng, x)
                if np.dot(POLE.coords, x) < lowest:
                    continue
                closed = closed_form(x, w)
                assert abs(U.hessian_closed_form(x, w) - closed) <= 1e-14 * max(1.0, abs(closed))
                err = abs(closed - hessian_quadratic_fd(U, x, w))
                worst = max(worst, err / max(1.0, abs(closed)) if relative else err)
                checked += 1
            assert checked >= 700, U.kind
            assert worst <= 1e-6, U.kind

    @pytest.mark.parametrize("seed", [55, 1, 2, 3, 4])
    def test_roundoff_room_without_hiding_a_wrong_closed_form(self, seed, monkeypatch):
        # far from e the second difference carries roundoff ~ eps U(x) / h^2,
        # which a bare 1e-6 check mistook for disagreement
        rng = np.random.default_rng(seed)
        points = []
        for _ in range(1000):
            x = random_unit(rng)
            w = rng.uniform(0.3, 2.0) * random_tangent_direction(rng, x)
            if np.dot(POLE.coords, x) >= -0.9:
                points.append((x, w))
        assert len(points) >= 900
        kinds = (IntrinsicHalfSquare, ChordalHalfSquare)
        for cls in kinds:
            for x, w in points:
                hessian_quadratic(cls(POLE), x, w)
        for cls in kinds:
            def off(U, x, y, exact=cls.hessian_closed_form):
                v = exact(U, x, y)
                return v + 1e-4 * max(1.0, abs(v))

            monkeypatch.setattr(cls, "hessian_closed_form", off)
            for x, w in points:
                with pytest.raises(NumericFailureError):
                    hessian_quadratic(cls(POLE), x, w)

    def test_homogeneity_closed_form(self):
        rng = np.random.default_rng(3)
        U = ChordalHalfSquare(POLE)
        for _ in range(50):
            x = random_unit(rng)
            p = SurfacePoint(x)
            w = random_tangent_direction(rng, x)
            c = rng.uniform(0.1, 3.0)
            y1 = project_tangent(p, w)
            y2 = project_tangent(p, c * w)
            v1 = hessian_quadratic(U, p, y1)
            v2 = hessian_quadratic(U, p, y2)
            assert abs(v2 - c * c * v1) <= 1e-10 * max(1.0, abs(v2))

    def test_homogeneity_numeric_intrinsic(self):
        rng = np.random.default_rng(4)
        U = IntrinsicHalfSquare(POLE)
        x = random_unit(rng)
        while np.dot(x, POLE.coords) < -0.5:
            x = random_unit(rng)
        w = random_tangent_direction(rng, x)
        v1 = hessian_quadratic(U, SurfacePoint(x), project_tangent(SurfacePoint(x), w))
        v2 = hessian_quadratic(U, SurfacePoint(x),
                               project_tangent(SurfacePoint(x), 2.0 * w))
        assert abs(v2 - 4.0 * v1) <= 1e-10 * max(1.0, abs(v2))

    def test_plain_second_difference_oracle(self):
        # independent of the library's Richardson version
        U = ChordalHalfSquare(POLE)
        x = np.array([SQ2, 0.0, SQ2])
        w = np.array([0.0, 1.0, 0.0])

        def along(t):
            g = math.cos(t) * x + math.sin(t) * w
            return U.value(g)

        fd = second_difference(along, 0.0, 1e-4)
        assert abs(fd - SQ2) <= 1e-6

    def test_euclidean_quadratic_form(self):
        U = EuclideanQuadratic(np.zeros(2))
        assert hessian_quadratic(U, np.array([5.0, 1.0]), np.array([0.0, 3.0])) == \
            pytest.approx(9.0, abs=1e-6)


class TestLambdaMin:
    def window(self):
        return TimeWindow(0.0, 2 * math.pi, 257)

    def test_latitude_closed_form(self):
        est = lambda_min(ChordalHalfSquare(POLE), Latitude(math.pi / 4, LinearPhase(1.0)),
                         self.window())
        assert est.method == "closed_form"
        assert abs(est.value - math.cos(math.pi / 4)) <= 1e-9

    def test_polar_great_circle_reaches_antipode(self):
        curve = GreatCircle([0, 0, 1.0], [1.0, 0, 0], LinearPhase(1.0))
        est = lambda_min(ChordalHalfSquare(POLE), curve, self.window())
        assert abs(est.value - (-1.0)) <= 1e-9

    def test_constant_curve_at_center(self):
        curve = GreatCircle([0, 0, 1.0], [1.0, 0, 0], LinearPhase(0.0))
        est = lambda_min(ChordalHalfSquare(POLE), curve, self.window())
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_euclidean_quadratic_lambda_is_one(self):
        from manifold_landau.curves import EuclideanAnalytic, SinusoidalPhase
        f = EuclideanAnalytic(((SinusoidalPhase(1.0, 1.0),),))
        est = lambda_min(EuclideanQuadratic(np.zeros(1)), f, self.window())
        assert est.value == 1.0 and est.method == "closed_form"

    def test_intrinsic_closed_form_lambda(self):
        # on a latitude circle at colatitude c the worst unit direction gives
        # c * cot(c): second derivative of arccos^2/2 along the transverse
        # geodesic, derivable by hand from U(g(t)) = arccos(cos c cos t)^2 / 2
        # (Hessian comparison on constant curvature: eigenvalues 1 and d cot d)
        U = IntrinsicHalfSquare(POLE)
        for c in (math.pi / 4, 0.3, 0.7, 1.2, 2.0):
            curve = Latitude(c, LinearPhase(1.0))
            window = TimeWindow(0.0, 2 * math.pi, 65)
            est = lambda_min(U, curve, window)
            assert est.method == "closed_form"
            assert abs(est.value - c / math.tan(c)) <= 1e-12, c
            X, _, _ = curve.batch(window.grid())
            assert abs(est.value - _fd_direction_oracle(U, X)) <= 1e-6, c

    def test_value_not_above_sampled_directions(self):
        U = IntrinsicHalfSquare(POLE)
        curve = Latitude(0.6, LinearPhase(1.0))
        window = TimeWindow(0.0, 2 * math.pi, 33)
        est = lambda_min(U, curve, window)
        rng = np.random.default_rng(2)
        X, _, _ = curve.batch(window.grid())
        for _ in range(200):
            x = X[rng.integers(0, len(X))]
            w = random_tangent_direction(rng, x)
            assert est.value <= hessian_quadratic_fd(U, x, w) + 1e-8

    def test_argmin_direction_is_tangent(self):
        est = lambda_min(IntrinsicHalfSquare(POLE), Latitude(0.7, LinearPhase(1.0)),
                         TimeWindow(0.0, 2 * math.pi, 33))
        d = est.argmin_direction
        assert abs(np.dot(d.vec, d.base.coords)) <= 1e-9
        assert abs(np.linalg.norm(d.vec) - 1.0) <= 1e-12
        assert abs(hessian_quadratic(IntrinsicHalfSquare(POLE), d.base, d) - est.value) <= 1e-6

    def test_chordal_lambda_is_the_grid_scan_of_inner_products(self):
        # same code path as scanning <e, x(t)> directly
        from manifold_landau.curves import Quantity, SinusoidalPhase, scan_extremum
        curve = Latitude(0.8, SinusoidalPhase(1.1, 2.0, drift=0.3))
        window = TimeWindow(0.0, 5.0, 257)
        est = lambda_min(ChordalHalfSquare(POLE), curve, window)
        direct, = scan_extremum(
            curve, window, [Quantity(lambda ts, X, Xd, Xdd: X @ POLE.coords, mode="min")])
        assert est.value == direct.value
        X, _, _ = curve.batch(window.grid())
        assert est.value <= float((X @ POLE.coords).min()) + 1e-15


def test_manifold_mismatch_guard():
    from manifold_landau.inequality import manifold_bound_report
    f = Latitude(0.5, LinearPhase(1.0))
    with pytest.raises(InvalidInputError):
        manifold_bound_report(f, EuclideanQuadratic(np.zeros(3)))
