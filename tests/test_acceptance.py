"""Acceptance suite: every criterion at its stated tolerance, one
printed PASS/FAIL line per criterion (run with `pytest -s` to see the
lines as they complete). The whole module is sized to finish on a
laptop in well under two minutes."""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import fd6_first, fd6_second, hemisphere_cloud, random_tangent_direction, random_unit
from manifold_landau.auxfun import ChordalHalfSquare, hessian_quadratic, lambda_min
from manifold_landau.chebyshev import chebyshev_center, chebyshev_grid_oracle
from manifold_landau.curves import (
    EuclideanAnalytic,
    Latitude,
    LinearPhase,
    SinusoidalPhase,
    TimeWindow,
    default_window,
)
from manifold_landau.geometry import SurfacePoint, TangentVector, covariant_accel, geodesic, project_tangent
from manifold_landau.inequality import (
    PROBE_FAMILIES,
    build_curve,
    classical_landau_check,
    counterexample_report,
    landau_constant,
    manifold_bound_report,
    proof_diagnostics,
    sample_params,
    sharpness_probe,
    sphere_bound_report,
)

POLE = SurfacePoint([0.0, 0.0, 1.0])


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number} PASS  {description}")


def test_criterion_1_constant():
    with criterion(1, "constant C: value, defining cubic, trig identity"):
        lc = landau_constant()
        assert abs(lc.C - 1.87939) <= 1e-5
        assert abs(lc.C ** 3 - 3 * lc.C - 1) <= 1e-12
        assert abs(lc.C - 2 * math.cos(math.pi / 9)) <= 1e-12


def test_criterion_2_latitude_closed_forms():
    with criterion(2, "latitude family reproduces sin/sin*cos/cos and slack 1/C^2"):
        C = landau_constant().C
        for th in (math.pi / 6, math.pi / 4, math.pi / 3):
            rep = manifold_bound_report(Latitude(th, LinearPhase(1.0)),
                                        ChordalHalfSquare(POLE))
            assert abs(rep.r0.value - math.sin(th)) <= 1e-8
            assert abs(rep.r2.value - math.sin(th) * math.cos(th)) <= 1e-8
            assert abs(rep.lam.value - math.cos(th)) <= 1e-8
            assert abs(rep.slack_ratio - 1.0 / C ** 2) <= 1e-6
            assert rep.hypotheses_ok and rep.satisfied


def test_criterion_3_sphere_formulas():
    with criterion(3, "gradient norm identity (1e-10) and Hessian vs fd oracle (1e-6), 1000 random"):
        rng = np.random.default_rng(1003)
        for _ in range(1000):
            e = SurfacePoint(random_unit(rng))
            U = ChordalHalfSquare(e)
            x = random_unit(rng)
            p = SurfacePoint(x)
            g = U.gradient(x)
            assert abs(float(np.dot(g, g)) - (1.0 - float(np.dot(e.coords, x)) ** 2)) <= 1e-10
            w = random_tangent_direction(rng, x)
            y = project_tangent(p, w / np.linalg.norm(w))
            closed = hessian_quadratic(U, p, y)
            assert abs(closed - float(np.dot(e.coords, x))) <= 1e-12
            # independent plain second difference along the geodesic
            h = 1e-4
            up = U.value(math.cos(h) * x + math.sin(h) * y.vec)
            mid = U.value(x)
            dn = U.value(math.cos(h) * x - math.sin(h) * y.vec)
            fd = (up - 2 * mid + dn) / (h * h)
            assert abs(closed - fd) <= 1e-6


def test_criterion_4_geodesic_nullity():
    with criterion(4, "covariant acceleration of 100 random geodesics <= 1e-6"):
        rng = np.random.default_rng(4004)
        for _ in range(100):
            x = random_unit(rng)
            x0 = SurfacePoint(x)
            speed = rng.uniform(0.2, 2.0)
            y = TangentVector(x0, speed * random_tangent_direction(rng, x))
            t = float(rng.uniform(-2.0, 2.0))

            def pos(s):
                return geodesic(x0, y, s).coords

            out = covariant_accel(SurfacePoint(pos(t)), fd6_first(pos, t, h=1e-3),
                                  fd6_second(pos, t, h=1e-3))
            assert np.linalg.norm(out.vec) <= 1e-6


def test_criterion_5_counterexample():
    with criterion(5, "counterexample: sup speed = T, r2 = 1, lambda <= 0 for T >= 2 pi"):
        for T in (10.0, 50.0, 200.0):
            rep = counterexample_report(T=T)
            assert abs(rep.speed.value - T) <= 1e-4 * T
            assert abs(rep.r2.value - 1.0) <= 1e-9
            assert rep.lam.value <= 0.0
            assert not rep.hypotheses_ok


def test_criterion_6_chebyshev_solver():
    with criterion(6, "cap solver certified, >= icosphere(5) oracle - 1e-6 on 200 clouds; "
                      "pole recovery"):
        rng = np.random.default_rng(6006)
        for _ in range(200):
            pts, _ = hemisphere_cloud(rng)
            sol = chebyshev_center(pts)
            ora = chebyshev_grid_oracle(pts, 5)
            assert sol.min_inner_product >= ora.min_inner_product - 1e-6
            assert sol.converged
        ts = np.linspace(0.0, 2 * math.pi, 65)[:-1]
        cloud = Latitude(math.pi / 4, LinearPhase(1.0)).batch(ts)[0]
        cap = chebyshev_center(cloud)
        assert math.acos(np.clip(np.dot(cap.e.coords, POLE.coords), -1, 1)) <= 1e-4


def test_criterion_7_soundness_corpus():
    with criterion(7, "500 hypothesis-satisfying curves: bound holds, diagnostics all true"):
        rng = np.random.default_rng(42)
        kept = 0
        violations = 0
        while kept < 500:
            family = PROBE_FAMILIES[int(rng.integers(0, len(PROBE_FAMILIES)))]
            curve = build_curve(family, sample_params(family, rng))
            rep = sphere_bound_report(curve, default_window(curve, samples=385))
            if not rep.hypotheses_ok:
                continue
            kept += 1
            if not rep.lhs <= rep.rhs * (1 + 1e-6):
                violations += 1
            diag = proof_diagnostics(curve, ChordalHalfSquare(rep.cap.e), report=rep)
            assert diag.v_bound_ok and diag.speed_lipschitz_ok and diag.chain_ok, family
        assert violations == 0


def test_criterion_8_classical_sine():
    with criterion(8, "classical |f'|^2 <= 2|f||f''| for sin t with slack 0.5"):
        rep = classical_landau_check(EuclideanAnalytic(((SinusoidalPhase(1.0, 1.0),),)))
        assert rep.satisfied
        assert abs(rep.slack_ratio - 0.5) <= 1e-9


def test_criterion_9_sharpness_probe():
    with criterion(9, "probe: latitude sweep Q = 1; 500 compounds stay under C^2"):
        C2 = landau_constant().C ** 2
        lat = sharpness_probe("latitude", budget=40, seed=42)
        assert abs(lat.best_q - 1.0) <= 1e-9
        comp = sharpness_probe("compound", budget=500, seed=42)
        assert comp.best_q <= C2 * (1 + 1e-6)
        print(f"           probe best Q over compounds: {comp.best_q:.6f} "
              f"(ceiling C^2 = {C2:.6f}, sqrt(Q) = {comp.best_sqrt_q:.6f})")
