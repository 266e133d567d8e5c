import math
import pickle
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import minimize

from manifold_landau import inequality
from manifold_landau.auxfun import (
    ChordalHalfSquare,
    EuclideanQuadratic,
    IntrinsicHalfSquare,
    lambda_min,
)
from manifold_landau.curves import (
    CurveStack,
    EuclideanAnalytic,
    GreatCircle,
    Latitude,
    LinearPhase,
    QuadraticPhase,
    RotatingFrame,
    SinusoidalPhase,
    SphericalCompound,
    TimeWindow,
    curve_jets,
    default_window,
    load_sampled,
    sup_norm,
)
from manifold_landau.errors import HypothesisViolationError, InvalidInputError
from manifold_landau.geometry import SurfacePoint
from manifold_landau.inequality import (
    PROBE_FAMILIES,
    build_curve,
    classical_landau_check,
    counterexample_curve,
    counterexample_report,
    landau_constant,
    manifold_bound_report,
    probe_q,
    probe_qs,
    proof_diagnostics,
    sample_params,
    sharpness_probe,
    sphere_bound_report,
    sphere_bound_reports,
)

POLE = SurfacePoint([0.0, 0.0, 1.0])
C = landau_constant().C


class TestConstant:
    def test_reported_value(self):
        assert abs(C - 1.87939) <= 1e-5

    def test_defining_equation(self):
        assert abs(C ** 3 - 3 * C - 1) <= 1e-12
        assert abs(landau_constant().residual) <= 1e-12

    def test_trigonometric_identity(self):
        assert abs(C - 2 * math.cos(math.pi / 9)) <= 1e-12

    def test_against_polynomial_root_oracle(self):
        roots = np.roots([1.0, 0.0, -3.0, -1.0])
        positive = max(r.real for r in roots if abs(r.imag) < 1e-12)
        assert abs(C - positive) <= 1e-12

    def test_cached_instance(self):
        assert landau_constant() is landau_constant()


class TestManifoldBound:
    def test_latitude_closed_forms(self):
        th = math.pi / 4
        rep = manifold_bound_report(Latitude(th, LinearPhase(1.0)),
                                    ChordalHalfSquare(POLE))
        assert abs(rep.r0.value - math.sin(th)) <= 1e-9
        assert abs(rep.r2.value - math.sin(th) * math.cos(th)) <= 1e-9
        assert abs(rep.lam.value - math.cos(th)) <= 1e-9
        assert abs(rep.lhs - math.sin(th) ** 2) <= 1e-9
        assert abs(rep.slack_ratio - 1.0 / C ** 2) <= 1e-9
        assert rep.hypotheses_ok and rep.satisfied

    def test_constant_curve_trivially_satisfied(self):
        curve = GreatCircle([math.sqrt(2) / 2, 0, math.sqrt(2) / 2], [0, 1.0, 0],
                            LinearPhase(0.0))
        rep = manifold_bound_report(curve, ChordalHalfSquare(POLE),
                                    TimeWindow(0.0, 1.0, 64))
        assert rep.lhs == 0.0 and rep.satisfied
        assert rep.slack_ratio == 0.0

    def test_polar_great_circle_violates_hypotheses(self):
        curve = GreatCircle([0, 0, 1.0], [1.0, 0, 0], LinearPhase(1.0))
        rep = manifold_bound_report(curve, ChordalHalfSquare(POLE))
        assert abs(rep.lam.value - (-1.0)) <= 1e-9
        assert not rep.hypotheses_ok
        assert rep.notes

    def test_vanishing_gradient_is_hypothesis_violation(self):
        # constant curve at the aux center: r0 = 0, no exception
        curve = GreatCircle([0, 0, 1.0], [1.0, 0, 0], LinearPhase(0.0))
        rep = manifold_bound_report(curve, ChordalHalfSquare(POLE),
                                    TimeWindow(0.0, 1.0, 16))
        assert rep.r0.value == 0.0
        assert not rep.hypotheses_ok

    def test_euclidean_branch(self):
        f = EuclideanAnalytic(((SinusoidalPhase(1.0, 1.0),),))
        rep = manifold_bound_report(f, EuclideanQuadratic(np.zeros(1)))
        assert rep.lam.value == 1.0
        assert abs(rep.r0.value - 1.0) <= 1e-9
        assert abs(rep.r2.value - 1.0) <= 1e-9
        assert rep.hypotheses_ok and rep.satisfied


class TestSphereBound:
    def test_latitude_quarter_pi(self):
        rep = sphere_bound_report(Latitude(math.pi / 4, LinearPhase(1.0)))
        assert rep.cap is not None
        assert math.acos(np.clip(np.dot(rep.cap.e.coords, POLE.coords), -1, 1)) <= 1e-4
        assert abs(rep.slack_ratio - 1.0 / C ** 2) <= 1e-6
        # both right-hand sides coincide when <e, x> is constant on the curve
        assert rep.rhs_relaxed == pytest.approx(rep.rhs, rel=1e-6)

    def test_latitude_third_pi_closed_forms(self):
        th = math.pi / 3
        rep = sphere_bound_report(Latitude(th, LinearPhase(1.0)))
        assert abs(rep.lam.value - 0.5) <= 1e-6
        assert abs(rep.r2.value - math.sqrt(3) / 4) <= 1e-9
        assert abs(rep.lhs - 0.75) <= 1e-9
        assert rep.rhs == pytest.approx(C * C * 0.75, rel=1e-6)
        assert rep.rhs_relaxed == pytest.approx(C * C * 0.75, rel=1e-6)
        assert abs(rep.slack_ratio - 1.0 / C ** 2) <= 1e-6

    def test_requires_sphere_curve(self):
        f = EuclideanAnalytic(((SinusoidalPhase(1.0, 1.0),),))
        with pytest.raises(InvalidInputError):
            sphere_bound_report(f)


class TestCounterexample:
    def test_speed_grows_r2_flat(self):
        for T in (10.0, 50.0):
            rep = counterexample_report(T=T)
            assert abs(rep.speed.value - T) <= 1e-4 * T
            assert abs(rep.r2.value - 1.0) <= 1e-9
            assert rep.lam.value <= 0.0
            assert not rep.hypotheses_ok

    def test_curve_family(self):
        curve = counterexample_curve()
        assert isinstance(curve.frames[0].phase, QuadraticPhase)
        ev = curve.evaluate(3.0)
        assert abs(np.linalg.norm(ev.xdot) - 3.0) <= 1e-12

    def test_bad_T(self):
        with pytest.raises(InvalidInputError):
            counterexample_report(T=-1.0)


class TestClassical:
    def test_sine_slack_half(self):
        f = EuclideanAnalytic(((SinusoidalPhase(1.0, 1.0),),))
        rep = classical_landau_check(f)
        assert abs(rep.f_sup.value - 1.0) <= 1e-9
        assert abs(rep.fprime_sup.value - 1.0) <= 1e-9
        assert abs(rep.fsecond_sup.value - 1.0) <= 1e-9
        assert abs(rep.slack_ratio - 0.5) <= 1e-9
        assert rep.satisfied

    def test_constant_function(self):
        f = EuclideanAnalytic(((LinearPhase(0.0, 3.0),),))
        rep = classical_landau_check(f, TimeWindow(-1.0, 1.0, 64))
        assert rep.lhs == 0.0 and rep.rhs == 0.0
        assert rep.satisfied and rep.slack_ratio == 0.0

    def test_two_harmonics(self):
        f = EuclideanAnalytic(((SinusoidalPhase(1.0, 1.0), SinusoidalPhase(0.25, 2.0)),))
        rep = classical_landau_check(f)
        assert rep.satisfied
        assert rep.window.t_max == pytest.approx(2 * math.pi)

    def test_banach_note_present(self):
        f = EuclideanAnalytic(((SinusoidalPhase(1.0, 1.0),),))
        rep = classical_landau_check(f)
        assert any("constant 4" in n for n in rep.notes)

    def test_rejects_sphere_curve(self):
        with pytest.raises(InvalidInputError):
            classical_landau_check(Latitude(0.5, LinearPhase(1.0)))


class TestDiagnostics:
    def test_latitude_flags(self):
        curve = Latitude(math.pi / 4, LinearPhase(1.0))
        diag = proof_diagnostics(curve, ChordalHalfSquare(POLE))
        assert diag.v_bound_ok and diag.speed_lipschitz_ok and diag.chain_ok
        # U o x is constant on a latitude circle, so v vanishes
        assert diag.v_bound_margin <= 0.0

    def test_constant_speed_circles_check_the_chain_step(self):
        # |x'| equals z0 = sqrt(r0 r2 / lambda) on these circles, so every
        # sample is on the chain step's boundary, where I(z) - z0^3 = -z0^3
        rng = np.random.default_rng(15)
        circles = [(0.3, 1.0), (0.5, 1.0)] + [(rng.uniform(0.1, 1.4), rng.uniform(0.2, 3.0))
                                              for _ in range(60)]
        for colat, omega in circles:
            diag = proof_diagnostics(Latitude(colat, LinearPhase(omega)), ChordalHalfSquare(POLE))
            assert diag.chain_ok
            assert math.isclose(diag.chain_margin, -(math.sin(colat) * omega) ** 3,
                                rel_tol=1e-6), (colat, omega, diag.chain_margin)

    def test_sinusoidal_arc_fixture(self):
        # regression fixture: oscillating great-circle arc with the cap center
        curve = GreatCircle([1.0, 0, 0], [0, 1.0, 0], SinusoidalPhase(0.9, 1.0))
        rep = sphere_bound_report(curve)
        assert rep.hypotheses_ok
        diag = proof_diagnostics(curve, ChordalHalfSquare(rep.cap.e), report=rep)
        assert diag.v_bound_ok and diag.speed_lipschitz_ok and diag.chain_ok

    def test_geodesic_with_positive_lambda(self):
        # constant curve: r2 = 0 forces v to vanish within noise
        curve = GreatCircle([math.sqrt(2) / 2, 0, math.sqrt(2) / 2], [0, 1.0, 0],
                            LinearPhase(0.0))
        diag = proof_diagnostics(curve, ChordalHalfSquare(POLE),
                                 TimeWindow(0.0, 1.0, 64))
        assert diag.v_bound_ok and diag.chain_ok

    def test_hypothesis_violation_raises(self):
        with pytest.raises(HypothesisViolationError):
            proof_diagnostics(counterexample_curve(), ChordalHalfSquare(POLE),
                              TimeWindow(0.0, 50.0, 512))


class TestClosedFormTruth:
    """Probe families whose reports are known in closed form."""

    def test_sinusoidal_great_circles(self):
        """theta = A sin(omega t) sweeps the arc [-A, A] of a great circle:
        speed A omega, r2 A omega^2, and about the arc's midpoint r0 = sin A,
        lambda = cos A, so Q = A cot A."""
        rng = np.random.default_rng(40)
        for _ in range(40):
            A, omega = rng.uniform(0.1, 1.4), rng.uniform(0.25, 4.0)
            curve = GreatCircle([1.0, 0, 0], [0, 1.0, 0], SinusoidalPhase(A, omega))
            q, rep = probe_q(curve, samples=4097)
            for got, want in ((rep.speed.value, A * omega), (rep.r2.value, A * omega ** 2),
                              (rep.r0.value, math.sin(A)), (rep.lam.value, math.cos(A)),
                              (q, A / math.tan(A))):
                assert got == pytest.approx(want, rel=1e-13, abs=0), (A, omega)

    @pytest.mark.parametrize("colatitude", [0.1, 0.5, 1.0, 1.5])
    def test_latitude_q_is_exactly_one(self, colatitude):
        q, _ = probe_q(Latitude(colatitude, LinearPhase(1.0)))
        assert q == pytest.approx(1.0, rel=5e-14, abs=0)


class TestProbe:
    def test_latitude_q_is_one(self):
        res = sharpness_probe("latitude", budget=1, seed=42)
        assert abs(res.best_q - 1.0) <= 1e-9
        assert res.skipped == 0

    def test_ceiling_and_bookkeeping(self):
        res = sharpness_probe("compound", budget=25, seed=7)
        assert res.best_q <= C * C * (1 + 1e-6)
        assert res.evaluations >= 25
        assert res.q_upper == pytest.approx(C * C)

    def test_unknown_family(self):
        with pytest.raises(InvalidInputError):
            sharpness_probe("torus", budget=1)

    def test_bad_budget(self):
        with pytest.raises(InvalidInputError):
            sharpness_probe("latitude", budget=0)

    def test_probe_q_skips_hypothesis_failures(self):
        q, rep = probe_q(counterexample_curve(), samples=257)
        assert q is None and not rep.hypotheses_ok

    @staticmethod
    def curve_numbers(curve):
        """Every number a probe candidate is built from, as exact floats."""
        if isinstance(curve, Latitude):
            return tuple(curve.base.tolist())
        return tuple((*f.axis.tolist(), f.phase.amp, f.phase.omega) for f in curve.frames)

    @pytest.mark.parametrize("family, seed, repeats", [
        ("compound", 0, 4), ("compound", 42, 3), ("great_circle", 3, 7), ("latitude", 0, 12)])
    def test_each_candidate_curve_is_evaluated_once(self, monkeypatch, family, seed, repeats):
        """The polish repeats the best candidate as its first vertex, and
        build_curve rounds a frequency moved by 5% back to its integer: a
        curve already evaluated is counted again but not run again."""
        real_build, real_qs = inequality.build_curve, inequality.probe_qs
        built, evaluated = [], []

        def build(fam, params):
            built.append(real_build(fam, params))
            return built[-1]

        def qs_of(curves):
            evaluated.extend(curves)
            return real_qs(curves)

        monkeypatch.setattr(inequality, "build_curve", build)
        monkeypatch.setattr(inequality, "probe_qs", qs_of)
        res = sharpness_probe(family, budget=30, seed=seed)
        distinct = {self.curve_numbers(c) for c in built}
        assert res.evaluations == len(built)
        assert len(evaluated) == len(distinct) == len(built) - repeats
        assert {self.curve_numbers(c) for c in evaluated} == distinct

    @pytest.mark.parametrize("family, seed, best_q, evaluations", [
        ("compound", 42, "1.2350585180480496", 90),
        ("great_circle", 0, "0.9999666664443874", 90),
        ("latitude", 0, "1.0000000000000062", 69)])
    def test_pinned_results(self, family, seed, best_q, evaluations):
        res = sharpness_probe(family, budget=30, seed=seed)
        assert (repr(res.best_q), res.evaluations, res.skipped) == (best_q, evaluations, 0)

    def test_compound_probe_scores_in_stacks(self, monkeypatch):
        """Scored one candidate at a time, this probe makes 677 compound
        batch calls; with its 30 random candidates and its first simplex
        each scored as one stack, 383, and 425 with the simplex scored
        one vertex at a time."""
        calls = []
        real_batch = SphericalCompound.batch

        def batch(curve, ts):
            calls.append(len(ts))
            return real_batch(curve, ts)

        monkeypatch.setattr(SphericalCompound, "batch", batch)
        sharpness_probe("compound", budget=30, seed=42)
        assert len(calls) <= 400, len(calls)


@dataclass(frozen=True)
class NanAfterOne(LinearPhase):
    """A linear phase that reads NaN from t = 1 on."""

    @staticmethod
    def jets_of(t, omega, phi):
        th, d1, d2 = LinearPhase.jets_of(t, omega, phi)
        return np.where(t < 1.0, th, np.nan), d1, d2


class TestStackedScoring:
    """sphere_bound_reports and probe_qs against lone evaluations."""

    @staticmethod
    def mixed_candidates():
        rng = np.random.default_rng(2024)
        curves = [build_curve("compound", sample_params("compound", rng)) for _ in range(12)]
        assert {len(c.frames) for c in curves} == {2, 3}
        return curves

    def test_members_match_lone_evaluations(self):
        curves = self.mixed_candidates()
        windows = [default_window(c, samples=257) for c in curves]
        jets = CurveStack(curves).jets(windows)
        reports = sphere_bound_reports(curves, windows)
        for b, (curve, window) in enumerate(zip(curves, windows)):
            for got, want in zip(jets, curve_jets(curve, window)):
                np.testing.assert_array_equal(got[b], want)
            assert pickle.dumps(reports[b]) == pickle.dumps(sphere_bound_report(curve, window))
        assert probe_qs(curves, samples=257) == [probe_q(c, samples=257)[0] for c in curves]

    def test_raising_member_is_skipped_alone(self, monkeypatch):
        curves = self.mixed_candidates()[:4]
        bad = SphericalCompound([RotatingFrame([0.0, 1.0, 0.0], NanAfterOne(0.5))], [0, 0, 1.0])
        with pytest.raises(InvalidInputError):
            probe_q(bad)
        stacks = []
        real_reports = inequality.sphere_bound_reports

        def reports(part, windows):
            stacks.append(len(part))
            return real_reports(part, windows)

        monkeypatch.setattr(inequality, "sphere_bound_reports", reports)
        qs = probe_qs(curves[:2] + [bad] + curves[2:])
        assert stacks == [5]
        assert qs == [probe_q(c)[0] for c in curves[:2]] + [None] + [probe_q(c)[0] for c in curves[2:]]
        assert None not in qs[:2] + qs[3:]


def scipy_nelder_mead(f, x0, maxfev, xatol, fatol):
    """scipy evaluates one point at a time, as a one-row stack of f."""
    minimize(lambda x: f(x[None])[0], x0, method="Nelder-Mead",
             options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})


class TestNelderMeadPort:
    """The polish's numpy Nelder-Mead against scipy.optimize.minimize on
    the probe corpus: each probe evaluates the same candidates in the
    same order and reports the same result."""

    @pytest.mark.parametrize("family", PROBE_FAMILIES)
    def test_matches_scipy_on_probe_corpus(self, family, monkeypatch):
        real_build, real_q = inequality.build_curve, inequality.probe_q
        memo, seen = {}, []

        def qs_of(keys):  # each key is (family, params) from the patched build_curve
            for key in keys:
                if key not in memo:
                    memo[key] = real_q(real_build(key[0], np.array(key[1])))
                seen.append(memo[key][0])
            return [memo[key][0] for key in keys]

        monkeypatch.setattr(inequality, "build_curve", lambda fam, p: (fam, tuple(map(float, p))))
        monkeypatch.setattr(inequality, "probe_qs", qs_of)

        def run(seed):
            seen.clear()
            res = sharpness_probe(family, budget=30, seed=seed)
            return list(seen), res

        for seed in range(12):
            q_port, port = run(seed)
            with monkeypatch.context() as m:
                m.setattr(inequality, "_nelder_mead", scipy_nelder_mead)
                q_ref, ref = run(seed)
            assert port.polished and len(q_port) > 30
            assert q_port == q_ref, seed
            assert repr(port.best_q) == repr(ref.best_q), seed
            assert port.best_params == ref.best_params, seed
            assert (port.evaluations, port.skipped) == (ref.evaluations, ref.skipped), seed


class TestSoundnessMiniCorpus:
    def test_no_violations_and_diagnostics(self):
        rng = np.random.default_rng(11)
        kept = 0
        while kept < 40:
            family = PROBE_FAMILIES[int(rng.integers(0, 3))]
            curve = build_curve(family, sample_params(family, rng))
            rep = sphere_bound_report(curve, default_window(curve, samples=257))
            if not rep.hypotheses_ok:
                continue
            kept += 1
            assert rep.lhs <= rep.rhs * (1 + 1e-6), (family, rep.lhs, rep.rhs)
            diag = proof_diagnostics(curve, ChordalHalfSquare(rep.cap.e), report=rep)
            assert diag.v_bound_ok and diag.speed_lipschitz_ok and diag.chain_ok


def aperiodic_compound():
    return SphericalCompound(
        (RotatingFrame([0.3, -0.5, 0.8], SinusoidalPhase(0.35, 0.8137)),
         RotatingFrame([1.0, 0.2, 0.1], SinusoidalPhase(0.3, 1.3291)),
         RotatingFrame([0.0, 1.0, 0.5], SinusoidalPhase(0.25, 1.7713))),
        np.array([0.0, 0.0, 1.0]))


class TestFusedScan:
    """Each quantity of a fused report equals its own one-spec scan, bit for bit."""

    def assert_matches_one_spec_scans(self, curve, U, rep):
        window = rep.window
        assert rep.speed == sup_norm(curve, window, "speed")
        assert rep.r2 == sup_norm(curve, window, "covariant_accel_norm")
        assert rep.r0 == sup_norm(curve, window, "aux_gradient_norm", aux=U)
        assert rep.sup_u == sup_norm(curve, window, "aux_value", aux=U, refine=False).value
        lam = lambda_min(U, curve, window)
        assert (rep.lam.value, rep.lam.argmin_t) == (lam.value, lam.argmin_t)

    @pytest.mark.parametrize("kind", ["compound", "latitude", "sampled"])
    def test_sphere_report(self, kind):
        if kind == "compound":
            curve = aperiodic_compound()
            assert curve.period() is None and default_window(curve).samples == 40001
        elif kind == "latitude":
            curve = Latitude(0.9, SinusoidalPhase(1.1, 2.0, drift=0.3))
        else:
            ts = np.linspace(0.0, 8.0, 1025)
            X, _, _ = aperiodic_compound().batch(ts)
            curve = load_sampled(np.column_stack([ts, X]))
        rep = sphere_bound_report(curve)
        self.assert_matches_one_spec_scans(curve, ChordalHalfSquare(rep.cap.e), rep)

    def test_intrinsic_report(self):
        curve = aperiodic_compound()
        U = IntrinsicHalfSquare(POLE)
        rep = manifold_bound_report(curve, U)
        assert rep.lam.method == "closed_form"
        self.assert_matches_one_spec_scans(curve, U, rep)

    def test_diagnostics_speed_slope_is_the_central_difference(self):
        # d|x'|/dt comes from the jets as <x', x''>/|x'|; a central difference
        # of |x'| on shifted grids is the independent check
        curve = aperiodic_compound()
        rep = sphere_bound_report(curve)
        diag = proof_diagnostics(curve, ChordalHalfSquare(rep.cap.e), report=rep)
        ts, h = rep.window.grid(), 1e-5
        z_p, z_m = (np.linalg.norm(curve.batch(ts + s)[1], axis=1) for s in (h, -h))
        slope = np.abs(z_p - z_m) / (2.0 * h)
        i = int(np.argmax(slope))
        assert diag.speed_worst_t == ts[i]
        assert abs(diag.speed_margin - (slope[i] - rep.r2.value)) <= 1e-6 * slope[i]

    def test_euclidean_report(self):
        curve = EuclideanAnalytic(((SinusoidalPhase(1.0, 1.0),),
                                   (SinusoidalPhase(0.5, 0.7071),)))
        U = EuclideanQuadratic(np.array([0.1, -0.2]))
        rep = manifold_bound_report(curve, U, TimeWindow(-10.0, 10.0, 4001))
        self.assert_matches_one_spec_scans(curve, U, rep)

    def test_classical_report(self):
        curve = EuclideanAnalytic(((SinusoidalPhase(1.0, 1.0), SinusoidalPhase(0.3, 2.7)),))
        window = TimeWindow(-10.0, 10.0, 4001)
        rep = classical_landau_check(curve, window)
        assert rep.f_sup == sup_norm(curve, window, lambda ts, X, Xd, Xdd: np.abs(X[:, 0]))
        assert rep.fprime_sup == sup_norm(curve, window, "speed")
        assert rep.fsecond_sup == sup_norm(curve, window, "covariant_accel_norm")
