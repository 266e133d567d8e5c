import math
import tracemalloc

import numpy as np
import pytest

from helpers import fd6_first, fd6_second, random_tangent_direction, random_unit
from manifold_landau import curves as curves_module
from manifold_landau.curves import (
    EuclideanAnalytic,
    GreatCircle,
    Latitude,
    LinearPhase,
    QuadraticPhase,
    RotatingFrame,
    SampledCurve,
    CurveStack,
    Quantity,
    SinusoidalPhase,
    SphericalCompound,
    TimeWindow,
    combine_periods,
    curve_jets,
    default_window,
    load_sampled,
    read_curve_csv,
    read_points_csv,
    scan_extremum,
    speed,
    sup_norm,
)
from manifold_landau.errors import (
    IngestionError,
    InvalidCurveError,
    InvalidInputError,
    NumericFailureError,
    OutOfDomainError,
)
from manifold_landau.geometry import Manifold, skew
from manifold_landau.inequality import sphere_bound_report

SQ2 = math.sqrt(2.0) / 2.0
SPHERE_ACCEL = Manifold.sphere2().covariant_accel_norm


def unit_great_circle():
    return GreatCircle([1.0, 0, 0], [0, 1.0, 0], LinearPhase(1.0))


# (axis, amp, omega) of the sinusoidal frames of the benchmark's
# dense_sampled CSV at seed 9409 (perfbench/workloads.py)
DENSE_SAMPLED_9409 = (
    ([-0.5527517753291836, 0.8331099839860362, 0.01983001394911245], 0.34151344309884646, 3.0),
    ([-0.2063095220812342, 0.9535289812938316, -0.21958793894784043], 0.3072294391444109, 2.0),
    ([0.4965423373730739, -0.7328631514450092, 0.46514224539400195], 0.2456075597987472, 2.0))


def dense_sampled_9409():
    """That CSV's curve: 4097 rows on [0, 2 pi], one period, its points by
    Rodrigues' formula frame by frame as the benchmark computes them."""
    ts = np.arange(4097) * (2.0 * math.pi / 4096)
    X = np.tile([0.0, 0.0, 1.0], (len(ts), 1))
    for axis, amp, omega in reversed(DENSE_SAMPLED_9409):
        K = skew(np.asarray(axis))
        th = amp * np.sin(omega * ts)
        KX = X @ K.T
        X = X + np.sin(th)[:, None] * KX + (1.0 - np.cos(th))[:, None] * (KX @ K.T)
    return load_sampled(np.column_stack([ts, X]))


class TestAnalyticEval:
    def test_latitude_hand_values(self):
        ev = Latitude(math.pi / 4, LinearPhase(1.0)).evaluate(0.0)
        np.testing.assert_allclose(ev.x, [SQ2, 0, SQ2], atol=1e-15)
        np.testing.assert_allclose(ev.xdot, [0, SQ2, 0], atol=1e-15)
        np.testing.assert_allclose(ev.xddot, [-SQ2, 0, 0], atol=1e-15)

    def test_latitude_fd_oracle(self):
        curve = Latitude(0.9, SinusoidalPhase(0.7, 1.3, drift=0.2))
        for t in (0.0, 0.61, -1.7):
            ev = curve.evaluate(t)
            pos = lambda s: curve.evaluate(s).x
            np.testing.assert_allclose(ev.xdot, fd6_first(pos, t), atol=1e-9)
            np.testing.assert_allclose(ev.xddot, fd6_second(pos, t), atol=1e-7)

    def test_great_circle_hand_values(self):
        ev = unit_great_circle().evaluate(0.0)
        np.testing.assert_allclose(ev.x, [1, 0, 0], atol=0)
        np.testing.assert_allclose(ev.xdot, [0, 1, 0], atol=0)
        np.testing.assert_allclose(ev.xddot, [-1, 0, 0], atol=0)

    def test_compound_fd_oracle(self):
        rng = np.random.default_rng(11)
        frames = (RotatingFrame(random_unit(rng), SinusoidalPhase(0.8, 2.0)),
                  RotatingFrame(random_unit(rng), LinearPhase(1.0, 0.4)),
                  RotatingFrame(random_unit(rng), QuadraticPhase(0.3, 0.2)))
        curve = SphericalCompound(frames, random_unit(rng))
        for t in (0.0, 0.37, -2.2):
            ev = curve.evaluate(t)
            pos = lambda s: curve.evaluate(s).x
            np.testing.assert_allclose(ev.xdot, fd6_first(pos, t), atol=1e-8)
            np.testing.assert_allclose(ev.xddot, fd6_second(pos, t), atol=1e-6)

    @staticmethod
    def prefix_matrix_jets(curve, ts):
        """The product rule written out with per-sample rotation matrices,
        prefix products, suffix vectors and the pairwise cross terms."""
        n, m = len(ts), len(curve.frames)
        eye = np.broadcast_to(np.eye(3), (n, 3, 3))
        R, K, d1, d2 = [], [], [], []
        for fr in curve.frames:
            th, d1_i, d2_i = fr.phase.jets(ts)
            d1.append(d1_i)
            d2.append(d2_i)
            K.append(skew(fr.axis))
            R.append(eye + np.sin(th)[:, None, None] * K[-1]
                     + (1.0 - np.cos(th))[:, None, None] * (K[-1] @ K[-1]))

        def matvec(M, u):
            return np.einsum("nij,nj->ni", M, u)

        v = [None] * (m + 1)  # v[j] = R_j ... R_{m-1} base
        v[m] = np.broadcast_to(curve.base, (n, 3))
        for j in range(m - 1, -1, -1):
            v[j] = matvec(R[j], v[j + 1])
        Q = [eye]  # Q[i] = R_0 ... R_{i-1}
        for i in range(1, m):
            Q.append(np.einsum("nij,njk->nik", Q[-1], R[i - 1]))
        Kv = [v[i] @ K[i].T for i in range(m)]
        Xd = sum(matvec(Q[i], d1[i][:, None] * Kv[i]) for i in range(m))
        Xdd = sum(matvec(Q[i], d2[i][:, None] * Kv[i] + (d1[i] ** 2)[:, None] * (Kv[i] @ K[i].T))
                  for i in range(m))
        for i in range(m):
            for j in range(i + 1, m):
                u = d1[j][:, None] * Kv[j]
                for k in range(j - 1, i, -1):
                    u = matvec(R[k], u)
                Xdd = Xdd + 2.0 * matvec(Q[i], d1[i][:, None] * (matvec(R[i], u) @ K[i].T))
        return v[0], Xd, Xdd

    @staticmethod
    def one_pass_jets(curve, ts):
        """The same propagation as SphericalCompound.batch in one pass over
        all rows, laid out (jet, sample, coordinate)."""
        J = np.zeros((3, len(ts), 3))
        J[0] = curve.base
        for fr in reversed(curve.frames):
            Kt = skew(fr.axis).T
            th, d1, d2 = (v[:, None] for v in fr.phase.jets(ts))
            KJ = J @ Kt
            J[2] += d2 * KJ[0] + d1 * (d1 * (KJ[0] @ Kt) + 2.0 * KJ[1])
            J[1] += d1 * KJ[0]
            KJ = J @ Kt
            J += np.sin(th) * KJ + (1.0 - np.cos(th)) * (KJ @ Kt)
        return J

    # sizes on both sides of the block boundaries (curves.JET_BLOCK = 4096
    # rows), and a few curves at the default window's 40001
    @pytest.mark.parametrize("n,curves", [pytest.param(n, c, id=str(n)) for n, c in [
        (1, 100), (15, 100), (513, 100), (4001, 100), (4095, 100), (4096, 100), (4097, 100),
        (8193, 50), (40001, 4)]])
    def test_compound_matches_prefix_matrix_reference(self, n, curves):
        rng = np.random.default_rng([15, n])
        kinds = (lambda: SinusoidalPhase(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 3.0),
                                         drift=rng.uniform(-1.0, 1.0)),
                 lambda: QuadraticPhase(rng.uniform(-0.5, 0.5), rng.uniform(-2.0, 2.0)),
                 lambda: LinearPhase(rng.uniform(-3.0, 3.0), rng.uniform(-math.pi, math.pi)))
        for _ in range(curves):
            frames = [RotatingFrame(random_unit(rng), kinds[rng.integers(3)]())
                      for _ in range(rng.integers(1, 7))]
            curve = SphericalCompound(frames, random_unit(rng))
            ts = rng.uniform(-20.0, 20.0, n)
            jets = curve.batch(ts)
            for got in jets:
                assert got.shape == (n, 3) and got.flags.c_contiguous
            for got, want in zip(jets, self.prefix_matrix_jets(curve, ts)):
                scale = np.maximum(1.0, np.abs(want).max(axis=0))
                err = (np.abs(got - want) / scale).max()
                assert err <= 1e-12, (err, curve)
            # blocking changes neither the arithmetic nor its order
            np.testing.assert_array_equal(np.stack(jets), self.one_pass_jets(curve, ts))

    def test_compound_jets_peak_memory(self):
        # a churn guard: the propagation works in block-sized buffers, so
        # the peak stays near the size of the jet table it returns
        frames = (RotatingFrame([0.3, 0.5, 0.8], SinusoidalPhase(0.9, 0.889)),
                  RotatingFrame([0.9, -0.1, 0.2], SinusoidalPhase(0.7, 1.723)),
                  RotatingFrame([-0.2, 0.6, 0.4], SinusoidalPhase(1.1, 1.096)))
        curve = SphericalCompound(frames, [0, 0, 1.0])
        window = default_window(curve)
        assert window.samples == 40001
        tracemalloc.start()
        try:
            jets = curve_jets(curve, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sum(a.nbytes for a in jets), peak

    @pytest.mark.parametrize("phase", [LinearPhase(-1.3, 0.4), QuadraticPhase(0.35, -0.8),
                                       SinusoidalPhase(0.9, 1.7),
                                       SinusoidalPhase(-1.2, 0.6, drift=0.45)],
                             ids=["linear", "quadratic", "sinusoidal", "sinusoidal-drift"])
    def test_phase_jets_match_finite_differences(self, phase):
        theta = lambda s: phase.jets(np.array([s]))[0][0]
        for t in (-7.3, -0.2, 0.0, 1.1, 13.9):
            _, d1, d2 = (float(v[0]) for v in phase.jets(np.array([t])))
            assert d1 == pytest.approx(fd6_first(theta, t), abs=1e-9)
            assert d2 == pytest.approx(fd6_second(theta, t), abs=1e-7)

    def test_sphere_invariants_large_range(self):
        curves = [unit_great_circle(),
                  Latitude(1.1, SinusoidalPhase(1.2, 0.9, drift=0.3)),
                  SphericalCompound((RotatingFrame([0, 0, 1.0], LinearPhase(2.0)),
                                     RotatingFrame([1.0, 0, 0], SinusoidalPhase(0.5, 3.0))),
                                    [0, 1.0, 0])]
        ts = np.linspace(-100.0, 100.0, 401)
        for curve in curves:
            X, Xd, _ = curve.batch(ts)
            assert np.abs(np.linalg.norm(X, axis=1) - 1.0).max() <= 1e-12
            assert np.abs(np.einsum("ni,ni->n", X, Xd)).max() <= 1e-12

    def test_great_circle_validation(self):
        with pytest.raises(InvalidCurveError):
            GreatCircle([1.0, 0, 0], [0.1, 1.0, 0], LinearPhase(1.0))
        with pytest.raises(InvalidCurveError):
            GreatCircle([2.0, 0, 0], [0, 1.0, 0], LinearPhase(1.0))
        # a norm past the float range: the error, and no numpy warning
        with pytest.raises(InvalidCurveError, match=r"norm inf"):
            GreatCircle([1e200, 0, 0], [0, 1.0, 0], LinearPhase(1.0))

    @pytest.mark.parametrize("scale", [1e300, 1e-300, 1e-160, 1e160])
    def test_rotation_axis_scale_is_irrelevant(self, scale):
        # squares of these entries over- or underflow: the frame normalizes
        # the axis scaled by its largest entry, with no numpy warning
        frame = RotatingFrame([scale, scale, 0.0], LinearPhase(1.0))
        unit = RotatingFrame([1.0, 1.0, 0.0], LinearPhase(1.0))
        np.testing.assert_array_equal(frame.axis, unit.axis)
        np.testing.assert_array_equal(frame.K, skew(unit.axis))
        with pytest.raises(InvalidCurveError, match="nonzero"):
            RotatingFrame([0.0, 0.0, 0.0], LinearPhase(1.0))

    def test_latitude_validation(self):
        with pytest.raises(InvalidCurveError):
            Latitude(0.0, LinearPhase(1.0))
        with pytest.raises(InvalidCurveError):
            Latitude(math.pi, LinearPhase(1.0))


class TestCircleClosedForms:
    """Great circles and latitudes are one-frame compounds; their jets
    against the closed forms they replace, to a few ulp of the jets'
    scale max(1, theta'^2, |theta''|)."""

    PHASES = {
        "linear": lambda rng: LinearPhase(rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)),
        "quadratic": lambda rng: QuadraticPhase(rng.uniform(-0.5, 0.5), rng.uniform(-2, 2)),
        "sinusoidal": lambda rng: SinusoidalPhase(rng.uniform(-1.5, 1.5), rng.uniform(0.1, 3),
                                                  rng.uniform(-1, 1)),
    }

    @staticmethod
    def assert_jets_close(got, want, d1, d2):
        scale = np.maximum(1.0, np.maximum(d1 ** 2, np.abs(d2)))[:, None]
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w) / scale) <= 16 * np.finfo(float).eps

    @pytest.mark.parametrize("kind", sorted(PHASES))
    def test_great_circle(self, kind):
        rng = np.random.default_rng([30, len(kind)])
        for _ in range(10):
            a = random_unit(rng)
            b = random_tangent_direction(rng, a)
            phase = self.PHASES[kind](rng)
            ts = rng.uniform(-50.0, 50.0, 1000)
            th, d1, d2 = phase.jets(ts)
            u = np.outer(np.cos(th), a) + np.outer(np.sin(th), b)
            w = np.outer(-np.sin(th), a) + np.outer(np.cos(th), b)
            want = (u, d1[:, None] * w, d2[:, None] * w - (d1 ** 2)[:, None] * u)
            self.assert_jets_close(GreatCircle(a, b, phase).batch(ts), want, d1, d2)

    @pytest.mark.parametrize("kind", sorted(PHASES))
    def test_latitude(self, kind):
        rng = np.random.default_rng([31, len(kind)])
        for _ in range(10):
            c = rng.uniform(0.05, math.pi - 0.05)
            phase = self.PHASES[kind](rng)
            ts = rng.uniform(-50.0, 50.0, 1000)
            th, d1, d2 = phase.jets(ts)
            sc, cc, zero = math.sin(c), math.cos(c), np.zeros_like(th)
            x = np.column_stack([sc * np.cos(th), sc * np.sin(th), np.full_like(th, cc)])
            w = np.column_stack([-sc * np.sin(th), sc * np.cos(th), zero])   # dx/dtheta
            ww = np.column_stack([-sc * np.cos(th), -sc * np.sin(th), zero])  # d2x/dtheta2
            want = (x, d1[:, None] * w, d2[:, None] * w + (d1 ** 2)[:, None] * ww)
            self.assert_jets_close(Latitude(c, phase).batch(ts), want, d1, d2)


class TestCurveStack:
    """A stack's members give their lone results bit for bit."""

    @staticmethod
    def mixed_stack(rng):
        """2- and 3-frame compounds with sinusoidal phases, periodic with
        different periods, a 3-frame compound of other phase kinds, and
        great circles and latitudes with sinusoidal phases, shuffled."""
        def compound(kinds):
            return SphericalCompound([RotatingFrame(random_unit(rng), kind()) for kind in kinds],
                                     random_unit(rng))
        sine = lambda: SinusoidalPhase(rng.uniform(0.1, 0.6), float(rng.integers(1, 4)))
        curves = [compound([sine] * int(rng.integers(2, 4))) for _ in range(9)]
        curves.append(compound([lambda: LinearPhase(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                                lambda: QuadraticPhase(rng.uniform(-0.3, 0.3)), sine]))
        curves.append(GreatCircle([1.0, 0, 0], [0, 1.0, 0], SinusoidalPhase(0.7, 2.0)))
        a = random_unit(rng)
        curves.append(GreatCircle(a, random_tangent_direction(rng, a), sine()))
        curves += [Latitude(rng.uniform(0.1, 3.0), sine()) for _ in range(2)]
        return [curves[i] for i in rng.permutation(len(curves))]

    def test_circles_share_one_propagation_pass(self, monkeypatch):
        rng = np.random.default_rng(22)
        stack = self.mixed_stack(rng)
        circles = sum(len(c.frames) == 1 for c in stack)
        passes = []
        real = curves_module._propagate

        def propagate(base, frames, ts):
            passes.append((len(frames), len(base)))
            return real(base, frames, ts)

        monkeypatch.setattr(curves_module, "_propagate", propagate)
        CurveStack(stack).batch(rng.uniform(-20.0, 20.0, (len(stack), 65)))
        assert circles == 4
        assert [p for p in passes if p[0] == 1] == [(1, circles)]

    @pytest.mark.parametrize("n", [1, 12, 513, 4097, 8193])
    def test_batch_matches_lone_batch(self, n):
        rng = np.random.default_rng([20, n])
        curves = self.mixed_stack(rng)
        ts = rng.uniform(-20.0, 20.0, (len(curves), n))
        stacked = CurveStack(curves).batch(ts)
        for b, curve in enumerate(curves):
            for got, want in zip(stacked, curve.batch(ts[b])):
                np.testing.assert_array_equal(got[b], want)
                assert got[b].flags.c_contiguous

    def test_scan_matches_lone_scan(self):
        rng = np.random.default_rng(21)
        curves = self.mixed_stack(rng)
        windows = [default_window(c, samples=513) for c in curves]
        accel = curves[0].manifold.covariant_accel_norm  # one object: all rows at once
        specs = [[Quantity(speed), Quantity(accel, mode="min"),
                  Quantity(lambda ts, X, Xd, Xdd: X[:, 2] * ts, refine=False),
                  Quantity(lambda ts, X, Xd, Xdd, b=b: X[:, 0] + b)] for b in range(len(curves))]
        stack = CurveStack(curves)
        jets = stack.jets(windows)
        scans = scan_extremum(stack, windows, specs, jets=jets)
        for b, curve in enumerate(curves):
            lone = curve_jets(curve, windows[b])
            for got, want in zip(jets, lone):
                np.testing.assert_array_equal(got[b], want)
            assert scans[b] == scan_extremum(curve, windows[b], specs[b])

    @pytest.mark.parametrize("other", [Quantity(speed, mode="min"), Quantity(speed, refine=False)])
    def test_members_must_agree_on_mode_and_refine(self, other):
        """One search serves every member, so a member may not ask for
        another mode or refinement than member 0's."""
        curves = [unit_great_circle(), Latitude(0.5, LinearPhase(1.0))]
        windows = [TimeWindow(0.0, 1.0, 11)] * 2
        with pytest.raises(InvalidInputError, match="different modes or refinements"):
            scan_extremum(CurveStack(curves), windows, [[Quantity(speed)], [other]])


class TestPeriods:
    def test_linear_phase(self):
        assert unit_great_circle().period() == pytest.approx(2 * math.pi)
        assert GreatCircle([1.0, 0, 0], [0, 1.0, 0], LinearPhase(3.0)).period() == \
            pytest.approx(2 * math.pi / 3)

    def test_quadratic_has_none(self):
        assert GreatCircle([1.0, 0, 0], [0, 1.0, 0], QuadraticPhase(1.0)).period() is None

    def test_sinusoidal(self):
        assert Latitude(1.0, SinusoidalPhase(0.5, 2.0)).period() == pytest.approx(math.pi)
        assert Latitude(1.0, SinusoidalPhase(0.5, 2.0, drift=0.3)).period() is None

    def test_compound_commensurate(self):
        curve = SphericalCompound(
            (RotatingFrame([0, 0, 1.0], LinearPhase(2.0)),
             RotatingFrame([1.0, 0, 0], SinusoidalPhase(0.5, 3.0))), [0, 1.0, 0])
        assert curve.period() == pytest.approx(2 * math.pi)

    def test_euclidean_sum(self):
        f = EuclideanAnalytic(((SinusoidalPhase(1.0, 1.0), SinusoidalPhase(0.25, 2.0)),))
        assert f.period() == pytest.approx(2 * math.pi)

    def test_combine_periods_incommensurate(self):
        assert combine_periods([1.0, math.sqrt(2)]) is None
        assert combine_periods([]) is None
        assert combine_periods([1.0, None]) is None

    def test_default_window(self):
        w = default_window(unit_great_circle())
        assert (w.t_min, w.t_max) == (0.0, pytest.approx(2 * math.pi))
        w = default_window(GreatCircle([1.0, 0, 0], [0, 1.0, 0], QuadraticPhase(1.0)))
        assert (w.t_min, w.t_max, w.samples) == (-20.0, 20.0, 40001)


class TestSampled:
    def grid_curve(self, h=1e-2, lo=-0.5, hi=0.5):
        ts = np.arange(lo / h, hi / h + 0.5).astype(float) * h
        pts = np.column_stack([np.cos(ts), np.sin(ts), np.zeros_like(ts)])
        return load_sampled(np.column_stack([ts, pts])), ts

    def test_round_trip_interior(self):
        curve, ts = self.grid_curve()
        analytic = unit_great_circle()
        i0 = np.argmin(np.abs(ts))  # t = 0 sits in the interior
        ev = curve.evaluate(ts[i0])
        np.testing.assert_allclose(ev.xdot, [0, 1, 0], atol=1e-7)
        np.testing.assert_allclose(ev.xddot, [-1, 0, 0], atol=1e-5)
        for i in range(2, len(ts) - 2, 7):
            ev = curve.evaluate(ts[i])
            ref = analytic.evaluate(ts[i])
            np.testing.assert_allclose(ev.x, ref.x, atol=1e-12)
            np.testing.assert_allclose(ev.xdot, ref.xdot, atol=1e-6)
            np.testing.assert_allclose(ev.xddot, ref.xddot, atol=1e-6)

    def test_end_nodes_documented_order(self):
        """The one-sided 5-node interpolant: 4th order in x', 3rd in x''."""
        curve, ts = self.grid_curve()
        analytic = unit_great_circle()
        for t in (ts[0], ts[-1]):
            ev = curve.evaluate(t)
            ref = analytic.evaluate(t)
            np.testing.assert_allclose(ev.xdot, ref.xdot, atol=1e-8)
            np.testing.assert_allclose(ev.xddot, ref.xddot, atol=5e-6)

    def test_off_node_interpolation(self):
        curve, ts = self.grid_curve()
        analytic = unit_great_circle()
        for t in (0.123456, -0.31415, 0.4049):
            ev = curve.evaluate(t)
            ref = analytic.evaluate(t)
            np.testing.assert_allclose(ev.x, ref.x, atol=1e-9)
            np.testing.assert_allclose(ev.xdot, ref.xdot, atol=1e-6)
            np.testing.assert_allclose(ev.xddot, ref.xddot, atol=1e-4)

    def test_convergence_order(self):
        # interior first-derivative error should shrink at observed order >= 3.5
        errs = []
        for h in (2e-2, 1e-2):
            curve, ts = self.grid_curve(h=h)
            analytic = unit_great_circle()
            worst = 0.0
            for i in range(2, len(ts) - 2):
                ev = curve.evaluate(ts[i])
                worst = max(worst, np.abs(ev.xdot - analytic.evaluate(ts[i]).xdot).max())
            errs.append(worst)
        order = math.log2(errs[0] / errs[1])
        assert order >= 3.5

    def test_too_few_rows(self):
        with pytest.raises(IngestionError):
            load_sampled([[0, 1, 0, 0], [0.1, 1, 0, 0], [0.2, 1, 0, 0], [0.3, 1, 0, 0]])

    def test_off_manifold_row(self):
        ts = np.arange(6) * 0.1
        rows = np.column_stack([ts, np.cos(ts), np.sin(ts), np.zeros_like(ts)])
        rows[3, 1:] *= 1.01
        with pytest.raises(IngestionError) as err:
            load_sampled(rows)
        assert err.value.row == 4  # 1-based

    def test_non_uniform_grid(self):
        ts = np.array([0.0, 0.1, 0.2, 0.31, 0.4, 0.5])
        rows = np.column_stack([ts, np.cos(ts), np.sin(ts), np.zeros_like(ts)])
        with pytest.raises(IngestionError):
            load_sampled(rows)

    def test_out_of_domain(self):
        curve, _ = self.grid_curve()
        with pytest.raises(OutOfDomainError):
            curve.evaluate(0.75)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "curve.csv"
        ts = np.arange(101) * 0.01
        lines = ["t,x,y,z"]
        for t in ts:
            t = float(t)
            lines.append(f"{t!r},{math.cos(t)!r},{math.sin(t)!r},0.0")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        curve = read_curve_csv(path)
        ev = curve.evaluate(0.5)
        np.testing.assert_allclose(ev.x, [math.cos(0.5), math.sin(0.5), 0.0], atol=1e-12)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("time,x,y,z\n0,1,0,0\n", encoding="utf-8")
        with pytest.raises(IngestionError):
            read_curve_csv(path)

    @staticmethod
    def circle_csv(times, blank):
        """Points of the unit circle at the times, with the data lines
        numbered in blank left empty."""
        rows = [f"{t!r},{math.cos(t)!r},{math.sin(t)!r},0.0" for t in times]
        for lineno in sorted(blank):
            rows.insert(lineno - 1, "")
        return "\n".join(["t,x,y,z", *rows]) + "\n"

    OFF_SPHERE = "t,x,y,z\n0,1,0,0\n\n1,0,1,0\n2,0,0,1\n3,1,0,0\n4,0,2,0\n5,0,1,0\n"

    @pytest.mark.parametrize("reader, text, message, row", [
        (read_points_csv, OFF_SPHERE, "point at row 6 is off the unit sphere by 1.000e+00", 6),
        (read_curve_csv, OFF_SPHERE, "point at row 6 is off the unit sphere by 1.000e+00", 6),
        # a step of 0.11 on data line 6, after the blank line 2
        (read_curve_csv, circle_csv([0.0, 0.1, 0.2, 0.3, 0.41, 0.5, 0.6], {2}),
         "non-uniform grid at row 6: step deviates by 1.000e-01 relative", 6),
        # t = 0.5 again on data line 8, after the blank line 2
        (read_curve_csv, circle_csv([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.5], {2}),
         "times must be strictly increasing; violated at row 8", 8),
    ], ids=["points-off-sphere", "curve-off-sphere", "curve-non-uniform", "curve-repeated-t"])
    def test_csv_errors_name_the_data_line(self, tmp_path, reader, text, message, row):
        """Rows are data lines after the header, blank lines included, in
        every ingestion error."""
        path = tmp_path / "curve.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(IngestionError) as err:
            reader(path)
        assert str(err.value) == message
        assert err.value.row == row

    @staticmethod
    def pointwise_jets(curve, t):
        """One time at a time, nodes included: the degree-4 interpolant
        through the 5-node window of the nearest node (the first or last 5
        nodes near the ends)."""
        f, h, n = curve.points, curve.step, len(curve.ts)
        i = int(np.clip(round((t - curve.ts[0]) / h), 0, n - 1))
        start = int(np.clip(i - 2, 0, n - 5))
        nodes = np.arange(start - i, start - i + 5)  # in steps from node i
        # the Lagrange basis in powers of s: integer coefficients over integer denominators
        basis = [np.poly(np.delete(nodes, j))[::-1] / np.prod(nodes[j] - np.delete(nodes, j))
                 for j in range(5)]
        coeff = np.transpose(basis) @ f[start:start + 5]
        s = (t - curve.ts[i]) / h
        return (s ** np.arange(5) @ coeff, np.arange(1, 5) * s ** np.arange(4) / h @ coeff[1:],
                np.array([2.0, 6.0 * s, 12.0 * s * s]) / (h * h) @ coeff[2:])

    @pytest.mark.parametrize("n", [5, 6, 257])
    def test_batch_matches_pointwise_jets(self, n):
        ts = np.arange(n) * (6.0 / (n - 1))
        X, _, _ = SphericalCompound((RotatingFrame([0.3, -0.5, 0.8], SinusoidalPhase(0.9, 1.3)),
                                     RotatingFrame([1.0, 0.2, 0.1], LinearPhase(0.7))),
                                    [0.0, 0.0, 1.0]).batch(ts)
        curve = load_sampled(np.column_stack([ts, X]))
        h = curve.step
        t_all = np.concatenate([ts, ts[:2] + 1e-10 * h, ts[-2:] - 1e-10 * h, [6.0 + 1e-10 * h],
                                np.random.default_rng(n).uniform(0.0, 6.0, 200),
                                ts[:3] + 0.3 * h, ts[-3:] - 0.4 * h, ts[1:-1] + 0.5 * h])
        got = curve.batch(t_all)
        want = [np.array(z) for z in zip(*(self.pointwise_jets(curve, t) for t in t_all))]
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12 * np.abs(w).max())
        assert np.array_equal(curve.batch(ts)[0], curve.points)  # each node is its data row

    def test_end_node_jets_are_their_neighbours_limits(self):
        """At the two nodes nearest each end, every jet is continuous: a
        node takes its values from the polynomial its neighbours use."""
        curve = dense_sampled_9409()
        h, n = curve.step, len(curve.ts)
        for i in (0, 1, n - 2, n - 1):
            t = curve.ts[i]
            at, *sides = (curve.batch(np.array([t + d])) for d in (0.0, -1e-9 * h, 1e-9 * h))
            for J, *near in zip(at, *sides):
                for K in near:
                    np.testing.assert_allclose(K, J, rtol=0, atol=1e-10 * np.abs(J).max(),
                                               err_msg=f"node {i}")

    def test_dense_sampled_sups_reach_the_denser_grid(self):
        """The reported speed and r2 sups are at least the max over a 4x
        denser grid, less 1e-9 relative; the speed peaks next to the last
        node."""
        curve = dense_sampled_9409()
        window = default_window(curve)
        rep = sphere_bound_report(curve, window)
        dense = TimeWindow(window.t_min, window.t_max, 4 * (window.samples - 1) + 1)
        X, Xd, Xdd = curve.batch(dense.grid())
        for est, values in ((rep.speed, np.linalg.norm(Xd, axis=1)),
                            (rep.r2, np.linalg.norm(curve.manifold.covariant_accel_array(X, Xdd),
                                                    axis=1))):
            assert est.value >= values.max() * (1.0 - 1e-9), (est, values.max())

    def test_batch_rejects_times_outside_and_nan(self):
        curve, ts = self.grid_curve()
        with pytest.raises(OutOfDomainError, match=r"^t = 0\.75 outside sampled domain"):
            curve.batch(np.array([0.0, 0.75]))
        with pytest.raises(OutOfDomainError, match="^t = nan outside sampled domain"):
            curve.batch(np.array([0.0, np.nan]))


class TestSupNorm:
    def test_constant_speed_latitude(self):
        est = sup_norm(Latitude(math.pi / 4, LinearPhase(1.0)),
                       TimeWindow(-10.0, 10.0, 20001), speed)
        assert abs(est.value - math.sin(math.pi / 4)) <= 1e-9

    def test_geodesic_accel_zero(self):
        est = sup_norm(unit_great_circle(), TimeWindow(-5.0, 5.0, 2001), SPHERE_ACCEL)
        assert est.value <= 1e-9

    def test_latitude_accel_closed_form(self):
        est = sup_norm(Latitude(math.pi / 4, LinearPhase(1.0)),
                       TimeWindow(-10.0, 10.0, 20001), SPHERE_ACCEL)
        assert abs(est.value - 0.5) <= 1e-9

    def test_constant_speed_any_window(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            th = rng.uniform(0.2, 1.4)
            om = rng.uniform(0.3, 3.0)
            a, b = sorted(rng.uniform(-8, 8, size=2))
            est = sup_norm(Latitude(th, LinearPhase(om)),
                           TimeWindow(a, b + 0.5, 501), speed)
            assert abs(est.value - om * math.sin(th)) <= 1e-9

    def test_monotone_under_grid_doubling(self):
        curve = Latitude(0.8, SinusoidalPhase(1.1, 2.3, drift=0.4))
        for samples in (11, 33, 101):
            w1 = TimeWindow(-3.0, 5.0, samples)
            w2 = TimeWindow(-3.0, 5.0, 2 * samples - 1)  # nested refinement
            coarse = sup_norm(curve, w1, speed, refine=False).value
            fine = sup_norm(curve, w2, speed, refine=False).value
            assert fine >= coarse

    def test_refinement_improves_oscillatory(self):
        curve = Latitude(0.8, SinusoidalPhase(1.1, 2.3, drift=0.4))
        w = TimeWindow(-3.0, 5.0, 101)
        coarse = sup_norm(curve, w, speed, refine=False).value
        refined = sup_norm(curve, w, speed).value
        assert refined >= coarse

    def test_refine_gain_measures_the_off_grid_improvement(self):
        sine = EuclideanAnalytic(((SinusoidalPhase(1.0, 1.0),),))
        window = TimeWindow(0.0, 3.0, 31)  # max at pi/2, between nodes 1.5 and 1.6
        grid = sup_norm(sine, window, lambda ts, X, Xd, Xdd: X[:, 0], refine=False)
        est = sup_norm(sine, window, lambda ts, X, Xd, Xdd: X[:, 0])
        assert grid.refine_gain == 0.0
        assert abs(est.value - 1.0) <= 1e-12 and est.value > grid.value
        assert est.refine_gain > 0.0
        assert est.refine_gain == (est.value - grid.value) / grid.value
        # a maximum sitting exactly on a node gains nothing
        peak = sup_norm(sine, TimeWindow(0.0, 2.0, 21), lambda ts, X, Xd, Xdd: -(ts - 1.0) ** 2)
        assert peak.argmax_t == 1.0 and peak.value == 0.0 and peak.refine_gain == 0.0

    def test_argmax_tie_breaks_smallest_t(self):
        curve = unit_great_circle()

        def plateau(ts, X, Xd, Xdd):  # exactly tied maxima on [0.3, 0.7]
            return np.where(np.abs(ts - 0.5) <= 0.2, 2.0, 1.0)

        est = sup_norm(curve, TimeWindow(0.0, 1.0, 11), plateau, refine=False)
        assert est.argmax_t == pytest.approx(0.3)

        def const(ts, X, Xd, Xdd):
            return np.ones_like(ts)

        est = sup_norm(curve, TimeWindow(0.0, 1.0, 11), const, refine=False)
        assert est.argmax_t == 0.0

    def test_numeric_failure_carries_t(self):
        curve = unit_great_circle()

        def bad(ts, X, Xd, Xdd):
            return np.where(ts > 2.0, np.nan, 1.0)

        with pytest.raises(NumericFailureError) as err:
            sup_norm(curve, TimeWindow(0.0, 4.0, 101), bad)
        assert err.value.t is not None and err.value.t > 2.0

    def test_window_validation(self):
        with pytest.raises(InvalidInputError):
            TimeWindow(1.0, 0.0, 11)
        with pytest.raises(InvalidInputError):
            TimeWindow(0.0, 1.0, 2)

    def test_sampled_window_respects_domain(self):
        ts = np.arange(101) * 0.01
        rows = np.column_stack([ts, np.cos(ts), np.sin(ts), np.zeros_like(ts)])
        curve = load_sampled(rows)
        # end nodes carry the 2nd-order one-sided error ~ h^2/3, which the
        # sup legitimately picks up
        est = sup_norm(curve, TimeWindow(0.0, 1.0, 101), speed)
        assert abs(est.value - 1.0) <= 1e-4
        with pytest.raises(OutOfDomainError):
            sup_norm(curve, TimeWindow(0.0, 2.0, 11), speed)


class TestEuclideanAnalytic:
    def test_sine_eval(self):
        f = EuclideanAnalytic(((SinusoidalPhase(1.0, 1.0),),))
        ev = f.evaluate(0.3)
        assert ev.x[0] == pytest.approx(math.sin(0.3))
        assert ev.xdot[0] == pytest.approx(math.cos(0.3))
        assert ev.xddot[0] == pytest.approx(-math.sin(0.3))

    def test_sum_of_terms(self):
        f = EuclideanAnalytic(((SinusoidalPhase(1.0, 1.0), SinusoidalPhase(0.25, 2.0)),))
        ev = f.evaluate(0.7)
        assert ev.x[0] == pytest.approx(math.sin(0.7) + math.sin(1.4) / 4)
