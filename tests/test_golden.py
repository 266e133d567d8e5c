import math

import numpy as np
import pytest

from manifold_landau import curves
from manifold_landau.auxfun import EuclideanQuadratic, IntrinsicHalfSquare
from manifold_landau.curves import (
    EuclideanAnalytic,
    Latitude,
    SinusoidalPhase,
    TimeWindow,
    default_window,
    load_sampled,
)
from manifold_landau.geometry import SurfacePoint
from manifold_landau.golden import INV_PHI2, golden_max_batch
from manifold_landau.inequality import (
    PROBE_SAMPLES,
    build_curve,
    classical_landau_check,
    manifold_bound_report,
    sample_params,
    sphere_bound_report,
)
from test_inequality import aperiodic_compound

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_copy(f_batch, lo, hi, tol, maxiter):
    """The golden-section loop the parabolic search replaced, as it was,
    except that its opening evaluates the four points in four calls."""
    a, b = np.minimum(lo, hi), np.maximum(lo, hi)
    h = b - a
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    ya, yb, yc, yd = (np.asarray(f_batch(z), dtype=float) for z in (a, b, c, d))
    best_x = np.where(ya >= yb, a, b)
    best_y = np.maximum(ya, yb)
    for _ in range(maxiter):
        take_c = yc > yd
        b = np.where(take_c, d, b)
        a = np.where(take_c, a, c)
        h = INV_PHI * h
        new_lo = a + INV_PHI2 * h
        new_hi = a + INV_PHI * h
        probe = np.where(take_c, new_lo, new_hi)
        y_probe = np.asarray(f_batch(probe), dtype=float)
        kept = np.where(take_c, yc, yd)
        c, d = new_lo, new_hi
        yc = np.where(take_c, y_probe, kept)
        yd = np.where(take_c, kept, y_probe)
        improve = y_probe > best_y
        best_x = np.where(improve, probe, best_x)
        best_y = np.where(improve, y_probe, best_y)
        if np.all(h <= tol):
            break
    return best_x, best_y


def seeded(f, *ts):
    ts = tuple(np.asarray(t, dtype=float) for t in ts)
    return ts, tuple(f(t) for t in ts)


def recording(f):
    calls = []

    def f_batch(u):
        calls.append(np.array(u))
        return f(u)

    return f_batch, calls


class TestParabolicSteps:
    @pytest.mark.parametrize("vertex", [0.137, 0.063, 0.1001, 0.149])
    def test_quadratic_first_step_is_the_vertex(self, vertex):
        f = lambda t: 2.5 - 3.0 * (t - vertex) ** 2
        f_batch, calls = recording(f)
        ts, ys = seeded(f, [0.0], [0.1], [0.2])
        x, y = golden_max_batch(f_batch, ts, ys, tol=1e-7, maxiter=32)
        assert abs(calls[0][0] - vertex) <= 1e-15
        assert len(calls) <= 4, len(calls)
        assert abs(x[0] - vertex) <= 1e-7 and y[0] == f(x)[0] and y[0] >= 2.5 - 1e-15

    def test_quadratic_peak_on_the_grid_point(self):
        f = lambda t: 2.5 - 3.0 * (t - 0.1) ** 2
        f_batch, calls = recording(f)
        ts, ys = seeded(f, [0.0], [0.1], [0.2])
        x, y = golden_max_batch(f_batch, ts, ys, tol=1e-7, maxiter=32)
        # the vertex is the mid itself: one smallest step to each side
        assert len(calls) == 2 and abs(abs(calls[0][0] - 0.1) - 0.5e-7) <= 1e-15
        assert (x[0], y[0]) == (0.1, 2.5)

    @pytest.mark.parametrize("seeds, best", [
        (([0.0], [0.1], [0.2]), 0),        # falling: lo is best
        (([0.0], [0.1], [0.2]), 2),        # rising: hi is best
        (([0.0], [0.0], [0.1]), 2),        # centred on the window start, rising
        (([0.1], [0.2], [0.2]), 0),        # centred on the window end, falling
    ])
    def test_monotone_bracket_returns_its_grid_end_unevaluated(self, seeds, best):
        slope = -1.0 if best == 0 else 1.0
        f = lambda t: slope * np.asarray(t) + 0.5 * np.asarray(t) ** 2
        f_batch, calls = recording(f)
        ts, ys = seeded(f, *seeds)
        x, y = golden_max_batch(f_batch, ts, ys, tol=1e-7, maxiter=32)
        assert calls == []
        assert (x[0], y[0]) == (ts[best][0], ys[best][0])
        # batched with a live bracket, its probe stays on its grid end
        g = lambda t: np.where(np.asarray(t) < 1.0, f(t), -(np.asarray(t) - 1.13) ** 2)
        g_batch, calls = recording(g)
        both = seeded(g, *(np.append(t, t0) for t, t0 in zip(seeds, (1.0, 1.1, 1.2))))
        x, y = golden_max_batch(g_batch, *both, tol=1e-7, maxiter=32)
        assert calls and all(u[0] == ts[best][0] for u in calls)
        assert (x[0], y[0]) == (ts[best][0], ys[best][0]) and abs(x[1] - 1.13) <= 1e-7

    @pytest.mark.parametrize("peak", [0.003, 0.03, 0.045])
    def test_bracket_centred_on_a_window_end_finds_an_interior_peak(self, peak):
        f = lambda t: np.cos(10.0 * (t - peak))
        f_batch, calls = recording(f)
        ts, ys = seeded(f, [0.0], [0.0], [0.1])
        assert ys[0][0] > ys[2][0]
        x, y = golden_max_batch(f_batch, ts, ys, tol=1e-8, maxiter=32)
        assert calls[0][0] == 0.1 * INV_PHI2  # golden section first
        assert abs(x[0] - peak) <= 1e-8 and y[0] >= 1.0 - 1e-15
        mirrored = lambda t: f(0.1 - t)
        xm, ym = golden_max_batch(mirrored, *seeded(mirrored, [0.0], [0.1], [0.1]),
                                  tol=1e-8, maxiter=32)
        assert abs(xm[0] - (0.1 - peak)) <= 1e-8 and ym[0] >= 1.0 - 1e-15

    def test_brackets_do_not_see_each_other(self):
        def f(t):
            return np.sin(3.0 * t) + 0.2 * np.cos(7.0 * t)

        lo = np.array([0.0, 0.3, 1.0, 2.0, 2.6, 4.0])
        mid = lo + 0.05
        mid[0] = lo[0]  # one bracket centred on its end
        ts, ys = seeded(f, lo, mid, lo + 0.1)
        together = golden_max_batch(f, ts, ys, tol=1e-9, maxiter=32)
        for j in range(len(lo)):
            alone = golden_max_batch(f, [t[j:j + 1] for t in ts], [y[j:j + 1] for y in ys],
                                     tol=1e-9, maxiter=32)
            assert (alone[0][0], alone[1][0]) == (together[0][j], together[1][j])

    def test_maxiter_caps_the_evaluations(self):
        f = lambda t: -np.abs(np.asarray(t) - 0.0123456)
        f_batch, calls = recording(f)
        ts, ys = seeded(f, [0.0], [0.0], [0.1])
        golden_max_batch(f_batch, ts, ys, tol=1e-15, maxiter=5)
        assert len(calls) == 5


class TestAgainstGoldenSection:
    """Every refined sup stays at or above its grid value and matches the
    golden-section loop it replaced: within 1e-12 relative in value, and
    in t within tol of the loop's argmax or of another of its brackets
    whose value ties to 1e-12 (a twin peak). Double-precision values only
    resolve a smooth peak to about r = sqrt(32 eps |f| / |f''|), which at
    40001 samples is a few tol; there t may differ by up to r."""

    @pytest.fixture
    def compare(self, monkeypatch):
        brackets = []

        def both(f_batch, ts, ys, tol, maxiter):
            x, y = golden_max_batch(f_batch, ts, ys, tol=tol, maxiter=maxiter)
            xo, yo = golden_copy(f_batch, ts[0], ts[2], tol=tol, maxiter=maxiter)
            brackets.append((ts, ys, x, y, xo, yo, tol))
            return x, y

        monkeypatch.setattr(curves, "golden_max_batch", both)
        return brackets

    @staticmethod
    def assert_matches(brackets):
        assert brackets
        specs = 0
        eps = np.finfo(float).eps
        for ts, ys, x, y, xo, yo, tol in brackets:
            assert np.all(y >= np.maximum.reduce(ys))
            per_spec = (np.reshape(z, (-1, 3)) for z in (*ts, *ys, x, y, xo, yo))
            for t_lo, t_mid, t_hi, y_lo, y_mid, y_hi, bx, by, ox, oy in zip(*per_spec):
                grid_v = y_mid.max()
                grid_t = t_mid[np.argmax(y_mid)]

                def refined(xs, ys):
                    m = int(np.argmax(ys))
                    return (xs[m], ys[m], m) if ys[m] > grid_v else (grid_t, grid_v, m)

                new_t, new_v, m = refined(bx, by)
                old_t, old_v, _ = refined(ox, oy)
                assert new_v >= grid_v
                assert abs(new_v - old_v) <= 1e-12 * abs(old_v), (new_v, old_v)
                tied = ox[np.abs(oy - old_v) <= 1e-12 * abs(old_v)]
                h = 0.5 * (t_hi[m] - t_lo[m])
                curvature = abs(y_lo[m] - 2.0 * y_mid[m] + y_hi[m]) / (h * h)
                resolution = math.sqrt(32.0 * eps * abs(new_v) / curvature) if curvature else 0.0
                distance = min(abs(new_t - t) for t in [old_t, *tied])
                assert distance <= max(tol, resolution), (new_t, old_t, tol, resolution)
                specs += 1
        return specs

    def test_probe_compounds(self, compare):
        for seed in range(200):
            curve = build_curve("compound", sample_params("compound", np.random.default_rng(seed)))
            sphere_bound_report(curve, default_window(curve, samples=PROBE_SAMPLES))
        assert self.assert_matches(compare) == 200 * 4

    def test_fused_scan_curves(self, compare):
        compound = aperiodic_compound()
        ts = np.linspace(0.0, 8.0, 1025)
        sampled = load_sampled(np.column_stack([ts, compound.batch(ts)[0]]))
        for curve in (compound, Latitude(0.9, SinusoidalPhase(1.1, 2.0, drift=0.3)), sampled):
            sphere_bound_report(curve)
        manifold_bound_report(compound, IntrinsicHalfSquare(SurfacePoint([0.0, 0.0, 1.0])))
        manifold_bound_report(
            EuclideanAnalytic(((SinusoidalPhase(1.0, 1.0),), (SinusoidalPhase(0.5, 0.7071),))),
            EuclideanQuadratic(np.array([0.1, -0.2])), TimeWindow(-10.0, 10.0, 4001))
        classical_landau_check(
            EuclideanAnalytic(((SinusoidalPhase(1.0, 1.0), SinusoidalPhase(0.3, 2.7)),)),
            TimeWindow(-10.0, 10.0, 4001))
        assert self.assert_matches(compare) == 5 * 4 + 3

