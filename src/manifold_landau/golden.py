"""One-dimensional maximization: scalar golden section, and a
bracket-batched parabolic search seeded from a grid.

The batched search runs Brent's safeguarded parabolic step (Brent 1973,
*Algorithms for Minimization without Derivatives*, ch. 5) on several
brackets at once, so a vectorized objective is called once per step for
all of them. Each bracket starts from three grid points whose values are
already known, so the first step is the vertex of their parabola and a
smooth peak is pinned in a handful of steps; golden section is the
per-bracket fallback whenever the parabola cannot be trusted.
"""

import math

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_max(f, a: float, b: float, tol: float = 1e-10, maxiter: int = 60):
    """Maximize scalar f on [a, b]; returns (x_best, f_best).

    Endpoints are evaluated too, so a maximum sitting on the bracket edge
    (a clamped window end) is never missed.
    """
    a, b = (a, b) if a <= b else (b, a)
    best_x, best_y = a, f(a)
    yb = f(b)
    if yb > best_y:
        best_x, best_y = b, yb
    h = b - a
    if h <= tol:
        return best_x, best_y
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    yc, yd = f(c), f(d)
    for _ in range(maxiter):
        if yc > yd:
            b, d, yd = d, c, yc
            h = INV_PHI * h
            c = a + INV_PHI2 * h
            yc = f(c)
            if yc > best_y:
                best_x, best_y = c, yc
        else:
            a, c, yc = c, d, yd
            h = INV_PHI * h
            d = a + INV_PHI * h
            yd = f(d)
            if yd > best_y:
                best_x, best_y = d, yd
        if h <= tol:
            break
    return best_x, best_y


def golden_max_batch(f_batch, ts, ys, tol: float = 1e-10, maxiter: int = 60):
    """Maximize on several brackets at once, each seeded by three points.

    ts = (lo, mid, hi) are arrays of abscissae with lo <= mid <= hi and
    ys their values; mid may coincide with an end (a bracket centred on
    a window end). f_batch maps an array of abscissae, one per bracket,
    to their values. tol is one number or an array of one per bracket.
    Returns (x_best, y_best) arrays, one entry per bracket: the best
    point seen, never worse than the best seed.

    A bracket whose mid value is below an end's has no interior peak to
    find there and returns that end without evaluating anything. Every
    other bracket takes Brent steps until its best point is within tol
    of both bracket ends or it has made maxiter evaluations. A finished bracket stays put: its probe
    repeats its best point and the value is ignored, so each bracket's
    result depends on its own values only.
    """
    lo, mid, hi = (np.asarray(t, dtype=float) for t in ts)
    y_lo, y_mid, y_hi = (np.asarray(y, dtype=float) for y in ys)
    a, b = lo, hi
    hi_best = y_hi > np.maximum(y_mid, y_lo)
    done = hi_best | (y_lo > y_mid)
    x = np.where(hi_best, hi, np.where(y_lo > y_mid, lo, mid))
    fx = np.maximum(np.maximum(y_lo, y_mid), y_hi)
    # w the other point the parabola passes through (the better end, or
    # the far end when mid is an end), v the remaining one
    w_hi = (lo == mid) | ((hi != mid) & (y_hi > y_lo))
    w, fw = np.where(w_hi, hi, lo), np.where(w_hi, y_hi, y_lo)
    v, fv = np.where(w_hi, lo, hi), np.where(w_hi, y_lo, y_hi)
    # e is the step before last: the full width lets the first two steps be
    # parabolic, and 0 sends a bracket centred on its end to golden section
    e = d = np.where((lo == mid) | (hi == mid), 0.0, b - a)
    tol1 = tol / 2.0  # the smallest step
    for _ in range(maxiter):
        xm = 0.5 * (a + b)
        done = done | (np.maximum(x - a, b - x) <= tol)
        if np.all(done):
            break
        # vertex of the parabola through (x, w, v), as the offset p / q from x
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        # trust it only if it shrinks the step below half the one before
        # last and lands strictly inside the bracket
        parabolic = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                     & (p > q * (a - x)) & (p < q * (b - x)))
        vertex = p / np.where(q > 0.0, q, 1.0)
        toward_mid = np.copysign(tol1, xm - x)
        crowded = (vertex - (a - x) < 2.0 * tol1) | ((b - x) - vertex < 2.0 * tol1)
        seg = np.where(x >= xm, a - x, b - x)  # the larger side of x
        step = np.where(parabolic, np.where(crowded, toward_mid, vertex), INV_PHI2 * seg)
        step = np.where(np.abs(step) >= tol1, step, toward_mid)
        e, d = np.where(parabolic, d, seg), step
        u = np.where(done, x, x + step)
        fu = np.asarray(f_batch(u), dtype=float)
        live = ~done
        better = live & (fu > fx)
        worse = live & ~better
        # shrink the bracket to the side of x that holds the better point
        a = np.where(better & (u >= x) | worse & (u < x), np.where(better, x, u), a)
        b = np.where(better & (u < x) | worse & (u >= x), np.where(better, x, u), b)
        # x the best point so far, w the second best, v the previous w
        shift_w = better | worse & ((fu >= fw) | (w == x))
        new_v = worse & ((fu >= fv) | (v == x) | (v == w))
        v = np.where(shift_w, w, np.where(new_v, u, v))
        fv = np.where(shift_w, fw, np.where(new_v, fu, fv))
        w = np.where(better, x, np.where(shift_w, u, w))
        fw = np.where(better, fx, np.where(shift_w, fu, fw))
        x, fx = np.where(better, u, x), np.where(better, fu, fx)
    return x, fx
