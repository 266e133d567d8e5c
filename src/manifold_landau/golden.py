"""Golden-section refinement, scalar and bracket-batched.

The batched variant runs the same golden iteration on several brackets at
once so a vectorized objective is called once per iteration instead of
once per bracket per iteration.
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


def golden_max_batch(f_batch, lo: np.ndarray, hi: np.ndarray,
                     tol: float = 1e-10, maxiter: int = 60):
    """Run golden-section maximization on several brackets simultaneously.

    f_batch maps an array of abscissae to an array of values. Returns
    (x_best, y_best) arrays, one entry per bracket, with endpoint values
    included in the running best.
    """
    a = np.minimum(lo, hi).astype(float)
    b = np.maximum(lo, hi).astype(float)

    h = b - a
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    # the brackets' ends and first interior points in one call
    ya, yb, yc, yd = np.split(np.asarray(f_batch(np.concatenate([a, b, c, d])), dtype=float), 4)
    best_x = np.where(ya >= yb, a, b)
    best_y = np.maximum(ya, yb)
    for _ in range(maxiter):
        take_c = yc > yd
        # shrink to [a, d] where c wins, to [c, b] where d wins
        b = np.where(take_c, d, b)
        a = np.where(take_c, a, c)
        h = INV_PHI * h
        new_lo = a + INV_PHI2 * h
        new_hi = a + INV_PHI * h
        # where c won, the retained interior point is the old c (now at hi slot)
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
