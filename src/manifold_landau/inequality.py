"""The derivative inequality itself: constant, bound reports, diagnostics,
the hypothesis-failure counterexample and an empirical sharpness probe.

The manifold bound reads

    sup |x'|^2  <=  (C^2 / lambda) * r0 * r2

with r0 the sup of |grad U| along the curve, r2 the sup of the covariant
acceleration norm, lambda the convexity constant of U along the curve,
and C the positive root of z^3 - 3z - 1 = 0. All suprema over the real
line are estimated on a finite window, so a report always names its
window; for periodic curves one period is exact.
"""

import math
import pickle
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .auxfun import AuxFunction, ChordalHalfSquare, LambdaEstimate, closed_form_lambda
from .chebyshev import CapCenter, chebyshev_center
from .curves import (
    CurveStack,
    GreatCircle,
    JetTable,
    Latitude,
    LinearPhase,
    QuadraticPhase,
    Quantity,
    RotatingFrame,
    SinusoidalPhase,
    SphericalCompound,
    SupEstimate,
    TimeWindow,
    curve_jets,
    default_window,
    scan_extremum,
    speed,
)
from .errors import HypothesisViolationError, InvalidInputError, NumericFailureError

BOUND_TOL = 1e-9          # satisfied means lhs <= rhs * (1 + BOUND_TOL)
DIAG_REL_TOL = 1e-6       # per-sample diagnostic tolerance, relative
DIAG_ABS_FLOOR = 1e-12

EXPONENT_NOTE = ("sphere bound applied to the squared velocity sup norm, "
                 "consistent with the general bound's derivation")


@dataclass(frozen=True)
class LandauConstant:
    """Positive root of z^3 - 3z - 1 = 0; equals 2 cos(pi/9)."""

    C: float
    residual: float


@cache
def landau_constant() -> LandauConstant:
    """C = 2 cos(pi/9): cos(3a) = 4 cos^3 a - 3 cos a at a = pi/9 gives
    C^3 - 3C = 2 cos(pi/3) = 1."""
    C = 2.0 * math.cos(math.pi / 9.0)
    return LandauConstant(C=C, residual=C * C * C - 3.0 * C - 1.0)


@dataclass(frozen=True)
class BoundReport:
    """Every quantity entering the bound, plus its verdict.

    hypotheses_ok requires a finite sup of U along the curve, a finite
    positive r0 and a strictly positive lambda; when it is False the
    bound makes no claim and `satisfied` is informational only.
    """

    r0: SupEstimate
    r2: SupEstimate
    lam: LambdaEstimate
    speed: SupEstimate
    sup_u: float
    lhs: float
    rhs: float
    slack_ratio: float
    hypotheses_ok: bool
    satisfied: bool
    window: TimeWindow
    rhs_relaxed: float | None = None
    cap: CapCenter | None = None
    notes: tuple = ()


def _slack(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    if not math.isfinite(rhs):
        return 0.0
    return lhs / rhs


def manifold_bound_report(curve, U: AuxFunction, window: TimeWindow | None = None,
                          jets: JetTable | None = None) -> BoundReport:
    """Evaluate the general bound for a curve and auxiliary function.

    Every sup and lambda (the window minimum of the closed-form unit
    Hessian minimum) come from one fused scan of the window's jets. A
    vanishing r0 or nonpositive lambda is a hypothesis violation, not an
    exception: the report comes back with hypotheses_ok False.
    """
    if U.manifold.kind != curve.manifold.kind or U.manifold.dim != curve.manifold.dim:
        raise InvalidInputError("curve and auxiliary function live on different manifolds")
    window = window or default_window(curve)
    jets = curve_jets(curve, window) if jets is None else jets
    return _bound_reports(CurveStack([curve]), [U], [window],
                          JetTable(*(a[None] for a in jets)))[0]


def _bound_reports(stack: CurveStack, Us, windows, jets: JetTable) -> list:
    """manifold_bound_report of each member of a stack, from one stacked
    scan: member b with Us[b] on windows[b], jets = stack.jets(windows)."""
    accel = stack.manifold.covariant_accel_norm  # one function object: all rows at once

    def quantities(U):
        return [Quantity(speed), Quantity(accel),
                Quantity(lambda ts, X, Xd, Xdd: U.gradient_norm_batch(X)),
                # sup of U enters only through its finiteness, grid precision suffices
                Quantity(lambda ts, X, Xd, Xdd: U.value_batch(X), refine=False),
                Quantity(lambda ts, X, Xd, Xdd: U.unit_hessian_min_batch(X), mode="min")]

    scans = scan_extremum(stack, windows, [quantities(U) for U in Us], jets=jets)
    X_lam = stack.batch([[lam.argmax_t] for *_, lam in scans])[0]  # lambda's argmin points
    C = landau_constant().C
    reports = []
    for U, window, (v, r2, r0, sup_u, lam), x in zip(Us, windows, scans, X_lam):
        lam = closed_form_lambda(U, x[0], lam)
        lhs = v.value ** 2
        if lam.value == 0.0:
            rhs = math.inf
        else:
            rhs = C * C * r0.value * r2.value / lam.value
        hypotheses_ok = bool(math.isfinite(sup_u.value) and 0.0 < r0.value
                             and math.isfinite(r0.value) and lam.value > 0.0)
        satisfied = bool(lhs <= rhs * (1.0 + BOUND_TOL)) if math.isfinite(rhs) else True
        notes = ()
        if not hypotheses_ok:
            notes = ("hypotheses violated: the bound makes no claim on this curve",)
        reports.append(BoundReport(r0=r0, r2=r2, lam=lam, speed=v, sup_u=sup_u.value,
                                   lhs=lhs, rhs=rhs, slack_ratio=_slack(lhs, rhs),
                                   hypotheses_ok=hypotheses_ok, satisfied=satisfied,
                                   window=window, notes=notes))
    return reports


def sphere_bound_report(curve, window: TimeWindow | None = None,
                        cap: CapCenter | None = None,
                        jets: JetTable | None = None) -> BoundReport:
    """Sphere specialization: the auxiliary function is the chordal half
    square centered at the smallest-cap center of the window samples.

    Reports both the tight right-hand side (r0 from the gradient-norm
    sup) and the relaxed one using sqrt(1 - lambda^2).
    """
    if not curve.manifold.is_sphere:
        raise InvalidInputError("sphere bound needs a sphere curve")
    window = window or default_window(curve)
    jets = curve_jets(curve, window) if jets is None else jets
    if cap is None:
        cap = chebyshev_center(jets.X)
    return _with_cap(manifold_bound_report(curve, ChordalHalfSquare(cap.e), window, jets=jets), cap)


def sphere_bound_reports(curves, windows) -> list:
    """sphere_bound_report(curve, window) of each curve, with its window,
    from one stacked evaluation: one jet table, one scan and one search
    for all of them. The windows share a sample count; each report equals
    its lone one bit for bit."""
    stack = CurveStack(curves)
    if not stack.manifold.is_sphere:
        raise InvalidInputError("sphere bound needs a sphere curve")
    jets = stack.jets(windows)
    caps = [chebyshev_center(X) for X in jets.X]
    reports = _bound_reports(stack, [ChordalHalfSquare(cap.e) for cap in caps], windows, jets)
    return [_with_cap(rep, cap) for rep, cap in zip(reports, caps)]


def _with_cap(rep: BoundReport, cap: CapCenter) -> BoundReport:
    C = landau_constant().C
    lv = rep.lam.value
    if lv == 0.0:
        rhs_relaxed = math.inf
    else:
        rhs_relaxed = C * C * math.sqrt(max(0.0, 1.0 - lv * lv)) * rep.r2.value / lv
    return replace(rep, cap=cap, rhs_relaxed=rhs_relaxed,
                   notes=rep.notes + (EXPONENT_NOTE,))


@dataclass(frozen=True)
class ClassicalReport:
    """Scalar second-derivative inequality |f'|^2 <= 2 |f| |f''|."""

    f_sup: SupEstimate
    fprime_sup: SupEstimate
    fsecond_sup: SupEstimate
    lhs: float
    rhs: float
    slack_ratio: float
    satisfied: bool
    window: TimeWindow
    notes: tuple = ()


def classical_landau_check(curve, window: TimeWindow | None = None,
                           jets: JetTable | None = None) -> ClassicalReport:
    """Check the constant-2 scalar inequality on a window.

    The Banach-space-valued analogue holds with constant 4 instead of 2;
    that variant is recorded as a note, not checked.
    """
    if curve.manifold.is_sphere or curve.manifold.dim != 1:
        raise InvalidInputError("classical check needs a scalar curve")
    window = window or default_window(curve)
    f_sup, fp_sup, fpp_sup = scan_extremum(
        curve, window, [Quantity(lambda ts, X, Xd, Xdd: np.abs(X[:, 0])), Quantity(speed),
                        Quantity(curve.manifold.covariant_accel_norm)], jets=jets)
    lhs = fp_sup.value ** 2
    rhs = 2.0 * f_sup.value * fpp_sup.value
    return ClassicalReport(
        f_sup=f_sup, fprime_sup=fp_sup, fsecond_sup=fpp_sup,
        lhs=lhs, rhs=rhs, slack_ratio=_slack(lhs, rhs),
        satisfied=bool(lhs <= rhs * (1.0 + BOUND_TOL) + 1e-15),
        window=window,
        notes=("Banach-space-valued analogue holds with constant 4 (not checked)",),
    )


@dataclass(frozen=True)
class ProofDiagnostics:
    """Sampled checks of the intermediate bounds behind the main estimate.

    Each flag is the conjunction of per-sample checks at relative
    tolerance 1e-6; margins are the worst signed values of
    (checked quantity - its bound). These are consequence checks on the
    window, not a reconstruction of the global argument.
    """

    v_bound_ok: bool
    speed_lipschitz_ok: bool
    chain_ok: bool
    v_bound_worst_t: float
    v_bound_margin: float
    speed_worst_t: float
    speed_margin: float
    chain_worst_t: float
    chain_margin: float
    window: TimeWindow


def proof_diagnostics(curve, U: AuxFunction, window: TimeWindow | None = None,
                      report: BoundReport | None = None,
                      jets: JetTable | None = None) -> ProofDiagnostics:
    """Check, at every grid sample:
      * v^2 <= r0^3 r2 / lambda          (v = <grad U o x, x'>)
      * |d|x'|/dt| <= r2                 (d|x'|/dt = <x', x''>/|x'| from the jets,
                                          where |x'| > 1e-8)
      * I(z) <= z0^3 where z >= z0       (z = |x'|, z0 = sqrt(r0 r2 / lambda),
                                          I(z) = z^3/3 - z0^2 z + 2 z0^3/3)
    Raises HypothesisViolationError when the bound's hypotheses fail.
    """
    window = report.window if report else window or default_window(curve)
    jets = curve_jets(curve, window) if jets is None else jets
    rep = report or manifold_bound_report(curve, U, window, jets=jets)
    if not rep.hypotheses_ok:
        raise HypothesisViolationError(
            "bound hypotheses fail on this curve; diagnostics are undefined")
    ts, X, Xd, Xdd = jets
    grads = U.gradient_batch(X)
    v = np.einsum("ni,ni->n", grads, Xd)
    r0, r2, lam = rep.r0.value, rep.r2.value, rep.lam.value

    v_bound = r0 ** 3 * r2 / lam
    v_excess = v * v - v_bound
    i_v = int(np.argmax(v_excess))
    v_ok = bool(v_excess[i_v] <= DIAG_REL_TOL * abs(v_bound) + 1e-16)

    z = np.linalg.norm(Xd, axis=1)
    mask = z > 1e-8
    dz = np.einsum("ni,ni->n", Xd, Xdd) / np.where(mask, z, 1.0)
    speed_excess = np.where(mask, np.abs(dz) - r2, -np.inf)
    i_s = int(np.argmax(speed_excess))
    s_ok = bool(not mask.any() or
                speed_excess[i_s] <= DIAG_REL_TOL * abs(r2) + DIAG_ABS_FLOOR)

    z0 = math.sqrt(max(0.0, r0 * r2 / lam))
    if z0 == 0.0:
        chain_excess = np.where(z >= z0, z - 1e-8, -np.inf)
        chain_bound = 0.0
    else:
        iz = z ** 3 / 3.0 - z0 * z0 * z + 2.0 * z0 ** 3 / 3.0
        chain_bound = z0 ** 3
        # |x'| = z0 exactly on constant-speed circles: without the
        # tolerance, roundoff decides whether any sample is checked
        chain_excess = np.where(z >= z0 * (1.0 - DIAG_REL_TOL), iz - chain_bound, -np.inf)
    i_c = int(np.argmax(chain_excess))
    c_ok = bool(np.all(chain_excess <= DIAG_REL_TOL * abs(chain_bound) + DIAG_ABS_FLOOR))

    return ProofDiagnostics(
        v_bound_ok=v_ok, speed_lipschitz_ok=s_ok, chain_ok=c_ok,
        v_bound_worst_t=float(ts[i_v]), v_bound_margin=float(v_excess[i_v]),
        speed_worst_t=float(ts[i_s]),
        speed_margin=float(speed_excess[i_s]) if mask.any() else -math.inf,
        chain_worst_t=float(ts[i_c]), chain_margin=float(chain_excess[i_c]),
        window=window,
    )


# ---------------------------------------------------------------------------
# counterexample: bounded covariant acceleration, unbounded speed


def counterexample_curve() -> GreatCircle:
    """Great circle swept with quadratic phase t^2/2: the covariant
    acceleration norm is identically 1 while the speed |t| is unbounded,
    so the hypotheses (here: lambda > 0) must fail on large windows."""
    return GreatCircle([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], QuadraticPhase(1.0))


def counterexample_window(T: float = 50.0, samples: int = 4001) -> TimeWindow:
    """The counterexample's window [0, T]."""
    if T <= 0:
        raise InvalidInputError("T must be positive")
    return TimeWindow(0.0, float(T), samples)


def counterexample_report(T: float = 50.0, samples: int = 4001,
                          jets: JetTable | None = None) -> BoundReport:
    """Sphere bound report of the counterexample on [0, T]; jets, when
    given, is the curve's table on counterexample_window(T, samples)."""
    window = counterexample_window(T, samples)
    rep = sphere_bound_report(counterexample_curve(), window, jets=jets)
    note = ("counterexample family: speed sup grows like T while the covariant "
            "acceleration sup stays 1")
    return replace(rep, notes=rep.notes + (note,))


# ---------------------------------------------------------------------------
# sharpness probe

PROBE_FAMILIES = ("latitude", "great_circle", "compound")
PROBE_SAMPLES = 513
STACK_ROWS = 1 << 14  # sample rows (curves x samples) one probe stack evaluates: about 5 MB


@dataclass(frozen=True)
class ProbeResult:
    family: str
    best_q: float
    best_sqrt_q: float
    best_params: dict
    q_upper: float  # C^2, the guaranteed ceiling
    evaluations: int
    skipped: int
    budget: int
    seed: int
    polished: bool
    notes: tuple = ()


def sample_params(family: str, rng: np.random.Generator) -> np.ndarray:
    """Random parameter vector for one probe family."""
    if family == "latitude":
        return np.array([rng.uniform(0.05, math.pi / 2 - 0.05)])
    if family == "great_circle":
        return np.array([rng.uniform(0.1, 1.4), rng.uniform(0.25, 4.0)])
    if family == "compound":
        m = int(rng.integers(2, 4))
        parts = [float(m)]
        for _ in range(m):
            parts += [rng.uniform(0.0, 2.0 * math.pi),   # axis azimuth
                      rng.uniform(-1.2, 1.2),            # axis elevation
                      rng.uniform(0.1, 1.0),             # amplitude
                      float(rng.integers(1, 4))]         # integer frequency
        return np.array(parts)
    raise InvalidInputError(f"unknown probe family {family!r}")


def build_curve(family: str, params: np.ndarray):
    """Instantiate a probe candidate; integer frequencies keep compounds
    periodic with period 2 pi."""
    if family == "latitude":
        theta0 = float(np.clip(params[0], 1e-3, math.pi / 2 - 1e-3))
        return Latitude(theta0, LinearPhase(1.0))
    if family == "great_circle":
        amp = float(np.clip(params[0], 0.01, 1.5))
        omega = float(np.clip(params[1], 0.05, 6.0))
        return GreatCircle([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], SinusoidalPhase(amp, omega))
    if family == "compound":
        m = int(round(params[0]))
        frames = []
        for i in range(m):
            az, el, amp, freq = params[1 + 4 * i: 5 + 4 * i]
            el = float(np.clip(el, -1.5, 1.5))
            amp = float(np.clip(amp, 0.01, 1.5))
            axis = np.array([math.cos(el) * math.cos(az),
                             math.cos(el) * math.sin(az),
                             math.sin(el)])
            frames.append(RotatingFrame(axis, SinusoidalPhase(amp, float(max(1, round(freq))))))
        return SphericalCompound(tuple(frames), np.array([0.0, 0.0, 1.0]))
    raise InvalidInputError(f"unknown probe family {family!r}")


def probe_q(curve, samples: int = PROBE_SAMPLES):
    """Q = lambda * lhs / (r0 * r2) for the sphere bound with the cap
    center as auxiliary center; the bound guarantees Q <= C^2. Returns
    (None, report) when the hypotheses fail."""
    return _q(sphere_bound_report(curve, default_window(curve, samples=samples)))


def _q(rep: BoundReport):
    denom = rep.r0.value * rep.r2.value
    if not rep.hypotheses_ok or denom <= 0.0:
        return None, rep
    return rep.lam.value * rep.lhs / denom, rep


def probe_qs(curves, samples: int = PROBE_SAMPLES) -> list:
    """probe_q(curve, samples)[0] of each curve, and None also where that
    raises an input or numeric error. Up to STACK_ROWS // samples curves
    are scored as one stack (sphere_bound_reports). A stack that raises is
    scored again curve by curve, so one failing curve never fails the
    others."""
    qs = []
    size = max(1, STACK_ROWS // samples)
    for lo in range(0, len(curves), size):
        part = curves[lo:lo + size]
        if len(part) > 1:
            try:
                reports = sphere_bound_reports(
                    part, [default_window(c, samples=samples) for c in part])
                qs += [_q(rep)[0] for rep in reports]
                continue
            except (InvalidInputError, NumericFailureError):
                pass
        for curve in part:
            try:
                qs.append(probe_q(curve, samples)[0])
            except (InvalidInputError, NumericFailureError):
                qs.append(None)
    return qs


class _BudgetSpent(Exception):
    pass


def _nelder_mead(f, x0, maxfev: int, xatol: float, fatol: float) -> None:
    """Minimize f from x0 step for step as scipy 1.17's default
    `minimize(method="Nelder-Mead")` does, so it evaluates the same points
    in the same order; the probe records each one, so nothing is returned.

    f maps a (k, N) array of points to their k values, in order. The
    initial simplex and each shrink, whose points do not depend on one
    another's values, go to f as one call; every other step is a call
    with one point."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    N = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (N + 1, 1))
    for k in range(N):
        sim[k + 1, k] = (1 + nonzdelt) * sim[k + 1, k] if sim[k + 1, k] != 0 else zdelt
    fsim = np.full(N + 1, np.inf)
    fcalls = 0

    def func(points):
        nonlocal fcalls
        within = points[:maxfev - fcalls]
        values = f(np.copy(within)) if len(within) else []
        fcalls += len(within)
        if len(within) < len(points):
            raise _BudgetSpent
        return values

    try:
        fsim[:] = func(sim)
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
        while fcalls < maxfev:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                return
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr, = func(xr[None])
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe, = func(xe[None])
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc, = func(xc[None])
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc, = func(xc[None])
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                    fsim[1:] = func(sim[1:])
            ind = np.argsort(fsim)
            sim, fsim = sim[ind], fsim[ind]
    except _BudgetSpent:
        pass


def sharpness_probe(family: str, budget: int, seed: int = 42) -> ProbeResult:
    """Random search over one family, then Nelder-Mead polish of the best
    candidate. Candidates whose hypotheses fail are skipped but counted.
    The best Q found is a lower bound on how sharp the constant is; the
    ceiling Q <= C^2 is asserted on every evaluation."""
    if family not in PROBE_FAMILIES:
        raise InvalidInputError(f"unknown probe family {family!r}")
    if budget < 1:
        raise InvalidInputError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    C = landau_constant().C
    ceiling = C * C * (1.0 + 1e-6)

    evaluations = 0
    skipped = 0
    best_q = -math.inf
    best_params = None
    # Q of each candidate curve, keyed on its pickle, which keeps every
    # float exact: the polish's first simplex vertex repeats the best
    # candidate, and build_curve rounds a moved frequency back
    q_of = {}

    def consider(candidates):
        """Q of each candidate, counted in order. Each is built once, and
        the curves not yet scored are scored together (probe_qs)."""
        nonlocal evaluations, skipped, best_q, best_params
        keys = []
        fresh = {}
        for params in candidates:
            try:
                curve = build_curve(family, params)
            except (InvalidInputError, NumericFailureError):
                keys.append(None)
                continue
            keys.append(pickle.dumps(curve))
            if keys[-1] not in q_of:
                fresh.setdefault(keys[-1], curve)
        q_of.update(zip(fresh, probe_qs(list(fresh.values()))))
        qs = []
        for params, key in zip(candidates, keys):
            q = None if key is None else q_of[key]
            evaluations += 1
            if q is None:
                skipped += 1
            elif q > ceiling:
                raise NumericFailureError(
                    f"probe found Q = {q!r} above the guaranteed ceiling C^2; this is a bug")
            elif q > best_q:
                best_q, best_params = q, np.array(params, dtype=float)
            qs.append(q)
        return qs

    stack = max(1, STACK_ROWS // PROBE_SAMPLES)
    for lo in range(0, budget, stack):
        consider([sample_params(family, rng) for _ in range(min(stack, budget - lo))])

    polished = False
    if best_params is not None and len(best_params) > 0:
        def neg_q(points):
            if family == "compound":
                points = [np.concatenate([[best_params[0]], p]) for p in points]
            return [math.inf if q is None else -q for q in consider(points)]

        x0 = best_params[1:] if family == "compound" else best_params
        if len(x0) > 0:
            _nelder_mead(neg_q, x0, maxfev=60, xatol=1e-6, fatol=1e-12)
            polished = True

    notes = ()
    if best_params is None:
        notes = ("no candidate satisfied the hypotheses",)
        best_q = math.nan
        best_dict = {}
    else:
        best_dict = {"vector": [float(p) for p in best_params]}
    return ProbeResult(
        family=family, best_q=best_q,
        best_sqrt_q=math.sqrt(best_q) if best_q == best_q and best_q >= 0 else math.nan,
        best_params=best_dict, q_upper=C * C,
        evaluations=evaluations, skipped=skipped, budget=budget, seed=seed,
        polished=polished, notes=notes,
    )
