"""Curve families on the unit sphere and R^d, and sup-norm scans.

Analytic families carry exact first and second derivatives. Sampled
curves differentiate their own grid with 4th-order central stencils in
the interior and 2nd-order one-sided stencils at the ends; between
nodes they evaluate the local degree-4 interpolant so scan refinement
has a continuous function to work with.

Suprema over the real line are approximated on a finite window: a
uniform grid scan, then a batched safeguarded parabolic search (golden
section as its fallback) seeded by the best grid points and their
neighbours. Periodic curves report their period so callers can
scan exactly one of them.
"""

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    IngestionError,
    InvalidCurveError,
    InvalidInputError,
    NumericFailureError,
    OutOfDomainError,
)
from .geometry import Manifold, as_vector, skew
from .golden import golden_max_batch

TWO_PI = 2.0 * math.pi
JET_BLOCK = 4096  # samples per compound propagation block: 0.9 MB of scratch buffers
PERIOD_TOL = 1e-9  # combine_periods: relative tolerance of a whole-number period ratio
PERIOD_MAX_MULTIPLE = 64  # combine_periods: multiples of the running period tried


# ---------------------------------------------------------------------------
# phase functions: the closed set of time laws used by the analytic families


@dataclass(frozen=True)
class LinearPhase:
    """theta(t) = omega t + phi"""

    omega: float
    phi: float = 0.0

    def jets(self, t):
        """(theta, theta', theta'') at the times t."""
        t = np.asarray(t, dtype=float)
        return self.omega * t + self.phi, np.full_like(t, self.omega), np.zeros_like(t)

    @property
    def is_constant(self):
        return self.omega == 0.0

    def value_period(self):
        return None

    def mod2pi_period(self):
        if self.omega == 0.0:
            return None
        return TWO_PI / abs(self.omega)


@dataclass(frozen=True)
class QuadraticPhase:
    """theta(t) = alpha t^2 / 2 + omega t"""

    alpha: float
    omega: float = 0.0

    def jets(self, t):
        t = np.asarray(t, dtype=float)
        return (0.5 * self.alpha * t * t + self.omega * t, self.alpha * t + self.omega,
                np.full_like(t, self.alpha))

    @property
    def is_constant(self):
        return self.alpha == 0.0 and self.omega == 0.0

    def value_period(self):
        return None

    def mod2pi_period(self):
        if self.alpha == 0.0 and self.omega != 0.0:
            return TWO_PI / abs(self.omega)
        return None


@dataclass(frozen=True)
class SinusoidalPhase:
    """theta(t) = amp sin(omega t) + drift t"""

    amp: float
    omega: float
    drift: float = 0.0

    def jets(self, t):
        t = np.asarray(t, dtype=float)
        wt = self.omega * t
        s = np.sin(wt)
        return (self.amp * s + self.drift * t, self.amp * self.omega * np.cos(wt) + self.drift,
                -self.amp * self.omega ** 2 * s)

    @property
    def is_constant(self):
        return (self.amp == 0.0 or self.omega == 0.0) and self.drift == 0.0

    def value_period(self):
        if self.drift == 0.0 and self.amp != 0.0 and self.omega != 0.0:
            return TWO_PI / abs(self.omega)
        return None

    def mod2pi_period(self):
        if self.amp == 0.0 or self.omega == 0.0:
            return LinearPhase(self.drift).mod2pi_period()
        if self.drift == 0.0:
            return TWO_PI / abs(self.omega)
        return None


PHASE_KINDS = {"linear": LinearPhase, "quadratic": QuadraticPhase, "sinusoidal": SinusoidalPhase}


def combine_periods(periods):
    """Least common period of the given list, if the entries are
    commensurate within small integer multiples; None otherwise.

    Entries of None mean aperiodic and poison the result; an empty list
    (everything constant) also yields None.
    """
    ps = [p for p in periods]
    if not ps:
        return None
    if any(p is None for p in ps):
        return None
    common = ps[0]
    for p in ps[1:]:
        found = None
        for m in range(1, PERIOD_MAX_MULTIPLE + 1):
            ratio = m * common / p
            n = round(ratio)
            if n >= 1 and abs(ratio - n) <= PERIOD_TOL * max(1.0, ratio):
                found = m * common
                break
        if found is None:
            return None
        common = found
    return common


# ---------------------------------------------------------------------------
# evaluations and windows


@dataclass(frozen=True)
class CurveEvaluation:
    """Position, velocity and ambient second derivative at one time."""

    t: float
    x: np.ndarray
    xdot: np.ndarray
    xddot: np.ndarray


@dataclass(frozen=True)
class TimeWindow:
    t_min: float
    t_max: float
    samples: int

    def __post_init__(self):
        if not (math.isfinite(self.t_min) and math.isfinite(self.t_max)):
            raise InvalidInputError("window endpoints must be finite")
        if not self.t_min < self.t_max:
            raise InvalidInputError("window requires t_min < t_max")
        if self.samples < 3:
            raise InvalidInputError("window requires at least 3 samples")

    @property
    def step(self) -> float:
        return (self.t_max - self.t_min) / (self.samples - 1)

    def grid(self) -> np.ndarray:
        # t_min + k*step rather than linspace so that doubling the density
        # (samples' = 2*samples - 1) reproduces the coarse nodes bit-exactly
        ts = self.t_min + np.arange(self.samples) * self.step
        ts[-1] = self.t_max
        return ts


@dataclass(frozen=True)
class SupEstimate:
    """Windowed supremum of a scalar quantity along a curve."""

    value: float
    argmax_t: float
    grid_step: float
    refine_gain: float  # relative gain of refinement over the grid extremum, >= 0
    samples: int


DEFAULT_WINDOW = (-20.0, 20.0, 40001)
PERIODIC_SAMPLES = 4097


def default_window(curve, samples: int | None = None) -> TimeWindow:
    """One period when the curve is periodic, the curve's own grid for
    sampled data, else [-20, 20] x 40001."""
    period = curve.period()
    if period is not None:
        return TimeWindow(0.0, period, samples or PERIODIC_SAMPLES)
    dom = curve.domain()
    if dom is not None:
        n = getattr(curve, "ts", None)
        return TimeWindow(dom[0], dom[1], samples or (len(n) if n is not None else PERIODIC_SAMPLES))
    t_min, t_max, n = DEFAULT_WINDOW
    return TimeWindow(t_min, t_max, samples or n)


# ---------------------------------------------------------------------------
# curve families


class Curve:
    """Common interface: batch jets, scalar evaluation, optional period."""

    manifold: Manifold

    def batch(self, ts: np.ndarray):
        """Return (X, Xd, Xdd) arrays of shape (len(ts), dim)."""
        raise NotImplementedError

    def evaluate(self, t: float) -> CurveEvaluation:
        X, Xd, Xdd = self.batch(np.array([float(t)]))
        return CurveEvaluation(float(t), X[0], Xd[0], Xdd[0])

    def period(self):
        """Fundamental period of t -> x(t), or None when unknown/aperiodic."""
        return None

    def domain(self):
        """(t_lo, t_hi) evaluation domain; None means all of R."""
        return None


def _unit(v, name):
    v = as_vector(v, dim=3)
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > 1e-9:
        raise InvalidCurveError(f"{name} must be a unit vector (norm {n!r})")
    return v


@dataclass(frozen=True)
class GreatCircle(Curve):
    """x(t) = cos(theta(t)) a + sin(theta(t)) b with a, b orthonormal."""

    a: np.ndarray
    b: np.ndarray
    phase: object
    manifold: Manifold = field(default_factory=Manifold.sphere2, init=False)

    def __post_init__(self):
        object.__setattr__(self, "a", _unit(self.a, "a"))
        object.__setattr__(self, "b", _unit(self.b, "b"))
        dot = float(np.dot(self.a, self.b))
        if abs(dot) > 1e-9:
            raise InvalidCurveError(f"a and b must be orthogonal (<a,b> = {dot:.3e})")

    def batch(self, ts):
        th, d1, d2 = self.phase.jets(ts)
        c, s = np.cos(th), np.sin(th)
        u = np.outer(c, self.a) + np.outer(s, self.b)      # x
        w = np.outer(-s, self.a) + np.outer(c, self.b)     # dx/dtheta
        X = u
        Xd = d1[:, None] * w
        Xdd = d2[:, None] * w - (d1 ** 2)[:, None] * u
        return X, Xd, Xdd

    def period(self):
        return self.phase.mod2pi_period()


@dataclass(frozen=True)
class Latitude(Curve):
    """Circle at fixed colatitude: (sin c cos theta, sin c sin theta, cos c)."""

    colatitude: float
    phase: object
    manifold: Manifold = field(default_factory=Manifold.sphere2, init=False)

    def __post_init__(self):
        if not 0.0 < self.colatitude < math.pi:
            raise InvalidCurveError("colatitude must lie strictly between 0 and pi")

    def batch(self, ts):
        sc = math.sin(self.colatitude)
        cc = math.cos(self.colatitude)
        th, d1, d2 = self.phase.jets(ts)
        c, s = np.cos(th), np.sin(th)
        n = len(np.atleast_1d(th))
        X = np.column_stack([sc * c, sc * s, np.full(n, cc)])
        w = np.column_stack([-sc * s, sc * c, np.zeros(n)])    # dx/dtheta
        ww = np.column_stack([-sc * c, -sc * s, np.zeros(n)])  # d2x/dtheta2
        Xd = d1[:, None] * w
        Xdd = d2[:, None] * w + (d1 ** 2)[:, None] * ww
        return X, Xd, Xdd

    def period(self):
        return self.phase.mod2pi_period()


@dataclass(frozen=True)
class RotatingFrame:
    """One factor of a compound curve: rotation about a fixed axis whose
    angle follows a phase function."""

    axis: np.ndarray
    phase: object

    def __post_init__(self):
        k = as_vector(self.axis, dim=3)
        n = float(np.linalg.norm(k))
        if n == 0.0:
            raise InvalidCurveError("rotation axis must be nonzero")
        object.__setattr__(self, "axis", k / n)


@dataclass(frozen=True)
class SphericalCompound(Curve):
    """Composition of rotating frames applied to a base point:
    x(t) = R_1(theta_1(t)) ... R_m(theta_m(t)) x0.

    Orthogonal factors keep the point exactly on the sphere. The exact
    jets (x, x', x'') are propagated frame by frame from the innermost
    out, one Rodrigues rotation of the three vectors per frame.
    """

    frames: tuple
    base: np.ndarray
    manifold: Manifold = field(default_factory=Manifold.sphere2, init=False)

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if not self.frames:
            raise InvalidCurveError("compound curve needs at least one frame")
        object.__setattr__(self, "base", _unit(self.base, "base"))

    def batch(self, ts):
        # K commutes with R(th), so the jet of R(th) v is R(th) applied to
        # (v, v' + th' K v, v'' + th'' K v + th'^2 K^2 v + 2 th' K v'):
        # propagate the jets from the innermost frame out. Blocks of at most
        # JET_BLOCK samples, laid out (jet, coordinate, sample), are rotated
        # in place in three scratch buffers, so no temporary outgrows a block.
        ts = np.asarray(ts, dtype=float)
        n = len(ts)
        out = np.empty((3, n, 3))  # (x, x', x'') stacked
        # near-equal blocks: BLAS rounds a lone row differently from the same
        # row inside a larger product, so no block may be a single row
        blocks = max(1, -(-n // JET_BLOCK))
        edges = [n * i // blocks for i in range(blocks + 1)]
        frames = [(fr.phase, skew(fr.axis)) for fr in reversed(self.frames)]
        buffers = np.empty((3, 3, 3, -(-n // blocks)))  # (J, KJ, KKJ)
        for lo, hi in zip(edges, edges[1:]):
            t = ts[lo:hi]
            J, KJ, KKJ = buffers[..., :hi - lo]
            J[0] = self.base[:, None]
            J[1:] = 0.0
            for phase, K in frames:
                th, d1, d2 = phase.jets(t)
                np.matmul(K, J[:2], out=KJ[:2])
                np.matmul(K, KJ[0], out=KKJ[0])
                J[2] += d2 * KJ[0] + d1 * (d1 * KKJ[0] + 2.0 * KJ[1])
                J[1] += d1 * KJ[0]
                np.matmul(K, J, out=KJ)  # Rodrigues' rotation
                np.matmul(K, KJ, out=KKJ)
                KKJ *= 1.0 - np.cos(th)
                KJ *= np.sin(th)
                KJ += KKJ
                J += KJ
            out[:, lo:hi] = J.transpose(0, 2, 1)
        return out[0], out[1], out[2]

    def period(self):
        periods = []
        for fr in self.frames:
            if fr.phase.is_constant:
                continue
            periods.append(fr.phase.mod2pi_period())
        return combine_periods(periods)


@dataclass(frozen=True)
class EuclideanAnalytic(Curve):
    """R^d curve whose components are finite sums of phase functions."""

    components: tuple  # tuple of tuples of phase functions

    def __post_init__(self):
        comps = tuple(tuple(terms) for terms in self.components)
        if not comps:
            raise InvalidCurveError("need at least one component")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "manifold", Manifold.euclidean(len(comps)))

    def batch(self, ts):
        ts = np.asarray(ts, dtype=float)
        n = len(ts)
        d = len(self.components)
        X = np.zeros((n, d))
        Xd = np.zeros((n, d))
        Xdd = np.zeros((n, d))
        for j, terms in enumerate(self.components):
            for term in terms:
                for J, v in zip((X, Xd, Xdd), term.jets(ts)):
                    J[:, j] += v
        return X, Xd, Xdd

    def period(self):
        periods = []
        for terms in self.components:
            for term in terms:
                if term.is_constant:
                    continue
                periods.append(term.value_period())
        return combine_periods(periods)


# ---------------------------------------------------------------------------
# sampled curves

SNAP_FRACTION = 1e-9  # of the grid step: closer than this counts as a node

# inverse Vandermonde matrices of the 5-node windows at offsets k..k+4 from
# the nearest node, indexed by k + 4 (k = -2 in the interior, -4..-3 and
# -1..0 near the ends)
_WINDOW_INVERSES = np.stack([np.linalg.inv(np.vander(np.arange(k, k + 5, dtype=float), 5,
                                                     increasing=True)) for k in range(-4, 1)])


@dataclass(frozen=True)
class SampledCurve(Curve):
    """Uniformly sampled curve differentiated with finite differences.

    Node jets use the documented stencils (4th-order central in the
    interior, 2nd-order near and at the ends); off-node times evaluate
    the degree-4 interpolant through the 5 nearest nodes, which at
    interior nodes reproduces the central stencils exactly.
    """

    ts: np.ndarray
    points: np.ndarray
    manifold: Manifold

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        if len(ts) < 5:
            raise IngestionError(f"need at least 5 samples, got {len(ts)}", row=len(ts))
        if pts.shape[0] != len(ts):
            raise IngestionError("times and points disagree in length")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "points", pts)

    @property
    def step(self) -> float:
        return float((self.ts[-1] - self.ts[0]) / (len(self.ts) - 1))

    def domain(self):
        return float(self.ts[0]), float(self.ts[-1])

    @cached_property
    def _node_jets(self):
        """(Xd, Xdd) at every node, by the documented stencils."""
        f, h = self.points, self.step
        Xd, Xdd = np.empty_like(f), np.empty_like(f)
        Xd[2:-2] = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * h)
        Xdd[2:-2] = (-f[4:] + 16 * f[3:-1] - 30 * f[2:-2] + 16 * f[1:-3] - f[:-4]) / (12 * h * h)
        near = [1, -2]
        Xd[near] = (f[[2, -1]] - f[[0, -3]]) / (2 * h)
        Xdd[near] = (f[[2, -1]] - 2 * f[near] + f[[0, -3]]) / (h * h)
        Xd[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
        Xdd[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / (h * h)
        Xd[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
        Xdd[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / (h * h)
        return Xd, Xdd

    def batch(self, ts):
        ts = np.asarray(ts, dtype=float)
        lo, hi = self.domain()
        h = self.step
        pad = SNAP_FRACTION * h
        outside = ~((ts >= lo - pad) & (ts <= hi + pad))  # NaN too
        if np.any(outside):
            bad = ts[outside][0]
            raise OutOfDomainError(f"t = {bad!r} outside sampled domain [{lo!r}, {hi!r}]")
        n = len(self.ts)
        nearest = np.clip(np.rint((ts - lo) / h), 0, n - 1).astype(int)
        X, (Xd, Xdd) = self.points[nearest], (J[nearest] for J in self._node_jets)
        off = np.abs(ts - self.ts[nearest]) > pad  # closer than pad is the node itself
        if np.any(off):
            # the degree-4 interpolant through the 5-node window, in powers of s
            near = nearest[off]
            start = np.clip(near - 2, 0, n - 5)
            coeff = _WINDOW_INVERSES[start - near + 4] @ self.points[start[:, None] + np.arange(5)]
            s = ((ts[off] - self.ts[near]) / h)[:, None, None]
            X[off] = (s ** np.arange(5) @ coeff)[:, 0]
            Xd[off] = (np.arange(1, 5) * s ** np.arange(4) / h @ coeff[:, 1:])[:, 0]
            d2w = np.concatenate([np.full_like(s, 2.0), 6.0 * s, 12.0 * s * s], axis=2) / (h * h)
            Xdd[off] = (d2w @ coeff[:, 2:])[:, 0]
        return X, Xd, Xdd


def _check_grid(ts, lines) -> None:
    """At least 5 times, strictly increasing, uniform within 1e-9 relative
    step jitter; an error names time i by its row, lines[i]."""
    if len(ts) < 5:
        raise IngestionError(f"need at least 5 rows, got {len(ts)}", row=len(ts))
    steps = np.diff(ts)
    if np.any(steps <= 0):
        bad = lines[int(np.argwhere(steps <= 0)[0, 0]) + 1]
        raise IngestionError(f"times must be strictly increasing; violated at row {bad}", row=bad)
    nominal = (ts[-1] - ts[0]) / (len(ts) - 1)
    jitter = np.abs(steps - nominal) / nominal
    if np.any(jitter > 1e-9):
        bad = lines[int(np.argmax(jitter > 1e-9)) + 1]
        raise IngestionError(
            f"non-uniform grid at row {bad}: step deviates by {jitter.max():.3e} relative",
            row=bad)


def _unit_points(pts, lines):
    """The points renormalized, each within 1e-6 of unit norm; an error
    names point i by its row, lines[i]."""
    norms = np.linalg.norm(pts, axis=1)
    off = np.abs(norms - 1.0)
    if np.any(off > 1e-6):
        bad = lines[int(np.argmax(off > 1e-6))]
        raise IngestionError(f"point at row {bad} is off the unit sphere by {off.max():.3e}",
                             row=bad)
    return pts / norms[:, None]


def load_sampled(rows) -> SampledCurve:
    """Build a sphere SampledCurve from (t, x, y, z) rows.

    The grid must be uniform within 1e-9 relative step jitter and every
    point within 1e-6 of unit norm; points are renormalized on ingest.
    Errors name the first offending row (1-based).
    """
    data = np.asarray(list(rows), dtype=float)
    if data.ndim != 2 or data.shape[1] != 4:
        raise IngestionError("rows must be (t, x, y, z) quadruples")
    if not np.all(np.isfinite(data)):
        bad = int(np.argwhere(~np.all(np.isfinite(data), axis=1))[0, 0]) + 1
        raise IngestionError(f"non-finite value at row {bad}", row=bad)
    lines = range(1, len(data) + 1)
    _check_grid(data[:, 0], lines)
    return SampledCurve(data[:, 0], _unit_points(data[:, 1:], lines), Manifold.sphere2())


def read_curve_csv(path) -> SampledCurve:
    """Read the documented CSV format (header t,x,y,z) into a SampledCurve."""
    rows, points, lines = read_points_csv(path)
    _check_grid(rows[:, 0], lines)
    return SampledCurve(rows[:, 0], points, Manifold.sphere2())


def read_points_csv(path):
    """Parse a t,x,y,z CSV; returns (rows, points, lines) without
    uniformity checks: the (n, 4) array of rows, the points renormalized
    and each row's data line. Errors name the offending data line,
    counted after the header with blank lines included.

    Used directly by the cap-center command, where the times are
    irrelevant and the cloud need not be a uniform curve sample.
    """
    rows, lines = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [c.strip().lower() for c in header] != ["t", "x", "y", "z"]:
                raise IngestionError("expected CSV header 't,x,y,z'")
            for lineno, row in enumerate(reader, start=1):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != 4:
                    raise IngestionError(f"row {lineno}: expected 4 fields, got {len(row)}",
                                         row=lineno)
                try:
                    vals = [float(c) for c in row]
                except ValueError:
                    raise IngestionError(f"row {lineno}: non-numeric field", row=lineno)
                if not all(map(math.isfinite, vals)):
                    raise IngestionError(f"row {lineno}: non-finite value", row=lineno)
                rows.append(vals)
                lines.append(lineno)
        except UnicodeDecodeError as exc:
            raise IngestionError(f"CSV is not UTF-8 text: {exc}")
    if not rows:
        raise IngestionError("CSV contains no data rows")
    data = np.asarray(rows, dtype=float)
    return data, _unit_points(data[:, 1:], lines), lines


# ---------------------------------------------------------------------------
# windowed extrema

# quantities of the curve's points through an auxiliary function: name -> its batch method
AUX_QUANTITIES = {"aux_value": "value_batch", "aux_gradient_norm": "gradient_norm_batch",
                  "aux_unit_hessian_min": "unit_hessian_min_batch"}


class JetTable(NamedTuple):
    """Times ts and the curve's (X, Xd, Xdd) rows at them. A function
    taking jets= expects curve_jets(curve, window) of its own window."""

    ts: np.ndarray
    X: np.ndarray
    Xd: np.ndarray
    Xdd: np.ndarray


@dataclass(frozen=True)
class Quantity:
    """What scan_extremum looks for: the max or min of a named quantity
    (or a callable f(ts, X, Xd, Xdd) -> values), refined off the grid or not."""

    quantity: object
    aux: object = None
    mode: str = "max"
    refine: bool = True


def curve_jets(curve, window: TimeWindow) -> JetTable:
    """Evaluate the curve once on the window grid. Windows reaching
    outside the curve's domain are rejected."""
    dom = curve.domain()
    if dom is not None:
        lo, hi = dom
        pad = SNAP_FRACTION * max(1.0, abs(hi - lo))
        if window.t_min < lo - pad or window.t_max > hi + pad:
            raise OutOfDomainError(
                f"window [{window.t_min}, {window.t_max}] exceeds curve domain [{lo}, {hi}]")
    ts = window.grid()
    return JetTable(ts, *curve.batch(ts))


def quantity_values(manifold, quantity, jets: JetTable, aux=None) -> np.ndarray:
    """Evaluate a named or custom scalar quantity on the rows of jets.

    Custom quantities are callables f(ts, X, Xd, Xdd) -> values operating
    on whole batches.
    """
    if callable(quantity):
        return np.asarray(quantity(*jets), dtype=float)
    if quantity == "speed":
        return np.linalg.norm(jets.Xd, axis=1)
    if quantity == "covariant_accel_norm":
        return np.linalg.norm(manifold.covariant_accel_array(jets.X, jets.Xdd), axis=1)
    if quantity not in AUX_QUANTITIES:
        raise InvalidInputError(f"unknown quantity {quantity!r}")
    if aux is None:
        raise InvalidInputError(f"{quantity} quantity needs an auxiliary function")
    return getattr(aux, AUX_QUANTITIES[quantity])(jets.X)


def _check_finite(values, ts):
    bad = ~np.isfinite(values)
    if np.any(bad):
        t_bad = float(np.asarray(ts)[bad][0])
        raise NumericFailureError(f"non-finite quantity value at t = {t_bad!r}", t=t_bad)


def scan_extremum(curve, window: TimeWindow, specs, jets: JetTable | None = None) -> list:
    """One SupEstimate per Quantity spec: the grid extremum (ties go to
    the smallest t), then one batched parabolic search (golden_max_batch)
    over the brackets of every refined spec together, each seeded with
    its three grid points, so each step evaluates the curve once for all
    of them."""
    jets = curve_jets(curve, window) if jets is None else jets
    signs = [1.0 if spec.mode == "max" else -1.0 for spec in specs]
    refined = [i for i, spec in enumerate(specs) if spec.refine]
    k = 3  # brackets [t_{g-1}, t_{g+1}] per refined spec, around its best grid points

    def signed_values(i, rows):
        vals = quantity_values(curve.manifold, specs[i].quantity, rows, aux=specs[i].aux)
        _check_finite(vals, rows.ts)
        return signs[i] * vals

    owner = np.repeat(np.arange(len(refined)), k)  # the spec of each bracket

    def fused(t):  # each point of t takes the value of its bracket's spec
        rows = JetTable(t, *curve.batch(t))
        return np.choose(owner, [signed_values(i, rows) for i in refined])

    grid = [signed_values(i, jets) for i in range(len(specs))]
    xs = ys = np.empty(0)
    if refined:
        last = len(jets.ts) - 1
        top = [np.argpartition(grid[i], -k)[-k:] for i in refined]
        seeds = [[np.clip(g + s, 0, last) for g in top] for s in (-1, 0, 1)]  # lo, mid, hi
        # a bracket of 1e-5 steps pins a smooth extremum to ~1e-12 in value
        xs, ys = golden_max_batch(
            fused, [jets.ts[np.concatenate(idx)] for idx in seeds],
            [np.concatenate([grid[i][g] for i, g in zip(refined, idx)]) for idx in seeds],
            tol=max(1e-13, window.step * 1e-5), maxiter=32)
    brackets = iter(zip(xs.reshape(-1, k), ys.reshape(-1, k)))
    out = []
    for spec, sign, values in zip(specs, signs, grid):
        g = int(np.argmax(values))  # argmax returns the first (smallest t)
        best_t, grid_v = float(jets.ts[g]), float(values[g])
        best_v = grid_v
        if spec.refine:
            bx, by = next(brackets)
            m = int(np.argmax(by))
            if by[m] > best_v:
                best_t, best_v = float(bx[m]), float(by[m])
        out.append(SupEstimate(value=sign * best_v, argmax_t=best_t,
                               grid_step=window.step, samples=window.samples,
                               refine_gain=(best_v - grid_v) / max(abs(grid_v), 1e-12)))
    return out


def sup_norm(curve, window: TimeWindow, quantity, aux=None,
             refine: bool = True) -> SupEstimate:
    """Windowed sup of a scalar quantity: grid max, then parabolic
    refinement around the 3 best grid points."""
    return scan_extremum(curve, window, [Quantity(quantity, aux, "max", refine)])[0]
