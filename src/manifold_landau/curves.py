"""Curve families on the unit sphere and R^d, and sup-norm scans.

Analytic families carry exact first and second derivatives. Sampled
curves take every jet, at nodes and between them, from the degree-4
interpolant through the 5-node window of the nearest node, so a grid
scan and its refinement see one function.

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
DOMAIN_PAD = 1e-9  # times up to DOMAIN_PAD * max(1, span) past a sampled end lie inside


# ---------------------------------------------------------------------------
# phase functions: the closed set of time laws used by the analytic families


class Phase:
    """A time law theta(t). Each kind lists the Python floats its jets are
    built from (`coefficients`) and evaluates them with `jets_of`, whose
    coefficients may also be (B, 1) columns over a (B, n) table of times:
    that is how a PhaseStack evaluates B phases of one kind at once, with
    the same float operations as each phase alone."""

    def jets(self, t):
        """(theta, theta', theta'') at the times t."""
        return self.jets_of(np.asarray(t, dtype=float), *self.coefficients)


@dataclass(frozen=True)
class LinearPhase(Phase):
    """theta(t) = omega t + phi"""

    omega: float
    phi: float = 0.0

    @property
    def coefficients(self):
        return self.omega, self.phi

    @staticmethod
    def jets_of(t, omega, phi):
        return omega * t + phi, np.full_like(t, omega), np.zeros_like(t)

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
class QuadraticPhase(Phase):
    """theta(t) = alpha t^2 / 2 + omega t"""

    alpha: float
    omega: float = 0.0

    @property
    def coefficients(self):
        return self.alpha, self.omega, 0.5 * self.alpha

    @staticmethod
    def jets_of(t, alpha, omega, half_alpha):
        return half_alpha * t * t + omega * t, alpha * t + omega, np.full_like(t, alpha)

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
class SinusoidalPhase(Phase):
    """theta(t) = amp sin(omega t) + drift t"""

    amp: float
    omega: float
    drift: float = 0.0

    @property
    def coefficients(self):
        # in Python floats: libm's omega ** 2 and numpy's square of a column can differ;
        # ** raises past the float range, where the product reads inf
        w2 = self.omega ** 2 if abs(self.omega) < 1e154 else self.omega * self.omega
        return self.amp, self.omega, self.drift, self.amp * self.omega, -self.amp * w2

    @staticmethod
    def jets_of(t, amp, omega, drift, amp_omega, neg_amp_omega2):
        wt = omega * t
        s = np.sin(wt)
        return amp * s + drift * t, amp_omega * np.cos(wt) + drift, neg_amp_omega2 * s

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


class PhaseStack(NamedTuple):
    """B phases of one kind: jets(t) maps a (B, n) table of times to three
    (B, n) tables, row b by phase b."""

    kind: type
    columns: tuple  # one (B, 1) column per coefficient

    @classmethod
    def of(cls, phases):
        return cls(type(phases[0]), tuple(np.array(c)[:, None]
                                          for c in zip(*(p.coefficients for p in phases))))

    def jets(self, t):
        return self.kind.jets_of(t, *self.columns)


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
        if not math.isfinite(self.t_max - self.t_min):
            raise InvalidInputError("window span t_max - t_min must be finite")
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
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        n = float(np.linalg.norm(v))
    if abs(n - 1.0) > 1e-9:
        raise InvalidCurveError(f"{name} must be a unit vector (norm {n!r})")
    return v


@dataclass(frozen=True)
class RotatingFrame:
    """One factor of a compound curve: rotation about a fixed axis whose
    angle follows a phase function. K is the cross-product matrix of the
    unit axis."""

    axis: np.ndarray
    phase: object
    K: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = as_vector(self.axis, dim=3)
        with np.errstate(over="ignore"):
            n = float(np.linalg.norm(k))
        if not 1e-150 < n < 1e150:  # squares may over- or underflow: scale by the top entry first
            top = float(np.max(np.abs(k)))
            if top == 0.0:
                raise InvalidCurveError("rotation axis must be nonzero")
            k = k / top
            n = float(np.linalg.norm(k))
        object.__setattr__(self, "axis", k / n)
        object.__setattr__(self, "K", skew(self.axis))


def _propagate(base, frames, ts):
    """Jets of G compounds of one shape, each at its row of ts (G, n):
    base (G, 3), frames innermost first as (K, phase) pairs with K the
    (G, 1, 3, 3) stack of the members' cross-product matrices and phase a
    PhaseStack (or, for G = 1, the phase itself). Returns the (3, G, n, 3)
    array of (x, x', x'').

    K commutes with R(th), so the jet of R(th) v is R(th) applied to
    (v, v' + th' K v, v'' + th'' K v + th'^2 K^2 v + 2 th' K v'):
    propagate the jets from the innermost frame out. Blocks of at most
    JET_BLOCK samples, laid out (member, jet, coordinate, sample), are
    rotated in place in three scratch buffers, so no temporary outgrows a
    block. Each member's slice of every matrix product is the product a
    lone member makes, so a member's jets do not depend on its stack."""
    G, n = ts.shape
    out = np.empty((3, G, n, 3))
    # near-equal blocks: BLAS rounds a lone row differently from the same
    # row inside a larger product, so no block may be a single row
    blocks = max(1, -(-n // JET_BLOCK))
    edges = [n * i // blocks for i in range(blocks + 1)]
    buffers = np.empty((3, G, 3, 3, -(-n // blocks)))  # (J, KJ, KKJ)
    for lo, hi in zip(edges, edges[1:]):
        J, KJ, KKJ = buffers[..., :hi - lo]
        x, v, a, Kx, Kv, KKx = J[:, 0], J[:, 1], J[:, 2], KJ[:, 0], KJ[:, 1], KKJ[:, 0]
        x[...] = base[:, :, None]
        J[:, 1:] = 0.0
        for K, phase in frames:
            th, d1, d2 = phase.jets(ts[:, lo:hi])
            th, d1, d2 = th[:, None, None], d1[:, None], d2[:, None]
            np.matmul(K, J[:, :2], out=KJ[:, :2])
            np.matmul(K[:, 0], Kx, out=KKx)
            a += d2 * Kx + d1 * (d1 * KKx + 2.0 * Kv)
            v += d1 * Kx
            np.matmul(K, J, out=KJ)  # Rodrigues' rotation
            np.matmul(K, KJ, out=KKJ)
            KKJ *= 1.0 - np.cos(th)
            KJ *= np.sin(th)
            KJ += KKJ
            J += KJ
        out[:, :, lo:hi] = J.transpose(1, 0, 3, 2)
    return out


@dataclass(frozen=True)
class SphericalCompound(Curve):
    """Composition of rotating frames applied to a base point:
    x(t) = R_1(theta_1(t)) ... R_m(theta_m(t)) x0.

    Orthogonal factors keep the point exactly on the sphere. The exact
    jets (x, x', x'') are propagated frame by frame from the innermost
    out, one Rodrigues rotation of the three vectors per frame. Great
    circles and latitude circles are the one-frame compounds below.
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
        # the one-member case of a CurveStack's pass over same-shape compounds
        ts = np.asarray(ts, dtype=float)
        frames = [(fr.K[None, None], fr.phase) for fr in reversed(self.frames)]
        X, Xd, Xdd = _propagate(self.base[None], frames, ts[None])[:, 0]
        return X, Xd, Xdd

    def period(self):
        periods = []
        for fr in self.frames:
            if fr.phase.is_constant:
                continue
            periods.append(fr.phase.mod2pi_period())
        return combine_periods(periods)


class GreatCircle(SphericalCompound):
    """x(t) = cos(theta(t)) a + sin(theta(t)) b, a and b orthonormal: a turned about a x b."""

    def __init__(self, a, b, phase):
        a, b = _unit(a, "a"), _unit(b, "b")
        dot = float(np.dot(a, b))
        if abs(dot) > 1e-9:
            raise InvalidCurveError(f"a and b must be orthogonal (<a,b> = {dot:.3e})")
        super().__init__((RotatingFrame(np.cross(a, b), phase),), a)


class Latitude(SphericalCompound):
    """Circle at colatitude c: (sin c, 0, cos c) turned about e_z by theta(t)."""

    def __init__(self, colatitude, phase):
        if not 0.0 < colatitude < math.pi:
            raise InvalidCurveError("colatitude must lie strictly between 0 and pi")
        super().__init__((RotatingFrame([0.0, 0.0, 1.0], phase),),
                         [math.sin(colatitude), 0.0, math.cos(colatitude)])


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


def _outside(domain, ts):
    """Mask of the times ts outside domain = (lo, hi) padded by DOMAIN_PAD; NaN is outside."""
    pad = DOMAIN_PAD * max(1.0, domain[1] - domain[0])
    return ~((ts >= domain[0] - pad) & (ts <= domain[1] + pad))


# inverse Vandermonde matrices of the 5-node windows at offsets k..k+4 from
# the node they serve, indexed by k + 4 (k = -2 in the interior, -4..-3 and
# -1..0 near the ends). Every entry is an integer over 24: rounded to it, row
# 0 is a unit vector and each node's value is its data row bit for bit.
_WINDOW_INVERSES = np.rint(24 * np.stack([
    np.linalg.inv(np.vander(np.arange(k, k + 5, dtype=float), 5, increasing=True))
    for k in range(-4, 1)])) / 24


@dataclass(frozen=True)
class SampledCurve(Curve):
    """Uniformly sampled curve, evaluated through its degree-4 interpolants.

    Node i owns the polynomial through the 5-node window centred on it
    (the first or last 5 nodes near the ends); every time, nodes included,
    takes its jets from the polynomial of its nearest node. At interior
    nodes that gives the 4th-order central stencils, at the two nodes
    nearest each end the one-sided 5-node formulas.
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
    def _coefficients(self):
        """(n, 5, dim): row i holds node i's interpolant in powers of
        s = (t - t_i) / h."""
        f, n = self.points, len(self.points)
        table = np.empty((n, 5, f.shape[1]))
        windows = np.stack([f[j:n - 4 + j] for j in range(5)])  # node i - 2 + j of row i
        table[2:-2] = np.tensordot(_WINDOW_INVERSES[2], windows, axes=1).transpose(1, 0, 2)
        table[:2] = _WINDOW_INVERSES[[4, 3]] @ f[:5]
        table[-2:] = _WINDOW_INVERSES[[1, 0]] @ f[-5:]
        return table

    def batch(self, ts):
        ts = np.asarray(ts, dtype=float)
        lo, hi = self.domain()
        h = self.step
        outside = _outside((lo, hi), ts)
        if np.any(outside):
            bad = float(ts[outside][0])
            raise OutOfDomainError(f"t = {bad!r} outside sampled domain [{lo!r}, {hi!r}]")
        nearest = np.clip(np.rint((ts - lo) / h), 0, len(self.ts) - 1).astype(int)
        c = self._coefficients[nearest].transpose(1, 0, 2)  # c[k]: the s^k coefficients
        s = ((ts - self.ts[nearest]) / h)[:, None]
        X = (((c[4] * s + c[3]) * s + c[2]) * s + c[1]) * s + c[0]
        Xd = (((4.0 * c[4] * s + 3.0 * c[3]) * s + 2.0 * c[2]) * s + c[1]) / h
        Xdd = ((12.0 * c[4] * s + 6.0 * c[3]) * s + 2.0 * c[2]) / (h * h)
        return X, Xd, Xdd


def _check_grid(ts, lines) -> None:
    """At least 5 times, strictly increasing, uniform within 1e-9 relative
    step jitter; an error names time i by its row, lines[i]."""
    if len(ts) < 5:
        raise IngestionError(f"need at least 5 rows, got {len(ts)}", row=len(ts))
    with np.errstate(all="ignore"):  # a span past the float range: inf steps, nan jitter
        steps = np.diff(ts)
        nominal = (ts[-1] - ts[0]) / (len(ts) - 1)
        jitter = np.abs(steps - nominal) / nominal
    if np.any(steps <= 0):
        bad = lines[int(np.argwhere(steps <= 0)[0, 0]) + 1]
        raise IngestionError(f"times must be strictly increasing; violated at row {bad}", row=bad)
    jitter[np.isnan(jitter)] = np.inf  # no uniform grid spans past the float range
    if np.any(jitter > 1e-9):
        bad = lines[int(np.argmax(jitter > 1e-9)) + 1]
        raise IngestionError(
            f"non-uniform grid at row {bad}: step deviates by {jitter.max():.3e} relative",
            row=bad)


def _unit_points(pts, lines):
    """The points renormalized, each within 1e-6 of unit norm; an error
    names point i by its row, lines[i]."""
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
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
# stacks of curves

# jets of huge spec numbers overflow quietly: scans reject them in _check_finite
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


class CurveStack:
    """Curves evaluated together, each at its own row of times. Compounds
    with the same phase kinds frame by frame share one propagation pass;
    any other member runs its own batch. Member b's jets are bit for bit
    those of its lone batch at the same times."""

    def __init__(self, curves):
        self.curves = tuple(curves)
        self.manifold = self.curves[0].manifold
        shapes = {}
        for b, c in enumerate(self.curves):
            shape = tuple(type(fr.phase) for fr in c.frames) if isinstance(c, SphericalCompound) else b
            shapes.setdefault(shape, []).append(b)
        self._passes = [(rows, self._pass([self.curves[b] for b in rows]))
                        for rows in shapes.values()]

    @staticmethod
    def _pass(members):
        """(G, n) times -> the (3, G, n, dim) jets of one group of members."""
        if len(members) == 1:
            return lambda ts: np.stack(members[0].batch(ts[0]))[:, None]
        base = np.stack([c.base for c in members])
        frames = [(np.stack([c.frames[f].K for c in members])[:, None],
                   PhaseStack.of([c.frames[f].phase for c in members]))
                  for f in reversed(range(len(members[0].frames)))]
        return lambda ts: _propagate(base, frames, ts)

    def batch(self, ts):
        """(X, Xd, Xdd), each (B, n, dim), at the rows of ts (B, n)."""
        ts = np.asarray(ts, dtype=float)
        if len(self.curves) == 1:
            return tuple(J[None] for J in self.curves[0].batch(ts[0]))
        out = np.empty((3, *ts.shape, self.manifold.dim))
        for rows, run in self._passes:
            out[:, rows] = run(ts[rows])
        return out[0], out[1], out[2]

    @_quiet_overflow
    def jets(self, windows) -> "JetTable":
        """The members' tables on their windows, which share a sample
        count: (B, n) times and (B, n, dim) rows."""
        for curve, window in zip(self.curves, windows):
            _check_domain(curve, window)
        ts = np.stack([w.grid() for w in windows])
        return JetTable(ts, *self.batch(ts))


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


def _check_domain(curve, window: TimeWindow) -> None:
    dom = curve.domain()
    if dom is not None and _outside(dom, np.array([window.t_min, window.t_max])).any():
        raise OutOfDomainError(
            f"window [{window.t_min}, {window.t_max}] exceeds curve domain [{dom[0]}, {dom[1]}]")


@_quiet_overflow
def curve_jets(curve, window: TimeWindow) -> JetTable:
    """Evaluate the curve once on the window grid. Windows reaching
    outside the curve's domain are rejected."""
    _check_domain(curve, window)
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
    finite = np.isfinite(values)
    if not finite.all():
        t_bad = float(np.asarray(ts)[~finite][0])
        raise NumericFailureError(f"non-finite quantity value at t = {t_bad!r}", t=t_bad)


@_quiet_overflow
def scan_extremum(curve, window: TimeWindow, specs, jets: JetTable | None = None) -> list:
    """One SupEstimate per Quantity spec: the grid extremum (ties go to
    the smallest t), then one batched parabolic search (golden_max_batch)
    over the brackets of every refined spec together, each seeded with
    its three grid points, so each step evaluates the curve once for all
    of them.

    curve may also be a CurveStack whose members share a sample count and
    scan the same quantities in the same modes, each with its own aux.
    window and specs then hold one entry per member, jets is
    CurveStack.jets(windows) and the result holds one list per member.
    One search runs over every member's brackets, each at its own
    window's tolerance, and gives each member its lone scan's result bit
    for bit."""
    if isinstance(curve, CurveStack):
        return _scan_stack(curve, window, specs, curve.jets(window) if jets is None else jets)
    jets = curve_jets(curve, window) if jets is None else jets
    return _scan_stack(CurveStack([curve]), [window], [specs], JetTable(*(a[None] for a in jets)))[0]


def _member(table: JetTable, b: int) -> JetTable:
    return JetTable(table.ts[b], table.X[b], table.Xd[b], table.Xdd[b])


def _stack_values(manifold, specs):
    """rows, a (B, m) JetTable -> the (B, m) values of the quantity that
    specs (one per member) name. A named quantity without aux is evaluated
    on all rows at once, any other member by member."""
    quantity, auxes = specs[0].quantity, [spec.aux for spec in specs]
    if len(auxes) == 1:
        def values(rows):
            return quantity_values(manifold, quantity, _member(rows, 0), aux=auxes[0])[None]
    elif isinstance(quantity, str) and all(aux is None for aux in auxes):
        def values(rows):
            d = rows.X.shape[2]
            flat = JetTable(rows.ts.ravel(), rows.X.reshape(-1, d), rows.Xd.reshape(-1, d),
                            rows.Xdd.reshape(-1, d))
            return quantity_values(manifold, quantity, flat).reshape(rows.ts.shape)
    else:
        def values(rows):
            return np.array([quantity_values(manifold, quantity, _member(rows, b), aux=aux)
                             for b, aux in enumerate(auxes)])
    return values


def _scan_stack(stack, windows, specs, jets: JetTable) -> list:
    B, n = jets.ts.shape
    first = specs[0]
    evaluate = [_stack_values(stack.manifold, column) for column in zip(*specs)]
    refined = [i for i, spec in enumerate(first) if spec.refine]
    k = 3  # brackets [t_{g-1}, t_{g+1}] per refined spec, around its best grid points

    def signed_values(i, rows):  # (B, m) values of spec i at rows, larger is better
        vals = evaluate[i](rows)
        _check_finite(vals, rows.ts)
        return vals if first[i].mode == "max" else -vals

    owner = np.repeat(np.arange(len(refined)), k)  # the spec of each of a member's brackets

    def fused(t):  # each point of t takes the value of its bracket's spec
        t = t.reshape(B, -1)
        rows = JetTable(t, *stack.batch(t))
        return np.choose(owner, [signed_values(i, rows) for i in refined]).ravel()

    grid = [signed_values(i, jets) for i in range(len(first))]  # (member, sample) tables
    xs = ys = np.empty(0)
    if refined:
        top = np.stack([np.argpartition(grid[i], -k, axis=1)[:, -k:] for i in refined], axis=1)
        seeds = [np.clip(top + s, 0, n - 1) for s in (-1, 0, 1)]  # lo, mid, hi: (member, spec, k)
        member = np.arange(B)[:, None]
        # a bracket of 1e-5 steps pins a smooth extremum to ~1e-12 in value
        tols = [max(1e-13, w.step * 1e-5) for w in windows]
        tol = tols[0] if B == 1 else np.repeat(tols, len(refined) * k)
        xs, ys = golden_max_batch(
            fused, [jets.ts[member[:, :, None], idx].ravel() for idx in seeds],
            [np.stack([grid[i][member, idx[:, j]] for j, i in enumerate(refined)], axis=1).ravel()
             for idx in seeds], tol=tol, maxiter=32)
    xs, ys = xs.reshape(B, -1, k), ys.reshape(B, -1, k)
    best = [np.argmax(values, axis=1) for values in grid]  # argmax returns the first (smallest t)
    out = []
    for b, window in enumerate(windows):
        brackets = iter(zip(xs[b], ys[b]))
        estimates = []
        for i, spec in enumerate(first):
            g = int(best[i][b])
            best_t, grid_v = float(jets.ts[b, g]), float(grid[i][b, g])
            best_v = grid_v
            if spec.refine:
                bx, by = next(brackets)
                m = int(np.argmax(by))
                if by[m] > best_v:
                    best_t, best_v = float(bx[m]), float(by[m])
            sign = 1.0 if spec.mode == "max" else -1.0
            estimates.append(SupEstimate(value=sign * best_v, argmax_t=best_t,
                                         grid_step=window.step, samples=window.samples,
                                         refine_gain=(best_v - grid_v) / max(abs(grid_v), 1e-12)))
        out.append(estimates)
    return out


def sup_norm(curve, window: TimeWindow, quantity, aux=None,
             refine: bool = True) -> SupEstimate:
    """Windowed sup of a scalar quantity: grid max, then parabolic
    refinement around the 3 best grid points."""
    return scan_extremum(curve, window, [Quantity(quantity, aux, "max", refine)])[0]
