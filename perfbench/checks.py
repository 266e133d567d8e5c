"""Output checks behind `failed_frac`, run outside the timed region.

Each call of a workload's manifest names what its output must satisfy
(see workloads.py). `Checker.check(call, code, stdout)` returns the list
of violated conditions, empty when the call is correct. Reference values
that cost real work (the icosphere cap oracle, 4x denser sup scans) are
computed once per input and cached.
"""

import csv
import io
import json
import math

import numpy as np
from jsonschema import ValidationError

from manifold_landau import curves
from manifold_landau.chebyshev import ICOSAHEDRON_EDGE_ARC, icosphere
from manifold_landau.golden import golden_max
from manifold_landau.inequality import counterexample_curve
from manifold_landau.reporting import emit_json, parse_document

ORACLE_TOL = 1e-6      # acceptance criterion 6: solver >= oracle - 1e-6
SUP_REL_TOL = 1e-9     # refined sup >= denser-grid max - 1e-9 relative
DENSER = 4             # the denser grid has 4 (samples - 1) + 1 nodes
C_SQUARED = (2.0 * math.cos(math.pi / 9.0)) ** 2
ORACLE_BLOCK = 256     # icosphere vertices per block of the oracle scan

PHASES = {"linear": curves.LinearPhase, "quadratic": curves.QuadraticPhase,
          "sinusoidal": curves.SinusoidalPhase}


def curve_from_spec(spec):
    """The curve a spec describes, built from the library's public classes."""
    family, params = spec["family"], spec.get("params", {})

    def phase(p):
        return PHASES[p["kind"]](**{k: v for k, v in p.items() if k != "kind"})

    if family == "compound":
        frames = tuple(curves.RotatingFrame(f["axis"], phase(f["phase"]))
                       for f in params["frames"])
        return curves.SphericalCompound(frames, params["base"])
    if family == "sampled":
        return curves.read_curve_csv(params["path"])
    raise ValueError(f"no checker for family {family!r}")


def _unit_rows(P):
    P = np.asarray(P, dtype=float)
    return P / np.linalg.norm(P, axis=1)[:, None]


def _rotation_to_ex(b):
    """Orthogonal matrix mapping the unit vector b to (1, 0, 0)."""
    ex = np.array([1.0, 0.0, 0.0])
    c = float(np.dot(b, ex))
    if c > 1.0 - 1e-12:
        return np.eye(3)
    if c < -1.0 + 1e-12:
        return np.diag([-1.0, -1.0, 1.0])
    axis = np.cross(b, ex)
    axis /= np.linalg.norm(axis)
    K = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    s = math.sqrt(max(0.0, 1.0 - c * c))
    return np.eye(3) + s * K + (1.0 - c) * (K @ K)


def grid_oracle(points, subdivisions=5):
    """min_i <e, p_i> at the center `chebyshev_grid_oracle` returns.

    Same algorithm (icosphere scan, then one golden refine per chart
    coordinate around the best vertex), but the scan runs in blocks of
    vertices: the library version forms the full vertex-by-point matrix,
    3.3 GB for a 40001-point cloud."""
    P = _unit_rows(points)
    V = icosphere(subdivisions)
    f_all = np.concatenate([(V[i:i + ORACLE_BLOCK] @ P.T).min(axis=1)
                            for i in range(0, len(V), ORACLE_BLOCK)])
    R = _rotation_to_ex(V[int(np.argmax(f_all))])
    delta = 1.2 * ICOSAHEDRON_EDGE_ARC / (2 ** subdivisions)

    def chart(phi, psi):
        return R.T @ np.array([math.cos(psi) * math.cos(phi),
                               math.cos(psi) * math.sin(phi), math.sin(psi)])

    def objective(x):
        return float(np.min(P @ x))

    phi, _ = golden_max(lambda p: objective(chart(p, 0.0)), -delta, delta, tol=1e-12, maxiter=70)
    psi, _ = golden_max(lambda q: objective(chart(phi, q)), -delta, delta, tol=1e-12, maxiter=70)
    e = chart(phi, psi)
    return objective(e / np.linalg.norm(e))


def denser_sups(curve, window):
    """Max of the speed and of the covariant acceleration norm over a grid
    4x denser than the report's window."""
    dense = curves.TimeWindow(window["t_min"], window["t_max"],
                              DENSER * (window["samples"] - 1) + 1)
    X, Xd, Xdd = curve.batch(dense.grid())
    if curve.manifold.is_sphere:
        Xdd = Xdd - np.einsum("ni,ni->n", Xdd, X)[:, None] * X
    return {"speed": float(np.linalg.norm(Xd, axis=1).max()),
            "r2": float(np.linalg.norm(Xdd, axis=1).max())}


class Checker:
    """Checks call outputs; caches reference values per input."""

    def __init__(self):
        self._curves = {}
        self._oracles = {}
        self._sups = {}

    def curve(self, call):
        key = json.dumps({k: call.get(k) for k in ("spec", "counterexample")}, sort_keys=True)
        if key not in self._curves:
            if call.get("counterexample"):
                self._curves[key] = counterexample_curve()
            else:
                with open(call["spec"], encoding="utf-8") as fh:
                    self._curves[key] = curve_from_spec(json.load(fh))
        return key, self._curves[key]

    def oracle(self, key, cloud_fn):
        """Oracle value for a cloud, computed once per cloud key."""
        if key not in self._oracles:
            self._oracles[key] = grid_oracle(cloud_fn())
        return self._oracles[key]

    def sups(self, key, curve, window):
        wkey = (key, window["t_min"], window["t_max"], window["samples"])
        if wkey not in self._sups:
            self._sups[wkey] = denser_sups(curve, window)
        return self._sups[wkey]

    def check(self, call, code, stdout):
        """Violated conditions of one call's output (empty when correct)."""
        argv = call["argv"]
        errors = []
        if code not in call["exit"]:
            errors.append(f"exit code {code} not in {call['exit']}")
        if "rows" in call:
            errors += _check_csv(stdout, call["rows"])
            return errors
        try:
            doc = parse_document(stdout)
        except (ValueError, ValidationError) as exc:
            return errors + [f"stdout is not a valid document: {exc}"]
        if emit_json(doc) + "\n" != stdout:
            errors.append("document does not re-emit byte-identically")
        rep = doc["report"]
        command = argv[0]
        if command in ("check", "counterexample"):
            errors += self._check_bound(call, code, rep)
        elif command == "chebyshev":
            P = curves.read_points_csv(call["points"])[1]
            if rep["points"] != len(P):
                errors.append(f"cap reports {rep['points']} points, input has {len(P)}")
            oracle = self.oracle(("points", call["points"]), lambda: P)
            errors += _check_cap(rep["cap"], oracle)
        elif command == "probe":
            if rep["best_q"] is None or not rep["best_q"] <= C_SQUARED:
                errors.append(f"best_q {rep['best_q']!r} exceeds C^2")
            if not rep["evaluations"] > call["budget"]:
                errors.append(f"evaluations {rep['evaluations']} not above budget")
        return errors

    def _check_bound(self, call, code, rep):
        errors = []
        hyp = rep["hypotheses_ok"]
        if "hypotheses_ok" in call and hyp != call["hypotheses_ok"]:
            errors.append(f"hypotheses_ok is {hyp}, expected {call['hypotheses_ok']}")
        if hyp and rep["satisfied"] is not True:
            errors.append("hypotheses hold but the bound is reported unsatisfied")
        if call["argv"][0] == "check" and code != (0 if hyp else 2):
            errors.append(f"exit code {code} disagrees with hypotheses_ok {hyp}")
        errors += self._check_sups(call, rep, rep["speed"], rep["r2"])
        if rep.get("cap") is not None:
            key, curve = self.curve(call)
            window = curves.TimeWindow(rep["window"]["t_min"], rep["window"]["t_max"],
                                       rep["window"]["samples"])
            oracle = self.oracle((key, window),
                                 lambda: curve.batch(window.grid())[0])
            errors += _check_cap(rep["cap"], oracle)
        return errors

    def _check_sups(self, call, rep, speed, r2):
        key, curve = self.curve(call)
        ref = self.sups(key, curve, rep["window"])
        errors = []
        for name, est in (("speed", speed), ("r2", r2)):
            floor = ref[name] - SUP_REL_TOL * abs(ref[name])
            if est["value"] is None or est["value"] < floor:
                errors.append(f"{name} sup {est['value']!r} below the 4x denser grid max "
                              f"{ref[name]!r}")
        return errors


def _check_cap(cap, oracle):
    value = cap["min_inner_product"]
    if value is None:
        return ["cap min_inner_product is not finite"]
    if value < oracle - ORACLE_TOL:
        return [f"cap min_inner_product {value!r} below the grid oracle {oracle!r} "
                f"by {oracle - value:.3e}"]
    return []


def _check_csv(text, samples):
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != samples + 1:
        return [f"CSV has {len(rows)} rows, expected {samples + 1}"]
    try:
        values = np.array(rows[1:], dtype=float)
    except ValueError:
        return ["CSV body holds a non-numeric field"]
    if values.ndim != 2 or values.shape[1] != len(rows[0]):
        return ["CSV rows disagree with the header width"]
    return []
