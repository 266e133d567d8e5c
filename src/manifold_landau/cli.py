"""Command-line front end.

Subcommands: constant, check, diagnose, chebyshev, counterexample,
probe, classical. Every command supports --json (schema-validated
document) and --csv (tabular/time-series output for external plotting).

Exit codes:
    0  success (for check: hypotheses hold and the bound is satisfied)
    1  I/O, validation or command-line argument error
    2  bound hypotheses violated (the estimate makes no claim)
    3  bound violated on the checked window under the window's hypotheses;
       a tool bug only when the window covers whole periods, because the
       theorem is about the whole real axis

Curve specs are JSON documents, for example:

    {"family": "latitude",
     "params": {"colatitude": 0.7853981633974483,
                "phase": {"kind": "linear", "omega": 1.0}},
     "aux": {"kind": "chordal", "center": "chebyshev"},
     "window": {"t_min": 0.0, "t_max": 6.283185307179586, "samples": 4097},
     "seed": 42}

window is optional (periodic curves default to one period, otherwise
[-20, 20] with 40001 samples); aux defaults to the cap-center chordal
function on the sphere. Unknown keys anywhere are rejected.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, fields

import numpy as np

from . import __version__
from .auxfun import ChordalHalfSquare, EuclideanQuadratic, IntrinsicHalfSquare
from .chebyshev import chebyshev_center
from .curves import (
    PHASE_KINDS,
    EuclideanAnalytic,
    GreatCircle,
    Latitude,
    RotatingFrame,
    SphericalCompound,
    TimeWindow,
    curve_jets,
    default_window,
    read_curve_csv,
    read_points_csv,
)
from .errors import HypothesisViolationError, ManifoldLandauError, SpecValidationError
from .geometry import SurfacePoint
from .inequality import (
    classical_landau_check,
    counterexample_curve,
    counterexample_report,
    counterexample_window,
    landau_constant,
    manifold_bound_report,
    proof_diagnostics,
    sharpness_probe,
    sphere_bound_report,
)
from .reporting import (
    build_document,
    cap_point_table,
    constant_table,
    curve_time_series,
    emit_json,
    probe_table,
    scalar_time_series,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESES = 2
EXIT_VIOLATION = 3


# ---------------------------------------------------------------------------
# spec-file parsing with strict key validation


def _check_keys(obj: dict, allowed, path: str) -> None:
    for key in obj:
        if key not in allowed:
            full = f"{path}.{key}" if path else key
            raise SpecValidationError(f"unknown key '{full}'", key=full)


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        full = f"{path}.{key}" if path else key
        raise SpecValidationError(f"missing key '{full}'", key=full)
    return obj[key]


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecValidationError(f"'{path}' must be a number", key=path)
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):  # json reads 1e400, Infinity and NaN as floats
        raise SpecValidationError(f"'{path}' must be a finite number", key=path)
    return x


def _vector3(value, path):
    if not isinstance(value, list) or len(value) != 3:
        raise SpecValidationError(f"'{path}' must be a list of 3 numbers", key=path)
    return [_number(v, path) for v in value]


def _phase_from_spec(obj, path):
    if not isinstance(obj, dict):
        raise SpecValidationError(f"'{path}' must be an object", key=path)
    kind = _need(obj, "kind", path)
    cls = PHASE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        *kinds, last = PHASE_KINDS
        raise SpecValidationError(f"'{path}.kind' must be {', '.join(kinds)} or {last}",
                                  key=f"{path}.kind")
    _check_keys(obj, {"kind", *(f.name for f in fields(cls))}, path)
    # the phase's fields in order; one without a default is required
    return cls(*(_number(_need(obj, f.name, path) if f.default is MISSING
                         else obj.get(f.name, f.default), f"{path}.{f.name}")
                 for f in fields(cls)))


def _curve_from_spec(spec: dict, spec_path: str):
    family = _need(spec, "family", "")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise SpecValidationError("'params' must be an object", key="params")
    if family == "latitude":
        _check_keys(params, {"colatitude", "phase"}, "params")
        return Latitude(_number(_need(params, "colatitude", "params"), "params.colatitude"),
                        _phase_from_spec(_need(params, "phase", "params"), "params.phase"))
    if family == "great_circle":
        _check_keys(params, {"a", "b", "phase"}, "params")
        return GreatCircle(_vector3(_need(params, "a", "params"), "params.a"),
                           _vector3(_need(params, "b", "params"), "params.b"),
                           _phase_from_spec(_need(params, "phase", "params"), "params.phase"))
    if family == "compound":
        _check_keys(params, {"base", "frames"}, "params")
        frames_spec = _need(params, "frames", "params")
        if not isinstance(frames_spec, list) or not frames_spec:
            raise SpecValidationError("'params.frames' must be a nonempty list",
                                      key="params.frames")
        frames = []
        for i, fr in enumerate(frames_spec):
            fpath = f"params.frames[{i}]"
            if not isinstance(fr, dict):
                raise SpecValidationError(f"'{fpath}' must be an object", key=fpath)
            _check_keys(fr, {"axis", "phase"}, fpath)
            frames.append(RotatingFrame(_vector3(_need(fr, "axis", fpath), f"{fpath}.axis"),
                                        _phase_from_spec(_need(fr, "phase", fpath),
                                                         f"{fpath}.phase")))
        return SphericalCompound(tuple(frames),
                                 _vector3(_need(params, "base", "params"), "params.base"))
    if family == "euclidean":
        _check_keys(params, {"components"}, "params")
        comps_spec = _need(params, "components", "params")
        if not isinstance(comps_spec, list) or not comps_spec:
            raise SpecValidationError("'params.components' must be a nonempty list",
                                      key="params.components")
        comps = []
        for j, terms in enumerate(comps_spec):
            cpath = f"params.components[{j}]"
            if not isinstance(terms, list):
                raise SpecValidationError(f"'{cpath}' must be a list of phase terms", key=cpath)
            comps.append(tuple(_phase_from_spec(t, f"{cpath}[{i}]")
                               for i, t in enumerate(terms)))
        return EuclideanAnalytic(tuple(comps))
    if family == "sampled":
        _check_keys(params, {"path"}, "params")
        path = _need(params, "path", "params")
        if not isinstance(path, str):
            raise SpecValidationError("'params.path' must be a string", key="params.path")
        # relative to the spec's directory, so a spec and its CSV move together
        return read_curve_csv(os.path.join(os.path.dirname(spec_path), path))
    raise SpecValidationError(
        f"unknown family '{family}' (expected latitude, great_circle, compound, "
        "euclidean or sampled)", key="family")


def _window_from_spec(spec: dict, curve) -> TimeWindow:
    if "window" not in spec:
        return default_window(curve)
    w = spec["window"]
    if not isinstance(w, dict):
        raise SpecValidationError("'window' must be an object", key="window")
    _check_keys(w, {"t_min", "t_max", "samples"}, "window")
    samples = _need(w, "samples", "window")
    if isinstance(samples, bool) or not isinstance(samples, int):
        raise SpecValidationError("'window.samples' must be an integer", key="window.samples")
    if samples < 3:
        raise SpecValidationError("'window.samples' must be at least 3", key="window.samples")
    return TimeWindow(_number(_need(w, "t_min", "window"), "window.t_min"),
                      _number(_need(w, "t_max", "window"), "window.t_max"),
                      samples)


def _aux_from_spec(spec: dict, curve):
    """Validate the aux block before the curve is evaluated. Returns the
    auxiliary function's class and its explicit center, or None for
    center == "chebyshev": the cap center of the window samples."""
    aux = spec.get("aux", {"kind": "chordal", "center": "chebyshev"})
    if not isinstance(aux, dict):
        raise SpecValidationError("'aux' must be an object", key="aux")
    _check_keys(aux, {"kind", "center"}, "aux")
    kind = aux.get("kind", "chordal")
    center = aux.get("center", "chebyshev")
    if kind == "euclidean_quadratic":
        if curve.manifold.is_sphere:
            raise SpecValidationError("euclidean_quadratic aux needs a Euclidean curve",
                                      key="aux.kind")
        if center == "chebyshev":
            raise SpecValidationError("euclidean_quadratic aux needs an explicit center",
                                      key="aux.center")
        c = [_number(v, "aux.center") for v in center] if isinstance(center, list) else None
        if c is None or len(c) != curve.manifold.dim:
            raise SpecValidationError("'aux.center' must match the curve dimension",
                                      key="aux.center")
        return EuclideanQuadratic, np.asarray(c)
    if kind not in ("chordal", "intrinsic"):
        raise SpecValidationError("'aux.kind' must be chordal, intrinsic or "
                                  "euclidean_quadratic", key="aux.kind")
    if not curve.manifold.is_sphere:
        raise SpecValidationError(f"'{kind}' aux needs a sphere curve", key="aux.kind")
    cls = ChordalHalfSquare if kind == "chordal" else IntrinsicHalfSquare
    if center == "chebyshev":
        return cls, None
    return cls, SurfacePoint(_vector3(center, "aux.center"))


def _load_spec(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"spec is not valid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise SpecValidationError(f"spec is not UTF-8 text: {exc}")
    if not isinstance(spec, dict):
        raise SpecValidationError("spec must be a JSON object")
    _check_keys(spec, {"family", "params", "window", "aux", "seed"}, "")
    seed = spec.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise SpecValidationError("'seed' must be an integer", key="seed")
    return spec


# ---------------------------------------------------------------------------
# output helpers


def _print_kv(pairs):
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k.ljust(width)}  {v}")


def _fmt(x, digits=12):
    if x is None:
        return "n/a"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.{digits}g}"
    return str(x)


def _bound_report_text(rep):
    pairs = [
        ("window", f"[{_fmt(rep.window.t_min)}, {_fmt(rep.window.t_max)}] "
                   f"x {rep.window.samples} samples"),
        ("sup |x'|        ", _fmt(rep.speed.value)),
        ("r0 = sup |grad U|", _fmt(rep.r0.value)),
        ("r2 = sup |D x'|  ", _fmt(rep.r2.value)),
        ("lambda           ", _fmt(rep.lam.value)),
        ("sup U            ", _fmt(rep.sup_u)),
        ("lhs  |x'|^2      ", _fmt(rep.lhs)),
        ("rhs  C^2 r0 r2/l ", _fmt(rep.rhs)),
    ]
    if rep.rhs_relaxed is not None:
        pairs.append(("rhs (relaxed)    ", _fmt(rep.rhs_relaxed)))
    pairs += [
        ("slack lhs/rhs    ", _fmt(rep.slack_ratio)),
        ("hypotheses_ok    ", str(rep.hypotheses_ok)),
        ("satisfied        ", str(rep.satisfied)),
    ]
    if rep.cap is not None:
        pairs.append(("cap center e     ",
                      "(" + ", ".join(_fmt(c) for c in rep.cap.e.coords) + ")"))
        pairs.append(("min <e, x(t)>    ", _fmt(rep.cap.min_inner_product)))
    return pairs


def _check_exit(rep) -> int:
    if not rep.hypotheses_ok:
        return EXIT_HYPOTHESES
    if not rep.satisfied:
        return EXIT_VIOLATION
    return EXIT_OK


def _emit(args, command, body, text, csv, seed=None, notes=()):
    """Print one command's output: the JSON document of body, the table
    csv(fp) writes to fp, or the key-value rows text() returns followed by
    the lines in notes. Only the chosen form is built."""
    if args.json:
        print(emit_json(build_document(command, body, seed=seed)))
    elif args.csv:
        csv(sys.stdout)
    else:
        _print_kv(text())
        for line in notes:
            print(line)


# ---------------------------------------------------------------------------
# commands


def _cmd_constant(args) -> int:
    lc = landau_constant()
    _emit(args, "constant", lc,
          lambda: [("C", f"{lc.C:.{args.digits}f}"), ("residual", _fmt(lc.residual, 3))],
          lambda fp: constant_table(lc, fp))
    return EXIT_OK


def _bound_report(spec: dict, spec_path: str):
    """Curve, window, jets, aux function and bound report of the spec read
    from spec_path, from one evaluation of the curve on the window grid."""
    curve = _curve_from_spec(spec, spec_path)
    window = _window_from_spec(spec, curve)
    cls, center = _aux_from_spec(spec, curve)
    jets = curve_jets(curve, window)
    cap = chebyshev_center(jets.X) if center is None else None
    U = cls(cap.e if cap is not None else center)
    if cap is not None and isinstance(U, ChordalHalfSquare):
        rep = sphere_bound_report(curve, window, cap=cap, jets=jets)
    else:
        rep = manifold_bound_report(curve, U, window, jets=jets)
    return curve, window, jets, U, rep


def _cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    curve, window, jets, U, rep = _bound_report(spec, args.spec)
    _emit(args, "check", rep, lambda: _bound_report_text(rep),
          lambda fp: curve_time_series(curve, window, fp, aux=U, jets=jets),
          seed=spec.get("seed"), notes=[f"note: {n}" for n in rep.notes])
    return _check_exit(rep)


def _cmd_diagnose(args) -> int:
    spec = _load_spec(args.spec)
    curve, window, jets, U, rep = _bound_report(spec, args.spec)
    try:
        diag = proof_diagnostics(curve, U, report=rep, jets=jets)
    except HypothesisViolationError as exc:
        print(f"hypotheses violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESES
    _emit(args, "diagnose", diag, lambda: [
        ("v bound ok        ", str(diag.v_bound_ok)),
        ("  worst t / margin", f"{_fmt(diag.v_bound_worst_t)} / {_fmt(diag.v_bound_margin, 3)}"),
        ("speed slope ok    ", str(diag.speed_lipschitz_ok)),
        ("  worst t / margin", f"{_fmt(diag.speed_worst_t)} / {_fmt(diag.speed_margin, 3)}"),
        ("chain ok          ", str(diag.chain_ok)),
        ("  worst t / margin", f"{_fmt(diag.chain_worst_t)} / {_fmt(diag.chain_margin, 3)}"),
    ], lambda fp: curve_time_series(curve, window, fp, aux=U, jets=jets),
          seed=spec.get("seed"))
    ok = diag.v_bound_ok and diag.speed_lipschitz_ok and diag.chain_ok
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_chebyshev(args) -> int:
    points = read_points_csv(args.csvfile)[1]
    cap = chebyshev_center(points)
    _emit(args, "chebyshev", {"cap": cap, "points": len(points)}, lambda: [
        ("points           ", str(len(points))),
        ("cap center e     ", "(" + ", ".join(_fmt(c) for c in cap.e.coords) + ")"),
        ("min inner product", _fmt(cap.min_inner_product)),
        ("chordal radius   ", _fmt(cap.minimax_chordal_radius)),
        ("converged        ", str(cap.converged)),
    ], lambda fp: cap_point_table(points, cap, fp),
          notes=[f"warning: {cap.warning}"] if cap.warning else ())
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    curve = counterexample_curve()
    jets = curve_jets(curve, counterexample_window(args.T, args.samples))
    rep = counterexample_report(T=args.T, samples=args.samples, jets=jets)
    _emit(args, "counterexample", rep, lambda: _bound_report_text(rep),
          lambda fp: curve_time_series(curve, rep.window, fp,
                                       aux=ChordalHalfSquare(rep.cap.e), jets=jets),
          notes=[f"note: {n}" for n in rep.notes])
    return EXIT_OK


def _cmd_probe(args) -> int:
    result = sharpness_probe(args.family, args.budget, seed=args.seed)
    _emit(args, "probe", result, lambda: [
        ("family     ", result.family),
        ("best Q     ", _fmt(result.best_q)),
        ("sqrt(Q)    ", _fmt(result.best_sqrt_q)),
        ("ceiling C^2", _fmt(result.q_upper)),
        ("evaluations", str(result.evaluations)),
        ("skipped    ", str(result.skipped)),
    ], lambda fp: probe_table(result, fp), seed=args.seed)
    return EXIT_OK


def _cmd_classical(args) -> int:
    spec = _load_spec(args.spec)
    curve = _curve_from_spec(spec, args.spec)
    if curve.manifold.is_sphere or curve.manifold.dim != 1:
        raise SpecValidationError("classical check needs family 'euclidean' with one component",
                                  key="family")
    window = _window_from_spec(spec, curve)
    jets = curve_jets(curve, window)
    rep = classical_landau_check(curve, window, jets=jets)
    _emit(args, "classical", rep, lambda: [
        ("sup |f|  ", _fmt(rep.f_sup.value)),
        ("sup |f'| ", _fmt(rep.fprime_sup.value)),
        ("sup |f''|", _fmt(rep.fsecond_sup.value)),
        ("lhs |f'|^2      ", _fmt(rep.lhs)),
        ("rhs 2|f| |f''|  ", _fmt(rep.rhs)),
        ("slack lhs/rhs   ", _fmt(rep.slack_ratio)),
        ("satisfied       ", str(rep.satisfied)),
    ], lambda fp: scalar_time_series(curve, window, fp, jets=jets),
          seed=spec.get("seed"), notes=[f"note: {n}" for n in rep.notes])
    return EXIT_OK if rep.satisfied else EXIT_VIOLATION


def _add_format_flags(p):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true",
                       help="emit a schema-validated JSON document")
    group.add_argument("--csv", action="store_true",
                       help="emit CSV (time series for curve commands)")


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1 with one line on stderr (exit 2 means
    "hypotheses violated"); --help and --version still exit 0."""

    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _int_at_least(lo: int):
    def parse(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            n = lo - 1
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {value!r}")
        return n
    return parse


def _positive_float(value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {value!r}")
    return x


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="manifold-landau",
        description="Velocity bounds for sphere curves from covariant acceleration: "
                    "evaluate the inequality, its diagnostics, the cap-center "
                    "construction, the counterexample and a sharpness probe.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constant", help="the constant C (positive root of z^3 - 3z - 1)")
    _add_format_flags(p)
    p.add_argument("--digits", type=_int_at_least(0), default=12,
                   help="round C to this many digits (default 12)")
    p.set_defaults(fn=_cmd_constant)

    p = sub.add_parser("check", help="evaluate the bound for a curve spec",
                       description="Exit 0: hypotheses hold and bound satisfied; "
                                   "2: hypotheses violated; 3: bound violated on the "
                                   "window under the window's hypotheses (a tool bug only "
                                   "when the window covers whole periods). "
                                   "CSV columns: t,speed,covariant_accel_norm,v,aux_value.")
    p.add_argument("spec", help="JSON curve spec file")
    _add_format_flags(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("diagnose", help="sampled checks of the intermediate bounds",
                       description="CSV columns: t,speed,covariant_accel_norm,v,aux_value.")
    p.add_argument("spec", help="JSON curve spec file")
    _add_format_flags(p)
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("chebyshev", help="smallest enclosing cap of a point cloud",
                       description="Input CSV header: t,x,y,z (times are ignored). "
                                   "CSV output columns: x,y,z,inner_product,chordal_distance.")
    p.add_argument("csvfile", help="points CSV (header t,x,y,z)")
    _add_format_flags(p)
    p.set_defaults(fn=_cmd_chebyshev)

    p = sub.add_parser("counterexample",
                       help="bounded covariant acceleration with unbounded speed",
                       description="Great circle with quadratic phase on [0, T]; hypotheses "
                                   "fail for T >= 2 pi. CSV columns: "
                                   "t,speed,covariant_accel_norm,v,aux_value.")
    p.add_argument("--T", type=_positive_float, default=50.0, help="window end (default 50)")
    p.add_argument("--samples", type=_int_at_least(3), default=4001,
                   help="window samples (default 4001)")
    _add_format_flags(p)
    p.set_defaults(fn=_cmd_counterexample)

    p = sub.add_parser("probe", help="empirical sharpness probe (Q <= C^2)",
                       description="CSV columns: family,best_q,best_sqrt_q,q_upper,"
                                   "evaluations,skipped,budget,seed.")
    p.add_argument("--family", choices=["latitude", "great_circle", "compound"],
                   default="compound")
    p.add_argument("--budget", type=_int_at_least(1), default=100, help="random candidates (default 100)")
    p.add_argument("--seed", type=_int_at_least(0), default=42, help="random seed (default 42)")
    _add_format_flags(p)
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("classical", help="scalar inequality |f'|^2 <= 2 |f| |f''|",
                       description="Spec family must be 'euclidean' with one component. "
                                   "CSV columns: t,f,fprime,fsecond.")
    p.add_argument("spec", help="JSON curve spec file")
    _add_format_flags(p)
    p.set_defaults(fn=_cmd_classical)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; not our error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return EXIT_OK
    except SpecValidationError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ManifoldLandauError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
