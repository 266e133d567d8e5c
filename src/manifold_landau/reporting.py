"""Report documents: JSON (schema-validated) and CSV time series.

Every CLI command emits the same top-level document shape: tool version,
command name, optional seed, notes (always empty: a report carries its
own) and a command-specific report body.
Non-finite floats serialize as null so the documents stay valid JSON;
the convention is recorded in the schema description.
"""

import json
import math
from dataclasses import fields, is_dataclass
from functools import cache
from importlib import resources
from itertools import chain

import numpy as np

from . import __version__
from .curves import JetTable, TimeWindow, curve_jets, quantity_values
from .geometry import SurfacePoint, TangentVector

# dataclass field names renamed on the wire
_FIELD_NAMES = {"lam": "lambda"}


def to_jsonable(obj):
    """Recursively convert reports (dataclasses, numpy values) to plain
    JSON-compatible structures; non-finite numbers become null."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (np.floating, np.integer)):
        return to_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, SurfacePoint):
        return to_jsonable(obj.coords)
    if isinstance(obj, TangentVector):
        return {"base": to_jsonable(obj.base), "vec": to_jsonable(obj.vec)}
    if is_dataclass(obj):
        out = {}
        for f in fields(obj):
            out[_FIELD_NAMES.get(f.name, f.name)] = to_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def build_document(command: str, report, seed=None) -> dict:
    doc = {
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "notes": [],
        "report": to_jsonable(report),
    }
    validate_document(doc)
    return doc


@cache
def _validator():
    # the shipped schema itself is checked by the test suite, not per process
    import jsonschema  # text and CSV runs never load it

    schema = json.loads(resources.files("manifold_landau").joinpath(
        "schemas/report.schema.json").read_text(encoding="utf-8"))
    return jsonschema.validators.validator_for(schema)(schema)


def validate_document(doc: dict) -> None:
    _validator().validate(doc)


def emit_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def parse_document(text: str) -> dict:
    doc = json.loads(text)
    validate_document(doc)
    return doc


# ---------------------------------------------------------------------------
# CSV emission. Every field is a float repr, an int or a fixed identifier,
# so none ever needs RFC-4180 quoting: rows are joined as they are.


def _csv_text(header, rows) -> str:
    """CRLF-terminated CSV of string fields; rows is consumed lazily, so
    only one row's fields exist at a time."""
    return "\r\n".join(map(",".join, chain([header], rows))) + "\r\n"


def _columns_csv(header, cols) -> str:
    return _csv_text(header, zip(*[map(repr, col.tolist()) for col in cols]))


def curve_time_series(curve, window: TimeWindow, aux=None,
                      jets: JetTable | None = None) -> str:
    """Time series for plotting: t, speed, covariant acceleration norm,
    and (when an auxiliary function is supplied) v = <grad U o x, x'>
    and U o x."""
    jets = curve_jets(curve, window) if jets is None else jets
    ts, X, Xd, _ = jets
    cols = [ts, np.linalg.norm(Xd, axis=1),
            quantity_values(curve.manifold, "covariant_accel_norm", jets)]
    header = ["t", "speed", "covariant_accel_norm"]
    if aux is not None:
        v = np.einsum("ni,ni->n", aux.gradient_batch(X), Xd)
        cols += [v, aux.value_batch(X)]
        header += ["v", "aux_value"]
    return _columns_csv(header, cols)


def scalar_time_series(curve, window: TimeWindow, jets: JetTable | None = None) -> str:
    """Scalar-curve series: t, f, f', f''."""
    jets = curve_jets(curve, window) if jets is None else jets
    return _columns_csv(["t", "f", "fprime", "fsecond"],
                        [jets.ts, jets.X[:, 0], jets.Xd[:, 0], jets.Xdd[:, 0]])


def cap_point_table(points: np.ndarray, cap) -> str:
    """Per-point view of a cap-center solution: inner product with the
    center and chordal distance."""
    dots = points @ cap.e.coords
    chord = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots))
    return _columns_csv(["x", "y", "z", "inner_product", "chordal_distance"],
                        [*points.T, dots, chord])


def probe_table(result) -> str:
    rows = [(result.family, repr(result.best_q), repr(result.best_sqrt_q),
             repr(result.q_upper), str(result.evaluations), str(result.skipped),
             str(result.budget), str(result.seed))]
    return _csv_text(
        ["family", "best_q", "best_sqrt_q", "q_upper", "evaluations",
         "skipped", "budget", "seed"], rows)


def constant_table(lc) -> str:
    return _csv_text(["C", "residual"], [(repr(lc.C), repr(lc.residual))])
