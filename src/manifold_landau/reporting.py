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

import numpy as np

from . import __version__
from .curves import JetTable, TimeWindow, curve_jets, speed
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
# so none ever needs RFC-4180 quoting: rows are joined as they are. A table
# is written to the stream it is given, as json.dump does, CSV_BLOCK rows
# at a time: its columns are computed first, so an error never leaves a
# truncated table, and then at most one block of floats and row strings
# exists at a time.

CSV_BLOCK = 4096  # rows formatted per write: about 0.4 MB of text


def _write_rows(fp, rows) -> None:
    """Write rows of string fields as CRLF-terminated CSV lines."""
    fp.write("".join([",".join(row) + "\r\n" for row in rows]))


def _write_columns(fp, header, cols) -> None:
    """Write the header, then the rows of equal-length float columns in
    blocks of CSV_BLOCK, each field the float's repr."""
    _write_rows(fp, [header])
    for lo in range(0, len(cols[0]), CSV_BLOCK):
        _write_rows(fp, zip(*[map(repr, col[lo:lo + CSV_BLOCK].tolist()) for col in cols]))


def curve_time_series(curve, window: TimeWindow, fp, aux=None,
                      jets: JetTable | None = None) -> None:
    """Write the time series for plotting to fp: t, speed, covariant
    acceleration norm, and (when an auxiliary function is supplied)
    v = <grad U o x, x'> and U o x."""
    jets = curve_jets(curve, window) if jets is None else jets
    ts, X, Xd, _ = jets
    cols = [ts, speed(*jets), curve.manifold.covariant_accel_norm(*jets)]
    header = ["t", "speed", "covariant_accel_norm"]
    if aux is not None:
        v = np.einsum("ni,ni->n", aux.gradient_batch(X), Xd)
        cols += [v, aux.value_batch(X)]
        header += ["v", "aux_value"]
    _write_columns(fp, header, cols)


def scalar_time_series(curve, window: TimeWindow, fp, jets: JetTable | None = None) -> None:
    """Write the scalar-curve series to fp: t, f, f', f''."""
    jets = curve_jets(curve, window) if jets is None else jets
    _write_columns(fp, ["t", "f", "fprime", "fsecond"],
                   [jets.ts, jets.X[:, 0], jets.Xd[:, 0], jets.Xdd[:, 0]])


def cap_point_table(points: np.ndarray, cap, fp) -> None:
    """Write the per-point view of a cap-center solution to fp: inner
    product with the center and chordal distance."""
    dots = points @ cap.e.coords
    chord = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots))
    _write_columns(fp, ["x", "y", "z", "inner_product", "chordal_distance"],
                   [*points.T, dots, chord])


def probe_table(result, fp) -> None:
    _write_rows(fp, [
        ["family", "best_q", "best_sqrt_q", "q_upper", "evaluations", "skipped", "budget",
         "seed"],
        [result.family, repr(result.best_q), repr(result.best_sqrt_q), repr(result.q_upper),
         str(result.evaluations), str(result.skipped), str(result.budget), str(result.seed)]])


def constant_table(lc, fp) -> None:
    _write_rows(fp, [["C", "residual"], [repr(lc.C), repr(lc.residual)]])
