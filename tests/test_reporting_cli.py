import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import threading

import jsonschema
import numpy as np
import pytest

import manifold_landau
from manifold_landau import reporting
from manifold_landau.cli import main
from manifold_landau.curves import (
    PHASE_KINDS,
    GreatCircle,
    Latitude,
    LinearPhase,
    SphericalCompound,
    TimeWindow,
    sup_norm,
)
from manifold_landau.inequality import landau_constant, sphere_bound_report
from manifold_landau.reporting import (
    build_document,
    curve_time_series,
    emit_json,
    parse_document,
    validate_document,
)

LAT_SPEC = {
    "family": "latitude",
    "params": {"colatitude": math.pi / 4, "phase": {"kind": "linear", "omega": 1.0}},
    "aux": {"kind": "chordal", "center": [0.0, 0.0, 1.0]},
    "seed": 42,
}

COUNTER_SPEC = {
    "family": "great_circle",
    "params": {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0],
               "phase": {"kind": "quadratic", "alpha": 1.0}},
    "window": {"t_min": 0.0, "t_max": 50.0, "samples": 2001},
}

SINE_SPEC = {
    "family": "euclidean",
    "params": {"components": [[{"kind": "sinusoidal", "amp": 1.0, "omega": 1.0}]]},
}


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


class TestDocuments:
    def test_constant_document_roundtrip(self):
        doc = build_document("constant", landau_constant())
        text = emit_json(doc)
        again = parse_document(text)
        assert again == doc
        assert emit_json(again) == text

    def test_bound_report_document_validates(self):
        rep = sphere_bound_report(Latitude(math.pi / 4, LinearPhase(1.0)),
                                  TimeWindow(0.0, 2 * math.pi, 257))
        doc = build_document("check", rep, seed=42)
        validate_document(doc)
        body = doc["report"]
        assert body["lambda"]["method"] == "closed_form"
        assert body["cap"]["converged"] in (True, False)

    def test_shipped_schema_is_a_valid_schema(self):
        # the library validates documents against the schema without
        # checking the schema itself, which costs every JSON process
        schema = json.loads(pathlib.Path(manifold_landau.__file__).with_name("schemas")
                            .joinpath("report.schema.json").read_text(encoding="utf-8"))
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        assert isinstance(reporting._validator(), cls)

    def test_invalid_documents_still_raise(self):
        doc = build_document("constant", landau_constant())
        missing = {k: v for k, v in doc.items() if k != "command"}
        wrong_type = dict(doc, report=dict(doc["report"], C="1.879"))
        for bad in (missing, wrong_type):
            with pytest.raises(jsonschema.ValidationError):
                validate_document(bad)
        validate_document(doc)

    def test_nonfinite_serializes_as_null(self):
        from manifold_landau.inequality import counterexample_report
        rep = counterexample_report(T=10.0, samples=512)
        doc = build_document("counterexample", rep)
        assert doc["report"]["rhs"] is None  # lambda = 0 makes the rhs infinite
        json.dumps(doc, allow_nan=False)

    def test_time_series_columns(self):
        curve = Latitude(math.pi / 4, LinearPhase(1.0))
        from manifold_landau.auxfun import ChordalHalfSquare
        from manifold_landau.geometry import SurfacePoint
        text = curve_time_series(curve, TimeWindow(0.0, 1.0, 8),
                                 aux=ChordalHalfSquare(SurfacePoint([0, 0, 1.0])))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["t", "speed", "covariant_accel_norm", "v", "aux_value"]
        assert len(rows) == 9
        parsed = np.array([[float(v) for v in r] for r in rows[1:]])
        assert np.allclose(parsed[:, 1], math.sin(math.pi / 4))


class TestCliExitCodes:
    def test_check_ok(self, tmp_path, capsys):
        assert main(["check", write_spec(tmp_path, LAT_SPEC)]) == 0
        out = capsys.readouterr().out
        assert "satisfied" in out

    def test_check_hypotheses_violated(self, tmp_path):
        assert main(["check", write_spec(tmp_path, COUNTER_SPEC)]) == 2

    def test_check_validation_error_names_key(self, tmp_path, capsys):
        bad = dict(LAT_SPEC)
        bad["window"] = {"t_min": 0.0, "t_max": 1.0, "samples": 1}
        assert main(["check", write_spec(tmp_path, bad)]) == 1
        assert "window.samples" in capsys.readouterr().err

    def test_check_unknown_key_named(self, tmp_path, capsys):
        bad = dict(LAT_SPEC)
        bad["worker"] = 3
        assert main(["check", write_spec(tmp_path, bad)]) == 1
        assert "worker" in capsys.readouterr().err

    def test_check_unknown_nested_key_named(self, tmp_path, capsys):
        bad = json.loads(json.dumps(LAT_SPEC))
        bad["params"]["colatitud"] = 1.0
        assert main(["check", write_spec(tmp_path, bad)]) == 1
        assert "params.colatitud" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/spec.json"]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["check", str(path)]) == 1


class TestCliOutputs:
    def test_constant_digits(self, capsys):
        assert main(["constant", "--digits", "3"]) == 0
        assert "1.879" in capsys.readouterr().out

    def test_constant_json_schema(self, capsys):
        assert main(["constant", "--json"]) == 0
        doc = parse_document(capsys.readouterr().out)
        assert abs(doc["report"]["C"] - 1.87939) <= 1e-5

    def test_python_dash_m_runs_the_cli(self, tmp_path, capsys):
        src = str(pathlib.Path(manifold_landau.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "manifold_landau", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)

        done = run("constant", "--json")
        assert main(["constant", "--json"]) == 0
        assert (done.returncode, done.stdout) == (0, capsys.readouterr().out)
        missing = run("check", str(tmp_path / "missing.json"))
        assert missing.returncode == 1 and missing.stderr.startswith("error: ")

    def test_check_json_roundtrip_and_determinism(self, tmp_path, capsys):
        spec = write_spec(tmp_path, LAT_SPEC)
        assert main(["check", spec, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["check", spec, "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = parse_document(first)
        assert doc["seed"] == 42
        assert abs(doc["report"]["slack_ratio"] - 1 / landau_constant().C ** 2) <= 1e-6

    def test_check_csv(self, tmp_path, capsys):
        assert main(["check", write_spec(tmp_path, LAT_SPEC), "--csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["t", "speed", "covariant_accel_norm", "v", "aux_value"]

    def test_diagnose_ok(self, tmp_path):
        assert main(["diagnose", write_spec(tmp_path, LAT_SPEC)]) == 0

    def test_diagnose_hypotheses_violated(self, tmp_path):
        assert main(["diagnose", write_spec(tmp_path, COUNTER_SPEC)]) == 2

    def test_diagnose_json(self, tmp_path, capsys):
        assert main(["diagnose", write_spec(tmp_path, LAT_SPEC), "--json"]) == 0
        doc = parse_document(capsys.readouterr().out)
        assert doc["report"]["v_bound_ok"] is True

    def test_chebyshev_command(self, tmp_path, capsys):
        pts = Latitude(math.pi / 4, LinearPhase(1.0)).batch(
            np.linspace(0, 2 * math.pi, 33)[:-1])[0]
        path = tmp_path / "points.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "x", "y", "z"])
            for i, p in enumerate(pts):
                w.writerow([0.1 * i] + [repr(float(c)) for c in p])
        assert main(["chebyshev", str(path), "--json"]) == 0
        doc = parse_document(capsys.readouterr().out)
        e = doc["report"]["cap"]["e"]
        assert abs(e[2] - 1.0) <= 1e-6
        assert doc["report"]["points"] == 32

    def test_counterexample_csv_scaling(self, capsys):
        assert main(["counterexample", "--T", "50", "--csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        data = np.array([[float(v) for v in r] for r in rows[1:]])
        speed = data[:, 1]
        accel = data[:, 2]
        assert abs(speed.max() - 50.0) <= 1e-6
        assert abs(accel.max() - 1.0) <= 1e-9

    def test_counterexample_json(self, capsys):
        # the great-circle cloud lies in no open hemisphere: the cap keeps its
        # warning and an exact center with objective 0, so lambda == 0 and the
        # infinite rhs serializes as null
        for T, samples in (("10", "512"), ("50", "40001")):
            assert main(["counterexample", "--T", T, "--samples", samples, "--json"]) == 0
            rep = parse_document(capsys.readouterr().out)["report"]
            assert rep["hypotheses_ok"] is False
            assert rep["cap"]["warning"] is not None
            assert rep["lambda"]["value"] == 0.0
            assert rep["rhs"] is None

    def test_probe_json(self, capsys):
        assert main(["probe", "--family", "latitude", "--budget", "3", "--json"]) == 0
        doc = parse_document(capsys.readouterr().out)
        assert abs(doc["report"]["best_q"] - 1.0) <= 1e-9

    def test_probe_csv(self, capsys):
        assert main(["probe", "--family", "latitude", "--budget", "2", "--csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][0] == "family" and rows[1][0] == "latitude"

    def test_classical_ok(self, tmp_path, capsys):
        assert main(["classical", write_spec(tmp_path, SINE_SPEC)]) == 0
        assert "0.5" in capsys.readouterr().out

    def test_classical_json(self, tmp_path, capsys):
        assert main(["classical", write_spec(tmp_path, SINE_SPEC), "--json"]) == 0
        doc = parse_document(capsys.readouterr().out)
        assert abs(doc["report"]["slack_ratio"] - 0.5) <= 1e-9

    def test_classical_rejects_sphere_family(self, tmp_path):
        assert main(["classical", write_spec(tmp_path, LAT_SPEC)]) == 1

    def test_classical_csv(self, tmp_path, capsys):
        assert main(["classical", write_spec(tmp_path, SINE_SPEC), "--csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["t", "f", "fprime", "fsecond"]


def _csv_writer_text(header, rows):
    """The csv module's RFC-4180 writer: the reference for reporting's CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


SPECFILES = pathlib.Path(__file__).resolve().parent.parent / "specfiles"


class TestCsvText:
    """Every --csv output equals what csv.writer makes of the same rows."""

    @pytest.mark.parametrize("argv", [
        ["check", "latitude_quarter.json"],
        ["diagnose", "latitude_quarter.json"],
        ["check", "counterexample.json"],  # diagnose stops at the violated hypotheses
        ["classical", "classical_sine.json"],
        ["counterexample"],
        ["probe", "--family", "latitude", "--budget", "2"],
        ["constant"],
    ], ids="-".join)
    def test_matches_csv_writer(self, monkeypatch, capsys, argv):
        assert sorted(p.name for p in SPECFILES.glob("*.json")) == [
            "classical_sine.json", "counterexample.json", "latitude_quarter.json"]
        argv = [str(SPECFILES / a) if a.endswith(".json") else a for a in argv] + ["--csv"]
        code = main(argv)
        joined = capsys.readouterr().out
        monkeypatch.setattr(reporting, "_csv_text", _csv_writer_text)
        assert main(argv) == code
        assert capsys.readouterr().out == joined
        assert joined.count("\r\n") >= 2


class TestWorkers:
    def test_chunked_tie_smallest_t(self):
        est = sup_norm(Latitude(0.7, LinearPhase(1.0)), TimeWindow(0.0, 1.0, 2048),
                       lambda ts, X, Xd, Xdd: np.ones(len(ts)))
        assert est.argmax_t == 0.0 and est.value == 1.0


COMPOUND_SPEC = {
    "family": "compound",
    "params": {"base": [0.0, 0.0, 1.0], "frames": [
        {"axis": [0.3, -0.5, 0.8], "phase": {"kind": "sinusoidal", "amp": 0.35, "omega": 0.8137}},
        {"axis": [1.0, 0.2, 0.1], "phase": {"kind": "sinusoidal", "amp": 0.3, "omega": 1.3291}},
        {"axis": [0.0, 1.0, 0.5], "phase": {"kind": "sinusoidal", "amp": 0.25, "omega": 1.7713}},
    ]},
}


class TestWorkBudget:
    """The curve is evaluated once per window grid; refinement adds one
    small batch per parabolic step for all sups together."""

    @pytest.fixture
    def batches(self, monkeypatch):
        """(samples, thread id) of every compound and great-circle batch call."""
        calls = []
        for cls in (SphericalCompound, GreatCircle):
            def counted(curve, ts, original=cls.batch):
                calls.append((len(ts), threading.get_ident()))
                return original(curve, ts)

            monkeypatch.setattr(cls, "batch", counted)
        return calls

    def test_probe_q_batch_calls(self, batches):
        from manifold_landau.inequality import build_curve, probe_q, sample_params
        params = sample_params("compound", np.random.default_rng(3))
        q, _ = probe_q(build_curve("compound", params))
        assert q is not None
        assert len(batches) <= 12, len(batches)

    @pytest.mark.parametrize("argv, budget", [
        (["check", "--json"], 41_000),
        (["check", "--csv"], 41_000),
        (["diagnose", "--json"], 41_000),
    ])
    def test_dense_cli_samples(self, batches, tmp_path, capsys, argv, budget):
        path = write_spec(tmp_path, COMPOUND_SPEC)
        assert main([argv[0], path, argv[1]]) in (0, 2)
        assert capsys.readouterr().out
        assert 40001 <= sum(n for n, _ in batches) <= budget
        assert {tid for _, tid in batches} == {threading.get_ident()}

    @pytest.mark.parametrize("command", ["check", "diagnose"])
    def test_bad_aux_fails_before_the_curve_is_evaluated(self, batches, tmp_path, capsys,
                                                         command):
        path = write_spec(tmp_path, dict(COMPOUND_SPEC, aux={"kind": "bogus"}))
        assert main([command, path, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("spec error: 'aux.kind' must be chordal, intrinsic or "
                                "euclidean_quadratic\n")
        assert not captured.out
        assert sum(n for n, _ in batches) == 0

    def test_counterexample_csv_samples(self, batches, capsys):
        assert main(["counterexample", "--csv"]) == 0
        assert capsys.readouterr().out
        assert 4001 <= sum(n for n, _ in batches) <= 4_400, sum(n for n, _ in batches)


def _non_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe\x00t,x,y,z\n\xc3\x28\n")
    return str(path)


def _sampled_spec(tmp_path, csv_path):
    return write_spec(tmp_path, {"family": "sampled", "params": {"path": csv_path}},
                      name="sampled.json")


class TestFileErrors:
    """Unreadable inputs exit 1 with one error line, never a traceback."""

    @pytest.mark.parametrize("make_argv", [
        lambda d: ["check", str(d)],
        lambda d: ["check", _non_utf8(d, "spec.json")],
        lambda d: ["check", _sampled_spec(d, str(d))],
        lambda d: ["check", _sampled_spec(d, _non_utf8(d, "curve.csv"))],
        lambda d: ["chebyshev", str(d)],
        lambda d: ["chebyshev", _non_utf8(d, "points.csv")],
    ], ids=["check-dir", "check-non-utf8", "sampled-dir", "sampled-non-utf8",
            "chebyshev-dir", "chebyshev-non-utf8"])
    def test_unreadable_input_exits_1(self, tmp_path, capsys, make_argv):
        assert main(make_argv(tmp_path)) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(("error: ", "spec error: ")), lines
        assert not captured.out

    def test_points_csv_names_non_finite_row(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("t,x,y,z\n0.0,0,0,1\n0.1,nan,0,1\n0.2,1,0,0\n", encoding="utf-8")
        assert main(["chebyshev", str(path)]) == 1
        assert "row 2" in capsys.readouterr().err


def _axes_csv(tmp_path):
    """The six unit axis points: no open hemisphere holds them, so the cap
    comes with a warning."""
    path = tmp_path / "axes.csv"
    path.write_text("t,x,y,z\n0,1,0,0\n1,-1,0,0\n2,0,1,0\n3,0,-1,0\n4,0,0,1\n5,0,0,-1\n",
                    encoding="utf-8")
    return str(path)


BOUND_LABELS = ["window", "sup |x'|", "r0 = sup |grad U|", "r2 = sup |D x'|", "lambda", "sup U",
                "lhs  |x'|^2", "rhs  C^2 r0 r2/l"]
BOUND_TAIL_LABELS = ["slack lhs/rhs", "hypotheses_ok", "satisfied"]
CAP_LABELS = ["cap center e", "min <e, x(t)>"]
EXPONENT_NOTE = ("note: sphere bound applied to the squared velocity sup norm, consistent "
                 "with the general bound's derivation")
VIOLATED_NOTE = "note: hypotheses violated: the bound makes no claim on this curve"
WORST = "  worst t / margin"


class TestTextLayout:
    """The text form of every command: its labels in order, the one column
    where all values start, and the note:/warning: lines after them."""

    @pytest.mark.parametrize("make_argv, code, labels, column, tail", [
        (lambda d: ["constant"], 0, ["C", "residual"], 10, []),
        (lambda d: ["check", write_spec(d, LAT_SPEC)], 0,
         BOUND_LABELS + BOUND_TAIL_LABELS, 19, []),
        (lambda d: ["check", write_spec(d, COUNTER_SPEC)], 2,
         BOUND_LABELS + ["rhs (relaxed)"] + BOUND_TAIL_LABELS + CAP_LABELS, 19,
         [VIOLATED_NOTE, EXPONENT_NOTE]),
        (lambda d: ["diagnose", write_spec(d, LAT_SPEC)], 0,
         ["v bound ok", WORST, "speed slope ok", WORST, "chain ok", WORST], 20, []),
        (lambda d: ["chebyshev", _axes_csv(d)], 0,
         ["points", "cap center e", "min inner product", "chordal radius", "converged"], 19,
         ["warning: cloud is not contained in an open hemisphere; minimizer may be non-unique"]),
        (lambda d: ["counterexample", "--T", "3", "--samples", "201"], 0,
         BOUND_LABELS + ["rhs (relaxed)"] + BOUND_TAIL_LABELS + CAP_LABELS, 19,
         [VIOLATED_NOTE, EXPONENT_NOTE, "note: counterexample family: speed sup grows like T "
          "while the covariant acceleration sup stays 1"]),
        (lambda d: ["probe", "--family", "latitude", "--budget", "3"], 0,
         ["family", "best Q", "sqrt(Q)", "ceiling C^2", "evaluations", "skipped"], 13, []),
        (lambda d: ["classical", write_spec(d, SINE_SPEC)], 0,
         ["sup |f|", "sup |f'|", "sup |f''|", "lhs |f'|^2", "rhs 2|f| |f''|", "slack lhs/rhs",
          "satisfied"], 18,
         ["note: Banach-space-valued analogue holds with constant 4 (not checked)"]),
    ], ids=["constant", "check", "check-violated", "diagnose", "chebyshev", "counterexample",
            "probe", "classical"])
    def test_labels_column_and_notes(self, tmp_path, capsys, make_argv, code, labels, column,
                                     tail):
        assert main(make_argv(tmp_path)) == code
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert not captured.err
        rows, notes = lines[:len(labels)], lines[len(labels):]
        assert [row[:column].rstrip() for row in rows] == labels
        assert all(row[column - 2:column] == "  " and row[column] != " " for row in rows), rows
        assert notes == tail


PHASE_FIELDS = {  # kind: (required fields, optional fields), as in the README
    "linear": (["omega"], ["phi"]),
    "quadratic": (["alpha"], ["omega"]),
    "sinusoidal": (["amp", "omega"], ["drift"]),
}


def _phase_cases():
    """(phase object, error message) for each field of each phase kind
    missing and not a number, for an unknown key and for a bad kind."""
    for kind, (required, optional) in PHASE_FIELDS.items():
        full = {"kind": kind, **{f: 0.5 for f in required + optional}}
        for f in required:
            yield pytest.param({k: v for k, v in full.items() if k != f},
                               f"missing key 'params.phase.{f}'", id=f"{kind}-missing-{f}")
        for f in required + optional:
            yield pytest.param({**full, f: "1.0"}, f"'params.phase.{f}' must be a number",
                               id=f"{kind}-non-number-{f}")
        yield pytest.param({**full, "omgea": 1.0}, "unknown key 'params.phase.omgea'",
                           id=f"{kind}-unknown-key")
    for name, bad in (("unknown", "cubic"), ("list", ["linear"]), ("null", None)):
        yield pytest.param({"kind": bad, "omega": 1.0},
                           "'params.phase.kind' must be linear, quadratic or sinusoidal",
                           id=f"kind-{name}")
    yield pytest.param({"omega": 1.0}, "missing key 'params.phase.kind'", id="kind-missing")


class TestPhaseSpecErrors:
    """A malformed phase exits 1 with one line naming params.phase.<field>."""

    def test_cases_cover_every_phase_kind(self):
        assert set(PHASE_FIELDS) == set(PHASE_KINDS)

    @pytest.mark.parametrize("phase, message", _phase_cases())
    def test_exits_1_naming_the_field(self, tmp_path, capsys, phase, message):
        spec = {"family": "latitude", "params": {"colatitude": 0.7, "phase": phase}}
        assert main(["check", write_spec(tmp_path, spec)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"spec error: {message}\n")


def _exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestArgumentErrors:
    """A bad command-line argument exits 1 with one line naming the flag,
    never 2 (which means "hypotheses violated") and never a traceback."""

    @pytest.mark.parametrize("argv, flag", [
        (["probe", "--budget", "abc"], "--budget"),
        (["probe", "--budget", "0"], "--budget"),
        (["probe", "--budget", "-3"], "--budget"),
        (["constant", "--digits", "-1"], "--digits"),
        (["probe", "--seed", "-1"], "--seed"),
        (["probe", "--seed", "1.5"], "--seed"),
        (["check"], "spec"),
        (["bogus"], "bogus"),
        (["counterexample", "--samples", "2"], "--samples"),
        (["counterexample", "--T", "nan"], "--T"),
        (["counterexample", "--T", "inf"], "--T"),
        (["counterexample", "--T", "0"], "--T"),
        (["counterexample", "--T", "-1"], "--T"),
    ], ids=["budget-abc", "budget-0", "budget-negative", "digits-negative", "seed-negative",
            "seed-float", "check-no-spec", "unknown-command", "samples-2", "T-nan", "T-inf",
            "T-zero", "T-negative"])
    def test_exits_1_with_one_line(self, capsys, argv, flag):
        assert _exit_code(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and flag in lines[0], lines
        assert not captured.out

    def test_digits_zero_is_honoured(self, capsys):
        assert main(["constant", "--digits", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[0].split() == ["C", "2"]

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["check", "--help"]],
                             ids=" ".join)
    def test_help_and_version_exit_0(self, capsys, argv):
        assert _exit_code(argv) == 0
        assert capsys.readouterr().out


NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
if sys.argv[2] == "block":
    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"{name} is blocked")
    sys.meta_path.insert(0, BlockScipy())
from manifold_landau import cli
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _run_every_command(tmp_path, mode):
    """Run every CLI command in a fresh interpreter; return its exit codes
    and the scipy modules it loaded."""
    points = tmp_path / "points.csv"
    X = Latitude(math.pi / 4, LinearPhase(1.0)).batch(np.linspace(0.0, 6.0, 50))[0]
    points.write_text("t,x,y,z\n" + "".join("0," + ",".join(map(repr, map(float, p))) + "\n"
                                           for p in X),
                      encoding="utf-8")
    specs = sorted(SPECFILES.glob("*.json"))
    argvs = [[cmd, str(spec)] for cmd in ("check", "diagnose", "classical") for spec in specs]
    argvs += [["counterexample"], ["chebyshev", str(points)], ["probe", "--budget", "5", "--json"],
              ["constant", "--json"]]
    src = str(pathlib.Path(manifold_landau.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(argvs), mode],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


# classical_sine, counterexample, latitude_quarter: exit 1 marks a spec the
# command does not take
EVERY_COMMAND_CODES = [1, 2, 0, 1, 2, 0, 0, 1, 1, 0, 0, 0, 0]


def test_curve_commands_never_import_scipy(tmp_path):
    """check, diagnose and classical on the shipped specs, counterexample,
    chebyshev, probe and constant run in a fresh interpreter without
    loading scipy."""
    result = _run_every_command(tmp_path, "watch")
    assert result["codes"] == EVERY_COMMAND_CODES
    assert result["scipy"] == []


def test_every_command_runs_with_scipy_blocked(tmp_path):
    """With every scipy import made to fail, each command exits as it
    does with scipy installed: the runtime does not need scipy."""
    result = _run_every_command(tmp_path, "block")
    assert result["codes"] == EVERY_COMMAND_CODES
    assert result["scipy"] == []
