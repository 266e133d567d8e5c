import csv
import io
import json
import math
import threading

import jsonschema
import numpy as np
import pytest

from manifold_landau.cli import main
from manifold_landau.curves import (
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
    small batch per golden iteration for all sups together."""

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
        assert len(batches) <= 32, len(batches)

    @pytest.mark.parametrize("argv, budget", [
        (["check", "--json"], 41_000),
        (["check", "--csv"], 41_000),
        (["diagnose", "--json"], 121_000),
    ])
    def test_dense_cli_samples(self, batches, tmp_path, capsys, argv, budget):
        path = write_spec(tmp_path, COMPOUND_SPEC)
        assert main([argv[0], path, argv[1]]) in (0, 2)
        assert capsys.readouterr().out
        assert 40001 <= sum(n for n, _ in batches) <= budget
        assert {tid for _, tid in batches} == {threading.get_ident()}

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
