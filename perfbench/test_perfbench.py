"""Tests of the benchmark itself: python3 -m pytest -q perfbench

The per-layer and metric-name tests run every workload once traced and
the first once untraced with a short --seconds; they take a few minutes.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from manifold_landau import auxfun, chebyshev, cli, config, curves, inequality  # noqa: E402

ALL = list(workloads.WORKLOADS)

# metric -> workloads on which it must fire (the "moves" column of the
# README's layer table); fractions and the shortfall "fire" when the
# calls they are computed from do
FIRES_ON = {
    "cli.main.self_s": ALL,
    "cli.ingest.self_s": ["dense_sampled"],
    "cli.ingest.rows": ["dense_sampled"],
    "curves.batch.calls": ALL,
    "curves.batch.samples": ALL,
    "curves.batch.compound.self_s": ALL,
    "curves.batch.sampled.self_s": ["dense_sampled"],
    "curves.batch.analytic_other.self_s": ALL,
    "curves.scan.calls": ["dense_probe"],
    "curves.scan.self_s": ["dense_probe"],
    "golden.max_batch.calls": ["dense_probe"],
    "golden.max_batch.self_s": ["dense_probe"],
    "golden.max.calls": ["dense_probe"],
    "golden.max.self_s": ["dense_probe"],
    "config.chunked_extremum.calls": ALL,
    "config.pooled_calls": ALL,
    "config.pool_wait_s": ALL,
    "chebyshev.center.calls": ALL,
    "chebyshev.center.points": ALL,
    "chebyshev.center.self_s": ALL,
    "chebyshev.center.iterations": ALL,
    "chebyshev.center.converged_frac": ("chebyshev.center.calls", ALL),
    "chebyshev.center.oracle_shortfall_max": ("chebyshev.center.calls", ALL),
    "auxfun.lambda_min.closed.calls": ALL,
    "auxfun.lambda_min.closed.self_s": ALL,
    "auxfun.lambda_min.directional.calls": ["dense_sampled"],
    "auxfun.lambda_min.directional.self_s": ["dense_sampled"],
    "inequality.bound_report.calls": ALL,
    "inequality.bound_report.self_s": ALL,
    "inequality.diagnostics.self_s": ALL,
    "inequality.probe.evaluations": ["dense_probe"],
    "inequality.probe.skipped_frac": ("inequality.probe.evaluations", ["dense_probe"]),
    "reporting.build_document.calls": ALL,
    "reporting.build_document.self_s": ALL,
    "reporting.emit_json.self_s": ALL,
    "reporting.time_series.rows": ALL,
    "reporting.time_series.self_s": ALL,
    "trace.overhead_frac": ("curves.batch.calls", ALL),
}


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (3, 3, 4)):
        d.mkdir()
        workloads.generate(workload, seed, str(d))
    a, b, c = (_files(d) for d in dirs)
    assert a == b
    assert a != c


def test_self_plus_child_times_add_up_to_span_durations():
    recorder = tracing.Recorder()
    undo = tracing.install(recorder)
    try:
        recorder.call_id = 0
        span = recorder.open("cli.main")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check", os.path.join(ROOT, "specfiles", "counterexample.json"),
                             "--json"])
        recorder.close(span)
    finally:
        tracing.uninstall(undo)
    assert code == 2
    spans = recorder.spans
    own = tracing.self_times(spans)
    by_id = {s.id: s for s in spans}
    children = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None and by_id[s.parent].thread == s.thread:
            children[s.parent] += s.end - s.start
            assert by_id[s.parent].start <= s.start <= s.end <= by_id[s.parent].end
    for s in spans:
        assert own[s.id] >= -1e-9
        assert own[s.id] + children[s.id] == pytest.approx(s.end - s.start, abs=1e-12)
    # pool workers' spans hang under the chunked_extremum that started them
    workers = [s for s in spans if s.thread != spans[0].thread]
    assert bool(workers) == (config.worker_count() > 1)
    assert all(by_id[s.parent].name == "config.chunked_extremum" for s in workers)
    assert {s.call for s in spans} == {0}


def test_install_rebinds_every_import_and_uninstall_restores_it():
    names = [(cli, "chebyshev_center"), (inequality, "chebyshev_center"),
             (chebyshev, "golden_max"), (auxfun, "golden_max"),
             (curves, "scan_extremum"), (auxfun, "scan_extremum"),
             (curves.GreatCircle, "batch"), (curves.SampledCurve, "batch")]
    before = [getattr(obj, name) for obj, name in names]
    undo = tracing.install(tracing.Recorder())
    try:
        assert all(getattr(obj, name) is not orig for (obj, name), orig in zip(names, before))
    finally:
        tracing.uninstall(undo)
    assert [getattr(obj, name) for obj, name in names] == before


def test_blocked_oracle_matches_the_library_oracle():
    rng = np.random.default_rng(0)
    for n in (5, 200, 2000):
        P = rng.normal(size=(n, 3)) * [0.3, 0.3, 1.0] + [0.0, 0.0, 2.0]
        P /= np.linalg.norm(P, axis=1)[:, None]
        expected = chebyshev.chebyshev_grid_oracle(P).min_inner_product
        assert checks.grid_oracle(P) == pytest.approx(expected, abs=1e-12)


def test_tail_percentile_keeps_ten_calls_beyond_it():
    assert run.tail_percentile(2) == 50.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(1000) == 90.0


def _run(workload, trace):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", "11", "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return lines[:-1], result


@pytest.fixture(scope="module")
def traced_runs():
    return {w: _run(w, 1) for w in workloads.WORKLOADS}


def test_every_per_layer_metric_fires_on_its_workload(traced_runs):
    for name, rule in FIRES_ON.items():
        witness, on = rule if isinstance(rule, tuple) else (name, rule)
        for workload in on:
            metrics = traced_runs[workload][1]["metrics"]
            assert name in metrics, (name, workload)
            assert metrics[witness]["value"] > 0, (name, workload)


def test_probe_scans_bypass_the_pool():
    # predicted no change on the probe: it scans 513 samples, below the
    # pool threshold
    recorder = tracing.Recorder()
    undo = tracing.install(recorder)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["probe", "--family", "compound", "--budget", "1", "--json"])
    finally:
        tracing.uninstall(undo)
    assert code == 0
    pool_spans = [s for s in recorder.spans if s.name == tracing.POOL_SPAN]
    assert pool_spans and not any(s.attrs["pooled"] for s in pool_spans)


def test_every_benchmark_metric_is_printed(traced_runs):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["per_layer"]} == set(tracing.PER_LAYER)
    for workload in workloads.WORKLOADS:
        lines, result = traced_runs[workload]
        for metric in bench["per_layer"]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert any(line.split()[1:2] == [metric["name"]] for line in lines)
    lines, result = _run(workloads.WORKLOADS[0], 0)
    for metric in bench["end_to_end"] + [{"name": "failed_frac"}]:
        assert any(line.split()[1:2] == [metric["name"]] for line in lines), metric
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
