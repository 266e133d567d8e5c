"""Benchmark of the manifold-landau CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense_probe|dense_sampled \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
The run generates the workload's inputs from the seed, then launches
SETUP_SAMPLES fresh interpreters (perfbench/worker.py). All of them make
the untimed warm-up call; the last one goes on to the timed passes and
checks every output. The end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1) are printed by name with their unit, then, as the
last line, one JSON object with keys correct, attempted, failed and
metrics. The full result with provenance goes to
.perfbench_work/results/<workload>-seed<N>-trace<T>.json.
See perfbench/README.md for the metrics and the workloads.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (sibling modules; need the path above)
import workloads  # noqa: E402

SETUP_SAMPLES = 3        # set-up is measured this often per run; the median is reported
RUN_TIMEOUT_S = 170      # the whole run must end within 180 s
TAIL_BEYOND = 10         # the tail percentile keeps at least this many calls beyond it

END_TO_END = {"setup_s": "s", "pass_s": "s", "call_p50_ms": "ms", "call_p90_ms": "ms",
              "evals_per_s": "1/s", "peak_rss_mb": "MB"}


def tail_percentile(n):
    """Highest percentile up to 90 with TAIL_BEYOND calls beyond it, and
    never below the median."""
    return max(50.0, min(90.0, 100.0 * (1.0 - TAIL_BEYOND / n)))


def provenance(root, seed, worker_count):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": len(os.sched_getaffinity(0)), "os_cpu_count": os.cpu_count(),
            "worker_count": worker_count,
            "MANIFOLD_LANDAU_THREADS": os.environ.get("MANIFOLD_LANDAU_THREADS"),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "jsonschema": version("jsonschema"),
            "git_commit": commit, "seed": seed}


def launch(rundir, env, out, seconds, trace, setup_only, deadline):
    """Run one worker to completion; returns (its result, launch time)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "manifest.json", out,
            "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    t_launch = time.monotonic()
    # run() kills the child on timeout and waits for it
    subprocess.run(argv, cwd=rundir, env=env, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, check=True,
                   timeout=max(1.0, deadline - t_launch))
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), t_launch


def end_to_end(measured, setups):
    passes = measured["passes"]
    calls_ms = [1000.0 * s for p in passes for s in p["call_s"]]
    q = tail_percentile(len(calls_ms))
    # the host's speed drifts over tens of seconds, slower than a pass, so
    # the whole run's time per pass is steadier than a median of 4-6 passes
    total_s = sum(p["pass_s"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": total_s / len(passes),
        "call_p50_ms": float(np.percentile(calls_ms, 50)),
        "call_p90_ms": float(np.percentile(calls_ms, q)),
        "evals_per_s": sum(p["evals"] for p in passes) / total_s,
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    notes = {"calls": len(calls_ms), "passes": len(passes), "call_p90_percentile": q,
             "setup_samples_s": setups}
    return metrics, notes


def per_layer(measured):
    traced = measured["traced"]
    metrics = {}
    for name, unit in tracing.PER_LAYER.items():
        if name == "trace.overhead_frac":
            continue
        values = [p["layers"][name] for p in traced]
        # counts repeat exactly from pass to pass; times take the median
        metrics[name] = statistics.median(values) if unit == "s" else values[0]
    untraced = statistics.median(p["pass_s"] for p in measured["passes"])
    metrics["trace.overhead_frac"] = statistics.median(p["pass_s"] for p in traced) / untraced - 1
    return metrics, {"traced_passes": len(traced), "untraced_passes": len(measured["passes"])}


def run(args, root):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workdir = os.path.join(root, ".perfbench_work")
    results_dir = os.path.join(workdir, "results")
    os.makedirs(results_dir, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        workloads.generate(args.workload, args.seed, rundir)
        setups = []
        for i in range(SETUP_SAMPLES):
            last = i == SETUP_SAMPLES - 1
            out = os.path.join(rundir, f"result{i}.json")
            result, t_launch = launch(rundir, env, out, args.seconds, args.trace,
                                      not last, deadline)
            setups.append(result["t_ready"] - t_launch)
        measured = result
        stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        if args.trace:
            metrics, notes = per_layer(measured)
            shutil.move(out + ".spans.jsonl", stem + ".spans.jsonl")
            units = tracing.PER_LAYER
        else:
            metrics, notes = end_to_end(measured, setups)
            units = END_TO_END
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    failed_frac = measured["failed"] / measured["attempted"]
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(root, args.seed, measured["worker_count"]),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "failed_frac": failed_frac, "attempted": measured["attempted"],
              "failed": measured["failed"], "failures": measured["failures"], "notes": notes,
              "passes": measured["passes"], "traced": measured.get("traced")}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, value in metrics.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
    print(f"{args.workload} failed_frac {failed_frac!r} frac")
    if not args.trace:
        print(f"{args.workload} note: {notes['calls']} calls in {notes['passes']} passes; "
              f"call_p90_ms is their p{notes['call_p90_percentile']:.4g}")
    for failure in measured["failures"]:
        print(f"{args.workload} FAILED {' '.join(failure['argv'])}: "
              f"{'; '.join(failure['errors'])}", file=sys.stderr)
    print(json.dumps({"correct": measured["failed"] == 0, "attempted": measured["attempted"],
                      "failed": measured["failed"],
                      "metrics": record["metrics"]}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    # a SIGTERM unwinds like an exception, so subprocess.run kills and
    # waits for the running worker and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "manifold_landau", "cli.py")):
        print("perfbench: run from the root of a manifold-landau checkout "
              "(src/manifold_landau/cli.py not found)", file=sys.stderr)
        return 2
    try:
        return run(args, root)
    except (OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"perfbench: run failed: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
