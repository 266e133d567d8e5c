"""One workload in a fresh interpreter: set-up, timed passes, output checks.

    python3 worker.py MANIFEST OUT --seconds S --trace 0|1 [--setup-only]

Runs with the generated inputs' directory as working directory and the
checkout's `src` on PYTHONPATH. It imports the CLI, makes the manifest's
warm-up call and notes the monotonic clock (the parent started its clock
before launching this process). With --setup-only it stops there.
Otherwise it runs passes over the manifest's call list, each call through
`manifold_landau.cli.main(argv)` in this process with stdout captured:
one client, closed loop, no threads of its own. Outputs are checked after
the last pass; identical outputs of one call are checked once. With
--trace 1 the second half of the time runs with the span recorder
installed, the result adds the per-layer metrics of each traced pass
and the spans go to OUT.spans.jsonl. The result is written as JSON to
OUT.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import numpy as np

import tracing

# even a short run averages several passes: the host's speed drifts by
# tens of percent over seconds
MIN_PASSES = 3


def run_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
    return code, dt, out.getvalue(), err.getvalue()


def run_pass(cli, calls, recorder=None):
    """One pass over the call list; returns (wall seconds, per-call records)."""
    records = []
    t0 = time.perf_counter()
    for i, call in enumerate(calls):
        if recorder is None:
            records.append(run_call(cli, call["argv"]))
            continue
        recorder.call_id = i
        span = recorder.open("cli.main")
        try:
            records.append(run_call(cli, call["argv"]))
        finally:
            recorder.close(span)
            recorder.call_id = None
    return time.perf_counter() - t0, records


class Outputs:
    """Keeps the first output of each (call, exit code, stdout digest)."""

    def __init__(self):
        self.distinct = {}
        self.per_call = []  # the key of every call made

    def add(self, records):
        for i, (code, _, stdout, stderr) in enumerate(records):
            key = (i, code, hashlib.sha256(stdout.encode()).hexdigest())
            self.distinct.setdefault(key, (code, stdout, stderr))
            self.per_call.append(key)


PIPELINE_COMMANDS = ("check", "diagnose", "counterexample", "classical")


def pipeline_runs(calls, records):
    """Bound-report pipelines a pass ran: one per call of a pipeline
    command, ProbeResult.evaluations per probe call."""
    total = 0
    for call, (_, _, stdout, _) in zip(calls, records):
        if call["argv"][0] != "probe":
            total += call["argv"][0] in PIPELINE_COMMANDS
            continue
        try:
            total += json.loads(stdout)["report"]["evaluations"]
        except (ValueError, KeyError, TypeError):
            pass  # a broken probe document fails its output check
    return total


def timed_phase(cli, calls, outputs, seconds, min_passes, recorder=None):
    """Passes until `seconds` of pass time and `min_passes` passes."""
    passes = []
    while len(passes) < min_passes or sum(p["pass_s"] for p in passes) < seconds:
        first_span = len(recorder.spans) if recorder else 0
        wall, records = run_pass(cli, calls, recorder)
        passes.append({"pass_s": wall, "call_s": [r[1] for r in records],
                       "evals": pipeline_runs(calls, records),
                       "spans": (first_span, len(recorder.spans) if recorder else 0)})
        outputs.add(records)
    return passes


def traced_phase(cli, calls, outputs, seconds, checker):
    """Passes with the span recorder installed; per-layer metrics of each."""
    recorder = tracing.Recorder()
    undo = tracing.install(recorder)
    try:
        passes = timed_phase(cli, calls, outputs, seconds, 1, recorder)
    finally:
        tracing.uninstall(undo)

    def oracle(cloud):
        cloud = np.ascontiguousarray(cloud, dtype=float)
        return checker.oracle(("cloud", hashlib.sha256(cloud.tobytes()).hexdigest()),
                              lambda: cloud)

    for p in passes:
        lo, hi = p["spans"]
        p["layers"] = tracing.layer_metrics(recorder.spans[lo:hi], oracle)
    return passes, recorder.spans


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            attrs = {k: v for k, v in s.attrs.items() if k != "cloud"}
            fh.write(json.dumps([s.id, s.parent, s.call, s.name, s.thread,
                                 s.start, s.end, attrs]) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("manifest")
    ap.add_argument("out")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)

    from manifold_landau import cli
    warm = run_call(cli, manifest["warmup"]["argv"])
    result = {"t_ready": time.monotonic(), "warmup_exit": warm[0]}
    if not args.setup_only:
        result.update(measure(cli, manifest["calls"], args))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def measure(cli, calls, args):
    # imported here: checks imports the library, whose import is set-up time
    from checks import Checker
    from manifold_landau import config

    outputs = Outputs()
    checker = Checker()
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = timed_phase(cli, calls, outputs, seconds, 1 if args.trace else MIN_PASSES)
    result = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "worker_count": config.worker_count()}
    if args.trace:
        traced, spans = traced_phase(cli, calls, outputs, seconds, checker)
        write_spans(args.out + ".spans.jsonl", spans)
        result["traced"] = [{k: p[k] for k in ("pass_s", "layers")} for p in traced]

    failures = {}
    for key, (code, stdout, stderr) in outputs.distinct.items():
        errors = checker.check(calls[key[0]], code, stdout)
        if errors:
            failures[key] = errors + ([f"stderr: {stderr.strip()}"] if stderr.strip() else [])
    result["attempted"] = len(outputs.per_call)
    result["failed"] = sum(1 for key in outputs.per_call if key in failures)
    result["failures"] = [{"argv": calls[k[0]]["argv"], "errors": e} for k, e in failures.items()]
    result["passes"] = [{k: p[k] for k in ("pass_s", "call_s", "evals")} for p in passes]
    return result


if __name__ == "__main__":
    sys.exit(main())
