"""Seeded input generator for the benchmark workloads.

`generate(workload, seed, outdir)` writes the spec and CSV files a
workload needs into `outdir` and returns its manifest: the untimed
warm-up call and the fixed call list of one pass. Each call is its argv
plus what its output must satisfy (see checks.py). The program runs
with `outdir` as its working directory, so argv and specs name the files
without a directory, and it only ever sees these files and the argv
lists. This module does not import the program, so a change to the
program cannot change the inputs: the same seed gives byte-identical
files on every commit.
"""

import json
import math
import os

import numpy as np

WORKLOADS = ("dense_probe", "dense_sampled")

DENSE_SPECS = 1            # aperiodic compound specs per pass
DENSE_SAMPLES = 40001      # the documented default window [-20, 20] x 40001
COMPOUND_FRAMES = 3
PROBE_BUDGET = 30          # about 90 evaluations, about 6 s on a 2-core box
PROBE_SEED = 42
SAMPLED_ROWS = 4097
COUNTEREXAMPLE = {"T": 50.0, "samples": 40001}


def _axis(rng):
    v = rng.normal(size=3)
    return [float(c) for c in v / np.linalg.norm(v)]


def _frames(rng, periodic):
    """Sinusoidal rotating frames with amplitudes summing to at most 1.35
    rad, so the curve stays well inside the hemisphere around the base
    point and the bound's hypotheses hold. Integer frequencies give
    period 2 pi; random real ones give an aperiodic curve."""
    frames = []
    for _ in range(COMPOUND_FRAMES):
        omega = float(rng.integers(1, 4)) if periodic else float(rng.uniform(0.5, 2.0))
        frames.append({"axis": _axis(rng),
                       "phase": {"kind": "sinusoidal",
                                 "amp": float(rng.uniform(0.2, 0.45)),
                                 "omega": omega}})
    return frames


def _compound_spec(frames):
    return {"family": "compound", "params": {"base": [0.0, 0.0, 1.0], "frames": frames},
            "aux": {"kind": "chordal", "center": "chebyshev"}}


def compound_points(frames, ts):
    """x(t) = R_1(theta_1(t)) ... R_m(theta_m(t)) e_z by Rodrigues' formula,
    computed here rather than by the program under test."""
    X = np.tile([0.0, 0.0, 1.0], (len(ts), 1))
    for fr in reversed(frames):
        k = np.asarray(fr["axis"])
        K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
        th = fr["phase"]["amp"] * np.sin(fr["phase"]["omega"] * ts)
        KX = X @ K.T
        X = X + np.sin(th)[:, None] * KX + (1.0 - np.cos(th))[:, None] * (KX @ K.T)
    return X


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _dense(rng, outdir):
    calls = []
    for i in range(DENSE_SPECS):
        path = f"dense{i}.json"
        _write_json(os.path.join(outdir, path), _compound_spec(_frames(rng, periodic=False)))
        calls += [
            dict(argv=["check", path, "--json"], exit=[0, 2], spec=path),
            dict(argv=["diagnose", path, "--json"], exit=[0], spec=path),
            dict(argv=["check", path, "--csv"], exit=[0, 2], rows=DENSE_SAMPLES),
        ]
    calls.append(dict(argv=["counterexample", "--T", repr(COUNTEREXAMPLE["T"]),
                        "--samples", str(COUNTEREXAMPLE["samples"]), "--json"],
                       exit=[0], counterexample=COUNTEREXAMPLE, hypotheses_ok=False))
    return calls


def _probe():
    """One `probe` call, always with the same probe seed: its Nelder-Mead
    phase evaluates one candidate's neighbourhood 60 times, so its cost
    swings by about 25% from one probe seed to another."""
    return [dict(argv=["probe", "--family", "compound", "--budget", str(PROBE_BUDGET),
                       "--seed", str(PROBE_SEED), "--json"], exit=[0], budget=PROBE_BUDGET)]


def _sampled(rng, outdir):
    frames = _frames(rng, periodic=True)
    ts = np.arange(SAMPLED_ROWS) * (2.0 * math.pi / (SAMPLED_ROWS - 1))
    X = compound_points(frames, ts)
    csv_path = "curve.csv"
    with open(os.path.join(outdir, csv_path), "w", encoding="utf-8", newline="") as fh:
        fh.write("t,x,y,z\n")
        for t, p in zip(ts.tolist(), X.tolist()):
            fh.write(f"{t!r},{p[0]!r},{p[1]!r},{p[2]!r}\n")
    specs = {}
    for kind in ("chordal", "intrinsic"):
        specs[kind] = f"sampled_{kind}.json"
        _write_json(os.path.join(outdir, specs[kind]),
                    {"family": "sampled", "params": {"path": csv_path},
                     "aux": {"kind": kind, "center": "chebyshev"}})
    calls = [
        dict(argv=["check", specs[kind], "--json"], exit=[0, 2], spec=specs[kind])
        for kind in ("chordal", "intrinsic")
    ] + [
        dict(argv=["diagnose", specs["chordal"], "--json"], exit=[0], spec=specs["chordal"]),
        dict(argv=["chebyshev", csv_path, "--json"], exit=[0], points=csv_path),
    ]
    return calls


def generate(workload, seed, outdir):
    """Write the workload's inputs into outdir; return its manifest.

    Both workloads start with the dense calls, which use both cores of
    the scan pool; the host's speed drifts by tens of percent over a
    minute, and the single-threaded probe and sampled calls swing with
    it more than the dense ones do. The warm-up is the first dense call."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    calls = _dense(rng, outdir)
    calls += _probe() if workload == "dense_probe" else _sampled(rng, outdir)
    manifest = {"workload": workload, "seed": seed, "warmup": calls[0], "calls": calls}
    _write_json(os.path.join(outdir, "manifest.json"), manifest)
    return manifest
