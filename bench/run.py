"""lpk benchmark: per-engine time and accuracy, and a traced per-layer run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload demo2d --seed 1 --seconds 40 --trace 0

Builds the workload's inputs from ``--seed`` (several times; ``setup_s``
is the median), then runs passes over them for about ``--seconds``
seconds, at least once over every case group.  ``--trace 0`` reports
the end-to-end metrics with tracing off; ``--trace 1`` alternates
untraced and traced passes on the same inputs and reports the per-layer
metrics.  Every output is checked against closed-form truth.  Times
other than ``verify_s`` are scaled to a reference host speed measured
between the calls (see ``calibrate.py``); raw seconds are in the report
line.

The second-to-last stdout line is the full report (every metric with its
unit, run metadata, failures, identity-check sides, missing hooks); the
last line is ``{"correct", "attempted", "failed", "metrics"}``.  Exits 2
without a result when the checkout holds no ``src/lpk``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 15
# One BLAS thread: the process stays within a 2-core box and timings do
# not depend on what else the box runs.  Set by main() before numpy loads.
BLAS_THREADS = 1


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def blas_name(np) -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def fresh_lpk():
    """Import lpk from this checkout's ``src``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "lpk" or m.startswith("lpk.")]:
        del sys.modules[name]
    return importlib.import_module("lpk")


def setup(workload, seed: int, reps: int):
    """Time ``import lpk`` plus input generation ``reps`` times.

    Returns the calibrated seconds of each repeat (see ``calibrate.py``).
    """
    from calibrate import Reference
    from workloads import build_inputs

    ref = Reference()
    spans = []
    for _ in range(reps):
        t0 = time.perf_counter()
        lpk = fresh_lpk()
        inputs = build_inputs(lpk, workload, seed)
        t1 = time.perf_counter()
        spans.append((t0, t1))
        ref.after(t1 - t0)
    return [(t1 - t0) * ref.factor(t0, t1) for t0, t1 in spans], lpk, inputs


def measure(lpk, inputs, seconds: float, tally, traced=None, tracer=None, hooks=()):
    """Run passes, cycling through the case groups, until the time is used.

    Stops once every group ran and another pass would end past
    ``seconds``.  With a ``tracer`` every untraced pass is followed by a
    traced pass of the same group, recorded in ``traced``.
    """
    from workloads import run_pass

    groups = inputs.workload.groups
    start = time.perf_counter()
    durations = []
    rounds = 0
    while True:
        t0 = time.perf_counter()
        run_pass(lpk, inputs, rounds % groups, tally)
        if tracer is not None:
            tracer.install(hooks)
            try:
                run_pass(lpk, inputs, rounds % groups, traced)
            finally:
                tracer.uninstall()
        rounds += 1
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = rounds >= groups or tracer is not None
        if enough and elapsed + statistics.fmean(durations) > seconds:
            return rounds


def metrics_doc(pairs: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def run(workload, seed: int, seconds: float, trace: int, setup_reps: int = SETUP_REPS):
    """Run one workload; returns ``(report, result)`` as ``main`` prints them."""
    import numpy as np
    import scipy

    from layers import HOOKS, SETUP_LAYERS, per_layer
    from spans import Tracer
    from calibrate import REF_SECONDS
    from workloads import GATED, Tally, build_inputs, end_to_end, family_seconds

    setup_times, lpk, inputs = setup(workload, seed, setup_reps)
    if not os.path.abspath(lpk.__file__).startswith(os.path.join(SRC, "")):
        raise ImportError(f"lpk imported from {lpk.__file__}, not from {SRC}")
    # Objects alive now (modules, inputs) are never garbage; keeping them
    # out of collections keeps collector pauses in the timed calls small.
    gc.collect()
    gc.freeze()

    tally = Tally()
    tallies = [tally]
    missing = []
    try:
        if trace:
            setup_tracer, pass_tracer = Tracer(), Tracer()
            setup_tracer.install([h for h in HOOKS if h.name in SETUP_LAYERS])
            try:
                build_inputs(lpk, workload, seed)
            finally:
                setup_tracer.uninstall()
            traced = Tally()
            tallies.append(traced)
            rounds = measure(lpk, inputs, seconds, tally, traced, pass_tracer, HOOKS)
            overhead = end_to_end(traced)["recon_s"][0] / end_to_end(tally)["recon_s"][0] - 1.0
            metrics = per_layer(setup_tracer, pass_tracer, rounds, overhead)
            missing = sorted(set(setup_tracer.missing + pass_tracer.missing))
        else:
            rounds = measure(lpk, inputs, seconds, tally)
    finally:
        gc.unfreeze()

    e2e = end_to_end(tally)
    e2e["setup_s"] = (statistics.median(setup_times), "s")
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    if not trace:
        metrics = {name: e2e[name] for name in GATED if name in e2e}
    failed = sum(t.failed for t in tallies)
    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "end_to_end": metrics_doc(e2e),
        "per_layer": metrics_doc(metrics) if trace else {},
        "missing_hooks": missing,
        "failures": [f for t in tallies for f in t.failures],
        "identities": tally.identities,
        "raw_s": family_seconds(tally, calibrated=False),
        "reference": {
            "ref_seconds": REF_SECONDS,
            "bursts": len(tally.reference.took),
            "median_s": statistics.median(tally.reference.took) if tally.reference.took else None,
        },
        "meta": {
            "commit": git_commit(ROOT),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_name(np),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "nproc": os.cpu_count(),
            "budgets": workload.budgets,
            "groups": workload.groups,
            "passes": rounds,
            "setup_reps": setup_reps,
            "seconds": seconds,
        },
    }
    result = {
        "correct": failed == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": metrics_doc(metrics),
    }
    return report, result


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "lpk", "__init__.py")):
        print(f"error: no lpk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        report, result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
