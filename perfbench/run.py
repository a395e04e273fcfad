"""Benchmark harness for magweyl.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  One run sets the workload up three times (once here, twice
in fresh interpreters) and reports the median set-up time, checks the
product layer against its reference oracle, times the workload until
``--seconds`` have passed (at least once), checks the first result by an
independent route, and with ``--trace 1`` repeats the workload once under
the layer tracer.  Human-readable lines come first; the last line of
standard output is the JSON result.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# BLAS/OpenMP pools would run two threads on a two-core machine and
# measure the scheduler; they read these variables when numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "discretisation_error": "1"}
# the names of workloads.WORKLOADS, repeated because arguments are parsed
# before the timed set-up imports that module
WORKLOAD_NAMES = ("resolvent_const", "resolvent_potential", "essential_ladder")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("clipped_mass"):
        return "L1"
    return "count"


def timed_setup(name: str):
    """Import the package and build the workload's inputs; the time covers both."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name]
    st = wl.setup()
    elapsed = time.perf_counter() - t0
    origin = os.path.dirname(os.path.abspath(sys.modules["magweyl"].__file__))
    if os.path.dirname(origin) != SRC:
        raise RuntimeError(f"magweyl imported from {origin}, not from {SRC}")
    return elapsed, wl, st


def child_setup_time(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", name],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def provenance(wl, args) -> dict:
    import numpy
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            path = os.path.join(base, f)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS} | {"spectral_threads": 1},
        "workload": wl.name,
        "sizes": wl.sizes,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    # the problems clip kernel mass at the box edge on purpose; the clipped
    # mass is a per-layer metric, not a run-time message
    warnings.filterwarnings("ignore", message=".*enlarge the box")

    setup_t, wl, st = timed_setup(args.workload)
    if args.setup_only:
        print(repr(setup_t))
        return 0
    setup_samples = [setup_t] + [child_setup_time(args.workload) for _ in range(SETUP_REPEATS - 1)]

    import numpy as np

    import checks
    from tracer import Tracer

    rng = np.random.default_rng(args.seed)
    attempted = failed = 0
    failures = []

    def attempt(label, fn):
        """Run one checked step; a raise or a non-empty failure list counts
        as one failed attempt."""
        nonlocal attempted, failed
        attempted += 1
        try:
            problems, value = fn()
        except Exception:
            problems, value = [f"{label} raised:\n{traceback.format_exc()}"], None
        if problems:
            failed += 1
            failures.extend(f"{label}: {p}" for p in problems)
        return value

    attempt("product oracle", lambda: (checks.product_oracle(rng), None))

    samples = []
    first = []

    def timed_run():
        t = time.perf_counter()
        res = wl.run(st)
        samples.append(time.perf_counter() - t)
        if not first:
            first.append(res)
        elif not wl.same(first[0], res):
            return ["result differs from the first sample"], None
        return [], None

    start = time.perf_counter()
    while True:
        attempt(f"sample {len(samples) + 1}", timed_run)
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not first:
        print("\n".join(failures), file=sys.stderr)
        print(f"{wl.name}: no timed run succeeded", file=sys.stderr)
        return 1
    result = first[0]
    facts = attempt("independent route", lambda: checks.independent_route(wl.name, st, result, rng)) or {}

    end_to_end = {
        "wall_s": statistics.median(samples),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "discretisation_error": wl.error(st, result),
    }
    units = dict(END_TO_END_UNITS)
    per_layer = {}
    if args.trace:
        tracer = Tracer()

        def traced_run():
            with tracer, tracer.root():
                res = wl.run(st)
            if not wl.same(result, res):
                return ["traced result differs from the untraced one"], None
            return [], None

        attempt("traced run", traced_run)
        per_layer = tracer.metrics()
        per_layer["trace.overhead_frac"] = tracer.root_duration() / end_to_end["wall_s"] - 1.0
        units.update((k, per_layer_unit(k)) for k in per_layer)
    metrics = per_layer if args.trace else end_to_end

    print(f"workload {wl.name}: seed {args.seed}, {len(samples)} timed sample(s) "
          f"{[round(s, 4) for s in samples]}, set-up samples {[round(s, 4) for s in setup_samples]}")
    for key, val in facts.items():
        print(f"  {key} = {val}")
    print(f"  error_rate = {failed}/{attempted}")
    for line in failures:
        print(f"  FAILED {line}")
    for key, val in {**end_to_end, **per_layer}.items():
        print(f"  {key} = {val!r} {units[key]}")
    print("provenance " + json.dumps(provenance(wl, args), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
