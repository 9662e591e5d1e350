"""Benchmark of certifying and serving manifold approximants.

Usage (from the repository root):

    python3 bench/run.py --workload grassmann-certify --seed 0 --seconds 10 --trace 0

Runs whole rounds of the workload until ``--seconds`` have passed (at least
one round), checks every output, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("grassmann-certify", "segre-certify", "retraction-serve")

#: one BLAS/OpenMP thread: the default two-thread OpenBLAS doubled the run-to-run
#: spread of build times and the process CPU of ST-HOSVD on a 2-core machine
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: read by the library's worker pool; left unset, so the pool runs inline
POOL_VARIABLE = "APPROX_THREADS"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

#: traced layers reported as calls and self time per round
SPAN_LAYERS = (
    "target.f",
    "manifolds.exp", "manifolds.log", "manifolds.retract", "manifolds.inverse_retract",
    "manifolds.distance", "manifolds.inner", "manifolds.check", "manifolds.basis",
    "matfun.thin_svd",
    "chebyshev.cardinal_row",
    "tucker.sthosvd",
    "approximator.pullback_coords",
    "util.pool_map",
)
#: traced layers reported as self time per round only
SELF_ONLY_LAYERS = (
    "manifolds.karcher",
    "approximator.base_point", "approximator.sample_tensor",
    "approximator.validate", "approximator.serialize",
)
#: counters per round and their units
COUNTERS = {
    "matfun.thin_qr.calls": "count",
    "matfun.sym_funm.calls": "count",
    "approximator.validate.draws": "count",
    "approximator.validate.chart_failures": "count",
    "approximator.serialize.bytes": "B",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_threads():
    """Single-threaded BLAS and an inline worker pool, before numpy loads."""
    os.environ.update(THREAD_PINS)
    os.environ.pop(POOL_VARIABLE, None)


def import_library():
    """Import manifold_approx from this checkout's ``src``, never another copy."""
    if not (SRC / "manifold_approx" / "__init__.py").is_file():
        sys.exit(f"error: no manifold_approx sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import manifold_approx

    if Path(manifold_approx.__file__).resolve().parent != (SRC / "manifold_approx").resolve():
        sys.exit(f"error: imported manifold_approx from {manifold_approx.__file__}")


def measure_setup(args):
    """Median time from process launch to the first timed call, over fresh processes."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
            probe.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or probe.returncode != 0:
            sys.exit(f"error: set-up probe failed (exit {probe.returncode})")
        times.append(ready - start)
    return statistics.median(times)


def environment_lines():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in
                       (*THREAD_PINS, POOL_VARIABLE))
    return [
        f"threads: {threads}",
        f"platform: cores={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} blas={blas}",
    ]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(run, setup_s):
    import numpy as np

    latencies = np.asarray(run.eval_ns, dtype=float) / 1e3
    return {
        "setup_s": metric(setup_s, "s"),
        "certify_s": metric(statistics.median(run.certify_s), "s"),
        "build_s": metric(statistics.median(run.build_s), "s"),
        "eval_us_p50": metric(float(np.percentile(latencies, 50)), "us"),
        "eval_us_p90": metric(float(np.percentile(latencies, 90)), "us"),
        "evals_per_s": metric(statistics.median(run.evals_per_s), "1/s"),
        "save_load_s": metric(statistics.median(run.save_load_s), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(run, tracer):
    totals = tracer.layer_totals()
    rounds = run.rounds

    def per_round(total):
        return total // rounds if total % rounds == 0 else total / rounds

    out = {}
    for layer in SPAN_LAYERS:
        calls, seconds = totals.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = metric(per_round(calls), "count")
        out[f"{layer}.self_s"] = metric(seconds / rounds, "s")
    for layer in SELF_ONLY_LAYERS:
        out[f"{layer}.self_s"] = metric(totals.get(layer, (0, 0.0))[1] / rounds, "s")
    for name, unit in COUNTERS.items():
        out[name] = metric(per_round(tracer.counters[name.removesuffix(".calls")]), unit)
    out["trace.certify_s"] = metric(statistics.median(run.certify_s), "s")
    return out


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    import_library()
    import spans
    import workloads

    workload_class = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload_class(args.seed, None)
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else measure_setup(args)
    tracer = spans.Tracer() if args.trace else None
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as scratch:
        wrap = (lambda f: tracer.span("target.f", f)) if tracer else None
        workload = workload_class(args.seed, Path(scratch), wrap=wrap)
        run = workloads.Run(tracer)
        with spans.installed(tracer) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            while run.rounds == 0 or time.perf_counter() - start < args.seconds:
                workload.run_round(run)
                run.rounds += 1

    missing = [name for name in ("certify_s", "build_s", "eval_ns", "evals_per_s", "save_load_s")
               if not getattr(run, name)]
    if missing:
        for problem in run.problems[:20]:
            print(f"problem: {problem}")
        sys.exit(f"error: no successful operation measured {', '.join(missing)}")
    if tracer:
        metrics = per_layer_metrics(run, tracer)
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = end_to_end_metrics(run, setup_s)
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for line in environment_lines():
        print(line)
    print(f"workload: {args.workload} seed={args.seed} rounds={run.rounds} "
          f"attempted={run.attempted} failed={run.failed} correct={run.correct}")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
