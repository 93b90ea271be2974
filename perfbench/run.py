"""Benchmark of the arcadeproc transport solver and path engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each is there):

    ibmot_g15    15-atom Gaussian IBMOT solve to gap 1e-7 (line-search bound)
    ibmot_g35    35-atom Gaussian IBMOT solve to gap 1e-3 (oracle bound)
    mc_uniform   ibmot_objective_mc(uniform_mot, 20k paths, 1000 steps)
    cli_shipped  the nine shipped simulate/fam/check configs via cli.main

Load is one process in a closed loop: one operation at a time, the next
starting when the previous ends.  A new operation starts only while it is
expected (from the previous one) to end within ``--seconds``; every run
makes at least one.  BLAS is pinned to one thread.

End-to-end metrics, each on every workload:

    setup_s        median of three cold set-ups (import plus inputs), each in
                   a fresh interpreter
    solve_s        median time of one operation: a solve to the certified
                   gap, one Monte Carlo estimate, or one pass over the nine
                   configs (pass_s in the table)
    config_p50_ms  median time of one config run of cli_shipped; on the
                   other workloads an operation is one run, so it equals
                   solve_s in ms
    peak_rss_mib   peak resident set of the measuring process

Times are host-scaled (see hostspeed.py); the table also prints the
unscaled wall time, the host scale, paths_per_s for mc_uniform and
fail_rate.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations (at least one of each, plus one memory
operation for workloads that reach the path filter), reports the
per-module metrics of the traced ones plus the traced set-up, and the
tracing overhead as the median traced minus the median untraced operation
time.  Every operation is checked in both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the metrics as a table and the environment.  The exit code is nonzero,
with no result line, when the package sources are missing or a run cannot
complete.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ibmot_g15", "ibmot_g35", "mc_uniform", "cli_shipped"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind != "Instruction" and level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "llc": _last_level_cache(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _setup_seconds(workload: str, seed: int) -> float:
    """Median of cold set-ups, each in a fresh interpreter (host-scaled)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _closed_loop(run_op, seconds: float, min_ops):
    """Run operations back to back; stop before one would overrun ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_op(len(results)))
        elapsed = time.perf_counter() - start
        if len(results) >= min_ops() and elapsed + results[-1][0].seconds > seconds:
            return results


def measure(args) -> tuple[dict, list, list]:
    """Set up, run the closed loop, and derive the metrics of this mode.

    In trace mode operation 0 is plain and operation 1 is traced; when the
    workload reached the path filter, operation 2 is a memory operation
    (tracemalloc inside ``fam_paths``); after that plain and traced
    operations alternate.
    """
    import hostspeed
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    setup_s = _setup_seconds(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        state, setup_agg = tracer.run("setup", workload.setup, args.seed)
    else:
        state, setup_agg = workload.setup(args.seed), None
    aggs, peaks = [], []

    def wants_memory():
        return bool(aggs) and tracing.MEMORY_SPAN in aggs[0]["spans"]

    def run_op(index):
        kind = "plain"
        if tracer and index == 2 and wants_memory():
            kind = "memory"
        elif tracer and index % 2 == 1:
            kind = "traced"
        with hostspeed.HostSpeed() as speed:
            if kind == "plain":
                result = workload.run(state, index)
            else:
                result, agg = tracer.run(index, workload.run, state, index,
                                         memory=kind == "memory")
        result.scale = speed.scale()
        if kind == "memory":
            peaks.append(agg["peak_mib"])
        elif kind == "traced":
            aggs.append(agg)
        return result, kind

    def min_ops():
        if not tracer:
            return 1
        return 3 if wants_memory() else 2

    try:
        done = _closed_loop(run_op, args.seconds, min_ops)
    finally:
        teardown = getattr(workload, "teardown", None)
        if teardown is not None:
            teardown(state)
    results = [r for r, _ in done]
    if tracer:
        plain = [r.scaled for r, kind in done if kind == "plain"]
        traced = [r.scaled for r, kind in done if kind == "traced"]
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics = tracing.layer_metrics(setup_agg, aggs, max(peaks, default=0.0),
                                        tracer.missing, overhead)
        print(f"# {len(tracer.spans)} spans recorded", file=sys.stderr)
        return metrics, results, sorted(tracer.missing)
    return end_to_end(setup_s, results), results, []


def end_to_end(setup_s: float, results) -> dict:
    """Medians of host-scaled times (see hostspeed.py) and the process's peak RSS."""
    op_s = statistics.median(r.scaled for r in results)
    unit_s = statistics.median(t * r.scale for r in results for t in r.unit_seconds)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "solve_s": (op_s, "s"),
        "config_p50_ms": (1e3 * unit_s, "ms"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def _extras(workload: str, results) -> dict:
    """Figures printed in the table only: workload-specific throughput, and
    the unscaled wall time with the host scale that was divided out."""
    extras = {}
    if workload == "mc_uniform":
        extras["paths_per_s"] = (sum(r.paths for r in results)
                                 / sum(r.scaled for r in results), "1/s")
    if workload == "cli_shipped":
        extras["pass_s"] = (statistics.median(r.scaled for r in results), "s")
    extras["wall_solve_s"] = (statistics.median(r.seconds for r in results), "s")
    extras["host_scale"] = (statistics.median(r.scale for r in results), "1")
    return extras


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    import workloads

    try:
        workloads.load_package()
    except ImportError as exc:
        print(f"cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    metrics, results, missing = measure(args)

    attempted = sum(r.attempted for r in results)
    failures = [f for r in results for f in r.failures]
    for message in failures:
        print(f"FAILED {args.workload}: {message}", file=sys.stderr)
    for span in missing:
        print(f"absent: span {span} has no wrapped target at this commit", file=sys.stderr)

    shown = dict(metrics)
    if not args.trace:
        shown.update(_extras(args.workload, results))
    shown["fail_rate"] = (len(failures) / attempted, "1")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(results)} operations, {attempted} checked units, {len(failures)} failed")
    print("# operation seconds " + " ".join(f"{r.seconds:.4f}" for r in results))
    for name, (value, unit) in shown.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    payload = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
