"""Per-module spans recorded from outside the package.

The tracer replaces selected module attributes and class methods of
``arcadeproc`` with thin wrappers for the duration of one traced operation,
then puts the originals back.  Each wrapper records a span (operation id,
name, parent span, start, end) in memory and charges its duration to the
enclosing span, so every span name gets a call count, an inclusive time and
a self time (inclusive minus the time covered by wrapped children).

A target is patched where its *caller* looks it up: ``simulate_driver`` as
``rap`` and ``cli`` see it, ``fam_paths`` as ``fam`` and ``cli`` see it, the
simplex entry points as ``ibmot`` sees them, and so on.  Targets that no
longer exist are skipped, and every metric that depends only on missing
targets is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import statistics
import time
import tracemalloc

_MIB = 1024.0 * 1024.0


def _iterations(result):
    return {"iterations": int(result.iterations)}


def _path_nodes(result):
    return {"path_nodes": int(result.values.size)}


def _underflows(result):
    return {"underflow_fallbacks": int(result.underflow_count)}


# (module, attribute path, span name, counter taken from the return value)
TARGETS = [
    ("arcadeproc.ibmot", "solve_ibmot", "ibmot.solve", _iterations),
    ("arcadeproc.ibmot", "_objective_from_joint", "ibmot.objective", None),
    ("arcadeproc.ibmot", "_gradient_from_joint", "ibmot.gradient", None),
    ("arcadeproc.ibmot", "linprog_simplex", "simplex.oracle", None),
    ("arcadeproc.ibmot", "resolve_with_costs", "simplex.oracle", None),
    ("arcadeproc.ibmot", "convex_order_report", "coupling.convex_order", None),
    ("arcadeproc.cli", "convex_order_report", "coupling.convex_order", None),
    ("arcadeproc.ibmot", "ibmot_objective_mc", "ibmot.mc", None),
    ("arcadeproc.fam", "fam_paths", "fam.paths", _underflows),
    ("arcadeproc.cli", "fam_paths", "fam.paths", _underflows),
    ("arcadeproc.fam", "innovations_from_arrays", "fam.innovations", None),
    ("arcadeproc.cli", "ito_isometry_check", "fam.isometry", None),
    ("arcadeproc.fam", "FamTrace.to_csv_files", "fam.csv", None),
    ("arcadeproc.fam", "build_rap_paths", "rap.assemble", None),
    ("arcadeproc.cli", "build_rap_paths", "rap.assemble", None),
    ("arcadeproc.rap", "RapConfig.__post_init__", "rap.checks", None),
    ("arcadeproc.cli", "nearly_markov_check", "rap.checks", None),
    ("arcadeproc.rap", "simulate_driver", "drivers.sample", _path_nodes),
    ("arcadeproc.cli", "simulate_driver", "drivers.sample", _path_nodes),
    ("arcadeproc.rap", "build_ap_paths", "arcade.assemble", None),
    ("arcadeproc.cli", "build_ap_paths", "arcade.assemble", None),
    ("arcadeproc.fam", "ap_mean", "arcade.moments", None),
    ("arcadeproc.fam", "ap_variance", "arcade.moments", None),
    ("arcadeproc.rap", "ap_mean", "arcade.moments", None),
    ("arcadeproc.rap", "ap_cov", "arcade.moments", None),
    ("arcadeproc.cli", "ap_cov", "arcade.moments", None),
    ("arcadeproc.coupling", "CouplingKernel.sample", "coupling.sample", None),
    ("arcadeproc.partition", "CoefficientSet.grid_matrix", "partition.grid_matrix", None),
    ("arcadeproc.cli", "_write_json", "cli.write", None),
    ("arcadeproc.drivers", "PathBundle.to_csv", "cli.write", None),
]

# Span whose duration is sampled by tracemalloc for ``fam.peak_traced_mib``.
MEMORY_SPAN = "fam.paths"


class Tracer:
    """Spans of the traced operations, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []     # (op, name, parent, start, end)
        self.missing: set[str] = set()
        self._patched: list[tuple] = []
        self._op = None
        self._stack: list[list] = []     # [name, start, child time]
        self._depth: dict[str, int] = {}
        self._agg: dict = {}
        self._memory = False

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        live: set[str] = set()
        for module_name, attr_path, span, counter in TARGETS:
            owner, attr = _resolve(module_name, attr_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            live.add(span)
            setattr(owner, attr, self._wrapper(original, span, counter))
            self._patched.append((owner, attr, original))
        self.missing = {t[2] for t in TARGETS} - live

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, span, counter):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit()
            if counter is not None:
                for key, value in counter(result).items():
                    tracer._agg["counts"][key] = tracer._agg["counts"].get(key, 0) + value
            return result

        traced.__wrapped__ = original
        return traced

    # -- spans --------------------------------------------------------------

    def run(self, op_id, fn, *args, memory=False):
        """Call ``fn(*args)`` with every target patched; return its result and
        the operation's aggregate ``{"spans": {name: [calls, total, self]},
        "counts": {...}, "peak_mib": float}``.

        With ``memory`` set, tracemalloc runs inside each outermost
        ``fam.paths`` span.  It slows Python-level loops severely, so the
        span times of such an operation are not used.
        """
        self._op = op_id
        self._memory = memory
        self._agg = {"spans": {}, "counts": {}, "peak_mib": 0.0}
        self.install()
        try:
            result = fn(*args)
        finally:
            self.uninstall()
        return result, self._agg

    def _enter(self, name: str) -> None:
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        if self._memory and name == MEMORY_SPAN and depth == 0:
            tracemalloc.start()
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((self._op, name, parent, start, end))
        depth = self._depth[name] - 1
        self._depth[name] = depth
        entry = self._agg["spans"].setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += duration - child
        if depth == 0:       # a span nested in one of its own name is counted once
            entry[1] += duration
            if self._memory and name == MEMORY_SPAN:
                peak = tracemalloc.get_traced_memory()[1] / _MIB
                tracemalloc.stop()
                self._agg["peak_mib"] = max(self._agg["peak_mib"], peak)


def _resolve(module_name: str, attr_path: str):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, attr_path
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


# -- per-layer metrics --------------------------------------------------------

def _combine(setup: dict, ops: list[dict]) -> dict:
    """Traced set-up plus the median over traced operations, per quantity."""
    def value(agg, key):
        kind, name, idx = key
        if kind == "spans":
            return agg["spans"].get(name, [0, 0.0, 0.0])[idx]
        return agg["counts"].get(name, 0)

    keys = set()
    for agg in [setup, *ops]:
        keys.update(("spans", n, i) for n in agg["spans"] for i in range(3))
        keys.update(("counts", n, 0) for n in agg["counts"])
    return {key: value(setup, key) + statistics.median(value(agg, key) for agg in ops)
            for key in keys}


def layer_metrics(setup: dict, ops: list[dict], peak_mib: float,
                  missing: set[str], overhead_s: float) -> dict:
    """Per-layer metrics ``{name: (value, unit)}``; absent spans are omitted.

    Each quantity is the traced set-up's plus the median over the traced
    operations ``ops``; ``peak_mib`` comes from a separate memory operation.
    """
    c = _combine(setup, ops)

    def calls(span):
        return c.get(("spans", span, 0), 0)

    def total(span):
        return c.get(("spans", span, 1), 0.0)

    def self_time(span):
        return c.get(("spans", span, 2), 0.0)

    def count(name):
        return c.get(("counts", name, 0), 0)

    def ratio(num, den):
        return num / den if den else 0.0

    table = [
        ("ibmot.fw_iterations", "count", ["ibmot.solve"], lambda: count("iterations")),
        ("ibmot.objective_evals", "count", ["ibmot.objective"], lambda: calls("ibmot.objective")),
        ("ibmot.objective_s", "s", ["ibmot.objective"], lambda: total("ibmot.objective")),
        ("ibmot.evals_per_iter", "count", ["ibmot.objective", "ibmot.solve"],
         lambda: ratio(calls("ibmot.objective"), count("iterations"))),
        ("ibmot.gradient_s", "s", ["ibmot.gradient"], lambda: total("ibmot.gradient")),
        ("ibmot.self_s", "s", ["ibmot.solve"], lambda: self_time("ibmot.solve")),
        ("simplex.calls", "count", ["simplex.oracle"], lambda: calls("simplex.oracle")),
        ("simplex.s", "s", ["simplex.oracle"], lambda: total("simplex.oracle")),
        ("simplex.ms_per_call", "ms", ["simplex.oracle"],
         lambda: 1e3 * ratio(total("simplex.oracle"), calls("simplex.oracle"))),
        ("coupling.convex_order_s", "s", ["coupling.convex_order"],
         lambda: total("coupling.convex_order")),
        ("coupling.sample_s", "s", ["coupling.sample"], lambda: total("coupling.sample")),
        ("drivers.sample_s", "s", ["drivers.sample"], lambda: total("drivers.sample")),
        ("drivers.path_nodes_per_s", "1/s", ["drivers.sample"],
         lambda: ratio(count("path_nodes"), total("drivers.sample"))),
        ("arcade.assemble_s", "s", ["arcade.assemble"], lambda: total("arcade.assemble")),
        ("rap.assemble_self_s", "s", ["rap.assemble"], lambda: self_time("rap.assemble")),
        ("fam.filter_self_s", "s", ["fam.paths"], lambda: self_time("fam.paths")),
        ("fam.innovations_s", "s", ["fam.innovations"], lambda: total("fam.innovations")),
        ("ibmot.mc_reduce_self_s", "s", ["ibmot.mc"], lambda: self_time("ibmot.mc")),
        ("fam.peak_traced_mib", "MiB", ["fam.paths"], lambda: peak_mib),
        ("partition.grid_matrix_calls", "count", ["partition.grid_matrix"],
         lambda: calls("partition.grid_matrix")),
        ("partition.grid_matrix_s", "s", ["partition.grid_matrix"],
         lambda: total("partition.grid_matrix")),
        ("arcade.moments_s", "s", ["arcade.moments"], lambda: total("arcade.moments")),
        ("rap.checks_s", "s", ["rap.checks"], lambda: total("rap.checks")),
        ("fam.isometry_self_s", "s", ["fam.isometry"], lambda: self_time("fam.isometry")),
        ("fam.csv_s", "s", ["fam.csv"], lambda: total("fam.csv")),
        ("cli.write_s", "s", ["cli.write"], lambda: total("cli.write")),
        ("fam.underflow_fallbacks", "count", ["fam.paths"], lambda: count("underflow_fallbacks")),
    ]
    out = {}
    for name, unit, needs, compute in table:
        if not any(span in missing for span in needs):
            out[name] = (compute(), unit)
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
