"""The four benchmark workloads: inputs, one operation, and its checks.

Each workload builds its inputs in ``setup`` and runs one operation per call
of ``run``.  An operation returns an ``OpResult``: its wall time, the wall
times of the units it is made of (a config run for ``cli_shipped``, the
whole operation otherwise), and one failure message per failed unit.

The package is imported from ``src/`` of the checkout this file lives in;
``load_package`` refuses to run against any other copy.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_package():
    """Import ``arcadeproc`` from this checkout's ``src/`` or raise ImportError."""
    src = ROOT / "src"
    if not (src / "arcadeproc" / "__init__.py").is_file():
        raise ImportError(f"no arcadeproc sources under {src}")
    sys.path.insert(0, str(src))
    import arcadeproc

    if Path(arcadeproc.__file__).resolve().parent != (src / "arcadeproc").resolve():
        raise ImportError(f"arcadeproc was imported from {arcadeproc.__file__}, not {src}")
    import arcadeproc.cli  # noqa: F401  (every workload's modules, imported once)
    return arcadeproc


@dataclass
class OpResult:
    seconds: float
    unit_seconds: list[float]
    attempted: int
    failures: list[str] = field(default_factory=list)
    paths: int = 0
    scale: float = 1.0      # host-speed scale of the operation, see hostspeed.py

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


# ---------------------------------------------------------------------------
# Transport solver
# ---------------------------------------------------------------------------

class IbmotWorkload:
    """One IBMOT solve of N(0,1) -> N(0,2) from ``configs/ibmot_gaussian.json``.

    The inputs are deterministic: no randomness enters a solve, so the seed
    only labels the run.  A solve fails if it does not certify
    ``gap <= tol (1 + |value|)``, if its kernel fails ``validate_kernel`` at
    1e-7, or if its ``K_I_target`` is incompatible with the recorded
    reference: both values are certified lower bounds of the optimum within
    half their duality gaps, so ``-gap/2 <= K - K_ref <= gap_ref/2``.
    """

    def __init__(self, atoms, gap, ref_ki, ref_gap, acceptance_bands):
        self.atoms = atoms
        self.gap = gap
        self.ref_ki = ref_ki
        self.ref_gap = ref_gap
        self.acceptance_bands = acceptance_bands

    def setup(self, seed: int):
        from arcadeproc.coupling import GaussianMarginal
        from arcadeproc.ibmot import IbmotOptions, IbmotProblem

        doc = json.loads((ROOT / "configs" / "ibmot_gaussian.json").read_text())
        mu_law = GaussianMarginal(float(doc["mu"]["mean"]), float(doc["mu"]["var"]))
        nu_law = GaussianMarginal(float(doc["nu"]["mean"]), float(doc["nu"]["var"]))
        problem = IbmotProblem(mu_law.discretize(self.atoms), nu_law.discretize(self.atoms),
                               float(doc["T"]), target_second_moment=nu_law.second_moment())
        opts = IbmotOptions(gap_tol=self.gap, max_iter=int(doc["options"]["max_iter"]))
        return problem, opts

    def run(self, state, index: int) -> OpResult:
        from arcadeproc import ibmot

        problem, opts = state
        t0 = time.perf_counter()
        sol = ibmot.solve_ibmot(problem, opts)
        seconds = time.perf_counter() - t0
        failures = self.check(problem, opts, sol)
        return OpResult(seconds, [seconds], 1, failures[:1])

    def check(self, problem, opts, sol) -> list[str]:
        from arcadeproc.errors import ConfigError
        from arcadeproc.ibmot import induced_correlation, validate_kernel

        out = []
        limit = opts.gap_tol * (1.0 + abs(sol.objective_quantile))
        if not (sol.converged and sol.duality_gap <= limit):
            out.append(f"not converged: gap {sol.duality_gap:.3e} > {limit:.3e}")
        try:
            validate_kernel(problem, sol.gamma, 1e-7)
        except ConfigError as exc:
            out.append(f"kernel infeasible: {exc}")
        delta = sol.objective_ki_target - self.ref_ki
        slack = 1e-9
        if not -0.5 * sol.duality_gap - slack <= delta <= 0.5 * self.ref_gap + slack:
            out.append(f"K_I_target {sol.objective_ki_target!r} is outside the certified "
                       f"band of the reference {self.ref_ki!r}")
        if self.acceptance_bands:
            corr = induced_correlation(problem, sol.gamma)
            if abs(sol.objective_ki_target - 1.0) > 0.02:
                out.append(f"K_I_target {sol.objective_ki_target:.4f} not within 2% of 1")
            if abs(corr - 1.0 / math.sqrt(2.0)) > 0.05:
                out.append(f"correlation {corr:.4f} not within 0.05 of 1/sqrt(2)")
        return out


# ---------------------------------------------------------------------------
# Path engine, Monte Carlo objective
# ---------------------------------------------------------------------------

class McUniformWorkload:
    """``ibmot_objective_mc(uniform_mot, 20k paths, 1000 steps)``.

    Operation ``i`` of a run uses the Monte Carlo seed ``seed * 10000 + i``.
    Checks are those of acceptance criterion 11: the two estimators agree
    within 3 paired standard errors, and the quantile K_I of the 200-atom
    discretization is at least the Monte Carlo value minus 3 SE.
    """

    paths = 20_000
    steps = 1000
    horizon = 1.0

    def setup(self, seed: int):
        from arcadeproc.arcade import ArcadeConfig
        from arcadeproc.coupling import uniform_mot_kernel
        from arcadeproc.drivers import brownian_driver
        from arcadeproc.ibmot import discretize_affine_kernel, ibmot_objective_quantile
        from arcadeproc.partition import Partition, piecewise_linear_coefficients
        from arcadeproc.rap import RapConfig

        kernel = uniform_mot_kernel()
        # The configuration ibmot_objective_mc assembles, validated here once.
        coeffs = piecewise_linear_coefficients(
            Partition((0.0, self.horizon), steps_per_arc=self.steps))
        RapConfig(ArcadeConfig(brownian_driver(), coeffs), coeffs.with_role("signal"),
                  kernel, standard=True)
        problem, gamma, _ = discretize_affine_kernel(kernel, 200)
        quantile_ki = ibmot_objective_quantile(problem, gamma, validate=False).k_i
        return kernel, quantile_ki, seed

    def run(self, state, index: int) -> OpResult:
        from arcadeproc import ibmot

        kernel, quantile_ki, seed = state
        t0 = time.perf_counter()
        mc = ibmot.ibmot_objective_mc(kernel, self.horizon, self.paths,
                                      seed * 10_000 + index, steps=self.steps)
        seconds = time.perf_counter() - t0
        failures = []
        z = abs(mc.diff) / mc.diff_se
        if not z <= 3.0:
            failures.append(f"cross-estimator z = {z:.2f} > 3")
        se = max(mc.se_time, mc.se_endpoint)
        if not quantile_ki >= min(mc.k_i_time, mc.k_i_endpoint) - 3.0 * se:
            failures.append(f"quantile K_I {quantile_ki:.4f} below the Monte Carlo value - 3 SE")
        return OpResult(seconds, [seconds], 1, failures[:1], paths=mc.n_paths)


# ---------------------------------------------------------------------------
# Shipped configs through the CLI
# ---------------------------------------------------------------------------

SHIPPED = {
    "antithetic_rap.json": "simulate",
    "carryover_rap.json": "simulate",
    "elliptic_ap.json": "simulate",
    "lagrange_damped_ap.json": "simulate",
    "ou_driver_paths.json": "simulate",
    "stitched_ap.json": "simulate",
    "fam_ou_standard.json": "fam",
    "fam_tanh.json": "fam",
    "check_convex_order.json": "check",
}


def _failed_checks(node, where="") -> list[str]:
    """Paths of every ``"pass": false`` inside a JSON document."""
    out = []
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "pass" and value is False:
                out.append(where or "/")
            out.extend(_failed_checks(value, f"{where}/{key}"))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.extend(_failed_checks(value, f"{where}/{i}"))
    return out


class CliShippedWorkload:
    """One pass runs the nine shipped simulate/fam/check configs through
    ``cli.main --quiet`` with their own seeds, in an order shuffled from the
    benchmark seed.  A config run fails on a nonzero exit code, on any
    ``"pass": false`` in its JSON output, or when the digest of any result
    file differs from the first pass of the run.
    """

    def setup(self, seed: int):
        configs = {name: ROOT / "configs" / name for name in SHIPPED}
        missing = [name for name, path in configs.items() if not path.is_file()]
        if missing:
            raise FileNotFoundError(f"shipped configs missing: {', '.join(missing)}")
        work = ROOT / f".perfbench-work-{seed}"
        return {"configs": configs, "work": work, "rng": random.Random(seed), "digests": {}}

    def run(self, state, index: int) -> OpResult:
        from arcadeproc import cli

        order = sorted(state["configs"])
        state["rng"].shuffle(order)
        pass_dir = state["work"] / f"pass{index}"
        times = []
        t0 = time.perf_counter()
        codes = {}
        for name in order:
            out = pass_dir / name[:-5]
            t1 = time.perf_counter()
            codes[name] = cli.main([SHIPPED[name], "--config", str(state["configs"][name]),
                                    "--out", str(out), "--quiet"])
            times.append(time.perf_counter() - t1)
        seconds = time.perf_counter() - t0
        failures = []
        for name in order:
            problem = self._check(state, name, codes[name], pass_dir / name[:-5])
            if problem:
                failures.append(f"{name}: {problem}")
        shutil.rmtree(pass_dir, ignore_errors=True)
        return OpResult(seconds, times, len(order), failures)

    @staticmethod
    def _check(state, name, code, out: Path) -> str | None:
        if code != 0:
            return f"exit code {code}"
        digests = {}
        for f in sorted(out.iterdir()):
            data = f.read_bytes()
            digests[f.name] = hashlib.sha256(data).hexdigest()
            if f.suffix == ".json":
                bad = _failed_checks(json.loads(data))
                if bad:
                    return f"{f.name} reports pass: false at {', '.join(bad)}"
        reference = state["digests"].setdefault(name, digests)
        if digests != reference:
            changed = sorted(k for k in set(digests) | set(reference)
                             if digests.get(k) != reference.get(k))
            return f"result files differ from the first pass: {', '.join(changed)}"
        return None

    @staticmethod
    def teardown(state) -> None:
        shutil.rmtree(state["work"], ignore_errors=True)


WORKLOADS = {
    "ibmot_g15": IbmotWorkload(15, 1e-7, ref_ki=0.99020711294, ref_gap=1.93396483494368e-07,
                               acceptance_bands=True),
    "ibmot_g35": IbmotWorkload(35, 1e-3, ref_ki=0.9964736108902305,
                               ref_gap=0.001893067160153931, acceptance_bands=False),
    "mc_uniform": McUniformWorkload(),
    "cli_shipped": CliShippedWorkload(),
}
