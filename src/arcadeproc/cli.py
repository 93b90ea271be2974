"""Experiment runner: JSON-configured subcommands with reproducible outputs.

Subcommands
-----------
simulate   driver / arcade / randomized-arcade path ensembles -> CSV + summary
fam        interpolating-martingale traces, innovations, isometry diagnostics
ibmot      solve an information-based transport problem, optional MC cross-check
check      validators: coefficients, kernels, Markov and nearly-Markov tests

Every command takes ``--config PATH`` plus optional ``--seed`` / ``--paths``
overrides and ``--out DIR``.  All randomness flows from the single config
seed split into named streams (see ``streams.py``); identical config and
seed reproduce byte-identical outputs.  Exit codes: 0 ok, 2 config error,
3 infeasible problem, 4 numeric failure (including an ``ibmot`` solve that
stops at ``max_iter`` above its gap tolerance; ``solution.json`` is still
written).  Any other exception is a program fault and propagates.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .arcade import (
    ArcadeConfig,
    ap_cov,
    build_ap_paths,
    markov_factorization_check,
    standard_coefficients,
)
from .coupling import (
    DiscreteMarginal,
    GaussianMarginal,
    UniformMarginal,
    convex_order_report,
    kernel_from_json,
)
from .drivers import driver_preset, simulate_driver
from .errors import (
    ArcadeError,
    ConfigError,
    DomainError,
    InfeasibleError,
    NumericError,
    check_keys,
)
from .fam import fam_paths, ito_isometry_check
from .ibmot import (
    IbmotOptions,
    IbmotProblem,
    ibmot_objective_mc,
    solve_ibmot,
)
from .partition import (
    _BUILTIN_FAMILIES,
    CoefficientSet,
    Partition,
    carryover_noise_coefficients,
    table_coefficients,
    validate_coefficient_set,
)
from .rap import (
    RapConfig,
    build_rap_paths,
    carryover_signal_coefficients,
    nearly_markov_check,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# Config assembly
# ---------------------------------------------------------------------------

def _config_stage(fn):
    """Report malformed config values as ``ConfigError``.

    Only config assembly is wrapped: a ``KeyError``, ``TypeError``,
    ``ValueError`` or ``AttributeError`` (a value of the wrong JSON type)
    raised later, while computing, is a program fault and propagates
    unchanged.
    """
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(str(exc)) from exc
    return wrapped


def _whole(value) -> int:
    """An integer option: a fraction or a boolean is rejected, not truncated or read as 1."""
    if isinstance(value, bool) or not (isinstance(value, int) or float(value).is_integer()):
        raise ValueError(f"expected a whole number, got {json.dumps(value)}")
    return int(value)


def _flag(doc: dict, key: str) -> bool:
    """A JSON boolean option, false when absent (``"no"`` is not read as true)."""
    value = doc.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key!r} must be true or false, not {json.dumps(value)}")
    return value


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise ConfigError(f"missing {key!r} in {context}")
    return doc[key]


@_config_stage
def _section(doc: dict, key: str, known, default=None) -> dict:
    """The JSON object ``doc[key]``, with no key outside ``known`` (None
    leaves the keys to the reader); ``default`` when the key is absent or
    null, and a missing section when ``default`` is None."""
    sub = doc.get(key)
    if sub is None:
        if default is None:
            raise ConfigError(f"missing {key!r} section")
        return default
    if not isinstance(sub, dict):
        raise ConfigError(f"{key!r} must be a JSON object, not {json.dumps(sub)}")
    if known is not None:
        check_keys(sub, known, f"the {key!r} section")
    return sub


@_config_stage
def _kind(doc: dict, command: str, keys: dict, default: str | None = None) -> str:
    """The ``kind`` of a ``command`` config (``default`` when absent), once
    the config holds no top-level key outside ``keys[kind]``."""
    kind = _require(doc, "kind", "config") if default is None else doc.get("kind", default)
    if kind not in keys:
        raise ConfigError(f"unknown {command} kind {kind!r}")
    check_keys(doc, keys[kind], f"a {command} {kind} config")
    return kind


# The top-level keys each command reads, per simulate and check kind.
_RAP_KEYS = ("partition", "driver", "coefficients", "signal", "coupling", "standard")
_SIMULATE_KEYS = {
    "driver": ("kind", "seed", "n_paths", "partition", "driver"),
    "ap": ("kind", "seed", "n_paths", "partition", "driver", "coefficients", "checks"),
    "rap": ("kind", "seed", "n_paths", *_RAP_KEYS, "checks"),
}
_FAM_KEYS = ("seed", "n_paths", *_RAP_KEYS, "max_path_files", "isometry")
_IBMOT_KEYS = ("seed", "mu", "nu", "T", "options", "mc_check")
_CHECK_KEYS = {
    "coefficients": ("kind", "partition", "driver", "coefficients", "tol", "continuity_c"),
    "markov": ("kind", "partition", "driver", "coefficients", "tol"),
    "nearly_markov": ("kind", *_RAP_KEYS, "tol"),
    "kernel": ("kind", "coupling"),
    "convex_order": ("kind", "mu", "nu", "tol"),
}


@_config_stage
def _build_partition(doc: dict) -> Partition:
    sub = _section(doc, "partition", ("dates", "steps_per_arc"))
    return Partition(tuple(_require(sub, "dates", "partition")),
                     _whole(sub.get("steps_per_arc", 50)))


@_config_stage
def _build_driver(doc: dict):
    sub = _section(doc, "driver", ("preset", "params"), {"preset": "brownian"})
    return driver_preset(_require(sub, "preset", "driver"), **_section(sub, "params", None, {}))


@_config_stage
def _build_coefficients(doc: dict, key: str, p: Partition, driver,
                        default_role: str) -> CoefficientSet:
    sub = _section(doc, key, ("family", "role", "table"))
    family = _require(sub, "family", key)
    role = sub.get("role", default_role)
    if family in _BUILTIN_FAMILIES:
        return CoefficientSet(p, family, role)
    if family == "standard":
        return standard_coefficients(driver, p, "closed_form").with_role(role)
    if family == "standard_gram":
        return standard_coefficients(driver, p, "gram").with_role(role)
    if family == "carryover":
        return carryover_noise_coefficients(p, role)
    if family == "carryover_signal":
        return carryover_signal_coefficients(p)
    if family == "explicit_table":
        return table_coefficients(p, np.asarray(_require(sub, "table", key)), role)
    raise ConfigError(f"unknown coefficient family {family!r}")


@_config_stage
def _build_marginal(doc, context: str) -> tuple[DiscreteMarginal, float | None]:
    """Marginal plus (for analytic inputs) its exact second moment."""
    if isinstance(doc, list):
        return DiscreteMarginal.from_pairs(doc), None
    dist = _require(doc, "dist", context)
    params = {"normal": ("mean", "var"), "uniform": ("lo", "hi")}
    if dist not in params:
        raise ConfigError(f"unknown marginal dist {dist!r}")
    check_keys(doc, ("dist", "atoms", "method", *params[dist]), f"the {context!r} marginal")
    atoms = _whole(doc.get("atoms", 15))
    method = doc.get("method", "cell_mean")
    if dist == "normal":
        law = GaussianMarginal(float(doc.get("mean", 0.0)), float(_require(doc, "var", context)))
    else:
        law = UniformMarginal(float(_require(doc, "lo", context)), float(_require(doc, "hi", context)))
    return law.discretize(atoms, method), law.second_moment()


@_config_stage
def _rap_config(doc: dict) -> RapConfig:
    p = _build_partition(doc)
    driver = _build_driver(doc)
    noise = _build_coefficients(doc, "coefficients", p, driver, "noise")
    if "signal" in doc:
        signal = _build_coefficients(doc, "signal", p, driver, "signal")
    else:
        signal = noise.with_role("signal")
    kernel = _build_kernel(doc, "config")
    return RapConfig(ArcadeConfig(driver, noise), signal, kernel,
                     standard=_flag(doc, "standard"))


@_config_stage
def _resolve_seed(doc: dict, args) -> int:
    if args.seed is not None:
        return int(args.seed)
    if "seed" not in doc:
        raise ConfigError("config must carry a seed (or pass --seed)")
    return _whole(doc["seed"])


@_config_stage
def _option(doc: dict, key: str, default, cast):
    """``cast`` of ``doc[key]`` (required when ``default`` is None)."""
    return cast(_require(doc, key, "config") if default is None else doc.get(key, default))


@_config_stage
def _build_kernel(doc: dict, context: str):
    return kernel_from_json(_require(doc, "coupling", context))


@_config_stage
def _ibmot_options(doc: dict) -> IbmotOptions:
    opt_doc = _section(doc, "options", ("gap", "max_iter"), {})
    return IbmotOptions(
        gap_tol=float(opt_doc.get("gap", 1e-7)),
        max_iter=_whole(opt_doc.get("max_iter", 5000)),
    )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=float) + "\n",
                    encoding="utf-8")


def _se_band_checks(values: np.ndarray, target: float) -> dict:
    se = float(np.std(values, ddof=1)) / math.sqrt(values.size)
    dev = abs(float(np.mean(values)) - target)
    return {"mean": float(np.mean(values)), "target": target,
            "se": se, "pass": bool(dev <= 3.0 * se + 1e-12)}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(doc: dict, args) -> int:
    kind = _kind(doc, "simulate", _SIMULATE_KEYS, "ap")
    seed = _resolve_seed(doc, args)
    n_paths = _option(doc, "n_paths", 10, _whole) if args.paths is None else args.paths
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    p = _build_partition(doc)
    summary: dict = {"kind": kind, "seed": seed, "n_paths": n_paths,
                     "version": __version__}

    if kind == "driver":
        driver = _build_driver(doc)
        bundle = simulate_driver(driver, p, n_paths, seed)
        summary["empirical_var_final"] = float(np.var(bundle.values[:, -1]))
        summary["analytic_var_final"] = float(driver.variance(p.tn))
    elif kind == "ap":
        driver = _build_driver(doc)
        coeffs = _build_coefficients(doc, "coefficients", p, driver, "noise")
        cfg = ArcadeConfig(driver, coeffs)
        bundle = build_ap_paths(cfg, simulate_driver(driver, p, n_paths, seed))
        pin = float(np.max(np.abs(bundle.values[:, p.date_indices])))
        summary["max_pinning_residual"] = pin
        mid = 0.5 * (p.dates[0] + p.dates[1])
        summary["midpoint_variance"] = {
            "empirical": float(np.var(bundle.values[:, np.argmin(np.abs(p.grid - mid))])),
            "analytic": float(ap_cov(cfg, mid, mid)),
        }
        if _flag(_section(doc, "checks", ("markov",), {}), "markov"):
            summary["markov_check"] = markov_factorization_check(cfg).as_dict()
    elif kind == "rap":
        cfg = _rap_config(doc)
        bundle, x = build_rap_paths(cfg, n_paths, seed)
        summary["max_pinning_residual"] = float(
            np.max(np.abs(bundle.values[:, p.date_indices] - x)))
        if _flag(_section(doc, "checks", ("nearly_markov",), {}), "nearly_markov"):
            summary["nearly_markov"] = nearly_markov_check(cfg).as_dict()

    bundle.to_csv(out / "paths.csv")
    summary["config_hash"] = bundle.meta.get("config_hash", "")
    _write_json(out / "summary.json", summary)
    if not args.quiet:
        print(f"simulate {kind}: {n_paths} paths -> {out / 'paths.csv'}")
    return EXIT_OK


def _cmd_fam(doc: dict, args) -> int:
    check_keys(doc, _FAM_KEYS, "a fam config")
    seed = _resolve_seed(doc, args)
    n_paths = _option(doc, "n_paths", 128, _whole) if args.paths is None else args.paths
    max_files = _option(doc, "max_path_files", 16, _whole)
    if max_files < 0:
        raise ConfigError(f"max_path_files must be non-negative, got {max_files}")
    if n_paths == 1:                                 # the sampler rejects counts below 1
        raise ConfigError("the martingale-mean band needs a standard error, "
                          "so at least 2 paths, got 1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = _rap_config(doc)
    trace = fam_paths(cfg, n_paths, seed)
    diag: dict = {"seed": seed, "n_paths": n_paths, "version": __version__,
                  "underflow_fallbacks": trace.underflow_count}

    # martingale mean pinned to E[X_0] at every node
    x0_mean = float(np.mean(trace.x[:, 0]))
    node_checks = [_se_band_checks(trace.m_paths[:, k], x0_mean)
                   for k in range(0, trace.grid.size, max(1, trace.grid.size // 8))]
    diag["martingale_mean"] = {
        "pass": bool(all(c["pass"] for c in node_checks)),
        "nodes_checked": len(node_checks),
    }

    preset = cfg.coupling.name
    if preset == "binary_pm1" and cfg.partition.n_arcs == 1:
        t_hi = cfg.partition.tn
        interior = slice(1, -1)
        closed = trace.x[:, [0]] + np.tanh(
            (trace.i_paths[:, interior] - trace.x[:, [0]])
            / (t_hi - trace.grid[None, interior])
        )
        diag["tanh_closed_form_max_dev"] = float(
            np.max(np.abs(trace.m_paths[:, interior] - closed)))
    if preset == "brownian":
        diag["martingale_vs_process_max_dev"] = float(
            np.max(np.abs(trace.m_paths[:, 1:-1] - trace.i_paths[:, 1:-1])))

    if doc.get("isometry") is not None:                  # present, even if empty
        iso_doc = _section(doc, "isometry", ("n_paths",))
        report = ito_isometry_check(cfg, _option(iso_doc, "n_paths", 20000, _whole), seed)
        diag["isometry"] = report.as_dict()
        diag["isometry"]["pass"] = bool(report.z_score <= 3.0)

    files = trace.to_csv_files(out, max_paths=max_files)
    diag["path_files"] = [Path(f).name for f in files]
    _write_json(out / "diagnostics.json", diag)
    if not args.quiet:
        print(f"fam: {n_paths} paths -> {out}")
    return EXIT_OK


def _cmd_ibmot(doc: dict, args) -> int:
    check_keys(doc, _IBMOT_KEYS, "an ibmot config")
    seed = _resolve_seed(doc, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mu, _ = _build_marginal(_require(doc, "mu", "config"), "mu")
    nu, nu_moment = _build_marginal(_require(doc, "nu", "config"), "nu")
    horizon = _option(doc, "T", None, float)
    problem = IbmotProblem(mu, nu, horizon, target_second_moment=nu_moment)
    opts = _ibmot_options(doc)
    solution = solve_ibmot(problem, opts)
    payload = solution.as_dict()
    payload["seed"] = seed
    payload["version"] = __version__

    if doc.get("mc_check") is not None:                  # present, even if empty
        mc_doc = _section(doc, "mc_check", ("coupling", "n_paths", "steps"))
        kernel = _build_kernel(mc_doc, "mc_check")
        mc = ibmot_objective_mc(kernel, horizon,
                                _option(mc_doc, "n_paths", 20000, _whole), seed,
                                steps=_option(mc_doc, "steps", 500, _whole))
        payload["mc_check"] = mc.as_dict()

    _write_json(out / "solution.json", payload)
    if not args.quiet:
        print(f"ibmot: gap={solution.duality_gap:.2e} "
              f"K_I={solution.objective_ki:.6f} -> {out / 'solution.json'}")
    if not solution.converged:
        limit = opts.gap_tol * (1.0 + abs(solution.objective_quantile))
        _emit_error("numeric", NumericError(
            f"not converged after {solution.iterations} iterations: duality gap "
            f"{solution.duality_gap:.3e} > limit {limit:.3e}"))
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_check(doc: dict, args) -> int:
    kind = _kind(doc, "check", _CHECK_KEYS)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report: dict = {"kind": kind, "version": __version__}
    if kind == "coefficients":
        p = _build_partition(doc)
        driver = _build_driver(doc)
        cs = _build_coefficients(doc, "coefficients", p, driver, "noise")
        continuity_c = (_option(doc, "continuity_c", None, float)
                        if doc.get("continuity_c") is not None else None)
        rep = validate_coefficient_set(cs, _option(doc, "tol", 1e-9, float), continuity_c)
        report.update(rep.as_dict())
    elif kind == "markov":
        p = _build_partition(doc)
        driver = _build_driver(doc)
        cs = _build_coefficients(doc, "coefficients", p, driver, "noise")
        rep = markov_factorization_check(ArcadeConfig(driver, cs),
                                         _option(doc, "tol", 1e-8, float))
        report.update(rep.as_dict())
    elif kind == "nearly_markov":
        cfg = _rap_config(doc)
        rep = nearly_markov_check(cfg, _option(doc, "tol", 1e-8, float))
        report.update(rep.as_dict())
    elif kind == "kernel":
        kernel = _build_kernel(doc, "config")
        report["martingale"] = bool(kernel.martingale)
        report["pass"] = bool(kernel.martingale)
    elif kind == "convex_order":
        mu, _ = _build_marginal(_require(doc, "mu", "config"), "mu")
        nu, _ = _build_marginal(_require(doc, "nu", "config"), "nu")
        ok, worst, witness = convex_order_report(mu, nu, _option(doc, "tol", 1e-9, float))
        report.update({"pass": bool(ok), "worst_violation": worst, "witness": witness})
    _write_json(out / "check.json", report)
    if not args.quiet:
        print(f"check {kind}: pass={report.get('pass')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": _cmd_simulate,
    "fam": _cmd_fam,
    "ibmot": _cmd_ibmot,
    "check": _cmd_check,
}


@functools.cache     # one parser per process
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcadeproc",
        description="Arcade-process simulation and information-based transport runner",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--paths", type=int, default=None,
                         help="override the Monte Carlo path count")
        cmd.add_argument("--quiet", action="store_true")
    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    payload = {"error": {"type": kind, "message": str(exc)}}
    if isinstance(exc, InfeasibleError) and exc.witness:
        payload["error"]["witness"] = exc.witness
    print(json.dumps(payload, sort_keys=True, default=float), file=sys.stderr)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    if not isinstance(doc, dict):
        _emit_error("config", ConfigError("a config must be a JSON object"))
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](doc, args)
    except InfeasibleError as exc:
        _emit_error("infeasible", exc)
        return EXIT_INFEASIBLE
    except (ConfigError, DomainError) as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except (NumericError, ArcadeError) as exc:
        _emit_error("numeric", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
