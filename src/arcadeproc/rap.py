"""Randomized arcade processes: signal plus independent arcade noise.

A randomized arcade interpolates path-wise through the targets:
``I_t = sum_i g_i(t) X_i + A_t`` with signal coefficients ``g_i`` and an
arcade ``A``.  The module covers path assembly, the nearly-Markov
verification (arcade factorization plus the two signal-coefficient
conditions), the one-arc conditional-mean identity, and process mimicry.

The nearly-Markov check certifies the forward-time property only: the
conditional law of the future given the history depends on the current
value and the already-revealed targets.  The time-reversed analogue (which
would instead require each ``g_j`` to vanish after ``T_{j+1}``) is out of
scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arcade import (
    ArcadeConfig,
    MarkovCheckReport,
    _assembled_blocks,
    ap_cov,
    ap_mean,
    build_ap_paths,
    markov_factorization_check,
)
from .coupling import CouplingKernel, _nearest
from .drivers import (
    _VAR_FLOOR,
    GaussMarkovDriver,
    PathBundle,
    _block_nodes,
    _cholesky_draw,
    _driver_blocks,
    _stack_blocks,
    brownian_driver,
    config_hash,
    simulate_driver,
)
from .errors import ConfigError, DegenerateError, DomainError
from .partition import (
    CoefficientSet,
    Partition,
    carryover_noise_coefficients,
    piecewise_linear_coefficients,
    validate_coefficient_set,
)
from .streams import stream_rng

__all__ = [
    "RapConfig",
    "NearlyMarkovReport",
    "MimicResult",
    "build_rap_paths",
    "nearly_markov_check",
    "conditional_mean_rap",
    "mimic_process",
    "carryover_signal_coefficients",
    "fbm_paths",
]

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RapConfig:
    """Arcade noise, signal coefficients, and a coupling for the targets.

    With ``standard=True`` the constructor additionally verifies the signal
    structure that makes the process automatically nearly-Markov: each
    ``g_j`` (j >= 1) vanishes up to ``T_{j-1}`` and coincides with the noise
    coefficient ``f_j`` on ``[T_{j-1}, T_j]``.
    """

    arcade: ArcadeConfig
    signal: CoefficientSet
    coupling: CouplingKernel
    standard: bool = False

    def __post_init__(self):
        p = self.arcade.partition
        if self.signal.partition.dates != p.dates or \
                self.signal.partition.steps_per_arc != p.steps_per_arc:
            raise ConfigError("signal and noise coefficients use different partitions")
        report = validate_coefficient_set(self.signal, tol=1e-9)
        if not report.passed:
            raise ConfigError("signal coefficients are not finite on the grid or "
                              "violate the node identities")
        if self.coupling.n_targets != p.n_arcs + 1:
            raise ConfigError(
                f"coupling provides {self.coupling.n_targets} targets for "
                f"{p.n_arcs + 1} dates"
            )
        if self.standard:
            resid = _standard_signal_residual(self)
            if resid > 1e-9:
                raise ConfigError(
                    f"standard flag set but signal deviates from the standard "
                    f"structure by {resid:.2e}"
                )

    @property
    def partition(self) -> Partition:
        return self.arcade.partition

    def config_dict(self) -> dict:
        return {
            "arcade": self.arcade.config_dict(),
            "signal": self.signal.config_dict(),
            "coupling": self.coupling.config_dict(),
            "standard": bool(self.standard),
        }


def _early_signal_residual(cfg: RapConfig) -> float:
    """Max ``|g_j|`` over the grid nodes of ``[T_0, T_{j-1}]``, j = 1..n: zero
    when every signal coefficient vanishes ahead of its arc."""
    p = cfg.partition
    grid, gmat = p.grid, cfg.signal.grid_values
    worst = 0.0
    for j in range(1, p.n_arcs + 1):
        worst = max(worst, float(np.max(np.abs(gmat[j, grid <= p.dates[j - 1] + 1e-15]))))
    return worst


def _standard_signal_residual(cfg: RapConfig) -> float:
    """Max deviation from g_j = 0 before T_{j-1} and g_j = f_j on its arc."""
    p = cfg.partition
    grid = p.grid
    worst = _early_signal_residual(cfg)
    for j in range(1, p.n_arcs + 1):
        on_arc = (grid >= p.dates[j - 1]) & (grid <= p.dates[j])
        gap = cfg.signal.grid_values[j, on_arc] - cfg.arcade.coeffs.grid_values[j, on_arc]
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def build_rap_paths(cfg: RapConfig, n_paths: int, seed: int,
                    block: int = 0) -> tuple[PathBundle, np.ndarray]:
    """Simulate driver + targets and assemble the randomized arcade paths.

    Returns the path bundle together with the sampled target matrix
    ``X`` of shape (paths, n+1).  Driver noise uses stream "D", targets
    stream "X", so the two are independent.  The bundle stores the rows of
    :func:`_rap_blocks`, the generator the Monte Carlo reducers consume.
    """
    x, blocks = _rap_blocks(cfg, n_paths, seed, block)
    meta = {"kind": "rap", "config": cfg.config_dict(), "block": block}
    meta["config_hash"] = config_hash(meta)
    grid = cfg.partition.grid
    values = _stack_blocks(blocks, (grid.size, n_paths)).T
    return PathBundle(grid=grid, values=values, seed=seed, meta=meta), x


def _rap_blocks(cfg: RapConfig, n_paths: int, seed: int, block: int = 0):
    """The targets ``X`` (paths, n+1) and an iterator over blocks of
    consecutive ``I`` rows: the date-first driver blocks, assembled in their
    slots of the ``_RING``-slot ring (see :func:`_driver_blocks`).  The
    sampler and the assembler share one scratch block.  The targets are
    drawn here, in the calling thread; only the iterator may run in the
    worker of :func:`arcadeproc.drivers._sampled_ahead`."""
    tmp = np.empty((_block_nodes(n_paths), n_paths))
    d_dates, d_blocks = _driver_blocks(cfg.arcade.driver, cfg.partition, n_paths, seed,
                                       block, tmp)
    x = cfg.coupling.sample(n_paths, seed, block)
    return x, _assembled_blocks(cfg.arcade.coeffs.grid_values, d_dates, d_blocks,
                                cfg.signal.grid_values, x, tmp)


# ---------------------------------------------------------------------------
# Nearly-Markov verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NearlyMarkovReport:
    """Residuals of the three nearly-Markov conditions."""

    passed: bool
    markov: MarkovCheckReport
    vanish_residual: float       # max |g_j| on [T_0, T_{j-1}]
    match_residual: float        # max proportionality defect of g_j vs A1 on its arc
    a1_right_limits: tuple[float, ...]
    tol: float

    def as_dict(self) -> dict:
        return {
            "pass": bool(self.passed),
            "noise_markov": self.markov.as_dict(),
            "vanish_residual": self.vanish_residual,
            "match_residual": self.match_residual,
            "a1_right_limits": [float(v) for v in self.a1_right_limits],
            "tol": self.tol,
        }


def nearly_markov_check(cfg: RapConfig, tol: float = 1e-8) -> NearlyMarkovReport:
    """Verify the sufficient conditions for the nearly-Markov property.

    Condition 1 is Markovianity of the noise arcade (covariance
    factorization).  Condition 2 splits into the vanishing requirement
    ``g_j = 0`` on ``[T_0, T_{j-1}]`` and the matching requirement
    ``g_j(x) A1(T_j) = A1(x)`` on ``[T_{j-1}, T_j]``.  The matching part is
    checked in scale-free form, as proportionality between ``g_j`` and the
    extracted ``A1`` on the arc's interior grid nodes, which avoids
    evaluating ``A1`` at the arc endpoint where the anchored formulas
    degenerate to 0/0.
    """
    p = cfg.partition
    markov = markov_factorization_check(cfg.arcade, tol=tol)
    vanish = 0.0
    match = 0.0
    limits: list[float] = []
    if markov.passed:
        fact = markov.factorization
        steps = p.steps_per_arc
        vanish = _early_signal_residual(cfg)
        for j in range(1, p.n_arcs + 1):
            a1 = fact.a1[j - 1][1:-1]
            gvals = cfg.signal.grid_values[j, (j - 1) * steps + 1: j * steps]
            ref = int(np.argmax(np.abs(gvals)))
            scale = max(float(np.max(np.abs(a1))), _VAR_FLOOR)
            if abs(gvals[ref]) < 1e-12:
                # signal vanishes on the whole arc: A1 must too
                match = max(match, float(np.max(np.abs(a1))) / scale)
                limits.append(0.0)
                continue
            c = a1[ref] / gvals[ref]
            match = max(match, float(np.max(np.abs(a1 - c * gvals))) / scale)
            limits.append(float(c))
    passed = markov.passed and vanish <= tol and match <= tol
    return NearlyMarkovReport(passed, markov, vanish, match, tuple(limits), tol)


# ---------------------------------------------------------------------------
# One-arc conditional mean
# ---------------------------------------------------------------------------

def conditional_mean_rap(cfg: RapConfig, s: float, t: float,
                         x0: float, m_s: float, i_s: float) -> float:
    """Affine conditional-mean identity ``E[I_t | F_s]`` for one-arc processes.

    With ``a = K_A(s,t) / K_A(s,s)`` (the Markov ratio ``A2(t)/A2(s)``),

    ``E[I_t | F_s] = (g0(t) - a g0(s)) X_0 + (g1(t) - a g1(s)) M_s
    + a I_s + mu_A(t) - a mu_A(s)``.
    """
    p = cfg.partition
    if p.n_arcs != 1:
        raise ConfigError("the conditional-mean identity is a one-arc operation")
    if t < s:
        raise DomainError("need s <= t")
    p.check_domain(s)
    p.check_domain(t)
    if t == s:
        return float(i_s)
    var_s = float(ap_cov(cfg.arcade, s, s))
    if var_s <= _VAR_FLOOR:
        raise DegenerateError("conditioning time has zero noise variance")
    a = float(ap_cov(cfg.arcade, s, t)) / var_s
    g0_t, g0_s = cfg.signal.eval(0, t), cfg.signal.eval(0, s)
    g1_t, g1_s = cfg.signal.eval(1, t), cfg.signal.eval(1, s)
    mu_t, mu_s = ap_mean(cfg.arcade, t), ap_mean(cfg.arcade, s)
    return float(
        (g0_t - a * g0_s) * x0
        + (g1_t - a * g1_s) * m_s
        + a * i_s
        + mu_t - a * mu_s
    )


# ---------------------------------------------------------------------------
# Mimicry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MimicResult:
    paths: PathBundle
    targets: np.ndarray
    sup_distances: np.ndarray


def mimic_process(target: PathBundle, p: Partition,
                  driver: GaussMarkovDriver | None = None,
                  seed: int = 0, noise_scale: float = 1.0) -> MimicResult:
    """Interpolate each target path through its own date values.

    The targets are read off the given paths at the partition dates and the
    randomized arcade uses piecewise-linear coefficients for both signal and
    noise.  The target grid must contain every node of the partition grid;
    the per-path sup distance is measured across the partition grid.
    ``noise_scale`` rescales the arcade (0 turns the noise off).
    """
    idx = _nearest(target.grid, p.grid, 1e-9, "target grid does not refine the partition grid")
    y_nodes = target.values[:, idx]                     # (P, K)
    x = y_nodes[:, p.date_indices]                      # (P, n+1)
    coeffs = piecewise_linear_coefficients(p)
    signal = x @ coeffs.grid_values
    if noise_scale != 0.0:
        drv = driver if driver is not None else brownian_driver()
        cfg = ArcadeConfig(drv, coeffs)
        dpaths = simulate_driver(drv, p, target.n_paths, seed)
        noise = noise_scale * build_ap_paths(cfg, dpaths).values
    else:
        noise = np.zeros_like(signal)
    values = signal + noise
    sup = np.max(np.abs(values - y_nodes), axis=1)
    meta = {"kind": "mimic", "partition": p.config_dict(),
            "noise_scale": noise_scale}
    meta["config_hash"] = config_hash(meta)
    bundle = PathBundle(grid=p.grid, values=values, seed=seed, meta=meta)
    return MimicResult(bundle, x, sup)


def fbm_paths(grid: Sequence[float], n_paths: int, seed: int,
              hurst: float = 0.75) -> PathBundle:
    """Fractional Brownian paths by dense Cholesky (mimicry demo plumbing);
    ``hurst`` must lie in (0, 1] and the grid be 1-d and strictly increasing,
    its times in [0, inf)."""
    if not 0.0 < hurst <= 1.0:
        raise ConfigError(f"hurst must lie in (0, 1], got {hurst!r}")
    if n_paths < 1:
        raise ConfigError("n_paths must be positive")
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1:
        raise ConfigError(f"fBm grid must be 1-d, got shape {g.shape}")
    if not np.all(np.isfinite(g) & (g >= 0.0)):
        raise ConfigError(f"fBm grid times must be finite and >= 0, got {grid!r}")
    if not np.all(np.diff(g) > 0.0):
        raise ConfigError(f"fBm grid must be strictly increasing, got {grid!r}")
    two_h = 2.0 * hurst
    cov = 0.5 * (
        g[:, None] ** two_h + g[None, :] ** two_h
        - np.abs(g[:, None] - g[None, :]) ** two_h
    )
    vals = _cholesky_draw(cov, g > 0, 1e-12, stream_rng(seed, "fbm"), n_paths)
    meta = {"kind": "fbm", "hurst": hurst}
    return PathBundle(grid=g, values=vals, seed=seed, meta=meta)


# ---------------------------------------------------------------------------
# Two-arc carryover signal family
# ---------------------------------------------------------------------------

def carryover_signal_coefficients(p: Partition) -> CoefficientSet:
    """Signal coefficients that keep the carryover noise family nearly-Markov.

    Pairs with :func:`arcadeproc.partition.carryover_noise_coefficients` on
    two arcs and shares its rows ``g_0`` (the carryover coefficient) and
    ``g_1`` (the hat function).  ``g_2`` vanishes on the first arc and on the
    second arc follows the noise factor ``A1`` (rescaled to reach one at
    ``T_2``), with a slope break at the arc midpoint.  All pieces are linear
    with breakpoints on the grid, so the explicit table is exact for even
    ``steps_per_arc``.
    """
    table = carryover_noise_coefficients(p, "signal").table.copy()
    t0, t1, t2 = p.dates
    mid = 0.5 * (t1 + t2)
    g = p.grid
    lower = (g - t1) / (t2 - t1) + (g - t1) * t0 / (t1 - t0) ** 2
    upper = (g - t1) / (t2 - t1) + (t2 - g) * t0 / (t1 - t0) ** 2
    table[2] = np.where(g <= t1, 0.0, np.where(g <= mid, lower, upper))
    table[2, p.date_indices] = (0.0, 0.0, 1.0)
    return CoefficientSet(p, "explicit_table", "signal", table=table)
