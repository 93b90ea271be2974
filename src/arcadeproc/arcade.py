"""Arcade processes: pinned-to-zero interpolating noise built from a driver.

Given interpolating coefficients ``f_i`` and a driver ``D``, the arcade path
is ``A_t = D_t - sum_i f_i(t) D_{T_i}``; it vanishes at every date for every
realization.  This module provides

* path assembly from simulated driver bundles,
* closed-form mean/covariance of ``A`` from the driver moments,
* synthesis of the coefficient family that makes a Gauss-Markov driver's
  arcade itself Markov (closed form from the covariance factorization, or a
  Gram linear solve on the date covariance matrix),
* a Markovianity test of the arcade covariance (within-arc factorization
  residuals plus cross-arc decorrelation) together with extraction of the
  per-arc factor functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .drivers import _VAR_FLOOR, GaussMarkovDriver, PathBundle, config_hash
from .errors import ConfigError, DegenerateError
from .partition import (
    CoefficientSet,
    Partition,
    piecewise_linear_coefficients,
    validate_coefficient_set,
)

__all__ = [
    "ArcadeConfig",
    "Factorization",
    "MarkovCheckReport",
    "build_ap_paths",
    "ap_mean",
    "ap_cov",
    "ap_moments",
    "standard_coefficients",
    "markov_factorization_check",
]

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArcadeConfig:
    """Driver plus noise coefficients on a shared partition."""

    driver: GaussMarkovDriver
    coeffs: CoefficientSet

    def __post_init__(self):
        report = validate_coefficient_set(self.coeffs, tol=1e-9)
        if not report.passed:
            raise ConfigError(
                "noise coefficients violate the interpolating-node identities: "
                f"unit {report.max_unit_error:.2e}, zero {report.max_zero_error:.2e}"
            )

    @property
    def partition(self) -> Partition:
        return self.coeffs.partition

    def config_dict(self) -> dict:
        return {
            "driver": self.driver.config_dict(),
            "coeffs": self.coeffs.config_dict(),
        }


# ---------------------------------------------------------------------------
# Paths and moments
# ---------------------------------------------------------------------------

def build_ap_paths(cfg: ArcadeConfig, driver_paths: PathBundle) -> PathBundle:
    """Assemble arcade paths from already-simulated driver paths.

    The construction is anticipative: each path uses its own driver values at
    all dates.  With node-exact coefficients the result is exactly zero at
    every date.
    """
    p = cfg.partition
    if driver_paths.grid.shape != p.grid.shape or not np.allclose(
        driver_paths.grid, p.grid, rtol=0.0, atol=1e-12
    ):
        raise ConfigError("driver paths were simulated on a different grid")
    fmat = cfg.coeffs.grid_matrix()                  # (n+1, K)
    d_rows = driver_paths.values.T                   # (K, P)
    values = d_rows - fmat.T @ d_rows[p.date_indices]
    meta = {"kind": "ap", "config": cfg.config_dict()}
    meta["config_hash"] = config_hash(meta)
    return PathBundle(grid=p.grid, values=values.T, seed=driver_paths.seed, meta=meta)


def ap_mean(cfg: ArcadeConfig, t):
    """Mean of the arcade: driver mean minus coefficient-weighted date means."""
    d, p = cfg.driver, cfg.partition
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    fmat = cfg.coeffs.matrix(tt)                      # (n+1, N)
    mu_dates = np.asarray(d.mean(np.asarray(p.dates)), dtype=float)
    out = np.asarray(d.mean(tt), dtype=float) - mu_dates @ fmat
    return float(out[0]) if np.isscalar(t) else out


def ap_cov(cfg: ArcadeConfig, s, t):
    """Covariance of the arcade via the driver's covariance double sums."""
    d, p = cfg.driver, cfg.partition
    ss = np.atleast_1d(np.asarray(s, dtype=float))
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    ss, tt = np.broadcast_arrays(ss, tt)
    dates = np.asarray(p.dates)
    f_s = cfg.coeffs.matrix(ss.ravel())               # (n+1, N)
    f_t = cfg.coeffs.matrix(tt.ravel())
    kd_s = d.cov(ss.ravel()[None, :], dates[:, None])  # (n+1, N)
    kd_t = d.cov(tt.ravel()[None, :], dates[:, None])
    gram = d.cov(dates[:, None], dates[None, :])
    out = (
        d.cov(ss.ravel(), tt.ravel())
        - np.sum(f_t * kd_s + f_s * kd_t, axis=0)
        + np.einsum("in,ij,jn->n", f_s, gram, f_t)
    )
    out = out.reshape(ss.shape)
    return float(out.ravel()[0]) if np.isscalar(s) and np.isscalar(t) else out


def ap_variance(cfg: ArcadeConfig, t):
    return ap_cov(cfg, t, t)


def ap_moments(cfg: ArcadeConfig, s, t) -> tuple[float, float, float]:
    """Mean at ``s``, mean at ``t``, and covariance between them."""
    return ap_mean(cfg, s), ap_mean(cfg, t), ap_cov(cfg, s, t)


# ---------------------------------------------------------------------------
# Standard coefficients
# ---------------------------------------------------------------------------

def _closed_form_functions(d: GaussMarkovDriver, p: Partition) -> list[Callable]:
    """Per-index callables of the covariance-factorization coefficient family."""
    dates = np.asarray(p.dates)
    h1_d = np.asarray(d.h1(dates), dtype=float)
    h2_d = np.asarray(d.h2(dates), dtype=float)
    var_d = h1_d * h2_d
    n = p.n_arcs

    def denom(i: int, j: int) -> float:
        return h1_d[j] * h2_d[i] - h1_d[i] * h2_d[j]

    def left_piece(i: int):
        # support [T_{i-1}, T_i]; 1 at T_i
        den = denom(i - 1, i)
        if abs(den) < _VAR_FLOOR:
            if var_d[i - 1] <= _VAR_FLOOR:
                # degenerate left neighbour: ratio solution H1(x)/H1(T_i)
                scale = h1_d[i]
                return lambda x: np.asarray(d.h1(x), dtype=float) / scale
            raise ConfigError(
                f"driver factorization is degenerate between T_{i-1} and T_{i}"
            )

        def f(x):
            x = np.asarray(x, dtype=float)
            h1x = np.asarray(d.h1(x), dtype=float)
            h2x = np.asarray(d.h2(x), dtype=float)
            return (h1x * h2_d[i - 1] - h1_d[i - 1] * h2x) / den

        return f

    def right_piece(i: int):
        # support [T_i, T_{i+1}]; 1 at T_i
        den = denom(i, i + 1)
        if abs(den) < _VAR_FLOOR:
            raise ConfigError(
                f"driver factorization is degenerate between T_{i} and T_{i+1}"
            )

        def f(x):
            x = np.asarray(x, dtype=float)
            h1x = np.asarray(d.h1(x), dtype=float)
            h2x = np.asarray(d.h2(x), dtype=float)
            return (h1_d[i + 1] * h2x - h1x * h2_d[i + 1]) / den

        return f

    hats = piecewise_linear_coefficients(p)

    def make(i: int):
        if var_d[i] <= _VAR_FLOOR:
            # the driver vanishes at this date, any continuous choice works
            return lambda x, i=i: hats.eval(i, x)
        left = left_piece(i) if i > 0 else None
        right = right_piece(i) if i < n else None

        def f(x, i=i, left=left, right=right):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            out = np.zeros_like(x)
            if left is not None:
                mask = (x >= dates[i - 1]) & (x <= dates[i])
                out[mask] = np.asarray(left(x[mask]), dtype=float)
            if right is not None:
                mask = (x > dates[i]) & (x <= dates[i + 1]) if left is not None \
                    else (x >= dates[i]) & (x <= dates[i + 1])
                out[mask] = np.asarray(right(x[mask]), dtype=float)
            out[x == dates[i]] = 1.0
            if i > 0:
                out[x == dates[i - 1]] = 0.0
            if i < n:
                out[x == dates[i + 1]] = 0.0
            return out

        return f

    return [make(i) for i in range(n + 1)]


def standard_coefficients(
    d: GaussMarkovDriver, p: Partition, method: str = "closed_form"
) -> CoefficientSet:
    """Coefficients that solve ``sum_j f_j(t) K_D(T_i, T_j) = K_D(t, T_i)``.

    ``closed_form`` evaluates the explicit per-arc ratios of the covariance
    factors; ``gram`` solves the date-covariance linear system on the grid
    (dropping zero-variance dates, whose coefficients are replaced by hat
    functions) and returns an explicit table.  Both make the driver's arcade
    Markov; for Brownian motion they reproduce the hat family.
    """
    if method == "closed_form":
        funcs = _closed_form_functions(d, p)
        return CoefficientSet(p, "standard", "noise", functions=tuple(funcs))
    if method != "gram":
        raise ConfigError(f"unknown standard-coefficient method {method!r}")

    dates = np.asarray(p.dates)
    gram = d.cov(dates[:, None], dates[None, :])
    var_d = np.diag(gram).copy()
    keep = var_d > _VAR_FLOOR * max(1.0, float(np.max(var_d)))
    idx = np.where(keep)[0]
    if idx.size == 0:
        raise ConfigError("driver vanishes at every date")
    sub = gram[np.ix_(idx, idx)]
    grid = p.grid
    rhs = d.cov(grid[None, :], dates[idx, None])      # (n_keep, K)
    try:
        sol = np.linalg.solve(sub, rhs)
    except np.linalg.LinAlgError:
        raise ConfigError("date covariance matrix is singular after "
                          "degenerate-row removal") from None
    table = np.zeros((p.n_arcs + 1, grid.size))
    table[idx, :] = sol
    hats = piecewise_linear_coefficients(p)
    for i in np.where(~keep)[0]:
        table[i, :] = hats.eval(i, grid)
    table[:, p.date_indices] = np.eye(p.n_arcs + 1)
    return CoefficientSet(p, "explicit_table", "noise", table=table)


# ---------------------------------------------------------------------------
# Markov factorization check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factorization:
    """Per-arc factor functions with ``K_A(s,t) = A1(min) A2(max)`` inside arcs.

    Values are tabulated on the partition grid arc by arc; the entries at the
    arc endpoints are one-sided limits obtained by linear extrapolation from
    the two nearest interior nodes.  ``a1_end`` collects the right-endpoint
    limits ``A1(T_{m+1}-)`` used by signal-coefficient checks.
    """

    partition: Partition
    a1: tuple[np.ndarray, ...]
    a2: tuple[np.ndarray, ...]
    a1_end: tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "A1": [list(map(float, arr)) for arr in self.a1],
            "A2": [list(map(float, arr)) for arr in self.a2],
            "A1_right_limits": [float(v) for v in self.a1_end],
        }


@dataclass(frozen=True)
class MarkovCheckReport:
    passed: bool
    max_triple_residual: float
    cross_arc_max: float
    tol: float
    factorization: Factorization | None = None

    def as_dict(self) -> dict:
        out = {
            "pass": bool(self.passed),
            "max_residual": self.max_triple_residual,
            "cross_arc_max": self.cross_arc_max,
            "tol": self.tol,
        }
        if self.factorization is not None:
            out.update(self.factorization.as_dict())
        return out


def _arc_probes(p: Partition, m: int, count: int = 7) -> np.ndarray:
    lo, hi = p.dates[m], p.dates[m + 1]
    return lo + (hi - lo) * np.arange(1, count + 1) / (count + 1)


def markov_factorization_check(
    cfg: ArcadeConfig, tol: float = 1e-8, probes_per_arc: int = 7
) -> MarkovCheckReport:
    """Test ``K_A(r,t) K_A(s,s) = K_A(r,s) K_A(s,t)`` within arcs, 0 across.

    Deterministic probes: ``probes_per_arc`` equispaced interior points per
    arc; all within-arc triples ``r <= s < t`` enter the relative residual,
    all cross-arc pairs enter the absolute decorrelation bound.  On a pass
    the factor functions are extracted with the mid-arc anchor construction.
    """
    p = cfg.partition
    arcs = [_arc_probes(p, m, probes_per_arc) for m in range(p.n_arcs)]

    max_resid = 0.0
    for pts in arcs:
        kmat = ap_cov(cfg, pts[:, None], pts[None, :])
        var = np.diag(kmat)
        npts = pts.size
        for a in range(npts):
            for b in range(a, npts - 1):
                for c in range(b + 1, npts):
                    lhs = kmat[a, c] * var[b]
                    rhs = kmat[a, b] * kmat[b, c]
                    scale = max(abs(lhs), abs(rhs), _VAR_FLOOR)
                    max_resid = max(max_resid, abs(lhs - rhs) / scale)

    cross_max = 0.0
    for ma in range(p.n_arcs):
        for mb in range(ma + 1, p.n_arcs):
            kmat = ap_cov(cfg, arcs[ma][:, None], arcs[mb][None, :])
            cross_max = max(cross_max, float(np.max(np.abs(kmat))))

    passed = max_resid <= tol and cross_max <= tol
    fact = _extract_factorization(cfg) if passed else None
    return MarkovCheckReport(passed, max_resid, cross_max, tol, fact)


def _extrapolate_end(x0: float, y0: float, x1: float, y1: float, x: float) -> float:
    if x1 == x0:
        return y1
    return y1 + (y1 - y0) * (x - x1) / (x1 - x0)


def _extract_factorization(cfg: ArcadeConfig) -> Factorization:
    """Mid-arc anchor extraction of the factor functions on the grid.

    Inside arc ``(T_m, T_{m+1})`` with ``mid`` the arc midpoint and
    ``A2(mid) = 1``:

    * ``A1(x) = K_A(x, mid)`` for ``x <= mid`` and
      ``K_A(x, x) K_A(mid, mid) / K_A(mid, x)`` beyond,
    * ``A2(x) = K_A(x, x) / K_A(x, mid)`` for ``x <= mid`` and
      ``K_A(mid, x) / K_A(mid, mid)`` beyond.
    """
    p = cfg.partition
    steps = p.steps_per_arc
    if steps < 3:
        raise ConfigError("factorization extraction needs steps_per_arc >= 3")
    a1_list, a2_list, a1_end = [], [], []
    for m in range(p.n_arcs):
        nodes = p.grid[m * steps: (m + 1) * steps + 1]
        mid = 0.5 * (p.dates[m] + p.dates[m + 1])
        kmm = float(ap_cov(cfg, mid, mid))
        if kmm <= _VAR_FLOOR:
            raise DegenerateError(f"arc {m} has no variance at its midpoint")
        interior = nodes[1:-1]
        k_x_mid = ap_cov(cfg, interior, np.full_like(interior, mid))
        k_x_x = ap_cov(cfg, interior, interior)
        left = interior <= mid
        denom = np.where(np.abs(k_x_mid) < _VAR_FLOOR, _VAR_FLOOR, k_x_mid)
        a1 = np.where(left, k_x_mid, k_x_x * kmm / denom)
        a2 = np.where(left, k_x_x / denom, k_x_mid / kmm)
        a1_full = np.empty(nodes.size)
        a2_full = np.empty(nodes.size)
        a1_full[1:-1], a2_full[1:-1] = a1, a2
        a1_full[0] = _extrapolate_end(interior[1], a1[1], interior[0], a1[0], nodes[0])
        a2_full[0] = _extrapolate_end(interior[1], a2[1], interior[0], a2[0], nodes[0])
        a1_full[-1] = _extrapolate_end(interior[-2], a1[-2], interior[-1], a1[-1], nodes[-1])
        a2_full[-1] = _extrapolate_end(interior[-2], a2[-2], interior[-1], a2[-1], nodes[-1])
        a1_list.append(a1_full)
        a2_list.append(a2_full)
        a1_end.append(float(a1_full[-1]))
    return Factorization(p, tuple(a1_list), tuple(a2_list), tuple(a1_end))
