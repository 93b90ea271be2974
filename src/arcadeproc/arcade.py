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

from .drivers import (
    _VAR_FLOOR,
    GaussMarkovDriver,
    PathBundle,
    _arc_coefficients,
    _block_nodes,
    config_hash,
)
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
    "ap_variance",
    "standard_coefficients",
    "markov_factorization_check",
]

_PROBES_PER_ARC = 7   # equispaced interior probes per arc in the Markov check
# indices (r, s, t) of the within-arc probe triples r <= s < t
_TRIPLES = np.nonzero(np.fromfunction(lambda r, s, t: (r <= s) & (s < t), (_PROBES_PER_ARC,) * 3))

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
                "noise coefficients are not finite on the grid or violate the "
                "interpolating-node identities: "
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
    every date.  ``driver_paths`` is left unchanged.
    """
    p = cfg.partition
    if driver_paths.grid.shape != p.grid.shape or not np.allclose(
        driver_paths.grid, p.grid, rtol=0.0, atol=1e-12
    ):
        raise ConfigError("driver paths were simulated on a different grid")
    rows = np.array(driver_paths.values.T, order="C")     # (K, P), assembled in place
    size = _block_nodes(rows.shape[1])
    for _ in _assembled_blocks(cfg.coeffs.grid_values, rows[p.date_indices],
                               (rows[k:k + size] for k in range(0, len(rows), size))):
        pass
    meta = {"kind": "ap", "config": cfg.config_dict()}
    meta["config_hash"] = config_hash(meta)
    return PathBundle(grid=p.grid, values=rows.T, seed=driver_paths.seed, meta=meta)


def _assembled_blocks(fmat: np.ndarray, d_dates: np.ndarray, d_blocks,
                      gmat: np.ndarray | None = None, x: np.ndarray | None = None,
                      tmp: np.ndarray | None = None):
    """Per block of consecutive driver rows ``D_k`` (at most
    :func:`~arcadeproc.drivers._block_nodes` of them), the arcade rows
    ``D_k - sum_i f_i(t_k) D_{T_i}`` (``d_dates``: the driver at the dates,
    (n+1, paths)) plus, given ``gmat`` and the targets ``x`` (paths, n+1),
    the signal ``sum_i g_i(t_k) X_i``, term by term in index order, skipping
    the terms whose coefficient is 0 at every node of the block.  ``tmp`` is
    a (block nodes, paths) scratch buffer, allocated when omitted.

    Each block is assembled in place and yielded, so it stays valid as long
    as ``d_blocks`` keeps it; ``d_dates`` must not share memory with the
    blocks.  One ufunc per term and block.  A term applied where its
    coefficient is 0 adds a zero, which leaves every value as it is up to
    the sign of a zero, so the rows are the same for any split into blocks.
    """
    n_paths = d_dates.shape[1]
    terms = [(d_dates, fmat, np.subtract)]
    if gmat is not None:
        terms.append((np.ascontiguousarray(x.T), gmat, np.add))
    if tmp is None:
        tmp = np.empty((_block_nodes(n_paths), n_paths))
    start = 0
    for block in d_blocks:
        nodes = slice(start, start + len(block))
        start = nodes.stop
        for sources, coefs, op in terms:
            for i in np.flatnonzero(np.any(coefs[:, nodes] != 0.0, axis=1)).tolist():
                op(block, np.multiply(coefs[i, nodes, None], sources[i], out=tmp[:len(block)]),
                   out=block)
        yield block


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
    ss = np.atleast_1d(np.asarray(s, dtype=float))
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    ss, tt = np.broadcast_arrays(ss, tt)
    s_flat, t_flat = ss.ravel(), tt.ravel()
    out = _cov_given_coefficients(cfg, s_flat, t_flat, cfg.coeffs.matrix(s_flat),
                                  cfg.coeffs.matrix(t_flat)).reshape(ss.shape)
    return float(out.ravel()[0]) if np.isscalar(s) and np.isscalar(t) else out


def _cov_given_coefficients(cfg: ArcadeConfig, s: np.ndarray, t: np.ndarray,
                            f_s: np.ndarray, f_t: np.ndarray) -> np.ndarray:
    """:func:`ap_cov` at the point pairs ``(s[k], t[k])`` given the noise
    coefficients there, C-contiguous (n+1, N) arrays ``f_s`` and ``f_t``."""
    d = cfg.driver
    dates = np.asarray(cfg.partition.dates)
    kd_s = d.cov(s[None, :], dates[:, None])          # (n+1, N)
    kd_t = d.cov(t[None, :], dates[:, None])
    gram = d.cov(dates[:, None], dates[None, :])
    return (
        d.cov(s, t)
        - np.sum(f_t * kd_s + f_s * kd_t, axis=0)
        + np.einsum("in,ij,jn->n", f_s, gram, f_t)
    )


def ap_variance(cfg: ArcadeConfig, t):
    return ap_cov(cfg, t, t)


# ---------------------------------------------------------------------------
# Standard coefficients
# ---------------------------------------------------------------------------

def _closed_form_functions(d: GaussMarkovDriver, p: Partition) -> list[Callable]:
    """Per-index callables of the covariance-factorization coefficient family."""
    dates = np.asarray(p.dates)
    h1_d = np.asarray(d.h1(dates), dtype=float)
    var_d = np.asarray(d.variance(dates), dtype=float)
    n = p.n_arcs
    den = _arc_coefficients(d, dates, np.arange(n), dates[:-1]).den
    # an arc may degenerate only after a date where the driver vanishes
    bad = np.flatnonzero((np.abs(den) < _VAR_FLOOR) & (var_d[:-1] > _VAR_FLOOR))
    if bad.size:
        m = int(bad[0])
        raise ConfigError(f"driver factorization is degenerate between T_{m} and T_{m + 1}")
    hats = piecewise_linear_coefficients(p)

    def make(i: int):
        if var_d[i] <= _VAR_FLOOR:
            # the driver vanishes at this date, any continuous choice works
            return lambda x, i=i: hats.eval(i, x)

        def f(x, i=i):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            out = np.zeros_like(x)
            # open supports: the neighbour dates keep exact zeros, T_i gets 1
            if i > 0:
                mask = (x > dates[i - 1]) & (x < dates[i])
                if abs(den[i - 1]) < _VAR_FLOOR:
                    # degenerate left neighbour: ratio solution H1(x)/H1(T_i)
                    out[mask] = np.asarray(d.h1(x[mask]), dtype=float) / h1_d[i]
                else:
                    out[mask] = _arc_coefficients(d, dates, i - 1, x[mask]).left / den[i - 1]
            if i < n:
                mask = (x > dates[i]) & (x < dates[i + 1])
                out[mask] = _arc_coefficients(d, dates, i, x[mask]).right / den[i]
            out[x == dates[i]] = 1.0
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


def _arc_probes(p: Partition, m: int) -> np.ndarray:
    lo, hi = p.dates[m], p.dates[m + 1]
    return lo + (hi - lo) * np.arange(1, _PROBES_PER_ARC + 1) / (_PROBES_PER_ARC + 1)


def markov_factorization_check(cfg: ArcadeConfig, tol: float = 1e-8) -> MarkovCheckReport:
    """Test ``K_A(r,t) K_A(s,s) = K_A(r,s) K_A(s,t)`` within arcs, 0 across.

    Deterministic probes: seven equispaced interior points per
    arc; all within-arc triples ``r <= s < t`` enter the relative residual,
    all cross-arc pairs enter the absolute decorrelation bound.  On a pass
    the factor functions are extracted with the mid-arc anchor construction.
    The noise coefficients are evaluated once per arc's probes; each pair
    of probe sets takes its columns by indexing, in the layout
    :func:`ap_cov` evaluates for the (probes, probes) grid.
    """
    p = cfg.partition
    arcs = [_arc_probes(p, m) for m in range(p.n_arcs)]
    coefs = [cfg.coeffs.matrix(pts) for pts in arcs]

    def kmat(ma: int, mb: int) -> np.ndarray:
        """``K_A(r, t)`` for the probes ``r`` of arc ``ma`` and ``t`` of arc ``mb``."""
        rows = np.repeat(np.arange(arcs[ma].size), arcs[mb].size)
        cols = np.tile(np.arange(arcs[mb].size), arcs[ma].size)
        return _cov_given_coefficients(cfg, arcs[ma][rows], arcs[mb][cols], coefs[ma][:, rows],
                                       coefs[mb][:, cols]).reshape(arcs[ma].size, arcs[mb].size)

    max_resid = 0.0
    a, b, c = _TRIPLES
    for m in range(p.n_arcs):
        kmat_m = kmat(m, m)
        lhs = kmat_m[a, c] * kmat_m[b, b]
        rhs = kmat_m[a, b] * kmat_m[b, c]
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), _VAR_FLOOR)
        max_resid = max(max_resid, float(np.max(np.abs(lhs - rhs) / scale)))

    cross_max = 0.0
    for ma in range(p.n_arcs):
        for mb in range(ma + 1, p.n_arcs):
            cross_max = max(cross_max, float(np.max(np.abs(kmat(ma, mb)))))

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

    The interior nodes are grid nodes, so their coefficients are read from
    ``grid_values``; the midpoint's are evaluated once.
    """
    p = cfg.partition
    steps = p.steps_per_arc
    if steps < 3:
        raise ConfigError("factorization extraction needs steps_per_arc >= 3")
    a1_list, a2_list, a1_end = [], [], []
    for m in range(p.n_arcs):
        nodes = p.grid[m * steps: (m + 1) * steps + 1]
        mid = 0.5 * (p.dates[m] + p.dates[m + 1])
        at_mid = np.full(1, mid)
        f_mid = cfg.coeffs.matrix(at_mid)
        kmm = float(_cov_given_coefficients(cfg, at_mid, at_mid, f_mid, f_mid)[0])
        if kmm <= _VAR_FLOOR:
            raise DegenerateError(f"arc {m} has no variance at its midpoint")
        interior = nodes[1:-1]
        f_int = np.ascontiguousarray(cfg.coeffs.grid_values[:, m * steps + 1: (m + 1) * steps])
        k_x_mid = _cov_given_coefficients(cfg, interior, np.repeat(at_mid, interior.size), f_int,
                                          np.repeat(f_mid, interior.size, axis=1))
        k_x_x = _cov_given_coefficients(cfg, interior, interior, f_int, f_int)
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
