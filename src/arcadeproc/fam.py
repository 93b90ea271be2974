"""Filtered arcade martingales: Bayesian interpolation along randomized arcades.

The martingale is the posterior mean of the next target given the revealed
targets and the current process value.  For Gaussian noise the observation
likelihood is normal with mean ``sum_i g_i(t) X_i + mu_A(t)`` and variance
``sigma_A^2(t)``, so the filter is a weighted average over the coupling's
conditional atoms (discrete targets), a conjugate normal update (Gaussian
targets), or an adaptive quadrature (generic continuous densities).

The module also produces the martingale's volatility coefficient
``Var[X | .] * sqrt(H1' H2 - H1 H2') / (H1(T_{m+1}) H2(t) - H1(t) H2(T_{m+1}))``,
the innovations Brownian motion recovered from the paths, and a Monte Carlo
isometry check tying ``E[(X_n - X_0)^2]`` to the integrated squared
volatility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arcade import ap_mean, ap_variance
from .coupling import GaussianStepKernel, StepKernel
from .drivers import _VAR_FLOOR
from .errors import ConfigError, DegenerateError, DomainError, NumericError
from .rap import RapConfig, build_rap_paths

__all__ = [
    "FamTrace",
    "IsometryReport",
    "fam_paths",
    "fam_filter_discrete",
    "fam_filter_continuous",
    "fam_filter_bruteforce",
    "fam_volatility",
    "innovations_path",
    "ito_isometry_check",
]

_LOG_UNDERFLOW = -700.0


# ---------------------------------------------------------------------------
# Posterior cores
# ---------------------------------------------------------------------------

def _posterior_from_atoms(y, w, resid, g_next, var_a):
    """Posterior mean/variance over atoms given Gaussian evidence.

    ``y, w``: candidate values and prior weights, shape (paths, atoms);
    ``resid``: observation minus base signal, shape (paths,);
    evidence has mean ``g_next * y`` and variance ``var_a``.
    Weights are normalized in log space; when every weight underflows the
    max-shift keeps the nearest atom, counted in the returned tally.
    """
    logw = np.where(w > 0.0, np.log(np.where(w > 0.0, w, 1.0)), -np.inf)
    if var_a > _VAR_FLOOR:
        z = resid[:, None] - g_next * y
        logw = logw - 0.5 * z * z / var_a
    peak = np.max(logw, axis=1, keepdims=True)
    underflow = int(np.sum(peak[:, 0] < _LOG_UNDERFLOW))
    wts = np.exp(logw - peak)
    wts /= np.sum(wts, axis=1, keepdims=True)
    mean = np.sum(wts * y, axis=1)
    var = np.sum(wts * y * y, axis=1) - mean * mean
    return mean, np.clip(var, 0.0, None), underflow


def _posterior_gaussian(m0, v0, resid, g_next, var_a):
    """Conjugate normal update for ``X' ~ N(m0, v0)`` observed through
    ``I = g_next X' + base + noise(var_a)``; ``resid = I - base``."""
    if var_a <= _VAR_FLOOR or g_next == 0.0:
        return m0, np.full_like(np.asarray(m0, dtype=float), v0), 0
    prec = 1.0 / v0 + g_next * g_next / var_a
    var = 1.0 / prec
    mean = var * (m0 / v0 + g_next * resid / var_a)
    return mean, np.full_like(np.asarray(mean, dtype=float), var), 0


def _step_posterior(step: StepKernel, x_prev, resid, g_next, var_a):
    if step.conditional_kind == "gaussian":
        m0, v0 = step.gaussian_given(np.asarray(x_prev, dtype=float))
        return _posterior_gaussian(m0, v0, resid, g_next, var_a)
    y, w = step.atoms_given(np.asarray(x_prev, dtype=float))
    return _posterior_from_atoms(y, w, resid, g_next, var_a)


# ---------------------------------------------------------------------------
# Arc bookkeeping
# ---------------------------------------------------------------------------

def _h_values(cfg: RapConfig, t: float, arc: int) -> tuple[float, float, float]:
    """(h1, h2, h3) of the driver factorization for the arc owning ``t``."""
    d = cfg.arcade.driver
    t_next = cfg.partition.dates[arc + 1]
    h1 = float(d.h1_deriv(t) * d.h2(t_next) - d.h1(t_next) * d.h2_deriv(t))
    h2 = float(d.h1_deriv(t) * d.h2(t) - d.h1(t) * d.h2_deriv(t))
    h3 = float(d.h1(t_next) * d.h2(t) - d.h1(t) * d.h2(t_next))
    return h1, h2, h3


def _reduction_applies(cfg: RapConfig) -> bool:
    """True when every ``g_j`` vanishes on ``[T_0, T_{j-1}]`` (grid check)."""
    p = cfg.partition
    grid = p.grid
    for j in range(1, p.n_arcs + 1):
        gj = np.asarray(cfg.signal.eval(j, grid), dtype=float)
        if np.max(np.abs(gj[grid <= p.dates[j - 1] + 1e-15])) > 1e-12:
            return False
    return True


def _prefix_base(gmat_col: np.ndarray, x: np.ndarray, m: int,
                 mu_a: float) -> np.ndarray:
    return x[:, : m + 1] @ gmat_col[: m + 1] + mu_a


# ---------------------------------------------------------------------------
# Full-trace evaluation
# ---------------------------------------------------------------------------

@dataclass
class FamTrace:
    """Per-path martingale, volatility, and innovations values on the grid."""

    grid: np.ndarray
    i_paths: np.ndarray
    m_paths: np.ndarray
    vol_paths: np.ndarray
    x: np.ndarray
    w_paths: np.ndarray | None = None
    underflow_count: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.i_paths.shape[0]

    def to_csv_files(self, directory, max_paths: int | None = None) -> list[str]:
        """One CSV per path with columns t, I, M, W, vol."""
        import os

        names = []
        count = self.n_paths if max_paths is None else min(self.n_paths, max_paths)
        for pidx in range(count):
            name = os.path.join(str(directory), f"path_{pidx:04d}.csv")
            with open(name, "w", encoding="utf-8") as fh:
                fh.write("t,I,M,W,vol\n")
                for k, t in enumerate(self.grid):
                    w = self.w_paths[pidx, k] if self.w_paths is not None else float("nan")
                    fh.write(
                        f"{float(t)!r},{float(self.i_paths[pidx, k])!r},"
                        f"{float(self.m_paths[pidx, k])!r},{float(w)!r},"
                        f"{float(self.vol_paths[pidx, k])!r}\n"
                    )
            names.append(name)
        return names


def fam_paths(cfg: RapConfig, n_paths: int, seed: int, block: int = 0,
              with_innovations: bool | None = None) -> FamTrace:
    """Evaluate the interpolating martingale along simulated arcade paths.

    At the dates the martingale is pinned to the targets; at interior nodes
    the filter conditions on the revealed targets and the current value.
    For couplings whose signal vanishes ahead of each arc the filter reduces
    to the next target only; other configurations fall back to full
    conditioning over the chain's remaining atoms.
    """
    p = cfg.partition
    if with_innovations is None:
        with_innovations = cfg.standard
    if with_innovations and not cfg.standard:
        raise ConfigError("innovations require a standard randomized arcade")

    rap, x = build_rap_paths(cfg, n_paths, seed, block)
    grid = p.grid
    steps = p.steps_per_arc
    n = p.n_arcs
    gmat = cfg.signal.grid_matrix()                 # (n+1, K)
    mu_a = np.asarray(ap_mean(cfg.arcade, grid), dtype=float)
    var_a = np.asarray(ap_variance(cfg.arcade, grid), dtype=float)
    reduced = _reduction_applies(cfg)

    i_vals = rap.values
    m_vals = np.empty_like(i_vals)
    vol = np.zeros_like(i_vals)
    underflow = 0

    for k, t in enumerate(grid):
        if k == grid.size - 1:
            m_vals[:, k] = x[:, n]
            vol[:, k] = 0.0
            continue
        arc = k // steps
        is_date = (k % steps == 0)
        if is_date:
            m_vals[:, k] = x[:, arc]
        va = 0.0 if is_date else float(var_a[k])
        if not is_date and va <= _VAR_FLOOR:
            raise DegenerateError(f"zero noise variance at interior node t={t}")
        g_next = float(gmat[arc + 1, k])
        base = _prefix_base(gmat[:, k], x, arc, float(mu_a[k]))
        resid = i_vals[:, k] - base
        if reduced:
            mean, pvar, uf = _step_posterior(
                cfg.coupling.steps[arc], x[:, arc], resid, g_next, va
            )
        else:
            if any(s.conditional_kind != "atoms" for s in cfg.coupling.steps[arc:]):
                raise ConfigError(
                    "full conditioning needs atom-valued step kernels; "
                    "the signal activates targets ahead of their arc"
                )
            mean, pvar, uf = _full_conditioning_posterior(
                cfg, k, arc, x, i_vals[:, k], float(mu_a[k]), va, gmat
            )
        underflow += uf
        if not is_date:
            m_vals[:, k] = mean
        _, h2, h3 = _h_values(cfg, float(t), arc)
        if h3 > _VAR_FLOOR and h2 >= 0.0:
            vol[:, k] = pvar * math.sqrt(max(h2, 0.0)) / h3

    w_vals = innovations_from_arrays(cfg, i_vals, m_vals, x) if with_innovations else None
    return FamTrace(grid=grid, i_paths=i_vals, m_paths=m_vals, vol_paths=vol,
                    x=x, w_paths=w_vals, underflow_count=underflow,
                    meta={"config": cfg.config_dict(), "block": block, "seed": seed})


def _full_conditioning_posterior(cfg, k, arc, x, i_col, mu_a, va, gmat):
    """Posterior mean/variance of X_n by enumerating chain suffixes.

    Used when some later signal coefficient is active before its arc, so
    conditioning cannot be reduced to the next target.  Only atom-valued
    chains are supported.
    """
    p = cfg.partition
    n = p.n_arcs
    means = np.empty(x.shape[0])
    varis = np.empty(x.shape[0])
    uf = 0
    prefix_vals = np.unique(x[:, arc])
    t = p.grid[k]
    for xv in prefix_vals:
        rows = np.where(np.abs(x[:, arc] - xv) < 1e-12)[0]
        paths, probs = cfg.coupling.enumerate_suffixes(arc, float(xv))
        gsuf = np.asarray(
            [cfg.signal.eval(j, float(t)) for j in range(arc + 1, n + 1)]
        )
        mean_shift = paths @ gsuf                      # (n_suffix,)
        y_last = paths[:, -1]
        base_rows = x[rows, : arc + 1] @ gmat[: arc + 1, k] + mu_a
        resid = i_col[rows] - base_rows
        if va <= _VAR_FLOOR:
            logw = np.broadcast_to(np.log(probs)[None, :], (rows.size, probs.size)).copy()
        else:
            logw = np.log(probs)[None, :] - 0.5 * (resid[:, None] - mean_shift) ** 2 / va
        peak = logw.max(axis=1, keepdims=True)
        uf += int(np.sum(peak[:, 0] < _LOG_UNDERFLOW))
        wts = np.exp(logw - peak)
        wts /= wts.sum(axis=1, keepdims=True)
        means[rows] = wts @ y_last
        varis[rows] = wts @ (y_last * y_last) - means[rows] ** 2
    return means, np.clip(varis, 0.0, None), uf


# ---------------------------------------------------------------------------
# Point filters (desk-scale API)
# ---------------------------------------------------------------------------

def _filter_context(cfg: RapConfig, t: float, x_observed) -> tuple[int, np.ndarray, float, float]:
    p = cfg.partition
    p.check_domain(t)
    x_obs = np.asarray(x_observed, dtype=float)
    m = p.arc_of(t) if t < p.tn else p.n_arcs - 1
    if x_obs.size < m + 1:
        raise ConfigError(f"need the {m + 1} revealed targets up to T_{m}")
    mu = float(ap_mean(cfg.arcade, t))
    va = float(ap_variance(cfg.arcade, t))
    return m, x_obs, mu, va


def fam_filter_discrete(cfg: RapConfig, t: float, i_t: float, x_observed) -> float:
    """Posterior mean of the next target for atom-valued couplings.

    At a date the martingale equals the matching target exactly (boundary
    convention).  Interior evaluation requires positive noise variance.
    """
    p = cfg.partition
    m, x_obs, mu, va = _filter_context(cfg, t, x_observed)
    for i, date in enumerate(p.dates):
        if t == date:
            if x_obs.size < i + 1:
                raise ConfigError("revealed targets do not cover this date")
            return float(x_obs[i])
    if va <= _VAR_FLOOR:
        raise DegenerateError(f"zero noise variance at interior t={t}")
    step = cfg.coupling.steps[m]
    if step.conditional_kind != "atoms":
        raise ConfigError("discrete filter needs an atom-valued step kernel")
    base = sum(cfg.signal.eval(i, t) * x_obs[i] for i in range(m + 1)) + mu
    g_next = float(cfg.signal.eval(m + 1, t))
    mean, _, _ = _step_posterior(step, x_obs[m: m + 1], np.asarray([i_t - base]),
                                 g_next, va)
    return float(mean[0])


def fam_filter_bruteforce(cfg: RapConfig, t: float, i_t: float, x_observed) -> float:
    """Full conditional mean of the terminal target over all chain suffixes.

    Independent of the reduced filter; conditions jointly on every remaining
    target using the complete signal sum.
    """
    p = cfg.partition
    m, x_obs, mu, va = _filter_context(cfg, t, x_observed)
    for i, date in enumerate(p.dates):
        if t == date:
            return float(x_obs[i])
    if va <= _VAR_FLOOR:
        raise DegenerateError(f"zero noise variance at interior t={t}")
    paths, probs = cfg.coupling.enumerate_suffixes(m, float(x_obs[m]))
    gsuf = np.asarray([cfg.signal.eval(j, t) for j in range(m + 1, p.n_arcs + 1)])
    base = sum(cfg.signal.eval(i, t) * x_obs[i] for i in range(m + 1)) + mu
    resid = i_t - base - paths @ gsuf
    logw = np.log(probs) - 0.5 * resid * resid / va
    wts = np.exp(logw - logw.max())
    wts /= wts.sum()
    return float(wts @ paths[:, -1])


def fam_filter_continuous(cfg: RapConfig, t: float, i_t: float, x_observed,
                          rel_tol: float = 1e-9, max_panels: int = 2 ** 15
                          ) -> tuple[float, float]:
    """Posterior mean and variance by adaptive composite-Simpson quadrature.

    The integrand is the conditional target density times the Gaussian
    observation likelihood, truncated at eight combined standard deviations;
    the panel count doubles until successive estimates agree to ``rel_tol``.
    Returns ``(mean, variance)``.
    """
    p = cfg.partition
    m, x_obs, mu, va = _filter_context(cfg, t, x_observed)
    for i, date in enumerate(p.dates):
        if t == date:
            return float(x_obs[i]), 0.0
    if va <= _VAR_FLOOR:
        raise DegenerateError(f"zero noise variance at interior t={t}")
    step = cfg.coupling.steps[m]
    if not isinstance(step, GaussianStepKernel):
        raise ConfigError("continuous filter needs a density-backed step kernel")
    pdf, m0, v0 = step.density_given(float(x_obs[m]))
    base = sum(cfg.signal.eval(i, t) * x_obs[i] for i in range(m + 1)) + mu
    g_next = float(cfg.signal.eval(m + 1, t))
    sd_like = math.sqrt(va) / abs(g_next) if abs(g_next) > 1e-300 else math.inf
    center_like = (i_t - base) / g_next if np.isfinite(sd_like) else m0
    sd0 = math.sqrt(v0)
    lo = min(m0 - 8.0 * sd0, center_like - 8.0 * sd_like if np.isfinite(sd_like) else m0 - 8.0 * sd0)
    hi = max(m0 + 8.0 * sd0, center_like + 8.0 * sd_like if np.isfinite(sd_like) else m0 + 8.0 * sd0)

    def integrands(y):
        like = np.exp(-0.5 * (i_t - base - g_next * y) ** 2 / va)
        w = pdf(y) * like
        return w, w * y, w * y * y

    prev = None
    panels = 64
    while panels <= max_panels:
        ys = np.linspace(lo, hi, panels + 1)
        h = (hi - lo) / panels
        w0, w1, w2 = integrands(ys)
        coef = np.ones(panels + 1)
        coef[1:-1:2] = 4.0
        coef[2:-1:2] = 2.0
        z0 = h / 3.0 * float(coef @ w0)
        z1 = h / 3.0 * float(coef @ w1)
        z2 = h / 3.0 * float(coef @ w2)
        if z0 <= 0.0:
            raise NumericError("posterior normalization underflowed")
        mean = z1 / z0
        var = max(z2 / z0 - mean * mean, 0.0)
        if prev is not None and abs(mean - prev) <= rel_tol * (1.0 + abs(mean)):
            return mean, var
        prev = mean
        panels *= 2
    raise NumericError(
        f"quadrature did not converge below {rel_tol} within {max_panels} panels"
    )


def fam_volatility(cfg: RapConfig, t: float, i_t: float, x_observed) -> float:
    """Volatility coefficient ``Var[X | .] sqrt(h2(t)) / h3(t)`` at interior t."""
    p = cfg.partition
    if any(t == date for date in p.dates):
        raise DomainError("volatility formula is undefined at the dates")
    m, x_obs, mu, va = _filter_context(cfg, t, x_observed)
    step = cfg.coupling.steps[m]
    base = sum(cfg.signal.eval(i, t) * x_obs[i] for i in range(m + 1)) + mu
    g_next = float(cfg.signal.eval(m + 1, t))
    _, pvar, _ = _step_posterior(step, x_obs[m: m + 1],
                                 np.asarray([i_t - base]), g_next, va)
    pv = float(pvar[0])
    _, h2, h3 = _h_values(cfg, t, m)
    if h3 <= _VAR_FLOOR:
        raise DomainError("volatility denominator vanishes at the arc endpoint")
    return pv * math.sqrt(max(h2, 0.0)) / h3


# ---------------------------------------------------------------------------
# Innovations
# ---------------------------------------------------------------------------

def innovations_from_arrays(cfg: RapConfig, i_vals: np.ndarray,
                            m_vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Left-point Euler reconstruction of the innovations Brownian motion.

    ``dW = h2^{-1/2} [ ((Z h1 - M h2)/h3 - J) dt + dI ]`` with
    ``Z = I - sum_{i<=m} g_i X_i - mu_A`` and ``J`` the time derivative of
    the revealed-signal-plus-mean term.  Requires a standard configuration
    (the drift formulas come from the driver factorization).
    """
    if not cfg.standard:
        raise ConfigError("innovations are defined for standard configurations")
    p = cfg.partition
    d = cfg.arcade.driver
    grid = p.grid
    steps = p.steps_per_arc
    gmat = cfg.signal.grid_matrix()
    mu_a = np.asarray(ap_mean(cfg.arcade, grid), dtype=float)
    dates = np.asarray(p.dates)
    mu_dates = np.asarray(d.mean(dates), dtype=float)

    w = np.zeros_like(i_vals)
    for k in range(grid.size - 1):
        t = float(grid[k])
        arc = k // steps
        t_lo, t_hi = dates[arc], dates[arc + 1]
        h1, h2, h3 = _h_values(cfg, t, arc)
        den = float(d.h1(t_hi) * d.h2(t_lo) - d.h1(t_lo) * d.h2(t_hi))
        # d/dt of f_{arc} (right piece) and f_{arc+1} (left piece) on this arc
        h1m = float(d.h1_deriv(t) * d.h2(t_lo) - d.h1(t_lo) * d.h2_deriv(t))
        dg_m = -h1 / den
        dg_next = h1m / den
        mu_a_deriv = float(d.mean_deriv(t)) - dg_m * mu_dates[arc] - dg_next * mu_dates[arc + 1]
        base = x[:, : arc + 1] @ gmat[: arc + 1, k] + mu_a[k]
        z = i_vals[:, k] - base
        j = dg_m * x[:, arc] + mu_a_deriv
        drift = (z * h1 - m_vals[:, k] * h2) / h3 - j
        dt = float(grid[k + 1] - grid[k])
        dn = drift * dt + (i_vals[:, k + 1] - i_vals[:, k])
        if h2 <= 0.0:
            raise NumericError("driver quadratic-variation density is not positive")
        w[:, k + 1] = w[:, k] + dn / math.sqrt(h2)
    return w


def innovations_path(cfg: RapConfig, trace: FamTrace) -> np.ndarray:
    """Innovations paths for an existing trace (stored back on the trace)."""
    w = innovations_from_arrays(cfg, trace.i_paths, trace.m_paths, trace.x)
    trace.w_paths = w
    return w


# ---------------------------------------------------------------------------
# Isometry check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsometryReport:
    lhs_mean: float
    lhs_se: float
    rhs_mean: float
    rhs_se: float
    diff_mean: float
    diff_se: float

    @property
    def z_score(self) -> float:
        return abs(self.diff_mean) / self.diff_se if self.diff_se > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "target_jump_sq": self.lhs_mean, "target_jump_sq_se": self.lhs_se,
            "integrated_vol_sq": self.rhs_mean, "integrated_vol_sq_se": self.rhs_se,
            "difference": self.diff_mean, "difference_se": self.diff_se,
            "z_score": self.z_score,
        }


def ito_isometry_check(cfg: RapConfig, n_paths: int, seed: int,
                       block_size: int = 20000) -> IsometryReport:
    """Compare ``E[(X_n - X_0)^2]`` with ``E[int vol^2 dt]`` path by path.

    The squared volatility is integrated by the trapezoid rule (the
    volatility is zero at the final date, so the last cell is a half
    rectangle).  Both sides are evaluated on the same paths, so the
    difference carries a paired standard error.
    """
    lhs_parts, rhs_parts = [], []
    done = 0
    block = 0
    while done < n_paths:
        count = min(block_size, n_paths - done)
        trace = fam_paths(cfg, count, seed, block=block, with_innovations=False)
        dt = np.diff(trace.grid)
        vol_sq = trace.vol_paths ** 2
        lhs_parts.append((trace.x[:, -1] - trace.x[:, 0]) ** 2)
        rhs_parts.append(0.5 * ((vol_sq[:, :-1] + vol_sq[:, 1:]) @ dt))
        done += count
        block += 1
    lhs = np.concatenate(lhs_parts)
    rhs = np.concatenate(rhs_parts)
    diff = lhs - rhs
    root_n = math.sqrt(lhs.size)
    return IsometryReport(
        float(lhs.mean()), float(lhs.std(ddof=1)) / root_n,
        float(rhs.mean()), float(rhs.std(ddof=1)) / root_n,
        float(diff.mean()), float(diff.std(ddof=1)) / root_n,
    )
