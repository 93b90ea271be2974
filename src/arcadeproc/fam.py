"""Filtered arcade martingales: Bayesian interpolation along randomized arcades.

The martingale is a conditional expectation given the arcade filtration:
on arc ``m``, the posterior mean of the last of the targets
``(X_{m+1}, ..., X_{m+L})`` that the observation reveals, given the revealed
targets and the current process value.  Where every later signal
coefficient vanishes on the arc, ``L = 1``: the nearly-Markov (reduced)
filter is full conditioning with a one-target suffix.  Elsewhere
``L = n - m``.  For Gaussian noise the observation likelihood is normal with
mean ``sum_i g_i(t) X_i + mu_A(t)`` and variance ``sigma_A^2(t)``, so the
filter is a weighted average over the suffix hypotheses (discrete targets),
a conjugate normal update (Gaussian targets, one-target suffixes), or an
adaptive quadrature (generic continuous densities).

The module also produces the martingale's volatility coefficient
``Var[X | .] * sqrt(H1' H2 - H1 H2') / (H1(T_{m+1}) H2(t) - H1(t) H2(T_{m+1}))``,
the innovations Brownian motion recovered from the paths, and a Monte Carlo
isometry check tying ``E[(X_n - X_0)^2]`` to the integrated squared
volatility.

Along simulated paths the filter and the innovations reconstruction are one
forward march over the grid nodes (:func:`_march`).  It reads one contiguous
row of the time-major ``I`` buffer (see :class:`FamTrace`) per node and
yields that node's rows of ``M``, the volatility (where a consumer reads it)
and, for standard configurations, ``W``; its state between nodes is the
running ``W`` row.  What is constant on an arc (the suffix hypotheses, their
log prior weights and the posterior's scratch buffers) is set up once per
arc, and the per-node kernels write into those buffers with ``out=`` ufuncs
in the operand order of the plain formulas, so the march allocates no array
per node and its results are bit-identical to them.  A yielded row is valid
only until the next node is requested.
:func:`fam_paths` copies the rows into whole paths; the isometry check and
the Monte Carlo objective in :mod:`arcadeproc.ibmot` share one loop over path
blocks (:func:`_paired_path_sums`) that keeps only per-path running sums, so
an operation holds one ``(nodes, paths)`` array, the ``I`` buffer.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .arcade import ap_mean, ap_variance
from .coupling import GaussianStepKernel
from .drivers import _VAR_FLOOR, _arc_algebra
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

def _suffix_prior(steps, x_prev) -> tuple[np.ndarray, np.ndarray]:
    """The hypotheses ``(X_{m+1}, ..., X_{m+L})`` of the ``L`` atom-valued
    step kernels ``steps`` given ``X_m = x_prev``, constant on an arc: their
    values (L, hypotheses, paths) and log prior weights (hypotheses, paths),
    both C-contiguous.  For ``L = 1`` they are the next step's atoms.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    values, prob = [x_prev[None]], np.ones((1, x_prev.size))
    for step in steps:
        y, w = step.atoms_given(values[-1].reshape(-1))
        # hypothesis (j, h): hypothesis h continued by atom j of this step
        shape = (y.shape[-1],) + prob.shape
        values = [np.broadcast_to(v, shape).reshape(-1, x_prev.size) for v in values]
        values.append(y.T.reshape(-1, x_prev.size))
        prob = (prob * w.T.reshape(shape)).reshape(-1, x_prev.size)
    logw = np.where(prob > 0.0, np.log(np.where(prob > 0.0, prob, 1.0)), -np.inf)
    return np.stack(values[1:]), logw


def _posterior_from_atoms(s, logw, work, resid, g, var_a, with_variance=True):
    """Posterior mean/variance of the last suffix target given Gaussian evidence.

    ``s, logw``: suffix hypotheses and their log prior weights from
    :func:`_suffix_prior`; ``resid``: observation minus revealed signal,
    shape (paths,); evidence has mean ``sum_l g[l] * s[l]`` and variance
    ``var_a``; the estimate is ``s[-1]``.  Weights are normalized in log
    space; when every weight underflows the max-shift keeps the nearest
    hypothesis, counted in the returned tally.  Without ``with_variance``
    the variance is skipped and returned as ``None``.

    ``work`` is two (hypotheses, paths) and two (paths,) scratch buffers,
    which every call overwrites.  The returned mean and variance are two of
    those buffers, so they are valid until the next call with the same
    ``work``.  Each ufunc writes its ``out=`` buffer in the operand order of
    the plain expressions (``0.5 * z * z / var_a`` is
    ``((0.5 * z) * z) / var_a``, ``wts * y * y`` is ``(wts * y) * y`` with
    ``wts * y`` formed once for the mean), so the results are bit-identical
    to them.

    The reductions run over axis 0, so numpy adds the hypothesis rows one
    after another, for any number of hypotheses.
    """
    atoms_a, atoms_b, mean, var = work
    y = s[-1]
    if var_a > _VAR_FLOOR:
        z = np.multiply(s[0], g[0], out=atoms_a)
        for s_l, g_l in zip(s[1:], g[1:]):
            np.add(z, np.multiply(s_l, g_l, out=atoms_b), out=z)
        np.subtract(resid, z, out=z)
        penalty = np.multiply(z, 0.5, out=atoms_b)
        np.multiply(penalty, z, out=penalty)
        np.divide(penalty, var_a, out=penalty)
        logw = np.subtract(logw, penalty, out=penalty)
    peak = np.max(logw, axis=0, out=mean)
    underflow = int(np.count_nonzero(peak < _LOG_UNDERFLOW))
    wts = np.subtract(logw, peak, out=atoms_a)
    np.exp(wts, out=wts)
    np.divide(wts, np.sum(wts, axis=0, out=var), out=wts)
    wy = np.multiply(wts, y, out=wts)
    np.sum(wy, axis=0, out=mean)
    if not with_variance:
        return mean, None, underflow
    np.multiply(wy, y, out=wy)
    np.sum(wy, axis=0, out=var)
    mean_sq = np.multiply(mean, mean, out=atoms_b[0])
    np.subtract(var, mean_sq, out=var)
    return mean, np.clip(var, 0.0, None, out=var), underflow


def _posterior_gaussian(m0, v0, work, resid, g, var_a, with_variance=True):
    """Conjugate normal update for ``X' ~ N(m0, v0)`` observed through
    ``I = g_next X' + base + noise(var_a)`` with ``g = (g_next,)``;
    ``resid = I - base``.

    ``work`` is two (paths,) buffers that every call overwrites; the mean
    (unless it is ``m0`` itself, when the evidence carries no information)
    and the variance are returned in them, and the variance is ``None``
    without ``with_variance``.
    """
    (g_next,) = g
    mean, var_row = work
    if var_a <= _VAR_FLOOR or g_next == 0.0:
        mean, var = m0, v0
    else:
        var = 1.0 / (1.0 / v0 + g_next * g_next / var_a)
        evidence = np.multiply(resid, g_next, out=var_row)
        np.divide(evidence, var_a, out=evidence)
        np.divide(m0, v0, out=mean)
        np.add(mean, evidence, out=mean)
        np.multiply(mean, var, out=mean)
    if not with_variance:
        return mean, None, 0
    var_row.fill(var)
    return mean, var_row, 0


def _arc_posterior(steps, x_prev, with_variance: bool = True):
    """The posterior ``(resid, g, var_a) -> (mean, var, underflows)`` of the
    last target of the suffix whose step kernels are ``steps``, with ``g``
    the signal coefficients of the suffix targets at the node.  The prior
    given ``x_prev`` and the posterior's scratch are allocated once; the
    returned rows are valid until the next call.  A Gaussian step kernel
    takes a one-target suffix."""
    if len(steps) > 1 and any(s.conditional_kind != "atoms" for s in steps):
        raise ConfigError("full conditioning needs atom-valued step kernels; "
                          "the signal activates targets ahead of their arc")
    x_prev = np.asarray(x_prev, dtype=float)
    if steps[0].conditional_kind == "gaussian":
        m0, v0 = steps[0].gaussian_given(x_prev)
        work = (np.empty(x_prev.shape), np.empty(x_prev.shape))
        return functools.partial(_posterior_gaussian, m0, v0, work,
                                 with_variance=with_variance)
    s, logw = _suffix_prior(steps, x_prev)
    work = (np.empty(logw.shape), np.empty(logw.shape), np.empty(x_prev.shape),
            np.empty(x_prev.shape))
    return functools.partial(_posterior_from_atoms, s, logw, work, with_variance=with_variance)


# ---------------------------------------------------------------------------
# Arc bookkeeping
# ---------------------------------------------------------------------------

def _grid_algebra(cfg: RapConfig):
    """The driver's arc algebra at the nodes ``grid[:-1]`` the marches visit."""
    p = cfg.partition
    arcs = np.repeat(np.arange(p.n_arcs), p.steps_per_arc)
    return _arc_algebra(cfg.arcade.driver, p.dates, arcs, p.grid[:-1])


def _signal_residual(i_row, x, g_revealed, mu_a, z, tmp) -> np.ndarray:
    """``Z = I - sum_{i<=m} g_i X_i - mu_A`` at one node, written into ``z``
    column by column from the targets ``x`` (paths, n+1) and the node's
    ``g_revealed = g_0..g_m``; ``tmp`` is a (paths,) scratch row."""
    np.multiply(x[:, 0], g_revealed[0], out=z)
    for x_i, g_i in zip(x.T[1:], g_revealed[1:]):
        np.add(z, np.multiply(x_i, g_i, out=tmp), out=z)
    np.add(z, mu_a, out=z)
    return np.subtract(i_row, z, out=z)


# ---------------------------------------------------------------------------
# Full-trace evaluation
# ---------------------------------------------------------------------------

@dataclass
class FamTrace:
    """Per-path martingale, volatility, and innovations values on the grid.

    The path arrays are ``(paths, nodes)`` transposed views of C-contiguous
    ``(nodes, paths)`` buffers, like :attr:`PathBundle.values`; ``x`` holds
    the targets, shape (paths, n+1).
    """

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
    On an arc where every later signal coefficient vanishes the posterior is
    over the next target only; elsewhere it is over the chain's remaining
    targets (atom-valued kernels only), and the martingale is the posterior
    mean of the last one.
    """
    if with_innovations is None:
        with_innovations = cfg.standard
    if with_innovations and not cfg.standard:
        raise ConfigError("innovations require a standard randomized arcade")

    rap, x = build_rap_paths(cfg, n_paths, seed, block)
    i_rows = rap.values.T
    m_rows = np.empty(i_rows.shape)
    vol_rows = np.empty(i_rows.shape)
    w_rows = np.empty(i_rows.shape) if with_innovations else None
    underflow = 0
    for k, node in enumerate(_march(cfg, i_rows, x, with_innovations)):
        m_rows[k] = node.m
        vol_rows[k] = node.vol
        if w_rows is not None:
            w_rows[k] = node.w
        underflow += node.underflow
    return FamTrace(grid=cfg.partition.grid, i_paths=rap.values, m_paths=m_rows.T,
                    vol_paths=vol_rows.T, x=x,
                    w_paths=None if w_rows is None else w_rows.T, underflow_count=underflow,
                    meta={"config": cfg.config_dict(), "block": block, "seed": seed})


class _NodeRows(NamedTuple):
    """One node of :func:`_march`: the (paths,) rows of ``M``, the volatility
    (``None`` without volatility) and ``W`` (``None`` without innovations),
    and the node's count of posterior-underflow fallbacks.  The node's ``I``
    row is the caller's: row ``k`` of the buffer the march reads.

    The rows are the march's scratch or views of the targets: each is valid
    only until the next node is requested, so a consumer that keeps a row
    copies it."""

    m: np.ndarray
    vol: np.ndarray | None
    w: np.ndarray | None
    underflow: int


def _march(cfg: RapConfig, i_rows: np.ndarray, x: np.ndarray,
           with_innovations: bool, with_volatility: bool = True) -> Iterator[_NodeRows]:
    """The filter and the innovations as one forward march over the nodes.

    ``i_rows`` is the time-major (nodes, paths) ``I`` buffer and ``x`` the
    targets (paths, n+1).  Per node the residual ``Z = I - base`` of the
    revealed signal is computed once and feeds both the posterior and the
    innovations drift.  On arc ``m`` the posterior is over the suffixes
    ``(X_{m+1}, ..., X_{m+L})`` of the targets its observation reveals;
    their prior and the posterior's scratch are set up once per arc.
    Without ``with_volatility`` the posterior stops at the mean, and neither
    the posterior variance nor the volatility is computed.  Yields one
    :class:`_NodeRows` per grid node.

    The march allocates no row per node: ``Z``, the volatility, the
    posterior's output and the innovations increment live in buffers that
    every node overwrites, and ``W`` is updated in place after the node is
    yielded.  A yielded row is therefore valid only until the next node is
    requested.
    """
    p = cfg.partition
    grid = p.grid
    steps = p.steps_per_arc
    n = p.n_arcs
    gmat = cfg.signal.grid_matrix()                 # (n+1, K)
    # L = 1 on an arc where g_{m+2}, ..., g_n vanish at every node, else n - m
    lengths = [1 if np.all(np.abs(gmat[arc + 2:, arc * steps:(arc + 1) * steps]) <= 1e-12)
               else n - arc for arc in range(n)]
    mu_a = np.asarray(ap_mean(cfg.arcade, grid), dtype=float)
    var_a = np.asarray(ap_variance(cfg.arcade, grid), dtype=float)
    # the volatility is Var[X | .] sqrt(h2) / h3 where h3 > 0 and h2 >= 0, else 0
    alg = _grid_algebra(cfg)
    vol_ok = (alg.right > _VAR_FLOOR) & (alg.qv >= 0.0)
    root_qv = np.sqrt(np.maximum(alg.qv, 0.0))
    n_paths = x.shape[0]
    z = np.empty(n_paths)
    tmp = np.empty(n_paths)
    vol = np.empty(n_paths) if with_volatility else None
    innovation = _innovations_step(cfg, alg, n_paths) if with_innovations else None
    w = np.zeros(n_paths) if with_innovations else None

    for arc, length in enumerate(lengths):
        posterior = _arc_posterior(cfg.coupling.steps[arc: arc + length], x[:, arc],
                                   with_volatility)
        for k in range(arc * steps, (arc + 1) * steps):
            is_date = (k == arc * steps)
            va = 0.0 if is_date else float(var_a[k])
            if not is_date and va <= _VAR_FLOOR:
                raise DegenerateError(f"zero noise variance at interior node t={grid[k]}")
            _signal_residual(i_rows[k], x, gmat[: arc + 1, k], float(mu_a[k]), z, tmp)
            mean, pvar, uf = posterior(z, gmat[arc + 1: arc + 1 + length, k], va)
            m = x[:, arc] if is_date else mean
            if vol is not None:
                if vol_ok[k]:
                    np.multiply(pvar, root_qv[k], out=vol)
                    np.divide(vol, alg.right[k], out=vol)
                else:
                    vol.fill(0.0)
            yield _NodeRows(m, vol, w, uf)
            if innovation is not None:
                np.add(w, innovation(k, z, m, x[:, arc], i_rows[k], i_rows[k + 1]), out=w)
    if vol is not None:
        vol.fill(0.0)
    yield _NodeRows(x[:, n], vol, w, 0)


# ---------------------------------------------------------------------------
# Point filters (desk-scale API)
# ---------------------------------------------------------------------------

def _filter_context(cfg: RapConfig, t: float, x_observed):
    """``(m, pinned, x_m, base, g, va)`` of a point filter at ``t`` given the
    revealed targets: the arc ``m`` and, at a date, the target ``pinned``
    there (the rest ``None``).  Inside the arc ``pinned`` is ``None``,
    ``x_m`` the current target, ``base`` the revealed signal plus arcade
    mean, ``g = (g_{m+1}(t), ..., g_n(t))`` and ``va`` the noise variance,
    which must be positive."""
    p = cfg.partition
    x_obs = np.asarray(x_observed, dtype=float)
    m = p.arc_of(t)
    if x_obs.size < m + 1:
        raise ConfigError(f"need the {m + 1} revealed targets up to T_{m}")
    for i, date in enumerate(p.dates):
        if t == date:
            if x_obs.size < i + 1:
                raise ConfigError("revealed targets do not cover this date")
            return m, float(x_obs[i]), None, None, None, None
    va = float(ap_variance(cfg.arcade, t))
    if va <= _VAR_FLOOR:
        raise DegenerateError(f"zero noise variance at interior t={t}")
    mu = float(ap_mean(cfg.arcade, t))
    base = sum(cfg.signal.eval(i, t) * x_obs[i] for i in range(m + 1)) + mu
    g = np.asarray([cfg.signal.eval(j, t) for j in range(m + 1, p.n_arcs + 1)], dtype=float)
    return m, None, float(x_obs[m]), base, g, va


def _next_target_posterior(cfg: RapConfig, m: int, x_m: float, resid: float, g, va: float):
    """Posterior mean and variance of ``X_{m+1}`` at one point inside arc ``m``."""
    posterior = _arc_posterior(cfg.coupling.steps[m: m + 1], [x_m])
    mean, var, _ = posterior(np.asarray([resid]), g[:1], va)
    return float(mean[0]), float(var[0])


def fam_filter_discrete(cfg: RapConfig, t: float, i_t: float, x_observed) -> float:
    """Posterior mean of the next target for atom-valued couplings.

    At a date the martingale equals the matching target exactly (boundary
    convention).  Interior evaluation requires positive noise variance.
    """
    m, pinned, x_m, base, g, va = _filter_context(cfg, t, x_observed)
    if pinned is not None:
        return pinned
    if cfg.coupling.steps[m].conditional_kind != "atoms":
        raise ConfigError("discrete filter needs an atom-valued step kernel")
    return _next_target_posterior(cfg, m, x_m, i_t - base, g, va)[0]


def fam_filter_bruteforce(cfg: RapConfig, t: float, i_t: float, x_observed) -> float:
    """Full conditional mean of the terminal target over all chain suffixes.

    Independent of the march's posterior; conditions jointly on every
    remaining target using the complete signal sum.
    """
    m, pinned, x_m, base, g, va = _filter_context(cfg, t, x_observed)
    if pinned is not None:
        return pinned
    paths, probs = cfg.coupling.enumerate_suffixes(m, x_m)
    resid = i_t - base - paths @ g
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
    m, pinned, x_m, base, g, va = _filter_context(cfg, t, x_observed)
    if pinned is not None:
        return pinned, 0.0
    step = cfg.coupling.steps[m]
    if not isinstance(step, GaussianStepKernel):
        raise ConfigError("continuous filter needs a density-backed step kernel")
    pdf, m0, v0 = step.density_given(x_m)
    g_next = float(g[0])
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
    m, pinned, x_m, base, g, va = _filter_context(cfg, t, x_observed)
    if pinned is not None:
        raise DomainError("volatility formula is undefined at the dates")
    alg = _arc_algebra(cfg.arcade.driver, cfg.partition.dates, m, t)
    h2, h3 = float(alg.qv), float(alg.right)
    if h3 <= _VAR_FLOOR:
        raise DomainError("volatility denominator vanishes at the arc endpoint")
    pvar = _next_target_posterior(cfg, m, x_m, i_t - base, g, va)[1]
    return pvar * math.sqrt(max(h2, 0.0)) / h3


# ---------------------------------------------------------------------------
# Innovations
# ---------------------------------------------------------------------------

def _innovations_step(cfg: RapConfig, alg, n_paths: int):
    """The innovations increment ``(k, Z, M, X_m, I_k, I_{k+1}) -> W_{k+1} - W_k``
    of the node ``k`` on arc ``m``, from the driver algebra ``alg`` at the
    nodes, for rows of ``n_paths`` paths.

    ``dW = h2^{-1/2} [ ((Z h1 - M h2)/h3 - J) dt + dI ]`` with
    ``Z = I - sum_{i<=m} g_i X_i - mu_A`` and ``J`` the time derivative of
    the revealed-signal-plus-mean term (left-point Euler).  The increment is
    written into the step's own scratch row and is valid until the next call.
    """
    if np.any(alg.den == 0.0):
        raise DegenerateError("driver factorization is degenerate on an arc")
    if np.any(alg.qv <= 0.0):
        raise NumericError("driver quadratic-variation density is not positive")
    p = cfg.partition
    grid = p.grid
    # d/dt of f_{arc} (right piece) and f_{arc+1} (left piece), and of mu_A
    dg_m = alg.d_right / alg.den
    dg_next = alg.d_left / alg.den
    mu_dates = np.asarray(cfg.arcade.driver.mean(np.asarray(p.dates)), dtype=float)
    arcs = np.arange(grid.size - 1) // p.steps_per_arc
    mu_a_deriv = alg.d_mean - dg_m * mu_dates[arcs] - dg_next * mu_dates[arcs + 1]
    dn = np.empty(n_paths)
    tmp = np.empty(n_paths)

    def step(k, z, m, x_arc, i_now, i_next):
        h1, h2, h3 = -alg.d_right[k], alg.qv[k], alg.right[k]
        np.multiply(z, h1, out=dn)
        np.subtract(dn, np.multiply(m, h2, out=tmp), out=dn)
        np.divide(dn, h3, out=dn)
        j = np.multiply(x_arc, dg_m[k], out=tmp)
        np.add(j, mu_a_deriv[k], out=j)
        np.subtract(dn, j, out=dn)                  # the drift
        np.multiply(dn, float(grid[k + 1] - grid[k]), out=dn)
        np.add(dn, np.subtract(i_next, i_now, out=tmp), out=dn)
        return np.divide(dn, math.sqrt(h2), out=dn)

    return step


def innovations_from_arrays(cfg: RapConfig, i_vals: np.ndarray,
                            m_vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Left-point Euler reconstruction of the innovations Brownian motion.

    Takes whole ``I`` and ``M`` paths, given as (paths, nodes) arrays, and
    applies the increment :func:`fam_paths` marches with
    (:func:`_innovations_step`).  Requires a standard configuration (the
    drift formulas come from the driver factorization).  ``W`` is returned
    as the (paths, nodes) view of a time-major buffer.
    """
    if not cfg.standard:
        raise ConfigError("innovations are defined for standard configurations")
    p = cfg.partition
    steps = p.steps_per_arc
    gmat = cfg.signal.grid_matrix()
    mu_a = np.asarray(ap_mean(cfg.arcade, p.grid), dtype=float)
    i_rows, m_rows = i_vals.T, m_vals.T
    step = _innovations_step(cfg, _grid_algebra(cfg), i_rows.shape[1])
    z, tmp = np.empty(i_rows.shape[1]), np.empty(i_rows.shape[1])
    w_rows = np.empty(i_rows.shape)
    w_rows[0] = 0.0
    for k in range(p.grid.size - 1):
        arc = k // steps
        _signal_residual(i_rows[k], x, gmat[: arc + 1, k], float(mu_a[k]), z, tmp)
        dw = step(k, z, m_rows[k], x[:, arc], i_rows[k], i_rows[k + 1])
        np.add(w_rows[k], dw, out=w_rows[k + 1])
    return w_rows.T


def innovations_path(cfg: RapConfig, trace: FamTrace) -> np.ndarray:
    """Innovations paths for an existing trace (stored back on the trace)."""
    w = innovations_from_arrays(cfg, trace.i_paths, trace.m_paths, trace.x)
    trace.w_paths = w
    return w


# ---------------------------------------------------------------------------
# Monte Carlo reductions over path blocks: the isometry check
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
        """``|difference| / SE``; infinite for a nonzero difference with zero SE."""
        if self.diff_se > 0:
            return abs(self.diff_mean) / self.diff_se
        return math.inf if self.diff_mean != 0 else 0.0

    def as_dict(self) -> dict:
        z = self.z_score
        return {
            "target_jump_sq": self.lhs_mean, "target_jump_sq_se": self.lhs_se,
            "integrated_vol_sq": self.rhs_mean, "integrated_vol_sq_se": self.rhs_se,
            "difference": self.diff_mean, "difference_se": self.diff_se,
            "z_score": z if math.isfinite(z) else None,
        }


def ito_isometry_check(cfg: RapConfig, n_paths: int, seed: int,
                       block_size: int = 20000) -> IsometryReport:
    """Compare ``E[(X_n - X_0)^2]`` with ``E[int vol^2 dt]`` path by path.

    The squared volatility is integrated by the trapezoid rule (the
    volatility is zero at the final date, so the last cell is a half
    rectangle), accumulated node row by node row as the march yields them.
    Both sides are evaluated on the same paths, so the difference carries a
    paired standard error, which needs at least two paths.
    """
    return IsometryReport(*_paired_mean_se(*_isometry_sums(cfg, n_paths, seed, block_size)))


def _isometry_sums(cfg: RapConfig, n_paths: int, seed: int,
                   block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-path ``(X_n - X_0)^2`` and trapezoid ``int vol^2 dt``, from
    :func:`_paired_path_sums`."""
    dt = np.diff(cfg.partition.grid)
    weights = 0.5 * (np.append(dt, 0.0) + np.insert(dt, 0, 0.0))

    def reduce(x, nodes):
        rhs = np.zeros(x.shape[0])
        term = np.empty(x.shape[0])
        for wk, node in zip(weights, nodes):
            np.multiply(node.vol, node.vol, out=term)
            rhs += np.multiply(term, wk, out=term)
        return (x[:, -1] - x[:, 0]) ** 2, rhs

    return _paired_path_sums(cfg, n_paths, seed, block_size, reduce, with_innovations=False)


def _paired_path_sums(cfg: RapConfig, n_paths: int, seed: int, block_size: int,
                      reduce, **march_options) -> tuple[np.ndarray, np.ndarray]:
    """Two per-path sums for a paired Monte Carlo estimate.

    Path block ``b`` of at most ``block_size`` paths is simulated with
    ``block=b``; ``reduce(x, nodes)`` maps its targets and its :func:`_march`
    (with ``march_options``) to the block's two (paths,) sums.
    """
    for name, value in (("n_paths", n_paths), ("block_size", block_size)):
        if not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if n_paths < 2:
        raise ConfigError(f"a paired standard error needs at least 2 paths, got {n_paths}")
    if block_size < 1:
        raise ConfigError(f"block_size must be at least 1, got {block_size}")
    def block_sums(block, start):
        # the block's I buffer is freed on return, before the next is built
        rap, x = build_rap_paths(cfg, min(block_size, n_paths - start), seed, block)
        return reduce(x, _march(cfg, rap.values.T, x, **march_options))

    blocks = enumerate(range(0, n_paths, block_size))
    firsts, seconds = zip(*(block_sums(block, start) for block, start in blocks))
    return np.concatenate(firsts), np.concatenate(seconds)


def _paired_mean_se(a: np.ndarray, b: np.ndarray) -> tuple[float, ...]:
    """Mean and standard error of ``a``, ``b`` and the paired ``a - b``."""
    root_n = math.sqrt(a.size)
    return tuple(v for arr in (a, b, a - b)
                 for v in (float(arr.mean()), float(arr.std(ddof=1)) / root_n))
