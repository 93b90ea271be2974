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
a conjugate normal update (Gaussian targets, one-target suffixes), or
``scipy.integrate.quad``, imported on call (:func:`fam_filter_continuous`).

The module also produces the martingale's volatility coefficient
``Var[X | .] * sqrt(H1' H2 - H1 H2') / (H1(T_{m+1}) H2(t) - H1(t) H2(T_{m+1}))``,
the innovations Brownian motion recovered from the paths, and a Monte Carlo
isometry check tying ``E[(X_n - X_0)^2]`` to the integrated squared
volatility.  The formula is the nearly-Markov one (``L = 1``): on a
full-conditioning arc the march's volatility column is the same fold of the
posterior variance of ``X_n``, which is not the FAM volatility there (its
``Var[X_n | F_t]`` does not vanish at the arc's end), and
:func:`fam_volatility` raises ``ConfigError``.

Along simulated paths the filter and the innovations reconstruction are one
forward march over blocks of grid nodes (:func:`_march`).  A block is a
(nodes, paths) array of consecutive ``I`` rows: a date alone, or at most
``_block_nodes(paths)`` interior nodes of one arc, as the date-first sampler
(:func:`arcadeproc.rap._rap_blocks`) yields them and as
:func:`arcadeproc.drivers._node_blocks` slices a stored time-major buffer
(see :class:`FamTrace`).  Per block the march computes the revealed-signal
residual, the posterior, the volatility (where a consumer reads it) and,
for standard configurations, the innovations increments once, with the
per-node coefficients broadcast along the node axis, and yields the
block's rows of ``M``, the volatility and ``W``; its state between blocks
is the last ``W`` row and the last node's pending increment.  What is
constant on an arc (the suffix hypotheses, their log prior weights and the
scratch buffers, sized for the largest block) is set up once per arc, and
the kernels write into those buffers with ``out=`` ufuncs in the operand
order of the plain formulas, so the march allocates no array per block and
its results are bit-identical to the node-by-node formulas.  A yielded
block is valid only until the next block is requested.
:func:`fam_paths` copies the blocks into whole paths; the isometry check and
the Monte Carlo objective in :mod:`arcadeproc.ibmot` share one loop over path
blocks (:func:`_paired_path_sums`) that runs the sampler in one worker thread
(:func:`arcadeproc.drivers._sampled_ahead`), at most two blocks ahead of
the march, and reduces the yielded rows node by node into per-path running
sums, so an operation holds the sampler's ring of ``_RING`` blocks of at
most ``_block_nodes(paths)`` node rows, the targets, the driver at the dates
and per-node tables, never a ``(nodes, paths)`` array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .arcade import ap_mean, ap_variance
from .drivers import _VAR_FLOOR, _arc_algebra, _block_nodes, _node_blocks, _sampled_ahead
from .errors import ConfigError, DegenerateError, DomainError, NumericError
from .rap import RapConfig, _rap_blocks, build_rap_paths

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
_QUAD_REL_TOL = 1e-9         # relative accuracy of the quadrature posterior moments


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


def _any(flags) -> bool:
    """Whether a bool, or any flag of a bool array, is set."""
    return flags if isinstance(flags, bool) else bool(flags.any())


def _fold(ufunc, rows, out):
    """``ufunc`` over the leading axis of ``rows``, folded in index order
    into ``out``: ``((rows[0] . rows[1]) . rows[2]) ...``.  ``ufunc.reduce``
    takes this order only where the rows are not single elements (at one
    node and one path it sums pairwise), so the fold keeps the bits
    independent of the block layout."""
    if len(rows) == 1:
        np.copyto(out, rows[0])
        return out
    ufunc(rows[0], rows[1], out=out)
    for row in rows[2:]:
        ufunc(out, row, out=out)
    return out


def _posterior_from_atoms(s, logw, work, resid, g, var_a, with_variance=True):
    """Posterior mean/variance of the last suffix target given Gaussian evidence.

    ``s, logw``: suffix hypotheses and their log prior weights from
    :func:`_suffix_prior`; ``resid``: observation minus revealed signal;
    the evidence has mean ``sum_l g[l] * s[l]`` and variance ``var_a``; the
    estimate is ``s[-1]``.  The arguments broadcast (in the march ``resid``
    is a (nodes, paths) block, ``s`` is (L, hypotheses, 1, paths), and ``g``
    and ``var_a`` come from :func:`_at_nodes`); a node whose ``var_a`` is at
    most ``_VAR_FLOOR`` keeps its prior weights.  Weights are normalized in
    log space; when every weight underflows the max-shift keeps the nearest
    hypothesis, counted in the returned tally.  Without ``with_variance``
    the variance is skipped and returned as ``None``.

    ``work`` is two C-contiguous scratch buffers of ``max(hypotheses, 2)``
    evidence-shaped rows, apart from ``resid``, which every call
    overwrites.  The mean and the variance are rows 1 and 0 of the first,
    valid until the next call; the second is free between calls.  Each
    ufunc writes its ``out=`` buffer in the operand order of the plain
    expressions (``0.5 * z * z / var_a`` is ``((0.5 * z) * z) / var_a``,
    ``wts * y * y`` is ``(wts * y) * y`` with ``wts * y`` formed once for
    the mean), and the sums and the maximum over hypotheses fold the rows
    in index order (:func:`_fold`), so every element is the same bits for
    any block shape and path count.
    """
    hypotheses = logw.shape[0]
    outs, atoms = work[0], work[1][:hypotheses]
    y = s[-1]
    z = np.multiply(s[0], g[0], out=outs[:hypotheses])
    for s_l, g_l in zip(s[1:], g[1:]):
        np.add(z, np.multiply(s_l, g_l, out=atoms), out=z)
    np.subtract(resid, z, out=z)
    penalty = np.multiply(z, 0.5, out=atoms)
    np.multiply(penalty, z, out=penalty)
    dead = var_a <= _VAR_FLOOR                        # a bool, or a bool per node
    if _any(dead):
        # logw - 0.0 is logw: the nodes without evidence keep their prior
        np.divide(penalty, var_a, out=penalty, where=np.logical_not(dead))
        np.copyto(penalty, 0.0, where=dead)
    else:
        np.divide(penalty, var_a, out=penalty)
    logw = np.subtract(logw, penalty, out=penalty)
    peak = _fold(np.maximum, logw, outs[0])
    underflow = int(np.count_nonzero(peak < _LOG_UNDERFLOW))
    wts = np.subtract(logw, peak, out=logw)
    np.exp(wts, out=wts)
    np.divide(wts, _fold(np.add, wts, outs[0]), out=wts)
    wy = np.multiply(wts, y, out=wts)
    mean = _fold(np.add, wy, outs[1])
    if not with_variance:
        return mean, None, underflow
    np.multiply(wy, y, out=wy)
    var = _fold(np.add, wy, outs[0])
    mean_sq = np.multiply(mean, mean, out=atoms[0])
    np.subtract(var, mean_sq, out=var)
    return mean, np.maximum(var, 0.0, out=var), underflow


def _posterior_gaussian(m0, v0, work, resid, g, var_a, with_variance=True):
    """Conjugate normal update for ``X' ~ N(m0, v0)`` observed through
    ``I = g_next X' + base + noise(var_a)`` with ``g = (g_next,)``;
    ``resid = I - base``.  The arguments broadcast as in
    :func:`_posterior_from_atoms`; a node whose ``var_a`` is at most
    ``_VAR_FLOOR`` or whose ``g_next`` is 0 keeps the prior.

    ``work`` is two result-shaped buffers that every call overwrites; the
    mean and the variance are returned in them, and the variance is
    ``None`` without ``with_variance``.
    """
    (g_next,) = g
    mean, var_row = work
    dead = (var_a <= _VAR_FLOOR) | (g_next == 0.0)   # a bool, or a bool per node
    if _any(dead):
        var_a = np.where(dead, 1.0, var_a)
    var = 1.0 / (1.0 / v0 + g_next * g_next / var_a)
    evidence = np.multiply(resid, g_next, out=var_row)
    np.divide(evidence, var_a, out=evidence)
    np.divide(m0, v0, out=mean)
    np.add(mean, evidence, out=mean)
    np.multiply(mean, var, out=mean)
    if _any(dead):                                   # the evidence carries no information
        np.copyto(mean, m0, where=dead)
        var = np.where(dead, v0, var)
    if not with_variance:
        return mean, None, 0
    np.copyto(var_row, var)
    return mean, var_row, 0


def _arc_posterior(steps, x_prev, max_nodes: int = 1, with_variance: bool = True):
    """The posterior ``(resid, g, var_a) -> (mean, var, underflows)`` of the
    last target of the suffix whose step kernels are ``steps``, for blocks
    of at most ``max_nodes`` nodes (``resid`` is (nodes, paths); ``g``, the
    suffix targets' signal coefficients, and ``var_a`` come from
    :func:`_at_nodes`), and ``work(nodes)``, its scratch for a block of
    ``nodes`` nodes.  The prior given ``x_prev`` (paths,) and the scratch
    are allocated once; the returned mean and variance are valid until the
    next call, and between calls ``work(nodes)[1]`` is free for the
    caller's scratch.  A Gaussian step kernel takes a one-target suffix."""
    if len(steps) > 1 and any(s.conditional_kind != "atoms" for s in steps):
        raise ConfigError("full conditioning needs atom-valued step kernels; "
                          "the signal activates targets ahead of their arc")
    x_prev = np.asarray(x_prev, dtype=float)
    gaussian = steps[0].conditional_kind == "gaussian"
    if gaussian:
        m0, v0 = steps[0].gaussian_given(x_prev)
        hypotheses = 1
    else:
        s, logw = _suffix_prior(steps, x_prev)
        s, logw = s[:, :, None], logw[:, None]
        hypotheses = logw.shape[0]
    rows = max(hypotheses, 2)
    scratch = np.empty((2, rows * max_nodes * x_prev.size))
    views: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def work(nodes: int) -> tuple[np.ndarray, np.ndarray]:
        if nodes not in views:
            shape = (rows, nodes, x_prev.size)
            views[nodes] = tuple(buf[:math.prod(shape)].reshape(shape) for buf in scratch)
        return views[nodes]

    def posterior(resid, g, var_a):
        outs, atoms = work(len(resid))
        if gaussian:
            return _posterior_gaussian(m0, v0, (outs[1], outs[0]), resid, g, var_a,
                                       with_variance)
        return _posterior_from_atoms(s, logw, (outs, atoms), resid, g, var_a, with_variance)

    return posterior, work


# ---------------------------------------------------------------------------
# Arc bookkeeping
# ---------------------------------------------------------------------------

def _suffix_length(cfg: RapConfig, arc: int) -> int:
    """The number ``L`` of targets ``(X_{m+1}, ..., X_{m+L})`` the posterior
    on arc ``m = arc`` conditions on: 1 where every later signal coefficient
    ``g_{m+2}, ..., g_n`` vanishes (to 1e-12) at the arc's grid nodes, else
    ``n - m`` (full conditioning)."""
    steps = cfg.partition.steps_per_arc
    later = cfg.signal.grid_values[arc + 2:, arc * steps:(arc + 1) * steps]
    return 1 if np.all(np.abs(later) <= 1e-12) else cfg.partition.n_arcs - arc


def _grid_algebra(cfg: RapConfig):
    """The driver's arc algebra at the nodes ``grid[:-1]`` the marches visit;
    rejects non-finite derivative terms, which the march would read as a
    zero volatility."""
    p = cfg.partition
    arcs = np.repeat(np.arange(p.n_arcs), p.steps_per_arc)
    alg = _arc_algebra(cfg.arcade.driver, p.dates, arcs, p.grid[:-1])
    if not all(np.isfinite(v).all() for v in (alg.d_right, alg.d_left, alg.qv, alg.d_mean)):
        raise ConfigError("driver derivatives are not finite on the grid")
    return alg


def _at_nodes(table: np.ndarray, nodes: slice):
    """The per-node values ``table[..., nodes]`` of a block, to broadcast
    against its (nodes, paths) rows: (nodes, 1) columns, or for a one-node
    block the values as Python floats, the same doubles at a cheaper ufunc
    call."""
    if nodes.stop - nodes.start == 1:
        return table[..., nodes.start].tolist()
    return table[..., nodes, None]


def _signal_residual(cfg: RapConfig, xt: np.ndarray):
    """The revealed-signal residual ``(nodes, I, z, tmp) -> Z = I - sum_{i<=m}
    g_i X_i - mu_A`` of a block of nodes of arc ``m``: ``nodes`` is its
    grid-node slice and ``I`` its (nodes, paths) rows, for the targets
    ``xt`` (n+1, paths).  ``Z`` is written term by term into the block ``z``,
    with ``tmp`` a block of scratch."""
    p = cfg.partition
    # row 0: mu_A; row 1 + i: g_i
    table = np.vstack([ap_mean(cfg.arcade, p.grid), cfg.signal.grid_values])

    def residual(nodes: slice, i_block, z, tmp) -> np.ndarray:
        mu_a, g_0, *g_rest = _at_nodes(table[:nodes.start // p.steps_per_arc + 2], nodes)
        np.multiply(xt[0], g_0, out=z)
        for x_i, g_i in zip(xt[1:], g_rest):
            np.add(z, np.multiply(x_i, g_i, out=tmp), out=z)
        np.add(z, mu_a, out=z)
        return np.subtract(i_block, z, out=z)

    return residual


# ---------------------------------------------------------------------------
# Full-trace evaluation
# ---------------------------------------------------------------------------

@dataclass
class FamTrace:
    """Per-path martingale, volatility, and innovations values on the grid.

    The path arrays are ``(paths, nodes)`` transposed views of C-contiguous
    ``(nodes, paths)`` buffers, like :attr:`PathBundle.values`; ``x`` holds
    the targets, shape (paths, n+1).  On a full-conditioning arc
    ``vol_paths`` is not the FAM volatility (see the module docstring).
    """

    grid: np.ndarray
    i_paths: np.ndarray
    m_paths: np.ndarray
    vol_paths: np.ndarray
    x: np.ndarray
    w_paths: np.ndarray | None = None
    underflow_count: int = 0

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
            w = self.w_paths[pidx] if self.w_paths is not None else np.full(self.grid.size, np.nan)
            rows = np.stack([self.grid, self.i_paths[pidx], self.m_paths[pidx], w,
                             self.vol_paths[pidx]], axis=1, dtype=float)
            with open(name, "w", encoding="utf-8") as fh:
                fh.write("t,I,M,W,vol\n")
                fh.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())
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
    mean of the last one.  There the volatility column applies the
    nearly-Markov formula to that posterior's variance, which is not the
    FAM volatility.
    """
    if with_innovations is None:
        with_innovations = cfg.standard
    if with_innovations and not cfg.standard:
        raise ConfigError("innovations require a standard randomized arcade")

    rap, x = build_rap_paths(cfg, n_paths, seed, block)
    kept = ("m", "vol", "w") if with_innovations else ("m", "vol")
    (m_rows, vol_rows, *w_rows), underflow = _stored_march(
        cfg, rap.values.T, x, kept, with_innovations=with_innovations)
    return FamTrace(grid=cfg.partition.grid, i_paths=rap.values, m_paths=m_rows.T,
                    vol_paths=vol_rows.T, x=x, w_paths=w_rows[0].T if w_rows else None,
                    underflow_count=underflow)


class _NodeBlock(NamedTuple):
    """One block of :func:`_march`: its grid-node slice ``nodes``, the
    (nodes, paths) rows of ``M``, the volatility (``None`` without
    volatility) and ``W`` (``None`` without innovations), and the block's
    count of posterior-underflow fallbacks.  The block's ``I`` rows are the
    caller's.

    The rows are the march's scratch or views of the targets: each is valid
    only until the next block is requested, so a consumer that keeps a row
    copies it."""

    nodes: slice
    m: np.ndarray
    vol: np.ndarray | None
    w: np.ndarray | None
    underflow: int


def _stored_march(cfg: RapConfig, i_rows: np.ndarray, x: np.ndarray,
                  kept: tuple[str, ...], **march_options) -> tuple[list[np.ndarray], int]:
    """:func:`_march` (with ``march_options``) over the stored time-major
    ``I`` rows ``i_rows`` (nodes, paths), sliced by :func:`_node_blocks`:
    the rows of the :class:`_NodeBlock` fields named in ``kept``, each
    copied into a whole (nodes, paths) buffer, and the count of
    posterior-underflow fallbacks."""
    whole = [np.empty(i_rows.shape) for _ in kept]
    underflow = 0
    i_blocks = (i_rows[nodes] for nodes in _node_blocks(cfg.partition, i_rows.shape[1]))
    for out in _march(cfg, i_blocks, x, **march_options):
        for name, rows in zip(kept, whole):
            rows[out.nodes] = getattr(out, name)
        underflow += out.underflow
    return whole, underflow


def _march(cfg: RapConfig, i_blocks, x: np.ndarray, with_innovations: bool,
           with_volatility: bool = True) -> Iterator[_NodeBlock]:
    """The filter and the innovations as one forward march over blocks of nodes.

    ``i_blocks`` iterates over the (nodes, paths) ``I`` rows of the blocks
    of :func:`arcadeproc.drivers._node_blocks` in grid order: each date
    alone, then at most ``_block_nodes(paths)`` interior nodes of its arc.
    They are the blocks of the date-first sampler
    (:func:`arcadeproc.rap._rap_blocks`) or slices of a stored time-major
    buffer.  ``x`` holds the targets (paths, n+1).  The innovations
    increment of a block's last node needs the next block's first ``I``
    row, so a block must stay valid until the block after it has been
    requested, as the sampler's do.  Without ``with_volatility`` the
    posterior stops at the mean, and neither the posterior variance nor the
    volatility is computed.  Yields one :class:`_NodeBlock` per block.

    Each stage runs once per block, with the per-node coefficients
    broadcast along the node axis: the residual ``Z = I - base`` of the
    revealed signal (which feeds both the posterior and the innovations
    drift), the posterior over the suffixes ``(X_{m+1}, ..., X_{m+L})`` of
    the targets the observation on arc ``m`` reveals, the volatility and the
    innovations increments.  Every element sees the ufuncs of the
    node-by-node formulas in their operand order, the posterior folds its
    hypotheses in index order and ``W`` accumulates node by node, so the
    rows are the same bits for any split into blocks.

    The march allocates no array per block.  Per arc it sets up the prior
    and two (max(hypotheses, 2), nodes, paths) scratch buffers sized for
    the largest block: the posterior's mean and variance (then the
    volatility) are rows of the first, and the second is the other stages'
    scratch.  ``Z`` is written into the rows that :class:`_Innovations`
    turns into the increments and ``W``.  Every block overwrites them, so a
    yielded block is valid only until the next block is requested.
    """
    p = cfg.partition
    steps = p.steps_per_arc
    n = p.n_arcs
    gmat = cfg.signal.grid_values                   # (n+1, K)
    var_a = np.asarray(ap_variance(cfg.arcade, p.grid), dtype=float)
    interior = np.arange(p.grid.size) % steps != 0
    degenerate = np.flatnonzero(interior & (var_a <= _VAR_FLOOR))
    if degenerate.size:
        raise DegenerateError(f"zero noise variance at interior node t={p.grid[degenerate[0]]}")
    n_paths = x.shape[0]
    xt = np.ascontiguousarray(x.T)
    residual = _signal_residual(cfg, xt)
    alg = _grid_algebra(cfg)
    innovations = _Innovations(cfg, alg, n_paths) if with_innovations else None
    z_rows = np.empty((_block_nodes(n_paths), n_paths)) if innovations is None else None
    # Var[X | .] sqrt(h2) / h3 where h3 > 0 and h2 >= 0, else 0; a date's
    # observation carries no evidence
    vol_ok = (alg.right > _VAR_FLOOR) & (alg.qv >= 0.0)
    table = np.stack([np.where(interior, var_a, 0.0)[:-1], np.sqrt(np.maximum(alg.qv, 0.0)),
                      np.where(vol_ok, alg.right, 1.0)])
    vol_always = bool(vol_ok.all())
    del alg                                          # the blocks read the tables above
    blocks = iter(i_blocks)
    start = 0

    for arc in range(n):
        length = _suffix_length(cfg, arc)
        posterior, work = _arc_posterior(cfg.coupling.steps[arc: arc + length], x[:, arc],
                                         _block_nodes(n_paths), with_volatility)
        g_suffix = gmat[arc + 1: arc + 1 + length]
        while start < (arc + 1) * steps:
            i_block = next(blocks)
            count = len(i_block)
            nodes = slice(start, start + count)
            start = nodes.stop
            tmp = work(count)[1][0]                  # free outside the posterior
            z = z_rows[:count] if innovations is None else innovations.start(nodes, i_block)
            residual(nodes, i_block, z, tmp)
            va, root_qv, h3 = _at_nodes(table, nodes)
            mean, vol, uf = posterior(z, _at_nodes(g_suffix, nodes), va)
            m = xt[arc:arc + 1] if nodes.start == arc * steps else mean
            if vol is not None:                      # the posterior variance, in place
                np.multiply(vol, root_qv, out=vol)
                np.divide(vol, h3, out=vol)
                if not (vol_always or vol_ok[nodes].all()):
                    np.copyto(vol, 0.0, where=~vol_ok[nodes, None])
            w = None
            if innovations is not None:
                w = innovations.finish(nodes, i_block, m, xt[arc], tmp)
            yield _NodeBlock(nodes, m, vol, w, uf)
    i_block = next(blocks)
    nodes = slice(start, start + len(i_block))
    w = None
    if innovations is not None:
        innovations.start(nodes, i_block)
        w = innovations.finish(nodes, i_block)
    vol = None
    if with_volatility:
        vol = work(1)[0][0]
        vol.fill(0.0)
    yield _NodeBlock(nodes, xt[n:], vol, w, 0)


# ---------------------------------------------------------------------------
# Point filters (desk-scale API)
# ---------------------------------------------------------------------------

def _filter_context(cfg: RapConfig, t: float, x_observed):
    """``(m, pinned, x_m, base, g, va)`` of a point filter at ``t`` given the
    revealed targets: the arc ``m`` and, at a date, the target ``pinned``
    there (the rest ``None``).  Inside the arc ``pinned`` is ``None``,
    ``x_m`` the current target, ``base`` the revealed signal plus arcade
    mean, ``g = (g_{m+1}(t), ..., g_n(t))`` and ``va`` the noise variance,
    which must be positive.  A ``t`` within the domain tolerance outside
    ``[T_0, T_n]`` is read as the end date."""
    p = cfg.partition
    x_obs = np.asarray(x_observed, dtype=float)
    p.check_domain(t)
    t = min(max(t, p.dates[0]), p.dates[-1])
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


def _point_posterior(cfg: RapConfig, m: int, x_m: float, resid: float, g, va: float):
    """Posterior mean and variance at one point inside arc ``m`` of the last
    target of the suffix :func:`_march` conditions on there
    (:func:`_suffix_length`)."""
    length = _suffix_length(cfg, m)
    posterior, _ = _arc_posterior(cfg.coupling.steps[m: m + length], [x_m])
    mean, var, _ = posterior(np.full((1, 1), resid), g[:length, None, None], np.full((1, 1), va))
    return float(mean[0, 0]), float(var[0, 0])


def fam_filter_discrete(cfg: RapConfig, t: float, i_t: float, x_observed) -> float:
    """The martingale at ``t`` for atom-valued couplings, as :func:`_march`
    computes it: the posterior mean of ``X_{m+1}``, or of ``X_n`` on an arc
    where a later signal coefficient does not vanish (full conditioning).

    At a date the martingale equals the matching target exactly (boundary
    convention).  Interior evaluation requires positive noise variance.
    """
    m, pinned, x_m, base, g, va = _filter_context(cfg, t, x_observed)
    if pinned is not None:
        return pinned
    if cfg.coupling.steps[m].conditional_kind != "atoms":
        raise ConfigError("discrete filter needs an atom-valued step kernel")
    return _point_posterior(cfg, m, x_m, i_t - base, g, va)[0]


def fam_filter_bruteforce(cfg: RapConfig, t: float, i_t: float, x_observed) -> float:
    """Conditional mean of the terminal target over all chain suffixes.

    Enumerates the remaining targets with the complete signal sum, given
    the current ``I_t`` and the revealed targets as the march is, so the
    two agree even where the signal leaks across arcs.
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


def fam_filter_continuous(cfg: RapConfig, t: float, i_t: float, x_observed) -> tuple[float, float]:
    """Posterior mean and variance by adaptive quadrature (``scipy.integrate.quad``).

    The integrand is the conditional target density times the Gaussian
    observation likelihood, truncated at eight combined standard deviations.
    Each moment is integrated to ``_QUAD_REL_TOL`` relative to itself or,
    for the first two, to the normalization ``z0`` (a relative bound alone
    fails where the posterior mean is 0).  Returns ``(mean, variance)``;
    ``NumericError`` if ``z0`` underflows or a quadrature does not converge.
    """
    from scipy.integrate import quad

    m, pinned, x_m, base, g, va = _filter_context(cfg, t, x_observed)
    if pinned is not None:
        return pinned, 0.0
    step = cfg.coupling.steps[m]
    if step.conditional_kind != "gaussian" or _suffix_length(cfg, m) > 1:
        raise ConfigError("continuous filter needs a Gaussian step kernel and a "
                          "signal that reveals only the next target on the arc")
    m0, v0 = step.gaussian_given(x_m)
    g_next = float(g[0])
    sd_like = math.sqrt(va) / abs(g_next) if abs(g_next) > 1e-300 else math.inf
    center_like = (i_t - base) / g_next if np.isfinite(sd_like) else m0
    sd0 = math.sqrt(v0)
    lo = min(m0 - 8.0 * sd0, center_like - 8.0 * sd_like if np.isfinite(sd_like) else m0 - 8.0 * sd0)
    hi = max(m0 + 8.0 * sd0, center_like + 8.0 * sd_like if np.isfinite(sd_like) else m0 + 8.0 * sd0)

    def moment(power: int, epsabs: float) -> float:
        value, _, _, *failed = quad(
            lambda y: (np.exp(-0.5 * (y - m0) ** 2 / v0) / math.sqrt(2 * math.pi * v0)
                       * np.exp(-0.5 * (i_t - base - g_next * y) ** 2 / va) * y ** power),
            lo, hi, epsabs=epsabs, epsrel=_QUAD_REL_TOL, full_output=1)
        if failed:
            raise NumericError(f"quadrature did not converge below {_QUAD_REL_TOL}: {failed[0]}")
        return value

    z0 = moment(0, 0.0)
    if z0 <= 0.0:
        raise NumericError("posterior normalization underflowed")
    mean = moment(1, _QUAD_REL_TOL * z0) / z0
    return mean, max(moment(2, _QUAD_REL_TOL * z0) / z0 - mean * mean, 0.0)


def fam_volatility(cfg: RapConfig, t: float, i_t: float, x_observed) -> float:
    """Volatility coefficient ``Var[X_{m+1} | .] sqrt(h2(t)) / h3(t)`` at interior t.

    The formula is the nearly-Markov one: on an arc where a later signal
    coefficient does not vanish (full conditioning) it is a ``ConfigError``.
    """
    m, pinned, x_m, base, g, va = _filter_context(cfg, t, x_observed)
    if pinned is not None:
        raise DomainError("volatility formula is undefined at the dates")
    if _suffix_length(cfg, m) > 1:
        raise ConfigError(f"the signal reveals targets ahead of arc {m}, where the "
                          "volatility formula does not hold")
    alg = _arc_algebra(cfg.arcade.driver, cfg.partition.dates, m, t)
    h2, h3 = float(alg.qv), float(alg.right)
    if h3 <= _VAR_FLOOR:
        raise DomainError("volatility denominator vanishes at the arc endpoint")
    pvar = _point_posterior(cfg, m, x_m, i_t - base, g, va)[1]
    return pvar * math.sqrt(max(h2, 0.0)) / h3


# ---------------------------------------------------------------------------
# Innovations
# ---------------------------------------------------------------------------

class _Innovations:
    """The innovations ``W`` along consecutive blocks of nodes, from the
    driver algebra ``alg`` at the nodes, for ``n_paths`` paths.

    Node ``k`` adds ``dW = h2^{-1/2} [ ((Z h1 - M h2)/h3 - J) dt + dI ]``
    with ``Z = I - sum_{i<=m} g_i X_i - mu_A``, ``J`` the time derivative of
    the revealed-signal-plus-mean term (left-point Euler) and
    ``dI = I_{k+1} - I_k``.  Per block, :meth:`start` takes the block's
    ``I`` rows and returns the (nodes, paths) rows into which the caller
    writes ``Z``; :meth:`finish` turns them into the increments in place
    and returns the block's rows of ``W``, valid until the next
    :meth:`start`.  The rows are those of one buffer: row 0 holds the
    block's first ``W`` and rows 1, 2, ... the increments, which
    ``np.add.accumulate`` sums node by node.  The last node's increment
    needs the next block's first ``I`` row, so it waits in the buffer, and
    the previous block's last ``I`` row must still be valid when
    :meth:`start` gets the next block.
    """

    def __init__(self, cfg: RapConfig, alg, n_paths: int):
        if np.any(alg.den == 0.0):
            raise DegenerateError("driver factorization is degenerate on an arc")
        if np.any(alg.qv <= 0.0):
            raise NumericError("driver quadratic-variation density is not positive")
        p = cfg.partition
        # d/dt of f_{arc} (right piece) and f_{arc+1} (left piece), and of mu_A
        dg_m = alg.d_right / alg.den
        dg_next = alg.d_left / alg.den
        mu_dates = np.asarray(cfg.arcade.driver.mean(np.asarray(p.dates)), dtype=float)
        arcs = np.arange(dg_m.size) // p.steps_per_arc
        mu_a_deriv = alg.d_mean - dg_m * mu_dates[arcs] - dg_next * mu_dates[arcs + 1]
        self._table = np.stack([-alg.d_right, alg.qv, alg.right, np.sqrt(alg.qv), dg_m,
                                mu_a_deriv, np.diff(p.grid)])
        self._rows = np.empty((_block_nodes(n_paths) + 1, n_paths))
        self._tmp = np.empty(n_paths)
        self._last = None                            # the previous block's last I row and size

    def start(self, nodes: slice, i_block) -> np.ndarray:
        rows = self._rows
        if self._last is None:
            rows[0] = 0.0
        else:
            i_prev, count = self._last
            pending = rows[count]
            np.add(pending, np.subtract(i_block[0], i_prev, out=self._tmp), out=pending)
            np.divide(pending, float(self._table[3, nodes.start - 1]), out=pending)
            np.add(rows[count - 1], pending, out=rows[0])
        return rows[1:len(i_block) + 1]

    def finish(self, nodes: slice, i_block, m=None, x_arc=None, tmp=None) -> np.ndarray:
        """``m`` (nodes, paths), the arc's target ``x_arc`` and a scratch
        block ``tmp`` are omitted at the final date, which adds nothing."""
        count = len(i_block)
        rows = self._rows
        if m is not None:
            h1, h2, h3, root_h2, dg_m, mu_a_deriv, dt = _at_nodes(self._table, nodes)
            dn = rows[1:count + 1]
            np.multiply(dn, h1, out=dn)
            np.subtract(dn, np.multiply(m, h2, out=tmp), out=dn)
            np.divide(dn, h3, out=dn)
            j = np.multiply(x_arc, dg_m, out=tmp)
            np.add(j, mu_a_deriv, out=j)
            np.subtract(dn, j, out=dn)                  # the drift
            np.multiply(dn, dt, out=dn)
            if count > 1:
                inner = dn[:-1]
                np.add(inner, np.subtract(i_block[1:], i_block[:-1], out=tmp[1:]), out=inner)
                np.divide(inner, root_h2[:-1], out=inner)
                np.add.accumulate(rows[:count], axis=0, out=rows[:count])
        self._last = (i_block[-1], count)
        return rows[:count]


def innovations_from_arrays(cfg: RapConfig, i_vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Left-point Euler reconstruction of the innovations Brownian motion.

    Runs :func:`_march` over the rows of the whole ``I`` paths ``i_vals``
    (paths, nodes), fed in the blocks of :func:`_node_blocks`, for the
    targets ``x`` (paths, n+1), and keeps ``W``; ``M`` is recomputed from
    ``I``.  Requires a standard configuration (the drift formulas come from
    the driver factorization).  ``W`` is returned as the (paths, nodes)
    view of a time-major buffer.
    """
    if not cfg.standard:
        raise ConfigError("innovations are defined for standard configurations")
    (w_rows,), _ = _stored_march(cfg, i_vals.T, x, ("w",), with_innovations=True,
                                 with_volatility=False)
    return w_rows.T


def innovations_path(cfg: RapConfig, trace: FamTrace) -> np.ndarray:
    """Innovations paths for an existing trace (stored back on the trace).

    ``W`` comes from the trace's ``I`` paths and targets; the martingale it
    needs is recomputed from ``I``, not read from ``trace.m_paths``."""
    w = innovations_from_arrays(cfg, trace.i_paths, trace.x)
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

    def reduce(x, blocks):
        rhs = np.zeros(x.shape[0])
        term = np.empty(x.shape[0])
        for out in blocks:
            for wk, vol in zip(weights[out.nodes].tolist(), out.vol):
                np.multiply(vol, vol, out=term)
                rhs += np.multiply(term, wk, out=term)
        return (x[:, -1] - x[:, 0]) ** 2, rhs

    return _paired_path_sums(cfg, n_paths, seed, block_size, reduce, with_innovations=False)


def _paired_path_sums(cfg: RapConfig, n_paths: int, seed: int, block_size: int,
                      reduce, **march_options) -> tuple[np.ndarray, np.ndarray]:
    """Two per-path sums for a paired Monte Carlo estimate.

    Path block ``b`` of at most ``block_size`` paths is simulated with
    ``block=b``; ``reduce(x, nodes)`` maps its targets and its :func:`_march`
    (with ``march_options``) to the block's two (paths,) sums.  The march
    reads the ``I`` rows of :func:`arcadeproc.rap._rap_blocks` through
    :func:`arcadeproc.drivers._sampled_ahead`: the sampler fills the slots
    of its ``_RING``-slot ring in a worker thread, at most two blocks ahead,
    while the march filters the blocks before them, so a path block holds
    that ring, the targets and the driver at the dates, never a
    ``(nodes, paths)`` array.
    """
    for name, value in (("n_paths", n_paths), ("block_size", block_size)):
        if not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if n_paths < 2:
        raise ConfigError(f"a paired standard error needs at least 2 paths, got {n_paths}")
    if block_size < 1:
        raise ConfigError(f"block_size must be at least 1, got {block_size}")
    def block_sums(block, start):
        x, blocks = _rap_blocks(cfg, min(block_size, n_paths - start), seed, block)
        with _sampled_ahead(blocks) as i_blocks:
            return reduce(x, _march(cfg, i_blocks, x, **march_options))

    blocks = enumerate(range(0, n_paths, block_size))
    firsts, seconds = zip(*(block_sums(block, start) for block, start in blocks))
    return np.concatenate(firsts), np.concatenate(seconds)


def _paired_mean_se(a: np.ndarray, b: np.ndarray) -> tuple[float, ...]:
    """Mean and standard error of ``a``, ``b`` and the paired ``a - b``."""
    root_n = math.sqrt(a.size)
    return tuple(v for arr in (a, b, a - b)
                 for v in (float(arr.mean()), float(arr.std(ddof=1)) / root_n))
