"""Gauss-Markov drivers: factorized covariance, exact sampling, quadratic variation.

A driver is a Gaussian process whose covariance separates as
``K(s, t) = H1(min(s, t)) * H2(max(s, t))``.  That factorization makes the
process Markov, gives exact date-first sampling (the Markov recursion over
the dates, then each arc's nodes from the exact bridge law between the
previous node and the arc's end date), and yields the quadratic variation
``[D]_t = int H2 dH1 - int H1 dH2``.

Presets cover the three drivers used throughout the package: standard
Brownian motion, the stationary-covariance Ornstein-Uhlenbeck process, and
the time-scaled Brownian motion ``t * B_t``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, call_preset
from .partition import Partition
from .streams import stream_rng

__all__ = [
    "GaussMarkovDriver",
    "PathBundle",
    "brownian_driver",
    "ou_driver",
    "scaled_bm_driver",
    "simulate_driver",
    "driver_quadratic_variation",
    "driver_preset",
]

# Variance at or below which a Gaussian quantity is treated as deterministic;
# arcade, rap and fam import it from here.
_VAR_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# Driver type and presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussMarkovDriver:
    """Mean function plus factorized covariance ``H1(min) * H2(max)``.

    ``dh1``/``dh2``/``dmean`` are optional analytic derivatives; numeric
    central differences are used when they are absent.  ``params`` records
    preset parameters for provenance hashing.
    """

    h1: Callable
    h2: Callable
    mean: Callable
    label: str = "custom"
    dh1: Callable | None = field(default=None, repr=False)
    dh2: Callable | None = field(default=None, repr=False)
    dmean: Callable | None = field(default=None, repr=False)
    params: dict = field(default_factory=dict)

    def variance(self, t):
        return np.asarray(self.h1(t)) * np.asarray(self.h2(t))

    def cov(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return self.h1(np.minimum(s, t)) * self.h2(np.maximum(s, t))

    def _numeric_derivative(self, f: Callable, t):
        t = np.asarray(t, dtype=float)
        h = 1e-6 * np.maximum(1.0, np.abs(t))
        return (f(t + h) - f(t - h)) / (2.0 * h)

    def h1_deriv(self, t):
        return self.dh1(np.asarray(t, float)) if self.dh1 else self._numeric_derivative(self.h1, t)

    def h2_deriv(self, t):
        return self.dh2(np.asarray(t, float)) if self.dh2 else self._numeric_derivative(self.h2, t)

    def mean_deriv(self, t):
        return self.dmean(np.asarray(t, float)) if self.dmean else self._numeric_derivative(self.mean, t)

    def qv_density(self, t):
        """Integrand H1'(t) H2(t) - H1(t) H2'(t) of the quadratic variation."""
        t = np.asarray(t, dtype=float)
        return self.h1_deriv(t) * self.h2(t) - self.h1(t) * self.h2_deriv(t)

    def config_dict(self) -> dict:
        return {"label": self.label, "params": dict(self.params)}


class _ArcCoefficients(NamedTuple):
    """The standard (Markov) coefficients of an arc ``[a, b] = [T_m, T_{m+1}]``
    at ``t``: ``right / den`` for ``T_m`` and ``left / den`` for ``T_{m+1}``."""

    den: np.ndarray       # H1(b) H2(a) - H1(a) H2(b)
    right: np.ndarray     # H1(b) H2(t) - H1(t) H2(b)
    left: np.ndarray      # H1(t) H2(a) - H1(a) H2(t)

    @classmethod
    def of(cls, h1a, h2a, h1b, h2b, h1t, h2t) -> "_ArcCoefficients":
        """From ``H1`` and ``H2`` at ``a``, ``b`` and ``t``, any anchors."""
        return cls(den=h1b * h2a - h1a * h2b, right=h1b * h2t - h1t * h2b,
                   left=h1t * h2a - h1a * h2t)


class _ArcAlgebra(NamedTuple):
    """:class:`_ArcCoefficients` plus ``d_right`` and ``d_left``, the time
    derivatives of the numerators, the quadratic-variation density ``qv`` and
    the driver mean's derivative ``d_mean``."""

    den: np.ndarray
    right: np.ndarray
    left: np.ndarray
    d_right: np.ndarray
    d_left: np.ndarray
    qv: np.ndarray
    d_mean: np.ndarray


def _arc_factors(d: GaussMarkovDriver, dates, arc, t) -> tuple[np.ndarray, ...]:
    """``H1(a), H2(a), H1(b), H2(b), H1(t), H2(t)`` on arc index (or index
    array) ``arc``."""
    dates = np.asarray(dates, dtype=float)
    t = np.asarray(t, dtype=float)
    h1_d, h2_d = np.asarray(d.h1(dates), dtype=float), np.asarray(d.h2(dates), dtype=float)
    return (h1_d[arc], h2_d[arc], h1_d[arc + 1], h2_d[arc + 1],
            np.asarray(d.h1(t), dtype=float), np.asarray(d.h2(t), dtype=float))


def _arc_coefficients(d: GaussMarkovDriver, dates, arc, t) -> _ArcCoefficients:
    """:class:`_ArcCoefficients` at times ``t`` on arc index (or index array)
    ``arc``; evaluates no derivative."""
    return _ArcCoefficients.of(*_arc_factors(d, dates, arc, t))


def _arc_algebra(d: GaussMarkovDriver, dates, arc, t) -> _ArcAlgebra:
    """:class:`_ArcAlgebra` at times ``t`` on arc index (or index array) ``arc``.

    The martingale volatility and the innovations drift take every
    factorization quantity from here, the arcade coefficients the
    :func:`_arc_coefficients` part.
    """
    factors = _arc_factors(d, dates, arc, t)
    h1a, h2a, h1b, h2b, h1t, h2t = factors
    t = np.asarray(t, dtype=float)
    dh1t = np.asarray(d.h1_deriv(t), dtype=float)
    dh2t = np.asarray(d.h2_deriv(t), dtype=float)
    return _ArcAlgebra(
        *_ArcCoefficients.of(*factors),
        d_right=h1b * dh2t - dh1t * h2b,
        d_left=dh1t * h2a - h1a * dh2t,
        qv=dh1t * h2t - h1t * dh2t,
        d_mean=np.asarray(d.mean_deriv(t), dtype=float),
    )


def brownian_driver() -> GaussMarkovDriver:
    """Standard Brownian motion: ``H1 = t``, ``H2 = 1``, zero mean."""
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    ident = lambda t: np.asarray(t, dtype=float)
    return GaussMarkovDriver(
        h1=ident, h2=one, mean=zero, label="brownian",
        dh1=one, dh2=zero, dmean=zero,
    )


def ou_driver(theta: float, sigma: float, mu: float = 0.0,
              d0: float | None = None, t_ref: float = 0.0) -> GaussMarkovDriver:
    """Ornstein-Uhlenbeck driver with the stationary covariance.

    ``K(s, t) = sigma^2/(2 theta) * exp(-theta |t - s|)`` via
    ``H1 = sigma^2/(2 theta) e^{theta t}`` and ``H2 = e^{-theta t}``.  The
    mean relaxes from ``d0`` at ``t_ref`` toward ``mu``; with ``d0`` omitted
    the mean is constant ``mu``.
    """
    if not (0.0 < theta < np.inf and 0.0 < sigma < np.inf):
        raise ConfigError(f"OU driver needs finite theta, sigma > 0, got {theta!r}, {sigma!r}")
    if not np.all(np.isfinite([mu, t_ref, 0.0 if d0 is None else d0])):
        raise ConfigError("OU driver needs finite mu, d0 and t_ref")
    c = sigma * sigma / (2.0 * theta)

    def h1(t):
        return c * np.exp(theta * np.asarray(t, dtype=float))

    def h2(t):
        return np.exp(-theta * np.asarray(t, dtype=float))

    def dh1(t):
        return c * theta * np.exp(theta * np.asarray(t, dtype=float))

    def dh2(t):
        return -theta * np.exp(-theta * np.asarray(t, dtype=float))

    if d0 is None:
        mean = lambda t: mu * np.ones_like(np.asarray(t, dtype=float))
        dmean = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    else:
        def mean(t):
            return mu + (d0 - mu) * np.exp(-theta * (np.asarray(t, dtype=float) - t_ref))

        def dmean(t):
            return -theta * (d0 - mu) * np.exp(-theta * (np.asarray(t, dtype=float) - t_ref))

    return GaussMarkovDriver(
        h1=h1, h2=h2, mean=mean, label="ou",
        dh1=dh1, dh2=dh2, dmean=dmean,
        params={"theta": theta, "sigma": sigma, "mu": mu, "d0": d0, "t_ref": t_ref},
    )


def scaled_bm_driver() -> GaussMarkovDriver:
    """The process ``t * B_t``: ``H1 = t^2``, ``H2 = t``, zero mean."""
    sq = lambda t: np.asarray(t, dtype=float) ** 2
    ident = lambda t: np.asarray(t, dtype=float)
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return GaussMarkovDriver(
        h1=sq, h2=ident, mean=zero, label="scaled_bm",
        dh1=lambda t: 2.0 * np.asarray(t, dtype=float),
        dh2=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        dmean=zero,
    )


_PRESETS = {
    "brownian": brownian_driver,
    "ou": ou_driver,
    "scaled_bm": scaled_bm_driver,
}


def driver_preset(name: str, **params) -> GaussMarkovDriver:
    return call_preset("driver", _PRESETS, name, params)


# ---------------------------------------------------------------------------
# PathBundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathBundle:
    """Monte Carlo ensemble on a grid: one row per path, one column per node.

    ``simulate_driver``, ``build_ap_paths`` and ``build_rap_paths`` store the
    node rows of the date-first sampler (:func:`_driver_blocks`) time-major:
    their ``values`` is the ``(paths, nodes)`` transposed view of a
    C-contiguous ``(nodes, paths)`` buffer with one row per grid node.
    """

    grid: np.ndarray
    values: np.ndarray
    seed: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != grid.size:
            raise ConfigError("values must be (paths, nodes) matching the grid")
        # np.isfinite over row blocks of about 2^17 values along the
        # memory-major axis: one pass, without a full-size mask
        rows = vals.T if vals.flags.f_contiguous else vals
        step = max(1, (1 << 17) // max(rows.shape[1], 1))
        if not all(np.isfinite(rows[s:s + step]).all() for s in range(0, rows.shape[0], step)):
            raise ConfigError("path values contain NaN/Inf")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path) -> None:
        """Write ``t,path_0,...`` rows to ``path`` using shortest round-trip decimals."""
        with open(path, "w", encoding="utf-8") as fh:
            header = "t," + ",".join(f"path_{i}" for i in range(self.n_paths))
            fh.write(header + "\n")
            for t, row in zip(self.grid.tolist(), self.values.T.tolist()):
                fh.write(repr(t) + "," + ",".join(map(repr, row)) + "\n")


def config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _sampling_law(d: GaussMarkovDriver, p: Partition):
    """Per grid node ``k``, the arrays ``(sd, near, far, const)`` of the exact
    law ``D_k = sd * eps + near * D_s + far * D_b + const``; rejects a
    driver whose factorization is not a valid covariance on the grid.

    A date takes the Markov step from the previous date ``s`` (the marginal
    at ``T_0``, ``far = 0``).  An interior node of arc ``m`` is conditioned
    on ``s = t_{k-1}`` and ``b = T_{m+1}``: by Doob's representation a
    Brownian bridge in ``H1/H2`` time, with slopes ``right/den``,
    ``left/den`` and variance ``right * left / den`` of
    :class:`_ArcCoefficients` on ``(s, b)``.  A ``D_s`` without variance
    enters as ``H1(s) = 0``, ``H2(s) = 1``, which conditions on ``b`` alone.
    ``den`` is ``Var[D_b | D_s] H2(s)/H2(b)``; where it is 0 up to the
    rounding of its two products, ``D_b`` is fixed by ``D_s`` and the node
    takes the Markov step from ``s``, as a date does.
    """
    g, steps = p.grid, p.steps_per_arc
    h1, h2 = np.asarray(d.h1(g), dtype=float), np.asarray(d.h2(g), dtype=float)
    mean, var = np.asarray(d.mean(g), dtype=float), h1 * h2
    # H2 may vanish at an isolated degenerate start (e.g. t*B_t at 0)
    if np.any(h2[1:] <= 0.0):
        raise ConfigError("driver H2 must be positive on the grid")
    if np.any(var < -1e-12):
        raise ConfigError("driver variance is negative on the grid")
    k = np.arange(g.size)
    at_date = k % steps == 0
    # interior nodes must carry signal: Var + mean^2 > 0
    if np.any(var[~at_date] + mean[~at_date] ** 2 <= 0.0):
        raise ConfigError("driver is degenerate at an interior grid node")
    # one-step conditional variances must be non-negative (PSD surrogate)
    active = var[:-1] > _VAR_FLOOR
    step_cov = np.where(active, h1[:-1] * h2[1:], 0.0)
    if np.any(var[1:] - step_cov / np.where(active, var[:-1], 1.0) * step_cov
              < -1e-10 * max(1.0, float(np.max(var)))):
        raise ConfigError("driver covariance is not PSD on the grid")

    s = np.maximum(k - np.where(at_date, steps, 1), 0)
    b = np.minimum(k - k % steps + steps, g.size - 1)
    live = (k > 0) & (var[s] > _VAR_FLOOR)
    h1_s, h2_s = np.where(live, h1[s], 0.0), np.where(live, h2[s], 1.0)
    c = _ArcCoefficients.of(h1_s, h2_s, h1[b], h2[b], h1, h2)
    bridge = ~at_date & (c.den > 1e-12 * h1[b] * h2_s)
    kst, den = h1_s * h2, np.where(bridge, c.den, 1.0)
    near = np.where(bridge, c.right / den, kst / np.where(live, var[s], 1.0))
    far = np.where(bridge, c.left / den, 0.0)
    cond = np.where(bridge, c.right * c.left / den, var - near * kst)
    return np.sqrt(np.maximum(cond, 0.0)), near, far, mean - near * mean[s] - far * mean[b]


# Values per block of node rows that the path generators pass on at once: a
# block has at most 64 nodes, and one node from 2^14 paths on.
_BLOCK_VALUES = 1 << 14


def _block_nodes(n_paths: int) -> int:
    """Nodes per block of ``n_paths``-wide rows."""
    return max(1, min(64, _BLOCK_VALUES // n_paths))


def _node_blocks(p: Partition, n_paths: int) -> Iterator[slice]:
    """The grid-node slices of the blocks the path generators pass on, in
    grid order: each date alone, and between two dates at most
    :func:`_block_nodes` interior nodes of the arc at a time."""
    steps, size = p.steps_per_arc, _block_nodes(n_paths)
    for arc in range(p.n_arcs):
        yield slice(arc * steps, arc * steps + 1)
        for start in range(arc * steps + 1, (arc + 1) * steps, size):
            yield slice(start, min(start + size, (arc + 1) * steps))
    yield slice(p.n_arcs * steps, p.n_arcs * steps + 1)


def _driver_blocks(d: GaussMarkovDriver, p: Partition, n_paths: int, seed: int,
                   block: int = 0, ring: int = 2,
                   tmp: np.ndarray | None = None) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Date-first exact sampling of the driver: its values at the dates,
    shape (n+1, paths), and an iterator over the blocks of
    :func:`_node_blocks`, (nodes, paths) arrays of consecutive grid-node
    rows.  Block ``k`` is written into slot ``k % ring`` of a ring of
    ``ring`` block buffers, so it is valid until block ``k + ring`` is
    requested.  The sampler reads back no row it has yielded (it keeps a
    copy of its last interior row), so a consumer may overwrite a block in
    place, as :func:`arcadeproc.arcade._assembled_blocks` does.  ``tmp`` is
    a (:func:`_block_nodes`, paths) scratch buffer, allocated when omitted;
    the sampler uses it only while it forms a block.

    Stream ``"D"`` of ``block`` is consumed as ``n+1`` date rows, then one
    row per interior node in grid order, each ``n_paths`` wide.  Each row
    follows its :func:`_sampling_law`, computed as
    ``((sd * eps + far * D_b) + const) + near * D_s``; all but the last term
    are formed for a whole block, and a zero-mean driver skips the constant
    there.
    """
    if n_paths < 1:
        raise ConfigError("n_paths must be positive")
    sd, near, far, const = _sampling_law(d, p)
    with_const = bool(np.any(const))
    steps, size = p.steps_per_arc, _block_nodes(n_paths)
    rng = stream_rng(seed, "D", block)
    at_dates = rng.standard_normal((p.n_arcs + 1, n_paths))
    if tmp is None:
        tmp = np.empty((size, n_paths))
    for j, row in enumerate(at_dates):
        np.multiply(row, sd[j * steps], out=row)
        np.add(row, const[j * steps], out=row)
        if j:
            np.add(row, np.multiply(at_dates[j - 1], near[j * steps], out=tmp[0]), out=row)

    def blocks():
        slots = np.empty((ring, size, n_paths))
        last = np.empty(n_paths)
        for count, nodes in enumerate(_node_blocks(p, n_paths)):
            arc, offset = divmod(nodes.start, steps)
            chunk = slots[count % ring, :nodes.stop - nodes.start]
            if offset == 0:
                np.copyto(chunk, at_dates[arc:arc + 1])
                yield chunk
                prev = at_dates[arc]
                continue
            rng.standard_normal(out=chunk)
            np.multiply(chunk, sd[nodes, None], out=chunk)
            np.add(chunk, np.multiply(far[nodes, None], at_dates[arc + 1],
                                      out=tmp[:len(chunk)]), out=chunk)
            if with_const:
                np.add(chunk, const[nodes, None], out=chunk)
            for row, c in zip(chunk, near[nodes].tolist()):
                np.add(row, np.multiply(prev, c, out=tmp[0]), out=row)
                prev = row
            np.copyto(last, prev)
            prev = last
            yield chunk

    return at_dates, blocks()


def _stack_blocks(blocks, shape: tuple[int, int]) -> np.ndarray:
    """Copy consecutive blocks of node rows into one (nodes, paths) buffer."""
    out = np.empty(shape)
    start = 0
    for rows in blocks:
        out[start:start + len(rows)] = rows
        start += len(rows)
    return out


def simulate_driver(d: GaussMarkovDriver, p: Partition, n_paths: int, seed: int,
                    block: int = 0) -> PathBundle:
    """Exact-law sampling of the driver on the partition grid: the stored
    rows of the date-first sampler :func:`_driver_blocks`.  Zero-variance
    nodes (e.g. Brownian motion at the origin) are their deterministic mean.
    """
    g = p.grid
    _, blocks = _driver_blocks(d, p, n_paths, seed, block)
    vals = _stack_blocks(blocks, (g.size, n_paths))
    meta = {
        "kind": "driver",
        "driver": d.config_dict(),
        "partition": p.config_dict(),
        "block": block,
    }
    meta["config_hash"] = config_hash(meta)
    return PathBundle(grid=g, values=vals.T, seed=seed, meta=meta)


def _cholesky_draw(cov: np.ndarray, active: np.ndarray, jitter: float,
                   rng: np.random.Generator, n_paths: int) -> np.ndarray:
    """``n_paths`` rows of ``N(0, cov)`` by dense Cholesky: the ``active``
    block of ``cov``, its diagonal raised by ``jitter``, is factored, and the
    other nodes are 0."""
    idx = np.flatnonzero(active)
    chol = np.zeros(cov.shape)
    if idx.size:
        chol[np.ix_(idx, idx)] = np.linalg.cholesky(cov[np.ix_(idx, idx)]
                                                    + jitter * np.eye(idx.size))
    return rng.standard_normal((n_paths, cov.shape[0])) @ chol.T


def simulate_driver_cholesky(d: GaussMarkovDriver, p: Partition, n_paths: int,
                             seed: int, jitter: float = 1e-12) -> PathBundle:
    """Reference sampler: dense Cholesky of the grid covariance matrix.

    Used as the independent cross-check of the sequential sampler; the
    diagonal gets a ``jitter`` bump before factorization to absorb roundoff
    on nearly singular covariances.
    """
    g = p.grid
    # degenerate leading nodes make the matrix singular; factor the active block
    vals = np.asarray(d.mean(g))[None, :] + _cholesky_draw(
        d.cov(g[:, None], g[None, :]), np.asarray(d.variance(g)) > _VAR_FLOOR, jitter,
        stream_rng(seed, "D"), n_paths)
    meta = {"kind": "driver_cholesky", "driver": d.config_dict(),
            "partition": p.config_dict()}
    meta["config_hash"] = config_hash(meta)
    return PathBundle(grid=g, values=vals, seed=seed, meta=meta)


def driver_quadratic_variation(d: GaussMarkovDriver, p: Partition, t: float) -> float:
    """Composite-trapezoid value of ``int_{T_0}^t (H1' H2 - H1 H2') ds``."""
    p.check_domain(t)
    g = p.grid
    k = int(np.searchsorted(g, t, side="right"))
    nodes = g[:k]
    if nodes.size == 0 or nodes[-1] < t - 1e-15:
        nodes = np.append(nodes, t)
    if nodes.size < 2:
        return 0.0
    dens = np.asarray(d.qv_density(nodes), dtype=float)
    return float(np.trapezoid(dens, nodes))
