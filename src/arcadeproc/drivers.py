"""Gauss-Markov drivers: factorized covariance, exact sampling, quadratic variation.

A driver is a Gaussian process whose covariance separates as
``K(s, t) = H1(min(s, t)) * H2(max(s, t))``.  That factorization makes the
process Markov, gives exact sequential sampling through the one-step
conditional law, and yields the quadratic variation
``[D]_t = int H2 dH1 - int H1 dH2``.

Presets cover the three drivers used throughout the package: standard
Brownian motion, the stationary-covariance Ornstein-Uhlenbeck process, and
the time-scaled Brownian motion ``t * B_t``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .partition import Partition
from .streams import stream_rng

__all__ = [
    "GaussMarkovDriver",
    "PathBundle",
    "brownian_driver",
    "ou_driver",
    "scaled_bm_driver",
    "driver_covariance",
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
    if theta <= 0 or sigma <= 0:
        raise ConfigError("OU driver needs theta > 0 and sigma > 0")
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
    "brownian": lambda **kw: brownian_driver(),
    "ou": lambda **kw: ou_driver(**kw),
    "scaled_bm": lambda **kw: scaled_bm_driver(),
}


def driver_preset(name: str, **params) -> GaussMarkovDriver:
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown driver preset {name!r}") from None
    return factory(**params)


# ---------------------------------------------------------------------------
# PathBundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathBundle:
    """Monte Carlo ensemble on a grid: one row per path, one column per node.

    ``simulate_driver``, ``build_ap_paths`` and ``build_rap_paths`` store
    paths time-major: their ``values`` is the ``(paths, nodes)`` transposed
    view of a C-contiguous ``(nodes, paths)`` buffer, so a forward march over
    the nodes reads and writes one contiguous row per node.
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
        if not np.all(np.isfinite(vals)):
            raise ConfigError("path values contain NaN/Inf")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def to_csv(self, target) -> None:
        """Write ``t,path_0,...`` rows using shortest round-trip decimals."""
        import os

        close = False
        if isinstance(target, (str, bytes, os.PathLike)):
            fh = open(target, "w", encoding="utf-8")
            close = True
        else:
            fh = target
        try:
            header = "t," + ",".join(f"path_{i}" for i in range(self.n_paths))
            fh.write(header + "\n")
            for k, t in enumerate(self.grid):
                row = [repr(float(t))] + [repr(float(v)) for v in self.values[:, k]]
                fh.write(",".join(row) + "\n")
        finally:
            if close:
                fh.close()

    def csv_bytes(self) -> bytes:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue().encode("utf-8")


def config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def driver_covariance(d: GaussMarkovDriver, s, t, domain: tuple[float, float] | None = None):
    """Covariance ``H1(min(s,t)) * H2(max(s,t))`` with optional domain check."""
    if domain is not None:
        lo, hi = domain
        ss, tt = np.asarray(s, float), np.asarray(t, float)
        if np.any(ss < lo) or np.any(ss > hi) or np.any(tt < lo) or np.any(tt > hi):
            raise DomainError(f"covariance arguments outside [{lo}, {hi}]")
    out = d.cov(s, t)
    return float(out) if np.isscalar(s) and np.isscalar(t) else out


def check_driver_on_grid(d: GaussMarkovDriver, p: Partition) -> None:
    """Reject drivers whose factorization is not a valid covariance on the grid."""
    g = p.grid
    h2 = np.asarray(d.h2(g), dtype=float)
    if np.any(h2 <= 0.0):
        # H2 may vanish at an isolated degenerate start (e.g. t*B_t at 0)
        if np.any(h2[1:] <= 0.0):
            raise ConfigError("driver H2 must be positive on the grid")
    var = np.asarray(d.variance(g), dtype=float)
    if np.any(var < -1e-12):
        raise ConfigError("driver variance is negative on the grid")
    # interior nodes must carry signal: Var + mean^2 > 0
    mean = np.asarray(d.mean(g), dtype=float)
    interior = np.ones(g.size, dtype=bool)
    interior[p.date_indices] = False
    if np.any(var[interior] + mean[interior] ** 2 <= 0.0):
        raise ConfigError("driver is degenerate at an interior grid node")
    # one-step conditional variances must be non-negative (PSD surrogate)
    v0, v1 = var[:-1], var[1:]
    k01 = d.cov(g[:-1], g[1:])
    ok = v0 <= _VAR_FLOOR
    cond = np.where(ok, v1, v1 - np.where(ok, 0.0, k01 ** 2) / np.where(ok, 1.0, np.maximum(v0, _VAR_FLOOR)))
    if np.any(cond < -1e-10 * max(1.0, float(np.max(var)))):
        raise ConfigError("driver covariance is not PSD on the grid")


def simulate_driver(d: GaussMarkovDriver, p: Partition, n_paths: int, seed: int,
                    block: int = 0) -> PathBundle:
    """Exact-law sequential sampling of the driver on the partition grid.

    Each step draws from the Markov conditional
    ``N(mu(t) + K(s,t)/K(s,s) (D_s - mu(s)), K(t,t) - K(s,t)^2/K(s,s))``.
    Zero-variance nodes (e.g. Brownian motion at the origin) are set to their
    deterministic mean and the recursion restarts from them.
    """
    if n_paths < 1:
        raise ConfigError("n_paths must be positive")
    check_driver_on_grid(d, p)
    g = p.grid
    mean = np.asarray(d.mean(g), dtype=float)
    var = np.asarray(d.variance(g), dtype=float)
    rng = stream_rng(seed, "D", block)
    # The normals are drawn in path order, so a path does not depend on the
    # storage layout; their time-major copy is overwritten node by node.
    vals = rng.standard_normal((n_paths, g.size)).T.copy()
    v0 = max(var[0], 0.0)
    vals[0] = mean[0] + (math.sqrt(v0) * vals[0] if v0 > _VAR_FLOOR else 0.0)
    for k in range(1, g.size):
        vp, vc = var[k - 1], var[k]
        if vp > _VAR_FLOOR:
            kst = float(d.cov(g[k - 1], g[k]))
            a = kst / vp
            cv = max(vc - a * kst, 0.0)
            vals[k] = mean[k] + a * (vals[k - 1] - mean[k - 1]) + math.sqrt(cv) * vals[k]
        else:
            cv = max(vc, 0.0)
            vals[k] = mean[k] + (math.sqrt(cv) * vals[k] if cv > _VAR_FLOOR else 0.0)

    meta = {
        "kind": "driver",
        "driver": d.config_dict(),
        "partition": p.config_dict(),
        "block": block,
    }
    meta["config_hash"] = config_hash(meta)
    return PathBundle(grid=g, values=vals.T, seed=seed, meta=meta)


def simulate_driver_cholesky(d: GaussMarkovDriver, p: Partition, n_paths: int,
                             seed: int, jitter: float = 1e-12) -> PathBundle:
    """Reference sampler: dense Cholesky of the grid covariance matrix.

    Used as the independent cross-check of the sequential sampler; the
    diagonal gets a ``jitter`` bump before factorization to absorb roundoff
    on nearly singular covariances.
    """
    g = p.grid
    cov = d.cov(g[:, None], g[None, :])
    cov = cov + jitter * np.eye(g.size)
    # degenerate leading nodes make the matrix singular; factor the active block
    active = np.asarray(d.variance(g)) > _VAR_FLOOR
    chol = np.zeros((g.size, g.size))
    idx = np.where(active)[0]
    if idx.size:
        sub = cov[np.ix_(idx, idx)]
        chol[np.ix_(idx, idx)] = np.linalg.cholesky(sub)
    rng = stream_rng(seed, "D")
    z = rng.standard_normal((n_paths, g.size))
    vals = np.asarray(d.mean(g))[None, :] + z @ chol.T
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
