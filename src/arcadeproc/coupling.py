"""Target random vectors: marginals, couplings, convex order, sampling.

A coupling is modelled as a Markov chain in the targets: an initial marginal
for ``X_0`` plus one conditional step kernel per arc.  A step kernel's
conditional law given the current value is atoms (``atoms_given``) or a
Gaussian (``gaussian_given``), and the filters, the sampler, the probe walk
that verifies martingale flags (never trusted), the pushforward and the
suffix enumeration all read it there.

Sampling draws from the dedicated "X" stream so target draws are independent
of driver noise by construction; :mod:`arcadeproc.streams` gives the layout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, call_preset, check_keys
from .streams import stream_rng

__all__ = [
    "DiscreteMarginal",
    "UniformMarginal",
    "GaussianMarginal",
    "DegenerateMarginal",
    "DiscreteRowKernel",
    "AffineBranchKernel",
    "GaussianStepKernel",
    "DeterministicAffineKernel",
    "IndependentStepKernel",
    "CouplingKernel",
    "check_convex_order",
    "convex_order_report",
    "sample_coupling",
    "builtin_kernels",
    "kernel_from_json",
    "comonotone_kernel",
    "gaussian_marginal",
    "uniform_marginal",
]

_W_TOL = 1e-12
_MG_TOL = 1e-9              # martingale residual a verified flag allows
_MERGE_TOL = 1e-12          # relative gap below which pushforward atoms merge


@functools.cache
def _special():
    """``scipy.special``, imported on first use.

    Only Gaussian quantiles, the Gaussian cdf and the IBMOT objective call
    its ``ndtr``/``ndtri``.  Importing it about doubles the package's import
    time, so arcade, FAM and convex-order runs never load it.  The cache
    makes a later call cost about what a global lookup does: the solver
    calls it a few dozen times per solve.
    """
    from scipy import special
    return special


# ---------------------------------------------------------------------------
# Marginals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteMarginal:
    """Finitely supported law: strictly increasing values, positive weights."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if v.ndim != 1 or v.shape != w.shape or v.size == 0:
            raise ConfigError("values and weights must be matching 1-d arrays")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(w))):
            raise ConfigError("atom values and weights must be finite")
        if np.any(np.diff(v) <= 0):
            raise ConfigError("atom values must be strictly increasing")
        if np.any(w <= 0):
            raise ConfigError("atom weights must be positive")
        if abs(w.sum() - 1.0) > _W_TOL:
            raise ConfigError(f"weights sum to {w.sum()!r}, not 1")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]]) -> "DiscreteMarginal":
        """The law of ``[value, weight]`` pairs in any order; ``ConfigError`` for another shape."""
        arr = np.asarray(pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ConfigError(f"a discrete law needs [value, weight] pairs, got shape {arr.shape}")
        order = np.argsort(arr[:, 0])
        return cls(arr[order, 0], arr[order, 1])

    def mean(self) -> float:
        return float(self.values @ self.weights)

    def second_moment(self) -> float:
        return float((self.values ** 2) @ self.weights)

    def variance(self) -> float:
        return self.second_moment() - self.mean() ** 2

    def call_value(self, k: float) -> float:
        """Integrated call function ``E[(X - k)^+]``."""
        return float(_call_values(self, np.asarray([k], dtype=float))[0])

    def cdf(self, x) -> np.ndarray:
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        idx = np.searchsorted(self.values, np.asarray(x, dtype=float), side="right")
        return cum[idx]

    def quantile(self, q) -> np.ndarray:
        """Right-continuous quantile (generalized inverse of the CDF)."""
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(cum, np.asarray(q, dtype=float), side="left")
        idx = np.clip(idx, 0, self.values.size - 1)
        return self.values[idx]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self.values, size=n, p=self.weights)

    def config_dict(self) -> dict:
        return {"atoms": [[float(v), float(w)] for v, w in zip(self.values, self.weights)]}


@dataclass(frozen=True)
class UniformMarginal:
    """U[lo, hi]; a quantile, cdf or sample raises ``ConfigError`` unless lo < hi are finite."""

    lo: float
    hi: float

    def _bounds(self) -> tuple[float, float]:
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ConfigError(f"uniform bounds must be finite with lo < hi, got {self!r}")
        return self.lo, self.hi

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def variance(self) -> float:
        return (self.hi - self.lo) ** 2 / 12.0

    def second_moment(self) -> float:
        return self.variance() + self.mean() ** 2

    def quantile(self, q):
        lo, hi = self._bounds()
        return lo + (hi - lo) * np.asarray(q, dtype=float)

    def cdf(self, x):
        lo, hi = self._bounds()
        return np.clip((np.asarray(x, float) - lo) / (hi - lo), 0.0, 1.0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(*self._bounds(), size=n)

    def discretize(self, m: int, method: str = "cell_mean") -> DiscreteMarginal:
        # for the uniform law cell means coincide with mid-quantile atoms
        if method not in ("cell_mean", "midpoint"):
            raise ConfigError(f"unknown discretization method {method!r}")
        q = (np.arange(m) + 0.5) / m
        return DiscreteMarginal(self.quantile(q), np.full(m, 1.0 / m))

    def config_dict(self) -> dict:
        return {"dist": "uniform", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class GaussianMarginal:
    mu: float
    var: float

    def __post_init__(self):
        if not 0.0 <= self.var < math.inf:
            raise ConfigError(f"var must be a finite variance >= 0, got {self.var!r}")

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.var

    def second_moment(self) -> float:
        return self.var + self.mu ** 2

    def quantile(self, q):
        return self.mu + math.sqrt(self.var) * _special().ndtri(np.asarray(q, dtype=float))

    def cdf(self, x):
        return _special().ndtr((np.asarray(x, float) - self.mu) / math.sqrt(self.var))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.mu + math.sqrt(self.var) * rng.standard_normal(n)

    def discretize(self, m: int, method: str = "cell_mean") -> DiscreteMarginal:
        """Equal-weight m-point discretization.

        ``cell_mean`` places each atom at the conditional mean of its
        probability cell, which preserves the mean exactly and keeps second
        moments much closer to the continuous law than mid-quantile atoms;
        ``midpoint`` uses the (k - 1/2)/m quantiles.
        """
        if m < 1:
            raise ConfigError("need at least one atom")
        if method == "midpoint":
            z = _special().ndtri((np.arange(m) + 0.5) / m)
        elif method == "cell_mean":                 # the pdf at the cell edges, 0 at +-inf
            phi = np.exp(-0.5 * _special().ndtri(np.arange(m + 1) / m) ** 2)
            phi /= math.sqrt(2 * math.pi)
            z = m * (phi[:-1] - phi[1:])
        else:
            raise ConfigError(f"unknown discretization method {method!r}")
        return DiscreteMarginal(self.mu + math.sqrt(self.var) * z, np.full(m, 1.0 / m))

    def config_dict(self) -> dict:
        return {"dist": "normal", "mean": self.mu, "var": self.var}


@dataclass(frozen=True)
class DegenerateMarginal:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConfigError(f"point-mass value must be finite, got {self.value!r}")

    def mean(self) -> float:
        return self.value

    def variance(self) -> float:
        return 0.0

    def second_moment(self) -> float:
        return self.value ** 2

    def quantile(self, q):
        return np.full_like(np.asarray(q, dtype=float), self.value)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, self.value)

    def discretize(self, m: int, method: str = "cell_mean") -> DiscreteMarginal:
        return DiscreteMarginal(np.asarray([self.value]), np.asarray([1.0]))

    def config_dict(self) -> dict:
        return {"dist": "degenerate", "value": self.value}


def uniform_marginal(lo: float, hi: float, m: int) -> DiscreteMarginal:
    """Equal-weight quantile discretization of U[lo, hi]."""
    return UniformMarginal(lo, hi).discretize(m)


def gaussian_marginal(mu: float, var: float, m: int, method: str = "cell_mean") -> DiscreteMarginal:
    """Equal-weight m-point discretization of N(mu, var) (:meth:`GaussianMarginal.discretize`)."""
    return GaussianMarginal(mu, var).discretize(m, method)


# ---------------------------------------------------------------------------
# Step kernels
# ---------------------------------------------------------------------------

class StepKernel:
    """Conditional law of the next target given the current one."""

    conditional_kind = "atoms"  # or "gaussian"

    def sample(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One draw from :meth:`atoms_given` per entry of ``x``: one uniform each, which
        picks the first atom whose normalized cumulative weight exceeds it, as
        ``Generator.choice(p=...)`` does.  Gaussian and deterministic kernels override it."""
        values, probs = self.atoms_given(np.asarray(x, dtype=float))
        cum = np.cumsum(probs, axis=-1)
        cum /= cum[..., -1:]
        u = rng.random(cum.shape[:-1])
        pick = np.count_nonzero(cum <= u[..., None], axis=-1)
        return np.take_along_axis(values, pick[..., None], axis=-1)[..., 0]

    def atoms_given(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (values, probs) with shape (len(x), n_atoms)."""
        raise NotImplementedError

    def gaussian_given(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        raise NotImplementedError

    def mean_given(self, x: np.ndarray) -> np.ndarray:
        if self.conditional_kind == "atoms":
            v, w = self.atoms_given(np.asarray(x, dtype=float))
            return np.sum(v * w, axis=-1)
        mean, _ = self.gaussian_given(np.asarray(x, dtype=float))
        return mean

    def martingale_residual(self, probe: np.ndarray) -> float:
        probe = np.asarray(probe, dtype=float)
        return float(np.max(np.abs(self.mean_given(probe) - probe)))

    def config_dict(self) -> dict:  # pragma: no cover - overridden
        return {"kind": type(self).__name__}


def _nearest(values: np.ndarray, x, tol: float, message: str) -> np.ndarray:
    """Index of the entry of the increasing ``values`` nearest to each ``x``;
    ``ConfigError(message)`` if one is farther than ``tol``."""
    idx = np.clip(np.searchsorted(values, x), 0, values.size - 1)
    left = np.clip(idx - 1, 0, values.size - 1)
    idx = np.where(np.abs(values[left] - x) < np.abs(values[idx] - x), left, idx)
    if np.max(np.abs(values[idx] - x)) > tol:
        raise ConfigError(message)
    return idx


@dataclass(frozen=True)
class DiscreteRowKernel(StepKernel):
    """Row-stochastic matrix over fixed current/next atom grids."""

    x_values: np.ndarray
    y_values: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_values, dtype=float)
        y = np.asarray(self.y_values, dtype=float)
        g = np.asarray(self.gamma, dtype=float)
        if g.shape != (x.size, y.size):
            raise ConfigError("gamma shape must be (len(x), len(y))")
        if not all(np.all(np.isfinite(v)) for v in (x, y, g)):
            raise ConfigError("kernel atoms and gamma must be finite")
        if np.any(np.diff(x) <= 0):
            raise ConfigError("kernel x_values must be strictly increasing")
        if np.any(g < -1e-15):
            raise ConfigError("gamma has negative entries")
        rows = g.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > _W_TOL:
            raise ConfigError("gamma rows must sum to 1")
        object.__setattr__(self, "x_values", x)
        object.__setattr__(self, "y_values", y)
        object.__setattr__(self, "gamma", np.clip(g, 0.0, None))

    def _row_index(self, x: np.ndarray) -> np.ndarray:
        return _nearest(self.x_values, x, 1e-9 * max(1.0, float(np.max(np.abs(self.x_values)))),
                        "conditioning value is not an atom of the kernel")

    def atoms_given(self, x):
        x = np.asarray(x, dtype=float)
        rows = self.gamma[self._row_index(x)]
        vals = np.broadcast_to(self.y_values, rows.shape)
        return vals, rows

    def config_dict(self):
        return {"kind": "discrete_kernel",
                "x_values": self.x_values.tolist(),
                "y_values": self.y_values.tolist(),
                "gamma": self.gamma.tolist()}


@dataclass(frozen=True)
class AffineBranchKernel(StepKernel):
    """Next value is ``a_b x + c_b`` with probability ``p_b`` per branch."""

    branches: tuple[tuple[float, float, float], ...]  # (slope, intercept, prob)

    def __post_init__(self):
        br = tuple((float(a), float(c), float(p)) for a, c, p in self.branches)
        if not all(math.isfinite(v) for branch in br for v in branch):
            raise ConfigError(f"branch slopes, intercepts and probabilities must be finite: {br}")
        total = sum(p for _, _, p in br)
        if abs(total - 1.0) > _W_TOL:
            raise ConfigError("branch probabilities must sum to 1")
        if any(p <= 0 for _, _, p in br):
            raise ConfigError("branch probabilities must be positive")
        object.__setattr__(self, "branches", br)

    def atoms_given(self, x):
        x = np.asarray(x, dtype=float)
        vals = np.stack([a * x + c for a, c, _ in self.branches], axis=-1)
        probs = np.broadcast_to(
            np.asarray([p for _, _, p in self.branches]), vals.shape
        )
        return vals, probs

    def config_dict(self):
        return {"kind": "affine_branch", "branches": [list(b) for b in self.branches]}


@dataclass(frozen=True)
class GaussianStepKernel(StepKernel):
    """``X' | X = x ~ N(slope * x + intercept, var)``."""

    var: float
    slope: float = 1.0
    intercept: float = 0.0
    conditional_kind = "gaussian"

    def __post_init__(self):
        if not 0.0 < self.var < math.inf:
            raise ConfigError(f"Gaussian step needs a finite positive variance, got {self.var!r}")

    def sample(self, x, rng):
        x = np.asarray(x, dtype=float)
        return self.slope * x + self.intercept + math.sqrt(self.var) * rng.standard_normal(x.size)

    def gaussian_given(self, x):
        x = np.asarray(x, dtype=float)
        return self.slope * x + self.intercept, float(self.var)

    def config_dict(self):
        return {"kind": "gaussian_step", "var": self.var,
                "slope": self.slope, "intercept": self.intercept}


@dataclass(frozen=True)
class DeterministicAffineKernel(StepKernel):
    """Deterministic map ``X' = a X + c`` (antithetic: a=-1; comonotone dilation: a>1)."""

    slope: float
    intercept: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise ConfigError(f"affine slope and intercept must be finite, got {self!r}")

    def sample(self, x, rng):
        return self.slope * np.asarray(x, dtype=float) + self.intercept

    def atoms_given(self, x):
        x = np.asarray(x, dtype=float)
        return (self.slope * x + self.intercept)[..., None], np.ones(x.shape + (1,))

    def config_dict(self):
        return {"kind": "deterministic_affine", "slope": self.slope, "intercept": self.intercept}


@dataclass(frozen=True)
class IndependentStepKernel(StepKernel):
    """Next target is drawn from a fixed discrete law, independent of the past."""

    marginal: DiscreteMarginal

    def atoms_given(self, x):
        x = np.asarray(x, dtype=float)
        shape = x.shape + (self.marginal.values.size,)
        return (np.broadcast_to(self.marginal.values, shape),
                np.broadcast_to(self.marginal.weights, shape))

    def config_dict(self):
        return {"kind": "product", "marginal": self.marginal.config_dict()}


# ---------------------------------------------------------------------------
# Chain-level coupling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingKernel:
    """Joint law of ``(X_0, ..., X_n)`` as initial marginal plus step kernels."""

    initial: object
    steps: tuple[StepKernel, ...]
    name: str = "custom"
    martingale: bool = field(init=False)        # verified, never passed in

    def __post_init__(self):
        if not self.steps:
            raise ConfigError("a coupling needs at least one step kernel")
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "martingale", self.verify_martingale())

    @property
    def n_targets(self) -> int:
        return len(self.steps) + 1

    def verify_martingale(self) -> bool:
        """Check ``E[X_{k+1} | X_k = x] = x`` to ``_MG_TOL`` on probe values,
        step by step: the atoms of a discrete ``X_0`` (else 41 of its
        quantiles), then the atoms each atom-valued step reaches from them;
        a Gaussian step keeps the probes."""
        if isinstance(self.initial, DiscreteMarginal):
            probe = self.initial.values
        else:
            probe = np.asarray(self.initial.quantile(np.linspace(0.005, 0.995, 41)), dtype=float)
        for step in self.steps:
            try:
                if step.martingale_residual(probe) > _MG_TOL:
                    return False
                if step.conditional_kind == "atoms":
                    probe = np.unique(step.atoms_given(probe)[0])
            except ConfigError:
                return False
        return True

    def sample(self, n_samples: int, seed: int, block: int = 0) -> np.ndarray:
        """``n_samples`` draws of ``(X_0, ..., X_n)`` from stream "X" of ``block``."""
        rng = stream_rng(seed, "X", block)
        out = np.empty((n_samples, self.n_targets))
        out[:, 0] = self.initial.sample(n_samples, rng)
        for k, step in enumerate(self.steps):
            out[:, k + 1] = step.sample(out[:, k], rng)
        return out

    def pushforward(self, k: int) -> DiscreteMarginal:
        """Marginal of ``X_k`` for fully discrete chains."""
        if not isinstance(self.initial, DiscreteMarginal):
            raise ConfigError("pushforward needs a discrete initial marginal")
        values = self.initial.values.copy()
        weights = self.initial.weights.copy()
        for step in self.steps[:k]:
            v, w = step.atoms_given(values)
            flat_v = v.reshape(-1)
            flat_w = (w * weights[:, None]).reshape(-1)
            values, weights = _merge_atoms(flat_v, flat_w)
        return DiscreteMarginal(values, weights)

    def enumerate_suffixes(self, m: int, x_m: float) -> tuple[np.ndarray, np.ndarray]:
        """All chain continuations ``(X_{m+1}, ..., X_n)`` from ``X_m = x_m``.

        Returns (paths, probs) with paths of shape (n_paths, n - m); only
        defined for atom-valued step kernels.
        """
        paths = np.asarray([[float(x_m)]])
        probs = np.asarray([1.0])
        for step in self.steps[m:]:
            v, w = step.atoms_given(paths[:, -1])
            n_out = v.shape[-1]
            rep = np.repeat(paths, n_out, axis=0)
            paths = np.concatenate([rep, v.reshape(-1, 1)], axis=1)
            probs = (probs[:, None] * w).reshape(-1)
        keep = probs > 0
        return paths[keep, 1:], probs[keep] / probs[keep].sum()

    def config_dict(self) -> dict:
        return {
            "name": self.name,
            "initial": self.initial.config_dict(),
            "steps": [s.config_dict() for s in self.steps],
            "martingale": bool(self.martingale),
        }


def _merge_atoms(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(values)
    v, w = values[order], weights[order]
    out_v, out_w = [v[0]], [w[0]]
    for vi, wi in zip(v[1:], w[1:]):
        if vi - out_v[-1] <= _MERGE_TOL * max(1.0, abs(vi)):
            out_w[-1] += wi
        else:
            out_v.append(vi)
            out_w.append(wi)
    w = np.asarray(out_w)
    return np.asarray(out_v), w / w.sum()


# ---------------------------------------------------------------------------
# Convex order
# ---------------------------------------------------------------------------

def _call_values(law: DiscreteMarginal, strikes: np.ndarray) -> np.ndarray:
    """The call function ``E[(X - k)^+]`` of ``law`` at each of ``strikes``."""
    return np.maximum(law.values[None, :] - strikes[:, None], 0.0) @ law.weights


def convex_order_report(mu: DiscreteMarginal, nu: DiscreteMarginal,
                        tol: float = 1e-9) -> tuple[bool, float, dict]:
    """Equal means plus dominated call functions at every atom of both supports.

    For finitely supported laws, checking the call functions
    ``k -> E[(X - k)^+]`` at the union of atoms is sufficient.  Returns
    (ok, worst violation, witness), the witness naming the failing strike.
    """
    mean_gap = abs(mu.mean() - nu.mean())
    worst = mean_gap
    witness: dict = {}
    if mean_gap > tol:
        witness = {"kind": "mean", "mu_mean": mu.mean(), "nu_mean": nu.mean()}
    strikes = np.union1d(mu.values, nu.values)
    mu_calls, nu_calls = _call_values(mu, strikes), _call_values(nu, strikes)
    gaps = mu_calls - nu_calls
    j = int(np.argmax(gaps))
    if gaps[j] > worst:
        worst = float(gaps[j])
    if gaps[j] > tol and "kind" not in witness:
        witness = {
            "kind": "call_function",
            "strike": float(strikes[j]),
            "mu_call": float(mu_calls[j]),
            "nu_call": float(nu_calls[j]),
        }
    ok = mean_gap <= tol and gaps[j] <= tol
    return ok, float(worst), witness


def check_convex_order(mu: DiscreteMarginal, nu: DiscreteMarginal,
                       tol: float = 1e-9) -> bool:
    ok, _, _ = convex_order_report(mu, nu, tol)
    return ok


# ---------------------------------------------------------------------------
# Builtins, JSON, sampling
# ---------------------------------------------------------------------------

def binary_pm1_kernel() -> CouplingKernel:
    """X_0 uniform on {-1, 1}; X_1 = X_0 +- 1 with equal probability."""
    init = DiscreteMarginal(np.asarray([-1.0, 1.0]), np.asarray([0.5, 0.5]))
    step = AffineBranchKernel(((1.0, -1.0, 0.5), (1.0, 1.0, 0.5)))
    return CouplingKernel(init, (step,), name="binary_pm1")


def uniform_mot_kernel() -> CouplingKernel:
    """X_0 ~ U[-1,1]; X_1 = 1.5 X_0 + 0.5 w.p. 3/4, else -0.5 X_0 - 1.5."""
    init = UniformMarginal(-1.0, 1.0)
    step = AffineBranchKernel(((1.5, 0.5, 0.75), (-0.5, -1.5, 0.25)))
    return CouplingKernel(init, (step,), name="uniform_mot")


def gaussian_n01_kernel() -> CouplingKernel:
    """X_0 ~ N(0,1); X_1 | X_0 ~ N(X_0, 1) (so X_1 ~ N(0,2))."""
    return CouplingKernel(GaussianMarginal(0.0, 1.0), (GaussianStepKernel(var=1.0),),
                          name="gaussian_n01")


def brownian_coupling(sigma2: float = 1.0, horizon: float = 1.0) -> CouplingKernel:
    """Bivariate normal with Cov = [[s2, s2], [s2, s2 + T]]."""
    return CouplingKernel(GaussianMarginal(0.0, sigma2),
                          (GaussianStepKernel(var=horizon),),
                          name="brownian")


def antithetic_pm1_chain(n_arcs: int = 5) -> CouplingKernel:
    """Y_0 uniform on {-1, 1}; Y_i = -Y_{i-1}."""
    init = DiscreteMarginal(np.asarray([-1.0, 1.0]), np.asarray([0.5, 0.5]))
    steps = tuple(DeterministicAffineKernel(-1.0) for _ in range(n_arcs))
    return CouplingKernel(init, steps, name="antithetic_pm1")


def independent_pm1_chain(n_arcs: int = 5) -> CouplingKernel:
    """Independent uniform {-1, 1} targets at every date."""
    init = DiscreteMarginal(np.asarray([-1.0, 1.0]), np.asarray([0.5, 0.5]))
    step = IndependentStepKernel(init)
    return CouplingKernel(init, tuple(step for _ in range(n_arcs)),
                          name="independent_pm1")


def comonotone_uniform_kernel() -> CouplingKernel:
    """Quantile coupling of U[-1,1] with U[-2,2]: X_1 = 2 X_0."""
    return CouplingKernel(UniformMarginal(-1.0, 1.0),
                          (DeterministicAffineKernel(2.0),),
                          name="comonotone_uniform")


def binary_chain_kernel(n_arcs: int = 2) -> CouplingKernel:
    """X_0 uniform on {-1, 1}; every step adds an independent +-1."""
    init = DiscreteMarginal(np.asarray([-1.0, 1.0]), np.asarray([0.5, 0.5]))
    step = AffineBranchKernel(((1.0, -1.0, 0.5), (1.0, 1.0, 0.5)))
    return CouplingKernel(init, tuple(step for _ in range(n_arcs)),
                          name=f"binary_chain_{n_arcs}")


def deterministic_kernel(value: float = 0.0, n_arcs: int = 1) -> CouplingKernel:
    """All targets equal to a constant (zero coupling)."""
    init = DegenerateMarginal(value)
    steps = tuple(DeterministicAffineKernel(1.0) for _ in range(n_arcs))
    return CouplingKernel(init, steps, name="deterministic")


def comonotone_kernel(mu: DiscreteMarginal, nu: DiscreteMarginal) -> CouplingKernel:
    """Quantile coupling of two discrete marginals: atom ``(i, j)`` carries
    the overlap of the CDF cells ``[F_mu(i-1), F_mu(i)]`` and
    ``[F_nu(j-1), F_nu(j)]``."""
    f_mu, f_nu = (np.concatenate([[0.0], np.cumsum(law.weights)]) for law in (mu, nu))
    gamma = np.maximum(np.minimum.outer(f_mu[1:], f_nu[1:])
                       - np.maximum.outer(f_mu[:-1], f_nu[:-1]), 0.0)
    gamma /= gamma.sum(axis=1, keepdims=True)
    step = DiscreteRowKernel(mu.values, nu.values, gamma)
    return CouplingKernel(mu, (step,), name="comonotone")


_PRESET_FACTORIES = {
    "binary_pm1": binary_pm1_kernel,
    "uniform_mot": uniform_mot_kernel,
    "gaussian_n01": gaussian_n01_kernel,
    "brownian": brownian_coupling,
    "antithetic_pm1": antithetic_pm1_chain,
    "independent_pm1": independent_pm1_chain,
    "comonotone_uniform": comonotone_uniform_kernel,
    "binary_chain": binary_chain_kernel,
    "deterministic": deterministic_kernel,
}


def builtin_kernels() -> dict[str, CouplingKernel]:
    """Catalog of named, validated couplings: each preset at its default
    parameters, under its kernel's name (``binary_chain`` is ``binary_chain_2``)."""
    kernels = (factory() for factory in _PRESET_FACTORIES.values())
    return {kernel.name: kernel for kernel in kernels}


def kernel_from_json(doc: dict) -> CouplingKernel:
    """Build a coupling from a JSON document: a preset, or explicit matrices
    whose ``gamma`` rows follow their ``atoms_mu`` pairs in any order of the
    atoms.  A key the document's form does not read is a ``ConfigError``."""
    if "preset" in doc:
        check_keys(doc, ("preset", "params"), "coupling")
        return call_preset("coupling", _PRESET_FACTORIES, doc["preset"], doc.get("params", {}))
    if "atoms_mu" in doc:
        check_keys(doc, ("atoms_mu", "values_nu", "gamma"), "coupling")
        mu = DiscreteMarginal.from_pairs(doc["atoms_mu"])
        gamma = np.asarray(doc["gamma"], dtype=float)
        if gamma.shape[:1] != mu.values.shape:
            raise ConfigError("atoms_mu must hold one [value, weight] pair per row of gamma")
        # row r of gamma belongs to the r-th written pair, which from_pairs sorted
        order = np.argsort(np.asarray(doc["atoms_mu"], dtype=float)[:, 0])
        step = DiscreteRowKernel(mu.values, np.asarray(doc["values_nu"], dtype=float),
                                 gamma[order])
        return CouplingKernel(mu, (step,), name="discrete_kernel")
    raise ConfigError("coupling document needs 'preset' or 'atoms_mu'")


def sample_coupling(kernel: CouplingKernel, n_samples: int, seed: int,
                    block: int = 0) -> np.ndarray:
    """I.i.d. draws of the target vector from the dedicated 'X' stream."""
    if n_samples < 1:
        raise ConfigError("n_samples must be positive")
    return kernel.sample(n_samples, seed, block)
