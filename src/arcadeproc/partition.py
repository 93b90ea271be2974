"""Date partitions, simulation grids, and interpolating-coefficient families.

An interpolating family on dates ``T_0 < ... < T_n`` is a set of continuous
functions ``f_0, ..., f_n`` with ``f_i(T_j) = delta_ij``.  The families here
are the ones used throughout the package:

* ``piecewise_linear`` -- hat functions supported on the adjacent arcs
  (the "stitched" choice; for one arc this is the linear bridge pair),
* ``lagrange`` -- global polynomial interpolation,
* ``lagrange_damped`` -- Lagrange pushed through ``x -> sign(x)|x|^{2(1-|x|)}``
  to suppress endpoint oscillation,
* ``elliptic`` -- quarter-ellipse arches on the adjacent arcs,
* ``explicit_table`` -- values tabulated on the grid, evaluated by linear
  interpolation (exact for piecewise-linear families whose breakpoints are
  grid nodes),
* ``from_functions`` -- arbitrary per-index callables (used for the
  closed-form coefficient sets synthesized from a driver covariance).

All evaluators are vectorized over time and return exact 0/1 at the dates so
that pinning identities hold to machine precision.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "Partition",
    "CoefficientSet",
    "ValidationReport",
    "damp_lagrange",
    "validate_coefficient_set",
    "piecewise_linear_coefficients",
    "lagrange_coefficients",
    "elliptic_coefficients",
    "table_coefficients",
    "carryover_noise_coefficients",
]


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------

def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Partition:
    """Ordered matching dates plus a uniform per-arc simulation grid.

    ``dates`` must be strictly increasing, finite, with ``T_0 >= 0`` and at
    least two entries.  The induced global grid places ``steps_per_arc``
    uniform sub-intervals on every arc, so every date is an exact grid node.
    """

    dates: tuple[float, ...]
    steps_per_arc: int = 50

    def __post_init__(self):
        dates = tuple(float(t) for t in self.dates)
        object.__setattr__(self, "dates", dates)
        if len(dates) < 2:
            raise ConfigError("a partition needs at least two dates")
        arr = np.asarray(dates)
        if not np.all(np.isfinite(arr)):
            raise ConfigError("partition dates must be finite")
        if dates[0] < 0.0:
            raise ConfigError("T_0 must be non-negative")
        if np.any(np.diff(arr) <= 0.0):
            raise ConfigError("partition dates must be strictly increasing")
        if not isinstance(self.steps_per_arc, numbers.Integral) or self.steps_per_arc < 1:
            raise ConfigError("steps_per_arc must be a positive integer, "
                              f"got {self.steps_per_arc!r}")
        object.__setattr__(self, "steps_per_arc", int(self.steps_per_arc))

    @property
    def n_arcs(self) -> int:
        return len(self.dates) - 1

    @property
    def tn(self) -> float:
        return self.dates[-1]

    @cached_property
    def grid(self) -> np.ndarray:
        """Global grid, computed once, read-only; dates sit at indices ``i * steps_per_arc``."""
        pieces = [np.asarray([self.dates[0]])]
        for a in range(self.n_arcs):
            seg = np.linspace(self.dates[a], self.dates[a + 1], self.steps_per_arc + 1)
            pieces.append(seg[1:])
        return _read_only(np.concatenate(pieces))

    @cached_property
    def date_indices(self) -> np.ndarray:
        return _read_only(np.arange(self.n_arcs + 1) * self.steps_per_arc)

    def arc_of(self, t: float) -> int:
        """Index m with ``T_m <= t < T_{m+1}`` (the end arcs own the domain's ends)."""
        self.check_domain(t)
        m = int(np.searchsorted(np.asarray(self.dates), t, side="right") - 1)
        return min(max(m, 0), self.n_arcs - 1)

    def check_domain(self, t) -> None:
        t = np.asarray(t, dtype=float)
        # written as "inside" so that a NaN, which fails every comparison, is refused
        if not np.all((t >= self.dates[0] - 1e-12) & (t <= self.dates[-1] + 1e-12)):
            raise DomainError(
                f"time outside [{self.dates[0]}, {self.dates[-1]}] or not finite"
            )

    def config_dict(self) -> dict:
        return {"dates": list(self.dates), "steps_per_arc": self.steps_per_arc}


# ---------------------------------------------------------------------------
# Family evaluators (vectorized; exact delta at the dates)
# ---------------------------------------------------------------------------

def _hat(t: np.ndarray, left: float | None, mid: float, right: float | None) -> np.ndarray:
    """Piecewise-linear bump: 0 outside, 1 at ``mid``, linear on the flanks."""
    out = np.zeros_like(t)
    if left is not None:
        mask = (t >= left) & (t <= mid)
        out[mask] = (t[mask] - left) / (mid - left)
    if right is not None:
        mask = (t > mid) & (t <= right)
        out[mask] = (right - t[mask]) / (right - mid)
    # exact at the peak regardless of which flank wrote it
    out[t == mid] = 1.0
    return out


def _elliptic_arch(t: np.ndarray, a: float, b: float, peak_at_a: bool) -> np.ndarray:
    """Quarter ellipse on [a, b], equal to 1 at the peak end and 0 at the other."""
    out = np.zeros_like(t)
    mask = (t >= a) & (t <= b)
    anchor = a if peak_at_a else b
    ratio = (t[mask] - anchor) / (b - a)
    out[mask] = np.sqrt(np.clip(1.0 - ratio * ratio, 0.0, None))
    out[t == anchor] = 1.0
    out[t == (b if peak_at_a else a)] = 0.0
    return out


def _piecewise_linear_eval(p: Partition, i: int, t: np.ndarray) -> np.ndarray:
    d = p.dates
    n = p.n_arcs
    left = d[i - 1] if i > 0 else None
    right = d[i + 1] if i < n else None
    return _hat(t, left, d[i], right)


def _elliptic_eval(p: Partition, i: int, t: np.ndarray) -> np.ndarray:
    d = p.dates
    n = p.n_arcs
    out = np.zeros_like(t)
    if i > 0:
        out += _elliptic_arch(t, d[i - 1], d[i], peak_at_a=False)
    if i < n:
        right = _elliptic_arch(t, d[i], d[i + 1], peak_at_a=True)
        # the shared node d[i] belongs to the left arch; do not double count
        if i > 0:
            right[t == d[i]] = 0.0
        out += right
    return out


def _lagrange_eval(p: Partition, i: int, t: np.ndarray) -> np.ndarray:
    d = p.dates
    out = np.ones_like(t)
    for k, tk in enumerate(d):
        if k == i:
            continue
        out *= (tk - t) / (tk - d[i])
    return out


def _damp_map(x: np.ndarray) -> np.ndarray:
    """sign-preserving damping ``x -> sign(x) |x|^{2(1-|x|)}``.

    Fixed points 0 and +-1, so interpolating-node values survive exactly.
    Inputs with |x| > 1 (Lagrange overshoot) use the same expression.
    """
    ax = np.abs(x)
    out = np.zeros_like(ax)
    pos = ax > 0
    out[pos] = ax[pos] ** (2.0 * (1.0 - ax[pos]))
    out[ax == 1.0] = 1.0
    return np.sign(x) * out


# ---------------------------------------------------------------------------
# CoefficientSet
# ---------------------------------------------------------------------------

_BUILTIN_FAMILIES = ("piecewise_linear", "lagrange", "lagrange_damped", "elliptic")


@dataclass(frozen=True)
class CoefficientSet:
    """An interpolating family bound to a partition.

    ``family`` names how values are produced; ``role`` records whether the set
    acts as noise coefficients (f) or signal coefficients (g).  For
    ``explicit_table`` the values live on the partition grid and off-node
    evaluation interpolates linearly; for callable-backed sets the stored
    functions are evaluated directly.
    """

    partition: Partition
    family: str
    role: str = "noise"
    table: np.ndarray | None = None          # (n+1, len(grid)) for explicit_table
    functions: tuple[Callable, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})
        if self.role not in ("noise", "signal"):
            raise ConfigError(f"unknown coefficient role {self.role!r}")
        if self.family == "explicit_table":
            if self.table is None:
                raise ConfigError("explicit_table needs a value table")
            tab = np.array(self.table, dtype=float)        # the set's own copy
            want = (self.partition.n_arcs + 1, self.partition.grid.size)
            if tab.shape != want:
                raise ConfigError(f"table shape {tab.shape} != {want}")
            if not np.all(np.isfinite(tab)):
                raise ConfigError("explicit_table values must be finite")
            object.__setattr__(self, "table", _read_only(tab))
        elif self.functions is not None:
            if len(self.functions) != self.partition.n_arcs + 1:
                raise ConfigError("need one callable per date")
        elif self.family not in _BUILTIN_FAMILIES:
            raise ConfigError(f"unknown coefficient family {self.family!r}")

    @property
    def n(self) -> int:
        return self.partition.n_arcs

    def eval(self, i: int, t) -> np.ndarray | float:
        """Evaluate coefficient ``i`` at time(s) ``t`` inside the partition."""
        if not 0 <= i <= self.n:
            raise DomainError(f"coefficient index {i} outside 0..{self.n}")
        self.partition.check_domain(t)
        out = self._values(i, np.atleast_1d(np.asarray(t, dtype=float)))
        return float(out[0]) if np.isscalar(t) else out

    def _values(self, i: int, tt: np.ndarray) -> np.ndarray:
        if self.family == "explicit_table":
            return np.interp(tt, self.partition.grid, self.table[i])
        if self.functions is not None:
            return np.asarray(self.functions[i](tt), dtype=float)
        if self.family == "piecewise_linear":
            return _piecewise_linear_eval(self.partition, i, tt)
        if self.family == "elliptic":
            return _elliptic_eval(self.partition, i, tt)
        if self.family == "lagrange":
            return _lagrange_eval(self.partition, i, tt)
        return _damp_map(_lagrange_eval(self.partition, i, tt))    # lagrange_damped

    def matrix(self, t) -> np.ndarray:
        """Stack ``f_i(t)`` for all i: shape (n+1, len(t))."""
        self.partition.check_domain(t)
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        return np.vstack([self._values(i, tt) for i in range(self.n + 1)])

    @property
    def grid_values(self) -> np.ndarray:
        """``matrix(partition.grid)``: evaluated once, read-only, shared with :meth:`with_role`."""
        if "grid" not in self._cache:
            self._cache["grid"] = _read_only(self.matrix(self.partition.grid))
        return self._cache["grid"]

    def grid_matrix(self) -> np.ndarray:
        """A copy of :attr:`grid_values` that the caller owns."""
        return self.grid_values.copy()

    def with_role(self, role: str) -> "CoefficientSet":
        twin = CoefficientSet(self.partition, self.family, role, self.table, self.functions)
        object.__setattr__(twin, "_cache", self._cache)    # the role does not change values
        return twin

    def config_dict(self) -> dict:
        return {"family": self.family, "role": self.role,
                "partition": self.partition.config_dict()}


def piecewise_linear_coefficients(p: Partition, role: str = "noise") -> CoefficientSet:
    return CoefficientSet(p, "piecewise_linear", role)


def lagrange_coefficients(p: Partition, role: str = "noise") -> CoefficientSet:
    return CoefficientSet(p, "lagrange", role)


def elliptic_coefficients(p: Partition, role: str = "noise") -> CoefficientSet:
    return CoefficientSet(p, "elliptic", role)


def table_coefficients(p: Partition, table: np.ndarray, role: str = "noise") -> CoefficientSet:
    return CoefficientSet(p, "explicit_table", role, table=np.asarray(table, float))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def damp_lagrange(cset: CoefficientSet) -> CoefficientSet:
    """Apply the sign-preserving damping map to a Lagrange family."""
    if cset.family != "lagrange":
        raise ConfigError("damping is defined for the lagrange family only")
    return CoefficientSet(cset.partition, "lagrange_damped", cset.role)


@dataclass(frozen=True)
class ValidationReport:
    max_unit_error: float       # max_i |f_i(T_i) - 1|
    max_zero_error: float       # max_{i != j} |f_i(T_j)|
    max_grid_jump: float        # max adjacent-node |f_i(t_{k+1}) - f_i(t_k)|
    max_jump_rate: float        # max |delta f| / delta t over adjacent nodes
    passed: bool

    def as_dict(self) -> dict:
        return {
            "max_unit_error": self.max_unit_error,
            "max_zero_error": self.max_zero_error,
            "max_grid_jump": self.max_grid_jump,
            "max_jump_rate": self.max_jump_rate,
            "passed": bool(self.passed),
        }


def validate_coefficient_set(
    cset: CoefficientSet, tol: float = 1e-9, continuity_c: float | None = None
) -> ValidationReport:
    """Check the interpolating-node identities and numerical continuity.

    Passing requires finite values at every grid node and the node residuals
    ``|f_i(T_j) - delta_ij|`` to stay below ``tol``; when ``continuity_c`` is
    given, the largest jump between adjacent grid nodes must additionally
    stay below ``continuity_c * dt`` for the local step ``dt``.
    """
    p = cset.partition
    gm = cset.grid_values
    fmat = gm[:, p.date_indices]                # (n+1, n+1): the dates are grid nodes
    unit_err = float(np.max(np.abs(np.diag(fmat) - 1.0)))
    off = fmat - np.diag(np.diag(fmat))
    zero_err = float(np.max(np.abs(off)))
    if gm.shape[1] > 1:
        diffs = np.abs(np.diff(gm, axis=1))
        jumps = float(np.max(diffs))
        rate = float(np.max(diffs / np.diff(p.grid)))
    else:
        jumps, rate = 0.0, 0.0
    ok = unit_err <= tol and zero_err <= tol and bool(np.isfinite(gm).all())
    if continuity_c is not None:
        ok = ok and rate <= continuity_c
    return ValidationReport(unit_err, zero_err, jumps, rate, ok)


# ---------------------------------------------------------------------------
# A two-arc Markovian family with first-date carryover
# ---------------------------------------------------------------------------

def carryover_noise_coefficients(p: Partition, role: str = "noise") -> CoefficientSet:
    """A non-hat interpolating family on two arcs that still factorizes.

    On ``{T_0, T_1, T_2}`` the first coefficient keeps a (negative) slope on
    the second half of the last arc instead of vanishing there, so the value
    at ``T_0`` keeps influencing paths on ``(T_1, T_2)``, yet the induced
    Brownian-arcade covariance separates arc by arc.  All three coefficients
    are piecewise linear with breakpoints at ``T_1`` and ``(T_1+T_2)/2``; the
    set is returned as an explicit table, exact when the mid-arc breakpoint
    is a grid node (even ``steps_per_arc``).
    """
    if p.n_arcs != 2:
        raise ConfigError("carryover family is defined on exactly two arcs")
    if p.steps_per_arc % 2:
        raise ConfigError("carryover family needs an even steps_per_arc")
    t0, t1, t2 = p.dates
    mid = 0.5 * (t1 + t2)
    g = p.grid

    f0 = np.where(g <= mid, (t1 - g) / (t1 - t0), -(t2 - g) / (t1 - t0))
    f1 = np.where(g <= t1, (g - t0) / (t1 - t0), (t2 - g) / (t2 - t1))
    f2 = np.where(g <= t1, 0.0, (g - t1) / (t2 - t1))
    table = np.vstack([f0, f1, f2])
    # exact node values
    idx = p.date_indices
    table[:, idx] = np.eye(3)[:, : idx.size]
    return CoefficientSet(p, "explicit_table", role, table=table)
