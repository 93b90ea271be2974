"""Two-phase primal simplex for small equality-form LPs.

Solves ``min c @ x  s.t.  A x = b, x >= 0`` cold, on one dense tableau
``B^{-1} [A | I | b]`` (rows with ``b < 0`` negated).  Both phases run the
same loop (``_iterate``) and row update (``_pivot``): Dantzig's most-negative
reduced cost, with Bland's smallest-index rule (entering and leaving)
whenever the objective stalls, which breaks cycles and ensures termination.

Phase 1 puts unit costs on the artificials and drops redundant rows whose
artificials cannot be pivoted out.  Its reduced costs hold ties that only
last-bit rounding breaks, so the start vertex depends on computing them from
the dense tableau.  Phase 2 prices the original columns of the same tableau
with the real costs; with zero costs it takes no pivot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NumericError, UnboundedError

__all__ = ["SimplexResult", "linprog_simplex"]

_STALL_LIMIT = 12  # degenerate pivots tolerated before switching to Bland


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    fun: float
    iterations: int


def _pivot(rows: np.ndarray, basis: np.ndarray, row: int, entering: int,
           col: np.ndarray) -> None:
    """Make ``entering`` basic in ``row``; ``col`` is its column ``B^{-1} a_q``."""
    factors = col.copy()  # ``col`` may be a view of ``rows``
    rows[row] = rows[row] / factors[row]
    factors[row] = 0.0
    rows -= np.outer(factors, rows[row])
    basis[row] = entering


def _iterate(rows: np.ndarray, basis: np.ndarray, price, column,
             tol: float, max_iter: int) -> int:
    """Pivot to optimality; return the iteration count.

    ``rows`` ends with the ``x_B`` column and receives every row update;
    ``price()`` returns the reduced costs of the candidate columns and
    ``column(q)`` the entering column ``B^{-1} a_q``.
    """
    iters = stall = 0
    while True:
        reduced = price()
        negative = np.nonzero(reduced < -tol)[0]
        if negative.size == 0:
            return iters
        if stall >= _STALL_LIMIT:  # anti-cycling: Bland's rule until real progress
            entering = int(negative[0])
        else:
            entering = int(negative[np.argmin(reduced[negative])])
        col = column(entering)
        eligible = col > tol
        if not np.any(eligible):
            raise UnboundedError("objective is unbounded below")
        ratios = np.where(eligible, rows[:, -1] / np.where(eligible, col, 1.0), np.inf)
        best = float(np.min(ratios))
        ties = np.nonzero(ratios <= best + 1e-15)[0]
        leave_row = int(ties[np.argmin(basis[ties])])
        _pivot(rows, basis, leave_row, entering, col)
        iters += 1
        stall = stall + 1 if best <= tol else 0
        if iters > max_iter:
            raise NumericError(f"simplex exceeded {max_iter} iterations")


def linprog_simplex(c, a_eq, b_eq, tol: float = 1e-9,
                    max_iter: int | None = None) -> SimplexResult:
    """Exact simplex optimum of an equality-form LP.

    Raises :class:`InfeasibleError` when phase 1 cannot reach zero and
    :class:`UnboundedError` for unbounded objectives.
    """
    c = np.asarray(c, dtype=float).ravel()
    a = np.asarray(a_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float).ravel()
    m, n = a.shape
    if c.size != n or b.size != m:
        raise ValueError("inconsistent LP dimensions")
    if max_iter is None:
        max_iter = 200 * (m + n + 10)

    flip = b < 0
    b = np.where(flip, -b, b)
    tab = np.hstack([np.where(flip[:, None], -a, a), np.eye(m), b[:, None]])
    basis = np.arange(n, n + m)
    cost1 = np.concatenate([np.zeros(n), np.ones(m), [0.0]])
    it1 = _iterate(tab, basis,
                   lambda: cost1[:n + m] - cost1[basis] @ tab[:, :n + m],
                   lambda q: tab[:, q], tol, max_iter)
    value = float(cost1[basis] @ tab[:, -1])
    if value > tol * max(1.0, float(np.max(np.abs(b))) if m else 1.0):
        raise InfeasibleError(f"phase-1 optimum {value:.3e} > 0: no feasible point")
    keep = np.ones(m, dtype=bool)
    for r in np.nonzero(basis >= n)[0]:  # a pivot changes only its own row's basis
        nz = np.nonzero(np.abs(tab[r, :n]) > tol)[0]
        if nz.size:
            _pivot(tab, basis, r, int(nz[0]), tab[:, nz[0]])
        else:
            keep[r] = False
    tab, basis = tab[keep], basis[keep]

    it2 = _iterate(tab, basis, lambda: c - c[basis] @ tab[:, :n],
                   lambda q: tab[:, q], tol, max_iter)
    x = np.zeros(n)
    x[basis] = np.clip(tab[:, -1], 0.0, None)
    return SimplexResult(x=x, fun=float(c @ x), iterations=it1 + it2)
