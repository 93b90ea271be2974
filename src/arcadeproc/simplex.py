"""Two-phase primal simplex for small equality-form LPs.

Solves ``min c @ x  s.t.  A x = b, x >= 0``.  Pivoting uses Dantzig's
most-negative reduced cost for speed and falls back to Bland's smallest-index
rule (entering and leaving) whenever the objective stalls, which breaks
cycles and guarantees termination.  Both phases run the same loop
(``_iterate``) and the same row update (``_pivot``); they differ only in how
reduced costs and entering columns are formed.

Phase 1 establishes feasibility through artificial variables on the dense
tableau ``B^{-1} [A | I | b]``; redundant rows whose artificials cannot be
pivoted out are dropped.  At its exit the artificial columns hold ``B^{-1}``
and the last column holds ``x_B``, so the warm state is the k x (m + 1)
array ``[B^{-1} | x_B]`` next to ``A`` (rows with ``b < 0`` negated).
Phase 1 keeps the dense arithmetic on purpose: its reduced costs contain
ties that are exact in exact arithmetic and are broken by last-bit rounding,
so computing them any other way moves the start vertex.

Phase 2 is a revised simplex on that explicit basis inverse: each pivot
prices with ``y = c_B B^{-1}`` and ``d = c - y A``, forms the entering column
``B^{-1} a_q`` and applies the rank-1 row update to ``[B^{-1} | x_B]`` only,
never to the k x n block ``B^{-1} A``.  The inverse is not refactorized.

``SimplexState`` snapshots a feasible basis so later calls with different
costs on the same constraints re-solve phase 2 from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NumericError, UnboundedError

__all__ = ["SimplexResult", "SimplexState", "linprog_simplex", "resolve_with_costs"]

_STALL_LIMIT = 12  # degenerate pivots tolerated before switching to Bland


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    fun: float
    iterations: int


@dataclass
class SimplexState:
    """Feasible basis: ``a`` (rows with ``b < 0`` negated) and ``inv = [B^{-1} | x_B]``.

    ``inv`` is k x (m + 1), with k the rank kept by phase 1; ``basis[r]`` is
    the variable that row ``r`` of ``inv`` solves for.
    """

    a: np.ndarray
    inv: np.ndarray
    basis: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.a.shape[1]

    def solution(self) -> np.ndarray:
        x = np.zeros(self.n_vars)
        x[self.basis] = self.inv[:, -1]
        return np.clip(x, 0.0, None)


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
    iters = 0
    stall = 0
    bland = False
    while True:
        reduced = price()
        negative = np.nonzero(reduced < -tol)[0]
        if negative.size == 0:
            return iters
        if bland:
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
        if best <= tol:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True  # anti-cycling: Bland's rule until real progress
        else:
            stall = 0
            bland = False
        if iters > max_iter:
            raise NumericError(f"simplex exceeded {max_iter} iterations")


def _phase1(a: np.ndarray, b: np.ndarray, tol: float, max_iter: int
            ) -> tuple[SimplexState, int]:
    """Feasible basis from the dense tableau, or ``InfeasibleError``."""
    m, n = a.shape
    flip = b < 0
    a = np.where(flip[:, None], -a, a)
    b = np.where(flip, -b, b)
    tab = np.hstack([a, np.eye(m), b[:, None]])
    basis = np.arange(n, n + m)
    cost1 = np.concatenate([np.zeros(n), np.ones(m), [0.0]])
    scale = max(1.0, float(np.max(np.abs(b))) if m else 1.0)
    iters = _iterate(tab, basis,
                     lambda: cost1[:n + m] - cost1[basis] @ tab[:, :n + m],
                     lambda q: tab[:, q], tol, max_iter)
    value = float(cost1[basis] @ tab[:, -1])
    if value > tol * scale:
        raise InfeasibleError(f"phase-1 optimum {value:.3e} > 0: no feasible point")
    keep = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] >= n:
            nz = np.nonzero(np.abs(tab[r, :n]) > tol)[0]
            if nz.size:
                q = int(nz[0])
                _pivot(tab, basis, r, q, tab[:, q])
            else:
                keep[r] = False
    inv = np.ascontiguousarray(tab[keep, n:])
    return SimplexState(a=a, inv=inv, basis=basis[keep]), iters


def _phase2(state: SimplexState, c: np.ndarray, tol: float, max_iter: int
            ) -> tuple[SimplexResult, SimplexState]:
    """Revised-simplex re-optimization from ``state``, which is left untouched."""
    a = state.a
    inv, basis = state.inv.copy(), state.basis.copy()
    binv = inv[:, :-1]
    iters = _iterate(inv, basis,
                     lambda: c - (c[basis] @ binv) @ a,
                     lambda q: binv @ a[:, q], tol, max_iter)
    new_state = SimplexState(a=a, inv=inv, basis=basis)
    x = new_state.solution()
    return SimplexResult(x=x, fun=float(c @ x), iterations=iters), new_state


def linprog_simplex(c, a_eq, b_eq, tol: float = 1e-9,
                    max_iter: int | None = None,
                    state: SimplexState | None = None
                    ) -> tuple[SimplexResult, SimplexState]:
    """Exact simplex optimum of an equality-form LP.

    Passing the ``state`` returned by a previous call on the same
    constraints skips phase 1 and re-optimizes from the cached basis.
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

    it1 = 0
    if state is None:
        state, it1 = _phase1(a, b, tol, max_iter)
    res, new_state = _phase2(state, c, tol, max_iter)
    return SimplexResult(res.x, res.fun, it1 + res.iterations), new_state


def resolve_with_costs(state: SimplexState, c, tol: float = 1e-9,
                       max_iter: int = 100000) -> tuple[SimplexResult, SimplexState]:
    """Warm re-solve with new costs on the constraints captured in ``state``."""
    c = np.asarray(c, dtype=float).ravel()
    if c.size != state.n_vars:
        raise ValueError("cost vector does not match the cached LP")
    return _phase2(state, c, tol, max_iter)
