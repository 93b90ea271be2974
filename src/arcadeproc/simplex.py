"""Equality-form LPs through scipy's HiGHS dual simplex.

Solves ``min c @ x  s.t.  A x = b, x >= 0`` cold with
``scipy.optimize.linprog(method="highs-ds")``, the dual revised simplex of
Huangfu & Hall (Math. Prog. Comp., 2018), and maps its status codes onto the
package's error types.  ``scipy.optimize`` is imported on the first call so
that the package import stays free of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NumericError, UnboundedError

__all__ = ["SimplexResult", "linprog_simplex"]


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    fun: float
    iterations: int


def linprog_simplex(c, a_eq, b_eq) -> SimplexResult:
    """Optimal vertex of an equality-form LP.

    Raises :class:`InfeasibleError` when no point is feasible,
    :class:`UnboundedError` for unbounded objectives and :class:`NumericError`
    for any other HiGHS failure; inconsistent dimensions raise scipy's
    ``ValueError``.
    """
    from scipy.optimize import linprog

    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds")
    if res.status == 2:
        raise InfeasibleError(f"no feasible point: {res.message}")
    if res.status == 3:
        raise UnboundedError(f"objective is unbounded below: {res.message}")
    if res.status != 0:
        raise NumericError(f"HiGHS failed (status {res.status}): {res.message}")
    return SimplexResult(x=res.x, fun=float(res.fun), iterations=int(res.nit))
