"""Information-based martingale optimal transport over discrete marginals.

The decision variable is a joint matrix ``pi`` on the atom grid of two
convexly ordered marginals, constrained to fixed marginals and row-wise
barycenters (the martingale transport polytope).  The objective is the
mu-average of the squared quantile distance between each conditional row and
the centered normal with the horizon variance; by completing the square this
is equivalent to maximizing the expected product of the terminal target with
the innovations endpoint.

The solver is conditional-gradient (Frank-Wolfe) with an exact simplex linear
oracle (``simplex``: one dense phase 1 per solve, then revised-simplex warm
re-solves on the basis inverse, one per Frank-Wolfe iteration); after each
oracle step, pairwise steps shift weight between the vertices already in the
active set (plain FW zigzags too slowly to certify tight duality gaps).  A
solve stops at the gap tolerance, at ``max_iter``, or when an iteration
leaves the iterate unchanged.  Every step length comes from a safeguarded
Newton search on the exact directional derivative: in Abel form the
objective is linear in the weights plus terms ``I(c_j)`` of the cumulative
row weights, with ``I' = -Phi^{-1}`` and ``I'' = -1/I``, so slope and
curvature along a segment cost one ``ndtri`` per moving cell boundary.  A
brute-force search over the polytope's null direction, refined by golden
section on objective values, provides an independent oracle on small
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .coupling import (
    AffineBranchKernel,
    CouplingKernel,
    DiscreteMarginal,
    convex_order_report,
)
from .errors import ConfigError, InfeasibleError, NumericError
from .simplex import linprog_simplex, resolve_with_costs

__all__ = [
    "IbmotProblem",
    "IbmotSolution",
    "IbmotOptions",
    "gaussian_quantile_partial_moments",
    "w2sq_discrete_vs_gaussian",
    "ibmot_objective_quantile",
    "ibmot_objective_mc",
    "lp_oracle",
    "solve_ibmot",
    "brute_force_small",
    "discretize_affine_kernel",
    "induced_correlation",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_Q_CLIP = 1e-16
_LINE_SEARCH_TOL = 1e-10
_PAIRWISE_BUDGET = 40      # pairwise correction steps per oracle call


# ---------------------------------------------------------------------------
# Gaussian quantile partial moments
# ---------------------------------------------------------------------------

def _phi_of_quantile(p: np.ndarray) -> np.ndarray:
    """Normal density evaluated at the standard quantile of ``p``; 0 at 0/1."""
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    inner = (p > 0.0) & (p < 1.0)
    z = ndtri(p[inner])
    out[inner] = np.exp(-0.5 * z * z) / _SQRT_2PI
    return out


def _z_phi_of_quantile(p: np.ndarray) -> np.ndarray:
    """``z * phi(z)`` at the standard quantile of ``p``; 0 at the endpoints."""
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    inner = (p > 0.0) & (p < 1.0)
    z = ndtri(p[inner])
    out[inner] = z * np.exp(-0.5 * z * z) / _SQRT_2PI
    return out


def gaussian_quantile_partial_moments(a, b, tau: float):
    """First and second partial moments of the N(0, tau) quantile on [a, b].

    ``int_a^b Q = sqrt(tau) (phi(z_a) - phi(z_b))`` and
    ``int_a^b Q^2 = tau ((b - a) - (z_b phi(z_b) - z_a phi(z_a)))`` with
    ``z_p`` the standard normal quantile; endpoint contributions vanish.
    """
    if tau <= 0.0:
        raise ConfigError("quantile moments need tau > 0")
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.any(a_arr < -1e-12) or np.any(b_arr > 1.0 + 1e-12) or np.any(a_arr > b_arr + 1e-12):
        raise ConfigError("need 0 <= a <= b <= 1")
    sqrt_tau = math.sqrt(tau)
    first = sqrt_tau * (_phi_of_quantile(a_arr) - _phi_of_quantile(b_arr))
    second = tau * ((b_arr - a_arr) - (_z_phi_of_quantile(b_arr) - _z_phi_of_quantile(a_arr)))
    if np.isscalar(a) and np.isscalar(b):
        return float(first), float(second)
    return first, second


# ---------------------------------------------------------------------------
# Quantile-cell W2^2 and its gradient
# ---------------------------------------------------------------------------

def _w2sq_rows(prob_rows: np.ndarray, y: np.ndarray, tau: float) -> np.ndarray:
    """Squared quantile distance of each row law to N(0, tau).

    ``prob_rows``: (rows, atoms) probabilities; ``y``: increasing atom values.
    Abel summation of the right-continuous quantile cells gives
    ``sum_j y_j^2 w_j + tau - 2 sqrt(tau) sum_j (y_{j+1} - y_j) I(c_j)`` with
    ``c_j`` the cumulative weights and ``I = phi o Phi^{-1}`` (0 at 0 and 1,
    so empty cells contribute nothing).
    """
    # Rows must sum to 1: ``tau`` is the integral of Q^2 over all of [0, 1].
    cum = np.cumsum(prob_rows[:, :-1], axis=1)
    return (prob_rows @ (y * y) + tau
            - 2.0 * math.sqrt(tau) * (_phi_of_quantile(cum) @ np.diff(y)))


def w2sq_discrete_vs_gaussian(gamma_row, values, tau: float) -> float:
    """W2^2 between one discrete conditional law and N(0, tau)."""
    row = np.asarray(gamma_row, dtype=float)
    if np.any(row < -1e-12):
        raise ConfigError("conditional law has negative weights")
    total = row.sum()
    if abs(total - 1.0) > 1e-9:
        raise ConfigError("conditional law must sum to 1")
    return float(_w2sq_rows(row[None, :] / total, np.asarray(values, float), tau)[0])


def _w2sq_gradient_rows(prob_rows: np.ndarray, y: np.ndarray, tau: float) -> np.ndarray:
    """Per-row gradient of the quantile W2^2 with respect to the weights.

    Up to a row-wise additive constant (irrelevant on fixed-row-sum
    polytopes): ``g_k = sum_{j >= k} (y_j - y_{j+1}) (y_j + y_{j+1} - 2 Q(c_j))``
    over interior cell boundaries.  Boundaries at 0/1 (dead cells) use a
    clipped quantile, a valid subgradient choice.
    """
    rows, atoms = prob_rows.shape
    if atoms == 1:
        return np.zeros_like(prob_rows)
    cum = np.clip(np.cumsum(prob_rows, axis=1)[:, :-1], _Q_CLIP, 1.0 - _Q_CLIP)
    q = math.sqrt(tau) * ndtri(cum)                      # (rows, atoms-1)
    dy = y[:-1] - y[1:]                                  # (atoms-1,)
    sy = y[:-1] + y[1:]
    terms = dy[None, :] * (sy[None, :] - 2.0 * q)
    grad = np.zeros((rows, atoms))
    grad[:, :-1] = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
    return grad


# ---------------------------------------------------------------------------
# Problem and solution containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IbmotProblem:
    """Marginal pair in convex order plus the horizon variance.

    ``target_second_moment`` optionally records the exact ``E[X_1^2]`` of the
    continuous law the second marginal discretizes; when present it feeds a
    bias-corrected completed square for continuum benchmarking (the purely
    discrete completed square is always reported alongside).
    """

    mu: DiscreteMarginal
    nu: DiscreteMarginal
    horizon: float
    validate: bool = True
    target_second_moment: float | None = None

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ConfigError("horizon must be positive")
        if self.validate:
            ok, worst, witness = convex_order_report(self.mu, self.nu, tol=1e-9)
            if not ok:
                raise InfeasibleError(
                    f"marginals are not in convex order (violation {worst:.3e})",
                    witness=witness,
                )

    @property
    def shape(self) -> tuple[int, int]:
        return self.mu.values.size, self.nu.values.size

    def constraint_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Equality system of the martingale transport polytope (vars pi_ij)."""
        m, n = self.shape
        x, yv = self.mu.values, self.nu.values
        a = np.zeros((2 * m + n, m * n))
        b = np.zeros(2 * m + n)
        for i in range(m):
            a[i, i * n: (i + 1) * n] = 1.0
            b[i] = self.mu.weights[i]
        for j in range(n):
            a[m + j, j::n] = 1.0
            b[m + j] = self.nu.weights[j]
        for i in range(m):
            a[m + n + i, i * n: (i + 1) * n] = yv - x[i]
        return a, b

    def config_dict(self) -> dict:
        return {"mu": self.mu.config_dict(), "nu": self.nu.config_dict(),
                "T": self.horizon}


@dataclass(frozen=True)
class IbmotOptions:
    gap_tol: float = 1e-7
    max_iter: int = 5000


@dataclass(frozen=True)
class QuantileObjective:
    value: float             # E[(X_1 - W_T)^2] in quantile form
    k_i: float               # completed square with the kernel's own E[X_1^2]
    k_i_target: float | None = None  # completed square with the exact target moment

    def as_dict(self) -> dict:
        out = {"squared_error_value": self.value, "k_i": self.k_i}
        if self.k_i_target is not None:
            out["k_i_target"] = self.k_i_target
        return out


@dataclass(frozen=True)
class IbmotSolution:
    problem: IbmotProblem
    gamma: np.ndarray
    objective_quantile: float
    objective_ki: float
    objective_ki_target: float | None
    iterations: int
    duality_gap: float
    converged: bool

    def joint(self) -> np.ndarray:
        return self.problem.mu.weights[:, None] * self.gamma

    def as_dict(self) -> dict:
        out = {
            "kernel": self.gamma.tolist(),
            "objective_quantile": self.objective_quantile,
            "objective_KI": self.objective_ki,
            "iterations": self.iterations,
            "duality_gap": self.duality_gap,
            "converged": bool(self.converged),
            "correlation": induced_correlation(self.problem, self.gamma),
        }
        if self.objective_ki_target is not None:
            out["objective_KI_target"] = self.objective_ki_target
        return out


# ---------------------------------------------------------------------------
# Objective evaluation
# ---------------------------------------------------------------------------

def _objective_from_joint(problem: IbmotProblem, pi: np.ndarray) -> float:
    mu_w = problem.mu.weights
    rows = pi / mu_w[:, None]
    return float(mu_w @ _w2sq_rows(rows, problem.nu.values, problem.horizon))


def _gradient_from_joint(problem: IbmotProblem, pi: np.ndarray) -> np.ndarray:
    mu_w = problem.mu.weights
    rows = pi / mu_w[:, None]
    return _w2sq_gradient_rows(rows, problem.nu.values, problem.horizon)


def validate_kernel(problem: IbmotProblem, gamma: np.ndarray,
                    tol: float = 1e-7) -> None:
    """Feasibility of a conditional kernel: rows, martingale means, columns."""
    m, n = problem.shape
    g = np.asarray(gamma, dtype=float)
    if g.shape != (m, n):
        raise ConfigError(f"kernel shape {g.shape} != {(m, n)}")
    if np.any(g < -tol):
        raise ConfigError("kernel has negative entries")
    if np.max(np.abs(g.sum(axis=1) - 1.0)) > tol:
        raise ConfigError("kernel rows do not sum to 1")
    bary = g @ problem.nu.values
    if np.max(np.abs(bary - problem.mu.values)) > tol:
        raise ConfigError("kernel violates the martingale barycenter constraint")
    col = problem.mu.weights @ g
    if np.max(np.abs(col - problem.nu.weights)) > tol:
        raise ConfigError("kernel does not reproduce the second marginal")


def ibmot_objective_quantile(problem: IbmotProblem, gamma: np.ndarray,
                             validate: bool = True) -> QuantileObjective:
    """Quantile-form objective of a kernel plus its completed-square value.

    ``value = sum_i mu_i W2^2(gamma_i, N(0, T))`` and
    ``K_I = (E[X_1^2] + T - value) / 2`` with the second moment taken under
    the kernel's own terminal law; when the problem records the exact
    second moment of the discretized target, the same square is also
    completed with that moment (``k_i_target``).
    """
    g = np.asarray(gamma, dtype=float)
    if validate:
        validate_kernel(problem, g)
    mu_w = problem.mu.weights
    value = float(mu_w @ _w2sq_rows(g, problem.nu.values, problem.horizon))
    ex2 = float(mu_w @ (g @ (problem.nu.values ** 2)))
    k_i = 0.5 * (ex2 + problem.horizon - value)
    k_i_target = None
    if problem.target_second_moment is not None:
        k_i_target = 0.5 * (problem.target_second_moment + problem.horizon - value)
    return QuantileObjective(value=value, k_i=k_i, k_i_target=k_i_target)


def induced_correlation(problem: IbmotProblem, gamma: np.ndarray) -> float:
    """Correlation of the coupled pair under ``mu_i gamma_ij``."""
    mu_w, x = problem.mu.weights, problem.mu.values
    y = problem.nu.values
    e0 = float(mu_w @ x)
    e1 = float(mu_w @ (gamma @ y))
    exy = float((mu_w * x) @ (gamma @ y))
    v0 = float(mu_w @ (x * x)) - e0 * e0
    v1 = float(mu_w @ (gamma @ (y * y))) - e1 * e1
    return (exy - e0 * e1) / math.sqrt(v0 * v1)


# ---------------------------------------------------------------------------
# Linear oracle and Frank-Wolfe
# ---------------------------------------------------------------------------

class _WarmOracle:
    """LP oracle that keeps the previous optimal basis between cost changes."""

    def __init__(self, problem: IbmotProblem):
        self.problem = problem
        self.shape = problem.shape
        self.state = None

    def __call__(self, costs: np.ndarray) -> np.ndarray:
        c = np.asarray(costs, dtype=float).ravel()
        if self.state is None:
            a, b = self.problem.constraint_matrix()
            res, self.state = linprog_simplex(c, a, b)
        else:
            res, self.state = resolve_with_costs(self.state, c)
        return res.x.reshape(self.shape)


def lp_oracle(costs: np.ndarray, problem: IbmotProblem) -> np.ndarray:
    """Exact vertex minimizer of ``<costs, pi>`` over the transport polytope."""
    return _WarmOracle(problem)(costs)


def _golden_section(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Minimize a one-dimensional convex function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    return t, f(t)


def _slope_along(problem: IbmotProblem, pi: np.ndarray, direction: np.ndarray):
    """Slope and curvature of the objective along ``pi + theta * direction``.

    Returns ``theta -> (f'(theta), f''(theta))``.  With ``c`` the cumulative
    row weights at ``theta`` and ``e`` their rate of change, the Abel form
    gives ``f' = sum d . y^2 + 2 sqrt(tau) sum mu_i dy_j Phi^{-1}(c_ij) e_ij``
    and ``f'' = 2 sqrt(tau) sum mu_i dy_j e_ij^2 / I(c_ij) >= 0``.  Only cell
    boundaries with ``e != 0`` enter.  ``c`` is clipped like the gradient's
    quantiles, so both values stay finite where the exact slope diverges (a
    boundary leaving or reaching 0 or 1); evaluate strictly inside the
    segment.
    """
    mu_w = problem.mu.weights
    y = problem.nu.values
    lin = float(np.sum(direction @ (y * y)))
    cum_d = np.cumsum(direction[:, :-1], axis=1)
    rows, cols = np.nonzero(cum_d)
    c0 = np.cumsum(pi[:, :-1], axis=1)[rows, cols] / mu_w[rows]
    e = cum_d[rows, cols] / mu_w[rows]
    w = 2.0 * math.sqrt(problem.horizon) * np.diff(y)[cols] * cum_d[rows, cols]
    we = _SQRT_2PI * w * e

    def slope(theta: float) -> tuple[float, float]:
        c = c0 + theta * e
        z = ndtri(np.minimum(np.maximum(c, _Q_CLIP, out=c), 1.0 - _Q_CLIP, out=c))
        return lin + float(w @ z), float(we @ np.exp(0.5 * z * z))

    return slope


def _line_search(problem: IbmotProblem, pi: np.ndarray, direction: np.ndarray,
                 theta_max: float) -> float:
    """Exact minimizing step on ``[0, theta_max]`` for a convex objective.

    Safeguarded Newton on the slope.  Each evaluation shrinks a bracket of
    the slope's root; a Newton step that leaves the bracket, or is not below
    half the previous step, is replaced by bisection in log scale (the
    geometric mean of the bracket, its lower end floored at half of
    ``_LINE_SEARCH_TOL``), because optimal steps range over many orders of
    magnitude.  The search stops once the bracket or the Newton step is
    narrower than ``_LINE_SEARCH_TOL``.  The slope is never taken at an
    endpoint, where it may be infinite; if it is still <= 0 just inside
    ``theta_max``, the full step is returned.
    """
    tol = _LINE_SEARCH_TOL
    slope = _slope_along(problem, pi, direction)
    hi = theta_max - min(tol, 0.5 * theta_max)
    if slope(hi)[0] <= 0.0:
        return theta_max
    lo, floor = 0.0, 0.5 * tol
    theta = math.sqrt(floor * hi)
    step = hi
    while hi - lo > tol:
        g, h = slope(theta)
        if g > 0.0:
            hi = theta
        elif g < 0.0:
            lo = theta
        else:
            return theta
        newton = g / h if h > 0.0 else math.inf
        if lo < theta - newton < hi and abs(newton) <= 0.5 * abs(step):
            step = newton
            theta -= step
            if abs(step) <= tol:
                return theta
        else:
            mid = math.sqrt(max(lo, floor) * hi)
            step = theta - mid
            theta = mid
    return 0.5 * (lo + hi)


class _ActiveSet:
    """Vertices of the current convex combination, stacked row-wise."""

    def __init__(self, vertex: np.ndarray):
        self.vertices = vertex.ravel()[None, :].copy()
        self.weights = np.asarray([1.0])

    def add(self, vertex: np.ndarray, weight_scale: float, weight: float) -> None:
        flat = vertex.ravel()
        match = np.nonzero(
            np.all(np.abs(self.vertices - flat) <= 1e-12, axis=1)
        )[0]
        self.weights = self.weights * weight_scale
        if match.size:
            self.weights[match[0]] += weight
        else:
            self.vertices = np.vstack([self.vertices, flat])
            self.weights = np.append(self.weights, weight)

    def prune(self) -> None:
        keep = self.weights > 1e-14
        if not np.all(keep):
            self.vertices = self.vertices[keep]
            self.weights = self.weights[keep]

    def scores(self, grad: np.ndarray) -> np.ndarray:
        return self.vertices @ grad.ravel()


def solve_ibmot(problem: IbmotProblem, opts: IbmotOptions | None = None,
                start_costs: np.ndarray | None = None) -> IbmotSolution:
    """Conditional-gradient minimization of the quantile objective.

    Every iterate is a convex combination of polytope vertices, so
    feasibility is preserved exactly.  Each oracle call yields the
    Frank-Wolfe duality gap ``<grad, pi - v>``, a suboptimality certificate
    for the iterate it is computed at; the run stops once it falls below
    ``gap_tol * (1 + |objective|)``, after ``max_iter`` oracle steps, or as
    soon as an iteration leaves the iterate bit-identical (the next one would
    repeat it exactly); the returned gap always belongs to the returned
    kernel, and only the first stop reports ``converged``.

    Each oracle step is followed by pairwise steps that only shuffle weight
    between already-discovered vertices (best against worst under the
    current gradient).  They matter in practice: the optimum sits on a
    high-dimensional face whose vertex representation oracle steps alone
    assemble too slowly for tight gaps.  Both step kinds take the exact
    minimizing step from ``_line_search`` (safeguarded Newton on the
    closed-form slope and curvature, a few slope evaluations per step); the
    candidate is then evaluated once and rejected if the objective rose.

    ``start_costs`` selects the initial vertex (the minimizer of that linear
    functional); the default starts from the phase-1 feasible vertex.
    Raises ``NumericError`` if the returned kernel fails ``validate_kernel``
    at 1e-7.
    """
    opts = opts or IbmotOptions()
    oracle = _WarmOracle(problem)
    if start_costs is None:
        start_costs = np.zeros(problem.shape)
    pi0 = oracle(np.asarray(start_costs, dtype=float))
    active = _ActiveSet(pi0)
    pi = pi0.ravel().copy()
    shape = problem.shape

    def f_of(flat: np.ndarray) -> float:
        return _objective_from_joint(problem, flat.reshape(shape))

    def grad_of(flat: np.ndarray) -> np.ndarray:
        return _gradient_from_joint(problem, flat.reshape(shape)).ravel()

    def fw_vertex_and_gap(flat: np.ndarray) -> tuple[np.ndarray, float]:
        grad = grad_of(flat)
        vertex = oracle(grad.reshape(shape)).ravel()
        return vertex, float(grad @ (flat - vertex))

    def search(flat: np.ndarray, direction: np.ndarray,
               theta_max: float) -> tuple[float, float]:
        theta = _line_search(problem, flat.reshape(shape),
                             direction.reshape(shape), theta_max)
        return theta, f_of(flat + theta * direction)

    value = f_of(pi)
    v_fw, gap = fw_vertex_and_gap(pi)
    iters = 0
    while gap > opts.gap_tol * (1.0 + abs(value)) and iters < opts.max_iter:
        iters += 1
        start = pi
        direction = v_fw - pi
        theta, cand = search(pi, direction, 1.0)
        if cand > value:
            theta, cand = 0.0, value
        pi = pi + theta * direction
        value = cand
        active.add(v_fw.reshape(shape), 1.0 - theta, theta)
        active.prune()
        pi, value = _pairwise_corrections(search, grad_of, active, pi, value,
                                          tol=0.1 * gap)
        if np.array_equal(pi, start):
            break  # stalled: every later iteration would repeat this one
        v_fw, gap = fw_vertex_and_gap(pi)

    gamma = pi.reshape(shape) / problem.mu.weights[:, None]
    row_sums = gamma.sum(axis=1, keepdims=True)
    gamma = gamma / np.where(row_sums > 0.0, row_sums, 1.0)
    try:
        validate_kernel(problem, gamma, 1e-7)
    except ConfigError as exc:
        raise NumericError(f"solver returned an infeasible kernel: {exc}") from exc
    quant = ibmot_objective_quantile(problem, gamma, validate=False)
    return IbmotSolution(
        problem=problem,
        gamma=gamma,
        objective_quantile=quant.value,
        objective_ki=quant.k_i,
        objective_ki_target=quant.k_i_target,
        iterations=iters,
        duality_gap=gap,
        converged=gap <= opts.gap_tol * (1.0 + abs(value)),
    )


def _pairwise_corrections(search, grad_of, active: _ActiveSet, pi: np.ndarray,
                          value: float, tol: float) -> tuple[np.ndarray, float]:
    """Shift weight from the worst active vertex to the best one.

    ``search(pi, direction, theta_max)`` returns the Newton line-search step
    on ``[0, theta_max]`` (the worst vertex's weight, so the full step drops
    it) and the objective there.  Runs until the internal pairwise gap drops
    below ``tol`` or ``_PAIRWISE_BUDGET`` steps are taken; the iterate stays
    inside the hull of the active set, so feasibility and the monotone
    objective are preserved.
    """
    for _ in range(_PAIRWISE_BUDGET):
        if active.weights.size < 2:
            break
        grad = grad_of(pi)
        scores = active.scores(grad)
        best = int(np.argmin(scores))
        worst = int(np.argmax(scores))
        pair_gap = float(scores[worst] - scores[best])
        if pair_gap <= tol or best == worst:
            break
        direction = active.vertices[best] - active.vertices[worst]
        theta_max = float(active.weights[worst])
        theta, cand = search(pi, direction, theta_max)
        if cand > value or theta <= 0.0:
            break
        pi = pi + theta * direction
        value = cand
        active.weights[worst] -= theta
        active.weights[best] += theta
        active.prune()
    return pi, value


# ---------------------------------------------------------------------------
# Brute-force oracle for small instances
# ---------------------------------------------------------------------------

def brute_force_small(problem: IbmotProblem, grid_points: int = 4001
                      ) -> tuple[np.ndarray, float]:
    """Independent optimum by dense search along the polytope's free direction.

    Valid when the feasible set has affine dimension <= 1 (e.g. 2x3
    instances).  Finds a feasible point, walks the null direction of the
    equality system to its positivity bounds, grid-scans the objective, and
    refines by golden section (the grid brackets the convex objective's
    minimizer, the refinement pins it to 1e-12).  The refinement uses
    objective values only, not the solver's slope formula, so the oracle
    stays independent of the code it certifies.
    """
    a, _ = problem.constraint_matrix()
    x0 = lp_oracle(np.zeros(problem.shape), problem).ravel()
    _, svals, vt = np.linalg.svd(a)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    null = vt[rank:]
    if null.shape[0] == 0:
        pi = x0.reshape(problem.shape)
        return pi, _objective_from_joint(problem, pi)
    if null.shape[0] > 1:
        raise ConfigError(
            f"brute-force oracle supports one free direction, found {null.shape[0]}"
        )
    d = null[0]
    with np.errstate(divide="ignore"):
        bounds = -x0 / np.where(np.abs(d) > 1e-14, d, np.nan)
    lo = np.nanmax(np.where(d > 1e-14, bounds, -np.inf))
    hi = np.nanmin(np.where(d < -1e-14, bounds, np.inf))
    lo = float(lo) if np.isfinite(lo) else 0.0
    hi = float(hi) if np.isfinite(hi) else 0.0
    if hi < lo:
        lo, hi = hi, lo

    thetas = np.linspace(lo, hi, grid_points)
    shape = problem.shape

    def value_at(theta: float) -> float:
        pi = np.clip(x0 + theta * d, 0.0, None).reshape(shape)
        return _objective_from_joint(problem, pi)

    vals = np.asarray([value_at(t) for t in thetas])
    best = int(np.argmin(vals))
    left = thetas[max(best - 1, 0)]
    right = thetas[min(best + 1, grid_points - 1)]
    theta, val = _golden_section(value_at, float(left), float(right), 1e-12)
    pi = np.clip(x0 + theta * d, 0.0, None).reshape(shape)
    return pi, val


# ---------------------------------------------------------------------------
# Discretization helper and Monte Carlo objective
# ---------------------------------------------------------------------------

def discretize_affine_kernel(kernel: CouplingKernel, m_atoms: int
                             ) -> tuple[IbmotProblem, np.ndarray, float]:
    """Quantile-discretize a one-step affine-branch coupling to a matrix kernel.

    Returns the induced problem (mu = discretized initial law, nu = exact
    pushforward of the discretization), the conditional matrix, and the
    discretized ``E[X_1^2]``.  The horizon must be set by the caller on the
    returned problem; this helper fixes it to 1.
    """
    if len(kernel.steps) != 1 or not isinstance(kernel.steps[0], AffineBranchKernel):
        raise ConfigError("discretization helper expects a one-step affine-branch kernel")
    mu = kernel.initial.discretize(m_atoms)
    step = kernel.steps[0]
    pairs: dict[float, int] = {}
    y_all: list[float] = []
    entries = []
    for i, x in enumerate(mu.values):
        for a_sl, c_ic, p in step.branches:
            yv = float(a_sl * x + c_ic)
            if yv not in pairs:
                pairs[yv] = len(y_all)
                y_all.append(yv)
            entries.append((i, pairs[yv], p))
    order = np.argsort(y_all)
    remap = {old: new for new, old in enumerate(order)}
    y_sorted = np.asarray(y_all, dtype=float)[order]
    gamma = np.zeros((mu.values.size, y_sorted.size))
    for i, j, p in entries:
        gamma[i, remap[j]] += p
    nu_w = mu.weights @ gamma
    keep = nu_w > 0
    nu = DiscreteMarginal(y_sorted[keep], nu_w[keep])
    gamma = gamma[:, keep]
    problem = IbmotProblem(mu, nu, horizon=1.0)
    ex2 = float(mu.weights @ (gamma @ (nu.values ** 2)))
    return problem, gamma, ex2


@dataclass(frozen=True)
class McObjective:
    """Two Monte Carlo estimators of the information objective."""

    k_i_time: float
    se_time: float
    k_i_endpoint: float
    se_endpoint: float
    diff: float
    diff_se: float
    n_paths: int

    def as_dict(self) -> dict:
        return {
            "k_i_time_integral": self.k_i_time, "se_time_integral": self.se_time,
            "k_i_endpoint": self.k_i_endpoint, "se_endpoint": self.se_endpoint,
            "difference": self.diff, "difference_se": self.diff_se,
            "n_paths": self.n_paths,
        }


def ibmot_objective_mc(kernel: CouplingKernel, horizon: float, n_paths: int,
                       seed: int, steps: int = 1000, t0: float = 0.0,
                       block_size: int = 20000) -> McObjective:
    """Path estimators of the objective on the randomized Brownian bridge.

    Estimator one integrates the weighted squared terminal error
    ``(X_1 - M_t)^2 sqrt(h2)/h3`` over time (trapezoid, left rectangle on
    the final step where the weight diverges); estimator two evaluates
    ``X_1 W_{T_1}`` from the innovations endpoint.  Both use the same paths,
    so their difference carries a paired standard error.  The time integral
    is reduced over blocks of ``_COPY_PATHS`` paths, so no temporary spans
    all paths and nodes.
    """
    from .arcade import ArcadeConfig
    from .drivers import _COPY_PATHS, brownian_driver
    from .fam import fam_paths
    from .partition import Partition, piecewise_linear_coefficients
    from .rap import RapConfig

    p = Partition((t0, t0 + horizon), steps_per_arc=steps)
    coeffs = piecewise_linear_coefficients(p)
    cfg = RapConfig(
        arcade=ArcadeConfig(brownian_driver(), coeffs),
        signal=coeffs.with_role("signal"),
        coupling=kernel,
        standard=True,
    )
    grid = p.grid
    t_hi = p.dates[-1]
    weight = 1.0 / (t_hi - grid[:-1])      # sqrt(h2)/h3 for the Brownian bridge
    dt = np.diff(grid)

    time_parts, end_parts = [], []
    done, block = 0, 0
    while done < n_paths:
        count = min(block_size, n_paths - done)
        trace = fam_paths(cfg, count, seed, block=block, with_innovations=True)
        x_end = trace.x[:, -1]
        part = np.empty(count)
        for p0 in range(0, count, _COPY_PATHS):
            rows = slice(p0, p0 + _COPY_PATHS)
            err = (x_end[rows, None] - trace.m_paths[rows, :-1]) ** 2 * weight
            # trapezoid on all but the last step, left rectangle on the final one
            part[rows] = 0.5 * (err[:, :-1] + err[:, 1:]) @ dt[:-1] + err[:, -1] * dt[-1]
        time_parts.append(part)
        end_parts.append(x_end * trace.w_paths[:, -1])
        done += count
        block += 1
    ti = np.concatenate(time_parts)
    ep = np.concatenate(end_parts)
    diff = ti - ep
    root_n = math.sqrt(ti.size)
    return McObjective(
        float(ti.mean()), float(ti.std(ddof=1)) / root_n,
        float(ep.mean()), float(ep.std(ddof=1)) / root_n,
        float(diff.mean()), float(diff.std(ddof=1)) / root_n,
        int(ti.size),
    )
