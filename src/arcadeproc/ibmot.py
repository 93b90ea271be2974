"""Information-based martingale optimal transport over discrete marginals.

The decision variable is a joint matrix ``pi`` on the atom grid of two
convexly ordered marginals, constrained to fixed marginals and row-wise
barycenters (the martingale transport polytope).  The objective is the
mu-average of the squared quantile distance between each conditional row and
the centered normal with the horizon variance; by completing the square this
is equivalent to maximizing the expected product of the terminal target with
the innovations endpoint.

The solver is damped Newton ascent on the concave dual over column prices
``psi`` (one per atom of the second marginal; weak duality as in Beiglboeck,
Henry-Labordere & Penkner, Finance Stoch. 2013).  In Abel form a row's
objective is linear in its weights plus terms ``I(c_j)`` of its cumulative
weights, with ``I = phi o Phi^{-1}``, so for fixed prices every row
minimizer is ``c_j = Phi(zeta_j - u_i)``: one pool-adjacent-violators pass
(Best & Chakravarti, Math. Prog. 1990) fixes the pooled slopes ``zeta``
for all rows, and one monotone scalar root per row meets its barycenter.
The gradient is the column residual (Danskin) and the Hessian is one
matrix product.  The dual value is a lower bound on the optimum at every
iterate, and the kernel built from the row minimizers plus the residual is
feasible once converged, so the reported duality gap certifies the
returned kernel.  Where the call functions of the marginals touch, no
martingale coupling crosses, and the dual would not be attained; the
problem is split there first (irreducible components, Beiglboeck &
Juillet, Ann. Probab. 2016).  A brute-force search over the polytope's null direction
(from the minimum-norm solution of the equality system, refined by bounded
Brent minimization on objective values) provides an independent oracle on
small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arcade import ArcadeConfig
from .coupling import (
    AffineBranchKernel,
    CouplingKernel,
    DiscreteMarginal,
    _call_values,
    _pdf,
    _phi_of_quantile,
    _special,
    convex_order_report,
)
from .drivers import brownian_driver
from .errors import ConfigError, InfeasibleError, NumericError
from .fam import _paired_mean_se, _paired_path_sums
from .partition import Partition, piecewise_linear_coefficients
from .rap import RapConfig
# unused by the solver: perfbench/tracing.py wraps this name until the
# benchmark drops its simplex metrics
from .simplex import linprog_simplex

__all__ = [
    "IbmotProblem",
    "IbmotSolution",
    "IbmotOptions",
    "w2sq_discrete_vs_gaussian",
    "ibmot_objective_quantile",
    "ibmot_objective_mc",
    "solve_ibmot",
    "brute_force_small",
    "discretize_affine_kernel",
    "induced_correlation",
]

_Q_CLIP = 1e-16
_EPS = float(np.finfo(float).eps)
_KERNEL_TOL = 1e-7         # feasibility tolerance of a returned kernel
_TOUCH = 1e-12             # call-function slack, per unit of support, that counts as touching
_ROUNDING = 1e-15          # kernel entries above -_ROUNDING count as zero
_ROOT_MAX_ITER = 100       # safeguarded Newton steps per barycenter root
_ARMIJO = 1e-4             # sufficient-rise fraction of a dual step
_MAX_RATIO = 10.0          # cap on sqrt(T / spread) in the default start
_DAMP = 0.1                # Newton damping per unit of gradient norm
_FLAT = 1000.0             # ulps of D below which a step's rise is not tested
_HALVINGS = 40             # backtracking halvings before a step is given up
_GRID_POINTS = 4001        # brute-force grid scan along the free direction


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
    """W2^2 between one discrete conditional law and N(0, tau), ``tau`` finite
    and >= 0; the atoms ``values`` are finite and strictly increasing, one
    per weight of ``gamma_row``."""
    if not 0.0 <= tau < math.inf:
        raise ConfigError(f"tau must be a finite variance >= 0, got {tau!r}")
    row = np.asarray(gamma_row, dtype=float)
    y = np.asarray(values, dtype=float)
    if y.ndim != 1 or y.shape != row.shape:
        raise ConfigError(f"values must be 1-d with one atom per weight, got shape "
                          f"{y.shape} for weights of shape {row.shape}")
    if not (np.all(np.isfinite(y)) and np.all(np.diff(y) > 0.0)):
        raise ConfigError(f"values must be finite and strictly increasing, got {values!r}")
    if np.any(row < -1e-12):
        raise ConfigError("conditional law has negative weights")
    total = row.sum()
    if abs(total - 1.0) > 1e-9:
        raise ConfigError("conditional law must sum to 1")
    return float(_w2sq_rows(row[None, :] / total, y, tau)[0])


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
    q = math.sqrt(tau) * _special().ndtri(cum)           # (rows, atoms-1)
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
        if not 0.0 < self.horizon < math.inf:
            raise ConfigError(f"horizon must be positive and finite, got {self.horizon!r}")
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
        rows = np.kron(np.eye(m), np.ones(n))            # row i: the mass of row i
        bary = np.where(rows > 0.0, np.tile(self.nu.values, m) - self.mu.values[:, None], 0.0)
        a = np.vstack([rows, np.tile(np.eye(n), m), bary])
        return a, np.concatenate([self.mu.weights, self.nu.weights, np.zeros(m)])


@dataclass(frozen=True)
class IbmotOptions:
    gap_tol: float = 1e-7
    max_iter: int = 5000

    def __post_init__(self):
        if not 0.0 <= self.gap_tol < math.inf:
            raise ConfigError(f"gap_tol must be finite and >= 0, got {self.gap_tol!r}")
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer))
                or self.max_iter < 0):
            raise ConfigError(f"max_iter must be an integer >= 0, got {self.max_iter!r}")


@dataclass(frozen=True)
class QuantileObjective:
    value: float             # E[(X_1 - W_T)^2] in quantile form
    k_i: float               # completed square with the kernel's own E[X_1^2]
    k_i_target: float | None = None  # completed square with the exact target moment


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


def induced_correlation(problem: IbmotProblem, gamma: np.ndarray) -> float | None:
    """Correlation of the coupled pair under ``mu_i gamma_ij`` (None for a point mass)."""
    mu_w, x = problem.mu.weights, problem.mu.values
    y = problem.nu.values
    e0 = float(mu_w @ x)
    e1 = float(mu_w @ (gamma @ y))
    exy = float((mu_w * x) @ (gamma @ y))
    v0 = float(mu_w @ (x * x)) - e0 * e0
    v1 = float(mu_w @ (gamma @ (y * y))) - e1 * e1
    if v0 <= 0.0 or v1 <= 0.0:
        return None
    return (exy - e0 * e1) / math.sqrt(v0 * v1)


# ---------------------------------------------------------------------------
# Dual Newton solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _DualPoint:
    """The dual function and its row minimizers at column prices ``psi``."""

    dpsi: np.ndarray        # (n-1,) price differences psi_{j+1} - psi_j
    value: float            # D(psi): a lower bound on the optimum for every psi
    rows: np.ndarray        # (m, n) row laws w_i(psi) minimizing F - psi . w
    residual: np.ndarray    # nu - sum_i mu_i w_i, the gradient of D
    z: np.ndarray           # (m, n-1) standardized cell boundaries
    pdf: np.ndarray         # (m, n-1) phi(z)
    u: np.ndarray           # (m,) barycenter multipliers over 2 sqrt(tau)
    pools: tuple            # (b, e): each boundary's pool spans atoms b..e


def _pooled_slopes(a: np.ndarray, dy: np.ndarray):
    """Nonincreasing ``dy``-weighted fit of ``a``: one pool-adjacent-violators
    pass.  Returns the fit and, per boundary, the first boundary ``b`` and
    one past the last ``e`` of its pool, which spans atoms ``b..e``.
    """
    sums: list[float] = []
    widths: list[float] = []
    starts: list[int] = []
    for j in range(a.size):
        sums.append(dy[j] * a[j])
        widths.append(dy[j])
        starts.append(j)
        while len(starts) > 1 and sums[-2] * widths[-1] < sums[-1] * widths[-2]:
            starts.pop()
            merged, width = sums.pop(), widths.pop()
            sums[-1] += merged
            widths[-1] += width
    bounds = np.asarray(starts + [a.size], dtype=int)
    sizes = np.diff(bounds)
    fit = np.repeat(np.divide(sums, widths), sizes)
    return fit, (np.repeat(bounds[:-1], sizes), np.repeat(bounds[1:], sizes))


def _dual_point(problem: IbmotProblem, dpsi: np.ndarray,
                u_start: np.ndarray | None = None) -> _DualPoint:
    """Evaluate ``D(psi) = psi . nu + sum_i mu_i min_{w . y = x_i} [F(w) - psi . w]``.

    In cumulative weights ``c_j`` a row's objective is
    ``s_n + tau + sum_j dy_j [a_j c_j - 2 sqrt(tau) I(c_j)]`` with
    ``s = y^2 - psi`` and ``a_j = (s_j - s_{j+1}) / dy_j``; the barycenter
    constraint is ``sum_j dy_j c_j = y_n - x_i``.  The monotone constraint
    on ``c`` fixes one pooling ``a_hat`` of ``a`` for every row, after which
    ``c_j = Phi(zeta_j - u_i)`` with ``zeta = -a_hat / (2 sqrt(tau))`` and
    one scalar ``u_i`` per row, the root of a monotone equation.  The row
    value is the Lagrangian at ``u_i`` in closed form, a valid lower bound
    on the row minimum at any ``u_i``, so ``D`` is a lower bound by
    construction.
    Every ``x_i`` must lie strictly inside the support of ``nu`` (rows at its
    ends are split off by ``_components``).

    The prices enter as their differences ``dpsi_j = psi_{j+1} - psi_j``
    (``psi_1 = 0``; ``D`` ignores constant shifts): ``a`` is formed from
    them directly, so its rounding does not grow with ``|psi|`` over a
    short cell.
    """
    x, mu_w = problem.mu.values, problem.mu.weights
    y, nu_w = problem.nu.values, problem.nu.weights
    two_rt = 2.0 * math.sqrt(problem.horizon)
    dy = np.diff(y)
    psi = np.concatenate([[0.0], np.cumsum(dpsi)])
    a_hat, pools = _pooled_slopes(dpsi / dy - (y[:-1] + y[1:]), dy)
    zeta = -a_hat / two_rt
    u = _barycenter_roots(zeta, dy, x - y[0], y[-1] - x, y[-1] - y[0], u_start)
    z = zeta[None, :] - u[:, None]
    lower, upper = _special().ndtr(z), _special().ndtr(-z)
    pdf = _pdf(z)
    # cell masses from the lower tail below the median, the upper above
    inner = np.where(z[:, :-1] > 0.0, upper[:, :-1] - upper[:, 1:],
                     lower[:, 1:] - lower[:, :-1])
    rows = np.hstack([lower[:, :1], inner, upper[:, -1:]])
    # z Phi(z) + phi(z) as max(z, 0) + rho(-|z|), accurate in both tails
    t = -np.abs(z)
    rho = np.maximum(z, 0.0) + (t * np.where(z > 0.0, upper, lower) + pdf)
    row_value = (y[-1] ** 2 - psi[-1] + problem.horizon
                 - two_rt * (u * (y[-1] - x) + rho @ dy))
    return _DualPoint(dpsi=dpsi, value=float(psi @ nu_w + mu_w @ row_value), rows=rows,
                      residual=nu_w - mu_w @ rows, z=z, pdf=pdf, u=u, pools=pools)


def _barycenter_roots(zeta, dy, lower, upper, span, start):
    """Solve ``sum_j dy_j Phi(u_i - zeta_j) = lower_i`` for every row at once.

    ``lower = x_i - y_1`` and ``upper = y_n - x_i``; rows nearer the top
    solve the mirrored equation ``sum_j dy_j Phi(zeta_j - u_i) = upper_i``
    so the small tail sets the precision.  Safeguarded Newton inside the
    bracket ``[min zeta, max zeta] + Phi^{-1}(lower / span)``; a row stops,
    before its multiplier is updated, once its residual or its Newton step
    is at rounding level.
    """
    near_bottom = lower <= upper
    sign = np.where(near_bottom, 1.0, -1.0)
    target = np.where(near_bottom, lower, upper)
    q = sign * _special().ndtri(target / span)
    lo, hi = zeta[0] + q, zeta[-1] + q
    u = 0.5 * (lo + hi) if start is None else np.clip(start, lo, hi)
    active = np.arange(u.size)
    for _ in range(_ROOT_MAX_ITER):
        ua, sg = u[active], sign[active]
        d = ua[:, None] - zeta[None, :]
        resid = sg * (_special().ndtr(sg[:, None] * d) @ dy - target[active])   # increasing in u
        slope = _pdf(d) @ dy
        scale = 4.0 * _EPS * (1.0 + np.abs(ua))
        done = ((np.abs(resid) <= 8.0 * _EPS * target[active])
                | (np.abs(resid) <= scale * slope)
                | (hi[active] - lo[active] <= scale))
        keep = ~done
        active, ua, resid, slope = active[keep], ua[keep], resid[keep], slope[keep]
        if not active.size:
            break
        hi[active] = np.where(resid > 0.0, ua, hi[active])
        lo[active] = np.where(resid < 0.0, ua, lo[active])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = ua - resid / slope
        inside = (newton > lo[active]) & (newton < hi[active])
        u[active] = np.where(inside, newton, 0.5 * (lo[active] + hi[active]))
    return u


def _dual_hessian(problem: IbmotProblem, point: _DualPoint) -> np.ndarray:
    """Hessian of ``D`` at ``point`` through the fixed pooling and the roots.

    With ``P = phi(z)``, ``V = P dy``, ``S = V 1``, ``A = d a_hat / d psi``
    and ``Delta`` the map from cumulative weights to cell masses, it is
    ``Delta [diag(mu^T P) - P^T diag(mu / S) V] A / (2 sqrt(tau))``.
    """
    mu_w = problem.mu.weights
    y = problem.nu.values
    n = y.size
    p = point.pdf
    v = p * np.diff(y)
    total = v.sum(axis=1)
    coef = np.divide(mu_w, total, out=np.zeros_like(total), where=total > 0.0)
    inner = np.diag(mu_w @ p) - p.T @ (coef[:, None] * v)
    b, e = point.pools
    slopes = np.zeros((n - 1, n))
    rows = np.arange(n - 1)
    width = y[e] - y[b]
    slopes[rows, b] = -1.0 / width
    slopes[rows, e] = 1.0 / width
    cumulative = inner @ slopes
    cells = np.vstack([cumulative[:1], np.diff(cumulative, axis=0), -cumulative[-1:]])
    return cells / (2.0 * math.sqrt(problem.horizon))


def solve_ibmot(problem: IbmotProblem, opts: IbmotOptions | None = None,
                start_prices: np.ndarray | None = None) -> IbmotSolution:
    """Damped Newton ascent on the concave dual over the column prices.

    The problem first splits into its irreducible components (see
    ``_components``); each is solved by ``_newton`` and a row at a touching
    point is a point mass.  ``D(psi)`` (see ``_dual_point``) is a lower
    bound on a component's optimum at every ``psi``, so their ``mu``-mass
    weighted sum, plus the forced values of the point-mass rows, bounds the
    optimum.  ``duality_gap`` is the objective of the returned kernel minus
    that bound, clamped at 0 against rounding; kernel entries down to
    ``-_ROUNDING`` count as zero.  The solve is ``converged`` when the gap
    is at most ``gap_tol * (1 + |objective|)``, which holds once every
    component meets the same test.

    ``start_prices`` sets the initial ``psi`` of every component, restricted
    to its atoms (default: see ``_newton``).  Raises ``InfeasibleError`` if
    the marginals are not in convex order (checked here when the problem
    skipped its own check), and ``NumericError`` if the returned kernel has
    an entry below ``-_ROUNDING`` (a run stopped early) or fails
    ``validate_kernel`` at 1e-7.
    """
    opts = opts or IbmotOptions()
    if not problem.validate:
        ok, worst, witness = convex_order_report(problem.mu, problem.nu)
        if not ok:
            raise InfeasibleError(f"marginals are not in convex order (violation {worst:.3e})",
                                  witness=witness)
    x = problem.mu.values
    mu_w = problem.mu.weights
    gamma = np.zeros(problem.shape)
    bound, iters = 0.0, 0
    for rows, cols, mass, sub in _components(problem):
        if sub is None:
            gamma[rows, cols] = 1.0
            bound += float(mu_w[rows] @ (x[rows] ** 2 + problem.horizon))
            continue
        start = None if start_prices is None else np.asarray(start_prices, float)[cols]
        part, dual, newton_iters = _newton(sub, opts, start)
        gamma[np.ix_(rows, cols)] = part
        bound += mass * dual
        iters += newton_iters

    if gamma.min() < -_ROUNDING:
        raise NumericError(f"solver stopped at a kernel with negative entries "
                           f"(min {gamma.min():.3e})")
    try:
        validate_kernel(problem, gamma, _KERNEL_TOL)
    except ConfigError as exc:
        raise NumericError(f"solver returned an infeasible kernel: {exc}") from exc
    quant = ibmot_objective_quantile(problem, gamma, validate=False)
    gap = _certified_gap(quant.value, bound, gamma)
    return IbmotSolution(
        problem=problem,
        gamma=gamma,
        objective_quantile=quant.value,
        objective_ki=quant.k_i,
        objective_ki_target=quant.k_i_target,
        iterations=iters,
        duality_gap=gap,
        converged=gap <= opts.gap_tol * (1.0 + abs(quant.value)),
    )


def _components(problem: IbmotProblem):
    """Irreducible components of the marginal pair (Beiglboeck & Juillet,
    Ann. Probab. 2016).

    Where the call functions touch, ``E(Y - k)^+ = E(X - k)^+``, Jensen's
    inequality is tight, so every martingale coupling keeps each row on one
    side of ``k`` and a row at ``k`` is a point mass there.  The touching
    points split the problem into open intervals; an atom of ``nu`` at a cut
    is shared, and each side's share follows from its mass and mean.
    Yields ``(rows, cols, mass, sub)`` per interval, ``sub`` the normalized
    subproblem and ``mass`` its ``mu`` mass, and one
    ``(rows, cols, 1, None)`` for all point-mass rows, each at the atom of
    ``nu`` nearest to it.  A pair that does not split yields ``problem``
    itself.
    """
    x, mu_w = problem.mu.values, problem.mu.weights
    y, nu_w = problem.nu.values, problem.nu.weights
    kinks = np.union1d(x, y)
    slack = _call_values(problem.nu, kinks) - _call_values(problem.mu, kinks)
    cuts = kinks[slack <= _TOUCH * (y[-1] - y[0])]
    point = np.isin(x, cuts)
    if point.any():
        nearest = np.argmin(np.abs(y[None, :] - x[point, None]), axis=1)
        yield np.nonzero(point)[0], nearest, 1.0, None
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        rows = np.nonzero((x > lo) & (x < hi))[0]
        if not rows.size:
            continue
        if rows.size == x.size and cuts.size == 2:
            yield rows, np.arange(y.size), 1.0, problem
            return
        inside = np.nonzero((y > lo) & (y < hi))[0]
        mass, moment = float(mu_w[rows].sum()), float(mu_w[rows] @ x[rows])
        rest, rest_moment = mass - nu_w[inside].sum(), moment - nu_w[inside] @ y[inside]
        share_hi = (rest_moment - lo * rest) / (hi - lo)
        cols, weights = [inside], [nu_w[inside]]
        for end, share in ((lo, rest - share_hi), (hi, share_hi)):
            j = np.searchsorted(y, end)
            if share > 0.0 and j < y.size and y[j] == end:
                cols.append([j])
                weights.append([share])
        cols, weights = np.concatenate(cols), np.concatenate(weights)
        order = np.argsort(cols)
        cols, weights = cols[order], weights[order]
        sub = IbmotProblem(DiscreteMarginal(x[rows], mu_w[rows] / mass),
                           DiscreteMarginal(y[cols], weights / weights.sum()),
                           problem.horizon, validate=False)
        yield rows, cols, mass, sub


def _newton(problem: IbmotProblem, opts: IbmotOptions,
            start_prices: np.ndarray | None) -> tuple[np.ndarray, float, int]:
    """Kernel, dual bound and Newton iterations for one component.

    The kernel of an iterate is ``w_i(psi) + r`` on every row, with
    ``r = nu - sum_i mu_i w_i``: rows and barycenters hold as in ``w`` and
    the columns close exactly, so the objective minus ``D(psi)`` certifies
    it.  The gap is tested at every iterate.  A run stops once it is below
    ``gap_tol * (1 + |objective|)``, after ``max_iter`` Newton steps, or
    when no step can raise ``D`` any more; so ``gap_tol = 0`` runs to the
    last step rounding lets through.

    A step solves ``(delta I - H) step = r`` by least squares, with ``H``
    the Hessian of ``D`` and ``delta = _DAMP |r|``: ``psi`` has two null
    directions (constants and ``y``), and where a pool empties an atom
    ``D`` is linear in its price, which only the damping moves.  Steps
    backtrack until Armijo's condition holds (see ``_backtrack``).

    The default start ``(1 - sqrt(T / s2)) y^2``, with
    ``s2 = Var(nu) - Var(mu)`` and the root capped at ``_MAX_RATIO``,
    starts each row at ``N(x_i, s2)`` cut at the atom midpoints: the
    Brownian coupling, optimal for Gaussian marginals in the continuum.
    """
    mu_w = problem.mu.weights
    y = problem.nu.values
    if start_prices is None:
        spread = problem.nu.variance() - problem.mu.variance()
        ratio = math.sqrt(problem.horizon / spread) if spread > 0.0 else 1.0
        start_prices = (1.0 - min(ratio, _MAX_RATIO)) * y * y
    point = _dual_point(problem, np.diff(start_prices))
    iters = 0
    while True:
        gamma = point.rows + point.residual[None, :]
        value = _objective_from_joint(problem, mu_w[:, None] * gamma)
        gap = _certified_gap(value, point.value, gamma)
        if gap < opts.gap_tol * (1.0 + abs(value)) or iters >= opts.max_iter:
            return gamma, point.value, iters
        hess = _dual_hessian(problem, point)
        damping = _DAMP * np.linalg.norm(point.residual)
        step = np.linalg.lstsq(damping * np.eye(hess.shape[0]) - hess, point.residual,
                               rcond=None)[0]
        trial = _backtrack(problem, point, step)
        if trial is None:
            return gamma, point.value, iters
        point = trial
        iters += 1


def _certified_gap(value: float, dual: float, gamma: np.ndarray) -> float:
    """Primal minus dual value, clamped at 0 against rounding; infinite while
    the kernel has an entry below ``-_ROUNDING``."""
    return max(value - dual, 0.0) if gamma.min() >= -_ROUNDING else math.inf


def _backtrack(problem: IbmotProblem, point: _DualPoint,
               step: np.ndarray) -> _DualPoint | None:
    """The next iterate along a Newton step, or ``None`` if there is none.

    Tries ``t = 1, 1/2, ...`` until ``D`` rises by ``_ARMIJO * t * gain``,
    ``gain`` being the rise the step predicts.  Once ``gain`` is within
    ``_FLAT`` ulps of ``D``, rounding hides the rise while the gradient can
    still be far above it (the far-tail columns of a fine grid); then the
    full step is taken if it halves the gradient norm.
    """
    gain = float(point.residual @ step)
    if not gain > 0.0:
        return None
    if gain <= _FLAT * _EPS * (1.0 + abs(point.value)):
        trial = _dual_point(problem, point.dpsi + np.diff(step), point.u)
        shrunk = np.linalg.norm(trial.residual) <= 0.5 * np.linalg.norm(point.residual)
        return trial if shrunk else None
    t = 1.0
    for _ in range(_HALVINGS):
        trial = _dual_point(problem, point.dpsi + t * np.diff(step), point.u)
        if trial.value > point.value + _ARMIJO * t * gain:
            return trial
        t *= 0.5
    return None


# ---------------------------------------------------------------------------
# Brute-force oracle for small instances
# ---------------------------------------------------------------------------

def brute_force_small(problem: IbmotProblem) -> tuple[np.ndarray, float]:
    """Independent optimum by dense search along the polytope's free direction.

    Valid when the feasible set has affine dimension <= 1 (e.g. 2x3
    instances).  One SVD of the equality system gives its minimum-norm
    solution and null direction, walked to the positivity bounds: that
    interval is the whole feasible set (``InfeasibleError`` when empty).  A
    grid scan brackets the convex objective's minimizer and bounded Brent
    minimization refines it, on objective values only, so the oracle stays
    independent of the solver's slope formula.
    """
    from scipy.optimize import minimize_scalar

    a, b = problem.constraint_matrix()
    u, svals, vt = np.linalg.svd(a)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    x0 = vt[:rank].T @ ((u[:, :rank].T @ b) / svals[:rank])
    if np.max(np.abs(a @ x0 - b)) > _KERNEL_TOL:
        raise InfeasibleError("the polytope's equality system has no solution")
    null = vt[rank:]
    if null.shape[0] > 1:
        raise ConfigError(
            f"brute-force oracle supports one free direction, found {null.shape[0]}"
        )
    d = null[0] if null.shape[0] else np.zeros_like(x0)
    up, down = d > 1e-14, d < -1e-14
    lo = float(np.max(-x0[up] / d[up], initial=-np.inf))
    hi = float(np.min(-x0[down] / d[down], initial=np.inf))
    if lo > hi + _KERNEL_TOL or np.any(x0[~(up | down)] < -_KERNEL_TOL):
        raise InfeasibleError("the martingale transport polytope is empty")
    shape = problem.shape
    if not up.any():                    # no free direction: the polytope is x0
        pi = np.clip(x0, 0.0, None).reshape(shape)
        return pi, _objective_from_joint(problem, pi)
    lo, hi = min(lo, hi), max(lo, hi)   # a single point, up to rounding

    def kernel_at(theta):
        return np.clip(x0 + np.multiply.outer(theta, d), 0.0, None).reshape(
            *np.shape(theta), *shape)

    mu_w = problem.mu.weights
    thetas = np.linspace(lo, hi, _GRID_POINTS)
    rows = (kernel_at(thetas) / mu_w[:, None]).reshape(-1, shape[1])
    w2 = _w2sq_rows(rows, problem.nu.values, problem.horizon)
    best = int(np.argmin(w2.reshape(_GRID_POINTS, shape[0]) @ mu_w))
    left, right = thetas[max(best - 1, 0)], thetas[min(best + 1, _GRID_POINTS - 1)]
    # Brent's tolerance grows with |x|: search the offset from ``left``
    res = minimize_scalar(lambda s: _objective_from_joint(problem, kernel_at(left + s)),
                          bounds=(0.0, right - left), method="bounded",
                          options={"xatol": 1e-12})
    return kernel_at(left + res.x), float(res.fun)


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
    slope, icept, prob = np.asarray(kernel.steps[0].branches).T
    m = mu.values.size
    y, col = np.unique((np.multiply.outer(mu.values, slope) + icept).ravel(),
                       return_inverse=True)
    gamma = np.zeros((m, y.size))
    # unbuffered, in row-then-branch order: a repeated (row, value) sums as the loop did
    np.add.at(gamma, (np.repeat(np.arange(m), prob.size), col.ravel()), np.tile(prob, m))
    nu_w = mu.weights @ gamma
    keep = nu_w > 0
    nu = DiscreteMarginal(y[keep], nu_w[keep])
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
                       seed: int, steps: int = 1000, block_size: int = 20000
                       ) -> McObjective:
    """Path estimators of the objective on the randomized Brownian bridge.

    Estimator one integrates the weighted squared terminal error
    ``(X_1 - M_t)^2 sqrt(h2)/h3`` over time (trapezoid, left rectangle on
    the final step where the weight diverges); estimator two evaluates
    ``X_1 W_{T_1}`` from the innovations endpoint.  Both use the same paths,
    so their difference carries a paired standard error, which needs at
    least two paths.  Both are reduced node row by node row as the path
    march yields them, so no ``M`` or ``W`` array is kept.
    """
    ti, ep = _mc_path_estimators(_bridge_config(kernel, horizon, steps),
                                 n_paths, seed, block_size)
    return McObjective(*_paired_mean_se(ti, ep), int(ti.size))


def _bridge_config(kernel: CouplingKernel, horizon: float, steps: int):
    """The standard randomized Brownian bridge on ``[0, horizon]``."""
    coeffs = piecewise_linear_coefficients(Partition((0.0, horizon), steps_per_arc=steps))
    return RapConfig(
        arcade=ArcadeConfig(brownian_driver(), coeffs),
        signal=coeffs.with_role("signal"),
        coupling=kernel,
        standard=True,
    )


def _mc_path_estimators(cfg, n_paths: int, seed: int,
                        block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-path time-integral and endpoint estimators on the one-arc bridge
    ``cfg``, from :func:`arcadeproc.fam._paired_path_sums`."""
    p = cfg.partition
    grid = p.grid
    dt = np.diff(grid)
    # Trapezoid on all but the last step, left rectangle on the final one,
    # times sqrt(h2)/h3 = 1/(T_1 - t) of the Brownian bridge.
    weights = 0.5 * (np.append(dt[:-1], 0.0) + np.insert(dt[:-1], 0, 0.0))
    weights[-1] += dt[-1]
    weights /= p.tn - grid[:-1]

    def reduce(x, blocks):
        x_end = x[:, -1]
        part = np.zeros(x_end.size)
        err = np.empty(x_end.size)
        # the final date has no weight, so zip skips its row
        for out in blocks:
            for wk, m in zip(weights[out.nodes].tolist(), out.m):
                np.subtract(x_end, m, out=err)
                np.multiply(err, err, out=err)
                part += np.multiply(err, wk, out=err)
        return part, x_end * out.w[0]

    return _paired_path_sums(cfg, n_paths, seed, block_size, reduce,
                             with_innovations=True, with_volatility=False)
