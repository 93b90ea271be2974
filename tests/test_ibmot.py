"""Quantile moments, objective forms, gradient, solver, and oracles."""

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtri

from arcadeproc import (
    ConfigError,
    IbmotOptions,
    IbmotProblem,
    InfeasibleError,
    NumericError,
    brute_force_small,
    gaussian_marginal,
    ibmot_objective_mc,
    ibmot_objective_quantile,
    solve_ibmot,
    uniform_marginal,
    w2sq_discrete_vs_gaussian,
)
from arcadeproc.coupling import DiscreteMarginal, brownian_coupling, uniform_mot_kernel
from arcadeproc.ibmot import (
    _dual_hessian,
    _dual_point,
    _gradient_from_joint,
    _objective_from_joint,
    _phi_of_quantile,
    _w2sq_rows,
    discretize_affine_kernel,
    induced_correlation,
    validate_kernel,
)

PHI0 = 1.0 / np.sqrt(2.0 * np.pi)


def _quad_first_moment(a, b, tau):
    f1, _ = integrate.quad(lambda u: np.sqrt(tau) * ndtri(u), a, b, limit=200)
    return f1


def _first_moment(a, b, tau):
    """``int_a^b`` of the N(0, tau) quantile, ``sqrt(tau) (phi(z_a) - phi(z_b))``:
    the quantile-cell integral that ``_w2sq_rows`` takes from ``_phi_of_quantile``."""
    phi_a, phi_b = _phi_of_quantile(np.array([a, b]))
    return float(np.sqrt(tau) * (phi_a - phi_b))


class TestPartialMoments:
    """The first partial moment of the Gaussian quantile from
    ``_phi_of_quantile``, against closed values and quadrature."""

    def test_full_interval(self):
        assert _first_moment(0.0, 1.0, 1.7) == pytest.approx(0.0, abs=1e-15)

    def test_half_interval_value(self):
        first = _first_moment(0.0, 0.5, 1.0)
        assert first == pytest.approx(-PHI0, abs=1e-12)
        assert first == pytest.approx(-0.3989423, abs=5e-8)

    @pytest.mark.parametrize("a,b,tau", [
        (0.1, 0.9, 1.0), (0.0, 0.25, 2.0), (0.6, 1.0, 0.5), (0.33, 0.34, 1.3),
    ])
    def test_against_quadrature(self, a, b, tau):
        assert _first_moment(a, b, tau) == pytest.approx(_quad_first_moment(a, b, tau),
                                                         abs=1e-10)

    def test_odd_symmetry(self):
        a, b, tau = 0.2, 0.45, 1.3
        assert _first_moment(a, b, tau) == pytest.approx(-_first_moment(1.0 - b, 1.0 - a, tau),
                                                         abs=1e-13)


class TestW2Squared:
    def test_point_mass(self):
        assert w2sq_discrete_vs_gaussian([1.0], [2.0], 1.5) == pytest.approx(
            4.0 + 1.5, abs=1e-12)

    def test_two_equal_atoms(self):
        got = w2sq_discrete_vs_gaussian([0.5, 0.5], [-1.0, 1.0], 1.0)
        assert got == pytest.approx(2.0 - 4.0 * PHI0, abs=1e-12)
        # quadrature oracle in z-space (alpha = Phi(z) substitution)
        from scipy.stats import norm
        left, _ = integrate.quad(lambda z: (-1.0 - z) ** 2 * norm.pdf(z),
                                 -np.inf, 0.0)
        right, _ = integrate.quad(lambda z: (1.0 - z) ** 2 * norm.pdf(z),
                                  0.0, np.inf)
        assert got == pytest.approx(left + right, abs=1e-10)

    def test_unequal_weights_match_quadrature(self):
        # cell boundaries at 0.1 and 0.4 put Phi^{-1} away from the median
        weights, values, tau = [0.1, 0.3, 0.6], [-1.5, 0.2, 0.9], 1.3
        got = w2sq_discrete_vs_gaussian(weights, values, tau)
        from scipy.stats import norm
        edges = ndtri(np.concatenate([[0.0], np.cumsum(weights)[:-1], [1.0]]))
        want = sum(integrate.quad(lambda z, y=y: (y - np.sqrt(tau) * z) ** 2 * norm.pdf(z),
                                  lo, hi)[0]
                   for y, lo, hi in zip(values, edges[:-1], edges[1:]))
        assert got == pytest.approx(want, abs=1e-10)

    def test_fine_gaussian_row_approaches_shift(self):
        x, tau = 0.8, 1.0
        row = gaussian_marginal(x, tau, 200)
        got = w2sq_discrete_vs_gaussian(row.weights, row.values, tau)
        assert abs(got - x * x) / (x * x) <= 0.01

    def test_zero_weight_cells_skipped(self):
        with_zero = w2sq_discrete_vs_gaussian([0.5, 0.0, 0.5], [-1.0, 0.0, 1.0], 1.0)
        without = w2sq_discrete_vs_gaussian([0.5, 0.5], [-1.0, 1.0], 1.0)
        assert with_zero == pytest.approx(without, abs=1e-14)

    def test_row_validation(self):
        with pytest.raises(ConfigError):
            w2sq_discrete_vs_gaussian([0.7, 0.7], [0.0, 1.0], 1.0)

    @pytest.mark.parametrize("tau", [-1.0, float("nan"), float("inf")])
    def test_bad_tau_is_config_error(self, tau):
        with pytest.raises(ConfigError, match="tau"):
            w2sq_discrete_vs_gaussian([0.5, 0.5], [0.0, 1.0], tau)

    def test_zero_tau_is_the_second_moment(self):
        assert w2sq_discrete_vs_gaussian([0.5, 0.5], [0.0, 1.0], 0.0) == 0.5

    @pytest.mark.parametrize("values, match", [
        ([[0.0, 1.0]], "1-d"),                          # not 1-d
        ([0.0, 1.0, 2.0], "one atom per weight"),       # not the row's length
        ([0.0, float("nan")], "finite"),                # not finite
        ([1.0, 0.0], "increasing"),                     # decreasing: 2.298, sorted 0.702
        ([0.5, 0.5], "increasing"),                     # a repeated atom
    ])
    def test_bad_values_are_config_errors(self, values, match):
        with pytest.raises(ConfigError, match=match):
            w2sq_discrete_vs_gaussian([0.5, 0.5], values, 1.0)


class TestGradient:
    def test_directional_derivatives(self):
        rng = np.random.default_rng(42)
        y = np.sort(rng.normal(size=7))
        p0 = rng.dirichlet(np.ones(7))
        grad = _w2sq_gradient(p0, y, 1.3)
        for _ in range(6):
            d = rng.normal(size=7)
            d -= d.mean()  # feasible direction on the simplex
            eps = 1e-7
            up = _w2sq_rows((p0 + eps * d)[None, :], y, 1.3)[0]
            dn = _w2sq_rows((p0 - eps * d)[None, :], y, 1.3)[0]
            assert grad @ d == pytest.approx((up - dn) / (2 * eps), abs=2e-6)

    def test_joint_gradient_matches_rows(self):
        mu = uniform_marginal(-1.0, 1.0, 4)
        nu = uniform_marginal(-2.0, 2.0, 6)
        problem = IbmotProblem(mu, nu, 1.0)
        pi = solve_ibmot(problem).joint()
        grad = _gradient_from_joint(problem, pi)
        rows = pi / mu.weights[:, None]
        for i in range(4):
            assert np.allclose(grad[i], _w2sq_gradient(rows[i], nu.values, 1.0))


def _w2sq_gradient(p, y, tau):
    from arcadeproc.ibmot import _w2sq_gradient_rows
    return _w2sq_gradient_rows(np.asarray(p)[None, :], np.asarray(y, float), tau)[0]


class TestObjectiveForms:
    def test_delta_to_delta(self):
        mu = DiscreteMarginal(np.asarray([0.0]), np.asarray([1.0]))
        problem = IbmotProblem(mu, mu, horizon=2.0)
        q = ibmot_objective_quantile(problem, np.asarray([[1.0]]))
        assert q.value == pytest.approx(2.0, abs=1e-12)
        assert q.k_i == pytest.approx(0.0, abs=1e-12)

    def test_brownian_fine_discretization(self):
        # Gaussian rows N(x, T) at a fine grid: value -> sigma^2, K_I -> T
        m = 200
        mu = gaussian_marginal(0.0, 1.0, m)
        nu = gaussian_marginal(0.0, 2.0, 2 * m)
        problem = IbmotProblem(mu, nu, 1.0, validate=False,
                               target_second_moment=2.0)
        # build near-feasible rows: discretized N(x_i, 1) on nu's support
        gamma = np.zeros((m, nu.values.size))
        for i, x in enumerate(mu.values):
            cell_edges = np.concatenate([[-np.inf],
                                         0.5 * (nu.values[1:] + nu.values[:-1]),
                                         [np.inf]])
            from scipy.special import ndtr
            probs = np.diff(ndtr(cell_edges - x))
            gamma[i] = probs / probs.sum()
        q = ibmot_objective_quantile(problem, gamma, validate=False)
        assert q.value == pytest.approx(1.0, rel=0.02)
        assert q.k_i == pytest.approx(1.0, rel=0.02)

    def test_k_i_upper_bound(self):
        # K_I <= E[X_1^2] - E[X_0^2] at any feasible kernel
        mu = uniform_marginal(-1.0, 1.0, 9)
        nu = uniform_marginal(-2.0, 2.0, 9)
        problem = IbmotProblem(mu, nu, 1.0)
        q = ibmot_objective_quantile(problem, solve_ibmot(problem).gamma)
        bound = nu.second_moment() - mu.second_moment()
        assert q.k_i <= bound + 1e-9

    def test_kernel_validation_raises(self):
        mu = uniform_marginal(-1.0, 1.0, 3)
        nu = uniform_marginal(-2.0, 2.0, 3)
        problem = IbmotProblem(mu, nu, 1.0)
        bad = np.full((3, 3), 1.0 / 3.0)  # columns fine, martingale broken
        with pytest.raises(ConfigError):
            ibmot_objective_quantile(problem, bad)


class TestProblem:
    def test_convex_order_enforced(self):
        mu = DiscreteMarginal(np.asarray([1.0]), np.asarray([1.0]))
        nu = DiscreteMarginal(np.asarray([0.0]), np.asarray([1.0]))
        with pytest.raises(InfeasibleError) as err:
            IbmotProblem(mu, nu, 1.0)
        assert err.value.witness["kind"] == "mean"

    def test_call_function_witness(self):
        mu = DiscreteMarginal(np.asarray([-2.0, 2.0]), np.asarray([0.5, 0.5]))
        nu = DiscreteMarginal(np.asarray([-1.0, 1.0]), np.asarray([0.5, 0.5]))
        with pytest.raises(InfeasibleError) as err:
            IbmotProblem(mu, nu, 1.0)
        assert err.value.witness["kind"] == "call_function"

    def test_options_take_zero_but_reject_negative_and_fractional(self):
        IbmotOptions(gap_tol=0.0, max_iter=0)
        for bad in ({"gap_tol": -1e-9}, {"gap_tol": np.inf}, {"max_iter": 2.0},
                    {"max_iter": True}):
            with pytest.raises(ConfigError):
                IbmotOptions(**bad)


    def test_constraint_matrix_matches_the_loop_construction(self):
        mu = DiscreteMarginal(np.asarray([-0.5, 0.1, 0.4]), np.asarray([0.3, 0.3, 0.4]))
        nu = DiscreteMarginal(np.asarray([-2.0, -0.3, 0.6, 1.5]),
                              np.asarray([0.1, 0.4, 0.3, 0.2]))
        problem = IbmotProblem(mu, nu, 1.0, validate=False)   # the system needs no order
        m, n = problem.shape
        want_a, want_b = np.zeros((2 * m + n, m * n)), np.zeros(2 * m + n)
        for i in range(m):
            want_a[i, i * n: (i + 1) * n] = 1.0
            want_b[i] = mu.weights[i]
            want_a[m + n + i, i * n: (i + 1) * n] = nu.values - mu.values[i]
        for j in range(n):
            want_a[m + j, j::n] = 1.0
            want_b[m + j] = nu.weights[j]
        a, b = problem.constraint_matrix()
        assert (a.shape, a.tobytes(), b.tobytes()) == (want_a.shape, want_a.tobytes(),
                                                       want_b.tobytes())


def _discretize_affine_loop(kernel, m_atoms):
    """The dict-and-loop construction ``discretize_affine_kernel`` replaced."""
    mu = kernel.initial.discretize(m_atoms)
    pairs, y_all, entries = {}, [], []
    for i, x in enumerate(mu.values):
        for a_sl, c_ic, p in kernel.steps[0].branches:
            yv = float(a_sl * x + c_ic)
            if yv not in pairs:
                pairs[yv] = len(y_all)
                y_all.append(yv)
            entries.append((i, pairs[yv], p))
    order = np.argsort(y_all)
    remap = {old: new for new, old in enumerate(order)}
    gamma = np.zeros((mu.values.size, len(y_all)))
    for i, j, p in entries:
        gamma[i, remap[j]] += p
    keep = mu.weights @ gamma > 0
    return np.asarray(y_all)[order][keep], gamma[:, keep]


class TestSolver:
    def test_point_polytope_solution(self):
        mu = DiscreteMarginal(np.asarray([0.0]), np.asarray([1.0]))
        nu = DiscreteMarginal(np.asarray([-1.0, 1.0]), np.asarray([0.5, 0.5]))
        sol = solve_ibmot(IbmotProblem(mu, nu, 1.0))
        assert np.allclose(sol.gamma, [[0.5, 0.5]], atol=1e-9)
        assert sol.converged

    def test_two_by_three_matches_bruteforce(self):
        # converged solves match brute force; truncated solves (max_iter 1-3,
        # gap_tol 0) never sit further above the optimum than their gap says,
        # and may only fail while their kernel still has a negative entry
        for problem in _two_by_three_problems():
            sol = solve_ibmot(problem, IbmotOptions(gap_tol=1e-8, max_iter=500))
            _, val_bf = brute_force_small(problem)
            assert sol.objective_quantile == pytest.approx(val_bf, abs=1e-5)
            for max_iter in (1, 2, 3):
                try:
                    part = solve_ibmot(problem, IbmotOptions(gap_tol=0.0, max_iter=max_iter))
                except NumericError as exc:
                    assert "negative entries" in str(exc)
                    continue
                assert part.objective_quantile - val_bf <= part.duality_gap + 1e-9
                assert part.objective_quantile - part.duality_gap <= val_bf + 1e-9

    def test_gap_belongs_to_returned_kernel(self):
        # a solve stopped by max_iter reports objective minus a lower bound
        # of the optimum, for the feasible kernel it returns
        mu = gaussian_marginal(0.0, 1.0, 8)
        nu = gaussian_marginal(0.0, 2.0, 8)
        problem = IbmotProblem(mu, nu, 1.0)
        best = solve_ibmot(problem, IbmotOptions(gap_tol=1e-13))
        assert best.converged
        partial = []
        for max_iter in (1, 2, 3):
            try:
                partial.append(solve_ibmot(problem, IbmotOptions(gap_tol=0.0, max_iter=max_iter)))
            except NumericError as exc:
                assert "negative entries" in str(exc)
        assert any(not sol.converged for sol in partial)
        for sol in partial:
            validate_kernel(problem, sol.gamma, tol=1e-12)
            assert sol.objective_quantile == ibmot_objective_quantile(problem, sol.gamma).value
            assert sol.objective_quantile >= best.objective_quantile - best.duality_gap - 1e-12
            assert sol.objective_quantile - best.objective_quantile <= sol.duality_gap + 1e-9

    def test_infeasible_result_raises_numeric_error(self, monkeypatch):
        # a row solve that misses the barycenters must not be returned as a
        # solution, nor reported as a config error
        mu = uniform_marginal(-1.0, 1.0, 2)
        nu = uniform_marginal(-2.0, 2.0, 3)
        problem = IbmotProblem(mu, nu, 1.0)
        monkeypatch.setattr("arcadeproc.ibmot._barycenter_roots",
                            lambda zeta, dy, lower, upper, span, start: np.zeros(lower.size))
        with pytest.raises(NumericError):
            solve_ibmot(problem, IbmotOptions(max_iter=3))

    def test_atom_outside_the_support_is_infeasible(self):
        mu = DiscreteMarginal(np.asarray([-3.0, 3.0]), np.asarray([0.5, 0.5]))
        nu = DiscreteMarginal(np.asarray([-2.0, 2.0]), np.asarray([0.5, 0.5]))
        with pytest.raises(InfeasibleError):
            solve_ibmot(IbmotProblem(mu, nu, 1.0, validate=False))

    def test_feasibility_preserved(self):
        mu = gaussian_marginal(0.0, 1.0, 8)
        nu = gaussian_marginal(0.0, 2.0, 8)
        problem = IbmotProblem(mu, nu, 1.0)
        sol = solve_ibmot(problem, IbmotOptions(gap_tol=1e-6))
        validate_kernel(problem, sol.gamma, tol=1e-7)

    def test_fifteen_atom_benchmark(self):
        mu = gaussian_marginal(0.0, 1.0, 15)
        nu = gaussian_marginal(0.0, 2.0, 15)
        problem = IbmotProblem(mu, nu, 1.0, target_second_moment=2.0)
        sol = solve_ibmot(problem)
        assert sol.converged
        assert sol.duality_gap <= 1e-7 * (1.0 + abs(sol.objective_quantile))
        assert abs(sol.objective_ki_target - 1.0) <= 0.02
        assert abs(induced_correlation(problem, sol.gamma) - 1.0 / np.sqrt(2.0)) <= 0.05

    def test_uniqueness_from_different_starts(self):
        # strict convexity: runs started from different column prices land on
        # the same conditional laws; prices y^2 start every row as a two-point
        # law on the ends of the support
        mu = gaussian_marginal(0.0, 1.0, 15)
        nu = gaussian_marginal(0.0, 2.0, 15)
        problem = IbmotProblem(mu, nu, 1.0)
        opts = IbmotOptions(gap_tol=1e-7, max_iter=6000)
        a = solve_ibmot(problem, opts)
        b = solve_ibmot(problem, opts, start_prices=nu.values ** 2)
        assert a.converged and b.converged
        tv = 0.5 * np.max(np.sum(np.abs(a.gamma - b.gamma), axis=1))
        assert tv <= 1e-3


class TestDualCertificates:
    """Instances the dual Newton solver certifies to gap 1e-12."""

    def test_hessian_matches_central_differences(self):
        problem = IbmotProblem(gaussian_marginal(0.0, 1.0, 9),
                               gaussian_marginal(0.0, 2.0, 11), 1.3)
        psi = np.random.default_rng(0).normal(size=11)
        hess = _dual_hessian(problem, _dual_point(problem, np.diff(psi)))
        h = 1e-5
        for k in range(11):
            e = np.zeros(11)
            e[k] = h
            up = _dual_point(problem, np.diff(psi + e))
            dn = _dual_point(problem, np.diff(psi - e))
            assert (up.value - dn.value) / (2 * h) == pytest.approx(
                _dual_point(problem, np.diff(psi)).residual[k], abs=1e-9)
            assert np.allclose(hess[:, k], (up.residual - dn.residual) / (2 * h),
                               rtol=0.0, atol=1e-9)

    def test_dual_bound_holds_at_any_prices(self):
        # random prices whose slopes break monotonicity, so the row solve
        # must pool: rows stay laws with the right barycenters, and D stays
        # below the optimum
        problem = IbmotProblem(gaussian_marginal(0.0, 1.0, 9),
                               gaussian_marginal(0.0, 2.0, 12), 1.0)
        best = solve_ibmot(problem, IbmotOptions(gap_tol=1e-13))
        rng = np.random.default_rng(3)
        for scale in (0.3, 3.0, 30.0):
            point = _dual_point(problem, scale * rng.normal(size=11))
            assert np.min(point.rows) >= 0.0
            assert np.allclose(point.rows.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
            assert np.allclose(point.rows @ problem.nu.values, problem.mu.values,
                               rtol=0.0, atol=1e-12)
            assert point.value <= best.objective_quantile + 1e-12

    def test_fifty_atoms(self):
        problem = IbmotProblem(gaussian_marginal(0.0, 1.0, 50),
                               gaussian_marginal(0.0, 2.0, 50), 1.0)
        sol = solve_ibmot(problem, IbmotOptions(gap_tol=1e-12))
        assert sol.converged and sol.duality_gap <= 1e-12
        validate_kernel(problem, sol.gamma, tol=1e-12)

    def test_near_tight_marginals(self):
        # N(0,1) -> N(0,1.05) on 12 atoms: the variance budget is small, so
        # much of the optimal kernel sits near the point masses
        problem = IbmotProblem(gaussian_marginal(0.0, 1.0, 12),
                               gaussian_marginal(0.0, 1.05, 12), 1.0)
        sol = solve_ibmot(problem, IbmotOptions(gap_tol=1e-12))
        assert sol.converged
        assert sol.duality_gap <= 1e-12 * (1.0 + abs(sol.objective_quantile))
        validate_kernel(problem, sol.gamma, tol=1e-12)

    @pytest.mark.parametrize("atoms", [8, 40])
    def test_equal_marginals_give_the_identity(self, atoms):
        # mu = nu admits only the identity coupling, and the dual is not
        # attained: every atom is a touching point of the call functions
        mu = gaussian_marginal(0.0, 1.0, atoms)
        problem = IbmotProblem(mu, mu, 1.0)
        sol = solve_ibmot(problem, IbmotOptions(gap_tol=1e-12))
        assert sol.converged
        assert sol.duality_gap <= 1e-12 * (1.0 + abs(sol.objective_quantile))
        assert np.max(np.abs(sol.gamma - np.eye(atoms))) <= 1e-9
        identity = ibmot_objective_quantile(problem, np.eye(atoms)).value
        assert sol.objective_quantile == pytest.approx(identity, abs=1e-12)

    def test_plus_minus_one_to_three_atoms(self):
        # +-1 -> {-2, 0, 2}: one coupling, with a zero at each row's far end
        mu = DiscreteMarginal(np.asarray([-1.0, 1.0]), np.asarray([0.5, 0.5]))
        nu = DiscreteMarginal(np.asarray([-2.0, 0.0, 2.0]), np.asarray([0.25, 0.5, 0.25]))
        problem = IbmotProblem(mu, nu, 1.0)
        sol = solve_ibmot(problem, IbmotOptions(gap_tol=1e-12))
        assert sol.converged
        assert sol.duality_gap <= 1e-12 * (1.0 + abs(sol.objective_quantile))
        assert np.max(np.abs(sol.gamma - [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])) <= 1e-9
        _, val_bf = brute_force_small(problem)
        assert sol.objective_quantile == pytest.approx(val_bf, abs=1e-12)

    def test_touching_call_functions_split_the_problem(self):
        # two problems on disjoint intervals, mixed 1:1: the call functions
        # touch between them, no row may cross, and the optimum is the mix
        # of the two optima (brute force for the 2x3 part; the 1x2 part has
        # one coupling)
        left = IbmotProblem(
            DiscreteMarginal(np.asarray([-0.5, 0.5]), np.asarray([0.5, 0.5])),
            DiscreteMarginal(np.asarray([-2.0, 0.0, 2.0]), np.asarray([0.25, 0.5, 0.25])), 1.0)
        right = IbmotProblem(DiscreteMarginal(np.asarray([6.0]), np.asarray([1.0])),
                             DiscreteMarginal(np.asarray([5.0, 7.0]), np.asarray([0.5, 0.5])), 1.0)
        mu = DiscreteMarginal(np.asarray([-0.5, 0.5, 6.0]), np.asarray([0.25, 0.25, 0.5]))
        nu = DiscreteMarginal(np.asarray([-2.0, 0.0, 2.0, 5.0, 7.0]),
                              np.asarray([0.125, 0.25, 0.125, 0.25, 0.25]))
        problem = IbmotProblem(mu, nu, 1.0)
        sol = solve_ibmot(problem, IbmotOptions(gap_tol=1e-12))
        assert sol.converged
        assert np.all(sol.gamma[:2, 3:] == 0.0) and np.all(sol.gamma[2, :3] == 0.0)
        _, val_left = brute_force_small(left)
        val_right = ibmot_objective_quantile(right, np.asarray([[0.5, 0.5]])).value
        assert sol.objective_quantile == pytest.approx(0.5 * (val_left + val_right), abs=1e-10)

    def test_atom_at_the_support_end(self):
        # the row at y_1 is a point mass, which leaves the other row one law
        mu = DiscreteMarginal(np.asarray([-1.0, 0.5]), np.asarray([1.0, 2.0]) / 3.0)
        nu = DiscreteMarginal(np.asarray([-1.0, 0.0, 1.0]), np.full(3, 1.0 / 3.0))
        problem = IbmotProblem(mu, nu, 1.0)
        sol = solve_ibmot(problem, IbmotOptions(gap_tol=1e-12))
        assert sol.converged
        unique = np.asarray([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
        assert np.max(np.abs(sol.gamma - unique)) <= 1e-9
        assert sol.objective_quantile == pytest.approx(
            ibmot_objective_quantile(problem, unique).value, abs=1e-12)

    def test_price_of_an_emptied_atom_moves(self):
        # a Newton step here pools cells so that an atom gets no mass in any
        # row; D is then linear in that atom's price, which only the damped
        # step moves (undamped, the solve stalls at gap 9e-2)
        mu = DiscreteMarginal(np.asarray([-0.5, 0.5]), np.asarray([0.5, 0.5]))
        nu = DiscreteMarginal(np.asarray([-2.0, -1.0, 1.0, 2.0]),
                              np.asarray([3.0, 6.0, 2.0, 5.0]) / 16.0)
        problem = IbmotProblem(mu, nu, 1.0)
        sol = solve_ibmot(problem, IbmotOptions(gap_tol=1e-12))
        assert sol.converged
        assert sol.duality_gap <= 1e-12 * (1.0 + abs(sol.objective_quantile))
        validate_kernel(problem, sol.gamma, tol=1e-12)
        feasible = np.asarray([[0.0, 0.75, 0.25, 0.0], [0.375, 0.0, 0.0, 0.625]])
        assert sol.objective_quantile <= ibmot_objective_quantile(problem, feasible).value


class TestContinuumLimit:
    """N(0,1) -> N(0,2) with Brownian noise: the continuum optimum is K_I = T."""

    def test_k_i_rises_to_the_horizon(self):
        values = []
        for atoms in (25, 50, 100, 200):
            problem = IbmotProblem(gaussian_marginal(0.0, 1.0, atoms),
                                   gaussian_marginal(0.0, 2.0, atoms), 1.0,
                                   target_second_moment=2.0)
            sol = solve_ibmot(problem, IbmotOptions(gap_tol=1e-12))
            assert sol.converged
            values.append(sol.objective_ki_target)
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0
        assert 1.0 - values[-1] <= 1e-3

    def test_noise_level_only_rescales_the_value(self):
        # the objective is E[Y^2] + T - 2 sqrt(T) S(gamma): the optimal kernel
        # does not depend on T, and K_I = sqrt(T) S*
        sols = []
        for horizon in (0.25, 1.0, 4.0):
            problem = IbmotProblem(gaussian_marginal(0.0, 1.0, 15),
                                   gaussian_marginal(0.0, 2.0, 15), horizon)
            sols.append(solve_ibmot(problem, IbmotOptions(gap_tol=0.0)))
        for sol in sols[1:]:
            assert np.max(np.abs(sol.gamma - sols[0].gamma)) <= 1e-12
            assert sol.objective_ki / np.sqrt(sol.problem.horizon) == pytest.approx(
                sols[0].objective_ki / np.sqrt(sols[0].problem.horizon), abs=1e-12)


def _three_point(x, y):
    # barycentric weights of x against (y0, y2) plus the middle atom
    lam02 = (y[2] - x) / (y[2] - y[0])
    return np.asarray([0.5 * lam02, 0.5, 0.5 * (1 - lam02)])


def _two_by_three_problems(count=20, seed=5):
    """Random 2x3 problems whose nu comes from a feasible joint, so the
    polytope is nonempty."""
    rng = np.random.default_rng(seed)
    problems = []
    while len(problems) < count:
        x = np.sort(rng.uniform(-1.0, 1.0, size=2))
        w = rng.dirichlet(np.ones(2))
        spread = rng.uniform(0.6, 1.5)
        y = np.asarray([x[0] - spread, float(w @ x), x[1] + spread])
        y.sort()
        mid_w = rng.uniform(0.2, 0.6)
        lam = np.asarray([
            [(x[0] - y[1]) / (y[0] - y[1]), (y[0] - x[0]) / (y[0] - y[1]), 0.0],
            [0.0, (y[2] - x[1]) / (y[2] - y[1]), (x[1] - y[1]) / (y[2] - y[1])],
        ])
        lam[0] = (1 - mid_w) * lam[0] + mid_w * _three_point(x[0], y)
        lam[1] = (1 - mid_w) * lam[1] + mid_w * _three_point(x[1], y)
        nu_w = w @ lam
        if np.any(nu_w <= 1e-6):
            continue
        problems.append(IbmotProblem(DiscreteMarginal(x, w), DiscreteMarginal(y, nu_w), 1.0))
    return problems


class TestBruteForceOracle:
    def test_makes_no_lp_call(self, monkeypatch):
        # the feasible set comes from the SVD of the equality system alone
        def no_lp(*args, **kwargs):
            raise AssertionError("brute_force_small called the LP")

        monkeypatch.setattr("arcadeproc.ibmot.linprog_simplex", no_lp)
        for problem in _two_by_three_problems():
            sol = solve_ibmot(problem, IbmotOptions(gap_tol=1e-8, max_iter=500))
            _, val_bf = brute_force_small(problem)
            assert sol.objective_quantile == pytest.approx(val_bf, abs=1e-5)

    @pytest.mark.parametrize("mu, nu", [
        (([0.5], [1.0]), ([-1.0, 1.0], [0.75, 0.25])),
        (([-3.0, 3.0], [0.5, 0.5]), ([-2.0, 2.0], [0.5, 0.5])),
        (([-1.5, 1.5], [0.5, 0.5]), ([-2.0, 0.0, 2.0], [0.25, 0.5, 0.25])),
    ], ids=["means_differ", "atom_outside_support", "empty_interval"])
    def test_empty_polytope_is_infeasible(self, mu, nu):
        # no solution of the equality system, a pinned negative entry, and a
        # free direction whose positivity bounds cross
        problem = IbmotProblem(DiscreteMarginal(*map(np.asarray, mu)),
                               DiscreteMarginal(*map(np.asarray, nu)), 1.0, validate=False)
        with pytest.raises(InfeasibleError):
            brute_force_small(problem)


class TestMcCrossChecks:
    def test_uniform_mot_estimators_agree(self):
        mc = ibmot_objective_mc(uniform_mot_kernel(), 1.0, 20_000, seed=1, steps=500)
        assert abs(mc.diff) <= 3.0 * mc.diff_se

    def test_discretization_matches_the_loop_construction(self):
        problem, gamma, _ = discretize_affine_kernel(uniform_mot_kernel(), 200)
        y, want = _discretize_affine_loop(uniform_mot_kernel(), 200)
        assert problem.nu.values.tobytes() == y.tobytes()
        assert (gamma.shape, gamma.tobytes()) == (want.shape, want.tobytes())

    def test_quantile_upper_bounds_mc(self):
        problem, gamma, ex2 = discretize_affine_kernel(uniform_mot_kernel(), 200)
        q = ibmot_objective_quantile(problem, gamma, validate=False)
        assert ex2 == pytest.approx(4.0 / 3.0, abs=1e-3)
        mc = ibmot_objective_mc(uniform_mot_kernel(), 1.0, 20_000, seed=2, steps=500)
        assert q.k_i >= mc.k_i_endpoint - 3.0 * mc.se_endpoint

    def test_brownian_coupling_equals_horizon(self):
        mc = ibmot_objective_mc(brownian_coupling(1.0, 1.0), 1.0, 20_000,
                                seed=3, steps=500)
        assert abs(mc.k_i_time - 1.0) <= 3.0 * mc.se_time
        assert abs(mc.k_i_endpoint - 1.0) <= 3.0 * mc.se_endpoint

    @pytest.mark.parametrize("block_size", [0, -1, 2.5])
    def test_block_size_below_one_is_a_config_error(self, block_size):
        # a fractional size is a config error as well
        with pytest.raises(ConfigError, match="block_size"):
            ibmot_objective_mc(uniform_mot_kernel(), 1.0, 10, seed=5, steps=20,
                               block_size=block_size)

    def test_fractional_path_count_is_a_config_error(self):
        with pytest.raises(ConfigError, match="n_paths"):
            ibmot_objective_mc(uniform_mot_kernel(), 1.0, 2.5, seed=5, steps=20)

    def test_fractional_step_count_is_a_config_error(self):
        # 2.5 steps used to march 2
        with pytest.raises(ConfigError, match="steps_per_arc"):
            ibmot_objective_mc(uniform_mot_kernel(), 1.0, 10, seed=5, steps=2.5)

    def test_time_integral_matches_unblocked_reduction(self):
        # the estimator is reduced in path blocks; the per-path arithmetic is
        # that of one reduction over the whole (paths, nodes) array, so the
        # statistics agree bit for bit (300 paths: one full block and a tail)
        from arcadeproc.arcade import ArcadeConfig
        from arcadeproc.drivers import brownian_driver
        from arcadeproc.fam import fam_paths
        from arcadeproc.partition import Partition, piecewise_linear_coefficients
        from arcadeproc.rap import RapConfig

        kernel = uniform_mot_kernel()
        mc = ibmot_objective_mc(kernel, 1.0, 300, seed=4, steps=40)
        p = Partition((0.0, 1.0), steps_per_arc=40)
        coeffs = piecewise_linear_coefficients(p)
        cfg = RapConfig(arcade=ArcadeConfig(brownian_driver(), coeffs),
                        signal=coeffs.with_role("signal"), coupling=kernel, standard=True)
        trace = fam_paths(cfg, 300, 4, block=0, with_innovations=True)
        weight = 1.0 / (1.0 - p.grid[:-1])
        dt = np.diff(p.grid)
        err = (trace.x[:, -1][:, None] - trace.m_paths[:, :-1]) ** 2 * weight[None, :]
        ti = 0.5 * (err[:, :-1] + err[:, 1:]) @ dt[:-1] + err[:, -1] * dt[-1]
        assert mc.k_i_time == float(ti.mean())
        assert mc.se_time == float(ti.std(ddof=1)) / np.sqrt(300)
