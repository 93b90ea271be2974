"""Simplex: known optima, degeneracy, the Bland fallback, scipy cross-checks."""

import numpy as np
import pytest

from arcadeproc import (
    IbmotProblem,
    InfeasibleError,
    NumericError,
    UnboundedError,
    gaussian_marginal,
    simplex,
)
from arcadeproc.simplex import _iterate, linprog_simplex


def test_simple_equality_lp():
    # min -x - y  s.t. x + y + s = 1 -> optimum -1 on the segment
    c = np.asarray([-1.0, -1.0, 0.0])
    a = np.asarray([[1.0, 1.0, 1.0]])
    b = np.asarray([1.0])
    res = linprog_simplex(c, a, b)
    assert res.fun == pytest.approx(-1.0, abs=1e-12)
    assert res.x.sum() == pytest.approx(1.0, abs=1e-12)


def test_transportation_instance():
    # 2x2 transport with known optimum
    # supplies (0.6, 0.4), demands (0.5, 0.5), costs [[1, 2], [3, 1]]
    c = np.asarray([1.0, 2.0, 3.0, 1.0])
    a = np.asarray([
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
    ])
    b = np.asarray([0.6, 0.4, 0.5, 0.5])
    res = linprog_simplex(c, a, b)
    want = np.asarray([0.5, 0.1, 0.0, 0.4])
    assert np.allclose(res.x, want, atol=1e-10)
    assert res.fun == pytest.approx(float(c @ want), abs=1e-10)


def test_negative_rhs_normalized():
    # -x = -2 with x >= 0
    res = linprog_simplex(np.asarray([1.0]), np.asarray([[-1.0]]), np.asarray([-2.0]))
    assert res.x[0] == pytest.approx(2.0)


def test_infeasible_detected():
    a = np.asarray([[1.0, 1.0], [1.0, 1.0]])
    b = np.asarray([1.0, 2.0])
    with pytest.raises(InfeasibleError):
        linprog_simplex(np.zeros(2), a, b)


def test_unbounded_detected():
    # min -x s.t. x - s = 0: x can grow without bound
    with pytest.raises(UnboundedError):
        linprog_simplex(np.asarray([-1.0, 0.0]), np.asarray([[1.0, -1.0]]),
                        np.asarray([0.0]))


def test_redundant_rows_dropped():
    a = np.asarray([[1.0, 1.0], [2.0, 2.0]])
    b = np.asarray([1.0, 2.0])
    res = linprog_simplex(np.asarray([1.0, 0.0]), a, b)
    assert res.fun == pytest.approx(0.0, abs=1e-12)
    assert res.x[1] == pytest.approx(1.0, abs=1e-12)


def test_warm_resolve_after_redundant_rows_dropped():
    # a second cost on the same rank-deficient rows, solved cold: the
    # dependent row is dropped and the vertex has one basic column
    a = np.asarray([[1.0, 1.0], [2.0, 2.0]])
    b = np.asarray([1.0, 2.0])
    res = linprog_simplex(np.asarray([0.0, 1.0]), a, b)
    assert np.count_nonzero(res.x) == 1
    assert res.fun == pytest.approx(0.0, abs=1e-12)
    assert res.x[0] == pytest.approx(1.0, abs=1e-12)


def test_degenerate_cycling_guard():
    # classic Beale-style degenerate instance (inequalities in standard form)
    c = np.asarray([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    a = np.asarray([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.asarray([0.0, 0.0, 1.0])
    res = linprog_simplex(c, a, b)
    assert res.fun == pytest.approx(-0.05, abs=1e-9)


def test_matches_scipy_on_random_instances():
    from scipy.optimize import linprog

    rng = np.random.default_rng(0)
    for trial in range(20):
        m, n = 4, 9
        a = rng.normal(size=(m, n))
        x_feas = rng.uniform(0.5, 1.5, size=n)
        b = a @ x_feas
        c = rng.normal(size=n)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        if ref.status == 3:
            with pytest.raises(UnboundedError):
                linprog_simplex(c, a, b)
            continue
        assert ref.status == 0, f"trial {trial}"
        ours = linprog_simplex(c, a, b)
        assert ours.fun == pytest.approx(ref.fun, abs=1e-7)
        assert np.max(np.abs(a @ ours.x - b)) <= 1e-8


def test_cold_solves_match_scipy_on_transport_polytope():
    # a 20-atom martingale transport polytope with two redundant rows
    from scipy.optimize import linprog

    mu = gaussian_marginal(0.0, 1.0, 20)
    nu = gaussian_marginal(0.0, 2.0, 20)
    a, b = IbmotProblem(mu, nu, 1.0).constraint_matrix()
    assert np.linalg.matrix_rank(a) == a.shape[0] - 2
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = rng.normal(size=a.shape[1])
        ours = linprog_simplex(c, a, b)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert ours.fun == pytest.approx(ref.fun, abs=1e-9)
        assert np.max(np.abs(a @ ours.x - b)) <= 1e-8
        assert np.count_nonzero(ours.x) <= a.shape[0] - 2


def test_degenerate_pivots_use_bland_fallback(monkeypatch):
    # Beale's instance from its slack basis: Dantzig's rule cycles through
    # degenerate pivots, and only the Bland fallback reaches the optimum
    c = np.asarray([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    a = np.asarray([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.asarray([0.0, 0.0, 1.0])

    def solve(max_iter):
        tab = np.hstack([a, b[:, None]])
        basis = np.asarray([4, 5, 6])
        iters = _iterate(tab, basis, lambda: c - c[basis] @ tab[:, :-1],
                         lambda q: tab[:, q], 1e-9, max_iter)
        return float(c[basis] @ tab[:, -1]), iters

    fun, iters = solve(1000)
    assert fun == pytest.approx(-0.05, abs=1e-9)
    assert iters > simplex._STALL_LIMIT
    monkeypatch.setattr(simplex, "_STALL_LIMIT", 10**9)
    with pytest.raises(NumericError):
        solve(500)
