"""Simplex: known optima, degeneracy, warm re-solves, scipy cross-check."""

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
from arcadeproc.simplex import linprog_simplex, resolve_with_costs


def test_simple_equality_lp():
    # min -x - y  s.t. x + y + s = 1 -> optimum -1 on the segment
    c = np.asarray([-1.0, -1.0, 0.0])
    a = np.asarray([[1.0, 1.0, 1.0]])
    b = np.asarray([1.0])
    res, _ = linprog_simplex(c, a, b)
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
    res, _ = linprog_simplex(c, a, b)
    want = np.asarray([0.5, 0.1, 0.0, 0.4])
    assert np.allclose(res.x, want, atol=1e-10)
    assert res.fun == pytest.approx(float(c @ want), abs=1e-10)


def test_negative_rhs_normalized():
    # -x = -2 with x >= 0
    res, _ = linprog_simplex(np.asarray([1.0]), np.asarray([[-1.0]]), np.asarray([-2.0]))
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
    res, _ = linprog_simplex(np.asarray([1.0, 0.0]), a, b)
    assert res.fun == pytest.approx(0.0, abs=1e-12)
    assert res.x[1] == pytest.approx(1.0, abs=1e-12)


def test_degenerate_cycling_guard():
    # classic Beale-style degenerate instance (inequalities in standard form)
    c = np.asarray([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    a = np.asarray([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.asarray([0.0, 0.0, 1.0])
    res, _ = linprog_simplex(c, a, b)
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
        ours, _ = linprog_simplex(c, a, b)
        assert ours.fun == pytest.approx(ref.fun, abs=1e-7)
        assert np.max(np.abs(a @ ours.x - b)) <= 1e-8


def test_warm_start_matches_cold():
    # transport-style costs keep random instances bounded
    rng = np.random.default_rng(1)
    m, n = 5, 12
    a = np.abs(rng.normal(size=(m, n))) + 0.1
    b = a @ rng.uniform(0.5, 1.5, size=n)
    c0 = np.abs(rng.normal(size=n))
    _, state = linprog_simplex(c0, a, b)
    for _ in range(10):
        c = np.abs(rng.normal(size=n))
        warm, state = resolve_with_costs(state, c)
        fresh, _ = linprog_simplex(c, a, b)
        assert warm.fun == pytest.approx(fresh.fun, abs=1e-8)
        assert np.max(np.abs(a @ warm.x - b)) <= 1e-8


def _gaussian_polytope(atoms):
    mu = gaussian_marginal(0.0, 1.0, atoms)
    nu = gaussian_marginal(0.0, 2.0, atoms)
    return IbmotProblem(mu, nu, 1.0).constraint_matrix()


def test_warm_resolves_match_cold_on_transport_polytope():
    # a chain of warm re-solves, as the Frank-Wolfe oracle makes them, on a
    # 20-atom martingale transport polytope with two redundant rows
    a, b = _gaussian_polytope(20)
    rng = np.random.default_rng(2)
    _, state = linprog_simplex(np.zeros(a.shape[1]), a, b)
    assert state.basis.size == a.shape[0] - 2
    for _ in range(20):
        c = rng.normal(size=a.shape[1])
        warm, state = resolve_with_costs(state, c)
        cold, _ = linprog_simplex(c, a, b)
        assert warm.fun == pytest.approx(cold.fun, abs=1e-9)
        assert np.max(np.abs(a @ warm.x - b)) <= 1e-8
        assert np.count_nonzero(warm.x) <= state.basis.size


def test_resolve_leaves_its_state_untouched():
    a, b = _gaussian_polytope(10)
    rng = np.random.default_rng(3)
    _, state = linprog_simplex(rng.normal(size=a.shape[1]), a, b)
    inv, basis = state.inv.copy(), state.basis.copy()
    c = rng.normal(size=a.shape[1])
    first, _ = resolve_with_costs(state, c)
    second, _ = resolve_with_costs(state, c)
    assert first.iterations > 0
    assert np.array_equal(first.x, second.x)
    assert first.fun == second.fun and first.iterations == second.iterations
    assert np.array_equal(state.inv, inv) and np.array_equal(state.basis, basis)


def test_warm_resolve_after_redundant_rows_dropped():
    a = np.asarray([[1.0, 1.0], [2.0, 2.0]])
    b = np.asarray([1.0, 2.0])
    _, state = linprog_simplex(np.asarray([1.0, 0.0]), a, b)
    assert state.basis.size == 1
    res, _ = resolve_with_costs(state, np.asarray([0.0, 1.0]))
    assert res.fun == pytest.approx(0.0, abs=1e-12)
    assert res.x[0] == pytest.approx(1.0, abs=1e-12)


def test_degenerate_warm_resolve_uses_bland_fallback(monkeypatch):
    # Beale's instance from the slack basis: Dantzig's rule cycles through
    # degenerate pivots, and only the Bland fallback reaches the optimum
    c = np.asarray([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    a = np.asarray([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.asarray([0.0, 0.0, 1.0])
    _, slack = linprog_simplex(np.asarray([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), a, b)
    assert sorted(slack.basis.tolist()) == [4, 5, 6]
    res, _ = resolve_with_costs(slack, c)
    assert res.fun == pytest.approx(-0.05, abs=1e-9)
    assert res.iterations > simplex._STALL_LIMIT
    monkeypatch.setattr(simplex, "_STALL_LIMIT", 10**9)
    with pytest.raises(NumericError):
        resolve_with_costs(slack, c, max_iter=500)
