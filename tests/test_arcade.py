"""Arcade construction, moment formulas, standard coefficients, Markov test."""

import numpy as np
import pytest

from arcadeproc import (
    ArcadeConfig,
    ConfigError,
    Partition,
    ap_cov,
    ap_mean,
    ap_moments,
    brownian_driver,
    build_ap_paths,
    carryover_noise_coefficients,
    lagrange_coefficients,
    markov_factorization_check,
    ou_driver,
    piecewise_linear_coefficients,
    scaled_bm_driver,
    simulate_driver,
    standard_coefficients,
)

from conftest import assert_within_3se


class TestPaths:
    def test_pinned_to_zero_at_every_date(self, five_arc_partition):
        cfg = ArcadeConfig(brownian_driver(),
                           piecewise_linear_coefficients(five_arc_partition))
        driver_paths = simulate_driver(brownian_driver(), five_arc_partition,
                                       2000, seed=1)
        ap = build_ap_paths(cfg, driver_paths)
        assert np.max(np.abs(ap.values[:, five_arc_partition.date_indices])) <= 1e-12

    @pytest.mark.parametrize("coeffs", [
        lambda p: piecewise_linear_coefficients(p),
        lambda p: lagrange_coefficients(p),
        lambda p: standard_coefficients(ou_driver(0.7, 1.2, mu=0.3, d0=1.0), p),
        lambda p: carryover_noise_coefficients(Partition(p.dates[:3], p.steps_per_arc)),
    ], ids=["hats", "lagrange", "standard_ou", "carryover"])
    def test_rows_at_the_dates_are_exactly_zero(self, coeffs):
        # every node row is D_k minus its coefficient-weighted date values;
        # at T_j only f_j(T_j) = 1 is nonzero, so the row is D - D
        cs = coeffs(Partition((0.0, 0.7, 1.5, 2.0), 6))
        p = cs.partition
        driver = ou_driver(0.7, 1.2, mu=0.3, d0=1.0)
        ap = build_ap_paths(ArcadeConfig(driver, cs), simulate_driver(driver, p, 500, seed=5))
        assert np.all(ap.values[:, p.date_indices] == 0.0)
        assert np.all(ap.values[:, np.setdiff1d(np.arange(p.grid.size), p.date_indices)] != 0.0)

    def test_grid_mismatch_rejected(self, bridge_config):
        other = Partition((0.0, 1.0), 7)
        paths = simulate_driver(brownian_driver(), other, 10, seed=1)
        with pytest.raises(ConfigError):
            build_ap_paths(bridge_config, paths)

    def test_bridge_midpoint_variance_mc(self, unit_partition, bridge_config):
        driver_paths = simulate_driver(brownian_driver(), unit_partition,
                                       100_000, seed=2)
        ap = build_ap_paths(bridge_config, driver_paths)
        mid = np.argmin(np.abs(unit_partition.grid - 0.5))
        col = ap.values[:, mid] ** 2
        assert_within_3se(col.mean(), 0.25, col.std(ddof=1) / np.sqrt(col.size),
                          "Var[A_0.5]")

    def test_cross_arc_decorrelation_mc(self, five_arc_partition):
        cfg = ArcadeConfig(brownian_driver(),
                           piecewise_linear_coefficients(five_arc_partition))
        driver_paths = simulate_driver(brownian_driver(), five_arc_partition,
                                       100_000, seed=3)
        ap = build_ap_paths(cfg, driver_paths)
        a = ap.values[:, np.argmin(np.abs(five_arc_partition.grid - 1.0))]
        b = ap.values[:, np.argmin(np.abs(five_arc_partition.grid - 3.0))]
        prod = a * b
        assert_within_3se(prod.mean(), 0.0, prod.std(ddof=1) / np.sqrt(prod.size),
                          "Cov[A_1, A_3]")


class TestMoments:
    def test_bridge_covariance_closed_form(self, bridge_config):
        for s in (0.2, 0.45, 0.7):
            for t in (0.5, 0.8, 0.95):
                want = min(s, t) * (1.0 - max(s, t))
                assert ap_cov(bridge_config, s, t) == pytest.approx(want, abs=1e-14)

    def test_vanishes_at_dates(self, five_arc_partition, ou_unit):
        cfg = ArcadeConfig(ou_unit, piecewise_linear_coefficients(five_arc_partition))
        for ti in five_arc_partition.dates:
            for s in (0.7, 3.3, 9.1):
                assert abs(ap_cov(cfg, ti, s)) <= 1e-12

    def test_centered_driver_zero_mean(self, bridge_config):
        probe = np.linspace(0.0, 1.0, 11)
        assert np.max(np.abs(ap_mean(bridge_config, probe))) == 0.0

    def test_ou_with_drift_mean(self):
        d = ou_driver(theta=1.0, sigma=0.7, mu=1.0, d0=-1.0, t_ref=0.0)
        p = Partition((0.0, 1.0), 20)
        cfg = ArcadeConfig(d, piecewise_linear_coefficients(p))
        t = 0.3
        mu_d = lambda u: 1.0 + (-1.0 - 1.0) * np.exp(-u)
        want = mu_d(t) - (1 - t) * mu_d(0.0) - t * mu_d(1.0)
        m_s, m_t, _ = ap_moments(cfg, 0.1, t)
        assert m_t == pytest.approx(want, abs=1e-14)

    def test_moments_match_simulation(self, five_arc_partition, ou_unit):
        cfg = ArcadeConfig(ou_unit, piecewise_linear_coefficients(five_arc_partition))
        driver_paths = simulate_driver(ou_unit, five_arc_partition, 100_000, seed=4)
        ap = build_ap_paths(cfg, driver_paths)
        rng = np.random.default_rng(0)
        nodes = rng.choice(five_arc_partition.grid.size, size=10, replace=False)
        for k in nodes:
            t_k = five_arc_partition.grid[k]
            col = ap.values[:, k]
            assert_within_3se(col.mean(), float(ap_mean(cfg, t_k)),
                              col.std(ddof=1) / np.sqrt(col.size), f"mean t={t_k}")
            sq = (col - col.mean()) ** 2
            assert_within_3se(sq.mean(), float(ap_cov(cfg, t_k, t_k)),
                              sq.std(ddof=1) / np.sqrt(sq.size), f"var t={t_k}")


class TestStandardCoefficients:
    def test_brownian_reproduces_hats(self, five_arc_partition):
        std = standard_coefficients(brownian_driver(), five_arc_partition)
        hats = piecewise_linear_coefficients(five_arc_partition)
        g = five_arc_partition.grid
        for i in range(6):
            assert np.max(np.abs(std.eval(i, g) - hats.eval(i, g))) <= 1e-12

    def test_ou_closed_form_value(self, ou_unit):
        # f_1(1/2) = (e^{1/2} - e^{-1/2}) / (e - e^{-1}) = sinh(1/2)/sinh(1)
        p = Partition((0.0, 1.0), 10)
        std = standard_coefficients(ou_unit, p)
        want = np.sinh(0.5) / np.sinh(1.0)
        assert std.eval(1, 0.5) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.4434094, abs=5e-8)

    def test_delta_at_dates_forced(self, ou_unit):
        p = Partition((0.5, 1.3, 2.0, 3.1), 10)
        for method in ("closed_form", "gram"):
            cs = standard_coefficients(ou_unit, p, method)
            for i in range(4):
                for j, tj in enumerate(p.dates):
                    assert cs.eval(i, tj) == (1.0 if i == j else 0.0)

    @pytest.mark.parametrize("driver_factory", [
        brownian_driver,
        lambda: ou_driver(theta=1.0, sigma=np.sqrt(2.0)),
        scaled_bm_driver,
    ])
    def test_gram_system_identity(self, driver_factory):
        # sum_j f_j(t) K_D(T_i, T_j) = K_D(t, T_i) on the whole grid
        d = driver_factory()
        p = Partition((0.5, 1.3, 2.0, 3.1), 50)
        cs = standard_coefficients(d, p)
        dates = np.asarray(p.dates)
        fmat = cs.grid_matrix()
        gram = d.cov(dates[:, None], dates[None, :])
        rhs = d.cov(p.grid[None, :], dates[:, None])
        resid = gram @ fmat - rhs
        assert np.max(np.abs(resid)) <= 1e-9

    def test_degenerate_start_scaled_bm(self):
        # t*B_t vanishes at t=0: row drops out, first-arc ratio is H1(t)/H1(T_1);
        # the gram table interpolates linearly, so probe it at grid nodes only
        p = Partition((0.0, 1.0, 2.0), 10)
        probe = np.linspace(0.0, 1.0, 9)
        cs = standard_coefficients(scaled_bm_driver(), p, "closed_form")
        assert np.max(np.abs(cs.eval(1, probe) - probe ** 2)) <= 1e-12
        gram = standard_coefficients(scaled_bm_driver(), p, "gram")
        nodes = p.grid[p.grid <= 1.0]
        assert np.max(np.abs(gram.eval(1, nodes) - nodes ** 2)) <= 1e-12
        cfg = ArcadeConfig(scaled_bm_driver(),
                           standard_coefficients(scaled_bm_driver(), p))
        assert markov_factorization_check(cfg, 1e-8).passed


class TestMarkovCheck:
    def test_stitched_passes_and_factorizes(self, five_arc_partition):
        cfg = ArcadeConfig(brownian_driver(),
                           piecewise_linear_coefficients(five_arc_partition))
        rep = markov_factorization_check(cfg, tol=1e-8)
        assert rep.passed
        assert rep.max_triple_residual <= 1e-10
        assert rep.cross_arc_max <= 1e-12
        # bridge factors: A1 proportional to (x - T_m), A2 to (T_{m+1} - x)
        fact = rep.factorization
        steps = five_arc_partition.steps_per_arc
        for m in range(five_arc_partition.n_arcs):
            nodes = five_arc_partition.grid[m * steps: (m + 1) * steps + 1]
            lo, hi = five_arc_partition.dates[m], five_arc_partition.dates[m + 1]
            a1, a2 = fact.a1[m], fact.a2[m]
            c1 = a1[1] / (nodes[1] - lo)
            c2 = a2[1] / (hi - nodes[1])
            assert np.max(np.abs(a1 - c1 * (nodes - lo))) <= 1e-10
            assert np.max(np.abs(a2 - c2 * (hi - nodes))) <= 1e-10

    def test_standard_ou_passes(self, ou_unit):
        p = Partition((0.0, 1.0, 2.0, 3.0), 16)
        cfg = ArcadeConfig(ou_unit, standard_coefficients(ou_unit, p))
        rep = markov_factorization_check(cfg, tol=1e-8)
        assert rep.passed

    def test_lagrange_two_arcs_fails(self):
        p = Partition((0.0, 1.0, 2.0), 16)
        cfg = ArcadeConfig(brownian_driver(), lagrange_coefficients(p))
        rep = markov_factorization_check(cfg, tol=1e-8)
        assert not rep.passed
        assert rep.cross_arc_max > 1e-3
        # hand-derived value at (0.5, 1.5)
        assert ap_cov(cfg, 0.5, 1.5) == pytest.approx(0.03125, abs=1e-14)

    def test_carryover_table_passes(self):
        for dates in ((0.0, 1.0, 2.0), (0.5, 2.0, 3.5)):
            p = Partition(dates, 16)
            cfg = ArcadeConfig(brownian_driver(), carryover_noise_coefficients(p))
            rep = markov_factorization_check(cfg, tol=1e-8)
            assert rep.passed, f"dates {dates}: residual {rep.max_triple_residual}"

    @pytest.mark.parametrize("coeffs, dates, steps", [
        (piecewise_linear_coefficients, (0.0, 2.0, 4.0, 6.0, 8.0, 10.0), 40),
        (lagrange_coefficients, (0.0, 1.0, 2.0), 16),
    ], ids=["stitched_ap", "lagrange"])
    def test_triple_residual_matches_the_loop(self, coeffs, dates, steps):
        p = Partition(dates, steps)
        cfg = ArcadeConfig(brownian_driver(), coeffs(p))
        want = 0.0
        for m in range(p.n_arcs):
            pts = p.dates[m] + (p.dates[m + 1] - p.dates[m]) * np.arange(1, 8) / 8
            k = ap_cov(cfg, pts[:, None], pts[None, :])
            for a in range(7):
                for b in range(a, 6):
                    for c in range(b + 1, 7):
                        lhs, rhs = k[a, c] * k[b, b], k[a, b] * k[b, c]
                        want = max(want, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-14))
        assert markov_factorization_check(cfg).max_triple_residual == want

    def test_standard_factorization_identity(self, ou_unit):
        # K_A(s,t) = [f_{m+1}(s) H2(T_{m+1})] x [(H1/H2)(T_{m+1}) H2(t) - H1(t)]
        p = Partition((0.0, 1.0, 2.0, 3.0), 16)
        cs = standard_coefficients(ou_unit, p)
        cfg = ArcadeConfig(ou_unit, cs)
        dates = np.asarray(p.dates)
        worst = 0.0
        for m in range(p.n_arcs):
            pts = np.linspace(dates[m] + 0.05, dates[m + 1] - 0.05, 7)
            t_n = dates[m + 1]
            ratio = float(ou_unit.h1(t_n) / ou_unit.h2(t_n))
            for s in pts:
                for t in pts[pts >= s]:
                    a1 = float(cs.eval(m + 1, s)) * float(ou_unit.h2(t_n))
                    a2 = ratio * float(ou_unit.h2(t)) - float(ou_unit.h1(t))
                    worst = max(worst, abs(ap_cov(cfg, s, t) - a1 * a2))
        assert worst <= 1e-9

    def test_report_serializes(self, bridge_config):
        rep = markov_factorization_check(bridge_config, tol=1e-8)
        doc = rep.as_dict()
        assert doc["pass"] is True
        assert len(doc["A1"]) == 1 and len(doc["A1"][0]) == 51
