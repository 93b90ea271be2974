"""Randomized arcades: pinning, nearly-Markov conditions, mimicry."""

import numpy as np
import pytest

from arcadeproc import (
    ArcadeConfig,
    ConfigError,
    Partition,
    RapConfig,
    ap_cov,
    ap_mean,
    brownian_driver,
    build_rap_paths,
    carryover_noise_coefficients,
    carryover_signal_coefficients,
    conditional_mean_rap,
    mimic_process,
    nearly_markov_check,
    ou_driver,
    piecewise_linear_coefficients,
    simulate_driver,
    standard_coefficients,
    table_coefficients,
)
from arcadeproc.coupling import (
    antithetic_pm1_chain,
    binary_chain_kernel,
    binary_pm1_kernel,
    brownian_coupling,
    deterministic_kernel,
    independent_pm1_chain,
)
from arcadeproc.drivers import PathBundle
from arcadeproc.rap import fbm_paths

from conftest import assert_within_3se


def _bridge_rap(p, kernel, standard=True):
    hats = piecewise_linear_coefficients(p)
    return RapConfig(ArcadeConfig(brownian_driver(), hats),
                     hats.with_role("signal"), kernel, standard=standard)


class TestConstruction:
    def test_pinned_to_targets(self, five_arc_partition):
        cfg = _bridge_rap(five_arc_partition, antithetic_pm1_chain(5), standard=True)
        paths, x = build_rap_paths(cfg, 2000, seed=1)
        assert np.array_equal(paths.values[:, five_arc_partition.date_indices], x)

    def test_zero_coupling_reduces_to_arcade(self, five_arc_partition):
        from arcadeproc import build_ap_paths
        cfg = _bridge_rap(five_arc_partition, deterministic_kernel(0.0, 5), standard=True)
        paths, x = build_rap_paths(cfg, 100, seed=2)
        assert np.all(x == 0.0)
        driver_paths = simulate_driver(brownian_driver(), five_arc_partition, 100, seed=2)
        ap = build_ap_paths(cfg.arcade, driver_paths)
        assert np.array_equal(paths.values, ap.values)

    def test_midpoint_symmetry(self, unit_partition):
        cfg = _bridge_rap(unit_partition, binary_pm1_kernel())
        paths, _ = build_rap_paths(cfg, 100_000, seed=3)
        mid = np.argmin(np.abs(unit_partition.grid - 0.5))
        col = paths.values[:, mid]
        assert_within_3se(col.mean(), 0.0, col.std(ddof=1) / np.sqrt(col.size),
                          "E[I_0.5]")

    def test_moment_identities(self, unit_partition):
        # Var[I] = Var[S] + Var[A]; means add
        cfg = _bridge_rap(unit_partition, binary_pm1_kernel())
        paths, _ = build_rap_paths(cfg, 100_000, seed=4)
        t = 0.3
        k = np.argmin(np.abs(unit_partition.grid - t))
        col = paths.values[:, k]
        # signal variance: Var[g0 X0 + g1 X1] for the binary pair
        g0, g1 = 1 - t, t
        draws = cfg.coupling.sample(200_000, seed=5)
        sig = g0 * draws[:, 0] + g1 * draws[:, 1]
        want = np.var(sig) + float(ap_cov(cfg.arcade, t, t))
        sq = (col - col.mean()) ** 2
        assert_within_3se(sq.mean(), want, 2.0 * sq.std(ddof=1) / np.sqrt(sq.size),
                          "Var[I_t] split")

    def test_coupling_sensitivity(self, five_arc_partition):
        # same driver seed, different coupling: interior variance differs
        indep = _bridge_rap(five_arc_partition, independent_pm1_chain(5), standard=True)
        anti = _bridge_rap(five_arc_partition, antithetic_pm1_chain(5), standard=True)
        a, _ = build_rap_paths(indep, 50_000, seed=6)
        b, _ = build_rap_paths(anti, 50_000, seed=6)
        k = np.argmin(np.abs(five_arc_partition.grid - 1.0))
        va = (a.values[:, k] - a.values[:, k].mean()) ** 2
        vb = (b.values[:, k] - b.values[:, k].mean()) ** 2
        se = np.hypot(va.std(ddof=1), vb.std(ddof=1)) / np.sqrt(va.size)
        assert abs(va.mean() - vb.mean()) > 3.0 * se

    def test_partition_mismatch_rejected(self, unit_partition):
        other = piecewise_linear_coefficients(Partition((0.0, 2.0), 50), "signal")
        hats = piecewise_linear_coefficients(unit_partition)
        with pytest.raises(ConfigError):
            RapConfig(ArcadeConfig(brownian_driver(), hats), other, binary_pm1_kernel())

    def test_standard_flag_verified(self, unit_partition):
        # flipping the signal away from f breaks the standard structure
        hats = piecewise_linear_coefficients(unit_partition)
        table = hats.grid_matrix()
        table[1] = table[1] ** 2  # g_1 != f_1 inside the arc
        bad_signal = table_coefficients(unit_partition, table, role="signal")
        with pytest.raises(ConfigError):
            RapConfig(ArcadeConfig(brownian_driver(), hats), bad_signal,
                      binary_pm1_kernel(), standard=True)


class TestNearlyMarkov:
    def test_standard_rap_passes(self, ou_unit):
        p = Partition((0.0, 1.0, 2.0, 3.0), 40)
        f = standard_coefficients(ou_unit, p)
        cfg = RapConfig(ArcadeConfig(ou_unit, f), f.with_role("signal"),
                        antithetic_pm1_chain(3), standard=True)
        rep = nearly_markov_check(cfg, tol=1e-9)
        assert rep.passed
        assert rep.vanish_residual <= 1e-12
        assert rep.match_residual <= 1e-12

    def test_carryover_rap_passes(self):
        p = Partition((0.5, 2.0, 3.5), 16)
        cfg = RapConfig(
            ArcadeConfig(brownian_driver(), carryover_noise_coefficients(p)),
            carryover_signal_coefficients(p),
            binary_chain_kernel(2),
        )
        rep = nearly_markov_check(cfg, tol=1e-9)
        assert rep.passed

    def test_carryover_signal_shares_noise_rows(self):
        p = Partition((0.5, 2.0, 3.5), 16)
        signal = carryover_signal_coefficients(p).table
        assert np.array_equal(signal[:2], carryover_noise_coefficients(p).table[:2])

    def test_signal_active_too_early_fails(self):
        # a g_2 with support inside [T_0, T_1] violates the vanishing condition
        p = Partition((0.5, 2.0, 3.5), 16)
        noise = carryover_noise_coefficients(p)
        t0, t1, t2 = p.dates
        g = p.grid
        table = carryover_signal_coefficients(p).table.copy()
        bump = np.where(g <= t1, 4.0 * (g - t0) * (t1 - g) / (t1 - t0) ** 2, 0.0)
        table[2] = table[2] + bump
        bad = table_coefficients(p, table, role="signal")
        cfg = RapConfig(ArcadeConfig(brownian_driver(), noise), bad,
                        binary_chain_kernel(2))
        rep = nearly_markov_check(cfg, tol=1e-9)
        assert not rep.passed
        assert rep.vanish_residual > 0.9

    def test_non_markov_noise_fails_condition_one(self):
        from arcadeproc import lagrange_coefficients
        p = Partition((0.0, 1.0, 2.0), 16)
        cfg = RapConfig(ArcadeConfig(brownian_driver(), lagrange_coefficients(p)),
                        piecewise_linear_coefficients(p, "signal"),
                        binary_chain_kernel(2))
        rep = nearly_markov_check(cfg)
        assert not rep.passed
        assert not rep.markov.passed

    def test_a1_right_limits_match_extraction(self, ou_unit):
        p = Partition((0.0, 1.0, 2.0), 40)
        f = standard_coefficients(ou_unit, p)
        cfg = RapConfig(ArcadeConfig(ou_unit, f), f.with_role("signal"),
                        binary_chain_kernel(2), standard=True)
        rep = nearly_markov_check(cfg, tol=1e-9)
        for j, c in enumerate(rep.a1_right_limits):
            extrapolated = rep.markov.factorization.a1_end[j]
            assert c == pytest.approx(extrapolated, rel=1e-3)


class TestConditionalMean:
    def test_tower_consistency_at_equal_times(self, unit_partition):
        cfg = _bridge_rap(unit_partition, binary_pm1_kernel())
        assert conditional_mean_rap(cfg, 0.4, 0.4, 1.0, 0.8, 1.2) == 1.2

    def test_terminal_returns_martingale_value(self, unit_partition):
        cfg = _bridge_rap(unit_partition, binary_pm1_kernel())
        got = conditional_mean_rap(cfg, 0.4, 1.0, 1.0, 0.8, 1.2)
        assert got == pytest.approx(0.8, abs=1e-12)

    def test_matches_gaussian_regression_oracle(self, unit_partition):
        # oracle: E[I_t | X_0, I_s] by 3x3 Gaussian conditioning under the
        # Brownian coupling on the randomized bridge
        cfg = _bridge_rap(unit_partition, brownian_coupling(1.0, 1.0))
        arc = cfg.arcade
        s, t = 0.3, 0.8

        def g0(u):
            return 1.0 - u

        def g1(u):
            return u

        def k_i(u, v):
            return (g0(u) * g0(v) + g0(u) * g1(v) + g1(u) * g0(v)
                    + 2.0 * g1(u) * g1(v)
                    + float(ap_cov(arc, min(u, v), max(u, v))))

        cmat = np.array([
            [1.0, g0(s) + g1(s), g0(t) + g1(t)],
            [g0(s) + g1(s), k_i(s, s), k_i(s, t)],
            [g0(t) + g1(t), k_i(s, t), k_i(t, t)],
        ])
        sub, cvec = cmat[:2, :2], cmat[2, :2]
        x0v, i_sv = 0.4, 0.9
        oracle = float(np.linalg.solve(sub, cvec) @ np.asarray([x0v, i_sv]))
        cx1 = np.asarray([1.0, g0(s) + 2.0 * g1(s)])
        m_s = float(np.linalg.solve(sub, cx1) @ np.asarray([x0v, i_sv]))
        ours = conditional_mean_rap(cfg, s, t, x0v, m_s, i_sv)
        assert ours == pytest.approx(oracle, abs=1e-8)

    def test_nonzero_mean_driver_oracle(self):
        # OU with relaxation mean: exercises the mu_A(t) - a mu_A(s) terms
        d = ou_driver(theta=1.0, sigma=0.8, mu=0.5, d0=-0.5, t_ref=0.0)
        p = Partition((0.0, 1.0), 50)
        f = standard_coefficients(d, p)
        cfg = RapConfig(ArcadeConfig(d, f), f.with_role("signal"),
                        brownian_coupling(1.0, 1.0), standard=True)
        arc = cfg.arcade
        s, t = 0.35, 0.75
        g0s, g1s = float(f.eval(0, s)), float(f.eval(1, s))
        g0t, g1t = float(f.eval(0, t)), float(f.eval(1, t))
        mean_vec = np.asarray([0.0, float(ap_mean(arc, s)), float(ap_mean(arc, t))])
        cmat = np.array([
            [1.0, g0s + g1s, g0t + g1t],
            [g0s + g1s,
             g0s ** 2 + 2 * g0s * g1s + 2 * g1s ** 2 + float(ap_cov(arc, s, s)),
             g0s * g0t + g0s * g1t + g1s * g0t + 2 * g1s * g1t + float(ap_cov(arc, s, t))],
            [g0t + g1t,
             g0s * g0t + g0s * g1t + g1s * g0t + 2 * g1s * g1t + float(ap_cov(arc, s, t)),
             g0t ** 2 + 2 * g0t * g1t + 2 * g1t ** 2 + float(ap_cov(arc, t, t))],
        ])
        sub, cvec = cmat[:2, :2], cmat[2, :2]
        x0v, i_sv = 0.4, 0.9
        w = np.linalg.solve(sub, cvec)
        oracle = mean_vec[2] + float(w @ (np.asarray([x0v, i_sv]) - mean_vec[:2]))
        cx1 = np.asarray([1.0, g0s + 2.0 * g1s])
        wm = np.linalg.solve(sub, cx1)
        m_s = float(wm @ (np.asarray([x0v, i_sv]) - mean_vec[:2]))
        ours = conditional_mean_rap(cfg, s, t, x0v, m_s, i_sv)
        assert ours == pytest.approx(oracle, abs=1e-8)

    def test_multi_arc_rejected(self, five_arc_partition):
        cfg = _bridge_rap(five_arc_partition, antithetic_pm1_chain(5), standard=True)
        with pytest.raises(ConfigError):
            conditional_mean_rap(cfg, 0.5, 1.5, 0.0, 0.0, 0.0)


class TestMimicry:
    def test_straight_line_noiseless_exact(self):
        p = Partition((0.0, 1.0, 2.0), 10)
        grid = np.linspace(0.0, 2.0, 41)
        target = PathBundle(grid=grid, values=np.tile(3.0 * grid - 1.0, (4, 1)),
                            seed=0, meta={})
        res = mimic_process(target, p, noise_scale=0.0)
        assert np.max(res.sup_distances) <= 1e-12

    def test_fbm_distance_decreases_with_refinement(self):
        fine = np.linspace(0.0, 10.0, 801)
        target = fbm_paths(fine, 32, seed=11, hurst=0.75)
        medians = []
        for n_arcs in (5, 20, 80):
            dates = tuple(np.linspace(0.0, 10.0, n_arcs + 1))
            p = Partition(dates, steps_per_arc=800 // n_arcs)
            res = mimic_process(target, p, seed=12)
            medians.append(np.median(res.sup_distances))
        assert medians[0] > medians[1] > medians[2]

    @pytest.mark.parametrize("hurst", [1.5, -0.2, 0.0, float("nan")])
    def test_fbm_hurst_outside_unit_interval_is_config_error(self, hurst):
        with pytest.raises(ConfigError, match="hurst"):
            fbm_paths(np.linspace(0.0, 1.0, 11), 4, seed=0, hurst=hurst)

    @pytest.mark.parametrize("grid, n_paths, match", [
        ([-1.0, 0.0, 1.0], 2, "grid"),
        ([0.0, float("inf")], 2, "grid"),
        ([0.0, float("nan"), 1.0], 2, "grid"),
        ([0.0, 0.5, 1.0], 0, "n_paths"),
    ])
    def test_fbm_bad_grid_or_path_count_is_config_error(self, grid, n_paths, match):
        with pytest.raises(ConfigError, match=match):
            fbm_paths(grid, n_paths, seed=1)

    def test_self_interpolation_through_all_nodes(self):
        p = Partition((0.0, 1.0), 1)  # every node is a date
        grid = p.grid
        target = PathBundle(grid=grid, values=np.asarray([[0.3, -0.7]]), seed=0, meta={})
        res = mimic_process(target, p, seed=3)
        assert np.max(res.sup_distances) <= 1e-12

    def test_grid_must_refine(self):
        p = Partition((0.0, 1.0), 7)
        grid = np.linspace(0.0, 1.0, 5)
        target = PathBundle(grid=grid, values=np.zeros((2, 5)), seed=0, meta={})
        with pytest.raises(ConfigError):
            mimic_process(target, p)
