"""Filters, closed forms, innovations, isometry, and the n-arc reduction."""

import dataclasses
import json
import pathlib
import sys
import threading
import time

import numpy as np
import pytest

from arcadeproc import (
    ArcadeConfig,
    CoefficientSet,
    ConfigError,
    DegenerateError,
    DomainError,
    NumericError,
    Partition,
    RapConfig,
    brownian_driver,
    fam_filter_bruteforce,
    fam_filter_continuous,
    fam_filter_discrete,
    fam_paths,
    fam_volatility,
    innovations_path,
    ito_isometry_check,
    ou_driver,
    piecewise_linear_coefficients,
    scaled_bm_driver,
    standard_coefficients,
    validate_coefficient_set,
)
from arcadeproc.coupling import (
    CouplingKernel,
    DegenerateMarginal,
    DeterministicAffineKernel,
    GaussianMarginal,
    GaussianStepKernel,
    binary_chain_kernel,
    binary_pm1_kernel,
    brownian_coupling,
    deterministic_kernel,
    gaussian_n01_kernel,
    uniform_mot_kernel,
)
from arcadeproc.drivers import (
    _VAR_FLOOR, _block_nodes, _node_blocks, _sampled_ahead, simulate_driver,
)
from arcadeproc import fam as fam_module
from arcadeproc.cli import EXIT_CONFIG, EXIT_NUMERIC, main
from arcadeproc.fam import (
    _LOG_UNDERFLOW,
    FamTrace,
    _march,
    _paired_path_sums,
    _posterior_from_atoms,
    _posterior_gaussian,
)
from arcadeproc.rap import build_rap_paths

from conftest import assert_within_3se


def _bridge_rap(p, kernel, standard=True):
    hats = piecewise_linear_coefficients(p)
    return RapConfig(ArcadeConfig(brownian_driver(), hats),
                     hats.with_role("signal"), kernel, standard=standard)


@pytest.fixture
def tanh_cfg(unit_partition):
    return _bridge_rap(unit_partition, binary_pm1_kernel())


class TestDiscreteFilter:
    def test_boundary_convention(self, tanh_cfg):
        assert fam_filter_discrete(tanh_cfg, 0.0, 123.0, [1.0]) == 1.0
        assert fam_filter_discrete(tanh_cfg, 1.0, 123.0, [1.0, 2.0]) == 2.0

    def test_tanh_closed_form_probe_grid(self, tanh_cfg):
        worst = 0.0
        for t in np.linspace(0.05, 0.95, 20):
            for i_t in np.linspace(-2.0, 2.0, 20):
                got = fam_filter_discrete(tanh_cfg, t, i_t, [1.0])
                want = 1.0 + np.tanh((i_t - 1.0) / (1.0 - t))
                worst = max(worst, abs(got - want))
        assert worst <= 1e-10

    def test_paper_value(self, tanh_cfg):
        got = fam_filter_discrete(tanh_cfg, 0.5, 1.3, [1.0])
        assert got == pytest.approx(1.0 + np.tanh(0.6), abs=1e-12)
        assert got == pytest.approx(1.5370496, abs=5e-8)

    def test_symmetric_evidence(self, tanh_cfg):
        assert fam_filter_discrete(tanh_cfg, 0.4, 1.0, [1.0]) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("t, x_observed", [(1.0 - 5e-13, [1.0]),
                                                (3.0 + 5e-13, [1.0, 2.0, 3.0])],
                             ids=["before_T0", "after_Tn"])
    def test_rounding_past_an_end_date_is_that_date(self, t, x_observed):
        # the domain check admits 1e-12 of rounding; there the filters are
        # pinned to the end date's target, as at the date itself
        cfg = _bridge_rap(Partition((1.0, 2.0, 3.0), 10), binary_chain_kernel(2))
        want = x_observed[-1]
        assert fam_filter_discrete(cfg, t, 0.3, x_observed) == want
        assert fam_filter_bruteforce(cfg, t, 0.3, x_observed) == want
        with pytest.raises(DomainError, match="at the dates"):
            fam_volatility(cfg, t, 0.3, x_observed)

    def test_underflow_fallback_nearest_atom(self, tanh_cfg):
        # evidence far in the tails still returns the closest branch value
        got = fam_filter_discrete(tanh_cfg, 0.999999, 2.0 - 1e-9, [1.0])
        assert got == pytest.approx(2.0, abs=1e-9)


class TestContinuousFilter:
    def test_matches_conjugate_oracle(self, unit_partition):
        cfg = _bridge_rap(unit_partition, gaussian_n01_kernel())
        t, i_t, x0 = 0.4, 0.7, -0.3
        mean, var = fam_filter_continuous(cfg, t, i_t, [x0])
        g0, g1, va = 1.0 - t, t, t * (1.0 - t)
        prec = 1.0 + g1 * g1 / va
        want_var = 1.0 / prec
        want_mean = want_var * (x0 + g1 * (i_t - g0 * x0) / va)
        assert mean == pytest.approx(want_mean, abs=1e-8)
        assert var == pytest.approx(want_var, abs=1e-8)

    def test_matches_dense_riemann_oracle(self, unit_partition):
        cfg = _bridge_rap(unit_partition, gaussian_n01_kernel())
        t, i_t, x0 = 0.6, -1.1, 0.2
        mean, _ = fam_filter_continuous(cfg, t, i_t, [x0])
        ys = np.linspace(-12.0, 12.0, 400_001)
        g0, g1, va = 1.0 - t, t, t * (1.0 - t)
        like = np.exp(-0.5 * (i_t - g0 * x0 - g1 * ys) ** 2 / va - 0.5 * (ys - x0) ** 2)
        oracle = np.trapezoid(like * ys, ys) / np.trapezoid(like, ys)
        assert mean == pytest.approx(oracle, abs=1e-6)

    def test_zero_posterior_mean(self, unit_partition):
        # the first moment is 0 here, so it needs an absolute bound as well
        cfg = _bridge_rap(unit_partition, gaussian_n01_kernel())
        mean, var = fam_filter_continuous(cfg, 0.5, 0.0, [0.0])
        assert abs(mean) <= 1e-12
        assert abs(var - 0.5) <= 1e-9

    def test_boundary(self, unit_partition):
        cfg = _bridge_rap(unit_partition, gaussian_n01_kernel())
        mean, var = fam_filter_continuous(cfg, 0.0, 5.0, [0.7])
        assert (mean, var) == (0.7, 0.0)

    def test_needs_density_kernel(self, tanh_cfg):
        with pytest.raises(ConfigError):
            fam_filter_continuous(tanh_cfg, 0.5, 0.0, [1.0])

    def test_leaking_gaussian_chain_is_config_error(self):
        # the conjugate update sees only g_{m+1}; the march refuses this config too
        chain = CouplingKernel(GaussianMarginal(0.0, 1.0),
                               (GaussianStepKernel(var=1.0), GaussianStepKernel(var=1.0)))
        cfg = TestFamPaths._leaking_two_arc_config(chain)
        with pytest.raises(ConfigError, match="only the next target"):
            fam_filter_continuous(cfg, 0.3, 0.5, [1.0])
        mean, _ = fam_filter_continuous(cfg, 1.5, 0.5, [1.0, 0.2])   # the last arc
        assert np.isfinite(mean)


class TestVolatility:
    def test_sech_squared_closed_form(self, tanh_cfg):
        worst = 0.0
        for t in np.linspace(0.05, 0.95, 20):
            for i_t in np.linspace(-2.0, 2.0, 20):
                got = fam_volatility(tanh_cfg, t, i_t, [1.0])
                want = np.cosh((i_t - 1.0) / (1.0 - t)) ** -2 / (1.0 - t)
                worst = max(worst, abs(got - want))
        assert worst <= 1e-9

    def test_bridge_case_is_var_over_remaining_time(self, unit_partition):
        cfg = _bridge_rap(unit_partition, gaussian_n01_kernel())
        t, i_t, x0 = 0.3, 0.4, 0.1
        _, post_var = fam_filter_continuous(cfg, t, i_t, [x0])
        got = fam_volatility(cfg, t, i_t, [x0])
        assert got == pytest.approx(post_var / (1.0 - t), rel=1e-8)

    def test_ou_scaling(self):
        # vol = (2 theta / sigma) Var / (e^{theta(T1-s)} - e^{theta(s-T1)})
        theta, sigma = 1.3, 0.9
        d = ou_driver(theta=theta, sigma=sigma)
        p = Partition((0.0, 1.0), 50)
        f = standard_coefficients(d, p)
        cfg = RapConfig(ArcadeConfig(d, f), f.with_role("signal"),
                        binary_pm1_kernel(), standard=True)
        t, i_t = 0.45, 0.2
        got = fam_volatility(cfg, t, i_t, [1.0])
        _, var_post = _discrete_posterior(cfg, t, i_t, 1.0)
        want = (2.0 * theta / sigma) * var_post / (
            np.exp(theta * (1.0 - t)) - np.exp(theta * (t - 1.0)))
        assert got == pytest.approx(want, rel=1e-9)

    def test_scaled_bm_weighting(self):
        # vol = Var / (T1^2 - s T1) for the t*B_t driver
        from arcadeproc import scaled_bm_driver
        d = scaled_bm_driver()
        p = Partition((0.5, 2.0), 50)
        f = standard_coefficients(d, p)
        cfg = RapConfig(ArcadeConfig(d, f), f.with_role("signal"),
                        binary_pm1_kernel(), standard=True)
        t = 1.2
        got = fam_volatility(cfg, t, 0.3, [1.0])
        mean, var = _discrete_posterior(cfg, t, 0.3, 1.0)
        assert got == pytest.approx(var / (2.0 ** 2 - t * 2.0), rel=1e-9)

    def test_deterministic_target_zero(self, unit_partition):
        cfg = _bridge_rap(unit_partition, deterministic_kernel(0.5, 1), standard=True)
        assert fam_volatility(cfg, 0.4, 0.55, [0.5]) == 0.0

    def test_arc_endpoint_rejected(self, tanh_cfg):
        with pytest.raises(DomainError):
            fam_volatility(tanh_cfg, 1.0, 0.0, [1.0, 2.0])

    def test_full_conditioning_arc_is_config_error(self):
        # on arc 0 of this chain Var[X_2 | F_t] does not vanish as t -> T_1,
        # so Var * sqrt(h2) / h3 is not the volatility there; arc 1 is Markov
        cfg = TestFamPaths._leaking_two_arc_config(binary_chain_kernel(2))
        with pytest.raises(ConfigError, match="ahead of arc 0"):
            fam_volatility(cfg, 0.3, 0.5, [1.0])
        assert np.isfinite(fam_volatility(cfg, 1.5, 0.5, [1.0, 2.0]))

    def test_zero_interior_noise_is_degenerate(self):
        # the driver and f_1 vanish on [0, 0.5], so the arcade has no noise
        # there; the volatility must refuse like the filter and the march
        from arcadeproc import table_coefficients
        from arcadeproc.drivers import GaussMarkovDriver

        def ones(t):
            return np.ones_like(np.asarray(t, dtype=float))

        p = Partition((0.0, 1.0), 20)
        driver = GaussMarkovDriver(h1=lambda t: np.maximum(np.asarray(t) - 0.5, 0.0) ** 2,
                                   h2=ones, mean=ones)
        noise = table_coefficients(p, np.stack([1.0 - p.grid,
                                                np.maximum(2.0 * p.grid - 1.0, 0.0)]))
        cfg = RapConfig(ArcadeConfig(driver, noise), noise.with_role("signal"),
                        binary_pm1_kernel())
        for point_filter in (fam_filter_discrete, fam_volatility):
            with pytest.raises(DegenerateError, match="zero noise variance"):
                point_filter(cfg, 0.25, 0.3, [1.0])
        with pytest.raises(DegenerateError, match="zero noise variance"):
            fam_paths(cfg, 4, seed=1)


def _discrete_posterior(cfg, t, i_t, x0):
    from arcadeproc import ap_cov
    g1 = float(cfg.signal.eval(1, t))
    g0 = float(cfg.signal.eval(0, t))
    va = float(ap_cov(cfg.arcade, t, t))
    y, w = cfg.coupling.steps[0].atoms_given(np.asarray([x0]))
    z = i_t - g0 * x0
    logits = -0.5 * (z - g1 * y[0]) ** 2 / va + np.log(w[0])
    ww = np.exp(logits - logits.max())
    ww /= ww.sum()
    mean = float(ww @ y[0])
    return mean, float(ww @ (y[0] ** 2)) - mean ** 2


class TestFamPaths:
    def test_terminal_and_initial_match(self, tanh_cfg):
        trace = fam_paths(tanh_cfg, 500, seed=1)
        assert np.array_equal(trace.m_paths[:, 0], trace.x[:, 0])
        assert np.array_equal(trace.m_paths[:, -1], trace.x[:, -1])

    def test_martingale_mean(self, tanh_cfg):
        trace = fam_paths(tanh_cfg, 100_000, seed=2, with_innovations=False)
        x0_mean = trace.x[:, 0].mean()
        for k in range(0, trace.grid.size, 10):
            col = trace.m_paths[:, k]
            assert_within_3se(col.mean(), x0_mean,
                              col.std(ddof=1) / np.sqrt(col.size) + 1e-12,
                              f"E[M] node {k}")

    def test_increment_orthogonality(self, tanh_cfg):
        trace = fam_paths(tanh_cfg, 100_000, seed=3, with_innovations=False)
        s_idx, t_idx = 20, 40
        dm = trace.m_paths[:, t_idx] - trace.m_paths[:, s_idx]
        for label, h in (
            ("1", np.ones(trace.n_paths)),
            ("X0", trace.x[:, 0]),
            ("I_s", trace.i_paths[:, s_idx]),
            ("M_s", trace.m_paths[:, s_idx]),
        ):
            prod = dm * h
            assert_within_3se(prod.mean(), 0.0,
                              prod.std(ddof=1) / np.sqrt(prod.size),
                              f"E[dM * {label}]")

    def test_natural_filtration_orthogonality(self, tanh_cfg):
        trace = fam_paths(tanh_cfg, 100_000, seed=4, with_innovations=False)
        s_idx, t_idx = 15, 35
        dm = trace.m_paths[:, t_idx] - trace.m_paths[:, s_idx]
        for label, g in (("id", trace.m_paths[:, s_idx]),
                         ("square", trace.m_paths[:, s_idx] ** 2)):
            prod = dm * g
            assert_within_3se(prod.mean(), 0.0,
                              prod.std(ddof=1) / np.sqrt(prod.size),
                              f"E[dM * {label}(M_s)]")

    def test_terminal_rmse_decreasing(self, tanh_cfg):
        trace = fam_paths(tanh_cfg, 20_000, seed=5, with_innovations=False)
        rmse = np.sqrt(np.mean((trace.m_paths - trace.x[:, -1][:, None]) ** 2, axis=0))
        tail = rmse[-11:]
        assert np.all(np.diff(tail) < 0.0)

    def test_brownian_coupling_martingale_equals_process(self, unit_partition):
        cfg = _bridge_rap(unit_partition, brownian_coupling(1.0, 1.0))
        trace = fam_paths(cfg, 200, seed=6)
        interior = slice(1, -1)
        assert np.max(np.abs(trace.m_paths[:, interior] - trace.i_paths[:, interior])) <= 1e-8

    def test_reduction_matches_bruteforce_two_arcs(self):
        p = Partition((0.0, 1.0, 2.0), 50)
        cfg = _bridge_rap(p, binary_chain_kernel(2))
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            t = float(rng.uniform(0.05, 1.95))
            if min(abs(t - 1.0), abs(t), abs(t - 2.0)) < 0.02:
                continue
            m = p.arc_of(t)
            x_obs = [1.0] if m == 0 else [1.0, 2.0]
            i_t = float(rng.uniform(-2.5, 2.5))
            reduced = fam_filter_discrete(cfg, t, i_t, x_obs)
            brute = fam_filter_bruteforce(cfg, t, i_t, x_obs)
            worst = max(worst, abs(reduced - brute))
        assert worst <= 1e-10

    @staticmethod
    def _leaking_two_arc_config(kernel, steps=20):
        # carryover signal activates g_2's arc only, so reduction applies;
        # force a non-reduced config by adding early support to g_2
        from arcadeproc import table_coefficients
        p = Partition((0.0, 1.0, 2.0), steps)
        hats = piecewise_linear_coefficients(p)
        table = hats.grid_matrix().copy()
        g = p.grid
        table[2] = table[2] + np.where(g <= 1.0, 0.3 * np.sin(np.pi * g) ** 2, 0.0)
        signal = table_coefficients(p, table, role="signal")
        return RapConfig(ArcadeConfig(brownian_driver(), hats), signal, kernel)

    @staticmethod
    def _leaking_three_arc_config(kernel, steps=20):
        # g_2 leaks onto arc 0 and g_3 onto arcs 0 and 1
        from arcadeproc import table_coefficients
        p = Partition((0.0, 1.0, 2.0, 3.0), steps)
        hats = piecewise_linear_coefficients(p)
        table = hats.grid_matrix().copy()
        g = p.grid
        table[2] = table[2] + np.where(g <= 1.0, 0.3 * np.sin(np.pi * g) ** 2, 0.0)
        table[3] = table[3] + np.where(g <= 2.0, 0.2 * np.sin(np.pi * g) ** 2, 0.0)
        signal = table_coefficients(p, table, role="signal")
        return RapConfig(ArcadeConfig(brownian_driver(), hats), signal, kernel)

    def test_full_conditioning_when_signal_leaks(self):
        cfg = self._leaking_two_arc_config(binary_chain_kernel(2))
        p = cfg.arcade.partition
        trace = fam_paths(cfg, 64, seed=8)
        # per-path check against the brute-force point filter on the first arc
        k = 10
        t = float(p.grid[k])
        for pidx in range(8):
            want = fam_filter_bruteforce(cfg, t, float(trace.i_paths[pidx, k]),
                                         [float(trace.x[pidx, 0])])
            assert trace.m_paths[pidx, k] == pytest.approx(want, abs=1e-12)

    def test_point_filters_follow_the_march_on_a_leaking_signal(self):
        # on arc 0 the march conditions on (X_1, X_2); the point filter must too
        cfg = self._leaking_two_arc_config(binary_chain_kernel(2))
        p = cfg.partition
        trace = fam_paths(cfg, 16, seed=8)
        for k in (3, 10, 17, 23, 30, 37):
            t = float(p.grid[k])
            for pidx in range(0, 16, 3):
                x_obs = trace.x[pidx, : p.arc_of(t) + 1].tolist()
                i_t = float(trace.i_paths[pidx, k])
                got = fam_filter_discrete(cfg, t, i_t, x_obs)
                assert got == trace.m_paths[pidx, k]
                assert got == pytest.approx(fam_filter_bruteforce(cfg, t, i_t, x_obs), abs=1e-12)
        for t, i_t, x_obs in ((0.3, 0.5, [1.0]), (0.5, -1.2, [1.0]), (0.137, 2.0, [-1.0]),
                              (0.871, -0.4, [1.0]), (1.29, 1.7, [1.0, 2.0]),
                              (1.777, -0.3, [-1.0, 0.0])):
            assert fam_filter_discrete(cfg, t, i_t, x_obs) == pytest.approx(
                fam_filter_bruteforce(cfg, t, i_t, x_obs), abs=1e-12)

    def test_full_conditioning_of_gaussian_chain_is_config_error(self):
        # the suffix posterior needs atoms; a Gaussian chain whose signal
        # leaks g_2 onto arc 0 is refused, not filtered with one target
        chain = CouplingKernel(GaussianMarginal(0.0, 1.0),
                               (GaussianStepKernel(var=1.0), GaussianStepKernel(var=1.0)))
        cfg = self._leaking_two_arc_config(chain)
        with pytest.raises(ConfigError, match="full conditioning needs atom-valued step kernels"):
            fam_paths(cfg, 8, seed=8)

    def test_full_conditioning_over_three_target_suffixes(self):
        # g_2 leaks onto arc 0 and g_3 onto arcs 0 and 1, so the march
        # conditions on suffixes of 3, 2 and 1 targets on the three arcs; the
        # targets are independent, so E[X_3 | .] differs from E[X_{m+1} | .]
        from arcadeproc.coupling import independent_pm1_chain
        cfg = self._leaking_three_arc_config(independent_pm1_chain(3))
        p = cfg.partition
        trace = fam_paths(cfg, 64, seed=30)
        for k in TestTiledMarch._nodes(cfg):
            t = float(p.grid[k])
            arc = p.arc_of(t)
            for pidx in TestTiledMarch._paths(64):
                want = fam_filter_bruteforce(cfg, t, float(trace.i_paths[pidx, k]),
                                             trace.x[pidx, : arc + 1].tolist())
                assert trace.m_paths[pidx, k] == pytest.approx(want, abs=1e-12)


class TestPathArguments:
    """Path counts, seeds and blocks are checked before any path buffer is
    allocated and refused with ``ConfigError``."""

    PRODUCERS = {
        "driver": lambda cfg, *args, **kw: simulate_driver(
            brownian_driver(), Partition((0.0, 1.0), 10), *args, **kw),
        "rap": build_rap_paths,
        "fam": fam_paths,
    }

    @pytest.mark.parametrize("producer", list(PRODUCERS))
    def test_non_integer_path_count_is_config_error(self, tanh_cfg, producer):
        with pytest.raises(ConfigError, match="n_paths must be an integer"):
            self.PRODUCERS[producer](tanh_cfg, 2.5, 0)

    def test_non_integer_seed_is_config_error(self, tanh_cfg):
        # int(2.5) would silently read seed 2's stream
        with pytest.raises(ConfigError, match="seed must be an integer"):
            fam_paths(tanh_cfg, 4, 2.5)

    def test_negative_block_is_config_error(self, tanh_cfg):
        with pytest.raises(ConfigError, match="block must be a non-negative integer"):
            fam_paths(tanh_cfg, 4, 0, block=-1)

    def test_negative_seed_is_masked_to_64_bits(self, tanh_cfg):
        got, want = fam_paths(tanh_cfg, 4, -1), fam_paths(tanh_cfg, 4, 2**64 - 1)
        assert np.array_equal(got.i_paths, want.i_paths)
        assert np.array_equal(got.x, want.x)


class TestCsvFiles:
    EDGES = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1]

    @staticmethod
    def _expected(trace, pidx):
        # the per-value formula: repr(float(v)) for t, I, M, W (nan without
        # innovations) and vol
        lines = ["t,I,M,W,vol"]
        for k, t in enumerate(trace.grid):
            w = trace.w_paths[pidx, k] if trace.w_paths is not None else float("nan")
            lines.append(",".join(repr(float(v)) for v in (
                t, trace.i_paths[pidx, k], trace.m_paths[pidx, k], w, trace.vol_paths[pidx, k])))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("with_w", [True, False])
    def test_text_is_the_per_value_repr(self, tmp_path, with_w):
        edges = np.asarray(self.EDGES)
        grid = np.linspace(0.0, 1.0, edges.size)
        paths = np.stack([edges, edges[::-1], np.roll(edges, 2)])     # (3 paths, 7 nodes)
        trace = FamTrace(grid=grid, i_paths=paths, m_paths=paths[::-1], vol_paths=-paths,
                         x=np.zeros((3, 2)), w_paths=np.roll(paths, 1, axis=1) if with_w else None)
        files = trace.to_csv_files(tmp_path, max_paths=2)
        assert [pathlib.Path(f).name for f in files] == ["path_0000.csv", "path_0001.csv"]
        for pidx, name in enumerate(files):
            text = pathlib.Path(name).read_text(encoding="utf-8")
            assert text == self._expected(trace, pidx)
        rows = [line.split(",") for line in pathlib.Path(files[0]).read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == ["-0.0", "nan", "inf", "-inf", "5e-324", "1e+16", "0.1"]
        assert with_w or all(row[3] == "nan" for row in rows)


class TestInnovations:
    def test_starts_at_zero(self, tanh_cfg):
        trace = fam_paths(tanh_cfg, 100, seed=9)
        assert np.all(trace.w_paths[:, 0] == 0.0)

    def test_brownian_coupling_gives_w_equals_i_minus_x0(self, unit_partition):
        cfg = _bridge_rap(unit_partition, brownian_coupling(1.0, 1.0))
        trace = fam_paths(cfg, 100, seed=10)
        dev = np.abs(trace.w_paths - (trace.i_paths - trace.x[:, [0]]))
        assert np.max(dev) <= 1e-6

    def test_quadratic_variation(self):
        p = Partition((0.0, 1.0), 1000)
        cfg = _bridge_rap(p, binary_pm1_kernel())
        trace = fam_paths(cfg, 512, seed=11)
        k_end = 800
        qv = np.sum(np.diff(trace.w_paths[:, : k_end + 1], axis=1) ** 2, axis=1)
        assert abs(np.median(qv) - 0.8) / 0.8 <= 0.02

    def test_increment_variance_and_decorrelation(self):
        p = Partition((0.0, 1.0), 200)
        cfg = _bridge_rap(p, binary_pm1_kernel())
        trace = fam_paths(cfg, 100_000, seed=12)
        s_idx, t_idx = 60, 140
        dw = trace.w_paths[:, t_idx] - trace.w_paths[:, s_idx]
        dt = float(trace.grid[t_idx] - trace.grid[s_idx])
        sq = dw ** 2
        assert_within_3se(sq.mean(), dt, sq.std(ddof=1) / np.sqrt(sq.size), "Var[dW]")
        prod = dw * trace.i_paths[:, s_idx]
        assert_within_3se(prod.mean(), 0.0, prod.std(ddof=1) / np.sqrt(prod.size),
                          "Corr(dW, I_s)")

    def test_ou_driver_innovations_are_standard(self, ou_unit):
        # the h2^{-1/2} normalization matters for non-Brownian drivers
        p = Partition((0.0, 1.0), 500)
        f = standard_coefficients(ou_unit, p)
        cfg = RapConfig(ArcadeConfig(ou_unit, f), f.with_role("signal"),
                        binary_pm1_kernel(), standard=True)
        trace = fam_paths(cfg, 20_000, seed=13)
        s_idx, t_idx = 150, 350
        dw = trace.w_paths[:, t_idx] - trace.w_paths[:, s_idx]
        dt = float(trace.grid[t_idx] - trace.grid[s_idx])
        sq = dw ** 2
        assert_within_3se(sq.mean(), dt, sq.std(ddof=1) / np.sqrt(sq.size),
                          "OU Var[dW]")
        qv = np.sum(np.diff(trace.w_paths[:, :401], axis=1) ** 2, axis=1)
        assert abs(np.median(qv) - 0.8) / 0.8 <= 0.02

    def test_drifting_driver_innovations_are_standard(self):
        # nonzero driver mean exercises the mu_A and mu_A' drift terms
        d = ou_driver(theta=1.0, sigma=1.0, mu=1.5, d0=-0.5, t_ref=0.0)
        p = Partition((0.0, 1.0), 500)
        f = standard_coefficients(d, p)
        cfg = RapConfig(ArcadeConfig(d, f), f.with_role("signal"),
                        binary_pm1_kernel(), standard=True)
        trace = fam_paths(cfg, 20_000, seed=18)
        s_idx, t_idx = 150, 350
        dw = trace.w_paths[:, t_idx] - trace.w_paths[:, s_idx]
        dt = float(trace.grid[t_idx] - trace.grid[s_idx])
        assert_within_3se(dw.mean(), 0.0, dw.std(ddof=1) / np.sqrt(dw.size),
                          "drift E[dW]")
        sq = dw ** 2
        assert_within_3se(sq.mean(), dt, sq.std(ddof=1) / np.sqrt(sq.size),
                          "drift Var[dW]")

    def test_degenerate_first_arc_is_rejected(self):
        # t*B_t from 0: H1(T_1) H2(0) - H1(0) H2(T_1) = 0, so the drift of
        # arc 0 has no finite coefficients
        p = Partition((0.0, 1.0), 50)
        f = standard_coefficients(scaled_bm_driver(), p)
        cfg = RapConfig(ArcadeConfig(scaled_bm_driver(), f), f.with_role("signal"),
                        binary_pm1_kernel(), standard=True)
        with pytest.raises(DegenerateError):
            fam_paths(cfg, 4, seed=19)

    def test_requires_standard(self, unit_partition):
        cfg = _bridge_rap(unit_partition, binary_pm1_kernel(), standard=False)
        trace = fam_paths(cfg, 10, seed=14, with_innovations=False)
        with pytest.raises(ConfigError):
            innovations_path(cfg, trace)


class TestIsometry:
    def test_binary_both_sides_one(self):
        p = Partition((0.0, 1.0), 500)
        cfg = _bridge_rap(p, binary_pm1_kernel())
        rep = ito_isometry_check(cfg, 20_000, seed=15)
        assert rep.lhs_mean == pytest.approx(1.0, abs=1e-12)
        assert rep.z_score <= 3.0

    def test_brownian_coupling_equals_horizon(self):
        p = Partition((0.0, 1.0), 500)
        cfg = _bridge_rap(p, brownian_coupling(1.0, 1.0))
        rep = ito_isometry_check(cfg, 20_000, seed=16)
        assert_within_3se(rep.lhs_mean, 1.0, rep.lhs_se, "E[(X1-X0)^2]")
        assert rep.z_score <= 3.0

    def test_deterministic_target_zero(self, unit_partition):
        cfg = _bridge_rap(unit_partition, deterministic_kernel(0.3, 1), standard=True)
        rep = ito_isometry_check(cfg, 2_000, seed=17)
        assert rep.lhs_mean == 0.0
        assert rep.rhs_mean == 0.0

    @pytest.mark.parametrize("block_size", [0, -1, 2.5])
    def test_block_size_below_one_is_a_config_error(self, unit_partition, block_size):
        # a fractional size is a config error as well
        cfg = _bridge_rap(unit_partition, binary_pm1_kernel())
        with pytest.raises(ConfigError, match="block_size"):
            ito_isometry_check(cfg, 10, seed=19, block_size=block_size)

    def test_fractional_path_count_is_a_config_error(self, unit_partition):
        cfg = _bridge_rap(unit_partition, binary_pm1_kernel())
        with pytest.raises(ConfigError, match="n_paths"):
            ito_isometry_check(cfg, 2.5, seed=19)

    def test_nonzero_difference_with_zero_se_fails(self):
        # X_0 = 1, X_1 = 2 on every path: the sides differ by exactly 1 with
        # no spread, which must not read as a z-score of 0
        hats = piecewise_linear_coefficients(Partition((0.0, 1.0), 20))
        kernel = CouplingKernel(DegenerateMarginal(1.0), (DeterministicAffineKernel(2.0),))
        cfg = RapConfig(ArcadeConfig(brownian_driver(), hats), hats.with_role("signal"),
                        kernel)
        rep = ito_isometry_check(cfg, 10, seed=20)
        assert (rep.diff_mean, rep.diff_se) == (1.0, 0.0)
        assert rep.z_score == np.inf
        assert rep.as_dict()["z_score"] is None


class TestNonFiniteTables:
    """A NaN at one interior grid node is refused where the value is first
    tabulated, before any streamed reducer reads it."""

    @staticmethod
    def _nan_at(f, node):
        return lambda t: np.where(np.asarray(t, dtype=float) == node, np.nan, f(t))

    def test_coefficient_callable(self):
        p = Partition((0.0, 1.0), 20)
        node = p.grid[7]
        cs = CoefficientSet(p, "custom", functions=(
            self._nan_at(lambda t: 1.0 - np.asarray(t), node), lambda t: np.asarray(t)))
        assert not validate_coefficient_set(cs).passed
        with pytest.raises(ConfigError, match="not finite"):
            ArcadeConfig(brownian_driver(), cs)
        hats = piecewise_linear_coefficients(p)
        with pytest.raises(ConfigError, match="not finite"):
            RapConfig(ArcadeConfig(brownian_driver(), hats), cs.with_role("signal"),
                      binary_pm1_kernel())

    @pytest.mark.parametrize("field", ["h1", "dh1"])
    def test_driver_function(self, field):
        # H1 reaches the sampler's law, dH1 the march's derivative terms
        p = Partition((0.0, 1.0), 20)
        d = brownian_driver()
        d = dataclasses.replace(d, **{field: self._nan_at(getattr(d, field), p.grid[7])})
        hats = piecewise_linear_coefficients(p)
        cfg = RapConfig(ArcadeConfig(d, hats), hats.with_role("signal"), binary_pm1_kernel())
        with pytest.raises(ConfigError, match="finite on the grid"):
            ito_isometry_check(cfg, 100, seed=21)


class TestTiledMarch:
    """The filter, the innovations and the driver march over node rows of
    time-major path arrays (the class is named after the tiled march these
    cases were first written for).  Node counts above 128 with one path or
    with many must give the point filters' values at nodes and paths spread
    evenly over the arrays."""

    @staticmethod
    def _nodes(cfg):
        """Seven interior nodes per arc, evenly spaced, the last one included."""
        steps = cfg.partition.steps_per_arc
        return [int(k) for arc in range(cfg.partition.n_arcs)
                for k in np.linspace(arc * steps + 1, (arc + 1) * steps - 1, 7).round()]

    @staticmethod
    def _paths(n_paths):
        """Six paths, evenly spaced, the first and the last included."""
        return np.unique(np.linspace(0, n_paths - 1, 6).round().astype(int)).tolist()

    @pytest.mark.parametrize("n_paths, steps", [(1, 129), (777, 333)])
    def test_atom_kernel_matches_discrete_filter(self, n_paths, steps):
        cfg = _bridge_rap(Partition((0.0, 1.0), steps), uniform_mot_kernel())
        trace = fam_paths(cfg, n_paths, seed=21)
        for k in self._nodes(cfg):
            t = float(trace.grid[k])
            for pidx in self._paths(n_paths):
                i_t, x_obs = float(trace.i_paths[pidx, k]), [float(trace.x[pidx, 0])]
                assert trace.m_paths[pidx, k] == pytest.approx(
                    fam_filter_discrete(cfg, t, i_t, x_obs), abs=1e-12)
                assert trace.vol_paths[pidx, k] == pytest.approx(
                    fam_volatility(cfg, t, i_t, x_obs), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n_paths, steps", [(1, 129), (777, 333)])
    def test_gaussian_kernel_matches_continuous_filter(self, n_paths, steps):
        cfg = _bridge_rap(Partition((0.0, 1.0), steps), gaussian_n01_kernel())
        trace = fam_paths(cfg, n_paths, seed=22)
        for k in self._nodes(cfg):
            t = float(trace.grid[k])
            for pidx in self._paths(n_paths):
                mean, _ = fam_filter_continuous(cfg, t, float(trace.i_paths[pidx, k]),
                                                [float(trace.x[pidx, 0])])
                assert trace.m_paths[pidx, k] == pytest.approx(mean, abs=1e-7)

    @pytest.mark.parametrize("n_paths", [1, 777])
    def test_chain_matches_bruteforce_filter(self, n_paths):
        cfg = _bridge_rap(Partition((0.0, 1.0, 2.0), 129), binary_chain_kernel(2))
        trace = fam_paths(cfg, n_paths, seed=23)
        for k in self._nodes(cfg):
            t = float(trace.grid[k])
            arc = cfg.partition.arc_of(t)
            for pidx in self._paths(n_paths):
                want = fam_filter_bruteforce(cfg, t, float(trace.i_paths[pidx, k]),
                                             trace.x[pidx, : arc + 1].tolist())
                assert trace.m_paths[pidx, k] == pytest.approx(want, abs=1e-10)

    @staticmethod
    def _innovations_config(kind, steps):
        """A two-arc chain, or one arc of a discrete law, a Gaussian
        posterior or an OU driver with a mean of its own."""
        if kind == "chain":
            return _bridge_rap(Partition((0.0, 1.0, 2.0), steps), binary_chain_kernel(2))
        p = Partition((0.0, 1.0), steps)
        if kind == "ou":
            d = ou_driver(theta=1.0, sigma=1.0, mu=1.5, d0=-0.5, t_ref=0.0)
            f = standard_coefficients(d, p)
            return RapConfig(ArcadeConfig(d, f), f.with_role("signal"),
                             binary_pm1_kernel(), standard=True)
        return _bridge_rap(p, binary_pm1_kernel() if kind == "binary_pm1"
                           else gaussian_n01_kernel())

    @pytest.mark.parametrize("kind, n_paths, steps", [
        pytest.param("chain", 1, 129, id="1-129"),
        pytest.param("chain", 777, 333, id="777-333"),
        *(pytest.param(kind, n_paths, 200, id=f"{kind}-{n_paths}")
          for kind in ("binary_pm1", "gaussian", "ou") for n_paths in (1, 2, 256)),
    ])
    def test_innovations_path_reproduces_trace(self, kind, n_paths, steps):
        # innovations_path re-runs the march on the stored I rows, so W must
        # be the trace's bits
        cfg = self._innovations_config(kind, steps)
        trace = fam_paths(cfg, n_paths, seed=24)
        w = trace.w_paths.copy()
        assert innovations_path(cfg, trace).tobytes() == w.tobytes()
        assert trace.w_paths.tobytes() == w.tobytes()
        assert np.all(w[:, 0] == 0.0)

    @pytest.mark.parametrize("n_paths", [1, 777])
    def test_brownian_coupling_innovations_match_process(self, n_paths):
        # W = I - X_0 for the Brownian coupling, so a node that drops or
        # repeats an increment shows up as a jump
        cfg = _bridge_rap(Partition((0.0, 1.0), 333), brownian_coupling(1.0, 1.0))
        trace = fam_paths(cfg, n_paths, seed=25)
        dev = np.abs(trace.w_paths - (trace.i_paths - trace.x[:, [0]]))
        assert np.max(dev) <= 1e-6

    def test_paths_are_views_of_time_major_buffers(self):
        # a paths-major copy would double the memory and make node rows strided
        cfg = _bridge_rap(Partition((0.0, 1.0, 2.0), 129), binary_chain_kernel(2))
        bundle = simulate_driver(brownian_driver(), cfg.partition, 5, seed=26)
        trace = fam_paths(cfg, 5, seed=26)
        for arr in (bundle.values, trace.i_paths, trace.m_paths, trace.vol_paths,
                    trace.w_paths):
            assert arr.shape == (5, cfg.partition.grid.size)
            assert arr.T.flags.c_contiguous and not arr.flags.c_contiguous


class TestStreamedReducers:
    """The Monte Carlo reducers consume the node march without storing M, vol
    or W.  The references below apply the node-row formulas to whole
    ``fam_paths`` traces, one trace per path block, and must agree bit for
    bit on every path (777 paths in blocks of 500, 333 nodes)."""

    N_PATHS, BLOCK, SEED = 777, 500, 27

    def _traces(self, cfg):
        sizes = (self.BLOCK, self.N_PATHS - self.BLOCK)
        return [fam_paths(cfg, n, self.SEED, block=b) for b, n in enumerate(sizes)]

    def test_objective_sums_match_trace_reference(self):
        from arcadeproc.ibmot import _bridge_config, _mc_path_estimators, ibmot_objective_mc

        kernel = uniform_mot_kernel()
        cfg = _bridge_config(kernel, 1.0, 332)
        grid = cfg.partition.grid
        assert grid.size == 333
        dt = np.diff(grid)
        weights = 0.5 * (np.append(dt[:-1], 0.0) + np.insert(dt[:-1], 0, 0.0))
        weights[-1] += dt[-1]
        weights /= 1.0 - grid[:-1]
        ti_parts, ep_parts = [], []
        for trace in self._traces(cfg):
            x_end = trace.x[:, -1]
            part = np.zeros(trace.n_paths)
            for wk, m in zip(weights, trace.m_paths.T[:-1]):
                err = x_end - m
                part += wk * (err * err)
            ti_parts.append(part)
            ep_parts.append(x_end * trace.w_paths[:, -1])
        ti_ref, ep_ref = np.concatenate(ti_parts), np.concatenate(ep_parts)

        ti, ep = _mc_path_estimators(cfg, self.N_PATHS, self.SEED, self.BLOCK)
        assert np.array_equal(ti, ti_ref)
        assert np.array_equal(ep, ep_ref)
        mc = ibmot_objective_mc(kernel, 1.0, self.N_PATHS, self.SEED, steps=332,
                                block_size=self.BLOCK)
        root_n = np.sqrt(self.N_PATHS)
        diff = ti_ref - ep_ref
        assert (mc.k_i_time, mc.se_time) == (float(ti_ref.mean()),
                                             float(ti_ref.std(ddof=1)) / root_n)
        assert (mc.k_i_endpoint, mc.se_endpoint) == (float(ep_ref.mean()),
                                                     float(ep_ref.std(ddof=1)) / root_n)
        assert (mc.diff, mc.diff_se) == (float(diff.mean()), float(diff.std(ddof=1)) / root_n)

    def test_isometry_sums_match_trace_reference(self):
        from arcadeproc.fam import _isometry_sums

        cfg = _bridge_rap(Partition((0.0, 1.0, 2.0), 166), binary_chain_kernel(2))
        assert cfg.partition.grid.size == 333
        dt = np.diff(cfg.partition.grid)
        weights = 0.5 * (np.append(dt, 0.0) + np.insert(dt, 0, 0.0))
        lhs_parts, rhs_parts = [], []
        for trace in self._traces(cfg):
            rhs = np.zeros(trace.n_paths)
            for wk, vol in zip(weights, trace.vol_paths.T):
                rhs += wk * (vol * vol)
            lhs_parts.append((trace.x[:, -1] - trace.x[:, 0]) ** 2)
            rhs_parts.append(rhs)
        lhs_ref, rhs_ref = np.concatenate(lhs_parts), np.concatenate(rhs_parts)

        lhs, rhs = _isometry_sums(cfg, self.N_PATHS, self.SEED, self.BLOCK)
        assert np.array_equal(lhs, lhs_ref)
        assert np.array_equal(rhs, rhs_ref)
        rep = ito_isometry_check(cfg, self.N_PATHS, self.SEED, block_size=self.BLOCK)
        root_n = np.sqrt(self.N_PATHS)
        diff = lhs_ref - rhs_ref
        assert (rep.rhs_mean, rep.rhs_se) == (float(rhs_ref.mean()),
                                              float(rhs_ref.std(ddof=1)) / root_n)
        assert (rep.diff_mean, rep.diff_se) == (float(diff.mean()),
                                                float(diff.std(ddof=1)) / root_n)

    def test_stored_rows_come_from_one_generator(self):
        # the driver, arcade and RAP bundles and the streamed reducers store
        # or consume the rows of one date-first sampler: the RAP rows are the
        # arcade rows of the same driver draws plus the signal, added in
        # index order, and the streamed I rows are the stored ones
        from arcadeproc import build_ap_paths, build_rap_paths
        from arcadeproc.rap import _rap_blocks

        cfg = _bridge_rap(Partition((0.0, 1.0, 2.0), 166), binary_chain_kernel(2))
        driver_paths = simulate_driver(brownian_driver(), cfg.partition, self.N_PATHS, self.SEED)
        before = driver_paths.values.copy()
        ap = build_ap_paths(cfg.arcade, driver_paths)
        assert np.array_equal(driver_paths.values, before)
        fmat = cfg.arcade.coeffs.grid_matrix()
        d_rows = before.T
        assert np.allclose(ap.values.T, d_rows - fmat.T @ d_rows[cfg.partition.date_indices],
                           rtol=0.0, atol=1e-14)

        rap, x = build_rap_paths(cfg, self.N_PATHS, self.SEED)
        want = ap.values.T.copy()
        for g_i, x_i in zip(cfg.signal.grid_matrix(), x.T):
            want += g_i[:, None] * x_i[None, :]
        assert np.array_equal(rap.values.T, want)
        assert np.array_equal(fam_paths(cfg, self.N_PATHS, self.SEED).i_paths, rap.values)
        x_streamed, blocks = _rap_blocks(cfg, self.N_PATHS, self.SEED)
        assert np.array_equal(x_streamed, x)
        start = 0
        for rows in blocks:
            assert np.array_equal(rows, rap.values.T[start:start + len(rows)])
            start += len(rows)
        assert start == cfg.partition.grid.size

    @staticmethod
    def _reducer_peak(reducer, n_paths, steps, block_size=20000):
        """tracemalloc peak of one reducer call; numpy reports its buffers."""
        import tracemalloc

        # numpy 2 imports numpy.random on first attribute access, and the
        # reducers import the thread pool on first call; imported inside the
        # trace, the modules' own allocations would count
        import numpy.random  # noqa: F401
        from concurrent.futures import ThreadPoolExecutor  # noqa: F401

        from arcadeproc.ibmot import ibmot_objective_mc

        kernel = uniform_mot_kernel()
        cfg = _bridge_rap(Partition((0.0, 1.0), steps), kernel)
        tracemalloc.start()
        try:
            if reducer == "objective":
                ibmot_objective_mc(kernel, 1.0, n_paths, seed=28, steps=steps,
                                   block_size=block_size)
            else:
                ito_isometry_check(cfg, n_paths, seed=28, block_size=block_size)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("reducer", ["objective", "isometry"])
    def test_reducers_hold_one_path_array(self, reducer):
        # the march reads I rows straight from the sampler, so an operation
        # holds (paths,) rows and per-node tables, far below one
        # (nodes, paths) array
        n_paths, steps = 4000, 1000
        one_array = n_paths * (steps + 1) * 8
        peak = self._reducer_peak(reducer, n_paths, steps)
        assert peak < 0.25 * one_array, f"peak {peak / one_array:.3f} path arrays"

    @pytest.mark.parametrize("reducer", ["objective", "isometry"])
    def test_blocked_reducers_hold_one_block_array(self, reducer):
        # a block's rows are freed before the next block is simulated
        n_paths, steps, block = 4000, 1000, 1000
        block_array = block * (steps + 1) * 8
        peak = self._reducer_peak(reducer, n_paths, steps, block)
        assert peak < 0.25 * block_array, f"peak {peak / block_array:.3f} block arrays"

    @pytest.mark.parametrize("reducer", ["objective", "isometry"])
    def test_reducer_peak_is_flat_in_nodes(self, reducer):
        # O(paths) state: quadrupling the nodes leaves the peak nearly flat
        short = self._reducer_peak(reducer, 4000, 500)
        long = self._reducer_peak(reducer, 4000, 2000)
        assert long <= 1.2 * short, f"peak ratio {long / short:.3f} from 501 to 2001 nodes"


class TestSamplerThread:
    """The Monte Carlo reducers draw their ``I`` rows in one worker thread
    (``drivers._sampled_ahead``).  It ends before the reducer returns or raises,
    runs one path block at a time, runs only the generator bodies, and an
    error raised in it reaches the caller as the same object."""

    SEED = 33
    FAM_DOC = {
        "partition": {"dates": [0.0, 1.0], "steps_per_arc": 200},
        "driver": {"preset": "brownian"},
        "coefficients": {"family": "piecewise_linear"},
        "coupling": {"preset": "binary_pm1"},
        "standard": True,
        "n_paths": 8,
        "seed": 17,
        "isometry": {"n_paths": 50},
        "max_path_files": 1,
    }

    @staticmethod
    def _cfg():
        # 200 steps: a path block of at most 256 paths has 6 sampler blocks,
        # more than the ring holds, so the worker waits for the march
        return _bridge_rap(Partition((0.0, 1.0), 200), binary_pm1_kernel())

    @staticmethod
    def _failing_sampler(monkeypatch, err, after=1):
        """Make block ``after`` of every sampler raise ``err``; returns the
        names of the threads it was raised in."""
        real, raised_in = fam_module._rap_blocks, []

        def failing(*args):
            x, blocks = real(*args)

            def rows():
                for count, block in enumerate(blocks):
                    if count == after:
                        raised_in.append(threading.current_thread().name)
                        raise err
                    yield block

            return x, rows()

        monkeypatch.setattr(fam_module, "_rap_blocks", failing)
        return raised_in

    def test_reducers_leave_no_thread(self):
        from arcadeproc.ibmot import ibmot_objective_mc

        before = threading.active_count()
        ito_isometry_check(self._cfg(), 50, self.SEED, block_size=20)
        assert threading.active_count() == before
        ibmot_objective_mc(uniform_mot_kernel(), 1.0, 50, self.SEED, steps=200, block_size=20)
        assert threading.active_count() == before

    def test_reduce_raising_mid_march_joins_the_worker(self):
        before = threading.active_count()
        err = NumericError("reduce failed")

        def reduce(x, blocks):
            for count, _ in enumerate(blocks):
                if count == 2:
                    raise err

        with pytest.raises(NumericError) as info:
            _paired_path_sums(self._cfg(), 50, self.SEED, 20, reduce, with_innovations=False)
        assert info.value is err
        assert threading.active_count() == before

    @pytest.mark.parametrize("error", [ConfigError, NumericError])
    def test_sampler_error_reaches_the_caller(self, monkeypatch, error):
        err = error("sampler failed")
        raised_in = self._failing_sampler(monkeypatch, err)
        before = threading.active_count()
        with pytest.raises(error) as info:
            ito_isometry_check(self._cfg(), 50, self.SEED, block_size=20)
        assert info.value is err
        assert raised_in == ["arcadeproc-sampler_0"]
        assert threading.active_count() == before

    @pytest.mark.parametrize("error, code", [(ConfigError, EXIT_CONFIG),
                                             (NumericError, EXIT_NUMERIC)])
    def test_sampler_error_keeps_the_cli_exit_code(self, monkeypatch, tmp_path, capsys,
                                                   error, code):
        raised_in = self._failing_sampler(monkeypatch, error("sampler failed"))
        cfg = tmp_path / "fam.json"
        cfg.write_text(json.dumps(self.FAM_DOC))
        before = threading.active_count()
        rc = main(["fam", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == code
        assert raised_in == ["arcadeproc-sampler_0"]
        assert "sampler failed" in capsys.readouterr().err
        assert threading.active_count() == before

    def test_one_worker_at_a_time_over_many_path_blocks(self):
        before = threading.active_count()
        alive = []

        def reduce(x, blocks):
            for _ in blocks:
                alive.append(threading.active_count())
            return x[:, 0], x[:, -1]

        _paired_path_sums(self._cfg(), 30, self.SEED, 1, reduce, with_innovations=False)
        assert len(alive) == 30 * 6             # a date, 199 interior nodes by 64, a date
        # the worker may end before the march reads its last block
        assert max(alive) == before + 1
        assert threading.active_count() == before

    def test_concurrent_readers_see_the_serial_rows(self):
        # each reader holds its previous block while it checks the next, as
        # the march does; a slot handed back to the worker too early shows
        # as a row that differs from the serial sampler's
        from arcadeproc.rap import _rap_blocks

        cfg, n_paths = self._cfg(), 256                  # 16-node blocks: 15 per path
        _, serial = _rap_blocks(cfg, n_paths, self.SEED)
        want = [rows.copy() for rows in serial]
        mismatches, finished = [], []

        def read():
            _, blocks = _rap_blocks(cfg, n_paths, self.SEED)
            with _sampled_ahead(blocks) as rows:
                prev = None
                for k, block in enumerate(rows):
                    time.sleep(1e-3)                     # let the worker run ahead
                    if not np.array_equal(block, want[k]) or (
                            prev is not None and not np.array_equal(prev, want[k - 1])):
                        mismatches.append(k)
                    prev = block
            finished.append(k + 1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read) for _ in range(4)]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert finished == [len(want)] * 4
        assert mismatches == []

    @staticmethod
    def _recorded_draws(requested, drawn_at):
        """The sampler's blocks, recording in ``drawn_at`` the reader's
        request count ``requested[0]`` as each draw starts."""
        from arcadeproc.rap import _rap_blocks

        # 1024 paths: 15 blocks of at most 16 nodes
        _, blocks = _rap_blocks(TestSamplerThread._cfg(), 1024, TestSamplerThread.SEED)
        drawn_at.append(requested[0])
        for block in blocks:
            yield block
            drawn_at.append(requested[0])

    def test_worker_draws_at_most_two_blocks_ahead(self):
        # block j is drawn into the slot of block j - 4, which the reader
        # holds until it requests block j - 2; a slow reader lets the worker
        # run as far ahead as the ring allows
        requested, drawn_at = [0], []
        with _sampled_ahead(self._recorded_draws(requested, drawn_at)) as rows:
            while True:
                requested[0] += 1
                if next(rows, None) is None:
                    break
                time.sleep(1e-3)
        assert requested[0] == 16 and len(drawn_at) == 16
        assert all(count >= j - 1 for j, count in enumerate(drawn_at)), drawn_at

    def test_reader_stopping_early_leaves_no_draw_running(self):
        before = threading.active_count()
        requested, drawn_at = [0], []
        with _sampled_ahead(self._recorded_draws(requested, drawn_at)) as rows:
            for _ in range(3):
                requested[0] += 1
                next(rows)
            time.sleep(0.05)                         # let the worker run ahead
        assert len(drawn_at) <= 3 + 2
        assert threading.active_count() == before

    def test_eager_part_runs_in_the_calling_thread(self, monkeypatch):
        # the date rows and the target draw stay in the caller, where a
        # tracer that patches CouplingKernel.sample keeps its span stack
        real, threads = CouplingKernel.sample, []

        def sample(kernel, *args):
            threads.append(threading.current_thread())
            return real(kernel, *args)

        monkeypatch.setattr(CouplingKernel, "sample", sample)
        ito_isometry_check(self._cfg(), 50, self.SEED, block_size=20)
        assert threads == [threading.current_thread()] * 3


def _posterior_from_atoms_plain(y, logw, resid, g_next, var_a):
    """The atom posterior as plain expressions, a new array per operation."""
    if var_a > _VAR_FLOOR:
        z = resid - g_next * y
        logw = logw - 0.5 * z * z / var_a
    peak = np.max(logw, axis=0)
    underflow = int(np.count_nonzero(peak < _LOG_UNDERFLOW))
    wts = np.exp(logw - peak)
    wts /= np.sum(wts, axis=0)
    mean = np.sum(wts * y, axis=0)
    var = np.sum(wts * y * y, axis=0) - mean * mean
    return mean, np.clip(var, 0.0, None), underflow


def _posterior_gaussian_plain(m0, v0, resid, g_next, var_a):
    """The conjugate normal update as plain expressions."""
    if var_a <= _VAR_FLOOR or g_next == 0.0:
        return m0, np.full_like(np.asarray(m0, dtype=float), v0), 0
    prec = 1.0 / v0 + g_next * g_next / var_a
    var = 1.0 / prec
    mean = var * (m0 / v0 + g_next * resid / var_a)
    return mean, np.full_like(np.asarray(mean, dtype=float), var), 0


class TestInPlaceKernels:
    """The posterior kernels write into scratch buffers and the march skips
    the volatility where no one reads it; both must leave every bit of the
    plain-expression results unchanged."""

    N_PATHS = 1001

    def _atoms(self, atoms, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(atoms, self.N_PATHS))
        # C-contiguous (atoms, paths), as _suffix_prior lays a one-target prior out
        w = np.ascontiguousarray(rng.dirichlet(np.ones(atoms), size=self.N_PATHS).T)
        if atoms > 2:
            w[1, ::3] = 0.0                 # an impossible atom on some rows
        logw = np.where(w > 0.0, np.log(np.where(w > 0.0, w, 1.0)), -np.inf)
        resid = 2.0 * rng.normal(size=self.N_PATHS)
        resid[-1] = 1e4                     # every weight of this row underflows
        return y, logw, resid

    @pytest.mark.parametrize("atoms", [1, 2, 7, 8, 9])
    @pytest.mark.parametrize("var_a", [0.3, _VAR_FLOOR, 0.5 * _VAR_FLOOR])
    def test_atom_posterior_matches_plain_expressions(self, atoms, var_a):
        y, logw, resid = self._atoms(atoms, seed=atoms)
        # a one-target suffix; the second call reuses the scratch the first one filled
        work = (np.empty((max(atoms, 2), self.N_PATHS)), np.empty((max(atoms, 2), self.N_PATHS)))
        for shift in (0.0, 0.25):
            want = _posterior_from_atoms_plain(y, logw, resid + shift, 0.7, var_a)
            mean, var, uf = _posterior_from_atoms(y[None], logw, work, resid + shift, (0.7,),
                                                  var_a)
            assert np.array_equal(mean, want[0])
            assert np.array_equal(var, want[1])
            assert uf == want[2]
            if var_a > _VAR_FLOOR:
                assert uf >= 1
            mean, var, uf = _posterior_from_atoms(y[None], logw, work, resid + shift, (0.7,),
                                                  var_a, with_variance=False)
            assert np.array_equal(mean, want[0]) and var is None and uf == want[2]

    @pytest.mark.parametrize("g_next", [0.0, 0.6])
    @pytest.mark.parametrize("var_a", [0.3, _VAR_FLOOR])
    def test_gaussian_posterior_matches_plain_expressions(self, g_next, var_a):
        rng = np.random.default_rng(5)
        m0, resid = rng.normal(size=self.N_PATHS), rng.normal(size=self.N_PATHS)
        work = (np.empty(self.N_PATHS), np.empty(self.N_PATHS))
        want = _posterior_gaussian_plain(m0, 0.8, resid, g_next, var_a)
        got = _posterior_gaussian(m0, 0.8, work, resid, (g_next,), var_a)
        assert np.array_equal(got[0], want[0])
        assert got[1].shape == want[1].shape and np.array_equal(got[1], want[1])
        assert got[2] == want[2] == 0
        mean, var, _ = _posterior_gaussian(m0, 0.8, work, resid, (g_next,), var_a,
                                           with_variance=False)
        assert np.array_equal(mean, want[0]) and var is None

    @pytest.mark.parametrize("kernel", ["uniform", "chain"])
    def test_march_without_volatility_keeps_m_and_w(self, kernel):
        if kernel == "uniform":
            cfg = _bridge_rap(Partition((0.0, 1.0), 332), uniform_mot_kernel())
        else:
            cfg = _bridge_rap(Partition((0.0, 1.0, 2.0), 166), binary_chain_kernel(2))
        assert cfg.partition.grid.size == 333
        rap, x = build_rap_paths(cfg, 777, seed=29)

        def blocks():
            return (rap.values.T[nodes] for nodes in _node_blocks(cfg.partition, 777))

        # a yielded block lives until the next block, so each row is copied
        on = [(m.copy(), w.copy(), vol.copy())
              for b in _march(cfg, blocks(), x, with_innovations=True)
              for m, w, vol in zip(b.m, b.w, b.vol)]
        off = [(m.copy(), w.copy(), b.vol)
               for b in _march(cfg, blocks(), x, with_innovations=True, with_volatility=False)
               for m, w in zip(b.m, b.w)]
        assert len(on) == len(off) == 333
        for (m_on, w_on, _), (m_off, w_off, vol_off) in zip(on, off):
            assert np.array_equal(m_on, m_off)
            assert np.array_equal(w_on, w_off)
            assert vol_off is None


class TestBlockLayout:
    """The march does each stage once per block of nodes.  Fed the same
    stored ``I`` rows as one-node blocks and as the sampler's blocks, it
    must give the same M, volatility, W and underflow count, bit for bit,
    at path counts whose sampler blocks hold 64, 7 and 1 nodes."""

    @staticmethod
    def _config(kind):
        # 129 interior nodes per arc: sampler blocks of 64, 64 and 1 nodes
        # at 256 paths, and of 7 nodes with a 3-node remainder at 2340
        if kind == "atoms":
            return _bridge_rap(Partition((0.0, 1.0), 130), uniform_mot_kernel())
        if kind == "gaussian":
            return _bridge_rap(Partition((0.0, 1.0), 130), gaussian_n01_kernel())
        return TestFamPaths._leaking_two_arc_config(binary_chain_kernel(2), steps=130)

    @staticmethod
    def _march_rows(cfg, i_rows, x, slices):
        """M, vol and W as (nodes, paths) arrays, and the underflow total."""
        m, vol, w = (np.empty(i_rows.shape) for _ in range(3))
        underflow = 0
        for b in _march(cfg, (i_rows[s] for s in slices), x, with_innovations=cfg.standard):
            m[b.nodes], vol[b.nodes] = b.m, b.vol
            if b.w is not None:
                w[b.nodes] = b.w
            underflow += b.underflow
        return m, vol, (w if cfg.standard else None), underflow

    @pytest.mark.parametrize("kind", ["atoms", "gaussian", "chain"])
    @pytest.mark.parametrize("n_paths, nodes", [(256, 64), (2340, 7), (20000, 1)])
    def test_blocks_match_one_node_blocks(self, kind, n_paths, nodes):
        cfg = self._config(kind)
        assert _block_nodes(n_paths) == nodes
        rap, x = build_rap_paths(cfg, n_paths, seed=30)
        i_rows = rap.values.T
        size = cfg.partition.grid.size
        blocked = list(_node_blocks(cfg.partition, n_paths))
        assert max(s.stop - s.start for s in blocked) == nodes
        by_block = self._march_rows(cfg, i_rows, x, blocked)
        one_node = [slice(k, k + 1) for k in range(size)]
        # at one node per sampler block the two layouts are the same slices
        by_node = by_block if blocked == one_node else self._march_rows(cfg, i_rows, x, one_node)
        for got, want in zip(by_block[:3], by_node[:3]):
            if want is None:
                assert got is None
            else:
                assert got.tobytes() == want.tobytes()
        assert by_block[3] == by_node[3]
        trace = fam_paths(cfg, n_paths, seed=30)
        assert trace.m_paths.T.tobytes() == by_block[0].tobytes()
        assert trace.underflow_count == by_block[3]

    def test_one_path_eight_hypotheses_match_one_node_blocks(self):
        # g_2 and g_3 leak onto arc 0, so its posterior sums over the 2^3
        # suffixes of binary_chain_3; ufunc.reduce sums 8 or more single
        # elements pairwise, which a one-node, one-path block would hit
        cfg = TestFamPaths._leaking_three_arc_config(binary_chain_kernel(3), steps=130)
        rap, x = build_rap_paths(cfg, 1, seed=32)
        i_rows = rap.values.T
        blocked = list(_node_blocks(cfg.partition, 1))
        assert max(s.stop - s.start for s in blocked) == 64
        by_block = self._march_rows(cfg, i_rows, x, blocked)
        one_node = [slice(k, k + 1) for k in range(cfg.partition.grid.size)]
        by_node = self._march_rows(cfg, i_rows, x, one_node)
        for got, want in zip(by_block[:2], by_node[:2]):        # M and vol; W is off
            assert got.tobytes() == want.tobytes()
        assert by_block[3] == by_node[3]
