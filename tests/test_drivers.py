"""Driver covariances, exact sampling, quadratic variation, reproducibility."""

import io
import math

import numpy as np
import pytest

from arcadeproc import (
    ConfigError,
    DomainError,
    GaussMarkovDriver,
    Partition,
    brownian_driver,
    driver_covariance,
    driver_preset,
    driver_quadratic_variation,
    ou_driver,
    scaled_bm_driver,
    simulate_driver,
)
from arcadeproc.drivers import _VAR_FLOOR, simulate_driver_cholesky
from arcadeproc.streams import stream_rng

from conftest import assert_within_3se


class TestCovariance:
    def test_brownian_min(self):
        assert driver_covariance(brownian_driver(), 1.0, 3.0) == 1.0
        assert driver_covariance(brownian_driver(), 3.0, 1.0) == 1.0

    def test_ou_exponential(self):
        d = ou_driver(theta=1.0, sigma=np.sqrt(2.0))
        assert driver_covariance(d, 0.0, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert d.variance(5.0) == pytest.approx(1.0, rel=1e-12)

    def test_scaled_bm(self):
        assert driver_covariance(scaled_bm_driver(), 1.0, 2.0) == 2.0

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            driver_covariance(brownian_driver(), -1.0, 2.0, domain=(0.0, 10.0))

    def test_markov_transition_identity(self):
        # K(r,t) = K(r,s) K(s,t) / K(s,s) exactly, by the factorized form
        for d in (brownian_driver(), ou_driver(0.7, 1.3), scaled_bm_driver()):
            r, s, t = 0.4, 1.1, 2.9
            lhs = d.cov(r, t) * d.cov(s, s)
            rhs = d.cov(r, s) * d.cov(s, t)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_preset_lookup(self):
        assert driver_preset("brownian").label == "brownian"
        assert driver_preset("ou", theta=2.0, sigma=1.0).params["theta"] == 2.0
        with pytest.raises(ConfigError):
            driver_preset("levy")


class TestSimulation:
    def test_brownian_unit_variance(self):
        p = Partition((0.0, 1.0), 10)
        bundle = simulate_driver(brownian_driver(), p, 100_000, seed=1)
        final = bundle.values[:, -1]
        se = np.sqrt(2.0 / (final.size - 1))  # SE of the variance of N(0,1)
        assert_within_3se(np.var(final), 1.0, se, "Var[B_1]")
        assert np.all(bundle.values[:, 0] == 0.0)  # degenerate start is exact

    def test_ou_stationary_variance_every_node(self):
        d = ou_driver(theta=1.0, sigma=np.sqrt(2.0))
        p = Partition((0.0, 1.0, 2.0), 5)
        bundle = simulate_driver(d, p, 100_000, seed=2)
        for k in range(p.grid.size):
            col = bundle.values[:, k]
            se = np.var(col) * np.sqrt(2.0 / (col.size - 1))
            assert_within_3se(np.var(col), 1.0, se, f"Var[D_{p.grid[k]}]")

    def test_ou_mean_relaxation(self):
        d = ou_driver(theta=1.0, sigma=0.5, mu=2.0, d0=0.0, t_ref=0.0)
        p = Partition((0.0, 1.0), 4)
        bundle = simulate_driver(d, p, 50_000, seed=3)
        want = 2.0 + (0.0 - 2.0) * np.exp(-1.0)
        col = bundle.values[:, -1]
        assert_within_3se(np.mean(col), want, np.std(col) / np.sqrt(col.size), "OU mean")

    def test_covariance_grid_vs_closed_form(self):
        d = ou_driver(theta=0.8, sigma=1.1)
        p = Partition((0.0, 2.5), 4)
        bundle = simulate_driver(d, p, 100_000, seed=4)
        vals = bundle.values
        nodes = p.grid
        for a in range(nodes.size):
            for b in range(a, nodes.size):
                prod = (vals[:, a] - vals[:, a].mean()) * (vals[:, b] - vals[:, b].mean())
                est = prod.mean()
                se = prod.std(ddof=1) / np.sqrt(prod.size)
                assert_within_3se(est, float(d.cov(nodes[a], nodes[b])), se,
                                  f"cov({nodes[a]},{nodes[b]})")

    def test_sequential_matches_cholesky_in_law(self):
        # coarse 6-node grid; covariance matrices agree within combined 3 SE
        d = scaled_bm_driver()
        p = Partition((0.0, 2.5), 5)
        n = 100_000
        seq = simulate_driver(d, p, n, seed=5).values
        cho = simulate_driver_cholesky(d, p, n, seed=6).values
        for a in range(6):
            for b in range(a, 6):
                pa = (seq[:, a] - seq[:, a].mean()) * (seq[:, b] - seq[:, b].mean())
                pb = (cho[:, a] - cho[:, a].mean()) * (cho[:, b] - cho[:, b].mean())
                se = np.hypot(pa.std(ddof=1), pb.std(ddof=1)) / np.sqrt(n)
                assert_within_3se(pa.mean(), pb.mean(), se, f"chol vs seq ({a},{b})")

    def test_reproducible_bytes(self):
        p = Partition((0.0, 1.0), 20)
        one = simulate_driver(brownian_driver(), p, 50, seed=9)
        two = simulate_driver(brownian_driver(), p, 50, seed=9)
        assert one.csv_bytes() == two.csv_bytes()
        assert one.meta["config_hash"] == two.meta["config_hash"]
        other = simulate_driver(brownian_driver(), p, 50, seed=10)
        assert one.csv_bytes() != other.csv_bytes()

    @pytest.mark.parametrize("driver", [
        ou_driver(theta=0.8, sigma=1.3, mu=0.4, d0=-1.0),
        brownian_driver(),
    ], ids=["ou", "brownian"])
    def test_matches_scalar_recursion_bitwise(self, driver):
        # the sampler against the Markov recursion one path and one node at
        # a time, on the same normal draws
        p = Partition((0.0, 0.5, 1.5), 71)
        assert p.grid.size > 128
        seed, block, n_paths = 31, 2, 3
        got = simulate_driver(driver, p, n_paths, seed, block=block).values
        g = p.grid
        mean = np.asarray(driver.mean(g), dtype=float)
        var = np.asarray(driver.variance(g), dtype=float)
        z = stream_rng(seed, "D", block).standard_normal((n_paths, g.size))
        want = np.empty((n_paths, g.size))
        for i in range(n_paths):
            v0 = max(var[0], 0.0)
            want[i, 0] = mean[0] + (math.sqrt(v0) * z[i, 0] if v0 > _VAR_FLOOR else 0.0)
            for k in range(1, g.size):
                if var[k - 1] > _VAR_FLOOR:
                    kst = float(driver.cov(g[k - 1], g[k]))
                    a = kst / var[k - 1]
                    cv = max(var[k] - a * kst, 0.0)
                    want[i, k] = (mean[k] + a * (want[i, k - 1] - mean[k - 1])
                                  + math.sqrt(cv) * z[i, k])
                else:
                    cv = max(var[k], 0.0)
                    want[i, k] = mean[k] + (math.sqrt(cv) * z[i, k] if cv > _VAR_FLOOR else 0.0)
        assert np.array_equal(got, want)

    def test_csv_round_trip(self):
        p = Partition((0.0, 1.0), 3)
        bundle = simulate_driver(brownian_driver(), p, 4, seed=11)
        buf = io.StringIO()
        bundle.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,path_0,path_1,path_2,path_3"
        parsed = np.asarray([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed[:, 0], bundle.grid)
        assert np.array_equal(parsed[:, 1:], bundle.values.T)

    def test_invalid_driver_rejected(self):
        bad = GaussMarkovDriver(
            h1=lambda t: -np.asarray(t, float) - 1.0,
            h2=lambda t: np.ones_like(np.asarray(t, float)),
            mean=lambda t: np.zeros_like(np.asarray(t, float)),
            label="bad",
        )
        with pytest.raises(ConfigError):
            simulate_driver(bad, Partition((0.0, 1.0), 4), 10, seed=0)

    def test_paths_count_guard(self):
        with pytest.raises(ConfigError):
            simulate_driver(brownian_driver(), Partition((0.0, 1.0), 4), 0, seed=0)


class TestQuadraticVariation:
    def test_brownian_is_time(self):
        p = Partition((0.0, 2.0), 100)
        assert driver_quadratic_variation(brownian_driver(), p, 1.5) == pytest.approx(1.5, rel=1e-12)

    def test_ou_sigma_squared_rate(self):
        d = ou_driver(theta=1.0, sigma=np.sqrt(2.0))
        p = Partition((0.0, 1.0), 400)
        got = driver_quadratic_variation(d, p, 1.0)
        assert got == pytest.approx(2.0, rel=1e-6)

    def test_scaled_bm_cubic(self):
        p = Partition((0.0, 2.0), 400)
        got = driver_quadratic_variation(scaled_bm_driver(), p, 2.0)
        assert got == pytest.approx(8.0 / 3.0, rel=1e-5)

    def test_numeric_derivative_fallback(self):
        # same OU process without analytic derivatives
        ref = ou_driver(theta=1.0, sigma=1.0)
        d = GaussMarkovDriver(h1=ref.h1, h2=ref.h2, mean=ref.mean, label="ou_numeric")
        p = Partition((0.0, 1.0), 400)
        got = driver_quadratic_variation(d, p, 1.0)
        assert got == pytest.approx(1.0, rel=1e-5)
