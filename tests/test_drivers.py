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
    standard_coefficients,
)
from arcadeproc.drivers import (
    _VAR_FLOOR,
    PathBundle,
    _arc_algebra,
    _sampling_law,
    simulate_driver_cholesky,
)
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
        with pytest.raises(ConfigError, match="brownian"):
            driver_preset("brownian", theta=5.0)
        for bad in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ConfigError):
                driver_preset("ou", theta=bad, sigma=1.0)
            with pytest.raises(ConfigError):
                driver_preset("ou", theta=1.0, sigma=bad)
        with pytest.raises(ConfigError):
            driver_preset("ou", theta=1.0, sigma=1.0, mu=float("nan"))


class TestSimulation:
    def test_unknown_stream_label_raises(self):
        # labels map to fixed codes; none is derived from an unlisted name
        with pytest.raises(KeyError):
            stream_rng(1, "misc")

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
        # the sampler against the date-first bridge recursion one path and
        # one node at a time, on the same row draws: the dates by the Markov
        # recursion, then each interior node given its predecessor and its
        # arc's end date
        p = Partition((0.0, 0.5, 1.5), 71)
        assert p.grid.size > 128
        seed, block, n_paths = 31, 2, 3
        got = simulate_driver(driver, p, n_paths, seed, block=block).values
        g, steps, n_dates = p.grid, p.steps_per_arc, len(p.dates)
        h1, h2, mu = (np.asarray(f(g), dtype=float) for f in (driver.h1, driver.h2, driver.mean))
        dates = np.asarray(p.dates)
        h1_d, h2_d, mu_d = (np.asarray(f(dates), dtype=float)
                            for f in (driver.h1, driver.h2, driver.mean))
        # n+1 date rows, then one row per interior node: one row per node
        z = stream_rng(seed, "D", block).standard_normal((g.size, n_paths))
        want = np.empty((n_paths, g.size))
        for i in range(n_paths):
            at_dates = []
            for j in range(n_dates):
                var_j = float(h1_d[j] * h2_d[j])
                a, cv = 0.0, var_j
                if j and h1_d[j - 1] * h2_d[j - 1] > _VAR_FLOOR:
                    kst = float(h1_d[j - 1] * h2_d[j])
                    a = kst / float(h1_d[j - 1] * h2_d[j - 1])
                    cv = var_j - a * kst
                const = mu_d[j] - a * (mu_d[j - 1] if j else 0.0)
                value = math.sqrt(max(cv, 0.0)) * z[j, i] + const
                if j:
                    value = value + a * at_dates[-1]
                at_dates.append(value)
            row = n_dates
            for k in range(g.size):
                arc, offset = divmod(k, steps)
                if offset == 0:
                    want[i, k] = at_dates[arc]
                    continue
                s, b = k - 1, (arc + 1) * steps
                # a predecessor without variance enters as H1 = 0, H2 = 1
                live = h1[s] * h2[s] > _VAR_FLOOR
                h1_s, h2_s = (h1[s], h2[s]) if live else (0.0, 1.0)
                den = h1[b] * h2_s - h1_s * h2[b]
                right = h1[b] * h2[k] - h1[k] * h2[b]
                left = h1[k] * h2_s - h1_s * h2[k]
                assert den > 1e-12 * h1[b] * h2_s
                near, far, var = right / den, left / den, right * left / den
                value = math.sqrt(max(var, 0.0)) * z[row, i] + far * at_dates[arc + 1]
                value = value + ((mu[k] - near * mu[s]) - far * mu[b])
                want[i, k] = value + near * want[i, s]
                row += 1
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_paths", [1, 255, 256, 257, 777])
    def test_blocked_draw_matches_one_piece_draw(self, n_paths):
        # stream "D" is drawn as n+1 date rows, then one row per interior
        # node, each n_paths wide: one (rows, paths) draw in that order
        driver = ou_driver(theta=0.8, sigma=1.3, mu=0.4, d0=-1.0)
        p = Partition((0.0, 0.5, 1.5), 71)
        got = simulate_driver(driver, p, n_paths, 41, block=3).values.T
        sd, near, far, const = _sampling_law(driver, p)
        steps, n_dates = p.steps_per_arc, len(p.dates)
        z = stream_rng(41, "D", 3).standard_normal((p.grid.size, n_paths))
        at_dates = [sd[0] * z[0] + const[0]]
        for j in range(1, n_dates):
            k = j * steps
            at_dates.append((sd[k] * z[j] + const[k]) + near[k] * at_dates[-1])
        want = np.empty_like(got)
        interior = iter(z[n_dates:])
        for k in range(p.grid.size):
            arc, offset = divmod(k, steps)
            if offset == 0:
                want[k] = at_dates[arc]
                continue
            want[k] = ((sd[k] * next(interior) + far[k] * at_dates[arc + 1])
                       + const[k]) + near[k] * want[k - 1]
        assert np.array_equal(got, want)

    def test_path_depends_on_the_block_path_count(self):
        # rows are drawn n_paths wide, so the first path of a one-path block
        # and that of a two-path block share only the deterministic start
        p = Partition((0.0, 0.5, 1.5), 4)
        one = simulate_driver(brownian_driver(), p, 1, seed=3).values[0]
        two = simulate_driver(brownian_driver(), p, 2, seed=3).values[0]
        assert one[0] == two[0] == 0.0
        assert np.all(one[1:] != two[1:])

    def test_covariance_across_dates(self):
        # nodes on either side of a date are sampled through different bridge
        # laws, the date between them drawn first; their covariance is still
        # the driver's
        d = ou_driver(theta=0.8, sigma=1.1, mu=0.4, d0=-1.0)
        p = Partition((0.0, 1.0, 2.5), 4)
        n = 100_000
        vals = simulate_driver(d, p, n, seed=7).values
        g = p.grid
        for a in (1, 2, 3):
            for b in (5, 6, 7):
                prod = (vals[:, a] - vals[:, a].mean()) * (vals[:, b] - vals[:, b].mean())
                se = prod.std(ddof=1) / np.sqrt(n)
                assert_within_3se(prod.mean(), float(d.cov(g[a], g[b])), se,
                                  f"cov({g[a]},{g[b]})")

    def test_small_variance_driver_keeps_the_bridge_law(self):
        # Brownian motion of variance 2.5e-13 t: near T_1 the bridge
        # denominator sigma^2 (T_1 - t_{k-1}) falls below _VAR_FLOOR while the
        # node variances stay above it; the last increments keep their
        # variance sigma^2 dt, here and in the Cholesky reference
        sigma2 = 2.5e-13
        d = GaussMarkovDriver(h1=lambda t: sigma2 * np.asarray(t, dtype=float),
                              h2=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                              mean=lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        p = Partition((0.0, 1.0), 200)
        n, dt = 4000, 1.0 / 200
        sampled = simulate_driver(d, p, n, seed=9).values / math.sqrt(sigma2)
        reference = simulate_driver_cholesky(d, p, n, seed=9, jitter=1e-12 * sigma2).values
        for k in range(195, 201):
            assert sigma2 * (1.0 - p.grid[k - 1]) < _VAR_FLOOR < d.variance(p.grid[k - 1])
            for name, vals in (("date-first", sampled), ("cholesky", reference / math.sqrt(sigma2))):
                inc = vals[:, k] - vals[:, k - 1]
                v = float(np.var(inc))
                assert_within_3se(v, dt, v * math.sqrt(2.0 / (n - 1)), f"{name} Var[dD_{k}]")

    def test_stopped_driver_holds_its_value(self):
        # B_min(t, 1): on [1, 2] the bridge denominator is 0, because D_2 is
        # fixed by D_1, so every node there takes the Markov step and stays put
        d = GaussMarkovDriver(h1=lambda t: np.minimum(np.asarray(t, dtype=float), 1.0),
                              h2=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                              mean=lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        vals = simulate_driver(d, Partition((0.0, 1.0, 2.0), 4), 50, seed=2).values
        assert np.all(vals[:, 5:] == vals[:, 4:5]) and np.all(vals[:, 4] != 0.0)

    @pytest.mark.parametrize("factory", [brownian_driver, scaled_bm_driver],
                             ids=["brownian", "scaled_bm"])
    def test_degenerate_start_samples(self, factory):
        # the driver vanishes at T_0 = 0, so the first node conditions on
        # the arc's end date alone (for t*B_t the bridge denominator is 0)
        d = factory()
        p = Partition((0.0, 1.0, 2.0), 8)
        vals = simulate_driver(d, p, 100_000, seed=8).values
        assert np.all(vals[:, 0] == 0.0)
        assert np.all(np.isfinite(vals))
        for k in (1, p.steps_per_arc):
            col = vals[:, k]
            se = np.var(col) * np.sqrt(2.0 / (col.size - 1))
            assert_within_3se(np.var(col), float(d.variance(p.grid[k])), se,
                              f"Var[D_{p.grid[k]}]")

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

    def test_csv_text_is_the_per_value_repr(self):
        # shortest round-trip decimals, one repr(float(v)) per value; the
        # bundle refuses NaN and Inf, so the edge values here are finite
        grid = np.asarray([0.0, 0.1, 1e16])
        values = np.asarray([[-0.0, 5e-324, 0.1], [1e16, -1e-300, 1.0 / 3.0]])
        bundle = PathBundle(grid=grid, values=values, seed=0)
        expected = "t,path_0,path_1\n" + "".join(
            ",".join([repr(float(t))] + [repr(float(v)) for v in values[:, k]]) + "\n"
            for k, t in enumerate(grid))
        assert bundle.csv_bytes().decode("utf-8") == expected
        assert expected.splitlines()[1] == "0.0,-0.0,1e+16"
        with pytest.raises(ConfigError, match="NaN"):
            PathBundle(grid=grid[:2], values=np.asarray([[0.0, np.nan]]), seed=0)

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


_ALGEBRA_DRIVERS = [
    brownian_driver,
    lambda: ou_driver(theta=0.8, sigma=1.1, mu=1.5, d0=-0.5, t_ref=0.2),
    scaled_bm_driver,
]


class TestArcAlgebra:
    """The one factorization table behind coefficients, volatility and drift."""

    P = Partition((0.5, 1.3, 2.0, 3.1), 16)

    def _arc_nodes(self, m):
        steps = self.P.steps_per_arc
        return self.P.grid[m * steps: (m + 1) * steps + 1]

    @pytest.mark.parametrize("factory", _ALGEBRA_DRIVERS)
    def test_numerators_over_den_are_standard_coefficients(self, factory):
        d = factory()
        cs = standard_coefficients(d, self.P)
        for m in range(self.P.n_arcs):
            t = self._arc_nodes(m)
            alg = _arc_algebra(d, self.P.dates, m, t)
            assert np.array_equal(alg.right / alg.den, cs.eval(m, t))
            assert np.array_equal(alg.left / alg.den, cs.eval(m + 1, t))

    @pytest.mark.parametrize("factory", _ALGEBRA_DRIVERS)
    def test_derivatives_match_central_differences(self, factory):
        d = factory()
        cs = standard_coefficients(d, self.P)
        h = 1e-5
        for m in range(self.P.n_arcs):
            t = self._arc_nodes(m)[1:-1]
            alg = _arc_algebra(d, self.P.dates, m, t)
            for i, num in ((m, alg.d_right), (m + 1, alg.d_left)):
                diff = (cs.eval(i, t + h) - cs.eval(i, t - h)) / (2.0 * h)
                assert np.max(np.abs(num / alg.den - diff)) <= 1e-6
            diff = (d.mean(t + h) - d.mean(t - h)) / (2.0 * h)
            assert np.max(np.abs(alg.d_mean - diff)) <= 1e-6

    @pytest.mark.parametrize("factory", _ALGEBRA_DRIVERS)
    def test_qv_is_the_density(self, factory):
        d = factory()
        arcs = np.repeat(np.arange(self.P.n_arcs), self.P.steps_per_arc)
        t = self.P.grid[:-1]
        assert np.array_equal(_arc_algebra(d, self.P.dates, arcs, t).qv, d.qv_density(t))

    def test_coefficients_evaluate_no_derivative(self):
        # the coefficients need H1 and H2 only; a driver whose derivative
        # callables raise must give the same table as its analytic twin
        def boom(t):
            raise AssertionError("a derivative was evaluated")

        d = _ALGEBRA_DRIVERS[1]()
        no_derivs = GaussMarkovDriver(h1=d.h1, h2=d.h2, mean=d.mean, label=d.label,
                                      dh1=boom, dh2=boom, dmean=boom, params=d.params)
        assert np.array_equal(standard_coefficients(no_derivs, self.P).grid_matrix(),
                              standard_coefficients(d, self.P).grid_matrix())


class TestPathBundle:
    GRID = np.linspace(0.0, 1.0, 1001)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("time_major", [True, False])
    def test_rejects_nonfinite_last_value(self, bad, time_major):
        # the check runs over row blocks; the last node of the last path sits
        # in the final, partial block of either layout
        rows = np.zeros((self.GRID.size, 300))
        vals = rows.T if time_major else np.ascontiguousarray(rows.T)
        vals[-1, -1] = bad
        with pytest.raises(ConfigError, match="path values contain NaN/Inf"):
            PathBundle(self.GRID, vals, seed=0)

    def test_empty_bundle_is_accepted(self):
        assert PathBundle(self.GRID, np.zeros((0, self.GRID.size)), seed=0).n_paths == 0

    def test_check_allocates_no_full_mask(self):
        # np.isfinite(values) would allocate an eighth of the path array
        import tracemalloc

        vals = np.zeros((self.GRID.size, 4000)).T
        tracemalloc.start()
        try:
            PathBundle(self.GRID, vals, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < vals.nbytes / 32, f"peak {peak / vals.nbytes:.3f} path arrays"
