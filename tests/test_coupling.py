"""Marginals, martingale kernels, convex order, and sampling laws."""

import numpy as np
import pytest

from arcadeproc import (
    ConfigError,
    DiscreteMarginal,
    builtin_kernels,
    check_convex_order,
    gaussian_marginal,
    kernel_from_json,
    sample_coupling,
    uniform_marginal,
)
from arcadeproc import coupling
from arcadeproc.coupling import (
    _MG_TOL,
    _PRESET_FACTORIES,
    AffineBranchKernel,
    CouplingKernel,
    DegenerateMarginal,
    DeterministicAffineKernel,
    DiscreteRowKernel,
    GaussianMarginal,
    GaussianStepKernel,
    IndependentStepKernel,
    UniformMarginal,
    antithetic_pm1_chain,
    binary_pm1_kernel,
    brownian_coupling,
    comonotone_kernel,
    convex_order_report,
    uniform_mot_kernel,
)
from arcadeproc.streams import stream_rng

from conftest import assert_within_3se


class TestDiscreteMarginal:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            DiscreteMarginal(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(ConfigError):
            DiscreteMarginal(np.array([0.0, 1.0]), np.array([0.5, 0.6]))
        with pytest.raises(ConfigError):
            DiscreteMarginal(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("values, weights", [
        ([0.0, np.nan], [0.5, 0.5]),
        ([np.nan, np.nan], [0.5, 0.5]),
        ([0.0, np.inf], [0.5, 0.5]),
        ([-np.inf, 0.0], [0.5, 0.5]),
        ([0.0, 1.0], [0.5, np.nan]),
        ([0.0, 1.0], [np.inf, 0.5]),
    ])
    def test_non_finite_atoms_rejected(self, values, weights):
        # NaN passes every ordering and sign test, so finiteness is its own check
        with pytest.raises(ConfigError, match="finite"):
            DiscreteMarginal(np.array(values), np.array(weights))

    def test_call_function_by_enumeration(self):
        m = DiscreteMarginal(np.array([-1.0, 0.5, 2.0]), np.array([0.25, 0.5, 0.25]))
        for k in (-2.0, 0.0, 1.0, 3.0):
            want = sum(w * max(v - k, 0.0) for v, w in zip(m.values, m.weights))
            assert m.call_value(k) == pytest.approx(want, abs=1e-15)

    def test_quantile_is_right_continuous(self):
        m = DiscreteMarginal(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert m.quantile(0.5) == 0.0
        assert m.quantile(0.5 + 1e-12) == 1.0

    def test_gaussian_discretizations(self):
        from scipy import integrate
        from scipy.special import ndtri
        from scipy.stats import norm

        mid = gaussian_marginal(0.0, 1.0, 15, "midpoint")
        cm = gaussian_marginal(0.0, 1.0, 15, "cell_mean")
        assert mid.mean() == pytest.approx(0.0, abs=1e-12)
        assert cm.mean() == pytest.approx(0.0, abs=1e-12)
        # mid-quantile atoms sit at the (k - 1/2)/15 quantiles
        assert np.allclose(mid.values, ndtri((np.arange(15) + 0.5) / 15))
        # cell-mean atoms are the conditional means of the equal-mass cells
        edges = ndtri(np.linspace(0.0, 1.0, 16))
        for k in (0, 7, 14):
            lo, hi = edges[k], edges[k + 1]
            num, _ = integrate.quad(lambda x: x * norm.pdf(x), lo, hi)
            assert cm.values[k] == pytest.approx(15.0 * num, abs=1e-9)
        # cell means preserve the second moment better than mid-quantiles
        assert cm.second_moment() > mid.second_moment()
        # scaling: atoms of N(0,2) are sqrt(2) times those of N(0,1)
        cm2 = gaussian_marginal(0.0, 2.0, 15, "cell_mean")
        assert np.allclose(cm2.values, np.sqrt(2.0) * cm.values)


class TestGaussianMarginal:
    @pytest.mark.parametrize("var", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_invalid_variance_rejected(self, var):
        with pytest.raises(ConfigError, match="var"):
            GaussianMarginal(0.0, var)

    def test_zero_variance_is_a_point_mass(self):
        law = GaussianMarginal(2.0, 0.0)
        assert law.quantile(0.3) == 2.0
        one = law.discretize(1)
        assert one.values.tolist() == [2.0] and one.weights.tolist() == [1.0]
        with pytest.raises(ConfigError, match="strictly increasing"):
            law.discretize(3)

    def test_non_finite_moments_rejected_on_discretization(self):
        for law in (GaussianMarginal(np.nan, 1.0), GaussianMarginal(np.inf, 1.0),
                    UniformMarginal(np.nan, 1.0), UniformMarginal(0.0, np.inf)):
            with pytest.raises(ConfigError, match="finite"):
                law.discretize(5)


    @pytest.mark.parametrize("var", [-1.0, float("nan"), float("inf")])
    def test_public_discretization_rejects_invalid_variance(self, var):
        # math.sqrt used to raise ValueError('math domain error') for var < 0
        with pytest.raises(ConfigError, match="var"):
            gaussian_marginal(0.0, var, 5)


class TestParameterValidation:
    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("branches", [
        ((1.0, 0.0, NAN), (1.0, 0.0, 1.0)),
        ((NAN, 0.0, 0.5), (1.0, 0.0, 0.5)),
        ((1.0, INF, 0.5), (1.0, 0.0, 0.5)),
        ((1.0, 0.0, 0.5), (-INF, 0.0, 0.5)),
    ])
    def test_affine_branches_must_be_finite(self, branches):
        with pytest.raises(ConfigError, match="finite"):
            AffineBranchKernel(branches)

    @pytest.mark.parametrize("slope, intercept", [(NAN, 0.0), (INF, 0.0), (1.0, NAN)])
    def test_deterministic_affine_map_must_be_finite(self, slope, intercept):
        with pytest.raises(ConfigError, match="finite"):
            DeterministicAffineKernel(slope, intercept)

    @pytest.mark.parametrize("lo, hi", [(NAN, 1.0), (0.0, INF), (-INF, 0.0), (1.0, 0.0), (1.0, 1.0)])
    def test_uniform_bounds_are_checked_on_use(self, lo, hi):
        # the law constructs (discretization tests above rely on that) and
        # every draw, quantile or cdf is refused
        law = UniformMarginal(lo, hi)
        for use in (lambda: law.sample(3, np.random.default_rng(0)),
                    lambda: law.quantile(0.5), lambda: law.cdf(0.5), lambda: law.discretize(3)):
            with pytest.raises(ConfigError, match="lo < hi"):
                use()


class TestConvexOrder:
    def test_reflexive(self):
        m = uniform_marginal(-1.0, 1.0, 21)
        assert check_convex_order(m, m)

    def test_uniform_dilation(self):
        mu = uniform_marginal(-1.0, 1.0, 21)
        nu = uniform_marginal(-2.0, 2.0, 21)
        assert check_convex_order(mu, nu)
        assert not check_convex_order(nu, mu)

    def test_mean_mismatch(self):
        mu = DiscreteMarginal(np.array([1.0]), np.array([1.0]))
        nu = DiscreteMarginal(np.array([0.0]), np.array([1.0]))
        ok, worst, witness = convex_order_report(mu, nu)
        assert not ok and witness["kind"] == "mean"

    def test_call_function_witness(self):
        # same mean, but nu is *less* spread: order fails with a strike witness
        mu = DiscreteMarginal(np.array([-2.0, 2.0]), np.array([0.5, 0.5]))
        nu = DiscreteMarginal(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        ok, _, witness = convex_order_report(mu, nu)
        assert not ok and witness["kind"] == "call_function"

    def test_builtin_martingale_kernels_imply_order(self):
        # Strassen direction on the fully discrete builtins
        for name in ("binary_pm1", "binary_chain_2"):
            kern = builtin_kernels()[name]
            for k in range(len(kern.steps)):
                mu_k = kern.pushforward(k)
                nu_k = kern.pushforward(k + 1)
                assert check_convex_order(mu_k, nu_k), name


class TestKernels:
    def test_martingale_flags(self):
        kernels = builtin_kernels()
        assert kernels["binary_pm1"].martingale
        assert kernels["uniform_mot"].martingale
        assert kernels["gaussian_n01"].martingale
        assert kernels["brownian"].martingale
        assert kernels["binary_chain_2"].martingale
        assert kernels["deterministic"].martingale
        assert not kernels["comonotone_uniform"].martingale
        assert not kernels["antithetic_pm1"].martingale
        assert not kernels["independent_pm1"].martingale

    def test_discrete_row_kernel_validation(self):
        x = np.array([-1.0, 1.0])
        y = np.array([-2.0, 0.0, 2.0])
        with pytest.raises(ConfigError):
            DiscreteRowKernel(x, y, np.array([[0.6, 0.6, 0.0], [0.0, 0.5, 0.5]]))
        gamma = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        kern = DiscreteRowKernel(x, y, gamma)
        resid = kern.martingale_residual(x)
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_catalog_holds_every_preset_at_its_defaults(self):
        # the two-arc chain is named for its arc count
        assert list(builtin_kernels()) == [
            "binary_chain_2" if name == "binary_chain" else name for name in _PRESET_FACTORIES]
        assert "binary_chain_2" in builtin_kernels()

    def test_unsorted_x_values_rejected(self):
        # searchsorted needs increasing atoms: an unsorted kernel could not find its own
        with pytest.raises(ConfigError, match="strictly increasing"):
            DiscreteRowKernel(np.array([1.0, -1.0]), np.array([-2.0, 0.0, 2.0]),
                              np.array([[0.0, 0.5, 0.5], [0.5, 0.5, 0.0]]))

    def test_json_rows_follow_their_atoms(self):
        written = {"atoms_mu": [[1.0, 0.5], [-1.0, 0.5]], "values_nu": [-2.0, 0.0, 2.0],
                   "gamma": [[0.0, 0.5, 0.5], [0.5, 0.5, 0.0]]}
        sorted_doc = {"atoms_mu": [[-1.0, 0.5], [1.0, 0.5]], "values_nu": [-2.0, 0.0, 2.0],
                      "gamma": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]}
        kern, want = kernel_from_json(written), kernel_from_json(sorted_doc)
        assert kern.martingale and want.martingale
        assert kern.config_dict() == want.config_dict()

    @pytest.mark.parametrize("doc", [
        {"preset": "binary_pm1", "param": {}},
        {"atoms_mu": [[0.0, 1.0]], "values_nu": [0.0], "gamma": [[1.0]], "gama": [[1.0]]},
    ], ids=["preset", "explicit"])
    def test_unknown_key_rejected(self, doc):
        with pytest.raises(ConfigError, match="unknown keys"):
            kernel_from_json(doc)

    def test_martingale_flag_is_verified_not_trusted(self):
        x = np.array([-1.0, 1.0])
        y = np.array([-2.0, 0.0, 2.0])
        gamma = np.array([[0.25, 0.5, 0.25], [0.25, 0.5, 0.25]])  # means are 0, not x
        init = DiscreteMarginal(x, np.array([0.5, 0.5]))
        kern = CouplingKernel(init, (DiscreteRowKernel(x, y, gamma),))
        assert not kern.martingale

    def test_comonotone_of_discrete_marginals(self):
        mu = uniform_marginal(-1.0, 1.0, 8)
        nu = uniform_marginal(-2.0, 2.0, 8)
        kern = comonotone_kernel(mu, nu)
        # quantile coupling of these laws doubles: E[X_1 | X_0] = 2 X_0
        mean = kern.steps[0].mean_given(mu.values)
        assert np.allclose(mean, 2.0 * mu.values)
        assert not kern.martingale

    def test_suffix_enumeration(self):
        kern = builtin_kernels()["binary_chain_2"]
        paths, probs = kern.enumerate_suffixes(0, 1.0)
        assert paths.shape == (4, 2)
        assert probs.sum() == pytest.approx(1.0)
        # chain means: E[X_2 | X_0 = 1] = 1
        assert float(probs @ paths[:, -1]) == pytest.approx(1.0, abs=1e-12)


class TestSampling:
    def test_antithetic_perfect_anticorrelation(self):
        kern = antithetic_pm1_chain(5)
        draws = sample_coupling(kern, 5000, seed=1)
        assert draws.shape == (5000, 6)
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert corr == pytest.approx(-1.0, abs=1e-12)
        assert np.all(draws[:, 2] == draws[:, 0])

    def test_uniform_mot_conditional_mean(self):
        draws = sample_coupling(uniform_mot_kernel(), 100_000, seed=2)
        x0, x1 = draws[:, 0], draws[:, 1]
        for lo in (-1.0, -0.5, 0.0, 0.5):
            sel = (x0 >= lo) & (x0 < lo + 0.5)
            diff = x1[sel] - x0[sel]
            assert_within_3se(diff.mean(), 0.0,
                              diff.std(ddof=1) / np.sqrt(diff.size),
                              f"E[X1-X0 | bin {lo}]")

    def test_brownian_covariance_matrix(self):
        draws = sample_coupling(brownian_coupling(1.0, 1.0), 100_000, seed=3)
        want = np.array([[1.0, 1.0], [1.0, 2.0]])
        for a in range(2):
            for b in range(2):
                prod = (draws[:, a] - draws[:, a].mean()) * (draws[:, b] - draws[:, b].mean())
                assert_within_3se(prod.mean(), want[a, b],
                                  prod.std(ddof=1) / np.sqrt(prod.size),
                                  f"cov[{a},{b}]")

    def test_marginals_within_ks_band(self):
        # Dvoretzky-style 95% band: sup |F_n - F| <= 1.36 / sqrt(n)
        n = 20_000
        band = 1.36 / np.sqrt(n)
        kern = brownian_coupling(1.0, 1.0)
        draws = sample_coupling(kern, n, seed=4)
        for col, law in ((0, GaussianMarginal(0.0, 1.0)), (1, GaussianMarginal(0.0, 2.0))):
            xs = np.sort(draws[:, col])
            emp = np.arange(1, n + 1) / n
            gap = np.max(np.abs(emp - law.cdf(xs)))
            assert gap <= band, f"column {col}: KS gap {gap} > {band}"
        draws_u = sample_coupling(uniform_mot_kernel(), n, seed=5)
        for col, law in ((0, UniformMarginal(-1.0, 1.0)), (1, UniformMarginal(-2.0, 2.0))):
            xs = np.sort(draws_u[:, col])
            emp = np.arange(1, n + 1) / n
            gap = np.max(np.abs(emp - law.cdf(xs)))
            assert gap <= band, f"uniform column {col}: KS gap {gap} > {band}"

    def test_seed_domain_separation(self):
        # same seed: target draws do not depend on how many driver draws happen
        kern = binary_pm1_kernel()
        a = sample_coupling(kern, 100, seed=7)
        b = sample_coupling(kern, 100, seed=7)
        assert np.array_equal(a, b)

    def test_kernel_from_json(self):
        doc = {
            "atoms_mu": [[-1.0, 0.5], [1.0, 0.5]],
            "values_nu": [-2.0, 0.0, 2.0],
            "gamma": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],
        }
        kern = kernel_from_json(doc)
        assert kern.martingale
        preset = kernel_from_json({"preset": "binary_pm1"})
        assert preset.name == "binary_pm1"
        with pytest.raises(ConfigError):
            kernel_from_json({"preset": "nope"})
        assert len(kernel_from_json({"preset": "binary_chain", "params": {"n_arcs": 3}}).steps) == 3
        with pytest.raises(ConfigError, match="binary_pm1"):
            kernel_from_json({"preset": "binary_pm1", "params": {"n_arcs": 7}})
        with pytest.raises(ConfigError):
            kernel_from_json({})

    def test_affine_branch_probability_validation(self):
        with pytest.raises(ConfigError):
            AffineBranchKernel(((1.0, 0.0, 0.7), (1.0, 0.0, 0.2)))


# ---------------------------------------------------------------------------
# One conditional law per step kernel: references for the sampler, the probe
# walk and the quantile coupling as each was written per class
# ---------------------------------------------------------------------------

def _per_class_step_sample(step, x, rng):
    """The step samplers each kernel class carried before ``StepKernel.sample``."""
    if isinstance(step, DiscreteRowKernel):
        rows = step.gamma[step._row_index(x)]
        u = rng.random(x.size)
        pick = (u[:, None] > np.cumsum(rows, axis=1)).sum(axis=1)
        return step.y_values[np.clip(pick, 0, step.y_values.size - 1)]
    if isinstance(step, AffineBranchKernel):
        pick = rng.choice(len(step.branches), size=x.size,
                          p=np.asarray([p for _, _, p in step.branches]))
        slopes = np.asarray([a for a, _, _ in step.branches])[pick]
        return slopes * x + np.asarray([c for _, c, _ in step.branches])[pick]
    if isinstance(step, IndependentStepKernel):
        return step.marginal.sample(x.size, rng)
    return step.sample(x, rng)                  # Gaussian and deterministic steps kept theirs


def _per_class_sample(kernel, n, seed, block):
    rng = stream_rng(seed, "X", block)
    out = np.empty((n, kernel.n_targets))
    out[:, 0] = kernel.initial.sample(n, rng)
    for k, step in enumerate(kernel.steps):
        out[:, k + 1] = _per_class_step_sample(step, out[:, k], rng)
    return out


def _isinstance_probe_walk(kernel):
    """The martingale check's probe walk as an ``isinstance`` chain."""
    init = kernel.initial
    if isinstance(init, DiscreteMarginal):
        probe = init.values
    elif isinstance(init, DegenerateMarginal):
        probe = np.asarray([init.value])
    else:
        probe = np.asarray(init.quantile(np.linspace(0.005, 0.995, 41)), dtype=float)
    for step in kernel.steps:
        try:
            if step.martingale_residual(probe) > _MG_TOL:
                return False
        except ConfigError:
            return False
        if isinstance(step, DeterministicAffineKernel):
            probe = step.slope * probe + step.intercept
        elif isinstance(step, DiscreteRowKernel):
            probe = step.y_values
        elif isinstance(step, AffineBranchKernel):
            probe = np.unique(np.concatenate([a * probe + c for a, c, _ in step.branches]))
    return True


def _northwest_corner(mu, nu):
    """The quantile coupling's kernel rows by the northwest-corner loop."""
    gamma = np.zeros((mu.values.size, nu.values.size))
    rem_mu, rem_nu = mu.weights.copy(), nu.weights.copy()
    i = j = 0
    while i < mu.values.size and j < nu.values.size:
        mass = min(rem_mu[i], rem_nu[j])
        gamma[i, j] += mass
        rem_mu[i] -= mass
        rem_nu[j] -= mass
        if rem_mu[i] <= 1e-15:
            i += 1
        if j < nu.values.size and rem_nu[j] <= 1e-15:
            j += 1
    return gamma / gamma.sum(axis=1, keepdims=True)


_PM1 = DiscreteMarginal(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
_PM1_WALK = AffineBranchKernel(((1.0, -1.0, 0.5), (1.0, 1.0, 0.5)))
_TWO_GRID = np.array([-2.0, 0.0, 2.0])


def _sampled_kernels():
    third = 1.0 / 3.0
    return {
        **builtin_kernels(),
        "comonotone_row": comonotone_kernel(gaussian_marginal(0.0, 1.0, 7),
                                            gaussian_marginal(0.0, 2.0, 11)),
        "three_branches": CouplingKernel(UniformMarginal(-1.0, 1.0), (AffineBranchKernel(
            ((1.0, -1.0, third), (1.0, 0.0, third), (1.0, 1.0, third))),)),
        "independent_step": CouplingKernel(_PM1, (IndependentStepKernel(DiscreteMarginal(
            np.array([-2.0, 0.5, 3.0]), np.array([0.2, 0.7, 0.1]))),)),
    }


def _mixed_chains():
    identity = DiscreteRowKernel(_TWO_GRID, _TWO_GRID, np.eye(3))
    spread = DiscreteRowKernel(_TWO_GRID, np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]),
                               np.array([[0.5, 0, 0.5, 0, 0, 0, 0], [0, 0, 0.5, 0, 0.5, 0, 0],
                                         [0, 0, 0, 0, 0.5, 0, 0.5]]))
    biased = DiscreteRowKernel(_TWO_GRID, _TWO_GRID,
                               np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))
    return {
        "row_after_affine": CouplingKernel(_PM1, (_PM1_WALK, spread)),
        "identity_row_after_affine": CouplingKernel(_PM1, (_PM1_WALK, identity)),
        "biased_row_after_affine": CouplingKernel(_PM1, (_PM1_WALK, biased)),
        "gaussian_before_row": CouplingKernel(GaussianMarginal(0.0, 1.0),
                                              (GaussianStepKernel(var=1.0), spread)),
        "row_then_affine_then_gaussian": CouplingKernel(
            DegenerateMarginal(0.0), (DiscreteRowKernel(np.array([0.0]), _TWO_GRID,
                                                        np.array([[0.25, 0.5, 0.25]])),
                                      _PM1_WALK, GaussianStepKernel(var=2.0))),
    }


class TestOneConditionalLaw:
    @pytest.mark.parametrize("name", list(_sampled_kernels()))
    def test_sampler_matches_the_per_class_samplers(self, name):
        kernel = _sampled_kernels()[name]
        for seed in range(20):
            for block in range(3):
                got = kernel.sample(1000, seed, block)
                assert got.tobytes() == _per_class_sample(kernel, 1000, seed, block).tobytes(), \
                    f"seed {seed} block {block}"

    @pytest.mark.parametrize("name", list(builtin_kernels()) + list(_mixed_chains()))
    def test_probe_walk_matches_the_isinstance_walk(self, name):
        kernel = {**builtin_kernels(), **_mixed_chains()}[name]
        assert kernel.martingale is _isinstance_probe_walk(kernel)

    def test_mixed_chain_flags(self):
        # the walk must reach the row kernel's atoms through the affine step
        flags = {name: kernel.martingale for name, kernel in _mixed_chains().items()}
        assert flags == {"row_after_affine": True, "identity_row_after_affine": True,
                         "biased_row_after_affine": False, "gaussian_before_row": False,
                         "row_then_affine_then_gaussian": True}

    def test_comonotone_overlap_matches_northwest_corner(self):
        rng = np.random.default_rng(25)
        laws = [(uniform_marginal(-1.0, 1.0, m), uniform_marginal(-2.0, 2.0, k))
                for m, k in ((8, 8), (3, 6), (6, 3), (5, 7), (1, 4))]
        for _ in range(500):
            sizes = rng.integers(1, 13, size=2)
            laws.append(tuple(DiscreteMarginal(np.sort(rng.choice(100, size, replace=False)) / 10,
                                               rng.dirichlet(np.ones(size)))
                              for size in sizes))
        for mu, nu in laws:
            got = comonotone_kernel(mu, nu).steps[0].gamma
            want = _northwest_corner(mu, nu)
            assert np.array_equal(got > 0.0, want > 0.0)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_martingale_flag_is_not_an_argument(self):
        with pytest.raises(TypeError):
            CouplingKernel(_PM1, (_PM1_WALK,), martingale=True)

    @pytest.mark.parametrize("pairs", [[1.0, 2.0], [[1.0, 0.5, 0.0]], [[[1.0, 1.0]]], []])
    def test_from_pairs_rejects_other_shapes(self, pairs):
        with pytest.raises(ConfigError, match=r"\[value, weight\] pairs"):
            DiscreteMarginal.from_pairs(pairs)


class TestStreamLayout:
    """Stream "X" draws, per target and ``X_0`` first, one uniform per path
    for a law with atoms or a uniform ``X_0``, one standard normal per path
    for a Gaussian law, and nothing for a point mass or a deterministic step."""

    CASES = {
        "discrete_x0_branch": (binary_pm1_kernel(), ("random", "random")),
        "uniform_x0_branch": (uniform_mot_kernel(), ("uniform", "random")),
        "gaussian_x0_gaussian_step": (brownian_coupling(), ("standard_normal",) * 2),
        "point_mass_deterministic": (CouplingKernel(DegenerateMarginal(0.5), (
            DeterministicAffineKernel(2.0), DeterministicAffineKernel(-1.0))), ()),
        "discrete_x0_deterministic": (antithetic_pm1_chain(2), ("random",)),
        "independent_step": (CouplingKernel(_PM1, (IndependentStepKernel(_PM1),)),
                             ("random", "random")),
        "row_step": (comonotone_kernel(uniform_marginal(-1.0, 1.0, 4),
                                       uniform_marginal(-2.0, 2.0, 4)), ("random", "random")),
        "point_mass_row_gaussian": (CouplingKernel(DegenerateMarginal(0.0), (
            DiscreteRowKernel(np.array([0.0]), _TWO_GRID, np.array([[0.25, 0.5, 0.25]])),
            GaussianStepKernel(var=1.0))), ("random", "standard_normal")),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_generator_advances_by_the_documented_draws(self, name, monkeypatch):
        kernel, draws = self.CASES[name]
        used = []

        def recording_rng(*args):
            used.append(stream_rng(*args))
            return used[-1]

        monkeypatch.setattr(coupling, "stream_rng", recording_rng)
        for seed, block in ((3, 0), (3, 2), (11, 1)):
            used.clear()
            kernel.sample(257, seed, block)
            want = stream_rng(seed, "X", block)
            for draw in draws:
                getattr(want, draw)(size=257)
            assert used[0].bit_generator.state == want.bit_generator.state
