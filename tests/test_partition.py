"""Interpolating-coefficient families: node identities, derived values, damping."""

import numpy as np
import pytest

from arcadeproc import (
    ArcadeConfig,
    CoefficientSet,
    ConfigError,
    DomainError,
    Partition,
    RapConfig,
    brownian_driver,
    carryover_noise_coefficients,
    conditional_mean_rap,
    damp_lagrange,
    driver_quadratic_variation,
    elliptic_coefficients,
    fam_filter_bruteforce,
    fam_filter_discrete,
    fam_volatility,
    lagrange_coefficients,
    ou_driver,
    piecewise_linear_coefficients,
    standard_coefficients,
    table_coefficients,
    validate_coefficient_set,
)
from arcadeproc.coupling import binary_pm1_kernel

ALL_FAMILIES = ["piecewise_linear", "lagrange", "lagrange_damped", "elliptic"]


class TestPartition:
    def test_grid_contains_dates_exactly(self):
        p = Partition((0.0, 0.3, 1.7, 2.0), steps_per_arc=7)
        assert np.all(p.grid[p.date_indices] == np.asarray(p.dates))

    def test_rejects_bad_dates(self):
        with pytest.raises(ConfigError):
            Partition((0.0,), 5)
        with pytest.raises(ConfigError):
            Partition((0.0, 1.0, 1.0), 5)
        with pytest.raises(ConfigError):
            Partition((-1.0, 1.0), 5)
        with pytest.raises(ConfigError):
            Partition((0.0, np.inf), 5)
        with pytest.raises(ConfigError):
            Partition((0.0, 1.0), 0)

    @pytest.mark.parametrize("steps", [2.5, 2.0, "2", 0, -3])
    def test_steps_per_arc_must_be_a_positive_integer(self, steps):
        # int() used to truncate 2.5 to 2 steps
        with pytest.raises(ConfigError, match="steps_per_arc"):
            Partition((0.0, 1.0), steps)

    def test_integral_steps_per_arc_is_stored_as_int(self):
        p = Partition((0.0, 1.0), np.int64(3))
        assert p.steps_per_arc == 3 and type(p.steps_per_arc) is int

    def test_grid_is_computed_once_and_read_only(self):
        p = Partition((0.0, 0.3, 1.7), steps_per_arc=5)
        assert p.grid is p.grid and p.date_indices is p.date_indices
        with pytest.raises(ValueError, match="read-only"):
            p.grid[1] = 9.0
        with pytest.raises(ValueError, match="read-only"):
            p.date_indices[1] = 0
        assert p.grid[1] == pytest.approx(0.06) and p.date_indices.tolist() == [0, 5, 10]

    def test_arc_lookup(self):
        p = Partition((0.0, 1.0, 3.0), 4)
        assert p.arc_of(0.0) == 0
        assert p.arc_of(0.99) == 0
        assert p.arc_of(1.0) == 1
        assert p.arc_of(3.0) == 1
        with pytest.raises(DomainError):
            p.arc_of(3.5)
        with pytest.raises(DomainError):
            p.arc_of(-0.5)
        # the domain admits 1e-12 of rounding at either end, and no more
        p.check_domain([-5e-13, 3.0 + 5e-13])
        q = Partition((1.0, 2.0, 3.0), 10)
        assert q.arc_of(1.0 - 5e-13) == 0
        assert q.arc_of(3.0 + 5e-13) == 1
        for t in (-2e-12, 3.0 + 2e-12):
            with pytest.raises(DomainError):
                p.arc_of(t)


def _one_arc_bridge():
    p = Partition((0.0, 1.0), 50)
    hats = piecewise_linear_coefficients(p)
    return RapConfig(ArcadeConfig(brownian_driver(), hats), hats.with_role("signal"),
                     binary_pm1_kernel(), standard=True)


@pytest.mark.parametrize("t", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda cfg, t: fam_filter_discrete(cfg, t, 0.1, [1.0]),
    lambda cfg, t: fam_volatility(cfg, t, 0.1, [1.0]),
    lambda cfg, t: fam_filter_bruteforce(cfg, t, 0.1, [1.0]),
    lambda cfg, t: cfg.arcade.coeffs.eval(0, t),
    lambda cfg, t: driver_quadratic_variation(cfg.arcade.driver, cfg.partition, t),
    lambda cfg, t: cfg.partition.arc_of(t),
    lambda cfg, t: conditional_mean_rap(cfg, 0.4, t, 1.0, 0.8, 1.2),
], ids=["fam_filter_discrete", "fam_volatility", "fam_filter_bruteforce",
        "coefficient_eval", "driver_quadratic_variation", "arc_of", "conditional_mean_rap"])
def test_non_finite_time_is_domain_error(call, t):
    with pytest.raises(DomainError):
        call(_one_arc_bridge(), t)


class TestNodeIdentities:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_delta_at_dates(self, family):
        p = Partition((0.0, 2.0, 4.0, 6.0, 8.0, 10.0), 10)
        cs = CoefficientSet(p, family)
        for i in range(6):
            for j, tj in enumerate(p.dates):
                want = 1.0 if i == j else 0.0
                assert abs(cs.eval(i, tj) - want) <= 1e-9

    def test_linear_midpoint(self):
        p = Partition((0.0, 2.0, 4.0, 6.0, 8.0, 10.0), 10)
        cs = piecewise_linear_coefficients(p)
        assert cs.eval(1, 1.0) == 0.5

    def test_lagrange_product_value(self):
        # prod_{k != 0} (T_k - t)/(T_k - T_0) at t = 0.5 on {0, 1, 2}
        cs = lagrange_coefficients(Partition((0.0, 1.0, 2.0), 4))
        assert cs.eval(0, 0.5) == pytest.approx(0.375, abs=1e-15)

    def test_elliptic_value(self):
        cs = elliptic_coefficients(Partition((0.0, 2.0), 4))
        assert cs.eval(0, 1.0) == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-15)

    def test_domain_and_index_errors(self):
        cs = piecewise_linear_coefficients(Partition((0.0, 1.0), 4))
        with pytest.raises(DomainError):
            cs.eval(0, 1.5)
        with pytest.raises(DomainError):
            cs.eval(3, 0.5)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            CoefficientSet(Partition((0.0, 1.0), 4), "cubic_spline")


class TestSupports:
    def test_piecewise_families_vanish_off_their_arcs(self):
        p = Partition((0.0, 2.0, 4.0, 6.0, 8.0, 10.0), 10)
        probe = np.linspace(4.6, 9.6, 23)  # beyond the support of f_1
        for family in ("piecewise_linear", "elliptic"):
            cs = CoefficientSet(p, family)
            assert np.all(cs.eval(1, probe) == 0.0)
            assert np.all(cs.eval(0, probe) == 0.0)

    def test_lagrange_partition_of_unity(self):
        p = Partition((0.0, 1.0, 2.0, 3.0, 4.0), 12)
        cs = lagrange_coefficients(p)
        total = cs.grid_matrix().sum(axis=0)
        assert np.max(np.abs(total - 1.0)) <= 1e-9


class TestDamping:
    def test_requires_lagrange(self):
        p = Partition((0.0, 1.0), 4)
        with pytest.raises(ConfigError):
            damp_lagrange(piecewise_linear_coefficients(p))

    def test_fixed_points(self):
        p = Partition((0.0, 1.0, 2.0, 3.0), 10)
        damped = damp_lagrange(lagrange_coefficients(p))
        for i, tj in enumerate(p.dates):
            assert damped.eval(i, tj) == 1.0
        assert damped.eval(0, 1.0) == 0.0

    def test_sign_preserving_map_values(self):
        # the damped family is sign(f) |f|^{2(1-|f|)} applied pointwise;
        # at x = -0.5 the exponent is exactly 1, so the map fixes the value
        p = Partition((0.0, 1.0, 2.0), 8)
        lag = lagrange_coefficients(p)
        damped = damp_lagrange(lag)
        for t in (0.25, 0.8, 1.5, 1.9):
            for i in range(3):
                x = lag.eval(i, t)
                want = np.sign(x) * abs(x) ** (2.0 * (1.0 - abs(x))) if x != 0 else 0.0
                assert damped.eval(i, t) == pytest.approx(want, abs=1e-15)
        # f_0(1.5) = -0.125 < 0: the sign convention keeps it negative
        assert lag.eval(0, 1.5) == pytest.approx(-0.125, abs=1e-15)
        assert damped.eval(0, 1.5) == pytest.approx(
            -(0.125 ** (2.0 * (1.0 - 0.125))), abs=1e-15)
        # unit-exponent fixed point of the map itself
        assert 0.5 ** (2.0 * (1.0 - 0.5)) == 0.5

    def test_overshoot_extension(self):
        # |x| > 1 stays finite and keeps its sign
        p = Partition(tuple(np.arange(11.0)), 10)
        lag = lagrange_coefficients(p)
        damped = damp_lagrange(lag)
        probe = np.linspace(0.0, 10.0, 301)
        vals = lag.eval(5, probe)
        assert np.max(np.abs(vals)) > 1.0  # Runge overshoot really happens
        out = damped.eval(5, probe)
        assert np.all(np.isfinite(out))
        assert np.all(np.sign(out) == np.sign(vals))


class TestValidation:
    def test_stitched_passes_tight(self):
        p = Partition((0.0, 2.0, 4.0, 6.0, 8.0, 10.0), 16)
        rep = validate_coefficient_set(piecewise_linear_coefficients(p), tol=1e-12)
        assert rep.passed
        assert rep.max_unit_error == 0.0
        assert rep.max_zero_error == 0.0

    def test_lagrange_ten_arcs(self):
        p = Partition(tuple(np.arange(11.0)), 8)
        rep = validate_coefficient_set(lagrange_coefficients(p), tol=1e-9)
        assert rep.passed

    def test_bad_table_fails(self):
        p = Partition((0.0, 1.0, 2.0), 4)
        table = piecewise_linear_coefficients(p).grid_matrix()
        table[1, p.date_indices[1]] = 0.9
        rep = validate_coefficient_set(table_coefficients(p, table), tol=1e-9)
        assert not rep.passed
        assert rep.max_unit_error == pytest.approx(0.1)

    def test_continuity_rate(self):
        p = Partition((0.0, 1.0), 50)
        rep = validate_coefficient_set(piecewise_linear_coefficients(p),
                                       continuity_c=1.5)
        assert rep.passed
        assert rep.max_jump_rate == pytest.approx(1.0)
        rep2 = validate_coefficient_set(piecewise_linear_coefficients(p),
                                        continuity_c=0.5)
        assert not rep2.passed


class TestCarryoverFamily:
    def test_is_interpolating(self):
        p = Partition((0.5, 2.0, 3.5), 16)
        rep = validate_coefficient_set(carryover_noise_coefficients(p), tol=1e-12)
        assert rep.passed

    def test_first_coefficient_active_on_last_arc(self):
        p = Partition((0.5, 2.0, 3.5), 16)
        cs = carryover_noise_coefficients(p)
        assert cs.eval(0, 2.5) != 0.0
        assert cs.eval(0, 2.5) == pytest.approx((2.0 - 2.5) / 1.5, abs=1e-15)

    def test_needs_even_steps(self):
        with pytest.raises(ConfigError):
            carryover_noise_coefficients(Partition((0.0, 1.0, 2.0), 15))


# one coefficient set per evaluator: the built-in families, a callable-backed
# set (the OU closed form) and two explicit tables
SET_KINDS = {
    **{family: (lambda p, family=family: CoefficientSet(p, family)) for family in ALL_FAMILIES},
    "standard": lambda p: standard_coefficients(ou_driver(1.0, 1.5), p, "closed_form"),
    "standard_gram": lambda p: standard_coefficients(ou_driver(1.0, 1.5), p, "gram"),
    "carryover": carryover_noise_coefficients,
}


class TestGridMatrixCache:
    @pytest.mark.parametrize("kind", sorted(SET_KINDS))
    def test_grid_values_equal_pointwise_evaluation(self, kind):
        p = Partition((0.0, 0.7, 2.0), 6)
        cs = SET_KINDS[kind](p)
        expected = np.vstack([cs.eval(i, p.grid) for i in range(cs.n + 1)])
        assert np.array_equal(cs.grid_values, expected)
        assert cs.grid_values is cs.grid_values
        with pytest.raises(ValueError, match="read-only"):
            cs.grid_values[0, 0] = 2.0

    def test_grid_matrix_returns_a_copy_the_caller_owns(self):
        p = Partition((0.0, 1.0, 2.0), 4)
        cs = piecewise_linear_coefficients(p)
        first = cs.grid_matrix()
        first[:] = 7.0
        second = cs.grid_matrix()
        assert second is not first and second.flags.writeable
        assert np.array_equal(second, cs.matrix(p.grid))
        assert np.array_equal(cs.grid_values, second)

    @pytest.mark.parametrize("kind", sorted(SET_KINDS))
    def test_with_role_copies_share_the_matrix(self, kind):
        p = Partition((0.0, 0.7, 2.0), 6)
        cs = SET_KINDS[kind](p)
        signal = cs.with_role("signal")
        assert signal.role == "signal" and cs.role == "noise"
        # the twin made before either evaluates still shares the one matrix
        assert signal.grid_values is cs.grid_values
        assert np.array_equal(signal.grid_matrix(), cs.grid_matrix())
        assert signal.with_role("noise").grid_values is cs.grid_values

    def test_explicit_table_is_the_sets_own_read_only_copy(self):
        # the cached matrix cannot go stale behind a table edited in place
        p = Partition((0.0, 1.0, 2.0), 4)
        source = piecewise_linear_coefficients(p).grid_matrix()
        cs = table_coefficients(p, source)
        before = cs.grid_matrix()
        source[1, 1] = 5.0
        assert np.array_equal(cs.table, before) and np.array_equal(cs.grid_values, before)
        with pytest.raises(ValueError, match="read-only"):
            cs.table[1, 1] = 5.0
