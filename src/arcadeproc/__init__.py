"""Arcade processes, randomized arcades, filtered arcade martingales, and
information-based martingale optimal transport."""

from .arcade import (
    ArcadeConfig,
    Factorization,
    MarkovCheckReport,
    ap_cov,
    ap_mean,
    ap_moments,
    ap_variance,
    build_ap_paths,
    markov_factorization_check,
    standard_coefficients,
)
from .coupling import (
    CouplingKernel,
    DiscreteMarginal,
    builtin_kernels,
    check_convex_order,
    gaussian_marginal,
    kernel_from_json,
    sample_coupling,
    uniform_marginal,
)
from .drivers import (
    GaussMarkovDriver,
    PathBundle,
    brownian_driver,
    driver_covariance,
    driver_preset,
    driver_quadratic_variation,
    ou_driver,
    scaled_bm_driver,
    simulate_driver,
)
from .errors import (
    ArcadeError,
    ConfigError,
    DegenerateError,
    DomainError,
    InfeasibleError,
    NumericError,
    UnboundedError,
)
from .fam import (
    FamTrace,
    fam_filter_bruteforce,
    fam_filter_continuous,
    fam_filter_discrete,
    fam_paths,
    fam_volatility,
    innovations_path,
    ito_isometry_check,
)
from .ibmot import (
    IbmotOptions,
    IbmotProblem,
    IbmotSolution,
    brute_force_small,
    ibmot_objective_mc,
    ibmot_objective_quantile,
    lp_oracle,
    solve_ibmot,
    w2sq_discrete_vs_gaussian,
)
from .partition import (
    CoefficientSet,
    Partition,
    carryover_noise_coefficients,
    damp_lagrange,
    elliptic_coefficients,
    eval_coefficient,
    lagrange_coefficients,
    piecewise_linear_coefficients,
    table_coefficients,
    validate_coefficient_set,
)
from .rap import (
    RapConfig,
    build_rap_paths,
    carryover_signal_coefficients,
    conditional_mean_rap,
    mimic_process,
    nearly_markov_check,
)

__version__ = "0.1.0"
