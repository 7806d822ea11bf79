"""Stable Laguerre polynomials, quadrature, and a half-line spectral solver."""

from .recurrence import (
    LagParams,
    eval_poly_standard,
    eval_poly_modified,
    eval_poly_derivative,
    eval_fun_standard,
    eval_fun_modified,
    eval_fun_derivative,
    fun_series_stable,
    fun_value_deriv_stable,
    norm_const,
)
from .quadrature import (
    GaussRule,
    RuleKind,
    nodes_eigen_seed,
    refine_newton,
    gauss_rule,
    gauss_radau_rule,
    cached_gauss_rule,
)
from .oracle import HpContext, hp_eval
from .errmodel import (
    ErrorBoundInput,
    ErrorBoundResult,
    Regime,
    zeta_envelopes,
    energy_bound,
    abs_error_bound,
    simulate_error_propagation,
    measure_actual_error,
)
from .spectral import (
    ModelProblem,
    SpectralSolution,
    ErrorReport,
    assemble_system,
    project_rhs,
    solve,
    error_norms,
    optimal_beta_exponential,
    beta_sweep,
)
from .problems import CaseSetup, make_case

__version__ = "0.1.0"
