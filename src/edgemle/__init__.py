"""Fifth-order expansions for the maximum likelihood estimator of location.

The package computes, for a smooth location family:

* the moment functional vector (Fisher information, contrast-derivative
  means a_1..a_6, standardized score functionals eta_2..eta_10) by
  double-exponential quadrature,
* the stochastic expansion of sqrt(n)(thetahat - theta0) in the normalized
  sums xi_1..xi_6, through order n^-2,
* the Edgeworth expansion of the distribution function of the standardized
  statistic sqrt(n I)(thetahat - theta0) and its Cornish-Fisher quantile
  inverse, at truncation orders 1..5,
* and a reproducible Monte Carlo harness that verifies all of the above
  against simulated maximum likelihood estimates.
"""

__version__ = "0.1.0"

from .density import (BUILTIN_FAMILIES, DensityModel, check_density, from_expression,
                      from_table, logistic, make_model, model_from_descriptor, normal, psi,
                      rho_deriv, student_t)
from .errors import (DomainError, InversionFailure, MomentDivergence, NoConvergence,
                     SingularInformation, StudyAborted, UnsupportedOrder)
from .expansion import (GAUSSIAN_ETA, ORDERS, CompositionReport, XiVector,
                        collapse_report, compose_check, compute_xi, compute_xi_batch,
                        cornish_fisher_quantile, edgeworth_cdf, stochastic_expansion,
                        stochastic_expansion_batch)
from .mle import BatchMleResult, LocationMLE, MleResult, contrast, solve_mle, solve_mle_batch
from .moments import (ConditionReport, MomentSet, compute_moment_set, fisher_information,
                      validate_conditions)
from .montecarlo import ComparisonReport, SimulationConfig, ecdf_distance, run_study, sample_iid

__all__ = [
    "__version__",
    # families
    "BUILTIN_FAMILIES", "DensityModel", "check_density", "from_expression",
    "from_table", "logistic", "make_model", "model_from_descriptor", "normal", "psi",
    "rho_deriv", "student_t",
    # errors
    "DomainError", "InversionFailure", "MomentDivergence", "NoConvergence",
    "SingularInformation", "StudyAborted", "UnsupportedOrder",
    # moments
    "ConditionReport", "MomentSet", "compute_moment_set", "fisher_information",
    "validate_conditions",
    # expansions
    "GAUSSIAN_ETA", "ORDERS", "CompositionReport", "XiVector", "collapse_report",
    "compose_check", "compute_xi", "compute_xi_batch", "cornish_fisher_quantile",
    "edgeworth_cdf", "stochastic_expansion", "stochastic_expansion_batch",
    # mle
    "BatchMleResult", "LocationMLE", "MleResult", "contrast", "solve_mle",
    "solve_mle_batch",
    # monte carlo
    "ComparisonReport", "SimulationConfig", "ecdf_distance", "run_study", "sample_iid",
]
