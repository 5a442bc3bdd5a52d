"""Robust covariance estimation for replicated Gaussian random fields.

Matern kernels and their derivatives, exact Gaussian and Lq likelihoods,
maximum Lq-likelihood fitting (a simplex search finished by Newton steps),
sandwich standard errors, data-driven selection of the distortion parameter
q, field simulation, and empirical variograms, with a small CLI around the
lot.
"""

from .asymptotics import (SandwichParts, SingularJError, StdErrs, sandwich,
                          std_errs, ustar, ustar_all, vstar)
from .estimate import (Bounds, FitResult, QProfile, default_bounds,
                       default_init, fit, fit_profile)
from .gauss_lik import (CholFactor, NotSPDError, ReplicateSet,
                        chol_factor, log_likelihood, loglik_columns,
                        lq_of_loglik, total_lq)
from .matern import (LocationSet, MaternParams, build_cov, build_cov_grad,
                     build_cov_hess, matern_cov, matern_grad, matern_hess)
from .qselect import (QGridSpec, SelectionResult, default_kappa_spec, kappa,
                      make_fit_fn, make_se_fn, select_q_kappa, select_q_sqv,
                      sqv, standardized)
from .simulate import (ContaminationSpec, SimConfig, contaminate,
                       gen_replicates, make_locations, simulate_dataset)
from .specfun import digamma, log_gamma, trigamma
from .variogram import (VariogramCurve, center_replicates, empirical_variogram,
                        variogram_by_replicate)

__version__ = "0.1.0"

__all__ = [
    "Bounds", "CholFactor", "ContaminationSpec", "FitResult", "LocationSet",
    "MaternParams", "NotSPDError", "QGridSpec", "QProfile",
    "ReplicateSet", "SandwichParts", "SelectionResult", "SimConfig",
    "SingularJError", "StdErrs", "VariogramCurve", "build_cov",
    "build_cov_grad", "build_cov_hess", "center_replicates", "chol_factor",
    "contaminate", "default_bounds", "default_init", "default_kappa_spec",
    "digamma", "empirical_variogram", "fit", "fit_profile", "gen_replicates",
    "kappa", "log_gamma", "log_likelihood", "loglik_columns", "lq_of_loglik",
    "make_fit_fn", "make_locations", "make_se_fn", "matern_cov",
    "matern_grad", "matern_hess", "sandwich", "select_q_kappa",
    "select_q_sqv", "simulate_dataset", "sqv", "standardized", "std_errs",
    "total_lq", "trigamma", "ustar", "ustar_all", "variogram_by_replicate",
    "vstar",
]
