"""Robust covariance estimation for replicated Gaussian random fields.

Matern kernels and their derivatives, Gaussian and Lq likelihoods,
maximum Lq-likelihood fitting (a simplex search finished by Newton steps),
sandwich standard errors, data-driven selection of the distortion parameter
q, field simulation, and empirical variograms, with a small CLI around the
lot.
"""

from .asymptotics import SandwichParts, SingularJError, StdErrs, sandwich, std_errs
from .estimate import Bounds, FitChain, FitResult, default_bounds, fit
from .gauss_lik import CholFactor, NotSPDError, ReplicateSet, chol_factor
from .matern import LocationSet, MaternParams, build_cov, matern_cov
from .qselect import (QGridSpec, SelectionResult, default_kappa_spec, kappa,
                      select_q_kappa, select_q_sqv, sqv, standardized)
from .simulate import ContaminationSpec, SimConfig, simulate_dataset
from .variogram import VariogramCurve, center_replicates, variogram_by_replicate

__version__ = "0.1.0"

__all__ = [
    "Bounds", "CholFactor", "ContaminationSpec", "FitChain", "FitResult",
    "LocationSet", "MaternParams", "NotSPDError", "QGridSpec",
    "ReplicateSet", "SandwichParts", "SelectionResult", "SimConfig",
    "SingularJError", "StdErrs", "VariogramCurve", "build_cov",
    "center_replicates", "chol_factor", "default_bounds",
    "default_kappa_spec", "fit", "kappa", "matern_cov", "sandwich",
    "select_q_kappa", "select_q_sqv", "simulate_dataset", "sqv",
    "standardized", "std_errs", "variogram_by_replicate",
]
