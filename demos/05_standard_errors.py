"""Asymptotic standard errors from the estimating-function sandwich.

Each replicate contributes a score-like vector U* (the gradient of its Lq
term) and a Hessian-like matrix V*.  Averaging gives the plug-in moment
matrices K and J; the sandwich J^-1 K J^-1 is the asymptotic covariance of
the estimator per replicate, so the standard error of parameter r is the
square root of its r-th diagonal entry, divided by sqrt(m) for the
estimate from m replicates.  This script checks the machinery two ways:
the standard errors against the spread of estimates across many simulated
datasets, and the q = 1 score against its zero-mean property at the truth.
"""

import numpy as np

from lqmatern import (MaternParams, SimConfig, fit, sandwich, simulate_dataset,
                      standardized, std_errs)

theta0 = MaternParams(1.0, 0.2, 0.5)
n, m, q = 36, 200, 0.95

# --- one dataset: fit, then sandwich at the fit -----------------------------

cfg = SimConfig(theta0, n=n, m=m, layout="grid", seed=1)
locs, reps, _ = simulate_dataset(cfg)
res = fit(reps, locs, q)
parts = sandwich(reps, locs, res.theta_hat, q)
errs = std_errs(parts)

se_est = errs.se / np.sqrt(m)
print("theta-hat:", res.theta_hat.as_array())
print("J sign convention used: %s, surrogate condition %.1e"
      % (errs.convention, errs.cond))

# standardized coordinates feed the SQV selector
print("standardized estimate theta-hat / (sqrt(m) se):",
      np.round(standardized(res.theta_hat, errs, m), 2))

# --- does se predict the Monte Carlo spread? --------------------------------

n_rep = 30
hats = np.empty((n_rep, 3))
for s in range(n_rep):
    locs_s, reps_s, _ = simulate_dataset(
        SimConfig(theta0, n=n, m=m, layout="grid", seed=100 + s))
    hats[s] = fit(reps_s, locs_s, q).theta_hat.as_array()
mc_sd = hats.std(axis=0, ddof=1)
print("\nacross %d fresh datasets:" % n_rep)
print("  se / sqrt(m) at the first fit:", np.round(se_est, 4))
print("  Monte Carlo sd of theta-hat:  ", np.round(mc_sd, 4))
print("  ratio se / sd:", np.round(se_est / mc_sd, 2))

# --- the q = 1 score is mean zero at the truth ------------------------------

# sandwich(...).U holds each replicate's weighted gradient; the raw U* is U
# times e^log_scale, and at q = 1 the weights are 1 and log_scale is 0, so
# U is the score itself
U = sandwich(reps, locs, theta0, 1.0).U
zscore = U.mean(axis=1) / (U.std(axis=1, ddof=1) / np.sqrt(m))
print("\nmean of the q = 1 score at theta0, in units of its se:",
      np.round(zscore, 2), "(should sit within a few units of zero)")
