"""Fitting the MLqE across a grid of q, on clean and contaminated data.

The interesting summary is kappa = sigma2 * beta^(-2 nu): under infill
asymptotics it is the combination the data actually pin down, so it is the
stable axis along which to compare fits.  On clean data the estimates drift
slowly as q falls (a mild robustness premium); with contaminated replicates
the q = 1 estimate of kappa is biased upward and moderate q < 1 pulls it
back toward the truth.
"""

import time

import numpy as np

from lqmatern import (ContaminationSpec, FitChain, MaternParams, SimConfig,
                      kappa, simulate_dataset)

theta0 = MaternParams(1.0, 0.1, 0.5)
print("true parameters:", theta0, " kappa =", kappa(theta0))

grid = (1.0, 0.99, 0.95, 0.9)

# --- clean data -------------------------------------------------------------

cfg = SimConfig(theta0, n=100, m=100, layout="grid", seed=3)
locs, reps, _ = simulate_dataset(cfg)
t0 = time.time()
prof = FitChain(reps, locs).profile(grid)
print("\nclean data (n = 100, m = 100), %.1fs for %d chained fits"
      % (time.time() - t0, len(grid)))
# every fit starts with Newton steps at its start: the first at the default
# start, each later one re-weighted from the estimates before it, so it
# scores a handful of points and a few derivative passes ("newton")
print("%-6s %-22s %-10s %-6s %s" % ("q", "theta-hat", "kappa-hat", "evals",
                                     "newton"))
for f in prof:
    t = f.theta_hat
    print("%-6g (%.3f, %.4f, %.3f)  %-10.3f %-6d %d"
          % (f.q, t.sigma2, t.beta, t.nu, kappa(t), f.evaluations,
             f.newton_steps))

# --- contaminated data ------------------------------------------------------

cfgx = SimConfig(theta0, n=100, m=100, layout="grid", seed=3,
                 contamination=ContaminationSpec(r=0.1, noise_sd=1.0))
locsx, repsx, flagsx = simulate_dataset(cfgx)
profx = FitChain(repsx, locsx).profile(grid)
print("\nsame field with %d of %d replicates contaminated (sd-1 noise):"
      % (int(flagsx.sum()), cfgx.m))
print("%-6s %-22s %s" % ("q", "theta-hat", "kappa-hat"))
for f in profx:
    t = f.theta_hat
    print("%-6g (%.3f, %.4f, %.3f)  %.3f"
          % (f.q, t.sigma2, t.beta, t.nu, kappa(t)))

k1 = kappa(profx[0].theta_hat)
k99 = kappa(profx[1].theta_hat)
print("\n|kappa-hat - 10| at q = 1: %.3f   at q = 0.99: %.3f"
      % (abs(k1 - 10.0), abs(k99 - 10.0)))
print("the kappa curve across the profile:",
      np.round([kappa(f.theta_hat) for f in profx], 3))
