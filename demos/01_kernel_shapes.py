"""Matern kernel shapes.

The kernel M(h) = sigma2 * c(nu) * (h/beta)^nu * K_nu(h/beta) interpolates
between the rough exponential model (nu = 1/2) and increasingly smooth
fields as nu grows.  This script prints the correlation profiles for a few
(beta, nu) pairs and checks the nu = 1/2 closed form at one distance.  The
kernel's analytic derivatives in (sigma2, beta, nu) are checked against
central differences by the test suite (acceptance criterion 1).
"""

import numpy as np

from lqmatern import MaternParams, matern_cov

# --- correlation profiles ---------------------------------------------------

hs = np.array([0.0, 0.05, 0.1, 0.2, 0.4, 0.8])
cases = [
    MaternParams(1.0, 0.1, 0.5),    # exponential, short range
    MaternParams(1.0, 0.3, 0.5),    # exponential, long range
    MaternParams(1.0, 0.1, 1.5),    # once-differentiable field
    MaternParams(1.0, 0.1, 2.5),    # smoother still
]

print("correlation M(h)/sigma2 by distance")
print("%-22s" % "theta", " ".join("h=%-5g" % h for h in hs))
for th in cases:
    row = [matern_cov(h, th) / th.sigma2 for h in hs]
    label = "beta=%.1f nu=%.1f" % (th.beta, th.nu)
    print("%-22s" % label, " ".join("%.4f " % v for v in row))

# nu = 1/2 has the closed form exp(-h/beta); confirm at one distance
th = cases[0]
h = 0.2
print("\nnu = 1/2 closed form: M(%.1f) = %.10f vs exp(-h/beta) = %.10f"
      % (h, matern_cov(h, th), th.sigma2 * np.exp(-h / th.beta)))
