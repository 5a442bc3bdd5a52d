"""From the log-likelihood to the Lq-likelihood, exact and in the log domain.

The Lq transform L_q(u) = (u^(1-q) - 1)/(1-q) applied to the density f
recovers log f as q -> 1.  For q < 1 each replicate's contribution is
weighted by f^(1-q), so replicates with very low likelihood (outliers)
are smoothly downweighted.  Densities of 100-dimensional vectors underflow
double precision, and with them the terms f^(1-q) of the exact sum.  The
implementation therefore scores a parameter point by the log-domain value
V = logsumexp((1-q) l) / (1-q), a strictly increasing function of the exact
sum, so both have the same argmax.
"""

import numpy as np
from scipy.linalg import solve_triangular

from lqmatern import (MaternParams, SimConfig, build_cov, chol_factor, fit,
                      simulate_dataset)

cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=100, m=100, layout="grid",
                seed=0)
locs, reps, _ = simulate_dataset(cfg)


def logliks(theta):
    # l_i = -(1/2) (n log 2 pi + log|Sigma| + z_i' Sigma^-1 z_i) for every
    # replicate, from one Cholesky factor Sigma = L L' and L y_i = z_i
    cf = chol_factor(build_cov(locs, theta))
    y = solve_triangular(cf.L, reps.data, lower=True)
    return -0.5 * (reps.n * np.log(2.0 * np.pi) + cf.log_det + np.sum(y * y, axis=0))


def lq(l, q):
    # the exact Lq transform of a density with log l: (f^(1-q) - 1) / (1-q)
    return np.expm1((1.0 - q) * l) / (1.0 - q)


ls = logliks(cfg.theta)
print("per-replicate log-likelihoods at theta0: min %.1f, median %.1f, "
      "max %.1f" % (ls.min(), np.median(ls), ls.max()))
print("the raw densities exp(l) underflow: exp(%.0f) = %g"
      % (ls.min(), np.exp(ls.min())))

# --- the q -> 1 limit -------------------------------------------------------

l = float(np.median(ls))
print("\nL_q value of the median replicate as q -> 1 (log value is %.6f):" % l)
for q in (0.9, 0.99, 0.999, 1.0 - 1e-8):
    v = lq(l, q)
    print("  q = %-10s  L_q = %12.6f   gap %.2e" % (q, v, abs(v - l)))

# --- replicate weights ------------------------------------------------------

# at q < 1 replicate i carries the weight softmax((1-q) l)_i; outlying
# replicates fade first
for q in (0.99, 0.95, 0.9):
    h = (1.0 - q) * ls
    w = np.exp(h - h.max())
    w /= w.sum()
    print("q = %.2f: weight of the worst replicate vs best = %.3f, "
          "effective sample size %.1f of %d"
          % (q, w.min() / w.max(), 1.0 / np.sum(w ** 2), reps.m))


# --- exact vs log-domain objective ------------------------------------------

def log_value(theta, q):
    # V = sum l at q = 1, else logsumexp((1-q) l) / (1-q), its largest term
    # factored out
    if q == 1.0:
        return float(np.sum(logliks(theta)))
    h = (1.0 - q) * logliks(theta)
    top = h.max()
    return (top + np.log(np.sum(np.exp(h - top)))) / (1.0 - q)


th_try = MaternParams(1.1, 0.12, 0.55)
th_other = MaternParams(0.9, 0.09, 0.45)
for q in (0.95, 0.5):
    exact = [np.sum(lq(logliks(th), q)) for th in (th_try, th_other)]
    logv = [log_value(th, q) for th in (th_try, th_other)]
    print("\nq = %.2f, two trial thetas:" % q)
    print("  exact Lq sum:      %.15g vs %.15g, difference %.3g"
          % (exact[0], exact[1], exact[0] - exact[1]))
    print("  log-domain value:  %.15g vs %.15g, difference %.3g"
          % (logv[0], logv[1], logv[0] - logv[1]))

print("\nat q = 0.5 every f^(1-q) is lost against the -1 of its term, so the "
      "exact sum reads -m/(1-q) = %g at both points; the log-domain value "
      "still tells them apart" % (-reps.m / 0.5))

# the library's fit maximizes this V, with sigma2 solved at each (beta, nu),
# and reports exp((1-q) (V + n)) as its objective below q = 1
q = 0.95
res = fit(reps, locs, q)
print("fit at q = %.2f: V from its objective %.12g; log_value at its estimate: %.12g"
      % (q, np.log(res.objective) / (1.0 - q) - reps.n, log_value(res.theta_hat, q)))
