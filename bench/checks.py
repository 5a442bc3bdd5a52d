"""Correctness checks that need no stored reference answer.

Each check returns None when the output is right and a one-line reason
when it is not; the benchmark counts an operation with a reason as failed.

- ``check_fit``: the fit converged with a finite objective, and the
  objective it reports equals a dense oracle: the Matern covariance built
  straight from ``scipy.special.kv`` over the full distance matrix,
  ``slogdet`` for the log determinant and ``solve`` for the quadratic
  forms, pushed through the same Lq transform.
- ``check_se``: ``std_errs`` gives the same answer on ``SandwichParts(K/s^2,
  J/s)`` with s = max|eig J|.  The printed J^-1/2 K^1/2 J^-1/2 form is
  invariant under that rescaling, so a disagreement exposes an absolute
  eigenvalue floor swamping J.
- ``check_variogram``: one curve per replicate, every pair inside the
  distance cutoff binned exactly once, finite non-negative semivariances.
- ``check_sweep``: the CLI exited 0 and every ``sweep.csv`` row is finite,
  converged and, for grid rows, matches the dense oracle.
"""

import csv
import io

import numpy as np
from scipy.spatial.distance import pdist, squareform
from scipy.special import gammaln, kv

from lqmatern.asymptotics import SandwichParts, std_errs

OBJECTIVE_RTOL = 1e-7
SE_RTOL = 1e-6


def dense_objective(data, coords, theta, q):
    """Summed Lq objective, as ``fit`` reports it, from dense linear algebra.

    At q < 1 that is the scaled form sum exp((l + n)(1 - q)), the default
    objective of ``fit``; at q = 1 it is the summed log-likelihood.
    """
    d = squareform(pdist(coords))
    n = d.shape[0]
    s2, beta, nu = theta
    t = d / beta
    off = t > 0.0
    cov = np.full_like(t, s2)
    coef = np.exp((1.0 - nu) * np.log(2.0) - gammaln(nu))
    cov[off] = s2 * coef * t[off] ** nu * kv(nu, t[off])
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0.0:
        return float("nan")
    quad = np.sum(data * np.linalg.solve(cov, data), axis=0)
    ll = -0.5 * (n * np.log(2.0 * np.pi) + logdet + quad)
    if q == 1.0:
        return float(np.sum(ll))
    return float(np.sum(np.exp((ll + n) * (1.0 - q))))


def _objective_mismatch(objective, data, coords, theta, q):
    want = dense_objective(data, coords, theta, q)
    if not np.isfinite(want) or abs(objective - want) > OBJECTIVE_RTOL * abs(want):
        return "objective %.17g at theta %s, q=%g; dense oracle gives %.17g" % (
            objective, list(theta), q, want)
    return None


def check_fit(res, reps, locs):
    if not res.converged:
        return "fit at q=%g did not converge" % res.q
    if not np.isfinite(res.objective):
        return "fit at q=%g has objective %r" % (res.q, res.objective)
    return _objective_mismatch(res.objective, reps.data, locs.coords,
                               tuple(res.theta_hat.as_array()), res.q)


def check_se(parts, errs):
    if not np.all(np.isfinite(errs.se)):
        return "standard errors are not finite: %s" % errs.se
    s = float(np.max(np.abs(np.linalg.eigvalsh(parts.J))))
    if not (np.isfinite(s) and s > 0.0):
        return "J has no usable scale (max |eig| = %r)" % s
    rescaled = std_errs(SandwichParts(K=parts.K / s ** 2, J=parts.J / s, m=parts.m))
    if not np.allclose(errs.se, rescaled.se, rtol=SE_RTOL, atol=0.0):
        return ("se %s changes to %s when K and J are rescaled by s=%.3g"
                % (errs.se.tolist(), rescaled.se.tolist(), s))
    return None


def check_variogram(curves, reps, locs):
    if len(curves) != reps.m:
        return "%d variogram curves for %d replicates" % (len(curves), reps.m)
    d = pdist(locs.coords)
    n_pairs = int(np.sum(d <= 0.5 * d.max()))
    for i, cv in enumerate(curves):
        filled = cv.counts > 0
        if int(cv.counts.sum()) != n_pairs:
            return "replicate %d bins %d pairs, expected %d" % (
                i, int(cv.counts.sum()), n_pairs)
        if not np.all(np.isfinite(cv.gamma[filled])) or np.any(cv.gamma[filled] < 0.0):
            return "replicate %d has a non-finite or negative semivariance" % i
    return None


def parse_sweep_csv(text):
    """sweep.csv rows as dicts with float q/theta/objective and bool flags."""
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        row = {k: float(rec[k]) for k in ("q", "sigma2", "beta", "nu", "kappa", "objective")}
        row["converged"] = rec["converged"] == "true"
        row["selected"] = rec["selected"] == "true"
        rows.append(row)
    return rows


def check_sweep(rc, rows, n_grid, reps, locs):
    if rc != 0:
        return "sweep exited with code %d" % rc
    grid_rows = [r for r in rows if not r["selected"]]
    if len(grid_rows) != n_grid or len(rows) != n_grid + 1:
        return "sweep wrote %d grid and %d selected rows, expected %d and 1" % (
            len(grid_rows), len(rows) - len(grid_rows), n_grid)
    for r in rows:
        if not all(np.isfinite(r[k]) for k in ("q", "sigma2", "beta", "nu", "kappa")):
            return "sweep.csv has a NaN row at q=%g" % r["q"]
    for r in grid_rows:
        if not r["converged"]:
            return "sweep fit at q=%g did not converge" % r["q"]
        theta = (r["sigma2"], r["beta"], r["nu"])
        bad = _objective_mismatch(r["objective"], reps.data, locs.coords,
                                  theta, r["q"])
        if bad:
            return "sweep.csv " + bad
    return None
