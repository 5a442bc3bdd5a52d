"""Maximum Lq-likelihood fitting by bounded derivative-free search.

Sigma = sigma2 R(beta, nu), and sigma2 only rescales a correlation matrix
that costs the same to build at every sigma2, so sigma2 is profiled out:
the search runs over (beta, nu) alone, and at each trial point
``gauss_lik.profile_lq`` builds and factors R once and solves for sigma2
exactly inside its bounds (closed form at q = 1, an ascent fixed point
below; see ``gauss_lik.profile_sigma2``).

Nelder-Mead runs in bound-scaled coordinates: (beta, nu) is mapped affinely
to the unit square u = (x - lower) / width, and convergence is declared when
the simplex diameter falls below ``tol`` in that scaled space.

Termination is driven by the simplex diameter alone (the objective-spread
test is disabled).  This matters beyond taste: Nelder-Mead steps depend only
on the ordering of objective values, and the search compares the log-domain
profile value (sum l at q = 1, logsumexp((1-q) l) / (1-q) below), a strictly
increasing transform of the exact Lq objective sum (f^(1-q) - 1) / (1-q) and
of the scaled surrogate alike.  So the search and its maximizer do not depend
on ``scale``, which only picks the form of the reported ``objective``.
Restart decisions likewise compare iterates, never objective values.

After the first run the search restarts from its own answer with a fresh
simplex (up to twice); a restart that moves less than ``tol`` confirms the
point.  Trial points with a non-positive-definite correlation matrix score
-inf and are simply rejected; only failure at the initial point is an error.

``fit_profile`` runs a descending grid of q values starting at 1, warm-
starting each fit at the previous estimate.

At fixed q < 1 the estimator is not consistent for the model's theta0 =
(sigma2, beta, nu).  Under the model f_theta^(1-q) f_theta0 is again a
zero-mean Gaussian density, so the population Lq estimating equation is
solved exactly at theta_q = (q sigma2, beta, nu): the scale shrinks by q,
the correlation parameters are unbiased, and the target's kappa is q kappa0.
The shrinkage trades bias for variance, so at small samples a q < 1 fit can
beat the MLE in mean squared error (Ferrari & Yang 2010, Ann. Statist.
38(2)).
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .gauss_lik import NotSPDError, profile_lq, total_lq
from .matern import MaternParams

_METHODS = ("nelder-mead", "powell")


@dataclass(frozen=True)
class Bounds:
    """Box constraints on (sigma2, beta, nu); strict lower < upper."""

    lower: MaternParams
    upper: MaternParams

    def __post_init__(self):
        lo, hi = self.lower.as_array(), self.upper.as_array()
        if not np.all(lo < hi):
            raise ValueError("bounds require lower < upper componentwise")

    def as_arrays(self):
        return self.lower.as_array(), self.upper.as_array()

    def contains(self, theta):
        lo, hi = self.as_arrays()
        t = theta.as_array()
        return bool(np.all(t >= lo) and np.all(t <= hi))


@dataclass(frozen=True)
class FitResult:
    """One maximization outcome.

    ``objective`` is total_lq(theta_hat, q, scale); ``evaluations`` counts
    the (beta, nu) points the search scored.
    """

    theta_hat: MaternParams
    objective: float
    q: float
    iterations: int
    evaluations: int
    converged: bool
    init: MaternParams
    scale: bool = True
    restarts: int = 0


@dataclass(frozen=True)
class QProfile:
    """Fits along a descending q grid starting at 1."""

    grid: tuple
    fits: tuple

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.size == 0 or g[0] != 1.0:
            raise ValueError("q grid must start at 1")
        if np.any(g <= 0.0) or np.any(g > 1.0) or np.any(np.diff(g) >= 0.0):
            raise ValueError("q grid must be strictly decreasing within (0, 1]")

    def kappa_curve(self):
        from .qselect import kappa

        return np.array([kappa(f.theta_hat) for f in self.fits])


def default_bounds():
    """sigma2 in [1e-3, 1e3], beta in [1e-3, 10], nu in [0.05, 5]."""
    return Bounds(MaternParams(1e-3, 1e-3, 0.05), MaternParams(1e3, 10.0, 5.0))


def default_init(reps, bounds):
    """Pooled-variance sigma2 with the conventional (beta, nu) = (0.1, 0.5).

    The pooled variance is clipped into the open interior of the bounds.
    """
    lo, hi = bounds.as_arrays()
    start = np.array([np.var(reps.data), 0.1, 0.5])
    margin = 1e-6 * (hi - lo)
    start = np.clip(start, lo + margin, hi - margin)
    return MaternParams.from_array(start)


def fit(reps, locs, q, bounds=None, init=None, tol=1e-6, *,
        scale=True, method="nelder-mead", max_evals=5000):
    """Maximize the Lq-likelihood inside a box, with sigma2 profiled out.

    The search runs over (beta, nu); sigma2 is solved exactly at each trial
    point (see the module docstring).

    Parameters
    ----------
    reps, locs : ReplicateSet, LocationSet
        Data.
    q : float
        Distortion parameter in (0, 1]; q = 1 is the MLE.  For q < 1 the
        target under the model is theta_q = (q sigma2, beta, nu), not the
        data-generating theta (see the module docstring).
    bounds : Bounds, optional
        Defaults to default_bounds().
    init : MaternParams, optional
        Must lie within bounds; defaults to default_init(reps, bounds).
        Its (beta, nu) starts the search; its sigma2 is not used beyond the
        check that the initial point can be evaluated.
    tol : float
        Simplex-diameter convergence threshold in bound-scaled coordinates.
    scale : bool
        Report ``objective`` as the underflow-safe surrogate
        sum exp[(l+n)(1-q)] (default) or, if False, the exact Lq value.
        It does not change the search or the maximizer.
    method : {"nelder-mead", "powell"}
        Derivative-free search; Powell is the documented swap-in.
    max_evals : int
        Evaluation and iteration budget per optimizer run.

    Returns
    -------
    FitResult
        ``evaluations`` counts (beta, nu) points.  ``converged`` also
        requires the reported objective to be finite.
    """
    if method not in _METHODS:
        raise ValueError("method must be one of %r" % (_METHODS,))
    if bounds is None:
        bounds = default_bounds()
    if init is None:
        init = default_init(reps, bounds)
    elif not bounds.contains(init):
        raise ValueError("init %r lies outside the bounds" % (init,))
    lo, hi = bounds.as_arrays()
    # the search box is (beta, nu); sigma2's bounds go to the inner solve
    s2_lo, s2_hi = float(lo[0]), float(hi[0])
    corner, width = lo[1:], hi[1:] - lo[1:]

    # a hard failure at the starting point is an error, not a rejection
    total_lq(reps, locs, init, q, scale=scale)

    # u.tobytes() -> (negated profile value, sigma2); each restart scores its
    # start again, and sigma2 at the answer is read back from here
    scored = {}

    def neg_obj(u):
        key = u.tobytes()
        if key not in scored:
            beta, nu = corner + u * width
            try:
                sigma2, val = profile_lq(reps, locs, beta, nu, q, s2_lo, s2_hi)
            except NotSPDError:
                sigma2, val = float("nan"), -np.inf
            scored[key] = (-val if np.isfinite(val) else np.inf, sigma2)
        return scored[key][0]

    u0 = (init.as_array()[1:] - corner) / width
    options = {"xatol": tol, "fatol": np.inf, "maxfev": max_evals, "maxiter": max_evals}
    if method == "powell":
        options = {"xtol": tol, "ftol": tol, "maxfev": max_evals, "maxiter": max_evals}

    n_it = n_ev = restarts = 0
    u_cur = u0
    res = None
    for attempt in range(3):
        res = minimize(neg_obj, u_cur, method=method,
                       bounds=[(0.0, 1.0)] * 2, options=options)
        n_it += int(res.nit)
        n_ev += int(res.nfev)
        moved = float(np.max(np.abs(res.x - u_cur)))
        u_cur = res.x
        if attempt > 0:
            restarts += 1
        if attempt > 0 and moved <= tol:
            break

    neg_obj(u_cur)
    sigma2 = scored[u_cur.tobytes()][1]
    if not np.isfinite(sigma2):  # every trial point was rejected
        sigma2 = init.sigma2
    theta_hat = MaternParams(sigma2, *(corner + u_cur * width))
    objective = total_lq(reps, locs, theta_hat, q, scale=scale)
    converged = bool(res.status == 0 and np.isfinite(res.fun) and np.isfinite(objective))
    return FitResult(theta_hat=theta_hat, objective=float(objective), q=float(q),
                     iterations=n_it, evaluations=n_ev, converged=converged,
                     init=init, scale=scale, restarts=restarts)


def fit_profile(reps, locs, grid, bounds=None, init=None, tol=1e-6, *,
                scale=True, method="nelder-mead", max_evals=5000):
    """Fit a descending q grid, warm-starting each fit at the previous theta_hat.

    A q value whose fit fails outright is recorded as a non-converged
    placeholder (objective NaN) and the profile continues from the last
    good estimate.
    """
    grid = tuple(float(v) for v in grid)
    if bounds is None:
        bounds = default_bounds()
    if init is None:
        init = default_init(reps, bounds)
    fits = []
    warm = init
    for q in grid:
        try:
            res = fit(reps, locs, q, bounds, warm, tol,
                      scale=scale, method=method, max_evals=max_evals)
        except (NotSPDError, np.linalg.LinAlgError):
            fits.append(FitResult(theta_hat=warm, objective=float("nan"), q=float(q),
                                  iterations=0, evaluations=0, converged=False,
                                  init=warm, scale=scale, restarts=0))
            continue
        fits.append(res)
        warm = res.theta_hat
    return QProfile(grid=grid, fits=tuple(fits))
