"""Maximum Lq-likelihood fitting: a bounded simplex search, confirmed by Newton.

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
profile value V (sum l at q = 1, logsumexp((1-q) l) / (1-q) below), a
strictly increasing transform of the exact Lq objective
sum (f^(1-q) - 1) / (1-q).  Every number the fit needs, the reported
``objective`` included, comes from the values and sigma2 solutions the
search has cached; the fit builds no full covariance of its own.

The simplex's answer u is then confirmed by one Newton step delta on the
same profile value in u, from its exact gradient and Hessian
(``_profile_derivs``).  The point u + delta is the estimate when the run
ended normally, u scored finite, the Hessian is negative definite,
|delta| <= ``tol`` componentwise, u + delta lies in the box and scores no
lower than u.  The step is invariant under the model's symmetries: the
replicate weights are normalized, so rescaling the data by c shifts every
log density by the same constant and leaves them unchanged, sigma2's
derivatives scale as powers of c that cancel in the Schur complement, and
the weighted sums over replicates and the traces and quadratic forms over
locations do not depend on their order.

Where the step does not confirm the point (an optimum on a bound,
non-finite derivatives, a Hessian that is not negative definite, a longer
step), the search restarts from its own answer with a fresh simplex, up to
twice, and a restart that moves at most ``tol`` confirms the point.
Restart decisions compare iterates, and the Newton check's one comparison
is between two profile values, so both are order-only as well.  A fit that
neither confirms is reported as not converged.  Trial points with a
non-positive-definite correlation matrix score -inf and are simply
rejected; only failure at the initial point is an error.  A fit in which
every point but the initial one was rejected is not converged.

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

from .asymptotics import _lq_derivs
from .gauss_lik import NotSPDError, profile_lq
from .matern import MaternParams


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

    ``objective`` is the profile value V at theta_hat in its surrogate form:
    V = sum l at q = 1, and exp((1-q) (V + n)) = sum exp((l + n)(1-q))
    below it, an increasing transform of the exact Lq objective that
    overflows when the data's scale is small.  ``evaluations`` counts the
    (beta, nu) points the search scored; ``restarts`` counts the fallback
    simplex runs, 0 when the Newton step confirmed the estimate.
    """

    theta_hat: MaternParams
    objective: float
    q: float
    iterations: int
    evaluations: int
    converged: bool
    init: MaternParams
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


def _profile_derivs(reps, locs, sigma2, beta, nu, q, clipped):
    """Gradient (2,) and Hessian (2, 2) in (beta, nu) of profile_lq's value.

    ``sigma2`` is the profile's solution at (beta, nu).  Where it is
    interior, the sigma2-derivative of the objective vanishes, so the
    gradient is the (beta, nu) part of the full one and sigma2's response
    enters the Hessian through the Schur complement H_pp - H_ps H_ss^-1 H_sp
    (nan unless H_ss < 0, where sigma2 is no maximum).  Where it is
    ``clipped`` at a bound it stays there under small moves, and the
    Hessian is H_pp.
    """
    grad, hess = _lq_derivs(reps.data, locs, MaternParams(sigma2, beta, nu), q)
    H = hess[1:, 1:]
    if not clipped:
        if not hess[0, 0] < 0.0:
            return grad[1:], np.full((2, 2), np.nan)
        H = H - np.outer(hess[1:, 0], hess[0, 1:]) / hess[0, 0]
    return grad[1:], H


def fit(reps, locs, q, bounds=None, init=None, tol=1e-6, *, max_evals=5000):
    """Maximize the Lq-likelihood inside a box, with sigma2 profiled out.

    The search runs over (beta, nu); sigma2 is solved exactly at each trial
    point.  The simplex's answer is confirmed by one exact Newton step on
    the profile value, or, where that step does not confirm it, by up to two
    restarts (see the module docstring).

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
        Its (beta, nu) starts the search and is scored first: a
        NotSPDError there is raised, not rejected.  Its sigma2 is not used.
    tol : float
        Simplex-diameter convergence threshold in bound-scaled coordinates;
        also the largest Newton step or restart move that confirms a point.
    max_evals : int
        Evaluation and iteration budget per optimizer run.

    Returns
    -------
    FitResult
        ``evaluations`` counts (beta, nu) points, the Newton point
        included; ``restarts`` is 0 when the Newton step confirmed the
        estimate.  ``converged`` requires a confirmation, a normal end of
        the last simplex run and a finite reported objective.
    """
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

    # u.tobytes() -> (sigma2, profile value); each restart scores its start
    # again, and the answer's sigma2 and value are read back from here
    scored = {}

    def score(u):
        beta, nu = corner + u * width
        scored[u.tobytes()] = profile_lq(reps, locs, beta, nu, q, s2_lo, s2_hi)

    def neg_obj(u):
        key = u.tobytes()
        if key not in scored:
            try:
                score(u)
            except NotSPDError:
                scored[key] = (float("nan"), -np.inf)
        val = scored[key][1]
        return -val if np.isfinite(val) else np.inf

    def newton_step(u):
        # one Newton step in u on the profile value at a scored point, or
        # None where the profile Hessian is not negative definite
        sigma2 = scored[u.tobytes()][0]
        beta, nu = corner + u * width
        try:
            g, H = _profile_derivs(reps, locs, sigma2, beta, nu, q,
                                   clipped=sigma2 in (s2_lo, s2_hi))
        except NotSPDError:
            return None
        g, H = g * width, H * np.outer(width, width)
        if not (np.all(np.isfinite(g)) and H[0, 0] < 0.0
                and H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0] > 0.0):
            return None
        return np.linalg.solve(H, -g)

    u0 = (init.as_array()[1:] - corner) / width
    # a hard failure at the starting point is an error, not a rejection
    score(u0)
    options = {"xatol": tol, "fatol": np.inf, "maxfev": max_evals, "maxiter": max_evals}
    box = [(0.0, 1.0)] * 2
    res = minimize(neg_obj, u0, method="nelder-mead", bounds=box, options=options)
    n_it, n_ev = int(res.nit), int(res.nfev)
    u_cur = res.x
    confirmed = False
    if res.status == 0 and np.isfinite(neg_obj(u_cur)):
        step = newton_step(u_cur)
        if step is not None and np.max(np.abs(step)) <= tol:
            u_new = u_cur + step
            if np.all((u_new >= 0.0) & (u_new <= 1.0)):
                n_ev += 1
                if neg_obj(u_new) <= neg_obj(u_cur):
                    u_cur, confirmed = u_new, True

    # the fallback: restarts from the search's own answer
    restarts = 0
    while not confirmed and restarts < 2:
        start = u_cur
        res = minimize(neg_obj, start, method="nelder-mead", bounds=box,
                       options=options)
        n_it += int(res.nit)
        n_ev += int(res.nfev)
        restarts += 1
        u_cur = res.x
        confirmed = float(np.max(np.abs(u_cur - start))) <= tol

    neg_obj(u_cur)
    sigma2, value = scored[u_cur.tobytes()]
    theta_hat = MaternParams(sigma2, *(corner + u_cur * width))
    objective = value if q == 1.0 else np.exp((1.0 - q) * (value + reps.n))
    # a restart whose every trial point was rejected does not move, which
    # confirms nothing: the search must have scored some other point
    n_finite = sum(np.isfinite(v) for _s2, v in scored.values())
    converged = bool(confirmed and n_finite > 1 and res.status == 0
                     and np.isfinite(res.fun) and np.isfinite(objective))
    return FitResult(theta_hat=theta_hat, objective=float(objective), q=float(q),
                     iterations=n_it, evaluations=n_ev, converged=converged,
                     init=init, restarts=restarts)


def fit_profile(reps, locs, grid, bounds=None, init=None, tol=1e-6, *,
                max_evals=5000):
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
            res = fit(reps, locs, q, bounds, warm, tol, max_evals=max_evals)
        except (NotSPDError, np.linalg.LinAlgError):
            fits.append(FitResult(theta_hat=warm, objective=float("nan"), q=float(q),
                                  iterations=0, evaluations=0, converged=False,
                                  init=warm, restarts=0))
            continue
        fits.append(res)
        warm = res.theta_hat
    return QProfile(grid=grid, fits=tuple(fits))
