"""Maximum Lq-likelihood fitting: a loose simplex search, finished by Newton.

Sigma = sigma2 R(beta, nu), and sigma2 only rescales a correlation matrix
that costs the same to build at every sigma2, so sigma2 is profiled out:
the search runs over (beta, nu) alone, and at each trial point
``gauss_lik.profile_lq`` builds and factors R once and solves for sigma2
exactly inside its bounds (closed form at q = 1, safeguarded Newton steps
in log sigma2 below; see ``gauss_lik.profile_sigma2``).  The search works
in bound-scaled coordinates: (beta, nu) is mapped affinely to the unit
square u = (x - lower) / width, where ``tol`` is measured.

It compares the log-domain profile value V (sum l at q = 1,
logsumexp((1-q) l) / (1-q) below), a strictly increasing transform of the
exact Lq objective sum (f^(1-q) - 1) / (1-q).  Every number the fit needs,
the reported ``objective`` included, comes from the values and sigma2
solutions the search has cached; the fit builds no full covariance of its
own.

A cold fit has three stages.

- Nelder-Mead runs to the loose simplex diameter ``_LOOSE_XATOL`` (the
  objective-spread test is disabled, so its steps depend only on the order
  of values).
- Up to ``_NEWTON_STEPS`` Newton steps delta on V in u follow, from its
  exact gradient and Hessian (``_profile_derivs``).  A step is taken when
  the Hessian is negative definite, u + delta lies in the box and scores no
  lower than u; any other step ends this stage, with no line search.  A
  step with |delta| <= ``tol`` componentwise confirms the fit.  Newton
  converges quadratically, so the step after a 1e-5 step is about 1e-11,
  and its rise is below the rounding of V: where the predicted rise
  delta' (-H) delta / 2 is at most ``gauss_lik.V_ROUNDING`` |V(u)|, the
  step is taken whatever it scores (the tie rule).
- Where the steps do not confirm (an optimum on a bound, non-finite
  derivatives, a Hessian that is not negative definite, a refused step),
  the simplex runs again from the best point reached, to ``tol``, and one
  Newton step of at most ``tol`` may confirm its answer.  Failing that, the
  search restarts from its own answer with a fresh simplex, up to twice,
  and a restart that moves at most ``tol`` confirms the point.

A warm fit (``warm=True``: init is the estimate at a neighbouring q) starts
with the Newton steps at init, and runs the cold stages from the best point
reached only if they do not confirm.  Along ``qselect.DEFAULT_GRID`` a warm
fit took 3 to 6 evaluations.  ``FitChain`` caches each q's fit and starts
every fit after the first one that returns warm at the last estimate; it
serves ``fit_profile``, the q selectors and the CLI sweep.

The Newton step is invariant under the model's symmetries: the replicate
weights are normalized, so rescaling the data by c shifts every log density
by the same constant and leaves them unchanged, sigma2's derivatives scale
as powers of c that cancel in the Schur complement, and the weighted sums
over replicates and the traces and quadratic forms over locations do not
depend on their order.  Restart decisions compare iterates and the Newton
checks compare two profile values, so both are order-only as well.  A fit
that does not confirm is reported as not converged.  Trial points with a
non-positive-definite correlation matrix score -inf and are simply
rejected; only failure at the initial point is an error.  A restart that
does not move confirms nothing where no scored point has a finite value
other than the estimate's: every other point was rejected, or the profile
is flat there (at the lower corner of the box, where every correlation is
zero to double precision).

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

from .asymptotics import _weighted_derivs
from .gauss_lik import V_ROUNDING, NotSPDError, profile_lq
from .matern import MaternParams

# Simplex diameter, in bound-scaled coordinates, at which Newton steps take
# over from Nelder-Mead.  Cold fits on the n = 100 grid and n = 400 uniform
# sites confirmed with the fewest evaluations here (see CHANGES.md for the
# measurement of 1e-2, 3e-3 and 1e-3).
_LOOSE_XATOL = 3e-3

# Newton steps per stage; warm fits along the q grids confirmed in 2 to 5.
_NEWTON_STEPS = 6


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
    below it, an increasing transform of the exact Lq objective.  It
    overflows to inf when the data's scale is small, even at a correct
    fit; ``converged`` tests V itself.  ``evaluations`` counts the
    (beta, nu) points the search scored and ``newton_steps`` the derivative
    passes of its Newton steps, each costing about as much as a few
    evaluations; ``restarts`` counts the fallback simplex runs, 0 when
    Newton steps confirmed the estimate.
    """

    theta_hat: MaternParams
    objective: float
    q: float
    iterations: int
    evaluations: int
    converged: bool
    init: MaternParams
    restarts: int = 0
    newton_steps: int = 0


@dataclass(frozen=True)
class QProfile:
    """Fits along a descending q grid starting at 1."""

    grid: tuple
    fits: tuple

    def __post_init__(self):
        _checked_q_grid(self.grid)

    def kappa_curve(self):
        from .qselect import kappa

        return np.array([kappa(f.theta_hat) for f in self.fits])


def _checked_q_grid(grid):
    """grid as a tuple of floats; it must start at 1 and decrease within (0, 1]."""
    g = np.asarray(grid, dtype=float)
    if g.size == 0 or g[0] != 1.0:
        raise ValueError("q grid must start at 1")
    if np.any(g <= 0.0) or np.any(g > 1.0) or np.any(np.diff(g) >= 0.0):
        raise ValueError("q grid must be strictly decreasing within (0, 1]")
    return tuple(float(v) for v in g)


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

    With the replicate weights w (summing to one below q = 1), the full
    gradient of the log-domain objective is gbar = sum w_i g_i and its
    Hessian is sum w_i H_i + (1-q) sum w_i (g_i - gbar)(g_i - gbar)', from
    one ``asymptotics._weighted_derivs`` pass.

    ``sigma2`` is the profile's solution at (beta, nu).  Where it is
    interior, the sigma2-derivative of the objective vanishes, so the
    gradient is the (beta, nu) part of the full one and sigma2's response
    enters the Hessian through the Schur complement H_pp - H_ps H_ss^-1 H_sp
    (nan unless H_ss < 0, where sigma2 is no maximum).  Where it is
    ``clipped`` at a bound it stays there under small moves, and the
    Hessian is H_pp.
    """
    theta = MaternParams(sigma2, beta, nu)
    g, w, hess, _ = _weighted_derivs(reps.data, locs, theta, q)
    grad = g @ w
    if q < 1.0:
        G = g - grad[:, None]
        hess += (1.0 - q) * ((G * w) @ G.T)
    hess = 0.5 * (hess + hess.T)
    H = hess[1:, 1:]
    if not clipped:
        if not hess[0, 0] < 0.0:
            return grad[1:], np.full((2, 2), np.nan)
        H = H - np.outer(hess[1:, 0], hess[0, 1:]) / hess[0, 0]
    return grad[1:], H


class _Search:
    """One fit's scored points and counters, in bound-scaled u = (beta, nu)."""

    def __init__(self, reps, locs, q, bounds, tol, max_evals):
        lo, hi = bounds.as_arrays()
        self.reps, self.locs, self.q = reps, locs, q
        # the search box is (beta, nu); sigma2's bounds go to the inner solve
        self.s2_box = (float(lo[0]), float(hi[0]))
        self.corner, self.width = lo[1:], hi[1:] - lo[1:]
        self.tol, self.max_evals = tol, max_evals
        # u.tobytes() -> (sigma2, profile value); the answer's sigma2 and
        # value are read back from here
        self.scored = {}
        self.iterations = self.evaluations = self.passes = 0
        self.simplex_ok = True      # the last simplex run ended normally

    def score(self, u):
        beta, nu = self.corner + u * self.width
        self.scored[u.tobytes()] = profile_lq(self.reps, self.locs, beta, nu,
                                              self.q, *self.s2_box)

    def value(self, u):
        key = u.tobytes()
        if key not in self.scored:
            try:
                self.score(u)
            except NotSPDError:
                self.scored[key] = (float("nan"), -np.inf)
        return self.scored[key][1]

    def neg_obj(self, u):
        val = self.value(u)
        return -val if np.isfinite(val) else np.inf

    def simplex(self, u, xatol):
        """A Nelder-Mead run from u to simplex diameter ``xatol``; its answer."""
        options = {"xatol": xatol, "fatol": np.inf, "maxfev": self.max_evals,
                   "maxiter": self.max_evals}
        res = minimize(self.neg_obj, u, method="nelder-mead",
                       bounds=[(0.0, 1.0)] * 2, options=options)
        self.iterations += int(res.nit)
        self.evaluations += int(res.nfev)
        self.simplex_ok = bool(res.status == 0 and np.isfinite(res.fun))
        return res.x

    def newton_step(self, u):
        """(delta, predicted rise) of one Newton step in u from a scored u.

        None where the derivatives are not finite or the profile Hessian is
        not negative definite.
        """
        self.passes += 1
        sigma2 = self.scored[u.tobytes()][0]
        beta, nu = self.corner + u * self.width
        try:
            g, H = _profile_derivs(self.reps, self.locs, sigma2, beta, nu, self.q,
                                   clipped=sigma2 in self.s2_box)
        except NotSPDError:
            return None
        g, H = g * self.width, H * np.outer(self.width, self.width)
        if not (np.all(np.isfinite(g)) and H[0, 0] < 0.0
                and H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0] > 0.0):
            return None
        delta = np.linalg.solve(H, -g)
        return delta, -0.5 * float(delta @ H @ delta)

    def newton(self, u, steps):
        """Up to ``steps`` Newton steps from a scored u: (best u, confirmed).

        A step is taken when it lands in the box and scores no lower; any
        other step ends the run.  A step of at most ``tol`` confirms.  Such a
        step whose predicted rise is within the rounding of the value is
        taken whatever it scores (the tie rule).  The last step allowed must
        be a confirming one, so a longer step there is not scored.
        """
        val = self.value(u)
        if not np.isfinite(val):
            return u, False
        for k in range(steps):
            step = self.newton_step(u)
            if step is None:
                break
            delta, rise = step
            u_new = u + delta
            if not np.all((u_new >= 0.0) & (u_new <= 1.0)):
                break
            short = float(np.max(np.abs(delta))) <= self.tol
            if not short and k == steps - 1:
                break
            self.evaluations += 1
            val_new = self.value(u_new)
            # a rise below V's rounding cannot be told from a fall by scoring
            tie = short and rise <= V_ROUNDING * abs(val) and np.isfinite(val_new)
            if not (val_new >= val or tie):
                break
            u, val = u_new, val_new
            if short:
                return u, True
        return u, False


def fit(reps, locs, q, bounds=None, init=None, tol=1e-6, *, max_evals=5000,
        warm=False):
    """Maximize the Lq-likelihood inside a box, with sigma2 profiled out.

    The search runs over (beta, nu); sigma2 is solved exactly at each trial
    point.  A loose simplex run brings the estimate within reach of Newton
    steps on the profile value, which finish it to ``tol``; where they do
    not confirm it, a tight simplex run, one confirming step and up to two
    restarts follow (see the module docstring).

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
    warm : bool
        Whether init is an earlier estimate near the answer, such as the
        fit at a neighbouring q: Newton steps start from it, and the simplex
        runs only if they do not confirm.

    Returns
    -------
    FitResult
        ``evaluations`` counts (beta, nu) points, Newton points included,
        and ``newton_steps`` the derivative passes; ``restarts`` is 0 when
        Newton steps confirmed the estimate.  ``converged`` requires a
        confirmation, a normal end of the last simplex run, if any, and a
        finite profile value V at the estimate.
    """
    if bounds is None:
        bounds = default_bounds()
    if init is None:
        init = default_init(reps, bounds)
    elif not bounds.contains(init):
        raise ValueError("init %r lies outside the bounds" % (init,))
    search = _Search(reps, locs, q, bounds, tol, max_evals)
    u = (init.as_array()[1:] - search.corner) / search.width
    # a hard failure at the starting point is an error, not a rejection
    search.score(u)
    confirmed = False
    if warm:
        search.evaluations += 1
        u, confirmed = search.newton(u, _NEWTON_STEPS)
    # the loose simplex and Newton to tol, then the tight simplex and one
    # confirming step; a simplex run that ends abnormally goes to restarts
    for xatol, steps in ((max(tol, _LOOSE_XATOL), _NEWTON_STEPS), (tol, 1)):
        if confirmed:
            break
        u = search.simplex(u, xatol)
        if not search.simplex_ok:
            break
        u, confirmed = search.newton(u, steps)
    by_newton = confirmed

    # the fallback: restarts from the search's own answer
    restarts = 0
    while not confirmed and restarts < 2:
        start = u
        u = search.simplex(start, tol)
        restarts += 1
        confirmed = float(np.max(np.abs(u - start))) <= tol

    search.value(u)
    sigma2, value = search.scored[u.tobytes()]
    theta_hat = MaternParams(sigma2, *(search.corner + u * search.width))
    with np.errstate(over="ignore"):
        objective = value if q == 1.0 else np.exp((1.0 - q) * (value + reps.n))
    # a restart cannot move where every other point it scores is rejected
    # or ties the estimate, which confirms nothing: the search must have
    # scored some finite value other than the estimate's
    moved = any(np.isfinite(v) and v != value for _s2, v in search.scored.values())
    converged = bool(confirmed and (by_newton or moved)
                     and search.simplex_ok and np.isfinite(value))
    return FitResult(theta_hat=theta_hat, objective=float(objective), q=float(q),
                     iterations=search.iterations, evaluations=search.evaluations,
                     converged=converged, init=init, restarts=restarts,
                     newton_steps=search.passes)


class FitChain:
    """Fits of one dataset along q, cached per q and started warm.

    ``chain.fit(q)`` returns the FitResult at q, fitted on the first request
    only (key round(q, 12)); ``chain(q)`` returns its theta_hat, as the q
    selectors' ``fit_fn``.  The first fit starts cold at ``init``; every fit
    after the first one that returns starts with Newton steps at the last
    returned estimate (``fit``'s ``warm``).  A fit that raises is not cached.
    """

    def __init__(self, reps, locs, bounds=None, init=None, tol=1e-6, *,
                 max_evals=5000):
        if bounds is None:
            bounds = default_bounds()
        if init is None:
            init = default_init(reps, bounds)
        self._reps, self._locs, self._bounds = reps, locs, bounds
        self._tol, self._max_evals = tol, max_evals
        self._start, self._warm = init, False
        self._fits = {}

    def fit(self, q):
        key = round(float(q), 12)
        if key not in self._fits:
            res = fit(self._reps, self._locs, float(q), self._bounds, self._start,
                      self._tol, max_evals=self._max_evals, warm=self._warm)
            self._start, self._warm = res.theta_hat, True
            self._fits[key] = res
        return self._fits[key]

    def __call__(self, q):
        return self.fit(q).theta_hat

    def profile(self, grid):
        """QProfile of the fits along a descending grid starting at 1.

        A q value whose fit fails outright is recorded as a non-converged
        placeholder (objective NaN) at the last good estimate, and the
        chain continues from that estimate.
        """
        grid = _checked_q_grid(grid)
        fits = []
        for q in grid:
            try:
                fits.append(self.fit(q))
            except (NotSPDError, np.linalg.LinAlgError):
                fits.append(FitResult(theta_hat=self._start, objective=float("nan"),
                                      q=q, iterations=0, evaluations=0,
                                      converged=False, init=self._start))
        return QProfile(grid=grid, fits=tuple(fits))


def fit_profile(reps, locs, grid, bounds=None, init=None, tol=1e-6, *,
                max_evals=5000):
    """``FitChain.profile`` of a fresh chain: fits along a descending q grid."""
    return FitChain(reps, locs, bounds, init, tol, max_evals=max_evals).profile(grid)
