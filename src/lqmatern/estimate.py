"""Maximum Lq-likelihood fitting: Newton steps from the start, and a simplex search behind them.

The search runs over (beta, nu), in bound-scaled coordinates u = (x -
lower) / width on the unit square, where ``tol`` is measured.  It scores
each point as ``gauss_lik`` scores every (beta, nu): sigma2 is solved
exactly on (0, inf) on one factor of R, and points compare by the
log-domain value V.  sigma2 has no bounds, so data times c give sigma2
times c^2 and the same (beta, nu), up to rounding, at every c.
The fit reads its answer and ``objective`` from the scored (sigma2, V) it
caches.

A fit has three stages, and one check of their answer.

- The start is scored, with the kernel terms of a derivative pass, and up
  to ``_NEWTON_STEPS`` Newton steps delta in u follow from there, from V's
  exact gradient and Hessian: one derivative pass (``gauss_lik._Pass``)
  gives them in theta = (sigma2, beta, nu), and its Newton step
  (``_Pass.newton_step``, the one solve of the package) takes sigma2's
  gradient entry as 0, since sigma2 maximizes V at every (beta, nu), so
  the step's (beta, nu) part is the profile's.  The three are positive
  scales, and Newton's method is not invariant under a change of
  coordinates that is not linear: where V is concave in y = log theta, the
  step is taken there (theta moves to theta exp(dy), and delta is the move
  of (beta, nu) in u), and only where it is not, in theta.  So a rough
  fit's default start at q = 1, where V is not concave in theta, is within
  reach too.  A step is taken when
  its Hessian is negative definite, u + delta lies in the box and scores no
  lower than u; any other step ends this stage, with no line search.  A
  short step, |delta| <= ``tol`` componentwise, with u + delta in the box,
  is not taken: it confirms its start u, where the fit's last pass lies, as
  the estimate, and its trial point is not scored.  Its Hessian H is
  negative definite in the coordinates of the step, so delta = -H^-1 g is
  an ascent direction (g' delta = -g' H^-1 g > 0), and a trial point within
  ``tol`` could score below u only by rounding or a wrong derivative.  The
  last step allowed must be short.
- Where the steps do not confirm (a start beyond Newton's reach, an optimum
  on a bound, non-finite derivatives, a Hessian negative definite in
  neither coordinates, a refused step), Nelder-Mead runs from the best
  point reached to the loose simplex diameter ``_LOOSE_XATOL`` (the
  objective-spread test is disabled, so its steps depend only on the order
  of values), and the Newton steps follow again from its answer.  The
  simplex is the package's own (``_nelder_mead``), scipy's bounded
  Nelder-Mead step for step: no process loads scipy.optimize for it, and a
  scipy release that revises its simplex moves no fit.
- Where those do not confirm either, the simplex runs again from the best
  point reached, to ``tol``, and one Newton step of at most ``tol`` may
  confirm its answer.  Failing that, the search restarts from its own
  answer with a fresh simplex, up to twice, and a restart that moves at
  most ``tol`` confirms the point.  Such a restart confirms nothing where
  no scored point has a finite value other than the estimate's: every
  other point was rejected, or the profile is flat there (at the lower
  corner of the box, where every correlation is zero to double precision).
- An answer that Newton did not confirm may be a local maximum that the
  box holds: with sigma2 free, a corner of the box can be one, far below
  the optimum inside.  Where ``default_init``'s (beta, nu) scores higher
  than that answer, the three stages run again from there, with the
  restarts left of the fit's two, and their answer replaces it.  A fit from
  the default start never does this, since every stage keeps the best point
  it reached.

A fit that does not confirm is reported as not converged.  Trial points
whose R is not positive definite score -inf and are rejected; only failure
at the initial point is an error.  One check (``_checked_inputs``) raises
every input error and defaults the box and start: ``fit`` runs it before
anything is scored, and ``FitChain`` when it is built.

``FitChain`` starts every fit after its first one near its answer, from
the fitted q nearest to it.  That fit's result carries its last derivative
pass (``FitResult._pass``) where the pass was taken at its estimate, as it
is where Newton confirmed it.  The pass holds every replicate's gradient
and log density and the weighted Hessian sum, and q enters them only
through the replicate weights.  Re-weighted to the new q
(``_Pass.newton_step``, in theta itself: steps in log theta cost the
chains more passes), it gives one Newton step for the new fit without a
new pass: the corrector of
predictor-corrector continuation (Allgower & Georg, Numerical Continuation
Methods, 1990).  The step's (beta, nu), from the estimate, lands O(dq^2)
from the new estimate, dq the distance between the two q.  Where the
second nearest fitted q lies on the same side of the new q and its step
exists too, the two steps P_a (nearest, at distance da) and P_b (at db)
combine to (db^2 P_a - da^2 P_b) / (db^2 - da^2), which cancels that
leading term, and the combination is the start.  The nearest fit's step is
the start where the two straddle the new q, the second gives no step, or
the combination leaves the box.  The nearest estimate itself is the start
where that fit carries no pass at its estimate, the re-weighted Hessian is
not negative definite, or the step leaves the box.

The Newton step is invariant under the model's symmetries: the replicate
weights are normalized, so rescaling the data by c shifts every log density
by the same constant and leaves them unchanged, sigma2's derivatives scale
as powers of c that cancel in the step's (beta, nu) part, and the
weighted sums over replicates and the traces and quadratic forms over
locations do not depend on their order.  Restart decisions compare iterates and the Newton
checks compare two profile values, so both are order-only as well.

At fixed q < 1 the estimator is not consistent for the model's theta0 =
(sigma2, beta, nu).  Under the model f_theta^(1-q) f_theta0 is again a
zero-mean Gaussian density, so the population Lq estimating equation is
solved exactly at theta_q = (q sigma2, beta, nu): the scale shrinks by q,
the correlation parameters are unbiased, and the target's kappa is q kappa0.
The shrinkage trades bias for variance, so at small samples a q < 1 fit can
beat the MLE in mean squared error (Ferrari & Yang 2010, Ann. Statist.
38(2)).
"""

import math
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .gauss_lik import NotSPDError, _Workspace, _checked_q, _checked_rows
from .matern import NU_CAP, MaternParams

# Simplex diameter, in bound-scaled coordinates, at which Newton steps take
# over: of 1e-2, 3e-3 and 1e-3, fits that ran the simplex first took the
# fewest evaluations here (CHANGES.md).
_LOOSE_XATOL = 3e-3

# Newton steps per stage; chain fits along the q grids confirmed in 1 to 4.
_NEWTON_STEPS = 6

# Evaluation and iteration budget of each Nelder-Mead run.
_MAX_EVALS = 5000

# ``tol`` of fit and FitChain when none is given.
DEFAULT_TOL = 1e-6

# Share of a bound interval's width by which ``default_init`` moves a
# beta or nu that lies outside the box inside it.
_INIT_INSET = 0.1


@dataclass(frozen=True)
class Bounds:
    """Box constraints on (beta, nu): ``lower`` and ``upper`` are (beta, nu) pairs.

    Each bound is a (beta, nu) that MaternParams accepts, and lower < upper
    componentwise; else ValueError.  sigma2 has no bounds: it is solved on
    (0, inf) at each (beta, nu).
    """

    lower: tuple
    upper: tuple

    def __post_init__(self):
        for name in ("lower", "upper"):
            theta = MaternParams(1.0, *getattr(self, name))     # checks each entry
            object.__setattr__(self, name, (theta.beta, theta.nu))
        if not np.all(np.less(self.lower, self.upper)):
            raise ValueError("bounds require lower < upper componentwise")

    def as_arrays(self):
        return np.array(self.lower), np.array(self.upper)

    def contains(self, theta):
        lo, hi = self.as_arrays()
        t = theta.as_array()[1:]
        return bool(np.all(t >= lo) and np.all(t <= hi))


@dataclass(frozen=True)
class FitResult:
    """One maximization outcome.

    ``objective`` is V at theta_hat in a surrogate form: V itself at q = 1,
    and exp((1-q) (V + n)) = sum exp((l + n)(1-q)) below it, an increasing
    transform of the exact Lq objective that overflows to inf when the
    data's scale is small, even at a correct fit.  ``evaluations`` counts
    the distinct (beta, nu) points scored, the start and Newton points
    included; ``newton_steps`` the derivative passes the fit's workspace
    made (``gauss_lik._Workspace.passes``), each costing about two to five
    evaluations (a pass the ``ReplicateSet`` already held costs nothing and
    is not counted); and ``restarts`` the fallback simplex
    runs, 0 when Newton steps confirmed the estimate.  ``converged``
    requires a confirmation, a normal end of the last simplex run, if any,
    and a finite V at the estimate.
    ``_pass`` is the ``gauss_lik._Pass`` of the fit's last derivative
    pass where that pass was taken at the estimate, else None; a fit that
    Newton confirmed reports its estimate at that point, since a short step
    confirms its start without scoring its trial point, so the estimate's
    own score is the fit's last.  It is left out of equality and repr.
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
    _pass: object = field(default=None, repr=False, compare=False)


def _checked_q_grid(grid):
    """grid as a tuple of floats; it must start at 1 and decrease within (0, 1]."""
    g = np.asarray(grid, dtype=float)
    if g.size == 0 or g[0] != 1.0:
        raise ValueError("q grid must start at 1")
    # written so that a NaN entry, which fails every comparison, fails too
    if not (np.all((g > 0.0) & (g <= 1.0)) and np.all(np.diff(g) < 0.0)):
        raise ValueError("q grid must be strictly decreasing within (0, 1]")
    return tuple(float(v) for v in g)


def default_bounds():
    """beta in [1e-3, 10], nu in [0.05, NU_CAP]."""
    return Bounds((1e-3, 0.05), (10.0, NU_CAP))


def default_init(reps, bounds):
    """The replicates' mean square as sigma2, with the conventional (beta, nu) = (0.1, 0.5).

    The mean square is the zero-mean model's pooled variance; the fit does
    not use it, and it is positive unless every value is 0, where V has no
    maximum at any (beta, nu) and MaternParams raises ValueError.  A beta
    or nu outside the open interval between its bounds is moved
    ``_INIT_INSET`` of the interval's width inside the face it crossed: a
    start on or near a face gives the simplex a first simplex flat in that
    face.
    """
    return MaternParams(float(np.mean(np.square(reps.data))), *_default_x(bounds))


def _default_x(bounds):
    """``default_init``'s (beta, nu), an array."""
    lo, hi = bounds.as_arrays()
    x = np.array([0.1, 0.5])
    inset = _INIT_INSET * (hi - lo)
    x = np.where(x <= lo, lo + inset, x)
    return np.where(x >= hi, hi - inset, x)


def _checked_inputs(reps, locs, bounds, init, tol):
    """(bounds, init), each defaulted where None; ``fit``'s ValueErrors but q's."""
    if not 0.0 <= tol < np.inf:
        raise ValueError("tol must be finite and non-negative, got %r" % (tol,))
    _checked_rows(reps.n, locs.n)
    locs._dist_unique       # raises on a duplicate site
    if bounds is None:
        bounds = default_bounds()
    if init is None:
        return bounds, default_init(reps, bounds)
    if not bounds.contains(init):
        raise ValueError("init %r lies outside the bounds" % (init,))
    return bounds, init


class _Spent(Exception):
    """A Nelder-Mead run's evaluation budget is spent."""


def _nelder_mead(fun, x0, xatol, maxfev):
    """(x, g(x), iterations, evaluations, status) of Nelder-Mead maximizing fun on [0, 1]^2.

    With g = -fun, and inf where fun is not finite, this is scipy 1.17's
    ``minimize(g, x0, method="nelder-mead", bounds=[(0, 1)] * 2,
    options={"xatol": xatol, "fatol": inf, "maxfev": maxfev, "maxiter":
    maxfev})`` step for step (Nelder & Mead 1965, with scipy's clipping of
    every trial point into the box).  The first simplex moves each
    coordinate of x0, a point of the box, by 5% (to 0.00025 from 0),
    reflected off the upper bound.  A trial point is ``t`` of the way from
    the centroid of the better two vertices away from the worst: t = 1
    reflects, 2 expands, 1/2 and -1/2 contract outside and inside, to the
    bits of scipy's coefficients.  A spent budget ends the run where it
    stands, even mid-iteration.  Status 0 is a normal end, 1 a spent
    budget.  An iteration costs at least one evaluation, so an equal
    budget of iterations is never the one spent.
    """
    nfev = 0

    def g(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Spent
        nfev += 1
        val = fun(x)
        return -val if np.isfinite(val) else np.inf

    def trial(t):
        x = np.clip((1 + t) * xbar - t * sim[-1], 0.0, 1.0)
        return x, g(x)

    sim = np.array([x0, x0, x0], dtype=float)
    for k in range(2):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    sim = np.clip(np.where(sim > 1.0, 2.0 - sim, sim), 0.0, 1.0)
    fsim = np.full(3, np.inf)
    with suppress(_Spent):
        for k in range(3):
            fsim[k] = g(sim[k])
    for _ in range(2):      # as scipy sorts here: an argsort need not keep ties in order
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    nit = 1
    while nfev < maxfev:
        # scipy's value-spread test, at fatol = inf, fails only where every
        # value is inf (inf - inf is NaN)
        if np.max(np.abs(sim[1:] - sim[0])) <= xatol and fsim[0] < np.inf:
            break
        with suppress(_Spent):
            xbar = (sim[0] + sim[1]) / 2
            xr, fxr = trial(1)
            if fxr < fsim[0]:
                xe, fxe = trial(2)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                outside = fxr < fsim[-1]
                xc, fxc = trial(0.5 if outside else -0.5)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:       # shrink toward the best vertex
                    for j in (1, 2):
                        sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), 0.0, 1.0)
                        fsim[j] = g(sim[j])
            nit += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    status = 1 if nfev >= maxfev else 0
    return sim[0], float(fsim.min()), nit, nfev, status


class _Search:
    """One fit's scored points and counters, in bound-scaled u = (beta, nu).

    The search keeps one workspace (``gauss_lik._Workspace``) over the
    fit's data, sites and q for its whole run; it scores every point and
    takes every pass there, and counts the passes made, which the fit
    reports as ``newton_steps``.  The workspace dies when the fit returns.
    """

    def __init__(self, reps, locs, q, bounds, tol):
        lo, hi = bounds.as_arrays()
        self.corner, self.width, self.tol = lo, hi - lo, tol
        # u.tobytes() -> (sigma2, profile value); the answer's sigma2 and
        # value are read back from here
        self.scored = {}
        self.iterations = 0
        self.simplex_ok = True      # the last simplex run ended normally
        # the gauss_lik._Pass of the last derivative pass
        self.last_pass = None
        self.ws = _Workspace(reps, locs, q)

    def score(self, u, terms=False):
        """Score u into ``scored`` as (sigma2, V); with ``terms``, a pass at u comes next.

        ``terms`` has the score make the pass's kernel terms in the same
        walk, and the workspace keep R's factor and the whitened data for
        that pass (``gauss_lik._Workspace.score``).
        """
        self.scored[u.tobytes()] = self.ws.score(*(self.corner + u * self.width), terms)

    def value(self, u, terms=False):
        key = u.tobytes()
        if key not in self.scored:
            try:
                self.score(u, terms)
            except NotSPDError:
                self.scored[key] = (float("nan"), -np.inf)
        return self.scored[key][1]

    def simplex(self, u, xatol):
        """A Nelder-Mead run from u to simplex diameter ``xatol``; its answer.

        The run is the package's own ``_nelder_mead``, scipy's bounded
        Nelder-Mead step for step, on a budget of ``_MAX_EVALS`` evaluations;
        ``simplex_ok`` records whether it ended normally at a
        finite V.  The run keeps no factor of R and makes no kernel terms, so
        a pass at its answer factors R again, with the terms
        (``gauss_lik._Workspace.derivs``).
        """
        x, fun, nit, _nfev, status = _nelder_mead(self.value, u, xatol, _MAX_EVALS)
        self.iterations += nit
        self.simplex_ok = status == 0 and fun < np.inf
        return x

    def newton_step(self, u):
        """The move delta in u of one Newton step from a scored u; None where there is none.

        The step is the pass's (``gauss_lik._Pass.newton_step``) at the
        search's q, in log(sigma2, beta, nu) where V is concave there and
        otherwise in (sigma2, beta, nu), its (beta, nu) move scaled by the
        box's widths.
        """
        sigma2 = self.scored[u.tobytes()][0]
        try:
            p = self.ws.derivs(MaternParams(sigma2, *(self.corner + u * self.width)))
        except NotSPDError:
            p = None
        self.last_pass = p
        step = None if p is None else p.newton_step(self.ws.q, log=True)
        return None if step is None else step[1:] / self.width

    def newton(self, u, steps):
        """(best u, confirmed) of up to ``steps`` Newton steps from a scored u.

        A step is taken where it is not short and its point scores no lower;
        a short step confirms u unscored.  The module docstring gives the
        reasons.
        """
        val = self.value(u)
        if not math.isfinite(val):
            return u, False
        for k in range(steps):
            delta = self.newton_step(u)
            if delta is None:
                break
            u_new = u + delta
            # written so that a NaN entry, which fails every comparison, fails too
            if not (np.minimum.reduce(u_new) >= 0.0 and np.maximum.reduce(u_new) <= 1.0):
                break
            if np.maximum.reduce(np.abs(delta)) <= self.tol:
                return u, True
            if k == steps - 1:
                break
            val_new = self.value(u_new, terms=True)
            if val_new < val:
                break
            u, val = u_new, val_new
        return u, False


def fit(reps, locs, q, bounds=None, init=None, tol=DEFAULT_TOL):
    """FitResult of the Lq-likelihood's maximum at q in a box (see the module docstring).

    Parameters
    ----------
    reps, locs : ReplicateSet, LocationSet
        Data.
    q : float
        Distortion parameter in (0, 1]; q = 1 is the MLE.  Below 1 the
        target under the model is theta_q = (q sigma2, beta, nu).
    bounds : Bounds, optional
        The (beta, nu) box; defaults to default_bounds().  sigma2 is solved
        on (0, inf).
    init : MaternParams, optional
        Its (beta, nu) must lie within bounds; defaults to
        default_init(reps, bounds).  Its (beta, nu) is scored first and
        Newton steps start there; its sigma2 is recorded and not used.  An
        answer from it that Newton did not confirm is checked against the
        default start's (see the module docstring).
    tol : float
        Simplex-diameter threshold in bound-scaled coordinates, and the
        largest Newton step or restart move that confirms a point.

    Raises ValueError for a q outside (0, 1], a NaN, infinite or negative
    tol, data whose rows do not match ``locs``, sites with a duplicate, or
    an init outside the bounds, all before anything is scored, NotSPDError
    where R at init cannot be factored, ValueError where V has no maximum
    in sigma2 (at q < 1, a replicate that is 0 at every site), and
    RuntimeError where a scored point's sigma2 solve does not converge
    (``gauss_lik.profile_sigma2``).
    """
    _checked_q(q)
    bounds, init = _checked_inputs(reps, locs, bounds, init, tol)
    search = _Search(reps, locs, q, bounds, tol)
    u = (init.as_array()[1:] - search.corner) / search.width
    # a hard failure at the starting point is an error, not a rejection
    search.score(u, terms=True)
    home = (_default_x(bounds) - search.corner) / search.width
    restarts = 0
    for _climb in range(2):
        u, confirmed = search.newton(u, _NEWTON_STEPS)
        # where Newton at the start does not confirm: the loose simplex and
        # Newton to tol, then the tight simplex and one confirming step; a
        # simplex run that ends abnormally goes to restarts
        for xatol, steps in ((max(tol, _LOOSE_XATOL), _NEWTON_STEPS), (tol, 1)):
            if confirmed:
                break
            u = search.simplex(u, xatol)
            if not search.simplex_ok:
                break
            u, confirmed = search.newton(u, steps)
        by_newton = confirmed

        # the fallback: restarts from the search's own answer, two in a fit
        while not confirmed and restarts < 2:
            start = u
            u = search.simplex(start, tol)
            restarts += 1
            confirmed = float(np.max(np.abs(u - start))) <= tol
        # an answer Newton did not confirm may be a local maximum that the
        # box holds: where the default start scores higher, climb from there
        if by_newton or not search.value(home) > search.value(u):
            break
        u, search.simplex_ok = home, True

    search.value(u)
    sigma2, value = search.scored[u.tobytes()]
    theta_hat = MaternParams(sigma2, *(search.corner + u * search.width))
    p = search.last_pass
    kept = p if p is not None and p.theta == theta_hat else None
    with np.errstate(over="ignore"):
        objective = value if q == 1.0 else np.exp((1.0 - q) * (value + reps.n))
    # a restart that cannot move confirms nothing
    moved = any(np.isfinite(v) and v != value for _s2, v in search.scored.values())
    converged = bool(confirmed and (by_newton or moved)
                     and search.simplex_ok and np.isfinite(value))
    return FitResult(theta_hat=theta_hat, objective=float(objective), q=float(q),
                     iterations=search.iterations, evaluations=len(search.scored),
                     converged=converged, init=init, restarts=restarts,
                     newton_steps=search.ws.passes, _pass=kept)


class FitChain:
    """Fits of one dataset along q, cached per q, each started from the fits before it.

    ``chain.fit(q)`` returns the FitResult at q, fitted on the first request
    only (key round(q, 12)); ``chain(q)`` returns its theta_hat, as the q
    selectors' ``fit_fn``.  The first fit starts at ``init`` and every later
    one from the re-weighted Newton steps of the nearest fitted q (see the
    module docstring).  The chain keeps O(m)
    numbers per q, and does not cache a fit that raises.  Building a chain
    raises ``fit``'s ValueErrors for tol, rows, sites and init.  Per q, a q
    outside (0, 1] raises ValueError before a kept pass is re-weighted at
    it; else a fit raises only its NotSPDError or RuntimeError, or its
    ValueError where V has no maximum in sigma2.
    """

    def __init__(self, reps, locs, bounds=None, init=None, tol=DEFAULT_TOL):
        self._bounds, self._init = _checked_inputs(reps, locs, bounds, init, tol)
        self._reps, self._locs, self._tol = reps, locs, tol
        self._fits = {}

    def _nearest(self, q):
        """The fitted keys, nearest to q first, and the nearest one's estimate, or init."""
        keys = sorted(self._fits, key=lambda k: abs(k - q))
        return keys, self._fits[keys[0]].theta_hat if keys else self._init

    def _stepped(self, key, q):
        """(beta, nu) of the fit at key moved by its pass's Newton step re-weighted to q; or None."""
        p = self._fits[key]._pass
        step = None if p is None else p.newton_step(q)
        return None if step is None else p.theta.as_array()[1:] + step[1:]

    def _start(self, q):
        """The init of a new fit at q (see the module docstring)."""
        keys, theta = self._nearest(q)
        if not keys:
            return theta
        points = [self._stepped(keys[0], q)]
        if len(keys) > 1 and (keys[0] - q) * (keys[1] - q) > 0 and points[0] is not None:
            far = self._stepped(keys[1], q)
            if far is not None:
                # each step's error is O(dq^2): this combination cancels its leading term
                da2, db2 = (keys[0] - q) ** 2, (keys[1] - q) ** 2
                points.insert(0, (db2 * points[0] - da2 * far) / (db2 - da2))
        lo, hi = self._bounds.as_arrays()
        for point in points:
            if point is not None and np.all((point >= lo) & (point <= hi)):
                return MaternParams(theta.sigma2, *point)
        return theta

    def fit(self, q):
        q = float(q)
        _checked_q(q)       # before the kept passes are re-weighted at q
        key = round(q, 12)
        if key not in self._fits:
            self._fits[key] = fit(self._reps, self._locs, q, self._bounds, self._start(q),
                                  self._tol)
        return self._fits[key]

    def __call__(self, q):
        return self.fit(q).theta_hat

    def profile(self, grid):
        """The fits along a descending grid starting at 1, a tuple in grid order.

        A q value whose fit fails outright (``fit``'s NotSPDError or
        RuntimeError) is recorded as a non-converged placeholder (objective
        NaN) at the nearest fitted estimate (init if there is none), and the
        chain continues without it.  A grid that does not start at 1 or fall
        strictly within (0, 1] raises ValueError before any fit.
        """
        grid = _checked_q_grid(grid)
        fits = []
        for q in grid:
            try:
                fits.append(self.fit(q))
            except (np.linalg.LinAlgError, RuntimeError):
                theta = self._nearest(q)[1]
                fits.append(FitResult(theta_hat=theta, objective=float("nan"),
                                      q=q, iterations=0, evaluations=0,
                                      converged=False, init=theta))
        return tuple(fits)
