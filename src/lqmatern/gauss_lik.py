"""Gaussian log-likelihoods and the Lq objective, from Cholesky factors.

The zero-mean Gaussian log density of one replicate z is

    l(z; theta) = -(1/2) [n log(2 pi) + z' Sigma^-1 z + log|Sigma|],

with the quadratic form ||y||^2 from one triangular solve L y = z on
Sigma = L L', and log|Sigma| twice the log-sum of diag(L).

The factor is LAPACK's potrf and the solve its trtrs, called directly as
``scipy.linalg.cholesky`` and ``solve_triangular`` call them, so they give
the same bits.  At n = 100 the wrappers' generic checks and dispatch were
about a sixth of a fit's time; the checks that matter stay here: potrf's
info (a failed factor goes to the jitter rescue, an illegal argument
raises) and the data's row count, which trtrs does not check.

The Lq objective is sum_i L_q(f_i), with L_q(f) = log f at q = 1 and
(f^(1-q) - 1) / (1-q) below it.  f^(1-q) = e^((1-q) l) underflows at large
n, where l is of order -n, so the package works with the log-domain value

    V = sum l_i  (q = 1),    V = logsumexp((1-q) l) / (1-q)  (q < 1),

a strictly increasing transform of the objective, and with the replicate
weights w = softmax((1-q) l) (w = 1 at q = 1).  Both come from one helper,
``_lq_weights``, for the fit, the sigma2 solve and the sandwich.

Profiling sigma2.  Sigma = sigma2 R(beta, nu), so one factor of the
correlation matrix R gives quad_i = z_i' R^-1 z_i and log|R|, and with them
every log density at any sigma2:

    l_i(sigma2) = -(1/2) [n log(2 pi) + log|R| + n log sigma2 + quad_i / sigma2].

Every (beta, nu) is scored one way: ``_corr_factor`` builds R as
``build_cov`` does, into a buffer it reuses, and factors it there; then
``_profile_factor`` solves for sigma2 on that factor in O(m)
(``profile_sigma2``) and returns V there.  ``profile_lq`` runs the two in
turn; the fit runs them itself.

The last factor.  A derivative pass (``asymptotics._weighted_derivs``)
often follows a score at the same (beta, nu): at the fit's Newton points,
and in a sandwich called in the same thread, on the same location set,
right after a fit that scored its estimate last.  So ``_corr_factor``
leaves each factor it makes in a one-entry memo, keyed by the location set
itself (compared by identity), (beta, nu) and the m of the pass whose
kernel terms its score made (0 where it made none), with the workspace the
factor lives in.  ``_take_factor``, the pass's only source of a factor,
takes both from there where the key matches, and with them the pass's
terms; else it scores the point again, making the terms (in the fit's own
workspace where a fit's pass misses).  So a pass at a point scored
without terms (a simplex's answer) factors R once more, and a score is
the only place the kernel is evaluated.  Taking removes the entry,
because the pass overwrites the factor with Sigma^-1; every other caller
only reads it.  A new factor, or a miss, drops the entry's factor before
R is built, so the memo adds nothing to any call's peak.  Taken or made
afresh, the factor is the same bits, and so are the terms.

The workspace (``_Workspace``) holds two buffers: "R", the n x n buffer R
is built and factored in (the interpolation's work while a score walks
the Chebyshev panels, before R is gathered there), and "pass", the
derivative pass's, laid out by ``_pass_buffer`` for the pass's m.  A
score puts the kernel's values at the unique distances in "pass".  A
score where a pass over m replicates comes next (``_corr_factor``'s
``pass_m``) lays "pass" out for that pass and makes its five kernel terms
from the Bessel values that make R's (in the same walk over the Chebyshev
panels), into their place there; the pass then reads them and makes no
Bessel call.  The memo entry is the only record of them: every writer of
"pass", a score or a pass, drops the entry before it writes.  A fit's
search owns one workspace for its whole run (``estimate._Search``), so
its scores and passes reuse the same memory instead of allocating it and
faulting it in again each time.  The entry
carries the workspace, and with it the terms, on: a later fit on the same
sites in the thread inherits it (a ``FitChain``'s next fit), and a pass
that takes the entry takes it too (a sandwich right after the fit, which
so makes no Bessel call).  It is freed when that pass returns, when the
thread factors other sites, or when the sites die.  A buffer is reused
only while nothing outside the workspace references it, so a factor a
caller keeps is never overwritten.  The memo is per thread
(``threading.local``): a factor or a workspace made in one thread is
never used in another.  It holds its location set by a weak
reference, and the entry's factor and workspace die with the set, so each
thread keeps at most one of each alive (5.5 n^2 doubles at most on
irregular sites with m < n), and only while its sites are in use
elsewhere.
"""

import sys
import threading
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .matern import MaternParams, _cov_into

_LOG_2PI = np.log(2.0 * np.pi)

# Jitter of the one-shot Cholesky rescue, relative to the largest diagonal entry.
JITTER_REL = 1e-10

# Stopping rule of profile_sigma2: the relative step that ends the solve, and
# a step cap far above the 3 to 5 steps it takes on chi-square forms.
SIGMA2_RTOL = 1e-13
SIGMA2_MAX_STEPS = 1000

# Relative rounding of a log-domain value V: a step whose predicted rise is at
# most V_ROUNDING times the size of V's terms cannot be told from its start by
# scoring, and is taken on the prediction alone.
V_ROUNDING = 8.0 * np.finfo(float).eps


class NotSPDError(np.linalg.LinAlgError):
    """A covariance failed Cholesky factorization even after jitter.

    ``theta`` holds the offending parameter point where the raiser knows it.
    """

    def __init__(self, msg, theta=None):
        super().__init__(msg)
        self.theta = theta


@dataclass(frozen=True)
class ReplicateSet:
    """n x m data matrix; column i is replicate Z_i observed at n locations."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        if d.ndim != 2:
            raise ValueError("data must be a 2-d array (n locations x m replicates)")
        if d.shape[1] < 1:
            raise ValueError("need at least one replicate")
        if not np.all(np.isfinite(d)):
            raise ValueError("data must be finite")
        object.__setattr__(self, "data", d)

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def m(self):
        return self.data.shape[1]


@dataclass(frozen=True)
class CholFactor:
    """Lower Cholesky factor of a covariance with its log determinant."""

    L: np.ndarray
    log_det: float
    jittered: bool = False


def chol_factor(cov):
    """CholFactor of an SPD covariance, with a one-shot jitter rescue.

    On failure JITTER_REL times the largest diagonal entry (sigma2 on every
    covariance the package builds) is added to the diagonal once, and
    ``jittered`` is set.  A second failure, or a non-finite log determinant,
    raises NotSPDError; a NaN or inf entry ends in one of the two, since
    LAPACK is called without a finiteness scan.  A covariance that is not
    a square matrix raises ValueError.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be a square matrix, got shape %r" % (cov.shape,))
    a = np.array(cov, order="F")
    return _factor_in_place(a, lambda: np.copyto(a, cov))


def _factor_in_place(a, refill):
    """``chol_factor`` of the matrix in ``a`` (n x n, Fortran-ordered), factored in a's memory.

    LAPACK's potrf, as ``scipy.linalg.cholesky(a, lower=True)`` calls it:
    the same bits, the upper triangle zeroed.  A failed attempt (info > 0)
    leaves a overwritten, so the rescue calls ``refill()`` to write the
    matrix into a again, then adds the jitter to its diagonal: the same
    bits as adding JITTER_REL max(diag) I to the matrix.  An illegal
    argument (info < 0) raises ValueError.
    """
    L, info = dpotrf(a, lower=1, clean=1, overwrite_a=1)
    jittered = info > 0
    if jittered:
        refill()
        a[np.diag_indices_from(a)] += JITTER_REL * a.diagonal().max()
        L, info = dpotrf(a, lower=1, clean=1, overwrite_a=1)
        if info > 0:
            raise NotSPDError("covariance is not positive definite (jitter rescue failed)")
    if info < 0:
        raise ValueError("illegal value in argument %d of LAPACK potrf" % -info)
    log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
    if not np.isfinite(log_det):
        raise NotSPDError("covariance has a non-finite log determinant (%r)" % log_det)
    return CholFactor(L=L, log_det=log_det, jittered=jittered)


def _checked_rows(rows, n):
    """Raise ValueError where data with ``rows`` rows do not match n locations."""
    if rows != n:
        raise ValueError("data dimension %d does not match %d locations" % (rows, n))


def _quad_forms(data, chol):
    """z' Sigma^-1 z for every column z of data (n x m), from Sigma's factor ``chol``.

    One forward substitution L y = z, by LAPACK's trtrs, which checks no
    shape (it reads the first n rows of longer data, and prints an error
    and solves nothing on shorter): data with other than n rows, the
    factor's size, raise ValueError here.
    """
    _checked_rows(data.shape[0], chol.L.shape[0])
    Y, info = dtrtrs(chol.L, data, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("triangular solve failed (LAPACK trtrs info %d)" % info)
    return np.einsum("ij,ij->j", Y, Y)


def _lq_weights(lvec, q):
    """(V, w): the log-domain value and the weights of log densities ``lvec`` at q.

    See the module docstring for both.  Nothing overflows or underflows at
    any scale of the l_i, and shifting every l_i by one constant leaves w
    unchanged.
    """
    if q == 1.0:
        return float(np.sum(lvec)), np.ones(len(lvec))
    w = (1.0 - q) * lvec
    top = float(w.max())
    w -= top
    np.exp(w, out=w)
    total = float(w.sum())
    w /= total
    return (top + float(np.log(total))) / (1.0 - q), w


def _checked_q(q):
    """Raise ValueError for a q outside (0, 1]."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1], got %r" % (q,))


def profile_sigma2(quad, n, q, lower, upper):
    """The sigma2 in [lower, upper] that maximizes V, from the forms quad_i = z_i' R^-1 z_i.

    At q = 1 it is mean(quad) / n, clipped.  Below 1, Newton steps in
    x = log sigma2 start at median(quad) / n, clipped; the median is read
    from one ``np.partition`` of the forms, the same bits as ``np.median``
    (the middle form, or the mean of the two middle ones).  With a_i =
    quad_i / sigma2,

        dV/dx   = (sum w_i a_i - n) / 2
        d2V/dx2 = -sum w_i a_i / 2 + (1-q) Var_w(a) / 4.

    The fixed point sigma2 <- sum w_i quad_i / n, clipped, maximizes a
    concave Jensen minorant of V in x, so it never lowers V.  It replaces
    the Newton step wherever V is not concave, the Newton point leaves the
    bounds, or it scores lower by more than V's rounding (V_ROUNDING of
    |V|).  So V does not decrease along the steps, up to rounding.  The
    solve stops at the first step that moves sigma2 by at most SIGMA2_RTOL
    relative; where SIGMA2_MAX_STEPS larger steps do not lead to one, it
    raises RuntimeError.
    """
    quad = np.asarray(quad, dtype=float)
    if q == 1.0:
        return min(max(float(np.mean(quad)) / n, lower), upper)

    def weights(s2):
        return _lq_weights(-0.5 * (n * np.log(s2) + quad / s2), q)

    m = quad.size
    mid = np.partition(quad, ((m - 1) // 2, m // 2))
    median = mid[m // 2] if m % 2 else (mid[m // 2 - 1] + mid[m // 2]) / 2
    sigma2 = min(max(float(median) / n, lower), upper)
    value, w = weights(sigma2)
    # SIGMA2_MAX_STEPS steps, and a last look for the step that ends the solve
    for _ in range(SIGMA2_MAX_STEPS + 1):
        a = quad / sigma2
        wa = float(w @ a)
        curv = -0.5 * wa + 0.25 * (1.0 - q) * (float(w @ (a * a)) - wa * wa)
        step = None
        if curv < 0.0:
            slope = 0.5 * (wa - n)
            newton = sigma2 * np.exp(-slope / curv)
            if lower <= newton <= upper:
                if abs(newton - sigma2) <= SIGMA2_RTOL * newton:
                    return newton
                trial = weights(newton)
                # a predicted rise below V's rounding cannot be scored
                tie = -0.5 * slope * slope / curv <= V_ROUNDING * abs(value)
                if trial[0] >= value or tie:
                    step = newton
        if step is None:
            step = min(max(sigma2 * wa / n, lower), upper)
            if abs(step - sigma2) <= SIGMA2_RTOL * step:
                return step
            trial = weights(step)
        sigma2, (value, w) = step, trial
    raise RuntimeError("the sigma2 solve did not converge in %d steps at q = %r"
                       % (SIGMA2_MAX_STEPS, q))


def _profile_factor(reps, chol, q, sigma2_lower, sigma2_upper):
    """(sigma2, V) on the Cholesky factor ``chol`` of R, sigma2 within its bounds.

    ``chol`` is left unchanged.
    """
    n = reps.n
    quad = _quad_forms(reps.data, chol)
    sigma2 = profile_sigma2(quad, n, q, sigma2_lower, sigma2_upper)
    lvec = -0.5 * (n * (_LOG_2PI + np.log(sigma2)) + chol.log_det + quad / sigma2)
    return sigma2, _lq_weights(lvec, q)[0]


def _refs(bufs, name):
    # the reference count of bufs[name], as _Workspace.take reads it
    buf = bufs[name]
    return sys.getrefcount(buf)


# ``_refs`` of a buffer that nothing but its dict references
_ALONE = _refs({"probe": np.empty(1)}, "probe")


class _Workspace:
    """Flat float buffers, kept by name and handed out again (see the module docstring).

    A buffer is handed out again only where nothing outside the workspace
    references it, itself or through a view, by its reference count, as
    ``ndarray.resize(refcheck=True)`` checks; otherwise a new one takes its
    place.
    """

    def __init__(self):
        self._bufs = {}

    def take(self, name, size):
        """The flat buffer kept under ``name``, at least ``size`` doubles long, uninitialised."""
        bufs = self._bufs
        if name not in bufs or bufs[name].size < size or _refs(bufs, name) > _ALONE:
            bufs[name] = None               # the old buffer goes before a new one comes
            bufs[name] = np.empty(size)
        return bufs[name]


def _pass_buffer(ws, n, u, m):
    """(slots, grad, hess): the workspace's "pass" buffer laid out for a pass over m replicates.

    ``slots`` are flat views: three slots of max(n^2, 2u) doubles, then,
    where m >= n, three n^2 slots more, which ``asymptotics`` fills; the
    Hessian terms ``hess`` (3, u) lie past the first three, and the
    gradient terms ``grad`` (2, u) open slot 0.
    """
    size, wide = max(n * n, 2 * u), 3 if m >= n else 0
    at = 3 * size + 3 * u
    buf = ws.take("pass", at + wide * n * n)
    slots = [buf[i * size:(i + 1) * size] for i in range(3)]
    slots += [buf[at + i * n * n:at + (i + 1) * n * n] for i in range(wide)]
    return slots, buf[:2 * u].reshape(2, u), buf[3 * size:at].reshape(3, u)


# The last factor of R made in this thread, as (weak reference to locs, beta,
# nu, [CholFactor, _Workspace], the m of the pass whose terms its score made
# or 0) in ``entry``, or None; the list empties when locs dies (see the
# module docstring).
_last_factor = threading.local()


def _workspace(locs):
    """The workspace of this thread's memo entry where it was made over ``locs``, else a new one."""
    entry = getattr(_last_factor, "entry", None)
    if entry is not None and entry[0]() is locs:
        return entry[3][1]
    return _Workspace()


def _corr_factor(locs, beta, nu, ws=None, pass_m=0):
    """CholFactor of the correlation matrix R(beta, nu), left in the memo for a pass.

    R is built and factored in the buffer "R" of ``ws``, by default
    ``_workspace(locs)``.  Where ``pass_m`` is a derivative pass's m, the
    Bessel values that make R's also make that pass's five derivative terms
    at (beta, nu), into their place in the "pass" buffer laid out for
    it, and the memo entry records pass_m.  The caller reads the factor
    before the next pass in this thread, which may take it, and does not
    write to it.  Raises NotSPDError carrying MaternParams(1, beta, nu) if
    R cannot be factored, and leaves the memo empty then.
    """
    if ws is None:
        ws = _workspace(locs)
    _last_factor.entry = None       # the last factor goes before a new one comes
    corr = MaternParams(1.0, beta, nu)
    n = locs.n
    u = locs._dist_unique[0].size
    a = ws.take("R", n * n)[:n * n].reshape((n, n), order="F")
    # the kernel's values go into the pass's buffer, which no pass uses
    # while a score runs, in slot 2 where the terms are made
    if pass_m:
        slots, *made = _pass_buffer(ws, n, u, pass_m)
        vals = slots[2][:u]
    else:
        vals, made = ws.take("pass", u)[:u], None
    _cov_into(locs, corr, a, vals, made)
    try:
        chol = _factor_in_place(a, lambda: _cov_into(locs, corr, a, vals))
    except NotSPDError as err:
        err.theta = corr
        raise
    held = [chol, ws]   # the callback holds the list, not the entry: no cycle
    _last_factor.entry = (weakref.ref(locs, lambda _, held=held: held.clear()),
                          beta, nu, held, pass_m)
    return chol


def _take_factor(locs, beta, nu, ws, pass_m):
    """(CholFactor of R(beta, nu), its workspace), the factor for a pass over pass_m replicates.

    The memo's where its score was made over ``locs`` at (beta, nu) with
    ``pass_m`` in this thread, so the pass's terms lie in the workspace,
    else ``_corr_factor``'s in ``ws`` with ``pass_m``, with its
    NotSPDError.  The caller overwrites the factor; the memo is left empty.
    """
    entry = getattr(_last_factor, "entry", None)
    hit = (entry is not None and entry[0]() is locs
           and (entry[1], entry[2], entry[4]) == (beta, nu, pass_m))
    del entry       # a factor referenced here would have R built in a new buffer
    if not hit:
        _corr_factor(locs, beta, nu, ws, pass_m)
    held = _last_factor.entry[3]
    _last_factor.entry = None
    return tuple(held)


def profile_lq(reps, locs, beta, nu, q, sigma2_lower, sigma2_upper):
    """(sigma2, V) at (beta, nu), with sigma2 in [sigma2_lower, sigma2_upper].

    Raises ValueError for a q outside (0, 1], sigma2 bounds other than
    0 < sigma2_lower <= sigma2_upper < inf, or data whose rows do not match
    ``locs``, before R is built, and NotSPDError carrying MaternParams(1,
    beta, nu) if R cannot be factored.
    """
    _checked_q(q)
    # written so that a NaN bound, which fails every comparison, fails too
    if not 0.0 < sigma2_lower <= sigma2_upper < np.inf:
        raise ValueError("sigma2 bounds must satisfy 0 < lower <= upper < inf, got (%r, %r)"
                         % (sigma2_lower, sigma2_upper))
    _checked_rows(reps.n, locs.n)
    return _profile_factor(reps, _corr_factor(locs, beta, nu), q,
                           sigma2_lower, sigma2_upper)
