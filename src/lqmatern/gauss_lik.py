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

Every (beta, nu) is scored one way, by ``_Workspace.score``: it builds R
as ``build_cov`` does, into a buffer it reuses, factors it there, solves
for sigma2 on that factor in O(m) (``profile_sigma2``) and returns V
there.  sigma2 is solved on (0, inf), with no bounds, so the data times c give
sigma2 times c^2 and V shifted by a constant at every (beta, nu).

The derivative pass.  One pass serves the sandwich, U*, the fit's Newton
steps and ``FitChain``'s starts: ``_Workspace.derivs`` returns it as a
``_Pass`` of O(m) numbers, every replicate's gradient g_i (g and H as the
``asymptotics`` docstring writes them), the weights, the log scale s
and S = sum w_i H_i, and forms no replicate's Hessian.  The Hessian
of V (``_Pass.hessian``) is S plus the centred (1-q) sum w_i (g_i -
gbar)(g_i - gbar)', gbar = sum w_i g_i.  The pass works in the frame of
R's factor L, R = L L', where Sigma = sigma2 R (Rasmussen & Williams
2006, GPML 5.4.1):

- L is inverted in place by halves (``_invert_lower``): with L = [[A, 0],
  [C, D]], L^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]], the off-diagonal
  block by a product and a triangular solve, so it runs at the speed of
  a matrix product (Elmroth, Gustavson, Jonsson & Kagstrom 2004).
- The replicates are whitened, Y = L^-1 Z, by the score's own forward
  solve, which the workspace hands over with the factor.
- The kernel's five derivative terms at (beta, nu), per unit variance, at
  the unique distances are made by the score of the point (below).  Only
  the two dR_j are gathered over the sites, both in one gather, and each
  is overwritten with C_j = L^-1 dR_j L^-T by two triangular products in
  place; the C_j Y are one (2, n, m) array, so y' C_j y is one einsum over
  both j, and so are the weighted cross sums below.
- With dS_j = sigma2 dR_j and w = Sigma^-1 z, every first-derivative and
  cross term is then an inner product: z' Sigma^-1 z = ||y||^2 / sigma2,
  w' dS_j w = y' C_j y / sigma2, tr(Sigma^-1 dS_j) = tr C_j,
  tr(Sigma^-1 dS_j Sigma^-1 dS_k) = <C_j, C_k>, and (dS_j w)' Sigma^-1
  (dS_k w) = (C_j y)'(C_k y) / sigma2.  The same holds at every m.
- The second derivatives enter only through <d2R_jk, P - w_sum R^-1> with
  P = X diag(w / sigma2) X', X = R^-1 Z = L^-T Y and w_sum = sum w_i, so
  that matrix is summed onto the unique distances once, and each (beta,
  nu) entry is then a dot product over them.  R^-1 = L^-T L^-1 is
  LAPACK's lauum on L^-1, in its place; it fills the lower triangle only,
  which is taken twice, so each pair of sites off the diagonal counts once.
- The sigma2 row is analytic, since dS_0 = R and d2S_0k = dR_k, so sigma2
  enters only O(m) numbers and scalars.

The Newton step.  ``_Pass.newton_step`` solves with the 3 x 3 Hessian on
Python floats, not NumPy arrays, whose per-call cost would outweigh the
few dozen flops.  A Cholesky factor of -H (``_solve_spd3``) exists where
H is negative definite (up to rounding), so one factor decides whether
the step is taken and solves for it.

The workspace.  A ``_Workspace`` is bound to one (data, sites, q), which
it checks once when it is made, and scores and takes passes over them
with its two methods, ``score`` and ``derivs``.  A fit's search owns one
for its whole run, so its scores and passes reuse the same memory instead
of allocating it and faulting it in again each time; it dies when the
fit returns.  The sandwich makes one of its own for its one pass.

The hand-off.  A pass follows a score at the same (beta, nu) at the fit's
start and Newton points, and such a score makes the pass's kernel
terms (``terms``): from the Bessel values that make R's, in the same walk
over the Chebyshev panels, into their place in the workspace.  The
workspace records that score's factor of R and the whitened Y
(``_Workspace.held``) until R is written again, and a pass at the same
(beta, nu) takes them from there; any other pass factors R itself, with
the terms, and whitens the data, with no sigma2 solve, so the
factorization of R (``_Workspace._factor``) is the only place the kernel
is evaluated.  Taken or made afresh, the factor, Y and the terms are the
same bits.

The memo.  A fit that Newton confirmed reports its estimate at the point of
its last pass, so a sandwich right after it asks for that pass again.
``_Workspace.derivs`` keeps the last pass over a ``ReplicateSet`` on the
set itself, as (sites, ``_Pass``), O(m) numbers, and returns it where the
sites are the same object and theta and q are equal.  A ``ReplicateSet``
keeps a read-only copy of its data, so the same set holds the same data.
The entry holds no array with an axis of length n, and nothing in it
refers back to the set or to a workspace, so it dies with the set, and a
workspace dies with its caller.  An entry is an immutable tuple, replaced
in one store, and a hit needs the same sites and data, so
a hit returns the pass of those inputs whichever thread made it; two
threads on one set can cost each other a pass, never a wrong number.

The workspace's buffers.  It keeps flat buffers by name, and hands one
out again at each request, so a factor of R lives only until the next
score or pass in the same workspace.  With u unique distances (so
max(n^2, 2u) = n^2 for n > 1):

- "R" (n^2): R is built and factored there (the interpolation works there
  while a score walks the Chebyshev panels, before R is gathered), and the
  pass overwrites the factor with L^-1, then R^-1.
- "pass" (``_Workspace._pass_buffer``): three slots of max(n^2, 2u)
  doubles that hold one array after another, then the three Hessian
  terms (3, u).  Every score and pass lays the whole buffer out.  A score
  puts the kernel's values at the unique distances in slot 2, and, where
  it makes the terms, the gradient terms (2, u) at the start of slot 0
  and the Hessian terms past the slots.  In the pass slot 2 is the work
  of L's inverse, then C_1; slot 1 holds C_0, then P - w_sum R^-1; and
  slot 0, once the two dR_j are gathered, the sums of that matrix onto the
  unique distances (u).

So a fit's workspace and factor hold 4 n^2 + 3u doubles, 5.5 n^2 on
irregular sites, at every m; only Y (n x m) and the C_j Y (2, n, m) are
allocated per pass.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dtrmm, dtrsm
from scipy.linalg.lapack import dlauum, dpotrf, dtrtri, dtrtrs

from .matern import MaternParams, _cov_into

_LOG_2PI = np.log(2.0 * np.pi)

# Jitter of the one-shot Cholesky rescue, relative to the largest diagonal entry.
JITTER_REL = 1e-10

# Stopping rule of profile_sigma2: the relative step that ends the solve, and
# a step cap far above the 3 to 5 steps it takes on chi-square forms.
SIGMA2_RTOL = 1e-13
SIGMA2_MAX_STEPS = 1000
# The move in log sigma2 by which the solve leaves a stationary point where
# V is not concave (a minimum or a saddle), to the higher side.
SIGMA2_STEP_OFF = 1e-3

# Relative rounding of a log-domain value V: in profile_sigma2's solve, a step
# whose predicted rise is at most V_ROUNDING |V| cannot be told from its start
# by scoring, and is taken on the prediction alone.
V_ROUNDING = 8.0 * np.finfo(float).eps

# The Hessian terms' rows, (beta, beta), (beta, nu) and (nu, nu), as the
# (beta, nu) block of the pass's Hessian
_PAIRS = np.array([[0, 1], [1, 2]])

# profile_sigma2 refuses a Newton point below the smallest normal float, and
# one past exp's range: e^x and e^x - 1 are finite at x <= _LOG_MAX and inf
# above it.
_TINY = float(np.finfo(float).tiny)
_LOG_MAX = math.log(np.finfo(float).max)


class NotSPDError(np.linalg.LinAlgError):
    """A covariance failed Cholesky factorization even after jitter.

    ``theta`` holds the offending parameter point where the raiser knows it.
    """

    def __init__(self, msg, theta=None):
        super().__init__(msg)
        self.theta = theta


@dataclass(frozen=True)
class ReplicateSet:
    """n x m data matrix; column i is replicate Z_i observed at n locations.

    The set keeps a read-only copy of the data it is given, and the last
    derivative pass over those data (see the module docstring's memo), which
    takes no part in its repr or its comparisons.
    """

    data: np.ndarray
    # (LocationSet, _Pass): the last derivative pass over these data
    _last_pass: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        d = np.array(self.data, dtype=float)
        if d.ndim != 2:
            raise ValueError("data must be a 2-d array (n locations x m replicates)")
        if d.shape[1] < 1:
            raise ValueError("need at least one replicate")
        if not np.all(np.isfinite(d)):
            raise ValueError("data must be finite")
        d.flags.writeable = False
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
    log_det = 2.0 * float(np.add.reduce(np.log(L.diagonal())))
    if not math.isfinite(log_det):
        raise NotSPDError("covariance has a non-finite log determinant (%r)" % log_det)
    return CholFactor(L=L, log_det=log_det, jittered=jittered)


def _checked_rows(rows, n):
    """Raise ValueError where data with ``rows`` rows do not match n locations."""
    if rows != n:
        raise ValueError("data dimension %d does not match %d locations" % (rows, n))


def _whiten(data, chol):
    """Y = L^-1 Z, Fortran-ordered, for the data Z (n x m) on the factor ``chol`` = L.

    With A = L L', the quadratic forms z' A^-1 z are the columns'
    ||y||^2.  One forward substitution, by LAPACK's trtrs, which checks no
    shape (it reads the first n rows of longer data, and prints an error
    and solves nothing on shorter): data with other than n rows, the
    factor's size, raise ValueError here.
    """
    _checked_rows(data.shape[0], chol.L.shape[0])
    Y, info = dtrtrs(chol.L, data, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("triangular solve failed (LAPACK trtrs info %d)" % info)
    return Y


def _lq_weights(lvec, q):
    """(V, w): the log-domain value and the weights of log densities ``lvec`` at q.

    See the module docstring for both.  Nothing overflows or underflows at
    any scale of the l_i, and shifting every l_i by one constant leaves w
    unchanged.
    """
    if q == 1.0:
        return float(np.add.reduce(lvec)), np.ones(len(lvec))
    w = (1.0 - q) * lvec
    top = float(np.maximum.reduce(w))
    w -= top
    np.exp(w, out=w)
    total = float(np.add.reduce(w))
    w /= total
    return (top + math.log(total)) / (1.0 - q), w


def _checked_q(q):
    """Raise ValueError for a q outside (0, 1]."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1], got %r" % (q,))


def profile_sigma2(quad, n, q):
    """The sigma2 > 0 that maximizes V, from the forms quad_i = z_i' R^-1 z_i.

    At q = 1 it is mean(quad) / n.  Below 1, Newton steps in x = log sigma2
    start at median(quad) / n; the median is read from one ``np.partition``
    of the forms, the same bits as ``np.median`` (the middle form, or the
    mean of the two middle ones).  With a_i = quad_i / sigma2,

        dV/dx   = (sum w_i a_i - n) / 2
        d2V/dx2 = -sum w_i a_i / 2 + (1-q) Var_w(a) / 4.

    The fixed point sigma2 <- sum w_i quad_i / n maximizes a concave Jensen
    minorant of V in x, so it never lowers V.  It replaces the Newton step
    wherever V is not concave, the Newton point leaves the normal floats
    (it overflows, or underflows below ``np.finfo(float).tiny``), or it scores
    lower by more than V's rounding (V_ROUNDING of |V|).  So V does not
    decrease along the steps, up to rounding.  The solve stops at the first
    step that moves sigma2 by at most SIGMA2_RTOL relative; where
    SIGMA2_MAX_STEPS larger steps do not lead to one, it raises
    RuntimeError.  A fixed-point step that would stop it where V is not
    concave, at a minimum or a saddle of V, does not: the solve goes on
    from the higher of the two points SIGMA2_STEP_OFF away in log sigma2,
    and stops only where V is no higher at either.

    Forms times c^2 give sigma2 times c^2, up to rounding, at any c that
    keeps them finite and positive.  A replicate that is 0 at every site
    has the form 0, and V then grows without bound as sigma2 -> 0 at q < 1
    (at q = 1 only where every replicate is 0): that, or a form that is not
    finite, raises ValueError.  It is the limit of a replicate that is
    nearly 0: at q < 1 a form eps far below the others gives V of about
    -n (log(eps / n) + 1) / 2 near sigma2 = eps / n, so the global maximum
    there is that degenerate one, and the solve, which starts at the median
    form, returns a local maximum or that one, without a flag.
    """
    quad = np.asarray(quad, dtype=float)
    m, top = quad.size, np.maximum.reduce(quad)
    # a form of 0 is a replicate that is 0 at every site
    if not (0.0 < (np.minimum.reduce(quad) if q < 1.0 else top) and top < np.inf):
        raise ValueError("V has no maximum in sigma2 at q = %r: a replicate is 0 at every "
                         "site, or a form is not finite" % (q,))
    if q == 1.0:
        return float(np.add.reduce(quad)) / m / n

    def weights(s2):
        return _lq_weights(-0.5 * (n * math.log(s2) + quad / s2), q)

    mid = np.partition(quad, ((m - 1) // 2, m // 2))
    median = mid[m // 2] if m % 2 else (mid[m // 2 - 1] + mid[m // 2]) / 2
    sigma2 = float(median) / n
    value, w = weights(sigma2)
    # SIGMA2_MAX_STEPS steps, and a last look for the step that ends the solve
    for _ in range(SIGMA2_MAX_STEPS + 1):
        a = quad / sigma2
        wa = float(w @ a)
        curv = -0.5 * wa + 0.25 * (1.0 - q) * (float(w @ (a * a)) - wa * wa)
        step = None
        if curv < 0.0:
            slope = 0.5 * (wa - n)
            x = -slope / curv
            # a step past exp's range is refused, as is one to a subnormal
            # sigma2, where quad / sigma2 overflows
            newton = sigma2 * float(np.exp(x)) if x <= _LOG_MAX else math.inf
            if _TINY <= newton < math.inf:
                if abs(newton - sigma2) <= SIGMA2_RTOL * newton:
                    return newton
                trial = weights(newton)
                # a predicted rise below V's rounding cannot be scored
                tie = -0.5 * slope * slope / curv <= V_ROUNDING * abs(value)
                if trial[0] >= value or tie:
                    step = newton
        if step is None:
            step = sigma2 * wa / n
            if abs(step - sigma2) <= SIGMA2_RTOL * step:
                # a stationary point: where V is not concave there, the
                # solve goes on from the higher of its two neighbours
                # SIGMA2_STEP_OFF away in log sigma2, if V is higher there
                sides = sigma2 * np.exp([-SIGMA2_STEP_OFF, SIGMA2_STEP_OFF])
                tried = weights(sides[0]), weights(sides[1])
                k = int(tried[1][0] >= tried[0][0])
                if curv < 0.0 or not tried[k][0] > value:
                    return step
                step, trial = sides[k], tried[k]
            else:
                trial = weights(step)
        sigma2, (value, w) = step, trial
    raise RuntimeError("the sigma2 solve did not converge in %d steps at q = %r"
                       % (SIGMA2_MAX_STEPS, q))


def _invert_lower(a, work):
    """(a, info): the lower triangular a (n x n) replaced by its inverse, in place, by halves.

    With a = [[A, 0], [C, D]], a^-1 = [[A^-1, 0], [X, D^-1]] where X A =
    -D^-1 C: D is inverted in place the same way, X is solved for by BLAS's
    trsm against A, with D^-1 C and a copy of A in ``work`` (a flat buffer
    of at least n^2 / 2 doubles), and then A is inverted; LAPACK's trtri
    inverts a block of n <= 64.  Solving against A, instead of multiplying
    by its computed inverse, keeps R^-1 = a^-T a^-1 as accurate as potri's
    (with both inverses multiplied, the residual R R^-1 - I grew to 55
    times potri's on a 20 x 20 grid and 114 times on a 30 x 30 one).
    a's strict upper triangle must be 0, as potrf's factor leaves it, and
    stays 0.  info is trtri's: k > 0 where a's k-th diagonal entry is 0, a
    then being partly overwritten.
    """
    n = a.shape[0]
    if n <= 64:
        inv, info = dtrtri(a, lower=1, overwrite_c=1)
        if inv is not a:
            a[...] = inv                    # a block view, which trtri copied
        return a, info
    h = n // 2
    info = _invert_lower(a[h:, h:], work)[1]
    if info:
        return a, info + h
    C = a[h:, :h]
    X = np.matmul(a[h:, h:], C, out=work[:C.size].reshape(C.shape, order="F"))
    A = work[C.size:C.size + h * h].reshape((h, h), order="F")
    A[...] = a[:h, :h]
    C[...] = dtrsm(-1.0, A, X, side=1, lower=1, overwrite_b=1)
    return a, _invert_lower(a[:h, :h], work)[1]


@dataclass(frozen=True)
class _Pass:
    """One derivative pass at theta = (sigma2, beta, nu) and q, in O(m).

    ``g`` holds every replicate's gradient g_i (3, m), ``w`` the weights
    (m,), ``S`` = sum w_i H_i (3, 3) and ``log_scale`` the log scale s.
    """

    theta: MaternParams
    q: float
    g: np.ndarray
    w: np.ndarray
    S: np.ndarray
    log_scale: float

    def hessian(self, q):
        """(gbar, H): gradient and Hessian of the log-domain value V at q, in theta.

        The weights are the pass's own at its q, and at any other q they are
        re-weighted from l_i = -sigma2 g_i[0], which is -z_i' Sigma^-1 z_i / 2
        up to a constant shared by all replicates; S is rescaled to their
        total (m at q = 1, 1 below), with the H_i weighted as at the pass.
        """
        w = self.w if q == self.q else _lq_weights(-self.theta.sigma2 * self.g[0], q)[1]
        gbar = self.g @ w
        m = self.g.shape[1]
        H = self.S * ((m if q == 1.0 else 1.0) / (m if self.q == 1.0 else 1.0))
        if q < 1.0:
            G = self.g - gbar[:, None]
            H += (1.0 - q) * ((G * w) @ G.T)
        return gbar, 0.5 * (H + H.T)

    def newton_step(self, q, log=False):
        """The move of theta = (sigma2, beta, nu) by one Newton step from ``hessian(q)``.

        At the pass's own q, sigma2 was solved at theta, so gbar's sigma2
        entry is taken as 0.  The step is -H^-1 gbar in theta; with
        ``log``, it is dy = -H_y^-1 g_y in y = log theta, where g_y = theta
        gbar and H_y = diag(theta) H diag(theta) + diag(g_y) is negative
        definite, and theta moves to theta exp(dy).  None where the
        derivatives are not finite or neither Hessian is negative definite.
        Both are decided, and the step solved, by one Cholesky factor of
        -H_y or -H on Python floats (``_solve_spd3``).
        """
        gbar, H = self.hessian(q)
        if q == self.q:
            gbar[0] = 0.0
        theta = (self.theta.sigma2, self.theta.beta, self.theta.nu)
        g, h = gbar.tolist(), H.tolist()
        if log:
            gy = [t * x for t, x in zip(theta, g)]
            d = _solve_spd3([[-(h[i][j] * (theta[i] * theta[j])) - (gy[i] if i == j else 0.0)
                              for j in range(i + 1)] for i in range(3)], gy)
            if d is not None:       # a step past exp's range leaves any box
                return np.array([t * (math.expm1(x) if x <= _LOG_MAX else math.inf)
                                 for t, x in zip(theta, d)])
        d = _solve_spd3([[-h[i][j] for j in range(i + 1)] for i in range(3)], g)
        return None if d is None else np.array(d)


def _solve_spd3(a, b):
    """x with a x = b, a symmetric 3 x 3 by its lower triangle (rows of 1, 2, 3 floats).

    One Cholesky factor a = L L' on Python floats, then the two triangular
    solves.  None unless each pivot lies in (0, inf), so that a is positive
    definite with every entry finite (an infinite or NaN entry makes a
    pivot infinite or NaN), and x is finite (so is b).
    """
    (a00,), (a10, a11), (a20, a21, a22) = a
    if not 0.0 < a00 < math.inf:
        return None
    l00 = math.sqrt(a00)
    l10, l20 = a10 / l00, a20 / l00
    p1 = a11 - l10 * l10
    if not 0.0 < p1 < math.inf:
        return None
    l11 = math.sqrt(p1)
    l21 = (a21 - l20 * l10) / l11
    p2 = a22 - l20 * l20 - l21 * l21
    if not 0.0 < p2 < math.inf:
        return None
    l22 = math.sqrt(p2)
    y0 = b[0] / l00
    y1 = (b[1] - l10 * y0) / l11
    x2 = (b[2] - l20 * y0 - l21 * y1) / l22 / l22
    x1 = (y1 - l21 * x2) / l11
    x0 = (y0 - l10 * x1 - l20 * x2) / l00
    if abs(x0) < math.inf and abs(x1) < math.inf and abs(x2) < math.inf:
        return [x0, x1, x2]
    return None


class _Workspace:
    """The scores and derivative passes of one (data, sites, q), in buffers it hands out again.

    Built over a ``ReplicateSet`` ``reps``, a ``LocationSet`` ``locs`` and
    q, it checks them once: TypeError where reps is not a ``ReplicateSet``
    (the memo lives on the set, whose data are read-only), ValueError where
    the data's rows do not match ``locs`` or q lies outside (0, 1].
    ``score`` and ``derivs`` are the module docstring's score and pass, and
    ``passes`` counts the passes ``derivs`` made, failed ones included.
    ``held`` is (beta, nu, CholFactor, Y) where the factor in the buffer
    "R" came from a score that also made a pass's kernel terms, with the
    data that score whitened, else None.
    """

    def __init__(self, reps, locs, q):
        if not isinstance(reps, ReplicateSet):
            raise TypeError("the pass reads a ReplicateSet, not %s" % type(reps).__name__)
        _checked_rows(reps.n, locs.n)
        _checked_q(q)
        self.reps, self.locs, self.q = reps, locs, q
        self._bufs, self.held, self.passes = {}, None, 0

    def take(self, name, size):
        """The flat buffer kept under ``name``, at least ``size`` doubles long, uninitialised."""
        bufs = self._bufs
        if name not in bufs or bufs[name].size < size:
            bufs[name] = None               # the old buffer goes before a new one comes
            bufs[name] = np.empty(size)
        return bufs[name]

    def _pass_buffer(self):
        """(slots, grad, hess): the "pass" buffer, laid out as the module docstring says.

        ``slots`` holds the three slots of max(n^2, 2u) doubles as its rows;
        the Hessian terms ``hess`` (3, u) lie past them, and the gradient
        terms ``grad`` (2, u) open slot 0.
        """
        n, u = self.locs.n, self.locs._dist_unique[0].size
        size = max(n * n, 2 * u)
        buf = self.take("pass", 3 * size + 3 * u)
        return (buf[:3 * size].reshape(3, size), buf[:2 * u].reshape(2, u),
                buf[3 * size:3 * size + 3 * u].reshape(3, u))

    def _factor(self, beta, nu, terms):
        """CholFactor of the correlation matrix R(beta, nu), built and factored in the buffer "R".

        The factor lives there until the next score or pass.  With
        ``terms``, the Bessel values that make R's also make a derivative
        pass's five kernel terms at (beta, nu), into their place in the
        "pass" buffer.  Raises NotSPDError carrying MaternParams(1, beta,
        nu) if R cannot be factored.
        """
        self.held = None                        # R is written below
        corr = MaternParams(1.0, beta, nu)
        locs, n, u = self.locs, self.locs.n, self.locs._dist_unique[0].size
        a = self.take("R", n * n)[:n * n].reshape((n, n), order="F")
        # the kernel's values go into slot 2 of the pass's buffer, which no
        # pass uses while a score runs
        slots, *made = self._pass_buffer()
        vals = slots[2][:u]
        _cov_into(locs, corr, a, vals, made if terms else None)
        try:
            return _factor_in_place(a, lambda: _cov_into(locs, corr, a, vals))
        except NotSPDError as err:
            err.theta = corr
            raise

    def score(self, beta, nu, terms=False):
        """(sigma2, V) at (beta, nu), sigma2 solved on (0, inf) on one factor of R.

        With ``terms``, the score makes a pass's kernel terms too, and
        ``held`` records its factor and whitened data for that pass.
        Raises NotSPDError carrying MaternParams(1, beta, nu) if R cannot
        be factored, and ``profile_sigma2``'s ValueError and RuntimeError.
        """
        n = self.reps.n
        chol = self._factor(beta, nu, terms)
        Y = _whiten(self.reps.data, chol)
        if terms:
            self.held = (beta, nu, chol, Y)
        quad = np.einsum("ij,ij->j", Y, Y)
        sigma2 = profile_sigma2(quad, n, self.q)
        lvec = -0.5 * (n * (_LOG_2PI + math.log(sigma2)) + chol.log_det + quad / sigma2)
        return sigma2, _lq_weights(lvec, self.q)[0]

    def derivs(self, theta):
        """The ``_Pass`` of the data at theta and q (see the module docstring).

        The memo's pass where it holds one at these sites, theta and q.
        Otherwise the pass takes R's factor at (beta, nu) and Y from
        ``held`` where it records them, else factors R with the terms and
        whitens the data, with no sigma2 solve; it overwrites the factor
        with L^-1, then R^-1, and is stored on the data's set, with the
        sites, replacing the one before.  Raises NotSPDError carrying
        MaternParams(1, beta, nu) where R cannot be factored, and carrying
        theta where L cannot be inverted.
        """
        reps, locs, q = self.reps, self.locs, self.q
        entry = reps._last_pass
        if entry is not None and entry[0] is locs and (entry[1].theta, entry[1].q) == (theta, q):
            return entry[1]
        self.passes += 1
        n, m = reps.data.shape
        # the pass overwrites R's factor with L^-1
        held, self.held = self.held, None
        if held is None or held[:2] != (theta.beta, theta.nu):
            chol = self._factor(theta.beta, theta.nu, True)
            held = (theta.beta, theta.nu, chol, _whiten(reps.data, chol))
        chol, Y = held[2:]
        s2 = theta.sigma2
        inv = locs._dist_unique[1]
        slots, grad, d2 = self._pass_buffer()
        nn = n * n
        Linv, info = _invert_lower(chol.L, slots[2])
        if info != 0:
            raise NotSPDError("L^-1 from the Cholesky factor failed (trtri info %d)"
                              % info, theta=theta)
        quad = np.einsum("ij,ij->j", Y, Y) / s2         # z' Sigma^-1 z
        value, w = _lq_weights(-0.5 * quad, q)
        w_sum = float(np.add.reduce(w))

        # C_k = L^-1 dR_k L^-T over dR_k in slots 1 and 2: both dR_k are
        # gathered at once into the slots' C-ordered views (dR_k is
        # symmetric), whose transposes are the F-ordered C_k; then C_k Y,
        # one (2, n, m) array
        Ct = slots[1:, :nn].reshape(2, n, n)
        np.take(grad, inv, axis=1, mode="clip", out=Ct)
        CY = np.empty((2, m, n)).transpose(0, 2, 1)
        for k, c in enumerate(Ct.transpose(0, 2, 1)):
            dtrmm(1.0, Linv, c, lower=1, overwrite_b=1)
            dtrmm(1.0, Linv, c, side=1, lower=1, trans_a=1, overwrite_b=1)
            np.matmul(c, Y, out=CY[k])
        yCy = np.einsum("ij,kij->kj", Y, CY)           # s2 w' dS_k w

        g = np.empty((3, m))
        g[0] = 0.5 * (quad - n) / s2
        g[1:] = (0.5 / s2) * yCy - 0.5 * np.add.reduce(Ct.diagonal(0, 1, 2), axis=1)[:, None]

        H = np.empty((3, 3))
        H[0, 0] = 0.5 * w_sum * n / s2 ** 2 - float(w @ quad) / s2 ** 2
        H[0, 1:] = H[1:, 0] = -0.5 * (yCy @ w) / s2 ** 2
        f0, f1 = slots[1:, :nn]
        c01 = f0 @ f1
        tr_CC = np.array([[f0 @ f0, c01], [c01, f1 @ f1]])
        # sum w_i (dS_j w_i)' Sigma^-1 (dS_k w_i)
        cross = np.einsum("kij,lij->klj", CY, CY) @ w / s2
        del CY          # before X is scaled, whose buffered broadcast would add to the peak
        # the Hessian slices enter only through <d2R_jk, P - w_sum R^-1>, so
        # that matrix is summed onto the unique distances once
        X = dtrmm(1.0, Linv, Y, lower=1, trans_a=1, overwrite_b=1)     # R^-1 Z, in Y's place
        X *= np.sqrt(w / s2)
        P = np.matmul(X, X.T, out=slots[1, :nn].reshape(n, n))
        # R^-1's lower triangle (its upper is 0) is taken from P at twice its
        # weight, so each pair off the diagonal counts once in the sums; the
        # diagonal, all at distance 0 (index 0), gets its excess back below
        Rinv = dlauum(Linv, lower=1, overwrite_c=1)[0]
        Rinv *= 2.0 * w_sum
        P -= Rinv.T
        # into slot 0, read no more: add.at sums in bincount's order, to the
        # same bits, but into a given array
        sums = slots[0, :d2.shape[1]]
        sums.fill(0.0)
        np.add.at(sums, inv.ravel(), slots[1, :nn])
        sums[0] += 0.5 * Rinv.trace()
        H[1:, 1:] = 0.5 * w_sum * tr_CC + 0.5 * (d2 @ sums)[_PAIRS] - cross
        log_scale = 0.0 if q == 1.0 else (1.0 - q) * (
            value - 0.5 * (n * (_LOG_2PI + math.log(s2)) + chol.log_det))
        p = _Pass(theta, q, g, w, H, log_scale)
        object.__setattr__(reps, "_last_pass", (locs, p))
        return p
