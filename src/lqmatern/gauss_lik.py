"""Gaussian log-likelihood and Lq-likelihood via Cholesky factorization.

The zero-mean Gaussian log density at one replicate z is

    l(z; theta) = -(n/2) log(2 pi) - (1/2) z' Sigma^-1 z - (1/2) log|Sigma|

computed from a single Cholesky factorization Sigma = L L': the quadratic
form is ||y||^2 with L y = z (one triangular solve), and log|Sigma| is twice
the log-sum of the diagonal of L.

The Lq transform of the density f = e^l:

    L_q(f) = log f = l                      if q = 1
    L_q(f) = (f^(1-q) - 1) / (1 - q)        if q < 1
           = expm1(l (1-q)) / (1-q)

For large n that value underflows (f^(1-q) = e^(l(1-q)) with l of order
-n), so everything works in the log domain through one helper,
``_lq_weights``: for the replicates' log densities l it returns the value
V = sum l at q = 1 and V = logsumexp((1-q) l) / (1-q) below it, a strictly
increasing transform of sum f_i^(1-q) that neither overflows nor
underflows, together with the replicate weights w = 1 at q = 1 and
w = softmax((1-q) l) below it.  The fit's objective, the sigma2 solve, the
Newton step and the sandwich all take their weights from it.

Profiling sigma2.  Sigma = sigma2 R(beta, nu), so one factorization of the
correlation matrix R gives quad_i = z_i' R^-1 z_i and log|R|, and with them
every replicate's log-likelihood at any sigma2:

    l_i(sigma2) = -(1/2) [n log(2 pi) + log|R| + n log sigma2 + quad_i / sigma2]

Every (beta, nu) is scored one way: ``_corr_factor`` builds R with
``build_cov`` and factors it, and ``_profile_factor`` solves for sigma2 on
that factor in O(m) (``profile_sigma2``) and scores the point by its
log-domain value V.  ``profile_lq`` is the two in turn.  The fit calls
them itself and keeps the factor of the point it scored last for a
derivative pass there (``estimate._Search``); the sandwich takes its
factor from ``_corr_factor`` too.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .matern import MaternParams, build_cov

_LOG_2PI = np.log(2.0 * np.pi)

# Relative jitter magnitude for the one-shot Cholesky rescue.
JITTER_REL = 1e-10

# Stopping rule of the sigma2 solve in profile_sigma2: relative step size,
# and a step cap.  On chi-square quadratic forms (n = 36 to 400, m = 100,
# q in {0.95, 0.9, 0.5}) the solve stops after 3 to 5 steps.
SIGMA2_RTOL = 1e-13
SIGMA2_MAX_STEPS = 1000

# Relative rounding of a log-domain value V: a step whose predicted rise is
# at most V_ROUNDING times the size of the terms V is summed from cannot be
# told from its start by scoring it, and is taken on the prediction alone.
# profile_sigma2 takes that size as |V|; the fit's Newton steps take it
# from the terms of the l_i, which can be far larger where V cancels to
# near 0 (``asymptotics._Pass.rounding_floor``).
V_ROUNDING = 8.0 * np.finfo(float).eps


class NotSPDError(np.linalg.LinAlgError):
    """Covariance failed Cholesky factorization even after jitter.

    Carries the offending parameter point in ``theta`` when raised from
    parameterized entry points.
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
    """Cholesky-factor an SPD covariance with a one-shot jitter rescue.

    On failure, JITTER_REL times the largest diagonal entry is added to the
    diagonal once (on every covariance the package builds that entry is
    exactly sigma2, as M(0) = sigma2) and the event is reported through the
    ``jittered`` flag.  A second failure, or a non-finite log determinant,
    raises NotSPDError.

    LAPACK is called without scipy's finiteness scan; a NaN or inf entry
    either fails the factorization or shows in the log determinant.
    """
    cov = np.asarray(cov, dtype=float)
    try:
        L = cholesky(cov, lower=True, check_finite=False)
        jittered = False
    except np.linalg.LinAlgError:
        bumped = cov + JITTER_REL * cov.diagonal().max() * np.eye(cov.shape[0])
        try:
            L = cholesky(bumped, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            raise NotSPDError("covariance is not positive definite (jitter rescue failed)")
        jittered = True
    log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
    if not np.isfinite(log_det):
        raise NotSPDError("covariance has a non-finite log determinant (%r)" % log_det)
    return CholFactor(L=L, log_det=log_det, jittered=jittered)


def _quad_forms(data, chol):
    # z' Sigma^-1 z for every column: one forward substitution, L y = z
    Y = solve_triangular(chol.L, data, lower=True, check_finite=False)
    return np.einsum("ij,ij->j", Y, Y)


def _lq_weights(lvec, q):
    """Log-domain Lq value of log densities ``lvec`` and the replicate weights.

    Returns (value, w): (sum l, ones) at q = 1, and below it
    (logsumexp((1-q) l) / (1-q), softmax((1-q) l)).  The weights are
    normalized, so nothing overflows or underflows however large or small
    the log densities are, and a shift of every l_i by the same constant
    leaves them unchanged.
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


def profile_sigma2(quad, n, q, lower, upper):
    """The sigma2 in [lower, upper] that maximizes the Lq objective.

    ``quad`` holds each replicate's z' R^-1 z for the correlation matrix R;
    the objective in sigma2 is the log-domain value V of ``_lq_weights``.

    At q = 1 the maximizer is mean(quad) / n, clipped.  Below 1 it is found
    by Newton steps in x = log sigma2, started at median(quad) / n.  With
    a_i = quad_i / sigma2 and the weights w = softmax((1-q) l(sigma2)),

        dV/dx   = (sum w_i a_i - n) / 2
        d2V/dx2 = -sum w_i a_i / 2 + (1-q) Var_w(a) / 4.

    A step is safeguarded by the fixed point sigma2 <- sum w_i quad_i / n,
    clipped to the bounds, which maximizes a concave Jensen minorant of V
    in x, so it never lowers V: the fixed point is taken instead wherever
    V is not concave there, the Newton point leaves the bounds, or it
    scores lower, unless its predicted rise -V'^2 / (2 V'') is within V's
    rounding (V_ROUNDING).  The solve is thus monotone up to rounding.  It
    stops once a step moves sigma2 by at most SIGMA2_RTOL relative, or
    after SIGMA2_MAX_STEPS steps.  The constant terms of l_i are shared by
    all replicates; only the sigma2 terms enter the value compared here.
    """
    quad = np.asarray(quad, dtype=float)
    if q == 1.0:
        return min(max(float(np.mean(quad)) / n, lower), upper)

    def weights(s2):
        return _lq_weights(-0.5 * (n * np.log(s2) + quad / s2), q)

    sigma2 = min(max(float(np.median(quad)) / n, lower), upper)
    value, w = weights(sigma2)
    for _ in range(SIGMA2_MAX_STEPS):
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
    return sigma2


def _profile_factor(reps, chol, q, sigma2_lower, sigma2_upper):
    """(sigma2, value) at a correlation matrix R from its Cholesky factor.

    The quadratic forms z_i' R^-1 z_i come from one triangular solve;
    sigma2 in [sigma2_lower, sigma2_upper] from ``profile_sigma2``, and the
    value is ``_lq_weights``'s: sum l_i at q = 1 and logsumexp((1-q) l) /
    (1-q) below it.  The factor is left unchanged, so a derivative pass
    can start from it.
    """
    n = reps.n
    quad = _quad_forms(reps.data, chol)
    sigma2 = profile_sigma2(quad, n, q, sigma2_lower, sigma2_upper)
    lvec = -0.5 * (n * (_LOG_2PI + np.log(sigma2)) + chol.log_det + quad / sigma2)
    return sigma2, _lq_weights(lvec, q)[0]


def _corr_factor(locs, beta, nu):
    """Cholesky factor of the correlation matrix R(beta, nu), from ``build_cov``.

    Raises NotSPDError carrying MaternParams(1, beta, nu) if R cannot be
    factored.
    """
    corr = MaternParams(1.0, beta, nu)
    try:
        return chol_factor(build_cov(locs, corr))
    except NotSPDError as err:
        err.theta = corr
        raise


def profile_lq(reps, locs, beta, nu, q, sigma2_lower, sigma2_upper):
    """Log-domain Lq objective at (beta, nu) with sigma2 solved exactly.

    Builds and factors the correlation matrix R(beta, nu) once
    (``_corr_factor``) and profiles sigma2 on the factor
    (``_profile_factor``).  Returns (sigma2, value).  Raises NotSPDError
    carrying MaternParams(1, beta, nu) if R cannot be factored.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1], got %r" % (q,))
    return _profile_factor(reps, _corr_factor(locs, beta, nu), q,
                           sigma2_lower, sigma2_upper)
