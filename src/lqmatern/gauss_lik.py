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

For large n the exact value underflows (f^(1-q) = e^(l(1-q)) with l of order
-n), so ``total_lq`` offers the strictly increasing surrogate

    exp[(l + n) (1-q)]

which drops the affine pieces (the -1, the 1/(1-q), and the constant e^(n(1-q))
factor); for fixed q these do not move the argmax.  The surrogate is selected
by ``scale=True`` and reported via the ``scaled`` flag; it is the form in
which ``estimate.fit`` reports its objective by default.  It can overflow
when the data's scale is small, which is why the search itself compares the
log-domain value of ``profile_lq`` below.

``total_lq`` shares one factorization across all m replicates and sums the
per-replicate values in fixed column order, so results are reproducible.

Profiling sigma2.  Sigma = sigma2 R(beta, nu), so one factorization of the
correlation matrix R gives quad_i = z_i' R^-1 z_i and log|R|, and with them
every replicate's log-likelihood at any sigma2:

    l_i(sigma2) = -(1/2) [n log(2 pi) + log|R| + n log sigma2 + quad_i / sigma2]

``profile_lq`` does that work once per (beta, nu) and solves for sigma2 in
O(m) (``profile_sigma2``).  It scores the point in the log domain: sum l_i at
q = 1 and logsumexp((1-q) l) / (1-q) below it, a strictly increasing
transform of sum f_i^(1-q) that neither overflows nor underflows.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .matern import MaternParams, build_cov

_LOG_2PI = np.log(2.0 * np.pi)

# Relative jitter magnitude for the one-shot Cholesky rescue.
JITTER_REL = 1e-10

# Stopping rule of the sigma2 fixed point in profile_sigma2: relative step
# size, and a step cap.  On chi-square quadratic forms (n = 36 to 400,
# m = 100, q in {0.95, 0.9, 0.5}) the rule stops after 5 to 21 steps.
SIGMA2_RTOL = 1e-13
SIGMA2_MAX_STEPS = 1000


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


@dataclass(frozen=True)
class LqValue:
    """An Lq-likelihood value tagged with q and the scaling flag."""

    value: float
    q: float
    scaled: bool = False

    def __post_init__(self):
        if self.q == 1.0 and self.scaled:
            raise ValueError("scaled flag is meaningless at q = 1")


def chol_factor(cov, jitter_scale=None):
    """Cholesky-factor an SPD covariance with a one-shot jitter rescue.

    On failure, 1e-10 * jitter_scale is added to the diagonal once (the
    scale defaults to the mean diagonal, i.e. sigma2 for a Matern matrix)
    and the event is reported through the ``jittered`` flag.  A second
    failure, or a non-finite log determinant, raises NotSPDError.

    LAPACK is called without scipy's finiteness scan; a NaN or inf entry
    either fails the factorization or shows in the log determinant.
    """
    cov = np.asarray(cov, dtype=float)
    try:
        L = cholesky(cov, lower=True, check_finite=False)
        jittered = False
    except np.linalg.LinAlgError:
        scale = float(np.mean(np.diag(cov))) if jitter_scale is None else float(jitter_scale)
        bumped = cov + JITTER_REL * scale * np.eye(cov.shape[0])
        try:
            L = cholesky(bumped, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            raise NotSPDError("covariance is not positive definite (jitter rescue failed)")
        jittered = True
    log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
    if not np.isfinite(log_det):
        raise NotSPDError("covariance has a non-finite log determinant (%r)" % log_det)
    return CholFactor(L=L, log_det=log_det, jittered=jittered)


def log_likelihood(z, chol):
    """Exact Gaussian log-likelihood of one replicate from a Cholesky factor.

    The quadratic form z' Sigma^-1 z is evaluated as ||y||^2 with L y = z;
    one forward substitution, no explicit inverse.
    """
    z = np.asarray(z, dtype=float)
    n = chol.L.shape[0]
    if z.shape != (n,):
        raise ValueError("z has shape %s, expected (%d,)" % (z.shape, n))
    y = solve_triangular(chol.L, z, lower=True, check_finite=False)
    return float(-0.5 * n * _LOG_2PI - 0.5 * (y @ y) - 0.5 * chol.log_det)


def _quad_forms(data, chol):
    # z' Sigma^-1 z for every column: one forward substitution, L y = z
    Y = solve_triangular(chol.L, data, lower=True, check_finite=False)
    return np.einsum("ij,ij->j", Y, Y)


def loglik_columns(data, chol):
    """Per-replicate log-likelihoods for an n x m matrix, shared factor."""
    data = np.asarray(data, dtype=float)
    n = chol.L.shape[0]
    if data.ndim != 2 or data.shape[0] != n:
        raise ValueError("data has shape %s, expected (%d, m)" % (data.shape, n))
    return -0.5 * n * _LOG_2PI - 0.5 * _quad_forms(data, chol) - 0.5 * chol.log_det


def profile_sigma2(quad, n, q, lower, upper):
    """The sigma2 in [lower, upper] that maximizes the Lq objective.

    ``quad`` holds each replicate's z' R^-1 z for the correlation matrix R;
    the objective in sigma2 is sum_i exp((1-q) l_i(sigma2)), or sum_i l_i
    at q = 1 (see the module notes).

    At q = 1 the maximizer is mean(quad) / n, clipped.  Below 1 it is found
    by the fixed point sigma2 <- sum w_i quad_i / (n sum w_i) with weights
    w_i = softmax((1-q) l_i(sigma2)), started at median(quad) / n and clipped
    to the bounds at every step.  Each step maximizes a concave Jensen
    minorant of the log objective in log sigma2 over the bounds, so the
    objective never decreases.  It stops once a step moves sigma2 by at most
    SIGMA2_RTOL relative, or after SIGMA2_MAX_STEPS steps.  The log sigma2
    and constant terms of l_i are shared by all replicates and cancel in the
    softmax, so the weights are exp(-(1-q) (quad_i - min quad) / (2 sigma2)),
    normalized: no overflow.
    """
    quad = np.asarray(quad, dtype=float)
    if q == 1.0:
        return min(max(float(np.mean(quad)) / n, lower), upper)
    rate = 0.5 * (1.0 - q)
    excess = quad - quad.min()
    sigma2 = min(max(float(np.median(quad)) / n, lower), upper)
    w = np.empty_like(quad)
    for _ in range(SIGMA2_MAX_STEPS):
        np.multiply(excess, -rate / sigma2, out=w)
        np.exp(w, out=w)
        step = min(max(float(w @ quad / (n * w.sum())), lower), upper)
        if abs(step - sigma2) <= SIGMA2_RTOL * step:
            return step
        sigma2 = step
    return sigma2


def profile_lq(reps, locs, beta, nu, q, sigma2_lower, sigma2_upper):
    """Log-domain Lq objective at (beta, nu) with sigma2 solved exactly.

    Builds and factors the correlation matrix R(beta, nu) once, takes the
    quadratic forms from one triangular solve, and finds sigma2 in
    [sigma2_lower, sigma2_upper] with ``profile_sigma2``.  Returns
    (sigma2, value), where value is sum l_i at q = 1 and
    logsumexp((1-q) l) / (1-q) below it.  Raises NotSPDError carrying
    MaternParams(1, beta, nu) if R cannot be factored.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1], got %r" % (q,))
    corr = MaternParams(1.0, beta, nu)
    try:
        chol = chol_factor(build_cov(locs, corr), jitter_scale=1.0)
    except NotSPDError as err:
        err.theta = corr
        raise
    n = reps.n
    quad = _quad_forms(reps.data, chol)
    sigma2 = profile_sigma2(quad, n, q, sigma2_lower, sigma2_upper)
    lvec = -0.5 * (n * (_LOG_2PI + np.log(sigma2)) + chol.log_det + quad / sigma2)
    if q == 1.0:
        return sigma2, float(np.sum(lvec))
    h = (1.0 - q) * lvec
    top = float(h.max())
    return sigma2, (top + float(np.log(np.sum(np.exp(h - top))))) / (1.0 - q)


def lq_of_loglik(l, q, n, scale=False):
    """Lq value of a density given its log l; see the module notes.

    Parameters
    ----------
    l : float
        Log density value.
    q : float
        Distortion parameter in (0, 1].
    n : int
        Dimension; enters only the scale=True surrogate exp[(l+n)(1-q)].
    scale : bool
        Use the underflow-safe increasing surrogate (never at q = 1).

    Returns
    -------
    LqValue
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1], got %r" % (q,))
    l = float(l)
    if q == 1.0:
        return LqValue(value=l, q=1.0, scaled=False)
    om = 1.0 - q
    if scale:
        return LqValue(value=float(np.exp((l + n) * om)), q=q, scaled=True)
    return LqValue(value=float(np.expm1(l * om) / om), q=q, scaled=False)


def total_lq(reps, locs, theta, q, scale=False):
    """Summed Lq-likelihood of all replicates at one parameter point.

    One covariance build and one Cholesky factorization are shared across
    the m replicates; the per-replicate values are summed in column order.
    Raises NotSPDError carrying theta if the factorization fails.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1], got %r" % (q,))
    cov = build_cov(locs, theta)
    try:
        chol = chol_factor(cov, jitter_scale=theta.sigma2)
    except NotSPDError as err:
        err.theta = theta
        raise
    lvec = loglik_columns(reps.data, chol)
    if q == 1.0:
        return float(np.sum(lvec))
    om = 1.0 - q
    if scale:
        return float(np.sum(np.exp((lvec + reps.n) * om)))
    return float(np.sum(np.expm1(lvec * om) / om))
