"""Estimating-function machinery: U*, V*, plug-in K and J, standard errors.

For the zero-mean Gaussian density f(z; theta) with covariance Sigma(theta),
write l = log f, g_j = dl/dtheta_j and H_jk = d2l/dtheta_j dtheta_k.  With
w = Sigma^-1 z and dS_j = dSigma/dtheta_j:

    g_j  = 1/2 w' dS_j w - 1/2 tr(Sigma^-1 dS_j)
    H_jk = 1/2 tr(Sigma^-1 dS_j Sigma^-1 dS_k) - 1/2 tr(Sigma^-1 d2S_jk)
           + 1/2 w' d2S_jk w - (dS_j w)' Sigma^-1 (dS_k w)

The per-replicate estimating function and its theta-derivative are

    U* = f^(1-q) g
    V* = (1-q) f^(1-q) g g' + f^(1-q) H

so V* is the exact Jacobian of U* (and the exact Hessian of the Lq
contribution), which makes both checkable against finite differences.  At
q = 1 they reduce to the classical score and observed-information kernel.

The factors f^(1-q) underflow for large n, so they are never formed: with
the weights w_i of ``gauss_lik._lq_weights``, f_i^(1-q) = w_i e^s, where
the log scale s is logsumexp((1-q) l) (0 at q = 1).  ``sandwich`` averages
the weighted terms U_i = w_i g_i and V_i = (1-q) w_i g_i g_i' + w_i H_i
into K = (1/m) sum U U' and J = (1/m) sum V (``SandwichParts``).

The derivative pass.  One pass serves the sandwich, U*, the fit's Newton
steps and ``FitChain``'s warm starts: ``_weighted_derivs`` returns it as a
``_Pass`` of O(m) numbers, every g_i, the weights, s, log|R| and
S = sum w_i H_i, and forms no replicate's Hessian.  J needs only S and
the g_i,

    m J = S + (1-q) sum w_i g_i g_i',

and the Hessian of the log-domain objective (``_Pass.hessian``) adds the
centred (1-q) sum w_i (g_i - gbar)(g_i - gbar)' instead, gbar = sum w_i g_i.
The pass takes its Cholesky factor of R(beta, nu) and the workspace it
lives in from ``gauss_lik._take_factor``: the factor that scored the
point, where the memo of the last factor holds it and that score made the
pass's kernel terms, else the factor of a new score of the point that
makes them.  So no one else holds the factor it overwrites, and the pass
evaluates no kernel itself.  It completes the factor at any sigma2, where
Sigma = sigma2 R:

- Sigma^-1 is LAPACK's potri on R's factor, in its place, with the lower
  triangle mirrored, divided by sigma2; W = Sigma^-1 Z is one product with
  it, and log|Sigma| = log|R| + n log sigma2.
- The kernel's five derivative terms at (beta, nu), per unit variance,
  at the unique distances are the workspace's, made by the score of the
  point on either kernel route (``gauss_lik._corr_factor``'s ``pass_m``):
  the fit's warm start and Newton trial points, and so the sandwich right
  after a fit, or the pass's own score of the point, as at a simplex's
  answer or in a sandwich anywhere else; dS_j and d2S_jk are those terms
  times sigma2, the one place sigma2 enters them.  Only the two dS_j are
  gathered over the sites.
- With M = W diag(w) W' the data terms are inner products over sites:
  sum w_i w_i' d2S w_i = <d2S, M>, and sum w_i (dS_j w_i)' Sigma^-1
  (dS_k w_i) = <dS_j, B_k M> with B_k = Sigma^-1 dS_k, from the n x m
  products B_k W when m < n, else from B_k M, one k at a time.  The other
  trace terms are tr(B_j B_k).
- The second derivatives enter only through <d2S_jk, M - w_sum Sigma^-1>
  (w_sum = sum w_i), so that matrix is summed onto the unique distances
  once, and each (beta, nu) entry is then a dot product over them.
- The sigma2 row is analytic, since dS_0 = Sigma / sigma2, B_0 = I / sigma2
  and d2S_0k = dS_k / sigma2; its <dS_j, M> is the weighted sum of the
  gradient's products w_i' dS_j w_i.

Memory.  Sigma^-1 stays in the factor's buffer, and the other large
arrays live in the workspace's "pass" buffer, laid out by
``gauss_lik._pass_buffer``: slots of max(n^2, 2u) doubles (u unique
distances, so n^2 for n > 1) that hold one array after another, and the
three Hessian terms (3, u) after slot 2:

- slot 0: the two gradient terms (2, u), then B_0, then the sums of
  M - w_sum Sigma^-1 onto the unique distances (u);
- slot 1: dS_0; where m < n, B_1 then takes it;
- slot 2: R's values where a score makes the terms, then dS_1, then,
  where m < n, B_k W, then M;
- only where m >= n, where dS_j is read to the end, three n^2 slots
  after the Hessian terms: B_1, M and B_k M.

So with m < n the factor and the pass's buffer hold 4 n^2 + 3u doubles,
5.5 n^2 on irregular sites, no more than a pass that allocated its own
arrays held at once; only the n x m products are allocated per pass.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotri

from .gauss_lik import (_LOG_2PI, V_ROUNDING, NotSPDError, _checked_q, _checked_rows,
                        _lq_weights, _pass_buffer, _take_factor)
from .matern import MaternParams

# Eigenvalue floor of std_errs' PD surrogate of J, relative to the largest.
J_EIG_FLOOR = 1e-10


class SingularJError(np.linalg.LinAlgError):
    """J is singular beyond the eigenvalue floor; carries a condition estimate."""

    def __init__(self, msg, cond=None):
        super().__init__(msg)
        self.cond = cond


@dataclass(frozen=True)
class SandwichParts:
    """Plug-in K and J of the weighted terms over m replicates.

    The raw K = mean(U* U*') and J = mean(V*) are K e^(2 log_scale) and
    J e^log_scale; ``log_scale`` is 0 at q = 1.
    """

    K: np.ndarray
    J: np.ndarray
    m: int
    log_scale: float = 0.0


@dataclass(frozen=True)
class StdErrs:
    """Sandwich standard deviations per replicate, with how J was inverted.

    ``std_errs`` defines ``se``, ``convention`` and ``cond``.
    """

    se: np.ndarray
    convention: str = "absolute"
    cond: float = float("nan")


# The strict upper triangle of a diagonal block of ``_mirror_lower``.
_UPPER = np.triu(np.ones((64, 64), dtype=bool), 1)


def _mirror_lower(a):
    """Copy the lower triangle of the square array a onto its upper, in place.

    Block by block, so no n x n temporary is allocated.
    """
    n = a.shape[0]
    for lo in range(0, n, 64):
        hi = min(lo + 64, n)
        d = a[lo:hi, lo:hi]
        np.copyto(d, d.T, where=_UPPER[:hi - lo, :hi - lo])
        a[lo:hi, hi:] = a[hi:, lo:hi].T


@dataclass(frozen=True)
class _Pass:
    """One derivative pass at theta = (sigma2, beta, nu) and q, in O(m).

    ``g`` holds every replicate's gradient g_i (3, m), ``w`` the weights
    (m,), ``S`` = sum w_i H_i (3, 3), ``log_det_r`` log|R| of the pass's
    factor and ``log_scale`` the log scale s; n is the number of sites.
    """

    theta: MaternParams
    q: float
    n: int
    g: np.ndarray
    w: np.ndarray
    S: np.ndarray
    log_det_r: float
    log_scale: float

    def _total(self, q):
        # the weights' total: m at q = 1, 1 below
        return float(self.g.shape[1]) if q == 1.0 else 1.0

    def hessian(self, q):
        """(gbar, H): gradient and Hessian of the log-domain value V at q, in theta.

        The weights are the pass's own at its q, and at any other q they are
        re-weighted from l_i = -sigma2 g_i[0], which is -z_i' Sigma^-1 z_i / 2
        up to a constant shared by all replicates; S is rescaled to their
        total, with the H_i weighted as at the pass.
        """
        w = self.w if q == self.q else _lq_weights(-self.theta.sigma2 * self.g[0], q)[1]
        gbar = self.g @ w
        H = self.S * (self._total(q) / self._total(self.q))
        if q < 1.0:
            G = self.g - gbar[:, None]
            H += (1.0 - q) * ((G * w) @ G.T)
        return gbar, 0.5 * (H + H.T)

    def newton_step(self, q):
        """-H^-1 gbar in (sigma2, beta, nu) from ``hessian(q)``; None unless H < 0."""
        gbar, H = self.hessian(q)
        if np.isfinite(H).all() and np.isfinite(gbar).all() and np.linalg.eigvalsh(H).max() < 0:
            return -np.linalg.solve(H, gbar)
        return None

    def rounding_floor(self, value):
        """V_ROUNDING times the size of the terms that V, the value at theta, sums.

        Each l_i is -(1/2)(n log 2 pi + n log sigma2 + log|R| + a_i), with
        a_i = z_i' Sigma^-1 z_i = n + 2 sigma2 g_i[0].  V can sit near 0 by
        cancellation while its rounding follows the size of those terms,
        (1/2)(n (log 2 pi + |log sigma2|) + |log|R|| + max a), times m at
        q = 1, where V sums the l_i; the floor is at least V_ROUNDING |V|.
        """
        n, s2 = self.n, self.theta.sigma2
        a = n + 2.0 * s2 * self.g[0]
        size = 0.5 * (n * (_LOG_2PI + abs(np.log(s2))) + abs(self.log_det_r) + a.max())
        return V_ROUNDING * max(abs(value), self._total(self.q) * size)


def _weighted_derivs(Z, locs, theta, q, ws=None):
    """The ``_Pass`` of the columns of Z (n x m) at theta and q (see the module docstring).

    A factor of R made here is made in the workspace ``ws`` where one is
    given (``gauss_lik._take_factor``).

    Raises ValueError where Z's rows do not match ``locs`` or q lies
    outside (0, 1], NotSPDError carrying MaternParams(1, beta, nu) where R
    cannot be factored, and NotSPDError carrying theta where potri fails.
    """
    Z = np.asarray(Z, dtype=float)
    n, m = Z.shape
    _checked_rows(n, locs.n)
    _checked_q(q)
    s2 = theta.sigma2
    uniq, inv = locs._dist_unique
    # Sigma^-1 overwrites R's factor, which this pass alone holds; a factor
    # made here makes the terms too
    chol, ws = _take_factor(locs, theta.beta, theta.nu, ws, m)
    Sinv, info = dpotri(chol.L, lower=1, overwrite_c=1)
    if info != 0:
        raise NotSPDError("Sigma^-1 from the Cholesky factor failed (potri info %d)"
                          % info, theta=theta)
    _mirror_lower(Sinv)
    Sinv /= s2
    W = Sinv @ Z                               # Sigma^-1 z for all replicates
    quad = np.einsum("ij,ij->j", Z, W)         # z' Sigma^-1 z
    value, w = _lq_weights(-0.5 * quad, q)
    w_sum = float(w.sum())

    # the slots of the module docstring, each at least 2u long
    u = uniq.size
    flat, grad, d2 = _pass_buffer(ws, n, u, m)
    slot = [s[:n * n].reshape(n, n) for s in flat]
    dS = [np.take(grad[k], inv, mode="clip", out=slot[1 + k]) for k in range(2)]
    B = [slot[0], slot[3 if m >= n else 1]]
    M = slot[4 if m >= n else 2]
    quad_d = np.empty((2, m))                                  # w_i' dS_j w_i
    dSW = []
    for k in range(2):
        dS[k] *= s2
        dSW.append(dS[k] @ W)
        quad_d[k] = np.einsum("im,im->m", dSW[k], W)
        np.matmul(Sinv, dS[k], out=B[k])
        # <dS_j, B_k M> below reads dS_j W where m < n, else dS_j
        if m >= n:
            dSW[k] = None
    tr_B = np.array([np.trace(b) for b in B])

    g = np.empty((3, m))
    g[0] = 0.5 * (quad - n) / s2
    g[1:] = 0.5 * quad_d - 0.5 * tr_B[:, None]

    H = np.empty((3, 3))
    H[0, 0] = 0.5 * w_sum * n / s2 ** 2 - float(w @ quad) / s2 ** 2
    H[0, 1:] = H[1:, 0] = -0.5 * (quad_d @ w) / s2        # <dS_j, M> / s2
    pairs = ((0, 0), (0, 1), (1, 1))
    tr_BB = [np.einsum("ab,ba->", B[j], B[k]) for j, k in pairs]
    # <dS_j, B_k M> = sum_i w_i (dS_j w_i)' B_k w_i, by the smaller product,
    # one k at a time
    dS_BM = []
    if m < n:
        BW = flat[2][:n * m].reshape(n, m)                      # in M's slot
        for k in range(2):
            np.matmul(B[k], W, out=BW)
            dS_BM += [np.einsum("im,im->m", dSW[j], BW) @ w for j in range(k + 1)]
        del dSW
        np.matmul(W * w, W.T, out=M)
    else:
        np.matmul(W * w, W.T, out=M)
        for k in range(2):
            BM = np.matmul(B[k], M, out=slot[5])
            dS_BM += [np.vdot(dS[j], BM) for j in range(k + 1)]
    # the Hessian slices enter only through <d2S_jk, M - w_sum Sigma^-1>,
    # so that matrix is summed onto the unique distances once; R's Hessian
    # terms times s2 are M's
    Sinv *= w_sum
    M -= Sinv
    # into B_0's slot, read no more: add.at sums in bincount's order, to the
    # same bits, but into a given array
    R = flat[0][:u]
    R.fill(0.0)
    np.add.at(R, inv.ravel(), M.ravel())
    for (j, k), tr, d2_jk, dv in zip(pairs, tr_BB, d2, dS_BM):
        H[j + 1, k + 1] = H[k + 1, j + 1] = (0.5 * w_sum * tr
                                             + 0.5 * s2 * float(d2_jk @ R) - dv)
    log_scale = 0.0
    if q < 1.0:
        log_det = chol.log_det + n * np.log(s2)            # log|Sigma|
        log_scale = (1.0 - q) * (value - 0.5 * (n * _LOG_2PI + log_det))
    return _Pass(theta, q, n, g, w, H, chol.log_det, log_scale)


def ustar_all(reps, locs, theta, q):
    """The raw U* of every replicate, shape (3, m), from one factor of R."""
    p = _weighted_derivs(reps.data, locs, theta, q)
    return p.w * p.g * np.exp(p.log_scale)


def sandwich(reps, locs, theta_hat, q):
    """SandwichParts at theta_hat over the observed replicates.

    Raises ValueError with fewer than 2 replicates.
    """
    if reps.m < 2:
        raise ValueError("sandwich needs at least 2 replicates")
    p = _weighted_derivs(reps.data, locs, theta_hat, q)
    m = reps.m
    U = p.w * p.g
    K = (U @ U.T) / m
    J = (p.S + (1.0 - q) * (U @ p.g.T)) / m
    K = 0.5 * (K + K.T)
    J = 0.5 * (J + J.T)
    return SandwichParts(K=K, J=J, m=m, log_scale=p.log_scale)


def std_errs(parts):
    """StdErrs with se = sqrt(diag(J^-1 K J^-1)), per replicate.

    The asymptotic variance of an M-estimator (White 1982) and of the MLqE
    (Ferrari & Yang 2010); divide se by sqrt(m) for the standard error of an
    estimate from m replicates.  J at a maximum is close to minus an
    information matrix, so J^-1 acts through a positive-definite surrogate:
    with d = sqrt(|diag J|), the spectrum of J / (d d') is floored in
    absolute value at J_EIG_FLOOR times its largest, giving S~, and
    se = sqrt(diag(S~^-1 K~ S~^-1)) / d with K~ = K / (d d').  So se and
    ``cond``, the condition number of S~, follow any change of a parameter's
    units exactly, a J that is merely badly scaled is not floored, and se is
    invariant under (K, J) -> (K/s^2, J/s), so the sandwich's common scale
    drops out.  ``convention`` is "negated" when J is entirely nonpositive
    (the usual case at a maximum), "positive" when entirely nonnegative,
    else "absolute".  Raises SingularJError for a non-finite K or J, a J
    that is zero, or standard errors that are not finite.
    """
    J = np.asarray(parts.J, dtype=float)
    K = np.asarray(parts.K, dtype=float)
    if not (np.all(np.isfinite(J)) and np.all(np.isfinite(K))):
        raise SingularJError("K or J contains non-finite entries")
    d = np.sqrt(np.abs(np.diag(J)))
    d[d == 0.0] = 1.0   # a zero diagonal entry (J = 0 included) stays unscaled
    dd = np.outer(d, d)
    lam, Q = np.linalg.eigh(J / dd)
    scale = float(np.abs(lam).max())
    if np.all(lam <= 0.0):
        convention = "negated"
    elif np.all(lam >= 0.0):
        convention = "positive"
    else:
        convention = "absolute"
    s = np.maximum(np.abs(lam), J_EIG_FLOOR * scale)
    if not np.all(np.isfinite(s)) or s.min() == 0.0:
        raise SingularJError("J is singular beyond regularization",
                             cond=float("inf"))
    cond = float(s.max() / s.min())
    S_inv = (Q * (1.0 / s)) @ Q.T
    se = np.sqrt(np.clip(np.diag(S_inv @ (K / dd) @ S_inv), 0.0, None)) / d
    if not np.all(np.isfinite(se)):
        raise SingularJError("standard errors are not finite", cond=cond)
    return StdErrs(se=se, convention=convention, cond=cond)
