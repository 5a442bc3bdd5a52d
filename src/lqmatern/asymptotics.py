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

``sandwich`` averages over replicates: K = (1/m) sum U* U*', J = (1/m) sum V*.
All quadratic forms route through one Cholesky factorization (triangular
solves, never explicit inverses), with the replicate loop fully batched.

``std_errs`` implements the printed standard-error form: the r-th diagonal
entry of J^-1/2 K^1/2 J^-1/2.  J estimated from data at a maximum is close
to minus an information matrix, hence negative definite, so the square roots
act on a positive-definite surrogate S built by flooring the absolute
eigenvalues of J (convention reported).  The classical sandwich diagonal
sqrt(diag(S^-1 K S^-1)) is exposed alongside as ``se_sandwich``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .gauss_lik import NotSPDError, chol_factor, loglik_columns
from .matern import build_cov, build_cov_grad, build_cov_hess

# Relative eigenvalue floor used when building the PD surrogate of J.
J_EIG_FLOOR = 1e-10


class SingularJError(np.linalg.LinAlgError):
    """J is singular beyond the eigenvalue floor; carries a condition estimate."""

    def __init__(self, msg, cond=None):
        super().__init__(msg)
        self.cond = cond


@dataclass(frozen=True)
class SandwichParts:
    """Plug-in moment matrices K = mean(U*U*') and J = mean(V*), with m."""

    K: np.ndarray
    J: np.ndarray
    m: int


@dataclass(frozen=True)
class StdErrs:
    """Per-parameter asymptotic standard deviations.

    ``se`` follows the printed J^-1/2 K^1/2 J^-1/2 diagonal; ``se_sandwich``
    is the classical sqrt(diag(J^-1 K J^-1)) alternative.  ``convention``
    records how J's sign was handled and ``cond`` the condition number of
    the PD surrogate.
    """

    se: np.ndarray
    se_sandwich: np.ndarray = None
    convention: str = "absolute"
    cond: float = float("nan")


def _scores_batch(Z, locs, theta, q):
    """U* (3, m) and V* (3, 3, m) for all columns of Z at one theta."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 1:
        Z = Z[:, None]
    n, m = Z.shape
    if locs.n != n:
        raise ValueError("data dimension %d does not match %d locations" % (n, locs.n))
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1], got %r" % (q,))

    cov = build_cov(locs, theta)
    try:
        chol = chol_factor(cov, jitter_scale=theta.sigma2)
    except NotSPDError as err:
        err.theta = theta
        raise
    cl = (chol.L, True)
    dS = build_cov_grad(locs, theta)       # (3, n, n)
    d2S = build_cov_hess(locs, theta)      # (3, 3, n, n)

    W = cho_solve(cl, Z, check_finite=False)  # Sigma^-1 z, all replicates
    lvec = loglik_columns(Z, chol)
    fpow = np.exp(lvec * (1.0 - q)) if q < 1.0 else np.ones(m)

    # B_j = Sigma^-1 dS_j and the trace pieces; per-theta cost, not per-replicate
    B = np.stack([cho_solve(cl, dS[j], check_finite=False) for j in range(3)])
    tr_B = np.trace(B, axis1=1, axis2=2)
    tr_BB = np.einsum("jab,kba->jk", B, B)
    tr_C = np.array([[np.trace(cho_solve(cl, d2S[j, k], check_finite=False))
                      for k in range(3)] for j in range(3)])

    A = np.einsum("jab,bm->jam", dS, W)            # dS_j w per replicate
    SinvA = np.stack([cho_solve(cl, A[j], check_finite=False) for j in range(3)])
    quad1 = np.einsum("am,jam->jm", W, A)          # w' dS_j w
    cross = np.einsum("jam,kam->jkm", A, SinvA)    # (dS_j w)' Sigma^-1 (dS_k w)
    quad2 = np.einsum("am,jkab,bm->jkm", W, d2S, W)

    g = 0.5 * quad1 - 0.5 * tr_B[:, None]
    H = (0.5 * tr_BB[:, :, None] - 0.5 * tr_C[:, :, None]
         + 0.5 * quad2 - cross)

    U = fpow * g
    V = (1.0 - q) * fpow * np.einsum("jm,km->jkm", g, g) + fpow * H
    return U, V


def ustar(z, locs, theta, q):
    """Per-replicate estimating function U* = f^(1-q) grad log f, a 3-vector."""
    U, _ = _scores_batch(np.asarray(z, dtype=float), locs, theta, q)
    return U[:, 0]


def vstar(z, locs, theta, q):
    """Exact theta-Jacobian of U* at one replicate; symmetric 3x3."""
    _, V = _scores_batch(np.asarray(z, dtype=float), locs, theta, q)
    out = V[:, :, 0]
    return 0.5 * (out + out.T)


def ustar_all(reps, locs, theta, q):
    """U* for every replicate, shape (3, m); one shared factorization."""
    U, _ = _scores_batch(reps.data, locs, theta, q)
    return U


def sandwich(reps, locs, theta_hat, q):
    """Plug-in K and J at theta_hat over the observed replicates."""
    if reps.m < 2:
        raise ValueError("sandwich needs at least 2 replicates")
    U, V = _scores_batch(reps.data, locs, theta_hat, q)
    m = reps.m
    K = (U @ U.T) / m
    J = np.mean(V, axis=2)
    K = 0.5 * (K + K.T)
    J = 0.5 * (J + J.T)
    return SandwichParts(K=K, J=J, m=m)


def _psd_sqrt(mat, inverse=False):
    # symmetric square root of a PSD matrix, clipping small negatives
    lam, Q = np.linalg.eigh(mat)
    lam = np.clip(lam, 0.0, None)
    root = np.sqrt(lam)
    if inverse:
        if np.any(root == 0.0):
            raise SingularJError("matrix square root is singular")
        root = 1.0 / root
    return (Q * root) @ Q.T


def std_errs(parts):
    """Standard errors from the printed J^-1/2 K^1/2 J^-1/2 diagonal.

    J's spectrum is floored in absolute value at J_EIG_FLOOR times its
    largest absolute eigenvalue to form the PD surrogate S.  The floor is
    relative to J alone, so the answer does not change when K and J are
    rescaled to K/s^2 and J/s (both forms are invariant under that), and a
    J that is identically zero raises SingularJError.  The reported
    convention is "negated" when J was entirely nonpositive (the usual case
    at a maximum), "positive" when entirely nonnegative, else "absolute".
    """
    J = np.asarray(parts.J, dtype=float)
    K = np.asarray(parts.K, dtype=float)
    if not (np.all(np.isfinite(J)) and np.all(np.isfinite(K))):
        raise SingularJError("K or J contains non-finite entries")
    lam, Q = np.linalg.eigh(J)
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
    inv_root_S = (Q * (1.0 / np.sqrt(s))) @ Q.T
    root_K = _psd_sqrt(K)
    se = np.diag(inv_root_S @ root_K @ inv_root_S).copy()
    S_inv = (Q * (1.0 / s)) @ Q.T
    se_cls = np.sqrt(np.clip(np.diag(S_inv @ K @ S_inv), 0.0, None))
    if not np.all(np.isfinite(se)):
        raise SingularJError("standard errors are not finite", cond=cond)
    return StdErrs(se=se, se_sandwich=se_cls, convention=convention, cond=cond)
