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
into K = (1/m) sum U U' and J = (1/m) sum V, and keeps every U_i beside
them (``SandwichParts``): the raw U*_i is U_i e^s, which at q = 1 is U_i
itself, the score.  s stays apart, since e^s can leave the float range.

The derivative pass (``gauss_lik._Workspace.derivs``) gives every g_i and
S = sum w_i H_i, O(m) numbers, and forms no replicate's Hessian; J needs
no more:

    m J = S + (1-q) sum w_i g_i g_i'.
"""

from dataclasses import dataclass

import numpy as np

from .gauss_lik import _Workspace

# Eigenvalue floor of std_errs' PD surrogate of J, relative to the largest.
J_EIG_FLOOR = 1e-10


class SingularJError(np.linalg.LinAlgError):
    """J is singular beyond the eigenvalue floor; carries a condition estimate."""

    def __init__(self, msg, cond=None):
        super().__init__(msg)
        self.cond = cond


@dataclass(frozen=True)
class SandwichParts:
    """Plug-in K and J of the weighted terms over m replicates, and the terms U.

    ``U`` holds the (3, m) weighted gradients w_i g_i that K and J are
    formed from.  The raw U*, K = mean(U* U*') and J = mean(V*) are
    U e^log_scale, K e^(2 log_scale) and J e^log_scale; ``log_scale`` is 0
    at q = 1.  ``U`` is None on parts built from K, J and m alone.
    """

    K: np.ndarray
    J: np.ndarray
    m: int
    log_scale: float = 0.0
    U: np.ndarray = None


@dataclass(frozen=True)
class StdErrs:
    """Sandwich standard deviations per replicate, with how J was inverted.

    ``std_errs`` defines ``se``, ``convention`` and ``cond``.
    """

    se: np.ndarray
    convention: str = "absolute"
    cond: float = float("nan")


def sandwich(reps, locs, theta_hat, q):
    """SandwichParts at theta_hat over the observed replicates.

    Raises ValueError with fewer than 2 replicates.
    """
    if reps.m < 2:
        raise ValueError("sandwich needs at least 2 replicates")
    p = _Workspace(reps, locs, q).derivs(theta_hat)
    m = reps.m
    U = p.w * p.g
    K = (U @ U.T) / m
    J = (p.S + (1.0 - q) * (U @ p.g.T)) / m
    K = 0.5 * (K + K.T)
    J = 0.5 * (J + J.T)
    return SandwichParts(K=K, J=J, m=m, log_scale=p.log_scale, U=U)


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
    # past the float range se is inf or NaN, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        se = np.sqrt(np.clip(np.diag(S_inv @ (K / dd) @ S_inv), 0.0, None)) / d
    if not np.all(np.isfinite(se)):
        raise SingularJError("standard errors are not finite", cond=cond)
    return StdErrs(se=se, convention=convention, cond=cond)
