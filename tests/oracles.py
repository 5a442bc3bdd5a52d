"""Reference quantities the tests compare the package against.

The package evaluates the kernel's derivatives as per-distance terms, made
only by a score, in the walk that makes R's values
(``matern._cov_into``'s ``terms``), and scores the Lq objective in the log
domain (``gauss_lik._lq_weights``).  The oracles of the tests want the
terms on their own, made by the package's term maker with a Bessel call
of their own at each order (``kernel_terms``), and everything in its
textbook form: the gradient (3,) and Hessian (3, 3) of M(h; theta) in
theta = (sigma2, beta, nu), the same over a distance matrix, per-replicate
log-likelihoods, the exact Lq sum sum_i expm1((1-q) l_i) / (1-q), the
profiled score (sigma2, V) of one (beta, nu), the order derivatives'
trapezoid rule with a step per point, one
replicate's U* and V*, every replicate's gradient and Hessian from Sigma's
own factor (the reference of the derivative pass), one vector's
variogram, and every replicate's variogram binned one at a time.  This
module assembles them from the package's own pieces, so the oracles check
the code the fit and the sandwich run.  Two closed forms of the MLqE under
the model need no piece at all: the weights' effective sample size and
their fourth-moment ratio.
"""

import numpy as np
from scipy.linalg import cho_solve

from lqmatern.gauss_lik import (_LOG_2PI, ReplicateSet, _lq_weights, _whiten, _Workspace,
                                chol_factor)
from lqmatern.matern import (_QUAD_BLOCK, _QUAD_CUT, _QUAD_STEP, MaternParams, _term_rows,
                             _terms, _tnu_k, build_cov, matern_cov)
from lqmatern.variogram import (DEFAULT_N_BINS, VariogramCurve,
                                variogram_by_replicate)


def kernel_terms(h, beta, nu, panels=None):
    """The five derivative terms of M / sigma2 at (beta, nu) at the 1-D distances h >= 0.

    (grad, hess), as ``matern._cov_into`` writes its ``terms``: the beta
    and nu derivatives (2, u), and the (beta, beta), (beta, nu) and
    (nu, nu) second derivatives (3, u), per unit variance.  With ``panels``
    built over the positive entries of the sorted h
    (``LocationSet._dist_cheb``) they are Chebyshev interpolants of the
    terms at the panels' nodes, else the terms at every positive distance,
    times e^-t; either way from the package's term maker, ``_terms``, with
    no value of R made alongside.
    """
    out = np.empty((2,) + h.shape), np.empty((3,) + h.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if panels is not None:
            live, k = panels.span(beta)
            t = panels.nodes[:k] / beta
            panels.at(beta, live, [(_terms(t, beta, nu, _tnu_k(nu, t)),
                                    _term_rows(h.size, panels, out))], None)
        else:
            t = h / beta
            pos = t > 0.0
            t = t[pos]
            made = _terms(t, beta, nu, _tnu_k(nu, t)) * np.exp(-t)
            for o, rows in zip(out, (made[:2], made[2:])):
                o.fill(0.0)
                o[:, pos] = rows
    return out


def order_derivs_per_point(nu, t):
    """``matern._order_derivs`` with each t's own trapezoid step, the rule it refines.

    The step at t is _QUAD_STEP min(1, t^-1/2), and a block of
    _QUAD_BLOCK points shares its largest point count, cut / step; every
    integrand is formed in full per point, (block, points) arrays each.
    """
    ts = t.ravel()
    out = np.empty((3, ts.size))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a in range(0, ts.size, _QUAD_BLOCK):
            tb = ts[a:a + _QUAD_BLOCK, None]
            h = _QUAD_STEP * np.minimum(1.0, tb ** -0.5)
            cut = np.arccosh(1.0 + (_QUAD_CUT + 2.0 * nu * np.log1p(1.0 / tb)) / tb)
            count = np.max(cut / h, where=np.isfinite(tb), initial=0.0)
            u = h * np.arange(1, int(np.ceil(count)) + 1)
            half = np.sinh(0.5 * u)
            w = h * u * np.exp(-2.0 * tb * half * half)
            out[0, a:a + _QUAD_BLOCK] = np.sum(w * np.sinh(nu * u), axis=1)
            out[1, a:a + _QUAD_BLOCK] = np.sum(w * u * np.cosh(nu * u), axis=1)
            out[2, a:a + _QUAD_BLOCK] = np.sum(w * np.sinh((nu - 1.0) * u), axis=1)
    return out.reshape((3,) + t.shape)


def kernel_derivs(h, theta, locs=None):
    """Value, gradient and Hessian of M(h; theta) in theta = (sigma2, beta, nu).

    Scalar or array h >= 0; the results have shapes h.shape, (3,) + h.shape
    and (3, 3) + h.shape.  Without ``locs`` the value is ``matern_cov``'s
    and the derivative terms are ``kernel_terms``' at every distance.
    With ``locs``, h is its sorted unique distances, and both are evaluated
    as the fit and the pass take them: the value is ``build_cov``'s, and
    the terms come from the set's panels, if any.  At h = 0 the gradient is
    (1, 0, 0) and the Hessian 0.  The terms are made per unit variance, and
    M is linear in sigma2: the beta and nu derivatives of M / sigma2 are
    also the mixed (sigma2, .) Hessian entries, the other entries are
    sigma2 times their terms, and the (sigma2, sigma2) entry is 0.
    """
    shape = np.shape(h)
    h = np.atleast_1d(np.asarray(h, dtype=float)).ravel()
    corr = MaternParams(1.0, theta.beta, theta.nu)
    if locs is None:
        r, panels = matern_cov(h, corr), None
    else:
        r, panels = np.empty_like(h), locs._dist_cheb
        r[locs._dist_unique[1]] = build_cov(locs, corr)
    (m_b, m_n), (h_bb, h_bn, h_nn) = kernel_terms(h, theta.beta, theta.nu, panels)
    s2 = theta.sigma2
    grad = np.stack([r, s2 * m_b, s2 * m_n])
    hess = np.stack([np.zeros_like(r), m_b, m_n,
                     m_b, s2 * h_bb, s2 * h_bn,
                     m_n, s2 * h_bn, s2 * h_nn])
    return ((s2 * r).reshape(shape), grad.reshape((3,) + shape),
            hess.reshape((3, 3) + shape))


def matern_grad(h, theta):
    return kernel_derivs(h, theta)[1]


def matern_hess(h, theta):
    return kernel_derivs(h, theta)[2]


def cov_derivs(locs, theta):
    """``kernel_derivs`` over a location set's distance matrix, as the pass evaluates it."""
    uniq, inv = locs._dist_unique
    val, grad, hess = kernel_derivs(uniq, theta, locs)
    return val[inv], grad[:, inv], hess[:, :, inv]


def build_cov_grad(locs, theta):
    return cov_derivs(locs, theta)[1]


def loglik_columns(data, chol):
    """Gaussian log-likelihood of each column of data (n, m) from one factor."""
    n = chol.L.shape[0]
    Y = _whiten(data, chol)
    return -0.5 * n * _LOG_2PI - 0.5 * np.einsum("ij,ij->j", Y, Y) - 0.5 * chol.log_det


def log_likelihood(z, chol):
    return float(loglik_columns(np.asarray(z, dtype=float)[:, None], chol)[0])


def lq_of_loglik(l, q):
    """The exact Lq value expm1((1-q) l) / (1-q) of a density with log l; l at q = 1."""
    if q == 1.0:
        return l
    return np.expm1(l * (1.0 - q)) / (1.0 - q)


def total_lq(reps, locs, theta, q):
    """The exact Lq sum over the replicates at one parameter point."""
    chol = chol_factor(build_cov(locs, theta))
    return float(np.sum(lq_of_loglik(loglik_columns(reps.data, chol), q)))


def profile_lq(reps, locs, beta, nu, q):
    """(sigma2, V) at (beta, nu), with sigma2 solved on (0, inf), as the fit scores a point.

    The point is scored through a workspace of its own over (reps, locs,
    q) (``gauss_lik._Workspace.score``), which checks them as a fit's
    does; raises NotSPDError carrying MaternParams(1, beta, nu) if R cannot
    be factored, and ValueError where V has no maximum in sigma2 (a
    replicate that is 0 at every site, at q < 1).
    """
    return _Workspace(reps, locs, q).score(beta, nu)


def ess_fraction(n, q):
    """(q(2-q))^(n/2): the limit of ESS/m = 1 / (m sum w_i^2) at theta_q under the model.

    Under the model, with Sigma_q = q Sigma0, a weight f_theta_q(z)^(1-q)
    times the N(0, Sigma0) density of z is proportional to the N(0,
    Sigma_q) density, and its square times that density to the N(0, Sigma_q
    / (2-q)) density, so the weights' moments are Gaussian integrals.
    """
    return (q * (2.0 - q)) ** (n / 2)


def weight_moment_ratio(n, q):
    """F = E[w^4] / E[w^2]^2 = ((2-q)^2 / (q(4-3q)))^(n/2) under the model at theta_q.

    sum w_i^2 over m replicates has a relative spread of about
    sqrt((F - 1) / m), so a plug-in from the weights needs m >> F.
    """
    return ((2.0 - q) ** 2 / (q * (4.0 - 3.0 * q))) ** (n / 2)


def ustar(z, locs, theta, q):
    """One replicate's U* = f^(1-q) grad log f, a 3-vector."""
    p = _Workspace(ReplicateSet(np.asarray(z, dtype=float)[:, None]), locs, q).derivs(theta)
    return (p.w * p.g)[:, 0] * np.exp(p.log_scale)


def vstar(z, locs, theta, q):
    """One replicate's V*, the exact theta-Jacobian of U*; symmetric 3 x 3."""
    p = _Workspace(ReplicateSet(np.asarray(z, dtype=float)[:, None]), locs, q).derivs(theta)
    out = (p.S + (1.0 - q) * (p.g @ p.g.T)) * np.exp(p.log_scale)
    return 0.5 * (out + out.T)


def per_replicate_derivs(Z, locs, theta):
    """Every replicate's g (3, m), H (3, 3, m) and log density l (m,).

    The reference for the weighted pass: each replicate's 3 x 3 Hessian is
    formed in full, from the same kernel pass, one n x n Hessian slice at a
    time, with Sigma = sigma2 R factored as it stands and every product
    with Sigma^-1 taken by solves on that factor.
    """
    m = Z.shape[1]
    uniq, inv = locs._dist_unique
    val, grad, hess = kernel_derivs(uniq, theta, locs)
    chol = chol_factor(val[inv])
    cl = (chol.L, True)
    W = cho_solve(cl, Z)
    Sinv = cho_solve(cl, np.eye(Z.shape[0]))
    dS = grad[:, inv]
    B = Sinv @ dS
    A = dS @ W                                 # dS_j w per replicate
    SinvA = np.stack([cho_solve(cl, A[j]) for j in range(3)])
    g = 0.5 * np.sum(W * A, axis=1) - 0.5 * np.trace(B, axis1=1, axis2=2)[:, None]
    H = np.empty((3, 3, m))
    for j in range(3):
        for k in range(j, 3):
            d2S = hess[j, k][inv]
            H[j, k] = H[k, j] = (0.5 * np.sum(B[j] * B[k].T)
                                 - np.sum(A[j] * SinvA[k], axis=0)
                                 + 0.5 * np.sum(W * (d2S @ W), axis=0)
                                 - 0.5 * np.vdot(Sinv, d2S))
    return g, H, loglik_columns(Z, chol)


def sigma_route_pass(Z, locs, theta, q):
    """The derivative pass's (g, w, H, log_scale) from ``per_replicate_derivs``.

    H = sum w_i H_i with the weights of the log densities, and the log
    scale (1-q) logsumexp((1-q) l) / (1-q) (0 at q = 1): the package's pass
    factors R instead of Sigma and multiplies by Sigma^-1 = R^-1 / sigma2.
    """
    g, H, lvec = per_replicate_derivs(Z, locs, theta)
    value, w = _lq_weights(lvec, q)
    return g, w, (H * w).sum(axis=2), (1.0 - q) * value if q < 1.0 else 0.0


def empirical_variogram(z, locs, n_bins=DEFAULT_N_BINS, max_dist=None):
    """The VariogramCurve of one vector z of values at ``locs``."""
    z = ReplicateSet(np.asarray(z, dtype=float).reshape(-1, 1))
    return variogram_by_replicate(z, locs, n_bins, max_dist)[0]


def variogram_one_at_a_time(reps, locs, n_bins=DEFAULT_N_BINS, max_dist=None):
    """Every replicate's VariogramCurve, one replicate at a time.

    The pairs in ``np.triu_indices`` order, two gathers and one weighted
    ``np.bincount`` per replicate, which adds each bin's squared
    differences in pair order: the bits ``variogram_by_replicate`` keeps.
    """
    uniq, inv = locs._dist_unique
    max_dist = float(0.5 * uniq[-1] if max_dist is None else max_dist)
    i, j = np.triu_indices(locs.n, 1)
    d = uniq[inv[i, j]]
    keep = d <= max_dist
    i, j, d = i[keep], j[keep], d[keep]
    width = max_dist / n_bins
    idx = np.minimum((d / width).astype(int), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    centers = (np.arange(n_bins) + 0.5) * width
    curves = []
    for z in reps.data.T:
        sums = np.bincount(idx, weights=(z[i] - z[j]) ** 2, minlength=n_bins)
        gamma = np.divide(sums, 2.0 * counts, out=np.full(n_bins, np.nan),
                          where=counts > 0)
        curves.append(VariogramCurve(centers, gamma, counts))
    return curves
