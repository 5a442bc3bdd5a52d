"""Matern covariance function, parameter derivatives, and matrix builders.

The kernel in the (variance, range, smoothness) parametrisation:

    M(h; theta) = sigma2 * c(nu) * t^nu K_nu(t),   t = h / beta,
    c(nu) = 2^(1-nu) / Gamma(nu)

with K_nu the modified Bessel function of the second kind.  M(0) = sigma2
exactly (the h -> 0 limit), and M reduces to sigma2 * exp(-h/beta) at
nu = 1/2 and sigma2 * (1 + t) exp(-t) at nu = 3/2.

``matern_grad`` and ``matern_hess`` return the closed-form first and second
derivatives in theta = (sigma2, beta, nu).  Both come from one pass over the
distances (``_kernel_pass``), which calls scipy's K at the orders mu - 1 and
mu for mu in {nu - s, nu, nu + s}: six calls give the value, the gradient
and the Hessian together.  Derivatives in the argument of K_nu use exact
identities,

    K'_mu(t)  = -K_{mu-1}(t) - (mu/t) K_mu(t)
    K''_nu(t) = ((t^2 + nu^2) K_nu(t) - t K'_nu(t)) / t^2,

the recurrence and the modified Bessel ODE; derivatives in the order nu are
central differences with step s = 1e-4 * max(1, nu), shrunk to nu/2 near
zero.  At h = 0 all derivatives vanish except dM/dsigma2 = 1, matching the
analytic limit for nu > 0 and keeping the diagonal of the covariance matrix
exactly sigma2.

Matrix builders evaluate the kernel once per unique distance and scatter the
values back, which collapses the cost on lattice layouts where the distance
matrix has few distinct entries.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial.distance import pdist, squareform
# every Bessel evaluation of the package goes through this one binding
from scipy.special import kv as special_kv

from .specfun import digamma, log_gamma, trigamma

# Smoothness cap guarding against K_nu overflow at short distances; raise it
# before constructing MaternParams if a smoother model is really wanted.
NU_CAP = 5.0

# Relative step of the central differences in the order nu.
_NU_STEP = 1e-4

_LN2 = np.log(2.0)


@dataclass(frozen=True)
class MaternParams:
    """Matern parameter triple (variance, range, smoothness).

    All three must be strictly positive and finite; nu must not exceed the
    module-level NU_CAP.
    """

    sigma2: float
    beta: float
    nu: float

    def __post_init__(self):
        for name in ("sigma2", "beta", "nu"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError("MaternParams.%s must be positive and finite, got %r" % (name, v))
        if self.nu > NU_CAP:
            raise ValueError("MaternParams.nu = %g exceeds NU_CAP = %g" % (self.nu, NU_CAP))

    def as_array(self):
        return np.array([self.sigma2, self.beta, self.nu])

    @classmethod
    def from_array(cls, arr):
        a = np.asarray(arr, dtype=float)
        if a.shape != (3,):
            raise ValueError("expected a length-3 array (sigma2, beta, nu)")
        return cls(a[0], a[1], a[2])


@dataclass(frozen=True, eq=False)
class LocationSet:
    """Planar locations in the unit square, with cached pairwise distances."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 2 or c.shape[1] != 2:
            raise ValueError("coords must have shape (n, 2)")
        if c.shape[0] < 1:
            raise ValueError("need at least one location")
        if not np.all(np.isfinite(c)):
            raise ValueError("coords must be finite")
        if c.min() < 0.0 or c.max() > 1.0:
            raise ValueError("coords must lie in the unit square [0,1]^2")
        object.__setattr__(self, "coords", c)

    @property
    def n(self):
        return self.coords.shape[0]

    @cached_property
    def dists(self):
        """Full Euclidean distance matrix; errors on coincident points."""
        if self.n == 1:
            return np.zeros((1, 1))
        d = squareform(pdist(self.coords))
        off = d[~np.eye(self.n, dtype=bool)]
        if off.min() <= 0.0:
            raise ValueError("duplicate locations: zero pairwise distance found")
        return d

    @cached_property
    def _dist_unique(self):
        # unique distances + inverse map; lattice layouts have O(n) uniques
        d = self.dists
        uniq, inv = np.unique(d.ravel(), return_inverse=True)
        return uniq, inv.reshape(d.shape)


# === kernel evaluation ======================================================


def _coef(nu):
    # c(nu) = 2^(1-nu) / Gamma(nu), evaluated in log space
    return np.exp((1.0 - nu) * _LN2 - log_gamma(nu))


def _limit_patched(nu, gk):
    # K_nu overflows to inf as t -> 0 for moderate nu while t^nu underflows,
    # producing inf or nan; there the product's limit Gamma(nu) 2^(nu-1) is
    # exact to double precision, so substitute it
    bad = ~np.isfinite(gk)
    if np.any(bad):
        gk = np.where(bad, np.exp(log_gamma(nu) + (nu - 1.0) * _LN2), gk)
    return gk


def _xnu_k_safe(nu, t):
    """t^nu K_nu(t) on t > 0 with the t -> 0 overflow limit patched in."""
    with np.errstate(invalid="ignore", over="ignore"):
        out = t ** nu * special_kv(nu, t)
    return _limit_patched(nu, out)


def _validate_h(h):
    ha = np.asarray(h, dtype=float)
    if np.any(~(ha >= 0.0)):
        raise ValueError("distance h must be nonnegative")
    return ha


def matern_cov(h, theta):
    """Matern covariance M(h; theta); accepts scalar or array h >= 0."""
    ha = _validate_h(h)
    t = np.atleast_1d(ha / theta.beta)
    out = np.ones_like(t)
    pos = t > 0.0
    if np.any(pos):
        out[pos] = _coef(theta.nu) * _xnu_k_safe(theta.nu, t[pos])
    out *= theta.sigma2
    if np.ndim(h) == 0:
        return float(out[0])
    return out.reshape(ha.shape)


# === one Bessel pass for the value and the theta-derivatives ================


def _nu_step(nu):
    # relative step 1e-4 * max(1, nu); it must keep nu - s > 0 so every order
    # stays clear of the axis, so shrink to nu/2 when it would cross zero
    s = _NU_STEP * max(1.0, nu)
    if nu - s <= 0.0:
        s = 0.5 * nu
    return s


def _bessel_k_pair(mu, t):
    """K_mu(t) and K'_mu(t) from kv at the two orders mu - 1 and mu.

    K'_mu = -K_{mu-1} - (mu/t) K_mu is -(K_{mu-1} + K_{mu+1})/2 with the
    recurrence K_{mu+1} = K_{mu-1} + (2 mu/t) K_mu substituted; both terms
    have the same sign, so nothing cancels.  For mu < 1 the order mu - 1 is
    negative, which kv evaluates through K_{-a} = K_a.
    """
    k = special_kv(mu, t)
    return k, -special_kv(mu - 1.0, t) - (mu / t) * k


def _bessel_k_dxx(mu, t, k, kp):
    """K''_mu(t) from the modified Bessel ODE t^2 K'' + t K' - (t^2 + mu^2) K = 0."""
    return ((t * t + mu * mu) * k - t * kp) / (t * t)


def _order_stencil(nu, t, s):
    """K_nu, K'_nu and the nu-derivatives of g = t^nu K_nu and p = t^nu K'_nu.

    Order derivatives have no workable closed form, so they are central
    differences at nu +/- s over ``_bessel_k_pair``: six kv calls in all.
    The second difference reuses the very g(nu +/- s) and g(nu) of the first.
    Returns (K_nu, K'_nu, t^nu, dg/dnu, d2g/dnu2, dp/dnu).
    """
    k, kp = _bessel_k_pair(nu, t)
    k_hi, kp_hi = _bessel_k_pair(nu + s, t)
    k_lo, kp_lo = _bessel_k_pair(nu - s, t)
    tnu, t_hi, t_lo = t ** nu, t ** (nu + s), t ** (nu - s)
    g_hi, g_lo = t_hi * k_hi, t_lo * k_lo
    dgk = (g_hi - g_lo) / (2.0 * s)
    d2gk = (g_hi - 2.0 * (tnu * k) + g_lo) / (s * s)
    dpk = (t_hi * kp_hi - t_lo * kp_lo) / (2.0 * s)
    return k, kp, tnu, dgk, d2gk, dpk


def _kernel_pass(h, theta):
    """Value, gradient and Hessian of M(h; theta) over a 1-D array h >= 0.

    One Bessel pass serves all three (six kv calls, ``_order_stencil``).  The
    value is computed with matern_cov's operations, small-t patch included,
    so it equals matern_cov bit for bit.  Returns val (u,), grad (3, u) and
    hess (3, 3, u), with the conventions of matern_grad and matern_hess.
    """
    s2, beta, nu = theta.sigma2, theta.beta, theta.nu
    t = h / beta
    val = np.ones_like(t)
    grad = np.zeros((3,) + t.shape)
    hess = np.zeros((3, 3) + t.shape)
    pos = t > 0.0
    if np.any(pos):
        tp = t[pos]
        hp = tp * beta
        c = _coef(nu)
        lp = _LN2 + digamma(nu)    # c'(nu)/c(nu) = -(ln 2 + Psi(nu))
        k, kp, tnu, dgk, d2gk, dpk = _order_stencil(nu, tp, _nu_step(nu))
        with np.errstate(invalid="ignore", over="ignore"):
            gk = _limit_patched(nu, tnu * k)     # t^nu K_nu
        pk = tnu * kp                            # t^nu K'_nu
        kpp = _bessel_k_dxx(nu, tp, k, kp)
        val[pos] = c * gk

        # M is linear in sigma2: the beta and nu derivatives over sigma2 are
        # also the mixed (sigma2, .) Hessian entries
        m_b = -c * tnu * (nu / beta * k + hp / beta ** 2 * kp)
        m_n = c * (dgk - lp * gk)
        grad[1][pos] = s2 * m_b
        grad[2][pos] = s2 * m_n
        hess[0, 1][pos] = hess[1, 0][pos] = m_b
        hess[0, 2][pos] = hess[2, 0][pos] = m_n

        # d2M/dbeta2: differentiate -s2 c (h/beta^2)(nu t^(nu-1) K + t^nu K')
        # once more in beta; collecting powers of t gives
        #   s2 c / beta^2 * t^nu [ nu(nu+1) K + 2(nu+1) t K' + t^2 K'' ]
        hess[1, 1][pos] = s2 * c / beta ** 2 * tnu * (
            nu * (nu + 1.0) * k + 2.0 * (nu + 1.0) * tp * kp + tp * tp * kpp
        )
        # d2M/dbeta dnu: nu-derivative of the beta-derivative; the c(nu)
        # factor contributes -(ln 2 + Psi), the bracket differentiates
        # termwise with t^nu K and t^nu K' replaced by their nu-stencils
        hess[1, 2][pos] = hess[2, 1][pos] = -s2 * c * (
            -lp * (nu / beta * gk + hp / beta ** 2 * pk)
            + gk / beta + nu / beta * dgk + hp / beta ** 2 * dpk
        )
        # d2M/dnu2: second derivative of c(nu) g(nu) with
        # c'/c = -(ln 2 + Psi), c''/c = (ln 2 + Psi)^2 - Psi'
        hess[2, 2][pos] = s2 * c * ((lp * lp - trigamma(nu)) * gk
                                    - 2.0 * lp * dgk + d2gk)
    grad[0] = val                  # M / sigma2, exactly 1 at h = 0
    return s2 * val, grad, hess


def matern_grad(h, theta):
    """Gradient of M(h; theta) in theta = (sigma2, beta, nu).

    Returns shape (3,) for scalar h, (3,) + h.shape for arrays.  At h = 0
    the gradient is (1, 0, 0): M(0) = sigma2 identically, and the beta and
    nu derivatives vanish in the h -> 0 limit for nu > 0.
    """
    ha = _validate_h(h)
    _, g, _ = _kernel_pass(np.atleast_1d(ha).ravel(), theta)
    if np.ndim(h) == 0:
        return g[:, 0]
    return g.reshape((3,) + ha.shape)


def matern_hess(h, theta):
    """Hessian of M(h; theta) in theta; symmetric 3x3 per distance.

    Returns shape (3, 3) for scalar h, (3, 3) + h.shape for arrays.  The
    (sigma2, sigma2) entry is identically zero (M is linear in sigma2);
    cross terms are computed once and mirrored.  All entries vanish at
    h = 0 (derivatives of the constant diagonal).
    """
    ha = _validate_h(h)
    _, _, hh = _kernel_pass(np.atleast_1d(ha).ravel(), theta)
    if np.ndim(h) == 0:
        return hh[:, :, 0]
    return hh.reshape((3, 3) + ha.shape)


# === matrix builders ========================================================


def build_cov(locs, theta):
    """Covariance matrix over a location set; evaluates once per unique distance."""
    uniq, inv = locs._dist_unique
    vals = matern_cov(uniq, theta)
    return vals[inv]


def build_cov_grad(locs, theta):
    """Entrywise kernel gradient over the distance matrix, shape (3, n, n)."""
    uniq, inv = locs._dist_unique
    _, g, _ = _kernel_pass(uniq, theta)
    return g[:, inv]


def build_cov_hess(locs, theta):
    """Entrywise kernel Hessian over the distance matrix, shape (3, 3, n, n).

    Symmetric in the two parameter axes (cross terms mirrored) and in (i, j).
    """
    uniq, inv = locs._dist_unique
    _, _, hh = _kernel_pass(uniq, theta)
    return hh[:, :, inv]
