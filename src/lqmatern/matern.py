"""Matern covariance function, its parameter derivatives, and the covariance builder.

The kernel in the (variance, range, smoothness) parametrisation:

    M(h; theta) = sigma2 * c(nu) * t^nu K_nu(t),   t = h / beta,
    c(nu) = 2^(1-nu) / Gamma(nu)

with K_nu the modified Bessel function of the second kind.  M(0) = sigma2
exactly (the h -> 0 limit), and M reduces to sigma2 * exp(-h/beta) at
nu = 1/2 and sigma2 * (1 + t) exp(-t) at nu = 3/2.  c(nu) and its
nu-derivatives come from scipy.special's gammaln, psi and zeta(2, nu), the
trigamma (bit for bit polygamma(1, nu), which computes it so), called as
they are: MaternParams holds nu in (0, NU_CAP], inside their domain.

Derivatives.  M is linear in sigma2, so every nonzero entry of its
gradient and Hessian in theta = (sigma2, beta, nu) is, up to a factor
sigma2, M / sigma2 or one of five per-distance terms: the beta and nu
derivatives of M / sigma2 and its (beta, beta), (beta, nu) and (nu, nu)
second derivatives.  The terms are made per unit variance, from (beta, nu)
alone; sigma2 enters the values in ``matern_cov`` and ``_cov_into`` and the
derivatives in the pass (``gauss_lik._Workspace.derivs``).  Two Bessel
calls, at the orders nu and nu - 1, give all five through exact
identities, the recurrence and the modified Bessel ODE:

    K'_mu(t) = -K_{mu-1}(t) - (mu/t) K_mu(t),
    d(M / sigma2)/dbeta = c / beta * t^(nu+1) K_{nu-1}(t),
    d2(M / sigma2)/dbeta2 = c / beta^2 * t^(nu+1) (t K_nu(t) - (2 nu + 1) K_{nu-1}(t)),

where the beta-derivatives carry K_{nu-1} directly, without the
cancellation of nu K_nu + t K'_nu at small t.  The derivatives in the order
come from a trapezoid rule on K's integral representation
(``_order_derivs``), which takes one step per block of points, the finest
any point of the block needs, so its integrands' factors in the order are
one vector and a block's three sums one matrix product.  Every term is 0
at h = 0.  One overflow rule holds on both routes below: where K_nu
overflows at tiny t, t^nu K_nu takes its exact limit Gamma(nu)
2^(nu-1), so M takes its limit sigma2; where t^(nu+1)
K_{nu-1} or the order derivatives are not finite there, every term they
enter takes its limit, 0; and at huge t, where e^-t is 0, M and the
terms are 0.

Evaluation.  A ``LocationSet`` caches its sorted unique distances and each
site pair's index into them.  The kernel is evaluated once per unique
distance and scattered back.  Both routes below evaluate it one way, at
points t > 0: t^nu K_nu(t) e^t (``_tnu_k``) and the five terms times e^t
(``_terms``), from kve, scipy's K_nu(t) e^t, which stays finite where K_nu
underflows; the values are then multiplied by e^-t.  The routes differ
only in the points:

- Direct, where a set has no more unique distances than its Chebyshev
  panels would have nodes (the 127 distances of a 10 x 10 lattice, not the
  369 of a 20 x 20 one): every distance.  ``matern_cov`` always takes this
  route, and the tests use it, with the terms made the same way, as the
  reference.
- Chebyshev, otherwise (irregular sites).  Panels of width 0.1 in s = log d
  (``_Panels``) carry a degree-8 interpolant in s of t^nu K_nu(t) e^t and of
  the five terms times e^t, which are analytic in s, so it converges
  spectrally down to the smallest distance; past t = _T_ZERO it is exactly
  0.  kve runs at the panels' nodes only, and the node values become
  coefficients through one fixed 9 x 9 matrix.  The Chebyshev basis at the
  distances is built by the three-term recurrence for a block of whole
  panels at a time, and each panel's values are one product of its
  coefficients with its columns of the basis, times e^-t.  beta only shifts
  s, so one layout serves every (beta, nu).

A derivative pass reads its five terms from the score of its point, as
at the fit's start and Newton points, or scores the point again to
make them.  Such a score has ``_cov_into`` make the terms too (its
``terms``), from the order-nu values it makes R's from, at the distances
or at the nodes, where one walk of ``_Panels.at`` builds the basis and
e^-t once for R's values and the terms.  So in a fit and a sandwich the
score is the only place the kernel is evaluated, and a point makes one
Bessel call at each order.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial.distance import pdist, squareform
from scipy.special import gammaln, psi, zeta
# every Bessel evaluation of the package goes through this binding
from scipy.special import kve as special_kve

# The model's range of smoothness: MaternParams rejects a larger nu, the
# default bounds stop here, and the kernel's accuracy is checked up to it.
NU_CAP = 5.0

# Trapezoid rule of ``_order_derivs``: its step and the cutoff of the
# integrand's exponent hold the three derivatives within 2e-15 relative of
# mpmath's, and t goes in blocks, each with one step, so the (block, points)
# arrays stay small.
_QUAD_STEP = 0.2
_QUAD_CUT = 40.0
_QUAD_BLOCK = 256

_LN2 = np.log(2.0)

# Chebyshev panels in s = log d: width and degree.  They interpolate
# t^nu K_nu(t) e^t within 2e-14 relative over t in [1e-7, 760] and nu up to
# NU_CAP (CHANGES.md has the alternatives measured).
_CHEB_WIDTH = 0.1
_CHEB_DEG = 8
# Past t = 690, K_nu(t) < 1e-300 at every order up to NU_CAP; the
# interpolated kernel and its terms are exactly 0 there
_T_ZERO = 690.0
# Distances per block of whole panels in ``_Panels.at``: a block's basis is
# 9 x 8192 doubles (576 kB), where one over all distances is 5.7 MB at n = 400
_CHEB_BLOCK = 8192

_CHEB_ANGLES = np.pi * (np.arange(_CHEB_DEG + 1) + 0.5) / (_CHEB_DEG + 1)
_CHEB_NODES = np.cos(_CHEB_ANGLES)    # first-kind Chebyshev points on [-1, 1]
# node values -> Chebyshev coefficients (a discrete cosine transform)
_CHEB_MAP = 2.0 / (_CHEB_DEG + 1) * np.cos(
    np.outer(np.arange(_CHEB_DEG + 1), _CHEB_ANGLES))
_CHEB_MAP[0] *= 0.5


@dataclass(frozen=True)
class MaternParams:
    """Matern parameter triple (variance, range, smoothness).

    All three must be positive and finite, and nu at most NU_CAP; otherwise
    ValueError.
    """

    sigma2: float
    beta: float
    nu: float

    def __post_init__(self):
        for name in ("sigma2", "beta", "nu"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not 0.0 < v < math.inf:
                raise ValueError("MaternParams.%s must be positive and finite, got %r" % (name, v))
        if self.nu > NU_CAP:
            raise ValueError("MaternParams.nu = %g exceeds NU_CAP = %g" % (self.nu, NU_CAP))

    def as_array(self):
        return np.array([self.sigma2, self.beta, self.nu])


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
    def _dist_unique(self):
        # the sorted unique distances, 0 first, and each site pair's index
        # into them (n, n), from the condensed pairwise distances; lattice
        # layouts have O(n) uniques
        cond = pdist(self.coords)
        if cond.size and cond.min() <= 0.0:
            raise ValueError("duplicate locations: zero pairwise distance found")
        uniq, inv = np.unique(cond, return_inverse=True)
        inv += 1
        return np.concatenate(([0.0], uniq)), squareform(inv)

    @cached_property
    def _dist_cheb(self):
        # Chebyshev panels over the positive unique distances, or None when
        # the panels would have at least as many nodes as there are distances
        uniq = self._dist_unique[0]
        panels = _Panels.over(uniq[np.searchsorted(uniq, 0.0, side="right"):])
        return panels if panels.d.size > panels.nodes.size else None


@dataclass(frozen=True, eq=False)
class _Panels:
    """Piecewise-Chebyshev layout of a sorted array of positive distances.

    Panel j covers s = log d in [w j, w (j + 1)), w = ``_CHEB_WIDTH``; only
    panels that hold a distance are kept, each a contiguous slice of them.
    Stored: the distances ``d`` (a view), each one's local coordinate ``x``
    in [-1, 1), the index of each panel's first distance (``starts``) and
    each panel's node distances (``nodes``), O(u) floats in all.
    """

    d: np.ndarray
    x: np.ndarray
    starts: np.ndarray
    nodes: np.ndarray

    @classmethod
    def over(cls, d):
        s = np.log(d) / _CHEB_WIDTH
        j = np.floor(s)
        starts = np.flatnonzero(np.diff(j, prepend=-np.inf))
        nodes = np.exp(_CHEB_WIDTH * (j[starts, None] + 0.5 * (1.0 + _CHEB_NODES)))
        return cls(d, 2.0 * (s - j) - 1.0, starts, nodes)

    def span(self, beta):
        """Distances with t = d / beta <= _T_ZERO, and the panels holding them."""
        live = int(np.searchsorted(self.d, _T_ZERO * beta, side="right"))
        return live, int(np.searchsorted(self.starts, live))

    def at(self, beta, live, rows, work):
        """Interpolants of node values, times e^-t, written into their outputs.

        ``rows`` is a list of (vals, out) pairs: ``vals`` holds the first k
        panels' node values (..., k, deg + 1), the same k for every pair, and
        ``out`` one array (u,) per row of its leading dimensions.  One walk
        builds the basis and e^-t once for every pair, and each pair's
        products are the ones a walk for it alone makes, bit for bit.
        Entries past ``live`` are exactly 0.  The buffers hold one block of
        whole panels, up to ``_CHEB_BLOCK`` distances (a larger panel is a
        block of its own): the basis, e^-t, 2x and the products, carved from
        ``work``, a flat float array, where it is long enough, else from a
        new one.
        """
        bounds = np.append(self.starts[:rows[0][0].shape[-2]], live).tolist()
        firsts = [0]
        for p in range(1, len(bounds) - 1):
            if bounds[p + 1] - bounds[firsts[-1]] > _CHEB_BLOCK:
                firsts.append(p)
        blocks = list(zip(firsts, firsts[1:] + [len(bounds) - 1]))
        width = max(bounds[b] - bounds[a] for a, b in blocks)
        size = (_CHEB_DEG + 3 + max(len(out) for _, out in rows)) * width
        if work is None or work.size < size:
            work = np.empty(size)
        basis = work[:(_CHEB_DEG + 1) * width].reshape(_CHEB_DEG + 1, width)
        decay, x2 = work[(_CHEB_DEG + 1) * width:(_CHEB_DEG + 3) * width].reshape(2, width)
        products = work[(_CHEB_DEG + 3) * width:size]
        basis[0] = 1.0
        coefs = [vals @ _CHEB_MAP.T for vals, _ in rows]
        for first, stop in blocks:
            lo, hi = bounds[first], bounds[stop]
            x = self.x[lo:hi]
            T, e = basis[:, :hi - lo], decay[:hi - lo]
            T[1] = x
            np.add(x, x, out=x2[:hi - lo])
            for i in range(2, _CHEB_DEG + 1):
                np.multiply(x2[:hi - lo], T[i - 1], out=T[i])
                T[i] -= T[i - 2]
            np.exp(np.divide(self.d[lo:hi], -beta, out=e), out=e)
            for p in range(first, stop):
                a, b = bounds[p] - lo, bounds[p + 1] - lo
                for coef, (_, out) in zip(coefs, rows):
                    y = products[:len(out) * (b - a)].reshape(coef.shape[:-2] + (b - a,))
                    np.matmul(coef[..., p, :], T[:, a:b], out=y)
                    y *= e[a:b]
                    for o, row in zip(out, y.reshape(-1, b - a)):
                        o[lo + a:lo + b] = row
        for _, out in rows:
            for o in out:
                o[live:] = 0.0


# === kernel evaluation ======================================================


def _coef(nu):
    # c(nu) = 2^(1-nu) / Gamma(nu), evaluated in log space
    return np.exp((1.0 - nu) * _LN2 - gammaln(nu))


def _tnu_k(nu, t):
    """t^nu K_nu(t) e^t at t > 0, from kve.

    Where the product is not finite, it takes its limit: Gamma(nu)
    2^(nu-1), exact to double precision there, at t < 1, where K_nu
    overflows (t -> 0, where t^nu underflows and e^t is 1), and 0 at larger
    t, where t^nu overflows.  The caller holds the errstate that lets the
    product overflow quietly.
    """
    g = t ** nu * special_kve(nu, t)
    bad = ~np.isfinite(g)
    if bad.any():
        g = np.where(bad, np.where(t < 1.0, np.exp(gammaln(nu) + (nu - 1.0) * _LN2), 0.0), g)
    return g


def matern_cov(h, theta):
    """Matern covariance M(h; theta); accepts scalar or array h >= 0."""
    ha = np.atleast_1d(np.asarray(h, dtype=float))
    if np.any(~(ha >= 0.0)):
        raise ValueError("distance h must be nonnegative")
    out = np.ones_like(ha)
    t = ha / theta.beta
    pos = t > 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        out[pos] = _coef(theta.nu) * (_tnu_k(theta.nu, t[pos]) * np.exp(-t[pos]))
    out *= theta.sigma2
    if np.ndim(h) == 0:
        return float(out[0])
    return out


# === one Bessel pass for the value and the theta-derivatives ================


def _order_derivs(nu, t):
    """e^t times dK_nu/dnu, d2K_nu/dnu2 and dK_mu/dmu at mu = nu - 1, shape (3,) + t.shape.

    The trapezoid rule on K_nu(t) e^t = int_0^inf e^(-t (cosh u - 1))
    cosh(nu u) du (DLMF 10.32.9), whose nu-derivatives put u sinh(nu u) and
    u^2 cosh(nu u) in place of cosh(nu u).  The integrands are even and
    analytic in u, so the rule converges geometrically (Trefethen and
    Weideman 2014).  The step that t needs is _QUAD_STEP min(1, t^-1/2),
    and the points run out to where t (cosh u - 1) reaches
    _QUAD_CUT + 2 nu ln(1 + 1/t).  t goes in blocks, and a block takes one
    step, its smallest (that of its largest t), out to its largest cutoff
    (that of its smallest t): a finer step and more points only add
    accuracy.  So the nodes u and the three factors of the integrands in
    nu are one vector each, and the block's three sums are one product of
    its (block, points) matrix of e^(-t (cosh u - 1)) with the (points, 3)
    factors.  cosh u - 1 is taken as 2 sinh^2(u/2), and sinh((nu - 1) u)
    is its own sinh, so neither cancels at small u.  Where the integrands
    overflow (t -> 0 at large nu, where K_nu itself overflows) the result
    is not finite.
    """
    ts = t.ravel()
    out = np.empty((ts.size, 3))
    for a in range(0, ts.size, _QUAD_BLOCK):
        tb = ts[a:a + _QUAD_BLOCK]
        # t = inf (h / beta past the float range) sets neither the step nor
        # the cutoff, and the terms it enters are 0
        finite = tb[tb < np.inf]
        lo = float(np.minimum.reduce(finite, initial=np.inf))
        h = _QUAD_STEP * float(np.maximum.reduce(finite, initial=1.0)) ** -0.5
        cut = math.acosh(1.0 + (_QUAD_CUT + 2.0 * nu * math.log1p(1.0 / lo)) / lo)
        u = h * np.arange(1, math.ceil(cut / h) + 1)
        half = np.sinh(0.5 * u)
        weight = np.exp(np.multiply.outer(tb, -2.0 * half * half))
        factors = np.empty((3, u.size))
        np.sinh(nu * u, out=factors[0])
        np.multiply(u, np.cosh(nu * u), out=factors[1])
        np.sinh((nu - 1.0) * u, out=factors[2])
        factors *= h * u
        np.matmul(weight, factors.T, out=out[a:a + _QUAD_BLOCK])
    return out.T.reshape((3,) + t.shape)


def _terms(t, beta, nu, gk):
    """The five per-distance terms times e^t at the points t > 0, shape (5,) + t.shape.

    In the module docstring's order, from g = t^nu K_nu e^t (``_tnu_k``),
    q = t^(nu+1) K_{nu-1} e^t and ``_order_derivs``' dk.  Terms that are not
    finite take their limit, 0: so where q overflows (K_{nu-1} at tiny t),
    every term it enters is 0.  The caller holds the errstate that lets
    them overflow quietly.
    """
    qk = t ** (nu + 1.0) * special_kve(nu - 1.0, t)
    dk = _order_derivs(nu, t)
    c = _coef(nu)
    tnu = t ** nu
    # d/dnu log(c(nu) t^nu), with c'(nu)/c(nu) = -(ln 2 + Psi(nu))
    a = np.log(t) - _LN2 - psi(nu)
    dg = tnu * dk[0]       # t^nu dK_nu/dnu
    terms = np.array([
        c / beta * qk,
        c * (a * gk + dg),
        # t^nu [nu(nu+1) K + 2(nu+1) t K' + t^2 K''] = t^2 g - (2 nu + 1) q
        c / beta ** 2 * (t * t * gk - (2.0 * nu + 1.0) * qk),
        # d/dnu of the beta-derivative c q / beta
        c / beta * (a * qk + t * tnu * dk[2]),
        # d2/dnu2 of c t^nu K_nu, with (log c)'' = -Psi', zeta(2, nu)
        c * ((a * a - zeta(2.0, nu)) * gk + 2.0 * a * dg + tnu * dk[1])])
    terms[~np.isfinite(terms)] = 0.0
    return terms


def _term_rows(u, panels, out):
    """The five rows of a (grad, hess) pair over u distances that the panels' walk writes.

    The entries before the panels' distances (h = 0) are set to 0.
    """
    grad, hess = out
    pos = slice(u - panels.d.size, None)
    grad[:, :pos.start] = hess[:, :pos.start] = 0.0
    return [*grad[:, pos], *hess[:, pos]]


# === covariance builder =====================================================


def build_cov(locs, theta):
    """The n x n covariance matrix of theta over ``locs``, with diagonal sigma2.

    Fortran-ordered, the order LAPACK factors, so it needs no transposing
    copy there.
    """
    return _cov_into(locs, theta)


def _cov_into(locs, theta, out=None, vals=None, terms=None):
    """``build_cov``'s matrix, written into ``out`` (n x n, Fortran-ordered) and returned.

    The kernel's values at the u unique distances go into ``vals`` (u,);
    each is a new array where None.  While the Chebyshev panels are walked,
    out's memory, which holds nothing until the values are gathered into
    it, is ``_Panels.at``'s work.  The site pairs' index map is symmetric,
    so gathering through it into out's transpose, a C-ordered view, fills
    out with no temporary.

    ``terms``, a (grad, hess) pair of the beta and nu derivatives (2, u)
    and the (beta, beta), (beta, nu) and (nu, nu) second derivatives (3, u)
    of M / sigma2, is filled with the terms at (beta, nu) from the order-nu
    values that make the kernel's (in the same walk over the panels, where
    the sites have them).  Both routes evaluate at their points t > 0 with
    ``_tnu_k`` and ``_terms``, so one overflow rule holds on both (the
    module docstring): the direct route at the positive distances, times
    e^-t there, and the Chebyshev route at its nodes, interpolated.
    """
    uniq, inv = locs._dist_unique
    panels = locs._dist_cheb
    beta, nu = theta.beta, theta.nu
    if out is None:
        out = np.empty((locs.n, locs.n), order="F")
    if vals is None:
        vals = np.empty_like(uniq)
    vals.fill(1.0)
    # a beta below about 1e-154 makes beta^2 0 in _terms' 1 / beta^2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if panels is None:
            t = uniq / beta
            # the positive t follow the 0s: uniq is sorted
            pos = slice(int(np.searchsorted(t, 0.0, side="right")), None)
            t = t[pos]
            decay = np.exp(-t)
            g = _tnu_k(nu, t)
            vals[pos] = _coef(nu) * (g * decay)
            if terms is not None:
                made = _terms(t, beta, nu, g)
                made *= decay
                for o, rows in zip(terms, (made[:2], made[2:])):
                    o[:, :pos.start] = 0.0
                    o[:, pos] = rows
        else:
            live, k = panels.span(beta)
            t = panels.nodes[:k] / beta
            g = _tnu_k(nu, t)
            pos = slice(uniq.size - panels.d.size, None)
            rows = [(g, [vals[pos]])]
            if terms is not None:
                rows.append((_terms(t, beta, nu, g), _term_rows(uniq.size, panels, terms)))
            panels.at(beta, live, rows, out.ravel(order="F"))
            vals[pos] *= _coef(nu)
    vals *= theta.sigma2
    np.take(vals, inv, mode="clip", out=out.T)
    return out
