"""Special functions as the Matern kernel evaluates them.

K_nu and its argument and order derivatives are checked as the kernel
forms them, against independent oracles: the pass's value and the order
derivatives of ``matern._order_derivs`` against a quadrature of K_nu's
integral representation and mpmath, and K' in the recurrence form
-K_{nu-1} - (nu/t) K_nu, which the pass's beta-derivatives rest on, against
closed forms at half-integer order and finite differences of scipy's kv.
K''_nu, which the pass does not form, is taken from the modified Bessel ODE
over that K and K' and checked against closed forms and differences of kv.
"""

import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

from lqmatern.matern import (NU_CAP, MaternParams, _coef, _order_derivs,
                             matern_cov)
from lqmatern.simulate import make_locations
from oracles import kernel_derivs, matern_grad, matern_hess, order_derivs_per_point

# frozen half-integer closed-form values at x = 1:
# K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
K_HALF_1 = 0.46106850444789454
K_HALF_1_DX = -0.6916027566718418
K_HALF_1_DXX = 1.2679383872317103
K_ONE_1 = 0.6019072301972346


def quad_k(nu, x):
    # integral representation K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt,
    # evaluated in log space with a cutoff where the integrand is ~e^{-800}
    def f(t):
        log_cosh = np.logaddexp(nu * t, -nu * t) - np.log(2.0)
        return np.exp(-x * np.cosh(t) + log_cosh)

    t0 = np.arccosh(max(800.0 / x, 1.0) + 1.0)
    upper = np.arccosh(max((800.0 + nu * t0) / x, 1.0) + 1.0) + 1.0
    val, _err = quad(f, 0.0, upper, limit=200)
    return val


def bessel_k_pair(mu, x):
    """K_mu(x) and K'_mu(x) = -K_{mu-1}(x) - (mu/x) K_mu(x) from kv.

    The recurrence form is -(K_{mu-1} + K_{mu+1})/2 with K_{mu+1} =
    K_{mu-1} + (2 mu/x) K_mu substituted; both terms have the same sign, so
    nothing cancels.  For mu < 1 the order mu - 1 is negative, which kv
    evaluates through K_{-a} = K_a.
    """
    k = kv(mu, x)
    return k, -kv(mu - 1.0, x) - (mu / x) * k


def bessel_k(nu, x):
    return bessel_k_pair(nu, x)[0]


def bessel_k_dx(nu, x):
    return bessel_k_pair(nu, x)[1]


def bessel_k_dxx(nu, x):
    # the modified Bessel ODE x^2 K'' + x K' - (x^2 + nu^2) K = 0
    k, kp = bessel_k_pair(nu, x)
    return ((x * x + nu * nu) * k - x * kp) / (x * x)


class TestBesselK:
    def test_half_integer_value(self):
        assert bessel_k(0.5, 1.0) == pytest.approx(K_HALF_1, rel=1e-12)

    def test_negative_order_symmetry(self):
        # for nu < 1 the recurrence evaluates kv at the negative order nu - 1,
        # which must equal the positive order 1 - nu exactly
        assert kv(-0.5, 1.0) == kv(0.5, 1.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            nu = rng.uniform(0.05, 1.0)
            x = rng.uniform(0.05, 10.0)
            assert kv(nu - 1.0, x) == kv(1.0 - nu, x)
            k, kp = bessel_k_pair(nu, x)
            assert kp == -kv(1.0 - nu, x) - (nu / x) * k

    def test_order_one_quadrature(self):
        assert bessel_k(1.0, 1.0) == pytest.approx(K_ONE_1, rel=1e-12)
        assert bessel_k(1.0, 1.0) == pytest.approx(quad_k(1.0, 1.0), rel=1e-10)

    def test_quadrature_oracle_grid(self):
        # the kernel's value at beta = sigma2 = 1 is c(nu) x^nu K_nu(x)
        xs = np.array([1e-2, 0.4, 1.0, 7.0, 50.0])
        for nu in (0.01, 0.3, 0.5, 2.0, 4.5, NU_CAP):
            val = kernel_derivs(xs, MaternParams(1.0, 1.0, nu))[0]
            for x, got in zip(xs, val):
                ref = quad_k(nu, x)
                if ref == 0.0:
                    continue
                assert bessel_k(nu, x) == pytest.approx(ref, rel=1e-9)
                assert got == pytest.approx(_coef(nu) * x ** nu * ref, rel=1e-9)

    def test_positive_and_decreasing_in_x(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            nu = rng.uniform(0.05, NU_CAP)
            x = rng.uniform(1e-4, 30.0)
            k0 = bessel_k(nu, x)
            k1 = bessel_k(nu, x * 1.01)
            assert k0 > 0.0
            assert k1 < k0

    def test_domain_error(self):
        th = MaternParams(1.0, 0.3, 0.5)
        with pytest.raises(ValueError):
            matern_cov(-1.0, th)
        with pytest.raises(ValueError):
            matern_cov(np.array([0.1, np.nan]), th)

    def test_overflow_takes_exact_limit(self):
        # K_5(1e-300) overflows and t^5 underflows; the kernel substitutes the
        # product's limit, so the value is sigma2 to rounding, with no warning
        th = MaternParams(2.0, 1.0, NU_CAP)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = matern_cov(1e-300, th)
        assert want == pytest.approx(2.0, rel=1e-13)
        # the pass's value takes the same limit bit for bit, and where K_mu or
        # K'_mu overflow its derivatives take their t -> 0 limit, 0, without
        # a warning
        ts = np.array([0.0, 1e-300, 1e-200, 1e-100])
        for nu in (0.05, 0.73, 2.0, NU_CAP):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                th = MaternParams(2.0, 1.0, nu)
                val, grad, hess = kernel_derivs(ts, th)
                assert np.array_equal(val, matern_cov(ts, th))
            assert np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))
            if nu == NU_CAP:
                assert val[1] == want
                assert np.all(grad[1:, 1:] == 0.0) and np.all(hess[:, :, 1:] == 0.0)


    def test_lattice_values_match_mpmath(self):
        # the direct route's values, kve times e^-t, at the unique distances
        # of the 10 x 10 and 30 x 30 lattices (every 8th of the latter's
        # 976) over beta in [1e-3, 1] and nu in [0.05, 5], against mpmath
        # wherever M > 1e-290 (measured worst 5.4e-14, at t = 656, where the
        # rounding of t alone moves e^-t by 7e-14).  mpmath's K at an
        # integer order is about seven times slower, so the top order is 4.95
        for n, stride in ((100, 1), (900, 8)):
            h = make_locations(n, "grid")._dist_unique[0][1::stride]
            for beta in (1e-3, 0.03, 1.0):
                for nu in (0.05, 2.6, 4.95):
                    got = matern_cov(h, MaternParams(1.0, beta, nu))
                    live = got > 1e-290
                    assert np.any(live)
                    with mp.workdps(20):
                        c = 2 ** (1 - mp.mpf(nu)) / mp.gamma(nu)
                        want = np.array([float(c * t ** nu * mp.besselk(nu, t))
                                         for t in (mp.mpf(x) / beta for x in h[live])])
                    assert np.all(np.abs(got[live] - want) <= 1e-13 * want), (n, beta, nu)


class TestBesselKDx:
    def test_half_integer_value(self):
        assert bessel_k_dx(0.5, 1.0) == pytest.approx(K_HALF_1_DX, rel=1e-12)

    def test_recurrence_identity(self):
        # K'_nu = -K_{nu-1} - (nu/t) K_nu against the symmetric form
        # -(K_{nu-1} + K_{nu+1})/2, including nu < 1 (negative order nu - 1)
        x = np.geomspace(1e-3, 40.0, 60)
        for nu in np.linspace(0.05, 5.0, 34):
            want = -0.5 * (kv(nu - 1.0, x) + kv(nu + 1.0, x))
            got = bessel_k_dx(nu, x)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_always_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            assert bessel_k_dx(rng.uniform(0.05, 6.0), rng.uniform(0.01, 20.0)) < 0

    def test_finite_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            nu = rng.uniform(0.1, 5.0)
            x = rng.uniform(0.1, 10.0)
            s = 1e-6 * x
            fd = (kv(nu, x + s) - kv(nu, x - s)) / (2 * s)
            assert bessel_k_dx(nu, x) == pytest.approx(fd, rel=1e-6)


class TestBesselKDxx:
    def test_half_integer_value(self):
        # second derivative of sqrt(pi/(2x)) e^{-x}:
        # K'' = sqrt(pi/2) e^{-x} (x^{-1/2} + x^{-3/2} + 0.75 x^{-5/2})
        closed = np.sqrt(np.pi / 2) * np.exp(-1.0) * (1.0 + 1.0 + 0.75)
        assert closed == pytest.approx(K_HALF_1_DXX, rel=1e-12)
        assert bessel_k_dxx(0.5, 1.0) == pytest.approx(K_HALF_1_DXX, rel=1e-10)

    def test_ode_residual(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            nu = rng.uniform(0.05, 6.0)
            x = rng.uniform(0.05, 20.0)
            k = bessel_k(nu, x)
            kp = bessel_k_dx(nu, x)
            kpp = bessel_k_dxx(nu, x)
            res = x * x * kpp + x * kp - (x * x + nu * nu) * k
            assert abs(res) < 1e-9 * k

    def test_second_central_difference(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            nu = rng.uniform(0.1, 4.0)
            x = rng.uniform(0.3, 8.0)
            s = 1e-4 * x
            fd = (kv(nu, x + s) - 2 * kv(nu, x) + kv(nu, x - s)) / s ** 2
            assert bessel_k_dxx(nu, x) == pytest.approx(fd, rel=1e-4)


def mp_order_derivs(nu, t):
    """e^t dK_nu/dnu, e^t d2K_nu/dnu2 and e^t dK_mu/dmu at mu = nu - 1, by mpmath."""
    with mp.workdps(30):
        def f(v):
            return mp.besselk(v, t) * mp.exp(t)

        _, d1, d2 = mp.diffs(f, nu, 2)
        return [float(d1), float(d2), float(mp.diff(f, nu - 1.0))]


def mp_nu_terms(h, theta):
    """dM/dnu, d2M/dbeta dnu and d2M/dnu2 of M(h; theta), by mpmath."""
    with mp.workdps(30):
        def m(b, v):
            t = h / b
            return theta.sigma2 * 2 ** (1 - v) / mp.gamma(v) * t ** v * mp.besselk(v, t)

        at = (theta.beta, theta.nu)
        return [float(mp.diff(m, at, order)) for order in ((0, 1), (1, 1), (0, 2))]


class TestNuDerivatives:
    def test_order_derivatives_match_mpmath(self):
        # the trapezoid rule of _order_derivs against mpmath's derivatives of
        # K_nu(t) e^t, over t in [1e-4, 690] and nu in [0.05, 5] (measured
        # worst 2e-15; with cosh u - 1 in place of 2 sinh^2(u/2), 2.9e-14 at
        # t = 690)
        ts = np.geomspace(1e-4, 690.0, 7)
        for nu in (0.05, 0.6, 1.4, 3.7, NU_CAP):
            got = _order_derivs(nu, ts)
            want = np.array([mp_order_derivs(nu, t) for t in ts]).T
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (nu, got, want)

    def test_blocks_keep_each_point(self):
        # a block shares its largest point count, and points past a t's own
        # cutoff add nothing: a long 2-D batch equals each t taken alone
        ts = np.geomspace(1e-4, 690.0, 600).reshape(20, 30)
        got = _order_derivs(2.3, ts)
        assert got.shape == (3, 20, 30)
        alone = np.stack([_order_derivs(2.3, t[None]) for t in ts.ravel()], axis=-1)
        assert np.all(np.abs(got.reshape(3, -1) - alone[:, 0]) <= 1e-15 * np.abs(alone[:, 0]))

    def test_block_step_matches_the_per_point_step(self):
        # a block takes the step of its largest t out to the cutoff of its
        # smallest: on blocks that mix t near 1e-3 with t near 700 and hold
        # t = inf, the three derivatives at finite t are those of the rule
        # with each t's own step (tests/oracles.py) within 1e-14 relative
        # (measured 2.9e-15), and at t = inf they are 0, where that rule's
        # step of 0 gives NaN
        rng = np.random.default_rng(52000)
        ts = np.concatenate([rng.uniform(5e-4, 2e-3, 300), rng.uniform(600.0, 700.0, 300),
                             np.full(5, np.inf)])
        rng.shuffle(ts)
        inf = np.isinf(ts)
        for a in (0, 256):
            block = ts[a:a + 256]
            assert inf[a:a + 256].any() and block.min() < 2e-3
            assert block[block < np.inf].max() > 600.0
        for nu in (0.05, 0.6, 2.3, NU_CAP):
            got, want = _order_derivs(nu, ts), order_derivs_per_point(nu, ts)
            assert np.all(np.abs(got - want)[:, ~inf] <= 1e-14 * np.abs(want)[:, ~inf]), nu
            assert np.all(got[:, inf] == 0.0)

    def test_pass_nu_terms_match_mpmath(self):
        # the nu entries of the pass's gradient and Hessian, assembled from
        # the order derivatives, against mpmath's derivatives of M itself;
        # at short distances they are small differences of terms of size
        # M ln t, so they are held to the scale sigma2 of M there
        hs = np.array([1e-3, 0.05, 0.4, 2.0, 30.0])
        for nu in (0.05, 1.4, NU_CAP):
            th = MaternParams(1.3, 0.7, nu)
            _, grad, hess = kernel_derivs(hs, th)
            got = np.stack([grad[2], hess[1, 2], hess[2, 2]])
            want = np.array([mp_nu_terms(h, th) for h in hs]).T
            scale = np.maximum(np.abs(want), th.sigma2)
            assert np.all(np.abs(got - want) <= 1e-12 * scale), (nu, got, want)

    def test_near_zero_order_is_finite(self):
        assert np.all(np.isfinite(_order_derivs(5e-5, np.array([1e-4, 1.0, 50.0]))))
        th = MaternParams(1.0, 0.2, 5e-5)
        assert np.all(np.isfinite(matern_grad(0.3, th)))
        assert np.all(np.isfinite(matern_hess(0.3, th)))
