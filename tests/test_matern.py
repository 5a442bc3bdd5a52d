import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform
from scipy import special
from scipy.special import kv

from lqmatern import gauss_lik, matern
from lqmatern.asymptotics import sandwich
from lqmatern.gauss_lik import ReplicateSet, _Workspace
from lqmatern.matern import (_CHEB_DEG, _CHEB_MAP, NU_CAP, LocationSet,
                             MaternParams, _coef, _Panels,
                             build_cov, matern_cov)
from lqmatern.simulate import make_locations
from oracles import cov_derivs, kernel_derivs, kernel_terms, matern_grad, matern_hess

# irregular sites: 2,016 unique positive distances against 378 Chebyshev
# nodes, so the builders interpolate the kernel
LOCS_CHEB = make_locations(64, "uniform", seed=0)


# two sites 1e-70 apart among irregular ones: kve overflows at the smallest
# nodes for nu = 5, and the node values take their t -> 0 limits
LOCS_TINY = LocationSet(np.vstack([[[0.0, 0.0], [1e-70, 0.0]],
                                   make_locations(47, "uniform", seed=3).coords]))


def rand_theta(rng, nu_hi=3.0):
    return MaternParams(rng.uniform(0.3, 3.0), rng.uniform(0.05, 1.0),
                        rng.uniform(0.1, nu_hi))


def rand_locs(rng, n, min_dist=0.0):
    while True:
        c = rng.uniform(0.0, 1.0, size=(n, 2))
        d = np.sqrt(((c[:, None, :] - c[None, :, :]) ** 2).sum(-1))
        off = d[~np.eye(n, dtype=bool)]
        if n == 1 or off.min() > min_dist:
            return LocationSet(c)


# nu over (0, NU_CAP]: a fine grid, and points down to the smallest double
NU_GRID = np.concatenate([np.linspace(1e-3, NU_CAP, 20001),
                          [5e-324, 1e-300, 1e-8, 5e-5, 0.05, 0.5, 1.5, 2.5]])


class TestGammaFamilyCalls:
    """The kernel calls scipy.special's gammaln, psi and zeta(2, nu) themselves.

    zeta(2, nu) is the trigamma: scipy's own wrapper polygamma(1, nu)
    computes it so, and gives the same bits, in the kernel too.
    """

    def test_calls_are_the_wrappers_bits(self):
        assert (matern.gammaln, matern.psi, matern.zeta) == (special.gammaln, special.psi,
                                                             special.zeta)
        # polygamma(1, nu) is zeta(2, nu) times 1
        assert np.array_equal(matern.zeta(2.0, NU_GRID), special.polygamma(1, NU_GRID))

    @pytest.mark.parametrize("nu", [5e-5, 0.05, 0.5, 0.73, 1.5, 2.0, 3.3, NU_CAP])
    def test_kernel_is_the_wrappers_bits(self, monkeypatch, nu):
        # the value, its overflow limit at tiny t, and the five terms, with
        # polygamma(1, nu) put in place of zeta(2, nu)
        h = np.array([0.0, 1e-300, 1e-100, 1e-3, 0.1, 1.0, 5.0])
        th = MaternParams(1.3, 0.2, nu)

        def kernel():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return [matern_cov(h, th), *kernel_terms(h, th.beta, th.nu)]

        direct = kernel()
        monkeypatch.setattr(matern, "zeta", lambda s, x: special.polygamma(1, x))
        for got, want in zip(direct, kernel()):
            assert np.array_equal(got, want)


class TestMaternParams:
    def test_validation(self):
        for bad in [(-1, 0.1, 0.5), (1, 0.0, 0.5), (1, 0.1, -0.5),
                    (np.nan, 0.1, 0.5), (1, np.inf, 0.5)]:
            with pytest.raises(ValueError):
                MaternParams(*bad)
        with pytest.raises(ValueError):
            MaternParams(1.0, 0.1, NU_CAP + 0.1)

    def test_array_round_trip(self):
        th = MaternParams(2.0, 0.3, 1.2)
        assert MaternParams(*th.as_array()) == th


class TestLocationSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            LocationSet(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            LocationSet(np.array([[0.5, 1.5]]))
        with pytest.raises(ValueError):
            LocationSet(np.array([[-0.1, 0.5]]))
        with pytest.raises(ValueError, match="need at least one location"):
            LocationSet(np.empty((0, 2)))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="coords must be finite"):
                LocationSet(np.array([[0.5, 0.5], [bad, 0.5]]))

    def test_duplicate_locations_error(self):
        locs = LocationSet(np.array([[0.2, 0.2], [0.2, 0.2], [0.5, 0.5]]))
        for _ in range(2):
            with pytest.raises(ValueError, match="duplicate locations"):
                locs._dist_unique

    @pytest.mark.parametrize("n, layout", [(1, "grid"), (1, "uniform"), (2, "uniform"),
                                           (49, "grid"), (100, "grid"), (64, "uniform"),
                                           (196, "uniform")])
    def test_dists_is_squareform_pdist(self, n, layout):
        # the unique-distance cache gathers to the distance matrix, bit for bit
        locs = make_locations(n, layout, seed=1)
        want = squareform(pdist(locs.coords)) if n > 1 else np.zeros((1, 1))
        uniq, inv = locs._dist_unique
        assert uniq[0] == 0.0 and np.all(np.diff(uniq) > 0.0)
        assert np.array_equal(uniq, np.unique(want))
        assert inv.shape == (n, n) and np.array_equal(uniq[inv], want)


class TestMaternCov:
    def test_zero_distance_is_exact_variance(self):
        assert matern_cov(0.0, MaternParams(2.0, 0.1, 0.7)) == 2.0

    def test_half_closed_form_point(self):
        assert matern_cov(0.1, MaternParams(1, 0.1, 0.5)) == \
            pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_three_halves_closed_form_point(self):
        assert matern_cov(0.1, MaternParams(1, 0.1, 1.5)) == \
            pytest.approx(2 * np.exp(-1.0), rel=1e-12)

    def test_closed_forms_over_h(self):
        h = np.linspace(1e-4, 2.0, 400)
        s2, beta = 1.7, 0.23
        got = matern_cov(h, MaternParams(s2, beta, 0.5))
        want = s2 * np.exp(-h / beta)
        assert np.allclose(got, want, rtol=1e-10)
        got = matern_cov(h, MaternParams(s2, beta, 1.5))
        t = h / beta
        want = s2 * (1 + t) * np.exp(-t)
        assert np.allclose(got, want, rtol=1e-10)

    def test_decreasing_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            th = rand_theta(rng)
            h = np.sort(rng.uniform(0.0, 2.0, size=50))
            v = matern_cov(h, th)
            assert np.all(v > 0.0)
            assert np.all(v <= th.sigma2 + 1e-15)
            assert np.all(np.diff(matern_cov(np.unique(h) + 1e-3, th)) < 0.0)

    def test_scaling_law_in_sigma2(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            th = rand_theta(rng)
            c = rng.uniform(0.1, 10.0)
            scaled = MaternParams(c * th.sigma2, th.beta, th.nu)
            h = rng.uniform(0.01, 2.0)
            assert matern_cov(h, scaled) == pytest.approx(
                c * matern_cov(h, th), rel=1e-12)


    @pytest.mark.parametrize("beta", [1e-3, 1e-70, 1e-200])
    def test_far_distances_are_zero(self, beta):
        # K_nu underflows to 0 at t = h / beta >= 1e3, and from about t = 1e62
        # t^5 overflows against it: M is 0 there, not its t -> 0 limit sigma2
        th = MaternParams(1.3, beta, NU_CAP)
        assert np.array_equal(matern_cov(np.array([1.0, 1.4]), th), [0.0, 0.0])


class TestMaternGrad:
    def test_sigma2_component_is_cov_over_sigma2(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            th = rand_theta(rng)
            h = rng.uniform(0.01, 1.5)
            g = matern_grad(h, th)
            assert g[0] == pytest.approx(matern_cov(h, th) / th.sigma2,
                                         rel=1e-12)

    def test_beta_component_closed_form(self):
        # d/dbeta of sigma2 e^{-h/beta} = sigma2 e^{-h/beta} h / beta^2
        g = matern_grad(0.1, MaternParams(1, 0.1, 0.5))
        assert g[1] == pytest.approx(10.0 * np.exp(-1.0), rel=1e-8)

    def test_zero_distance_convention(self):
        g = matern_grad(0.0, MaternParams(1.3, 0.2, 0.9))
        assert np.array_equal(g, [1.0, 0.0, 0.0])

    def test_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            th = rand_theta(rng)
            h = rng.uniform(0.02, 1.5)
            g = matern_grad(h, th)
            t = th.as_array()
            for j, (rel_tol, s_rel) in enumerate([(1e-6, 1e-6), (1e-6, 1e-6),
                                                  (1e-4, 1e-5)]):
                s = s_rel * t[j]
                tp, tm = t.copy(), t.copy()
                tp[j] += s
                tm[j] -= s
                fd = (matern_cov(h, MaternParams(*tp))
                      - matern_cov(h, MaternParams(*tm))) / (2 * s)
                scale = max(abs(fd), 1e-8 * th.sigma2)
                assert abs(g[j] - fd) / scale < rel_tol


class TestMaternHess:
    def test_sigma2_sigma2_is_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            th = rand_theta(rng)
            assert matern_hess(rng.uniform(0.01, 1.5), th)[0, 0] == 0.0

    def test_sigma2_cross_terms(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            th = rand_theta(rng)
            h = rng.uniform(0.01, 1.5)
            hh = matern_hess(h, th)
            g = matern_grad(h, th)
            assert hh[0, 1] == pytest.approx(g[1] / th.sigma2, rel=1e-10)
            assert hh[0, 2] == pytest.approx(g[2] / th.sigma2, rel=1e-10)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            hh = matern_hess(rng.uniform(0.01, 1.5), rand_theta(rng))
            assert np.array_equal(hh, hh.T)

    def test_zero_distance_convention(self):
        assert np.array_equal(matern_hess(0.0, MaternParams(1.3, 0.2, 0.9)),
                              np.zeros((3, 3)))

    def test_finite_differences_of_grad(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            th = rand_theta(rng, nu_hi=2.0)
            h = rng.uniform(0.05, 1.5)
            hh = matern_hess(h, th)
            t = th.as_array()
            for k in range(3):
                # the gradient's nu entries are exact to rounding, so every
                # column takes the same short step (measured worst 3.7e-7)
                s = 1e-6 * t[k]
                tp, tm = t.copy(), t.copy()
                tp[k] += s
                tm[k] -= s
                fd = (matern_grad(h, MaternParams(*tp))
                      - matern_grad(h, MaternParams(*tm))) / (2 * s)
                scale = np.maximum(np.abs(fd), 1e-6 * th.sigma2)
                assert np.all(np.abs(hh[:, k] - fd) / scale < 1e-5)


class TestBuilders:
    def test_single_location(self):
        locs = LocationSet(np.array([[0.5, 0.5]]))
        th = MaternParams(2.5, 0.1, 0.5)
        assert np.array_equal(build_cov(locs, th), [[2.5]])

    def test_two_point_off_diagonal(self):
        locs = LocationSet(np.array([[0.2, 0.2], [0.3, 0.2]]))
        cov = build_cov(locs, MaternParams(1, 0.1, 0.5))
        assert cov[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-10)
        assert cov[0, 1] == cov[1, 0]

    def test_diagonal_and_symmetry(self):
        rng = np.random.default_rng(9)
        th = rand_theta(rng)
        locs = rand_locs(rng, 12, min_dist=1e-3)
        cov = build_cov(locs, th)
        assert np.array_equal(np.diag(cov), np.full(12, th.sigma2))
        assert np.array_equal(cov, cov.T)

    def test_far_lattice_is_diagonal(self):
        # every pair at t >= 3e69: R is sigma2 I and every term is 0
        locs = make_locations(16, "grid", seed=0)
        th = MaternParams(1.3, 1e-70, NU_CAP)
        assert np.array_equal(build_cov(locs, th), 1.3 * np.eye(16))
        for terms in kernel_terms(locs._dist_unique[0], th.beta, th.nu):
            assert np.all(terms == 0.0)

    def test_spd_on_random_sets(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            locs = rand_locs(rng, n, min_dist=1e-3)
            th = rand_theta(rng, nu_hi=2.0)
            np.linalg.cholesky(build_cov(locs, th))

    def test_grad_sigma2_slice(self):
        rng = np.random.default_rng(11)
        th = rand_theta(rng)
        locs = rand_locs(rng, 6, min_dist=0.05)
        cov = build_cov(locs, th)
        dS = cov_derivs(locs, th)[1]
        assert np.allclose(dS[0], cov / th.sigma2, rtol=1e-12)

    def test_two_point_matches_scalar(self):
        locs = LocationSet(np.array([[0.1, 0.1], [0.4, 0.5]]))
        th = MaternParams(1.4, 0.3, 0.8)
        h = squareform(pdist(locs.coords))[0, 1]
        _, dS, hh = cov_derivs(locs, th)
        g = matern_grad(h, th)
        H = matern_hess(h, th)
        for j in range(3):
            assert dS[j, 0, 1] == g[j]
            assert dS[j, 0, 0] == (1.0 if j == 0 else 0.0)
            for k in range(3):
                assert hh[j, k, 0, 1] == H[j, k]
                assert hh[j, k, 0, 0] == 0.0

    def test_builder_finite_differences(self):
        rng = np.random.default_rng(12)
        th = rand_theta(rng, nu_hi=1.6)
        locs = rand_locs(rng, 5, min_dist=0.08)
        dS = cov_derivs(locs, th)[1]
        t = th.as_array()
        for j, rel_tol in enumerate([1e-6, 1e-6, 1e-4]):
            s = (1e-6 if j < 2 else 1e-5) * t[j]
            tp, tm = t.copy(), t.copy()
            tp[j] += s
            tm[j] -= s
            fd = (build_cov(locs, MaternParams(*tp))
                  - build_cov(locs, MaternParams(*tm))) / (2 * s)
            scale = max(np.abs(fd).max(), 1e-8)
            assert np.abs(dS[j] - fd).max() / scale < rel_tol

    def test_hess_parameter_symmetry(self):
        rng = np.random.default_rng(13)
        th = rand_theta(rng)
        locs = rand_locs(rng, 5, min_dist=0.05)
        hh = cov_derivs(locs, th)[2]
        for j in range(3):
            for k in range(3):
                assert np.array_equal(hh[j, k], hh[k, j])
                assert np.array_equal(hh[j, k], hh[j, k].T)

    def test_kernel_pass_value_is_build_cov(self, monkeypatch):
        # the derivative pass takes no value of its own: it starts from the
        # factor of build_cov's R, the fit's, bit for bit, on lattice sites
        # (direct) and on irregular sites (Chebyshev interpolant)
        factored = []
        real = gauss_lik._factor_in_place

        def spy(a, refill):
            factored.append(a.copy())
            return real(a, refill)

        monkeypatch.setattr(gauss_lik, "_factor_in_place", spy)
        rng = np.random.default_rng(14)
        for layout in ("grid", "uniform"):
            locs = make_locations(49, layout, seed=2)
            assert (locs._dist_cheb is None) == (layout == "grid")
            reps = ReplicateSet(rng.standard_normal((49, 3)))
            for _ in range(5):
                th = rand_theta(rng, nu_hi=NU_CAP)
                factored.clear()
                _Workspace(reps, locs, 0.9).derivs(th)
                assert len(factored) == 1
                assert np.array_equal(factored[0],
                                      build_cov(locs, MaternParams(1.0, th.beta, th.nu)))

    def test_score_terms_are_the_reference_terms(self):
        # the terms a score makes from the values that make R's, in the
        # same walk on irregular sites, are the reference's, made alone,
        # bit for bit, on both kernel routes
        rng = np.random.default_rng(16)
        for layout in ("grid", "uniform"):
            locs = make_locations(64, layout, seed=3)
            uniq = locs._dist_unique[0]
            for _ in range(4):
                th = rand_theta(rng, nu_hi=NU_CAP)
                terms = np.empty((2, uniq.size)), np.empty((3, uniq.size))
                matern._cov_into(locs, th, terms=terms)
                for got, want in zip(terms, kernel_terms(uniq, th.beta, th.nu,
                                                         locs._dist_cheb)):
                    assert np.array_equal(got, want)
        assert locs._dist_cheb is not None

    def test_terms_after_build_cov_are_the_terms_alone(self):
        # the terms do not depend on what was built before them: after a
        # build at another point and after one at their own, they are the
        # same bits
        rng = np.random.default_rng(15)
        for layout in ("grid", "uniform"):
            locs = make_locations(49, layout, seed=3)
            uniq, panels = locs._dist_unique[0], locs._dist_cheb
            for _ in range(4):
                th = rand_theta(rng, nu_hi=NU_CAP)
                other = MaternParams(1.0, 1.5 * th.beta, th.nu)
                build_cov(locs, other)
                alone = kernel_terms(uniq, th.beta, th.nu, panels)
                build_cov(locs, other)
                build_cov(locs, th)
                shared = kernel_terms(uniq, th.beta, th.nu, panels)
                for a, b in zip(shared, alone):
                    assert np.array_equal(a, b)


def kv_oracle(h, th):
    """K_nu, the value, dM/dbeta and d2M/dbeta2 from scipy's kv directly.

    With t = h / beta, dM/dbeta = sigma2 c / beta * t^(nu+1) K_{nu-1}(t) and
    d2M/dbeta2 = sigma2 c / beta^2 * t^(nu+1) (t K_nu - (2 nu + 1) K_{nu-1}),
    both from the recurrence; neither cancels at small t.
    """
    t = h / th.beta
    k, k1 = kv(th.nu, t), kv(th.nu - 1.0, t)
    c = th.sigma2 * _coef(th.nu)
    return (k, c * t ** th.nu * k, c / th.beta * t ** (th.nu + 1.0) * k1,
            c / th.beta ** 2 * t ** (th.nu + 1.0) * (t * k - (2.0 * th.nu + 1.0) * k1))


class TestDirectPass:
    @pytest.mark.parametrize("nu", [0.3, 1.0, 2.3, NU_CAP])
    def test_beta_derivatives_match_kv(self, nu):
        # at beta = 10 on 64 uniform sites t runs down to about 1e-3, where
        # nu K_nu + t K'_nu cancels (the old form was off by 9.2e-10 at
        # nu = 5); the pass carries t^(nu+1) K_{nu-1} instead
        th = MaternParams(1.7, 10.0, nu)
        uniq, _ = LOCS_CHEB._dist_unique
        _, grad, hess = kernel_derivs(uniq, th)
        _, _, want_b, want_bb = kv_oracle(uniq[1:], th)
        for got in (grad[1, 1:], th.sigma2 * hess[0, 1, 1:]):
            assert np.all(np.abs(got - want_b) <= 1e-13 * np.abs(want_b))
        err_bb = np.abs(hess[1, 1, 1:] - want_bb)
        assert err_bb.max() <= 1e-13 * np.abs(want_bb).max()


class TestChebyshevKernel:
    """The interpolated kernel against kv, and where it is not used."""

    def test_path_follows_the_distance_count(self):
        # lattices have few unique distances and keep the direct path
        for n in (16, 49, 100):
            assert make_locations(n, "grid", seed=0)._dist_cheb is None
        panels = LOCS_CHEB._dist_cheb
        assert panels.nodes.size < panels.d.size
        assert np.array_equal(panels.d, LOCS_CHEB._dist_unique[0][1:])
        assert np.all((panels.x >= -1.0) & (panels.x < 1.0))

    @pytest.mark.parametrize("n", [16, 49, 100])
    def test_lattice_is_direct_bit_for_bit(self, n):
        # below the node count build_cov and the derivative pass take the
        # direct route, kve at every distance, exactly as matern_cov does
        locs = make_locations(n, "grid", seed=0)
        uniq, _ = locs._dist_unique
        rng = np.random.default_rng(n)
        for _ in range(3):
            th = rand_theta(rng, nu_hi=NU_CAP)
            assert np.array_equal(build_cov(locs, th), matern_cov(squareform(pdist(locs.coords)), th))
            for got, want in zip(kernel_terms(uniq, th.beta, th.nu, locs._dist_cheb),
                                 kernel_terms(uniq, th.beta, th.nu)):
                assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(log10_beta=st.floats(-3.0, 1.0), nu=st.floats(0.05, NU_CAP))
    @example(log10_beta=-3.0, nu=0.05)
    @example(log10_beta=-3.0, nu=NU_CAP)
    @example(log10_beta=1.0, nu=0.05)
    @example(log10_beta=1.0, nu=NU_CAP)
    def test_matches_kv(self, log10_beta, nu):
        # over the bound box, corners included: the value and dM/dbeta (the
        # interpolants of t^nu K_nu and t^(nu+1) K_{nu-1}) within 1e-12
        # relative of kv wherever K_nu > 1e-300, d2M/dbeta2 within 1e-12 of
        # its largest entry, exactly sigma2 at h = 0 and exactly 0 where kv
        # underflows
        th = MaternParams(1.7, 10.0 ** log10_beta, nu)
        uniq, _ = LOCS_CHEB._dist_unique
        val, grad, hess = kernel_derivs(uniq, th, LOCS_CHEB)
        assert val[0] == th.sigma2
        assert np.array_equal(grad[:, 0], [1.0, 0.0, 0.0])
        assert np.all(hess[:, :, 0] == 0.0)

        k, want, want_b, want_bb = kv_oracle(uniq[1:], th)
        live = k > 1e-300
        assert np.any(live)
        for got, ref in ((val[1:], want), (grad[1, 1:], want_b),
                         (th.sigma2 * hess[0, 1, 1:], want_b)):
            assert np.all(np.abs(got[live] - ref[live]) <= 1e-12 * ref[live])
        err_bb = np.abs(hess[1, 1, 1:][live] - want_bb[live])
        assert err_bb.max() <= 1e-12 * np.abs(want_bb[live]).max()
        dead = k == 0.0
        assert np.all(val[1:][dead] == 0.0)
        assert np.all(grad[:, 1:][:, dead] == 0.0)
        assert np.all(hess[:, :, 1:][:, :, dead] == 0.0)

    def test_tiny_distances_take_limits(self):
        locs = LOCS_TINY
        uniq, _ = locs._dist_unique
        assert locs._dist_cheb is not None and uniq[1] == 1e-70
        assert kv(NU_CAP, uniq[1] / 0.5) == np.inf
        for nu in (0.05, 0.73, 2.0, NU_CAP):
            th = MaternParams(1.3, 0.5, nu)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                val, grad, hess = kernel_derivs(uniq, th, locs)
            assert np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))
            want = matern_cov(uniq, th)
            assert np.all(np.abs(val - want) <= 1e-12 * want)
            _, grad_d, _ = kernel_derivs(uniq, th)
            assert np.abs(grad[1] - grad_d[1]).max() <= 1e-12 * np.abs(grad_d[1]).max()

    @pytest.mark.parametrize("nu", [4.5, NU_CAP])
    def test_routes_agree_where_k_below_overflows(self, nu):
        # at t near 1e-100, K_{nu-1} overflows and t^(nu+1) underflows, so
        # t^(nu+1) K_{nu-1} is not finite and every term it enters takes its
        # limit 0 on both routes (keeping t^2 g in the (beta, beta) term
        # there gives 1.44e-200 on one route against 0 on the other)
        h = np.concatenate(([0.0], np.linspace(1e-100, 1.2e-100, 40)))
        panels = _Panels.over(h[1:])
        assert panels.nodes.size < panels.d.size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cheb = kernel_terms(h, 1.0, nu, panels)
            direct = kernel_terms(h, 1.0, nu)
        for a, b in zip(cheb, direct):
            assert np.array_equal(a, b) and np.all(a == 0.0)

    @pytest.mark.parametrize("layout", ["grid", "uniform"])
    def test_terms_are_zero_where_t_overflows(self, layout):
        # at beta = 1e-310 every h / beta is inf on the lattice's direct
        # route, which once raised in the order derivatives' point count;
        # the value and the five terms are 0 there, as past _T_ZERO on the
        # Chebyshev route, and the sandwich is the white-noise one that a
        # finite t past the decay gives
        locs = make_locations(16 if layout == "grid" else 25, layout, seed=1)
        assert (locs._dist_cheb is None) == (layout == "grid")
        u = locs._dist_unique[0].size
        terms = (np.full((2, u), 7.0), np.full((3, u), 7.0))
        cov = matern._cov_into(locs, MaternParams(1.0, 1e-310, 0.5), terms=terms)
        assert np.array_equal(cov, np.eye(locs.n))
        assert all(np.all(t == 0.0) for t in terms)
        reps = ReplicateSet(np.sin(np.arange(6.0 * locs.n)).reshape(locs.n, 6))
        got, want = (sandwich(reps, locs, MaternParams(1.0, beta, 0.5), 0.9)
                     for beta in (1e-310, 1e-300))
        assert np.array_equal(got.K, want.K) and np.array_equal(got.J, want.J)
        assert np.count_nonzero(got.K) == np.count_nonzero(got.J) == 1

    @pytest.mark.parametrize("locs", [LOCS_CHEB, LOCS_TINY], ids=["uniform", "tiny"])
    def test_basis_product_matches_clenshaw(self, monkeypatch, locs):
        # every interpolant the pass and build_cov take, at the corners of
        # the bound box: within 4e-15 of its largest entry of Clenshaw's sum
        # over the same node values, and exactly 0 past the live distances;
        # with the default block and with blocks of 100 distances, which mix
        # blocks of several panels with panels larger than a block
        calls = []
        real_at = _Panels.at

        def at(panels, beta, live, rows, work):
            real_at(panels, beta, live, rows, work)
            calls.extend((panels, beta, live, vals, np.array(out)) for vals, out in rows)

        monkeypatch.setattr(_Panels, "at", at)
        uniq, _ = locs._dist_unique
        panels = locs._dist_cheb
        cut = False
        for block in (matern._CHEB_BLOCK, 100):
            monkeypatch.setattr(matern, "_CHEB_BLOCK", block)
            for beta in (1e-3, 10.0):
                for nu in (0.05, NU_CAP):
                    calls.clear()
                    th = MaternParams(1.7, beta, nu)
                    kernel_terms(uniq, th.beta, th.nu, panels)
                    build_cov(locs, th)
                    # the pass's five terms, then build_cov's g
                    assert [c[4].shape for c in calls] == [
                        (5,) + panels.d.shape, (1,) + panels.d.shape]
                    for _, _, live, vals, got in calls:
                        cut |= 0 < live < panels.d.size and live not in panels.starts
                        want = clenshaw(panels, beta, live, vals).reshape(got.shape)
                        scale = np.abs(want).max(axis=-1, keepdims=True)
                        assert np.all(np.abs(got - want) <= 4e-15 * scale)
                        assert np.all(got[..., live:] == 0.0)
        # beta = 1e-3 ends the live distances inside a panel
        assert cut

    def test_blocks_do_not_move_a_bit(self, monkeypatch):
        # a block holds whole panels, so each panel's product is the same
        # whatever the block size: one block, the default and a block per
        # panel give build_cov and the pass bit for bit
        locs = make_locations(196, "uniform", seed=4)
        uniq, _ = locs._dist_unique
        panels = locs._dist_cheb
        sizes = np.diff(np.append(panels.starts, panels.d.size))
        assert panels.d.size > matern._CHEB_BLOCK > sizes.max()
        rng = np.random.default_rng(9)
        thetas = [rand_theta(rng, nu_hi=NU_CAP) for _ in range(3)] + [
            MaternParams(1.0, 1e-3, 0.5)]
        got = {}
        for block in (panels.d.size, matern._CHEB_BLOCK, 1):
            monkeypatch.setattr(matern, "_CHEB_BLOCK", block)
            got[block] = [(build_cov(locs, th), *kernel_terms(uniq, th.beta, th.nu, panels))
                          for th in thetas]
        first, *rest = got.values()
        for other in rest:
            for a, b in zip(first, other):
                assert all(np.array_equal(x, y) for x, y in zip(a, b))


def clenshaw(panels, beta, live, vals):
    """Interpolant of node values vals (..., k, deg + 1) by Clenshaw's recurrence.

    The reference for ``_Panels.at``: each panel's Chebyshev coefficients
    are repeated over its distances, and b_i = c_i + 2 x b_(i+1) - b_(i+2)
    runs down from the top degree; the sum is c_0 + x b_1 - b_2, times
    e^-t, over the first ``live`` distances, and exactly 0 past them.
    """
    counts = np.diff(np.append(panels.starts[:vals.shape[-2]], live))
    coef = np.repeat(vals @ _CHEB_MAP.T, counts, axis=-2)
    x = panels.x[:live]
    b1, b2 = coef[..., _CHEB_DEG], 0.0
    for i in range(_CHEB_DEG - 1, 0, -1):
        b1, b2 = coef[..., i] + 2.0 * x * b1 - b2, b1
    out = np.zeros(vals.shape[:-2] + panels.d.shape)
    out[..., :live] = (coef[..., 0] + x * b1 - b2) * np.exp(-panels.d[:live] / beta)
    return out
