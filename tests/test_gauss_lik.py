import inspect
import sys
import threading
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.lapack import dlauum, dpotri, dtrtri

from lqmatern import gauss_lik
from lqmatern.asymptotics import sandwich, std_errs
from lqmatern.estimate import FitChain, _Search, default_bounds, fit
from lqmatern.gauss_lik import (NotSPDError, ReplicateSet, _lq_weights, _solve_spd3,
                                _Workspace, chol_factor, profile_sigma2)
from lqmatern.matern import LocationSet, MaternParams, build_cov
from lqmatern.qselect import QGridSpec, select_q_kappa, select_q_sqv
from lqmatern.simulate import (ContaminationSpec, SimConfig, gen_replicates, make_locations,
                               simulate_dataset)
from oracles import log_likelihood, loglik_columns, lq_of_loglik, profile_lq, total_lq


def dense_loglik(z, cov):
    # explicit inverse + determinant oracle
    n = len(z)
    quad = z @ np.linalg.inv(cov) @ z
    _sign, logdet = np.linalg.slogdet(cov)
    return -0.5 * n * np.log(2 * np.pi) - 0.5 * quad - 0.5 * logdet


def rand_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestReplicateSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicateSet(np.zeros(3))
        with pytest.raises(ValueError):
            ReplicateSet(np.zeros((3, 0)))
        with pytest.raises(ValueError):
            ReplicateSet(np.array([[1.0], [np.nan]]))

    def test_shape_properties(self):
        r = ReplicateSet(np.zeros((4, 7)))
        assert r.n == 4 and r.m == 7

    def test_replicate_data_are_a_read_only_copy(self):
        # so the memo of the last pass can match the data by identity
        given = np.ones((4, 3))
        reps = ReplicateSet(given)
        given[0, 0] = 5.0
        assert reps.data[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            reps.data[0, 0] = 2.0


class TestCholFactor:
    def test_reconstruction_and_logdet(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cov = rand_spd(rng, 6)
            cf = chol_factor(cov)
            assert np.abs(cf.L @ cf.L.T - cov).max() < 1e-8 * np.diag(cov).max()
            assert np.all(np.diag(cf.L) > 0.0)
            _s, logdet = np.linalg.slogdet(cov)
            assert cf.log_det == pytest.approx(logdet, rel=1e-10)
            assert not cf.jittered

    def test_jitter_rescue_reported(self):
        # exactly singular PSD matrix: plain Cholesky fails, jitter saves it
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        cf = chol_factor(cov)
        assert cf.jittered

    def test_rescue_scales_by_the_largest_diagonal_entry(self):
        # singular, with diagonal (4, 1, 9): the jitter is 1e-10 * 9, not
        # 1e-10 * mean(diag)
        cov = np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 9.0]])
        cf = chol_factor(cov)
        assert cf.jittered
        want = cholesky(cov + gauss_lik.JITTER_REL * 9.0 * np.eye(3), lower=True)
        assert np.array_equal(cf.L, want)
        mean = cholesky(cov + gauss_lik.JITTER_REL * np.mean(np.diag(cov)) * np.eye(3),
                        lower=True)
        assert not np.array_equal(cf.L, mean)

    @pytest.mark.parametrize("layout,n", [("grid", 100), ("uniform", 400)])
    @pytest.mark.parametrize("sigma2", [0.7316, 3.3e-3])
    @pytest.mark.parametrize("path", ["profile_lq", "weighted_derivs", "gen_replicates"])
    def test_forced_rescue_matches_the_explicit_scale(self, monkeypatch, path,
                                                      sigma2, layout, n):
        # the rescue on each caller's covariance is bit for bit the one taken
        # with the scale each caller once passed: 1 on R (the profile and the
        # derivative pass), sigma2 on Sigma (simulation)
        locs = make_locations(n, layout, seed=2)
        theta = MaternParams(sigma2, 0.1, 0.5)
        real = gauss_lik.dpotrf
        seen = []

        def fail_first(a, **kwargs):
            if not seen:
                seen.append((a.copy(), None))
                return a, 1                 # "the leading minor of order 1 is not PD"
            # copies: the factor overwrites the matrix in its memory, and the
            # derivative pass overwrites the factor with L^-1
            bumped = a.copy()
            L, info = real(a, **kwargs)
            seen.append((bumped, L.copy()))
            return L, info

        monkeypatch.setattr(gauss_lik, "dpotrf", fail_first)
        reps = ReplicateSet(np.ones((n, 2)))
        if path == "profile_lq":
            profile_lq(reps, locs, theta.beta, theta.nu, 0.9)
            scale = 1.0
        elif path == "weighted_derivs":
            _Workspace(reps, locs, 0.9).derivs(theta)
            scale = 1.0
        else:
            gen_replicates(locs, theta, 2, seed=0)
            scale = sigma2
        assert len(seen) == 2
        (cov, _), (bumped, L) = seen
        assert cov.diagonal().max() == scale
        want = cov + gauss_lik.JITTER_REL * scale * np.eye(n)
        assert np.array_equal(bumped, want)
        assert np.array_equal(L, cholesky(want, lower=True, check_finite=False))

    def test_not_spd_error(self):
        with pytest.raises(NotSPDError):
            chol_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entries_raise(self, bad):
        # LAPACK runs without a finiteness scan; an inf diagonal factors
        # "successfully" and must be caught through the log determinant
        with pytest.raises(NotSPDError):
            chol_factor(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_not_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            chol_factor(np.ones((2, 3)))


# R on the lattice (kv), on irregular sites (Chebyshev), and one R that
# potrf rejects until the jitter rescue
LAPACK_CASES = [("grid", 100, 0.1, 0.5), ("uniform", 150, 0.2, 1.3), ("grid", 100, 3.0, 5.0)]


class TestLapackCalls:
    """The scoring path calls LAPACK directly, to the bits of scipy.linalg's wrappers."""

    @pytest.mark.parametrize("layout, n, beta, nu", LAPACK_CASES)
    def test_factor_is_scipy_cholesky(self, layout, n, beta, nu):
        R = build_cov(make_locations(n, layout, seed=2), MaternParams(1.0, beta, nu))
        a = np.array(R, order="F")
        got = gauss_lik._factor_in_place(a, lambda: np.copyto(a, R))
        assert got.jittered == (beta == 3.0)
        want = R + gauss_lik.JITTER_REL * np.eye(n) if got.jittered else R
        L = cholesky(want, lower=True, check_finite=False)
        assert np.array_equal(got.L, L)
        assert got.log_det == 2.0 * float(np.sum(np.log(np.diag(L))))

    @pytest.mark.parametrize("layout, n, beta, nu", LAPACK_CASES)
    def test_quad_forms_are_solve_triangular(self, layout, n, beta, nu):
        locs = make_locations(n, layout, seed=2)
        chol = chol_factor(build_cov(locs, MaternParams(1.0, beta, nu)))
        data = np.random.default_rng(5).standard_normal((n, 30))
        Y = solve_triangular(chol.L, data, lower=True, check_finite=False)
        assert np.array_equal(gauss_lik._whiten(data, chol), Y)

    def test_illegal_potrf_argument_raises(self, monkeypatch):
        # potrf's info < 0 names an argument it rejected; no jitter rescue
        # follows, and no factor is returned
        monkeypatch.setattr(gauss_lik, "dpotrf", lambda a, **kw: (a, -4))
        a = np.array(np.eye(3), order="F")
        with pytest.raises(ValueError, match="illegal value in argument 4 of LAPACK potrf"):
            gauss_lik._factor_in_place(a, lambda: pytest.fail("no rescue"))

    def test_trtrs_info_raises(self, monkeypatch):
        # a zero on the factor's diagonal is trtrs's info, at its place;
        # an illegal argument (info < 0, which no factor of the package's
        # can give) raises the same way
        L = np.tril(np.random.default_rng(1).uniform(0.5, 1.0, (5, 5)))
        L[2, 2] = 0.0
        chol = gauss_lik.CholFactor(L=L, log_det=0.0)
        data = np.ones((5, 2))
        with pytest.raises(np.linalg.LinAlgError, match="LAPACK trtrs info 3"):
            gauss_lik._whiten(data, chol)
        monkeypatch.setattr(gauss_lik, "dtrtrs", lambda a, b, **kw: (b, -2))
        with pytest.raises(np.linalg.LinAlgError, match="LAPACK trtrs info -2"):
            gauss_lik._whiten(data, gauss_lik.CholFactor(L=np.eye(5), log_det=0.0))


class TestInvertLower:
    """L^-1 by halves, against LAPACK's trtri and potri on the same factor."""

    @pytest.mark.parametrize("layout, n", [("uniform", 1), ("uniform", 2), ("uniform", 63),
                                           ("grid", 64), ("uniform", 65), ("uniform", 129),
                                           ("uniform", 400), ("grid", 400)])
    @pytest.mark.parametrize("beta, nu", [(0.3, 1.5), (3.0, 5.0)], ids=["smooth", "jittered"])
    def test_r_inverse_is_as_accurate_as_potri(self, layout, n, beta, nu):
        # at smooth theta, and at very smooth theta, where R needs the
        # jitter rescue from n = 63 on (cond up to 4e12): L^-T L^-1 leaves
        # a residual R R^-1 - I within 4 times potri's; a block of n <= 64
        # is trtri's, bit for bit, and the upper triangle stays 0
        R = build_cov(make_locations(n, layout, seed=1), MaternParams(1.0, beta, nu))
        a = np.array(R, order="F")
        chol = gauss_lik._factor_in_place(a, lambda: np.copyto(a, R))
        assert chol.jittered == (beta == 3.0 and n >= 63)
        if chol.jittered:
            R = R + gauss_lik.JITTER_REL * np.eye(n)

        def residual(lower):
            inv = np.tril(lower) + np.tril(lower, -1).T
            return np.linalg.norm(R @ inv - np.eye(n))

        want = dpotri(chol.L, lower=1)[0]
        trtri = dtrtri(chol.L, lower=1)[0]
        got, info = gauss_lik._invert_lower(chol.L, np.empty(n * n))
        assert info == 0 and got is chol.L and not np.triu(got, 1).any()
        if n <= 64:
            assert np.array_equal(got, trtri)
        assert residual(dlauum(got, lower=1)[0]) <= 4.0 * residual(want)

    @pytest.mark.parametrize("zero", [0, 40, 64, 99])
    def test_a_zero_on_the_diagonal_is_trtris_info(self, zero):
        # the block that meets it reports it at its place in the whole
        a = np.array(np.tril(np.random.default_rng(zero).uniform(0.5, 1.0, (100, 100))),
                     order="F")
        a[zero, zero] = 0.0
        assert gauss_lik._invert_lower(a, np.empty(100 * 100))[1] == zero + 1


class TestLogLikelihood:
    def test_scalar_standard_normal(self):
        cf = chol_factor(np.array([[1.0]]))
        assert log_likelihood(np.array([0.0]), cf) == \
            pytest.approx(-0.5 * np.log(2 * np.pi), rel=1e-14)

    def test_two_dim_identity(self):
        cf = chol_factor(np.eye(2))
        assert log_likelihood(np.zeros(2), cf) == \
            pytest.approx(-np.log(2 * np.pi), rel=1e-14)

    def test_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            cov = rand_spd(rng, 5)
            z = rng.standard_normal(5)
            got = log_likelihood(z, chol_factor(cov))
            assert abs(got - dense_loglik(z, cov)) < 1e-10

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            cov = rand_spd(rng, n)
            z = rng.standard_normal(n)
            cf = chol_factor(cov)
            y = solve_triangular(cf.L, z, lower=True)
            assert abs(y @ y - z @ np.linalg.inv(cov) @ z) < 1e-10 * max(1, y @ y)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        locs = LocationSet(rng.uniform(0, 1, (6, 2)))
        th = MaternParams(1.0, 0.3, 0.8)
        cov = build_cov(locs, th)
        z = rng.standard_normal(6)
        base = log_likelihood(z, chol_factor(cov))
        perm = rng.permutation(6)
        got = log_likelihood(z[perm], chol_factor(cov[np.ix_(perm, perm)]))
        assert got == pytest.approx(base, rel=1e-12)

    def test_dimension_mismatch(self):
        cf = chol_factor(np.eye(3))
        with pytest.raises(ValueError):
            log_likelihood(np.zeros(4), cf)

    def test_loglik_columns_matches(self):
        rng = np.random.default_rng(4)
        cov = rand_spd(rng, 4)
        cf = chol_factor(cov)
        data = rng.standard_normal((4, 6))
        cols = loglik_columns(data, cf)
        for i in range(6):
            assert cols[i] == pytest.approx(log_likelihood(data[:, i], cf),
                                            rel=1e-12)


class TestLqOfLoglik:
    def test_q_one_identity(self):
        assert lq_of_loglik(-3.2, 1.0) == -3.2

    def test_zero_loglik(self):
        assert lq_of_loglik(0.0, 0.5) == 0.0

    def test_direct_value(self):
        got = lq_of_loglik(-2.0, 0.9)
        assert got == pytest.approx(-1.8126924692201813, rel=1e-12)
        assert got == pytest.approx(np.expm1(-2.0 * 0.1) / 0.1, rel=1e-14)

    def test_limit_as_q_to_one(self):
        # error term is l^2(1-q)/2, so 1e-6(1+|l|) only holds for |l| < ~200
        rng = np.random.default_rng(5)
        for _ in range(50):
            l = rng.uniform(-180.0, 10.0)
            got = lq_of_loglik(l, 1.0 - 1e-8)
            assert abs(got - l) < 1e-6 * (1.0 + abs(l))


class TestLqWeights:
    LVEC = np.array([-310.0, -295.5, -402.25, -301.0])

    def test_q_one_is_plain_sum(self):
        value, w = _lq_weights(self.LVEC, 1.0)
        assert value == np.sum(self.LVEC)
        assert np.array_equal(w, np.ones(4))

    @pytest.mark.parametrize("q", [0.9, 0.5])
    def test_log_value_and_softmax(self, q):
        value, w = _lq_weights(self.LVEC, q)
        h = (1.0 - q) * self.LVEC
        # the hand form, shifted so that it does not underflow
        want = (h[1] + np.log(np.sum(np.exp(h - h[1])))) / (1.0 - q)
        assert value == pytest.approx(want, rel=1e-14)
        assert w == pytest.approx(np.exp(h - h[1]) / np.sum(np.exp(h - h[1])),
                                  rel=1e-13)
        assert w.sum() == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("shift", [-1e5, 1e5])
    def test_common_shift_moves_value_only(self, shift):
        # exp((1-q) l) would underflow or overflow here
        value, w = _lq_weights(self.LVEC, 0.5)
        got_value, got_w = _lq_weights(self.LVEC + shift, 0.5)
        assert got_value == pytest.approx(value + shift, rel=1e-14)
        assert got_w == pytest.approx(w, rel=1e-9)


class TestTotalLq:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.locs = LocationSet(rng.uniform(0, 1, (4, 2)))
        self.theta = MaternParams(1.2, 0.3, 0.7)
        self.reps = ReplicateSet(rng.standard_normal((4, 3)))

    def test_q_one_is_loglik_sum(self):
        cov = build_cov(self.locs, self.theta)
        cf = chol_factor(cov)
        want = sum(log_likelihood(self.reps.data[:, i], cf) for i in range(3))
        got = total_lq(self.reps, self.locs, self.theta, 1.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_single_replicate_reduction(self):
        one = ReplicateSet(self.reps.data[:, :1])
        cov = build_cov(self.locs, self.theta)
        l = log_likelihood(self.reps.data[:, 0], chol_factor(cov))
        got = total_lq(one, self.locs, self.theta, 0.8)
        assert got == pytest.approx(lq_of_loglik(l, 0.8), rel=1e-12)

    def test_dense_oracle_hand_sum(self):
        cov = build_cov(self.locs, self.theta)
        want = 0.0
        for i in range(3):
            l = dense_loglik(self.reps.data[:, i], cov)
            want += np.expm1(l * 0.2) / 0.2
        got = total_lq(self.reps, self.locs, self.theta, 0.8)
        assert got == pytest.approx(want, rel=1e-10)

    def test_monotone_transform_sign_agreement(self):
        # the exact sum and the log-domain value rank parameter points alike
        rng = np.random.default_rng(7)
        locs = LocationSet(rng.uniform(0, 1, (9, 2)))
        reps = ReplicateSet(rng.standard_normal((9, 5)))
        q = 0.9
        for _ in range(20):
            ta = MaternParams(rng.uniform(0.5, 2), rng.uniform(0.1, 0.6),
                              rng.uniform(0.3, 1.5))
            tb = MaternParams(rng.uniform(0.5, 2), rng.uniform(0.1, 0.6),
                              rng.uniform(0.3, 1.5))
            exact = (total_lq(reps, locs, ta, q)
                     - total_lq(reps, locs, tb, q))
            log_vals = [_lq_weights(loglik_columns(reps.data, chol_factor(build_cov(locs, t))),
                                    q)[0] for t in (ta, tb)]
            assert np.sign(exact) == np.sign(log_vals[0] - log_vals[1])


def dense_profile(quad, n, q, lower=None, upper=None, points=20001):
    """Grid over log sigma2 in [lower, upper] of the log-domain Lq objective; (s grid, values).

    The bounds default to min(quad) / n and max(quad) / n: V's maximum is a
    fixed point sigma2 = sum w_i quad_i / n, a weighted mean of the quad_i / n.
    """
    lower = quad.min() / n if lower is None else lower
    upper = quad.max() / n if upper is None else upper
    s = np.linspace(np.log(lower), np.log(upper), points)
    s2 = np.exp(s)[:, None]
    ll = -0.5 * (n * np.log(s2) + quad / s2)
    if q == 1.0:
        return s, ll.sum(axis=1)
    h = (1.0 - q) * ll
    top = h.max(axis=1, keepdims=True)
    return s, (top[:, 0] + np.log(np.exp(h - top).sum(axis=1))) / (1.0 - q)


class TestProfileSigma2:
    # 40 clean replicates and a separated cluster of 8 with 9x the variance
    N = 50
    QUAD = np.concatenate([np.random.default_rng(11).chisquare(50, 40),
                           9.0 * np.random.default_rng(12).chisquare(50, 8)])

    @pytest.mark.parametrize("q", [1.0, 0.95, 0.8, 0.5])
    def test_matches_dense_search(self, q):
        got = profile_sigma2(self.QUAD, self.N, q)
        s, vals = dense_profile(self.QUAD, self.N, q)
        best = int(np.argmax(vals))
        assert 0 < best < len(s) - 1
        assert abs(np.log(got) - s[best]) <= 2.0 * (s[1] - s[0])
        at_got = dense_profile(self.QUAD, self.N, q, got, got, points=1)[1][0]
        assert at_got >= vals[best] - 1e-12 * abs(vals[best])

    def test_q_one_closed_form(self):
        got = profile_sigma2(self.QUAD, self.N, 1.0)
        assert got == pytest.approx(np.mean(self.QUAD) / self.N, rel=1e-15)

    @pytest.mark.parametrize("q", [0.95, 0.8])
    def test_downweights_the_contaminated_cluster(self, q):
        # the clean replicates alone give about q sigma2 (the fixed-q target)
        clean = np.mean(self.QUAD[:40]) / self.N
        assert profile_sigma2(self.QUAD, self.N, q) == \
            pytest.approx(q * clean, rel=0.05)


def fixed_point_sigma2(quad, n, q):
    """The sigma2 fixed point sigma2 <- sum w_i quad_i / n, run to 1e-15."""
    sigma2 = float(np.median(quad)) / n
    for _ in range(10000):
        _, w = _lq_weights(quad * (-0.5 / sigma2), q)
        step = float(w @ quad) / n
        if abs(step - sigma2) <= 1e-15 * step:
            break
        sigma2 = step
    return step


def chisquare_forms(n, contaminated):
    """Chi-square quadratic forms of m = 100 replicates at n sites; a tenth with 4x the variance."""
    quad = 1.7 * np.random.default_rng(n).chisquare(n, 100)
    if contaminated:
        quad[:10] *= 4.0
    return quad


class TestProfileSigma2Newton:
    @pytest.mark.parametrize("n", [36, 100, 400])
    @pytest.mark.parametrize("q", [0.95, 0.9, 0.5])
    @pytest.mark.parametrize("contaminated", [False, True])
    def test_five_steps_reach_the_fixed_point(self, monkeypatch, n, q,
                                              contaminated):
        # chi-square quadratic forms of m = 100 replicates, a tenth of them
        # with 4x the variance; capped at five steps, the Newton solve
        # already gives the fixed point's answer
        quad = chisquare_forms(n, contaminated)
        want = fixed_point_sigma2(quad, n, q)
        monkeypatch.setattr(gauss_lik, "SIGMA2_MAX_STEPS", 5)
        got = profile_sigma2(quad, n, q)
        assert abs(got / want - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [36, 100, 400])
    @pytest.mark.parametrize("q", [0.95, 0.9, 0.5])
    @pytest.mark.parametrize("contaminated", [False, True])
    def test_unconverged_solve_raises(self, monkeypatch, n, q, contaminated):
        # the same forms need more than one step: capped at one, the solve
        # raises, naming the cap and q, instead of returning that step's
        # sigma2
        monkeypatch.setattr(gauss_lik, "SIGMA2_MAX_STEPS", 1)
        with pytest.raises(RuntimeError, match=r"in 1 steps at q = %r" % q):
            profile_sigma2(chisquare_forms(n, contaminated), n, q)

    def test_newton_step_past_exps_range_is_refused_quietly(self):
        # two clusters of forms at n = 1, found by a search over such
        # clusters: at the start V's curvature in log sigma2 nearly cancels,
        # and the Newton step, about 1070, overflows exp; the solve refuses
        # it with no RuntimeWarning (an error here) and goes on to V's
        # maximum, within two points of a dense log grid
        quad = np.array([1.0080500119952265, 1.005490676317937, 1.0058970916870924,
                         1.0087659899367698, 1.0011091237486285, 16.238310436280393,
                         16.239289740387324, 16.34176291240357, 16.22340577779688])
        q = 0.7679002699047928
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = profile_sigma2(quad, 1, q)
        s, vals = dense_profile(quad, 1, q)
        assert abs(np.log(got) - s[int(np.argmax(vals))]) <= 2.0 * (s[1] - s[0])

    def test_newton_point_below_the_normal_floats_is_refused_quietly(self):
        # chi-square forms times e^N(0, s^2), with n, m, s and q drawn per
        # form set from default_rng(0): on draws 4275, 4979 and 5251 a
        # Newton point underflows to a subnormal sigma2, where quad / sigma2
        # overflows; the solve refuses it with no RuntimeWarning (an error
        # here) and returns the sigma2 it gave with the warning ignored
        want = {4275: "0x1.a558a1c38b2c8p-10", 4979: "0x1.9f5118c7dce0dp-7",
                5251: "0x1.80723dabd5718p-13"}
        rng = np.random.default_rng(0)
        for draw in range(max(want) + 1):
            n, m, s = rng.integers(1, 51), rng.integers(2, 31), rng.uniform(0.0, 4.0)
            q = rng.choice([0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
            quad = rng.chisquare(n, m) * np.exp(rng.normal(0.0, s, m))
            if draw in want:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    assert float(profile_sigma2(quad, n, q)).hex() == want[draw]

    @pytest.mark.parametrize("seed", range(16))
    def test_safeguard_step_keeps_the_solve_monotone(self, monkeypatch, seed):
        # heavy-tailed forms (chi-square times e^N(0, 3^2), n = 42, m = 19,
        # q = 0.5) make the solve take a fixed-point step that does not end
        # it, on seeds 10 and 14 after a Newton point that scored lower; V
        # does not fall along the steps beyond its rounding, and the answer
        # is the dense search's
        rng = np.random.default_rng(seed)
        quad = rng.chisquare(42, 19) * np.exp(rng.normal(0.0, 3.0, 19))
        got, values, safeguarded, _ = traced_sigma2_solve(monkeypatch, quad, 42, 0.5)
        assert safeguarded
        assert all(b >= a - gauss_lik.V_ROUNDING * abs(a)
                   for a, b in zip(values, values[1:]))
        s, vals = dense_profile(quad, 42, 0.5)
        assert abs(np.log(got) - s[int(np.argmax(vals))]) <= 2.0 * (s[1] - s[0])

    def test_fixed_point_step_that_goes_on(self, monkeypatch):
        # two clusters of forms three decades apart (n = 10, q = 0.5): the
        # solve takes fixed-point steps that do not end it, V does not fall
        # along the steps, and the answer is V's maximum, no lower than the
        # best of a log grid over the forms' range
        quad = np.r_[np.full(4, 10.0), np.full(6, 1e4)] * (1 + 0.01 * np.arange(10) / 10)
        got, values, safeguarded, _ = traced_sigma2_solve(monkeypatch, quad, 10, 0.5)
        assert safeguarded and got == pytest.approx(1.0015, rel=1e-4)
        assert all(b >= a for a, b in zip(values, values[1:]))
        s, vals = dense_profile(quad, 10, 0.5)
        assert dense_profile(quad, 10, 0.5, got, got, points=1)[1][0] >= vals.max()


    def test_fixed_point_step_that_ends_the_solve(self, monkeypatch):
        # without the tie rule (V_ROUNDING below 0), a Newton point near the
        # maximum that scores lower by rounding is refused; on these forms
        # (n = 10, m = 5, q = 0.9) the fixed-point step after it moves by
        # less than SIGMA2_RTOL and ends the solve, at V's maximum: the
        # default solve's answer, higher than both neighbours 1e-3 away in
        # log sigma2
        quad = np.random.default_rng(526).chisquare(10, 5)
        want = profile_sigma2(quad, 10, 0.9)
        monkeypatch.setattr(gauss_lik, "V_ROUNDING", -1.0)
        got, _values, _, ended = traced_sigma2_solve(monkeypatch, quad, 10, 0.9)
        assert ended == "return step" and abs(got / want - 1.0) <= 2.0 * gauss_lik.SIGMA2_RTOL
        assert_local_maximum(quad, 10, 0.9, got)

    def test_stationary_point_where_v_is_not_concave_is_left(self):
        # n = 1, q = 0.5: two forms at 0.1, the median 1 and two at 1 + d,
        # with d chosen so the start, sigma2 = 1, is a stationary point of V
        # in log sigma2 where V is not concave, a local minimum with V =
        # 2.16920.  The fixed-point step there moves by less than
        # SIGMA2_RTOL; the solve steps off to the higher side and ends at
        # a maximum, the global one of a dense log grid (at 0.256, V =
        # 2.24996; the other lies at 1.88, V = 2.17864)
        d = 7.6714806018156585
        quad = np.array([0.1, 0.1, 1.0, 1.0 + d, 1.0 + d])
        _, w = _lq_weights(-0.5 * quad, 0.5)
        wa = w @ quad
        assert abs(wa - 1.0) <= 1e-15 and -0.5 * wa + 0.125 * (w @ quad ** 2 - wa * wa) > 0.0
        got = profile_sigma2(quad, 1, 0.5)
        value = assert_local_maximum(quad, 1, 0.5, got)
        assert value > 2.16920 + 0.08
        s, vals = dense_profile(quad, 1, 0.5, 0.01, 100.0, points=4001)
        assert abs(np.log(got) - s[int(np.argmax(vals))]) <= 2.0 * (s[1] - s[0])


def assert_local_maximum(quad, n, q, sigma2):
    """V at sigma2, asserting it is no lower than V at sigma2 e^(+-1e-3)."""
    values = [dense_profile(quad, n, q, x, x, points=1)[1][0]
              for x in sigma2 * np.exp([0.0, -1e-3, 1e-3])]
    assert values[0] >= max(values[1:])
    return values[0]


class TestProfileSigma2Start:
    @pytest.mark.parametrize("m", [1, 2, 3, 100, 101])
    def test_start_is_the_median(self, monkeypatch, m):
        # the solve's first weights are taken at the start, which is
        # np.median's, bit for bit
        n = 36
        quad = np.random.default_rng(m).chisquare(n, m)
        seen, real = [], gauss_lik._lq_weights

        def spy(lvec, q):
            seen.append(lvec.copy())
            return real(lvec, q)

        monkeypatch.setattr(gauss_lik, "_lq_weights", spy)
        profile_sigma2(quad, n, 0.9)
        start = float(np.median(quad)) / n
        assert np.array_equal(seen[0], -0.5 * (n * np.log(start) + quad / start))


def eig_route_step(H, g):
    """-H^-1 g where eigvalsh finds H negative definite and H, g are finite, else None.

    The route the Newton step took before its one Cholesky factor; an
    LU solve that finds H singular, which then raised, counts as a refusal.
    """
    if not (np.isfinite(H).all() and np.isfinite(g).all() and np.linalg.eigvalsh(H).max() < 0):
        return None
    try:
        return -np.linalg.solve(H, g)
    except np.linalg.LinAlgError:
        return None


def spd3_step(H, g):
    """-H^-1 g by ``_solve_spd3`` on the lower triangle of -H, as ``_Pass.newton_step`` asks."""
    h = H.tolist()
    d = _solve_spd3([[-h[i][j] for j in range(i + 1)] for i in range(3)], g.tolist())
    return None if d is None else np.array(d)


class TestSolveSPD3:
    """The Newton step's 3 x 3 Cholesky solve against the eigvalsh and LU solve it replaced.

    Seeded symmetric matrices over six decades of scale: the two take the
    same matrices and give steps within 1e-12 relative.
    """

    @staticmethod
    def draws(kind, count=2000):
        rng = np.random.default_rng(52001)
        for _ in range(count):
            Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            lam = -np.exp(rng.uniform(np.log(1e-2), np.log(10.0), 3))
            if kind == "indefinite":
                lam[rng.integers(3)] *= -1.0
            H = (Q * lam) @ Q.T * 10.0 ** rng.uniform(-3.0, 3.0)
            H = 0.5 * (H + H.T)
            if kind == "singular":
                # a zero row and column, at a random place: singular to
                # rounding by either route
                i = rng.integers(3)
                H[i] = H[:, i] = 0.0
            if kind == "non-finite":
                i, j = rng.integers(3, size=2)
                H[i, j] = H[j, i] = rng.choice([np.nan, np.inf, -np.inf])
            yield H, rng.normal(size=3)

    @pytest.mark.parametrize("kind", ["negative definite", "indefinite", "singular",
                                      "non-finite"])
    def test_same_decision_and_step_as_eigvalsh_and_solve(self, kind):
        taken = 0
        for H, g in self.draws(kind):
            want, got = eig_route_step(H, g), spd3_step(H, g)
            assert (got is None) == (want is None), (H, g)
            if want is not None:
                taken += 1
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert taken == (2000 if kind == "negative definite" else 0)

    def test_non_finite_gradient_is_refused(self):
        H, g = next(self.draws("negative definite"))
        for bad in (np.nan, np.inf):
            g[1] = bad
            assert spd3_step(H, g) is None and eig_route_step(H, g) is None

    def test_rank_deficient_matrices_never_raise(self):
        # -C C' with C of rank 2 or 1: the sign of the null eigenvalue is
        # rounding, so either route may take such a matrix; the LU solve
        # then raised on some, and the factor refuses or gives a finite step
        rng = np.random.default_rng(52002)
        raised = 0
        for rank in (1, 2) * 500:
            C = rng.normal(size=(3, rank))
            H, g = -(C @ C.T) * 10.0 ** rng.uniform(-3.0, 3.0), rng.normal(size=3)
            got = spd3_step(H, g)
            assert got is None or np.isfinite(got).all()
            if np.linalg.eigvalsh(H).max() < 0:
                try:
                    np.linalg.solve(H, g)
                except np.linalg.LinAlgError:
                    raised += 1
        assert raised > 0


def traced_sigma2_solve(monkeypatch, quad, n, q):
    """profile_sigma2's answer, each iterate's V, whether a fixed-point step went on, and its return.

    A wrapper around ``gauss_lik._lq_weights`` reads the solve's frame at
    each weight evaluation: its local ``value``, the current iterate's V,
    and the line that asks for the weights, which is the fixed-point
    step's where the solve goes on from one.  The frame, kept, gives the
    last iterate's V after the solve returns, and the line it returned
    from, as the source's text.  No tracer is installed, so a coverage
    tool's own tracer sees the solve's lines.
    """
    code = profile_sigma2.__code__
    lines, first = inspect.getsourcelines(profile_sigma2)
    fixed = first + next(i for i, line in enumerate(lines) if "trial = weights(step)" in line)
    solve, values, safeguarded = [], [], []
    real = gauss_lik._lq_weights

    def note(frame):
        v = frame.f_locals.get("value")
        if v is not None and (not values or values[-1] is not v):
            values.append(v)

    def counted(*args):
        frame = sys._getframe(2)        # the solve's, through its weights()
        assert frame.f_code is code
        solve[:] = [frame]
        safeguarded.append(frame.f_lineno == fixed)
        note(frame)
        return real(*args)

    monkeypatch.setattr(gauss_lik, "_lq_weights", counted)
    got = profile_sigma2(quad, n, q)
    note(solve[0])
    return got, values, any(safeguarded), lines[solve[0].f_lineno - first].strip()


class TestProfileLq:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.locs = LocationSet(rng.uniform(0, 1, (5, 2)))
        self.reps = ReplicateSet(rng.standard_normal((5, 6)))

    def test_newton_step_past_the_upper_bound_does_not_overflow(self):
        # on this design the solve's Newton step in log sigma2 from a sigma2
        # clipped to an upper bound of 1e3 was far past that bound, and exp
        # of it once overflowed with a warning (an error here); solved on
        # (0, inf), sigma2 lies past the old bound, where V is higher
        locs, reps, _ = simulate_dataset(SimConfig(
            MaternParams(1.0, 0.2936, 1.2316), n=16, m=30, layout="grid", seed=1140464))
        beta, nu = np.logspace(-3, 1, 70)[66], np.linspace(0.05, 5, 50)[14]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sigma2, value = profile_lq(reps, locs, beta, nu, 0.9)
        assert sigma2 == pytest.approx(7101.778, rel=1e-6)
        assert value == pytest.approx(13.268, rel=1e-4)
        for f in (0.99, 1.01):
            off = MaternParams(f * sigma2, beta, nu)
            ls = loglik_columns(reps.data, chol_factor(build_cov(locs, off)))
            assert _lq_weights(ls, 0.9)[0] < value

    @pytest.mark.parametrize("q", [1.0, 0.9, 0.5])
    def test_value_is_log_domain_total_lq(self, q):
        sigma2, val = profile_lq(self.reps, self.locs, 0.3, 0.8, q)
        theta = MaternParams(sigma2, 0.3, 0.8)
        exact = total_lq(self.reps, self.locs, theta, q)
        if q == 1.0:
            assert val == pytest.approx(exact, rel=1e-12)
        else:
            # sum (f^(1-q) - 1)/(1-q) = T  =>  log sum f^(1-q) = log((1-q) T + m)
            want = np.log((1.0 - q) * exact + self.reps.m) / (1.0 - q)
            assert val == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("q", [1.0, 0.9, 0.5])
    def test_sigma2_maximizes_total_lq(self, q):
        sigma2, _ = profile_lq(self.reps, self.locs, 0.3, 0.8, q)
        at = total_lq(self.reps, self.locs, MaternParams(sigma2, 0.3, 0.8), q)
        for f in (0.99, 1.01):
            off = MaternParams(f * sigma2, 0.3, 0.8)
            assert total_lq(self.reps, self.locs, off, q) < at

    def test_not_spd_error_carries_correlation_params(self, monkeypatch):
        # R with unit diagonal and 2 off it, which no jitter makes SPD
        monkeypatch.setattr(gauss_lik, "_cov_into",
                            lambda locs, theta, out, work, terms=None: np.copyto(out, 2.0 - np.eye(len(out))))
        with pytest.raises(NotSPDError) as exc_info:
            profile_lq(self.reps, self.locs, 0.3, 0.8, 1.0)
        assert exc_info.value.theta == MaternParams(1.0, 0.3, 0.8)


class TestLastFactor:
    """R's last factor, handed from its score to a pass, and the memo of the last pass.

    The memo lives on the replicate set and holds one entry: the last
    derivative pass over it, keyed by its sites, theta and q.
    """

    @pytest.fixture
    def factored(self, monkeypatch):
        # every factorization, counted
        calls = []
        real = gauss_lik._factor_in_place

        def spy(a, refill):
            calls.append(1)
            return real(a, refill)

        monkeypatch.setattr(gauss_lik, "_factor_in_place", spy)
        return calls

    @pytest.fixture
    def inverted(self, monkeypatch):
        # the array each inversion of L is handed, and a copy of it
        seen = []
        real = gauss_lik._invert_lower

        def spy(a, work):
            seen.append((a, a.copy()))
            return real(a, work)

        monkeypatch.setattr(gauss_lik, "_invert_lower", spy)
        return seen

    @staticmethod
    def data(n, m, seed=0):
        return ReplicateSet(np.random.default_rng(seed).standard_normal((n, m)))

    @pytest.mark.parametrize("layout, n", [("grid", 36), ("uniform", 49)])
    def test_sandwich_after_fit_takes_the_fits_factor(self, factored, monkeypatch, layout, n):
        # a fit that Newton confirmed made its last pass at its estimate, so
        # the sandwich there builds and factors nothing; one on a fresh copy
        # of the sites builds and factors R once, to the same bits
        locs, reps, _ = simulate_dataset(SimConfig(
            MaternParams(1.0, 0.15, 0.6), n=n, m=30, layout=layout, seed=2,
            contamination=ContaminationSpec(0.1, 1.0)))
        res = fit(reps, locs, 0.9)
        assert res.converged and res.restarts == 0 and res._pass.theta == res.theta_hat
        built, real = [], gauss_lik._cov_into
        monkeypatch.setattr(gauss_lik, "_cov_into", lambda *a: built.append(1) or real(*a))
        factored.clear()
        first = sandwich(reps, locs, res.theta_hat, 0.9)
        assert factored == [] and built == []
        assert reps._last_pass[1] is res._pass
        second = sandwich(reps, LocationSet(locs.coords.copy()), res.theta_hat, 0.9)
        assert len(factored) == 1 and len(built) == 1
        assert np.array_equal(first.K, second.K) and np.array_equal(first.J, second.J)

    def test_other_data_at_the_same_sites_miss(self, factored):
        # the same set hits; other data miss and give their own pass
        locs = make_locations(16, "grid")
        reps = self.data(16, 5)
        theta = MaternParams(0.8, 0.2, 0.5)
        p = _Workspace(reps, locs, 0.9).derivs(theta)
        assert _Workspace(reps, locs, 0.9).derivs(theta) is p and len(factored) == 1
        other = _Workspace(self.data(16, 5, seed=1), locs, 0.9).derivs(theta)
        assert len(factored) == 2 and not np.array_equal(other.g, p.g)

    def test_another_point_or_q_misses(self, factored):
        locs = make_locations(16, "grid")
        reps = self.data(16, 5)
        theta = MaternParams(0.8, 0.2, 0.5)
        p = _Workspace(reps, locs, 0.9).derivs(theta)
        for th, q in ((theta, 0.95), (MaternParams(0.8, 0.2, 0.6), 0.95),
                      (MaternParams(0.9, 0.2, 0.6), 0.95)):
            assert _Workspace(reps, locs, q).derivs(th) is not p
        assert len(factored) == 4

    def test_equal_data_in_another_set_miss(self, factored):
        # the entry lives on the replicate set: another set over equal data
        # misses, gives the same bits, and keeps its own entry
        locs = make_locations(16, "grid")
        reps = self.data(16, 3)
        twin = ReplicateSet(reps.data)
        assert np.array_equal(twin.data, reps.data) and twin is not reps
        theta = MaternParams(0.8, 0.2, 0.5)
        p = _Workspace(reps, locs, 0.9).derivs(theta)
        copy = _Workspace(twin, locs, 0.9).derivs(theta)
        assert copy is not p and len(factored) == 2
        assert twin._last_pass[0] is locs and twin._last_pass[1] is copy
        assert reps._last_pass[0] is locs and reps._last_pass[1] is p
        for name in ("g", "w", "S", "log_scale"):
            assert np.array_equal(getattr(copy, name), getattr(p, name))

    @pytest.mark.parametrize("writeable", [True, False])
    def test_only_a_replicate_set_is_read(self, factored, writeable):
        # an array's .data is its raw buffer, which numpy would take as the
        # data: the pass refuses an array, writable or not, before anything
        # is factored
        locs = make_locations(16, "grid")
        Z = self.data(16, 5).data.copy()
        Z.flags.writeable = writeable
        with pytest.raises(TypeError, match="ReplicateSet"):
            _Workspace(Z, locs, 0.9).derivs(MaternParams(0.8, 0.2, 0.5))
        assert factored == []

    def test_memo_holds_nothing_of_its_sites(self):
        # a pass of O(m) numbers, nothing with an axis of length n, that
        # dies with its sites and its replicate set
        locs = make_locations(16, "grid")
        reps = self.data(16, 5)
        p = _Workspace(reps, locs, 0.9).derivs(MaternParams(0.8, 0.2, 0.5))
        assert reps._last_pass[0] is locs and reps._last_pass[1] is p
        arrays = [v for v in vars(p).values() if isinstance(v, np.ndarray)]
        assert arrays and not [a.shape for a in arrays if 16 in a.shape]
        gone = weakref.ref(p)
        del locs, reps, p
        assert gone() is None

    def test_a_pass_serves_any_thread(self, factored):
        # the entry lives on the replicate set, not in a thread: after a fit
        # in a worker thread, the sandwich in this one on the same sites and
        # data factors nothing, and gives the bits of one on a fresh copy of
        # the sites
        locs, reps, _ = simulate_dataset(SimConfig(
            MaternParams(1.0, 0.15, 0.6), n=36, m=30, seed=2,
            contamination=ContaminationSpec(0.1, 1.0)))
        made = []
        worker = threading.Thread(target=lambda: made.append(fit(reps, locs, 0.9)))
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive() and len(made) == 1
        res = made[0]
        assert res.converged and res._pass.theta == res.theta_hat
        factored.clear()
        mine = sandwich(reps, locs, res.theta_hat, 0.9)
        assert factored == [] and reps._last_pass[1] is res._pass
        fresh = sandwich(reps, LocationSet(locs.coords.copy()), res.theta_hat, 0.9)
        assert len(factored) == 1
        assert np.array_equal(mine.K, fresh.K) and np.array_equal(mine.J, fresh.J)

    def test_threads_take_back_their_own_passes(self, factored):
        # more threads than cores, switching often, each making a pass over
        # sites and data it then drops; all make before any asks again, so a
        # memo shared between threads would hand five of six a miss.  Every
        # answer is the thread's own pass, and none factors R again
        wrong = []
        made_all = threading.Barrier(6, timeout=60)
        theta = MaternParams(0.8, 0.2, 0.5)

        def work(seed):
            try:
                for i in range(20):
                    locs = make_locations(9, "uniform", seed + i)
                    reps = self.data(9, 3, seed + i)
                    made = _Workspace(reps, locs, 0.9).derivs(theta)
                    made_all.wait()
                    if _Workspace(reps, locs, 0.9).derivs(theta) is not made:
                        wrong.append((seed, i))
            except threading.BrokenBarrierError as exc:
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(100 * k,)) for k in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not [w for w in workers if w.is_alive()]
        assert not wrong and len(factored) == 6 * 20

    def test_threads_fit_one_location_set_at_once(self):
        # six threads fit and take the sandwich on the same sites and data
        # at once, switching every microsecond, four times each: every
        # thread scores and takes passes in a workspace of its own, so each
        # answer is the serial run's, bit for bit
        locs, reps, _ = simulate_dataset(SimConfig(
            MaternParams(1.0, 0.15, 0.6), n=49, m=30, layout="uniform", seed=4,
            contamination=ContaminationSpec(0.1, 1.0)))

        def run():
            res = fit(reps, locs, 0.9)
            parts = sandwich(reps, locs, res.theta_hat, 0.9)
            return res.theta_hat, parts.K, parts.J

        want = run()
        got, errors = [], []
        start = threading.Barrier(6, timeout=60)

        def work():
            try:
                start.wait()
                for _ in range(4):
                    got.append(run())
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not [w for w in workers if w.is_alive()]
        assert not errors and len(got) == 24
        for theta, K, J in got:
            assert theta == want[0]
            assert np.array_equal(K, want[1]) and np.array_equal(J, want[2])

    def test_workspace_reuses_its_buffer(self, factored):
        # scores in one workspace build R in one buffer
        locs = make_locations(16, "grid")
        ws = _Workspace(self.data(16, 3), locs, 0.9)
        ws.score(0.2, 0.5)
        buf = ws._bufs["R"]
        ws.score(0.3, 0.5)
        assert ws._bufs["R"] is buf and len(factored) == 2

    def test_a_record_never_survives_a_write_of_r(self, monkeypatch):
        # the workspace records a factor only while R holds it: a later
        # score, a failed factorization and a pass that raises each drop it
        locs = make_locations(16, "grid")
        reps = self.data(16, 3)
        ws = _Workspace(reps, locs, 0.9)

        def recorded():
            ws.score(0.2, 0.5, terms=True)
            assert ws.held[:2] == (0.2, 0.5) and np.shares_memory(ws.held[2].L, ws._bufs["R"])

        recorded()
        ws.score(0.3, 0.5)
        assert ws.held is None
        recorded()
        with monkeypatch.context() as patched:
            patched.setattr(gauss_lik, "dpotrf", lambda a, **kw: (a, 1))
            with pytest.raises(NotSPDError):
                ws.score(0.2, 0.5, terms=True)
        assert ws.held is None
        recorded()
        with monkeypatch.context() as patched:
            patched.setattr(gauss_lik, "_invert_lower", lambda a, work: (a, 1))
            with pytest.raises(NotSPDError, match="trtri"):
                ws.derivs(MaternParams(1.0, 0.2, 0.5))
        assert ws.held is None

    def test_not_spd_leaves_no_entry(self, monkeypatch):
        locs = make_locations(16, "grid")
        monkeypatch.setattr(gauss_lik, "_cov_into",
                            lambda locs_, theta, out, work, terms=None: np.copyto(out, 2.0 - np.eye(len(out))))
        reps = self.data(16, 1)
        with pytest.raises(NotSPDError):
            _Workspace(reps, locs, 1.0).derivs(MaternParams(1.0, 0.3, 0.5))
        assert reps._last_pass is None

    def test_equal_sites_in_another_set_miss(self, factored):
        locs = make_locations(16, "grid")
        twin = LocationSet(locs.coords.copy())
        assert np.array_equal(twin.coords, locs.coords) and twin is not locs
        reps = self.data(16, 5)
        theta = MaternParams(0.8, 0.2, 0.5)
        p = _Workspace(reps, locs, 0.9).derivs(theta)
        assert _Workspace(reps, twin, 0.9).derivs(theta) is not p
        assert len(factored) == 2 and reps._last_pass[0] is twin

    def test_jittered_factor_is_handed_over(self, factored, inverted, monkeypatch):
        # one forced Cholesky failure: the rescued factor, with its flag, is
        # the one the workspace records and the pass inverts, with no
        # factorization of its own
        real, armed = gauss_lik.dpotrf, [True]

        def dpotrf(a, **kwargs):
            if armed[0]:
                armed[0] = False
                return a, 1                 # a forced failure
            return real(a, **kwargs)

        monkeypatch.setattr(gauss_lik, "dpotrf", dpotrf)
        locs = make_locations(16, "grid")
        ws = _Workspace(self.data(16, 1), locs, 1.0)
        ws.score(0.2, 0.5, terms=True)
        chol = ws.held[2]
        assert chol.jittered
        want = chol.L.copy()
        ws.derivs(MaternParams(1.0, 0.2, 0.5))
        assert inverted[0][0] is chol.L and np.array_equal(inverted[0][1], want)
        assert len(factored) == 1 and ws.held is None

    def test_a_factor_without_the_pass_terms_is_not_handed_over(self, factored):
        # a workspace records only the factor of a score that made the
        # terms, so the pass after a score without them scores the point
        # again, making them, to the bits of a pass that took its score's
        # factor
        locs = make_locations(16, "grid")
        reps = self.data(16, 5)
        search = _Search(reps, locs, 0.9, default_bounds(), 1e-6)
        u = np.array([0.3, 0.2])
        search.score(u)
        assert search.ws.held is None
        search.newton_step(u)
        assert len(factored) == 2
        again = search.last_pass
        # a fresh set over the same data carries no entry
        search = _Search(ReplicateSet(reps.data), locs, 0.9, default_bounds(), 1e-6)
        search.score(u, terms=True)
        search.newton_step(u)
        assert len(factored) == 3
        for name in ("g", "w", "S", "log_scale"):
            assert np.array_equal(getattr(again, name), getattr(search.last_pass, name))

    def test_a_score_with_the_terms_serves_a_pass_over_any_m(self, factored):
        # R's factor and the kernel terms depend on the sites and (beta, nu)
        # alone: a pass over m < n and one over m >= n, each in the
        # workspace of a score that made the terms, takes its factor and the
        # "pass" buffer that holds the terms, factors nothing, and gives the
        # bits of a pass that scores the point itself
        locs = make_locations(16, "grid")
        theta = MaternParams(0.7, 0.2, 0.5)
        for m in (3, 20):
            reps = ReplicateSet(np.linspace(-1.0, 1.0, 16 * m).reshape(16, m))
            ws = _Workspace(reps, locs, 0.9)
            ws.score(0.2, 0.5, terms=True)
            terms = ws._bufs["pass"]
            factored.clear()
            handed = ws.derivs(theta)
            assert factored == [] and ws._bufs["pass"] is terms
            fresh = _Workspace(ReplicateSet(reps.data), locs, 0.9).derivs(theta)
            assert len(factored) == 1
            for name in ("g", "w", "S", "log_scale"):
                assert np.array_equal(getattr(handed, name), getattr(fresh, name))


class TestWorkspaceBuffers:
    """No buffer a workspace hands out again is referenced from outside it.

    The workspace hands its buffers out again unchecked, so a factor or an
    array a caller kept past the next score or pass would be overwritten.
    """

    @pytest.fixture
    def shared(self, monkeypatch):
        # the number of references from outside the workspace to each buffer
        # it hands out again, by name; a buffer only its dict holds has the
        # reference count of the probe's
        seen = []
        probe = {"probe": np.empty(1)}
        alone = sys.getrefcount(probe["probe"])
        real = gauss_lik._Workspace.take

        def take(ws, name, size):
            if name in ws._bufs and ws._bufs[name].size >= size:
                seen.append((name, sys.getrefcount(ws._bufs[name]) - alone))
            return real(ws, name, size)

        monkeypatch.setattr(gauss_lik._Workspace, "take", take)
        return seen

    @pytest.mark.parametrize("layout, n, m", [("grid", 25, 10), ("grid", 25, 40),
                                              ("uniform", 36, 10), ("uniform", 36, 50)])
    def test_no_buffer_is_shared(self, shared, layout, n, m):
        locs, reps, _ = simulate_dataset(SimConfig(
            MaternParams(1.0, 0.2, 0.5), n=n, m=m, layout=layout, seed=4,
            contamination=ContaminationSpec(0.1, 1.0)))
        assert (locs._dist_cheb is None) == (layout == "grid")
        res = fit(reps, locs, 0.9)
        fit(reps, locs, 0.95, init=res.theta_hat)
        sandwich(reps, locs, res.theta_hat, 0.9)
        sandwich(reps, LocationSet(locs.coords), res.theta_hat, 0.9)
        spec = QGridSpec(grid=(1.0, 0.95, 0.9), eps=0.05, K=2)
        FitChain(reps, locs, tol=1e-4).profile(spec.grid)
        select_q_kappa(FitChain(reps, locs, tol=1e-4), replace(spec, L=4.0))
        select_q_sqv(FitChain(reps, locs, tol=1e-4),
                     lambda th, q: std_errs(sandwich(reps, locs, th, q)), spec, m=m)
        names = {name for name, _ in shared}
        assert names == {"R", "pass"}
        assert [s for s in shared if s[1] != 0] == []
