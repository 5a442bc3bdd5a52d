import numpy as np
import pytest

from lqmatern.gauss_lik import (LqValue, NotSPDError, ReplicateSet,
                                chol_factor, log_likelihood, loglik_columns,
                                lq_of_loglik, profile_lq, profile_sigma2,
                                total_lq)
from lqmatern.matern import LocationSet, MaternParams, build_cov


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

    def test_not_spd_error(self):
        with pytest.raises(NotSPDError):
            chol_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entries_raise(self, bad):
        # LAPACK runs without a finiteness scan; an inf diagonal factors
        # "successfully" and must be caught through the log determinant
        with pytest.raises(NotSPDError):
            chol_factor(np.array([[bad, 0.0], [0.0, 1.0]]))


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
            from scipy.linalg import solve_triangular
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
        v = lq_of_loglik(-3.2, 1.0, 5)
        assert v.value == -3.2 and v.q == 1.0 and not v.scaled

    def test_zero_loglik(self):
        assert lq_of_loglik(0.0, 0.5, 5).value == 0.0

    def test_direct_value(self):
        got = lq_of_loglik(-2.0, 0.9, 5).value
        assert got == pytest.approx(-1.8126924692201813, rel=1e-12)
        assert got == pytest.approx(np.expm1(-2.0 * 0.1) / 0.1, rel=1e-14)

    def test_scaled_branch(self):
        v = lq_of_loglik(-2.0, 0.9, 5, scale=True)
        assert v.scaled
        assert v.value == pytest.approx(np.exp((-2.0 + 5) * 0.1), rel=1e-14)

    def test_domain_errors(self):
        for q in (0.0, -0.5, 1.1):
            with pytest.raises(ValueError):
                lq_of_loglik(-1.0, q, 5)

    def test_scaled_flag_forbidden_at_q_one(self):
        with pytest.raises(ValueError):
            LqValue(value=-1.0, q=1.0, scaled=True)

    def test_limit_as_q_to_one(self):
        # error term is l^2(1-q)/2, so 1e-6(1+|l|) only holds for |l| < ~200
        rng = np.random.default_rng(5)
        for _ in range(50):
            l = rng.uniform(-180.0, 10.0)
            got = lq_of_loglik(l, 1.0 - 1e-8, 5).value
            assert abs(got - l) < 1e-6 * (1.0 + abs(l))


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
        assert got == pytest.approx(lq_of_loglik(l, 0.8, 4).value, rel=1e-12)

    def test_dense_oracle_hand_sum(self):
        cov = build_cov(self.locs, self.theta)
        want = 0.0
        for i in range(3):
            l = dense_loglik(self.reps.data[:, i], cov)
            want += np.expm1(l * 0.2) / 0.2
        got = total_lq(self.reps, self.locs, self.theta, 0.8)
        assert got == pytest.approx(want, rel=1e-10)

    def test_monotone_transform_sign_agreement(self):
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
            scaled = (total_lq(reps, locs, ta, q, scale=True)
                      - total_lq(reps, locs, tb, q, scale=True))
            assert np.sign(exact) == np.sign(scaled)

    def test_not_spd_error_carries_theta(self, monkeypatch):
        import lqmatern.gauss_lik as gl
        monkeypatch.setattr(gl, "build_cov",
                            lambda locs, theta: np.array([[1.0, 2.0],
                                                          [2.0, 1.0]]))
        reps = ReplicateSet(np.zeros((2, 2)))
        with pytest.raises(NotSPDError) as exc_info:
            total_lq(reps, self.locs, self.theta, 1.0)
        assert exc_info.value.theta == self.theta


def dense_profile(quad, n, q, lower, upper, points=20001):
    """Grid over log sigma2 of the log-domain Lq objective; (s grid, values)."""
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
        lo, hi = 1e-3, 1e3
        got = profile_sigma2(self.QUAD, self.N, q, lo, hi)
        s, vals = dense_profile(self.QUAD, self.N, q, lo, hi)
        best = int(np.argmax(vals))
        assert 0 < best < len(s) - 1
        assert abs(np.log(got) - s[best]) <= 2.0 * (s[1] - s[0])
        at_got = dense_profile(self.QUAD, self.N, q, got, got, points=1)[1][0]
        assert at_got >= vals[best] - 1e-12 * abs(vals[best])

    @pytest.mark.parametrize("q", [1.0, 0.95, 0.8, 0.5])
    def test_clips_at_each_bound(self, q):
        free = profile_sigma2(self.QUAD, self.N, q, 1e-3, 1e3)
        for lo, hi, want in ((2.0 * free, 4.0 * free, "lower"),
                             (0.25 * free, 0.5 * free, "upper")):
            got = profile_sigma2(self.QUAD, self.N, q, lo, hi)
            assert got == (lo if want == "lower" else hi)
            s, vals = dense_profile(self.QUAD, self.N, q, lo, hi)
            assert np.argmax(vals) == (0 if want == "lower" else len(s) - 1)

    def test_q_one_closed_form(self):
        got = profile_sigma2(self.QUAD, self.N, 1.0, 1e-3, 1e3)
        assert got == pytest.approx(np.mean(self.QUAD) / self.N, rel=1e-15)

    @pytest.mark.parametrize("q", [0.95, 0.8])
    def test_downweights_the_contaminated_cluster(self, q):
        # the clean replicates alone give about q sigma2 (the fixed-q target)
        clean = np.mean(self.QUAD[:40]) / self.N
        assert profile_sigma2(self.QUAD, self.N, q, 1e-3, 1e3) == \
            pytest.approx(q * clean, rel=0.05)


class TestProfileLq:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.locs = LocationSet(rng.uniform(0, 1, (5, 2)))
        self.reps = ReplicateSet(rng.standard_normal((5, 6)))

    @pytest.mark.parametrize("q", [1.0, 0.9, 0.5])
    def test_value_is_log_domain_total_lq(self, q):
        sigma2, val = profile_lq(self.reps, self.locs, 0.3, 0.8, q, 1e-3, 1e3)
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
        sigma2, _ = profile_lq(self.reps, self.locs, 0.3, 0.8, q, 1e-3, 1e3)
        at = total_lq(self.reps, self.locs, MaternParams(sigma2, 0.3, 0.8), q)
        for f in (0.99, 1.01):
            off = MaternParams(f * sigma2, 0.3, 0.8)
            assert total_lq(self.reps, self.locs, off, q) < at

    def test_q_validation(self):
        with pytest.raises(ValueError):
            profile_lq(self.reps, self.locs, 0.3, 0.8, 1.5, 1e-3, 1e3)

    def test_not_spd_error_carries_correlation_params(self, monkeypatch):
        import lqmatern.gauss_lik as gl
        monkeypatch.setattr(gl, "build_cov",
                            lambda locs, theta: np.array([[1.0, 2.0],
                                                          [2.0, 1.0]]))
        reps = ReplicateSet(np.zeros((2, 2)))
        with pytest.raises(NotSPDError) as exc_info:
            profile_lq(reps, self.locs, 0.3, 0.8, 1.0, 1e-3, 1e3)
        assert exc_info.value.theta == MaternParams(1.0, 0.3, 0.8)
