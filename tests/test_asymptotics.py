import numpy as np
import pytest
from scipy.linalg import sqrtm

from lqmatern.asymptotics import (SandwichParts, SingularJError, StdErrs,
                                  sandwich, std_errs, ustar, ustar_all, vstar)
from lqmatern.gauss_lik import (ReplicateSet, chol_factor, log_likelihood,
                                lq_of_loglik)
from lqmatern.matern import MaternParams, build_cov
from lqmatern.simulate import gen_replicates, make_locations

# well separated points keep the covariance comfortably conditioned, so
# finite-difference oracles are trustworthy at tight tolerances
LOCS7 = make_locations(7, "uniform", seed=1)    # min pair distance 0.17
LOCS9 = make_locations(9, "uniform", seed=1)    # min pair distance 0.15


def rand_theta(rng):
    return MaternParams(rng.uniform(0.5, 2.0), rng.uniform(0.15, 0.5),
                        rng.uniform(0.2, 1.6))


def lq_contrib(z, locs, theta, q):
    l = log_likelihood(z, chol_factor(build_cov(locs, theta)))
    return lq_of_loglik(l, q, locs.n).value


def fd_steps(theta):
    t = theta.as_array()
    # nu steps stay large: the analytic gradient's nu slot is itself a
    # short-step stencil, and differencing it with a tiny step amplifies
    # that stencil's noise
    return np.array([1e-6 * t[0], 1e-6 * t[1], 1e-3 * max(1.0, t[2])])


def fd_ustar(z, locs, theta, q):
    t = theta.as_array()
    steps = fd_steps(theta)
    out = np.empty(3)
    for r in range(3):
        tp, tm = t.copy(), t.copy()
        tp[r] += steps[r]
        tm[r] -= steps[r]
        out[r] = (lq_contrib(z, locs, MaternParams.from_array(tp), q)
                  - lq_contrib(z, locs, MaternParams.from_array(tm), q)) \
            / (2 * steps[r])
    return out


class TestUstar:
    def test_is_gradient_of_lq_contribution(self):
        rng = np.random.default_rng(0)
        for q in (1.0, 0.95, 0.8):
            for _ in range(6):
                theta = rand_theta(rng)
                z = gen_replicates(LOCS7, theta, 1,
                                   seed=int(rng.integers(1e6))).data[:, 0]
                got = ustar(z, LOCS7, theta, q)
                want = fd_ustar(z, LOCS7, theta, q)
                scale = max(np.abs(want).max(), 1.0)
                assert np.abs(got - want).max() < 1e-5 * scale

    def test_q_one_is_plain_score(self):
        rng = np.random.default_rng(1)
        theta = rand_theta(rng)
        z = gen_replicates(LOCS9, theta, 1, seed=5).data[:, 0]
        got = ustar(z, LOCS9, theta, 1.0)
        want = fd_ustar(z, LOCS9, theta, 1.0)
        assert np.abs(got - want).max() < 1e-5 * max(np.abs(want).max(), 1.0)

    def test_weight_factor_links_q_to_score(self):
        # U*_q = f^(1-q) U_1 exactly, with f evaluated at the same theta
        rng = np.random.default_rng(2)
        theta = rand_theta(rng)
        z = gen_replicates(LOCS7, theta, 1, seed=9).data[:, 0]
        l = log_likelihood(z, chol_factor(build_cov(LOCS7, theta)))
        score = ustar(z, LOCS7, theta, 1.0)
        for q in (0.99, 0.9, 0.7):
            got = ustar(z, LOCS7, theta, q)
            want = np.exp(l * (1.0 - q)) * score
            assert np.abs(got - want).max() < 1e-12 * max(np.abs(want).max(), 1.0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        theta = rand_theta(rng)
        reps = gen_replicates(LOCS9, theta, 6, seed=11)
        U = ustar_all(reps, LOCS9, theta, 0.9)
        assert U.shape == (3, 6)
        for i in range(6):
            one = ustar(reps.data[:, i], LOCS9, theta, 0.9)
            assert np.abs(U[:, i] - one).max() < 1e-12

    def test_input_validation(self):
        theta = MaternParams(1.0, 0.3, 0.5)
        with pytest.raises(ValueError):
            ustar(np.zeros(5), LOCS7, theta, 1.0)
        with pytest.raises(ValueError):
            ustar(np.zeros(7), LOCS7, theta, 1.5)
        with pytest.raises(ValueError):
            ustar(np.zeros(7), LOCS7, theta, 0.0)


class TestVstar:
    def test_symmetric(self):
        rng = np.random.default_rng(4)
        theta = rand_theta(rng)
        z = gen_replicates(LOCS7, theta, 1, seed=2).data[:, 0]
        V = vstar(z, LOCS7, theta, 0.9)
        assert np.array_equal(V, V.T)

    def test_is_jacobian_of_ustar(self):
        rng = np.random.default_rng(5)
        for q in (1.0, 0.9):
            for _ in range(4):
                theta = rand_theta(rng)
                t = theta.as_array()
                z = gen_replicates(LOCS7, theta, 1,
                                   seed=int(rng.integers(1e6))).data[:, 0]
                got = vstar(z, LOCS7, theta, q)
                steps = fd_steps(theta)
                jac = np.empty((3, 3))
                for r in range(3):
                    tp, tm = t.copy(), t.copy()
                    tp[r] += steps[r]
                    tm[r] -= steps[r]
                    up = ustar(z, LOCS7, MaternParams.from_array(tp), q)
                    um = ustar(z, LOCS7, MaternParams.from_array(tm), q)
                    jac[:, r] = (up - um) / (2 * steps[r])
                jac = 0.5 * (jac + jac.T)
                scale = max(np.abs(jac).max(), 1.0)
                assert np.abs(got - jac).max() < 1e-4 * scale

    def test_q_one_drops_outer_product_term(self):
        # at q = 1 the (1-q) g g' term vanishes and V* is the Hessian of l;
        # away from q = 1 the exact difference is (1-q) f^(1-q) g g'
        rng = np.random.default_rng(6)
        theta = rand_theta(rng)
        z = gen_replicates(LOCS7, theta, 1, seed=3).data[:, 0]
        l = log_likelihood(z, chol_factor(build_cov(LOCS7, theta)))
        g = ustar(z, LOCS7, theta, 1.0)
        H = vstar(z, LOCS7, theta, 1.0)
        q = 0.9
        fpow = np.exp(l * (1.0 - q))
        want = (1.0 - q) * fpow * np.outer(g, g) + fpow * H
        got = vstar(z, LOCS7, theta, q)
        assert np.abs(got - want).max() < 1e-11 * max(np.abs(want).max(), 1.0)


class TestDenseRoute:
    def test_score_matches_explicit_inverse(self):
        # independent linear algebra: explicit inverse and trace formulas
        from lqmatern.matern import build_cov_grad, build_cov_hess

        rng = np.random.default_rng(7)
        for _ in range(5):
            theta = rand_theta(rng)
            z = gen_replicates(LOCS7, theta, 1,
                               seed=int(rng.integers(1e6))).data[:, 0]
            cov = build_cov(LOCS7, theta)
            Sinv = np.linalg.inv(cov)
            dS = build_cov_grad(LOCS7, theta)
            d2S = build_cov_hess(LOCS7, theta)
            w = Sinv @ z
            g = np.array([0.5 * w @ dS[j] @ w - 0.5 * np.trace(Sinv @ dS[j])
                          for j in range(3)])
            H = np.empty((3, 3))
            for j in range(3):
                for k in range(3):
                    H[j, k] = (0.5 * np.trace(Sinv @ dS[j] @ Sinv @ dS[k])
                               - 0.5 * np.trace(Sinv @ d2S[j, k])
                               + 0.5 * w @ d2S[j, k] @ w
                               - (dS[j] @ w) @ Sinv @ (dS[k] @ w))
            q = 0.9
            l = log_likelihood(z, chol_factor(cov))
            fpow = np.exp(l * (1.0 - q))
            want_u = fpow * g
            want_v = (1.0 - q) * fpow * np.outer(g, g) + fpow * H
            want_v = 0.5 * (want_v + want_v.T)
            got_u = ustar(z, LOCS7, theta, q)
            got_v = vstar(z, LOCS7, theta, q)
            assert np.abs(got_u - want_u).max() < 1e-9 * max(np.abs(want_u).max(), 1.0)
            assert np.abs(got_v - want_v).max() < 1e-9 * max(np.abs(want_v).max(), 1.0)


class TestSandwich:
    def setup_method(self):
        self.theta = MaternParams(1.0, 0.25, 0.5)
        self.reps = gen_replicates(LOCS9, self.theta, 8, seed=13)

    def test_requires_two_replicates(self):
        one = ReplicateSet(self.reps.data[:, :1])
        with pytest.raises(ValueError):
            sandwich(one, LOCS9, self.theta, 1.0)

    def test_moment_formulas(self):
        parts = sandwich(self.reps, LOCS9, self.theta, 0.9)
        U = ustar_all(self.reps, LOCS9, self.theta, 0.9)
        K_want = U @ U.T / self.reps.m
        J_want = np.mean([vstar(self.reps.data[:, i], LOCS9, self.theta, 0.9)
                          for i in range(self.reps.m)], axis=0)
        assert np.abs(parts.K - K_want).max() < 1e-12 * max(np.abs(K_want).max(), 1.0)
        assert np.abs(parts.J - J_want).max() < 1e-12 * max(np.abs(J_want).max(), 1.0)
        assert parts.m == 8

    def test_k_psd_and_symmetry(self):
        parts = sandwich(self.reps, LOCS9, self.theta, 0.95)
        assert np.array_equal(parts.K, parts.K.T)
        assert np.array_equal(parts.J, parts.J.T)
        lam = np.linalg.eigvalsh(parts.K)
        assert lam.min() > -1e-10 * max(lam.max(), 1.0)

    def test_k_rank_two_at_m_two(self):
        two = ReplicateSet(self.reps.data[:, :2])
        parts = sandwich(two, LOCS9, self.theta, 1.0)
        lam = np.sort(np.abs(np.linalg.eigvalsh(parts.K)))
        assert lam[0] < 1e-8 * lam[-1]

    def test_mean_score_zero_at_truth(self):
        # q = 1 score has mean zero under the truth; Monte Carlo check
        reps = gen_replicates(LOCS9, self.theta, 4000, seed=17)
        U = ustar_all(reps, LOCS9, self.theta, 1.0)
        mean = U.mean(axis=1)
        se = U.std(axis=1, ddof=1) / np.sqrt(reps.m)
        assert np.all(np.abs(mean) < 3.0 * se + 1e-12)


class TestStdErrs:
    def test_diagonal_commuting_case(self):
        J = -np.diag([4.0, 1.0, 0.25])
        K = np.diag([1.0, 4.0, 1.0])
        se = std_errs(SandwichParts(K=K, J=J, m=10))
        # diag case: se_r = sqrt(K_rr)/|J_rr| for both forms
        want = np.array([0.25, 2.0, 4.0])
        assert se.se == pytest.approx(want, rel=1e-12)
        assert se.se_sandwich == pytest.approx(want, rel=1e-12)
        assert se.convention == "negated"
        assert se.cond == pytest.approx(16.0, rel=1e-12)

    def test_identity(self):
        se = std_errs(SandwichParts(K=np.eye(3), J=-np.eye(3), m=5))
        assert se.se == pytest.approx(np.ones(3), rel=1e-12)
        assert se.cond == pytest.approx(1.0)

    def test_sign_conventions(self):
        K = np.eye(3)
        assert std_errs(SandwichParts(K=K, J=np.eye(3), m=2)).convention == "positive"
        J = np.diag([1.0, -1.0, 1.0])
        assert std_errs(SandwichParts(K=K, J=J, m=2)).convention == "absolute"

    def test_non_commuting_oracle(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((3, 3))
        K = A @ A.T + np.eye(3)
        B = rng.standard_normal((3, 3))
        J = -(B @ B.T + np.eye(3))
        se = std_errs(SandwichParts(K=K, J=J, m=7))
        S = -J
        inv_root = np.linalg.inv(np.real(sqrtm(S)))
        want = np.diag(inv_root @ np.real(sqrtm(K)) @ inv_root)
        assert se.se == pytest.approx(want, rel=1e-9)
        want_cls = np.sqrt(np.diag(np.linalg.inv(S) @ K @ np.linalg.inv(S)))
        assert se.se_sandwich == pytest.approx(want_cls, rel=1e-9)

    def test_eigenvalue_floor_keeps_finite(self):
        J = np.diag([-1.0, -1e-30, -1.0])
        se = std_errs(SandwichParts(K=np.eye(3), J=J, m=3))
        assert np.all(np.isfinite(se.se))
        assert se.cond == pytest.approx(1e10, rel=1e-6)

    @pytest.mark.parametrize("s", [1e-20, 1e-8, 1.0, 1e8])
    def test_invariant_under_rescaling(self, s):
        # the printed form and the classical sandwich are both invariant
        # under (K, J) -> (K/s^2, J/s); an absolute eigenvalue floor is not
        rng = np.random.default_rng(9)
        A = rng.standard_normal((3, 3))
        K = A @ A.T + np.eye(3)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        J = -(Q * [1.0, 0.1, 1e-3]) @ Q.T
        base = std_errs(SandwichParts(K=K, J=J, m=7))
        got = std_errs(SandwichParts(K=K / s ** 2, J=J / s, m=7))
        assert got.se == pytest.approx(base.se, rel=1e-9)
        assert got.se_sandwich == pytest.approx(base.se_sandwich, rel=1e-9)
        assert got.cond == pytest.approx(base.cond, rel=1e-9)

    def test_zero_j_raises(self):
        with pytest.raises(SingularJError):
            std_errs(SandwichParts(K=np.zeros((3, 3)), J=np.zeros((3, 3)), m=3))

    def test_nan_j_raises(self):
        J = np.full((3, 3), np.nan)
        with pytest.raises(SingularJError):
            std_errs(SandwichParts(K=np.eye(3), J=J, m=3))

    def test_data_driven_end_to_end(self):
        theta = MaternParams(1.0, 0.25, 0.5)
        reps = gen_replicates(LOCS9, theta, 50, seed=19)
        parts = sandwich(reps, LOCS9, theta, 0.95)
        se = std_errs(parts)
        assert np.all(se.se > 0) and np.all(np.isfinite(se.se))
        assert np.all(se.se_sandwich > 0)
        # at the truth (not a maximizer) the flat nu direction can push one
        # eigenvalue of J across zero, so only the sign handling is pinned
        assert se.convention in ("negated", "absolute")
