import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqmatern.asymptotics import (SandwichParts, SingularJError, sandwich,
                                  std_errs, ustar_all)
from lqmatern.gauss_lik import (NotSPDError, ReplicateSet, _corr_factor, _lq_weights,
                                _profile_factor, chol_factor)
from lqmatern import gauss_lik, matern
from lqmatern.matern import LocationSet, MaternParams, build_cov
from lqmatern.estimate import fit
from lqmatern.simulate import (SimConfig, gen_replicates, make_locations,
                               simulate_dataset)
from oracles import (cov_derivs, ess_fraction, log_likelihood, lq_of_loglik,
                     per_replicate_derivs, sigma_route_pass, ustar, vstar, weight_moment_ratio)
from seed_ledger import held_out

# well separated points keep the covariance comfortably conditioned, so
# finite-difference oracles are trustworthy at tight tolerances
LOCS7 = make_locations(7, "uniform", seed=1)    # min pair distance 0.17
LOCS9 = make_locations(9, "uniform", seed=1)    # min pair distance 0.15
LOCS25 = make_locations(25, "uniform", seed=4)  # all 300 distances distinct


def rand_theta(rng):
    return MaternParams(rng.uniform(0.5, 2.0), rng.uniform(0.15, 0.5),
                        rng.uniform(0.2, 1.6))


def lq_contrib(z, locs, theta, q):
    l = log_likelihood(z, chol_factor(build_cov(locs, theta)))
    return lq_of_loglik(l, q)


def fd_steps(theta):
    # the kernel's nu-derivatives are exact to rounding, so nu takes the same
    # short relative step as sigma2 and beta (measured errors: U* 1.5e-8,
    # V* 3.2e-9 of the largest entry)
    return 1e-6 * theta.as_array()


def fd_ustar(z, locs, theta, q):
    t = theta.as_array()
    steps = fd_steps(theta)
    out = np.empty(3)
    for r in range(3):
        tp, tm = t.copy(), t.copy()
        tp[r] += steps[r]
        tm[r] -= steps[r]
        out[r] = (lq_contrib(z, locs, MaternParams(*tp), q)
                  - lq_contrib(z, locs, MaternParams(*tm), q)) \
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
                assert np.abs(got - want).max() < 1e-7 * scale

    def test_q_one_is_plain_score(self):
        rng = np.random.default_rng(1)
        theta = rand_theta(rng)
        z = gen_replicates(LOCS9, theta, 1, seed=5).data[:, 0]
        got = ustar(z, LOCS9, theta, 1.0)
        want = fd_ustar(z, LOCS9, theta, 1.0)
        assert np.abs(got - want).max() < 1e-7 * max(np.abs(want).max(), 1.0)

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

    def test_nu_entry_against_mpmath_on_criterion_8_draws(self):
        # acceptance criterion 8 holds U* to central differences with a nu
        # step of 1e-3, whose truncation error reads about 9e-6 of its 1e-5
        # bound; on the same sites and draws (rng 108, 8 per q), the nu
        # entry against a dense g_nu whose dSigma/dnu is mpmath's derivative
        # of the kernel in nu shows that error is the differences', not U*'s
        uniq, inv = LOCS9._dist_unique
        rng = np.random.default_rng(108)
        worst = 0.0
        for q in (1.0, 0.95, 0.8):
            for _ in range(8):
                theta = rand_theta(rng)
                z = gen_replicates(LOCS9, theta, 1, seed=int(rng.integers(1e6))).data[:, 0]
                with mp.workdps(30):
                    def kernel(nu, h):
                        t = h / theta.beta
                        return (theta.sigma2 * 2 ** (1 - nu) / mp.gamma(nu)
                                * t ** nu * mp.besselk(nu, t))

                    d_nu = [0.0] + [float(mp.diff(lambda v: kernel(v, h), theta.nu))
                                    for h in uniq[1:]]
                dS = np.array(d_nu)[inv]
                Sigma = build_cov(LOCS9, theta)
                w = np.linalg.solve(Sigma, z)
                g_nu = 0.5 * w @ dS @ w - 0.5 * np.trace(np.linalg.solve(Sigma, dS))
                l = log_likelihood(z, chol_factor(Sigma))
                want = np.exp((1.0 - q) * l) * g_nu
                worst = max(worst, abs(ustar(z, LOCS9, theta, q)[2] - want) / abs(want))
        print("\nU*_nu against mpmath's dSigma/dnu on criterion 8's draws: "
              "worst relative error %.2e (allow 1e-10)" % worst)
        assert worst <= 1e-10

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        theta = rand_theta(rng)
        reps = gen_replicates(LOCS9, theta, 6, seed=11)
        U = ustar_all(reps, LOCS9, theta, 0.9)
        assert U.shape == (3, 6)
        for i in range(6):
            one = ustar(reps.data[:, i], LOCS9, theta, 0.9)
            assert np.abs(U[:, i] - one).max() < 1e-12

    @pytest.mark.parametrize("c", [1e3, 1e-4])
    def test_a_scale_past_the_float_range_raises(self, c):
        # on an n = 225 lattice at q = 0.5, the data times c at (c^2, 0.1,
        # 0.5) shift the log scale s by about -(1-q) n log c: times 1e3 e^s
        # underflowed and U* read all zeros, times 1e-4 it overflowed and
        # U* read inf.  Both raise; at unit scale and at q = 1 U* is w g e^s
        # to the bit
        seed = held_out("SimConfig.seed", "tests/test_asymptotics.py::TestUstar::"
                                          "test_a_scale_past_the_float_range_raises")[50]
        theta = MaternParams(1.0, 0.1, 0.5)
        locs, reps, _ = simulate_dataset(SimConfig(theta, n=225, m=50, layout="grid", seed=seed))
        for q in (0.5, 1.0):
            p = gauss_lik._weighted_derivs(reps, locs, theta, q)
            U = ustar_all(reps, locs, theta, q)
            assert np.array_equal(U, p.w * p.g * np.exp(p.log_scale)) and np.all(U != 0.0)
        with pytest.raises(FloatingPointError):
            ustar_all(ReplicateSet(reps.data * c), locs, MaternParams(c * c, 0.1, 0.5), 0.5)

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
                    up = ustar(z, LOCS7, MaternParams(*tp), q)
                    um = ustar(z, LOCS7, MaternParams(*tm), q)
                    jac[:, r] = (up - um) / (2 * steps[r])
                jac = 0.5 * (jac + jac.T)
                scale = max(np.abs(jac).max(), 1.0)
                assert np.abs(got - jac).max() < 1e-7 * scale

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
        rng = np.random.default_rng(7)
        for _ in range(5):
            theta = rand_theta(rng)
            z = gen_replicates(LOCS7, theta, 1,
                               seed=int(rng.integers(1e6))).data[:, 0]
            cov = build_cov(LOCS7, theta)
            Sinv = np.linalg.inv(cov)
            _, dS, d2S = cov_derivs(LOCS7, theta)
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


    @pytest.mark.parametrize("nu", [0.73, 1.7])
    @pytest.mark.parametrize("q", [1.0, 0.9, 0.5])
    def test_sandwich_matches_explicit_inverse_loop(self, nu, q):
        # the whole sandwich against a per-replicate loop over an explicit
        # inverse; every distance is unique, so the sandwich's gathers from
        # the unique-distance kernel pass carry all n(n-1)/2 values
        locs = LOCS25
        n = locs.n
        assert len(locs._dist_unique[0]) == n * (n - 1) // 2 + 1
        theta = MaternParams(1.3, 0.2, nu)
        reps = gen_replicates(locs, theta, 6, seed=23)
        cov = build_cov(locs, theta)
        Sinv = np.linalg.inv(cov)
        _, dS, d2S = cov_derivs(locs, theta)
        logdet = np.linalg.slogdet(cov)[1]
        Us, Vs = [], []
        for z in reps.data.T:
            w = Sinv @ z
            g = np.array([0.5 * w @ dS[j] @ w - 0.5 * np.trace(Sinv @ dS[j])
                          for j in range(3)])
            H = np.array([[0.5 * np.trace(Sinv @ dS[j] @ Sinv @ dS[k])
                           - 0.5 * np.trace(Sinv @ d2S[j, k])
                           + 0.5 * w @ d2S[j, k] @ w
                           - (dS[j] @ w) @ Sinv @ (dS[k] @ w)
                           for k in range(3)] for j in range(3)])
            l = -0.5 * (z @ w + logdet + n * np.log(2.0 * np.pi))
            fpow = np.exp((1.0 - q) * l)
            Us.append(fpow * g)
            Vs.append((1.0 - q) * fpow * np.outer(g, g) + fpow * H)
        K_want = np.mean([np.outer(u, u) for u in Us], axis=0)
        J_want = np.mean(Vs, axis=0)
        J_want = 0.5 * (J_want + J_want.T)
        parts = sandwich(reps, locs, theta, q)
        scale = np.exp(parts.log_scale)
        np.testing.assert_allclose(parts.K * scale ** 2, K_want, rtol=1e-9)
        np.testing.assert_allclose(parts.J * scale, J_want, rtol=1e-9)


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
        K = parts.K * np.exp(2.0 * parts.log_scale)
        J = parts.J * np.exp(parts.log_scale)
        assert np.abs(K - K_want).max() < 1e-12 * max(np.abs(K_want).max(), 1.0)
        assert np.abs(J - J_want).max() < 1e-12 * max(np.abs(J_want).max(), 1.0)
        assert parts.m == 8

    def bessel_calls(self, monkeypatch, locs):
        reps = gen_replicates(locs, self.theta, 8, seed=13)
        calls = []
        for name in ("special_kv", "special_kve"):
            def counting(order, x, real=getattr(matern, name)):
                calls.append(order)
                return real(order, x)
            monkeypatch.setattr(matern, name, counting)
        sandwich(reps, locs, self.theta, 0.9)
        return calls

    def test_at_most_two_bessel_calls(self, monkeypatch):
        # value, gradient and Hessian come from one pass: kv at the orders
        # nu and nu - 1, the order derivatives by quadrature, and build_cov's
        # order-nu values shared with the pass
        assert 0 < len(self.bessel_calls(monkeypatch, LOCS9)) <= 2

    def test_at_most_two_bessel_calls_interpolated(self, monkeypatch):
        # on irregular sites the same two orders go to kve at the nodes only
        assert LOCS25._dist_cheb is not None
        assert 0 < len(self.bessel_calls(monkeypatch, LOCS25)) <= 2

    @pytest.mark.parametrize("locs", [make_locations(16, "grid", seed=0), LOCS25],
                             ids=["grid", "uniform"])
    def test_vanishing_range_is_white_noise(self, locs):
        # at beta = 1e-200, beta^2 underflows to 0 in the terms' 1 / beta^2
        # on both kernel routes; the suite makes the RuntimeWarning an error.
        # R is I there, so only sigma2's entries of K and J are nonzero
        # (the beta and nu terms are 0), and they are Gaussian white noise's
        theta = MaternParams(1.3, 1e-200, 0.5)
        reps = gen_replicates(locs, self.theta, 8, seed=13)
        parts = sandwich(reps, locs, theta, 1.0)
        a = np.sum(reps.data ** 2, axis=0) / theta.sigma2 - locs.n
        g = 0.5 * a / theta.sigma2
        assert parts.K[0, 0] == pytest.approx(np.mean(g * g), rel=1e-12)
        assert parts.J[0, 0] == pytest.approx(
            np.mean(0.5 * locs.n - np.sum(reps.data ** 2, axis=0) / theta.sigma2)
            / theta.sigma2 ** 2, rel=1e-12)
        for M in (parts.K, parts.J):
            assert np.all(M[1:] == 0.0) and np.all(M[:, 1:] == 0.0)

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
        # diag case: se_r = sqrt(K_rr)/|J_rr|
        want = np.array([0.25, 2.0, 4.0])
        assert se.se == pytest.approx(want, rel=1e-12)
        assert se.convention == "negated"
        # J is diagonal, so its unit-diagonal form is -I
        assert se.cond == pytest.approx(1.0, rel=1e-12)

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
        S_inv = np.linalg.inv(-J)
        want = np.sqrt(np.diag(S_inv @ K @ S_inv))
        assert se.se == pytest.approx(want, rel=1e-9)

    def test_eigenvalue_floor_keeps_finite(self):
        # a unit diagonal and a null direction (1, -1, 0): the floor at 1e-10
        # of the largest eigenvalue, -2, sets cond to 1e10
        J = -np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        se = std_errs(SandwichParts(K=np.eye(3), J=J, m=3))
        assert np.all(np.isfinite(se.se))
        assert se.cond == pytest.approx(1e10, rel=1e-6)

    def test_badly_scaled_j_is_not_floored(self):
        # diag(-1, -1e-30, -1) is singular only in its units: the second
        # parameter is merely very poorly determined
        J = np.diag([-1.0, -1e-30, -1.0])
        se = std_errs(SandwichParts(K=np.eye(3), J=J, m=3))
        assert se.se == pytest.approx([1.0, 1e30, 1.0], rel=1e-12)
        assert se.cond == 1.0

    @pytest.mark.parametrize("s", [1e-20, 1e-8, 1.0, 1e8])
    def test_invariant_under_rescaling(self, s):
        # sqrt(diag(J^-1 K J^-1)) is invariant under (K, J) -> (K/s^2, J/s);
        # an absolute eigenvalue floor is not
        rng = np.random.default_rng(9)
        A = rng.standard_normal((3, 3))
        K = A @ A.T + np.eye(3)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        J = -(Q * [1.0, 0.1, 1e-3]) @ Q.T
        base = std_errs(SandwichParts(K=K, J=J, m=7))
        got = std_errs(SandwichParts(K=K / s ** 2, J=J / s, m=7))
        assert got.se == pytest.approx(base.se, rel=1e-9)
        S_inv = np.linalg.inv(-J)
        want = np.sqrt(np.diag(S_inv @ K @ S_inv))
        assert base.se == pytest.approx(want, rel=1e-9)
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
        # at the truth (not a maximizer) the flat nu direction can push one
        # eigenvalue of J across zero, so only the sign handling is pinned
        assert se.convention in ("negated", "absolute")


SE_RTOL = 1e-9


def scaled_se(reps, locs, theta, q, c):
    """std_errs with the data times c at theta's sigma2 times c^2."""
    th = MaternParams(c * c * theta.sigma2, theta.beta, theta.nu)
    return std_errs(sandwich(ReplicateSet(c * reps.data), locs, th, q))


@pytest.fixture(scope="module")
def grid_fit():
    """n = 100 grid, m = 100, seed 1, and its q = 0.5 fit."""
    cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=100, m=100, layout="grid",
                    seed=1)
    locs, reps, _ = simulate_dataset(cfg)
    theta = fit(reps, locs, 0.5).theta_hat
    return locs, reps, theta, scaled_se(reps, locs, theta, 0.5, 1.0)


def assert_scaled_se(got, base, c):
    # se is equivariant: data * c scales sigma2's entry by c^2
    assert np.all(np.isfinite(got.se)) and np.all(got.se > 0.0)
    np.testing.assert_allclose(got.se / [c * c, 1.0, 1.0], base.se,
                               rtol=SE_RTOL, atol=0.0)


class TestStdErrsAtAnyDataScale:
    """The sandwich weights are normalized, so K and J cannot underflow."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(log10_c=st.floats(-3.0, 3.0))
    @example(log10_c=3.0)
    def test_grid_fit_scale_equivariance(self, grid_fit, log10_c):
        # unnormalized weights exp((1-q) l) made K = 0 here at c = 1e3
        locs, reps, theta, base = grid_fit
        c = 10.0 ** log10_c
        assert_scaled_se(scaled_se(reps, locs, theta, 0.5, c), base, c)

    def test_uniform_n400_data_times_ten(self):
        cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=400, m=100,
                        layout="uniform", seed=1)
        locs, reps, _ = simulate_dataset(cfg)
        base = scaled_se(reps, locs, cfg.theta, 0.5, 1.0)
        assert_scaled_se(scaled_se(reps, locs, cfg.theta, 0.5, 10.0), base, 10.0)


@pytest.mark.parametrize("layout", ["grid", "uniform"])
def test_se_reproducible_at_rounding_level(layout):
    # se at the fit, with each component of theta-hat moved by 1, 2 and 3
    # times 1e-14 relative: the exact order derivatives keep se within
    # 1e-10 relative (measured <= 3.2e-12; central differences in nu
    # amplified rounding to 4.5e-7)
    locs, reps, _ = simulate_dataset(SimConfig(MaternParams(1.0, 0.1, 0.5), n=100, m=100,
                                               layout=layout, seed=1))
    for q in (1.0, 0.5):
        theta = fit(reps, locs, q).theta_hat
        base = std_errs(sandwich(reps, locs, theta, q)).se
        for j in range(3):
            for k in (1, 2, 3):
                t = theta.as_array()
                t[j] *= 1.0 + k * 1e-14
                se = std_errs(sandwich(reps, locs, MaternParams(*t), q)).se
                np.testing.assert_allclose(se, base, rtol=1e-10, atol=0.0)


# The direct pass's own rounding noise, measured as the largest change of
# standardised K and J when nu moves by 1, 2 and 3 times 1e-14 relative
# (8e-15 to 6e-14 on the layouts below).  The interpolated pass must agree
# with the direct one within this many times that noise (measured ratios
# 0.01-0.41 on the layouts below, with R and the terms both from kv on the
# direct side).
NOISE_FACTOR = 4.0


def standardised(mat):
    d = np.sqrt(np.abs(np.diag(mat)))
    return mat / np.outer(d, d)


class TestInterpolatedSandwich:
    """Irregular sites take the Chebyshev kernel (``matern._Panels``)."""

    @pytest.mark.parametrize("n, seed, theta, q", [
        (49, 1, MaternParams(1.0, 0.1, 0.5), 0.9),
        (64, 2, MaternParams(1.2, 0.2, 1.3), 0.95),
        (64, 3, MaternParams(0.8, 0.05, 0.3), 0.8),
        (49, 5, MaternParams(1.0, 0.02, 4.0), 1.0),
    ])
    def test_k_and_j_within_direct_noise(self, monkeypatch, n, seed, theta, q):
        locs, reps, _ = simulate_dataset(
            SimConfig(theta, n=n, m=30, layout="uniform", seed=seed))
        assert locs._dist_cheb is not None
        # the direct route: the same sites with no panels, so R and the
        # terms come from kv at every distance, whichever score makes them
        direct_locs = LocationSet(locs.coords)
        object.__setattr__(direct_locs, "_dist_cheb", None)
        walks, real_at = [], matern._Panels.at

        def at(*args):
            walks.append(1)
            return real_at(*args)

        monkeypatch.setattr(matern._Panels, "at", at)
        interp = sandwich(reps, locs, theta, q)
        assert walks
        walks.clear()
        direct = sandwich(reps, direct_locs, theta, q)
        noise = np.zeros(2)
        for k in (1, 2, 3):
            nudged = MaternParams(theta.sigma2, theta.beta, theta.nu * (1.0 + k * 1e-14))
            other = sandwich(reps, direct_locs, nudged, q)
            noise = np.maximum(noise, [
                np.abs(standardised(other.K) - standardised(direct.K)).max(),
                np.abs(standardised(other.J) - standardised(direct.J)).max()])
        assert walks == [] and np.all(noise > 0.0)
        err = [np.abs(standardised(interp.K) - standardised(direct.K)).max(),
               np.abs(standardised(interp.J) - standardised(direct.J)).max()]
        assert np.all(np.array(err) <= NOISE_FACTOR * noise), (err, noise)


class TestWeightedDerivativePass:
    """The one derivative pass against every replicate's g_i and H_i."""

    @pytest.mark.parametrize("layout, n, m", [("grid", 36, 30), ("uniform", 49, 30),
                                              ("grid", 25, 60)],
                             ids=["grid-36", "uniform-49", "grid-25-m60"])
    @pytest.mark.parametrize("q", [1.0, 0.95, 0.6])
    def test_matches_per_replicate_sums(self, layout, n, m, q):
        # the pass's g_i and sum w_i H_i; the fit's gradient gbar = sum w_i g_i
        # and Hessian sum w_i H_i + (1-q) sum w_i (g_i - gbar)(g_i - gbar)';
        # the sandwich's K = mean U_i U_i' and J = mean V_i, with U_i = w_i g_i
        # and V_i = (1-q) w_i g_i g_i' + w_i H_i, at m < n and m >= n alike
        theta = MaternParams(1.0, 0.15, 0.6)
        locs, reps, _ = simulate_dataset(
            SimConfig(theta, n=n, m=m, layout=layout, seed=2))
        at = MaternParams(0.9, 0.17, 0.55)
        g_want, H, lvec = per_replicate_derivs(reps.data, locs, at)
        _, w = _lq_weights(lvec, q)

        def assert_close(got, want):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        p = gauss_lik._weighted_derivs(reps, locs, at, q)
        assert_close(p.g, g_want)
        assert_close(p.w, w)
        assert_close(p.S, (H * w).sum(axis=2))

        gbar = g_want @ w
        G = g_want - gbar[:, None]
        hess_want = (H * w).sum(axis=2) + (1.0 - q) * (G * w) @ G.T
        # the full derivatives, which the fit's Newton step reads
        grad, hess = p.hessian(q)
        assert_close(grad, gbar)
        assert_close(hess, hess_want)

        U = w * g_want
        V = (1.0 - q) * U[:, None] * g_want[None] + w * H
        parts = sandwich(reps, locs, at, q)
        assert_close(parts.K, U @ U.T / reps.m)
        assert_close(parts.J, V.mean(axis=2))

    @pytest.mark.parametrize("m", [20, 49, 300])
    @pytest.mark.parametrize("layout", ["grid", "uniform"])
    def test_matches_the_dense_oracles_at_any_m(self, layout, m):
        # one route for every m: at n = 49, with fewer, as many and more
        # replicates than sites, the pass is the dense oracle's, whose
        # products with Sigma^-1 are solves on Sigma's own factor
        locs, reps, _ = simulate_dataset(
            SimConfig(MaternParams(1.0, 0.15, 0.6), n=49, m=m, layout=layout, seed=2))
        at = MaternParams(0.9, 0.17, 0.55)
        want = sigma_route_pass(reps.data, locs, at, 0.9)
        p = gauss_lik._weighted_derivs(reps, locs, at, 0.9)
        for a, b in zip((p.g, p.w, p.S, p.log_scale), want):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("layout, n", [("grid", 36), ("uniform", 49)])
    @pytest.mark.parametrize("q", [1.0, 0.9])
    @pytest.mark.parametrize("sigma2", [0.9, 3.3e-3])
    def test_r_route_matches_the_sigma_route(self, layout, n, q, sigma2):
        # the pass starts from R's factor, which the fit scores the point
        # on first, and finishes at sigma2; the oracle factors Sigma and
        # solves on it
        theta = MaternParams(1.0, 0.15, 0.6)
        locs, reps, _ = simulate_dataset(
            SimConfig(theta, n=n, m=30, layout=layout, seed=2))
        at = MaternParams(sigma2, 0.17, 0.55)
        want = sigma_route_pass(reps.data, locs, at, q)
        _profile_factor(reps, _corr_factor(locs, at.beta, at.nu, gauss_lik._Workspace()), q)
        p = gauss_lik._weighted_derivs(reps, locs, at, q)
        for a, b in zip((p.g, p.w, p.S, p.log_scale), want):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("layout, n", [("grid", 36), ("uniform", 49)])
    @pytest.mark.parametrize("q", [1.0, 0.9, 0.6])
    def test_fit_curvature_is_the_sandwich_bread(self, layout, n, q):
        # the fit's Hessian and the sandwich's J come from one pass: with
        # weights summing to one below q = 1, the centred sum differs from
        # J's uncentred one by (1-q) gbar gbar', and at q = 1 H = m J
        theta = MaternParams(1.0, 0.15, 0.6)
        locs, reps, _ = simulate_dataset(
            SimConfig(theta, n=n, m=30, layout=layout, seed=2))
        at = MaternParams(0.9, 0.17, 0.55)
        gbar, H = gauss_lik._weighted_derivs(reps, locs, at, q).hessian(q)
        J = sandwich(reps, locs, at, q).J
        want = reps.m * J
        if q < 1.0:
            want -= (1.0 - q) * np.outer(gbar, gbar)
        assert np.abs(H - want).max() <= 1e-12 * np.abs(want).max()

    def test_peak_memory(self):
        # tracemalloc sees numpy's buffers: one pass at n = 400 on irregular
        # sites holds at most 12 n x n arrays of doubles at once, counting
        # the kernel's terms and its interpolation basis
        n = 400
        theta = MaternParams(1.0, 0.1, 0.5)
        locs, reps, _ = simulate_dataset(
            SimConfig(theta, n=n, m=100, layout="uniform", seed=1))
        # the location set's distance caches are built here, outside the
        # traced call, and the kernel is the interpolated one
        assert locs._dist_cheb is not None
        tracemalloc.start()
        try:
            gauss_lik._weighted_derivs(reps, locs, theta, 0.95)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * n * n * 8, peak / (8 * n * n)

    def test_inverse_failure_raises(self, monkeypatch):
        # a nonzero info from the inverse of L raises NotSPDError carrying
        # theta through every caller of the pass, never a number
        theta = MaternParams(1.0, 0.15, 0.6)
        locs, reps, _ = simulate_dataset(
            SimConfig(theta, n=25, m=10, layout="grid", seed=2))
        monkeypatch.setattr(gauss_lik, "_invert_lower", lambda a, work: (a, 3))
        calls = (lambda: gauss_lik._weighted_derivs(reps, locs, theta, 0.95),
                 lambda: sandwich(reps, locs, theta, 0.95),
                 lambda: ustar_all(reps, locs, theta, 0.95))
        for call in calls:
            with pytest.raises(NotSPDError, match="trtri info 3") as exc_info:
                call()
            assert exc_info.value.theta == theta


@pytest.fixture(scope="module")
def population_data():
    """A population-scale sample, m = 5000, from the model on an n = 25 grid (smooth theta0)."""
    theta0 = MaternParams(1.0, 0.3, 1.5)
    locs, reps, _ = simulate_dataset(SimConfig(theta0, n=25, m=5000, seed=2710))
    return locs, reps, theta0


@pytest.fixture(scope="module")
def clean_samples():
    """n -> m = 5000 clean replicates on an n-site grid (smooth theta0), on held-out seeds."""
    seeds = held_out("SimConfig.seed", "tests/test_asymptotics.py::TestPopulationClosedForms::"
                                       "test_ess_within_its_spread_of_the_closed_form")
    theta0 = MaternParams(1.0, 0.3, 1.5)
    return {n: simulate_dataset(SimConfig(theta0, n=n, m=5000, seed=seeds[n]))[:2] + (theta0,)
            for n in (9, 25)}


@pytest.fixture(scope="module")
def population_sample():
    """m = 20000 clean replicates on an n = 25 grid (smooth theta0), on a held-out seed."""
    seeds = held_out("SimConfig.seed", "tests/test_asymptotics.py::TestPopulationClosedForms::"
                                       "test_default_fit_recovers_theta_q_at_population_scale")
    theta0 = MaternParams(1.0, 0.3, 1.5)
    return simulate_dataset(SimConfig(theta0, n=25, m=20000, seed=seeds[3]))[:2] + (theta0,)


README = Path(__file__).resolve().parents[1] / "README.md"

SUPERSCRIPT = str.maketrans("⁻⁰¹²³⁴⁵⁶⁷⁸⁹", "-0123456789")


def printed(cell):
    """(value, significant digits) of a number as the README prints it: 0.0090, 361 or 1.6·10⁵."""
    mantissa, _, power = cell.partition("·10")
    return (float(mantissa) * 10.0 ** int(power.translate(SUPERSCRIPT) or 0),
            len(mantissa.replace(".", "").lstrip("0")))


def readme_tables():
    """The tables in the README's range section, as [(q's, {n: row of cells})] in order."""
    section = README.read_text().split("## Where the claimed range can be reached")[1]
    tables = []
    for line in section.split("\n## ")[0].splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|") or cells[0].startswith("-"):
            continue
        if cells[0] == "n":
            tables.append(([float(c.removeprefix("q = ")) for c in cells[1:]], {}))
        else:
            tables[-1][1][int(cells[0])] = cells[1:]
    return tables


def theta_q(theta0, q):
    """The MLqE's target under the model, (q sigma2, beta, nu) (see ``estimate``)."""
    return MaternParams(q * theta0.sigma2, theta0.beta, theta0.nu)


class TestPopulationClosedForms:
    """The MLqE's population quantities under the model, in closed form.

    Under the model f_theta_q(z)^(1-q) times the N(0, Sigma0) density is
    proportional to the N(0, q Sigma0) density, so the weights' moments and
    the target are Gaussian ones.  Each bound is a few of the statistic's
    own standard deviations, at m far above F = ((2-q)^2 / (q(4-3q)))^(n/2)
    (at most 20 here), where the sampled weights' moments are well sampled.
    """

    def test_readme_map_is_the_closed_forms(self):
        # every cell of the README's map, ESS/m / F and the efficiency of
        # (beta, nu), is its closed form rounded to the digits printed
        (qs, pairs), (qs_eff, eff) = readme_tables()
        assert qs == qs_eff == [0.95, 0.9, 0.8, 0.7, 0.5]
        assert list(pairs) == list(eff) == [100, 400, 900]
        for n in pairs:
            for q, pair, cell_eff in zip(qs, pairs[n], eff[n], strict=True):
                ess = ess_fraction(n, q)
                cell_ess, cell_f = pair.split(" / ")
                for cell, want in ((cell_ess, ess), (cell_f, weight_moment_ratio(n, q)),
                                   (cell_eff, q * q * (2.0 - q) ** 2 * ess)):
                    value, digits = printed(cell)
                    rounded = float("%.*e" % (digits - 1, want))
                    assert rounded == pytest.approx(value, rel=1e-12, abs=0.0), (n, q, cell)

    @pytest.mark.parametrize("q", [0.95, 0.9, 0.8, 0.7])
    def test_ess_fraction_is_the_closed_form(self, population_data, q):
        # ESS/m = (sum v)^2 / (m sum v^2) of the pass's weights at theta_q
        # tends to (q(2-q))^(n/2); its sd is the delta method's, from the
        # sample covariance of (v, v^2)
        locs, reps, theta0 = population_data
        v = gauss_lik._weighted_derivs(reps, locs, theta_q(theta0, q), q).w
        a, b = v.mean(), (v * v).mean()
        grad = np.array([2.0 * a / b, -a * a / (b * b)])
        sd = np.sqrt(grad @ np.cov(np.vstack([v, v * v])) @ grad / reps.m)
        closed = ess_fraction(reps.n, q)
        assert abs(a * a / b - closed) <= 4.0 * sd
        assert sd <= 0.05 * closed

    @pytest.mark.parametrize("n", [9, 25])
    @pytest.mark.parametrize("q", [0.95, 0.9, 0.8, 0.7])
    def test_ess_within_its_spread_of_the_closed_form(self, clean_samples, q, n):
        # clean replicates, m = 5000: 1 / sum w_i^2 of the pass's weights at
        # theta_q lies within 3 sqrt((F - 1) / m), the relative spread of
        # sum w_i^2, of m (q(2-q))^(n/2).  On 20 calibration seeds per n the
        # ratio's deviation was 0.08-0.41 of that spread (sd over seeds,
        # largest at n = 25, q = 0.7, where F = 20), and at most 0.93
        locs, reps, theta0 = clean_samples[n]
        w = gauss_lik._weighted_derivs(reps, locs, theta_q(theta0, q), q).w
        ratio = 1.0 / float(w @ w) / (reps.m * ess_fraction(n, q))
        assert abs(ratio - 1.0) <= 3.0 * np.sqrt((weight_moment_ratio(n, q) - 1.0) / reps.m)

    @pytest.mark.parametrize("q", [0.9, 0.8])
    def test_fit_recovers_theta_q(self, population_data, q):
        # the scale shrinks by q and (beta, nu) are unbiased: the estimate
        # lies within a few of its own standard errors of theta_q
        locs, reps, theta0 = population_data
        res = fit(reps, locs, q)
        assert res.converged
        se = std_errs(sandwich(reps, locs, res.theta_hat, q)).se / np.sqrt(reps.m)
        gap = res.theta_hat.as_array() - theta_q(theta0, q).as_array()
        assert np.all(np.abs(gap) <= 4.0 * se)
        assert np.all(se <= 0.02 * theta_q(theta0, q).as_array())

    @pytest.mark.parametrize("q", [0.9, 0.8, 0.7])
    def test_default_fit_recovers_theta_q_at_population_scale(self, population_sample, q):
        # m = 20000 lies far above F (20 at q = 0.7), so the plug-in
        # sandwich's se is the estimate's own spread: each component of a
        # default fit lies within 4 se / sqrt(m) of theta_q = (q sigma2,
        # beta, nu).  Here |z| <= 1.8; a fit that ignored q (sigma2 near 1)
        # reads |z| of 6.9, 10.9 and 16.5 in sigma2
        locs, reps, theta0 = population_sample
        res = fit(reps, locs, q)
        assert res.converged
        se = std_errs(sandwich(reps, locs, res.theta_hat, q)).se / np.sqrt(reps.m)
        z = (res.theta_hat.as_array() - theta_q(theta0, q).as_array()) / se
        assert np.all(np.abs(z) <= 4.0), z
