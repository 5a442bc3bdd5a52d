import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqmatern.estimate as est
from lqmatern.estimate import (Bounds, FitResult, QProfile, default_bounds,
                               default_init, fit, fit_profile)
from lqmatern.gauss_lik import (NotSPDError, ReplicateSet, chol_factor,
                                loglik_columns, profile_lq, total_lq)
from lqmatern.matern import LocationSet, MaternParams, build_cov
from lqmatern.simulate import (ContaminationSpec, SimConfig, gen_replicates,
                               make_locations, simulate_dataset)

THETA0 = MaternParams(1.0, 0.2, 0.5)


@pytest.fixture(scope="module")
def small_data():
    locs = make_locations(16, "grid")
    reps = gen_replicates(locs, THETA0, 30, seed=0)
    return locs, reps


@pytest.fixture(scope="module")
def recovery_data():
    locs = make_locations(25, "grid")
    reps = gen_replicates(locs, THETA0, 100, seed=1)
    return locs, reps


class TestBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            Bounds(MaternParams(1.0, 0.1, 0.5), MaternParams(1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            Bounds(MaternParams(2.0, 0.1, 0.5), MaternParams(1.0, 1.0, 1.0))

    def test_contains(self):
        b = default_bounds()
        assert b.contains(MaternParams(1.0, 0.5, 1.0))
        assert not b.contains(MaternParams(1.0, 20.0, 1.0))
        # boundary points count as inside
        assert b.contains(b.lower) and b.contains(b.upper)

    def test_default_values(self):
        b = default_bounds()
        assert b.lower.as_array() == pytest.approx([1e-3, 1e-3, 0.05])
        assert b.upper.as_array() == pytest.approx([1e3, 10.0, 5.0])


class TestDefaultInit:
    def test_pooled_variance(self):
        rng = np.random.default_rng(0)
        reps = ReplicateSet(2.0 * rng.standard_normal((10, 50)))
        th = default_init(reps, default_bounds())
        assert th.sigma2 == pytest.approx(np.var(reps.data), rel=1e-12)
        assert th.beta == pytest.approx(0.1)
        assert th.nu == pytest.approx(0.5)

    def test_clipped_into_interior(self):
        reps = ReplicateSet(np.full((4, 3), 1e-9) +
                            1e-9 * np.arange(12).reshape(4, 3))
        b = default_bounds()
        th = default_init(reps, b)
        assert b.contains(th)
        assert th.sigma2 > b.lower.sigma2


class TestFit:
    def test_improves_on_init(self, small_data):
        locs, reps = small_data
        res = fit(reps, locs, 1.0, tol=1e-4)
        start = total_lq(reps, locs, res.init, 1.0)
        assert res.objective >= start
        assert res.q == 1.0
        assert isinstance(res.converged, bool)

    def test_reproducible(self, small_data):
        locs, reps = small_data
        a = fit(reps, locs, 0.95, tol=1e-4)
        b = fit(reps, locs, 0.95, tol=1e-4)
        assert np.array_equal(a.theta_hat.as_array(), b.theta_hat.as_array())
        assert a.objective == b.objective
        assert a.evaluations == b.evaluations

    def test_scale_flag_same_maximizer(self, small_data):
        # the reported objective, read from the search's cache, is the
        # surrogate sum exp((l + n)(1 - q)) at theta_hat, here recomputed
        # from one full covariance
        locs, reps = small_data
        res = fit(reps, locs, 0.9, tol=1e-5)
        ls = loglik_columns(reps.data,
                            chol_factor(build_cov(locs, res.theta_hat)))
        want = np.sum(np.exp((ls + reps.n) * (1.0 - 0.9)))
        assert res.objective == pytest.approx(want, rel=1e-12)

    def test_q_near_one_matches_mle(self, small_data):
        locs, reps = small_data
        a = fit(reps, locs, 1.0, tol=1e-5)
        b = fit(reps, locs, 0.9999, tol=1e-5)
        ta, tb = a.theta_hat.as_array(), b.theta_hat.as_array()
        assert np.abs(tb / ta - 1.0).max() < 0.01

    def test_recovers_truth_roughly(self, recovery_data):
        locs, reps = recovery_data
        res = fit(reps, locs, 1.0, tol=1e-5)
        assert res.converged
        t = res.theta_hat.as_array()
        assert np.abs(t / THETA0.as_array() - 1.0).max() < 0.35

    def test_init_validation(self, small_data):
        locs, reps = small_data
        bad = MaternParams(1.0, 20.0, 1.0)
        with pytest.raises(ValueError):
            fit(reps, locs, 1.0, init=bad)

    def test_q_validation_propagates(self, small_data):
        locs, reps = small_data
        with pytest.raises(ValueError):
            fit(reps, locs, 1.5)
        with pytest.raises(ValueError):
            fit(reps, locs, 0.0)

    def test_budget_exhaustion_not_converged(self, small_data):
        locs, reps = small_data
        res = fit(reps, locs, 1.0, max_evals=10)
        assert not res.converged
        assert res.evaluations <= 3 * 10 + 6  # scipy may finish a step

    def test_trial_points_respect_bounds(self, small_data, monkeypatch):
        # every (beta, nu) the search scores, and the sigma2 solved there
        locs, reps = small_data
        b = Bounds(MaternParams(0.5, 0.05, 0.2), MaternParams(2.0, 1.0, 1.5))
        lo, hi = b.as_arrays()
        seen = []
        real = est.profile_lq

        def spy(reps_, locs_, beta, nu, q_, s2_lo, s2_hi):
            sigma2, val = real(reps_, locs_, beta, nu, q_, s2_lo, s2_hi)
            seen.append((sigma2, beta, nu))
            return sigma2, val

        monkeypatch.setattr(est, "profile_lq", spy)
        for q in (1.0, 0.8):
            seen.clear()
            res = fit(reps, locs, q, bounds=b, tol=1e-3)
            pts = np.array(seen)
            assert len(pts) > 10
            assert np.all(pts >= lo) and np.all(pts <= hi)
            assert tuple(res.theta_hat.as_array()) in set(map(tuple, pts))

    def test_failure_at_init_is_an_error(self, small_data, monkeypatch):
        # init's (beta, nu) is scored first, so a factorization that fails
        # everywhere stops the fit there, before any search
        locs, reps = small_data
        calls = []

        def boom(*a, **k):
            calls.append(a[2:4])
            raise NotSPDError("forced", theta=None)

        monkeypatch.setattr(est, "profile_lq", boom)
        with pytest.raises(NotSPDError):
            fit(reps, locs, 1.0)
        init = default_init(reps, default_bounds())
        assert len(calls) == 1
        assert calls[0] == pytest.approx((init.beta, init.nu), rel=1e-15)

    # scipy's simplex subtracts inf from inf when every trial scores -inf
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_every_point_rejected_is_not_converged(self, small_data, monkeypatch):
        # init is scored and every other point is rejected: the restarts
        # cannot move, which must not pass for a confirmation
        locs, reps = small_data
        init = default_init(reps, default_bounds())
        real = est.profile_lq

        def reject(reps, locs, beta, nu, *a, **k):
            if (beta, nu) != (init.beta, init.nu):
                raise NotSPDError("forced", theta=None)
            return real(reps, locs, beta, nu, *a, **k)

        monkeypatch.setattr(est, "profile_lq", reject)
        res = fit(reps, locs, 1.0, tol=1e-3)
        assert not res.converged
        assert (res.theta_hat.beta, res.theta_hat.nu) == (init.beta, init.nu)

    @pytest.mark.parametrize("q", [1.0, 0.9])
    def test_flat_corner_is_not_converged(self, interior_data, q):
        # at the lower corner (beta = 1e-3, nu = 0.05) every correlation is
        # zero to double precision, so every point the search scores ties:
        # the restarts cannot move, which must not pass for a confirmation
        locs, reps, base = interior_data
        corner = default_bounds().lower
        res = fit(reps, locs, q, init=corner)
        assert (res.theta_hat.beta, res.theta_hat.nu) == (corner.beta, corner.nu)
        assert not res.converged
        assert base[q].converged and base[q].objective > res.objective


SYM_QS = (1.0, 0.9, 0.5)
SYM_RTOL = 1e-9


@pytest.fixture(scope="module")
def sym_data():
    """n = 36 grid, m = 30, one replicate in ten contaminated; fits per q."""
    cfg = SimConfig(MaternParams(1.0, 0.2, 0.5), n=36, m=30, layout="grid",
                    seed=7, contamination=ContaminationSpec(0.1, 1.0))
    locs, reps, _flags = simulate_dataset(cfg)
    return locs, reps, {q: fit(reps, locs, q) for q in SYM_QS}


def scaled_bounds(c2):
    lo, hi = default_bounds().as_arrays()
    return Bounds(MaternParams(c2 * lo[0], lo[1], lo[2]),
                  MaternParams(c2 * hi[0], hi[1], hi[2]))


def assert_same_theta(got, want):
    assert np.abs(got / want - 1.0).max() <= SYM_RTOL


class TestFitSymmetries:
    """Exact symmetries of the model, held by the fitted estimate."""

    @pytest.mark.parametrize("q", SYM_QS)
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(log10_c=st.floats(-3.0, 3.0))
    def test_scale_equivariance(self, sym_data, q, log10_c):
        # data * c maps (sigma2, beta, nu) to (c^2 sigma2, beta, nu)
        locs, reps, base = sym_data
        c = 10.0 ** log10_c
        res = fit(ReplicateSet(c * reps.data), locs, q, scaled_bounds(c * c))
        assert_same_theta(res.theta_hat.as_array() / [c * c, 1.0, 1.0],
                          base[q].theta_hat.as_array())

    @pytest.mark.parametrize("q", SYM_QS)
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(perm=st.permutations(range(30)))
    def test_replicate_permutation_invariance(self, sym_data, q, perm):
        locs, reps, base = sym_data
        res = fit(ReplicateSet(reps.data[:, perm]), locs, q)
        assert_same_theta(res.theta_hat.as_array(), base[q].theta_hat.as_array())

    @pytest.mark.parametrize("q", SYM_QS)
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(perm=st.permutations(range(36)))
    def test_location_permutation_invariance(self, sym_data, q, perm):
        locs, reps, base = sym_data
        res = fit(ReplicateSet(reps.data[perm]), LocationSet(locs.coords[perm]), q)
        assert_same_theta(res.theta_hat.as_array(), base[q].theta_hat.as_array())

    def test_overflowing_surrogate_still_converges(self, sym_data):
        # at data scale 1e-20 the log densities are about +1650, so the
        # reported surrogate exp((l + n)(1 - q)) overflows, silently; the
        # search, in the log domain, still finds the scaled c = 1 answer
        locs, reps, base = sym_data
        c = 1e-20
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(ReplicateSet(c * reps.data), locs, 0.5, scaled_bounds(c * c))
        assert_same_theta(res.theta_hat.as_array() / [c * c, 1.0, 1.0],
                          base[0.5].theta_hat.as_array())
        assert res.objective == np.inf
        assert res.converged

    def test_overflow_at_small_q_does_not_unconverge(self):
        # n = 144, q = 0.1: at data scale 1e-3 the surrogate overflows
        # although the fit is the c = 1 fit with sigma2 scaled by c^2
        cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=144, m=100,
                        layout="grid", seed=1)
        locs, reps, _flags = simulate_dataset(cfg)
        c = 1e-3
        base = fit(reps, locs, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(ReplicateSet(c * reps.data), locs, 0.1, scaled_bounds(c * c))
        assert base.converged and np.isfinite(base.objective)
        assert res.objective == np.inf
        assert res.converged
        assert_same_theta(res.theta_hat.as_array() / [c * c, 1.0, 1.0],
                          base.theta_hat.as_array())


# central-difference oracle for the profile derivatives: relative step
# 1e-3 in (beta, nu) leaves a truncation error of order 1e-6 of each entry;
# the kernel's own nu derivatives are stencils with step 1e-4 max(1, nu),
# good to about 1e-8, and rounding in the oracle's second differences is
# below 1e-7 of the Hessian here, so 1e-4 of the largest entry leaves a
# margin of 100 over the worst of these
PROFILE_FD_STEP = 1e-3
PROFILE_RTOL = 1e-4


def fd_profile(reps, locs, p, q, s2_lo, s2_hi):
    """Central-difference gradient and Hessian of profile_lq's value."""
    h = PROFILE_FD_STEP * p

    def f(dp):
        return profile_lq(reps, locs, *(p + dp), q, s2_lo, s2_hi)[1]

    e = np.diag(h)
    f0 = f(np.zeros(2))
    grad = np.array([(f(e[r]) - f(-e[r])) / (2 * h[r]) for r in range(2)])
    hess = np.empty((2, 2))
    for r in range(2):
        hess[r, r] = (f(e[r]) - 2 * f0 + f(-e[r])) / h[r] ** 2
    hess[0, 1] = hess[1, 0] = (f(e[0] + e[1]) - f(e[0] - e[1]) - f(e[1] - e[0])
                               + f(-e[0] - e[1])) / (4 * h[0] * h[1])
    return grad, hess


@pytest.fixture(scope="module")
def bound_data():
    """Smooth data (nu = 1.5) fitted in a box whose nu bound is 0.8."""
    cfg = SimConfig(MaternParams(1.0, 0.2, 1.5), n=36, m=30, layout="grid", seed=3)
    locs, reps, _flags = simulate_dataset(cfg)
    lo, hi = default_bounds().as_arrays()
    return locs, reps, Bounds(MaternParams(*lo), MaternParams(hi[0], hi[1], 0.8))


@pytest.fixture(scope="module")
def interior_data():
    """sym_data's design on seed 1, whose maxima are interior at every q.

    (On sym_data's seed the q = 0.5 maximum lies on the nu bound.)
    """
    cfg = SimConfig(MaternParams(1.0, 0.2, 0.5), n=36, m=30, layout="grid",
                    seed=1, contamination=ContaminationSpec(0.1, 1.0))
    locs, reps, _flags = simulate_dataset(cfg)
    return locs, reps, {q: fit(reps, locs, q) for q in SYM_QS}


def fit_without_newton(monkeypatch, *args, **kwargs):
    """``fit`` with the Newton check always rejecting: restarts only."""
    with monkeypatch.context() as mp:
        mp.setattr(est, "_profile_derivs",
                   lambda *a, **k: (np.zeros(2), np.full((2, 2), np.nan)))
        return fit(*args, **kwargs)


class TestConfirmation:
    """The Newton step that confirms a fit, and the restarts behind it."""

    @pytest.mark.parametrize("q", SYM_QS)
    @pytest.mark.parametrize("s2_hi", [1e3, 0.3], ids=["interior", "clipped"])
    def test_profile_derivs_match_central_differences(self, q, s2_hi):
        locs = make_locations(25, "uniform", seed=4)
        reps = gen_replicates(locs, THETA0, 40, seed=5)
        p = np.array([0.15, 0.8])   # away from the maximum: gradient nonzero
        s2_lo = 1e-3
        sigma2, _ = profile_lq(reps, locs, *p, q, s2_lo, s2_hi)
        clipped = sigma2 == s2_hi
        assert clipped == (s2_hi < 1.0)
        g, H = est._profile_derivs(reps, locs, sigma2, *p, q, clipped)
        g_fd, H_fd = fd_profile(reps, locs, p, q, s2_lo, s2_hi)
        assert np.abs(g - g_fd).max() <= PROFILE_RTOL * np.abs(g_fd).max()
        assert np.abs(H - H_fd).max() <= PROFILE_RTOL * np.abs(H_fd).max()

    def test_newton_confirms_interior_fits(self, interior_data):
        locs, reps, base = interior_data
        for q in SYM_QS:
            res = base[q]
            assert res.converged and res.restarts == 0

    def test_bound_optimum_takes_the_restart_path(self, bound_data, monkeypatch):
        # the Newton step cannot confirm a maximum on the nu bound; the
        # restarts then give exactly the restart-only answer, at the cost of
        # at most the one scored Newton point
        locs, reps, box = bound_data
        for q in (1.0, 0.9):
            res = fit(reps, locs, q, box)
            ref = fit_without_newton(monkeypatch, reps, locs, q, box)
            assert res.restarts >= 1 and ref.restarts == res.restarts
            assert res.theta_hat == ref.theta_hat
            assert res.theta_hat.nu == box.upper.nu
            assert ref.evaluations <= res.evaluations <= ref.evaluations + 1
            assert res.converged == ref.converged

    def test_step_that_scores_lower_is_rejected(self, interior_data, monkeypatch):
        # a negated gradient turns the confirming step into its reverse: as
        # short and in the box, but a descent, so the restarts must run
        locs, reps, base = interior_data
        real = est._profile_derivs

        def reversed_step(*args, **kwargs):
            g, H = real(*args, **kwargs)
            return -g, H

        monkeypatch.setattr(est, "_profile_derivs", reversed_step)
        for q in SYM_QS:
            res = fit(reps, locs, q)
            assert res.restarts >= 1 and res.converged
            assert res.evaluations > base[q].evaluations

    def test_newton_confirms_at_tiny_scale(self, interior_data):
        # the setup of test_overflowing_surrogate_still_converges: log densities
        # near +1650 would overflow unnormalized weights exp((1-q) l)
        locs, reps, base = interior_data
        c = 1e-20
        with np.errstate(over="ignore"):
            res = fit(ReplicateSet(c * reps.data), locs, 0.5, scaled_bounds(c * c))
        assert res.restarts == 0
        assert_same_theta(res.theta_hat.as_array() / [c * c, 1.0, 1.0],
                          base[0.5].theta_hat.as_array())

    def test_unconfirmed_powell_point_is_not_converged(self):
        # on this dataset scipy's bounded Powell (no longer offered) stopped
        # at the non-stationary (1.222, 0.421, 0.230); Nelder-Mead and its
        # Newton step find a higher profile value than that point's
        cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=100, m=100, layout="grid",
                        seed=4010006, contamination=ContaminationSpec(0.1, 1.0))
        locs, reps, _flags = simulate_dataset(cfg)
        nm = fit(reps, locs, 0.95)
        assert nm.converged
        s2_box = (default_bounds().lower.sigma2, default_bounds().upper.sigma2)

        def value(th):
            return profile_lq(reps, locs, th.beta, th.nu, 0.95, *s2_box)[1]

        assert value(nm.theta_hat) > value(MaternParams(1.222, 0.421, 0.230))


def scaled_gap(a, b):
    """Largest (beta, nu) difference of two estimates in bound-scaled units."""
    lo, hi = default_bounds().as_arrays()
    return np.abs((a.as_array() - b.as_array())[1:] / (hi - lo)[1:]).max()


class TestNewtonFinish:
    """Newton steps that finish cold fits, and warm fits that start with them."""

    def test_newton_steps_count_the_passes(self, interior_data, monkeypatch):
        locs, reps, base = interior_data
        calls = []
        real = est._profile_derivs

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(est, "_profile_derivs", counted)
        cold = fit(reps, locs, 0.9)
        assert cold.newton_steps == len(calls) >= 2
        calls.clear()
        warm = fit(reps, locs, 0.9, init=base[1.0].theta_hat, warm=True)
        assert warm.newton_steps == len(calls) >= 1
        assert warm.converged and warm.evaluations < cold.evaluations

    def test_warm_chain_confirms_in_few_evaluations(self, interior_data):
        # every fit after the first starts with Newton at the previous one
        # and confirms there; the grid holds SYM_QS in steps of 0.1
        locs, reps, base = interior_data
        prof = fit_profile(reps, locs, (1.0, 0.9, 0.8, 0.7, 0.6, 0.5))
        for res in prof.fits[1:]:
            assert res.converged and res.restarts == 0
            assert res.evaluations <= 6
        for res in prof.fits:
            if res.q in base:
                assert scaled_gap(res.theta_hat, base[res.q].theta_hat) <= 1e-6

    def test_warm_start_outside_newton_reach_falls_back(self, interior_data):
        # the q = 0.5 profile is not concave at the q = 0.9 estimate, so the
        # first Newton step is refused and the cold path runs from there
        locs, reps, base = interior_data
        res = fit(reps, locs, 0.5, init=base[0.9].theta_hat, warm=True)
        assert res.converged and res.restarts == 0 and res.evaluations > 6
        assert scaled_gap(res.theta_hat, base[0.5].theta_hat) <= 1e-6

    def test_warm_start_at_a_corner_matches_the_cold_fit(self, interior_data):
        locs, reps, _base = interior_data
        corner = default_bounds().upper
        for q in SYM_QS:
            warm = fit(reps, locs, q, init=corner, warm=True)
            cold = fit(reps, locs, q, init=corner)
            assert warm.converged and cold.converged
            assert warm.evaluations > 6
            assert scaled_gap(warm.theta_hat, cold.theta_hat) <= 1e-6

    def test_warm_start_at_its_own_estimate_confirms_by_the_tie_rule(
            self, interior_data):
        # the step from the estimate is about 1e-11, and its rise is below the
        # rounding of V: it is taken whichever of the two points scores higher
        locs, reps, base = interior_data
        for q in SYM_QS:
            res = fit(reps, locs, q, init=base[q].theta_hat, warm=True)
            assert res.converged and res.restarts == 0
            assert res.newton_steps == 1 and res.evaluations == 2
            assert_same_theta(res.theta_hat.as_array(), base[q].theta_hat.as_array())


class TestQProfile:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            QProfile(grid=(0.99, 0.98), fits=())
        with pytest.raises(ValueError):
            QProfile(grid=(1.0, 0.98, 0.98), fits=())
        with pytest.raises(ValueError):
            QProfile(grid=(), fits=())

    def test_fit_profile_warm_start_chain(self, small_data):
        locs, reps = small_data
        grid = (1.0, 0.97, 0.94)
        prof = fit_profile(reps, locs, grid, tol=1e-4)
        assert prof.grid == grid
        assert len(prof.fits) == 3
        for k in (1, 2):
            assert prof.fits[k].init == prof.fits[k - 1].theta_hat

    def test_kappa_curve_shape(self, small_data):
        locs, reps = small_data
        prof = fit_profile(reps, locs, (1.0, 0.95), tol=1e-3)
        kc = prof.kappa_curve()
        assert kc.shape == (2,) and np.all(kc > 0)

    def test_failed_point_becomes_placeholder(self, small_data, monkeypatch):
        locs, reps = small_data
        real = est.fit

        def flaky(reps_, locs_, q, *a, **k):
            if q == 0.97:
                raise NotSPDError("forced", theta=None)
            return real(reps_, locs_, q, *a, **k)

        monkeypatch.setattr(est, "fit", flaky)
        prof = fit_profile(reps, locs, (1.0, 0.97, 0.94), tol=1e-4)
        mid = prof.fits[1]
        assert not mid.converged and np.isnan(mid.objective)
        assert mid.newton_steps == 0
        assert mid.theta_hat == prof.fits[0].theta_hat
        # chain resumes from the last good estimate
        assert prof.fits[2].init == prof.fits[0].theta_hat
        assert prof.fits[2].converged
