import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqmatern.estimate as est
from lqmatern.estimate import (Bounds, FitResult, QProfile, default_bounds,
                               default_init, fit, fit_profile)
from lqmatern.gauss_lik import NotSPDError, ReplicateSet, total_lq
from lqmatern.matern import LocationSet, MaternParams
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
        start = total_lq(reps, locs, res.init, 1.0, scale=True)
        assert res.objective >= start
        assert res.q == 1.0 and res.scale
        assert isinstance(res.converged, bool)

    def test_reproducible(self, small_data):
        locs, reps = small_data
        a = fit(reps, locs, 0.95, tol=1e-4)
        b = fit(reps, locs, 0.95, tol=1e-4)
        assert np.array_equal(a.theta_hat.as_array(), b.theta_hat.as_array())
        assert a.objective == b.objective
        assert a.evaluations == b.evaluations

    def test_scale_flag_same_maximizer(self, small_data):
        # the search compares the log-domain profile value either way;
        # scale only picks the form of the reported objective
        locs, reps = small_data
        a = fit(reps, locs, 0.9, tol=1e-5, scale=True)
        b = fit(reps, locs, 0.9, tol=1e-5, scale=False)
        assert a.theta_hat == b.theta_hat and a.evaluations == b.evaluations
        assert a.objective == total_lq(reps, locs, a.theta_hat, 0.9, scale=True)
        assert b.objective == total_lq(reps, locs, b.theta_hat, 0.9, scale=False)

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

    def test_method_validation(self, small_data):
        locs, reps = small_data
        with pytest.raises(ValueError):
            fit(reps, locs, 1.0, method="bfgs")

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
        locs, reps = small_data

        def boom(*a, **k):
            raise NotSPDError("forced", theta=None)

        monkeypatch.setattr(est, "total_lq", boom)
        with pytest.raises(NotSPDError):
            fit(reps, locs, 1.0)

    # scipy's simplex subtracts inf from inf when every point scores -inf
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_every_point_rejected_is_not_converged(self, small_data, monkeypatch):
        locs, reps = small_data

        def reject(*a, **k):
            raise NotSPDError("forced", theta=None)

        monkeypatch.setattr(est, "profile_lq", reject)
        res = fit(reps, locs, 1.0, tol=1e-3)
        assert not res.converged
        assert res.theta_hat == res.init

    def test_powell_reaches_comparable_optimum(self, recovery_data):
        # the (beta, nu) ridge is flat, so compare attained objectives,
        # not coordinates
        locs, reps = recovery_data
        a = fit(reps, locs, 1.0, tol=1e-5)
        b = fit(reps, locs, 1.0, tol=1e-5, method="powell")
        assert abs(a.objective - b.objective) < 1e-3 * abs(a.objective)


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

    def test_overflowing_surrogate_is_flagged(self, sym_data):
        # at data scale 1e-20 the log densities are about +1650, so the
        # reported surrogate exp((l + n)(1 - q)) overflows; the search, in the
        # log domain, still finds the scaled c = 1 answer
        locs, reps, base = sym_data
        c = 1e-20
        with np.errstate(over="ignore"):
            res = fit(ReplicateSet(c * reps.data), locs, 0.5, scaled_bounds(c * c))
        assert_same_theta(res.theta_hat.as_array() / [c * c, 1.0, 1.0],
                          base[0.5].theta_hat.as_array())
        assert res.objective == np.inf
        assert not res.converged


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
        assert mid.theta_hat == prof.fits[0].theta_hat
        # chain resumes from the last good estimate
        assert prof.fits[2].init == prof.fits[0].theta_hat
        assert prof.fits[2].converged
