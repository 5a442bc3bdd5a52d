import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import lqmatern.estimate as est
from lqmatern import gauss_lik, matern
from lqmatern.asymptotics import sandwich
from lqmatern.estimate import Bounds, FitChain, default_bounds, default_init, fit
from lqmatern.gauss_lik import NotSPDError, ReplicateSet, _Workspace, chol_factor
from lqmatern.matern import LocationSet, MaternParams, build_cov
from lqmatern.qselect import DEFAULT_GRID
from lqmatern.simulate import (ContaminationSpec, SimConfig, gen_replicates,
                               make_locations, simulate_dataset)
from oracles import loglik_columns, profile_lq, total_lq
from seed_ledger import held_out

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
            Bounds((0.1, 0.5), (1.0, 0.5))
        with pytest.raises(ValueError):
            Bounds((0.1, 1.5), (1.0, 1.0))

    def test_contains(self):
        b = default_bounds()
        assert b.contains(MaternParams(1.0, 0.5, 1.0))
        assert not b.contains(MaternParams(1.0, 20.0, 1.0))
        # boundary points count as inside, at any sigma2
        for s2 in (1e-300, 1e300):
            assert b.contains(MaternParams(s2, *b.lower)) and b.contains(MaternParams(s2, *b.upper))

    def test_default_values(self):
        b = default_bounds()
        assert b.lower == (1e-3, 0.05) and b.upper == (10.0, 5.0)


class TestDefaultInit:
    def test_pooled_variance(self):
        rng = np.random.default_rng(0)
        reps = ReplicateSet(2.0 * rng.standard_normal((10, 50)))
        th = default_init(reps, default_bounds())
        assert th.sigma2 == pytest.approx(np.mean(reps.data ** 2), rel=1e-12)
        assert th.beta == pytest.approx(0.1)
        assert th.nu == pytest.approx(0.5)

    def test_start_inside_the_box_is_kept_exactly(self):
        # fits in the default box keep their start bit for bit
        reps = ReplicateSet(np.ones((4, 3)))
        th = default_init(reps, default_bounds())
        assert (th.beta, th.nu) == (0.1, 0.5)

    def test_start_outside_the_box_moves_a_tenth_inside(self):
        reps = ReplicateSet(np.ones((4, 3)))
        lo, hi = default_bounds().as_arrays()
        for box, want in (
                (Bounds(lo, (hi[0], 0.38)), (0.1, 0.38 - 0.1 * (0.38 - 0.05))),
                (Bounds((0.2, 0.6), hi), (0.2 + 0.1 * (10.0 - 0.2), 0.6 + 0.1 * (5.0 - 0.6))),
                (Bounds((0.1, lo[1]), hi), (0.1 + 0.1 * (10.0 - 0.1), 0.5))):
            th = default_init(reps, box)
            assert (th.beta, th.nu) == pytest.approx(want, rel=1e-15)

    def test_start_off_a_face_spares_the_restarts(self, interior_data):
        # started 1e-6 of the width below nu = 0.38, this fit took 209
        # evaluations and 2 restarts to reach the interior maximum; the
        # default box's fit took 40.  The reference is the default box's fit
        # to tol = 1e-10: at the default tol each fit is only tol-accurate
        locs, reps, _base = interior_data
        lo, hi = default_bounds().as_arrays()
        box = Bounds(lo, (hi[0], 0.38))
        res = fit(reps, locs, 1.0, box)
        ref = fit(reps, locs, 1.0, tol=1e-10)
        assert res.converged and res.restarts == 0 and res.evaluations <= 60
        assert ref.converged
        assert abs(res.theta_hat.nu - ref.theta_hat.nu) <= 1e-6 * (0.38 - lo[1])


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
        # q is checked when fit is called, from any start, before any point
        # is scored
        locs, reps = small_data
        near = default_init(reps, default_bounds())
        for q in (1.5, 0.0, float("nan")):
            with pytest.raises(ValueError):
                fit(reps, locs, q)
            with pytest.raises(ValueError):
                fit(reps, locs, q, init=near)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tol_validation(self, small_data, tol):
        # a NaN or negative tol ran the simplex to its budget, and an
        # infinite one confirmed the start; each is refused before any
        # point is scored, by fit and FitChain alike
        locs, reps = small_data
        with pytest.raises(ValueError, match="tol"):
            fit(reps, locs, 0.9, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            FitChain(reps, locs, tol=tol)

    def test_budget_exhaustion_not_converged(self, small_data, monkeypatch):
        locs, reps = small_data
        monkeypatch.setattr(est, "_MAX_EVALS", 10)
        res = fit(reps, locs, 1.0)
        assert not res.converged
        assert res.evaluations <= 3 * 10 + 6  # scipy may finish a step

    def test_trial_points_respect_bounds(self, small_data, monkeypatch):
        # every (beta, nu) the search scores lies in the box; sigma2 has none
        locs, reps = small_data
        b = Bounds((0.05, 0.2), (1.0, 1.5))
        lo, hi = b.as_arrays()
        seen = []
        real = est._Search.score

        def spy(search, u, terms=False):
            real(search, u, terms)
            seen.append(search.corner + u * search.width)

        monkeypatch.setattr(est._Search, "score", spy)
        for q in (1.0, 0.8):
            seen.clear()
            res = fit(reps, locs, q, bounds=b, tol=1e-3)
            pts = np.array(seen)
            assert len(pts) > 10
            assert np.all(pts >= lo) and np.all(pts <= hi)
            assert tuple(res.theta_hat.as_array()[1:]) in set(map(tuple, pts))

    def test_failure_at_init_is_an_error(self, small_data, monkeypatch):
        # init's (beta, nu) is scored first, so a factorization that fails
        # everywhere stops the fit there, before any search
        locs, reps = small_data
        calls = []

        def boom(ws, beta, nu, terms):
            calls.append((beta, nu))
            raise NotSPDError("forced", theta=None)

        monkeypatch.setattr(gauss_lik._Workspace, "_factor", boom)
        with pytest.raises(NotSPDError):
            fit(reps, locs, 1.0)
        init = default_init(reps, default_bounds())
        assert len(calls) == 1
        assert calls[0] == pytest.approx((init.beta, init.nu), rel=1e-15)

    def test_newton_from_a_point_that_cannot_be_scored_stays(self, small_data, monkeypatch):
        # a fit starts Newton only at a scored point, but the search's
        # Newton refuses one whose score failed (V = -inf): it returns the
        # point unconfirmed, with no pass and no further score
        locs, reps = small_data
        calls = []

        def boom(ws, beta, nu, terms):
            calls.append((beta, nu))
            raise NotSPDError("forced", theta=None)

        monkeypatch.setattr(gauss_lik._Workspace, "_factor", boom)
        search = est._Search(reps, locs, 0.9, default_bounds(), 1e-6)
        u = np.array([0.3, 0.4])
        got, confirmed = search.newton(u)
        assert got is u and not confirmed
        assert len(calls) == 1 and search.ws.passes == 0 and search.last_pass is None

    @pytest.mark.parametrize("rows", [15, 17])
    @pytest.mark.parametrize("entry", ["fit", "FitChain.fit", "sandwich"])
    def test_rows_that_do_not_match_the_sites(self, monkeypatch, entry, rows):
        # checked before anything is scored: LAPACK's triangular solve would
        # read 16 of 17 rows, or solve nothing on 15, at every score
        locs = make_locations(16, "grid")
        reps = ReplicateSet(np.random.default_rng(rows).standard_normal((rows, 30)))
        factors = []
        monkeypatch.setattr(gauss_lik, "_factor_in_place", lambda *args: factors.append(1))
        with pytest.raises(ValueError, match="data dimension %d does not match 16 locations"
                           % rows):
            if entry == "fit":
                fit(reps, locs, 0.95)
            elif entry == "FitChain.fit":
                FitChain(reps, locs).fit(0.95)
            else:
                sandwich(reps, locs, THETA0, 0.95)
        assert factors == []

    # scipy's simplex subtracts inf from inf when every trial scores -inf
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_every_point_rejected_is_not_converged(self, small_data, monkeypatch):
        # init is scored and every other point is rejected: the simplex
        # cannot move, and the rejected Newton point's predicted rise is far
        # above V's rounding, so nothing may pass for a confirmation
        locs, reps = small_data
        init = default_init(reps, default_bounds())
        real = est._Search.score

        def reject(search, u, terms=False):
            beta, nu = search.corner + u * search.width
            if (beta, nu) != (init.beta, init.nu):
                raise NotSPDError("forced", theta=None)
            return real(search, u, terms)

        monkeypatch.setattr(est._Search, "score", reject)
        res = fit(reps, locs, 1.0, tol=1e-3)
        assert not res.converged
        assert (res.theta_hat.beta, res.theta_hat.nu) == (init.beta, init.nu)

    @pytest.mark.parametrize("q", [1.0, 0.9])
    def test_flat_corner_is_not_converged(self, interior_data, q):
        # at the lower corner (beta = 1e-3, nu = 0.05) every correlation is
        # zero to double precision, so every point the search scores near it
        # ties, and Newton has no step there: the ties must not pass for a
        # confirmation.  In the default box the default start scores higher,
        # and the climb from there is the fit from it; in a box as flat as
        # the corner the default start ties too, and the fit stays
        locs, reps, base = interior_data
        corner = MaternParams(1.0, *default_bounds().lower)
        res = fit(reps, locs, q, init=corner)
        assert res.converged and res.theta_hat == base[q].theta_hat
        res = fit(reps, locs, q, Bounds(default_bounds().lower, (2e-3, 0.1)), init=corner)
        assert (res.theta_hat.beta, res.theta_hat.nu) == (corner.beta, corner.nu)
        assert not res.converged
        assert base[q].converged and base[q].objective > res.objective


SYM_QS = (1.0, 0.9, 0.5)
SYM_RTOL = 1e-9


@pytest.fixture(scope="module")
def scale_data():
    """n = 100 grid, m = 100, rough theta0, one replicate in ten contaminated; fits per q."""
    seed = held_out("SimConfig.seed", "tests/test_estimate.py::TestFitSymmetries::"
                                      "test_default_fit_at_any_data_scale")[0]
    cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=100, m=100, layout="grid", seed=seed,
                    contamination=ContaminationSpec(0.1, 1.0))
    locs, reps, _flags = simulate_dataset(cfg)
    return locs, reps, {q: fit(reps, locs, q) for q in SYM_QS}


@pytest.fixture(scope="module")
def sym_data():
    """n = 36 grid, m = 30, one replicate in ten contaminated; fits per q."""
    cfg = SimConfig(MaternParams(1.0, 0.2, 0.5), n=36, m=30, layout="grid",
                    seed=7, contamination=ContaminationSpec(0.1, 1.0))
    locs, reps, _flags = simulate_dataset(cfg)
    return locs, reps, {q: fit(reps, locs, q) for q in SYM_QS}


def assert_same_theta(got, want):
    assert np.abs(got / want - 1.0).max() <= SYM_RTOL


class TestFitSymmetries:
    """Exact symmetries of the model, held by the fitted estimate."""

    @pytest.mark.parametrize("q", SYM_QS)
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(log10_c=st.floats(-3.0, 3.0))
    def test_scale_equivariance(self, sym_data, q, log10_c):
        # data * c maps (sigma2, beta, nu) to (c^2 sigma2, beta, nu), in
        # the default box: sigma2 has none
        locs, reps, base = sym_data
        c = 10.0 ** log10_c
        res = fit(ReplicateSet(c * reps.data), locs, q)
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

    @pytest.mark.parametrize("seed, q", [(4, 0.95), (5, 1.0), (7, 1.0)])
    def test_scale_equivariance_where_the_value_cancels(self, seed, q):
        # data scaled so that V(theta_hat) is about 0: V sums terms of size
        # about n (times m at q = 1) whose rounding stays, so a tie rule
        # floored at V_ROUNDING |V| refused the confirming step on these
        # three of 36 fits (n = 100 grid, seeds 1-12, q in {1, 0.95, 0.9}),
        # which then took about 110 more evaluations and a restart
        cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=100, m=100, layout="grid",
                        seed=seed, contamination=ContaminationSpec(0.1, 1.0))
        locs, reps, _flags = simulate_dataset(cfg)
        base = fit(reps, locs, q)
        th = base.theta_hat
        value = profile_lq(reps, locs, th.beta, th.nu, q)[1]
        # every l_i shifts by -n log c, so V by -n log c (times m at q = 1)
        c = np.exp(value / (reps.n * (reps.m if q == 1.0 else 1)))
        scaled = ReplicateSet(c * reps.data)
        res = fit(scaled, locs, q)
        t = res.theta_hat
        assert abs(profile_lq(scaled, locs, t.beta, t.nu, q)[1]) < 1e-11
        assert res.restarts == 0 and res.evaluations == base.evaluations
        assert_same_theta(t.as_array() / [c * c, 1.0, 1.0], th.as_array())

    @pytest.mark.parametrize("q", SYM_QS)
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(k=st.floats(-6.0, 6.0))
    def test_default_fit_at_any_data_scale(self, scale_data, q, k):
        # sigma2 is solved on (0, inf), so a default fit of the data times
        # c = 10^k converges to the c = 1 fit with sigma2 times c^2
        locs, reps, base = scale_data
        c = 10.0 ** k
        res = fit(ReplicateSet(c * reps.data), locs, q)
        assert res.converged and base[q].converged
        assert_same_theta(res.theta_hat.as_array() / [c * c, 1.0, 1.0],
                          base[q].theta_hat.as_array())

    @pytest.mark.parametrize("q", [0.9, 0.5])
    def test_a_replicate_of_zeros_has_no_maximum_below_q_one(self, q):
        # a replicate that is 0 at every site has l_i = -n log(sigma2) / 2 +
        # const, so below q = 1 V grows without bound as sigma2 -> 0: the
        # sigma2 solve raises at every (beta, nu).  At q = 1 the replicate
        # only pulls sigma2 down, and the fit converges
        cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=100, m=100, layout="grid", seed=3)
        locs, reps, _flags = simulate_dataset(cfg)
        data = reps.data.copy()
        data[:, 7] = 0.0
        zeros = ReplicateSet(data)
        for call in (lambda: fit(zeros, locs, q), lambda: profile_lq(zeros, locs, 0.1, 0.5, q)):
            with pytest.raises(ValueError, match="a replicate is 0 at every site"):
                call()
        res = fit(zeros, locs, 1.0)
        assert res.converged
        assert res.theta_hat.as_array() == pytest.approx([1.0514, 0.09935, 0.5326], rel=1e-4)

    def test_overflowing_surrogate_still_converges(self, sym_data):
        # at data scale 1e-20 the log densities are about +1650, so the
        # reported surrogate exp((l + n)(1 - q)) overflows, silently; the
        # search, in the log domain, still finds the scaled c = 1 answer
        locs, reps, base = sym_data
        c = 1e-20
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(ReplicateSet(c * reps.data), locs, 0.5)
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
            res = fit(ReplicateSet(c * reps.data), locs, 0.1)
        assert base.converged and np.isfinite(base.objective)
        assert res.objective == np.inf
        assert res.converged
        assert_same_theta(res.theta_hat.as_array() / [c * c, 1.0, 1.0],
                          base.theta_hat.as_array())


# central-difference oracle for the profile derivatives: relative step
# 1e-3 in (beta, nu), or 1e-3 in their logs, leaves a truncation error of
# order 1e-6 of each entry, which dominates: the kernel's own nu derivatives
# are exact to rounding, and rounding in the oracle's second differences is
# below 1e-7 of the Hessian here.  Measured worst, in the coordinates each
# case checks: 4.2e-6 (gradient) and 4.0e-7 (Hessian) of the largest entry,
# so 1e-4 leaves a margin of 20
PROFILE_FD_STEP = 1e-3
PROFILE_RTOL = 1e-4


def fd_profile(reps, locs, p, q, log=False):
    """Central-difference gradient and Hessian of profile_lq's value.

    In (beta, nu), or with ``log`` in y = log(beta, nu), at (beta, nu) = p;
    the nine points are scored in one workspace.
    """
    h = np.full(2, PROFILE_FD_STEP) if log else PROFILE_FD_STEP * p
    ws = _Workspace(reps, locs, q)

    def f(dp):
        return ws.score(*(p * np.exp(dp) if log else p + dp))[1]

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
    return locs, reps, Bounds(lo, (hi[0], 0.8))


@pytest.fixture(scope="module")
def interior_data():
    """sym_data's design on seed 1, whose maxima are interior at every q.

    (On sym_data's seed the q = 0.5 maximum lies on the nu bound.)
    """
    cfg = SimConfig(MaternParams(1.0, 0.2, 0.5), n=36, m=30, layout="grid",
                    seed=1, contamination=ContaminationSpec(0.1, 1.0))
    locs, reps, _flags = simulate_dataset(cfg)
    return locs, reps, {q: fit(reps, locs, q) for q in SYM_QS}


def bowl(cx, cy):
    """A concave quadratic with its maximum at (cx, cy), inside the box or beyond it."""
    return lambda x: -((x[0] - cx) ** 2 + 2.0 * (x[1] - cy) ** 2
                       + 0.5 * (x[0] - cx) * (x[1] - cy))


def cut(f, limit):
    """f where x + y <= limit; beyond it -inf, and NaN past limit + 0.2, as rejected points."""
    def g(x):
        s = x[0] + x[1]
        return f(x) if s <= limit else -np.inf if s <= limit + 0.2 else np.nan
    return g


def terraced(x):
    """Plateaus of a bowl: many tied values, so contractions fail and the simplex shrinks."""
    return -np.floor(8.0 * ((x[0] - 0.3) ** 2 + (x[1] - 0.6) ** 2))


# (objective, start, xatol): an interior maximum; maxima on a face and at
# a corner, from starts whose first simplex crosses the upper bound and is
# reflected; starts with a zero coordinate; an objective rejected on part of
# the box, from a finite start and from one whose first simplex is all
# rejected; and plateaus
NM_CASES = {
    "interior": (bowl(0.31, 0.62), (0.8, 0.15), 1e-6),
    "face": (bowl(1.3, 0.4), (0.97, 0.5), 1e-6),
    "corner": (bowl(-0.2, 1.4), (0.2, 0.99), 3e-3),
    "zero": (bowl(0.31, 0.62), (0.0, 0.4), 1e-6),
    "zeros": (bowl(0.05, 0.1), (0.0, 0.0), 1e-4),
    "rejected": (cut(bowl(0.6, 0.6), 1.1), (0.3, 0.3), 1e-6),
    "all-rejected": (cut(bowl(0.6, 0.6), 1.1), (0.7, 0.6), 1e-6),
    "terraced": (terraced, (0.9, 0.1), 1e-6),
}


class TestNelderMead:
    """The fit's Nelder-Mead is scipy's bounded one, step for step."""

    @staticmethod
    def both(f, x0, xatol, maxfev=est._MAX_EVALS):
        """``_nelder_mead``'s answer, checked against scipy's on -f (inf where f is not finite).

        Both must evaluate the same points, in order and to the bit, and
        return the same x, value, iterations, evaluations and status.
        """
        ours, theirs = [], []

        def v(x):
            ours.append(x.tobytes())
            return f(x)

        def g(x):
            theirs.append(x.tobytes())
            val = f(x)
            return -val if np.isfinite(val) else np.inf

        got = est._nelder_mead(v, np.array(x0), xatol, maxfev)
        # scipy's value-spread test subtracts inf from inf on an all-inf simplex
        with np.errstate(invalid="ignore"):
            res = minimize(g, np.array(x0), method="nelder-mead", bounds=[(0.0, 1.0)] * 2,
                           options={"xatol": xatol, "fatol": np.inf, "maxfev": maxfev,
                                    "maxiter": maxfev})
        x, fun, nit, nfev, status = got
        assert ours == theirs
        assert x.tobytes() == res.x.tobytes() and fun == res.fun
        assert (nit, nfev, status) == (res.nit, res.nfev, res.status)
        return got

    @pytest.mark.parametrize("case", NM_CASES)
    def test_same_steps_as_scipy(self, case):
        f, x0, xatol = NM_CASES[case]
        x, fun, _nit, nfev, status = self.both(f, x0, xatol, maxfev=400)
        if case == "all-rejected":
            # every point stays in the rejected part: the budget ends the run
            assert status == 1 and nfev == 400 and fun == np.inf
        else:
            assert status == 0 and np.isfinite(fun)
        if case in ("face", "corner"):
            assert x[0] == 1.0 if case == "face" else (x[0], x[1]) == (0.0, 1.0)

    @pytest.mark.parametrize("case", ["interior", "rejected", "terraced"])
    def test_same_end_on_every_small_budget(self, case):
        # a budget ends a run anywhere, within an iteration too
        f, x0, xatol = NM_CASES[case]
        for budget in range(40):
            assert self.both(f, x0, xatol, maxfev=budget)[4] == 1


class TestConfirmation:
    """The Newton step that confirms a fit, inside the box and on its faces."""

    @pytest.mark.parametrize("q", SYM_QS)
    @pytest.mark.parametrize("p, log_y", [((0.15, 0.8), True), ((0.15, 0.2), False)],
                             ids=["interior", "in-u"])
    def test_profile_derivs_match_central_differences(self, q, p, log_y):
        # away from the maximum: gradient nonzero.  At (0.15, 0.8) V is
        # concave in y = log(beta, nu) at each q, at (0.15, 0.2) it is not
        locs = make_locations(25, "uniform", seed=4)
        reps = gen_replicates(locs, THETA0, 40, seed=5)
        p = np.array(p)
        sigma2, _ = profile_lq(reps, locs, *p, q)
        # the pass's full derivatives, and sigma2's response through their
        # Schur complement
        gbar, hess = _Workspace(reps, locs, q).derivs(MaternParams(sigma2, *p)).hessian(q)
        g = gbar[1:]
        H = hess[1:, 1:] - np.outer(hess[1:, 0], hess[0, 1:]) / hess[0, 0]
        search = est._Search(reps, locs, q, default_bounds(), 1e-6)
        u = (p - search.corner) / search.width
        search.score(u)
        assert search.scored[u.tobytes()][0] == sigma2
        # the fit's Newton step at p is the step of these derivatives in y
        # where V is concave in y, else in u; they match central
        # differences in the coordinates of the step
        g_y, H_y = p * g, H * np.outer(p, p) + np.diag(p * g)
        assert bool(np.all(np.linalg.eigvalsh(H_y) < 0.0)) == log_y
        g_fd, H_fd = fd_profile(reps, locs, p, q, log=log_y)
        if log_y:
            g, H = g_y, H_y
        else:
            w = search.width
            g, H, g_fd, H_fd = g * w, H * np.outer(w, w), g_fd * w, H_fd * np.outer(w, w)
        assert np.abs(g - g_fd).max() <= PROFILE_RTOL * np.abs(g_fd).max()
        assert np.abs(H - H_fd).max() <= PROFILE_RTOL * np.abs(H_fd).max()
        step = search.newton_step(u)[0]
        assert np.all(np.linalg.eigvalsh(H) < 0.0)
        d = np.linalg.solve(H, -g)
        delta = p * np.expm1(d) / search.width if log_y else d
        assert np.abs(step - delta).max() <= 1e-12 * np.abs(delta).max()

    def test_newton_confirms_interior_fits(self, interior_data):
        locs, reps, base = interior_data
        for q in SYM_QS:
            res = base[q]
            assert res.converged and res.restarts == 0

    @pytest.mark.parametrize("r", [0.0, 0.1])
    def test_newton_confirms_short_range_smooth_fit(self, r):
        # theta-hat near beta = 0.016, nu = 3.2, where Newton's second step
        # (1e-5 in bound-scaled units, predicted rise 1.2e-11 at |V| = 41)
        # scored lower and sent the fit to the fallback (255-279 evaluations)
        # while the kernel's nu-derivatives were central differences
        cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=49, m=100, layout="uniform",
                        seed=3, contamination=ContaminationSpec(r, 1.0))
        locs, reps, _flags = simulate_dataset(cfg)
        res = fit(reps, locs, 0.7)
        assert res.converged and res.restarts == 0

    def test_bound_optimum_is_confirmed_by_the_held_step(self, bound_data, monkeypatch):
        # the maximum lies on the nu bound, where V's nu gradient points out
        # of the box: the tight simplex lands on that face, and the Newton
        # step there holds nu and moves beta alone.  A short one confirms
        # the face point, with its pass, within tol of a fit to tol = 1e-10
        locs, reps, box = bound_data
        lo, hi = box.as_arrays()
        steps = record_steps(monkeypatch)
        for q in (1.0, 0.9):
            ref = fit(reps, locs, q, box, tol=1e-10)
            steps.clear()
            res = fit(reps, locs, q, box)
            assert res.converged and res.restarts == 0 and ref.converged
            assert res.theta_hat.nu == ref.theta_hat.nu == box.upper[1]
            assert res._pass.theta == res.theta_hat
            _search, u, (delta, _rise) = steps[-1]
            assert u[1] == 1.0 and delta[1] == 0.0 and 0.0 < abs(delta[0]) <= 1e-6
            gap = (res.theta_hat.as_array() - ref.theta_hat.as_array())[1:] / (hi - lo)
            assert np.abs(gap).max() <= 1e-6

    def test_face_maximum_short_of_the_face_is_confirmed(self, interior_data):
        # in the box nu <= 0.38 the q = 0.9 maximum lies on the face, and
        # the tight simplex ends 7e-9 in u short of it.  u lies within tol
        # of the face, where nu's gradient points out of the box, so the
        # step holds nu there and confirms, with no climb, where a step that
        # held only a u of exactly 1 left the fit unconfirmed
        locs, reps, _base = interior_data
        lo, hi = default_bounds().as_arrays()
        box = Bounds(lo, (hi[0], 0.38))
        res = fit(reps, locs, 0.9, box)
        assert 0.0 < 1.0 - (res.theta_hat.nu - lo[1]) / (0.38 - lo[1]) <= 1e-6
        assert res.converged and res.restarts == 0
        assert res._pass.theta == res.theta_hat

    def test_step_that_scores_lower_is_rejected(self, interior_data, monkeypatch):
        # a negated gradient turns every Newton step into its reverse, a
        # descent: the long steps from the start score lower and are
        # refused, so the simplex runs.  Near the maximum the reversed step
        # is as short as the true one, and confirms the simplex's answer
        locs, reps, base = interior_data
        real = gauss_lik._Pass.hessian

        def reversed_step(p, q):
            gbar, H = real(p, q)
            return -gbar, H

        monkeypatch.setattr(gauss_lik._Pass, "hessian", reversed_step)
        for q in SYM_QS:
            res = fit(reps, locs, q)
            assert res.converged and res.iterations > 0
            assert res.evaluations > base[q].evaluations
            assert scaled_gap(res.theta_hat, base[q].theta_hat) <= 1e-6

    def test_newton_confirms_at_tiny_scale(self, interior_data):
        # the setup of test_overflowing_surrogate_still_converges: log densities
        # near +1650 would overflow unnormalized weights exp((1-q) l)
        locs, reps, base = interior_data
        c = 1e-20
        with np.errstate(over="ignore"):
            res = fit(ReplicateSet(c * reps.data), locs, 0.5)
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
        def value(th):
            return profile_lq(reps, locs, th.beta, th.nu, 0.95)[1]

        assert value(nm.theta_hat) > value(MaternParams(1.222, 0.421, 0.230))


class TestShortStepRule:
    """A Newton step of at most tol confirms its start, and its trial point is not scored."""

    @pytest.mark.parametrize("layout, n, seed, q, tol", [
        ("grid", 100, 1, 1.0, 1e-5), ("grid", 100, 4, 1.0, 1e-5), ("uniform", 49, 4, 0.9, 1e-6)],
        ids=["grid-100-1-1.0", "grid-100-4-1.0", "uniform-49-4-0.9"])
    def test_rounding_refusal_confirms(self, monkeypatch, layout, n, seed, q, tol):
        # a score of a short step's trial point could fall below its start
        # only by rounding: such a point is never scored, and the start
        # confirms without the tight simplex or a restart.  The short steps
        # are 2.0e-6 and 4.0e-7 in u on grid seeds 1 and 4 at tol = 1e-5,
        # and 3.1e-9 on the uniform sites
        cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=n, m=100, layout=layout, seed=seed)
        locs, reps, _flags = simulate_dataset(cfg)
        ref = fit(reps, locs, q, tol=1e-10)
        real_step, real_score = est._Search.newton_step, est._Search.score
        trials, scored = [], []

        def newton_step(search, u):
            step = real_step(search, u)
            if step is not None and np.max(np.abs(step[0])) <= search.tol:
                trials.append((tuple(search.corner + u * search.width), (u + step[0]).tobytes()))
            return step

        def score(search, u, terms=False):
            scored.append(u.tobytes())
            real_score(search, u, terms)

        monkeypatch.setattr(est._Search, "newton_step", newton_step)
        monkeypatch.setattr(est._Search, "score", score)
        res = fit(reps, locs, q, tol=tol)
        assert res.converged and res.restarts == 0
        assert trials and not {trial for _start, trial in trials} & set(scored)
        assert trials[-1][0] == (res.theta_hat.beta, res.theta_hat.nu) == (
            res._pass.theta.beta, res._pass.theta.nu)
        assert scaled_gap(res.theta_hat, ref.theta_hat) <= tol


def record_steps(monkeypatch):
    """(search, u, step) of every Newton step the fit's search takes, in order."""
    steps, real = [], est._Search.newton_step

    def newton_step(search, u):
        steps.append((search, u, real(search, u)))
        return steps[-1][2]

    monkeypatch.setattr(est._Search, "newton_step", newton_step)
    return steps


class TestTieRule:
    """A Newton point that scores lower confirms its start where its rise is V's rounding."""

    def test_point_lower_by_rounding_confirms_its_start(self, monkeypatch):
        # the sweep design's seed 2 at q = 1 and tol = 1e-10: from the
        # default start, Newton reaches a point whose next step, 1.2e-10 in
        # u, is not short, predicts a rise of 2.2e-16 against V's rounding
        # of 2.4e-11, and scores 3.6e-12 lower.  Scoring cannot tell the two
        # points apart, so the start confirms with its pass.  Without the
        # rule both simplex runs follow, and the fit ends unconfirmed
        locs, reps = sweep_data(2)
        steps = record_steps(monkeypatch)
        res = fit(reps, locs, 1.0, tol=1e-10)
        search, u, (delta, rise) = steps[-1]
        value = search.scored[u.tobytes()][1]
        assert search.scored[(u + delta).tobytes()][1] < value
        assert np.abs(delta).max() > 1e-10 and rise <= gauss_lik.V_ROUNDING * abs(value)
        assert res.converged and res.iterations == 0 and res.restarts == 0
        assert res.theta_hat == res._pass.theta
        assert (res.theta_hat.beta, res.theta_hat.nu) == tuple(search.corner + u * search.width)
        monkeypatch.setattr(est, "V_ROUNDING", -1.0)
        res = fit(reps, locs, 1.0, tol=1e-10)
        assert not res.converged and res.iterations > 0

    def test_point_lower_by_more_than_rounding_does_not_confirm(self, monkeypatch):
        # smooth contaminated data, seed 2, q = 1: the first step from the
        # default start, 0.68 in u, predicts a rise of 2.2e3 and its point
        # scores 7.8e3 lower.  Newton returns its start unconfirmed, and the
        # fit goes on to the simplex; with V's rounding taken as that
        # rise, the same step would confirm the start
        locs, reps = sweep_data(2, MaternParams(1.0, 0.3, 1.5))
        steps = record_steps(monkeypatch)
        res = fit(reps, locs, 1.0)
        search, u, (delta, rise) = steps[0]
        value = search.scored[u.tobytes()][1]
        assert search.scored[(u + delta).tobytes()][1] < value
        assert rise > gauss_lik.V_ROUNDING * abs(value)
        assert (search.corner + u * search.width == (res.init.beta, res.init.nu)).all()
        assert res.converged and res.iterations > 0 and res.restarts == 0
        got, confirmed = search.newton(u)
        assert got is u and not confirmed
        monkeypatch.setattr(est, "V_ROUNDING", 2.0 * rise / abs(value))
        got, confirmed = search.newton(u)
        assert got is u and confirmed


# Fits from the default start of 8 n = 100 grid and 4 n = 49 uniform datasets
# (the benchmark's theta0 and contamination, m = 100) at 4 q each.
# GUARD_EVALS is the distinct points they scored, every fit confirmed by
# Newton, once a short step confirmed its start without scoring its trial
# point (473 when that point was scored; 771 with every step in u, where the
# q = 1 fits fell back to the simplex at the default start; 1112 when the
# simplex ran first and counted again the points it read from the cache): a
# rounding change in the pass must not send Newton-confirmed fits to the
# fallback.
GUARD_QS = (1.0, 0.95, 0.9, 0.7)
GUARD_EVALS = 459


def test_evaluations_no_higher_than_recorded():
    total = 0
    for layout, n, seeds in (("grid", 100, range(1, 9)), ("uniform", 49, range(1, 5))):
        for seed in seeds:
            cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=n, m=100, layout=layout,
                            seed=seed, contamination=ContaminationSpec(0.1, 1.0))
            locs, reps, _flags = simulate_dataset(cfg)
            for q in GUARD_QS:
                res = fit(reps, locs, q)
                assert res.converged
                assert res.restarts == 0
                total += res.evaluations
    assert total <= GUARD_EVALS


# Item 3's census: cold fits of five theta0, rough to smooth, the last with its
# maximum on the face nu = NU_CAP in 4 of its 6 fits, n = 100 grid, m = 100,
# contaminated, seeds 1-3, q in {1, 0.9}, at tol 1e-6 and 1e-10.  The guard
# is the points they scored, 1,787 and 2,123, every fit confirmed by Newton,
# the face maxima by the step that holds nu there (1,977 and 4,202, with 4
# and 13 fits confirmed by restarts of the simplex, before the held step and
# the tie rule).
CENSUS_THETAS = ((1.0, 0.1, 0.5), (1.0, 0.3, 1.5), (1.0, 0.5, 0.3), (2.0, 0.05, 2.5),
                 (1.0, 0.02, 1.0))
GUARD_CENSUS_EVALS = 3910


def test_census_confirms_every_fit_by_newton():
    total, faces = 0, 0
    for theta0 in CENSUS_THETAS:
        for seed in (1, 2, 3):
            locs, reps = sweep_data(seed, MaternParams(*theta0))
            for q in (1.0, 0.9):
                for tol in (1e-6, 1e-10):
                    res = fit(reps, locs, q, tol=tol)
                    assert res.converged and res.restarts == 0
                    if res.theta_hat.nu == default_bounds().upper[1]:
                        assert res._pass.theta == res.theta_hat
                        faces += 1
                    total += res.evaluations
    assert faces == 8
    assert total <= GUARD_CENSUS_EVALS


def scaled_gap(a, b):
    """Largest (beta, nu) difference of two estimates in bound-scaled units."""
    lo, hi = default_bounds().as_arrays()
    return np.abs((a.as_array() - b.as_array())[1:] / (hi - lo)).max()


class TestNewtonFinish:
    """Newton steps that start every fit, and finish the simplex where they do not confirm."""

    def test_newton_steps_count_the_passes(self, interior_data, monkeypatch):
        locs, reps, base = interior_data
        calls = []
        real = gauss_lik._Workspace.derivs

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(gauss_lik._Workspace, "derivs", counted)
        default = fit(reps, locs, 0.9)
        assert default.newton_steps == len(calls) >= 2
        calls.clear()
        near = fit(reps, locs, 0.9, init=base[1.0].theta_hat)
        assert near.newton_steps == len(calls) >= 1
        assert near.converged and near.evaluations < default.evaluations

    def test_a_pass_the_memo_returns_is_not_counted(self, monkeypatch):
        # the sixth step from the start, 1.2e-6, is not short and ends the
        # first stage; the loose simplex returns its start unmoved, and the
        # pass there is the one the ReplicateSet holds: 8 calls, 7 passes
        cfg = SimConfig(MaternParams(1.0, 0.2, 0.5), n=49, m=100, layout="uniform", seed=1,
                        contamination=ContaminationSpec(0.1, 1.0))
        locs, reps, _flags = simulate_dataset(cfg)
        real, made = gauss_lik._Workspace.derivs, []

        def spy(ws, theta):
            memo = ws.reps._last_pass
            p = real(ws, theta)
            made.append(ws.reps._last_pass is not memo)
            return p

        monkeypatch.setattr(gauss_lik._Workspace, "derivs", spy)
        res = fit(reps, locs, 1.0)
        assert res.converged and res.iterations > 0
        assert made.count(False) == 1
        assert res.newton_steps == made.count(True) == len(made) - 1

    def test_failed_inverse_in_a_pass_falls_back(self, interior_data, monkeypatch):
        # L's inverse fails once, at the fit's first pass, at its start, whose
        # score made the terms: the Newton stage ends, the workspace's
        # record of R's factor went with the write of R, and the simplex
        # and the Newton steps after it still confirm the estimate (on a
        # fresh set, which carries no pass from an earlier fit)
        locs, reps, base = interior_data
        reps = ReplicateSet(reps.data)
        real_inverse, real_step = gauss_lik._invert_lower, est._Search.newton_step
        armed, steps = [True], []

        def invert_lower(a, work):
            if armed[0]:
                armed[0] = False
                return a, 1                 # a forced failure
            return real_inverse(a, work)

        def newton_step(search, u):
            step = real_step(search, u)
            steps.append((step is None, search.last_pass is None, search.ws.held is None))
            return step

        monkeypatch.setattr(gauss_lik, "_invert_lower", invert_lower)
        monkeypatch.setattr(est._Search, "newton_step", newton_step)
        res = fit(reps, locs, 0.9)
        assert not armed[0] and steps[0] == (True, True, True)
        assert len(steps) >= 2 and not any(s[0] for s in steps[1:])
        assert res.converged and res.restarts == 0 and res.newton_steps == len(steps)
        assert res._pass.theta == res.theta_hat
        assert scaled_gap(res.theta_hat, base[0.9].theta_hat) <= 1e-6

    def test_warm_chain_confirms_in_few_evaluations(self, interior_data):
        # every fit after the first starts with Newton at the previous one
        # and confirms there; the grid holds SYM_QS in steps of 0.1
        locs, reps, base = interior_data
        prof = FitChain(reps, locs).profile((1.0, 0.9, 0.8, 0.7, 0.6, 0.5))
        for res in prof[1:]:
            assert res.converged and res.restarts == 0
            assert res.evaluations <= 6
        for res in prof:
            if res.q in base:
                assert scaled_gap(res.theta_hat, base[res.q].theta_hat) <= 1e-6

    def test_warm_start_outside_newton_reach_falls_back(self, interior_data):
        # the q = 0.5 profile is concave neither in u nor in log(beta, nu)
        # at the model's theta0, so the first Newton step is refused and the
        # simplex runs from there
        locs, reps, base = interior_data
        res = fit(reps, locs, 0.5, init=THETA0)
        assert res.converged and res.restarts == 0 and res.evaluations > 6
        assert scaled_gap(res.theta_hat, base[0.5].theta_hat) <= 1e-6

    def test_warm_start_at_a_corner_matches_the_cold_fit(self, interior_data):
        locs, reps, base = interior_data
        corner = MaternParams(1.0, *default_bounds().upper)
        # with sigma2 solved on (0, inf), the upper corner is a local maximum
        # of V over the box on these data (sigma2 = 5.0e9, V = -2404 at q =
        # 1, against the cold fit's -1367): both gradient entries point out
        # of the box, and Newton there holds both and confirms the corner.
        # An answer on a face is checked against the default start, which
        # scores higher, and the climb from it lands where the fit from the
        # default start does
        for q in SYM_QS:
            res = fit(reps, locs, q, init=corner)
            assert res.converged and res.evaluations > 6
            assert scaled_gap(res.theta_hat, base[q].theta_hat) <= 1e-6

    def test_warm_start_at_its_own_estimate_confirms_unscored(self, interior_data):
        # the one step from the estimate is the estimate's own fit's last,
        # of at most tol (7e-10 at q = 1, 6e-8 at 0.9 and 1.9e-7 at 0.5): it
        # confirms its start without scoring its trial point, so the start's
        # own score is the fit's one evaluation.  The fits run on a fresh
        # set, which holds no pass at an estimate, so each makes its one pass
        locs, reps, base = interior_data
        reps = ReplicateSet(reps.data)
        for q in SYM_QS:
            res = fit(reps, locs, q, init=base[q].theta_hat)
            assert res.converged and res.restarts == 0
            assert res.newton_steps == 1 and res.evaluations == 1
            assert_same_theta(res.theta_hat.as_array(), base[q].theta_hat.as_array())


def sweep_data(seed, theta0=MaternParams(1.0, 0.1, 0.5)):
    """The sweep benchmark's design: n = 100 grid, m = 100, contaminated; its theta0 by default."""
    cfg = SimConfig(theta0, n=100, m=100, layout="grid", seed=seed,
                    contamination=ContaminationSpec(0.1, 1.0))
    return simulate_dataset(cfg)[:2]


class TestNewtonFirst:
    """Every fit starts with Newton at its start; the simplex is the fallback."""

    def test_newton_at_the_start_confirms_without_a_simplex(self, monkeypatch):
        # the default start lies within Newton's reach of the q = 0.95
        # maximum: the fit's first pass is at the start, and no simplex runs
        locs, reps = sweep_data(1)
        ref = fit(reps, locs, 0.95, tol=1e-10)
        passes = record_passes(monkeypatch)
        res = fit(reps, locs, 0.95)
        assert res.converged and res.iterations == 0 and res.restarts == 0
        assert (passes[0].beta, passes[0].nu) == (res.init.beta, res.init.nu)
        assert res.evaluations == len(passes) == 4
        assert scaled_gap(res.theta_hat, ref.theta_hat) <= 1e-6

    @pytest.mark.parametrize("seed, q", [(1, 1.0), (4, 0.95)])
    def test_log_step_confirms_at_the_start(self, monkeypatch, seed, q):
        # with every Newton step in u these fits fell back to the simplex:
        # at q = 1 the profile Hessian in u is not negative definite at the
        # default start, and on seed 4 at 0.95 the trial point of a step of
        # 1.6e-6 scored lower.  In log(beta, nu) V is concave at each of
        # their points, and the steps from the start confirm its maximum
        locs, reps = sweep_data(seed)
        ref = fit(reps, locs, q, tol=1e-10)
        passes = record_passes(monkeypatch)
        res = fit(reps, locs, q)
        assert res.converged and res.iterations == 0 and res.restarts == 0
        assert (passes[0].beta, passes[0].nu) == (res.init.beta, res.init.nu)
        assert scaled_gap(res.theta_hat, ref.theta_hat) <= 1e-6

    @pytest.mark.parametrize("seed, q", [(761, 1.0), (762, 1.0)])
    def test_newton_refused_at_the_start_falls_back(self, monkeypatch, seed, q):
        # smooth contaminated data at q = 1: the first step, in logs, leaves
        # the box by orders of magnitude, so the simplex runs from the start,
        # and the fit still lands on the maximum
        locs, reps = sweep_data(seed, MaternParams(1.0, 0.3, 1.5))
        ref = fit(reps, locs, q, tol=1e-10)
        passes = record_passes(monkeypatch)
        res = fit(reps, locs, q)
        assert res.converged and res.iterations > 0 and res.restarts == 0
        assert (passes[0].beta, passes[0].nu) == (res.init.beta, res.init.nu)
        assert scaled_gap(res.theta_hat, ref.theta_hat) <= 1e-6

    def test_step_in_logs_past_exps_range_is_refused_quietly(self, monkeypatch):
        # on 16 grid sites with 8 replicates at q = 1, V is concave in logs
        # at this start, a point of a (beta, nu) scan where H_y is all but
        # singular, and the step there is so long in nu that exp(dy)
        # overflows: the step leaves the box and is refused, with no
        # RuntimeWarning or OverflowError (the suite turns a warning into an
        # error), and the simplex takes over
        cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=16, m=8, layout="grid", seed=10003,
                        contamination=ContaminationSpec(0.1, 1.0))
        locs, reps, _flags = simulate_dataset(cfg)
        init = MaternParams(1.0, np.geomspace(1.1e-3, 9.9, 25)[11], np.linspace(0.06, 4.99, 25)[6])
        real, steps = est._Search.newton_step, []

        def newton_step(search, u):
            steps.append(real(search, u))
            return steps[-1]

        monkeypatch.setattr(est._Search, "newton_step", newton_step)
        res = fit(reps, locs, 1.0, init=init)
        assert np.isinf(steps[0][0]).any()
        assert res.converged and res.iterations > 0

    def test_step_in_u_where_v_is_not_concave_in_logs(self, monkeypatch):
        # smooth clean data at q = 1: at the default start V is concave in u
        # but not in log(beta, nu), so the first step is the one in u, to
        # about (beta, nu) = (0.273, 2.29); at the points after the simplex
        # V is concave in logs, and each step there is the one in logs
        cfg = SimConfig(MaternParams(1.0, 0.3, 1.5), n=100, m=100, layout="grid", seed=760)
        locs, reps, _flags = simulate_dataset(cfg)
        real, kinds = est._Search.newton_step, []

        def newton_step(search, u):
            out = real(search, u)
            step = None if out is None else out[0]
            x, w = search.corner + u * search.width, search.width
            gbar, hess = search.last_pass.hessian(search.ws.q)
            g = gbar[1:]
            H = hess[1:, 1:] - np.outer(hess[1:, 0], hess[0, 1:]) / hess[0, 0]
            H_y, H_u = H * np.outer(x, x) + np.diag(g * x), H * np.outer(w, w)
            if np.all(np.linalg.eigvalsh(H_y) < 0.0):
                kinds.append("log")
                want = x * np.expm1(np.linalg.solve(H_y, -g * x)) / w
            elif np.all(np.linalg.eigvalsh(H_u) < 0.0):
                kinds.append("u")
                want = np.linalg.solve(H_u, -g * w)
            else:
                kinds.append(None)
                assert step is None
                return out
            assert np.abs(step - want).max() <= 1e-12 * np.abs(want).max()
            if len(kinds) == 1:
                assert x + step * w == pytest.approx([0.273, 2.29], rel=2e-3)
            return out

        monkeypatch.setattr(est._Search, "newton_step", newton_step)
        res = fit(reps, locs, 1.0)
        assert res.converged and res.restarts == 0 and res.iterations > 0
        assert kinds[0] == "u" and kinds[-1] == "log"

    def test_each_scored_point_counts_once(self, bound_data, monkeypatch):
        # evaluations are the distinct points scored: a simplex once counted
        # again each point it read from the cache, such as its own starting
        # point.  The optimum on the nu bound takes both simplex runs, the
        # tight one from the point where Newton after the loose one stopped
        locs, reps, box = bound_data
        scored = []
        real = est._Search.score

        def score(search, u, terms=False):
            scored.append(u.tobytes())
            real(search, u, terms)

        monkeypatch.setattr(est._Search, "score", score)
        for q in (1.0, 0.9):
            scored.clear()
            res = fit(reps, locs, q, box)
            assert res.iterations > 0 and res.restarts == 0
            assert res.evaluations == len(scored) == len(set(scored))


@pytest.fixture(scope="module")
def fused_data():
    """An n = 36 grid (kv at every distance) and n = 49 uniform sites (Chebyshev)."""
    sets = []
    for layout, n in (("grid", 36), ("uniform", 49)):
        cfg = SimConfig(MaternParams(1.0, 0.2, 0.5), n=n, m=30, layout=layout,
                        seed=1, contamination=ContaminationSpec(0.1, 1.0))
        locs, reps, _flags = simulate_dataset(cfg)
        sets.append((locs, reps, fit(reps, locs, 1.0).theta_hat))
    assert sets[0][0]._dist_cheb is None and sets[1][0]._dist_cheb is not None
    return sets


@pytest.fixture
def fused_sets(fused_data):
    """``fused_data`` over fresh replicate sets, which carry no pass an earlier test made."""
    return [(locs, ReplicateSet(reps.data), near) for locs, reps, near in fused_data]


def default_and_near_fits(locs, reps, near):
    """A fit from the default start and one from ``near``, at q in {1, 0.9}."""
    for q in (1.0, 0.9):
        yield fit(reps, locs, q)
        yield fit(reps, locs, q, init=near)


class TestFusedNewtonPoint:
    """A Newton point is scored on one factor of R, and its pass starts from it."""

    def test_every_scored_point_is_profile_lqs(self, fused_sets, monkeypatch):
        # (sigma2, V) at every point a fit scores, simplex and Newton points
        # alike, is profile_lq's bit for bit
        real = est._Search.score
        scored = []

        def score(search, u, terms=False):
            real(search, u, terms)
            beta, nu = search.corner + u * search.width
            want = profile_lq(search.ws.reps, search.ws.locs, beta, nu, search.ws.q)
            assert search.scored[u.tobytes()] == want
            scored.append(u.tobytes())

        monkeypatch.setattr(est._Search, "score", score)
        for locs, reps, near in fused_sets:
            for res in default_and_near_fits(locs, reps, near):
                assert res.converged
                assert 0 < len(scored) <= res.evaluations
                scored.clear()

    def test_one_factorization_per_point(self, fused_sets, monkeypatch):
        # R is factored once per scored point, and for a pass only where
        # its point is not the one scored last with the pass's terms (a
        # simplex's answer, which it scored without them) and the memo
        # holds no pass there: per fit, factorizations = scored points +
        # those passes.  The workspace records the factor for its pass, and
        # drops it when the pass takes it; a pass the memo returns (the
        # first from ``near``, at the default start's estimate, or a second
        # pass at a point the simplex did not move) writes nothing, leaves
        # the record, and is not one of the fit's ``newton_steps``
        calls = []
        real_chol = gauss_lik._factor_in_place

        def chol(a, refill):
            calls.append(1)
            return real_chol(a, refill)

        monkeypatch.setattr(gauss_lik, "_factor_in_place", chol)
        real_score, real_step = est._Search.score, est._Search.newton_step
        held, per_pass, scores, hits = [None], [], [], []

        def score(search, u, terms=False):
            before = len(calls)
            held[0] = None
            real_score(search, u, terms)
            assert len(calls) == before + 1
            held[0] = u.tobytes() if terms else None
            scores.append(1)

        def newton_step(search, u):
            before = len(calls)
            last = held[0] == u.tobytes()
            memo = search.ws.reps._last_pass
            out = real_step(search, u)
            hit = memo is not None and search.last_pass is memo[1]
            assert len(calls) == before + (not (last or hit))
            assert search.ws.held is None or hit
            per_pass.append(last or hit)
            hits.append(hit)
            held[0] = None
            return out

        monkeypatch.setattr(est._Search, "score", score)
        monkeypatch.setattr(est._Search, "newton_step", newton_step)
        kinds = []
        for locs, reps, near in fused_sets:
            for res in default_and_near_fits(locs, reps, near):
                assert res.newton_steps == hits.count(False)
                assert len(calls) == len(scores) + per_pass.count(False)
                kinds.append(list(per_pass))
                per_pass.clear()
                calls.clear()
                scores.clear()
                hits.clear()
        # every fit's first pass is at its start, scored with the terms; a
        # pass that follows the simplex, whose answer was scored without
        # them, factors R again; the passes after a Newton step are at the
        # step's point
        assert all(k[0] for k in kinds)
        assert any(not all(k) for k in kinds) and any(any(k[1:]) for k in kinds)

    def test_forced_rescue_is_shared_by_the_score_and_the_pass(self, fused_sets,
                                                               monkeypatch):
        # the start's point is scored first and its pass starts from
        # that factor: a jitter rescue there is taken once, and the pass
        # inverts that jittered factor
        locs, reps, near = fused_sets[1]
        real_chol, real_inverse = gauss_lik.dpotrf, gauss_lik._invert_lower
        real_score = est._Search.score
        armed, seen = [False], {}

        def dpotrf(a, **kwargs):
            seen.setdefault("cholesky", 0)
            seen["cholesky"] += 1
            if armed[0]:
                armed[0] = False
                return a, 1                 # a forced failure
            return real_chol(a, **kwargs)

        def score(search, u, terms=False):
            first = "factor" not in seen
            armed[0] = first
            real_score(search, u, terms)
            if first:
                chol = search.ws.held[2]
                seen["factor"] = (chol.jittered, chol.L.copy(), seen["cholesky"])
                seen["scored"] = search.scored[u.tobytes()]
                seen["point"] = tuple(search.corner + u * search.width)

        def invert_lower(a, work):
            seen.setdefault("inverse", []).append((a.copy(), seen["cholesky"]))
            return real_inverse(a, work)

        monkeypatch.setattr(gauss_lik, "dpotrf", dpotrf)
        monkeypatch.setattr(gauss_lik, "_invert_lower", invert_lower)
        monkeypatch.setattr(est._Search, "score", score)
        fit(reps, locs, 0.9, init=near)
        jittered, L, count = seen["factor"]
        assert jittered
        # the first pass is at init, with no factorization of its own
        first, count_at_pass = seen["inverse"][0]
        assert count_at_pass == count and np.array_equal(first, L)
        armed[0] = True
        want = profile_lq(reps, locs, *seen["point"], 0.9)
        assert seen["scored"] == want

    def test_short_step_confirms_its_start(self, fused_sets, monkeypatch):
        # the estimate is the short step's start, where the fit's last pass
        # and its result's pass lie.  The short step's trial point is not
        # scored, so the fit's last score is the estimate's own, made with
        # the terms for its pass
        real = est._Search.score
        scored = []

        def score(search, u, terms=False):
            scored.append((tuple(search.corner + u * search.width), terms))
            real(search, u, terms)

        monkeypatch.setattr(est._Search, "score", score)
        passes = record_passes(monkeypatch)
        for locs, reps, near in fused_sets:
            for res in default_and_near_fits(locs, reps, near):
                assert res.converged and res.restarts == 0
                assert scored[-1] == ((res.theta_hat.beta, res.theta_hat.nu), True)
                assert passes[-1] == res.theta_hat == res._pass.theta
                scored.clear()


@pytest.fixture(scope="module")
def shared_data():
    """The analysis benchmark's design, n = 400 uniform (Chebyshev), and an n = 100 grid (kv)."""
    sets = []
    for layout, n in (("uniform", 400), ("grid", 100)):
        cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=n, m=100, layout=layout,
                        seed=9110000, contamination=ContaminationSpec(0.1, 1.0))
        sets.append(simulate_dataset(cfg)[:2])
    assert sets[0][0]._dist_cheb is not None and sets[1][0]._dist_cheb is None
    return sets


@pytest.fixture
def shared_sets(shared_data):
    """``shared_data`` over fresh replicate sets, which carry no pass an earlier test made."""
    return [(locs, ReplicateSet(reps.data)) for locs, reps in shared_data]


def count_calls(monkeypatch, owner, name):
    """A list that gets one entry per call of owner.name: the call's third argument, in a tuple.

    Only that one: an argument that views a workspace buffer, kept alive
    here, would have the workspace replace the buffer.
    """
    calls, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args[2:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestSharedWalk:
    """A score where a pass follows makes R's values and the pass's terms in one walk."""

    def point(self, locs, reps, q=0.95):
        search = est._Search(reps, locs, q, default_bounds(), 1e-6)
        return search, (np.array([0.11, 0.52]) - search.corner) / search.width

    @pytest.mark.parametrize("route", [0, 1], ids=["chebyshev", "direct"])
    def test_newton_point_makes_the_terms_once(self, shared_sets, monkeypatch, route):
        # on either kernel route the score makes R's values and the five
        # terms from one Bessel call at each order (on the Chebyshev route
        # in one walk of the panels), and the pass reads the terms: the
        # same pass, bit for bit, as one after a score that made no terms
        # (one call at the order nu), which scores the point again (two more)
        locs, reps = shared_sets[route]
        walks = count_calls(monkeypatch, matern._Panels, "at")
        bessel = [count_calls(monkeypatch, matern, name) for name in ("special_kve",)]
        per_walk = int(locs._dist_cheb is not None)
        search, u = self.point(locs, reps)
        search.score(u, terms=True)
        assert search.ws.held[:2] == tuple(search.corner + u * search.width)
        search.newton_step(u)
        assert len(walks) == per_walk and search.ws.held is None
        assert sum(map(len, bessel)) == 2
        p = search.last_pass
        # after a score without the terms the pass scores the point again,
        # making them (in a search over a fresh set, which carries no pass)
        search = self.point(locs, ReplicateSet(reps.data))[0]
        search.score(u)
        search.newton_step(u)
        again = search.last_pass
        assert len(walks) == 3 * per_walk and sum(map(len, bessel)) == 5
        for name in ("g", "w", "S", "log_scale"):
            assert np.array_equal(getattr(p, name), getattr(again, name))

    def test_sandwich_after_fit_walks_none(self, shared_sets, monkeypatch):
        # the fit's last pass lies at its estimate, so the sandwich there
        # neither factors R nor walks the panels; K and J are those of a
        # sandwich on a fresh copy of the sites, bit for bit, whose score
        # makes the terms in the walk that makes R
        locs, reps = shared_sets[0]
        res = fit(reps, locs, 0.95)
        theta = res.theta_hat
        assert res._pass.theta == theta
        twin = LocationSet(locs.coords)
        twin._dist_cheb
        walks = count_calls(monkeypatch, matern._Panels, "at")
        factors = count_calls(monkeypatch, gauss_lik, "_factor_in_place")
        hit = sandwich(reps, locs, theta, 0.95)
        assert walks == [] and factors == []
        miss = sandwich(reps, twin, theta, 0.95)
        assert len(walks) == 1 and len(factors) == 1
        for name in ("K", "J", "log_scale"):
            assert np.array_equal(getattr(hit, name), getattr(miss, name))

    @pytest.mark.parametrize("m", [60, 120])
    def test_sandwich_that_misses_the_memo_walks_once(self, monkeypatch, m):
        # a pass that factors R itself makes its terms in the walk that
        # makes R, with m < n and m >= n alike: "pass" is laid out the same
        # for every m, so the pass finds the terms where it reads them.  Its
        # pass is that of a pass that took the factor of a score that made
        # the terms, bit for bit, and a second sandwich reads it from the memo
        locs = make_locations(81, "uniform", seed=9110000)
        reps = gen_replicates(locs, MaternParams(1.0, 0.1, 0.5), m, seed=9110000)
        assert locs._dist_cheb is not None
        theta = MaternParams(0.9, 0.11, 0.52)
        walks = count_calls(monkeypatch, matern._Panels, "at")
        factors = count_calls(monkeypatch, gauss_lik, "_factor_in_place")
        miss = sandwich(reps, locs, theta, 0.95)
        assert len(walks) == 1 and len(factors) == 1
        again = sandwich(reps, locs, theta, 0.95)
        assert len(walks) == 1 and len(factors) == 1
        own = reps._last_pass[1]
        ws = gauss_lik._Workspace(ReplicateSet(reps.data), locs, 0.95)
        ws.score(theta.beta, theta.nu, terms=True)
        handed = ws.derivs(theta)
        assert len(walks) == 2 and len(factors) == 2
        for name in ("K", "J", "log_scale"):
            assert np.array_equal(getattr(miss, name), getattr(again, name))
        for name in ("g", "w", "S", "log_scale"):
            assert np.array_equal(getattr(own, name), getattr(handed, name))

    def test_lattice_score_makes_the_pass_terms(self, shared_sets, monkeypatch):
        # the direct route has no walk to share, but its score makes the
        # pass's terms from the order-nu values that make R's: the pass
        # factors nothing and calls no kve
        locs, reps = shared_sets[1]
        search, u = self.point(locs, reps)
        search.score(u, terms=True)
        assert search.ws.held[:2] == tuple(search.corner + u * search.width)
        factors = count_calls(monkeypatch, gauss_lik, "_factor_in_place")
        kv = count_calls(monkeypatch, matern, "special_kve")
        search.newton_step(u)
        assert search.last_pass is not None and factors == [] and kv == []

    def test_walks_are_factorizations(self, monkeypatch):
        # a score is the only place a fit or a sandwich evaluates the
        # kernel, so on irregular sites each walk of the panels comes with
        # one factorization of R: a fit makes as many of each, and the
        # sandwich right after it makes none.  The analysis benchmark's
        # design, where on this seed Newton confirms at the start at q =
        # 0.95 and 0.9, and at q = 1 the first pass is refused and the next
        # is at the simplex's answer, which it scored last, without the
        # terms
        locs, reps = simulate_dataset(SimConfig(
            MaternParams(1.0, 0.1, 0.5), n=400, m=100, layout="uniform", seed=9110001,
            contamination=ContaminationSpec(0.1, 1.0)))[:2]
        walks = count_calls(monkeypatch, matern._Panels, "at")
        factors = count_calls(monkeypatch, gauss_lik, "_factor_in_place")
        for q in (1.0, 0.95, 0.9):
            walks.clear()
            factors.clear()
            res = fit(reps, locs, q)
            made = len(factors)
            assert len(walks) == made > 0
            sandwich(reps, locs, res.theta_hat, q)
            assert len(walks) == len(factors) == made

    @pytest.mark.parametrize("route", [0, 1], ids=["chebyshev", "direct"])
    def test_pass_after_a_score_without_terms_scores_again(self, shared_sets, monkeypatch,
                                                          route):
        # the pass takes no factor whose score made no terms: it factors R
        # once more, every Bessel call it makes is inside that score, and
        # its pass is the one that took the factor of a score with the
        # terms, bit for bit
        locs, reps = shared_sets[route]
        search, u = self.point(locs, reps)
        search.score(u, terms=True)
        search.newton_step(u)
        hit = search.last_pass
        factors = count_calls(monkeypatch, gauss_lik, "_factor_in_place")
        inside, bessel = [False], []
        real_score = gauss_lik._Workspace._factor

        def score(*args):
            inside[0] = True
            try:
                return real_score(*args)
            finally:
                inside[0] = False

        def spy(real):
            def call(*args):
                bessel.append(inside[0])
                return real(*args)
            return call

        monkeypatch.setattr(gauss_lik._Workspace, "_factor", score)
        for name in ("special_kve",):
            monkeypatch.setattr(matern, name, spy(getattr(matern, name)))
        # a search over a fresh set, which carries no pass
        search = self.point(locs, ReplicateSet(reps.data))[0]
        search.score(u)
        factors.clear()
        bessel.clear()
        search.newton_step(u)
        again = search.last_pass
        assert len(factors) == 1 and len(bessel) == 2 and all(bessel)
        for name in ("g", "w", "S", "log_scale"):
            assert np.array_equal(getattr(hit, name), getattr(again, name))

    def test_pass_after_a_rejected_score_keeps_the_workspace(self, shared_sets, monkeypatch):
        # a score that raises leaves the workspace recording no factor; the
        # pass after it, at a point scored earlier with the terms, factors R
        # again in the search's own workspace, so the fit makes one
        locs, reps = shared_sets[1]
        made = count_calls(monkeypatch, gauss_lik._Workspace, "__init__")
        search, u = self.point(locs, reps)
        search.score(u, terms=True)
        real = gauss_lik._factor_in_place

        def reject(a, refill):
            raise NotSPDError("forced")

        monkeypatch.setattr(gauss_lik, "_factor_in_place", reject)
        assert search.value(u + 0.01) == -np.inf
        monkeypatch.setattr(gauss_lik, "_factor_in_place", real)
        assert search.ws.held is None
        factors = count_calls(monkeypatch, gauss_lik, "_factor_in_place")
        search.newton_step(u)
        assert search.last_pass is not None and len(made) == 1 and len(factors) == 1

    def test_cold_fit_factors_each_point_once(self, shared_sets, monkeypatch):
        # a pass at the point scored last with its terms takes its factor,
        # and any other pass made (at a simplex's answer, scored without
        # them) factors R once more: per fit, factorizations = scored points
        # + those passes.  A simplex that returns the point of the last pass
        # unmoved is followed by the memo's pass, which is not made
        factors = count_calls(monkeypatch, gauss_lik, "_factor_in_place")
        scores = count_calls(monkeypatch, gauss_lik._Workspace, "score")
        real_score, real_step = est._Search.score, est._Search.newton_step
        held, last = [None], []

        def score(search, u, terms=False):
            held[0] = None
            real_score(search, u, terms)
            held[0] = u.tobytes() if terms else None

        def newton_step(search, u):
            made, at_held = search.ws.passes, held[0] == u.tobytes()
            step = real_step(search, u)
            if search.ws.passes > made:
                last.append(at_held)
                held[0] = None
            return step

        monkeypatch.setattr(est._Search, "score", score)
        monkeypatch.setattr(est._Search, "newton_step", newton_step)
        passes = 0
        for locs, reps in shared_sets:
            for q in (1.0, 0.95, 0.9):
                scores.clear()
                factors.clear()
                res = fit(reps, locs, q)
                assert res.converged and res.newton_steps > 0
                assert len(factors) == len(scores) + last[passes:].count(False)
                # the first pass is at the start, scored with the terms
                assert last[passes]
                passes += res.newton_steps
        # where Newton at the start does not confirm (q = 1 here), a pass
        # follows the simplex, at its answer
        assert len(last) == passes and not all(last)


def reweighted_step(reps, locs, at, q_old, q):
    """-H^-1 gbar at ``at`` for q, from one pass weighted for q_old.

    Built from the pass's gradients and Hessian sum and the oracle's log
    densities: gbar = sum w_i g_i with w_i = softmax((1-q) l_i) (1 at
    q = 1), and H = sum w_i(q_old) H_i scaled to the new weights' total,
    plus (1-q) sum w_i (g_i - gbar)(g_i - gbar)'.
    """
    p = _Workspace(reps, locs, q_old).derivs(at)
    g, w_old, S = p.g, p.w, p.S
    ll = loglik_columns(reps.data, chol_factor(build_cov(locs, at)))
    w = np.ones(reps.m)
    if q < 1.0:
        w = np.exp((1.0 - q) * (ll - ll.max()))
        w /= w.sum()
    gbar = g @ w
    G = g - gbar[:, None]
    H = S * (w.sum() / w_old.sum()) + (1.0 - q) * (G * w) @ G.T
    return -np.linalg.solve(H, gbar)


def stepped(theta, p, q):
    """theta with (beta, nu) moved by the pass's re-weighted step to q."""
    step = p.newton_step(q)[0]
    return MaternParams(theta.sigma2, theta.beta + step[1], theta.nu + step[2])


def extrapolated(near, far, q):
    """The start at q from the fits near and far, on one side of q: their steps, combined.

    Each fit's step re-weighted to q errs by O(dq^2); weighting the two
    steps by the other's squared distance to q cancels that term.
    """
    a, b = (stepped(f.theta_hat, f._pass, q).as_array() for f in (near, far))
    da2, db2 = (near.q - q) ** 2, (far.q - q) ** 2
    return MaternParams(near.theta_hat.sigma2, *((db2 * a - da2 * b) / (db2 - da2))[1:])


def record_passes(monkeypatch):
    """The (sigma2, beta, nu) of every derivative pass, in order."""
    points = []
    real = gauss_lik._Workspace.derivs

    def spy(ws, theta):
        points.append(theta)
        return real(ws, theta)

    monkeypatch.setattr(gauss_lik._Workspace, "derivs", spy)
    return points


def pass_altered(monkeypatch, change):
    """Every pass a fit's result carries passes through ``change``."""
    real = est.fit

    def altered(*args, **kwargs):
        res = real(*args, **kwargs)
        return res if res._pass is None else replace(res, _pass=change(res._pass))

    monkeypatch.setattr(est, "fit", altered)


# Passes of FitChain profiles over qselect.DEFAULT_GRID on 8 n = 100 grid and
# 4 n = 49 uniform datasets (the benchmark's theta0 and contamination,
# m = 100): every fit starts with Newton at its start, stepping in
# log(beta, nu) where V is concave there, and every fit after the first
# starts one re-weighted Newton step ahead, combined with the second nearest
# fit's step where both lie on one side of its q.  With every Newton step in
# u the profiles took 231 passes, and 239 where the first fit ran the simplex
# before Newton; starting each fit at the neighbour's estimate took 328.
# Measured and not taken: the nearest fit's step alone (222 -> 237 passes,
# 245 -> 260 points); the combination only where it moves the start no
# farther than the nearest step does (237 passes: it moves farther on 63 of
# the 72 combined starts); the chain's predictor in log(beta, nu) as well
# (222 -> 312 passes); and a cap of 0.5 to 2 on each |dy| of the step in
# logs (the smooth clean first fits of seeds 760-769 still fell back to the
# simplex on 10 of 10).
GUARD_CHAIN_PASSES = 222


class TestChainInputs:
    def test_a_chain_raises_what_fit_raises_when_built(self, refused_inputs):
        # such a chain once raised the same ValueError at every q, and a
        # selector dropped each one as a point failure
        locs, reps, init = refused_inputs
        with pytest.raises(ValueError) as refused:
            fit(reps, locs, 0.95, init=init)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            FitChain(reps, locs, init=init)


class TestChainStart:
    """Where FitChain starts a fit: a Newton step re-weighted to the new q."""

    @pytest.mark.parametrize("q_old, q", [(1.0, 0.9), (0.9, 0.8), (0.9, 1.0)])
    def test_start_is_the_reweighted_newton_step(self, interior_data, monkeypatch,
                                                 q_old, q):
        locs, reps, _base = interior_data
        passes = record_passes(monkeypatch)
        chain = FitChain(reps, locs)
        near = chain.fit(q_old)
        at = passes[-1]
        assert scaled_gap(at, near.theta_hat) <= 1e-6
        step = reweighted_step(reps, locs, at, q_old, q)
        got = chain.fit(q).init.as_array() - near.theta_hat.as_array()
        assert got[0] == 0.0
        assert np.abs(got[1:] / step[1:] - 1.0).max() <= 1e-12
        assert np.abs(step[1:] / near.theta_hat.as_array()[1:]).min() > 1e-3

    def test_result_carries_its_last_pass(self, interior_data, monkeypatch):
        # the pass the chain's start reads rides on the fit's result;
        # equality, hashing and repr leave it out
        locs, reps, _base = interior_data
        passes = record_passes(monkeypatch)
        res = fit(reps, locs, 0.9)
        assert res.converged and res.restarts == 0
        assert res._pass.theta == passes[-1] == res.theta_hat
        again = fit(reps, locs, 0.9)
        assert again._pass is not res._pass
        assert again == res and hash(again) == hash(res)
        assert "_pass" not in repr(res) and "array" not in repr(res)

    def test_start_from_the_nearest_fitted_q(self, interior_data):
        # 0.98 lies nearer 1.0 than 0.9, the last fit returned; the two
        # straddle 0.98, so the nearest fit's step is the start
        locs, reps, _base = interior_data
        chain = FitChain(reps, locs)
        first = chain.fit(1.0)
        chain.fit(0.9)
        assert chain.fit(0.98).init == stepped(first.theta_hat, first._pass, 0.98)

    def test_two_fits_on_one_side_combine_their_steps(self, interior_data):
        # 1 and 0.9 lie on one side of 0.8, and each carries a pass
        locs, reps, _base = interior_data
        chain = FitChain(reps, locs)
        far, near = chain.fit(1.0), chain.fit(0.9)
        res = chain.fit(0.8)
        assert res.init == extrapolated(near, far, 0.8)
        assert res.init != stepped(near.theta_hat, near._pass, 0.8)
        assert res.converged and res.restarts == 0

    def test_a_neighbour_without_a_pass_takes_the_nearest_step(self, interior_data):
        locs, reps, _base = interior_data
        chain = FitChain(reps, locs)
        far, near = chain.fit(1.0), chain.fit(0.9)
        chain._fits[1.0] = replace(far, _pass=None)
        assert chain.fit(0.8).init == stepped(near.theta_hat, near._pass, 0.8)

    def test_combination_out_of_the_box_takes_the_nearest_step(self, interior_data):
        # from the fits at 0.9 and 0.8 the combined start at 0.7 lies at a
        # lower nu than the 0.8 fit's step; a lower nu bound halfway
        # between them cuts the combination and keeps the step
        locs, reps, _base = interior_data
        free = FitChain(reps, locs)
        free.fit(0.9)
        near = free.fit(0.8)
        nu_comb, nu_step = free.fit(0.7).init.nu, stepped(near.theta_hat, near._pass, 0.7).nu
        assert nu_comb < nu_step
        lo, hi = default_bounds().as_arrays()
        box = Bounds((lo[0], 0.5 * (nu_comb + nu_step)), hi)
        chain = FitChain(reps, locs, box)
        far, near = chain.fit(0.9), chain.fit(0.8)
        assert not box.contains(extrapolated(near, far, 0.7))
        assert chain.fit(0.7).init == stepped(near.theta_hat, near._pass, 0.7)

    def test_q_is_checked_before_the_kept_pass_is_reweighted(self, small_data):
        # re-weighting the first fit's pass at q = inf once warned before
        # fit checked q; the chain caches nothing for a refused q
        locs, reps = small_data
        chain = FitChain(reps, locs, tol=1e-3)
        assert chain.fit(1.0)._pass is not None
        for q in (np.inf, 1.5, 0.0, np.nan):
            with pytest.raises(ValueError, match=r"q must lie in \(0, 1\]"):
                chain.fit(q)
        assert list(chain._fits) == [1.0]

    def test_hessian_not_negative_definite_starts_at_the_estimate(
            self, interior_data, monkeypatch):
        locs, reps, _base = interior_data
        pass_altered(monkeypatch, lambda k: replace(k, S=-k.S))
        chain = FitChain(reps, locs)
        near = chain.fit(1.0)
        assert near._pass.newton_step(0.9) is None
        res = chain.fit(0.9)
        assert res.init == near.theta_hat and res.converged

    def test_step_out_of_the_box_starts_at_the_estimate(self, interior_data):
        # the step from q = 1 to q = 0.9 lowers beta by about 0.03; a lower
        # beta bound halfway along it cuts the step
        locs, reps, _base = interior_data
        free = FitChain(reps, locs)
        beta_near = free.fit(1.0).theta_hat.beta
        beta_step = free.fit(0.9).init.beta
        assert beta_step < beta_near - 0.01
        lo, hi = default_bounds().as_arrays()
        box = Bounds((0.5 * (beta_near + beta_step), lo[1]), hi)
        chain = FitChain(reps, locs, box)
        near = chain.fit(1.0)
        assert not box.contains(stepped(near.theta_hat, near._pass, 0.9))
        assert chain.fit(0.9).init == near.theta_hat

    def test_passes_no_higher_than_recorded(self):
        total = 0
        for layout, n, seeds in (("grid", 100, range(1, 9)),
                                 ("uniform", 49, range(1, 5))):
            for seed in seeds:
                cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=n, m=100,
                                layout=layout, seed=seed,
                                contamination=ContaminationSpec(0.1, 1.0))
                locs, reps, _flags = simulate_dataset(cfg)
                for res in FitChain(reps, locs).profile(DEFAULT_GRID):
                    assert res.converged and res.restarts == 0
                    total += res.newton_steps
        assert total <= GUARD_CHAIN_PASSES


class TestQProfile:
    """``FitChain.profile``: the fits along a q grid, a tuple in grid order."""

    def test_grid_validation(self, small_data):
        locs, reps = small_data
        chain = FitChain(reps, locs)
        for grid in ((0.99, 0.98), (1.0, 0.98, 0.98), ()):
            with pytest.raises(ValueError):
                chain.profile(grid)
        # NaN fails every comparison, so a grid ending in NaN once passed
        for grid in ((1.0, float("nan")), (1.0, 0.9, float("nan")), (1.0, -np.inf)):
            with pytest.raises(ValueError, match="strictly decreasing"):
                chain.profile(grid)

    def test_fits_are_kept_as_a_tuple(self, small_data):
        # one fit per grid q, in grid order, and a tuple, hashable and equal
        # to its twin, whatever sequence the grid came in
        locs, reps = small_data
        chain = FitChain(reps, locs, tol=1e-3)
        prof = chain.profile((1.0, 0.95))
        assert isinstance(prof, tuple) and [f.q for f in prof] == [1.0, 0.95]
        for grid in (np.array([1.0, 0.95]), [1.0, 0.95]):
            same = chain.profile(grid)
            assert same == prof and hash(same) == hash(prof)

    def test_fit_profile_rejects_a_non_finite_grid(self, small_data, monkeypatch):
        # refused before any fit runs
        locs, reps = small_data
        monkeypatch.setattr(est, "fit", None)
        with pytest.raises(ValueError, match="strictly decreasing"):
            FitChain(reps, locs).profile((1.0, 0.95, float("nan")))

    def test_fit_profile_warm_start_chain(self, small_data):
        # the second fit starts one re-weighted Newton step from the first:
        # sigma2 is the neighbour's, (beta, nu) the step's.  The third, with
        # both fitted q on one side of it, starts at the combination of
        # their two steps.  Each start lands nearer its estimate than the
        # neighbour's own estimate does
        locs, reps = small_data
        first, second, third = FitChain(reps, locs, tol=1e-4).profile((1.0, 0.97, 0.94))
        assert second.init == stepped(first.theta_hat, first._pass, 0.97)
        assert third.init == extrapolated(second, first, 0.94)
        for near, res in ((first, second), (second, third)):
            assert scaled_gap(res.init, res.theta_hat) < scaled_gap(
                near.theta_hat, res.theta_hat)

    def test_unconverged_sigma2_solve_becomes_placeholder(self, small_data, monkeypatch):
        # the sigma2 solve at q = 0.97 gets no step that ends it, so that
        # q's fit raises RuntimeError; the profile records a placeholder
        # there and goes on, as for a factorization that fails
        locs, reps = small_data
        real, cap = gauss_lik._Workspace.score, gauss_lik.SIGMA2_MAX_STEPS

        def capped(ws, *args):
            monkeypatch.setattr(gauss_lik, "SIGMA2_MAX_STEPS", 0 if ws.q == 0.97 else cap)
            return real(ws, *args)

        monkeypatch.setattr(gauss_lik._Workspace, "score", capped)
        with pytest.raises(RuntimeError):
            fit(reps, locs, 0.97, tol=1e-4)
        prof = FitChain(reps, locs, tol=1e-4).profile((1.0, 0.97, 0.94))
        mid = prof[1]
        assert not mid.converged and np.isnan(mid.objective)
        assert mid.theta_hat == prof[0].theta_hat
        assert prof[0].converged and prof[2].converged

    def test_failed_point_becomes_placeholder(self, small_data, monkeypatch):
        locs, reps = small_data
        real = est.fit

        def flaky(reps_, locs_, q, *a, **k):
            if q == 0.97:
                raise NotSPDError("forced", theta=None)
            return real(reps_, locs_, q, *a, **k)

        monkeypatch.setattr(est, "fit", flaky)
        chain = FitChain(reps, locs, tol=1e-4)
        prof = chain.profile((1.0, 0.97, 0.94))
        mid = prof[1]
        assert not mid.converged and np.isnan(mid.objective)
        assert mid.newton_steps == 0
        assert mid.theta_hat == prof[0].theta_hat
        # the placeholder carries no pass and is not cached: the chain
        # resumes from the q = 1 fit's, re-weighted to 0.94
        assert mid._pass is None and set(chain._fits) == {1.0, 0.94}
        first = prof[0].theta_hat
        assert prof[2].init == stepped(first, prof[0]._pass, 0.94)
        assert prof[2].init != first
        assert prof[2].converged
