import numpy as np
import pytest

import lqmatern.estimate as est
from lqmatern.asymptotics import StdErrs
from lqmatern.estimate import FitResult
from lqmatern.matern import MaternParams
from lqmatern.qselect import (DEFAULT_GRID, PassRecord, QGridSpec,
                              SelectionResult, default_kappa_spec, kappa,
                              make_fit_fn, make_se_fn, select_q_kappa,
                              select_q_sqv, sqv, standardized)
from lqmatern.simulate import gen_replicates, make_locations

ONES_SE = np.ones(3)


def theta_of_kappa(k):
    # beta = 1 makes kappa equal sigma2 regardless of nu
    return MaternParams(float(k), 1.0, 0.5)


class TestSpecsAndHelpers:
    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            QGridSpec(grid=(0.99, 0.98))
        with pytest.raises(ValueError):
            QGridSpec(grid=(1.0, 0.98, 0.98))
        with pytest.raises(ValueError):
            QGridSpec(grid=(1.0, 0.98, 0.99))
        with pytest.raises(ValueError):
            QGridSpec(eps=0.0)
        with pytest.raises(ValueError):
            QGridSpec(L=0.0)
        with pytest.raises(ValueError):
            QGridSpec(K=0)
        with pytest.raises(ValueError):
            QGridSpec(K=2.5)
        spec = QGridSpec(K=7.0)
        assert spec.K == 7 and isinstance(spec.K, int)

    def test_default_grids(self):
        assert QGridSpec().grid == DEFAULT_GRID
        assert DEFAULT_GRID[0] == 1.0 and DEFAULT_GRID[-1] == 0.9
        assert default_kappa_spec().L == 4.0

    def test_kappa_value(self):
        assert kappa(MaternParams(2.0, 0.5, 1.0)) == pytest.approx(8.0)
        assert kappa(MaternParams(3.0, 1.0, 0.7)) == pytest.approx(3.0)

    def test_standardized(self):
        th = MaternParams(2.0, 1.0, 0.5)
        z = standardized(th, np.array([2.0, 1.0, 0.5]), 4)
        assert z == pytest.approx([0.5, 0.5, 0.5])
        # StdErrs container is unwrapped through its .se field
        z2 = standardized(th, StdErrs(se=np.array([2.0, 1.0, 0.5])), 4)
        assert np.array_equal(z, z2)

    def test_standardized_validation(self):
        th = MaternParams(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            standardized(th, ONES_SE, 0)
        with pytest.raises(ValueError):
            standardized(th, ONES_SE, 2.5)
        with pytest.raises(ValueError):
            standardized(th, np.array([1.0, -1.0, 1.0]), 4)
        with pytest.raises(ValueError):
            standardized(th, np.ones(2), 4)

    def test_sqv(self):
        assert sqv([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == 0.0
        assert sqv([0.0, 0.0, 0.0], [3.0, 0.0, 0.0]) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            sqv(np.ones(3), np.ones(2))

    def test_selection_result_validation(self):
        rec = (PassRecord(0, (1.0,), ()),)
        with pytest.raises(ValueError):
            SelectionResult(0.0, rec, "stabilized")
        with pytest.raises(ValueError):
            SelectionResult(1.0, rec, "gave-up")
        with pytest.raises(ValueError):
            SelectionResult(1.0, (), "stabilized")


class TestSelectSqv:
    def test_m_is_required(self):
        with pytest.raises(TypeError):
            select_q_sqv(lambda q: theta_of_kappa(1.0),
                         lambda th, q: ONES_SE)

    def test_worked_destabilized_walk(self):
        # grid (1, .97, .94, .91) with jumps sized to give SQV
        # (0.045, 0.045, 0.1): never below L = 0.05 at the tail, pivot
        # lands on q_min, the refined span collapses, fall back to 1
        table = {1.0: 1.0, 0.97: 1.135, 0.94: 1.27, 0.91: 1.57}
        spec = QGridSpec(grid=(1.0, 0.97, 0.94, 0.91))

        def fit_fn(q):
            return MaternParams(table[round(q, 6)], 1.0, 1.0)

        res = select_q_sqv(fit_fn, lambda th, q: ONES_SE, spec, m=1)
        assert res.q_star == 1.0
        assert res.reason == "span-exhausted"
        assert len(res.trace) == 2
        first = res.trace[0]
        assert first.grid == (1.0, 0.97, 0.94, 0.91)
        assert np.allclose(first.series, (0.045, 0.045, 0.1))
        assert first.k_star == 3
        last = res.trace[1]
        assert last.series == () and last.k_star is None
        assert np.allclose(last.grid, 0.91)

    def test_immediate_accept(self):
        res = select_q_sqv(lambda q: theta_of_kappa(2.0),
                           lambda th, q: ONES_SE,
                           QGridSpec(grid=(1.0, 0.97, 0.94)), m=4)
        assert res.q_star == 1.0 and res.reason == "stabilized"
        assert len(res.trace) == 1
        assert res.trace[0].k_star is None
        assert max(res.trace[0].series) < 0.05

    def test_accept_after_refinement(self):
        # one big pass-0 jump right after q = 1, then a slow drift that
        # stabilizes: the selector should land on the pivot q = 0.97
        def fit_fn(q):
            if q == 1.0:
                return MaternParams(1.0, 1.0, 1.0)
            return MaternParams(1.36 + 0.5 * (0.97 - q), 1.0, 1.0)

        spec = QGridSpec(grid=(1.0, 0.97, 0.94, 0.91))
        res = select_q_sqv(fit_fn, lambda th, q: ONES_SE, spec, m=1)
        assert res.q_star == pytest.approx(0.97)
        assert res.reason == "stabilized"
        assert len(res.trace) == 2
        assert res.trace[0].k_star == 1
        assert np.allclose(res.trace[1].grid,
                           np.linspace(0.97, 0.91, 8))

    def test_failed_points_dropped(self):
        def fit_fn(q):
            if round(q, 6) == 0.97:
                raise RuntimeError("no fit here")
            return theta_of_kappa(2.0)

        spec = QGridSpec(grid=(1.0, 0.97, 0.94))
        res = select_q_sqv(fit_fn, lambda th, q: ONES_SE, spec, m=2)
        assert res.q_star == 1.0 and res.reason == "stabilized"
        assert res.trace[0].grid == (1.0, 0.94)

    def test_fallback_when_one_point_usable(self):
        def fit_fn(q):
            if q != 1.0:
                raise np.linalg.LinAlgError("singular")
            return theta_of_kappa(2.0)

        res = select_q_sqv(fit_fn, lambda th, q: ONES_SE,
                           QGridSpec(grid=(1.0, 0.97, 0.94)), m=2)
        assert res.q_star == 1.0 and res.reason == "fallback-to-one"
        assert res.trace[0].grid == (1.0,)

    def test_se_failures_also_drop_points(self):
        def se_fn(th, q):
            if round(q, 6) == 0.97:
                raise ValueError("bad J")
            return ONES_SE

        res = select_q_sqv(lambda q: theta_of_kappa(2.0), se_fn,
                           QGridSpec(grid=(1.0, 0.97, 0.94)), m=2)
        assert res.trace[0].grid == (1.0, 0.94)
        assert res.reason == "stabilized"


class TestSelectKappa:
    def test_requires_ratio_threshold(self):
        with pytest.raises(ValueError):
            select_q_kappa(lambda q: theta_of_kappa(1.0), QGridSpec())

    def test_worked_destabilized_walk(self):
        # dkappa series (0.1, 0.1, 10) with L = 4: threshold 0.4, pivot
        # is the last point, span collapses, fall back to q* = 1
        table = {1.0: 13.31, 0.99: 12.1, 0.98: 11.0, 0.97: 1.0}
        spec = QGridSpec(grid=(1.0, 0.99, 0.98, 0.97), L=4.0)

        def fit_fn(q):
            return theta_of_kappa(table[round(q, 6)])

        res = select_q_kappa(fit_fn, spec)
        assert res.q_star == 1.0 and res.reason == "span-exhausted"
        assert len(res.trace) == 2
        first = res.trace[0]
        assert np.allclose(first.series, (0.1, 0.1, 10.0))
        assert first.k_star == 3
        assert res.trace[1].series == ()

    def test_constant_kappa_accepts_immediately(self):
        res = select_q_kappa(lambda q: theta_of_kappa(5.0))
        assert res.q_star == 1.0 and res.reason == "stabilized"
        assert all(v == 0.0 for v in res.trace[0].series)

    def test_accept_after_refinement(self):
        # kappa jumps once after q = 1, then drifts linearly; pivot k*=1
        # and the refined pass accepts its leading point q = 0.99
        def fit_fn(q):
            if q == 1.0:
                return theta_of_kappa(30.0)
            return theta_of_kappa(10.0 * (1.0 + 1e-4 * (1.0 - q)))

        spec = QGridSpec(grid=(1.0, 0.99, 0.98, 0.97), L=4.0)
        res = select_q_kappa(fit_fn, spec)
        assert res.q_star == pytest.approx(0.99)
        assert res.reason == "stabilized"
        assert res.trace[0].k_star == 1
        assert np.allclose(res.trace[1].grid, np.linspace(0.99, 0.97, 8))

    def test_nonfinite_kappa_dropped(self):
        def fit_fn(q):
            if round(q, 6) == 0.98:
                return theta_of_kappa(np.inf)
            return theta_of_kappa(7.0)

        res = select_q_kappa(fit_fn, QGridSpec(grid=(1.0, 0.98, 0.97), L=4.0))
        assert res.trace[0].grid == (1.0, 0.97)
        assert res.reason == "stabilized"


class TestFactories:
    def test_fit_fn_caches_and_warm_starts(self, monkeypatch):
        locs = make_locations(4, "grid")
        reps = gen_replicates(locs, MaternParams(1.0, 0.2, 0.5), 3, seed=0)
        calls = []

        def fake_fit(reps_, locs_, q, bounds, init, tol, **kw):
            calls.append((q, init))
            th = MaternParams(1.0 + len(calls), 0.5, 0.5)
            return FitResult(theta_hat=th, objective=0.0, q=q, iterations=1,
                             evaluations=1, converged=True, init=init)

        monkeypatch.setattr(est, "fit", fake_fit)
        fit_fn = make_fit_fn(reps, locs)
        a = fit_fn(0.99)
        b = fit_fn(0.99)
        assert a == b and len(calls) == 1
        c = fit_fn(0.95)
        assert len(calls) == 2
        # second call warm-starts from the first answer
        assert calls[1][1] == a
        assert fit_fn(0.99) == a and len(calls) == 2

    def test_fit_fn_starts_warm_after_the_first_fit(self, monkeypatch):
        locs = make_locations(4, "grid")
        reps = gen_replicates(locs, MaternParams(1.0, 0.2, 0.5), 3, seed=0)
        warm = []

        def fake_fit(reps_, locs_, q, bounds, init, tol, **kw):
            warm.append(kw["warm"])
            return FitResult(theta_hat=MaternParams(1.0, 0.5, 0.5), objective=0.0,
                             q=q, iterations=1, evaluations=1, converged=True,
                             init=init)

        monkeypatch.setattr(est, "fit", fake_fit)
        fit_fn = make_fit_fn(reps, locs)
        fit_fn(0.99)
        fit_fn(0.95)
        assert warm == [False, True]

    def test_se_fn_returns_stderrs(self):
        locs = make_locations(9, "grid")
        theta = MaternParams(1.0, 0.2, 0.5)
        reps = gen_replicates(locs, theta, 12, seed=1)
        se = make_se_fn(reps, locs)(theta, 0.95)
        assert isinstance(se, StdErrs)
        assert np.all(se.se > 0)

    def test_end_to_end_on_tiny_dataset(self):
        locs = make_locations(9, "grid")
        reps = gen_replicates(locs, MaternParams(1.0, 0.2, 0.5), 10, seed=2)
        fit_fn = make_fit_fn(reps, locs, tol=1e-3, max_evals=400)
        res = select_q_kappa(fit_fn, QGridSpec(grid=(1.0, 0.99, 0.98), L=4.0))
        assert isinstance(res, SelectionResult)
        assert 0.0 < res.q_star <= 1.0
        assert res.reason in ("stabilized", "fallback-to-one", "span-exhausted")
        assert len(res.trace) >= 1
