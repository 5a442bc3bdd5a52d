"""Memory of the fit path, measured with tracemalloc at n = 400 uniform sites.

Irregular sites take the Chebyshev kernel, and their 79,800 unique
distances make every per-distance array half an n x n one.  Each bound is
in n^2 doubles, the size of one covariance matrix, and counts what a call
allocates beyond what is live when it starts.  A CLI sweep's rows are
measured per row, on a 16-site grid at m = 2000.
"""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import lqmatern.cli_io as cli
from lqmatern import gauss_lik
from lqmatern.asymptotics import sandwich
from lqmatern.estimate import FitChain, _Search, default_bounds, fit
from lqmatern.gauss_lik import ReplicateSet, _Workspace
from lqmatern.matern import MaternParams, build_cov
from lqmatern.simulate import (ContaminationSpec, SimConfig, gen_replicates,
                               make_locations, simulate_dataset)
from lqmatern.variogram import DEFAULT_N_BINS, variogram_by_replicate

N = 400
THETA = MaternParams(1.1, 0.12, 0.6)


@pytest.fixture(scope="module")
def dataset():
    locs, reps, _ = simulate_dataset(SimConfig(
        MaternParams(1.0, 0.1, 0.5), n=N, m=100, layout="uniform", seed=3,
        contamination=ContaminationSpec(0.1, 1.0)))
    assert locs._dist_cheb is not None
    # a first call outside the measurement loads what scipy loads lazily
    _Workspace(reps, locs, 0.9).derivs(THETA)
    return locs, reps


@pytest.fixture
def data(dataset):
    """``dataset`` over a fresh replicate set, which carries no pass an earlier call made."""
    locs, reps = dataset
    return locs, ReplicateSet(reps.data)


def peak_doubles(fn):
    """Peak memory fn() allocates beyond what is live at its start, in n^2 doubles."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (8.0 * N * N)


def test_build_cov_peak(data):
    # the n x n result and the unique distances' values, with the
    # Chebyshev basis built a block of panels at a time (1.50 measured)
    locs, _ = data
    assert peak_doubles(lambda: build_cov(locs, THETA)) <= 2.0


def test_derivative_pass_peak(data):
    # R's factor and the pass; each n x n array is dropped after its last use
    locs, reps = data
    assert peak_doubles(lambda: _Workspace(reps, locs, 0.9).derivs(THETA)) <= 7.0


def test_fused_newton_point_peak(data):
    # a point scored with the pass's terms and its pass taking the score's
    # factor of R, as the fit takes them: the score adds less than the
    # pass's own peak
    locs, reps = data
    search = _Search(reps, locs, 0.9, default_bounds(), 1e-6)
    u = (np.array([THETA.beta, THETA.nu]) - search.corner) / search.width

    def point():
        search.score(u, terms=True)
        search.newton_step(u)

    assert peak_doubles(point) <= 7.0
    assert search.ws.passes == 1 and search.last_pass is not None
    assert search.ws.held is None


def test_score_peak(data):
    # a score after a score in one search, as a fit scores: R and the
    # unique distances' values go into the search's workspace, and the
    # interpolation works in R's before R is gathered there, so the score
    # adds little more than the forward solve's n x m array (2.00 where R,
    # its factor and the values were new arrays, 1.51 for profile_lq, which
    # makes a workspace of its own)
    locs, reps = data
    search = _Search(reps, locs, 0.9, default_bounds(), 1e-6)
    at = [(np.array(p) - search.corner) / search.width for p in ((0.1, 0.5), (THETA.beta, THETA.nu))]
    search.score(at[0])
    peak = peak_doubles(lambda: search.score(at[1]))
    print("score peak %.2f n^2 doubles" % peak)
    assert peak <= 1.2


def test_score_with_terms_peak(data):
    # a Newton point's score makes the pass's five kernel terms in the walk
    # that makes R's values, into the workspace's pass buffer, so it adds
    # no more than a plain score does (test_score_peak)
    locs, reps = data
    search = _Search(reps, locs, 0.9, default_bounds(), 1e-6)
    at = [(np.array(p) - search.corner) / search.width for p in ((0.1, 0.5), (THETA.beta, THETA.nu))]
    search.score(at[0], terms=True)
    peak = peak_doubles(lambda: search.score(at[1], terms=True))
    print("score with terms peak %.2f n^2 doubles" % peak)
    assert peak <= 1.2
    assert search.ws.held[:2] == tuple(search.corner + at[1] * search.width)


def test_fit_and_sandwich_peak(data, monkeypatch):
    # a cold fit and the sandwich after it peak where a pass runs on the
    # fit's workspace, which holds R's buffer and the pass's and no factor
    # but the pass's (6.267 measured; 6.275 where a simplex kept its best
    # factor in a third buffer); a chain's fits hold the same two buffers,
    # and each fit's workspace dies with its search
    locs, reps = data
    kept, spaces = [], []
    real_step = _Search.newton_step

    def newton_step(search, u):
        kept.append(set(search.ws._bufs))
        spaces.append(weakref.ref(search.ws))
        return real_step(search, u)

    monkeypatch.setattr(_Search, "newton_step", newton_step)

    def fit_and_sandwich():
        res = fit(reps, locs, 0.9)
        sandwich(reps, locs, res.theta_hat, 0.9)

    peak = peak_doubles(fit_and_sandwich)
    print("fit + sandwich peak %.3f n^2 doubles" % peak)
    assert peak <= 6.28
    assert kept and all(bufs <= {"R", "pass"} for bufs in kept)
    kept.clear()
    FitChain(reps, locs).profile((1.0, 0.95))
    assert kept and all(bufs <= {"R", "pass"} for bufs in kept)
    assert spaces and not [ws for ws in spaces if ws() is not None]


def test_no_workspace_outlives_its_call(data, monkeypatch):
    # a workspace holds R's buffer and the pass's, 5.5 n^2 doubles here,
    # and refers to its data and sites; neither the memo entry on the
    # replicate set nor the fit's kept pass refers to a workspace, so the
    # workspace of a fit and those of the sandwiches after it, one the
    # memo serves and one that makes its pass, are gone on return
    locs, reps = data
    spaces = []
    real = gauss_lik._Workspace.__init__

    def init(ws, *args):
        real(ws, *args)
        spaces.append(weakref.ref(ws))

    monkeypatch.setattr(gauss_lik._Workspace, "__init__", init)
    res = fit(reps, locs, 0.9)
    assert res._pass is not None and reps._last_pass[1] is res._pass
    assert len(spaces) == 1 and spaces[0]() is None
    sandwich(reps, locs, res.theta_hat, 0.9)
    assert reps._last_pass[1] is res._pass
    sandwich(reps, locs, replace(res.theta_hat, sigma2=2.0 * res.theta_hat.sigma2), 0.9)
    assert reps._last_pass[1] is not res._pass
    assert len(spaces) == 3 and not [ws for ws in spaces if ws() is not None]


def test_fit_allocates_two_factor_buffers(data, monkeypatch):
    # every factor of R lives in the buffer "R", and no score allocates
    # another: a fit and the sandwich after it
    # make "R" once, and "pass" at most twice (a score's, then the pass's)
    locs, reps = data
    made = []
    real = gauss_lik._Workspace.take

    def take(ws, name, size):
        old = ws._bufs.get(name)
        was = None if old is None else weakref.ref(old)
        del old
        buf = real(ws, name, size)
        if was is None or was() is not buf:
            made.append(name)
        return buf

    monkeypatch.setattr(gauss_lik._Workspace, "take", take)
    res = fit(reps, locs, 0.9)
    sandwich(reps, locs, res.theta_hat, 0.9)
    assert res.restarts == 0 and res.newton_steps > 0
    assert made.count("R") == 1 and made.count("pass") <= 2
    assert set(made) <= {"R", "pass"}


def test_sandwich_after_fit_peak(data):
    # the sandwich reads the fit's last pass, at its estimate, from the
    # memo, so it allocates only O(m) numbers (5.25 where the pass
    # allocated its own buffers, 1.6 where it took the fit's factor of R)
    locs, reps = data
    res = fit(reps, locs, 0.9)
    assert res._pass.theta == res.theta_hat
    peak = peak_doubles(lambda: sandwich(reps, locs, res.theta_hat, 0.9))
    print("sandwich after fit peak %.2f n^2 doubles" % peak)
    assert peak <= 2.0
    assert reps._last_pass[1] is res._pass


def test_fit_leaves_no_factor_past_its_sites():
    # simulate, fit, simulate again, as a sweep's repetitions run: the
    # replicate set keeps the fit's last pass, O(m) numbers with no axis of
    # length n, and its sites, so once the first dataset is dropped the
    # pass is gone, nothing of size n^2 is left and the second simulation
    # peaks as the first did (a module memo holding its sites strongly left
    # 3.03 n^2 doubles alive there, and the second simulation peaked 3.02
    # higher)
    cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=N, m=100, layout="uniform", seed=5,
                    contamination=ContaminationSpec(0.1, 1.0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        locs, reps, _ = simulate_dataset(cfg)
        first = tracemalloc.get_traced_memory()[1] - base
        fit(reps, locs, 0.9)
        assert reps._last_pass[0] is locs
        arrays = [v for v in vars(reps._last_pass[1]).values() if isinstance(v, np.ndarray)]
        assert arrays and not [a.shape for a in arrays if N in a.shape]
        gone = weakref.ref(reps._last_pass[1])
        del locs, reps, arrays
        left = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        simulate_dataset(replace(cfg, seed=6))
        second = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert gone() is None
    assert left / (8.0 * N * N) <= 0.25
    assert (second - first) / (8.0 * N * N) <= 0.25


def test_location_set_holds_no_dense_distances(data):
    # the unique distances and their inverse map, the panels over them,
    # and no n x n float array
    locs, _ = data
    assert set(vars(locs)) == {"coords", "_dist_unique", "_dist_cheb"}
    arrays = [locs.coords, *locs._dist_unique, *vars(locs._dist_cheb).values()]
    assert not [a.shape for a in arrays if a.dtype.kind == "f" and a.size >= N * N]


def test_chain_keeps_no_per_site_array():
    # FitChain keeps a fit per q, and the fit its last pass, each O(m): on
    # a dataset whose n and m differ, no array it keeps has an axis of
    # length n
    locs, reps, _ = simulate_dataset(SimConfig(
        MaternParams(1.0, 0.1, 0.5), n=49, m=30, layout="grid", seed=1,
        contamination=ContaminationSpec(0.1, 1.0)))
    chain = FitChain(reps, locs)
    chain.profile((1.0, 0.95, 0.9))
    kept = [f._pass for f in chain._fits.values() if f._pass is not None]
    assert len(kept) == 3
    fields = [v for obj in kept + list(chain._fits.values()) for v in vars(obj).values()]
    arrays = [v for v in fields if isinstance(v, np.ndarray)]
    assert arrays and not [a.shape for a in arrays if reps.n in a.shape]


def test_variogram_peak(data):
    # the site pairs, their bin keys and their bin order; the walk's buffers
    # are bounded by the element budget (1.98 measured; a per-replicate
    # bincount over pairs and distances held in pair order peaked at 2.63)
    locs, reps = data
    assert peak_doubles(lambda: variogram_by_replicate(reps, locs)) <= 2.2
    # from m = 100 to m = 2000 on the n = 100 grid, what the call allocates
    # beyond the curves it returns grows by at most a few bins x m arrays
    grid = make_locations(100, "grid")
    grid._dist_unique
    transient = {}
    for m in (100, 2000):
        reps = gen_replicates(grid, MaternParams(1.0, 0.2, 0.5), m, seed=2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            curves = variogram_by_replicate(reps, grid)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(curves) == m and kept > base
        transient[m] = peak - kept
    assert transient[2000] - transient[100] <= 3 * DEFAULT_N_BINS * 1900 * 8


def test_sweep_rows_hold_no_pass():
    # a sweep row keeps its fit without the fit's derivative pass, O(m)
    # numbers: with the passes, these rows at m = 2000 held 49 KB each,
    # against 0.79 KB without
    cfg = cli.build_config({"sim.n": "16", "sim.m": "2000", "grid.q": "1,0.99,0.98",
                            "fit.tol": "1e-4"})
    cli._sweep_repetition(cfg, 0, [])       # what the first call loads stays out
    rows = []
    tracemalloc.start()
    try:
        for rep in range(3):
            cli._sweep_repetition(cfg, rep, rows)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    print("sweep rows hold %.2f KB a row" % (held / len(rows) / 1e3))
    assert len(rows) == 12 and held <= 2e3 * len(rows)
