import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from lqmatern import variogram
from lqmatern.gauss_lik import ReplicateSet
from lqmatern.matern import LocationSet, MaternParams
from lqmatern.simulate import (ContaminationSpec, SimConfig, gen_replicates,
                               make_locations, simulate_dataset)
from lqmatern.variogram import DEFAULT_N_BINS, VariogramCurve, variogram_by_replicate
from oracles import empirical_variogram, variogram_one_at_a_time
from seed_ledger import held_out


class TestVariogramCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            VariogramCurve(np.array([1.0, 0.5]), np.array([1.0, 1.0]),
                           np.array([1, 1]))
        with pytest.raises(ValueError):
            VariogramCurve(np.array([1.0, 2.0]), np.array([1.0]),
                           np.array([1, 1]))
        with pytest.raises(ValueError):
            VariogramCurve(np.array([1.0, 2.0]), np.array([-1.0, 1.0]),
                           np.array([1, 1]))
        # empty bins must carry NaN, filled bins must not
        with pytest.raises(ValueError):
            VariogramCurve(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                           np.array([1, 0]))
        VariogramCurve(np.array([1.0, 2.0]), np.array([1.0, np.nan]),
                       np.array([1, 0]))
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            VariogramCurve(np.array([1.0, 2.0]), np.array([1.0, np.nan]),
                           np.array([1, -1]))


class TestReplicateOffsets:
    def test_a_replicate_constant_cancels(self):
        # the estimator sums differences within one replicate, so a constant
        # added to each replicate moves gamma by rounding alone (measured
        # 8.1e-15 relative at offsets up to 150): no centring is needed
        seed = held_out("default_rng", "tests/test_variogram.py::TestReplicateOffsets::"
                                       "test_a_replicate_constant_cancels")[0]
        rng = np.random.default_rng(seed)
        locs = LocationSet(rng.uniform(size=(40, 2)))
        data = rng.standard_normal((40, 5))
        offsets = rng.uniform(-150.0, 150.0, size=5)
        plain = variogram_by_replicate(ReplicateSet(data), locs, 6)
        shifted = variogram_by_replicate(ReplicateSet(data + offsets), locs, 6)
        for a, b in zip(plain, shifted):
            assert np.array_equal(a.counts, b.counts)
            np.testing.assert_allclose(b.gamma, a.gamma, rtol=1e-13, atol=0.0)


class TestEmpiricalVariogram:
    def test_two_point_hand_value(self):
        locs = LocationSet(np.array([[0.0, 0.0], [0.3, 0.0]]))
        z = np.array([1.0, 2.0])
        # single pair at distance 0.3; gamma = (1-2)^2 / 2 = 0.5
        curve = empirical_variogram(z, locs, n_bins=2, max_dist=0.4)
        assert curve.counts.tolist() == [0, 1]
        assert np.isnan(curve.gamma[0])
        assert curve.gamma[1] == pytest.approx(0.5)
        assert curve.bin_centers == pytest.approx([0.1, 0.3])

    def test_three_point_hand_sum(self):
        # right triangle: distances 0.3, 0.4, 0.5
        locs = LocationSet(np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.4]]))
        z = np.array([0.0, 1.0, 3.0])
        curve = empirical_variogram(z, locs, n_bins=1, max_dist=0.5)
        # all three pairs in one bin: (1 + 9 + 4) / (2*3)
        assert curve.counts.tolist() == [3]
        assert curve.gamma[0] == pytest.approx(14.0 / 6.0)

    def test_boundary_distance_lands_in_last_bin(self):
        locs = LocationSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
        curve = empirical_variogram(np.array([0.0, 2.0]), locs,
                                    n_bins=4, max_dist=1.0)
        assert curve.counts.tolist() == [0, 0, 0, 1]
        assert curve.gamma[-1] == pytest.approx(2.0)

    def test_pairs_beyond_max_dist_excluded(self):
        locs = LocationSet(np.array([[0.0, 0.0], [0.1, 0.0], [0.9, 0.0]]))
        curve = empirical_variogram(np.array([1.0, 2.0, 9.0]), locs,
                                    n_bins=1, max_dist=0.2)
        assert curve.counts.tolist() == [1]
        assert curve.gamma[0] == pytest.approx(0.5)

    def test_default_max_dist_is_half_diameter(self):
        locs = make_locations(16, "grid")
        z = np.arange(16.0)
        curve = empirical_variogram(z, locs, n_bins=5)
        iu = np.triu_indices(16, 1)
        want = 0.5 * squareform(pdist(locs.coords))[iu].max() / 5 * (np.arange(5) + 0.5)
        assert curve.bin_centers == pytest.approx(want)

    def test_counts_sum_matches_kept_pairs(self):
        locs = make_locations(25, "grid")
        z = np.zeros(25)
        curve = empirical_variogram(z, locs, n_bins=6, max_dist=0.4)
        iu = np.triu_indices(25, 1)
        assert curve.counts.sum() == int((squareform(pdist(locs.coords))[iu] <= 0.4).sum())

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        locs = make_locations(9, "grid")
        z = rng.standard_normal(9)
        a = empirical_variogram(z, locs, n_bins=4)
        b = empirical_variogram(z + 100.0, locs, n_bins=4)
        filled = a.counts > 0
        assert np.allclose(a.gamma[filled], b.gamma[filled])

    def test_validation(self):
        locs = make_locations(4, "grid")
        with pytest.raises(ValueError):
            empirical_variogram(np.zeros(3), locs)
        with pytest.raises(ValueError):
            empirical_variogram(np.zeros(4), locs, n_bins=0)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="n_bins must be a positive integer"):
                empirical_variogram(np.zeros(4), locs, n_bins=bad)
        with pytest.raises(ValueError):
            empirical_variogram(np.zeros(4), locs, max_dist=0.0)
        # an infinite max_dist would put every pair in bin 0 at centre inf
        grid = make_locations(9, "grid")
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="max_dist must be positive and finite"):
                empirical_variogram(np.zeros(9), grid, n_bins=4, max_dist=bad)
        one = LocationSet(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            empirical_variogram(np.zeros(1), one)

    def test_matches_half_true_process_variance(self):
        # long-run mean of the variogram at distance h is
        # sigma2 * (1 - corr(h)); nu = 1/2 gives the exponential model
        theta = MaternParams(1.0, 0.2, 0.5)
        locs = make_locations(100, "grid")
        reps = gen_replicates(locs, theta, 50, seed=11)
        curves = variogram_by_replicate(reps, locs, n_bins=10)
        filled = curves[0].counts > 0  # binning is shared geometry
        gbar = np.mean([c.gamma[filled] for c in curves], axis=0)
        h = curves[0].bin_centers[filled]
        want = theta.sigma2 * (1.0 - np.exp(-h / theta.beta))
        assert np.abs(gbar - want).mean() < 0.15 * theta.sigma2


@pytest.fixture(scope="module")
def fold_layouts():
    # the n = 100 grid and the benchmark's layout: 400 irregular sites, 10%
    # contaminated replicates
    grid = make_locations(100, "grid")
    uniform, reps, _ = simulate_dataset(SimConfig(
        MaternParams(1.0, 0.1, 0.5), n=400, m=100, layout="uniform", seed=9,
        contamination=ContaminationSpec(0.1, 1.0)))
    return {"grid": (grid, gen_replicates(grid, MaternParams(1.0, 0.2, 0.5), 100, seed=8),
                     0.15),
            "uniform": (uniform, reps, 0.05)}


class TestFoldOrder:
    @pytest.mark.parametrize("rows", [None, 24])
    @pytest.mark.parametrize("layout", ["grid", "uniform"])
    @pytest.mark.parametrize("m", [1, 2, 3, 100])
    def test_bits_of_one_replicate_at_a_time(self, fold_layouts, monkeypatch,
                                              layout, m, rows):
        # each (bin, replicate) sum adds the bin's pairs in pair order, as
        # one weighted bincount per replicate does; a budget of 24 rows
        # makes bins span several chunks of the pair walk
        locs, reps, small = fold_layouts[layout]
        reps = ReplicateSet(reps.data[:, :m])
        if rows is not None:
            monkeypatch.setattr(variogram, "_CHUNK_DOUBLES", rows * max(m, 2))
        for max_dist in (None, small):
            curves = variogram_by_replicate(reps, locs, DEFAULT_N_BINS, max_dist)
            want = variogram_one_at_a_time(reps, locs, DEFAULT_N_BINS, max_dist)
            assert len(curves) == m
            if rows is not None:
                assert want[0].counts.max() > 2 * rows
            for c, w in zip(curves, want):
                assert np.array_equal(c.gamma, w.gamma, equal_nan=True)
                assert np.array_equal(c.counts, w.counts)
                assert np.array_equal(c.bin_centers, w.bin_centers)


class TestByReplicate:
    def test_shapes_and_shared_bins(self):
        locs = make_locations(9, "grid")
        reps = gen_replicates(locs, MaternParams(1.0, 0.2, 0.5), 4, seed=3)
        curves = variogram_by_replicate(reps, locs, n_bins=6)
        assert len(curves) == 4
        for c in curves[1:]:
            assert np.array_equal(c.bin_centers, curves[0].bin_centers)
            assert c.gamma.shape == (6,)

    def test_matches_columnwise_call(self):
        grid = make_locations(9, "grid")
        # the benchmark layout: irregular sites, 10% contaminated replicates
        cfg = SimConfig(MaternParams(1.0, 0.1, 0.5), n=400, m=12, layout="uniform",
                        seed=5, contamination=ContaminationSpec(0.1, 1.0))
        uniform, uniform_reps, _ = simulate_dataset(cfg)
        cases = [(grid, gen_replicates(grid, MaternParams(1.0, 0.2, 0.5), 3, seed=4),
                  (5, 0.5)),
                 (uniform, uniform_reps, (DEFAULT_N_BINS, None))]
        for locs, reps, args in cases:
            curves = variogram_by_replicate(reps, locs, *args)
            assert len(curves) == reps.m
            for i, c in enumerate(curves):
                solo = empirical_variogram(reps.data[:, i], locs, *args)
                assert np.array_equal(c.gamma, solo.gamma, equal_nan=True)
                assert np.array_equal(c.counts, solo.counts)
                assert np.array_equal(c.bin_centers, solo.bin_centers)

    def test_double_loop_oracle(self):
        # pair (0,0)-(1,0) lies exactly at max_dist, (0,0)-(0.5,0) and
        # (0,0)-(0,0.25) exactly on bin edges; width 0.25 keeps d / width exact
        locs = LocationSet(np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0],
                                     [0.0, 0.25], [0.2, 0.7], [0.9, 0.35]]))
        max_dist, n_bins = 1.0, 4
        width = max_dist / n_bins
        edges = [k * width for k in range(n_bins + 1)]
        reps = ReplicateSet(np.random.default_rng(6).standard_normal((6, 3)))
        curves = variogram_by_replicate(reps, locs, n_bins, max_dist)
        dists = squareform(pdist(locs.coords))
        seen = []
        for r, curve in enumerate(curves):
            z = reps.data[:, r]
            sums, counts = [0.0] * n_bins, [0] * n_bins
            for a in range(locs.n):
                for b in range(a + 1, locs.n):
                    d = dists[a, b]
                    if d > max_dist:
                        continue
                    seen.append(d)
                    k = n_bins - 1
                    for e in range(n_bins):
                        if edges[e] <= d < edges[e + 1]:
                            k = e
                    sums[k] += (z[a] - z[b]) ** 2
                    counts[k] += 1
            want = [s / (2.0 * c) if c else np.nan for s, c in zip(sums, counts)]
            assert curve.counts.tolist() == counts
            assert np.array_equal(curve.gamma, want, equal_nan=True)
            assert np.array_equal(curve.bin_centers,
                                  [(k + 0.5) * width for k in range(n_bins)])
            solo = empirical_variogram(z, locs, n_bins, max_dist)
            assert np.array_equal(solo.gamma, want, equal_nan=True)
        assert {max_dist, 0.5, 0.25} <= set(seen)

    def test_pairs_enumerated_once_per_call(self, monkeypatch):
        locs = make_locations(16, "grid")
        reps = gen_replicates(locs, MaternParams(1.0, 0.2, 0.5), 20, seed=7)
        locs._dist_unique  # the unique-distance cache is built outside the count
        real = np.triu_indices
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "triu_indices", counting)
        curves = variogram_by_replicate(reps, locs)
        assert len(curves) == 20
        assert len(calls) == 1

    def test_bins_checked_once_per_call(self, monkeypatch):
        # the curves share one binning, so its check runs once per call, and
        # the curves built from it skip the constructor's checks; each curve
        # still holds arrays of its own
        locs = make_locations(16, "grid")
        reps = gen_replicates(locs, MaternParams(1.0, 0.2, 0.5), 20, seed=7)
        real_check, real_post = variogram._check_bins, VariogramCurve.__post_init__
        checks, posts = [], []

        def check(*args):
            checks.append(args)
            return real_check(*args)

        def post(curve):
            posts.append(curve)
            return real_post(curve)

        monkeypatch.setattr(variogram, "_check_bins", check)
        monkeypatch.setattr(VariogramCurve, "__post_init__", post)
        curves = variogram_by_replicate(reps, locs)
        assert len(curves) == 20
        assert len(checks) == 1 and not posts
        for a, b in zip(curves, curves[1:]):
            for name in ("bin_centers", "gamma", "counts"):
                assert not np.shares_memory(getattr(a, name), getattr(b, name))
        assert curves[0].counts.dtype == int and curves[0].gamma.dtype == float

    def test_validation_before_pair_work(self):
        one = LocationSet(np.array([[0.5, 0.5]]))
        single = ReplicateSet(np.zeros((1, 3)))
        for n_bins in (DEFAULT_N_BINS, 0):
            with pytest.raises(ValueError, match="at least 2 locations"):
                variogram_by_replicate(single, one, n_bins)
        locs = make_locations(4, "grid")
        reps = ReplicateSet(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="n_bins must be a positive integer"):
            variogram_by_replicate(reps, locs, n_bins=0)
        with pytest.raises(ValueError, match="n_bins must be a positive integer"):
            variogram_by_replicate(reps, locs, n_bins=2.5)
        with pytest.raises(ValueError, match="max_dist must be positive"):
            variogram_by_replicate(reps, locs, max_dist=0.0)
        with pytest.raises(ValueError, match="one value per location"):
            variogram_by_replicate(ReplicateSet(np.zeros((3, 2))), locs)

    def test_default_bins_constant(self):
        assert DEFAULT_N_BINS == 15
