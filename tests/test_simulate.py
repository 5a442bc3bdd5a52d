import numpy as np
import pytest

from lqmatern import simulate
from lqmatern.cli_io import main
from lqmatern.matern import MaternParams, build_cov
from lqmatern.simulate import (ContaminationSpec, SimConfig, contaminate,
                               gen_replicates, make_locations,
                               simulate_dataset)

THETA = MaternParams(1.0, 0.2, 0.5)


class TestSpecs:
    def test_contamination_validation(self):
        with pytest.raises(ValueError):
            ContaminationSpec(r=-0.1)
        with pytest.raises(ValueError):
            ContaminationSpec(r=1.0)
        with pytest.raises(ValueError):
            ContaminationSpec(r=0.1, noise_sd=0.0)
        # zero sd is fine when contamination is off
        ContaminationSpec(r=0.0, noise_sd=0.0)

    def test_sim_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(THETA, n=0, m=5)
        with pytest.raises(ValueError):
            SimConfig(THETA, n=9, m=0)
        with pytest.raises(ValueError):
            SimConfig(THETA, n=9, m=5, layout="hex")
        with pytest.raises(ValueError):
            SimConfig(THETA, n=10, m=5, layout="grid")
        SimConfig(THETA, n=10, m=5, layout="uniform")

    def test_contamination_noise_must_be_finite(self):
        for sd in (np.inf, np.nan):
            with pytest.raises(ValueError, match="noise_sd must be positive and finite"):
                ContaminationSpec(r=0.1, noise_sd=sd)
        # the noise is not drawn when contamination is off
        ContaminationSpec(r=0.0, noise_sd=np.inf)

    def test_seed_must_be_a_non_negative_integer(self):
        for seed in (-1, 1.5, "3", None):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                SimConfig(THETA, n=9, m=5, seed=seed)
        assert SimConfig(THETA, n=9, m=5, seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("flags, msg", [
        (["--contam-r", "0.5", "--contam-sd", "inf"], "noise_sd must be positive and finite"),
        (["--seed", "-1"], "seed must be a non-negative integer")])
    def test_cli_names_the_setting(self, tmp_path, capsys, flags, msg):
        # refused when the config is built, before any field is simulated
        out = tmp_path / "o"
        assert main(["simulate", "--n", "9", "--m", "3", "--out", str(out)] + flags) == 2
        assert "data error: " + msg in capsys.readouterr().err
        assert not out.exists()


class TestMakeLocations:
    def test_grid_four_points(self):
        locs = make_locations(4, "grid")
        want = np.array([[1, 1], [1, 2], [2, 1], [2, 2]]) / 3.0
        assert np.abs(locs.coords - want).max() < 1e-15

    def test_grid_coordinates_interior(self):
        for n in (4, 9, 16, 25, 100):
            c = locs = make_locations(n, "grid").coords
            assert c.shape == (n, 2)
            assert c.min() > 0.0 and c.max() < 1.0
            k = int(round(np.sqrt(n)))
            assert np.abs(np.unique(c[:, 0]) - np.arange(1, k + 1) / (k + 1)).max() < 1e-15

    def test_grid_rejects_non_square(self):
        with pytest.raises(ValueError):
            make_locations(12, "grid")

    def test_rejects_no_sites(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            make_locations(0)

    def test_uniform_in_unit_square(self):
        locs = make_locations(50, "uniform", seed=0)
        assert locs.coords.shape == (50, 2)
        assert locs.coords.min() >= 0.0 and locs.coords.max() <= 1.0

    def test_uniform_deterministic(self):
        a = make_locations(20, "uniform", seed=3).coords
        b = make_locations(20, "uniform", seed=3).coords
        assert np.array_equal(a, b)
        c = make_locations(20, "uniform", seed=4).coords
        assert not np.array_equal(a, c)

    def test_uniform_needs_a_seed(self):
        # a seed of None would draw the sites from OS entropy, so that two
        # calls give different sites; the grid needs no seed
        with pytest.raises(ValueError, match="uniform layout needs a seed"):
            make_locations(20, "uniform")
        with pytest.raises(ValueError, match="uniform layout needs a seed"):
            make_locations(20, "uniform", seed=None)
        assert np.array_equal(make_locations(9, "grid", seed=None).coords,
                              make_locations(9, "grid").coords)

    def test_uniform_redraws_coincident_sites(self, monkeypatch):
        # a draw with two coincident sites is discarded for the next one
        real = simulate._stream(5, simulate._DOMAIN_FIELD, 0).uniform(size=(6, 2))

        class Draws:
            def __init__(self):
                self.draws = [np.vstack([real[:5], real[:1]]), real]

            def uniform(self, size):
                assert size == (6, 2)
                return self.draws.pop(0)

        draws = Draws()
        monkeypatch.setattr(simulate, "_stream", lambda *args: draws)
        locs = make_locations(6, "uniform", seed=5)
        assert draws.draws == [] and np.array_equal(locs.coords, real)
        monkeypatch.undo()
        assert np.array_equal(make_locations(6, "uniform", seed=5).coords, real)

    def test_bad_layout(self):
        with pytest.raises(ValueError):
            make_locations(4, "triangular")


class TestGenReplicates:
    def test_shapes_and_determinism(self):
        locs = make_locations(9, "grid")
        a = gen_replicates(locs, THETA, 6, seed=1)
        b = gen_replicates(locs, THETA, 6, seed=1)
        assert a.data.shape == (9, 6)
        assert np.array_equal(a.data, b.data)
        c = gen_replicates(locs, THETA, 6, seed=2)
        assert not np.array_equal(a.data, c.data)

    def test_streams_independent_of_m(self):
        # replicate i is keyed by its index, so growing m extends the
        # dataset without touching the earlier columns
        locs = make_locations(4, "grid")
        small = gen_replicates(locs, THETA, 5, seed=7)
        big = gen_replicates(locs, THETA, 10, seed=7)
        assert np.array_equal(small.data, big.data[:, :5])

    def test_sample_covariance_converges(self):
        locs = make_locations(9, "grid")
        cov = build_cov(locs, THETA)
        reps = gen_replicates(locs, THETA, 20000, seed=5)
        sample = reps.data @ reps.data.T / reps.m
        assert np.abs(sample - cov).max() < 0.05 * THETA.sigma2

    def test_columns_zero_mean(self):
        locs = make_locations(4, "grid")
        reps = gen_replicates(locs, THETA, 50000, seed=9)
        assert np.abs(reps.data.mean(axis=1)).max() < 0.02

    def test_m_validation(self):
        locs = make_locations(4, "grid")
        with pytest.raises(ValueError):
            gen_replicates(locs, THETA, 0, seed=0)


class TestContaminate:
    def test_r_zero_noop(self):
        locs = make_locations(4, "grid")
        reps = gen_replicates(locs, THETA, 5, seed=0)
        out, flags = contaminate(reps, ContaminationSpec(), seed=0)
        assert out is reps
        assert flags.dtype == bool and not flags.any()

    def test_flags_mark_changed_columns(self):
        locs = make_locations(4, "grid")
        reps = gen_replicates(locs, THETA, 40, seed=1)
        spec = ContaminationSpec(r=0.3, noise_sd=2.0)
        out, flags = contaminate(reps, spec, seed=1)
        changed = np.any(out.data != reps.data, axis=0)
        assert np.array_equal(changed, flags)
        assert reps.data is not out.data

    def test_fraction_binomial(self):
        # pool the per-replicate Bernoulli(r) coins over many seeds;
        # 30*100 trials at r=0.1 has sd ~ 0.0055 on the mean
        locs = make_locations(4, "grid")
        reps = gen_replicates(locs, THETA, 100, seed=0)
        spec = ContaminationSpec(r=0.1, noise_sd=1.0)
        hits = 0
        for seed in range(30):
            _out, flags = contaminate(reps, spec, seed=seed)
            hits += int(flags.sum())
        frac = hits / (30 * 100)
        assert abs(frac - 0.1) < 0.02

    def test_added_noise_variance(self):
        # contaminated columns gain an independent N(0, sd^2) component
        locs = make_locations(4, "grid")
        reps = gen_replicates(locs, THETA, 4000, seed=2)
        spec = ContaminationSpec(r=0.5, noise_sd=3.0)
        out, flags = contaminate(reps, spec, seed=2)
        delta = (out.data - reps.data)[:, flags]
        assert delta.shape[1] > 1000
        assert abs(delta.var() - 9.0) < 0.5
        assert abs(delta.mean()) < 0.1

    def test_contamination_stream_distinct_from_field(self):
        # same seed must not reuse field draws for the coins/noise
        locs = make_locations(4, "grid")
        reps = gen_replicates(locs, THETA, 200, seed=3)
        out, flags = contaminate(reps, ContaminationSpec(r=0.5, noise_sd=1.0),
                                 seed=3)
        delta = (out.data - reps.data)[:, flags]
        corr = np.corrcoef(delta.ravel(), reps.data[:, flags].ravel())[0, 1]
        assert abs(corr) < 0.1


class TestSimulateDataset:
    def test_pipeline_matches_pieces(self):
        cfg = SimConfig(THETA, n=9, m=12, layout="grid", seed=4,
                        contamination=ContaminationSpec(r=0.2, noise_sd=2.0))
        locs, reps, flags = simulate_dataset(cfg)
        locs2 = make_locations(9, "grid", seed=4)
        reps2 = gen_replicates(locs2, THETA, 12, seed=4)
        reps2, flags2 = contaminate(reps2, cfg.contamination, seed=4)
        assert np.array_equal(locs.coords, locs2.coords)
        assert np.array_equal(reps.data, reps2.data)
        assert np.array_equal(flags, flags2)

    def test_uniform_layout_uses_seed(self):
        cfg_a = SimConfig(THETA, n=10, m=2, layout="uniform", seed=1)
        cfg_b = SimConfig(THETA, n=10, m=2, layout="uniform", seed=2)
        locs_a, _, _ = simulate_dataset(cfg_a)
        locs_b, _, _ = simulate_dataset(cfg_b)
        assert not np.array_equal(locs_a.coords, locs_b.coords)
