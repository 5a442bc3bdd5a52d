import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lqmatern.cli_io as cli
import lqmatern.estimate as est
from lqmatern.cli_io import (DataError, _fmt, build_config, main,
                             parse_config_text, read_dataset, read_locations,
                             read_record, read_replicates, write_locations,
                             write_record, write_replicates)
from lqmatern.gauss_lik import NotSPDError, ReplicateSet
from lqmatern.matern import LocationSet, MaternParams
from lqmatern.simulate import SimConfig, simulate_dataset

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_SIM = SimConfig(MaternParams(1.0, 0.2, 0.5), n=4, m=2,
                       layout="grid", seed=42)


class TestDatasetFiles:
    def test_golden_read_matches_simulation(self):
        locs, reps = read_dataset(DATA)
        locs2, reps2, _ = simulate_dataset(GOLDEN_SIM)
        assert np.array_equal(locs.coords, locs2.coords)
        assert np.array_equal(reps.data, reps2.data)

    def test_golden_write_is_byte_identical(self, tmp_path):
        locs, reps, _ = simulate_dataset(GOLDEN_SIM)
        lp = tmp_path / "locations.csv"
        rp = tmp_path / "replicates.csv"
        write_locations(lp, locs)
        write_replicates(rp, reps)
        assert lp.read_bytes() == \
            Path(DATA, "locations.csv").read_bytes()
        assert rp.read_bytes() == \
            Path(DATA, "replicates.csv").read_bytes()

    def test_roundtrip_awkward_values(self, tmp_path):
        coords = np.array([[0.1, 1.0 / 3.0], [1e-17, 0.9999999999999999]])
        locs = LocationSet(coords)
        p = tmp_path / "loc.csv"
        write_locations(p, locs)
        assert np.array_equal(read_locations(p).coords, coords)

        data = np.array([[1e-300, -1e300], [np.pi, -0.0]])
        rp = tmp_path / "rep.csv"
        write_replicates(rp, ReplicateSet(data))
        assert np.array_equal(read_replicates(rp).data, data)

    def test_replicates_rep_major_order(self, tmp_path):
        data = np.arange(6.0).reshape(3, 2)
        p = tmp_path / "rep.csv"
        write_replicates(p, ReplicateSet(data))
        lines = p.read_text().splitlines()
        assert lines[0] == "loc_id,rep_id,value"
        assert lines[1].startswith("0,0,") and lines[4].startswith("0,1,")

    def test_locations_errors(self, tmp_path):
        p = tmp_path / "loc.csv"
        p.write_text("lon,lat\n0,0\n")
        with pytest.raises(DataError, match="line 1"):
            read_locations(p)
        p.write_text("x,y\n0.1,0.2,0.3\n")
        with pytest.raises(DataError, match="expected 2"):
            read_locations(p)
        p.write_text("x,y\n")
        with pytest.raises(DataError, match="no locations"):
            read_locations(p)
        p.write_text("x,y\n0.1,oops\n")
        with pytest.raises(DataError, match="line 2, column 5"):
            read_locations(p)

    def test_replicates_errors(self, tmp_path):
        p = tmp_path / "rep.csv"
        head = "loc_id,rep_id,value\n"
        p.write_text("bad\n0,0,1\n")
        with pytest.raises(DataError, match="line 1"):
            read_replicates(p)
        p.write_text(head + "0,0,1.0\n0,0,2.0\n")
        with pytest.raises(DataError, match="duplicate.*loc_id=0 rep_id=0"):
            read_replicates(p)
        p.write_text(head + "0,0,1.0\n1,1,2.0\n")
        with pytest.raises(DataError, match="missing value"):
            read_replicates(p)
        p.write_text(head + "-1,0,1.0\n")
        with pytest.raises(DataError, match="negative id"):
            read_replicates(p)
        p.write_text(head + "0,x,1.0\n")
        with pytest.raises(DataError, match="not an integer id"):
            read_replicates(p)
        p.write_text(head + "0,0,inf\n")
        with pytest.raises(DataError, match="not finite"):
            read_replicates(p)
        p.write_text(head)
        with pytest.raises(DataError, match="no replicate values"):
            read_replicates(p)

    def test_dataset_dimension_mismatch(self, tmp_path):
        locs, reps, _ = simulate_dataset(GOLDEN_SIM)
        write_locations(tmp_path / "locations.csv", locs)
        write_replicates(tmp_path / "replicates.csv",
                         ReplicateSet(reps.data[:3]))
        with pytest.raises(DataError, match="dimension mismatch"):
            read_dataset(tmp_path)


class TestConfigText:
    def test_parse_basics(self):
        text = "# a comment\n  \nsim.n = 25 # trailing\nsim.layout=uniform\n"
        out = parse_config_text(text)
        assert out == {"sim.n": "25", "sim.layout": "uniform"}

    def test_parse_errors(self):
        with pytest.raises(DataError, match="line 2"):
            parse_config_text("a = 1\nbogus line\n")
        with pytest.raises(DataError, match="empty key"):
            parse_config_text("= 3\n")

    def test_record_roundtrip(self, tmp_path):
        p = tmp_path / "rec.txt"
        pairs = [("q", "0.95"), ("converged", "true"), ("note", "a = b")]
        write_record(p, pairs)
        assert read_record(p) == {"q": "0.95", "converged": "true",
                                  "note": "a = b"}

    def test_fmt(self):
        assert _fmt(True) == "true" and _fmt(False) == "false"
        assert _fmt(np.bool_(True)) == "true"
        assert _fmt(7) == "7"
        assert float(_fmt(0.1)) == 0.1
        assert float(_fmt(np.pi)) == np.pi


class TestBuildConfig:
    def test_defaults(self):
        cfg = build_config({})
        assert cfg.sim.theta == MaternParams(1.0, 0.1, 0.5)
        assert cfg.sim.n == 100 and cfg.sim.m == 100
        assert cfg.sim.layout == "grid" and cfg.sim.seed == 0
        assert cfg.selector == "kappa"
        assert cfg.q_grid.L == 4.0 and cfg.q_grid.K == 7
        assert cfg.fit_q == 1.0 and cfg.tol == 1e-6
        assert cfg.repetitions == 1 and cfg.output_dir == "."

    def test_sqv_selector_flips_default_threshold(self):
        assert build_config({"selector": "sqv"}).q_grid.L == 0.05
        cfg = build_config({"selector": "sqv", "grid.L": "0.2"})
        assert cfg.q_grid.L == 0.2

    def test_unknown_key_named(self):
        with pytest.raises(DataError, match="sim.nn"):
            build_config({"sim.nn": "4"})

    def test_theta_and_grid_parsing(self):
        cfg = build_config({"sim.theta": "2,0.3,1.5",
                            "grid.q": "1,0.98,0.96"})
        assert cfg.sim.theta == MaternParams(2.0, 0.3, 1.5)
        assert cfg.q_grid.grid == (1.0, 0.98, 0.96)
        with pytest.raises(DataError, match="3 comma-separated"):
            build_config({"sim.theta": "1,2"})

    def test_bounds_and_init(self):
        cfg = build_config({"fit.lower": "0.1,0.01,0.1",
                            "fit.init": "1,0.2,0.5"})
        assert cfg.bounds.lower == MaternParams(0.1, 0.01, 0.1)
        assert cfg.bounds.upper == MaternParams(1e3, 10.0, 5.0)
        assert cfg.init == MaternParams(1.0, 0.2, 0.5)

    def test_contamination_keys(self):
        cfg = build_config({"sim.contam.r": "0.1", "sim.contam.sd": "2"})
        assert cfg.sim.contamination.r == 0.1
        assert cfg.sim.contamination.noise_sd == 2.0

    def test_validation(self):
        with pytest.raises(DataError, match="repetitions"):
            build_config({"repetitions": "0"})
        with pytest.raises(DataError, match="selector"):
            build_config({"selector": "magic"})
        for key in ("fit.scale", "fit.method"):
            with pytest.raises(DataError, match="unknown config key.*" + key):
                build_config({key: "true"})

    def test_metadata_keys_tolerated(self):
        cfg = build_config({"generator": "philox", "contam.flags": "0,1"})
        assert cfg.sim.n == 100

    def test_output_dir_precedence(self, monkeypatch):
        monkeypatch.setenv(cli.OUT_ENV, "/tmp/envdir")
        assert build_config({"output_dir": "given"}).output_dir == "given"
        assert build_config({}).output_dir == "/tmp/envdir"
        monkeypatch.delenv(cli.OUT_ENV)
        assert build_config({}).output_dir == "."


def run(argv):
    return main(argv)


def write_tiny_config(path, extra=()):
    pairs = [("sim.theta", "1,0.2,0.5"), ("sim.n", "4"), ("sim.m", "3"),
             ("sim.seed", "7"), ("fit.tol", "1e-3")]
    pairs += list(extra)
    write_record(path, pairs)
    return str(path)


class TestMain:
    def test_usage_errors_exit_1(self, capsys):
        assert run(["no-such-command"]) == 1
        assert run([]) == 1
        assert run(["fit", "--m", "notanint"]) == 1
        capsys.readouterr()

    def test_simulate_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "d1"
        code = run(["simulate", "--n", "4", "--m", "2", "--seed", "42",
                    "--theta", "1,0.2,0.5", "--out", str(out)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        locs, reps = read_dataset(out)
        assert locs.n == 4 and reps.m == 2
        meta = read_record(out / "meta.txt")
        assert meta["generator"] == "philox"
        assert meta["sim.seed"] == "42"
        # the golden fixture was produced with these exact settings
        assert (out / "locations.csv").read_bytes() == \
            Path(DATA, "locations.csv").read_bytes()

    def test_metadata_record_reruns_identically(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--n", "9", "--m", "4", "--seed", "3",
                    "--contam-r", "0.3", "--out", str(d1)]) == 0
        assert run(["simulate", "--config", str(d1 / "meta.txt"),
                    "--out", str(d2)]) == 0
        for name in ("locations.csv", "replicates.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        capsys.readouterr()

    def test_env_output_dir(self, tmp_path, monkeypatch, capsys):
        envdir = tmp_path / "envout"
        monkeypatch.setenv(cli.OUT_ENV, str(envdir))
        assert run(["simulate", "--n", "4", "--m", "2"]) == 0
        assert (envdir / "locations.csv").exists()
        capsys.readouterr()

    def test_fit_then_se_chain(self, tmp_path, capsys):
        out = tmp_path / "w"
        cfgp = write_tiny_config(tmp_path / "cfg.txt")
        assert run(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        assert run(["fit", "--config", cfgp, "--data-dir", str(out),
                    "--out", str(out), "--q", "0.95"]) == 0
        rec = read_record(out / "fit.txt")
        assert float(rec["q"]) == 0.95
        assert rec["converged"] in ("true", "false")
        assert int(rec["newton_steps"]) >= 0
        assert "scale" not in rec
        th = MaternParams(float(rec["sigma2"]), float(rec["beta"]),
                          float(rec["nu"]))
        assert float(rec["kappa"]) == pytest.approx(
            th.sigma2 * th.beta ** (-2 * th.nu))
        assert run(["se", "--config", cfgp, "--data-dir", str(out),
                    "--out", str(out)]) == 0
        se = read_record(out / "se.txt")
        assert float(se["q"]) == 0.95 and int(se["m"]) == 3
        assert float(se["se.sigma2"]) > 0
        assert se["convention"] in ("negated", "positive", "absolute")
        assert float(se["K.sigma2.beta"]) == float(se["K.beta.sigma2"])
        assert np.isfinite(float(se["log_scale"]))
        capsys.readouterr()

    def test_fit_reproducible(self, tmp_path, capsys):
        out = tmp_path / "w"
        cfgp = write_tiny_config(tmp_path / "cfg.txt")
        assert run(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        assert run(["fit", "--config", cfgp, "--data-dir", str(out),
                    "--out", str(out)]) == 0
        first = (out / "fit.txt").read_bytes()
        assert run(["fit", "--config", cfgp, "--data-dir", str(out),
                    "--out", str(out)]) == 0
        assert (out / "fit.txt").read_bytes() == first
        capsys.readouterr()

    def test_corrupt_data_exit_2(self, tmp_path, capsys):
        out = tmp_path / "w"
        assert run(["simulate", "--n", "4", "--m", "2",
                    "--out", str(out)]) == 0
        with open(out / "replicates.csv", "a") as fh:
            fh.write("0,5,oops\n")
        assert run(["fit", "--data-dir", str(out), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "line" in err and "column" in err

    def test_missing_files_exit_2(self, tmp_path, capsys):
        assert run(["fit", "--data-dir", str(tmp_path),
                    "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("key,value", [("fit.scale", "true"),
                                           ("fit.method", "powell")])
    def test_removed_fit_key_exit_2(self, tmp_path, capsys, key, value):
        # configs written for the removed scale and method options fail
        # with the key named instead of being silently accepted
        out = tmp_path / "w"
        cfgp = write_tiny_config(tmp_path / "cfg.txt", extra=[(key, value)])
        assert run(["simulate", "--n", "4", "--m", "2",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["fit", "--config", cfgp, "--data-dir", str(out),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unknown config key" in err and key in err

    def test_numerical_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "w"
        assert run(["simulate", "--n", "4", "--m", "2",
                    "--out", str(out)]) == 0

        def boom(*a, **k):
            raise NotSPDError("covariance not SPD")

        monkeypatch.setattr(cli, "fit", boom)
        assert run(["fit", "--data-dir", str(out), "--out", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_select_q_kappa(self, tmp_path, capsys):
        out = tmp_path / "w"
        cfgp = write_tiny_config(tmp_path / "cfg.txt",
                                 extra=[("sim.n", "9"), ("sim.m", "8"),
                                        ("grid.q", "1,0.99,0.98")])
        assert run(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        assert run(["select-q", "--config", cfgp, "--data-dir", str(out),
                    "--out", str(out)]) == 0
        rec = read_record(out / "selectq.txt")
        assert rec["selector"] == "kappa"
        assert 0.0 < float(rec["q_star"]) <= 1.0
        assert rec["reason"] in ("stabilized", "fallback-to-one",
                                 "span-exhausted")
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "pass,idx,q,series,k_star"
        assert len(trace) >= 2
        capsys.readouterr()

    def test_select_q_rejects_selector_none(self, tmp_path, capsys):
        out = tmp_path / "w"
        assert run(["simulate", "--n", "4", "--m", "3",
                    "--out", str(out)]) == 0
        assert run(["select-q", "--data-dir", str(out), "--out", str(out),
                    "--selector", "none"]) == 2
        capsys.readouterr()

    def test_variogram_output(self, tmp_path, capsys):
        out = tmp_path / "w"
        assert run(["simulate", "--n", "16", "--m", "3",
                    "--out", str(out)]) == 0
        assert run(["variogram", "--data-dir", str(out), "--out", str(out),
                    "--bins", "4", "--center"]) == 0
        lines = (out / "variogram.csv").read_text().splitlines()
        assert lines[0] == "replicate_id,bin_center,gamma,count"
        assert len(lines) == 1 + 3 * 4
        capsys.readouterr()

    def test_sweep_structure(self, tmp_path, capsys):
        out = tmp_path / "w"
        cfgp = write_tiny_config(
            tmp_path / "cfg.txt",
            extra=[("sim.n", "9"), ("sim.m", "6"),
                   ("grid.q", "1,0.99"), ("repetitions", "2"),
                   ("selector", "kappa")])
        assert run(["sweep", "--config", cfgp, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == ("repetition,q,sigma2,beta,nu,kappa,"
                           "objective,converged,selected")
        body = [r.split(",") for r in rows[1:]]
        grid_rows = [r for r in body if r[8] == "false"]
        sel_rows = [r for r in body if r[8] == "true"]
        assert len(grid_rows) == 4            # 2 repetitions x 2 grid points
        assert len(sel_rows) <= 2
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "q,n_used,bias,variance,mse"
        assert len(summary) == 3
        assert (out / "selected_hist.csv").exists()
        meta = read_record(out / "sweep_meta.txt")
        assert meta["repetitions"] == "2"
        assert meta["grid.q"].startswith("1,")
        assert "fit.scale" not in meta and "fit.method" not in meta
        capsys.readouterr()

    def test_sweep_selector_reuses_fits_whose_objective_overflowed(
            self, tmp_path, monkeypatch, capsys):
        # at a small data scale a good profile fit reports objective inf
        # (FitResult); the selector reads its estimate instead of fitting
        # that grid q again
        real = est.fit
        fitted = []

        def overflowed(reps, locs, q, *args, **kwargs):
            fitted.append(q)
            return replace(real(reps, locs, q, *args, **kwargs), objective=np.inf)

        monkeypatch.setattr(est, "fit", overflowed)
        grid = [1.0, 0.6, 0.5, 0.49]
        cfgp = write_tiny_config(
            tmp_path / "cfg.txt",
            extra=[("sim.n", "9"), ("sim.m", "6"), ("grid.q", "1,0.6,0.5,0.49"),
                   ("repetitions", "1"), ("selector", "kappa")])
        assert run(["sweep", "--config", cfgp, "--out", str(tmp_path / "o")]) == 0
        # the profile fits each grid q once, then the selector's fits follow
        assert fitted[:4] == grid
        selector_fits = fitted[4:]
        assert selector_fits and not set(selector_fits) & set(grid)
        capsys.readouterr()

    def test_sweep_selector_fits_start_warm(self, tmp_path, monkeypatch, capsys):
        # fits the selector asks for off the profile's grid start with Newton
        # at the profile's last estimate: none of them is a cold start (the
        # grid's last interval is short, so each pass-0 pivot k* = 2 refines
        # [0.5, 0.49] with six new q values per repetition)
        real = est.fit
        warm = []

        def spy(*args, **kwargs):
            warm.append(kwargs["warm"])
            return real(*args, **kwargs)

        monkeypatch.setattr(est, "fit", spy)
        out = tmp_path / "w"
        cfgp = write_tiny_config(
            tmp_path / "cfg.txt",
            extra=[("sim.n", "9"), ("sim.m", "6"), ("grid.q", "1,0.6,0.5,0.49"),
                   ("repetitions", "2"), ("selector", "kappa")])
        assert run(["sweep", "--config", cfgp, "--out", str(out)]) == 0
        # per repetition: four profile fits, only the first cold, then the
        # selector's six
        assert warm == ([False] + [True] * 9) * 2
        selector_warm = warm[4:10] + warm[14:20]
        assert len(selector_warm) == 12 and selector_warm.count(False) == 0
        capsys.readouterr()

    def test_sweep_selected_row_reports_its_fit(self, tmp_path, monkeypatch, capsys):
        # the selected row carries the objective and converged flag of the
        # fit at q*, here patched to converged=False
        real = est.fit
        objective = {}

        def unconverged(reps, locs, q, *args, **kwargs):
            res = replace(real(reps, locs, q, *args, **kwargs), converged=False)
            objective[q] = res.objective
            return res

        monkeypatch.setattr(est, "fit", unconverged)
        out = tmp_path / "w"
        cfgp = write_tiny_config(
            tmp_path / "cfg.txt",
            extra=[("sim.n", "9"), ("sim.m", "6"), ("grid.q", "1,0.99,0.98"),
                   ("repetitions", "1"), ("selector", "kappa")])
        assert run(["sweep", "--config", cfgp, "--out", str(out)]) == 0
        rows = [r.split(",") for r in
                (out / "sweep.csv").read_text().splitlines()[1:]]
        (sel,) = [r for r in rows if r[8] == "true"]
        assert sel[7] == "false"
        assert sel[6] == "%.17g" % objective[float(sel[1])]
        capsys.readouterr()

    def test_sweep_and_select_q_pick_the_same_q(self, tmp_path, capsys):
        # on one simulated dataset whose kappa walk refines off the grid,
        # the sweep's selector (sharing the profile's fits) and select-q
        # (fitting from scratch) reach the same q*
        out = tmp_path / "w"
        cfgp = write_tiny_config(
            tmp_path / "cfg.txt",
            extra=[("sim.n", "9"), ("sim.m", "6"), ("grid.q", "1,0.6,0.5,0.49"),
                   ("repetitions", "1"), ("selector", "kappa")])
        assert run(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        assert run(["select-q", "--config", cfgp, "--data-dir", str(out),
                    "--out", str(out)]) == 0
        assert run(["sweep", "--config", cfgp, "--out", str(out)]) == 0
        trace = (out / "trace.csv").read_text().splitlines()[1:]
        refined = {float(r.split(",")[2]) for r in trace if r.startswith("1,")}
        assert refined - {1.0, 0.6, 0.5, 0.49}
        q_star = read_record(out / "selectq.txt")["q_star"]
        rows = [r.split(",") for r in
                (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [r[1] for r in rows if r[8] == "true"] == [q_star]
        capsys.readouterr()
