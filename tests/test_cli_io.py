import argparse
import inspect
import os
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqmatern.cli_io as cli
import lqmatern.estimate as est
from lqmatern.asymptotics import sandwich, std_errs
from lqmatern.cli_io import (DataError, _fmt, build_config, config_echo, main,
                             parse_config_text, read_dataset, read_locations,
                             read_record, read_replicates, summarize_sweep,
                             write_locations, write_record, write_replicates)
from lqmatern import gauss_lik
from lqmatern.estimate import FitChain, FitResult, default_bounds, fit
from lqmatern.gauss_lik import NotSPDError, ReplicateSet
from lqmatern.matern import LocationSet, MaternParams
from lqmatern.qselect import QGridSpec, default_kappa_spec, kappa, select_q_sqv
from lqmatern.simulate import ContaminationSpec, SimConfig, simulate_dataset
from lqmatern.variogram import variogram_by_replicate
from seed_ledger import held_out

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

    def test_blank_lines_are_skipped(self, tmp_path):
        # a blank or whitespace-only data line is skipped, and the line
        # numbers of later errors still count it
        p = tmp_path / "loc.csv"
        p.write_text("x,y\n0.1,0.2\n\n  \n0.3,0.4\n")
        assert np.array_equal(read_locations(p).coords, [[0.1, 0.2], [0.3, 0.4]])
        p.write_text("x,y\n0.1,0.2\n\n0.3,oops\n")
        with pytest.raises(DataError, match="line 4, column 5"):
            read_locations(p)

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

    def test_a_repeated_key_is_an_error(self, tmp_path, capsys):
        # the last value would otherwise win silently; the error names the
        # key and both lines, and simulate writes nothing
        with pytest.raises(DataError, match="line 3: key 'sim.n' repeats line 1"):
            parse_config_text("sim.n = 16\nsim.m = 4\nsim.n = 25\n")
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text("sim.n = 16\nsim.n = 25\n")
        out = tmp_path / "o"
        assert run(["simulate", "--config", str(cfgp), "--out", str(out)]) == 2
        assert "line 2: key 'sim.n' repeats line 1" in capsys.readouterr().err
        assert not (out / "meta.txt").exists()

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


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def joined(*strategies):
    """The text of a comma-separated tuple drawn from ``strategies``."""
    return st.tuples(*strategies).map(lambda vals: ",".join(map(repr, vals)))


@st.composite
def every_key(draw):
    """A config mapping that sets every key a subcommand reads, each to a valid value."""
    layout = draw(st.sampled_from(["grid", "uniform"]))
    side = draw(st.integers(1, 30))
    steps = draw(st.lists(floats(1e-3, 0.1), max_size=6))
    theta = joined(floats(1e-3, 1e3), floats(1e-3, 1e3), floats(0.05, 5.0))
    return {
        "sim.theta": draw(theta),
        "sim.n": str(side * side if layout == "grid" else side),
        "sim.m": str(draw(st.integers(1, 5000))),
        "sim.layout": layout,
        "sim.seed": str(draw(st.integers(0, 2 ** 63))),
        "sim.contam.r": repr(draw(floats(0.0, 0.99))),
        "sim.contam.sd": repr(draw(floats(1e-3, 10.0))),
        "grid.q": ",".join(map(repr, (1.0 - np.cumsum([0.0] + steps)).tolist())),
        "grid.eps": repr(draw(floats(1e-4, 0.1))),
        "grid.L": repr(draw(floats(1e-3, 10.0))),
        "grid.K": str(draw(st.integers(1, 20))),
        "fit.q": repr(draw(floats(0.01, 1.0))),
        "fit.tol": repr(draw(floats(0.0, 1e-2))),
        "fit.lower": draw(joined(floats(1e-3, 1.0), floats(0.05, 1.0))),
        "fit.upper": draw(joined(floats(2.0, 10.0), floats(2.0, 5.0))),
        "fit.init": draw(theta),
        "repetitions": str(draw(st.integers(1, 1000))),
        "selector": draw(st.sampled_from(["kappa", "sqv", "none"])),
    }


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
        # every default but the CLI's own (theta, n, m) is that of the
        # library object the key configures
        sim_defaults = {f.name: f.default for f in fields(SimConfig)}
        assert cfg.sim.layout == sim_defaults["layout"]
        assert cfg.sim.seed == sim_defaults["seed"]
        assert cfg.sim.contamination == ContaminationSpec()
        assert cfg.q_grid == default_kappa_spec()
        assert build_config({"selector": "sqv"}).q_grid == QGridSpec()
        assert cfg.bounds == default_bounds() and cfg.init is None
        for owner in (fit, FitChain):
            assert inspect.signature(owner).parameters["tol"].default == cfg.tol

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
        # a value that does not parse names its key; an empty list item or
        # an empty list is no value
        for key, text in (("sim.theta", "1,0.1,abc"), ("sim.theta", "1,,0.1,0.5"),
                          ("grid.q", "1,,0.9"), ("grid.q", ""),
                          ("fit.lower", "0.01,")):
            with pytest.raises(DataError, match=re.escape("%s = %r: " % (key, text))):
                build_config({key: text})

    def test_bounds_and_init(self):
        # the bounds are (beta, nu) pairs: sigma2 has none
        cfg = build_config({"fit.lower": "0.01,0.1",
                            "fit.init": "1,0.2,0.5"})
        assert cfg.bounds.lower == (0.01, 0.1)
        assert cfg.bounds.upper == (10.0, 5.0)
        assert cfg.init == MaternParams(1.0, 0.2, 0.5)
        for key in ("fit.lower", "fit.upper"):
            for text in ("0.1,0.01,0.1", "0.5"):
                with pytest.raises(DataError, match=re.escape("needs 2 comma-separated values (beta,nu)")):
                    build_config({key: text})

    def test_contamination_keys(self):
        cfg = build_config({"sim.contam.r": "0.1", "sim.contam.sd": "2"})
        assert cfg.sim.contamination.r == 0.1
        assert cfg.sim.contamination.noise_sd == 2.0

    def test_validation(self, tmp_path, capsys):
        with pytest.raises(DataError, match="repetitions"):
            build_config({"repetitions": "0"})
        for key, text in (("sim.n", "ten"), ("sim.seed", "1.5"), ("grid.K", "x"),
                          ("fit.tol", "tight"), ("repetitions", "two")):
            with pytest.raises(DataError, match=re.escape("%s = %r: " % (key, text))):
                build_config({key: text})
        # exit code 2, with the key named, for a config value and a flag
        cfgp = tmp_path / "c.cfg"
        write_record(cfgp, [("sim.n", "ten")])
        assert run(["simulate", "--config", str(cfgp), "--out", str(tmp_path)]) == 2
        assert "data error: sim.n = 'ten': " in capsys.readouterr().err
        assert run(["sweep", "--q-grid", "", "--out", str(tmp_path)]) == 2
        assert "data error: grid.q = '': " in capsys.readouterr().err
        with pytest.raises(DataError, match="selector"):
            build_config({"selector": "magic"})
        for key in ("fit.scale", "fit.method"):
            with pytest.raises(DataError, match="unknown config key.*" + key):
                build_config({key: "true"})

    def test_metadata_keys_tolerated(self):
        # sim.contam.kind: older simulate records carry it
        cfg = build_config({"generator": "philox", "contam.flags": "0,1",
                            "sim.contam.kind": "gaussian"})
        assert cfg.sim.n == 100

    def test_output_dir_precedence(self, monkeypatch):
        monkeypatch.setenv(cli.OUT_ENV, "/tmp/envdir")
        assert build_config({"output_dir": "given"}).output_dir == "given"
        assert build_config({}).output_dir == "/tmp/envdir"
        monkeypatch.delenv(cli.OUT_ENV)
        assert build_config({}).output_dir == "."

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mapping=every_key())
    def test_echo_rebuilds_the_config(self, mapping):
        # each subcommand's record echoes every key of the sections it read,
        # and those pairs build the same config again
        for name, sections in subcommand_sections().items():
            cfg = build_config(mapping, sections)
            echo = config_echo(cfg, sections)
            assert [key for key, _value in echo] == [
                key for key, row in cli._KEYS.items() if row[0] in sections], name
            assert build_config(dict(echo), sections) == cfg, name

    def test_echo_leaves_out_a_data_driven_init(self):
        cfg = build_config({})
        assert cfg.init is None
        assert "fit.init" not in dict(config_echo(cfg, ("fit",)))

    def test_readme_key_table_is_keys(self):
        # the table of config keys under "Command line": a row per key of
        # _KEYS, with its section ("all" for every subcommand) and its flag
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("\n## Command line\n")[1].split("\n## ")[0]
        text = re.search(r"The config keys, one row each.*?\n\n(\|.*?)\n\n", section, re.S).group(1)
        rows = re.findall(r"^\| `([\w.]+)` \| (`\w+`|all) \| (`--[a-z-]+`|none) \|", text, re.M)
        assert len(rows) == len(text.splitlines()) - 2
        table = {key: (None if sec == "all" else sec.strip("`"),
                       None if flag == "none" else flag.strip("`-"))
                 for key, sec, flag in rows}
        assert list(table.items()) == [(key, row[:2]) for key, row in cli._KEYS.items()]


def run(argv):
    return main(argv)


def write_tiny_config(path, extra=()):
    # a key in extra replaces its default, since a config names a key once
    pairs = dict([("sim.theta", "1,0.2,0.5"), ("sim.n", "4"), ("sim.m", "3"),
                  ("sim.seed", "7"), ("fit.tol", "1e-3")])
    pairs.update(extra)
    write_record(path, list(pairs.items()))
    return str(path)


SIM_FLAGS = ["--seed", "--n", "--m", "--layout", "--theta", "--contam-r",
             "--contam-sd"]
SUBCOMMAND_FLAGS = {
    "simulate": ["--config", "--out"] + SIM_FLAGS,
    "fit": ["--config", "--out", "--q", "--data-dir"],
    "select-q": ["--config", "--out", "--q-grid", "--selector", "--data-dir"],
    "variogram": ["--config", "--out", "--data-dir", "--bins", "--max-dist"],
    "sweep": SIM_FLAGS + ["--config", "--out", "--q-grid", "--repetitions",
                          "--selector"],
}


def subparsers():
    """{subcommand: its parser} as build_parser() registers them."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def parser_flags():
    """{subcommand: its sorted flags} as build_parser() registers them."""
    return {name: sorted(opt for act in sp._actions for opt in act.option_strings
                         if opt not in ("-h", "--help"))
            for name, sp in subparsers().items()}


def subcommand_sections():
    """{subcommand: the config sections it builds}."""
    return {name: sp.get_default("sections") for name, sp in subparsers().items()}


class TestFlags:
    def test_each_subcommand_registers_the_flags_it_reads(self):
        got = parser_flags()
        assert got == {name: sorted(flags) for name, flags in SUBCOMMAND_FLAGS.items()}
        assert sum(len(flags) for flags in got.values()) == 35

    def test_readme_flag_table_is_the_parser(self):
        # the table under "Command line" and its "N in all" count
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("\n## Command line\n")[1].split("\n## ")[0]
        count, text = re.search(r"The flags of each subcommand, (\d+) in all.*?\n\n(\|.*?)\n\n",
                                section, re.S).groups()
        rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", text, re.M))
        table = {name: sorted(re.findall(r"--[a-z-]+", cell)) for name, cell in rows.items()}
        assert table == parser_flags()
        assert int(count) == sum(map(len, table.values()))

    def test_flag_a_subcommand_does_not_read_is_a_usage_error(self, tmp_path, capsys):
        assert run(["fit", "--n", "7", "--data-dir", str(tmp_path)]) == 1
        assert "unrecognized arguments: --n 7" in capsys.readouterr().err
        assert run(["fit", "--q-grid", "0.9,0.8", "--data-dir", str(tmp_path)]) == 1
        assert "--q-grid" in capsys.readouterr().err
        assert run(["variogram", "--q", "0.5", "--data-dir", str(tmp_path)]) == 1
        assert "--q" in capsys.readouterr().err
        # no abbreviations: simulate's --m does not pass as --max-dist
        assert run(["variogram", "--m", "5", "--data-dir", str(tmp_path)]) == 1
        assert "unrecognized arguments: --m 5" in capsys.readouterr().err


class TestConfigSections:
    """A subcommand builds and validates only the config sections it reads."""

    BAD = {"sim.n": ("sim.n", "7", "perfect square"),
           "grid.q": ("grid.q", "0.9,0.95", "q grid must start at 1")}

    @pytest.fixture
    def dataset(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run(["simulate", "--n", "4", "--m", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_fit_and_se_ignore_sections_they_do_not_read(self, tmp_path, dataset,
                                                          capsys, bad):
        key, value, _msg = self.BAD[bad]
        cfgp = tmp_path / "c.cfg"
        write_record(cfgp, [(key, value), ("fit.tol", "1e-3")])
        assert run(["fit", "--config", str(cfgp), "--data-dir", str(dataset),
                    "--out", str(dataset)]) == 0
        assert (dataset / "fit.txt").exists() and (dataset / "se.txt").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_subcommands_that_read_a_section_still_reject_it(self, tmp_path,
                                                            capsys, bad):
        key, value, msg = self.BAD[bad]
        cfgp = tmp_path / "c.cfg"
        write_record(cfgp, [(key, value), ("sim.m", "3"), ("fit.tol", "1e-3")])
        # sweep reads every section, simulate the sim section only
        cmds = ["sweep", "simulate"] if key.startswith("sim.") else ["sweep"]
        for cmd in cmds:
            assert run([cmd, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
            assert msg in capsys.readouterr().err

    def test_unknown_keys_are_rejected_by_every_subcommand(self, tmp_path, dataset,
                                                          capsys):
        cfgp = tmp_path / "c.cfg"
        write_record(cfgp, [("sim.nn", "4")])
        for argv in (["simulate"], ["sweep"], ["fit", "--data-dir", str(dataset)],
                     ["select-q", "--data-dir", str(dataset)],
                     ["variogram", "--data-dir", str(dataset)]):
            assert run(argv + ["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
            assert "unknown config key(s): sim.nn" in capsys.readouterr().err

    def test_only_fit_reads_fit_q(self, tmp_path, dataset, capsys):
        # fit.q is a section of its own: select-q and sweep accept it unread
        cfgp = tmp_path / "c.cfg"
        write_record(cfgp, [("fit.q", "high"), ("fit.tol", "1e-3"), ("grid.q", "1,0.99"),
                            ("sim.n", "4"), ("sim.m", "3")])
        assert run(["select-q", "--config", str(cfgp), "--data-dir", str(dataset),
                    "--out", str(tmp_path / "s")]) == 0
        assert run(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "w")]) == 0
        capsys.readouterr()
        assert run(["fit", "--config", str(cfgp), "--data-dir", str(dataset),
                    "--out", str(tmp_path / "f")]) == 2
        assert "data error: fit.q = 'high': " in capsys.readouterr().err

    def test_unbuilt_sections_are_none(self):
        cfg = build_config({"sim.n": "7", "grid.q": "0.9"}, sections=("fit",))
        assert cfg.sim is None and cfg.q_grid is None
        assert cfg.bounds == default_bounds() and cfg.tol == 1e-6


class TestMain:
    def test_usage_errors_exit_1(self, capsys, monkeypatch):
        assert run(["no-such-command"]) == 1
        assert run([]) == 1
        capsys.readouterr()
        # argparse wraps the usage line to the terminal's width
        monkeypatch.setenv("COLUMNS", "80")
        assert run(["simulate", "--m", "notanint"]) == 1
        assert capsys.readouterr().err == (
            "usage: lqmatern simulate [-h] [--config CONFIG] [--out OUT] [--seed SEED]\n"
            "                         [--n N] [--m M] [--layout {grid,uniform}]\n"
            "                         [--theta THETA] [--contam-r CONTAM_R]\n"
            "                         [--contam-sd CONTAM_SD]\n"
            "lqmatern simulate: error: argument --m: invalid int value: 'notanint'\n")

    @pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert run(argv) == 0
        assert capsys.readouterr().out.startswith("usage: lqmatern")

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
        assert "sim.contam.kind" not in meta
        # the config echo, key order and formatting included
        assert (out / "meta.txt").read_text() == (
            "sim.theta = 1,0.20000000000000001,0.5\n"
            "sim.n = 4\n"
            "sim.m = 2\n"
            "sim.layout = grid\n"
            "sim.seed = 42\n"
            "sim.contam.r = 0\n"
            "sim.contam.sd = 1\n"
            "generator = philox\n"
            "contam.flags = 0,0\n")
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

    def test_fit_writes_se(self, tmp_path, capsys):
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
        se = read_record(out / "se.txt")
        assert float(se["q"]) == 0.95 and int(se["m"]) == 3
        assert float(se["se.sigma2"]) > 0
        assert se["convention"] in ("negated", "positive", "absolute")
        assert float(se["K.sigma2.beta"]) == float(se["K.beta.sigma2"])
        assert np.isfinite(float(se["log_scale"]))
        # se.* is sqrt(diag(J^-1 K J^-1)) of the K.* and J.* it writes
        names = ("sigma2", "beta", "nu")
        K, J = ([[float(se["%s.%s.%s" % (mat, a, b)]) for b in names]
                 for a in names] for mat in ("K", "J"))
        J_inv = np.linalg.inv(J)
        want = np.sqrt(np.diag(J_inv @ K @ J_inv))
        got = [float(se["se." + name]) for name in names]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert not [key for key in se if key.startswith("se_sandwich")]
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

    def test_a_bound_of_three_values_exits_2(self, tmp_path, capsys):
        # fit.lower and fit.upper are (beta, nu) pairs; a sigma2,beta,nu
        # triple is a data error that names the key, not a traceback
        out = tmp_path / "w"
        cfgp = write_tiny_config(tmp_path / "cfg.txt")
        assert run(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        for key in ("fit.lower", "fit.upper"):
            bad = write_tiny_config(tmp_path / "b.cfg", [(key, "0.001,0.001,0.05")])
            assert run(["fit", "--config", bad, "--data-dir", str(out), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "data error: %s = '0.001,0.001,0.05'" % key in err
            assert "needs 2 comma-separated values (beta,nu)" in err

    def test_corrupt_data_exit_2(self, tmp_path, capsys):
        out = tmp_path / "w"
        assert run(["simulate", "--n", "4", "--m", "2",
                    "--out", str(out)]) == 0
        with open(out / "replicates.csv", "a") as fh:
            fh.write("0,5,oops\n")
        assert run(["fit", "--data-dir", str(out), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "line" in err and "column" in err

    def test_huge_id_exit_2(self, tmp_path, capsys):
        # a loc_id of 1e13 names a 72.8 TiB matrix; the missing cells are
        # reported without sizing one
        write_locations(tmp_path / "locations.csv",
                        LocationSet(np.array([[0.1, 0.1], [0.5, 0.5]])))
        (tmp_path / "replicates.csv").write_text(
            "loc_id,rep_id,value\n0,0,1.0\n1,0,2.0\n10000000000000,0,3.0\n")
        assert run(["fit", "--data-dir", str(tmp_path),
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert "missing value for loc_id=2 rep_id=0 (n=10000000000001, m=1)" in err

    def test_non_finite_q_grid_exit_2(self, tmp_path, capsys):
        # a grid ending in NaN once gave q_star = 1 after no fit at all
        out = tmp_path / "w"
        assert run(["simulate", "--n", "4", "--m", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["select-q", "--data-dir", str(out), "--out", str(out),
                    "--q-grid", "1,0.95,nan"]) == 2
        assert "q grid must be strictly decreasing" in capsys.readouterr().err
        assert not (out / "selectq.txt").exists()
        cfgp = write_tiny_config(tmp_path / "cfg.txt", [("grid.q", "1,nan")])
        assert run(["sweep", "--config", cfgp, "--out", str(tmp_path / "s")]) == 2
        assert "q grid must be strictly decreasing" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_tol_exit_2(self, tmp_path, capsys, tol):
        out = tmp_path / "w"
        assert run(["simulate", "--n", "4", "--m", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        cfgp = write_tiny_config(tmp_path / "cfg.txt", [("fit.tol", tol)])
        for cmd in ("fit", "select-q"):
            assert run([cmd, "--config", cfgp, "--data-dir", str(out),
                        "--out", str(out)]) == 2
            assert "tol must be finite and non-negative" in capsys.readouterr().err

    def test_fit_of_one_replicate_keeps_fit_txt_and_exits_2(self, tmp_path, capsys):
        # the sandwich needs two replicates: the fit is written, its se is not
        out = tmp_path / "w"
        assert run(["simulate", "--n", "4", "--m", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["fit", "--data-dir", str(out), "--out", str(out)]) == 2
        assert "sandwich needs at least 2 replicates" in capsys.readouterr().err
        assert read_record(out / "fit.txt")["converged"] in ("true", "false")
        assert not (out / "se.txt").exists()

    def test_fit_whose_j_is_singular_keeps_fit_txt_and_exits_3(self, tmp_path,
                                                               monkeypatch, capsys):
        out = tmp_path / "w"
        assert run(["simulate", "--n", "4", "--m", "3", "--out", str(out)]) == 0
        real = cli.sandwich

        def zero_j(*args):
            return replace(real(*args), J=np.zeros((3, 3)))

        monkeypatch.setattr(cli, "sandwich", zero_j)
        capsys.readouterr()
        assert run(["fit", "--data-dir", str(out), "--out", str(out)]) == 3
        assert "numerical failure: J is singular" in capsys.readouterr().err
        assert (out / "fit.txt").exists() and not (out / "se.txt").exists()

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
                    "--bins", "4"]) == 0
        lines = (out / "variogram.csv").read_text().splitlines()
        assert lines[0] == "replicate_id,bin_center,gamma,count"
        assert len(lines) == 1 + 3 * 4
        rows = [line.split(",") for line in lines[1:]]
        locs, reps = read_dataset(str(out))
        curves = variogram_by_replicate(reps, locs, 4)
        assert np.array_equal([float(r[2]) for r in rows],
                              np.concatenate([c.gamma for c in curves]),
                              equal_nan=True)
        assert [int(r[3]) for r in rows] == \
            np.concatenate([c.counts for c in curves]).tolist()
        capsys.readouterr()

    def test_variogram_non_finite_max_dist_exit_2(self, tmp_path, capsys):
        out = tmp_path / "w"
        assert run(["simulate", "--n", "9", "--m", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        for bad in ("inf", "nan"):
            assert run(["variogram", "--data-dir", str(out), "--out", str(out),
                        "--bins", "4", "--max-dist", bad]) == 2
            assert "max_dist must be positive and finite" in capsys.readouterr().err
        assert not (out / "variogram.csv").exists()

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
        # the config echo, key order and formatting included
        assert (out / "sweep_meta.txt").read_text() == (
            "sim.theta = 1,0.20000000000000001,0.5\n"
            "sim.n = 9\n"
            "sim.m = 6\n"
            "sim.layout = grid\n"
            "sim.seed = 7\n"
            "sim.contam.r = 0\n"
            "sim.contam.sd = 1\n"
            "grid.q = 1,0.98999999999999999\n"
            "grid.eps = 0.0050000000000000001\n"
            "grid.L = 4\n"
            "grid.K = 7\n"
            "fit.tol = 0.001\n"
            "fit.lower = 0.001,0.050000000000000003\n"
            "fit.upper = 10,5\n"
            "repetitions = 2\n"
            "selector = kappa\n"
            "generator = philox\n")
        capsys.readouterr()

    def test_sweep_reruns_from_its_record(self, tmp_path, capsys):
        # sweep_meta.txt is a config: with a box and a start of its own, a
        # sweep run from it writes the same sweep.csv
        seed = held_out("SimConfig.seed", "tests/test_cli_io.py::TestMain::"
                                          "test_sweep_reruns_from_its_record")[0]
        cfgp = write_tiny_config(
            tmp_path / "cfg.txt",
            extra=[("sim.n", "9"), ("sim.m", "6"), ("sim.seed", str(seed)),
                   ("grid.q", "1,0.99"), ("repetitions", "2"), ("fit.lower", "0.002,0.1"),
                   ("fit.upper", "5,3"), ("fit.init", "1,0.3,0.7")])
        first, second = tmp_path / "a", tmp_path / "b"
        assert run(["sweep", "--config", cfgp, "--out", str(first)]) == 0
        meta = read_record(first / "sweep_meta.txt")
        assert (meta["fit.lower"], meta["fit.upper"]) == ("0.002,0.10000000000000001", "5,3")
        assert meta["fit.init"] == "1,0.29999999999999999,0.69999999999999996"
        assert run(["sweep", "--config", str(first / "sweep_meta.txt"),
                    "--out", str(second)]) == 0
        for name in ("sweep.csv", "sweep_meta.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        capsys.readouterr()

    def test_fit_and_select_q_records_end_with_their_config(self, tmp_path, capsys):
        # fit.txt and selectq.txt end with the keys of the sections their
        # subcommand read; selectq.txt's selector stays its first line
        out = tmp_path / "w"
        cfgp = write_tiny_config(tmp_path / "cfg.txt",
                                 extra=[("sim.n", "9"), ("grid.q", "1,0.99"),
                                        ("fit.upper", "5,3")])
        assert run(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        assert run(["fit", "--config", cfgp, "--data-dir", str(out), "--out", str(out),
                    "--q", "0.95"]) == 0
        assert run(["select-q", "--config", cfgp, "--data-dir", str(out),
                    "--out", str(out)]) == 0
        box = ["fit.tol = 0.001", "fit.lower = 0.001,0.050000000000000003", "fit.upper = 5,3"]
        fit_lines = (out / "fit.txt").read_text().splitlines()
        assert fit_lines[0] == "q = 0.94999999999999996"
        assert fit_lines[-4:] == ["fit.q = 0.94999999999999996"] + box
        sel_lines = (out / "selectq.txt").read_text().splitlines()
        assert sel_lines[0] == "selector = kappa"
        assert sel_lines[4:] == ["grid.q = 1,0.98999999999999999",
                                 "grid.eps = 0.0050000000000000001", "grid.L = 4",
                                 "grid.K = 7"] + box
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
        # fits the selector asks for off the profile's grid start from the
        # chain's fits: none of them starts at the chain's own start (the
        # grid's last interval is short, so each pass-0 pivot k* = 2 refines
        # [0.5, 0.49] with six new q values; on the first repetition, whose
        # fits at tol = 1e-3 put the next pivot in that span too, a second
        # pass refines it with six more)
        real = est.fit
        starts = []

        def spy(*args, **kwargs):
            starts.append((args[2], args[4]))
            return real(*args, **kwargs)

        monkeypatch.setattr(est, "fit", spy)
        out = tmp_path / "w"
        cfgp = write_tiny_config(
            tmp_path / "cfg.txt",
            extra=[("sim.n", "9"), ("sim.m", "6"), ("grid.q", "1,0.6,0.5,0.49"),
                   ("repetitions", "2"), ("selector", "kappa")])
        assert run(["sweep", "--config", cfgp, "--out", str(out)]) == 0
        # per repetition: four profile fits from q = 1, only the first at the
        # chain's start, then the selector's
        firsts = [k for k, (q, _init) in enumerate(starts) if q == 1.0]
        assert firsts == [0, 16] and len(starts) == 26
        for a, b in ((0, 16), (16, 26)):
            warm = [init != starts[a][1] for _q, init in starts[a:b]]
            assert warm == [False] + [True] * (b - a - 1)
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

    @pytest.mark.parametrize("key, msg", [("grid.eps", "eps must be positive and finite"),
                                          ("grid.L", "L must be positive and finite"),
                                          ("grid.K", "grid.K = 'inf'")])
    def test_non_finite_selector_threshold_exit_2(self, tmp_path, capsys, key, msg):
        # grid.eps = inf once skipped every pass and grid.L = inf accepted
        # q = 1 at once, both exiting 0 with q_star = 1 and no fit
        out = tmp_path / "w"
        assert run(["simulate", "--n", "4", "--m", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        cfgp = write_tiny_config(tmp_path / "cfg.txt", [(key, "inf")])
        assert run(["select-q", "--config", cfgp, "--data-dir", str(out),
                    "--out", str(out)]) == 2
        assert msg in capsys.readouterr().err
        assert not (out / "selectq.txt").exists()
        assert run(["sweep", "--config", cfgp, "--out", str(tmp_path / "s")]) == 2
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "s" / "sweep.csv").exists()

    def test_fit_whose_kappa_overflows(self, tmp_path, monkeypatch, capsys):
        # kappa = sigma2 beta^(-2 nu) overflowed in Python floats and ended
        # the fit subcommand in a traceback; it is written as inf
        out = tmp_path / "w"
        assert run(["simulate", "--n", "4", "--m", "3", "--out", str(out)]) == 0
        real = cli.fit

        def tiny_beta(*args, **kwargs):
            res = real(*args, **kwargs)
            return replace(res, theta_hat=MaternParams(res.theta_hat.sigma2, 1e-40, 5.0))

        monkeypatch.setattr(cli, "fit", tiny_beta)
        assert run(["fit", "--data-dir", str(out), "--out", str(out)]) == 0
        assert read_record(out / "fit.txt")["kappa"] == "inf"
        capsys.readouterr()

    def test_summary_leaves_out_a_non_finite_kappa(self):
        # as a non-converged row is, and without a RuntimeWarning from inf - inf
        def row(rep, theta, converged):
            return rep, FitResult(theta, 0.0, 1.0, 0, 0, converged, theta), False

        rows = [row(0, MaternParams(1.0, 1e-40, 5.0), True),
                row(1, MaternParams(4.0, 1.0, 1.0), True),
                row(2, MaternParams(9.0, 1.0, 1.0), False)]
        assert kappa(rows[0][1].theta_hat) == np.inf
        assert summarize_sweep(rows, (1.0,), 2.0) == [(1.0, 1, 2.0, 0.0, 4.0)]

    def test_select_q_sqv(self, tmp_path, capsys):
        out = tmp_path / "w"
        cfgp = write_tiny_config(tmp_path / "cfg.txt",
                                 extra=[("sim.n", "16"), ("sim.m", "12"),
                                        ("grid.q", "1,0.99,0.98")])
        assert run(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        assert run(["select-q", "--config", cfgp, "--data-dir", str(out),
                    "--out", str(out), "--selector", "sqv"]) == 0
        rec = read_record(out / "selectq.txt")
        assert rec["selector"] == "sqv"
        assert 0.98 <= float(rec["q_star"]) <= 1.0
        trace = [r.split(",") for r in (out / "trace.csv").read_text().splitlines()]
        assert trace[0] == ["pass", "idx", "q", "series", "k_star"]
        # the first pass scored every grid q, with the library's SQV series
        locs, reps = read_dataset(str(out))
        want = select_q_sqv(FitChain(reps, locs, tol=1e-3),
                            lambda th, q: std_errs(sandwich(reps, locs, th, q)),
                            QGridSpec(grid=(1.0, 0.99, 0.98)), m=reps.m)
        first = [r for r in trace[1:] if r[0] == "0"]
        assert [float(r[2]) for r in first] == [1.0, 0.99, 0.98]
        assert [r[3] for r in first[1:]] == ["%.17g" % v for v in want.trace[0].series]
        assert float(rec["q_star"]) == want.q_star and rec["reason"] == want.reason
        capsys.readouterr()

    @pytest.mark.parametrize("selector, selected", [("sqv", 1), ("none", 0)])
    def test_sweep_selectors(self, tmp_path, capsys, selector, selected):
        out = tmp_path / "w"
        assert run(["sweep", "--n", "16", "--m", "12", "--seed", "7",
                    "--q-grid", "1,0.99,0.98", "--repetitions", "1",
                    "--selector", selector, "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [r[1] for r in rows if r[8] == "false"] == ["1", "0.98999999999999999",
                                                           "0.97999999999999998"]
        sel = [r for r in rows if r[8] == "true"]
        assert len(sel) == selected
        hist = (out / "selected_hist.csv").read_text().splitlines()
        assert hist[0] == "q_star,count" and len(hist) == 1 + selected
        if selected:
            assert 0.98 <= float(sel[0][1]) <= 1.0
            assert hist[1] == "%.6g,1" % float(sel[0][1])
        assert read_record(out / "sweep_meta.txt")["selector"] == selector
        capsys.readouterr()

    @pytest.mark.parametrize("selector", ["kappa", "sqv"])
    def test_sweep_repetition_whose_every_fit_fails(self, tmp_path, monkeypatch, capsys,
                                                    caplog, selector):
        # no R can be factored: each grid fit is the chain's placeholder, the
        # selector drops every q and falls back to q* = 1, whose fit fails
        # again; the repetition writes no selected row, and the sweep goes on
        def boom(*args, **kwargs):
            raise NotSPDError("not positive definite")

        monkeypatch.setattr(gauss_lik._Workspace, "_factor", boom)
        out = tmp_path / "w"
        assert run(["sweep", "--n", "9", "--m", "6", "--q-grid", "1,0.99",
                    "--repetitions", "2", "--selector", selector, "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [r[:2] for r in rows] == [["0", "1"], ["0", "0.98999999999999999"],
                                         ["1", "1"], ["1", "0.98999999999999999"]]
        assert all(r[6:] == ["nan", "false", "false"] for r in rows)
        assert (out / "selected_hist.csv").read_text() == "q_star,count\n"
        for rep in (0, 1):
            assert ("the fit at q* = 1 failed on repetition %d: not positive definite"
                    % rep) in caplog.text
        capsys.readouterr()

    def test_sweep_repetition_whose_selected_fit_fails(self, tmp_path, monkeypatch, capsys,
                                                       caplog):
        # q = 1's fit fails, so the selector falls back to q* = 1, whose fit
        # fails again: the repetition keeps its grid rows and writes no
        # selected row, and the sweep goes on
        real = est.fit

        def flaky(reps, locs, q, *args, **kwargs):
            if q == 1.0:
                raise np.linalg.LinAlgError("not positive definite")
            return real(reps, locs, q, *args, **kwargs)

        monkeypatch.setattr(est, "fit", flaky)
        out = tmp_path / "w"
        assert run(["sweep", "--n", "9", "--m", "6", "--q-grid", "1,0.99",
                    "--repetitions", "2", "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [r[:2] for r in rows] == [["0", "1"], ["0", "0.98999999999999999"],
                                         ["1", "1"], ["1", "0.98999999999999999"]]
        assert all(r[8] == "false" for r in rows)
        # q = 1's placeholder: objective NaN, not converged
        assert [r[6:8] for r in rows[::2]] == [["nan", "false"]] * 2
        assert (out / "selected_hist.csv").read_text() == "q_star,count\n"
        for rep in (0, 1):
            assert ("the fit at q* = 1 failed on repetition %d: not positive definite"
                    % rep) in caplog.text
        capsys.readouterr()

    @pytest.mark.parametrize("case", ["init", "sites"])
    def test_select_q_refuses_what_fit_refuses(self, tmp_path, capsys, case):
        # an init outside the box, or a repeated site, fails every grid fit:
        # the chain raises fit's error when it is built, where a selector
        # once dropped every q and wrote q* = 1 ("fallback-to-one")
        out = tmp_path / "w"
        extra = [("grid.q", "1,0.99")] + ([("fit.init", "1,20,0.5")] if case == "init" else [])
        cfgp = write_tiny_config(tmp_path / "cfg.txt", extra=extra)
        assert run(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        if case == "sites":
            path = out / "locations.csv"
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[:2] + lines[1:2] + lines[3:]) + "\n")
        capsys.readouterr()
        assert run(["fit", "--config", cfgp, "--data-dir", str(out), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("outside the bounds" if case == "init" else "duplicate locations") in err
        assert run(["select-q", "--config", cfgp, "--data-dir", str(out),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == err
        assert not (out / "selectq.txt").exists()
