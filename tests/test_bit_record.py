"""``bit_record.py --quick`` runs, and two runs print the same record; ``--compare`` reports.

The two runs go side by side, about 5 s on a 2-core box.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bit_record.py"
CLI_FILES = {"simulate": ["locations.csv", "meta.txt", "rc", "replicates.csv"],
             "fit": ["fit.txt", "rc", "se.txt"],
             "select-q-kappa": ["rc", "selectq.txt", "trace.csv"],
             "select-q-sqv": ["rc", "selectq.txt", "trace.csv"],
             "variogram": ["rc", "variogram.csv"]}


def test_quick_record_is_deterministic(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env.pop("LQMATERN_OUT", None)
    procs = [subprocess.Popen([sys.executable, str(SCRIPT), "--quick"], cwd=tmp_path,
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    for p, (_out, err) in zip(procs, outs):
        assert p.returncode == 0, err[-2000:]
    first, second = (out for out, _err in outs)
    assert first == second
    rec = json.loads(first)
    assert rec["quick"] and rec["blas_threads"] == "1"
    for base in ("7700", "9110000", "3301"):
        designs = rec[base]
        assert "uniform400" not in designs
        assert len(designs["grid100-rough"]["fits"]) == 3
        assert len(designs["uniform150"]["profile"]) == 5
        for name in ("sweep-kappa-grid", "sweep-sqv-grid", "sweep-kappa-uniform"):
            assert designs[name]["rc"] == 0 and designs[name]["sweep.csv"]
        # every other CLI writer, on a dataset simulate wrote: each exits 0
        # and writes each file it is hashed by
        runs = designs["cli-grid"]
        assert {name: sorted(run) for name, run in runs.items()} == CLI_FILES
        assert all(v == 0 if key == "rc" else v for run in runs.values()
                   for key, v in run.items())
        # one dataset's fits of its data times 1e-3 and 1e3
        scaled = designs["grid100-rough"].get("scaled")
        assert (scaled is not None) == (base == "7700")
        assert "scaled" not in designs["grid100-smooth"]
    scaled = rec["7700"]["grid100-rough"]["scaled"]
    assert sorted(scaled) == ["0.001", "1000.0"]
    assert all(len(fits) == 3 for fits in scaled.values())
    # the scratch directories of the CLI sweeps are removed
    assert not list(tmp_path.glob("bit_record_*"))


def small_record(beta, evaluations, se, scaled_sigma2=None):
    """A record of one design's two fits, one sandwich hash and one sweep.

    With ``scaled_sigma2``, also a fit of the data times 1e3 at q = 1.
    """
    def one(b, evals, s2=1.0):
        return {"theta_hat": [s2.hex(), b.hex(), (0.5).hex()], "objective": (-10.0 * b).hex(),
                "evaluations": evals, "iterations": 0, "newton_steps": 3, "restarts": 0,
                "converged": True}

    fits = {"1.0": one(0.1, 4), "0.95": one(beta, evaluations)}
    design = {"fits": fits, "sandwich_hit": {"se": se}}
    if scaled_sigma2 is not None:
        design["scaled"] = {"1000.0": {"1.0": one(0.1, 4, scaled_sigma2)}}
    return {"quick": True, "blas_threads": "1",
            "7700": {"grid100-rough": design, "sweep-kappa-grid": {"rc": 0, "sweep.csv": "ab"}}}


def test_compare_reports_the_gap_the_totals_and_the_outputs_that_differ(tmp_path):
    # the change records a scaled fit the parent does not: it is left out of
    # the comparison, counted, and its gap from the unscaled fit reported
    paths = [tmp_path / "parent.json", tmp_path / "change.json"]
    for path, rec in zip(paths, (small_record(0.1, 9, "aa"),
                                 small_record(0.101, 5, "cc", scaled_sigma2=1.5e6))):
        path.write_text(json.dumps(rec))
    out = subprocess.run([sys.executable, str(SCRIPT), "--compare", *map(str, paths)],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.splitlines()
    # beta moved by 0.001 over the default box's width 9.999, and the
    # objective, -10 beta, fell by 1%
    assert lines[0].startswith("fits: 2; largest theta-hat gap 0.0001 (bound-scaled beta, nu) "
                               "at 7700/grid100-rough/fits/0.95,")
    assert lines[0].endswith("objective -1.0 -> -1.01 (relative -0.01)")
    assert lines[1:] == ["fits farther apart than tol = 1e-06: 1, objectives within 0.01 relative",
                         "evaluations: 13 -> 9", "newton_steps: 6 -> 6", "iterations: 0 -> 0",
                         "restarts: 0 -> 0", "converged: 2 -> 2",
                         "other outputs that differ: 1 of 5",
                         "  7700/grid100-rough/sandwich_hit/se",
                         "outputs only in the first record: 0; only in the second: 1",
                         "scaled fits, largest relative gap of theta-hat / (c^2, 1, 1) from the "
                         "unscaled fit: 0, 0 -> 1, 0.5"]
