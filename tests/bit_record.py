"""Byte-identity record of the package's answers: fits, sandwiches, q profiles and CLI sweeps.

    python tests/bit_record.py [--quick]

Prints one JSON object.  Two source trees whose records are equal gave the
same bits on every output recorded, so a change meant to keep the answers
(a perf or refactor change) is checked by running a copy of this script in
the parent's tree and in the change's, and comparing the two outputs.  The
package is imported from the ``src`` directory next to this file's
directory, so a copy placed in another tree's ``tests`` records that tree.

BLAS is pinned to one thread before numpy loads: across thread counts no
fit is bit-identical, so the record is a one-thread record.

On each of three seed sets, with contaminated data (r = 0.1, noise sd 1),
it records:

- fits at q in {1, 0.95, 0.7}: theta-hat, objective, evaluations,
  iterations, Newton passes, restarts and ``converged``, floats as hex, on
  an n = 100 grid at the rough and the smooth theta0, n = 150 uniform
  sites, n = 49 grid and uniform sites with m = 80 (m >= n), and n = 400
  uniform sites (left out with ``--quick``);
- after the fit at q = 0.95, a sandwich that reads the fit's last pass
  and one on a fresh copy of the sites, which factors R afresh: K, J, the
  log scale and se, hashed;
- ``FitChain`` profiles on (1, 0.99, 0.97, 0.95, 0.9) for n <= 150;
- CLI sweeps of 2 repetitions, kappa and SQV on a 64-site grid and kappa
  on 64 uniform sites: the hashes of sweep.csv, summary.csv and
  selected_hist.csv.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from lqmatern import (ContaminationSpec, FitChain, LocationSet, MaternParams,  # noqa: E402
                      SimConfig, cli_io, fit, sandwich, simulate_dataset, std_errs)

SEED_SETS = (7700, 9110000, 3301)
ROUGH, SMOOTH = MaternParams(1.0, 0.1, 0.5), MaternParams(1.0, 0.3, 1.5)
# (name, theta0, n, m, layout, full mode only)
DESIGNS = (
    ("grid100-rough", ROUGH, 100, 100, "grid", False),
    ("grid100-smooth", SMOOTH, 100, 100, "grid", False),
    ("uniform150", ROUGH, 150, 100, "uniform", False),
    ("grid49-m80", ROUGH, 49, 80, "grid", False),
    ("uniform49-m80", ROUGH, 49, 80, "uniform", False),
    ("uniform400", ROUGH, 400, 100, "uniform", True),
)
FIT_QS = (1.0, 0.95, 0.7)
SANDWICH_Q = 0.95
PROFILE_GRID = (1.0, 0.99, 0.97, 0.95, 0.9)
# (selector, layout) of each CLI sweep, on 64 sites
SWEEPS = (("kappa", "grid"), ("sqv", "grid"), ("kappa", "uniform"))
CONTAMINATION = ContaminationSpec(0.1, 1.0)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def fit_record(res):
    return {"theta_hat": [v.hex() for v in res.theta_hat.as_array().tolist()],
            "objective": float(res.objective).hex(), "evaluations": res.evaluations,
            "iterations": res.iterations, "newton_steps": res.newton_steps,
            "restarts": res.restarts, "converged": res.converged}


def sandwich_record(reps, locs, theta, q):
    parts = sandwich(reps, locs, theta, q)
    return {"K_J": digest(parts.K, parts.J), "log_scale": float(parts.log_scale).hex(),
            "se": digest(std_errs(parts).se)}


def design_record(theta0, n, m, layout, seed):
    locs, reps, _ = simulate_dataset(SimConfig(theta0, n=n, m=m, layout=layout, seed=seed,
                                               contamination=CONTAMINATION))
    out = {"fits": {}}
    for q in FIT_QS:
        res = fit(reps, locs, q)
        out["fits"][repr(q)] = fit_record(res)
        if q == SANDWICH_Q:
            # the first reads the fit's last pass; the second factors R afresh
            out["sandwich_hit"] = sandwich_record(reps, locs, res.theta_hat, q)
            out["sandwich_miss"] = sandwich_record(reps, LocationSet(locs.coords), res.theta_hat,
                                                   q)
    if n <= 150:
        profile = FitChain(reps, locs).profile(PROFILE_GRID)
        out["profile"] = [fit_record(f) for f in profile.fits]
    return out


def sweep_record(selector, layout, seed):
    with tempfile.TemporaryDirectory(prefix="bit_record_") as out:
        argv = ["sweep", "--n", "64", "--m", "60", "--layout", layout,
                "--theta", "1,0.1,0.5", "--contam-r", "0.1", "--contam-sd", "1",
                "--selector", selector, "--repetitions", "2", "--seed", str(seed),
                "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_io.main(argv)
        files = {}
        for name in ("sweep.csv", "summary.csv", "selected_hist.csv"):
            path = Path(out) / name
            files[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return {"rc": rc, **files}


def record(quick):
    out = {"quick": quick, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    for base in SEED_SETS:
        rec = out[str(base)] = {}
        for i, (name, theta0, n, m, layout, full_only) in enumerate(DESIGNS):
            if not (quick and full_only):
                rec[name] = design_record(theta0, n, m, layout, base + i)
        for selector, layout in SWEEPS:
            rec["sweep-%s-%s" % (selector, layout)] = sweep_record(selector, layout, base)
    return out


if __name__ == "__main__":
    quick = sys.argv[1:] == ["--quick"]
    if sys.argv[1:] not in ([], ["--quick"]):
        sys.exit("usage: python tests/bit_record.py [--quick]")
    print(json.dumps(record(quick), indent=1, sort_keys=True))
