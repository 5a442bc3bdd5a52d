"""Byte-identity record of the package's answers: fits, sandwiches, q profiles and CLI sweeps.

    python tests/bit_record.py [--quick]
    python tests/bit_record.py --compare PARENT.json CHANGE.json

Prints one JSON object.  Two source trees whose records are equal gave the
same bits on every output recorded, so a change meant to keep the answers
(a perf or refactor change) is checked by running a copy of this script in
the parent's tree and in the change's, and comparing the two outputs.  The
package is imported from the ``src`` directory next to this file's
directory, so a copy placed in another tree's ``tests`` records that tree.

``--compare`` reads two saved records of the same mode and prints how the
second differs from the first, over the outputs both record: the largest
theta-hat gap over the fits, in bound-scaled (beta, nu) units of the
default bounds, with its key and the relative change of the objective
there; how many fits lie farther apart than the default ``tol``, and the
largest relative change of the objective among them; the totals of
evaluations, Newton passes, simplex iterations, restarts (climbs from the
default start) and converged fits on each side; the key of every other
output (a hash, a float's hex or an exit code) that differs; how many
outputs only one side records; and,
on each side, the largest relative gap of a scaled fit's theta-hat / (c^2,
1, 1) from the fit of the unscaled data.

BLAS is pinned to one thread before numpy loads: across thread counts no
fit is bit-identical, so the record is a one-thread record.

On each of three seed sets, with contaminated data (r = 0.1, noise sd 1),
it records:

- fits at q in {1, 0.95, 0.7}: theta-hat, objective, evaluations,
  iterations, Newton passes, ``restarts`` (the fit's climbs from the
  default start) and ``converged``, floats as hex, on an n = 100 grid at
  the rough and the smooth theta0, n = 150 uniform sites, n = 49 grid and
  uniform sites with m = 80 (m >= n), and n = 400 uniform sites (left out
  with ``--quick``);
- on the first seed set's rough n = 100 grid, the same fits of the data
  times 1e-3 and times 1e3, which scale equivariance maps onto the
  unscaled fits;
- after the fit at q = 0.95, a sandwich that reads the fit's last pass
  and one on a fresh copy of the sites, which factors R afresh: K, J, the
  log scale and se, hashed;
- ``FitChain`` profiles on (1, 0.99, 0.97, 0.95, 0.9) for n <= 150;
- CLI sweeps of 2 repetitions, kappa and SQV on a 64-site grid and kappa
  on 64 uniform sites: the hashes of sweep.csv, summary.csv and
  selected_hist.csv;
- every other CLI writer on a dataset that ``simulate`` writes on the
  same 64-site grid: simulate's locations.csv, replicates.csv and
  meta.txt, fit's fit.txt and se.txt, select-q's selectq.txt and
  trace.csv with each selector, and variogram's variogram.csv, hashed.

Each CLI run records its exit code.
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
                      ReplicateSet, SimConfig, cli_io, fit, sandwich, simulate_dataset,
                      std_errs)
from lqmatern.estimate import DEFAULT_TOL, default_bounds  # noqa: E402

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
# data scales of the scaled fits, on the first seed set's first design
SCALES = (1e-3, 1e3)
PROFILE_GRID = (1.0, 0.99, 0.97, 0.95, 0.9)
# (selector, layout) of each CLI sweep, on 64 sites
SWEEPS = (("kappa", "grid"), ("sqv", "grid"), ("kappa", "uniform"))
# the CLI runs' sites and data, less the layout and the seed
CLI_SITES = ("--n", "64", "--m", "60", "--theta", "1,0.1,0.5", "--contam-r", "0.1",
             "--contam-sd", "1")
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


def design_record(theta0, n, m, layout, seed, scaled=False):
    locs, reps, _ = simulate_dataset(SimConfig(theta0, n=n, m=m, layout=layout, seed=seed,
                                               contamination=CONTAMINATION))
    out = {"fits": {}}
    if scaled:
        out["scaled"] = {repr(c): {repr(q): fit_record(fit(ReplicateSet(c * reps.data), locs, q))
                                   for q in FIT_QS} for c in SCALES}
    for q in FIT_QS:
        res = fit(reps, locs, q)
        out["fits"][repr(q)] = fit_record(res)
        if q == SANDWICH_Q:
            # the first reads the fit's last pass; the second factors R afresh
            out["sandwich_hit"] = sandwich_record(reps, locs, res.theta_hat, q)
            out["sandwich_miss"] = sandwich_record(reps, LocationSet(locs.coords), res.theta_hat,
                                                   q)
    if n <= 150:
        out["profile"] = [fit_record(f) for f in FitChain(reps, locs).profile(PROFILE_GRID)]
    return out


def run_cli(argv, out, names):
    """{"rc": exit code, name: sha256 or None}: one ``cli_io.main`` run writing ``names`` to out."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_io.main(argv + ["--out", out])
    paths = {name: Path(out) / name for name in names}
    return {"rc": rc, **{name: hashlib.sha256(path.read_bytes()).hexdigest()
                         if path.exists() else None for name, path in paths.items()}}


def sweep_record(selector, layout, seed):
    with tempfile.TemporaryDirectory(prefix="bit_record_") as out:
        return run_cli(["sweep", *CLI_SITES, "--layout", layout, "--selector", selector,
                        "--repetitions", "2", "--seed", str(seed)],
                       out, ("sweep.csv", "summary.csv", "selected_hist.csv"))


def cli_record(seed):
    """simulate on the 64-site grid, then fit, select-q (each selector) and variogram."""
    with tempfile.TemporaryDirectory(prefix="bit_record_") as tmp:
        data = os.path.join(tmp, "data")
        out = {"simulate": run_cli(["simulate", *CLI_SITES, "--layout", "grid",
                                    "--seed", str(seed)],
                                   data, ("locations.csv", "replicates.csv", "meta.txt"))}
        for name, argv, files in (
                ("fit", ["fit"], ("fit.txt", "se.txt")),
                ("select-q-kappa", ["select-q", "--selector", "kappa"],
                 ("selectq.txt", "trace.csv")),
                ("select-q-sqv", ["select-q", "--selector", "sqv"], ("selectq.txt", "trace.csv")),
                ("variogram", ["variogram"], ("variogram.csv",))):
            out[name] = run_cli(argv + ["--data-dir", data], os.path.join(tmp, name), files)
    return out


def record(quick):
    out = {"quick": quick, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    for base in SEED_SETS:
        rec = out[str(base)] = {}
        for i, (name, theta0, n, m, layout, full_only) in enumerate(DESIGNS):
            if not (quick and full_only):
                rec[name] = design_record(theta0, n, m, layout, base + i,
                                          scaled=base == SEED_SETS[0] and i == 0)
        for selector, layout in SWEEPS:
            rec["sweep-%s-%s" % (selector, layout)] = sweep_record(selector, layout, base)
        rec["cli-grid"] = cli_record(base)
    return out


def _leaves(rec, path=()):
    """(key, value) of every fit record (a dict holding theta_hat) and every other leaf."""
    if isinstance(rec, dict) and "theta_hat" not in rec:
        for k in sorted(rec):
            yield from _leaves(rec[k], path + (k,))
    elif isinstance(rec, list):
        for i, v in enumerate(rec):
            yield from _leaves(v, path + (str(i),))
    else:
        yield "/".join(path), rec


FIT_TOTALS = ("evaluations", "newton_steps", "iterations", "restarts", "converged")


def _theta(fit_rec):
    return np.array([float.fromhex(v) for v in fit_rec["theta_hat"]])


def scale_gap(leaves):
    """(count, largest relative gap of theta-hat / (c^2, 1, 1)) of the scaled fits in ``leaves``."""
    gaps = []
    for k, v in leaves.items():
        head, sep, tail = k.partition("/scaled/")
        if sep:
            c, q = tail.split("/")
            base = _theta(leaves["%s/fits/%s" % (head, q)])
            gaps.append(np.abs(_theta(v) / [float(c) ** 2, 1.0, 1.0] / base - 1.0).max())
    return len(gaps), max(gaps, default=0.0)


def compare(parent, change):
    """Report lines on how the record ``change`` differs from ``parent`` (see the docstring)."""
    full_a, full_b = dict(_leaves(parent)), dict(_leaves(change))
    a = {k: v for k, v in full_a.items() if k in full_b}
    b = {k: v for k, v in full_b.items() if k in full_a}
    lo, hi = default_bounds().as_arrays()
    width = hi - lo
    fits = [k for k in a if isinstance(a[k], dict)]
    gaps = {}
    for k in fits:
        ta, tb = _theta(a[k]), _theta(b[k])
        gaps[k] = float(np.max(np.abs(tb - ta)[1:] / width))

    def objectives(k):
        oa, ob = (float.fromhex(r[k]["objective"]) for r in (a, b))
        return oa, ob, (ob - oa) / abs(oa) if oa else ob - oa

    key = max(gaps, key=gaps.get)
    far = [abs(objectives(k)[2]) for k in fits if gaps[k] > DEFAULT_TOL]
    lines = ["fits: %d; largest theta-hat gap %.3g (bound-scaled beta, nu) at %s, "
             "objective %r -> %r (relative %.3g)"
             % ((len(fits), gaps[key], key) + objectives(key)),
             "fits farther apart than tol = %g: %d, objectives within %.3g relative"
             % (DEFAULT_TOL, len(far), max(far, default=0.0))]
    for name in FIT_TOTALS:
        lines.append("%s: %d -> %d" % (name, sum(a[k][name] for k in fits),
                                       sum(b[k][name] for k in fits)))
    differ = [k for k in a if k not in gaps and a[k] != b[k]]
    lines.append("other outputs that differ: %d of %d" % (len(differ), len(a) - len(fits)))
    lines += ["  " + k for k in differ]
    lines.append("outputs only in the first record: %d; only in the second: %d"
                 % (len(full_a) - len(a), len(full_b) - len(b)))
    lines.append("scaled fits, largest relative gap of theta-hat / (c^2, 1, 1) from the "
                 "unscaled fit: %d, %.3g -> %d, %.3g" % (scale_gap(full_a) + scale_gap(full_b)))
    return lines


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--compare":
        print("\n".join(compare(*(json.loads(Path(p).read_text()) for p in args[1:]))))
    elif args in ([], ["--quick"]):
        print(json.dumps(record(args == ["--quick"]), indent=1, sort_keys=True))
    else:
        sys.exit("usage: python tests/bit_record.py [--quick | --compare PARENT.json CHANGE.json]")
