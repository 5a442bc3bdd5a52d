"""lqmatern benchmark: two closed-loop workloads through the public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from the
``src/`` directory beside this one, never from an installed copy, and the
benchmark exits non-zero without a result when that directory is missing.

One caller issues operations one after another (a closed loop, one client).
The number of operations in a run is fixed by ``--seconds`` and the
workload's nominal operation cost, so two runs with the same arguments do
the same work.  Inputs come from ``--seed`` alone.  After the timed phase
every output is checked (see ``checks.py``); an operation whose output is
wrong counts as failed.  ``correct`` is false when a metric is not finite,
or when the traced and untraced copies of an operation (below) gave
different answers.  Every timed call is bracketed by a fixed reference task
and reported in seconds at the reference host speed (``HostClock``).

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` it carries the per-layer metrics: half the operations run
twice, untraced and then traced (``spans.py``), and per-operation counts
and times come from the traced copies.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
The line before it, and ``bench/results/<workload>/*.json``, hold the full
record: environment, answers (theta-hat, kappa-hat, q*, sweep.csv hash per
operation), check outcomes and metrics.  ``compare.py`` reads those files.
"""

import os

# BLAS threads are pinned before numpy loads.  On a 2-core box total_lq at
# n=400 took 8.0 ms median and 139 ms max with 2 OpenBLAS threads, against
# 4.1 ms and 5.3 ms with 1.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

if not (SRC / "lqmatern" / "__init__.py").is_file():
    sys.exit("bench: no lqmatern sources under %s; run from a source checkout" % SRC)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.special  # noqa: E402

import lqmatern  # noqa: E402
from lqmatern import asymptotics, cli_io, estimate, simulate, variogram  # noqa: E402
from lqmatern.matern import MaternParams  # noqa: E402
from lqmatern.qselect import kappa  # noqa: E402

import checks  # noqa: E402
from spans import JITTERED, OK, RAISED, Tracer  # noqa: E402

if Path(lqmatern.__file__).resolve().parent != SRC / "lqmatern":
    sys.exit("bench: imported lqmatern from %s, not from %s" % (lqmatern.__file__, SRC))

THETA0 = MaternParams(1.0, 0.1, 0.5)
CONTAM_R = 0.1
CONTAM_SD = 1.0
SETUP_PROBES = 5          # set-up is timed in this many fresh processes
PROBE_TIMEOUT_S = 120
SEED_STRIDE = 10_000      # dataset seed of operation i is SEED_STRIDE * seed + i
# exceptions an operation may raise without the benchmark itself failing
OP_ERRORS = (np.linalg.LinAlgError, ValueError, RuntimeError, FloatingPointError)


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    ``kind`` picks the operation: "sweep" runs the CLI sweep for one
    repetition and then fit + se on that repetition's data; "analysis" runs
    one fit per q, se at each fit, and the variogram.
    ``nominal_op_s`` is the seconds one operation took on the reference
    machine (2 cores, OpenBLAS, 1 thread); it fixes the operations per run.
    """

    name: str
    kind: str
    n: int
    layout: str
    m: int
    qs: tuple
    nominal_op_s: float


# Why each exists is recorded in BENCHMARK.json.  The two separate the
# layers: the n=100 lattice has 127 unique distances, so the kernel is cheap
# and per-call glue in estimate, qselect and cli_io shows, while 400 uniform
# sites give 79,801 unique distances and Bessel evaluation dominates.
WORKLOADS = {w.name: w for w in (
    Workload("sweep-grid-n100", "sweep", 100, "grid", 100, (0.95,), 1.25),
    Workload("analysis-uniform-n400", "analysis", 400, "uniform", 100, (0.95,), 9.0),
)}


@dataclass(frozen=True)
class Dataset:
    seed: int
    locs: object
    reps: object


def ops_per_run(w, seconds):
    return max(1, min(SEED_STRIDE - 1, int(seconds / w.nominal_op_s)))


def prepare(w, seed, n_ops):
    """Generate one dataset per operation and fill its distance cache.

    Fresh data per operation makes a run's cost an average over many
    optimizer and selector paths instead of one dataset's luck.
    """
    datasets = []
    for i in range(n_ops):
        ds_seed = SEED_STRIDE * seed + i
        cfg = simulate.SimConfig(THETA0, n=w.n, m=w.m, layout=w.layout, seed=ds_seed,
                                 contamination=simulate.ContaminationSpec(CONTAM_R, CONTAM_SD))
        locs, reps, _flags = simulate.simulate_dataset(cfg)
        locs._dist_unique  # the lazily built distance cache every fit reads
        datasets.append(Dataset(ds_seed, locs, reps))
    return datasets


# === host speed =============================================================


# Seconds the reference task takes on the reference machine (2 cores of a
# shared 2.1 GHz Xeon host, OpenBLAS on 1 thread) in its fast state.
REF_S = 0.021


class HostClock:
    """Times calls in seconds at the reference host speed.

    The benchmark runs on a few cores of a shared host whose speed drifts by
    25-70% for seconds to minutes at a time, CPU time included: the same
    n=100 fit took 80 ms in one half-minute and 120-150 ms in the next.  A
    run spans one or two such phases, so raw call times of equal work
    spread past 0.25 between runs.  The clock therefore runs a fixed task
    that never touches lqmatern (a pure-Python loop, scipy's Bessel K over
    20,000 points and five 300x300 Cholesky factors: the three kinds of work
    a fit does) after every timed call, and divides each call's duration by
    the host factor: the mean reference time just before and just after it,
    over ``REF_S``.  Over half-minute stretches the ratio of a fit's time to
    the reference time drifted about half as much as the fit's time.
    Raw durations stay in the record.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.uniform(0.01, 5.0, 20_000)
        a = rng.standard_normal((300, 300))
        self._a = a @ a.T + 300.0 * np.eye(300)
        self.ref_s = []
        self._reference()

    def _reference(self):
        t = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        scipy.special.kv(0.7, self._x)
        for _ in range(5):
            np.linalg.cholesky(self._a)
        self.ref_s.append(time.perf_counter() - t)

    def stop(self, t0):
        """(raw, scaled) seconds since ``t0``; then runs the reference task."""
        raw = time.perf_counter() - t0
        before = self.ref_s[-1]
        self._reference()
        return raw, raw * 2.0 * REF_S / (before + self.ref_s[-1])


# === one operation ==========================================================


def _sweep_argv(w, ds_seed, outdir):
    return ["sweep", "--n", str(w.n), "--m", str(w.m), "--layout", w.layout,
            "--theta", ",".join("%.17g" % v for v in THETA0.as_array()),
            "--contam-r", "%.17g" % CONTAM_R, "--contam-sd", "%.17g" % CONTAM_SD,
            "--selector", "kappa", "--repetitions", "1", "--seed", str(ds_seed),
            "--out", str(outdir)]


def run_op(w, ds, outdir, clock):
    """One operation; returns its timings and raw outputs for the checks.

    Each timing is a (raw, scaled) pair of seconds; see ``HostClock``.
    """
    rec = {"data_seed": ds.seed, "fit_s": [], "se_s": [], "fits": [], "se": []}
    parts = []
    if w.kind == "sweep":
        t = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rec["sweep_rc"] = cli_io.main(_sweep_argv(w, ds.seed, outdir))
        rec["sweep_s"] = clock.stop(t)
        parts.append(rec["sweep_s"])
    for q in w.qs:
        t = time.perf_counter()
        try:
            rec["fits"].append(estimate.fit(ds.reps, ds.locs, q))
        except OP_ERRORS as exc:
            rec["fits"].append(exc)
        rec["fit_s"].append(clock.stop(t))
    for res in rec["fits"]:
        if isinstance(res, Exception):
            rec["se"].append(res)
            continue
        t = time.perf_counter()
        try:
            sw = asymptotics.sandwich(ds.reps, ds.locs, res.theta_hat, res.q)
            rec["se"].append((sw, asymptotics.std_errs(sw)))
        except OP_ERRORS as exc:
            rec["se"].append(exc)
        rec["se_s"].append(clock.stop(t))
    if w.kind == "analysis":
        t = time.perf_counter()
        try:
            rec["curves"] = variogram.variogram_by_replicate(ds.reps, ds.locs)
        except OP_ERRORS as exc:
            rec["curves"] = exc
        rec["variogram_s"] = clock.stop(t)
        parts.append(rec["variogram_s"])
    parts += rec["fit_s"] + rec["se_s"]
    rec["op_s"] = (sum(r for r, _ in parts), sum(c for _, c in parts))
    if w.kind == "sweep":
        out = Path(outdir)
        rec["sweep_csv"] = (out / "sweep.csv").read_bytes() if rec["sweep_rc"] == 0 else b""
        rec["bytes_written"] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return rec


# === checks and answers =====================================================


def _reason(exc):
    return "%s: %s" % (type(exc).__name__, exc)


def check_op(w, ds, rec):
    """Check reasons (None = passed) for each sub-operation, and the answers."""
    outcomes = []
    answers = {"data_seed": ds.seed, "fits": [], "se": []}
    if w.kind == "sweep":
        rows = checks.parse_sweep_csv(rec["sweep_csv"].decode()) if rec["sweep_rc"] == 0 else []
        n_grid = len(cli_io.build_config({}).q_grid.grid)
        outcomes.append(("sweep", checks.check_sweep(rec["sweep_rc"], rows, n_grid,
                                                     ds.reps, ds.locs)))
        selected = [r for r in rows if r["selected"]]
        answers["q_star"] = selected[0]["q"] if selected else None
        answers["sweep_csv_sha256"] = hashlib.sha256(rec["sweep_csv"]).hexdigest()
    for res in rec["fits"]:
        if isinstance(res, Exception):
            outcomes.append(("fit", _reason(res)))
            answers["fits"].append({"error": _reason(res)})
            continue
        outcomes.append(("fit", checks.check_fit(res, ds.reps, ds.locs)))
        answers["fits"].append({"q": res.q, "theta": res.theta_hat.as_array().tolist(),
                                "kappa": kappa(res.theta_hat), "objective": res.objective,
                                "evaluations": res.evaluations, "restarts": res.restarts,
                                "converged": res.converged})
    for se in rec["se"]:
        if isinstance(se, Exception):
            outcomes.append(("se", _reason(se)))
            answers["se"].append({"error": _reason(se)})
            continue
        parts, errs = se
        outcomes.append(("se", checks.check_se(parts, errs)))
        answers["se"].append(errs.se.tolist())
    if "curves" in rec:
        curves = rec["curves"]
        outcomes.append(("variogram", _reason(curves) if isinstance(curves, Exception)
                         else checks.check_variogram(curves, ds.reps, ds.locs)))
    return outcomes, answers


# === environment ============================================================


def _blas_threads():
    # ask each bundled OpenBLAS how many threads it will use
    found = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / (pkg.__name__ + ".libs")
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(lib).name] = fn()
                    break
    return found


def _git_commit():
    git = ROOT / ".git"
    if not git.is_dir():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads_pinned": BLAS_THREADS, "blas_threads": _blas_threads(),
            "nproc": os.cpu_count(), "git_commit": _git_commit(), "seed": seed}


# === set-up time ============================================================


def probe_setup(w, seed, n_ops):
    """Seconds from spawning a fresh interpreter to inputs ready for timing."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
            json.dumps(asdict(w)), str(seed), str(n_ops)]
    t_spawn = time.time()
    out = subprocess.run(argv + [repr(t_spawn)], capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


# === metrics ================================================================


def _median(xs):
    return float(statistics.median(xs)) if len(xs) else 0.0


def call_times(ops, scaled=True):
    """Every timed call of the run, by kind, in scaled or raw seconds."""
    k = 1 if scaled else 0
    calls = {"fit": [t[k] for r in ops for t in r["fit_s"]],
             "se": [t[k] for r in ops for t in r["se_s"]],
             "sweep": [r["sweep_s"][k] for r in ops if "sweep_s" in r],
             "variogram": [r["variogram_s"][k] for r in ops if "variogram_s" in r],
             "op": [r["op_s"][k] for r in ops]}
    return {k: v for k, v in calls.items() if v}


def end_to_end_metrics(w, ops, setup_samples):
    # Every time but setup_s is in seconds at the reference host speed
    # (HostClock).  fit_s and se_s are medians over the run's calls.  A sweep
    # repetition costs about 0.8 s or 1.3 s by its selector path, and which
    # of the two is the median flips with the seed, so reps_per_s counts
    # repetitions over their summed time instead.
    calls = call_times(ops)
    reps = calls["sweep"] if w.kind == "sweep" else calls["op"]
    values = {
        "setup_s": (_median(setup_samples), "s"),
        "wall_s": (sum(calls["op"]), "s"),
        "reps_per_s": (len(reps) / sum(reps), "1/s"),
        "fit_s": (_median(calls["fit"]), "s"),
        "se_s": (_median(calls["se"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer_metrics(w, datasets, tracer, pairs):
    """Per-layer counts and times from the traced operations.

    Counts and totals are per traced operation; ``*_p50`` are medians over
    calls.  A layer the workload never calls reads 0.
    """
    sp = tracer.arrays()
    name = np.array(tracer.names, dtype=str)[sp["name"]]
    module = np.array([s.split(".", 1)[0] for s in tracer.names], dtype=str)[sp["name"]]
    traced = sp["op"] >= 0
    n_ops = len(pairs)
    parent_name = np.where(sp["parent"] >= 0, name[np.maximum(sp["parent"], 0)], "")

    def mask(span, everywhere=False):
        return (name == span) & (traced | everywhere)

    def per_op(x):
        return float(x) / n_ops

    def p50_ms(span, col="dur", everywhere=False):
        return 1e3 * _median(sp[col][mask(span, everywhere)])

    # the stencils' only children are their own xnu_k helpers, so the layer's
    # self time is the stencil spans' whole duration
    stencil = mask("specfun.dnu_xnu_k") | mask("specfun.dnu_xnu_kprime")
    chol = mask("gauss_lik.chol_factor")
    in_fit = mask("gauss_lik.total_lq") & (parent_name == "estimate.fit")
    fits = tracer.results["estimate.fit"]
    evals = sum(r.evaluations for r in fits)
    selects = tracer.results["qselect.select_q_kappa"]
    under_select = parent_name == "qselect.select_q_kappa"
    sel_fits = int(np.sum(mask("estimate.fit") & under_select))
    sel_asks = int(np.sum(mask("qselect.kappa") & under_select))

    # share of objective time spent in the kernel layers vs the linear algebra
    is_obj = name == "gauss_lik.total_lq"
    below = []   # whether each span is, or runs inside, an objective evaluation
    for obj, parent in zip(is_obj.tolist(), sp["parent"].tolist()):
        below.append(obj or (parent >= 0 and below[parent]))
    below_obj = np.array(below, dtype=bool) & traced
    obj_total = float(np.sum(sp["dur"][is_obj & traced]))
    kernel_self = float(np.sum(sp["self"][below_obj & np.isin(module, ["matern", "specfun"])]))
    linalg = float(np.sum(sp["dur"][below_obj & np.isin(
        name, ["gauss_lik.chol_factor", "gauss_lik.loglik_columns"])]))

    def ratio(a, b):
        return float(a) / b if b else 0.0

    values = {
        "specfun.order_stencils.calls": (per_op(np.sum(stencil)), "count/op"),
        "specfun.order_stencils.self_ms": (per_op(1e3 * np.sum(sp["dur"][stencil])), "ms/op"),
        "matern.unique_dists": (len(datasets[0].locs._dist_unique[0]), "count"),
        "matern.build_cov.calls": (per_op(np.sum(mask("matern.build_cov"))), "count/op"),
        "matern.build_cov.ms_p50": (p50_ms("matern.build_cov"), "ms"),
        "matern.build_cov_grad.ms_p50": (p50_ms("matern.build_cov_grad"), "ms"),
        "matern.build_cov_hess.self_ms_p50": (p50_ms("matern.build_cov_hess", "self"), "ms"),
        "gauss_lik.chol_factor.calls": (per_op(np.sum(chol)), "count/op"),
        "gauss_lik.chol_factor.ms_p50": (p50_ms("gauss_lik.chol_factor"), "ms"),
        "gauss_lik.chol_factor.gflops_computed": (
            ratio(np.sum(chol) * w.n ** 3 / 3.0 / 1e9, np.sum(sp["dur"][chol])), "GFLOP/s"),
        "gauss_lik.loglik_columns.ms_p50": (p50_ms("gauss_lik.loglik_columns"), "ms"),
        "gauss_lik.total_lq.self_ms_p50": (p50_ms("gauss_lik.total_lq", "self"), "ms"),
        "gauss_lik.total_lq.matern_share": (ratio(kernel_self, obj_total), "ratio"),
        "gauss_lik.total_lq.linalg_share": (ratio(linalg, obj_total), "ratio"),
        "gauss_lik.jitter_rescues": (per_op(np.sum(chol & (sp["outcome"] == JITTERED))), "count/op"),
        "gauss_lik.not_spd": (per_op(np.sum(chol & (sp["outcome"] == RAISED))), "count/op"),
        "estimate.fit.calls": (per_op(np.sum(mask("estimate.fit"))), "count/op"),
        "estimate.evals_per_fit": (ratio(evals, len(fits)), "count"),
        "estimate.restarts_per_fit": (ratio(sum(r.restarts for r in fits), len(fits)), "count"),
        "estimate.useful_eval_ratio": (
            ratio(np.sum(in_fit & (sp["outcome"] == OK)), np.sum(in_fit)), "ratio"),
        "estimate.fit.self_ms_per_eval": (
            ratio(1e3 * np.sum(sp["self"][mask("estimate.fit")]), evals), "ms"),
        "asymptotics.sandwich.self_ms": (p50_ms("asymptotics.sandwich", "self"), "ms"),
        "asymptotics.std_errs.ms": (p50_ms("asymptotics.std_errs"), "ms"),
        "qselect.passes_per_select": (ratio(sum(len(s.trace) for s in selects), len(selects)), "count"),
        "qselect.fits_per_select": (ratio(sel_fits, len(selects)), "count"),
        "qselect.cache_hit_ratio": (1.0 - ratio(sel_fits, sel_asks) if sel_asks else 0.0, "ratio"),
        "qselect.select.self_s": (
            per_op(np.sum(sp["self"][mask("qselect.select_q_kappa")])), "s/op"),
        "simulate.simulate_dataset.ms": (p50_ms("simulate.simulate_dataset", everywhere=True), "ms"),
        "variogram.variogram_by_replicate.ms": (p50_ms("variogram.variogram_by_replicate"), "ms"),
        "cli_io.sweep.self_s": (per_op(np.sum(sp["self"][mask("cli_io.cmd_sweep")])), "s/op"),
        "cli_io.bytes_written": (per_op(sum(t.get("bytes_written", 0) for _, t in pairs)), "B/op"),
        "trace.overhead_frac": (
            _median([t["op_s"][1] / p["op_s"][1] for p, t in pairs]) - 1.0, "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


# === driver =================================================================


def run_benchmark(w, seed, seconds, trace, results_dir=RESULTS):
    """Set up, run the timed loop, check, and measure; returns the record."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    n_ops = ops_per_run(w, seconds)
    setup_samples = [probe_setup(w, seed, n_ops) for _ in range(SETUP_PROBES)]
    results_dir = Path(results_dir) / w.name
    results_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()   # set-up spans are kept with operation id -1
    datasets = prepare(w, seed, n_ops)
    workdir = tempfile.mkdtemp(prefix="sweep-", dir=results_dir)
    clock = HostClock()
    ops, pairs = [], []
    try:
        t_start = time.perf_counter()
        if tracer:
            for i in range(math.ceil(n_ops / 2)):
                ds = datasets[i]
                tracer.uninstall()
                plain = run_op(w, ds, workdir, clock)
                tracer.current_op = i
                tracer.install()
                traced = run_op(w, ds, workdir, clock)
                tracer.current_op = -1
                pairs.append((plain, traced))
                ops += [(ds, plain), (ds, traced)]
        else:
            for i in range(n_ops):
                ds = datasets[i]
                ops.append((ds, run_op(w, ds, workdir, clock)))
        wall_s = time.perf_counter() - t_start
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    answers_by_seed, failures, problems = {}, [], []
    attempted = 0
    for i, (ds, rec) in enumerate(ops):
        outcomes, answers = check_op(w, ds, rec)
        attempted += len(outcomes)
        failures += [{"op": i, "kind": k, "reason": r} for k, r in outcomes if r]
        first = answers_by_seed.setdefault(ds.seed, answers)
        if json.dumps(answers) != json.dumps(first):
            problems.append("operation %d on dataset %d gave different answers than "
                            "an earlier operation on the same inputs" % (i, ds.seed))

    if tracer:
        metrics = per_layer_metrics(w, datasets, tracer, pairs)
    else:
        metrics = end_to_end_metrics(w, [r for _, r in ops], setup_samples)
    for key, m in metrics.items():
        if not math.isfinite(m["value"]):
            problems.append("metric %s is not finite" % key)

    def summary(scaled):
        return {k: {"n": len(v), "min": min(v), "median": _median(v), "max": max(v)}
                for k, v in call_times([r for _, r in ops], scaled).items()}

    stamp = "seed%d-trace%d-%s-%d" % (seed, int(bool(trace)),
                                        time.strftime("%Y%m%dT%H%M%S"), os.getpid())
    record = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": bool(trace),
              "operations": len(ops), "environment": environment(seed),
              "workload_spec": asdict(w), "answers": list(answers_by_seed.values()),
              "failures": failures, "problems": problems,
              "setup_samples_s": setup_samples, "timed_phase_raw_s": wall_s,
              "op_s": [rec["op_s"] for _, rec in ops],
              "reference_s": {"n": len(clock.ref_s), "min": min(clock.ref_s),
                              "median": _median(clock.ref_s), "max": max(clock.ref_s)},
              "call_s": summary(scaled=True), "call_raw_s": summary(scaled=False),
              "correct": not problems, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    if tracer:
        spans_path = results_dir / (stamp + ".spans.npz")
        tracer.save(spans_path)
        record["spans_file"] = spans_path.name   # next to the record
    (results_dir / (stamp + ".json")).write_text(json.dumps(record, indent=1))
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps({k: record[k] for k in ("environment", "answers", "failures", "problems")}))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
