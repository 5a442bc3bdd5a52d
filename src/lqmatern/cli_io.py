"""Command line, configuration, and dataset file formats.

Datasets travel as two CSV files: a locations file with header ``x,y``
and a long-format replicates file with header ``loc_id,rep_id,value``.
Values are written with %.17g so a write/read round trip is bit exact.
Results and metadata are line-oriented ``key = value`` records; the
same syntax (with dotted section prefixes) serves as the config format,
so a simulation's metadata record can be fed back in as a config.

Subcommands: simulate, fit, select-q, se, variogram, sweep.  Exit
codes: 0 success, 1 usage, 2 data error, 3 numerical failure.
"""

import argparse
import logging
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import SingularJError, sandwich, std_errs
from .estimate import Bounds, FitChain, default_bounds, fit
from .gauss_lik import NotSPDError, ReplicateSet
from .matern import LocationSet, MaternParams
from .qselect import (QGridSpec, kappa, make_se_fn, select_q_kappa,
                      select_q_sqv)
from .simulate import ContaminationSpec, SimConfig, simulate_dataset
from .variogram import DEFAULT_N_BINS, center_replicates, variogram_by_replicate

log = logging.getLogger(__name__)

OUT_ENV = "LQMATERN_OUT"

LOCATIONS_FILE = "locations.csv"
REPLICATES_FILE = "replicates.csv"


class DataError(ValueError):
    """Malformed file or configuration; maps to exit code 2."""


# === dataset files ==========================================================


def write_locations(path, locs):
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for x, y in locs.coords:
            fh.write("%.17g,%.17g\n" % (x, y))


def _parse_float(token, path, lineno, col):
    try:
        v = float(token)
    except ValueError:
        raise DataError("%s line %d, column %d: %r is not a number"
                        % (path, lineno, col, token)) from None
    if not np.isfinite(v):
        raise DataError("%s line %d, column %d: value %r is not finite"
                        % (path, lineno, col, token))
    return v


def _split_line(line, path, lineno, nfields):
    parts = line.split(",")
    if len(parts) != nfields:
        raise DataError("%s line %d: expected %d comma-separated fields, got %d"
                        % (path, lineno, nfields, len(parts)))
    # 1-based character column where each field starts
    cols, pos = [], 1
    for p in parts:
        cols.append(pos)
        pos += len(p) + 1
    return parts, cols


def read_locations(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "x,y":
        raise DataError("%s line 1: expected header 'x,y'" % path)
    pts = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts, cols = _split_line(line, path, lineno, 2)
        pts.append([_parse_float(parts[k].strip(), path, lineno, cols[k])
                    for k in range(2)])
    if not pts:
        raise DataError("%s: no locations" % path)
    return LocationSet(np.array(pts))


def write_replicates(path, reps):
    data = reps.data
    with open(path, "w") as fh:
        fh.write("loc_id,rep_id,value\n")
        for j in range(reps.m):
            for i in range(reps.n):
                fh.write("%d,%d,%.17g\n" % (i, j, data[i, j]))


def read_replicates(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "loc_id,rep_id,value":
        raise DataError("%s line 1: expected header 'loc_id,rep_id,value'" % path)
    triples = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts, cols = _split_line(line, path, lineno, 3)
        ids = []
        for k in range(2):
            tok = parts[k].strip()
            try:
                ids.append(int(tok))
            except ValueError:
                raise DataError("%s line %d, column %d: %r is not an integer id"
                                % (path, lineno, cols[k], tok)) from None
            if ids[k] < 0:
                raise DataError("%s line %d, column %d: negative id"
                                % (path, lineno, cols[k]))
        v = _parse_float(parts[2].strip(), path, lineno, cols[2])
        triples.append((ids[0], ids[1], v, lineno))
    if not triples:
        raise DataError("%s: no replicate values" % path)
    n = max(t[0] for t in triples) + 1
    m = max(t[1] for t in triples) + 1
    data = np.empty((n, m))
    seen = np.zeros((n, m), dtype=bool)
    for i, j, v, lineno in triples:
        if seen[i, j]:
            raise DataError("%s line %d: duplicate entry for loc_id=%d rep_id=%d"
                            % (path, lineno, i, j))
        seen[i, j] = True
        data[i, j] = v
    if not seen.all():
        i, j = np.argwhere(~seen)[0]
        raise DataError("%s: missing value for loc_id=%d rep_id=%d (n=%d, m=%d)"
                        % (path, i, j, n, m))
    return ReplicateSet(data)


def read_dataset(data_dir):
    locs = read_locations(os.path.join(data_dir, LOCATIONS_FILE))
    reps = read_replicates(os.path.join(data_dir, REPLICATES_FILE))
    if reps.n != locs.n:
        raise DataError("dimension mismatch: %d locations but %d rows per replicate"
                        % (locs.n, reps.n))
    return locs, reps


# === key = value records and config =========================================


def parse_config_text(text, origin="<config>"):
    """Flat ``key = value`` lines with # comments; returns an ordered dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise DataError("%s line %d, column %d: expected key = value"
                            % (origin, lineno, len(line.rstrip()) + 1))
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise DataError("%s line %d, column 1: empty key" % (origin, lineno))
        out[key] = value.strip()
    return out


def read_record(path):
    with open(path) as fh:
        return parse_config_text(fh.read(), origin=path)


def write_record(path, pairs):
    with open(path, "w") as fh:
        for key, value in pairs:
            fh.write("%s = %s\n" % (key, value))


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


# === experiment configuration ===============================================

_KNOWN_KEYS = frozenset([
    "sim.theta", "sim.n", "sim.m", "sim.layout", "sim.seed",
    "sim.contam.r", "sim.contam.sd", "sim.contam.kind",
    "grid.q", "grid.eps", "grid.L", "grid.K",
    "fit.q", "fit.tol", "fit.lower", "fit.upper", "fit.init",
    "repetitions", "selector", "output_dir",
    # metadata keys a simulate record carries; accepted and ignored as config
    "generator", "contam.flags",
])


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one study run needs: data recipe, grid, fit knobs, driver."""

    sim: SimConfig
    q_grid: QGridSpec
    bounds: Bounds
    init: object = None
    tol: float = 1e-6
    fit_q: float = 1.0
    repetitions: int = 1
    selector: str = "kappa"
    output_dir: str = "."

    def __post_init__(self):
        if self.repetitions < 1:
            raise DataError("repetitions must be at least 1")
        if self.selector not in ("kappa", "sqv", "none"):
            raise DataError("selector must be kappa, sqv, or none")


def _floats(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _theta_from(text):
    vals = _floats(text)
    if len(vals) != 3:
        raise DataError("theta needs 3 comma-separated values (sigma2,beta,nu)")
    return MaternParams(*vals)


def build_config(mapping):
    """Typed ExperimentConfig from a flat key -> string mapping."""
    unknown = set(mapping) - _KNOWN_KEYS
    if unknown:
        raise DataError("unknown config key(s): %s" % ", ".join(sorted(unknown)))

    def get(key, default=None):
        return mapping.get(key, default)

    theta = _theta_from(get("sim.theta", "1,0.1,0.5"))
    contam = ContaminationSpec(r=float(get("sim.contam.r", "0")),
                               noise_sd=float(get("sim.contam.sd", "1")),
                               noise_kind=get("sim.contam.kind", "gaussian"))
    sim = SimConfig(theta=theta,
                    n=int(get("sim.n", "100")),
                    m=int(get("sim.m", "100")),
                    layout=get("sim.layout", "grid"),
                    seed=int(get("sim.seed", "0")),
                    contamination=contam)
    selector = get("selector", "kappa")
    l_default = "0.05" if selector == "sqv" else "4"
    grid_q = _floats(get("grid.q", "")) or None
    grid_kw = dict(eps=float(get("grid.eps", "0.005")),
                   L=float(get("grid.L", l_default)),
                   K=int(get("grid.K", "7")))
    q_grid = QGridSpec(**grid_kw) if grid_q is None else \
        QGridSpec(grid=tuple(grid_q), **grid_kw)
    lo = get("fit.lower")
    hi = get("fit.upper")
    bounds = default_bounds()
    if lo is not None or hi is not None:
        base = default_bounds()
        bounds = Bounds(_theta_from(lo) if lo is not None else base.lower,
                        _theta_from(hi) if hi is not None else base.upper)
    init = get("fit.init")
    out = get("output_dir") or os.environ.get(OUT_ENV) or "."
    return ExperimentConfig(sim=sim, q_grid=q_grid, bounds=bounds,
                            init=None if init is None else _theta_from(init),
                            tol=float(get("fit.tol", "1e-6")),
                            fit_q=float(get("fit.q", "1")),
                            repetitions=int(get("repetitions", "1")),
                            selector=selector,
                            output_dir=out)


def sim_mapping(sim):
    """The sim.* keys that reproduce a SimConfig; inverse of build_config."""
    return [("sim.theta", "%s,%s,%s" % tuple(_fmt(v) for v in sim.theta.as_array())),
            ("sim.n", sim.n), ("sim.m", sim.m),
            ("sim.layout", sim.layout), ("sim.seed", sim.seed),
            ("sim.contam.r", _fmt(float(sim.contamination.r))),
            ("sim.contam.sd", _fmt(float(sim.contamination.noise_sd))),
            ("sim.contam.kind", sim.contamination.noise_kind)]


# === sweep rows =============================================================


@dataclass(frozen=True)
class SweepRow:
    """One (repetition, q) estimate, or the selected-q row of a repetition."""

    repetition: int
    q: float
    sigma2: float
    beta: float
    nu: float
    kappa: float
    objective: float
    converged: bool
    selected: bool


def _row_from_fit(rep_id, fr, selected=False):
    th = fr.theta_hat
    return SweepRow(repetition=rep_id, q=fr.q,
                    sigma2=th.sigma2, beta=th.beta, nu=th.nu,
                    kappa=kappa(th), objective=fr.objective,
                    converged=fr.converged, selected=selected)


def write_sweep_rows(path, rows):
    with open(path, "w") as fh:
        fh.write("repetition,q,sigma2,beta,nu,kappa,objective,converged,selected\n")
        for r in rows:
            fh.write("%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s\n"
                     % (r.repetition, r.q, r.sigma2, r.beta, r.nu, r.kappa,
                        r.objective, _fmt(r.converged), _fmt(r.selected)))


def summarize_sweep(rows, grid, kappa0):
    """Per-q (bias, variance, MSE) of kappa-hat over converged grid rows."""
    out = []
    for q in grid:
        vals = np.array([r.kappa for r in rows
                         if not r.selected and r.converged and r.q == q])
        if vals.size == 0:
            out.append((q, 0, np.nan, np.nan, np.nan))
            continue
        err = vals - kappa0
        out.append((q, vals.size, float(err.mean()), float(vals.var()),
                    float(np.mean(err ** 2))))
    return out


# === argument parsing =======================================================


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse's default is 2, which we reserve
    # for data errors)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(1)


def _add_common(sub):
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--out", help="output directory (default $%s or .)" % OUT_ENV)
    sub.add_argument("--seed", type=int, help="base RNG seed")
    sub.add_argument("--n", type=int, help="locations per replicate")
    sub.add_argument("--m", type=int, help="replicates")
    sub.add_argument("--layout", choices=("grid", "uniform"))
    sub.add_argument("--theta", help="true sigma2,beta,nu")
    sub.add_argument("--contam-r", type=float, help="contamination probability")
    sub.add_argument("--contam-sd", type=float, help="contamination noise sd")
    sub.add_argument("--q", type=float, help="distortion parameter for fits")
    sub.add_argument("--q-grid", help="comma-separated descending q grid")
    sub.add_argument("--repetitions", type=int)
    sub.add_argument("--selector", choices=("kappa", "sqv", "none"))


def build_parser():
    parser = _Parser(prog="lqmatern",
                     description="Matern random-field estimation with the "
                                 "maximum Lq-likelihood estimator")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("simulate", help="generate a dataset on disk")
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = subs.add_parser("fit", help="fit one q to a dataset")
    _add_common(sp)
    sp.add_argument("--data-dir", default=".", help="directory with %s and %s"
                    % (LOCATIONS_FILE, REPLICATES_FILE))
    sp.set_defaults(func=cmd_fit)

    sp = subs.add_parser("select-q", help="run a q selector on a dataset")
    _add_common(sp)
    sp.add_argument("--data-dir", default=".")
    sp.set_defaults(func=cmd_select_q)

    sp = subs.add_parser("se", help="standard errors for a stored fit")
    _add_common(sp)
    sp.add_argument("--data-dir", default=".")
    sp.add_argument("--fit", help="fit record to read (default OUT/fit.txt)")
    sp.set_defaults(func=cmd_se)

    sp = subs.add_parser("variogram", help="per-replicate empirical variograms")
    _add_common(sp)
    sp.add_argument("--data-dir", default=".")
    sp.add_argument("--bins", type=int, default=DEFAULT_N_BINS)
    sp.add_argument("--max-dist", type=float)
    sp.add_argument("--center", action="store_true",
                    help="subtract each replicate's mean first")
    sp.set_defaults(func=cmd_variogram)

    sp = subs.add_parser("sweep", help="repetitions x (simulate, fit grid, select)")
    _add_common(sp)
    sp.set_defaults(func=cmd_sweep)

    return parser


_FLAG_KEYS = [("seed", "sim.seed"), ("n", "sim.n"), ("m", "sim.m"),
              ("layout", "sim.layout"), ("theta", "sim.theta"),
              ("contam_r", "sim.contam.r"), ("contam_sd", "sim.contam.sd"),
              ("q", "fit.q"), ("q_grid", "grid.q"),
              ("repetitions", "repetitions"), ("selector", "selector"),
              ("out", "output_dir")]


def config_from_args(args):
    mapping = {}
    if args.config:
        mapping.update(read_record(args.config))
    for attr, key in _FLAG_KEYS:
        v = getattr(args, attr, None)
        if v is not None:
            mapping[key] = str(v)
    # metadata-only keys are accepted on input but never configure anything
    mapping.pop("generator", None)
    mapping.pop("contam.flags", None)
    return build_config(mapping)


def _outdir(cfg):
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


# === subcommands ============================================================


def cmd_simulate(args):
    cfg = config_from_args(args)
    out = _outdir(cfg)
    locs, reps, flags = simulate_dataset(cfg.sim)
    write_locations(os.path.join(out, LOCATIONS_FILE), locs)
    write_replicates(os.path.join(out, REPLICATES_FILE), reps)
    meta = sim_mapping(cfg.sim)
    meta.append(("generator", "philox"))
    meta.append(("contam.flags", ",".join("1" if f else "0" for f in flags)))
    write_record(os.path.join(out, "meta.txt"), meta)
    print("wrote %s, %s, meta.txt to %s (n=%d, m=%d, %d contaminated)"
          % (LOCATIONS_FILE, REPLICATES_FILE, out, reps.n, reps.m,
             int(np.sum(flags))))


def _fit_record(res, tol):
    th = res.theta_hat
    return [("q", _fmt(res.q)),
            ("sigma2", _fmt(th.sigma2)), ("beta", _fmt(th.beta)),
            ("nu", _fmt(th.nu)), ("kappa", _fmt(kappa(th))),
            ("objective", _fmt(res.objective)),
            ("iterations", res.iterations), ("evaluations", res.evaluations),
            ("newton_steps", res.newton_steps),
            ("converged", _fmt(res.converged)), ("restarts", res.restarts),
            ("tol", _fmt(tol)),
            ("init.sigma2", _fmt(res.init.sigma2)),
            ("init.beta", _fmt(res.init.beta)),
            ("init.nu", _fmt(res.init.nu))]


def cmd_fit(args):
    cfg = config_from_args(args)
    out = _outdir(cfg)
    locs, reps = read_dataset(args.data_dir)
    res = fit(reps, locs, cfg.fit_q, cfg.bounds, cfg.init, cfg.tol)
    write_record(os.path.join(out, "fit.txt"), _fit_record(res, cfg.tol))
    th = res.theta_hat
    print("q=%g theta_hat=(%.6g, %.6g, %.6g) kappa=%.6g converged=%s"
          % (res.q, th.sigma2, th.beta, th.nu, kappa(th), res.converged))


def _select(cfg, reps, locs, chain):
    """The configured selector (kappa or sqv) run on one dataset's fit chain."""
    if cfg.selector == "kappa":
        return select_q_kappa(chain, cfg.q_grid)
    return select_q_sqv(chain, make_se_fn(reps, locs), cfg.q_grid, m=reps.m)


def cmd_select_q(args):
    cfg = config_from_args(args)
    out = _outdir(cfg)
    locs, reps = read_dataset(args.data_dir)
    if cfg.selector == "none":
        raise DataError("select-q needs selector = kappa or sqv")
    sel = _select(cfg, reps, locs, FitChain(reps, locs, cfg.bounds, cfg.init, cfg.tol))
    write_record(os.path.join(out, "selectq.txt"),
                 [("selector", cfg.selector), ("q_star", _fmt(sel.q_star)),
                  ("reason", sel.reason), ("passes", len(sel.trace))])
    with open(os.path.join(out, "trace.csv"), "w") as fh:
        fh.write("pass,idx,q,series,k_star\n")
        for rec in sel.trace:
            ks = "" if rec.k_star is None else "%d" % rec.k_star
            for i, qv in enumerate(rec.grid):
                sv = "" if i == 0 or i > len(rec.series) \
                    else "%.17g" % rec.series[i - 1]
                fh.write("%d,%d,%.17g,%s,%s\n" % (rec.pass_index, i, qv, sv, ks))
    print("selected q*=%g (%s) after %d pass(es)"
          % (sel.q_star, sel.reason, len(sel.trace)))


def cmd_se(args):
    cfg = config_from_args(args)
    out = _outdir(cfg)
    locs, reps = read_dataset(args.data_dir)
    fit_path = args.fit or os.path.join(out, "fit.txt")
    rec = read_record(fit_path)
    try:
        theta = MaternParams(float(rec["sigma2"]), float(rec["beta"]),
                             float(rec["nu"]))
        q = float(rec["q"]) if args.q is None else args.q
    except KeyError as exc:
        raise DataError("%s: missing key %s" % (fit_path, exc)) from None
    parts = sandwich(reps, locs, theta, q)
    errs = std_errs(parts)
    pairs = [("q", _fmt(q)), ("m", parts.m),
             ("se.sigma2", _fmt(float(errs.se[0]))),
             ("se.beta", _fmt(float(errs.se[1]))),
             ("se.nu", _fmt(float(errs.se[2]))),
             ("se_sandwich.sigma2", _fmt(float(errs.se_sandwich[0]))),
             ("se_sandwich.beta", _fmt(float(errs.se_sandwich[1]))),
             ("se_sandwich.nu", _fmt(float(errs.se_sandwich[2]))),
             ("convention", errs.convention), ("cond", _fmt(errs.cond)),
             ("log_scale", _fmt(parts.log_scale))]
    names = ("sigma2", "beta", "nu")
    for a in range(3):
        for b in range(3):
            pairs.append(("K.%s.%s" % (names[a], names[b]),
                          _fmt(float(parts.K[a, b]))))
    for a in range(3):
        for b in range(3):
            pairs.append(("J.%s.%s" % (names[a], names[b]),
                          _fmt(float(parts.J[a, b]))))
    write_record(os.path.join(out, "se.txt"), pairs)
    print("se=(%.6g, %.6g, %.6g) convention=%s cond=%.3g"
          % (errs.se[0], errs.se[1], errs.se[2], errs.convention, errs.cond))


def cmd_variogram(args):
    cfg = config_from_args(args)
    out = _outdir(cfg)
    locs, reps = read_dataset(args.data_dir)
    if args.center:
        reps = center_replicates(reps)
    curves = variogram_by_replicate(reps, locs, args.bins, args.max_dist)
    path = os.path.join(out, "variogram.csv")
    with open(path, "w") as fh:
        fh.write("replicate_id,bin_center,gamma,count\n")
        for rid, cv in enumerate(curves):
            for bc, g, c in zip(cv.bin_centers, cv.gamma, cv.counts):
                fh.write("%d,%.17g,%.17g,%d\n" % (rid, bc, g, c))
    print("wrote %s (%d replicates x %d bins)"
          % (path, len(curves), len(curves[0].bin_centers)))


def cmd_sweep(args):
    cfg = config_from_args(args)
    out = _outdir(cfg)
    kappa0 = kappa(cfg.sim.theta)
    grid = cfg.q_grid.grid
    rows = []
    selected = []
    for rep_id in range(cfg.repetitions):
        sim_i = replace(cfg.sim, seed=cfg.sim.seed + rep_id)
        locs, reps, _flags = simulate_dataset(sim_i)
        # one chain serves the profile and the selector: grid q values are
        # fitted once, and every fit after the first starts warm
        chain = FitChain(reps, locs, cfg.bounds, cfg.init, cfg.tol)
        try:
            prof = chain.profile(grid)
        except (NotSPDError, np.linalg.LinAlgError, RuntimeError,
                FloatingPointError) as exc:
            log.warning("repetition %d failed outright: %s", rep_id, exc)
            for q in grid:
                rows.append(SweepRow(rep_id, q, np.nan, np.nan, np.nan, np.nan,
                                     np.nan, False, False))
            continue
        rows.extend(_row_from_fit(rep_id, fr) for fr in prof.fits)
        if cfg.selector == "none":
            continue
        try:
            sel = _select(cfg, reps, locs, chain)
        except (NotSPDError, SingularJError, np.linalg.LinAlgError,
                RuntimeError, FloatingPointError) as exc:
            log.warning("selector failed on repetition %d: %s", rep_id, exc)
            continue
        selected.append(sel.q_star)
        rows.append(_row_from_fit(rep_id, chain.fit(sel.q_star), selected=True))
    write_sweep_rows(os.path.join(out, "sweep.csv"), rows)
    with open(os.path.join(out, "summary.csv"), "w") as fh:
        fh.write("q,n_used,bias,variance,mse\n")
        for q, n_used, bias, var, mse in summarize_sweep(rows, grid, kappa0):
            fh.write("%.17g,%d,%.17g,%.17g,%.17g\n" % (q, n_used, bias, var, mse))
    with open(os.path.join(out, "selected_hist.csv"), "w") as fh:
        fh.write("q_star,count\n")
        uniq, counts = np.unique(np.round(selected, 6), return_counts=True)
        for qv, c in zip(uniq, counts):
            fh.write("%.6g,%d\n" % (qv, c))
    meta = sim_mapping(cfg.sim)
    meta += [("grid.q", ",".join(_fmt(v) for v in grid)),
             ("grid.eps", _fmt(cfg.q_grid.eps)), ("grid.L", _fmt(cfg.q_grid.L)),
             ("grid.K", cfg.q_grid.K), ("fit.tol", _fmt(cfg.tol)),
             ("repetitions", cfg.repetitions), ("selector", cfg.selector),
             ("generator", "philox")]
    write_record(os.path.join(out, "sweep_meta.txt"), meta)
    print("sweep done: %d repetitions, %d rows, kappa0=%.6g -> %s"
          % (cfg.repetitions, len(rows), kappa0, out))


# === entry point ============================================================


def main(argv=None):
    logging.basicConfig(level=logging.WARNING)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except DataError as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("file error: %s" % exc, file=sys.stderr)
        return 2
    except (NotSPDError, SingularJError, np.linalg.LinAlgError,
            FloatingPointError, RuntimeError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
