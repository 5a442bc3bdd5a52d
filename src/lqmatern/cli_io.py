"""Command line, configuration, and dataset file formats.

Datasets travel as two CSV files: a locations file with header ``x,y``
and a long-format replicates file with header ``loc_id,rep_id,value``.
Values are written with %.17g so a write/read round trip is bit exact.
Results and metadata are line-oriented ``key = value`` records; the
same syntax (with dotted section prefixes) serves as the config format.

Each config key is one row of ``_KEYS``: the section that reads it, the
flag that overrides it, its parser and the ExperimentConfig field it
sets.  That one table drives the config path: ``build_config`` parses
and builds the sections a subcommand reads, each subcommand registers
the flags of those sections' keys, and ``config_echo`` writes them back.
Every record a subcommand writes (meta.txt, fit.txt, selectq.txt,
sweep_meta.txt) ends with that echo, so a run can be audited from its
output directory, and simulate's and sweep's records rerun as configs.

Subcommands: simulate, fit (which writes the fit's standard errors too),
select-q, variogram, sweep.  Each registers only the flags it reads, so a
flag it would ignore is a usage error.  ``fit.q`` has a section of its
own, read by fit alone.  The model is zero-mean, and no subcommand
centres the data.  Exit codes: 0 success, 1 usage,
2 data error, 3 numerical failure.  A usage error prints argparse's own
usage line and ``prog: error: message``; ``main`` maps argparse's exit
code 2 to 1.

A sweep's rows are (repetition, FitResult, selected), holding the fit
chain's own fits; sweep.csv, summary.csv and selected_hist.csv are all
written from them.
"""

import argparse
import logging
import os
import sys
from dataclasses import astuple, dataclass, replace
from operator import attrgetter

import numpy as np

from .asymptotics import sandwich, std_errs
from .estimate import DEFAULT_TOL, Bounds, FitChain, default_bounds, fit
from .gauss_lik import ReplicateSet
from .matern import LocationSet, MaternParams
from .qselect import QGridSpec, default_kappa_spec, kappa, select_q_kappa, select_q_sqv
from .simulate import ContaminationSpec, SimConfig, simulate_dataset
from .variogram import DEFAULT_N_BINS, variogram_by_replicate

log = logging.getLogger(__name__)

OUT_ENV = "LQMATERN_OUT"

LOCATIONS_FILE = "locations.csv"
REPLICATES_FILE = "replicates.csv"


class DataError(ValueError):
    """Malformed file or configuration; maps to exit code 2."""


# numerical failures of a fit or a sandwich; map to exit code 3 (NotSPDError
# and SingularJError are LinAlgErrors)
_NUMERICAL = (np.linalg.LinAlgError, RuntimeError)


# === dataset files ==========================================================


def _write_csv(path, header, fmt, rows):
    """A header line, then ``fmt % row`` for each row."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(fmt % row + "\n")


def _read_csv(path, header):
    """(line number, [(field, 1-based column)]) of each non-blank data line.

    A first line other than ``header``, or a data line with another number
    of fields, is a DataError.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != header:
        raise DataError("%s line 1: expected header %r" % (path, header))
    nfields = header.count(",") + 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != nfields:
            raise DataError("%s line %d: expected %d comma-separated fields, got %d"
                            % (path, lineno, nfields, len(parts)))
        fields, col = [], 1
        for p in parts:
            fields.append((p.strip(), col))
            col += len(p) + 1
        yield lineno, fields


def _parse_float(path, lineno, token, col):
    try:
        v = float(token)
    except ValueError:
        raise DataError("%s line %d, column %d: %r is not a number"
                        % (path, lineno, col, token)) from None
    if not np.isfinite(v):
        raise DataError("%s line %d, column %d: value %r is not finite"
                        % (path, lineno, col, token))
    return v


def _parse_id(path, lineno, token, col):
    try:
        v = int(token)
    except ValueError:
        raise DataError("%s line %d, column %d: %r is not an integer id"
                        % (path, lineno, col, token)) from None
    if v < 0:
        raise DataError("%s line %d, column %d: negative id" % (path, lineno, col))
    return v


def write_locations(path, locs):
    _write_csv(path, "x,y", "%.17g,%.17g", map(tuple, locs.coords))


def read_locations(path):
    pts = [[_parse_float(path, lineno, *f) for f in fields]
           for lineno, fields in _read_csv(path, "x,y")]
    if not pts:
        raise DataError("%s: no locations" % path)
    return LocationSet(np.array(pts))


def write_replicates(path, reps):
    data = reps.data
    _write_csv(path, "loc_id,rep_id,value", "%d,%d,%.17g",
               ((i, j, data[i, j]) for j in range(reps.m) for i in range(reps.n)))


def read_replicates(path):
    triples = []
    for lineno, fields in _read_csv(path, "loc_id,rep_id,value"):
        i, j = (_parse_id(path, lineno, *f) for f in fields[:2])
        triples.append((i, j, _parse_float(path, lineno, *fields[2]), lineno))
    if not triples:
        raise DataError("%s: no replicate values" % path)
    n = max(t[0] for t in triples) + 1
    m = max(t[1] for t in triples) + 1
    # the cells are checked before the n x m array is sized from the ids
    cells = {}
    for i, j, v, lineno in triples:
        if (i, j) in cells:
            raise DataError("%s line %d: duplicate entry for loc_id=%d rep_id=%d"
                            % (path, lineno, i, j))
        cells[i, j] = v
    if len(cells) < n * m:
        # the first missing cell in row-major order is among the first
        # len(cells) + 1 cells
        i, j = next(divmod(k, m) for k in range(len(cells) + 1)
                    if divmod(k, m) not in cells)
        raise DataError("%s: missing value for loc_id=%d rep_id=%d (n=%d, m=%d)"
                        % (path, i, j, n, m))
    data = np.empty((n, m))
    for (i, j), v in cells.items():
        data[i, j] = v
    return ReplicateSet(data)


def read_dataset(data_dir):
    """(LocationSet, ReplicateSet) of the two dataset files in ``data_dir``.

    The values are kept as written: nothing is centred, and a fit of them
    takes each replicate to have mean zero (the model is zero-mean).
    """
    locs = read_locations(os.path.join(data_dir, LOCATIONS_FILE))
    reps = read_replicates(os.path.join(data_dir, REPLICATES_FILE))
    if reps.n != locs.n:
        raise DataError("dimension mismatch: %d locations but %d rows per replicate"
                        % (locs.n, reps.n))
    return locs, reps


# === key = value records and config =========================================


def parse_config_text(text, origin="<config>"):
    """Flat ``key = value`` lines with # comments; returns an ordered dict.

    A key given twice is a DataError naming it and both lines.
    """
    out, seen = {}, {}
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
        if seen.setdefault(key, lineno) != lineno:
            raise DataError("%s line %d: key %r repeats line %d" % (origin, lineno, key, seen[key]))
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
    """A value as a record writes it: %.17g floats, and a triple or pair comma-separated."""
    if isinstance(v, MaternParams):
        v = astuple(v)
    if isinstance(v, tuple):
        return ",".join(map(_fmt, v))
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


# === experiment configuration ===============================================


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one study run needs: data recipe, grid, fit knobs, sweep size.

    A section that was not built keeps its defaults: None for ``sim``,
    ``q_grid`` and ``bounds``.
    """

    sim: SimConfig = None
    q_grid: QGridSpec = None
    bounds: Bounds = None
    init: object = None
    tol: float = DEFAULT_TOL
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
    return [float(tok) for tok in text.split(",")]


def _named_floats(text, names):
    vals = _floats(text)
    if len(vals) != len(names):
        raise DataError("needs %d comma-separated values (%s)" % (len(names), ",".join(names)))
    return vals


def _theta_from(text):
    return MaternParams(*_named_floats(text, ("sigma2", "beta", "nu")))


def _pair_from(text):
    return tuple(_named_floats(text, ("beta", "nu")))


# config key -> (the section that reads it, the flag that overrides it, its
# parser, the ExperimentConfig field it sets, as a dotted path).  Section
# None is read by every subcommand; "meta" marks the keys that simulate and
# sweep records carry, or once carried, which are accepted and ignored as
# config.  A record echoes its keys in this order (config_echo).
_KEYS = {
    "sim.theta": ("sim", "theta", _theta_from, "sim.theta"),
    "sim.n": ("sim", "n", int, "sim.n"),
    "sim.m": ("sim", "m", int, "sim.m"),
    "sim.layout": ("sim", "layout", str, "sim.layout"),
    "sim.seed": ("sim", "seed", int, "sim.seed"),
    "sim.contam.r": ("sim", "contam-r", float, "sim.contamination.r"),
    "sim.contam.sd": ("sim", "contam-sd", float, "sim.contamination.noise_sd"),
    "grid.q": ("grid", "q-grid", _floats, "q_grid.grid"),
    "grid.eps": ("grid", None, float, "q_grid.eps"),
    "grid.L": ("grid", None, float, "q_grid.L"),
    "grid.K": ("grid", None, int, "q_grid.K"),
    "fit.q": ("q", "q", float, "fit_q"),
    "fit.tol": ("fit", None, float, "tol"),
    "fit.lower": ("fit", None, _pair_from, "bounds.lower"),
    "fit.upper": ("fit", None, _pair_from, "bounds.upper"),
    "fit.init": ("fit", None, _theta_from, "init"),
    "repetitions": ("sweep", "repetitions", int, "repetitions"),
    # the selector sets grid.L's default
    "selector": ("grid", "selector", str, "selector"),
    "output_dir": (None, "out", str, "output_dir"),
    "generator": ("meta", None, None, None),
    "contam.flags": ("meta", None, None, None),
    "sim.contam.kind": ("meta", None, None, None),
}

# the CLI's own defaults for what SimConfig requires
_SIM_DEFAULTS = dict(theta=MaternParams(1.0, 0.1, 0.5), n=100, m=100)


def build_config(mapping, sections=("sim", "grid", "q", "fit", "sweep")):
    """Typed ExperimentConfig from a flat key -> string mapping.

    Only the keys of the named ``sections`` (and output_dir) are parsed and
    validated; the others are accepted unread.  An unknown key is an error
    in any case, and so is a value that does not parse.  An absent key
    takes the default of the object it configures.
    """
    unknown = set(mapping) - set(_KEYS)
    if unknown:
        raise DataError("unknown config key(s): %s" % ", ".join(sorted(unknown)))
    got = {}
    for key, text in mapping.items():
        section, _flag, parse, field = _KEYS[key]
        if section in (None,) + tuple(sections):
            try:
                got[field] = parse(text)
            except ValueError as exc:
                raise DataError("%s = %r: %s" % (key, text, exc)) from None

    def under(owner):
        """The given fields of ``owner``, a dotted path in the config, by their own names."""
        return {f.rpartition(".")[2]: v for f, v in got.items() if f.rpartition(".")[0] == owner}

    built = under("")
    out = built.pop("output_dir", None) or os.environ.get(OUT_ENV)
    if out:
        built["output_dir"] = out
    if "sim" in sections:
        built["sim"] = SimConfig(contamination=ContaminationSpec(**under("sim.contamination")),
                                 **dict(_SIM_DEFAULTS, **under("sim")))
    if "grid" in sections:
        sqv = built.get("selector") == "sqv"
        built["q_grid"] = replace(QGridSpec() if sqv else default_kappa_spec(), **under("q_grid"))
    if "fit" in sections:
        built["bounds"] = replace(default_bounds(), **under("bounds"))
    return ExperimentConfig(**built)


def config_echo(cfg, sections):
    """(key, value) of each config key of ``sections``, in _KEYS order: what cfg was built from.

    ``build_config`` of the pairs, with the same sections, gives cfg back.  A
    field that is None (a data-driven fit.init) is left out, and so is
    output_dir, which says where a record lies, not how its run went.
    """
    return [(key, _fmt(value)) for key, (section, _flag, _parse, field) in _KEYS.items()
            if section in sections and (value := attrgetter(field)(cfg)) is not None]


# === sweep rows =============================================================


def write_sweep_rows(path, rows):
    """sweep.csv: one line per sweep row, (repetition, FitResult, selected).

    A row is a grid q's fit (selected false) or the fit at a repetition's
    selected q; q, theta-hat, kappa-hat, the objective and ``converged``
    are the fit's own.
    """
    _write_csv(path, "repetition,q,sigma2,beta,nu,kappa,objective,converged,selected",
               "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s",
               ((rep, fr.q, *fr.theta_hat.as_array(), kappa(fr.theta_hat), fr.objective,
                 _fmt(fr.converged), _fmt(selected)) for rep, fr, selected in rows))


def summarize_sweep(rows, grid, kappa0):
    """Per-q (q, rows used, bias, variance, MSE) of kappa-hat over the converged grid fits.

    ``rows`` are sweep rows.  A fit whose kappa-hat is not finite is left
    out, as a non-converged one is.
    """
    out = []
    for q in grid:
        vals = np.array([kappa(fr.theta_hat) for _rep, fr, selected in rows
                         if not selected and fr.converged and fr.q == q])
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            out.append((q, 0, np.nan, np.nan, np.nan))
            continue
        err = vals - kappa0
        out.append((q, vals.size, float(err.mean()), float(vals.var()),
                    float(np.mean(err ** 2))))
    return out


# === argument parsing =======================================================


# every flag a subcommand registers; each overrides the config key that
# names it in _KEYS, or is read by its subcommand directly
_FLAGS = {
    "config": dict(help="key = value config file"),
    "out": dict(help="output directory (default $%s or .)" % OUT_ENV),
    "seed": dict(type=int, help="base RNG seed"),
    "n": dict(type=int, help="locations per replicate"),
    "m": dict(type=int, help="replicates"),
    "layout": dict(choices=("grid", "uniform")),
    "theta": dict(help="true sigma2,beta,nu"),
    "contam-r": dict(type=float, help="contamination probability"),
    "contam-sd": dict(type=float, help="contamination noise sd"),
    "q": dict(type=float, help="distortion parameter for fits"),
    "q-grid": dict(help="comma-separated descending q grid"),
    "repetitions": dict(type=int),
    "selector": dict(choices=("kappa", "sqv", "none")),
    "data-dir": dict(default=".", help="directory with %s and %s"
                     % (LOCATIONS_FILE, REPLICATES_FILE)),
    "bins": dict(type=int, default=DEFAULT_N_BINS),
    "max-dist": dict(type=float),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="lqmatern",
                                     description="Matern random-field estimation with the "
                                                 "maximum Lq-likelihood estimator")
    subs = parser.add_subparsers(dest="command", required=True)
    # each subcommand builds the config sections it reads, and registers
    # --config, the flags of those sections' keys and its own, and no others
    for name, help_text, func, sections, extra in (
            ("simulate", "generate a dataset on disk", cmd_simulate, ("sim",), ()),
            ("fit", "fit one q to a dataset, with its standard errors; the model is "
                    "zero-mean, and the data are fitted as they are, not centred",
             cmd_fit, ("q", "fit"), ("data-dir",)),
            ("select-q", "run a q selector on a dataset", cmd_select_q, ("grid", "fit"),
             ("data-dir",)),
            ("variogram", "per-replicate empirical variograms", cmd_variogram, (),
             ("data-dir", "bins", "max-dist")),
            ("sweep", "repetitions x (simulate, fit grid, select)", cmd_sweep,
             ("sim", "grid", "fit", "sweep"), ())):
        # no abbreviations: another subcommand's flag (variogram --m) must
        # not pass as a prefix of one of this one's (--max-dist)
        sp = subs.add_parser(name, help=help_text, description=help_text, allow_abbrev=False)
        own = {"config", *extra} | {row[1] for row in _KEYS.values()
                                    if row[0] in (None,) + sections}
        for flag in _FLAGS:
            if flag in own:
                sp.add_argument("--" + flag, **_FLAGS[flag])
        sp.set_defaults(func=func, sections=sections)
    return parser


def config_from_args(args):
    """The config of the file and flags, with only the subcommand's sections built.

    A flag overrides the config key that names it.
    """
    mapping = read_record(args.config) if args.config else {}
    for key, (_section, flag, _parse, _field) in _KEYS.items():
        v = getattr(args, flag.replace("-", "_"), None) if flag else None
        if v is not None:
            mapping[key] = str(v)
    return build_config(mapping, args.sections)


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
    write_record(os.path.join(out, "meta.txt"),
                 config_echo(cfg, args.sections)
                 + [("generator", "philox"),
                    ("contam.flags", ",".join("1" if f else "0" for f in flags))])
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


def _se_record(q, parts, errs):
    names = ("sigma2", "beta", "nu")
    pairs = [("q", _fmt(q)), ("m", parts.m)]
    pairs += [("se." + a, _fmt(float(v))) for a, v in zip(names, errs.se)]
    pairs += [("convention", errs.convention), ("cond", _fmt(errs.cond)),
              ("log_scale", _fmt(parts.log_scale))]
    for mat, M in (("K", parts.K), ("J", parts.J)):
        pairs += [("%s.%s.%s" % (mat, names[a], names[b]), _fmt(float(M[a, b])))
                  for a in range(3) for b in range(3)]
    return pairs


def cmd_fit(args):
    """fit.txt, then se.txt: the sandwich at the fit's own theta-hat and q.

    A Newton-confirmed fit's sandwich reads the fit's derivative pass.
    Where the sandwich cannot be formed (m < 2, or std_errs raises),
    fit.txt stays, no se.txt is written, and the error is the exit code.
    """
    cfg = config_from_args(args)
    out = _outdir(cfg)
    locs, reps = read_dataset(args.data_dir)
    res = fit(reps, locs, cfg.fit_q, cfg.bounds, cfg.init, cfg.tol)
    write_record(os.path.join(out, "fit.txt"),
                 _fit_record(res, cfg.tol) + config_echo(cfg, args.sections))
    th = res.theta_hat
    print("q=%g theta_hat=(%.6g, %.6g, %.6g) kappa=%.6g converged=%s"
          % (res.q, th.sigma2, th.beta, th.nu, kappa(th), res.converged))
    parts = sandwich(reps, locs, th, res.q)
    errs = std_errs(parts)
    write_record(os.path.join(out, "se.txt"), _se_record(res.q, parts, errs))
    print("se=(%.6g, %.6g, %.6g) convention=%s cond=%.3g"
          % (errs.se[0], errs.se[1], errs.se[2], errs.convention, errs.cond))


def _select(cfg, reps, locs, chain):
    """The configured selector (kappa or sqv) run on one dataset's fit chain."""
    if cfg.selector == "kappa":
        return select_q_kappa(chain, cfg.q_grid)
    return select_q_sqv(chain, lambda th, q: std_errs(sandwich(reps, locs, th, q)),
                        cfg.q_grid, m=reps.m)


def cmd_select_q(args):
    cfg = config_from_args(args)
    out = _outdir(cfg)
    locs, reps = read_dataset(args.data_dir)
    if cfg.selector == "none":
        raise DataError("select-q needs selector = kappa or sqv")
    sel = _select(cfg, reps, locs, FitChain(reps, locs, cfg.bounds, cfg.init, cfg.tol))
    # selector leads the record, so the echo's own is left out
    write_record(os.path.join(out, "selectq.txt"),
                 [("selector", cfg.selector), ("q_star", _fmt(sel.q_star)),
                  ("reason", sel.reason), ("passes", len(sel.trace))]
                 + [kv for kv in config_echo(cfg, args.sections) if kv[0] != "selector"])
    _write_csv(os.path.join(out, "trace.csv"), "pass,idx,q,series,k_star",
               "%d,%d,%.17g,%s,%s",
               ((rec.pass_index, i, qv,
                 "" if i == 0 or i > len(rec.series) else "%.17g" % rec.series[i - 1],
                 "" if rec.k_star is None else "%d" % rec.k_star)
                for rec in sel.trace for i, qv in enumerate(rec.grid)))
    print("selected q*=%g (%s) after %d pass(es)"
          % (sel.q_star, sel.reason, len(sel.trace)))


def cmd_variogram(args):
    cfg = config_from_args(args)
    out = _outdir(cfg)
    locs, reps = read_dataset(args.data_dir)
    curves = variogram_by_replicate(reps, locs, args.bins, args.max_dist)
    path = os.path.join(out, "variogram.csv")
    _write_csv(path, "replicate_id,bin_center,gamma,count", "%d,%.17g,%.17g,%d",
               ((rid, *row) for rid, cv in enumerate(curves)
                for row in zip(cv.bin_centers, cv.gamma, cv.counts)))
    print("wrote %s (%d replicates x %d bins)"
          % (path, len(curves), len(curves[0].bin_centers)))


def _sweep_repetition(cfg, rep_id, rows):
    """Append one simulated dataset's sweep rows to rows.

    Every grid q gets a row: a grid fit that fails is the chain's
    non-converged placeholder (``FitChain.profile``), and the selector
    drops its q.  The fit at the selected q is one more row; only where
    that fit fails is there none.

    The dataset, its fits' derivative passes and the pass kept on its
    replicate set die on return, so the next repetition simulates with
    none of them alive.
    """
    locs, reps, _flags = simulate_dataset(replace(cfg.sim, seed=cfg.sim.seed + rep_id))
    # one chain serves the profile and the selector: grid q values are
    # fitted once, and every fit after the first starts from the
    # re-weighted Newton steps of the fitted q nearest to it
    chain = FitChain(reps, locs, cfg.bounds, cfg.init, cfg.tol)
    # a row keeps its fit without the fit's last derivative pass, O(m)
    # numbers, so the rows stay small at any m and number of repetitions
    rows.extend((rep_id, replace(fr, _pass=None), False)
                for fr in chain.profile(cfg.q_grid.grid))
    if cfg.selector == "none":
        return
    sel = _select(cfg, reps, locs, chain)
    try:
        # q* = 1 can be a fallback whose own fit the profile dropped
        rows.append((rep_id, replace(chain.fit(sel.q_star), _pass=None), True))
    except _NUMERICAL as exc:
        log.warning("the fit at q* = %.6g failed on repetition %d: %s",
                    sel.q_star, rep_id, exc)


def cmd_sweep(args):
    """sweep.csv, summary.csv, selected_hist.csv and sweep_meta.txt of the configured repetitions.

    The histogram counts the q of the selected rows, rounded to 6 digits.
    """
    cfg = config_from_args(args)
    out = _outdir(cfg)
    kappa0 = kappa(cfg.sim.theta)
    rows = []
    for rep_id in range(cfg.repetitions):
        _sweep_repetition(cfg, rep_id, rows)
    write_sweep_rows(os.path.join(out, "sweep.csv"), rows)
    _write_csv(os.path.join(out, "summary.csv"), "q,n_used,bias,variance,mse",
               "%.17g,%d,%.17g,%.17g,%.17g", summarize_sweep(rows, cfg.q_grid.grid, kappa0))
    selected = [fr.q for _rep, fr, sel in rows if sel]
    _write_csv(os.path.join(out, "selected_hist.csv"), "q_star,count", "%.6g,%d",
               zip(*np.unique(np.round(selected, 6), return_counts=True)))
    write_record(os.path.join(out, "sweep_meta.txt"),
                 config_echo(cfg, args.sections) + [("generator", "philox")])
    print("sweep done: %d repetitions, %d rows, kappa0=%.6g -> %s"
          % (cfg.repetitions, len(rows), kappa0, out))


# === entry point ============================================================


def main(argv=None):
    logging.basicConfig(level=logging.WARNING)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is the
        # CLI's 1 (its 2 is a data error)
        return 1 if exc.code else 0
    try:
        args.func(args)
    except OSError as exc:
        print("file error: %s" % exc, file=sys.stderr)
        return 2
    except _NUMERICAL as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:   # a DataError among them
        print("data error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
