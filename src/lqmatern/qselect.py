"""Data-driven selection of the distortion parameter q.

Two coarse-to-fine grid selectors walk a descending q grid that starts at 1
(``_walk``).  The first watches the standardized quadratic variation (SQV)
of the estimate vector (``sqv``); the second watches the relative variation
of the identifiable quantity

    kappa = sigma2 * beta**(-2 nu).

An ``estimate.FitChain`` over the dataset serves as ``fit_fn``: selectors
revisit q values across passes (q_min appears in every refinement), and its
cache fits each one once, started from the fits before it.

kappa-hat is not constant across q even on clean data.  The fixed-q fit
targets (q sigma2, beta, nu) (see ``estimate``), whose kappa is q kappa0, and
at finite m one dataset's path drifts further, in either direction, with the
noise in beta-hat(q) and nu-hat(q).  For a path that drifts steadily with q
the kappa series |kappa_{k-1}/kappa_k - 1| scales with the step width, which
on ``DEFAULT_GRID`` grows from 0.001 at the start to 0.025 at the end.  That
ratio exceeds L = 4, so a first pass over ``DEFAULT_GRID`` does not accept
such a path.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .estimate import _checked_q_grid

log = logging.getLogger(__name__)

DEFAULT_GRID = (1.0, 0.999, 0.99, 0.98, 0.97, 0.95, 0.925, 0.9)

# failures that drop a grid point instead of aborting the selector: a fit's
# numerical ones (a FitChain raises its input errors when built), and an se_fn's
_POINT_FAILURES = (np.linalg.LinAlgError, RuntimeError, ValueError)


@dataclass(frozen=True)
class QGridSpec:
    """Grid and thresholds for the q selectors.

    ``eps`` is the smallest grid span a pass walks.  ``L`` is the SQV
    threshold for the SQV selector and the ratio coefficient (> 1) for the
    kappa selector.  ``K`` is the number of intervals per refinement pass,
    so each refined grid has K + 1 points.  eps and L must be positive and
    finite, and K a positive integer, else ValueError.
    """

    grid: tuple = DEFAULT_GRID
    eps: float = 0.005
    L: float = 0.05
    K: int = 7

    def __post_init__(self):
        object.__setattr__(self, "grid", _checked_q_grid(self.grid))
        if not 0.0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")
        if not 0.0 < self.L < np.inf:
            raise ValueError("L must be positive and finite")
        # int() of an infinite K raises OverflowError, so finiteness comes first
        if not (np.isfinite(self.K) and int(self.K) == self.K >= 1):
            raise ValueError("K must be a positive integer")
        object.__setattr__(self, "K", int(self.K))


def default_kappa_spec():
    """Default grid with the ratio coefficient L = 4."""
    return QGridSpec(L=4.0)


@dataclass(frozen=True)
class PassRecord:
    """One selector pass: the usable grid, its series, and the pivot k*.

    ``grid`` holds the q values whose fits were usable; ``series`` has one
    value per consecutive pair (subscript k = 1..len(grid)-1); ``k_star``
    is the refinement subscript into ``grid``, or None when the pass
    accepted or terminated.
    """

    pass_index: int
    grid: tuple
    series: tuple
    k_star: object = None


@dataclass(frozen=True)
class SelectionResult:
    """Selected q with the full pass trace and a termination reason."""

    q_star: float
    trace: tuple
    reason: str

    def __post_init__(self):
        if not 0.0 < self.q_star <= 1.0:
            raise ValueError("q_star must lie in (0, 1]")
        if self.reason not in ("stabilized", "fallback-to-one", "span-exhausted"):
            raise ValueError("unknown reason %r" % (self.reason,))
        if len(self.trace) == 0:
            raise ValueError("trace must be non-empty")


def kappa(theta):
    """sigma2 * beta**(-2 nu), the quantity the data can pin down; inf where it overflows."""
    try:
        return float(theta.sigma2 * theta.beta ** (-2.0 * theta.nu))
    except OverflowError:       # a float power raises where a product gives inf
        return float("inf")


def _checked_m(m):
    """Raise ValueError unless m is a positive integer."""
    if not (np.isfinite(m) and int(m) == m >= 1):
        raise ValueError("m must be a positive integer")


def standardized(theta_hat, se, m):
    """Componentwise theta_hat / (sqrt(m) * se)."""
    _checked_m(m)
    se_arr = np.asarray(getattr(se, "se", se), dtype=float)
    t = theta_hat.as_array()
    if se_arr.shape != t.shape:
        raise ValueError("se must have one entry per parameter")
    if np.any(se_arr <= 0.0) or not np.all(np.isfinite(se_arr)):
        raise ValueError("standard errors must be positive and finite")
    return t / (np.sqrt(float(m)) * se_arr)


def sqv(z_prev, z_cur):
    """||z_prev - z_cur|| / p over consecutive standardized estimates of length p."""
    a = np.asarray(z_prev, dtype=float)
    b = np.asarray(z_cur, dtype=float)
    if a.shape != b.shape:
        raise ValueError("z vectors must have equal length")
    return float(np.linalg.norm(a - b) / a.size)


def _walk(spec, fit_fn, point, pair, pivot):
    """The SelectionResult of the refinement loop both selectors share.

    Each pass fits every grid q through ``fit_fn`` and takes the statistic
    ``point(q, theta_hat)``; a q whose fit or statistic raises one of
    ``_POINT_FAILURES``, or whose statistic is not finite, is dropped and
    logged.  ``pair(a, b)`` gives the series over consecutive usable
    points, and ``pivot(series)`` None to accept the pass's leading q
    ("stabilized"), or else the subscript k* from which K + 1 equally
    spaced points down to q_min make the next pass.  A pass with fewer than
    two usable points falls back to q* = 1 ("fallback-to-one"), and so does
    a grid whose span is at most eps before its pass ("span-exhausted").
    """
    q_min = spec.grid[-1]
    grid_cur = np.asarray(spec.grid, dtype=float)
    trace = []
    while grid_cur[0] - q_min > spec.eps:
        q_used, stats = [], []
        for qv in grid_cur:
            qv = float(qv)
            try:
                stat = point(qv, fit_fn(qv))
            except _POINT_FAILURES as exc:
                log.warning("dropping q=%.6g: %s", qv, exc)
                continue
            if not np.all(np.isfinite(stat)):
                log.warning("dropping q=%.6g: the statistic is not finite", qv)
                continue
            q_used.append(qv)
            stats.append(stat)
        series = tuple(pair(a, b) for a, b in zip(stats, stats[1:]))
        k_star = pivot(series) if series else None
        trace.append(PassRecord(len(trace), tuple(q_used), series, k_star))
        if not series:
            return SelectionResult(1.0, tuple(trace), "fallback-to-one")
        if k_star is None:
            return SelectionResult(q_used[0], tuple(trace), "stabilized")
        grid_cur = np.linspace(q_used[k_star], q_min, spec.K + 1)
    trace.append(PassRecord(len(trace), tuple(float(v) for v in grid_cur), ()))
    return SelectionResult(1.0, tuple(trace), "span-exhausted")


def select_q_sqv(fit_fn, se_fn, spec=None, *, m):
    """SelectionResult accepting the leading q once every consecutive SQV is below L.

    On a destabilized pass the pivot is the largest subscript k with
    SQV_k >= L.  ``se_fn(theta_hat, q)`` gives the standard errors (the
    ``StdErrs`` of ``std_errs(sandwich(reps, locs, theta_hat, q))``), and
    ``m``, keyword-only, the replicate count behind
    fit_fn; they standardize the estimates.  An m that is not a positive
    integer raises ValueError before any fit.
    """
    _checked_m(m)
    if spec is None:
        spec = QGridSpec()

    def pivot(series):
        return max((k for k, v in enumerate(series, 1) if v >= spec.L), default=None)

    return _walk(spec, fit_fn, lambda q, th: standardized(th, se_fn(th, q), m),
                 sqv, pivot)


def select_q_kappa(fit_fn, spec=None):
    """SelectionResult accepting the leading q once max dkappa <= L * min dkappa.

    The series is dkappa_k = |kappa_{k-1}/kappa_k - 1| over consecutive
    usable fits; a kappa-hat that underflows to 0 is a non-finite statistic
    there, and its q is dropped.  The non-strict comparison makes an exactly
    constant kappa (all-zero series) accept at once.  On a destabilized pass
    the pivot is the largest k with dkappa_k >= L min dkappa.  Each pass
    costs at most K + 1 fits and no standard errors.  Raises ValueError
    unless L > 1.
    """
    if spec is None:
        spec = default_kappa_spec()
    if not spec.L > 1.0:
        raise ValueError("the kappa selector requires L > 1")

    def pivot(series):
        thr = spec.L * min(series)
        if max(series) > thr:
            return max(k for k, v in enumerate(series, 1) if v >= thr)
        return None

    def point(q, theta):
        k = kappa(theta)
        return k if k != 0.0 else float("nan")   # no ratio's denominator

    return _walk(spec, fit_fn, point, lambda a, b: abs(a / b - 1.0), pivot)

