"""Data-driven selection of the distortion parameter q.

Two coarse-to-fine grid selectors operate on fits computed along a
descending q grid that starts at 1.  The first watches the standardized
quadratic variation (SQV) of the estimate vector; the second watches the
relative variation of the identifiable quantity

    kappa = sigma2 * beta**(-2 nu).

Both share one pass loop (``_walk``): it fits each grid q through
``fit_fn``, drops and logs the points whose fit or statistic fails or is not
finite, and forms the series over consecutive usable points.  Each pass
either accepts the current leading q, or refines an equally spaced grid from
the last destabilized point down to q_min and repeats.  If the series never
stabilizes before the grid span is exhausted the selectors fall back to
q* = 1.  ``make_fit_fn`` gives the ``fit_fn`` as an ``estimate.FitChain``,
so q values the walk revisits are not fitted again.

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

from .asymptotics import sandwich, std_errs
from .estimate import FitChain, _checked_q_grid

log = logging.getLogger(__name__)

DEFAULT_GRID = (1.0, 0.999, 0.99, 0.98, 0.97, 0.95, 0.925, 0.9)

# exceptions that drop a grid point instead of aborting the selector
_POINT_FAILURES = (np.linalg.LinAlgError, RuntimeError, ValueError,
                   FloatingPointError)


@dataclass(frozen=True)
class QGridSpec:
    """Grid and thresholds for the q selectors.

    ``L`` is the SQV threshold for the SQV selector and the ratio
    coefficient (> 1) for the kappa selector; ``K`` sets the number of
    intervals per refinement pass, so each refined grid has K + 1 points.
    """

    grid: tuple = DEFAULT_GRID
    eps: float = 0.005
    L: float = 0.05
    K: int = 7

    def __post_init__(self):
        object.__setattr__(self, "grid", _checked_q_grid(self.grid))
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if not self.L > 0.0:
            raise ValueError("L must be positive")
        if int(self.K) != self.K or self.K < 1:
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
    """sigma2 * beta**(-2 nu), the quantity the data can actually pin down."""
    return float(theta.sigma2 * theta.beta ** (-2.0 * theta.nu))


def standardized(theta_hat, se, m):
    """Componentwise theta_hat / (sqrt(m) * se)."""
    if int(m) != m or m < 1:
        raise ValueError("m must be a positive integer")
    se_arr = np.asarray(getattr(se, "se", se), dtype=float)
    t = theta_hat.as_array()
    if se_arr.shape != t.shape:
        raise ValueError("se must have one entry per parameter")
    if np.any(se_arr <= 0.0) or not np.all(np.isfinite(se_arr)):
        raise ValueError("standard errors must be positive and finite")
    return t / (np.sqrt(float(m)) * se_arr)


def sqv(z_prev, z_cur, p=3):
    """Euclidean distance between consecutive standardized estimates over p."""
    a = np.asarray(z_prev, dtype=float)
    b = np.asarray(z_cur, dtype=float)
    if a.shape != b.shape:
        raise ValueError("z vectors must have equal length")
    return float(np.linalg.norm(a - b) / p)


def _walk(spec, fit_fn, point, pair, pivot):
    """The refinement loop both selectors share.

    ``point(q, theta_hat)`` is the statistic at one grid q, ``pair(a, b)``
    the series value of two consecutive statistics, and ``pivot(series)``
    None to accept the pass's leading q, or else the refinement subscript k*.
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


def select_q_sqv(fit_fn, se_fn, spec=None, m=None):
    """Accept the leading q once all consecutive SQV values drop below L.

    On a destabilized pass the refinement pivot is the largest subscript k
    with SQV_k >= L.  ``m`` is the replicate count behind fit_fn, needed
    to standardize the estimates.  Grid points whose fit or standard
    errors fail are dropped from the pass and logged; a pass with fewer
    than two usable points falls back to q* = 1.
    """
    if spec is None:
        spec = QGridSpec()
    if m is None:
        raise TypeError("m (the replicate count) is required")

    def pivot(series):
        return max((k for k, v in enumerate(series, 1) if v >= spec.L), default=None)

    return _walk(spec, fit_fn, lambda q, th: standardized(th, se_fn(th, q), m),
                 sqv, pivot)


def select_q_kappa(fit_fn, spec=None):
    """Accept the leading q once max dkappa <= L * min dkappa.

    The series is dkappa_k = |kappa_{k-1}/kappa_k - 1| over consecutive
    usable fits; the non-strict comparison makes an exactly constant
    kappa (all-zero series) accept immediately.  Never touches the
    standard-error machinery, so each pass costs K + 1 fits.
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

    return _walk(spec, fit_fn, lambda q, th: kappa(th),
                 lambda a, b: abs(a / b - 1.0), pivot)


def make_fit_fn(reps, locs, bounds=None, init=None, tol=1e-6, *,
                max_evals=5000):
    """fit_fn(q) -> theta_hat: an ``estimate.FitChain`` over the dataset.

    Selectors revisit q values across passes (q_min appears in every
    refinement), so the chain's cache keeps the advertised per-pass fit
    count honest, and its warm starts suit their descending walk.
    """
    return FitChain(reps, locs, bounds, init, tol, max_evals=max_evals)


def make_se_fn(reps, locs):
    """se_fn(theta_hat, q) -> StdErrs via the plug-in sandwich matrices."""

    def se_fn(theta_hat, q):
        return std_errs(sandwich(reps, locs, theta_hat, float(q)))

    return se_fn
