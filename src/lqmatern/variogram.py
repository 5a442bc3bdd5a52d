"""Empirical variograms for replicate screening.

The classical Matheron estimator binned over pairwise distances, plus
per-replicate centering.  One curve per replicate lets tooling (or an
eyeball) flag replicates whose spatial structure departs from the rest;
no outlier rule is imposed.  The site pairs are binned once per call and
the binning is shared by every replicate; so is the check of the bins, and
the curves built from it are not checked again one by one.
"""

from dataclasses import dataclass

import numpy as np

from .gauss_lik import ReplicateSet

DEFAULT_N_BINS = 15


@dataclass(frozen=True)
class VariogramCurve:
    """Binned semivariances; empty bins carry count 0 and gamma NaN."""

    bin_centers: np.ndarray
    gamma: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        bc = np.asarray(self.bin_centers, dtype=float)
        g = np.asarray(self.gamma, dtype=float)
        c = np.asarray(self.counts, dtype=int)
        if not (bc.shape == g.shape == c.shape) or bc.ndim != 1:
            raise ValueError("bin_centers, gamma, counts must be equal-length 1-d")
        _check_bins(bc, c)
        filled = c > 0
        if np.any(g[filled] < 0.0) or np.any(~np.isnan(g[~filled])):
            raise ValueError("gamma must be >= 0 on filled bins, NaN on empty ones")
        object.__setattr__(self, "bin_centers", bc)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "counts", c)

    @classmethod
    def _of_bins(cls, bin_centers, gamma, counts):
        """A curve over bins that passed ``_check_bins``, with gamma binned on them.

        Such a curve meets every check of the constructor by construction,
        so none is run again.
        """
        curve = object.__new__(cls)
        object.__setattr__(curve, "bin_centers", bin_centers)
        object.__setattr__(curve, "gamma", gamma)
        object.__setattr__(curve, "counts", counts)
        return curve


def _check_bins(bin_centers, counts):
    if np.any(np.diff(bin_centers) <= 0.0):
        raise ValueError("bins must be strictly ascending")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")


def center_replicates(reps):
    """Subtract each replicate's own mean (column-wise centering)."""
    data = reps.data
    return ReplicateSet(data - data.mean(axis=0, keepdims=True))


def variogram_by_replicate(reps, locs, n_bins=DEFAULT_N_BINS, max_dist=None):
    """One VariogramCurve per replicate, in replicate order.

    Each is the Matheron estimate gamma(bin) = sum (z_i - z_j)^2 / (2 N_bin).
    Pairs are binned by Euclidean distance into equal-width bins on
    (0, max_dist]; max_dist defaults to half the maximum pairwise
    distance.  Empty bins report count 0 and gamma NaN.
    """
    data = reps.data
    if data.shape[0] != locs.n:
        raise ValueError("z must have one value per location")
    if locs.n < 2:
        raise ValueError("variogram needs at least 2 locations")
    if int(n_bins) != n_bins or n_bins < 1:
        raise ValueError("n_bins must be a positive integer")
    n_bins = int(n_bins)
    # the sorted unique distances end with the pairs' max
    uniq, inv = locs._dist_unique
    max_dist = float(0.5 * uniq[-1] if max_dist is None else max_dist)
    if not max_dist > 0.0:
        raise ValueError("max_dist must be positive")
    i, j = np.triu_indices(locs.n, 1)
    d = uniq[inv[i, j]]
    keep = d <= max_dist
    i, j, d = i[keep], j[keep], d[keep]
    width = max_dist / n_bins
    idx = np.minimum((d / width).astype(int), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    filled = counts > 0
    centers = (np.arange(n_bins) + 0.5) * width
    # every curve shares these bins: they are checked once, not per curve
    _check_bins(centers, counts)
    curves = []
    for z in data.T:
        sums = np.bincount(idx, weights=(z[i] - z[j]) ** 2, minlength=n_bins)
        gamma = np.divide(sums, 2.0 * counts, out=np.full(n_bins, np.nan), where=filled)
        curves.append(VariogramCurve._of_bins(centers.copy(), gamma, counts.copy()))
    return curves
