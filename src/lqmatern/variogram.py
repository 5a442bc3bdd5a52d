"""Empirical variograms for replicate screening.

The classical Matheron estimator binned over pairwise distances.  It sums
differences within one replicate, so a constant offset of a replicate
cancels and needs no centring.  One curve per replicate lets tooling (or
an eyeball) flag replicates whose spatial structure departs from the
rest; no outlier rule is imposed.

The site pairs, each pair's bin and the bin counts are worked out once per
call, and shared by every replicate; so is the check of the bins.  One walk
over the kept pairs, sorted by bin, then sums every replicate at once:
chunks of squared differences, all replicates side by side, are summed down
axis 0 onto each bin's running row.  numpy sums two or more columns down
axis 0 one row after another, and a lone column pairwise, so a lone
replicate is summed beside a copy of itself.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_N_BINS = 15
# doubles in each buffer of the pair walk, whatever the number of replicates
_CHUNK_DOUBLES = 1 << 16


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


def variogram_by_replicate(reps, locs, n_bins=DEFAULT_N_BINS, max_dist=None):
    """One VariogramCurve per replicate, in replicate order.

    Each is the Matheron estimate gamma(bin) = sum (z_i - z_j)^2 / (2 N_bin).
    Pairs are binned by Euclidean distance into equal-width bins on
    (0, max_dist]; max_dist, finite and positive, defaults to half the
    maximum pairwise distance.  Empty bins report count 0 and gamma NaN.
    Each (bin, replicate) sum adds that bin's pairs in ``np.triu_indices``
    order, so every curve has the bits of its replicate binned on its own.
    Raises ValueError for data that do not match ``locs``, fewer than 2
    locations, or an n_bins or max_dist out of range.
    """
    data = reps.data
    if data.shape[0] != locs.n:
        raise ValueError("z must have one value per location")
    if locs.n < 2:
        raise ValueError("variogram needs at least 2 locations")
    if not (np.isfinite(n_bins) and int(n_bins) == n_bins >= 1):
        raise ValueError("n_bins must be a positive integer")
    n_bins = int(n_bins)
    # the sorted unique distances end with the pairs' max
    uniq, inv = locs._dist_unique
    max_dist = float(0.5 * uniq[-1] if max_dist is None else max_dist)
    if not 0.0 < max_dist < np.inf:
        raise ValueError("max_dist must be positive and finite")
    width = max_dist / n_bins
    centers = (np.arange(n_bins) + 0.5) * width
    # a distance's bin, and n_bins for those beyond max_dist, taken per
    # unique distance; the small key sorts by radix
    key = np.full(uniq.size, n_bins, dtype=np.min_scalar_type(n_bins))
    near = uniq <= max_dist
    key[near] = np.minimum((uniq[near] / width).astype(int), n_bins - 1)
    i, j = np.triu_indices(locs.n, 1)
    key = key[inv[i, j]]
    counts = np.bincount(key, minlength=n_bins + 1)[:n_bins]
    # every curve shares these bins: they are checked once, not per curve
    _check_bins(centers, counts)
    # stable, so each bin keeps its pairs in pair order; the far pairs sort last
    order = np.argsort(key, kind="stable")[:counts.sum()]
    # one at a time, each unsorted array freed as its sorted one is bound
    i = i[order]
    j = j[order]
    del key, order
    sums = _bin_sums(data, i, j, counts)
    filled = counts > 0
    np.divide(sums, 2.0 * counts[:, None], out=sums, where=filled[:, None])
    sums[~filled] = np.nan
    return [VariogramCurve._of_bins(centers.copy(), gamma.copy(), counts.copy())
            for gamma in sums.T[:data.shape[1]]]


def _bin_sums(data, i, j, counts):
    """Per bin and replicate, sum (z_i - z_j)^2 over pairs sorted by bin.

    Returns (bins, max(m, 2)): a lone replicate is summed beside a copy of
    itself (see the module docstring).
    """
    data = np.ascontiguousarray(data if data.shape[1] > 1 else np.repeat(data, 2, axis=1))
    m = data.shape[1]
    rows = max(1, min(i.size, _CHUNK_DOUBLES // m))
    sq_buf, other_buf = np.empty((rows + 1, m)), np.empty((rows, m))
    sums = np.zeros((counts.size, m))
    ends = np.cumsum(counts).tolist()
    k = 0
    for a in range(0, ends[-1], rows):
        b = min(a + rows, ends[-1])
        block = sq_buf[:b - a + 1]
        sq, other = block[1:], other_buf[:b - a]
        # the indices are in range; "clip" spares take a copy of out
        np.take(data, i[a:b], axis=0, out=sq, mode="clip")
        np.take(data, j[a:b], axis=0, out=other, mode="clip")
        np.subtract(sq, other, out=sq)
        np.square(sq, out=sq)
        s = a
        while s < b:
            while ends[k] <= s:
                k += 1
            e = min(ends[k], b)
            # row s - a is free: its pair was summed with the bin before
            block[s - a] = sums[k]
            np.sum(block[s - a:e - a + 1], axis=0, out=sums[k])
            s = e
    return sums
