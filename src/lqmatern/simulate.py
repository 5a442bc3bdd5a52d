"""Synthetic replicated Gaussian fields with optional replicate-level outliers.

Clean replicates come from Cholesky coloring: Z_i = L e_i with Sigma = L L'
and e_i i.i.d. standard normal.  Contamination acts on whole replicates: each
replicate is selected independently with probability r, and a selected
replicate receives additive i.i.d. N(0, noise_sd^2) noise at every location.

Randomness uses numpy's counter-based Philox generator keyed by
``SeedSequence(entropy=seed, spawn_key=(domain, i))`` with one stream per
replicate index i, so replicate i's draws do not depend on m and simulation
and contamination streams never collide (distinct domain tags).  Everything
is reproducible from (config, seed) alone; the generator identity is part of
the CLI metadata record.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .gauss_lik import ReplicateSet, chol_factor
from .matern import LocationSet, MaternParams, build_cov

# spawn_key domain tags: base-field streams vs contamination streams
_DOMAIN_FIELD = 0
_DOMAIN_CONTAM = 1


@dataclass(frozen=True)
class ContaminationSpec:
    """Replicate-level contamination: probability r and Gaussian noise sd."""

    r: float = 0.0
    noise_sd: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.r < 1.0:
            raise ValueError("contamination level r must lie in [0, 1)")
        if self.r > 0.0 and not 0.0 < self.noise_sd < math.inf:
            raise ValueError("noise_sd must be positive and finite when r > 0")


@dataclass(frozen=True)
class SimConfig:
    """Full recipe for one synthetic dataset."""

    theta: MaternParams
    n: int
    m: int
    layout: str = "grid"
    seed: int = 0
    contamination: ContaminationSpec = field(default_factory=ContaminationSpec)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be at least 1")
        if self.layout not in ("grid", "uniform"):
            raise ValueError("layout must be 'grid' or 'uniform'")
        if self.layout == "grid" and math.isqrt(self.n) ** 2 != self.n:
            raise ValueError("grid layout requires n to be a perfect square")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer, got %r" % (self.seed,))


def _stream(seed, domain, i):
    return Generator(Philox(SeedSequence(entropy=seed, spawn_key=(domain, i))))


def make_locations(n, layout="grid", seed=None):
    """Location set in the unit square: regular lattice or uniform draws.

    The grid layout needs a perfect-square n and places a sqrt(n) x sqrt(n)
    lattice at coordinates (i+1)/(sqrt(n)+1), offset from the boundary.
    Uniform layout draws i.i.d. points from ``seed``, redrawing in the
    (measure-zero) event of an exact duplicate; a seed of None raises
    ValueError, since its points would come from OS entropy.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if layout == "grid":
        k = math.isqrt(n)
        if k * k != n:
            raise ValueError("grid layout requires a perfect-square n, got %d" % n)
        ticks = np.arange(1, k + 1) / (k + 1.0)
        xx, yy = np.meshgrid(ticks, ticks, indexing="ij")
        return LocationSet(np.column_stack([xx.ravel(), yy.ravel()]))
    if layout == "uniform":
        if seed is None:
            raise ValueError("uniform layout needs a seed; None would draw from OS entropy")
        g = _stream(seed, _DOMAIN_FIELD, 0)
        while True:
            coords = g.uniform(size=(n, 2))
            locs = LocationSet(coords)
            try:
                locs._dist_unique  # raises on coincident points
            except ValueError:
                continue
            return locs
    raise ValueError("layout must be 'grid' or 'uniform', got %r" % (layout,))


def gen_replicates(locs, theta, m, seed):
    """m clean replicates by Cholesky coloring, deterministic under seed."""
    if m < 1:
        raise ValueError("m must be at least 1")
    cov = build_cov(locs, theta)
    chol = chol_factor(cov)
    n = locs.n
    E = np.empty((n, m))
    for i in range(m):
        E[:, i] = _stream(seed, _DOMAIN_FIELD, i).standard_normal(n)
    return ReplicateSet(chol.L @ E)


def contaminate(reps, spec, seed):
    """Apply replicate-level additive noise; returns (new reps, flags).

    Each replicate draws its own uniform coin r_i; if r_i < spec.r the whole
    replicate gets i.i.d. N(0, noise_sd^2) noise added.  Flags mark which
    replicates were touched.  r = 0 returns the input data unchanged.
    """
    if spec.r == 0.0:
        return reps, np.zeros(reps.m, dtype=bool)
    data = reps.data.copy()
    flags = np.zeros(reps.m, dtype=bool)
    for i in range(reps.m):
        g = _stream(seed, _DOMAIN_CONTAM, i)
        if g.uniform() < spec.r:
            data[:, i] += spec.noise_sd * g.standard_normal(reps.n)
            flags[i] = True
    return ReplicateSet(data), flags


def simulate_dataset(config):
    """Locations + (possibly contaminated) replicates from one SimConfig."""
    locs = make_locations(config.n, config.layout, config.seed)
    reps = gen_replicates(locs, config.theta, config.m, config.seed)
    reps, flags = contaminate(reps, config.contamination, config.seed)
    return locs, reps, flags
