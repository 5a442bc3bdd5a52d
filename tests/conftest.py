"""Test-session setup: BLAS runs on one thread unless the caller says otherwise.

The variables are read when numpy loads, which happens after this file runs.
Unpinned, two-thread OpenBLAS on a 2-core host made the small dense solves
of one fit intermittently take 16 ms instead of 0.1-0.2 ms, so timing-bound
tests (acceptance criterion 7) varied fourfold.  ``bench/run.py`` pins the
same three variables.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture(params=["rows", "init", "sites"])
def refused_inputs(request):
    """(locs, reps, init) that ``fit`` refuses, one case each.

    Data rows that do not match the sites, an init outside the default
    bounds, and sites with a duplicate.
    """
    import numpy as np
    from lqmatern.gauss_lik import ReplicateSet
    from lqmatern.matern import LocationSet, MaternParams
    from lqmatern.simulate import make_locations

    coords = make_locations(16, "grid").coords
    if request.param == "sites":
        coords = np.vstack([coords[:15], coords[:1]])
    rows = 15 if request.param == "rows" else 16
    reps = ReplicateSet(np.random.default_rng(0).standard_normal((rows, 5)))
    init = MaternParams(1.0, 20.0, 0.5) if request.param == "init" else None
    return LocationSet(coords), reps, init
