"""Test-session setup: BLAS runs on one thread unless the caller says otherwise.

The variables are read when numpy loads, which happens after this file runs.
Unpinned, two-thread OpenBLAS on a 2-core host made the small dense solves
of one fit intermittently take 16 ms instead of 0.1-0.2 ms, so timing-bound
tests (acceptance criterion 7) varied fourfold.  ``bench/run.py`` pins the
same three variables.

The session stops before collecting where a ``PYTHONPATH`` entry holds an
``lqmatern`` other than the one the tests import: pyproject's ``pythonpath
= ["src"]`` puts this checkout's ``src`` first, so ``PYTHONPATH=<copy>/src``
would otherwise test this checkout's package and report it as the copy's.
"""

import os
from pathlib import Path

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def foreign_packages(pythonpath, imported):
    """The entries of ``pythonpath`` that hold an lqmatern package other than ``imported``.

    ``imported`` is the directory of the package the tests import.
    """
    here = Path(imported).resolve()
    return [entry for entry in pythonpath.split(os.pathsep)
            if entry and (Path(entry) / "lqmatern" / "__init__.py").is_file()
            and (Path(entry) / "lqmatern").resolve() != here]


def pytest_configure(config):
    import lqmatern

    imported = Path(lqmatern.__file__).parent
    foreign = foreign_packages(os.environ.get("PYTHONPATH", ""), imported)
    if foreign:
        raise pytest.UsageError(
            "PYTHONPATH holds an lqmatern (%s) other than the one the tests import (%s); "
            "run pytest from that tree's own root" % (", ".join(foreign), imported))


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
