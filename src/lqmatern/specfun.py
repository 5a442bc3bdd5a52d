"""Gamma-family special functions backing the Matern kernel's order derivatives.

Provides digamma, trigamma and log-gamma with domain checks; evaluation is
delegated to scipy.special.  The normalising constant c(nu) = 2^(1-nu) /
Gamma(nu) of the Matern kernel and its nu-derivatives are built from them.

All functions are pure and accept scalars or arrays; scalar input yields a
scalar.
"""

import numpy as np
from scipy import special


def _as_positive_x(x, name):
    x = np.asarray(x, dtype=float)
    if x.size == 0 or np.any(~(x > 0)):
        raise ValueError("%s requires x > 0" % name)
    return x


def _scalar_or_array(out, x):
    if np.ndim(x) == 0:
        return float(out)
    return out


def digamma(x):
    """Digamma Psi(x) for x > 0."""
    xa = _as_positive_x(x, "digamma")
    return _scalar_or_array(special.psi(xa), x)


def trigamma(x):
    """Trigamma Psi'(x) for x > 0; strictly positive."""
    xa = _as_positive_x(x, "trigamma")
    return _scalar_or_array(special.polygamma(1, xa), x)


def log_gamma(x):
    """log Gamma(x) for x > 0."""
    xa = _as_positive_x(x, "log_gamma")
    return _scalar_or_array(special.gammaln(xa), x)
