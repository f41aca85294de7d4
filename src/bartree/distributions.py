"""The few standard distribution functions the inference needs, from the standard library.

Normal quantiles come from ``statistics.NormalDist.inv_cdf`` (Wichura's
AS 241, Applied Statistics 37, 1988).  The normal distribution function
and the chi-squared tails with one and two degrees of freedom are closed
forms in ``math.erfc`` and ``math.exp``.  Other libraries' values of
the same functions can differ from these in the last bits (the tests
bound the gap at 1e-13 relative).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import ValidationError

_STANDARD_NORMAL = NormalDist()
_SQRT_HALF = math.sqrt(0.5)


def _check_level(level: float) -> float:
    """Return a confidence level in ``(0, 1)``; reject anything else, NaN included."""
    if not 0.0 < level < 1.0:
        raise ValidationError(f"confidence level must be in (0, 1), got {level}")
    return level


def normal_quantile(level: float) -> float:
    """Two-sided standard normal quantile of a confidence level."""
    return _STANDARD_NORMAL.inv_cdf(0.5 + _check_level(level) / 2.0)


def _normal_cdf(x: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-squared law with ``df`` = 1 or 2 degrees of freedom."""
    if df == 1:
        return math.erfc(math.sqrt(x / 2.0))
    if df == 2:
        return math.exp(-x / 2.0)
    raise ValueError(f"chi-squared tail implemented for 1 or 2 degrees of freedom, got {df}")


def ks_normal_distance(values) -> float:
    """Kolmogorov-Smirnov distance between the empirical law of ``values`` and N(0, 1).

    With the sorted values ``x_(1) <= ... <= x_(n)`` this is
    ``max_i max(i/n - Phi(x_(i)), Phi(x_(i)) - (i - 1)/n)``, the usual
    one-sample statistic on the ``i/n`` grid.  A NaN value gives NaN.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    cdf = np.array([_normal_cdf(v) for v in x.tolist()])
    above = np.arange(1.0, n + 1) / n - cdf
    below = cdf - np.arange(0.0, n) / n
    return float(max(above.max(), below.max()))
