"""Confidence intervals and symmetry tests from the coefficient CLT.

The CLT covariance is approximated by the plug-in sandwich built from
the unnormalised design matrices and the residual variance/covariance
estimates; the sample-size factors cancel between the CLT scaling and
the unnormalised matrices, so the sandwich diagonal is already the
coefficient variance.

As in :mod:`bartree.estimation`, every function takes a tree's estimate
or a forest's.  A tree gets plain numbers; a forest gets the same
objects with one value per replicate in each numeric field, NaN where a
replicate's value does not exist (no sister pairs, a degenerate
restricted covariance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import chi2_sf, normal_quantile
from .errors import NumericalError, ValidationError
from .estimation import ThetaEstimate, conditioning, inverse2, sandwich

# the entries of the gap theta_even - theta_odd (intercept, slope) each test reads
_CONTRASTS = {"pair": [0, 1], "intercept": [0], "slope": [1]}

_COEFF_NAMES = ("a", "b", "c", "d")
_NO_MOMENTS = "inference needs the residual moments: fit with estimate_theta(..., moments=True)"


@dataclass(frozen=True)
class ConfidenceInterval:
    """A normal interval; for a forest, ``point``, ``low`` and ``high`` hold one value per replicate."""

    point: float
    low: float
    high: float
    level: float

    def __post_init__(self):
        if np.any((self.low > self.point) | (self.point > self.high)):  # NaN: not estimable
            raise ValidationError("confidence interval must bracket its point")

    def covers(self, value: float) -> bool:
        return (self.low <= value) & (value <= self.high)


@dataclass(frozen=True)
class WaldTest:
    """A symmetry test; for a forest, ``statistic`` and ``p_value`` hold one value per replicate."""

    name: str
    statistic: float
    df: int
    p_value: float


def _interval(point, var, count, z: float, level: float) -> ConfidenceInterval:
    """Normal interval ``point -+ z sqrt(var / count)``, negative ``var`` read as 0."""
    half = z * np.sqrt(np.maximum(var, 0.0) / count)
    low, high = point - half, point + half
    if np.ndim(low) == 0:  # a tree's interval holds plain numbers
        point, low, high = float(point), float(low), float(high)
    return ConfidenceInterval(point, low, high, level)


def _covariance(est: ThetaEstimate) -> np.ndarray:
    """Sandwich covariance of the coefficient estimate, a 4x4 matrix per replicate.

    An absent sister-covariance estimate (``None``, or NaN in a forest)
    enters as zero.
    """
    if est.sigma2_hat is None:
        raise ValidationError(_NO_MOMENTS)
    rho = 0.0 if est.rho_hat is None else np.nan_to_num(est.rho_hat)
    d = est.design
    return sandwich(inverse2(d.s0), inverse2(d.s1), d.s01, est.sigma2_hat, rho)


def theta_cis(est: ThetaEstimate, level: float = 0.95):
    """Per-coefficient normal confidence intervals.

    Returns ``(intervals, warnings)`` where ``intervals`` maps the
    coefficient names ``a, b, c, d`` to intervals.
    """
    z = normal_quantile(level)
    var = np.diagonal(_covariance(est), axis1=-2, axis2=-1)
    out = {
        name: _interval(est.theta_hat[..., j], var[..., j], 1, z, level)
        for j, name in enumerate(_COEFF_NAMES)
    }
    warnings = []
    if est.rho_hat is None:
        warnings.append(
            "sister covariance not estimable (no observed pairs); plug-in used rho = 0"
        )
    return out, warnings


def wald_test(est: ThetaEstimate, which: str) -> WaldTest:
    """Symmetry test: do the chosen coefficients agree across daughter types?

    ``which`` is ``"pair"`` (intercept and slope), ``"intercept"`` or
    ``"slope"``.  The statistic is the quadratic form of the gap
    ``g = theta_even - theta_odd`` in the inverse of its covariance
    ``V = C00 + C11 - C01 - C10`` (blocks of the sandwich), in closed
    form: ``g_j^2 / V_jj`` for one coefficient and
    ``(V11 g0^2 - 2 V01 g0 g1 + V00 g1^2) / det V`` for the pair, with no
    absolute singularity threshold, so it holds at any scale of the data.
    A contrast whose estimate is exactly zero is reported as statistic 0
    with p-value 1 even when the restricted covariance is singular.
    Otherwise a degenerate restricted covariance (a non-finite or
    negative statistic, or a noiseless fit: ``sigma2_hat`` times the
    blocks' smaller ``conditioning`` at most 1e-20 times the mothers'
    mean square, so the gap and ``V`` are rounding residue) raises
    :class:`NumericalError` for a tree and gives a NaN statistic and
    p-value for that replicate of a forest.
    """
    if which not in _CONTRASTS:
        raise ValidationError(f"unknown contrast {which!r}; pick from {sorted(_CONTRASTS)}")
    cov = np.reshape(_covariance(est), (-1, 4, 4))
    cross = cov[:, :2, 2:]
    v = cov[:, :2, :2] + cov[:, 2:, 2:] - (cross + np.swapaxes(cross, 1, 2))
    v00, v01, v11 = v[:, 0, 0], v[:, 0, 1], v[:, 1, 1]
    theta = np.atleast_2d(est.theta_hat)
    g = theta[:, :2] - theta[:, 2:]
    g0, g1 = g.T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # non-finite: degenerate
        statistic = {
            "pair": (v11 * g0**2 - 2.0 * v01 * g0 * g1 + v00 * g1**2) / (v00 * v11 - v01 * v01),
            "intercept": g0**2 / v00,
            "slope": g1**2 / v11,
        }[which]
    df = len(_CONTRASTS[which])
    d = est.design
    mean_square = (d.s0[..., 1, 1] + d.s1[..., 1, 1]) / (d.s0[..., 0, 0] + d.s1[..., 0, 0])
    cond = np.minimum(conditioning(d.s0), conditioning(d.s1))  # rounding residue grows as 1/cond
    noiseless = np.ravel(est.sigma2_hat * cond <= 1e-20 * mean_square)
    statistic[~((statistic >= 0.0) & (statistic < np.inf)) | noiseless] = np.nan
    statistic[~g[:, _CONTRASTS[which]].any(axis=1)] = 0.0
    p_value = np.array([chi2_sf(s, df) if s == s else np.nan for s in statistic.tolist()])
    if np.ndim(est.theta_hat) == 2:
        return WaldTest(which, statistic, df, p_value)
    if np.isnan(statistic[0]):
        raise NumericalError(f"degenerate restricted covariance in {which} test")
    return WaldTest(which, float(statistic[0]), df, float(p_value[0]))


def sigma_rho_cis(est: ThetaEstimate, level: float = 0.95):
    """Confidence intervals for the noise variance and sister covariance.

    The CLT variances are plug-in estimates built from the residual
    fourth moments, the ratio growth-rate estimate and the observed pair
    fraction.  Negative plug-in variances are clipped to zero with a
    warning.

    Returns ``(sigma2_ci, rho_ci, warnings)``; for a tree ``rho_ci`` is
    ``None`` when no pair was observed, and in a forest such a
    replicate's ``rho_ci`` fields are NaN.
    """
    if est.sigma2_hat is None:
        raise ValidationError(_NO_MOMENTS)
    z = normal_quantile(level)
    warnings: list[str] = []
    s4 = est.sigma2_hat**2
    pi = est.pi_hat
    nu2_tau4 = 0.0 if est.nu2_tau4_hat is None else np.nan_to_num(est.nu2_tau4_hat)
    var_sigma = (pi * (est.tau4_hat - s4) + 2.0 * est.pbar_hat * (nu2_tau4 - s4)) / pi
    if np.any(var_sigma < 0.0):
        warnings.append("negative plug-in variance for sigma2 clipped to 0")
    sigma_ci = _interval(est.sigma2_hat, var_sigma, est.t_star, z, level)

    rho_ci = None
    if est.rho_hat is None:
        warnings.append("sister covariance not estimable (no observed pairs)")
    else:
        var_rho = nu2_tau4 - est.rho_hat**2
        if np.any(var_rho < 0.0):
            warnings.append("negative plug-in variance for rho clipped to 0")
        rho_ci = _interval(est.rho_hat, var_rho, np.maximum(est.pair_parents, 1), z, level)
    return sigma_ci, rho_ci, warnings
