"""Confidence intervals and symmetry tests from the coefficient CLT.

The CLT covariance is approximated by the plug-in sandwich built from
the unnormalised design matrices and the residual variance/covariance
estimates; the sample-size factors cancel between the CLT scaling and
the unnormalised matrices, so the sandwich diagonal is already the
coefficient variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import chi2_sf, normal_quantile
from .errors import NumericalError, ValidationError
from .estimation import ThetaEstimate
from .limits import LimitMatrices

_CONTRASTS = {
    "pair": np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]),
    "intercept": np.array([[1.0, 0.0, -1.0, 0.0]]),
    "slope": np.array([[0.0, 1.0, 0.0, -1.0]]),
}

_COEFF_NAMES = ("a", "b", "c", "d")


@dataclass(frozen=True)
class ConfidenceInterval:
    point: float
    low: float
    high: float
    level: float

    def __post_init__(self):
        if not self.low <= self.point <= self.high:
            raise ValidationError("confidence interval must bracket its point")

    @property
    def width(self) -> float:
        return self.high - self.low

    def covers(self, value: float) -> bool:
        return self.low <= value <= self.high


@dataclass(frozen=True)
class WaldTest:
    name: str
    statistic: float
    df: int
    p_value: float


def normal_bounds(point, var, count, z: float):
    """Normal interval ``point -+ z sqrt(var / count)``, negative ``var`` read as 0.

    Works elementwise, so it serves one estimate or a forest of them.
    """
    half = z * np.sqrt(np.maximum(var, 0.0) / count)
    return point - half, point + half


def plug_in_covariance(est) -> tuple[np.ndarray, bool]:
    """Sandwich covariance of the coefficient estimate.

    Returns the 4x4 matrix and a flag saying whether an absent
    sister-covariance estimate was replaced by zero.  A forest's
    estimate gives one matrix per replicate, with each absent (NaN)
    sister covariance replaced by zero.
    """
    rho_missing = est.rho_hat is None
    rho = 0.0 if rho_missing else np.nan_to_num(est.rho_hat)
    sigma = est.design.sigma()
    gamma = est.design.gamma(est.sigma2_hat, rho)
    inv = np.linalg.inv(sigma)
    cov = inv @ gamma @ inv
    return 0.5 * (cov + np.swapaxes(cov, -1, -2)), rho_missing


def coefficient_bounds(est, cov: np.ndarray, z: float):
    """Normal bounds ``(low, high)`` of each coefficient from its covariance."""
    return normal_bounds(est.theta_hat, np.diagonal(cov, axis1=-2, axis2=-1), 1, z)


def theta_cis(est: ThetaEstimate, level: float = 0.95):
    """Per-coefficient normal confidence intervals.

    Returns ``(intervals, warnings)`` where ``intervals`` maps the
    coefficient names ``a, b, c, d`` to intervals.
    """
    z = normal_quantile(level)
    cov, rho_missing = plug_in_covariance(est)
    low, high = coefficient_bounds(est, cov, z)
    out: dict[str, ConfidenceInterval] = {}
    for j, name in enumerate(_COEFF_NAMES):
        point = float(est.theta_hat[j])
        out[name] = ConfidenceInterval(point, float(low[j]), float(high[j]), level)
    warnings = []
    if rho_missing:
        warnings.append(
            "sister covariance not estimable (no observed pairs); plug-in used rho = 0"
        )
    return out, warnings


def wald_test(est: ThetaEstimate, which: str) -> WaldTest:
    """Symmetry test of the null ``R theta = 0`` for the chosen contrast.

    ``which`` is ``"pair"`` (both coefficients equal across daughter
    types), ``"intercept"`` or ``"slope"``.  A contrast whose estimate
    is exactly zero is reported as statistic 0 with p-value 1 even when
    the restricted covariance is singular.
    """
    if which not in _CONTRASTS:
        raise ValidationError(f"unknown contrast {which!r}; pick from {sorted(_CONTRASTS)}")
    r = _CONTRASTS[which]
    df = r.shape[0]
    gap = r @ est.theta_hat
    if not gap.any():
        return WaldTest(which, 0.0, df, 1.0)
    cov, _ = plug_in_covariance(est)
    restricted = r @ cov @ r.T
    try:
        solved = np.linalg.solve(restricted, gap)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"degenerate restricted covariance in {which} test") from exc
    statistic = float(gap @ solved)
    if statistic < 0.0 or not math.isfinite(statistic):
        raise NumericalError(f"degenerate restricted covariance in {which} test")
    return WaldTest(which, statistic, df, chi2_sf(statistic, df))


def sigma_rho_cis(
    est: ThetaEstimate,
    level: float = 0.95,
    limits: LimitMatrices | None = None,
):
    """Confidence intervals for the noise variance and sister covariance.

    In plug-in mode (the default) the CLT variances are built from the
    residual fourth moments, the ratio growth-rate estimate and the
    observed pair fraction; passing ``limits`` switches to the
    theoretical variance constants evaluated at the model parameters.
    Negative plug-in variances are clipped to zero with a warning.

    Returns ``(sigma2_ci, rho_ci, warnings)``; ``rho_ci`` is ``None``
    when no pair was observed.
    """
    z = normal_quantile(level)
    warnings: list[str] = []

    if limits is not None:
        var_sigma = limits.sigma2_clt_var
        var_rho = limits.rho_clt_var
    else:
        var_sigma, var_rho = plug_in_noise_variances(est)

    if var_sigma < 0.0:
        warnings.append("negative plug-in variance for sigma2 clipped to 0")
    low, high = normal_bounds(est.sigma2_hat, var_sigma, est.t_star, z)
    sigma_ci = ConfidenceInterval(est.sigma2_hat, float(low), float(high), level)

    rho_ci = None
    if est.rho_hat is not None:
        if var_rho is None:
            var_rho = 0.0
        if var_rho < 0.0:
            warnings.append("negative plug-in variance for rho clipped to 0")
        low, high = normal_bounds(est.rho_hat, var_rho, est.pair_parents, z)
        rho_ci = ConfidenceInterval(est.rho_hat, float(low), float(high), level)
    else:
        warnings.append("sister covariance not estimable (no observed pairs)")
    return sigma_ci, rho_ci, warnings


def plug_in_noise_variances(est):
    """Plug-in CLT variances of ``sigma2_hat`` and ``rho_hat``.

    Built from the residual fourth moments, the ratio growth-rate
    estimate and the observed pair fraction.  The second is ``None``
    when ``rho_hat`` is; both work elementwise on a forest's estimates,
    where an absent (NaN) pair moment enters as zero.
    """
    s4 = est.sigma2_hat**2
    pi = est.pi_hat
    nu2_tau4 = 0.0 if est.nu2_tau4_hat is None else np.nan_to_num(est.nu2_tau4_hat)
    var_sigma = (pi * (est.tau4_hat - s4) + 2.0 * est.pbar_hat * (nu2_tau4 - s4)) / pi
    var_rho = None if est.rho_hat is None else nu2_tau4 - est.rho_hat**2
    return var_sigma, var_rho
