"""Closed-form limits of the normalised design and score matrices.

Every quantity the limit theorems mention is computable from the model
parameters: the per-type limits of the observed value sums solve small
linear systems driven by the mean matrix, and these assemble into the
limiting design matrices, the sandwich covariance of the coefficient
CLT and the variance constants of the noise-estimator CLTs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bar import BarParams, NoiseParams, noise_moments
from .errors import DegenerateModelError, ValidationError
from .estimation import inverse2, sandwich, singular, solve2
from .gw import GWSpectral


def _require_supercritical(spectrum: GWSpectral) -> None:
    if not spectrum.supercritical:
        raise ValidationError(
            f"limits require a supercritical observation process, growth rate {spectrum.growth_rate}"
        )


def design_limits(
    bar: BarParams, noise: NoiseParams, spectrum: GWSpectral
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three limiting 2x2 design matrices (even, odd, both-daughters).

    Per type, ``h`` and ``k`` are the limits of the normalised observed
    value and squared-value sums; each solves a 2x2 system driven by the
    mean matrix, ``k``'s through ``h``.  The both-daughters matrix holds
    the pair fraction and the pair sums' limits, from ``h`` and ``k``.
    No positive-definiteness gate: degenerate (singular but PSD) limits
    are legitimate for zero-noise fixtures.
    """
    _require_supercritical(spectrum)
    pi = spectrum.growth_rate
    pt = spectrum.mean_matrix.T
    z = spectrum.left_eigenvector
    s2 = noise.sigma2
    shrink = pt @ np.diag([bar.b, bar.d]) / pi
    rhs = pt @ np.array([bar.a * z[0], bar.c * z[1]])
    h = solve2(np.eye(2) - shrink, rhs, "first-moment limits")
    shrink = pt @ np.diag([bar.b**2, bar.d**2]) / pi
    rhs = pt @ np.array(
        [
            (bar.a**2 + s2) * z[0] + 2.0 * bar.a * bar.b * h[0] / pi,
            (bar.c**2 + s2) * z[1] + 2.0 * bar.c * bar.d * h[1] / pi,
        ]
    )
    k = solve2(np.eye(2) - shrink, rhs, "second-moment limits")
    p0 = spectrum.law.both_children_probability(0)
    p1 = spectrum.law.both_children_probability(1)
    pbar = spectrum.pair_fraction
    h01 = p0 * (bar.a * z[0] + bar.b * h[0] / pi) + p1 * (bar.c * z[1] + bar.d * h[1] / pi)
    k01 = (
        p0 * (bar.a**2 * z[0] + bar.b**2 * k[0] / pi + 2.0 * bar.a * bar.b * h[0] / pi)
        + p1 * (bar.c**2 * z[1] + bar.d**2 * k[1] / pi + 2.0 * bar.c * bar.d * h[1] / pi)
        + s2 * pbar
    )
    l0 = np.array([[pi * z[0], h[0]], [h[0], k[0]]])
    l1 = np.array([[pi * z[1], h[1]], [h[1], k[1]]])
    l01 = np.array([[pbar, h01], [h01, k01]])
    return l0, l1, l01


def _assert_pd(m: np.ndarray, name: str) -> None:
    # a positive corner and determinant make a symmetric m definite; singular() reads no sign
    if not (m[0, 0] > 0.0 and m[0, 0] * m[1, 1] > m[0, 1] * m[1, 0]) or singular(m):
        raise DegenerateModelError(f"{name} is not positive definite: parameter pathology")


def _inv_sqrt2(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T


@dataclass(frozen=True)
class LimitMatrices:
    """All limit objects of the asymptotic theory at one parameter point."""

    theta_cov: np.ndarray     # sandwich covariance of the coefficient CLT
    sigma2_clt_var: float
    rho_clt_var: float
    rho_bias_half_power: float  # trace constant with inverse square roots
    rho_bias_full: float        # trace constant with full inverses


def limit_matrices(bar: BarParams, noise: NoiseParams, spectrum: GWSpectral) -> LimitMatrices:
    """Assemble every limit object; rejects type designs not positive definite or ``singular``."""
    return _limit_matrices(bar, noise, spectrum, design_limits(bar, noise, spectrum))


def _limit_matrices(bar, noise, spectrum, design) -> LimitMatrices:
    """:func:`limit_matrices` from the three :func:`design_limits` already derived."""
    l0, l1, l01 = design
    _assert_pd(l0, "even-daughter design limit")
    _assert_pd(l1, "odd-daughter design limit")

    pi, pbar = spectrum.growth_rate, spectrum.pair_fraction
    inv0 = inverse2(l0, "the even-daughter design inverse")
    inv1 = inverse2(l1, "the odd-daughter design inverse")

    m = noise_moments(noise)
    s4 = noise.sigma2**2
    nu2tau4 = m.nu2 * m.tau4
    sigma2_var = (pi * (m.tau4 - s4) + 2.0 * pbar * (nu2tau4 - s4)) / pi
    rho_var = nu2tau4 - noise.rho**2

    half = _inv_sqrt2(l1) @ l01 @ _inv_sqrt2(l0)
    full = inv1 @ l01 @ l01 @ inv0
    return LimitMatrices(
        theta_cov=sandwich(inv0, inv1, l01, noise.sigma2, noise.rho),
        sigma2_clt_var=float(sigma2_var),
        rho_clt_var=float(rho_var),
        rho_bias_half_power=4.0 * noise.rho * (pi - 1.0) / pi * float(np.trace(half)),
        rho_bias_full=noise.rho * (pi - 1.0) / pbar * float(np.trace(full)),
    )
