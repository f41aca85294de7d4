"""Closed-form limit objects against independent evaluators."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from bartree import (
    BarParams,
    DegenerateModelError,
    NoiseParams,
    ReproductionLaw,
    ValidationError,
    design_limits,
    limit_matrices,
    noise_moments,
    spectral,
)
from bartree.limits import first_moment_limits, pair_limits, second_moment_limits

FULL = spectral(ReproductionLaw.full_observation())
MISSING = spectral(ReproductionLaw.from_mean_matrix([[0.9, 0.4], [0.3, 0.8]]))

GENERIC_BAR = BarParams(1.0, 0.5, 0.5, 0.25)
GENERIC_NOISE = NoiseParams(1.0, 0.5)


def _oracle_h(bar, spectrum):
    # independent dense solve of the same linear system
    pi = spectrum.growth_rate
    pt = np.asarray(spectrum.mean_matrix).T
    z = spectrum.left_eigenvector
    lhs = np.eye(2) - pt @ np.diag([bar.b, bar.d]) / pi
    rhs = pt @ np.array([bar.a * z[0], bar.c * z[1]])
    return np.linalg.solve(lhs, rhs)


def _oracle_k(bar, noise, spectrum, h):
    pi = spectrum.growth_rate
    pt = np.asarray(spectrum.mean_matrix).T
    z = spectrum.left_eigenvector
    lhs = np.eye(2) - pt @ np.diag([bar.b**2, bar.d**2]) / pi
    rhs = pt @ np.array(
        [
            (bar.a**2 + noise.sigma2) * z[0] + 2 * bar.a * bar.b * h[0] / pi,
            (bar.c**2 + noise.sigma2) * z[1] + 2 * bar.c * bar.d * h[1] / pi,
        ]
    )
    return np.linalg.solve(lhs, rhs)


def _oracle_pair(bar, noise, spectrum, h, k):
    # second, independently coded evaluation of the pair-limit formulas
    pi, z = spectrum.growth_rate, spectrum.left_eigenvector
    p0 = spectrum.law.both_children_probability(0)
    p1 = spectrum.law.both_children_probability(1)
    pbar = p0 * z[0] + p1 * z[1]
    h01 = p0 * (bar.a * z[0] + bar.b / pi * h[0]) + p1 * (bar.c * z[1] + bar.d / pi * h[1])
    k01 = (
        p0 * (bar.a * bar.a * z[0] + bar.b * bar.b / pi * k[0] + 2 * bar.a * bar.b / pi * h[0])
        + p1 * (bar.c * bar.c * z[1] + bar.d * bar.d / pi * k[1] + 2 * bar.c * bar.d / pi * h[1])
        + noise.sigma2 * pbar
    )
    return pbar, h01, k01


# ---------------------------------------------------------------------------
# first moments


def test_h_homogeneous_when_intercepts_vanish():
    h = first_moment_limits(BarParams(0.0, 0.5, 0.0, 0.25), FULL)
    assert np.array_equal(h, [0.0, 0.0])


def test_h_full_observation_closed_form():
    bar = BarParams(1.0, 0.5, 2.0, 0.25)
    h = first_moment_limits(bar, FULL)
    expected = (bar.a + bar.c) / (2.0 - bar.b - bar.d)
    assert np.allclose(h, [expected, expected], rtol=1e-14)


def test_h_generic_against_solver_oracle():
    h = first_moment_limits(GENERIC_BAR, MISSING)
    assert np.allclose(h, _oracle_h(GENERIC_BAR, MISSING), rtol=1e-13)


def test_h_requires_supercritical():
    sub = spectral(ReproductionLaw.from_mean_matrix([[0.4, 0.4], [0.4, 0.4]]))
    with pytest.raises(ValidationError):
        first_moment_limits(GENERIC_BAR, sub)


# ---------------------------------------------------------------------------
# second moments


def test_k_zero_when_everything_vanishes():
    bar = BarParams(0.0, 0.5, 0.0, 0.25)
    h = first_moment_limits(bar, FULL)
    k = second_moment_limits(bar, NoiseParams(0.0), FULL, h)
    assert np.array_equal(k, [0.0, 0.0])


def test_k_full_observation_ar_second_moment():
    # centred symmetric case reduces to the scalar autoregression variance
    bar = BarParams(0.0, 0.6, 0.0, 0.6)
    noise = NoiseParams(2.0)
    h = first_moment_limits(bar, FULL)
    k = second_moment_limits(bar, noise, FULL, h)
    expected = noise.sigma2 / (1.0 - bar.b**2)
    assert np.allclose(k, [expected, expected], rtol=1e-13)


def test_k_generic_against_solver_oracle():
    h = first_moment_limits(GENERIC_BAR, MISSING)
    k = second_moment_limits(GENERIC_BAR, GENERIC_NOISE, MISSING, h)
    assert np.allclose(k, _oracle_k(GENERIC_BAR, GENERIC_NOISE, MISSING, h), rtol=1e-13)


# ---------------------------------------------------------------------------
# pair limits


def test_pair_fraction_full_observation():
    h = first_moment_limits(GENERIC_BAR, FULL)
    k = second_moment_limits(GENERIC_BAR, GENERIC_NOISE, FULL, h)
    pbar, _, _ = pair_limits(GENERIC_BAR, GENERIC_NOISE, FULL, h, k)
    assert pbar == 1.0


def test_pair_limits_vanish_in_degenerate_model():
    bar = BarParams(0.0, 0.5, 0.0, 0.25)
    noise = NoiseParams(0.0)
    h = np.zeros(2)
    k = np.zeros(2)
    pbar, h01, k01 = pair_limits(bar, noise, FULL, h, k)
    assert (pbar, h01, k01) == (1.0, 0.0, 0.0)


def test_pair_limits_dual_implementation():
    h = first_moment_limits(GENERIC_BAR, MISSING)
    k = second_moment_limits(GENERIC_BAR, GENERIC_NOISE, MISSING, h)
    got = pair_limits(GENERIC_BAR, GENERIC_NOISE, MISSING, h, k)
    want = _oracle_pair(GENERIC_BAR, GENERIC_NOISE, MISSING, h, k)
    assert got == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# assembled limit matrices


def test_block_structure_and_symmetry():
    lm = limit_matrices(GENERIC_BAR, GENERIC_NOISE, MISSING)
    l0, l1, l01 = design_limits(GENERIC_BAR, GENERIC_NOISE, MISSING)
    inv0, inv1 = np.linalg.inv(l0), np.linalg.inv(l1)
    assert np.allclose(lm.theta_cov[:2, :2], GENERIC_NOISE.sigma2 * inv0, rtol=1e-12, atol=0)
    assert np.allclose(lm.theta_cov[2:, 2:], GENERIC_NOISE.sigma2 * inv1, rtol=1e-12, atol=0)
    assert np.allclose(lm.theta_cov[:2, 2:], GENERIC_NOISE.rho * inv0 @ l01 @ inv1, rtol=1e-12)
    assert np.array_equal(lm.theta_cov, lm.theta_cov.T)
    assert np.linalg.eigvalsh(lm.theta_cov).min() > -1e-12


def test_uncorrelated_noise_collapses_sandwich():
    noise = NoiseParams(1.0, 0.0)
    lm = limit_matrices(GENERIC_BAR, noise, MISSING)
    l0, l1, _ = design_limits(GENERIC_BAR, noise, MISSING)
    inv = np.linalg.inv(block_diag(l0, l1))
    assert np.allclose(lm.theta_cov, noise.sigma2 * inv, atol=1e-12)


def test_sigma2_clt_variance_full_observation_example():
    lm = limit_matrices(GENERIC_BAR, NoiseParams(1.0, 0.0), FULL)
    # (pi (tau4 - sigma4) + 2 pbar (nu2 tau4 - sigma4)) / pi with pi=2, pbar=1
    assert abs(lm.sigma2_clt_var - 2.0) < 1e-14


def test_rho_clt_variance_example():
    lm = limit_matrices(GENERIC_BAR, NoiseParams(1.0, 0.5), FULL)
    assert abs(lm.rho_clt_var - 1.25) < 1e-14


def test_qsl_constant_positive_and_formula():
    # 4 sigma2 at every growth rate: each level's score quadratic form
    # has mean tr(S*^-1 <M>) = 4 sigma2
    lm = limit_matrices(GENERIC_BAR, GENERIC_NOISE, MISSING)
    assert lm.qsl_constant == pytest.approx(4.0 * GENERIC_NOISE.sigma2, rel=1e-12)
    assert lm.qsl_constant == limit_matrices(GENERIC_BAR, GENERIC_NOISE, FULL).qsl_constant
    scaled = limit_matrices(GENERIC_BAR, NoiseParams(2.5, 1.0), MISSING)
    assert scaled.qsl_constant == pytest.approx(10.0, rel=1e-12)
    assert lm.qsl_constant > 0.0


def test_rho_bias_constants_dual_implementation():
    lm = limit_matrices(GENERIC_BAR, GENERIC_NOISE, MISSING)
    l0, l1, l01 = design_limits(GENERIC_BAR, GENERIC_NOISE, MISSING)
    pi, pbar = MISSING.growth_rate, MISSING.pair_fraction

    def inv_sqrt(m):
        vals, vecs = np.linalg.eigh(m)
        return vecs @ np.diag(vals**-0.5) @ vecs.T

    half = 4 * GENERIC_NOISE.rho * (pi - 1) / pi * np.trace(inv_sqrt(l1) @ l01 @ inv_sqrt(l0))
    full = GENERIC_NOISE.rho * (pi - 1) / pbar * np.trace(
        np.linalg.inv(l1) @ l01 @ l01 @ np.linalg.inv(l0)
    )
    assert lm.rho_bias_half_power == pytest.approx(half, rel=1e-12)
    assert lm.rho_bias_full == pytest.approx(full, rel=1e-12)
    assert np.isfinite(lm.rho_bias_half_power) and np.isfinite(lm.rho_bias_full)


def test_design_limits_allow_degenerate_zero_noise():
    # zero-noise stationary fixture: design limits exist but are singular
    bar = BarParams(1.0, 0.5, 1.0, 0.5)
    l0, l1, l01 = design_limits(bar, NoiseParams(0.0), FULL)
    assert np.allclose(l0, [[1.0, 2.0], [2.0, 4.0]], atol=1e-12)
    assert abs(np.linalg.det(l0)) < 1e-12


def test_limit_matrices_reject_degenerate_design():
    bar = BarParams(0.0, 0.5, 0.0, 0.5)
    with pytest.raises(DegenerateModelError):
        limit_matrices(bar, NoiseParams(0.0), FULL)


def test_continuity_toward_full_observation():
    # as the law approaches full observation the limits approach the
    # full-observation closed forms
    bar, noise = GENERIC_BAR, GENERIC_NOISE
    l0_full, l1_full, _ = design_limits(bar, noise, FULL)
    gaps = []
    for p in (0.9, 0.99, 0.999):
        law = ReproductionLaw.from_tables(
            {"11": p, "00": 1 - p}, {"11": p, "00": 1 - p}
        )
        l0, l1, _ = design_limits(bar, noise, spectral(law))
        gaps.append(abs(l0 - l0_full).max() + abs(l1 - l1_full).max())
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.05


def test_moment_identities_used_by_variances():
    m = noise_moments(NoiseParams(1.0, 0.5))
    assert m.nu2 * m.tau4 == pytest.approx(1.5, rel=1e-15)
