"""Confidence intervals and symmetry tests."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps
from scipy.linalg import block_diag

import bartree
from bartree import (
    BarParams,
    NoiseParams,
    NumericalError,
    ReproductionLaw,
    ValidationError,
    design_limits,
    estimate_theta,
    limit_matrices,
    sigma_rho_cis,
    simulate_joint,
    spectral,
    theta_cis,
    wald_test,
)
from bartree.distributions import chi2_sf, ks_normal_distance, normal_quantile
from bartree.inference import _covariance

FULL = ReproductionLaw.full_observation()
MISSING = ReproductionLaw.from_mean_matrix([[0.9, 0.4], [0.3, 0.8]])


def _fit(bar, noise, depth=8, seed=1, law=FULL):
    t = simulate_joint(bar, noise, law, depth=depth, seed=seed)
    return estimate_theta(t, depth)


# ---------------------------------------------------------------------------
# coefficient intervals


def test_zero_noise_intervals_are_points():
    est = _fit(BarParams(1.0, 0.5, 2.0, 0.25), NoiseParams(0.0), depth=4, seed=0)
    cis, warnings = theta_cis(est, 0.95)
    for name in "abcd":
        assert cis[name].high - cis[name].low == 0.0
        assert cis[name].low == cis[name].point == cis[name].high
    assert warnings == []


def test_intervals_bracket_and_widen_with_level():
    est = _fit(BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5))
    lo, _ = theta_cis(est, 0.90)
    hi, _ = theta_cis(est, 0.99)
    for name in "abcd":
        assert lo[name].low <= lo[name].point <= lo[name].high
        assert hi[name].high - hi[name].low >= lo[name].high - lo[name].low


def test_report_shape_has_point_and_bounds():
    est = _fit(BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5))
    cis, _ = theta_cis(est, 0.95)
    assert set(cis) == set("abcd")
    assert cis["a"].level == 0.95


def test_missing_rho_falls_back_to_zero_with_warning():
    law = ReproductionLaw.from_tables({"10": 1.0}, {"10": 1.0})
    est = _fit(BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.0), depth=6, law=law)
    assert est.rho_hat is None
    cis, warnings = theta_cis(est, 0.95)
    assert any("rho = 0" in w for w in warnings)
    assert all(cis[name].high - cis[name].low > 0 for name in "abcd")


@pytest.mark.parametrize("seed", [3, [3, 4, 5]])
def test_inference_needs_residual_moments(seed):
    tree = simulate_joint(BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5), FULL, 5, seed=seed)
    est = estimate_theta(tree, 5, moments=False)
    for call in (theta_cis, sigma_rho_cis, lambda e: wald_test(e, "pair")):
        with pytest.raises(ValidationError, match="residual moments"):
            call(est)


def test_invalid_level_rejected():
    est = _fit(BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.0))
    with pytest.raises(ValidationError):
        theta_cis(est, 1.0)


# ---------------------------------------------------------------------------
# the sandwich covariance


def _sandwich_oracle(s0, s1, s01, sigma2, rho):
    """The explicit 4x4 product inv(Sigma) Gamma inv(Sigma)."""
    inv = np.linalg.inv(block_diag(s0, s1))
    gamma = np.block([[sigma2 * s0, rho * s01], [rho * s01, sigma2 * s1]])
    return inv @ gamma @ inv


def _assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_sandwich_matches_explicit_product():
    # the closed-form blocks, for a tree, each replicate of a forest and
    # the limit objects
    bar, noise = BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5)
    tree = _fit(bar, noise)
    d = tree.design
    want = _sandwich_oracle(d.s0, d.s1, d.s01, tree.sigma2_hat, tree.rho_hat)
    _assert_close(_covariance(tree), want)
    forest = _fit(bar, noise, depth=6, seed=list(range(20)), law=MISSING)
    cov, d = _covariance(forest), forest.design
    for i, rho in enumerate(np.nan_to_num(forest.rho_hat)):
        want = _sandwich_oracle(d.s0[i], d.s1[i], d.s01[i], forest.sigma2_hat[i], rho)
        _assert_close(cov[i], want)
    for law in (FULL, MISSING):
        spectrum = spectral(law)
        want = _sandwich_oracle(*design_limits(bar, noise, spectrum), noise.sigma2, noise.rho)
        _assert_close(limit_matrices(bar, noise, spectrum).theta_cov, want)


def test_sandwich_is_symmetric_and_has_no_negative_zero():
    # the closed form is exactly symmetric; at rho = 0 its cross blocks
    # are +0.0, which the clt report prints as 0.0
    noise = NoiseParams(1.0, 0.0)
    cov = limit_matrices(BarParams(0.5, 0.3, -0.4, 0.7), noise, spectral(MISSING)).theta_cov
    assert np.array_equal(cov, cov.T)
    assert not np.signbit(cov[cov == 0.0]).any() and (cov[:2, 2:] == 0.0).all()
    law = ReproductionLaw.from_tables({"10": 1.0}, {"10": 1.0})  # no sister pairs: rho enters as 0
    cov = _covariance(_fit(BarParams(0.5, -0.3, -0.4, 0.7), noise, depth=6, law=law))
    assert np.array_equal(cov, cov.T) and not np.signbit(cov[cov == 0.0]).any()


# ---------------------------------------------------------------------------
# Wald tests


def test_symmetric_fit_gives_zero_statistic():
    # zero noise with symmetric truth: the fit is symmetric exactly
    est = _fit(BarParams(1.0, 0.5, 1.0, 0.5), NoiseParams(0.0), depth=4, seed=0)
    for name in ("pair", "intercept", "slope"):
        w = wald_test(est, name)
        assert w.statistic == 0.0 and w.p_value == 1.0


def test_df_bookkeeping():
    est = _fit(BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5))
    assert wald_test(est, "pair").df == 2
    assert wald_test(est, "intercept").df == 1
    assert wald_test(est, "slope").df == 1


def test_degenerate_covariance_raises():
    # zero noise with asymmetric truth: nonzero contrast, zero covariance
    est = _fit(BarParams(1.0, 0.5, 2.0, 0.25), NoiseParams(0.0), depth=4, seed=0)
    with pytest.raises(NumericalError):
        wald_test(est, "slope")


def test_unknown_contrast():
    est = _fit(BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5))
    with pytest.raises(ValidationError):
        wald_test(est, "slopes")


def test_rescaling_invariance_of_slope_test():
    # scaling all values by a constant moves intercepts, not slopes, and
    # leaves the slope statistic unchanged
    bar = BarParams(0.5, 0.3, -0.4, 0.7)
    t = simulate_joint(bar, NoiseParams(1.0, 0.5), FULL, depth=8, seed=2)
    est = estimate_theta(t, 8)
    scaled = type(t)(mask=t.mask, values=[3.0 * v for v in t.values])
    est2 = estimate_theta(scaled, 8)
    assert np.allclose(est2.theta_hat[[1, 3]], est.theta_hat[[1, 3]], rtol=1e-10)
    assert np.allclose(est2.theta_hat[[0, 2]], 3.0 * est.theta_hat[[0, 2]], rtol=1e-10)
    w1 = wald_test(est, "slope")
    w2 = wald_test(est2, "slope")
    assert math.isclose(w1.statistic, w2.statistic, rel_tol=1e-9)


def test_pair_statistic_invariant_at_small_scale():
    # scaling the values by 1e-4 scales the intercept variances by 1e-8 and
    # det V far below any absolute singularity threshold; the statistics
    # stay put
    t = simulate_joint(BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5), FULL, 12, seed=2)
    est = estimate_theta(t, 12)
    small = estimate_theta(type(t)(mask=t.mask, values=[1e-4 * v for v in t.values]), 12)
    for name in ("pair", "intercept", "slope"):
        w1, w2 = wald_test(est, name), wald_test(small, name)
        assert math.isclose(w1.statistic, w2.statistic, rel_tol=1e-8)


def test_forest_wald_matches_solve_oracle():
    # closed-form statistics against a dense solve of each replicate's
    # restricted system; the small trees give some degenerate replicates
    est = _fit(BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5), depth=4,
               seed=list(range(60)), law=MISSING)
    rho = np.nan_to_num(est.rho_hat)
    d = est.design
    contrasts = {"pair": [[1, 0, -1, 0], [0, 1, 0, -1]], "intercept": [[1, 0, -1, 0]],
                 "slope": [[0, 1, 0, -1]]}
    for name, r in contrasts.items():
        r = np.array(r, dtype=float)
        want = np.full(60, np.nan)
        for i in range(60):
            cov = _sandwich_oracle(d.s0[i], d.s1[i], d.s01[i], est.sigma2_hat[i], rho[i])
            gap = r @ est.theta_hat[i]
            try:
                stat = 0.0 if not gap.any() else gap @ np.linalg.solve(r @ cov @ r.T, gap)
            except np.linalg.LinAlgError:
                continue
            if 0.0 <= stat < np.inf:
                want[i] = stat
        got = wald_test(est, name).statistic
        assert np.isnan(want).any() and np.array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def test_p_values_uniform_under_null():
    # size calibration: null p-values look uniform at desk scale
    bar = BarParams(0.3, 0.25, 0.3, 0.25)
    nz = NoiseParams(1.0, 0.3)
    pvals = np.concatenate([  # forest blocks of 50 depth-9 trees
        wald_test(_fit(bar, nz, depth=9, seed=list(range(start, start + 50))), "slope").p_value
        for start in range(100_000, 102_000, 50)
    ])
    d = sps.kstest(pvals, "uniform").statistic
    assert d < 0.05


# ---------------------------------------------------------------------------
# noise-parameter intervals


def test_zero_noise_sigma_rho_cis_degenerate():
    est = _fit(BarParams(1.0, 0.5, 2.0, 0.25), NoiseParams(0.0), depth=4, seed=0)
    sci, rci, _ = sigma_rho_cis(est, 0.95)
    assert sci.point == 0.0 and sci.high - sci.low == 0.0
    assert rci is not None and rci.point == 0.0 and rci.high - rci.low == 0.0


def test_plug_in_interval_monotone_in_level():
    est = _fit(BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5))
    s90, r90, _ = sigma_rho_cis(est, 0.90)
    s99, r99, _ = sigma_rho_cis(est, 0.99)
    assert s99.high - s99.low >= s90.high - s90.low
    assert r99.high - r99.low >= r90.high - r90.low


def test_sigma_ci_coverage():
    bar = BarParams(0.5, 0.3, -0.4, 0.7)
    nz = NoiseParams(1.0, 0.5)
    cover = 0
    reps = 400
    for start in range(200_000, 200_000 + reps, 16):  # forest blocks of 16 depth-11 trees
        sci, _, _ = sigma_rho_cis(_fit(bar, nz, depth=11, seed=list(range(start, start + 16))), 0.95)
        cover += int(sci.covers(1.0).sum())
    # binomial 3 SE band around the nominal level
    assert abs(cover / reps - 0.95) < 3 * math.sqrt(0.95 * 0.05 / reps)


# ---------------------------------------------------------------------------
# distribution functions against scipy's


def test_normal_quantile_matches_scipy():
    for level in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0 - 1e-9):
        expected = sps.norm.ppf(0.5 + level / 2.0)
        assert normal_quantile(level) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_chi2_tails_match_scipy():
    xs = np.geomspace(1e-8, 700.0, 4001)
    for df in (1, 2):
        ours = [chi2_sf(x, df) for x in xs.tolist()]
        np.testing.assert_allclose(ours, sps.chi2.sf(xs, df), rtol=1e-13, atol=0.0)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 3)


def test_ks_normal_distance_matches_scipy():
    rng = np.random.default_rng(7)
    samples = [np.array([0.0]), np.array([-3.5]), np.array([1.0, 1.0]),
               np.array([-np.inf, 0.0, np.inf]), np.array([-1e300, -40.0, 40.0, 1e300])]
    for n in (2, 3, 7, 50, 333, 1000, 5000):
        samples.append(rng.standard_normal(n))
        samples.append(np.round(rng.standard_normal(n), 1))  # heavy ties
        samples.append(rng.standard_t(1.5, n) * 3.0 + 0.5)  # heavy tails, shifted
    samples.append(np.concatenate([rng.standard_normal(500), [-38.5, 38.5, -9.0, 9.0] * 5]))
    for x in samples:
        expected = sps.kstest(x, "norm").statistic
        assert ks_normal_distance(x) == pytest.approx(expected, rel=1e-13, abs=0.0), x.size
    assert math.isnan(ks_normal_distance([0.1, math.nan]))


def test_package_import_loads_no_scipy():
    code = ("import sys\n"
            "import bartree, bartree.cli, bartree.mc\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(Path(bartree.__file__).resolve().parents[1])}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert res.stdout.strip() == "[]"
