"""Confidence intervals and symmetry tests."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import bartree
from bartree import (
    BarParams,
    NoiseParams,
    NumericalError,
    ReproductionLaw,
    ValidationError,
    estimate_theta,
    sigma_rho_cis,
    simulate_joint,
    theta_cis,
    wald_test,
)
from bartree.distributions import chi2_sf, ks_normal_distance, normal_quantile

FULL = ReproductionLaw.full_observation()


def _fit(bar, noise, depth=8, seed=1, law=FULL):
    t = simulate_joint(bar, noise, law, depth=depth, seed=seed)
    return estimate_theta(t, depth)


# ---------------------------------------------------------------------------
# coefficient intervals


def test_zero_noise_intervals_are_points():
    est = _fit(BarParams(1.0, 0.5, 2.0, 0.25), NoiseParams(0.0), depth=4, seed=0)
    cis, warnings = theta_cis(est, 0.95)
    for name in "abcd":
        assert cis[name].width == 0.0
        assert cis[name].low == cis[name].point == cis[name].high
    assert warnings == []


def test_intervals_bracket_and_widen_with_level():
    est = _fit(BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5))
    lo, _ = theta_cis(est, 0.90)
    hi, _ = theta_cis(est, 0.99)
    for name in "abcd":
        assert lo[name].low <= lo[name].point <= lo[name].high
        assert hi[name].width >= lo[name].width


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
    assert all(cis[name].width > 0 for name in "abcd")


def test_invalid_level_rejected():
    est = _fit(BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.0))
    with pytest.raises(ValidationError):
        theta_cis(est, 1.0)


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
    assert sci.point == 0.0 and sci.width == 0.0
    assert rci is not None and rci.point == 0.0 and rci.width == 0.0


def test_plug_in_interval_monotone_in_level():
    est = _fit(BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5))
    s90, r90, _ = sigma_rho_cis(est, 0.90)
    s99, r99, _ = sigma_rho_cis(est, 0.99)
    assert s99.width >= s90.width
    assert r99.width >= r90.width


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
