"""Joint-model simulation tests: parameters, moments, recursion exactness."""

import math

import numpy as np
import pytest

from bartree import (
    BarParams,
    NoiseParams,
    ObservedTree,
    ReproductionLaw,
    ValidationError,
    noise_moments,
    simulate_joint,
)

FULL = ReproductionLaw.full_observation()


def _value_map(tree):
    """``{node id: value}`` read from the mask's ids and the value arrays."""
    return dict(zip(tree.mask.ids.tolist(), np.concatenate(tree.values).tolist()))


def _noise_map(tree):
    """``{node id: noise}`` over the non-root cells, from the ids and the noise arrays."""
    ids = tree.mask.ids[tree.mask.starts[1]:]
    return dict(zip(ids.tolist(), np.concatenate(tree.noise[1:]).tolist()))


# ---------------------------------------------------------------------------
# parameter validation


def test_bar_params_stability_gate():
    BarParams(0.0, 0.5, 0.0, 0.25)
    with pytest.raises(ValidationError):
        BarParams(1.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        BarParams(1.0, 0.0, 1.0, 0.0)  # degenerate slopes need the explicit flag
    BarParams(1.0, 0.0, 1.0, 0.0, allow_unstable=True)
    BarParams(1.0, 1.5, 1.0, 0.5, allow_unstable=True)


def test_noise_params_covariance_gate():
    NoiseParams(1.0, 1.0)  # perfectly correlated sisters are allowed
    NoiseParams(0.0, 0.0)  # zero noise is allowed
    with pytest.raises(ValidationError):
        NoiseParams(1.0, 1.5)
    with pytest.raises(ValidationError):
        NoiseParams(-1.0, 0.0)
    with pytest.raises(ValidationError):
        NoiseParams(1.0, float("nan"))  # it would simulate NaN values


def test_noise_params_covariance_gate_is_relative():
    # |rho| <= sigma2 in any units: an absolute slack admits an indefinite
    # covariance on a tiny scale and rejects a rounding excess on a large one
    for sigma2, rho in ((1e-14, 5e-13), (0.0, 1e-13), (1e-14, -1.1e-14)):
        with pytest.raises(ValidationError, match="invalid covariance"):
            NoiseParams(sigma2, rho)
    big = NoiseParams(1e6, 1e6 * (1 + 1e-15))
    assert big.rho > big.sigma2 and big.rho_prime == 1.0
    assert NoiseParams(1e-14, -1e-14).rho_prime == -1.0


def test_rho_prime_derivation():
    assert NoiseParams(4.0, 2.0).rho_prime == 0.5
    assert NoiseParams(0.0, 0.0).rho_prime == 0.0


# ---------------------------------------------------------------------------
# closed-form moments vs a sampling oracle


def test_gaussian_moments_standard():
    m = noise_moments(NoiseParams(1.0, 0.0))
    assert m.tau4 == 3.0
    assert abs(m.nu2 - 1.0 / 3.0) < 1e-15


def test_gaussian_moments_shared_noise():
    m = noise_moments(NoiseParams(1.0, 1.0))
    assert abs(m.nu2 * m.tau4 - 3.0) < 1e-12  # sisters share one noise


def test_gaussian_moments_scaled():
    m = noise_moments(NoiseParams(4.0, 2.0))  # rho' = 0.5
    assert m.tau4 == 48.0
    assert abs(m.nu2 * m.tau4 - 24.0) < 1e-12


@pytest.mark.parametrize("sigma2,rho", [(1.0, 0.0), (4.0, 2.0)])
def test_gaussian_moments_sampling_oracle(sigma2, rho):
    # draw correlated pairs directly and compare empirical moments at 3 SE
    n = 10**7
    rng = np.random.default_rng(20240817)
    rp = rho / sigma2
    z = rng.standard_normal((n, 2))
    e1 = math.sqrt(sigma2) * z[:, 0]
    e2 = math.sqrt(sigma2) * (rp * z[:, 0] + math.sqrt(1 - rp * rp) * z[:, 1])
    m = noise_moments(NoiseParams(sigma2, rho))

    x4 = e1**4
    se = x4.std() / math.sqrt(n)
    assert abs(x4.mean() - m.tau4) < 3 * se

    pair = e1**2 * e2**2
    se = pair.std() / math.sqrt(n)
    assert abs(pair.mean() - m.nu2 * m.tau4) < 3 * se


# ---------------------------------------------------------------------------
# joint simulation


def test_zero_noise_degenerate_recursion():
    # b = d = 0 pins every even daughter at a and every odd daughter at c
    bar = BarParams(3.0, 0.0, -2.0, 0.0, allow_unstable=True)
    t = simulate_joint(bar, NoiseParams(0.0), FULL, depth=4, x1=7.0, seed=5)
    for k, x in _value_map(t).items():
        if k == 1:
            assert x == 7.0
        elif k % 2 == 0:
            assert x == 3.0
        else:
            assert x == -2.0


def test_perfect_correlation_equal_sisters():
    bar = BarParams(0.4, 0.3, 0.4, 0.3)
    t = simulate_joint(bar, NoiseParams(1.0, 1.0), FULL, depth=6, seed=9)
    values = _value_map(t)
    for k in range(1, 2**6):
        assert values[2 * k] == values[2 * k + 1]


def test_determinism_and_seed_sensitivity():
    bar = BarParams(0.5, 0.3, -0.4, 0.7)
    nz = NoiseParams(1.0, 0.5)
    a = simulate_joint(bar, nz, FULL, depth=6, seed=3)
    b = simulate_joint(bar, nz, FULL, depth=6, seed=3)
    assert _value_map(a) == _value_map(b)
    c = simulate_joint(bar, nz, FULL, depth=6, seed=4)
    assert _value_map(a) != _value_map(c)


def test_mask_independent_of_noise_parameters():
    # the mask stream never looks at the noise parameters
    law = ReproductionLaw.from_mean_matrix([[0.9, 0.4], [0.3, 0.8]])
    bar = BarParams(0.5, 0.3, -0.4, 0.7)
    t1 = simulate_joint(bar, NoiseParams(1.0, 0.0), law, depth=8, seed=17)
    t2 = simulate_joint(bar, NoiseParams(9.0, -4.0), law, depth=8, seed=17)
    assert np.array_equal(t1.mask.ids, t2.mask.ids)


def test_recursion_residual_exact():
    bar = BarParams(0.5, 0.3, -0.4, 0.7)
    law = ReproductionLaw.from_mean_matrix([[0.9, 0.4], [0.3, 0.8]])
    t = simulate_joint(bar, NoiseParams(1.0, 0.5), law, depth=10, seed=21)
    values, eps = _value_map(t), _noise_map(t)
    for k, x in values.items():
        if k == 1:
            continue
        parent = values[k // 2]
        if k % 2 == 0:
            assert x - (bar.a + bar.b * parent) - eps[k] == 0.0
        else:
            assert x - (bar.c + bar.d * parent) - eps[k] == 0.0


def test_generation_mean_recursion_oracle():
    # scalar recursion m_{r+1} = a + b m_r is the oracle for the symmetric model
    bar = BarParams(1.0, 0.5, 1.0, 0.5)
    t = simulate_joint(bar, NoiseParams(1.0, 0.0), FULL, depth=14, x1=0.0, seed=33)
    m = 0.0
    for _ in range(14):
        m = bar.a + bar.b * m
    avg = t.values[14].mean()
    # correlated-tree standard error of the generation average is ~ sqrt(2 sigma2 / 2^n)
    se = math.sqrt(2.0 / 2**14)
    assert abs(avg - m) < 5 * se
    assert abs(m - 2.0) < 1e-3  # fixed point a / (1 - b)


def test_sister_noise_covariance_oracle():
    nz = NoiseParams(2.0, 0.8)
    bar = BarParams(0.1, 0.2, 0.3, 0.4)
    t = simulate_joint(bar, nz, FULL, depth=17, seed=71)
    eps = _noise_map(t)
    pairs = np.array([(eps[2 * k], eps[2 * k + 1]) for k in range(1, 2**17)])
    assert pairs.shape[0] >= 10**5
    n = pairs.shape[0]
    for j in range(2):
        var = pairs[:, j].var()
        se = np.sqrt(np.var((pairs[:, j] - pairs[:, j].mean()) ** 2) / n)
        assert abs(var - 2.0) < 3 * se
    prod = pairs[:, 0] * pairs[:, 1]
    se = prod.std() / math.sqrt(n)
    assert abs(prod.mean() - 0.8) < 3 * se


def test_mask_noise_independence():
    # observation flags are uncorrelated with the mother's noise magnitude
    law = ReproductionLaw.from_tables({"11": 0.9, "00": 0.1}, {"11": 0.9, "00": 0.1})
    bar = BarParams(0.5, 0.3, -0.4, 0.7)
    flags, mags = [], []
    for seed in range(10):
        t = simulate_joint(bar, NoiseParams(1.0, 0.0), law, depth=15, seed=seed)
        eps = _noise_map(t)
        observed = set(t.mask.ids.tolist())
        for k, e in eps.items():
            flags.append(1.0 if 2 * k in observed else 0.0)
            mags.append(abs(e))
    n = len(flags)
    assert n >= 10**5
    r = np.corrcoef(flags, mags)[0, 1]
    assert abs(r) < 4.0 / math.sqrt(n)


def test_values_only_on_observed_lineages():
    law = ReproductionLaw.from_mean_matrix([[0.9, 0.4], [0.3, 0.8]])
    bar = BarParams(0.5, 0.3, -0.4, 0.7)
    t = simulate_joint(bar, NoiseParams(1.0, 0.0), law, depth=8, seed=2)
    for r, vals in enumerate(t.values):
        assert t.mask.ids[t.mask.starts[r]:t.mask.starts[r + 1]].size == vals.size


def test_from_pairs_round_trip():
    t = ObservedTree.from_pairs([(1, 1.0), (2, 3.0), (3, 2.0)])
    assert t.depth == 1
    assert _value_map(t) == {1: 1.0, 2: 3.0, 3: 2.0}
    with pytest.raises(ValidationError):
        ObservedTree.from_pairs([(1, 1.0), (1, 2.0)])
    with pytest.raises(ValidationError):
        ObservedTree.from_pairs([(1, 1.0), (5, 2.0)])
