"""Least-squares machinery: design accumulation, fits, diagnostics."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag

import bartree
from bartree import (
    BarParams,
    EstimationError,
    NoiseParams,
    ObservedTree,
    ReproductionLaw,
    ValidationError,
    accumulate_design,
    estimate_theta,
    martingale_diagnostics,
    sequential_variance_functionals,
    simulate_joint,
    theta_path,
    true_noise_functionals,
)
from bartree.estimation import conditioning, inverse2, singular

FULL = ReproductionLaw.full_observation()
MISSING = ReproductionLaw.from_mean_matrix([[0.9, 0.4], [0.3, 0.8]])


def _value_map(tree):
    """``{node id: value}`` read from the mask's ids and the value arrays."""
    return dict(zip(tree.mask.ids.tolist(), np.concatenate(tree.values).tolist()))


def _zero_noise_tree(depth=4, a=1.0, b=0.5, c=2.0, d=0.25, x1=0.0):
    bar = BarParams(a, b, c, d)
    return bar, simulate_joint(bar, NoiseParams(0.0), FULL, depth=depth, x1=x1, seed=0)


# ---------------------------------------------------------------------------
# design accumulation


def test_design_single_mother_both_children():
    t = ObservedTree.from_arrays([1, 2, 3], [1.0, 3.0, 2.0])
    d = accumulate_design(t, 0)
    one = np.ones((2, 2))
    assert np.array_equal(d.s0, one)
    assert np.array_equal(d.s1, one)
    assert np.array_equal(d.s01, one)
    assert d.t_star_pairs == 1
    assert d.t_star == 1


def test_design_single_mother_missing_odd_child():
    t = ObservedTree.from_arrays([1, 2], [1.0, 3.0], depth=1)
    d = accumulate_design(t, 0)
    assert np.array_equal(d.s0, np.ones((2, 2)))
    assert np.array_equal(d.s1, np.zeros((2, 2)))
    assert np.array_equal(d.s01, np.zeros((2, 2)))


def test_design_brute_force_oracle():
    # independent double loop over the value map
    bar, t = _zero_noise_tree(depth=3, x1=0.7)
    values = _value_map(t)
    for n in (0, 1, 2):
        d = accumulate_design(t, n)
        s0 = np.zeros((2, 2))
        s1 = np.zeros((2, 2))
        s01 = np.zeros((2, 2))
        for k, x in values.items():
            if k >= 2 ** (n + 1):
                continue
            row = np.array([[1.0, x], [x, x * x]])
            if 2 * k in values:
                s0 += row
            if 2 * k + 1 in values:
                s1 += row
            if 2 * k in values and 2 * k + 1 in values:
                s01 += row
        assert np.allclose(d.s0, s0, rtol=1e-12)
        assert np.allclose(d.s1, s1, rtol=1e-12)
        assert np.allclose(d.s01, s01, rtol=1e-12)


def test_design_needs_children_of_level():
    _, t = _zero_noise_tree(depth=3)
    with pytest.raises(ValidationError):
        accumulate_design(t, 3)


@pytest.mark.parametrize("forest", [False, True])
@pytest.mark.parametrize("name, first", [
    ("accumulate_design", 0),
    ("estimate_theta", 1),
    ("theta_path", 1),
    ("martingale_diagnostics", 1),
    ("sequential_variance_functionals", 1),
    ("true_noise_functionals", 1),
])
def test_estimators_reject_levels_out_of_range(name, first, forest):
    # one range check covers every public estimator, on both sides of the
    # levels a depth-3 tree holds
    bar = BarParams(0.5, 0.3, -0.4, 0.7)
    t = simulate_joint(bar, NoiseParams(1.0, 0.5), FULL, depth=3, seed=[1, 2] if forest else 1)
    args = (bar,) if name == "martingale_diagnostics" else ()
    estimator = getattr(bartree, name)
    estimator(t, *args, first + 2)
    for n in (first - 1, first + 3):
        with pytest.raises(ValidationError):
            estimator(t, *args, n)


def test_design_psd_and_pair_domination():
    t = simulate_joint(
        BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5), MISSING, depth=9, seed=4
    )
    d = accumulate_design(t, 8)
    for m in (d.s0, d.s1, d.s01):
        eig = np.linalg.eigvalsh(m)
        assert eig.min() > -1e-9
    assert d.s01[0, 0] <= d.s0[0, 0] and d.s01[0, 0] <= d.s1[0, 0]


# ---------------------------------------------------------------------------
# coefficient estimation


def test_zero_noise_exact_recovery():
    bar, t = _zero_noise_tree(depth=4)
    est = estimate_theta(t, 4)
    assert not est.regularized
    assert np.allclose(est.theta_hat, [1.0, 0.5, 2.0, 0.25], atol=1e-10)
    assert abs(est.sigma2_hat) < 1e-20
    assert est.rho_hat is not None and abs(est.rho_hat) < 1e-20
    # values that settle on their fixed point 0.4 give a nearly collinear
    # odd-daughter design (conditioning about 2.3e-10), still solved: an
    # exact fit, not a ridged one
    bar = BarParams(0.3, 0.25, 0.3, 0.25)
    for seed in (202, 417):
        est = estimate_theta(simulate_joint(bar, NoiseParams(0.0), MISSING, 12, seed=seed), 12)
        assert not est.regularized
        assert np.abs(est.theta_hat - bar.as_vector()).max() <= 1e-6


def test_conditioning_is_scale_free():
    rng = np.random.default_rng(7)
    general = rng.standard_normal((20, 2, 2))
    for m in [*general, *(a @ a.T for a in rng.standard_normal((20, 2, 2)))]:
        c = conditioning(m)
        assert 0.0 < c <= 1.0 and not singular(m)
        for scale in (1e-150, 1e150):
            for i in range(2):
                for j in range(2):
                    scaled = m.copy()
                    scaled[i] *= scale
                    scaled[:, j] *= scale
                    assert math.isclose(conditioning(scaled), c, rel_tol=1e-12)
                    assert not singular(scaled)
    # no value, no verdict: both singular, and silently so
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert singular(np.zeros((2, 2))) and singular(np.full((2, 2), np.nan))
        assert singular(np.array([[1.0, 2.0], [2.0, 4.0]])) and singular(np.ones((2, 2)))
    np.testing.assert_allclose(inverse2(1e-7 * np.eye(2)), 1e7 * np.eye(2), rtol=1e-15, atol=0.0)


def test_regularized_single_mother_fit():
    # one mother, identical design gram rows: ridged to [[2,1],[1,2]] per block
    t = ObservedTree.from_arrays([1, 2, 3], [1.0, 3.0, 2.0])
    est = estimate_theta(t, 1)
    assert est.regularized
    assert np.allclose(est.theta_hat, [1.0, 1.0, 2.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_solver_residual_invariant():
    t = simulate_joint(
        BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5), MISSING, depth=10, seed=11
    )
    est = estimate_theta(t, 10)
    # the right-hand sides (sum x_i, sum x_mother x_i) over the daughters of
    # each side i, and |S theta - rhs| / (1 + |rhs|) at the design S solved
    ids, x = t.mask.ids, np.concatenate(t.values)
    kids = ids[1:]
    mother = x[np.searchsorted(ids, kids // 2)]
    rhs = np.concatenate([[x[1:][side].sum(), (mother * x[1:])[side].sum()]
                          for side in (kids % 2 == 0, kids % 2 == 1)])
    theta, design = est.theta_hat, est.design
    fitted = np.concatenate([np.einsum("ij,j->i", design.s0, theta[:2]),
                             np.einsum("ij,j->i", design.s1, theta[2:])])
    assert np.sqrt(np.sum((fitted - rhs) ** 2)) / (1.0 + np.sqrt(np.sum(rhs**2))) < 1e-10


def test_even_block_ignores_odd_children():
    # perturbing values that enter only as odd daughters (the deepest
    # generation, whose cells are never mothers here) must not move the
    # even-block fit
    bar, t = _zero_noise_tree(depth=4)
    est = estimate_theta(t, 4)
    x = t.x.copy()
    x[t.mask.starts[4]:][t.mask.ids[t.mask.starts[4]:] % 2 == 1] += 13.5
    bumped = ObservedTree(mask=t.mask, x=x)
    est2 = estimate_theta(bumped, 4)
    assert np.array_equal(est.theta_hat[:2], est2.theta_hat[:2])
    assert not np.allclose(est.theta_hat[2:], est2.theta_hat[2:])


def test_masked_estimate_equals_naive_reference():
    # reference: least squares coded directly from the value map
    t = simulate_joint(
        BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5), MISSING, depth=9, seed=8
    )
    n = 9
    values = _value_map(t)
    s0 = np.zeros((2, 2))
    s1 = np.zeros((2, 2))
    r0 = np.zeros(2)
    r1 = np.zeros(2)
    for k, x in values.items():
        if k >= 2**n:
            continue
        row = np.array([[1.0, x], [x, x * x]])
        if 2 * k in values:
            s0 += row
            r0 += np.array([values[2 * k], x * values[2 * k]])
        if 2 * k + 1 in values:
            s1 += row
            r1 += np.array([values[2 * k + 1], x * values[2 * k + 1]])
    ref = np.concatenate([np.linalg.solve(s0, r0), np.linalg.solve(s1, r1)])
    est = estimate_theta(t, n)
    assert not est.regularized
    assert np.allclose(est.theta_hat, ref, rtol=1e-9, atol=1e-12)


def test_sigma2_is_normalised_rss():
    t = simulate_joint(
        BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.0), FULL, depth=6, seed=14
    )
    est = estimate_theta(t, 6)
    values = _value_map(t)
    a, b, c, d = est.theta_hat
    rss = 0.0
    for k, x in values.items():
        if k >= 2**6:
            continue
        if 2 * k in values:
            rss += (values[2 * k] - a - b * x) ** 2
        if 2 * k + 1 in values:
            rss += (values[2 * k + 1] - c - d * x) ** 2
    assert math.isclose(est.sigma2_hat, rss / est.t_star, rel_tol=1e-12)


def test_rho_absent_without_pairs():
    # every mother keeps exactly one daughter: no pairs anywhere
    law = ReproductionLaw.from_tables({"10": 1.0}, {"10": 1.0})
    t = simulate_joint(BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.0), law, depth=5, seed=0)
    est = estimate_theta(t, 5)
    assert est.rho_hat is None
    assert "both daughters" in est.rho_absent_reason


def test_estimate_requires_observed_daughters():
    law = ReproductionLaw.from_tables({"00": 1.0}, {"11": 1.0})
    t = simulate_joint(
        BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.0), law, depth=3, seed=0
    )
    with pytest.raises(EstimationError):
        estimate_theta(t, 3)


def test_regularization_inactive_on_noisy_full_trees():
    for seed in range(5):
        t = simulate_joint(
            BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5), FULL, depth=3, seed=seed
        )
        assert not estimate_theta(t, 3).regularized


def test_table_point_error_shrinks_with_depth():
    # realistic coefficient point; squared error should drop as depth grows
    bar = BarParams(0.03627, 0.02662, 0.03058, 0.17055)
    nz = NoiseParams(1.0, 0.0)
    errs = {d: [] for d in (8, 12)}
    for seed in range(30):
        t = simulate_joint(bar, nz, MISSING, depth=12, seed=3000 + seed)
        if t.mask.generation_count(12) == 0:
            continue
        for d in errs:
            est = estimate_theta(t, d)
            errs[d].append(float(np.sum((est.theta_hat - bar.as_vector()) ** 2)))
    assert np.median(errs[12]) < np.median(errs[8])


def test_theta_path_matches_pointwise_estimates():
    t = simulate_joint(
        BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5), MISSING, depth=8, seed=5
    )
    path = theta_path(t, 8)
    for level in (2, 5, 8):
        est = estimate_theta(t, level)
        assert np.allclose(path.theta[level - 1], est.theta_hat, rtol=1e-12)
        assert path.regularized[level - 1] == est.regularized
        assert path.t_star_parents[level - 1] == est.t_star_parents


# ---------------------------------------------------------------------------
# martingale diagnostics


def test_zero_noise_score_vanishes():
    bar, t = _zero_noise_tree(depth=5)
    d = martingale_diagnostics(t, bar, 5)
    assert np.array_equal(d.m_path, np.zeros((5, 4)))
    assert np.array_equal(d.v_path, np.zeros(5))
    assert np.array_equal(d.qsl_running, np.zeros(5))


def test_score_identity():
    bar = BarParams(0.5, 0.3, -0.4, 0.7)
    t = simulate_joint(bar, NoiseParams(1.0, 0.5), FULL, depth=8, seed=1)
    est = estimate_theta(t, 8)
    d = martingale_diagnostics(t, bar, 8)
    lhs = block_diag(est.design.s0, est.design.s1) @ (est.theta_hat - bar.as_vector())
    rhs = d.m_path[-1]
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1.0 + np.linalg.norm(rhs))


def test_qsl_running_approaches_score_constant():
    # oracle: the running mean of the normalised score quadratic forms
    # settles at 4 sigma2 (measured 3.99 at depth 12 over 120 replicates)
    bar = BarParams(0.5, 0.3, -0.4, 0.7)
    nz = NoiseParams(1.0, 0.5)
    vals = []
    for seed in range(120):
        t = simulate_joint(bar, nz, FULL, depth=12, seed=90000 + seed)
        vals.append(martingale_diagnostics(t, bar, 12).qsl_running[-1])
    assert abs(np.mean(vals) - 4.0) < 0.15 * 4.0


def test_diagnostics_require_noise():
    t = ObservedTree.from_arrays([1, 2, 3], [1.0, 3.0, 2.0])
    with pytest.raises(ValidationError):
        martingale_diagnostics(t, BarParams(0.5, 0.3, -0.4, 0.7), 1)


def test_quadratic_forms_agree_between_routes():
    # per level, the design-weighted squared coefficient error equals the
    # score quadratic form: independently computed paths must agree, the
    # path's own unridged design S*_{l-1} included
    bar = BarParams(0.5, 0.3, -0.4, 0.7)
    t = simulate_joint(bar, NoiseParams(1.0, 0.5), MISSING, depth=9, seed=17)
    n = 9
    path = theta_path(t, n)
    diag = martingale_diagnostics(t, bar, n)
    for level in range(2, n + 1):
        if path.regularized[level - 1] or not diag.valid[level - 1]:
            continue
        est = estimate_theta(t, level)
        diff = est.theta_hat - bar.as_vector()
        design = block_diag(est.design.s0, est.design.s1)
        lhs = float(diff @ design @ diff)
        assert lhs == pytest.approx(float(diag.v_path[level - 1]), rel=1e-9)
        assert np.array_equal(path.design[level - 1], design)
        path_diff = path.theta[level - 1] - bar.as_vector()
        path_form = float(path_diff @ path.design[level - 1] @ path_diff)
        assert path_form == pytest.approx(float(diag.v_path[level - 1]), rel=1e-9)


# ---------------------------------------------------------------------------
# noise functionals


def test_true_noise_functionals_zero_noise():
    bar, t = _zero_noise_tree(depth=4)
    s, r = true_noise_functionals(t, 4)
    assert s == 0.0 and r == 0.0


def test_true_noise_pair_products_nonnegative_when_shared():
    bar = BarParams(0.4, 0.3, 0.4, 0.3)
    t = simulate_joint(bar, NoiseParams(1.0, 1.0), FULL, depth=8, seed=3)
    _, r = true_noise_functionals(t, 8)
    assert r is not None and r >= 0.0


def test_true_noise_lln():
    bar = BarParams(0.5, 0.3, -0.4, 0.7)
    t = simulate_joint(bar, NoiseParams(1.0, 0.0), FULL, depth=14, seed=6)
    s, _ = true_noise_functionals(t, 14)
    n = t.mask.total_count(14)
    se = math.sqrt(2.0 / n)  # Var(eps^2) = tau4 - sigma4 = 2 sigma4
    assert abs(s - 1.0) < 3 * se


def test_sequential_functionals_zero_noise():
    bar, t = _zero_noise_tree(depth=5)
    s, r = sequential_variance_functionals(t, 5)
    # level-1 fits are ridged, so the earliest residuals are not exactly zero,
    # but everything beyond the first two daughters is
    assert s < 1.0
    t2 = simulate_joint(
        BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.0), FULL, depth=6, seed=9
    )
    s2, r2 = sequential_variance_functionals(t2, 6)
    assert s2 > 0.0 and r2 is not None


# ---------------------------------------------------------------------------
# one statistics build per tree


def _arrays(result):
    """Every number of an estimation result, as arrays in field order."""
    if isinstance(result, tuple):
        return [a for x in result for a in _arrays(x)]
    if hasattr(result, "__dataclass_fields__"):
        return [a for name in result.__dataclass_fields__ for a in _arrays(getattr(result, name))]
    return [np.asarray(result, dtype=float if result is None else None)]


@pytest.mark.parametrize("seed", [8, list(range(40))], ids=["tree", "forest"])
def test_functions_on_one_tree_share_one_statistics_build(monkeypatch, seed):
    # the running sums are the tree's one memo, extended when a deeper level
    # is asked for: each generation's statistics rows are built once (a
    # forest's in runs of generations, one row per replicate), and every
    # result is the one a call on a fresh tree gives, whichever calls came
    # before it
    from bartree import estimation

    bar = BarParams(0.5, 0.3, -0.4, 0.7)
    calls = [
        lambda t: estimate_theta(t, 5),
        lambda t: theta_path(t, 9),
        lambda t: accumulate_design(t, 8),
        lambda t: sequential_variance_functionals(t, 9),
        lambda t: true_noise_functionals(t, 7),
        lambda t: martingale_diagnostics(t, bar, 9),
        lambda t: estimate_theta(t, 9),
        lambda t: accumulate_design(t, 3),
    ]

    def fresh():
        return simulate_joint(bar, NoiseParams(1.0, 0.5), MISSING, depth=9, seed=seed)

    built = []  # the generation of every statistics row built

    def counted(build):
        def wrapper(f):
            rows = build(f)
            per_generation = len(np.atleast_2d(rows)) // (f.stop - f.first)
            built.extend(np.repeat(np.arange(f.first, f.stop), per_generation).tolist())
            return rows
        return wrapper

    for name in ("_generation_stats", "_forest_stats"):
        monkeypatch.setattr(estimation, name, counted(getattr(estimation, name)))
    tree = fresh()
    shared = [call(tree) for call in calls]
    if tree.mask.forest:  # a forest tables every generation, a row per replicate
        assert built == [r for r in range(9) for _ in range(40)]
    else:  # a tree skips the generations with no mothers
        assert built == [r for r in range(9) if tree.mask.generation_count(r) > 0]
    assert list(tree._memo) == ["cum"]
    for call, got in zip(calls, shared):
        want = call(fresh())
        assert [a.tobytes() for a in _arrays(got)] == [a.tobytes() for a in _arrays(want)]
