"""Forests: every replicate of a Monte Carlo block simulated and fitted at once.

A forest replicate must be the tree simulated alone from the same seed,
bit for bit.  Its per-generation statistics rows (segment sums) must
match the tree's (direct reductions) up to summation order, and every
public estimation statistic of replicate ``i`` must match the same call
on tree ``i``.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from bartree import (
    BarParams,
    NoiseParams,
    ObservationMask,
    ReproductionLaw,
    estimate_theta,
    martingale_diagnostics,
    sequential_variance_functionals,
    simulate_joint,
    theta_path,
    true_noise_functionals,
)
from bartree.estimation import (
    _exact_prefix,
    _Frame,
    _frames,
    _generation_stats,
    _segment_sums,
)

LAWS = {
    "full": ReproductionLaw.full_observation(),
    "missing": ReproductionLaw.from_mean_matrix([[0.9, 0.4], [0.3, 0.8]]),  # growth rate 1.2
    "dense": ReproductionLaw.from_mean_matrix([[0.95, 0.9], [0.9, 0.95]]),  # 1.85
}
BAR = BarParams(0.5, 0.3, -0.4, 0.7)


def _replicate(forest, i):
    """Replicate ``i`` of a forest as its mask, values and noise."""
    cut = [slice(b[i], b[i + 1]) for b in forest.mask.bounds]
    flags = [f[c] for f, c in zip(forest.mask.offspring, cut)]
    mask = ObservationMask(depth=forest.depth, root_type=forest.mask.root_type, offspring=flags)
    values = [v[c] for v, c in zip(forest.values, cut)]
    noise = [forest.noise[0]] + [e[c] for e, c in zip(forest.noise[1:], cut[1:])]
    return mask, values, noise


def _same_bits(a, b):
    return len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def _abs_frame(f):
    return _Frame(np.abs(f.xk), f.has_e, f.has_o, np.abs(f.xe), np.abs(f.xo),
                  np.abs(f.eps_e), np.abs(f.eps_o))


def _nan(x):
    """A tree's absent estimate (``None``) as a forest writes it (NaN)."""
    return np.nan if x is None else x


def _condition(path):
    """Largest condition number of the (ridged where flagged) design blocks of a path."""
    ridge = np.where(path.regularized[:, None, None], np.eye(2), 0.0)
    blocks = np.concatenate([path.design[:, :2, :2] + ridge, path.design[:, 2:, 2:] + ridge])
    return float(np.linalg.cond(blocks).max())


@settings(deadline=None, max_examples=40)
@given(
    law=st.sampled_from(sorted(LAWS)),
    depth=st.integers(min_value=0, max_value=14),
    root_type=st.integers(min_value=0, max_value=1),
    rho=st.sampled_from([0.0, 0.5]),
    seeds=st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=5),
)
def test_forest_matches_single_tree_path(law, depth, root_type, rho, seeds):
    noise = NoiseParams(1.0, rho)
    forest = simulate_joint(BAR, noise, LAWS[law], depth, root_type=root_type, x1=0.25, seed=seeds)
    trees = [simulate_joint(BAR, noise, LAWS[law], depth, root_type=root_type, x1=0.25, seed=s)
             for s in seeds]
    assert forest.mask.forest and not any(t.mask.forest for t in trees)
    assert forest.depth == depth
    assert forest.mask.total_count(depth) == sum(t.mask.total_count(depth) for t in trees)
    for i, tree in enumerate(trees):
        mask, values, noise = _replicate(forest, i)
        assert mask == tree.mask
        assert _same_bits(values, tree.values)
        assert _same_bits(noise, tree.noise)
    if depth == 0:
        return

    # statistics rows: multi-segment sums against single-segment reductions,
    # within 1e-12 of each column's sum of absolute terms
    frames = _frames(forest, depth - 1)
    for i, tree in enumerate(trees):
        for r, f in enumerate(_frames(tree, depth - 1)):
            if f is None:
                continue
            bounds = tree.mask.bounds[r]
            multi = _generation_stats(frames[r], forest.mask.bounds[r], forest=True)[i]
            single = _generation_stats(f, bounds, forest=False)
            scale = _generation_stats(_abs_frame(f), bounds, forest=False)
            assert np.all(np.abs(multi - single) <= 1e-12 * scale)

    # every public statistic of replicate i against the same call on tree i;
    # rounding differences in the rows grow at most with the design's condition
    est = estimate_theta(forest, depth)
    path = theta_path(forest, depth)
    seq = sequential_variance_functionals(forest, depth)
    true = true_noise_functionals(forest, depth)
    mart = martingale_diagnostics(forest, BAR, depth)
    for i, tree in enumerate(trees):
        tree_path = theta_path(tree, depth)
        tol = 1e-10 * _condition(tree_path)

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)

        assert np.array_equal(path.regularized[i], tree_path.regularized)
        assert np.array_equal(path.t_star_parents[i], tree_path.t_star_parents)
        close(path.theta[i], tree_path.theta)
        for got, call in ((seq, sequential_variance_functionals), (true, true_noise_functionals)):
            close([got[0][i], got[1][i]], [_nan(x) for x in call(tree, depth)])
        tree_mart = martingale_diagnostics(tree, BAR, depth)
        assert np.array_equal(mart.valid[i], tree_mart.valid)
        close(mart.v_path[i], tree_mart.v_path)
        close(mart.qsl_running[i], tree_mart.qsl_running)
        if tree.mask.total_count(depth) > 1:  # a bare root has no fit
            tree_est = estimate_theta(tree, depth)
            assert est.regularized[i] == tree_est.regularized
            assert est.pair_parents[i] == tree_est.pair_parents
            close(est.theta_hat[i], tree_est.theta_hat)
            close(
                [est.sigma2_hat[i], est.rho_hat[i], est.tau4_hat[i], est.nu2_tau4_hat[i]],
                [tree_est.sigma2_hat, _nan(tree_est.rho_hat), tree_est.tau4_hat,
                 _nan(tree_est.nu2_tau4_hat)],
            )


finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_subnormal=True)
# sums built to cancel and to land on rounding ties
tricky = st.builds(lambda m, e: m * 2.0**e, st.integers(-4, 4), st.integers(-120, 120))


@settings(deadline=None, max_examples=200)
@given(rows=st.lists(st.lists(st.one_of(finite, tricky), min_size=3, max_size=3),
                     min_size=1, max_size=12))
def test_exact_prefix_equals_fsum(rows):
    table = np.array(rows)[None]
    got = _exact_prefix(table, range(len(rows)))[0]
    for g in range(len(rows)):
        for j in range(3):
            assert got[g, j] == math.fsum(table[0, : g + 1, j].tolist())


def test_exact_prefix_half_way_ties():
    # 1 + 2^-53 is a tie broken by whatever lies below it
    for below, want in ((2.0**-80, 1.0 + 2.0**-52), (-(2.0**-80), 1.0), (0.0, 1.0)):
        table = np.array([[[1.0], [2.0**-53], [below]]])
        assert _exact_prefix(table, [2])[0, 0, 0] == want == math.fsum([1.0, 2.0**-53, below])


def test_segment_sums_empty_segments():
    terms = np.arange(1.0, 6.0)[None]
    bounds = np.array([0, 0, 2, 2, 5, 5])
    assert _segment_sums(terms, bounds)[:, 0].tolist() == [0.0, 3.0, 0.0, 12.0, 0.0]
