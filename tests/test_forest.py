"""Forests: every replicate of a Monte Carlo block simulated and fitted at once.

A forest replicate must be the tree simulated alone from the same seed,
bit for bit.  Its per-generation statistics rows (segment sums) must
match the tree's (direct reductions) up to summation order, and every
public estimation statistic of replicate ``i`` must match the same call
on tree ``i``, and so must every inference result on replicate ``i``'s
estimate.  Sums across generations run in generation order, so a forest
simulated deeper gives the same bits at every shallower level.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from bartree import (
    BarParams,
    NoiseParams,
    NumericalError,
    ObservationMask,
    ReproductionLaw,
    ValidationError,
    accumulate_design,
    estimate_theta,
    martingale_diagnostics,
    rng,
    sequential_variance_functionals,
    sigma_rho_cis,
    simulate_joint,
    theta_cis,
    theta_path,
    true_noise_functionals,
    wald_test,
)
from bartree.estimation import (
    _Frame,
    _frames,
    _generation_stats,
    _segment_sums,
)
from bartree.gw import expected_cells

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


@settings(deadline=None, max_examples=40)
@given(
    law=st.sampled_from(sorted(LAWS)),
    depth=st.integers(min_value=0, max_value=10),
    more=st.integers(min_value=1, max_value=4),
    root_type=st.integers(min_value=0, max_value=1),
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=6),
)
@example(law="missing", depth=6, more=3, root_type=0, seeds=[0, 1, 3, 5])  # 0, 3, 5 top up
def test_deeper_forest_extends_shallower(law, depth, more, root_type, seeds):
    # what verify's shared blocks rest on: generations 0..depth of a forest
    # simulated deeper are the forest simulated to depth, bit for bit, and so
    # are the statistics read at depth.  A replicate whose cells through
    # depth - 1 outrun the expected count tops up its mask uniforms.
    noise = NoiseParams(1.0, 0.5)
    short = simulate_joint(BAR, noise, LAWS[law], depth, root_type=root_type, x1=0.25, seed=seeds)
    deep = simulate_joint(BAR, noise, LAWS[law], depth + more, root_type=root_type, x1=0.25,
                          seed=seeds)
    first = math.ceil(expected_cells(LAWS[law], depth - 1, root_type)) if depth else 0
    event("a replicate tops up" if depth and (short.mask.cells_through(depth - 1) > first).any()
          else "no top-up")
    assert _same_bits(deep.mask.offspring[:depth], short.mask.offspring)
    assert _same_bits(deep.mask.bounds[: depth + 1], short.mask.bounds)
    assert _same_bits(deep.values[: depth + 1], short.values)
    assert _same_bits(deep.noise[: depth + 1], short.noise)
    if depth == 0:
        return
    # the running sums across generations: the deep forest sums through its
    # last level first, as a shared block does, then reads the shallower levels
    theta_path(deep, depth + more)
    for call, args in ((theta_path, [depth]), (sequential_variance_functionals, [depth]),
                       (true_noise_functionals, [depth]), (martingale_diagnostics, [BAR, depth]),
                       (accumulate_design, [depth - 1])):
        got, want = call(deep, *args), call(short, *args)
        assert _same_bits([np.asarray(x) for x in _fields(got)],
                          [np.asarray(x) for x in _fields(want)]), call.__name__
    assert _same_bits([estimate_theta(deep, depth).theta_hat], [estimate_theta(short, depth).theta_hat])


@pytest.mark.parametrize("law, depth, seed, tops_up", [
    ("full", 9, 2, False), ("missing", 8, 1, False), ("missing", 8, 0, True), ("dense", 7, 5, False),
])
def test_single_tree_matches_its_forest_replicate(law, depth, seed, tops_up):
    # one tree reads its normal pairs as slices in place, and a forest
    # gathers them from interleaved replicates: the tree is its replicate
    # of any forest bit for bit, a forest of one seed included
    noise = NoiseParams(1.0, 0.5)
    tree = simulate_joint(BAR, noise, LAWS[law], depth, root_type=1, x1=0.25, seed=seed)
    for seeds in ([seed], [7, seed, 2**64 - 1]):
        forest = simulate_joint(BAR, noise, LAWS[law], depth, root_type=1, x1=0.25, seed=seeds)
        mask, values, eps = _replicate(forest, seeds.index(seed))
        assert mask == tree.mask
        assert _same_bits(values, tree.values)
        assert _same_bits(eps, tree.noise)
    # a mask stream tops up when the cells through depth - 1 outrun its first draw
    first = math.ceil(expected_cells(LAWS[law], depth - 1, 1))
    assert (tree.mask.cells_through(depth - 1)[0] > first) == tops_up


def _replicate_estimate(est, i):
    """Replicate ``i`` of a forest's estimate as a tree's estimate (NaN read as absent)."""
    def one(x):
        if dataclasses.is_dataclass(x):
            return type(x)(**{f.name: one(getattr(x, f.name)) for f in dataclasses.fields(x)})
        if not isinstance(x, np.ndarray):
            return x
        if x.ndim > 1:
            return x[i]
        value = x[i].item()
        return None if value != value else value

    return one(est)


@pytest.mark.parametrize("law, depth, seeds", [("full", 6, 12), ("missing", 6, 60)])
def test_forest_inference_matches_each_replicate(law, depth, seeds):
    # intervals and Wald tests of a forest's estimate, replicate by replicate,
    # against the same calls on that replicate's estimate as a tree's
    forest = simulate_joint(BAR, NoiseParams(1.0, 0.5), LAWS[law], depth, seed=list(range(seeds)))
    est = estimate_theta(forest, depth)
    fitted = [i for i in range(seeds) if est.t_star[i] > 1]  # a bare root has no fit
    degenerate = fitted[0]  # zero noise estimates: a zero covariance, a nonzero contrast
    zeros = {key: np.where(np.arange(seeds) == degenerate, 0.0, getattr(est, key))
             for key in ("sigma2_hat", "rho_hat", "tau4_hat", "nu2_tau4_hat")}
    est = dataclasses.replace(est, **zeros)
    with np.errstate(divide="ignore", invalid="ignore"):
        cis, _ = theta_cis(est, 0.9)
        sigma_ci, rho_ci, _ = sigma_rho_cis(est, 0.9)
        tests = {name: wald_test(est, name) for name in ("pair", "intercept", "slope")}
    pairless = 0
    for i in fitted:
        one = _replicate_estimate(est, i)
        got, want = [], []
        tree_cis, _ = theta_cis(one, 0.9)
        for name, ci in cis.items():
            got += [ci.point[i], ci.low[i], ci.high[i]]
            want += [tree_cis[name].point, tree_cis[name].low, tree_cis[name].high]
        tree_sigma, tree_rho, _ = sigma_rho_cis(one, 0.9)
        got += [sigma_ci.point[i], sigma_ci.low[i], sigma_ci.high[i]]
        want += [tree_sigma.point, tree_sigma.low, tree_sigma.high]
        if tree_rho is None:
            pairless += 1
            assert np.isnan([rho_ci.point[i], rho_ci.low[i], rho_ci.high[i]]).all()
        else:
            got += [rho_ci.point[i], rho_ci.low[i], rho_ci.high[i]]
            want += [tree_rho.point, tree_rho.low, tree_rho.high]
        for name, test in tests.items():
            try:
                tree_test = wald_test(one, name)
            except NumericalError:  # a degenerate restricted covariance reads NaN
                assert math.isnan(test.statistic[i]) and math.isnan(test.p_value[i])
                continue
            assert i != degenerate and test.df == tree_test.df
            got += [test.statistic[i], test.p_value[i]]
            want += [tree_test.statistic, tree_test.p_value]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert len(fitted) > 10 and (pairless > 0) == (law == "missing")


def _fields(result):
    return result if isinstance(result, tuple) else [getattr(result, f) for f in vars(result)]


@settings(deadline=None, max_examples=60)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=4),
    stream=st.sampled_from([rng.MASK_STREAM, rng.NOISE_STREAM]),
    drawn=st.integers(min_value=0, max_value=9),
    extra=st.integers(min_value=0, max_value=9),
)
def test_rekeyed_stream_draws_as_a_fresh_generator(seeds, stream, drawn, extra):
    shared = rng.Stream(stream)

    def fresh(seed):
        return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))

    for seed in seeds:
        alone = fresh(seed)
        assert shared.at(seed).random(drawn).tobytes() == alone.random(drawn).tobytes()
        # a top-up after other seeds were drawn resumes past what is used
        shared.at(seeds[0]).random(3)
        assert shared.at(seed, drawn).random(extra).tobytes() == alone.random(extra).tobytes()
        assert (shared.at(seed).standard_normal((drawn, 2)).tobytes()
                == fresh(seed).standard_normal((drawn, 2)).tobytes())


@pytest.mark.parametrize("stream", [rng.MASK_STREAM, rng.NOISE_STREAM])
def test_resumed_stream_equals_the_redraw(stream):
    # at(seed, offset) advances Philox by offset // 4 counter steps and
    # discards offset % 4 uniforms: the numbers a redraw keeps past offset
    shared = rng.Stream(stream)
    for seed in (0, 1, 12345, 2**64 - 1):
        redraw = shared.at(seed).random(64)
        for offset in range(10):
            assert shared.at(seed, offset).random(9).tobytes() == redraw[offset:offset + 9].tobytes()
        # across top-ups: draw 5, key another seed, then resume twice
        drawn = [shared.at(seed).random(5)]
        shared.at(7).random(3)
        drawn.append(shared.at(seed, 5).random(9))
        drawn.append(shared.at(seed, 14).random(50))
        assert np.concatenate(drawn).tobytes() == redraw.tobytes()


def test_stream_rejects_seeds_outside_the_key_word():
    shared = rng.Stream(rng.MASK_STREAM)
    for seed in (-1, 2**64, 1.5, "7", None):
        with pytest.raises(ValidationError, match="seed"):
            shared.at(seed)
    shared.at(2**64 - 1)


def test_segment_sums_empty_segments():
    terms = np.arange(1.0, 6.0)[None]
    bounds = np.array([0, 0, 2, 2, 5, 5])
    assert _segment_sums(terms, bounds)[:, 0].tolist() == [0.0, 3.0, 0.0, 12.0, 0.0]
