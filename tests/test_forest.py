"""Forest blocks: every replicate of a block simulated and fitted at once.

A forest replicate must be the tree the single-tree path simulates from
the same seed, bit for bit, and its per-generation statistics must match
the single-tree table up to summation order.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from bartree import (
    BarParams,
    NoiseParams,
    ObservationMask,
    ReproductionLaw,
    simulate_joint,
    theta_path,
)
from bartree import estimation
from bartree.estimation import (
    _exact_prefix,
    _forest_table,
    _Frame,
    _frames,
    _segment_sums,
    _stats_table,
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
    assert forest.depth == depth
    assert forest.mask.total_count(depth) == sum(t.mask.total_count(depth) for t in trees)
    for i, tree in enumerate(trees):
        mask, values, noise = _replicate(forest, i)
        assert mask == tree.mask
        assert _same_bits(values, tree.values)
        assert _same_bits(noise, tree.noise)
    if depth == 0:
        return

    _, table = _forest_table(forest, depth - 1)
    path = estimation.forest_theta_path(forest, depth)
    for i, tree in enumerate(trees):
        frames = _frames(tree, depth - 1)
        single = _stats_table(frames)
        scale = _stats_table([f and _abs_frame(f) for f in frames])
        assert np.all(np.abs(table[i] - single) <= 1e-12 * scale)
        assert np.array_equal(path.regularized[i], theta_path(tree, depth).regularized)


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
