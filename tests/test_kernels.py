"""The per-generation kernels against plain per-cell references.

The mask draw, the noise fill and the frames build each generation from
its ``(cells, 2)`` offspring flags in one numpy pass (a forest's frames
a run of generations at once).  Here each is recomputed cell by cell
over node ids, with Python floats, and must agree bit for bit.  A frame
whose flags are all set takes views and three design sums instead; its
statistics must match the zero-filled path.  The in-place noise fill
must give the bits of its plain expressions.  A single tree's kernels
also hold their temporaries to a few bytes per cell, and a forest
block's to a bound per cell.
"""

import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bartree import (
    BarParams, NoiseParams, ObservationMask, ObservedTree, ReproductionLaw, rng, simulate_joint,
)
from bartree.bar import _fill_generation
from bartree.estimation import (
    _forest_residuals, _forest_stats, _frames, _generation_stats, _residual_sums, estimate_theta,
    sequential_variance_functionals, theta_path,
)
from bartree.gw import OUTCOMES, simulate_mask

LAWS = {
    "full": ReproductionLaw.full_observation(),
    "missing": ReproductionLaw.from_mean_matrix([[0.9, 0.4], [0.3, 0.8]]),  # growth rate 1.2
    "dense": ReproductionLaw.from_mean_matrix([[0.95, 0.9], [0.9, 0.95]]),  # 1.85
}
BAR = BarParams(0.5, 0.3, -0.4, 0.7)
NOISE = NoiseParams(1.0, 0.5)


def reference_tree(law, depth, root_type, x1, seed):
    """One tree simulated cell by cell: ``(generations, values, noise)``, keyed by node id.

    Each observed cell, in generation and then id order, takes the next
    uniform of its mask stream; its outcome is the count of its type's
    first three cumulative thresholds the uniform passes.  Each observed
    mother, in the same order, takes the next normal pair of its noise
    stream; a daughter is its drift plus the mixed pair.
    """
    cum = law.cumulative()
    uniforms = iter(rng.Stream(rng.MASK_STREAM).at(seed).random(2**depth).tolist())
    generations = [[1]]
    for _ in range(depth):
        kids = []
        for k in generations[-1]:
            kind = root_type if k == 1 else k % 2
            u = next(uniforms)
            even, odd = OUTCOMES[sum(u >= c for c in cum[kind, :3].tolist())]
            kids += [2 * k] * even + [2 * k + 1] * odd
        generations.append(kids)
    mothers = sum(len(g) for g in generations[:-1])
    pairs = iter(rng.Stream(rng.NOISE_STREAM).at(seed).standard_normal((mothers, 2)).tolist())
    sig = math.sqrt(NOISE.sigma2)
    rp = NOISE.rho_prime
    mix = math.sqrt(max(1.0 - rp * rp, 0.0))
    observed = {k for gen in generations for k in gen}
    values, noise = {1: float(x1)}, {}
    for gen in generations[:-1]:
        for k in gen:
            z0, z1 = next(pairs)
            x = values[k]
            for kid, drift, eps in ((2 * k, BAR.a + BAR.b * x, sig * z0),
                                    (2 * k + 1, BAR.c + BAR.d * x, sig * (rp * z0 + mix * z1))):
                if kid in observed:
                    values[kid] = drift + eps
                    noise[kid] = values[kid] - drift
    return generations, values, noise


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@settings(deadline=None, max_examples=30)
@given(
    law=st.sampled_from(sorted(LAWS)),
    depth=st.integers(min_value=0, max_value=12),
    root_type=st.integers(min_value=0, max_value=1),
    seeds=st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=3),
    forest=st.booleans(),
)
@example(law="missing", depth=6, root_type=1, seeds=[5, 6], forest=True)
def test_kernels_match_per_cell_reference(law, depth, root_type, seeds, forest):
    seed = seeds if forest else seeds[0]
    got = simulate_joint(BAR, NOISE, LAWS[law], depth, root_type=root_type, x1=0.25, seed=seed)
    refs = [reference_tree(LAWS[law], depth, root_type, 0.25, s)
            for s in (seeds if forest else seeds[:1])]
    for r in range(depth + 1):
        ids = [k for gens, _, _ in refs for k in gens[r]]
        assert got.mask.ids[got.mask.starts[r]:got.mask.starts[r + 1]].tolist() == ids
        assert got.values[r].tobytes() == _bits([v[k] for gens, v, _ in refs for k in gens[r]])
        if r:
            assert got.noise[r].tobytes() == _bits([e[k] for gens, _, e in refs for k in gens[r]])
    for r, flags in enumerate(got.mask.offspring):
        want = [(2 * k in nxt, 2 * k + 1 in nxt)
                for gens, _, _ in refs for nxt in [set(gens[r + 1])] for k in gens[r]]
        assert flags.tolist() == [list(w) for w in want]
    if depth == 0:
        return
    frames = list(_frames(got, 0, depth))
    assert [f.first for f in frames] + [depth] == [0] + [f.stop for f in frames]
    for f in frames:
        # a frame's mothers run by generation, and within one by replicate
        cells = [(k, v, e) for r in range(f.first, f.stop) for gens, v, e in refs for k in gens[r]]
        assert f.xk.tobytes() == _bits([v[k] for k, v, _ in cells])
        for side, has, x, eps in ((0, f.has_e, f.xe, f.eps_e), (1, f.has_o, f.xo, f.eps_o)):
            kids = [(2 * k + side, v, e) for k, v, e in cells]
            assert has.tolist() == [kid in v for kid, v, _ in kids]
            assert x.tobytes() == _bits([v.get(kid, 0.0) for kid, v, _ in kids])
            assert eps.tobytes() == _bits([e.get(kid, 0.0) for kid, _, e in kids])


def _zero_filled(tree, f):
    """The frame ``f`` rebuilt on the general path: zero-filled column copies.

    A tree without recorded noise has no noise columns on either path.
    """
    flags = np.concatenate(tree.mask.offspring[f.first:f.stop])

    def expand(daughters):
        pair = np.zeros(flags.shape)
        pair[flags] = np.concatenate(daughters)
        return pair[:, 0].copy(), pair[:, 1].copy()

    kids = slice(f.first + 1, f.stop + 1)
    xe, xo = expand(tree.values[kids])
    eps_e, eps_o = expand(tree.noise[kids]) if tree.has_noise else (None, None)
    return dataclasses.replace(f, xe=xe, xo=xo, eps_e=eps_e, eps_o=eps_o, full=False)


def _views_of(views, flat):
    """Whether ``views`` are the back-to-back slices of ``flat``, each a view of it."""
    shared = all(v.size == 0 or np.shares_memory(v, flat) for v in views)
    return shared and np.array_equal(np.concatenate(views), flat)


def test_one_flat_layout():
    # a mask holds one flags array and a tree one values and one noise
    # array, and every per-generation array is a view of them: masks drawn
    # alone (full, missing and a certain law that is not full), read from
    # ids, trees built from ids and values and simulated, each as a tree
    # and as a 3-seed forest where it can be one.  The roots' noise is 0
    certain = ReproductionLaw.from_tables({"11": 1.0}, {"10": 1.0})
    masks, trees = [], []
    for seed in (4, [4, 5, 6]):
        masks += [simulate_mask(law, 9, seed=seed) for law in (LAWS["full"], LAWS["missing"], certain)]
        trees += [simulate_joint(BAR, NOISE, LAWS[law], 9, seed=seed) for law in ("full", "missing")]
    ids, x = trees[1].mask.ids, trees[1].x
    masks.append(ObservationMask.from_ids(ids, 9))
    trees.append(ObservedTree.from_arrays(ids, x, depth=9))
    for mask in masks + [t.mask for t in trees]:
        assert len(mask.offspring) == mask.depth
        assert _views_of(mask.offspring + [mask.flags[:0]], mask.flags)
    for tree in trees:
        assert len(tree.values) == tree.depth + 1 and _views_of(tree.values, tree.x)
        assert not tree.has_noise or (_views_of(tree.noise, tree.eps) and not tree.noise[0].any())
    # a forest frame over a run of generations slices the forest's arrays
    for forest in trees[2:4]:
        runs = [f for f in _frames(forest, 0, forest.depth) if f.stop - f.first > 1]
        assert runs
        for f in runs:
            x, eps, flags = forest.x, forest.eps, forest.mask.flags
            columns = [(f.xk, x), (f.has_e, flags), (f.has_o, flags)]
            if f.full:
                columns += [(f.xe, x), (f.xo, x), (f.eps_e, eps), (f.eps_o, eps)]
            assert all(np.shares_memory(col, flat) for col, flat in columns)


@settings(deadline=None, max_examples=30)
@given(
    depth=st.integers(min_value=0, max_value=12),
    noise=st.sampled_from([NoiseParams(0.0), NOISE, NoiseParams(1.0, -0.3)]),
    seeds=st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=3),
    forest=st.booleans(),
    x1=st.floats(min_value=-20.0, max_value=20.0).filter(lambda x: x != 0.0),
)
@example(depth=12, noise=NOISE, seeds=[3], forest=False, x1=2.5)
@example(depth=9, noise=NoiseParams(0.0), seeds=[3, 4], forest=True, x1=-1.5)
def test_full_generation_kernels_match_zero_filled(depth, noise, seeds, forest, x1):
    seed = seeds if forest else seeds[0]
    got = simulate_joint(BAR, noise, LAWS["full"], depth, x1=x1, seed=seed)
    data = ObservedTree(mask=got.mask, x=got.x)  # no recorded noise
    thetas = np.random.default_rng(depth).normal(size=(depth, got.mask.replicates, 4))
    for tree in (got, data):
        for f in _frames(tree, 0, depth) if depth else []:
            assert f.full
            assert (f.eps_e is None) == (f.eps_o is None) == (not tree.has_noise)
            ref = _zero_filled(tree, f)
            if forest:
                fits = thetas[f.first:f.stop].reshape(-1, 4)
                calls = [lambda g: _forest_stats(g)]
                calls += [lambda g, k=k: _forest_residuals(g, fits, k) for k in (False, True)]
            else:
                calls = [lambda g: _generation_stats(g)]
                calls += [lambda g, k=k: _residual_sums(g, thetas[f.first, 0], k) for k in (False, True)]
            for call in calls:
                assert call(f).tobytes() == call(ref).tobytes()


def _old_fill_generation(bar, noise, xk, z, flags):
    """The fill as plain expressions over fresh arrays: ``(x_next, e_next)``."""
    sig = math.sqrt(noise.sigma2)
    rp = noise.rho_prime
    mix = math.sqrt(max(1.0 - rp * rp, 0.0))
    drift = np.empty(flags.shape)
    drift[:, 0] = bar.a + bar.b * xk
    drift[:, 1] = bar.c + bar.d * xk
    child = np.empty(flags.shape)
    child[:, 0] = sig * z[:, 0]
    child[:, 1] = sig * (rp * z[:, 0] + mix * z[:, 1])
    child += drift
    x_next, drift_next = child[flags], drift[flags]
    return x_next, x_next - drift_next


@pytest.mark.parametrize("sigma2", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("rho_prime", [-1.0, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("kept", ["full", "partial", "empty"])
@pytest.mark.parametrize("bar", [BAR, BarParams(0.0, 0.3, -0.0, 0.7)], ids=["bar", "zero-intercepts"])
def test_fill_generation_matches_plain_expressions(sigma2, rho_prime, kept, bar):
    # the in-place fill gives the bits of the plain expressions, -0.0
    # included (zero intercepts and zero mothers give signed zero drifts);
    # a full generation forms its rows in the daughters' own slots, with
    # the normals drawn there and the noise slots as scratch
    noise = types.SimpleNamespace(sigma2=sigma2, rho_prime=rho_prime)
    gen = np.random.default_rng(7)
    m = 257
    xk = gen.normal(scale=3.0, size=m)
    xk[:6] = [0.0, -0.0, -0.0, -0.0, 1e-300, -5e300]
    normals = gen.standard_normal((m, 2))
    normals[:4] = [[0.0, -0.0], [-0.0, 0.0], [-1.5, -2.0], [1.5, -2.0]]
    flags = {"full": np.ones((m, 2), dtype=bool),
             "partial": gen.random((m, 2)) < 0.6,
             "empty": np.zeros((m, 2), dtype=bool)}[kept]
    want_x, want_e = _old_fill_generation(bar, noise, xk, normals, flags)
    x_next, e_next = np.full(want_x.size, np.nan), np.full(want_x.size, np.nan)
    if kept == "full":
        z, drift = x_next.reshape(-1, 2), e_next.reshape(-1, 2)
    else:
        z, drift = np.empty((m, 2)), np.empty((m, 2))
    z[:] = normals
    _fill_generation(bar, noise, xk, z, drift, flags, x_next, e_next)
    assert x_next.tobytes() == want_x.tobytes()
    assert e_next.tobytes() == want_e.tobytes()


def test_single_tree_memory_floor():
    # a depth-16 full tree (131,071 cells), in bytes per cell beyond the
    # tree's own values, noise and flags: simulating it holds at most 1
    # (its normals land in the daughters' slots), and fitting it at most 9
    depth, args = 16, (BAR, NOISE, LAWS["full"])
    bounds = {"simulate_joint": 1.0, "estimate_theta": 9.0, "sequential_variance_functionals": 9.0}
    small = simulate_joint(*args, 2, seed=3)  # lazy imports stay out of the trace
    estimate_theta(small, 2)
    sequential_variance_functionals(small, 2)
    peaks = {}
    tracemalloc.start()
    try:
        tree = simulate_joint(*args, depth, seed=3)
        peaks["simulate_joint"] = tracemalloc.get_traced_memory()[1]
        for fit in (estimate_theta, sequential_variance_functionals):
            tracemalloc.reset_peak()
            fit(tree, depth)
            peaks[fit.__name__] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for a in tree.values + tree.noise + tree.mask.offspring)
    cells = tree.mask.total_count(depth)
    excess = {name: round((peak - own) / cells, 2) for name, peak in peaks.items()}
    over = {name: (b, bounds[name]) for name, b in excess.items() if b > bounds[name]}
    assert not over, f"bytes per cell above the tree's arrays (peak, bound): {over}; all {excess}"


@pytest.mark.parametrize("law, depth, trees, bound", [
    ("full", 12, 8, 32.0),        # an mc_full block
    ("missing", 16, 300, 95.0),   # an mc_missing block
])
def test_forest_block_memory_floor(law, depth, trees, bound):
    # simulating and fitting a Monte Carlo block holds at most `bound` B per
    # cell beyond the forest's own values, noise and flags: the memoised
    # running sums of the statistics table (one row per replicate and
    # generation, which dominates the small trees of the missing-data
    # block), the frames of the pass under way and one generation group's
    # per-cell terms
    args, fits = (BAR, NOISE, LAWS[law]), (estimate_theta, sequential_variance_functionals, theta_path)
    small = simulate_joint(*args, 2, seed=[1, 2])  # lazy imports stay out of the trace
    for fit in fits:
        fit(small, 2)
    peaks = {}
    tracemalloc.start()
    try:
        forest = simulate_joint(*args, depth, seed=list(range(trees)))
        peaks["simulate_joint"] = tracemalloc.get_traced_memory()[1]
        for fit in fits:
            tracemalloc.reset_peak()
            fit(forest, depth)
            peaks[fit.__name__] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for a in forest.values + forest.noise + forest.mask.offspring)
    cells = forest.mask.total_count(depth)
    excess = {name: round((peak - own) / cells, 2) for name, peak in peaks.items()}
    assert max(excess.values()) <= bound, f"bytes per cell above the forest's arrays: {excess}"


def test_mask_memory_floor():
    # a depth-16 full-law mask (131,071 cells) peaks at most 4 B per cell,
    # its own 1 B of flags included: a cell's type is one byte, and the
    # newest mothers' types widened to int64 to index their flags are
    # all else that grows with the tree.  A depth-18 dense-law mask
    # (91,700 and 101,500 cells) also holds its uniforms, drawn ahead (8 B
    # per expected cell) and read as one slice: at most 11.5 B per cell
    simulate_mask(LAWS["dense"], 2)  # lazy imports stay out of the trace
    over = {}
    for law, depth, seed, bound in (("full", 16, 0, 4.0), ("dense", 18, 1, 11.5), ("dense", 18, 2, 11.5)):
        tracemalloc.start()
        try:
            mask = simulate_mask(LAWS[law], depth, seed=seed)
            per_cell = tracemalloc.get_traced_memory()[1] / mask.total_count(depth)
        finally:
            tracemalloc.stop()
        if per_cell > bound:
            over[law, seed] = (round(per_cell, 2), bound)
    assert not over, f"simulate_mask peaks (B per cell, bound) above the bound: {over}"
