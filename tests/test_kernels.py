"""The per-generation kernels against plain per-cell references.

The mask draw, the noise fill and the frames build each generation from
its ``(cells, 2)`` offspring flags in one numpy pass.  Here each is
recomputed cell by cell over node ids, with Python floats, and must
agree bit for bit.  A generation whose flags are all set takes views and
three design sums instead; its statistics must match the zero-filled path.
A single tree's kernels also hold their temporaries to a few bytes per cell.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings, strategies as st

from bartree import BarParams, NoiseParams, ObservedTree, ReproductionLaw, rng, simulate_joint
from bartree.estimation import (
    _frames, _generation_stats, _residual_sums, estimate_theta, sequential_variance_functionals,
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
        assert got.mask.generations[r].tolist() == ids
        assert got.values[r].tobytes() == _bits([v[k] for gens, v, _ in refs for k in gens[r]])
        if r:
            assert got.noise[r].tobytes() == _bits([e[k] for gens, _, e in refs for k in gens[r]])
    for r, flags in enumerate(got.mask.offspring):
        want = [(2 * k in nxt, 2 * k + 1 in nxt)
                for gens, _, _ in refs for nxt in [set(gens[r + 1])] for k in gens[r]]
        assert flags.tolist() == [list(w) for w in want]
    if depth == 0:
        return
    for r, f in enumerate(_frames(got, depth - 1)):
        cells = [(k, v, e) for gens, v, e in refs for k in gens[r]]
        if not cells:
            assert f is None
            continue
        assert f.xk.tobytes() == _bits([v[k] for k, v, _ in cells])
        for side, has, x, eps in ((0, f.has_e, f.xe, f.eps_e), (1, f.has_o, f.xo, f.eps_o)):
            kids = [(2 * k + side, v, e) for k, v, e in cells]
            assert has.tolist() == [kid in v for kid, v, _ in kids]
            assert x.tobytes() == _bits([v.get(kid, 0.0) for kid, v, _ in kids])
            assert eps.tobytes() == _bits([e.get(kid, 0.0) for kid, _, e in kids])


def _zero_filled(tree, r, f):
    """Generation ``r``'s frame ``f`` rebuilt on the general path: zero-filled column copies."""
    flags = tree.mask.offspring[r]

    def expand(daughters):
        pair = np.zeros(flags.shape)
        pair[flags] = daughters
        return pair[:, 0].copy(), pair[:, 1].copy()

    xe, xo = expand(tree.values[r + 1])
    eps_e, eps_o = expand(tree.noise[r + 1] if tree.has_noise else np.zeros(flags.sum()))
    return dataclasses.replace(f, xe=xe, xo=xo, eps_e=eps_e, eps_o=eps_o, full=False)


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
    data = ObservedTree(mask=got.mask, values=got.values)  # no recorded noise
    reps = got.mask.replicates
    thetas = np.random.default_rng(depth).normal(size=(depth, reps, 4))
    for tree in (got, data):
        frames = _frames(tree, depth - 1) if depth else []
        for r, f in enumerate(frames):
            assert f.full
            ref = _zero_filled(tree, r, f)
            bounds = tree.mask.bounds[r]
            assert (_generation_stats(f, bounds, forest).tobytes()
                    == _generation_stats(ref, bounds, forest).tobytes())
            for fourth in (False, True):
                assert (_residual_sums(f, thetas[r], bounds, forest, fourth).tobytes()
                        == _residual_sums(ref, thetas[r], bounds, forest, fourth).tobytes())


def test_single_tree_memory_floor():
    # a depth-16 full tree (131,071 cells): simulating and fitting it holds
    # at most 9 B per cell beyond the tree's own values, noise and flags
    depth, args = 16, (BAR, NOISE, LAWS["full"])
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
    assert max(excess.values()) <= 9.0, f"bytes per cell above the tree's arrays: {excess}"


def test_mask_memory_floor():
    # a depth-16 full-law mask (131,071 cells) peaks at most 8 B per cell,
    # its own 1 B of flags included: one int64 per daughter of the newest
    # generation, and nothing else that grows with the tree
    depth, law = 16, LAWS["full"]
    simulate_mask(law, 2)  # lazy imports stay out of the trace
    tracemalloc.start()
    try:
        mask = simulate_mask(law, depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_cell = peak / mask.total_count(depth)
    assert per_cell <= 8.0, f"simulate_mask peaks at {per_cell:.2f} B per cell"
