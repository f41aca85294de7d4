"""Observation-process tests: spectral theory, extinction, masks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bartree import (
    ExtinctionError,
    NumericalError,
    ObservationMask,
    ObservedTree,
    ReproductionLaw,
    ValidationError,
    estimate_pi,
    extinction_probabilities,
    gw,
    rng,
    renormalized_population,
    simulate_mask,
    spectral,
)

MISSING_MEANS = [[0.9, 0.4], [0.3, 0.8]]


def missing_law():
    return ReproductionLaw.from_mean_matrix(MISSING_MEANS)


def symmetric_law(p11, p00):
    table = {"11": p11, "00": p00}
    return ReproductionLaw.from_tables(table, table)


# ---------------------------------------------------------------------------
# law validation


def test_law_rejects_bad_sum():
    with pytest.raises(ValidationError):
        ReproductionLaw.from_tables({"11": 0.8}, {"11": 1.0})


def test_law_rejects_negative():
    with pytest.raises(ValidationError):
        ReproductionLaw(np.array([[1.2, -0.2, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))


@pytest.mark.parametrize("p", [float("nan"), float("inf")])
def test_law_rejects_non_finite(p):
    with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
        ReproductionLaw.from_tables({"11": 1.0, "10": p}, {"11": 1.0})


def test_law_rejects_unknown_outcome():
    with pytest.raises(ValidationError, match=r"unknown offspring outcomes \['21'\]"):
        ReproductionLaw.from_tables({"21": 1.0}, {"11": 1.0})


def test_mean_matrix_of_product_law():
    law = missing_law()
    assert np.allclose(law.mean_matrix, MISSING_MEANS, atol=1e-15)


# ---------------------------------------------------------------------------
# spectral


def test_spectral_full_observation_exact():
    s = spectral(ReproductionLaw.full_observation())
    assert s.growth_rate == 2.0
    assert np.array_equal(s.left_eigenvector, [0.5, 0.5])
    assert s.supercritical
    assert s.pair_fraction == 1.0


def test_spectral_symmetric_common_row_sum():
    s = spectral(ReproductionLaw.from_mean_matrix([[0.7, 0.7], [0.7, 0.7]]))
    assert abs(s.growth_rate - 1.4) < 1e-15
    assert np.allclose(s.left_eigenvector, [0.5, 0.5], atol=1e-15)


def test_spectral_missing_law_closed_form():
    # trace 1.7, determinant 0.60: growth rate (1.7 + sqrt(0.49)) / 2
    s = spectral(missing_law())
    assert abs(s.growth_rate - 1.2) < 1e-12
    # independent oracle: a dense eigen solver
    vals, vecs = np.linalg.eig(np.asarray(MISSING_MEANS))
    assert abs(s.growth_rate - vals.max().real) < 1e-12


def test_spectral_eigen_equations():
    s = spectral(missing_law())
    m, pi = s.mean_matrix, s.growth_rate
    assert np.allclose(s.left_eigenvector @ m, pi * s.left_eigenvector, atol=1e-12)
    assert abs(s.left_eigenvector.sum() - 1.0) < 1e-15
    assert (s.left_eigenvector > 0).all()


def test_spectral_rejects_zero_entry():
    law = ReproductionLaw.from_tables({"11": 1.0}, {"01": 1.0})  # type-1 never has even child
    with pytest.raises(ValidationError):
        spectral(law)


def test_spectral_subcritical_flag():
    s = spectral(symmetric_law(0.4, 0.6))
    assert abs(s.growth_rate - 0.8) < 1e-15
    assert not s.supercritical
    q = extinction_probabilities(s.law)
    assert abs(q[0] - 1.0) < 1e-10 and abs(q[1] - 1.0) < 1e-10


def test_pair_fraction_definition():
    s = spectral(missing_law())
    law = s.law
    z = s.left_eigenvector
    expected = law.both_children_probability(0) * z[0] + law.both_children_probability(1) * z[1]
    assert s.pair_fraction == expected


# ---------------------------------------------------------------------------
# extinction probabilities


def test_extinction_full_tree():
    assert extinction_probabilities(ReproductionLaw.full_observation()) == (0.0, 0.0)


def test_extinction_smallest_root_of_quadratic():
    # q = 0.25 + 0.75 q^2 has roots 1/3 and 1; the iteration must find 1/3
    q = extinction_probabilities(symmetric_law(0.75, 0.25))
    assert abs(q[0] - 1.0 / 3.0) < 1e-10
    assert abs(q[1] - 1.0 / 3.0) < 1e-10


def test_extinction_subcritical_dies_out():
    q = extinction_probabilities(symmetric_law(0.4, 0.6))
    assert abs(q[0] - 1.0) < 1e-10 and abs(q[1] - 1.0) < 1e-10


def test_extinction_fixed_point_property():
    law = missing_law()
    q0, q1 = extinction_probabilities(law)
    assert abs(law.generating_function(0, q0, q1) - q0) < 1e-11
    assert abs(law.generating_function(1, q0, q1) - q1) < 1e-11
    assert 0.0 <= q0 < 1.0 and 0.0 <= q1 < 1.0


# ---------------------------------------------------------------------------
# mask simulation


def test_full_law_gives_complete_tree():
    mask = simulate_mask(ReproductionLaw.full_observation(), 5, seed=1)
    for n in range(6):
        assert mask.generation_count(n) == 2**n
    for n in range(1, 6):
        assert mask.counts[n, 0] == 2 ** (n - 1)
        assert mask.counts[n, 1] == 2 ** (n - 1)


def _stream_reads(monkeypatch):
    """Seeds that ``rng.Stream.at`` keys, recorded as ``(stream constant, seed)``."""
    reads = []
    at = rng.Stream.at

    def spy(self, seed, offset=0):
        reads.append((int(self._key[1]), seed))
        return at(self, seed, offset)

    monkeypatch.setattr(rng.Stream, "at", spy)
    return reads


def _forest_of(tree, replicates):
    """The forest of ``replicates`` copies of one tree's mask."""
    flags = np.concatenate([tree.flags[:0]] + [np.tile(f, (replicates, 1)) for f in tree.offspring])
    return ObservationMask(tree.depth, tree.root_type, flags, trees=replicates)


def _grown_ids(outcomes, depth, root_type):
    """Ids of the tree in which a type-``t`` cell always has outcome ``outcomes[t]``."""
    ids, cells = [1], [(1, root_type)]
    for _ in range(depth):
        cells = [(2 * k + j, j) for k, t in cells for j in (0, 1) if outcomes[t][j] == "1"]
        ids += [k for k, _ in cells]
    return ids


@pytest.mark.parametrize("depth", [0, 1, 7])
@pytest.mark.parametrize("root_type", [0, 1])
def test_certain_laws_give_their_one_tree(depth, root_type, monkeypatch):
    # a law whose every outcome is sure draws no uniform from the mask
    # stream, and grows the tree its outcomes fix, for any seed
    reads = _stream_reads(monkeypatch)
    fixed = ReproductionLaw.from_tables({"10": 1.0}, {"11": 1.0})
    for law, outcomes in ((ReproductionLaw.full_observation(), ("11", "11")), (fixed, ("10", "11"))):
        tree = ObservationMask.from_ids(_grown_ids(outcomes, depth, root_type), depth, root_type)
        for seed in (0, 5, 2**64 - 1):
            assert simulate_mask(law, depth, root_type, seed=seed) == tree
        assert simulate_mask(law, depth, root_type, seed=[3, 1, 4]) == _forest_of(tree, 3)
    assert reads == []
    if depth:  # a law with a threshold inside (0, 1) reads its stream
        simulate_mask(missing_law(), depth, root_type, seed=[3, 1])
        assert reads[:2] == [(rng.MASK_STREAM, 3), (rng.MASK_STREAM, 1)]


def test_certain_law_checks_its_seeds():
    for seed in (-1, 2**64, 1.5, [2, -1]):
        with pytest.raises(ValidationError, match="seed"):
            simulate_mask(ReproductionLaw.full_observation(), 3, seed=seed)


def test_law_with_a_threshold_just_below_one_draws(monkeypatch):
    # type 0's last threshold is 1 - 1e-13: no certain law, so the mask
    # stream is read, though every draw here gives the odd child only
    law = ReproductionLaw(np.array([[0.0, 0.0, 1 - 1e-13, 1e-13], [0.0, 0.0, 0.0, 1.0]]))
    reads = _stream_reads(monkeypatch)
    mask = simulate_mask(law, 6, seed=11)
    assert reads == [(rng.MASK_STREAM, 11)]
    assert mask == ObservationMask.from_ids(_grown_ids(("01", "11"), 6, 0), 6, 0)


def test_generation_sizes_are_memoised_read_only():
    mask = simulate_mask(missing_law(), 9, seed=[4, 8, 15, 16])
    through = 0
    for n in range(10):
        sizes = mask.generation_sizes(n)
        through = through + np.diff(mask.bounds[n])
        assert np.array_equal(sizes, np.diff(mask.bounds[n]))
        assert np.array_equal(mask.cells_through(n), through)
        for got in (sizes, mask.cells_through(n)):
            with pytest.raises(ValueError):
                got[0] = 0
    assert mask.cells_through(9).sum() == mask.total_count(9)


def test_mask_determinism():
    law = missing_law()
    a = simulate_mask(law, 10, seed=42)
    b = simulate_mask(law, 10, seed=42)
    assert np.array_equal(a.ids, b.ids)
    c = simulate_mask(law, 10, seed=43)
    assert not np.array_equal(a.ids, c.ids)


def test_mask_equality():
    law = missing_law()
    a = simulate_mask(law, 10, seed=42)
    assert a == simulate_mask(law, 10, seed=42)
    assert a == ObservationMask.from_ids(a.ids, a.depth, a.root_type)
    assert a != simulate_mask(law, 10, seed=43)
    assert a != ObservationMask.from_ids(a.ids, a.depth + 1, a.root_type)
    assert a != ObservationMask.from_ids(a.ids, a.depth, 1 - a.root_type)
    assert (a == "mask") is False
    assert simulate_mask(law, 10, seed=[42]) != a  # a forest of one is not its tree
    for m in (a, simulate_mask(law, 10, seed=[42, 43, 44])):
        copy = dataclasses.replace(m)  # keeps the tree count, so a tree stays a tree
        assert copy == m and copy.forest == m.forest
        assert np.array_equal(copy.bounds, m.bounds) and np.array_equal(copy.starts, m.starts)


def test_mask_prefix_closure_and_counts():
    law = missing_law()
    for seed in range(25):
        mask = simulate_mask(law, 8, seed=seed)
        observed = set(mask.ids.tolist())
        for k in observed:
            if k >= 2:
                assert k // 2 in observed
        # counts match a recount of the id arrays by parity
        for n in range(1, 9):
            ids = mask.ids[mask.starts[n]:mask.starts[n + 1]]
            assert mask.counts[n, 0] == np.count_nonzero(ids % 2 == 0)
            assert mask.counts[n, 1] == np.count_nonzero(ids % 2 == 1)


def test_depth_one_outcome_frequencies():
    # law with p(1,0) = 0.3 for type 0; root_type 0, so the root draws it
    law = ReproductionLaw.from_tables(
        {"00": 0.2, "10": 0.3, "01": 0.1, "11": 0.4}, {"11": 1.0}
    )
    reps = 10_000
    only_even = 0
    for seed in range(reps):
        mask = simulate_mask(law, 1, root_type=0, seed=seed)
        kids = mask.ids[mask.starts[1]:mask.starts[2]]
        if kids.size == 1 and kids[0] == 2:
            only_even += 1
    se = math.sqrt(0.3 * 0.7 / reps)
    assert abs(only_even / reps - 0.3) < 3 * se


def test_root_type_selects_law():
    # type-1 parents always keep both children; type-0 parents none
    law = ReproductionLaw.from_tables({"00": 1.0}, {"11": 1.0})
    dead = simulate_mask(law, 3, root_type=0, seed=0)
    assert dead.generation_count(1) == 0
    alive = simulate_mask(law, 1, root_type=1, seed=0)
    assert alive.generation_count(1) == 2


def test_extinction_frequency_matches_q():
    law = symmetric_law(0.75, 0.25)
    reps, block = 3000, 250
    extinct = sum(  # forest blocks of 250 trees
        int((simulate_mask(law, 12, seed=list(range(start, start + block)))
             .generation_sizes(12) == 0).sum())
        for start in range(0, reps, block)
    )
    se = math.sqrt((1 / 3) * (2 / 3) / reps)
    assert abs(extinct / reps - 1 / 3) < 3 * se + 0.01  # depth-12 extinction is not quite final


# ---------------------------------------------------------------------------
# mask container


def test_from_ids_validation():
    with pytest.raises(ValidationError):
        ObservationMask.from_ids([2, 3])  # missing root
    with pytest.raises(ValidationError):
        ObservationMask.from_ids([1, 5])  # orphan: mother 2 missing
    with pytest.raises(ValidationError, match="duplicate node ids: node 2"):
        ObservationMask.from_ids([1, 3, 2, 2, 3])  # repeated ids are not merged
    for flags in (np.array([[1, 1]]), np.ones(2, bool), np.ones((1, 3), bool), [[True, True]]):
        with pytest.raises(ValidationError, match="boolean"):  # not boolean (cells, 2) flags
            ObservationMask(depth=1, root_type=0, flags=flags)
    with pytest.raises(ValidationError, match="generation 1: fewer offspring flag rows"):
        ObservationMask(depth=2, root_type=0, flags=np.ones((2, 2), bool))  # one row, two cells
    with pytest.raises(ValidationError, match="2 offspring flag rows for 1 mothers"):
        ObservationMask(depth=1, root_type=0, flags=np.ones((2, 2), bool))
    for trees in (0, -1, 2.5):
        with pytest.raises(ValidationError, match="a forest needs a whole number of trees"):
            ObservationMask(depth=1, root_type=0, flags=np.ones((1, 2), bool), trees=trees)
    pair = ObservationMask(depth=1, root_type=0, flags=np.ones((1, 2), bool))
    for x, eps in ((np.zeros(2), None), (np.zeros((3, 1)), None), ([0.0] * 3, None),
                   (np.zeros(3), np.zeros(2)), (np.zeros(3), np.zeros((3, 1)))):
        with pytest.raises(ValidationError, match="misaligned with mask"):
            ObservedTree(mask=pair, x=x, eps=eps)
    ObservedTree(mask=pair, x=np.zeros(3), eps=np.zeros(3))
    mask = ObservationMask.from_ids([1, 2, 3, 6], depth=3)
    assert mask.depth == 3
    assert mask.generation_count(2) == 1 and mask.generation_count(3) == 0


MASK_LAWS = {
    "full": ReproductionLaw.full_observation(),
    "missing": ReproductionLaw.from_mean_matrix(MISSING_MEANS),  # growth rate 1.2
    "dense": ReproductionLaw.from_mean_matrix([[0.95, 0.9], [0.9, 0.95]]),  # 1.85
}


@pytest.mark.parametrize("law", sorted(MASK_LAWS))
@pytest.mark.parametrize("n_seeds", [3, 300])
def test_forest_bounds_are_running_tree_counts(law, n_seeds):
    # replicate i's cells of a generation start after those of the trees
    # before it: the bounds are running sums of each tree's own counts
    depth, seeds = 9, list(range(100, 100 + n_seeds))
    forest = simulate_mask(MASK_LAWS[law], depth, seed=seeds)
    trees = [simulate_mask(MASK_LAWS[law], depth, seed=s) for s in seeds]
    for r in range(depth + 1):
        running = np.cumsum([0] + [t.generation_count(r) for t in trees])
        assert np.array_equal(forest.bounds[r], running)
        assert forest.starts[r + 1] - forest.starts[r] == running[-1]


@settings(deadline=None)
@given(
    law=st.sampled_from(sorted(MASK_LAWS)),
    depth=st.integers(min_value=0, max_value=12),
    root_type=st.integers(min_value=0, max_value=1),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_offspring_flags_match_ids(law, depth, root_type, seed, data):
    mask = simulate_mask(MASK_LAWS[law], depth, root_type=root_type, seed=seed)
    back = ObservationMask.from_ids(mask.ids, mask.depth, mask.root_type)
    assert len(back.offspring) == len(mask.offspring) == depth
    assert all(np.array_equal(a, b) for a, b in zip(mask.offspring, back.offspring))
    assert np.array_equal(mask.ids, back.ids)
    assert np.array_equal(mask.counts, back.counts)

    # child positions against a search of the next generation's ids
    s = mask.starts
    for r in range(depth):
        parents, kids = mask.ids[s[r]:s[r + 1]], mask.ids[s[r + 1]:s[r + 2]]
        has_e, pos_e, has_o, pos_o = mask.child_positions(r)
        for side, has, pos in ((0, has_e, pos_e), (1, has_o, pos_o)):
            child = 2 * parents + side
            assert np.array_equal(has, np.isin(child, kids))
            assert np.array_equal(pos[has], np.searchsorted(kids, child[has]))

    # dropping observed mothers leaves orphans; the smallest one is named
    ids = set(mask.ids.tolist())
    mothers = sorted(k for k in ids if k >= 2 and (2 * k in ids or 2 * k + 1 in ids))
    if len(mothers) >= 2:
        dropped = data.draw(st.sets(st.sampled_from(mothers), min_size=2))
        kept = ids - dropped
        orphan = min(k for k in kept if k >= 2 and k // 2 not in kept)
        message = f"node {orphan} is listed but its mother {orphan // 2} is not"
        with pytest.raises(ValidationError, match=message):
            ObservationMask.from_ids(sorted(kept), depth, root_type)


def test_pair_count():
    # cells with both children observed, counted from the flags and from the ids
    mask = ObservationMask.from_ids([1, 2, 3, 6, 7])
    ids = set(mask.ids.tolist())
    pairs = np.cumsum([np.count_nonzero(f.all(axis=1)) for f in mask.offspring])
    assert pairs.tolist() == [1, 2]  # the root has both children; then node 3, not node 2
    assert pairs[-1] == sum(2 * k in ids and 2 * k + 1 in ids for k in ids)


# ---------------------------------------------------------------------------
# growth-rate estimation


def test_estimate_pi_full_mask_exact():
    mask = simulate_mask(ReproductionLaw.full_observation(), 3, seed=0)
    for est in (estimate_pi(mask), estimate_pi(dataclasses.replace(mask))):
        assert est.pi_hat == 14 / 7 == 2.0
        assert est.ci_low <= est.pi_hat <= est.ci_high


def test_estimate_pi_matches_per_parent_count_reference():
    # the interval's integer sums come from flag counts; the reference sums
    # each parent's offspring count y and y^2 directly
    law = ReproductionLaw.from_mean_matrix([[0.95, 0.9], [0.9, 0.95]])
    for seed in range(20):
        mask = simulate_mask(law, 9, root_type=seed % 2, seed=seed)
        y = np.concatenate([flags.sum(axis=1) for flags in mask.offspring])
        parents = mask.total_count(8)
        pi_hat = int(y.sum()) / parents
        z = 1.6448536269514722  # level 0.9
        se = math.sqrt(max(int((y * y).sum()) / parents - pi_hat * pi_hat, 0.0) / parents)
        est = estimate_pi(mask, level=0.9)
        assert est.pi_hat == pi_hat
        assert est.ci_low == pytest.approx(pi_hat - z * se, rel=1e-15, abs=1e-15)
        assert est.ci_high == pytest.approx(pi_hat + z * se, rel=1e-15, abs=1e-15)


def test_estimate_pi_childless_root():
    law = ReproductionLaw.from_tables({"00": 1.0}, {"11": 1.0})
    mask = simulate_mask(law, 4, root_type=0, seed=0)
    with pytest.raises(ExtinctionError):
        estimate_pi(mask)


def test_estimate_pi_rejects_a_forest():
    # one tree's estimator: a forest's replicates are not pooled, even when
    # the first is extinct or the forest holds a single replicate
    law = missing_law()
    for seeds in ([1, 2, 3], [2]):
        forest = simulate_mask(law, 8, seed=seeds)
        for mask in (forest, dataclasses.replace(forest)):
            with pytest.raises(ValidationError, match="^estimate_pi takes one tree, not a forest"):
                estimate_pi(mask)
    with pytest.raises(ExtinctionError):
        estimate_pi(simulate_mask(law, 8, seed=1))


def test_estimate_pi_monte_carlo_mean():
    # mean of the ratio estimator across non-extinct masks approaches the true rate
    law = missing_law()
    vals = []
    seed = 0
    while len(vals) < 1000:
        mask = simulate_mask(law, 12, seed=seed)
        seed += 1
        if mask.generation_count(12) > 0:
            vals.append(estimate_pi(mask).pi_hat)
    assert abs(np.mean(vals) - 1.2) < 0.02


def test_renormalized_population_full_tree():
    mask = simulate_mask(ReproductionLaw.full_observation(), 6, seed=0)
    w = renormalized_population(mask, 2.0)
    assert w.w_last_generation == 1.0
    assert w.w_cumulative == 1.0


def test_renormalized_population_extinct_mask():
    law = symmetric_law(0.4, 0.6)
    seed = 0
    while True:
        mask = simulate_mask(law, 10, seed=seed)
        if mask.generation_count(10) == 0:
            break
        seed += 1
    w = renormalized_population(mask, 1.5)  # renormalise at a nominal rate
    assert w.w_last_generation == 0.0


def test_renormalized_population_requires_supercritical():
    mask = simulate_mask(ReproductionLaw.full_observation(), 3, seed=0)
    with pytest.raises(ValidationError):
        renormalized_population(mask, 1.0)


def test_renormalized_estimates_agree_at_depth():
    # both statistics estimate the same limit; they should agree on bulky masks
    law = symmetric_law(0.9, 0.1)
    growth = spectral(law).growth_rate
    ratios = []
    for seed in range(60):
        mask = simulate_mask(law, 14, seed=seed)
        if mask.generation_count(14) == 0:
            continue
        w = renormalized_population(mask, growth)
        ratios.append(w.w_last_generation / w.w_cumulative)
    assert abs(np.median(ratios) - 1.0) < 0.10


def test_population_equivalent_ratio():
    # growth-rate powers are a deterministic equivalent of the observed totals
    law = missing_law()
    s = spectral(law)
    pi = s.growth_rate
    ratios = []
    for seed in range(400):
        mask = simulate_mask(law, 16, seed=seed)
        if mask.generation_count(16) == 0:
            continue
        w_hat = renormalized_population(mask, pi).w_last_generation
        ratios.append(pi**16 / mask.total_count(16) * w_hat * pi / (pi - 1.0))
    assert abs(np.median(ratios) - 1.0) < 0.10


def test_extinction_probability_not_reached_iteration_cap(monkeypatch):
    monkeypatch.setattr(gw, "_EXTINCTION_TOL", 0.0)
    monkeypatch.setattr(gw, "_EXTINCTION_MAX_ITER", 50)
    with pytest.raises(NumericalError):
        extinction_probabilities(symmetric_law(0.75, 0.25))
