"""Two-type Galton-Watson observation process.

The observation mask marks which cells of the binary tree carry data.
Children appear only under observed mothers: an observed cell of type
``i`` (its label parity, except for the configurable root) produces an
observed even child, odd child, both, or neither, according to a
type-``i`` offspring law on ``{0, 1}^2``.  This module owns those laws,
their spectral theory (growth rate, eigenvectors, extinction
probabilities), mask simulation and growth-rate estimation from a mask.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng, tree
from .distributions import normal_quantile
from .errors import ExtinctionError, NumericalError, ValidationError

# Offspring outcomes (even count, odd count), fixed column order.
OUTCOMES = ((0, 0), (1, 0), (0, 1), (1, 1))
# (even child observed, odd child observed) for each outcome, by row
_OUTCOME_FLAGS = np.array(OUTCOMES, dtype=bool)
# offsets of the (even, odd) children: cell k has children 2k + _SIDES
_SIDES = np.array([0, 1])

_PROB_TOL = 1e-12
_EXTINCTION_TOL = 1e-12  # stopping rule of the extinction fixed-point iteration
_EXTINCTION_MAX_ITER = 10**6


@dataclass(frozen=True)
class ReproductionLaw:
    """Offspring laws of the two parent types.

    ``probs[i, j]`` is the probability that a type-``i`` parent produces
    the outcome ``OUTCOMES[j]``.  Each row must be a probability vector.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (2, 4):
            raise ValidationError(f"reproduction law needs shape (2, 4), got {p.shape}")
        if not np.all((p >= -_PROB_TOL) & (p <= 1 + _PROB_TOL)):  # NaN fails too
            raise ValidationError("offspring probabilities must lie in [0, 1]")
        sums = p.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > _PROB_TOL):
            raise ValidationError(f"offspring probabilities must sum to 1, got {sums}")
        object.__setattr__(self, "probs", np.clip(p, 0.0, 1.0))

    @classmethod
    def from_tables(cls, type0, type1) -> "ReproductionLaw":
        """Build from two mappings keyed by ``"j0j1"`` outcome strings (``"10"``: even child only)."""
        keys = [f"{j0}{j1}" for j0, j1 in OUTCOMES]
        rows = []
        for table in (type0, type1):
            unknown = set(table) - set(keys)
            if unknown:
                raise ValidationError(f"unknown offspring outcomes {sorted(unknown)}")
            rows.append([float(table.get(k, 0.0)) for k in keys])
        return cls(np.array(rows))

    @classmethod
    def full_observation(cls) -> "ReproductionLaw":
        """Both children always observed: the complete-tree mask."""
        return cls(np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]]))

    @classmethod
    def from_mean_matrix(cls, mean_matrix) -> "ReproductionLaw":
        """Law with independent children matching a 2x2 matrix of means.

        Row ``i`` of ``mean_matrix`` holds the marginal observation
        probabilities of the even and odd child of a type-``i`` parent;
        the joint law is the product of the two marginals.
        """
        m = np.asarray(mean_matrix, dtype=float)
        if m.shape != (2, 2) or np.any(m < 0) or np.any(m > 1):
            raise ValidationError("mean matrix must be 2x2 with entries in [0, 1]")
        rows = []
        for i in range(2):
            p0, p1 = m[i]
            rows.append(
                [(1 - p0) * (1 - p1), p0 * (1 - p1), (1 - p0) * p1, p0 * p1]
            )
        return cls(np.array(rows))

    @property
    def mean_matrix(self) -> np.ndarray:
        """Expected children counts: entry ``(i, j)`` is the mean number
        of type-``j`` children of a type-``i`` parent."""
        p = self.probs
        return np.array(
            [
                [p[0, 1] + p[0, 3], p[0, 2] + p[0, 3]],
                [p[1, 1] + p[1, 3], p[1, 2] + p[1, 3]],
            ]
        )

    def both_children_probability(self, parent_type: int) -> float:
        return float(self.probs[parent_type, 3])

    def generating_function(self, parent_type: int, s0: float, s1: float) -> float:
        p = self.probs[parent_type]
        return float(p[0] + p[1] * s0 + p[2] * s1 + p[3] * s0 * s1)

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.probs, axis=1)


@dataclass(frozen=True)
class GWSpectral:
    """Spectral summary of a reproduction law.

    ``growth_rate`` is the dominant eigenvalue of the mean matrix;
    ``left_eigenvector`` sums to one and gives the asymptotic type
    proportions, and ``pair_fraction`` is the asymptotic fraction of
    observed cells whose two children are both observed.
    """

    law: ReproductionLaw
    mean_matrix: np.ndarray
    growth_rate: float
    left_eigenvector: np.ndarray
    pair_fraction: float
    supercritical: bool


def spectral(law: ReproductionLaw) -> GWSpectral:
    """Closed-form spectral quantities of the 2x2 mean matrix.

    Requires every entry of the mean matrix to be positive (so the
    dominant eigenvalue is simple and the eigenvectors are positive).
    Subcriticality is reported through the ``supercritical`` flag, not
    as an error.
    """
    m = law.mean_matrix
    if np.any(m <= 0.0):
        raise ValidationError(
            "positivity violated: every entry of the mean matrix must be > 0"
        )
    trace = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = trace * trace - 4.0 * det
    if disc <= 0.0:
        raise NumericalError("dominant eigenvalue is not simple")
    pi = 0.5 * (trace + math.sqrt(disc))

    z = np.array([m[1, 0], pi - m[0, 0]])
    z = z / z.sum()

    pair = law.both_children_probability(0) * z[0] + law.both_children_probability(1) * z[1]
    return GWSpectral(
        law=law,
        mean_matrix=m,
        growth_rate=pi,
        left_eigenvector=z,
        pair_fraction=float(pair),
        supercritical=pi > 1.0,
    )


def extinction_probabilities(law: ReproductionLaw) -> tuple[float, float]:
    """Smallest fixed point of the pair of generating functions.

    Iterated from ``(0, 0)``, which converges monotonically to the
    componentwise-smallest solution of ``q_i = f_i(q_0, q_1)``.
    """
    q0 = q1 = 0.0
    for _ in range(_EXTINCTION_MAX_ITER):
        n0 = law.generating_function(0, q0, q1)
        n1 = law.generating_function(1, q0, q1)
        if abs(n0 - q0) < _EXTINCTION_TOL and abs(n1 - q1) < _EXTINCTION_TOL:
            return (n0, n1)
        q0, q1 = n0, n1
    raise NumericalError("extinction fixed-point iteration did not converge")


def _check_root_type(root_type: int) -> int:
    if root_type not in (0, 1):
        raise ValidationError(f"root type must be 0 or 1, got {root_type}")
    return root_type


@dataclass(eq=False)
class ObservationMask:
    """Observed cells of a partially observed binary tree, or of a forest of them.

    The stored record is the Galton-Watson datum itself: ``offspring[r]``
    is a boolean ``(G_r, 2)`` array giving, for each observed cell of
    generation ``r < depth`` in ascending id order, whether its even
    and its odd child are observed.  The root (id 1) is always
    observed, and prefix closure holds by construction.

    A forest lays several replicates out generation by generation:
    ``offspring[r]`` concatenates their generation-``r`` flags in
    replicate order, and ``bounds[r]`` (length ``R + 1``) holds where
    each replicate's cells start and end in that layout, for
    ``r = 0..depth``.  Read row-major, the set flags of ``offspring[r]``
    are generation ``r + 1`` in order, so a boolean compress or fill
    through them (one numpy pass per generation, for every replicate)
    moves data between mothers and daughters.
    A single tree is the forest of one replicate built without
    ``bounds``, which are then derived from the flags; ``forest`` tells
    the two apart, and statistics of a forest keep a leading replicate
    axis.  Two masks are equal when their depth, root type, flags and
    bounds are.

    ``generations[r]`` (the ascending observed ids of generation ``r``,
    concatenated over replicates) and ``counts[r]`` (the per-parity
    observed counts ``(even, odd)``; the root is booked under its
    configured reproduction type) are derived from the flags when first
    read.
    """

    depth: int
    root_type: int
    offspring: list[np.ndarray]
    bounds: list[np.ndarray] | None = None
    forest: bool = field(init=False)

    def __post_init__(self):
        tree.check_depth(self.depth)
        _check_root_type(self.root_type)
        if len(self.offspring) != self.depth:
            raise ValidationError("one offspring array per parent generation is required")
        self.forest = self.bounds is not None
        sizes = [self.bounds[0][-1] if self.forest else 1]
        for r, flags in enumerate(self.offspring):
            if flags.dtype != bool or flags.shape != (sizes[-1], 2):
                raise ValidationError(
                    f"generation {r}: offspring flags must be a boolean (cells, 2) array"
                )
            sizes.append(np.count_nonzero(flags))
        if not self.forest:  # one replicate, spanning each whole generation
            self.bounds = [np.array([0, size]) for size in sizes]

    def __eq__(self, other):
        if not isinstance(other, ObservationMask):
            return NotImplemented
        return (
            self.depth == other.depth
            and self.root_type == other.root_type
            and all(
                np.array_equal(a, b)
                for a, b in zip(self.offspring + self.bounds, other.offspring + other.bounds)
            )
        )

    @classmethod
    def from_ids(cls, ids, depth: int | None = None, root_type: int = 0) -> "ObservationMask":
        """Build (and validate) a mask from a flat iterable of distinct node ids, in any order."""
        arr = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids), dtype=np.int64).ravel()
        if not np.all(arr[1:] > arr[:-1]):  # ascending ids are distinct and need no sort
            arr = np.sort(arr)
            if np.any(arr[1:] == arr[:-1]):
                k = int(arr[1:][arr[1:] == arr[:-1]][0])
                raise ValidationError(f"duplicate node ids: node {k} is listed more than once")
        if arr.size == 0 or arr[0] < 1:
            raise ValidationError("mask needs positive node ids")
        if arr[0] != 1:
            raise ValidationError("node 1 (the root) must be observed")
        max_gen = int(arr[-1]).bit_length() - 1
        if depth is None:
            depth = max_gen
        elif depth < max_gen:
            raise ValidationError(
                f"declared depth {depth} is below the deepest listed node (generation {max_gen})"
            )
        tree.check_depth(depth)
        # prefix closure: every listed node's mother is listed
        kids = arr[1:]
        mothers = kids // 2
        pos = np.searchsorted(arr, mothers)  # a mother sorts before its child
        orphans = arr[pos] != mothers
        if orphans.any():
            k = int(kids[np.argmax(orphans)])
            raise ValidationError(
                f"orphan observation: node {k} is listed but its mother {k // 2} is not"
            )
        flags = np.zeros((arr.size, 2), dtype=bool)
        flags[pos, kids & 1] = True
        starts = np.searchsorted(arr, [tree.generation_range(r)[0] for r in range(depth + 1)])
        offspring = [flags[starts[r]:starts[r + 1]] for r in range(depth)]
        return cls(depth=depth, root_type=root_type, offspring=offspring)

    @functools.cached_property
    def generations(self) -> list[np.ndarray]:
        gens = [np.ones(self.replicates, dtype=np.int64)]
        for flags in self.offspring:
            # parents ascend, so the flagged (2k, 2k + 1) pairs come out sorted
            gens.append((2 * gens[-1][:, None] + _SIDES)[flags])
        return gens

    @functools.cached_property
    def counts(self) -> np.ndarray:
        counts = np.zeros((self.depth + 1, 2), dtype=np.int64)
        counts[0, self.root_type] = self.replicates
        for r, flags in enumerate(self.offspring):
            counts[r + 1] = flags.sum(axis=0)
        return counts

    @property
    def replicates(self) -> int:
        return self.bounds[0].size - 1

    def ids(self) -> np.ndarray:
        return np.concatenate(self.generations)

    def generation_count(self, n: int) -> int:
        """Number of observed cells in generation ``n``, summed over the replicates."""
        return int(self.bounds[n][-1])

    def total_count(self, n: int) -> int:
        """Number of observed cells up to generation ``n``, summed over the replicates."""
        return int(sum(self.bounds[r][-1] for r in range(n + 1)))

    @functools.cached_property
    def _sizes(self) -> np.ndarray:
        # [0] the (depth + 1, R) cells per generation and replicate, [1] their
        # running totals over generations; read-only, since callers get views
        sizes = np.diff(np.stack(self.bounds), axis=1)
        memo = np.stack([sizes, np.cumsum(sizes, axis=0)])
        memo.flags.writeable = False
        return memo

    def generation_sizes(self, n: int) -> np.ndarray:
        """Observed cells of generation ``n``, one count per replicate (a read-only view)."""
        return self._sizes[0, n]

    def cells_through(self, n: int) -> np.ndarray:
        """Observed cells up to generation ``n``, one count per replicate (a read-only view)."""
        return self._sizes[1, n]

    def child_positions(self, r: int):
        """Locate the children of generation ``r`` parents inside generation ``r + 1``.

        Returns ``(has_even, pos_even, has_odd, pos_odd)`` aligned with
        ``generations[r]``: boolean observation flags and positions into
        ``generations[r + 1]`` (valid only where the flag is set).  The
        simulator and the estimators work on the flags directly.
        """
        flags = self.offspring[r]
        pos = (np.cumsum(flags.ravel()) - 1).reshape(flags.shape)
        return flags[:, 0], pos[:, 0], flags[:, 1], pos[:, 1]


def _draw_flags(u: np.ndarray, types: np.ndarray, cum: np.ndarray) -> np.ndarray:
    # the outcome row is how many of its type's first three cumulative
    # thresholds the uniform reaches (u >= threshold); they never
    # decrease, so three comparisons summed count them (several times
    # faster than a right-sided search)
    def reached(thresholds):
        count = (u >= thresholds[0]).view(np.int8)
        count += (u >= thresholds[1]).view(np.int8)
        count += (u >= thresholds[2]).view(np.int8)
        return count

    idx = reached(cum[0])
    if types.any():
        idx = np.where(types, reached(cum[1]), idx)
    return np.take(_OUTCOME_FLAGS, idx, axis=0)


def expected_cells(law: ReproductionLaw, depth: int, root_type: int = 0) -> float:
    """Expected observed cells of generations ``0..depth``: sum of ``e_root' M^r 1``."""
    v = np.eye(2)[_check_root_type(root_type)]
    total = 0.0
    for _ in range(depth + 1):
        total += v.sum()
        v = v @ law.mean_matrix
    return float(total)


def simulate_mask(law: ReproductionLaw, depth: int, root_type: int = 0, seed=0) -> ObservationMask:
    """Draw one observation mask down to ``depth`` generations.

    Each observed cell draws its offspring outcome from the law of its
    type (label parity; the root uses ``root_type``), one uniform per
    cell.  Deterministic in ``(seed, law, depth, root_type)``; the draw
    stream is independent of the noise stream used by the joint
    simulator.  A certain law, whose cumulative thresholds all lie
    outside ``(0, 1)`` (such as :meth:`ReproductionLaw.full_observation`),
    draws nothing: each cell takes the one outcome its type's uniform
    would give.

    ``seed`` may also be a sequence of seeds; the result is then a
    forest whose replicate ``i`` equals the mask drawn with
    ``seed=seeds[i]``, all drawn with one numpy pass per generation.
    Replicate ``i`` reads its uniforms from its own Philox stream, in
    generation order.  They are drawn ahead into one flat buffer, where
    ``pos[i]:end[i]`` holds replicate ``i``'s unused draws; since
    ``random(a)`` followed by ``random(b)`` yields the numbers of
    ``random(a + b)``, every replicate draws exactly what it draws alone.
    One re-keyed generator serves every replicate, so a replicate that
    runs short resumes its stream past the ``drawn[i]`` numbers it has
    already drawn.
    """
    tree.check_depth(depth)
    _check_root_type(root_type)
    forest = np.ndim(seed) == 1
    seeds = list(seed) if forest else [seed]
    n_rep = len(seeds)
    if n_rep == 0:
        raise ValidationError("a forest needs at least one seed")
    cum = law.cumulative()
    # a law whose thresholds all lie outside (0, 1) fixes each type's
    # outcome: it reads no uniforms, and its flags are a zero uniform's
    certain = np.all((cum[:, :3] <= 0.0) | (cum[:, :3] >= 1.0))
    if certain:
        fixed = _draw_flags(np.zeros(2), np.arange(2), cum)  # row t: a type-t cell's flags
        for s in seeds:
            rng.check_seed(s)
    else:
        stream = rng.Stream(rng.MASK_STREAM)
        # the largest row sum of the mean matrix bounds the expected growth
        # per generation; it sizes the top-ups of replicates that run short
        growth = float(law.mean_matrix.sum(axis=1).max())
        first = math.ceil(expected_cells(law, depth - 1, root_type)) if depth else 0
        buf = np.concatenate([stream.at(s).random(first) for s in seeds])
        pos = np.arange(n_rep) * first
        end = pos + first
        drawn = np.full(n_rep, first)

    offspring, bounds = [], [np.arange(n_rep + 1)]
    types = np.full(n_rep, root_type)
    for r in range(depth):
        b = bounds[r]
        if certain:
            flags = np.take(fixed, types, axis=0)
        else:
            sizes = np.diff(b)
            short = np.flatnonzero(pos + sizes > end)
            if short.size:
                ahead = sum(growth**k for k in range(depth - r))
                pieces, top = [buf], buf.size
                for i in short:
                    more = math.ceil(sizes[i] * ahead)
                    extra = stream.at(seeds[i], drawn[i]).random(more)
                    drawn[i] += more
                    pieces += [buf[pos[i]:end[i]], extra]
                    pos[i], top = top, top + (end[i] - pos[i]) + extra.size
                    end[i] = top
                buf = np.concatenate(pieces)
            u = buf[np.repeat(pos - b[:-1], sizes) + np.arange(b[-1])]
            pos += sizes
            flags = _draw_flags(u, types, cum)
        offspring.append(flags)
        # flat index 2i + j marks child j of cell i; its type is j, and the
        # children of cells before b[i] are the marks before 2 b[i]
        kids = np.flatnonzero(flags)
        bounds.append(np.searchsorted(kids, 2 * b))
        types = np.bitwise_and(kids, 1, out=kids)
    return ObservationMask(depth, root_type, offspring, bounds if forest else None)


def growth_rate_ratio(mask: ObservationMask, n: int) -> np.ndarray:
    """Observed children over observed parents through generation ``n >= 1``, per replicate."""
    return (mask.cells_through(n) - 1) / mask.cells_through(n - 1)


@dataclass(frozen=True)
class GrowthRateEstimate:
    """Ratio estimator of the growth rate with a heuristic normal CI."""

    pi_hat: float
    ci_low: float
    ci_high: float
    level: float


def estimate_pi(mask: ObservationMask, level: float = 0.95) -> GrowthRateEstimate:
    """Ratio estimator of one tree: total observed children over total observed parents.

    The confidence interval is a delta-method normal interval built from
    the per-parent offspring counts (a heuristic: the exact interval
    construction for this estimator is not pinned down here).
    """
    n = mask.depth
    if n < 1 or mask.generation_count(1) == 0:
        raise ExtinctionError("mask is extinct at the root's children")
    parents_total = mask.total_count(n - 1)
    pi_hat = float(growth_rate_ratio(mask, n)[0])

    # per-parent offspring counts y in {0, 1, 2} drive the CI width: their
    # sum is every cell but the roots, and y^2 = y + 2 [both children observed]
    both = sum(np.count_nonzero(flags[:, 0] & flags[:, 1]) for flags in mask.offspring)
    sq_sum = mask.total_count(n) - mask.replicates + 2 * int(both)
    var = max(sq_sum / parents_total - pi_hat * pi_hat, 0.0)
    se = math.sqrt(var / parents_total)
    z = normal_quantile(level)
    return GrowthRateEstimate(pi_hat, pi_hat - z * se, pi_hat + z * se, level)


@dataclass(frozen=True)
class PopulationRenormalization:
    """Two finite-depth estimates of the branching limit variable."""

    w_last_generation: float
    w_cumulative: float


def renormalized_population(mask: ObservationMask, pi: float) -> PopulationRenormalization:
    """Normalised population sizes whose common limit is the limit variable.

    Returns the deepest generation count over ``pi**depth`` and the
    cumulative-count alternative ``(pi - 1) |T*_n| / (pi**(n+1) - 1)``;
    both converge to the same limit for supercritical laws.
    """
    if pi <= 1.0:
        raise ValidationError("renormalisation requires a supercritical growth rate")
    n = mask.depth
    w_g = mask.generation_count(n) / pi**n
    w_t = (pi - 1.0) * mask.total_count(n) / (pi ** (n + 1) - 1.0)
    return PopulationRenormalization(w_g, w_t)
