"""Asymmetric bifurcating autoregression and the joint observed model.

Each observed mother value ``x`` drives its daughters through two
affine maps: the even daughter gets ``a + b x`` plus noise, the odd one
``c + d x`` plus noise, with the two sister noises correlated within a
pair and independent across mothers.  The joint simulator first draws
the observation mask, then fills values only along observed lineages;
the two steps use independent random streams derived from one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import rng, tree
from .errors import ValidationError
from .gw import ObservationMask, ReproductionLaw, simulate_mask

_COV_TOL = 1e-12


@dataclass(frozen=True)
class BarParams:
    """Autoregression coefficients ``(a, b, c, d)``.

    Stability requires ``0 < max(|b|, |d|) < 1``; degenerate or unstable
    coefficient pairs are rejected unless ``allow_unstable`` is set
    (useful for negative tests and exact-recovery fixtures).
    """

    a: float
    b: float
    c: float
    d: float
    allow_unstable: bool = False

    def __post_init__(self):
        for name in "abcd":
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"coefficient {name} must be finite, got {value}")
        slope = max(abs(self.b), abs(self.d))
        if not self.allow_unstable and not 0.0 < slope < 1.0:
            raise ValidationError(
                f"stability requires 0 < max(|b|, |d|) < 1, got {slope}"
            )

    def as_vector(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d])


class NoiseMoments(NamedTuple):
    tau4: float
    nu2: float
    kappa8: float
    lambda4: float


@dataclass(frozen=True)
class NoiseParams:
    """Sister-noise law: variance, within-pair covariance and moments.

    The built-in family is the bivariate Gaussian, for which the fourth
    and eighth moments have closed forms.  ``rho`` may reach ``sigma2``
    in absolute value (perfectly correlated sisters), and ``sigma2 = 0``
    gives the deterministic zero-noise model used by exact-recovery
    fixtures.
    """

    sigma2: float
    rho: float = 0.0
    family: str = "gaussian"
    rho_prime: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.sigma2) or self.sigma2 < 0.0:
            raise ValidationError(f"sigma2 must be >= 0, got {self.sigma2}")
        if abs(self.rho) > self.sigma2 + _COV_TOL:
            raise ValidationError(
                f"invalid covariance: |rho| = {abs(self.rho)} exceeds sigma2 = {self.sigma2}"
            )
        rp = self.rho / self.sigma2 if self.sigma2 > 0.0 else 0.0
        object.__setattr__(self, "rho_prime", float(np.clip(rp, -1.0, 1.0)))

    @property
    def nu2_tau4(self) -> float:
        m = noise_moments(self)
        return m.nu2 * m.tau4


def noise_moments(noise: NoiseParams) -> NoiseMoments:
    """Closed-form higher moments of the sister-noise law.

    Gaussian family only: fourth moment ``3 sigma^4``, squared-pair
    moment ``sigma^4 (1 + 2 rho'^2)``, eighth moment ``105 sigma^8``
    and fourth-pair moment ``sigma^8 (9 + 72 rho'^2 + 24 rho'^4)``,
    reported through the ``nu2``/``lambda4`` ratios.
    """
    if noise.family != "gaussian":
        raise ValidationError(f"unsupported noise family {noise.family!r}")
    s2 = noise.sigma2
    rp2 = noise.rho_prime**2
    tau4 = 3.0 * s2 * s2
    nu2 = (1.0 + 2.0 * rp2) / 3.0
    kappa8 = 105.0 * s2**4
    lambda4 = (9.0 + 72.0 * rp2 + 24.0 * rp2 * rp2) / 105.0
    return NoiseMoments(tau4, nu2, kappa8, lambda4)


@dataclass(frozen=True)
class ObservedTree:
    """Values (and, in simulation mode, true noises) on an observation mask.

    ``values[r]`` is aligned with ``mask.generations[r]``.  ``noise`` is
    ``None`` for trees read from data files; simulated trees record the
    realised noise of every observed non-root cell so that estimator
    diagnostics can be compared against the truth.  On a forest mask
    (see :class:`~bartree.gw.ObservationMask`) the arrays concatenate the
    replicates' generations and ``seed`` lists their seeds.

    A tree is immutable, so the estimation functions memoise what they
    derive from it (per-generation frames and statistics, and their
    exact prefixes) in ``_memo``: every function called on one tree
    shares one build.
    """

    mask: ObservationMask
    values: list[np.ndarray]
    noise: list[np.ndarray] | None = None
    bar: BarParams | None = None
    noise_params: NoiseParams | None = None
    law: ReproductionLaw | None = None
    x1: float | None = None
    seed: int | list[int] | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.values) != self.mask.depth + 1:
            raise ValidationError("one value array per generation is required")
        for r, (bounds, vals) in enumerate(zip(self.mask.bounds, self.values)):
            if bounds[-1] != np.asarray(vals).size:
                raise ValidationError(f"generation {r}: values misaligned with mask")

    @property
    def depth(self) -> int:
        return self.mask.depth

    @property
    def has_noise(self) -> bool:
        return self.noise is not None

    @classmethod
    def from_pairs(cls, pairs, root_type: int = 0, depth: int | None = None) -> "ObservedTree":
        """Build a data-mode tree from ``(node id, value)`` pairs."""
        pairs = list(pairs)
        ids = np.array([k for k, _ in pairs], dtype=np.int64)
        vals = np.array([x for _, x in pairs], dtype=float)
        order = np.argsort(ids, kind="stable")
        ids, vals = ids[order], vals[order]
        if np.any(np.diff(ids) == 0):
            raise ValidationError("duplicate node ids in lineage data")
        if not np.isfinite(vals).all():
            raise ValidationError(f"non-finite value at node {int(ids[~np.isfinite(vals)][0])}")
        mask = ObservationMask.from_ids(ids, depth=depth, root_type=root_type)
        # the mask's generations concatenate to the sorted ids
        cuts = np.cumsum([b[-1] for b in mask.bounds])[:-1]
        return cls(mask=mask, values=np.split(vals, cuts))


def _fill_generation(bar, noise, xk, z, positions, kids):
    """Daughter values and realised noises of one generation's mothers.

    ``z`` holds one standard normal pair per mother; the pair is mixed
    into sister noises with covariance ``[[sigma2, rho], [rho, sigma2]]``.
    """
    sig = math.sqrt(noise.sigma2)
    rp = noise.rho_prime
    mix = math.sqrt(max(1.0 - rp * rp, 0.0))
    eps_even = sig * z[:, 0]
    eps_odd = sig * (rp * z[:, 0] + mix * z[:, 1])
    has_e, pos_e, has_o, pos_o = positions
    x_next = np.zeros(kids)
    e_next = np.zeros(kids)

    drift = bar.a + bar.b * xk[has_e]
    x_child = drift + eps_even[has_e]
    x_next[pos_e[has_e]] = x_child
    e_next[pos_e[has_e]] = x_child - drift

    drift = bar.c + bar.d * xk[has_o]
    x_child = drift + eps_odd[has_o]
    x_next[pos_o[has_o]] = x_child
    e_next[pos_o[has_o]] = x_child - drift
    return x_next, e_next


def simulate_joint(
    bar: BarParams,
    noise: NoiseParams,
    law: ReproductionLaw,
    depth: int,
    root_type: int = 0,
    x1: float = 0.0,
    seed=0,
) -> ObservedTree:
    """Simulate the observed autoregression down to ``depth`` generations.

    The mask is drawn first on its own stream; sister noise pairs are
    then drawn per observed mother (independently across mothers, with
    covariance ``[[sigma2, rho], [rho, sigma2]]`` within a pair) and
    values are filled only along observed lineages.  Recorded noises are
    re-derived as ``x_child - (a_i + b_i x_mother)`` so the recursion
    holds exactly in floating point.

    ``seed`` may also be a sequence of seeds; the result is then a
    forest whose replicate ``i`` equals the tree simulated with
    ``seed=seeds[i]``, filled with one numpy pass per generation.
    Replicate ``i`` draws all its normal pairs at once from its own
    noise stream, ``standard_normal((parents_i, 2))`` with ``parents_i``
    its cells of generations ``0..depth-1``; that equals drawing them
    generation by generation, so each replicate matches
    ``simulate_joint(seed=seeds[i])`` bit for bit.
    """
    tree.check_depth(depth)
    mask = simulate_mask(law, depth, root_type=root_type, seed=seed)
    seeds = seed if mask.forest else [seed]
    n_rep = mask.replicates
    sizes = np.stack([mask.generation_sizes(r) for r in range(depth + 1)], axis=1)
    # the draws are replicate-major: replicate i's pairs start at row
    # first[i], and those of its generation-r mothers at first[i] + before[i, r]
    before = np.cumsum(sizes, axis=1) - sizes
    parents = sizes[:, :depth].sum(axis=1)
    first = np.cumsum(parents) - parents
    stream = rng.Stream(rng.NOISE_STREAM)
    draws = np.concatenate([stream.at(s).standard_normal((p, 2)) for s, p in zip(seeds, parents)])

    values: list[np.ndarray] = [np.full(n_rep, float(x1))]
    eps: list[np.ndarray] = [np.array([])]
    for r in range(depth):
        b = mask.bounds[r]
        rows = np.repeat(first + before[:, r] - b[:-1], sizes[:, r]) + np.arange(b[-1])
        z = np.take(draws, rows, axis=0)  # several times faster than draws[rows]
        x_next, e_next = _fill_generation(
            bar, noise, values[r], z, mask.child_positions(r), mask.bounds[r + 1][-1]
        )
        values.append(x_next)
        eps.append(e_next)
    return ObservedTree(
        mask=mask,
        values=values,
        noise=eps,
        bar=bar,
        noise_params=noise,
        law=law,
        x1=float(x1),
        seed=seed,
    )
