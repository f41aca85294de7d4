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

_COV_RTOL = 1e-12


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


@dataclass(frozen=True)
class NoiseParams:
    """Sister-noise law: variance, within-pair covariance and moments.

    The law is the bivariate Gaussian, whose fourth moments have closed
    forms.  ``rho`` may reach ``sigma2`` in absolute value (perfectly
    correlated sisters), and pass it by a 1e-12 share of ``sigma2``, a
    rounding slack with no unit; ``sigma2 = 0`` gives the deterministic
    zero-noise model used by exact-recovery fixtures.
    """

    sigma2: float
    rho: float = 0.0
    rho_prime: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.sigma2) or self.sigma2 < 0.0:
            raise ValidationError(f"sigma2 must be >= 0, got {self.sigma2}")
        if not abs(self.rho) <= self.sigma2 * (1.0 + _COV_RTOL):  # NaN fails too
            raise ValidationError(
                f"invalid covariance: |rho| = {abs(self.rho)} exceeds sigma2 = {self.sigma2}"
            )
        rp = self.rho / self.sigma2 if self.sigma2 > 0.0 else 0.0
        object.__setattr__(self, "rho_prime", float(np.clip(rp, -1.0, 1.0)))


def noise_moments(noise: NoiseParams) -> NoiseMoments:
    """Closed-form higher moments of the sister-noise law.

    Fourth moment ``3 sigma^4`` and squared-pair moment
    ``sigma^4 (1 + 2 rho'^2)``, reported through the ``nu2`` ratio.
    """
    s2 = noise.sigma2
    rp2 = noise.rho_prime**2
    tau4 = 3.0 * s2 * s2
    nu2 = (1.0 + 2.0 * rp2) / 3.0
    return NoiseMoments(tau4, nu2)


@dataclass(frozen=True)
class ObservedTree:
    """Values (and, in simulation mode, true noises) on an observation mask.

    ``x`` holds one value per observed cell, in the mask's layout (see
    :class:`~bartree.gw.ObservationMask`), so generation ``r``'s values
    are ``x[starts[r]:starts[r + 1]]``.  ``eps`` is ``None`` for trees
    read from data files; simulated trees record the realised noise of
    every observed cell in the same layout (0 at the roots, which have
    no mother) so that estimator diagnostics can be compared against the
    truth.  ``values[r]`` and ``noise[r]`` are generation ``r``'s views
    of them, built when read.  On a forest mask ``seed`` lists the
    replicates' seeds.

    A tree is immutable, so the estimation functions memoise the running
    sums of its statistics table across generations in ``_memo``: every
    function called on one tree shares one build, and a deeper level
    extends it.  The frames a pass reads are built for it and dropped;
    they slice ``x`` and ``eps``, and the frame of generations whose
    mothers all have both daughters observed holds only views of them.
    """

    mask: ObservationMask
    x: np.ndarray
    eps: np.ndarray | None = None
    seed: int | list[int] | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        cells = (self.mask.total_count(self.depth),)
        if any(getattr(a, "shape", None) != cells for a in (self.x, self.eps)[:1 + self.has_noise]):
            raise ValidationError("values or noise misaligned with mask: one per observed cell")

    @property
    def depth(self) -> int:
        return self.mask.depth

    @property
    def has_noise(self) -> bool:
        return self.eps is not None

    @property
    def values(self) -> list[np.ndarray]:
        return [self.x[a:b] for a, b in zip(self.mask.starts[:-1], self.mask.starts[1:])]

    @property
    def noise(self) -> list[np.ndarray] | None:
        s = self.mask.starts
        return None if self.eps is None else [self.eps[a:b] for a, b in zip(s[:-1], s[1:])]

    @classmethod
    def from_pairs(cls, pairs, root_type: int = 0, depth: int | None = None) -> "ObservedTree":
        """Build a data-mode tree from ``(node id, value)`` pairs."""
        pairs = list(pairs)
        return cls.from_arrays(
            [k for k, _ in pairs], [x for _, x in pairs], root_type=root_type, depth=depth
        )

    @classmethod
    def from_arrays(
        cls, ids, values, root_type: int = 0, depth: int | None = None
    ) -> "ObservedTree":
        """Build a data-mode tree from aligned node ids and values, in any order."""
        ids = np.asarray(ids, dtype=np.int64)
        vals = np.asarray(values, dtype=float)
        if not np.all(ids[1:] > ids[:-1]):  # ascending unique ids need no sort
            order = np.argsort(ids, kind="stable")
            ids, vals = ids[order], vals[order]
        if not np.isfinite(vals).all():
            raise ValidationError(f"non-finite value at node {int(ids[~np.isfinite(vals)][0])}")
        # the mask lays its cells out as the sorted ids
        return cls(mask=ObservationMask.from_ids(ids, depth=depth, root_type=root_type), x=vals)


def _fill_generation(bar, noise, xk, z, drift, flags, x_next, e_next):
    """Write the daughter values and realised noises of one generation's mothers.

    ``z`` holds one standard normal pair per mother; the pair is mixed
    into sister noises with covariance ``[[sigma2, rho], [rho, sigma2]]``.
    Both daughters of every mother are formed as ``(mothers, 2)`` rows in
    ``z`` itself, with ``drift`` as scratch; the offspring ``flags``
    (row-major, the next generation's order) keep the observed ones,
    which are compressed into ``x_next`` and ``e_next``.  When every flag
    is set, ``z`` and ``drift`` must be ``x_next`` and ``e_next`` as rows.
    """
    sig = math.sqrt(noise.sigma2)
    rp = noise.rho_prime
    mix = math.sqrt(max(1.0 - rp * rp, 0.0))
    d0, d1 = drift.T
    np.multiply(rp, z[:, 0], out=d1)  # the sisters' noises, formed as sig * (rp z0 + mix z1)
    np.multiply(mix, z[:, 1], out=d0)
    np.add(d1, d0, out=z[:, 1])
    np.multiply(sig, z, out=z)
    np.multiply(bar.b, xk, out=d0)  # the drifts, formed as a + b xk and c + d xk
    np.add(bar.a, d0, out=d0)
    np.multiply(bar.d, xk, out=d1)
    np.add(bar.c, d1, out=d1)
    np.add(z, drift, out=z)
    if x_next.size != flags.size:
        kept = np.flatnonzero(flags)
        np.take(z.reshape(-1), kept, out=x_next, mode="clip")
        np.take(drift.reshape(-1), kept, out=e_next, mode="clip")
    np.subtract(x_next, e_next, out=e_next)


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
    holds exactly in floating point.  The tree is built on empty arrays
    once the mask is drawn, and each generation is filled in place
    through its views ``values[r]`` and ``noise[r]``.

    Each tree draws its normal pairs from its own noise stream, one
    pair per mother in generation order.  A single tree draws each
    generation's pairs just before filling it, with
    ``standard_normal(out=...)``: successive draws continue the stream,
    so these are the pairs of one ``standard_normal((parents, 2))`` draw
    over its cells of generations ``0..depth-1``.  A generation whose
    mothers all have both daughters observed has one daughter slot per
    normal, and its pairs land there; the others share one scratch.

    ``seed`` may also be a sequence of seeds; the result is then a
    forest whose replicate ``i`` equals the tree simulated with
    ``seed=seeds[i]``, filled with one numpy pass per generation.
    Replicate ``i`` draws all its normal pairs at once, with
    ``standard_normal(out=...)`` into its stretch of one buffer, and
    each generation gathers its pairs from the replicates' stretches, so
    each replicate matches ``simulate_joint(seed=seeds[i])`` bit for bit.
    """
    tree.check_depth(depth)
    if not math.isfinite(x1):
        raise ValidationError(f"x1 must be a finite number, got {x1}")
    mask = simulate_mask(law, depth, root_type=root_type, seed=seed)
    seeds = seed if mask.forest else [seed]
    n_rep = mask.replicates
    cells = mask.total_count(depth)
    out = ObservedTree(mask=mask, x=np.empty(cells), eps=np.empty(cells), seed=seed)
    values, eps, offspring = out.values, out.noise, mask.offspring
    values[0][:], eps[0][:] = x1, 0.0  # the roots carry no noise
    width = max([v.size for v, w in zip(values, values[1:]) if 2 * v.size != w.size], default=0)
    scratch = np.empty((2, width, 2))  # pairs and drifts where some daughter is unobserved
    stream = rng.Stream.shared(rng.NOISE_STREAM)
    if n_rep == 1:
        normal = stream.at(seeds[0])
    else:
        # the draws are replicate-major: replicate i's pairs start at row
        # first[i], and those of its generation-r mothers at first[i] + before[r, i]
        before = [np.zeros(n_rep, dtype=np.int64)] + [mask.cells_through(r) for r in range(depth)]
        parents = before[-1]
        first = np.cumsum(parents) - parents
        draws = np.empty((parents.sum(), 2))
        for s, a, p in zip(seeds, first, parents):
            stream.at(s).standard_normal(out=draws[a:a + p])

    for r in range(depth):
        b = mask.bounds[r]
        if 2 * b[-1] == values[r + 1].size:  # formed in the daughters' own slots
            z, drift = values[r + 1].reshape(-1, 2), eps[r + 1].reshape(-1, 2)
        else:
            z, drift = scratch[:, :b[-1]]
        if n_rep == 1:
            normal.standard_normal(out=z)
        else:
            start = np.repeat(first + before[r] - b[:-1], mask.generation_sizes(r))
            rows = start + np.arange(b[-1])
            # several times faster than draws[rows]; "clip" (every row is in
            # range) writes straight into z, where "raise" would buffer
            np.take(draws, rows, axis=0, out=z, mode="clip")
        _fill_generation(bar, noise, values[r], z, drift, offspring[r], values[r + 1], eps[r + 1])
    return out
