"""Least-squares estimation on partially observed trees and forests.

Everything here is driven by per-generation sufficient statistics: one
pass over the observed mother/daughter pairs of each generation yields
the design-matrix and right-hand-side increments, and exact (correctly
rounded) prefix sums across generations give the cumulative objects at
every level.  The estimator decouples into two 2x2 systems (even and
odd daughters), solved in closed form; near-singular designs are ridged
by adding the identity, which the asymptotic theory makes harmless.

A single tree is a forest of one replicate, so each statistic has one
implementation, over ``(replicate, generation)`` rows.  The public
functions accept a tree or a forest (the replicates of a Monte Carlo
block, see :class:`~bartree.gw.ObservationMask`) and return a forest's
results with a leading replicate axis and a tree's as plain values.  A
forest sums each replicate's segment of per-cell terms; a single tree
keeps plain ``.sum()`` and ``@`` reductions, which need no per-cell
term array.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bar import BarParams, ObservedTree
from .errors import EstimationError, NumericalError, ValidationError
from .gw import growth_rate_ratio

# Column layout of the per-generation statistics table.
_C0, _SX0, _SXX0 = 0, 1, 2          # even-daughter design sums
_C1, _SX1, _SXX1 = 3, 4, 5          # odd-daughter design sums
_CP, _SXP, _SXXP = 6, 7, 8          # both-daughters design sums
_R0, _R0X, _R1, _R1X = 9, 10, 11, 12  # least-squares right-hand side
_OBS = 13                            # observed cells in the generation
_M0, _M0X, _M1, _M1X = 14, 15, 16, 17  # score increments (true noise)
_TE2, _TEP = 18, 19                  # true-noise square / pair-product sums
_NCOLS = 20

_RIDGE_RTOL = 1e-10
_PREFIX_CHUNK = 1 << 14  # table entries summed per numpy pass
_DET_TOL = 1e-12


@dataclass(frozen=True)
class _Frame:
    """Mother values and daughter data of one generation, zero-masked."""

    xk: np.ndarray
    has_e: np.ndarray
    has_o: np.ndarray
    xe: np.ndarray
    xo: np.ndarray
    eps_e: np.ndarray
    eps_o: np.ndarray


def _frame(tree, r: int) -> _Frame | None:
    """Generation ``r``'s mothers and their daughters, ``None`` if it has no cells.

    The offspring flags lay the next generation out row-major, so
    filling a zeroed ``(mothers, 2)`` array through them puts each
    daughter beside its mother.  A forest's frame concatenates its
    replicates' generations.
    """
    xk = tree.values[r]
    if xk.size == 0:
        return None
    flags = tree.mask.offspring[r]

    def expand(daughters):
        pair = np.zeros(flags.shape)
        if daughters is not None:
            pair[flags] = daughters
        return pair[:, 0].copy(), pair[:, 1].copy()

    xe, xo = expand(tree.values[r + 1])
    eps_e, eps_o = expand(tree.noise[r + 1] if tree.has_noise else None)
    return _Frame(xk, flags[:, 0], flags[:, 1], xe, xo, eps_e, eps_o)


def _frames(tree, upto: int) -> list[_Frame | None]:
    """Frames of the mothers in generations ``0..upto``, memoised on the tree."""
    if upto + 1 > tree.depth:
        raise ValidationError(
            f"daughters of generation {upto} need tree depth {upto + 1}, have {tree.depth}"
        )
    frames = tree._memo.setdefault("frames", [])
    frames.extend(_frame(tree, r) for r in range(len(frames), upto + 1))
    return frames[: upto + 1]


def _generation_stats(f: _Frame, bounds: np.ndarray, forest: bool) -> np.ndarray:
    """Statistics rows ``(R, 20)`` of one generation: sums over each replicate's mothers.

    The two layouts part here (and in :func:`_residual_sums`): a forest
    sums segments of the per-cell terms ``(20, cells)``; a single tree
    reduces each column directly, which is faster, holds no term array,
    and keeps the bytes its reports have always had.
    """
    xk, xk2 = f.xk, f.xk * f.xk
    e, o = f.has_e.astype(float), f.has_o.astype(float)
    p = e * o
    if forest:
        t = np.empty((_NCOLS, xk.size))
        t[_C0], t[_SX0], t[_SXX0] = e, xk * e, xk2 * e
        t[_C1], t[_SX1], t[_SXX1] = o, xk * o, xk2 * o
        t[_CP], t[_SXP], t[_SXXP] = p, xk * p, xk2 * p
        t[_R0], t[_R0X] = f.xe, xk * f.xe
        t[_R1], t[_R1X] = f.xo, xk * f.xo
        t[_OBS] = 1.0
        t[_M0], t[_M0X] = f.eps_e, xk * f.eps_e
        t[_M1], t[_M1X] = f.eps_o, xk * f.eps_o
        t[_TE2] = f.eps_e * f.eps_e + f.eps_o * f.eps_o
        t[_TEP] = f.eps_e * f.eps_o
        return _segment_sums(t, bounds)
    row = np.empty(_NCOLS)
    row[_C0], row[_SX0], row[_SXX0] = e.sum(), xk @ e, xk2 @ e
    row[_C1], row[_SX1], row[_SXX1] = o.sum(), xk @ o, xk2 @ o
    row[_CP], row[_SXP], row[_SXXP] = p.sum(), xk @ p, xk2 @ p
    row[_R0], row[_R0X] = f.xe.sum(), xk @ f.xe
    row[_R1], row[_R1X] = f.xo.sum(), xk @ f.xo
    row[_OBS] = xk.size
    row[_M0], row[_M0X] = f.eps_e.sum(), xk @ f.eps_e
    row[_M1], row[_M1X] = f.eps_o.sum(), xk @ f.eps_o
    row[_TE2] = f.eps_e @ f.eps_e + f.eps_o @ f.eps_o
    row[_TEP] = f.eps_e @ f.eps_o
    return row


def _finite(sums: np.ndarray) -> np.ndarray:
    """The finite gate: ``sums``, unless values too large to fit made one inf or NaN.

    The public functions below run with overflow warnings off; the
    statistics and the residual sums pass through here instead, so that
    such data end in :class:`NumericalError`.
    """
    if not np.isfinite(sums).all():
        raise NumericalError("sums overflow: the values are too large to fit")
    return sums


def _statistics(tree, upto: int, levels):
    """Frames, and cumulative statistics ``(R, len(levels), 20)`` over mothers ``0..l``.

    Each cumulative row is the exact (correctly rounded) sum of its
    generation rows.  The generation rows and the prefixes are memoised
    on the tree, so every function called on one tree shares one build
    (one exact-sum cascade gives every prefix through ``upto``); only
    the requested levels pass the finite gate.
    """
    frames = _frames(tree, upto)
    mask, memo = tree.mask, tree._memo
    rows = memo.setdefault("rows", [])
    for r in range(len(rows), upto + 1):
        row = np.zeros(_NCOLS) if frames[r] is None else _generation_stats(
            frames[r], mask.bounds[r], mask.forest
        )
        rows.append(np.broadcast_to(row, (mask.replicates, _NCOLS)))
    prefix = memo.setdefault("prefix", {})
    levels = list(levels)
    if not prefix.keys() >= set(levels):  # one cascade gives every prefix through upto
        cum = _exact_prefix(np.stack(rows[: upto + 1], axis=1), range(upto + 1))
        prefix.update(enumerate(np.moveaxis(cum, 1, 0)))
    return frames, _finite(np.stack([prefix[level] for level in levels], axis=1))


def _residual_sums(f: _Frame, theta: np.ndarray, bounds: np.ndarray, forest: bool, fourth: bool):
    """Per-replicate residual sums ``(R, k)`` of one generation at coefficients ``theta (R, 4)``.

    Columns: the residual sum of squares and the sister products, and
    with ``fourth`` the fourth powers and the squared sister products.
    As in :func:`_generation_stats`, a single tree reduces directly;
    its plain fit and its sequential functionals keep the RSS
    reductions they have always used.
    """
    if forest:
        a, b, c, d = np.repeat(theta, np.diff(bounds), axis=0).T
    else:
        a, b, c, d = theta[0]
    re = np.where(f.has_e, f.xe - (a + b * f.xk), 0.0)
    ro = np.where(f.has_o, f.xo - (c + d * f.xk), 0.0)
    re2, ro2 = re * re, ro * ro
    if not forest:
        if fourth:
            return np.array([re2.sum() + ro2.sum(), re @ ro, re2 @ re2 + ro2 @ ro2, re2 @ ro2])
        return np.array([re @ re + ro @ ro, re @ ro])
    terms = [re2, ro2, re * ro]
    if fourth:
        terms += [re2 * re2, ro2 * ro2, re2 * ro2]
    s = _segment_sums(np.stack(terms), bounds)
    cols = [s[:, 0] + s[:, 1], s[:, 2]]
    if fourth:
        cols += [s[:, 3] + s[:, 4], s[:, 5]]
    return np.stack(cols, axis=-1)


def _residual_totals(frames, mask, thetas: np.ndarray, fourth: bool) -> np.ndarray:
    """Exact residual sums ``(R, k)`` over the frames; ``thetas[:, r]`` fits generation ``r``."""
    rows = np.zeros((mask.replicates, len(frames), 4 if fourth else 2))
    for r, f in enumerate(frames):
        if f is not None:
            rows[:, r] = _residual_sums(f, thetas[:, r], mask.bounds[r], mask.forest, fourth)
    return _finite(exact_sum(rows))


def _per_pair(total: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """``total / pairs``, NaN (not estimable) where no mother has both daughters observed."""
    return np.where(pairs > 0, total / np.maximum(pairs, 1), np.nan)


def _per_tree(tree, result):
    """``result`` as computed, for a forest; for a single tree, its one replicate.

    Arrays lose their leading replicate axis, and per-replicate numbers
    become Python numbers, NaN (not estimable) becoming ``None``.
    """
    if tree.mask.forest:
        return result

    def one(x):
        if isinstance(x, tuple):
            return tuple(map(one, x))
        if dataclasses.is_dataclass(x):
            return type(x)(**{f.name: one(getattr(x, f.name)) for f in dataclasses.fields(x)})
        if not isinstance(x, np.ndarray):
            return x
        if x.ndim > 1:
            return x[0]
        value = x[0].item()
        return None if value != value else value

    return one(result)


def _block(row: np.ndarray, c: int, sx: int, sxx: int) -> np.ndarray:
    """Symmetric 2x2 block(s) ``[[c, sx], [sx, sxx]]`` from table row(s) ``(..., 20)``."""
    return row[..., [[c, sx], [sx, sxx]]]


def _needs_ridge(block: np.ndarray) -> np.ndarray:
    """Whether each 2x2 block ``(..., 2, 2)`` is numerically singular."""
    m00, m01, m11 = block[..., 0, 0], block[..., 0, 1], block[..., 1, 1]
    lam_min = 0.5 * (m00 + m11 - np.hypot(m00 - m11, 2.0 * m01))
    return lam_min < _RIDGE_RTOL * (1.0 + m00 + m11)


def solve2(m: np.ndarray, v: np.ndarray, what: str = "a 2x2 design block") -> np.ndarray:
    """Cramer's rule for ``m x = v`` over any leading axes: ``m (..., 2, 2)``, ``v (..., 2)``."""
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if np.any(np.abs(det) <= _DET_TOL):
        raise NumericalError(f"singular system while computing {what}")
    return np.stack(
        [
            (m[..., 1, 1] * v[..., 0] - m[..., 0, 1] * v[..., 1]) / det,
            (m[..., 0, 0] * v[..., 1] - m[..., 1, 0] * v[..., 0]) / det,
        ],
        axis=-1,
    )


def inverse2(m: np.ndarray, what: str = "a 2x2 design block") -> np.ndarray:
    """Inverse of each ``m (..., 2, 2)``: :func:`solve2` on the identity's rows, transposed."""
    return np.swapaxes(solve2(m[..., None, :, :], np.eye(2), what), -1, -2)


def sandwich(inv0, inv1, s01, sigma2, rho) -> np.ndarray:
    """The coefficient-CLT covariance ``Sigma^-1 Gamma Sigma^-1``, ``(..., 4, 4)``.

    With ``Sigma = diag(S0, S1)``, ``Gamma = [[sigma2 S0, rho S01],
    [rho S01, sigma2 S1]]`` and ``inv0``, ``inv1`` the inverses of S0 and
    S1, its blocks are ``sigma2 S0^-1``, ``sigma2 S1^-1`` and
    ``rho S0^-1 S01 S1^-1`` with its transpose: exactly symmetric.
    ``sigma2`` and ``rho`` hold one value per leading index, or one in all.
    """
    sigma2 = np.asarray(sigma2)[..., None, None]
    cross = np.asarray(rho)[..., None, None] * (inv0 @ s01 @ inv1)
    cov = np.block([[sigma2 * inv0, cross], [np.swapaxes(cross, -1, -2), sigma2 * inv1]])
    return cov + 0.0  # a zero rho or sigma2 times a negative entry is -0.0


@dataclass(frozen=True)
class DesignMatrices:
    """Cumulative design objects over mothers of generations ``0..n``.

    For a forest every field carries a leading replicate axis.
    """

    s0: np.ndarray
    s1: np.ndarray
    s01: np.ndarray
    t_star: int        # observed cells through generation n
    t_star_pairs: int  # observed cells with both daughters observed


def _design(mask, cum: np.ndarray, n: int, ridge=0.0) -> DesignMatrices:
    """Design matrices over mothers ``0..n`` from cumulative rows ``(R, 20)``."""
    return DesignMatrices(
        s0=_block(cum, _C0, _SX0, _SXX0) + ridge,
        s1=_block(cum, _C1, _SX1, _SXX1) + ridge,
        s01=_block(cum, _CP, _SXP, _SXXP),
        t_star=mask.cells_through(n),
        t_star_pairs=np.rint(cum[:, _CP]).astype(np.int64),
    )


@np.errstate(over="ignore", invalid="ignore")
def accumulate_design(tree: ObservedTree, n: int) -> DesignMatrices:
    """Design matrices over mothers in generations ``0..n``.

    Needs the daughters of generation ``n``, hence tree depth ``n + 1``.
    """
    _, cum = _statistics(tree, n, [n])
    return _per_tree(tree, _design(tree.mask, cum[:, 0], n))


@dataclass(frozen=True)
class ThetaEstimate:
    """Least-squares fit of the four autoregression coefficients.

    Carries the plug-in variance material needed downstream: the design
    at the mothers' level, residual moment estimates, and the observed
    pair bookkeeping.  ``rho_hat`` and ``nu2_tau4_hat`` are ``None``
    when no mother has both daughters observed.  For a forest every
    field carries a leading replicate axis, with NaN for an absent pair
    moment; the residual moments (``sigma2_hat`` to
    ``nu2_tau4_hat``) are ``None`` unless they were asked for.
    """

    theta_hat: np.ndarray
    sigma2_hat: float
    rho_hat: float | None
    design: DesignMatrices
    regularized: bool
    t_star: int          # observed cells through generation n
    t_star_parents: int  # observed cells through generation n - 1
    pair_parents: int    # mothers (through n - 1) with both daughters observed
    tau4_hat: float
    nu2_tau4_hat: float | None
    pbar_hat: float
    pi_hat: float
    solve_residual: float

    @property
    def rho_absent_reason(self) -> str | None:
        return "no mother has both daughters observed" if self.rho_hat is None else None


def _solve_level(cum_row: np.ndarray):
    """Solve the two decoupled systems at each cumulative row ``(..., 20)``.

    A row whose even or odd block is numerically singular gets the
    identity added to both.  Returns the coefficients ``(..., 4)``, the
    ridge flags and the relative solve residuals.
    """
    s0 = _block(cum_row, _C0, _SX0, _SXX0)
    s1 = _block(cum_row, _C1, _SX1, _SXX1)
    regularized = _needs_ridge(s0) | _needs_ridge(s1)
    ridge = np.where(regularized[..., None, None], np.eye(2), 0.0)
    s0, s1 = s0 + ridge, s1 + ridge
    rhs = cum_row[..., [_R0, _R0X, _R1, _R1X]]
    theta = np.concatenate([solve2(s0, rhs[..., :2]), solve2(s1, rhs[..., 2:])], axis=-1)
    fitted = np.concatenate(
        [np.einsum("...ij,...j->...i", s0, theta[..., :2]),
         np.einsum("...ij,...j->...i", s1, theta[..., 2:])],
        axis=-1,
    )
    rel = np.linalg.norm(fitted - rhs, axis=-1) / (1.0 + np.linalg.norm(rhs, axis=-1))
    return theta, regularized, rel


@np.errstate(over="ignore", invalid="ignore")
def estimate_theta(tree: ObservedTree, n: int, moments: bool = True) -> ThetaEstimate:
    """Least-squares coefficients from the observed tree through generation ``n``.

    Solves the two decoupled 2x2 systems over mothers of generations
    ``0..n-1``; if either design block is numerically singular the
    identity is added to the whole design (flagged as ``regularized``).
    Residuals at the fitted coefficients then give the noise variance
    and sister-covariance estimates together with their fourth-moment
    analogues used by the plug-in confidence intervals; ``moments=False``
    skips that residual pass.  A forest's extinct replicates are fitted
    too (a bare root gives a ridged zero fit); callers discard them.
    """
    if n < 1:
        raise ValidationError(f"estimation needs n >= 1, got {n}")
    mask = tree.mask
    frames, cum = _statistics(tree, n - 1, [n - 1])
    cum = cum[:, 0]
    t_star = mask.cells_through(n)
    if not mask.forest and t_star[0] <= 1:
        raise EstimationError("no observed daughters: the observed tree is the bare root")

    theta, regularized, rel = _solve_level(cum)
    design = _design(mask, cum, n - 1, np.where(regularized[:, None, None], np.eye(2), 0.0))
    pairs = design.t_star_pairs
    residual = dict.fromkeys(("sigma2_hat", "rho_hat", "tau4_hat", "nu2_tau4_hat"))
    if moments:
        thetas = np.broadcast_to(theta[:, None], (theta.shape[0], n, 4))
        rss, pair_sum, fourth, pair_sq = _residual_totals(frames, mask, thetas, fourth=True).T
        residual = dict(
            sigma2_hat=rss / t_star,
            rho_hat=_per_pair(pair_sum, pairs),
            tau4_hat=fourth / t_star,
            nu2_tau4_hat=_per_pair(pair_sq, pairs),
        )
    return _per_tree(tree, ThetaEstimate(
        theta_hat=theta,
        design=design,
        regularized=regularized,
        t_star=t_star,
        t_star_parents=design.t_star,
        pair_parents=pairs,
        pbar_hat=pairs / design.t_star,
        pi_hat=growth_rate_ratio(mask, n),
        solve_residual=rel,
        **residual,
    ))


@dataclass(frozen=True)
class ThetaPath:
    """Level-by-level estimates ``theta_hat[l - 1] = fit through generation l``.

    For a forest every field carries a leading replicate axis.
    """

    theta: np.ndarray        # (n, 4)
    regularized: np.ndarray  # (n,) bool
    t_star_parents: np.ndarray  # (n,) observed cells through generation l - 1
    design: np.ndarray       # (n, 4, 4) unridged block-diagonal design S*_{l-1}


def _path(mask, cum: np.ndarray) -> ThetaPath:
    """Fits at every level from cumulative rows ``(R, n, 20)``."""
    thetas, flags, _ = _solve_level(cum)
    design = np.zeros(cum.shape[:-1] + (4, 4))
    design[..., :2, :2] = _block(cum, _C0, _SX0, _SXX0)
    design[..., 2:, 2:] = _block(cum, _C1, _SX1, _SXX1)
    sizes = np.stack([mask.generation_sizes(r) for r in range(cum.shape[1])], axis=1)
    return ThetaPath(
        theta=thetas, regularized=flags, t_star_parents=np.cumsum(sizes, axis=1), design=design
    )


@np.errstate(over="ignore", invalid="ignore")
def theta_path(tree: ObservedTree, n: int) -> ThetaPath:
    """All level-``l`` coefficient estimates for ``l = 1..n`` in one pass."""
    if n < 1:
        raise ValidationError(f"estimation needs n >= 1, got {n}")
    _, cum = _statistics(tree, n - 1, range(n))
    return _per_tree(tree, _path(tree.mask, cum))


@dataclass(frozen=True)
class MartingaleDiagnostics:
    """Score path, its normalised quadratic forms, and their running mean.

    Levels whose design is singular (always the first one: a lone root
    cannot identify two coefficients) are excluded from the quadratic
    forms unless the score vanishes there; ``valid`` marks the levels
    entering ``qsl_running``.  For a forest every field carries a
    leading replicate axis.
    """

    m_path: np.ndarray       # (n, 4); row l - 1 is the score at level l
    v_path: np.ndarray       # (n,) quadratic forms, NaN at excluded levels
    qsl_running: np.ndarray  # (n,) running mean of the valid quadratic forms
    valid: np.ndarray        # (n,) bool


@np.errstate(over="ignore", invalid="ignore")
def martingale_diagnostics(
    tree: ObservedTree, theta_true: BarParams, up_to_n: int
) -> MartingaleDiagnostics:
    """Score diagnostics against the true coefficients (simulation mode)."""
    if not tree.has_noise:
        raise ValidationError("martingale diagnostics need recorded true noise")
    if up_to_n < 1:
        raise ValidationError(f"need up_to_n >= 1, got {up_to_n}")
    n = up_to_n
    _, cum = _statistics(tree, n - 1, range(n))
    m = cum[..., [_M0, _M0X, _M1, _M1X]]
    s0 = _block(cum, _C0, _SX0, _SXX0)
    s1 = _block(cum, _C1, _SX1, _SXX1)
    singular = _needs_ridge(s0) | _needs_ridge(s1)
    zero = ~m.any(axis=-1)
    # singular levels solve against the identity; their forms are discarded
    eye = singular[..., None, None]
    s0, s1 = np.where(eye, np.eye(2), s0), np.where(eye, np.eye(2), s1)

    def form(x, s):  # x' s^-1 x; a stacked matmul gives a 2-vector's dot bit for bit
        return np.matmul(x[..., None, :], solve2(s, x)[..., None])[..., 0, 0]

    v = form(m[..., :2], s0) + form(m[..., 2:], s1)
    valid = zero | ~singular
    v_path = np.where(zero, 0.0, np.where(singular, np.nan, v))
    seen = np.cumsum(valid, axis=-1)
    sums = _exact_prefix(np.where(valid, v_path, 0.0)[..., None], range(n))[..., 0]
    qsl = np.where(seen > 0, sums / np.maximum(seen, 1), np.nan)
    diagnostics = MartingaleDiagnostics(m_path=m, v_path=v_path, qsl_running=qsl, valid=valid)
    return _per_tree(tree, diagnostics)


@np.errstate(over="ignore", invalid="ignore")
def true_noise_functionals(tree: ObservedTree, n: int) -> tuple[float, float | None]:
    """Variance and covariance functionals evaluated at the recorded noise.

    The covariance is ``None`` (NaN in a forest) when no mother has both
    daughters observed.
    """
    if not tree.has_noise:
        raise ValidationError("true-noise functionals need recorded noise")
    _, cum = _statistics(tree, n - 1, [n - 1])
    last = cum[:, 0]
    sigma2 = last[:, _TE2] / tree.mask.cells_through(n)
    return _per_tree(tree, (sigma2, _per_pair(last[:, _TEP], np.rint(last[:, _CP]))))


@np.errstate(over="ignore", invalid="ignore")
def sequential_variance_functionals(
    tree: ObservedTree, n: int
) -> tuple[float, float | None]:
    """Variance/covariance estimates built from one-level-ahead residuals.

    Mothers of generation ``l`` contribute residuals at the level-``l``
    fit, the estimate available before their daughters were seen (the
    root's daughters use the first fit).  This sequential convention is
    what the bias limit theorems describe; the plain estimators in
    :func:`estimate_theta` use the final fit instead.  Levels whose fit
    had to be ridged (always the first) fall back to the final fit, so
    exactly self-consistent data yield exactly zero residual gaps.  The
    covariance is ``None`` (NaN in a forest) when no mother has both
    daughters observed.
    """
    if n < 1:
        raise ValidationError(f"estimation needs n >= 1, got {n}")
    mask = tree.mask
    frames, cum = _statistics(tree, n - 1, range(n))
    path = _path(mask, cum)
    level = np.maximum(np.arange(n), 1)  # the fit generation r's residuals are taken at
    level = np.where(path.regularized[:, level - 1], n, level)
    thetas = np.take_along_axis(path.theta, level[..., None] - 1, axis=1)
    rss, pair_sum = _residual_totals(frames, mask, thetas, fourth=False).T
    sigma2 = rss / mask.cells_through(n)
    return _per_tree(tree, (sigma2, _per_pair(pair_sum, np.rint(cum[:, -1, _CP]))))


# ---------------------------------------------------------------------------
# exact sums across generations


def _segment_sums(terms: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-replicate sums ``(R, k)`` of per-cell terms ``(k, cells)``.

    Replicate ``i`` owns cells ``bounds[i]:bounds[i + 1]``; an empty
    segment sums to 0 (``reduceat`` alone would return its first term).
    """
    out = np.zeros((bounds.size - 1, terms.shape[0]))
    starts = bounds[:-1]
    full = starts < bounds[1:]
    if full.any():
        out[full] = np.add.reduceat(terms, starts[full], axis=1).T
    return out


def _exact_prefix(table: np.ndarray, levels) -> np.ndarray:
    """Correctly rounded prefix sums of ``table (R, G, k)`` along ``G``, at ``levels``.

    Each returned prefix equals ``math.fsum`` of its rows (a level-0
    prefix is row 0 itself, and an exact zero past it is ``+0.0``).
    Each of the ``R * k`` columns is summed down its rows as
    :func:`_prefix_columns` describes, a chunk of columns per numpy pass
    so that the temporaries stay small.
    """
    levels = np.asarray(list(levels))
    n_rep, _, k = table.shape
    cols = np.moveaxis(table[:, : levels.max() + 1], 1, 0).reshape(levels.max() + 1, -1)
    out = np.empty((levels.size, cols.shape[1]))
    step = max(1, _PREFIX_CHUNK // cols.shape[0])
    for c in range(0, cols.shape[1], step):
        out[:, c:c + step] = _prefix_columns(cols[:, c:c + step], levels)
    out = np.moveaxis(out.reshape(levels.size, n_rep, k), 0, 1)
    first = levels == 0
    out[:, ~first] += 0.0  # an exact zero past level 0 is +0.0
    out[:, first] = table[:, :1]
    return out


def _prefix_columns(x: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Correctly rounded prefix sums down the columns of ``x (G, n)``, at ``levels``.

    Running sums come from one pass down the rows; the error of each of
    their additions is exact (TwoSum), and the errors' own running sums
    and errors follow, level after level, until no finite error is left
    (Ogita, Rump and Oishi's cascaded summation).  The prefix at level
    ``g`` is then the exact sum of a few terms, one per cascade level.
    Two terms round correctly in one addition; the rare finite prefix
    with a third nonzero term is ``math.fsum`` of its rows, and one that
    overflowed keeps the summed terms (NaN).
    """
    rows = x
    # terms[j]: the running sums of cascade level j at each requested
    # level (0 below j), as each level's first addition is one row on
    terms = []

    def add_term(errors):
        s = np.cumsum(errors, axis=0)
        term = np.zeros((levels.size, errors.shape[1]))
        have = levels >= len(terms)
        term[have] = s[levels[have] - len(terms)]
        terms.append(term)
        return s

    while x.shape[0]:
        s = add_term(x)
        a, b, t = s[:-1], x[1:], s[1:]
        v = t - a
        x = (a - (t - v)) + (b - v)
        if not (np.isfinite(x) & (x != 0.0)).any():
            break
    if not np.isfinite(x).all():  # overflow: its NaN errors mark the prefixes it reaches
        add_term(x)
    out = sum(terms[1:], terms[0])
    deep = np.any([term != 0.0 for term in terms[2:]], axis=0) & np.isfinite(out)
    for g, c in zip(*np.nonzero(deep)):
        out[g, c] = math.fsum(rows[: levels[g] + 1, c].tolist())
    return out


def exact_sum(table: np.ndarray) -> np.ndarray:
    """``math.fsum`` along axis 1 of ``table (R, G, k)``, vectorised: ``(R, k)``."""
    return _exact_prefix(table, [table.shape[1] - 1])[:, 0]
