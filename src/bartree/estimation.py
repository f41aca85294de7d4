"""Least-squares estimation on partially observed trees.

Everything here is driven by per-generation sufficient statistics: one
pass over the observed mother/daughter pairs of each generation yields
the design-matrix and right-hand-side increments, and compensated
prefix sums across generations give the cumulative objects at every
level.  The estimator decouples into two 2x2 systems (even and odd
daughters), solved in closed form; near-singular designs are ridged by
adding the identity, which the asymptotic theory makes harmless.
"""

from __future__ import annotations

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


def _frames(tree, upto: int) -> list[_Frame | None]:
    """Per-generation frames for mothers in generations ``0..upto``.

    ``tree`` is an :class:`ObservedTree` or an :class:`ObservedForest`;
    a forest's frames concatenate its replicates' generations.
    """
    if upto + 1 > tree.depth:
        raise ValidationError(
            f"daughters of generation {upto} need tree depth {upto + 1}, have {tree.depth}"
        )
    frames: list[_Frame | None] = []
    for r in range(upto + 1):
        xk = tree.values[r]
        if xk.size == 0:
            frames.append(None)
            continue
        has_e, pos_e, has_o, pos_o = tree.mask.child_positions(r)
        xnext = tree.values[r + 1]
        enext = tree.noise[r + 1] if tree.has_noise else None
        zeros = np.zeros(xk.size)
        if xnext.size:
            xe = np.where(has_e, xnext[pos_e], 0.0)
            xo = np.where(has_o, xnext[pos_o], 0.0)
        else:
            xe = xo = zeros
        if enext is not None and enext.size:
            eps_e = np.where(has_e, enext[pos_e], 0.0)
            eps_o = np.where(has_o, enext[pos_o], 0.0)
        else:
            eps_e = eps_o = zeros
        frames.append(_Frame(xk, has_e, has_o, xe, xo, eps_e, eps_o))
    return frames


def _stats_table(frames: list[_Frame | None]) -> np.ndarray:
    table = np.zeros((len(frames), _NCOLS))
    for r, f in enumerate(frames):
        if f is None:
            continue
        row = table[r]
        xk, xk2 = f.xk, f.xk * f.xk
        e, o = f.has_e.astype(float), f.has_o.astype(float)
        p = e * o
        row[_C0], row[_SX0], row[_SXX0] = e.sum(), xk @ e, xk2 @ e
        row[_C1], row[_SX1], row[_SXX1] = o.sum(), xk @ o, xk2 @ o
        row[_CP], row[_SXP], row[_SXXP] = p.sum(), xk @ p, xk2 @ p
        row[_R0], row[_R0X] = f.xe.sum(), xk @ f.xe
        row[_R1], row[_R1X] = f.xo.sum(), xk @ f.xo
        row[_OBS] = f.xk.size
        row[_M0], row[_M0X] = f.eps_e.sum(), xk @ f.eps_e
        row[_M1], row[_M1X] = f.eps_o.sum(), xk @ f.eps_o
        row[_TE2] = f.eps_e @ f.eps_e + f.eps_o @ f.eps_o
        row[_TEP] = f.eps_e @ f.eps_o
    return table


def _prefix_fsum(table: np.ndarray) -> np.ndarray:
    """Exact prefix sums of each column (compensated accumulation)."""
    out = np.empty_like(table)
    for j in range(table.shape[1]):
        col = table[:, j].tolist()
        out[:, j] = [math.fsum(col[: i + 1]) for i in range(len(col))]
    return out


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


@dataclass(frozen=True)
class DesignMatrices:
    """Cumulative design objects over mothers of generations ``0..n``.

    For a forest every field carries a leading replicate axis.
    """

    n: int
    s0: np.ndarray
    s1: np.ndarray
    s01: np.ndarray
    t_star: int        # observed cells through generation n
    t_star_pairs: int  # observed cells with both daughters observed
    g_star: int        # observed cells in generation n

    def sigma(self) -> np.ndarray:
        out = np.zeros(self.s0.shape[:-2] + (4, 4))
        out[..., :2, :2] = self.s0
        out[..., 2:, 2:] = self.s1
        return out

    def gamma(self, sigma2, rho) -> np.ndarray:
        sigma2 = np.asarray(sigma2)[..., None, None]
        rho = np.asarray(rho)[..., None, None]
        out = np.zeros(self.s0.shape[:-2] + (4, 4))
        out[..., :2, :2] = sigma2 * self.s0
        out[..., 2:, 2:] = sigma2 * self.s1
        out[..., :2, 2:] = rho * self.s01
        out[..., 2:, :2] = rho * self.s01
        return out


def accumulate_design(tree: ObservedTree, n: int) -> DesignMatrices:
    """Design matrices over mothers in generations ``0..n``.

    Needs the daughters of generation ``n``, hence tree depth ``n + 1``.
    """
    frames = _frames(tree, n)
    cum = _prefix_fsum(_stats_table(frames))[n]
    return DesignMatrices(
        n=n,
        s0=_block(cum, _C0, _SX0, _SXX0),
        s1=_block(cum, _C1, _SX1, _SXX1),
        s01=_block(cum, _CP, _SXP, _SXXP),
        t_star=tree.mask.total_count(n),
        t_star_pairs=int(round(cum[_CP])),
        g_star=tree.mask.generation_count(n),
    )


@dataclass(frozen=True)
class ThetaEstimate:
    """Least-squares fit of the four autoregression coefficients.

    Carries the plug-in variance material needed downstream: the design
    at the mothers' level, residual moment estimates, and the observed
    pair bookkeeping.  ``rho_hat`` is ``None`` (with a reason) when no
    mother has both daughters observed.
    """

    theta_hat: np.ndarray
    sigma2_hat: float
    rho_hat: float | None
    rho_absent_reason: str | None
    design: DesignMatrices
    regularized: bool
    n: int
    t_star: int          # observed cells through generation n
    t_star_parents: int  # observed cells through generation n - 1
    pair_parents: int    # mothers (through n - 1) with both daughters observed
    tau4_hat: float
    nu2_tau4_hat: float | None
    pbar_hat: float
    pi_hat: float
    solve_residual: float

    @property
    def a(self) -> float:
        return float(self.theta_hat[0])

    @property
    def b(self) -> float:
        return float(self.theta_hat[1])

    @property
    def c(self) -> float:
        return float(self.theta_hat[2])

    @property
    def d(self) -> float:
        return float(self.theta_hat[3])


def _solve_level(cum_row: np.ndarray):
    """Solve the two decoupled systems at each cumulative row ``(..., 20)``.

    A row whose even or odd block is numerically singular gets the
    identity added to both.  Returns the coefficients ``(..., 4)``, the
    ridge flags and the relative solve residuals.
    """
    s0 = _block(cum_row, _C0, _SX0, _SXX0)
    s1 = _block(cum_row, _C1, _SX1, _SXX1)
    regularized = _needs_ridge(s0) | _needs_ridge(s1)
    ridge = np.where(np.asarray(regularized)[..., None, None], np.eye(2), 0.0)
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


def _residual_moments(frames, theta, upto):
    """Residual sums over mothers ``0..upto`` at a fixed coefficient vector."""
    a, b, c, d = theta
    rows = np.zeros((upto + 1, 4))  # rss, pair, fourth, pair-square
    for r in range(upto + 1):
        f = frames[r]
        if f is None:
            continue
        re = np.where(f.has_e, f.xe - (a + b * f.xk), 0.0)
        ro = np.where(f.has_o, f.xo - (c + d * f.xk), 0.0)
        re2, ro2 = re * re, ro * ro
        rows[r] = (
            re2.sum() + ro2.sum(),
            re @ ro,
            re2 @ re2 + ro2 @ ro2,
            re2 @ ro2,
        )
    return [math.fsum(rows[:, j].tolist()) for j in range(4)]


def estimate_theta(tree: ObservedTree, n: int) -> ThetaEstimate:
    """Least-squares coefficients from the observed tree through generation ``n``.

    Solves the two decoupled 2x2 systems over mothers of generations
    ``0..n-1``; if either design block is numerically singular the
    identity is added to the whole design (flagged as ``regularized``).
    Residuals at the fitted coefficients then give the noise variance
    and sister-covariance estimates together with their fourth-moment
    analogues used by the plug-in confidence intervals.
    """
    if n < 1:
        raise ValidationError(f"estimation needs n >= 1, got {n}")
    frames = _frames(tree, n - 1)
    cum = _prefix_fsum(_stats_table(frames))
    t_star_parents = tree.mask.total_count(n - 1)
    t_star = tree.mask.total_count(n)
    if t_star <= 1:
        raise EstimationError("no observed daughters: the observed tree is the bare root")

    theta, regularized, rel = _solve_level(cum[n - 1])
    regularized = bool(regularized)

    rss, pair_sum, fourth, pair_sq = _residual_moments(frames, theta, n - 1)
    pairs = int(round(cum[n - 1, _CP]))
    sigma2_hat = rss / t_star
    tau4_hat = fourth / t_star
    if pairs > 0:
        rho_hat, nu2_tau4_hat, reason = pair_sum / pairs, pair_sq / pairs, None
    else:
        rho_hat, nu2_tau4_hat = None, None
        reason = "no mother has both daughters observed"

    design = DesignMatrices(
        n=n - 1,
        s0=_block(cum[n - 1], _C0, _SX0, _SXX0) + (np.eye(2) if regularized else 0.0),
        s1=_block(cum[n - 1], _C1, _SX1, _SXX1) + (np.eye(2) if regularized else 0.0),
        s01=_block(cum[n - 1], _CP, _SXP, _SXXP),
        t_star=t_star_parents,
        t_star_pairs=pairs,
        g_star=tree.mask.generation_count(n - 1),
    )
    return ThetaEstimate(
        theta_hat=theta,
        sigma2_hat=sigma2_hat,
        rho_hat=rho_hat,
        rho_absent_reason=reason,
        design=design,
        regularized=regularized,
        n=n,
        t_star=t_star,
        t_star_parents=t_star_parents,
        pair_parents=pairs,
        tau4_hat=tau4_hat,
        nu2_tau4_hat=nu2_tau4_hat,
        pbar_hat=pairs / t_star_parents,
        pi_hat=growth_rate_ratio(tree.mask, n),
        solve_residual=float(rel),
    )


@dataclass(frozen=True)
class ThetaPath:
    """Level-by-level estimates ``theta_hat[l - 1] = fit through generation l``.

    For a forest every field carries a leading replicate axis.
    """

    theta: np.ndarray        # (n, 4)
    regularized: np.ndarray  # (n,) bool
    t_star_parents: np.ndarray  # (n,) observed cells through generation l - 1
    design: np.ndarray       # (n, 4, 4) unridged block-diagonal design S*_{l-1}


def theta_path(tree: ObservedTree, n: int) -> ThetaPath:
    """All level-``l`` coefficient estimates for ``l = 1..n`` in one pass."""
    if n < 1:
        raise ValidationError(f"estimation needs n >= 1, got {n}")
    frames = _frames(tree, n - 1)
    cum = _prefix_fsum(_stats_table(frames))
    parents = np.cumsum([tree.mask.generation_count(r) for r in range(n)])
    return _path(cum, parents)


def _path(cum: np.ndarray, parents: np.ndarray) -> ThetaPath:
    """Fits at every level from cumulative rows ``(..., n, 20)``."""
    thetas, flags, _ = _solve_level(cum)
    design = np.zeros(cum.shape[:-1] + (4, 4))
    design[..., :2, :2] = _block(cum, _C0, _SX0, _SXX0)
    design[..., 2:, 2:] = _block(cum, _C1, _SX1, _SXX1)
    return ThetaPath(theta=thetas, regularized=flags, t_star_parents=parents, design=design)


@dataclass(frozen=True)
class MartingaleDiagnostics:
    """Score path, its normalised quadratic forms, and their running mean.

    Levels whose design is singular (always the first one: a lone root
    cannot identify two coefficients) are excluded from the quadratic
    forms unless the score vanishes there; ``valid`` marks the levels
    entering ``qsl_running``.
    """

    m_path: np.ndarray       # (n, 4); row l - 1 is the score at level l
    v_path: np.ndarray       # (n,) quadratic forms, NaN at excluded levels
    qsl_running: np.ndarray  # (n,) running mean of the valid quadratic forms
    valid: np.ndarray        # (n,) bool


def martingale_diagnostics(
    tree: ObservedTree, theta_true: BarParams, up_to_n: int
) -> MartingaleDiagnostics:
    """Score diagnostics against the true coefficients (simulation mode)."""
    if not tree.has_noise:
        raise ValidationError("martingale diagnostics need recorded true noise")
    if up_to_n < 1:
        raise ValidationError(f"need up_to_n >= 1, got {up_to_n}")
    frames = _frames(tree, up_to_n - 1)
    cum = _prefix_fsum(_stats_table(frames))

    n = up_to_n
    m_path = np.column_stack([cum[:n, j] for j in (_M0, _M0X, _M1, _M1X)])
    v_path = np.full(n, np.nan)
    valid = np.zeros(n, dtype=bool)
    for level in range(1, n + 1):
        row = cum[level - 1]
        m = m_path[level - 1]
        if not m.any():
            v_path[level - 1] = 0.0
            valid[level - 1] = True
            continue
        s0 = _block(row, _C0, _SX0, _SXX0)
        s1 = _block(row, _C1, _SX1, _SXX1)
        if _needs_ridge(s0) or _needs_ridge(s1):
            continue
        v_path[level - 1] = float(m[:2] @ solve2(s0, m[:2]) + m[2:] @ solve2(s1, m[2:]))
        valid[level - 1] = True

    qsl = np.full(n, np.nan)
    seen: list[float] = []
    for level in range(n):
        if valid[level]:
            seen.append(float(v_path[level]))
        if seen:
            qsl[level] = math.fsum(seen) / len(seen)
    return MartingaleDiagnostics(m_path=m_path, v_path=v_path, qsl_running=qsl, valid=valid)


def true_noise_functionals(tree: ObservedTree, n: int) -> tuple[float, float | None]:
    """Variance and covariance functionals evaluated at the recorded noise."""
    if not tree.has_noise:
        raise ValidationError("true-noise functionals need recorded noise")
    frames = _frames(tree, n - 1)
    cum = _prefix_fsum(_stats_table(frames))[n - 1]
    t_star = tree.mask.total_count(n)
    pairs = int(round(cum[_CP]))
    sigma2 = cum[_TE2] / t_star
    rho = cum[_TEP] / pairs if pairs > 0 else None
    return sigma2, rho


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
    exactly self-consistent data yield exactly zero residual gaps.
    """
    path = theta_path(tree, n)
    frames = _frames(tree, n - 1)
    rows = np.zeros((n, 2))
    pair_counts = np.zeros(n)
    for r in range(n):
        f = frames[r]
        if f is None:
            continue
        level = max(r, 1)
        if path.regularized[level - 1]:
            level = n
        a, b, c, d = path.theta[level - 1]
        re = np.where(f.has_e, f.xe - (a + b * f.xk), 0.0)
        ro = np.where(f.has_o, f.xo - (c + d * f.xk), 0.0)
        rows[r] = (re @ re + ro @ ro, re @ ro)
        pair_counts[r] = float((f.has_e & f.has_o).sum())
    t_star = tree.mask.total_count(n)
    pairs = int(round(math.fsum(pair_counts.tolist())))
    sigma2 = math.fsum(rows[:, 0].tolist()) / t_star
    rho = math.fsum(rows[:, 1].tolist()) / pairs if pairs > 0 else None
    return sigma2, rho


# ---------------------------------------------------------------------------
# forests: every replicate of a Monte Carlo block at once
#
# The per-generation passes run over a forest's concatenated generations;
# per-replicate sums come from segment reductions, and sums across
# generations from exact (correctly rounded) prefix sums, as above.


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


def _cell_terms(f: _Frame) -> np.ndarray:
    """The per-cell terms ``(20, cells)`` whose sums are the table columns."""
    xk, xk2 = f.xk, f.xk * f.xk
    e, o = f.has_e.astype(float), f.has_o.astype(float)
    p = e * o
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
    return t


def _forest_table(forest, upto: int):
    """Frames and per-(replicate, generation) statistics ``(R, upto + 1, 20)``."""
    frames = _frames(forest, upto)
    table = np.zeros((forest.mask.replicates, upto + 1, _NCOLS))
    for r, f in enumerate(frames):
        if f is not None:
            table[:, r] = _segment_sums(_cell_terms(f), forest.mask.bounds[r])
    return frames, table


def _exact_prefix(table: np.ndarray, levels) -> np.ndarray:
    """Correctly rounded prefix sums of ``table (R, G, k)`` along ``G``, at ``levels``.

    Each returned prefix equals ``math.fsum`` of its rows.  Rows are
    added one at a time into a nonoverlapping floating-point expansion
    (Shewchuk's grow-expansion with the error-free TwoSum), vectorised
    over replicates and columns; an expansion is rounded as
    :func:`_round_expansion` describes.
    """
    levels = list(levels)
    parts: list[np.ndarray] = []
    out = []
    for g in range(levels[-1] + 1):
        x = table[:, g]
        grown = []
        for p in parts:
            hi = x + p
            v = hi - x
            grown.append((x - (hi - v)) + (p - v))
            x = hi
        grown.append(x)
        parts = grown
        if g in levels:
            out.append(_round_expansion(parts))
    return np.stack(out, axis=1)


def exact_sum(table: np.ndarray) -> np.ndarray:
    """``math.fsum`` along axis 1 of ``table (R, G, k)``, vectorised: ``(R, k)``."""
    return _exact_prefix(table, [table.shape[1] - 1])[:, 0]


def _round_expansion(parts: list[np.ndarray]) -> np.ndarray:
    """Round a nonoverlapping expansion (increasing magnitude) to the nearest double.

    The ``math.fsum`` finish: add components from the top until one
    addition is inexact, then break a half-way tie toward the sign of
    the largest nonzero component left below.
    """
    # sign of the largest nonzero component among parts[:k], for each k
    signs = [np.zeros_like(parts[0])]
    for p in parts[:-1]:
        signs.append(np.where(p != 0.0, np.sign(p), signs[-1]))
    hi, lo = parts[-1], np.zeros_like(parts[-1])
    below = np.zeros_like(hi)
    live = np.ones(hi.shape, dtype=bool)
    for k in range(len(parts) - 2, -1, -1):
        total = hi + parts[k]
        err = parts[k] - (total - hi)
        hi = np.where(live, total, hi)
        stop = live & (err != 0.0)
        lo = np.where(stop, err, lo)
        below = np.where(stop, signs[k], below)
        live &= ~stop
    y = 2.0 * lo
    x = hi + y
    tie = (lo * below > 0.0) & (x - hi == y)
    return np.where(tie, x, hi)


def _residual_sums(f: _Frame, theta: np.ndarray, bounds: np.ndarray, fourth: bool) -> np.ndarray:
    """Per-replicate residual sums of one generation at coefficients ``theta (R, 4)``.

    Columns: the residual sum of squares and the sister products, and
    with ``fourth`` the fourth powers and the squared sister products;
    even and odd daughters are summed apart, then added.
    """
    rep = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    a, b, c, d = theta[rep].T
    re = np.where(f.has_e, f.xe - (a + b * f.xk), 0.0)
    ro = np.where(f.has_o, f.xo - (c + d * f.xk), 0.0)
    re2, ro2 = re * re, ro * ro
    terms = [re2, ro2, re * ro]
    if fourth:
        terms += [re2 * re2, ro2 * ro2, re2 * ro2]
    s = _segment_sums(np.stack(terms), bounds)
    cols = [s[:, 0] + s[:, 1], s[:, 2]]
    if fourth:
        cols += [s[:, 3] + s[:, 4], s[:, 5]]
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class ForestEstimate:
    """:func:`estimate_theta` for every replicate of a forest, as arrays.

    Fields mean what they mean in :class:`ThetaEstimate`, with a leading
    replicate axis.  ``rho_hat`` and ``nu2_tau4_hat`` are 0 where
    ``pair_parents`` is 0.  The residual moments (``sigma2_hat`` to
    ``nu2_tau4_hat``) are ``None`` unless they were asked for.
    """

    theta_hat: np.ndarray
    regularized: np.ndarray
    design: DesignMatrices
    t_star: np.ndarray
    t_star_parents: np.ndarray
    pair_parents: np.ndarray
    pbar_hat: np.ndarray
    pi_hat: np.ndarray
    sigma2_hat: np.ndarray | None = None
    rho_hat: np.ndarray | None = None
    tau4_hat: np.ndarray | None = None
    nu2_tau4_hat: np.ndarray | None = None


def forest_design(forest, n: int) -> DesignMatrices:
    """:func:`accumulate_design` for every replicate of a forest."""
    _, table = _forest_table(forest, n)
    cum = exact_sum(table)
    return DesignMatrices(
        n=n,
        s0=_block(cum, _C0, _SX0, _SXX0),
        s1=_block(cum, _C1, _SX1, _SXX1),
        s01=_block(cum, _CP, _SXP, _SXXP),
        t_star=forest.mask.cells_through(n),
        t_star_pairs=np.rint(cum[:, _CP]).astype(np.int64),
        g_star=forest.mask.generation_sizes(n),
    )


def forest_estimate(forest, n: int, moments: bool = True) -> ForestEstimate:
    """:func:`estimate_theta` for every replicate of a forest.

    Extinct replicates are fitted too (a bare root gives a ridged zero
    fit); callers discard them.  ``moments`` adds the residual pass.
    """
    if n < 1:
        raise ValidationError(f"estimation needs n >= 1, got {n}")
    frames, table = _forest_table(forest, n - 1)
    cum = exact_sum(table)
    theta, regularized, _ = _solve_level(cum)
    t_star = forest.mask.cells_through(n)
    t_star_parents = t_star - forest.mask.generation_sizes(n)
    pairs = np.rint(cum[:, _CP]).astype(np.int64)
    ridge = np.where(regularized[:, None, None], np.eye(2), 0.0)
    design = DesignMatrices(
        n=n - 1,
        s0=_block(cum, _C0, _SX0, _SXX0) + ridge,
        s1=_block(cum, _C1, _SX1, _SXX1) + ridge,
        s01=_block(cum, _CP, _SXP, _SXXP),
        t_star=t_star_parents,
        t_star_pairs=pairs,
        g_star=forest.mask.generation_sizes(n - 1),
    )
    fit = dict(
        theta_hat=theta,
        regularized=regularized,
        design=design,
        t_star=t_star,
        t_star_parents=t_star_parents,
        pair_parents=pairs,
        pbar_hat=pairs / t_star_parents,
        pi_hat=(t_star - 1) / t_star_parents,
    )
    if moments:
        rows = np.zeros((theta.shape[0], n, 4))
        for r, f in enumerate(frames):
            if f is not None:
                rows[:, r] = _residual_sums(f, theta, forest.mask.bounds[r], fourth=True)
        rss, pair_sum, fourth, pair_sq = exact_sum(rows).T
        with_pairs = pairs > 0
        per_pair = np.maximum(pairs, 1)
        fit.update(
            sigma2_hat=rss / t_star,
            tau4_hat=fourth / t_star,
            rho_hat=np.where(with_pairs, pair_sum / per_pair, 0.0),
            nu2_tau4_hat=np.where(with_pairs, pair_sq / per_pair, 0.0),
        )
    return ForestEstimate(**fit)


def forest_theta_path(forest, n: int) -> ThetaPath:
    """:func:`theta_path` for every replicate of a forest (fields gain a replicate axis)."""
    if n < 1:
        raise ValidationError(f"estimation needs n >= 1, got {n}")
    _, table = _forest_table(forest, n - 1)
    return _forest_path(forest, _exact_prefix(table, range(n)))


def _forest_path(forest, cum: np.ndarray) -> ThetaPath:
    """Fits at every level from a forest's cumulative rows ``(R, n, 20)``."""
    sizes = np.stack([forest.mask.generation_sizes(r) for r in range(cum.shape[1])], axis=1)
    return _path(cum, np.cumsum(sizes, axis=1))


def forest_variance_functionals(forest, n: int):
    """Sequential and true-noise variance functionals for every replicate.

    Returns ``(sigma2_seq, rho_seq, sigma2_true, rho_true, with_pairs)``:
    :func:`sequential_variance_functionals` and
    :func:`true_noise_functionals` per replicate, with both covariance
    functionals 0 where ``with_pairs`` is false.
    """
    if n < 1:
        raise ValidationError(f"estimation needs n >= 1, got {n}")
    frames, table = _forest_table(forest, n - 1)
    cum = _exact_prefix(table, range(n))
    path = _forest_path(forest, cum)
    reps = np.arange(table.shape[0])
    rows = np.zeros((table.shape[0], n, 2))
    for r, f in enumerate(frames):
        if f is not None:
            level = np.where(path.regularized[:, max(r, 1) - 1], n, max(r, 1))
            theta = path.theta[reps, level - 1]
            rows[:, r] = _residual_sums(f, theta, forest.mask.bounds[r], fourth=False)
    seq = exact_sum(rows)
    last = cum[:, -1]
    t_star = forest.mask.cells_through(n)
    pairs = np.rint(last[:, _CP])
    with_pairs = pairs > 0
    per_pair = np.maximum(pairs, 1.0)
    return (
        seq[:, 0] / t_star,
        np.where(with_pairs, seq[:, 1] / per_pair, 0.0),
        last[:, _TE2] / t_star,
        np.where(with_pairs, last[:, _TEP] / per_pair, 0.0),
        with_pairs,
    )
