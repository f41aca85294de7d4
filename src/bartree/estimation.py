"""Least-squares estimation on partially observed trees and forests.

Everything here is driven by per-generation sufficient statistics: one
pass over the observed mother/daughter pairs of each generation yields
the design-matrix and right-hand-side increments, and one sequential
running sum across generations (``np.cumsum`` along the generation axis)
gives the cumulative objects at every level, the one thing a tree
memoises (a pass builds its frames and drops them).  That fixed
left-to-right order makes a level's statistics independent of later
generations and of the replicates summed beside it.  The estimator
decouples into two 2x2 systems (even and odd daughters), solved in
closed form; near-singular designs are ridged by adding the identity,
which the asymptotic theory makes harmless; :func:`singular` decides it.

The public functions accept a tree or a forest (the replicates of a
Monte Carlo block, see :class:`~bartree.gw.ObservationMask`) and return
a forest's results with a leading replicate axis and a tree's as plain
values; both fill the same ``(replicate, generation)`` rows, through two
kernel families.  A forest works one pass per generation group: it forms
the per-cell terms of a run of consecutive generations at once and sums
each (generation, replicate) segment with ``np.add.reduceat``.  A single
tree keeps one pass per generation of plain ``.sum()`` and ``@``
reductions, which need no per-cell term array: one full depth-20 tree
took 44 ms and an 8 MB ``tracemalloc`` peak to fit this way, against
173 ms and 57 MB as a one-replicate forest.
"""

from __future__ import annotations

import dataclasses
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
_M0, _M0X, _M1, _M1X = 13, 14, 15, 16  # score increments (true noise)
_TE2, _TEP = 17, 18                  # true-noise square / pair-product sums
_NCOLS = 19


@dataclass(frozen=True)
class _Frame:
    """Mother values and daughter data of generations ``first..stop - 1``, zero where unobserved.

    A single tree's frame holds one generation.  A forest's frame holds
    a run of consecutive generations, in the mask's layout: by
    generation, and within a generation by replicate, so ``bounds``
    (length ``(stop - first) R + 1``) cut it into one segment per
    (generation, replicate).  Its mother and flag columns are views of
    the tree's ``x`` and the mask's ``flags``.  ``full`` marks a frame
    whose mothers all have both daughters observed; its daughter and
    noise columns are then views of ``x`` and ``eps`` too.  Frames are
    built per pass (:func:`_frames`) and not kept.
    """

    first: int
    stop: int
    xk: np.ndarray
    has_e: np.ndarray
    has_o: np.ndarray
    xe: np.ndarray
    xo: np.ndarray
    eps_e: np.ndarray | None  # None without recorded noise
    eps_o: np.ndarray | None
    full: bool
    bounds: np.ndarray | None = None


def _frame(tree, first: int, stop: int) -> _Frame:
    """The mothers of generations ``first..stop - 1`` and their daughters.

    Consecutive generations lie back to back in the mask's and the
    tree's arrays, so each column is one slice of them, cut at the
    mask's ``starts``.  The offspring flags lay the next generations out
    row-major, so filling a zeroed array of two slots per mother at the
    set flags' positions puts each daughter beside its mother; when
    every flag is set, the next generations' slice already is that
    array.  Either way the daughter columns are strided views of it.
    """
    mask = tree.mask
    s = mask.starts
    flags = mask.flags[s[first]:s[stop]]
    full = bool(flags.all())
    slots = None if full else np.flatnonzero(flags)

    def expand(daughters):
        pair = daughters
        if not full:
            pair = np.zeros(flags.size)
            pair[slots] = daughters
        return pair[0::2], pair[1::2]

    kids = slice(s[first + 1], s[stop + 1])
    xe, xo = expand(tree.x[kids])
    eps_e, eps_o = expand(tree.eps[kids]) if tree.has_noise else (None, None)
    bounds = None
    if mask.forest:  # one segment per (generation, replicate)
        bounds = np.concatenate([[0], np.cumsum(np.diff(mask.bounds[first:stop], axis=1))])
    return _Frame(first, stop, tree.x[s[first]:s[stop]], flags[:, 0], flags[:, 1],
                  xe, xo, eps_e, eps_o, full, bounds)


def _runs(mask, lo: int, hi: int) -> list[tuple[int, int]]:
    """Runs ``(first, stop)`` of consecutive generations covering ``lo..hi - 1``.

    A single tree's runs are its generations.  A forest's each hold at
    most as many cells as its widest generation in the range, so a
    forest's per-cell temporaries stay within one generation's.
    """
    if not mask.forest:
        return [(r, r + 1) for r in range(lo, hi)]
    sizes = [mask.generation_count(r) for r in range(lo, hi)]
    widest, runs, first, cells = max(sizes), [], lo, 0
    for r, size in enumerate(sizes, lo):
        if cells + size > widest:
            runs.append((first, r))
            first, cells = r, 0
        cells += size
    return runs + [(first, hi)]


def _frames(tree, lo: int, hi: int):
    """Frames of the mothers in generations ``lo..hi - 1``, one per run, each built as it is read.

    No frame is kept: the statistics pass and each residual pass build
    their own, so a tree holds only its running sums (:func:`_statistics`).
    """
    for run in _runs(tree.mask, lo, hi):
        yield _frame(tree, *run)


def _widen(sums: np.ndarray) -> np.ndarray:
    """Statistics rows ``(..., 19)`` from column sums: a full frame's three design sums repeated."""
    design = sums[..., :-10]
    return np.concatenate([design] * (9 // design.shape[-1]) + [sums[..., -10:]], axis=-1)


def _generation_stats(f: _Frame) -> np.ndarray:
    """Statistics row ``(19,)`` of a single tree's generation: sums over its mothers.

    The columns follow the layout above: nine design sums, then ten data sums.

    A single tree reduces each column directly and holds no term array
    (and so does :func:`_residual_sums`); a forest sums segments of the
    per-cell terms instead (:func:`_forest_stats`; the module docstring
    says why both are kept).  A full frame's even, odd and both-daughters masks are all ones, so its
    three design sums are formed once and repeated.  The reductions read
    contiguous copies of the frame's columns: BLAS takes another
    summation order on strided vectors.  To keep a deep tree's peak low,
    a tree takes its design sums first and drops ``xk**2`` and the
    masks, then copies one column at a time (the two noise columns
    together, for their cross product).
    """
    xk, xk2 = f.xk, f.xk * f.xk
    if f.full:
        masks = [np.ones(xk.size)]
    else:  # held by the list alone, so that dropping it frees them
        masks = [f.has_e.astype(float), f.has_o.astype(float)]
        masks.append(masks[0] * masks[1])
    sums = [s for m in masks for s in (m.sum(), xk @ m, xk2 @ m)]
    del xk2, masks
    for col in (f.xe, f.xo):
        col = np.ascontiguousarray(col)
        sums += [col.sum(), xk @ col]
    del col
    if f.eps_e is None:  # no recorded noise: zero noise sums
        return _widen(np.array(sums + [0.0] * 6))
    eps_e, eps_o = np.ascontiguousarray(f.eps_e), np.ascontiguousarray(f.eps_o)
    return _widen(np.array(sums + [eps_e.sum(), xk @ eps_e, eps_o.sum(), xk @ eps_o,
                                   eps_e @ eps_e + eps_o @ eps_o, eps_e @ eps_o]))


def _forest_stats(f: _Frame) -> np.ndarray:
    """Statistics rows ``(G R, 19)`` of a forest frame: one per (generation, replicate) segment.

    Every per-cell term of the frame's generations is formed in one
    numpy pass and one ``np.add.reduceat`` sums the segments.  A
    segment's sum depends only on its own terms, so each row is the one
    a pass over its generation alone gives, bit for bit.  The design
    rows are the even, odd and both-daughters masks ``m`` (one mask, all
    ones, for a full frame) with ``xk m`` and ``xk**2 m``, formed in the
    term array itself with no other temporary.  The term array is a
    Monte Carlo block's largest allocation, and glibc trims the heap
    whenever more than twice that is free at its top; a block that
    stays under it reuses its pages instead of faulting them in afresh.
    """
    xk, noise = f.xk, f.eps_e is not None
    masks = 1 if f.full else 3
    t = (np.empty if noise else np.zeros)((3 * masks + 10, xk.size))  # no noise: zero noise terms
    if f.full:
        t[0] = 1.0
    else:
        t[0], t[3] = f.has_e, f.has_o
        np.multiply(t[0], t[3], out=t[6])
    np.multiply(xk, xk, out=t[2])
    for i in reversed(range(masks)):  # row 2 holds xk**2 until it is the last one formed
        np.multiply(xk, t[3 * i], out=t[3 * i + 1])
        np.multiply(t[2], t[3 * i], out=t[3 * i + 2])
    data = t[-10:]
    for k, col in enumerate((f.xe, f.xo, f.eps_e, f.eps_o)[:4 if noise else 2]):
        data[2 * k] = col
        np.multiply(xk, col, out=data[2 * k + 1])
    if noise:
        np.multiply(f.eps_e, f.eps_e, out=data[8])
        data[8] += f.eps_o * f.eps_o
        np.multiply(f.eps_e, f.eps_o, out=data[9])
    return _widen(_segment_sums(t, f.bounds))


def _finite(sums: np.ndarray) -> np.ndarray:
    """The finite gate: ``sums``, unless values too large to fit made one inf or NaN.

    The public functions below run with overflow warnings off; the
    statistics and the residual sums pass through here instead, so that
    such data end in :class:`NumericalError`.
    """
    if not np.isfinite(sums).all():
        raise NumericalError("sums overflow: the values are too large to fit")
    return sums


def _statistics(tree, upto: int, levels) -> np.ndarray:
    """Cumulative statistics ``(R, len(levels), 19)`` over mothers ``0..l``; the one level range check.

    Each cumulative row is the running sum of its generation rows, in
    generation order.  The running sums are the tree's one memo, so
    every function called on one tree shares one build.  A deeper
    ``upto`` builds the rows of generations ``built..upto`` only, adds
    the last cumulative row into the first of them and appends their
    ``np.cumsum``: the same additions in the same order as one running
    sum over every row, so the same bits.  Only the requested levels
    pass the finite gate.
    """
    if not 0 <= upto < tree.depth:
        raise ValidationError(
            f"mothers' generation {upto} is outside 0..{tree.depth - 1} in this depth-{tree.depth} tree"
        )
    mask, memo = tree.mask, tree._memo
    cum = memo.get("cum")
    built = 0 if cum is None else cum.shape[1]
    if built <= upto:
        rows = []
        for f in _frames(tree, built, upto + 1):
            if mask.forest:
                rows.extend(_forest_stats(f).reshape(f.stop - f.first, mask.replicates, _NCOLS))
            else:
                rows.append((_generation_stats(f) if f.xk.size else np.zeros(_NCOLS))[None])
        new = np.stack(rows, axis=1)
        if cum is not None:
            new[:, 0] += cum[:, -1]
        new = np.cumsum(new, axis=1)
        memo["cum"] = new if cum is None else np.concatenate([cum, new], axis=1)
    return _finite(memo["cum"][:, list(levels)])


def _residual_columns(f: _Frame, a, b, c, d) -> list[np.ndarray]:
    """The even and odd residuals ``x - (icpt + slope xk)`` of a frame, zero where unobserved.

    The coefficients are numbers (a tree) or per-cell arrays (a forest).
    Each column is formed in place, so only the two columns are held.
    """
    cols = []
    for x, icpt, slope, has in ((f.xe, a, b, f.has_e), (f.xo, c, d, f.has_o)):
        col = np.multiply(f.xk, slope)
        col += icpt
        np.subtract(x, col, out=col)
        if not f.full:
            np.copyto(col, 0.0, where=~has)
        cols.append(col)
    return cols


def _residual_sums(f: _Frame, theta: np.ndarray, fourth: bool) -> np.ndarray:
    """Residual sums ``(k,)`` of a single tree's generation at coefficients ``theta (4,)``.

    Columns: the residual sum of squares and the sister products, and
    with ``fourth`` the fourth powers and the squared sister products.
    As in :func:`_generation_stats`, a single tree reduces directly; its
    plain fit and its sequential functionals keep the RSS reductions
    they have always used.  It squares its two residual columns in place
    once their cross product is taken, so it holds no other temporary.
    """
    re, ro = _residual_columns(f, *theta)
    cross = re @ ro
    if not fourth:
        return np.array([re @ re + ro @ ro, cross])
    np.square(re, out=re)
    np.square(ro, out=ro)
    return np.array([re.sum() + ro.sum(), cross, re @ re + ro @ ro, re @ ro])


def _forest_residuals(f: _Frame, thetas: np.ndarray, fourth: bool) -> np.ndarray:
    """Residual sums ``(G R, k)`` of a forest frame, one row per segment, at ``thetas (G R, 4)``.

    The columns are :func:`_residual_sums`'s, each a segment sum of
    per-cell terms formed in one numpy pass over the frame.
    """
    re, ro = _residual_columns(f, *np.repeat(thetas, np.diff(f.bounds), axis=0).T)
    t = np.empty((6 if fourth else 3, re.size))
    np.multiply(re, re, out=t[0])
    np.multiply(ro, ro, out=t[1])
    np.multiply(re, ro, out=t[2])
    del re, ro
    if fourth:
        np.multiply(t[0], t[0], out=t[3])
        np.multiply(t[1], t[1], out=t[4])
        np.multiply(t[0], t[1], out=t[5])
    s = _segment_sums(t, f.bounds)
    cols = [s[:, 0] + s[:, 1], s[:, 2]]
    if fourth:
        cols += [s[:, 3] + s[:, 4], s[:, 5]]
    return np.stack(cols, axis=-1)


def _residual_totals(tree, thetas: np.ndarray, fourth: bool) -> np.ndarray:
    """Residual sums ``(R, k)`` over mothers ``0..n - 1``; ``thetas[:, r]`` fits generation r."""
    mask = tree.mask
    reps, n = thetas.shape[:2]
    rows = np.zeros((reps, n, 4 if fourth else 2))
    for f in _frames(tree, 0, n):
        if mask.forest:
            fits = thetas[:, f.first:f.stop].swapaxes(0, 1).reshape(-1, 4)
            sums = _forest_residuals(f, fits, fourth).reshape(f.stop - f.first, reps, -1)
            rows[:, f.first:f.stop] = sums.swapaxes(0, 1)
        else:
            rows[:, f.first] = _residual_sums(f, thetas[0, f.first], fourth)
    return _finite(np.cumsum(rows, axis=1)[:, -1])


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
    """Symmetric 2x2 block(s) ``[[c, sx], [sx, sxx]]`` from table row(s) ``(..., 19)``."""
    return row[..., [[c, sx], [sx, sxx]]]


def conditioning(m: np.ndarray) -> np.ndarray:
    """``|m00 m11 - m01 m10| / (|m00 m11| + |m01 m10|)`` of each ``m (..., 2, 2)``, in [0, 1].

    No row or column scaling of ``m`` changes it; the zero matrix gives NaN."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        diag, off = m[..., 0, 0] * m[..., 1, 1], m[..., 0, 1] * m[..., 1, 0]
        return np.abs(diag - off) / (np.abs(diag) + np.abs(off))


def singular(m: np.ndarray) -> np.ndarray:
    """Whether each ``m (..., 2, 2)`` has :func:`conditioning` at most 1e-10 or NaN."""
    return ~(conditioning(m) > 1e-10)


def solve2(m: np.ndarray, v: np.ndarray, what: str = "a 2x2 design block") -> np.ndarray:
    """Cramer's rule for ``m x = v`` over leading axes, ``m (..., 2, 2)``, ``v (..., 2)``.

    Raises :class:`NumericalError` if any ``m`` is :func:`singular`.
    """
    if np.any(singular(m)):
        raise NumericalError(f"singular system while computing {what}")
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
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


def _design(mask, cum: np.ndarray, n: int) -> DesignMatrices:
    """Design matrices over mothers ``0..n`` from cumulative rows ``(R, 19)``."""
    return DesignMatrices(
        s0=_block(cum, _C0, _SX0, _SXX0),
        s1=_block(cum, _C1, _SX1, _SXX1),
        s01=_block(cum, _CP, _SXP, _SXXP),
        t_star=mask.cells_through(n),
        t_star_pairs=np.rint(cum[:, _CP]).astype(np.int64),
    )


@np.errstate(over="ignore", invalid="ignore")
def accumulate_design(tree: ObservedTree, n: int) -> DesignMatrices:
    """Design matrices over mothers in generations ``0..n``.

    Needs the daughters of generation ``n``, hence tree depth ``n + 1``.
    """
    cum = _statistics(tree, n, [n])
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

    @property
    def rho_absent_reason(self) -> str | None:
        return "no mother has both daughters observed" if self.rho_hat is None else None


def _solve_level(cum_row: np.ndarray):
    """Solve the two decoupled systems at each cumulative row ``(..., 19)``.

    The one ridge rule: a row whose even or odd block is :func:`singular`
    gets the identity added to both.  Returns the coefficients ``(..., 4)``,
    the ridge flags and the two ridged blocks ``(..., 2, 2)`` it solved.
    """
    s0 = _block(cum_row, _C0, _SX0, _SXX0)
    s1 = _block(cum_row, _C1, _SX1, _SXX1)
    regularized = singular(s0) | singular(s1)
    ridge = np.where(regularized[..., None, None], np.eye(2), 0.0)
    s0, s1 = s0 + ridge, s1 + ridge
    rhs = cum_row[..., [_R0, _R0X, _R1, _R1X]]
    theta = np.concatenate([solve2(s0, rhs[..., :2]), solve2(s1, rhs[..., 2:])], axis=-1)
    return theta, regularized, s0, s1


@np.errstate(over="ignore", invalid="ignore")
def estimate_theta(tree: ObservedTree, n: int, moments: bool = True) -> ThetaEstimate:
    """Least-squares coefficients from the observed tree through generation ``n``.

    Solves the two decoupled 2x2 systems over mothers of generations
    ``0..n-1``; if either design block is :func:`singular` (in any units
    of the data) the identity is added to the whole design (``regularized``).
    Residuals at the fitted coefficients then give the noise variance
    and sister-covariance estimates together with their fourth-moment
    analogues used by the plug-in confidence intervals; ``moments=False``
    skips that residual pass.  A forest's extinct replicates are fitted
    too (a bare root gives a ridged zero fit); callers discard them.
    """
    mask = tree.mask
    cum = _statistics(tree, n - 1, [n - 1])[:, 0]
    t_star = mask.cells_through(n)
    if not mask.forest and t_star[0] <= 1:
        raise EstimationError("no observed daughters: the observed tree is the bare root")

    theta, regularized, s0, s1 = _solve_level(cum)
    design = dataclasses.replace(_design(mask, cum, n - 1), s0=s0, s1=s1)
    pairs = design.t_star_pairs
    residual = dict.fromkeys(("sigma2_hat", "rho_hat", "tau4_hat", "nu2_tau4_hat"))
    if moments:
        thetas = np.broadcast_to(theta[:, None], (theta.shape[0], n, 4))
        rss, pair_sum, fourth, pair_sq = _residual_totals(tree, thetas, fourth=True).T
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


@np.errstate(over="ignore", invalid="ignore")
def theta_path(tree: ObservedTree, n: int) -> ThetaPath:
    """All level-``l`` fits for ``l = 1..n`` in one pass, each ridged as in :func:`estimate_theta`."""
    cum = _statistics(tree, n - 1, range(n))
    thetas, flags, _, _ = _solve_level(cum)
    design = np.zeros(cum.shape[:-1] + (4, 4))
    design[..., :2, :2] = _block(cum, _C0, _SX0, _SXX0)
    design[..., 2:, 2:] = _block(cum, _C1, _SX1, _SXX1)
    t_star = np.stack([tree.mask.cells_through(r) for r in range(n)], axis=1)
    path = ThetaPath(theta=thetas, regularized=flags, t_star_parents=t_star, design=design)
    return _per_tree(tree, path)


@dataclass(frozen=True)
class MartingaleDiagnostics:
    """Score path, its normalised quadratic forms, and their running mean.

    Levels whose design is :func:`singular` (always the first one: a lone
    root cannot identify two coefficients) are excluded from the quadratic
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
    cum = _statistics(tree, up_to_n - 1, range(up_to_n))
    m = cum[..., [_M0, _M0X, _M1, _M1X]]
    _, ridged, s0, s1 = _solve_level(cum)  # the forms of ridged levels are discarded
    zero = ~m.any(axis=-1)

    def form(x, s):  # x' s^-1 x; a stacked matmul gives a 2-vector's dot bit for bit
        return np.matmul(x[..., None, :], solve2(s, x)[..., None])[..., 0, 0]

    v = form(m[..., :2], s0) + form(m[..., 2:], s1)
    valid = zero | ~ridged
    v_path = np.where(zero, 0.0, np.where(ridged, np.nan, v))
    seen = np.cumsum(valid, axis=-1)
    sums = np.cumsum(np.where(valid, v_path, 0.0), axis=-1)
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
    cum = _statistics(tree, n - 1, [n - 1])
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
    mask = tree.mask
    cum = _statistics(tree, n - 1, range(n))
    fits, ridged, _, _ = _solve_level(cum)
    level = np.maximum(np.arange(n), 1)  # the fit generation r's residuals are taken at
    level = np.where(ridged[:, level - 1], n, level)
    thetas = np.take_along_axis(fits, level[..., None] - 1, axis=1)
    rss, pair_sum = _residual_totals(tree, thetas, fourth=False).T
    sigma2 = rss / mask.cells_through(n)
    return _per_tree(tree, (sigma2, _per_pair(pair_sum, np.rint(cum[:, -1, _CP]))))


# ---------------------------------------------------------------------------
# per-replicate segment sums


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
