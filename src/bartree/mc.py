"""Monte Carlo harness turning the limit theorems into numerical checks.

Each experiment simulates seeded replicates of the joint model,
evaluates one theorem's statistic per replicate, and aggregates the
results against the theoretical target with an explicit tolerance.

:func:`run_checks` plans every requested check together.  A check's
``j``-th depth draws its replicates from seed set ``j``, so checks
that read the same seed set share its trees: each seed set runs in
seed order as a few forest blocks, each simulated once, to the deepest
depth any of its checks needs, with one numpy pass per generation.
Every check then evaluates its statistic on the block at its own depth,
from the one statistics table the block builds (a tree simulated to a
depth is a bit-exact prefix of the same seed's deeper tree, and every
level's statistics are running sums in generation order).  The blocks
of all seed sets are claimed from one queue by the calling process and
up to ``BARTREE_THREADS - 1`` forked children (on Linux; elsewhere every
block runs inline), and each check is reduced in a fixed order, so a
report is a pure function of its configuration and seed, whatever the
worker count, the block layout or the other checks run beside it.
Extinct replicates are discarded from the statistics and counted
separately: every limit the checks exercise holds on the survival event
only.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
import sys
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

import numpy as np

from . import estimation, inference, limits, rng
from .bar import BarParams, NoiseParams, simulate_joint
from .distributions import _check_level, ks_normal_distance
from .errors import CapacityError, DegenerateModelError, ValidationError
from .gw import OUTCOMES, ReproductionLaw, _check_budget, expected_cells, spectral
from .tree import MAX_DEPTH, check_depth

_KS_THRESHOLD = 0.05
_ZERO_TOL = 1e-12
# Expected cells per forest block: bounds a block's memory, and with it
# each forked child's peak resident size, while amortising the
# per-generation numpy calls over many replicates.
BLOCK_CELLS = 1 << 16
# A claim is one native uint32, the first block of a run.  All claims are
# written before any child is forked, so they must fit PIPE_BUF (4096
# bytes, the least a Linux pipe holds) and the write cannot block.
_CLAIM_BYTES = 4
_CLAIMS = 4096 // _CLAIM_BYTES
# Statistics of sister pairs: NaN for a replicate with no mother whose
# two daughters are both observed.
PAIR_STATS = ("rho_stat", "rho_cover", "rho_bias")


@dataclass(frozen=True)
class McConfig:
    """One experiment: model point, depths, replicate budget and seed."""

    bar: BarParams
    noise: NoiseParams
    law: ReproductionLaw
    depths: tuple[int, ...]
    replicates: int
    seed: int
    root_type: int = 0
    x1: float = 0.0
    level: float = 0.95

    def __post_init__(self):
        if self.replicates < 1:
            raise ValidationError("replicates must be >= 1")
        depths = tuple(self.depths)
        if not depths or list(depths) != sorted(set(depths)):
            raise ValidationError("depths must be non-empty and strictly ascending")
        for depth in depths:
            check_depth(depth)
        object.__setattr__(self, "depths", depths)
        rng.check_seed(self.seed)
        _check_level(self.level)
        last = _rep_seed(self, len(depths) - 1, self.replicates - 1)
        if last >= rng.SEED_LIMIT:
            raise ValidationError(
                f"seed {self.seed} gives replicate seeds up to {last}, past 2^64 - 1"
            )

    def describe(self) -> dict:
        return {
            "bar": {"a": self.bar.a, "b": self.bar.b, "c": self.bar.c, "d": self.bar.d},
            "noise": {"sigma2": self.noise.sigma2, "rho": self.noise.rho, "family": "gaussian"},
            "law": {
                f"type{i}": {f"{j0}{j1}": float(p) for (j0, j1), p in zip(OUTCOMES, row)}
                for i, row in enumerate(self.law.probs)
            },
            "depths": list(self.depths),
            "replicates": self.replicates,
            "seed": self.seed,
            "root_type": self.root_type,
            "x1": self.x1,
            # a statement of policy: extinct replicates are always discarded
            "condition_on_survival": True,
            "level": self.level,
        }


@dataclass
class StatCheck:
    """One tracked statistic with its target, tolerance and verdict.

    ``passed`` is ``None`` for purely informational diagnostics.
    """

    name: str
    depth: int | None
    empirical: float | None
    target: float | None
    tolerance: float | None
    tolerance_kind: str
    passed: bool | None
    detail: dict = field(default_factory=dict)


@dataclass
class McReport:
    """Aggregated experiment outcome plus the per-replicate statistics.

    ``replicates`` maps each depth to its replicates' seeds and their
    statistics as columns: ``{"survived": bool array, <stat>: array}``
    with the replicate as the leading axis, in seed order.  A statistic
    of an extinct replicate is meaningless, and a pair statistic (one
    of :data:`PAIR_STATS`) is NaN for a replicate without sister pairs.
    """

    check: str
    config: dict
    checks: list[StatCheck]
    replicates: dict[int, tuple[list[int], dict[str, np.ndarray]]]

    @property
    def surviving(self) -> dict[int, int]:
        return {d: int(cols["survived"].sum()) for d, (_, cols) in self.replicates.items()}

    @property
    def extinct(self) -> dict[int, int]:
        return {d: int((~cols["survived"]).sum()) for d, (_, cols) in self.replicates.items()}

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def to_dict(self) -> dict:
        return jsonable(
            {
                "schema": "bartree-mcreport-v1",
                "check": self.check,
                "config": self.config,
                "extinct": {str(k): v for k, v in self.extinct.items()},
                "surviving": {str(k): v for k, v in self.surviving.items()},
                "passed": self.passed,
                "checks": [asdict(c) for c in self.checks],
            }
        )


def jsonable(obj: Any) -> Any:
    """Replace numpy arrays and scalars by plain Python values, recursively."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def worker_count() -> int:
    """Processes that compute a Monte Carlo run at once, the caller included.

    One per CPU, capped by ``BARTREE_THREADS``.
    """
    cpus = os.cpu_count() or 1
    raw = os.environ.get("BARTREE_THREADS")
    if raw is None:
        return cpus
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValidationError(f"BARTREE_THREADS must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValidationError(f"BARTREE_THREADS must be >= 1, got {cap}")
    return min(cpus, cap)


def _map_ordered(fn: Callable, payloads: list) -> list:
    """``[fn(p) for p in payloads]``, computed by the caller and forked children.

    With ``w = min(worker_count(), len(payloads)) > 1`` on Linux, one
    claim per block (a run of consecutive blocks when there are more than
    ``_CLAIMS`` blocks) is written into a pipe before ``w - 1`` children
    are forked, so no child is forked for less than one block.  Every
    process, the caller included, then reads claims until the pipe is
    empty.  A child pickles its results to its own pipe once, after the
    last claim, and leaves by ``os._exit``.  Results come back in block
    order; if blocks raise, the exception of the lowest-index one is
    raised, as a serial run would raise it.  A child that ends without
    its results is a :class:`ChildProcessError`.  Elsewhere, and with
    one process, every block runs inline.
    """
    workers = min(worker_count(), len(payloads))
    if workers == 1 or sys.platform != "linux":
        return [fn(p) for p in payloads]
    span = -(-len(payloads) // _CLAIMS)
    claims, feed = os.pipe()
    try:
        os.write(feed, np.arange(0, len(payloads), span, dtype=np.uint32).tobytes())
    finally:
        os.close(feed)
    live: dict[int, int] = {}  # child pid -> read end of its result pipe
    try:
        for _ in range(workers - 1):
            out, into = os.pipe()
            # the child keeps every signal blocked until it is inside
            # _child's try, so an interrupt there ends in os._exit and never
            # unwinds through the caller's handlers
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, payloads, span, claims, out, into, mask)
                live[pid] = out
            except OSError:  # no process to spare: the running ones take every claim
                os.close(out)
                break
            finally:
                os.close(into)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        outcomes = _claim_blocks(fn, payloads, span, claims)
        for pid in list(live):
            with open(live[pid], "rb", closefd=False) as pipe:
                sent = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(live.pop(pid))
            if code:
                how = (f"was killed by signal {-code} ({signal.strsignal(-code)})" if code < 0
                       else f"exited with status {code}")
                raise ChildProcessError(f"worker process {pid} {how} before sending its results")
            outcomes += pickle.loads(sent)
    except BaseException:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(claims)
        for pid, out in live.items():
            os.close(out)
            os.waitpid(pid, 0)
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, _, value in outcomes]


def _claim_blocks(fn: Callable, payloads: list, span: int, claims: int) -> list:
    """Run ``fn`` on the ``span`` blocks of each claim read from fd ``claims``, to its end.

    Gives ``(index, True, result)`` per block, or ``(index, False,
    exception)`` for a block that raised.  A process stops claiming at its
    first failure: claims are read in block order, so every lower block
    is claimed already and still runs.
    """
    done = []
    while claim := os.read(claims, _CLAIM_BYTES):
        first = int.from_bytes(claim, sys.byteorder)
        for i in range(first, min(first + span, len(payloads))):
            try:
                done.append((i, True, fn(payloads[i])))
            except Exception as exc:
                done.append((i, False, exc))
                return done
    return done


def _child(fn: Callable, payloads: list, span: int, claims: int, out: int, into: int,
           mask: set):
    """A forked child's whole life: claim blocks, send the pickled outcomes once, and exit.

    The child starts with every signal blocked and restores ``mask``
    only inside its ``try``.  ``os._exit`` ends every path, so none of
    the parent's cleanup or buffered output runs a second time; a child
    that fails exits 1 without sending anything.
    """
    status = 1
    try:
        os.close(out)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        sent = pickle.dumps(_claim_blocks(fn, payloads, span, claims), pickle.HIGHEST_PROTOCOL)
        with open(into, "wb") as pipe:
            pipe.write(sent)
        status = 0
    finally:
        os._exit(status)


class _Limits:
    """The closed-form objects of one config, each derived when first read and then kept.

    One instance serves every check of a :func:`run_checks` call.
    """

    def __init__(self, cfg: McConfig):
        self.cfg = cfg

    @functools.cached_property
    def spectrum(self):
        """The law's spectrum; a law not supercritical is a :class:`DegenerateModelError`."""
        spectrum = spectral(self.cfg.law)
        if not spectrum.supercritical:
            raise DegenerateModelError(
                f"experiment requires a supercritical law, growth rate {spectrum.growth_rate}"
            )
        return spectrum

    @functools.cached_property
    def design(self):
        return limits.design_limits(self.cfg.bar, self.cfg.noise, self.spectrum)

    @functools.cached_property
    def matrices(self):
        return limits._limit_matrices(self.cfg.bar, self.cfg.noise, self.spectrum, self.design)


def _rep_seed(cfg: McConfig, depth_index: int, i: int) -> int:
    # seed partitioning: one disjoint seed set per depth index
    return cfg.seed + depth_index * cfg.replicates + i


def _blocks(cfg: McConfig, depth: int, seeds: list[int]) -> list[list[int]]:
    """Split a seed set, in order, into forest blocks of near-equal size.

    A block holds about ``BLOCK_CELLS`` expected cells of trees simulated
    to ``depth``, and at least one tree; a block past the cell budget is
    a :class:`CapacityError`.  Results do not depend on the split: every
    replicate is computed from its own rows only.
    """
    per_block = max(1, int(BLOCK_CELLS // expected_cells(cfg.law, depth, cfg.root_type)))
    count = -(-len(seeds) // per_block)
    edges = [len(seeds) * k // count for k in range(count + 1)]
    blocks = [seeds[a:b] for a, b in zip(edges[:-1], edges[1:])]
    _check_budget(cfg.law, depth, cfg.root_type, trees=max(map(len, blocks)))
    return blocks


def _relative_check(name, depth, empirical, target, rel, detail):
    """``empirical`` held to ``target`` at ``rel`` relative, or at ``_ZERO_TOL`` absolute when it is 0."""
    if target == 0.0:
        kind, tol, bound = "absolute (zero target)", _ZERO_TOL, _ZERO_TOL
    else:
        kind, tol, bound = "relative", rel, rel * abs(target)
    return StatCheck(
        name=name,
        depth=depth,
        empirical=empirical,
        target=target,
        tolerance=tol,
        tolerance_kind=kind,
        passed=abs(empirical - target) <= bound,
        detail=detail,
    )


def _entrywise_check(name, depth, median, target, rows):
    tol = np.maximum(0.10 * np.abs(target), 0.02)
    dev = np.abs(median - target)
    scaled = float((dev / tol).max())
    return StatCheck(
        name=name,
        depth=depth,
        empirical=scaled,
        target=1.0,
        tolerance=1.0,
        tolerance_kind="entrywise max(10% relative, 0.02 absolute), scaled",
        passed=scaled <= 1.0,
        detail={"median": median, "target": target, "rows": rows},
    )


# ---------------------------------------------------------------------------
# block evaluators.  Each takes ``(cfg, depth, forest, ...)``, a forest block
# simulated to ``depth`` or deeper, and returns its statistics columns (see
# McReport) but ``survived``.


def _rep_design(cfg, depth, forest):
    d = estimation.accumulate_design(forest, depth)
    scale = d.t_star[:, None, None]
    return {"s0": d.s0 / scale, "s1": d.s1 / scale, "s01": d.s01 / scale}


def _rep_consistency(cfg, depth, forest):
    est = estimation.estimate_theta(forest, depth, moments=False)
    diff = est.theta_hat - cfg.bar.as_vector()
    tp = est.t_star_parents
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = (diff * diff).sum(axis=1) * tp / np.log(tp)
    return {"rate": rate}


def _rep_qsl(cfg, depth, forest, sigma_lim):
    path = estimation.theta_path(forest, depth)
    diff = path.theta - cfg.bar.as_vector()
    score = np.einsum("...i,...ij,...j->...", diff, path.design, diff)
    limit = path.t_star_parents * np.einsum("...i,ij,...j->...", diff, sigma_lim, diff)
    valid = ~path.regularized
    levels = valid.sum(axis=1)
    # the tail is the second half of each replicate's unridged levels
    tail = valid & (np.cumsum(valid, axis=1) > (levels // 2)[:, None])
    terms = np.stack([score, limit], axis=-1)
    sums = np.cumsum(np.concatenate(
        [np.where(valid[..., None], terms, 0.0), np.where(tail[..., None], terms, 0.0)], axis=-1
    ), axis=1)[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        means = sums / np.stack([levels, levels, levels - levels // 2, levels - levels // 2], axis=-1)
    return {
        "qsl": means[:, 0],
        "qsl_tail": means[:, 2],
        "qsl_limit_design": means[:, 1],
        "qsl_limit_design_tail": means[:, 3],
        "levels": levels,
    }


def _rep_clt(cfg, depth, forest):
    est = estimation.estimate_theta(forest, depth)
    truth = cfg.bar.as_vector()
    pairs = est.pair_parents
    # extinct replicates (a bare root has growth-rate estimate 0) give
    # nonsense here; they are discarded below
    with np.errstate(divide="ignore", invalid="ignore"):
        cis, _ = inference.theta_cis(est, cfg.level)
        sigma_ci, rho_ci, _ = inference.sigma_rho_cis(est, cfg.level)
    sigma2, rho = cfg.noise.sigma2, cfg.noise.rho
    with_pairs = pairs > 0
    scaled = np.sqrt(est.t_star_parents)[:, None] * (est.theta_hat - truth)
    cover = np.stack([ci.covers(t) for ci, t in zip(cis.values(), truth)], axis=-1)
    ridged = est.regularized[:, None]  # NaN marks a ridged fit: it carries the identity's bias
    return {
        "scaled_theta": np.where(ridged, np.nan, scaled),
        "cover": np.where(ridged, np.nan, cover),
        "sigma_stat": np.sqrt(est.t_star) * (est.sigma2_hat - sigma2),
        "sigma_cover": sigma_ci.covers(sigma2),
        "rho_stat": np.where(with_pairs, np.sqrt(pairs) * (est.rho_hat - rho), np.nan),
        "rho_cover": np.where(with_pairs, rho_ci.covers(rho), np.nan),
    }


def _rep_variance(cfg, depth, forest):
    s_seq, r_seq = estimation.sequential_variance_functionals(forest, depth)
    s_bar, r_bar = estimation.true_noise_functionals(forest, depth)
    scale = forest.mask.cells_through(depth) / depth
    return {
        "sigma_bias": scale * (s_seq - s_bar),
        "rho_bias": np.where(np.isnan(r_seq), np.nan, scale * (r_seq - r_bar)),
    }


# ---------------------------------------------------------------------------
# experiments: planning and running checks together


@dataclass(frozen=True)
class _Part:
    """One check's share of a run.

    ``evaluate(cfg, depth, forest, *extra)`` runs on a block of seed set
    ``j`` for the ``j``-th of ``depths``, on trees simulated ``grown``
    generations beyond that depth or more; ``reduce`` maps each depth's
    survivors' columns to the check's statistics.
    """

    evaluate: Callable
    depths: tuple[int, ...]
    reduce: Callable[[dict[int, dict[str, np.ndarray]]], list[StatCheck]]
    extra: tuple = ()
    grown: int = 0
    least: int = 1  # the least depth the check's statistic is defined at


def _run_block(job):
    """Simulate one block once and run every task of its seed set on it.

    Survival, an observed cell at the task's depth, is decided here for
    every task.  The forest, and the statistics memoised on it, are
    dropped on return.
    """
    cfg, depth, seeds, tasks = job
    forest = simulate_joint(
        cfg.bar, cfg.noise, cfg.law, depth,
        root_type=cfg.root_type, x1=cfg.x1, seed=seeds,
    )
    return [{"survived": forest.mask.generation_sizes(d) > 0, **evaluate(cfg, d, forest, *extra)}
            for evaluate, d, extra in tasks]


def run_checks(cfg: McConfig, names) -> list[McReport]:
    """Run the named checks on shared simulations: one report per name, in order.

    Each check is set up and held to its least depth, and the deepest
    generation it reads to the capacity, first, so a config it rejects
    fails before anything is simulated.  The tasks of every check
    are then grouped by seed set; each seed set is split into blocks sized
    for the deepest tree its tasks need, and every block is simulated once
    and serves all of them.  All blocks go to :func:`_map_ordered`.  An
    unknown name is a :class:`ValidationError` naming the available checks.
    """
    unknown = [name for name in names if name not in _PARTS]
    if unknown:
        raise ValidationError(f"unknown checks {unknown}; available: {sorted(_PARTS)}")
    derived = _Limits(cfg)
    parts = [_PARTS[name](cfg, derived) for name in names]
    sets: dict[int, list[tuple[int, int]]] = {}  # seed set -> (part, depth) tasks
    for k, part in enumerate(parts):
        if part.depths[0] < part.least:
            raise ValidationError(f"{names[k]} needs depths >= {part.least}, got {part.depths[0]}")
        if part.depths[-1] + part.grown > MAX_DEPTH:
            raise CapacityError(
                f"{names[k]} at depth {part.depths[-1]} reads generation "
                f"{part.depths[-1] + part.grown}, past the supported depth of {MAX_DEPTH}"
            )
        for j, depth in enumerate(part.depths):
            sets.setdefault(j, []).append((k, depth))
    jobs, owners, seeds = [], [], {}
    for j, tasks in sets.items():
        deepest = max(depth + parts[k].grown for k, depth in tasks)
        evaluators = [(parts[k].evaluate, depth, parts[k].extra) for k, depth in tasks]
        seeds[j] = [_rep_seed(cfg, j, i) for i in range(cfg.replicates)]
        for block in _blocks(cfg, deepest, seeds[j]):
            jobs.append((cfg, deepest, block, evaluators))
            owners.append(j)
    blocks: dict[tuple[int, int], list[dict]] = {}  # (part, seed set) -> block columns
    for j, outputs in zip(owners, _map_ordered(_run_block, jobs)):
        for (k, _), cols in zip(sets[j], outputs):
            blocks.setdefault((k, j), []).append(cols)
    reports = []
    for k, (name, part) in enumerate(zip(names, parts)):
        replicates, survivors = {}, {}
        for j, depth in enumerate(part.depths):
            cols = {key: np.concatenate([b[key] for b in blocks[k, j]]) for key in blocks[k, j][0]}
            alive = cols["survived"]
            if not alive.any():
                raise DegenerateModelError(
                    f"all {cfg.replicates} replicates extinct at depth {depth}"
                )
            replicates[depth] = (seeds[j], cols)
            survivors[depth] = {key: col[alive] for key, col in cols.items()}
        reports.append(McReport(name, cfg.describe(), part.reduce(survivors), replicates))
    return reports


def _limit_matrices(cfg: McConfig, derived: _Limits) -> _Part:
    l0, l1, l01 = derived.design

    def reduce(results):
        checks = []
        for depth in cfg.depths:
            alive = results[depth]
            for key, target in (("s0", l0), ("s1", l1), ("s01", l01)):
                median = np.median(alive[key], axis=0)
                checks.append(_entrywise_check(
                    f"design_ratio_{key}", depth, median, target,
                    {"surviving": len(alive["survived"])},
                ))
        return checks

    return _Part(_rep_design, cfg.depths, reduce, grown=1, least=0)


def _consistency_rate(cfg: McConfig, derived: _Limits) -> _Part:
    derived.spectrum  # supercritical, or raise

    def reduce(results):
        medians = {d: float(np.median(results[d]["rate"])) for d in cfg.depths}
        first, last = cfg.depths[0], cfg.depths[-1]
        zero_scale = max(medians[first], _ZERO_TOL)
        return [
            StatCheck(
                name="consistency_rate_bounded",
                depth=last,
                empirical=medians[last],
                target=medians[first],
                tolerance=2.0,
                tolerance_kind="median at deepest <= 2 x median at shallowest",
                passed=medians[last] <= 2.0 * zero_scale,
                detail={"medians_by_depth": {str(d): medians[d] for d in cfg.depths}},
            )
        ]

    return _Part(_rep_consistency, cfg.depths, reduce, least=2)  # at depth 1 the rate is x / log 1


def _qsl(cfg: McConfig, derived: _Limits) -> _Part:
    spectrum = derived.spectrum
    l0, l1, _ = derived.design
    sigma_lim = np.zeros((4, 4))
    sigma_lim[:2, :2], sigma_lim[2:, 2:] = l0, l1
    depth = cfg.depths[-1]
    target = 4.0 * cfg.noise.sigma2
    pi = spectrum.growth_rate
    printed = float(target * (pi - 1.0) / pi)

    def reduce(results):
        fitted = results[depth]["levels"] > 0  # a survivor with every level ridged has no term
        if not fitted.any():
            raise DegenerateModelError(f"no surviving replicate has an unridged level at depth {depth}")
        alive = {key: col[fitted] for key, col in results[depth].items()}

        def check(name, key):
            values = alive[key]
            return _relative_check(name, depth, float(np.mean(values)), target, 0.15, {
                "median": float(np.median(values)),
                "tail_levels_mean": float(np.mean(alive[key + "_tail"])),
                "printed_constant": printed,
                "surviving": len(values),
            })

        return [check("qsl_mean", "qsl"), check("qsl_mean_limit_design", "qsl_limit_design")]

    return _Part(_rep_qsl, (depth,), reduce, extra=(sigma_lim,))


def _clt(cfg: McConfig, derived: _Limits) -> _Part:
    derived.spectrum  # supercritical, or raise
    if cfg.noise.sigma2 == 0.0:  # a zero covariance target scales every deviation to infinity
        raise ValidationError("clt needs sigma2 > 0: without noise the CLT covariance is zero")
    lm = derived.matrices
    depth = cfg.depths[-1]

    def reduce(results):
        fitted = ~np.isnan(results[depth]["scaled_theta"][:, 0])
        alive = {key: col[fitted] for key, col in results[depth].items()}
        scaled = alive["scaled_theta"]
        n_alive = len(scaled)
        if n_alive < 2:  # sample variances need two values
            raise DegenerateModelError(
                f"clt needs 2 surviving replicates at depth {depth}, got {n_alive} unridged "
                f"({int((~fitted).sum())} ridged fits left out)"
            )
        checks = []

        # diagonal entries carry the 15% relative requirement; off-diagonal
        # entries get a floor at five standard errors of the sample covariance
        emp_cov = np.cov(scaled.T, ddof=1)
        target = lm.theta_cov
        scale = np.sqrt(np.outer(np.diag(target), np.diag(target)))
        tol = np.maximum(0.15 * np.abs(target), 5.0 * scale / math.sqrt(n_alive))
        np.fill_diagonal(tol, 0.15 * np.diag(target))
        worst = float((np.abs(emp_cov - target) / tol).max())
        checks.append(StatCheck(
            name="theta_clt_covariance",
            depth=depth,
            empirical=worst,
            target=1.0,
            tolerance=1.0,
            tolerance_kind="diagonal 15% relative; off-diagonal 5 SE floor",
            passed=worst <= 1.0,
            detail={"empirical": emp_cov, "target": target, "surviving": n_alive},
        ))

        # shape-only normality: studentized coordinates (the scale itself is
        # what the covariance check above verifies)
        std = (scaled - scaled.mean(axis=0)) / scaled.std(axis=0, ddof=1)
        ks = [ks_normal_distance(std[:, j]) for j in range(4)]
        checks.append(StatCheck(
            name="theta_clt_normality_ks",
            depth=depth,
            empirical=max(ks),
            target=0.0,
            tolerance=_KS_THRESHOLD,
            tolerance_kind="Kolmogorov-Smirnov distance of studentized coordinates",
            passed=max(ks) <= _KS_THRESHOLD,
            detail={"per_coefficient": ks},
        ))

        coverage = np.mean(alive["cover"], axis=0)
        checks.append(StatCheck(
            name="theta_ci_coverage",
            depth=depth,
            empirical=float(coverage.min()),
            target=cfg.level,
            tolerance=0.02,
            tolerance_kind="absolute, each coefficient",
            passed=bool(np.all(np.abs(coverage - cfg.level) <= 0.02)),
            detail={"per_coefficient": coverage, "surviving": n_alive},
        ))

        checks.append(_relative_check(
            "sigma2_clt_variance", depth, float(np.var(alive["sigma_stat"], ddof=1)),
            lm.sigma2_clt_var, 0.15, {"sigma_ci_coverage": float(np.mean(alive["sigma_cover"]))},
        ))

        with_pairs = ~np.isnan(alive["rho_stat"])
        if with_pairs.sum() >= 2:
            rho_stats = alive["rho_stat"][with_pairs]
            checks.append(_relative_check(
                "rho_clt_variance", depth, float(np.var(rho_stats, ddof=1)), lm.rho_clt_var, 0.15,
                {"rho_ci_coverage": float(np.mean(alive["rho_cover"][with_pairs])),
                 "with_pairs": len(rho_stats)},
            ))

        if cfg.noise.rho == 0.0:
            even, odd = scaled[:, :2], scaled[:, 2:]
            corr = np.corrcoef(np.hstack([even, odd]).T)[:2, 2:]
            bound = 4.0 / math.sqrt(n_alive)
            worst_corr = float(np.abs(corr).max())
            checks.append(StatCheck(
                name="block_independence",
                depth=depth,
                empirical=worst_corr,
                target=0.0,
                tolerance=bound,
                tolerance_kind="absolute (4 / sqrt(replicates))",
                passed=worst_corr <= bound,
                detail={"cross_correlation": corr},
            ))
        return checks

    return _Part(_rep_clt, (depth,), reduce)


def _variance_estimators(cfg: McConfig, derived: _Limits) -> _Part:
    spectrum = derived.spectrum
    depth = cfg.depths[-1]

    def reduce(results):
        alive = results[depth]
        target = 4.0 * (spectrum.growth_rate - 1.0) * cfg.noise.sigma2
        checks = [_relative_check(
            "sigma2_bias", depth, float(np.median(alive["sigma_bias"])), target, 0.20,
            {"surviving": len(alive["survived"])},
        )]

        rho_vals = alive["rho_bias"][~np.isnan(alive["rho_bias"])]
        if rho_vals.size and cfg.noise.sigma2 > 0.0:
            lm = derived.matrices
            checks.append(StatCheck(
                name="rho_bias",
                depth=depth,
                empirical=float(np.median(rho_vals)),
                target=lm.rho_bias_full,
                tolerance=None,
                tolerance_kind="informational (displayed constants disagree in normalisation)",
                passed=None,
                detail={"half_power_constant": lm.rho_bias_half_power,
                        "with_pairs": len(rho_vals)},
            ))
        return checks

    return _Part(_rep_variance, (depth,), reduce)


_PARTS: dict[str, Callable[[McConfig, _Limits], _Part]] = {
    "limit_matrices": _limit_matrices,
    "consistency_rate": _consistency_rate,
    "qsl": _qsl,
    "clt": _clt,
    "variance_estimators": _variance_estimators,
}


def mc_limit_matrices(cfg: McConfig) -> McReport:
    """Medians of the normalised design matrices against their limits."""
    return run_checks(cfg, ["limit_matrices"])[0]


def mc_consistency_rate(cfg: McConfig) -> McReport:
    """Boundedness proxy for the squared-error consistency rate."""
    return run_checks(cfg, ["consistency_rate"])[0]


def mc_qsl(cfg: McConfig) -> McReport:
    """Averaged quadratic coefficient error against the QSL constant ``4 sigma^2``.

    Per replicate and unridged level ``l``, with ``S*`` the cumulative
    design over mothers of generations ``0..l-1``:

    - ``qsl_mean`` averages the self-normalised term
      ``(theta_l - theta)' S* (theta_l - theta) = M_l' S*^-1 M_l``, the
      score quadratic form of the martingale QSL.  Its mean is
      ``tr(S*^-1 <M>) = 4 sigma^2`` (the sister covariance enters only
      the off-diagonal blocks of ``<M>``), and since ``S*`` grows by a
      factor ``pi`` per generation the terms are asymptotically
      stationary: their Cesaro average tends to ``4 sigma^2`` for every
      growth rate.
    - ``qsl_mean_limit_design`` averages the displayed form
      ``|T*_{l-1}| (theta_l - theta)' Sigma (theta_l - theta)``, which
      replaces ``S* / |T*_{l-1}|`` by its limit ``Sigma``.  Both share a
      limit by the design law of large numbers, but at desk depths the
      early levels, whose designs are far from ``Sigma`` and near
      singular, give this form a tail too heavy for a replicate mean,
      so it does not settle.

    Each check is held to ``4 sigma^2`` at 15% relative and carries the
    median, the tail-levels mean (second half of the levels) and the
    printed constant ``4 sigma^2 (pi - 1) / pi``, the limit of the
    statistic when each level is weighted by ``|G*_{l-1}|`` rather
    than ``|T*_{l-1}|``.
    """
    return run_checks(cfg, ["qsl"])[0]


def mc_clt(cfg: McConfig) -> McReport:
    """Coefficient and noise-estimator CLT checks at the deepest depth."""
    return run_checks(cfg, ["clt"])[0]


def mc_variance_estimators(cfg: McConfig) -> McReport:
    """Bias statistics of the sequential noise estimators.

    The variance statistic is held to its constant at 20% (median
    across surviving replicates); the covariance statistic is reported
    against both displayed trace constants as information only, since
    their normalisations disagree.
    """
    return run_checks(cfg, ["variance_estimators"])[0]


CHECKS: dict[str, Callable[[McConfig], McReport]] = {
    "limit_matrices": mc_limit_matrices,
    "consistency_rate": mc_consistency_rate,
    "qsl": mc_qsl,
    "clt": mc_clt,
    "variance_estimators": mc_variance_estimators,
}
