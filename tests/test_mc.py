"""Monte Carlo harness: reports, determinism, small-scale theorem checks."""

import json
import os
import signal
import time

import numpy as np
import pytest

from bartree import (
    BarParams,
    DegenerateModelError,
    McConfig,
    NoiseParams,
    NumericalError,
    ReproductionLaw,
    ValidationError,
    estimate_theta,
    simulate_joint,
)
from bartree import mc
from bartree.mc import run_checks, worker_count

FULL = ReproductionLaw.full_observation()
MISSING = ReproductionLaw.from_mean_matrix([[0.9, 0.4], [0.3, 0.8]])
SUBCRITICAL = ReproductionLaw.from_tables({"11": 0.4, "00": 0.6}, {"11": 0.4, "00": 0.6})


def _cfg(**kwargs):
    base = dict(
        bar=BarParams(0.5, 0.3, -0.4, 0.7),
        noise=NoiseParams(1.0, 0.0),
        law=FULL,
        depths=(8,),
        replicates=40,
        seed=1,
    )
    base.update(kwargs)
    return McConfig(**base)


def _check(report, name):
    found = [c for c in report.checks if c.name == name]
    assert found, f"no check named {name} in {[c.name for c in report.checks]}"
    return found[0]


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValidationError):
        _cfg(replicates=0)
    with pytest.raises(ValidationError):
        _cfg(depths=(8, 8))
    with pytest.raises(ValidationError):
        _cfg(depths=(10, 8))
    with pytest.raises(ValidationError):
        _cfg(depths=())
    # replicate seeds run from seed to seed + len(depths) * replicates - 1,
    # and each must fit the 64-bit Philox key word
    for seed in (-1, 2**64, 2**64 - 2, "3"):
        with pytest.raises(ValidationError, match="seed"):
            _cfg(seed=seed, replicates=4)
    _cfg(seed=2**64 - 4, replicates=4)
    _cfg(seed=2**64 - 8, replicates=4, depths=(3, 5))
    with pytest.raises(ValidationError, match="seed"):
        _cfg(seed=2**64 - 7, replicates=4, depths=(3, 5))


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("BARTREE_THREADS", "1")
    assert worker_count() == 1
    monkeypatch.setenv("BARTREE_THREADS", "junk")
    with pytest.raises(ValidationError):
        worker_count()
    monkeypatch.setenv("BARTREE_THREADS", "0")
    with pytest.raises(ValidationError):
        worker_count()
    monkeypatch.delenv("BARTREE_THREADS")
    assert worker_count() >= 1


def test_check_tables_name_the_same_checks():
    # run_checks validates and dispatches on _PARTS; CHECKS holds the
    # one-check wrappers under the same names
    assert sorted(mc.CHECKS) == sorted(mc._PARTS)


def test_run_checks_rejects_unknown_names():
    with pytest.raises(ValidationError) as err:
        run_checks(_cfg(), ["qsl", "bogus"])
    assert str(err.value) == f"unknown checks ['bogus']; available: {sorted(mc._PARTS)}"


def test_relative_check_holds_a_zero_target_absolute():
    zero = mc._relative_check("s", 4, 5e-13, 0.0, 0.15, {})
    assert (zero.tolerance_kind, zero.tolerance, zero.passed) == ("absolute (zero target)", 1e-12, True)
    assert not mc._relative_check("s", 4, 2e-12, 0.0, 0.15, {}).passed
    rel = mc._relative_check("s", 4, 2.29, 2.0, 0.15, {"k": 1})
    assert (rel.tolerance_kind, rel.tolerance, rel.passed, rel.detail) == ("relative", 0.15, True, {"k": 1})
    assert not mc._relative_check("s", 4, 2.31, 2.0, 0.15, {}).passed


def test_subcritical_law_rejected_before_simulation():
    with pytest.raises(DegenerateModelError):
        run_checks(_cfg(law=SUBCRITICAL), ["limit_matrices"])
    with pytest.raises(DegenerateModelError):
        run_checks(_cfg(law=SUBCRITICAL), ["qsl"])


# ---------------------------------------------------------------------------
# design-ratio experiment


def test_limit_matrices_zero_noise_deterministic():
    # stationary start makes the data constant: ratios hit the limit exactly
    cfg = _cfg(
        bar=BarParams(1.0, 0.5, 1.0, 0.5),
        noise=NoiseParams(0.0),
        depths=(6, 10, 14),
        replicates=3,
        x1=2.0,
    )
    report = run_checks(cfg, ["limit_matrices"])[0]
    assert report.passed
    for check in report.checks:
        med = np.asarray(check.detail["median"])
        target = np.asarray(check.detail["target"])
        assert np.abs(med - target).max() < 1e-6


def test_limit_matrices_deviation_shrinks_with_depth():
    # the shallow depths carry a mean-term transient (decays like 0.7^n
    # here); deviations must shrink and the deepest depth must be inside
    # tolerance
    cfg = _cfg(depths=(6, 10, 14), replicates=60, noise=NoiseParams(1.0, 0.5))
    report = run_checks(cfg, ["limit_matrices"])[0]
    worst = {}
    for check in report.checks:
        worst.setdefault(check.depth, 0.0)
        worst[check.depth] = max(worst[check.depth], check.empirical)
    assert worst[14] < worst[10] < worst[6]
    assert all(c.passed for c in report.checks if c.depth == 14)


def test_extinction_accounting():
    law = ReproductionLaw.from_tables({"11": 0.75, "00": 0.25}, {"11": 0.75, "00": 0.25})
    cfg = _cfg(law=law, depths=(10,), replicates=600)
    report = run_checks(cfg, ["limit_matrices"])[0]
    assert report.extinct[10] + report.surviving[10] == 600
    frac = report.surviving[10] / 600
    se = np.sqrt((2 / 3) * (1 / 3) / 600)
    assert abs(frac - 2 / 3) < 3 * se + 0.01  # finite-depth extinction deficit


# ---------------------------------------------------------------------------
# consistency-rate experiment


def test_consistency_rate_zero_noise():
    cfg = _cfg(
        bar=BarParams(1.0, 0.5, 2.0, 0.25),
        noise=NoiseParams(0.0),
        depths=(4, 6),
        replicates=3,
    )
    report = run_checks(cfg, ["consistency_rate"])[0]
    check = _check(report, "consistency_rate_bounded")
    assert check.passed
    assert all(v == 0.0 for v in check.detail["medians_by_depth"].values())


def test_consistency_rate_bounded_proxy():
    cfg = _cfg(depths=(8, 11, 14), replicates=60, noise=NoiseParams(1.0, 0.5))
    report = run_checks(cfg, ["consistency_rate"])[0]
    check = _check(report, "consistency_rate_bounded")
    assert check.passed
    meds = check.detail["medians_by_depth"]
    assert meds["14"] <= 2.0 * meds["8"]


# ---------------------------------------------------------------------------
# quadratic strong law experiment


def test_qsl_zero_noise():
    cfg = _cfg(
        bar=BarParams(1.0, 0.5, 2.0, 0.25),
        noise=NoiseParams(0.0),
        depths=(6,),
        replicates=3,
    )
    report = run_checks(cfg, ["qsl"])[0]
    check = _check(report, "qsl_mean")
    assert check.target == 0.0
    assert check.empirical == 0.0
    assert check.passed


def test_qsl_report_carries_configured_target_and_oracle_tail():
    # the target is the score constant 4 sigma2; the printed constant
    # 4 sigma2 (pi - 1) / pi (2.0 here) rides along in the detail.  The
    # tail-levels means of both forms settle at 4 sigma2 (measured 4.35
    # self-normalised and 4.51 with the limit design)
    cfg = _cfg(depths=(12,), replicates=100, noise=NoiseParams(1.0, 0.5), seed=7)
    report = run_checks(cfg, ["qsl"])[0]
    for name in ("qsl_mean", "qsl_mean_limit_design"):
        check = _check(report, name)
        assert check.target == 4.0
        assert check.detail["printed_constant"] == 2.0
        assert abs(check.detail["tail_levels_mean"] - 4.0) < 0.20 * 4.0


def test_qsl_missing_law_runs_and_reports():
    cfg = _cfg(
        bar=BarParams(0.03627, 0.02662, 0.03058, 0.17055),
        law=MISSING,
        depths=(12,),
        replicates=120,
        seed=11,
    )
    report = run_checks(cfg, ["qsl"])[0]
    check = _check(report, "qsl_mean")
    assert check.target == 4.0
    assert check.detail["printed_constant"] == pytest.approx(4.0 / 6.0, rel=1e-12)
    assert report.surviving[12] + report.extinct[12] == 120
    assert check.detail["surviving"] == report.surviving[12]


def test_qsl_counts_extinction_like_the_other_checks():
    # survival is decided once, by an observed cell at the depth; qsl then
    # averages only the survivors that have an unridged level
    cfg = _cfg(law=MISSING, depths=(2, 4), replicates=60, seed=7)
    qsl, clt, variance = run_checks(cfg, ["qsl", "clt", "variance_estimators"])
    assert qsl.extinct == clt.extinct == variance.extinct == {4: 11}
    fitted = int((qsl.replicates[4][1]["levels"] > 0).sum())
    assert _check(qsl, "qsl_mean").detail["surviving"] == fitted < qsl.surviving[4]
    with pytest.raises(DegenerateModelError, match="unridged level"):
        run_checks(_cfg(depths=(1,)), ["qsl"])  # one mother per tree: every level is ridged


# ---------------------------------------------------------------------------
# CLT experiment


def test_clt_checks_pass_at_moderate_scale():
    cfg = _cfg(depths=(10,), replicates=800, noise=NoiseParams(1.0, 0.0), seed=3)
    report = run_checks(cfg, ["clt"])[0]
    assert report.passed  # covariance, shape, coverage and variance checks
    assert _check(report, "theta_clt_covariance").passed
    assert _check(report, "theta_ci_coverage").passed
    assert _check(report, "theta_clt_normality_ks").passed
    assert _check(report, "sigma2_clt_variance").passed
    assert _check(report, "rho_clt_variance").passed
    # uncorrelated noise: even and odd estimation errors are uncorrelated
    indep = _check(report, "block_independence")
    assert indep.passed
    assert indep.tolerance == pytest.approx(4.0 / np.sqrt(800))


def test_clt_correlated_noise_omits_independence_check():
    cfg = _cfg(depths=(9,), replicates=60, noise=NoiseParams(1.0, 0.5))
    report = run_checks(cfg, ["clt"])[0]
    assert not [c for c in report.checks if c.name == "block_independence"]


SPARSE = ReproductionLaw.from_tables({"10": 0.6, "01": 0.3, "11": 0.1},
                                     {"10": 0.6, "01": 0.3, "11": 0.1})


def test_clt_report_holds_no_nan():
    # sample variances need two values: one survivor is an error, and the
    # rho variance needs two unridged survivors with sister pairs (at depth
    # 4, seed 0 has one, seed 8 two); no report holds NaN
    law = ReproductionLaw.from_tables({"11": 0.7, "10": 0.15, "01": 0.15},
                                      {"11": 0.7, "10": 0.15, "01": 0.15})
    with pytest.raises(DegenerateModelError, match="2 surviving replicates at depth 3, got 1"):
        run_checks(_cfg(law=law, depths=(3,), replicates=1), ["clt"])
    noise = NoiseParams(1.0, 0.5)
    for seed, pairs in ((0, 1), (8, 2)):
        cfg = _cfg(law=SPARSE, depths=(4,), replicates=4, seed=seed, noise=noise)
        report = run_checks(cfg, ["clt"])[0]
        cols = report.replicates[4][1]
        fitted = cols["survived"] & ~np.isnan(cols["scaled_theta"][:, 0])
        assert (~np.isnan(cols["rho_stat"][fitted])).sum() == pairs
        assert any(c.name == "rho_clt_variance" for c in report.checks) == (pairs >= 2)
        json.dumps(report.to_dict(), allow_nan=False)


def test_clt_leaves_ridged_fits_out():
    # a ridged fit carries the identity's bias, so the clt reduces over the
    # unridged survivors only: at depth 4, seed 0's four survivors hold one
    # ridged fit, whose sister pairs would have made a second pair survivor
    noise = NoiseParams(1.0, 0.5)
    cfg = _cfg(law=SPARSE, depths=(4,), replicates=4, seed=0, noise=noise)
    report = run_checks(cfg, ["clt"])[0]
    cols = report.replicates[4][1]
    forest = simulate_joint(cfg.bar, noise, SPARSE, 4, seed=[0, 1, 2, 3])
    ridged = estimate_theta(forest, 4).regularized
    assert cols["survived"].all() and ridged.sum() == 1
    for key in ("scaled_theta", "cover"):
        assert np.array_equal(np.isnan(cols[key]), np.repeat(ridged[:, None], 4, axis=1))
    assert (~np.isnan(cols["rho_stat"])).sum() == 2
    assert _check(report, "theta_clt_covariance").detail["surviving"] == 3
    assert not any(c.name == "rho_clt_variance" for c in report.checks)
    # at depth 3, seed 2 keeps one unridged survivor of four: too few
    with pytest.raises(DegenerateModelError,
                       match=r"depth 3, got 1 unridged \(3 ridged fits left out\)"):
        run_checks(_cfg(law=SPARSE, depths=(3,), replicates=4, seed=2, noise=noise), ["clt"])


# ---------------------------------------------------------------------------
# variance-bias experiment


def test_variance_estimators_zero_noise():
    cfg = _cfg(
        bar=BarParams(1.0, 0.5, 2.0, 0.25),
        noise=NoiseParams(0.0),
        depths=(6,),
        replicates=3,
    )
    report = run_checks(cfg, ["variance_estimators"])[0]
    check = _check(report, "sigma2_bias")
    assert check.target == 0.0 and check.empirical == 0.0 and check.passed


def test_variance_estimators_full_observation():
    cfg = _cfg(depths=(12,), replicates=150, seed=5)
    report = run_checks(cfg, ["variance_estimators"])[0]
    check = _check(report, "sigma2_bias")
    assert check.target == 4.0
    # informational covariance-bias check rides along
    rho_check = _check(report, "rho_bias")
    assert rho_check.passed is None
    assert np.isfinite(rho_check.empirical)


# ---------------------------------------------------------------------------
# report plumbing


def test_report_reproducible_bit_for_bit():
    cfg = _cfg(depths=(9,), replicates=24, noise=NoiseParams(1.0, 0.5), seed=13)
    a = run_checks(cfg, ["qsl"])[0].to_dict()
    b = run_checks(cfg, ["qsl"])[0].to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _forked_children(monkeypatch):
    """Pids of the children ``mc`` forks, in order."""
    children = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return children


def test_report_independent_of_worker_count(monkeypatch):
    # 24 full depth-9 trees are 24,552 expected cells: six blocks of 4,096
    # cells, where the default budget would make one block that runs inline
    cfg = _cfg(depths=(9,), replicates=24, noise=NoiseParams(1.0, 0.5), seed=13)
    monkeypatch.setattr(mc, "BLOCK_CELLS", 4096)
    assert len(mc._blocks(cfg, 9, list(range(24)))) == 6
    children = _forked_children(monkeypatch)
    monkeypatch.setenv("BARTREE_THREADS", "1")
    serial = json.dumps(run_checks(cfg, ["qsl"])[0].to_dict(), sort_keys=True)
    assert children == []
    monkeypatch.setenv("BARTREE_THREADS", "2")
    pooled = json.dumps(run_checks(cfg, ["qsl"])[0].to_dict(), sort_keys=True)
    assert len(children) == 1
    assert serial == pooled


def _missing_doc(depths):
    """A five-check verify config on the MISSING law, 30 replicates from seed 21."""
    return {
        "schema": "bartree-mc-v1",
        "model": {
            "bar": {"a": 0.5, "b": 0.3, "c": -0.4, "d": 0.7},
            "noise": {"sigma2": 1.0, "rho": 0.5},
            "law": {"type0": {"00": 0.06, "10": 0.54, "01": 0.04, "11": 0.36},
                    "type1": {"00": 0.14, "10": 0.06, "01": 0.56, "11": 0.24}},
        },
        "depths": depths,
        "replicates": 30,
        "seed": 21,
        "checks": ["clt", "consistency_rate", "limit_matrices", "qsl", "variance_estimators"],
    }


def test_report_independent_of_block_layout(tmp_path, monkeypatch):
    # a small cell budget splits each depth into several forest blocks, which
    # run inline at one worker and in the caller and a forked child at two;
    # every layout and worker count must give the same report bytes
    from bartree import mc
    from bartree.cli import run_cli

    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(_missing_doc([5, 7])))

    def report(threads, budget=None):
        monkeypatch.setenv("BARTREE_THREADS", threads)
        if budget is not None:
            monkeypatch.setattr(mc, "BLOCK_CELLS", budget)
        out = tmp_path / f"r{threads}-{budget}.json"
        assert run_cli(["verify", "--config", str(cfg_path), "--output", str(out)]) == 0
        return out.read_bytes()

    children = _forked_children(monkeypatch)
    unpatched = report("1")
    cfg = _cfg(law=MISSING, depths=(5, 7), replicates=30)
    assert len(mc._blocks(cfg, 5, list(range(30)))) == 1
    assert len(mc._blocks(cfg, 8, list(range(30)))) == 1
    serial = report("1", budget=150)
    assert 3 <= len(mc._blocks(cfg, 5, list(range(30)))) < len(mc._blocks(cfg, 8, list(range(30))))
    assert children == []
    pooled = report("2", budget=150)
    assert len(children) == 1
    assert serial == pooled == unpatched


def test_checks_do_not_couple(tmp_path, monkeypatch):
    # verify shares each seed set's trees among the checks; every check's
    # report must equal the one it gives when run alone, for any block
    # layout and worker count
    from bartree import mc
    from bartree.cli import run_cli
    from bartree.io import load_mc_config

    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(_missing_doc([4, 6, 7])))
    cfg, names = load_mc_config(cfg_path)
    children = _forked_children(monkeypatch)
    for threads, budget in (("1", None), ("1", 150), ("2", 150)):
        monkeypatch.setenv("BARTREE_THREADS", threads)
        if budget is not None:
            monkeypatch.setattr(mc, "BLOCK_CELLS", budget)
            assert len(mc._blocks(cfg, 7, list(range(30)))) >= 3
        out = tmp_path / f"r{threads}-{budget}.json"
        assert run_cli(["verify", "--config", str(cfg_path), "--output", str(out)]) == 0
        assert len(children) == (1 if threads == "2" else 0)
        together = {r["check"]: r for r in json.loads(out.read_text())["reports"]}
        assert sorted(together) == names
        for name in names:
            alone = json.loads(json.dumps(run_checks(cfg, [name])[0].to_dict()))
            assert together[name] == alone, (threads, budget, name)


def _verify(tmp_path, monkeypatch, capsys, threads):
    """``verify`` on a MISSING config split into several blocks: exit code and stderr lines."""
    from bartree.cli import run_cli

    monkeypatch.setenv("BARTREE_THREADS", threads)
    monkeypatch.setattr(mc, "BLOCK_CELLS", 150)
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(_missing_doc([5, 7])))
    capsys.readouterr()
    code = run_cli(["verify", "--config", str(cfg_path), "--output", str(tmp_path / "r.json")])
    return code, capsys.readouterr().err.splitlines()


def _child_starts_first(monkeypatch, tmp_path, run):
    """Make ``mc._run_block`` call ``run``; the caller starts none of its blocks before a forked child starts one."""
    caller, mark = os.getpid(), tmp_path / "child-started"

    def block(job):
        if os.getpid() != caller:
            mark.touch()
        else:
            deadline = time.monotonic() + 30
            while not mark.exists() and time.monotonic() < deadline:
                time.sleep(0.002)
        return run(job)

    monkeypatch.setattr(mc, "_run_block", block)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_block_error_is_the_serial_one(tmp_path, monkeypatch, capsys):
    # every block but the first raises, naming its first seed: a forked
    # child pickles its failure back, and the lowest failing block's error
    # is raised, the one a serial run raises
    run_block = mc._run_block

    def failing(job):
        if job[2][0] != 21:  # the first block of seed set 0 starts at the config's seed
            raise NumericalError(f"block from seed {job[2][0]} failed")
        return run_block(job)

    monkeypatch.setattr(mc, "_run_block", failing)
    code, serial = _verify(tmp_path, monkeypatch, capsys, "1")
    assert code == 3
    assert len(serial) == 1 and serial[0].startswith("numerical error: block from seed ")
    children = _forked_children(monkeypatch)
    _child_starts_first(monkeypatch, tmp_path, failing)
    assert _verify(tmp_path, monkeypatch, capsys, "2") == (3, serial)
    assert len(children) == 1
    _no_child_left()


@pytest.mark.parametrize("death, how", [
    (lambda: os._exit(9), "exited with status 9"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9 (Killed)"),
    # a real-time signal has no name in signal.Signals
    (lambda: os.kill(os.getpid(), signal.SIGRTMIN + 1),
     f"was killed by signal {signal.SIGRTMIN + 1} ({signal.strsignal(signal.SIGRTMIN + 1)})"),
], ids=["exit", "sigkill", "realtime"])
def test_dead_child_exits_2_with_one_line(tmp_path, monkeypatch, capsys, death, how):
    caller, run_block = os.getpid(), mc._run_block
    children = _forked_children(monkeypatch)
    _child_starts_first(monkeypatch, tmp_path,
                        lambda job: run_block(job) if os.getpid() == caller else death())
    code, err = _verify(tmp_path, monkeypatch, capsys, "2")
    assert code == 2
    assert err == [f"error: worker process {children[0]} {how} before sending its results"]
    _no_child_left()


def test_interrupted_caller_kills_its_children(monkeypatch):
    # the caller is interrupted while a child would compute for a minute:
    # the child is killed and reaped, not waited for
    monkeypatch.setenv("BARTREE_THREADS", "2")
    caller, start = os.getpid(), time.monotonic()

    def block(_):
        if os.getpid() != caller:
            time.sleep(60)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        mc._map_ordered(block, [0, 1])
    assert time.monotonic() - start < 30
    _no_child_left()


def test_interrupt_at_fork_ends_the_child(monkeypatch):
    # an interrupt that reaches a child as it is forked waits until the
    # child is inside _child's try, so it exits 1 and never unwinds
    # through the caller's handlers
    monkeypatch.setenv("BARTREE_THREADS", "2")
    fork = os.fork

    def interrupted_fork():
        pid = fork()
        if pid == 0:
            os.kill(os.getpid(), signal.SIGINT)
        return pid

    monkeypatch.setattr(os, "fork", interrupted_fork)
    with pytest.raises(ChildProcessError, match="exited with status 1 before"):
        mc._map_ordered(int, range(4))
    _no_child_left()


def test_map_ordered_keeps_order_past_one_claim_per_block(monkeypatch):
    # 20,000 blocks are more claims than one pipe write holds, so each
    # claim names a run of consecutive blocks
    monkeypatch.setenv("BARTREE_THREADS", "2")
    children = _forked_children(monkeypatch)
    assert mc._map_ordered(int, range(20_000)) == list(range(20_000))
    assert len(children) == 1
    _no_child_left()

    def no_fork():
        raise BlockingIOError("no process to spare")

    # a fork that fails leaves every claim to the caller
    monkeypatch.setattr(os, "fork", no_fork)
    assert mc._map_ordered(int, range(20_000)) == list(range(20_000))


def test_verify_simulates_each_block_once(tmp_path, monkeypatch):
    # five checks at three depths read three seed sets; each block of a seed
    # set is simulated once, to the deepest depth any of its checks needs
    from bartree import mc
    from bartree.cli import run_cli

    calls = []
    simulate = mc.simulate_joint

    def counted(*args, **kwargs):
        calls.append((args[3], tuple(kwargs["seed"])))
        return simulate(*args, **kwargs)

    monkeypatch.setenv("BARTREE_THREADS", "1")
    monkeypatch.setattr(mc, "simulate_joint", counted)
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(_missing_doc([4, 6, 7])))
    assert run_cli(["verify", "--config", str(cfg_path), "--output", str(tmp_path / "r.json")]) == 0
    # seed set 0 serves limit_matrices at 4 (simulated to 5), consistency_rate
    # at 4 and the deepest-depth checks at 7; sets 1 and 2 serve the first two
    # checks at 6 and 7
    sets = [list(range(21 + 30 * j, 51 + 30 * j)) for j in range(3)]
    assert calls == [(7, tuple(sets[0])), (7, tuple(sets[1])), (8, tuple(sets[2]))]

    calls.clear()
    monkeypatch.setattr(mc, "BLOCK_CELLS", 150)
    assert run_cli(["verify", "--config", str(cfg_path), "--output", str(tmp_path / "r.json")]) == 0
    cfg = _cfg(law=MISSING, depths=(4, 6, 7), replicates=30)
    blocks = [mc._blocks(cfg, depth, seeds) for depth, seeds in zip((7, 7, 8), sets)]
    assert 3 < len(calls) == sum(map(len, blocks))
    assert [seed for _, seeds in calls for seed in seeds] == [s for set_ in sets for s in set_]


def test_report_serializable_and_self_describing():
    cfg = _cfg(depths=(8,), replicates=20, seed=2)
    report = run_checks(cfg, ["qsl"])[0]
    doc = report.to_dict()
    json.dumps(doc)  # must not raise
    assert doc["config"]["seed"] == 2
    assert doc["config"]["law"]["type0"]["11"] == 1.0
    for check in doc["checks"]:
        assert {"name", "empirical", "target", "tolerance", "passed"} <= set(check)


def test_replicate_csv_long_format(tmp_path, monkeypatch):
    # MISSING at depth 4 leaves 7 of 40 replicates extinct and 4 survivors
    # without a sister pair: an extinct replicate gets only its survived
    # row, a pairless survivor no rho_* row, and matrix and vector
    # statistics (scaled_theta, cover) no row at all
    from bartree import mc
    from bartree.cli import run_cli

    cfg = _cfg(law=MISSING, depths=(4,), replicates=40, seed=11)
    doc = cfg.describe()
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps({
        "schema": "bartree-mc-v1",
        "model": {key: doc[key] for key in ("bar", "noise", "law")},
        **{key: doc[key] for key in ("depths", "replicates", "seed")},
        "checks": ["clt", "variance_estimators"],
    }))

    def verify(threads, budget=None):
        monkeypatch.setenv("BARTREE_THREADS", threads)
        if budget is not None:
            monkeypatch.setattr(mc, "BLOCK_CELLS", budget)
        out, csv = tmp_path / "r.json", tmp_path / f"r{threads}-{budget}.csv"
        argv = ["verify", "--config", str(cfg_path), "--output", str(out), "--replicate-csv", str(csv)]
        assert run_cli(argv) == 0
        return json.loads(out.read_text())["reports"], csv.read_bytes()

    reports, text = verify("1")
    assert text == verify("2")[1]
    assert verify("1", budget=50)[1] == verify("2", budget=50)[1] == text
    assert len(mc._blocks(cfg, 4, list(range(40)))) >= 3

    lines = text.decode().splitlines()
    assert lines[0] == "check,depth,replicate,seed,survived,stat,value"
    stats: dict[int, list[str]] = {}
    checks = []
    for line in lines[1:]:
        check, depth, i, seed, survived, stat, value = line.split(",")
        assert (depth, int(seed)) == ("4", 11 + int(i))
        if not checks or checks[-1] != check:
            checks.append(check)
        if stat == "survived":
            assert value == survived
        stats.setdefault(int(i), []).append(stat)
    assert sorted(stats) == list(range(40))
    assert checks == ["clt", "variance_estimators"]  # each check's rows, in report order
    # one survived row per check; scaled_theta and cover never appear
    unpaired = {"survived", "sigma_stat", "sigma_cover", "sigma_bias"}
    paired = unpaired | {"rho_stat", "rho_cover", "rho_bias"}
    extinct = [i for i, s in stats.items() if s == ["survived", "survived"]]
    pairless = [i for i, s in stats.items() if s.count("survived") == 2 and set(s) == unpaired]
    with_pairs = [i for i, s in stats.items() if s.count("survived") == 2 and set(s) == paired]
    assert (len(extinct), len(pairless), len(with_pairs)) == (7, 4, 29)
    assert all(f"{check},4,{i},{11 + i},0,survived,0" in lines
               for check in checks for i in extinct)
    assert all(r["extinct"] == {"4": 7} for r in reports)
    counts = [c["detail"]["with_pairs"] for r in reports for c in r["checks"] if "rho" in c["name"]]
    assert counts == [29, 29]
