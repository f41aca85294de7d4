"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Every tolerance is pinned here.  Criterion 6 holds the self-normalised
quadratic-strong-law average to the constant derived for it, 4 sigma^2,
and prints the limit-design form alongside; the README records why that
second form does not settle at the tested depths.
"""

import json
import math

import numpy as np
from scipy.linalg import block_diag

from bartree import (
    BarParams,
    McConfig,
    NoiseParams,
    ReproductionLaw,
    estimate_theta,
    extinction_probabilities,
    martingale_diagnostics,
    mc_clt,
    mc_limit_matrices,
    mc_qsl,
    mc_variance_estimators,
    simulate_joint,
    simulate_mask,
    spectral,
    theta_cis,
    wald_test,
)
from bartree.cli import run_cli
from bartree.io import parse_lineage

FULL = ReproductionLaw.full_observation()
MISSING = ReproductionLaw.from_mean_matrix([[0.9, 0.4], [0.3, 0.8]])
SYM75 = ReproductionLaw.from_tables({"11": 0.75, "00": 0.25}, {"11": 0.75, "00": 0.25})

GENERIC_BAR = BarParams(0.5, 0.3, -0.4, 0.7)
TABLE_BAR = BarParams(0.03627, 0.02662, 0.03058, 0.17055)  # realistic colony-scale fit
UNIT_NOISE = NoiseParams(1.0, 0.0)
CORR_NOISE = NoiseParams(1.0, 0.5)


def _seeds(first: int, count: int) -> list[int]:
    """A block of consecutive seeds, simulated together as one forest."""
    return list(range(first, first + count))


def _report(number: int, ok: bool, text: str) -> bool:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {text}")
    return ok


def test_criterion_01_spectral_exactness():
    full = spectral(FULL)
    missing = spectral(MISSING)
    ok = (
        full.growth_rate == 2.0
        and np.array_equal(full.left_eigenvector, [0.5, 0.5])
        and abs(missing.growth_rate - 1.2) <= 1e-12
    )
    assert _report(
        1, ok,
        f"spectral exactness: full-observation rate {full.growth_rate}, "
        f"missing-law rate {missing.growth_rate:.15f}",
    )


def test_criterion_02_extinction_fixed_point():
    q = extinction_probabilities(SYM75)
    fixed_ok = abs(q[0] - 1 / 3) <= 1e-10 and abs(q[1] - 1 / 3) <= 1e-10

    reps, block = 10_000, 100
    extinct = sum(
        int((simulate_mask(SYM75, 20, root_type=0, seed=_seeds(start, block))
             .generation_sizes(20) == 0).sum())
        for start in range(61_000, 61_000 + reps, block)
    )
    freq = extinct / reps
    band = 3 * math.sqrt((1 / 3) * (2 / 3) / reps)
    freq_ok = abs(freq - 1 / 3) <= band
    assert _report(
        2, fixed_ok and freq_ok,
        f"extinction: fixed point {q[0]:.12f} (target 1/3), "
        f"depth-20 frequency {freq:.4f} within {band:.4f} of 1/3",
    )


def test_criterion_03_zero_noise_exact_recovery():
    bar = BarParams(1.0, 0.5, 2.0, 0.25)
    tree = simulate_joint(bar, NoiseParams(0.0), FULL, depth=4, x1=0.0, seed=0)
    est = estimate_theta(tree, 4)
    cis, _ = theta_cis(est, 0.95)
    ok = (
        np.abs(est.theta_hat - bar.as_vector()).max() <= 1e-10
        and est.sigma2_hat == 0.0
        and est.rho_hat == 0.0
        and all(cis[n].high - cis[n].low == 0.0 for n in "abcd")
    )
    assert _report(
        3, ok,
        f"zero-noise recovery: max coefficient error "
        f"{np.abs(est.theta_hat - bar.as_vector()).max():.2e}, degenerate intervals",
    )


def test_criterion_04_score_identity():
    rng = np.random.default_rng(20250810)
    thin_law = ReproductionLaw.from_tables(
        {"11": 0.85, "10": 0.05, "01": 0.05, "00": 0.05},
        {"11": 0.85, "10": 0.05, "01": 0.05, "00": 0.05},
    )
    worst = 0.0
    regularized = 0
    collected, seed = 0, 700_000
    while collected < 50:
        a, c = rng.uniform(-2, 2, size=2)
        b, d = rng.uniform(-0.9, 0.9, size=2)
        if max(abs(b), abs(d)) < 0.05:
            b = 0.5
        bar = BarParams(float(a), float(b), float(c), float(d))
        noise = NoiseParams(float(rng.uniform(0.2, 3.0)), 0.0)
        law = FULL if collected % 2 == 0 else thin_law
        depth = int(rng.integers(5, 9))
        seed += 1
        tree = simulate_joint(bar, noise, law, depth=depth, seed=seed)
        if tree.mask.generation_count(depth) == 0:
            continue  # the identity needs a fit; extinct draws are resampled
        collected += 1
        est = estimate_theta(tree, depth)
        regularized += est.regularized
        diag = martingale_diagnostics(tree, bar, depth)
        lhs = block_diag(est.design.s0, est.design.s1) @ (est.theta_hat - bar.as_vector())
        rhs = diag.m_path[-1]
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / (1.0 + np.linalg.norm(rhs))))
    ok = worst <= 1e-8 and regularized == 0
    assert _report(
        4, ok,
        f"score identity on 50 trees: worst relative gap {worst:.2e}, "
        f"{regularized} regularized fits",
    )


def test_criterion_05_design_limit_medians():
    cfg = McConfig(
        bar=TABLE_BAR, noise=UNIT_NOISE, law=MISSING,
        depths=(14,), replicates=450, seed=510_000,
    )
    report = mc_limit_matrices(cfg)
    surviving = report.surviving[14]
    worst = max(c.empirical for c in report.checks)
    ok = report.passed and surviving >= 200
    assert _report(
        5, ok,
        f"design-matrix medians at depth 14: worst scaled deviation {worst:.3f} "
        f"(tolerance 1.0), {surviving} surviving replicates",
    )


def test_criterion_06_qsl_constant():
    # fully observed, unit variance
    cfg_full = McConfig(
        bar=GENERIC_BAR, noise=CORR_NOISE, law=FULL,
        depths=(14,), replicates=220, seed=610_000,
    )
    rep_full = mc_qsl(cfg_full)

    # missing data at growth rate 1.2
    cfg_miss = McConfig(
        bar=TABLE_BAR, noise=UNIT_NOISE, law=MISSING,
        depths=(16,), replicates=900, seed=620_000,
    )
    rep_miss = mc_qsl(cfg_miss)

    def by_name(report, name):
        return next(c for c in report.checks if c.name == name)

    def summary(report):
        return "; ".join(
            f"{c.name} {c.empirical:.3f} vs target {c.target:.3f} "
            f"(tail-levels mean {c.detail['tail_levels_mean']:.3f})"
            for c in (by_name(report, "qsl_mean"), by_name(report, "qsl_mean_limit_design"))
        )

    check_full = by_name(rep_full, "qsl_mean")
    check_miss = by_name(rep_miss, "qsl_mean")
    ok = bool(check_full.passed and check_miss.passed and rep_miss.surviving[16] >= 200)
    assert _report(
        6, ok,
        f"quadratic strong law: full observation {summary(rep_full)}; "
        f"missing data {summary(rep_miss)}; {rep_miss.surviving[16]} survivors",
    ), (
        "the Cesaro average of the self-normalised quadratic error "
        "(theta_l - theta)' S*_{l-1} (theta_l - theta) is not within 15% of its "
        "derived constant 4 sigma^2, or fewer than 200 missing-data replicates survived"
    )


def test_criterion_07_ci_coverage():
    cfg = McConfig(
        bar=GENERIC_BAR, noise=CORR_NOISE, law=FULL,
        depths=(12,), replicates=1000, seed=710_000,
    )
    report = mc_clt(cfg)
    cover = next(c for c in report.checks if c.name == "theta_ci_coverage")
    rates = np.asarray(cover.detail["per_coefficient"])
    ok = bool(np.all((rates >= 0.93) & (rates <= 0.97)))
    assert _report(
        7, ok,
        f"95% CI coverage over 1000 replicates at depth 12: "
        f"{np.round(rates, 4).tolist()} (band [0.93, 0.97])",
    )


def test_criterion_08_variance_clts():
    cfg = McConfig(
        bar=GENERIC_BAR, noise=CORR_NOISE, law=FULL,
        depths=(14,), replicates=800, seed=810_000,
    )
    report = mc_clt(cfg)
    sig = next(c for c in report.checks if c.name == "sigma2_clt_variance")
    rho = next(c for c in report.checks if c.name == "rho_clt_variance")
    ok = bool(sig.passed and rho.passed)
    assert _report(
        8, ok,
        f"variance CLTs at depth 14: sigma2 stat variance {sig.empirical:.3f} vs "
        f"{sig.target:.3f}, rho stat variance {rho.empirical:.3f} vs {rho.target:.3f} "
        f"(15% tolerance)",
    )


def test_criterion_09_wald_size_and_power():
    def rejections(bar, noise, first, reps, names):
        # forest blocks of 8 depth-12 trees, about 65k cells each
        counts = dict.fromkeys(names, 0)
        for start in range(first, first + reps, 8):
            est = estimate_theta(simulate_joint(bar, noise, FULL, 12, seed=_seeds(start, 8)), 12)
            for name in names:
                counts[name] += int((wald_test(est, name).p_value < 0.05).sum())
        return counts

    size_bar = BarParams(0.3, 0.25, 0.3, 0.25)
    reps = 2000
    size = rejections(size_bar, NoiseParams(1.0, 0.3), 910_000, reps, ("pair", "intercept", "slope"))
    sizes = {k: v / reps for k, v in size.items()}
    size_ok = all(0.03 <= s <= 0.07 for s in sizes.values())

    power_reps = 1000
    power = rejections(TABLE_BAR, UNIT_NOISE, 920_000, power_reps, ("slope",))["slope"] / power_reps
    power_ok = power > 0.5
    assert _report(
        9, size_ok and power_ok,
        f"symmetry tests at depth 12: size {sizes} in [0.03, 0.07]; "
        f"slope-test power {power:.3f} at the colony-scale gap (> 0.5)",
    )


def test_criterion_10_variance_bias_statistic():
    cfg = McConfig(
        bar=GENERIC_BAR, noise=UNIT_NOISE, law=FULL,
        depths=(14,), replicates=250, seed=101_000,
    )
    report = mc_variance_estimators(cfg)
    check = next(c for c in report.checks if c.name == "sigma2_bias")
    ok = bool(check.passed)
    assert _report(
        10, ok,
        f"variance bias statistic at depth 14: median {check.empirical:.3f} vs "
        f"target {check.target:.3f} (20% tolerance, {check.detail['surviving']} replicates)",
    )


def test_criterion_11_determinism_and_round_trip(tmp_path):
    model = {
        "schema": "bartree-model-v1",
        "bar": {"a": 0.5, "b": 0.3, "c": -0.4, "d": 0.7},
        "noise": {"sigma2": 1.0, "rho": 0.5},
        "law": {
            "type0": {"11": 0.85, "10": 0.05, "01": 0.05, "00": 0.05},
            "type1": {"11": 0.85, "10": 0.05, "01": 0.05, "00": 0.05},
        },
        "depth": 9,
        "seed": 424242,
    }
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(model))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--output", str(a)]) == 0
    assert run_cli(["simulate", "--config", str(cfg), "--output", str(b)]) == 0
    bytes_ok = a.read_bytes() == b.read_bytes()

    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    assert run_cli(["estimate", "--input", str(a), "--output", str(ra)]) == 0
    assert run_cli(["estimate", "--input", str(a), "--output", str(rb)]) == 0
    reports_ok = ra.read_bytes() == rb.read_bytes()

    parsed = parse_lineage(a)
    direct = simulate_joint(
        BarParams(0.5, 0.3, -0.4, 0.7),
        NoiseParams(1.0, 0.5),
        ReproductionLaw.from_tables(model["law"]["type0"], model["law"]["type1"]),
        depth=9,
        seed=424242,
    )
    lossless = bool(
        np.array_equal(parsed.mask.ids(), direct.mask.ids())
        and np.array_equal(np.concatenate(parsed.values), np.concatenate(direct.values))
    )
    est_file = estimate_theta(parsed, 9)
    est_mem = estimate_theta(direct, 9)
    estimates_ok = bool(
        np.array_equal(est_file.theta_hat, est_mem.theta_hat)
        and est_file.sigma2_hat == est_mem.sigma2_hat
    )
    ok = bytes_ok and reports_ok and lossless and estimates_ok
    assert _report(
        11, ok,
        f"determinism/round-trip: byte-identical outputs {bytes_ok}, "
        f"byte-identical reports {reports_ok}, lossless parse {lossless}, "
        f"identical estimates {estimates_ok}",
    )
