"""The four benchmark workloads: inputs from a seed, one pass, output checks.

Every workload calls bartree's public API in-process.  Inputs are generated
here from the workload seed; the program sees only those generated configs.
A pass returns its raw outputs, which are checked after the timed region.

Calls go through module attributes (``bar.simulate_joint``, not a name bound
at import time) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from bartree import bar, cli, estimation, gw, inference, limits
from bartree.gw import ReproductionLaw  # not exported by bartree.__all__

LEVEL = 0.95
FULL_SE_TOLERANCE = 5.0

TABLE_BAR = (0.03627, 0.02662, 0.03058, 0.17055)  # acceptance-suite colony fit
GENERIC_BAR = (0.5, 0.3, -0.4, 0.7)
MISSING_MEANS = [[0.9, 0.4], [0.3, 0.8]]  # growth rate 1.2
DENSE_MEANS = [[0.95, 0.9], [0.9, 0.95]]  # growth rate 1.85

# What each ``bartree verify`` check must show at the benchmark's budget,
# from ten seeds of each workload: a verdict that held on every seed, "band"
# for a verdict that flips with the seed (each statistic must then stay within
# BAND tolerances of its target; the worst seen was 1.1), or None where only
# finiteness is asserted.  qsl fails until its constant is settled; the
# mc_missing clt covariance sits up to 7.7 tolerances off on these small trees.
EXPECTED = {
    "mc_missing": {"limit_matrices": "band", "consistency_rate": True, "qsl": False,
                   "clt": None, "variance_estimators": False},
    "mc_full": {"clt": "band", "variance_estimators": "band"},
}
BAND = 3.0


def derive_seed(workload: str, seed: int, j: int = 0) -> int:
    """Independent 32-bit program seed for (workload, benchmark seed, index)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{j}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sha256_bytes(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _law_tables(law: ReproductionLaw) -> dict:
    return {
        f"type{i}": {f"{j0}{j1}": float(p) for (j0, j1), p in zip(gw.OUTCOMES, law.probs[i])}
        for i in (0, 1)
    }


def _model_doc(coeffs, sigma2, rho, law) -> dict:
    return {
        "bar": dict(zip("abcd", coeffs)),
        "noise": {"sigma2": sigma2, "rho": rho},
        "law": _law_tables(law),
    }


@dataclass
class PassOutput:
    """What one pass produced, for checking and for the metrics."""

    ops: int                 # operations attempted (replicates, API calls, commands)
    failed: int              # operations that exited non-zero or raised
    items: int               # trees simulated and fitted
    phases: dict = field(default_factory=dict)  # named sub-timings, seconds
    data: dict = field(default_factory=dict)


class Workload:
    """One benchmark workload; ``pool`` workloads use ``BARTREE_THREADS``."""

    name = ""
    pool = False

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def setup(self) -> None:
        """Generate inputs and do the closed-form set-up."""

    def run(self) -> PassOutput:
        raise NotImplementedError

    def check(self, out: PassOutput) -> list[str]:
        """Errors in a pass's outputs; empty when they are right."""
        raise NotImplementedError

    def digest(self, out: PassOutput) -> str:
        """Digest of the output bytes that must repeat for a given seed."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {}


class McWorkload(Workload):
    """``bartree verify`` on a generated experiment config."""

    pool = True
    coeffs: tuple = ()
    sigma2 = 1.0
    rho = 0.0
    checks: tuple = ()
    depths: tuple = ()
    smoke_depths: tuple = ()
    replicates = 300
    smoke_replicates = 30
    extinct_band: tuple = (0.0, 0.0)

    def law(self) -> ReproductionLaw:
        raise NotImplementedError

    def setup(self) -> None:
        law = self.law()
        self.config_path = self.workdir / "mc.json"
        self.report_path = self.workdir / "report.json"
        self.config = {
            "schema": "bartree-mc-v1",
            "model": _model_doc(self.coeffs, self.sigma2, self.rho, law),
            "depths": list(self.smoke_depths if self.smoke else self.depths),
            "replicates": self.smoke_replicates if self.smoke else self.replicates,
            "seed": derive_seed(self.name, self.seed),
            "level": LEVEL,
            "checks": list(self.checks),
        }
        self.config_path.write_text(json.dumps(self.config, indent=2))
        spectrum = gw.spectral(law)
        limits.limit_matrices(bar.BarParams(*self.coeffs), bar.NoiseParams(self.sigma2, self.rho), spectrum)

    def run(self) -> PassOutput:
        self.report_path.unlink(missing_ok=True)
        rc = cli.run_cli(["verify", "--config", str(self.config_path), "--output", str(self.report_path)])
        reps = self.config["replicates"]
        depths = self.config["depths"]
        ops = sum(len(depths) if c in ("limit_matrices", "consistency_rate") else 1 for c in self.checks) * reps
        return PassOutput(ops=ops, failed=ops if rc else 0, items=ops, data={"rc": rc})

    def _report_bytes(self) -> bytes:
        return self.report_path.read_bytes() if self.report_path.exists() else b""

    def digest(self, out: PassOutput) -> str:
        return sha256_bytes(self._report_bytes())

    def check(self, out: PassOutput) -> list[str]:
        if out.data["rc"] != 0:
            return [f"verify exited {out.data['rc']}"]
        doc = json.loads(self._report_bytes())
        errors = []
        reports = {r["check"]: r for r in doc["reports"]}
        if sorted(reports) != sorted(self.checks):
            errors.append(f"report covers {sorted(reports)}, expected {sorted(self.checks)}")
        _, attempted = _tally(doc["reports"])
        if attempted != out.ops:
            errors.append(f"report accounts for {attempted} replicates, expected {out.ops}")
        for name, report in reports.items():
            for stat in report["checks"]:
                value = stat["empirical"]
                if value is None or not math.isfinite(value):
                    errors.append(f"{name}/{stat['name']}: non-finite statistic {value}")
        if self.smoke:
            return errors
        share = self.extinct_ratio()
        lo, hi = self.extinct_band
        if not lo <= share <= hi:
            errors.append(f"extinct share {share:.3f} outside [{lo}, {hi}]")
        for name, report in reports.items():
            expected = EXPECTED[self.name][name]
            if expected == "band":
                errors.extend(filter(None, (_band_error(name, stat) for stat in report["checks"])))
            elif expected is not None and report["passed"] != expected:
                errors.append(f"{name}: verdict {report['passed']}, recorded {expected}")
        return errors

    def extinct_ratio(self) -> float:
        """Replicates simulated and then discarded as extinct, over those attempted."""
        extinct, attempted = _tally(json.loads(self._report_bytes())["reports"])
        return extinct / attempted

    def describe(self) -> dict:
        return {"config": self.config}


def _tally(reports: list[dict]) -> tuple[int, int]:
    """Extinct and attempted replicates over every check and depth of a report."""
    extinct = sum(sum(r["extinct"].values()) for r in reports)
    surviving = sum(sum(r["surviving"].values()) for r in reports)
    return extinct, extinct + surviving


def _band_error(check: str, stat: dict) -> str | None:
    """Error text when a statistic lies more than BAND tolerances from its target."""
    if stat["passed"] is None:
        return None
    emp, target, tol = stat["empirical"], stat["target"], stat["tolerance"]
    kind = stat["tolerance_kind"]
    if target == 1.0 and tol == 1.0:  # scaled deviation, already in tolerance units
        gap = emp
    elif kind.startswith("relative"):
        gap = abs(emp - target) / (tol * abs(target))
    else:
        gap = abs(emp - target) / tol
    if gap <= BAND:
        return None
    return (f"{check}/{stat['name']} at depth {stat['depth']}: {emp} is {gap:.2f} "
            f"tolerances ({kind}) from {target}")


class McMissing(McWorkload):
    name = "mc_missing"
    coeffs = TABLE_BAR
    checks = ("limit_matrices", "consistency_rate", "qsl", "clt", "variance_estimators")
    depths = (10, 13, 16)
    smoke_depths = (6, 7, 8)
    extinct_band = (0.15, 0.35)

    def law(self):
        return ReproductionLaw.from_mean_matrix(MISSING_MEANS)


class McFull(McWorkload):
    name = "mc_full"
    coeffs = GENERIC_BAR
    rho = 0.5
    checks = ("clt", "variance_estimators")
    depths = (12,)
    smoke_depths = (7,)

    def law(self):
        return ReproductionLaw.full_observation()


class DeepFull(Workload):
    """One full tree through simulate, estimate and inference."""

    name = "deep_full"

    def setup(self) -> None:
        self.depth = 10 if self.smoke else 20
        self.params = bar.BarParams(*GENERIC_BAR)
        self.noise = bar.NoiseParams(1.0, 0.5)
        self.law = ReproductionLaw.full_observation()
        self.tree_seed = derive_seed(self.name, self.seed)
        gw.spectral(self.law)

    def run(self) -> PassOutput:
        n = self.depth
        tree = bar.simulate_joint(self.params, self.noise, self.law, n, seed=self.tree_seed)
        est = estimation.estimate_theta(tree, n)
        cis, _ = inference.theta_cis(est, LEVEL)
        sigma_ci, rho_ci, _ = inference.sigma_rho_cis(est, LEVEL)
        walds = [inference.wald_test(est, name) for name in ("pair", "intercept", "slope")]
        pi = gw.estimate_pi(tree.mask, LEVEL)
        seq = estimation.sequential_variance_functionals(tree, n)
        mart = estimation.martingale_diagnostics(tree, self.params, n)
        data = {
            "cells": tree.mask.total_count(n),
            "theta": [float(x) for x in est.theta_hat],
            "theta_ci": [(cis[k].low, cis[k].high) for k in "abcd"],
            "sigma2": (est.sigma2_hat, sigma_ci.low, sigma_ci.high),
            "rho": (est.rho_hat, rho_ci.low, rho_ci.high),
            "wald": [(w.statistic, w.p_value) for w in walds],
            "pi_hat": pi.pi_hat,
            "sequential": seq,
            "qsl_running": float(mart.qsl_running[-1]),
        }
        return PassOutput(ops=10, failed=0, items=1, data=data)

    def digest(self, out: PassOutput) -> str:
        return sha256_bytes(json.dumps(out.data, sort_keys=True).encode())

    def check(self, out: PassOutput) -> list[str]:
        d = out.data
        errors = []
        if d["cells"] != 2 ** (self.depth + 1) - 1:
            errors.append(f"{d['cells']} cells, expected {2 ** (self.depth + 1) - 1}")
        z = statistics.NormalDist().inv_cdf(0.5 + LEVEL / 2.0)
        truths = list(zip("abcd", GENERIC_BAR, d["theta"], d["theta_ci"]))
        truths.append(("sigma2", self.noise.sigma2, d["sigma2"][0], d["sigma2"][1:]))
        for name, truth, point, (low, high) in truths:
            se = (high - low) / (2.0 * z)
            if not abs(point - truth) <= FULL_SE_TOLERANCE * se:
                errors.append(f"{name}: estimate {point} is more than {FULL_SE_TOLERANCE} SE ({se}) from {truth}")
        if d["pi_hat"] != 2.0:
            errors.append(f"growth-rate estimate {d['pi_hat']} on a full tree, expected 2.0")
        for stat, p in d["wald"]:
            if not (math.isfinite(stat) and 0.0 <= p <= 1.0):
                errors.append(f"Wald statistic {stat} with p-value {p}")
        if not all(math.isfinite(x) for x in (*d["sequential"], d["qsl_running"])):
            errors.append(f"non-finite sequential functionals {d['sequential']} / {d['qsl_running']}")
        return errors

    def describe(self) -> dict:
        return {"depth": self.depth, "tree_seed": self.tree_seed}


class CliDense(Workload):
    """simulate --mask-output, estimate, gw through ``run_cli`` on a dense law."""

    name = "cli_dense"
    SCREEN_DEPTH = 12
    SIZE_TOLERANCE = 0.02
    MAX_CANDIDATES = 5000

    def setup(self) -> None:
        self.depth = 10 if self.smoke else 19
        law = ReproductionLaw.from_mean_matrix(DENSE_MEANS)
        pi = gw.spectral(law).growth_rate
        # Tree sizes vary by about 30% from seed to seed.  Take the first
        # derived seed whose generation-12 prefix predicts a tree within 2%
        # of the mean size (pi^(n+1) - 1) / (pi - 1), so that every seed
        # processes about the same amount of data.
        self.target_cells = (pi ** (self.depth + 1) - 1.0) / (pi - 1.0)
        screen = min(self.SCREEN_DEPTH, self.depth)
        growth = sum(pi ** k for k in range(1, self.depth - screen + 1))
        best = None
        for j in range(1 if self.smoke else self.MAX_CANDIDATES):
            s = derive_seed(self.name, self.seed, j)
            prefix = gw.simulate_mask(law, screen, seed=s)
            predicted = prefix.total_count(screen) + prefix.generation_count(screen) * growth
            gap = abs(predicted / self.target_cells - 1.0)
            if best is None or gap < best[0]:
                best = (gap, s, j)
            if gap <= self.SIZE_TOLERANCE:
                break
        _, self.tree_seed, self.candidates = best
        model = _model_doc(GENERIC_BAR, 1.0, 0.5, law)
        model.update({"schema": "bartree-model-v1", "depth": self.depth, "seed": self.tree_seed})
        self.model_path = self.workdir / "model.json"
        self.lineage_path = self.workdir / "lineage.csv"
        self.mask_path = self.workdir / "mask.csv"
        self.estimate_path = self.workdir / "estimate.json"
        self.gw_path = self.workdir / "gw.json"
        self.model_path.write_text(json.dumps(model, indent=2))

    def run(self) -> PassOutput:
        for path in (self.lineage_path, self.mask_path, self.estimate_path, self.gw_path):
            path.unlink(missing_ok=True)
        commands = {
            "simulate_cmd_s": ["simulate", "--config", str(self.model_path), "--output",
                               str(self.lineage_path), "--mask-output", str(self.mask_path)],
            "estimate_cmd_s": ["estimate", "--input", str(self.lineage_path), "--output",
                               str(self.estimate_path)],
            "gw_cmd_s": ["gw", "--input", str(self.mask_path), "--output", str(self.gw_path)],
        }
        phases, codes = {}, {}
        for key, argv in commands.items():
            start = time.perf_counter()
            codes[argv[0]] = cli.run_cli(argv)
            phases[key] = time.perf_counter() - start
        failed = sum(1 for rc in codes.values() if rc != 0)
        return PassOutput(ops=3, failed=failed, items=1, phases=phases, data={"codes": codes})

    def _outputs(self) -> list[bytes]:
        return [p.read_bytes() if p.exists() else b""
                for p in (self.lineage_path, self.mask_path, self.estimate_path, self.gw_path)]

    def digest(self, out: PassOutput) -> str:
        return sha256_bytes(*self._outputs())

    def check(self, out: PassOutput) -> list[str]:
        bad = {cmd: rc for cmd, rc in out.data["codes"].items() if rc != 0}
        if bad:
            return [f"non-zero exit codes {bad}"]
        errors = []
        mask_ids = [int(line) for line in self.mask_path.read_text().splitlines()
                    if line and not line.startswith("#")]
        lineage_rows = sum(1 for line in self.lineage_path.read_text().splitlines()
                           if line and not line.startswith("#"))
        per_generation = [0] * (self.depth + 1)
        for k in mask_ids:
            per_generation[k.bit_length() - 1] += 1
        est = json.loads(self.estimate_path.read_text())
        gw_report = json.loads(self.gw_path.read_text())
        if est["counts"]["observed"] != len(mask_ids):
            errors.append(f"estimate counts {est['counts']['observed']} observed cells, mask has {len(mask_ids)}")
        if lineage_rows != len(mask_ids):
            errors.append(f"lineage has {lineage_rows} rows, mask has {len(mask_ids)}")
        for label, counts in (("estimate", est["counts"]["per_generation"]),
                              ("gw", gw_report["counts"]["per_generation"])):
            if counts != per_generation:
                errors.append(f"{label} per-generation counts differ from the mask file")
        return errors

    def describe(self) -> dict:
        return {"depth": self.depth, "tree_seed": self.tree_seed,
                "seed_candidates": self.candidates + 1, "target_cells": self.target_cells}


WORKLOADS = {w.name: w for w in (McMissing, McFull, DeepFull, CliDense)}


def make(name: str, seed: int, smoke: bool, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, smoke, workdir)


def source_digest(root: Path) -> str:
    """sha256 over the package sources, identifying the program measured."""
    files = sorted((root / "src").rglob("*.py"))
    return sha256_bytes(*(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes() for p in files))


def environment(root: Path) -> dict:
    import platform

    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        import subprocess

        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": source_digest(root),
    }
