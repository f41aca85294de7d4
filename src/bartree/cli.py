"""Command-line surface.

Subcommands: ``simulate`` writes a lineage CSV from a model config,
``estimate`` turns a lineage CSV into a JSON report (coefficients,
noise estimates, confidence intervals, symmetry tests, growth rate),
``gw`` reports growth-rate and extinction diagnostics for a mask CSV,
and ``verify`` runs a Monte Carlo experiment config and writes its
report.  Exit codes: 0 success, 2 validation problems and runs too large
for the memory, 3 numerical degeneracies.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import estimation, gw, inference, io, mc
from .bar import simulate_joint
from .errors import EstimationError, NumericalError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


@functools.cache  # built once per process: parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bartree",
        description="Simulation and inference for bifurcating autoregressions with missing data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate the joint model to a lineage CSV")
    sim.add_argument("--config", required=True, help="model config JSON")
    sim.add_argument("--output", required=True, help="lineage CSV to write")
    sim.add_argument("--depth", type=int, default=None, help="override config depth")
    sim.add_argument("--seed", type=int, default=None, help="override config seed")
    sim.add_argument("--root-type", type=int, default=None, choices=(0, 1))
    sim.add_argument("--x1", type=float, default=None, help="override root value")
    sim.add_argument("--noise-output", default=None, help="hidden-noise sidecar CSV")
    sim.add_argument("--mask-output", default=None, help="also export the mask CSV")

    est = sub.add_parser("estimate", help="fit the observed model from a lineage CSV")
    est.add_argument("--input", required=True, help="lineage CSV")
    est.add_argument("--depth", type=int, default=None, help="generations to use (default: all)")
    est.add_argument("--level", type=float, default=0.95)
    est.add_argument("--output", default=None, help="report JSON (default: stdout)")

    gwp = sub.add_parser("gw", help="growth-rate and extinction diagnostics for a mask CSV")
    gwp.add_argument("--input", required=True, help="mask CSV")
    gwp.add_argument("--level", type=float, default=0.95)
    gwp.add_argument("--output", default=None, help="report JSON (default: stdout)")

    ver = sub.add_parser("verify", help="run a Monte Carlo experiment config")
    ver.add_argument("--config", required=True, help="experiment config JSON")
    ver.add_argument("--output", default=None, help="report JSON (default: stdout)")
    ver.add_argument("--replicate-csv", default=None, help="per-replicate statistics CSV")
    return parser


def _cmd_simulate(args) -> int:
    cfg = io.load_model_config(args.config)
    depth = args.depth if args.depth is not None else cfg["depth"]
    seed = args.seed if args.seed is not None else cfg["seed"]
    if depth is None:
        raise ValidationError("depth missing: set it in the config or pass --depth")
    if seed is None:
        raise ValidationError("seed missing: set it in the config or pass --seed")
    root_type = args.root_type if args.root_type is not None else cfg["root_type"]
    x1 = args.x1 if args.x1 is not None else cfg["x1"]
    gw._check_budget(cfg["law"], depth, root_type)
    tree = simulate_joint(
        cfg["bar"], cfg["noise"], cfg["law"], depth,
        root_type=root_type, x1=x1, seed=seed,
    )
    io.write_lineage(tree, args.output)
    if args.noise_output:
        io.write_noise_sidecar(tree, args.noise_output)
    if args.mask_output:
        io.write_mask(tree.mask, args.mask_output)
    return EXIT_OK


def _growth_rate_section(mask, level):
    est = gw.estimate_pi(mask, level=level)
    section = {
        "estimate": est.pi_hat,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "level": est.level,
    }
    if est.pi_hat > 1.0:
        w = gw.renormalized_population(mask, est.pi_hat)
        section["renormalized_population"] = {
            "last_generation": w.w_last_generation,
            "cumulative": w.w_cumulative,
        }
    return section


def _cmd_estimate(args) -> int:
    tree = io.parse_lineage(args.input)
    if tree.depth < 1:
        raise EstimationError("lineage carries no observed daughters to fit")
    n = args.depth if args.depth is not None else tree.depth
    if not 1 <= n <= tree.depth:
        raise ValidationError(
            f"--depth must lie in [1, {tree.depth}] for this file, got {n}"
        )
    est = estimation.estimate_theta(tree, n)
    cis, warnings = inference.theta_cis(est, args.level)
    tests = {}
    for name in ("pair", "intercept", "slope"):
        try:
            t = inference.wald_test(est, name)
            tests[name] = {"statistic": t.statistic, "df": t.df, "p_value": t.p_value}
        except NumericalError as exc:
            tests[name] = {"statistic": None, "df": None, "p_value": None, "reason": str(exc)}
            warnings.append(f"{name} test not computable: {exc}")
    sigma_ci, rho_ci, more = inference.sigma_rho_cis(est, args.level)
    warnings.extend(w for w in more if w not in warnings)

    report = {
        "schema": io.REPORT_SCHEMA,
        "kind": "estimate",
        "input": str(args.input),
        "depth": n,
        "level": args.level,
        "counts": {
            "observed": est.t_star,
            "observed_parents": est.t_star_parents,
            "pairs": est.pair_parents,
            "per_generation": tree.mask.counts.sum(axis=1).tolist(),
        },
        "theta": {
            name: {
                "estimate": cis[name].point,
                "ci_low": cis[name].low,
                "ci_high": cis[name].high,
            }
            for name in ("a", "b", "c", "d")
        },
        "sigma2": {
            "estimate": est.sigma2_hat,
            "ci_low": sigma_ci.low,
            "ci_high": sigma_ci.high,
        },
        "rho": (
            {"estimate": est.rho_hat, "ci_low": rho_ci.low, "ci_high": rho_ci.high}
            if est.rho_hat is not None and rho_ci is not None
            else {"estimate": None, "reason": est.rho_absent_reason}
        ),
        "wald": tests,
        "growth_rate": _growth_rate_section(tree.mask, args.level),
        "regularized": est.regularized,
        "warnings": warnings,
    }
    text = io.dump_report(report, args.output)
    if args.output is None:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_gw(args) -> int:
    mask = io.parse_mask(args.input)
    report = {
        "schema": io.REPORT_SCHEMA,
        "kind": "gw",
        "input": str(args.input),
        "depth": mask.depth,
        "root_type": mask.root_type,
        "counts": {
            "observed": mask.total_count(mask.depth),
            "per_generation": mask.counts.sum(axis=1).tolist(),
            "by_type": mask.counts.tolist(),
        },
        "extinct_by_depth": mask.generation_count(mask.depth) == 0,
        "growth_rate": _growth_rate_section(mask, args.level),
    }
    text = io.dump_report(report, args.output)
    if args.output is None:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg, checks = io.load_mc_config(args.config)
    reports = mc.run_checks(cfg, checks)
    doc = {
        "schema": io.REPORT_SCHEMA,
        "kind": "verify",
        "config_path": str(args.config),
        "passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    text = io.dump_report(doc, args.output)
    if args.output is None:
        sys.stdout.write(text)
    if args.replicate_csv:
        io.write_replicate_csv(reports, args.replicate_csv)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "gw": _cmd_gw,
    "verify": _cmd_verify,
}


def run_cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # a missing or unreadable path, or a directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # a run too large for the memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
