#!/usr/bin/env python3
"""bartree benchmark: end-to-end and per-layer figures for four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload mc_missing --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` adds traced passes whose spans give per-layer self times and
exact counts.  Every pass's outputs are checked; the run exits 1 when a
check fails.  The last stdout line is one JSON object with the metrics
named in BENCHMARK.json for the chosen mode; the lines above it print every
metric with its unit, median, quartiles and sample count, and a result file
under ``.bench_out/`` records them with the environment.

``--smoke`` runs each workload at a tiny size; ``perfbench/selftest.py``
uses it.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".bench_out")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
POOL_THREADS = 2      # BARTREE_THREADS for the timed passes of the pool workloads
SETUP_PROBES = 3      # fresh interpreters timed for setup_s
MIN_TIMED_PASSES = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """One benchmark run: set-up, passes, checks, metrics."""

    def __init__(self, wl, threads, tracer):
        self.wl, self.threads, self.tracer = wl, threads, tracer
        self.passes: list[dict] = []
        self.traced: list[dict] = []
        self.errors: list[str] = []
        self.checked: set[str] = set()
        self.ops = self.failed = 0

    def one_pass(self, threads: int, traced: bool) -> dict | None:
        os.environ["BARTREE_THREADS"] = str(threads)
        kind = f"{'traced' if traced else 'untraced'}@{threads}"
        if traced:
            self.tracer.begin()
            self.tracer.install()
        start = time.perf_counter()
        try:
            out = self.wl.run()
        except Exception:  # a pass that raises is a failed operation, not a crash
            self.errors.append(f"{kind} pass raised:\n{traceback.format_exc()}")
            self.ops += 1
            self.failed += 1
            return None
        finally:
            wall = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
        record = {"kind": kind, "threads": threads, "wall_s": wall, "ops": out.ops,
                  "items": out.items, "phases": out.phases}
        self.ops += out.ops
        self.failed += out.failed
        record["digest"] = self.wl.digest(out)
        if record["digest"] not in self.checked:  # equal bytes pass equal checks
            self.checked.add(record["digest"])
            self.errors.extend(f"{kind} pass: {e}" for e in self.wl.check(out))
        if self.passes and record["digest"] != self.passes[0]["digest"]:
            self.errors.append(f"{kind} pass digest {record['digest']} differs from "
                               f"{self.passes[0]['kind']} pass digest {self.passes[0]['digest']}")
        self.passes.append(record)
        if traced:
            record["trace"] = self.tracer.end(wall)
            self.traced.append(record)
        return record

    def ok(self) -> bool:
        return not self.errors


def setup_probe(args) -> int:
    """Fresh-interpreter set-up measured by the parent: import, inputs, closed form."""
    import workloads

    wl = workloads.make(args.workload, args.seed, args.smoke, OUT / f"probe-{args.workload}")
    wl.setup()
    return 0


def measure_setup(args, probes: int) -> list[float]:
    argv = [sys.executable, str(Path(__file__).relative_to(ROOT)), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    shutil.rmtree(OUT / f"probe-{args.workload}", ignore_errors=True)
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(run: Run, setup_times: list[float], cells: int) -> dict:
    timed = [p for p in run.passes if "trace" not in p and p["threads"] == run.threads]
    metrics = {
        "setup_s": ("s", summary(setup_times)),
        "wall_s": ("s", summary([p["wall_s"] for p in timed])),
        "replicates_per_s": ("1/s", summary([p["items"] / p["wall_s"] for p in timed])),
        "cells_per_s": ("1/s", summary([cells / p["wall_s"] for p in timed])),
        "peak_rss_mb": ("MB", summary([peak_rss_mb()])),
        "failed_ops_ratio": ("ratio", summary([run.failed / max(run.ops, 1)])),
    }
    for key in timed[0]["phases"] if timed else ():
        metrics[key] = ("s", summary([p["phases"][key] for p in timed]))
    return metrics


def per_layer(run: Run, tracing) -> dict:
    """Per-layer figures: medians over the traced passes after the warm-up
    reference pass; counts must repeat exactly in every traced pass."""
    reference = run.traced[0]["trace"]
    traces = [p["trace"] for p in run.traced[1:]]
    first = traces[0]
    for t in traces:
        if t["counts"] != reference["counts"] or t["calls"] != reference["calls"]:
            run.errors.append("exact counts differ between traced passes")
    spans = sorted({name for t in traces for name in t["self_s"]} | set(tracing.span_names()))
    metrics: dict[str, tuple[str, dict]] = {}

    def timing(name, values):
        metrics[name] = ("s", summary(values))

    def count(name, value, unit="count"):
        metrics[name] = (unit, summary([value]))

    for span in spans:
        timing(f"{span}.self_s", [t["self_s"].get(span, 0.0) for t in traces])
        count(f"{span}.calls", first["calls"].get(span, 0))
    for layer in tracing.LAYERS:
        timing(f"{layer}.self_s", [t["layer_self_s"][layer] for t in traces])
    timing("unattributed_s", [t["unattributed_s"] for t in traces])
    timing("trace.wall_s", [t["wall_s"] for t in traces])
    for span in sorted(first["durations"]):
        if span != "mc.replicate":  # the five mc checks
            timing(f"{span}.wall_s", [sum(t["durations"].get(span, [])) for t in traces])

    counts = first["counts"]
    count("bar.cells_simulated", counts.get("bar.cells_simulated", 0))
    count("io.bytes_written", counts.get("io.bytes_written", 0), "B")
    count("io.bytes_read", counts.get("io.bytes_read", 0), "B")
    generations = counts.get("tree_generations", 0)
    calls = first["calls"].get("gw.child_positions", 0)
    count("gw.child_positions.calls_per_generation", calls / generations if generations else 0.0, "ratio")
    io_rows_s = [sum(t["self_s"].get(f"io.{f}", 0.0) for f in
                     ("write_lineage", "parse_lineage", "write_mask", "parse_mask")) for t in traces]
    rows = counts.get("io.rows", 0)
    metrics["io.rows_per_s"] = ("1/s", summary([rows / s if s else 0.0 for s in io_rows_s]))

    reps = first["durations"].get("mc.replicate", [])
    if len(reps) >= 2:
        cuts = statistics.quantiles(reps, n=100)
        timing("mc.replicate_s.p50", [cuts[49]])
        timing("mc.replicate_s.p99", [cuts[98]])
    count("mc.replicate_s.samples", len(reps))

    base = [p["wall_s"] for p in run.passes if "trace" not in p and p["threads"] == 1]
    if run.wl.pool:
        pooled = [p["wall_s"] for p in run.passes if "trace" not in p and p["threads"] == POOL_THREADS]
        count("mc.pool_speedup", statistics.median(base) / statistics.median(pooled), "ratio")
        count("mc.extinct_ratio", run.wl.extinct_ratio(), "ratio")
    count("trace_overhead_ratio",
          statistics.median(t["wall_s"] for t in traces) / statistics.median(base), "ratio")
    # layer self times plus unattributed time must cover each traced wall
    gap = max(abs(sum(t["layer_self_s"].values()) + t["unattributed_s"] - t["wall_s"]) for t in traces)
    count("trace.identity_error_s", gap, "s")
    if gap > 1e-6:
        run.errors.append(f"layer self times miss the traced wall time by {gap} s")
    return metrics


def _digest_store_check(run: Run, key: str, digest: str) -> None:
    """Report digests must repeat across runs of one program on one seed."""
    path = OUT / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    seen = store.get(key)
    if seen is None:
        store[key] = digest
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, path)
    elif seen != digest:
        run.errors.append(f"output digest {digest} differs from {seen} of an earlier run ({key})")


def main(argv=None) -> int:
    args = _parse(argv)
    os.chdir(ROOT)
    if not (Path("src") / "bartree" / "__init__.py").is_file():
        print("error: src/bartree not found; run from a bartree checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, "src")
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    import tracing
    import workloads

    spec = json.loads(Path("BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"error: unknown workload {args.workload!r}; pick from {sorted(why)}", file=sys.stderr)
        return 2
    setup_times = measure_setup(args, 2 if args.smoke else SETUP_PROBES) if args.trace == 0 else []

    workdir = OUT / f"work-{args.workload}"
    wl = workloads.make(args.workload, args.seed, args.smoke, workdir)
    wl.setup()
    threads = POOL_THREADS if wl.pool else 1
    run = Run(wl, threads, tracing.Tracer(keep_spans=args.trace == 1))
    env = workloads.environment(ROOT)

    # The first pass is traced at one worker: it warms up, gives the exact
    # counts and the reference digest that every later pass must reproduce.
    reference = run.one_pass(1, traced=True)
    min_passes = 1 if args.smoke else MIN_TIMED_PASSES
    start = time.perf_counter()
    n = 0
    while run.ok() and (n < min_passes or time.perf_counter() - start < args.seconds):
        run.one_pass(threads, traced=False)
        if args.trace == 1:
            if wl.pool:
                run.one_pass(1, traced=False)
            run.one_pass(1, traced=True)
        n += 1

    metrics: dict[str, tuple[str, dict]] = {}
    if reference is not None and run.ok():
        cells = reference["trace"]["counts"]["bar.cells_simulated"]
        metrics = end_to_end(run, setup_times, cells) if args.trace == 0 else per_layer(run, tracing)
        key = f"{args.workload}|seed={args.seed}|smoke={int(args.smoke)}|src={env['source_sha256']}"
        _digest_store_check(run, key, reference["digest"])

    wanted = spec["end_to_end" if args.trace == 0 else "per_layer"]
    for m in wanted:
        if run.ok() and m["name"] not in metrics:
            run.errors.append(f"metric {m['name']} was not measured")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    if args.trace == 1 and run.traced:
        tracer_path = OUT / f"spans-{tag}.csv.gz"
        run.tracer.write_spans(tracer_path)
    result = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "environment": {**env, "BARTREE_THREADS": {"timed": threads, "reference_and_traced": 1}},
        "inputs": wl.describe(),
        "passes": [{k: v for k, v in p.items() if k != "trace"} for p in run.passes],
        "metrics": {k: {"unit": u, **s} for k, (u, s) in metrics.items()},
        "correct": run.ok(),
        "errors": run.errors,
    }
    result_path = OUT / f"result-{tag}.json"
    result_path.write_text(json.dumps(result, indent=1, default=float))
    shutil.rmtree(workdir, ignore_errors=True)

    print(f"# bartree benchmark: workload={args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print(f"# why: {why[args.workload]}")
    print("# environment: " + json.dumps(result["environment"], sort_keys=True))
    print("# inputs: " + json.dumps(result["inputs"], sort_keys=True))
    for kind in dict.fromkeys(p["kind"] for p in run.passes):
        same = [p for p in run.passes if p["kind"] == kind]
        print(f"# {len(same)} {kind} passes, output digests {sorted({p['digest'] for p in same})}")
    for name, (unit, s) in sorted(metrics.items()):
        print(f"{name} = {s['median']:.9g} {unit} (median; q1 {s['q1']:.9g}, q3 {s['q3']:.9g}, n={s['n']})")
    for e in run.errors:
        print(f"# CHECK FAILED: {e}", file=sys.stderr)
    print(f"# result file: {result_path}")
    final = {
        "correct": run.ok(),
        "attempted": run.ops,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][1]["median"], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(final))
    return 0 if run.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
