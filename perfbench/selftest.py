#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

It checks BENCHMARK.json against the benchmark contract, runs every
workload in smoke mode with tracing off and on, and asserts that

* each run exits 0 with a correct result whose last line has exactly the
  keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
* the metric names and units printed equal those in BENCHMARK.json for the
  mode, and every name the run records uses only ``[A-Za-z0-9_.-]``;
* in a traced run, layer self times plus ``unattributed_s`` add up to the
  traced wall time;
* in a directory holding only BENCHMARK.json and the benchmark's files, the
  command exits non-zero without printing a result.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_spec(spec: dict) -> list[str]:
    """Contract limits on BENCHMARK.json."""
    errors = []

    def need(cond, text):
        if not cond:
            errors.append(text)

    need(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
         f"BENCHMARK.json keys {sorted(spec)}")
    cmd = spec["command"]
    need(isinstance(cmd, list) and 1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd),
         "command must be a list of at most 32 strings of at most 200 characters")
    need(not any(c.startswith("/") or ".." in c.split("/") for c in cmd), "command leaves the repository")
    paths = spec["paths"]
    need(1 <= len(paths) <= 16 and all(PATH.match(p) and ".." not in p.split("/") for p in paths),
         f"bad paths {paths}")
    need(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds out of range")
    need(2 <= len(spec["workloads"]) <= 8, "need 2 to 8 workloads")
    need(1 <= len(spec["end_to_end"]) <= 16, "need 1 to 16 end-to-end metrics")
    need(1 <= len(spec["per_layer"]) <= 128, "need 1 to 128 per-layer metrics")
    names = []
    for w in spec["workloads"]:
        need(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        need(NAME.match(w["name"]) is not None, f"workload name {w['name']!r}")
        need(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']} too long")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        need(set(m) == {"name", "unit", "better", "bound"}, f"end-to-end keys {sorted(m)}")
        need(0 < m["bound"] <= 0.25, f"bound of {m['name']} out of range")
    for m in spec["per_layer"]:
        need(set(m) == {"name", "unit", "better"}, f"per-layer keys {sorted(m)}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        need(NAME.match(m["name"]) is not None, f"metric name {m['name']!r}")
        need(UNIT.match(m["unit"]) is not None, f"unit {m['unit']!r}")
        need(m["better"] in ("lower", "higher"), f"better of {m['name']}")
        names.append(m["name"])
    need(len(names) == len(set(names)), "names must be unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    need(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
         and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
         "setup_s must be present, in s, lower-is-better, with the largest bound")
    need(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json larger than 64 KiB")
    return errors


def run(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    argv = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace), "--smoke"]
    proc = run(argv, ROOT)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-3000:]}"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(last)}")
    if last["correct"] is not True or last["failed"] != 0 or last["attempted"] < 1:
        errors.append(f"{where}: result {last['correct']}, {last['failed']} of {last['attempted']} failed")
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    printed = {k: v["unit"] for k, v in last["metrics"].items()}
    if printed != wanted:
        errors.append(f"{where}: printed metrics {printed} differ from BENCHMARK.json {wanted}")
    for name, value in last["metrics"].items():
        if not (isinstance(value["value"], (int, float)) and math.isfinite(value["value"])):
            errors.append(f"{where}: {name} = {value['value']}")
    result_line = next(line for line in proc.stdout.splitlines() if line.startswith("# result file: "))
    result = json.loads((ROOT / result_line.removeprefix("# result file: ")).read_text())
    errors.extend(f"{where}: recorded metric name {n!r}" for n in result["metrics"] if not NAME.match(n))
    env = result["environment"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "blas_threads", "BARTREE_THREADS",
                "git_commit", "source_sha256"):
        if key not in env:
            errors.append(f"{where}: environment lacks {key}")
    if trace == 1:
        gap = result["metrics"]["trace.identity_error_s"]["median"]
        if gap > 1e-9 * max(result["metrics"]["trace.wall_s"]["median"], 1.0):
            errors.append(f"{where}: layer self times + unattributed miss the traced wall by {gap} s")
    return errors


def check_bare(spec: dict) -> list[str]:
    """Without the program's sources the command must fail without a result."""
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                      "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, last line {lines[-1:] if lines else None}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, w["name"], trace)
            print(f"{w['name']} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors.extend(found)
    errors.extend(check_bare(spec))
    for e in errors:
        print(f"FAIL: {e}")
    print("selftest:", "ok" if not errors else f"{len(errors)} failures")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
