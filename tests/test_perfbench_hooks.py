"""The benchmark's hooks into bartree.

``perfbench/tracing.py`` wraps bartree functions it names as strings and
counts simulated cells from what ``bar.simulate_joint`` returns, and
``perfbench/workloads.py`` drives bartree's public API.  These tests load
both files as they are, so a rename, a deleted attribute or a changed
return type in bartree fails here instead of in a benchmark run.  The
smoke passes must also reproduce the output digests of the benchmark's
self-test, so a change that moves an output bit fails here too.
"""

import importlib
import importlib.util
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import bartree.cli  # noqa: F401  (loads every bartree module the tracer patches)
from bartree import BarParams, NoiseParams, ReproductionLaw, bar

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_tracer_targets_resolve(tracing):
    for module, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(f"bartree.{module}")
        if "." in attr:  # a method is patched in its own class's namespace
            cls_name, meth = attr.split(".")
            owner = getattr(owner, cls_name)
            assert meth in vars(owner), (module, attr)
            attr = meth
        assert callable(getattr(owner, attr)), (module, attr)


@pytest.mark.parametrize("seed", [5, [5, 6, 7]])
def test_simulate_joint_feeds_the_cell_counter(tracing, seed):
    tree = bar.simulate_joint(
        BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5),
        ReproductionLaw.full_observation(), 4, seed=seed,
    )
    counts = defaultdict(int)
    tracing.COUNTERS["bar.simulate_joint"](counts, (), {}, tree)
    trees = len(seed) if isinstance(seed, list) else 1
    assert tree.depth == 4
    assert counts["bar.cells_simulated"] == tree.mask.total_count(tree.depth) == 31 * trees


def test_tracer_installs_and_restores(tracing):
    original = bar.simulate_joint
    tracer = tracing.Tracer(keep_spans=False)
    tracer.install()
    try:
        tracer.begin()
        bartree.bar.simulate_joint(
            BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.0),
            ReproductionLaw.full_observation(), 3, seed=[1, 2],
        )
        result = tracer.end(1.0)
    finally:
        tracer.uninstall()
    assert bar.simulate_joint is original
    assert result["counts"]["bar.cells_simulated"] == 30
    assert result["calls"]["bar.simulate_joint"] == 1


@pytest.mark.parametrize("name", ["mc_missing", "mc_full", "deep_full", "cli_dense"])
def test_workload_smoke_pass(workloads, name, tmp_path, monkeypatch):
    monkeypatch.setenv("BARTREE_THREADS", "1")
    workload = workloads.make(name, 1, True, tmp_path)
    workload.setup()
    out = workload.run()
    assert workload.check(out) == []


# the self-test's seed-7 smoke digests (``perfbench/run.py --seed 7 --smoke``);
# a change that moves output bits updates them and declares the move
SMOKE_DIGESTS = {
    "mc_missing": "004e37cbf711efc58b331b1f7a0cd9db555c7bc56a72419e13ebea72f2bb2f43",
    "mc_full": "f09c887b5c07a4617c53322dc154ad703ce17fb3d3f573b3bc8977fa41a27edd",
    "deep_full": "086d461d92e8ffee97a8285e9cc29b500fbd7f2f5352abe321104da3e42ed811",
    "cli_dense": "ade57d07ffbfaea2c33ee719938b728986e06a7c90203a048165bc41486173fc",
}


@pytest.mark.parametrize("name", sorted(SMOKE_DIGESTS))
def test_smoke_digests_repeat(workloads, name, tmp_path, monkeypatch):
    # the mc reports embed the config path, so the workdir is the relative
    # one the benchmark uses, under a fresh working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BARTREE_THREADS", "1")
    workload = workloads.make(name, 7, True, Path(".bench_out") / f"work-{name}")
    workload.setup()
    digest = workload.digest(workload.run())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert digest == SMOKE_DIGESTS[name], (
        f"{name}: smoke digest {digest}, expected {SMOKE_DIGESTS[name]} "
        f"(numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')})"
    )
