"""The package's public names and what importing them loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import bartree


def test_every_exported_name_resolves():
    missing = [name for name in bartree.__all__ if not hasattr(bartree, name)]
    assert not missing, f"bartree.__all__ names what the package lacks: {missing}"
    assert len(set(bartree.__all__)) == len(bartree.__all__)


def test_import_loads_no_process_pool(tmp_path):
    # multiprocessing takes tens of milliseconds to import; verify forks its
    # own workers, so no command loads it, a verify split among forked
    # children included
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps({
        "schema": "bartree-mc-v1",
        "model": {
            "bar": {"a": 0.5, "b": 0.3, "c": -0.4, "d": 0.7},
            "noise": {"sigma2": 1.0, "rho": 0.5},
            "law": {"type0": {"00": 0.06, "10": 0.54, "01": 0.04, "11": 0.36},
                    "type1": {"00": 0.14, "10": 0.06, "01": 0.56, "11": 0.24}},
        },
        "depths": [5], "replicates": 30, "seed": 21, "checks": ["qsl"],
    }))
    code = """
import os, sys
import bartree, bartree.cli
from bartree import mc

pool = {'concurrent.futures', 'multiprocessing'}
print(sorted(pool & set(sys.modules)))
fork, children = os.fork, []

def spy():
    pid = fork()
    children.append(pid)
    return pid

os.fork, mc.BLOCK_CELLS = spy, 150
assert bartree.cli.run_cli(['verify', '--config', sys.argv[1], '--output', sys.argv[2]]) == 0
print(len(children), sorted(pool & set(sys.modules)))
"""
    path = [str(Path(bartree.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), BARTREE_THREADS="2")
    out = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "r.json")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "1 []"]
