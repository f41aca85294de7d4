"""The package's public names and what importing them loads."""

import os
import subprocess
import sys
from pathlib import Path

import bartree


def test_every_exported_name_resolves():
    missing = [name for name in bartree.__all__ if not hasattr(bartree, name)]
    assert not missing, f"bartree.__all__ names what the package lacks: {missing}"
    assert len(set(bartree.__all__)) == len(bartree.__all__)


def test_import_loads_no_process_pool():
    # multiprocessing takes tens of milliseconds to import; only a pooled
    # Monte Carlo run needs it, so every other command starts without it
    code = ("import sys, bartree, bartree.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    path = [str(Path(bartree.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
