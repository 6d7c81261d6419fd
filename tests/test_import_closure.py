"""A figure run imports only the simulator.

Every ``repro figure`` run, registered cluster worker and benchmark
sample starts a fresh interpreter and pays for whatever ``import repro``
pulls in. The package roots therefore re-export only what a local run
needs: the cluster, wire and worker modules (asyncio, sockets), the
scrape server (``http.server``, ssl), the ``repro bench`` scenarios, the
static analyzer and numpy are each imported where they are used.

Each import runs in a fresh subprocess, because this process has
everything loaded already.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules no figure run executes.
NOT_ON_THE_FIGURE_PATH = (
    "numpy",
    "asyncio",
    "ssl",
    "http.server",
    "repro.exec.cluster",
    "repro.exec.worker",
    "repro.exec.wire",
    "repro.exec.bench",
    "repro.obs.scrape",
    "repro.lint",
)


def run_fresh(statements: str) -> str:
    """Run ``statements`` in a new interpreter with ``src`` on the path;
    return its standard output."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])))
    return subprocess.run(
        [sys.executable, "-c", statements], env=env, check=True,
        capture_output=True, text=True, timeout=120).stdout


def modules_loaded_by(statement: str) -> set:
    """Modules ``statement`` adds to ``sys.modules`` in a fresh process."""
    out = run_fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))")
    return set(json.loads(out))


@pytest.mark.parametrize("module", ["repro", "repro.analysis.figures",
                                    "repro.cli"])
def test_import_loads_only_the_simulator(module):
    loaded = modules_loaded_by(f"import {module}")
    assert module in loaded
    assert sorted(loaded.intersection(NOT_ON_THE_FIGURE_PATH)) == []


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None,
                    reason="numpy not installed")
def test_auto_kernel_still_picks_numpy():
    # The deferred import must still find numpy on first use, not fall
    # back to the pure-Python kernel.
    out = run_fresh("from repro.sim.kernels import resolve_kernel\n"
                    "print(resolve_kernel('auto').name)")
    assert out.strip() == "numpy"
