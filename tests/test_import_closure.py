"""A figure run imports only the simulator.

Every ``repro figure`` run and benchmark sample starts a fresh
interpreter and pays for whatever ``import repro`` pulls in. The
package roots therefore re-export only what a run needs: the static
analyzer is imported where it is used, nothing in the package imports
numpy, and nothing loads asyncio, ``http.server``, ssl or
``concurrent.futures`` (the fork pool imports it when a batch uses it).

Each import runs in a fresh subprocess, because this process has
everything loaded already.
"""

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
    "concurrent.futures",
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

