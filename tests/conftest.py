"""Shared test setup."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import itmflow
from itmflow import StepControl


@pytest.fixture
def tight_control():
    """Step control tight enough to serve as a finite-difference oracle base."""
    return StepControl(abs_tol=1e-11, rel_tol=1e-11)


@pytest.fixture
def fresh_python():
    """Run ``python -c code *args`` in a new interpreter that imports this itmflow.

    Returns the completed process, with stdout and stderr as text.
    """
    src = str(Path(itmflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(code, *args):
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    return run
