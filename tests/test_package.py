"""Package surface: the names swarmform exports, and its import graph."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import swarmform

SRC = Path(swarmform.__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (SRC / "swarmform").glob("*.py") if p.stem != "__init__")


def test_every_exported_name_resolves():
    assert [name for name in swarmform.__all__ if not hasattr(swarmform, name)] == []
    namespace = {}
    exec("from swarmform import *", namespace)
    assert set(swarmform.__all__) <= set(namespace)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    """No import cycle, whichever module a caller loads first."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-W", "error", "-c", f"import swarmform.{module}"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
