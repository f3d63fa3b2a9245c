"""The demos run to completion, each from a copy of demos/ and scenarios/,
so their output/ directory is written outside the source tree."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import swarmform

from conftest import REPO, SCENARIOS

DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_every_demo_exits_0(tmp_path):
    shutil.copytree(REPO / "demos", tmp_path / "demos", ignore=shutil.ignore_patterns("output"))
    shutil.copytree(SCENARIOS, tmp_path / "scenarios")
    # the children import the package this process imported, installed or not
    path = os.pathsep.join([str(Path(swarmform.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    # the demos run concurrently: the four take about 5 s in a row
    procs = {demo.name: subprocess.Popen([sys.executable, tmp_path / "demos" / demo.name],
                                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                         env=env, cwd=tmp_path)
             for demo in DEMOS}
    try:
        outs = {name: proc.communicate(timeout=300)[0] for name, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()  # after a timeout; a finished process is left as it is
    failed = {name: out.decode() for name, out in outs.items() if procs[name].returncode}
    assert DEMOS and failed == {}
    assert (tmp_path / "demos" / "output").is_dir()
