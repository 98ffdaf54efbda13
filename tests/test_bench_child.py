"""The benchmark's traced child process on the workload scenes.

``perfbench/child.py`` with tracing on wraps the package's functions by
name and runs one command; a name it binds that the package renames or
deletes must not cost a traced run its result.  Coverage depends on the
host, so nothing here reads it.
"""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import scene_path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def traced(tmp_path, *argv) -> dict:
    """The result file of one traced child run of ``whitney argv``, which
    must exit 0; the child finds the package itself, without PYTHONPATH."""
    out = tmp_path / f"{argv[0]}.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(out), repr(time.monotonic()), "1",
         "--", *map(str, argv)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


@pytest.mark.parametrize("name", ["halfline", "parabola", "square"])
def test_traced_child_runs_extend_and_verify(tmp_path, name):
    scene, run_dir = scene_path(name), tmp_path / "run"
    extend = traced(tmp_path, "extend", scene, "-o", run_dir, "--seed", 1)
    assert extend["rc"] == 0 and "cli.main" in extend["trace"]["names"]
    verify = traced(tmp_path, "verify", scene, run_dir)
    assert verify["rc"] == 0
    assert {"cli.main", "verify.check_extension"} <= set(
        verify["trace"]["names"])
    assert verify["agreement"] and all(
        samples > 0 for _, _, samples in verify["agreement"])
