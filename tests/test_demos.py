"""Each demo script runs to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """Start all demos at once, so their interpreter start-ups overlap; each
    test then waits for its own."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cwd = tmp_path_factory.mktemp("demos")
    procs = {demo: subprocess.Popen([sys.executable, str(demo)], cwd=cwd, env=env,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for demo in DEMOS}
    yield procs
    for proc in procs.values():
        proc.kill()
        proc.communicate()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo, demo_runs):
    proc = demo_runs[demo]
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
