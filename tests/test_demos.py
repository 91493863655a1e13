"""Smoke test: every script in demos/ runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def finished():
    """Exit code and stderr of each demo; the demos are independent, so
    they all start at once."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    procs = {demo: subprocess.Popen([sys.executable, str(demo)], cwd=ROOT, env=env,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                    text=True)
             for demo in DEMOS}
    try:
        return {demo: (proc.communicate(timeout=300)[1], proc.returncode)
                for demo, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, finished):
    stderr, code = finished[demo]
    assert code == 0, stderr
