"""Smoke test of the short demos: each runs as a program and exits cleanly.

Demos 03 and 04 take 13-18 s each and are left out of this suite.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lidartrack

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_consistency_identity.py", "02_joint_rescue.py"])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(Path(lidartrack.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
