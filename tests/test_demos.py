"""Smoke test of the demos: each runs as a program and exits cleanly.

Demo 04 takes 13-18 s and is left out of this suite.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lidartrack

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(Path(lidartrack.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", ["01_consistency_identity.py", "02_joint_rescue.py"])
def test_demo_runs(name):
    run_demo(name)


def test_tracking_modes_demo():
    # frame-by-frame stops at the first depth-flow outage; the other modes bridge both
    out = run_demo("03_tracking_modes.py")
    assert "\nframe_by_frame   interrupted at frame 20 " in out
    assert "\nloose_coupled    complete " in out
    assert "\nmulti_view       complete " in out
