"""Smoke test: the demos run to completion against the current package.

04_recency_sweep replays a full recency grid, which takes tens of
seconds at its default scale, so it runs here at a twentieth of it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_ARGS = {"04_recency_sweep.py": ["0.05"]}


@pytest.mark.parametrize("demo", [
    "01_sketch_accuracy.py",
    "02_two_level_walkthrough.py",
    "03_policy_comparison.py",
    "04_recency_sweep.py",
    "05_trace_files.py",
])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), *DEMO_ARGS.get(demo, [])],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
