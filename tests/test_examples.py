"""Every example script runs to completion against the current API."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "buffer_comparison",
    "fault_tolerance_demo",
    "multi_gpu_scaling",
    "online_vs_offline",
    "quickstart",
])
def test_example_runs(name):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    completed = subprocess.run(
        [sys.executable, str(REPO / "examples" / f"{name}.py")],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
