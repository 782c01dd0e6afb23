"""Smoke test: the narrative demo scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = [
    "01_ground_truth.py",
    "02_loss_family.py",
    "03_gradient_check.py",
    "04_counting.py",
    "05_desk_experiment.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
