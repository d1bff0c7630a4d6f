"""The quick demos run to completion against the source tree.

``04_evolve_n7.py`` and ``06_campaigns.py`` are left out: they run full
searches and take tens of seconds each.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

QUICK_DEMOS = [
    "01_properties.py",
    "02_rotation_orbits.py",
    "03_encodings.py",
    "05_local_search_n9.py",
]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
