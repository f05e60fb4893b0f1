"""Every script under ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import netpolar

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    env = {**os.environ, "PYTHONPATH": str(Path(netpolar.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
