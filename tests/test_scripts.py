"""The scripts under scripts/ run with the arguments the README gives them.

tower_survey.py asserts the doubling criterion of the reporting tower
against brute-force simplicity itself, so exit 0 means they agree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["tower_survey.py", "--p", "3", "--length", "3"],
    ["crossed_center_explorer.py", "--p", "3"],
    ["laurent_witness_scan.py", "--p", "2", "--window", "4"],
])
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
