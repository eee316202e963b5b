"""The scripts under scripts/ run with the arguments the README gives them.

tower_survey.py asserts the doubling criterion of the reporting tower
against brute-force simplicity itself, so exit 0 means they agree.
report_digests.py, at its default seeds and rounds, prints the digests of
tests/golden/report_digests.json: the benchmark's requests render the same
reports byte for byte.  A stated change of the report schema, or a change
of perfbench/gen.py, regenerates that file with
`python scripts/report_digests.py > tests/golden/report_digests.json`."""

import json
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
    assert run_script(argv).strip()


def run_script(argv):
    """The standard output of one script, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_report_digests_match_the_golden():
    golden = ROOT / "tests" / "golden" / "report_digests.json"
    assert (json.loads(run_script(["report_digests.py"]))
            == json.loads(golden.read_text()))
