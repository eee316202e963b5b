"""Reports of fixed requests, byte for byte.

Each case is a request and the report file under tests/golden/ that
`render_report(run_request(...))` must reproduce exactly.  After a stated
change to the report schema, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import json
from pathlib import Path

import pytest

from gradix import jsonio

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    "group_algebra_z2": ("graded", (ROOT / "sample_requests"
                                    / "group_algebra_z2.json").read_text()),
    "laurent_f4_frobenius": ("laurent", (ROOT / "sample_requests"
                                         / "laurent_f4_frobenius.json").read_text()),
    "tower_f3": ("cayley-tower", (ROOT / "sample_requests"
                                  / "tower_f3.json").read_text()),
    "tower_f3_sedenions": ("cayley-tower", json.dumps(
        {"field": {"kind": "Fp", "p": 3}, "mus": ["-1", "-1", "-1", "-1"]})),
}


def render(name: str) -> str:
    kind, text = CASES[name]
    return jsonio.render_report(jsonio.run_request(
        jsonio.wrap_bare_payload(text, kind))) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    assert render(name) == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    for name in CASES:
        (GOLDEN / f"{name}.json").write_text(render(name))
