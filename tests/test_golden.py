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


def _quaternions_c4_sign() -> str:
    """H x| C4 over F_3: sigma_g is conjugation by i for odd g, and
    alpha(g, h) = -1 exactly when g and h are both odd."""
    mult = [(0, x, x, 1) for x in range(4)] + [(x, 0, x, 1) for x in range(1, 4)]
    mult += [(x, x, 0, -1) for x in range(1, 4)]
    for x, y, z in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        mult += [(x, y, z, 1), (y, x, z, -1)]
    twist = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    ident = [[int(r == c) for c in range(4)] for r in range(4)]
    return json.dumps({
        "T": {"field": {"kind": "Fp", "p": 3}, "dim": 4,
              "unit": ["1", "0", "0", "0"],
              "mult": [{"i": i, "j": j, "k": k, "c": str(c)}
                       for i, j, k, c in mult]},
        "G": {"table": [[(a + b) % 4 for b in range(4)] for a in range(4)]},
        "sigma": [[[str(c) for c in row] for row in (twist if g % 2 else ident)]
                  for g in range(4)],
        "alpha": [[["-1" if g % 2 and h % 2 else "1", "0", "0", "0"]
                   for h in range(4)] for g in range(4)]})


def _f9_frobenius_rank2() -> str:
    """F_9[x^pm1, y^pm1; frob, frob] over F_3 = F_3[i], i^2 = -1, with a
    window wider than the orders (2, 2) on both axes."""
    return json.dumps({
        "kind": "laurent",
        "payload": {
            "T": {"field": {"kind": "Fp", "p": 3}, "dim": 2,
                  "unit": ["1", "0"],
                  "mult": [{"i": i, "j": j, "k": k, "c": c} for i, j, k, c in
                           ((0, 0, 0, "1"), (0, 1, 1, "1"), (1, 0, 1, "1"),
                            (1, 1, 0, "-1"))]},
            "n": 2,
            "sigma": [[["1", "0"], ["0", "-1"]]] * 2},
        "options": {"window": [[-3, 2], [-1, 3]]}})


CASES = {
    "crossed_f9_c2": ("crossed", (ROOT / "sample_requests"
                                  / "crossed_f9_c2.json").read_text()),
    "crossed_h_c4_sign": ("crossed", _quaternions_c4_sign()),
    "group_algebra_z2": ("graded", (ROOT / "sample_requests"
                                    / "group_algebra_z2.json").read_text()),
    "laurent_f4_frobenius": ("laurent", (ROOT / "sample_requests"
                                         / "laurent_f4_frobenius.json").read_text()),
    "laurent_f9_frobenius_rank2": ("laurent", _f9_frobenius_rank2()),
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
