"""Reports of fixed requests, byte for byte.

Each case is a request and the report file under tests/golden/ that
`render_report(run_request(...))` must reproduce exactly.  After a stated
change to the report schema, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from gradix import jsonio
from gradix.catalog import octonions
from gradix.fields import prime_field

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


def _algebra_json(field, dim, unit, mult, **extra) -> dict:
    return {"field": field, "dim": dim, "unit": [str(c) for c in unit],
            "mult": [{"i": i, "j": j, "k": k, "c": str(c)}
                     for i, j, k, c in mult], **extra}


Q = {"kind": "Q"}


def _unit_products(dim: int) -> list:
    """e_0 e_x = e_x e_0 = e_x, for a basis whose e_0 is the unit."""
    return [(0, x, x, 1) for x in range(dim)] + [(x, 0, x, 1) for x in range(1, dim)]


def _q_quaternions() -> str:
    """The quaternion algebra (-1/2, 3/5) over Q, i^2 = -1/2, j^2 = 3/5,
    k = i j, as the Cayley double of Q(i) with mu = 3/5, with its
    conjugation: associative, so every nucleus is all of it, and the
    reduction mod P does not settle them."""
    a, b = "-1/2", "3/5"
    mult = _unit_products(4) + [
        (1, 1, 0, a), (2, 2, 0, b), (3, 3, 0, "3/10"),
        (1, 2, 3, 1), (2, 1, 3, -1), (1, 3, 2, a), (3, 1, 2, "1/2"),
        (2, 3, 1, "-3/5"), (3, 2, 1, b)]
    conj = [[str(int(r == c) * (1 if r == 0 else -1)) for c in range(4)]
            for r in range(4)]
    return json.dumps({"kind": "algebra", "payload": _algebra_json(
        Q, 4, [1, 0, 0, 0], mult, involution=conj,
        labels=["1", "i", "j", "k"])})


def _q_skew() -> str:
    """1, x, y with x y = P x (P = 33554393, the prime of the reduction),
    every other product of x and y zero: associative and commutative mod
    P, neither over Q, whose nuclei have ranks 2, 2, 2 and the nucleus,
    commuter and center rank 1."""
    mult = _unit_products(3) + [(1, 2, 1, 33554393)]
    return json.dumps({"kind": "algebra",
                       "payload": _algebra_json(Q, 3, [1, 0, 0], mult)})


def _q_matrices_c2() -> str:
    """M_2(Q) on the basis E11, 2 E12, E21 / 3, E22, graded by C2 with the
    off-diagonal units in degree 1."""
    mult = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 3, 1, 1), (2, 0, 2, 1),
            (3, 2, 2, 1), (3, 3, 3, 1), (1, 2, 0, "2/3"), (2, 1, 3, "2/3")]
    return json.dumps({"kind": "graded", "payload": {
        "algebra": _algebra_json(Q, 4, [1, 0, 0, 1], mult),
        "gradation": {"group": "C2", "degrees": [0, 1, 1, 0]}}})


def _q_product_swap_c2() -> str:
    """Q x Q x| C2 with sigma the swap and alpha(1, 1) = -1/2."""
    ident, swap = [["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]
    one, half = ["1", "1"], ["-1/2", "-1/2"]
    return json.dumps({"kind": "crossed", "payload": {
        "T": _algebra_json(Q, 2, [1, 1], [(0, 0, 0, 1), (1, 1, 1, 1)]),
        "G": {"table": [[0, 1], [1, 0]]},
        "sigma": [ident, swap],
        "alpha": [[one, one], [one, half]]}})


def _octonions_c2() -> str:
    """O x| C2 over F_3 with the trivial system (sigma = id, alpha = 1), O
    the octonions of `catalog.octonions`: a product that is not associative,
    whose center solve runs the nuclear slots on its rank-2 commuter."""
    o = octonions(prime_field(3))[0]
    mult = [(i, j, k, int(o._np_tensor[i, j, k]))
            for i, j, k in np.argwhere(o._np_tensor).tolist()]
    ident = [[str(int(r == c)) for c in range(8)] for r in range(8)]
    one = [str(c) for c in o.unit]
    return json.dumps({"kind": "crossed", "payload": {
        "T": _algebra_json({"kind": "Fp", "p": 3}, 8, o.unit, mult),
        "G": {"table": [[0, 1], [1, 0]]},
        "sigma": [ident, ident],
        "alpha": [[one, one], [one, one]]}})


CASES = {
    "crossed_f9_c2": ("crossed", (ROOT / "sample_requests"
                                  / "crossed_f9_c2.json").read_text()),
    "crossed_h_c4_sign": ("crossed", _quaternions_c4_sign()),
    "crossed_octonions_c2": ("crossed", _octonions_c2()),
    "group_algebra_z2": ("graded", (ROOT / "sample_requests"
                                    / "group_algebra_z2.json").read_text()),
    "laurent_f4_frobenius": ("laurent", (ROOT / "sample_requests"
                                         / "laurent_f4_frobenius.json").read_text()),
    "laurent_f9_frobenius_rank2": ("laurent", _f9_frobenius_rank2()),
    "tower_f3": ("cayley-tower", (ROOT / "sample_requests"
                                  / "tower_f3.json").read_text()),
    "tower_f3_sedenions": ("cayley-tower", json.dumps(
        {"field": {"kind": "Fp", "p": 3}, "mus": ["-1", "-1", "-1", "-1"]})),
    "q_matrices_c2": ("graded", _q_matrices_c2()),
    "q_product_swap_c2": ("crossed", _q_product_swap_c2()),
    "q_quaternions": ("algebra", _q_quaternions()),
    "q_skew": ("algebra", _q_skew()),
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
