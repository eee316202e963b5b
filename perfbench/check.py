"""Answer checker, run after the timed loop.

It compares decision fields only, never report bytes, so a stated schema
change or a randomized verdict made exact does not count as a failure:

- each verdict and center rank against the reference table of ref.py;
- gradix's own cross-checks: tower stages `consistent` and criterion equal
  to brute force, crossed `centers_match` and `agree`, graded
  `simplicity_equivalence.consistent`;
- every witness of non-simplicity spans a proper nonzero ideal under
  `gradix.algebra.ideal_closure` (closed under the notion's extra maps).
"""

from __future__ import annotations

from gradix.algebra import ideal_closure
from gradix.catalog import field_algebra
from gradix.cayley import cayley_double
from gradix.crossed import build_crossed_product
from gradix.jsonio import parse_algebra, parse_crossed, parse_field

import ref


def _proper(alg, maps, witness) -> bool:
    vec = [alg.field.coerce(c) for c in witness]
    if not any(vec):
        return False
    return 0 < ideal_closure(alg, [vec], maps).rank < alg.dim


def _matrices(alg, rows_list):
    return [tuple(tuple(alg.field.coerce(c) for c in row) for row in m)
            for m in rows_list]


class _Checker:
    def __init__(self):
        self.problems: list[str] = []

    def expect(self, what, got, want):
        """want None: the reference could not decide; got None: gradix left
        a question it should answer undecided."""
        if want is not None and got != want:
            self.problems.append(f"{what}: got {got}, expected {want}")

    def true(self, what, value):
        if value is not True:
            self.problems.append(f"{what} is {value}")

    def witness(self, what, verdict, build):
        """build() gives the algebra and extra maps the witness lives under."""
        if verdict.get("simple") is False:
            w = verdict.get("witness")
            if w is None or not _proper(*build(), w):
                self.problems.append(f"{what} witness does not span a proper ideal")


def _algebra_block(c, payload, r, exp):
    c.expect("center rank", r["subspaces"]["center"]["rank"], exp["center_rank"])
    c.expect("simple", r["simplicity"]["simple"], exp["simple"])
    c.witness("simplicity", r["simplicity"], lambda: (parse_algebra(payload), ()))


def _crossed(c, payload, r, exp):
    c.true("centers_match", r["centers_match"])
    c.true("agree", r["agree"])
    c.expect("center rank", r["center"]["rank"], exp["center_rank"])
    c.expect("fixed center rank", r["fixed_center"]["rank"], exp["fixed_center_rank"])
    c.expect("G-simple", r["g_simple"]["simple"], exp["g_simple"])
    c.expect("graded simple", r["graded_simplicity"]["simple"], exp["graded_simple"])
    t = parse_algebra(payload["T"])
    c.witness("G-simplicity", r["g_simple"],
              lambda: (t, _matrices(t, payload["sigma"])))
    c.witness("graded simplicity", r["graded_simplicity"],
              lambda: (build_crossed_product(parse_crossed(payload))[0], ()))


def _laurent(c, payload, r, exp):
    c.expect("simple", r["simple"], exp["simple"])
    c.expect("sigma-simple", r["sigma_simple"], exp["sigma_simple"])
    c.expect("fixed center rank", r["center_structure"]["fixed_center"]["rank"],
             exp["fixed_center_rank"])
    if r["sigma_simple"] is False:
        t = parse_algebra(payload["T"])
        c.witness("sigma-simplicity", {"simple": False, "witness": r["sigma_witness"]},
                  lambda: (t, _matrices(t, payload["sigma"])))


def _tower(c, payload, r, exp):
    field = parse_field(payload["field"])
    mus = payload["mus"]
    stages = [field_algebra(field)]

    def stage(k):
        while len(stages) <= k:
            stages.append(cayley_double(stages[-1], field.coerce(mus[len(stages) - 1]))[0])
        return stages[k]

    for k, st in enumerate(r["stages"][1:], start=1):
        rep = st["report"]
        c.true(f"stage {k} consistent", rep["consistent"])
        c.expect(f"stage {k - 1} center is a field", rep["center_is_field"],
                 exp["stage_center_field"][k - 1])
        c.witness(f"stage {k - 1} star-simplicity", rep["star_simple"],
                  lambda k=k: (stage(k - 1), (stage(k - 1).involution,)))
        c.witness(f"stage {k} brute simplicity",
                  {"simple": rep["brute_simple"], "witness": rep["brute_witness"]},
                  lambda k=k: (stage(k), ()))
    if r["final_brute_simple"] is not None:
        c.expect("final criterion vs brute", r["final_criterion_simple"],
                 r["final_brute_simple"])
    c.expect("final simple", r["final_criterion_simple"], exp["simple"])


def problems(doc: dict, report: dict) -> list[str]:
    """Everything wrong with one report of the request doc."""
    c = _Checker()
    exp = ref.expected(doc)
    kind, payload, r = doc["kind"], doc["payload"], report["report"]
    if report.get("kind") != kind:
        return [f"report kind {report.get('kind')!r} for a {kind} request"]
    if kind == "algebra":
        _algebra_block(c, payload, r, exp)
    elif kind == "graded":
        _algebra_block(c, payload["algebra"], r, exp)
        gs = r["gradation"]["graded_simplicity"]
        c.expect("graded simple", gs["simple"], exp["graded_simple"])
        c.witness("graded simplicity", gs,
                  lambda: (parse_algebra(payload["algebra"]), ()))
        c.true("simplicity equivalence consistent",
               r["simplicity_equivalence"]["consistent"])
    elif kind == "crossed":
        _crossed(c, payload, r, exp)
    elif kind == "laurent":
        _laurent(c, payload, r, exp)
    else:
        _tower(c, payload, r, exp)
    return c.problems
