"""JSON request parsing and report assembly.

All scalars cross the boundary as decimal strings ("2", "-1/3"); reports are
plain dict trees serialized with sorted keys so identical requests produce
byte-identical output.  Wall-clock timing is attached only when explicitly
requested, for the same reason.
"""

from __future__ import annotations

import json

from . import catalog
from .algebra import (Algebra, SimplicityVerdict, center_is_field,
                      fixed_center, is_associative, is_simple, make_algebra,
                      nucleus_and_center)
from .cayley import DoublingReport, tower
from .crossed import (CrossedSystem, _graded_simplicity, build_crossed_product,
                      crossed_center, is_G_simple, validate_crossed_system)
from .errors import ExactModeUnavailable, ParseError, ValidationError
from .fields import INTEGER, FieldSpec, parse_int, prime_field, rationals
from .graded import (Gradation, is_faithful, is_graded_simple, is_strong,
                     simplicity_equivalence, validate_gradation)
from .groups import FiniteGroup, central_series, validate_group
from .laurent import (LaurentRing, check_window, laurent_center_structure,
                      laurent_simplicity_verdict, make_laurent_ring)
from .linalg import Subspace
from .algebra import subfield_check

KINDS = ("algebra", "graded", "crossed", "laurent", "cayley-tower")

DEFAULT_OPTIONS = {
    "budget": 1_000_000,
    "trials": 1000,
    "seed": 0,
    "window": None,       # laurent center slice, [[lo, hi] per variable]
}

# the kinds on which an option has an effect (trials and seed: the
# randomized verdicts over Q); any other kind that sets one is refused
OPTION_KINDS = {"budget": KINDS, "trials": ("algebra", "graded"),
                "seed": ("algebra", "graded"), "window": ("laurent",)}


# -- parsing ---------------------------------------------------------------------

def _need(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    if key not in obj:
        raise ValidationError(f"{where}: missing field {key!r}")
    return obj[key]


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be a list")
    return value


def _int(value, where: str) -> int:
    """An integer given as a JSON number or as a string of ASCII digits with
    an optional sign (`fields.INTEGER`), around which only `str.strip`
    whitespace may stand; floats, booleans, "1_0", non-ASCII digits and
    anything else are refused."""
    if type(value) is int:
        return value
    if isinstance(value, str) and INTEGER.fullmatch(value.strip()):
        return parse_int(value)
    raise ValidationError(f"{where} must be an integer, got {value!r}")


def _rows(value, where: str) -> list:
    """A list of lists, its scalars left to the constructor to coerce."""
    return [_list(row, where) for row in _list(value, where)]


def merge_options(options, kind: str, base=None, payload=None) -> dict:
    """`base` (DEFAULT_OPTIONS when None) overridden by `options`, every
    value checked: the one validation site for request options, CLI flags
    and the defaults of a bare payload.  An option given explicitly to a
    kind on which it has no effect (`OPTION_KINDS`) is refused, and so are
    trials and seed given to an algebra or graded `payload` over F_p,
    whose verdicts are exact and sample nothing."""
    if not isinstance(options, dict):
        raise ValidationError("options must be an object")
    merged = dict(DEFAULT_OPTIONS if base is None else base)
    for k, v in options.items():
        if k not in DEFAULT_OPTIONS:
            raise ValidationError(f"unknown option {k!r}")
        if v is not None and kind not in OPTION_KINDS[k]:
            raise ValidationError(f"option {k} applies to "
                                  f"{' and '.join(OPTION_KINDS[k])} requests "
                                  f"only, not to {kind}")
        merged[k] = v
    for k in ("budget", "trials"):
        merged[k] = _int(merged[k], f"option {k}")
        if merged[k] <= 0:
            raise ValidationError(f"option {k} must be positive")
    merged["seed"] = _int(merged["seed"], "option seed")
    if merged["window"] is not None:
        merged["window"] = [[_int(b, "option window bound")
                             for b in _list(pair, "option window pair")]
                            for pair in _list(merged["window"], "option window")]
        if any(len(pair) != 2 for pair in merged["window"]):
            raise ValidationError("option window must hold [lo, hi] pairs")
    sampling = [k for k in ("trials", "seed") if options.get(k) is not None]
    if sampling and kind in ("algebra", "graded") and payload is not None:
        alg = (payload if kind == "algebra"
               else _need(payload, "algebra", "graded payload"))
        f = parse_field(_need(alg, "field", "algebra"))
        if f.is_finite:
            raise ValidationError(f"option {sampling[0]} applies to algebra "
                                  "and graded requests over Q only, not over "
                                  f"F_{f.p}")
    return merged


def parse_field(obj) -> FieldSpec:
    kind = _need(obj, "kind", "field")
    if kind == "Q":
        return rationals()
    if kind == "Fp":
        return prime_field(_int(_need(obj, "p", "field"), "field p"))
    raise ValidationError(f"unknown field kind {kind!r}")


def parse_group(obj, budget: int = DEFAULT_OPTIONS["budget"]) -> FiniteGroup:
    """A named group (`catalog.named_group`, refused past the budget) or a
    table, checked by `validate_group`."""
    if isinstance(obj, str):
        return catalog.named_group(obj, budget)
    if not isinstance(obj, dict):
        raise ValidationError("group must be an object or a name")
    table = [[_int(x, "group table entry") for x in _list(row, "group table row")]
             for row in _list(_need(obj, "table", "group"), "group table")]
    labels = obj.get("elements")
    identity = obj.get("identity")
    if identity is not None:
        identity = _int(identity, "group identity")
    return validate_group(table, identity=identity,
                          labels=None if labels is None
                          else _list(labels, "group elements"))


def parse_algebra(obj) -> Algebra:
    f = parse_field(_need(obj, "field", "algebra"))
    dim = _int(_need(obj, "dim", "algebra"), "algebra dim")
    unit = _list(_need(obj, "unit", "algebra"), "algebra unit")
    entries = []
    for e in _list(_need(obj, "mult", "algebra"), "algebra mult"):
        entries.append([_int(_need(e, key, "mult entry"), "mult entry index")
                        for key in "ijk"] + [_need(e, "c", "mult entry")])
    invol = obj.get("involution")
    if invol is not None:
        invol = _rows(invol, "algebra involution")
    labels = obj.get("labels")
    if labels is not None:
        labels = tuple(str(s) for s in _list(labels, "algebra labels"))
    return make_algebra(f, dim, entries, unit, involution=invol, labels=labels)


def parse_gradation(alg: Algebra, obj,
                    budget: int = DEFAULT_OPTIONS["budget"]) -> Gradation:
    group = parse_group(_need(obj, "group", "gradation"), budget)
    degrees = [_int(d, "gradation degree")
               for d in _list(_need(obj, "degrees", "gradation"), "gradation degrees")]
    return validate_gradation(alg, group, degrees)


def parse_crossed(obj, budget: int = DEFAULT_OPTIONS["budget"]) -> CrossedSystem:
    t = parse_algebra(_need(obj, "T", "crossed system"))
    g = parse_group(_need(obj, "G", "crossed system"), budget)
    sigma = [_rows(m, "crossed sigma")
             for m in _list(_need(obj, "sigma", "crossed system"), "crossed sigma")]
    alpha = [_rows(row, "crossed alpha")
             for row in _list(_need(obj, "alpha", "crossed system"), "crossed alpha")]
    return validate_crossed_system(t, g, sigma, alpha)


def parse_laurent(obj, budget: int = DEFAULT_OPTIONS["budget"]) -> LaurentRing:
    t = parse_algebra(_need(obj, "T", "laurent ring"))
    n = _int(_need(obj, "n", "laurent ring"), "laurent ring n")
    sigma = [_rows(m, "laurent sigma")
             for m in _list(_need(obj, "sigma", "laurent ring"), "laurent sigma")]
    if len(sigma) != n:
        raise ValidationError(f"laurent ring: {len(sigma)} matrices for rank {n}")
    return make_laurent_ring(t, sigma, budget)


def parse_tower(obj) -> tuple[FieldSpec, list]:
    f = parse_field(_need(obj, "field", "tower spec"))
    return f, _list(_need(obj, "mus", "tower spec"), "tower mus")


def _load(text: str):
    """json.loads, each failure a ParseError: malformed JSON, nesting too
    deep, or an integer literal past Python's digit limit.  json.loads
    raises a plain ValueError only on the last, so the text is loaded again
    with each integer through `parse_int`, which names its digit count."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno) from None
    except RecursionError as e:
        raise ParseError(str(e)) from None
    except ValueError:
        return json.loads(text, parse_int=lambda s: parse_int(s, ParseError))


def parse_request(text: str) -> dict:
    return _request(_load(text))


def _request(doc) -> dict:
    if not isinstance(doc, dict):
        raise ValidationError("request must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ValidationError(f"kind must be one of {', '.join(KINDS)}")
    payload = _need(doc, "payload", "request")
    return {"kind": kind, "payload": payload,
            "options": merge_options(doc.get("options", {}), kind,
                                     payload=payload)}


def wrap_bare_payload(text: str, kind: str) -> dict:
    """Accept either a full request document or a bare payload for `kind`."""
    doc = _load(text)
    if isinstance(doc, dict) and "kind" in doc:
        parsed = _request(doc)
        if parsed["kind"] != kind:
            raise ValidationError(f"expected a {kind} request, got {parsed['kind']}")
        return parsed
    return {"kind": kind, "payload": doc, "options": merge_options({}, kind)}


# -- serialization helpers ---------------------------------------------------------

def scalar_str(field: FieldSpec, c) -> str:
    return field.format(c)


def vec_json(field: FieldSpec, v) -> list:
    return [scalar_str(field, c) for c in v]


def subspace_json(s: Subspace) -> dict:
    return {"rank": s.rank, "basis": [vec_json(s.field, row) for row in s.basis]}


def verdict_json(field: FieldSpec, v: SimplicityVerdict) -> dict:
    return {"simple": v.simple,
            "witness": None if v.witness is None else vec_json(field, v.witness),
            "mode": v.mode,
            "checked": v.checked}


def field_json(f: FieldSpec) -> dict:
    return {"kind": "Q"} if not f.is_finite else {"kind": "Fp", "p": f.p}


# -- analysis blocks ----------------------------------------------------------------

def algebra_block(alg: Algebra, opts) -> dict:
    f = alg.field
    central = nucleus_and_center(alg)
    block = {
        "field": field_json(f),
        "dim": alg.dim,
        "associative": is_associative(alg),
        "subspaces": {
            "left_nucleus": subspace_json(central.left),
            "middle_nucleus": subspace_json(central.middle),
            "right_nucleus": subspace_json(central.right),
            "nucleus": subspace_json(central.nucleus),
            "commuter": subspace_json(central.commuter),
            "center": subspace_json(central.center),
        },
    }
    try:
        block["center_is_field"] = center_is_field(alg, central, opts["budget"])
        block["center_field_mode"] = "exact"
    except ExactModeUnavailable:
        block["center_is_field"] = None
        block["center_field_mode"] = "unchecked"
    v = is_simple(alg, budget=opts["budget"], trials=opts["trials"],
                  seed=opts["seed"])
    block["simplicity"] = verdict_json(f, v)
    return block


def gradation_block(alg: Algebra, grad: Gradation, opts) -> dict:
    g = grad.group
    series = central_series(g)
    block = {
        "group": {"order": g.order,
                  "hypercentral": series.hypercentral,
                  "abelian": g.is_abelian()},
        "degrees": list(grad.degrees),
        "support": [g.label(s) for s in grad.support],
        "strong": is_strong(alg, grad),
        "faithful": is_faithful(alg, grad),
        "faithful_mode": "exact",
    }
    try:
        v = is_graded_simple(alg, grad, budget=opts["budget"])
        block["graded_simplicity"] = verdict_json(alg.field, v)
    except ExactModeUnavailable:
        block["graded_simplicity"] = {"simple": None, "witness": None,
                                      "mode": "unchecked", "checked": 0}
    return block


def equivalence_block(alg: Algebra, grad: Gradation, opts) -> dict:
    eq = simplicity_equivalence(alg, grad, budget=opts["budget"])
    return {"hypercentral": eq.hypercentral,
            "graded_simple": eq.graded_simple.simple,
            "center_is_field": eq.center_field,
            "simple": eq.simple.simple,
            "consistent": eq.consistent}


def crossed_block(sys: CrossedSystem, opts) -> dict:
    """The crossed report.  `graded_simplicity` is read off `g_simple` by
    the crossed-product theorem, so `agree` is true whenever both are
    decided.  The product is associative exactly when T is
    (`CrossedProduct._associative`), so `product_associative` is T's.
    `centers_match` checks the center formula against an independent
    solve of the product's center on the product's own tensor: the kernel
    of its commuter rows, cut by its nuclear slots when T is not
    associative."""
    f = sys.algebra.field
    prod, grad = build_crossed_product(sys)
    z, ztg = crossed_center(sys)
    brute_z = fixed_center(prod, ())
    block = {
        "coefficient_dim": sys.algebra.dim,
        "group_order": sys.group.order,
        "product_dim": prod.dim,
        "product_associative": is_associative(sys.algebra),
        # strong, since every canonical unit of a validated system is a
        # nuclear unit (the proof is in the docstring of build_crossed_product)
        "strong": True,
        "center": subspace_json(z),
        "centers_match": z.basis == brute_z.basis,
        "fixed_center": subspace_json(ztg),
    }
    try:
        block["fixed_center_is_field"] = subfield_check(sys.algebra, ztg,
                                                        opts["budget"])
    except ExactModeUnavailable:
        block["fixed_center_is_field"] = None
    try:
        gv = is_G_simple(sys, budget=opts["budget"])
        block["g_simple"] = verdict_json(f, gv)
        sv = _graded_simplicity(prod, grad, gv, opts["budget"])
        block["graded_simplicity"] = verdict_json(f, sv)
        block["agree"] = True
    except ExactModeUnavailable:
        block["g_simple"] = {"simple": None, "mode": "unchecked"}
        block["graded_simplicity"] = {"simple": None, "mode": "unchecked"}
        block["agree"] = None
    return block


def laurent_element_json(ring: LaurentRing, el) -> list:
    f = ring.algebra.field
    return [{"exp": list(m), "coeff": vec_json(f, c)} for m, c in el.terms]


def laurent_block(ring: LaurentRing, opts) -> dict:
    f = ring.algebra.field
    window = opts.get("window")
    if window is None:
        window = [[-4, 4]] * ring.rank
    check_window(window, ring.rank, opts["budget"])  # before any solve
    v = laurent_simplicity_verdict(ring, budget=opts["budget"])
    block = {
        "rank": ring.rank,
        "orders": list(ring.orders),
        "sigma_simple": v.sigma_simple,
        "sigma_witness": None if v.sigma_witness is None
        else vec_json(f, v.sigma_witness),
        "witness": None if v.witness is None
        else {"u": vec_json(f, v.witness[0]), "m": list(v.witness[1])},
        "simple": v.simple,
        "central_witness": None if v.central_witness is None
        else laurent_element_json(ring, v.central_witness),
        "mode": "exact",
    }
    cs = laurent_center_structure(ring, window, opts["budget"])
    block["center_structure"] = {
        "window": [list(w) for w in window],
        "l_points": [list(m) for m in cs.l_points],
        "conjugators": [vec_json(f, u) for u in cs.conjugators],
        "fixed_center": subspace_json(cs.fixed_center),
        "slice": [{"exp": list(m), "basis": [vec_json(f, row) for row in basis]}
                  for m, basis in zip(cs.slice_exponents, cs.slice_bases)],
    }
    return block


def doubling_report_json(f: FieldSpec, rep: DoublingReport) -> dict:
    return {
        "star_simple": verdict_json(f, rep.star_simple),
        "involution_trivial": rep.involution_trivial,
        "center_is_field": rep.center_field,
        "mu_square_in_center": rep.mu_square,
        "symmetric_center_is_field": rep.symmetric_center_field,
        "criterion_simple": rep.criterion_simple,
        "brute_simple": rep.brute_simple,
        "brute_witness": None if rep.brute_witness is None
        else vec_json(f, rep.brute_witness),
        "consistent": rep.consistent,
    }


def tower_block(f: FieldSpec, mus, opts) -> dict:
    stages = tower(f, mus, budget=opts["budget"])
    out = []
    for st in stages:
        entry = {
            "dim": st.algebra.dim,
            "mu": None if st.mu is None else scalar_str(f, st.mu),
            "degrees": list(st.gradation.degrees),
            "labels": list(st.algebra.labels),
            "report": None if st.report is None
            else doubling_report_json(f, st.report),
        }
        out.append(entry)
    final = stages[-1].report
    return {"field": field_json(f),
            "stages": out,
            "final_criterion_simple": None if final is None
            else final.criterion_simple,
            "final_brute_simple": None if final is None
            else final.brute_simple}


# -- dispatch -------------------------------------------------------------------------

def run_request(doc: dict) -> dict:
    kind, payload, opts = doc["kind"], doc["payload"], doc["options"]
    report: dict = {}
    if kind == "algebra":
        alg = parse_algebra(payload)
        report = algebra_block(alg, opts)
    elif kind == "graded":
        alg = parse_algebra(_need(payload, "algebra", "graded payload"))
        grad = parse_gradation(alg, _need(payload, "gradation", "graded payload"),
                               opts["budget"])
        report = algebra_block(alg, opts)
        report["gradation"] = gradation_block(alg, grad, opts)
        try:
            report["simplicity_equivalence"] = equivalence_block(alg, grad, opts)
        except ExactModeUnavailable:
            report["simplicity_equivalence"] = None
    elif kind == "crossed":
        sys = parse_crossed(payload, opts["budget"])
        report = crossed_block(sys, opts)
    elif kind == "laurent":
        ring = parse_laurent(payload, opts["budget"])
        report = laurent_block(ring, opts)
    elif kind == "cayley-tower":
        f, mus = parse_tower(payload)
        report = tower_block(f, mus, opts)
    echo_opts = {k: v for k, v in opts.items() if v is not None}
    return {"kind": kind, "options": echo_opts, "report": report}


def verdict_only(full: dict) -> dict:
    """Trim a full report to its decision content."""
    kind, rep = full["kind"], full["report"]
    out = {"kind": kind, "options": full["options"]}
    if kind == "algebra":
        out["verdict"] = {"simplicity": rep["simplicity"],
                          "center_is_field": rep["center_is_field"]}
    elif kind == "graded":
        out["verdict"] = {
            "graded_simplicity": rep["gradation"]["graded_simplicity"],
            "simplicity_equivalence": rep["simplicity_equivalence"]}
    elif kind == "crossed":
        out["verdict"] = {"g_simple": rep["g_simple"],
                          "graded_simplicity": rep["graded_simplicity"],
                          "agree": rep["agree"],
                          "centers_match": rep["centers_match"]}
    elif kind == "laurent":
        out["verdict"] = {"sigma_simple": rep["sigma_simple"],
                          "witness": rep["witness"],
                          "simple": rep["simple"],
                          "central_witness": rep["central_witness"]}
    elif kind == "cayley-tower":
        out["verdict"] = {
            "final_criterion_simple": rep["final_criterion_simple"],
            "final_brute_simple": rep["final_brute_simple"],
            "stage_criteria": [None if s["report"] is None
                               else s["report"]["criterion_simple"]
                               for s in rep["stages"]]}
    return out


def render_report(report: dict, timing_ms: float | None = None) -> str:
    if timing_ms is not None:
        report = dict(report)
        report["timing_ms"] = round(timing_ms, 3)
    return json.dumps(report, sort_keys=True, indent=2)


def render_pretty(report: dict) -> str:
    """Indented human-readable rendering of a report tree."""
    lines: list[str] = []

    def walk(node, indent: int):
        pad = "  " * indent
        if isinstance(node, dict):
            for k in sorted(node):
                v = node[k]
                if isinstance(v, (dict, list)) and v:
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {_atom(v)}")
        elif isinstance(node, list):
            for v in node:
                if isinstance(v, (dict, list)) and v:
                    lines.append(f"{pad}-")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}- {_atom(v)}")

    def _atom(v):
        if v is None:
            return "-"
        if isinstance(v, bool):
            return "yes" if v else "no"
        if isinstance(v, (dict, list)):
            return "{}" if isinstance(v, dict) else "[]"
        return str(v)

    walk(report, 0)
    return "\n".join(lines)
