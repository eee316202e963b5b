import contextlib
import copy
import io
import json
import os
import runpy
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix import jsonio, laurent
from gradix.cli import main

GRADED_REQ = {
    "kind": "graded",
    "payload": {
        "algebra": {
            "field": {"kind": "Fp", "p": 2},
            "dim": 2,
            "unit": ["1", "0"],
            "mult": [
                {"i": 0, "j": 0, "k": 0, "c": "1"},
                {"i": 0, "j": 1, "k": 1, "c": "1"},
                {"i": 1, "j": 0, "k": 1, "c": "1"},
                {"i": 1, "j": 1, "k": 0, "c": "1"},
            ],
        },
        "gradation": {"group": "C2", "degrees": [0, 1]},
    },
}

LAURENT_PAYLOAD = {
    "T": {
        "field": {"kind": "Fp", "p": 2},
        "dim": 2,
        "unit": ["1", "0"],
        "mult": [
            {"i": 0, "j": 0, "k": 0, "c": "1"},
            {"i": 0, "j": 1, "k": 1, "c": "1"},
            {"i": 1, "j": 0, "k": 1, "c": "1"},
            {"i": 1, "j": 1, "k": 0, "c": "1"},
            {"i": 1, "j": 1, "k": 1, "c": "1"},
        ],
    },
    "n": 1,
    "sigma": [[["1", "1"], ["0", "1"]]],
}


@pytest.fixture
def graded_file(tmp_path):
    path = tmp_path / "req.json"
    path.write_text(json.dumps(GRADED_REQ))
    return str(path)


@pytest.fixture
def laurent_file(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(LAURENT_PAYLOAD))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_analyze_graded(capsys, graded_file):
    code, out = run_cli(capsys, ["analyze", graded_file])
    assert code == 0
    doc = json.loads(out)
    eq = doc["report"]["simplicity_equivalence"]
    assert eq == {"hypercentral": True, "graded_simple": True,
                  "center_is_field": False, "simple": False,
                  "consistent": True}
    assert doc["report"]["gradation"]["strong"]


def test_verdict_is_trimmed(capsys, graded_file):
    code, out = run_cli(capsys, ["verdict", graded_file])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"kind", "options", "verdict"}
    assert doc["verdict"]["simplicity_equivalence"]["consistent"]


def test_reports_byte_identical(capsys, tmp_path, graded_file):
    # the seed over Q, where it drives the sampled verdict
    for argv in (["analyze", graded_file],
                 ["analyze", write(tmp_path, Q_REQ), "--seed", "7"]):
        code, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert code == 0 and first == second


def test_timing_only_when_asked(capsys, graded_file):
    _, plain = run_cli(capsys, ["analyze", graded_file])
    assert "timing_ms" not in plain
    _, timed = run_cli(capsys, ["analyze", graded_file, "--timing"])
    assert "timing_ms" in json.loads(timed)


def test_pretty_output(capsys, graded_file):
    code, out = run_cli(capsys, ["analyze", graded_file, "--pretty"])
    assert code == 0
    assert "simplicity_equivalence" in out
    assert "{" not in out


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, out = run_cli(capsys, ["analyze", str(bad)])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "ParseError"
    assert "line 1" in err["message"]


def test_validation_error_exit_code(capsys, tmp_path):
    req = dict(GRADED_REQ, payload={
        "algebra": GRADED_REQ["payload"]["algebra"],
        "gradation": {"group": "C2", "degrees": [0, 5]},
    })
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(req))
    code, out = run_cli(capsys, ["analyze", str(path)])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValidationError"


def test_budget_exit_code(capsys, graded_file):
    code, out = run_cli(capsys, ["analyze", graded_file, "--budget", "1"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "BudgetExceeded"


def _named_group_request(tmp_path, group):
    """GRADED_REQ graded by the named group, both basis vectors in the
    identity component."""
    req = copy.deepcopy(GRADED_REQ)
    req["payload"]["gradation"] = {"group": group, "degrees": [0, 0]}
    path = tmp_path / "named.json"
    path.write_text(json.dumps(req))
    return str(path)


@pytest.mark.parametrize("group", ["E\u00b2", "C\u00b3", "S\u2460", "C\u0663",
                                   "D\u0662", "C" + "7" * 5000, "C0", "D0xE9"])
def test_a_group_name_takes_ascii_digits_and_a_positive_order(capsys, tmp_path,
                                                               group):
    # superscripts, circled and Arabic-Indic digits, more digits than Python
    # converts, and the order 0 are malformed: a JSON error with exit 1
    code, out = run_cli(capsys, ["analyze", _named_group_request(tmp_path, group)])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("group, flags, code", [
    ("S9", [], 2), ("E200", [], 2), ("E10", [], 2),
    ("E10", ["--budget", "2000000"], 0), ("S6", [], 0)])
def test_a_named_group_is_refused_by_its_order_before_its_table(
        capsys, tmp_path, group, flags, code):
    # E10 has 1024^2 = 1048576 table entries, over the default budget
    started = time.perf_counter()
    got, out = run_cli(capsys, ["analyze", _named_group_request(tmp_path, group),
                                *flags])
    assert got == code
    if code == 2:
        assert time.perf_counter() - started < 1.0
        err = json.loads(out)["error"]
        assert err["type"] == "BudgetExceeded"
        assert err["message"].endswith(" group table entries exceed budget 1000000")
    else:
        assert json.loads(out)["report"]["gradation"]


def test_unbounded_exit_code(capsys, tmp_path):
    doc = {"kind": "laurent",
           "payload": {"T": {"field": {"kind": "Q"}, "dim": 1,
                             "unit": ["1"],
                             "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]},
                       "n": 1, "sigma": [[["1"]]]}}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, ["verdict", str(path)])
    assert code == 2
    assert json.loads(out)["error"]["type"] in ("UnboundedSearch",
                                                "ExactModeUnavailable")


def test_tower_accepts_bare_payload(capsys, tmp_path):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps({"field": {"kind": "Fp", "p": 3},
                                "mus": ["1", "1"]}))
    code, out = run_cli(capsys, ["tower", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["final_criterion_simple"] is True
    assert doc["report"]["final_brute_simple"] is True
    dims = [s["dim"] for s in doc["report"]["stages"]]
    assert dims == [1, 2, 4]


def test_laurent_subcommand_and_window(capsys, laurent_file):
    code, out = run_cli(capsys, ["laurent", laurent_file, "--window=-2:2"])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["simple"] is False
    assert rep["witness"] == {"u": ["1", "0"], "m": [2]}
    assert rep["central_witness"] == [{"exp": [0], "coeff": ["1", "0"]},
                                      {"exp": [2], "coeff": ["1", "0"]}]
    assert [s["exp"] for s in rep["center_structure"]["slice"]] == \
        [[-2], [0], [2]]


def test_laurent_window_over_budget_is_refused(capsys, laurent_file, monkeypatch):
    # refused before the verdict: no coefficient space is solved
    monkeypatch.setattr(laurent, "center_coefficient_space", None)
    started = time.perf_counter()
    code, out = run_cli(capsys, ["laurent", laurent_file,
                                 "--window=-1000000000:1000000000"])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "BudgetExceeded"
    assert err["message"] == "window holds 2000000001 exponents, over budget 1000000"


@pytest.mark.parametrize("window", ["-1000000:1000000,0:1", "0:1,0:1"])
def test_laurent_window_of_the_wrong_rank_is_refused(capsys, laurent_file,
                                                      monkeypatch, window):
    # malformed input, refused before its count and before the verdict:
    # exit 1, not a budget refusal (exit 2) and not after the sweep
    monkeypatch.setattr(laurent, "center_coefficient_space", None)
    monkeypatch.setattr(laurent, "is_sigma_simple", None)
    code, out = run_cli(capsys, ["laurent", laurent_file, f"--window={window}"])
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["type"], err["message"]) == ("ValidationError",
                                             "degree box has rank != 1")


def test_laurent_rejects_wrong_kind(capsys, tmp_path, graded_file):
    code, out = run_cli(capsys, ["laurent", graded_file])
    assert code == 1


def test_console_script_entry_point(graded_file):
    proc = subprocess.run([sys.executable, "-m", "gradix.cli", "verdict",
                           graded_file], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"]["simplicity_equivalence"]


def test_python_dash_m_gradix(graded_file, monkeypatch, capsys):
    # what `python -m gradix verdict <file>` runs
    monkeypatch.setattr(sys, "argv", ["gradix", "verdict", graded_file])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("gradix", run_name="__main__")
    assert exc.value.code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"]["simplicity_equivalence"]


Q_REQ = {"kind": "algebra",
         "payload": {"field": {"kind": "Q"}, "dim": 1, "unit": ["1"],
                     "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]}}


def write(tmp_path, doc):
    path = tmp_path / "req.json"
    path.write_text(json.dumps(doc))
    return str(path)


def assert_validation_error(capsys, argv):
    code, out = run_cli(capsys, argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--budget", "-1"],
                                   ["--budget", "0"]])
def test_flags_are_validated_like_options(capsys, tmp_path, flags):
    assert_validation_error(capsys, ["verdict", write(tmp_path, Q_REQ)] + flags)
    # a bare payload's defaults go through the same check
    tower = write(tmp_path, {"field": {"kind": "Fp", "p": 3}, "mus": ["1"]})
    assert_validation_error(capsys, ["tower", tower] + flags)


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


ALG = ("payload", "algebra")


@pytest.mark.parametrize("path, value", [
    (ALG + ("mult",), [5]),
    (ALG + ("field", "p"), "x"),
    (ALG + ("dim",), "q"),
    (ALG + ("mult", 3, "c"), 1.5),        # a float is refused, not truncated
    (ALG + ("mult", 3, "i"), 1.0),
    (("payload", "gradation", "degrees", 1), 1.0),
    (("options",), {"budget": "abc"}),
    (("options",), {"oracle_maxlen": 5}),  # no longer an option
])
def test_malformed_requests_are_refused(capsys, tmp_path, path, value):
    doc = _mutated(GRADED_REQ, path, value)
    assert_validation_error(capsys, ["analyze", write(tmp_path, doc)])


@pytest.mark.parametrize("field, dim", [({"kind": "Fp", "p": 3}, 0),
                                        ({"kind": "Q"}, 0),
                                        ({"kind": "Fp", "p": 3}, -1)])
def test_empty_algebra_is_refused(capsys, tmp_path, field, dim):
    doc = {"kind": "algebra",
           "payload": {"field": field, "dim": dim, "unit": [], "mult": []}}
    code, out = run_cli(capsys, ["analyze", write(tmp_path, doc)])
    assert code == 1
    assert json.loads(out) == {"error": {
        "type": "ValidationError",
        "message": f"algebra dim must be at least 1, got {dim}"}}


@pytest.mark.parametrize("p, code", [(10 ** 18 + 3, 0),
                                     (3317044064679887385961981, 1)])
def test_huge_primes_are_decided_at_once(capsys, tmp_path, p, code):
    doc = {"kind": "algebra",
           "payload": {"field": {"kind": "Fp", "p": p}, "dim": 1, "unit": ["1"],
                       "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]}}
    started = time.perf_counter()
    got, out = run_cli(capsys, ["verdict", write(tmp_path, doc)])
    assert time.perf_counter() - started < 2
    assert got == code
    if code == 0:
        assert json.loads(out)["verdict"]["simplicity"]["simple"] is True
    else:
        assert json.loads(out)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("identity", [5, "7", -2])
def test_group_identity_out_of_range_is_refused(capsys, tmp_path, identity):
    doc = _mutated(GRADED_REQ, ("payload", "gradation", "group"),
                   {"table": [[0, 1], [1, 0]], "identity": identity})
    code, out = run_cli(capsys, ["analyze", write(tmp_path, doc)])
    assert code == 1
    assert json.loads(out) == {"error": {
        "type": "ValidationError",
        "message": f"identity {int(identity)} out of range for order 2"}}


@pytest.mark.parametrize("window", [[[1]], [5], [[0, 1.5]], "0:1"])
def test_malformed_window_is_refused(capsys, tmp_path, window):
    doc = {"kind": "laurent", "payload": LAURENT_PAYLOAD,
           "options": {"window": window}}
    assert_validation_error(capsys, ["laurent", write(tmp_path, doc)])


@pytest.mark.parametrize("command", ["analyze", "verdict"])
def test_window_outside_a_laurent_request_is_refused(capsys, tmp_path, command):
    doc = {**GRADED_REQ, "options": {"window": [[-1, 1]]}}
    code, out = run_cli(capsys, [command, write(tmp_path, doc)])
    assert code == 1
    assert json.loads(out) == {"error": {
        "type": "ValidationError",
        "message": "option window applies to laurent requests only, "
                   "not to graded"}}


SAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "sample_requests")

KIND_SAMPLES = {"crossed": ("analyze", "crossed_f9_c2.json"),
                "laurent": ("laurent", "laurent_f4_frobenius.json"),
                "cayley-tower": ("tower", "tower_f3.json")}


def _as_request(kind, name):
    """The sample as a full request document of its kind."""
    with open(os.path.join(SAMPLES, name)) as fh:
        doc = json.load(fh)
    return doc if "kind" in doc else {"kind": kind, "payload": doc}


def _fp_request(kind):
    """group_algebra_z2.json, F_2[C2] with its C2-grading, as a request of
    the kind: graded as it stands, or its algebra alone."""
    doc = _as_request("graded", "group_algebra_z2.json")
    if kind == "graded":
        return doc
    return {"kind": "algebra", "payload": doc["payload"]["algebra"]}


@pytest.mark.parametrize("kind", sorted(KIND_SAMPLES) + ["algebra", "graded"])
@pytest.mark.parametrize("option, value", [("trials", 5), ("seed", 3)])
def test_sampling_options_are_refused_where_nothing_samples(
        capsys, tmp_path, kind, option, value):
    """No crossed, laurent or tower verdict samples, and no algebra or
    graded verdict over F_p, so trials and seed are refused there, in the
    document and as flags, while the report still echoes their
    defaults."""
    if kind in KIND_SAMPLES:
        command, name = KIND_SAMPLES[kind]
        doc = _as_request(kind, name)
        message = (f"option {option} applies to algebra and graded requests "
                   f"only, not to {kind}")
    else:
        command, name = "analyze", "group_algebra_z2.json"
        doc = _fp_request(kind)
        message = (f"option {option} applies to algebra and graded requests "
                   "over Q only, not over F_2")
    refused = tmp_path / "refused.json"
    refused.write_text(json.dumps(
        {**doc, "options": {**doc.get("options", {}), option: value}}))
    argvs = [[command, str(refused)],
             [command, write(tmp_path, doc), f"--{option}", str(value)]]
    if kind != "algebra":
        argvs.append([command, os.path.join(SAMPLES, name), f"--{option}",
                      str(value)])
    for argv in argvs:
        code, out = run_cli(capsys, argv)
        assert code == 1
        assert json.loads(out) == {"error": {"type": "ValidationError",
                                             "message": message}}
    code, out = run_cli(capsys, [command, write(tmp_path, doc)])
    assert code == 0
    assert json.loads(out)["options"][option] == jsonio.DEFAULT_OPTIONS[option]


@pytest.mark.parametrize("kind", ["algebra", "graded"])
def test_sampling_options_are_taken_over_q(capsys, tmp_path, kind):
    # the same requests over Q sample, and echo the options they set
    doc = _fp_request(kind)
    algebra = doc["payload"] if kind == "algebra" else doc["payload"]["algebra"]
    algebra["field"] = {"kind": "Q"}
    code, out = run_cli(capsys, ["analyze", write(tmp_path, doc),
                                 "--trials", "5", "--seed", "3"])
    assert code == 0
    assert json.loads(out)["options"] == {"budget": 1_000_000, "seed": 3,
                                          "trials": 5}


SAMPLE_COMMANDS = {"group_algebra_z2.json": "analyze",
                   "crossed_f9_c2.json": "analyze",
                   "laurent_f4_frobenius.json": "laurent",
                   "tower_f3.json": "tower"}


def _paths(node, path=()):
    """Every position in a JSON tree, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


# values that no position of a request accepts
POISON = st.sampled_from([1.5, -0.25, "x", "", True, None, [[1]], {"a": 1}])


@st.composite
def mutated_samples(draw):
    name = draw(st.sampled_from(sorted(SAMPLE_COMMANDS)))
    with open(os.path.join(SAMPLES, name), encoding="utf-8") as fh:
        doc = json.load(fh)
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(POISON)
    doc = _mutated(doc, path, value) if path else value
    return SAMPLE_COMMANDS[name], json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(mutated_samples())
def test_fuzzed_requests_fail_with_json_errors(case):
    command, text = case
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = main([command, "-"])   # a traceback would fail the test
    finally:
        sys.stdin = stdin
    assert code in (1, 2), text
    err = json.loads(out.getvalue())["error"]
    assert set(err) == {"type", "message"}


REQUEST_COMMANDS = ["analyze", "verdict", "tower", "laurent"]


def _unreadable(tmp_path, case):
    if case == "missing":
        return str(tmp_path / "absent.json")
    if case == "directory":
        return str(tmp_path)
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "algebra", "payload": "\xe9"}')
    return str(path)


@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
@pytest.mark.parametrize("command", REQUEST_COMMANDS)
def test_unreadable_input_is_a_json_error(capsys, tmp_path, command, case):
    path = _unreadable(tmp_path, case)
    code, out = run_cli(capsys, [command, path])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "ValidationError"
    assert path in err["message"]


def test_malformed_window_is_reported_before_the_input(capsys, tmp_path):
    code, out = run_cli(capsys, ["laurent", str(tmp_path / "absent.json"),
                                 "--window", "0:x"])
    assert code == 1
    assert json.loads(out)["error"]["message"] == \
        "bad window part '0:x', expected lo:hi"


# Python 3.11 refuses to convert integers of more than 4 300 digits by
# default; 3.10, or a limit set to 0, converts any length
NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python converts integers of any length")


@pytest.mark.parametrize("command", ["analyze", "laurent"])
@pytest.mark.parametrize("text, message", [
    ("[" * 100_000, "maximum recursion depth exceeded"),
    pytest.param("1" * 5_000, "integer string conversion",
                 marks=NEEDS_DIGIT_LIMIT),
])
def test_json_that_python_cannot_load_is_a_parse_error(capsys, tmp_path, command,
                                                       text, message):
    # json.loads raises RecursionError and ValueError on these, not
    # JSONDecodeError; a full request and a bare payload share the loader
    path = tmp_path / "req.json"
    path.write_text(text)
    code = main([command, str(path)])   # a traceback would fail the test
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert len(out.splitlines()) == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError" and message in error["message"]


DIGITS = "1" * 5_000
ALGEBRA = ('{"kind": "algebra", "payload": {"field": %s, "dim": %s, '
           '"unit": [%s], "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]}}')


@NEEDS_DIGIT_LIMIT
@pytest.mark.parametrize("text, error", [
    (ALGEBRA % ('{"kind": "Fp", "p": 2}', DIGITS, '"1"'), "ParseError"),
    (ALGEBRA % ('{"kind": "Fp", "p": 2}', f'"{DIGITS}"', '"1"'), "ValidationError"),
    (ALGEBRA % ('{"kind": "Q"}', "1", f'"-1/-{DIGITS}"'), "ValidationError"),
], ids=["json-number", "integer-string", "scalar-string"])
def test_an_integer_past_the_digit_limit_names_its_length(capsys, tmp_path,
                                                          text, error):
    # a JSON number (`jsonio._load`), an integer given as a string
    # (`jsonio._int`) and a scalar string (`FieldSpec.parse`) give one
    # message with the digit count and the limit, not Python's advice to
    # raise the limit and not the 5 000 digits themselves
    path = tmp_path / "req.json"
    path.write_text(text)
    code, out = run_cli(capsys, ["analyze", str(path)])
    assert code == 1 and len(out.splitlines()) == 1
    assert json.loads(out)["error"] == {
        "type": error,
        "message": f"integer of 5000 digits is over the limit of "
                   f"{sys.get_int_max_str_digits()} digits for integer string "
                   f"conversion"}


@pytest.mark.parametrize("text, message", [
    (ALGEBRA % ('{"kind": "Fp", "p": 2}', '"1_0"', '"1"'),
     "algebra dim must be an integer, got '1_0'"),
    (ALGEBRA % ('{"kind": "Fp", "p": "\\u0663"}', "1", '"1"'),
     "field p must be an integer, got '\u0663'"),
], ids=["underscore", "arabic-indic-digit"])
def test_an_integer_string_is_ascii_digits_only(capsys, tmp_path, text,
                                                message):
    # Python's int reads "1_0" as 10 and the Arabic-Indic three as 3; an
    # integer string, like a scalar string, is ASCII digits and a sign
    path = tmp_path / "req.json"
    path.write_text(text)
    code, out = run_cli(capsys, ["verdict", str(path)])
    assert code == 1 and len(out.splitlines()) == 1
    assert json.loads(out)["error"] == {"type": "ValidationError",
                                        "message": message}


def test_an_algebra_too_large_to_allocate_exits_2(capsys, tmp_path):
    # well-formed, but its structure tensor takes 10^15 entries, which
    # numpy refuses at once
    dim = 100_000
    doc = {"kind": "algebra",
           "payload": {"field": {"kind": "Fp", "p": 2}, "dim": dim,
                       "unit": ["1"] + ["0"] * (dim - 1),
                       "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]}}
    code = main(["analyze", write(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert len(out.splitlines()) == 1
    error = json.loads(out)["error"]
    assert error["type"] == "MemoryError"
    assert "Unable to allocate" in error["message"]
