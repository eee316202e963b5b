import contextlib
import copy
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_reports_byte_identical(capsys, graded_file):
    _, first = run_cli(capsys, ["analyze", graded_file, "--seed", "7"])
    _, second = run_cli(capsys, ["analyze", graded_file, "--seed", "7"])
    assert first == second


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


def test_laurent_rejects_wrong_kind(capsys, tmp_path, graded_file):
    code, out = run_cli(capsys, ["laurent", graded_file])
    assert code == 1


def test_selftest_passes(capsys):
    code, out = run_cli(capsys, ["selftest", "--trials", "5"])
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_console_script_entry_point(graded_file):
    proc = subprocess.run([sys.executable, "-m", "gradix.cli", "verdict",
                           graded_file], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"]["simplicity_equivalence"]


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


@pytest.mark.parametrize("window", [[[1]], [5], [[0, 1.5]], "0:1"])
def test_malformed_window_is_refused(capsys, tmp_path, window):
    doc = {"kind": "laurent", "payload": LAURENT_PAYLOAD,
           "options": {"window": window}}
    assert_validation_error(capsys, ["laurent", write(tmp_path, doc)])


SAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "sample_requests")
SAMPLE_COMMANDS = {"group_algebra_z2.json": "analyze",
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
