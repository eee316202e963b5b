"""The scripts under scripts/ run with the arguments the README gives them.

tower_survey.py asserts the doubling criterion of the reporting tower
against brute-force simplicity itself, so exit 0 means they agree.
report_digests.py, at its default seeds and rounds, prints the digests of
tests/golden/report_digests.json: the benchmark's requests render the same
reports byte for byte.  replay_kinds.py times the same requests by kind.  A stated change of the report schema, or a change
of perfbench/gen.py, regenerates that file with
`python scripts/report_digests.py > tests/golden/report_digests.json`.
bench_pair.py runs the benchmark for minutes, so its pairing, medians and
refusals are tested on a stand-in for the harness."""

import importlib.util
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


def test_replay_kinds_times_each_kind():
    out = json.loads(run_script(["replay_kinds.py", "--rounds", "2",
                                 "--passes", "1"]))
    assert sorted(out) == ["algebra", "cayley-tower", "crossed", "graded",
                           "laurent"]
    assert all(seconds > 0 for seconds in out.values())


def bench_pair():
    spec = importlib.util.spec_from_file_location(
        "bench_pair", ROOT / "scripts" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_runner(values, calls, **result):
    """A harness stand-in: each run of a side reports the next value of
    that side as its requests_per_s, with `result` over the defaults."""
    left = {side: iter(v) for side, v in values.items()}

    def run(cwd, workload, seed, seconds):
        calls.append((cwd, workload))
        rate = next(left[cwd])
        return "machine  nproc=2", {
            "correct": True, "failed": 0, **result,
            "metrics": {"requests_per_s": {"value": rate, "unit": "1/s"}}}
    return run


def test_bench_pair_alternates_sides_and_takes_medians():
    calls = []
    run = stub_runner({"p": [60.0, 70.0, 65.0], "c": [80.0, 75.0, 90.0]}, calls)
    machine, out = bench_pair().compare({"parent": "p", "change": "c"},
                                        {"crossed": 3}, ["requests_per_s"],
                                        1, 20, run=run)
    assert machine == "machine  nproc=2"
    assert [cwd for cwd, _ in calls] == ["p", "c", "c", "p", "p", "c"]
    assert out == {"crossed": {
        "parent": {"requests_per_s": {"median": 65.0, "runs": [60.0, 70.0, 65.0]}},
        "change": {"requests_per_s": {"median": 80.0, "runs": [80.0, 75.0, 90.0]}}}}


@pytest.mark.parametrize("result", [{"correct": False}, {"failed": 1},
                                    {"correct": None}])
def test_bench_pair_refuses_a_wrong_run(result):
    run = stub_runner({"p": [60.0], "c": [80.0]}, [], **result)
    with pytest.raises(SystemExit, match="refused a parent crossed run"):
        bench_pair().compare({"parent": "p", "change": "c"}, {"crossed": 1},
                             ["requests_per_s"], 1, 20, run=run)


def test_bench_pair_needs_the_parent_rev(monkeypatch, capsys):
    # with HEAD as a default, a committed change would be run against itself
    monkeypatch.chdir(ROOT)
    with pytest.raises(SystemExit) as exc:
        bench_pair().main(["--label", "x"])
    assert exc.value.code == 2
    assert "--rev" in capsys.readouterr().err
