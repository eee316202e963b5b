"""The scripts under scripts/ run with the arguments the README gives them.

tower_survey.py asserts the doubling criterion of the reporting tower
against brute-force simplicity itself, so exit 0 means they agree.
report_digests.py, at its default seeds and rounds, prints the digests of
tests/golden/report_digests.json: the benchmark's requests render the same
reports byte for byte.  replay_kinds.py times the same requests by kind,
and rref_shapes.py their np_rref calls by shape.  A stated change of the
report schema, or a change of perfbench/gen.py, regenerates that file with
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


@pytest.mark.parametrize("item", ["crossed", "crossed=x", "crossed=\u00b2",
                                  "nosuch=3"])
def test_report_digests_refuses_a_bad_rounds_item(item):
    # a usage error, exit 2, before any request is built
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" /
                                               "report_digests.py"),
                           "--rounds", item], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--rounds takes WORKLOAD=N" in proc.stderr


def test_replay_kinds_times_each_kind():
    out = json.loads(run_script(["replay_kinds.py", "--rounds", "2",
                                 "--passes", "1"]))
    assert sorted(out) == ["algebra", "cayley-tower", "crossed", "graded",
                           "laurent"]
    assert all(seconds > 0 for seconds in out.values())


def test_replay_kinds_splits_algebra_requests_by_dimension():
    out = json.loads(run_script(["replay_kinds.py", "--workload", "rationals",
                                 "--rounds", "1", "--passes", "1",
                                 "--by-dim"]))
    assert sorted(out) == ["algebra d=3", "algebra d=4", "algebra d=5",
                           "algebra d=8"]
    assert all(seconds > 0 for seconds in out.values())


def test_rref_shapes_counts_every_call_by_shape_class():
    out = run_script(["rref_shapes.py", "--workload", "towers", "--seeds", "1",
                      "--rounds", "1", "--passes", "1"]).splitlines()
    assert out[0].split() == ["side", "rows", "width", "rank", "calls",
                              "seconds"]
    classes = [line.split() for line in out[1:-1]]
    total = out[-1].split()
    assert classes and all(c[0] in ("rows", "array") for c in classes)
    assert total[0] == "total"
    assert int(total[1]) == sum(int(c[4]) for c in classes)
    assert all(float(c[5]) > 0 for c in classes)


def bench_pair():
    spec = importlib.util.spec_from_file_location(
        "bench_pair", ROOT / "scripts" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_runner(values, calls, metric="requests_per_s", **result):
    """A harness stand-in: each run of a side reports the next value of
    that side as its metric, with `result` over the defaults."""
    left = {side: iter(v) for side, v in values.items()}

    def run(cwd, workload, seed, seconds):
        calls.append((cwd, workload))
        value = next(left[cwd])
        return "machine  nproc=2", {
            "correct": True, "failed": 0, **result,
            "metrics": {metric: {"value": value, "unit": "1/s"}}}
    return run


def test_bench_pair_alternates_sides_and_takes_medians():
    calls = []
    run = stub_runner({"p": [60.0, 70.0, 65.0], "c": [80.0, 75.0, 90.0]}, calls)
    machine, out = bench_pair().compare({"parent": "p", "change": "c"},
                                        {"crossed": 3},
                                        {"requests_per_s": "higher"},
                                        1, 20, run=run)
    assert machine == "machine  nproc=2"
    assert [cwd for cwd, _ in calls] == ["p", "c", "c", "p", "p", "c"]
    assert out == {"crossed": {
        "parent": {"requests_per_s": {"median": 65.0, "runs": [60.0, 70.0, 65.0],
                                      "quartiles": [62.5, 67.5]}},
        "change": {"requests_per_s": {"median": 80.0, "runs": [80.0, 75.0, 90.0],
                                      "pairs_won": 3}}}}


def test_bench_pair_counts_the_pairs_won_in_the_better_direction():
    # lower is better for a latency; a tie is not a win
    run = stub_runner({"p": [1.0, 2.0, 3.0, 4.0], "c": [0.5, 2.0, 3.5, 1.0]},
                      [], metric="latency_p50_s")
    _, out = bench_pair().compare({"parent": "p", "change": "c"},
                                  {"crossed": 4}, {"latency_p50_s": "lower"},
                                  1, 20, run=run)
    assert out["crossed"]["change"]["latency_p50_s"]["pairs_won"] == 2
    assert out["crossed"]["parent"]["latency_p50_s"]["quartiles"] == [1.75, 3.25]


def test_bench_pair_runs_ten_pairs_by_default(monkeypatch, tmp_path):
    # every workload of BENCHMARK.json, 10 pairs each, into the BENCH file;
    # git and tar are stood in for, and the run happens in tmp_path
    module = bench_pair()
    plans = []

    def compare(dirs, plan, better, seed, seconds):
        plans.append((plan, better))
        return "machine  nproc=2", {}
    monkeypatch.setattr(module, "compare", compare)
    monkeypatch.setattr(module.subprocess, "run", lambda cmd, **kw: (
        subprocess.CompletedProcess(cmd, 0, "abc\n" if kw.get("text") else b"")))
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.chdir(tmp_path)
    assert module.main(["--label", "x", "--rev", "r"]) == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = {w["name"]: 10 for w in bench["workloads"]}
    assert plans == [(plan, {m["name"]: m["better"] for m in bench["end_to_end"]})]
    doc = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert (doc["rev"], doc["pairs"]) == ("abc", plan)


@pytest.mark.parametrize("result", [{"correct": False}, {"failed": 1},
                                    {"correct": None}])
def test_bench_pair_refuses_a_wrong_run(result):
    run = stub_runner({"p": [60.0], "c": [80.0]}, [], **result)
    with pytest.raises(SystemExit, match="refused a parent crossed run"):
        bench_pair().compare({"parent": "p", "change": "c"}, {"crossed": 1},
                             {"requests_per_s": "higher"}, 1, 20, run=run)


def test_bench_pair_needs_the_parent_rev(monkeypatch, capsys):
    # with HEAD as a default, a committed change would be run against itself
    monkeypatch.chdir(ROOT)
    with pytest.raises(SystemExit) as exc:
        bench_pair().main(["--label", "x"])
    assert exc.value.code == 2
    assert "--rev" in capsys.readouterr().err


@pytest.mark.parametrize("item", ["crossed", "crossed=0", "crossed=x",
                                  "crossed=\u00b2", "nosuch=3", "=3"])
def test_bench_pair_refuses_a_bad_pairs_item_before_any_run(monkeypatch,
                                                             capsys, item):
    # usage error, exit 2, before git extracts the parent or a run starts
    module = bench_pair()

    def refuse(*args, **kwargs):
        raise AssertionError("a subprocess ran")
    monkeypatch.setattr(module.subprocess, "run", refuse)
    monkeypatch.setattr(module, "compare", refuse)
    monkeypatch.chdir(ROOT)
    with pytest.raises(SystemExit) as exc:
        module.main(["--label", "x", "--rev", "r", "--pairs", "towers=2", item])
    assert exc.value.code == 2
    assert "--pairs takes WORKLOAD=N with N >= 1" in capsys.readouterr().err
